//! Trusted spot-checker: partial re-execution of sampled tasks.
//!
//! The sample-based verification tier (Yoon & Liu, *Practical
//! Verification of MapReduce Computation Integrity via Partial
//! Re-execution*, arXiv 2002.09560) runs each sub-graph **once** on the
//! untrusted tier and has a trusted checker deterministically sample
//! completed tasks, re-execute them honestly on their captured true
//! inputs, and compare output digests. The engine captures the evidence:
//! when a job carries a [`SamplePlan`](crate::SamplePlan), every sampled
//! task's true input (the map split's shared `Arc` window, or the exact
//! reduce partition fed to the task) and a commitment digest over its
//! recorded output are packaged into a [`SpotCheckRecord`] and emitted as
//! [`EngineEvent::SpotCheck`](crate::EngineEvent::SpotCheck).
//!
//! Corruption in this engine poisons a task's *input view* (the true
//! records in storage and the shuffle stay honest), so an honest re-run
//! from the captured inputs diverges exactly at the corrupting task —
//! the recorded output digest mismatches and the Merkle tree localizes
//! the window via [`ChunkedSummary::localize`].
//!
//! Checks are pure functions of the record's contents: callers may
//! dispatch them on any thread of the shared compute pool (they overlap
//! foreground execution in the parallel executor) and the verdict is
//! identical everywhere.

use std::sync::Arc;

use cbft_digest::{ChunkedSummary, MismatchRange};

use crate::fault::{NodeId, TaskFate};
use crate::spec::{ExecJob, TaskKind};
use crate::task::{run_task, TaskInput};

/// Everything needed to re-execute one sampled task and judge its
/// recorded output: emitted by the engine as
/// [`EngineEvent::SpotCheck`](crate::EngineEvent::SpotCheck) the moment
/// the sampled task completes.
#[derive(Clone, Debug)]
pub struct SpotCheckRecord {
    /// Sub-graph id.
    pub sid: String,
    /// Replica index within the sub-graph.
    pub replica: usize,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within its phase.
    pub task_index: usize,
    /// The node that executed the task — the party charged on mismatch.
    pub node: NodeId,
    /// Commitment digest over the output the untrusted node reported.
    pub recorded: ChunkedSummary,
    pub(crate) spec: Arc<ExecJob>,
    /// The captured true input: a map split's window into the
    /// `Arc`-shared input file, or the exact reduce partition fed to the
    /// task, copied before the untrusted task could touch it.
    pub(crate) input: TaskInput,
}

impl SpotCheckRecord {
    /// Number of input records an honest re-run will process.
    pub fn records_to_rerun(&self) -> u64 {
        self.input.len() as u64
    }

    /// Re-executes the task honestly on its captured true inputs and
    /// compares the result against the recorded output digest. Pure: the
    /// verdict (and the localized divergence window) is identical on any
    /// thread.
    pub fn check(&self) -> SpotCheck {
        // The same entry point the untrusted node ran, with a faithful
        // fate; the two runs are compared by their output commitments.
        let honest = run_task(&self.spec, self.input.clone(), TaskFate::Faithful)
            .commitment(self.kind, self.spec.digest_granularity);
        let confirmed = honest.combined() == self.recorded.combined();
        SpotCheck {
            sid: self.sid.clone(),
            replica: self.replica,
            kind: self.kind,
            task_index: self.task_index,
            node: self.node,
            divergence: if confirmed {
                None
            } else {
                self.recorded.localize(&honest)
            },
            confirmed,
            records_reexecuted: self.records_to_rerun(),
        }
    }
}

/// Verdict of one spot-check re-execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SpotCheck {
    /// Sub-graph id of the checked task.
    pub sid: String,
    /// Replica index within the sub-graph.
    pub replica: usize,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within its phase.
    pub task_index: usize,
    /// The node that executed the original task.
    pub node: NodeId,
    /// True when the honest re-run reproduced the recorded output digest.
    pub confirmed: bool,
    /// On mismatch: the chunk/record window localized by Merkle descent
    /// between the recorded and honest output streams, when the streams
    /// are comparable.
    pub divergence: Option<MismatchRange>,
    /// Input records the re-run processed (the spot-check's compute
    /// cost, in the same units as foreground record counts).
    pub records_reexecuted: u64,
}
