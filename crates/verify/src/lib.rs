//! ClusterBFT's trusted control tier (§3's separation of duty).
//!
//! A small trusted tier commands a large untrusted computation tier. This
//! crate is the part of the control tier that judges what the computation
//! tier says:
//!
//! * [`Verifier`] — the `f + 1` digest quorum per correspondence key,
//!   Merkle localisation of disagreeing streams, and the publication gate
//!   ([`Verifier::winner`]);
//! * [`SuspicionTable`] — per-node suspicion levels (§4.1) and their bands;
//! * [`FaultAnalyzer`] — the Fig. 7 fault analyzer, which narrows faulty
//!   job clusters down to nodes.
//!
//! It also owns the messages that cross the trust boundary:
//! [`DigestReport`], with its [`TaskKind`], and [`NodeId`]. The untrusted
//! engine (`cbft-mapreduce`) builds these types and re-exports them; this
//! crate depends on no engine code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use cbft_dataflow::compile::Site;
use cbft_dataflow::VertexId;
use cbft_digest::ChunkedSummary;
use cbft_sim::SimTime;
use serde::{Deserialize, Serialize};

mod isolation;
mod suspicion;
mod verifier;

pub use isolation::FaultAnalyzer;
pub use suspicion::{
    BandUpdates, SuspicionBand, SuspicionTable, EXCLUSION_MIN_JOBS, EXCLUSION_THRESHOLD,
};
pub use verifier::{DigestKey, KeyVerdict, StreamedReport, Verifier};

/// Identifier of a worker node in the untrusted tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What kind of task produced a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Map task over one split of one input.
    Map,
    /// Reduce (or collector) task over one partition.
    Reduce,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Map => write!(f, "map"),
            TaskKind::Reduce => write!(f, "reduce"),
        }
    }
}

/// A digest produced at a verification point by one task of one replica,
/// streamed to the verifier as soon as the task completes (§3.3's
/// "approximate, offline redundancy": comparison can start before the
/// sub-job finishes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DigestReport {
    /// Sub-graph id (replicas share it).
    pub sid: String,
    /// Replica index.
    pub replica: usize,
    /// The instrumented vertex.
    pub vertex: VertexId,
    /// The vertex's execution site.
    pub site: Site,
    /// Task kind that produced the stream.
    pub kind: TaskKind,
    /// Task index within its phase (split index for maps, partition index
    /// for reduces). Replicas use identical splits/partitions, so this is
    /// the correspondence key for comparison.
    pub task_index: usize,
    /// The chunked digest of the record stream.
    pub summary: ChunkedSummary,
    /// Virtual time the digest reached the verifier.
    pub at: SimTime,
}

impl DigestReport {
    /// The comparison key: reports from different replicas with equal keys
    /// digest corresponding streams and must match.
    pub fn correspondence_key(&self) -> DigestKey {
        (self.vertex, self.site, self.kind, self.task_index)
    }
}
