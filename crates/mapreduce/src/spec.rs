//! Executable job descriptions and digest reports.

use std::fmt;
use std::sync::Arc;

use cbft_dataflow::combiner::Combiner;
use cbft_dataflow::compile::Site;
use cbft_dataflow::{LogicalPlan, VertexId};
use serde::{Deserialize, Serialize};

pub use cbft_verify::{DigestReport, TaskKind};

/// Handle identifying one submitted job run within a [`Cluster`].
///
/// [`Cluster`]: crate::Cluster
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RunHandle(pub(crate) u64);

impl RunHandle {
    /// The raw id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for RunHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run{}", self.0)
    }
}

/// One map input of an executable job: a concrete storage file plus the
/// operator pipeline applied to it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecInput {
    /// Storage file to read.
    pub file: String,
    /// Pipeline of plan vertices applied map-side.
    pub pipeline: Vec<VertexId>,
    /// Join side tag (0 = left/only, 1 = right).
    pub tag: usize,
}

/// A verification point placed within this job.
///
/// The `site` locates where in the job the vertex executes; it must be one
/// of the sites reported by
/// [`JobGraph::vertex_sites`](cbft_dataflow::compile::JobGraph::vertex_sites)
/// for this job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VpSite {
    /// The instrumented vertex.
    pub vertex: VertexId,
    /// Where it executes within this job.
    pub site: Site,
}

/// Deterministic spot-check sampling plan for a job run (partial
/// re-execution, Yoon & Liu arXiv 2002.09560).
///
/// The decision to sample a task is a pure function of
/// `(seed, sid, kind, index)` — no clock, RNG state or thread identity —
/// so the sampled set is byte-identical across worker-thread and
/// compute-pool widths. The rate is pre-quantized to a 32-bit threshold
/// at construction, keeping the per-task test integer-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplePlan {
    /// Sampling seed (typically the executor's master seed).
    pub seed: u64,
    /// Inclusion threshold: a task is sampled when the low 32 bits of its
    /// decision hash fall below this value. `rate * 2^32`, so `0` samples
    /// nothing and `2^32` samples everything.
    pub threshold: u64,
}

impl SamplePlan {
    /// Builds a plan sampling roughly `rate` (clamped to `[0, 1]`) of
    /// completed tasks under `seed`.
    pub fn from_rate(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        SamplePlan {
            seed,
            threshold: (rate * (1u64 << 32) as f64).round() as u64,
        }
    }

    /// The sampling rate this plan's threshold encodes.
    pub fn rate(&self) -> f64 {
        self.threshold as f64 / (1u64 << 32) as f64
    }

    /// Whether the task `(sid, kind, index)` is spot-checked under this
    /// plan. Pure and total: any caller on any thread computes the same
    /// answer.
    pub fn samples(&self, sid: &str, kind: TaskKind, index: usize) -> bool {
        let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.seed.to_be_bytes());
        eat(sid.as_bytes());
        eat(&[match kind {
            TaskKind::Map => 0u8,
            TaskKind::Reduce => 1u8,
        }]);
        eat(&(index as u64).to_be_bytes());
        // FNV's low bits barely move for single-byte suffix changes
        // (consecutive indices would land in one narrow band), so
        // avalanche the state before taking the decision word.
        let mut mixed = hash;
        mixed ^= mixed >> 33;
        mixed = mixed.wrapping_mul(0xff51_afd7_ed55_8ccd);
        mixed ^= mixed >> 33;
        mixed = mixed.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        mixed ^= mixed >> 33;
        (mixed & 0xFFFF_FFFF) < self.threshold
    }
}

/// One executable MapReduce job.
///
/// Produced by the ClusterBFT request handler from a compiled
/// [`MrJob`](cbft_dataflow::compile::MrJob): data sources are resolved to
/// concrete (replica-namespaced) storage files, and the user's verification
/// points are attached to their sites within the job.
#[derive(Clone, Debug)]
pub struct ExecJob {
    /// The logical plan the pipelines refer to.
    pub plan: Arc<LogicalPlan>,
    /// Parallel map inputs.
    pub inputs: Vec<ExecInput>,
    /// The blocking vertex realized by this job's shuffle, if any.
    pub shuffle: Option<VertexId>,
    /// Per-record pipeline applied after the shuffle (or in a single
    /// collector task when there is no shuffle).
    pub reduce: Vec<VertexId>,
    /// Concrete output file name.
    pub output_file: String,
    /// Number of reduce tasks (must be identical across replicas of the
    /// same sub-graph — §4.1: "all replicas are configured to have the same
    /// number of reduce tasks"). Use 1 for global sorts and exact limits.
    pub reduce_task_count: usize,
    /// Records per map split (identical across replicas).
    pub map_split_records: usize,
    /// Verification points within this job.
    pub verification_points: Vec<VpSite>,
    /// Records per digest chunk (`d` in §6.4).
    pub digest_granularity: usize,
    /// The task data plane: `0` keeps the historical row-at-a-time
    /// execution, any other value runs the vectorized kernels over
    /// [`cbft_dataflow::Batch`]es — a map task's whole split as one
    /// selection. Only the comparison with `0` is read; the width itself
    /// sizes nothing. Purely a host-side execution strategy: digests,
    /// partition assignments, outputs and work counters are byte-identical
    /// either way (pinned by the task tests), so replicas need not even
    /// agree on it.
    pub batch_records: usize,
    /// Sub-graph identifier shared by all replicas of this job
    /// (`sub.graph.id` in the prototype, §5.3).
    pub sid: String,
    /// Replica index within the sub-graph replica set.
    pub replica: usize,
    /// Map-side combiner plan for algebraic group-aggregations; must be
    /// identical across replicas of the job, and absent when a
    /// verification point sits on the shuffle itself (the combined stream
    /// has no materialized bags to digest).
    pub combiner: Option<Combiner>,
    /// Spot-check sampling plan. When set, the engine captures each
    /// sampled task's true inputs and recorded output digest and emits an
    /// [`EngineEvent::SpotCheck`](crate::EngineEvent::SpotCheck) so a
    /// trusted checker can re-execute it honestly. `None` disables
    /// capture (the replicated modes).
    pub sample: Option<SamplePlan>,
}

impl ExecJob {
    /// True when the job has no shuffle and no collector pipeline: map
    /// tasks write the output directly.
    pub fn is_map_only(&self) -> bool {
        self.shuffle.is_none() && self.reduce.is_empty()
    }

    /// True when the job runs a single collector task instead of a shuffle.
    pub fn is_collector(&self) -> bool {
        self.shuffle.is_none() && !self.reduce.is_empty()
    }
}

#[cfg(test)]
mod sample_tests {
    use super::*;

    #[test]
    fn sample_plan_is_pure_and_seeded() {
        let plan = SamplePlan::from_rate(42, 0.5);
        for i in 0..64 {
            assert_eq!(
                plan.samples("j0", TaskKind::Map, i),
                plan.samples("j0", TaskKind::Map, i),
                "decision must be a pure function of (seed, sid, kind, index)"
            );
        }
        let reseeded = SamplePlan::from_rate(43, 0.5);
        assert!(
            (0..256).any(|i| {
                plan.samples("j0", TaskKind::Map, i) != reseeded.samples("j0", TaskKind::Map, i)
            }),
            "different seeds must select different task sets"
        );
    }

    #[test]
    fn sample_plan_extremes_and_clamping() {
        let all = SamplePlan::from_rate(7, 1.0);
        let none = SamplePlan::from_rate(7, 0.0);
        for i in 0..128 {
            assert!(all.samples("j1", TaskKind::Reduce, i));
            assert!(!none.samples("j1", TaskKind::Reduce, i));
        }
        assert_eq!(SamplePlan::from_rate(7, 2.5), all);
        assert_eq!(SamplePlan::from_rate(7, -1.0), none);
        assert_eq!(SamplePlan::from_rate(7, f64::NAN), none);
    }

    #[test]
    fn sample_plan_hits_near_the_requested_rate() {
        let plan = SamplePlan::from_rate(11, 0.25);
        let hits = (0..4000)
            .filter(|&i| plan.samples("j2", TaskKind::Map, i))
            .count();
        // FNV-mixed decisions: loose 4-sigma-ish band around 1000.
        assert!((850..1150).contains(&hits), "hits={hits}");
        assert!((plan.rate() - 0.25).abs() < 1e-9);
    }
}
