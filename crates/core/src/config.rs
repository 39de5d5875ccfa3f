//! ClusterBFT job configuration.

use cbft_dataflow::analyze::Adversary;
use cbft_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Replication degree policy (§3.3, *variable replication*).
///
/// The guarantees quoted from the paper:
/// * `f + 1` (optimistic): "the execution ensures safety, but may require
///   repeated runs to get correct output."
/// * `2f + 1`: "a correct result can be guaranteed if all replicas always
///   reply (no omission failures)."
/// * `3f + 1`: "a correct result can be guaranteed under combination of any
///   kind of Byzantine failure."
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Replication {
    /// `f + 1` replicas.
    Optimistic,
    /// `2f + 1` replicas.
    Quorum,
    /// `3f + 1` replicas.
    #[default]
    Full,
    /// An explicit replica count (must be at least `f + 1`).
    Exact(usize),
}

impl Replication {
    /// The replica count for a given fault bound `f`.
    pub fn replicas(&self, f: usize) -> usize {
        match self {
            Replication::Optimistic => f + 1,
            Replication::Quorum => 2 * f + 1,
            Replication::Full => 3 * f + 1,
            Replication::Exact(r) => (*r).max(f + 1),
        }
    }
}

/// Where verification points are placed.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VpPolicy {
    /// No digests at all — the unreplicated "Pure Pig" baseline.
    None,
    /// Digest the final outputs only — the paper's `P` baseline and the
    /// "Full" configuration of Fig. 14.
    FinalOnly,
    /// `n` marker-chosen points (Fig. 3) plus the final outputs — the
    /// ClusterBFT configuration.
    Marked(u32),
    /// A digest at every eligible vertex — the "Individual" configuration
    /// of Fig. 14.
    Individual,
    /// Digests at an explicit vertex set plus the final outputs — §6.1
    /// places digests at named operators (Join, Project, Filter) by hand.
    Explicit(Vec<cbft_dataflow::VertexId>),
}

impl Default for VpPolicy {
    fn default() -> Self {
        VpPolicy::Marked(2)
    }
}

impl VpPolicy {
    /// Synonym for `Marked(n)` made readable at call sites.
    pub fn marked(n: u32) -> Self {
        VpPolicy::Marked(n)
    }
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig::builder().build()
    }
}

/// Full configuration for a ClusterBFT script submission.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Expected number of simultaneous faulty nodes, `f`.
    pub expected_failures: usize,
    /// Replica-count policy.
    pub replication: Replication,
    /// Verification-point placement.
    pub vp_policy: VpPolicy,
    /// Adversary model, restricting eligible verification points (§4.1).
    pub adversary: Adversary,
    /// Records per digest chunk (`d` of §6.4); `usize::MAX` = one digest
    /// per stream.
    pub digest_granularity: usize,
    /// Reduce tasks per shuffled job (identical across replicas).
    pub reduce_tasks: usize,
    /// Records per map split.
    pub map_split_records: usize,
    /// Compute-pool threads for data-parallel task payloads inside the
    /// engine (map/reduce UDF evaluation, digesting, shuffle gather).
    /// `1` runs payloads inline; `0` sizes the pool to the host's cores.
    /// Verdicts and canonical traces are bit-identical for any value.
    pub compute_threads: usize,
    /// The task data plane: `0` keeps the historical row-at-a-time
    /// execution, any other value runs the columnar plane (no width is
    /// read). Purely a host-side execution strategy: digests, partitions,
    /// outputs and work counters are byte-identical either way, so
    /// replicas need not agree on it.
    pub batch_records: usize,
    /// Verifier timeout per attempt; doubles on each re-execution
    /// (§6.2 case 2: "scheduled again with higher timeout value").
    pub verifier_timeout: SimDuration,
    /// Maximum execution attempts before giving up unverified.
    pub max_attempts: u32,
    /// Suspicion level above which a node is excluded from scheduling
    /// (§4.2's administrator threshold).
    pub suspicion_threshold: f64,
    /// Minimum jobs a node must have executed before the threshold can
    /// exclude it (evidence guard).
    pub suspicion_min_jobs: u64,
    /// Cancel a replica's outstanding jobs as soon as its digests prove it
    /// deviant (saves resources; off by default to mirror the paper's
    /// accounting).
    pub early_cancel: bool,
    /// Run the logical-plan optimizer (constant folding, filter fusion,
    /// dead-code elimination) before instrumenting verification points.
    /// Replicas of a script always share one plan, so digests stay
    /// comparable either way.
    pub optimize_plans: bool,
    /// Use map-side combiners for algebraic group-aggregations
    /// (COUNT/SUM/MIN/MAX/AVG): shuffle traffic shrinks to one partial
    /// record per (task, key). Automatically skipped for jobs with a
    /// verification point on the shuffle itself. Off by default so the
    /// calibrated benches keep the paper's shuffle volumes.
    pub combiners: bool,
    /// Let digests from earlier attempts count toward quorums, so a retry
    /// only needs to add the missing replicas instead of re-running the
    /// full replica set.
    ///
    /// Sound when `expected_failures == 1`: each retry sidelines the
    /// analyzer's suspect set (which provably contains the single faulty
    /// node), so fresh digests are honest and any match with a prior
    /// digest includes at least one honest run. With `f ≥ 2` an uncaught
    /// second faulty node could collude with a prior corrupt digest, so
    /// reuse should stay off (see DESIGN.md).
    pub reuse_digests: bool,
}

impl JobConfig {
    /// Starts building a configuration.
    pub fn builder() -> JobConfigBuilder {
        JobConfigBuilder {
            config: JobConfig::base(),
        }
    }

    fn base() -> Self {
        JobConfig {
            expected_failures: 1,
            replication: Replication::Full,
            vp_policy: VpPolicy::Marked(2),
            adversary: Adversary::Strong,
            digest_granularity: usize::MAX,
            reduce_tasks: 4,
            map_split_records: 10_000,
            compute_threads: cbft_mapreduce::default_compute_threads(),
            batch_records: 1024,
            verifier_timeout: SimDuration::from_secs(600),
            max_attempts: 5,
            suspicion_threshold: 0.9,
            suspicion_min_jobs: 4,
            early_cancel: false,
            optimize_plans: false,
            combiners: false,
            reuse_digests: false,
        }
    }

    /// The replica count this configuration starts with.
    pub fn initial_replicas(&self) -> usize {
        self.replication.replicas(self.expected_failures)
    }
}

/// Builder for [`JobConfig`].
///
/// # Examples
///
/// ```
/// use clusterbft::{JobConfig, Replication, VpPolicy};
///
/// let config = JobConfig::builder()
///     .expected_failures(1)
///     .replication(Replication::Optimistic)
///     .vp_policy(VpPolicy::marked(2))
///     .digest_granularity(1_000)
///     .build();
/// assert_eq!(config.initial_replicas(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct JobConfigBuilder {
    config: JobConfig,
}

impl JobConfigBuilder {
    /// Sets `f`, the number of simultaneous faults to tolerate.
    pub fn expected_failures(mut self, f: usize) -> Self {
        self.config.expected_failures = f;
        self
    }

    /// Sets the replication policy.
    pub fn replication(mut self, r: Replication) -> Self {
        self.config.replication = r;
        self
    }

    /// Sets the verification-point policy.
    pub fn vp_policy(mut self, p: VpPolicy) -> Self {
        self.config.vp_policy = p;
        self
    }

    /// Sets the adversary model.
    pub fn adversary(mut self, a: Adversary) -> Self {
        self.config.adversary = a;
        self
    }

    /// Sets the digest granularity `d` (records per digest chunk).
    pub fn digest_granularity(mut self, d: usize) -> Self {
        self.config.digest_granularity = d;
        self
    }

    /// Sets the reduce task count for shuffled jobs.
    pub fn reduce_tasks(mut self, n: usize) -> Self {
        self.config.reduce_tasks = n.max(1);
        self
    }

    /// Sets records per map split.
    pub fn map_split_records(mut self, n: usize) -> Self {
        self.config.map_split_records = n.max(1);
        self
    }

    /// Sets the compute-pool thread count (`0` = host cores, `1` = inline).
    pub fn compute_threads(mut self, n: usize) -> Self {
        self.config.compute_threads = n;
        self
    }

    /// Sets the data plane (`0` = row-at-a-time execution, any other
    /// value = columnar).
    pub fn batch_records(mut self, n: usize) -> Self {
        self.config.batch_records = n;
        self
    }

    /// Sets the verifier timeout for the first attempt.
    pub fn verifier_timeout(mut self, t: SimDuration) -> Self {
        self.config.verifier_timeout = t;
        self
    }

    /// Sets the maximum number of attempts.
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.config.max_attempts = n.max(1);
        self
    }

    /// Sets the suspicion exclusion threshold.
    pub fn suspicion_threshold(mut self, s: f64) -> Self {
        self.config.suspicion_threshold = s;
        self
    }

    /// Sets the minimum job count before threshold exclusion applies.
    pub fn suspicion_min_jobs(mut self, n: u64) -> Self {
        self.config.suspicion_min_jobs = n;
        self
    }

    /// Enables early cancellation of provably deviant replicas.
    pub fn early_cancel(mut self, on: bool) -> Self {
        self.config.early_cancel = on;
        self
    }

    /// Enables cross-attempt digest reuse (see
    /// [`JobConfig::reuse_digests`] for the soundness condition).
    pub fn reuse_digests(mut self, on: bool) -> Self {
        self.config.reuse_digests = on;
        self
    }

    /// Enables map-side combiners for algebraic aggregations.
    pub fn combiners(mut self, on: bool) -> Self {
        self.config.combiners = on;
        self
    }

    /// Enables the logical-plan optimizer.
    pub fn optimize_plans(mut self, on: bool) -> Self {
        self.config.optimize_plans = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> JobConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_degrees() {
        assert_eq!(Replication::Optimistic.replicas(1), 2);
        assert_eq!(Replication::Quorum.replicas(1), 3);
        assert_eq!(Replication::Full.replicas(1), 4);
        assert_eq!(Replication::Full.replicas(2), 7);
        assert_eq!(Replication::Exact(5).replicas(1), 5);
        assert_eq!(Replication::Exact(1).replicas(2), 3, "clamped to f+1");
    }

    #[test]
    fn builder_round_trips() {
        let c = JobConfig::builder()
            .expected_failures(2)
            .replication(Replication::Quorum)
            .vp_policy(VpPolicy::Individual)
            .reduce_tasks(0)
            .max_attempts(0)
            .build();
        assert_eq!(c.expected_failures, 2);
        assert_eq!(c.initial_replicas(), 5);
        assert_eq!(c.reduce_tasks, 1, "clamped");
        assert_eq!(c.max_attempts, 1, "clamped");
    }

    #[test]
    fn default_is_full_replication_two_points() {
        let c = JobConfig::default();
        assert_eq!(c.replication, Replication::Full);
        assert_eq!(c.vp_policy, VpPolicy::Marked(2));
    }
}
