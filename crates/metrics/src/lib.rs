//! # cbft-metrics — labeled metrics for the ClusterBFT repro
//!
//! A dependency-free, sharded registry of labeled **counters**,
//! **gauges**, and **log₂-bucketed histograms**, designed for the same
//! constraints as `cbft-trace`:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds a
//!    [`Metrics`] handle whose disabled form is `Option::None`; every
//!    recording call is one branch before any hashing, locking, or
//!    allocation happens (the `metrics_overhead` bench enforces <2%
//!    overhead on this path).
//! 2. **Determinism-preserving.** Metrics are tagged with a clock
//!    [`Domain`]: `Sim` metrics derive only from the deterministic
//!    simulation and — because every update op (counter add, gauge max,
//!    histogram record/merge) is commutative and associative — their
//!    snapshot is bit-identical across worker-thread and compute-pool
//!    sizes. `Wall` metrics (steal counts, queue depths) are clearly
//!    segregated and excluded from determinism comparisons.
//! 3. **Standard export.** [`prometheus_text`] emits the Prometheus
//!    text exposition format (validated by
//!    [`validate_prometheus_text`]); [`json_snapshot`] emits a JSON
//!    document; [`HealthReport`] renders an end-of-run fault-forensics
//!    summary naming suspect replicas, suspicion-band trajectories,
//!    verification-lag quantiles, and escalation cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod health;
mod histogram;
mod registry;

pub use export::{json_snapshot, prometheus_text, validate_prometheus_text};
pub use health::{names, DivergenceSpan, HealthReport, BAND_NAMES};
pub use histogram::{bucket_index, bucket_lower, bucket_upper, Histogram, BUCKETS};
pub use registry::{
    Domain, LabelValue, Labels, Metrics, Sample, SampleValue, Snapshot, MAX_LABELS,
};
