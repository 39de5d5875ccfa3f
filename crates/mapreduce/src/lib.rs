//! A Hadoop-style MapReduce execution substrate for ClusterBFT.
//!
//! The paper's prototype modifies Hadoop 1.0.4: a central job tracker,
//! task trackers with a few slots per node, heartbeat-driven scheduling,
//! map/shuffle/reduce phases, and HDFS as the (assumed-trusted) storage
//! layer. This crate reconstructs that substrate as a deterministic
//! discrete-event simulation that *really executes* the data-flow operators
//! over records, so digests, corruption and re-execution behave exactly as
//! they would on a real cluster, while latency and I/O are charged through
//! [`cbft_sim::CostModel`].
//!
//! * [`Storage`] — the trusted storage layer (HDFS stand-in): named,
//!   write-once files of records (held as records or as one columnar
//!   batch, see [`FileData`]) with byte accounting.
//! * [`Behavior`] / [`WorkerNode`] — worker nodes with task slots and
//!   Byzantine fault injection (commission / omission / crash).
//! * [`ExecJob`] — one executable MapReduce job: map inputs with operator
//!   pipelines, an optional shuffle and a reduce pipeline (produced from a
//!   compiled [`cbft_dataflow::compile::JobGraph`] by the ClusterBFT core).
//! * [`Cluster`] — the engine: submit jobs, pump events, observe digest
//!   reports (streamed *before* job completion, enabling the paper's
//!   offline verification) and job completions.
//! * [`Scheduler`] — task-placement policy; [`OverlapScheduler`] implements
//!   the paper's intersection-maximizing placement (§4.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
mod engine;
mod fault;
mod metrics;
mod scheduler;
mod spec;
mod spotcheck;
mod storage;
mod task;

pub use cbft_dataflow::stats as data_plane;
pub use compute::{default_compute_threads, ComputePool, Ticket};
pub use engine::{Cluster, ClusterBuilder, EngineEvent, JobOutcome, TimerToken};
pub use fault::{corrupt_batch, corrupt_record, Behavior, NodeId, WorkerNode};
pub use metrics::JobMetrics;
pub use scheduler::{FifoScheduler, OverlapScheduler, SchedContext, Scheduler, TaskChoice};
pub use spec::{DigestReport, ExecInput, ExecJob, RunHandle, SamplePlan, TaskKind, VpSite};
pub use spotcheck::{SpotCheck, SpotCheckRecord};
pub use storage::{FileData, Storage, StorageError};
