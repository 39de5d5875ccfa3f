//! ClusterBFT — assured cloud-based data analysis.
//!
//! A reproduction of *"Assured Cloud-Based Data Analysis with ClusterBFT"*
//! (Stephen & Eugster, Middleware 2013): Byzantine fault tolerant
//! execution of Pig-style data-flow scripts on an untrusted cluster, with
//! practical overheads obtained through
//!
//! * **variable-degree clustering** — whole sub-graphs of the data-flow
//!   DAG are replicated and compared only at a few *verification points*
//!   chosen by a marker function, instead of running BFT consensus at
//!   every stage;
//! * **variable replication** — `f+1`, `2f+1` or `3f+1` replicas trade
//!   resources against the failure classes tolerated;
//! * **approximate, offline comparison** — replicas stream SHA-256 digests
//!   (optionally one per `d` records) to a trusted verifier while
//!   downstream jobs already proceed;
//! * **separation of duty** — a small trusted control tier (this crate)
//!   commands the untrusted Hadoop-style computation tier
//!   ([`cbft_mapreduce`]);
//! * **fault identification and isolation** — overlapping job clusters,
//!   per-node suspicion levels and the Fig. 7 fault analyzer narrow
//!   mismatches down to individual faulty nodes.
//!
//! # Quickstart
//!
//! ```
//! use cbft_dataflow::{Record, Value};
//! use cbft_mapreduce::{Behavior, Cluster};
//! use clusterbft::{ClusterBft, JobConfig, Replication, VpPolicy};
//!
//! // An 8-node untrusted tier with one always-corrupting node.
//! let cluster = Cluster::builder()
//!     .nodes(8)
//!     .slots_per_node(3)
//!     .seed(42)
//!     .node_behavior(3, Behavior::Commission { probability: 1.0 })
//!     .build();
//!
//! let config = JobConfig::builder()
//!     .expected_failures(1)
//!     .replication(Replication::Full)       // 3f + 1 = 4 replicas
//!     .vp_policy(VpPolicy::marked(2))       // 2 verification points + outputs
//!     .build();
//!
//! let mut cbft = ClusterBft::new(cluster, config);
//! let edges: Vec<Record> = (0..500)
//!     .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i)]))
//!     .collect();
//! cbft.load_input("edges", edges)?;
//!
//! let outcome = cbft.submit_script(
//!     "raw = LOAD 'edges' AS (user, follower);
//!      grp = GROUP raw BY user;
//!      cnt = FOREACH grp GENERATE group, COUNT(raw) AS n;
//!      STORE cnt INTO 'counts';",
//! )?;
//! assert!(outcome.verified());
//! # Ok::<(), clusterbft::SubmitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod executor;
mod isolation;
mod outcome;
mod pipeline;
mod probe;
mod suspicion;
mod verifier;

pub use config::{JobConfig, JobConfigBuilder, Replication, VpPolicy};
pub use executor::{ExecutorConfig, ParallelExecutor, ParallelOutcome, ReexecSummary, VerifyMode};
pub use isolation::FaultAnalyzer;
pub use outcome::{ScriptOutcome, SubmitError};
pub use pipeline::ClusterBft;
pub use probe::ProbeReport;
pub use suspicion::{BandUpdates, SuspicionBand, SuspicionTable};
pub use verifier::{DigestKey, KeyVerdict, StreamedReport, Verifier};

// Re-export the types users need to drive the system without spelling out
// every substrate crate.
pub use cbft_dataflow::analyze::Adversary;
pub use cbft_dataflow::{LogicalPlan, PlanBuilder, Record, Schema, Script, Value, VertexId};
pub use cbft_mapreduce::{Behavior, Cluster, FileData, JobMetrics, NodeId};
pub use cbft_trace::Obs;
