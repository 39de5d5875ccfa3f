//! A Pig-Latin-like data-flow language and the graph analyses ClusterBFT
//! runs on it.
//!
//! ClusterBFT (Middleware 2013) secures *data-flow* computations: analysis
//! scripts written in a high-level language (Pig Latin in the paper's
//! prototype) that compile to DAGs of MapReduce jobs. This crate is the
//! reproduction's stand-in for Apache Pig 0.9.2:
//!
//! * [`Script`] — parser for a Pig-Latin-like language (`LOAD`, `FILTER`,
//!   `GROUP`, `FOREACH ... GENERATE`, `JOIN`, `UNION`, `DISTINCT`,
//!   `ORDER ... BY`, `LIMIT`, `STORE`).
//! * [`LogicalPlan`] — the acyclic data-flow graph of [`Operator`]s, with a
//!   programmatic [`PlanBuilder`] for constructing plans without a script.
//! * [`analyze`] — the paper's graph analyses: vertex levels, *input
//!   ratios* (Fig. 5), and the *marker function* (Fig. 3) that places
//!   verification points.
//! * [`compile`] — compilation of a logical plan into a DAG of MapReduce
//!   jobs split at shuffle boundaries, mirroring Pig's MR compiler.
//! * [`interp`] — a single-node reference interpreter used as the oracle
//!   for the distributed engine and for digest ground truth.
//! * [`csv`] — the CSV-ish input grammar and the one-pass loaders that
//!   read a file's text into a columnar [`Batch`] or into [`Record`]s.
//! * [`optimize`] — semantics-preserving plan rewrites (constant folding,
//!   filter fusion, dead-code elimination), applied before verification
//!   points are placed so replicas stay digest-compatible.
//!
//! # Examples
//!
//! ```
//! use cbft_dataflow::Script;
//!
//! let plan = Script::parse(
//!     "raw = LOAD 'edges' AS (user, follower);
//!      good = FILTER raw BY follower IS NOT NULL;
//!      grp = GROUP good BY user;
//!      cnt = FOREACH grp GENERATE group, COUNT(good) AS followers;
//!      STORE cnt INTO 'counts';",
//! )
//! .unwrap()
//! .into_plan();
//! assert_eq!(plan.stores().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod batch;
pub mod combiner;
pub mod compile;
pub mod csv;
mod error;
mod expr;
pub mod interp;
mod op;
pub mod optimize;
mod parser;
mod plan;
pub mod stats;
mod value;

pub use batch::{Batch, Cell, Column, ColumnBuilder};
pub use error::{ParseError, PlanError};
pub use expr::{AggFunc, ArithOp, CmpOp, EvalContext, Expr};
pub use op::{Operator, SortOrder};
pub use parser::Script;
pub use plan::{LogicalPlan, PlanBuilder, Vertex, VertexId};
pub use value::{Record, Schema, Value};
