//! # cbft-trace — control-plane observability for the ClusterBFT repro
//!
//! A lightweight span/event recorder threaded through the MapReduce
//! engine, the parallel replica executor, the streaming verifier and the
//! ClusterBFT pipeline. Design goals, in order:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds a [`Tracer`]
//!    whose disabled form is `Option::None`; call sites check
//!    [`Tracer::enabled`] before building any event, so the hot digest
//!    path performs no formatting, allocation, or locking when tracing
//!    is off.
//! 2. **Determinism-preserving.** Events carry the simulation's virtual
//!    clock plus `(pid, tid, seq)` ordering keys. The *canonical* trace
//!    ([`canonicalize`]) — wall-clock fields dropped, scheduling-
//!    dependent events excluded, rest sorted — is identical across
//!    worker-thread counts.
//! 3. **Standard export.** [`chrome_trace_json`] emits Chrome trace
//!    format loadable in `chrome://tracing` or Perfetto;
//!    [`TraceSummary`] aggregates per-phase time, instant counts and
//!    per-key verification lag for terminal reporting and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod flight;
mod obs;
mod sink;
mod summary;

pub use chrome::chrome_trace_json;
pub use event::{
    canonicalize, ArgValue, CanonicalEvent, Phase, TraceEvent, COORDINATOR_PID, VERIFIER_PID,
};
pub use flight::{canonical_dump, EventRing, FlightRecorder};
pub use obs::Obs;
pub use sink::{FanoutSink, MemorySink, ScopedSink, TraceSink, Tracer, JOB_PID_STRIDE};
pub use summary::{KeyLag, SpanStats, StageTotals, TraceSummary, QUORUM_EVENT};
