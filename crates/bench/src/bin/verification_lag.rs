//! Verification lag: the gap between a key's first digest report and the
//! moment its `f + 1` quorum completes (§6's completion-to-verdict gap).
//!
//! A faulty replica makes the lag visible: the deviant's early report
//! cannot complete a quorum, so verification waits for the escalation
//! round's fresh replica. The run is traced with the `cbft-trace` memory
//! sink; the per-key `quorum` events carry `lag_us` args from which the
//! distribution below is computed.
//!
//! The same traced run is executed at 1 and 4 worker threads and the
//! canonical traces must be identical — recorded as the
//! `canonical_trace_deterministic` flag.
//!
//! Results land in `bench_results/verification_lag.json`.

use cbft_bench::{ExperimentRecord, ParallelSpec};
use cbft_mapreduce::Behavior;
use cbft_trace::{canonicalize, TraceEvent, TraceSummary, Tracer};
use clusterbft::{Adversary, ExecutorConfig};

fn main() {
    // One traced run at `threads` worker threads: returns the raw trace
    // events.
    let traced_run = |threads| -> Vec<TraceEvent> {
        let (tracer, sink) = Tracer::memory();
        // Replica 0 always corrupts: its reports never join a quorum, so
        // the verdict waits for the escalation round — a visible lag.
        let mut spec = ParallelSpec::pipeline(20_000);
        spec.obs.tracer = tracer;
        spec.faults
            .push((0, Behavior::Commission { probability: 1.0 }));
        spec.config = ExecutorConfig {
            threads,
            escalation: vec![2, 3, 4],
            adversary: Adversary::Strong,
            master_seed: 11,
            ..spec.config
        };
        let (outcome, _) = spec.execute();
        assert!(outcome.verified(), "escalation recovers the quorum");
        assert!(
            outcome.deviant_replicas().contains(&0),
            "the corrupt replica is identified"
        );
        sink.take()
    };
    let events_t1 = traced_run(1);
    let events_t4 = traced_run(4);

    // Determinism: the canonical projection (wall-clock dropped,
    // non-canonical events filtered) must not depend on the thread count.
    let deterministic = canonicalize(&events_t1) == canonicalize(&events_t4);

    let summary = TraceSummary::from_events(&events_t1);
    let mut lags: Vec<u64> = summary.key_lags.iter().map(|k| k.lag_us).collect();
    lags.sort_unstable();
    assert!(!lags.is_empty(), "the traced run verified at least one key");
    let count = lags.len();
    let min = lags[0] as f64;
    let max = *lags.last().expect("nonempty") as f64;
    let median = lags[count / 2] as f64;
    let mean = lags.iter().sum::<u64>() as f64 / count as f64;

    let mut record = ExperimentRecord::new(
        "verification_lag",
        "Verification lag: first digest report to f+1 quorum, per key",
        "Twitter follower analysis (20k records), f = 1, escalation 2 -> 3 -> 4, \
         replica 0 always commission-faulty. Traced with the cbft-trace memory \
         sink; lag per correspondence key is quorum time minus first report \
         time, taken from the canonical per-key quorum events. The identical \
         run at 1 and 4 worker threads must produce identical canonical \
         traces (canonical_trace_deterministic).",
    );
    record.set_flag("canonical_trace_deterministic", deterministic);
    record.push("verified keys", "keys", None, count as f64);
    record.push("lag min", "ms", None, min / 1e3);
    record.push("lag median", "ms", None, median / 1e3);
    record.push("lag mean", "ms", None, mean / 1e3);
    record.push("lag max", "ms", None, max / 1e3);
    record.push(
        "trace events recorded",
        "events",
        None,
        events_t1.len() as f64,
    );

    assert!(
        deterministic,
        "canonical traces diverged across thread counts"
    );
    record.finish();
}
