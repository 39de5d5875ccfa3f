//! Disabled-path cost of the metrics layer.
//!
//! Sim-domain metrics are a fold over the canonical trace events: the
//! engine writes no metric, it emits events through a [`Tracer`], and
//! with a live hub the tracer folds them into it. When no metrics (or
//! trace) flag is set the tracer is disabled and every instrumented site
//! must collapse to a single branch — no event built, no hashing, no
//! locking, no allocation. This harness pins that contract: a synthetic
//! hot loop shaped like the engine's per-task instrumentation (a
//! heartbeat and a task-cost event per simulated task) runs three ways —
//! uninstrumented, with a disabled tracer, and with a tracer folding
//! into a live registry — and the run **asserts** that the disabled path
//! costs less than 2% over the uninstrumented baseline: the median over
//! alternating pairs of passes of the disabled path's overhead in its
//! pair.
//!
//! A full-pipeline row repeats the comparison on a real
//! `ParallelExecutor` run, where the live hub's cost is the fold of
//! every event the run emits.
//!
//! Results land in `bench_results/metrics_overhead.json`.

use std::hint::black_box;

use cbft_bench::{best_of, paired_overhead, timed, ExperimentRecord, ParallelSpec};
use cbft_metrics::Metrics;
use cbft_trace::{TraceEvent, Tracer};
use clusterbft::Obs;

/// Iterations of the synthetic task loop per pass.
const ITERS: u64 = 2_000_000;
/// Measurement passes of the enabled loop; the best (minimum) wall time
/// is kept.
const PASSES: usize = 9;
/// Alternating baseline / disabled-path pass pairs the asserted overhead
/// is the median of.
const PAIRS: usize = 41;
/// Disabled-path overhead ceiling, percent.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 2.0;

/// A unit of work shaped like a task settle: a short xorshift walk whose
/// result feeds the (optional) task-cost event, so the event cannot be
/// hoisted or elided.
#[inline(always)]
fn task_work(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The uninstrumented loop: work only.
fn pass_baseline() -> u64 {
    let mut acc = 0u64;
    for i in 0..ITERS {
        acc = acc.wrapping_add(task_work(black_box(i)));
    }
    acc
}

/// The instrumented loop: same work plus the engine's per-task events
/// (a heartbeat and a task cost), each behind the `enabled` branch the
/// engine's sites take.
fn pass_traced(tracer: &Tracer) -> u64 {
    let mut acc = 0u64;
    for i in 0..ITERS {
        let cost = task_work(black_box(i));
        acc = acc.wrapping_add(cost);
        if tracer.enabled() {
            let replica = (i & 3) as u32;
            tracer.emit(TraceEvent::instant("heartbeat", "engine").on(replica, 0));
        }
        if tracer.enabled() {
            tracer.emit(
                TraceEvent::instant("task_cost", "engine")
                    .on((i & 3) as u32, 0)
                    .seq(i)
                    .arg("kind", "map")
                    .arg("dur_us", cost & 0xffff),
            );
        }
    }
    acc
}

/// One full parallel run, variant 0 with a disabled handle, variant 1
/// with a live registry; returns its run wall.
fn pipeline_run(variant: usize) -> ((), f64) {
    let metrics = match variant {
        0 => Metrics::disabled(),
        _ => Metrics::new(),
    };
    // Both fields spelled out: with `..Obs::disabled()` the dropped
    // temporary hub changes how this binary is optimised, and
    // `pass_traced`'s loop stops being split on the disabled tracer, so
    // the disabled path pays the event stores.
    let obs = Obs {
        tracer: Tracer::disabled(),
        metrics,
    };
    let mut spec = ParallelSpec::pipeline(30_000);
    spec.obs = obs;
    let (outcome, wall) = spec.execute();
    assert!(outcome.verified());
    ((), wall)
}

fn main() {
    // Warm up all three loop variants.
    let disabled = Tracer::disabled();
    let enabled = Obs {
        tracer: Tracer::disabled(),
        metrics: Metrics::new(),
    }
    .folded()
    .tracer;
    let w0 = pass_baseline();
    let w1 = pass_traced(&disabled);
    assert_eq!(w0, w1, "instrumentation must not change the computation");
    black_box(pass_traced(&enabled));

    let ([(_, wall_base), _], disabled_pct) = paired_overhead(PAIRS, |k| match k {
        0 => timed(|| black_box(pass_baseline())),
        _ => timed(|| black_box(pass_traced(&disabled))),
    });
    let [(_, wall_enabled)] = best_of(PASSES, |_| timed(|| black_box(pass_traced(&enabled))));

    let enabled_ns = (wall_enabled - wall_base) / ITERS as f64 * 1e9 / 2.0;

    let [(_, pipe_base), (_, pipe_enabled)] = best_of(3, pipeline_run);
    let pipe_pct = (pipe_enabled / pipe_base - 1.0) * 100.0;

    let mut rec = ExperimentRecord::new(
        "metrics_overhead",
        "Cost of the cbft-metrics layer (disabled and enabled paths)",
        &format!(
            "synthetic task loop: {ITERS} iterations, 2 traced events each \
             (folded into a live registry when enabled); disabled path: \
             median overhead over {PAIRS} alternating pairs with the \
             uninstrumented loop; enabled: best of {PASSES}; \
             pipeline: follower_analysis 30k records, 2 replicas, best of 3, \
             its live registry fed by the fold of every event. The disabled \
             path is asserted <{MAX_DISABLED_OVERHEAD_PCT}%."
        ),
    );
    rec.set_flag("cpu_bound", true);
    rec.push("disabled-path overhead", "%", None, disabled_pct);
    rec.push("enabled event cost (folded)", "ns/event", None, enabled_ns);
    rec.push("pipeline run, no metrics", "s", None, pipe_base);
    rec.push("pipeline run, live registry", "s", None, pipe_enabled);
    rec.push("pipeline overhead (enabled)", "%", None, pipe_pct);
    rec.finish();

    assert!(
        disabled_pct < MAX_DISABLED_OVERHEAD_PCT,
        "disabled-path overhead {disabled_pct:.3}% breaches the \
         {MAX_DISABLED_OVERHEAD_PCT}% budget"
    );
    println!(
        "   disabled-path overhead {disabled_pct:.3}% < {MAX_DISABLED_OVERHEAD_PCT}% budget: OK"
    );
}
