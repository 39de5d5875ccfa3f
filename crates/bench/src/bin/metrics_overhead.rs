//! Disabled-path cost of the metrics layer.
//!
//! Instrumented code holds a [`Metrics`] handle; when no metrics flag is
//! set the handle is the disabled variant and every recording call must
//! collapse to a single branch — no hashing, no locking, no allocation.
//! This harness pins that contract: a synthetic hot loop shaped like the
//! engine's instrumentation (one counter add + one histogram observe per
//! simulated task) runs three ways — uninstrumented, with a disabled
//! handle, and with a live registry — and the run **asserts** that the
//! disabled path costs less than 2% over the uninstrumented baseline.
//!
//! A full-pipeline row repeats the comparison on a real
//! `ParallelExecutor` run, where the branch is buried under actual
//! simulation work.
//!
//! Results land in `bench_results/metrics_overhead.json`.

use std::hint::black_box;

use cbft_bench::{best_of, timed, ExperimentRecord, ParallelSpec};
use cbft_metrics::{names, Domain, Metrics};
use cbft_trace::Tracer;
use clusterbft::Obs;

/// Iterations of the synthetic task loop per pass.
const ITERS: u64 = 2_000_000;
/// Measurement passes; the best (minimum) wall time is kept, which is
/// the standard way to strip scheduler noise from a CPU-bound loop.
const PASSES: usize = 9;
/// Disabled-path overhead ceiling, percent.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 2.0;

/// A unit of work shaped like a task settle: a short xorshift walk whose
/// result feeds the (optional) latency observation, so the metrics call
/// cannot be hoisted or elided.
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

/// The instrumented loop: same work plus the engine's per-task metric
/// calls (one counter add, one histogram observe) against `handle`.
fn pass_metered(handle: &Metrics) -> u64 {
    let mut acc = 0u64;
    for i in 0..ITERS {
        let cost = task_work(black_box(i));
        acc = acc.wrapping_add(cost);
        handle.add(
            Domain::Sim,
            names::HEARTBEATS,
            &[("replica", (i & 3).into())],
            1,
        );
        handle.observe(
            Domain::Sim,
            names::TASK_SIM_US,
            &[("replica", (i & 3).into()), ("kind", "map".into())],
            cost & 0xffff,
        );
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
    // `pass_metered`'s loop stops being split on the disabled handle, so
    // the disabled path pays the label stores.
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
    let disabled = Metrics::disabled();
    let enabled = Metrics::new();
    let w0 = pass_baseline();
    let w1 = pass_metered(&disabled);
    assert_eq!(w0, w1, "instrumentation must not change the computation");
    black_box(pass_metered(&enabled));

    let [(_, wall_base)] = best_of(PASSES, |_| timed(|| black_box(pass_baseline())));
    let [(_, wall_disabled)] = best_of(PASSES, |_| timed(|| black_box(pass_metered(&disabled))));
    let [(_, wall_enabled)] = best_of(PASSES, |_| timed(|| black_box(pass_metered(&enabled))));

    let disabled_pct = (wall_disabled / wall_base - 1.0) * 100.0;
    let enabled_ns = (wall_enabled - wall_base) / ITERS as f64 * 1e9 / 2.0;

    let [(_, pipe_base), (_, pipe_enabled)] = best_of(3, pipeline_run);
    let pipe_pct = (pipe_enabled / pipe_base - 1.0) * 100.0;

    let mut rec = ExperimentRecord::new(
        "metrics_overhead",
        "Cost of the cbft-metrics layer (disabled and enabled paths)",
        &format!(
            "synthetic task loop: {ITERS} iterations, 2 metric calls each, \
             best of {PASSES}; pipeline: follower_analysis 30k records, \
             2 replicas, best of 3. The disabled path is asserted <{MAX_DISABLED_OVERHEAD_PCT}%."
        ),
    );
    rec.set_flag("cpu_bound", true);
    rec.push("disabled-path overhead", "%", None, disabled_pct);
    rec.push("enabled call cost", "ns/call", None, enabled_ns);
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
