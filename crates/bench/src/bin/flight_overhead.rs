//! Cost of the flight recorder.
//!
//! The flight recorder is attached under `--flight-dir` — its rings are
//! the forensic context a bundle is written from — and nowhere else:
//! without it `cbft` and `cbftd` run a disabled tracer (or only the sink
//! `--trace` asks for). This harness prices what turning it on costs. A
//! real `ParallelExecutor` pipeline runs twice, once with a fully
//! disabled tracer (no events constructed at all) and once with the
//! recorder attached, and the run **asserts** the recorder costs less
//! than 2% of wall time on that one 30k-record job: the median over
//! alternating pairs of runs of the recorder's overhead in its pair.
//!
//! A server row, recorded but not asserted, prices the regime one large
//! job hides: many small jobs drained through a `JobServer`, where every
//! job's heartbeats and task spans are recorded and every job leaves its
//! own pid tracks in the recorder.
//!
//! A micro row prices one ring push (event construction excluded), the
//! recorder's marginal cost per event the engine emits.
//!
//! Results land in `bench_results/flight_overhead.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cbft_bench::{best_of, paired_overhead, server_job, ExperimentRecord, ParallelSpec};
use cbft_server::{JobServer, JobSpec, ServerConfig};
use cbft_trace::{FlightRecorder, Obs, TraceEvent, TraceSink, Tracer};

/// Server drain measurement passes; the best (minimum) is kept.
const PASSES: usize = 5;
/// Alternating pipeline run pairs the asserted overhead is the median of.
const PAIRS: usize = 201;
/// Ring pushes for the micro row.
const PUSHES: u64 = 2_000_000;
/// Recorder overhead ceiling on the pipeline row, percent.
const MAX_OVERHEAD_PCT: f64 = 2.0;
/// Jobs per server drain.
const DRAIN_JOBS: u64 = 60;
/// Input records per server job.
const DRAIN_RECORDS: usize = 3_000;
/// Execution slots of the drained server.
const DRAIN_SLOTS: usize = 2;

/// One full parallel run, variant 0 with a disabled tracer, variant 1
/// with a flight recorder attached; returns its run wall.
fn pipeline_run(variant: usize) -> ((), f64) {
    let tracer = match variant {
        0 => Tracer::disabled(),
        _ => Tracer::new(Arc::new(FlightRecorder::with_default_capacity())),
    };
    let mut spec = ParallelSpec::pipeline(30_000);
    spec.obs.tracer = tracer;
    let (outcome, wall) = spec.execute();
    assert!(outcome.verified());
    ((), wall)
}

/// Wall seconds to drain `jobs` through a fresh server with `tracer`.
fn drain_run(jobs: &[JobSpec], tracer: Tracer) -> f64 {
    let server = JobServer::start(ServerConfig {
        slots: DRAIN_SLOTS,
        queue_depth: jobs.len(),
        obs: Obs {
            tracer,
            ..Obs::disabled()
        },
        ..ServerConfig::default()
    });
    let start = Instant::now();
    let handles: Vec<_> = jobs
        .iter()
        .map(|job| server.submit(job.clone()).expect_admitted())
        .collect();
    for handle in handles {
        assert!(handle.wait().verified());
    }
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();
    wall
}

/// ns per ring push: the recorder's cost once an event exists.
fn push_cost() -> f64 {
    let rec = FlightRecorder::with_default_capacity();
    let start = Instant::now();
    for i in 0..PUSHES {
        let event = TraceEvent::instant("bench", "flight")
            .on((i & 7) as u32, 0)
            .at_sim(i)
            .seq(i);
        rec.record(black_box(event));
    }
    let wall = start.elapsed().as_secs_f64();
    black_box(rec.drain());
    wall / PUSHES as f64 * 1e9
}

fn main() {
    // Warm-up pass of each variant.
    black_box(pipeline_run(0));
    black_box(pipeline_run(1));
    let ([(_, base), (_, flight)], overhead_pct) = paired_overhead(PAIRS, pipeline_run);

    // The server drain's jobs: small follower analyses, one seed each.
    let jobs: Vec<JobSpec> = (1..=DRAIN_JOBS)
        .map(|seed| server_job("bench", seed, DRAIN_RECORDS))
        .collect();
    black_box(drain_run(&jobs, Tracer::disabled()));
    let [(_, drain_base), (tracks, drain_flight)] = best_of(PASSES, |variant| match variant {
        0 => (0, drain_run(&jobs, Tracer::disabled())),
        _ => {
            let rec = Arc::new(FlightRecorder::with_default_capacity());
            let wall = drain_run(&jobs, Tracer::new(rec.clone()));
            (rec.tracks(), wall)
        }
    });
    let drain_overhead_pct = (drain_flight / drain_base - 1.0) * 100.0;
    let push_ns = push_cost();

    let mut rec = ExperimentRecord::new(
        "flight_overhead",
        "Cost of the flight recorder (attached under --flight-dir) vs a disabled tracer",
        &format!(
            "pipeline: follower_analysis 30k records, 2 replicas, {PAIRS} \
             alternating pairs, best run per variant, recorder overhead \
             (median of the per-pair overheads) asserted \
             <{MAX_OVERHEAD_PCT}%; server drain: {DRAIN_JOBS} jobs x \
             {DRAIN_RECORDS} records through a JobServer on {DRAIN_SLOTS} \
             slots, best of {PASSES} passes per variant, recorded, not \
             asserted; micro: {PUSHES} ring pushes."
        ),
    );
    rec.set_flag("cpu_bound", true);
    rec.push("pipeline run, tracer disabled", "s", None, base);
    rec.push("pipeline run, flight recorder", "s", None, flight);
    rec.push("pipeline recorder overhead", "%", None, overhead_pct);
    rec.push("server drain, tracer disabled", "s", None, drain_base);
    rec.push("server drain, flight recorder", "s", None, drain_flight);
    rec.push(
        "server drain recorder overhead",
        "%",
        None,
        drain_overhead_pct,
    );
    rec.push(
        "pid tracks held after the drain",
        "tracks",
        None,
        tracks as f64,
    );
    rec.push("ring push cost", "ns/event", None, push_ns);
    rec.finish();

    println!(
        "   server drain recorder overhead {drain_overhead_pct:.1}% \
         ({tracks} pid tracks held; recorded, not asserted)"
    );
    assert!(
        overhead_pct < MAX_OVERHEAD_PCT,
        "pipeline flight-recorder overhead {overhead_pct:.3}% breaches \
         the {MAX_OVERHEAD_PCT}% budget"
    );
    println!("   pipeline recorder overhead {overhead_pct:.3}% < {MAX_OVERHEAD_PCT}% budget: OK");
}
