//! Intra-replica compute-pool speedup on the Fig. 9 workload.
//!
//! The engine dispatches each task's pure payload — map/reduce UDF
//! evaluation over the shared input slice plus chunked digesting — to a
//! work-stealing compute pool at scheduling time, and joins the result
//! when the simulation reaches the task's completion instant. The
//! discrete-event sim keeps sole authority over scheduling, fault draws
//! and clocks, so the verdict and the canonical transcript are
//! bit-identical for any pool size (asserted below); the pool only
//! changes host wall clock.
//!
//! This bench measures the Twitter Follower Analysis at `r = 2` replicas
//! with payloads inline (`compute_threads = 1`) and on an 8-thread pool.
//! Measured speedup is bounded by the host's cores (recorded in the
//! notes); the *payload parallelism* row reports the hardware-independent
//! concurrency the engine actually exposed — the pool-queue high-water
//! mark, clamped to the pool width — which is what a host with >= 8
//! cores converts into wall-clock speedup.
//!
//! Results land in `bench_results/task_parallelism.json`.

use std::time::Instant;

use cbft_bench::{pig_like_cost, ExperimentRecord};
use cbft_mapreduce::data_plane;
use cbft_workloads::twitter;
use clusterbft::{Adversary, ExecutorConfig, ParallelExecutor, ParallelOutcome, VpPolicy};

const EDGES: usize = 500_000;
const SEED: u64 = 9;

/// Compute-pool width of the pooled configuration below.
const POOL_THREADS: usize = 8;

fn config(compute_threads: usize) -> ExecutorConfig {
    ExecutorConfig {
        // Two replica worker threads share the one compute pool: the
        // CPU-bound part of the run is the payload work, not the event
        // loop, so the pool is where the cores go.
        threads: 2,
        compute_threads,
        expected_failures: 1,
        escalation: vec![2],
        vp_policy: VpPolicy::Marked(2),
        adversary: Adversary::Weak,
        map_split_records: 25_000,
        nodes: 32,
        slots_per_node: 9,
        master_seed: SEED,
        cost: pig_like_cost(),
        ..ExecutorConfig::default()
    }
}

fn run(config: ExecutorConfig) -> (ParallelOutcome, f64) {
    let workload = twitter::follower_analysis(SEED, EDGES);
    let mut exec = ParallelExecutor::new(config);
    exec.load_input(workload.input_name, workload.records)
        .unwrap();
    let start = Instant::now();
    let outcome = exec
        .run_script(workload.script)
        .expect("task_parallelism run");
    let wall = start.elapsed().as_secs_f64();
    assert!(outcome.verified(), "healthy cluster must verify");
    (outcome, wall)
}

/// Best-of-two wall time, after the process-wide warmup has paged the
/// workload in.
fn measure(c: ExecutorConfig) -> (ParallelOutcome, f64) {
    let (outcome, first) = run(c.clone());
    let (_, second) = run(c);
    (outcome, first.min(second))
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // The host is CPU-bound when it has fewer cores than the compute
    // pool: measured speedup is then capped by the hardware, not the
    // algorithm (the payload-parallelism row reports what the engine
    // exposed for a wider host to use).
    let cpu_bound = cores < POOL_THREADS;

    // Warmup, result discarded.
    let _ = run(config(1));

    let (inline, wall_inline) = measure(config(1));
    let before = data_plane::snapshot();
    let (pooled, wall_pooled) = measure(config(POOL_THREADS));
    let delta = data_plane::snapshot().since(&before);
    assert_eq!(inline, pooled, "pool size must not change the outcome");

    let exposed = (delta.pool_queue_peak as f64).min(POOL_THREADS as f64);

    let mut record = ExperimentRecord::new(
        "task_parallelism",
        "Intra-replica compute-pool speedup (Twitter Follower Analysis, r = 2)",
        &format!(
            "{EDGES} synthetic follower edges, 32 nodes x 9 slots per replica; host has \
             {cores} core(s). Inline = payloads evaluated on the dispatching engine \
             thread, pooled = payloads on an {POOL_THREADS}-thread work-stealing pool \
             shared by both replica workers. Outcomes are asserted bit-identical across \
             pool sizes. Measured speedup is bounded by the host's cores; the payload \
             parallelism row is the pool-queue high-water mark clamped to the pool \
             width — the hardware-independent concurrency a >= {POOL_THREADS}-core \
             host converts into wall-clock speedup. The cpu_bound flag is true when \
             cores < {POOL_THREADS}, i.e. the measurement is hardware-capped."
        ),
    );
    record.set_flag("cpu_bound", cpu_bound);
    record.push("inline wall (r=2, pool=1)", "s", None, wall_inline);
    record.push(
        format!("pooled wall (r=2, pool={POOL_THREADS})"),
        "s",
        None,
        wall_pooled,
    );
    record.push("measured speedup", "x", None, wall_inline / wall_pooled);
    record.push(
        "payload parallelism exposed (queue peak, clamped)",
        "x",
        Some(1.5),
        exposed,
    );
    record.push(
        "payloads dispatched per run",
        "",
        None,
        delta.tasks_dispatched as f64 / 2.0,
    );
    record.push(
        "payloads stolen per run",
        "",
        None,
        delta.tasks_stolen as f64 / 2.0,
    );
    record.push("host cores", "", None, cores as f64);

    record.finish();
}
