//! Intra-replica compute parallelism must be invisible: for a fixed master
//! seed and fault plan, verdicts, published outputs and the canonical
//! digest transcript are bit-identical for every compute-pool size. The
//! pool only changes *which host thread* evaluates a task payload, never
//! what the payload computes or when the simulation says it finished —
//! the discrete-event sim keeps sole authority over scheduling, fault
//! draws and clocks (DESIGN.md §5e).

use clusterbft_repro::cli;
use clusterbft_repro::core::{
    Behavior, Cluster, ClusterBft, ExecutorConfig, FileData, JobConfig, ParallelExecutor,
    ParallelOutcome, Replication,
};
use clusterbft_repro::dataflow::{Record, Value};
use clusterbft_repro::mapreduce::data_plane;
use clusterbft_repro::trace::{canonicalize, Obs, TraceEvent, Tracer, QUORUM_EVENT};
use proptest::prelude::*;

const SCRIPT: &str = "
    users = LOAD 'users' AS (uid, region);
    clicks = LOAD 'clicks' AS (uid, url, ms);
    fast = FILTER clicks BY ms < 700;
    j = JOIN users BY uid, fast BY uid;
    g = GROUP j BY region;
    s = FOREACH g GENERATE group, COUNT(j) AS hits, SUM(j.ms) AS total;
    o = ORDER s BY hits DESC;
    STORE o INTO 'by_region';
";

fn users(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(vec![Value::Int(i), Value::Int(i % 7)]))
        .collect()
}

fn clicks(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(vec![
                Value::Int(i % 40),
                Value::str(format!("/page/{}", i % 13)),
                Value::Int(i * 37 % 1000),
            ])
        })
        .collect()
}

fn run(compute_threads: usize, fault: Option<(usize, Behavior)>) -> ParallelOutcome {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 2,
        compute_threads,
        expected_failures: 1,
        escalation: vec![2, 3, 4],
        master_seed: 2013,
        ..ExecutorConfig::default()
    });
    exec.load_input("users", users(40)).unwrap();
    exec.load_input("clicks", clicks(600)).unwrap();
    if let Some((uid, behavior)) = fault {
        exec.inject_fault(uid, behavior);
    }
    exec.run_script(SCRIPT).unwrap()
}

/// Like [`run`], but with a memory trace sink attached; returns the raw
/// trace events alongside the outcome.
fn run_traced(
    compute_threads: usize,
    fault: Option<(usize, Behavior)>,
) -> (ParallelOutcome, Vec<TraceEvent>) {
    let (tracer, sink) = Tracer::memory();
    let mut exec = ParallelExecutor::observed(
        ExecutorConfig {
            threads: 2,
            compute_threads,
            expected_failures: 1,
            escalation: vec![2, 3, 4],
            master_seed: 2013,
            ..ExecutorConfig::default()
        },
        Obs {
            tracer,
            ..Obs::disabled()
        },
    );
    exec.load_input("users", users(40)).unwrap();
    exec.load_input("clicks", clicks(600)).unwrap();
    if let Some((uid, behavior)) = fault {
        exec.inject_fault(uid, behavior);
    }
    let outcome = exec.run_script(SCRIPT).unwrap();
    (outcome, sink.take())
}

#[test]
fn pool_size_never_changes_the_outcome() {
    let baseline = run(1, None);
    assert!(baseline.verified());
    assert!(!baseline.transcript().is_empty());
    for compute_threads in [2, 8] {
        assert_eq!(
            baseline,
            run(compute_threads, None),
            "compute_threads={compute_threads}: outcome diverged from inline"
        );
    }
}

#[test]
fn transcripts_are_byte_identical_across_pool_sizes() {
    // The strongest form of the claim: the full serialized outcome —
    // every (key, replica, seq, payload) of the transcript plus the
    // published records — survives any pool size.
    let baseline = run(1, None);
    let pooled = run(8, None);
    let a = serde_json::to_string(&baseline).unwrap();
    let b = serde_json::to_string(&pooled).unwrap();
    assert_eq!(a, b);
}

#[test]
fn faulty_runs_are_pool_size_independent_too() {
    // A commission deviant forces digest divergence and an escalation
    // round; the verdict bookkeeping must still be identical.
    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let baseline = run(1, fault);
    assert!(baseline.verified(), "escalation recovers the quorum");
    assert!(baseline.deviant_replicas().contains(&1));
    for compute_threads in [2, 8] {
        assert_eq!(
            baseline,
            run(compute_threads, fault),
            "compute_threads={compute_threads}"
        );
    }
}

#[test]
fn canonical_traces_identical_across_pool_sizes() {
    let (outcome, events) = run_traced(1, None);
    assert!(outcome.verified());
    let baseline = canonicalize(&events);
    assert!(!baseline.is_empty(), "the traced run recorded events");
    assert!(
        baseline.iter().any(|e| e.name == QUORUM_EVENT),
        "per-key quorum events are part of the canonical trace"
    );
    for compute_threads in [2, 8] {
        let (_, wide) = run_traced(compute_threads, None);
        assert_eq!(
            baseline,
            canonicalize(&wide),
            "compute_threads={compute_threads}: canonical trace diverged"
        );
    }
}

#[test]
fn canonical_traces_identical_under_faults_too() {
    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let (outcome, events) = run_traced(1, fault);
    assert!(outcome.verified());
    let baseline = canonicalize(&events);
    assert!(baseline.iter().any(|e| e.name == "round_start"));
    let (_, wide) = run_traced(8, fault);
    assert_eq!(baseline, canonicalize(&wide));
}

#[test]
fn pooled_runs_actually_dispatch_to_the_pool() {
    // Counters are process-global, so concurrent tests can only inflate
    // the delta — a strictly positive dispatch count is still meaningful.
    let before = data_plane::snapshot();
    let outcome = run(4, None);
    assert!(outcome.verified());
    let delta = data_plane::snapshot().since(&before);
    assert!(
        delta.tasks_dispatched > 0,
        "task payloads flow through the pool"
    );
}

#[test]
fn sequential_pipeline_is_pool_size_independent() {
    // The classic ClusterBft pipeline (one interleaved simulation) gets
    // the same guarantee through JobConfig::compute_threads.
    let report = |compute_threads: usize| {
        let cluster = Cluster::builder().nodes(8).seed(42).build();
        let config = JobConfig::builder()
            .expected_failures(1)
            .replication(Replication::Optimistic)
            .compute_threads(compute_threads)
            .build();
        let mut cbft = ClusterBft::new(cluster, config);
        cbft.load_input("users", users(40)).unwrap();
        cbft.load_input("clicks", clicks(600)).unwrap();
        let outcome = cbft.submit_script(SCRIPT).unwrap();
        assert!(outcome.verified());
        let records = cbft.cluster().storage().peek("by_region").unwrap().to_vec();
        (format!("{outcome}"), records)
    };
    let baseline = report(1);
    for compute_threads in [4, 8] {
        assert_eq!(
            baseline,
            report(compute_threads),
            "compute_threads={compute_threads}"
        );
    }
}

// --- columnar batch plane invariance ---------------------------------------

/// Like [`run`], but pinning the columnar batch size too.
fn run_batched(
    batch_records: usize,
    threads: usize,
    compute_threads: usize,
    fault: Option<(usize, Behavior)>,
) -> ParallelOutcome {
    let inputs = [users(40).into(), clicks(600).into()];
    run_batched_from(inputs, batch_records, threads, compute_threads, fault)
}

/// The inputs of [`run_batched`] as `cbft` loads them on the columnar
/// plane: rendered to CSV text and parsed straight into one batch each.
fn csv_loaded_inputs() -> [FileData; 2] {
    [users(40), clicks(600)].map(|records| {
        let lines: Vec<String> = records.iter().map(cli::render_record).collect();
        let batch = cli::parse_columns(&lines.join("\n")).expect("one field count");
        assert_eq!(batch.to_records(), records, "the CSV round trip is exact");
        batch.into()
    })
}

/// [`run_batched`] over `users` and `clicks` as given. Splits are
/// 128 records, so the 600 clicks span five map tasks and every window
/// but the first starts past row 0.
fn run_batched_from(
    [users, clicks]: [FileData; 2],
    batch_records: usize,
    threads: usize,
    compute_threads: usize,
    fault: Option<(usize, Behavior)>,
) -> ParallelOutcome {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads,
        compute_threads,
        batch_records,
        map_split_records: 128,
        expected_failures: 1,
        escalation: vec![2, 3, 4],
        master_seed: 2013,
        ..ExecutorConfig::default()
    });
    exec.load_input("users", users).unwrap();
    exec.load_input("clicks", clicks).unwrap();
    if let Some((uid, behavior)) = fault {
        exec.inject_fault(uid, behavior);
    }
    exec.run_script(SCRIPT).unwrap()
}

#[test]
fn batch_size_never_changes_the_outcome() {
    // The batch size picks a plane and nothing else: 0, the row plane,
    // and any other value, the columnar plane — `usize::MAX` included —
    // serialize byte-for-byte identically, across worker and pool sizes at
    // once.
    let baseline = run_batched(0, 1, 1, None);
    assert!(baseline.verified());
    let canon = serde_json::to_string(&baseline).unwrap();
    for (batch_records, threads, compute_threads) in [
        (1, 1, 1),
        (7, 2, 4),
        (1024, 2, 1),
        (1024, 2, 8),
        (usize::MAX, 2, 4),
        (0, 2, 8),
    ] {
        let outcome = run_batched(batch_records, threads, compute_threads, None);
        assert_eq!(
            canon,
            serde_json::to_string(&outcome).unwrap(),
            "batch_records={batch_records} threads={threads} compute_threads={compute_threads}"
        );
        // The same from columnar input files: map tasks window them
        // instead of converting (or, at batch size 0, read a row image).
        let outcome = run_batched_from(
            csv_loaded_inputs(),
            batch_records,
            threads,
            compute_threads,
            None,
        );
        assert_eq!(
            canon,
            serde_json::to_string(&outcome).unwrap(),
            "columnar inputs, batch_records={batch_records} threads={threads} \
             compute_threads={compute_threads}"
        );
    }
}

#[test]
fn batch_size_invariance_holds_under_faults() {
    // A commission deviant exercises the corrupt fallback path on one
    // replica while its honest siblings stay batched; forensics and the
    // escalation bookkeeping must not notice.
    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let baseline = run_batched(0, 2, 1, fault);
    assert!(baseline.verified());
    assert!(baseline.deviant_replicas().contains(&1));
    for batch_records in [1, 1024] {
        assert_eq!(
            baseline,
            run_batched(batch_records, 2, 4, fault),
            "batch_records={batch_records}"
        );
    }
    // From columnar input files the deviant replica's corrupt tasks copy
    // their window and flip it while its siblings read theirs in place.
    for batch_records in [0, 1, 1024] {
        assert_eq!(
            baseline,
            run_batched_from(csv_loaded_inputs(), batch_records, 2, 4, fault),
            "columnar inputs, batch_records={batch_records}"
        );
    }
}

// --- randomized inputs and seeds ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any input shape, any master seed, with or without a deviant: the
    /// pooled run serializes byte-for-byte like the inline run.
    #[test]
    fn random_runs_are_pool_size_independent(
        seed in any::<u64>(),
        user_rows in 5i64..60,
        click_rows in 20i64..300,
        deviant in any::<bool>(),
    ) {
        let run_with = |compute_threads: usize| {
            let mut exec = ParallelExecutor::new(ExecutorConfig {
                threads: 2,
                compute_threads,
                expected_failures: 1,
                escalation: vec![2, 3, 4],
                master_seed: seed,
                ..ExecutorConfig::default()
            });
            exec.load_input("users", users(user_rows)).unwrap();
            exec.load_input("clicks", clicks(click_rows)).unwrap();
            if deviant {
                exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
            }
            exec.run_script(SCRIPT).unwrap()
        };
        let inline = run_with(1);
        let pooled = run_with(8);
        prop_assert_eq!(
            serde_json::to_string(&inline).unwrap(),
            serde_json::to_string(&pooled).unwrap()
        );
    }
}
