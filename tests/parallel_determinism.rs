//! Parallelism must be invisible: for a fixed master seed and fault plan,
//! the parallel executor's verdict, published outputs and canonical digest
//! transcript are bit-identical across every replica count and thread
//! count. Worker threads only change *when* digests reach the verifier,
//! never *what* they say.

use clusterbft_repro::core::{Behavior, ExecutorConfig, ParallelExecutor, ParallelOutcome};
use clusterbft_repro::dataflow::{Record, Value};
use clusterbft_repro::trace::{
    canonicalize, CanonicalEvent, Obs, TraceEvent, Tracer, QUORUM_EVENT,
};

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

fn run(replicas: usize, threads: usize, fault: Option<(usize, Behavior)>) -> ParallelOutcome {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads,
        expected_failures: 1,
        escalation: vec![replicas],
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
    replicas: usize,
    threads: usize,
    fault: Option<(usize, Behavior)>,
) -> (ParallelOutcome, Vec<TraceEvent>) {
    let (tracer, sink) = Tracer::memory();
    let mut exec = ParallelExecutor::observed(
        ExecutorConfig {
            threads,
            expected_failures: 1,
            escalation: vec![replicas, 3, 4],
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
fn canonical_traces_identical_across_thread_counts() {
    let (outcome, events) = run_traced(3, 1, None);
    assert!(outcome.verified());
    let baseline = canonicalize(&events);
    assert!(!baseline.is_empty(), "the traced run recorded events");
    assert!(
        baseline.iter().any(|e| e.name == QUORUM_EVENT),
        "per-key quorum events are part of the canonical trace"
    );
    assert!(
        baseline.iter().any(|e| e.name == "replica"),
        "replica lifecycle spans are part of the canonical trace"
    );
    for threads in [2, 8] {
        let (_, wide) = run_traced(3, threads, None);
        assert_eq!(
            baseline,
            canonicalize(&wide),
            "threads={threads}: canonical trace diverged from sequential"
        );
    }
}

#[test]
fn canonical_traces_identical_under_faults_too() {
    // A deviant replica triggers an escalation round; the extra rounds,
    // spans and quorum events must still be interleaving-independent.
    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let (outcome, events) = run_traced(2, 1, fault);
    assert!(outcome.verified(), "escalation recovers the quorum");
    let baseline = canonicalize(&events);
    assert!(baseline.iter().any(|e| e.name == "round_start"));
    for threads in [2, 8] {
        let (_, wide) = run_traced(2, threads, fault);
        assert_eq!(baseline, canonicalize(&wide), "threads={threads}");
    }
}

#[test]
fn tracing_does_not_perturb_the_outcome() {
    // The instrumented run and the untraced run agree bit-for-bit: the
    // trace layer observes the execution, it never steers it.
    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let (traced, _) = run_traced(2, 4, fault);
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 4,
        expected_failures: 1,
        escalation: vec![2, 3, 4],
        master_seed: 2013,
        ..ExecutorConfig::default()
    });
    exec.load_input("users", users(40)).unwrap();
    exec.load_input("clicks", clicks(600)).unwrap();
    exec.inject_fault(1, Behavior::Commission { probability: 1.0 });
    assert_eq!(traced, exec.run_script(SCRIPT).unwrap());
}

#[test]
fn healthy_runs_are_interleaving_independent() {
    for replicas in [2, 3, 4] {
        let baseline = run(replicas, 1, None);
        assert!(baseline.verified(), "r={replicas} baseline must verify");
        assert!(!baseline.transcript().is_empty());
        for threads in [2, 8] {
            let parallel = run(replicas, threads, None);
            assert_eq!(
                baseline, parallel,
                "r={replicas} threads={threads}: outcome diverged from sequential"
            );
        }
    }
}

#[test]
fn transcripts_are_byte_identical_across_thread_counts() {
    // The strongest form of the claim: not just the verdict but the full
    // ordered digest transcript — every (key, replica, seq, payload) —
    // survives any interleaving.
    let baseline = run(4, 1, None);
    let wide = run(4, 8, None);
    assert_eq!(baseline.transcript(), wide.transcript());
    let a = serde_json::to_string(&baseline).unwrap();
    let b = serde_json::to_string(&wide).unwrap();
    assert_eq!(a, b);
}

#[test]
fn faulty_runs_are_interleaving_independent_too() {
    // A commission-faulty replica makes digest *content* diverge; the
    // canonical ordering still pins every report to the same slot.
    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let baseline = run(3, 1, fault);
    assert!(
        baseline.verified(),
        "two honest replicas out-vote the deviant"
    );
    assert!(baseline.deviant_replicas().contains(&1));
    for threads in [2, 8] {
        assert_eq!(baseline, run(3, threads, fault), "threads={threads}");
    }
}

#[test]
fn omission_wedges_are_interleaving_independent() {
    let fault = Some((0, Behavior::Omission { probability: 0.4 }));
    let baseline = run(3, 1, fault);
    for threads in [2, 8] {
        assert_eq!(baseline, run(3, threads, fault), "threads={threads}");
    }
}

#[test]
fn zero_threads_means_one_thread_per_replica() {
    assert_eq!(run(3, 1, None), run(3, 0, None));
}

#[test]
fn different_seeds_still_agree_on_outputs() {
    // Replica simulations differ per seed (scheduling, node draws), but
    // honest replicas always compute the same records, so the verified
    // outputs — though not the timing-dependent metrics — match.
    let a = run(2, 4, None);
    let b = {
        let mut exec = ParallelExecutor::new(ExecutorConfig {
            threads: 4,
            escalation: vec![2],
            master_seed: 999,
            ..ExecutorConfig::default()
        });
        exec.load_input("users", users(40)).unwrap();
        exec.load_input("clicks", clicks(600)).unwrap();
        exec.run_script(SCRIPT).unwrap()
    };
    assert!(a.verified() && b.verified());
    assert_eq!(a.outputs(), b.outputs());
}

#[test]
fn sim_metric_snapshots_identical_across_thread_matrix() {
    // The sim-domain metric slice is part of the determinism contract:
    // for a fixed seed and fault plan, the JSON rendering of the
    // sim-only snapshot is byte-identical for every worker-thread ×
    // compute-pool-thread combination. Wall-domain samples (pool
    // dispatch/steal counts, queue peaks) are excluded — they genuinely
    // depend on host scheduling.
    use clusterbft_repro::metrics::{json_snapshot, Metrics};

    let fault = Some((1, Behavior::Commission { probability: 1.0 }));
    let mut baseline: Option<String> = None;
    for threads in [1, 8] {
        for compute_threads in [1, 8] {
            let metrics = Metrics::new();
            let mut exec = ParallelExecutor::observed(
                ExecutorConfig {
                    threads,
                    compute_threads,
                    expected_failures: 1,
                    escalation: vec![2, 3, 4],
                    master_seed: 2013,
                    ..ExecutorConfig::default()
                },
                Obs {
                    metrics: metrics.clone(),
                    ..Obs::disabled()
                },
            );
            exec.load_input("users", users(40)).unwrap();
            exec.load_input("clicks", clicks(600)).unwrap();
            if let Some((uid, behavior)) = fault {
                exec.inject_fault(uid, behavior);
            }
            let outcome = exec.run_script(SCRIPT).unwrap();
            assert!(outcome.verified());
            let sim = json_snapshot(&metrics.snapshot().sim_only());
            assert!(
                sim.contains("cbft_task_sim_us"),
                "task latency histogram present: {sim}"
            );
            assert!(
                sim.contains("cbft_replica_mismatches_total"),
                "deviant replica forensics present: {sim}"
            );
            match &baseline {
                None => baseline = Some(sim),
                Some(b) => assert_eq!(
                    b, &sim,
                    "threads={threads} compute_threads={compute_threads}: \
                     sim metrics diverged"
                ),
            }
        }
    }
}

// --- sampled partial re-execution (spot-check tier) ---------------------

use clusterbft_repro::core::VerifyMode;

/// A run in any verification tier with a memory trace sink attached;
/// returns the raw trace events alongside the outcome.
fn run_mode(
    mode: VerifyMode,
    sample_rate: f64,
    threads: usize,
    compute_threads: usize,
    fault: Option<(usize, Behavior)>,
) -> (ParallelOutcome, Vec<TraceEvent>) {
    let (tracer, sink) = Tracer::memory();
    let mut exec = ParallelExecutor::observed(
        ExecutorConfig {
            threads,
            compute_threads,
            expected_failures: 1,
            escalation: vec![2, 3, 4],
            master_seed: 2013,
            verify_mode: mode,
            sample_rate,
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

/// The worker-thread × compute-pool-thread points a sampled run is
/// compared at against its 1 × 1 baseline.
const MATRIX: [(usize, usize); 5] = [(1, 4), (2, 1), (2, 4), (8, 1), (8, 4)];

/// The probe replica is round 0 of the ladder: the canonical
/// `round_start` events carry seq `0..n`, each with the fresh replicas
/// its round started.
fn assert_rounds(outcome: &ParallelOutcome, canonical: &[CanonicalEvent]) {
    let rounds: Vec<(u64, String)> = canonical
        .iter()
        .filter(|e| e.name == "round_start")
        .map(|e| {
            let fresh = e.args.iter().find(|(k, _)| *k == "fresh");
            (e.seq, fresh.map_or(String::new(), |(_, v)| v.clone()))
        })
        .collect();
    let expected: Vec<(u64, String)> = outcome
        .replicas_per_round()
        .iter()
        .enumerate()
        .map(|(seq, n)| (seq as u64, n.to_string()))
        .collect();
    assert_eq!(rounds, expected);
}

#[test]
fn sampled_runs_are_interleaving_independent() {
    // The sampling decision is a pure function of (seed, task uid), so
    // the spot-checked set — and with it the verdict, the re-execution
    // counters, the serialized outcome and the canonical trace — must be
    // byte-identical for every worker-thread × compute-pool-thread
    // combination.
    for mode in [VerifyMode::Sample, VerifyMode::Hybrid] {
        let (baseline, events) = run_mode(mode, 0.5, 1, 1, None);
        assert!(baseline.verified(), "{mode:?} fault-free run verifies");
        assert_eq!(baseline.verify_mode(), mode);
        assert!(
            baseline.reexec().sampled > 0,
            "rate 0.5 must sample something"
        );
        let canon = serde_json::to_string(&baseline).unwrap();
        let trace = canonicalize(&events);
        assert_rounds(&baseline, &trace);
        for (threads, compute_threads) in MATRIX {
            let (wide, wide_events) = run_mode(mode, 0.5, threads, compute_threads, None);
            assert_eq!(
                canon,
                serde_json::to_string(&wide).unwrap(),
                "{mode:?} threads={threads} compute={compute_threads}: \
                 sampled outcome diverged"
            );
            assert_eq!(
                trace,
                canonicalize(&wide_events),
                "{mode:?} threads={threads} compute={compute_threads}: \
                 canonical trace diverged"
            );
        }
    }
}

#[test]
fn hybrid_escalation_is_interleaving_independent() {
    // Escalation replays the probe transcript into a fresh verifier and
    // walks the ordinary ladder; the whole recovery must survive any
    // interleaving bit-for-bit.
    let fault = Some((0, Behavior::Commission { probability: 1.0 }));
    let (baseline, events) = run_mode(VerifyMode::Hybrid, 1.0, 1, 1, fault);
    assert!(baseline.verified(), "escalation recovers the output");
    assert!(baseline.reexec().escalated);
    assert!(baseline.reexec().mismatched > 0);
    assert!(baseline.deviant_replicas().contains(&0));
    let canon = serde_json::to_string(&baseline).unwrap();
    let trace = canonicalize(&events);
    assert_rounds(&baseline, &trace);
    for (threads, compute_threads) in MATRIX {
        let (wide, wide_events) =
            run_mode(VerifyMode::Hybrid, 1.0, threads, compute_threads, fault);
        assert_eq!(
            canon,
            serde_json::to_string(&wide).unwrap(),
            "threads={threads} compute={compute_threads}"
        );
        assert_eq!(
            trace,
            canonicalize(&wide_events),
            "threads={threads} compute={compute_threads}: canonical trace diverged"
        );
    }
}

#[test]
fn sample_mode_matches_replicated_outputs_when_healthy() {
    // The whole point of the tier: same verdict, same bytes, a quarter
    // of the replicas.
    let replicated = run(4, 2, None);
    for mode in [VerifyMode::Sample, VerifyMode::Hybrid] {
        let (sampled, _) = run_mode(mode, 0.25, 2, 1, None);
        assert_eq!(sampled.verified(), replicated.verified());
        assert_eq!(sampled.outputs(), replicated.outputs());
        assert_eq!(sampled.replicas_per_round(), &[1]);
    }
}
