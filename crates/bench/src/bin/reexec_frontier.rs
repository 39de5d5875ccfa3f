//! Sampled partial re-execution frontier: replication tax vs spot-check
//! verification (fault rate × sampling rate × verify mode).
//!
//! The conservative ClusterBFT tier replicates every sub-graph 3f+1 times
//! even when nothing is faulty — the "replication tax". The sampled tier
//! runs each sub-graph once and re-executes a seeded fraction of completed
//! tasks against their recorded per-chunk digests; the hybrid tier does
//! the same but escalates to the ordinary replication ladder the moment a
//! spot-check mismatches.
//!
//! This bench sweeps the three modes over sampling rates and commission
//! fault probabilities on the Twitter Follower Analysis and reports a
//! deterministic verified-work frontier: the cost of a run is
//! `input_records x replicas_executed + records_reexecuted` (replica-record
//! units), so the frontier is host-independent and byte-stable for a seed.
//! Wall-clock times ride along for context but carry no assertion.
//!
//! Hard claims, asserted here and recorded in the JSON flags:
//!
//! - at fault rate 0, sample mode's verified throughput per core is at
//!   least 2x full replication's, with identical verdicts AND identical
//!   published outputs;
//! - every injected commission fault in the sweep is caught by hybrid
//!   escalation (mismatch -> replication ladder -> faulty replica named).
//!
//! Results land in `bench_results/reexec_frontier.json`.

use cbft_bench::{ExperimentRecord, ParallelSpec};
use cbft_workloads::twitter;
use clusterbft::{Adversary, Behavior, ExecutorConfig, ParallelOutcome, VerifyMode, VpPolicy};

const EDGES: usize = 24_000;
const SEED: u64 = 9;
const F: usize = 1;

/// A fault-free run of the follower analysis in `mode`.
fn follower(mode: VerifyMode, sample_rate: f64) -> ParallelSpec {
    let config = ExecutorConfig {
        threads: 2,
        expected_failures: F,
        // The conservative tier pays 3f+1 up front; the sampled tiers run
        // once and (for hybrid) climb the ordinary ladder on suspicion.
        escalation: match mode {
            VerifyMode::Replicate => vec![3 * F + 1],
            VerifyMode::Sample | VerifyMode::Hybrid => vec![F + 1, 2 * F + 1, 3 * F + 1],
        },
        vp_policy: VpPolicy::Marked(2),
        adversary: Adversary::Weak,
        map_split_records: 2_000,
        nodes: 16,
        slots_per_node: 4,
        master_seed: SEED,
        verify_mode: mode,
        sample_rate,
        ..ExecutorConfig::default()
    };
    ParallelSpec::new(twitter::follower_analysis(SEED, EDGES), config)
}

/// Deterministic cost of a run in replica-record units: every launched
/// replica processes the full input once, plus whatever the spot-checker
/// re-executed. Verified throughput per core is the reciprocal, so cost
/// ratios are throughput ratios.
fn cost(outcome: &ParallelOutcome) -> f64 {
    let replicas: usize = outcome.replicas_per_round().iter().sum();
    (replicas * EDGES) as f64 + outcome.reexec().records_reexecuted as f64
}

fn main() {
    let mut record = ExperimentRecord::new(
        "reexec_frontier",
        "Sampled partial re-execution frontier (fault rate x sampling rate x verify mode)",
        &format!(
            "{EDGES} synthetic follower edges, f={F}, 2 worker threads, seed {SEED}. \
             Cost unit = input_records x replicas executed + records re-executed by the \
             spot-checker (host-independent); throughput per core is its reciprocal. \
             Replicate arm runs the conservative 3f+1 tier; sample/hybrid run the \
             sub-graph once and spot-check a seeded task sample against recorded \
             per-chunk digests. Faulty arms inject a commission fault on replica 0 \
             (the probe), so only hybrid escalation can both catch it and recover."
        ),
    );

    // --- fault-free frontier: sample vs full replication ----------------
    let (replicate, wall_repl) = follower(VerifyMode::Replicate, 0.0).execute();
    assert!(replicate.verified(), "replicated baseline must verify");
    let repl_cost = cost(&replicate);
    record.push("replicate wall (3f+1, fault-free)", "s", None, wall_repl);
    record.push(
        "replicate cost (replica-records)",
        "records",
        None,
        repl_cost,
    );

    let mut min_ratio = f64::INFINITY;
    for rate in [0.05, 0.1, 0.25] {
        let (sample, wall_sample) = follower(VerifyMode::Sample, rate).execute();
        assert_eq!(
            sample.verified(),
            replicate.verified(),
            "sample mode must not flip the verdict of a fault-free run"
        );
        assert_eq!(
            sample.outputs(),
            replicate.outputs(),
            "sample mode must publish byte-identical outputs"
        );
        let (hybrid, _) = follower(VerifyMode::Hybrid, rate).execute();
        assert!(hybrid.verified(), "fault-free hybrid stays un-escalated");
        assert!(
            !hybrid.reexec().escalated,
            "no escalation without suspicion"
        );
        assert_eq!(hybrid.outputs(), replicate.outputs());

        let ratio = repl_cost / cost(&sample);
        min_ratio = min_ratio.min(ratio);
        let re = sample.reexec();
        record.push(
            format!("sample rate={rate} cost (replica-records)"),
            "records",
            None,
            cost(&sample),
        );
        record.push(
            format!("sample rate={rate} throughput/core vs replicate"),
            "x",
            Some(2.0),
            ratio,
        );
        record.push(
            format!("sample rate={rate} tasks rerun / confirmed"),
            "tasks",
            None,
            re.reexecuted as f64,
        );
        record.push(format!("sample rate={rate} wall"), "s", None, wall_sample);
        assert_eq!(
            re.reexecuted, re.confirmed,
            "fault-free re-runs all confirm"
        );
        assert_eq!(re.mismatched, 0);
    }
    assert!(
        min_ratio >= 2.0,
        "sample tier must reclaim >= 2x verified throughput per core at fault rate 0 \
         (worst ratio {min_ratio:.2})"
    );
    record.set_flag("speedup_target_met", min_ratio >= 2.0);

    // --- faulty arms: hybrid must catch every injected commission fault -
    let mut all_caught = true;
    let mut injected = 0u32;
    for p in [0.5, 1.0] {
        for rate in [0.25, 0.5, 1.0] {
            injected += 1;
            let fault = Behavior::Commission { probability: p };
            let mut spec = follower(VerifyMode::Hybrid, rate);
            spec.faults.push((0, fault));
            let (hybrid, wall) = spec.execute();
            let re = hybrid.reexec();
            let caught = re.mismatched > 0
                && re.escalated
                && hybrid.verified()
                && hybrid.deviant_replicas().contains(&0);
            all_caught &= caught;
            record.push(
                format!("hybrid p={p} rate={rate} fault caught"),
                "bool",
                Some(1.0),
                f64::from(u8::from(caught)),
            );
            record.push(
                format!("hybrid p={p} rate={rate} cost (replica-records)"),
                "records",
                None,
                cost(&hybrid),
            );
            record.push(format!("hybrid p={p} rate={rate} wall"), "s", None, wall);
            assert!(
                caught,
                "hybrid must catch the injected commission fault and recover \
                 (p={p} rate={rate}: mismatched={} escalated={} verified={} deviant={:?})",
                re.mismatched,
                re.escalated,
                hybrid.verified(),
                hybrid.deviant_replicas(),
            );

            // The pure sample tier sees the same mismatch but cannot
            // escalate: it must withhold the output rather than publish
            // corrupt records.
            let mut spec = follower(VerifyMode::Sample, rate);
            spec.faults.push((0, fault));
            let (sample, _) = spec.execute();
            assert!(
                !sample.verified(),
                "sample mode must withhold on mismatch (p={p} rate={rate})"
            );
        }
    }
    record.push("commission faults injected", "", None, f64::from(injected));
    record.set_flag("hybrid_caught_all_faults", all_caught);

    record.finish();
}
