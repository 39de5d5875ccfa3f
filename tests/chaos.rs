//! Chaos soak test: random scripts, random faults, one global invariant.
//!
//! The system-level safety claim of ClusterBFT is simple to state:
//! **whenever the verifier reports a script as verified, the published
//! outputs equal what a fault-free execution would have produced** —
//! provided at most `f` nodes are faulty. This test grinds many randomized
//! deployments (fault kinds, probabilities, replication degrees, scripts,
//! digest granularities) against the reference interpreter.

use std::collections::HashMap;

use clusterbft_repro::core::{
    Behavior, Cluster, ClusterBft, ExecutorConfig, JobConfig, ParallelExecutor, Record,
    Replication, Value, VerifyMode, VpPolicy,
};
use clusterbft_repro::dataflow::interp::interpret;
use clusterbft_repro::dataflow::Script;
use clusterbft_repro::metrics::{HealthReport, Metrics};
use clusterbft_repro::sim::SimDuration;
use clusterbft_repro::trace::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCRIPTS: [&str; 4] = [
    "a = LOAD 'in' AS (k, v);
     g = GROUP a BY k;
     c = FOREACH g GENERATE group, COUNT(a) AS n, SUM(a.v) AS s;
     STORE c INTO 'out0';",
    "a = LOAD 'in' AS (k, v);
     f = FILTER a BY v % 3 == 0;
     g = GROUP f BY k;
     c = FOREACH g GENERATE group, MAX(f.v) AS m;
     o = ORDER c BY m DESC;
     t = LIMIT o 5;
     STORE t INTO 'out1';",
    "a = LOAD 'in' AS (k, v);
     b = LOAD 'in' AS (k, v);
     j = JOIN a BY k, b BY k;
     p = FOREACH j GENERATE a::v AS x, b::v AS y;
     d = DISTINCT p;
     STORE d INTO 'out2';",
    "a = LOAD 'in' AS (k, v);
     l = FOREACH a GENERATE k AS x;
     r = FOREACH a GENERATE v AS x;
     u = UNION l, r;
     g = GROUP u BY x;
     c = FOREACH g GENERATE group, COUNT(u) AS n;
     STORE c INTO 'out3';",
];

fn random_behavior(rng: &mut StdRng) -> Behavior {
    match rng.gen_range(0..3) {
        0 => Behavior::Commission {
            probability: rng.gen_range(0.2..1.0),
        },
        1 => Behavior::Omission {
            probability: rng.gen_range(0.2..0.8),
        },
        _ => Behavior::Crashed,
    }
}

#[test]
fn verified_always_means_correct() {
    let mut rng = StdRng::seed_from_u64(0xC1A0);
    let mut verified_runs = 0;
    for round in 0..25u32 {
        let nodes = rng.gen_range(8..=16);
        let faulty_node = rng.gen_range(0..nodes);
        let behavior = random_behavior(&mut rng);
        let replication = match rng.gen_range(0..3) {
            0 => Replication::Optimistic,
            1 => Replication::Quorum,
            _ => Replication::Full,
        };
        let script = SCRIPTS[rng.gen_range(0..SCRIPTS.len())];
        let granularity = [usize::MAX, 50, 7][rng.gen_range(0..3usize)];
        let points = rng.gen_range(0..3u32);
        let n_records = rng.gen_range(50..400);
        let records: Vec<Record> = (0..n_records)
            .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i * 7 % 101)]))
            .collect();

        // Reference result on a perfect machine.
        let plan = Script::parse(script).unwrap().into_plan();
        let inputs = HashMap::from([("in".to_owned(), records.clone())]);
        let reference = interpret(&plan, &inputs).unwrap();

        let cluster = Cluster::builder()
            .nodes(nodes)
            .slots_per_node(3)
            .seed(round as u64 * 977 + 5)
            .node_behavior(faulty_node, behavior)
            .build();
        let mut cbft = ClusterBft::new(
            cluster,
            JobConfig::builder()
                .expected_failures(1)
                .replication(replication)
                .vp_policy(VpPolicy::Marked(points))
                .digest_granularity(granularity)
                .map_split_records(rng.gen_range(20..80))
                .verifier_timeout(SimDuration::from_secs(90))
                .max_attempts(4)
                .combiners(round % 2 == 0)
                .early_cancel(round % 3 == 0)
                .build(),
        );
        cbft.load_input("in", records).unwrap();
        let outcome = cbft
            .submit_script(script)
            .expect("submission never errors here");

        if outcome.verified() {
            verified_runs += 1;
            for (name, truth) in reference.outputs() {
                let mut ours = cbft
                    .cluster()
                    .storage()
                    .peek(name)
                    .unwrap_or_else(|| panic!("round {round}: output {name} missing"))
                    .to_vec();
                let mut truth = truth.clone();
                ours.sort();
                truth.sort();
                assert_eq!(
                    ours, truth,
                    "round {round} ({behavior:?}, {replication:?}): verified ≠ correct"
                );
            }
        } else {
            // Unverified is allowed (e.g. omission faults with optimistic
            // replication running out of attempts) — but nothing may have
            // been published.
            assert!(
                outcome.outputs().is_empty(),
                "round {round}: unverified must publish nothing"
            );
        }
    }
    assert!(
        verified_runs >= 15,
        "the chaos mix should still verify most runs, got {verified_runs}/25"
    );
}

/// The same invariant under the parallel replica executor, with the
/// paper's escalation schedule: a faulty replica (deviant digests or a
/// silent wedge) forces re-execution at a higher replica count, and
/// whatever finally verifies must equal the reference interpreter.
#[test]
fn parallel_escalation_verified_always_means_correct() {
    let mut rng = StdRng::seed_from_u64(0xE5CA);
    let mut escalated_runs = 0;
    for round in 0..12u32 {
        let script = SCRIPTS[rng.gen_range(0..SCRIPTS.len())];
        let behavior = random_behavior(&mut rng);
        let faulty_uid = rng.gen_range(0..2usize); // within the f+1 first round
        let n_records = rng.gen_range(50..400);
        let records: Vec<Record> = (0..n_records)
            .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i * 7 % 101)]))
            .collect();

        let plan = Script::parse(script).unwrap().into_plan();
        let inputs = HashMap::from([("in".to_owned(), records.clone())]);
        let reference = interpret(&plan, &inputs).unwrap();

        let mut exec = ParallelExecutor::new(ExecutorConfig {
            threads: 4,
            expected_failures: 1,
            // f+1 → 2f+1 → 3f+1, the default — spelled out for the reader.
            escalation: vec![2, 3, 4],
            digest_granularity: [usize::MAX, 50, 7][rng.gen_range(0..3usize)],
            map_split_records: rng.gen_range(20..80),
            master_seed: round as u64 * 977 + 5,
            ..ExecutorConfig::default()
        });
        exec.load_input("in", records).unwrap();
        exec.inject_fault(faulty_uid, behavior);
        let outcome = exec
            .run_script(script)
            .expect("submission never errors here");

        // One faulty replica against f = 1 and three rounds of escalation:
        // two honest replicas must always emerge and out-vote it.
        assert!(
            outcome.verified(),
            "round {round} ({behavior:?} on uid {faulty_uid}): escalation should recover"
        );
        match behavior {
            Behavior::Commission { .. } => {
                // A deviant replica contradicts the quorum at some key —
                // unless its corruption draws never hit a digested record.
                if outcome.replicas_per_round().len() > 1 {
                    assert!(
                        outcome.deviant_replicas().contains(&faulty_uid)
                            || outcome.omitted_replicas().contains(&faulty_uid),
                        "round {round}: escalation without implicating uid {faulty_uid}"
                    );
                }
            }
            Behavior::Crashed => {
                assert!(
                    outcome.omitted_replicas().contains(&faulty_uid),
                    "round {round}: a crashed replica must wedge"
                );
                assert!(
                    outcome.replicas_per_round().len() > 1,
                    "round {round}: a wedged first round cannot reach quorum at f+1"
                );
            }
            Behavior::Omission { .. } | Behavior::Honest => {}
        }
        if outcome.replicas_per_round().len() > 1 {
            escalated_runs += 1;
        }

        for (name, truth) in reference.outputs() {
            let mut ours = outcome
                .output(name)
                .unwrap_or_else(|| panic!("round {round}: output {name} missing"))
                .to_vec();
            let mut truth = truth.clone();
            ours.sort();
            truth.sort();
            assert_eq!(
                ours, truth,
                "round {round} ({behavior:?}): verified ≠ correct"
            );
        }
    }
    assert!(
        escalated_runs >= 4,
        "the fault mix should force escalation regularly, got {escalated_runs}/12"
    );
}

/// Escalation bottoms out honestly: when every round's replicas are
/// faulty (one deviant, the rest wedged — faults that cannot collude into
/// a fake quorum), no `f + 1` agreement ever forms and nothing is
/// published.
#[test]
fn parallel_escalation_exhausts_to_unverified() {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 4,
        expected_failures: 1,
        escalation: vec![2, 3, 4],
        master_seed: 11,
        ..ExecutorConfig::default()
    });
    let records: Vec<Record> = (0..120)
        .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i)]))
        .collect();
    exec.load_input("in", records).unwrap();
    exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
    for uid in 1..4 {
        exec.inject_fault(uid, Behavior::Crashed);
    }
    let outcome = exec.run_script(SCRIPTS[0]).unwrap();
    assert!(
        !outcome.verified(),
        "a single deviant digest stream has no quorum partner"
    );
    assert!(
        outcome.outputs().is_empty(),
        "unverified must publish nothing"
    );
    assert_eq!(
        outcome.replicas_per_round(),
        &[2, 1, 1],
        "all rounds were spent"
    );
    assert_eq!(
        outcome.omitted_replicas().len(),
        3,
        "the crashed replicas all wedged"
    );
}

/// A mixed-fault chaos run — commission, omission and crash in ONE run —
/// must climb the escalation ladder in order (one fresh replica per
/// extra round) and end with a clean-replica set disjoint from every
/// injected fault that manifested.
#[test]
fn mixed_fault_run_climbs_the_ladder_and_isolates_the_clean_set() {
    let metrics = Metrics::new();
    let mut exec = ParallelExecutor::observed(
        ExecutorConfig {
            threads: 2,
            expected_failures: 1,
            // One extra rung past 3f+1 so two honest replicas emerge even
            // with three faulty ones in front of them.
            escalation: vec![2, 3, 4, 5],
            master_seed: 7,
            ..ExecutorConfig::default()
        },
        Obs {
            metrics: metrics.clone(),
            ..Obs::disabled()
        },
    );
    let records: Vec<Record> = (0..150)
        .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i * 7 % 101)]))
        .collect();
    exec.load_input("in", records.clone()).unwrap();
    exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
    exec.inject_fault(1, Behavior::Omission { probability: 0.8 });
    exec.inject_fault(2, Behavior::Crashed);
    let outcome = exec.run_script(SCRIPTS[0]).unwrap();

    // Ladder order: f+1 first, then exactly one fresh replica per rung.
    assert_eq!(
        outcome.replicas_per_round(),
        &[2, 1, 1, 1],
        "every rung of the ladder was climbed in order"
    );
    assert!(
        outcome.verified(),
        "two honest replicas out-vote the mixed faults"
    );
    assert!(outcome.deviant_replicas().contains(&0), "commission named");
    assert!(outcome.omitted_replicas().contains(&1), "omission wedged");
    assert!(outcome.omitted_replicas().contains(&2), "crash wedged");

    // The final clean set: exactly the honest late-round replicas, and
    // never any replica whose injected fault manifested.
    let clean = outcome.clean_replicas();
    assert!(clean.contains(&3) && clean.contains(&4), "honest are clean");
    for faulty in [0usize, 2] {
        assert!(!clean.contains(&faulty), "replica {faulty} is not clean");
    }

    // The published result equals the reference interpreter's.
    let plan = Script::parse(SCRIPTS[0]).unwrap().into_plan();
    let reference = interpret(&plan, &HashMap::from([("in".to_owned(), records)])).unwrap();
    let mut ours = outcome.output("out0").unwrap().to_vec();
    let mut truth = reference.outputs()["out0"].clone();
    ours.sort();
    truth.sort();
    assert_eq!(ours, truth);

    // And the health report names every injected replica.
    let named = HealthReport::from_snapshot(&metrics.snapshot().sim_only()).named_replicas();
    for faulty in [0u64, 1, 2] {
        assert!(named.contains(&faulty), "health report names {faulty}");
    }
}

/// Regression for the ≥2-fault forensics gap: in a run where NO key ever
/// reaches a quorum, the Byzantine replica used to vanish from the
/// health report (mismatches are only chargeable against an established
/// quorum) while its crashed siblings were named. Conflict forensics
/// (`cbft_replica_conflicts_total`) close the gap: every injected fault
/// is named — the commission replica via the unresolved conflict set.
#[test]
fn health_report_names_every_injected_fault_even_without_a_quorum() {
    let metrics = Metrics::new();
    let mut exec = ParallelExecutor::observed(
        ExecutorConfig {
            threads: 2,
            expected_failures: 1,
            escalation: vec![2, 3, 4],
            master_seed: 7,
            ..ExecutorConfig::default()
        },
        Obs {
            metrics: metrics.clone(),
            ..Obs::disabled()
        },
    );
    let records: Vec<Record> = (0..120)
        .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i * 7 % 101)]))
        .collect();
    exec.load_input("in", records).unwrap();
    // Three faults against f = 1: the omission replica wedges before
    // reporting anything, so the commission stream faces a single honest
    // replica — one-vs-one at every key, quorumless forever.
    exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
    exec.inject_fault(1, Behavior::Omission { probability: 0.8 });
    exec.inject_fault(2, Behavior::Crashed);
    let outcome = exec.run_script(SCRIPTS[0]).unwrap();
    assert!(!outcome.verified(), "no quorum can form");
    assert!(
        outcome.deviant_replicas().is_empty(),
        "no quorum means no per-replica mismatch verdicts"
    );
    assert!(
        outcome.conflict_replicas().contains(&0),
        "the Byzantine replica is party to the unresolved conflicts"
    );

    let report = HealthReport::from_snapshot(&metrics.snapshot().sim_only());
    let named = report.named_replicas();
    for faulty in [0u64, 1, 2] {
        assert!(
            named.contains(&faulty),
            "injected faulty replica {faulty} missing from report names {named:?}"
        );
    }
    assert!(report.render().contains("unresolved digest conflicts"));
}

/// The flip side of the invariant — and of [`parallel_escalation_exhausts_to_unverified`]:
/// more than `f` *identically corrupting* replicas CAN form a quorum of
/// wrong digests. ClusterBFT's guarantee is explicitly conditional on at
/// most `f` correlated faults (paper §3.1); this pins the boundary so the
/// condition stays visible in the test suite.
#[test]
fn colluding_majority_defeats_verification_by_design() {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 2,
        expected_failures: 1,
        escalation: vec![2],
        master_seed: 11,
        ..ExecutorConfig::default()
    });
    let records: Vec<Record> = (0..120)
        .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i)]))
        .collect();
    exec.load_input("in", records).unwrap();
    // Probability 1.0 makes the (deterministic) corruption identical on
    // both replicas: their wrong digests agree everywhere.
    exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
    exec.inject_fault(1, Behavior::Commission { probability: 1.0 });
    let outcome = exec.run_script(SCRIPTS[0]).unwrap();
    assert!(outcome.verified(), "f+1 colluding replicas look unanimous");

    let plan = Script::parse(SCRIPTS[0]).unwrap().into_plan();
    let records: Vec<Record> = (0..120)
        .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i)]))
        .collect();
    let reference = interpret(&plan, &HashMap::from([("in".to_owned(), records)])).unwrap();
    assert_ne!(
        outcome.output("out0").unwrap(),
        reference.outputs()["out0"].as_slice(),
        "…and what they agree on is wrong, which is why f must bound collusion"
    );
}

/// The oracle case for the sampled tier: a commission fault that blind
/// single execution (one replica, f = 0 — no replication tax, but also no
/// spot-checks) VERIFIES and publishes corrupt, because the digest
/// "quorum" is the corrupt replica agreeing with itself. The hybrid tier
/// pays the same up-front cost — one probe replica — but deterministically
/// re-executes sampled tasks against the probe's recorded chunk digests,
/// sees the mismatch, escalates onto the ordinary replication ladder,
/// recovers the reference answer and names the faulty replica.
#[test]
fn hybrid_spot_checks_catch_what_blind_single_execution_publishes() {
    let records: Vec<Record> = (0..200)
        .map(|i| Record::new(vec![Value::Int(i % 13), Value::Int(i * 7 % 101)]))
        .collect();
    let plan = Script::parse(SCRIPTS[0]).unwrap().into_plan();
    let reference = interpret(&plan, &HashMap::from([("in".to_owned(), records.clone())])).unwrap();
    let mut truth = reference.outputs()["out0"].clone();
    truth.sort();

    // Blind baseline: replicate mode with a one-rung ladder and f = 0.
    let mut blind = ParallelExecutor::new(ExecutorConfig {
        threads: 2,
        expected_failures: 0,
        escalation: vec![1],
        master_seed: 41,
        ..ExecutorConfig::default()
    });
    blind.load_input("in", records.clone()).unwrap();
    blind.inject_fault(0, Behavior::Commission { probability: 1.0 });
    let corrupt = blind.run_script(SCRIPTS[0]).unwrap();
    assert!(corrupt.verified(), "one replica always agrees with itself");
    let mut published = corrupt.output("out0").unwrap().to_vec();
    published.sort();
    assert_ne!(published, truth, "…and what it published is corrupt");

    // Hybrid tier: the same single probe replica up front, every
    // completed task spot-checked (rate 1.0) before anything is trusted.
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 2,
        expected_failures: 1,
        escalation: vec![2, 3, 4],
        master_seed: 41,
        verify_mode: VerifyMode::Hybrid,
        sample_rate: 1.0,
        ..ExecutorConfig::default()
    });
    exec.load_input("in", records).unwrap();
    exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
    let outcome = exec.run_script(SCRIPTS[0]).unwrap();
    let re = outcome.reexec();
    assert!(re.mismatched > 0, "the spot-checker sees the corruption");
    assert!(
        re.escalated,
        "suspicion escalates to the replication ladder"
    );
    assert!(outcome.verified(), "…which recovers a real quorum");
    assert!(
        outcome.deviant_replicas().contains(&0),
        "the probe replica is named"
    );
    let mut ours = outcome.output("out0").unwrap().to_vec();
    ours.sort();
    assert_eq!(ours, truth, "the published result is the reference answer");
}
