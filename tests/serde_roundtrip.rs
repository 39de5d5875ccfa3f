//! Serde round-trips for the data-structure types (C-SERDE): anything a
//! harness persists (bench records, configs, plans, digests) must survive
//! JSON serialization unchanged.

use clusterbft_repro::core::{
    Adversary, ExecutorConfig, JobConfig, Record, ReexecSummary, Replication, StreamedReport,
    Value, VerifyMode, VpPolicy,
};
use clusterbft_repro::dataflow::compile::{JobId, Site};
use clusterbft_repro::dataflow::{LogicalPlan, Script, VertexId};
use clusterbft_repro::digest::{ChunkedDigest, ChunkedSummary, Digest};
use clusterbft_repro::mapreduce::{DigestReport, JobMetrics, TaskKind};
use clusterbft_repro::sim::SimTime;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn digests_round_trip() {
    let d = Digest::of(b"payload");
    assert_eq!(round_trip(&d), d);

    let mut cd = ChunkedDigest::new(2);
    for r in [b"a".as_slice(), b"bb", b"ccc"] {
        cd.append(r);
    }
    let summary: ChunkedSummary = cd.finish();
    assert_eq!(round_trip(&summary), summary);
}

#[test]
fn records_round_trip_including_bags() {
    let r = Record::new(vec![
        Value::Null,
        Value::Int(-42),
        Value::str("text"),
        Value::Bag(vec![Record::new(vec![Value::Int(1)])]),
    ]);
    assert_eq!(round_trip(&r), r);
}

#[test]
fn logical_plans_round_trip() {
    let plan = Script::parse(
        "a = LOAD 'e' AS (user, follower);
         b = LOAD 'e' AS (user, follower);
         j = JOIN a BY follower, b BY user;
         p = FOREACH j GENERATE a::user, b::follower;
         g = GROUP p BY user;
         c = FOREACH g GENERATE group, COUNT(p) AS n;
         o = ORDER c BY n DESC;
         t = LIMIT o 3;
         STORE t INTO 'out';",
    )
    .unwrap()
    .into_plan();
    let back: LogicalPlan = round_trip(&plan);
    assert_eq!(back.len(), plan.len());
    assert_eq!(back.render(), plan.render());
    // The restored plan still compiles identically.
    let a = clusterbft_repro::dataflow::compile::compile_plan(&plan);
    let b = clusterbft_repro::dataflow::compile::compile_plan(&back);
    assert_eq!(a, b);
}

/// A plan that did not come from the builder — which rejects a repeated
/// STORE name — is still checked by the reference interpreter.
#[test]
fn a_restored_plan_with_a_repeated_store_is_an_interpreter_error() {
    use clusterbft_repro::dataflow::interp::{interpret, InterpError};
    let plan = Script::parse(
        "a = LOAD 'i' AS (x); STORE a INTO 'o'; b = FILTER a BY x > 0; STORE b INTO 'p';",
    )
    .unwrap()
    .into_plan();
    let json = serde_json::to_string(&plan)
        .unwrap()
        .replace("\"p\"", "\"o\"");
    let forged: LogicalPlan = serde_json::from_str(&json).unwrap();
    let inputs = [("i".to_owned(), vec![Record::new(vec![Value::Int(1)])])];
    let err = interpret(&forged, &inputs.into()).unwrap_err();
    assert_eq!(err, InterpError::DuplicateOutput("o".to_owned()));
}

#[test]
fn configs_and_metrics_round_trip() {
    let config = JobConfig::builder()
        .expected_failures(2)
        .replication(Replication::Exact(5))
        .vp_policy(VpPolicy::Individual)
        .digest_granularity(1_000)
        .combiners(true)
        .reuse_digests(true)
        .build();
    assert_eq!(round_trip(&config), config);

    let metrics = JobMetrics {
        local_read_bytes: 1,
        hdfs_write_bytes: 2,
        map_tasks: 3,
        data_local_tasks: 2,
        ..JobMetrics::default()
    };
    assert_eq!(round_trip(&metrics), metrics);
}

fn streamed(uid: usize, seq: u64, payload: &[u8]) -> StreamedReport {
    let mut cd = ChunkedDigest::whole_stream();
    cd.append(payload);
    StreamedReport {
        uid,
        seq,
        report: DigestReport {
            sid: "j2".to_owned(),
            replica: uid,
            vertex: VertexId(4),
            site: Site::Shuffle { job: JobId(2) },
            kind: TaskKind::Reduce,
            task_index: 1,
            summary: cd.finish(),
            at: SimTime::ZERO,
        },
    }
}

#[test]
fn streamed_reports_round_trip_with_their_ordering_key() {
    // The canonical transcript is persisted by harnesses; the ordering
    // key — (verification point, replica, sequence) — must survive JSON
    // intact or a restored transcript would sort differently.
    let sr = streamed(3, 17, b"payload");
    let back = round_trip(&sr);
    assert_eq!(back, sr);
    assert_eq!(back.ordering_key(), sr.ordering_key());

    // And a whole transcript keeps its canonical order through the trip.
    let transcript = vec![
        streamed(0, 0, b"a"),
        streamed(0, 1, b"b"),
        streamed(1, 0, b"a"),
    ];
    let back: Vec<StreamedReport> = round_trip(&transcript);
    assert!(back
        .windows(2)
        .all(|w| w[0].ordering_key() <= w[1].ordering_key()));
    assert_eq!(back, transcript);
}

#[test]
fn executor_configs_round_trip() {
    // Default (exercises granularity = usize::MAX, the JSON u64 extreme).
    let config = ExecutorConfig::default();
    assert_eq!(round_trip(&config), config);

    let config = ExecutorConfig {
        threads: 8,
        expected_failures: 2,
        escalation: vec![3, 5, 7],
        vp_policy: VpPolicy::Marked(4),
        adversary: Adversary::Weak,
        digest_granularity: 250,
        reduce_tasks: 6,
        map_split_records: 1_000,
        nodes: 32,
        slots_per_node: 9,
        master_seed: 0xDEAD_BEEF,
        verify_mode: VerifyMode::Hybrid,
        sample_rate: 0.25,
        ..ExecutorConfig::default()
    };
    let back = round_trip(&config);
    assert_eq!(back, config);
    // Derived behavior survives too, not just field equality.
    assert_eq!(back.escalation_targets(), config.escalation_targets());
}

#[test]
fn verification_tier_types_round_trip() {
    // A persisted config must restore the exact tier, or a replayed run
    // would verify under different rules than the one it documents.
    for mode in [
        VerifyMode::Replicate,
        VerifyMode::Sample,
        VerifyMode::Hybrid,
    ] {
        assert_eq!(round_trip(&mode), mode);
        // The CLI flag spelling is the stable external name.
        assert_eq!(VerifyMode::parse(mode.name()), Some(mode));
    }

    let summary = ReexecSummary {
        tasks_total: 96,
        sampled: 12,
        reexecuted: 12,
        confirmed: 11,
        mismatched: 1,
        records_reexecuted: 4_800,
        escalated: true,
    };
    assert_eq!(round_trip(&summary), summary);
}
