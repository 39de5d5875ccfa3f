//! Integration tests for the multi-tenant job server: tenant isolation
//! (co-tenant runs are byte-identical to solo runs), explicit queue-full
//! backpressure with no silent drops, and the server section of the
//! metrics pipeline end to end (Prometheus exposition validity plus the
//! health report).

use clusterbft_repro::core::{Behavior, ExecutorConfig, VpPolicy};
use clusterbft_repro::metrics::{validate_prometheus_text, HealthReport, Metrics};
use clusterbft_repro::server::{JobServer, JobSpec, RejectReason, ServerConfig, SubmitOutcome};
use clusterbft_repro::trace::Obs;
use clusterbft_repro::workloads::twitter;

fn job(tenant: &str, seed: u64, edges: usize) -> JobSpec {
    let workload = twitter::follower_analysis(seed, edges);
    JobSpec::new(tenant, workload.script)
        .input(workload.input_name, workload.records)
        .exec(ExecutorConfig {
            threads: 2,
            compute_threads: 1,
            expected_failures: 1,
            escalation: vec![2, 3],
            vp_policy: VpPolicy::Marked(2),
            master_seed: seed,
            nodes: 8,
            slots_per_node: 3,
            ..ExecutorConfig::default()
        })
}

/// Satellite of the multi-tenant story: two tenants submitting the same
/// seeded script concurrently each get results byte-identical to a solo
/// run — co-tenancy affects when a job runs, never what it computes.
#[test]
fn co_tenant_runs_are_byte_identical_to_solo_runs() {
    // Solo baselines, one idle server per tenant.
    let mut baselines = Vec::new();
    for seed in [7u64, 8] {
        let server = JobServer::start(ServerConfig::default());
        let result = server
            .submit(job("baseline", seed, 200))
            .expect_admitted()
            .wait();
        server.shutdown();
        let outcome = result.outcome.expect("solo run completes");
        assert!(outcome.verified());
        baselines.push(serde_json::to_string(&outcome).expect("serialize"));
    }

    // The same two seeded jobs, now interleaved with each other and with
    // background noise on a busy shared server.
    let server = JobServer::start(ServerConfig {
        slots: 3,
        queue_depth: 64,
        compute_threads: 2,
        ..ServerConfig::default()
    });
    let mut noise = Vec::new();
    for i in 0..6 {
        noise.push(server.submit(job("noise", 100 + i, 200)).expect_admitted());
    }
    let acme = server.submit(job("acme", 7, 200)).expect_admitted();
    let beta = server.submit(job("beta", 8, 200)).expect_admitted();
    let acme_outcome = acme.wait().outcome.expect("acme run completes");
    let beta_outcome = beta.wait().outcome.expect("beta run completes");
    for h in noise {
        assert!(h.wait().verified());
    }
    server.shutdown();

    assert_eq!(
        serde_json::to_string(&acme_outcome).expect("serialize"),
        baselines[0],
        "tenant acme's co-tenant run must match its solo run byte for byte"
    );
    assert_eq!(
        serde_json::to_string(&beta_outcome).expect("serialize"),
        baselines[1],
        "tenant beta's co-tenant run must match its solo run byte for byte"
    );
}

/// Queue exhaustion is explicit backpressure, never a silent drop: every
/// submission is either admitted (and completes) or rejected with the
/// queue's capacity in the reason.
#[test]
fn queue_full_is_explicit_and_nothing_is_dropped() {
    let server = JobServer::start(ServerConfig {
        slots: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    let burst = 24;
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..burst {
        match server.submit(job("burst", i as u64 + 1, 400)) {
            SubmitOutcome::Admitted(h) => admitted.push(h),
            SubmitOutcome::Rejected(RejectReason::QueueFull { depth }) => {
                assert_eq!(depth, 2, "rejection names the configured capacity");
                rejected += 1;
            }
            SubmitOutcome::Rejected(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert_eq!(admitted.len() + rejected, burst, "no silent drops");
    assert!(rejected > 0, "a 2-deep queue behind 1 slot must push back");
    for h in admitted {
        assert!(h.wait().verified(), "every admitted job completes verified");
    }
    server.shutdown();
}

/// The server-level metrics series flow through the whole pipeline: the
/// Prometheus exposition validates, carries the per-tenant labels, and
/// the health report renders the job-server section — including a
/// faulty tenant's escalation showing up in its completed counts.
#[test]
fn server_metrics_flow_into_exposition_and_health_report() {
    let metrics = Metrics::new();
    let server = JobServer::start(ServerConfig {
        slots: 2,
        queue_depth: 16,
        obs: Obs {
            metrics: metrics.clone(),
            ..Obs::disabled()
        },
        ..ServerConfig::default()
    });
    let mut handles = Vec::new();
    for i in 0..4 {
        handles.push(server.submit(job("acme", i + 1, 200)).expect_admitted());
    }
    // One faulty job: replica 0 commits commission faults, forcing an
    // escalation round inside the server; the job still verifies.
    handles.push(
        server
            .submit(job("chaos", 99, 200).fault(0, Behavior::Commission { probability: 1.0 }))
            .expect_admitted(),
    );
    for h in handles {
        assert!(h.wait().verified());
    }
    server.shutdown();

    let snap = metrics.snapshot();
    let text = clusterbft_repro::metrics::prometheus_text(&snap);
    validate_prometheus_text(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(text.contains("cbft_server_jobs_admitted_total"), "{text}");
    assert!(
        text.contains("tenant=\"acme\"") && text.contains("tenant=\"chaos\""),
        "{text}"
    );

    let report = HealthReport::from_snapshot(&snap).render();
    assert!(report.contains("job server:"), "{report}");
    assert!(report.contains("admitted=5"), "{report}");
    assert!(
        report.contains("tenant acme: completed=4  verified=4"),
        "{report}"
    );
    assert!(
        report.contains("tenant chaos: completed=1  verified=1"),
        "{report}"
    );
}
