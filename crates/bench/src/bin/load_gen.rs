//! Sustained multi-tenant load against the `cbft-server` job server.
//!
//! Three profiles, one record (`bench_results/server_load.json`):
//!
//! 1. **Sustained** — 1,200 small verified jobs from three tenants with
//!    4:2:1 fair-share weights pushed through a 4-slot server behind a
//!    64-deep admission queue. The submitter absorbs queue-full
//!    rejections with a short pause and a retry (counted), so every job
//!    eventually completes; the record reports sustained throughput and
//!    exact per-tenant p50/p90/p99 end-to-end latency.
//! 2. **Stress** — a 32-job burst at a 1-slot server behind a 4-deep
//!    queue with no retries: explicit `QueueFull` backpressure must be
//!    observed (asserted), never a silent drop — admitted + rejected
//!    must equal submitted.
//! 3. **Determinism** — one seeded job executed solo on an idle server
//!    and again among 30 co-tenant jobs: verdict, transcript digests and
//!    outputs must be byte-identical (asserted on the serialized
//!    outcome), because each job's replicas derive everything from its
//!    own seed and the shared compute pool only lends wall-clock.

use std::time::Instant;

use cbft_bench::{server_job, ExperimentRecord};
use cbft_server::{JobServer, RejectReason, ServerConfig, SubmitOutcome};

/// Tenants and their fair-share weights for the sustained profile.
const TENANTS: [(&str, u64); 3] = [("acme", 4), ("beta", 2), ("solo", 1)];
/// Jobs in the sustained profile (≥ 1,000 per the acceptance bar).
const SUSTAINED_JOBS: usize = 1_200;
/// Edges per job: small enough that a thousand jobs finish in seconds,
/// large enough that slots stay saturated and the queue actually fills.
const EDGES: usize = 300;

/// Exact nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn sustained(record: &mut ExperimentRecord) {
    let server = JobServer::start(ServerConfig {
        slots: 4,
        queue_depth: 64,
        compute_threads: 2,
        default_weight: 1,
        weights: TENANTS.iter().map(|(t, w)| ((*t).to_owned(), *w)).collect(),
        ..ServerConfig::default()
    });

    let start = Instant::now();
    let mut handles = Vec::with_capacity(SUSTAINED_JOBS);
    let mut retries = 0u64;
    for i in 0..SUSTAINED_JOBS {
        let (tenant, _) = TENANTS[i % TENANTS.len()];
        let spec = server_job(tenant, i as u64 + 1, EDGES);
        let handle = loop {
            match server.submit(spec.clone()) {
                SubmitOutcome::Admitted(h) => break h,
                SubmitOutcome::Rejected(RejectReason::QueueFull { .. }) => {
                    retries += 1;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                SubmitOutcome::Rejected(r) => panic!("unexpected rejection: {r}"),
            }
        };
        handles.push(handle);
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();

    let verified = results.iter().filter(|r| r.verified()).count();
    assert_eq!(verified, SUSTAINED_JOBS, "every healthy job must verify");
    record.push("jobs completed", "jobs", None, SUSTAINED_JOBS as f64);
    record.push("jobs verified", "jobs", None, verified as f64);
    record.push(
        "sustained throughput",
        "jobs/s",
        None,
        SUSTAINED_JOBS as f64 / wall,
    );
    record.push(
        "queue-full retries absorbed",
        "rejections",
        None,
        retries as f64,
    );
    for (tenant, weight) in TENANTS {
        let mut lat: Vec<u64> = results
            .iter()
            .filter(|r| r.tenant == tenant)
            .map(|r| r.total_us)
            .collect();
        lat.sort_unstable();
        record.push(
            format!("{tenant} (w={weight}) p50 latency"),
            "ms",
            None,
            percentile(&lat, 0.50) as f64 / 1e3,
        );
        record.push(
            format!("{tenant} (w={weight}) p90 latency"),
            "ms",
            None,
            percentile(&lat, 0.90) as f64 / 1e3,
        );
        record.push(
            format!("{tenant} (w={weight}) p99 latency"),
            "ms",
            None,
            percentile(&lat, 0.99) as f64 / 1e3,
        );
    }
}

fn stress(record: &mut ExperimentRecord) {
    let server = JobServer::start(ServerConfig {
        slots: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let burst = 32usize;
    let mut handles = Vec::new();
    let mut rejected = 0usize;
    for i in 0..burst {
        // Heavier jobs than the sustained profile, submitted without
        // retry: the 4-deep queue behind one slot must push back.
        match server.submit(server_job("burst", i as u64 + 1, 2 * EDGES)) {
            SubmitOutcome::Admitted(h) => handles.push(h),
            SubmitOutcome::Rejected(RejectReason::QueueFull { .. }) => rejected += 1,
            SubmitOutcome::Rejected(r) => panic!("unexpected rejection: {r}"),
        }
    }
    let admitted = handles.len();
    assert_eq!(admitted + rejected, burst, "no silent drops");
    assert!(rejected > 0, "stress profile must observe backpressure");
    let verified = handles
        .into_iter()
        .map(|h| h.wait())
        .filter(|r| r.verified())
        .count();
    assert_eq!(verified, admitted, "every admitted job must verify");
    server.shutdown();
    record.push("stress burst size", "jobs", None, burst as f64);
    record.push("stress admitted", "jobs", None, admitted as f64);
    record.push(
        "stress rejected (queue full)",
        "jobs",
        None,
        rejected as f64,
    );
}

fn determinism(record: &mut ExperimentRecord) {
    let probe = || server_job("solo", 424_242, EDGES);

    let quiet = JobServer::start(ServerConfig::default());
    let solo = quiet.submit(probe()).expect_admitted().wait();
    quiet.shutdown();

    let busy = JobServer::start(ServerConfig {
        slots: 4,
        queue_depth: 64,
        compute_threads: 2,
        ..ServerConfig::default()
    });
    let mut noise = Vec::new();
    for i in 0..15 {
        noise.push(
            busy.submit(server_job("acme", i + 1, EDGES))
                .expect_admitted(),
        );
    }
    let co_tenant = busy.submit(probe()).expect_admitted().wait();
    for i in 0..15 {
        noise.push(
            busy.submit(server_job("beta", i + 100, EDGES))
                .expect_admitted(),
        );
    }
    for h in noise {
        assert!(h.wait().verified());
    }
    busy.shutdown();

    let solo_outcome = solo.outcome.expect("solo probe runs");
    let co_outcome = co_tenant.outcome.expect("co-tenant probe runs");
    let solo_bytes = serde_json::to_string(&solo_outcome).expect("serialize");
    let co_bytes = serde_json::to_string(&co_outcome).expect("serialize");
    assert_eq!(
        solo_bytes, co_bytes,
        "verdict, transcript digests and outputs must not depend on co-tenants"
    );
    record.push(
        "solo vs co-tenant outcome identical",
        "bool",
        None,
        f64::from(u8::from(solo_bytes == co_bytes)),
    );
}

fn main() {
    let mut record = ExperimentRecord::new(
        "server_load",
        "multi-tenant job server under sustained load",
        &format!(
            "{SUSTAINED_JOBS} follower-analysis jobs ({EDGES} edges each) from three \
             tenants (weights 4:2:1) through a 4-slot server, 64-deep bounded queue, \
             shared 2-thread compute pool; latencies are exact per-tenant quantiles \
             over every completed job. Stress profile: 32-job burst at 1 slot behind \
             a 4-deep queue with no retries. Wall-clock rows are host-dependent."
        ),
    );
    record.set_flag("wall_clock", true);
    sustained(&mut record);
    stress(&mut record);
    determinism(&mut record);
    record.finish();
}
