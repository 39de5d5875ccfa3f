//! The traced run: the workload's path replayed in-process with a span
//! around every call into a layer, plus stand-alone probes of each layer
//! on the workload's own records. Gives the per-layer metrics; the
//! end-to-end run never executes any of this.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::child::Binaries;
use crate::e2e;
use crate::hostref;
use crate::metrics::{per_layer_zeroed, set, Metrics};
use crate::record::Measured;
use crate::report;
use crate::spans::Spans;
use crate::stats::{fastest, median, percentile, sort};
use crate::sut::{self, Counters, RunFacts, ServerJob};
use crate::workloads::{check_rows, Job, Kind, Prepared, Workload};

/// Records the kernel and digest probes run over (a prefix of the input).
const PROBE_RECORDS: usize = 200_000;

/// Times the in-process path is run, opaque and staged alternating.
const ROUNDS: usize = 3;

/// The result of one traced run; `attempted` counts the in-process and
/// child executions whose output was checked.
pub struct TracedRun {
    pub measured: Measured,
    pub spans: Spans,
}

struct Ctx {
    /// Probe budgets are stated for a full-length run and shrink with
    /// `--seconds`, so that the smoke mode stays a smoke mode.
    budget_scale: f64,
    m: Metrics,
    sp: Spans,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Ctx {
    /// `attempted` operations that stand or fall together.
    fn check(&mut self, attempted: u64, verdict: Result<(), String>) {
        let failed = if verdict.is_err() { attempted } else { 0 };
        self.count(attempted, failed, verdict.err());
    }

    fn count(&mut self, attempted: u64, failed: u64, why: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let (None, Some(why)) = (&self.first_failure, why) {
            self.first_failure = Some(why);
        }
    }

    /// One checked operation that either held or did not.
    fn expect(&mut self, held: bool, otherwise: &str) {
        self.check(1, held.then_some(()).ok_or_else(|| otherwise.to_owned()));
    }

    fn set(&mut self, name: &str, value: f64) {
        set(&mut self.m, name, value);
    }

    /// Median seconds per call of `f`, each call in its own span: at
    /// least three calls, then more until `budget_s` is spent or fifty
    /// are made.
    fn bench<T>(&mut self, name: &'static str, budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
        let budget_s = budget_s * self.budget_scale;
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3
            || (samples.len() < 50 && started.elapsed().as_secs_f64() < budget_s)
        {
            samples.push(self.sp.time(name, &mut f).1);
        }
        median(&samples)
    }

    /// Median seconds of `run`, for calls that consume a freshly prepared
    /// input and may take a second each: one call is enough once it has
    /// spent the budget; small inputs get up to fifty. Only `run` is
    /// inside the span. Returns the last result too.
    fn bench_prepared<P, R>(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut() -> Result<P, String>,
        mut run: impl FnMut(P) -> Result<R, String>,
    ) -> Result<(R, f64), String> {
        let started = Instant::now();
        let mut samples = Vec::new();
        loop {
            let input = prepare()?;
            let (result, s) = self.sp.time(name, || run(input));
            let result = result?;
            samples.push(s);
            if samples.len() >= 50 || started.elapsed().as_secs_f64() >= 0.1 * self.budget_scale {
                return Ok((result, median(&samples)));
            }
        }
    }
}

/// Rows an in-process execution produced, against the job's oracle.
fn check_facts(facts: &RunFacts, job: &Job) -> Result<(), String> {
    if !facts.verified {
        return Err("in-process run did not verify".to_owned());
    }
    check_rows(&job.reference, &facts.rows)
}

fn mrec_per_s(records: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        records as f64 / 1e6 / seconds
    } else {
        0.0
    }
}

fn set_counters(cx: &mut Ctx, c: &Counters, input_records: usize) {
    cx.set("mapreduce.records_cloned", c.records_cloned as f64);
    cx.set("mapreduce.bytes_encoded", c.bytes_encoded as f64);
    cx.set(
        "mapreduce.digest_bytes_hashed",
        c.digest_bytes_hashed as f64,
    );
    cx.set("mapreduce.tasks_dispatched", c.tasks_dispatched as f64);
    cx.set("mapreduce.tasks_stolen", c.tasks_stolen as f64);
    cx.set("mapreduce.pool_queue_peak", c.pool_queue_peak as f64);
    cx.set(
        "mapreduce.clones_per_input_record",
        c.records_cloned as f64 / input_records.max(1) as f64,
    );
}

fn set_run_facts(cx: &mut Ctx, runs: &[&RunFacts]) {
    let sum = |f: fn(&RunFacts) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    cx.set("core.replicas_run", sum(|r| r.replicas_run as f64));
    cx.set("core.rounds", sum(|r| r.rounds as f64));
    cx.set("core.digest_reports", sum(|r| r.digest_reports as f64));
    cx.set("core.spotcheck_sampled", sum(|r| r.spot_sampled as f64));
    cx.set(
        "core.spotcheck_reexecuted",
        sum(|r| r.spot_reexecuted as f64),
    );
    cx.set("core.spotcheck_records", sum(|r| r.spot_records as f64));
    cx.set("core.sim_latency_s", sum(|r| r.sim_latency_s));
}

/// Stand-alone probes of each layer on one job's own records.
fn probe_layers(
    cx: &mut Ctx,
    job: &Job,
    config: &sut::ExecutorConfig,
    run_transcript: &[sut::StreamedReport],
    jobs_in_run: usize,
) -> Result<(), String> {
    let script = job.data.script();
    let input = job.data.input_name();
    let n = job.records.len();

    // dataflow: per-job front end, the reference interpreter, kernels.
    let mut mr_jobs = Ok(0);
    let compile_s = cx.bench("dataflow.parse_plan_compile", 0.05, || {
        mr_jobs = sut::parse_plan_compile(script, input, n as u64)
    });
    cx.set("dataflow.parse_plan_compile_us", compile_s * 1e6);
    cx.set("dataflow.mr_jobs", mr_jobs? as f64);
    let ((again, _), interpret_s) = cx.bench_prepared(
        "dataflow.interpret",
        || Ok(job.records.clone()),
        |records| sut::reference(script, input, records),
    )?;
    cx.set("dataflow.interpret_s", interpret_s);
    cx.expect(
        again == job.reference,
        "the reference interpreter does not repeat itself",
    );

    let rows = &job.records[..n.min(PROBE_RECORDS)];
    let batch = sut::batch_from_records(rows)?;
    let kernels: [(&str, &'static str, &mut dyn FnMut() -> usize); 7] = [
        (
            "dataflow.batch_from_records_mrec_per_s",
            "dataflow.batch_from_records",
            &mut || sut::batch_from_records(rows).map_or(0, |b| b.len()),
        ),
        (
            "dataflow.batch_to_records_mrec_per_s",
            "dataflow.batch_to_records",
            &mut || sut::batch_to_records(&batch),
        ),
        (
            "dataflow.group_rows_mrec_per_s",
            "dataflow.group_rows",
            &mut || sut::group_rows(rows),
        ),
        (
            "dataflow.group_batch_mrec_per_s",
            "dataflow.group_batch",
            &mut || sut::group_batch(&batch),
        ),
        (
            "dataflow.order_rows_mrec_per_s",
            "dataflow.order_rows",
            &mut || sut::order_rows(rows),
        ),
        (
            "dataflow.order_batch_mrec_per_s",
            "dataflow.order_batch",
            &mut || sut::order_batch(&batch),
        ),
        (
            "dataflow.filter_batch_mrec_per_s",
            "dataflow.filter_batch",
            &mut || sut::filter_batch(&batch),
        ),
    ];
    for (metric, span, kernel) in kernels {
        let s = cx.bench(span, 0.1, kernel);
        cx.set(metric, mrec_per_s(rows.len(), s));
    }

    // digest: raw hashing, both planes' record streams, Merkle build.
    cx.set(
        "digest.hardware_accelerated",
        f64::from(u8::from(sut::hardware_accelerated())),
    );
    let buffer = vec![0xa5u8; 8 << 20];
    let sha_s = cx.bench("digest.sha256", 0.1, || sut::sha256(&buffer));
    cx.set("digest.sha256_mb_per_s", buffer.len() as f64 / 1e6 / sha_s);
    let granularity = config.digest_granularity;
    let row_summary = sut::digest_row_stream(rows, granularity);
    let batch_summary = sut::digest_batch_stream(&batch, granularity);
    cx.expect(
        row_summary == batch_summary,
        "row and batch digest streams differ",
    );
    let s = cx.bench("digest.row_stream", 0.1, || {
        sut::digest_row_stream(rows, granularity)
    });
    cx.set("digest.row_stream_mrec_per_s", mrec_per_s(rows.len(), s));
    let s = cx.bench("digest.batch_stream", 0.1, || {
        sut::digest_batch_stream(&batch, granularity)
    });
    cx.set("digest.batch_stream_mrec_per_s", mrec_per_s(rows.len(), s));
    // As many leaves as a granularity-256 digest of the probe rows has.
    let leaves = sut::merkle_leaves((rows.len() / 256).max(2));
    let s = cx.bench("digest.merkle_build", 0.05, || {
        sut::merkle_build(leaves.clone())
    });
    cx.set("digest.merkle_build_us", s * 1e6);

    // sim: the event queue every heartbeat and task completion crosses.
    let mut ops = 0;
    let s = cx.bench("sim.event_queue", 0.1, || {
        ops = sut::event_queue_churn(100_000)
    });
    cx.set("sim.event_queue_mops", ops as f64 / 1e6 / s);

    // mapreduce: one job on one cluster, no verification at all.
    let shared: Arc<[sut::Record]> = job.records.clone().into();
    let single = |cx: &mut Ctx, span, script: &str, batch_records| -> Result<f64, String> {
        cx.bench_prepared(
            span,
            || sut::single_job(script, input, Arc::clone(&shared), config, batch_records),
            sut::SingleJob::run,
        )
        .map(|(_, s)| s)
    };
    let columnar = sut::columnar_batch_records(config);
    let single_s = single(cx, "mapreduce.single_job", script, columnar)?;
    let rows_s = single(cx, "mapreduce.single_job_rows", script, 0)?;
    let map_only_s = single(
        cx,
        "mapreduce.map_only",
        &sut::map_only_script(job.data),
        columnar,
    )?;
    cx.set("mapreduce.single_job_s", single_s);
    cx.set("mapreduce.single_job_rows_s", rows_s);
    cx.set("mapreduce.map_only_s", map_only_s);
    // Base: single_job_s of the same records; negative when the script's
    // first job is cheaper than a map-only pass (it never is here).
    cx.set("mapreduce.shuffle_reduce_s", single_s - map_only_s);
    let (ns, _) = cx
        .sp
        .time("mapreduce.pool_dispatch", || sut::pool_dispatch_ns(6400));
    cx.set("mapreduce.pool_dispatch_ns", ns);

    // core: one replica, no fault tolerance, one thread.
    let replica = |cx: &mut Ctx, span, batch_records| -> Result<(RunFacts, f64), String> {
        let (facts, s) = cx.bench_prepared(
            span,
            || sut::replica_executor(config, input, job.records.clone(), batch_records),
            |exec| sut::run_script(&exec, script),
        )?;
        cx.check(1, check_facts(&facts, job));
        Ok((facts, s))
    };
    let (replica_facts, replica_s) = replica(cx, "core.replica", columnar)?;
    let (_, replica_rows_s) = replica(cx, "core.replica_rows", 0)?;
    cx.set("core.replica_s", replica_s);
    cx.set("core.replica_rows_s", replica_rows_s);
    cx.set("core.vs_reference_x", replica_s / interpret_s);
    // Per verified script: the daemon's core.run_s sums over its jobs.
    let run_s = cx.m["core.run_s"].value / jobs_in_run as f64;
    cx.set("core.replication_tax_x", run_s / replica_s);
    // The workload's own transcript when its path streams one, else the
    // single replica's.
    let (transcript, f, replicas) = if run_transcript.is_empty() {
        (&replica_facts.transcript[..], 0, 1)
    } else {
        (
            run_transcript,
            config.expected_failures,
            3 * config.expected_failures + 1,
        )
    };
    let s = cx.bench("core.verifier_ingest", 0.02, || {
        sut::verifier_ingest(transcript, f, replicas)
    });
    cx.set("core.verifier_ingest_us", s * 1e6);
    Ok(())
}

/// `cbft` with an extra observability flag against plain `cbft`, four
/// interleaved rounds; the share of plain's fastest run the flag costs.
fn observability_overhead(
    cx: &mut Ctx,
    w: &Workload,
    prepared: &Prepared,
    scratch: &Path,
) -> Result<(), String> {
    let with = |flag: &str, file: &str| {
        let mut command = prepared.command.clone();
        command.extend([
            flag.to_owned(),
            scratch.join(file).to_string_lossy().into_owned(),
        ]);
        command
    };
    let traced = with("--trace", "capture.json");
    let metered = with("--metrics-json", "metrics.json");
    let (mut plain_s, mut trace_s, mut metrics_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..4 {
        let rep = e2e::repetition(w, prepared, &[], scratch)?;
        plain_s.push(rep.child.wall_s);
        cx.check(1, rep.why_failed.map_or(Ok(()), Err));
        for (command, samples) in [(&traced, &mut trace_s), (&metered, &mut metrics_s)] {
            let child =
                crate::child::run(command, scratch).map_err(|e| format!("cannot run cbft: {e}"))?;
            cx.check(
                1,
                crate::workloads::check_cbft(&child, &prepared.jobs[0], false),
            );
            samples.push(child.wall_s);
        }
    }
    let base = fastest(&plain_s);
    cx.set(
        "trace.capture_overhead_share",
        fastest(&trace_s) / base - 1.0,
    );
    cx.set(
        "metrics.enabled_overhead_share",
        fastest(&metrics_s) / base - 1.0,
    );
    Ok(())
}

fn one_shot(
    cx: &mut Ctx,
    w: &Workload,
    prepared: &Prepared,
    scratch: &Path,
    measures_observability: bool,
) -> Result<(), String> {
    let job = &prepared.jobs[0];
    let args = &prepared.command[1..];
    let opts = sut::parse_cbft_args(args)?;
    let config = sut::executor_config(&opts);

    // One untimed call lets the page cache fill and the heap grow. Then
    // the real entry point as one opaque call and the same path stage by
    // stage, alternating; every figure is the fastest of the rounds, for
    // the reason the end-to-end run reports its fastest repetition.
    cx.sp.time("cli.run_warmup", || sut::cli_run(&opts)).0?;
    let mut inproc = Vec::new();
    let mut staged_total = Vec::new();
    let mut staged_covered = Vec::new();
    let mut stages: Vec<(&str, Vec<f64>)> = [
        "cli.read_parse",
        "cli.render",
        "core.load_input",
        "core.run",
    ]
    .map(|name| (name, Vec::new()))
    .into();
    let mut last_run = None;
    for _ in 0..ROUNDS {
        let (report, s) = cx.sp.time("cli.run", || sut::cli_run(&opts));
        inproc.push(s);
        let parsed = report::parse_cbft(&report?);
        cx.check(
            1,
            if parsed.verified {
                check_rows(&job.reference, &parsed.outputs)
            } else {
                Err("cli::run did not verify".to_owned())
            },
        );
        let (facts, counters) = sut::counting(|| sut::cli_run_staged(&opts, &mut cx.sp));
        let facts = facts?;
        cx.check(1, check_facts(&facts, job));
        let root = cx
            .sp
            .last("cli.run_staged")
            .expect("staged run opened its root span");
        staged_total.push(cx.sp.seconds(root));
        staged_covered.push(cx.sp.children_seconds(root));
        for (name, samples) in &mut stages {
            samples.push(cx.sp.child_seconds(root, name));
        }
        last_run = Some((facts, counters));
    }
    let (facts, counters) = last_run.expect("ROUNDS is positive");
    let run_inproc_s = fastest(&inproc);
    let stage = |name: &str| fastest(&stages.iter().find(|(n, _)| *n == name).expect("listed").1);
    cx.set("cli.read_parse_s", stage("cli.read_parse"));
    cx.set(
        "cli.parse_mrec_per_s",
        mrec_per_s(prepared.input_records, stage("cli.read_parse")),
    );
    cx.set("cli.render_s", stage("cli.render"));
    cx.set("cli.run_inproc_s", run_inproc_s);
    cx.set(
        "cli.unattributed_s",
        run_inproc_s - fastest(&staged_covered),
    );
    cx.set(
        "perf.trace_overhead_share",
        fastest(&staged_total) / run_inproc_s - 1.0,
    );
    cx.set("core.load_input_s", stage("core.load_input"));
    cx.set("core.run_s", stage("core.run"));
    set_counters(cx, &counters, prepared.input_records);
    set_run_facts(cx, &[&facts]);

    // The child process, for what it adds around cli::run.
    let mut child_s = Vec::new();
    for _ in 0..ROUNDS {
        let rep = e2e::repetition(w, prepared, &[], scratch)?;
        child_s.push(rep.child.wall_s);
        cx.check(1, rep.why_failed.map_or(Ok(()), Err));
    }
    cx.set("perf.child_verified_s", fastest(&child_s));
    cx.set("cli.process_overhead_s", fastest(&child_s) - run_inproc_s);

    probe_layers(cx, job, &config, &facts.transcript, 1)?;
    if measures_observability {
        observability_overhead(cx, w, prepared, scratch)?;
    }
    Ok(())
}

fn daemon(
    cx: &mut Ctx,
    w: &Workload,
    prepared: &Prepared,
    bins: &Binaries,
    scratch: &Path,
    seconds: f64,
) -> Result<(), String> {
    let opts = sut::parse_cbftd_args(&prepared.command[1..])?;
    let jobs = prepared.jobs.len();

    // The real entry point, opaque, after one untimed drain.
    cx.sp.time("cli.run_warmup", || sut::daemon_run(&opts)).0?;
    let (report, run_inproc_s) = cx.sp.time("cli.run", || sut::daemon_run(&opts));
    let parsed = report::parse_cbftd(&report?);
    let verified = parsed.jobs.iter().filter(|j| j.verified).count();
    cx.check(
        jobs as u64,
        (verified == jobs)
            .then_some(())
            .ok_or_else(|| format!("{verified}/{jobs} jobs verified in-process")),
    );
    cx.set("cli.run_inproc_s", run_inproc_s);
    // run_daemon is one call: nothing inside it is attributed from here.
    cx.set("cli.unattributed_s", run_inproc_s);

    // The same drain through the server's public API, where each job's
    // rows can be checked against the oracle.
    let server_jobs: Vec<ServerJob> = prepared
        .jobs
        .iter()
        .map(|job| ServerJob {
            tenant: job.tenant.to_owned(),
            script: job.data.script().to_owned(),
            input_name: job.data.input_name().to_owned(),
            records: job.records.clone(),
            config: sut::daemon_job_config(&opts, job.sim_seed),
        })
        .collect();
    let (((results, _), counters), _) = cx.sp.time("server.drain", || {
        sut::counting(|| sut::server_drain(&opts, &server_jobs))
    });
    for (result, job) in results.iter().zip(&prepared.jobs) {
        let verdict = match &result.facts {
            Some(facts) => check_facts(facts, job),
            None => Err("job produced no outcome".to_owned()),
        };
        cx.check(1, verdict);
    }
    let facts: Vec<&RunFacts> = results.iter().filter_map(|r| r.facts.as_ref()).collect();
    set_run_facts(cx, &facts);
    set_counters(cx, &counters, prepared.input_records);
    // Executor busy time summed over jobs (two slots run side by side).
    cx.set(
        "core.run_s",
        results.iter().map(|r| r.exec_us as f64).sum::<f64>() / 1e6,
    );

    // Child drains for a quarter of the run: the lines cbftd prints.
    let wrong_rows = e2e::wrong_daemon_rows(w, prepared, bins, scratch)?;
    let (mut exec_ms, mut queue_ms, mut retries, mut wall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while wall.is_empty() || started.elapsed().as_secs_f64() < seconds / 4.0 {
        let rep = e2e::repetition(w, prepared, &wrong_rows, scratch)?;
        cx.count(rep.attempted, rep.failed, rep.why_failed);
        let parsed = rep.daemon.expect("daemon repetition carries its report");
        exec_ms.extend(parsed.jobs.iter().map(|j| j.exec_ms));
        queue_ms.extend(parsed.jobs.iter().map(|j| j.queue_ms));
        retries.push(parsed.queue_full_retries as f64);
        wall.push(rep.child.wall_s);
    }
    sort(&mut exec_ms);
    sort(&mut queue_ms);
    cx.set("server.job_exec_ms_p50", percentile(&exec_ms, 50.0));
    cx.set("server.job_exec_ms_p95", percentile(&exec_ms, 95.0));
    cx.set("server.queue_ms_p50", percentile(&queue_ms, 50.0));
    cx.set("server.queue_ms_p95", percentile(&queue_ms, 95.0));
    cx.set("server.queue_full_retries", median(&retries));
    cx.set("perf.child_verified_s", fastest(&wall));
    cx.set("cli.process_overhead_s", fastest(&wall) - run_inproc_s);

    // The floor under every job: a one-record job on an idle server.
    let mut tiny = server_jobs[0].clone();
    tiny.records.truncate(1);
    let tiny = [tiny];
    let mut floor_ms = Vec::new();
    for _ in 0..20 {
        let ((results, _), _) = cx
            .sp
            .time("server.min_job", || sut::server_drain(&opts, &tiny));
        floor_ms.push(results[0].exec_us as f64 / 1e3);
    }
    cx.set("server.min_job_ms", median(&floor_ms));
    let (ns, _) = cx
        .sp
        .time("server.fairqueue", || sut::fairqueue_push_pop_ns(48_000));
    cx.set("server.fairqueue_push_pop_ns", ns);

    // Open loop at two fixed rates; latency counts from the due time.
    let each = (seconds / 5.0).max(0.5);
    let (mut submitted, mut rejected) = (0, 0);
    for (rate, prefix) in [(60.0, "server.open_r60"), (90.0, "server.open_r90")] {
        let (mut open, _) = cx.sp.time("server.open_loop", || {
            sut::server_open_loop(&opts, &server_jobs, rate, each)
        });
        sort(&mut open.latency_ms);
        cx.set(
            &format!("{prefix}_latency_ms_p50"),
            percentile(&open.latency_ms, 50.0),
        );
        cx.set(
            &format!("{prefix}_latency_ms_p95"),
            percentile(&open.latency_ms, 95.0),
        );
        if rate == 60.0 {
            cx.set("server.open_r60_gen_late_ms_max", open.gen_late_ms_max);
        } else {
            cx.set("server.open_r90_backlog_end", open.backlog_end as f64);
        }
        submitted += open.submitted;
        rejected += open.rejected;
    }
    cx.set(
        "server.open_rejected_share",
        rejected as f64 / submitted.max(1) as f64,
    );

    let first = &prepared.jobs[0];
    probe_layers(
        cx,
        first,
        &sut::daemon_job_config(&opts, first.sim_seed),
        &[],
        jobs,
    )
}

/// Runs the traced replay of `w` and every layer probe.
pub fn run(
    w: &Workload,
    prepared: &Prepared,
    bins: &Binaries,
    scratch: &Path,
    seconds: f64,
) -> Result<TracedRun, String> {
    // Not used to scale anything here: it dates the per-layer figures,
    // which are as measured, against the host's speed at the time.
    let mut reference = Vec::new();
    for _ in 0..3 {
        reference.push(hostref::measure()?);
    }
    let host_ref_s = fastest(&reference);
    let mut cx = Ctx {
        budget_scale: (seconds / crate::metrics::RUN_SECONDS as f64).min(1.0),
        m: per_layer_zeroed(),
        sp: Spans::new(w.name),
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    match w.kind {
        Kind::OneShot {
            measures_observability,
            ..
        } => one_shot(&mut cx, w, prepared, scratch, measures_observability)?,
        Kind::Daemon { .. } => daemon(&mut cx, w, prepared, bins, scratch, seconds)?,
    }
    let share = cx.failed as f64 / cx.attempted.max(1) as f64;
    cx.set("perf.failed_share", share);
    cx.set("perf.host_ref_s", host_ref_s);
    Ok(TracedRun {
        measured: Measured {
            metrics: cx.m,
            attempted: cx.attempted,
            failed: cx.failed,
            n: 0,
            first_failure: cx.first_failure,
            host_ref_s,
        },
        spans: cx.sp,
    })
}
