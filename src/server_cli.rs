//! Argument parsing and driver logic for the `cbftd` job-server daemon.
//!
//! Kept in the library (like [`crate::cli`]) so the parsing rules and the
//! whole submit→drain→report path are unit-testable without spawning a
//! process. No external argument-parsing dependency.
//!
//! `cbftd` reads a **stream of job submissions** — one per line, from a
//! file or stdin — admits them through the server's bounded weighted-fair
//! queue (retrying politely when the queue pushes back), waits for every
//! admitted job, and prints one result line per job plus a per-tenant
//! summary.
//!
//! Job line grammar (whitespace-separated; `#` starts a comment):
//!
//! ```text
//! TENANT SEED SCRIPT.pig [NAME=FILE ...] [fault:N:SPEC ...]
//! ```
//!
//! `fault:` tokens inject per-job replica faults (same specs as the
//! single-run CLI's `--fault`), so chaos jobs ride through the server
//! like healthy ones — and trip the anomaly detector.

use std::error::Error;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::cli::{
    checked_fault_bound, executor_config, parse_num, parse_replication, positive, read_script,
    CliOptions, Observability, OutputRender, ReportFlags, UsageError,
};
use crate::core::{ExecutorConfig, Replication};
use crate::flight::{self, Anomaly, AnomalyKind, BundleSpec, RejectionBurstDetector};
use crate::metrics::{json_snapshot, Metrics};
use crate::server::{
    InputLoad, JobError, JobResult, JobServer, JobSpec, RejectReason, ServerConfig, SubmitOutcome,
};
use crate::trace::{ArgValue, TraceEvent};

/// Parsed command-line options for one `cbftd` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonOptions {
    /// Path of the jobs file; `None` reads submissions from stdin.
    pub jobs: Option<String>,
    /// Concurrent execution slots.
    pub slots: usize,
    /// Bounded admission-queue depth.
    pub queue_depth: usize,
    /// Threads in the compute pool shared by every job.
    pub compute_threads: usize,
    /// Fair-share weight for tenants without an explicit `--weight`.
    pub default_weight: u64,
    /// Per-tenant fair-share weights (`--weight TENANT=W`).
    pub weights: Vec<(String, u64)>,
    /// Per-tenant in-flight job quotas (`--max-inflight TENANT=N`).
    pub max_inflight: Vec<(String, usize)>,
    /// Replica worker threads per job.
    pub threads: usize,
    /// Fault bound `f` per job.
    pub f: usize,
    /// Initial replication degree per job.
    pub replication: Replication,
    /// Marker-chosen verification points per job.
    pub points: u32,
    /// Records per digest chunk.
    pub granularity: usize,
    /// The task data plane (`None` = engine default, columnar; `0` = row
    /// plane; any other value = columnar plane).
    pub batch_size: Option<usize>,
    /// Nodes in each replica's isolated cluster.
    pub nodes: usize,
    /// Task slots per simulated node.
    pub slots_per_node: usize,
    /// Write a Prometheus text-exposition metrics dump here.
    pub metrics: Option<String>,
    /// Write a JSON metrics snapshot here.
    pub metrics_json: Option<String>,
    /// Append the health report (with its job-server section) to the
    /// run report.
    pub health_report: bool,
    /// Write a Chrome-trace-format JSON trace of every job here. Jobs
    /// record through per-job scoped sinks, so co-tenant tracks never
    /// interleave.
    pub trace: Option<String>,
    /// Print the aggregated trace summary after the per-tenant report.
    pub trace_summary: bool,
    /// Write per-job forensic bundles here when anomalies fire.
    pub flight_dir: Option<String>,
    /// Append wall-clock metrics snapshots to this JSONL series while
    /// the server runs (one JSON object per line, `t_us` since start).
    pub snapshot_series: Option<String>,
    /// Seconds between snapshot-series appends.
    pub snapshot_interval: u64,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            jobs: None,
            slots: 2,
            queue_depth: 64,
            compute_threads: 1,
            default_weight: 1,
            weights: Vec::new(),
            max_inflight: Vec::new(),
            threads: 2,
            f: 1,
            replication: Replication::Optimistic,
            points: 2,
            granularity: usize::MAX,
            batch_size: None,
            nodes: 8,
            slots_per_node: 3,
            metrics: None,
            metrics_json: None,
            health_report: false,
            trace: None,
            trace_summary: false,
            flight_dir: None,
            snapshot_series: None,
            snapshot_interval: 1,
        }
    }
}

/// The usage text for `cbftd --help`.
pub const DAEMON_USAGE: &str = "\
cbftd — multi-tenant ClusterBFT job server: admit a stream of jobs through a
bounded weighted-fair queue and run them concurrently with per-job verification

USAGE:
    cbftd [JOBS_FILE] [OPTIONS]        (no JOBS_FILE: read job lines from stdin)

JOB LINES (one submission per line; '#' starts a comment):
    TENANT SEED SCRIPT.pig [NAME=FILE ...] [fault:N:SPEC ...]
    fault: tokens inject per-job replica faults (--fault specs, e.g.
    fault:0:commission), so chaos jobs ride the queue like healthy ones

OPTIONS:
    --slots N            concurrent execution slots        [default: 2]
    --queue-depth N      bounded admission queue depth     [default: 64]
    --compute-threads N  compute pool shared by all jobs;
                         0 = one thread per host core      [default: 1]
    --weight TENANT=W    fair-share weight for one tenant  [default: 1]
    --default-weight W   weight for unlisted tenants       [default: 1]
    --max-inflight TENANT=N  cap on a tenant's queued+executing jobs;
                         excess submissions are rejected with an explicit
                         quota error (cbftd retries them politely)
    --threads N          replica worker threads per job    [default: 2]
    --f N                fault bound f per job             [default: 1]
    --replication R      optimistic | quorum | full | an integer ≥ 1
                                                           [default: optimistic]
    --points N           marker-chosen verification points [default: 2]
    --granularity D      records per digest chunk (≥ 1)    [default: whole stream]
    --batch-size N       data plane: 0 = row path, other = columnar
    --nodes N            nodes per replica cluster (≥ 1)   [default: 8]
    --node-slots N       task slots per node (≥ 1)         [default: 3]
    --metrics FILE       write Prometheus metrics (server series included)
    --metrics-json FILE  write the JSON metrics snapshot
    --health-report      append the health report (job-server section:
                         admitted/rejected counts, queue peak, per-tenant
                         latency quantiles)
    --trace FILE         write a Chrome-trace JSON of every job (per-job
                         scoped tracks; load in Perfetto)
    --trace-summary      append the aggregated trace summary; its inputs:
                         line totals what the slots loaded (files,
                         rows, bytes, columnar or rows, wall ms), its
                         outputs: line what the jobs published (outputs,
                         rows, plane; cbftd renders no row)
    --flight-dir DIR     attach the flight recorder and write per-job
                         forensic bundles under DIR when a job trips the
                         anomaly detector (mismatch, escalation, withheld
                         output, lost worker, ...); the recorder keeps four
                         event rings per job served until the drain ends
    --snapshot-series FILE  append wall-clock metrics snapshots to FILE as
                         JSONL while the server runs (plus one final line)
    --snapshot-interval SECS  seconds between appends       [default: 1]

A job's inputs are read when a slot starts it; one that cannot be read
fails that job alone (an ERROR result line naming its jobs line).

Rejections are explicit backpressure: when the queue is full, cbftd waits
briefly and retries the submission, counting every rejection it absorbed.
A sustained rejection streak is itself an anomaly (rejection_burst).";

/// Parses `cbftd` command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the offending argument; zero
/// values are rejected here, at parse time, for every flag whose zero
/// would only surface later as an engine panic.
pub fn parse_daemon_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<DaemonOptions, UsageError> {
    let mut opts = DaemonOptions::default();
    let mut it = args.into_iter();
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .ok_or_else(|| UsageError(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slots" => {
                opts.slots = positive(parse_num(&need(&mut it, "--slots")?, "--slots")?, "--slots")?
            }
            "--queue-depth" => {
                opts.queue_depth = positive(
                    parse_num(&need(&mut it, "--queue-depth")?, "--queue-depth")?,
                    "--queue-depth",
                )?
            }
            "--compute-threads" => {
                opts.compute_threads =
                    parse_num(&need(&mut it, "--compute-threads")?, "--compute-threads")?
            }
            "--default-weight" => {
                opts.default_weight = positive(
                    parse_num::<usize>(&need(&mut it, "--default-weight")?, "--default-weight")?,
                    "--default-weight",
                )? as u64
            }
            "--weight" => {
                let v = need(&mut it, "--weight")?;
                let (tenant, w) = v
                    .split_once('=')
                    .ok_or_else(|| UsageError(format!("--weight wants TENANT=W, got '{v}'")))?;
                let w = positive(parse_num::<usize>(w, "--weight")?, "--weight")? as u64;
                opts.weights.push((tenant.to_owned(), w));
            }
            "--max-inflight" => {
                let v = need(&mut it, "--max-inflight")?;
                let (tenant, n) = v.split_once('=').ok_or_else(|| {
                    UsageError(format!("--max-inflight wants TENANT=N, got '{v}'"))
                })?;
                // A zero quota would make the polite retry loop below spin
                // forever; reject it at parse time.
                let n = positive(parse_num(n, "--max-inflight")?, "--max-inflight")?;
                opts.max_inflight.push((tenant.to_owned(), n));
            }
            "--threads" => {
                opts.threads = positive(
                    parse_num(&need(&mut it, "--threads")?, "--threads")?,
                    "--threads",
                )?
            }
            "--f" => opts.f = checked_fault_bound(&need(&mut it, "--f")?)?,
            "--replication" => {
                opts.replication = parse_replication(&need(&mut it, "--replication")?)?
            }
            "--points" => opts.points = parse_num(&need(&mut it, "--points")?, "--points")?,
            "--granularity" => {
                opts.granularity = positive(
                    parse_num(&need(&mut it, "--granularity")?, "--granularity")?,
                    "--granularity",
                )?
            }
            "--batch-size" => {
                opts.batch_size = Some(crate::cli::checked_batch_size(&need(
                    &mut it,
                    "--batch-size",
                )?)?)
            }
            "--nodes" => {
                opts.nodes = positive(parse_num(&need(&mut it, "--nodes")?, "--nodes")?, "--nodes")?
            }
            "--node-slots" => {
                opts.slots_per_node = positive(
                    parse_num(&need(&mut it, "--node-slots")?, "--node-slots")?,
                    "--node-slots",
                )?
            }
            "--metrics" => opts.metrics = Some(need(&mut it, "--metrics")?),
            "--metrics-json" => opts.metrics_json = Some(need(&mut it, "--metrics-json")?),
            "--health-report" => opts.health_report = true,
            "--trace" => opts.trace = Some(need(&mut it, "--trace")?),
            "--trace-summary" => opts.trace_summary = true,
            "--flight-dir" => opts.flight_dir = Some(need(&mut it, "--flight-dir")?),
            "--snapshot-series" => opts.snapshot_series = Some(need(&mut it, "--snapshot-series")?),
            "--snapshot-interval" => {
                opts.snapshot_interval = positive(
                    parse_num(
                        &need(&mut it, "--snapshot-interval")?,
                        "--snapshot-interval",
                    )?,
                    "--snapshot-interval",
                )? as u64
            }
            "--help" | "-h" => return Err(UsageError(DAEMON_USAGE.to_owned())),
            other if !other.starts_with('-') && opts.jobs.is_none() => {
                opts.jobs = Some(other.to_owned());
            }
            other => return Err(UsageError(format!("unknown argument '{other}'"))),
        }
    }
    Ok(opts)
}

/// Per admitted job, by admission id: its jobs-file line number, the
/// parsed line and, under `--flight-dir`, the script text — what a
/// result line and a forensic bundle need beyond the [`JobResult`] (which
/// carries the raw input texts the slot parsed).
type JobContexts<'a> = std::collections::BTreeMap<u64, (usize, &'a JobLine, Option<String>)>;

/// One parsed job submission line.
#[derive(Clone, Debug, PartialEq)]
pub struct JobLine {
    /// The submitting tenant.
    pub tenant: String,
    /// The job's simulation seed.
    pub seed: u64,
    /// Path of the script file.
    pub script: String,
    /// Inputs as `name=path` pairs.
    pub inputs: Vec<(String, String)>,
    /// Per-job injected replica faults (`fault:N:SPEC` tokens).
    pub faults: Vec<(usize, crate::core::Behavior)>,
}

/// Parses one `TENANT SEED SCRIPT [NAME=FILE ...] [fault:N:SPEC ...]`
/// submission line. Returns `None` for blank lines and `#` comments.
///
/// # Errors
///
/// Returns a [`UsageError`] naming the malformed token.
pub fn parse_job_line(line: &str) -> Result<Option<JobLine>, UsageError> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let tenant = tokens.next().expect("non-empty line has a token");
    let seed = parse_num(
        tokens
            .next()
            .ok_or_else(|| UsageError(format!("job line '{line}' is missing a seed")))?,
        "job seed",
    )?;
    let script = tokens
        .next()
        .ok_or_else(|| UsageError(format!("job line '{line}' is missing a script path")))?;
    let mut inputs = Vec::new();
    let mut faults = Vec::new();
    for tok in tokens {
        if let Some(spec) = tok.strip_prefix("fault:") {
            faults.push(crate::cli::parse_fault(spec)?);
            continue;
        }
        let (name, path) = tok.split_once('=').ok_or_else(|| {
            UsageError(format!("job input '{tok}' wants NAME=FILE (line '{line}')"))
        })?;
        inputs.push((name.to_owned(), path.to_owned()));
    }
    Ok(Some(JobLine {
        tenant: tenant.to_owned(),
        seed,
        script: script.to_owned(),
        inputs,
        faults,
    }))
}

/// Builds the per-job executor configuration: exactly what the one-shot
/// `cbft` would build for the job's [`job_cli_options`] projection, except
/// that payloads run on the server's shared pool instead of a private one.
fn job_exec(opts: &DaemonOptions, line: &JobLine) -> ExecutorConfig {
    ExecutorConfig {
        compute_threads: 1,
        ..executor_config(&job_cli_options(opts, line))
    }
}

/// Builds one job line's submit-ready [`JobSpec`]: reads the script and
/// names the inputs by path, which the slot that starts the job reads.
///
/// # Errors
///
/// An IO error reading the script carries its path, so a typo in a
/// thousand-line jobs file is findable.
fn load_job(opts: &DaemonOptions, line: &JobLine) -> Result<JobSpec, Box<dyn Error>> {
    let script = read_script(&line.script)?;
    let mut spec = JobSpec::new(&line.tenant, &script).exec(job_exec(opts, line));
    for (name, path) in &line.inputs {
        spec = spec.input_file(name, path);
    }
    for &(uid, behavior) in &line.faults {
        spec = spec.fault(uid, behavior);
    }
    Ok(spec)
}

/// The one-shot `cbft` invocation equivalent to one daemon job, built by
/// projecting the daemon options onto [`CliOptions`] so the repro
/// command renders through the same [`flight::repro_command`] path the
/// single-run CLI uses.
fn job_cli_options(opts: &DaemonOptions, line: &JobLine) -> CliOptions {
    CliOptions {
        script: line.script.clone(),
        inputs: line.inputs.clone(),
        nodes: opts.nodes,
        slots: opts.slots_per_node,
        seed: line.seed,
        f: opts.f,
        replication: opts.replication,
        points: opts.points,
        granularity: opts.granularity,
        batch_size: opts.batch_size,
        threads: Some(opts.threads),
        faults: line.faults.clone(),
        ..CliOptions::default()
    }
}

/// Events a given job recorded into the shared flight recorder. Every
/// event from a server job carries the `job` arg its
/// [`crate::trace::ScopedSink`] stamped on it.
fn job_events(events: &[TraceEvent], id: u64) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| {
            e.args
                .iter()
                .any(|(k, v)| *k == "job" && matches!(v, ArgValue::Uint(j) if *j == id))
        })
        .cloned()
        .collect()
}

/// Directory-name-safe tenant label for bundle paths.
fn sanitize(tenant: &str) -> String {
    tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Consecutive admission rejections that count as a sustained burst. At
/// the daemon's 500µs retry pause this is ~10ms of solid backpressure.
const REJECTION_BURST_THRESHOLD: u64 = 20;

/// A background thread appending wall-clock metrics snapshots to a JSONL
/// series file every `interval` seconds, plus one final line at
/// shutdown. Lines are `{"t_us": N, "snapshot": { ... }}`.
struct SnapshotSeries {
    stop: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<Result<u64, String>>,
}

impl SnapshotSeries {
    fn start(path: &str, interval: u64, metrics: Metrics) -> Result<Self, Box<dyn Error>> {
        use std::io::Write as _;

        // Probe the path eagerly (creating parents) so a bad
        // --snapshot-series fails the invocation, not the thread.
        flight::write_output("--snapshot-series", path, "")?;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open --snapshot-series output '{path}': {e}"))?;
        let (stop, rx) = mpsc::channel::<()>();
        let path = path.to_owned();
        let epoch = Instant::now();
        let thread = std::thread::Builder::new()
            .name("cbftd-snapshots".to_owned())
            .spawn(move || {
                let mut written = 0u64;
                let append = |file: &mut std::fs::File| -> Result<(), String> {
                    let line = format!(
                        "{{\"t_us\": {}, \"snapshot\": {}}}\n",
                        epoch.elapsed().as_micros(),
                        json_snapshot(&metrics.snapshot())
                    );
                    file.write_all(line.as_bytes())
                        .and_then(|()| file.flush())
                        .map_err(|e| {
                            format!("cannot append --snapshot-series output '{path}': {e}")
                        })
                };
                loop {
                    match rx.recv_timeout(Duration::from_secs(interval)) {
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            append(&mut file)?;
                            written += 1;
                        }
                        // Stop requested (or the daemon dropped the
                        // sender): one final snapshot closes the series.
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                            append(&mut file)?;
                            return Ok(written + 1);
                        }
                    }
                }
            })
            .expect("spawn snapshot-series thread");
        Ok(SnapshotSeries { stop, thread })
    }

    /// Stops the thread after its final snapshot; returns lines written.
    fn finish(self) -> Result<u64, Box<dyn Error>> {
        let _ = self.stop.send(());
        self.thread
            .join()
            .expect("snapshot-series thread panicked")
            .map_err(Into::into)
    }
}

/// Executes a parsed `cbftd` invocation: reads the job stream, drives the
/// server, and returns the human-readable report.
///
/// A job's inputs are read by the slot that starts it: an input that
/// cannot be read fails that job alone, whose result line reads
/// `ERROR: cannot read input 'NAME' from 'PATH': … (jobs line N)`, and
/// its co-tenants still run.
///
/// # Errors
///
/// IO errors reading the jobs file or a job's script (each named with its
/// path, a script also with its jobs-file line number), and malformed
/// job lines.
pub fn run_daemon(opts: &DaemonOptions) -> Result<String, Box<dyn Error>> {
    let text = match &opts.jobs {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read jobs file '{path}': {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)?;
            buf
        }
    };
    let mut lines = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        match parse_job_line(raw) {
            Ok(Some(line)) => lines.push((lineno + 1, line)),
            Ok(None) => {}
            Err(e) => return Err(format!("jobs line {}: {e}", lineno + 1).into()),
        }
    }

    // Same handles as the single-run CLI; the snapshot series is one
    // more consumer that needs a live metrics hub.
    let flags = ReportFlags {
        trace: opts.trace.as_deref(),
        trace_summary: opts.trace_summary,
        metrics: opts.metrics.as_deref(),
        metrics_json: opts.metrics_json.as_deref(),
        health_report: opts.health_report,
        flight_dir: opts.flight_dir.as_deref(),
    };
    let obs = Observability::start(flags, opts.snapshot_series.is_some());

    let server = JobServer::start(ServerConfig {
        slots: opts.slots,
        queue_depth: opts.queue_depth,
        compute_threads: opts.compute_threads,
        default_weight: opts.default_weight,
        weights: opts.weights.clone(),
        max_inflight: opts.max_inflight.clone(),
        obs: obs.obs.clone(),
        // Per-job metrics hubs and raw input texts feed the per-job
        // bundle forensics.
        job_forensics: opts.flight_dir.is_some(),
    });

    let series = match &opts.snapshot_series {
        Some(path) => Some(SnapshotSeries::start(
            path,
            opts.snapshot_interval,
            obs.obs.metrics.clone(),
        )?),
        None => None,
    };

    // Submit the whole stream. Queue-full responses are absorbed here
    // with a short pause and a retry — the daemon is the polite client;
    // `load_gen` exercises the impolite one. A sustained rejection
    // streak trips the rejection_burst anomaly.
    let started = Instant::now();
    let mut handles = Vec::with_capacity(lines.len());
    let mut contexts: JobContexts = Default::default();
    let mut backpressure = 0u64;
    let mut quota_waits = 0u64;
    let mut burst = RejectionBurstDetector::new(REJECTION_BURST_THRESHOLD);
    let mut server_anomalies: Vec<Anomaly> = Vec::new();
    for (lineno, line) in &lines {
        let spec = load_job(opts, line).map_err(|e| format!("jobs line {lineno}: {e}"))?;
        let script_text = opts.flight_dir.is_some().then(|| spec.script.clone());
        let handle = loop {
            match server.submit(spec.clone()) {
                SubmitOutcome::Admitted(h) => {
                    burst.admitted();
                    break h;
                }
                SubmitOutcome::Rejected(RejectReason::QueueFull { .. }) => {
                    backpressure += 1;
                    server_anomalies.extend(burst.rejected());
                    std::thread::sleep(Duration::from_micros(500));
                }
                // In-flight quota slots free up as the tenant's earlier
                // jobs finish, so these are also worth waiting out.
                SubmitOutcome::Rejected(RejectReason::QuotaExceeded { .. }) => {
                    quota_waits += 1;
                    server_anomalies.extend(burst.rejected());
                    std::thread::sleep(Duration::from_micros(500));
                }
                SubmitOutcome::Rejected(r @ RejectReason::ShuttingDown) => {
                    return Err(format!("jobs line {lineno}: submission rejected: {r}").into())
                }
            }
        };
        contexts.insert(handle.id, (*lineno, line, script_text));
        handles.push(handle);
    }

    let mut results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let elapsed = started.elapsed();
    server.shutdown();
    results.sort_by_key(|r| r.id);

    let mut out = String::new();
    let mut verified = 0usize;
    let mut failed = 0usize;
    // tenant → (jobs, verified, Σqueue_us, Σexec_us)
    let mut by_tenant: std::collections::BTreeMap<String, (usize, usize, u64, u64)> =
        Default::default();
    let mut loads = InputLoad::default();
    for r in &results {
        for (name, load) in &r.inputs {
            loads.add(name, load);
        }
        let entry = by_tenant.entry(r.tenant.clone()).or_default();
        entry.0 += 1;
        entry.2 += r.queue_us;
        entry.3 += r.exec_us;
        let status = match &r.outcome {
            Ok(o) if o.verified() => {
                verified += 1;
                entry.1 += 1;
                "VERIFIED".to_owned()
            }
            Ok(_) => "NOT VERIFIED".to_owned(),
            Err(e @ JobError::Input(_)) => {
                failed += 1;
                format!("ERROR: {e} (jobs line {})", contexts[&r.id].0)
            }
            Err(e) => {
                failed += 1;
                format!("ERROR: {e}")
            }
        };
        let t = &r.timeline;
        let _ = writeln!(
            out,
            "job {} tenant={} {status} queue_ms={:.2} exec_ms={:.2} total_ms={:.2} \
             timeline admit@{:.2}ms exec@{:.2}ms done@{:.2}ms",
            r.id,
            r.tenant,
            r.queue_us as f64 / 1e3,
            r.exec_us as f64 / 1e3,
            r.total_us as f64 / 1e3,
            t.admitted_us as f64 / 1e3,
            t.dispatched_us as f64 / 1e3,
            t.completed_us as f64 / 1e3,
        );
    }
    let secs = elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "\n{} jobs in {:.2}s ({:.1} jobs/s): {verified} verified, {failed} errored, \
         {backpressure} queue-full retries absorbed, {quota_waits} quota waits",
        results.len(),
        elapsed.as_secs_f64(),
        results.len() as f64 / secs,
    );
    for (tenant, (total, ok, queue_us, exec_us)) in &by_tenant {
        let n = (*total).max(1) as f64;
        let _ = writeln!(
            out,
            "  tenant {tenant}: {ok}/{total} verified \
             (mean queue {:.2} ms, mean exec {:.2} ms)",
            *queue_us as f64 / n / 1e3,
            *exec_us as f64 / n / 1e3,
        );
    }

    finish_flight(&mut out, opts, &results, server_anomalies, &obs, &contexts)?;

    if let Some(series) = series {
        let written = series.finish()?;
        let _ = writeln!(
            out,
            "snapshot series: {written} snapshots -> {}",
            opts.snapshot_series.as_deref().unwrap_or(""),
        );
    }

    // Full snapshot in the health report: the server series are
    // wall-domain.
    // `cbftd` prints verdicts, not rows: its outputs are published as
    // handles and rendered by nobody.
    let mut renders = OutputRender::default();
    for r in &results {
        if let Ok(o) = &r.outcome {
            o.published()
                .values()
                .for_each(|file| renders.add(file, Duration::ZERO));
        }
    }
    obs.finish(
        &mut out,
        true,
        &[loads.line(&format!("{} files", loads.files()))],
        &[renders.line(&format!("{} outputs", renders.files))],
    )?;
    Ok(out)
}

/// Per-job anomaly detection over the daemon's results, forensic-bundle
/// emission, and flight accounting — the server-side mirror of the
/// single-run CLI's flight tail.
fn finish_flight(
    out: &mut String,
    opts: &DaemonOptions,
    results: &[JobResult],
    server_anomalies: Vec<Anomaly>,
    obs: &Observability<'_>,
    contexts: &JobContexts,
) -> Result<(), Box<dyn Error>> {
    obs.count_flight_rings();
    // One drain serves every bundle: each job's events carry the `job`
    // arg its scoped sink stamped.
    let drained = obs.drain_flight();
    let mut anomaly_lines: Vec<String> = Vec::new();
    let mut bundle_lines: Vec<String> = Vec::new();

    obs.count_anomalies(&server_anomalies);
    for a in &server_anomalies {
        anomaly_lines.push(format!("  server {}: {}", a.kind, a.detail));
    }

    for r in results {
        let anomalies = match &r.outcome {
            Ok(o) => flight::detect_parallel_anomalies(o, r.snapshot.as_ref()),
            Err(JobError::WorkerLost) => vec![Anomaly {
                kind: AnomalyKind::WorkerLost,
                detail: "slot worker died before delivering a result".to_owned(),
            }],
            // Exec and input errors (parse failures, unreadable inputs) and
            // cancellations are reported on the result line; they are
            // not integrity anomalies.
            Err(_) => Vec::new(),
        };
        if anomalies.is_empty() {
            continue;
        }
        obs.count_anomalies(&anomalies);
        for a in &anomalies {
            anomaly_lines.push(format!(
                "  job {} ({}) {}: {}",
                r.id, r.tenant, a.kind, a.detail
            ));
        }
        let Some(dir) = &opts.flight_dir else {
            continue;
        };
        let Some((_, line, Some(script))) = contexts.get(&r.id) else {
            continue;
        };
        let spec = BundleSpec {
            anomalies: &anomalies,
            script,
            inputs: &r.input_texts,
            seed: line.seed,
            events: &job_events(&drained, r.id),
            snapshot: r.snapshot.as_ref(),
            repro: flight::repro_command(&job_cli_options(opts, line)),
            context: vec![
                ("mode".to_owned(), "cbftd".to_owned()),
                ("tenant".to_owned(), r.tenant.clone()),
                ("job".to_owned(), r.id.to_string()),
                ("slots".to_owned(), opts.slots.to_string()),
                ("threads".to_owned(), opts.threads.to_string()),
            ],
        };
        let name = format!("job{}-{}-seed{}", r.id, sanitize(&r.tenant), line.seed);
        bundle_lines.push(obs.write_bundle(dir, &name, &spec)?);
    }

    if !anomaly_lines.is_empty() {
        let _ = writeln!(out, "\nanomalies detected:");
        for line in anomaly_lines {
            let _ = writeln!(out, "{line}");
        }
    }
    for line in bundle_lines {
        let _ = writeln!(out, "{line}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<DaemonOptions, UsageError> {
        parse_daemon_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_full_invocation() {
        let opts = parse(&[
            "jobs.txt",
            "--slots",
            "4",
            "--queue-depth",
            "8",
            "--weight",
            "acme=3",
            "--weight",
            "beta=1",
            "--max-inflight",
            "acme=2",
            "--threads",
            "2",
            "--replication",
            "quorum",
            "--metrics",
            "m.prom",
            "--health-report",
        ])
        .unwrap();
        assert_eq!(opts.jobs.as_deref(), Some("jobs.txt"));
        assert_eq!(opts.slots, 4);
        assert_eq!(opts.queue_depth, 8);
        assert_eq!(
            opts.weights,
            vec![("acme".to_owned(), 3), ("beta".to_owned(), 1)]
        );
        assert_eq!(opts.max_inflight, vec![("acme".to_owned(), 2)]);
        assert_eq!(opts.replication, Replication::Quorum);
        assert_eq!(opts.metrics.as_deref(), Some("m.prom"));
        assert!(opts.health_report);
    }

    #[test]
    fn zero_valued_flags_are_rejected_at_parse_time() {
        for (args, needle) in [
            (&["--slots", "0"][..], "--slots must be at least 1"),
            (
                &["--queue-depth", "0"][..],
                "--queue-depth must be at least 1",
            ),
            (&["--threads", "0"][..], "--threads must be at least 1"),
            (
                &["--replication", "0"][..],
                "--replication must be at least 1",
            ),
            (
                &["--granularity", "0"][..],
                "--granularity must be at least 1",
            ),
            (&["--nodes", "0"][..], "--nodes must be at least 1"),
            (
                &["--node-slots", "0"][..],
                "--node-slots must be at least 1",
            ),
            (&["--weight", "a=0"][..], "--weight must be at least 1"),
            (
                &["--max-inflight", "a=0"][..],
                "--max-inflight must be at least 1",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.0.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_fault_bound_whose_replica_count_overflows_is_a_usage_error() {
        assert_eq!(parse(&["--f", "5"]).unwrap().f, 5);
        let first_overflowing = (usize::MAX - 1) / 3 + 1;
        let err = parse(&["--f", &first_overflowing.to_string()]).unwrap_err();
        assert!(
            err.0
                .starts_with(&format!("--f {first_overflowing} is too large")),
            "{err}"
        );
    }

    #[test]
    fn parses_observability_flags() {
        let opts = parse(&[
            "jobs.txt",
            "--trace",
            "t.json",
            "--trace-summary",
            "--flight-dir",
            "flights",
            "--snapshot-series",
            "series.jsonl",
            "--snapshot-interval",
            "5",
        ])
        .unwrap();
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
        assert!(opts.trace_summary);
        assert_eq!(opts.flight_dir.as_deref(), Some("flights"));
        assert_eq!(opts.snapshot_series.as_deref(), Some("series.jsonl"));
        assert_eq!(opts.snapshot_interval, 5);

        let err = parse(&["--snapshot-interval", "0"]).unwrap_err();
        assert!(
            err.0.contains("--snapshot-interval must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn job_line_fault_tokens_parse() {
        use crate::core::Behavior;

        let line =
            parse_job_line("acme 7 s.pig edges=e.csv fault:0:commission fault:1:omission:0.5")
                .unwrap()
                .unwrap();
        assert_eq!(line.inputs, vec![("edges".to_owned(), "e.csv".to_owned())]);
        assert_eq!(
            line.faults,
            vec![
                (0, Behavior::Commission { probability: 1.0 }),
                (1, Behavior::Omission { probability: 0.5 }),
            ]
        );

        let err = parse_job_line("acme 7 s.pig fault:zero:commission").unwrap_err();
        assert!(err.0.contains("fault"), "{err}");
    }

    #[test]
    fn job_line_fault_probability_is_range_checked_and_names_its_line() {
        let err = parse_job_line("acme 7 s.pig fault:0:commission:2.5").unwrap_err();
        assert!(
            err.0.contains("--fault probability must be within [0, 1]"),
            "{err}"
        );
        assert!(parse_job_line("acme 7 s.pig fault:0:omission:nan").is_err());

        let dir = std::env::temp_dir().join(format!("cbftd_badfault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.txt");
        std::fs::write(&jobs, "# chaos\nacme 1 s.pig fault:0:commission:2.5\n").unwrap();
        let msg = run_daemon(&parse(&[jobs.to_str().unwrap()]).unwrap())
            .unwrap_err()
            .to_string();
        assert!(msg.starts_with("jobs line 2: --fault probability"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_lines_parse_and_reject_malformed() {
        assert_eq!(parse_job_line("").unwrap(), None);
        assert_eq!(parse_job_line("   # just a comment").unwrap(), None);
        let line = parse_job_line("acme 7 s.pig edges=e.csv extra=x.csv # trailing")
            .unwrap()
            .unwrap();
        assert_eq!(line.tenant, "acme");
        assert_eq!(line.seed, 7);
        assert_eq!(line.script, "s.pig");
        assert_eq!(line.inputs.len(), 2);

        let err = parse_job_line("acme").unwrap_err();
        assert!(err.0.contains("missing a seed"), "{err}");
        let err = parse_job_line("acme seven s.pig").unwrap_err();
        assert!(err.0.contains("not a valid number"), "{err}");
        let err = parse_job_line("acme 7").unwrap_err();
        assert!(err.0.contains("missing a script path"), "{err}");
        let err = parse_job_line("acme 7 s.pig justname").unwrap_err();
        assert!(err.0.contains("wants NAME=FILE"), "{err}");
    }

    #[test]
    fn missing_jobs_file_and_script_are_reported_with_paths() {
        let opts = parse(&["definitely_missing_jobs.txt"]).unwrap();
        let err = run_daemon(&opts).unwrap_err();
        assert!(
            err.to_string()
                .contains("cannot read jobs file 'definitely_missing_jobs.txt'"),
            "{err}"
        );

        let dir = std::env::temp_dir().join(format!("cbftd_missing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.txt");
        std::fs::write(&jobs, "acme 1 nonexistent_script.pig\n").unwrap();
        let opts = parse(&[jobs.to_str().unwrap()]).unwrap();
        let err = run_daemon(&opts).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("jobs line 1"), "{msg}");
        assert!(
            msg.contains("cannot read script 'nonexistent_script.pig'"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_daemon_run_from_files() {
        let dir = std::env::temp_dir().join(format!("cbftd_e2e_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(
            &script,
            "a = LOAD 'edges' AS (u, f);
             g = GROUP a BY u;
             c = FOREACH g GENERATE group, COUNT(a) AS n;
             STORE c INTO 'counts';",
        )
        .unwrap();
        let data = dir.join("edges.csv");
        let rows: Vec<String> = (0..40).map(|i| format!("{},{}", i % 4, i)).collect();
        std::fs::write(&data, rows.join("\n")).unwrap();
        let jobs = dir.join("jobs.txt");
        let mut body = String::from("# three tenants, two jobs each\n");
        for (i, tenant) in ["acme", "beta", "core", "acme", "beta", "core"]
            .iter()
            .enumerate()
        {
            let _ = writeln!(
                body,
                "{tenant} {} {} edges={}",
                i + 1,
                script.display(),
                data.display()
            );
        }
        std::fs::write(&jobs, body).unwrap();
        let prom = dir.join("m.prom");

        let opts = parse(&[
            jobs.to_str().unwrap(),
            "--slots",
            "3",
            "--weight",
            "acme=2",
            "--max-inflight",
            "acme=1",
            "--metrics",
            prom.to_str().unwrap(),
            "--health-report",
        ])
        .unwrap();
        let report = run_daemon(&opts).unwrap();
        for id in 0..6 {
            assert!(
                report.contains(&format!("job {id} ")),
                "job {id} missing: {report}"
            );
        }
        assert_eq!(report.matches("VERIFIED").count(), 6, "{report}");
        assert!(report.contains("6 jobs in"), "{report}");
        assert!(report.contains("quota waits"), "{report}");
        assert!(report.contains("tenant acme: 2/2 verified"), "{report}");
        assert!(report.contains("job server:"), "{report}");
        assert!(report.contains("admitted=6"), "{report}");

        let text = std::fs::read_to_string(&prom).unwrap();
        crate::metrics::validate_prometheus_text(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains("cbft_server_jobs_admitted_total"), "{text}");
        assert!(text.contains("cbft_server_job_latency_us"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_flight_bundle_snapshot_series_and_trace() {
        let dir = std::env::temp_dir().join(format!("cbftd_flight_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(
            &script,
            "a = LOAD 'edges' AS (u, f);
             g = GROUP a BY u;
             c = FOREACH g GENERATE group, COUNT(a) AS n;
             STORE c INTO 'counts';",
        )
        .unwrap();
        let data = dir.join("edges.csv");
        let rows: Vec<String> = (0..40).map(|i| format!("{},{}", i % 4, i)).collect();
        std::fs::write(&data, rows.join("\n")).unwrap();
        let jobs = dir.join("jobs.txt");
        std::fs::write(
            &jobs,
            format!(
                "acme 7 {s} edges={d}\n\
                 evil 9 {s} edges={d} fault:0:commission\n",
                s = script.display(),
                d = data.display()
            ),
        )
        .unwrap();
        let flights = dir.join("flights");
        let series = dir.join("series.jsonl");
        let trace = dir.join("trace.json");

        let opts = parse(&[
            jobs.to_str().unwrap(),
            "--flight-dir",
            flights.to_str().unwrap(),
            "--snapshot-series",
            series.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--trace-summary",
        ])
        .unwrap();
        let report = run_daemon(&opts).unwrap();

        // Both jobs complete (the faulty one after escalation), both
        // result lines carry the lifecycle timeline.
        assert_eq!(report.matches("VERIFIED").count(), 2, "{report}");
        assert_eq!(report.matches("timeline admit@").count(), 2, "{report}");
        assert!(report.contains("anomalies detected:"), "{report}");
        assert!(report.contains("digest_mismatch"), "{report}");
        assert!(report.contains("forensic bundle:"), "{report}");

        // Exactly one bundle: the faulty job's, naming replica 0.
        let bundles: Vec<_> = std::fs::read_dir(&flights)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(bundles.len(), 1, "{bundles:?}");
        let bundle = &bundles[0];
        assert!(
            bundle
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .contains("evil"),
            "{bundle:?}"
        );
        let manifest = std::fs::read_to_string(bundle.join("manifest.json")).unwrap();
        assert!(manifest.contains("digest_mismatch"), "{manifest}");
        assert!(manifest.contains("{0}"), "names replica 0: {manifest}");
        assert!(manifest.contains("\"tenant\": \"evil\""), "{manifest}");
        assert!(manifest.contains("fault 0:commission"), "{manifest}");
        // The bundle carries the per-job sim forensics and the event log.
        let prom = std::fs::read_to_string(bundle.join("sim/metrics.prom")).unwrap();
        crate::metrics::validate_prometheus_text(&prom)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{prom}"));
        assert!(!std::fs::read_to_string(bundle.join("sim/events.log"))
            .unwrap()
            .is_empty());
        assert!(bundle.join("script.pig").exists());
        // The input the bundle ships is the very text the slot parsed.
        assert_eq!(
            std::fs::read(bundle.join("input_edges.csv")).unwrap(),
            std::fs::read(&data).unwrap()
        );
        assert!(bundle.join("repro.sh").exists());

        // The snapshot series holds at least the final line, each line
        // one JSON object with a t_us offset.
        let series_text = std::fs::read_to_string(&series).unwrap();
        let lines: Vec<_> = series_text.lines().collect();
        assert!(!lines.is_empty(), "{series_text}");
        for line in &lines {
            assert!(line.starts_with("{\"t_us\": "), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(report.contains("snapshot series:"), "{report}");

        // The Chrome trace landed and the summary rendered.
        assert!(std::fs::read_to_string(&trace).unwrap().contains("\"pid\""));
        assert!(report.contains("trace summary"), "{report}");
        // One aggregate line for the two loads of the 40-row, 209-byte file.
        let bytes = 2 * rows.join("\n").len();
        assert!(
            report.contains(&format!(
                "  inputs:\n    2 files: 80 rows, {bytes} bytes, columnar, load "
            )),
            "{report}"
        );
        // And one for what the jobs published, none of it rendered.
        assert!(report.contains("  outputs:\n    "), "{report}");
        assert!(
            report.contains(" rows, columnar, render 0.0 ms\n"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A result line with its wall-clock fields cut off.
    fn verdict(line: &str) -> &str {
        line.split(" queue_ms=").next().unwrap_or(line)
    }

    #[test]
    fn flight_dir_alone_bundles_the_faulty_jobs_events_and_only_it_records() {
        let dir = std::env::temp_dir().join(format!("cbftd_flight_only_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(
            &script,
            "a = LOAD 'edges' AS (u, f);
             g = GROUP a BY u;
             c = FOREACH g GENERATE group, COUNT(a) AS n;
             STORE c INTO 'counts';",
        )
        .unwrap();
        let data = dir.join("edges.csv");
        let rows: Vec<String> = (0..60).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, rows.join("\n")).unwrap();
        let jobs = dir.join("jobs.txt");
        let (s, d) = (script.display(), data.display());
        std::fs::write(
            &jobs,
            format!(
                "acme 1 {s} edges={d}\n\
                 beta 2 {s} edges={d}\n\
                 evil 3 {s} edges={d} fault:0:commission\n\
                 acme 4 {s} edges={d}\n"
            ),
        )
        .unwrap();
        let flights = dir.join("flights");
        let with = run_daemon(
            &parse(&[
                jobs.to_str().unwrap(),
                "--flight-dir",
                flights.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        let without = run_daemon(&parse(&[jobs.to_str().unwrap()]).unwrap()).unwrap();

        // The same verdicts either way; only --flight-dir writes a bundle.
        let verdicts = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.starts_with("job "))
                .map(|l| verdict(l).to_owned())
                .collect()
        };
        assert_eq!(verdicts(&with), verdicts(&without));
        assert_eq!(with.matches(" VERIFIED").count(), 4, "{with}");
        assert!(with.contains("forensic bundle:"), "{with}");
        assert!(without.contains("anomalies detected:"), "{without}");
        assert!(!without.contains("forensic bundle:"), "{without}");

        // One bundle, the faulty job's, and its event log holds that
        // job's events and no other job's.
        let evil = with
            .lines()
            .find(|l| l.contains(" tenant=evil "))
            .and_then(|l| l.split_whitespace().nth(1))
            .expect("a result line for the faulty job");
        let bundles: Vec<_> = std::fs::read_dir(&flights)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(bundles.len(), 1, "{bundles:?}");
        let name = bundles[0].file_name().unwrap().to_str().unwrap().to_owned();
        assert!(name.starts_with(&format!("job{evil}-evil-")), "{name}");
        let log = std::fs::read_to_string(bundles[0].join("sim/events.log")).unwrap();
        assert!(!log.is_empty());
        let tag = format!(" job={evil}");
        assert!(log.lines().all(|l| l.contains(&tag)), "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_job_whose_script_nests_too_deep_fails_alone() {
        let dir = std::env::temp_dir().join(format!("cbftd_hostile_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let healthy = dir.join("s.pig");
        std::fs::write(
            &healthy,
            "a = LOAD 'edges' AS (u, f);
             g = GROUP a BY u;
             c = FOREACH g GENERATE group, COUNT(a) AS n;
             STORE c INTO 'counts';",
        )
        .unwrap();
        // Deep enough to overflow a slot thread's stack were the
        // parser's recursion unbounded.
        let hostile = dir.join("deep.pig");
        let n = 2_000;
        std::fs::write(
            &hostile,
            format!(
                "a = LOAD 'edges' AS (u, f);\nb = FILTER a BY {}u > 1{};\nSTORE b INTO 'o';\n",
                "(".repeat(n),
                ")".repeat(n)
            ),
        )
        .unwrap();
        let data = dir.join("edges.csv");
        let rows: Vec<String> = (0..40).map(|i| format!("{},{}", i % 4, i)).collect();
        std::fs::write(&data, rows.join("\n")).unwrap();
        let jobs = dir.join("jobs.txt");
        let (s, h, d) = (healthy.display(), hostile.display(), data.display());
        std::fs::write(
            &jobs,
            format!(
                "acme 1 {s} edges={d}\n\
                 evil 2 {h} edges={d}\n\
                 beta 3 {s} edges={d}\n\
                 acme 4 {s} edges={d}\n"
            ),
        )
        .unwrap();
        let report = run_daemon(&parse(&[jobs.to_str().unwrap(), "--slots", "2"]).unwrap())
            .expect("the daemon survives the hostile job");
        let results: Vec<&str> = report.lines().filter(|l| l.starts_with("job ")).collect();
        assert_eq!(results.len(), 4, "{report}");
        for line in results {
            if line.contains(" tenant=evil ") {
                assert!(
                    line.contains("ERROR: parse error on line 2: expression nested deeper"),
                    "{line}"
                );
            } else {
                assert!(line.contains(" VERIFIED "), "{line}");
            }
        }
        assert!(report.contains("3 verified, 1 errored"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_job_whose_input_file_is_missing_fails_alone() {
        let dir = std::env::temp_dir().join(format!("cbftd_no_input_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(
            &script,
            "a = LOAD 'edges' AS (u, f);
             g = GROUP a BY u;
             c = FOREACH g GENERATE group, COUNT(a) AS n;
             STORE c INTO 'counts';",
        )
        .unwrap();
        let data = dir.join("edges.csv");
        let rows: Vec<String> = (0..40).map(|i| format!("{},{}", i % 4, i)).collect();
        std::fs::write(&data, rows.join("\n")).unwrap();
        let missing = dir.join("missing.csv");
        let jobs = dir.join("jobs.txt");
        let (s, d, m) = (script.display(), data.display(), missing.display());
        std::fs::write(
            &jobs,
            format!(
                "acme 1 {s} edges={d}\n\
                 # the next job names a file that is not there\n\
                 evil 2 {s} edges={m}\n\
                 beta 3 {s} edges={d}\n\
                 acme 4 {s} edges={d}\n"
            ),
        )
        .unwrap();
        let report = run_daemon(
            &parse(&[jobs.to_str().unwrap(), "--slots", "2", "--trace-summary"]).unwrap(),
        )
        .expect("the daemon survives a job whose input is missing");
        let results: Vec<&str> = report.lines().filter(|l| l.starts_with("job ")).collect();
        assert_eq!(results.len(), 4, "{report}");
        for line in results {
            if line.contains(" tenant=evil ") {
                let prefix = format!("ERROR: cannot read input 'edges' from '{m}': ");
                assert!(line.contains(&prefix), "{line}");
                assert!(verdict(line).ends_with(" (jobs line 3)"), "{line}");
            } else {
                assert!(line.contains(" VERIFIED "), "{line}");
            }
        }
        assert!(report.contains("3 verified, 1 errored"), "{report}");
        // Only the three files that were read are counted.
        let bytes = 3 * rows.join("\n").len();
        assert!(
            report.contains(&format!(
                "  inputs:\n    3 files: 120 rows, {bytes} bytes, columnar, load "
            )),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
