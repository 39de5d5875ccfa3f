//! Argument parsing and driver logic for the `cbft` command-line tool.
//!
//! Kept in the library (rather than the binary) so the parsing rules are
//! unit-testable. No external argument-parsing dependency: the grammar is
//! small and fixed.

use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::core::{
    Adversary, Behavior, Cluster, ClusterBft, ExecutorConfig, FileData, JobConfig,
    ParallelExecutor, Record, Replication, VerifyMode, VpPolicy,
};
pub use crate::dataflow::csv::{parse_columns, parse_record};
use crate::dataflow::Script;
use crate::flight::{self, Anomaly, BundleSpec};
use crate::mapreduce::data_plane::{self, DataPlaneSnapshot};
use crate::metrics::{
    json_snapshot, names as metric_names, prometheus_text, Domain, HealthReport, LabelValue,
    Metrics, Snapshot,
};
use crate::server::{load_input, plane};
use crate::trace::{
    chrome_trace_json, FanoutSink, FlightRecorder, MemorySink, Obs, TraceEvent, TraceSink,
    TraceSummary, Tracer,
};

/// Parsed command-line options for one `cbft` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// Path of the script file to execute.
    pub script: String,
    /// Inputs as `name=path` pairs (CSV-ish record files).
    pub inputs: Vec<(String, String)>,
    /// Untrusted-tier size.
    pub nodes: usize,
    /// Slots per node.
    pub slots: usize,
    /// Simulation seed. Resolved by [`resolve_seed`]: `--seed` wins,
    /// then the `CBFT_SEED` environment variable, then the default of 1.
    /// Both execution paths consume exactly this one value — the
    /// sequential pipeline as the cluster seed, the `--threads` path as
    /// the executor's master seed.
    pub seed: u64,
    /// Fault bound `f`.
    pub f: usize,
    /// Replication policy.
    pub replication: Replication,
    /// Marker-chosen verification points.
    pub points: u32,
    /// Adversary model.
    pub adversary: Adversary,
    /// Digest granularity `d`.
    pub granularity: usize,
    /// Injected faults: `(node, behavior)`.
    pub faults: Vec<(usize, Behavior)>,
    /// Enable map-side combiners.
    pub combiners: bool,
    /// Run the logical-plan optimizer before execution.
    pub optimize: bool,
    /// Worker threads for the parallel replica executor. `None` keeps the
    /// classic sequential pipeline; `Some(0)` means one thread per replica.
    /// In this mode `--fault N:...` targets replica `N`, not node `N`.
    pub threads: Option<usize>,
    /// Compute-pool threads for data-parallel task payloads inside the
    /// engine. `None` defers to `CBFT_COMPUTE_THREADS` (inline when unset);
    /// `Some(0)` sizes the pool to the host's cores. Works in both the
    /// sequential and `--threads` modes without changing any verdict.
    pub compute_threads: Option<usize>,
    /// The task data plane: `Some(0)` is the row plane, any other value
    /// the columnar plane, and `None` the engine default (1024, columnar).
    /// No width is read from it. Host-side only: digests and verdicts are
    /// identical for any value.
    pub batch_size: Option<usize>,
    /// Verification tier for the `--threads` path: full replication,
    /// single-run spot-check sampling, or hybrid (sample, escalate to
    /// replication on suspicion).
    pub verify_mode: VerifyMode,
    /// Fraction of completed tasks the spot-checker re-executes in the
    /// sample/hybrid tiers. `None` keeps the executor default.
    pub sample_rate: Option<f64>,
    /// Print the instrumented plan in Graphviz dot and exit.
    pub emit_dot: bool,
    /// Rows of each output to print.
    pub show_rows: usize,
    /// Write a Chrome-trace-format (Perfetto-loadable) JSON trace here.
    pub trace: Option<String>,
    /// Print an aggregated trace summary (per-phase time, verification
    /// lag per key, data-plane counters) after the run report.
    pub trace_summary: bool,
    /// Write a Prometheus text-exposition metrics dump here.
    pub metrics: Option<String>,
    /// Write a JSON metrics snapshot here.
    pub metrics_json: Option<String>,
    /// Append the per-replica fault-forensics health report to the
    /// run report.
    pub health_report: bool,
    /// Directory receiving a forensic bundle when the run trips the
    /// anomaly detector (mismatch, escalation, withheld output, ...).
    /// Setting it attaches the flight recorder the bundle's event log is
    /// drained from. `None` still detects and reports anomalies, but
    /// records no event and writes nothing.
    pub flight_dir: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            script: String::new(),
            inputs: Vec::new(),
            nodes: 16,
            slots: 3,
            seed: 1,
            f: 1,
            replication: Replication::Full,
            points: 2,
            adversary: Adversary::Strong,
            granularity: usize::MAX,
            faults: Vec::new(),
            combiners: false,
            optimize: false,
            threads: None,
            compute_threads: None,
            batch_size: None,
            verify_mode: VerifyMode::Replicate,
            sample_rate: None,
            emit_dot: false,
            show_rows: 10,
            trace: None,
            trace_summary: false,
            metrics: None,
            metrics_json: None,
            health_report: false,
            flight_dir: None,
        }
    }
}

/// A CLI usage error, printed with the usage text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for UsageError {}

/// The usage text for `cbft --help`.
pub const USAGE: &str = "\
cbft — run a data-flow script with BFT-verified execution on a simulated cluster

USAGE:
    cbft <script.pig> --input NAME=FILE [--input NAME=FILE ...] [OPTIONS]

OPTIONS:
    --nodes N            untrusted-tier size            [default: 16]
    --slots N            task slots per node            [default: 3]
    --seed N             simulation seed; takes precedence over the
                         CBFT_SEED environment variable [default: 1]
    --f N                fault bound f                  [default: 1]
    --replication R      optimistic | quorum | full | an integer  [default: full]
    --points N           marker-chosen verification points        [default: 2]
    --adversary A        strong | weak                  [default: strong]
    --granularity D      records per digest chunk       [default: whole stream]
    --fault N:KIND[:P]   inject a fault on node N (N < --nodes); KIND =
                         commission | omission (with probability P in
                         [0, 1], default 1.0) | crash
    --combiners          enable map-side combiners (sequential path only)
    --optimize           run the logical-plan optimizer first
    --threads N          run replicas on N worker threads (0 = one per
                         replica), streaming digests into the verifier as
                         they are produced; --fault then targets replica N
                         instead of node N                [default: sequential]
    --compute-threads N  share an N-thread compute pool for task payloads
                         (map/reduce evaluation, digesting, shuffle gather);
                         0 = one thread per host core. Verdicts and traces
                         are identical for any value     [default: inline]
    --batch-size N       task data plane: 0 = row-at-a-time execution, any
                         other value = columnar. Digests, outputs and
                         verdicts are identical for any value [default: 1024]
    --verify-mode M      verification tier on the --threads path:
                           replicate  f+1..3f+1 replicated execution
                           sample     run once; a trusted spot-checker
                                      re-executes a seeded sample of tasks
                                      against their recorded digests
                           hybrid     sample, escalating to full replication
                                      on any mismatch or suspicion
                                                        [default: replicate]
    --sample-rate R      fraction of tasks spot-checked in the sample and
                         hybrid tiers (needs --verify-mode sample|hybrid),
                         in [0, 1]                      [default: 0.1]
    --dot                print the plan in Graphviz dot and exit
    --show N             rows of each output to print   [default: 10]
    --trace FILE         record a Chrome-trace-format JSON trace of the run
                         (load it in Perfetto or chrome://tracing)
    --trace-summary      print per-phase timings, per-key verification lag,
                         data-plane counters, what loading each input took
                         (rows, bytes, plane, wall ms) and what rendering
                         each output took (rows, plane, wall ms) after the
                         report
    --metrics FILE       write run metrics in Prometheus text exposition
                         format (counters, gauges, log2-bucket histograms;
                         every sample carries a domain=\"sim\"|\"wall\" label)
    --metrics-json FILE  write the same metrics snapshot as JSON
    --health-report      print the fault-forensics health report: per-replica
                         digest mismatch/omission counters, suspicion band
                         trajectories, verification lag quantiles and
                         escalation round costs
    --flight-dir DIR     attach the flight recorder (the last 256 events per
                         track) and write a self-contained forensic bundle
                         under DIR when the run trips the anomaly detector
                         (digest mismatch, escalation, withheld output,
                         spot-check mismatch, suspicion crossing): canonical
                         ring events, sim metrics, health report,
                         script+input copies and a one-shot repro command.
                         Without it anomalies are still reported, and no
                         event is recorded

ENVIRONMENT:
    CBFT_SEED            simulation seed used when --seed is absent; the
                         flag always wins over the variable

Input files are one record per line, comma-separated; fields parse as
integers when possible, the literal `null` as null, anything else as text.";

/// Resolves the simulation seed: an explicit `--seed` flag wins, then a
/// set-and-valid `CBFT_SEED` environment variable, then the default of 1.
/// Shared by the `cbft` CLI (both the sequential and `--threads` paths
/// receive the resolved value via [`CliOptions::seed`]) and the
/// `campaign` binary, so every entry point agrees on precedence.
///
/// # Errors
///
/// Returns a [`UsageError`] when the flag is absent and `CBFT_SEED` is
/// set to something that does not parse as a `u64`.
pub fn resolve_seed(flag: Option<u64>) -> Result<u64, UsageError> {
    if let Some(seed) = flag {
        return Ok(seed);
    }
    match std::env::var("CBFT_SEED") {
        Ok(v) => parse_num(&v, "CBFT_SEED"),
        Err(_) => Ok(1),
    }
}

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the offending argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, UsageError> {
    let mut opts = CliOptions::default();
    let mut seed_flag = None;
    let mut it = args.into_iter();
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .ok_or_else(|| UsageError(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--input" => {
                let v = need(&mut it, "--input")?;
                let (name, path) = v
                    .split_once('=')
                    .ok_or_else(|| UsageError(format!("--input wants NAME=FILE, got '{v}'")))?;
                opts.inputs.push((name.to_owned(), path.to_owned()));
            }
            "--nodes" => {
                opts.nodes = positive(parse_num(&need(&mut it, "--nodes")?, "--nodes")?, "--nodes")?
            }
            "--slots" => {
                opts.slots = positive(parse_num(&need(&mut it, "--slots")?, "--slots")?, "--slots")?
            }
            "--seed" => seed_flag = Some(parse_num(&need(&mut it, "--seed")?, "--seed")?),
            "--f" => opts.f = checked_fault_bound(&need(&mut it, "--f")?)?,
            "--points" => opts.points = parse_num(&need(&mut it, "--points")?, "--points")?,
            "--granularity" => {
                opts.granularity = positive(
                    parse_num(&need(&mut it, "--granularity")?, "--granularity")?,
                    "--granularity",
                )?
            }
            "--show" => opts.show_rows = parse_num(&need(&mut it, "--show")?, "--show")?,
            "--replication" => {
                opts.replication = parse_replication(&need(&mut it, "--replication")?)?
            }
            "--adversary" => {
                let v = need(&mut it, "--adversary")?;
                opts.adversary = match v.as_str() {
                    "strong" => Adversary::Strong,
                    "weak" => Adversary::Weak,
                    other => {
                        return Err(UsageError(format!(
                            "--adversary wants strong|weak, got '{other}'"
                        )))
                    }
                };
            }
            "--fault" => {
                let v = need(&mut it, "--fault")?;
                opts.faults.push(parse_fault(&v)?);
            }
            "--threads" => {
                opts.threads = Some(parse_num(&need(&mut it, "--threads")?, "--threads")?)
            }
            "--compute-threads" => {
                opts.compute_threads = Some(parse_num(
                    &need(&mut it, "--compute-threads")?,
                    "--compute-threads",
                )?)
            }
            "--batch-size" => {
                opts.batch_size = Some(checked_batch_size(&need(&mut it, "--batch-size")?)?)
            }
            "--verify-mode" => {
                let v = need(&mut it, "--verify-mode")?;
                opts.verify_mode = VerifyMode::parse(&v).ok_or_else(|| {
                    UsageError(format!(
                        "--verify-mode wants replicate|sample|hybrid, got '{v}'"
                    ))
                })?;
            }
            "--sample-rate" => {
                let rate: f64 = parse_num(&need(&mut it, "--sample-rate")?, "--sample-rate")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(UsageError(format!(
                        "--sample-rate must be within [0, 1], got {rate}"
                    )));
                }
                opts.sample_rate = Some(rate);
            }
            "--trace" => opts.trace = Some(need(&mut it, "--trace")?),
            "--trace-summary" => opts.trace_summary = true,
            "--metrics" => opts.metrics = Some(need(&mut it, "--metrics")?),
            "--metrics-json" => opts.metrics_json = Some(need(&mut it, "--metrics-json")?),
            "--health-report" => opts.health_report = true,
            "--flight-dir" => opts.flight_dir = Some(need(&mut it, "--flight-dir")?),
            "--combiners" => opts.combiners = true,
            "--optimize" => opts.optimize = true,
            "--dot" => opts.emit_dot = true,
            "--help" | "-h" => return Err(UsageError(USAGE.to_owned())),
            other if !other.starts_with('-') && opts.script.is_empty() => {
                opts.script = other.to_owned();
            }
            other => return Err(UsageError(format!("unknown argument '{other}'"))),
        }
    }
    if opts.script.is_empty() {
        return Err(UsageError("missing script file (see --help)".to_owned()));
    }
    if opts.verify_mode != VerifyMode::Replicate && opts.threads.is_none() {
        return Err(UsageError(format!(
            "--verify-mode {} needs the parallel executor; add --threads N",
            opts.verify_mode.name()
        )));
    }
    // Flags the chosen path would not read are refused, not ignored: the
    // parallel executor runs no combiner, and only a sampling tier
    // samples.
    if opts.combiners && opts.threads.is_some() {
        return Err(UsageError(
            "--combiners runs on the sequential path only; drop --threads or --combiners"
                .to_owned(),
        ));
    }
    if opts.sample_rate.is_some() && opts.verify_mode == VerifyMode::Replicate {
        return Err(UsageError(
            "--sample-rate needs --verify-mode sample|hybrid (and --threads N)".to_owned(),
        ));
    }
    // On the sequential path `--fault N` names a node of the one shared
    // cluster, which must exist (with `--threads` it names a replica, and
    // a replica that never runs is a documented no-op). Checked after
    // every flag is read, so `--nodes` may follow `--fault`.
    if opts.threads.is_none() {
        if let Some((node, _)) = opts.faults.iter().find(|(n, _)| *n >= opts.nodes) {
            return Err(UsageError(format!(
                "--fault node {node} is out of range for --nodes {}",
                opts.nodes
            )));
        }
    }
    opts.seed = resolve_seed(seed_flag)?;
    Ok(opts)
}

pub(crate) fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, UsageError> {
    s.parse()
        .map_err(|_| UsageError(format!("{flag}: '{s}' is not a valid number")))
}

/// Rejects a zero where the engine would later panic with a less helpful
/// message (`--nodes 0`, `--slots 0`, `--granularity 0`) or silently
/// clamp (`--replication 0`). Validation happens at parse time so the
/// error names the flag, not an engine internals assertion.
pub(crate) fn positive(n: usize, flag: &str) -> Result<usize, UsageError> {
    if n == 0 {
        return Err(UsageError(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses a `--replication` value: a named policy or an exact degree ≥ 1.
pub(crate) fn parse_replication(v: &str) -> Result<Replication, UsageError> {
    Ok(match v {
        "optimistic" => Replication::Optimistic,
        "quorum" => Replication::Quorum,
        "full" => Replication::Full,
        n => Replication::Exact(positive(parse_num(n, "--replication")?, "--replication")?),
    })
}

/// Parses and bounds a `--batch-size` value. `0` selects the row plane
/// and any other value the columnar plane; the bound of 2^32 dates from
/// when the value sized batches and is kept so the flag accepts what it
/// always did.
pub fn checked_batch_size(s: &str) -> Result<usize, UsageError> {
    const MAX: u64 = 1 << 32;
    let n: u64 = parse_num(s, "--batch-size")?;
    if n > MAX {
        return Err(UsageError(format!(
            "--batch-size {n} is unreasonably large (max {MAX}); use 0 for row-at-a-time execution"
        )));
    }
    Ok(n as usize)
}

/// Parses an `--f` value. A fault bound sizes runs of up to `3f + 1`
/// replicas, so an `f` for which that count does not fit in `usize` is
/// rejected here instead of overflowing in the replica arithmetic.
pub(crate) fn checked_fault_bound(s: &str) -> Result<usize, UsageError> {
    const MAX: usize = (usize::MAX - 1) / 3;
    let f: usize = parse_num(s, "--f")?;
    if f > MAX {
        return Err(UsageError(format!(
            "--f {f} is too large: 3f + 1 replicas must fit in a usize (max {MAX})"
        )));
    }
    Ok(f)
}

/// Parses `N:KIND[:P]` fault specs (also `cbftd`'s `fault:N:KIND[:P]`
/// job tokens). A probability outside `[0, 1]` is rejected here rather
/// than silently clamped by the fault draw.
pub fn parse_fault(spec: &str) -> Result<(usize, Behavior), UsageError> {
    let mut parts = spec.split(':');
    let node: usize = parse_num(
        parts
            .next()
            .ok_or_else(|| UsageError("empty --fault".into()))?,
        "--fault",
    )?;
    let kind = parts
        .next()
        .ok_or_else(|| UsageError(format!("--fault '{spec}' is missing a kind")))?;
    let probability: f64 = match parts.next() {
        Some(p) => parse_num(p, "--fault probability")?,
        None => 1.0,
    };
    // NaN fails the range test too.
    if !(0.0..=1.0).contains(&probability) {
        return Err(UsageError(format!(
            "--fault probability must be within [0, 1], got {probability}"
        )));
    }
    let behavior = match kind {
        "commission" => Behavior::Commission { probability },
        "omission" => Behavior::Omission { probability },
        "crash" => Behavior::Crashed,
        other => {
            return Err(UsageError(format!(
                "--fault kind must be commission|omission|crash, got '{other}'"
            )))
        }
    };
    Ok((node, behavior))
}

/// Appends one record as a CSV-ish line, without the line end.
fn write_record(out: &mut String, r: &Record) {
    for (i, v) in r.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}

/// Renders one record as a CSV-ish line (inverse of [`parse_record`] for
/// flat records).
pub fn render_record(r: &Record) -> String {
    let mut line = String::new();
    write_record(&mut line, r);
    line
}

/// Reads a script file; the error names the path.
pub(crate) fn read_script(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read script '{path}': {e}"))
}

/// Appends one published output to the report: a header and at most
/// `show_rows` rows, written from the file as it is stored — a columnar
/// file straight from its columns ([`Batch::write_row_text`]), a record
/// file record by record. Both `cbft` paths report through this one
/// function, and the bytes do not depend on the file's form.
///
/// [`Batch::write_row_text`]: crate::dataflow::Batch::write_row_text
pub fn render_output(out: &mut String, name: &str, file: &FileData, show_rows: usize) {
    let _ = writeln!(out, "\n== {name} ({} records) ==", file.len());
    let shown = file.len().min(show_rows);
    match file.batch() {
        Some(batch) => {
            for row in 0..shown {
                batch.write_row_text(row, out);
                out.push('\n');
            }
        }
        None => {
            for r in &file.rows()[..shown] {
                write_record(out, r);
                out.push('\n');
            }
        }
    }
    if file.len() > show_rows {
        let _ = writeln!(out, "... ({} more)", file.len() - show_rows);
    }
}

/// What rendering the published outputs took: one line of
/// `--trace-summary`'s `outputs:` section, for one output (`cbft`) or
/// summed over a run's (`cbftd`, which prints no row and so renders none).
#[derive(Default)]
pub(crate) struct OutputRender {
    pub files: usize,
    rows: usize,
    columnar: usize,
    wall: Duration,
}

impl OutputRender {
    /// Adds one published `file`, rendered in `wall`.
    pub fn add(&mut self, file: &FileData, wall: Duration) {
        self.files += 1;
        self.rows += file.len();
        self.columnar += usize::from(file.batch().is_some());
        self.wall += wall;
    }

    /// The line, under `label`: an output's name, or an output count.
    pub fn line(&self, label: &str) -> String {
        let plane = plane(self.columnar, self.files);
        let (rows, ms) = (self.rows, self.wall.as_secs_f64() * 1e3);
        format!("{label}: {rows} rows, {plane}, render {ms:.1} ms")
    }
}

/// Renders `file` with [`render_output`] and adds it to `renders`' lines.
fn render_timed(
    out: &mut String,
    renders: &mut Vec<String>,
    name: &str,
    file: &FileData,
    show_rows: usize,
) {
    let started = Instant::now();
    render_output(out, name, file, show_rows);
    let mut render = OutputRender::default();
    render.add(file, started.elapsed());
    renders.push(render.line(name));
}

/// The executor configuration an invocation asks for on the `--threads`
/// path (`cbftd` builds each job's configuration through the same
/// function, from the job's projection onto [`CliOptions`]).
pub(crate) fn executor_config(opts: &CliOptions) -> ExecutorConfig {
    let f = opts.f;
    let defaults = ExecutorConfig::default();
    ExecutorConfig {
        threads: opts.threads.unwrap_or(1),
        compute_threads: opts.compute_threads.unwrap_or(defaults.compute_threads),
        batch_records: opts.batch_size.unwrap_or(defaults.batch_records),
        expected_failures: f,
        // Start at the requested replication degree, escalate along the
        // paper's schedule from there.
        escalation: vec![opts.replication.replicas(f), 2 * f + 1, 3 * f + 1],
        vp_policy: VpPolicy::Marked(opts.points),
        adversary: opts.adversary,
        digest_granularity: opts.granularity,
        nodes: opts.nodes,
        slots_per_node: opts.slots,
        master_seed: opts.seed,
        verify_mode: opts.verify_mode,
        sample_rate: opts.sample_rate.unwrap_or(defaults.sample_rate),
        ..defaults
    }
}

/// The output flags `cbft` and `cbftd` share.
pub(crate) struct ReportFlags<'a> {
    pub trace: Option<&'a str>,
    pub trace_summary: bool,
    pub metrics: Option<&'a str>,
    pub metrics_json: Option<&'a str>,
    pub health_report: bool,
    pub flight_dir: Option<&'a str>,
}

impl CliOptions {
    fn report_flags(&self) -> ReportFlags<'_> {
        ReportFlags {
            trace: self.trace.as_deref(),
            trace_summary: self.trace_summary,
            metrics: self.metrics.as_deref(),
            metrics_json: self.metrics_json.as_deref(),
            health_report: self.health_report,
            flight_dir: self.flight_dir.as_deref(),
        }
    }
}

/// The observability handles of one `cbft` or `cbftd` run, and the tail
/// of the report that drains them.
pub(crate) struct Observability<'a> {
    flags: ReportFlags<'a>,
    /// The run's tracer and hub, handed to the engine, executor or job
    /// server when it is built.
    pub obs: Obs,
    sink: Option<Arc<MemorySink>>,
    flight_rec: Option<Arc<FlightRecorder>>,
    dp_before: DataPlaneSnapshot,
}

impl<'a> Observability<'a> {
    /// Builds the handles for one run. The flight recorder is attached
    /// only under `--flight-dir`, the one place its rings are read (they
    /// are the forensic context of a bundle); a full-capture
    /// [`MemorySink`] is attached when either trace flag asks for it.
    /// With neither, the tracer is disabled and instrumented code builds
    /// no event. The metrics hub is a live registry when a metrics flag
    /// or `--flight-dir` (whose bundles embed a snapshot) is set, or the
    /// caller has another consumer (`also_live`: the daemon's snapshot
    /// series), the zero-cost disabled handle otherwise.
    pub fn start(flags: ReportFlags<'a>, also_live: bool) -> Self {
        let flight_rec = flags
            .flight_dir
            .is_some()
            .then(|| Arc::new(FlightRecorder::with_default_capacity()));
        let sink =
            (flags.trace.is_some() || flags.trace_summary).then(|| Arc::new(MemorySink::new()));
        let tracer = match (&flight_rec, &sink) {
            (Some(rec), Some(sink)) => {
                let tee: Vec<Arc<dyn TraceSink>> = vec![rec.clone(), sink.clone()];
                Tracer::new(Arc::new(FanoutSink::new(tee)))
            }
            (Some(rec), None) => Tracer::new(rec.clone()),
            (None, Some(sink)) => Tracer::new(sink.clone()),
            (None, None) => Tracer::disabled(),
        };
        let live = flags.metrics.is_some()
            || flags.metrics_json.is_some()
            || flags.health_report
            || flags.flight_dir.is_some()
            || also_live;
        Observability {
            flags,
            obs: Obs {
                tracer,
                metrics: live.then(Metrics::new).unwrap_or_default(),
            },
            sink,
            flight_rec,
            dp_before: data_plane::snapshot(),
        }
    }

    /// The hub's snapshot, when the hub is live.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let metrics = &self.obs.metrics;
        metrics.enabled().then(|| metrics.snapshot())
    }

    /// Drains the flight recorder's rings (see
    /// [`FlightRecorder::drain`]); empty without `--flight-dir`.
    pub fn drain_flight(&self) -> Vec<TraceEvent> {
        self.flight_rec
            .as_ref()
            .map_or_else(Vec::new, |rec| rec.drain())
    }

    /// Flight accounting: what the recorder's rings captured and
    /// evicted, when there is a recorder. Lands in the wall domain
    /// (capture order is host scheduling), like the two counters below.
    pub fn count_flight_rings(&self) {
        let Some(rec) = &self.flight_rec else {
            return;
        };
        let m = &self.obs.metrics;
        m.add(
            Domain::Wall,
            metric_names::FLIGHT_EVENTS,
            &[],
            rec.captured(),
        );
        m.add(
            Domain::Wall,
            metric_names::FLIGHT_EVICTED,
            &[],
            rec.evicted(),
        );
    }

    /// Flight accounting: one count per detected anomaly, by kind.
    pub fn count_anomalies(&self, anomalies: &[Anomaly]) {
        for a in anomalies {
            let label = [("kind", LabelValue::from(a.kind.name()))];
            self.obs
                .metrics
                .add(Domain::Wall, metric_names::FLIGHT_ANOMALIES, &label, 1);
        }
    }

    /// Writes one forensic bundle under `dir` and reports its path.
    pub fn write_bundle(
        &self,
        dir: &str,
        name: &str,
        spec: &BundleSpec<'_>,
    ) -> Result<String, Box<dyn Error>> {
        let path = flight::write_bundle(Path::new(dir), name, spec)?;
        self.obs
            .metrics
            .add(Domain::Wall, metric_names::FLIGHT_BUNDLES, &[], 1);
        Ok(format!("forensic bundle: {}", path.display()))
    }

    /// The tail of the report: writes the Chrome-trace JSON (`--trace`)
    /// and appends the aggregated summary (`--trace-summary`) closed by
    /// `inputs`, the [`crate::server::InputLoad`] lines, and `outputs`, the
    /// [`OutputRender`] lines (wall times both: not in the trace), then
    /// writes the Prometheus (`--metrics`) and JSON (`--metrics-json`)
    /// dumps and appends the health report (`--health-report`). The
    /// one-shot CLI builds the health report from the sim-domain slice
    /// only, so it is identical for any worker/compute-pool thread count;
    /// the daemon asks for the `full_health` snapshot, because the server
    /// series are wall-domain.
    pub fn finish(
        self,
        out: &mut String,
        full_health: bool,
        inputs: &[String],
        outputs: &[String],
    ) -> Result<(), Box<dyn Error>> {
        if let Some(sink) = self.sink {
            let events = sink.take();
            if let Some(path) = self.flags.trace {
                flight::write_output("--trace", path, &chrome_trace_json(&events))?;
            }
            if self.flags.trace_summary {
                let d = data_plane::snapshot().since(&self.dp_before);
                let summary = TraceSummary::from_events(&events)
                    .with_counter("records_cloned", d.records_cloned)
                    .with_counter("rows_materialized", d.rows_materialized)
                    .with_counter("groups_unordered", d.groups_unordered)
                    .with_counter("arcs_shared", d.arcs_shared)
                    .with_counter("shuffle_index_bytes", d.shuffle_index_bytes)
                    .with_counter("columns_shared", d.columns_shared)
                    .with_counter("bytes_encoded", d.bytes_encoded)
                    .with_counter("digest_bytes_hashed", d.digest_bytes_hashed)
                    .with_counter("tasks_dispatched", d.tasks_dispatched)
                    .with_counter("tasks_stolen", d.tasks_stolen)
                    .with_counter("pool_queue_peak", d.pool_queue_peak);
                let _ = write!(out, "\n{}", summary.render());
                for (section, lines) in [("inputs", inputs), ("outputs", outputs)] {
                    if !lines.is_empty() {
                        let _ = writeln!(out, "  {section}:\n    {}", lines.join("\n    "));
                    }
                }
                out.push('\n');
            }
        }
        if !self.obs.metrics.enabled() {
            return Ok(());
        }
        let snap = self.obs.metrics.snapshot();
        if let Some(path) = self.flags.metrics {
            flight::write_output("--metrics", path, &prometheus_text(&snap))?;
        }
        if let Some(path) = self.flags.metrics_json {
            flight::write_output("--metrics-json", path, &json_snapshot(&snap))?;
        }
        if self.flags.health_report {
            let report = if full_health {
                HealthReport::from_snapshot(&snap)
            } else {
                HealthReport::from_snapshot(&snap.sim_only())
            };
            let _ = writeln!(out, "\n{}", report.render());
        }
        Ok(())
    }
}

/// Executes a parsed invocation: loads inputs, runs the script through
/// ClusterBFT and returns the human-readable report.
///
/// # Errors
///
/// IO errors reading the script/input files, and any ClusterBFT submission
/// error.
pub fn run(opts: &CliOptions) -> Result<String, Box<dyn Error>> {
    let source = read_script(&opts.script)?;
    if opts.emit_dot {
        let plan = Script::parse(&source)?.into_plan();
        return Ok(plan.to_dot(&[]));
    }

    let mut inputs: HashMap<String, FileData> = HashMap::new();
    // Raw input texts, retained only when a bundle could need them.
    let mut raw_inputs: Vec<(String, String)> = Vec::new();
    let mut input_lines = Vec::new();
    for (name, path) in &opts.inputs {
        let (data, text, load) = load_input(name, path, opts.batch_size != Some(0))?;
        input_lines.push(load.line(name));
        inputs.insert(name.clone(), data);
        if opts.flight_dir.is_some() {
            raw_inputs.push((name.clone(), text));
        }
    }

    let obs = Observability::start(opts.report_flags(), false);
    let mut out = String::new();
    let mut output_lines = Vec::new();
    let anomalies = if opts.threads.is_some() {
        run_parallel(opts, &source, inputs, &obs, &mut out, &mut output_lines)?
    } else {
        run_sequential(opts, &source, inputs, &obs, &mut out, &mut output_lines)?
    };

    // Report detected anomalies and, when `--flight-dir` is set, drain
    // the flight recorder into a forensic bundle.
    obs.count_flight_rings();
    obs.count_anomalies(&anomalies);
    if !anomalies.is_empty() {
        let _ = writeln!(out, "\nanomalies detected:");
        for a in &anomalies {
            let _ = writeln!(out, "  {}: {}", a.kind, a.detail);
        }
        if let Some(dir) = &opts.flight_dir {
            let snapshot = obs.snapshot();
            let mode = match opts.threads {
                Some(n) => format!("parallel({n} threads)"),
                None => "sequential".to_owned(),
            };
            let compute = opts.compute_threads;
            let spec = BundleSpec {
                anomalies: &anomalies,
                script: &source,
                inputs: &raw_inputs,
                seed: opts.seed,
                events: &obs.drain_flight(),
                snapshot: snapshot.as_ref(),
                repro: flight::repro_command(opts),
                context: vec![
                    ("mode".to_owned(), mode),
                    (
                        "compute_threads".to_owned(),
                        compute.map_or("inline".to_owned(), |n| n.to_string()),
                    ),
                    ("verify_mode".to_owned(), opts.verify_mode.name().to_owned()),
                ],
            };
            let line = obs.write_bundle(dir, &format!("bundle-seed{}", opts.seed), &spec)?;
            let _ = writeln!(out, "{line}");
        }
    }
    obs.finish(&mut out, false, &input_lines, &output_lines)?;
    Ok(out)
}

/// The default path: `r` replicas of every job share one simulated
/// cluster under the sequential [`ClusterBft`] pipeline, and `--fault N`
/// names a node. Each published output is rendered from the file its
/// name holds in storage, and its `outputs:` line pushed on `renders`.
fn run_sequential(
    opts: &CliOptions,
    source: &str,
    inputs: HashMap<String, FileData>,
    obs: &Observability<'_>,
    out: &mut String,
    renders: &mut Vec<String>,
) -> Result<Vec<Anomaly>, Box<dyn Error>> {
    let mut builder = Cluster::builder()
        .nodes(opts.nodes)
        .slots_per_node(opts.slots)
        .seed(opts.seed)
        .obs(obs.obs.clone(), 0);
    for &(node, behavior) in &opts.faults {
        builder = builder.node_behavior(node, behavior);
    }
    let mut config = JobConfig::builder()
        .expected_failures(opts.f)
        .replication(opts.replication)
        .vp_policy(VpPolicy::Marked(opts.points))
        .adversary(opts.adversary)
        .digest_granularity(opts.granularity)
        .combiners(opts.combiners)
        .optimize_plans(opts.optimize);
    if let Some(n) = opts.compute_threads {
        config = config.compute_threads(n);
    }
    if let Some(n) = opts.batch_size {
        config = config.batch_records(n);
    }
    let mut cbft = ClusterBft::new(builder.build(), config.build());
    for (name, data) in inputs {
        cbft.load_input(&name, data)?;
    }

    let outcome = cbft.submit_script(source)?;
    let _ = writeln!(out, "{outcome}");
    let _ = writeln!(
        out,
        "replicas per attempt: {:?}   digest reports: {}",
        outcome.replicas_per_attempt(),
        outcome.digest_reports()
    );
    for name in outcome.outputs() {
        let file = cbft
            .cluster()
            .storage()
            .handle(name)
            .ok_or_else(|| format!("published output '{name}' is missing from storage"))?;
        render_timed(out, renders, name, &file, opts.show_rows);
    }
    if let Some(analyzer) = cbft.fault_analyzer() {
        if !analyzer.suspects().is_empty() {
            let _ = writeln!(out, "\nsuspect sets: {:?}", analyzer.suspects());
        }
    }
    Ok(flight::detect_sequential_anomalies(&outcome))
}

/// The `--threads` path: replicas run on worker threads in isolated
/// clusters, digests stream into the verifier live, and faults target
/// replicas rather than nodes. Each published output is rendered from
/// the winning replica's file, and its `outputs:` line pushed on
/// `renders`.
fn run_parallel(
    opts: &CliOptions,
    source: &str,
    inputs: HashMap<String, FileData>,
    obs: &Observability<'_>,
    out: &mut String,
    renders: &mut Vec<String>,
) -> Result<Vec<Anomaly>, Box<dyn Error>> {
    let mut exec = ParallelExecutor::observed(executor_config(opts), obs.obs.clone());
    for (name, data) in inputs {
        exec.load_input(&name, data)?;
    }
    for &(uid, behavior) in &opts.faults {
        exec.inject_fault(uid, behavior);
    }
    let plan = Script::parse(source)?.into_plan();
    let plan = if opts.optimize {
        crate::dataflow::optimize::optimize(&plan)
    } else {
        plan
    };
    let outcome = exec.run_plan(plan)?;

    let _ = writeln!(
        out,
        "{}   replicas per round: {:?}   digest reports: {}",
        if outcome.verified() {
            "VERIFIED"
        } else {
            "NOT VERIFIED"
        },
        outcome.replicas_per_round(),
        outcome.transcript().len(),
    );
    if outcome.verify_mode() != VerifyMode::Replicate {
        let re = outcome.reexec();
        let _ = writeln!(
            out,
            "verify mode: {}   spot checks: sampled={} of {} tasks rerun={} confirmed={} mismatched={}{}",
            outcome.verify_mode().name(),
            re.sampled,
            re.tasks_total,
            re.reexecuted,
            re.confirmed,
            re.mismatched,
            if re.escalated {
                "   escalated to replication"
            } else {
                ""
            },
        );
        if !outcome.verified() {
            // A withheld output is one copy-paste from re-execution:
            // the command pins seed, verify mode, sample rate, threads.
            let _ = writeln!(out, "repro: {}", flight::repro_command(opts));
        }
    }
    if !outcome.deviant_replicas().is_empty() {
        let _ = writeln!(out, "deviant replicas: {:?}", outcome.deviant_replicas());
    }
    if !outcome.omitted_replicas().is_empty() {
        let _ = writeln!(out, "omitted replicas: {:?}", outcome.omitted_replicas());
    }
    for (name, file) in outcome.published() {
        render_timed(out, renders, name, file, opts.show_rows);
    }
    let snapshot = obs.snapshot();
    Ok(flight::detect_parallel_anomalies(
        &outcome,
        snapshot.as_ref(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Value;
    use crate::dataflow::Batch;

    /// Held for writing by the one test that mutates `CBFT_SEED`, for
    /// reading by every `parse`: a seedless parse racing that test would
    /// otherwise read its invalid value and fail.
    static ENV: std::sync::RwLock<()> = std::sync::RwLock::new(());

    /// Held by the test that counts `rows_materialized` process-wide, and
    /// by the one test here that builds rows (the loader edge cases).
    static ROWS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn parse(args: &[&str]) -> Result<CliOptions, UsageError> {
        let _env = ENV
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_full_invocation() {
        let opts = parse(&[
            "job.pig",
            "--input",
            "edges=edges.csv",
            "--nodes",
            "32",
            "--f",
            "2",
            "--replication",
            "quorum",
            "--points",
            "3",
            "--adversary",
            "weak",
            "--fault",
            "4:commission:0.5",
            "--fault",
            "7:crash",
            "--combiners",
            "--show",
            "5",
        ])
        .unwrap();
        assert_eq!(opts.script, "job.pig");
        assert_eq!(
            opts.inputs,
            vec![("edges".to_owned(), "edges.csv".to_owned())]
        );
        assert_eq!(opts.nodes, 32);
        assert_eq!(opts.f, 2);
        assert_eq!(opts.replication, Replication::Quorum);
        assert_eq!(opts.points, 3);
        assert_eq!(opts.adversary, Adversary::Weak);
        assert_eq!(opts.faults.len(), 2);
        assert_eq!(
            opts.faults[0],
            (4, Behavior::Commission { probability: 0.5 })
        );
        assert_eq!(opts.faults[1], (7, Behavior::Crashed));
        assert!(opts.combiners);
        assert_eq!(opts.show_rows, 5);
    }

    /// `--combiners` is read on the sequential path alone: with
    /// `--threads` the run would ignore it, so the pair is refused.
    #[test]
    fn combiners_with_threads_is_a_usage_error() {
        assert!(parse(&["s.pig", "--combiners"]).unwrap().combiners);
        for threads in ["0", "2"] {
            let err = parse(&["s.pig", "--combiners", "--threads", threads]).unwrap_err();
            assert!(
                err.0.contains("--combiners") && err.0.contains("--threads"),
                "{err}"
            );
        }
        let err = parse(&["s.pig", "--threads", "2", "--combiners"]).unwrap_err();
        assert!(err.0.contains("--combiners"), "{err}");
    }

    /// `--sample-rate` is read by the sampling tiers alone: under the
    /// replicate tier, named or by default, it is refused.
    #[test]
    fn sample_rate_outside_a_sampling_tier_is_a_usage_error() {
        for args in [
            &["s.pig", "--sample-rate", "0.5"][..],
            &["s.pig", "--threads", "2", "--sample-rate", "0.5"],
            &[
                "s.pig",
                "--threads",
                "2",
                "--verify-mode",
                "replicate",
                "--sample-rate",
                "0.5",
            ],
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.0.contains("--sample-rate") && err.0.contains("--verify-mode"),
                "{err}"
            );
        }
        for mode in ["sample", "hybrid"] {
            let args = [
                "s.pig",
                "--sample-rate",
                "0.5",
                "--threads",
                "2",
                "--verify-mode",
                mode,
            ];
            assert_eq!(parse(&args).unwrap().sample_rate, Some(0.5));
        }
    }

    #[test]
    fn exact_replication_parses_from_integer() {
        let opts = parse(&["s.pig", "--replication", "5"]).unwrap();
        assert_eq!(opts.replication, Replication::Exact(5));
    }

    #[test]
    fn missing_script_is_an_error() {
        let err = parse(&["--nodes", "4"]).unwrap_err();
        assert!(err.0.contains("missing script"));
    }

    #[test]
    fn bad_arguments_are_reported() {
        assert!(parse(&["s.pig", "--nodes"]).is_err());
        assert!(parse(&["s.pig", "--nodes", "four"]).is_err());
        assert!(parse(&["s.pig", "--wat"]).is_err());
        assert!(parse(&["s.pig", "--fault", "3"]).is_err());
        assert!(parse(&["s.pig", "--fault", "3:meteor"]).is_err());
        assert!(parse(&["s.pig", "--input", "justname"]).is_err());
        assert!(parse(&["s.pig", "--adversary", "medium"]).is_err());
    }

    #[test]
    fn record_parsing_round_trips() {
        let r = parse_record("3, hello ,null,-42");
        assert_eq!(
            r.fields(),
            &[
                Value::Int(3),
                Value::str("hello"),
                Value::Null,
                Value::Int(-42)
            ]
        );
        assert_eq!(render_record(&r), "3,hello,null,-42");
    }

    #[test]
    fn outputs_render_field_by_field_like_render_record() {
        let rows = vec![
            parse_record("3, hello ,null,-42"),
            Record::new(vec![
                Value::Null,
                Value::Bag(vec![parse_record("1,a"), parse_record("null,")]),
            ]),
            Record::new(vec![]),
            parse_record("only"),
        ];
        let mut out = String::new();
        render_output(&mut out, "o", &FileData::from(rows.clone()), 3);
        let lines: Vec<String> = rows.iter().map(render_record).collect();
        assert_eq!(lines[0], "3,hello,null,-42");
        assert_eq!(lines[1], r#"null,{(1, "a"), (null, "")}"#);
        assert_eq!(
            out,
            format!(
                "\n== o (4 records) ==\n{}\n{}\n{}\n... (1 more)\n",
                lines[0], lines[1], lines[2]
            )
        );
    }

    /// Input files at the edges of the CSV-ish grammar: `cbft` prints the
    /// same report whether the file was parsed into columns or (with
    /// `--batch-size 0`) into records, on both execution paths; every
    /// file but the ragged one does take the columnar loader, and that
    /// loader builds the batch the record loader's rows convert to.
    #[test]
    fn loader_edge_cases_print_the_same_report_from_columns_and_from_records() {
        let _rows = ROWS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cases = [
            ("empty", ""),
            ("blank only", "\n  \n\t\n"),
            ("crlf", "1,2\r\n3,4\r\n\r\n1,9\r\n"),
            ("spaces", " 1 , a b \n2,  x\n  1,a b  "),
            ("null spellings", "NULL,1\nNull,2\nnull,3\nnul,4"),
            (
                "integer spellings",
                "+5,1\n-0,2\n007,3\n5,4\n0x7,5\n1_0,6\n- 1,7",
            ),
            (
                "past i64",
                "9223372036854775808,1\n9223372036854775807,2\n-9223372036854775809,3",
            ),
            ("nulls then text", "null,1\nnull,2\nabc,3\nnull,4"),
            ("ints then text", "1,1\n2,2\nabc,3\n4,4\nnull,5"),
            ("trailing comma", "1,\n2,\n1,x\n"),
            ("first line blank", "\n\n1,2\n3,4"),
            ("one column", "7\n7\n\n8"),
            ("ragged", "1,2\n3\n4,5,6\n1,2"),
        ];
        let dir = std::env::temp_dir().join(format!("cbft_cli_edges_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(
            &script,
            "a = LOAD 'in' AS (x, y);
             d = DISTINCT a;
             STORE d INTO 'rows';
             g = GROUP a BY x;
             c = FOREACH g GENERATE group, COUNT(a) AS n, MAX(a.y) AS hi;
             STORE c INTO 'groups';",
        )
        .unwrap();
        for (name, text) in cases {
            let data = dir.join("in.csv");
            std::fs::write(&data, text).unwrap();
            let path = data.to_str().unwrap();

            let (loaded, raw, load) = load_input("in", path, true).unwrap();
            assert_eq!(raw, text, "{name}");
            let ragged = "bytes, rows (ragged: line 2 has 1 fields, line 1 has 2), load ";
            let plane = if name == "ragged" {
                ragged
            } else {
                "bytes, columnar, load "
            };
            assert!(load.line("in").contains(plane), "{name}");
            let rows: Vec<Record> = text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(parse_record)
                .collect();
            assert_eq!(&**loaded.rows(), &rows[..], "{name}");
            assert_eq!(loaded.batch().is_some(), name != "ragged", "{name}");
            assert_eq!(
                loaded.batch(),
                Batch::from_records(&rows).as_ref(),
                "{name}"
            );
            let (by_records, _, load) = load_input("in", path, false).unwrap();
            assert!(by_records.batch().is_none() && load.line("in").contains("bytes, rows, load "));

            for path_flags in [&[][..], &["--threads", "2"], &["--combiners"]] {
                let report = |loader_flags: &[&str]| {
                    let input = format!("in={path}");
                    let mut args = vec![script.to_str().unwrap(), "--input", &input];
                    args.extend([
                        "--seed",
                        "1",
                        "--show",
                        "100",
                        "--replication",
                        "optimistic",
                    ]);
                    args.extend(path_flags);
                    args.extend(loader_flags);
                    run(&parse(&args).unwrap()).unwrap()
                };
                let columnar = report(&[]);
                assert!(columnar.contains("VERIFIED"), "{name}: {columnar}");
                assert!(
                    columnar.contains(&format!("== rows ({} records) ==", {
                        let mut distinct = rows.clone();
                        distinct.sort();
                        distinct.dedup();
                        distinct.len()
                    })),
                    "{name}: {columnar}"
                );
                assert_eq!(columnar, report(&["--batch-size", "0"]), "{name}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Publication hands over the winning file and the report is written
    /// from its columns: a GROUP → COUNT run builds no row on either path,
    /// and prints the bytes the row plane prints.
    #[test]
    fn a_published_report_builds_no_row_on_either_path() {
        let _rows = ROWS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("cbft_cli_publish_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();
        let input = format!("edges={}", data.to_str().unwrap());

        for path_flags in [&[][..], &["--threads", "2"]] {
            let report = |plane_flags: &[&str]| {
                let mut args = vec![script.to_str().unwrap(), "--input", &input];
                args.extend(["--seed", "1", "--show", "100"]);
                args.extend(path_flags);
                args.extend(plane_flags);
                run(&parse(&args).unwrap()).unwrap()
            };
            let before = data_plane::snapshot();
            let columnar = report(&[]);
            let built = data_plane::snapshot().since(&before).rows_materialized;
            assert_eq!(built, 0, "{path_flags:?}: {columnar}");
            assert!(
                columnar.contains("== counts (5 records) ==\n"),
                "{columnar}"
            );
            assert_eq!(columnar, report(&["--batch-size", "0"]), "{path_flags:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_run_from_files() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();

        // Explicit --seed: immune to CBFT_SEED set by the seed-resolution
        // test running in a sibling thread.
        let opts = parse(&[
            script.to_str().unwrap(),
            "--input",
            &format!("edges={}", data.to_str().unwrap()),
            "--fault",
            "2:commission",
            "--seed",
            "1",
        ])
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("VERIFIED"), "{report}");
        assert!(report.contains("== counts (5 records) =="), "{report}");
        assert!(
            report.contains("0,10"),
            "each user has 10 followers: {report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs a script with two `STORE … INTO 'x'` over a two-line input
    /// with `flags` and returns the error `run` reports.
    fn repeated_store_error(flags: &[&str]) -> String {
        let dir = std::env::temp_dir().join(format!(
            "cbft_cli_dup_store_{}_{}",
            std::process::id(),
            flags.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        let source = "a = LOAD 'e' AS (u, f);\nSTORE a INTO 'x';\n\
                      b = FILTER a BY f IS NOT NULL;\nSTORE b INTO 'x';";
        std::fs::write(&script, source).unwrap();
        let data = dir.join("e.csv");
        std::fs::write(&data, "1,2\n3,4\n").unwrap();
        let input = format!("e={}", data.to_str().unwrap());
        let mut args = vec![script.to_str().unwrap(), "--input", &input, "--seed", "1"];
        args.extend(flags);
        let err = run(&parse(&args).unwrap()).unwrap_err().to_string();
        std::fs::remove_dir_all(&dir).ok();
        err
    }

    const REPEATED_STORE: &str = "parse error on line 4: output 'x' is stored twice, \
        by vertex 1 and by vertex 3: an output is written once \
        (the STORE statements on lines 2 and 4)";

    #[test]
    fn a_repeated_store_name_is_rejected_on_the_sequential_path() {
        assert_eq!(repeated_store_error(&[]), REPEATED_STORE);
    }

    #[test]
    fn a_repeated_store_name_is_rejected_on_the_parallel_path() {
        assert_eq!(repeated_store_error(&["--threads", "2"]), REPEATED_STORE);
    }

    #[test]
    fn threads_flag_parses() {
        assert_eq!(parse(&["s.pig"]).unwrap().threads, None);
        assert_eq!(
            parse(&["s.pig", "--threads", "4"]).unwrap().threads,
            Some(4)
        );
        assert_eq!(
            parse(&["s.pig", "--threads", "0"]).unwrap().threads,
            Some(0)
        );
        assert!(parse(&["s.pig", "--threads"]).is_err());
        assert!(parse(&["s.pig", "--threads", "many"]).is_err());
    }

    #[test]
    fn compute_threads_flag_parses() {
        assert_eq!(parse(&["s.pig"]).unwrap().compute_threads, None);
        assert_eq!(
            parse(&["s.pig", "--compute-threads", "8"])
                .unwrap()
                .compute_threads,
            Some(8)
        );
        assert_eq!(
            parse(&["s.pig", "--compute-threads", "0"])
                .unwrap()
                .compute_threads,
            Some(0)
        );
        assert!(parse(&["s.pig", "--compute-threads"]).is_err());
        assert!(parse(&["s.pig", "--compute-threads", "lots"]).is_err());
    }

    #[test]
    fn batch_size_flag_parses() {
        assert_eq!(parse(&["s.pig"]).unwrap().batch_size, None);
        assert_eq!(
            parse(&["s.pig", "--batch-size", "256"]).unwrap().batch_size,
            Some(256)
        );
        assert_eq!(
            parse(&["s.pig", "--batch-size", "0"]).unwrap().batch_size,
            Some(0),
            "0 selects the row-at-a-time path"
        );
        assert!(parse(&["s.pig", "--batch-size"]).is_err());
        assert!(parse(&["s.pig", "--batch-size", "wide"]).is_err());
    }

    #[test]
    fn compute_threads_run_matches_inline_report() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_pool_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();

        let base = vec![
            script.to_str().unwrap().to_owned(),
            "--input".to_owned(),
            format!("edges={}", data.to_str().unwrap()),
            "--seed".to_owned(),
            "1".to_owned(),
        ];
        let inline = run(&parse_args(base.clone()).unwrap()).unwrap();
        let mut pooled_args = base;
        pooled_args.extend(["--compute-threads".to_owned(), "4".to_owned()]);
        let pooled = run(&parse_args(pooled_args).unwrap()).unwrap();
        assert!(inline.contains("VERIFIED"), "{inline}");
        assert_eq!(inline, pooled, "pool size must not change the report");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_parallel_run_from_files() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_par_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();

        // --fault targets replica 0 here: the deviant replica forces an
        // escalation round, and the run still verifies.
        let opts = parse(&[
            script.to_str().unwrap(),
            "--input",
            &format!("edges={}", data.to_str().unwrap()),
            "--threads",
            "2",
            "--replication",
            "optimistic",
            "--fault",
            "0:commission",
            "--seed",
            "1",
        ])
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.starts_with("VERIFIED"), "{report}");
        assert!(report.contains("replicas per round: [2, 1]"), "{report}");
        assert!(report.contains("deviant replicas: {0}"), "{report}");
        assert!(report.contains("== counts (5 records) =="), "{report}");
        assert!(
            report.contains("0,10"),
            "each user has 10 followers: {report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_mode_flags_parse_and_validate() {
        assert_eq!(
            parse(&["s.pig"]).unwrap().verify_mode,
            VerifyMode::Replicate
        );
        assert_eq!(parse(&["s.pig"]).unwrap().sample_rate, None);
        let opts = parse(&[
            "s.pig",
            "--threads",
            "2",
            "--verify-mode",
            "hybrid",
            "--sample-rate",
            "0.25",
        ])
        .unwrap();
        assert_eq!(opts.verify_mode, VerifyMode::Hybrid);
        assert_eq!(opts.sample_rate, Some(0.25));
        assert_eq!(
            parse(&["s.pig", "--threads", "2", "--verify-mode", "sample"])
                .unwrap()
                .verify_mode,
            VerifyMode::Sample
        );
        // replicate never needs --threads.
        assert!(parse(&["s.pig", "--verify-mode", "replicate"]).is_ok());

        let err = parse(&["s.pig", "--verify-mode", "sample"]).unwrap_err();
        assert!(err.0.contains("add --threads"), "{err}");
        let err = parse(&["s.pig", "--verify-mode", "spotty"]).unwrap_err();
        assert!(err.0.contains("replicate|sample|hybrid"), "{err}");
        let err = parse(&["s.pig", "--sample-rate", "1.5"]).unwrap_err();
        assert!(err.0.contains("within [0, 1]"), "{err}");
        let err = parse(&["s.pig", "--sample-rate", "-0.1"]).unwrap_err();
        assert!(err.0.contains("within [0, 1]"), "{err}");
        assert!(parse(&["s.pig", "--sample-rate", "lots"]).is_err());
    }

    #[test]
    fn end_to_end_sample_mode_run_from_files() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_sample_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();

        let opts = parse(&[
            script.to_str().unwrap(),
            "--input",
            &format!("edges={}", data.to_str().unwrap()),
            "--threads",
            "2",
            "--verify-mode",
            "sample",
            "--sample-rate",
            "1.0",
            "--health-report",
            "--seed",
            "1",
        ])
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.starts_with("VERIFIED"), "{report}");
        assert!(report.contains("replicas per round: [1]"), "{report}");
        assert!(report.contains("verify mode: sample"), "{report}");
        // The denominator is printed; at rate 1.0 every task is checked.
        let (_, after) = report
            .split_once("spot checks: sampled=")
            .expect("spot-check line");
        let counts: Vec<&str> = after.split_whitespace().take(4).collect();
        assert_eq!(counts[1..], ["of", counts[0], "tasks"], "{report}");
        assert_ne!(counts[0], "0", "{report}");
        assert!(
            report.contains(&format!(
                "sampled={} of {} tasks  rerun=",
                counts[0], counts[0]
            )),
            "health report carries the denominator too: {report}"
        );
        assert!(report.contains("mismatched=0"), "{report}");
        assert!(!report.contains("escalated"), "clean run never escalates");
        assert!(report.contains("== counts (5 records) =="), "{report}");
        assert!(
            report.contains("verification tier (sampled partial re-execution):"),
            "{report}"
        );
        assert!(report.contains("mode=sample"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_flags_parse() {
        assert_eq!(parse(&["s.pig"]).unwrap().trace, None);
        assert!(!parse(&["s.pig"]).unwrap().trace_summary);
        let opts = parse(&["s.pig", "--trace", "out.json", "--trace-summary"]).unwrap();
        assert_eq!(opts.trace.as_deref(), Some("out.json"));
        assert!(opts.trace_summary);
        assert!(parse(&["s.pig", "--trace"]).is_err());
    }

    #[test]
    fn trace_run_writes_chrome_json_and_summary() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_trace_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();
        let trace_file = dir.join("trace.json");

        for threads in [None, Some("2")] {
            let mut args = vec![
                script.to_str().unwrap().to_owned(),
                "--input".to_owned(),
                format!("edges={}", data.to_str().unwrap()),
                "--trace".to_owned(),
                trace_file.to_str().unwrap().to_owned(),
                "--trace-summary".to_owned(),
                "--seed".to_owned(),
                "1".to_owned(),
            ];
            if let Some(t) = threads {
                args.push("--threads".to_owned());
                args.push(t.to_owned());
            }
            let opts = parse_args(args).unwrap();
            let report = run(&opts).unwrap();
            assert!(report.contains("VERIFIED"), "{report}");
            assert!(report.contains("verification lag"), "{report}");
            assert!(report.contains("digest_bytes_hashed"), "{report}");
            let line = "  inputs:\n    edges: 50 rows, 239 bytes, columnar, load ";
            assert!(report.contains(line), "{report}");
            let line = "  outputs:\n    counts: 5 rows, columnar, render ";
            assert!(report.contains(line), "{report}");

            let json = std::fs::read_to_string(&trace_file).unwrap();
            assert!(json.starts_with("{\"traceEvents\":["), "{json}");
            assert!(json.contains("\"ph\":\"B\""), "spans recorded: {json}");
            assert!(json.contains("\"name\":\"quorum\""), "{json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flags_parse() {
        let defaults = parse(&["s.pig"]).unwrap();
        assert_eq!(defaults.metrics, None);
        assert_eq!(defaults.metrics_json, None);
        assert!(!defaults.health_report);
        let opts = parse(&[
            "s.pig",
            "--metrics",
            "m.prom",
            "--metrics-json",
            "m.json",
            "--health-report",
        ])
        .unwrap();
        assert_eq!(opts.metrics.as_deref(), Some("m.prom"));
        assert_eq!(opts.metrics_json.as_deref(), Some("m.json"));
        assert!(opts.health_report);
        assert!(parse(&["s.pig", "--metrics"]).is_err());
        assert!(parse(&["s.pig", "--metrics-json"]).is_err());
    }

    /// One canonical event on replica track 0, emitted through `obs`.
    fn emit_one(obs: &Observability<'_>) {
        obs.obs
            .tracer
            .emit(crate::trace::TraceEvent::instant("probe", "test").on(0, 0));
    }

    #[test]
    fn no_flight_or_trace_flag_means_no_recorder_and_a_disabled_tracer() {
        let opts = parse(&["s.pig", "--metrics", "m.prom", "--health-report"]).unwrap();
        let obs = Observability::start(opts.report_flags(), false);
        assert!(obs.flight_rec.is_none());
        assert!(obs.sink.is_none());
        assert!(!obs.obs.tracer.enabled());
        emit_one(&obs);
        assert!(obs.drain_flight().is_empty());
        // Without a recorder its ring counters are not exported.
        obs.count_flight_rings();
        let prom = prometheus_text(&obs.obs.metrics.snapshot());
        assert!(!prom.contains(metric_names::FLIGHT_EVENTS), "{prom}");
        assert!(!prom.contains(metric_names::FLIGHT_EVICTED), "{prom}");
    }

    #[test]
    fn flight_dir_attaches_the_recorder_and_a_live_metrics_hub() {
        let opts = parse(&["s.pig", "--flight-dir", "flights"]).unwrap();
        let obs = Observability::start(opts.report_flags(), false);
        assert!(obs.flight_rec.is_some());
        assert!(obs.sink.is_none());
        assert!(obs.obs.tracer.enabled());
        assert!(obs.obs.metrics.enabled());
        emit_one(&obs);
        obs.count_flight_rings();
        let prom = prometheus_text(&obs.obs.metrics.snapshot());
        assert!(prom.contains(metric_names::FLIGHT_EVENTS), "{prom}");
        assert_eq!(obs.drain_flight().len(), 1);
    }

    #[test]
    fn trace_alone_feeds_only_its_sink() {
        for flag in [&["--trace", "t.json"][..], &["--trace-summary"][..]] {
            let args: Vec<&str> = std::iter::once("s.pig")
                .chain(flag.iter().copied())
                .collect();
            let opts = parse(&args).unwrap();
            let obs = Observability::start(opts.report_flags(), false);
            assert!(obs.flight_rec.is_none(), "{flag:?}");
            assert!(obs.obs.tracer.enabled(), "{flag:?}");
            assert!(!obs.obs.metrics.enabled(), "{flag:?}");
            emit_one(&obs);
            assert!(obs.drain_flight().is_empty(), "{flag:?}");
            assert_eq!(obs.sink.as_ref().map(|s| s.len()), Some(1), "{flag:?}");
        }
    }

    #[test]
    fn flight_dir_and_trace_both_see_every_event() {
        let opts = parse(&["s.pig", "--flight-dir", "flights", "--trace-summary"]).unwrap();
        let obs = Observability::start(opts.report_flags(), false);
        emit_one(&obs);
        assert_eq!(obs.sink.as_ref().map(|s| s.len()), Some(1));
        assert_eq!(obs.drain_flight().len(), 1);
    }

    #[test]
    fn metrics_run_writes_exports_and_health_report() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_metrics_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();
        let prom_file = dir.join("m.prom");
        let json_file = dir.join("m.json");

        // Chaos run: replica 0 commits commission faults, so the health
        // report must name it with nonzero mismatch counters.
        let opts = parse(&[
            script.to_str().unwrap(),
            "--input",
            &format!("edges={}", data.to_str().unwrap()),
            "--threads",
            "2",
            "--replication",
            "optimistic",
            "--fault",
            "0:commission",
            "--metrics",
            prom_file.to_str().unwrap(),
            "--metrics-json",
            json_file.to_str().unwrap(),
            "--health-report",
            "--seed",
            "1",
        ])
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("VERIFIED"), "{report}");
        assert!(report.contains("health report"), "{report}");
        assert!(report.contains("replica 0:"), "{report}");
        assert!(report.contains("[SUSPECT]"), "{report}");
        assert!(
            report.contains("suspected faulty replicas: {0}"),
            "{report}"
        );

        let prom = std::fs::read_to_string(&prom_file).unwrap();
        crate::metrics::validate_prometheus_text(&prom)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{prom}"));
        assert!(prom.contains("cbft_replica_mismatches_total"), "{prom}");
        let json = std::fs::read_to_string(&json_file).unwrap();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("cbft_task_sim_us"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The whole seed-resolution story in one test function: precedence
    /// (flag > CBFT_SEED > default) and the round trip that an
    /// env-seeded run equals a flag-seeded run on both execution paths.
    /// Kept as a single `#[test]` because it mutates process-global
    /// environment state — splitting it would race under the parallel
    /// test harness.
    #[test]
    fn seed_resolution_precedence_and_round_trip() {
        let _env = ENV
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| (*s).to_owned()));
        // Precedence, via resolve_seed directly.
        std::env::remove_var("CBFT_SEED");
        assert_eq!(resolve_seed(None).unwrap(), 1, "default");
        assert_eq!(resolve_seed(Some(9)).unwrap(), 9, "flag");
        std::env::set_var("CBFT_SEED", "7");
        assert_eq!(resolve_seed(None).unwrap(), 7, "environment");
        assert_eq!(resolve_seed(Some(9)).unwrap(), 9, "flag beats environment");
        std::env::set_var("CBFT_SEED", "not-a-seed");
        assert!(resolve_seed(None).is_err(), "invalid CBFT_SEED is an error");
        assert_eq!(resolve_seed(Some(9)).unwrap(), 9, "flag ignores bad env");
        std::env::remove_var("CBFT_SEED");

        // Precedence, via parse_args.
        assert_eq!(parse(&["s.pig"]).unwrap().seed, 1);
        assert_eq!(parse(&["s.pig", "--seed", "9"]).unwrap().seed, 9);
        std::env::set_var("CBFT_SEED", "7");
        assert_eq!(parse(&["s.pig"]).unwrap().seed, 7);
        assert_eq!(parse(&["s.pig", "--seed", "9"]).unwrap().seed, 9);
        std::env::remove_var("CBFT_SEED");

        // Round trip: an env-seeded run is byte-identical to the same
        // run seeded by flag, on the sequential and --threads paths.
        let dir = std::env::temp_dir().join(format!("cbft_cli_seed_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();

        for extra in [&[][..], &["--threads", "2"][..]] {
            let mut flag_args = vec![
                script.to_str().unwrap().to_owned(),
                "--input".to_owned(),
                format!("edges={}", data.to_str().unwrap()),
                "--seed".to_owned(),
                "7".to_owned(),
            ];
            flag_args.extend(extra.iter().map(|s| (*s).to_owned()));
            let flag_report = run(&parse_args(flag_args.clone()).unwrap()).unwrap();

            std::env::set_var("CBFT_SEED", "7");
            let env_args: Vec<String> = flag_args
                .iter()
                .filter(|a| *a != "--seed" && *a != "7")
                .cloned()
                .collect();
            let env_opts = parse_args(env_args).unwrap();
            std::env::remove_var("CBFT_SEED");
            assert_eq!(env_opts.seed, 7);
            let env_report = run(&env_opts).unwrap();
            assert_eq!(
                flag_report, env_report,
                "CBFT_SEED and --seed runs must match (extra: {extra:?})"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_valued_flags_are_rejected_at_parse_time() {
        for (args, needle) in [
            (&["s.pig", "--nodes", "0"][..], "--nodes must be at least 1"),
            (&["s.pig", "--slots", "0"][..], "--slots must be at least 1"),
            (
                &["s.pig", "--granularity", "0"][..],
                "--granularity must be at least 1",
            ),
            (
                &["s.pig", "--replication", "0"][..],
                "--replication must be at least 1",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.0.contains(needle), "{args:?}: {err}");
        }
        // --threads 0 stays valid: the documented one-thread-per-replica
        // mode, pinned separately by threads_flag_parses. Likewise
        // --compute-threads 0 (one per host core) and --f 0.
        assert_eq!(
            parse(&["s.pig", "--threads", "0"]).unwrap().threads,
            Some(0)
        );
    }

    #[test]
    fn fault_on_a_missing_node_is_a_usage_error_not_a_panic() {
        // Sequential path: `--fault N` names a node of the shared cluster.
        let err = parse(&["s.pig", "--fault", "99:commission"]).unwrap_err();
        assert!(err.0.contains("--fault node 99"), "{err}");
        assert!(err.0.contains("--nodes 16"), "{err}");
        let err = parse(&["s.pig", "--nodes", "4", "--fault", "4:crash"]).unwrap_err();
        assert!(err.0.contains("--fault node 4"), "{err}");
        // Checked after every flag is read: --nodes may follow --fault.
        let opts = parse(&["s.pig", "--fault", "99:commission", "--nodes", "128"]).unwrap();
        assert_eq!(opts.faults[0].0, 99);
        assert!(parse(&["s.pig", "--nodes", "4", "--fault", "3:crash"]).is_ok());
        // With --threads the index names a replica, and one that never
        // runs stays the documented no-op.
        assert!(parse(&["s.pig", "--threads", "2", "--fault", "99:commission"]).is_ok());
    }

    #[test]
    fn fault_probability_outside_the_unit_interval_is_rejected() {
        for spec in [
            "0:commission:2.5",
            "0:omission:-0.1",
            "0:commission:nan",
            "0:omission:inf",
        ] {
            let err = parse(&["s.pig", "--fault", spec]).unwrap_err();
            assert!(
                err.0.contains("--fault probability must be within [0, 1]"),
                "{spec}: {err}"
            );
        }
        for (spec, p) in [("0:commission:0", 0.0), ("0:commission:1", 1.0)] {
            let opts = parse(&["s.pig", "--fault", spec]).unwrap();
            assert_eq!(opts.faults[0].1, Behavior::Commission { probability: p });
        }
    }

    #[test]
    fn a_fault_bound_whose_replica_count_overflows_is_a_usage_error() {
        assert_eq!(parse(&["s.pig", "--f", "5"]).unwrap().f, 5);
        let first_overflowing = (usize::MAX - 1) / 3 + 1;
        for f in [first_overflowing, usize::MAX] {
            let err = parse(&["s.pig", "--f", &f.to_string()]).unwrap_err();
            assert!(err.0.starts_with(&format!("--f {f} is too large")), "{err}");
        }
    }

    #[test]
    fn huge_batch_size_is_rejected_but_zero_stays_the_row_path() {
        assert_eq!(
            parse(&["s.pig", "--batch-size", "0"]).unwrap().batch_size,
            Some(0)
        );
        let err = parse(&["s.pig", "--batch-size", "18446744073709551615"]).unwrap_err();
        assert!(err.0.contains("unreasonably large"), "{err}");
        assert!(err.0.contains("use 0 for row-at-a-time"), "{err}");
    }

    #[test]
    fn missing_files_are_reported_with_their_paths() {
        let opts = parse(&["definitely_missing_script.pig"]).unwrap();
        let err = run(&opts).unwrap_err().to_string();
        assert!(
            err.contains("cannot read script 'definitely_missing_script.pig'"),
            "{err}"
        );

        let dir = std::env::temp_dir().join(format!("cbft_cli_noinput_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(&script, "a = LOAD 'edges' AS (u); STORE a INTO 'o';").unwrap();
        let opts = parse(&[
            script.to_str().unwrap(),
            "--input",
            "edges=definitely_missing_data.csv",
        ])
        .unwrap();
        let err = run(&opts).unwrap_err().to_string();
        assert!(
            err.contains("cannot read input 'edges' from 'definitely_missing_data.csv'"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_run_health_report_omits_mismatch_localization() {
        let dir = std::env::temp_dir().join(format!("cbft_cli_clean_{}", std::process::id()));
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
        let lines: Vec<String> = (0..50).map(|i| format!("{},{}", i % 5, i)).collect();
        std::fs::write(&data, lines.join("\n")).unwrap();

        // No faults: every replica agrees, so the health report must omit
        // the mismatch-localization section entirely rather than render
        // an empty or garbled one.
        let opts = parse(&[
            script.to_str().unwrap(),
            "--input",
            &format!("edges={}", data.to_str().unwrap()),
            "--threads",
            "2",
            "--health-report",
            "--seed",
            "1",
        ])
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.contains("VERIFIED"), "{report}");
        assert!(report.contains("health report"), "{report}");
        assert!(!report.contains("mismatch localization"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dot_mode_emits_graphviz() {
        let dir = std::env::temp_dir().join(format!("cbft_dot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("s.pig");
        std::fs::write(&script, "a = LOAD 'x' AS (y); STORE a INTO 'o';").unwrap();
        let opts = parse(&[script.to_str().unwrap(), "--dot"]).unwrap();
        let dot = run(&opts).unwrap();
        assert!(dot.starts_with("digraph plan {"), "{dot}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
