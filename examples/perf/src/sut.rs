//! Every in-process call into the system under test lives here, so a
//! change to a layer's public surface breaks exactly one file of the
//! benchmark. Functions take and return plain data; the callers put the
//! spans around them.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterbft_repro::cli::{self, CliOptions};
use clusterbft_repro::core::{
    Cluster, ClusterBft, JobConfig, ParallelExecutor, ParallelOutcome, Verifier, VpPolicy,
};
pub use clusterbft_repro::core::{ExecutorConfig, Record, StreamedReport};
use clusterbft_repro::dataflow::compile::{compile_plan, DataSource, JobGraph};
use clusterbft_repro::dataflow::{
    analyze, batch, interp, Batch, Expr, LogicalPlan, Operator, Script, SortOrder,
};
use clusterbft_repro::digest::{self, ChunkedDigest, ChunkedSummary, Digest, MerkleTree};
use clusterbft_repro::mapreduce::{
    data_plane, ComputePool, EngineEvent, ExecInput, ExecJob, JobOutcome,
};
use clusterbft_repro::server::sched::FairQueue;
use clusterbft_repro::server::{JobResult, JobServer, JobSpec, ServerConfig, SubmitOutcome};
use clusterbft_repro::server_cli::{self, DaemonOptions};
use clusterbft_repro::sim::{EventQueue, SimTime};
use clusterbft_repro::trace::{FlightRecorder, Tracer};
use clusterbft_repro::workloads::{airline, twitter, weather};

use crate::spans::Spans;

/// Which generator and script a job uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    Twitter,
    Airline,
    Weather,
}

impl Data {
    /// The name the script's `LOAD` expects.
    pub fn input_name(self) -> &'static str {
        match self {
            Data::Twitter => twitter::INPUT,
            Data::Airline => airline::INPUT,
            Data::Weather => weather::INPUT,
        }
    }

    /// The paper's analysis script over this data set (Fig. 8).
    pub fn script(self) -> &'static str {
        match self {
            Data::Twitter => twitter::FOLLOWER_SCRIPT,
            Data::Airline => airline::TOP_AIRPORTS_SCRIPT,
            Data::Weather => weather::AVERAGE_TEMPERATURE_SCRIPT,
        }
    }

    /// File stem for the script and its input.
    pub fn stem(self) -> &'static str {
        match self {
            Data::Twitter => "follower",
            Data::Airline => "airline",
            Data::Weather => "weather",
        }
    }

    /// Column names of the input, for the map-only probe script.
    fn columns(self) -> &'static [&'static str] {
        match self {
            Data::Twitter => &["user", "follower"],
            Data::Airline => &["origin", "dest", "month"],
            Data::Weather => &["station", "date", "temp"],
        }
    }

    /// `n` records, a function of `seed` alone (single-threaded).
    pub fn generate(self, seed: u64, n: usize) -> Vec<Record> {
        match self {
            Data::Twitter => twitter::generate(seed, n),
            Data::Airline => airline::generate(seed, n),
            Data::Weather => weather::generate(seed, n),
        }
    }
}

/// One record as the CSV-ish line `cbft` reads and prints.
pub fn render_record(r: &Record) -> String {
    cli::render_record(r)
}

/// The oracle's answer for one script over one input: every output's
/// rows, rendered and sorted, plus which outputs are `ORDER`ed (by which
/// column, descending or not) and therefore also checked for key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    pub rows: BTreeMap<String, Vec<String>>,
    pub ordered: BTreeMap<String, (usize, bool)>,
}

/// `(key column, descending)` when the stream stored by `store` comes out
/// of an `ORDER` (possibly through `LIMIT`s).
fn store_order(
    plan: &LogicalPlan,
    store: clusterbft_repro::dataflow::VertexId,
) -> Option<(usize, bool)> {
    let mut v = *plan.vertex(store).parents().first()?;
    loop {
        match plan.vertex(v).op() {
            Operator::Limit { .. } => v = *plan.vertex(v).parents().first()?,
            Operator::Order { key, order } => return Some((*key, *order == SortOrder::Desc)),
            _ => return None,
        }
    }
}

/// Runs the single-threaded reference interpreter — the correctness
/// oracle, independent of the engine. Hands the records back.
pub fn reference(
    script: &str,
    input_name: &str,
    records: Vec<Record>,
) -> Result<(Reference, Vec<Record>), String> {
    let plan = Script::parse(script)
        .map_err(|e| e.to_string())?
        .into_plan();
    let mut inputs = HashMap::from([(input_name.to_owned(), records)]);
    let result = interp::interpret(&plan, &inputs).map_err(|e| e.to_string())?;
    let mut reference = Reference::default();
    for (name, records) in result.outputs() {
        let mut rows: Vec<String> = records.iter().map(render_record).collect();
        rows.sort_unstable();
        reference.rows.insert(name.clone(), rows);
    }
    for store in plan.stores() {
        if let (Operator::Store { output }, Some(order)) =
            (plan.vertex(store).op(), store_order(&plan, store))
        {
            reference.ordered.insert(output.clone(), order);
        }
    }
    let records = inputs.remove(input_name).expect("inserted above");
    Ok((reference, records))
}

/// Parses the child's argument vector exactly as `cbft` would.
pub fn parse_cbft_args(args: &[String]) -> Result<CliOptions, String> {
    cli::parse_args(args.iter().cloned()).map_err(|e| e.to_string())
}

/// Parses the child's argument vector exactly as `cbftd` would.
pub fn parse_cbftd_args(args: &[String]) -> Result<DaemonOptions, String> {
    server_cli::parse_daemon_args(args.iter().cloned()).map_err(|e| e.to_string())
}

/// `cli::run` as one opaque call: what the `cbft` process does between
/// argument parsing and printing.
pub fn cli_run(opts: &CliOptions) -> Result<String, String> {
    cli::run(opts).map_err(|e| e.to_string())
}

/// `server_cli::run_daemon` as one opaque call.
pub fn daemon_run(opts: &DaemonOptions) -> Result<String, String> {
    server_cli::run_daemon(opts).map_err(|e| e.to_string())
}

/// Facts about one verified execution, from the outcome types.
#[derive(Debug, Default)]
pub struct RunFacts {
    pub verified: bool,
    pub replicas_run: usize,
    pub rounds: usize,
    pub digest_reports: u64,
    /// Modelled (virtual-clock) latency; a function of inputs and seed.
    pub sim_latency_s: f64,
    pub spot_sampled: u64,
    pub spot_reexecuted: u64,
    pub spot_records: u64,
    /// The streamed digest transcript (`--threads` path only).
    pub transcript: Vec<StreamedReport>,
    /// Every published output's rows, rendered as `cbft` prints them.
    pub rows: BTreeMap<String, Vec<String>>,
}

fn rendered<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<String> {
    records.into_iter().map(render_record).collect()
}

fn parallel_facts(outcome: &ParallelOutcome) -> RunFacts {
    let re = outcome.reexec();
    RunFacts {
        verified: outcome.verified(),
        replicas_run: outcome.total_replicas(),
        rounds: outcome.replicas_per_round().len(),
        digest_reports: outcome.transcript().len() as u64,
        sim_latency_s: outcome
            .transcript()
            .iter()
            .map(|r| r.report.at.as_micros())
            .max()
            .unwrap_or(0) as f64
            / 1e6,
        spot_sampled: re.sampled,
        spot_reexecuted: re.reexecuted,
        spot_records: re.records_reexecuted,
        transcript: outcome.transcript().to_vec(),
        rows: outcome
            .outputs()
            .iter()
            .map(|(name, records)| (name.clone(), rendered(records)))
            .collect(),
    }
}

fn render_rows(out: &mut String, name: &str, records: &[Record], show: usize) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "\n== {name} ({} records) ==", records.len());
    for r in records.iter().take(show) {
        let _ = writeln!(out, "{}", render_record(r));
    }
    if records.len() > show {
        let _ = writeln!(out, "... ({} more)", records.len() - show);
    }
}

/// The always-on flight recorder `cbft` attaches to every run.
fn flight_tracer() -> Tracer {
    Tracer::new(Arc::new(FlightRecorder::with_default_capacity()))
}

/// The executor configuration `cbft` builds from its options (see
/// `cli::run_parallel`); the sequential path's probes borrow its cluster
/// shape and seed.
pub fn executor_config(opts: &CliOptions) -> ExecutorConfig {
    let defaults = ExecutorConfig::default();
    let f = opts.f;
    ExecutorConfig {
        threads: opts.threads.unwrap_or(1),
        compute_threads: opts.compute_threads.unwrap_or(defaults.compute_threads),
        batch_records: opts.batch_size.unwrap_or(defaults.batch_records),
        expected_failures: f,
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

/// `cli::run` replayed stage by stage through the layers' public
/// functions, one span per stage under a `cli.run_staged` root:
/// `cli.read_parse`, `core.load_input`, `dataflow.parse_plan`
/// (`--threads` path; the sequential pipeline parses inside `core.run`),
/// `core.run`, `cli.render`. What the stages do not cover (building the
/// executor or cluster, dropping inputs) is the root's self time.
pub fn cli_run_staged(opts: &CliOptions, sp: &mut Spans) -> Result<RunFacts, String> {
    let root = sp.begin("cli.run_staged");
    let (loaded, _) = sp.time("cli.read_parse", || -> Result<_, String> {
        let source = std::fs::read_to_string(&opts.script).map_err(|e| e.to_string())?;
        let mut inputs = Vec::new();
        for (name, path) in &opts.inputs {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let records: Vec<Record> = text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(cli::parse_record)
                .collect();
            inputs.push((name.clone(), records));
        }
        Ok((source, inputs))
    });
    let (source, inputs) = loaded?;

    let facts = if opts.threads.is_some() {
        let mut exec = ParallelExecutor::new(executor_config(opts));
        exec.set_tracer(flight_tracer());
        for (name, records) in inputs {
            sp.time("core.load_input", || exec.load_input(&name, records))
                .0
                .map_err(|e| e.to_string())?;
        }
        for &(uid, behavior) in &opts.faults {
            exec.inject_fault(uid, behavior);
        }
        let plan = sp
            .time("dataflow.parse_plan", || {
                Script::parse(&source).map(Script::into_plan)
            })
            .0
            .map_err(|e| e.to_string())?;
        let outcome = sp
            .time("core.run", || exec.run_plan(plan))
            .0
            .map_err(|e| e.to_string())?;
        sp.time("cli.render", || {
            use std::fmt::Write as _;
            let mut out = String::new();
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
            if outcome.reexec().escalated {
                let _ = writeln!(
                    out,
                    "verify mode: {}   escalated to replication",
                    outcome.verify_mode().name()
                );
            }
            if !outcome.deviant_replicas().is_empty() {
                let _ = writeln!(out, "deviant replicas: {:?}", outcome.deviant_replicas());
            }
            for (name, records) in outcome.outputs() {
                render_rows(&mut out, name, records, opts.show_rows);
            }
            black_box(out);
        });
        sp.end(root);
        parallel_facts(&outcome)
    } else {
        let mut builder = Cluster::builder()
            .nodes(opts.nodes)
            .slots_per_node(opts.slots)
            .seed(opts.seed);
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
        cbft.set_tracer(flight_tracer());
        for (name, records) in inputs {
            sp.time("core.load_input", || cbft.load_input(&name, records))
                .0
                .map_err(|e| e.to_string())?;
        }
        let outcome = sp
            .time("core.run", || cbft.submit_script(&source))
            .0
            .map_err(|e| e.to_string())?;
        let published = |name: &String| {
            cbft.cluster()
                .storage()
                .peek(name)
                .ok_or_else(|| format!("published output '{name}' is missing"))
        };
        sp.time("cli.render", || -> Result<(), String> {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(out, "{outcome}");
            let _ = writeln!(
                out,
                "replicas per attempt: {:?}   digest reports: {}",
                outcome.replicas_per_attempt(),
                outcome.digest_reports()
            );
            for name in outcome.outputs() {
                render_rows(&mut out, name, published(name)?, opts.show_rows);
            }
            black_box(out);
            Ok(())
        })
        .0?;
        sp.end(root);
        let mut rows = BTreeMap::new();
        for name in outcome.outputs() {
            rows.insert(name.clone(), rendered(published(name)?));
        }
        RunFacts {
            verified: outcome.verified(),
            replicas_run: outcome.replicas_per_attempt().iter().sum(),
            rounds: outcome.attempts() as usize,
            digest_reports: outcome.digest_reports(),
            sim_latency_s: outcome.latency().as_secs_f64(),
            rows,
            ..RunFacts::default()
        }
    };
    Ok(facts)
}

/// One replica, no fault tolerance, one thread: the critical path of any
/// replicated run. `batch_records` 0 selects the row kernels.
pub fn replica_executor(
    opts_like: &ExecutorConfig,
    input_name: &str,
    records: Vec<Record>,
    batch_records: usize,
) -> Result<ParallelExecutor, String> {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 1,
        compute_threads: 1,
        expected_failures: 0,
        escalation: vec![1],
        batch_records,
        verify_mode: Default::default(),
        ..opts_like.clone()
    });
    exec.load_input(input_name, records)
        .map_err(|e| e.to_string())?;
    Ok(exec)
}

/// Rows per batch for a probe of the columnar plane: the workload's own
/// setting, or the engine's default when the workload runs the row plane.
pub fn columnar_batch_records(config: &ExecutorConfig) -> usize {
    match config.batch_records {
        0 => ExecutorConfig::default().batch_records,
        n => n,
    }
}

/// The executor configuration `cbftd` gives each job (see
/// `server_cli::job_exec`).
pub fn daemon_job_config(opts: &DaemonOptions, seed: u64) -> ExecutorConfig {
    let f = opts.f;
    let defaults = ExecutorConfig::default();
    ExecutorConfig {
        threads: opts.threads,
        compute_threads: 1,
        expected_failures: f,
        escalation: vec![opts.replication.replicas(f), 2 * f + 1, 3 * f + 1],
        vp_policy: VpPolicy::Marked(opts.points),
        digest_granularity: opts.granularity,
        batch_records: opts.batch_size.unwrap_or(defaults.batch_records),
        nodes: opts.nodes,
        slots_per_node: opts.slots_per_node,
        master_seed: seed,
        ..defaults
    }
}

/// Runs a script on a prepared executor.
pub fn run_script(exec: &ParallelExecutor, script: &str) -> Result<RunFacts, String> {
    let outcome = exec.run_script(script).map_err(|e| e.to_string())?;
    Ok(parallel_facts(&outcome))
}

/// Replays a transcript into a fresh verifier; returns the number of
/// keys that reached a verdict.
pub fn verifier_ingest(transcript: &[StreamedReport], f: usize, replicas: usize) -> usize {
    let mut verifier = Verifier::new(f, replicas);
    for report in transcript {
        black_box(verifier.ingest(report));
    }
    verifier.keys_seen()
}

// ---------------------------------------------------------------- dataflow

/// Parse, plan, analyse, mark and compile: everything `dataflow` does per
/// job before a record moves. Returns the number of MapReduce jobs.
pub fn parse_plan_compile(script: &str, input_name: &str, records: u64) -> Result<usize, String> {
    let plan = Script::parse(script)
        .map_err(|e| e.to_string())?
        .into_plan();
    let sizes = HashMap::from([(input_name.to_owned(), records)]);
    let analysis = analyze::analyze_plan(&plan, &sizes);
    let marked = analyze::mark(
        &plan,
        &analysis,
        2,
        analyze::eligible_under(analyze::Adversary::Strong),
    );
    black_box(marked);
    Ok(compile_plan(&plan).len())
}

pub fn batch_from_records(records: &[Record]) -> Result<Batch, String> {
    Batch::from_records(records).ok_or_else(|| "records are not uniform-arity".to_owned())
}

pub fn batch_to_records(b: &Batch) -> usize {
    black_box(b.to_records()).len()
}

pub fn group_rows(records: &[Record]) -> usize {
    black_box(interp::group_records(records, 0)).len()
}

pub fn group_batch(b: &Batch) -> usize {
    black_box(batch::group_batch(b, 0)).len()
}

pub fn order_rows(records: &[Record]) -> usize {
    black_box(interp::order_records(records, 0, SortOrder::Asc)).len()
}

pub fn order_batch(b: &Batch) -> usize {
    black_box(batch::order_batch(b, 0, SortOrder::Asc)).len()
}

/// `FILTER ... BY <last column> IS NOT NULL`, the predicate the follower
/// and weather scripts use.
pub fn filter_batch(b: &Batch) -> usize {
    let predicate = Expr::is_not_null(Expr::Col(b.arity().saturating_sub(1)));
    black_box(batch::filter_batch(b, &predicate)).len()
}

// ------------------------------------------------------------------ digest

pub fn hardware_accelerated() -> bool {
    digest::hardware_accelerated()
}

pub fn sha256(data: &[u8]) -> Digest {
    black_box(Digest::of(data))
}

/// The row data plane's digest path: `write_canonical` into one reused
/// framed buffer, `append_framed` per record.
pub fn digest_row_stream(records: &[Record], granularity: usize) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    for r in records {
        ChunkedDigest::begin_frame(&mut buf);
        r.write_canonical(&mut buf);
        ChunkedDigest::seal_frame(&mut buf);
        cd.append_framed(&buf);
    }
    cd.finish()
}

/// The columnar data plane's digest path: `write_row_canonical` into a
/// run buffer, one `append_run` per chunk-aligned run of rows.
pub fn digest_batch_stream(b: &Batch, granularity: usize) -> ChunkedSummary {
    let run_rows = granularity.min(1024);
    let mut cd = ChunkedDigest::new(granularity);
    let mut run = Vec::new();
    let mut row = 0;
    while row < b.len() {
        let take = run_rows.min(b.len() - row);
        run.clear();
        let mut payload = 0u64;
        for r in row..row + take {
            let start = run.len();
            run.extend_from_slice(&[0u8; 8]);
            b.write_row_canonical(r, &mut run);
            let len = (run.len() - start - 8) as u64;
            run[start..start + 8].copy_from_slice(&len.to_be_bytes());
            payload += len;
        }
        cd.append_run(&run, take, payload);
        row += take;
    }
    cd.finish()
}

/// Leaves for the Merkle probe: `n` distinct digests.
pub fn merkle_leaves(n: usize) -> Vec<Digest> {
    (0..n as u64)
        .map(|i| Digest::of(&i.to_be_bytes()))
        .collect()
}

pub fn merkle_build(leaves: Vec<Digest>) -> Option<Digest> {
    black_box(MerkleTree::build(leaves)).root()
}

// --------------------------------------------------------------------- sim

/// Schedules `n` events at pseudo-random times, then pops them all;
/// returns the number of queue operations (2n).
pub fn event_queue_churn(n: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.schedule(SimTime::from_micros(x % 1_000_000), i);
    }
    let mut popped = 0;
    while let Some(ev) = q.pop() {
        black_box(ev.event);
        popped += 1;
    }
    n + popped
}

// --------------------------------------------------------------- mapreduce

/// Data-plane counters (process-global, monotone; the pool-queue peak is
/// a high-water mark, not a delta).
pub type Counters = data_plane::DataPlaneSnapshot;

/// Counters accumulated while `f` ran.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, Counters) {
    let before = data_plane::snapshot();
    let value = f();
    (value, data_plane::snapshot().since(&before))
}

/// One MapReduce job on one cluster, no verification points and no
/// verifier: the `mapreduce` layer alone.
pub struct SingleJob {
    cluster: Cluster,
    spec: ExecJob,
}

fn first_job(graph: &JobGraph) -> Result<&clusterbft_repro::dataflow::compile::MrJob, String> {
    graph
        .jobs()
        .iter()
        .find(|j| j.deps().is_empty())
        .ok_or_else(|| "script compiles to no source job".to_owned())
}

/// Builds the script's first MapReduce job (the one reading the input
/// file) into an [`ExecJob`] on a fresh cluster holding `records`.
pub fn single_job(
    script: &str,
    input_name: &str,
    records: Arc<[Record]>,
    config: &ExecutorConfig,
    batch_records: usize,
) -> Result<SingleJob, String> {
    let plan = Arc::new(
        Script::parse(script)
            .map_err(|e| e.to_string())?
            .into_plan(),
    );
    let graph = compile_plan(&plan);
    let job = first_job(&graph)?;
    let mut cluster = Cluster::builder()
        .nodes(config.nodes)
        .slots_per_node(config.slots_per_node)
        .seed(config.master_seed)
        .build();
    cluster
        .storage_mut()
        .write_shared(input_name, records)
        .map_err(|e| e.to_string())?;
    let spec = ExecJob {
        plan: Arc::clone(&plan),
        inputs: job
            .inputs
            .iter()
            .map(|i| ExecInput {
                file: match &i.source {
                    DataSource::Hdfs(f) => f.clone(),
                    DataSource::Intermediate(_) => unreachable!("source job has no deps"),
                },
                pipeline: i.pipeline.clone(),
                tag: i.tag,
            })
            .collect(),
        shuffle: job.shuffle,
        reduce: job.reduce.clone(),
        output_file: "probe/out".to_owned(),
        reduce_task_count: if job.single_reduce {
            1
        } else {
            config.reduce_tasks
        },
        map_split_records: config.map_split_records,
        verification_points: Vec::new(),
        digest_granularity: config.digest_granularity,
        batch_records,
        sid: "probe".to_owned(),
        replica: 0,
        combiner: None,
        sample: None,
    };
    Ok(SingleJob { cluster, spec })
}

/// `LOAD` + `FILTER` + `STORE` over the same input: a job with map tasks
/// only, so `single_job − map_only` isolates shuffle and reduce.
pub fn map_only_script(data: Data) -> String {
    let cols = data.columns();
    format!(
        "a = LOAD '{}' AS ({}); b = FILTER a BY {} IS NOT NULL; STORE b INTO 'probe_out';",
        data.input_name(),
        cols.join(", "),
        cols[cols.len() - 1],
    )
}

impl SingleJob {
    /// Submits the job and runs the cluster dry; returns the number of
    /// output records.
    pub fn run(mut self) -> Result<usize, String> {
        self.cluster.submit(self.spec).map_err(|e| e.to_string())?;
        let events = self.cluster.run_to_quiescence();
        for ev in &events {
            if let EngineEvent::JobCompleted { outcome, .. } = ev {
                return match outcome {
                    JobOutcome::Success { output_file, .. } => Ok(self
                        .cluster
                        .storage()
                        .peek(output_file)
                        .map_or(0, <[Record]>::len)),
                    JobOutcome::Failed { reason } => Err(format!("probe job failed: {reason}")),
                };
            }
        }
        Err("probe job never completed".to_owned())
    }
}

/// Dispatches `n` empty payloads to a two-thread compute pool in waves of
/// 64 and joins them; returns nanoseconds per dispatch+join.
pub fn pool_dispatch_ns(n: usize) -> f64 {
    let pool = ComputePool::new(2);
    let start = Instant::now();
    let mut done = 0usize;
    while done < n {
        let wave: Vec<_> = (0..64).map(|i| pool.dispatch(move || i)).collect();
        for t in wave {
            black_box(t.join());
        }
        done += 64;
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

// ------------------------------------------------------------------ server

/// One job for an in-process [`JobServer`].
#[derive(Clone)]
pub struct ServerJob {
    pub tenant: String,
    pub script: String,
    pub input_name: String,
    pub records: Vec<Record>,
    pub config: ExecutorConfig,
}

impl ServerJob {
    fn spec(&self) -> JobSpec {
        JobSpec::new(&self.tenant, &self.script)
            .input(&self.input_name, self.records.clone())
            .exec(self.config.clone())
    }
}

fn server_config(opts: &DaemonOptions) -> ServerConfig {
    ServerConfig {
        slots: opts.slots,
        queue_depth: opts.queue_depth,
        compute_threads: opts.compute_threads,
        default_weight: opts.default_weight,
        weights: opts.weights.clone(),
        max_inflight: opts.max_inflight.clone(),
        ..ServerConfig::default()
    }
}

/// What one in-process job produced.
pub struct ServerJobResult {
    /// Wall microseconds the job spent executing.
    pub exec_us: u64,
    /// `None` when the job errored instead of producing an outcome.
    pub facts: Option<RunFacts>,
}

fn job_result(r: JobResult) -> ServerJobResult {
    let facts = r.outcome.as_ref().ok().map(parallel_facts);
    ServerJobResult {
        exec_us: r.exec_us,
        facts,
    }
}

/// Closed-loop drain, as `cbftd` does it: one submitter hands every job
/// over, absorbing queue-full rejections with a 500 µs pause, then waits
/// for all of them. Returns the results and the retries absorbed.
pub fn server_drain(opts: &DaemonOptions, jobs: &[ServerJob]) -> (Vec<ServerJobResult>, u64) {
    let server = JobServer::start(server_config(opts));
    let mut retries = 0u64;
    let mut handles = Vec::with_capacity(jobs.len());
    for job in jobs {
        let spec = job.spec();
        let handle = loop {
            match server.submit(spec.clone()) {
                SubmitOutcome::Admitted(h) => break h,
                SubmitOutcome::Rejected(_) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        };
        handles.push(handle);
    }
    let results = handles.into_iter().map(|h| job_result(h.wait())).collect();
    server.shutdown();
    (results, retries)
}

/// Outcome of one open-loop run.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per admitted job: milliseconds from the instant it was *due* to
    /// its completion (so a stalled generator's delay counts).
    pub latency_ms: Vec<f64>,
    pub submitted: usize,
    pub rejected: usize,
    /// Worst lateness of the generator itself.
    pub gen_late_ms_max: f64,
    /// Jobs still queued when the schedule ended.
    pub backlog_end: usize,
}

/// Open loop: submits `jobs` (cycled) at `rate` per second for `seconds`
/// regardless of completions; a full queue rejects, nothing is retried.
pub fn server_open_loop(
    opts: &DaemonOptions,
    jobs: &[ServerJob],
    rate: f64,
    seconds: f64,
) -> OpenLoop {
    let server = JobServer::start(server_config(opts));
    let total = (rate * seconds) as usize;
    let mut out = OpenLoop::default();
    let mut handles = Vec::with_capacity(total);
    let start = Instant::now();
    for i in 0..total {
        let due = Duration::from_secs_f64(i as f64 / rate);
        let spec = jobs[i % jobs.len()].spec();
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let late_ms = start.elapsed().saturating_sub(due).as_secs_f64() * 1e3;
        out.gen_late_ms_max = out.gen_late_ms_max.max(late_ms);
        out.submitted += 1;
        match server.submit(spec) {
            SubmitOutcome::Admitted(h) => handles.push((late_ms, h)),
            SubmitOutcome::Rejected(_) => out.rejected += 1,
        }
    }
    out.backlog_end = server.queued();
    for (late_ms, h) in handles {
        out.latency_ms
            .push(late_ms + h.wait().total_us as f64 / 1e3);
    }
    server.shutdown();
    out
}

/// Push + pop cost of the weighted-fair admission queue, three tenants
/// with weights 4:2:1, in nanoseconds per push+pop pair.
pub fn fairqueue_push_pop_ns(pairs: usize) -> f64 {
    let tenants = ["acme", "beta", "solo"];
    let mut q: FairQueue<u64> = FairQueue::new(64, 1);
    q.set_weight("acme", 4);
    q.set_weight("beta", 2);
    let start = Instant::now();
    let mut done = 0usize;
    while done < pairs {
        for i in 0..48u64 {
            let _ = black_box(q.push(tenants[(i % 3) as usize], i));
        }
        while let Some(d) = q.pop() {
            q.release(&d.tenant);
            black_box(d.payload);
        }
        done += 48;
    }
    start.elapsed().as_nanos() as f64 / done as f64
}
