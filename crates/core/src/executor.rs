//! Parallel replica execution with streaming verification.
//!
//! The sequential [`ClusterBft`](crate::ClusterBft) pipeline interleaves
//! all `r` replicas inside one discrete-event simulation. This module
//! instead gives **each replica its own isolated simulated cluster** and
//! runs the replicas on worker threads, the way a real deployment runs
//! them on disjoint sub-clusters: digest reports stream through a channel
//! into the trusted [`Verifier`] *while sibling replicas are still
//! executing*, so comparison overlaps execution (§3.3's offline
//! verification made literal).
//!
//! # Determinism
//!
//! The verdict is bit-identical no matter how many threads run or how the
//! channel messages interleave:
//!
//! * every replica's entire world derives from
//!   [`SeedSpawner::replica_seed`]`(uid)` — node RNGs, fault draws and
//!   event ordering never depend on sibling replicas or on the thread
//!   that hosts the simulation;
//! * the verifier's table is keyed storage, so ingest order cannot change
//!   any verdict;
//! * the published transcript is sorted by
//!   [`StreamedReport::ordering_key`] — *(verification point, replica,
//!   sequence)* — collapsing every interleaving to one canonical order.
//!
//! # Escalation
//!
//! Rounds follow the paper's §4.1 step 6: start at `f + 1` replicas and,
//! while any final output lacks an `f + 1` digest quorum (a deviant
//! replica caused a mismatch, or an omitted one wedged), add fresh
//! replicas up to `2f + 1` and then `3f + 1`. Digests from earlier rounds
//! keep counting — replica ids are globally unique, so a fresh honest run
//! can complete a quorum started two rounds ago.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cbft_dataflow::analyze::Adversary;
use cbft_dataflow::compile::{compile_plan, DataSource, JobGraph, JobId, JobOutput, Site};
use cbft_dataflow::{LogicalPlan, Record, Script};
use cbft_mapreduce::{
    default_compute_threads, Behavior, Cluster, ComputePool, EngineEvent, FileData, JobOutcome,
    RunHandle, SamplePlan, SpotCheck, SpotCheckRecord, Ticket, VpSite,
};
use cbft_sim::{CostModel, SeedSpawner};
use cbft_trace::{Obs, TraceEvent, Tracer, COORDINATOR_PID};
use crossbeam::channel::Sender;
use serde::{Deserialize, Serialize};

use crate::config::VpPolicy;
use crate::outcome::SubmitError;
use crate::pipeline::{choose_points, job_output_sites, vp_sites_by_job, ReplicaJobs};
use crate::suspicion::{SuspicionBand, SuspicionTable};
use crate::verifier::{StreamedReport, Verifier};

/// The executor's verification tier: how much redundant computation buys
/// how much assurance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VerifyMode {
    /// The paper's r-fold replication with `f+1 → 2f+1 → 3f+1`
    /// escalation: every sub-graph runs on multiple replicas and final
    /// outputs need an `f + 1` digest quorum.
    #[default]
    Replicate,
    /// Partial re-execution (Yoon & Liu, arXiv 2002.09560): each
    /// sub-graph runs **once**; a trusted spot-checker deterministically
    /// samples completed tasks by seeded hash and re-executes them
    /// against the recorded output digests. Publication requires every
    /// spot-check to confirm. No replication fallback — a mismatch
    /// leaves the run unverified.
    Sample,
    /// Sample by default, escalate to the full replication ladder on any
    /// spot-check mismatch, wedge, or suspicion-band crossing.
    Hybrid,
}

impl VerifyMode {
    /// Stable lowercase name (CLI flag value / metric rendering).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Replicate => "replicate",
            VerifyMode::Sample => "sample",
            VerifyMode::Hybrid => "hybrid",
        }
    }

    /// Stable rank for the `cbft_verify_mode` gauge.
    pub fn rank(self) -> u64 {
        match self {
            VerifyMode::Replicate => 0,
            VerifyMode::Sample => 1,
            VerifyMode::Hybrid => 2,
        }
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "replicate" => Some(VerifyMode::Replicate),
            "sample" => Some(VerifyMode::Sample),
            "hybrid" => Some(VerifyMode::Hybrid),
            _ => None,
        }
    }
}

fn default_sample_rate() -> f64 {
    0.1
}

/// Configuration for a [`ParallelExecutor`].
///
/// Serializable so harnesses can persist the exact executor setup next to
/// the results it produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Worker threads executing replica simulations. `1` is the sequential
    /// baseline (same code path, one worker); `0` means one thread per
    /// replica of the current round.
    pub threads: usize,
    /// Compute-pool threads shared by every replica for data-parallel task
    /// payloads (map/reduce UDF evaluation, digesting, shuffle gather).
    /// `1` runs payloads inline; `0` sizes the pool to the host's cores.
    /// Orthogonal to [`ExecutorConfig::threads`]: any value yields
    /// bit-identical verdicts and canonical transcripts.
    pub compute_threads: usize,
    /// Expected number of simultaneously faulty replicas, `f`.
    pub expected_failures: usize,
    /// Cumulative replica-count targets per escalation round. Empty means
    /// the paper's schedule `[f + 1, 2f + 1, 3f + 1]`. Entries are clamped
    /// to at least `f + 1` and must grow to start a new round.
    pub escalation: Vec<usize>,
    /// Verification-point placement (shared with the sequential pipeline,
    /// so both executors instrument identical vertices).
    pub vp_policy: VpPolicy,
    /// Adversary model restricting eligible verification points.
    pub adversary: Adversary,
    /// Records per digest chunk (`d` of §6.4).
    pub digest_granularity: usize,
    /// Reduce tasks per shuffled job (identical across replicas).
    pub reduce_tasks: usize,
    /// Records per map split.
    pub map_split_records: usize,
    /// The task data plane: `0` = row plane, any other value = columnar
    /// plane (no width is read). Host-side only: digests and transcripts
    /// are identical either way.
    pub batch_records: usize,
    /// Nodes in each replica's isolated cluster.
    pub nodes: usize,
    /// Task slots per node.
    pub slots_per_node: usize,
    /// Master seed; replica `uid` simulates under
    /// [`SeedSpawner::replica_seed`]`(uid)`.
    pub master_seed: u64,
    /// Cost model for every replica's simulation.
    pub cost: CostModel,
    /// Verification tier: full replication, sampled partial
    /// re-execution, or sampling with replication escalation.
    pub verify_mode: VerifyMode,
    /// Fraction of completed tasks the spot-checker re-executes in
    /// [`VerifyMode::Sample`] / [`VerifyMode::Hybrid`] (clamped to
    /// `[0, 1]`). Sampling decisions are a pure function of
    /// `(master_seed, sub-graph id, task kind, task index)`, so the set
    /// of checked tasks is identical across thread counts.
    pub sample_rate: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            threads: 1,
            compute_threads: default_compute_threads(),
            expected_failures: 1,
            escalation: Vec::new(),
            vp_policy: VpPolicy::Marked(2),
            adversary: Adversary::Strong,
            digest_granularity: usize::MAX,
            reduce_tasks: 4,
            map_split_records: 10_000,
            batch_records: 1024,
            nodes: 16,
            slots_per_node: 3,
            master_seed: 1,
            cost: CostModel::default(),
            verify_mode: VerifyMode::Replicate,
            sample_rate: default_sample_rate(),
        }
    }
}

impl ExecutorConfig {
    /// The sanitized escalation schedule: strictly increasing cumulative
    /// replica targets, each at least `f + 1`.
    pub fn escalation_targets(&self) -> Vec<usize> {
        let f = self.expected_failures;
        let schedule: Vec<usize> = if self.escalation.is_empty() {
            vec![f + 1, 2 * f + 1, 3 * f + 1]
        } else {
            self.escalation.clone()
        };
        let mut targets = Vec::new();
        let mut prev = 0usize;
        for t in schedule {
            let t = t.max(f + 1);
            if t > prev {
                targets.push(t);
                prev = t;
            }
        }
        targets
    }
}

/// What one replica brought home from its isolated simulation.
#[derive(Clone, Debug)]
struct ReplicaRun {
    uid: usize,
    /// Whether every job of the graph completed (wedging on omission or
    /// crash faults leaves this false — the replica simply never reports).
    complete: bool,
    /// Store-name → file for every STORE job the replica completed, as
    /// shared handles into the replica's storage in the form the job
    /// stored it (no row is built or copied until one replica's output is
    /// actually published).
    outputs: BTreeMap<String, FileData>,
    /// Map and reduce tasks the replica ran to completion.
    tasks_done: u64,
}

/// Messages a replica worker streams to the coordinator: digest reports
/// for the verifier, and captured spot-check evidence for the trusted
/// re-execution tier.
enum ReplicaMsg {
    Report(StreamedReport),
    Check(Box<SpotCheckRecord>),
}

/// Everything a run derives from the plan before any replica starts:
/// compiled graph, instrumentation sites, and the shared compute pool.
struct Prepared {
    plan: Arc<LogicalPlan>,
    graph: JobGraph,
    vp_map: HashMap<JobId, Vec<VpSite>>,
    store_sites: BTreeMap<JobId, (String, Vec<Site>)>,
    pool: ComputePool,
}

/// Mutable verification state threaded through the rounds. The sampled
/// tiers' probe is round 0; a hybrid escalation keeps its transcript,
/// runs and round counts, so earlier evidence keeps counting toward
/// quorums.
struct RoundState {
    verifier: Verifier,
    transcript: Vec<StreamedReport>,
    runs: BTreeMap<usize, ReplicaRun>,
    replicas_per_round: Vec<usize>,
    total_uids: usize,
}

impl RoundState {
    /// No round run yet, verifying under `f`.
    fn new(f: usize) -> Self {
        RoundState {
            verifier: Verifier::new(f, 0),
            transcript: Vec::new(),
            runs: BTreeMap::new(),
            replicas_per_round: Vec::new(),
            total_uids: 0,
        }
    }
}

/// Spot-check accounting for one run (all zero under
/// [`VerifyMode::Replicate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReexecSummary {
    /// Tasks the probe replica completed: the denominator of `sampled`,
    /// so a report can say how little was checked.
    pub tasks_total: u64,
    /// Tasks the seeded plan selected for checking.
    pub sampled: u64,
    /// Tasks actually re-executed by the trusted checker.
    pub reexecuted: u64,
    /// Re-executions that reproduced the recorded output digest.
    pub confirmed: u64,
    /// Re-executions that contradicted the recorded output digest.
    pub mismatched: u64,
    /// Input records processed by the checker — the spot-check tier's
    /// compute cost, in the same unit as foreground record counts.
    pub records_reexecuted: u64,
    /// Whether a hybrid run escalated to the replication ladder.
    pub escalated: bool,
}

/// The published outputs: the winning replica's file for each store name,
/// as the handle its storage holds, and a record view of them built on
/// first request. Outcomes compare and serialize as that view, so an
/// outcome means the same whichever plane produced its files.
#[derive(Clone, Debug)]
struct Publication {
    files: BTreeMap<String, FileData>,
    records: OnceLock<BTreeMap<String, Vec<Record>>>,
}

impl Publication {
    /// The record view, built once: this is where a published file's
    /// rows are built or copied, and charged as such.
    fn records(&self) -> &BTreeMap<String, Vec<Record>> {
        self.records.get_or_init(|| {
            self.files
                .iter()
                .map(|(name, file)| (name.clone(), file.to_records()))
                .collect()
        })
    }
}

impl PartialEq for Publication {
    fn eq(&self, other: &Self) -> bool {
        self.records() == other.records()
    }
}

// Hand-written against the vendored serde stub's `Content` model (see
// vendor/README.md): the JSON is the record view's, as before handles.
impl Serialize for Publication {
    fn to_content(&self) -> serde::Content {
        self.records().to_content()
    }
}

impl Deserialize for Publication {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let records = BTreeMap::<String, Vec<Record>>::from_content(content)?;
        let files = records
            .iter()
            .map(|(name, rows)| (name.clone(), FileData::from(rows.clone())))
            .collect();
        Ok(Publication {
            files,
            records: OnceLock::from(records),
        })
    }
}

/// The result of one parallel, streamed-verification execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParallelOutcome {
    verified: bool,
    replicas_per_round: Vec<usize>,
    transcript: Vec<StreamedReport>,
    outputs: Publication,
    deviant_replicas: BTreeSet<usize>,
    clean_replicas: BTreeSet<usize>,
    omitted_replicas: BTreeSet<usize>,
    conflict_replicas: BTreeSet<usize>,
    verify_mode: VerifyMode,
    reexec: ReexecSummary,
}

impl ParallelOutcome {
    /// Whether every final output reached an `f + 1` digest quorum.
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// Fresh replicas started by each escalation round.
    pub fn replicas_per_round(&self) -> &[usize] {
        &self.replicas_per_round
    }

    /// Total replicas executed across all rounds.
    pub fn total_replicas(&self) -> usize {
        self.replicas_per_round.iter().sum()
    }

    /// The canonical digest transcript, sorted by
    /// [`StreamedReport::ordering_key`]. Identical across thread counts
    /// for the same master seed and fault plan.
    pub fn transcript(&self) -> &[StreamedReport] {
        &self.transcript
    }

    /// Published outputs by store name (empty when unverified): each the
    /// winning replica's file, in the form its job stored it. Nothing is
    /// copied to publish one.
    pub fn published(&self) -> &BTreeMap<String, FileData> {
        &self.outputs.files
    }

    /// Published outputs by store name as records (empty when
    /// unverified): a view built on the first call — the one place a
    /// published file's rows are built or copied.
    pub fn outputs(&self) -> &BTreeMap<String, Vec<Record>> {
        self.outputs.records()
    }

    /// One published output as records, if verified (see
    /// [`ParallelOutcome::outputs`]).
    pub fn output(&self, name: &str) -> Option<&[Record]> {
        self.outputs().get(name).map(Vec::as_slice)
    }

    /// Replicas whose digests contradicted an established quorum.
    pub fn deviant_replicas(&self) -> &BTreeSet<usize> {
        &self.deviant_replicas
    }

    /// Replicas that reported digests and agreed with the quorum at every
    /// key. Always a subset of the uids that actually ran, and disjoint
    /// from [`ParallelOutcome::deviant_replicas`].
    pub fn clean_replicas(&self) -> &BTreeSet<usize> {
        &self.clean_replicas
    }

    /// Replicas that wedged before completing every job (omission /
    /// crash faults, or an engine-level failure).
    pub fn omitted_replicas(&self) -> &BTreeSet<usize> {
        &self.omitted_replicas
    }

    /// Replicas party to a digest conflict at a key that never reached a
    /// quorum (see [`crate::Verifier::conflict_replicas`]). The conflict
    /// evidence is set-valued: each such key's reporters contain at
    /// least one faulty replica, but no quorum singles it out.
    pub fn conflict_replicas(&self) -> &BTreeSet<usize> {
        &self.conflict_replicas
    }

    /// Every replica the run's forensics implicate: quorum deviants,
    /// wedged replicas and unresolved-conflict parties. The campaign
    /// oracle checks injected faults against this set — any *manifest*
    /// fault (a scheduled replica that corrupted a digested record or
    /// wedged) must appear here.
    pub fn named_replicas(&self) -> BTreeSet<usize> {
        let mut out = self.deviant_replicas.clone();
        out.extend(self.omitted_replicas.iter().copied());
        out.extend(self.conflict_replicas.iter().copied());
        out
    }

    /// The verification tier the run operated under.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify_mode
    }

    /// Spot-check accounting (all zero under [`VerifyMode::Replicate`]).
    pub fn reexec(&self) -> &ReexecSummary {
        &self.reexec
    }
}

/// Runs `r` replicated sub-graph simulations on worker threads, streaming
/// digests into the verifier as they are produced.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{Record, Value};
/// use clusterbft::{ExecutorConfig, ParallelExecutor};
///
/// let mut exec = ParallelExecutor::new(ExecutorConfig {
///     threads: 2,
///     ..ExecutorConfig::default()
/// });
/// let rows: Vec<Record> = (0..200)
///     .map(|i| Record::new(vec![Value::Int(i % 7), Value::Int(i)]))
///     .collect();
/// exec.load_input("edges", rows)?;
/// let outcome = exec.run_script(
///     "raw = LOAD 'edges' AS (user, follower);
///      grp = GROUP raw BY user;
///      cnt = FOREACH grp GENERATE group, COUNT(raw) AS n;
///      STORE cnt INTO 'counts';",
/// )?;
/// assert!(outcome.verified());
/// assert_eq!(outcome.output("counts").unwrap().len(), 7);
/// # Ok::<(), clusterbft::SubmitError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ParallelExecutor {
    config: ExecutorConfig,
    /// Write-once inputs behind shared, already-sized handles: every
    /// replica cluster is seeded with handles to the same allocations.
    inputs: BTreeMap<String, FileData>,
    faults: BTreeMap<usize, Behavior>,
    obs: Obs,
    /// An externally owned compute pool (e.g. the job server's, shared
    /// across concurrent jobs). `None` builds a private pool per run
    /// from [`ExecutorConfig::compute_threads`].
    shared_pool: Option<ComputePool>,
}

impl ParallelExecutor {
    /// Creates an executor with the given configuration and no
    /// observability ([`Obs::disabled`]).
    pub fn new(config: ExecutorConfig) -> Self {
        Self::observed(config, Obs::disabled())
    }

    /// Creates an executor that records into `obs`, with the metrics
    /// fold attached when its hub is live ([`Obs::folded`]). Each
    /// replica's engine gets a clone with its globally unique uid as
    /// track and `replica` label; coordinator and verifier events use
    /// reserved tracks, and the fold turns them into the same hub's
    /// series (per-round replica counts and verdicts, lag histograms,
    /// per-replica forensics).
    pub fn observed(config: ExecutorConfig, obs: Obs) -> Self {
        ParallelExecutor {
            config,
            inputs: BTreeMap::new(),
            faults: BTreeMap::new(),
            obs: obs.folded(),
            shared_pool: None,
        }
    }

    /// Uses an externally owned compute pool for task payloads instead
    /// of building a private one per run. The job server passes its one
    /// shared pool here so `slots` concurrent jobs multiplex over a
    /// fixed set of compute workers rather than spawning `slots` pools
    /// that fight for the same cores. Pool size never changes verdicts,
    /// digests or canonical transcripts (DESIGN.md §5e), so sharing is
    /// invisible to every outcome.
    pub fn set_compute_pool(&mut self, pool: ComputePool) {
        self.shared_pool = Some(pool);
    }

    // Kept only for `examples/perf`, which attaches its tracer after
    // construction; ROADMAP item 2(b) deletes it.
    #[doc(hidden)]
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let metrics = self.obs.metrics.clone();
        self.obs = Obs { tracer, metrics }.folded();
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Loads an input data set, shared read-only by every replica.
    ///
    /// # Errors
    ///
    /// Returns an error when `name` was already loaded (inputs are
    /// write-once, like trusted storage).
    pub fn load_input(&mut self, name: &str, data: impl Into<FileData>) -> Result<(), SubmitError> {
        if self.inputs.contains_key(name) {
            return Err(SubmitError::Engine(format!(
                "input '{name}' already loaded"
            )));
        }
        self.inputs.insert(name.to_owned(), data.into());
        Ok(())
    }

    /// Injects a fault into replica `uid`'s isolated cluster: every node
    /// of that replica adopts `behavior`. Commission makes the replica a
    /// digest deviant; omission or crash wedges it so its keys stay
    /// pending and escalation kicks in.
    pub fn inject_fault(&mut self, uid: usize, behavior: Behavior) {
        self.faults.insert(uid, behavior);
    }

    /// Parses and executes a script (see [`ParallelExecutor::run_plan`]).
    ///
    /// # Errors
    ///
    /// Parse and plan errors, missing inputs, and worker-thread panics.
    pub fn run_script(&self, source: &str) -> Result<ParallelOutcome, SubmitError> {
        let plan = Script::parse(source)?.into_plan();
        self.run_plan(plan)
    }

    /// Executes a logical plan: each escalation round fans its fresh
    /// replicas out over the worker pool, digests stream into the verifier
    /// live, and the round's verdict decides whether to publish or
    /// escalate.
    ///
    /// # Errors
    ///
    /// Missing inputs and worker-thread panics. Running out of escalation
    /// rounds is *not* an error — the outcome reports `verified() ==
    /// false` with empty outputs.
    pub fn run_plan(&self, plan: LogicalPlan) -> Result<ParallelOutcome, SubmitError> {
        let plan = Arc::new(plan);
        let graph = compile_plan(&plan);
        for job in graph.jobs() {
            for input in &job.inputs {
                if let DataSource::Hdfs(name) = &input.source {
                    if !self.inputs.contains_key(name) {
                        return Err(SubmitError::Engine(format!("missing input '{name}'")));
                    }
                }
            }
        }

        // Identical instrumentation to the sequential pipeline: same
        // marker, same seeds, same sites — digests stay comparable.
        let sizes = self
            .inputs
            .iter()
            .map(|(name, data)| (name.clone(), data.byte_size()))
            .collect();
        let vps = choose_points(
            &plan,
            &graph,
            &self.config.vp_policy,
            self.config.adversary,
            &sizes,
        );
        let vp_map = vp_sites_by_job(&graph, &vps);
        let store_sites: BTreeMap<JobId, (String, Vec<Site>)> = graph
            .jobs()
            .iter()
            .filter_map(|j| match &j.output {
                JobOutput::Store(name) => Some((j.id(), (name.clone(), job_output_sites(j)))),
                JobOutput::Intermediate => None,
            })
            .collect();

        // One pool for the whole execution: replica worker threads share
        // its compute workers instead of spawning r pools that fight for
        // the same cores. Under a job server the pool is shared wider
        // still — across every concurrently executing job.
        let pool = self.shared_pool.clone().unwrap_or_else(|| {
            ComputePool::with_metrics(self.config.compute_threads, self.obs.metrics.clone())
        });

        let prep = Prepared {
            plan,
            graph,
            vp_map,
            store_sites,
            pool,
        };
        match self.config.verify_mode {
            // The classic tier: the full escalation ladder from an empty
            // table.
            VerifyMode::Replicate => self.run_ladder(
                &prep,
                RoundState::new(self.config.expected_failures),
                ReexecSummary::default(),
            ),
            VerifyMode::Sample | VerifyMode::Hybrid => self.run_sampled(&prep),
        }
    }

    /// The sampled tiers: round 0 is one probe replica plus spot-checks;
    /// hybrid escalates to the replication ladder on any suspicion.
    fn run_sampled(&self, prep: &Prepared) -> Result<ParallelOutcome, SubmitError> {
        let mode = self.config.verify_mode;
        let sample = SamplePlan::from_rate(self.config.master_seed, self.config.sample_rate);
        // A single report per key suffices in the probe round (`f = 0`):
        // the spot-checks, not sibling replicas, carry the assurance.
        let mut state = RoundState::new(0);
        let checks = self.run_round(prep, &mut state, 1, Some(sample))?;

        let mut reexec = ReexecSummary {
            tasks_total: state.runs[&0].tasks_done,
            sampled: checks.len() as u64,
            reexecuted: checks.len() as u64,
            ..ReexecSummary::default()
        };
        // The spot-check tier maintains the paper's per-node suspicion
        // ledger: every checked task is a job observation on its node,
        // every mismatch a fault. A single mismatch drives its node's
        // level to 1.0 (High), so "any mismatch" and "band crossing"
        // coincide unless the node had prior clean checks.
        let mut suspicion = SuspicionTable::new();
        for check in &checks {
            suspicion.record_jobs([check.node]).emit(&self.obs.tracer);
            reexec.records_reexecuted += check.records_reexecuted;
            if check.confirmed {
                reexec.confirmed += 1;
                continue;
            }
            reexec.mismatched += 1;
            suspicion.record_faults([check.node]).emit(&self.obs.tracer);
            if self.obs.tracer.enabled() {
                // `sid`, `kind` and `task` name the checked task; the
                // localized window folds into the divergence gauges
                // under `spot/SID/KIND/TASK`.
                let mut ev = TraceEvent::instant("spot_check_mismatch", "executor")
                    .on(COORDINATOR_PID, 0)
                    .arg("sid", check.sid.clone())
                    .arg("task", check.task_index as u64)
                    .arg("node", check.node.0 as u64);
                if let Some(range) = &check.divergence {
                    ev = ev
                        .arg("first_record", range.first_record)
                        .arg("last_record", range.last_record)
                        .arg("first_chunk", range.first_chunk)
                        .arg("last_chunk", range.last_chunk);
                }
                self.obs.tracer.emit(ev.arg("kind", check.kind.to_string()));
            }
        }
        let suspect_band = checks
            .iter()
            .map(|c| suspicion.band(c.node))
            .max_by_key(|b| b.rank())
            .unwrap_or(SuspicionBand::None);
        if suspect_band.rank() >= SuspicionBand::Med.rank() && self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::instant("suspicion_band_crossed", "executor")
                    .on(COORDINATOR_PID, 0)
                    .seq(1)
                    .arg("band", suspect_band.rank()),
            );
        }

        let probe_clean = reexec.mismatched == 0
            && state.runs[&0].complete
            && suspect_band.rank() < SuspicionBand::Med.rank();
        let published = if probe_clean {
            self.decide(prep, &state)
        } else {
            None
        };
        self.note_round(&state, published.as_ref());

        let escalate = mode == VerifyMode::Hybrid && published.is_none();
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::instant("reexec_summary", "executor")
                    .on(COORDINATOR_PID, 0)
                    .arg("mode", mode.name())
                    .arg("tasks", reexec.tasks_total)
                    .arg("sampled", reexec.sampled)
                    .arg("rerun", reexec.reexecuted)
                    .arg("confirmed", reexec.confirmed)
                    .arg("mismatched", reexec.mismatched)
                    .arg("records", reexec.records_reexecuted)
                    .arg("escalated", u64::from(escalate)),
            );
        }

        if !escalate {
            if published.is_none() && self.obs.tracer.enabled() {
                self.obs.tracer.emit(
                    TraceEvent::instant("output_withheld", "executor")
                        .on(COORDINATOR_PID, 0)
                        .seq(2)
                        .arg("mismatched", reexec.mismatched),
                );
            }
            let mut outcome = self.finish_outcome(state, published, reexec);
            if reexec.mismatched > 0 {
                // The probe replica is contradicted by trusted
                // re-execution — name it, the way a quorum would.
                outcome.deviant_replicas.insert(0);
                outcome.clean_replicas.remove(&0);
                outcome.verified = false;
            }
            return Ok(outcome);
        }

        // Hybrid escalation: re-verify the probe's transcript under the
        // real `f` as replica 0, then walk the ordinary ladder. Sampling
        // stays off in replicated rounds — the quorum carries the
        // assurance from here.
        reexec.escalated = true;
        state.verifier = Verifier::new(self.config.expected_failures, 1);
        for sr in &state.transcript {
            state.verifier.ingest_traced(sr, &self.obs.tracer);
        }
        self.run_ladder(prep, state, reexec)
    }

    /// Walks the escalation ladder from wherever `state` stands until a
    /// round verifies or the targets run out, then assembles the outcome.
    fn run_ladder(
        &self,
        prep: &Prepared,
        mut state: RoundState,
        reexec: ReexecSummary,
    ) -> Result<ParallelOutcome, SubmitError> {
        let mut published = None;
        for target in self.config.escalation_targets() {
            let fresh = target.saturating_sub(state.total_uids);
            if fresh == 0 {
                continue; // targets are strictly increasing; defensive
            }
            self.run_round(prep, &mut state, fresh, None)?;
            published = self.decide(prep, &state);
            self.note_round(&state, published.as_ref());
            if published.is_some() {
                break;
            }
        }
        Ok(self.finish_outcome(state, published, reexec))
    }

    /// Runs one round: `fresh` replicas under the next uids, claimed by
    /// `threads.min(fresh)` workers (`0` = one per replica). Digest
    /// reports stream into the verifier while siblings still execute, and
    /// each captured spot-check is dispatched onto the compute pool the
    /// moment it arrives, so trusted re-execution overlaps foreground
    /// execution. Returns the joined spot-checks in arrival order — none
    /// unless `sample` is set, which only the one-replica probe does, so
    /// the order is sim-deterministic.
    fn run_round(
        &self,
        prep: &Prepared,
        state: &mut RoundState,
        fresh: usize,
        sample: Option<SamplePlan>,
    ) -> Result<Vec<SpotCheck>, SubmitError> {
        let uid_base = state.total_uids;
        state.total_uids += fresh;
        state.verifier.set_expected(state.total_uids);
        state.replicas_per_round.push(fresh);
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::instant("round_start", "executor")
                    .on(COORDINATOR_PID, 0)
                    .seq(state.replicas_per_round.len() as u64 - 1)
                    .arg("target", state.total_uids)
                    .arg("fresh", fresh),
            );
        }

        let workers = match self.config.threads {
            0 => fresh,
            t => t.min(fresh),
        };
        let next = AtomicUsize::new(0);
        let (tx, rx) = crossbeam::channel::unbounded::<ReplicaMsg>();
        let verifier = &mut state.verifier;
        let (finished, received, checks) = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move |_| {
                        // Work queue: replicas are claimed, not
                        // pre-assigned, so a slow replica never idles the
                        // other workers.
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= fresh {
                                break;
                            }
                            mine.push(self.run_replica(uid_base + i, prep, &tx, sample));
                        }
                        mine
                    })
                })
                .collect();
            drop(tx);
            // The loop ends when the last worker drops its sender.
            let mut received = Vec::new();
            let mut tickets: Vec<Ticket<SpotCheck>> = Vec::new();
            for msg in &rx {
                match msg {
                    ReplicaMsg::Report(sr) => {
                        verifier.ingest_traced(&sr, &self.obs.tracer);
                        received.push(sr);
                    }
                    ReplicaMsg::Check(rec) => {
                        let task_pool = prep.pool.worker_handle();
                        tickets.push(prep.pool.dispatch(move || rec.check(&task_pool)));
                    }
                }
            }
            let mut finished = Vec::new();
            for handle in handles {
                match handle.join() {
                    Ok(mine) => finished.extend(mine),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            let checks: Vec<SpotCheck> = tickets.into_iter().map(Ticket::join).collect();
            (finished, received, checks)
        })
        .map_err(|_| SubmitError::Engine("replica worker thread panicked".to_owned()))?;

        state.transcript.extend(received);
        state
            .runs
            .extend(finished.into_iter().map(|run| (run.uid, run)));
        Ok(checks)
    }

    /// Emits the round-end trace event for the round that just finished
    /// (the last entry of `state.replicas_per_round`): its verdict and
    /// the records it published, the escalation cost the health report
    /// shows per round.
    fn note_round(&self, state: &RoundState, published: Option<&BTreeMap<String, FileData>>) {
        if self.obs.tracer.enabled() {
            let records: u64 = published
                .iter()
                .flat_map(|outs| outs.values())
                .map(|file| file.len() as u64)
                .sum();
            self.obs.tracer.emit(
                TraceEvent::instant("round_end", "executor")
                    .on(COORDINATOR_PID, 0)
                    .seq(state.replicas_per_round.len() as u64 - 1)
                    .arg("verified", if published.is_some() { 1u64 } else { 0 })
                    .arg("records", records),
            );
        }
    }

    /// Final forensics and canonical-transcript assembly, shared by every
    /// verification tier.
    fn finish_outcome(
        &self,
        state: RoundState,
        published: Option<BTreeMap<String, FileData>>,
        reexec: ReexecSummary,
    ) -> ParallelOutcome {
        let RoundState {
            verifier,
            mut transcript,
            runs,
            replicas_per_round,
            ..
        } = state;
        // Deterministic verification-lag timeline, derived from the final
        // table state rather than live channel arrivals.
        verifier.emit_forensics(&self.obs.tracer, runs.keys().copied());

        // Canonical order: any thread interleaving sorts to this exact
        // transcript, so downstream consumers (tests, persisted logs)
        // never see scheduling noise.
        transcript.sort_by_key(StreamedReport::ordering_key);

        let omitted = runs
            .values()
            .filter(|r| !r.complete)
            .map(|r| r.uid)
            .collect();
        ParallelOutcome {
            verified: published.is_some(),
            replicas_per_round,
            transcript,
            outputs: Publication {
                files: published.unwrap_or_default(),
                records: OnceLock::new(),
            },
            deviant_replicas: verifier.deviant_replicas(),
            clean_replicas: verifier.clean_replicas(),
            omitted_replicas: omitted,
            conflict_replicas: verifier.conflict_replicas(),
            verify_mode: self.config.verify_mode,
            reexec,
        }
    }

    /// Publishes iff [`Verifier::winner`] names a replica for every STORE
    /// job's output. The publication is the winning replica's file handle,
    /// the one its storage holds: nothing is built or copied here, for
    /// either plane.
    fn decide(&self, prep: &Prepared, state: &RoundState) -> Option<BTreeMap<String, FileData>> {
        let runs = &state.runs;
        let mut out = BTreeMap::new();
        for (name, sites) in prep.store_sites.values() {
            let holders = runs.values().filter(|run| run.outputs.contains_key(name));
            let winner = state.verifier.winner(sites, holders.map(|run| run.uid))?;
            out.insert(name.clone(), runs[&winner].outputs[name].clone());
        }
        Some(out)
    }

    /// Runs one replica start-to-finish in its own isolated cluster,
    /// streaming every digest (and, when `sample` is set, every captured
    /// spot-check record) through `tx` as the simulation produces them.
    fn run_replica(
        &self,
        uid: usize,
        prep: &Prepared,
        tx: &Sender<ReplicaMsg>,
        sample: Option<SamplePlan>,
    ) -> ReplicaRun {
        let graph = &prep.graph;
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::begin("replica", "executor")
                    .on(uid as u32, 0)
                    .seq(uid as u64),
            );
        }
        let spawner = SeedSpawner::new(self.config.master_seed);
        let mut builder = Cluster::builder()
            .nodes(self.config.nodes)
            .slots_per_node(self.config.slots_per_node)
            .cost_model(self.config.cost)
            .seed(spawner.replica_seed(uid))
            .compute_pool(prep.pool.clone())
            .obs(self.obs.clone(), uid as u32);
        if let Some(&behavior) = self.faults.get(&uid) {
            for node in 0..self.config.nodes {
                builder = builder.node_behavior(node, behavior);
            }
        }
        let mut cluster = builder.build();
        for (name, data) in &self.inputs {
            // Every replica's storage holds a handle to the same write-once
            // allocation — r replicas share one copy of each input.
            cluster
                .storage_mut()
                .write_shared(name, data.clone())
                .expect("fresh replica storage accepts every input once");
        }

        let mut jobs = ReplicaJobs {
            plan: &prep.plan,
            graph,
            vp_map: &prep.vp_map,
            namespace: format!("par/r{uid}"),
            sid_prefix: "j".to_owned(),
            replica: uid,
            // Combiners stay off here so shuffle-site digests are always
            // materialized identically across both executors.
            combiners: false,
            sample,
            reduce_tasks: self.config.reduce_tasks,
            map_split_records: self.config.map_split_records,
            digest_granularity: self.config.digest_granularity,
            batch_records: self.config.batch_records,
            files: HashMap::new(),
            submitted: HashSet::new(),
        };
        // Wave by wave, like the sequential pipeline but for one replica.
        let submit_ready = |jobs: &mut ReplicaJobs, cluster: &mut Cluster| {
            jobs.submit_ready(cluster, &HashSet::new())
                .expect("replica-private namespace never collides")
        };
        let mut handle_jobs: HashMap<RunHandle, JobId> =
            submit_ready(&mut jobs, &mut cluster).into_iter().collect();
        let mut seq = 0u64;
        let mut wedged = false;
        loop {
            match cluster.step() {
                Some(EngineEvent::Digest(report)) => {
                    // Coordinator gone means the round was abandoned;
                    // finish quietly.
                    let _ = tx.send(ReplicaMsg::Report(StreamedReport { uid, seq, report }));
                    seq += 1;
                }
                Some(EngineEvent::SpotCheck(rec)) => {
                    // Captured evidence for the trusted checker; the
                    // coordinator schedules the re-run on the pool.
                    let _ = tx.send(ReplicaMsg::Check(rec));
                }
                Some(EngineEvent::JobCompleted { handle, outcome }) => {
                    let Some(job) = handle_jobs.get(&handle).copied() else {
                        continue;
                    };
                    match outcome {
                        JobOutcome::Success { output_file, .. } => {
                            jobs.files.insert(job, output_file);
                            if jobs.files.len() == graph.len() {
                                break;
                            }
                            handle_jobs.extend(submit_ready(&mut jobs, &mut cluster));
                        }
                        JobOutcome::Failed { .. } => {
                            // Per-replica isolation: one replica's engine
                            // failure is an omission from the verifier's
                            // point of view, not a global abort.
                            wedged = true;
                            break;
                        }
                    }
                }
                Some(EngineEvent::Timer(_)) => continue,
                // Wake-driven engine: a drained queue with incomplete jobs
                // is the omission/crash wedge. No timers needed — the
                // coordinator escalates instead of waiting.
                None => break,
            }
        }

        let complete = !wedged && jobs.files.len() == graph.len();
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::end("replica", "executor")
                    .on(uid as u32, 0)
                    .at_sim(cluster.now().as_micros())
                    .seq(uid as u64)
                    .arg("complete", if complete { 1u64 } else { 0 }),
            );
        }
        let mut outputs = BTreeMap::new();
        for job in graph.jobs() {
            if let JobOutput::Store(name) = &job.output {
                if let Some(file) = jobs.files.get(&job.id()) {
                    if let Some(data) = cluster.storage().handle(file) {
                        outputs.insert(name.clone(), data);
                    }
                }
            }
        }
        ReplicaRun {
            uid,
            complete,
            outputs,
            tasks_done: cluster.tasks_done(),
        }
    }
}

// The executor's own invariant, checked at compile time: everything a
// worker thread touches crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ParallelExecutor>();
    const fn assert_send<T: Send>() {}
    assert_send::<StreamedReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cbft_dataflow::Value;

    const SCRIPT: &str = "
        a = LOAD 'in' AS (k, v);
        g = GROUP a BY k;
        c = FOREACH g GENERATE group, COUNT(a) AS n, SUM(a.v) AS s;
        o = ORDER c BY n DESC;
        t = LIMIT o 5;
        STORE t INTO 'out';
    ";

    fn rows(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(vec![Value::Int(i % 11), Value::Int(i * 3 % 97)]))
            .collect()
    }

    fn executor(threads: usize, escalation: Vec<usize>) -> ParallelExecutor {
        let mut exec = ParallelExecutor::new(ExecutorConfig {
            threads,
            escalation,
            master_seed: 77,
            ..ExecutorConfig::default()
        });
        exec.load_input("in", rows(300)).unwrap();
        exec
    }

    #[test]
    fn healthy_run_verifies_in_one_round() {
        let outcome = executor(2, vec![2]).run_script(SCRIPT).unwrap();
        assert!(outcome.verified());
        assert_eq!(outcome.replicas_per_round(), &[2]);
        assert!(outcome.deviant_replicas().is_empty());
        assert!(outcome.omitted_replicas().is_empty());
        assert_eq!(outcome.output("out").unwrap().len(), 5);
        assert!(!outcome.transcript().is_empty());
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let baseline = executor(1, vec![2]).run_script(SCRIPT).unwrap();
        for threads in [2, 3, 8] {
            let parallel = executor(threads, vec![2]).run_script(SCRIPT).unwrap();
            assert_eq!(baseline, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn commission_deviant_escalates_and_still_verifies() {
        let mut exec = executor(4, vec![2, 3]);
        exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(
            outcome.verified(),
            "one honest round-2 replica completes the quorum"
        );
        assert_eq!(outcome.replicas_per_round(), &[2, 1]);
        assert!(outcome.deviant_replicas().contains(&0));

        // The published output matches a fault-free reference run.
        let honest = executor(1, vec![2]).run_script(SCRIPT).unwrap();
        assert_eq!(outcome.outputs(), honest.outputs());
    }

    #[test]
    fn escalation_clean_and_deviant_agree_with_reporting_uids() {
        // Regression for the `clean_replicas` fix: after escalation the
        // live uids are 0, 1 (round one) and 2 (round two) — not
        // 0..expected_replicas — and cleanliness must be claimed only
        // for uids that actually reported digests.
        let mut exec = executor(4, vec![2, 3]);
        exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(outcome.verified());

        let reported: BTreeSet<usize> = outcome.transcript().iter().map(|sr| sr.uid).collect();
        assert_eq!(reported, BTreeSet::from([0, 1, 2]));
        assert_eq!(outcome.deviant_replicas(), &BTreeSet::from([0]));
        assert_eq!(outcome.clean_replicas(), &BTreeSet::from([1, 2]));
        assert!(outcome
            .clean_replicas()
            .is_disjoint(outcome.deviant_replicas()));
        assert!(
            outcome
                .clean_replicas()
                .iter()
                .all(|u| reported.contains(u)),
            "cleanliness may only be claimed for uids that reported"
        );
    }

    #[test]
    fn crashed_replica_wedges_and_escalation_recovers() {
        let mut exec = executor(4, vec![2, 3]);
        exec.inject_fault(1, Behavior::Crashed);
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(outcome.verified());
        assert_eq!(outcome.replicas_per_round(), &[2, 1]);
        assert!(outcome.omitted_replicas().contains(&1));
    }

    #[test]
    fn exhausted_escalation_reports_unverified() {
        let mut exec = executor(2, vec![2]);
        exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(
            !outcome.verified(),
            "1-vs-1 with f = 1 can never reach quorum"
        );
        assert!(outcome.outputs().is_empty(), "unverified publishes nothing");
    }

    fn sampled_executor(mode: VerifyMode, rate: f64) -> ParallelExecutor {
        let mut exec = ParallelExecutor::new(ExecutorConfig {
            threads: 2,
            verify_mode: mode,
            sample_rate: rate,
            master_seed: 77,
            ..ExecutorConfig::default()
        });
        exec.load_input("in", rows(300)).unwrap();
        exec
    }

    #[test]
    fn sample_mode_verifies_with_one_replica() {
        let outcome = sampled_executor(VerifyMode::Sample, 1.0)
            .run_script(SCRIPT)
            .unwrap();
        assert!(outcome.verified());
        assert_eq!(outcome.total_replicas(), 1);
        assert_eq!(outcome.verify_mode(), VerifyMode::Sample);
        let reexec = outcome.reexec();
        assert!(reexec.sampled > 0, "rate 1.0 must check every task");
        assert_eq!(reexec.confirmed, reexec.sampled);
        assert_eq!(reexec.mismatched, 0);
        assert!(!reexec.escalated);
        assert!(reexec.records_reexecuted > 0);

        // Same verdict and identical published bytes as full replication.
        let replicated = executor(2, vec![2]).run_script(SCRIPT).unwrap();
        assert_eq!(outcome.outputs(), replicated.outputs());
        assert_eq!(
            outcome.transcript().len(),
            replicated.transcript().len() / 2
        );
    }

    #[test]
    fn sample_mode_catches_commission_and_withholds_output() {
        let mut exec = sampled_executor(VerifyMode::Sample, 1.0);
        exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(
            !outcome.verified(),
            "a mismatched spot-check blocks publication"
        );
        assert!(outcome.outputs().is_empty());
        assert!(outcome.reexec().mismatched > 0);
        assert!(outcome.deviant_replicas().contains(&0));
    }

    #[test]
    fn hybrid_escalates_on_mismatch_and_recovers() {
        let mut exec = sampled_executor(VerifyMode::Hybrid, 1.0);
        exec.inject_fault(0, Behavior::Commission { probability: 1.0 });
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(outcome.verified(), "replication quorum rescues the run");
        assert!(outcome.reexec().escalated);
        assert!(outcome.reexec().mismatched > 0);
        assert!(outcome.total_replicas() > 1);
        assert!(outcome.deviant_replicas().contains(&0));

        let honest = executor(1, vec![2]).run_script(SCRIPT).unwrap();
        assert_eq!(outcome.outputs(), honest.outputs());
    }

    #[test]
    fn hybrid_fault_free_stays_single_replica() {
        let outcome = sampled_executor(VerifyMode::Hybrid, 0.5)
            .run_script(SCRIPT)
            .unwrap();
        assert!(outcome.verified());
        assert_eq!(outcome.total_replicas(), 1);
        assert!(!outcome.reexec().escalated);
    }

    #[test]
    fn hybrid_escalates_when_probe_wedges() {
        let mut exec = sampled_executor(VerifyMode::Hybrid, 0.5);
        exec.inject_fault(0, Behavior::Crashed);
        let outcome = exec.run_script(SCRIPT).unwrap();
        assert!(outcome.verified(), "ladder replicas complete the quorum");
        assert!(outcome.reexec().escalated);
        assert!(outcome.omitted_replicas().contains(&0));
    }

    #[test]
    fn sample_mode_is_thread_and_pool_invariant() {
        let mut baseline = sampled_executor(VerifyMode::Sample, 0.5);
        baseline.config.compute_threads = 1;
        let baseline = baseline.run_script(SCRIPT).unwrap();
        for compute in [2, 4] {
            let mut exec = sampled_executor(VerifyMode::Sample, 0.5);
            exec.config.compute_threads = compute;
            let outcome = exec.run_script(SCRIPT).unwrap();
            assert_eq!(baseline, outcome, "compute_threads={compute} diverged");
        }
    }

    #[test]
    fn missing_input_is_an_error() {
        let exec = ParallelExecutor::new(ExecutorConfig::default());
        let err = exec.run_script(SCRIPT).unwrap_err();
        assert!(err.to_string().contains("missing input"), "{err}");
    }

    #[test]
    fn escalation_schedule_is_sanitized() {
        let config = ExecutorConfig {
            expected_failures: 1,
            escalation: vec![0, 3, 3, 2, 5],
            ..ExecutorConfig::default()
        };
        assert_eq!(config.escalation_targets(), vec![2, 3, 5]);
        let default = ExecutorConfig::default();
        assert_eq!(default.escalation_targets(), vec![2, 3, 4]);
    }
}
