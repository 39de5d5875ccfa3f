//! The ClusterBFT orchestrator: request handler, execution handler and
//! verifier wired together (Fig. 2 of the paper).
//!
//! A script submission flows through:
//! 1. **Client handler** — parse the script, build the logical plan.
//! 2. **Graph analyzer** — compute input ratios, run the marker function,
//!    instrument verification points (restricted to job boundaries under
//!    the strong adversary).
//! 3. **Job initiator** — compile to a MapReduce job DAG, namespace every
//!    replica's files, and submit `r` replicas of each job to the
//!    execution handler (the simulated Hadoop cluster), wave by wave as
//!    dependencies materialize.
//! 4. **Verifier** — collect streamed digests, require `f + 1` agreement
//!    per correspondence key; on mismatch or timeout, mark suspicion,
//!    feed faulty clusters to the fault analyzer, *trust* every job whose
//!    output reached quorum, and re-execute only the rest with a higher
//!    replica count and a doubled timeout.
//!
//! The two Table-3 configurations fall out directly: ClusterBFT (`C`)
//! places intermediate verification points so re-execution restarts from
//! the last verified job boundary, while the final-output-only baseline
//! (`P`) can never trust intermediates and re-runs the whole script.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use cbft_dataflow::analyze::{analyze_plan, mark_seeded, Adversary};
use cbft_dataflow::compile::{compile_plan, DataSource, JobGraph, JobId, JobOutput, MrJob, Site};
use cbft_dataflow::{LogicalPlan, Script, VertexId};
use cbft_mapreduce::{
    Cluster, ComputePool, EngineEvent, ExecInput, ExecJob, JobOutcome, NodeId, RunHandle,
    SamplePlan, StorageError, TimerToken, VpSite,
};
use cbft_sim::SimDuration;
use cbft_trace::{TraceEvent, Tracer, COORDINATOR_PID};
use cbft_verify::{
    FaultAnalyzer, StreamedReport, SuspicionTable, Verifier, EXCLUSION_MIN_JOBS,
    EXCLUSION_THRESHOLD,
};

use crate::config::{JobConfig, VpPolicy};
use crate::outcome::{ScriptOutcome, SubmitError};

/// The ClusterBFT system: owns the untrusted-tier cluster and the trusted
/// control-tier state (verifier, suspicion table, fault analyzer).
///
/// It records into its cluster's observability context, the one given
/// to [`cbft_mapreduce::ClusterBuilder::obs`]: attempt spans,
/// verification timeouts, suspicion band updates and the verifier's
/// quorum and forensics events. The cluster's tracer already folds into
/// a live hub, which so receives the per-attempt replica counts and the
/// suspicion forensics.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{Record, Value};
/// use cbft_mapreduce::Cluster;
/// use clusterbft::{ClusterBft, JobConfig};
///
/// let cluster = Cluster::builder().nodes(8).seed(1).build();
/// let mut cbft = ClusterBft::new(cluster, JobConfig::default());
/// let edges: Vec<Record> = (0..100)
///     .map(|i| Record::new(vec![Value::Int(i % 7), Value::Int(i)]))
///     .collect();
/// cbft.load_input("edges", edges)?;
/// let outcome = cbft.submit_script(
///     "raw = LOAD 'edges' AS (user, follower);
///      grp = GROUP raw BY user;
///      cnt = FOREACH grp GENERATE group, COUNT(raw) AS n;
///      STORE cnt INTO 'counts';",
/// )?;
/// assert!(outcome.verified());
/// # Ok::<(), clusterbft::SubmitError>(())
/// ```
pub struct ClusterBft {
    cluster: Cluster,
    config: JobConfig,
    suspicion: SuspicionTable,
    analyzer: Option<FaultAnalyzer>,
    script_counter: u64,
    timer_counter: u64,
}

/// Per-replica bookkeeping of one completed job.
#[derive(Clone, Debug)]
struct CompletedJob {
    file: String,
    nodes: BTreeSet<NodeId>,
}

impl ClusterBft {
    /// Creates a ClusterBFT deployment over `cluster`.
    ///
    /// When [`JobConfig::compute_threads`] disagrees with the pool the
    /// cluster was built with, a fresh pool of the configured size is
    /// installed; a cluster whose pool already matches (including one
    /// deliberately shared with other engines) is left untouched.
    pub fn new(mut cluster: Cluster, config: JobConfig) -> Self {
        if cluster.compute_pool().threads() != config.compute_threads {
            cluster.set_compute_pool(ComputePool::new(config.compute_threads));
        }
        let analyzer = if config.expected_failures > 0 {
            Some(FaultAnalyzer::new(config.expected_failures))
        } else {
            None
        };
        ClusterBft {
            cluster,
            config,
            suspicion: SuspicionTable::new(),
            analyzer,
            script_counter: 0,
            timer_counter: 0,
        }
    }

    // Kept only for `examples/perf`, which attaches its tracer after
    // construction; ROADMAP item 2(b) deletes it.
    #[doc(hidden)]
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.cluster.set_tracer(tracer, 0);
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster (fault injection, storage).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The active configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Replaces the configuration for subsequent submissions. The
    /// persistent trusted-tier state (suspicion table, fault analyzer)
    /// carries over; the fault bound of the analyzer stays as created.
    pub fn set_config(&mut self, config: JobConfig) {
        self.config = config;
    }

    /// A counter unique per submission, for namespacing generated inputs.
    pub(crate) fn probe_counter(&self) -> u64 {
        self.script_counter
    }

    /// The persistent suspicion table.
    pub fn suspicion(&self) -> &SuspicionTable {
        &self.suspicion
    }

    /// The persistent fault analyzer (absent when `f == 0`).
    pub fn fault_analyzer(&self) -> Option<&FaultAnalyzer> {
        self.analyzer.as_ref()
    }

    /// Re-admits a node after administrator re-initialization (§4.2: "take
    /// the node off the grid, apply securing patches and reinsert"): its
    /// suspicion history and analyzer evidence are cleared, its slots
    /// restored, and scheduling resumes. The *simulated* fault behaviour is
    /// untouched — whether the patch actually worked is the caller's
    /// choice via [`Cluster::set_node_behavior`].
    pub fn readmit_node(&mut self, node: NodeId) {
        self.suspicion.reset_node(node);
        if let Some(analyzer) = &mut self.analyzer {
            analyzer.clear_node(node);
        }
        self.cluster
            .reset_node(node, self.cluster.node_behavior(node));
    }

    /// Loads an input data set into trusted storage.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` already exists (storage is write-once).
    pub fn load_input(
        &mut self,
        name: &str,
        data: impl Into<cbft_mapreduce::FileData>,
    ) -> Result<(), SubmitError> {
        self.cluster.storage_mut().write_shared(name, data)?;
        Ok(())
    }

    /// Parses and executes a script (see [`ClusterBft::submit_plan`]).
    ///
    /// # Errors
    ///
    /// Parse errors, plan errors, storage errors (missing inputs, output
    /// collisions) and engine failures.
    pub fn submit_script(&mut self, source: &str) -> Result<ScriptOutcome, SubmitError> {
        let plan = Script::parse(source)?.into_plan();
        self.submit_plan(plan)
    }

    /// Executes a logical plan with BFT-replicated sub-graphs, verifying
    /// digests at the configured verification points and re-executing
    /// unverified suffixes until every final output reaches an `f + 1`
    /// quorum (or attempts are exhausted).
    ///
    /// # Errors
    ///
    /// Storage errors (missing inputs, output collisions) and engine
    /// failures. Running out of attempts is *not* an error: the returned
    /// outcome reports `verified() == false`.
    pub fn submit_plan(&mut self, plan: LogicalPlan) -> Result<ScriptOutcome, SubmitError> {
        let script_id = self.script_counter;
        self.script_counter += 1;
        let plan = if self.config.optimize_plans {
            cbft_dataflow::optimize::optimize(&plan)
        } else {
            plan
        };
        let plan = Arc::new(plan);
        let start = self.cluster.now();
        let graph = compile_plan(&plan);
        let obs = self.cluster.obs().clone();

        let vps = self.choose_verification_points(&plan, &graph);
        let vp_map = vp_sites_by_job(&graph, &vps);
        let output_sites: BTreeMap<JobId, Vec<Site>> = graph
            .jobs()
            .iter()
            .map(|j| (j.id(), job_output_sites(j)))
            .collect();
        let store_jobs: Vec<JobId> = graph
            .jobs()
            .iter()
            .filter(|j| matches!(j.output, JobOutput::Store(_)))
            .map(|j| j.id())
            .collect();

        let f = self.config.expected_failures;
        let base_r = self.config.initial_replicas();
        let max_r = base_r.max(3 * f + 1);
        let unverified_baseline = matches!(self.config.vp_policy, VpPolicy::None);
        let max_attempts = if unverified_baseline {
            1
        } else {
            self.config.max_attempts
        };

        let mut trusted: HashMap<JobId, String> = HashMap::new();
        let mut total = cbft_mapreduce::JobMetrics::new();
        let mut replicas_per_attempt = Vec::new();
        let mut jobs_per_attempt = Vec::new();
        let mut deviant_runs = 0u32;
        let mut omitted_runs = 0u32;
        let mut digest_reports = 0u64;
        let mut digest_chunks = 0u64;
        // Replica count and timeout escalate only on omission timeouts
        // (§4.1 step 6); pure digest mismatches instead exclude the
        // analyzer's suspect set and retry, because the mismatch already
        // told us *where* the fault hides.
        let mut r = base_r;
        let mut timeout_scale = 0u32;
        // Nodes excluded for the remainder of this script on suspicion of
        // having caused a mismatch; restored at the end unless isolated.
        let mut temp_excluded: BTreeSet<NodeId> = BTreeSet::new();
        // Digest reuse across attempts (sound for f = 1 because every
        // attempt's suspects are sidelined before the retry; DESIGN.md §2):
        // replicas get globally unique ids so a fresh run's digests can
        // complete a quorum together with prior clean runs.
        let reuse = self.config.reuse_digests;
        let mut verifier = Verifier::new(f, 0);
        let mut completed_by_uid: HashMap<(usize, JobId), CompletedJob> = HashMap::new();
        let mut total_uids = 0usize;
        let mut deviant_uids_seen: BTreeSet<(u32, usize)> = BTreeSet::new();

        for attempt in 0..max_attempts {
            replicas_per_attempt.push(r);
            let run_jobs: Vec<JobId> = graph
                .jobs()
                .iter()
                .map(MrJob::id)
                .filter(|j| !trusted.contains_key(j))
                .collect();
            if run_jobs.is_empty() {
                replicas_per_attempt.pop();
                break; // everything verified in earlier attempts
            }
            jobs_per_attempt.push(run_jobs.len());
            if obs.tracer.enabled() {
                obs.tracer.emit(
                    TraceEvent::begin("attempt", "control")
                        .on(COORDINATOR_PID, 0)
                        .at_sim(self.cluster.now().as_micros())
                        .seq(attempt as u64)
                        .arg("script", script_id)
                        .arg("replicas", r as u64)
                        .arg("jobs", run_jobs.len()),
                );
            }

            // Each MR job gets its own sub-graph id (`sub.graph.id`, §5.3):
            // replica disjointness is enforced per job, so different jobs'
            // clusters may overlap — which is exactly what powers fault
            // isolation (§4.2).
            let sid_prefix = format!("s{script_id}a{attempt}j");
            if !reuse {
                verifier = Verifier::new(f, 0);
                completed_by_uid.clear();
                total_uids = 0;
            }
            let uid_base = total_uids;
            total_uids += r;
            verifier.set_expected(total_uids);
            let attempt_key = if reuse { 0 } else { attempt };
            let mut replicas: Vec<ReplicaJobs> = (0..r)
                .map(|rep| ReplicaJobs {
                    plan: &plan,
                    graph: &graph,
                    vp_map: &vp_map,
                    namespace: format!("cbft-{script_id}/a{attempt}/r{rep}"),
                    sid_prefix: sid_prefix.clone(),
                    replica: uid_base + rep,
                    combiners: self.config.combiners,
                    sample: None,
                    reduce_tasks: self.config.reduce_tasks,
                    map_split_records: self.config.map_split_records,
                    digest_granularity: self.config.digest_granularity,
                    batch_records: self.config.batch_records,
                    files: trusted.clone(),
                    submitted: HashSet::new(),
                })
                .collect();
            let mut completed: Vec<HashMap<JobId, CompletedJob>> = vec![HashMap::new(); r];
            let mut handles: HashMap<RunHandle, (usize, JobId)> = HashMap::new();
            // Per-replica jobs abandoned by early cancellation: once a
            // replica's copy of a job is provably corrupt, everything
            // downstream of it in that replica's lineage is doomed anyway.
            let mut blocked: Vec<HashSet<JobId>> = vec![HashSet::new(); r];
            let descendants = job_descendants(&graph);

            for (rep, jobs) in replicas.iter_mut().enumerate() {
                let wave = jobs.submit_ready(&mut self.cluster, &blocked[rep])?;
                handles.extend(wave.into_iter().map(|(h, job)| (h, (rep, job))));
            }

            let token = TimerToken(self.timer_counter);
            self.timer_counter += 1;
            let timeout = scale_timeout(self.config.verifier_timeout, timeout_scale);
            self.cluster.set_timer(self.cluster.now() + timeout, token);

            let mut timed_out = false;
            loop {
                match self.cluster.step() {
                    Some(EngineEvent::Digest(d)) => {
                        if !d.sid.starts_with(&sid_prefix) {
                            continue;
                        }
                        digest_reports += 1;
                        digest_chunks += d.summary.chunks().len() as u64;
                        // Replica ids are unique per verifier here.
                        let uid = d.replica;
                        verifier.ingest(&StreamedReport {
                            uid,
                            seq: 0,
                            report: d,
                        });
                        if self.config.early_cancel {
                            self.early_cancel_deviants(
                                &verifier,
                                &descendants,
                                uid_base,
                                &mut blocked,
                                &handles,
                                &completed,
                            );
                        }
                    }
                    Some(EngineEvent::JobCompleted { handle, outcome }) => {
                        let Some((rep, job)) = handles.get(&handle).copied() else {
                            continue;
                        };
                        match outcome {
                            JobOutcome::Success {
                                metrics,
                                nodes,
                                output_file,
                            } => {
                                total += metrics;
                                self.suspicion
                                    .record_jobs(nodes.iter().copied())
                                    .emit(&obs.tracer);
                                replicas[rep].files.insert(job, output_file.clone());
                                let done = CompletedJob {
                                    file: output_file,
                                    nodes,
                                };
                                completed_by_uid.insert((uid_base + rep, job), done.clone());
                                completed[rep].insert(job, done);
                                let wave =
                                    replicas[rep].submit_ready(&mut self.cluster, &blocked[rep])?;
                                handles.extend(wave.into_iter().map(|(h, job)| (h, (rep, job))));
                                let all_done = (0..r).all(|i| {
                                    run_jobs.iter().all(|j| {
                                        completed[i].contains_key(j) || blocked[i].contains(j)
                                    })
                                });
                                if all_done {
                                    break;
                                }
                            }
                            JobOutcome::Failed { reason } => {
                                self.cancel_all(&handles, &completed);
                                return Err(SubmitError::Engine(reason));
                            }
                        }
                    }
                    Some(EngineEvent::Timer(t)) if t == token => {
                        timed_out = true;
                        break;
                    }
                    Some(EngineEvent::Timer(_)) => continue,
                    // The sequential pipeline never attaches a sample
                    // plan; spot-checking lives in the parallel executor.
                    Some(EngineEvent::SpotCheck(_)) => continue,
                    None => break,
                }
            }

            // Account omissions: replicas that did not finish in time.
            for rep in 0..r {
                let finished = run_jobs
                    .iter()
                    .all(|j| completed[rep].contains_key(j) || blocked[rep].contains(j));
                if finished {
                    continue;
                }
                omitted_runs += 1;
                let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
                for (handle, (hrep, _)) in &handles {
                    if *hrep == rep {
                        if let Some(used) = self.cluster.running_nodes(*handle) {
                            nodes.extend(used);
                        }
                    }
                }
                // "does not receive a digest from nodes executing the
                // data-flow → the suspicion level of all involved nodes is
                // updated" (§4.3).
                if timed_out {
                    self.suspicion
                        .record_faults(nodes.iter().copied())
                        .emit(&obs.tracer);
                }
            }
            self.cancel_all(&handles, &completed);
            if timed_out && obs.tracer.enabled() {
                obs.tracer.emit(
                    TraceEvent::instant("verify_timeout", "control")
                        .on(COORDINATOR_PID, 0)
                        .at_sim(self.cluster.now().as_micros())
                        .seq(attempt as u64)
                        .arg("timeout_us", timeout.as_micros()),
                );
            }

            // Account commission deviants and feed the fault analyzer with
            // the per-job clusters that produced wrong digests.
            let mut faulty_jobs_of: BTreeMap<usize, BTreeSet<JobId>> = BTreeMap::new();
            for (key, deviant) in verifier.deviants() {
                for uid in deviant {
                    faulty_jobs_of.entry(uid).or_default().insert(key.1.job());
                }
            }
            for (uid, faulty_jobs) in faulty_jobs_of {
                if !deviant_uids_seen.insert((attempt_key, uid)) {
                    continue; // already processed in an earlier evaluation
                }
                deviant_runs += 1;
                // Attribute only at the deviance *frontier*: a job whose
                // dependency already deviated merely inherited corrupt
                // input — its own cluster is innocent.
                for &job in &faulty_jobs {
                    if graph
                        .job(job)
                        .deps()
                        .iter()
                        .any(|d| faulty_jobs.contains(d))
                    {
                        continue;
                    }
                    if let Some(c) = completed_by_uid.get(&(uid, job)) {
                        self.suspicion
                            .record_faults(c.nodes.iter().copied())
                            .emit(&obs.tracer);
                        if let Some(analyzer) = &mut self.analyzer {
                            analyzer.observe_faulty_cluster(c.nodes.clone());
                        }
                    }
                }
            }

            // Quorum-less mismatches (e.g. 1-vs-1 at r = f + 1): the fault
            // cannot be attributed to a replica, but the union of the
            // disagreeing clusters is known to contain it.
            let mismatched_jobs: BTreeSet<JobId> = verifier
                .mismatched_keys()
                .iter()
                .map(|k| k.1.job())
                .collect();
            let mismatch_frontier: Vec<JobId> = mismatched_jobs
                .iter()
                .copied()
                .filter(|j| {
                    !graph
                        .job(*j)
                        .deps()
                        .iter()
                        .any(|d| mismatched_jobs.contains(d))
                })
                .collect();
            for job in mismatch_frontier {
                let mut union: BTreeSet<NodeId> = BTreeSet::new();
                for uid in 0..total_uids {
                    if let Some(c) = completed_by_uid.get(&(uid, job)) {
                        if uid >= uid_base {
                            self.suspicion
                                .record_faults(c.nodes.iter().copied())
                                .emit(&obs.tracer);
                        }
                        union.extend(c.nodes.iter().copied());
                    }
                }
                if let Some(analyzer) = &mut self.analyzer {
                    analyzer.observe_faulty_cluster(union);
                }
            }

            // Trust every job whose output stream reached quorum, taking a
            // quorum member's file (§3.3 variable granularity: the verified
            // frontier is where re-execution restarts).
            for &job in &run_jobs {
                if trusted.contains_key(&job) {
                    continue;
                }
                let holders =
                    (0..total_uids).filter(|&uid| completed_by_uid.contains_key(&(uid, job)));
                if let Some(w) = verifier.winner(&output_sites[&job], holders) {
                    trusted.insert(job, completed_by_uid[&(w, job)].file.clone());
                }
            }

            // Threshold exclusion (§4.2) plus precise exclusion of nodes
            // the fault analyzer has isolated down to a singleton set.
            for node in self
                .suspicion
                .over_threshold(EXCLUSION_THRESHOLD, EXCLUSION_MIN_JOBS)
            {
                self.cluster.set_node_excluded(node, true);
            }
            if let Some(analyzer) = &self.analyzer {
                for node in analyzer.isolated_faulty_nodes() {
                    self.cluster.set_node_excluded(node, true);
                }
            }

            // Without digest reuse the next attempt starts a fresh
            // verifier and numbers its replicas from 0 again, so this
            // attempt's forensics are emitted now, labelled by attempt.
            if !reuse {
                verifier.emit_forensics(&obs.tracer, 0..total_uids, Some(attempt as usize));
            }

            if obs.tracer.enabled() {
                // The attempt's verdict and the records it would publish:
                // the round's line of the health report, as the parallel
                // executor's `round_end` states it.
                let verified = store_jobs.iter().all(|j| trusted.contains_key(j));
                let storage = self.cluster.storage();
                let stored = |j: &JobId| storage.len_of(&trusted[j]).unwrap_or(0) as u64;
                let records: u64 = if verified {
                    store_jobs.iter().map(stored).sum()
                } else {
                    0
                };
                obs.tracer.emit(
                    TraceEvent::end("attempt", "control")
                        .on(COORDINATOR_PID, 0)
                        .at_sim(self.cluster.now().as_micros())
                        .seq(attempt as u64)
                        .arg("verified", u64::from(verified))
                        .arg("timed_out", u64::from(timed_out))
                        .arg("records", records),
                );
            }

            // Unverified baseline: replica 0's outputs are published
            // as-is, whole or not at all.
            if unverified_baseline {
                trusted.clear();
                if completed[0].len() == run_jobs.len() {
                    trusted.extend(completed[0].iter().map(|(&job, c)| (job, c.file.clone())));
                }
                break;
            }
            if store_jobs.iter().all(|j| trusted.contains_key(j)) {
                break;
            }

            // Prepare the next attempt. Timeouts escalate the replica count
            // and the timeout (§4.1 step 6); mismatches instead sideline
            // the analyzer's suspect set so the retry lands on clean nodes
            // — capped so at least half the cluster keeps working.
            if timed_out {
                if f > 0 {
                    r = (r + 1).min(max_r);
                }
                timeout_scale += 1;
            } else if reuse && f > 0 {
                // Every job retains at least one clean prior run whose
                // digests count toward the quorum, so one fresh replica
                // per job completes it once suspects are sidelined.
                r = 1;
            }
            if let Some(analyzer) = &self.analyzer {
                let cap = self.cluster.node_count() / 2;
                for node in analyzer.suspected_nodes() {
                    if temp_excluded.len() >= cap {
                        break;
                    }
                    if !self.cluster.node_excluded(node) {
                        temp_excluded.insert(node);
                        self.cluster.set_node_excluded(node, true);
                    }
                }
            }
        }

        // Verified, baseline done, or attempts exhausted: publish every
        // output or none. The baseline's one attempt sidelines no suspect,
        // so restoring is a no-op there.
        let all_trusted = store_jobs.iter().all(|j| trusted.contains_key(j));
        let outputs = if all_trusted {
            self.publish_from(&graph, &store_jobs, |job| trusted.get(&job).cloned())?
        } else {
            Vec::new()
        };
        self.restore_exclusions(&temp_excluded);
        if reuse {
            verifier.emit_forensics(&obs.tracer, 0..total_uids, None);
        }
        Ok(ScriptOutcome {
            verified: all_trusted && !unverified_baseline,
            attempts: replicas_per_attempt.len() as u32,
            latency: self.cluster.now().since(start),
            total,
            outputs,
            verification_points: vps.iter().copied().collect(),
            replicas_per_attempt,
            jobs_per_attempt,
            deviant_replica_runs: deviant_runs,
            omitted_replica_runs: omitted_runs,
            digest_reports,
            digest_chunks,
        })
    }

    // --- helpers ------------------------------------------------------------

    /// Chooses the instrumented vertices: the policy's points plus the
    /// final outputs (a result can only be *assured* if the output itself
    /// is compared).
    fn choose_verification_points(
        &self,
        plan: &LogicalPlan,
        graph: &JobGraph,
    ) -> BTreeSet<VertexId> {
        choose_points(
            plan,
            graph,
            &self.config.vp_policy,
            self.config.adversary,
            &self.cluster.storage().sizes(),
        )
    }

    /// Blocks the dependency closure of every (replica, job) whose digests
    /// contradict an established quorum: the corrupt output would feed the
    /// descendants, so running them is wasted work.
    fn early_cancel_deviants(
        &mut self,
        verifier: &Verifier,
        descendants: &[BTreeSet<JobId>],
        uid_base: usize,
        blocked: &mut [HashSet<JobId>],
        handles: &HashMap<RunHandle, (usize, JobId)>,
        completed: &[HashMap<JobId, CompletedJob>],
    ) {
        let mut newly_blocked: Vec<(usize, JobId)> = Vec::new();
        for (key, deviant) in verifier.deviants() {
            let job = key.1.job();
            for uid in deviant {
                // Only the current attempt has cancellable work.
                let Some(rep) = uid.checked_sub(uid_base) else {
                    continue;
                };
                if rep >= blocked.len() {
                    continue;
                }
                for &down in &descendants[job.index()] {
                    if blocked[rep].insert(down) {
                        newly_blocked.push((rep, down));
                    }
                }
            }
        }
        for (rep, job) in newly_blocked {
            if completed[rep].contains_key(&job) {
                continue; // already ran to completion; nothing to cancel
            }
            let doomed: Vec<RunHandle> = handles
                .iter()
                .filter(|(_, (r, j))| *r == rep && *j == job)
                .map(|(h, _)| *h)
                .collect();
            for h in doomed {
                self.cluster.cancel(h);
            }
        }
    }

    fn cancel_all(
        &mut self,
        handles: &HashMap<RunHandle, (usize, JobId)>,
        completed: &[HashMap<JobId, CompletedJob>],
    ) {
        for (handle, (rep, job)) in handles {
            if !completed[*rep].contains_key(job) {
                self.cluster.cancel(*handle);
            }
        }
    }

    /// Re-admits nodes that were sidelined on suspicion during this script,
    /// unless the fault analyzer has isolated them or their suspicion level
    /// now exceeds the operator threshold.
    fn restore_exclusions(&mut self, temp_excluded: &BTreeSet<NodeId>) {
        let mut keep: BTreeSet<NodeId> = self
            .suspicion
            .over_threshold(EXCLUSION_THRESHOLD, EXCLUSION_MIN_JOBS)
            .into_iter()
            .collect();
        if let Some(analyzer) = &self.analyzer {
            keep.extend(analyzer.isolated_faulty_nodes());
        }
        for &node in temp_excluded {
            if !keep.contains(&node) {
                self.cluster.set_node_excluded(node, false);
            }
        }
    }

    fn publish_from(
        &mut self,
        graph: &JobGraph,
        store_jobs: &[JobId],
        file_of: impl Fn(JobId) -> Option<String>,
    ) -> Result<Vec<String>, SubmitError> {
        let mut outputs = Vec::new();
        for &job_id in store_jobs {
            let JobOutput::Store(name) = &graph.job(job_id).output else {
                continue;
            };
            let Some(file) = file_of(job_id) else {
                continue;
            };
            // Publication republishes the verified replica file under its
            // STORE name by sharing the write-once payload, in the form
            // the job stored it — no row is copied or built.
            let data =
                self.cluster.storage().handle(&file).ok_or_else(|| {
                    SubmitError::Engine(format!("verified file '{file}' vanished"))
                })?;
            self.cluster.storage_mut().write_shared(name, data)?;
            outputs.push(name.clone());
        }
        Ok(outputs)
    }
}

impl std::fmt::Debug for ClusterBft {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBft")
            .field("config", &self.config)
            .field("scripts_run", &self.script_counter)
            .finish()
    }
}

/// One replica's share of a script run: the `MrJob → ExecJob` lowering
/// and the rule "submit every job whose dependencies have materialized",
/// shared by both orchestrators. The sequential pipeline holds `r` of
/// these over its one shared cluster, the parallel executor one per
/// replica over that replica's private cluster.
pub(crate) struct ReplicaJobs<'a> {
    pub plan: &'a Arc<LogicalPlan>,
    pub graph: &'a JobGraph,
    pub vp_map: &'a HashMap<JobId, Vec<VpSite>>,
    /// Storage namespace of the files this replica writes.
    pub namespace: String,
    /// Job `j` runs under the sub-graph id `{sid_prefix}{j}`.
    pub sid_prefix: String,
    /// Globally unique replica id.
    pub replica: usize,
    /// Whether to combine map-side where no verification point needs the
    /// shuffle's materialized bags.
    pub combiners: bool,
    pub sample: Option<SamplePlan>,
    pub reduce_tasks: usize,
    pub map_split_records: usize,
    pub digest_granularity: usize,
    pub batch_records: usize,
    /// Output file of every job this replica may read: jobs trusted from
    /// earlier attempts (seeded by the caller) and jobs it has completed
    /// (inserted by the caller as they finish).
    pub files: HashMap<JobId, String>,
    /// Jobs handed to the cluster so far.
    pub submitted: HashSet<JobId>,
}

impl ReplicaJobs<'_> {
    /// Submits, in graph order, every job that is neither submitted,
    /// materialized nor `blocked` and whose dependencies have all
    /// materialized; returns the new run handles.
    pub fn submit_ready(
        &mut self,
        cluster: &mut Cluster,
        blocked: &HashSet<JobId>,
    ) -> Result<Vec<(RunHandle, JobId)>, StorageError> {
        let mut wave = Vec::new();
        for job in self.graph.jobs() {
            let id = job.id();
            if self.submitted.contains(&id)
                || self.files.contains_key(&id)
                || blocked.contains(&id)
                || !job.deps().iter().all(|d| self.files.contains_key(d))
            {
                continue;
            }
            wave.push((cluster.submit(self.lower(job))?, id));
            self.submitted.insert(id);
        }
        Ok(wave)
    }

    fn lower(&self, job: &MrJob) -> ExecJob {
        let ns = &self.namespace;
        let vps = self.vp_map.get(&job.id()).cloned().unwrap_or_default();
        let combiner = match (job.shuffle, job.reduce.first()) {
            (Some(sh), Some(&first))
                if self.combiners
                    && !vps.iter().any(|vp| matches!(vp.site, Site::Shuffle { .. })) =>
            {
                cbft_dataflow::combiner::Combiner::for_job(
                    self.plan.vertex(sh).op(),
                    self.plan.vertex(first).op(),
                )
            }
            _ => None,
        };
        ExecJob {
            plan: Arc::clone(self.plan),
            inputs: job
                .inputs
                .iter()
                .map(|i| ExecInput {
                    file: match &i.source {
                        DataSource::Hdfs(f) => f.clone(),
                        DataSource::Intermediate(j) => self.files[j].clone(),
                    },
                    pipeline: i.pipeline.clone(),
                    tag: i.tag,
                })
                .collect(),
            shuffle: job.shuffle,
            reduce: job.reduce.clone(),
            output_file: match &job.output {
                JobOutput::Store(name) => format!("{ns}/{name}"),
                JobOutput::Intermediate => format!("{ns}/j{}", job.id().index()),
            },
            reduce_task_count: if job.single_reduce {
                1
            } else {
                self.reduce_tasks
            },
            map_split_records: self.map_split_records,
            verification_points: vps,
            digest_granularity: self.digest_granularity,
            batch_records: self.batch_records,
            sid: format!("{}{}", self.sid_prefix, job.id().index()),
            replica: self.replica,
            combiner,
            sample: self.sample,
        }
    }
}

/// Chooses the instrumented vertices for `plan` under `policy`: the
/// policy's points plus the final outputs. A free function (rather than a
/// [`ClusterBft`] method) so the sequential pipeline and the parallel
/// executor place *identical* verification points — digests are only
/// comparable across executors when the instrumented vertex sets match.
pub(crate) fn choose_points(
    plan: &LogicalPlan,
    graph: &JobGraph,
    policy: &VpPolicy,
    adversary: Adversary,
    sizes: &HashMap<String, u64>,
) -> BTreeSet<VertexId> {
    let stores: BTreeSet<VertexId> = plan.stores().into_iter().collect();
    match policy {
        VpPolicy::None => BTreeSet::new(),
        VpPolicy::FinalOnly => stores,
        VpPolicy::Marked(n) => {
            let analysis = analyze_plan(plan, sizes);
            let eligible = eligible_vertices(plan, graph, adversary);
            // The final outputs are implicitly verified; seeding them
            // as marked makes the n requested points land at
            // intermediate job boundaries.
            let seeds: Vec<VertexId> = stores.iter().copied().collect();
            let marked = mark_seeded(
                plan,
                &analysis,
                *n as usize,
                |v| eligible.contains(&v.id()),
                &seeds,
            );
            marked.into_iter().chain(stores).collect()
        }
        VpPolicy::Individual => {
            let mut all = eligible_vertices(plan, graph, adversary);
            all.extend(stores);
            all
        }
        VpPolicy::Explicit(vertices) => vertices.iter().copied().chain(stores).collect(),
    }
}

/// Eligible verification vertices under the adversary model: any vertex
/// for a weak adversary; only *job boundaries* (the vertices whose streams
/// are materialized between jobs) for a strong one (§4.1).
pub(crate) fn eligible_vertices(
    plan: &LogicalPlan,
    graph: &JobGraph,
    adversary: Adversary,
) -> BTreeSet<VertexId> {
    match adversary {
        Adversary::Weak => plan.vertices().iter().map(|v| v.id()).collect(),
        Adversary::Strong => graph.jobs().iter().filter_map(job_output_vertex).collect(),
    }
}

/// The vertex whose stream is this job's output (`None` for an empty job,
/// which compilation never produces).
pub(crate) fn job_output_vertex(job: &MrJob) -> Option<VertexId> {
    if let Some(&v) = job.reduce.last() {
        return Some(v);
    }
    if let Some(v) = job.shuffle {
        return Some(v);
    }
    job.inputs.first().and_then(|i| i.pipeline.last()).copied()
}

/// The digest sites that cover this job's output stream.
pub(crate) fn job_output_sites(job: &MrJob) -> Vec<Site> {
    if !job.reduce.is_empty() {
        return vec![Site::Reduce {
            job: job.id(),
            pos: job.reduce.len() - 1,
        }];
    }
    if job.shuffle.is_some() {
        return vec![Site::Shuffle { job: job.id() }];
    }
    job.inputs
        .iter()
        .enumerate()
        .filter(|(_, i)| !i.pipeline.is_empty())
        .map(|(idx, i)| Site::MapInput {
            job: job.id(),
            input: idx,
            pos: i.pipeline.len() - 1,
        })
        .collect()
}

/// The transitive consumers of each job (by index), from the dependency
/// edges of the compiled graph.
fn job_descendants(graph: &JobGraph) -> Vec<BTreeSet<JobId>> {
    let n = graph.len();
    let mut children: Vec<Vec<JobId>> = vec![Vec::new(); n];
    for job in graph.jobs() {
        for dep in job.deps() {
            children[dep.index()].push(job.id());
        }
    }
    let mut out: Vec<BTreeSet<JobId>> = vec![BTreeSet::new(); n];
    // Jobs are topologically ordered by id; accumulate in reverse.
    for i in (0..n).rev() {
        let mut set = BTreeSet::new();
        for &c in &children[i] {
            set.insert(c);
            set.extend(out[c.index()].iter().copied());
        }
        out[i] = set;
    }
    out
}

/// Groups the chosen vertices' execution sites by job.
pub(crate) fn vp_sites_by_job(
    graph: &JobGraph,
    vps: &BTreeSet<VertexId>,
) -> HashMap<JobId, Vec<VpSite>> {
    let mut map: HashMap<JobId, Vec<VpSite>> = HashMap::new();
    for &v in vps {
        for site in graph.vertex_sites(v) {
            map.entry(site.job())
                .or_default()
                .push(VpSite { vertex: v, site });
        }
    }
    map
}

fn scale_timeout(base: SimDuration, attempt: u32) -> SimDuration {
    base.mul_f64(2f64.powi(attempt.min(16) as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbft_dataflow::PlanBuilder;

    #[test]
    fn output_sites_prefer_reduce_tail() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["x"]).unwrap();
        let g = b.add_group(l, 0).unwrap();
        let c = b
            .add_project(g, vec![(cbft_dataflow::Expr::Col(0), "k".into())])
            .unwrap();
        b.add_store(c, "o").unwrap();
        let plan = b.build().unwrap();
        let graph = compile_plan(&plan);
        let job = &graph.jobs()[0];
        let sites = job_output_sites(job);
        assert_eq!(
            sites,
            vec![Site::Reduce {
                job: job.id(),
                pos: job.reduce.len() - 1
            }]
        );
        assert_eq!(job_output_vertex(job), job.reduce.last().copied());
    }

    #[test]
    fn map_only_output_sites_cover_every_input() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["x"]).unwrap();
        let r = b.add_load("g", &["x"]).unwrap();
        let u = b.add_union(l, r).unwrap();
        b.add_store(u, "o").unwrap();
        let plan = b.build().unwrap();
        let graph = compile_plan(&plan);
        let job = &graph.jobs()[0];
        let sites = job_output_sites(job);
        assert_eq!(
            sites.len(),
            2,
            "both union branches digest the store marker"
        );
    }

    /// Without digest reuse each attempt's verifier emits its own
    /// forensics, labelled by attempt, and charges the attempt's replicas
    /// that never reported: here those bound to the crashed node.
    #[test]
    fn every_attempt_charges_its_silent_replica() {
        use cbft_dataflow::{Record, Value};
        use cbft_mapreduce::Behavior;
        use cbft_trace::{ArgValue, Obs};

        let (tracer, sink) = Tracer::memory();
        let obs = Obs {
            tracer,
            ..Obs::disabled()
        };
        let cluster = Cluster::builder()
            .nodes(2)
            .seed(1)
            .node_behavior(0, Behavior::Crashed)
            .obs(obs, 0)
            .build();
        let config = JobConfig::builder()
            .expected_failures(1)
            .max_attempts(2)
            .build();
        let mut cbft = ClusterBft::new(cluster, config);
        let edges: Vec<Record> = (0..40)
            .map(|i| Record::new(vec![Value::Int(i % 4), Value::Int(i)]))
            .collect();
        cbft.load_input("edges", edges).unwrap();
        let outcome = cbft
            .submit_script(
                "raw = LOAD 'edges' AS (user, follower);
                 grp = GROUP raw BY user;
                 cnt = FOREACH grp GENERATE group, COUNT(raw) AS n;
                 STORE cnt INTO 'counts';",
            )
            .unwrap();
        assert_eq!(outcome.attempts, 2, "{outcome:?}");

        let arg = |e: &TraceEvent, key: &str| match e.args.iter().find(|(k, _)| *k == key) {
            Some((_, ArgValue::Uint(v))) => Some(*v),
            _ => None,
        };
        let silent: Vec<(u64, u64)> = sink
            .take()
            .iter()
            .filter(|e| e.name == "replica_forensics" && arg(e, "reports") == Some(0))
            .map(|e| (arg(e, "attempt").unwrap(), arg(e, "omissions").unwrap()))
            .collect();
        let attempts: BTreeSet<u64> = silent.iter().map(|&(attempt, _)| attempt).collect();
        assert_eq!(attempts, BTreeSet::from([0, 1]), "{silent:?}");
        assert!(silent.iter().all(|&(_, omissions)| omissions > 0));
    }

    #[test]
    fn timeout_scaling_doubles() {
        let base = SimDuration::from_secs(10);
        assert_eq!(scale_timeout(base, 0), base);
        assert_eq!(scale_timeout(base, 1), SimDuration::from_secs(20));
        assert_eq!(scale_timeout(base, 2), SimDuration::from_secs(40));
    }
}
