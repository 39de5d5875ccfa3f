//! `cbft-server`: the trusted control tier as a **long-running,
//! multi-tenant job server**.
//!
//! The paper's §1.4 control tier is a service — request handler,
//! execution tracker, resource manager and verifier — yet the rest of
//! this workspace runs exactly one job per process. [`JobServer`] closes
//! that gap:
//!
//! * **Admission queue** ([`sched::FairQueue`]): bounded depth, explicit
//!   [`RejectReason::QueueFull`] responses when it overflows — callers
//!   see backpressure, jobs are never silently dropped.
//! * **Per-tenant weighted fairness**: start-time fair queueing over
//!   tenants, so a tenant flooding the queue cannot starve the others
//!   beyond its configured share.
//! * **Concurrent execution slots**: `slots` worker threads each run one
//!   admitted job at a time through its own [`ParallelExecutor`] — every
//!   job keeps private verifier/suspicion state — while all jobs
//!   multiplex over **one shared compute pool**
//!   ([`ParallelExecutor::set_compute_pool`]) instead of spawning a pool
//!   per job. A job's file inputs ([`JobSpec::input_file`]) are read by
//!   the slot that starts it, so a queued job holds paths, and at most
//!   `slots` jobs' parsed inputs are alive at once.
//! * **Server-level metrics**: admitted/rejected/completed counters, a
//!   queue-depth peak gauge and per-tenant latency histograms land in a
//!   [`Metrics`] hub under the `cbft_server_*` names, rendered by the
//!   cbft-metrics health report.
//!
//! # Determinism
//!
//! A job's verdict, transcript and outputs are a pure function of its
//! own [`JobSpec`] — executor seeding is per-job, the shared pool never
//! affects outcomes (DESIGN.md §5e), and storage is per-replica inside
//! each executor. Co-tenants change *when* a job runs, never *what* it
//! computes; `tests/server.rs` pins solo-vs-loaded byte-identity.
//!
//! # Example
//!
//! ```
//! use cbft_dataflow::{Record, Value};
//! use cbft_server::{JobServer, JobSpec, ServerConfig, SubmitOutcome};
//!
//! let server = JobServer::start(ServerConfig::default());
//! let rows: Vec<Record> = (0..60)
//!     .map(|i| Record::new(vec![Value::Int(i % 4), Value::Int(i)]))
//!     .collect();
//! let spec = JobSpec::new(
//!     "acme",
//!     "a = LOAD 'edges' AS (u, f);
//!      g = GROUP a BY u;
//!      c = FOREACH g GENERATE group, COUNT(a) AS n;
//!      STORE c INTO 'counts';",
//! )
//! .input("edges", rows)
//! .seed(7);
//! let handle = match server.submit(spec) {
//!     SubmitOutcome::Admitted(h) => h,
//!     SubmitOutcome::Rejected(r) => panic!("empty server rejected: {r}"),
//! };
//! let result = handle.wait();
//! assert!(result.outcome.unwrap().verified());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod input;
pub mod sched;

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use cbft_mapreduce::{Behavior, ComputePool, FileData};
use cbft_metrics::{names as metric_names, Domain, LabelValue, Metrics, Snapshot};
use cbft_trace::Obs;
use clusterbft::{ExecutorConfig, ParallelExecutor, ParallelOutcome, SubmitError};
use crossbeam::channel::{unbounded, Receiver, Sender};

pub use input::{load_input, plane, InputLoad, JobInput};
use sched::{AdmitError, FairQueue};

/// Configuration for a [`JobServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent execution slots (worker threads running admitted
    /// jobs). Clamped to ≥ 1.
    pub slots: usize,
    /// Maximum jobs waiting in the admission queue; submissions beyond
    /// it are rejected with [`RejectReason::QueueFull`].
    pub queue_depth: usize,
    /// Threads in the compute pool **shared by every job** for
    /// data-parallel task payloads. `1` runs payloads inline (the
    /// default: with many concurrent jobs, job-level parallelism already
    /// fills the cores); `0` sizes the pool to the host.
    pub compute_threads: usize,
    /// Fair-share weight for tenants without an explicit entry.
    pub default_weight: u64,
    /// Per-tenant fair-share weights.
    pub weights: Vec<(String, u64)>,
    /// Per-tenant in-flight quotas (queued + executing). Tenants without
    /// an entry are unbounded; submissions over the quota are rejected
    /// with [`RejectReason::QuotaExceeded`].
    pub max_inflight: Vec<(String, usize)>,
    /// The server's observability context. Its hub receives the
    /// `cbft_server_*` series and the shared compute pool's counters;
    /// its tracer is shared by every slot worker, each job recording
    /// through [`Obs::scoped`] by its admission id, so co-tenant events
    /// land on disjoint pid bands and never interleave on one track.
    /// Disabled by default.
    pub obs: Obs,
    /// Keep what a forensic bundle needs of each job: a private metrics
    /// hub whose sim-domain snapshot rides on [`JobResult::snapshot`], and
    /// the raw text of every file input the slot parsed, on
    /// [`JobResult::input_texts`]. Per-job isolation keeps co-tenant
    /// forensics (suspicion bands, divergence gauges) from colliding in
    /// the shared server hub. Off by default.
    pub job_forensics: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            slots: 2,
            queue_depth: 64,
            compute_threads: 1,
            default_weight: 1,
            weights: Vec::new(),
            max_inflight: Vec::new(),
            obs: Obs::disabled(),
            job_forensics: false,
        }
    }
}

/// One submitted job: a tenant, a script, its inputs and the executor
/// configuration it runs under.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The submitting tenant (fair-share identity and metrics label).
    pub tenant: String,
    /// Script source text.
    pub script: String,
    /// Input data sets by name.
    pub inputs: Vec<(String, JobInput)>,
    /// Replica faults to inject, `(replica uid, behavior)` — chaos jobs
    /// ride through the server like healthy ones.
    pub faults: Vec<(usize, Behavior)>,
    /// Per-job executor configuration. `master_seed` is the job's seed;
    /// `compute_threads` is ignored (the server's shared pool is used).
    pub exec: ExecutorConfig,
}

impl JobSpec {
    /// A job with default executor configuration (2 replica worker
    /// threads, the paper's escalation schedule).
    pub fn new(tenant: &str, script: &str) -> Self {
        JobSpec {
            tenant: tenant.to_owned(),
            script: script.to_owned(),
            inputs: Vec::new(),
            faults: Vec::new(),
            exec: ExecutorConfig {
                threads: 2,
                compute_threads: 1,
                ..ExecutorConfig::default()
            },
        }
    }

    /// Adds an input data set.
    #[must_use]
    pub fn input(mut self, name: &str, data: impl Into<FileData>) -> Self {
        self.inputs
            .push((name.to_owned(), JobInput::Data(data.into())));
        self
    }

    /// Adds an input read from the CSV file at `path` when a slot starts
    /// the job (see [`load_input`]). A file that cannot be read fails this
    /// job alone, with [`JobError::Input`].
    #[must_use]
    pub fn input_file(mut self, name: &str, path: &str) -> Self {
        self.inputs
            .push((name.to_owned(), JobInput::File(path.to_owned())));
        self
    }

    /// Sets the job's simulation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.exec.master_seed = seed;
        self
    }

    /// Replaces the executor configuration.
    #[must_use]
    pub fn exec(mut self, exec: ExecutorConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Injects a replica fault.
    #[must_use]
    pub fn fault(mut self, uid: usize, behavior: Behavior) -> Self {
        self.faults.push((uid, behavior));
        self
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity — retry later. This is
    /// the server's backpressure signal, never a silent drop.
    QueueFull {
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The tenant is at its configured in-flight quota — retry after one
    /// of its jobs completes. Like queue-full, always explicit.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: String,
        /// Its configured in-flight bound.
        limit: usize,
    },
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth } => {
                write!(f, "queue full ({depth} jobs waiting)")
            }
            RejectReason::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant '{tenant}' at its in-flight quota ({limit})")
            }
            RejectReason::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

/// Why an admitted job produced no [`ParallelOutcome`].
#[derive(Debug)]
pub enum JobError {
    /// The executor refused or failed the job (parse error, an input the
    /// script loads but the job does not give, replica worker panic).
    Exec(SubmitError),
    /// A file input could not be read; the message names the input and
    /// its path.
    Input(String),
    /// The job was cancelled through [`JobHandle::cancel`] while still
    /// queued; it never reached an execution slot.
    Cancelled,
    /// The slot worker died (panicked) before delivering a result. The
    /// job's fate is unknown; resubmit to a healthy server.
    WorkerLost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Exec(e) => e.fmt(f),
            JobError::Input(e) => f.write_str(e),
            JobError::Cancelled => write!(f, "job cancelled before dispatch"),
            JobError::WorkerLost => write!(f, "slot worker lost before completion"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SubmitError> for JobError {
    fn from(e: SubmitError) -> Self {
        JobError::Exec(e)
    }
}

/// The server's answer to [`JobServer::submit`].
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The job is queued; await its [`JobResult`] through the handle.
    Admitted(JobHandle),
    /// Explicit backpressure — the job was **not** queued.
    Rejected(RejectReason),
}

impl SubmitOutcome {
    /// Unwraps the admitted handle.
    ///
    /// # Panics
    ///
    /// Panics when the submission was rejected.
    pub fn expect_admitted(self) -> JobHandle {
        match self {
            SubmitOutcome::Admitted(h) => h,
            SubmitOutcome::Rejected(r) => panic!("job rejected: {r}"),
        }
    }
}

/// Awaitable handle to one admitted job.
pub struct JobHandle {
    /// Server-wide admission id (submit order).
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    rx: Receiver<JobResult>,
    /// Back-reference for [`JobHandle::cancel`]; weak so an outstanding
    /// handle never keeps a dropped server's state alive.
    server: Weak<Inner>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// Blocks until the job finishes. If the slot worker executing the
    /// job died (panicked) before delivering a result, returns a
    /// [`JobError::WorkerLost`] result instead of panicking the caller.
    pub fn wait(self) -> JobResult {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => JobResult {
                id: self.id,
                tenant: self.tenant,
                outcome: Err(JobError::WorkerLost),
                queue_us: 0,
                exec_us: 0,
                total_us: 0,
                timeline: JobTimeline::default(),
                snapshot: None,
                inputs: Vec::new(),
                input_texts: Vec::new(),
            },
        }
    }

    /// Cancels the job if it is still waiting in the admission queue:
    /// the job is removed (its quota freed), counted under
    /// `cbft_server_jobs_cancelled_total`, and its result arrives as
    /// [`JobError::Cancelled`]. Returns `false` when the job was already
    /// dispatched to a slot (or finished) — execution is not interrupted.
    pub fn cancel(&self) -> bool {
        let Some(inner) = self.server.upgrade() else {
            return false;
        };
        let removed = {
            let mut state = inner.state.lock().expect("server state poisoned");
            state.queue.remove(self.id)
        };
        let Some(dispatched) = removed else {
            return false;
        };
        if inner.obs.metrics.enabled() {
            inner
                .obs
                .metrics
                .add(Domain::Wall, metric_names::SERVER_CANCELLED, &[], 1);
        }
        let Pending {
            tx,
            submitted,
            admitted_us,
            ..
        } = dispatched.payload;
        let waited = submitted.elapsed().as_micros() as u64;
        let _ = tx.send(JobResult {
            id: self.id,
            tenant: dispatched.tenant,
            outcome: Err(JobError::Cancelled),
            queue_us: waited,
            exec_us: 0,
            total_us: waited,
            timeline: JobTimeline {
                admitted_us,
                dispatched_us: 0,
                completed_us: admitted_us + waited,
            },
            snapshot: None,
            inputs: Vec::new(),
            input_texts: Vec::new(),
        });
        true
    }
}

/// Per-job lifecycle timestamps, in wall microseconds since the server
/// started. `0` marks a stage the job never reached (e.g. dispatch for
/// a cancelled job). Together with the durations on [`JobResult`] this
/// is the admit → queue → execute → verify timeline operators read off
/// the per-job result lines and the per-tenant summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTimeline {
    /// When the admission queue accepted the job.
    pub admitted_us: u64,
    /// When a slot worker picked the job up (queueing ended).
    pub dispatched_us: u64,
    /// When execution and verification finished.
    pub completed_us: u64,
}

/// What one job's execution produced, with its latency breakdown.
#[derive(Debug)]
pub struct JobResult {
    /// Admission id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The verified outcome, or why the job never produced one
    /// (executor error, cancellation, lost worker).
    pub outcome: Result<ParallelOutcome, JobError>,
    /// Wall microseconds spent waiting in the admission queue.
    pub queue_us: u64,
    /// Wall microseconds spent executing, reading the job's file inputs
    /// included.
    pub exec_us: u64,
    /// Wall microseconds from submission to completion.
    pub total_us: u64,
    /// Lifecycle timestamps relative to server start.
    pub timeline: JobTimeline,
    /// The job's private sim-domain metrics snapshot, when the server
    /// runs with [`ServerConfig::job_forensics`]. Deterministic per job:
    /// co-tenants and thread counts never change it.
    pub snapshot: Option<Snapshot>,
    /// What the loader read of each file input, in the spec's order; a
    /// job whose input failed lists the ones read before it.
    pub inputs: Vec<(String, InputLoad)>,
    /// The raw text of each file input, exactly the bytes the slot
    /// parsed, when the server runs with [`ServerConfig::job_forensics`];
    /// empty otherwise.
    pub input_texts: Vec<(String, String)>,
}

impl JobResult {
    /// Whether the job ran and every output reached a digest quorum.
    pub fn verified(&self) -> bool {
        self.outcome.as_ref().is_ok_and(ParallelOutcome::verified)
    }
}

struct Pending {
    spec: JobSpec,
    tx: Sender<JobResult>,
    submitted: Instant,
    /// µs since server start at admission (timeline origin).
    admitted_us: u64,
}

struct State {
    queue: FairQueue<Pending>,
    draining: bool,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    pool: ComputePool,
    obs: Obs,
    queue_depth: usize,
    job_forensics: bool,
    /// Timeline origin: the instant the server started.
    epoch: Instant,
}

/// The multi-tenant job server. See the crate docs.
pub struct JobServer {
    inner: Arc<Inner>,
    workers: VecDeque<JoinHandle<()>>,
}

impl JobServer {
    /// Starts the server: spawns `config.slots` execution workers and
    /// the shared compute pool.
    pub fn start(config: ServerConfig) -> Self {
        let mut queue = FairQueue::new(config.queue_depth, config.default_weight);
        for (tenant, weight) in &config.weights {
            queue.set_weight(tenant, *weight);
        }
        for (tenant, limit) in &config.max_inflight {
            queue.set_max_inflight(tenant, *limit);
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue,
                draining: false,
            }),
            work_ready: Condvar::new(),
            pool: ComputePool::with_metrics(config.compute_threads, config.obs.metrics.clone()),
            obs: config.obs,
            queue_depth: config.queue_depth,
            job_forensics: config.job_forensics,
            epoch: Instant::now(),
        });
        let slots = config.slots.max(1);
        let workers = (0..slots)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cbftd-slot-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn job-server worker")
            })
            .collect();
        JobServer { inner, workers }
    }

    /// Submits a job. Returns immediately: either an admitted handle or
    /// an explicit rejection (queue full / shutting down).
    pub fn submit(&self, spec: JobSpec) -> SubmitOutcome {
        let tenant = spec.tenant.clone();
        let mut state = self.inner.state.lock().expect("server state poisoned");
        if state.draining {
            return SubmitOutcome::Rejected(RejectReason::ShuttingDown);
        }
        let (tx, rx) = unbounded();
        let pending = Pending {
            spec,
            tx,
            submitted: Instant::now(),
            admitted_us: self.inner.epoch.elapsed().as_micros() as u64,
        };
        match state.queue.push(&tenant, pending) {
            Ok(id) => {
                let depth = state.queue.len();
                drop(state);
                if self.inner.obs.metrics.enabled() {
                    let m = &self.inner.obs.metrics;
                    m.add(Domain::Wall, metric_names::SERVER_ADMITTED, &[], 1);
                    m.gauge_max(
                        Domain::Wall,
                        metric_names::SERVER_QUEUE_PEAK,
                        &[],
                        depth as u64,
                    );
                }
                self.inner.work_ready.notify_one();
                SubmitOutcome::Admitted(JobHandle {
                    id,
                    tenant,
                    rx,
                    server: Arc::downgrade(&self.inner),
                })
            }
            Err(err) => {
                drop(state);
                if self.inner.obs.metrics.enabled() {
                    self.inner
                        .obs
                        .metrics
                        .add(Domain::Wall, metric_names::SERVER_REJECTED, &[], 1);
                }
                SubmitOutcome::Rejected(match err {
                    AdmitError::Full(_) => RejectReason::QueueFull {
                        depth: self.inner.queue_depth,
                    },
                    AdmitError::QuotaExceeded { tenant, limit } => {
                        RejectReason::QuotaExceeded { tenant, limit }
                    }
                })
            }
        }
    }

    /// Jobs currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("server state poisoned")
            .queue
            .len()
    }

    /// Drains and stops the server: already-admitted jobs finish, new
    /// submissions are rejected, workers join.
    pub fn shutdown(mut self) {
        {
            let mut state = self.inner.state.lock().expect("server state poisoned");
            state.draining = true;
        }
        self.inner.work_ready.notify_all();
        while let Some(w) = self.workers.pop_front() {
            w.join().expect("job-server worker panicked");
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        // A dropped (not shut down) server still drains: mark and join.
        if let Ok(mut state) = self.inner.state.lock() {
            state.draining = true;
        }
        self.inner.work_ready.notify_all();
        while let Some(w) = self.workers.pop_front() {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let dispatched = {
            let mut state = inner.state.lock().expect("server state poisoned");
            loop {
                if let Some(d) = state.queue.pop() {
                    break d;
                }
                if state.draining {
                    return;
                }
                state = inner.work_ready.wait(state).expect("server state poisoned");
            }
        };
        let id = dispatched.id;
        let tenant = dispatched.tenant;
        let Pending {
            spec,
            tx,
            submitted,
            admitted_us,
        } = dispatched.payload;

        let started = Instant::now();
        let dispatched_us = inner.epoch.elapsed().as_micros() as u64;
        let queue_us = (started - submitted).as_micros() as u64;
        let Ran {
            outcome,
            snapshot,
            inputs,
            input_texts,
        } = run_job(inner, id, spec);
        let finished = Instant::now();
        let completed_us = inner.epoch.elapsed().as_micros() as u64;
        let exec_us = (finished - started).as_micros() as u64;
        let total_us = (finished - submitted).as_micros() as u64;

        // The job no longer occupies its tenant's in-flight quota slot.
        inner
            .state
            .lock()
            .expect("server state poisoned")
            .queue
            .release(&tenant);

        if inner.obs.metrics.enabled() {
            let m = &inner.obs.metrics;
            let by_tenant = [("tenant", LabelValue::Owned(tenant.clone()))];
            m.add(Domain::Wall, metric_names::SERVER_COMPLETED, &by_tenant, 1);
            if outcome.as_ref().is_ok_and(ParallelOutcome::verified) {
                m.add(Domain::Wall, metric_names::SERVER_VERIFIED, &by_tenant, 1);
            }
            if outcome.is_err() {
                m.add(Domain::Wall, metric_names::SERVER_FAILED, &by_tenant, 1);
            }
            m.observe(
                Domain::Wall,
                metric_names::SERVER_JOB_LATENCY_US,
                &by_tenant,
                total_us,
            );
            m.observe(
                Domain::Wall,
                metric_names::SERVER_JOB_QUEUE_US,
                &by_tenant,
                queue_us,
            );
        }
        // A dropped handle is fine — the job still ran; the send just
        // has no listener.
        let _ = tx.send(JobResult {
            id,
            tenant,
            outcome,
            queue_us,
            exec_us,
            total_us,
            timeline: JobTimeline {
                admitted_us,
                dispatched_us,
                completed_us,
            },
            snapshot,
            inputs,
            input_texts,
        });
    }
}

/// What running one job produced, besides its timings.
struct Ran {
    outcome: Result<ParallelOutcome, JobError>,
    snapshot: Option<Snapshot>,
    inputs: Vec<(String, InputLoad)>,
    input_texts: Vec<(String, String)>,
}

/// Executes one job in its own [`ParallelExecutor`] (private verifier
/// and suspicion state), over the server's shared compute pool. File
/// inputs are read here, on the job's own plane (columnar unless its
/// `batch_records` is 0). The job records through the server tracer
/// scoped to its id, so concurrently executing co-tenants write to
/// disjoint pid bands. Its sim-domain series (suspicion bands,
/// divergence gauges) would collide across co-tenants in the server hub,
/// so they never go there: with [`ServerConfig::job_forensics`] the job
/// gets a private hub whose sim snapshot is returned, and the raw input
/// texts are kept; without, it records none and keeps none.
fn run_job(inner: &Inner, id: u64, spec: JobSpec) -> Ran {
    let hub = inner.job_forensics.then(Metrics::new);
    let obs = Obs {
        metrics: hub.clone().unwrap_or_default(),
        ..inner.obs.scoped(id)
    };
    let columnar = spec.exec.batch_records > 0;
    let mut exec = ParallelExecutor::observed(spec.exec, obs);
    exec.set_compute_pool(inner.pool.clone());
    let mut inputs = Vec::new();
    let mut input_texts = Vec::new();
    let outcome = (|| {
        for (name, input) in spec.inputs {
            let data = match input {
                JobInput::Data(data) => data,
                JobInput::File(path) => {
                    let (data, text, load) =
                        load_input(&name, &path, columnar).map_err(JobError::Input)?;
                    inputs.push((name.clone(), load));
                    if inner.job_forensics {
                        input_texts.push((name.clone(), text));
                    }
                    data
                }
            };
            exec.load_input(&name, data)?;
        }
        for (uid, behavior) in spec.faults {
            exec.inject_fault(uid, behavior);
        }
        Ok(exec.run_script(&spec.script)?)
    })();
    Ran {
        outcome,
        snapshot: hub.map(|h| h.snapshot().sim_only()),
        inputs,
        input_texts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbft_dataflow::{Record, Value};

    const SCRIPT: &str = "
        a = LOAD 'in' AS (k, v);
        g = GROUP a BY k;
        c = FOREACH g GENERATE group, COUNT(a) AS n;
        STORE c INTO 'out';
    ";

    fn rows(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(vec![Value::Int(i % 5), Value::Int(i)]))
            .collect()
    }

    #[test]
    fn runs_jobs_from_multiple_tenants() {
        let server = JobServer::start(ServerConfig {
            slots: 3,
            ..ServerConfig::default()
        });
        let handles: Vec<JobHandle> = (0..9)
            .map(|i| {
                let tenant = ["a", "b", "c"][i % 3];
                server
                    .submit(
                        JobSpec::new(tenant, SCRIPT)
                            .input("in", rows(40))
                            .seed(i as u64),
                    )
                    .expect_admitted()
            })
            .collect();
        for h in handles {
            let r = h.wait();
            assert!(r.verified(), "job {} unverified", r.id);
            assert!(r.total_us >= r.exec_us);
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_rejects() {
        let server = JobServer::start(ServerConfig {
            slots: 1,
            ..ServerConfig::default()
        });
        let handles: Vec<JobHandle> = (0..4)
            .map(|i| {
                server
                    .submit(JobSpec::new("t", SCRIPT).input("in", rows(40)).seed(i))
                    .expect_admitted()
            })
            .collect();
        let results: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
        server.shutdown();
        assert!(results.iter().all(JobResult::verified));
    }

    #[test]
    fn rejected_submission_reports_queue_full() {
        // One slot, depth 1: burst submissions must hit explicit
        // backpressure (the slot can drain at most a few jobs in the
        // microseconds the burst takes).
        let server = JobServer::start(ServerConfig {
            slots: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        });
        let mut rejected = 0;
        let mut handles = Vec::new();
        for i in 0..32 {
            match server.submit(JobSpec::new("t", SCRIPT).input("in", rows(400)).seed(i)) {
                SubmitOutcome::Admitted(h) => handles.push(h),
                SubmitOutcome::Rejected(RejectReason::QueueFull { depth }) => {
                    assert_eq!(depth, 1);
                    rejected += 1;
                }
                SubmitOutcome::Rejected(other) => panic!("unexpected: {other}"),
            }
        }
        assert!(
            rejected > 0,
            "32-deep burst into a depth-1 queue must reject"
        );
        for h in handles {
            assert!(h.wait().verified());
        }
        server.shutdown();
    }

    #[test]
    fn cancel_pulls_queued_job_and_resolves_waiters() {
        // One slot kept busy by a large job: the second submission sits in
        // the queue where cancel() can still reach it.
        let server = JobServer::start(ServerConfig {
            slots: 1,
            ..ServerConfig::default()
        });
        let busy = server
            .submit(JobSpec::new("t", SCRIPT).input("in", rows(4000)).seed(1))
            .expect_admitted();
        let queued = server
            .submit(JobSpec::new("t", SCRIPT).input("in", rows(40)).seed(2))
            .expect_admitted();
        assert!(queued.cancel(), "still-queued job must be cancellable");
        assert!(!queued.cancel(), "second cancel finds nothing to remove");
        let r = queued.wait();
        assert!(matches!(r.outcome, Err(JobError::Cancelled)));
        assert!(!r.verified());
        assert_eq!(r.exec_us, 0, "a cancelled job never executed");
        assert!(busy.wait().verified());
        server.shutdown();
    }

    #[test]
    fn cancel_misses_job_already_dispatched() {
        let server = JobServer::start(ServerConfig {
            slots: 1,
            ..ServerConfig::default()
        });
        let h = server
            .submit(JobSpec::new("t", SCRIPT).input("in", rows(40)).seed(9))
            .expect_admitted();
        // Let the idle slot pick the job up; cancel then races dispatch,
        // and whichever side wins must be reflected consistently in the
        // result the waiter sees.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let cancelled = h.cancel();
        let r = h.wait();
        if cancelled {
            assert!(matches!(r.outcome, Err(JobError::Cancelled)));
        } else {
            assert!(r.verified(), "uncancelled job runs to completion");
        }
        server.shutdown();
    }

    #[test]
    fn per_tenant_quota_rejects_excess_inflight_jobs() {
        let server = JobServer::start(ServerConfig {
            slots: 1,
            max_inflight: vec![("metered".into(), 1)],
            ..ServerConfig::default()
        });
        let first = server
            .submit(
                JobSpec::new("metered", SCRIPT)
                    .input("in", rows(4000))
                    .seed(1),
            )
            .expect_admitted();
        match server.submit(
            JobSpec::new("metered", SCRIPT)
                .input("in", rows(40))
                .seed(2),
        ) {
            SubmitOutcome::Rejected(RejectReason::QuotaExceeded { tenant, limit }) => {
                assert_eq!(tenant, "metered");
                assert_eq!(limit, 1);
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // Unmetered tenants are unaffected by someone else's quota.
        let free = server
            .submit(JobSpec::new("other", SCRIPT).input("in", rows(40)).seed(3))
            .expect_admitted();
        assert!(first.wait().verified());
        assert!(free.wait().verified());
        // The completed job released its slot: the tenant may submit again.
        let again = server
            .submit(
                JobSpec::new("metered", SCRIPT)
                    .input("in", rows(40))
                    .seed(4),
            )
            .expect_admitted();
        assert!(again.wait().verified());
        server.shutdown();
    }

    #[test]
    fn faulty_job_escalates_inside_the_server() {
        let server = JobServer::start(ServerConfig::default());
        let spec = JobSpec::new("chaos", SCRIPT)
            .input("in", rows(60))
            .seed(3)
            .fault(0, Behavior::Commission { probability: 1.0 });
        let r = server.submit(spec).expect_admitted().wait();
        let outcome = r.outcome.expect("ran");
        assert!(outcome.verified(), "escalation recovers inside the server");
        assert!(outcome.deviant_replicas().contains(&0));
        server.shutdown();
    }

    /// Runs `spec` alone on a fresh server.
    fn solo(spec: JobSpec) -> JobResult {
        let server = JobServer::start(ServerConfig::default());
        let r = server.submit(spec).expect_admitted().wait();
        server.shutdown();
        r
    }

    #[test]
    fn a_file_input_runs_exactly_like_the_same_data_given_in_memory() {
        let dir = std::env::temp_dir().join(format!("cbft_server_files_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let even: String = (0..60).map(|i| format!("{},{}\n", i % 5, i)).collect();
        let ragged = format!("{even}7\n3,4,5\n");
        for (case, text, batch_records) in [
            ("columnar", &even, 1024),
            ("rows", &even, 0),
            ("ragged", &ragged, 1024),
        ] {
            let path = dir.join(format!("{case}.csv"));
            std::fs::write(&path, text).unwrap();
            let spec = || {
                let mut spec = JobSpec::new("t", SCRIPT).seed(5);
                spec.exec.batch_records = batch_records;
                spec
            };
            let in_memory = solo(spec().input("in", cbft_dataflow::csv::parse_records(text)));
            let from_file = solo(spec().input_file("in", path.to_str().unwrap()));

            let (a, b) = (in_memory.outcome.unwrap(), from_file.outcome.unwrap());
            assert!(a.verified() && b.verified(), "{case}");
            assert_eq!(a.transcript(), b.transcript(), "{case}");
            assert_eq!(a.outputs(), b.outputs(), "{case}");
            assert!(in_memory.inputs.is_empty(), "{case}");
            // No forensics asked for, so no text is kept.
            assert!(from_file.input_texts.is_empty(), "{case}");
            let [(name, load)] = &from_file.inputs[..] else {
                panic!("{case}: one load, got {:?}", from_file.inputs);
            };
            assert_eq!(name, "in");
            let line = load.line("in");
            let rows = text.lines().count();
            let plane = match case {
                "ragged" => "rows (ragged: line 61 has 1 fields, line 1 has 2)",
                plane => plane,
            };
            let expected = format!("in: {rows} rows, {} bytes, {plane}, load ", text.len());
            assert!(line.starts_with(&expected), "{case}: {line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_input_file_fails_its_job_alone_and_forensics_keep_the_text_read() {
        let dir = std::env::temp_dir().join(format!("cbft_server_missing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.csv");
        let text: String = (0..40).map(|i| format!("{},{}\n", i % 5, i)).collect();
        std::fs::write(&good, &text).unwrap();
        let missing = dir.join("missing.csv");
        let server = JobServer::start(ServerConfig {
            job_forensics: true,
            ..ServerConfig::default()
        });
        let submit = |path: &std::path::Path, seed| {
            let spec = JobSpec::new("t", SCRIPT)
                .input_file("in", path.to_str().unwrap())
                .seed(seed);
            server.submit(spec).expect_admitted()
        };
        let handles = [submit(&good, 1), submit(&missing, 2), submit(&good, 3)];
        let results: Vec<JobResult> = handles.into_iter().map(JobHandle::wait).collect();
        server.shutdown();

        assert!(results[0].verified() && results[2].verified());
        let err = results[1].outcome.as_ref().unwrap_err().to_string();
        let prefix = format!("cannot read input 'in' from '{}': ", missing.display());
        assert!(err.starts_with(&prefix), "{err}");
        assert!(results[1].inputs.is_empty() && results[1].input_texts.is_empty());
        assert_eq!(results[0].input_texts, vec![("in".to_owned(), text)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_metered_job_records_into_its_own_hub_and_pid_band_only() {
        let (tracer, sink) = cbft_trace::Tracer::memory();
        let server_hub = Metrics::new();
        let server = JobServer::start(ServerConfig {
            slots: 1,
            obs: Obs {
                tracer,
                metrics: server_hub.clone(),
            },
            job_forensics: true,
            ..ServerConfig::default()
        });
        let spec = JobSpec::new("chaos", SCRIPT)
            .input("in", rows(60))
            .seed(3)
            .fault(0, Behavior::Commission { probability: 1.0 });
        let r = server.submit(spec).expect_admitted().wait();
        server.shutdown();
        assert!(r.verified());

        // The job's sim series (task latency, suspicion forensics) are in
        // its private snapshot...
        let job = r.snapshot.expect("job_forensics delivers a snapshot");
        for name in [metric_names::TASK_SIM_US, metric_names::REPLICA_MISMATCHES] {
            assert!(job.samples.iter().any(|s| s.name == name), "{name}");
        }
        // ...and the server hub holds only its own wall-domain series.
        let shared = server_hub.snapshot();
        assert!(shared.sim_only().samples.is_empty(), "{shared:?}");
        assert!(shared
            .samples
            .iter()
            .all(|s| s.name.starts_with("cbft_server_") || s.name.starts_with("cbft_pool_")));

        // Every event lands in the job's pid band, tagged with its id.
        let base = r.id as u32 * cbft_trace::JOB_PID_STRIDE;
        let band = base..base + cbft_trace::JOB_PID_STRIDE;
        let events = sink.take();
        assert!(!events.is_empty());
        for e in &events {
            assert!(band.contains(&e.pid), "pid {} outside {band:?}", e.pid);
            assert!(e.args.contains(&("job", cbft_trace::ArgValue::Uint(r.id))));
        }
    }
}
