//! The cluster engine: job tracker, task trackers and the event loop.
//!
//! Mirrors Hadoop 1.x (§5.1 of the paper): a central job tracker receives
//! jobs; worker nodes with a few task slots obtain tasks on heartbeats;
//! map tasks read splits from trusted storage, shuffle partitions to
//! reduce tasks, and job outputs land back on trusted storage. The engine
//! is a deterministic discrete-event simulation over
//! [`cbft_sim::EventQueue`]; records really flow (see [`crate::task`]),
//! time is charged via [`CostModel`].
//!
//! Scheduling is *wake-driven*: nodes receive a heartbeat when work may be
//! available (submission, task completion, phase transition) instead of
//! polling forever. A job with omission-faulty tasks therefore hangs
//! quietly: the event queue drains and [`Cluster::step`] returns `None`
//! with the job incomplete — callers model the paper's verifier timeout
//! with [`Cluster::set_timer`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use cbft_sim::{CostModel, EventQueue, SeedSpawner, SimDuration, SimTime};
use cbft_trace::{Obs, TraceEvent, Tracer};
use rand::rngs::StdRng;

use crate::compute::{default_compute_threads, ComputePool, Ticket};
use crate::fault::{Behavior, NodeId, TaskFate, WorkerNode};
use crate::metrics::JobMetrics;
use crate::scheduler::{FifoScheduler, SchedContext, Scheduler, TaskChoice};
use crate::spec::{DigestReport, ExecJob, RunHandle, TaskKind};
use crate::spotcheck::SpotCheckRecord;
use crate::storage::{Storage, StorageError};
use crate::task::{run_task, Partition, TaskInput, TaskOutput};

// The parallel replica executor gives every replica its own `Cluster` and
// moves it (plus the jobs submitted to it and the events it emits) onto a
// worker thread. These assertions keep the whole per-run state `Send`; a
// new `Rc`/`RefCell`/raw-pointer field anywhere inside would fail the
// build here instead of far away in the executor.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Cluster>();
    assert_send::<ExecJob>();
    assert_send::<EngineEvent>();
    assert_send::<Storage>();
};

/// Token identifying a caller-set timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

/// An observable event produced by the engine.
#[derive(Clone, Debug)]
pub enum EngineEvent {
    /// A digest reached the verifier (possibly before its job completed).
    Digest(DigestReport),
    /// A job finished.
    JobCompleted {
        /// The run that completed.
        handle: RunHandle,
        /// How it ended.
        outcome: JobOutcome,
    },
    /// A timer set via [`Cluster::set_timer`] fired.
    Timer(TimerToken),
    /// A sampled task completed under a [`crate::SamplePlan`]: its
    /// captured true inputs and recorded output digest, ready for
    /// trusted re-execution by the spot-check verification tier.
    SpotCheck(Box<SpotCheckRecord>),
}

/// Terminal state of one job run.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job wrote its output.
    Success {
        /// Resource usage.
        metrics: JobMetrics,
        /// Every node that executed at least one task — the paper's *job
        /// cluster*, the unit of suspicion for fault isolation.
        nodes: BTreeSet<NodeId>,
        /// The output file written.
        output_file: String,
    },
    /// The job could not write its output.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

impl JobOutcome {
    /// True for [`JobOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, JobOutcome::Success { .. })
    }
}

#[derive(Debug)]
enum Event {
    Heartbeat(NodeId),
    TaskDone {
        handle: RunHandle,
        kind: TaskKind,
        index: usize,
    },
    /// Speculative-execution check: if the task has not completed by now,
    /// re-queue it on another node (Hadoop's task-timeout recovery).
    TaskCheck {
        handle: RunHandle,
        kind: TaskKind,
        index: usize,
    },
    Timer(TimerToken),
}

#[derive(Debug)]
enum TaskSt {
    Pending,
    /// Payload handed to the compute pool; joined (and priced into a
    /// `TaskDone` event) by [`Cluster::settle_dispatched`] before the
    /// sim clock can advance past the dispatch instant.
    Dispatched {
        node: NodeId,
        ticket: Ticket<TaskOutput>,
    },
    Running {
        node: NodeId,
        result: Box<TaskOutput>,
    },
    Hung,
    Done,
}

impl TaskSt {
    fn is_pending(&self) -> bool {
        matches!(self, TaskSt::Pending)
    }

    fn is_done(&self) -> bool {
        matches!(self, TaskSt::Done)
    }
}

/// The tasks of one phase (map or reduce) of a job, index-aligned.
#[derive(Debug, Default)]
struct Phase {
    inputs: Vec<TaskInput>,
    states: Vec<TaskSt>,
    /// The partitions each completed task handed over; moved out whole
    /// when the phase is done.
    outputs: Vec<Vec<Partition>>,
}

impl Phase {
    fn new(inputs: Vec<TaskInput>) -> Self {
        Phase {
            states: inputs.iter().map(|_| TaskSt::Pending).collect(),
            outputs: vec![Vec::new(); inputs.len()],
            inputs,
        }
    }

    /// True once the phase exists and every task in it completed.
    fn is_done(&self) -> bool {
        !self.states.is_empty() && self.states.iter().all(TaskSt::is_done)
    }
}

/// A dispatched payload awaiting its join, in dispatch (FIFO) order —
/// the order is part of the deterministic event schedule.
#[derive(Clone, Copy, Debug)]
struct PendingJoin {
    handle: RunHandle,
    kind: TaskKind,
    index: usize,
}

#[derive(Debug)]
struct RunningJob {
    /// Shared with in-flight payload closures on the compute pool.
    spec: Arc<ExecJob>,
    submitted_at: SimTime,
    /// One task per split window into a shared input file.
    map: Phase,
    /// HDFS-style home node of each map split (block placement).
    map_task_homes: Vec<NodeId>,
    /// One task per gathered partition; empty until the maps are done.
    reduce: Phase,
    /// True inputs of sampled tasks, captured at dispatch (before the
    /// untrusted task can touch them) and handed to the spot-check record
    /// when the task completes.
    sampled_inputs: BTreeMap<(TaskKind, usize), TaskInput>,
    in_reduce_phase: bool,
    metrics: JobMetrics,
    nodes_used: BTreeSet<NodeId>,
}

impl RunningJob {
    fn phase(&self, kind: TaskKind) -> &Phase {
        match kind {
            TaskKind::Map => &self.map,
            TaskKind::Reduce => &self.reduce,
        }
    }

    fn phase_mut(&mut self, kind: TaskKind) -> &mut Phase {
        match kind {
            TaskKind::Map => &mut self.map,
            TaskKind::Reduce => &mut self.reduce,
        }
    }
}

struct NodeState {
    worker: WorkerNode,
    free_slots: usize,
    rng: StdRng,
    /// Sticky sub-graph→replica binding enforcing §5.3's constraint that
    /// tasks of two replicas of the same job never share a node.
    bindings: BTreeMap<String, usize>,
    excluded: bool,
    heartbeat_pending: bool,
}

/// Builder for [`Cluster`].
///
/// # Examples
///
/// ```
/// use cbft_mapreduce::{Behavior, Cluster};
///
/// let cluster = Cluster::builder()
///     .nodes(8)
///     .slots_per_node(3)
///     .seed(7)
///     .node_behavior(0, Behavior::Commission { probability: 1.0 })
///     .build();
/// assert_eq!(cluster.node_count(), 8);
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    nodes: usize,
    slots_per_node: usize,
    cost: CostModel,
    seed: u64,
    behaviors: Vec<(usize, Behavior)>,
    use_overlap_scheduler: bool,
    task_timeout: Option<SimDuration>,
    obs: Obs,
    trace_pid: u32,
    compute_pool: Option<ComputePool>,
}

impl ClusterBuilder {
    /// Number of worker nodes in the untrusted tier.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Task slots per node (Hadoop configures 3-4 on 4-core nodes).
    pub fn slots_per_node(mut self, slots: usize) -> Self {
        self.slots_per_node = slots;
        self
    }

    /// Cost model for converting work to virtual time.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Master RNG seed; identical seeds replay identical histories.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the behaviour of node `index` (default: honest).
    pub fn node_behavior(mut self, index: usize, behavior: Behavior) -> Self {
        self.behaviors.push((index, behavior));
        self
    }

    /// Use the paper's overlap-maximizing scheduler instead of FIFO.
    pub fn overlap_scheduler(mut self, on: bool) -> Self {
        self.use_overlap_scheduler = on;
        self
    }

    /// Enables speculative re-execution: a task that has not completed
    /// this long after assignment is re-queued on another node, masking
    /// single-task omission faults at the cluster level (Hadoop's task
    /// timeout). Off by default — the paper handles omissions at the
    /// verifier instead (§4.1 step 6), and several experiments depend on
    /// a wedged replica reaching the verifier timeout.
    pub fn task_timeout(mut self, timeout: SimDuration) -> Self {
        self.task_timeout = Some(timeout);
        self
    }

    /// Shares a compute pool with this cluster: task payloads (the
    /// map/reduce UDFs plus digest hashing) execute on the pool's
    /// workers while the engine keeps sole authority over scheduling,
    /// fault draws and virtual time. Payloads are pure, so verdicts,
    /// outputs and canonical traces are identical for every pool size.
    /// The parallel executor passes one pool shared by all replicas;
    /// the default is sized by [`default_compute_threads`] (inline
    /// unless `CBFT_COMPUTE_THREADS` is set).
    pub fn compute_pool(mut self, pool: ComputePool) -> Self {
        self.compute_pool = Some(pool);
        self
    }

    /// Convenience for [`ClusterBuilder::compute_pool`]: builds a
    /// dedicated pool of `threads` workers (`0` = host cores, `1` =
    /// inline).
    pub fn compute_threads(self, threads: usize) -> Self {
        self.compute_pool(ComputePool::new(threads))
    }

    /// Attaches the observability context: the tracer records task,
    /// heartbeat, shuffle and job events on the `trace_pid` track. With a
    /// live hub, [`ClusterBuilder::build`] attaches the metrics fold
    /// ([`Obs::folded`]; a no-op when the caller already did), which
    /// turns those events into task sim-latency histograms, shuffle bytes
    /// and heartbeat counts labeled `replica = trace_pid` (the parallel
    /// executor passes the replica's globally unique uid, so replicas
    /// land on different tracks and series). The default is
    /// [`Obs::disabled`] — one branch per site.
    pub fn obs(mut self, obs: Obs, trace_pid: u32) -> Self {
        self.obs = obs;
        self.trace_pid = trace_pid;
        self
    }

    /// Builds the cluster.
    ///
    /// # Panics
    ///
    /// Panics if a `node_behavior` index is out of range, or if the node or
    /// slot count is zero.
    pub fn build(self) -> Cluster {
        assert!(self.nodes > 0, "cluster needs at least one node");
        assert!(self.slots_per_node > 0, "nodes need at least one slot");
        let seeds = SeedSpawner::new(self.seed);
        let mut nodes: Vec<NodeState> = (0..self.nodes)
            .map(|i| NodeState {
                worker: WorkerNode::new(NodeId(i), self.slots_per_node, Behavior::Honest),
                free_slots: self.slots_per_node,
                rng: seeds.rng("node", i as u64),
                bindings: BTreeMap::new(),
                excluded: false,
                heartbeat_pending: false,
            })
            .collect();
        for (i, b) in self.behaviors {
            nodes
                .get_mut(i)
                .unwrap_or_else(|| panic!("node index {i} out of range"))
                .worker
                .set_behavior(b);
        }
        let scheduler: Box<dyn Scheduler> = if self.use_overlap_scheduler {
            Box::new(crate::scheduler::OverlapScheduler)
        } else {
            Box::new(FifoScheduler)
        };
        Cluster {
            nodes,
            storage: Storage::new(),
            queue: EventQueue::new(),
            cost: self.cost,
            scheduler,
            jobs: BTreeMap::new(),
            next_handle: 0,
            outbox: VecDeque::new(),
            placement_salt: seeds.seed("placement", 0) as usize,
            rotation_nonce: 0,
            task_timeout: self.task_timeout,
            obs: self.obs.folded(),
            trace_pid: self.trace_pid,
            pool: self
                .compute_pool
                .unwrap_or_else(|| ComputePool::new(default_compute_threads())),
            pending_joins: VecDeque::new(),
            tasks_done: 0,
        }
    }
}

/// The simulated Hadoop cluster: worker nodes, trusted storage and the job
/// tracker event loop.
///
/// # Examples
///
/// See the crate-level documentation and the `quickstart` example.
pub struct Cluster {
    nodes: Vec<NodeState>,
    storage: Storage,
    queue: EventQueue<Event>,
    cost: CostModel,
    scheduler: Box<dyn Scheduler>,
    jobs: BTreeMap<RunHandle, RunningJob>,
    next_handle: u64,
    outbox: VecDeque<EngineEvent>,
    /// Seed-derived salt mixed into the per-node candidate rotation, so
    /// different seeds explore different task placements.
    placement_salt: usize,
    /// Monotonic per-submission nonce also mixed into the rotation:
    /// successive jobs land on different node subsets, as they would under
    /// Hadoop's load-dependent placement — without it, repeated scripts
    /// would produce identical job clusters and the fault analyzer would
    /// never see a new intersection.
    rotation_nonce: usize,
    /// Speculative-execution deadline, if enabled.
    task_timeout: Option<SimDuration>,
    /// Tracer and metrics hub (disabled by default: a plain `Option`
    /// check per site); the tracer folds into the hub when it is live.
    obs: Obs,
    /// Track id for this cluster's trace events (replica uid under the
    /// parallel executor; 0 in standalone use).
    trace_pid: u32,
    /// Executes task payloads; possibly shared with other replicas.
    pool: ComputePool,
    /// Dispatched payloads not yet joined back into the simulation.
    pending_joins: VecDeque<PendingJoin>,
    /// Tasks that ran to completion, over all jobs.
    tasks_done: u64,
}

/// Span name for a task of the given kind (static so disabled tracing
/// never formats).
fn task_span_name(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Map => "map_task",
        TaskKind::Reduce => "reduce_task",
    }
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: 8,
            slots_per_node: 3,
            cost: CostModel::default(),
            seed: 0,
            behaviors: Vec::new(),
            use_overlap_scheduler: true,
            task_timeout: None,
            obs: Obs::disabled(),
            trace_pid: 0,
            compute_pool: None,
        }
    }

    /// The observability context given to [`ClusterBuilder::obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    // Kept only for `ClusterBft::set_tracer`; ROADMAP item 2(b) deletes it.
    #[doc(hidden)]
    pub fn set_tracer(&mut self, tracer: Tracer, trace_pid: u32) {
        let metrics = self.obs.metrics.clone();
        self.obs = Obs { tracer, metrics }.folded();
        self.trace_pid = trace_pid;
    }

    /// The compute pool executing task payloads; see
    /// [`ClusterBuilder::compute_pool`].
    pub fn compute_pool(&self) -> &ComputePool {
        &self.pool
    }

    /// Replaces the compute pool after construction. Safe between events:
    /// any payload still in flight keeps a handle to the old pool, and
    /// joining a ticket makes progress inline even after its pool's
    /// workers shut down.
    pub fn set_compute_pool(&mut self, pool: ComputePool) {
        self.pool = pool;
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Map and reduce tasks completed so far, over all jobs — the
    /// population a [`SamplePlan`](crate::SamplePlan) draws its
    /// spot-checks from.
    pub fn tasks_done(&self) -> u64 {
        self.tasks_done
    }

    /// Number of worker nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The trusted storage layer.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to the trusted storage layer (for loading inputs and
    /// publishing verified outputs).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Replaces a node's behaviour (e.g. to compromise it mid-run in a
    /// test, or to heal it after re-initialization).
    pub fn set_node_behavior(&mut self, node: NodeId, behavior: Behavior) {
        self.nodes[node.0].worker.set_behavior(behavior);
    }

    /// A node's behaviour.
    pub fn node_behavior(&self, node: NodeId) -> Behavior {
        self.nodes[node.0].worker.behavior()
    }

    /// Excludes (or re-admits) a node from scheduling — the resource
    /// manager's suspicion-threshold removal (§4.2).
    pub fn set_node_excluded(&mut self, node: NodeId, excluded: bool) {
        self.nodes[node.0].excluded = excluded;
        if !excluded {
            self.wake_nodes(SimDuration::ZERO);
        }
    }

    /// True when the node is currently excluded from scheduling.
    pub fn node_excluded(&self, node: NodeId) -> bool {
        self.nodes[node.0].excluded
    }

    /// Sets a timer; [`EngineEvent::Timer`] fires when virtual time reaches
    /// `at`. Used by callers to model the verifier timeout.
    pub fn set_timer(&mut self, at: SimTime, token: TimerToken) {
        self.queue.schedule(at, Event::Timer(token));
    }

    /// Submits a job for execution.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError`] when an input file is missing or the
    /// output file already exists — both caller bugs best surfaced at
    /// submission.
    pub fn submit(&mut self, spec: ExecJob) -> Result<RunHandle, StorageError> {
        if self.storage.exists(&spec.output_file) {
            return Err(StorageError::AlreadyExists(spec.output_file.clone()));
        }
        let mut map_task_inputs = Vec::new();
        let mut map_task_homes = Vec::new();
        let node_count = self.nodes.len() as u64;
        for (i, input) in spec.inputs.iter().enumerate() {
            let records = self.storage.read(&input.file)?;
            let split = spec.map_split_records.max(1);
            // Splits are `[start, end)` windows into the shared file — no
            // record is copied at submission. Even an empty input runs one
            // map task so that digest correspondence across replicas is
            // preserved.
            let bounds: Vec<(usize, usize)> = if records.is_empty() {
                vec![(0, 0)]
            } else {
                (0..records.len())
                    .step_by(split)
                    .map(|s| (s, (s + split).min(records.len())))
                    .collect()
            };
            for (split_idx, (start, end)) in bounds.into_iter().enumerate() {
                // HDFS block placement surrogate: the split's "home" node
                // is a stable hash of (file, split index).
                let mut key = input.file.clone().into_bytes();
                key.extend_from_slice(&(split_idx as u64).to_be_bytes());
                map_task_homes.push(NodeId((crate::task::fnv1a(&key) % node_count) as usize));
                map_task_inputs.push(TaskInput::Split {
                    input: i,
                    file: records.clone(),
                    start,
                    end,
                });
            }
        }
        let n_maps = map_task_inputs.len();
        let handle = RunHandle(self.next_handle);
        self.next_handle += 1;
        self.rotation_nonce = self.rotation_nonce.wrapping_add(0x9e37);
        let job = RunningJob {
            submitted_at: self.now(),
            map: Phase::new(map_task_inputs),
            map_task_homes,
            reduce: Phase::default(),
            sampled_inputs: BTreeMap::new(),
            in_reduce_phase: false,
            metrics: JobMetrics::new(),
            nodes_used: BTreeSet::new(),
            spec: Arc::new(spec),
        };
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::instant("job_submitted", "engine")
                    .on(self.trace_pid, 0)
                    .at_sim(self.now().as_micros())
                    .seq(handle.raw())
                    .arg("sid", job.spec.sid.as_str())
                    .arg("replica", job.spec.replica)
                    .arg("maps", n_maps),
            );
        }
        self.jobs.insert(handle, job);
        // Nodes pick the job up on their next heartbeat; half an interval
        // models the expected heartbeat wait.
        let delay = SimDuration::from_micros(self.cost.heartbeat_interval.as_micros() / 2);
        self.wake_nodes(delay);
        Ok(handle)
    }

    /// Cancels a run, freeing its slots (including slots wedged by
    /// omission-faulty tasks). Returns `false` when the handle is unknown
    /// or already finished.
    pub fn cancel(&mut self, handle: RunHandle) -> bool {
        let Some(job) = self.jobs.remove(&handle) else {
            return false;
        };
        for st in job.map.states.iter().chain(job.reduce.states.iter()) {
            match st {
                // Dispatched payloads also occupy a slot; their tickets
                // drop with the job (an orphaned pool result is simply
                // discarded on completion).
                TaskSt::Running { node, .. } | TaskSt::Dispatched { node, .. } => {
                    self.nodes[node.0].free_slots += 1;
                }
                _ => {}
            }
            // Hung tasks' nodes are recorded in nodes_used but their slot
            // accounting is handled below via recount.
        }
        // A slot wedged by an omission-faulty (hung) task is not reclaimed:
        // the stuck process keeps holding it until the node is healed via
        // [`Cluster::reset_node`], mirroring a real hung JVM.
        self.release_sid_if_unused(&job.spec.sid);
        self.wake_nodes(SimDuration::ZERO);
        true
    }

    /// Heals a node: restores all its slots, clears replica bindings and
    /// re-admits it — the administrator's "take the node off the grid,
    /// apply patches, reinsert" cycle (§4.2).
    pub fn reset_node(&mut self, node: NodeId, behavior: Behavior) {
        let slots = self.nodes[node.0].worker.slots();
        let n = &mut self.nodes[node.0];
        n.free_slots = slots;
        n.bindings.clear();
        n.excluded = false;
        n.worker.set_behavior(behavior);
        self.wake_nodes(SimDuration::ZERO);
    }

    /// Nodes that have executed (or are executing) tasks of an in-flight
    /// run — §4.1: on a verifier timeout "the suspicion level of all
    /// involved nodes is updated", which needs the cluster of a job that
    /// never completed.
    pub fn running_nodes(&self, handle: RunHandle) -> Option<BTreeSet<NodeId>> {
        self.jobs.get(&handle).map(|j| j.nodes_used.clone())
    }

    /// Whether any submitted job has not yet completed.
    pub fn has_incomplete_jobs(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// Handles of jobs still in flight.
    pub fn incomplete_jobs(&self) -> Vec<RunHandle> {
        self.jobs.keys().copied().collect()
    }

    /// Advances the simulation until the next observable event.
    ///
    /// Returns `None` when nothing can make progress any more: either all
    /// jobs completed, or the remaining jobs are wedged on omission faults
    /// (and no timer is pending) — the situation the paper's verifier
    /// timeout exists for.
    pub fn step(&mut self) -> Option<EngineEvent> {
        loop {
            if let Some(ev) = self.outbox.pop_front() {
                return Some(ev);
            }
            // Dispatched payloads must rejoin the simulation before the
            // clock can advance past their dispatch instant (their
            // completion events are scheduled relative to it). Settling
            // only once no same-instant events remain maximizes the
            // batch width handed to the pool: every heartbeat at this
            // instant dispatches before the first join blocks.
            if !self.pending_joins.is_empty() && self.queue.peek_time() != Some(self.queue.now()) {
                self.settle_dispatched();
            }
            let ev = self.queue.pop()?;
            match ev.event {
                Event::Heartbeat(node) => self.on_heartbeat(node),
                Event::TaskDone {
                    handle,
                    kind,
                    index,
                } => self.on_task_done(handle, kind, index),
                Event::TaskCheck {
                    handle,
                    kind,
                    index,
                } => self.on_task_check(handle, kind, index),
                Event::Timer(token) => self.outbox.push_back(EngineEvent::Timer(token)),
            }
        }
    }

    /// Runs until quiescent, collecting every observable event.
    pub fn run_to_quiescence(&mut self) -> Vec<EngineEvent> {
        let mut events = Vec::new();
        while let Some(ev) = self.step() {
            events.push(ev);
        }
        events
    }

    // --- internals --------------------------------------------------------

    fn wake_nodes(&mut self, delay: SimDuration) {
        let at = self.now() + delay;
        for i in 0..self.nodes.len() {
            let n = &mut self.nodes[i];
            if !n.excluded && n.free_slots > 0 && !n.heartbeat_pending {
                n.heartbeat_pending = true;
                self.queue.schedule(at, Event::Heartbeat(NodeId(i)));
            }
        }
    }

    fn on_heartbeat(&mut self, node: NodeId) {
        self.nodes[node.0].heartbeat_pending = false;
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::instant("heartbeat", "engine")
                    .on(self.trace_pid, node.0 as u32)
                    .at_sim(self.now().as_micros())
                    .arg("free_slots", self.nodes[node.0].free_slots),
            );
        }
        if self.nodes[node.0].excluded || self.nodes[node.0].free_slots == 0 {
            return;
        }
        let candidates = self.candidates_for(node);
        if candidates.is_empty() {
            return;
        }
        let ctx = SchedContext {
            node,
            free_slots: self.nodes[node.0].free_slots,
            sids_on_node: self.nodes[node.0].bindings.keys().cloned().collect(),
        };
        let mut picks = self.scheduler.pick(&ctx, &candidates);
        picks.dedup();
        picks.truncate(self.nodes[node.0].free_slots);
        for p in picks {
            let Some(choice) = candidates.get(p) else {
                continue;
            };
            self.assign(node, choice.clone());
        }
        // If work remains that this node could take, heartbeat again.
        if self.nodes[node.0].free_slots > 0 && !self.candidates_for(node).is_empty() {
            let at = self.now() + self.cost.heartbeat_interval;
            self.nodes[node.0].heartbeat_pending = true;
            self.queue.schedule(at, Event::Heartbeat(node));
        }
    }

    /// Schedulable tasks for `node`, as an interleaving of per-run groups
    /// rotated by the node index. The rotation makes different nodes prefer
    /// different replicas of the same sub-graph, so sticky replica bindings
    /// cannot starve a replica (on a real cluster the same effect comes
    /// from replicas living in separate Hadoop job queues).
    fn candidates_for(&self, node: NodeId) -> Vec<TaskChoice> {
        let n = &self.nodes[node.0];
        let mut groups: Vec<Vec<TaskChoice>> = Vec::new();
        for (handle, job) in &self.jobs {
            if let Some(&bound) = n.bindings.get(&job.spec.sid) {
                if bound != job.spec.replica {
                    continue; // replica-disjointness constraint
                }
            }
            let kind = if job.in_reduce_phase {
                TaskKind::Reduce
            } else {
                TaskKind::Map
            };
            let group: Vec<TaskChoice> = job
                .phase(kind)
                .states
                .iter()
                .enumerate()
                .filter(|(_, st)| st.is_pending())
                .map(|(i, _)| TaskChoice {
                    handle: *handle,
                    sid: job.spec.sid.clone(),
                    replica: job.spec.replica,
                    kind,
                    task_index: i,
                    local: kind == TaskKind::Map && job.map_task_homes[i] == node,
                })
                .collect();
            if !group.is_empty() {
                groups.push(group);
            }
        }
        if groups.is_empty() {
            return Vec::new();
        }
        let rotation =
            (node.0 ^ self.placement_salt).wrapping_add(self.rotation_nonce) % groups.len();
        groups.rotate_left(rotation);
        let mut out = Vec::new();
        let mut cursors: Vec<std::vec::IntoIter<TaskChoice>> =
            groups.into_iter().map(Vec::into_iter).collect();
        loop {
            let mut emitted = false;
            for c in &mut cursors {
                if let Some(t) = c.next() {
                    out.push(t);
                    emitted = true;
                }
            }
            if !emitted {
                return out;
            }
        }
    }

    fn assign(&mut self, node: NodeId, choice: TaskChoice) {
        let Some(job) = self.jobs.get_mut(&choice.handle) else {
            return;
        };
        if !job.phase(choice.kind).states[choice.task_index].is_pending() {
            return;
        }
        {
            let n = &mut self.nodes[node.0];
            if n.free_slots == 0 {
                return;
            }
            if let Some(&bound) = n.bindings.get(&job.spec.sid) {
                if bound != job.spec.replica {
                    return;
                }
            }
            n.bindings.insert(job.spec.sid.clone(), job.spec.replica);
            n.free_slots -= 1;
        }
        job.nodes_used.insert(node);

        let fate = {
            let n = &mut self.nodes[node.0];
            n.worker.behavior().draw(&mut n.rng)
        };
        if self.obs.tracer.enabled() {
            let ev = if fate == TaskFate::Omitted {
                TraceEvent::instant("task_omitted", "engine")
            } else {
                TraceEvent::begin(task_span_name(choice.kind), "engine").arg(
                    "fate",
                    if fate == TaskFate::Corrupt {
                        "corrupt"
                    } else {
                        "faithful"
                    },
                )
            };
            self.obs.tracer.emit(
                ev.on(self.trace_pid, node.0 as u32)
                    .at_sim(self.queue.now().as_micros())
                    .seq(choice.task_index as u64)
                    .arg("sid", choice.sid.as_str())
                    .arg("replica", choice.replica),
            );
        }
        if fate == TaskFate::Omitted {
            // The slot is wedged: the task never reports back. The paper
            // handles this at the verifier via timeout and re-execution;
            // with a task timeout configured, the cluster itself re-queues
            // the task (speculative execution) after the deadline.
            job.phase_mut(choice.kind).states[choice.task_index] = TaskSt::Hung;
            if let Some(deadline) = self.task_timeout {
                let at = self.queue.now() + deadline;
                self.queue.schedule(
                    at,
                    Event::TaskCheck {
                        handle: choice.handle,
                        kind: choice.kind,
                        index: choice.task_index,
                    },
                );
            }
            return;
        }

        // Hand the pure payload to the compute pool; the simulation
        // rejoins it in `settle_dispatched` before the clock can move
        // past this instant. Payloads are pure functions of
        // `(spec, input, fate)`, so nothing about the pool (size, steal
        // order, host timing) can reach the simulated history.
        let spec = Arc::clone(&job.spec);
        // The payload gets a worker handle to the pool: the shuffle sort
        // is chunked over it and the columnar plane fans Merkle-level
        // hashing out over it.
        let task_pool = self.pool.worker_handle();
        let input = job.phase_mut(choice.kind).inputs[choice.task_index].take();
        let sampled = spec.sample.as_ref();
        if sampled.is_some_and(|s| s.samples(&spec.sid, choice.kind, choice.task_index)) {
            job.sampled_inputs
                .insert((choice.kind, choice.task_index), input.capture());
        }
        let ticket = self
            .pool
            .dispatch(move || run_task(&spec, input, fate, &task_pool));
        job.phase_mut(choice.kind).states[choice.task_index] = TaskSt::Dispatched { node, ticket };
        self.pending_joins.push_back(PendingJoin {
            handle: choice.handle,
            kind: choice.kind,
            index: choice.task_index,
        });
    }

    /// Joins every dispatched payload, in dispatch order, pricing each
    /// result through the cost model and scheduling its `TaskDone` at
    /// `now + duration`. Called from [`Cluster::step`] while the clock
    /// still reads the dispatch instant, so completion times are
    /// identical to computing payloads synchronously at assignment —
    /// the join order (and thus event insertion order) is part of the
    /// deterministic schedule, independent of which pool worker ran
    /// what when.
    fn settle_dispatched(&mut self) {
        while let Some(p) = self.pending_joins.pop_front() {
            // The job may have been cancelled after dispatch; its ticket
            // already dropped with the task state.
            let Some(job) = self.jobs.get_mut(&p.handle) else {
                continue;
            };
            let state = &mut job.phase_mut(p.kind).states[p.index];
            let st = std::mem::replace(state, TaskSt::Pending);
            let TaskSt::Dispatched { node, ticket } = st else {
                *state = st;
                continue;
            };
            let computed = ticket.join();
            let w = computed.work;
            let duration = match p.kind {
                TaskKind::Map => {
                    let write = if job.spec.is_map_only() {
                        self.cost.hdfs(w.bytes_out)
                    } else {
                        self.cost.disk(w.bytes_out)
                    };
                    // A data-local task streams its split from the local
                    // disk; a remote one pays the storage network path.
                    let read = if job.map_task_homes[p.index] == node {
                        self.cost.disk(w.bytes_in)
                    } else {
                        self.cost.hdfs(w.bytes_in) + self.cost.net_latency
                    };
                    self.cost.task_startup
                        + read
                        + self.cost.cpu_records(w.record_ops)
                        + self.cost.digest_bytes(w.digest_bytes)
                        + write
                }
                TaskKind::Reduce => {
                    self.cost.task_startup
                        + self.cost.network(w.bytes_in)
                        + self.cost.net_latency
                        + self.cost.disk(w.bytes_in)
                        + self.cost.cpu_records(w.record_ops)
                        + self.cost.digest_bytes(w.digest_bytes)
                        + self.cost.hdfs(w.bytes_out)
                }
            };
            if self.obs.tracer.enabled() {
                // The task's cost-model duration, priced here: a task
                // cancelled before it completes still had one.
                self.obs.tracer.emit(
                    TraceEvent::instant("task_cost", "engine")
                        .on(self.trace_pid, node.0 as u32)
                        .at_sim(self.queue.now().as_micros())
                        .seq(p.index as u64)
                        .arg("kind", p.kind.to_string())
                        .arg("dur_us", duration.as_micros()),
                );
            }
            job.phase_mut(p.kind).states[p.index] = TaskSt::Running {
                node,
                result: Box::new(computed),
            };
            let done_at = self.queue.now() + duration;
            self.queue.schedule(
                done_at,
                Event::TaskDone {
                    handle: p.handle,
                    kind: p.kind,
                    index: p.index,
                },
            );
        }
    }

    /// Speculative-execution deadline: a task still hung gets re-queued;
    /// anything else (done, running with a pending completion event, or a
    /// cancelled job) is left alone.
    fn on_task_check(&mut self, handle: RunHandle, kind: TaskKind, index: usize) {
        let Some(job) = self.jobs.get_mut(&handle) else {
            return;
        };
        let state = &mut job.phase_mut(kind).states[index];
        if matches!(state, TaskSt::Hung) {
            *state = TaskSt::Pending;
            self.wake_nodes(SimDuration::ZERO);
        }
    }

    fn on_task_done(&mut self, handle: RunHandle, kind: TaskKind, index: usize) {
        let now = self.queue.now();
        let Some(job) = self.jobs.get_mut(&handle) else {
            return;
        };
        let state = &mut job.phase_mut(kind).states[index];
        let st = std::mem::replace(state, TaskSt::Done);
        let TaskSt::Running { node, result } = st else {
            *state = st; // not running (e.g. stale event) — restore
            return;
        };
        self.nodes[node.0].free_slots += 1;
        self.tasks_done += 1;
        if self.obs.tracer.enabled() {
            // Stage wall times ride on the span's End as wall-domain
            // args: in the exported trace and the summary, never in the
            // canonical trace.
            let mut end = TraceEvent::end(task_span_name(kind), "engine")
                .on(self.trace_pid, node.0 as u32)
                .at_sim(now.as_micros())
                .seq(index as u64);
            if kind == TaskKind::Map && !job.spec.is_map_only() {
                end = end.arg("shuffle_bytes", result.work.bytes_out);
            }
            for (stage, ns) in result.stages.named() {
                end = end.wall_arg(stage, ns);
            }
            self.obs.tracer.emit(end);
        }

        let w = result.work;
        job.metrics.cpu_time +=
            self.cost.cpu_records(w.record_ops) + self.cost.digest_bytes(w.digest_bytes);
        match kind {
            TaskKind::Map => {
                job.metrics.hdfs_read_bytes += w.bytes_in;
                if job.map_task_homes[index] == node {
                    job.metrics.data_local_tasks += 1;
                }
                if job.spec.is_map_only() {
                    job.metrics.hdfs_write_bytes += w.bytes_out;
                } else {
                    job.metrics.local_write_bytes += w.bytes_out;
                }
                job.metrics.map_tasks += 1;
            }
            TaskKind::Reduce => {
                job.metrics.network_bytes += w.bytes_in;
                job.metrics.local_read_bytes += w.bytes_in;
                job.metrics.hdfs_write_bytes += w.bytes_out;
                job.metrics.reduce_tasks += 1;
            }
        }
        // Spot-check evidence for a sampled task: the true input captured
        // at dispatch plus the recorded output commitment (digested here,
        // on the trusted side — no sim time charged).
        let spot = job.sampled_inputs.remove(&(kind, index)).map(|input| {
            EngineEvent::SpotCheck(Box::new(SpotCheckRecord {
                sid: job.spec.sid.clone(),
                replica: job.spec.replica,
                kind,
                task_index: index,
                node,
                recorded: result.commitment(kind, job.spec.digest_granularity),
                spec: Arc::clone(&job.spec),
                input,
            }))
        });
        let TaskOutput { data, digests, .. } = *result;
        for (vp, summary) in digests {
            job.metrics.network_bytes += 40 * summary.chunks().len() as u64;
            if self.obs.tracer.enabled() {
                self.obs.tracer.emit(
                    TraceEvent::instant("digest", "engine")
                        .on(self.trace_pid, node.0 as u32)
                        .at_sim(now.as_micros())
                        .seq(index as u64)
                        .arg("vertex", vp.vertex.0 as u64)
                        .arg("chunks", summary.chunks().len()),
                );
            }
            self.outbox.push_back(EngineEvent::Digest(DigestReport {
                sid: job.spec.sid.clone(),
                replica: job.spec.replica,
                vertex: vp.vertex,
                site: vp.site,
                kind,
                task_index: index,
                summary,
                at: now,
            }));
        }
        self.outbox.extend(spot);
        job.phase_mut(kind).outputs[index] = data;

        // Phase transitions. A finished phase's outputs are gathered in
        // task order, run by run with `Partition::concat`: the map
        // phase's per reduce partition into the reduce tasks' inputs, the
        // last phase's into the one partition that becomes the job's
        // output file. First transpose ownership — collect each
        // partition's per-task runs, moving handles only. Records and
        // batches move, never clone, so the zero-copy invariant
        // (`records_cloned == 0` on the replica read path) is preserved.
        let mut completed: Option<Partition> = None;
        if job.phase(kind).is_done() {
            let last = kind == TaskKind::Reduce || job.spec.is_map_only();
            // Without a shuffle every task hands over one partition.
            let n_partitions = if last || job.spec.is_collector() {
                1
            } else {
                job.spec.reduce_task_count.max(1)
            };
            let mut per_part = vec![Vec::new(); n_partitions];
            for parts in std::mem::take(&mut job.phase_mut(kind).outputs) {
                for (p, run) in parts.into_iter().enumerate() {
                    per_part[p].push(run);
                }
            }
            if last {
                completed = per_part.pop().map(Partition::concat);
            } else {
                // Concatenate the partitions concurrently on the compute
                // pool; per-partition outputs are independent of the
                // pool, keeping the gather deterministic.
                let gathers: Vec<Ticket<Partition>> = per_part
                    .into_iter()
                    .map(|runs| self.pool.dispatch(move || Partition::concat(runs)))
                    .collect();
                job.reduce = Phase::new(
                    gathers
                        .into_iter()
                        .map(|t| TaskInput::Partition(t.join()))
                        .collect(),
                );
                job.in_reduce_phase = true;
                if self.obs.tracer.enabled() {
                    self.obs.tracer.emit(
                        TraceEvent::instant("shuffle_start", "engine")
                            .on(self.trace_pid, 0)
                            .at_sim(now.as_micros())
                            .seq(handle.raw())
                            .arg("reduces", n_partitions),
                    );
                }
            }
        }
        if let Some(output) = completed {
            self.complete_job(handle, output);
        }

        self.wake_nodes(SimDuration::ZERO);
    }

    fn complete_job(&mut self, handle: RunHandle, output: Partition) {
        let mut job = self.jobs.remove(&handle).expect("completing a live job");
        job.metrics.observe_span(job.submitted_at, self.now());
        let written = self
            .storage
            .write_shared(&job.spec.output_file, output.into_file());
        let outcome = match written {
            Ok(_) => JobOutcome::Success {
                metrics: job.metrics,
                nodes: job.nodes_used.clone(),
                output_file: job.spec.output_file.clone(),
            },
            Err(e) => JobOutcome::Failed {
                reason: e.to_string(),
            },
        };
        if self.obs.tracer.enabled() {
            self.obs.tracer.emit(
                TraceEvent::instant("job_completed", "engine")
                    .on(self.trace_pid, 0)
                    .at_sim(self.now().as_micros())
                    .seq(handle.raw())
                    .arg("sid", job.spec.sid.as_str())
                    .arg("success", if outcome.is_success() { 1u64 } else { 0 }),
            );
        }
        self.release_sid_if_unused(&job.spec.sid);
        self.outbox
            .push_back(EngineEvent::JobCompleted { handle, outcome });
    }

    /// Once the last run of a sub-graph finishes, its replica bindings are
    /// released so the nodes become available to future sub-graphs.
    fn release_sid_if_unused(&mut self, sid: &str) {
        if self.jobs.values().any(|j| j.spec.sid == sid) {
            return;
        }
        for n in &mut self.nodes {
            n.bindings.remove(sid);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("jobs_in_flight", &self.jobs.len())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExecInput, VpSite};
    use crate::storage::FileData;
    use cbft_dataflow::compile::{compile_plan, DataSource, JobId, JobOutput, MrJob, Site};
    use cbft_dataflow::{Batch, Operator, Record, Script, Value};
    use std::collections::HashMap;
    use std::sync::Arc;

    const FOLLOWER: &str = "raw = LOAD 'twitter' AS (user, follower);
         clean = FILTER raw BY follower IS NOT NULL;
         grp = GROUP clean BY user;
         cnt = FOREACH grp GENERATE group, COUNT(clean) AS n;
         STORE cnt INTO 'counts';";

    fn follower_spec(sid: &str, replica: usize, out: &str, vps: Vec<VpSite>) -> ExecJob {
        spec_of(FOLLOWER, sid, replica, out, vps)
    }

    /// The spec of a single-job script over the `twitter` file.
    fn spec_of(src: &str, sid: &str, replica: usize, out: &str, vps: Vec<VpSite>) -> ExecJob {
        let mut spec = chain_specs(src, sid).remove(0);
        spec.sid = sid.to_owned();
        spec.replica = replica;
        spec.output_file = out.to_owned();
        spec.verification_points = vps;
        spec
    }

    /// Every job of `src`, in graph order, as the engine runs it: a
    /// STORE writes its own name, an intermediate `{ns}/j{index}`.
    fn chain_specs(src: &str, ns: &str) -> Vec<ExecJob> {
        let plan = Arc::new(Script::parse(src).unwrap().into_plan());
        let file_of = |j: JobId| format!("{ns}/j{}", j.index());
        let lower = |job: &MrJob| ExecJob {
            plan: plan.clone(),
            inputs: job
                .inputs
                .iter()
                .map(|i| ExecInput {
                    file: match &i.source {
                        DataSource::Hdfs(f) => f.clone(),
                        DataSource::Intermediate(j) => file_of(*j),
                    },
                    pipeline: i.pipeline.clone(),
                    tag: i.tag,
                })
                .collect(),
            shuffle: job.shuffle,
            reduce: job.reduce.clone(),
            output_file: match &job.output {
                JobOutput::Store(name) => name.clone(),
                JobOutput::Intermediate => file_of(job.id()),
            },
            reduce_task_count: if job.single_reduce { 1 } else { 2 },
            map_split_records: 3,
            verification_points: vec![],
            digest_granularity: usize::MAX,
            batch_records: 1024,
            sid: format!("{ns}{}", job.id().index()),
            replica: 0,
            combiner: None,
            sample: None,
        };
        compile_plan(&plan).jobs().iter().map(lower).collect()
    }

    fn edges(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(vec![Value::Int(i % 5), Value::Int(100 + i)]))
            .collect()
    }

    fn expected_counts(n: i64) -> Vec<Record> {
        // users 0..5, user u follows ceil/floor share of n
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..n {
            *counts.entry(i % 5).or_insert(0i64) += 1;
        }
        counts
            .into_iter()
            .map(|(u, c)| Record::new(vec![Value::Int(u), Value::Int(c)]))
            .collect()
    }

    fn sorted(mut v: Vec<Record>) -> Vec<Record> {
        v.sort();
        v
    }

    #[test]
    fn runs_a_job_end_to_end() {
        let mut cluster = Cluster::builder().nodes(4).seed(1).build();
        cluster.storage_mut().write("twitter", edges(20)).unwrap();
        let h = cluster
            .submit(follower_spec("s0", 0, "counts", vec![]))
            .unwrap();
        let events = cluster.run_to_quiescence();
        let completed = events.iter().any(|e| {
            matches!(e, EngineEvent::JobCompleted { handle, outcome } if *handle == h && outcome.is_success())
        });
        assert!(completed, "{events:?}");
        let out = cluster.storage().peek("counts").unwrap().to_vec();
        assert_eq!(sorted(out), expected_counts(20));
    }

    /// Where a whole job on the columnar plane builds records (an inline
    /// pool runs every task on this thread, so the per-thread count is
    /// the job's), while it runs and then when its output is `peek`ed: a
    /// GROUP → COUNT job builds none while it runs — every task hands
    /// over batches and the output file is their gather — and its output
    /// rows at the `peek`; a job that `STORE`s the grouped relation itself
    /// also builds the members of its bags, once; a DISTINCT job builds
    /// each shuffled row, when the reduce task takes its partition as
    /// records for the whole-record sort, and stores them as records. The
    /// row plane builds none. A columnar input file changes nothing on
    /// the columnar plane — its map tasks window it without building a
    /// row — while the row plane must build each input row once to read
    /// it.
    #[test]
    fn columnar_jobs_materialize_rows_only_where_they_must() {
        use cbft_dataflow::stats::thread_rows_materialized;
        let run_from = |input: FileData, src: &str, batch_records: usize| {
            let mut cluster = Cluster::builder()
                .nodes(4)
                .seed(1)
                .compute_threads(1)
                .build();
            cluster
                .storage_mut()
                .write_shared("twitter", input)
                .unwrap();
            let mut spec = spec_of(src, "s0", 0, "out", vec![]);
            spec.batch_records = batch_records;
            let before = thread_rows_materialized();
            cluster.submit(spec).unwrap();
            cluster.run_to_quiescence();
            let running = thread_rows_materialized() - before;
            let published = cluster.storage().peek("out").unwrap().len() as u64;
            let peeking = thread_rows_materialized() - before - running;
            (running, peeking, published)
        };
        let run = |src: &str, batch_records: usize| run_from(edges(20).into(), src, batch_records);
        assert_eq!(run(FOLLOWER, 1024), (0, 5, 5), "the published rows only");
        let stored_groups = "raw = LOAD 'twitter' AS (user, follower);
             grp = GROUP raw BY user;
             STORE grp INTO 'groups';";
        let (running, peeking, published) = run(stored_groups, 1024);
        assert_eq!(
            (running + peeking, published),
            (5 + 20, 5),
            "output rows and bag members"
        );
        let distinct = "raw = LOAD 'twitter' AS (user, follower);
             d = DISTINCT raw;
             STORE d INTO 'rows';";
        assert_eq!(
            run(distinct, 1024),
            (20, 0, 20),
            "each shuffled row, at the reduce input"
        );
        for src in [FOLLOWER, stored_groups, distinct] {
            assert_eq!(run(src, 0), (0, 0, run(src, 1024).2), "row plane: {src}");
        }
        let columnar = || FileData::from(Batch::from_records(&edges(20)).unwrap());
        assert_eq!(
            run_from(columnar(), FOLLOWER, 1024),
            (0, 5, 5),
            "columnar file: the published rows only, none on the map side"
        );
        assert_eq!(
            run_from(columnar(), FOLLOWER, 0),
            (20, 0, 5),
            "columnar file on the row plane: each input row once"
        );
    }

    /// The form an input file is stored in is not an observable of a job:
    /// resource usage, the simulated clock, the nodes used and the output
    /// are equal from a record file and from a columnar one, on either
    /// plane, with and without a combiner and under a commission fault.
    #[test]
    fn a_job_runs_alike_from_a_record_and_from_a_columnar_input() {
        let run = |input: FileData, batch_records: usize, combine: bool, corrupt: bool| {
            let mut builder = Cluster::builder().nodes(4).seed(1);
            if corrupt {
                builder = builder.node_behavior(2, Behavior::Commission { probability: 1.0 });
            }
            let mut cluster = builder.build();
            cluster
                .storage_mut()
                .write_shared("twitter", input)
                .unwrap();
            let mut spec = follower_spec("s0", 0, "out", vec![]);
            spec.batch_records = batch_records;
            spec.verification_points = vec![VpSite {
                vertex: spec.shuffle.unwrap(),
                site: Site::Shuffle {
                    job: cbft_dataflow::compile::JobId(0),
                },
            }];
            if combine {
                spec.verification_points.clear();
                spec.combiner = cbft_dataflow::combiner::Combiner::for_job(
                    spec.plan.vertex(spec.shuffle.unwrap()).op(),
                    spec.plan.vertex(spec.reduce[0]).op(),
                );
                assert!(spec.combiner.is_some());
            }
            cluster.submit(spec).unwrap();
            let events: Vec<String> = cluster
                .run_to_quiescence()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            let out = cluster.storage().peek("out").unwrap().to_vec();
            (events, cluster.now(), out)
        };
        for batch_records in [0, 7, 1024] {
            for (combine, corrupt) in [(false, false), (true, false), (false, true)] {
                let rows = run(edges(40).into(), batch_records, combine, corrupt);
                let cols = run(
                    Batch::from_records(&edges(40)).unwrap().into(),
                    batch_records,
                    combine,
                    corrupt,
                );
                assert!(rows.0.iter().any(|e| e.contains("Success")));
                assert_eq!(
                    rows, cols,
                    "batch_records {batch_records} combine {combine} corrupt {corrupt}"
                );
            }
        }
    }

    /// Everything one run of a chain of scripts can be told apart by.
    #[derive(Debug, PartialEq)]
    struct ChainRun {
        /// Every engine event, `JobMetrics` included, in order.
        events: Vec<String>,
        clock: SimTime,
        written_bytes: u64,
        /// Every STORE output: stored size and `peek`ed records.
        stored: Vec<(String, u64, Vec<Record>)>,
    }

    /// Runs every job of every script of `scripts`, in order, through
    /// [`Cluster::submit`] on one cluster of four one-slot nodes, each
    /// with a verification point at its first map-side operator and at
    /// its shuffle. With `corrupt_a_reduce`, node 2 turns
    /// commission-faulty for the reduce phase of the first job alone:
    /// with four reduce tasks and one slot per node it runs exactly one
    /// of them. Returns the run and whether each job's output file is
    /// held columnar.
    fn run_chain(
        inputs: &[(&str, Vec<Record>)],
        scripts: &[&str],
        batch_records: usize,
        corrupt_a_reduce: bool,
    ) -> (ChainRun, Vec<bool>) {
        let mut cluster = Cluster::builder()
            .nodes(4)
            .slots_per_node(1)
            .seed(1)
            .build();
        for (name, records) in inputs {
            cluster.storage_mut().write(name, records.clone()).unwrap();
        }
        let mut events = Vec::new();
        let mut outputs = Vec::new();
        let mut to_corrupt = corrupt_a_reduce;
        for (s, src) in scripts.iter().enumerate() {
            for mut spec in chain_specs(src, &format!("c{s}")) {
                spec.batch_records = batch_records;
                let jid = JobId(0);
                let first_op = spec.inputs[0].pipeline.first();
                let map_side = first_op.map(|&vertex| VpSite {
                    vertex,
                    site: Site::MapInput {
                        job: jid,
                        input: 0,
                        pos: 0,
                    },
                });
                let shuffle_side = spec.shuffle.map(|vertex| VpSite {
                    vertex,
                    site: Site::Shuffle { job: jid },
                });
                spec.verification_points = map_side.into_iter().chain(shuffle_side).collect();
                outputs.push(spec.output_file.clone());
                if !(spec.is_map_only() || spec.reduce_task_count == 1) {
                    spec.reduce_task_count = 4;
                }
                let handle = cluster.submit(spec).unwrap();
                while let Some(event) = cluster.step() {
                    events.push(format!("{event:?}"));
                    // The last map task's digest is handed out before any
                    // reduce task is assigned.
                    let reducing = |j: &RunningJob| j.in_reduce_phase;
                    if to_corrupt && cluster.jobs.get(&handle).is_some_and(reducing) {
                        to_corrupt = false;
                        let faulty = Behavior::Commission { probability: 1.0 };
                        cluster.set_node_behavior(NodeId(2), faulty);
                    }
                }
                cluster.set_node_behavior(NodeId(2), Behavior::Honest);
            }
        }
        let storage = cluster.storage();
        let columnar = |name: &String| storage.handle(name).unwrap().batch().is_some();
        let run = ChainRun {
            events,
            clock: cluster.now(),
            written_bytes: storage.total_written_bytes(),
            stored: outputs
                .iter()
                .filter(|name| !name.contains('/'))
                .map(|name| {
                    let records = storage.peek(name).unwrap().to_vec();
                    (name.clone(), storage.size_bytes(name).unwrap(), records)
                })
                .collect(),
        };
        (run, outputs.iter().map(columnar).collect())
    }

    /// The chain's outputs by the reference interpreter, each script
    /// reading what the earlier ones stored.
    fn interpret_chain(inputs: &[(&str, Vec<Record>)], scripts: &[&str]) -> Vec<Vec<Record>> {
        let mut files: HashMap<String, Vec<Record>> = inputs
            .iter()
            .map(|(name, records)| ((*name).to_owned(), records.clone()))
            .collect();
        let mut outputs = Vec::new();
        for src in scripts {
            let plan = Script::parse(src).unwrap().into_plan();
            let result = cbft_dataflow::interp::interpret(&plan, &files).unwrap();
            for store in plan.stores() {
                let Operator::Store { output } = plan.vertex(store).op() else {
                    continue;
                };
                let records = result.output(output).unwrap().to_vec();
                files.insert(output.clone(), records.clone());
                outputs.push(records);
            }
        }
        outputs
    }

    /// The form a job's output is handed over and stored in is not an
    /// observable either: a chain of jobs — each reading what the one
    /// before stored — reports the same events, `JobMetrics`, simulated
    /// clock, stored bytes and records on the row plane and at every
    /// batch size, and the records the reference interpreter computes.
    #[test]
    fn job_chains_run_alike_at_every_batch_size_and_match_the_interpreter() {
        // User `u` has `2 (u + 1)` followers, all distinct; the first
        // five edges appear twice.
        let mut twitter: Vec<Record> = (0..5i64)
            .flat_map(|u| (0..2 * (u + 1)).map(move |k| (u, 100 * u + k)))
            .map(|(u, f)| Record::new(vec![Value::Int(u), Value::Int(f)]))
            .collect();
        twitter.extend(twitter[..5].to_vec());
        let wide: Vec<Record> = (0..7i64)
            .map(|i| Record::new(vec![Value::Int(i % 3), Value::Int(i), Value::Int(7)]))
            .collect();
        let inputs = [("twitter", twitter), ("wide", wide)];
        let top = "raw = LOAD 'twitter' AS (user, follower);
             grp = GROUP raw BY user;
             cnt = FOREACH grp GENERATE group, COUNT(raw) AS n;
             ord = ORDER cnt BY n DESC;
             top = LIMIT ord 3;
             STORE top INTO 'top';";
        let chains: [(&str, &[&str], bool); 4] = [
            ("GROUP → COUNT, then ORDER → LIMIT", &[top], true),
            (
                "a stored grouped relation, read back by a FOREACH over its bags",
                &[
                    "raw = LOAD 'twitter' AS (user, follower);
                     grp = GROUP raw BY user;
                     STORE grp INTO 'groups';",
                    "grp = LOAD 'groups' AS (user, members);
                     cnt = FOREACH grp GENERATE user, COUNT(members) AS n;
                     STORE cnt INTO 'counts';",
                ],
                true,
            ),
            (
                "a map-only UNION of unequal arities, then a GROUP over it",
                &[
                    "a = LOAD 'twitter' AS (user, follower);
                     b = LOAD 'wide' AS (user, follower);
                     u = UNION a, b;
                     STORE u INTO 'all';",
                    "x = LOAD 'all' AS (user, follower);
                     g = GROUP x BY user;
                     c = FOREACH g GENERATE group, COUNT(x) AS n;
                     STORE c INTO 'counts';",
                ],
                false,
            ),
            (
                "DISTINCT, then ORDER → LIMIT",
                &["raw = LOAD 'twitter' AS (user, follower);
                   d = DISTINCT raw;
                   o = ORDER d BY follower DESC;
                   l = LIMIT o 4;
                   STORE l INTO 'latest';"],
                true,
            ),
        ];
        for (name, scripts, last_is_columnar) in chains {
            let (rows, _) = run_chain(&inputs, scripts, 0, false);
            assert!(rows.events.iter().any(|e| e.contains("Success")), "{name}");
            let stored = rows
                .stored
                .iter()
                .map(|(_, _, records)| sorted(records.clone()));
            let reference = interpret_chain(&inputs, scripts).into_iter().map(sorted);
            assert!(stored.eq(reference), "{name}: {:?}", rows.stored);
            for batch_records in [1, 7, 1024] {
                let (cols, columnar) = run_chain(&inputs, scripts, batch_records, false);
                assert_eq!(cols, rows, "{name}: batch_records {batch_records}");
                assert_eq!(columnar.last(), Some(&last_is_columnar), "{name}");
            }
        }

        // One corrupt reduce task among faithful ones hands batches over
        // like them: the gathered file stays columnar, and the next job
        // reads it as it would any other.
        let (rows, _) = run_chain(&inputs, &[top], 0, true);
        assert_ne!(rows.events, run_chain(&inputs, &[top], 0, false).0.events);
        for batch_records in [1, 7, 1024] {
            let (cols, columnar) = run_chain(&inputs, &[top], batch_records, true);
            assert_eq!(
                cols, rows,
                "corrupt reduce task: batch_records {batch_records}"
            );
            assert_eq!(columnar, [true, true], "batch_records {batch_records}");
            let (_, columnar) = run_chain(&inputs, &[top], batch_records, false);
            assert_eq!(columnar, [true, true], "batch_records {batch_records}");
        }
    }

    #[test]
    fn output_matches_reference_interpreter() {
        let plan = Script::parse(FOLLOWER).unwrap().into_plan();
        let inputs = std::collections::HashMap::from([("twitter".to_owned(), edges(37))]);
        let reference = cbft_dataflow::interp::interpret(&plan, &inputs).unwrap();

        let mut cluster = Cluster::builder().nodes(6).seed(2).build();
        cluster.storage_mut().write("twitter", edges(37)).unwrap();
        cluster
            .submit(follower_spec("s0", 0, "counts", vec![]))
            .unwrap();
        cluster.run_to_quiescence();
        let engine_out = sorted(cluster.storage().peek("counts").unwrap().to_vec());
        let ref_out = sorted(reference.output("counts").unwrap().to_vec());
        assert_eq!(engine_out, ref_out);
    }

    #[test]
    fn replicas_produce_identical_outputs_and_digests() {
        let mut cluster = Cluster::builder().nodes(8).seed(3).build();
        cluster.storage_mut().write("twitter", edges(30)).unwrap();
        let vps = |spec: &ExecJob| {
            vec![VpSite {
                vertex: spec.shuffle.unwrap(),
                site: Site::Shuffle {
                    job: cbft_dataflow::compile::JobId(0),
                },
            }]
        };
        let mut s0 = follower_spec("s0", 0, "r0/counts", vec![]);
        s0.verification_points = vps(&s0);
        let mut s1 = follower_spec("s0", 1, "r1/counts", vec![]);
        s1.verification_points = vps(&s1);
        cluster.submit(s0).unwrap();
        cluster.submit(s1).unwrap();
        let events = cluster.run_to_quiescence();

        let digests: Vec<&DigestReport> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Digest(d) => Some(d),
                _ => None,
            })
            .collect();
        assert!(!digests.is_empty());
        // Group by correspondence key: both replicas must match.
        let mut by_key: std::collections::HashMap<_, Vec<&DigestReport>> =
            std::collections::HashMap::new();
        for d in digests {
            by_key.entry(d.correspondence_key()).or_default().push(d);
        }
        for (key, reports) in by_key {
            assert_eq!(reports.len(), 2, "both replicas digest {key:?}");
            assert!(
                reports[0].summary.compare(&reports[1].summary).is_match(),
                "replica digests must agree at {key:?}"
            );
        }
        assert_eq!(
            cluster.storage().peek("r0/counts").unwrap(),
            cluster.storage().peek("r1/counts").unwrap()
        );
    }

    #[test]
    fn replicas_never_share_a_node() {
        let mut cluster = Cluster::builder()
            .nodes(4)
            .slots_per_node(4)
            .seed(4)
            .build();
        cluster.storage_mut().write("twitter", edges(40)).unwrap();
        let h0 = cluster
            .submit(follower_spec("s0", 0, "r0/c", vec![]))
            .unwrap();
        let h1 = cluster
            .submit(follower_spec("s0", 1, "r1/c", vec![]))
            .unwrap();
        let events = cluster.run_to_quiescence();
        let mut nodes0 = BTreeSet::new();
        let mut nodes1 = BTreeSet::new();
        for e in events {
            if let EngineEvent::JobCompleted {
                handle,
                outcome: JobOutcome::Success { nodes, .. },
            } = e
            {
                if handle == h0 {
                    nodes0 = nodes;
                } else if handle == h1 {
                    nodes1 = nodes;
                }
            }
        }
        assert!(!nodes0.is_empty() && !nodes1.is_empty());
        assert!(nodes0.is_disjoint(&nodes1), "{nodes0:?} vs {nodes1:?}");
    }

    /// The fault-free verifier timeout of DESIGN.md §5b, pinned, not
    /// fixed: a node stays bound to the replica of a sub-graph it first
    /// ran until *no* run of that sub-graph remains. Once every node is
    /// bound to one of a replica's siblings, that replica cannot get a
    /// task — not even after the siblings have completed and every slot
    /// is free, because its own pending run keeps the bindings alive.
    #[test]
    fn a_replica_starves_once_every_node_is_bound_to_a_sibling() {
        let mut cluster = Cluster::builder().nodes(3).seed(1).build();
        cluster.storage_mut().write("twitter", edges(20)).unwrap();
        for replica in 0..4 {
            let out = format!("r{replica}/c");
            cluster
                .submit(follower_spec("s0", replica, &out, vec![]))
                .unwrap();
        }
        let events = cluster.run_to_quiescence();
        let done = |e: &&EngineEvent| matches!(e, EngineEvent::JobCompleted { outcome, .. } if outcome.is_success());
        assert_eq!(events.iter().filter(done).count(), 3);
        let starved = cluster.incomplete_jobs();
        assert_eq!(starved.len(), 1, "the fourth replica never finishes");
        assert_eq!(
            cluster.running_nodes(starved[0]),
            Some(BTreeSet::new()),
            "it was never given a task"
        );
        for node in &cluster.nodes {
            assert_eq!(node.free_slots, node.worker.slots(), "every slot is free");
            assert!(node.bindings.contains_key("s0"), "yet every node is bound");
        }
        // Only removing the starved run releases the nodes.
        assert!(cluster.cancel(starved[0]));
        assert!(cluster.nodes.iter().all(|n| n.bindings.is_empty()));
    }

    #[test]
    fn commission_fault_changes_digest() {
        let mut cluster = Cluster::builder()
            .nodes(2)
            .slots_per_node(8)
            .seed(5)
            .node_behavior(1, Behavior::Commission { probability: 1.0 })
            .build();
        cluster.storage_mut().write("twitter", edges(30)).unwrap();
        let make = |replica: usize, out: &str| {
            let mut s = follower_spec("s0", replica, out, vec![]);
            s.verification_points = vec![VpSite {
                vertex: s.shuffle.unwrap(),
                site: Site::Shuffle {
                    job: cbft_dataflow::compile::JobId(0),
                },
            }];
            s
        };
        cluster.submit(make(0, "r0/c")).unwrap();
        cluster.submit(make(1, "r1/c")).unwrap();
        let events = cluster.run_to_quiescence();
        let mut by_key: std::collections::HashMap<_, Vec<DigestReport>> =
            std::collections::HashMap::new();
        for e in events {
            if let EngineEvent::Digest(d) = e {
                by_key.entry(d.correspondence_key()).or_default().push(d);
            }
        }
        // One replica ran exclusively on the faulty node (replica
        // disjointness with 2 nodes forces it), so at least one
        // correspondence key must show a mismatch.
        let mismatches = by_key
            .values()
            .filter(|rs| rs.len() == 2 && !rs[0].summary.compare(&rs[1].summary).is_match())
            .count();
        assert!(mismatches > 0);
    }

    #[test]
    fn omission_fault_wedges_job_and_step_returns_none() {
        let mut cluster = Cluster::builder()
            .nodes(1)
            .slots_per_node(4)
            .seed(6)
            .node_behavior(0, Behavior::Crashed)
            .build();
        cluster.storage_mut().write("twitter", edges(10)).unwrap();
        let h = cluster.submit(follower_spec("s0", 0, "c", vec![])).unwrap();
        let events = cluster.run_to_quiescence();
        assert!(events
            .iter()
            .all(|e| !matches!(e, EngineEvent::JobCompleted { .. })));
        assert!(cluster.has_incomplete_jobs());
        assert_eq!(cluster.incomplete_jobs(), vec![h]);
    }

    #[test]
    fn timer_fires_even_when_wedged() {
        let mut cluster = Cluster::builder()
            .nodes(1)
            .seed(7)
            .node_behavior(0, Behavior::Crashed)
            .build();
        cluster.storage_mut().write("twitter", edges(5)).unwrap();
        cluster.submit(follower_spec("s0", 0, "c", vec![])).unwrap();
        cluster.set_timer(SimTime::from_micros(10_000_000), TimerToken(42));
        let events = cluster.run_to_quiescence();
        assert!(events
            .iter()
            .any(|e| matches!(e, EngineEvent::Timer(TimerToken(42)))));
    }

    #[test]
    fn excluded_nodes_get_no_tasks() {
        let mut cluster = Cluster::builder().nodes(3).seed(8).build();
        cluster.set_node_excluded(NodeId(0), true);
        cluster.storage_mut().write("twitter", edges(20)).unwrap();
        let h = cluster.submit(follower_spec("s0", 0, "c", vec![])).unwrap();
        let events = cluster.run_to_quiescence();
        for e in events {
            if let EngineEvent::JobCompleted {
                handle,
                outcome: JobOutcome::Success { nodes, .. },
            } = e
            {
                assert_eq!(handle, h);
                assert!(!nodes.contains(&NodeId(0)));
            }
        }
    }

    #[test]
    fn submit_missing_input_fails_fast() {
        let mut cluster = Cluster::builder().nodes(2).seed(9).build();
        let err = cluster
            .submit(follower_spec("s0", 0, "c", vec![]))
            .unwrap_err();
        assert!(matches!(err, StorageError::NotFound(_)));
    }

    #[test]
    fn submit_existing_output_fails_fast() {
        let mut cluster = Cluster::builder().nodes(2).seed(10).build();
        cluster.storage_mut().write("twitter", edges(5)).unwrap();
        cluster.storage_mut().write("c", vec![]).unwrap();
        let err = cluster
            .submit(follower_spec("s0", 0, "c", vec![]))
            .unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = || {
            let mut cluster = Cluster::builder().nodes(5).seed(11).build();
            cluster.storage_mut().write("twitter", edges(25)).unwrap();
            cluster.submit(follower_spec("s0", 0, "c", vec![])).unwrap();
            cluster.run_to_quiescence();
            (cluster.now(), cluster.storage().peek("c").unwrap().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_are_populated() {
        let mut cluster = Cluster::builder().nodes(4).seed(12).build();
        cluster.storage_mut().write("twitter", edges(50)).unwrap();
        let h = cluster.submit(follower_spec("s0", 0, "c", vec![])).unwrap();
        let events = cluster.run_to_quiescence();
        let metrics = events
            .iter()
            .find_map(|e| match e {
                EngineEvent::JobCompleted {
                    handle,
                    outcome: JobOutcome::Success { metrics, .. },
                } if *handle == h => Some(*metrics),
                _ => None,
            })
            .expect("job completed");
        assert!(metrics.latency > SimDuration::ZERO);
        assert!(metrics.cpu_time > SimDuration::ZERO);
        assert!(metrics.hdfs_read_bytes > 0);
        assert!(metrics.hdfs_write_bytes > 0);
        assert!(
            metrics.local_write_bytes > 0,
            "shuffle spills to local disk"
        );
        assert!(metrics.map_tasks > 0);
        assert!(metrics.reduce_tasks > 0);
    }

    #[test]
    fn cancel_frees_cluster_for_other_work() {
        let mut cluster = Cluster::builder()
            .nodes(1)
            .slots_per_node(2)
            .seed(13)
            .node_behavior(0, Behavior::Honest)
            .build();
        cluster.storage_mut().write("twitter", edges(10)).unwrap();
        let h = cluster
            .submit(follower_spec("s0", 0, "c1", vec![]))
            .unwrap();
        assert!(cluster.cancel(h));
        assert!(!cluster.cancel(h), "double cancel is false");
        let h2 = cluster
            .submit(follower_spec("s1", 0, "c2", vec![]))
            .unwrap();
        let events = cluster.run_to_quiescence();
        assert!(events.iter().any(|e| matches!(
            e,
            EngineEvent::JobCompleted { handle, outcome } if *handle == h2 && outcome.is_success()
        )));
        assert!(
            !cluster.storage().exists("c1"),
            "cancelled job never writes"
        );
    }

    fn spot_checks(events: Vec<EngineEvent>) -> Vec<crate::spotcheck::SpotCheckRecord> {
        events
            .into_iter()
            .filter_map(|e| match e {
                EngineEvent::SpotCheck(rec) => Some(*rec),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sampled_honest_run_emits_confirming_spot_checks() {
        let mut cluster = Cluster::builder().nodes(4).seed(9).build();
        cluster.storage_mut().write("twitter", edges(24)).unwrap();
        let mut spec = follower_spec("s0", 0, "counts", vec![]);
        spec.sample = Some(crate::spec::SamplePlan::from_rate(7, 1.0));
        cluster.submit(spec).unwrap();
        let checks = spot_checks(cluster.run_to_quiescence());
        // 24 records / 3 per split = 8 map tasks, plus 2 reduce tasks,
        // all sampled at rate 1.0.
        assert_eq!(checks.len(), 10);
        let pool = ComputePool::new(2);
        for rec in checks {
            let verdict = rec.check(&pool);
            assert!(verdict.confirmed, "honest task flagged: {verdict:?}");
            assert!(verdict.divergence.is_none());
            assert!(verdict.records_reexecuted > 0);
        }
    }

    #[test]
    fn sampled_commission_run_is_flagged_by_spot_checks() {
        let mut builder = Cluster::builder().nodes(4).seed(9);
        for node in 0..4 {
            builder = builder.node_behavior(node, Behavior::Commission { probability: 1.0 });
        }
        let mut cluster = builder.build();
        cluster.storage_mut().write("twitter", edges(24)).unwrap();
        let mut spec = follower_spec("s0", 0, "counts", vec![]);
        spec.sample = Some(crate::spec::SamplePlan::from_rate(7, 1.0));
        cluster.submit(spec).unwrap();
        let checks = spot_checks(cluster.run_to_quiescence());
        assert!(!checks.is_empty());
        let pool = ComputePool::new(2);
        let verdicts: Vec<_> = checks.iter().map(|rec| rec.check(&pool)).collect();
        // Every task's input view was corrupted, so honest re-execution
        // from the captured true inputs contradicts each recorded digest.
        assert!(
            verdicts.iter().all(|v| !v.confirmed),
            "corrupt task confirmed: {verdicts:?}"
        );
    }

    #[test]
    fn sampled_at_rate_zero_emits_no_spot_checks() {
        let mut cluster = Cluster::builder().nodes(4).seed(9).build();
        cluster.storage_mut().write("twitter", edges(24)).unwrap();
        let mut spec = follower_spec("s0", 0, "counts", vec![]);
        spec.sample = Some(crate::spec::SamplePlan::from_rate(7, 0.0));
        cluster.submit(spec).unwrap();
        assert!(spot_checks(cluster.run_to_quiescence()).is_empty());
    }
}

#[cfg(test)]
mod speculative_tests {
    use super::*;
    use crate::spec::ExecInput;
    use cbft_dataflow::compile::{compile_plan, DataSource};
    use cbft_dataflow::{Record, Script, Value};
    use std::sync::Arc;

    fn tiny_spec(out: &str) -> ExecJob {
        let plan = Arc::new(
            Script::parse(
                "a = LOAD 'in' AS (k, v);
                 g = GROUP a BY k;
                 c = FOREACH g GENERATE group, COUNT(a);
                 STORE c INTO 'ignored';",
            )
            .unwrap()
            .into_plan(),
        );
        let graph = compile_plan(&plan);
        let job = &graph.jobs()[0];
        ExecJob {
            plan: plan.clone(),
            inputs: job
                .inputs
                .iter()
                .map(|i| ExecInput {
                    file: match &i.source {
                        DataSource::Hdfs(f) => f.clone(),
                        DataSource::Intermediate(_) => unreachable!(),
                    },
                    pipeline: i.pipeline.clone(),
                    tag: i.tag,
                })
                .collect(),
            shuffle: job.shuffle,
            reduce: job.reduce.clone(),
            output_file: out.to_owned(),
            reduce_task_count: 2,
            map_split_records: 4,
            verification_points: vec![],
            digest_granularity: usize::MAX,
            batch_records: 1024,
            sid: "spec".to_owned(),
            replica: 0,
            combiner: None,
            sample: None,
        }
    }

    fn records(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(vec![Value::Int(i % 3), Value::Int(i)]))
            .collect()
    }

    #[test]
    fn task_timeout_recovers_from_omission_faults() {
        let mut cluster = Cluster::builder()
            .nodes(4)
            .slots_per_node(3)
            .seed(2)
            .node_behavior(0, Behavior::Omission { probability: 0.6 })
            .task_timeout(SimDuration::from_secs(5))
            .build();
        cluster.storage_mut().write("in", records(24)).unwrap();
        let h = cluster.submit(tiny_spec("out")).unwrap();
        let events = cluster.run_to_quiescence();
        assert!(
            events.iter().any(|e| matches!(
                e,
                EngineEvent::JobCompleted { handle, outcome } if *handle == h && outcome.is_success()
            )),
            "speculative re-execution must complete the job: {events:?}"
        );
    }

    #[test]
    fn without_task_timeout_omission_wedges() {
        let mut cluster = Cluster::builder()
            .nodes(1)
            .slots_per_node(2)
            .seed(3)
            .node_behavior(0, Behavior::Omission { probability: 1.0 })
            .build();
        cluster.storage_mut().write("in", records(8)).unwrap();
        cluster.submit(tiny_spec("out")).unwrap();
        cluster.run_to_quiescence();
        assert!(cluster.has_incomplete_jobs(), "no timeout → wedged");
    }

    #[test]
    fn all_nodes_omitting_requeues_until_cancelled() {
        // Even with speculation, a fully-omitting cluster cannot finish;
        // the re-queue loop must not livelock the event queue forever.
        let mut cluster = Cluster::builder()
            .nodes(2)
            .slots_per_node(2)
            .seed(4)
            .node_behavior(0, Behavior::Crashed)
            .node_behavior(1, Behavior::Crashed)
            .task_timeout(SimDuration::from_secs(1))
            .build();
        cluster.storage_mut().write("in", records(8)).unwrap();
        let h = cluster.submit(tiny_spec("out")).unwrap();
        // Slots wedge permanently (crashed tasks never release them), so
        // after both nodes fill up no further progress is possible.
        let events = cluster.run_to_quiescence();
        assert!(events.is_empty());
        assert!(cluster.cancel(h));
    }
}

#[cfg(test)]
mod locality_tests {
    use super::*;
    use crate::spec::ExecInput;
    use cbft_dataflow::compile::{compile_plan, DataSource};
    use cbft_dataflow::{Record, Script, Value};
    use std::sync::Arc;

    fn spec(out: &str) -> ExecJob {
        let plan = Arc::new(
            Script::parse(
                "a = LOAD 'in' AS (k, v);
                 g = GROUP a BY k;
                 c = FOREACH g GENERATE group, COUNT(a);
                 STORE c INTO 'x';",
            )
            .unwrap()
            .into_plan(),
        );
        let graph = compile_plan(&plan);
        let job = &graph.jobs()[0];
        ExecJob {
            plan: plan.clone(),
            inputs: job
                .inputs
                .iter()
                .map(|i| ExecInput {
                    file: match &i.source {
                        DataSource::Hdfs(f) => f.clone(),
                        DataSource::Intermediate(_) => unreachable!(),
                    },
                    pipeline: i.pipeline.clone(),
                    tag: i.tag,
                })
                .collect(),
            shuffle: job.shuffle,
            reduce: job.reduce.clone(),
            output_file: out.to_owned(),
            reduce_task_count: 2,
            map_split_records: 4,
            verification_points: vec![],
            digest_granularity: usize::MAX,
            batch_records: 1024,
            sid: "loc".to_owned(),
            replica: 0,
            combiner: None,
            sample: None,
        }
    }

    #[test]
    fn locality_is_tracked_and_mostly_achieved_when_uncontended() {
        let mut cluster = Cluster::builder()
            .nodes(8)
            .slots_per_node(3)
            .seed(9)
            .build();
        let records: Vec<Record> = (0..200)
            .map(|i| Record::new(vec![Value::Int(i % 7), Value::Int(i)]))
            .collect();
        cluster.storage_mut().write("in", records).unwrap();
        let h = cluster.submit(spec("out")).unwrap();
        let events = cluster.run_to_quiescence();
        let metrics = events
            .iter()
            .find_map(|e| match e {
                EngineEvent::JobCompleted {
                    handle,
                    outcome: JobOutcome::Success { metrics, .. },
                } if *handle == h => Some(*metrics),
                _ => None,
            })
            .expect("completes");
        assert_eq!(metrics.map_tasks, 50);
        // With 24 free slots and 50 splits spread over 8 homes, a healthy
        // majority should run data-local under the overlap scheduler.
        assert!(
            metrics.data_local_tasks * 2 >= metrics.map_tasks,
            "local {} of {}",
            metrics.data_local_tasks,
            metrics.map_tasks
        );
    }

    #[test]
    fn split_homes_are_deterministic_across_replicas() {
        let build = || {
            let mut cluster = Cluster::builder().nodes(4).seed(11).build();
            let records: Vec<Record> = (0..40)
                .map(|i| Record::new(vec![Value::Int(i), Value::Int(i)]))
                .collect();
            cluster.storage_mut().write("in", records).unwrap();
            cluster.submit(spec("o1")).unwrap();
            cluster
        };
        // Homes derive from (file, split index) only, so two engines (or
        // two replicas) agree without coordination.
        let a = build();
        let b = build();
        let homes = |c: &Cluster| {
            c.jobs
                .values()
                .next()
                .map(|j| j.map_task_homes.clone())
                .expect("job in flight")
        };
        assert_eq!(homes(&a), homes(&b));
    }
}
