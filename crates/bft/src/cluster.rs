//! Simulated-network harness for a PBFT replica group.

use std::collections::{BTreeMap, HashMap};

use cbft_sim::{EventQueue, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::message::{Message, ReplicaId, Request};
use crate::replica::{Action, BftBehavior, Replica, StateMachine, TimerId};

/// Identifies a submitted request for [`BftCluster::run_until_reply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RequestId {
    client: u64,
    timestamp: u64,
}

/// Aggregate protocol metrics — the ablation benches report these to
/// contrast per-job BFT (n×m consensus) with ClusterBFT's single
/// verification round.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BftMetrics {
    /// Total protocol messages sent.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Message counts by kind.
    pub by_kind: BTreeMap<String, u64>,
    /// `NEW-VIEW` installations observed.
    pub view_changes: u64,
}

#[derive(Debug)]
enum NetEvent {
    Deliver {
        to: ReplicaId,
        from: ReplicaId,
        msg: Message,
    },
    Timer {
        replica: ReplicaId,
        id: TimerId,
    },
}

/// A group of `n = 3f + 1` replicas plus a client, over a simulated
/// network with latency, jitter and message drops.
///
/// # Examples
///
/// ```
/// use cbft_bft::{BftBehavior, BftCluster, KvStore, ReplicaId};
///
/// let mut cluster = BftCluster::new(1, KvStore::default(), 42);
/// cluster.set_behavior(ReplicaId(0), BftBehavior::Crashed); // kill the primary
/// let req = cluster.submit(b"put a 1".to_vec());
/// assert_eq!(cluster.run_until_reply(req), Some(b"ok".to_vec()));
/// ```
pub struct BftCluster<S> {
    replicas: Vec<Replica<S>>,
    queue: EventQueue<NetEvent>,
    rng: StdRng,
    latency: SimDuration,
    drop_probability: f64,
    replies: HashMap<(u64, u64), BTreeMap<ReplicaId, Vec<u8>>>,
    submitted_ops: HashMap<(u64, u64), Vec<u8>>,
    metrics: BftMetrics,
    f: usize,
    next_timestamp: u64,
    client: u64,
    /// Replicas currently partitioned away (tests of catch-up paths).
    links_down: Vec<bool>,
}

impl<S: StateMachine + Clone> BftCluster<S> {
    /// Creates a cluster of `3f + 1` replicas, each starting from a clone
    /// of `initial_state`.
    pub fn new(f: usize, initial_state: S, seed: u64) -> Self {
        let n = 3 * f + 1;
        BftCluster {
            replicas: (0..n)
                .map(|i| Replica::new(ReplicaId(i), n, initial_state.clone()))
                .collect(),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            latency: SimDuration::from_millis(5),
            drop_probability: 0.0,
            replies: HashMap::new(),
            submitted_ops: HashMap::new(),
            metrics: BftMetrics::default(),
            f,
            next_timestamp: 1,
            client: 100,
            links_down: vec![false; n],
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Protocol metrics so far.
    pub fn metrics(&self) -> &BftMetrics {
        &self.metrics
    }

    /// Sets one-way network latency (default 5 ms).
    pub fn set_latency(&mut self, latency: SimDuration) {
        self.latency = latency;
    }

    /// Sets the probability that any replica-to-replica message is lost.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.drop_probability = p.clamp(0.0, 1.0);
    }

    /// Sets a replica's fault behaviour.
    pub fn set_behavior(&mut self, id: ReplicaId, behavior: BftBehavior) {
        self.replicas[id.0].set_behavior(behavior);
    }

    /// Partitions a replica away from (or back onto) the network: while
    /// down, every message to or from it is dropped. Used to exercise the
    /// checkpoint-based catch-up path.
    pub fn set_link_down(&mut self, id: ReplicaId, down: bool) {
        self.links_down[id.0] = down;
    }

    /// Sets every replica's checkpoint interval.
    pub fn set_checkpoint_interval(&mut self, interval: u64) {
        for r in &mut self.replicas {
            r.set_checkpoint_interval(interval);
        }
    }

    /// Read access to a replica (state, view, executed log).
    pub fn replica(&self, id: ReplicaId) -> &Replica<S> {
        &self.replicas[id.0]
    }

    /// Submits an operation: the client broadcasts it to every replica.
    pub fn submit(&mut self, op: Vec<u8>) -> RequestId {
        let timestamp = self.next_timestamp;
        self.next_timestamp += 1;
        let req = Request::new(self.client, timestamp, op);
        self.submitted_ops
            .insert((self.client, timestamp), req.op.clone());
        self.broadcast_request(&req);
        RequestId {
            client: self.client,
            timestamp,
        }
    }

    fn broadcast_request(&mut self, req: &Request) {
        let at = self.queue.now() + self.latency;
        for i in 0..self.replicas.len() {
            if self.links_down[i] {
                continue;
            }
            self.metrics.messages += 1;
            self.metrics.bytes += Message::Request(req.clone()).wire_size();
            *self
                .metrics
                .by_kind
                .entry("request".to_owned())
                .or_default() += 1;
            self.queue.schedule(
                at,
                NetEvent::Deliver {
                    to: ReplicaId(i),
                    from: ReplicaId(self.replicas.len()), // the client
                    msg: Message::Request(req.clone()),
                },
            );
        }
    }

    /// Runs the network until `f + 1` matching replies for `req` arrive,
    /// re-transmitting a few times on quiescence (lost messages, crashed
    /// primaries). Returns `None` when the request cannot commit — e.g.
    /// more than `f` replicas are faulty.
    pub fn run_until_reply(&mut self, req: RequestId) -> Option<Vec<u8>> {
        const MAX_RETRANSMITS: usize = 8;
        const MAX_EVENTS: u64 = 2_000_000;
        let mut processed = 0u64;
        let mut retransmits = 0;
        loop {
            while let Some(ev) = self.queue.pop() {
                self.dispatch(ev.event);
                processed += 1;
                if let Some(result) = self.quorum_reply(req) {
                    return Some(result);
                }
                if processed > MAX_EVENTS {
                    return None;
                }
            }
            if let Some(result) = self.quorum_reply(req) {
                return Some(result);
            }
            if retransmits >= MAX_RETRANSMITS {
                return None;
            }
            retransmits += 1;
            // The client re-transmits; any replica that executed replies
            // from cache, others re-arm progress timers.
            let original = Request::new(req.client, req.timestamp, self.reconstruct_op(req)?);
            self.broadcast_request(&original);
        }
    }

    /// Drains all pending events without waiting for any particular reply.
    pub fn run_to_quiescence(&mut self) {
        while let Some(ev) = self.queue.pop() {
            self.dispatch(ev.event);
        }
    }

    fn quorum_reply(&self, req: RequestId) -> Option<Vec<u8>> {
        let votes = self.replies.get(&(req.client, req.timestamp))?;
        let mut counts: HashMap<&[u8], usize> = HashMap::new();
        for result in votes.values() {
            *counts.entry(result.as_slice()).or_default() += 1;
        }
        counts
            .into_iter()
            .find(|(_, c)| *c > self.f)
            .map(|(r, _)| r.to_vec())
    }

    fn reconstruct_op(&self, req: RequestId) -> Option<Vec<u8>> {
        self.submitted_ops
            .get(&(req.client, req.timestamp))
            .cloned()
    }

    fn dispatch(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Deliver { to, from, msg } => {
                let mut out = Vec::new();
                self.replicas[to.0].on_message(from, msg, &mut out);
                self.perform(to, out);
            }
            NetEvent::Timer { replica, id } => {
                let mut out = Vec::new();
                self.replicas[replica.0].on_timer(id, &mut out);
                self.perform(replica, out);
            }
        }
    }

    fn perform(&mut self, from: ReplicaId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send(to, msg) => self.send(from, to, msg),
                Action::Broadcast(msg) => {
                    if let Message::NewView { .. } = msg {
                        self.metrics.view_changes += 1;
                    }
                    for i in 0..self.replicas.len() {
                        if i != from.0 {
                            self.send(from, ReplicaId(i), msg.clone());
                        }
                    }
                }
                Action::ToClient(
                    client,
                    Message::Reply {
                        timestamp, result, ..
                    },
                ) => {
                    self.replies
                        .entry((client, timestamp))
                        .or_default()
                        .insert(from, result);
                }
                Action::ToClient(..) => {}
                Action::SetTimer(d, id) => {
                    let at = self.queue.now() + d;
                    self.queue
                        .schedule(at, NetEvent::Timer { replica: from, id });
                }
            }
        }
    }

    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: Message) {
        if self.links_down.get(to.0).copied().unwrap_or(false)
            || self.links_down.get(from.0).copied().unwrap_or(false)
        {
            return;
        }
        self.metrics.messages += 1;
        self.metrics.bytes += msg.wire_size();
        *self
            .metrics
            .by_kind
            .entry(msg.kind().to_owned())
            .or_default() += 1;
        if self.drop_probability > 0.0 && self.rng.gen_bool(self.drop_probability) {
            return;
        }
        let jitter = SimDuration::from_micros(self.rng.gen_range(0..=self.latency.as_micros() / 4));
        let at = self.queue.now() + self.latency + jitter;
        self.queue.schedule(at, NetEvent::Deliver { to, from, msg });
    }
}

impl<S> std::fmt::Debug for BftCluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BftCluster")
            .field("replicas", &self.replicas.len())
            .field("f", &self.f)
            .field("now", &self.queue.now())
            .finish()
    }
}
