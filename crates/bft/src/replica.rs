//! The PBFT replica state machine.
//!
//! Pure logic: messages and timer firings go in, [`Action`]s come out. The
//! harness in [`crate::cluster`] owns the network and the clock, which
//! keeps the protocol directly unit-testable and deterministic.
//!
//! Implemented protocol (Castro & Liskov, OSDI '99, adapted):
//! * Normal case: the view's primary assigns sequence numbers and
//!   broadcasts `PRE-PREPARE`; every replica broadcasts `PREPARE`; a
//!   `2f + 1` prepare quorum triggers `COMMIT`; a `2f + 1` commit quorum
//!   executes in sequence order and replies to the client.
//! * View change (simplified, safety-preserving): a progress timeout makes
//!   replicas broadcast `VIEW-CHANGE(v+1)` carrying their *prepared*
//!   entries; the new primary collects `2f + 1` votes and re-proposes the
//!   union of prepared certificates (any committed entry is prepared at
//!   ≥ f + 1 honest replicas, so it appears in every `2f + 1` vote set)
//!   plus pending client requests in `NEW-VIEW`.
//! * Omitted relative to full PBFT: checkpointing/garbage collection and
//!   the `NEW-VIEW` validity proofs (our simulated network cannot forge
//!   messages, which is what the proofs defend against); documented in
//!   DESIGN.md.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use cbft_digest::Digest;
use cbft_sim::SimDuration;

use crate::message::{Message, PreparedEntry, ReplicaId, Request};

/// The replicated application. Must be deterministic: honest replicas
/// apply the same operations in the same order and must produce identical
/// results.
pub trait StateMachine {
    /// Applies one operation, returning the reply payload.
    fn apply(&mut self, op: &[u8]) -> Vec<u8>;
}

/// Fault injection for a replica.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BftBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Sends nothing, processes nothing (fail-stop).
    Crashed,
    /// As primary, sends conflicting proposals to different backups —
    /// the classic Byzantine equivocation attack.
    Equivocate,
}

/// Timer identities. Stale timers are detected by comparing the embedded
/// view/request against current state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerId {
    /// A request was known at `view` and not yet executed when set; firing
    /// while still unexecuted in the same view triggers a view change.
    Progress {
        /// View when the timer was armed.
        view: u64,
        /// Digest of the awaited request.
        request: Digest,
    },
    /// A view change to `attempted` was initiated; firing while the view
    /// is still below it escalates to `attempted + 1`.
    ViewChangeRetry {
        /// The view the replica voted for.
        attempted: u64,
    },
}

/// An effect requested by the replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a message to one replica.
    Send(ReplicaId, Message),
    /// Send a message to every other replica.
    Broadcast(Message),
    /// Send a reply to a client.
    ToClient(u64, Message),
    /// Arm a timer.
    SetTimer(SimDuration, TimerId),
}

#[derive(Clone, Debug)]
struct Entry {
    view: u64,
    digest: Digest,
    request: Option<Request>,
    commit_sent: bool,
    prepared: bool,
    committed: bool,
}

/// One PBFT replica.
#[derive(Debug)]
pub struct Replica<S> {
    id: ReplicaId,
    n: usize,
    f: usize,
    behavior: BftBehavior,
    view: u64,
    /// True after voting for a higher view, until `NEW-VIEW` arrives.
    in_view_change: bool,
    entries: BTreeMap<u64, Entry>,
    next_seq: u64,
    executed_through: u64,
    executed_log: Vec<(u64, Digest)>,
    state: S,
    prepares: HashMap<(u64, u64, Digest), BTreeSet<ReplicaId>>,
    commits: HashMap<(u64, u64, Digest), BTreeSet<ReplicaId>>,
    /// Requests known but not yet executed, in arrival order.
    pending: VecDeque<Request>,
    pending_digests: HashSet<Digest>,
    /// Digests of executed requests (never re-enter `pending`).
    executed_digests: HashSet<Digest>,
    /// Digests the primary has already assigned a sequence number.
    assigned: HashSet<Digest>,
    /// The highest-view prepared certificate per sequence number, retained
    /// across execution: view-change votes must cover *executed* entries
    /// too, or a lagging new primary could re-propose a committed request
    /// at a fresh sequence number and split the history (full PBFT gets
    /// this from checkpoint proofs, which we omit).
    prepared_history: BTreeMap<u64, PreparedEntry>,
    /// Executed requests retained for log-based catch-up.
    committed_log: BTreeMap<u64, Request>,
    /// Rolling digest of the executed request history (order-attesting).
    history: Digest,
    /// History digest after each executed sequence number (pruned at GC).
    history_at: BTreeMap<u64, Digest>,
    /// Checkpoint votes by (seq, history digest).
    checkpoint_votes: BTreeMap<(u64, Digest), BTreeSet<ReplicaId>>,
    /// The highest stable checkpoint: (seq, history digest).
    stable_checkpoint: (u64, Digest),
    /// Executed sequence numbers between checkpoints (0 disables).
    checkpoint_interval: u64,
    last_reply: HashMap<u64, (u64, Vec<u8>)>,
    vc_votes: BTreeMap<u64, BTreeMap<ReplicaId, (u64, Vec<PreparedEntry>)>>,
    voted_for: u64,
    progress_timeout: SimDuration,
    /// Normal-case messages that raced ahead of a view installation; they
    /// are replayed after `NEW-VIEW` (the network may reorder messages, and
    /// dropping them here would silently shrink quorums).
    buffered: Vec<(ReplicaId, Message)>,
}

/// Upper bound on buffered out-of-view messages; beyond this, the oldest
/// are discarded (retransmission recovers them on a real network).
const MAX_BUFFERED: usize = 100_000;

impl<S: StateMachine> Replica<S> {
    /// Creates replica `id` of an `n = 3f + 1` group.
    ///
    /// # Panics
    ///
    /// Panics unless `n == 3f + 1` for some `f ≥ 1` and `id < n`.
    pub fn new(id: ReplicaId, n: usize, state: S) -> Self {
        assert!(
            n >= 4 && (n - 1).is_multiple_of(3),
            "n must be 3f+1, got {n}"
        );
        assert!(id.0 < n, "replica id out of range");
        Replica {
            id,
            n,
            f: (n - 1) / 3,
            behavior: BftBehavior::Honest,
            view: 0,
            in_view_change: false,
            entries: BTreeMap::new(),
            next_seq: 1,
            executed_through: 0,
            executed_log: Vec::new(),
            state,
            prepares: HashMap::new(),
            commits: HashMap::new(),
            pending: VecDeque::new(),
            pending_digests: HashSet::new(),
            executed_digests: HashSet::new(),
            assigned: HashSet::new(),
            prepared_history: BTreeMap::new(),
            committed_log: BTreeMap::new(),
            history: Digest::of(b"genesis"),
            history_at: BTreeMap::new(),
            checkpoint_votes: BTreeMap::new(),
            stable_checkpoint: (0, Digest::of(b"genesis")),
            checkpoint_interval: 16,
            last_reply: HashMap::new(),
            vc_votes: BTreeMap::new(),
            voted_for: 0,
            progress_timeout: SimDuration::from_millis(400),
            buffered: Vec::new(),
        }
    }

    /// Sets the fault behaviour.
    pub fn set_behavior(&mut self, behavior: BftBehavior) {
        self.behavior = behavior;
    }

    /// The fault behaviour.
    pub fn behavior(&self) -> BftBehavior {
        self.behavior
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The application state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The executed history as `(seq, request digest)` pairs — the object
    /// of the safety invariant (honest replicas' logs are prefix-ordered).
    pub fn executed_log(&self) -> &[(u64, Digest)] {
        &self.executed_log
    }

    /// Sets the checkpoint interval (0 disables checkpointing).
    pub fn set_checkpoint_interval(&mut self, interval: u64) {
        self.checkpoint_interval = interval;
    }

    /// The highest stable checkpoint `(seq, history digest)`.
    pub fn stable_checkpoint(&self) -> (u64, Digest) {
        self.stable_checkpoint
    }

    /// Number of live protocol entries (bounded by GC between stable
    /// checkpoints).
    pub fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// The primary of view `v`.
    pub fn primary_of(&self, v: u64) -> ReplicaId {
        ReplicaId((v as usize) % self.n)
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.id
    }

    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Handles an incoming message.
    pub fn on_message(&mut self, from: ReplicaId, msg: Message, out: &mut Vec<Action>) {
        if self.behavior == BftBehavior::Crashed {
            return;
        }
        // Normal-case messages from a view we have not installed yet (or
        // while we await NEW-VIEW) are buffered and replayed later.
        if let Message::PrePrepare { view, .. }
        | Message::Prepare { view, .. }
        | Message::Commit { view, .. } = &msg
        {
            if *view > self.view || (*view == self.view && self.in_view_change) {
                if self.buffered.len() >= MAX_BUFFERED {
                    self.buffered.remove(0);
                }
                self.buffered.push((from, msg));
                return;
            }
        }
        match msg {
            Message::Request(req) => self.on_request(req, out),
            Message::PrePrepare {
                view,
                seq,
                digest,
                request,
            } => self.on_pre_prepare(from, view, seq, digest, request, out),
            Message::Prepare { view, seq, digest } => self.on_prepare(from, view, seq, digest, out),
            Message::Commit { view, seq, digest } => self.on_commit(from, view, seq, digest, out),
            Message::ViewChange {
                new_view,
                stable_seq,
                prepared,
            } => self.on_view_change(from, new_view, stable_seq, prepared, out),
            Message::NewView { view, proposals } => self.on_new_view(from, view, proposals, out),
            Message::Checkpoint { seq, history } => self.on_checkpoint(from, seq, history, out),
            Message::CatchUpRequest { from: from_seq } => {
                self.on_catch_up_request(from, from_seq, out)
            }
            Message::CatchUp {
                through,
                history,
                entries,
            } => self.on_catch_up(through, history, entries, out),
            Message::Reply { .. } => {} // replicas never receive replies
        }
    }

    /// Handles a timer firing.
    pub fn on_timer(&mut self, timer: TimerId, out: &mut Vec<Action>) {
        if self.behavior == BftBehavior::Crashed {
            return;
        }
        match timer {
            TimerId::Progress { view, request } => {
                if view == self.view
                    && !self.in_view_change
                    && self.pending_digests.contains(&request)
                {
                    self.start_view_change(self.view + 1, out);
                }
            }
            TimerId::ViewChangeRetry { attempted } => {
                if self.view < attempted {
                    self.start_view_change(attempted + 1, out);
                }
            }
        }
    }

    // --- normal case -------------------------------------------------------

    fn on_request(&mut self, req: Request, out: &mut Vec<Action>) {
        if !req.is_authentic() {
            return; // forged or tampered request
        }
        // Deduplicate: re-send the cached reply for old timestamps.
        if let Some((ts, result)) = self.last_reply.get(&req.client) {
            if *ts >= req.timestamp {
                out.push(Action::ToClient(
                    req.client,
                    Message::Reply {
                        view: self.view,
                        timestamp: req.timestamp,
                        client: req.client,
                        result: result.clone(),
                    },
                ));
                return;
            }
        }
        let digest = req.digest();
        if self.pending_digests.insert(digest) {
            self.pending.push_back(req.clone());
        }
        out.push(Action::SetTimer(
            self.progress_timeout,
            TimerId::Progress {
                view: self.view,
                request: digest,
            },
        ));
        if self.is_primary() && !self.in_view_change {
            self.assign(req, out);
        }
    }

    fn assign(&mut self, req: Request, out: &mut Vec<Action>) {
        let digest = req.digest();
        if !self.assigned.insert(digest) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            Entry {
                view: self.view,
                digest,
                request: Some(req.clone()),
                commit_sent: false,
                prepared: false,
                committed: false,
            },
        );
        match self.behavior {
            BftBehavior::Equivocate => {
                // Conflicting proposals: odd-numbered backups get a forged
                // request. Quorum intersection prevents either version from
                // committing; the progress timeout then unseats us.
                let mut forged = req.clone();
                forged.op.push(b'!');
                let forged_digest = forged.digest();
                for r in 0..self.n {
                    let to = ReplicaId(r);
                    if to == self.id {
                        continue;
                    }
                    let msg = if r % 2 == 1 {
                        Message::PrePrepare {
                            view: self.view,
                            seq,
                            digest: forged_digest,
                            request: forged.clone(),
                        }
                    } else {
                        Message::PrePrepare {
                            view: self.view,
                            seq,
                            digest,
                            request: req.clone(),
                        }
                    };
                    out.push(Action::Send(to, msg));
                }
            }
            _ => out.push(Action::Broadcast(Message::PrePrepare {
                view: self.view,
                seq,
                digest,
                request: req,
            })),
        }
        self.send_prepare(seq, digest, out);
    }

    fn on_pre_prepare(
        &mut self,
        from: ReplicaId,
        view: u64,
        seq: u64,
        digest: Digest,
        request: Request,
        out: &mut Vec<Action>,
    ) {
        if view != self.view || self.in_view_change || from != self.primary_of(view) {
            return;
        }
        if digest != request.digest() || !request.is_authentic() {
            return; // malformed or forged proposal
        }
        match self.entries.get(&seq) {
            Some(e) if e.view == view && e.digest != digest => return, // conflicting — keep first
            Some(e) if e.view == view => {
                // Duplicate of an accepted proposal.
                let _ = e;
                return;
            }
            _ => {}
        }
        if self.pending_digests.insert(digest) {
            self.pending.push_back(request.clone());
            out.push(Action::SetTimer(
                self.progress_timeout,
                TimerId::Progress {
                    view: self.view,
                    request: digest,
                },
            ));
        }
        self.entries.insert(
            seq,
            Entry {
                view,
                digest,
                request: Some(request),
                commit_sent: false,
                prepared: false,
                committed: false,
            },
        );
        self.send_prepare(seq, digest, out);
        self.check_prepared(seq, out);
    }

    fn send_prepare(&mut self, seq: u64, digest: Digest, out: &mut Vec<Action>) {
        self.prepares
            .entry((self.view, seq, digest))
            .or_default()
            .insert(self.id);
        out.push(Action::Broadcast(Message::Prepare {
            view: self.view,
            seq,
            digest,
        }));
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        view: u64,
        seq: u64,
        digest: Digest,
        out: &mut Vec<Action>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        self.prepares
            .entry((view, seq, digest))
            .or_default()
            .insert(from);
        self.check_prepared(seq, out);
    }

    fn check_prepared(&mut self, seq: u64, out: &mut Vec<Action>) {
        let quorum = self.quorum();
        let view = self.view;
        let Some(entry) = self.entries.get_mut(&seq) else {
            return;
        };
        if entry.view != view || entry.commit_sent {
            return;
        }
        let votes = self
            .prepares
            .get(&(view, seq, entry.digest))
            .map_or(0, BTreeSet::len);
        if votes >= quorum {
            entry.prepared = true;
            entry.commit_sent = true;
            let digest = entry.digest;
            if let Some(request) = entry.request.clone() {
                self.prepared_history
                    .insert(seq, PreparedEntry { seq, view, request });
            }
            self.commits
                .entry((view, seq, digest))
                .or_default()
                .insert(self.id);
            out.push(Action::Broadcast(Message::Commit { view, seq, digest }));
            self.check_committed(seq, out);
        }
    }

    fn on_commit(
        &mut self,
        from: ReplicaId,
        view: u64,
        seq: u64,
        digest: Digest,
        out: &mut Vec<Action>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        self.commits
            .entry((view, seq, digest))
            .or_default()
            .insert(from);
        self.check_committed(seq, out);
    }

    fn check_committed(&mut self, seq: u64, out: &mut Vec<Action>) {
        let quorum = self.quorum();
        let view = self.view;
        let Some(entry) = self.entries.get_mut(&seq) else {
            return;
        };
        if entry.view != view || !entry.prepared || entry.committed {
            return;
        }
        let votes = self
            .commits
            .get(&(view, seq, entry.digest))
            .map_or(0, BTreeSet::len);
        if votes >= quorum {
            entry.committed = true;
            self.try_execute(out);
        }
    }

    fn try_execute(&mut self, out: &mut Vec<Action>) {
        loop {
            let next = self.executed_through + 1;
            let Some(entry) = self.entries.get(&next) else {
                return;
            };
            if !entry.committed {
                return;
            }
            let Some(request) = entry.request.clone() else {
                return;
            };
            let digest = entry.digest;
            let result = self.state.apply(&request.op);
            self.executed_through = next;
            self.executed_log.push((next, digest));
            self.history = self.history.combine(&digest);
            self.history_at.insert(next, self.history);
            self.committed_log.insert(next, request.clone());
            self.last_reply
                .insert(request.client, (request.timestamp, result.clone()));
            self.executed_digests.insert(digest);
            self.pending_digests.remove(&digest);
            self.pending.retain(|r| r.digest() != digest);
            if self.checkpoint_interval > 0 && next.is_multiple_of(self.checkpoint_interval) {
                let history = self.history;
                self.checkpoint_votes
                    .entry((next, history))
                    .or_default()
                    .insert(self.id);
                out.push(Action::Broadcast(Message::Checkpoint {
                    seq: next,
                    history,
                }));
                self.try_stabilize(next, history, out);
            }
            out.push(Action::ToClient(
                request.client,
                Message::Reply {
                    view: self.view,
                    timestamp: request.timestamp,
                    client: request.client,
                    result,
                },
            ));
        }
    }

    // --- view change -------------------------------------------------------

    fn start_view_change(&mut self, new_view: u64, out: &mut Vec<Action>) {
        if new_view <= self.view || self.voted_for >= new_view {
            return;
        }
        self.voted_for = new_view;
        self.in_view_change = true;
        let prepared: Vec<PreparedEntry> = self.prepared_history.values().cloned().collect();
        let stable_seq = self.stable_checkpoint.0;
        let msg = Message::ViewChange {
            new_view,
            stable_seq,
            prepared: prepared.clone(),
        };
        // Record our own vote (broadcast does not loop back).
        self.vc_votes
            .entry(new_view)
            .or_default()
            .insert(self.id, (stable_seq, prepared));
        out.push(Action::Broadcast(msg));
        out.push(Action::SetTimer(
            self.progress_timeout,
            TimerId::ViewChangeRetry {
                attempted: new_view,
            },
        ));
        self.maybe_install_new_view(new_view, out);
    }

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: u64,
        stable_seq: u64,
        prepared: Vec<PreparedEntry>,
        out: &mut Vec<Action>,
    ) {
        if new_view <= self.view {
            return;
        }
        self.vc_votes
            .entry(new_view)
            .or_default()
            .insert(from, (stable_seq, prepared));
        // Join a view change once f+1 replicas vouch for it — at least one
        // honest replica timed out, so the complaint is genuine.
        let votes = self.vc_votes[&new_view].len();
        if votes > self.f && self.voted_for < new_view {
            self.start_view_change(new_view, out);
            return;
        }
        self.maybe_install_new_view(new_view, out);
    }

    fn maybe_install_new_view(&mut self, new_view: u64, out: &mut Vec<Action>) {
        if self.primary_of(new_view) != self.id || self.view >= new_view {
            return;
        }
        let Some(votes) = self.vc_votes.get(&new_view) else {
            return;
        };
        if votes.len() < self.quorum() {
            return;
        }
        // Union of prepared certificates: for each sequence number keep the
        // certificate from the highest view.
        let mut by_seq: BTreeMap<u64, PreparedEntry> = BTreeMap::new();
        let mut max_voted_stable = 0u64;
        for (stable_seq, entries) in votes.values() {
            max_voted_stable = max_voted_stable.max(*stable_seq);
            for entry in entries {
                if !entry.request.is_authentic() {
                    continue; // a Byzantine voter stuffed a forged certificate
                }
                match by_seq.get(&entry.seq) {
                    Some(existing) if existing.view >= entry.view => {}
                    _ => {
                        by_seq.insert(entry.seq, entry.clone());
                    }
                }
            }
        }
        let mut proposals: Vec<(u64, Request)> =
            by_seq.into_values().map(|e| (e.seq, e.request)).collect();
        let mut covered: HashSet<Digest> = proposals.iter().map(|(_, r)| r.digest()).collect();
        // Fresh assignments start above everything any voter has seen:
        // certificates, our execution, and — crucially — the highest voted
        // stable checkpoint (its log was garbage-collected, so no
        // certificates below it can appear in the votes).
        let mut next = proposals
            .iter()
            .map(|(s, _)| *s)
            .max()
            .unwrap_or(0)
            .max(self.executed_through)
            .max(max_voted_stable)
            + 1;
        // Re-propose pending requests that survived no certificate.
        for req in self.pending.clone() {
            let d = req.digest();
            if covered.insert(d) {
                proposals.push((next, req));
                next += 1;
            }
        }
        let msg = Message::NewView {
            view: new_view,
            proposals: proposals.clone(),
        };
        out.push(Action::Broadcast(msg));
        self.install_view(new_view, proposals, out);
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: u64,
        proposals: Vec<(u64, Request)>,
        out: &mut Vec<Action>,
    ) {
        if view <= self.view || from != self.primary_of(view) {
            return;
        }
        self.install_view(view, proposals, out);
    }

    fn install_view(&mut self, view: u64, proposals: Vec<(u64, Request)>, out: &mut Vec<Action>) {
        self.view = view;
        self.in_view_change = false;
        self.assigned.clear();
        self.next_seq = self.executed_through + 1;
        for (seq, request) in proposals {
            if !request.is_authentic() {
                continue;
            }
            // Re-prepare even already-executed sequence numbers: lagging
            // replicas need our prepares/commits to catch up, and
            // try_execute never re-executes below the watermark.
            let digest = request.digest();
            self.assigned.insert(digest);
            if !self.executed_digests.contains(&digest) && self.pending_digests.insert(digest) {
                self.pending.push_back(request.clone());
            }
            self.entries.insert(
                seq,
                Entry {
                    view,
                    digest,
                    request: Some(request),
                    commit_sent: false,
                    prepared: false,
                    committed: false,
                },
            );
            self.next_seq = self.next_seq.max(seq + 1);
            self.send_prepare(seq, digest, out);
            self.check_prepared(seq, out);
        }
        // Re-arm progress timers for everything still outstanding.
        for req in self.pending.clone() {
            out.push(Action::SetTimer(
                self.progress_timeout,
                TimerId::Progress {
                    view: self.view,
                    request: req.digest(),
                },
            ));
        }
        // Replay messages that raced ahead of this installation.
        let buffered = std::mem::take(&mut self.buffered);
        for (from, msg) in buffered {
            self.on_message(from, msg, out);
        }
    }

    // --- checkpoints & catch-up ---------------------------------------------

    fn on_checkpoint(&mut self, from: ReplicaId, seq: u64, history: Digest, out: &mut Vec<Action>) {
        if seq <= self.stable_checkpoint.0 {
            return;
        }
        self.checkpoint_votes
            .entry((seq, history))
            .or_default()
            .insert(from);
        self.try_stabilize(seq, history, out);
    }

    /// Declares `(seq, history)` stable on a `2f + 1` quorum: protocol
    /// state at or below `seq` is garbage-collected, and a replica that
    /// lags behind the stable watermark requests the committed log.
    fn try_stabilize(&mut self, seq: u64, history: Digest, out: &mut Vec<Action>) {
        let votes = self
            .checkpoint_votes
            .get(&(seq, history))
            .map_or(0, BTreeSet::len);
        if votes < self.quorum() || seq <= self.stable_checkpoint.0 {
            return;
        }
        self.stable_checkpoint = (seq, history);
        // Garbage-collect protocol state covered by the checkpoint.
        self.entries.retain(|s, _| *s > seq);
        self.prepares.retain(|(_, s, _), _| *s > seq);
        self.commits.retain(|(_, s, _), _| *s > seq);
        self.prepared_history.retain(|s, _| *s > seq);
        self.history_at.retain(|s, _| *s >= seq);
        self.checkpoint_votes.retain(|(s, _), _| *s > seq);
        if self.executed_through < seq {
            // We lag behind a stable checkpoint: fetch the committed log
            // from the peers that voted for it.
            out.push(Action::Broadcast(Message::CatchUpRequest {
                from: self.executed_through,
            }));
        }
    }

    fn on_catch_up_request(&mut self, from: ReplicaId, from_seq: u64, out: &mut Vec<Action>) {
        let (through, history) = self.stable_checkpoint;
        if through <= from_seq {
            return; // nothing stable beyond the requester's watermark
        }
        let entries: Vec<(u64, Request)> = self
            .committed_log
            .range(from_seq + 1..=through)
            .map(|(s, r)| (*s, r.clone()))
            .collect();
        // The log must be gap-free or the requester cannot verify it.
        if entries.len() as u64 != through - from_seq {
            return;
        }
        out.push(Action::Send(
            from,
            Message::CatchUp {
                through,
                history,
                entries,
            },
        ));
    }

    /// Applies a fetched committed log after verifying its request-digest
    /// chain against a stable checkpoint proof we hold. The chain folds
    /// request digests only, so a Byzantine sender cannot substitute
    /// different requests without breaking the final digest.
    fn on_catch_up(
        &mut self,
        through: u64,
        history: Digest,
        entries: Vec<(u64, Request)>,
        out: &mut Vec<Action>,
    ) {
        if through <= self.executed_through {
            return;
        }
        // Accept only logs whose endpoint matches a checkpoint we know to
        // be stable (our own watermark or a quorum of votes).
        let proven = self.stable_checkpoint == (through, history)
            || self
                .checkpoint_votes
                .get(&(through, history))
                .is_some_and(|v| v.len() >= self.quorum());
        if !proven {
            return;
        }
        // Verify contiguity, authenticity and the digest chain BEFORE
        // applying anything.
        let mut expected_seq = self.executed_through + 1;
        let mut chain = self
            .history_at
            .get(&self.executed_through)
            .copied()
            .unwrap_or(self.history);
        for (seq, request) in &entries {
            if *seq != expected_seq || !request.is_authentic() {
                return;
            }
            chain = chain.combine(&request.digest());
            expected_seq += 1;
        }
        if expected_seq != through + 1 || chain != history {
            return;
        }
        for (seq, request) in entries {
            let digest = request.digest();
            let result = self.state.apply(&request.op);
            self.executed_through = seq;
            self.executed_log.push((seq, digest));
            self.history = self.history.combine(&digest);
            self.history_at.insert(seq, self.history);
            self.committed_log.insert(seq, request.clone());
            self.last_reply
                .insert(request.client, (request.timestamp, result));
            self.executed_digests.insert(digest);
            self.pending_digests.remove(&digest);
            self.pending.retain(|r| r.digest() != digest);
        }
        self.next_seq = self.next_seq.max(self.executed_through + 1);
        // Execution may now continue past the transferred prefix.
        self.try_execute(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvStore;

    fn req(ts: u64) -> Request {
        Request::new(1, ts, format!("put k{ts} v").into_bytes())
    }

    fn new_group(n: usize) -> Vec<Replica<KvStore>> {
        (0..n)
            .map(|i| Replica::new(ReplicaId(i), n, KvStore::default()))
            .collect()
    }

    /// Runs actions through a perfect in-memory network until quiescent.
    fn pump(replicas: &mut [Replica<KvStore>], mut inbox: Vec<(ReplicaId, ReplicaId, Message)>) {
        let n = replicas.len();
        while let Some((from, to, msg)) = inbox.pop() {
            let mut out = Vec::new();
            replicas[to.0].on_message(from, msg, &mut out);
            for a in out {
                match a {
                    Action::Send(dst, m) => inbox.push((to, dst, m)),
                    Action::Broadcast(m) => {
                        for r in 0..n {
                            if r != to.0 {
                                inbox.push((to, ReplicaId(r), m.clone()));
                            }
                        }
                    }
                    Action::ToClient(..) | Action::SetTimer(..) => {}
                }
            }
        }
    }

    fn client_broadcast(replicas: &mut [Replica<KvStore>], r: Request) {
        let n = replicas.len();
        let msgs: Vec<_> = (0..n)
            .map(|i| (ReplicaId(n), ReplicaId(i), Message::Request(r.clone())))
            .collect();
        pump(replicas, msgs);
    }

    #[test]
    fn normal_case_commits_everywhere() {
        let mut group = new_group(4);
        client_broadcast(&mut group, req(1));
        for r in &group {
            assert_eq!(r.executed_log().len(), 1, "replica {}", r.id.0);
        }
        let logs: Vec<_> = group.iter().map(|r| r.executed_log().to_vec()).collect();
        assert!(logs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sequence_of_requests_executes_in_order() {
        let mut group = new_group(4);
        for ts in 1..=5 {
            client_broadcast(&mut group, req(ts));
        }
        for r in &group {
            assert_eq!(r.executed_log().len(), 5);
            let seqs: Vec<u64> = r.executed_log().iter().map(|(s, _)| *s).collect();
            assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn f_crashed_backups_do_not_block_commit() {
        let mut group = new_group(4);
        group[3].set_behavior(BftBehavior::Crashed);
        client_broadcast(&mut group, req(1));
        for r in group.iter().take(3) {
            assert_eq!(r.executed_log().len(), 1);
        }
        assert_eq!(group[3].executed_log().len(), 0);
    }

    #[test]
    fn equivocating_primary_cannot_commit_two_values() {
        let mut group = new_group(4);
        group[0].set_behavior(BftBehavior::Equivocate);
        client_broadcast(&mut group, req(1));
        // Neither version may reach a commit quorum anywhere.
        let committed: Vec<usize> = group.iter().map(|r| r.executed_log().len()).collect();
        // Safety: all replicas that executed anything executed the SAME digest.
        let digests: HashSet<Digest> = group
            .iter()
            .flat_map(|r| r.executed_log().iter().map(|(_, d)| *d))
            .collect();
        assert!(
            digests.len() <= 1,
            "equivocation must not split execution: {committed:?}"
        );
    }

    #[test]
    fn progress_timeout_triggers_view_change_vote() {
        let mut group = new_group(4);
        // Deliver the request only to backup 1 — primary 0 never assigns.
        let r = req(1);
        let d = r.digest();
        let mut out = Vec::new();
        group[1].on_message(ReplicaId(4), Message::Request(r), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::SetTimer(_, TimerId::Progress { .. }))));
        let mut out = Vec::new();
        group[1].on_timer(
            TimerId::Progress {
                view: 0,
                request: d,
            },
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Broadcast(Message::ViewChange { new_view: 1, .. })
        )));
    }

    #[test]
    fn stale_progress_timer_is_ignored_after_execution() {
        let mut group = new_group(4);
        let r = req(1);
        let d = r.digest();
        client_broadcast(&mut group, r);
        let mut out = Vec::new();
        group[1].on_timer(
            TimerId::Progress {
                view: 0,
                request: d,
            },
            &mut out,
        );
        assert!(
            out.is_empty(),
            "executed request must not trigger view change"
        );
    }

    #[test]
    fn view_change_installs_new_primary_and_recovers_request() {
        let mut group = new_group(4);
        group[0].set_behavior(BftBehavior::Crashed);
        let r = req(1);
        let d = r.digest();
        // Client reaches only the live replicas.
        let msgs: Vec<_> = (1..4)
            .map(|i| (ReplicaId(4), ReplicaId(i), Message::Request(r.clone())))
            .collect();
        pump(&mut group, msgs);
        assert!(group.iter().all(|g| g.executed_log().is_empty()));
        // Progress timers fire on the three live replicas.
        let mut inbox = Vec::new();
        for (i, replica) in group.iter_mut().enumerate().skip(1) {
            let mut out = Vec::new();
            replica.on_timer(
                TimerId::Progress {
                    view: 0,
                    request: d,
                },
                &mut out,
            );
            for a in out {
                if let Action::Broadcast(m) = a {
                    for to in 0..4 {
                        if to != i {
                            inbox.push((ReplicaId(i), ReplicaId(to), m.clone()));
                        }
                    }
                }
            }
        }
        pump(&mut group, inbox);
        for (i, replica) in group.iter().enumerate().skip(1) {
            assert_eq!(replica.view(), 1, "replica {i} moved to view 1");
            assert_eq!(
                replica.executed_log(),
                &[(1, d)],
                "request recovered and executed in the new view"
            );
        }
    }

    #[test]
    fn duplicate_request_returns_cached_reply() {
        let mut group = new_group(4);
        let r = req(1);
        client_broadcast(&mut group, r.clone());
        let mut out = Vec::new();
        group[0].on_message(ReplicaId(4), Message::Request(r), &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::ToClient(1, Message::Reply { .. }))),
            "{out:?}"
        );
        assert_eq!(group[0].executed_log().len(), 1, "not executed twice");
    }

    #[test]
    fn rejects_bad_group_sizes() {
        let result = std::panic::catch_unwind(|| Replica::new(ReplicaId(0), 5, KvStore::default()));
        assert!(result.is_err());
    }

    #[test]
    fn malformed_pre_prepare_is_dropped() {
        let mut group = new_group(4);
        let r = req(1);
        let mut out = Vec::new();
        group[1].on_message(
            ReplicaId(0),
            Message::PrePrepare {
                view: 0,
                seq: 1,
                digest: Digest::of(b"lies"),
                request: r,
            },
            &mut out,
        );
        assert!(out.is_empty(), "digest mismatch must be ignored");
    }

    #[test]
    fn pre_prepare_from_non_primary_is_dropped() {
        let mut group = new_group(4);
        let r = req(1);
        let d = r.digest();
        let mut out = Vec::new();
        group[2].on_message(
            ReplicaId(1), // not the view-0 primary
            Message::PrePrepare {
                view: 0,
                seq: 1,
                digest: d,
                request: r,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::KvStore;

    fn group_with_interval(n: usize, interval: u64) -> Vec<Replica<KvStore>> {
        (0..n)
            .map(|i| {
                let mut r = Replica::new(ReplicaId(i), n, KvStore::default());
                r.set_checkpoint_interval(interval);
                r
            })
            .collect()
    }

    fn pump(replicas: &mut [Replica<KvStore>], mut inbox: Vec<(ReplicaId, ReplicaId, Message)>) {
        let n = replicas.len();
        while let Some((from, to, msg)) = inbox.pop() {
            let mut out = Vec::new();
            replicas[to.0].on_message(from, msg, &mut out);
            for a in out {
                match a {
                    Action::Send(dst, m) => inbox.push((to, dst, m)),
                    Action::Broadcast(m) => {
                        for r in 0..n {
                            if r != to.0 {
                                inbox.push((to, ReplicaId(r), m.clone()));
                            }
                        }
                    }
                    Action::ToClient(..) | Action::SetTimer(..) => {}
                }
            }
        }
    }

    fn commit(replicas: &mut [Replica<KvStore>], ts: u64) {
        let n = replicas.len();
        let req = Request::new(1, ts, format!("put k{ts} v").into_bytes());
        let msgs: Vec<_> = (0..n)
            .map(|i| (ReplicaId(n), ReplicaId(i), Message::Request(req.clone())))
            .collect();
        pump(replicas, msgs);
    }

    #[test]
    fn checkpoints_stabilize_and_collect_garbage() {
        let mut group = group_with_interval(4, 2);
        for ts in 1..=6 {
            commit(&mut group, ts);
        }
        for r in &group {
            assert_eq!(r.executed_log().len(), 6);
            let (stable, _) = r.stable_checkpoint();
            assert!(stable >= 4, "stable at {stable}");
            assert!(r.live_entries() <= 2, "GC keeps the window small");
        }
        // All replicas agree on the stable checkpoint digest.
        let cp = group[0].stable_checkpoint();
        assert!(group.iter().all(|r| r.stable_checkpoint() == cp));
    }

    #[test]
    fn catch_up_rejects_tampered_logs() {
        let mut group = group_with_interval(4, 2);
        for ts in 1..=4 {
            commit(&mut group, ts);
        }
        let (through, history) = group[0].stable_checkpoint();
        // Build a forged log: one request substituted.
        let mut entries: Vec<(u64, Request)> = (1..=through)
            .map(|s| (s, Request::new(1, s, format!("put k{s} v").into_bytes())))
            .collect();
        entries[1].1 = Request::new(1, 99, b"put evil v".to_vec());

        let mut victim = Replica::new(ReplicaId(0), 4, KvStore::default());
        victim.set_checkpoint_interval(2);
        let mut out = Vec::new();
        // Teach the victim the stable proof first (2f+1 = 3 votes).
        for voter in 1..4 {
            victim.on_message(
                ReplicaId(voter),
                Message::Checkpoint {
                    seq: through,
                    history,
                },
                &mut out,
            );
        }
        victim.on_message(
            ReplicaId(2),
            Message::CatchUp {
                through,
                history,
                entries,
            },
            &mut out,
        );
        assert_eq!(
            victim.executed_log().len(),
            0,
            "digest-chain verification must reject the forged log"
        );
    }

    #[test]
    fn catch_up_applies_a_genuine_log() {
        let mut group = group_with_interval(4, 2);
        for ts in 1..=4 {
            commit(&mut group, ts);
        }
        let (through, history) = group[0].stable_checkpoint();
        let entries: Vec<(u64, Request)> = (1..=through)
            .map(|s| (s, Request::new(1, s, format!("put k{s} v").into_bytes())))
            .collect();

        let mut victim = Replica::new(ReplicaId(3), 4, KvStore::default());
        victim.set_checkpoint_interval(2);
        let mut out = Vec::new();
        for voter in 0..3 {
            victim.on_message(
                ReplicaId(voter),
                Message::Checkpoint {
                    seq: through,
                    history,
                },
                &mut out,
            );
        }
        victim.on_message(
            ReplicaId(1),
            Message::CatchUp {
                through,
                history,
                entries,
            },
            &mut out,
        );
        assert_eq!(victim.executed_log().len(), through as usize);
        assert_eq!(
            victim.executed_log(),
            &group[0].executed_log()[..through as usize],
            "transferred prefix matches the group history"
        );
    }

    #[test]
    fn catch_up_request_is_answered_gap_free_or_not_at_all() {
        let mut group = group_with_interval(4, 2);
        for ts in 1..=4 {
            commit(&mut group, ts);
        }
        let mut out = Vec::new();
        group[0].on_message(ReplicaId(3), Message::CatchUpRequest { from: 0 }, &mut out);
        let reply = out
            .iter()
            .find_map(|a| match a {
                Action::Send(
                    to,
                    Message::CatchUp {
                        through, entries, ..
                    },
                ) => Some((*to, *through, entries.len())),
                _ => None,
            })
            .expect("a stable peer answers");
        let (to, through, n) = reply;
        assert_eq!(to, ReplicaId(3));
        assert_eq!(n as u64, through, "contiguous from 1..=through");
    }
}
