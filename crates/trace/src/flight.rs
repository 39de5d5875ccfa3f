//! Flight recorder: a sharded set of per-track rings holding the most
//! recent trace events.
//!
//! Full `--trace` capture buffers every event for the whole run. The
//! [`FlightRecorder`] is the bounded tier beside it: it keeps only the
//! last [`FlightRecorder::capacity`] events *per pid track* in pre-sized
//! rings, so memory is bounded by `capacity × live pid tracks` however
//! long a track runs, and the cost per event is a shard lock plus a ring
//! slot write. The CLI and `cbftd` attach it under `--flight-dir`: when
//! an anomaly fires (digest mismatch, escalation, withheld output, lost
//! worker, rejection burst) the rings are drained into a forensic bundle.
//! A track's ring lives until the next drain, so a process that opens
//! new tracks without draining (`cbftd` gives every job its own pid
//! band) grows by one set of rings per track opened.
//!
//! Determinism: rings are sharded by the event's `pid` track, not by OS
//! thread. Each replica pid's events are emitted in deterministic sim
//! order by whichever worker runs that replica, so the retained suffix
//! per pid — and therefore the canonical projection of a drain — is
//! identical across `--threads` / `--compute-threads` settings.
//! Scheduling-dependent events are marked non-canonical at the source
//! and fall out of [`canonical_dump`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{canonicalize, TraceEvent};
use crate::sink::TraceSink;

/// A fixed-capacity ring of trace events with oldest-first eviction and
/// exact accounting: `len + evicted == total_pushed` always holds.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    total_pushed: u64,
    evicted: u64,
}

impl EventRing {
    /// Creates an empty ring holding at most `capacity` events
    /// (a capacity of zero is promoted to one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            total_pushed: 0,
            evicted: 0,
        }
    }

    /// Appends an event, evicting and returning the oldest retained
    /// event when the ring is full.
    pub fn push(&mut self, event: TraceEvent) -> Option<TraceEvent> {
        self.total_pushed += 1;
        let dropped = if self.buf.len() == self.capacity {
            self.evicted += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(event);
        dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Total events evicted to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterates retained events oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Removes and returns all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

/// Shard count for the pid → ring map. Sixteen keeps lock contention
/// low for realistic replica counts while the array stays tiny.
const SHARDS: usize = 16;

/// The flight recorder sink.
///
/// Events are routed to a per-pid [`EventRing`] held inside one of
/// [`SHARDS`] mutex-protected shards, so concurrent workers emitting on
/// different replica tracks rarely contend. Memory is bounded by
/// `capacity × live pid tracks`.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    shards: Vec<Mutex<Vec<(u32, EventRing)>>>,
    captured: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// Default per-pid ring capacity: enough to cover a full escalation
    /// round of engine/verifier events for one replica.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a recorder retaining at most `capacity` events per pid.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            captured: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// A recorder with [`FlightRecorder::DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }

    /// Per-pid ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events recorded since creation (including later-evicted).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Total events evicted from full rings.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Number of distinct pid tracks with a live ring.
    pub fn tracks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("flight shard poisoned").len())
            .sum()
    }

    /// Drains every ring, returning retained events grouped by pid in
    /// ascending pid order (oldest first within a pid). The grouping
    /// order is deterministic; pass the result through
    /// [`canonical_dump`] for the interleaving-independent projection.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut per_pid: Vec<(u32, Vec<TraceEvent>)> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("flight shard poisoned");
            for (pid, ring) in shard.iter_mut() {
                per_pid.push((*pid, ring.drain()));
            }
            shard.clear();
        }
        per_pid.sort_by_key(|(pid, _)| *pid);
        per_pid.into_iter().flat_map(|(_, evs)| evs).collect()
    }

    /// Like [`FlightRecorder::drain`] but leaves the rings intact.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut per_pid: Vec<(u32, Vec<TraceEvent>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("flight shard poisoned");
            for (pid, ring) in shard.iter() {
                per_pid.push((*pid, ring.iter().cloned().collect()));
            }
        }
        per_pid.sort_by_key(|(pid, _)| *pid);
        per_pid.into_iter().flat_map(|(_, evs)| evs).collect()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, mut event: TraceEvent) {
        event.wall_ns = self.epoch.elapsed().as_nanos() as u64;
        let pid = event.pid;
        let shard = &self.shards[pid as usize % SHARDS];
        let mut shard = shard.lock().expect("flight shard poisoned");
        let ring = match shard.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, ring)) => ring,
            None => {
                shard.push((pid, EventRing::new(self.capacity)));
                &mut shard.last_mut().expect("just pushed").1
            }
        };
        if ring.push(event).is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        self.captured.fetch_add(1, Ordering::Relaxed);
    }
}

/// Renders the canonical (wall-clock-free, sorted, deterministic)
/// projection of `events` as one line per event — the `events.log`
/// format used inside forensic bundles.
pub fn canonical_dump(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in canonicalize(events) {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Tracer;
    use std::sync::Arc;

    fn ev(pid: u32, seq: u64) -> TraceEvent {
        TraceEvent::instant("e", "t").on(pid, 0).seq(seq)
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut ring = EventRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            let dropped = ring.push(ev(0, i));
            if i < 3 {
                assert!(dropped.is_none());
            } else {
                assert_eq!(dropped.expect("full ring evicts").seq, i - 3);
            }
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.evicted(), 2);
        let seqs: Vec<u64> = ring.drain().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_promoted_to_one() {
        let mut ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(ev(0, 0));
        ring.push(ev(0, 1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.evicted(), 1);
    }

    #[test]
    fn recorder_keeps_last_n_per_pid() {
        let rec = Arc::new(FlightRecorder::new(2));
        let tracer = Tracer::new(rec.clone());
        for pid in [0u32, 1, crate::COORDINATOR_PID] {
            for s in 0..4u64 {
                tracer.emit(ev(pid, s));
            }
        }
        assert_eq!(rec.captured(), 12);
        assert_eq!(rec.evicted(), 6);
        assert_eq!(rec.tracks(), 3);
        let events = rec.drain();
        assert_eq!(events.len(), 6, "2 retained per pid");
        // Ascending pid order, oldest first within a pid.
        let keys: Vec<(u32, u64)> = events.iter().map(|e| (e.pid, e.seq)).collect();
        assert_eq!(
            keys,
            vec![
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (crate::COORDINATOR_PID, 2),
                (crate::COORDINATOR_PID, 3),
            ]
        );
        assert_eq!(rec.tracks(), 0, "drain resets the rings");
    }

    #[test]
    fn recorder_stamps_wall_clock() {
        let rec = FlightRecorder::with_default_capacity();
        rec.record(ev(0, 0));
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(rec.captured(), 1);
        assert_eq!(rec.snapshot().len(), 1, "snapshot leaves rings intact");
    }

    #[test]
    fn canonical_dump_drops_wall_and_non_canonical() {
        let rec = FlightRecorder::with_default_capacity();
        rec.record(ev(0, 1).at_sim(10));
        rec.record(ev(0, 0).at_sim(5));
        rec.record(ev(1, 9).non_canonical());
        let dump = canonical_dump(&rec.drain());
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "non-canonical excluded");
        assert!(lines[0].starts_with("5us"), "sorted by sim time");
        assert!(!dump.contains("wall"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Wraparound property: after any push sequence the ring
            /// retains exactly the last `min(n, capacity)` events in
            /// push order, and accounting is exact.
            #[test]
            fn ring_retains_exact_suffix(
                capacity in 1usize..40,
                n in 0usize..200,
            ) {
                let mut ring = EventRing::new(capacity);
                for i in 0..n as u64 {
                    let dropped = ring.push(ev(7, i));
                    // Oldest-evicted ordering: the i-th push can only
                    // ever displace event i - capacity.
                    match dropped {
                        Some(d) => prop_assert_eq!(d.seq, i - capacity as u64),
                        None => prop_assert!(i < capacity as u64),
                    }
                }
                let retained = n.min(capacity);
                prop_assert_eq!(ring.len(), retained);
                prop_assert_eq!(ring.total_pushed(), n as u64);
                prop_assert_eq!(ring.evicted(), (n - retained) as u64);
                let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
                let expect: Vec<u64> =
                    ((n - retained) as u64..n as u64).collect();
                prop_assert_eq!(seqs, expect);
            }
        }
    }
}
