//! The trace event model.
//!
//! One [`TraceEvent`] records one observable control-plane occurrence:
//! a span boundary (task execution, escalation round, attempt), an
//! instant (digest emitted, report ingested, quorum reached) or a counter
//! sample. Events carry **two clocks**:
//!
//! * `sim_us` — virtual time from the deterministic simulation. Part of
//!   the canonical trace: two runs of the same configuration produce the
//!   same sim timestamps no matter how many worker threads ran.
//! * `wall_ns` — host wall-clock nanoseconds, stamped by the sink at
//!   record time. Diagnostic only; excluded from the canonical trace.
//!
//! Events that are inherently scheduling-dependent (e.g. the *live*
//! moment a verdict flipped, which depends on channel arrival order) are
//! marked `canonical = false` and never participate in determinism
//! comparisons.

use std::fmt;

/// Track id for events not owned by any replica (the coordinator /
/// trusted control tier).
pub const COORDINATOR_PID: u32 = u32::MAX;
/// Track id for the verifier's ingest/verdict events.
pub const VERIFIER_PID: u32 = u32::MAX - 1;

/// The Chrome-trace phase of an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// A span opens (`ph: "B"`).
    Begin,
    /// A span closes (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter,
}

impl Phase {
    /// The Chrome-trace `ph` letter.
    pub fn chrome_ph(&self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
            Phase::Counter => 'C',
        }
    }
}

/// A typed event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    Uint(u64),
    /// Floating point.
    Float(f64),
    /// Text (allocated only when tracing is enabled).
    Str(String),
}

impl ArgValue {
    /// Renders the value with a stable textual form (used by the
    /// canonical trace, where every field must be totally ordered).
    pub fn render(&self) -> String {
        match self {
            ArgValue::Int(v) => v.to_string(),
            ArgValue::Uint(v) => v.to_string(),
            ArgValue::Float(v) => format!("{v:.6}"),
            ArgValue::Str(s) => s.clone(),
        }
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Uint(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Uint(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (static so the disabled path never allocates).
    pub name: &'static str,
    /// Category, e.g. `"engine"`, `"executor"`, `"verifier"`.
    pub cat: &'static str,
    /// Span/instant/counter phase.
    pub phase: Phase,
    /// Process-like track: replica uid, [`COORDINATOR_PID`] or
    /// [`VERIFIER_PID`].
    pub pid: u32,
    /// Thread-like track: worker node index (0 when not node-bound).
    pub tid: u32,
    /// Virtual time in microseconds (deterministic).
    pub sim_us: u64,
    /// Deterministic tiebreaker within `(pid, tid, sim_us)` — e.g. a task
    /// index or a per-replica digest sequence number.
    pub seq: u64,
    /// Host wall-clock nanoseconds since the sink was created; stamped by
    /// the sink, excluded from the canonical trace.
    pub wall_ns: u64,
    /// Whether the event participates in the canonical (deterministic)
    /// trace. Scheduling-dependent events set this to `false`.
    pub canonical: bool,
    /// Named arguments.
    pub args: Vec<(&'static str, ArgValue)>,
    /// Wall-domain arguments (host timings measured inside the span):
    /// exported and summarised, but excluded from the canonical trace
    /// even when the event itself is canonical.
    pub wall_args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Creates an event with the given phase; all tracks and clocks zero.
    pub fn new(name: &'static str, cat: &'static str, phase: Phase) -> Self {
        TraceEvent {
            name,
            cat,
            phase,
            pid: 0,
            tid: 0,
            sim_us: 0,
            seq: 0,
            wall_ns: 0,
            canonical: true,
            args: Vec::new(),
            wall_args: Vec::new(),
        }
    }

    /// An [`Phase::Instant`] event.
    pub fn instant(name: &'static str, cat: &'static str) -> Self {
        Self::new(name, cat, Phase::Instant)
    }

    /// A [`Phase::Begin`] event.
    pub fn begin(name: &'static str, cat: &'static str) -> Self {
        Self::new(name, cat, Phase::Begin)
    }

    /// An [`Phase::End`] event.
    pub fn end(name: &'static str, cat: &'static str) -> Self {
        Self::new(name, cat, Phase::End)
    }

    /// A [`Phase::Counter`] sample.
    pub fn counter(name: &'static str, cat: &'static str) -> Self {
        Self::new(name, cat, Phase::Counter)
    }

    /// Sets the `(pid, tid)` track.
    pub fn on(mut self, pid: u32, tid: u32) -> Self {
        self.pid = pid;
        self.tid = tid;
        self
    }

    /// Sets the virtual timestamp, in microseconds.
    pub fn at_sim(mut self, sim_us: u64) -> Self {
        self.sim_us = sim_us;
        self
    }

    /// Sets the deterministic tiebreaker.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Adds an argument.
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }

    /// Adds a wall-domain argument: visible in the exported trace and the
    /// summary, invisible to canonical-trace comparisons.
    pub fn wall_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.wall_args.push((key, value.into()));
        self
    }

    /// Marks the event as scheduling-dependent: it is recorded and
    /// exported, but excluded from canonical-trace comparisons.
    pub fn non_canonical(mut self) -> Self {
        self.canonical = false;
        self
    }
}

/// A fully-ordered, wall-clock-free projection of a [`TraceEvent`], used
/// for determinism comparisons: sorting any interleaving of the same
/// logical events yields the same canonical trace.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CanonicalEvent {
    /// Virtual timestamp (microseconds).
    pub sim_us: u64,
    /// Process-like track.
    pub pid: u32,
    /// Thread-like track.
    pub tid: u32,
    /// Event name.
    pub name: &'static str,
    /// Phase (spans sort Begin before End at equal timestamps only via
    /// the derived order; real spans never share all other fields).
    pub phase: Phase,
    /// Deterministic tiebreaker.
    pub seq: u64,
    /// Rendered arguments.
    pub args: Vec<(&'static str, String)>,
}

impl fmt::Display for CanonicalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}us p{} t{} {} {:?} #{}",
            self.sim_us, self.pid, self.tid, self.name, self.phase, self.seq
        )?;
        for (k, v) in &self.args {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Projects the canonical subset of `events`, sorted into the one
/// interleaving-independent order. Wall-clock fields are dropped; events
/// marked [`TraceEvent::non_canonical`] are excluded.
pub fn canonicalize(events: &[TraceEvent]) -> Vec<CanonicalEvent> {
    let mut out: Vec<CanonicalEvent> = events
        .iter()
        .filter(|e| e.canonical)
        .map(|e| CanonicalEvent {
            sim_us: e.sim_us,
            pid: e.pid,
            tid: e.tid,
            name: e.name,
            phase: e.phase,
            seq: e.seq,
            args: e.args.iter().map(|(k, v)| (*k, v.render())).collect(),
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let e = TraceEvent::instant("x", "c")
            .on(3, 7)
            .at_sim(42)
            .seq(9)
            .arg("k", 5u64);
        assert_eq!(e.pid, 3);
        assert_eq!(e.tid, 7);
        assert_eq!(e.sim_us, 42);
        assert_eq!(e.seq, 9);
        assert_eq!(e.args, vec![("k", ArgValue::Uint(5))]);
        assert!(e.canonical);
    }

    #[test]
    fn canonicalize_is_order_independent_and_drops_wall() {
        let mut a = TraceEvent::instant("a", "c")
            .at_sim(10)
            .seq(0)
            .wall_arg("digest_ns", 5u64);
        a.wall_ns = 111;
        let mut b = TraceEvent::instant("b", "c").at_sim(5).seq(1);
        b.wall_ns = 222;
        let live = TraceEvent::instant("live", "c").at_sim(1).non_canonical();

        let fwd = canonicalize(&[a.clone(), b.clone(), live.clone()]);
        let rev = canonicalize(&[live, b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 2, "non-canonical events are excluded");
        assert_eq!(fwd[0].name, "b", "sorted by sim time");
        assert!(fwd[1].args.is_empty(), "wall args are not canonical");
    }

    #[test]
    fn canonical_display_is_stable() {
        let e = TraceEvent::instant("quorum", "verifier")
            .at_sim(7)
            .arg("key", "v3");
        let c = canonicalize(&[e]);
        assert_eq!(c[0].to_string(), "7us p0 t0 quorum Instant #0 key=v3");
    }
}
