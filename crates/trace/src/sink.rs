//! Trace sinks and the [`Tracer`] handle.
//!
//! A [`Tracer`] is cheap to clone and cheap to carry around disabled: it
//! wraps `Option<Arc<dyn TraceSink>>`, so the disabled fast path is a
//! single `Option` discriminant check with no allocation, formatting, or
//! locking. Instrumented call sites guard event construction with
//! [`Tracer::enabled`] so argument rendering never runs when tracing is
//! off.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::TraceEvent;

/// A destination for trace events. Implementations must tolerate
/// concurrent `record` calls from the parallel executor's worker
/// threads.
pub trait TraceSink: Send + Sync {
    /// Records one event. The sink stamps `wall_ns` itself so callers
    /// never touch the host clock.
    fn record(&self, event: TraceEvent);
}

/// A buffering in-memory sink. Events are appended under a mutex and
/// stamped with nanoseconds elapsed since the sink was created.
pub struct MemorySink {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Creates an empty sink; its wall-clock epoch is "now".
    pub fn new() -> Self {
        MemorySink {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Drains and returns all recorded events in record order.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"))
    }

    /// Returns a copy of all recorded events in record order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, mut event: TraceEvent) {
        event.wall_ns = self.epoch.elapsed().as_nanos() as u64;
        self.events.lock().expect("trace sink poisoned").push(event);
    }
}

/// Fans one event stream out to several sinks (e.g. the
/// [`FlightRecorder`](crate::FlightRecorder) of `--flight-dir` plus a
/// full-capture [`MemorySink`] when `--trace` is on). Each downstream sink stamps its
/// own wall clock, as usual.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Creates a fanout over `sinks`, in delivery order.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, event: TraceEvent) {
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                sink.record(event.clone());
            }
            last.record(event);
        }
    }
}

/// Pid-track span per job under [`ScopedSink`]: each job owns this many
/// consecutive pid values, so co-tenant traces written to one shared
/// sink never interleave on the same track.
pub const JOB_PID_STRIDE: u32 = 1_000;

/// Scopes a shared sink to one server job: replica pids are remapped
/// into the job's private [`JOB_PID_STRIDE`]-wide band (the coordinator
/// and verifier tracks land on the band's two top slots) and every event
/// gains a `job` argument. Used by the `cbftd` slot workers so traces
/// from concurrently executing co-tenant jobs stay separable.
pub struct ScopedSink {
    inner: Arc<dyn TraceSink>,
    job: u64,
    base: u32,
}

impl ScopedSink {
    /// Scopes `inner` to job id `job`.
    pub fn new(inner: Arc<dyn TraceSink>, job: u64) -> Self {
        // Bands wrap long before pid arithmetic can overflow u32; the
        // two reserved global tracks are never produced by the remap.
        let bands = (u32::MAX / JOB_PID_STRIDE) as u64 - 1;
        ScopedSink {
            inner,
            job,
            base: (job % bands) as u32 * JOB_PID_STRIDE,
        }
    }

    /// The first pid of this job's band.
    pub fn base_pid(&self) -> u32 {
        self.base
    }
}

impl TraceSink for ScopedSink {
    fn record(&self, mut event: TraceEvent) {
        event.pid = match event.pid {
            crate::COORDINATOR_PID => self.base + JOB_PID_STRIDE - 1,
            crate::VERIFIER_PID => self.base + JOB_PID_STRIDE - 2,
            p => self.base + p.min(JOB_PID_STRIDE - 3),
        };
        event.args.push(("job", crate::ArgValue::Uint(self.job)));
        self.inner.record(event);
    }
}

/// The handle instrumented code holds. Cloning shares the sink.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Tracer {
    /// A tracer with no sink: every [`Tracer::emit`] is a no-op and
    /// [`Tracer::enabled`] is `false`.
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer recording into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Convenience: a tracer backed by a fresh [`MemorySink`], returning
    /// both. The sink handle is used later to drain / export events.
    pub fn memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Tracer::new(sink.clone()), sink)
    }

    /// Whether a sink is attached. Instrumented sites must check this
    /// before building events so the disabled path stays allocation-free.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records `event` if a sink is attached.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(event);
        }
    }

    /// A tracer that writes into the same sink through a job-scoped
    /// [`ScopedSink`]; disabled tracers stay disabled.
    pub fn scoped(&self, job: u64) -> Tracer {
        match &self.sink {
            Some(sink) => Tracer::new(Arc::new(ScopedSink::new(sink.clone(), job))),
            None => Tracer::disabled(),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_drops_events() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(TraceEvent::instant("x", "c"));
    }

    #[test]
    fn memory_sink_stamps_wall_clock() {
        let (t, sink) = Tracer::memory();
        assert!(t.enabled());
        t.emit(TraceEvent::instant("a", "c").at_sim(5));
        t.emit(TraceEvent::instant("b", "c").at_sim(6));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(events[1].wall_ns >= events[0].wall_ns);
        assert!(sink.is_empty(), "take drains the buffer");
    }

    #[test]
    fn cloned_tracers_share_the_sink() {
        let (t, sink) = Tracer::memory();
        let t2 = t.clone();
        t.emit(TraceEvent::instant("a", "c"));
        t2.emit(TraceEvent::instant("b", "c"));
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let t = Tracer::new(Arc::new(FanoutSink::new(vec![a.clone(), b.clone()])));
        t.emit(TraceEvent::instant("x", "c"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(a.take()[0].wall_ns > 0 || b.take()[0].wall_ns > 0);
    }

    #[test]
    fn scoped_sink_remaps_pids_into_job_band() {
        let inner = Arc::new(MemorySink::new());
        let t = Tracer::new(inner.clone()).scoped(3);
        t.emit(TraceEvent::instant("r", "c").on(2, 0));
        t.emit(TraceEvent::instant("c", "c").on(crate::COORDINATOR_PID, 0));
        t.emit(TraceEvent::instant("v", "c").on(crate::VERIFIER_PID, 0));
        let events = inner.take();
        let base = 3 * JOB_PID_STRIDE;
        assert_eq!(events[0].pid, base + 2);
        assert_eq!(events[1].pid, base + JOB_PID_STRIDE - 1);
        assert_eq!(events[2].pid, base + JOB_PID_STRIDE - 2);
        for e in &events {
            assert!(e.args.contains(&("job", crate::ArgValue::Uint(3))));
        }
    }

    #[test]
    fn scoped_sinks_for_distinct_jobs_never_collide() {
        let s1 = ScopedSink::new(Arc::new(MemorySink::new()), 1);
        let s2 = ScopedSink::new(Arc::new(MemorySink::new()), 2);
        assert_ne!(s1.base_pid(), s2.base_pid());
    }

    #[test]
    fn scoped_disabled_tracer_stays_disabled() {
        assert!(!Tracer::disabled().scoped(9).enabled());
    }
}
