//! The observability context one layer hands the next.

use cbft_metrics::Metrics;

use crate::Tracer;

/// A [`Tracer`] and a [`Metrics`] hub, given together, once, when a
/// layer is built: the engine's `ClusterBuilder`, the parallel executor
/// and the job server each take one and hand its handles down. Cloning
/// shares both the sink and the registry.
///
/// There are no forwarding methods: instrumented code calls
/// `obs.tracer.*` and `obs.metrics.*` directly, so each site still pays
/// one branch when its handle is disabled. Sim-side code only emits
/// events; a layer given a live hub attaches the metrics fold once
/// ([`Obs::folded`]), which turns them into the hub's sim series.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Event sink for spans and instants (disabled: records nothing).
    pub tracer: Tracer,
    /// Registry for counters, gauges and histograms (disabled: records
    /// nothing).
    pub metrics: Metrics,
}

impl Obs {
    /// Both handles disabled; also the [`Default`].
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// The same hub, with the tracer scoped into job `job`'s pid band
    /// (see [`Tracer::scoped`]); a disabled tracer stays disabled.
    pub fn scoped(&self, job: u64) -> Obs {
        Obs {
            tracer: self.tracer.scoped(job),
            metrics: self.metrics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, TraceEvent, JOB_PID_STRIDE};
    use cbft_metrics::Domain;
    use std::sync::Arc;

    #[test]
    fn disabled_is_the_default_and_records_nothing() {
        let obs = Obs::default();
        assert!(!obs.tracer.enabled());
        assert!(!obs.metrics.enabled());
        assert!(!Obs::disabled().scoped(4).tracer.enabled());
    }

    #[test]
    fn scoped_moves_events_into_the_job_band_and_keeps_the_hub() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs {
            tracer: Tracer::new(sink.clone()),
            metrics: Metrics::new(),
        };
        let job = obs.scoped(2);
        job.tracer.emit(TraceEvent::instant("x", "c").on(1, 0));
        job.metrics.add(Domain::Sim, "n_total", &[], 1);
        assert_eq!(sink.take()[0].pid, 2 * JOB_PID_STRIDE + 1);
        assert_eq!(obs.metrics.snapshot().scalar("n_total", &[]), Some(1));
    }
}
