//! Sim-domain metrics as a fold over the canonical trace events.
//!
//! Every fact a sim series reports is decided by the simulation and
//! emitted once, as a canonical [`TraceEvent`]; this module is the one
//! place that maps those events to the series named in
//! [`cbft_metrics::names`]. It is applied two ways with the same result:
//!
//! * live, by the sink [`Obs::folded`] puts in front of a tracer, so a
//!   run with a metrics hub needs no event buffer;
//! * after the fact, by [`FromEvents::from_events`] over a recorded
//!   trace.
//!
//! Counters and histograms are sums, so any arrival order folds alike.
//! Every gauge is written from one pid track, in that track's sim order,
//! except the suspicion band, which takes the update with the most
//! evidence behind it (jobs, then faults: both only grow), so the fold
//! does not depend on how the events of different tracks interleave.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cbft_metrics::{names, Domain, LabelValue, Metrics, Snapshot, BAND_NAMES, VERIFY_MODE_NAMES};

use crate::event::{ArgValue, Phase, TraceEvent};
use crate::sink::{TraceSink, Tracer};
use crate::summary::key_lag;
use crate::Obs;

type Labels<'a> = &'a [(&'static str, LabelValue)];

/// Folds each event into a hub, then hands it on unchanged.
struct Fold {
    metrics: Metrics,
    /// Per node, the `(jobs, faults)` behind its band gauge's value.
    bands: Mutex<HashMap<u64, (u64, u64)>>,
    next: Option<Arc<dyn TraceSink>>,
}

fn uint(e: &TraceEvent, key: &str) -> Option<u64> {
    match e.args.iter().find(|(k, _)| *k == key)? {
        (_, ArgValue::Uint(v)) => Some(*v),
        (_, ArgValue::Int(v)) => u64::try_from(*v).ok(),
        (_, ArgValue::Str(s)) => s.parse().ok(),
        (_, ArgValue::Float(_)) => None,
    }
}

fn text(e: &TraceEvent, key: &str) -> Option<String> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.render())
}

fn rank(names: &[&str], name: &str) -> u64 {
    names.iter().position(|n| *n == name).unwrap_or(0) as u64
}

impl Fold {
    fn new(metrics: Metrics, next: Option<Arc<dyn TraceSink>>) -> Self {
        let bands = Mutex::new(HashMap::new());
        Fold {
            metrics,
            bands,
            next,
        }
    }

    fn add(&self, name: &'static str, labels: Labels, v: u64) {
        self.metrics.add(Domain::Sim, name, labels, v);
    }

    fn gauge(&self, name: &'static str, labels: Labels, v: u64) {
        self.metrics.gauge_set(Domain::Sim, name, labels, v);
    }

    /// Adds each `(series, arg)` count the event carries, when non-zero.
    fn counts(&self, e: &TraceEvent, labels: Labels, series: &[(&'static str, &str)]) {
        for &(name, key) in series {
            if let Some(v) = uint(e, key).filter(|&v| v > 0) {
                self.add(name, labels, v);
            }
        }
    }

    /// Applies one event; non-canonical events carry no sim fact.
    fn apply(&self, e: &TraceEvent) {
        if !e.canonical {
            return;
        }
        let replica = [("replica", LabelValue::U64(e.pid.into()))];
        let round = [("round", LabelValue::U64(e.seq + 1))];
        match (e.name, e.phase) {
            ("heartbeat", Phase::Instant) => self.add(names::HEARTBEATS, &replica, 1),
            ("task_cost", Phase::Instant) => {
                if let (Some(kind), Some(us)) = (text(e, "kind"), uint(e, "dur_us")) {
                    let pid = LabelValue::U64(e.pid.into());
                    let labels = [("replica", pid), ("kind", kind.into())];
                    let name = names::TASK_SIM_US;
                    self.metrics.observe(Domain::Sim, name, &labels, us);
                }
            }
            ("map_task", Phase::End) => {
                if let Some(bytes) = uint(e, "shuffle_bytes") {
                    self.add(names::SHUFFLE_BYTES, &replica, bytes);
                }
            }
            ("attempt", Phase::Begin) | ("round_start", Phase::Instant) => {
                if let Some(r) = uint(e, "replicas").or_else(|| uint(e, "fresh")) {
                    self.gauge(names::ROUND_REPLICAS, &round, r);
                }
            }
            ("round_end", Phase::Instant) => {
                if let Some(v) = uint(e, "verified") {
                    self.gauge(names::ROUND_VERIFIED, &round, v);
                }
                self.counts(e, &round, &[(names::ROUND_RECORDS, "records")]);
            }
            ("reexec_summary", Phase::Instant) => {
                if let Some(mode) = text(e, "mode") {
                    self.gauge(names::VERIFY_MODE, &[], rank(&VERIFY_MODE_NAMES, &mode));
                }
                self.counts(
                    e,
                    &[],
                    &[
                        (names::REEXEC_TASKS, "tasks"),
                        (names::REEXEC_SAMPLED, "sampled"),
                        (names::REEXEC_RERUN, "rerun"),
                        (names::REEXEC_CONFIRMED, "confirmed"),
                        (names::REEXEC_MISMATCHED, "mismatched"),
                        (names::REEXEC_RECORDS, "records"),
                        (names::REEXEC_ESCALATIONS, "escalated"),
                    ],
                );
            }
            ("suspicion", Phase::Instant) => self.suspicion(e),
            ("spot_check_mismatch", Phase::Instant) => {
                if let (Some(sid), Some(kind), Some(task)) =
                    (text(e, "sid"), text(e, "kind"), uint(e, "task"))
                {
                    self.divergence(e, format!("spot/{sid}/{kind}/{task}"));
                }
            }
            ("divergence", Phase::Instant) => {
                if let Some(key) = text(e, "key") {
                    self.divergence(e, key);
                }
            }
            // A replica's report count is written always (a silent
            // replica's reads 0), its other counts when non-zero.
            ("replica_forensics", Phase::Instant) => {
                if let Some(r) = uint(e, "replica") {
                    let labels = [("replica", LabelValue::U64(r))];
                    let reports = uint(e, "reports").unwrap_or(0);
                    self.add(names::REPLICA_REPORTS, &labels, reports);
                    self.counts(
                        e,
                        &labels,
                        &[
                            (names::REPLICA_MISMATCHES, "mismatches"),
                            (names::REPLICA_CONFLICTS, "conflicts"),
                            (names::REPLICA_OMISSIONS, "omissions"),
                        ],
                    );
                }
            }
            (crate::QUORUM_EVENT, Phase::Instant) => {
                if let Some(lag) = key_lag(e) {
                    let labels = [("key", LabelValue::Owned(lag.key))];
                    let name = names::VERIFICATION_LAG_US;
                    self.metrics.observe(Domain::Sim, name, &labels, lag.lag_us);
                }
            }
            _ => {}
        }
    }

    /// One band update: a transition tick when the band moved, and the
    /// node's band gauge, kept at the update with the most evidence.
    fn suspicion(&self, e: &TraceEvent) {
        let (Some(node), Some(from), Some(to), Some(jobs), Some(faults)) = (
            uint(e, "node"),
            text(e, "from"),
            text(e, "to"),
            uint(e, "jobs"),
            uint(e, "faults"),
        ) else {
            return;
        };
        let node_label = ("node", LabelValue::U64(node));
        if from != to {
            let labels = [
                node_label.clone(),
                ("from", from.into()),
                ("to", to.clone().into()),
            ];
            self.add(names::SUSPICION_TRANSITIONS, &labels, 1);
        }
        let mut bands = self.bands.lock().expect("fold state poisoned");
        let evidence = bands.entry(node).or_default();
        if (jobs, faults) >= *evidence {
            *evidence = (jobs, faults);
            self.gauge(names::SUSPICION_BAND, &[node_label], rank(&BAND_NAMES, &to));
        }
    }

    /// The four window gauges of one localized divergence under `key`.
    fn divergence(&self, e: &TraceEvent, key: String) {
        let labels = [("key", LabelValue::Owned(key))];
        for (name, arg) in [
            (names::DIVERGENCE_FIRST_CHUNK, "first_chunk"),
            (names::DIVERGENCE_LAST_CHUNK, "last_chunk"),
            (names::DIVERGENCE_FIRST_RECORD, "first_record"),
            (names::DIVERGENCE_LAST_RECORD, "last_record"),
        ] {
            if let Some(v) = uint(e, arg) {
                self.gauge(name, &labels, v);
            }
        }
    }
}

impl TraceSink for Fold {
    fn record(&self, event: TraceEvent) {
        self.apply(&event);
        if let Some(next) = &self.next {
            next.record(event);
        }
    }
}

impl Obs {
    /// This context with the fold attached: when the hub is live, the
    /// tracer folds every event into it before passing it on (a tracer
    /// that was disabled now builds events for the fold alone). A layer
    /// that receives an `Obs` calls this once and hands the result down;
    /// on a tracer that already folds into this hub it is a no-op, so no
    /// event is folded twice. A disabled hub leaves the tracer as it is.
    pub fn folded(self) -> Obs {
        if !self.metrics.enabled() || self.tracer.folds_into.same_hub(&self.metrics) {
            return self;
        }
        let fold = Fold::new(self.metrics.clone(), self.tracer.sink);
        let tracer = Tracer {
            sink: Some(Arc::new(fold)),
            folds_into: self.metrics.clone(),
        };
        Obs {
            tracer,
            metrics: self.metrics,
        }
    }
}

/// Building a value from recorded events.
pub trait FromEvents {
    /// Builds the value from `events`.
    fn from_events(events: &[TraceEvent]) -> Self;
}

impl FromEvents for Snapshot {
    /// The sim-domain series of a recorded run: the fold over its
    /// canonical events. Equal to the snapshot a live hub kept for the
    /// same run, and unchanged by how the events of different pid
    /// tracks interleave.
    fn from_events(events: &[TraceEvent]) -> Snapshot {
        let fold = Fold::new(Metrics::new(), None);
        events.iter().for_each(|e| fold.apply(e));
        fold.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, COORDINATOR_PID};

    fn band(node: u64, from: &str, to: &str, jobs: u64, faults: u64) -> TraceEvent {
        TraceEvent::instant("suspicion", "control")
            .on(COORDINATOR_PID, 0)
            .arg("node", node)
            .arg("from", from)
            .arg("to", to)
            .arg("jobs", jobs)
            .arg("faults", faults)
    }

    #[test]
    fn folded_tracer_feeds_the_hub_and_the_next_sink_once() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs {
            tracer: Tracer::new(sink.clone()),
            metrics: Metrics::new(),
        }
        .folded();
        // Folding again (a lower layer) must not fold twice.
        let obs = obs.folded();
        obs.tracer
            .emit(TraceEvent::instant("heartbeat", "engine").on(2, 0));
        obs.tracer.emit(
            TraceEvent::instant("heartbeat", "engine")
                .on(2, 1)
                .non_canonical(),
        );
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.scalar(names::HEARTBEATS, &[("replica", "2")]), Some(1));
        assert_eq!(sink.len(), 2, "every event is passed on");
    }

    #[test]
    fn a_disabled_hub_leaves_the_tracer_alone() {
        let obs = Obs::disabled().folded();
        assert!(!obs.tracer.enabled());
        let live = Obs {
            metrics: Metrics::new(),
            ..Obs::disabled()
        }
        .folded();
        assert!(live.tracer.enabled(), "the fold needs the events");
    }

    #[test]
    fn the_band_gauge_keeps_the_update_with_most_evidence() {
        let events = [
            band(0, "none", "high", 1, 1),
            band(0, "high", "med", 2, 1),
            band(0, "med", "high", 3, 2),
            band(1, "none", "none", 1, 0),
        ];
        let forward = Snapshot::from_events(&events);
        let mut reversed = events.to_vec();
        reversed.reverse();
        assert_eq!(forward, Snapshot::from_events(&reversed));
        assert_eq!(
            forward.scalar(names::SUSPICION_BAND, &[("node", "0")]),
            Some(3)
        );
        assert_eq!(
            forward.scalar(names::SUSPICION_BAND, &[("node", "1")]),
            Some(0)
        );
        let ticks = [("node", "0"), ("from", "none"), ("to", "high")];
        assert_eq!(
            forward.scalar(names::SUSPICION_TRANSITIONS, &ticks),
            Some(1)
        );
    }

    #[test]
    fn quorum_lag_and_replica_forensics_fold_into_their_series() {
        let events = [
            TraceEvent::instant(crate::QUORUM_EVENT, "verifier")
                .arg("key", "v1")
                .arg("lag_us", 40u64),
            TraceEvent::instant("replica_forensics", "verifier")
                .arg("replica", 3u64)
                .arg("reports", 0u64)
                .arg("mismatches", 0u64)
                .arg("conflicts", 0u64)
                .arg("omissions", 2u64),
        ];
        let snap = Snapshot::from_events(&events);
        assert_eq!(
            snap.scalar(names::REPLICA_REPORTS, &[("replica", "3")]),
            Some(0)
        );
        assert_eq!(
            snap.scalar(names::REPLICA_OMISSIONS, &[("replica", "3")]),
            Some(2)
        );
        assert_eq!(
            snap.scalar(names::REPLICA_MISMATCHES, &[("replica", "3")]),
            None
        );
        assert!(snap
            .get(names::VERIFICATION_LAG_US, &[("key", "v1")])
            .is_some());
        assert!(snap.samples.iter().all(|s| s.domain == Domain::Sim));
    }
}
