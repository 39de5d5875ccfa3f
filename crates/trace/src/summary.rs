//! Trace summarisation: per-phase span totals, per-job task-stage wall
//! time, instant counts, per-key verification lag, and
//! externally-supplied counters (the data-plane counters live in
//! `cbft-dataflow`, which this crate does not depend on, so their
//! snapshot deltas are passed in rather than read here).

use std::collections::BTreeMap;

use crate::event::{ArgValue, Phase, TraceEvent};
use cbft_metrics::Histogram;

/// Name used by verifier instrumentation for deterministic quorum
/// events; [`TraceSummary::from_events`] extracts [`KeyLag`] rows from
/// events with this name.
pub const QUORUM_EVENT: &str = "quorum";

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed Begin/End pairs.
    pub count: u64,
    /// Total virtual time across completed pairs, microseconds.
    pub sim_us_total: u64,
    /// Total wall time across completed pairs, nanoseconds: End stamp
    /// minus Begin stamp — except for a span whose End carries stage
    /// timings (a task: its Begin is stamped at dispatch and its End when
    /// the *simulated* completion event fires, so the stamps bracket the
    /// event loop, not the task), whose wall time is the sum of its
    /// stages, the time its payload ran.
    pub wall_ns_total: u64,
}

/// Verification lag for one correspondence key: virtual time between the
/// first digest report for the key and the report that completed its
/// f+1 matching quorum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyLag {
    /// Rendered correspondence key.
    pub key: String,
    /// Virtual time at which the quorum completed, microseconds.
    pub quorum_sim_us: u64,
    /// `quorum_sim_us - first_report_sim_us`, microseconds.
    pub lag_us: u64,
}

/// Wall time per stage inside the spans of one `(job, span name)` pair,
/// summed from the spans' wall-domain args.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Completed spans that carried stage timings.
    pub spans: u64,
    /// `(stage, total nanoseconds)` in the order the spans listed them.
    pub stage_ns: Vec<(&'static str, u64)>,
}

/// An aggregated view over a recorded trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Span totals keyed by event name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// Stage wall time keyed by `(job, span name)`: the job is the `sid`
    /// arg of the span's Begin event, the stages are the unsigned
    /// wall-domain args of its End event.
    pub task_stages: BTreeMap<(String, &'static str), StageTotals>,
    /// Instant counts keyed by event name.
    pub instants: BTreeMap<&'static str, u64>,
    /// Per-key verification lag rows, in key order.
    pub key_lags: Vec<KeyLag>,
    /// External counters (label, value) — e.g. `data_plane` snapshot
    /// deltas — attached via [`TraceSummary::with_counter`].
    pub counters: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Builds a summary from recorded events. Span Begin/End events are
    /// paired per `(pid, tid, name)` in record order; unbalanced
    /// boundaries are ignored rather than panicking.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut spans: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        let mut instants: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut key_lags = Vec::new();
        let mut task_stages: BTreeMap<(String, &'static str), StageTotals> = BTreeMap::new();
        // Open Begin events, stacked per (pid, tid, name) track.
        type OpenSpans<'a> = BTreeMap<(u32, u32, &'static str), Vec<&'a TraceEvent>>;
        let mut open: OpenSpans = BTreeMap::new();

        for e in events {
            match e.phase {
                Phase::Begin => {
                    open.entry((e.pid, e.tid, e.name)).or_default().push(e);
                }
                Phase::End => {
                    if let Some(stack) = open.get_mut(&(e.pid, e.tid, e.name)) {
                        if let Some(begin) = stack.pop() {
                            let s = spans.entry(e.name).or_default();
                            s.count += 1;
                            s.sim_us_total += e.sim_us.saturating_sub(begin.sim_us);
                            s.wall_ns_total += if e.wall_args.is_empty() {
                                e.wall_ns.saturating_sub(begin.wall_ns)
                            } else {
                                add_stages(&mut task_stages, begin, e)
                            };
                        }
                    }
                }
                Phase::Instant => {
                    *instants.entry(e.name).or_default() += 1;
                    if let Some(lag) = key_lag(e) {
                        key_lags.push(lag);
                    }
                }
                Phase::Counter => {}
            }
        }
        key_lags.sort_by(|a, b| a.key.cmp(&b.key));

        TraceSummary {
            spans,
            task_stages,
            instants,
            key_lags,
            counters: Vec::new(),
        }
    }

    /// Attaches an external counter row.
    pub fn with_counter(mut self, label: impl Into<String>, value: u64) -> Self {
        self.counters.push((label.into(), value));
        self
    }

    /// Maximum per-key verification lag, microseconds.
    pub fn max_lag_us(&self) -> u64 {
        self.key_lags.iter().map(|l| l.lag_us).max().unwrap_or(0)
    }

    /// Mean per-key verification lag, microseconds (0 when no keys).
    pub fn mean_lag_us(&self) -> f64 {
        if self.key_lags.is_empty() {
            return 0.0;
        }
        let total: u64 = self.key_lags.iter().map(|l| l.lag_us).sum();
        total as f64 / self.key_lags.len() as f64
    }

    /// Per-key lags folded into the shared log₂ histogram. `key_lags`
    /// is sorted canonically, and histogram recording is commutative,
    /// so the result is byte-stable for a given canonical trace.
    pub fn lag_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for l in &self.key_lags {
            h.record(l.lag_us);
        }
        h
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("trace summary\n");
        if !self.spans.is_empty() {
            out.push_str("  spans (name: count, sim total, wall total):\n");
            for (name, s) in &self.spans {
                out.push_str(&format!(
                    "    {name}: {} x, {} us sim, {:.3} ms wall\n",
                    s.count,
                    s.sim_us_total,
                    s.wall_ns_total as f64 / 1e6
                ));
            }
        }
        if !self.task_stages.is_empty() {
            out.push_str("  task stages (job span: spans; wall ms per stage):\n");
            for ((job, span), totals) in &self.task_stages {
                out.push_str(&format!("    {job} {span}: {} x;", totals.spans));
                for (stage, ns) in &totals.stage_ns {
                    let stage = stage.strip_suffix("_ns").unwrap_or(stage);
                    out.push_str(&format!(" {stage} {:.3}", *ns as f64 / 1e6));
                }
                out.push('\n');
            }
        }
        if !self.instants.is_empty() {
            out.push_str("  instants:\n");
            for (name, n) in &self.instants {
                out.push_str(&format!("    {name}: {n}\n"));
            }
        }
        if !self.key_lags.is_empty() {
            // Quantiles over the canonically sorted per-key lags rather
            // than a raw per-key listing: byte-stable and O(1) lines no
            // matter how many verification points a run has.
            let h = self.lag_histogram();
            let (p50, p90, p99) = h.p50_p90_p99();
            out.push_str(&format!(
                "  verification lag quantiles (sim us): p50={p50} p90={p90} p99={p99}\n"
            ));
            out.push_str(&format!(
                "  lag: mean {:.1} us, max {} us over {} keys\n",
                self.mean_lag_us(),
                self.max_lag_us(),
                self.key_lags.len()
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (label, value) in &self.counters {
                out.push_str(&format!("    {label}: {value}\n"));
            }
        }
        out
    }
}

/// Adds the stage timings on span End `end` to its job's totals; returns
/// their sum, the span's own wall time.
fn add_stages(
    task_stages: &mut BTreeMap<(String, &'static str), StageTotals>,
    begin: &TraceEvent,
    end: &TraceEvent,
) -> u64 {
    let job = begin
        .args
        .iter()
        .find_map(|(k, v)| match (*k, v) {
            ("sid", ArgValue::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let totals = task_stages.entry((job, end.name)).or_default();
    totals.spans += 1;
    let mut span_ns = 0;
    for (stage, v) in &end.wall_args {
        let ArgValue::Uint(ns) = v else { continue };
        span_ns += ns;
        match totals.stage_ns.iter_mut().find(|(s, _)| s == stage) {
            Some((_, total)) => *total += ns,
            None => totals.stage_ns.push((stage, *ns)),
        }
    }
    span_ns
}

/// The key and lag of a [`QUORUM_EVENT`] (`None` for any other event):
/// the one parser of it, for the summary and the metrics fold.
pub(crate) fn key_lag(e: &TraceEvent) -> Option<KeyLag> {
    if e.name != QUORUM_EVENT {
        return None;
    }
    let mut key = None;
    let mut lag_us = None;
    for (k, v) in &e.args {
        match (*k, v) {
            ("key", ArgValue::Str(s)) => key = Some(s.clone()),
            ("lag_us", ArgValue::Uint(u)) => lag_us = Some(*u),
            _ => {}
        }
    }
    Some(KeyLag {
        key: key?,
        quorum_sim_us: e.sim_us,
        lag_us: lag_us?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn pairs_spans_and_counts_instants() {
        let events = vec![
            TraceEvent::begin("task", "engine").on(1, 0).at_sim(10),
            TraceEvent::instant("digest", "engine").on(1, 0).at_sim(15),
            TraceEvent::end("task", "engine").on(1, 0).at_sim(30),
            // unbalanced End on another track is ignored
            TraceEvent::end("task", "engine").on(2, 0).at_sim(40),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.spans["task"].count, 1);
        assert_eq!(s.spans["task"].sim_us_total, 20);
        assert_eq!(s.instants["digest"], 1);
    }

    #[test]
    fn sums_task_stages_per_job_from_wall_args() {
        let span = |sid: &'static str, tid: u32, digest: u64, sort: u64| {
            [
                TraceEvent::begin("reduce_task", "engine")
                    .on(1, tid)
                    .arg("sid", sid),
                TraceEvent::end("reduce_task", "engine")
                    .on(1, tid)
                    .wall_arg("digest_ns", digest)
                    .wall_arg("shuffle_kernel_ns", sort),
            ]
        };
        let mut events = Vec::new();
        events.extend(span("j0", 0, 1_000_000, 500_000));
        events.extend(span("j0", 1, 2_000_000, 250_000));
        events.extend(span("j1", 0, 7, 9));
        // A span without stage timings adds no row.
        events.push(TraceEvent::begin("attempt", "executor").arg("sid", "j0"));
        events.push(TraceEvent::end("attempt", "executor"));
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.task_stages.len(), 2);
        let j0 = &s.task_stages[&("j0".to_owned(), "reduce_task")];
        assert_eq!(j0.spans, 2);
        assert_eq!(
            j0.stage_ns,
            vec![("digest_ns", 3_000_000), ("shuffle_kernel_ns", 750_000)]
        );
        assert!(s
            .render()
            .contains("j0 reduce_task: 2 x; digest 3.000 shuffle_kernel 0.750"));
    }

    /// A task span's stamps bracket the event loop (Begin at dispatch, End
    /// when the simulated completion fires): its wall time is the sum of
    /// its stage timings. A span without them keeps the stamp difference.
    #[test]
    fn a_span_with_stage_timings_takes_their_sum_as_its_wall_time() {
        let at = |mut e: TraceEvent, wall_ns: u64| {
            e.wall_ns = wall_ns;
            e
        };
        let events = vec![
            at(TraceEvent::begin("replica", "executor").on(0, 0), 1_000),
            at(
                TraceEvent::begin("map_task", "engine")
                    .on(1, 0)
                    .arg("sid", "j0"),
                2_000,
            ),
            at(
                TraceEvent::begin("map_task", "engine")
                    .on(1, 1)
                    .arg("sid", "j0"),
                3_000,
            ),
            at(
                TraceEvent::end("map_task", "engine")
                    .on(1, 0)
                    .wall_arg("pipeline_ops_ns", 400u64)
                    .wall_arg("partition_ns", 600u64),
                900_000,
            ),
            at(
                TraceEvent::end("map_task", "engine")
                    .on(1, 1)
                    .wall_arg("pipeline_ops_ns", 50u64)
                    .wall_arg("partition_ns", 0u64),
                950_000,
            ),
            at(TraceEvent::end("replica", "executor").on(0, 0), 1_000_000),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.spans["map_task"].count, 2);
        assert_eq!(s.spans["map_task"].wall_ns_total, 400 + 600 + 50);
        assert_eq!(s.spans["replica"].wall_ns_total, 999_000);
        let stages = &s.task_stages[&("j0".to_owned(), "map_task")];
        assert_eq!(
            stages.stage_ns,
            vec![("pipeline_ops_ns", 450), ("partition_ns", 600)]
        );
        assert!(s
            .render()
            .contains("map_task: 2 x, 0 us sim, 0.001 ms wall"));
    }

    #[test]
    fn extracts_key_lags_from_quorum_events() {
        let events = vec![
            TraceEvent::instant(QUORUM_EVENT, "verifier")
                .at_sim(100)
                .arg("key", "v2/s0")
                .arg("lag_us", 40u64),
            TraceEvent::instant(QUORUM_EVENT, "verifier")
                .at_sim(80)
                .arg("key", "v1/s0")
                .arg("lag_us", 10u64),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.key_lags.len(), 2);
        assert_eq!(s.key_lags[0].key, "v1/s0", "sorted by key");
        assert_eq!(s.max_lag_us(), 40);
        assert!((s.mean_lag_us() - 25.0).abs() < 1e-9);
        let h = s.lag_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 40);
        let text = s.render();
        // Lags 10 and 40 land in log2 buckets [8,15] and [32,63].
        assert!(text.contains("verification lag quantiles (sim us): p50=15 p90=40 p99=40"));
        assert!(text.contains("mean 25.0 us, max 40 us over 2 keys"));
    }

    #[test]
    fn counters_attach_and_render() {
        let s = TraceSummary::from_events(&[]).with_counter("digest_bytes_hashed", 1234);
        assert!(s.render().contains("digest_bytes_hashed: 1234"));
    }
}
