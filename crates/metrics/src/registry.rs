//! Sharded, lock-cheap registry of labeled metrics.
//!
//! The write path hashes `(name, labels)` to one of a fixed set of
//! mutex-guarded shards, so concurrent recorders from different metrics
//! rarely contend on the same lock. Every update operation (counter
//! add, gauge max, histogram record) is commutative and associative,
//! which is what makes sim-domain snapshots deterministic across worker
//! thread counts: the same multiset of updates yields the same state in
//! any arrival order.

use crate::histogram::Histogram;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Number of independent lock shards in a [`Registry`].
const SHARDS: usize = 16;

/// Maximum number of label pairs on a single metric.
pub const MAX_LABELS: usize = 3;

/// Which clock domain a metric's values derive from.
///
/// `Sim` metrics are functions of the deterministic simulation (virtual
/// clock, record counts, digests): their snapshot is bit-identical
/// across `--threads` and `--compute-threads` settings. `Wall` metrics
/// depend on host scheduling (steal counts, queue depths, wall-clock
/// timings) and are excluded from determinism comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Deterministic: derived from simulation state only.
    Sim,
    /// Scheduling-dependent: derived from the host machine.
    Wall,
}

impl Domain {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Sim => "sim",
            Domain::Wall => "wall",
        }
    }
}

/// One label value. Numeric labels avoid allocation on the hot path;
/// `Owned` exists for dynamic keys (e.g. verification-point names).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LabelValue {
    /// An unsigned integer label (rendered in decimal).
    U64(u64),
    /// A static string label.
    Str(&'static str),
    /// An owned string label (allocates; keep off hot paths).
    Owned(String),
}

impl LabelValue {
    /// Render the label value for export and sorting.
    pub fn render(&self) -> String {
        match self {
            LabelValue::U64(v) => v.to_string(),
            LabelValue::Str(s) => (*s).to_string(),
            LabelValue::Owned(s) => s.clone(),
        }
    }
}

impl From<u64> for LabelValue {
    fn from(v: u64) -> Self {
        LabelValue::U64(v)
    }
}

impl From<u32> for LabelValue {
    fn from(v: u32) -> Self {
        LabelValue::U64(v as u64)
    }
}

impl From<usize> for LabelValue {
    fn from(v: usize) -> Self {
        LabelValue::U64(v as u64)
    }
}

impl From<&'static str> for LabelValue {
    fn from(v: &'static str) -> Self {
        LabelValue::Str(v)
    }
}

impl From<String> for LabelValue {
    fn from(v: String) -> Self {
        LabelValue::Owned(v)
    }
}

/// A label set: up to [`MAX_LABELS`] `(name, value)` pairs.
pub type Labels = [(&'static str, LabelValue)];

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    name: &'static str,
    labels: [Option<(&'static str, LabelValue)>; MAX_LABELS],
}

impl Key {
    fn new(name: &'static str, labels: &Labels) -> Self {
        assert!(
            labels.len() <= MAX_LABELS,
            "metric {name}: at most {MAX_LABELS} labels"
        );
        let mut arr: [Option<(&'static str, LabelValue)>; MAX_LABELS] = [None, None, None];
        for (slot, pair) in arr.iter_mut().zip(labels.iter()) {
            *slot = Some(pair.clone());
        }
        Key { name, labels: arr }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// Histograms are boxed so the common counter/gauge cells stay small.
#[derive(Clone)]
enum CellValue {
    Counter(u64),
    Gauge(u64),
    Hist(Box<Histogram>),
}

#[derive(Clone)]
struct Cell {
    domain: Domain,
    value: CellValue,
}

/// The sharded metric store behind every enabled [`Metrics`] handle,
/// and reached only through one.
pub(crate) struct Registry {
    shards: Vec<Mutex<HashMap<Key, Cell>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn with_cell(
        &self,
        domain: Domain,
        key: Key,
        init: impl FnOnce() -> CellValue,
        f: impl FnOnce(&mut CellValue),
    ) {
        let shard = &self.shards[key.shard()];
        let mut map = shard.lock().expect("metrics shard poisoned");
        let cell = map.entry(key).or_insert_with(|| Cell {
            domain,
            value: init(),
        });
        f(&mut cell.value);
    }

    /// Add `v` to a monotonic counter.
    pub fn counter_add(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        self.with_cell(
            domain,
            Key::new(name, labels),
            || CellValue::Counter(0),
            |c| {
                if let CellValue::Counter(cur) = c {
                    *cur += v;
                }
            },
        );
    }

    /// Set a gauge to `v` (last-write-wins; prefer [`Registry::gauge_max`]
    /// for sim-domain metrics, where write order must not matter).
    pub fn gauge_set(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        self.with_cell(
            domain,
            Key::new(name, labels),
            || CellValue::Gauge(0),
            |c| {
                if let CellValue::Gauge(cur) = c {
                    *cur = v;
                }
            },
        );
    }

    /// Raise a gauge to at least `v` (a running peak; commutative).
    pub fn gauge_max(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        self.with_cell(
            domain,
            Key::new(name, labels),
            || CellValue::Gauge(0),
            |c| {
                if let CellValue::Gauge(cur) = c {
                    *cur = (*cur).max(v);
                }
            },
        );
    }

    /// Record one sample into a log₂ histogram.
    pub fn observe(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        self.with_cell(
            domain,
            Key::new(name, labels),
            || CellValue::Hist(Box::default()),
            |c| {
                if let CellValue::Hist(h) = c {
                    h.record(v);
                }
            },
        );
    }

    /// Merge a whole pre-built histogram into a histogram metric.
    pub fn observe_hist(&self, domain: Domain, name: &'static str, labels: &Labels, h: &Histogram) {
        self.with_cell(
            domain,
            Key::new(name, labels),
            || CellValue::Hist(Box::default()),
            |c| {
                if let CellValue::Hist(cur) = c {
                    cur.merge(h);
                }
            },
        );
    }

    /// A stable, sorted snapshot of every metric in the registry.
    pub fn snapshot(&self) -> Snapshot {
        let mut samples = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("metrics shard poisoned");
            for (key, cell) in map.iter() {
                let labels: Vec<(&'static str, String)> = key
                    .labels
                    .iter()
                    .flatten()
                    .map(|(n, v)| (*n, v.render()))
                    .collect();
                samples.push(Sample {
                    name: key.name,
                    labels,
                    domain: cell.domain,
                    value: match &cell.value {
                        CellValue::Counter(v) => SampleValue::Counter(*v),
                        CellValue::Gauge(v) => SampleValue::Gauge(*v),
                        CellValue::Hist(h) => SampleValue::Histogram(h.clone()),
                    },
                });
            }
        }
        samples.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        Snapshot { samples }
    }
}

/// The exported value of one metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge level (or peak, for `gauge_max` metrics).
    Gauge(u64),
    /// Full histogram state (boxed: scalar samples dominate snapshots).
    Histogram(Box<Histogram>),
}

/// One metric at snapshot time: name, rendered labels, domain, value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (Prometheus-compatible identifier).
    pub name: &'static str,
    /// Rendered `(label_name, label_value)` pairs, in declaration order.
    pub labels: Vec<(&'static str, String)>,
    /// Clock domain the metric derives from.
    pub domain: Domain,
    /// The value at snapshot time.
    pub value: SampleValue,
}

/// A point-in-time, canonically sorted view of a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Samples sorted by `(name, labels)` — byte-stable across runs.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Samples restricted to one domain (still sorted).
    pub fn domain(&self, domain: Domain) -> Snapshot {
        Snapshot {
            samples: self
                .samples
                .iter()
                .filter(|s| s.domain == domain)
                .cloned()
                .collect(),
        }
    }

    /// The deterministic subset: sim-domain samples only.
    pub fn sim_only(&self) -> Snapshot {
        self.domain(Domain::Sim)
    }

    /// Look up one sample by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|((an, av), (bn, bv))| an == bn && av == bv)
        })
    }

    /// Counter/gauge value by name + labels, if present and scalar.
    pub fn scalar(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels).map(|s| &s.value) {
            Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }
}

/// A cheap, cloneable handle to a registry — or to nothing.
///
/// Mirrors `cbft_trace::Tracer`: the disabled form is `None`, so every
/// recording call is a single branch when metrics are off. Instrumented
/// code holds a `Metrics` by value and never pays for allocation,
/// hashing, or locking unless a collector was installed.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl Metrics {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// A handle backed by a fresh private registry.
    pub fn new() -> Self {
        Metrics {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// Whether a collector is installed.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `v` to a counter. No-op when disabled.
    #[inline]
    pub fn add(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        if let Some(reg) = &self.inner {
            reg.counter_add(domain, name, labels, v);
        }
    }

    /// Set a gauge. No-op when disabled.
    #[inline]
    pub fn gauge_set(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        if let Some(reg) = &self.inner {
            reg.gauge_set(domain, name, labels, v);
        }
    }

    /// Raise a gauge to at least `v`. No-op when disabled.
    #[inline]
    pub fn gauge_max(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        if let Some(reg) = &self.inner {
            reg.gauge_max(domain, name, labels, v);
        }
    }

    /// Record a histogram sample. No-op when disabled.
    #[inline]
    pub fn observe(&self, domain: Domain, name: &'static str, labels: &Labels, v: u64) {
        if let Some(reg) = &self.inner {
            reg.observe(domain, name, labels, v);
        }
    }

    /// Merge a pre-built histogram. No-op when disabled.
    #[inline]
    pub fn observe_hist(&self, domain: Domain, name: &'static str, labels: &Labels, h: &Histogram) {
        if let Some(reg) = &self.inner {
            reg.observe_hist(domain, name, labels, h);
        }
    }

    /// Snapshot the backing registry (empty snapshot when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(reg) => reg.snapshot(),
            None => Snapshot::default(),
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let m = Metrics::new();
        m.add(Domain::Sim, "jobs_total", &[("replica", 1u64.into())], 2);
        m.add(Domain::Sim, "jobs_total", &[("replica", 1u64.into())], 3);
        m.gauge_max(Domain::Wall, "queue_peak", &[], 7);
        m.gauge_max(Domain::Wall, "queue_peak", &[], 4);
        m.observe(Domain::Sim, "lag_us", &[("key", "v0".into())], 100);
        let snap = m.snapshot();
        assert_eq!(snap.scalar("jobs_total", &[("replica", "1")]), Some(5));
        assert_eq!(snap.scalar("queue_peak", &[]), Some(7));
        let sim = snap.sim_only();
        assert_eq!(sim.samples.len(), 2);
        match &snap.get("lag_us", &[("key", "v0")]).unwrap().value {
            SampleValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        m.add(Domain::Sim, "x", &[], 1);
        assert!(m.snapshot().samples.is_empty());
    }

    #[test]
    fn snapshot_order_is_stable() {
        let m = Metrics::new();
        // Insert in scrambled order; snapshot must sort by (name, labels).
        m.add(Domain::Sim, "b_total", &[], 1);
        m.add(Domain::Sim, "a_total", &[("r", 2u64.into())], 1);
        m.add(Domain::Sim, "a_total", &[("r", 1u64.into())], 1);
        let names: Vec<String> = m
            .snapshot()
            .samples
            .iter()
            .map(|s| format!("{}{:?}", s.name, s.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
