//! Per-node suspicion levels.
//!
//! §4.1: *"The suspicion level of a node is defined as total number of
//! faults associated with the node divided by the total number of jobs
//! executed on the node."* §6.3 buckets levels into Low (0, 0.33],
//! Med (0.33, 0.66] and High (0.66, 1] for Figs. 12–13.

use std::collections::BTreeMap;

use cbft_trace::{TraceEvent, Tracer, COORDINATOR_PID};
use serde::{Deserialize, Serialize};

use crate::NodeId;

/// Suspicion bucket used in the paper's Figs. 12–13.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SuspicionBand {
    /// `s == 0` (or no data).
    None,
    /// `0 < s ≤ 0.33`.
    Low,
    /// `0.33 < s ≤ 0.66`.
    Med,
    /// `0.66 < s`.
    High,
}

impl SuspicionBand {
    /// Band rank, 0 (`None`) through 3 (`High`).
    pub fn rank(self) -> u64 {
        match self {
            SuspicionBand::None => 0,
            SuspicionBand::Low => 1,
            SuspicionBand::Med => 2,
            SuspicionBand::High => 3,
        }
    }

    /// Stable lowercase band name, matching `cbft_metrics::BAND_NAMES`.
    pub fn name(self) -> &'static str {
        match self {
            SuspicionBand::None => "none",
            SuspicionBand::Low => "low",
            SuspicionBand::Med => "med",
            SuspicionBand::High => "high",
        }
    }
}

/// What one record call did to one node: its band before and after,
/// and the evidence (jobs, faults) behind the band after.
#[derive(Clone, Copy, Debug)]
struct BandUpdate {
    node: NodeId,
    from: SuspicionBand,
    to: SuspicionBand,
    jobs: u64,
    faults: u64,
}

/// The band updates of one record call, one per node named, in order.
#[derive(Clone, Debug, Default)]
pub struct BandUpdates(Vec<BandUpdate>);

impl BandUpdates {
    /// Emits one canonical `suspicion` instant per update on the
    /// coordinator track, band names and evidence as args: the events
    /// the metrics fold turns into band transitions and band gauges.
    /// Callers run on the coordinator in sim order, so the events are
    /// sim-deterministic.
    pub fn emit(self, tracer: &Tracer) {
        if !tracer.enabled() {
            return;
        }
        for u in self.0 {
            tracer.emit(
                TraceEvent::instant("suspicion", "control")
                    .on(COORDINATOR_PID, 0)
                    .arg("node", u.node.0)
                    .arg("from", u.from.name())
                    .arg("to", u.to.name())
                    .arg("jobs", u.jobs)
                    .arg("faults", u.faults),
            );
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct NodeStats {
    faults: u64,
    jobs: u64,
}

/// Tracks per-node job and fault counts and derives suspicion levels.
///
/// # Examples
///
/// ```
/// use cbft_verify::{NodeId, SuspicionBand, SuspicionTable};
///
/// let mut table = SuspicionTable::new();
/// table.record_jobs([NodeId(0), NodeId(1)]);
/// table.record_faults([NodeId(1)]);
/// assert_eq!(table.level(NodeId(0)), 0.0);
/// assert_eq!(table.level(NodeId(1)), 1.0);
/// assert_eq!(table.band(NodeId(1)), SuspicionBand::High);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuspicionTable {
    stats: BTreeMap<NodeId, NodeStats>,
}

impl SuspicionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a job (cluster) executed on `nodes`.
    pub fn record_jobs(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> BandUpdates {
        self.record(nodes, |s| s.jobs += 1)
    }

    /// Records that a faulty job cluster involved `nodes`.
    ///
    /// Fault counts are capped at the job count so `s` stays in `[0, 1]`
    /// (a node cannot be more suspicious than "every job it touched was
    /// faulty"). A fault observed on a node with no recorded job implies
    /// the node *did* run something, so the job count is raised to one —
    /// previously such evidence was stored as `faults = 1, jobs = 0`,
    /// which `level()` rendered as `0.0`, hiding the fault until an
    /// unrelated job landed on the node.
    pub fn record_faults(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> BandUpdates {
        self.record(nodes, |s| {
            s.jobs = s.jobs.max(1);
            s.faults = (s.faults + 1).min(s.jobs);
        })
    }

    fn record(
        &mut self,
        nodes: impl IntoIterator<Item = NodeId>,
        update: impl Fn(&mut NodeStats),
    ) -> BandUpdates {
        let updates = nodes
            .into_iter()
            .map(|node| {
                let from = self.band(node);
                let stats = self.stats.entry(node).or_default();
                update(stats);
                let NodeStats { jobs, faults } = *stats;
                BandUpdate {
                    node,
                    from,
                    to: self.band(node),
                    jobs,
                    faults,
                }
            })
            .collect();
        BandUpdates(updates)
    }

    /// The suspicion level `s = faults / jobs` (0 when the node has run
    /// nothing).
    pub fn level(&self, node: NodeId) -> f64 {
        match self.stats.get(&node) {
            Some(s) if s.jobs > 0 => s.faults as f64 / s.jobs as f64,
            _ => 0.0,
        }
    }

    /// The node's suspicion band.
    pub fn band(&self, node: NodeId) -> SuspicionBand {
        let s = self.level(node);
        if s <= 0.0 {
            SuspicionBand::None
        } else if s <= 1.0 / 3.0 {
            SuspicionBand::Low
        } else if s <= 2.0 / 3.0 {
            SuspicionBand::Med
        } else {
            SuspicionBand::High
        }
    }

    /// Nodes whose suspicion level strictly exceeds `threshold` — the
    /// resource manager removes these from its inclusion list (§4.2).
    ///
    /// `min_jobs` guards against evidence-free exclusion: a node whose
    /// single job happened to sit in a mismatched cluster would otherwise
    /// jump straight to `s = 1`.
    pub fn over_threshold(&self, threshold: f64, min_jobs: u64) -> Vec<NodeId> {
        self.stats
            .iter()
            .filter(|(_, s)| s.jobs >= min_jobs)
            .map(|(&n, _)| n)
            .filter(|&n| self.level(n) > threshold)
            .collect()
    }

    /// Counts of nodes per band, for Figs. 12–13.
    pub fn band_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::from([("none", 0), ("low", 0), ("med", 0), ("high", 0)]);
        for &n in self.stats.keys() {
            *out.get_mut(self.band(n).name()).expect("preseeded") += 1;
        }
        out
    }

    /// All nodes with any recorded activity.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.stats.keys().copied()
    }

    /// Forgets a node's history — used when the administrator
    /// re-initializes it (§4.2).
    pub fn reset_node(&mut self, node: NodeId) {
        self.stats.remove(&node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_fault_ratio() {
        let mut t = SuspicionTable::new();
        for _ in 0..4 {
            t.record_jobs([NodeId(7)]);
        }
        t.record_faults([NodeId(7)]);
        assert!((t.level(NodeId(7)) - 0.25).abs() < 1e-9);
        assert_eq!(t.band(NodeId(7)), SuspicionBand::Low);
    }

    #[test]
    fn bands_partition_the_range() {
        let mut t = SuspicionTable::new();
        // node 0: 0/3, node 1: 1/3, node 2: 2/3, node 3: 3/3
        for n in 0..4u64 {
            for _ in 0..3 {
                t.record_jobs([NodeId(n as usize)]);
            }
            for _ in 0..n {
                t.record_faults([NodeId(n as usize)]);
            }
        }
        assert_eq!(t.band(NodeId(0)), SuspicionBand::None);
        assert_eq!(t.band(NodeId(1)), SuspicionBand::Low);
        assert_eq!(t.band(NodeId(2)), SuspicionBand::Med);
        assert_eq!(t.band(NodeId(3)), SuspicionBand::High);
        let counts = t.band_counts();
        assert_eq!(counts["none"], 1);
        assert_eq!(counts["low"], 1);
        assert_eq!(counts["med"], 1);
        assert_eq!(counts["high"], 1);
    }

    #[test]
    fn faults_never_exceed_jobs() {
        let mut t = SuspicionTable::new();
        t.record_jobs([NodeId(0)]);
        t.record_faults([NodeId(0)]);
        t.record_faults([NodeId(0)]);
        assert!(t.level(NodeId(0)) <= 1.0);
    }

    #[test]
    fn threshold_exclusion() {
        let mut t = SuspicionTable::new();
        t.record_jobs([NodeId(0), NodeId(1)]);
        t.record_faults([NodeId(1)]);
        assert_eq!(t.over_threshold(0.9, 1), vec![NodeId(1)]);
        assert!(t.over_threshold(1.0, 1).is_empty());
        assert!(
            t.over_threshold(0.9, 2).is_empty(),
            "one observation is not enough evidence"
        );
    }

    #[test]
    fn unknown_node_is_unsuspicious() {
        let t = SuspicionTable::new();
        assert_eq!(t.level(NodeId(99)), 0.0);
        assert_eq!(t.band(NodeId(99)), SuspicionBand::None);
    }

    #[test]
    fn fault_without_prior_job_is_visible() {
        // Regression: a timeout can charge nodes before any job was
        // recorded for them; the evidence used to be stored as
        // faults=1/jobs=0, which level() showed as 0.0.
        let mut t = SuspicionTable::new();
        t.record_faults([NodeId(5)]);
        assert_eq!(t.level(NodeId(5)), 1.0);
        assert_eq!(t.band(NodeId(5)), SuspicionBand::High);
        // The implied job participates in later ratios: one more clean
        // job halves the level rather than resetting history.
        t.record_jobs([NodeId(5)]);
        assert!((t.level(NodeId(5)) - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod reset_tests {
    use super::*;

    #[test]
    fn reset_forgets_history() {
        let mut t = SuspicionTable::new();
        t.record_jobs([NodeId(3)]);
        t.record_faults([NodeId(3)]);
        assert_eq!(t.level(NodeId(3)), 1.0);
        t.reset_node(NodeId(3));
        assert_eq!(t.level(NodeId(3)), 0.0);
        assert_eq!(t.nodes().count(), 0);
    }
}
