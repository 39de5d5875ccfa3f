//! Fault identification and isolation — the fault analyzer of Fig. 7.
//!
//! Every replicated job that returns a commission fault implicates its
//! whole *job cluster* (the set of nodes that executed its tasks): at
//! least one of them is faulty, but which one is initially unknown. The
//! analyzer narrows this down across observations:
//!
//! * **Stage 1** maintains `D`, a family of pairwise-disjoint suspect
//!   sets — each known to contain at least one distinct faulty node. A new
//!   faulty cluster `S` disjoint from all of `D` founds a new set; an `S`
//!   contained in some `Y ∈ D` *refines* it (replacing `Y`, which moves to
//!   the overlap pool `O`); anything else joins `O`.
//! * **Stage 2** runs once `|D| = f`: the system tolerates at most `f`
//!   simultaneous faults, so each set in `D` contains *exactly one* faulty
//!   node and every faulty node lies in `⋃D`. Any observed faulty cluster
//!   `Y ∈ O` intersecting exactly one `X ∈ D` must owe its fault to a node
//!   in `X ∩ Y`, so `X` narrows to the intersection. We iterate to a fixed
//!   point (each narrowing can enable further ones), which is sound for
//!   the same reason each single step is.
//!
//! The published pseudo-code (Fig. 7) is OCR-garbled; this implementation
//! follows the paper's stated intuition, and the property tests assert the
//! key soundness invariant: *a genuinely faulty node is never excluded
//! from its suspect set*.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::NodeId;

/// The fault analyzer state (Fig. 7).
///
/// # Examples
///
/// ```
/// use cbft_verify::{FaultAnalyzer, NodeId};
/// use std::collections::BTreeSet;
///
/// let mut fa = FaultAnalyzer::new(1);
/// fa.observe_faulty_cluster([1, 2, 3].map(NodeId).into_iter().collect::<BTreeSet<_>>());
/// fa.observe_faulty_cluster([3, 4].map(NodeId).into_iter().collect::<BTreeSet<_>>());
/// // |D| = f = 1, and {3,4} ∩ {1,2,3} = {3}: node 3 is the suspect.
/// assert_eq!(fa.suspects(), vec![[NodeId(3)].into_iter().collect()]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultAnalyzer {
    f: usize,
    disjoint: Vec<BTreeSet<NodeId>>,
    overlapping: Vec<BTreeSet<NodeId>>,
    observations: u64,
}

impl FaultAnalyzer {
    /// Creates an analyzer for at most `f` simultaneous faults.
    ///
    /// # Panics
    ///
    /// Panics when `f == 0` (nothing to isolate).
    pub fn new(f: usize) -> Self {
        assert!(f > 0, "fault analyzer needs f >= 1");
        FaultAnalyzer {
            f,
            disjoint: Vec::new(),
            overlapping: Vec::new(),
            observations: 0,
        }
    }

    /// Number of faulty clusters observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feeds one faulty job cluster (the node set of a replica whose
    /// digests failed verification).
    pub fn observe_faulty_cluster(&mut self, cluster: BTreeSet<NodeId>) {
        if cluster.is_empty() {
            return;
        }
        self.observations += 1;

        // Stage 1. Once |D| = f every fault already lives in ⋃D, so a
        // cluster disjoint from all of D cannot found a new region (it
        // would imply an f+1-th fault); it joins the overlap pool instead.
        if self.disjoint.iter().all(|x| x.is_disjoint(&cluster)) {
            if self.disjoint.len() < self.f {
                self.disjoint.push(cluster);
            } else {
                self.overlapping.push(cluster);
            }
        } else if let Some(i) = self.disjoint.iter().position(|y| cluster.is_subset(y)) {
            if self.disjoint[i] != cluster {
                let old = std::mem::replace(&mut self.disjoint[i], cluster);
                self.overlapping.push(old);
            }
        } else {
            self.overlapping.push(cluster);
        }

        // Stage 2: narrow by intersection once |D| = f.
        if self.disjoint.len() == self.f {
            self.narrow_to_fixpoint();
        }
    }

    fn narrow_to_fixpoint(&mut self) {
        loop {
            let mut changed = false;
            for y in &self.overlapping {
                let hits: Vec<usize> = self
                    .disjoint
                    .iter()
                    .enumerate()
                    .filter(|(_, x)| !x.is_disjoint(y))
                    .map(|(i, _)| i)
                    .collect();
                if let [only] = hits.as_slice() {
                    let narrowed: BTreeSet<NodeId> =
                        self.disjoint[*only].intersection(y).copied().collect();
                    if narrowed.len() < self.disjoint[*only].len() {
                        self.disjoint[*only] = narrowed;
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The current disjoint suspect sets `D` (each contains at least one
    /// faulty node; once [`FaultAnalyzer::converged`], exactly one).
    pub fn suspects(&self) -> Vec<BTreeSet<NodeId>> {
        self.disjoint.clone()
    }

    /// All currently suspected nodes (the union of `D`).
    pub fn suspected_nodes(&self) -> BTreeSet<NodeId> {
        self.disjoint.iter().flatten().copied().collect()
    }

    /// True once `|D| = f`: the suspect count stops growing (§6.3 measures
    /// the number of jobs needed to reach this point, Fig. 11).
    pub fn converged(&self) -> bool {
        self.disjoint.len() == self.f
    }

    /// Nodes isolated down to a singleton suspect set — these are known
    /// faulty (given the fault-bound assumption).
    pub fn isolated_faulty_nodes(&self) -> Vec<NodeId> {
        self.disjoint
            .iter()
            .filter(|s| s.len() == 1)
            .flat_map(|s| s.iter().copied())
            .collect()
    }

    /// Forgets everything about `node` — the administrator re-initialized
    /// it (§4.2), so past evidence no longer applies. Suspect sets that
    /// become empty are dropped (the fault they tracked was the patched
    /// node).
    pub fn clear_node(&mut self, node: NodeId) {
        for set in self.disjoint.iter_mut().chain(self.overlapping.iter_mut()) {
            set.remove(&node);
        }
        self.disjoint.retain(|s| !s.is_empty());
        self.overlapping.retain(|s| !s.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(nodes: &[usize]) -> BTreeSet<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn first_cluster_founds_d() {
        let mut fa = FaultAnalyzer::new(2);
        fa.observe_faulty_cluster(set(&[1, 2, 3]));
        assert_eq!(fa.suspects(), vec![set(&[1, 2, 3])]);
        assert!(!fa.converged());
    }

    #[test]
    fn disjoint_clusters_accumulate() {
        let mut fa = FaultAnalyzer::new(2);
        fa.observe_faulty_cluster(set(&[1, 2]));
        fa.observe_faulty_cluster(set(&[5, 6]));
        assert_eq!(fa.suspects().len(), 2);
        assert!(fa.converged());
    }

    #[test]
    fn subset_refines_in_place() {
        let mut fa = FaultAnalyzer::new(2);
        fa.observe_faulty_cluster(set(&[1, 2, 3, 4]));
        fa.observe_faulty_cluster(set(&[2, 3]));
        assert_eq!(fa.suspects(), vec![set(&[2, 3])]);
    }

    #[test]
    fn intersection_narrows_after_convergence() {
        let mut fa = FaultAnalyzer::new(1);
        fa.observe_faulty_cluster(set(&[1, 2, 3]));
        assert!(fa.converged());
        fa.observe_faulty_cluster(set(&[3, 4, 5]));
        assert_eq!(fa.suspects(), vec![set(&[3])]);
        assert_eq!(fa.isolated_faulty_nodes(), vec![NodeId(3)]);
    }

    #[test]
    fn overlap_with_two_sets_does_not_narrow() {
        let mut fa = FaultAnalyzer::new(2);
        fa.observe_faulty_cluster(set(&[1, 2]));
        fa.observe_faulty_cluster(set(&[5, 6]));
        // Touches both disjoint sets: no information about which.
        fa.observe_faulty_cluster(set(&[2, 5]));
        assert_eq!(fa.suspects(), vec![set(&[1, 2]), set(&[5, 6])]);
    }

    #[test]
    fn fixpoint_cascades() {
        let mut fa = FaultAnalyzer::new(2);
        // Overlap arrives BEFORE convergence; once |D| = 2, stage 2 must
        // revisit it.
        fa.observe_faulty_cluster(set(&[1, 2]));
        fa.observe_faulty_cluster(set(&[2, 3])); // overlaps, goes to O
        fa.observe_faulty_cluster(set(&[7, 8])); // |D| = 2 → narrow
                                                 // {2,3} hits only {1,2} → {2}.
        assert!(fa.suspects().contains(&set(&[2])));
        assert_eq!(fa.isolated_faulty_nodes(), vec![NodeId(2)]);
    }

    #[test]
    fn faulty_node_never_leaves_its_suspect_set() {
        // Soundness under the paper's model: clusters containing the true
        // faulty node (here node 42) can never narrow it away.
        let mut fa = FaultAnalyzer::new(1);
        let clusters = [
            set(&[42, 1, 2, 3]),
            set(&[42, 4, 5]),
            set(&[42, 2, 6]),
            set(&[42, 7]),
        ];
        for c in clusters {
            fa.observe_faulty_cluster(c);
            assert!(
                fa.suspected_nodes().contains(&NodeId(42)),
                "42 must stay suspected"
            );
        }
        assert_eq!(fa.isolated_faulty_nodes(), vec![NodeId(42)]);
    }

    #[test]
    fn empty_cluster_is_ignored() {
        let mut fa = FaultAnalyzer::new(1);
        fa.observe_faulty_cluster(BTreeSet::new());
        assert_eq!(fa.observations(), 0);
        assert!(fa.suspects().is_empty());
    }

    #[test]
    #[should_panic(expected = "f >= 1")]
    fn zero_fault_bound_panics() {
        let _ = FaultAnalyzer::new(0);
    }

    #[test]
    fn duplicate_cluster_is_stable() {
        let mut fa = FaultAnalyzer::new(1);
        fa.observe_faulty_cluster(set(&[1, 2]));
        fa.observe_faulty_cluster(set(&[1, 2]));
        assert_eq!(fa.suspects(), vec![set(&[1, 2])]);
    }
}

#[cfg(test)]
mod clear_tests {
    use super::*;

    fn set(nodes: &[usize]) -> BTreeSet<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn clearing_a_node_drops_empty_sets_and_deconverges() {
        let mut fa = FaultAnalyzer::new(1);
        fa.observe_faulty_cluster(set(&[1, 2]));
        fa.observe_faulty_cluster(set(&[2, 3]));
        assert_eq!(fa.isolated_faulty_nodes(), vec![NodeId(2)]);
        fa.clear_node(NodeId(2));
        assert!(fa.suspects().is_empty(), "patched node's set vanishes");
        assert!(!fa.converged());
        // Fresh evidence starts a new suspect set normally.
        fa.observe_faulty_cluster(set(&[4, 5]));
        assert_eq!(fa.suspects(), vec![set(&[4, 5])]);
    }

    #[test]
    fn clearing_leaves_other_suspects_alone() {
        let mut fa = FaultAnalyzer::new(2);
        fa.observe_faulty_cluster(set(&[1, 2]));
        fa.observe_faulty_cluster(set(&[5, 6]));
        fa.clear_node(NodeId(1));
        assert_eq!(fa.suspects(), vec![set(&[2]), set(&[5, 6])]);
    }
}
