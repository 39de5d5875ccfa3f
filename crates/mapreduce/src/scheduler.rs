//! Task-placement policies.
//!
//! The engine enforces the *hard* constraints (replica disjointness, node
//! exclusion) and presents the remaining candidates to a [`Scheduler`],
//! which expresses policy. [`FifoScheduler`] mirrors Hadoop's default
//! queue; [`OverlapScheduler`] implements the paper's placement (§4.2):
//! *"The scheduling strategy we use is to cause as many intersections as
//! there are resource units in a node ... if one node has three resource
//! units, we try to pick tasks from three different jobs"* — overlapping
//! job clusters is what powers fault isolation.
//!
//! Schedulers run strictly *before* payload dispatch: the engine draws the
//! task's fate and picks its slot here, then hands the pure payload to the
//! [compute pool](crate::compute). Placement therefore never observes pool
//! size or host-thread timing, which is half of the determinism argument
//! of DESIGN.md §5b "The compute pool" (the simulation owns time, the
//! pool owns compute).

use std::collections::BTreeSet;

use crate::fault::NodeId;
use crate::spec::{RunHandle, TaskKind};

/// One schedulable task, offered to the scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskChoice {
    /// The run the task belongs to.
    pub handle: RunHandle,
    /// The run's sub-graph id.
    pub sid: String,
    /// The run's replica index.
    pub replica: usize,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within its phase.
    pub task_index: usize,
    /// Whether the task's input split lives on the offered node (map
    /// tasks only; reduces are never local).
    pub local: bool,
}

/// Context for a scheduling decision on one heartbeat.
#[derive(Clone, Debug)]
pub struct SchedContext {
    /// The node asking for work.
    pub node: NodeId,
    /// Free slots on the node.
    pub free_slots: usize,
    /// Sub-graph ids that already have (or had) tasks on this node.
    pub sids_on_node: BTreeSet<String>,
}

/// A task-placement policy.
///
/// Returns indices into `candidates`, at most `ctx.free_slots` of them,
/// without duplicates — the engine truncates and deduplicates defensively.
pub trait Scheduler: Send {
    /// Picks which candidate tasks to place on the heartbeating node.
    fn pick(&mut self, ctx: &SchedContext, candidates: &[TaskChoice]) -> Vec<usize>;
}

/// First-come-first-served placement (Hadoop's default FIFO queue).
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, ctx: &SchedContext, candidates: &[TaskChoice]) -> Vec<usize> {
        (0..candidates.len().min(ctx.free_slots)).collect()
    }
}

/// The paper's intersection-maximizing placement: prefer tasks whose
/// sub-graph is *not* yet represented on the node, then spread the node's
/// slots across as many distinct sub-graphs as possible.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverlapScheduler;

impl Scheduler for OverlapScheduler {
    fn pick(&mut self, ctx: &SchedContext, candidates: &[TaskChoice]) -> Vec<usize> {
        let mut picked = Vec::new();
        let mut sids_here: BTreeSet<String> = ctx.sids_on_node.clone();
        let mut taken = vec![false; candidates.len()];

        // Pass 1: one task from each sid not yet on the node, preferring
        // the sid's data-local candidate when it has one (§4.2 pursues
        // both goals: locality for speed, intersections for isolation).
        for (i, c) in candidates.iter().enumerate() {
            if picked.len() == ctx.free_slots {
                return picked;
            }
            if sids_here.contains(&c.sid) || taken[i] {
                continue;
            }
            // Prefer a data-local task — but only within the same
            // (sid, replica) group: searching across replicas would latch
            // every node onto whichever replica started first (its pending
            // tasks cluster early in the interleaved candidate order).
            let chosen = candidates
                .iter()
                .enumerate()
                .filter(|(j, d)| !taken[*j] && d.sid == c.sid && d.replica == c.replica && d.local)
                .map(|(j, _)| j)
                .next()
                .unwrap_or(i);
            sids_here.insert(c.sid.clone());
            taken[chosen] = true;
            picked.push(chosen);
        }
        // Pass 2: fill remaining slots, local tasks first, then FIFO.
        for pass_local in [true, false] {
            for (i, c) in candidates.iter().enumerate() {
                if picked.len() == ctx.free_slots {
                    return picked;
                }
                if !taken[i] && c.local == pass_local {
                    taken[i] = true;
                    picked.push(i);
                }
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn choice(sid: &str, idx: usize) -> TaskChoice {
        TaskChoice {
            handle: RunHandle(0),
            sid: sid.to_owned(),
            replica: 0,
            kind: TaskKind::Map,
            task_index: idx,
            local: false,
        }
    }

    pub(super) fn local_choice(sid: &str, idx: usize) -> TaskChoice {
        TaskChoice {
            local: true,
            ..choice(sid, idx)
        }
    }

    pub(super) fn ctx(free: usize, sids: &[&str]) -> SchedContext {
        SchedContext {
            node: NodeId(0),
            free_slots: free,
            sids_on_node: sids.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    #[test]
    fn fifo_takes_first_n() {
        let cands = vec![choice("a", 0), choice("a", 1), choice("b", 0)];
        let picks = FifoScheduler.pick(&ctx(2, &[]), &cands);
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn fifo_respects_free_slots() {
        let cands = vec![choice("a", 0)];
        assert_eq!(
            FifoScheduler.pick(&ctx(0, &[]), &cands),
            Vec::<usize>::new()
        );
        assert_eq!(FifoScheduler.pick(&ctx(5, &[]), &cands), vec![0]);
    }

    #[test]
    fn overlap_spreads_across_sids() {
        let cands = vec![
            choice("a", 0),
            choice("a", 1),
            choice("b", 0),
            choice("c", 0),
        ];
        let picks = OverlapScheduler.pick(&ctx(3, &[]), &cands);
        let sids: Vec<&str> = picks.iter().map(|&i| cands[i].sid.as_str()).collect();
        assert_eq!(
            sids,
            vec!["a", "b", "c"],
            "three slots, three distinct jobs"
        );
    }

    #[test]
    fn overlap_prefers_new_sids_over_resident_ones() {
        let cands = vec![choice("resident", 0), choice("fresh", 0)];
        let picks = OverlapScheduler.pick(&ctx(1, &["resident"]), &cands);
        assert_eq!(cands[picks[0]].sid, "fresh");
    }

    #[test]
    fn overlap_fills_remaining_slots_fifo() {
        let cands = vec![choice("a", 0), choice("a", 1), choice("a", 2)];
        let picks = OverlapScheduler.pick(&ctx(2, &[]), &cands);
        assert_eq!(picks.len(), 2, "same sid still fills leftover slots");
    }
}

#[cfg(test)]
mod locality_tests {
    use super::tests::*;
    use super::*;

    #[test]
    fn overlap_prefers_local_candidate_within_a_sid() {
        let cands = vec![choice("a", 0), local_choice("a", 1), choice("b", 0)];
        let picks = OverlapScheduler.pick(&ctx(2, &[]), &cands);
        assert!(
            picks.contains(&1),
            "the local copy of sid a wins: {picks:?}"
        );
        assert!(picks.contains(&2), "sid b still gets its slot");
    }

    #[test]
    fn overlap_fills_leftover_slots_local_first() {
        let cands = vec![
            choice("a", 0),
            choice("a", 1),
            local_choice("a", 2),
            local_choice("a", 3),
        ];
        let picks = OverlapScheduler.pick(&ctx(3, &[]), &cands);
        assert_eq!(picks.len(), 3);
        assert!(picks.contains(&2) && picks.contains(&3), "{picks:?}");
    }
}
