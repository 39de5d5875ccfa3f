//! Merkle trees over sealed chunk digests.
//!
//! A flat chunk-digest vector localizes a divergence by linear scan: the
//! verifier walks the chunks of two replicas until it finds the first pair
//! that differs, O(n) comparisons for n chunks. Structuring the same chunk
//! digests as a hash tree turns that into a descent from the root — each
//! level halves the suspect range, so a single corrupted chunk is located
//! in O(log n) comparisons, and k corrupted chunks in O(k · log n). The
//! leaves are unchanged (still the sealed per-`d`-records digests of
//! [`crate::ChunkedDigest`]); the tree is pure derived structure, so two
//! trees are equal iff their leaf vectors are equal and comparing roots is
//! equivalent to comparing whole streams.
//!
//! Shape: adjacent pairs hash into their parent with [`Digest::combine`]
//! (`sha256(left ++ right)`); an odd trailing node is *carried up
//! unchanged* (Certificate-Transparency style), so every leaf count has a
//! well-defined tree and no padding digests are invented. Construction is
//! level-by-level bottom-up, and each level is a pure function of the one
//! below ([`parent_level`]).

use serde::{Deserialize, Serialize};

use crate::Digest;

/// A Merkle (hash) tree over an ordered sequence of leaf digests.
///
/// # Examples
///
/// ```
/// use cbft_digest::{Digest, MerkleTree};
///
/// let leaves: Vec<Digest> = (0..5u8).map(|i| Digest::of(&[i])).collect();
/// let tree = MerkleTree::build(leaves.clone());
/// assert_eq!(tree.leaf_count(), 5);
///
/// let mut tampered = leaves;
/// tampered[3] = Digest::of(b"tampered");
/// let diff = tree.diff(&MerkleTree::build(tampered));
/// assert_eq!(diff.leaves, vec![3]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleTree {
    /// `levels[0]` is the leaves; each following level hashes the previous
    /// one via [`parent_level`]; the last level is the single root (for a
    /// non-empty tree).
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds the tree bottom-up with [`parent_level`].
    pub fn build(leaves: Vec<Digest>) -> Self {
        let mut levels = vec![leaves];
        while levels.last().expect("levels never empty").len() > 1 {
            let next = parent_level(levels.last().unwrap());
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The leaf digests, in order.
    pub fn leaves(&self) -> &[Digest] {
        &self.levels[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Number of levels, counting the leaves (0 leaves → 1 trivial level).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The root digest, or `None` for an empty tree.
    pub fn root(&self) -> Option<Digest> {
        self.levels.last().and_then(|l| l.first()).copied()
    }

    /// Locates every leaf whose digest differs between `self` and `other`
    /// by descending from the roots and pruning identical subtrees.
    ///
    /// Returns the differing leaf indices in ascending order plus the
    /// number of node comparisons performed — O(k · log n) for k differing
    /// leaves out of n, the quantity the `mismatch_localization` bench
    /// measures against the linear scan's O(n).
    ///
    /// # Panics
    ///
    /// Panics if the trees have different leaf counts; streams with
    /// different chunk counts diverge by length and are compared linearly
    /// over the common prefix by the caller instead.
    pub fn diff(&self, other: &MerkleTree) -> MerkleDiff {
        assert_eq!(
            self.leaf_count(),
            other.leaf_count(),
            "Merkle diff requires equal leaf counts"
        );
        let mut out = MerkleDiff {
            leaves: Vec::new(),
            comparisons: 0,
        };
        if self.leaf_count() > 0 {
            self.descend(other, self.levels.len() - 1, 0, &mut out);
        }
        out
    }

    fn descend(&self, other: &MerkleTree, level: usize, index: usize, out: &mut MerkleDiff) {
        out.comparisons += 1;
        if self.levels[level][index] == other.levels[level][index] {
            return;
        }
        if level == 0 {
            out.leaves.push(index);
            return;
        }
        // Parent `index` covers children 2i and 2i+1; a carried odd node
        // has only the left child (whose digest it copies).
        let left = 2 * index;
        self.descend(other, level - 1, left, out);
        if left + 1 < self.levels[level - 1].len() {
            self.descend(other, level - 1, left + 1, out);
        }
    }
}

/// Outcome of [`MerkleTree::diff`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleDiff {
    /// Indices of the differing leaves, ascending.
    pub leaves: Vec<usize>,
    /// Node comparisons performed during the descent.
    pub comparisons: usize,
}

/// Hashes one level into its parents: adjacent pairs combine via
/// [`Digest::combine`]; an odd trailing node is carried up unchanged.
pub fn parent_level(level: &[Digest]) -> Vec<Digest> {
    level
        .chunks(2)
        .map(|pair| match pair {
            [left, right] => left.combine(right),
            _ => pair[0],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| Digest::of(&(i as u64).to_be_bytes()))
            .collect()
    }

    #[test]
    fn shapes_and_roots() {
        assert_eq!(MerkleTree::build(vec![]).root(), None);
        assert_eq!(MerkleTree::build(vec![]).depth(), 1);

        let one = leaves(1);
        let t1 = MerkleTree::build(one.clone());
        assert_eq!(t1.root(), Some(one[0]));
        assert_eq!(t1.depth(), 1);

        let two = leaves(2);
        let t2 = MerkleTree::build(two.clone());
        assert_eq!(t2.root(), Some(two[0].combine(&two[1])));

        // Odd count: the trailing leaf is carried up unchanged.
        let three = leaves(3);
        let t3 = MerkleTree::build(three.clone());
        assert_eq!(
            t3.root(),
            Some(three[0].combine(&three[1]).combine(&three[2]))
        );
        assert_eq!(t3.depth(), 3);
    }

    #[test]
    fn root_is_injective_in_the_leaves() {
        let a = MerkleTree::build(leaves(7));
        let mut tampered = leaves(7);
        tampered[4] = Digest::of(b"tampered");
        let b = MerkleTree::build(tampered);
        assert_ne!(a.root(), b.root());
        assert_eq!(a.root(), MerkleTree::build(leaves(7)).root());
    }

    #[test]
    fn diff_localizes_single_corruption() {
        for n in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            for bad in [0, n / 2, n - 1] {
                let good = MerkleTree::build(leaves(n));
                let mut l = leaves(n);
                l[bad] = Digest::of(b"corrupt");
                let evil = MerkleTree::build(l);
                let diff = good.diff(&evil);
                assert_eq!(diff.leaves, vec![bad], "n={n} bad={bad}");
            }
        }
    }

    #[test]
    fn diff_finds_multiple_corruptions_in_order() {
        let mut l = leaves(32);
        l[3] = Digest::of(b"x");
        l[17] = Digest::of(b"y");
        l[31] = Digest::of(b"z");
        let diff = MerkleTree::build(leaves(32)).diff(&MerkleTree::build(l));
        assert_eq!(diff.leaves, vec![3, 17, 31]);
    }

    #[test]
    fn diff_of_equal_trees_is_one_comparison() {
        let t = MerkleTree::build(leaves(1000));
        let d = t.diff(&t.clone());
        assert!(d.leaves.is_empty());
        assert_eq!(d.comparisons, 1, "equal roots prune the whole tree");
    }

    #[test]
    fn descent_is_logarithmic_for_single_corruption() {
        // One corrupt leaf out of 4096: the descent visits at most two
        // children per level on the divergent path.
        let n = 4096;
        let mut l = leaves(n);
        l[2718] = Digest::of(b"corrupt");
        let diff = MerkleTree::build(leaves(n)).diff(&MerkleTree::build(l));
        assert_eq!(diff.leaves, vec![2718]);
        let depth = MerkleTree::build(leaves(n)).depth();
        assert!(
            diff.comparisons <= 2 * depth,
            "{} comparisons for depth {depth}",
            diff.comparisons
        );
        assert!(diff.comparisons < n / 10, "descent must beat linear scan");
    }

    #[test]
    #[should_panic(expected = "equal leaf counts")]
    fn diff_rejects_different_leaf_counts() {
        let _ = MerkleTree::build(leaves(3)).diff(&MerkleTree::build(leaves(4)));
    }
}
