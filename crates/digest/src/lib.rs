//! Digest primitives for ClusterBFT verification points.
//!
//! ClusterBFT (Middleware 2013) verifies replicated data-flow sub-graphs by
//! comparing *digests* of the data streaming through chosen verification
//! points instead of comparing the (potentially huge) outputs themselves.
//! This crate provides the two building blocks:
//!
//! * [`Sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation (the
//!   paper's prototype uses SHA-256 inside a modified Penny agent), plus the
//!   convenience type [`Digest`].
//! * [`ChunkedDigest`] — the *approximate, offline redundancy* mechanism of
//!   §3.3/§6.4: one digest per `d` records so the verifier can compare
//!   prefixes of a stream before the sub-job completes, and so accuracy can
//!   be traded against verification cost.
//!
//! # Examples
//!
//! ```
//! use cbft_digest::{Digest, Sha256};
//!
//! let a = Digest::of(b"assured data analysis");
//! let mut h = Sha256::new();
//! h.update(b"assured ");
//! h.update(b"data analysis");
//! assert_eq!(a, h.finish());
//! ```

// Unsafe is denied crate-wide; the single exception is the runtime-gated
// SHA-NI module in `sha256`, which opts back in locally for the CPU
// intrinsics (see `sha256::ni`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chunked;
mod merkle;
mod sha256;

pub use chunked::{ChunkedDigest, ChunkedSummary, MismatchRange, StreamVerdict};
pub use merkle::{parent_level, MerkleDiff, MerkleTree};
pub use sha256::{hardware_accelerated, Digest, ParseDigestError, Sha256};

/// Compares a set of digests and reports whether at least `f + 1` of them
/// agree, as required by the ClusterBFT verifier (§4.1: "the verifier
/// compares corresponding digests from different replicas and asserts that
/// at least f + 1 are same").
///
/// Returns the winning digest when a quorum of `f + 1` identical digests
/// exists, and `None` otherwise. Ties cannot produce two distinct winners:
/// with `n` digests at most one value can appear more than `n / 2` times,
/// and the caller is responsible for choosing `f` such that `f + 1` is a
/// majority of correct replicas.
///
/// # Examples
///
/// ```
/// use cbft_digest::{quorum_digest, Digest};
///
/// let good = Digest::of(b"output");
/// let bad = Digest::of(b"tampered");
/// assert_eq!(quorum_digest(&[good, good, bad], 1), Some(good));
/// assert_eq!(quorum_digest(&[good, bad], 1), None);
/// ```
pub fn quorum_digest(digests: &[Digest], f: usize) -> Option<Digest> {
    let mut counts: Vec<(Digest, usize)> = Vec::new();
    for d in digests {
        match counts.iter_mut().find(|(seen, _)| seen == d) {
            Some((_, c)) => *c += 1,
            None => counts.push((*d, 1)),
        }
    }
    counts
        .into_iter()
        .filter(|&(_, c)| c > f)
        .max_by_key(|&(_, c)| c)
        .map(|(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_requires_f_plus_one() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert_eq!(quorum_digest(&[a, a], 1), Some(a));
        assert_eq!(quorum_digest(&[a, b], 1), None);
        assert_eq!(quorum_digest(&[a], 0), Some(a));
        assert_eq!(quorum_digest(&[], 0), None);
    }

    #[test]
    fn quorum_prefers_larger_agreement() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        // Both reach f+1 = 1, the larger group must win.
        assert_eq!(quorum_digest(&[b, a, b], 0), Some(b));
    }

    #[test]
    fn quorum_with_all_distinct_fails() {
        let ds: Vec<Digest> = (0..4u8).map(|i| Digest::of(&[i])).collect();
        assert_eq!(quorum_digest(&ds, 1), None);
    }
}
