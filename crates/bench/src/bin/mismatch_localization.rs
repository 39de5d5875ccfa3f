//! Mismatch localization cost: Merkle descent vs linear chunk scan.
//!
//! When two replicas' digest summaries disagree, the verifier must find
//! *where* the streams diverged — that window bounds the recomputation
//! (§6.4: finer granularity `d` buys a smaller window). The flat chunk
//! vector localizes by linear scan, O(n) digest comparisons for n chunks;
//! the Merkle tree over the same sealed chunk digests descends from the
//! root, pruning identical subtrees, O(log n) comparisons for a single
//! corrupted chunk.
//!
//! This bench sweeps the chunk count, injects a single-record corruption,
//! and records for each size: the exact comparison counts of both
//! strategies (deterministic, from [`MerkleDiff::comparisons`]) and their
//! wall time, then the empirical growth exponent of each cost in the chunk
//! count. The run asserts that the corruption is narrowed to *exactly* the
//! corrupted chunk and that the Merkle cost grows sub-linearly.
//!
//! Results land in `bench_results/mismatch_localization.json`.

use std::time::Instant;

use cbft_bench::ExperimentRecord;
use cbft_digest::{ChunkedDigest, ChunkedSummary, Digest};

/// Chunk counts swept (granularity 1: one record per sealed chunk).
const SIZES: [usize; 5] = [256, 1_024, 4_096, 16_384, 65_536];
/// Localization repetitions per timed measurement.
const ITERS: usize = 200;

/// Digests `n` one-record chunks, flipping record `victim` when `corrupt`.
fn summarize(n: usize, victim: usize, corrupt: bool) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(1);
    for i in 0..n {
        let mut payload = (i as u64).to_be_bytes();
        if corrupt && i == victim {
            payload[0] ^= 0xFF;
        }
        cd.append(&payload);
    }
    cd.finish()
}

/// The pre-Merkle strategy: walk the flat chunk vectors until the first
/// differing pair. Returns (first differing chunk, comparisons made).
fn linear_scan(a: &[Digest], b: &[Digest]) -> (Option<usize>, usize) {
    let mut comparisons = 0;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        comparisons += 1;
        if x != y {
            return (Some(i), comparisons);
        }
    }
    (None, comparisons)
}

/// Average wall time of `op` over [`ITERS`] runs, in microseconds.
fn time_us<T>(mut op: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(op());
    }
    start.elapsed().as_secs_f64() * 1e6 / ITERS as f64
}

/// Least-squares slope of log(cost) against log(n) — the empirical growth
/// exponent (1.0 = linear, 0.0 = constant; O(log n) trends toward 0).
fn growth_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x.ln(), sy + y.ln()));
    let (mx, my) = (sx / n, sy / n);
    let (num, den): (f64, f64) = points.iter().fold((0.0, 0.0), |(num, den), (x, y)| {
        (
            num + (x.ln() - mx) * (y.ln() - my),
            den + (x.ln() - mx) * (x.ln() - mx),
        )
    });
    num / den
}

fn main() {
    let mut record = ExperimentRecord::new(
        "mismatch_localization",
        "Merkle mismatch localization: O(log n) descent vs linear chunk scan",
        &format!(
            "Two replicas digest the same stream at granularity 1 (one record per \
             sealed chunk); one replica's stream carries a single corrupted record \
             two thirds of the way in. For each chunk count the verifier localizes \
             the divergence twice: by linear scan over the flat chunk vector and by \
             Merkle root-to-leaf descent (ChunkedSummary::localize). Comparison \
             counts are exact (MerkleDiff::comparisons); wall times average {ITERS} \
             repetitions. The growth-exponent rows fit log(cost) ~ k*log(chunks): \
             1.0 is linear, the Merkle descent must stay well below it. Every size \
             asserts the corruption is narrowed to exactly the corrupted chunk."
        ),
    );

    let mut merkle_cmp_points = Vec::new();
    let mut linear_cmp_points = Vec::new();
    let mut merkle_wall_points = Vec::new();
    for &n in &SIZES {
        let victim = n * 2 / 3;
        let good = summarize(n, victim, false);
        let bad = summarize(n, victim, true);

        // Exactness: descent pins the single corrupted chunk, and with
        // granularity 1 the record window is that one record.
        let range = good.localize(&bad).expect("streams diverge");
        assert_eq!(
            (range.first_chunk, range.last_chunk),
            (victim, victim),
            "n={n}: corruption must be narrowed to exactly the corrupted chunk"
        );
        assert_eq!(
            (range.first_record, range.last_record),
            (victim as u64, victim as u64)
        );
        assert_eq!(
            good.merkle_root(),
            MerkleRootCheck::of(&good),
            "root is derived"
        );

        let diff = good.merkle().diff(bad.merkle());
        assert_eq!(diff.leaves, vec![victim]);
        let (linear_at, linear_comparisons) = linear_scan(good.chunks(), bad.chunks());
        assert_eq!(linear_at, Some(victim));

        let merkle_us = time_us(|| good.localize(&bad));
        let linear_us = time_us(|| linear_scan(good.chunks(), bad.chunks()));

        record.push(
            format!("merkle comparisons ({n} chunks)"),
            "cmp",
            None,
            diff.comparisons as f64,
        );
        record.push(
            format!("linear comparisons ({n} chunks)"),
            "cmp",
            None,
            linear_comparisons as f64,
        );
        record.push(
            format!("merkle localize ({n} chunks)"),
            "us",
            None,
            merkle_us,
        );
        record.push(format!("linear scan ({n} chunks)"), "us", None, linear_us);

        merkle_cmp_points.push((n as f64, diff.comparisons as f64));
        linear_cmp_points.push((n as f64, linear_comparisons as f64));
        merkle_wall_points.push((n as f64, merkle_us));
    }

    let merkle_exp = growth_exponent(&merkle_cmp_points);
    let linear_exp = growth_exponent(&linear_cmp_points);
    let wall_exp = growth_exponent(&merkle_wall_points);
    record.push("merkle comparison growth exponent", "k", None, merkle_exp);
    record.push("linear comparison growth exponent", "k", None, linear_exp);
    record.push("merkle wall growth exponent", "k", None, wall_exp);

    assert!(
        merkle_exp < 0.5,
        "Merkle localization must grow sub-linearly in the chunk count \
         (measured exponent {merkle_exp:.3})"
    );
    assert!(
        linear_exp > 0.9,
        "the linear baseline should be ~linear (measured exponent {linear_exp:.3})"
    );
    record.set_flag("exact_chunk_localization", true);
    record.set_flag("sublinear_merkle_descent", true);

    record.finish();
}

/// Recomputes the Merkle root from the chunk digests alone, pinning that
/// the tree is pure derived structure.
struct MerkleRootCheck;

impl MerkleRootCheck {
    fn of(summary: &ChunkedSummary) -> Digest {
        let mut level = summary.chunks().to_vec();
        while level.len() > 1 {
            level = cbft_digest::parent_level(&level);
        }
        level[0]
    }
}
