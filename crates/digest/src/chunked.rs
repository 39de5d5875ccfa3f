//! Chunked ("approximate, offline") digests.
//!
//! §3.3 of the paper: *"Instead of comparing the entire outputs of a replica
//! set in one go upon sub-job completion, we can choose to (1) only compare
//! digests, (2) start doing so before sub-job completion, and (3) allow the
//! follow-up sub-job to proceed based on the complete output before
//! comparison completes."* §6.4 then varies `d`, the number of lines covered
//! by each digest, from one digest for the whole stream down to one digest
//! per 100 lines.
//!
//! [`ChunkedDigest`] implements that knob: records are appended one at a
//! time; every `d` records the running hash is sealed into a chunk digest
//! that can be shipped to the verifier immediately.

use serde::{Deserialize, Serialize};

use crate::merkle::MerkleTree;
use crate::{Digest, Sha256};

/// Streams records through a verification point, emitting one [`Digest`] per
/// `granularity` records.
///
/// A granularity of [`usize::MAX`] (see [`ChunkedDigest::whole_stream`])
/// degenerates to the paper's default of a single digest per verification
/// point.
///
/// # Examples
///
/// ```
/// use cbft_digest::ChunkedDigest;
///
/// let mut cd = ChunkedDigest::new(2);
/// cd.append(b"r1");
/// cd.append(b"r2"); // seals chunk 0
/// cd.append(b"r3");
/// let summary = cd.finish(); // seals the trailing partial chunk
/// assert_eq!(summary.chunks().len(), 2);
/// assert_eq!(summary.records(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct ChunkedDigest {
    granularity: usize,
    hasher: Sha256,
    records_in_chunk: usize,
    total_records: u64,
    total_bytes: u64,
    chunks: Vec<Digest>,
}

impl ChunkedDigest {
    /// Creates a chunked digest emitting one digest per `granularity`
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero.
    pub fn new(granularity: usize) -> Self {
        assert!(granularity > 0, "digest granularity must be positive");
        ChunkedDigest {
            granularity,
            hasher: Sha256::new(),
            records_in_chunk: 0,
            total_records: 0,
            total_bytes: 0,
            chunks: Vec::new(),
        }
    }

    /// Creates a chunked digest that produces exactly one digest for the
    /// whole stream — the paper's default of "one digest at one verification
    /// point".
    pub fn whole_stream() -> Self {
        Self::new(usize::MAX)
    }

    /// Appends one record to the stream.
    ///
    /// Records are length-prefixed before hashing so that record boundaries
    /// are unambiguous: `("ab", "c")` and `("a", "bc")` digest differently.
    pub fn append(&mut self, record: &[u8]) {
        self.hasher.update(&(record.len() as u64).to_be_bytes());
        self.hasher.update(record);
        self.records_in_chunk += 1;
        self.total_records += 1;
        self.total_bytes += record.len() as u64;
        if self.records_in_chunk == self.granularity {
            self.seal_chunk();
        }
    }

    /// Appends one record that the caller has already framed as
    /// `(len as u64).to_be_bytes() ++ payload` into a reused buffer.
    ///
    /// Digests exactly the same byte stream as [`ChunkedDigest::append`] on
    /// the payload, but hands the hasher one contiguous slice, so whole
    /// 64-byte blocks take [`crate::Sha256::update`]'s multi-block fast path
    /// instead of trickling through the internal buffer in two calls.
    ///
    /// # Panics
    ///
    /// Panics if `framed` is shorter than the 8-byte length prefix or the
    /// prefix does not match the payload length.
    pub fn append_framed(&mut self, framed: &[u8]) {
        assert!(framed.len() >= 8, "framed record missing length prefix");
        let prefix = u64::from_be_bytes(framed[..8].try_into().expect("8-byte prefix"));
        assert_eq!(
            prefix,
            (framed.len() - 8) as u64,
            "length prefix does not match payload length"
        );
        self.hasher.update(framed);
        self.records_in_chunk += 1;
        self.total_records += 1;
        self.total_bytes += prefix;
        if self.records_in_chunk == self.granularity {
            self.seal_chunk();
        }
    }

    /// Appends `records` already-framed records laid out contiguously in
    /// `framed` — each as an 8-byte big-endian length prefix followed by
    /// its payload, `payload_bytes` payload bytes in total — in a single
    /// hasher update. This is the batch path's chunk-contiguous fast path:
    /// digests are byte-identical to calling
    /// [`ChunkedDigest::append_framed`] once per record (SHA-256 streams),
    /// but whole chunks of records reach the compressor as one slice.
    ///
    /// The run must not straddle a chunk boundary; callers slice their
    /// batches at `granularity` records.
    ///
    /// # Panics
    ///
    /// Panics if the run would overflow the current chunk or `framed`'s
    /// length is inconsistent with `records` and `payload_bytes`.
    pub fn append_run(&mut self, framed: &[u8], records: usize, payload_bytes: u64) {
        assert!(
            records <= self.granularity - self.records_in_chunk,
            "framed run must not straddle a chunk boundary"
        );
        assert_eq!(
            framed.len() as u64,
            payload_bytes + 8 * records as u64,
            "framed run length inconsistent with record count and payload"
        );
        self.hasher.update(framed);
        self.records_in_chunk += records;
        self.total_records += records as u64;
        self.total_bytes += payload_bytes;
        if self.records_in_chunk == self.granularity {
            self.seal_chunk();
        }
    }

    /// Writes the framing prefix for [`ChunkedDigest::append_framed`] into
    /// `buf`: clears it and appends a placeholder length prefix. After the
    /// caller encodes the payload into `buf`, [`ChunkedDigest::seal_frame`]
    /// fixes the prefix up.
    pub fn begin_frame(buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&[0u8; 8]);
    }

    /// Patches the length prefix written by [`ChunkedDigest::begin_frame`]
    /// once the payload has been encoded after it.
    ///
    /// # Panics
    ///
    /// Panics if `buf` does not start with an 8-byte prefix region.
    pub fn seal_frame(buf: &mut [u8]) {
        assert!(buf.len() >= 8, "frame buffer missing prefix region");
        let len = (buf.len() - 8) as u64;
        buf[..8].copy_from_slice(&len.to_be_bytes());
    }

    /// Finalizes the stream, sealing any trailing partial chunk, and returns
    /// the summary.
    pub fn finish(mut self) -> ChunkedSummary {
        if self.records_in_chunk > 0 || self.chunks.is_empty() {
            self.seal_chunk();
        }
        let mut combined = self.chunks[0];
        for c in &self.chunks[1..] {
            combined = combined.combine(c);
        }
        ChunkedSummary {
            granularity: u64::try_from(self.granularity).unwrap_or(u64::MAX),
            tree: MerkleTree::build(self.chunks),
            combined,
            records: self.total_records,
            bytes: self.total_bytes,
        }
    }

    fn seal_chunk(&mut self) {
        let hasher = std::mem::take(&mut self.hasher);
        self.chunks.push(hasher.finish());
        self.records_in_chunk = 0;
    }
}

/// The finalized digests of one replica's stream through one verification
/// point.
///
/// The sealed chunk digests live as the leaves of a [`MerkleTree`], so a
/// divergence against another replica's summary is localized by O(log n)
/// root-to-leaf descent ([`ChunkedSummary::localize`]) instead of a linear
/// chunk scan. [`ChunkedSummary::combined`] remains the historical linear
/// fold of the chunk digests — the value verifier quorums compare — so
/// verdicts are unchanged by the tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChunkedSummary {
    /// Hash tree whose leaves are the sealed chunk digests.
    tree: MerkleTree,
    combined: Digest,
    records: u64,
    bytes: u64,
    /// Records per chunk (saturated to `u64::MAX` for whole-stream
    /// digests); maps chunk indices back to record ranges.
    granularity: u64,
}

impl PartialEq for ChunkedSummary {
    fn eq(&self, other: &Self) -> bool {
        // The tree is a pure function of the chunks, and `granularity` is
        // deliberately excluded: short streams digested at different
        // granularities can produce identical chunk vectors (e.g. d = 100
        // vs d = MAX over 3 records) and compared equal before the
        // granularity was recorded — they must continue to.
        self.chunks() == other.chunks()
            && self.records == other.records
            && self.bytes == other.bytes
    }
}

impl Eq for ChunkedSummary {}

impl ChunkedSummary {
    /// Per-chunk digests, in stream order (the Merkle leaves).
    pub fn chunks(&self) -> &[Digest] {
        self.tree.leaves()
    }

    /// A single digest folding all chunk digests together; comparing it is
    /// equivalent to comparing the full chunk vector.
    pub fn combined(&self) -> Digest {
        self.combined
    }

    /// The Merkle tree over the chunk digests.
    pub fn merkle(&self) -> &MerkleTree {
        &self.tree
    }

    /// The Merkle root. Like [`ChunkedSummary::combined`] it commits to the
    /// whole chunk vector, but it additionally supports O(log n)
    /// divergence descent. (The two differ byte-wise: `combined` is a
    /// linear fold, the root a tree fold.)
    pub fn merkle_root(&self) -> Digest {
        self.tree
            .root()
            .expect("a finished summary has at least one chunk")
    }

    /// Records per chunk this summary was digested at.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Total records digested.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total payload bytes digested.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Compares two summaries.
    ///
    /// Returns [`StreamVerdict::Match`] when identical, and otherwise the
    /// index of the first diverging chunk — which tells the verifier *where*
    /// in the stream the replicas diverged (the pay-off of finer
    /// granularity: a smaller recomputation window). Equal-length streams
    /// find that chunk by Merkle descent in O(log n); unequal lengths fall
    /// back to scanning the common prefix. The verdict is identical to the
    /// historical linear scan in every case.
    pub fn compare(&self, other: &ChunkedSummary) -> StreamVerdict {
        if self.equivalent(other) {
            return StreamVerdict::Match;
        }
        if self.chunks().len() == other.chunks().len() {
            if let Some(&chunk) = self.tree.diff(&other.tree).leaves.first() {
                return StreamVerdict::DivergedAt { chunk };
            }
            // Chunks identical yet summaries unequal: record/byte counts
            // differ. Report divergence just past the end, as the linear
            // scan did.
            return StreamVerdict::DivergedAt {
                chunk: self.chunks().len(),
            };
        }
        let n = self.chunks().len().min(other.chunks().len());
        for i in 0..n {
            if self.chunks()[i] != other.chunks()[i] {
                return StreamVerdict::DivergedAt { chunk: i };
            }
        }
        StreamVerdict::DivergedAt { chunk: n }
    }

    /// Narrows a divergence against `other` to the smallest chunk — and
    /// therefore record — range the Merkle diff supports. Returns `None`
    /// when the summaries match. When chunk counts differ, everything from
    /// the first divergent chunk of the common prefix (or the end of it)
    /// through this stream's last chunk is implicated.
    pub fn localize(&self, other: &ChunkedSummary) -> Option<MismatchRange> {
        if self.equivalent(other) {
            return None;
        }
        let n = self.chunks().len();
        let last_idx = n.saturating_sub(1);
        let (first, last) = if n == other.chunks().len() {
            let diff = self.tree.diff(&other.tree);
            match (diff.leaves.first(), diff.leaves.last()) {
                (Some(&f), Some(&l)) => (f, l),
                // Only counts differ; implicate the trailing chunk.
                _ => (last_idx, last_idx),
            }
        } else {
            let common = n.min(other.chunks().len());
            let first = (0..common)
                .find(|&i| self.chunks()[i] != other.chunks()[i])
                .unwrap_or(common);
            (first.min(last_idx), last_idx)
        };
        let (first_record, _) = self.chunk_record_span(first);
        let (_, last_record) = self.chunk_record_span(last);
        Some(MismatchRange {
            first_chunk: first,
            last_chunk: last,
            first_record,
            last_record,
            chunks: n,
            records: self.records,
        })
    }

    /// O(1) equivalence, used where `==` would scan the chunk vectors:
    /// the Merkle root commits to the whole vector, so root equality
    /// stands in for chunk-by-chunk equality under the same
    /// collision-resistance assumption the digests already rest on.
    /// Matching summaries cost one digest comparison; diverging ones skip
    /// straight to the tree descent instead of scanning to the first
    /// differing chunk.
    fn equivalent(&self, other: &ChunkedSummary) -> bool {
        self.chunks().len() == other.chunks().len()
            && self.tree.root() == other.tree.root()
            && self.records == other.records
            && self.bytes == other.bytes
    }

    /// The `[first, last]` record offsets (inclusive) covered by chunk
    /// `chunk` of this stream. For an empty stream the single sealed chunk
    /// covers the degenerate span `(0, 0)`.
    pub fn chunk_record_span(&self, chunk: usize) -> (u64, u64) {
        let start = (chunk as u64).saturating_mul(self.granularity);
        let end = start
            .saturating_add(self.granularity)
            .min(self.records)
            .saturating_sub(1);
        (start.min(end), end.max(start))
    }
}

/// The narrowed location of a stream divergence: the suspect chunk span
/// and the record offsets those chunks cover, as produced by
/// [`ChunkedSummary::localize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MismatchRange {
    /// First differing chunk index.
    pub first_chunk: usize,
    /// Last differing chunk index (inclusive).
    pub last_chunk: usize,
    /// First record offset possibly affected.
    pub first_record: u64,
    /// Last record offset possibly affected (inclusive).
    pub last_record: u64,
    /// Total chunks in the reporting stream (for "x..y of z" rendering).
    pub chunks: usize,
    /// Total records in the reporting stream.
    pub records: u64,
}

/// Result of comparing two [`ChunkedSummary`] values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamVerdict {
    /// The streams are identical.
    Match,
    /// The streams first diverge at this chunk index (possibly past the end
    /// of the shorter stream).
    DivergedAt {
        /// Index of the first chunk whose digests differ.
        chunk: usize,
    },
}

impl StreamVerdict {
    /// True when the verdict is [`StreamVerdict::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, StreamVerdict::Match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(granularity: usize, records: &[&[u8]]) -> ChunkedSummary {
        let mut cd = ChunkedDigest::new(granularity);
        for r in records {
            cd.append(r);
        }
        cd.finish()
    }

    #[test]
    fn identical_streams_match_at_any_granularity() {
        let recs: Vec<&[u8]> = vec![b"a", b"bb", b"ccc", b"dddd", b"e"];
        for g in [1usize, 2, 3, 5, 100] {
            let x = summarize(g, &recs);
            let y = summarize(g, &recs);
            assert!(x.compare(&y).is_match(), "granularity {g}");
            assert_eq!(x.combined(), y.combined());
        }
    }

    #[test]
    fn chunk_count_is_ceil_div() {
        assert_eq!(summarize(2, &[b"a", b"b", b"c"]).chunks().len(), 2);
        assert_eq!(summarize(2, &[b"a", b"b"]).chunks().len(), 1);
        assert_eq!(summarize(1, &[b"a", b"b"]).chunks().len(), 2);
        assert_eq!(summarize(100, &[b"a"]).chunks().len(), 1);
    }

    #[test]
    fn empty_stream_still_produces_one_digest() {
        let s = ChunkedDigest::new(4).finish();
        assert_eq!(s.chunks().len(), 1);
        assert_eq!(s.records(), 0);
        // And it matches another empty stream but not a non-empty one.
        let t = ChunkedDigest::new(4).finish();
        assert!(s.compare(&t).is_match());
        assert!(!s.compare(&summarize(4, &[b"x"])).is_match());
    }

    #[test]
    fn divergence_localizes_the_faulty_chunk() {
        let good: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        let mut bad = good.clone();
        bad[7][0] = 0xff; // corrupt record 7 → chunk 3 at granularity 2
        let g: Vec<&[u8]> = good.iter().map(|v| v.as_slice()).collect();
        let b: Vec<&[u8]> = bad.iter().map(|v| v.as_slice()).collect();
        let sg = summarize(2, &g);
        let sb = summarize(2, &b);
        assert_eq!(sg.compare(&sb), StreamVerdict::DivergedAt { chunk: 3 });
        // Coarse granularity only says "somewhere".
        let sg1 = summarize(100, &g);
        let sb1 = summarize(100, &b);
        assert_eq!(sg1.compare(&sb1), StreamVerdict::DivergedAt { chunk: 0 });
    }

    #[test]
    fn record_boundaries_are_unambiguous() {
        let x = summarize(10, &[b"ab", b"c"]);
        let y = summarize(10, &[b"a", b"bc"]);
        assert!(!x.compare(&y).is_match());
    }

    #[test]
    fn length_difference_past_common_prefix_is_divergence() {
        let x = summarize(1, &[b"a", b"b"]);
        let y = summarize(1, &[b"a", b"b", b"c"]);
        assert_eq!(x.compare(&y), StreamVerdict::DivergedAt { chunk: 2 });
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_panics() {
        let _ = ChunkedDigest::new(0);
    }

    #[test]
    fn append_framed_equals_append() {
        let records: Vec<&[u8]> = vec![b"", b"a", b"bb", b"a longer record payload"];
        for g in [1usize, 2, 100] {
            let plain = summarize(g, &records);
            let mut cd = ChunkedDigest::new(g);
            let mut buf = Vec::new();
            for r in &records {
                ChunkedDigest::begin_frame(&mut buf);
                buf.extend_from_slice(r);
                ChunkedDigest::seal_frame(&mut buf);
                cd.append_framed(&buf);
            }
            let framed = cd.finish();
            assert!(plain.compare(&framed).is_match(), "granularity {g}");
            assert_eq!(plain.records(), framed.records());
            assert_eq!(plain.bytes(), framed.bytes());
        }
    }

    #[test]
    #[should_panic(expected = "length prefix does not match")]
    fn append_framed_rejects_bad_prefix() {
        let mut cd = ChunkedDigest::new(1);
        cd.append_framed(&[0u8; 9]); // prefix says 0 bytes, payload has 1
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        ChunkedDigest::begin_frame(&mut buf);
        buf.extend_from_slice(payload);
        ChunkedDigest::seal_frame(&mut buf);
        buf
    }

    #[test]
    fn append_run_equals_per_record_appends() {
        let records: Vec<&[u8]> = vec![b"", b"a", b"bb", b"a longer record payload", b"x"];
        for g in [1usize, 2, 5, 100] {
            let plain = summarize(g, &records);

            let mut cd = ChunkedDigest::new(g);
            // Feed runs aligned to chunk boundaries, as the batch path does.
            for chunk in records.chunks(g.min(records.len())) {
                let mut run = Vec::new();
                let mut payload = 0u64;
                for r in chunk {
                    run.extend_from_slice(&frame(r));
                    payload += r.len() as u64;
                }
                cd.append_run(&run, chunk.len(), payload);
            }
            let batched = cd.finish();
            assert_eq!(plain, batched, "granularity {g}");
            assert_eq!(plain.merkle_root(), batched.merkle_root());
            assert_eq!(plain.combined(), batched.combined());
        }
    }

    #[test]
    #[should_panic(expected = "straddle a chunk boundary")]
    fn append_run_rejects_chunk_straddle() {
        let mut cd = ChunkedDigest::new(2);
        cd.append(b"one"); // chunk half full
        let mut run = frame(b"a");
        run.extend_from_slice(&frame(b"b"));
        cd.append_run(&run, 2, 2); // would cross the boundary
    }

    #[test]
    fn merkle_root_commits_to_chunks() {
        let recs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e"];
        let x = summarize(2, &recs);
        let y = summarize(2, &recs);
        assert_eq!(x.merkle_root(), y.merkle_root());
        assert_eq!(x.merkle().leaves(), x.chunks());

        let mut bad = recs.clone();
        bad[4] = b"E";
        let z = summarize(2, &bad);
        assert_ne!(x.merkle_root(), z.merkle_root());
    }

    #[test]
    fn localize_narrows_to_the_corrupt_chunk() {
        let good: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i]).collect();
        let mut bad = good.clone();
        bad[42][0] = 0xff; // granularity 4 → chunk 10, records 40..=43
        let g: Vec<&[u8]> = good.iter().map(|v| v.as_slice()).collect();
        let b: Vec<&[u8]> = bad.iter().map(|v| v.as_slice()).collect();
        let sg = summarize(4, &g);
        let sb = summarize(4, &b);
        let range = sg.localize(&sb).expect("streams differ");
        assert_eq!(range.first_chunk, 10);
        assert_eq!(range.last_chunk, 10);
        assert_eq!(range.first_record, 40);
        assert_eq!(range.last_record, 43);
        assert_eq!(range.chunks, 25);
        assert!(sg.localize(&sg.clone()).is_none());
    }

    #[test]
    fn localize_with_length_difference_implicates_the_tail() {
        let x = summarize(1, &[b"a", b"b"]);
        let y = summarize(1, &[b"a", b"b", b"c"]);
        let range = y.localize(&x).expect("streams differ");
        assert_eq!(range.first_chunk, 2, "prefix matches, tail implicated");
        assert_eq!(range.last_chunk, 2);
        let range_short = x.localize(&y).expect("streams differ");
        assert_eq!(range_short.last_chunk, 1, "clamped to own stream");
    }

    #[test]
    fn chunk_record_span_covers_partial_tail() {
        let recs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e"];
        let s = summarize(2, &recs);
        assert_eq!(s.chunk_record_span(0), (0, 1));
        assert_eq!(s.chunk_record_span(1), (2, 3));
        assert_eq!(s.chunk_record_span(2), (4, 4), "partial trailing chunk");
        let whole = summarize(usize::MAX, &recs);
        assert_eq!(whole.chunk_record_span(0), (0, 4));
    }

    #[test]
    fn compare_matches_linear_scan_semantics_via_merkle() {
        // Same pinned scenarios as the historical linear scan, now answered
        // by tree descent for equal-length streams.
        let good: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        for corrupt in 0..10 {
            let mut bad = good.clone();
            bad[corrupt][0] ^= 0x80;
            let g: Vec<&[u8]> = good.iter().map(|v| v.as_slice()).collect();
            let b: Vec<&[u8]> = bad.iter().map(|v| v.as_slice()).collect();
            for gran in [1usize, 2, 3, 7] {
                let sg = summarize(gran, &g);
                let sb = summarize(gran, &b);
                assert_eq!(
                    sg.compare(&sb),
                    StreamVerdict::DivergedAt {
                        chunk: corrupt / gran
                    },
                    "corrupt {corrupt} granularity {gran}"
                );
            }
        }
    }
}
