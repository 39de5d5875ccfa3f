//! Columnar record batches and vectorized operator kernels.
//!
//! The record-at-a-time interpreter and task payloads walk a `Vec<Record>`
//! of boxed [`Value`]s: every field access chases an enum, every digest
//! encodes one record into a small buffer, every comparison re-dispatches
//! on type. A [`Batch`] stores the same rows column-wise — integers in a
//! flat `Vec<i64>`, strings as one contiguous byte arena plus offsets,
//! each with a validity (null) mask — so the per-record operators become
//! tight monomorphic loops over primitive slices and canonical encoding
//! for digests writes straight from the arenas.
//!
//! Contracts (all pinned by tests):
//!
//! * **Round-trip identity** — `Batch::from_records` followed by
//!   [`Batch::to_records`] reproduces the input exactly, nulls included.
//! * **Kernel equivalence** — every vectorized kernel produces output
//!   byte-identical to its row kernel in [`crate::interp`]
//!   (`filter`/`project` preserve input order; `group`/`order`/`join`
//!   canonicalize exactly like `group_records`/`order_records_owned`/
//!   `join_records`).
//! * **Encoding equivalence** — [`Batch::write_row_canonical`] emits the
//!   same bytes as [`Record::write_canonical`] on the corresponding row,
//!   so digests computed over a batch equal digests computed over rows.
//! * **Text equivalence** — [`Batch::write_row_text`] writes the report
//!   line that formatting the corresponding row's fields would, so a
//!   published columnar file is printed without building its rows.
//!
//! Batches require a uniform arity: ragged record sets (possible only via
//! hand-built inputs; plan-produced streams are rectangular) make
//! `from_records` return `None` and callers fall back to the row path.
//!
//! `GROUP` output stays columnar too: its bags live in a nested
//! [`Column::Bag`] (offsets into one member batch), so aggregates read
//! the member columns directly and a `Value::Bag` exists only when a row
//! is materialized — at the task's output boundary, never in between.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use crate::combiner::{CombineSlot, Combiner};
use crate::expr::{eval_agg, AggFunc, Expr};
use crate::op::SortOrder;
use crate::stats::{self, Counter};
use crate::value::{Record, Value};

/// A column-oriented block of records with uniform arity.
///
/// Columns are shared, not owned: a projection that only names columns
/// ([`pick`]) hands the same columns on, and [`Batch::map_column`] copies
/// a shared column before it changes it, so no holder sees another's edit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    len: usize,
    columns: Vec<Arc<Column>>,
}

/// One column of a [`Batch`].
///
/// `Int` and `Str` are the typed fast paths (a value is either of the
/// column's type or null, tracked by the validity mask); `Bag` is the
/// nested layout `GROUP` produces; `Mixed` is the exact fallback for
/// heterogeneous values and for bags that arrive as values (a stored
/// grouped relation read back by a later job).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Column {
    /// 64-bit integers; `validity[i] == false` means row `i` is null.
    Int {
        /// Field values (arbitrary at invalid rows).
        values: Vec<i64>,
        /// Per-row null mask; `None` means all rows are valid.
        validity: Option<Vec<bool>>,
    },
    /// UTF-8 strings in a contiguous arena.
    Str {
        /// Concatenated string bytes.
        bytes: Vec<u8>,
        /// `offsets[i]..offsets[i + 1]` is row `i`'s byte range
        /// (`len + 1` entries, starting at 0).
        offsets: Vec<usize>,
        /// Per-row null mask; `None` means all rows are valid.
        validity: Option<Vec<bool>>,
    },
    /// Bags of records, all held in one member batch: row `i`'s bag is
    /// rows `offsets[i]..offsets[i + 1]` of `rows`. A bag is never null.
    Bag {
        /// `len + 1` entries, starting at 0 and ending at `rows.len()`.
        offsets: Vec<usize>,
        /// The members of every bag, concatenated in row order.
        rows: Box<Batch>,
    },
    /// Arbitrary values (bags, mixed types): the row representation kept
    /// column-major.
    Mixed(Vec<Value>),
}

/// The live rows of a batch, ascending: a window, the listed ones, or
/// one bucket of a shuffle. A map task reads its split through one
/// instead of copying the window out — [`select`] narrows it, [`project`]
/// evaluates over it, [`shuffle_partitions`] cuts it into the reduce
/// partitions — and a row is copied once, by [`Batch::gather`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Every row of the window.
    Range(Range<usize>),
    /// The listed rows.
    Rows(Vec<usize>),
    /// The rows of a window whose bucket byte is this bucket's.
    Bucket(Bucket),
}

/// The most partitions a shuffle names by one byte per row: the byte
/// holds buckets `0..MAX_BYTE_BUCKETS` and [`DROPPED`]. A shuffle into
/// more lists each partition's row ids instead.
pub const MAX_BYTE_BUCKETS: usize = DROPPED as usize;

/// The bucket byte of a window row no partition holds: one an earlier
/// `FILTER` dropped.
const DROPPED: u8 = u8::MAX;

/// One reduce partition of a map task's shuffle: the rows `start + i` of
/// a window whose byte `bytes[i]` is `bucket`. The partitions cut from one
/// window share `bytes`, one byte per window row; each partition's rows
/// and canonical bytes were counted when the window was cut, against the
/// batch it was cut from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bucket {
    start: usize,
    bytes: Arc<[u8]>,
    bucket: u8,
    len: usize,
    canonical: u64,
}

impl Bucket {
    /// The bucket's rows, in order.
    fn rows(&self) -> BucketRows<'_> {
        BucketRows {
            rest: &self.bytes,
            bucket: self.bucket,
            next: self.start,
        }
    }

    /// The window the bucket bytes cover.
    fn window(&self) -> Range<usize> {
        self.start..self.start + self.bytes.len()
    }
}

/// The high bit of every byte of the word `bytes` (up to eight, read
/// little-endian and padded with a byte that is not `bucket`) that equals
/// `bucket`: a byte of `x` is zero exactly there, and `(x & 0x7f..) +
/// 0x7f..` sets a byte's high bit iff its low seven bits are not all zero,
/// with no carry across bytes.
#[inline]
fn matches(bytes: &[u8], bucket: u8) -> u64 {
    const LOW: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let word = match bytes.try_into() {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => {
            let mut padded = [!bucket; 8];
            padded[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(padded)
        }
    };
    let x = word ^ u64::from_ne_bytes([bucket; 8]);
    !(((x & LOW) + LOW) | x | LOW)
}

/// For each 8-bit mask, the positions of its set bits, ascending, one per
/// byte from the lowest.
const SET_BITS: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut bit, mut found) = (0, 0);
        while bit < 8 {
            if mask >> bit & 1 == 1 {
                table[mask] |= (bit as u64) << (8 * found);
                found += 1;
            }
            bit += 1;
        }
        mask += 1;
    }
    table
};

/// `f` folded over every `i` with `bytes[i] == bucket`, in order. The
/// bytes are read a word at a time and a block of words at a time: each
/// word's matching offsets are written out together, with no branch on
/// the data — its match bits gathered into one byte, the byte looked up
/// in [`SET_BITS`] — and the block's offsets are then handed to `f`.
#[inline]
fn fold_matches<B>(bytes: &[u8], bucket: u8, mut acc: B, mut f: impl FnMut(B, usize) -> B) -> B {
    const BLOCK: usize = 256;
    const LANES: u64 = 0x0101_0101_0101_0101;
    let mut offsets = [0u8; BLOCK];
    for (at, block) in (0..).step_by(BLOCK).zip(bytes.chunks(BLOCK)) {
        let mut found = 0;
        for (w, word) in block.chunks(8).enumerate() {
            // One bit per byte, at the byte's lowest bit; multiplied, bit
            // `j` of the top byte is byte `j`'s, or the top byte is their
            // sum (no product term carries into it).
            let ones = matches(word, bucket) >> 7;
            let mask = ones.wrapping_mul(0x0102_0408_1020_4080) >> 56;
            let lanes = SET_BITS[mask as usize] + LANES * (8 * w) as u64;
            // `found` is at most `8 * w`, so the word's eight lanes fit.
            offsets[found..found + 8].copy_from_slice(&lanes.to_le_bytes());
            found += (ones.wrapping_mul(LANES) >> 56) as usize;
        }
        for &i in &offsets[..found] {
            acc = f(acc, at + usize::from(i));
        }
    }
    acc
}

/// The rows of a [`Bucket`]: folded, a block of bytes at a time
/// ([`fold_matches`]); one at a time, by a search for the next byte.
#[derive(Clone)]
struct BucketRows<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    bucket: u8,
    /// The row of `rest`'s first byte.
    next: usize,
}

impl Iterator for BucketRows<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let at = self.rest.iter().position(|&b| b == self.bucket)?;
        let row = self.next + at;
        (self.rest, self.next) = (&self.rest[at + 1..], row + 1);
        Some(row)
    }

    #[inline]
    fn fold<B, F: FnMut(B, usize) -> B>(self, acc: B, mut f: F) -> B {
        let next = self.next;
        fold_matches(self.rest, self.bucket, acc, |acc, i| f(acc, next + i))
    }
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::Range(rows) => rows.len(),
            Selection::Rows(rows) => rows.len(),
            Selection::Bucket(bucket) => bucket.len,
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps only the first `n` selected rows (`LIMIT`); a bucket's are
    /// listed (no pipeline cuts one).
    pub fn truncate(&mut self, n: usize) {
        match self {
            Selection::Range(rows) => rows.end = rows.end.min(rows.start.saturating_add(n)),
            Selection::Rows(rows) => rows.truncate(n),
            Selection::Bucket(bucket) => *self = Selection::Rows(bucket.rows().take(n).collect()),
        }
    }

    /// Calls `f(position, row)` for every selected row, in order.
    pub fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            Selection::Range(rows) => rows.clone().enumerate().for_each(|(i, r)| f(i, r)),
            Selection::Rows(rows) => rows.iter().enumerate().for_each(|(i, &r)| f(i, r)),
            Selection::Bucket(bucket) => bucket.rows().enumerate().for_each(|(i, r)| f(i, r)),
        }
    }

    /// `f(position, row)` of every selected row, in order: the loop of
    /// every kernel that reads a batch in place.
    pub fn map<T>(&self, mut f: impl FnMut(usize, usize) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|i, row| out.push(f(i, row)));
        out
    }

    /// The selected rows as ranges, in order, for kernels that copy or
    /// sum slices: the window, or one range per listed or bucket row.
    fn spans(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let (window, ids, bucket) = match self {
            Selection::Range(window) => (Some(window.clone()), &[][..], None),
            Selection::Rows(ids) => (None, &ids[..], None),
            Selection::Bucket(bucket) => (None, &[][..], Some(bucket.rows())),
        };
        let single = ids.iter().copied().chain(bucket.into_iter().flatten());
        window.into_iter().chain(single.map(|i| i..i + 1))
    }

    /// The rows the selection lies within: its first row to past its last.
    fn hull(&self) -> Range<usize> {
        match self {
            Selection::Range(window) => window.clone(),
            Selection::Rows(ids) => match (ids.first(), ids.last()) {
                (Some(&first), Some(&last)) => first..last + 1,
                _ => 0..0,
            },
            Selection::Bucket(bucket) => bucket.window(),
        }
    }

    /// The selection cut into `n` reduce partitions, each row into
    /// partition `bucket(row)` (below `n`), each partition's rows in order:
    /// [`shuffle_partitions`] for a route other than a key cell's hash.
    pub fn partition(
        &self,
        batch: &Batch,
        n: usize,
        mut bucket: impl FnMut(usize) -> usize,
    ) -> Vec<Selection> {
        if n > MAX_BYTE_BUCKETS {
            return listed(self, &self.map(|_, row| bucket(row)), n);
        }
        cut(batch, self, n, |cut| {
            self.for_each(|_, row| cut.put(row, bucket(row)))
        })
    }
}

/// A window while a shuffle cuts it: the bucket byte of each row of the
/// selection's hull, written straight into the array the partitions will
/// share, and each bucket's rows counted.
struct Cut<'a> {
    start: usize,
    bytes: &'a mut [u8],
    counts: &'a mut [usize],
}

impl Cut<'_> {
    /// Routes `row` into `bucket`.
    #[inline]
    fn put(&mut self, row: usize, bucket: usize) {
        self.bytes[row - self.start] = bucket as u8;
        self.counts[bucket] += 1;
    }
}

/// The `n` ([`MAX_BYTE_BUCKETS`] at most) partitions of `rows`, as
/// [`Selection::Bucket`]s of one byte array spanning the selection's hull,
/// in which `route` puts every selected row (and [`DROPPED`] marks the
/// rest); each partition's canonical bytes are counted by one pass per
/// column over the array.
fn cut(batch: &Batch, rows: &Selection, n: usize, route: impl FnOnce(&mut Cut)) -> Vec<Selection> {
    let hull = rows.hull();
    stats::count(Counter::ShuffleIndexBytes, hull.len() as u64);
    let mut bytes: Arc<[u8]> = std::iter::repeat_n(DROPPED, hull.len()).collect();
    let mut counts = vec![0; n];
    route(&mut Cut {
        start: hull.start,
        bytes: Arc::get_mut(&mut bytes).expect("a new array is unshared"),
        counts: &mut counts,
    });
    // The arity prefix of every row, then each column's cells.
    let mut canonical = [0u64; 256];
    for (total, &len) in canonical.iter_mut().zip(&counts) {
        *total = 8 * len as u64;
    }
    for c in &batch.columns {
        c.canonical_by_bucket(hull.start, &bytes, &counts, &mut canonical);
    }
    let bucket = |(b, &len): (usize, &usize)| {
        Selection::Bucket(Bucket {
            start: hull.start,
            bytes: Arc::clone(&bytes),
            bucket: b as u8,
            len,
            canonical: canonical[b],
        })
    };
    counts.iter().enumerate().map(bucket).collect()
}

/// The partitions as lists of row ids, each sized exactly — the form of a
/// shuffle into more than [`MAX_BYTE_BUCKETS`]: `buckets[i]` is the
/// partition of the `i`th selected row.
fn listed(rows: &Selection, buckets: &[usize], n: usize) -> Vec<Selection> {
    stats::count(
        Counter::ShuffleIndexBytes,
        (size_of::<usize>() * rows.len()) as u64,
    );
    let mut sizes = vec![0; n];
    buckets.iter().for_each(|&b| sizes[b] += 1);
    let mut picks: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
    rows.for_each(|i, row| picks[buckets[i]].push(row));
    picks.into_iter().map(Selection::Rows).collect()
}

impl Column {
    /// Builds the best-fitting column for `values` (typed when every value
    /// is of one type or null, `Mixed` otherwise). The choice is a pure
    /// function of the values, so replicas always agree on layout; it is
    /// [`ColumnBuilder`]'s, which a bag alone is outside of.
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut builder = ColumnBuilder::with_capacity(values.len());
        for v in &values {
            match v {
                Value::Null => builder.push(Cell::Null),
                Value::Int(i) => builder.push(Cell::Int(*i)),
                Value::Str(s) => builder.push(Cell::Str(s)),
                Value::Bag(_) => return Column::Mixed(values),
            }
            if builder.is_mixed() {
                return Column::Mixed(values);
            }
        }
        builder.finish()
    }

    /// The column's cells as values, in row order; inverse of
    /// [`Column::from_values`]. A `Mixed` column's values move.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Column::Mixed(values) => values,
            typed => (0..typed.len()).map(|row| typed.value_at(row)).collect(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Str { offsets, .. } | Column::Bag { offsets, .. } => offsets.len() - 1,
            Column::Mixed(values) => values.len(),
        }
    }

    /// A typed column's null mask; `None` when it has none, and for the
    /// layouts that keep none.
    fn mask(&self) -> Option<&[bool]> {
        match self {
            Column::Int { validity, .. } | Column::Str { validity, .. } => validity.as_deref(),
            Column::Bag { .. } | Column::Mixed(_) => None,
        }
    }

    /// How many of the selected cells the mask says are null: a copy of
    /// the selection keeps a mask exactly when this is not zero.
    fn nulls_in(&self, rows: &Selection) -> u64 {
        let Some(mask) = self.mask() else { return 0 };
        if let Selection::Bucket(b) = rows {
            // One pass over the window, with no branch per row.
            let cells = b.bytes.iter().zip(&mask[b.window()]);
            return cells
                .map(|(&x, &valid)| u64::from(x == b.bucket && !valid))
                .sum();
        }
        let nulls = |s: Range<usize>| mask[s].iter().filter(|v| !**v).count() as u64;
        rows.spans().map(nulls).sum()
    }

    /// Adds to `into[bucket]` the canonical bytes of this column's cells
    /// in each bucket of a cut window: `bytes[i]` is the bucket of row
    /// `start + i` ([`DROPPED`]'s slot gathers what no bucket holds) and
    /// `counts` each bucket's rows — [`Batch::canonical_bytes_in`] of every
    /// bucket, in one pass.
    fn canonical_by_bucket(
        &self,
        start: usize,
        bytes: &[u8],
        counts: &[usize],
        into: &mut [u64; 256],
    ) {
        let window = start..start + bytes.len();
        // A valid typed cell is a tag and 8 bytes, a null one the tag.
        let typed = |into: &mut [u64; 256]| {
            into.iter_mut()
                .zip(counts)
                .for_each(|(t, &len)| *t += 9 * len as u64);
            if let Some(mask) = self.mask() {
                for (&b, &valid) in bytes.iter().zip(&mask[window.clone()]) {
                    if !valid && b != DROPPED {
                        into[usize::from(b)] -= 8;
                    }
                }
            }
        };
        match self {
            Column::Int { .. } => typed(into),
            // Invalid rows hold empty ranges of the arena.
            Column::Str { offsets, .. } => {
                typed(into);
                let ends = offsets[window.start..=window.end].windows(2);
                for (&b, end) in bytes.iter().zip(ends) {
                    into[usize::from(b)] += (end[1] - end[0]) as u64;
                }
            }
            // Tag and member count per bag, plus every member row.
            Column::Bag { offsets, rows } => {
                for (row, &b) in window.zip(bytes).filter(|&(_, &b)| b != DROPPED) {
                    let members = Selection::Range(offsets[row]..offsets[row + 1]);
                    into[usize::from(b)] += 9 + rows.canonical_bytes_in(&members);
                }
            }
            Column::Mixed(values) => {
                for (v, &b) in values[window]
                    .iter()
                    .zip(bytes)
                    .filter(|&(_, &b)| b != DROPPED)
                {
                    into[usize::from(b)] += v.to_canonical_bytes().len() as u64;
                }
            }
        }
    }

    fn is_valid(&self, row: usize) -> bool {
        match self {
            Column::Mixed(values) => !values[row].is_null(),
            other => other.mask().is_none_or(|m| m[row]),
        }
    }

    /// The integer at `row`, if this is a valid `Int` cell.
    fn int_at(&self, row: usize) -> Option<i64> {
        match self {
            Column::Int { values, .. } if self.is_valid(row) => Some(values[row]),
            Column::Mixed(values) => values[row].as_int(),
            _ => None,
        }
    }

    /// The string bytes at `row`, if this is a valid `Str` cell.
    fn str_bytes_at(&self, row: usize) -> Option<&[u8]> {
        match self {
            Column::Str { bytes, offsets, .. } if self.is_valid(row) => {
                Some(&bytes[offsets[row]..offsets[row + 1]])
            }
            Column::Mixed(values) => values[row].as_str().map(str::as_bytes),
            _ => None,
        }
    }

    /// Materializes the [`Value`] at `row`. For a `Bag` column this is
    /// the one place a `Value::Bag` is built from the member batch.
    fn value_at(&self, row: usize) -> Value {
        match self {
            Column::Int { values, .. } => {
                if self.is_valid(row) {
                    Value::Int(values[row])
                } else {
                    Value::Null
                }
            }
            Column::Str { bytes, offsets, .. } => {
                if self.is_valid(row) {
                    let slice = &bytes[offsets[row]..offsets[row + 1]];
                    Value::Str(String::from_utf8(slice.to_vec()).expect("arena holds UTF-8"))
                } else {
                    Value::Null
                }
            }
            Column::Bag { offsets, rows } => {
                let members = offsets[row]..offsets[row + 1];
                stats::count(Counter::RowsMaterialized, members.len() as u64);
                Value::Bag(members.map(|i| rows.build_row(i)).collect())
            }
            Column::Mixed(values) => values[row].clone(),
        }
    }

    /// Runs `f` on a reference to the value at `row`, materializing a
    /// temporary only for typed columns (and only on the stack for ints).
    fn with_value<R>(&self, row: usize, f: impl FnOnce(&Value) -> R) -> R {
        match self {
            Column::Mixed(values) => f(&values[row]),
            _ => f(&self.value_at(row)),
        }
    }

    /// Compares the cells at rows `a` and `b` with [`Value`]'s total
    /// order (null sorts first via the type rank), without materializing
    /// either value for typed columns.
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match self {
            Column::Int { values, .. } => {
                let va = self.is_valid(a).then(|| values[a]);
                let vb = self.is_valid(b).then(|| values[b]);
                // Option's order (None < Some) matches Value's type rank
                // (Null < Int).
                va.cmp(&vb)
            }
            Column::Str { bytes, offsets, .. } => {
                let va = self.is_valid(a).then(|| &bytes[offsets[a]..offsets[a + 1]]);
                let vb = self.is_valid(b).then(|| &bytes[offsets[b]..offsets[b + 1]]);
                // str's order is bytewise lexicographic, so comparing the
                // raw arenas matches Value::Str's order.
                va.cmp(&vb)
            }
            // `Vec<Record>`'s order: members pairwise, then bag length.
            Column::Bag { offsets, rows } => {
                let (ra, rb) = (offsets[a]..offsets[a + 1], offsets[b]..offsets[b + 1]);
                let lengths = ra.len().cmp(&rb.len());
                ra.zip(rb)
                    .map(|(i, j)| rows.cmp_rows(i, j))
                    .find(|ord| *ord != Ordering::Equal)
                    .unwrap_or(lengths)
            }
            Column::Mixed(values) => values[a].cmp(&values[b]),
        }
    }

    /// Appends [`Value::write_canonical`]'s encoding of the cell at `row`.
    fn write_canonical(&self, row: usize, out: &mut Vec<u8>) {
        match self {
            Column::Int { values, .. } => {
                if self.is_valid(row) {
                    out.push(1);
                    out.extend_from_slice(&values[row].to_be_bytes());
                } else {
                    out.push(0);
                }
            }
            Column::Str { bytes, offsets, .. } => {
                if self.is_valid(row) {
                    let slice = &bytes[offsets[row]..offsets[row + 1]];
                    out.push(2);
                    out.extend_from_slice(&(slice.len() as u64).to_be_bytes());
                    out.extend_from_slice(slice);
                } else {
                    out.push(0);
                }
            }
            Column::Bag { offsets, rows } => {
                let members = offsets[row]..offsets[row + 1];
                out.push(3);
                out.extend_from_slice(&(members.len() as u64).to_be_bytes());
                for i in members {
                    rows.write_row_canonical(i, out);
                }
            }
            Column::Mixed(values) => values[row].write_canonical(out),
        }
    }

    /// Appends the cell at `row` as [`Value`]'s `Display` writes it: a
    /// typed cell straight from its column, a bag or mixed one through
    /// the value.
    fn write_text(&self, row: usize, out: &mut String) {
        match self {
            Column::Int { values, .. } if self.is_valid(row) => write_int(values[row], out),
            Column::Str { bytes, offsets, .. } if self.is_valid(row) => {
                // The arena holds UTF-8, so this borrows and never replaces.
                out.push_str(&String::from_utf8_lossy(
                    &bytes[offsets[row]..offsets[row + 1]],
                ));
            }
            Column::Int { .. } | Column::Str { .. } => out.push_str("null"),
            Column::Bag { .. } | Column::Mixed(_) => self.with_value(row, |v| {
                let _ = write!(out, "{v}");
            }),
        }
    }

    /// Rows of this column selected by `indices`, in order, copied once in
    /// the column's layout (with a null mask only if a taken cell is
    /// null); a bag column gathers its members from its one member batch.
    fn gather(&self, indices: &[usize]) -> Column {
        self.take(indices.iter().copied(), indices.len())
    }

    /// [`Column::gather`] of the `len` rows `rows` yields: one pass over
    /// them per column (a string column sums its text first), each a fold
    /// — a bucket's is [`fold_matches`] — that copies a typed cell's
    /// validity beside it ([`take_cells`]).
    fn take(&self, rows: impl Iterator<Item = usize> + Clone, len: usize) -> Column {
        match self {
            Column::Int { values, .. } => {
                let mut taken = Vec::with_capacity(len);
                let validity = take_cells(rows, self.mask(), &mut taken, |i| values[i]);
                Column::Int {
                    values: taken,
                    validity,
                }
            }
            Column::Str { bytes, offsets, .. } => {
                let text = |i: usize| &bytes[offsets[i]..offsets[i + 1]];
                let mut taken = Vec::with_capacity(rows.clone().map(|i| text(i).len()).sum());
                let mut ends = Vec::with_capacity(len + 1);
                ends.push(0);
                let validity = take_cells(rows, self.mask(), &mut ends, |i| {
                    taken.extend_from_slice(text(i));
                    taken.len()
                });
                Column::Str {
                    bytes: taken,
                    offsets: ends,
                    validity,
                }
            }
            Column::Bag {
                offsets,
                rows: bags,
            } => {
                let (mut ends, mut members) = (vec![0], Vec::new());
                for i in rows {
                    members.extend(offsets[i]..offsets[i + 1]);
                    ends.push(members.len());
                }
                Column::Bag {
                    offsets: ends,
                    rows: Box::new(bags.gather(&members)),
                }
            }
            Column::Mixed(values) => Column::Mixed(rows.map(|i| values[i].clone()).collect()),
        }
    }

    /// The selected rows of this column, in the layout [`Column::gather`]
    /// keeps; a window of a typed column is copied slice-wise, a bucket's
    /// rows are taken as its bytes are read.
    fn select(&self, rows: &Selection) -> Column {
        let window = match rows {
            Selection::Rows(rows) => return self.gather(rows),
            Selection::Bucket(bucket) => return self.take(bucket.rows(), bucket.len),
            Selection::Range(window) => window.clone(),
        };
        let mask = || holding_a_null(self.mask().map(|m| &m[window.clone()])).map(<[bool]>::to_vec);
        match self {
            Column::Int { values, .. } => Column::Int {
                values: values[window.clone()].to_vec(),
                validity: mask(),
            },
            Column::Str { bytes, offsets, .. } => {
                let base = offsets[window.start];
                let ends = &offsets[window.start..=window.end];
                Column::Str {
                    bytes: bytes[base..offsets[window.end]].to_vec(),
                    offsets: ends.iter().map(|end| end - base).collect(),
                    validity: mask(),
                }
            }
            Column::Bag { .. } | Column::Mixed(_) => self.gather(&window.collect::<Vec<_>>()),
        }
    }

    /// The selected cells of `parts`, one part after another, copied once.
    /// Typed columns of one layout append (with a mask when a selected
    /// cell is null); parts that disagree on layout — an all-null `Int`
    /// run next to a `Str` run, anything `Mixed` or `Bag` — are rebuilt
    /// from their values by [`Column::from_values`].
    fn concat(parts: &[(&Column, &Selection)]) -> Column {
        let len: usize = parts.iter().map(|(_, rows)| rows.len()).sum();
        let mask = || {
            parts.iter().any(|(c, rows)| c.nulls_in(rows) > 0).then(|| {
                let mut mask = Vec::with_capacity(len);
                for (c, rows) in parts {
                    match c.mask() {
                        Some(m) => rows.spans().for_each(|s| mask.extend_from_slice(&m[s])),
                        None => mask.resize(mask.len() + rows.len(), true),
                    }
                }
                mask
            })
        };
        let ints: Option<Vec<_>> = parts
            .iter()
            .map(|(c, rows)| match c {
                Column::Int { values, .. } => Some((values, *rows)),
                _ => None,
            })
            .collect();
        if let Some(ints) = ints {
            let mut values = Vec::with_capacity(len);
            for (v, rows) in ints {
                rows.spans().for_each(|s| values.extend_from_slice(&v[s]));
            }
            return Column::Int {
                values,
                validity: mask(),
            };
        }
        let strs: Option<Vec<_>> = parts
            .iter()
            .map(|(c, rows)| match c {
                Column::Str { bytes, offsets, .. } => Some((bytes, offsets, *rows)),
                _ => None,
            })
            .collect();
        if let Some(strs) = strs {
            let text = |(_, o, rows): &(_, &Vec<usize>, &Selection)| {
                rows.spans().map(|s| o[s.end] - o[s.start]).sum::<usize>()
            };
            let mut bytes = Vec::with_capacity(strs.iter().map(text).sum());
            let mut offsets = Vec::with_capacity(len + 1);
            offsets.push(0);
            for (b, o, rows) in strs {
                for s in rows.spans() {
                    let (base, first) = (bytes.len(), o[s.start]);
                    offsets.extend(o[s.start + 1..=s.end].iter().map(|end| base + end - first));
                    bytes.extend_from_slice(&b[first..o[s.end]]);
                }
            }
            return Column::Str {
                bytes,
                offsets,
                validity: mask(),
            };
        }
        let cells = parts
            .iter()
            .flat_map(|(c, rows)| rows.spans().flatten().map(|row| c.value_at(row)));
        Column::from_values(cells.collect())
    }
}

/// Pushes `cell(i)` of every row `i` of `rows` onto `out`, in one fold,
/// and returns the rows' validity under `mask` — the null mask a copy
/// keeps: none unless a taken cell is null ([`holding_a_null`]).
fn take_cells<T>(
    rows: impl Iterator<Item = usize>,
    mask: Option<&[bool]>,
    out: &mut Vec<T>,
    mut cell: impl FnMut(usize) -> T,
) -> Option<Vec<bool>> {
    let Some(mask) = mask else {
        rows.for_each(|i| out.push(cell(i)));
        return None;
    };
    let mut kept = Vec::with_capacity(out.capacity() - out.len());
    rows.for_each(|i| {
        out.push(cell(i));
        kept.push(mask[i]);
    });
    holding_a_null(Some(kept))
}

/// Appends the decimal digits of `i`, as its `Display` writes them,
/// without a formatter.
fn write_int(i: i64, out: &mut String) {
    // `i64::MIN` has 19 digits.
    let mut digits = [0u8; 19];
    let (mut at, mut n) = (digits.len(), i.unsigned_abs());
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// The layout rule for the null mask of a selection — a window, a
/// gather: a mask exists only where a null does, so a selected mask that
/// holds no `false` is dropped.
fn holding_a_null<M: AsRef<[bool]>>(mask: Option<M>) -> Option<M> {
    mask.filter(|m| m.as_ref().contains(&false))
}

/// One flat field on its way into a column: a CSV field, or a [`Value`]
/// that is not a bag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell<'a> {
    /// Missing / undefined.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(&'a str),
}

impl From<Cell<'_>> for Value {
    fn from(cell: Cell<'_>) -> Value {
        match cell {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Str(s) => Value::str(s),
        }
    }
}

/// Builds one column cell by cell — the one place a column's layout is
/// decided. Nulls alone are an `Int` column; the first non-null cell
/// fixes the type (`Int`, or `Str` with the nulls so far carried over);
/// a later cell of the other type demotes the column to `Mixed`. A null
/// mask exists once a null was pushed. Strings are appended to the arena
/// straight from the borrowed cell.
#[derive(Clone, Debug)]
pub struct ColumnBuilder(Column);

impl ColumnBuilder {
    /// A builder that expects about `rows` cells.
    pub fn with_capacity(rows: usize) -> ColumnBuilder {
        ColumnBuilder(Column::Int {
            values: Vec::with_capacity(rows),
            validity: None,
        })
    }

    /// Appends one cell.
    #[inline]
    pub fn push(&mut self, cell: Cell<'_>) {
        /// The column's null mask, created (all valid so far) on demand.
        fn mask(validity: &mut Option<Vec<bool>>, len: usize) -> &mut Vec<bool> {
            validity.get_or_insert_with(|| vec![true; len])
        }
        match (&mut self.0, cell) {
            (Column::Int { values, validity }, Cell::Null) => {
                mask(validity, values.len()).push(false);
                values.push(0);
            }
            (Column::Int { values, validity }, Cell::Int(i)) => {
                if let Some(m) = validity {
                    m.push(true);
                }
                values.push(i);
            }
            (
                Column::Str {
                    offsets, validity, ..
                },
                Cell::Null,
            ) => {
                mask(validity, offsets.len() - 1).push(false);
                offsets.push(offsets[offsets.len() - 1]);
            }
            (
                Column::Str {
                    bytes,
                    offsets,
                    validity,
                },
                Cell::Str(s),
            ) => {
                if let Some(m) = validity {
                    m.push(true);
                }
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len());
            }
            (Column::Mixed(values), cell) => values.push(cell.into()),
            (_, cell) => self.push_retyped(cell),
        }
    }

    /// Appends a cell the column's layout cannot hold, changing the
    /// layout: nulls alone (and their mask) carry over into the `Str`
    /// layout as empty ranges; a second type is the exact fallback.
    #[cold]
    fn push_retyped(&mut self, cell: Cell<'_>) {
        match &mut self.0 {
            Column::Int { values, validity }
                if validity
                    .as_ref()
                    .map_or(values.is_empty(), |m| !m.contains(&true)) =>
            {
                let mut offsets = Vec::with_capacity(values.capacity() + 1);
                offsets.resize(values.len() + 1, 0);
                self.0 = Column::Str {
                    bytes: Vec::new(),
                    offsets,
                    validity: validity.take(),
                };
                self.push(cell);
            }
            typed => {
                let mut values = Vec::with_capacity(typed.len() + 1);
                values.extend((0..typed.len()).map(|row| typed.value_at(row)));
                values.push(cell.into());
                self.0 = Column::Mixed(values);
            }
        }
    }

    /// Expects about `n` bytes of text: sizes the arena of a column that
    /// is `Str` by now once, where appends would regrow it by doubling.
    pub fn reserve_str_bytes(&mut self, n: usize) {
        if let Column::Str { bytes, .. } = &mut self.0 {
            bytes.reserve(n);
        }
    }

    /// True once cells of two types were pushed: the column is `Mixed`
    /// and stays so.
    pub fn is_mixed(&self) -> bool {
        matches!(self.0, Column::Mixed(_))
    }

    /// The finished column.
    pub fn finish(self) -> Column {
        self.0
    }
}

impl Batch {
    /// Converts rows to columns. Returns `None` when the records do not
    /// share one arity (the row path handles ragged data).
    pub fn from_records(records: &[Record]) -> Option<Batch> {
        Batch::from_rows(records)
    }

    /// [`Batch::from_records`] over records or references to them.
    pub fn from_rows<R: Borrow<Record>>(records: &[R]) -> Option<Batch> {
        let Some(first) = records.first() else {
            return Some(Batch {
                len: 0,
                columns: Vec::new(),
            });
        };
        let arity = first.borrow().arity();
        if records.iter().any(|r| r.borrow().arity() != arity) {
            return None;
        }
        let columns = (0..arity)
            .map(|c| {
                Arc::new(Column::from_values(
                    records
                        .iter()
                        .map(|r| r.borrow().get(c).expect("arity checked").clone())
                        .collect(),
                ))
            })
            .collect();
        Some(Batch {
            len: records.len(),
            columns,
        })
    }

    /// Builds a batch directly from columns (test / kernel use).
    ///
    /// # Panics
    ///
    /// Panics if the columns disagree on length.
    pub fn from_columns(columns: Vec<Column>, len: usize) -> Batch {
        for c in &columns {
            assert_eq!(c.len(), len, "column length mismatch");
        }
        Batch {
            len,
            columns: columns.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns (the uniform record arity).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column `c`, if present.
    pub fn column(&self, c: usize) -> Option<&Column> {
        self.columns.get(c).map(Arc::as_ref)
    }

    /// Replaces column `c` with `f` of it, copy-on-write: a column another
    /// batch shares is copied first, and the copy moves through `f`, so a
    /// same-layout edit of a column this batch alone holds happens in
    /// place and no other holder sees it.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or `f` changes the column's length.
    pub fn map_column(&mut self, c: usize, f: impl FnOnce(Column) -> Column) {
        let column = Arc::make_mut(&mut self.columns[c]);
        *column = f(std::mem::replace(column, Column::Mixed(Vec::new())));
        assert_eq!(column.len(), self.len, "column length mismatch");
    }

    /// Materializes row `row` as a [`Record`].
    pub fn row(&self, row: usize) -> Record {
        stats::count(Counter::RowsMaterialized, 1);
        self.build_row(row)
    }

    /// Converts the batch back to rows; inverse of [`Batch::from_records`].
    pub fn to_records(&self) -> Vec<Record> {
        stats::count(Counter::RowsMaterialized, self.len as u64);
        (0..self.len).map(|i| self.build_row(i)).collect()
    }

    /// [`Batch::row`] without the materialization count; callers count
    /// their rows in bulk.
    fn build_row(&self, row: usize) -> Record {
        Record::new(self.columns.iter().map(|c| c.value_at(row)).collect())
    }

    /// Appends [`Record::write_canonical`]'s encoding of row `row` —
    /// byte-identical to materializing the row first, without doing so.
    pub fn write_row_canonical(&self, row: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.columns.len() as u64).to_be_bytes());
        for c in &self.columns {
            c.write_canonical(row, out);
        }
    }

    /// Appends row `row` as a report line without its line end: the
    /// cells as [`Value`]'s `Display` writes them, comma-separated —
    /// byte-identical to formatting [`Batch::row`], without building it
    /// (a bag cell alone builds its members).
    pub fn write_row_text(&self, row: usize, out: &mut String) {
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_text(row, out);
        }
    }

    /// Appends the canonical encoding of the single cell `(row, col)`;
    /// the shuffle uses this to hash partition keys without materializing
    /// them. Out-of-range columns encode as null, matching
    /// `record.get(col).unwrap_or(&Value::Null)`.
    pub fn write_value_canonical(&self, row: usize, col: usize, out: &mut Vec<u8>) {
        match self.columns.get(col) {
            Some(c) => c.write_canonical(row, out),
            None => out.push(0),
        }
    }

    /// Compares whole rows `a` and `b` in [`Record`]'s total order.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for c in &self.columns {
            let ord = c.cmp_rows(a, b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Rows selected by `indices`, in order, as a new batch.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch {
            len: indices.len(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(indices)))
                .collect(),
        }
    }

    /// The selected rows as a new batch, in the layouts [`Batch::gather`]
    /// keeps: a window of a typed column is copied slice-wise.
    pub fn select_rows(&self, rows: &Selection) -> Batch {
        Batch {
            len: rows.len(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.select(rows)))
                .collect(),
        }
    }

    /// The selected rows of `runs`, one run after another, as one new
    /// batch — equal, layouts included, to joining copies of the
    /// selections, and observationally to [`Batch::from_records`] over all
    /// the rows; the runs are read where they are and each row is copied
    /// once. Runs that select nothing are skipped (a batch of no rows has
    /// lost its schema). Returns `None` when the others' arities differ.
    pub fn concat(runs: &[(&Batch, &Selection)]) -> Option<Batch> {
        let runs: Vec<_> = runs.iter().filter(|(_, rows)| !rows.is_empty()).collect();
        let arity = runs.first().map_or(0, |(b, _)| b.arity());
        if runs.iter().any(|(b, _)| b.arity() != arity) {
            return None;
        }
        if let [(run, rows)] = runs[..] {
            return Some(run.select_rows(rows));
        }
        let column = |c: usize| {
            let parts = Vec::from_iter(runs.iter().map(|(b, r)| (&*b.columns[c], *r)));
            Arc::new(Column::concat(&parts))
        };
        Some(Batch {
            len: runs.iter().map(|(_, rows)| rows.len()).sum(),
            columns: (0..arity).map(column).collect(),
        })
    }

    /// Total payload bytes of the canonical encodings of all rows
    /// (`sum of Record::to_canonical_bytes().len()`), computed from the
    /// arenas without encoding.
    pub fn canonical_bytes(&self) -> u64 {
        self.canonical_bytes_in(&Selection::Range(0..self.len))
    }

    /// [`Batch::canonical_bytes`] of the selected rows alone — equal to
    /// `select_rows(rows).canonical_bytes()` without the copy. A bucket's
    /// were counted when its window was cut from this batch.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the batch.
    pub fn canonical_bytes_in(&self, rows: &Selection) -> u64 {
        match rows {
            Selection::Bucket(bucket) => bucket.canonical,
            rows => self.count_canonical_bytes(rows),
        }
    }

    /// [`Batch::canonical_bytes_in`] counted from the columns, a bucket's
    /// rows included.
    fn count_canonical_bytes(&self, rows: &Selection) -> u64 {
        let n = rows.len() as u64;
        // A valid typed cell is a tag and 8 bytes, a null one the tag.
        let typed = |c: &Column| 9 * n - 8 * c.nulls_in(rows);
        let mut total = 8 * n; // arity prefix per row
        for c in &self.columns {
            total += match &**c {
                Column::Int { .. } => typed(c),
                // Invalid rows hold empty ranges of the arena.
                Column::Str { offsets, .. } => {
                    let text = rows.spans().map(|s| offsets[s.end] - offsets[s.start]);
                    typed(c) + text.sum::<usize>() as u64
                }
                // Tag and member count per bag, plus every member row.
                Column::Bag {
                    offsets,
                    rows: members,
                } => {
                    let bag = |s: Range<usize>| Selection::Range(offsets[s.start]..offsets[s.end]);
                    let bytes = |s| members.canonical_bytes_in(&bag(s));
                    9 * n + rows.spans().map(bytes).sum::<u64>()
                }
                Column::Mixed(values) => rows
                    .spans()
                    .flat_map(|s| &values[s])
                    .map(|v| v.to_canonical_bytes().len() as u64)
                    .sum(),
            };
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Vectorized kernels
// ---------------------------------------------------------------------------

/// `FILTER` over a selection, in place: the rows of `rows` where
/// `predicate` is truthy, in order. Nothing is copied; the answer equals
/// filtering the materialized rows with `Expr::eval`.
pub fn select(batch: &Batch, rows: &Selection, predicate: &Expr) -> Vec<usize> {
    let keep = eval_truthy(predicate, batch, rows);
    let mut kept = Vec::with_capacity(rows.len());
    rows.for_each(|i, row| {
        if keep[i] {
            kept.push(row);
        }
    });
    kept
}

/// `FOREACH ... GENERATE` over a selection: each expression evaluated
/// over the selected rows into a dense output column — equal to
/// [`project_batch`] of the gathered rows, reading only the columns the
/// expressions name.
pub fn project(batch: &Batch, rows: &Selection, exprs: &[Expr]) -> Batch {
    Batch {
        len: rows.len(),
        columns: exprs
            .iter()
            .map(|e| Arc::new(eval_column(e, batch, rows)))
            .collect(),
    }
}

/// `FOREACH ... GENERATE` of plain columns, shared: when every expression
/// names a column of `batch` (an in-range [`Expr::Col`]), the columns so
/// named, in that order, as a batch of the input's length and row
/// numbering — each column an `Arc` clone, no row copied — read through
/// the same selection `rows`. Read through it, the batch equals
/// [`project`]'s dense copy row for row, and every reader of a
/// `(batch, selection)` pair answers alike; only the layout may differ,
/// in that a shared column keeps a null mask where no selected cell is
/// null. A bucket's canonical bytes, counted against `batch`, are
/// recounted against the picked columns. `None`, and `rows` untouched,
/// for a projection that computes anything or names a missing column.
pub fn pick(batch: &Batch, rows: &mut Selection, exprs: &[Expr]) -> Option<Batch> {
    let named = exprs.iter().map(|e| match e {
        Expr::Col(c) => batch.columns.get(*c).cloned(),
        _ => None,
    });
    let picked = Batch {
        len: batch.len,
        columns: named.collect::<Option<_>>()?,
    };
    stats::count(Counter::ColumnsShared, picked.arity() as u64);
    if let Selection::Bucket(bucket) = rows {
        bucket.canonical = picked.count_canonical_bytes(&Selection::Bucket(bucket.clone()));
    }
    Some(picked)
}

/// Vectorized `FILTER`: rows where `predicate` is truthy, in input order —
/// [`select`] over the whole batch, gathered. Output equals filtering the
/// materialized rows with `Expr::eval`.
pub fn filter_batch(batch: &Batch, predicate: &Expr) -> Batch {
    batch.gather(&select(batch, &Selection::Range(0..batch.len), predicate))
}

/// Vectorized `FOREACH ... GENERATE` (projection): [`project`] over the
/// whole batch. Output equals [`crate::interp::project_record`] applied
/// row-wise.
pub fn project_batch(batch: &Batch, exprs: &[Expr]) -> Batch {
    project(batch, &Selection::Range(0..batch.len), exprs)
}

/// FNV-1a over `bytes`: the hash of shuffle partitioning and split
/// placement, deterministic and platform-independent.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// [`fnv1a`] continued from state `h`.
const fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// [`fnv1a`]'s states after a tag byte alone, then four zero bytes, then
/// six: the rounds the tag and the leading zero bytes of a small
/// big-endian integer cost, as constants.
const fn fnv1a_zeros(tag: u8) -> [u64; 3] {
    [
        fnv1a(&[tag]),
        fnv1a(&[tag, 0, 0, 0, 0]),
        fnv1a(&[tag, 0, 0, 0, 0, 0, 0]),
    ]
}

/// [`fnv1a`] of `tag` and the eight big-endian bytes of `v` — a canonical
/// integer, or a string's length prefix — from `fnv1a_zeros(tag)`.
fn fnv1a_tagged([tag, four_zeros, six_zeros]: [u64; 3], v: u64) -> u64 {
    if v >> 16 == 0 {
        fnv1a_from(six_zeros, &(v as u16).to_be_bytes())
    } else if v >> 32 == 0 {
        fnv1a_from(four_zeros, &(v as u32).to_be_bytes())
    } else {
        fnv1a_from(tag, &v.to_be_bytes())
    }
}

/// The reduce partition, of `n`, of each selected row under a shuffle on
/// column `key`: `fnv1a` of the key cell's canonical encoding
/// ([`Batch::write_value_canonical`]), modulo `n`. A typed key is hashed
/// straight out of its column — the rounds of the tag byte and of an
/// integer's leading zero bytes are constants — and every other layout,
/// like a key past the arity, through the encoding itself.
pub fn shuffle_buckets(batch: &Batch, rows: &Selection, key: usize, n: usize) -> Vec<usize> {
    let mut buckets = Vec::with_capacity(rows.len());
    route_by_key(batch, rows, key, n, |_, bucket| buckets.push(bucket));
    buckets
}

/// The `n` reduce partitions of the selected rows under a shuffle on
/// column `key`, each row in its [`shuffle_buckets`] partition and each
/// partition's rows in order. Up to [`MAX_BYTE_BUCKETS`] partitions are
/// [`Selection::Bucket`]s of one array of a byte per row of the
/// selection's hull, written as the keys are hashed; more are lists of row
/// ids.
pub fn shuffle_partitions(batch: &Batch, rows: &Selection, key: usize, n: usize) -> Vec<Selection> {
    if n > MAX_BYTE_BUCKETS {
        return listed(rows, &shuffle_buckets(batch, rows, key, n), n);
    }
    cut(batch, rows, n, |cut| {
        route_by_key(batch, rows, key, n, |row, bucket| cut.put(row, bucket))
    })
}

/// Calls `put(row, partition)` for every selected row, in order, with its
/// [`shuffle_buckets`] partition.
fn route_by_key(
    batch: &Batch,
    rows: &Selection,
    key: usize,
    n: usize,
    mut put: impl FnMut(usize, usize),
) {
    const NULL: u64 = fnv1a(&[0]);
    const INT: [u64; 3] = fnv1a_zeros(1);
    const STR: [u64; 3] = fnv1a_zeros(2);
    // `h % n` without the division where `n` is a power of two.
    let low_bits = n.is_power_of_two().then(|| n as u64 - 1);
    let bucket = |h: u64| low_bits.map_or_else(|| h % n as u64, |bits| h & bits) as usize;
    // A null cell (whose slot holds a zero, or no text) hashes as its tag.
    let nulls = batch.column(key).and_then(Column::mask);
    let cell = |row: usize, h: u64| {
        bucket(if nulls.is_none_or(|m| m[row]) {
            h
        } else {
            NULL
        })
    };
    match batch.column(key) {
        Some(Column::Int { values, .. }) => {
            rows.for_each(|_, row| put(row, cell(row, fnv1a_tagged(INT, values[row] as u64))))
        }
        Some(Column::Str { bytes, offsets, .. }) => rows.for_each(|_, row| {
            let text = &bytes[offsets[row]..offsets[row + 1]];
            put(
                row,
                cell(row, fnv1a_from(fnv1a_tagged(STR, text.len() as u64), text)),
            )
        }),
        _ => {
            let mut buf = Vec::new();
            rows.for_each(|_, row| {
                buf.clear();
                batch.write_value_canonical(row, key, &mut buf);
                put(row, bucket(fnv1a(&buf)))
            })
        }
    }
}

/// Vectorized `ORDER BY`: sorts by the key column (nulls first for
/// ascending, mirroring [`Value`]'s order) with the whole row as the
/// tie-break. Output equals [`crate::interp::order_records_owned`].
pub fn order_batch(batch: &Batch, key: usize, order: SortOrder) -> Batch {
    batch.gather(&sorted_indices(batch, key, order, true).0)
}

/// Row indices of `batch` sorted by the key column in `order` and, when
/// `tie_break`, by every other column (always ascending) among rows that
/// tie — with the position at which each run of equal keys starts.
///
/// A refinement, one column at a time: the permutation starts as one run
/// of all rows; each pass sorts every still-tied run by one column alone
/// and splits it into its sub-runs of equal cells, and only runs of more
/// than one row go on to the next column. Rows still tied after the last
/// column are byte-identical, so the unstable sorts cannot show. Without
/// `tie_break` the rows of a key run are in no particular order.
fn sorted_indices(
    batch: &Batch,
    key: usize,
    order: SortOrder,
    tie_break: bool,
) -> (Vec<usize>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..batch.len).collect();
    let mut tied: Vec<Range<usize>> = Vec::from_iter((batch.len > 0).then_some(0..batch.len));
    // An out-of-range key column means every key is null: one run.
    if let Some(c) = batch.column(key) {
        tied = c.refine(order, &mut perm, &tied);
    }
    let key_runs = tied.iter().map(|run| run.start).collect();
    if tie_break {
        for (_, c) in batch.columns.iter().enumerate().filter(|(c, _)| *c != key) {
            tied.retain(|run| run.len() > 1);
            if tied.is_empty() {
                break;
            }
            tied = c.refine(SortOrder::Asc, &mut perm, &tied);
        }
    }
    (perm, key_runs)
}

impl Column {
    /// One pass of [`sorted_indices`]: sorts each of `runs` (non-empty
    /// position ranges of `perm`) by this column alone, in [`Value`]'s
    /// total order, and returns their sub-runs of equal cells.
    fn refine(
        &self,
        order: SortOrder,
        perm: &mut [usize],
        runs: &[Range<usize>],
    ) -> Vec<Range<usize>> {
        /// Splits `run` before every position (relative to its start)
        /// whose row `differs` from the one before it.
        fn split(run: &Range<usize>, differs: impl Fn(usize) -> bool, out: &mut Vec<Range<usize>>) {
            let mut start = run.start;
            for cut in (1..run.len()).filter(|&i| differs(i)) {
                out.push(start..run.start + cut);
                start = run.start + cut;
            }
            out.push(start..run.end);
        }
        let mut sub_runs = Vec::new();
        match self {
            // Integers without a null ride along with their row index as
            // order-preserving `u64` images (sign bit flipped; every bit
            // flipped to descend), so the comparison touches no column.
            Column::Int {
                values,
                validity: None,
            } => {
                let flip = match order {
                    SortOrder::Asc => 1 << 63,
                    SortOrder::Desc => !(1u64 << 63),
                };
                let mut keyed: Vec<(u64, usize)> = Vec::new();
                for run in runs {
                    keyed.clear();
                    let rows = &mut perm[run.clone()];
                    keyed.extend(rows.iter().map(|&row| (values[row] as u64 ^ flip, row)));
                    keyed.sort_unstable_by_key(|&(image, _)| image);
                    for (slot, &(_, row)) in rows.iter_mut().zip(&keyed) {
                        *slot = row;
                    }
                    split(run, |i| keyed[i].0 != keyed[i - 1].0, &mut sub_runs);
                }
            }
            _ => {
                for run in runs {
                    let rows = &mut perm[run.clone()];
                    rows.sort_unstable_by(|&a, &b| match order {
                        SortOrder::Asc => self.cmp_rows(a, b),
                        SortOrder::Desc => self.cmp_rows(b, a),
                    });
                    let differs = |i: usize| self.cmp_rows(rows[i - 1], rows[i]) != Ordering::Equal;
                    split(run, differs, &mut sub_runs);
                }
            }
        }
        sub_runs
    }
}

/// Vectorized `GROUP BY`: one `[key, bag]` row per distinct key, ordered
/// by key, each bag in canonical (whole-row) order and held in a
/// [`Column::Bag`] — no record is built. `to_records()` of the result
/// equals [`crate::interp::group_records`].
pub fn group_batch(batch: &Batch, key: usize) -> Batch {
    // Sorted by (key, whole row), groups are runs, each already in
    // canonical bag order. The run starts are the bag offsets, and the
    // first row of each run supplies the group key.
    let (indices, mut offsets) = sorted_indices(batch, key, SortOrder::Asc, true);
    let firsts: Vec<usize> = offsets.iter().map(|&start| indices[start]).collect();
    offsets.push(indices.len());
    let keys = match batch.column(key) {
        Some(c) => c.gather(&firsts),
        None => all_null(firsts.len()),
    };
    let bags = Column::Bag {
        offsets,
        rows: Box::new(batch.gather(&indices)),
    };
    Batch {
        len: firsts.len(),
        columns: vec![Arc::new(keys), Arc::new(bags)],
    }
}

/// What one group has seen of one integer field: enough to answer `SUM`,
/// `MIN`, `MAX` and `AVG` as [`AggFunc::fold_ints`] does.
#[derive(Clone, Copy, Default)]
struct IntFold {
    seen: i64,
    sum: i64,
    min: i64,
    max: i64,
}

impl IntFold {
    fn feed(&mut self, v: i64) {
        (self.min, self.max) = match self.seen {
            0 => (v, v),
            _ => (self.min.min(v), self.max.max(v)),
        };
        self.seen += 1;
        self.sum = self.sum.wrapping_add(v);
    }
}

/// `GROUP` by `plan.key` and the all-algebraic `FOREACH` after it, fused:
/// one `[slot…]` row per distinct key of the selected rows of `runs` (of
/// one arity; runs that select nothing are skipped), ordered by key —
/// equal, column layouts included, to [`project_batch`] of [`group_batch`]
/// of [`Batch::concat`] of the runs, with no run joined and no bag built:
/// the rows are read in place, once ([`fold_groups`]). Where the key
/// column is `Int` and no selected key is null in every run, a row finds
/// its group by one hash probe
/// ([`IntGroups`]) and nothing the size of the partition is allocated; the
/// distinct keys are sorted at the end, so the output's order is the key
/// sort's, never the table's. Every other layout (`Str`, `Mixed`, a
/// selected null, runs that disagree, a key past the arity) takes the
/// exact path: the selected key cells alone are joined, and the groups
/// are the runs of equal keys [`sorted_indices`] finds.
pub fn group_aggregate<'a>(runs: &[(&'a Batch, &Selection)], plan: &Combiner) -> Batch {
    let runs = Vec::from_iter(runs.iter().copied().filter(|(_, r)| !r.is_empty()));
    let int_keys = runs.iter().map(|(b, rows)| match b.column(plan.key) {
        Some(c @ Column::Int { values, .. }) if c.nulls_in(rows) == 0 => Some(&values[..]),
        _ => None,
    });
    // The key column in key order, the groups (numbered as `fold_groups`
    // was told them) listed in that order, and what each counted and folded.
    let (keys, order, (counts, folds)) = match int_keys.collect::<Option<Vec<_>>>() {
        Some(parts) => {
            let mut groups = IntGroups::default();
            let folded = fold_groups(&runs, plan, |run, row| groups.of(parts[run][row]));
            let mut order: Vec<usize> = (0..groups.keys.len()).collect();
            order.sort_unstable_by_key(|&g| groups.keys[g]);
            let keys = Column::Int {
                values: order.iter().map(|&g| groups.keys[g]).collect(),
                validity: None,
            };
            (keys, order, folded)
        }
        None => {
            let key = |(b, r): &(&'a Batch, _)| Some((b.column(plan.key)?, *r));
            let parts = Vec::from_iter(runs.iter().filter_map(key));
            let joined = Batch {
                len: runs.iter().map(|(_, rows)| rows.len()).sum(),
                columns: Vec::from_iter(
                    (!parts.is_empty()).then(|| Arc::new(Column::concat(&parts))),
                ),
            };
            let (perm, mut starts) = sorted_indices(&joined, 0, SortOrder::Asc, false);
            let firsts: Vec<usize> = starts.iter().map(|&start| perm[start]).collect();
            starts.push(joined.len);
            let mut ids = vec![0; joined.len];
            for (g, run) in starts.windows(2).enumerate() {
                perm[run[0]..run[1]].iter().for_each(|&row| ids[row] = g);
            }
            let keys = match joined.column(0) {
                Some(c) => c.gather(&firsts),
                None => int_column(vec![None; firsts.len()]),
            };
            let order = (0..firsts.len()).collect();
            let mut ids = ids.into_iter();
            let folded = fold_groups(&runs, plan, |_, _| ids.next().unwrap_or_default());
            (keys, order, folded)
        }
    };
    let column = |(slot, fold): (&CombineSlot, &Vec<IntFold>)| {
        let read = |f: fn(&IntFold) -> Option<i64>| {
            int_column(order.iter().map(|&g| f(&fold[g])).collect())
        };
        Arc::new(match slot {
            // A copy, not a share: shared, `keys` stays alive among the
            // kernel's scratch (the key table, the order), which is then
            // freed around it rather than in one piece under the copy;
            // on the follower run that raised peak RSS by 5%.
            CombineSlot::Key => keys.clone(),
            CombineSlot::Count => Column::Int {
                values: order.iter().map(|&g| counts[g]).collect(),
                validity: None,
            },
            CombineSlot::Sum { .. } => read(|f| Some(f.sum)),
            CombineSlot::Min { .. } => read(|f| (f.seen > 0).then_some(f.min)),
            CombineSlot::Max { .. } => read(|f| (f.seen > 0).then_some(f.max)),
            CombineSlot::Avg { .. } => read(|f| (f.seen > 0).then(|| f.sum / f.seen)),
        })
    };
    Batch {
        len: order.len(),
        columns: plan.slots.iter().zip(&folds).map(column).collect(),
    }
}

/// One pass over the selected rows of `runs`, each in group `group(run,
/// row)`: per group its rows counted and, per slot of `plan` that
/// aggregates a field (the other slots' lists stay empty), that field
/// folded. A field past the arity, like a string or null cell, feeds nothing.
fn fold_groups(
    runs: &[(&Batch, &Selection)],
    plan: &Combiner,
    mut group: impl FnMut(usize, usize) -> usize,
) -> (Vec<i64>, Vec<Vec<IntFold>>) {
    let (mut counts, mut folds) = (Vec::new(), vec![Vec::new(); plan.slots.len()]);
    for (r, (run, rows)) in runs.iter().enumerate() {
        let fed = folds.iter_mut().zip(&plan.slots);
        let fed = fed.filter_map(|(fold, slot)| Some((fold, run.column(slot.field()?))));
        let mut fed: Vec<(&mut Vec<IntFold>, Option<&Column>)> = fed.collect();
        rows.for_each(|_, row| {
            let g = group(r, row);
            if g >= counts.len() {
                counts.resize(g + 1, 0);
                fed.iter_mut()
                    .for_each(|(fold, _)| fold.resize(g + 1, IntFold::default()));
            }
            counts[g] += 1;
            for (fold, column) in &mut fed {
                if let Some(v) = column.and_then(|c| c.int_at(row)) {
                    fold[g].feed(v);
                }
            }
        });
    }
    (counts, folds)
}

/// Integer keys numbered as first seen, by one probe per key of an
/// open-addressing table (linear probing, at most half full, a slot holding
/// a group's number) that grows with the groups, not the rows.
#[derive(Default)]
struct IntGroups {
    slots: Vec<usize>,
    keys: Vec<i64>,
}

impl IntGroups {
    /// A slot no group is in. Not zero: a table filled with it is written
    /// when it is made, and a page first written costs one fault where a
    /// zeroed page first read and then written costs two.
    const FREE: usize = usize::MAX;

    /// The slot `key` is in, or the free one it goes to.
    fn slot_of(&self, key: i64) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while self.slots[i] != Self::FREE && self.keys[self.slots[i]] != key {
            i = (i + 1) & (self.slots.len() - 1);
        }
        i
    }

    /// The group of `key`, a new one if it is the first of its kind.
    fn of(&mut self, key: i64) -> usize {
        if 2 * self.keys.len() >= self.slots.len() {
            self.slots = vec![Self::FREE; (2 * self.slots.len()).max(1024)];
            for g in 0..self.keys.len() {
                let i = self.slot_of(self.keys[g]);
                self.slots[i] = g;
            }
        }
        let i = self.slot_of(key);
        if self.slots[i] == Self::FREE {
            self.slots[i] = self.keys.len();
            self.keys.push(key);
        }
        self.slots[i]
    }
}

/// Vectorized equi-`JOIN`: concatenated matching rows in canonical order;
/// null keys never match. Matches are collected as `(left, right)` row
/// pairs, sorted, and gathered once per side. `to_records()` of the
/// result equals [`crate::interp::join_records`].
pub fn join_batch(left: &Batch, left_key: usize, right: &Batch, right_key: usize) -> Batch {
    let mut by_key: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
    if let Some(rk) = right.column(right_key) {
        for row in 0..right.len {
            if rk.is_valid(row) {
                by_key.entry(rk.value_at(row)).or_default().push(row);
            }
        }
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    if let Some(lk) = left.column(left_key) {
        for row in 0..left.len {
            if !lk.is_valid(row) {
                continue;
            }
            lk.with_value(row, |k| {
                if let Some(matches) = by_key.get(k) {
                    pairs.extend(matches.iter().map(|&r| (row, r)));
                }
            });
        }
    }
    // Both sides have uniform arity, so the concatenated records order as
    // (left row, right row).
    pairs.sort_unstable_by(|&(la, ra), &(lb, rb)| {
        left.cmp_rows(la, lb).then_with(|| right.cmp_rows(ra, rb))
    });
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
    let mut columns = left.gather(&left_rows).columns;
    columns.extend(right.gather(&right_rows).columns);
    Batch {
        len: left_rows.len(),
        columns,
    }
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------------

/// Evaluates `expr` over the selected rows of `batch`, producing a dense
/// output column of `rows.len()` cells. Equal to evaluating row-wise with
/// [`Expr::eval`] and collecting (pinned by tests); only the columns the
/// expression names are read, in place, and comparisons, arithmetic and
/// logic over typed columns run as monomorphic loops.
pub fn eval_column(expr: &Expr, batch: &Batch, rows: &Selection) -> Column {
    let n = rows.len();
    match expr {
        Expr::Col(i) => batch
            .column(*i)
            .map_or_else(|| all_null(n), |c| c.select(rows)),
        Expr::IntLit(v) => Column::Int {
            values: vec![*v; n],
            validity: None,
        },
        Expr::NullLit => all_null(n),
        Expr::StrLit(s) => Column::Str {
            bytes: s.as_bytes().repeat(n),
            offsets: (0..=n).map(|i| i * s.len()).collect(),
            validity: None,
        },
        Expr::Arith(op, l, r) => {
            let (lc, rc) = (Cells::of(l, batch, rows), Cells::of(r, batch, rows));
            int_column(rows.map(|i, row| op.apply_ints(lc.int_at(i, row)?, rc.int_at(i, row)?)))
        }
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(_) | Expr::IsNull(_) => {
            Column::Int {
                values: eval_truthy(expr, batch, rows)
                    .into_iter()
                    .map(i64::from)
                    .collect(),
                validity: None,
            }
        }
        Expr::Agg {
            func,
            bag_col,
            field,
        } => match batch.column(*bag_col) {
            Some(Column::Bag {
                offsets,
                rows: members,
            }) => agg_bags(*func, offsets, members, *field, rows),
            // Bags that arrived as values: aggregate each cell in place.
            Some(c) => Column::from_values(
                rows.map(|_, row| c.with_value(row, |cell| eval_agg(*func, cell, *field))),
            ),
            None => all_null(n),
        },
    }
}

/// Aggregates the selected bags of a [`Column::Bag`] straight from the
/// member batch; equal, row for row, to [`Expr::eval`] on the
/// materialized bags.
fn agg_bags(
    func: AggFunc,
    offsets: &[usize],
    members: &Batch,
    field: Option<usize>,
    rows: &Selection,
) -> Column {
    if func == AggFunc::Count {
        return Column::Int {
            values: rows.map(|_, row| (offsets[row + 1] - offsets[row]) as i64),
            validity: None,
        };
    }
    let Some(field) = field else {
        return all_null(rows.len());
    };
    // A field past the member arity contributes no integers, like a
    // string or null field.
    let member = members.column(field);
    int_column(rows.map(|_, row| {
        let bag = offsets[row]..offsets[row + 1];
        func.fold_ints(bag.filter_map(|i| member.and_then(|c| c.int_at(i))))
    }))
}

/// An operand read cell by cell: a column of the batch, in place at the
/// selected rows, or a computed one, by position.
struct Cells<'a> {
    column: Cow<'a, Column>,
    in_place: bool,
}

impl<'a> Cells<'a> {
    fn of(expr: &Expr, batch: &'a Batch, rows: &Selection) -> Cells<'a> {
        let named = match expr {
            Expr::Col(c) => batch.column(*c),
            _ => None,
        };
        Cells {
            column: named.map_or_else(|| Cow::Owned(eval_column(expr, batch, rows)), Cow::Borrowed),
            in_place: named.is_some(),
        }
    }

    /// Where the cell of the `i`-th selected row, `row`, is.
    fn at(&self, i: usize, row: usize) -> usize {
        if self.in_place {
            row
        } else {
            i
        }
    }

    fn int_at(&self, i: usize, row: usize) -> Option<i64> {
        self.column.int_at(self.at(i, row))
    }
}

/// The truthiness mask of `expr` over the selected rows of `batch`
/// (non-zero integers), one flag per selected row.
fn eval_truthy(expr: &Expr, batch: &Batch, rows: &Selection) -> Vec<bool> {
    let both = |l: &Expr, r: &Expr, f: fn(bool, bool) -> bool| -> Vec<bool> {
        let (lm, rm) = (eval_truthy(l, batch, rows), eval_truthy(r, batch, rows));
        lm.into_iter().zip(rm).map(|(a, b)| f(a, b)).collect()
    };
    match expr {
        Expr::Cmp(op, l, r) => {
            let (lc, rc) = (Cells::of(l, batch, rows), Cells::of(r, batch, rows));
            match (&*lc.column, &*rc.column) {
                (Column::Int { .. }, Column::Int { .. }) => {
                    rows.map(|i, row| op.apply_ord(lc.int_at(i, row).cmp(&rc.int_at(i, row))))
                }
                (Column::Str { .. }, Column::Str { .. }) => rows.map(|i, row| {
                    let (a, b) = (lc.at(i, row), rc.at(i, row));
                    op.apply_ord(lc.column.str_bytes_at(a).cmp(&rc.column.str_bytes_at(b)))
                }),
                _ => rows.map(|i, row| {
                    let (a, b) = (lc.at(i, row), rc.at(i, row));
                    (lc.column)
                        .with_value(a, |a| rc.column.with_value(b, |b| op.apply_ord(a.cmp(b))))
                }),
            }
        }
        Expr::And(l, r) => both(l, r, |a, b| a && b),
        Expr::Or(l, r) => both(l, r, |a, b| a || b),
        Expr::Not(e) => {
            let mut mask = eval_truthy(e, batch, rows);
            mask.iter_mut().for_each(|v| *v = !*v);
            mask
        }
        Expr::IsNull(e) => {
            let c = Cells::of(e, batch, rows);
            match c.column.mask() {
                // A typed column's nulls are its mask.
                Some(mask) => rows.map(|i, row| !mask[c.at(i, row)]),
                None => rows.map(|i, row| !c.column.is_valid(c.at(i, row))),
            }
        }
        _ => {
            let c = Cells::of(expr, batch, rows);
            rows.map(|i, row| c.int_at(i, row).is_some_and(|v| v != 0))
        }
    }
}

/// An `Int` column of `cells`, `None` a null; masked only if one is.
fn int_column(cells: Vec<Option<i64>>) -> Column {
    Column::Int {
        values: cells.iter().map(|c| c.unwrap_or(0)).collect(),
        validity: holding_a_null(Some(cells.iter().map(Option::is_some).collect())),
    }
}

fn all_null(n: usize) -> Column {
    Column::Int {
        values: vec![0; n],
        validity: Some(vec![false; n]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, EvalContext};
    use crate::interp::{group_records, join_records, order_records, project_record};

    fn whole(batch: &Batch) -> Selection {
        Selection::Range(0..batch.len())
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::new(vec![Value::Int(3), Value::str("carol"), Value::Null]),
            Record::new(vec![Value::Int(1), Value::str("alice"), Value::Int(9)]),
            Record::new(vec![Value::Null, Value::str(""), Value::Int(-2)]),
            Record::new(vec![Value::Int(1), Value::Null, Value::Int(7)]),
            Record::new(vec![
                Value::Int(2),
                Value::str("bob"),
                Value::Bag(vec![Record::new(vec![Value::Int(5)])]),
            ]),
        ]
    }

    #[test]
    fn round_trip_is_identity() {
        let records = sample_records();
        let batch = Batch::from_records(&records).expect("uniform arity");
        assert_eq!(batch.len(), records.len());
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.to_records(), records);
    }

    #[test]
    fn ragged_arity_is_rejected() {
        let records = vec![
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Int(1), Value::Int(2)]),
        ];
        assert!(Batch::from_records(&records).is_none());
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = Batch::from_records(&[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.to_records(), Vec::<Record>::new());
    }

    #[test]
    fn typed_columns_are_chosen() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        assert!(matches!(batch.column(0), Some(Column::Int { .. })));
        assert!(matches!(batch.column(1), Some(Column::Str { .. })));
        assert!(
            matches!(batch.column(2), Some(Column::Mixed(_))),
            "bag forces fallback"
        );
    }

    #[test]
    fn canonical_encoding_matches_rows() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        let mut total = 0u64;
        for (i, r) in records.iter().enumerate() {
            let mut from_batch = Vec::new();
            batch.write_row_canonical(i, &mut from_batch);
            let from_row = r.to_canonical_bytes();
            assert_eq!(from_batch, from_row, "row {i}");
            total += from_row.len() as u64;
        }
        assert_eq!(batch.canonical_bytes(), total);
    }

    #[test]
    fn cell_encoding_matches_value() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        for (i, r) in records.iter().enumerate() {
            for c in 0..4 {
                let mut from_batch = Vec::new();
                batch.write_value_canonical(i, c, &mut from_batch);
                let expected = r.get(c).unwrap_or(&Value::Null).to_canonical_bytes();
                assert_eq!(from_batch, expected, "row {i} col {c}");
            }
        }
    }

    #[test]
    fn filter_matches_row_kernel() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        let pred = Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::IntLit(2));
        let expected: Vec<Record> = records
            .iter()
            .filter(|r| pred.eval(&EvalContext::new(r)).is_truthy())
            .cloned()
            .collect();
        assert_eq!(filter_batch(&batch, &pred).to_records(), expected);

        let null_pred = Expr::is_not_null(Expr::Col(2));
        let expected: Vec<Record> = records
            .iter()
            .filter(|r| null_pred.eval(&EvalContext::new(r)).is_truthy())
            .cloned()
            .collect();
        assert_eq!(filter_batch(&batch, &null_pred).to_records(), expected);
    }

    #[test]
    fn project_matches_row_kernel() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        let exprs = vec![
            Expr::Col(1),
            Expr::arith(crate::expr::ArithOp::Add, Expr::Col(0), Expr::IntLit(10)),
            Expr::cmp(CmpOp::Eq, Expr::Col(1), Expr::StrLit("bob".into())),
            Expr::IsNull(Box::new(Expr::Col(2))),
        ];
        let expected: Vec<Record> = records.iter().map(|r| project_record(r, &exprs)).collect();
        assert_eq!(project_batch(&batch, &exprs).to_records(), expected);
    }

    /// Forty rows: an `Int` key with nulls, a `Str` with nulls, a plain
    /// `Int`, and a `Mixed` column (a bag among integers).
    fn shared_sample() -> Batch {
        let records: Vec<Record> = (0..40i64)
            .map(|i| {
                let key = if i % 6 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 5)
                };
                let text = if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::str(format!("t{}", i % 4))
                };
                let mixed = match i % 9 {
                    0 => Value::Bag(vec![Record::new(vec![Value::Int(i)])]),
                    _ => Value::Int(-i),
                };
                Record::new(vec![key, text, Value::Int(i), mixed])
            })
            .collect();
        Batch::from_records(&records).unwrap()
    }

    #[test]
    fn a_plain_column_projection_shares_its_columns_under_every_selection() {
        let batch = shared_sample();
        let filtered = Selection::Rows((3..37).filter(|r| r % 4 != 1).collect());
        let buckets = shuffle_partitions(&batch, &filtered, 0, 3);
        let mut selections = vec![Selection::Range(5..31), filtered.clone()];
        selections.extend(buckets);
        // Reordered and duplicated columns share alike.
        let exprs = [Expr::Col(3), Expr::Col(1), Expr::Col(0), Expr::Col(1)];
        for rows in selections {
            let dense = project(&batch, &rows, &exprs);
            let mut picked_rows = rows.clone();
            let shared = stats::total(Counter::ColumnsShared);
            let picked = pick(&batch, &mut picked_rows, &exprs).expect("plain columns");
            // Other test threads may count too, so at least this one's.
            assert!(stats::total(Counter::ColumnsShared) >= shared + 4);
            let ctx = format!("{rows:?}");
            assert_eq!((picked.len(), picked.arity()), (batch.len(), 4), "{ctx}");
            for (c, e) in exprs.iter().enumerate() {
                let Expr::Col(i) = e else { unreachable!() };
                assert!(Arc::ptr_eq(&picked.columns[c], &batch.columns[*i]), "{ctx}");
            }
            assert_eq!(picked_rows.map(|_, r| r), rows.map(|_, r| r), "{ctx}");
            let read: Vec<Record> = picked_rows.map(|_, r| picked.row(r));
            assert_eq!(read, dense.to_records(), "{ctx}");
            assert_eq!(
                picked.canonical_bytes_in(&picked_rows),
                dense.canonical_bytes(),
                "{ctx}"
            );
            assert_eq!(
                picked.select_rows(&picked_rows).to_records(),
                dense.to_records(),
                "{ctx}"
            );
        }
    }

    #[test]
    fn a_projection_that_computes_or_names_a_missing_column_stays_dense() {
        let batch = shared_sample();
        let arith = Expr::arith(crate::expr::ArithOp::Add, Expr::Col(0), Expr::IntLit(1));
        for exprs in [
            vec![Expr::Col(0), Expr::Col(9)],
            vec![Expr::Col(2), arith],
            vec![Expr::IntLit(4)],
        ] {
            let mut rows = Selection::Rows(vec![1, 4, 9]);
            assert_eq!(pick(&batch, &mut rows, &exprs), None, "{exprs:?}");
            assert_eq!(rows, Selection::Rows(vec![1, 4, 9]), "{exprs:?}");
        }
        // A column past the arity reads as nulls, as it always has.
        let dense = project(&batch, &Selection::Range(0..3), &[Expr::Col(9)]);
        assert_eq!(dense.to_records(), vec![Record::new(vec![Value::Null]); 3]);
    }

    #[test]
    fn map_column_copies_a_shared_column_before_it_changes() {
        let batch = shared_sample();
        let before = batch.to_records();
        let mut rows = Selection::Range(0..batch.len());
        let mut picked = pick(&batch, &mut rows, &[Expr::Col(2), Expr::Col(0)]).unwrap();
        let other = picked.clone();
        picked.map_column(0, |c| match c {
            Column::Int { values, validity } => Column::Int {
                values: values.iter().map(|v| v + 100).collect(),
                validity,
            },
            other => other,
        });
        assert_eq!(
            picked.row(3),
            Record::new(vec![Value::Int(103), Value::Int(3)])
        );
        // Every other holder reads what it read before.
        assert_eq!(batch.to_records(), before);
        assert_eq!(
            other.row(3),
            Record::new(vec![Value::Int(3), Value::Int(3)])
        );
        assert!(Arc::ptr_eq(&other.columns[0], &batch.columns[2]));
        assert!(!Arc::ptr_eq(&picked.columns[0], &batch.columns[2]));
        // The untouched column is still shared; a column one batch alone
        // holds is edited where it is.
        assert!(Arc::ptr_eq(&picked.columns[1], &batch.columns[0]));
        let alone = Arc::as_ptr(&picked.columns[0]);
        picked.map_column(0, |c| c);
        assert_eq!(Arc::as_ptr(&picked.columns[0]), alone);
    }

    #[test]
    fn order_matches_row_kernel() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        for key in 0..3 {
            for order in [SortOrder::Asc, SortOrder::Desc] {
                let expected = order_records(&records, key, order);
                assert_eq!(
                    order_batch(&batch, key, order).to_records(),
                    expected,
                    "key {key} order {order:?}"
                );
            }
        }
    }

    #[test]
    fn group_matches_row_kernel() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        for key in 0..3 {
            assert_eq!(
                group_batch(&batch, key).to_records(),
                group_records(&records, key),
                "key {key}"
            );
        }
        // Key column out of range: every key is null, one group.
        let all = group_batch(&batch, 9);
        assert_eq!(all.len(), 1);
        assert_eq!(all.to_records(), group_records(&records, 9));
        let empty = Batch::from_records(&[]).unwrap();
        assert_eq!(group_batch(&empty, 0).to_records(), Vec::<Record>::new());
    }

    /// `sample_records()` grouped by column 0, once nested (`Column::Bag`)
    /// and once as the rows it must be indistinguishable from.
    fn grouped_sample() -> (Batch, Vec<Record>) {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        (group_batch(&batch, 0), group_records(&records, 0))
    }

    #[test]
    fn group_output_is_nested_and_materializes_only_on_demand() {
        let (grouped, rows) = grouped_sample();
        assert_eq!(grouped.len(), rows.len());
        assert_eq!(grouped.arity(), 2);
        assert!(matches!(grouped.column(1), Some(Column::Bag { .. })));
        let before = stats::thread_total(Counter::RowsMaterialized);
        let mut buf = Vec::new();
        for i in 0..grouped.len() {
            grouped.write_row_canonical(i, &mut buf);
        }
        let _ = grouped.canonical_bytes();
        let _ = eval_column(
            &Expr::Agg {
                func: AggFunc::Count,
                bag_col: 1,
                field: None,
            },
            &grouped,
            &whole(&grouped),
        );
        assert_eq!(
            stats::thread_total(Counter::RowsMaterialized),
            before,
            "no row built"
        );
        let _ = grouped.to_records();
        let members: usize = rows
            .iter()
            .map(|r| r.get(1).unwrap().as_bag().unwrap().len())
            .sum();
        assert_eq!(
            stats::thread_total(Counter::RowsMaterialized) - before,
            (rows.len() + members) as u64,
            "output rows plus the members of their bags"
        );
    }

    #[test]
    fn bag_column_encoding_matches_rows() {
        let (grouped, rows) = grouped_sample();
        let mut total = 0u64;
        for (i, r) in rows.iter().enumerate() {
            let mut from_batch = Vec::new();
            grouped.write_row_canonical(i, &mut from_batch);
            assert_eq!(from_batch, r.to_canonical_bytes(), "row {i}");
            total += from_batch.len() as u64;
            let mut cell = Vec::new();
            grouped.write_value_canonical(i, 1, &mut cell);
            assert_eq!(cell, r.get(1).unwrap().to_canonical_bytes(), "bag {i}");
        }
        assert_eq!(grouped.canonical_bytes(), total);
    }

    #[test]
    fn kernels_over_a_bag_column_match_row_kernels() {
        let (grouped, rows) = grouped_sample();
        // FILTER on the key and on an aggregate of the bag.
        let count = Expr::Agg {
            func: AggFunc::Count,
            bag_col: 1,
            field: None,
        };
        for pred in [
            Expr::is_not_null(Expr::Col(0)),
            Expr::cmp(CmpOp::Ge, count, Expr::IntLit(2)),
            Expr::Col(1), // a bag is never truthy
            Expr::IsNull(Box::new(Expr::Col(1))),
        ] {
            let expected: Vec<Record> = rows
                .iter()
                .filter(|r| pred.eval(&EvalContext::new(r)).is_truthy())
                .cloned()
                .collect();
            assert_eq!(filter_batch(&grouped, &pred).to_records(), expected);
        }
        // ORDER by the bag column itself exercises Vec<Record> order.
        for key in 0..2 {
            for order in [SortOrder::Asc, SortOrder::Desc] {
                assert_eq!(
                    order_batch(&grouped, key, order).to_records(),
                    order_records(&rows, key, order),
                    "key {key} order {order:?}"
                );
            }
        }
        // GROUP by the bag column and JOIN on it: bags as keys.
        assert_eq!(
            group_batch(&grouped, 1).to_records(),
            group_records(&rows, 1)
        );
        assert_eq!(
            join_batch(&grouped, 1, &grouped, 1).to_records(),
            join_records(&rows, 1, &rows, 1)
        );
        // gather (reversed, with a repeat) and a LIMIT's prefix.
        let picks = [3usize, 1, 1, 0];
        let expected: Vec<Record> = picks.iter().map(|&i| rows[i].clone()).collect();
        assert_eq!(grouped.gather(&picks).to_records(), expected);
        for n in 0..=rows.len() {
            let mut live = whole(&grouped);
            live.truncate(n);
            let cut = grouped.gather(&live.map(|_, row| row));
            assert_eq!(cut.to_records(), rows[..n].to_vec(), "truncate {n}");
            assert_eq!(
                cut.canonical_bytes(),
                rows[..n]
                    .iter()
                    .map(|r| r.to_canonical_bytes().len() as u64)
                    .sum::<u64>()
            );
        }
        // Projecting the bag through keeps it (STORE of a grouped relation).
        let exprs = vec![Expr::Col(1), Expr::Col(0)];
        let expected: Vec<Record> = rows.iter().map(|r| project_record(r, &exprs)).collect();
        assert_eq!(project_batch(&grouped, &exprs).to_records(), expected);
    }

    #[test]
    fn aggregates_over_bag_columns_match_row_eval() {
        // Field 0: ints with a null; 1: strings with a null; 2: ints, nulls
        // and (in one group) a bag; 3: past the arity. Group by field 0 so
        // one group's field-2 column is all null / non-integer.
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        for key in 0..3 {
            let grouped = group_batch(&batch, key);
            let rows = group_records(&records, key);
            // The same bags, arriving as values: the Mixed fallback.
            let as_values = Batch::from_records(&rows).unwrap();
            assert!(matches!(as_values.column(1), Some(Column::Mixed(_))));
            for func in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ] {
                for field in [Some(0), Some(1), Some(2), Some(3), None] {
                    for bag_col in [1, 0, 5] {
                        let e = Expr::Agg {
                            func,
                            bag_col,
                            field,
                        };
                        let expected: Vec<Value> =
                            rows.iter().map(|r| e.eval(&EvalContext::new(r))).collect();
                        for (name, b) in [("nested", &grouped), ("values", &as_values)] {
                            let col = eval_column(&e, b, &whole(b));
                            let got: Vec<Value> = (0..b.len()).map(|i| col.value_at(i)).collect();
                            assert_eq!(
                                got, expected,
                                "{name} key {key} {func:?} field {field:?} bag_col {bag_col}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sum_wraps_and_avg_truncates_like_row_eval() {
        let records = vec![
            Record::new(vec![Value::Int(1), Value::Int(i64::MAX)]),
            Record::new(vec![Value::Int(1), Value::Int(2)]),
            Record::new(vec![Value::Int(2), Value::Int(-7)]),
            Record::new(vec![Value::Int(2), Value::Int(2)]),
        ];
        let grouped = group_batch(&Batch::from_records(&records).unwrap(), 0);
        let rows = group_records(&records, 0);
        for func in [AggFunc::Sum, AggFunc::Avg] {
            let e = Expr::Agg {
                func,
                bag_col: 1,
                field: Some(1),
            };
            let col = eval_column(&e, &grouped, &whole(&grouped));
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(col.value_at(i), e.eval(&EvalContext::new(r)), "{func:?}");
            }
        }
    }

    #[test]
    fn join_matches_row_kernel() {
        let left = sample_records();
        let right = vec![
            Record::new(vec![Value::Int(1), Value::str("x")]),
            Record::new(vec![Value::Int(1), Value::str("y")]),
            Record::new(vec![Value::Null, Value::str("never")]),
            Record::new(vec![Value::Int(3), Value::str("z")]),
        ];
        let lb = Batch::from_records(&left).unwrap();
        let rb = Batch::from_records(&right).unwrap();
        assert_eq!(
            join_batch(&lb, 0, &rb, 0).to_records(),
            join_records(&left, 0, &right, 0)
        );
        // Key column out of range on one side → no matches, like the row
        // kernel's unwrap_or(Null).
        assert_eq!(
            join_batch(&lb, 9, &rb, 0).to_records(),
            join_records(&left, 9, &right, 0)
        );
        assert_eq!(
            join_batch(&lb, 0, &rb, 9).to_records(),
            join_records(&left, 0, &right, 9)
        );
    }

    #[test]
    fn concat_appends_typed_columns_and_skips_empty_runs() {
        let records = sample_records();
        let runs = |cuts: &[usize]| -> Vec<Batch> {
            let mut bounds = vec![0];
            bounds.extend(cuts);
            bounds.push(records.len());
            bounds
                .windows(2)
                .map(|w| Batch::from_records(&records[w[0]..w[1]]).unwrap())
                .collect()
        };
        let every = Batch::from_records(&records).unwrap();
        // Column 2's runs are `Int`, all-null `Int` and `Mixed` (the bag).
        for cuts in [&[][..], &[2], &[1, 1, 3], &[0, 2, 4, 5]] {
            let runs = runs(cuts);
            let all: Vec<Selection> = runs.iter().map(whole).collect();
            let runs: Vec<_> = runs.iter().zip(&all).collect();
            let joined = Batch::concat(&runs).expect("one arity");
            assert_eq!(joined.to_records(), records, "cuts {cuts:?}");
            assert_eq!(joined.canonical_bytes(), every.canonical_bytes());
            assert!(matches!(joined.column(0), Some(Column::Int { .. })));
            assert!(matches!(joined.column(1), Some(Column::Str { .. })));
        }
        // No run has a mask: neither has the result.
        let ints = |range: std::ops::Range<i64>| {
            let rows: Vec<Record> = range.map(|i| Record::new(vec![Value::Int(i)])).collect();
            Batch::from_records(&rows).unwrap()
        };
        let (front, back) = (ints(0..3), ints(3..6));
        let concat = |runs: &[&Batch]| {
            let all: Vec<Selection> = runs.iter().map(|b| whole(b)).collect();
            Batch::concat(&runs.iter().copied().zip(&all).collect::<Vec<_>>())
        };
        assert_eq!(concat(&[&front, &back]), Some(ints(0..6)));
        // Selected rows alone are copied, each once, in selection order.
        let picked = [Selection::Rows(vec![0, 2]), Selection::Range(1..3)];
        let joined = Batch::concat(&[(&front, &picked[0]), (&back, &picked[1])]);
        assert_eq!(joined, Some(ints(0..6).gather(&[0, 2, 4, 5])));
        // Nothing but empty runs is the empty batch; unequal arities refuse.
        let empty = Batch::from_records(&[]).unwrap();
        assert_eq!(concat(&[&empty, &empty]), Some(empty.clone()));
        assert_eq!(concat(&[&front, &every]), None);
    }

    #[test]
    fn limit_truncates() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        for mut live in [whole(&batch), Selection::Rows(vec![0, 2, 3, 4])] {
            let first = live.map(|_, row| row)[..2].to_vec();
            live.truncate(2);
            assert_eq!(live.map(|_, row| row), first);
            live.truncate(10); // no-op past the end
            assert_eq!(live.len(), 2);
            live.truncate(0);
            assert!(live.is_empty());
        }
    }

    #[test]
    fn eval_column_matches_row_eval_for_all_expr_shapes() {
        let records = sample_records();
        let batch = Batch::from_records(&records).unwrap();
        let exprs = vec![
            Expr::Col(0),
            Expr::Col(7), // out of range → null
            Expr::IntLit(42),
            Expr::StrLit("lit".into()),
            Expr::NullLit,
            Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::Col(2)),
            Expr::cmp(CmpOp::Ne, Expr::Col(1), Expr::StrLit("alice".into())),
            Expr::cmp(CmpOp::Gt, Expr::Col(2), Expr::IntLit(0)), // mixed column side
            Expr::arith(crate::expr::ArithOp::Div, Expr::Col(2), Expr::Col(0)),
            Expr::arith(crate::expr::ArithOp::Mod, Expr::IntLit(7), Expr::Col(0)),
            Expr::And(
                Box::new(Expr::is_not_null(Expr::Col(1))),
                Box::new(Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::IntLit(1))),
            ),
            Expr::Or(
                Box::new(Expr::IsNull(Box::new(Expr::Col(0)))),
                Box::new(Expr::IsNull(Box::new(Expr::Col(1)))),
            ),
            Expr::Not(Box::new(Expr::cmp(
                CmpOp::Eq,
                Expr::Col(0),
                Expr::IntLit(1),
            ))),
            Expr::Agg {
                func: crate::expr::AggFunc::Count,
                bag_col: 2,
                field: None,
            },
        ];
        for (k, e) in exprs.iter().enumerate() {
            let col = eval_column(e, &batch, &whole(&batch));
            for (i, r) in records.iter().enumerate() {
                assert_eq!(
                    col.value_at(i),
                    e.eval(&EvalContext::new(r)),
                    "expr {k} row {i}"
                );
            }
        }
    }

    /// A bucket's rows and null counts are read off the shared bytes at
    /// every alignment: windows starting and ending inside and on 8-byte
    /// words, rows an earlier filter dropped, buckets that hold nothing,
    /// and every column's mask (`nulls_in`) against the id list's.
    #[test]
    fn bucket_rows_and_nulls_match_their_id_lists() {
        let records: Vec<Record> = (0..45i64)
            .map(|i| {
                let key = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 6)
                };
                let text = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::str("t".repeat(i as usize % 4))
                };
                Record::new(vec![key, text, Value::Int(i)])
            })
            .collect();
        let batch = Batch::from_records(&records).expect("uniform arity");
        for (start, end) in [(0, 45), (3, 45), (8, 16), (5, 13), (1, 2), (7, 7)] {
            let window = Selection::Range(start..end);
            let filtered = Selection::Rows((start..end).filter(|r| r % 3 != 1).collect());
            for rows in [window, filtered] {
                for n in [1, 2, 4, 7, MAX_BYTE_BUCKETS] {
                    let cut = shuffle_partitions(&batch, &rows, 0, n);
                    let buckets = shuffle_buckets(&batch, &rows, 0, n);
                    for (b, part) in cut.iter().enumerate() {
                        let ids: Vec<usize> = (0..rows.len())
                            .filter(|&i| buckets[i] == b)
                            .map(|i| rows.map(|_, row| row)[i])
                            .collect();
                        let ctx = format!("{rows:?}, bucket {b} of {n}");
                        assert!(matches!(part, Selection::Bucket(_)), "{ctx}");
                        assert_eq!(part.map(|_, row| row), ids, "{ctx}");
                        assert_eq!(part.spans().flatten().collect::<Vec<_>>(), ids, "{ctx}");
                        let list = Selection::Rows(ids);
                        for c in &batch.columns {
                            assert_eq!(c.nulls_in(part), c.nulls_in(&list), "{ctx}");
                        }
                        let mut cut_short = part.clone();
                        cut_short.truncate(2);
                        let mut listed = list.clone();
                        listed.truncate(2);
                        assert_eq!(cut_short, listed, "{ctx}: LIMIT");
                    }
                }
            }
        }
    }
}
