//! Data-plane counters local to the dataflow kernels.
//!
//! `cbft-mapreduce` tracks record clones at its task boundaries; the
//! kernels here sit below that crate, so they get their own counter. The
//! invariant it guards: a blocking operator (`GROUP`, `ORDER`,
//! `DISTINCT`) over `n` retained records clones exactly `n` records — the
//! one unavoidable copy out of the retained input stream — and the
//! kernels themselves add none on top (the `_owned` variants move records
//! instead of cloning them). The interpreter test
//! `blocking_operators_clone_each_record_exactly_once` pins this.
//!
//! A second counter, `rows_materialized`, counts every batch row turned
//! back into a [`crate::Record`] (`Batch::row`, `Batch::to_records`, the
//! members of a materialized bag) — copies the clone counter cannot see,
//! because a columnar row is built, not cloned. A `GROUP` → aggregate
//! reduce task materializes exactly its output rows.
//!
//! A third, `shuffle_index_bytes`, counts the bytes a shuffle's
//! partitions allocate to name their rows (`batch::shuffle_partitions`,
//! `Selection::partition`): one bucket byte per row of the window cut, or
//! eight bytes of row id per row routed when there are too many partitions
//! for a byte to name. It depends on the data alone, not on the host.
//!
//! A fourth, `columns_shared`, counts the columns a projection handed on
//! without a copy (`batch::pick`: a `FOREACH` that only names columns
//! shares them with its input). It too depends on the data alone.
//!
//! The first two have a per-thread total (kernels clone on the calling
//! thread, so tests can assert exact counts even while other test threads
//! run kernels of their own); `rows_materialized`, `shuffle_index_bytes`
//! and `columns_shared` have a process-wide total, which
//! `cbft-mapreduce`'s `data_plane` module surfaces next to its own
//! counters.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ROWS_MATERIALIZED: AtomicU64 = AtomicU64::new(0);
static SHUFFLE_INDEX_BYTES: AtomicU64 = AtomicU64::new(0);
static COLUMNS_SHARED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_RECORD_CLONES: Cell<u64> = const { Cell::new(0) };
    static THREAD_ROWS_MATERIALIZED: Cell<u64> = const { Cell::new(0) };
}

/// Counts `n` record clones on a kernel path.
pub fn count_record_clones(n: u64) {
    THREAD_RECORD_CLONES.with(|c| c.set(c.get() + n));
}

/// Record clones counted on the calling thread only.
pub fn thread_record_clones() -> u64 {
    THREAD_RECORD_CLONES.with(Cell::get)
}

/// Counts `n` batch rows materialized as records.
pub fn count_rows_materialized(n: u64) {
    ROWS_MATERIALIZED.fetch_add(n, Ordering::Relaxed);
    THREAD_ROWS_MATERIALIZED.with(|c| c.set(c.get() + n));
}

/// Total batch rows materialized as records since process start, across
/// all threads.
pub fn rows_materialized() -> u64 {
    ROWS_MATERIALIZED.load(Ordering::Relaxed)
}

/// Batch rows materialized on the calling thread only.
pub fn thread_rows_materialized() -> u64 {
    THREAD_ROWS_MATERIALIZED.with(Cell::get)
}

/// Counts `n` bytes a shuffle's partitions allocated to name their rows.
pub fn count_shuffle_index_bytes(n: u64) {
    SHUFFLE_INDEX_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Total bytes shuffle partitions allocated to name their rows since
/// process start, across all threads.
pub fn shuffle_index_bytes() -> u64 {
    SHUFFLE_INDEX_BYTES.load(Ordering::Relaxed)
}

/// Counts `n` columns a projection handed on without a copy.
pub fn count_columns_shared(n: u64) {
    COLUMNS_SHARED.fetch_add(n, Ordering::Relaxed);
}

/// Total columns projections handed on without a copy since process
/// start, across all threads.
pub fn columns_shared() -> u64 {
    COLUMNS_SHARED.load(Ordering::Relaxed)
}
