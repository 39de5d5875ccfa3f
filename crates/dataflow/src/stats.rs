//! The data plane's counters: one table for the whole process.
//!
//! `cbft-mapreduce`'s `JobMetrics` charges *simulated* resources; these
//! counters observe the *host-side* cost of the data plane — records
//! cloned, rows built out of batches, storage reads served by sharing an
//! `Arc`, bytes through canonical encoding and the digest hasher — so
//! that its zero-copy and columnar invariants are measurable. They live
//! in the lowest crate that counts (the batch kernels here count rows
//! materialized, shuffle index bytes and shared columns);
//! `cbft-mapreduce` re-exports this module as `data_plane`.
//!
//! Every counter is one row of the table below, a [`Counter`], and has
//! two totals read the same way: the process-wide one ([`total`],
//! [`snapshot`]) and the calling thread's ([`thread_total`]), so a test
//! can assert an exact count while other test threads count too. A count
//! is one relaxed atomic add and one thread-local add; nothing is
//! registered anywhere. The pool-queue peak is a mark, not a count
//! ([`record_pool_queue_depth`]).
//!
//! `rows_materialized` closes the blind spot of `records_cloned`: a row
//! built out of a columnar batch is a fresh allocation per field, not a
//! clone. Publication counts on neither: a verified output is published
//! as the winning replica's file handle, and a record view of it
//! (`ParallelOutcome::outputs`, `Storage::peek`) is charged when someone
//! asks for it. The kernels' own clone counter guards the rule that a
//! blocking operator over `n` retained records clones exactly `n` (the
//! interpreter test `blocking_operators_clone_each_record_exactly_once`).
//!
//! Totals are cumulative: a caller interested in one region takes a
//! [`snapshot`] before and after and subtracts ([`DataPlaneSnapshot::since`]).
//! Several runs in one process add into the same totals. The counters are
//! not series of any `cbft_metrics::Metrics` hub, so `--metrics` output
//! does not carry them; `--trace-summary` prints every field of the
//! snapshot ([`DataPlaneSnapshot::counters`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Declares the table: a [`Counter`] variant per row, and for every row
/// but the last — the kernels' clone counter, which no snapshot carries —
/// the [`DataPlaneSnapshot`] field of the same name.
macro_rules! counters {
    (
        $($(#[doc = $doc:literal])+ $field:ident: $Variant:ident),+;
        $(#[doc = $kernel_doc:literal])+ $Kernel:ident
    ) => {
        /// One data-plane counter.
        #[derive(Clone, Copy, Debug)]
        pub enum Counter {
            $($(#[doc = $doc])+ $Variant,)+
            $(#[doc = $kernel_doc])+ $Kernel,
        }

        const SNAPSHOT_FIELDS: usize = Counter::$Kernel as usize;

        /// A point-in-time copy of the process-wide totals.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct DataPlaneSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl DataPlaneSnapshot {
            /// Every field by name, in declaration order: the list
            /// `--trace-summary` prints.
            pub fn counters(&self) -> [(&'static str, u64); SNAPSHOT_FIELDS] {
                [$((stringify!($field), self.$field),)+]
            }

            /// Counter deltas accumulated since `earlier` (the queue peak,
            /// which is a mark rather than a count, passes through as-is).
            pub fn since(&self, earlier: &DataPlaneSnapshot) -> DataPlaneSnapshot {
                let mut delta = DataPlaneSnapshot {
                    $($field: self.$field - earlier.$field,)+
                };
                delta.pool_queue_peak = self.pool_queue_peak;
                delta
            }
        }

        /// Reads every process-wide total at once.
        pub fn snapshot() -> DataPlaneSnapshot {
            DataPlaneSnapshot {
                $($field: total(Counter::$Variant),)+
            }
        }
    };
}

counters! {
    /// Records physically deep-copied: at a task's output boundary, or
    /// for the record view of a published record file.
    records_cloned: RecordsCloned,
    /// Storage reads and shares satisfied by handing out an `Arc` handle.
    arcs_shared: ArcsShared,
    /// Bytes map tasks' shuffle partitions allocated to name their rows
    /// (`batch::shuffle_partitions`, `Selection::partition`): one per row
    /// of a cut window, or eight per row routed past `MAX_BYTE_BUCKETS`
    /// partitions. It depends on the data alone, not on the host.
    shuffle_index_bytes: ShuffleIndexBytes,
    /// Columns projections handed on without a copy (`batch::pick`): a
    /// `FOREACH` that only names columns shares them with its input.
    columns_shared: ColumnsShared,
    /// Bytes written through canonical record encoding.
    bytes_encoded: BytesEncoded,
    /// Batches tasks allocated to lay their input out: a record split's
    /// conversion, a corrupt task's copy of its window, a reduce
    /// partition's layout. A columnar split read in place builds none.
    batches_built: BatchesBuilt,
    /// Rows of those batches.
    batch_rows: BatchRows,
    /// Bytes absorbed by digest hashers at verification points.
    digest_bytes_hashed: DigestBytesHashed,
    /// Batch rows materialized as records (`Batch::row`,
    /// `Batch::to_records`, the members of a materialized bag).
    rows_materialized: RowsMaterialized,
    /// Reduce tasks that aggregated their GROUP without building a bag:
    /// only order-independent aggregates would have read it, so the task
    /// folded its partition's runs in place. The row plane never counts.
    groups_unordered: GroupsUnordered,
    /// Payloads handed to the compute pool (including inline execution).
    /// No payload dispatches another, so the count is a function of the
    /// run, the same at every pool size.
    tasks_dispatched: TasksDispatched,
    /// Always 0: the compute pool is one FIFO queue and nothing steals.
    /// Kept so the snapshot's serde shape and `--trace-summary` lines do
    /// not move.
    tasks_stolen: TasksStolen,
    /// High-water mark of the pool queue depth. Not a delta: a peak
    /// cannot be meaningfully subtracted, so [`DataPlaneSnapshot::since`]
    /// carries the later snapshot's mark through unchanged.
    pool_queue_peak: PoolQueuePeak;
    /// Record clones on the interpreter's blocking paths (`GROUP`,
    /// `ORDER`, `DISTINCT`): the one copy out of the retained input
    /// stream. Kept apart from `records_cloned`, which counts at task
    /// boundaries.
    KernelRecordClones
}

const COUNTERS: usize = SNAPSHOT_FIELDS + 1;

static TOTALS: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

thread_local! {
    static THREAD_TOTALS: [Cell<u64>; COUNTERS] = const { [const { Cell::new(0) }; COUNTERS] };
}

/// Counts `n` on `counter`: its process-wide total and the calling
/// thread's move together.
pub fn count(counter: Counter, n: u64) {
    TOTALS[counter as usize].fetch_add(n, Ordering::Relaxed);
    THREAD_TOTALS.with(|t| {
        let cell = &t[counter as usize];
        cell.set(cell.get() + n);
    });
}

/// `counter`'s total since process start, across all threads.
pub fn total(counter: Counter) -> u64 {
    TOTALS[counter as usize].load(Ordering::Relaxed)
}

/// `counter`'s total on the calling thread alone.
pub fn thread_total(counter: Counter) -> u64 {
    THREAD_TOTALS.with(|t| t[counter as usize].get())
}

/// Observes the pool queue depth after a dispatch; the process-wide
/// total of [`Counter::PoolQueuePeak`] keeps the high-water mark (it has
/// no thread total).
pub fn record_pool_queue_depth(depth: u64) {
    TOTALS[Counter::PoolQueuePeak as usize].fetch_max(depth, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_moves_the_process_and_thread_totals_alike() {
        let (process, thread) = (total(Counter::BatchRows), thread_total(Counter::BatchRows));
        count(Counter::BatchRows, 7);
        assert_eq!(thread_total(Counter::BatchRows), thread + 7);
        // Other test threads may count too: the process total moves at least as far.
        assert!(total(Counter::BatchRows) >= process + 7);
    }

    #[test]
    fn another_threads_count_moves_only_the_process_total() {
        let (process, thread) = (
            total(Counter::ArcsShared),
            thread_total(Counter::ArcsShared),
        );
        let theirs = std::thread::spawn(|| {
            count(Counter::ArcsShared, 5);
            thread_total(Counter::ArcsShared)
        });
        assert_eq!(theirs.join().unwrap(), 5, "a new thread starts at 0");
        assert_eq!(thread_total(Counter::ArcsShared), thread);
        assert!(total(Counter::ArcsShared) >= process + 5);
    }

    #[test]
    fn the_named_list_is_every_snapshot_field_in_serde_order() {
        // Distinct values, so a name paired with another field shows too.
        let pairs: Vec<String> = DataPlaneSnapshot::default()
            .counters()
            .iter()
            .enumerate()
            .map(|(i, (name, _))| format!("\"{name}\":{i}"))
            .collect();
        let json = format!("{{{}}}", pairs.join(","));
        let snap: DataPlaneSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&snap).unwrap(), json);
        let values: Vec<u64> = snap.counters().iter().map(|&(_, n)| n).collect();
        assert_eq!(values, (0..pairs.len() as u64).collect::<Vec<_>>());
    }
}
