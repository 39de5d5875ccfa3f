//! Per-job resource accounting.
//!
//! Table 3 of the paper reports latency, CPU time, local file read/write
//! bytes and HDFS write bytes as multipliers over an unreplicated run —
//! exactly the counters collected here.

use std::fmt;
use std::ops::{Add, AddAssign};

use cbft_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Resource usage of one job (or, summed, of a whole script execution).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Wall-clock (virtual) time from submission to completion.
    pub latency: SimDuration,
    /// Total CPU time across all tasks.
    pub cpu_time: SimDuration,
    /// Bytes read from node-local disks (map spill / shuffle fetch).
    pub local_read_bytes: u64,
    /// Bytes written to node-local disks.
    pub local_write_bytes: u64,
    /// Bytes read from the trusted storage layer.
    pub hdfs_read_bytes: u64,
    /// Bytes written to the trusted storage layer.
    pub hdfs_write_bytes: u64,
    /// Bytes moved across the network (shuffle + digest shipping).
    pub network_bytes: u64,
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Map tasks that ran on their split's home node (data locality).
    pub data_local_tasks: u64,
    /// Reduce/collector tasks executed.
    pub reduce_tasks: u64,
}

impl JobMetrics {
    /// An all-zero metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latency multiplier of `self` relative to `baseline` (Table 3's `x`
    /// notation). Returns `f64::NAN` when the baseline latency is zero.
    pub fn latency_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.latency.as_micros() as f64,
            baseline.latency.as_micros() as f64,
        )
    }

    /// CPU multiplier relative to `baseline`.
    pub fn cpu_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.cpu_time.as_micros() as f64,
            baseline.cpu_time.as_micros() as f64,
        )
    }

    /// Local file read multiplier relative to `baseline`.
    pub fn file_read_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.local_read_bytes as f64,
            baseline.local_read_bytes as f64,
        )
    }

    /// Local file write multiplier relative to `baseline`.
    pub fn file_write_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.local_write_bytes as f64,
            baseline.local_write_bytes as f64,
        )
    }

    /// HDFS write multiplier relative to `baseline`.
    pub fn hdfs_write_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.hdfs_write_bytes as f64,
            baseline.hdfs_write_bytes as f64,
        )
    }

    pub(crate) fn observe_span(&mut self, submitted: SimTime, completed: SimTime) {
        self.latency = completed.since(submitted);
    }
}

/// Process-wide data-plane counters.
///
/// [`JobMetrics`] charges *simulated* resources; these counters instead
/// observe the *host-side* cost of the data plane — how many records were
/// physically cloned, how many storage reads were satisfied by sharing an
/// `Arc`, and how many bytes flowed through canonical encoding and the
/// digest hasher. They exist to make the zero-copy invariants measurable:
/// after a run, `records_cloned` on the storage-read path should be zero
/// while `arcs_shared` counts every read.
///
/// `rows_materialized` closes the blind spot of `records_cloned`: a row
/// built out of a columnar batch (`Batch::row`, `Batch::to_records`, the
/// members of a materialized bag) is a fresh allocation per field, not a
/// clone, so only this counter sees it. It is counted by the batch
/// kernels themselves ([`cbft_dataflow::stats`]) and read through here.
///
/// Publication counts on neither: a verified output is published as the
/// winning replica's file handle, and `cbft` writes a columnar file's
/// report straight from its columns. A record view of a published file
/// (`ParallelOutcome::outputs`, `Storage::peek`) is charged when someone
/// asks for it — its rows to `rows_materialized` for a columnar file, its
/// copy to `records_cloned` for a record file.
///
/// Counters are cumulative; callers interested in one region take a
/// [`data_plane::snapshot`] before and after and subtract.
///
/// Each counter is a process-wide `static AtomicU64` (the queue peak a
/// `fetch_max` mark), the pattern of [`cbft_dataflow::stats`]: a count
/// is one relaxed atomic add, and nothing is registered anywhere. They
/// are not series of any [`cbft_metrics::Metrics`] hub, so `--metrics`
/// output does not carry them; `--trace-summary` prints their deltas.
/// Several runs in one process add into the same totals — code that
/// wants per-run isolation records into an explicit hub instead (see
/// `ComputePool` and the engine's labeled metrics).
pub mod data_plane {
    use std::sync::atomic::{AtomicU64, Ordering};

    use serde::{Deserialize, Serialize};

    static RECORDS_CLONED: AtomicU64 = AtomicU64::new(0);
    static ARCS_SHARED: AtomicU64 = AtomicU64::new(0);
    static BYTES_ENCODED: AtomicU64 = AtomicU64::new(0);
    static BATCHES_BUILT: AtomicU64 = AtomicU64::new(0);
    static BATCH_ROWS: AtomicU64 = AtomicU64::new(0);
    static DIGEST_BYTES: AtomicU64 = AtomicU64::new(0);
    static TASKS_DISPATCHED: AtomicU64 = AtomicU64::new(0);
    static TASKS_STOLEN: AtomicU64 = AtomicU64::new(0);
    static POOL_QUEUE_PEAK: AtomicU64 = AtomicU64::new(0);
    static GROUPS_UNORDERED: AtomicU64 = AtomicU64::new(0);

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    thread_local! {
        static THREAD_RECORDS_CLONED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Records that were physically deep-copied (e.g. at a task's output
    /// boundary, or for the record view of a published record file).
    pub fn count_records_cloned(n: u64) {
        add(&RECORDS_CLONED, n);
        THREAD_RECORDS_CLONED.with(|c| c.set(c.get() + n));
    }

    /// [`count_records_cloned`]'s total on the calling thread alone, so a
    /// test can assert an exact count while other threads clone records.
    pub fn thread_records_cloned() -> u64 {
        THREAD_RECORDS_CLONED.with(std::cell::Cell::get)
    }

    /// Storage reads/shares satisfied by handing out an `Arc` handle.
    pub fn count_arcs_shared(n: u64) {
        add(&ARCS_SHARED, n);
    }

    /// Bytes written through canonical record encoding.
    pub fn count_bytes_encoded(n: u64) {
        add(&BYTES_ENCODED, n);
    }

    /// Batches a task allocated to lay its input out: a record split's
    /// conversion, a corrupt task's copy of its window, a reduce
    /// partition's layout. A columnar split read in place builds none.
    pub fn count_batches_built(n: u64) {
        add(&BATCHES_BUILT, n);
    }

    /// Rows of the batches [`count_batches_built`] counts.
    pub fn count_batch_rows(n: u64) {
        add(&BATCH_ROWS, n);
    }

    /// Bytes absorbed by digest hashers at verification points.
    pub fn count_digest_bytes(n: u64) {
        add(&DIGEST_BYTES, n);
    }

    /// Payloads handed to the compute pool (including inline execution).
    /// The inline pool elides the chunk-sort dispatches a threaded pool
    /// queues, so the count depends on pool size.
    pub fn count_tasks_dispatched(n: u64) {
        add(&TASKS_DISPATCHED, n);
    }

    /// Payloads a pool worker stole from a sibling's local deque.
    pub fn count_tasks_stolen(n: u64) {
        add(&TASKS_STOLEN, n);
    }

    /// Observes the pool queue depth after a dispatch; the snapshot
    /// keeps the high-water mark.
    pub fn record_pool_queue_depth(depth: u64) {
        POOL_QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
    }

    /// Reduce tasks that aggregated their GROUP without building a bag:
    /// only order-independent aggregates would have read it, so the task
    /// folded its partition's runs in place. The row plane, which builds
    /// and orders every bag, never counts.
    pub fn count_groups_unordered(n: u64) {
        add(&GROUPS_UNORDERED, n);
    }

    /// A point-in-time copy of the cumulative counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct DataPlaneSnapshot {
        /// Records physically deep-copied.
        pub records_cloned: u64,
        /// Storage reads satisfied by sharing an `Arc` handle.
        pub arcs_shared: u64,
        /// Bytes map tasks' shuffle partitions allocated to name their
        /// rows: one per row of a cut window, or eight per row routed
        /// past `MAX_BYTE_BUCKETS` partitions.
        pub shuffle_index_bytes: u64,
        /// Columns projections handed on without a copy: a `FOREACH`
        /// that only names columns shares them with its input.
        pub columns_shared: u64,
        /// Bytes written through canonical record encoding.
        pub bytes_encoded: u64,
        /// Batches tasks allocated to lay their input out.
        pub batches_built: u64,
        /// Rows of those batches.
        pub batch_rows: u64,
        /// Bytes absorbed by digest hashers.
        pub digest_bytes_hashed: u64,
        /// Batch rows materialized as records (bag members included).
        pub rows_materialized: u64,
        /// Reduce tasks that aggregated their GROUP without building a bag.
        pub groups_unordered: u64,
        /// Payloads handed to the compute pool.
        pub tasks_dispatched: u64,
        /// Payloads stolen between pool workers.
        pub tasks_stolen: u64,
        /// High-water mark of the pool queue depth. Not a delta: a peak
        /// cannot be meaningfully subtracted, so [`Self::since`] carries
        /// the later snapshot's mark through unchanged.
        pub pool_queue_peak: u64,
    }

    impl DataPlaneSnapshot {
        /// Counter deltas accumulated since `earlier` (the queue peak,
        /// which is a mark rather than a count, passes through as-is).
        pub fn since(&self, earlier: &DataPlaneSnapshot) -> DataPlaneSnapshot {
            DataPlaneSnapshot {
                records_cloned: self.records_cloned - earlier.records_cloned,
                arcs_shared: self.arcs_shared - earlier.arcs_shared,
                shuffle_index_bytes: self.shuffle_index_bytes - earlier.shuffle_index_bytes,
                columns_shared: self.columns_shared - earlier.columns_shared,
                bytes_encoded: self.bytes_encoded - earlier.bytes_encoded,
                batches_built: self.batches_built - earlier.batches_built,
                batch_rows: self.batch_rows - earlier.batch_rows,
                digest_bytes_hashed: self.digest_bytes_hashed - earlier.digest_bytes_hashed,
                rows_materialized: self.rows_materialized - earlier.rows_materialized,
                groups_unordered: self.groups_unordered - earlier.groups_unordered,
                tasks_dispatched: self.tasks_dispatched - earlier.tasks_dispatched,
                tasks_stolen: self.tasks_stolen - earlier.tasks_stolen,
                pool_queue_peak: self.pool_queue_peak,
            }
        }
    }

    /// Reads all counters at once.
    pub fn snapshot() -> DataPlaneSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        DataPlaneSnapshot {
            records_cloned: read(&RECORDS_CLONED),
            arcs_shared: read(&ARCS_SHARED),
            shuffle_index_bytes: cbft_dataflow::stats::shuffle_index_bytes(),
            columns_shared: cbft_dataflow::stats::columns_shared(),
            bytes_encoded: read(&BYTES_ENCODED),
            batches_built: read(&BATCHES_BUILT),
            batch_rows: read(&BATCH_ROWS),
            digest_bytes_hashed: read(&DIGEST_BYTES),
            rows_materialized: cbft_dataflow::stats::rows_materialized(),
            groups_unordered: read(&GROUPS_UNORDERED),
            tasks_dispatched: read(&TASKS_DISPATCHED),
            tasks_stolen: read(&TASKS_STOLEN),
            pool_queue_peak: read(&POOL_QUEUE_PEAK),
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

impl Add for JobMetrics {
    type Output = JobMetrics;

    fn add(mut self, rhs: JobMetrics) -> JobMetrics {
        self += rhs;
        self
    }
}

impl AddAssign for JobMetrics {
    fn add_assign(&mut self, rhs: JobMetrics) {
        // Latencies of sequential stages add; callers combining parallel
        // jobs should track wall-clock separately.
        self.latency += rhs.latency;
        self.cpu_time += rhs.cpu_time;
        self.local_read_bytes += rhs.local_read_bytes;
        self.local_write_bytes += rhs.local_write_bytes;
        self.hdfs_read_bytes += rhs.hdfs_read_bytes;
        self.hdfs_write_bytes += rhs.hdfs_write_bytes;
        self.network_bytes += rhs.network_bytes;
        self.map_tasks += rhs.map_tasks;
        self.data_local_tasks += rhs.data_local_tasks;
        self.reduce_tasks += rhs.reduce_tasks;
    }
}

impl fmt::Display for JobMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency={} cpu={} local_r={}B local_w={}B hdfs_r={}B hdfs_w={}B net={}B tasks={}m/{}r",
            self.latency,
            self.cpu_time,
            self.local_read_bytes,
            self.local_write_bytes,
            self.hdfs_read_bytes,
            self.hdfs_write_bytes,
            self.network_bytes,
            self.map_tasks,
            self.reduce_tasks
        )
    }
}

impl std::iter::Sum for JobMetrics {
    fn sum<I: Iterator<Item = JobMetrics>>(iter: I) -> Self {
        iter.fold(JobMetrics::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers() {
        let base = JobMetrics {
            latency: SimDuration::from_secs(10),
            cpu_time: SimDuration::from_secs(40),
            local_read_bytes: 100,
            local_write_bytes: 200,
            hdfs_write_bytes: 50,
            ..JobMetrics::default()
        };
        let four_x = JobMetrics {
            latency: SimDuration::from_secs(11),
            cpu_time: SimDuration::from_secs(160),
            local_read_bytes: 400,
            local_write_bytes: 800,
            hdfs_write_bytes: 200,
            ..JobMetrics::default()
        };
        assert!((four_x.latency_multiplier(&base) - 1.1).abs() < 1e-9);
        assert!((four_x.cpu_multiplier(&base) - 4.0).abs() < 1e-9);
        assert!((four_x.file_read_multiplier(&base) - 4.0).abs() < 1e-9);
        assert!((four_x.file_write_multiplier(&base) - 4.0).abs() < 1e-9);
        assert!((four_x.hdfs_write_multiplier(&base) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_is_nan_not_panic() {
        let z = JobMetrics::default();
        assert!(z.latency_multiplier(&z).is_nan());
    }

    #[test]
    fn sum_adds_componentwise() {
        let a = JobMetrics {
            map_tasks: 2,
            hdfs_write_bytes: 10,
            ..Default::default()
        };
        let b = JobMetrics {
            map_tasks: 3,
            hdfs_write_bytes: 5,
            ..Default::default()
        };
        let s: JobMetrics = [a, b].into_iter().sum();
        assert_eq!(s.map_tasks, 5);
        assert_eq!(s.hdfs_write_bytes, 15);
    }

    #[test]
    fn observe_span_sets_latency() {
        let mut m = JobMetrics::default();
        m.observe_span(SimTime::from_micros(100), SimTime::from_micros(350));
        assert_eq!(m.latency, SimDuration::from_micros(250));
    }
}
