//! Pure task execution: the real data movement of map and reduce tasks.
//!
//! These functions actually run the operator pipelines over records and
//! compute the verification-point digests, returning work counters that the
//! engine converts to virtual time through the cost model. Keeping them
//! pure (no cluster state) makes the task semantics directly testable.
//!
//! There is one map skeleton ([`run_map_task`]) and one reduce skeleton
//! ([`run_reduce_task`]). Both drive a private [`Stream`] whose two arms —
//! borrowed-or-owned rows, or columnar batches — dispatch to the row and
//! vectorized kernels; the arm is chosen once, when the task opens its
//! input, and every work charge, clone count, stage timer and
//! verification-point match lives in the skeleton, not in the arm. The
//! engine and the spot-checker run tasks through [`run_task`] over
//! [`TaskInput`] / [`TaskOutput`]; the record format between operators
//! and between map and reduce ([`Partition`]) is known to this module
//! alone.

use std::sync::Arc;
use std::time::Instant;

use cbft_dataflow::batch::{filter_batch, group_batch, join_batch, order_batch, project_batch};
use cbft_dataflow::compile::Site;
use cbft_dataflow::interp::{
    group_records_owned, join_records, order_records_owned, project_record,
};
use cbft_dataflow::{Batch, Operator, Record, Value};
use cbft_digest::{
    parent_count, parent_level, parent_range, ChunkedDigest, ChunkedSummary, Digest,
};

use crate::compute::ComputePool;
use crate::fault::{corrupt_record, TaskFate};
use crate::metrics::data_plane;
use crate::spec::{ExecJob, VpSite};

/// A record tagged with its join side.
type Tagged = (usize, Record);

/// One reduce partition's share of map output — the data format between
/// map and reduce tasks.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Partition(Vec<Tagged>);

impl Partition {
    /// Records in the partition.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The shuffle gather: concatenates one partition's per-map runs, in
    /// map-task order, into a buffer pre-sized from the summed run
    /// lengths. Records move, never clone.
    pub fn concat(runs: Vec<Partition>) -> Partition {
        let mut buf = Vec::with_capacity(runs.iter().map(Partition::len).sum());
        for run in runs {
            buf.extend(run.0);
        }
        Partition(buf)
    }
}

/// What a task runs on.
#[derive(Clone, Debug)]
pub(crate) enum TaskInput {
    /// A map task's split: a window into the `Arc`-shared write-once
    /// input file. Splitting a file across tasks costs only handle
    /// clones; the records themselves are never copied.
    Split {
        /// Index into [`ExecJob::inputs`].
        input: usize,
        /// Shared handle to the whole input file.
        file: Arc<[Record]>,
        /// Split window `[start, end)` within `file`.
        start: usize,
        /// Split window end.
        end: usize,
    },
    /// A reduce (or collector) task's incoming partition.
    Partition(Partition),
}

impl TaskInput {
    /// Records the task reads.
    pub fn len(&self) -> usize {
        match self {
            TaskInput::Split { start, end, .. } => end - start,
            TaskInput::Partition(p) => p.len(),
        }
    }

    /// Hands the input to a task payload. A split is an immutable handle
    /// and stays in place (its task may be re-queued); a partition moves
    /// out, since each reduce index executes at most once.
    pub fn take(&mut self) -> TaskInput {
        match self {
            TaskInput::Split { .. } => self.clone(),
            TaskInput::Partition(p) => TaskInput::Partition(std::mem::take(p)),
        }
    }

    /// The copy kept for the trusted spot-checker, made before the
    /// untrusted task (whose fate may corrupt its view) sees the input.
    /// A split costs a handle clone; a partition is deep-copied.
    pub fn capture(&self) -> TaskInput {
        if let TaskInput::Partition(p) = self {
            data_plane::count_records_cloned(p.len() as u64);
        }
        self.clone()
    }
}

/// The records a task produced.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TaskData {
    /// A map task's output per reduce partition; a single "partition 0"
    /// holds everything when the job has no shuffle.
    Partitions(Vec<Partition>),
    /// A reduce or collector task's output.
    Records(Vec<Record>),
}

impl TaskData {
    /// Moves the output records, in order, onto the end of `out`.
    pub fn append_to(self, out: &mut Vec<Record>) {
        match self {
            TaskData::Partitions(parts) => {
                out.extend(parts.into_iter().flat_map(|p| p.0).map(|(_, r)| r))
            }
            TaskData::Records(mut records) => out.append(&mut records),
        }
    }

    /// A map task's output, one entry per reduce partition.
    pub fn into_partitions(self) -> Vec<Partition> {
        match self {
            TaskData::Partitions(parts) => parts,
            TaskData::Records(_) => unreachable!("only map tasks feed a shuffle"),
        }
    }
}

/// Work performed by a task, in units the cost model can price.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Record×operator applications.
    pub record_ops: u64,
    /// Bytes fed through digest functions.
    pub digest_bytes: u64,
    /// Bytes of records read by the task.
    pub bytes_in: u64,
    /// Bytes of records produced by the task.
    pub bytes_out: u64,
}

/// Host wall time one task spent in each of its stages, in nanoseconds.
///
/// Carried beside [`Work`], never inside it: `Work` is compared for
/// equality across planes and replicas, wall time never repeats. The
/// engine attaches these to the task's trace span as wall-domain args.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StageWall {
    /// Records → [`Batch`] conversion at the task's input boundary.
    pub to_batch: u64,
    /// Per-record operators (`FILTER`, `FOREACH`, `LIMIT`).
    pub pipeline_ops: u64,
    /// The blocking shuffle operator (`GROUP`, `JOIN`, `ORDER`,
    /// `DISTINCT`, combiner merge).
    pub shuffle_kernel: u64,
    /// Canonical encoding and hashing at verification points.
    pub digest: u64,
    /// Routing map output to reduce partitions (rows materialize here).
    pub partition: u64,
    /// Stream → records at the output boundary of a reduce task or of a
    /// map task without a shuffle.
    pub to_records: u64,
}

impl StageWall {
    /// `(trace arg name, nanoseconds)` per stage, in pipeline order.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("to_batch_ns", self.to_batch),
            ("pipeline_ops_ns", self.pipeline_ops),
            ("shuffle_kernel_ns", self.shuffle_kernel),
            ("digest_ns", self.digest),
            ("partition_ns", self.partition),
            ("to_records_ns", self.to_records),
        ]
    }
}

/// Runs `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_nanos() as u64;
    out
}

/// Result of a task.
#[derive(Clone, Debug)]
pub(crate) struct TaskOutput {
    /// The records produced.
    pub data: TaskData,
    /// Digest summaries produced at the task's verification points.
    pub digests: Vec<(VpSite, ChunkedSummary)>,
    /// Work counters.
    pub work: Work,
    /// Wall time per stage (diagnostic; not part of the task's result).
    pub stages: StageWall,
}

impl TaskOutput {
    fn new(bytes_in: u64) -> TaskOutput {
        TaskOutput {
            data: TaskData::Records(Vec::new()),
            digests: Vec::new(),
            work: Work {
                bytes_in,
                ..Work::default()
            },
            stages: StageWall::default(),
        }
    }

    /// Commitment digest over the task's output: every record (for a map
    /// task, every `(partition, tag, record)` triple) framed canonically
    /// into one chunked stream. Computed once when the engine captures a
    /// sampled task and again by the trusted spot-checker after an honest
    /// re-run; any divergence between the two localizes via the summary's
    /// Merkle tree. Finished inline (never pool-fanned) so capture and
    /// re-check hash the byte-identical stream regardless of which thread
    /// runs them.
    pub fn commitment(&self, granularity: usize) -> ChunkedSummary {
        let mut cd = ChunkedDigest::new(granularity);
        let mut buf = Vec::new();
        let mut frame = |route: Option<(usize, usize)>, r: &Record| {
            ChunkedDigest::begin_frame(&mut buf);
            if let Some((partition, tag)) = route {
                buf.extend_from_slice(&(partition as u64).to_be_bytes());
                buf.extend_from_slice(&(tag as u64).to_be_bytes());
            }
            r.write_canonical(&mut buf);
            ChunkedDigest::seal_frame(&mut buf);
            cd.append_framed(&buf);
        };
        match &self.data {
            TaskData::Partitions(parts) => {
                for (p, part) in parts.iter().enumerate() {
                    for (tag, r) in &part.0 {
                        frame(Some((p, *tag)), r);
                    }
                }
            }
            TaskData::Records(records) => records.iter().for_each(|r| frame(None, r)),
        }
        cd.finish()
    }
}

/// Executes one task: a map task over its split, or a reduce/collector
/// task over its partition. The single entry point of the engine and of
/// the spot-checker, so an honest re-run executes exactly the code the
/// untrusted node ran.
pub(crate) fn run_task(
    job: &ExecJob,
    input: TaskInput,
    fate: TaskFate,
    pool: &ComputePool,
) -> TaskOutput {
    match input {
        TaskInput::Split {
            input,
            file,
            start,
            end,
        } => run_map_task(job, input, &file[start..end], fate, pool),
        TaskInput::Partition(incoming) => run_reduce_task(job, incoming, fate, pool),
    }
}

/// Executes one map task: applies the input pipeline to a split, digests
/// at map-side verification points, and partitions the result for the
/// shuffle.
///
/// The split is borrowed (a window into the `Arc`-shared input file);
/// records are cloned only where they must become owned — at the partition
/// boundary, and only if the pipeline kept them borrowed until then.
pub(crate) fn run_map_task(
    job: &ExecJob,
    input_index: usize,
    records: &[Record],
    fate: TaskFate,
    pool: &ComputePool,
) -> TaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    let plan = &job.plan;
    let input = &job.inputs[input_index];
    let mut out = TaskOutput::new(byte_size(records));
    let mut stream = Stream::open_split(job, records, fate, &mut out.stages);

    for (pos, &vid) in input.pipeline.iter().enumerate() {
        stream = timed(&mut out.stages.pipeline_ops, || {
            stream.apply(plan.vertex(vid).op(), &mut out.work)
        });
        let here = |vp: &VpSite| match vp.site {
            Site::MapInput { input, pos: p, .. } => input == input_index && p == pos,
            _ => false,
        };
        digest_where(job, here, &stream, &mut out, pool);
    }

    // The output boundary: partitions outlive the split borrow, so rows
    // still borrowed from (or columnar images of) the split are cloned
    // here — the single unavoidable copy on the map path.
    let len = stream.len();
    if !stream.is_owned() {
        data_plane::count_records_cloned(len);
    }
    let work = &mut out.work;
    let partitions = match job.shuffle.map(|sh| plan.vertex(sh).op()) {
        Some(op) => timed(&mut out.stages.partition, || {
            let n = job.reduce_task_count.max(1);
            match &job.combiner {
                // Map-side combining: one [key, partials...] record per
                // local key, partitioned by the leading key (same hash as
                // the raw records would have used).
                Some(comb) => {
                    work.record_ops += 2 * len;
                    let partials = comb.partials(&stream.into_records());
                    partition_records(ShuffleKey::Field(0), input.tag, partials, n, work)
                }
                None => {
                    work.record_ops += len;
                    stream.partition(ShuffleKey::of(op, input.tag), input.tag, n, work)
                }
            }
        }),
        None => timed(&mut out.stages.to_records, || {
            let tagged = stream.into_records().into_iter().map(|r| {
                work.bytes_out += r.byte_size();
                (input.tag, r)
            });
            vec![Partition(tagged.collect())]
        }),
    };
    out.data = TaskData::Partitions(partitions);
    out
}

/// Executes one reduce (or collector) task over one partition. `pool`
/// accelerates the shuffle-side sort; since the chunked parallel sort is
/// pool-size-invariant, results are identical for every pool (the engine
/// passes its own pool, standalone tests the inline default).
pub(crate) fn run_reduce_task(
    job: &ExecJob,
    incoming: Partition,
    fate: TaskFate,
    pool: &ComputePool,
) -> TaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    let plan = &job.plan;
    let incoming = incoming.0;
    let mut out = TaskOutput::new(incoming.iter().map(|(_, r)| r.byte_size()).sum());

    // Under a combiner the shuffle step merges partials straight into the
    // fused projection's output — identical, record for record, to group
    // + project, so digest sites at reduce position 0 still correspond
    // across replicas regardless of combining. A shuffle-site point
    // cannot be served (no materialized bags); the caller must not
    // combine in that case.
    let combined = job.shuffle.is_some() && job.combiner.is_some();
    debug_assert!(
        !combined
            || !job
                .verification_points
                .iter()
                .any(|vp| matches!(vp.site, Site::Shuffle { .. })),
        "combiner active with a shuffle verification point"
    );
    if job.shuffle.is_some() {
        // Grouping/joining/sorting costs roughly two passes per record.
        out.work.record_ops += 2 * incoming.len() as u64;
    }
    let mut stream = Stream::open_partition(job, incoming, fate, &mut out.stages, pool);
    if let Some(shuffle) = job.shuffle {
        let here = |vp: &VpSite| {
            if combined {
                matches!(vp.site, Site::Reduce { pos: 0, .. })
            } else {
                matches!(vp.site, Site::Shuffle { .. }) && vp.vertex == shuffle
            }
        };
        digest_where(job, here, &stream, &mut out, pool);
    }

    for (pos, &vid) in job.reduce.iter().enumerate().skip(usize::from(combined)) {
        stream = timed(&mut out.stages.pipeline_ops, || {
            stream.apply(plan.vertex(vid).op(), &mut out.work)
        });
        let here = |vp: &VpSite| {
            vp.vertex == vid && matches!(vp.site, Site::Reduce { pos: p, .. } if p == pos)
        };
        digest_where(job, here, &stream, &mut out, pool);
    }

    // The one place reduce-side rows (and any bags still nested in a
    // columnar stream) become records.
    let records = timed(&mut out.stages.to_records, || stream.into_records());
    out.work.bytes_out = byte_size(&records);
    out.data = TaskData::Records(records);
    out
}

/// Digests `stream` once per verification point `here` selects — the one
/// place a task matches its verification points.
fn digest_where(
    job: &ExecJob,
    here: impl Fn(&VpSite) -> bool,
    stream: &Stream<'_>,
    out: &mut TaskOutput,
    pool: &ComputePool,
) {
    for vp in job.verification_points.iter().filter(|vp| here(vp)) {
        let summary = timed(&mut out.stages.digest, || {
            stream.digest(job.digest_granularity, &mut out.work, pool)
        });
        out.digests.push((*vp, summary));
    }
}

/// The rule that picks a [`Stream`] arm, as far as the job and the fate
/// decide it: the columnar plane runs the hot case, a faithful task
/// without a combiner. Corruption (a cold fault path) and combining keep
/// the row plane. The input's shape decides the rest — see
/// [`Stream::open_split`] and [`Stream::open_partition`].
fn columnar(job: &ExecJob, fate: TaskFate) -> bool {
    job.batch_records > 0 && fate == TaskFate::Faithful && job.combiner.is_none()
}

/// A stream of rows flowing through a task pipeline on the row plane.
///
/// Map tasks read their split as a borrowed slice of the `Arc`-shared input
/// file; per-record operators keep records borrowed as long as possible
/// (filters collect surviving *references*, only projections produce owned
/// records), and records are cloned at most once — at the partition/output
/// boundary, and only when the pipeline never produced owned records.
enum RecordStream<'a> {
    /// A contiguous borrowed slice (the untouched input split).
    Slice(&'a [Record]),
    /// A filtered subset of borrowed records.
    Refs(Vec<&'a Record>),
    /// Records owned by the task (produced by projections or corruption).
    Owned(Vec<Record>),
}

enum RecordStreamIter<'b, 'a> {
    Slice(std::slice::Iter<'b, Record>),
    Refs(std::iter::Copied<std::slice::Iter<'b, &'a Record>>),
}

impl<'b, 'a: 'b> Iterator for RecordStreamIter<'b, 'a> {
    type Item = &'b Record;

    fn next(&mut self) -> Option<&'b Record> {
        match self {
            RecordStreamIter::Slice(i) => i.next(),
            RecordStreamIter::Refs(i) => i.next(),
        }
    }
}

impl<'a> RecordStream<'a> {
    fn len(&self) -> usize {
        match self {
            RecordStream::Slice(s) => s.len(),
            RecordStream::Refs(v) => v.len(),
            RecordStream::Owned(v) => v.len(),
        }
    }

    fn iter(&self) -> RecordStreamIter<'_, 'a> {
        match self {
            RecordStream::Slice(s) => RecordStreamIter::Slice(s.iter()),
            RecordStream::Owned(v) => RecordStreamIter::Slice(v.iter()),
            RecordStream::Refs(v) => RecordStreamIter::Refs(v.iter().copied()),
        }
    }

    /// Materializes the stream as owned records, cloning only when the
    /// records are still borrowed from the input split.
    fn into_owned(self) -> Vec<Record> {
        match self {
            RecordStream::Owned(v) => v,
            RecordStream::Slice(s) => s.to_vec(),
            RecordStream::Refs(v) => v.into_iter().cloned().collect(),
        }
    }
}

/// The records flowing through one task, on the plane chosen when the
/// task opened its input. Batching is purely a host-side execution
/// strategy: digests, partition assignments, output records and work
/// counters are byte-identical on both arms, pinned by the `batched_*`
/// and `planes_agree_*` task tests.
enum Stream<'a> {
    /// Row-at-a-time execution: `--batch-size 0`, and the fallback for
    /// corrupt fates, combiners, ragged inputs and DISTINCT.
    Rows(RecordStream<'a>),
    /// Vectorized execution over batches of at most
    /// [`ExecJob::batch_records`] rows.
    Cols {
        batches: Vec<Batch>,
        /// Mirrors the row arm's borrow tracking: `false` while the rows
        /// are still columnar images of the input split, `true` once a
        /// projection (or a shuffle) produced fresh rows.
        owned: bool,
    },
}

impl<'a> Stream<'a> {
    /// Opens a map task's split. The columnar arm converts it to batches
    /// at the storage boundary; a ragged split (mixed arity within a
    /// batch) cannot be laid out columnar and falls back to rows before
    /// any counter is touched.
    fn open_split(
        job: &ExecJob,
        records: &'a [Record],
        fate: TaskFate,
        stages: &mut StageWall,
    ) -> Stream<'a> {
        if columnar(job, fate) {
            let batches: Option<Vec<Batch>> = timed(&mut stages.to_batch, || {
                records
                    .chunks(job.batch_records)
                    .map(Batch::from_records)
                    .collect()
            });
            if let Some(batches) = batches {
                data_plane::count_batches_built(batches.len() as u64);
                data_plane::count_batch_rows(records.len() as u64);
                return Stream::Cols {
                    batches,
                    owned: false,
                };
            }
        }
        Stream::Rows(if fate == TaskFate::Corrupt {
            // A commission fault: the node processes a corrupted view of
            // the data, so every downstream digest and output reflects
            // it. The corrupting clone happens only on this (cold) path.
            let mut owned = records.to_vec();
            owned.iter_mut().for_each(corrupt_record);
            RecordStream::Owned(owned)
        } else {
            RecordStream::Slice(records)
        })
    }

    /// Opens a reduce task's partition through the job's shuffle: the
    /// blocking operator (or the combiner's merge, or nothing for a
    /// collector) runs here, on the arm the partition admits. The
    /// columnar arm takes uniform-arity partitions (per join side) of
    /// GROUP, JOIN, ORDER and collector jobs; DISTINCT's whole-record
    /// sort/dedup already runs on owned rows with the pool's chunked sort.
    fn open_partition(
        job: &ExecJob,
        mut incoming: Vec<Tagged>,
        fate: TaskFate,
        stages: &mut StageWall,
        pool: &ComputePool,
    ) -> Stream<'static> {
        let op = job.shuffle.map(|sh| job.plan.vertex(sh).op());
        let untag = |tagged: Vec<Tagged>| tagged.into_iter().map(|(_, r)| r).collect::<Vec<_>>();
        let by_side = |tagged: Vec<Tagged>| {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (tag, r) in tagged {
                if tag == 0 {
                    left.push(r);
                } else {
                    right.push(r);
                }
            }
            (left, right)
        };

        if columnar(job, fate) && admits_columnar(op, &incoming) {
            // Convert the partition once, then run the shuffle as a
            // vectorized kernel: the post-shuffle stream is one batch
            // (bags stay nested in it), or the collector input in batches
            // of `batch_records` rows. Takes the records by value so they
            // are freed before the kernel runs.
            let mut to_batch = |records: Vec<Record>| {
                timed(&mut stages.to_batch, || {
                    Batch::from_records(&records).expect("arity checked above")
                })
            };
            let batches = match op {
                Some(Operator::Group { key }) => {
                    let batch = to_batch(untag(incoming));
                    vec![timed(&mut stages.shuffle_kernel, || {
                        group_batch(&batch, *key)
                    })]
                }
                Some(Operator::Join {
                    left_key,
                    right_key,
                }) => {
                    let (left, right) = by_side(incoming);
                    let (lb, rb) = (to_batch(left), to_batch(right));
                    vec![timed(&mut stages.shuffle_kernel, || {
                        join_batch(&lb, *left_key, &rb, *right_key)
                    })]
                }
                Some(Operator::Order { key, order }) => {
                    let batch = to_batch(untag(incoming));
                    vec![timed(&mut stages.shuffle_kernel, || {
                        order_batch(&batch, *key, *order)
                    })]
                }
                Some(_) => unreachable!("admits_columnar takes GROUP, JOIN and ORDER only"),
                None => timed(&mut stages.to_batch, || {
                    untag(incoming)
                        .chunks(job.batch_records)
                        .map(|rows| Batch::from_records(rows).expect("arity checked above"))
                        .collect()
                }),
            };
            data_plane::count_batches_built(batches.len() as u64);
            data_plane::count_batch_rows(batches.iter().map(|b| b.len() as u64).sum());
            return Stream::Cols {
                batches,
                owned: true,
            };
        }

        if fate == TaskFate::Corrupt {
            incoming.iter_mut().for_each(|(_, r)| corrupt_record(r));
        }
        let records = match (op, &job.combiner) {
            (Some(_), Some(comb)) => {
                let partials = untag(incoming);
                timed(&mut stages.shuffle_kernel, || comb.merge(&partials))
            }
            (Some(op), None) => timed(&mut stages.shuffle_kernel, || match op {
                Operator::Group { key } => group_records_owned(untag(incoming), *key),
                Operator::Join {
                    left_key,
                    right_key,
                } => {
                    let (left, right) = by_side(incoming);
                    join_records(&left, *left_key, &right, *right_key)
                }
                Operator::Distinct => {
                    let mut records = untag(incoming);
                    // Sorts the whole record, so ties are byte-identical
                    // and instability (and chunked parallel merging)
                    // cannot show.
                    pool.par_sort_unstable(&mut records);
                    records.dedup();
                    records
                }
                Operator::Order { key, order } => {
                    order_records_owned(untag(incoming), *key, *order)
                }
                other => {
                    debug_assert!(false, "non-blocking shuffle {}", other.name());
                    untag(incoming)
                }
            }),
            (None, _) => untag(incoming),
        };
        Stream::Rows(RecordStream::Owned(records))
    }

    fn len(&self) -> u64 {
        match self {
            Stream::Rows(s) => s.len() as u64,
            Stream::Cols { batches, .. } => batches.iter().map(|b| b.len() as u64).sum(),
        }
    }

    /// False while the rows are still (images of) the borrowed input
    /// split: materializing them at the output boundary is then a clone.
    fn is_owned(&self) -> bool {
        match self {
            Stream::Rows(s) => matches!(s, RecordStream::Owned(_)),
            Stream::Cols { owned, .. } => *owned,
        }
    }

    /// Applies one per-record operator. `LOAD`, `UNION` and `STORE`
    /// appear in pipelines only as pass-through markers.
    fn apply(self, op: &Operator, work: &mut Work) -> Stream<'a> {
        work.record_ops += self.len();
        match self {
            Stream::Rows(s) => Stream::Rows(apply_op(op, s)),
            Stream::Cols { mut batches, owned } => {
                apply_op_batched(op, &mut batches);
                Stream::Cols {
                    batches,
                    owned: owned || matches!(op, Operator::Project { .. }),
                }
            }
        }
    }

    /// Digests the stream at a verification point: every row canonically
    /// encoded, length-prefix framed and chunk-hashed.
    fn digest(&self, granularity: usize, work: &mut Work, pool: &ComputePool) -> ChunkedSummary {
        let mut cd = ChunkedDigest::new(granularity);
        let payload_bytes = match self {
            Stream::Rows(s) => frame_rows(s.iter(), &mut cd),
            Stream::Cols { batches, .. } => frame_batches(batches, granularity, &mut cd),
        };
        let count = self.len();
        work.digest_bytes += payload_bytes;
        // Intercepting each tuple costs about one operator pass (the
        // paper's Penny agents sit between script stages), on top of the
        // hash bytes.
        work.record_ops += count;
        data_plane::count_bytes_encoded(payload_bytes);
        data_plane::count_digest_bytes(payload_bytes + 8 * count);
        finish_chunked(cd, pool)
    }

    /// Routes a map task's output to `n` reduce partitions by shuffle
    /// key, materializing each row as an owned record.
    fn partition(self, key: ShuffleKey, tag: usize, n: usize, work: &mut Work) -> Vec<Partition> {
        match self {
            Stream::Rows(s) => partition_records(key, tag, s.into_owned(), n, work),
            Stream::Cols { batches, .. } => partition_batches(key, tag, &batches, n, work),
        }
    }

    /// Materializes the stream as owned records.
    fn into_records(self) -> Vec<Record> {
        match self {
            Stream::Rows(s) => s.into_owned(),
            Stream::Cols { batches, .. } => {
                let mut records = Vec::with_capacity(batches.iter().map(Batch::len).sum());
                for b in &batches {
                    records.extend(b.to_records());
                }
                records
            }
        }
    }
}

/// Whether a reduce partition can be laid out columnar for shuffle `op`:
/// the operator has a vectorized kernel and the records (per join side)
/// share one arity — the only conversion [`Batch::from_records`] refuses.
fn admits_columnar(op: Option<&Operator>, incoming: &[Tagged]) -> bool {
    fn uniform<'r>(mut records: impl Iterator<Item = &'r Record>) -> bool {
        match records.next() {
            None => true,
            Some(first) => {
                let arity = first.arity();
                records.all(|r| r.arity() == arity)
            }
        }
    }
    let side = |left: bool| {
        incoming
            .iter()
            .filter(move |(tag, _)| (*tag == 0) == left)
            .map(|(_, r)| r)
    };
    match op {
        Some(Operator::Join { .. }) => uniform(side(true)) && uniform(side(false)),
        Some(Operator::Group { .. } | Operator::Order { .. }) | None => {
            uniform(incoming.iter().map(|(_, r)| r))
        }
        Some(_) => false,
    }
}

/// Row kernel of [`Stream::apply`]. Borrowed streams stay borrowed
/// through filters and limits; only projections materialize new (owned)
/// records.
fn apply_op<'a>(op: &Operator, records: RecordStream<'a>) -> RecordStream<'a> {
    match op {
        Operator::Load { .. } | Operator::Union | Operator::Store { .. } => records,
        Operator::Filter { predicate } => {
            let keep = |r: &Record| {
                predicate
                    .eval(&cbft_dataflow::EvalContext::new(r))
                    .is_truthy()
            };
            match records {
                RecordStream::Slice(s) => {
                    RecordStream::Refs(s.iter().filter(|r| keep(r)).collect())
                }
                RecordStream::Refs(v) => {
                    RecordStream::Refs(v.into_iter().filter(|r| keep(r)).collect())
                }
                RecordStream::Owned(v) => RecordStream::Owned(v.into_iter().filter(keep).collect()),
            }
        }
        Operator::Project { exprs, .. } => {
            RecordStream::Owned(records.iter().map(|r| project_record(r, exprs)).collect())
        }
        Operator::Limit { count } => {
            let count = *count as usize;
            match records {
                RecordStream::Slice(s) => RecordStream::Slice(&s[..count.min(s.len())]),
                RecordStream::Refs(mut v) => {
                    v.truncate(count);
                    RecordStream::Refs(v)
                }
                RecordStream::Owned(mut v) => {
                    v.truncate(count);
                    RecordStream::Owned(v)
                }
            }
        }
        blocking => {
            debug_assert!(false, "blocking operator {} in a pipeline", blocking.name());
            records
        }
    }
}

/// Vectorized kernel of [`Stream::apply`].
fn apply_op_batched(op: &Operator, batches: &mut [Batch]) {
    match op {
        Operator::Load { .. } | Operator::Union | Operator::Store { .. } => {}
        Operator::Filter { predicate } => {
            for b in batches.iter_mut() {
                *b = filter_batch(b, predicate);
            }
        }
        Operator::Project { exprs, .. } => {
            for b in batches.iter_mut() {
                *b = project_batch(b, exprs);
            }
        }
        Operator::Limit { count } => {
            let mut remaining = *count as usize;
            for b in batches.iter_mut() {
                let take = remaining.min(b.len());
                b.truncate(take);
                remaining -= take;
            }
        }
        blocking => {
            debug_assert!(false, "blocking operator {} in a pipeline", blocking.name());
        }
    }
}

/// What a shuffle hashes to route a row to its reduce partition. Both
/// partition kernels encode the same canonical bytes and hash them with
/// the same [`fnv1a`], so the assignment cannot depend on the plane.
#[derive(Clone, Copy)]
enum ShuffleKey {
    /// One field (`GROUP`'s key, `JOIN`'s key for this input's side).
    Field(usize),
    /// The whole row (`DISTINCT`).
    Row,
    /// Nothing: a single range partition (the engine forces one reduce
    /// task for the global sort of `ORDER`).
    Single,
}

impl ShuffleKey {
    fn of(shuffle: &Operator, tag: usize) -> ShuffleKey {
        match shuffle {
            Operator::Group { key } => ShuffleKey::Field(*key),
            Operator::Join {
                left_key,
                right_key,
            } => ShuffleKey::Field(if tag == 0 { *left_key } else { *right_key }),
            Operator::Distinct => ShuffleKey::Row,
            Operator::Order { .. } => ShuffleKey::Single,
            other => {
                debug_assert!(false, "non-blocking shuffle {}", other.name());
                ShuffleKey::Single
            }
        }
    }
}

fn bucket(key_bytes: &[u8], n: usize) -> usize {
    (fnv1a(key_bytes) % n as u64) as usize
}

/// Row kernel of [`Stream::partition`] (and the router of combiner
/// partials, keyed by their leading field).
fn partition_records(
    key: ShuffleKey,
    tag: usize,
    records: Vec<Record>,
    n: usize,
    work: &mut Work,
) -> Vec<Partition> {
    let mut parts = vec![Partition::default(); n];
    let mut buf = Vec::new();
    for r in records {
        work.bytes_out += r.byte_size();
        buf.clear();
        let p = match key {
            ShuffleKey::Field(k) => {
                r.get(k).unwrap_or(&Value::Null).write_canonical(&mut buf);
                bucket(&buf, n)
            }
            ShuffleKey::Row => {
                r.write_canonical(&mut buf);
                bucket(&buf, n)
            }
            ShuffleKey::Single => 0,
        };
        parts[p].0.push((tag, r));
    }
    parts
}

/// Vectorized kernel of [`Stream::partition`]: shuffle keys are encoded
/// straight out of the columns and rows materialize as records only once
/// their partition is known.
fn partition_batches(
    key: ShuffleKey,
    tag: usize,
    batches: &[Batch],
    n: usize,
    work: &mut Work,
) -> Vec<Partition> {
    let mut parts = vec![Partition::default(); n];
    let mut buf = Vec::new();
    for b in batches {
        for (row, r) in b.to_records().into_iter().enumerate() {
            buf.clear();
            let p = match key {
                ShuffleKey::Field(k) => {
                    b.write_value_canonical(row, k, &mut buf);
                    bucket(&buf, n)
                }
                ShuffleKey::Row => {
                    b.write_row_canonical(row, &mut buf);
                    bucket(&buf, n)
                }
                ShuffleKey::Single => 0,
            };
            work.bytes_out += r.byte_size();
            parts[p].0.push((tag, r));
        }
    }
    parts
}

/// Row kernel of [`Stream::digest`]: each record is canonically encoded
/// (with its length-prefix frame) into one reused buffer and fed to the
/// hasher as a single contiguous slice — no per-record allocation, and
/// whole blocks take the SHA-256 multi-block fast path. Returns the
/// payload bytes framed.
fn frame_rows<'r>(records: impl Iterator<Item = &'r Record>, cd: &mut ChunkedDigest) -> u64 {
    let mut buf = Vec::new();
    let mut payload_bytes = 0u64;
    for r in records {
        ChunkedDigest::begin_frame(&mut buf);
        r.write_canonical(&mut buf);
        ChunkedDigest::seal_frame(&mut buf);
        cd.append_framed(&buf);
        payload_bytes += (buf.len() - 8) as u64;
    }
    payload_bytes
}

/// Vectorized kernel of [`Stream::digest`]: frames whole chunk-aligned
/// runs of rows into one reused buffer per hasher update (byte-identical
/// digests). Returns the payload bytes framed.
fn frame_batches(batches: &[Batch], granularity: usize, cd: &mut ChunkedDigest) -> u64 {
    let mut run = Vec::new();
    let mut in_chunk = 0usize;
    let mut payload_bytes = 0u64;
    for b in batches {
        let mut row = 0;
        while row < b.len() {
            let take = (granularity - in_chunk).min(b.len() - row);
            run.clear();
            let mut payload = 0u64;
            for r in row..row + take {
                let start = run.len();
                run.extend_from_slice(&[0u8; 8]);
                b.write_row_canonical(r, &mut run);
                let len = (run.len() - start - 8) as u64;
                run[start..start + 8].copy_from_slice(&len.to_be_bytes());
                payload += len;
            }
            cd.append_run(&run, take, payload);
            payload_bytes += payload;
            in_chunk += take;
            if in_chunk == granularity {
                in_chunk = 0;
            }
            row += take;
        }
    }
    payload_bytes
}

/// Finalizes a chunked digest, fanning the Merkle levels over the
/// compute pool when there are enough parent hashes to amortize the
/// dispatch. Every partition of a level concatenates back to exactly
/// [`parent_level`], so the summary is byte-identical for every pool
/// size, including the inline pool.
fn finish_chunked(cd: ChunkedDigest, pool: &ComputePool) -> ChunkedSummary {
    /// Parents hashed per pool payload.
    const PAR_MERKLE_CHUNK: usize = 512;
    if pool.is_inline() {
        return cd.finish();
    }
    let handle = pool.worker_handle();
    cd.finish_with(move |level| {
        let parents = parent_count(level.len());
        if parents < 2 * PAR_MERKLE_CHUNK {
            return parent_level(level);
        }
        let shared: Arc<Vec<Digest>> = Arc::new(level.to_vec());
        let tasks = parents.div_ceil(PAR_MERKLE_CHUNK);
        handle
            .par_map(tasks, move |i| {
                let first = i * PAR_MERKLE_CHUNK;
                let last = (first + PAR_MERKLE_CHUNK).min(parents);
                parent_range(&shared, first, last)
            })
            .concat()
    })
}

fn byte_size(records: &[Record]) -> u64 {
    records.iter().map(Record::byte_size).sum()
}

/// FNV-1a, used for deterministic, platform-independent partitioning and
/// split placement.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExecInput;
    use cbft_dataflow::compile::{compile_plan, DataSource, JobOutput};
    use cbft_dataflow::{Script, Value};
    use std::sync::Arc;

    /// Builds an ExecJob straight from a single-job script, for testing
    /// the task layer without the engine.
    fn exec_job(src: &str, vps: Vec<VpSite>) -> ExecJob {
        let plan = Arc::new(Script::parse(src).unwrap().into_plan());
        let graph = compile_plan(&plan);
        assert_eq!(graph.len(), 1, "test helper expects single-job scripts");
        let job = &graph.jobs()[0];
        ExecJob {
            plan: plan.clone(),
            inputs: job
                .inputs
                .iter()
                .map(|i| ExecInput {
                    file: match &i.source {
                        DataSource::Hdfs(f) => f.clone(),
                        DataSource::Intermediate(_) => unreachable!(),
                    },
                    pipeline: i.pipeline.clone(),
                    tag: i.tag,
                })
                .collect(),
            shuffle: job.shuffle,
            reduce: job.reduce.clone(),
            output_file: match &job.output {
                JobOutput::Store(f) => f.clone(),
                JobOutput::Intermediate => "tmp".to_owned(),
            },
            reduce_task_count: if job.single_reduce { 1 } else { 2 },
            map_split_records: 1000,
            verification_points: vps,
            digest_granularity: usize::MAX,
            batch_records: 1024,
            sid: "s".to_owned(),
            replica: 0,
            combiner: None,
            sample: None,
        }
    }

    fn ints(rows: &[&[i64]]) -> Vec<Record> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    fn parts(out: &TaskOutput) -> &[Partition] {
        match &out.data {
            TaskData::Partitions(parts) => parts,
            TaskData::Records(_) => panic!("map output expected"),
        }
    }

    fn recs(out: &TaskOutput) -> &[Record] {
        match &out.data {
            TaskData::Records(records) => records,
            TaskData::Partitions(_) => panic!("reduce output expected"),
        }
    }

    const FOLLOWER: &str = "raw = LOAD 'twitter' AS (user, follower);
         clean = FILTER raw BY follower IS NOT NULL;
         grp = GROUP clean BY user;
         cnt = FOREACH grp GENERATE group, COUNT(clean) AS n;
         STORE cnt INTO 'counts';";

    #[test]
    fn map_task_filters_and_partitions() {
        let job = exec_job(FOLLOWER, vec![]);
        let mut records = ints(&[&[1, 10], &[2, 20], &[1, 30]]);
        records.push(Record::new(vec![Value::Int(9), Value::Null]));
        let out = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let total: usize = parts(&out).iter().map(Partition::len).sum();
        assert_eq!(total, 3, "null follower filtered out");
        assert_eq!(parts(&out).len(), 2);
        // Same user always lands in the same partition.
        for part in parts(&out) {
            let users: Vec<i64> = part
                .0
                .iter()
                .filter_map(|(_, r)| r.get(0).and_then(Value::as_int))
                .collect();
            for u in &users {
                let home = parts(&out)
                    .iter()
                    .position(|p| {
                        p.0.iter()
                            .any(|(_, r)| r.get(0).and_then(Value::as_int) == Some(*u))
                    })
                    .unwrap();
                let _ = home;
            }
            let _ = users;
        }
    }

    #[test]
    fn reduce_task_groups_and_aggregates() {
        let job = exec_job(FOLLOWER, vec![]);
        let incoming: Vec<Tagged> = ints(&[&[1, 10], &[1, 30], &[2, 20]])
            .into_iter()
            .map(|r| (0, r))
            .collect();
        let out = run_reduce_task(
            &job,
            Partition(incoming),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(recs(&out), ints(&[&[1, 2], &[2, 1]]));
    }

    #[test]
    fn corrupt_map_task_changes_digest_and_output() {
        let plan_vps = |job: &ExecJob| {
            // Verification point after the map-side filter (input 0, pos 1).
            vec![VpSite {
                vertex: job.inputs[0].pipeline[1],
                site: Site::MapInput {
                    job: cbft_dataflow::compile::JobId(0),
                    input: 0,
                    pos: 1,
                },
            }]
        };
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = plan_vps(&job);
        let records = ints(&[&[1, 10], &[2, 20]]);
        let honest = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let corrupt = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Corrupt,
            &ComputePool::default(),
        );
        assert_eq!(honest.digests.len(), 1);
        assert_eq!(corrupt.digests.len(), 1);
        assert!(!honest.digests[0]
            .1
            .compare(&corrupt.digests[0].1)
            .is_match());
    }

    #[test]
    fn replicated_tasks_produce_identical_digests() {
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = vec![VpSite {
            vertex: job.inputs[0].pipeline[1],
            site: Site::MapInput {
                job: cbft_dataflow::compile::JobId(0),
                input: 0,
                pos: 1,
            },
        }];
        let records = ints(&[&[1, 10], &[2, 20], &[3, 30]]);
        let a = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let b = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert!(a.digests[0].1.compare(&b.digests[0].1).is_match());
        assert_eq!(a.data, b.data, "partitioning is deterministic");
    }

    #[test]
    fn join_reduce_respects_tags() {
        let job = exec_job(
            "a = LOAD 'e' AS (user, follower);
             b = LOAD 'e' AS (user, follower);
             j = JOIN a BY follower, b BY user;
             STORE j INTO 'o';",
            vec![],
        );
        let incoming: Vec<Tagged> = vec![
            (0, Record::new(vec![Value::Int(1), Value::Int(2)])),
            (1, Record::new(vec![Value::Int(2), Value::Int(3)])),
        ];
        let out = run_reduce_task(
            &job,
            Partition(incoming),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(recs(&out), ints(&[&[1, 2, 2, 3]]));
    }

    #[test]
    fn order_uses_single_partition() {
        let job = exec_job(
            "a = LOAD 'f' AS (x);
             o = ORDER a BY x DESC;
             STORE o INTO 'out';",
            vec![],
        );
        assert_eq!(job.reduce_task_count, 1);
        let out = run_map_task(
            &job,
            0,
            &ints(&[&[1], &[3], &[2]]),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(parts(&out).len(), 1);
        let reduced = run_reduce_task(
            &job,
            out.data.into_partitions().into_iter().next().unwrap(),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(recs(&reduced), ints(&[&[3], &[2], &[1]]));
    }

    #[test]
    fn shuffle_digest_site_fires_on_reduce() {
        let mut job = exec_job(FOLLOWER, vec![]);
        let shuffle = job.shuffle.unwrap();
        job.verification_points = vec![VpSite {
            vertex: shuffle,
            site: Site::Shuffle {
                job: cbft_dataflow::compile::JobId(0),
            },
        }];
        let incoming: Vec<Tagged> = ints(&[&[1, 10]]).into_iter().map(|r| (0, r)).collect();
        let out = run_reduce_task(
            &job,
            Partition(incoming),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].0.vertex, shuffle);
    }

    #[test]
    fn work_counters_are_filled() {
        let job = exec_job(FOLLOWER, vec![]);
        let out = run_map_task(
            &job,
            0,
            &ints(&[&[1, 2], &[3, 4]]),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert!(out.work.bytes_in > 0);
        assert!(out.work.bytes_out > 0);
        assert!(out.work.record_ops > 0);
    }

    /// Asserts every observable of two task outputs is byte-identical:
    /// partitions or records, work counters, the commitment, and digest
    /// summaries down to the combined fold and the Merkle root.
    fn assert_identical(a: &TaskOutput, b: &TaskOutput, ctx: &str) {
        assert_eq!(a.data, b.data, "{ctx}: data");
        assert_eq!(a.work, b.work, "{ctx}: work");
        assert_eq!(a.commitment(2), b.commitment(2), "{ctx}: commitment");
        assert_eq!(a.digests.len(), b.digests.len(), "{ctx}: digest count");
        for ((va, sa), (vb, sb)) in a.digests.iter().zip(&b.digests) {
            assert_eq!(va, vb, "{ctx}: vp order");
            assert_eq!(sa, sb, "{ctx}: summary");
            assert_eq!(sa.combined(), sb.combined(), "{ctx}: combined");
            assert_eq!(sa.merkle_root(), sb.merkle_root(), "{ctx}: root");
        }
    }

    #[test]
    fn batched_map_task_matches_row_path_byte_for_byte() {
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = vec![VpSite {
            vertex: job.inputs[0].pipeline[1],
            site: Site::MapInput {
                job: cbft_dataflow::compile::JobId(0),
                input: 0,
                pos: 1,
            },
        }];
        job.digest_granularity = 3;
        let records: Vec<Record> = (0..53i64)
            .map(|i| {
                let f = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 11 % 17)
                };
                Record::new(vec![Value::Int(i % 5), f])
            })
            .collect();
        job.batch_records = 0;
        let row = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        for bs in [1usize, 7, 1024] {
            job.batch_records = bs;
            let batched = run_map_task(
                &job,
                0,
                &records,
                TaskFate::Faithful,
                &ComputePool::default(),
            );
            assert_identical(&batched, &row, &format!("batch_records {bs}"));
        }
    }

    /// Runs `src`'s reduce task over `incoming` on the row path and on the
    /// columnar path at several batch sizes, with a shuffle-site and
    /// every reduce-site verification point armed, at chunk granularities
    /// 1, 2 and unchunked; every observable must be byte-identical.
    /// Returns the (row path's) output records.
    fn assert_group_reduce_matches_row_path(src: &str, incoming: &[Tagged]) -> Vec<Record> {
        let mut job = exec_job(src, vec![]);
        let jid = cbft_dataflow::compile::JobId(0);
        let mut vps = vec![VpSite {
            vertex: job.shuffle.unwrap(),
            site: Site::Shuffle { job: jid },
        }];
        vps.extend(job.reduce.iter().enumerate().map(|(pos, &vertex)| VpSite {
            vertex,
            site: Site::Reduce { job: jid, pos },
        }));
        job.verification_points = vps;
        let pool = ComputePool::default();
        let mut records = Vec::new();
        for granularity in [1usize, 2, usize::MAX] {
            job.digest_granularity = granularity;
            job.batch_records = 0;
            let row = run_reduce_task(
                &job,
                Partition(incoming.to_vec()),
                TaskFate::Faithful,
                &pool,
            );
            assert_eq!(row.digests.len(), 1 + job.reduce.len());
            for bs in [1usize, 5, 1024] {
                job.batch_records = bs;
                let batched = run_reduce_task(
                    &job,
                    Partition(incoming.to_vec()),
                    TaskFate::Faithful,
                    &pool,
                );
                assert_identical(
                    &batched,
                    &row,
                    &format!("granularity {granularity} batch_records {bs}: {src}"),
                );
            }
            records = recs(&row).to_vec();
        }
        records
    }

    /// 40 edges over 6 users plus a null-keyed and a null-valued row.
    fn follower_partition() -> Vec<Tagged> {
        let mut incoming: Vec<Tagged> = (0..40i64)
            .map(|i| (0, Record::new(vec![Value::Int(i % 6), Value::Int(i)])))
            .collect();
        incoming.push((0, Record::new(vec![Value::Null, Value::Int(7)])));
        incoming.push((0, Record::new(vec![Value::Int(3), Value::Null])));
        incoming
    }

    #[test]
    fn batched_reduce_group_matches_row_path_byte_for_byte() {
        let incoming: Vec<Tagged> = (0..40i64)
            .map(|i| (0, Record::new(vec![Value::Int(i % 6), Value::Int(i)])))
            .collect();
        assert_group_reduce_matches_row_path(FOLLOWER, &incoming);
    }

    #[test]
    fn batched_reduce_aggregates_match_row_path() {
        let out = assert_group_reduce_matches_row_path(
            "raw = LOAD 'twitter' AS (user, follower);
             grp = GROUP raw BY user;
             agg = FOREACH grp GENERATE group, COUNT(raw) AS n, SUM(raw.follower) AS s,
                   AVG(raw.follower) AS a, MIN(raw.follower) AS lo, MAX(raw.follower) AS hi;
             STORE agg INTO 'aggs';",
            &follower_partition(),
        );
        // User 3 holds followers 3, 9, ..., 39 and one null.
        let user3 = out.iter().find(|r| r.get(0) == Some(&Value::Int(3)));
        assert_eq!(user3, Some(&ints(&[&[3, 8, 147, 21, 3, 39]])[0]));
    }

    #[test]
    fn batched_reduce_group_filter_limit_pipeline_matches_row_path() {
        let out = assert_group_reduce_matches_row_path(
            "raw = LOAD 'twitter' AS (user, follower);
             grp = GROUP raw BY user;
             cnt = FOREACH grp GENERATE group, COUNT(raw) AS n;
             big = FILTER cnt BY n >= 7;
             top = LIMIT big 3;
             STORE top INTO 'top';",
            &follower_partition(),
        );
        assert_eq!(out, ints(&[&[0, 7], &[1, 7], &[2, 7]]));
    }

    #[test]
    fn stored_grouped_relation_keeps_its_bags_into_the_next_job() {
        // The bags reach the task output as values...
        let grouped = assert_group_reduce_matches_row_path(
            "raw = LOAD 'twitter' AS (user, follower);
             grp = GROUP raw BY user;
             STORE grp INTO 'groups';",
            &follower_partition(),
        );
        assert_eq!(grouped.len(), 7, "six users and the null key");
        assert!(grouped.iter().all(|r| r.get(1).unwrap().as_bag().is_some()));

        // ...and a later job reads them back as a `Column::Mixed`, where
        // the aggregate takes the exact row-wise fallback.
        let mut next = exec_job(
            "grp = LOAD 'groups' AS (user, members);
             cnt = FOREACH grp GENERATE user, COUNT(members) AS n;
             STORE cnt INTO 'counts';",
            vec![],
        );
        let pool = ComputePool::default();
        next.batch_records = 0;
        let row = run_map_task(&next, 0, &grouped, TaskFate::Faithful, &pool);
        next.batch_records = 4;
        let batched = run_map_task(&next, 0, &grouped, TaskFate::Faithful, &pool);
        assert_identical(&batched, &row, "stored bags");
        let mut counts = Vec::new();
        row.data.append_to(&mut counts);
        assert_eq!(counts.len(), 7);
        assert_eq!(counts[0], Record::new(vec![Value::Null, Value::Int(1)]));
    }

    #[test]
    fn group_aggregate_reduce_materializes_only_its_output_rows() {
        use cbft_dataflow::stats::thread_rows_materialized;
        let job = exec_job(FOLLOWER, vec![]);
        let incoming = follower_partition();
        let pool = ComputePool::default(); // inline: the task runs on this thread
        let before = thread_rows_materialized();
        let out = run_reduce_task(&job, Partition(incoming), TaskFate::Faithful, &pool);
        assert_eq!(recs(&out).len(), 7);
        assert_eq!(
            thread_rows_materialized() - before,
            recs(&out).len() as u64,
            "no per-input-row or per-bag materialization"
        );
        assert!(out.stages.shuffle_kernel > 0 && out.stages.to_records > 0);
        assert_eq!(out.stages.partition, 0, "reduce tasks do not partition");
    }

    #[test]
    fn batched_reduce_join_and_order_match_row_path() {
        let join_job = |bs: usize| {
            let mut j = exec_job(
                "a = LOAD 'e' AS (user, follower);
                 b = LOAD 'e' AS (user, follower);
                 j = JOIN a BY follower, b BY user;
                 STORE j INTO 'o';",
                vec![],
            );
            j.batch_records = bs;
            j
        };
        let incoming: Vec<Tagged> = (0..30i64)
            .map(|i| {
                (
                    (i % 2) as usize,
                    Record::new(vec![Value::Int(i % 4), Value::Int(i % 3)]),
                )
            })
            .collect();
        let row = run_reduce_task(
            &join_job(0),
            Partition(incoming.clone()),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let batched = run_reduce_task(
            &join_job(8),
            Partition(incoming.clone()),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_identical(&batched, &row, "join");

        let order_job = |bs: usize| {
            let mut j = exec_job(
                "a = LOAD 'f' AS (x, y);
                 o = ORDER a BY y DESC;
                 STORE o INTO 'out';",
                vec![],
            );
            j.batch_records = bs;
            j
        };
        let incoming: Vec<Tagged> = (0..25i64)
            .map(|i| (0, Record::new(vec![Value::Int(i), Value::Int(i * 13 % 11)])))
            .collect();
        let row = run_reduce_task(
            &order_job(0),
            Partition(incoming.clone()),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let batched = run_reduce_task(
            &order_job(4),
            Partition(incoming),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_identical(&batched, &row, "order");
    }

    #[test]
    fn ragged_split_falls_back_to_row_execution() {
        let mut job = exec_job(
            "a = LOAD 'f' AS (x);
             o = FILTER a BY x IS NOT NULL;
             STORE o INTO 'out';",
            vec![],
        );
        let records = vec![
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Int(2), Value::Int(3)]), // ragged arity
            Record::new(vec![Value::Null]),
        ];
        job.batch_records = 1024;
        let batched = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        job.batch_records = 0;
        let row = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_identical(&batched, &row, "ragged fallback");
    }

    #[test]
    fn pool_built_merkle_tree_is_identical_to_inline() {
        // Enough granularity-1 chunks (> 2 × the 512-parent payload
        // threshold) that the threaded pool actually fans levels out.
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = vec![VpSite {
            vertex: job.inputs[0].pipeline[1],
            site: Site::MapInput {
                job: cbft_dataflow::compile::JobId(0),
                input: 0,
                pos: 1,
            },
        }];
        job.digest_granularity = 1;
        let records: Vec<Record> = (0..2500i64)
            .map(|i| Record::new(vec![Value::Int(i % 9), Value::Int(i)]))
            .collect();
        let inline = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let threaded = ComputePool::new(2);
        let pooled = run_map_task(&job, 0, &records, TaskFate::Faithful, &threaded);
        assert_identical(&pooled, &inline, "pool merkle");
        assert_eq!(inline.digests[0].1.chunks().len(), 2500);
        assert!(inline.digests[0].1.merkle().depth() > 10);
    }

    /// Runs every task of `job` over `rows` the way the engine would — two
    /// splits per input, the shuffle gather, one reduce (or collector)
    /// task per partition — and returns every task's output, maps first.
    fn run_all_tasks(job: &ExecJob, rows: &[Record], fate: TaskFate) -> Vec<TaskOutput> {
        let pool = ComputePool::default();
        let mut outs = Vec::new();
        for input in 0..job.inputs.len() {
            let (front, back) = rows.split_at(rows.len() / 2);
            for split in [front, back] {
                outs.push(run_map_task(job, input, split, fate, &pool));
            }
        }
        if job.is_map_only() {
            return outs;
        }
        let n = if job.is_collector() {
            1
        } else {
            job.reduce_task_count
        };
        let mut runs: Vec<Vec<Partition>> = vec![Vec::new(); n];
        for out in &outs {
            for (p, run) in out.data.clone().into_partitions().into_iter().enumerate() {
                runs[if job.is_collector() { 0 } else { p }].push(run);
            }
        }
        for part in runs {
            outs.push(run_reduce_task(job, Partition::concat(part), fate, &pool));
        }
        outs
    }

    /// A single-job script over `in(k, v)`: optional map-side FILTER and
    /// FOREACH, one of GROUP / JOIN / ORDER / DISTINCT / no shuffle, an
    /// optional reduce-side FOREACH + FILTER (after GROUP) and LIMIT.
    fn task_script(shuffle: usize, opts: [bool; 4], limit: u64) -> String {
        let [map_filter, map_project, reduce_project, reduce_limit] = opts;
        let mut src = "a = LOAD 'in' AS (k, v);\n".to_owned();
        let mut cur = "a";
        if map_filter {
            src += "b = FILTER a BY v IS NOT NULL;\n";
            cur = "b";
        }
        if map_project {
            src += &format!("c = FOREACH {cur} GENERATE k, v;\n");
            cur = "c";
        }
        match shuffle {
            0 => {
                src += &format!("g = GROUP {cur} BY k;\n");
                if reduce_project {
                    src += &format!("r = FOREACH g GENERATE group, COUNT({cur}) AS n;\n");
                    src += "f = FILTER r BY n >= 2;\n";
                    cur = "f";
                } else {
                    cur = "g";
                }
            }
            1 => {
                src += &format!("z = LOAD 'in' AS (k, v);\nj = JOIN {cur} BY k, z BY v;\n");
                cur = "j";
            }
            2 => {
                src += &format!("o = ORDER {cur} BY v DESC;\n");
                cur = "o";
            }
            3 => {
                src += &format!("d = DISTINCT {cur};\n");
                cur = "d";
            }
            _ => {}
        }
        if reduce_limit {
            src += &format!("l = LIMIT {cur} {limit};\n");
            cur = "l";
        }
        src + &format!("STORE {cur} INTO 'out';")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// Plane equivalence at the task boundary: for random splits
        /// (duplicate keys, nulls, strings, optionally ragged arity), a
        /// random pipeline around each shuffle kind, both fates, combiner
        /// on and off, a verification point at every eligible site and
        /// chunk granularities 1, 2 and unchunked, every observable of
        /// every task — partitions, records, digests, `Work`, commitment
        /// — equals the `batch_records = 0` run at batch sizes 1, 3, 1024.
        #[test]
        fn planes_agree_on_every_task_observable(
            cells in proptest::collection::vec((0i64..5, 0u8..9, 0u8..6), 0..40),
            shape in 0usize..(5 * 64),
            limit in 1u64..12,
        ) {
            let (shuffle, flags) = (shape % 5, shape / 5);
            let flag = |bit: usize| flags >> bit & 1 == 1;
            let (ragged, combine) = (flag(4), flag(5));
            let rows: Vec<Record> = cells
                .iter()
                .map(|&(k, v, arity)| {
                    let k = if k == 4 { Value::Null } else { Value::Int(k) };
                    let v = match v {
                        0 => Value::Null,
                        1 => Value::str("a"),
                        2 => Value::str("b"),
                        n => Value::Int(n as i64),
                    };
                    Record::new(match arity {
                        0 if ragged => vec![k],
                        1 if ragged => vec![k, v, Value::Int(7)],
                        _ => vec![k, v],
                    })
                })
                .collect();

            let src = task_script(shuffle, [flag(0), flag(1), flag(2), flag(3)], limit);
            let mut job = exec_job(&src, vec![]);
            if combine {
                if let (Some(sh), Some(&first)) = (job.shuffle, job.reduce.first()) {
                    job.combiner = cbft_dataflow::combiner::Combiner::for_job(
                        job.plan.vertex(sh).op(),
                        job.plan.vertex(first).op(),
                    );
                }
            }
            let jid = cbft_dataflow::compile::JobId(0);
            let mut vps = Vec::new();
            for (input, i) in job.inputs.iter().enumerate() {
                vps.extend(i.pipeline.iter().enumerate().map(|(pos, &vertex)| VpSite {
                    vertex,
                    site: Site::MapInput { job: jid, input, pos },
                }));
            }
            // Under a combiner the shuffle has no materialized bags to digest.
            vps.extend(job.shuffle.filter(|_| job.combiner.is_none()).map(|vertex| VpSite {
                vertex,
                site: Site::Shuffle { job: jid },
            }));
            vps.extend(job.reduce.iter().enumerate().map(|(pos, &vertex)| VpSite {
                vertex,
                site: Site::Reduce { job: jid, pos },
            }));
            let armed = vps.len();
            job.verification_points = vps;

            for fate in [TaskFate::Faithful, TaskFate::Corrupt] {
                for granularity in [1usize, 2, usize::MAX] {
                    job.digest_granularity = granularity;
                    job.batch_records = 0;
                    let rows_plane = run_all_tasks(&job, &rows, fate);
                    let digests: usize = rows_plane.iter().map(|o| o.digests.len()).sum();
                    assert!(digests >= armed, "every site digested: {src}");
                    for bs in [1usize, 3, 1024] {
                        job.batch_records = bs;
                        let cols_plane = run_all_tasks(&job, &rows, fate);
                        assert_eq!(cols_plane.len(), rows_plane.len());
                        for (task, (c, r)) in cols_plane.iter().zip(&rows_plane).enumerate() {
                            let ctx = format!(
                                "task {task} {fate:?} granularity {granularity} \
                                 batch_records {bs} combiner {}:\n{src}",
                                job.combiner.is_some()
                            );
                            assert_identical(c, r, &ctx);
                            assert_eq!(
                                c.commitment(granularity),
                                r.commitment(granularity),
                                "{ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The engine's capture flow at the task boundary: capture the true
    /// input, let the (possibly corrupt) task consume it, record its
    /// commitment, then check. An honest task confirms; a corrupt one is
    /// localized — on the row plane and on the columnar plane, where the
    /// corrupt run and the honest re-run even execute on different arms.
    #[test]
    fn spot_check_round_trip_confirms_honest_and_localizes_corrupt_on_both_planes() {
        use crate::spec::{RunHandle, TaskKind};
        use crate::spotcheck::SpotCheckRecord;

        let file: Arc<[Record]> = follower_partition().into_iter().map(|(_, r)| r).collect();
        let pool = ComputePool::default();
        for batch_records in [0usize, 1024] {
            let mut job = exec_job(FOLLOWER, vec![]);
            job.batch_records = batch_records;
            job.digest_granularity = 2;
            let spec = Arc::new(job);
            for fate in [TaskFate::Faithful, TaskFate::Corrupt] {
                let inputs = [
                    (
                        TaskKind::Map,
                        TaskInput::Split {
                            input: 0,
                            file: Arc::clone(&file),
                            start: 3,
                            end: 33,
                        },
                    ),
                    (
                        TaskKind::Reduce,
                        TaskInput::Partition(Partition(follower_partition())),
                    ),
                ];
                for (kind, mut input) in inputs {
                    let len = input.len() as u64;
                    let captured = input.capture();
                    let out = run_task(&spec, input.take(), fate, &pool);
                    let record = SpotCheckRecord {
                        handle: RunHandle::from_raw(0),
                        sid: spec.sid.clone(),
                        replica: 0,
                        kind,
                        task_index: 0,
                        node: crate::fault::NodeId(0),
                        recorded: out.commitment(spec.digest_granularity),
                        spec: Arc::clone(&spec),
                        input: captured,
                    };
                    let ctx = format!("{kind} task, {fate:?}, batch_records {batch_records}");
                    assert_eq!(record.records_to_rerun(), len, "{ctx}");
                    let verdict = record.check(&pool);
                    assert_eq!(verdict.confirmed, fate == TaskFate::Faithful, "{ctx}");
                    assert_eq!(
                        verdict.divergence.is_some(),
                        fate == TaskFate::Corrupt,
                        "{ctx}: {verdict:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Regression pin: partitioning must never change across versions,
        // or replica correspondence would silently break.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
