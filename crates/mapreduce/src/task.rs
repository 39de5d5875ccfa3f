//! Pure task execution: the real data movement of map and reduce tasks.
//!
//! These functions actually run the operator pipelines over records and
//! compute the verification-point digests, returning work counters that the
//! engine converts to virtual time through the cost model. Keeping them
//! pure (no cluster state) makes the task semantics directly testable.
//!
//! There is one map skeleton ([`run_map_task`]) and one reduce skeleton
//! ([`run_reduce_task`]). Both drive a private [`Stream`] whose two arms —
//! borrowed-or-owned rows, or a selection of a columnar batch — dispatch to
//! the row and vectorized kernels; the arm is chosen once, when the task opens its
//! input, and every work charge, clone count, stage timer and
//! verification-point match lives in the skeleton, not in the arm. The
//! engine and the spot-checker run tasks through [`run_task`] over
//! [`TaskInput`] / [`TaskOutput`]; the record format between operators
//! and between map and reduce ([`Partition`]) is known to this module
//! alone.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

pub(crate) use cbft_dataflow::batch::fnv1a;
use cbft_dataflow::batch::{
    group_aggregate, group_batch, join_batch, order_batch, pick, project, select,
    shuffle_partitions, Selection,
};
use cbft_dataflow::combiner::Combiner;
use cbft_dataflow::compile::Site;
use cbft_dataflow::interp::{
    group_records_owned, join_records, order_records_owned, project_record,
};
use cbft_dataflow::{Batch, Operator, Record, Value};
use cbft_digest::{
    parent_count, parent_level, parent_range, ChunkedDigest, ChunkedSummary, Digest,
};

use crate::compute::ComputePool;
use crate::fault::{corrupt_batch, corrupt_record, TaskFate};
use crate::metrics::data_plane;
use crate::spec::{ExecJob, TaskKind, VpSite};
use crate::storage::FileData;

/// A record tagged with its join side.
type Tagged = (usize, Record);

/// The rows a task hands over — the one data format between tasks and
/// out of them: a map task's share of one reduce partition, and the
/// whole output of a reduce, collector or shuffle-less map task. A
/// columnar task, faithful or corrupt, hands its rows over as selections
/// of the batch they live in — the input file's, or one the task built —
/// which the reduce kernels read in place and a job's output file keeps
/// as one batch; every other producer (the row plane, a ragged split, a
/// combiner, DISTINCT) hands over tagged records. Which form a
/// partition has is decided by the data alone and is invisible outside
/// this module: both hold the same `(tag, row)` sequence.
#[derive(Clone, Debug)]
pub(crate) enum Partition {
    /// Tagged records, in row order.
    Rows(Vec<Tagged>),
    /// `(tag, chunk)` runs, in row order; every run selects a row.
    Cols(Vec<(usize, Chunk)>),
}

impl Default for Partition {
    fn default() -> Self {
        Partition::Rows(Vec::new())
    }
}

impl Partition {
    /// Records in the partition.
    pub fn len(&self) -> usize {
        match self {
            Partition::Rows(rows) => rows.len(),
            Partition::Cols(runs) => runs.iter().map(|(_, c)| c.rows.len()).sum(),
        }
    }

    /// Σ [`Record::byte_size`] over the partition's rows, which for a
    /// run is [`Batch::canonical_bytes_in`] its selection.
    fn byte_size(&self) -> u64 {
        let run = |(_, c): &(usize, Chunk)| c.batch.canonical_bytes_in(&c.rows);
        match self {
            Partition::Rows(rows) => rows.iter().map(|(_, r)| r.byte_size()).sum(),
            Partition::Cols(runs) => runs.iter().map(run).sum(),
        }
    }

    /// The gather, of a shuffle partition's per-map runs and of a job's
    /// output alike: lists the runs in task order — a columnar map task
    /// hands each reduce partition one run, so a partition holds as many
    /// runs as the job has map tasks. Chunks and records move, never
    /// clone, and no batch is joined here: an aggregate-only GROUP reads
    /// the runs where they are ([`bags_unobserved`]), every other reduce
    /// task and a job's output file join them once ([`Partition::lay_out`]).
    /// The result stays columnar unless some run holds records (its task
    /// ran the row arm); then the batch runs materialize too — the exact
    /// fallback.
    pub fn concat(runs: Vec<Partition>) -> Partition {
        let any_rows = |run: &Partition| matches!(run, Partition::Rows(rows) if !rows.is_empty());
        if runs.iter().any(any_rows) {
            let mut buf = Vec::with_capacity(runs.iter().map(Partition::len).sum());
            for run in runs {
                buf.extend(run.into_tagged());
            }
            return Partition::Rows(buf);
        }
        let chunks = runs.into_iter().flat_map(|run| match run {
            Partition::Cols(chunks) => chunks,
            Partition::Rows(_) => Vec::new(),
        });
        Partition::Cols(chunks.collect())
    }

    /// The partition of `chunk`, tagged — of no run if it selects no row.
    fn cols(tag: usize, chunk: Chunk) -> Partition {
        let run = (!chunk.rows.is_empty()).then_some((tag, chunk));
        Partition::Cols(Vec::from_iter(run))
    }

    /// The partition as tagged records; batch runs materialize here.
    fn into_tagged(self) -> Vec<Tagged> {
        match self {
            Partition::Rows(rows) => rows,
            Partition::Cols(runs) => {
                let mut rows = Vec::with_capacity(runs.iter().map(|(_, c)| c.rows.len()).sum());
                for (tag, c) in runs {
                    c.rows.for_each(|_, row| rows.push((tag, c.batch.row(row))));
                }
                rows
            }
        }
    }

    /// The commission fault on every row, in whichever form it is held:
    /// [`corrupt_batch`] is [`corrupt_record`] on each row of a run, and
    /// copy-on-write: a run's batch is shared (with storage, the map
    /// task's other partitions, a spot-checker's capture).
    fn corrupt(&mut self) {
        match self {
            Partition::Rows(rows) => rows.iter_mut().for_each(|(_, r)| corrupt_record(r)),
            Partition::Cols(runs) => runs.iter_mut().for_each(|(_, c)| *c = c.corrupted()),
        }
    }

    /// Lays the partition out as one new batch per side — tag 0 and the
    /// rest when `by_tag` (a join), everything in the first otherwise —
    /// and leaves it empty. The selected rows of batch runs are joined
    /// with [`Batch::concat`], records converted once with
    /// [`Batch::from_records`]; the layout is the check: a side whose rows
    /// disagree on arity has none, and the partition stays as it was.
    fn lay_out(&mut self, by_tag: bool) -> Option<[Batch; 2]> {
        fn split<T>(items: &[(usize, T)], by_tag: bool) -> [Vec<&T>; 2] {
            let mut sides = [Vec::new(), Vec::new()];
            for (tag, item) in items {
                sides[usize::from(by_tag && *tag != 0)].push(item);
            }
            sides
        }
        let [left, right] = match &*self {
            Partition::Rows(rows) => split(rows, by_tag).map(|s| Batch::from_rows(&s)),
            Partition::Cols(runs) => split(runs, by_tag)
                .map(|side| Batch::concat(&side.iter().map(|c| c.run()).collect::<Vec<_>>())),
        };
        let sides = [left?, right?];
        *self = Partition::default();
        Some(sides)
    }

    /// The partition as runs of one arity, to be read where they are,
    /// leaving it empty: a columnar partition's own chunks, moved; a
    /// record partition laid out as one run, that copy timed into
    /// `to_batch`. A ragged partition has none and stays as it was.
    fn take_runs(&mut self, to_batch: &mut u64) -> Option<Vec<Chunk>> {
        match self {
            Partition::Rows(_) => {
                timed(to_batch, || self.lay_out(false)).map(|[all, _]| vec![Chunk::owned(all)])
            }
            Partition::Cols(runs) => {
                let arity = |i: usize| runs[i].1.batch.arity();
                let uniform = (1..runs.len()).all(|i| arity(i) == arity(0));
                uniform.then(|| std::mem::take(runs).into_iter().map(|(_, c)| c).collect())
            }
        }
    }

    /// The partition as a stored file, tags dropped: the gather of a
    /// job's last phase becomes the job's output this way. Batch runs are
    /// joined into one columnar file (a single run that selects its whole
    /// batch becomes the file, shared, and any other single run is copied
    /// out of its batch); records, runs that disagree on arity (a UNION of
    /// unequal inputs) and a partition of no rows, which has no schema to
    /// keep, are stored as records.
    pub fn into_file(mut self) -> FileData {
        let chunk = match &mut self {
            Partition::Rows(_) => None,
            Partition::Cols(runs) if runs.len() <= 1 => runs.pop().map(|(_, run)| run),
            columnar => columnar.lay_out(false).map(|[all, _]| Chunk::owned(all)),
        };
        let records = || Vec::from_iter(self.into_tagged().into_iter().map(|(_, r)| r));
        match chunk {
            Some(Chunk { batch, rows }) if rows.len() == batch.len() => batch.into(),
            Some(Chunk { batch, rows }) => batch.select_rows(&rows).into(),
            None => records().into(),
        }
    }
}

/// What a task runs on.
#[derive(Clone, Debug)]
pub(crate) enum TaskInput {
    /// A map task's split: a window into the shared write-once input
    /// file, whichever form it is stored in. Splitting a file across
    /// tasks costs only handle clones; the file itself is never copied.
    Split {
        /// Index into [`ExecJob::inputs`].
        input: usize,
        /// Shared handle to the whole input file.
        file: FileData,
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
    /// A split or a columnar partition costs handle clones (a shuffle
    /// partition's bucket bytes are shared, a listed run's ids copied):
    /// an untrusted task can copy a shared batch, never write to it
    /// ([`Partition::corrupt`]). A record partition is deep-cloned and
    /// charged one `records_cloned` per row.
    pub fn capture(&self) -> TaskInput {
        if let TaskInput::Partition(Partition::Rows(rows)) = self {
            data_plane::count_records_cloned(rows.len() as u64);
        }
        self.clone()
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
    /// Laying the task's input out in the form its arm reads, where that
    /// takes a copy: records → [`Batch`] for a record file's split or a
    /// record partition, [`Batch::concat`] of the runs for a columnar
    /// partition, the row arm's row image of a columnar split — and a
    /// corrupt fate's edit of its input (the selected rows of a columnar
    /// split or run copied once, the copy flipped; records flipped where
    /// they are) on either arm. A faithful columnar task over a
    /// columnar file reads its window in place and spends nothing here,
    /// and neither does an aggregate-only GROUP's reduce task over
    /// columnar runs: nothing is joined.
    pub to_batch: u64,
    /// Per-record operators (`FILTER`, `FOREACH`, `LIMIT`) — but not the
    /// first projection of a reduce task whose shuffle step already
    /// produced its output (a combiner's merge, the aggregate kernel).
    pub pipeline_ops: u64,
    /// The blocking shuffle operator (`GROUP`, `JOIN`, `ORDER`,
    /// `DISTINCT`, combiner merge); for an aggregate-only GROUP, the
    /// grouping and the fold of its aggregates both.
    pub shuffle_kernel: u64,
    /// Canonical encoding and hashing at verification points.
    pub digest: u64,
    /// Routing map output to reduce partitions: hashing each row's
    /// shuffle key and, on the columnar arm, listing each partition's row
    /// ids — its run is a selection of the batch the rows live in, and no
    /// row is copied (on the row arm the records move). Without a
    /// shuffle, handing the stream over as the one partition.
    pub partition: u64,
}

impl StageWall {
    /// `(trace arg name, nanoseconds)` per stage, in pipeline order.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("to_batch_ns", self.to_batch),
            ("pipeline_ops_ns", self.pipeline_ops),
            ("shuffle_kernel_ns", self.shuffle_kernel),
            ("digest_ns", self.digest),
            ("partition_ns", self.partition),
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
    /// The rows produced: a map task's output per reduce partition, or
    /// the one partition that holds everything — of a map task when the
    /// job has no shuffle, of every reduce and collector task — in the
    /// form the task's stream had.
    pub data: Vec<Partition>,
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
            data: Vec::new(),
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
    /// into one chunked stream ([`Framer`]). Computed once when the engine
    /// captures a sampled task and again by the trusted spot-checker after
    /// an honest re-run; any divergence between the two localizes via the
    /// summary's Merkle tree. Finished inline (never pool-fanned) so
    /// capture and re-check hash the byte-identical stream regardless of
    /// which thread runs them.
    pub fn commitment(&self, kind: TaskKind, granularity: usize) -> ChunkedSummary {
        let mut cd = ChunkedDigest::new(granularity);
        let mut framer = Framer::new(granularity);
        // A row's route (map output only) goes ahead of its encoding.
        let routed = if kind == TaskKind::Map { 16 } else { 0 };
        for (p, part) in self.data.iter().enumerate() {
            let route = |tag: usize| [p as u64, tag as u64].map(u64::to_be_bytes);
            match part {
                Partition::Rows(rows) => {
                    for (tag, r) in rows {
                        let route = route(*tag);
                        let row = |buf: &mut _| r.write_canonical(buf);
                        framer.frame(&mut cd, &route.as_flattened()[..routed], row);
                    }
                }
                Partition::Cols(runs) => {
                    for (tag, c) in runs {
                        let route = route(*tag);
                        let row = |row| move |buf: &mut _| c.batch.write_row_canonical(row, buf);
                        let route = &route.as_flattened()[..routed];
                        c.rows.for_each(|_, r| framer.frame(&mut cd, route, row(r)));
                    }
                }
            }
        }
        framer.finish(&mut cd);
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
        } => run_map_task(job, input, &file, start..end, fate, pool),
        TaskInput::Partition(incoming) => run_reduce_task(job, incoming, fate, pool),
    }
}

/// Executes one map task: applies the input pipeline to a split, digests
/// at map-side verification points, and partitions the result for the
/// shuffle.
///
/// The split is read where it is (`window` of the shared input `file`);
/// the columnar arm hands selections of its batch over, and the row arm
/// copies a record it kept borrowed at the partition boundary.
pub(crate) fn run_map_task(
    job: &ExecJob,
    input_index: usize,
    file: &FileData,
    window: Range<usize>,
    fate: TaskFate,
    pool: &ComputePool,
) -> TaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    let plan = &job.plan;
    let input = &job.inputs[input_index];
    let mut out = TaskOutput::new(0);
    // Each arm reads one form. A window in the other form is converted
    // once, here — a columnar file's into records for the row arm, a
    // record file's into a batch for the columnar arm (unless it is
    // ragged: then it stays rows) — and is borrowed from this frame from
    // then on like a window of the file, so the task charges the same
    // whichever form the file is stored in.
    let (image, converted): (Vec<Record>, Arc<Batch>);
    let split = match file.shared_batch() {
        Some(batch) if columnar(job) => Split::Cols(batch, window),
        Some(batch) => {
            image = timed(&mut out.stages.to_batch, || {
                window.map(|row| batch.row(row)).collect()
            });
            Split::Rows(&image)
        }
        None => {
            let records = &file.rows()[window];
            let batch = columnar(job)
                .then(|| timed(&mut out.stages.to_batch, || Batch::from_records(records)));
            match batch.flatten() {
                Some(batch) => {
                    count_batch_built(&batch);
                    converted = Arc::new(batch);
                    Split::Cols(&converted, 0..converted.len())
                }
                None => Split::Rows(records),
            }
        }
    };
    let mut stream = Stream::open_split(split, fate, &mut out);

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

    // The output boundary: partitions outlive the split borrow, so
    // records still borrowed from it are copied here — the row arm's one
    // copy. A columnar stream's partitions share the batch it read.
    let len = stream.len();
    if stream.borrows_records() {
        data_plane::count_records_cloned(len);
    }
    let work = &mut out.work;
    out.data = timed(&mut out.stages.partition, || {
        match job.shuffle.map(|sh| plan.vertex(sh).op()) {
            Some(op) => {
                let n = job.reduce_task_count.max(1);
                match &job.combiner {
                    // Map-side combining: one [key, partials...] record
                    // per local key, partitioned by the leading key (same
                    // hash as the raw records would have used).
                    Some(comb) => {
                        work.record_ops += 2 * len;
                        let partials = comb.partials(&stream.into_records());
                        partition_records(ShuffleKey::Field(0), input.tag, partials, n)
                    }
                    None => {
                        work.record_ops += len;
                        stream.partition(ShuffleKey::of(op, input.tag), input.tag, n)
                    }
                }
            }
            None => vec![stream.into_partition(input.tag)],
        }
    });
    out.work.bytes_out += out.data.iter().map(Partition::byte_size).sum::<u64>();
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
    let mut out = TaskOutput::new(incoming.byte_size());

    debug_assert!(
        job.combiner.is_none()
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
    // The shuffle step may hand over the first projection's output
    // already — a combiner's merge of partials does, and so does the
    // aggregate kernel of a GROUP whose bags nothing observes: identical,
    // record for record, to group + project, so digest sites at reduce
    // position 0 still correspond across replicas and planes. A
    // shuffle-site point cannot be served then (no materialized bags);
    // the caller must not combine in that case, and the kernel never runs
    // in it. The kernel is charged the projection's pass it stood for.
    let (mut stream, projected) =
        Stream::open_partition(job, incoming, fate, &mut out.stages, pool);
    if projected && job.combiner.is_none() {
        out.work.record_ops += stream.len();
    }
    if let Some(shuffle) = job.shuffle {
        let here = |vp: &VpSite| {
            if projected {
                matches!(vp.site, Site::Reduce { pos: 0, .. })
            } else {
                matches!(vp.site, Site::Shuffle { .. }) && vp.vertex == shuffle
            }
        };
        digest_where(job, here, &stream, &mut out, pool);
    }

    for (pos, &vid) in job.reduce.iter().enumerate().skip(usize::from(projected)) {
        stream = timed(&mut out.stages.pipeline_ops, || {
            stream.apply(plan.vertex(vid).op(), &mut out.work)
        });
        let here = |vp: &VpSite| {
            vp.vertex == vid && matches!(vp.site, Site::Reduce { pos: p, .. } if p == pos)
        };
        digest_where(job, here, &stream, &mut out, pool);
    }

    let part = stream.into_partition(0);
    out.work.bytes_out = part.byte_size();
    out.data = vec![part];
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

/// The rule that picks a [`Stream`] arm, as far as the job decides it:
/// the columnar plane runs every task of a job without a combiner,
/// whatever its fate — a Byzantine replica costs what an honest one does.
/// Combining keeps the row plane. The input's shape decides the rest —
/// see [`Stream::open_split`] and [`Stream::open_partition`] — and the arm
/// a map task ran on decides the form of the partitions it hands over.
fn columnar(job: &ExecJob) -> bool {
    job.batch_records > 0 && job.combiner.is_none()
}

/// The rule under which a GROUP builds no bag at all, evaluated like the
/// arm rule from what the job states: what is digested or stored is what
/// must exist. When the first reduce operator is a projection that reads
/// the bag only through `COUNT/SUM/MIN/MAX/AVG` — the condition under
/// which a combiner may replace the bags altogether, whose plan this
/// returns — and no verification point digests the shuffle's output,
/// nothing can observe a bag or the order of its members: every one of
/// those folds is order-independent, and whatever is digested or handed
/// over after the projection holds `[key, aggregate…]` only. The reduce
/// tasks of such a job read their partition's runs in place and fold them
/// ([`group_aggregate`]); every other job's join them first.
fn bags_unobserved(job: &ExecJob) -> Option<Combiner> {
    let op = |vertex| job.plan.vertex(vertex).op();
    let digested = |vp: &VpSite| matches!(vp.site, Site::Shuffle { .. });
    match (job.shuffle, job.reduce.first()) {
        (Some(shuffle), Some(&first)) if !job.verification_points.iter().any(digested) => {
            Combiner::for_job(op(shuffle), op(first))
        }
        _ => None,
    }
}

/// A map task's window into its input file, in the form its arm reads.
enum Split<'a> {
    /// Records: a record file, or the row arm's image of a columnar one.
    Rows(&'a [Record]),
    /// A row range of a columnar file, or of the columnar arm's image of
    /// a record one.
    Cols(&'a Arc<Batch>, Range<usize>),
}

/// The columnar arm's stream and a columnar partition's run: a shared
/// batch (the input file's, or one a task built) and its live rows.
/// `FILTER`, `LIMIT` and a map task's shuffle narrow or split the
/// selection and copy nothing, and a `FOREACH` that only names columns
/// swaps the batch for one sharing those columns under the same
/// selection; the batch's columns stay alive meanwhile.
#[derive(Clone, Debug)]
pub(crate) struct Chunk {
    batch: Arc<Batch>,
    rows: Selection,
}

impl Chunk {
    /// Every row of a batch the task built, shared from here on.
    fn owned(batch: Batch) -> Chunk {
        Chunk {
            rows: Selection::Range(0..batch.len()),
            batch: Arc::new(batch),
        }
    }

    /// The batch and its live rows, as the kernels read a run.
    fn run(&self) -> (&Batch, &Selection) {
        (&self.batch, &self.rows)
    }

    /// The commission fault, copy-on-write: the live rows copied out of
    /// the shared batch, and the copy flipped in place.
    fn corrupted(&self) -> Chunk {
        let mut copy = self.batch.select_rows(&self.rows);
        corrupt_batch(&mut copy);
        Chunk::owned(copy)
    }
}

/// Counts a batch a task built to lay its input out.
fn count_batch_built(batch: &Batch) {
    data_plane::count_batches_built(1);
    data_plane::count_batch_rows(batch.len() as u64);
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
    /// combiners, ragged inputs and DISTINCT.
    Rows(RecordStream<'a>),
    /// Vectorized execution over a selection: a split is read in place,
    /// its whole window selected, and a shuffle kernel's output is the
    /// batch it built.
    Cols(Chunk),
}

impl<'a> Stream<'a> {
    /// Opens a map task's split and charges the bytes it reads. The
    /// columnar arm shares the split's batch and copies nothing: the
    /// stream is the window, selected. Under a commission fault the node
    /// processes a corrupted view of the split — its window copied once
    /// and flipped in place, after `bytes_in` is charged for the true data
    /// — so every downstream digest and output reflects it.
    fn open_split(split: Split<'a>, fate: TaskFate, out: &mut TaskOutput) -> Stream<'a> {
        let corrupt = fate == TaskFate::Corrupt;
        match split {
            Split::Cols(batch, window) => {
                let mut chunk = Chunk {
                    batch: Arc::clone(batch),
                    rows: Selection::Range(window),
                };
                out.work.bytes_in = batch.canonical_bytes_in(&chunk.rows);
                if corrupt {
                    chunk = timed(&mut out.stages.to_batch, || chunk.corrupted());
                    count_batch_built(&chunk.batch);
                }
                Stream::Cols(chunk)
            }
            Split::Rows(records) => {
                out.work.bytes_in = records.iter().map(Record::byte_size).sum();
                Stream::Rows(if corrupt {
                    RecordStream::Owned(timed(&mut out.stages.to_batch, || {
                        let mut owned = records.to_vec();
                        owned.iter_mut().for_each(corrupt_record);
                        owned
                    }))
                } else {
                    RecordStream::Slice(records)
                })
            }
        }
    }

    /// Opens a reduce task's partition through the job's shuffle: the
    /// blocking operator (or the combiner's merge, or nothing for a
    /// collector) runs here, on the arm the partition admits; the flag
    /// says whether that step applied the first reduce operator too. The
    /// columnar arm takes uniform-arity partitions (per join side) of
    /// GROUP, JOIN, ORDER and collector jobs, in either form: a GROUP
    /// whose bags nothing observes ([`bags_unobserved`]) reads the batch
    /// runs in place — records are converted once, into one run — and
    /// folds them into its projection's output; for every other job the
    /// runs are joined, or the records converted, into one batch per
    /// side. DISTINCT's whole-record sort/dedup runs on owned rows with
    /// the pool's chunked sort, so it, like a combiner and a ragged
    /// partition, takes the partition as records — materializing it if it
    /// arrived as batches. A corrupt fate corrupts what the shuffle reads,
    /// where it is, in either form.
    fn open_partition(
        job: &ExecJob,
        mut incoming: Partition,
        fate: TaskFate,
        stages: &mut StageWall,
        pool: &ComputePool,
    ) -> (Stream<'static>, bool) {
        let op = job.shuffle.map(|sh| job.plan.vertex(sh).op());
        let StageWall {
            to_batch,
            shuffle_kernel,
            ..
        } = stages;
        if fate == TaskFate::Corrupt {
            timed(to_batch, || incoming.corrupt());
        }
        if columnar(job) {
            // The one match that decides whether the shuffle has a
            // vectorized kernel and runs it, over the partition as one
            // batch per side (only a JOIN has two) or, fused, as its runs;
            // a ragged partition stays whole for the row arm. The
            // post-shuffle stream is the kernel's output batch (bags stay
            // nested in it), or the collector's input as laid out.
            let mut sides = |by_tag: bool| timed(to_batch, || incoming.lay_out(by_tag));
            let fused = bags_unobserved(job);
            let batch = match op {
                None => sides(false).map(|[all, _]| all),
                Some(&Operator::Group { key }) => match &fused {
                    Some(plan) => incoming.take_runs(to_batch).map(|runs| {
                        data_plane::count_groups_unordered(1);
                        let runs: Vec<_> = runs.iter().map(Chunk::run).collect();
                        timed(shuffle_kernel, || group_aggregate(&runs, plan))
                    }),
                    None => sides(false)
                        .map(|[all, _]| timed(shuffle_kernel, || group_batch(&all, key))),
                },
                Some(&Operator::Join {
                    left_key,
                    right_key,
                }) => sides(true).map(|[left, right]| {
                    timed(shuffle_kernel, || {
                        join_batch(&left, left_key, &right, right_key)
                    })
                }),
                Some(&Operator::Order { key, order }) => sides(false)
                    .map(|[all, _]| timed(shuffle_kernel, || order_batch(&all, key, order))),
                Some(_) => None,
            };
            if let Some(batch) = batch {
                count_batch_built(&batch);
                return (Stream::Cols(Chunk::owned(batch)), fused.is_some());
            }
        }

        let incoming = incoming.into_tagged();
        let untag = |tagged: Vec<Tagged>| tagged.into_iter().map(|(_, r)| r).collect::<Vec<_>>();
        let records = match (op, &job.combiner) {
            (Some(_), Some(comb)) => {
                let partials = untag(incoming);
                timed(shuffle_kernel, || comb.merge(&partials))
            }
            (Some(op), None) => timed(shuffle_kernel, || match op {
                Operator::Group { key } => group_records_owned(untag(incoming), *key),
                Operator::Join {
                    left_key,
                    right_key,
                } => {
                    let (mut left, mut right) = (Vec::new(), Vec::new());
                    for (tag, r) in incoming {
                        if tag == 0 {
                            left.push(r);
                        } else {
                            right.push(r);
                        }
                    }
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
        let merged = op.is_some() && job.combiner.is_some();
        (Stream::Rows(RecordStream::Owned(records)), merged)
    }

    fn len(&self) -> u64 {
        match self {
            Stream::Rows(s) => s.len() as u64,
            Stream::Cols(chunk) => chunk.rows.len() as u64,
        }
    }

    /// True while the rows are records borrowed from the input split:
    /// handing them over at the output boundary is then a clone.
    fn borrows_records(&self) -> bool {
        matches!(self, Stream::Rows(s) if !matches!(s, RecordStream::Owned(_)))
    }

    /// Applies one per-record operator. `LOAD`, `UNION` and `STORE`
    /// appear in pipelines only as pass-through markers.
    fn apply(self, op: &Operator, work: &mut Work) -> Stream<'a> {
        work.record_ops += self.len();
        match self {
            Stream::Rows(s) => Stream::Rows(apply_op(op, s)),
            Stream::Cols(chunk) => Stream::Cols(apply_op_selected(op, chunk)),
        }
    }

    /// Digests the stream at a verification point: every row canonically
    /// encoded, length-prefix framed and chunk-hashed.
    fn digest(&self, granularity: usize, work: &mut Work, pool: &ComputePool) -> ChunkedSummary {
        let mut cd = ChunkedDigest::new(granularity);
        let payload_bytes = match self {
            Stream::Rows(s) => frame_rows(s.iter(), &mut cd),
            Stream::Cols(chunk) => frame_chunk(chunk, granularity, &mut cd),
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
    /// key. Each arm hands its rows over in its own form: owned records,
    /// or one selection of the stream's batch per partition.
    fn partition(self, key: ShuffleKey, tag: usize, n: usize) -> Vec<Partition> {
        match self {
            Stream::Rows(s) => partition_records(key, tag, s.into_owned(), n),
            Stream::Cols(chunk) => partition_chunk(key, tag, chunk, n),
        }
    }

    /// The whole stream as one partition: a reduce or collector task's
    /// output, or a map task's when the job has no shuffle. A chunk moves
    /// whole, its rows where they are.
    fn into_partition(self, tag: usize) -> Partition {
        match self {
            Stream::Rows(s) => {
                Partition::Rows(s.into_owned().into_iter().map(|r| (tag, r)).collect())
            }
            Stream::Cols(chunk) => Partition::cols(tag, chunk),
        }
    }

    /// Materializes the stream as owned records, for the combiner (whose
    /// jobs take the row arm).
    fn into_records(self) -> Vec<Record> {
        match self {
            Stream::Rows(s) => s.into_owned(),
            cols => {
                let tagged = cols.into_partition(0).into_tagged();
                tagged.into_iter().map(|(_, r)| r).collect()
            }
        }
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

/// Vectorized kernel of [`Stream::apply`]: a filter narrows the
/// selection, a projection that only names columns shares them under the
/// same selection ([`pick`]) and any other evaluates over it into a batch
/// of its own, a limit cuts it.
fn apply_op_selected(op: &Operator, mut chunk: Chunk) -> Chunk {
    match op {
        Operator::Load { .. } | Operator::Union | Operator::Store { .. } => {}
        Operator::Filter { predicate } => {
            chunk.rows = Selection::Rows(select(&chunk.batch, &chunk.rows, predicate));
        }
        Operator::Project { exprs, .. } => match pick(&chunk.batch, &mut chunk.rows, exprs) {
            Some(picked) => chunk.batch = Arc::new(picked),
            None => return Chunk::owned(project(&chunk.batch, &chunk.rows, exprs)),
        },
        Operator::Limit { count } => chunk.rows.truncate(*count as usize),
        blocking => {
            debug_assert!(false, "blocking operator {} in a pipeline", blocking.name());
        }
    }
    chunk
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
) -> Vec<Partition> {
    let mut parts = vec![Vec::new(); n];
    let mut buf = Vec::new();
    for r in records {
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
        parts[p].push((tag, r));
    }
    parts.into_iter().map(Partition::Rows).collect()
}

/// Vectorized kernel of [`Stream::partition`]: the bucket of every live
/// row is hashed straight out of the batch's columns into one byte per
/// row of the stream's window, and each partition's run is the rows of
/// one bucket — a selection of the one batch they all share, reading the
/// one byte array they all share ([`shuffle_partitions`]). No row is
/// copied; with one partition the chunk moves whole.
fn partition_chunk(key: ShuffleKey, tag: usize, chunk: Chunk, n: usize) -> Vec<Partition> {
    let (batch, rows) = (&chunk.batch, &chunk.rows);
    let runs = match key {
        _ if n == 1 => return vec![Partition::cols(tag, chunk)],
        ShuffleKey::Field(k) => shuffle_partitions(batch, rows, k, n),
        ShuffleKey::Row => {
            let mut buf = Vec::new();
            rows.partition(batch, n, |row| {
                buf.clear();
                batch.write_row_canonical(row, &mut buf);
                bucket(&buf, n)
            })
        }
        ShuffleKey::Single => rows.partition(batch, n, |_| 0),
    };
    let run = |rows: Selection| Chunk {
        batch: Arc::clone(batch),
        rows,
    };
    runs.into_iter()
        .map(|rows| Partition::cols(tag, run(rows)))
        .collect()
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

/// Vectorized kernel of [`Stream::digest`]: frames the live rows a run
/// at a time ([`Framer`]). Returns the payload bytes framed.
fn frame_chunk(chunk: &Chunk, granularity: usize, cd: &mut ChunkedDigest) -> u64 {
    let mut framer = Framer::new(granularity);
    let row = |row| move |buf: &mut _| chunk.batch.write_row_canonical(row, buf);
    chunk.rows.for_each(|_, r| framer.frame(cd, &[], row(r)));
    framer.finish(cd)
}

/// Rows framed into one reused buffer and handed to the hasher a run at a
/// time: a run ends where a digest chunk does, or at [`Framer::finish`] —
/// so the digest is byte-identical to one
/// [`ChunkedDigest::append_framed`] per row, and whole blocks take the
/// SHA-256 multi-block fast path.
#[derive(Default)]
struct Framer {
    granularity: usize,
    run: Vec<u8>,
    /// Rows and payload bytes in `run`, and payload bytes handed over.
    framed: (usize, u64),
    hashed: u64,
}

impl Framer {
    fn new(granularity: usize) -> Framer {
        Framer {
            granularity,
            ..Framer::default()
        }
    }

    /// Frames one row: `route`, then the payload `row` appends.
    fn frame(&mut self, cd: &mut ChunkedDigest, route: &[u8], row: impl FnOnce(&mut Vec<u8>)) {
        let start = self.run.len();
        self.run.extend_from_slice(&[0u8; 8]);
        self.run.extend_from_slice(route);
        row(&mut self.run);
        let len = (self.run.len() - start - 8) as u64;
        self.run[start..start + 8].copy_from_slice(&len.to_be_bytes());
        self.framed = (self.framed.0 + 1, self.framed.1 + len);
        if self.framed.0 == self.granularity {
            self.finish(cd);
        }
    }

    /// Hands the pending run over; returns the payload bytes framed.
    fn finish(&mut self, cd: &mut ChunkedDigest) -> u64 {
        if let (rows @ 1.., payload) = std::mem::take(&mut self.framed) {
            cd.append_run(&self.run, rows, payload);
            self.hashed += payload;
            self.run.clear();
        }
        self.hashed
    }
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

    /// One map task over all of `records`, held as a record file, on the
    /// inline pool.
    fn map_task(job: &ExecJob, input: usize, records: &[Record], fate: TaskFate) -> TaskOutput {
        let file = FileData::from(records.to_vec());
        let pool = ComputePool::default();
        run_map_task(job, input, &file, 0..records.len(), fate, &pool)
    }

    fn parts(out: &TaskOutput) -> &[Partition] {
        &out.data
    }

    /// A task's output rows, whatever form they are held in: the
    /// `(tag, record)` sequence of each partition.
    fn rows(out: &TaskOutput) -> Vec<Vec<Tagged>> {
        let parts = out.data.iter().cloned();
        parts.map(Partition::into_tagged).collect()
    }

    /// The records of a reduce (or shuffle-less map) task's one partition.
    fn recs(out: &TaskOutput) -> Vec<Record> {
        assert_eq!(out.data.len(), 1, "one output partition expected");
        let tagged = out.data[0].clone().into_tagged();
        tagged.into_iter().map(|(_, r)| r).collect()
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
        let out = map_task(&job, 0, &records, TaskFate::Faithful);
        let total: usize = parts(&out).iter().map(Partition::len).sum();
        assert_eq!(total, 3, "null follower filtered out");
        assert_eq!(parts(&out).len(), 2);
        // Same user always lands in the same partition.
        let by_part = rows(&out);
        let users = |p: usize| -> Vec<i64> {
            let user = |(_, r): &Tagged| r.get(0).and_then(Value::as_int);
            by_part[p].iter().filter_map(user).collect()
        };
        assert!(users(0).iter().all(|u| !users(1).contains(u)));
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
            Partition::Rows(incoming),
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
        let honest = map_task(&job, 0, &records, TaskFate::Faithful);
        let corrupt = map_task(&job, 0, &records, TaskFate::Corrupt);
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
        let a = map_task(&job, 0, &records, TaskFate::Faithful);
        let b = map_task(&job, 0, &records, TaskFate::Faithful);
        assert!(a.digests[0].1.compare(&b.digests[0].1).is_match());
        assert_eq!(rows(&a), rows(&b), "partitioning is deterministic");
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
            Partition::Rows(incoming),
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
        let out = map_task(&job, 0, &ints(&[&[1], &[3], &[2]]), TaskFate::Faithful);
        assert_eq!(parts(&out).len(), 1);
        let reduced = run_reduce_task(
            &job,
            out.data.into_iter().next().unwrap(),
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
            Partition::Rows(incoming),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].0.vertex, shuffle);
    }

    #[test]
    fn work_counters_are_filled() {
        let job = exec_job(FOLLOWER, vec![]);
        let out = map_task(&job, 0, &ints(&[&[1, 2], &[3, 4]]), TaskFate::Faithful);
        assert!(out.work.bytes_in > 0);
        assert!(out.work.bytes_out > 0);
        assert!(out.work.record_ops > 0);
    }

    /// The commitment under a map task's framing and under a reduce task's.
    fn commitments(out: &TaskOutput, granularity: usize) -> [ChunkedSummary; 2] {
        [TaskKind::Map, TaskKind::Reduce].map(|kind| out.commitment(kind, granularity))
    }

    /// Asserts every observable of two task outputs is byte-identical:
    /// partitions (as `(tag, record)` sequences — whether a partition is
    /// held as records or as batches is not an observable) or records,
    /// work counters, the commitment, and digest summaries down to the
    /// combined fold and the Merkle root.
    fn assert_identical(a: &TaskOutput, b: &TaskOutput, ctx: &str) {
        assert_eq!(rows(a), rows(b), "{ctx}: data");
        assert_eq!(a.work, b.work, "{ctx}: work");
        assert_eq!(commitments(a, 2), commitments(b, 2), "{ctx}: commitment");
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
        let row = map_task(&job, 0, &records, TaskFate::Faithful);
        for bs in [1usize, 7, 1024] {
            job.batch_records = bs;
            let batched = map_task(&job, 0, &records, TaskFate::Faithful);
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
                Partition::Rows(incoming.to_vec()),
                TaskFate::Faithful,
                &pool,
            );
            assert_eq!(row.digests.len(), 1 + job.reduce.len());
            for bs in [1usize, 5, 1024] {
                job.batch_records = bs;
                let batched = run_reduce_task(
                    &job,
                    Partition::Rows(incoming.to_vec()),
                    TaskFate::Faithful,
                    &pool,
                );
                assert_identical(
                    &batched,
                    &row,
                    &format!("granularity {granularity} batch_records {bs}: {src}"),
                );
            }
            records = recs(&row);
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
        next.batch_records = 0;
        let row = map_task(&next, 0, &grouped, TaskFate::Faithful);
        next.batch_records = 4;
        let batched = map_task(&next, 0, &grouped, TaskFate::Faithful);
        assert_identical(&batched, &row, "stored bags");
        let counts = recs(&row);
        assert_eq!(counts.len(), 7);
        assert_eq!(counts[0], Record::new(vec![Value::Null, Value::Int(1)]));
    }

    #[test]
    fn group_aggregate_reduce_hands_over_a_batch_and_builds_no_row() {
        use cbft_dataflow::stats::thread_rows_materialized;
        let job = exec_job(FOLLOWER, vec![]);
        let incoming = follower_partition();
        let pool = ComputePool::default(); // inline: the task runs on this thread
        let before = thread_rows_materialized();
        let out = run_reduce_task(&job, Partition::Rows(incoming), TaskFate::Faithful, &pool);
        assert_eq!(
            thread_rows_materialized() - before,
            0,
            "no per-input-row, per-bag or per-output-row materialization"
        );
        assert!(parts(&out).iter().all(is_columnar));
        assert_eq!(recs(&out).len(), 7);
        assert!(out.stages.shuffle_kernel > 0);
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
            Partition::Rows(incoming.clone()),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let batched = run_reduce_task(
            &join_job(8),
            Partition::Rows(incoming.clone()),
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
            Partition::Rows(incoming.clone()),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let batched = run_reduce_task(
            &order_job(4),
            Partition::Rows(incoming),
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
        let batched = map_task(&job, 0, &records, TaskFate::Faithful);
        job.batch_records = 0;
        let row = map_task(&job, 0, &records, TaskFate::Faithful);
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
        let inline = map_task(&job, 0, &records, TaskFate::Faithful);
        let threaded = ComputePool::new(2);
        let file = FileData::from(records);
        let pooled = run_map_task(&job, 0, &file, 0..2500, TaskFate::Faithful, &threaded);
        assert_identical(&pooled, &inline, "pool merkle");
        assert_eq!(inline.digests[0].1.chunks().len(), 2500);
        assert!(inline.digests[0].1.merkle().depth() > 10);
    }

    /// Runs every task of `job` over `file` the way the engine would — two
    /// splits per input, the shuffle gather, one reduce (or collector)
    /// task per partition — and returns every task's output, maps first.
    /// `fate` gives each task's fate by its position in that order.
    fn run_all_tasks(
        job: &ExecJob,
        file: &FileData,
        fate: impl Fn(usize) -> TaskFate,
    ) -> Vec<TaskOutput> {
        let pool = ComputePool::default();
        let mut outs = Vec::new();
        for input in 0..job.inputs.len() {
            let mid = file.len() / 2;
            for split in [0..mid, mid..file.len()] {
                let fate = fate(outs.len());
                outs.push(run_map_task(job, input, file, split, fate, &pool));
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
            for (p, run) in out.data.iter().cloned().enumerate() {
                runs[if job.is_collector() { 0 } else { p }].push(run);
            }
        }
        for part in runs {
            let fate = fate(outs.len());
            outs.push(run_reduce_task(job, Partition::concat(part), fate, &pool));
        }
        outs
    }

    /// Which of a job's sites get a verification point.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Sites {
        /// Every map-side, shuffle and reduce-side site.
        Every,
        /// None at all.
        None,
        /// The shuffle's output.
        Shuffle,
        /// The first reduce operator's output.
        Reduce0,
        /// The shuffle's output and the first reduce operator's.
        ShuffleAndReduce0,
    }

    const SITES: [Sites; 5] = [
        Sites::Every,
        Sites::None,
        Sites::Shuffle,
        Sites::Reduce0,
        Sites::ShuffleAndReduce0,
    ];

    /// Arms a verification point at the `sites` of `job` it has (a
    /// shuffle site only without a combiner: under one the shuffle has
    /// no materialized bags to digest).
    fn arm_sites(job: &mut ExecJob, sites: Sites) {
        let jid = cbft_dataflow::compile::JobId(0);
        let mut vps = Vec::new();
        for (input, i) in job.inputs.iter().enumerate() {
            let every = i
                .pipeline
                .iter()
                .enumerate()
                .filter(|_| sites == Sites::Every);
            vps.extend(every.map(|(pos, &vertex)| VpSite {
                vertex,
                site: Site::MapInput {
                    job: jid,
                    input,
                    pos,
                },
            }));
        }
        let at_shuffle = matches!(
            sites,
            Sites::Every | Sites::Shuffle | Sites::ShuffleAndReduce0
        );
        let shuffle = job.shuffle.filter(|_| at_shuffle && job.combiner.is_none());
        vps.extend(shuffle.map(|vertex| VpSite {
            vertex,
            site: Site::Shuffle { job: jid },
        }));
        let reduce_sites = match sites {
            Sites::Every => job.reduce.len(),
            Sites::Reduce0 | Sites::ShuffleAndReduce0 => 1,
            Sites::None | Sites::Shuffle => 0,
        };
        let reduce = job.reduce.iter().enumerate().take(reduce_sites);
        vps.extend(reduce.map(|(pos, &vertex)| VpSite {
            vertex,
            site: Site::Reduce { job: jid, pos },
        }));
        job.verification_points = vps;
    }

    /// Runs every task of `job` over `rows` on the row plane and on the
    /// columnar plane at batch sizes 1, 3 and 1024, at chunk granularities
    /// 1, 2 and unchunked, with the input held as a record file and (when
    /// `rows` share one arity) as a columnar file, which the row plane
    /// reads too; every observable of every task must equal the row
    /// plane's over the record file. Returns the columnar plane's outputs
    /// (batch size 1024, unchunked) over the last file form.
    fn assert_planes_agree(
        job: &mut ExecJob,
        rows: &[Record],
        fate: impl Fn(usize) -> TaskFate,
        ctx: &str,
    ) -> Vec<TaskOutput> {
        let mut files = vec![("record", FileData::from(rows.to_vec()))];
        files.extend(Batch::from_records(rows).map(|b| ("columnar", b.into())));
        let mut last = Vec::new();
        for granularity in [1usize, 2, usize::MAX] {
            job.digest_granularity = granularity;
            job.batch_records = 0;
            let rows_plane = run_all_tasks(job, &files[0].1, &fate);
            let digests: usize = rows_plane.iter().map(|o| o.digests.len()).sum();
            assert!(
                digests >= job.verification_points.len(),
                "every site digested: {ctx}"
            );
            for (form, file) in &files {
                for bs in [0usize, 1, 3, 1024] {
                    job.batch_records = bs;
                    let plane = run_all_tasks(job, file, &fate);
                    assert_eq!(plane.len(), rows_plane.len());
                    for (task, (c, r)) in plane.iter().zip(&rows_plane).enumerate() {
                        let ctx = format!(
                            "task {task} granularity {granularity} batch_records {bs} \
                             {form} file combiner {}: {ctx}",
                            job.combiner.is_some()
                        );
                        assert_identical(c, r, &ctx);
                        assert_eq!(
                            commitments(c, granularity),
                            commitments(r, granularity),
                            "{ctx}"
                        );
                    }
                    last = plane;
                }
            }
        }
        last
    }

    fn is_columnar(part: &Partition) -> bool {
        matches!(part, Partition::Cols(_))
    }

    /// The batches of no rows the columnar shuffle can meet — a `gather`
    /// of nothing and `from_records(&[])` have both lost their schema —
    /// never reach a kernel: a FILTER that empties a whole map task, a
    /// reduce partition no row is routed to, and a JOIN partition that
    /// holds one side only all equal the row plane record for record.
    #[test]
    fn empty_runs_keep_the_planes_equal() {
        let pair = |k: Value, v: Value| Record::new(vec![k, v]);

        // The front split holds only null values, which the map-side
        // FILTER drops; every surviving row has key 7.
        let mut rows: Vec<Record> = (0..6).map(|i| pair(Value::Int(i), Value::Null)).collect();
        rows.extend((0..6).map(|i| pair(Value::Int(7), Value::Int(i))));
        let src = task_script(0, [true, false, false, false], 1, 1);
        let mut job = exec_job(&src, vec![]);
        arm_sites(&mut job, Sites::Every);
        let outs = assert_planes_agree(&mut job, &rows, |_| TaskFate::Faithful, &src);
        let (maps, reduces) = outs.split_at(2);
        assert_eq!(parts(&maps[0]).iter().map(Partition::len).sum::<usize>(), 0);
        assert!(parts(&maps[1]).iter().all(is_columnar));
        let reduced: Vec<usize> = reduces.iter().map(|o| recs(o).len()).collect();
        assert!(reduced.contains(&0) && reduced.contains(&1), "{reduced:?}");

        // Every left key is 1 and every right key some `x` that hashes to
        // the other reduce partition: each partition holds one side only.
        let canonical = |v: i64| Value::Int(v).to_canonical_bytes();
        let x = (2..).find(|x| bucket(&canonical(*x), 2) != bucket(&canonical(1), 2));
        let rows: Vec<Record> = (0..8)
            .map(|_| pair(Value::Int(1), Value::Int(x.unwrap())))
            .collect();
        let src = task_script(1, [false; 4], 0, 1);
        let mut job = exec_job(&src, vec![]);
        arm_sites(&mut job, Sites::Every);
        let outs = assert_planes_agree(&mut job, &rows, |_| TaskFate::Faithful, &src);
        for reduce in &outs[4..] {
            assert!(reduce.work.bytes_in > 0 && recs(reduce).is_empty());
        }

        // The same with nothing to read at all, through every shuffle.
        for shuffle in 0..7 {
            let src = task_script(shuffle, [true, true, true, true], 1, 3);
            let mut job = exec_job(&src, vec![]);
            arm_sites(&mut job, Sites::Every);
            assert_planes_agree(&mut job, &[], |_| TaskFate::Faithful, &src);
        }
    }

    /// One map task among faithful ones draws a corrupt fate, or reads a
    /// ragged split. The corrupt task stays on the columnar arm and hands
    /// its rows over as batches, so every partition it feeds stays
    /// columnar through the gather. The ragged one is off the arm: it
    /// hands over records, so the gather materializes the batch runs of
    /// every partition it feeds (the exact fallback, chosen from the
    /// data). Either way no observable of any task differs from the row
    /// plane's.
    #[test]
    fn a_record_run_among_batch_runs_falls_back_to_rows_at_the_gather() {
        let uniform: Vec<Record> = (0..24i64)
            .map(|i| Record::new(vec![Value::Int(i % 5), Value::Int(i)]))
            .collect();
        let mut ragged = uniform.clone();
        ragged[20] = Record::new(vec![Value::Int(0), Value::Int(20), Value::Int(7)]);
        // Task 1 is the map task over the back split.
        let cases = [
            ("corrupt back split", &uniform, Some(1)),
            ("ragged back split", &ragged, None),
        ];
        for (name, rows, corrupt) in cases {
            let fate = |task: usize| match corrupt {
                Some(t) if t == task => TaskFate::Corrupt,
                _ => TaskFate::Faithful,
            };
            // GROUP, ORDER, DISTINCT and a collector (LIMIT, no shuffle).
            for shuffle in [0, 2, 3, 4] {
                let src = task_script(shuffle, [true, false, false, true], 1, 50);
                let ctx = format!("{name}: {src}");
                let mut job = exec_job(&src, vec![]);
                arm_sites(&mut job, Sites::Every);
                let outs = assert_planes_agree(&mut job, rows, fate, &ctx);
                let (front, back) = (parts(&outs[0]), parts(&outs[1]));
                assert!(front.iter().all(is_columnar), "{ctx}");
                let columnar_runs = back.iter().filter(|p| is_columnar(p)).count();
                let expected = if corrupt.is_some() { back.len() } else { 0 };
                assert_eq!(columnar_runs, expected, "{ctx}");
                for (f, b) in front.iter().zip(back) {
                    let gathered = Partition::concat(vec![f.clone(), b.clone()]);
                    let stays_columnar = corrupt.is_some() || b.len() == 0;
                    assert_eq!(is_columnar(&gathered), stays_columnar, "{ctx}");
                    assert_eq!(gathered.len(), f.len() + b.len(), "{ctx}");
                }
            }
        }
    }

    /// A corrupt reduce task of a JOIN corrupts both sides it reads, on
    /// both planes — over keys that still match after the fault shifts
    /// the left one, so every joined row carries each side's corrupted
    /// leading field and a side left alone would show.
    #[test]
    fn a_corrupt_join_task_corrupts_both_sides_on_both_planes() {
        let rows: Vec<Record> = (0..36i64)
            .map(|i| Record::new(vec![Value::Int(i % 6), Value::Int(i / 6)]))
            .collect();
        let src = task_script(1, [false; 4], 0, 1);
        let mut job = exec_job(&src, vec![]);
        // One partition: a shifted key finds its match in it.
        job.reduce_task_count = 1;
        arm_sites(&mut job, Sites::Every);
        // Tasks 0–3 are the map tasks of the two inputs, task 4 the join.
        let reduce_fate = |task: usize| match task {
            0..=3 => TaskFate::Faithful,
            _ => TaskFate::Corrupt,
        };
        let faithful = assert_planes_agree(&mut job, &rows, |_| TaskFate::Faithful, &src);
        let corrupt = assert_planes_agree(&mut job, &rows, reduce_fate, &src);
        assert!(!recs(&corrupt[4]).is_empty(), "shifted keys still match");
        assert_ne!(recs(&corrupt[4]), recs(&faithful[4]));
    }

    /// A single-job script over `in(k, v)`: an optional map-side FILTER,
    /// FOREACH and second FILTER (over what the FOREACH built), one of
    /// GROUP / JOIN / ORDER / DISTINCT / no shuffle / GROUP of a UNION /
    /// JOIN of a UNION (three inputs, the tags 0, 0 and 1), and an
    /// optional LIMIT. What follows a GROUP is picked by `after_group`:
    /// nothing; a FOREACH of algebraic aggregates alone, then a FILTER; a
    /// FOREACH that emits the bag beside an aggregate; or a FILTER before
    /// the all-algebraic FOREACH.
    fn task_script(shuffle: usize, opts: [bool; 4], after_group: usize, limit: u64) -> String {
        let [map_filter, map_project, map_filter_again, reduce_limit] = opts;
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
        if map_filter_again {
            src += &format!("e = FILTER {cur} BY k IS NOT NULL;\n");
            cur = "e";
        }
        if shuffle >= 5 {
            // The other UNION input reads the file through no operator.
            src += &format!("y = LOAD 'in' AS (k, v);\nu = UNION {cur}, y;\n");
            cur = "u";
        }
        match shuffle {
            0 | 5 => {
                src += &format!("g = GROUP {cur} BY k;\n");
                let aggregates = format!(
                    "group, COUNT({cur}) AS n, SUM({cur}.v) AS s, MIN({cur}.v) AS lo, \
                     MAX({cur}.v) AS hi, AVG({cur}.v) AS mean"
                );
                match after_group {
                    1 => {
                        src += &format!("r = FOREACH g GENERATE {aggregates};\n");
                        src += "f = FILTER r BY n >= 2;\n";
                        cur = "f";
                    }
                    2 => {
                        src +=
                            &format!("r = FOREACH g GENERATE group, {cur}, COUNT({cur}) AS n;\n");
                        cur = "r";
                    }
                    3 => {
                        src += "f = FILTER g BY group IS NOT NULL;\n";
                        // (A FILTER's output has lost the member schema
                        // field aggregates resolve against.)
                        src += &format!("r = FOREACH f GENERATE group, COUNT({cur}) AS n;\n");
                        cur = "r";
                    }
                    _ => cur = "g",
                }
            }
            1 | 6 => {
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
        /// (duplicate keys — integer, string or both in one column — null
        /// keys, strings, optionally ragged arity; windows of which the map-side FILTER keeps some
        /// rows, every row or none), a random pipeline — FILTER, FOREACH
        /// and a FILTER over what it built, in every combination — around
        /// each shuffle kind, a UNION ahead of a GROUP and of a JOIN among
        /// them; after a GROUP: nothing, an all-algebraic FOREACH, one
        /// that emits the bag, a FILTER first; a LIMIT that cuts inside
        /// the reduce side's chunk — both fates, combiner on and off,
        /// verification points at every site (so after each map-side
        /// filter), none, the shuffle, the first reduce operator or both,
        /// and chunk granularities 1, 2 and unchunked, every observable
        /// of every task — partitions, records, digests, `Work`,
        /// commitment — equals the `batch_records = 0` run over the
        /// record file at batch sizes 1, 3, 1024, and at all four from a
        /// columnar file.
        #[test]
        fn planes_agree_on_every_task_observable(
            cells in proptest::collection::vec((0i64..5, 0u8..9, 0u8..6), 0..40),
            shape in 0usize..(7 * 256),
            after_group in 0usize..4,
            sites in 0usize..SITES.len(),
            limit in 1u64..12,
            survivors in 0u8..4,
        ) {
            let (shuffle, flags) = (shape % 7, shape / 7);
            let flag = |bit: usize| flags >> bit & 1 == 1;
            let (ragged, combine, string_keys) = (flag(4), flag(5), flag(6));
            let rows: Vec<Record> = cells
                .iter()
                .map(|&(k, v, arity)| {
                    let k = match (k, string_keys) {
                        (4, _) => Value::Null,
                        // Integers and strings in one key column.
                        (3, _) if flag(7) => Value::Int(i64::MIN),
                        (k, false) => Value::Int(k),
                        (k, true) => Value::str(["", "x", "xy", "y"][k as usize]),
                    };
                    // What `v IS NOT NULL` keeps: some rows, all or none.
                    let v = match (survivors, v) {
                        (1, _) => Value::Int(v as i64),
                        (2, _) | (_, 0) => Value::Null,
                        (_, 1) => Value::str("a"),
                        (_, 2) => Value::str("b"),
                        (_, n) => Value::Int(n as i64),
                    };
                    Record::new(match arity {
                        0 if ragged => vec![k],
                        1 if ragged => vec![k, v, Value::Int(7)],
                        _ => vec![k, v],
                    })
                })
                .collect();

            let opts = [flag(0), flag(1), flag(2), flag(3)];
            let src = task_script(shuffle, opts, after_group, limit);
            let mut job = exec_job(&src, vec![]);
            if combine {
                if let (Some(sh), Some(&first)) = (job.shuffle, job.reduce.first()) {
                    job.combiner = cbft_dataflow::combiner::Combiner::for_job(
                        job.plan.vertex(sh).op(),
                        job.plan.vertex(first).op(),
                    );
                }
            }
            arm_sites(&mut job, SITES[sites]);
            let uniform = Batch::from_records(&rows).is_some();
            for fate in [TaskFate::Faithful, TaskFate::Corrupt] {
                let ctx = format!("{fate:?}, {:?}:\n{src}", SITES[sites]);
                let outs = assert_planes_agree(&mut job, &rows, |_| fate, &ctx);
                // The comparison is one of two planes under either fate:
                // only a combiner takes a columnar file's map task off
                // the columnar arm.
                let maps = &outs[..2 * job.inputs.len()];
                let columnar = maps.iter().flat_map(parts).all(is_columnar);
                assert!(!uniform || columnar == job.combiner.is_none(), "{ctx}");
            }
        }
    }

    /// The one rule under which a GROUP builds no bag, over the whole
    /// matrix it is decided on: what follows the GROUP × where the
    /// verification points sit, over integer, string and null-laced keys.
    /// The reduce tasks fold their runs in place exactly when the first
    /// reduce operator is an all-algebraic FOREACH and no point digests
    /// the shuffle — they join nothing then (`to_batch` is 0) — and every
    /// observable of every task (`Work`, digests, commitment, records)
    /// equals the row plane's either way, over rows whose gather order is
    /// the reverse of the canonical one: a bag left unbuilt or unordered
    /// where a shuffle-site point digests it, or where the FOREACH emits
    /// it, shows as a digest, a record or a commitment that differs.
    #[test]
    fn a_group_leaves_its_bags_unordered_only_where_nothing_observes_them() {
        let keys: [fn(i64) -> Value; 3] = [
            |k| Value::Int(k),
            |k| Value::str(["", "x", "xy", "y"][k as usize]),
            |k| {
                [
                    Value::Null,
                    Value::Int(i64::MIN),
                    Value::str("k"),
                    Value::Int(3),
                ][k as usize]
                    .clone()
            },
        ];
        for (key, after_group) in keys.iter().flat_map(|k| (0..4).map(move |a| (k, a))) {
            let rows: Vec<Record> = (0..60i64)
                .rev()
                .map(|i| {
                    let v = match i % 7 {
                        0 => Value::Null,
                        1 => Value::str("s"),
                        _ => Value::Int(i),
                    };
                    Record::new(vec![key(i % 4), v])
                })
                .collect();
            for sites in SITES {
                let src = task_script(0, [false; 4], after_group, 1);
                let mut job = exec_job(&src, vec![]);
                arm_sites(&mut job, sites);
                let ctx = format!("{sites:?}, keys like {:?}:\n{src}", key(2));
                let unobserved = after_group == 1 && matches!(sites, Sites::None | Sites::Reduce0);
                assert_eq!(bags_unobserved(&job).is_some(), unobserved, "{ctx}");
                let before = data_plane::snapshot().groups_unordered;
                let outs = assert_planes_agree(&mut job, &rows, |_| TaskFate::Faithful, &ctx);
                // Other tests of this process count too, so only a floor
                // can be asserted: one per columnar reduce task here.
                let counted = data_plane::snapshot().groups_unordered - before;
                assert!(!unobserved || counted >= 2 * 3 * 2 * 3, "{ctx}: {counted}");
                for reduce in &outs[2..] {
                    assert!(parts(reduce).iter().all(is_columnar), "{ctx}");
                    assert!(!unobserved || reduce.stages.to_batch == 0, "{ctx}");
                    assert!(reduce.stages.shuffle_kernel > 0, "{ctx}");
                }
            }
        }
    }

    /// A corrupt fate on a fused reduce task flips its runs where they
    /// are, and the fold then reads what `corrupt_batch` of the joined
    /// runs holds: the task's records and digests are those of a faithful
    /// task handed that batch — on both planes, whose every observable
    /// agrees — over integer, string and null leading keys.
    #[test]
    fn a_corrupt_fused_task_equals_a_faithful_one_over_the_corrupted_join() {
        let src = task_script(0, [false; 4], 1, 1);
        let mut job = exec_job(&src, vec![]);
        arm_sites(&mut job, Sites::Reduce0);
        let plan = bags_unobserved(&job).expect("an aggregate-only GROUP");
        assert_eq!(plan.key, 0);
        let key = |i: i64| match i % 5 {
            0 => Value::Null,
            1 => Value::str("k"),
            k => Value::Int([i64::MAX, i64::MIN, -1][(k - 2) as usize]),
        };
        let pool = ComputePool::default();
        for keys in [
            (|i| Value::Int(i % 5)) as fn(i64) -> Value,
            |i| Value::str(["a", "b"][(i % 2) as usize]),
            key,
        ] {
            let input: Vec<Record> = (0..40i64)
                .map(|i| Record::new(vec![keys(i), Value::Int(i)]))
                .collect();
            let runs: Vec<(usize, Chunk)> = input
                .chunks(9)
                .map(|run| (0, Chunk::owned(Batch::from_records(run).unwrap())))
                .collect();
            let mut joined =
                Batch::concat(&runs.iter().map(|(_, c)| c.run()).collect::<Vec<_>>()).unwrap();
            corrupt_batch(&mut joined);
            let corrupt = run_reduce_task(&job, Partition::Cols(runs), TaskFate::Corrupt, &pool);
            let over_corrupted = run_reduce_task(
                &job,
                Partition::Cols(vec![(0, Chunk::owned(joined))]),
                TaskFate::Faithful,
                &pool,
            );
            assert_eq!(rows(&corrupt), rows(&over_corrupted));
            assert_eq!(corrupt.digests, over_corrupted.digests);
            assert_eq!(commitments(&corrupt, 2), commitments(&over_corrupted, 2));
            assert_eq!(corrupt.digests.len(), 1, "the point at reduce position 0");
            assert!(corrupt.stages.to_batch > 0 && over_corrupted.stages.to_batch == 0);
            let faithful = Partition::Rows(input.iter().cloned().map(|r| (0, r)).collect());
            let honest = run_reduce_task(&job, faithful, TaskFate::Faithful, &pool);
            assert_ne!(rows(&honest), rows(&corrupt));
        }
    }

    /// The engine's capture flow at the task boundary: capture the true
    /// input, let the (possibly corrupt) task consume it, record its
    /// commitment, then check. An honest task confirms; a corrupt one is
    /// localized — on the row plane and on the columnar plane, where the
    /// corrupt run and the honest re-run execute on the same arm, the
    /// map task's captured split may be a window of a columnar file and
    /// the reduce task's captured input a partition of batch runs, which
    /// both runs of this aggregate-only GROUP fold in place.
    #[test]
    fn spot_check_round_trip_confirms_honest_and_localizes_corrupt_on_both_planes() {
        use crate::spotcheck::SpotCheckRecord;

        let rows: Vec<Record> = follower_partition().into_iter().map(|(_, r)| r).collect();
        let columnar_file = FileData::from(Batch::from_records(&rows).unwrap());
        let file = FileData::from(rows);
        let pool = ComputePool::default();
        for batch_records in [0usize, 1024] {
            let mut job = exec_job(FOLLOWER, vec![]);
            job.batch_records = batch_records;
            job.digest_granularity = 2;
            assert!(bags_unobserved(&job).is_some());
            let fused_before = data_plane::snapshot().groups_unordered;
            let spec = Arc::new(job);
            // The reduce input as the engine builds it: partition 0 of a
            // faithful map task's output, gathered.
            let mapped = run_map_task(&spec, 0, &file, 0..file.len(), TaskFate::Faithful, &pool);
            let gathered = Partition::concat(vec![parts(&mapped)[0].clone()]);
            assert!(gathered.len() > 0);
            assert_eq!(is_columnar(&gathered), batch_records > 0);
            for fate in [TaskFate::Faithful, TaskFate::Corrupt] {
                let split = |file: &FileData| TaskInput::Split {
                    input: 0,
                    file: file.clone(),
                    start: 3,
                    end: 33,
                };
                let inputs = [
                    (TaskKind::Map, split(&file)),
                    (TaskKind::Map, split(&columnar_file)),
                    (
                        TaskKind::Reduce,
                        TaskInput::Partition(Partition::Rows(follower_partition())),
                    ),
                    (TaskKind::Reduce, TaskInput::Partition(gathered.clone())),
                ];
                for (kind, mut input) in inputs {
                    let len = input.len() as u64;
                    let captured = input.capture();
                    let out = run_task(&spec, input.take(), fate, &pool);
                    let record = SpotCheckRecord {
                        sid: spec.sid.clone(),
                        replica: 0,
                        kind,
                        task_index: 0,
                        node: crate::fault::NodeId(0),
                        recorded: out.commitment(kind, spec.digest_granularity),
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
            // Two fates × two reduce inputs, each run and re-run: eight
            // fused tasks on the columnar plane (a floor: other tests of
            // this process count too), none on the row plane's account.
            let fused = data_plane::snapshot().groups_unordered - fused_before;
            assert!(batch_records == 0 || fused >= 8, "{fused}");
        }
    }

    /// Two partitions of one map task select rows of one shared batch —
    /// the input file's. The spot-checker's capture of one is a handle
    /// clone: its runs share the batch, and no row is copied or charged.
    /// A corrupt reduce task over the input it is handed copies what it
    /// flips, so the shared batch is left as it was, and re-running the
    /// capture faithfully commits what a faithful task over the same rows
    /// commits — for a task that folds its runs in place and for one that
    /// lays them out.
    #[test]
    fn a_captured_partition_shares_its_batch_and_stays_isolated() {
        let rows: Vec<Record> = follower_partition().into_iter().map(|(_, r)| r).collect();
        let file = FileData::from(Batch::from_records(&rows).unwrap());
        let shared = file.shared_batch().expect("a columnar file");
        let before = Batch::clone(shared);
        let pool = ComputePool::default();
        let stored = "raw = LOAD 'twitter' AS (user, follower);
             grp = GROUP raw BY user;
             STORE grp INTO 'groups';";
        for src in [FOLLOWER, stored] {
            let job = exec_job(src, vec![]);
            let mapped = run_map_task(&job, 0, &file, 0..file.len(), TaskFate::Faithful, &pool);
            assert_eq!(parts(&mapped).len(), 2);
            let runs = |part: &Partition| match part {
                Partition::Cols(runs) => runs.iter().map(|(_, c)| Arc::clone(&c.batch)).collect(),
                Partition::Rows(_) => Vec::new(),
            };
            for part in parts(&mapped) {
                let batches: Vec<Arc<Batch>> = runs(part);
                assert!(!batches.is_empty(), "{src}");
                assert!(batches.iter().all(|b| Arc::ptr_eq(b, shared)), "{src}");
            }
            let partition = || Partition::concat(vec![parts(&mapped)[0].clone()]);
            let mut input = TaskInput::Partition(partition());
            let cloned = data_plane::thread_records_cloned();
            let captured = input.capture();
            assert_eq!(data_plane::thread_records_cloned(), cloned, "{src}");
            let TaskInput::Partition(kept) = &captured else {
                panic!("a partition captures as a partition")
            };
            assert!(runs(kept).iter().all(|b| Arc::ptr_eq(b, shared)), "{src}");

            let corrupt = run_task(&job, input.take(), TaskFate::Corrupt, &pool);
            assert_eq!(**shared, before, "{src}: the fault copied what it flipped");
            let faithful = run_reduce_task(&job, partition(), TaskFate::Faithful, &pool);
            let rerun = run_task(&job, captured, TaskFate::Faithful, &pool);
            for granularity in [1, 2, usize::MAX] {
                let commit = |out: &TaskOutput| out.commitment(TaskKind::Reduce, granularity);
                assert_eq!(commit(&rerun), commit(&faithful), "{src}");
                assert_ne!(commit(&corrupt), commit(&faithful), "{src}");
            }
        }
    }

    /// The commitment hashes runs of frames, one hasher update per run:
    /// over partitions of record rows and of batch runs — several runs to
    /// a partition, windows and row lists of one shared batch, partitions
    /// with no run — its summary is the one a frame per `(route, row)`
    /// through `append_framed` builds, for both task kinds, at chunk
    /// granularities that cut runs short, fall on their ends or never cut.
    #[test]
    fn commitments_frame_runs_byte_identical_to_one_frame_per_row() {
        let rows: Vec<Record> = (0..300i64)
            .map(|i| {
                let key = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 13)
                };
                Record::new(vec![key, Value::str(["", "a", "bc"][(i % 3) as usize])])
            })
            .collect();
        let batch = Arc::new(Batch::from_records(&rows).unwrap());
        let chunk = |rows: Selection| Chunk {
            batch: Arc::clone(&batch),
            rows,
        };
        let mut out = TaskOutput::new(0);
        out.data = vec![
            Partition::Cols(vec![
                (0, chunk(Selection::Range(3..90))),
                (1, chunk(Selection::Rows((90..300).step_by(3).collect()))),
            ]),
            Partition::Cols(Vec::new()),
            Partition::Rows(rows[..40].iter().cloned().map(|r| (1, r)).collect()),
            Partition::Cols(vec![(0, chunk(Selection::Rows(vec![0, 1, 299])))]),
        ];
        let tagged: Vec<(usize, Tagged)> = out
            .data
            .iter()
            .enumerate()
            .flat_map(|(p, part)| part.clone().into_tagged().into_iter().map(move |t| (p, t)))
            .collect();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            for granularity in [1usize, 2, 7, 256, usize::MAX] {
                let mut cd = ChunkedDigest::new(granularity);
                let mut buf = Vec::new();
                for (p, (tag, row)) in &tagged {
                    ChunkedDigest::begin_frame(&mut buf);
                    if kind == TaskKind::Map {
                        buf.extend_from_slice(&(*p as u64).to_be_bytes());
                        buf.extend_from_slice(&(*tag as u64).to_be_bytes());
                    }
                    row.write_canonical(&mut buf);
                    ChunkedDigest::seal_frame(&mut buf);
                    cd.append_framed(&buf);
                }
                let ctx = format!("{kind} task, granularity {granularity}");
                assert_eq!(out.commitment(kind, granularity), cd.finish(), "{ctx}");
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
