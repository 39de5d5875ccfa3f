//! Pure task execution: the real data movement of map and reduce tasks.
//!
//! These functions actually run the operator pipelines over records and
//! compute the verification-point digests, returning work counters that the
//! engine converts to virtual time through the cost model. Keeping them
//! pure (no cluster state) makes the task semantics directly testable.

use std::sync::Arc;
use std::time::Instant;

use cbft_dataflow::batch::{filter_batch, group_batch, join_batch, order_batch, project_batch};
use cbft_dataflow::compile::Site;
use cbft_dataflow::interp::{
    group_records_owned, join_records, order_records_owned, project_record,
};
use cbft_dataflow::{Batch, LogicalPlan, Operator, Record, Value, VertexId};
use cbft_digest::{
    parent_count, parent_level, parent_range, ChunkedDigest, ChunkedSummary, Digest,
};

use crate::compute::ComputePool;
use crate::fault::{corrupt_record, TaskFate};
use crate::metrics::data_plane;
use crate::spec::{ExecJob, VpSite};

/// A record tagged with its join side.
pub(crate) type Tagged = (usize, Record);

/// A stream of records flowing through a task pipeline.
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

    fn byte_size(&self) -> u64 {
        self.iter().map(Record::byte_size).sum()
    }

    /// Materializes the stream as owned records, cloning only when the
    /// records are still borrowed from the input split.
    fn into_owned(self) -> Vec<Record> {
        match self {
            RecordStream::Owned(v) => v,
            RecordStream::Slice(s) => {
                data_plane::count_records_cloned(s.len() as u64);
                s.to_vec()
            }
            RecordStream::Refs(v) => {
                data_plane::count_records_cloned(v.len() as u64);
                v.into_iter().cloned().collect()
            }
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
    /// [`Batch`] → records at the task's output boundary.
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

/// Result of a map task.
#[derive(Clone, Debug)]
pub(crate) struct MapTaskOutput {
    /// When the job has a shuffle: records per reduce partition.
    /// Otherwise a single "partition 0" holding the task output.
    pub partitions: Vec<Vec<Tagged>>,
    /// Digest summaries produced at map-side verification points.
    pub digests: Vec<(VpSite, ChunkedSummary)>,
    /// Work counters.
    pub work: Work,
    /// Wall time per stage (diagnostic; not part of the task's result).
    pub stages: StageWall,
}

/// Result of a reduce/collector task.
#[derive(Clone, Debug)]
pub(crate) struct ReduceTaskOutput {
    /// Output records of the task.
    pub records: Vec<Record>,
    /// Digest summaries produced at shuffle/reduce verification points.
    pub digests: Vec<(VpSite, ChunkedSummary)>,
    /// Work counters.
    pub work: Work,
    /// Wall time per stage (diagnostic; not part of the task's result).
    pub stages: StageWall,
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
) -> MapTaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    // The columnar path covers the hot case: a faithful task without a
    // combiner. Corruption (a cold fault path) and combining keep the
    // row path; a ragged split (mixed arity) falls back inside.
    if job.batch_records > 0 && fate == TaskFate::Faithful && job.combiner.is_none() {
        if let Some(out) = run_map_task_batched(job, input_index, records, pool) {
            return out;
        }
    }
    let plan = &job.plan;
    let input = &job.inputs[input_index];
    let mut work = Work {
        bytes_in: byte_size(records),
        ..Work::default()
    };
    let mut stream = if fate == TaskFate::Corrupt {
        // A commission fault: the node processes a corrupted view of the
        // data, so every downstream digest and output reflects it. The
        // corrupting clone happens only on this (cold) fault path.
        let mut owned = records.to_vec();
        for r in &mut owned {
            corrupt_record(r);
        }
        RecordStream::Owned(owned)
    } else {
        RecordStream::Slice(records)
    };

    let mut stages = StageWall::default();
    let mut digests = Vec::new();
    for (pos, &vid) in input.pipeline.iter().enumerate() {
        stream = timed(&mut stages.pipeline_ops, || {
            apply_op(plan, vid, stream, &mut work)
        });
        for vp in &job.verification_points {
            if let Site::MapInput {
                input: vi,
                pos: vp_pos,
                ..
            } = vp.site
            {
                if vi == input_index && vp_pos == pos {
                    let summary = timed(&mut stages.digest, || {
                        digest_stream(stream.iter(), job.digest_granularity, &mut work, pool)
                    });
                    digests.push((*vp, summary));
                }
            }
        }
    }

    let partition_start = Instant::now();
    let partitions = if let Some(shuffle) = job.shuffle {
        if let Some(comb) = &job.combiner {
            // Map-side combining: one [key, partials...] record per local
            // key; partition by the leading key (same hash as the raw
            // records would have used).
            work.record_ops += 2 * stream.len() as u64;
            let owned = stream.into_owned();
            let partials = comb.partials(&owned);
            let n = job.reduce_task_count.max(1);
            let mut parts: Vec<Vec<Tagged>> = vec![Vec::new(); n];
            let mut key_buf = Vec::new();
            for r in partials {
                work.bytes_out += r.byte_size();
                let p = key_partition(r.get(0), n, &mut key_buf);
                parts[p].push((input.tag, r));
            }
            parts
        } else {
            partition_records(
                plan,
                shuffle,
                input.tag,
                stream,
                job.reduce_task_count,
                &mut work,
            )
        }
    } else {
        work.bytes_out = stream.byte_size();
        vec![stream
            .into_owned()
            .into_iter()
            .map(|r| (input.tag, r))
            .collect()]
    };
    stages.partition = partition_start.elapsed().as_nanos() as u64;

    MapTaskOutput {
        partitions,
        digests,
        work,
        stages,
    }
}

/// Executes one reduce (or collector) task over one partition. `pool`
/// accelerates the shuffle-side sort; since the chunked parallel sort is
/// pool-size-invariant, results are identical for every pool (the engine
/// passes its own pool, standalone tests the inline default).
pub(crate) fn run_reduce_task(
    job: &ExecJob,
    incoming: Vec<Tagged>,
    fate: TaskFate,
    pool: &ComputePool,
) -> ReduceTaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    // Same gate as the map side: the columnar path runs the hot
    // (faithful, uncombined) case and hands the input back untouched
    // when it cannot (ragged arity, DISTINCT's row sort).
    let mut incoming =
        if job.batch_records > 0 && fate == TaskFate::Faithful && job.combiner.is_none() {
            match run_reduce_task_batched(job, incoming, pool) {
                Ok(out) => return out,
                Err(returned) => returned,
            }
        } else {
            incoming
        };
    let plan = &job.plan;
    let mut work = Work {
        bytes_in: incoming.iter().map(|(_, r)| r.byte_size()).sum(),
        ..Work::default()
    };
    if fate == TaskFate::Corrupt {
        for (_, r) in &mut incoming {
            corrupt_record(r);
        }
    }

    let mut stages = StageWall::default();
    let mut digests = Vec::new();
    let mut start_pos = 0usize;
    let mut records = match (&job.combiner, job.shuffle) {
        (Some(comb), Some(_)) => {
            // The merge produces the fused projection's output directly —
            // identical, record for record, to group + project, so digest
            // sites at reduce position 0 still correspond across replicas
            // regardless of combining. A shuffle-site point cannot be
            // served (no materialized bags); the caller must not combine
            // in that case.
            debug_assert!(
                !job.verification_points
                    .iter()
                    .any(|vp| matches!(vp.site, Site::Shuffle { .. })),
                "combiner active with a shuffle verification point"
            );
            let raw: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            work.record_ops += 2 * raw.len() as u64;
            let merged = timed(&mut stages.shuffle_kernel, || comb.merge(&raw));
            for vp in &job.verification_points {
                if matches!(vp.site, Site::Reduce { pos: 0, .. }) {
                    let summary = timed(&mut stages.digest, || {
                        digest_stream(merged.iter(), job.digest_granularity, &mut work, pool)
                    });
                    digests.push((*vp, summary));
                }
            }
            start_pos = 1;
            merged
        }
        (None, Some(shuffle)) => {
            let out = timed(&mut stages.shuffle_kernel, || {
                materialize_shuffle(plan, shuffle, incoming, &mut work, pool)
            });
            for vp in &job.verification_points {
                if matches!(vp.site, Site::Shuffle { .. }) && vp.vertex == shuffle {
                    let summary = timed(&mut stages.digest, || {
                        digest_stream(out.iter(), job.digest_granularity, &mut work, pool)
                    });
                    digests.push((*vp, summary));
                }
            }
            out
        }
        (_, None) => incoming.into_iter().map(|(_, r)| r).collect(),
    };

    for (pos, &vid) in job.reduce.iter().enumerate().skip(start_pos) {
        let applied = timed(&mut stages.pipeline_ops, || {
            apply_op(plan, vid, RecordStream::Owned(records), &mut work)
        });
        records = match applied {
            // The stream entered owned, and per-record operators never
            // borrow an owned stream back out.
            RecordStream::Owned(v) => v,
            _ => unreachable!("owned streams stay owned through apply_op"),
        };
        for vp in &job.verification_points {
            if let Site::Reduce { pos: vp_pos, .. } = vp.site {
                if vp.vertex == vid && vp_pos == pos {
                    let summary = timed(&mut stages.digest, || {
                        digest_stream(records.iter(), job.digest_granularity, &mut work, pool)
                    });
                    digests.push((*vp, summary));
                }
            }
        }
    }

    work.bytes_out = byte_size(&records);
    ReduceTaskOutput {
        records,
        digests,
        work,
        stages,
    }
}

/// Applies one per-record operator to a stream. `LOAD`, `UNION` and
/// `STORE` appear in pipelines only as pass-through markers.
///
/// Borrowed streams stay borrowed through filters and limits; only
/// projections materialize new (owned) records.
fn apply_op<'a>(
    plan: &LogicalPlan,
    vid: VertexId,
    records: RecordStream<'a>,
    work: &mut Work,
) -> RecordStream<'a> {
    let op = plan.vertex(vid).op();
    work.record_ops += records.len() as u64;
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

/// Partitions a map task's output by shuffle key. Records still borrowed
/// from the input split are cloned here — the single unavoidable copy on
/// the map path, since partitions outlive the split borrow.
fn partition_records(
    plan: &LogicalPlan,
    shuffle: VertexId,
    tag: usize,
    records: RecordStream<'_>,
    n_partitions: usize,
    work: &mut Work,
) -> Vec<Vec<Tagged>> {
    let n = n_partitions.max(1);
    let mut parts: Vec<Vec<Tagged>> = vec![Vec::new(); n];
    let op = plan.vertex(shuffle).op().clone();
    work.record_ops += records.len() as u64;
    let mut key_buf = Vec::new();
    for r in records.into_owned() {
        work.bytes_out += r.byte_size();
        let p = match &op {
            Operator::Group { key } => key_partition(r.get(*key), n, &mut key_buf),
            Operator::Join {
                left_key,
                right_key,
            } => {
                let key = if tag == 0 { *left_key } else { *right_key };
                key_partition(r.get(key), n, &mut key_buf)
            }
            Operator::Distinct => {
                key_buf.clear();
                r.write_canonical(&mut key_buf);
                (fnv1a(&key_buf) % n as u64) as usize
            }
            // Global sort: a single range partition (the engine forces one
            // reduce task for ORDER).
            Operator::Order { .. } => 0,
            other => {
                debug_assert!(false, "non-blocking shuffle {}", other.name());
                0
            }
        };
        parts[p].push((tag, r));
    }
    parts
}

fn key_partition(key: Option<&Value>, n: usize, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    key.unwrap_or(&Value::Null).write_canonical(buf);
    (fnv1a(buf) % n as u64) as usize
}

/// Materializes the shuffle semantics for one partition.
fn materialize_shuffle(
    plan: &LogicalPlan,
    shuffle: VertexId,
    incoming: Vec<Tagged>,
    work: &mut Work,
    pool: &ComputePool,
) -> Vec<Record> {
    let op = plan.vertex(shuffle).op().clone();
    // Grouping/joining/sorting costs roughly two passes per record.
    work.record_ops += 2 * incoming.len() as u64;
    match op {
        Operator::Group { key } => {
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            group_records_owned(records, key)
        }
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
            join_records(&left, left_key, &right, right_key)
        }
        Operator::Distinct => {
            let mut records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            // Sorts the whole record, so ties are byte-identical and
            // instability (and chunked parallel merging) cannot show.
            pool.par_sort_unstable(&mut records);
            records.dedup();
            records
        }
        Operator::Order { key, order } => {
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            order_records_owned(records, key, order)
        }
        other => {
            debug_assert!(false, "non-blocking shuffle {}", other.name());
            incoming.into_iter().map(|(_, r)| r).collect()
        }
    }
}

/// Digests a record stream: each record is canonically encoded (with its
/// length-prefix frame) into one reused buffer and fed to the hasher as a
/// single contiguous slice — no per-record allocation, and whole blocks
/// take the SHA-256 multi-block fast path.
fn digest_stream<'a>(
    records: impl Iterator<Item = &'a Record>,
    granularity: usize,
    work: &mut Work,
    pool: &ComputePool,
) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    let mut count = 0u64;
    let mut payload_bytes = 0u64;
    for r in records {
        ChunkedDigest::begin_frame(&mut buf);
        r.write_canonical(&mut buf);
        ChunkedDigest::seal_frame(&mut buf);
        cd.append_framed(&buf);
        payload_bytes += (buf.len() - 8) as u64;
        count += 1;
    }
    work.digest_bytes += payload_bytes;
    // Intercepting each tuple costs about one operator pass (the paper's
    // Penny agents sit between script stages), on top of the hash bytes.
    work.record_ops += count;
    data_plane::count_bytes_encoded(payload_bytes);
    data_plane::count_digest_bytes(payload_bytes + 8 * count);
    finish_chunked(cd, pool)
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

/// Columnar variant of [`run_map_task`]: the split is converted to
/// [`Batch`]es of at most `job.batch_records` rows at the storage
/// boundary and the pipeline runs vectorized kernels over them. Digests,
/// partition assignments, output records and work counters are
/// byte-identical to the row path — batching is purely a host-side
/// execution strategy, pinned by the `batched_*` task tests.
///
/// Returns `None` — before any counter is touched — when the split is
/// ragged (mixed arity) and cannot be laid out columnar.
fn run_map_task_batched(
    job: &ExecJob,
    input_index: usize,
    records: &[Record],
    pool: &ComputePool,
) -> Option<MapTaskOutput> {
    debug_assert!(job.batch_records > 0 && job.combiner.is_none());
    let plan = &job.plan;
    let input = &job.inputs[input_index];

    let mut stages = StageWall::default();
    let mut batches: Vec<Batch> = timed(&mut stages.to_batch, || {
        records
            .chunks(job.batch_records)
            .map(Batch::from_records)
            .collect::<Option<_>>()
    })?;
    data_plane::count_batches_built(batches.len() as u64);
    data_plane::count_batch_rows(records.len() as u64);

    let mut work = Work {
        bytes_in: byte_size(records),
        ..Work::default()
    };
    // Mirrors the row path's borrow tracking: `false` while the rows are
    // still (columnar images of) the input split, `true` once a
    // projection produced fresh rows. The output boundary charges its
    // materialization as clones exactly when the row path would.
    let mut owned = false;

    let mut digests = Vec::new();
    for (pos, &vid) in input.pipeline.iter().enumerate() {
        timed(&mut stages.pipeline_ops, || {
            apply_op_batched(plan, vid, &mut batches, &mut owned, &mut work)
        });
        for vp in &job.verification_points {
            if let Site::MapInput {
                input: vi,
                pos: vp_pos,
                ..
            } = vp.site
            {
                if vi == input_index && vp_pos == pos {
                    let summary = timed(&mut stages.digest, || {
                        digest_batches(&batches, job.digest_granularity, &mut work, pool)
                    });
                    digests.push((*vp, summary));
                }
            }
        }
    }

    let total: u64 = batches.iter().map(|b| b.len() as u64).sum();
    if !owned {
        data_plane::count_records_cloned(total);
    }
    let partitions = if let Some(shuffle) = job.shuffle {
        timed(&mut stages.partition, || {
            partition_batches(
                plan,
                shuffle,
                input.tag,
                &batches,
                job.reduce_task_count,
                &mut work,
            )
        })
    } else {
        timed(&mut stages.to_records, || {
            let mut out = Vec::with_capacity(total as usize);
            for b in &batches {
                for r in b.to_records() {
                    work.bytes_out += r.byte_size();
                    out.push((input.tag, r));
                }
            }
            vec![out]
        })
    };

    Some(MapTaskOutput {
        partitions,
        digests,
        work,
        stages,
    })
}

/// Applies one per-record operator to a batch stream; the vectorized
/// mirror of [`apply_op`], charging identical work.
fn apply_op_batched(
    plan: &LogicalPlan,
    vid: VertexId,
    batches: &mut [Batch],
    owned: &mut bool,
    work: &mut Work,
) {
    let op = plan.vertex(vid).op();
    work.record_ops += batches.iter().map(|b| b.len() as u64).sum::<u64>();
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
            *owned = true;
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

/// Vectorized mirror of [`partition_records`]: shuffle keys are encoded
/// straight out of the columns (same canonical bytes, same [`fnv1a`], so
/// the partition assignment is pinned to the row path's) and rows
/// materialize as records only once their partition is known.
fn partition_batches(
    plan: &LogicalPlan,
    shuffle: VertexId,
    tag: usize,
    batches: &[Batch],
    n_partitions: usize,
    work: &mut Work,
) -> Vec<Vec<Tagged>> {
    let n = n_partitions.max(1);
    let mut parts: Vec<Vec<Tagged>> = vec![Vec::new(); n];
    let op = plan.vertex(shuffle).op().clone();
    let mut key_buf = Vec::new();
    for b in batches {
        work.record_ops += b.len() as u64;
        for (row, r) in b.to_records().into_iter().enumerate() {
            let p = match &op {
                Operator::Group { key } => {
                    key_buf.clear();
                    b.write_value_canonical(row, *key, &mut key_buf);
                    (fnv1a(&key_buf) % n as u64) as usize
                }
                Operator::Join {
                    left_key,
                    right_key,
                } => {
                    let key = if tag == 0 { *left_key } else { *right_key };
                    key_buf.clear();
                    b.write_value_canonical(row, key, &mut key_buf);
                    (fnv1a(&key_buf) % n as u64) as usize
                }
                Operator::Distinct => {
                    key_buf.clear();
                    b.write_row_canonical(row, &mut key_buf);
                    (fnv1a(&key_buf) % n as u64) as usize
                }
                // Global sort: a single range partition.
                Operator::Order { .. } => 0,
                other => {
                    debug_assert!(false, "non-blocking shuffle {}", other.name());
                    0
                }
            };
            work.bytes_out += r.byte_size();
            parts[p].push((tag, r));
        }
    }
    parts
}

/// Columnar variant of [`run_reduce_task`]. Returns the untouched input
/// back as `Err` when the partition cannot run columnar: mixed-arity
/// records (per join side), or a DISTINCT shuffle — whose whole-record
/// sort/dedup already runs on owned rows with the pool's chunked sort.
fn run_reduce_task_batched(
    job: &ExecJob,
    incoming: Vec<Tagged>,
    pool: &ComputePool,
) -> Result<ReduceTaskOutput, Vec<Tagged>> {
    debug_assert!(job.batch_records > 0 && job.combiner.is_none());
    let plan = &job.plan;
    let op = job.shuffle.map(|sh| plan.vertex(sh).op().clone());

    if matches!(op, Some(Operator::Distinct)) {
        return Err(incoming);
    }
    let ragged = match &op {
        Some(Operator::Join { .. }) => {
            !uniform_arity(incoming.iter().filter(|(t, _)| *t == 0).map(|(_, r)| r))
                || !uniform_arity(incoming.iter().filter(|(t, _)| *t != 0).map(|(_, r)| r))
        }
        _ => !uniform_arity(incoming.iter().map(|(_, r)| r)),
    };
    if ragged {
        return Err(incoming);
    }

    let mut work = Work {
        bytes_in: incoming.iter().map(|(_, r)| r.byte_size()).sum(),
        ..Work::default()
    };
    let mut digests = Vec::new();

    // Convert the partition once, then run the shuffle as a vectorized
    // kernel: the post-shuffle stream is one batch (bags stay nested in
    // it), or the collector input in batches of `batch_records` rows.
    let mut stages = StageWall::default();
    // Takes the records by value so they are freed before the kernel runs.
    let mut to_batch = |records: Vec<Record>| {
        timed(&mut stages.to_batch, || {
            Batch::from_records(&records).expect("arity checked above")
        })
    };
    let mut batches = match &op {
        Some(Operator::Group { key }) => {
            work.record_ops += 2 * incoming.len() as u64;
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            let batch = to_batch(records);
            vec![timed(&mut stages.shuffle_kernel, || {
                group_batch(&batch, *key)
            })]
        }
        Some(Operator::Join {
            left_key,
            right_key,
        }) => {
            work.record_ops += 2 * incoming.len() as u64;
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (tag, r) in incoming {
                if tag == 0 {
                    left.push(r);
                } else {
                    right.push(r);
                }
            }
            let lb = to_batch(left);
            let rb = to_batch(right);
            vec![timed(&mut stages.shuffle_kernel, || {
                join_batch(&lb, *left_key, &rb, *right_key)
            })]
        }
        Some(Operator::Order { key, order }) => {
            work.record_ops += 2 * incoming.len() as u64;
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            let batch = to_batch(records);
            vec![timed(&mut stages.shuffle_kernel, || {
                order_batch(&batch, *key, *order)
            })]
        }
        Some(other) => {
            debug_assert!(false, "non-blocking shuffle {}", other.name());
            return Err(incoming);
        }
        None => {
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            timed(&mut stages.to_batch, || {
                rebatch(&records, job.batch_records)
            })
        }
    };
    data_plane::count_batches_built(batches.len() as u64);
    data_plane::count_batch_rows(batches.iter().map(|b| b.len() as u64).sum());

    if let Some(sh) = job.shuffle {
        for vp in &job.verification_points {
            if matches!(vp.site, Site::Shuffle { .. }) && vp.vertex == sh {
                let summary = timed(&mut stages.digest, || {
                    digest_batches(&batches, job.digest_granularity, &mut work, pool)
                });
                digests.push((*vp, summary));
            }
        }
    }

    // Reduce-side rows are always owned; the flag only exists for the
    // map path's clone accounting.
    let mut owned = true;
    for (pos, &vid) in job.reduce.iter().enumerate() {
        timed(&mut stages.pipeline_ops, || {
            apply_op_batched(plan, vid, &mut batches, &mut owned, &mut work)
        });
        for vp in &job.verification_points {
            if let Site::Reduce { pos: vp_pos, .. } = vp.site {
                if vp.vertex == vid && vp_pos == pos {
                    let summary = timed(&mut stages.digest, || {
                        digest_batches(&batches, job.digest_granularity, &mut work, pool)
                    });
                    digests.push((*vp, summary));
                }
            }
        }
    }

    // The one place reduce-side rows (and any bags still in them)
    // become records.
    let records = timed(&mut stages.to_records, || {
        let mut records = Vec::with_capacity(batches.iter().map(Batch::len).sum());
        for b in &batches {
            records.extend(b.to_records());
        }
        records
    });
    work.bytes_out = byte_size(&records);
    Ok(ReduceTaskOutput {
        records,
        digests,
        work,
        stages,
    })
}

/// True when every record has the same arity (vacuously for an empty
/// stream) — the only conversion [`Batch::from_records`] can refuse.
fn uniform_arity<'a>(mut records: impl Iterator<Item = &'a Record>) -> bool {
    match records.next() {
        None => true,
        Some(first) => {
            let arity = first.arity();
            records.all(|r| r.arity() == arity)
        }
    }
}

/// Slices the collector's (shuffle-less) input into batches of at most
/// `batch_records` rows. Callers guarantee uniform arity.
fn rebatch(records: &[Record], batch_records: usize) -> Vec<Batch> {
    records
        .chunks(batch_records.max(1))
        .map(|rows| Batch::from_records(rows).expect("uniform arity"))
        .collect()
}

/// Digests a batch stream: the vectorized mirror of [`digest_stream`],
/// framing whole chunk-aligned runs of rows into one reused buffer per
/// hasher update (byte-identical digests, same counters charged).
fn digest_batches(
    batches: &[Batch],
    granularity: usize,
    work: &mut Work,
    pool: &ComputePool,
) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut run = Vec::new();
    let mut in_chunk = 0usize;
    let mut payload_bytes = 0u64;
    let mut count = 0u64;
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
            count += take as u64;
            in_chunk += take;
            if in_chunk == granularity {
                in_chunk = 0;
            }
            row += take;
        }
    }
    work.digest_bytes += payload_bytes;
    work.record_ops += count;
    data_plane::count_bytes_encoded(payload_bytes);
    data_plane::count_digest_bytes(payload_bytes + 8 * count);
    finish_chunked(cd, pool)
}

fn byte_size(records: &[Record]) -> u64 {
    records.iter().map(Record::byte_size).sum()
}

/// Commitment digest over a map task's partitioned output: every
/// `(partition, tag, record)` triple framed canonically into one chunked
/// stream. Computed once when the engine captures a sampled task and
/// again by the trusted spot-checker after an honest re-run; any
/// divergence between the two localizes via the summary's Merkle tree.
/// Finished inline (never pool-fanned) so capture and re-check hash the
/// byte-identical stream regardless of which thread runs them.
pub(crate) fn digest_map_outputs(partitions: &[Vec<Tagged>], granularity: usize) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    for (p, part) in partitions.iter().enumerate() {
        for (tag, r) in part {
            ChunkedDigest::begin_frame(&mut buf);
            buf.extend_from_slice(&(p as u64).to_be_bytes());
            buf.extend_from_slice(&(*tag as u64).to_be_bytes());
            r.write_canonical(&mut buf);
            ChunkedDigest::seal_frame(&mut buf);
            cd.append_framed(&buf);
        }
    }
    cd.finish()
}

/// Commitment digest over a reduce/collector task's output records; the
/// reduce-side mirror of [`digest_map_outputs`].
pub(crate) fn digest_reduce_outputs(records: &[Record], granularity: usize) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    for r in records {
        ChunkedDigest::begin_frame(&mut buf);
        r.write_canonical(&mut buf);
        ChunkedDigest::seal_frame(&mut buf);
        cd.append_framed(&buf);
    }
    cd.finish()
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
        let total: usize = out.partitions.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "null follower filtered out");
        assert_eq!(out.partitions.len(), 2);
        // Same user always lands in the same partition.
        for part in &out.partitions {
            let users: Vec<i64> = part
                .iter()
                .filter_map(|(_, r)| r.get(0).and_then(Value::as_int))
                .collect();
            for u in &users {
                let home = out
                    .partitions
                    .iter()
                    .position(|p| {
                        p.iter()
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
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &ComputePool::default());
        assert_eq!(out.records, ints(&[&[1, 2], &[2, 1]]));
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
        assert_eq!(a.partitions, b.partitions, "partitioning is deterministic");
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
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &ComputePool::default());
        assert_eq!(out.records, ints(&[&[1, 2, 2, 3]]));
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
        assert_eq!(out.partitions.len(), 1);
        let reduced = run_reduce_task(
            &job,
            out.partitions.into_iter().next().unwrap(),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(reduced.records, ints(&[&[3], &[2], &[1]]));
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
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &ComputePool::default());
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
    /// partitions, work counters, and digest summaries down to the
    /// combined fold and the Merkle root.
    fn assert_map_identical(a: &MapTaskOutput, b: &MapTaskOutput, ctx: &str) {
        assert_eq!(a.partitions, b.partitions, "{ctx}: partitions");
        assert_eq!(a.work, b.work, "{ctx}: work");
        assert_eq!(a.digests.len(), b.digests.len(), "{ctx}: digest count");
        for ((va, sa), (vb, sb)) in a.digests.iter().zip(&b.digests) {
            assert_eq!(va, vb, "{ctx}: vp order");
            assert_eq!(sa, sb, "{ctx}: summary");
            assert_eq!(sa.combined(), sb.combined(), "{ctx}: combined");
            assert_eq!(sa.merkle_root(), sb.merkle_root(), "{ctx}: root");
        }
    }

    fn assert_reduce_identical(a: &ReduceTaskOutput, b: &ReduceTaskOutput, ctx: &str) {
        assert_eq!(a.records, b.records, "{ctx}: records");
        assert_eq!(a.work, b.work, "{ctx}: work");
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
            assert_map_identical(&batched, &row, &format!("batch_records {bs}"));
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
            let row = run_reduce_task(&job, incoming.to_vec(), TaskFate::Faithful, &pool);
            assert_eq!(row.digests.len(), 1 + job.reduce.len());
            for bs in [1usize, 5, 1024] {
                job.batch_records = bs;
                let batched = run_reduce_task(&job, incoming.to_vec(), TaskFate::Faithful, &pool);
                assert_reduce_identical(
                    &batched,
                    &row,
                    &format!("granularity {granularity} batch_records {bs}: {src}"),
                );
            }
            records = row.records;
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
        assert_map_identical(&batched, &row, "stored bags");
        let counts: Vec<Record> = row
            .partitions
            .concat()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
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
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &pool);
        assert_eq!(out.records.len(), 7);
        assert_eq!(
            thread_rows_materialized() - before,
            out.records.len() as u64,
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
            incoming.clone(),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let batched = run_reduce_task(
            &join_job(8),
            incoming.clone(),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_reduce_identical(&batched, &row, "join");

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
            incoming.clone(),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let batched = run_reduce_task(
            &order_job(4),
            incoming,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_reduce_identical(&batched, &row, "order");
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
        assert_map_identical(&batched, &row, "ragged fallback");
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
        assert_map_identical(&pooled, &inline, "pool merkle");
        assert_eq!(inline.digests[0].1.chunks().len(), 2500);
        assert!(inline.digests[0].1.merkle().depth() > 10);
    }

    #[test]
    fn fnv_is_stable() {
        // Regression pin: partitioning must never change across versions,
        // or replica correspondence would silently break.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
