//! Data-plane cost: the seed's cloning record path vs the zero-copy path.
//!
//! The original record path copied data four times before a single digest
//! byte was hashed: `Storage::read` cloned the whole file out of storage,
//! `Cluster::submit` copied each split into its own `Vec`, task
//! assignment cloned the split again, and every record was encoded into a
//! fresh heap buffer before two separate hasher updates. The zero-copy
//! path shares the write-once file behind an `Arc`, hands each task a
//! borrowed window, and encodes into one reused framed buffer that the
//! hasher absorbs in a single update.
//!
//! The `baseline` rows below reproduce the original flow *faithfully*
//! (same copies, same per-record allocation, same two-update digesting)
//! over the same dataset as the `zero-copy` rows, and both passes must
//! produce byte-identical digest summaries — the speedup is real work
//! avoided, not work skipped. The counter rows then demonstrate the
//! zero-copy invariant on the real storage layer: seeding any number of
//! replica reads from one file clones zero records, and a full
//! `ParallelExecutor` run clones records only where the pipeline must
//! own them (partition boundaries and output publication). The same run
//! on both planes gives the rows built out of batches per input record: on
//! the columnar plane a GROUP → aggregate job builds its output rows and
//! nothing else, which the bench asserts.
//!
//! The `batched incl. conversion` row pays a Record→Batch conversion per
//! split; the `native columnar file` row reads the same file stored as
//! one batch (what `cbft` parses CSV input into), where a split is a
//! column-wise window and nothing is converted. The bench asserts it
//! digests at least as fast as the zero-copy row pass.
//!
//! The `group kernel` row runs `group_batch` — the reduce-side sort with
//! the bags in canonical order — alone, on the follower workload's
//! Zipf-keyed edges after its `FILTER`. The `aggregate group` rows price a
//! reduce task whose bags nothing observes (only `COUNT/SUM/MIN/MAX/AVG`
//! read them, no verification point digests them), over a partition of
//! 40 runs on three shapes: follower (`COUNT`, integer key), weather
//! (`AVG`, integer key) and a string-keyed `COUNT` + `SUM`. The `replaced`
//! rows reproduce the pipeline the fused kernel replaced — `Batch::concat`
//! of the runs, a grouping by key alone (a faithful copy of the deleted
//! `group_batch_unordered`, kept here), `project_batch` over the bags —
//! and the `fused` rows run `group_aggregate` over the runs in place. Both
//! must build the same batch, and the fused kernel may not be the slower
//! one.
//!
//! The `corrupt pass` rows price the commission fault itself, on a split a
//! Byzantine task owns a corrupted copy of: the row arm clones the split's
//! records and runs `corrupt_record` over them, the columnar arm cuts the
//! split's window out of the columnar file and runs `corrupt_batch` over
//! it in place, over weather readings (integer `station` first, as every
//! shipped workload leads with an integer); both arms must digest
//! identically.
//!
//! The `csv ingest` rows price the trusted tier's loader alone, text in
//! memory → one columnar `Batch`, on four shapes: follower edges (two
//! integers, 2% `null`), weather readings (three integers, eight-digit
//! dates, negatives), flights (three short integers) and a string-keyed
//! file whose first column never takes the integer recogniser. The
//! `split-then-classify` rows reproduce the loader `csv::parse_columns`
//! replaced (lines cut and trimmed, fields cut, every field through
//! `classify`) over the same text, so the ratio is taken on one host in
//! one run; both must build the batch `from_records` builds over
//! `parse_record` of every line, and the scan may not be the slower one.
//!
//! The `map side` rows price a columnar map task from its split to its
//! reduce partitions, without the engine, on the three shipped shapes
//! (follower: `FILTER` + integer key; weather: `FILTER` + three columns;
//! airline: `FOREACH` + integer key) and on a string-keyed one. The
//! `copying` rows reproduce the pipeline the in-place one replaced, from
//! the public kernels: the split copied out in batches of `MAP_BATCH`
//! rows, each run through `filter_batch` / `project_batch`, every key
//! encoded into a buffer and hashed, and one `gather` per (batch,
//! partition). The `in place` rows read the split as one selection
//! (`select` / `project`), cut it into its partitions as
//! `mapreduce::task` does (`shuffle_partitions`: one bucket byte per row
//! of the window) and copy each partition out once per task
//! (`Batch::select_rows`). Both
//! must route the same rows to the same partitions, and reading in place
//! may not be the slower one.
//!
//! Results land in `bench_results/data_plane.json`.

use std::borrow::Cow;
use std::sync::Arc;

use cbft_bench::{best_of, timed, ExperimentRecord, ParallelSpec};
use cbft_dataflow::batch::{
    filter_batch, fnv1a, group_aggregate, group_batch, project, project_batch, select,
    shuffle_partitions, Selection,
};
use cbft_dataflow::combiner::Combiner;
use cbft_dataflow::interp::{group_records, project_record};
use cbft_dataflow::{csv, AggFunc, Batch, Column, ColumnBuilder, Expr, Record, Value};
use cbft_digest::{hardware_accelerated, ChunkedDigest, ChunkedSummary};
use cbft_mapreduce::{corrupt_batch, corrupt_record, data_plane, FileData, Storage};
use cbft_workloads::{airline, twitter, weather};
use clusterbft::ExecutorConfig;

/// Records in the digested file.
const RECORDS: usize = 200_000;
/// Records per map split (window size).
const SPLIT: usize = 5_000;
/// Digest chunk granularity (records per sealed chunk).
const GRANULARITY: usize = 64;
/// Replica clusters seeded from the same input file.
const REPLICAS: usize = 4;
/// Lines per CSV ingest shape (the follower benchmark input's size).
const INGEST_ROWS: usize = 400_000;
/// Rows per map task of the `map side` passes (the follower benchmark's
/// split), rows per batch the copying pipeline cuts (what `--batch-size`
/// sized when each batch was a copy) and reduce partitions.
const MAP_SPLIT: usize = 10_000;
const MAP_BATCH: usize = 1024;
const MAP_PARTITIONS: usize = 4;

/// A record shaped like real workload rows: two integers plus a string
/// key, so cloning costs a heap allocation (as it does for any workload
/// with non-trivial values).
fn dataset() -> Arc<[Record]> {
    (0..RECORDS)
        .map(|i| {
            Record::new(vec![
                Value::Int(i as i64),
                Value::Str(format!("user-{}", i % 997)),
                Value::Int((i * i) as i64),
            ])
        })
        .collect::<Vec<Record>>()
        .into()
}

/// The seed's record path: clone out of storage, copy per split, clone
/// per task, fresh encode buffer per record, two hasher updates.
fn baseline_pass(file: &Arc<[Record]>) -> (Vec<ChunkedSummary>, u64) {
    let records: Vec<Record> = file.to_vec(); // Storage::read().to_vec()
    let splits: Vec<Vec<Record>> = records.chunks(SPLIT).map(<[Record]>::to_vec).collect();
    let mut summaries = Vec::new();
    let mut payload_bytes = 0u64;
    for split in &splits {
        let task_records: Vec<Record> = split.clone(); // task assignment
        let mut cd = ChunkedDigest::new(GRANULARITY);
        for r in &task_records {
            let buf = r.to_canonical_bytes(); // fresh buffer per record
            payload_bytes += buf.len() as u64;
            cd.append(&buf); // length prefix + payload: two updates
        }
        summaries.push(cd.finish());
    }
    (summaries, payload_bytes)
}

/// The zero-copy path: shared handle, borrowed split windows, one reused
/// framed buffer, single hasher update per record.
fn zero_copy_pass(file: &Arc<[Record]>) -> (Vec<ChunkedSummary>, u64) {
    let shared = Arc::clone(file); // Storage::read(): handle only
    let mut summaries = Vec::new();
    let mut payload_bytes = 0u64;
    let mut buf = Vec::new();
    for split in shared.chunks(SPLIT) {
        let mut cd = ChunkedDigest::new(GRANULARITY);
        for r in split {
            ChunkedDigest::begin_frame(&mut buf);
            r.write_canonical(&mut buf);
            ChunkedDigest::seal_frame(&mut buf);
            payload_bytes += (buf.len() - 8) as u64;
            cd.append_framed(&buf);
        }
        summaries.push(cd.finish());
    }
    (summaries, payload_bytes)
}

/// The columnar batch path: splits become column batches at the storage
/// boundary, rows are framed into one reused run buffer per digest chunk,
/// and the hasher absorbs each chunk-aligned run in a *single* update
/// (`append_run`) instead of one call per record.
fn batched_pass(file: &Arc<[Record]>) -> (Vec<ChunkedSummary>, u64) {
    let shared = Arc::clone(file);
    let batches: Vec<Batch> = shared
        .chunks(SPLIT)
        .map(|split| Batch::from_records(split).expect("dataset rows are uniform-arity"))
        .collect();
    digest_batches(&batches)
}

/// The columnar path over a file stored columnar: each split is a window
/// of the file's one batch, cut column by column — no record exists to
/// convert.
fn columnar_file_pass(file: &FileData) -> (Vec<ChunkedSummary>, u64) {
    digest_batches(&file_windows(file.batch().expect("stored columnar")))
}

/// The `SPLIT`-row windows of a columnar file, each cut column by column.
fn file_windows(file: &Batch) -> Vec<Batch> {
    (0..file.len())
        .step_by(SPLIT)
        .map(|start| file.select_rows(&Selection::Range(start..file.len().min(start + SPLIT))))
        .collect()
}

/// The digest half of the batch path alone, over pre-built batches — the
/// shape a mid-pipeline verification point sees, where the one-time
/// storage-boundary conversion is amortized over every kernel and digest
/// that follows it.
fn digest_batches(batches: &[Batch]) -> (Vec<ChunkedSummary>, u64) {
    let mut summaries = Vec::new();
    let mut payload_bytes = 0u64;
    let mut run = Vec::new();
    for batch in batches {
        let mut cd = ChunkedDigest::new(GRANULARITY);
        let mut row = 0;
        while row < batch.len() {
            let take = GRANULARITY.min(batch.len() - row);
            run.clear();
            let mut payload = 0u64;
            for r in row..row + take {
                let start = run.len();
                run.extend_from_slice(&[0u8; 8]);
                batch.write_row_canonical(r, &mut run);
                let len = (run.len() - start - 8) as u64;
                run[start..start + 8].copy_from_slice(&len.to_be_bytes());
                payload += len;
            }
            cd.append_run(&run, take, payload);
            payload_bytes += payload;
            row += take;
        }
        summaries.push(cd.finish());
    }
    (summaries, payload_bytes)
}

/// The commission fault over every split of `rows`, on both arms: wall of
/// the row arm (`to_vec` + `corrupt_record`) and of the columnar arm
/// (`Batch::select_rows` + `corrupt_batch`). The corrupted splits must digest
/// byte-identically.
fn corrupt_passes(rows: Vec<Record>) -> (f64, f64) {
    let file = Batch::from_records(&rows).expect("uniform arity");
    let (by_rows, wall_rows) = measure(|| {
        let mut corrupted = Vec::with_capacity(rows.len());
        for split in rows.chunks(SPLIT) {
            let mut owned = split.to_vec();
            owned.iter_mut().for_each(corrupt_record);
            corrupted.extend(owned);
        }
        corrupted
    });
    let (by_batch, wall_batch) = measure(|| {
        let mut batches = file_windows(&file);
        batches.iter_mut().for_each(corrupt_batch);
        batches
    });
    assert_ne!(by_rows, rows, "the fault is visible");
    assert_eq!(
        zero_copy_pass(&by_rows.into()),
        digest_batches(&by_batch),
        "both arms must corrupt to byte-identical digest streams"
    );
    (wall_rows, wall_batch)
}

/// What a map task's pipeline does ahead of the shuffle.
enum MapOp {
    Filter(Expr),
    Project(Vec<Expr>),
}

/// The map side the in-place one replaced, from the public kernels: per
/// task, copied windows of `MAP_BATCH` rows, the operator's dense
/// kernel over each, every key cell encoded and hashed, one `gather` per
/// (batch, partition) — a batch bound for one partition moves whole.
/// Returns each partition's runs.
fn map_side_copying(file: &Batch, op: &MapOp, key: usize) -> Vec<Vec<Batch>> {
    let mut parts = vec![Vec::new(); MAP_PARTITIONS];
    let mut selected = vec![Vec::new(); MAP_PARTITIONS];
    let mut buf = Vec::new();
    for task in (0..file.len()).step_by(MAP_SPLIT) {
        let end = file.len().min(task + MAP_SPLIT);
        let batches: Vec<Batch> = (task..end)
            .step_by(MAP_BATCH)
            .map(|start| file.select_rows(&Selection::Range(start..end.min(start + MAP_BATCH))))
            .collect();
        for b in batches {
            let b = match op {
                MapOp::Filter(predicate) => filter_batch(&b, predicate),
                MapOp::Project(exprs) => project_batch(&b, exprs),
            };
            selected.iter_mut().for_each(Vec::clear);
            for row in 0..b.len() {
                buf.clear();
                b.write_value_canonical(row, key, &mut buf);
                selected[(fnv1a(&buf) % MAP_PARTITIONS as u64) as usize].push(row);
            }
            if let Some(p) = selected.iter().position(|rows| rows.len() == b.len()) {
                parts[p].push(b);
                continue;
            }
            for (p, rows) in selected.iter().enumerate() {
                if !rows.is_empty() {
                    parts[p].push(b.gather(rows));
                }
            }
        }
    }
    parts
}

/// The map side as `mapreduce::task` runs it: per task, the split read
/// in place as one selection — a filter narrows it, a projection
/// evaluates over it — cut into its partitions by the bucket byte of
/// every row of the window, hashed out of the key column, and each
/// partition copied out once. Returns each partition's runs.
fn map_side_in_place(file: &Batch, op: &MapOp, key: usize) -> Vec<Vec<Batch>> {
    let mut parts = vec![Vec::new(); MAP_PARTITIONS];
    for task in (0..file.len()).step_by(MAP_SPLIT) {
        let window = Selection::Range(task..file.len().min(task + MAP_SPLIT));
        let (batch, rows) = match op {
            MapOp::Filter(predicate) => {
                let kept = Selection::Rows(select(file, &window, predicate));
                (Cow::Borrowed(file), kept)
            }
            MapOp::Project(exprs) => {
                let dense = project(file, &window, exprs);
                let all = Selection::Range(0..dense.len());
                (Cow::Owned(dense), all)
            }
        };
        for (p, part) in shuffle_partitions(&batch, &rows, key, MAP_PARTITIONS)
            .iter()
            .enumerate()
        {
            if !part.is_empty() {
                parts[p].push(batch.select_rows(part));
            }
        }
    }
    parts
}

/// Wall of both map sides over `records`, `(copying, in place)`, after
/// asserting that they hand every reduce partition the same rows.
fn map_side_passes(records: &[Record], op: &MapOp, key: usize) -> (f64, f64) {
    let file = Batch::from_records(records).expect("uniform arity");
    let (copied, wall_copying) = measure(|| map_side_copying(&file, op, key));
    let (in_place, wall_in_place) = measure(|| map_side_in_place(&file, op, key));
    let rows =
        |runs: Vec<Batch>| -> Vec<Record> { runs.iter().flat_map(Batch::to_records).collect() };
    for (p, (copied, in_place)) in copied.into_iter().zip(in_place).enumerate() {
        let (copied, in_place) = (rows(copied), rows(in_place));
        assert!(!copied.is_empty(), "partition {p} receives rows");
        assert_eq!(
            copied, in_place,
            "partition {p} holds the same rows in the same order"
        );
    }
    (wall_copying, wall_in_place)
}

/// `records` as the CSV text `cbft` reads: one line each, `null` spelled
/// out.
fn csv_text(records: &[Record]) -> String {
    use std::fmt::Write;
    let mut text = String::new();
    for r in records {
        for (i, v) in r.fields().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(text, "{sep}{v}").expect("writing to a String");
        }
        text.push('\n');
    }
    text
}

/// The loader `csv::parse_columns` replaced, reproduced faithfully: lines
/// cut at `\n` and trimmed to drop the blank ones, the first line split to
/// count the columns, then every field cut at its `,` and classified.
fn split_then_classify(text: &str) -> Option<Batch> {
    fn split_ascii(s: &str, sep: u8) -> impl Iterator<Item = &str> {
        let mut rest = Some(s);
        std::iter::from_fn(move || {
            let s = rest?;
            let (piece, tail) = match s.bytes().position(|b| b == sep) {
                Some(i) => (&s[..i], Some(&s[i + 1..])),
                None => (s, None),
            };
            rest = tail;
            Some(piece)
        })
    }
    let rows = text.bytes().filter(|b| *b == b'\n').count() + 1;
    let mut lines = split_ascii(text, b'\n')
        .filter(|l| !l.trim().is_empty())
        .peekable();
    let arity = lines
        .peek()
        .map_or(0, |first| split_ascii(first, b',').count());
    let mut columns: Vec<ColumnBuilder> = (0..arity)
        .map(|_| ColumnBuilder::with_capacity(rows))
        .collect();
    let mut len = 0;
    for line in lines {
        let mut fields = split_ascii(line, b',');
        for column in &mut columns {
            column.push(csv::classify(fields.next()?));
        }
        if fields.next().is_some() {
            return None;
        }
        len += 1;
    }
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    Some(Batch::from_columns(columns, len))
}

/// Wall of both loaders over `records` as CSV text, `(split, scan)`, and
/// the text's size. Both must build the batch the record loader's rows
/// convert to.
fn csv_ingest_passes(records: &[Record]) -> (f64, f64, usize) {
    let text = csv_text(records);
    let by_records: Vec<Record> = text.lines().map(csv::parse_record).collect();
    assert_eq!(by_records, records, "the text spells the records");
    let expected = Batch::from_records(&by_records);
    let (split, wall_split) = measure(|| split_then_classify(&text));
    let (scanned, wall_scan) = measure(|| csv::parse_columns(&text));
    assert_eq!(
        split, expected,
        "split-then-classify builds from_records' batch"
    );
    assert_eq!(scanned, expected, "the scan builds from_records' batch");
    (wall_split, wall_scan, text.len())
}

/// Runs of the `aggregate group` passes: a reduce partition of the
/// follower benchmark holds one run per map task.
const GROUP_RUNS: usize = 40;

/// `GROUP` by `key` alone, the bags in no particular order: a faithful
/// copy of the `group_batch_unordered` the fused kernel replaced — the
/// rows sorted by key (a null-free `Int` key as order-preserving `u64`
/// images beside their row, every other layout by comparing cells), runs
/// of equal keys the groups, every row gathered into a nested bag column.
fn group_key_only(batch: &Batch, key: usize) -> Batch {
    let column = batch.column(key).expect("the key is a column");
    let (indices, mut offsets): (Vec<usize>, Vec<usize>) = match column {
        Column::Int {
            values,
            validity: None,
        } => {
            let mut keyed: Vec<(u64, usize)> = (0..batch.len())
                .map(|row| (values[row] as u64 ^ 1 << 63, row))
                .collect();
            keyed.sort_unstable_by_key(|&(image, _)| image);
            let starts = (0..keyed.len()).filter(|&i| i == 0 || keyed[i].0 != keyed[i - 1].0);
            (
                keyed.iter().map(|&(_, row)| row).collect(),
                starts.collect(),
            )
        }
        other => {
            let keys = Batch::from_columns(vec![other.clone()], batch.len());
            let mut rows: Vec<usize> = (0..batch.len()).collect();
            rows.sort_unstable_by(|&a, &b| keys.cmp_rows(a, b));
            let differs = |i: usize| keys.cmp_rows(rows[i - 1], rows[i]).is_ne();
            let starts = (0..rows.len()).filter(|&i| i == 0 || differs(i)).collect();
            (rows, starts)
        }
    };
    let firsts: Vec<usize> = offsets.iter().map(|&start| indices[start]).collect();
    offsets.push(indices.len());
    let bags = Column::Bag {
        offsets,
        rows: Box::new(batch.gather(&indices)),
    };
    let keys = batch.gather(&firsts).column(key).expect("gathered").clone();
    Batch::from_columns(vec![keys, bags], firsts.len())
}

/// Wall of an aggregate-only GROUP's reduce task over `rows` cut into
/// [`GROUP_RUNS`] runs, `(replaced pipeline, fused kernel)`, after
/// asserting that both build the same batch. The runs are windows of
/// `rows`, read in place, as a reduce task reads its partition's runs.
fn aggregate_group_passes(rows: &Batch, key: usize, generates: &[Expr]) -> (f64, f64) {
    let per_run = rows.len().div_ceil(GROUP_RUNS);
    let windows: Vec<Selection> = (0..rows.len())
        .step_by(per_run)
        .map(|start| Selection::Range(start..rows.len().min(start + per_run)))
        .collect();
    let runs: Vec<(&Batch, &Selection)> = windows.iter().map(|w| (rows, w)).collect();
    let plan = Combiner::for_group_projection(key, generates).expect("all-algebraic generates");
    let (replaced, wall_replaced) = measure(|| {
        let joined = Batch::concat(&runs).expect("one arity");
        project_batch(&group_key_only(&joined, key), generates)
    });
    let (fused, wall_fused) = measure(|| group_aggregate(&runs, &plan));
    assert_eq!(
        fused, replaced,
        "the fused kernel builds the batch it replaced"
    );
    (wall_replaced, wall_fused)
}

/// Best-of-three wall time of `pass`, returning its last output too.
fn measure<T>(mut pass: impl FnMut() -> T) -> (T, f64) {
    let [best] = best_of(3, |_| timed(&mut pass));
    best
}

fn main() {
    let file = dataset();

    // Warmup all passes (allocator + page cache), then measure.
    let warm_base = baseline_pass(&file);
    let warm_zero = zero_copy_pass(&file);
    let warm_batch = batched_pass(&file);
    assert_eq!(
        warm_base, warm_zero,
        "both row passes must produce byte-identical digest streams"
    );
    assert_eq!(
        warm_zero, warm_batch,
        "the columnar batch pass must produce byte-identical digest streams"
    );

    let ((_, payload_bytes), wall_base) = measure(|| baseline_pass(&file));
    let (_, wall_zero) = measure(|| zero_copy_pass(&file));
    let (_, wall_batch) = measure(|| batched_pass(&file));
    let prebuilt: Vec<Batch> = file
        .chunks(SPLIT)
        .map(|split| Batch::from_records(split).expect("uniform arity"))
        .collect();
    let warm_digest = digest_batches(&prebuilt);
    assert_eq!(
        warm_zero, warm_digest,
        "pre-built batches digest identically"
    );
    let (_, wall_digest) = measure(|| digest_batches(&prebuilt));
    let columnar_file = FileData::from(Batch::from_records(&file).expect("uniform arity"));
    assert_eq!(
        warm_zero,
        columnar_file_pass(&columnar_file),
        "a columnar file's windows digest identically"
    );
    let (_, wall_native) = measure(|| columnar_file_pass(&columnar_file));
    let mrec = RECORDS as f64 / 1e6;
    let speedup = wall_base / wall_zero;
    let batch_speedup = wall_base / wall_batch;

    // Group kernel: the follower script's reduce side without the engine.
    let edges = Batch::from_records(&twitter::generate(3, RECORDS)).expect("uniform arity");
    let edges = filter_batch(&edges, &Expr::is_not_null(Expr::Col(1)));
    let aggregate = |func, field| Expr::Agg {
        func,
        bag_col: 1,
        field,
    };
    let generates = [
        Expr::Col(0),
        aggregate(AggFunc::Count, None),
        aggregate(AggFunc::Sum, Some(1)),
    ];
    let by_rows: Vec<Record> = group_records(&edges.to_records(), 0)
        .iter()
        .map(|group| project_record(group, &generates))
        .collect();
    let (canonical, wall_group) = measure(|| group_batch(&edges, 0));
    assert_eq!(
        project_batch(&canonical, &generates).to_records(),
        by_rows,
        "canonical grouping must aggregate to the row kernel's output"
    );
    let grouped_mrec = edges.len() as f64 / 1e6;

    // An aggregate-only GROUP's reduce task, replaced pipeline and fused
    // kernel, on the two shipped integer-keyed shapes and a string-keyed one.
    let readings = Batch::from_records(&weather::generate(3, RECORDS)).expect("uniform arity");
    let readings = filter_batch(&readings, &Expr::is_not_null(Expr::Col(2)));
    let named: Vec<Record> = (0..RECORDS as i64)
        .map(|i| {
            let user = Value::Str(format!("user-{}", i * 7919 % 8191));
            Record::new(vec![user, Value::Int(i)])
        })
        .collect();
    let named = Batch::from_records(&named).expect("uniform arity");
    let aggregate_group: Vec<(&str, usize, (f64, f64))> = [
        (
            "follower",
            &edges,
            vec![Expr::Col(0), aggregate(AggFunc::Count, None)],
        ),
        (
            "weather",
            &readings,
            vec![Expr::Col(0), aggregate(AggFunc::Avg, Some(2))],
        ),
        ("string-keyed", &named, generates.to_vec()),
    ]
    .into_iter()
    .map(|(shape, rows, generates)| {
        (
            shape,
            rows.len(),
            aggregate_group_passes(rows, 0, &generates),
        )
    })
    .collect();

    // The commission fault, over weather's integer leading column.
    let (wall_corrupt_rows, wall_corrupt_batch) = corrupt_passes(weather::generate(3, RECORDS));

    // The loader alone, on the shapes of the shipped inputs and on one the
    // integer recogniser never serves.
    let string_keyed: Vec<Record> = (0..INGEST_ROWS as i64)
        .map(|i| Record::new(vec![Value::Str(format!("user-{}", i % 997)), Value::Int(i)]))
        .collect();
    let ingest: Vec<(&str, (f64, f64, usize))> = [
        ("follower", twitter::generate(3, INGEST_ROWS)),
        ("weather", weather::generate(3, INGEST_ROWS)),
        ("airline", airline::generate(3, INGEST_ROWS)),
        ("string-keyed", string_keyed),
    ]
    .into_iter()
    .map(|(shape, records)| (shape, csv_ingest_passes(&records)))
    .collect();

    // The map side, split to partitions, on the same four shapes.
    let string_keyed_edges: Vec<Record> = (0..INGEST_ROWS as i64)
        .map(|i| {
            let follower = if i % 50 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            Record::new(vec![Value::Str(format!("user-{}", i % 997)), follower])
        })
        .collect();
    let not_null = |c| MapOp::Filter(Expr::is_not_null(Expr::Col(c)));
    let map_side: Vec<(&str, (f64, f64))> = [
        (
            "follower",
            twitter::generate(3, INGEST_ROWS),
            not_null(1),
            0,
        ),
        ("weather", weather::generate(3, INGEST_ROWS), not_null(2), 0),
        (
            "airline",
            airline::generate(3, INGEST_ROWS),
            MapOp::Project(vec![Expr::Col(0)]),
            0,
        ),
        ("string-keyed", string_keyed_edges, not_null(1), 0),
    ]
    .into_iter()
    .map(|(shape, records, op, key)| (shape, map_side_passes(&records, &op, key)))
    .collect();

    // Zero-copy invariant on the real storage layer: seeding REPLICAS
    // worth of reads from one write-once file clones no records.
    let before = data_plane::snapshot();
    let mut storage = Storage::new();
    storage
        .write_shared("in", Arc::clone(&file))
        .expect("fresh storage");
    let mut split_windows = 0usize;
    for _ in 0..REPLICAS {
        let handle = storage.read("in").expect("file exists");
        split_windows += handle.rows().chunks(SPLIT).count();
    }
    let seeding = data_plane::snapshot().since(&before);

    // Full pipeline context: a small parallel run of a GROUP → COUNT job,
    // on the columnar plane (the default) and on the row plane. Records
    // are cloned only where the pipeline must own them (partition
    // boundaries, output publication) — never on the storage-read path
    // measured above.
    let full_run = |batch_records: usize| {
        let before_run = data_plane::snapshot();
        let mut spec = ParallelSpec::pipeline(50_000);
        spec.config.batch_records = batch_records;
        let input_records = spec.workload.records.len() as f64;
        let output = spec.workload.outputs[0];
        let (outcome, _) = spec.execute();
        assert!(outcome.verified(), "healthy run verifies");
        let replicas: usize = outcome.replicas_per_round().iter().sum();
        let output_records = outcome.output(output).expect("stored").len();
        let run = data_plane::snapshot().since(&before_run);
        (run, input_records, replicas as f64, output_records as f64)
    };
    let (rows_run, ..) = full_run(0);
    let (run, input_records, replicas, output_records) =
        full_run(ExecutorConfig::default().batch_records);
    let materialized_per_input = |rows: u64| rows as f64 / (replicas * input_records);

    let mut record = ExperimentRecord::new(
        "data_plane",
        "Zero-copy data plane: record-digest throughput and clone counters",
        &format!(
            "{RECORDS} three-column records (int, string, int), {SPLIT}-record splits, \
             digest granularity {GRANULARITY}. Baseline reproduces the original record \
             path (storage clone, per-split copy, per-task clone, per-record encode \
             allocation, two-update digesting); zero-copy shares the file behind an Arc, \
             borrows split windows and reuses one framed encode buffer. Both passes \
             produce byte-identical digest summaries. Counter rows measure the real \
             storage layer seeding {REPLICAS} replica reads, then a full 2-replica \
             ParallelExecutor run (records are owned only at partition boundaries and \
             output publication, never on the read path). The batched rows convert \
             each split to a columnar Batch and digest chunk-aligned row runs with a \
             single hasher update per {GRANULARITY}-record chunk (append_run), the \
             engine's batch_records data plane; the native columnar file rows read the \
             same data stored as one Batch, each split a column-wise window of it \
             (Batch::select_rows), with nothing to convert. The group kernel row groups \
             {RECORDS} Zipf-keyed follower edges (nulls filtered) by user with the bags in \
             canonical order, and aggregates to the row kernel's output. The aggregate group \
             rows run the reduce task of a GROUP whose bags only COUNT/SUM/MIN/MAX/AVG read, \
             over {RECORDS} rows (nulls filtered) in {GROUP_RUNS} runs, on follower edges (COUNT, \
             integer key), weather readings (AVG, integer key) and a string-keyed file (user-N,i: \
             COUNT + SUM, 8191 keys): the replaced pipeline (Batch::concat of the runs, grouping \
             by key alone with every row gathered into a bag column, project_batch over the bags \
             — reproduced in the bench) against group_aggregate over the runs in place; both \
             build the same batch. \
             The corrupt pass rows apply the commission fault to every {SPLIT}-record split \
             of {RECORDS} weather readings (integer station first): the row arm clones each \
             split and runs corrupt_record, the columnar arm copies it out of the columnar \
             file and runs corrupt_batch in place; both digest byte-identically. The csv \
             ingest rows parse {INGEST_ROWS} lines of CSV text in memory into one columnar \
             Batch, on follower edges (two integers, 2% null), weather readings (three \
             integers, eight-digit dates, negatives), flights (three short integers) and a \
             string-keyed file (user-N,i): csv::parse_columns' one-pass scan against the \
             split-then-classify loader it replaced, reproduced in the bench; both build \
             the batch from_records builds over parse_record of every line. The map side \
             rows run a columnar map task from its split to {MAP_PARTITIONS} reduce partitions on \
             {INGEST_ROWS} rows per shape in {MAP_SPLIT}-row tasks (follower: FILTER + integer \
             key; weather: FILTER + three columns; airline: FOREACH + integer key; string-keyed: \
             FILTER + string key): the copying pipeline the in-place one replaced ({MAP_BATCH}-row \
             copies of the split, filter_batch / project_batch, each key encoded and hashed, one \
             gather per batch and partition — with the current kernels, which are themselves \
             the selection kernels over a whole batch) against one selection per task (select / \
             project, cut by shuffle_partitions into bucket selections of one byte per window \
             row, one Batch::select_rows per partition per task); both route the same rows to \
             the same partitions."
        ),
    );
    record.set_flag("digests_byte_identical", true);
    record.set_flag("hardware_accelerated_sha256", hardware_accelerated());
    record.push("baseline wall (clone path)", "s", None, wall_base);
    record.push("zero-copy wall", "s", None, wall_zero);
    record.push(
        "batched wall (columnar, incl. conversion)",
        "s",
        None,
        wall_batch,
    );
    record.push(
        "batched digest wall (pre-built batches)",
        "s",
        None,
        wall_digest,
    );
    record.push("native columnar file wall", "s", None, wall_native);
    record.push(
        "baseline record-digest throughput",
        "Mrec/s",
        None,
        mrec / wall_base,
    );
    record.push(
        "zero-copy record-digest throughput",
        "Mrec/s",
        None,
        mrec / wall_zero,
    );
    record.push(
        "batched record-digest throughput",
        "Mrec/s",
        None,
        mrec / wall_batch,
    );
    record.push(
        "batched digest throughput (pre-built)",
        "Mrec/s",
        None,
        mrec / wall_digest,
    );
    record.push(
        "native columnar file digest throughput",
        "Mrec/s",
        None,
        mrec / wall_native,
    );
    record.push(
        "group kernel throughput (canonical bags)",
        "Mrec/s",
        None,
        grouped_mrec / wall_group,
    );
    for (shape, rows, (wall_replaced, wall_fused)) in &aggregate_group {
        for (path, wall) in [("replaced", wall_replaced), ("fused", wall_fused)] {
            record.push(
                format!("aggregate group throughput ({shape}, {path})"),
                "Mrec/s",
                None,
                *rows as f64 / 1e6 / wall,
            );
        }
        record.push(
            format!("aggregate group fused speedup over replaced ({shape})"),
            "x",
            None,
            wall_replaced / wall_fused,
        );
    }
    record.push(
        "corrupt pass throughput (weather, Int column, rows)",
        "Mrec/s",
        None,
        mrec / wall_corrupt_rows,
    );
    record.push(
        "corrupt pass throughput (weather, Int column, columnar)",
        "Mrec/s",
        None,
        mrec / wall_corrupt_batch,
    );
    let ingest_mrec = INGEST_ROWS as f64 / 1e6;
    for (shape, (wall_split, wall_scan, bytes)) in &ingest {
        for (loader, wall) in [("split-then-classify", wall_split), ("scan", wall_scan)] {
            record.push(
                format!("csv ingest throughput ({shape}, {loader})"),
                "Mrec/s",
                None,
                ingest_mrec / wall,
            );
        }
        record.push(
            format!("csv ingest bandwidth ({shape}, scan)"),
            "MB/s",
            None,
            *bytes as f64 / 1e6 / wall_scan,
        );
        record.push(
            format!("csv ingest scan speedup over split-then-classify ({shape})"),
            "x",
            None,
            wall_split / wall_scan,
        );
    }
    for (shape, (wall_copying, wall_in_place)) in &map_side {
        for (path, wall) in [("copying", wall_copying), ("in place", wall_in_place)] {
            record.push(
                format!("map side throughput ({shape}, {path})"),
                "Mrec/s",
                None,
                ingest_mrec / wall,
            );
        }
        record.push(
            format!("map side in-place speedup over copying ({shape})"),
            "x",
            None,
            wall_copying / wall_in_place,
        );
    }
    record.push("digest throughput speedup", "x", Some(2.0), speedup);
    record.push(
        "batched speedup over baseline",
        "x",
        Some(2.0),
        batch_speedup,
    );
    record.push(
        "batched speedup over zero-copy",
        "x",
        None,
        wall_zero / wall_batch,
    );
    record.push(
        "native columnar file speedup over zero-copy",
        "x",
        None,
        wall_zero / wall_native,
    );
    record.push(
        "digested payload per pass",
        "MB",
        None,
        payload_bytes as f64 / 1e6,
    );
    record.push(
        "read path records cloned (4 replica reads)",
        "records",
        None,
        seeding.records_cloned as f64,
    );
    record.push(
        "read path arcs shared (4 replica reads)",
        "handles",
        None,
        seeding.arcs_shared as f64,
    );
    record.push(
        "read path split windows (no copies)",
        "splits",
        None,
        split_windows as f64,
    );
    record.push("full run input records", "records", None, input_records);
    record.push(
        "full run records cloned",
        "records",
        None,
        run.records_cloned as f64,
    );
    record.push(
        "full run rows materialized (batch → record)",
        "records",
        None,
        run.rows_materialized as f64,
    );
    record.push(
        "rows materialized per input record, GROUP job end to end (row plane)",
        "rows/record",
        None,
        materialized_per_input(rows_run.rows_materialized),
    );
    record.push(
        "rows materialized per input record, GROUP job end to end (columnar)",
        "rows/record",
        None,
        materialized_per_input(run.rows_materialized),
    );
    record.push(
        "output rows per input record",
        "rows/record",
        None,
        output_records / input_records,
    );
    record.push(
        "full run arcs shared",
        "handles",
        None,
        run.arcs_shared as f64,
    );
    record.push(
        "full run bytes encoded",
        "MB",
        None,
        run.bytes_encoded as f64 / 1e6,
    );
    record.push(
        "full run digest bytes hashed",
        "MB",
        None,
        run.digest_bytes_hashed as f64 / 1e6,
    );

    assert_eq!(
        seeding.records_cloned, 0,
        "the storage-read path must clone zero records"
    );
    assert_eq!(seeding.arcs_shared as usize, REPLICAS);
    assert!(
        wall_native <= wall_zero,
        "a columnar file must digest at least as fast as zero-copy rows: \
         {wall_native:.4} s against {wall_zero:.4} s"
    );
    // Best of three each; the tenth is for a shared runner's timing
    // noise, which is not a regression.
    for (shape, _, (wall_replaced, wall_fused)) in &aggregate_group {
        assert!(
            *wall_fused <= 1.1 * wall_replaced,
            "folding the runs in place must not be slower than joining them and building \
             bags on the {shape} shape: {wall_fused:.4} s against {wall_replaced:.4} s"
        );
    }
    for (shape, (wall_split, wall_scan, _)) in &ingest {
        assert!(
            *wall_scan <= 1.1 * wall_split,
            "the one-pass scan must not be slower than split-then-classify on the {shape} \
             shape: {wall_scan:.4} s against {wall_split:.4} s"
        );
    }
    for (shape, (wall_copying, wall_in_place)) in &map_side {
        assert!(
            *wall_in_place <= 1.1 * wall_copying,
            "reading a split in place must not be slower than copying it on the {shape} \
             shape: {wall_in_place:.4} s against {wall_copying:.4} s"
        );
    }
    assert!(
        materialized_per_input(run.rows_materialized) <= output_records / input_records,
        "a columnar GROUP → aggregate job builds no row but its output: {} rows for {} \
         replicas x {} output rows",
        run.rows_materialized,
        replicas,
        output_records
    );

    record.finish();
}
