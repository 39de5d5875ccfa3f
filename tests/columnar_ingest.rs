//! The form an input file is stored in — records, or the one columnar
//! batch `cbft` parses CSV into — changes no count of the work the data
//! plane does: what a map task charges at its output boundary (records
//! cloned) and at its verification points (bytes encoded and hashed) is
//! what it charges over a record file, on either plane, under a combiner
//! and under a commission fault.
//!
//! The counts the form does move are of the copies made to read it, each
//! by a fixed rule. `batches_built` / `batch_rows` count the batches a
//! task allocates to lay its input out: a columnar task reads a columnar
//! file's window in place and builds none (a corrupt one materializes its
//! window, once), and converts a record file's window, once per map task;
//! a reduce task of an aggregate-only GROUP folds its partition's runs in
//! place and builds one batch, its output of one row per group.
//! `rows_materialized`: on the default plane a run without a combiner,
//! fault or no fault, builds no row at all — publication hands over the
//! winning replica's file — until its output is `peek`ed or read through
//! the outcome's record view, and exactly the published rows then; a task
//! off the columnar arm (the row plane, a combiner) builds a row image of
//! a columnar window to read it.
//!
//! The counters are process-global, so this file holds one test: nothing
//! else runs in its process.

use clusterbft_repro::core::{
    Behavior, Cluster, ClusterBft, ExecutorConfig, FileData, JobConfig, ParallelExecutor,
    Replication,
};
use clusterbft_repro::dataflow::{Batch, Record, Value};
use clusterbft_repro::mapreduce::data_plane::{self, DataPlaneSnapshot};

const SCRIPT: &str = "
    edges = LOAD 'edges' AS (user, follower);
    clean = FILTER edges BY follower IS NOT NULL;
    grp = GROUP clean BY user;
    cnt = FOREACH grp GENERATE group, COUNT(clean) AS n;
    STORE cnt INTO 'counts';
";

fn edges() -> Vec<Record> {
    (0..3000i64)
        .map(|i| {
            let follower = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            Record::new(vec![Value::Int(i * 7 % 97), follower])
        })
        .collect()
}

/// The sim-domain counters (functions of the deterministic simulation)
/// and the rows built out of batches, accumulated over `run`.
fn counted<T>(run: impl FnOnce() -> T) -> (T, DataPlaneSnapshot) {
    let before = data_plane::snapshot();
    let out = run();
    let mut delta = data_plane::snapshot().since(&before);
    // Host scheduling, not the data plane.
    (delta.tasks_dispatched, delta.tasks_stolen) = (0, 0);
    delta.pool_queue_peak = 0;
    (out, delta)
}

#[test]
fn a_columnar_input_file_moves_no_data_plane_count() {
    let forms = || -> [(&str, FileData); 2] {
        [
            ("record", edges().into()),
            (
                "columnar",
                Batch::from_records(&edges()).expect("one arity").into(),
            ),
        ]
    };

    for batch_records in [0usize, 256] {
        for fault in [None, Some(Behavior::Commission { probability: 1.0 })] {
            let runs = forms().map(|(form, input)| {
                counted(|| {
                    let mut exec = ParallelExecutor::new(ExecutorConfig {
                        threads: 2,
                        batch_records,
                        map_split_records: 700,
                        expected_failures: 1,
                        escalation: vec![2, 3],
                        master_seed: 2013,
                        ..ExecutorConfig::default()
                    });
                    exec.load_input("edges", input).unwrap();
                    if let Some(behavior) = fault {
                        exec.inject_fault(0, behavior);
                    }
                    let outcome = exec.run_script(SCRIPT).unwrap();
                    assert!(outcome.verified(), "{form}");
                    outcome
                })
            });
            let [(rows_outcome, mut rows), (cols_outcome, mut cols)] = runs;
            let ctx = format!("executor, batch_records {batch_records}, fault {fault:?}");
            // From a record file no row is built out of a batch: a
            // corrupt replica's tasks run the columnar arm like a faithful
            // one's, and publication is the winning replica's file. The
            // record view builds the published rows, once, when asked.
            assert_eq!(rows.rows_materialized, 0, "{ctx}");
            let (published, view) = counted(|| rows_outcome.output("counts").unwrap().len() as u64);
            let expected = if batch_records == 0 { 0 } else { published };
            assert_eq!(view.rows_materialized, expected, "{ctx}");
            assert_eq!(rows_outcome, cols_outcome, "{ctx}");
            // A columnar file adds, only off the columnar arm, one row
            // image of its window per task that reads rows: every task
            // of the row plane, and none of the columnar plane, whatever
            // its fate.
            let images = cols.rows_materialized - rows.rows_materialized;
            (rows.rows_materialized, cols.rows_materialized) = (0, 0);
            // A record file adds, only on the columnar arm, one batch
            // per map task: its window, converted. A columnar file's
            // window is read in place (a corrupt task's copy of it, and
            // every reduce task's layout of its partition, are built
            // from either form).
            let converted = (
                rows.batches_built - cols.batches_built,
                rows.batch_rows - cols.batch_rows,
            );
            (rows.batches_built, rows.batch_rows) = (cols.batches_built, cols.batch_rows);
            assert_eq!(rows, cols, "{ctx}");
            assert!(rows.bytes_encoded > 0, "{ctx}");
            let replicas: usize = rows_outcome.replicas_per_round().iter().sum();
            let (reading_rows, reading_cols) = match batch_records {
                0 => (replicas, 0),
                _ => (0, replicas),
            };
            assert_eq!(images, (reading_rows * edges().len()) as u64, "{ctx}");
            let map_tasks = reading_cols * edges().len().div_ceil(700);
            let expected = (map_tasks as u64, (reading_cols * edges().len()) as u64);
            assert_eq!(converted, expected, "{ctx}");
            if batch_records == 0 {
                assert_eq!((cols.batches_built, cols.batch_rows), (0, 0), "{ctx}");
            } else if fault.is_none() {
                // Each reduce task of the aggregate-only GROUP folds its
                // runs in place and builds one batch — its output, a row
                // per group — and every key is one task's.
                let reduce_tasks = (replicas * ExecutorConfig::default().reduce_tasks) as u64;
                assert_eq!(cols.groups_unordered, reduce_tasks, "{ctx}");
                assert_eq!(cols.batches_built, reduce_tasks, "{ctx}");
                assert_eq!(cols.batch_rows, replicas as u64 * published, "{ctx}");
            }
            // `records_cloned` counts the row plane's map tasks alone,
            // fault or no fault: each copies the records it kept borrowed
            // at its output boundary (a corrupt one owns its corrupted
            // split and charges none). The columnar plane hands its
            // partitions over as selections of the batch they were read
            // from and clones nothing, and publication copies nothing on
            // either. The record view of a record file is the copy, when
            // asked.
            if batch_records == 0 {
                assert!(rows.records_cloned > 0, "{ctx}");
                assert_eq!(view.records_cloned, published, "{ctx}");
            } else {
                assert_eq!(rows.records_cloned, 0, "{ctx}");
                assert_eq!(view.records_cloned, 0, "{ctx}");
            }
        }
    }

    // The sequential pipeline under a combiner: every map task of the
    // combinable job takes the row arm, whatever the file's form.
    let runs = forms().map(|(form, input)| {
        counted(|| {
            let cluster = Cluster::builder().nodes(8).seed(42).build();
            let config = JobConfig::builder()
                .expected_failures(1)
                .replication(Replication::Optimistic)
                .combiners(true)
                .build();
            let mut cbft = ClusterBft::new(cluster, config);
            cbft.load_input("edges", input).unwrap();
            let outcome = cbft.submit_script(SCRIPT).unwrap();
            assert!(outcome.verified(), "{form}");
            let counts = cbft.cluster().storage().peek("counts").unwrap().to_vec();
            (format!("{outcome}"), counts)
        })
    });
    let [(rows_report, mut rows), (cols_report, mut cols)] = runs;
    assert_eq!(rows_report, cols_report, "combiner");
    assert_eq!(
        rows.rows_materialized, 0,
        "a combined job's output is records"
    );
    assert_eq!(
        cols.rows_materialized - rows.rows_materialized,
        2 * edges().len() as u64,
        "each of the two replicas reads a row image of the file"
    );
    (rows.rows_materialized, cols.rows_materialized) = (0, 0);
    assert_eq!(rows, cols, "combiner");
}
