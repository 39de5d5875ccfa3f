//! Property-based tests on the core data structures and invariants.

use std::collections::{BTreeSet, HashMap};

use clusterbft_repro::core::{FaultAnalyzer, NodeId, Record, SuspicionTable, Value};
use clusterbft_repro::dataflow::analyze::{analyze_plan, eligible_under, mark, Adversary};
use clusterbft_repro::dataflow::interp::{
    group_records, join_records, order_records, project_record,
};
use clusterbft_repro::dataflow::{Expr, PlanBuilder, Script};
use clusterbft_repro::digest::{quorum_digest, ChunkedDigest, Digest};
use proptest::prelude::*;

// --- digest invariants -----------------------------------------------------

fn record_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..64)
}

proptest! {
    /// Identical record streams produce identical chunked summaries at any
    /// granularity; corrupting any single record changes the summary.
    #[test]
    fn chunked_digest_detects_any_single_record_change(
        records in proptest::collection::vec(record_strategy(), 1..60),
        granularity in 1usize..20,
        victim in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let summarize = |recs: &[Vec<u8>]| {
            let mut cd = ChunkedDigest::new(granularity);
            for r in recs {
                cd.append(r);
            }
            cd.finish()
        };
        let a = summarize(&records);
        let b = summarize(&records);
        prop_assert!(a.compare(&b).is_match());
        prop_assert_eq!(a.combined(), b.combined());

        let mut corrupted = records.clone();
        let i = victim.index(corrupted.len());
        if corrupted[i].is_empty() {
            corrupted[i].push(1);
        } else {
            let j = corrupted[i].len() - 1;
            corrupted[i][j] ^= 1 << flip_bit;
        }
        let c = summarize(&corrupted);
        prop_assert!(!a.compare(&c).is_match(), "corruption must be visible");
        prop_assert_ne!(a.combined(), c.combined());
    }

    /// SHA-256 incremental updates match one-shot hashing at arbitrary
    /// split points.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in any::<proptest::sample::Index>(),
    ) {
        let whole = Digest::of(&data);
        let s = split.index(data.len() + 1);
        let mut h = clusterbft_repro::digest::Sha256::new();
        h.update(&data[..s]);
        h.update(&data[s..]);
        prop_assert_eq!(whole, h.finish());
    }

    /// `quorum_digest` returns a digest only when at least f+1 replicas
    /// agree, and the result is one of the inputs.
    #[test]
    fn quorum_digest_respects_threshold(
        payloads in proptest::collection::vec(0u8..4, 1..12),
        f in 0usize..4,
    ) {
        let digests: Vec<Digest> =
            payloads.iter().map(|p| Digest::of(&[*p])).collect();
        let result = quorum_digest(&digests, f);
        let mut counts: HashMap<Digest, usize> = HashMap::new();
        for d in &digests {
            *counts.entry(*d).or_default() += 1;
        }
        match result {
            Some(d) => prop_assert!(counts[&d] > f),
            None => prop_assert!(counts.values().all(|&c| c < f + 1)),
        }
    }
}

// --- value / record invariants ----------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,8}".prop_map(Value::str),
    ]
}

fn flat_record_strategy() -> impl Strategy<Value = Record> {
    proptest::collection::vec(value_strategy(), 0..5).prop_map(Record::new)
}

/// Values including nested bags, the GROUP-produced shape the digest path
/// must keep injective.
fn nested_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        value_strategy(),
        proptest::collection::vec(
            proptest::collection::vec(value_strategy(), 0..3).prop_map(Record::new),
            0..3
        )
        .prop_map(Value::Bag),
    ]
}

proptest! {
    /// Canonical encoding is injective: distinct records encode
    /// differently, equal records identically.
    #[test]
    fn canonical_encoding_is_injective(
        a in flat_record_strategy(),
        b in flat_record_strategy(),
    ) {
        let ea = a.to_canonical_bytes();
        let eb = b.to_canonical_bytes();
        prop_assert_eq!(a == b, ea == eb);
    }

    /// Value-level injectivity, including nested bags: two values encode
    /// to the same bytes iff they are equal — the digest path's core
    /// soundness assumption.
    #[test]
    fn value_encoding_is_injective(
        a in nested_value_strategy(),
        b in nested_value_strategy(),
    ) {
        let ea = a.to_canonical_bytes();
        let eb = b.to_canonical_bytes();
        prop_assert_eq!(a == b, ea == eb);
    }

    /// The encode-into sibling appends exactly the bytes the owned
    /// encoding produces, for values and records alike — so hot paths can
    /// reuse one buffer without changing a single digest byte.
    #[test]
    fn encode_into_matches_owned_encoding(
        v in nested_value_strategy(),
        r in flat_record_strategy(),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = prefix.clone();
        v.write_canonical(&mut buf);
        prop_assert_eq!(&buf[prefix.len()..], v.to_canonical_bytes().as_slice());

        let mut buf = prefix.clone();
        r.write_canonical(&mut buf);
        prop_assert_eq!(&buf[..prefix.len()], prefix.as_slice(), "prefix untouched");
        prop_assert_eq!(&buf[prefix.len()..], r.to_canonical_bytes().as_slice());
    }

    /// Value ordering is a total order (antisymmetric + transitive on
    /// samples).
    #[test]
    fn value_order_is_consistent(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }

    /// Grouping preserves every record and orders keys canonically.
    #[test]
    fn group_records_is_a_partition(
        rows in proptest::collection::vec(
            (0i64..6, any::<i64>()), 0..40
        ),
    ) {
        let records: Vec<Record> = rows
            .iter()
            .map(|(k, v)| Record::new(vec![Value::Int(*k), Value::Int(*v)]))
            .collect();
        let grouped = group_records(&records, 0);
        let total: usize = grouped
            .iter()
            .map(|g| g.get(1).unwrap().as_bag().unwrap().len())
            .sum();
        prop_assert_eq!(total, records.len());
        let keys: Vec<&Value> = grouped.iter().map(|g| g.get(0).unwrap()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys strictly ordered");
    }

    /// Join output size equals the sum over keys of |left| x |right|,
    /// nulls excluded.
    #[test]
    fn join_size_is_product_of_matches(
        left in proptest::collection::vec(0i64..5, 0..20),
        right in proptest::collection::vec(0i64..5, 0..20),
    ) {
        let lrec: Vec<Record> =
            left.iter().map(|k| Record::new(vec![Value::Int(*k)])).collect();
        let rrec: Vec<Record> =
            right.iter().map(|k| Record::new(vec![Value::Int(*k)])).collect();
        let out = join_records(&lrec, 0, &rrec, 0);
        let expected: usize = (0..5)
            .map(|k| {
                left.iter().filter(|&&x| x == k).count()
                    * right.iter().filter(|&&x| x == k).count()
            })
            .sum();
        prop_assert_eq!(out.len(), expected);
    }

    /// Sorting is a permutation and respects the key order.
    #[test]
    fn order_records_sorts_and_preserves(
        rows in proptest::collection::vec(any::<i64>(), 0..40),
    ) {
        let records: Vec<Record> =
            rows.iter().map(|v| Record::new(vec![Value::Int(*v)])).collect();
        let sorted = order_records(
            &records,
            0,
            clusterbft_repro::dataflow::SortOrder::Asc,
        );
        prop_assert_eq!(sorted.len(), records.len());
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut a = records;
        let mut b = sorted;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}

// --- fault analyzer soundness ------------------------------------------------

proptest! {
    /// Whatever clusters the analyzer observes, as long as each observed
    /// cluster contains the true faulty node, the faulty node is never
    /// pruned out of the suspect sets, and D stays pairwise disjoint with
    /// |D| <= f.
    #[test]
    fn analyzer_never_loses_the_faulty_node(
        clusters in proptest::collection::vec(
            proptest::collection::btree_set(1usize..30, 1..8),
            1..20
        ),
        faulty in 100usize..103,
    ) {
        let mut fa = FaultAnalyzer::new(1);
        for c in &clusters {
            let mut cluster: BTreeSet<NodeId> =
                c.iter().map(|&n| NodeId(n)).collect();
            cluster.insert(NodeId(faulty)); // every faulty cluster contains it
            fa.observe_faulty_cluster(cluster);
            prop_assert!(fa.suspected_nodes().contains(&NodeId(faulty)));
            let d = fa.suspects();
            prop_assert!(d.len() <= 1);
            for i in 0..d.len() {
                for j in (i + 1)..d.len() {
                    prop_assert!(d[i].is_disjoint(&d[j]));
                }
            }
        }
    }

    /// With two faulty nodes (f = 2), both survive in the union of D ∪ O
    /// whenever every observed cluster contains at least one of them.
    #[test]
    fn analyzer_f2_suspects_cover_observed_faults(
        picks in proptest::collection::vec((any::<bool>(), proptest::collection::btree_set(1usize..40, 1..10)), 1..25),
    ) {
        let fa_nodes = [NodeId(100), NodeId(101)];
        let mut fa = FaultAnalyzer::new(2);
        for (which, extra) in &picks {
            let mut cluster: BTreeSet<NodeId> =
                extra.iter().map(|&n| NodeId(n)).collect();
            cluster.insert(fa_nodes[*which as usize]);
            fa.observe_faulty_cluster(cluster);
            prop_assert!(fa.suspects().len() <= 2, "|D| capped at f");
        }
        // Convergence is not guaranteed, but whenever |D| = 2, each set
        // holds exactly one of the true faults.
        if fa.converged() {
            let suspects = fa.suspected_nodes();
            let seen: Vec<bool> = picks.iter().map(|(w, _)| *w).collect();
            if seen.iter().any(|w| !*w) {
                prop_assert!(suspects.contains(&fa_nodes[0]) || !fa.converged());
            }
            if seen.iter().any(|w| *w) {
                prop_assert!(suspects.contains(&fa_nodes[1]) || !fa.converged());
            }
        }
    }
}

// --- suspicion table ----------------------------------------------------------

proptest! {
    /// Suspicion levels always stay in [0, 1] regardless of the
    /// record_jobs / record_faults interleaving.
    #[test]
    fn suspicion_levels_bounded(
        ops in proptest::collection::vec((any::<bool>(), 0usize..6), 0..60),
    ) {
        let mut t = SuspicionTable::new();
        for (is_fault, node) in ops {
            if is_fault {
                t.record_faults([NodeId(node)]);
            } else {
                t.record_jobs([NodeId(node)]);
            }
        }
        for n in 0..6 {
            let s = t.level(NodeId(n));
            prop_assert!((0.0..=1.0).contains(&s), "s = {s}");
        }
    }

    /// A recorded fault is never invisible: every node with at least one
    /// `record_faults` has a strictly positive suspicion level, whatever
    /// the interleaving with `record_jobs`. (Regression for the
    /// faults=1/jobs=0 state that `level()` rendered as 0.)
    #[test]
    fn suspicion_nonzero_after_any_fault(
        ops in proptest::collection::vec((any::<bool>(), 0usize..6), 1..60),
    ) {
        let mut t = SuspicionTable::new();
        let mut faulted: BTreeSet<usize> = BTreeSet::new();
        for (is_fault, node) in ops {
            if is_fault {
                t.record_faults([NodeId(node)]);
                faulted.insert(node);
            } else {
                t.record_jobs([NodeId(node)]);
            }
        }
        for &n in &faulted {
            let s = t.level(NodeId(n));
            prop_assert!(s > 0.0, "node {n} recorded a fault but s = {s}");
        }
    }
}

// --- marker function ------------------------------------------------------------

proptest! {
    /// The marker returns distinct, eligible vertices, never more than
    /// requested, on randomly shaped linear plans.
    #[test]
    fn marker_output_is_bounded_and_distinct(
        stages in 1usize..6,
        n in 0usize..8,
        input_size in 1u64..1_000_000,
    ) {
        let mut b = PlanBuilder::new();
        let mut tip = b.add_load("in", &["k", "v"]).unwrap();
        for s in 0..stages {
            tip = if s % 2 == 0 {
                b.add_group(tip, 0).unwrap()
            } else {
                b.add_project(tip, vec![(Expr::Col(0), format!("c{s}"))]).unwrap()
            };
        }
        b.add_store(tip, "out").unwrap();
        let plan = b.build().unwrap();
        let sizes = HashMap::from([("in".to_owned(), input_size)]);
        let analysis = analyze_plan(&plan, &sizes);
        for adversary in [Adversary::Weak, Adversary::Strong] {
            let marked = mark(&plan, &analysis, n, eligible_under(adversary));
            prop_assert!(marked.len() <= n);
            let set: BTreeSet<_> = marked.iter().collect();
            prop_assert_eq!(set.len(), marked.len(), "no duplicates");
        }
    }

    /// Levels increase strictly along every edge, and input ratios are
    /// non-negative.
    #[test]
    fn levels_monotone_along_edges(seed_cols in 1usize..4, stages in 1usize..5) {
        let mut b = PlanBuilder::new();
        let cols: Vec<String> = (0..seed_cols).map(|i| format!("c{i}")).collect();
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut tip = b.add_load("in", &refs).unwrap();
        for _ in 0..stages {
            tip = b.add_filter(tip, Expr::IntLit(1)).unwrap();
        }
        b.add_store(tip, "out").unwrap();
        let plan = b.build().unwrap();
        let analysis = analyze_plan(&plan, &HashMap::new());
        for v in plan.vertices() {
            prop_assert!(analysis.input_ratio(v.id()) >= 0.0);
            for &p in v.parents() {
                prop_assert!(analysis.level(v.id()) > analysis.level(p));
            }
        }
    }
}

// --- parser round-trip --------------------------------------------------------

proptest! {
    /// Any combination of generated filters parses and interprets without
    /// panicking (totality of expression evaluation).
    #[test]
    fn generated_filters_never_panic(
        threshold in any::<i32>(),
        use_and in any::<bool>(),
        rows in proptest::collection::vec((any::<i32>(), any::<i32>()), 0..30),
    ) {
        let op = if use_and { "AND" } else { "OR" };
        let negative = -(threshold as i64);
        let script = format!(
            "a = LOAD 'in' AS (x, y);
             b = FILTER a BY x > {threshold} {op} y < {negative} AND x IS NOT NULL;
             STORE b INTO 'out';"
        );
        let plan = Script::parse(&script).unwrap().into_plan();
        let records: Vec<Record> = rows
            .iter()
            .map(|(x, y)| Record::new(vec![Value::Int(*x as i64), Value::Int(*y as i64)]))
            .collect();
        let inputs = HashMap::from([("in".to_owned(), records)]);
        let result = clusterbft_repro::dataflow::interp::interpret(&plan, &inputs);
        prop_assert!(result.is_ok());
    }
}

// --- plan optimizer equivalence -----------------------------------------------

proptest! {
    /// Randomized filter/project chains: the optimizer never changes the
    /// interpreted result.
    #[test]
    fn optimizer_preserves_semantics(
        thresholds in proptest::collection::vec(-20i64..20, 1..5),
        tautology_mask in proptest::collection::vec(any::<bool>(), 1..5),
        rows in proptest::collection::vec((-30i64..30, -30i64..30), 0..40),
    ) {
        use clusterbft_repro::dataflow::optimize::optimize;

        let mut script = String::from("a0 = LOAD 'in' AS (x, y);\n");
        let mut prev = "a0".to_owned();
        for (i, t) in thresholds.iter().enumerate() {
            let alias = format!("a{}", i + 1);
            let tautology = *tautology_mask.get(i).copied().get_or_insert(false);
            if tautology {
                script.push_str(&format!("{alias} = FILTER {prev} BY 1 == 1 AND x > {t};\n"));
            } else {
                script.push_str(&format!("{alias} = FILTER {prev} BY x > {t};\n"));
            }
            prev = alias;
        }
        script.push_str(&format!(
            "g = GROUP {prev} BY x;\nc = FOREACH g GENERATE group, COUNT({prev}) AS n;\nSTORE c INTO 'out';"
        ));

        let plan = Script::parse(&script).unwrap().into_plan();
        let optimized = optimize(&plan);
        prop_assert!(optimized.len() <= plan.len());

        let records: Vec<Record> = rows
            .iter()
            .map(|(x, y)| Record::new(vec![Value::Int(*x), Value::Int(*y)]))
            .collect();
        let inputs = HashMap::from([("in".to_owned(), records)]);
        let a = clusterbft_repro::dataflow::interp::interpret(&plan, &inputs).unwrap();
        let b = clusterbft_repro::dataflow::interp::interpret(&optimized, &inputs).unwrap();
        prop_assert_eq!(a.output("out"), b.output("out"));
    }
}

// --- pinned regression cases --------------------------------------------------

/// The exact shrunk case recorded in `tests/properties.proptest-regressions`
/// (`threshold = 1, use_and = false, rows = []`), pinned as a plain test so
/// it is replayed verbatim on every run regardless of how the property
/// framework derives its cases. The script exercises the OR/AND/IS NOT NULL
/// precedence corner: `x > 1 OR y < -1 AND x IS NOT NULL` must parse with
/// AND binding tighter than OR, and interpret totally even on empty input.
#[test]
fn regression_filter_precedence_threshold_1_or_empty_rows() {
    let script = "a = LOAD 'in' AS (x, y);
         b = FILTER a BY x > 1 OR y < -1 AND x IS NOT NULL;
         STORE b INTO 'out';";
    let plan = Script::parse(script).unwrap().into_plan();
    let inputs = HashMap::from([("in".to_owned(), Vec::<Record>::new())]);
    let result = clusterbft_repro::dataflow::interp::interpret(&plan, &inputs);
    assert!(result.is_ok());

    // And with rows that hit every branch of the predicate, including nulls.
    let rows = vec![
        Record::new(vec![Value::Int(2), Value::Int(0)]), // x > 1
        Record::new(vec![Value::Int(0), Value::Int(-5)]), // y < -1 and x not null
        Record::new(vec![Value::Null, Value::Int(-5)]),  // y < -1 but x null
        Record::new(vec![Value::Int(0), Value::Int(0)]), // neither
    ];
    let inputs = HashMap::from([("in".to_owned(), rows)]);
    let result = clusterbft_repro::dataflow::interp::interpret(&plan, &inputs).unwrap();
    // AND binds tighter than OR: row 1 and row 2 pass, row 3 fails only
    // the conjunct's null guard, row 4 fails both disjuncts.
    assert_eq!(result.output("out").unwrap().len(), 2);
}

// --- metrics histogram invariants ------------------------------------------

use clusterbft_repro::metrics::{bucket_index, bucket_lower, bucket_upper, Histogram, BUCKETS};

fn fold(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Recording is order-independent and merging is associative: any way
    /// of splitting a value stream across histograms and merging them
    /// back yields the same state. This is what makes sim-domain
    /// histograms deterministic across thread counts.
    #[test]
    fn histogram_record_and_merge_are_associative(
        a in proptest::collection::vec(any::<u64>(), 0..80),
        b in proptest::collection::vec(any::<u64>(), 0..80),
        c in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        let whole = fold(&[a.clone(), b.clone(), c.clone()].concat());

        // (a + b) + c
        let mut left = fold(&a);
        left.merge(&fold(&b));
        left.merge(&fold(&c));
        // a + (b + c)
        let mut right_tail = fold(&b);
        right_tail.merge(&fold(&c));
        let mut right = fold(&a);
        right.merge(&right_tail);

        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(&right, &whole);

        // Reversed record order, interleaved differently.
        let mut rev: Vec<u64> = [c, b, a].concat();
        rev.reverse();
        prop_assert_eq!(&fold(&rev), &whole);
    }

    /// Every value lands in exactly the log₂ bucket that covers it:
    /// bucket 0 is {0}, bucket b covers [2^(b-1), 2^b - 1], and the
    /// per-bucket counts are exact (no sampling, no saturation).
    #[test]
    fn histogram_buckets_are_exact_log2(
        values in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let h = fold(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        for &v in &values {
            let b = bucket_index(v);
            prop_assert!(b < BUCKETS);
            prop_assert!(bucket_lower(b) <= v && v <= bucket_upper(b));
            if v > 0 {
                prop_assert_eq!(b, 64 - v.leading_zeros() as usize);
            }
        }
        for (b, &n) in h.buckets().iter().enumerate() {
            let expected = values.iter().filter(|&&v| bucket_index(v) == b).count() as u64;
            prop_assert_eq!(n, expected, "bucket {}", b);
        }
        let (p50, p90, p99) = h.p50_p90_p99();
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        for q in [p50, p90, p99] {
            prop_assert!((lo..=hi).contains(&q), "quantile {} outside [{}, {}]", q, lo, hi);
        }
        prop_assert!(p50 <= p90 && p90 <= p99);
    }
}

// --- columnar data plane & merkle digest trees ------------------------------

use clusterbft_repro::dataflow::batch::{
    eval_column, filter_batch, fnv1a, group_aggregate, group_batch, join_batch, order_batch, pick,
    project, project_batch, select, shuffle_buckets, shuffle_partitions, Selection,
    MAX_BYTE_BUCKETS,
};
use clusterbft_repro::dataflow::combiner::Combiner;
use clusterbft_repro::dataflow::{AggFunc, Batch, CmpOp, Column, EvalContext, SortOrder};
use clusterbft_repro::digest::{parent_level, MerkleTree};
use clusterbft_repro::mapreduce::{corrupt_batch, corrupt_record};

proptest! {
    /// The Merkle tree is a *derived* structure: for an arbitrary stream
    /// at arbitrary granularity, `combined()` still equals the pinned
    /// linear `sha256(a||b)` fold over the sealed chunk digests — the
    /// value quorums compare, unchanged by the tree — and `merkle_root()`
    /// equals the canonical tree rebuilt from those same chunk digests,
    /// level by level.
    #[test]
    fn merkle_summary_preserves_combined_digest_semantics(
        records in proptest::collection::vec(record_strategy(), 0..80),
        granularity in 1usize..16,
    ) {
        let mut cd = ChunkedDigest::new(granularity);
        for r in &records {
            cd.append(r);
        }
        let summary = cd.finish();

        let chunks = summary.chunks().to_vec();
        prop_assert!(!chunks.is_empty(), "even an empty stream seals one chunk");
        let expected_chunks = records.len().div_ceil(granularity).max(1);
        prop_assert_eq!(chunks.len(), expected_chunks);

        // Pinned combined-digest semantics: the historical linear fold.
        let mut combined = chunks[0];
        for c in &chunks[1..] {
            combined = combined.combine(c);
        }
        prop_assert_eq!(summary.combined(), combined);

        // The root is a pure function of the chunk digests.
        let tree = MerkleTree::build(chunks.clone());
        prop_assert_eq!(summary.merkle_root(), tree.root().unwrap());
        let mut level = chunks;
        while level.len() > 1 {
            level = parent_level(&level);
        }
        prop_assert_eq!(summary.merkle_root(), level[0]);
    }

    /// Corrupting a single record is localized by Merkle descent to a
    /// chunk/record window that contains the victim, and the window is
    /// exactly one chunk wide (one flipped leaf).
    #[test]
    fn merkle_localization_contains_the_corrupted_record(
        records in proptest::collection::vec(record_strategy(), 1..60),
        granularity in 1usize..12,
        victim in any::<proptest::sample::Index>(),
    ) {
        let summarize = |recs: &[Vec<u8>]| {
            let mut cd = ChunkedDigest::new(granularity);
            for r in recs {
                cd.append(r);
            }
            cd.finish()
        };
        let good = summarize(&records);
        let mut corrupted = records.clone();
        let i = victim.index(corrupted.len());
        corrupted[i].push(0xFF);
        let bad = summarize(&corrupted);

        let range = good.localize(&bad).expect("streams diverge");
        let chunk = i / granularity;
        prop_assert_eq!(range.first_chunk, chunk);
        prop_assert_eq!(range.last_chunk, chunk);
        prop_assert!(
            range.first_record <= i as u64 && (i as u64) <= range.last_record,
            "record {} outside window {}..={}", i, range.first_record, range.last_record
        );
        prop_assert!(
            range.last_record - range.first_record < granularity as u64,
            "window wider than one chunk"
        );
        prop_assert!(good.localize(&good).is_none(), "agreement localizes to nothing");
    }

    /// Row → batch → row is the identity for arbitrary uniform-arity
    /// record sets, nulls included, and the canonical per-row encodings
    /// survive the trip — the invariant that lets the batched data plane
    /// digest and partition without materializing rows.
    #[test]
    fn batch_roundtrip_is_identity_including_nulls(
        arity in 1usize..6,
        n_rows in 0usize..40,
        seed_values in proptest::collection::vec(value_strategy(), 1..240),
    ) {
        let rows = uniform_rows(arity, n_rows, &seed_values);
        let Some(batch) = Batch::from_records(&rows) else {
            // from_records only declines ragged input; uniform arity with
            // at least one row must convert.
            prop_assert!(rows.is_empty());
            return;
        };
        prop_assert_eq!(batch.len(), rows.len());
        let back = batch.to_records();
        prop_assert_eq!(&back, &rows);
        prop_assert_eq!(encode_batch(&batch), encode_rows(&rows));
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(batch.row(r), row.clone());
        }
    }
}

/// `n_rows` records of `arity` fields, cycling through `seed_values`.
fn uniform_rows(arity: usize, n_rows: usize, seed_values: &[Value]) -> Vec<Record> {
    (0..n_rows)
        .map(|r| {
            (0..arity)
                .map(|c| seed_values[(r * arity + c) % seed_values.len()].clone())
                .collect()
        })
        .collect()
}

/// Values from a small domain, so random rows repeat keys (and null keys).
fn small_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-2i64..3).prop_map(Value::Int),
        "[ab]{0,2}".prop_map(Value::str),
    ]
}

fn encode_rows(rows: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        r.write_canonical(&mut out);
    }
    out
}

fn encode_batch(batch: &Batch) -> Vec<u8> {
    let mut out = Vec::new();
    for r in 0..batch.len() {
        batch.write_row_canonical(r, &mut out);
    }
    out
}

fn filter_rows(rows: &[Record], predicate: &Expr) -> Vec<Record> {
    rows.iter()
        .filter(|r| predicate.eval(&EvalContext::new(r)).is_truthy())
        .cloned()
        .collect()
}

const AGG_FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

/// The column layouts a kernel can meet, as [`layout_of`] names them.
const LAYOUTS: [&str; 8] = [
    "int",
    "int+null",
    "all-null",
    "str",
    "str+null",
    "mixed",
    "bags as values",
    "nested bags",
];

fn layout_of(column: &Column) -> &'static str {
    match column {
        Column::Int { validity: None, .. } => "int",
        Column::Int {
            validity: Some(m), ..
        } if m.contains(&true) => "int+null",
        Column::Int { .. } => "all-null",
        Column::Str { validity: None, .. } => "str",
        Column::Str { .. } => "str+null",
        Column::Mixed(values) if values.iter().any(|v| v.as_bag().is_some()) => "bags as values",
        Column::Mixed(_) => "mixed",
        Column::Bag { .. } => "nested bags",
    }
}

/// A column of `n >= 2` rows in `layout` (one of [`LAYOUTS`]), whatever the
/// seed: cells come from a small domain, so rows tie; row `r` repeats row
/// `r % period`; and rows 0 and 1 hold the cells that force the layout (a
/// null and a non-null, an integer and a string).
fn layout_column(layout: &str, n: usize, period: usize, seed: u64) -> Column {
    let cell = |r: usize| {
        let r = r % period;
        let h = seed
            .wrapping_add(r as u64 * 7)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 33;
        let int = Value::Int((h % 4) as i64 - 1);
        let string = Value::str(["", "a", "b"][(h % 3) as usize]);
        let member = |m: u64| Record::new(vec![Value::Int(((h >> 3) + m) as i64 % 3), Value::Null]);
        match (layout, r, h % 4) {
            ("all-null", ..) | ("int+null" | "str+null", 0, _) => Value::Null,
            ("int", ..) | ("int+null", 1, _) | ("mixed", 0, _) => int,
            ("str", ..) | ("str+null" | "mixed", 1, _) => string,
            ("int+null" | "str+null" | "mixed", _, 0) => Value::Null,
            ("int+null", ..) | ("mixed", _, 1) => int,
            ("str+null" | "mixed", ..) => string,
            _ => Value::Bag((0..h % 3).map(member).collect()),
        }
    };
    let values: Vec<Value> = (0..n).map(cell).collect();
    let column = if layout == "nested bags" {
        let bags: Vec<&[Record]> = values.iter().map(|v| v.as_bag().expect("a bag")).collect();
        let ends = bags.iter().scan(0, |end, bag| {
            *end += bag.len();
            Some(*end)
        });
        Column::Bag {
            offsets: [0].into_iter().chain(ends).collect(),
            rows: Box::new(Batch::from_records(&bags.concat()).expect("members of arity 2")),
        }
    } else {
        Column::from_values(values)
    };
    assert_eq!(layout_of(&column), layout, "seed {seed}");
    column
}

/// Runs `check` on batches of `n` rows over every layout alone (arity 1),
/// every pair of layouts — the first column the sort key or the
/// tie-break of the other — and every pair followed by a third and a
/// fourth column (each layout in each place as the pairs go by), where a
/// chain of two or more tie-break columns refines runs the one before
/// left tied; so that every arm of every kernel is reached in every case
/// rather than by luck. `duplicates` makes every row a copy of another,
/// and ties outlast the last column.
fn for_every_layout_pair(
    n: usize,
    duplicates: bool,
    seed: u64,
    mut check: impl FnMut(&Batch, &str),
) {
    let period = if duplicates { n / 2 + 1 } else { n };
    let column = |layout: &str, place: u32| {
        layout_column(
            layout,
            n,
            period,
            seed.rotate_left(17 * place) ^ u64::from(place),
        )
    };
    for (i, first) in LAYOUTS.into_iter().enumerate() {
        check(&Batch::from_columns(vec![column(first, 0)], n), first);
        for (j, second) in LAYOUTS.into_iter().enumerate() {
            let (third, fourth) = (LAYOUTS[(i + j) % 8], LAYOUTS[(i + 3 * j + 5) % 8]);
            let mut columns = vec![column(first, 0), column(second, 1)];
            check(
                &Batch::from_columns(columns.clone(), n),
                &format!("{first} | {second}"),
            );
            columns.extend([column(third, 2), column(fourth, 3)]);
            check(
                &Batch::from_columns(columns, n),
                &format!("{first} | {second} | {third} | {fourth}"),
            );
        }
    }
}

/// Every row of each batch: the selections that make whole batches the
/// runs the run-reading kernels (`Batch::concat`, `group_aggregate`) take.
fn every_row(batches: &[Batch]) -> Vec<Selection> {
    batches
        .iter()
        .map(|b| Selection::Range(0..b.len()))
        .collect()
}

/// `group_batch` materializes to exactly `group_records` and encodes to
/// the same canonical bytes without materializing.
fn assert_group_batch_is_group_records(batch: &Batch, rows: &[Record], key: usize, ctx: &str) {
    let expected = group_records(rows, key);
    let grouped = group_batch(batch, key);
    assert_eq!(grouped.len(), expected.len(), "{ctx}, key {key}");
    assert_eq!(grouped.to_records(), expected, "{ctx}, key {key}");
    let bytes = encode_rows(&expected);
    assert_eq!(
        grouped.canonical_bytes(),
        bytes.len() as u64,
        "{ctx}, key {key}"
    );
    assert_eq!(encode_batch(&grouped), bytes, "{ctx}, key {key}");
}

/// `order_batch` equals `order_records` record for record, both ways.
fn assert_order_batch_is_order_records(batch: &Batch, rows: &[Record], key: usize, ctx: &str) {
    for order in [SortOrder::Asc, SortOrder::Desc] {
        assert_eq!(
            order_batch(batch, key, order).to_records(),
            order_records(rows, key, order),
            "{ctx}, key {key} {order:?}"
        );
    }
}

proptest! {
    /// The nested bag layout is indistinguishable from the rows it stands
    /// for: `group_batch` materializes to exactly `group_records` (null,
    /// duplicate and out-of-range keys included) and encodes to the same
    /// canonical bytes without materializing; `order_batch` over the same
    /// rows is `order_records`. Random rows of up to four columns from a
    /// small domain, so tie-break chains run to the last column.
    #[test]
    fn group_batch_matches_group_records_and_their_encoding(
        arity in 1usize..5,
        n_rows in 0usize..40,
        key in 0usize..6,
        seed_values in proptest::collection::vec(small_value_strategy(), 1..60),
    ) {
        let rows = uniform_rows(arity, n_rows, &seed_values);
        let batch = Batch::from_records(&rows).expect("uniform arity");
        assert_group_batch_is_group_records(&batch, &rows, key, "random rows");
        assert_order_batch_is_order_records(&batch, &rows, key, "random rows");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same two equalities with coverage by layout rather than by
    /// luck: over every pair of column layouts (nullable and all-null
    /// `Int`, `Str`, `Mixed`, bags as values and nested, each as key and as
    /// tie-break) alone and ahead of two more tie-break columns, duplicate
    /// rows, arity 1 and an out-of-range key.
    #[test]
    fn group_and_order_batch_match_the_row_kernels_on_every_layout(
        n in 2usize..20,
        duplicates in any::<bool>(),
        seed in any::<u64>(),
    ) {
        for_every_layout_pair(n, duplicates, seed, |batch, ctx| {
            let rows = batch.to_records();
            for key in 0..=batch.arity() {
                assert_group_batch_is_group_records(batch, &rows, key, ctx);
                assert_order_batch_is_order_records(batch, &rows, key, ctx);
            }
        });
    }

    /// The fused aggregate kernel against the bag it replaced: over the
    /// rows of every layout pair cut into one to five runs at random
    /// points (empty runs among them, and a run whose key column took
    /// another layout than its neighbours': a typed stretch of a `Mixed`
    /// column, an unmasked one of a masked column), for every key up to
    /// one past the arity and an all-algebraic generate list in a seeded
    /// order — `group` repeated or absent, the five aggregates over
    /// integer, string, null and past-the-arity fields, `COUNT` with no
    /// field — `group_aggregate` over the runs in place builds, column
    /// layouts included, the batch `project_batch` builds over
    /// `group_batch` of the joined runs.
    #[test]
    fn grouping_by_key_alone_changes_nothing_an_aggregate_can_read(
        n in 2usize..20,
        duplicates in any::<bool>(),
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..5),
    ) {
        let mut generates = vec![Expr::Col(0), Expr::Agg { func: AggFunc::Count, bag_col: 1, field: None }];
        generates.extend(AGG_FUNCS.iter().flat_map(|&func| {
            (0..=4).map(move |field| Expr::Agg { func, bag_col: 1, field: Some(field) })
        }));
        // A seeded order, and a seeded sub-list of it with `group` twice,
        // once or not at all.
        generates.sort_by_key(|e| fnv1a(format!("{seed}{e:?}").as_bytes()));
        let some = |keep: u64| -> Vec<Expr> {
            let picked = |e: &&Expr| fnv1a(format!("{e:?}{seed}").as_bytes()) % 3 < keep;
            let group = (seed % 3) as usize;
            generates.iter().filter(picked).chain(&vec![Expr::Col(0); group][..]).cloned().collect()
        };
        for_every_layout_pair(n, duplicates, seed, |batch, ctx| {
            let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut.index(n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let rows = batch.to_records();
            let run = |w: &[usize]| Batch::from_records(&rows[w[0]..w[1]]).expect("uniform arity");
            let runs: Vec<Batch> = cuts.windows(2).map(run).collect();
            let all = every_row(&runs);
            let runs: Vec<(&Batch, &Selection)> = runs.iter().zip(&all).collect();
            let joined = Batch::concat(&runs).expect("one arity");
            assert_eq!(joined.to_records(), rows, "{ctx}: the runs hold the rows");
            for key in 0..=batch.arity() {
                let grouped = group_batch(&joined, key);
                for generates in [generates.clone(), some(1), some(2)] {
                    let plan = Combiner::for_group_projection(key, &generates).expect("all algebraic");
                    assert_eq!(
                        group_aggregate(&runs, &plan),
                        project_batch(&grouped, &generates),
                        "{ctx}, key {key}, cuts {cuts:?}, generates {generates:?}"
                    );
                }
            }
        });
    }
}

/// The edges of the fused kernel's folds and of its hashed keys: keys and
/// values at `i64::MIN` / `MAX` (a wrapping `SUM`, a truncating `AVG`,
/// `MIN` / `MAX` null where a group holds no integer), enough distinct
/// keys that the table grows more than once, and a non-algebraic generate
/// list, which has no plan.
#[test]
fn group_aggregate_matches_the_bag_pipeline_at_the_integer_edges() {
    let agg = |func, field| Expr::Agg {
        func,
        bag_col: 1,
        field,
    };
    let generates = vec![
        agg(AggFunc::Sum, Some(1)),
        agg(AggFunc::Avg, Some(1)),
        Expr::Col(0),
        agg(AggFunc::Min, Some(1)),
        agg(AggFunc::Max, Some(1)),
        agg(AggFunc::Count, Some(1)),
        agg(AggFunc::Avg, Some(0)),
    ];
    let edge = [i64::MIN, i64::MAX, -1, 0, 1, i64::MAX - 1, i64::MIN + 1];
    let rows: Vec<Record> = (0..6000i64)
        .map(|i| {
            let key = match i % 5 {
                0 => edge[(i / 5 % 7) as usize],
                _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64) % 2500,
            };
            let value = match i % 11 {
                0 => Value::Null,
                1 => Value::str("text"),
                k => Value::Int(edge[(k % 7) as usize].wrapping_sub(i % 3)),
            };
            Record::new(vec![Value::Int(key), value])
        })
        .collect();
    let plan = Combiner::for_group_projection(0, &generates).expect("all algebraic");
    for run_rows in [6000, 1500, 7] {
        let runs: Vec<Batch> = rows
            .chunks(run_rows)
            .map(|run| Batch::from_records(run).expect("uniform arity"))
            .collect();
        let all = every_row(&runs);
        let runs: Vec<(&Batch, &Selection)> = runs.iter().zip(&all).collect();
        let joined = Batch::concat(&runs).expect("one arity");
        let expected = project_batch(&group_batch(&joined, 0), &generates);
        assert!(
            expected.len() > 2048,
            "the table grows twice: {} groups",
            expected.len()
        );
        assert_eq!(
            group_aggregate(&runs, &plan),
            expected,
            "{run_rows} rows a run"
        );
        // The same through the row kernels, to the record.
        let by_rows: Vec<Record> = group_records(&rows, 0)
            .iter()
            .map(|group| project_record(group, &generates))
            .collect();
        assert_eq!(expected.to_records(), by_rows);
    }
    assert_eq!(group_aggregate(&[], &plan).len(), 0);
    assert_eq!(group_aggregate(&[], &plan).arity(), generates.len());
    let no_field = [agg(AggFunc::Sum, None)];
    assert!(Combiner::for_group_projection(0, &no_field).is_none());
    assert!(Combiner::for_group_projection(0, &[Expr::Col(1)]).is_none());
}

proptest! {
    /// Every aggregate over a nested bag column equals row-wise
    /// `Expr::eval` on the materialized bags: valid, all-null, string and
    /// past-the-arity fields, and no field at all.
    #[test]
    fn bag_aggregates_match_row_eval(
        arity in 1usize..4,
        n_rows in 0usize..40,
        key in 0usize..4,
        seed_values in proptest::collection::vec(small_value_strategy(), 1..60),
    ) {
        let rows = uniform_rows(arity, n_rows, &seed_values);
        let grouped_rows = group_records(&rows, key);
        let grouped = group_batch(&Batch::from_records(&rows).expect("uniform arity"), key);
        let fields = (0..=arity).map(Some).chain([None]);
        for (func, field) in AGG_FUNCS.iter().flat_map(|f| fields.clone().map(move |x| (*f, x))) {
            let e = Expr::Agg { func, bag_col: 1, field };
            let expected: Vec<Record> = grouped_rows
                .iter()
                .map(|r| Record::new(vec![e.eval(&EvalContext::new(r))]))
                .collect();
            let col = eval_column(&e, &grouped, &Selection::Range(0..grouped.len()));
            let got = Batch::from_columns(vec![col], grouped.len()).to_records();
            prop_assert_eq!(got, expected, "{:?} field {:?}", func, field);
        }
    }

    /// The per-record kernels treat a batch holding a bag column like the
    /// rows it stands for.
    #[test]
    fn kernels_over_bag_columns_match_row_kernels(
        arity in 1usize..4,
        n_rows in 1usize..40,
        key in 0usize..3,
        min_count in 0i64..4,
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..12),
        cut in any::<proptest::sample::Index>(),
        seed_values in proptest::collection::vec(small_value_strategy(), 1..60),
    ) {
        let rows = uniform_rows(arity, n_rows, &seed_values);
        let grouped_rows = group_records(&rows, key);
        let grouped = group_batch(&Batch::from_records(&rows).expect("uniform arity"), key);

        let count = Expr::Agg { func: AggFunc::Count, bag_col: 1, field: None };
        let predicate = Expr::cmp(CmpOp::Ge, count, Expr::IntLit(min_count));
        prop_assert_eq!(
            filter_batch(&grouped, &predicate).to_records(),
            filter_rows(&grouped_rows, &predicate)
        );
        for sort_key in 0..2 {
            for order in [SortOrder::Asc, SortOrder::Desc] {
                prop_assert_eq!(
                    order_batch(&grouped, sort_key, order).to_records(),
                    order_records(&grouped_rows, sort_key, order)
                );
            }
        }
        let picks: Vec<usize> = picks.iter().map(|i| i.index(grouped_rows.len())).collect();
        let picked: Vec<Record> = picks.iter().map(|&i| grouped_rows[i].clone()).collect();
        prop_assert_eq!(grouped.gather(&picks).to_records(), picked);
        let n = cut.index(grouped_rows.len() + 1);
        let mut live = Selection::Range(0..grouped.len());
        live.truncate(n);
        let truncated = grouped.gather(&live.map(|_, row| row));
        prop_assert_eq!(&truncated.to_records(), &grouped_rows[..n].to_vec());
        prop_assert_eq!(encode_batch(&truncated), encode_rows(&grouped_rows[..n]));
    }

    /// `Batch::concat` is indistinguishable from converting all the rows
    /// at once, whatever layouts the runs chose: each run's column is
    /// drawn from one kind — integers, strings, all null, either with
    /// nulls mixed in, both types mixed, bags as values — so runs of one
    /// column disagree (`Int` next to `Str`, masked next to unmasked, an
    /// all-null `Int` run next to strings, `Mixed`), and empty runs, which
    /// have lost their arity, sit among them. Also the identity the
    /// shuffle's `bytes_in` / `bytes_out` rest on: `canonical_bytes()` of
    /// any batch is the sum of its rows' `Record::byte_size`.
    #[test]
    fn batch_concat_matches_from_records_over_all_rows(
        arity in 1usize..4,
        runs in proptest::collection::vec(
            (0usize..6, proptest::collection::vec(0u8..7, 3..4), any::<u64>()),
            0..6,
        ),
    ) {
        // Column kinds: 0 integers, 1 strings, 2 all null, 3 / 4 the
        // first two with nulls, 5 both types and nulls, 6 bags.
        let cell = |kind: u8, n: u64| {
            let int = Value::Int((n % 5) as i64 - 2);
            let string = Value::str(["", "a", "bc"][(n % 3) as usize]);
            match (kind, n % 4) {
                (2, _) | (3..=5, 0) => Value::Null,
                (0 | 3, _) | (5, 1) => int,
                (1 | 4 | 5, _) => string,
                _ => Value::Bag(vec![Record::new(vec![int, Value::Null])]),
            }
        };
        let runs: Vec<Vec<Record>> = runs
            .iter()
            .map(|(len, kinds, seed)| {
                (0..*len as u64)
                    .map(|r| {
                        (0..arity)
                            .map(|c| {
                                let n = seed.wrapping_mul(31).wrapping_add(r * 7 + c as u64);
                                cell(kinds[c], n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let all: Vec<Record> = runs.concat();
        let batches: Vec<Batch> = runs
            .iter()
            .map(|rows| Batch::from_records(rows).expect("uniform arity"))
            .collect();
        for (b, rows) in batches.iter().zip(&runs) {
            let bytes: u64 = rows.iter().map(Record::byte_size).sum();
            prop_assert_eq!(b.canonical_bytes(), bytes);
        }
        let whole = every_row(&batches);
        let joined = Batch::concat(&batches.iter().zip(&whole).collect::<Vec<_>>()).expect("one arity");
        let whole = Batch::from_records(&all).expect("uniform arity");
        prop_assert_eq!(joined.len(), all.len());
        prop_assert_eq!(&joined.to_records(), &all);
        prop_assert_eq!(encode_batch(&joined), encode_rows(&all));
        prop_assert_eq!(joined.canonical_bytes(), whole.canonical_bytes());
        prop_assert_eq!(
            joined.canonical_bytes(),
            all.iter().map(Record::byte_size).sum::<u64>()
        );
        for a in 0..all.len() {
            for b in 0..all.len() {
                prop_assert_eq!(joined.cmp_rows(a, b), all[a].cmp(&all[b]));
            }
        }
        // Runs that disagree on arity cannot be joined; empty ones do not count.
        if let Some(first) = all.first() {
            let wider: Record = first.fields().iter().cloned().chain([Value::Null]).collect();
            let ragged = [
                Batch::from_records(&all).expect("uniform arity"),
                Batch::from_records(&[]).expect("empty"),
                Batch::from_records(&[wider]).expect("one row"),
            ];
            let whole = every_row(&ragged);
            prop_assert!(Batch::concat(&ragged.iter().zip(&whole).collect::<Vec<_>>()).is_none());
        }
    }

    /// `join_batch` gathers exactly the rows `join_records` concatenates.
    #[test]
    fn join_batch_matches_join_records(
        left_arity in 1usize..4,
        right_arity in 1usize..4,
        n_left in 0usize..25,
        n_right in 0usize..25,
        left_key in 0usize..4,
        right_key in 0usize..4,
        seed_values in proptest::collection::vec(small_value_strategy(), 1..60),
    ) {
        let left = uniform_rows(left_arity, n_left, &seed_values);
        let right = uniform_rows(right_arity, n_right, &seed_values[seed_values.len() / 2..]);
        let joined = join_batch(
            &Batch::from_records(&left).expect("uniform arity"),
            left_key,
            &Batch::from_records(&right).expect("uniform arity"),
            right_key,
        );
        prop_assert_eq!(joined.to_records(), join_records(&left, left_key, &right, right_key));
    }

    /// The commission fault is the same fault on both planes:
    /// `corrupt_batch` over a batch is the batch `from_records` builds
    /// over the `corrupt_record`ed rows — rows, encodings, byte size and
    /// column layouts — whatever column 0 holds: integers (wrapping at
    /// `i64::MAX`) or strings, with or without nulls, nulls alone, mixed
    /// types, bags stored as values, no column at all, and for the batch
    /// of no rows. Over a `GROUP`'s output, whose nested bags
    /// `from_records` would flatten into values, the corrupted column
    /// alone takes that layout and the others are left as they were.
    #[test]
    fn corrupt_batch_equals_from_records_over_the_corrupted_rows(
        arity in 0usize..3,
        kinds in proptest::collection::vec(0u8..7, 2..3),
        len in 0usize..24,
        seed in any::<u64>(),
    ) {
        // Column kinds as in `batch_concat_matches_from_records_over_all_rows`.
        let rows: Vec<Record> = (0..len as u64)
            .map(|r| {
                (0..arity)
                    .map(|c| {
                        let n = seed.wrapping_add(r * 7 + c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                        let int = Value::Int([i64::MAX, -1, 0, 3][(n % 4) as usize]);
                        let string = Value::str(["", "a", "bc"][(n % 3) as usize]);
                        match (kinds[c], n % 4) {
                            (2, _) | (3..=5, 0) => Value::Null,
                            (0 | 3, _) | (5, 1) => int,
                            (1 | 4 | 5, _) => string,
                            (_, 1) => Value::Bag(vec![]),
                            _ => Value::Bag(vec![Record::new(vec![int, Value::Null])]),
                        }
                    })
                    .collect()
            })
            .collect();
        let flat = Batch::from_records(&rows).expect("uniform arity");
        let corrupted = |batch: &Batch| {
            let mut rows = batch.to_records();
            rows.iter_mut().for_each(corrupt_record);
            let expected = Batch::from_records(&rows).expect("uniform arity");
            let mut batch = batch.clone();
            corrupt_batch(&mut batch);
            (batch, expected, rows)
        };
        let (batch, expected, rows) = corrupted(&flat);
        assert_same_batch(&batch, &expected, &rows);
        if arity > 0 && len > 0 {
            // `[key, bag]`, and the nested bag column in front.
            let grouped = group_batch(&flat, 0);
            let bags_first = project_batch(&grouped, &[Expr::Col(1), Expr::Col(0)]);
            for nested in [grouped, bags_first] {
                let (batch, expected, rows) = corrupted(&nested);
                assert_batch_holds(&batch, &rows);
                prop_assert_eq!(batch.column(0), expected.column(0));
                prop_assert_eq!(batch.column(1), nested.column(1));
            }
        }
    }

    /// The layout rule, stated independently of the builder that applies
    /// it: a column is `Int` when every value is an integer or null
    /// (all-null included), `Str` when every value is a string or null
    /// and one is a string, `Mixed` otherwise; a typed column has a null
    /// mask exactly when it holds a null, zeros and empty ranges under it.
    /// A selection out of a column — `gather`, `select_rows` of a window,
    /// `filter_batch`, `truncate` — keeps the column's type and obeys the
    /// mask half of the rule: it has a mask exactly when it selected a null.
    #[test]
    fn column_layout_is_a_function_of_the_value_types(
        values in proptest::collection::vec(
            prop_oneof![
                small_value_strategy(),
                small_value_strategy(),
                Just(Value::Bag(vec![])),
            ],
            0..12,
        ),
        kind in 0u8..4,
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..12),
        cut in any::<proptest::sample::Index>(),
    ) {
        // Bias towards single-type columns: drop what the kind excludes.
        let values: Vec<Value> = values
            .into_iter()
            .filter(|v| match kind {
                0 => !matches!(v, Value::Str(_) | Value::Bag(_)),
                1 => !matches!(v, Value::Int(_) | Value::Bag(_)),
                2 => v.is_null(),
                _ => true,
            })
            .collect();
        let any_null = values.iter().any(Value::is_null);
        let mask: Vec<bool> = values.iter().map(|v| !v.is_null()).collect();
        let only = |typed: fn(&Value) -> bool| values.iter().all(|v| v.is_null() || typed(v));
        match Column::from_values(values.clone()) {
            Column::Int { values: ints, validity } => {
                prop_assert!(only(|v| v.as_int().is_some()));
                let expected: Vec<i64> = values.iter().map(|v| v.as_int().unwrap_or(0)).collect();
                prop_assert_eq!(ints, expected);
                prop_assert_eq!(validity, any_null.then_some(mask));
            }
            Column::Str { bytes, offsets, validity } => {
                prop_assert!(only(|v| v.as_str().is_some()));
                prop_assert!(values.iter().any(|v| v.as_str().is_some()));
                let strings: Vec<&str> = values.iter().map(|v| v.as_str().unwrap_or("")).collect();
                prop_assert_eq!(bytes, strings.concat().into_bytes());
                let mut ends = vec![0];
                ends.extend(strings.iter().scan(0, |end, s| { *end += s.len(); Some(*end) }));
                prop_assert_eq!(offsets, ends);
                prop_assert_eq!(validity, any_null.then_some(mask));
            }
            Column::Mixed(kept) => {
                prop_assert!(!only(|v| v.as_int().is_some()) && !only(|v| v.as_str().is_some()));
                prop_assert_eq!(kept, values);
            }
            Column::Bag { .. } => prop_assert!(false, "values never build a nested column"),
        }

        let batch = Batch::from_columns(vec![Column::from_values(values.clone())], values.len());
        let picks: Vec<usize> = picks
            .iter()
            .filter(|_| !values.is_empty())
            .map(|i| i.index(values.len()))
            .collect();
        let mut live = Selection::Range(0..batch.len());
        live.truncate(cut.index(values.len() + 1));
        let prefix = batch.gather(&live.map(|_, row| row));
        let is_null = Expr::IsNull(Box::new(Expr::Col(0)));
        let not_null = Expr::is_not_null(Expr::Col(0));
        let kept = |keep: fn(&Value) -> bool| values.iter().filter(|v| keep(v)).cloned().collect();
        let selections: [(Batch, Vec<Value>); 5] = [
            (batch.gather(&picks), picks.iter().map(|&i| values[i].clone()).collect()),
            (prefix.clone(), values[..prefix.len()].to_vec()),
            (batch.select_rows(&live), values[..prefix.len()].to_vec()),
            (filter_batch(&batch, &not_null), kept(|v| !v.is_null())),
            (filter_batch(&batch, &is_null), kept(Value::is_null)),
        ];
        for (selected, expected) in selections {
            let rows: Vec<Record> = expected.iter().map(|v| Record::new(vec![v.clone()])).collect();
            prop_assert_eq!(selected.to_records(), rows);
            let any_null = expected.iter().any(Value::is_null);
            match selected.column(0) {
                Some(Column::Int { validity, .. } | Column::Str { validity, .. }) => {
                    let mask: Vec<bool> = expected.iter().map(|v| !v.is_null()).collect();
                    prop_assert_eq!(validity, &any_null.then_some(mask));
                }
                Some(Column::Mixed(_)) => {}
                other => prop_assert!(false, "selection changed the layout: {:?}", other),
            }
        }
    }
}

/// Every `Expr` shape, over columns 0 and 1 and one past the arity: the
/// predicates and generate lists of the selection-kernel tests.
fn every_expr_shape() -> Vec<Expr> {
    use clusterbft_repro::dataflow::ArithOp;
    let col = Expr::Col;
    let boxed = |e: Expr| Box::new(e);
    let agg = |func, bag_col, field| Expr::Agg {
        func,
        bag_col,
        field,
    };
    vec![
        col(0),
        col(1),
        col(9),
        Expr::IntLit(1),
        Expr::StrLit("a".into()),
        Expr::NullLit,
        Expr::cmp(CmpOp::Lt, col(0), col(1)),
        Expr::cmp(CmpOp::Ge, col(0), Expr::IntLit(0)),
        Expr::cmp(CmpOp::Ne, col(1), Expr::StrLit("a".into())),
        Expr::cmp(CmpOp::Eq, col(9), Expr::NullLit),
        Expr::arith(ArithOp::Add, col(0), col(1)),
        Expr::arith(ArithOp::Mod, Expr::IntLit(7), col(0)),
        Expr::And(boxed(Expr::is_not_null(col(0))), boxed(col(1))),
        Expr::Or(boxed(Expr::IsNull(boxed(col(1)))), boxed(col(0))),
        Expr::Not(boxed(Expr::cmp(CmpOp::Eq, col(0), Expr::IntLit(1)))),
        Expr::IsNull(boxed(col(0))),
        Expr::is_not_null(col(1)),
        Expr::IsNull(boxed(Expr::arith(ArithOp::Div, col(1), col(0)))),
        agg(AggFunc::Count, 0, None),
        agg(AggFunc::Sum, 1, Some(0)),
        agg(AggFunc::Max, 1, Some(5)),
    ]
}

/// The layout of each column, by kind alone.
fn column_kinds(batch: &Batch) -> Vec<std::mem::Discriminant<Column>> {
    let column = |c| batch.column(c).expect("within the arity");
    (0..batch.arity())
        .map(|c| std::mem::discriminant(column(c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reading a window in place is reading a copy of it. Over every pair
    /// of column layouts (nullable and all-null `Int`, `Str`, `Mixed`,
    /// bags as values and nested), windows that are empty, mid-file and
    /// to the end, and every `Expr` shape as predicate and as generate
    /// list: select-then-gather holds the rows `filter_batch` keeps of
    /// the batch `from_records` builds over the window's rows — and is
    /// that batch, layouts included, wherever it kept the file's layouts
    /// (it re-derives an all-null `Str` window, `Mixed` and bags from
    /// their values) — also when a second filter narrows a selection that
    /// is already a row list; `project` over a selection is
    /// `project_batch` of the gathered rows; the range form of
    /// `canonical_bytes` is the copy's;
    /// and `shuffle_buckets` is `fnv1a` of the key's canonical encoding
    /// modulo `n`, for every key column and one past the arity. The
    /// kernels that read a shuffle partition's runs where they are read
    /// what copies of them hold: a window or the rows a filter kept, split
    /// into 1, 3 and 4 buckets by key (so runs that select nothing, runs
    /// of null keys alone and runs with none), and the unsplit selection
    /// as one more run — `canonical_bytes_in` each run is the copy's
    /// `canonical_bytes`, and `Batch::concat` and `group_aggregate` (an
    /// all-algebraic generate list, keyed by the first two columns and one
    /// past the arity) over the runs are, layouts included, the same
    /// kernels over the runs' copies.
    #[test]
    fn selection_kernels_match_the_dense_kernels_over_a_copy(
        n in 2usize..20,
        duplicates in any::<bool>(),
        seed in any::<u64>(),
        cuts in (0usize..21, 0usize..21),
    ) {
        let exprs = every_expr_shape();
        let agg = |func, field| Expr::Agg { func, bag_col: 1, field };
        let mut generates = vec![Expr::Col(0), agg(AggFunc::Count, None)];
        // Each aggregate over another field; field 4 is past every arity.
        generates.extend(AGG_FUNCS.iter().zip([0, 1, 2, 3, 4]).map(|(&f, x)| agg(f, Some(x))));
        for_every_layout_pair(n, duplicates, seed, |batch, ctx| {
            let all_rows = batch.to_records();
            let (a, b) = (cuts.0 % (n + 1), cuts.1 % (n + 1));
            for window in [a..a, a.min(b)..a.max(b), a.min(b)..n, 0..n] {
                let ctx = format!("{ctx}, window {window:?}");
                let live = Selection::Range(window.clone());
                let copy = Batch::from_records(&all_rows[window.clone()]).expect("uniform arity");
                assert_eq!(
                    batch.canonical_bytes_in(&live),
                    copy.canonical_bytes(),
                    "{ctx}"
                );
                let same_layouts = !window.is_empty() && column_kinds(&copy) == column_kinds(batch);
                for (k, predicate) in exprs.iter().enumerate() {
                    let kept = select(batch, &live, predicate);
                    assert!(kept.is_sorted() && kept.iter().all(|row| window.contains(row)));
                    let gathered = batch.gather(&kept);
                    let dense = filter_batch(&copy, predicate);
                    assert_eq!(gathered.to_records(), dense.to_records(), "{ctx}, predicate {k}");
                    assert_eq!(gathered.canonical_bytes(), dense.canonical_bytes());
                    if same_layouts {
                        assert_eq!(gathered, dense, "{ctx}, predicate {k}: layouts");
                    }
                    // A filter over what a filter kept.
                    let kept = Selection::Rows(kept);
                    let again = &exprs[(k + 7) % exprs.len()];
                    assert_eq!(
                        batch.gather(&select(batch, &kept, again)).to_records(),
                        filter_batch(&dense, again).to_records(),
                        "{ctx}, predicates {k} then {}",
                        (k + 7) % exprs.len()
                    );
                    for rows in [&live, &kept] {
                        assert_eq!(
                            project(batch, rows, &exprs),
                            project_batch(&batch.gather(&rows.map(|_, row| row)), &exprs),
                            "{ctx}, after predicate {k}: projection"
                        );
                        for key in 0..=batch.arity() {
                            for parts in [1usize, 3, 4, 7] {
                                let expected = rows.map(|_, row| {
                                    let mut cell = Vec::new();
                                    batch.write_value_canonical(row, key, &mut cell);
                                    (fnv1a(&cell) % parts as u64) as usize
                                });
                                assert_eq!(
                                    shuffle_buckets(batch, rows, key, parts),
                                    expected,
                                    "{ctx}, key {key}, {parts} partitions"
                                );
                            }
                        }
                    }
                }
                let kept = exprs.iter().step_by(7).map(|e| Selection::Rows(select(batch, &live, e)));
                for rows in [live.clone()].into_iter().chain(kept) {
                    assert_runs_read_in_place_match_copies(batch, &rows, &generates, &ctx);
                }
            }
        });
    }
}

/// One check of `selection_kernels_match_the_dense_kernels_over_a_copy`:
/// `rows` of `batch` split into buckets by each key, read in place and
/// through copies (`gather` of each bucket's row ids, `select_rows` of the
/// unsplit selection).
fn assert_runs_read_in_place_match_copies(
    batch: &Batch,
    rows: &Selection,
    generates: &[Expr],
    ctx: &str,
) {
    for key in (0..=batch.arity()).filter(|&k| k < 2 || k == batch.arity()) {
        let plan = Combiner::for_group_projection(key, generates).expect("all algebraic");
        for parts in [1usize, 3, 4] {
            let buckets = shuffle_buckets(batch, rows, key, parts);
            let mut ids = vec![Vec::new(); parts];
            rows.for_each(|i, row| ids[buckets[i]].push(row));
            let mut copies: Vec<Batch> = ids.iter().map(|ids| batch.gather(ids)).collect();
            copies.push(batch.select_rows(rows));
            let mut runs: Vec<Selection> = ids.into_iter().map(Selection::Rows).collect();
            runs.push(rows.clone());
            let ctx = format!("{ctx}, rows {rows:?}, key {key}, {parts} buckets");
            for (run, copy) in runs.iter().zip(&copies) {
                assert_eq!(
                    batch.canonical_bytes_in(run),
                    copy.canonical_bytes(),
                    "{ctx}"
                );
            }
            let whole = every_row(&copies);
            let dense: Vec<(&Batch, &Selection)> = copies.iter().zip(&whole).collect();
            let in_place: Vec<(&Batch, &Selection)> = runs.iter().map(|run| (batch, run)).collect();
            assert_eq!(
                Batch::concat(&in_place),
                Batch::concat(&dense),
                "{ctx}: concat"
            );
            assert_eq!(
                group_aggregate(&in_place, &plan),
                group_aggregate(&dense, &plan),
                "{ctx}: group_aggregate"
            );
        }
    }
}

/// The typed arms of `shuffle_buckets` skip the rounds of an integer's
/// leading zero bytes; the edges of that — 0, one bit either side of the
/// two- and four-byte boundaries, the extremes, negatives, a null — and
/// of a string's length prefix hash to what their encoding does.
#[test]
fn shuffle_buckets_hash_the_canonical_encoding_at_every_width() {
    let ints = [
        0,
        1,
        0xFFFF,
        0x1_0000,
        0xFFFF_FFFF,
        0x1_0000_0000,
        i64::MAX,
        -1,
        i64::MIN,
    ];
    let mut int_cells: Vec<Value> = ints.into_iter().map(Value::Int).collect();
    int_cells.push(Value::Null);
    let texts = [
        "",
        "a",
        &"b".repeat(255),
        &"c".repeat(256),
        &"d".repeat(70_000),
    ];
    let mut str_cells: Vec<Value> = texts.into_iter().map(Value::str).collect();
    str_cells.push(Value::Null);
    for cells in [int_cells, str_cells] {
        let len = cells.len();
        let batch = Batch::from_columns(vec![Column::from_values(cells)], len);
        assert!(!matches!(batch.column(0), Some(Column::Mixed(_))));
        for rows in [
            Selection::Range(0..len),
            Selection::Rows((0..len).step_by(2).collect()),
        ] {
            for parts in [1usize, 3, 4, 7, 1 << 20] {
                let expected = rows.map(|_, row| {
                    let mut cell = Vec::new();
                    batch.write_value_canonical(row, 0, &mut cell);
                    (fnv1a(&cell) % parts as u64) as usize
                });
                assert_eq!(shuffle_buckets(&batch, &rows, 0, parts), expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A map task's shuffle partitions, one bucket byte per window row,
    /// read like the lists of row ids they replace. Over every layout (and
    /// pair of layouts) as key — `Int`, `Str` and `Mixed` keys, nulls, all
    /// nulls, bags, one past the arity — random windows and the rows a
    /// FILTER kept of them, split into 1 … 300 partitions: each partition
    /// selects its id list's rows in order, with its length and canonical
    /// bytes; its copy (`select_rows`, layouts and null masks included) and
    /// that copy corrupted are the id list's; `Batch::concat` and
    /// `group_aggregate` over all of them read what the id lists give; and
    /// a route given row by row (`Selection::partition`) cuts the same
    /// partitions. Up to 255 partitions are bucket selections, more are id
    /// lists.
    #[test]
    fn bucket_partitions_read_like_their_row_id_lists(
        n in 2usize..70,
        duplicates in any::<bool>(),
        seed in any::<u64>(),
        cuts in (0usize..71, 0usize..71),
    ) {
        let generates = [
            Expr::Col(0),
            Expr::Agg { func: AggFunc::Count, bag_col: 1, field: None },
            Expr::Agg { func: AggFunc::Sum, bag_col: 1, field: Some(1) },
            Expr::Agg { func: AggFunc::Max, bag_col: 1, field: Some(2) },
        ];
        let kept = Expr::Cmp(
            CmpOp::Ne,
            Box::new(Expr::Col(0)),
            Box::new(Expr::IntLit(seed as i64 % 3)),
        );
        for_every_layout_pair(n, duplicates, seed, |batch, ctx| {
            let (a, b) = (cuts.0 % (n + 1), cuts.1 % (n + 1));
            let window = Selection::Range(a.min(b)..a.max(b).max(n.min(a + 9)));
            let filtered = Selection::Rows(select(batch, &window, &kept));
            for rows in [window.clone(), filtered] {
                for key in (0..=batch.arity()).filter(|&k| k < 2 || k == batch.arity()) {
                    let plan =
                        Combiner::for_group_projection(key, &generates).expect("algebraic");
                    for parts in [1usize, 2, 3, 4, 7, 255, 256, 300] {
                        let ctx =
                            format!("{ctx}, rows {rows:?}, key {key}, {parts} partitions");
                        let cut = shuffle_partitions(batch, &rows, key, parts);
                        let buckets = shuffle_buckets(batch, &rows, key, parts);
                        let mut ids = vec![Vec::new(); parts];
                        rows.for_each(|i, row| ids[buckets[i]].push(row));
                        let lists: Vec<Selection> =
                            ids.into_iter().map(Selection::Rows).collect();
                        assert_eq!(cut.len(), parts, "{ctx}");
                        let bytes = parts <= MAX_BYTE_BUCKETS;
                        for (part, list) in cut.iter().zip(&lists) {
                            assert_eq!(matches!(part, Selection::Bucket(_)), bytes, "{ctx}");
                            assert_eq!(part.map(|_, row| row), list.map(|_, row| row), "{ctx}");
                            assert_eq!(part.len(), list.len(), "{ctx}");
                            if part.is_empty() {
                                continue;
                            }
                            assert_eq!(
                                batch.canonical_bytes_in(part),
                                batch.canonical_bytes_in(list),
                                "{ctx}"
                            );
                            let copy = batch.select_rows(part);
                            assert_eq!(copy, batch.select_rows(list), "{ctx}: copy");
                            let mut flipped = copy;
                            let mut expected = batch.gather(&list.map(|_, row| row));
                            corrupt_batch(&mut flipped);
                            corrupt_batch(&mut expected);
                            assert_eq!(flipped, expected, "{ctx}: corrupted copy");
                        }
                        let routed = rows.partition(batch, parts, |row| {
                            let mut cell = Vec::new();
                            batch.write_value_canonical(row, key, &mut cell);
                            (fnv1a(&cell) % parts as u64) as usize
                        });
                        assert_eq!(routed, cut, "{ctx}: routed row by row");
                        let in_place: Vec<(&Batch, &Selection)> =
                            cut.iter().map(|part| (batch, part)).collect();
                        let listed: Vec<(&Batch, &Selection)> =
                            lists.iter().map(|list| (batch, list)).collect();
                        assert_eq!(
                            Batch::concat(&in_place),
                            Batch::concat(&listed),
                            "{ctx}: concat"
                        );
                        assert_eq!(
                            group_aggregate(&in_place, &plan),
                            group_aggregate(&listed, &plan),
                            "{ctx}: group_aggregate"
                        );
                    }
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A `FOREACH` that only names columns hands its input's columns on
    /// under the input's selection (`pick`), and the picked chunk reads
    /// like `project`'s dense copy — the chunk the columnar arm would
    /// build instead. Over every layout (and pair and quadruple of
    /// layouts: `Int` with and without nulls, `Str`, `Mixed`, bags),
    /// random windows, the rows a FILTER kept of them, and buckets of
    /// `shuffle_partitions` into 1, 2, 4, 255 and 256 partitions, and
    /// projections that name plain, duplicated and reordered columns (a
    /// pick), one past the arity or compute (the dense path): row by row
    /// the values and canonical encodings, `canonical_bytes_in`, the
    /// `shuffle_partitions` cut of the chunk by each output column and one
    /// past them, `group_aggregate`, `Batch::concat` (of the chunk and of
    /// its cut), `select_rows` and that copy corrupted agree with the
    /// dense chunk's. The copies are compared layouts included; the
    /// picked batch itself may differ from the dense one only in whether
    /// a shared column carries a null mask where no selected cell is
    /// null, and nothing observable reads that.
    #[test]
    fn shared_projection_reads_like_its_dense_copy(
        n in 2usize..30,
        duplicates in any::<bool>(),
        seed in any::<u64>(),
        cuts in (0usize..31, 0usize..31),
    ) {
        let kept = Expr::Cmp(
            CmpOp::Ne,
            Box::new(Expr::Col(0)),
            Box::new(Expr::IntLit(seed as i64 % 3)),
        );
        for_every_layout_pair(n, duplicates, seed, |batch, ctx| {
            let (a, b) = (cuts.0 % (n + 1), cuts.1 % (n + 1));
            let window = Selection::Range(a.min(b)..a.max(b).max(n.min(a + 9)));
            let filtered = Selection::Rows(select(batch, &window, &kept));
            let mut selections = vec![window.clone(), filtered.clone()];
            for rows in [&window, &filtered] {
                for parts in [1usize, 2, 4, 255, 256] {
                    let cut = shuffle_partitions(batch, rows, 0, parts);
                    selections.extend(cut.into_iter().filter(|p| !p.is_empty()).take(2));
                }
            }
            let last = batch.arity() - 1;
            let plus_one = Expr::arith(
                clusterbft_repro::dataflow::ArithOp::Add,
                Expr::Col(0),
                Expr::IntLit(1),
            );
            let projections = [
                (0..=last).map(Expr::Col).collect(),
                vec![Expr::Col(last), Expr::Col(0), Expr::Col(last)],
                vec![Expr::Col(0), Expr::Col(last + 1)],
                vec![Expr::Col(last), plus_one],
            ];
            for rows in &selections {
                for (p, exprs) in projections.iter().enumerate() {
                    let ctx = format!("{ctx}, rows {rows:?}, projection {p}");
                    let dense = project(batch, rows, exprs);
                    let whole = Selection::Range(0..dense.len());
                    let mut picked_rows = rows.clone();
                    let picked = pick(batch, &mut picked_rows, exprs);
                    assert_eq!(picked.is_some(), p < 2, "{ctx}");
                    let (chunk, chunk_rows) = match picked {
                        Some(picked) => (picked, picked_rows),
                        None => (project(batch, rows, exprs), whole.clone()),
                    };
                    assert_chunks_read_alike((&chunk, &chunk_rows), (&dense, &whole), &ctx);
                }
            }
        });
    }
}

/// The checks of `shared_projection_reads_like_its_dense_copy`: a chunk
/// `(batch, rows)` against the dense batch it must read like.
fn assert_chunks_read_alike(chunk: (&Batch, &Selection), dense: (&Batch, &Selection), ctx: &str) {
    let (batch, rows) = chunk;
    let expected = dense.0.to_records();
    let read = |batch: &Batch, rows: &Selection| rows.map(|_, row| batch.row(row));
    assert_eq!(read(batch, rows), expected, "{ctx}: values");
    for (i, row) in rows.map(|_, row| row).into_iter().enumerate() {
        let mut encoded = Vec::new();
        batch.write_row_canonical(row, &mut encoded);
        assert_eq!(encoded, expected[i].to_canonical_bytes(), "{ctx}: row {i}");
    }
    assert_eq!(
        batch.canonical_bytes_in(rows),
        dense.0.canonical_bytes(),
        "{ctx}"
    );
    let copy = batch.select_rows(rows);
    assert_eq!(copy, dense.0.select_rows(dense.1), "{ctx}: select_rows");
    let (mut flipped, mut dense_flipped) = (copy, dense.0.select_rows(dense.1));
    corrupt_batch(&mut flipped);
    corrupt_batch(&mut dense_flipped);
    assert_eq!(flipped, dense_flipped, "{ctx}: corrupted copy");
    assert_eq!(
        Batch::concat(&[chunk]),
        Batch::concat(&[dense]),
        "{ctx}: concat"
    );
    let generates = [
        Expr::Col(0),
        Expr::Agg {
            func: AggFunc::Count,
            bag_col: 1,
            field: None,
        },
        Expr::Agg {
            func: AggFunc::Sum,
            bag_col: 1,
            field: Some(1),
        },
    ];
    for key in [0, batch.arity()] {
        let plan = Combiner::for_group_projection(key, &generates).expect("algebraic");
        assert_eq!(
            group_aggregate(&[chunk], &plan),
            group_aggregate(&[dense], &plan),
            "{ctx}: group_aggregate by {key}"
        );
        let parts = 3;
        let cut = shuffle_partitions(batch, rows, key, parts);
        let dense_cut = shuffle_partitions(dense.0, dense.1, key, parts);
        for (part, dense_part) in cut.iter().zip(&dense_cut) {
            let ctx = format!("{ctx}, key {key}, partition of {parts}");
            assert_eq!(read(batch, part), read(dense.0, dense_part), "{ctx}");
            assert_eq!(
                batch.canonical_bytes_in(part),
                dense.0.canonical_bytes_in(dense_part),
                "{ctx}"
            );
        }
        fn runs<'a>(b: &'a Batch, cut: &'a [Selection]) -> Vec<(&'a Batch, &'a Selection)> {
            cut.iter().map(|p| (b, p)).collect()
        }
        assert_eq!(
            Batch::concat(&runs(batch, &cut)),
            Batch::concat(&runs(dense.0, &dense_cut)),
            "{ctx}: concat of the cut by {key} into {parts}"
        );
    }
}

/// Asserts `batch` is `expected` in every way a batch can be observed —
/// its rows, each row's canonical encoding, its byte size — and in its
/// column layouts, which kernels dispatch on.
fn assert_same_batch(batch: &Batch, expected: &Batch, rows: &[Record]) {
    assert_batch_holds(batch, rows);
    assert_eq!(expected.to_records(), rows);
    assert_eq!(batch, expected, "column layouts");
}

/// Asserts `batch` is observed as `rows`: its rows, each row's canonical
/// encoding, its byte size.
fn assert_batch_holds(batch: &Batch, rows: &[Record]) {
    assert_eq!(batch.to_records(), rows);
    for (r, row) in rows.iter().enumerate() {
        let mut encoded = Vec::new();
        batch.write_row_canonical(r, &mut encoded);
        assert_eq!(encoded, row.to_canonical_bytes(), "row {r}");
    }
    assert_eq!(
        batch.canonical_bytes(),
        rows.iter().map(Record::byte_size).sum::<u64>()
    );
}

// ---------------------------------------------------------------------------
// CSV ingest: the one-pass scan against a reference that shares no code
// ---------------------------------------------------------------------------

/// The input grammar restated with `str` methods alone — `lines`, `trim`,
/// `split`, `eq_ignore_ascii_case`, `parse::<i64>` — so that the loaders,
/// which all run one integer recogniser, are checked against code they do
/// not share.
fn naive_csv_rows(text: &str) -> Vec<Record> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            line.split(',')
                .map(|field| {
                    let field = field.trim();
                    if field.eq_ignore_ascii_case("null") {
                        Value::Null
                    } else if let Ok(i) = field.parse::<i64>() {
                        Value::Int(i)
                    } else {
                        Value::str(field)
                    }
                })
                .collect()
        })
        .collect()
}

/// Asserts every loader reads `text` as the naive reference does: the
/// record loaders row for row, the columnar one as the batch those rows
/// convert to — rows, encodings, byte size and column layouts — and as
/// nothing exactly when they are ragged.
fn assert_csv_loads_like_the_reference(text: &str) {
    use clusterbft_repro::dataflow::csv;
    let rows = naive_csv_rows(text);
    assert_eq!(csv::parse_records(text), rows, "{text:?}");
    for (line, row) in text.lines().filter(|l| !l.trim().is_empty()).zip(&rows) {
        assert_eq!(&clusterbft_repro::cli::parse_record(line), row, "{line:?}");
    }
    let parsed = clusterbft_repro::cli::parse_columns(text);
    let converted = Batch::from_records(&rows);
    assert_eq!(parsed.is_some(), converted.is_some(), "{text:?}");
    if let (Some(parsed), Some(converted)) = (parsed, converted) {
        assert_same_batch(&parsed, &converted, &rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The CSV loaders against the naive reference over the whole field
    /// grammar and every edge of the integer recogniser — digit runs
    /// around its eight-byte word and its 18-digit cap, the ends of `i64`,
    /// signs, ASCII and Unicode padding, `null` spellings, empty and
    /// multi-byte fields — in columns that change type part-way, with
    /// blank, whitespace-only and lone-`\r` lines, both line ends, a blank
    /// first line, texts shorter than the word and a last field inside the
    /// text's final bytes; ragged files are declined exactly.
    #[test]
    fn columnar_csv_parse_equals_the_record_parse(
        arity in 1usize..4,
        kinds in proptest::collection::vec(0usize..5, 3..4),
        lines in proptest::collection::vec(
            (proptest::collection::vec(0usize..64, 1..5), 0u8..14),
            0..30,
        ),
        ragged in any::<bool>(),
        blank_first in any::<bool>(),
    ) {
        const FIELDS: [&[&str]; 5] = [
            // Integers by the recogniser's word, loop and cap.
            &[
                "1", "-0", "007", "1234567", "12345678", "123456789", "-1234567", "-12345678",
                "12345678901234567", "123456789012345678", "1234567890123456789",
                "12345678901234567890", "9223372036854775807", "-9223372036854775808",
                "00000000000000000001", "999999999999999999", "-999999999999999999",
                "18446744073709551617", "99999999999999999999", "-36893488147419103233",
            ],
            // Integers only `classify` reads, and near-integers it does not.
            &[
                " 2", "+3", "+12345678", "5\r", "5 ", "5\t", "12345678 ", "\u{a0}7", "7\u{a0}",
                "\u{2003}12\u{2003}", "\u{3000}-3", "4\u{3000}", "9223372036854775808",
                "-9223372036854775809", "-", "--1", "- 1", "0x7", "1_0", "12a", "12345678a",
            ],
            &["null", "Null", " NULL\t", "nUlL", "1", "null"],
            &["a", " a b ", "", " ", "nul", "nulls", "é7", "7é", "1234567é", "x", "NULL"],
            &["5", "x", "null", "", "-12", "20200101", "é"],
        ];
        let mut text = String::from(if blank_first { " \n" } else { "" });
        for (picks, flag) in &lines {
            let width = if ragged && *flag == 0 { picks.len() } else { arity };
            let fields: Vec<&str> = (0..width)
                .map(|c| {
                    let vocabulary = FIELDS[kinds[c % 3]];
                    vocabulary[picks[c % picks.len()] % vocabulary.len()]
                })
                .collect();
            text += &fields.join(",");
            text += match flag {
                1 => "\r\n",
                2 => "\n \t\n",
                3 => "\n\n",
                4 => "\n\r\n",
                5 => "\n\u{3000}\n",
                _ => "\n",
            };
        }
        if lines.len() % 2 == 1 {
            text.pop(); // no line end after the last line
        }
        assert_csv_loads_like_the_reference(&text);
    }
}

/// The shipped inputs, as `cbft` reads them from disk, scan to the batch
/// their naive rows convert to — the generated records themselves.
#[test]
fn shipped_inputs_scan_to_the_batch_their_rows_convert_to() {
    use clusterbft_repro::workloads::{airline, twitter, weather};
    for seed in [7, 11, 23] {
        for records in [
            twitter::generate(seed, 20_000),
            weather::generate(seed, 20_000),
            airline::generate(seed, 20_000),
        ] {
            let lines: Vec<String> = records
                .iter()
                .map(clusterbft_repro::cli::render_record)
                .collect();
            for text in [lines.join("\n"), lines.join("\n") + "\n"] {
                assert_eq!(naive_csv_rows(&text), records);
                assert_csv_loads_like_the_reference(&text);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sampled partial re-execution: fault-free verdict equivalence
// ---------------------------------------------------------------------------

use clusterbft_repro::core::{ExecutorConfig, ParallelExecutor, ParallelOutcome, VerifyMode};

fn reexec_run(mode: VerifyMode, sample_rate: f64, master_seed: u64) -> ParallelOutcome {
    const SCRIPT: &str = "
        a = LOAD 'edges' AS (u, f);
        g = GROUP a BY u;
        c = FOREACH g GENERATE group, COUNT(a) AS n;
        STORE c INTO 'counts';
    ";
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 2,
        expected_failures: 1,
        escalation: vec![2, 3, 4],
        master_seed,
        verify_mode: mode,
        sample_rate,
        ..ExecutorConfig::default()
    });
    let edges: Vec<Record> = (0..120)
        .map(|i| Record::new(vec![Value::Int(i % 6), Value::Int(i)]))
        .collect();
    exec.load_input("edges", edges).unwrap();
    exec.run_script(SCRIPT).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On fault-free runs the spot-check tiers may never flip the
    /// verdict: for any seed and any sampling rate, sample and hybrid
    /// agree with full replication on both the verdict and the published
    /// bytes, every re-executed task confirms, and hybrid never
    /// escalates.
    #[test]
    fn sampling_never_flips_fault_free_verdicts(
        master_seed in 0u64..1_000_000,
        sample_rate in 0.0f64..=1.0,
    ) {
        let replicated = reexec_run(VerifyMode::Replicate, 0.0, master_seed);
        prop_assert!(replicated.verified());
        for mode in [VerifyMode::Sample, VerifyMode::Hybrid] {
            let sampled = reexec_run(mode, sample_rate, master_seed);
            prop_assert_eq!(sampled.verified(), replicated.verified());
            prop_assert_eq!(sampled.outputs(), replicated.outputs());
            let re = sampled.reexec();
            prop_assert_eq!(re.mismatched, 0);
            prop_assert_eq!(re.reexecuted, re.confirmed);
            prop_assert!(!re.escalated, "no escalation without suspicion");
            prop_assert_eq!(sampled.replicas_per_round(), &[1][..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Publication: the report written from columns, and the outcome's record view
// ---------------------------------------------------------------------------

use clusterbft_repro::cli::{render_output, render_record};
use clusterbft_repro::core::FileData;

/// Asserts the text writer writes each row of `batch` as `render_record`
/// formats the built row, and that a report of the batch's file is the
/// report of its records' file at every cut of `--show`.
fn assert_written_like_the_rows(batch: &Batch, ctx: &str) {
    for r in 0..batch.len() {
        let mut line = String::new();
        batch.write_row_text(r, &mut line);
        assert_eq!(line, render_record(&batch.row(r)), "{ctx}, row {r}");
    }
    let columnar = FileData::from(batch.clone());
    let records = FileData::from(batch.to_records());
    assert!(columnar.batch().is_some() && records.batch().is_none());
    let n = batch.len();
    for show in [0, 1, n.saturating_sub(1), n, usize::MAX] {
        let report = |file: &FileData| {
            let mut out = String::new();
            render_output(&mut out, "o", file, show);
            out
        };
        assert_eq!(report(&columnar), report(&records), "{ctx}, --show {show}");
    }
}

#[test]
fn the_text_writer_writes_every_layout_as_its_rows_print() {
    for (n, duplicates) in [(2, false), (9, true)] {
        for_every_layout_pair(n, duplicates, 31, assert_written_like_the_rows);
    }
    let ints = [i64::MIN, i64::MAX, 0, -1, 7, -1_000_000_007, 10, -10];
    let texts = ["", "é", "a,b", "日本語", " padded ", "null", "-3", "\"q\""];
    let int = |null: bool| {
        let cells = ints.iter().map(|&i| Value::Int(i));
        Column::from_values(cells.chain(null.then_some(Value::Null)).collect())
    };
    let text = |null: bool| {
        let cells = texts.iter().map(|&s| Value::str(s));
        let nulls = null.then_some(Value::Null);
        Column::from_values(nulls.into_iter().chain(cells).collect())
    };
    let mixed = Column::from_values(vec![
        Value::Int(i64::MIN),
        Value::str("a,b"),
        Value::Null,
        Value::Int(i64::MAX),
        Value::str(""),
        Value::Bag(vec![Record::new(vec![Value::str("x"), Value::Null])]),
        Value::Int(0),
        Value::str("é"),
        Value::Null,
    ]);
    for null in [false, true] {
        let columns = vec![int(null), text(null)];
        let batch = Batch::from_columns(columns.clone(), ints.len() + usize::from(null));
        let layouts: Vec<&str> = columns.iter().map(layout_of).collect();
        assert_eq!(
            layouts,
            if null {
                ["int+null", "str+null"]
            } else {
                ["int", "str"]
            }
        );
        assert_written_like_the_rows(&batch, &format!("edges, nulls {null}"));
    }
    // A stored GROUP without FOREACH: its bag column is printed.
    for columns in [vec![int(true), mixed.clone()], vec![text(true), int(true)]] {
        let grouped = group_batch(&Batch::from_columns(columns, 9), 0);
        assert!(matches!(grouped.column(1), Some(Column::Bag { .. })));
        assert_written_like_the_rows(&grouped, "stored group");
    }
    assert_eq!(layout_of(&mixed), "bags as values");
    assert_written_like_the_rows(&Batch::from_columns(vec![mixed], 9), "mixed");
    assert_written_like_the_rows(&Batch::from_columns(Vec::new(), 3), "arity 0");
    assert_written_like_the_rows(&Batch::from_columns(Vec::new(), 0), "empty");
}

const PUBLISHED_SCRIPT: &str = "
    a = LOAD 'edges' AS (u, f);
    g = GROUP a BY u;
    c = FOREACH g GENERATE group, COUNT(a) AS n;
    STORE c INTO 'counts';
";

/// [`PUBLISHED_SCRIPT`] on the `--threads` path over 60 edges of 3 users,
/// the input in the form `cbft` loads it at `batch_records`.
fn published_run(batch_records: usize, fault: Option<usize>) -> ParallelOutcome {
    let mut exec = ParallelExecutor::new(ExecutorConfig {
        threads: 2,
        batch_records,
        escalation: vec![2],
        master_seed: 25,
        ..ExecutorConfig::default()
    });
    let edges: Vec<Record> = (0..60)
        .map(|i| Record::new(vec![Value::Int(i % 3), Value::Int(i)]))
        .collect();
    let input: FileData = match batch_records {
        0 => edges.into(),
        _ => Batch::from_records(&edges).expect("one arity").into(),
    };
    exec.load_input("edges", input).unwrap();
    if let Some(uid) = fault {
        exec.inject_fault(
            uid,
            clusterbft_repro::core::Behavior::Commission { probability: 1.0 },
        );
    }
    exec.run_plan(Script::parse(PUBLISHED_SCRIPT).unwrap().into_plan())
        .unwrap()
}

#[test]
fn an_outcome_means_its_record_view_whatever_form_its_files_take() {
    let (rows, cols) = (published_run(0, None), published_run(1024, None));
    assert!(rows.verified() && cols.verified());
    // The winner's file is published in the form its job stored it.
    assert!(rows.published()["counts"].batch().is_none());
    assert!(cols.published()["counts"].batch().is_some());
    assert_eq!(rows, cols, "outcomes compare as their records");

    // The JSON every determinism and server test compares is the record
    // view's, as when outcomes held records.
    const COUNTS: &str = r#""outputs":{"counts":[[{"Int":0},{"Int":20}],[{"Int":2},{"Int":20}],[{"Int":1},{"Int":20}]]}"#;
    for outcome in [&rows, &cols] {
        let json = serde_json::to_string(outcome).unwrap();
        assert!(json.contains(COUNTS), "{json}");
        let view = serde_json::to_string(outcome.outputs()).unwrap();
        assert_eq!(COUNTS, format!("\"outputs\":{view}"));
        let back: ParallelOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, outcome);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    // An unverified run publishes nothing, in either view.
    let withheld = published_run(1024, Some(0));
    assert!(!withheld.verified());
    assert!(withheld.published().is_empty() && withheld.outputs().is_empty());
    assert_eq!(withheld.output("counts"), None);
}
