//! Single-node reference interpreter.
//!
//! Evaluates a [`LogicalPlan`] directly over in-memory bags, producing both
//! the final outputs and the record stream *through every vertex*. The
//! distributed MapReduce engine (`cbft-mapreduce`) is tested against this
//! interpreter, and the ClusterBFT verifier uses it in tests as the digest
//! ground truth.
//!
//! Determinism: every blocking operator canonicalizes the order of its
//! output (sorted by key, bags sorted internally), mirroring §5.4 of the
//! paper where replica digests must agree. Per-record operators preserve
//! their input order.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use crate::expr::EvalContext;
use crate::op::{Operator, SortOrder};
use crate::plan::{LogicalPlan, VertexId};
use crate::stats::{self, Counter};
use crate::value::{Record, Value};

/// Error from plan interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// A `LOAD` referenced an input name not present in the supplied data.
    MissingInput(String),
    /// Two `STORE` vertices wrote to the same output name.
    DuplicateOutput(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingInput(name) => write!(f, "missing input '{name}'"),
            InterpError::DuplicateOutput(name) => {
                write!(f, "two STORE operators write to '{name}'")
            }
        }
    }
}

impl Error for InterpError {}

/// The result of interpreting a plan: final outputs plus per-vertex record
/// streams.
#[derive(Clone, Debug, Default)]
pub struct InterpResult {
    outputs: HashMap<String, Vec<Record>>,
    streams: Vec<Vec<Record>>,
}

impl InterpResult {
    /// Records stored into `output` (the `STORE ... INTO` name).
    pub fn output(&self, output: &str) -> Option<&[Record]> {
        self.outputs.get(output).map(Vec::as_slice)
    }

    /// All outputs by name.
    pub fn outputs(&self) -> &HashMap<String, Vec<Record>> {
        &self.outputs
    }

    /// The record stream that flowed out of vertex `v` — the digest oracle
    /// for a verification point placed on `v`.
    pub fn stream(&self, v: VertexId) -> &[Record] {
        &self.streams[v.index()]
    }
}

/// Interprets `plan` over named input bags.
///
/// # Errors
///
/// Returns [`InterpError::MissingInput`] if a `LOAD` references an input
/// absent from `inputs`, and [`InterpError::DuplicateOutput`] if two stores
/// collide on a name.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{interp::interpret, Record, Script, Value};
/// use std::collections::HashMap;
///
/// let plan = Script::parse(
///     "a = LOAD 'in' AS (x); b = FILTER a BY x > 1; STORE b INTO 'out';",
/// )?
/// .into_plan();
/// let inputs = HashMap::from([(
///     "in".to_string(),
///     vec![
///         Record::new(vec![Value::Int(1)]),
///         Record::new(vec![Value::Int(2)]),
///     ],
/// )]);
/// let result = interpret(&plan, &inputs)?;
/// assert_eq!(result.output("out").unwrap().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn interpret(
    plan: &LogicalPlan,
    inputs: &HashMap<String, Vec<Record>>,
) -> Result<InterpResult, InterpError> {
    let mut streams: Vec<Vec<Record>> = vec![Vec::new(); plan.len()];
    let mut outputs: HashMap<String, Vec<Record>> = HashMap::new();

    for v in plan.topo_order() {
        let vert = plan.vertex(v);
        let out = match vert.op() {
            Operator::Load { input, .. } => inputs
                .get(input)
                .cloned()
                .ok_or_else(|| InterpError::MissingInput(input.clone()))?,
            Operator::Filter { predicate } => streams[vert.parents()[0].index()]
                .iter()
                .filter(|r| predicate.eval(&EvalContext::new(r)).is_truthy())
                .cloned()
                .collect(),
            Operator::Project { exprs, .. } => streams[vert.parents()[0].index()]
                .iter()
                .map(|r| project_record(r, exprs))
                .collect(),
            Operator::Group { key } => {
                // One explicit clone of the retained parent stream; the
                // `_owned` kernel moves records into bags without further
                // copies (`blocking_operators_clone_each_record_exactly_once`
                // pins this).
                let input = streams[vert.parents()[0].index()].clone();
                stats::count(Counter::KernelRecordClones, input.len() as u64);
                group_records_owned(input, *key)
            }
            Operator::Join {
                left_key,
                right_key,
            } => join_records(
                &streams[vert.parents()[0].index()],
                *left_key,
                &streams[vert.parents()[1].index()],
                *right_key,
            ),
            Operator::Union => {
                let mut out = streams[vert.parents()[0].index()].clone();
                out.extend(streams[vert.parents()[1].index()].iter().cloned());
                out
            }
            Operator::Distinct => {
                let mut out = streams[vert.parents()[0].index()].clone();
                stats::count(Counter::KernelRecordClones, out.len() as u64);
                out.sort();
                out.dedup();
                out
            }
            Operator::Order { key, order } => {
                let input = streams[vert.parents()[0].index()].clone();
                stats::count(Counter::KernelRecordClones, input.len() as u64);
                order_records_owned(input, *key, *order)
            }
            Operator::Limit { count } => streams[vert.parents()[0].index()]
                .iter()
                .take(*count as usize)
                .cloned()
                .collect(),
            Operator::Store { output } => {
                let records = streams[vert.parents()[0].index()].clone();
                if outputs.insert(output.clone(), records.clone()).is_some() {
                    return Err(InterpError::DuplicateOutput(output.clone()));
                }
                records
            }
        };
        streams[v.index()] = out;
    }

    Ok(InterpResult { outputs, streams })
}

/// Applies a projection expression list to one record.
pub fn project_record(r: &Record, exprs: &[crate::expr::Expr]) -> Record {
    let ctx = EvalContext::new(r);
    exprs.iter().map(|e| e.eval(&ctx)).collect()
}

/// Groups `records` by the value in column `key`, producing canonical
/// `(key, sorted bag)` records ordered by key.
///
/// Groups by reference and clones each record exactly once into its output
/// bag; callers that own their records should use [`group_records_owned`],
/// which moves them instead.
pub fn group_records(records: &[Record], key: usize) -> Vec<Record> {
    stats::count(Counter::KernelRecordClones, records.len() as u64);
    let mut groups: BTreeMap<&Value, Vec<&Record>> = BTreeMap::new();
    for r in records {
        let k = r.get(key).unwrap_or(&Value::Null);
        groups.entry(k).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(k, bag)| {
            let mut bag: Vec<Record> = bag.into_iter().cloned().collect();
            // Whole-record sort: equal elements are byte-identical, so
            // instability is unobservable.
            bag.sort_unstable();
            Record::new(vec![k.clone(), Value::Bag(bag)])
        })
        .collect()
}

/// [`group_records`] for owned inputs: records are moved into their bags,
/// so only the group key is cloned. Output is identical to
/// `group_records(&records, key)`.
pub fn group_records_owned(records: Vec<Record>, key: usize) -> Vec<Record> {
    let mut groups: BTreeMap<Value, Vec<Record>> = BTreeMap::new();
    for r in records {
        let k = r.get(key).cloned().unwrap_or(Value::Null);
        groups.entry(k).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(k, mut bag)| {
            bag.sort_unstable();
            Record::new(vec![k, Value::Bag(bag)])
        })
        .collect()
}

/// Equi-joins `left` and `right`, producing concatenated records in
/// canonical (key, then record) order. Null keys never match, mirroring
/// Pig/SQL semantics.
pub fn join_records(
    left: &[Record],
    left_key: usize,
    right: &[Record],
    right_key: usize,
) -> Vec<Record> {
    let mut by_key: BTreeMap<&Value, Vec<&Record>> = BTreeMap::new();
    for r in right {
        let k = r.get(right_key).unwrap_or(&Value::Null);
        if !k.is_null() {
            by_key.entry(k).or_default().push(r);
        }
    }
    let mut out = Vec::new();
    for l in left {
        let k = l.get(left_key).unwrap_or(&Value::Null);
        if k.is_null() {
            continue;
        }
        if let Some(matches) = by_key.get(k) {
            for r in matches {
                let mut fields = l.fields().to_vec();
                fields.extend(r.fields().iter().cloned());
                out.push(Record::new(fields));
            }
        }
    }
    // Whole concatenated record as the sort key: ties are byte-identical.
    out.sort_unstable();
    out
}

/// Globally sorts `records` by column `key`, with the full record as a
/// deterministic tie-break.
pub fn order_records(records: &[Record], key: usize, order: SortOrder) -> Vec<Record> {
    stats::count(Counter::KernelRecordClones, records.len() as u64);
    order_records_owned(records.to_vec(), key, order)
}

/// [`order_records`] for owned inputs: sorts in place, comparing keys by
/// reference (no per-comparison clones).
pub fn order_records_owned(mut records: Vec<Record>, key: usize, order: SortOrder) -> Vec<Record> {
    // The full record is the tie-break, so the comparator only reports
    // equality for byte-identical records — unstable is safe.
    records.sort_unstable_by(|a, b| {
        let ka = a.get(key).unwrap_or(&Value::Null);
        let kb = b.get(key).unwrap_or(&Value::Null);
        let primary = match order {
            SortOrder::Asc => ka.cmp(kb),
            SortOrder::Desc => kb.cmp(ka),
        };
        primary.then_with(|| a.cmp(b))
    });
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Script;

    fn ints(rows: &[&[i64]]) -> Vec<Record> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    #[test]
    fn follower_count_end_to_end() {
        let plan = Script::parse(
            "raw = LOAD 'edges' AS (user, follower);
             clean = FILTER raw BY follower IS NOT NULL;
             grp = GROUP clean BY user;
             cnt = FOREACH grp GENERATE group, COUNT(clean) AS n;
             STORE cnt INTO 'counts';",
        )
        .unwrap()
        .into_plan();
        let mut edges = ints(&[&[1, 10], &[1, 11], &[2, 10], &[1, 12]]);
        edges.push(Record::new(vec![Value::Int(3), Value::Null]));
        let inputs = HashMap::from([("edges".to_owned(), edges)]);
        let result = interpret(&plan, &inputs).unwrap();
        let out = result.output("counts").unwrap();
        assert_eq!(
            out,
            &ints(&[&[1, 3], &[2, 1]]),
            "user 1 has 3 followers, user 2 has 1, user 3 filtered out"
        );
    }

    #[test]
    fn two_hop_self_join() {
        let plan = Script::parse(
            "a = LOAD 'edges' AS (user, follower);
             b = LOAD 'edges' AS (user, follower);
             j = JOIN a BY follower, b BY user;
             two = FOREACH j GENERATE a::user, b::follower;
             STORE two INTO 'twohop';",
        )
        .unwrap()
        .into_plan();
        // 1 -> 2 -> 3 and 2 -> 4: two-hop pairs (1,3), (1,4).
        let inputs = HashMap::from([("edges".to_owned(), ints(&[&[1, 2], &[2, 3], &[2, 4]]))]);
        let result = interpret(&plan, &inputs).unwrap();
        assert_eq!(result.output("twohop").unwrap(), &ints(&[&[1, 3], &[1, 4]]));
    }

    #[test]
    fn union_distinct_order_limit() {
        let plan = Script::parse(
            "x = LOAD 'x' AS (a);
             y = LOAD 'y' AS (a);
             u = UNION x, y;
             d = DISTINCT u;
             o = ORDER d BY a DESC;
             top = LIMIT o 2;
             STORE top INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let inputs = HashMap::from([
            ("x".to_owned(), ints(&[&[3], &[1], &[3]])),
            ("y".to_owned(), ints(&[&[2], &[1]])),
        ]);
        let result = interpret(&plan, &inputs).unwrap();
        assert_eq!(result.output("out").unwrap(), &ints(&[&[3], &[2]]));
    }

    #[test]
    fn join_skips_null_keys() {
        let left = vec![
            Record::new(vec![Value::Null, Value::Int(1)]),
            Record::new(vec![Value::Int(7), Value::Int(2)]),
        ];
        let right = vec![
            Record::new(vec![Value::Int(7)]),
            Record::new(vec![Value::Null]),
        ];
        let out = join_records(&left, 0, &right, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arity(), 3);
    }

    #[test]
    fn group_orders_keys_and_bags() {
        let records = ints(&[&[2, 9], &[1, 5], &[2, 3]]);
        let grouped = group_records(&records, 0);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].get(0), Some(&Value::Int(1)));
        let bag = grouped[1].get(1).unwrap().as_bag().unwrap();
        assert_eq!(bag, &ints(&[&[2, 3], &[2, 9]]), "bag contents sorted");
    }

    #[test]
    fn missing_input_is_an_error() {
        let plan = Script::parse("a = LOAD 'nope' AS (x); STORE a INTO 'o';")
            .unwrap()
            .into_plan();
        let err = interpret(&plan, &HashMap::new()).unwrap_err();
        assert_eq!(err, InterpError::MissingInput("nope".to_owned()));
    }

    #[test]
    fn vertex_streams_are_recorded() {
        let plan = Script::parse("a = LOAD 'i' AS (x); b = FILTER a BY x > 1; STORE b INTO 'o';")
            .unwrap()
            .into_plan();
        let inputs = HashMap::from([("i".to_owned(), ints(&[&[1], &[2], &[3]]))]);
        let result = interpret(&plan, &inputs).unwrap();
        assert_eq!(result.stream(VertexId(0)).len(), 3);
        assert_eq!(result.stream(VertexId(1)).len(), 2);
    }

    #[test]
    fn order_ties_break_canonically() {
        let records = ints(&[&[1, 9], &[1, 2], &[0, 5]]);
        let sorted = order_records(&records, 0, SortOrder::Asc);
        assert_eq!(sorted, ints(&[&[0, 5], &[1, 2], &[1, 9]]));
    }

    #[test]
    fn blocking_operators_clone_each_record_exactly_once() {
        // GROUP and ORDER must clone the retained parent stream exactly
        // once — the explicit clone at the call site — with zero extra
        // clones inside the `_owned` kernels. Interpretation runs on this
        // thread, so the per-thread counter gives an exact figure even
        // with other tests running concurrently.
        let plan = Script::parse(
            "a = LOAD 'i' AS (k, v);
             g = GROUP a BY k;
             o = ORDER a BY v;
             STORE o INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let records = ints(&[&[1, 9], &[2, 5], &[1, 3], &[3, 7]]);
        let n = records.len() as u64;
        let inputs = HashMap::from([("i".to_owned(), records)]);

        let before = stats::thread_total(Counter::KernelRecordClones);
        let result = interpret(&plan, &inputs).unwrap();
        let delta = stats::thread_total(Counter::KernelRecordClones) - before;
        assert_eq!(
            delta,
            2 * n,
            "one clone per record entering GROUP and one entering ORDER, nothing more"
        );
        assert_eq!(result.output("out").unwrap().len(), 4);
    }
}
