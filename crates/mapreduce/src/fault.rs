//! Worker nodes and Byzantine fault injection.
//!
//! §2.1 of the paper classifies Byzantine failures (after Kihlstrom et
//! al.): *omission* (an expected message never sent), *commission* (a wrong
//! message sent) and non-detectable classes. The evaluation injects
//! commission faults ("one node was set up to always produce commission
//! failures") and omission faults ("one correct replica not responding
//! within the verifier timeout"); [`Behavior`] models those, plus crashes.

use cbft_dataflow::{Batch, Column, Record, Value};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

pub use cbft_verify::NodeId;

/// A node's (mis)behaviour, drawn per task.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Behavior {
    /// Executes every task faithfully.
    #[default]
    Honest,
    /// With the given probability per task, corrupts the task's data
    /// (a commission fault: the digest/output sent is wrong).
    Commission {
        /// Per-task corruption probability in `[0, 1]`.
        probability: f64,
    },
    /// With the given probability per task, never completes the task
    /// (an omission fault: the expected message is never sent).
    Omission {
        /// Per-task omission probability in `[0, 1]`.
        probability: f64,
    },
    /// Completes no tasks at all (a crashed/partitioned node).
    Crashed,
}

/// `clamp` propagates NaN, and `rng.gen_bool(NaN)` panics mid-simulation;
/// treat a NaN probability as "never" instead.
fn sanitize_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

impl Behavior {
    /// What this node does with its next task, drawn with `rng`.
    pub fn draw(&self, rng: &mut StdRng) -> TaskFate {
        match self {
            Behavior::Honest => TaskFate::Faithful,
            Behavior::Commission { probability } => {
                if rng.gen_bool(sanitize_probability(*probability)) {
                    TaskFate::Corrupt
                } else {
                    TaskFate::Faithful
                }
            }
            Behavior::Omission { probability } => {
                if rng.gen_bool(sanitize_probability(*probability)) {
                    TaskFate::Omitted
                } else {
                    TaskFate::Faithful
                }
            }
            Behavior::Crashed => TaskFate::Omitted,
        }
    }
}

/// The fate of one task on one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskFate {
    /// Executed faithfully.
    Faithful,
    /// Executed, but with corrupted data.
    Corrupt,
    /// Never completes.
    Omitted,
}

/// One worker node in the untrusted tier.
#[derive(Clone, Debug)]
pub struct WorkerNode {
    id: NodeId,
    slots: usize,
    behavior: Behavior,
}

impl WorkerNode {
    /// Creates a node with `slots` resource units (the paper configures 3-4
    /// slots on 4-core nodes, §5.1).
    pub fn new(id: NodeId, slots: usize, behavior: Behavior) -> Self {
        WorkerNode {
            id,
            slots,
            behavior,
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of task slots (resource units, `ru` in the paper).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The node's failure behaviour.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Replaces the node's behaviour (e.g. after an administrator
    /// re-initializes a suspected node, §4.2).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }
}

/// The canonical commission fault on one value: integers are perturbed,
/// strings defaced, nulls materialized, a bag's first member corrupted (an
/// empty bag gains one) — any of which changes the canonical encoding and
/// therefore the digest. The one statement of the rule; [`corrupt_record`]
/// and [`corrupt_batch`] apply it to the leading field of every row.
pub(crate) fn corrupt_value(v: &mut Value) {
    match v {
        Value::Int(i) => *i = i.wrapping_add(1),
        Value::Str(s) => s.push('!'),
        Value::Null => *v = Value::Int(0),
        Value::Bag(bag) => match bag.first_mut() {
            Some(first) => corrupt_record(first),
            None => bag.push(Record::new(vec![Value::Int(0)])),
        },
    }
}

/// Deterministically corrupts a record in place: the commission fault
/// (`corrupt_value`: an integer +1 wrapping, a string gains `!`, a null
/// becomes `Int(0)`, a bag's first member is corrupted in turn and an
/// empty bag gains `[0]`) on its leading field; a record of no fields
/// gains an `Int(0)`.
pub fn corrupt_record(r: &mut Record) {
    let mut fields = std::mem::replace(r, Record::new(Vec::new())).into_fields();
    match fields.first_mut() {
        Some(v) => corrupt_value(v),
        None => fields.push(Value::Int(0)),
    }
    *r = Record::new(fields);
}

/// [`corrupt_record`] on every row of a batch, without building one: the
/// result equals, column layouts included, [`Batch::from_records`] over
/// the corrupted rows. An `Int` column is perturbed in place and loses its
/// null mask (a null becomes a valid `0`); everything else — strings (a
/// null among them becoming an `Int(0)`), bags, mixed values, a batch of
/// no columns gaining one of zeros — is rebuilt by [`Column::from_values`]
/// over the `corrupt_value`d values, the exact fallback. A batch of no
/// rows has no row to corrupt.
pub fn corrupt_batch(batch: &mut Batch) {
    if batch.is_empty() {
        return;
    }
    if batch.arity() == 0 {
        let zeros = Column::from_values(vec![Value::Int(0); batch.len()]);
        *batch = Batch::from_columns(vec![zeros], batch.len());
        return;
    }
    batch.map_column(0, |column| match column {
        Column::Int {
            mut values,
            validity,
        } => {
            match &validity {
                None => values.iter_mut().for_each(|v| *v = v.wrapping_add(1)),
                Some(mask) => {
                    for (v, &valid) in values.iter_mut().zip(mask) {
                        *v = if valid { v.wrapping_add(1) } else { 0 };
                    }
                }
            }
            Column::Int {
                values,
                validity: None,
            }
        }
        other => {
            let mut values = other.into_values();
            values.iter_mut().for_each(corrupt_value);
            Column::from_values(values)
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn honest_nodes_never_misbehave() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(Behavior::Honest.draw(&mut rng), TaskFate::Faithful);
        }
    }

    #[test]
    fn crashed_nodes_always_omit() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Behavior::Crashed.draw(&mut rng), TaskFate::Omitted);
    }

    #[test]
    fn commission_probability_one_always_corrupts() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            assert_eq!(
                Behavior::Commission { probability: 1.0 }.draw(&mut rng),
                TaskFate::Corrupt
            );
        }
    }

    #[test]
    fn commission_probability_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Behavior::Commission { probability: 0.3 };
        let corrupt = (0..10_000)
            .filter(|_| b.draw(&mut rng) == TaskFate::Corrupt)
            .count();
        assert!((2_500..3_500).contains(&corrupt), "{corrupt}");
    }

    #[test]
    fn out_of_range_probability_is_clamped() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            Behavior::Commission { probability: 7.5 }.draw(&mut rng),
            TaskFate::Corrupt
        );
        assert_eq!(
            Behavior::Omission { probability: -1.0 }.draw(&mut rng),
            TaskFate::Faithful
        );
    }

    #[test]
    fn nan_probability_never_fires() {
        // Regression: NaN survives `clamp` (it propagates), and
        // `gen_bool(NaN)` panics; a NaN probability must read as 0.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(
                Behavior::Commission {
                    probability: f64::NAN
                }
                .draw(&mut rng),
                TaskFate::Faithful
            );
            assert_eq!(
                Behavior::Omission {
                    probability: f64::NAN
                }
                .draw(&mut rng),
                TaskFate::Faithful
            );
        }
    }

    #[test]
    fn corrupt_value_states_the_rule_for_every_variant() {
        let bag = |members: Vec<Record>| Value::Bag(members);
        let one = |v: Value| Record::new(vec![v]);
        let cases = [
            (Value::Int(5), Value::Int(6)),
            (Value::Int(-1), Value::Int(0)),
            (Value::Int(i64::MAX), Value::Int(i64::MIN)),
            (Value::str("abc"), Value::str("abc!")),
            (Value::str(""), Value::str("!")),
            (Value::Null, Value::Int(0)),
            (bag(vec![]), bag(vec![one(Value::Int(0))])),
            (
                bag(vec![one(Value::Int(1)), one(Value::Int(1))]),
                bag(vec![one(Value::Int(2)), one(Value::Int(1))]),
            ),
            // Recursively: the first member's own leading field, and a
            // member of no fields gains one.
            (
                bag(vec![one(bag(vec![one(Value::str("x"))]))]),
                bag(vec![one(bag(vec![one(Value::str("x!"))]))]),
            ),
            (
                bag(vec![Record::new(vec![])]),
                bag(vec![one(Value::Int(0))]),
            ),
        ];
        for (mut value, expected) in cases {
            let original = value.clone();
            corrupt_value(&mut value);
            assert_eq!(value, expected, "{original:?}");
            // The record wrapper touches the leading field alone.
            let mut record = Record::new(vec![original.clone(), original.clone()]);
            corrupt_record(&mut record);
            assert_eq!(record, Record::new(vec![expected, original]));
        }
        let mut empty = Record::new(vec![]);
        corrupt_record(&mut empty);
        assert_eq!(empty, one(Value::Int(0)));
    }

    /// `corrupt_batch` equals, column layouts included, `from_records`
    /// over the `corrupt_record`ed rows — on each layout column 0 can
    /// have, the `Int` arm and the exact fallback alike.
    #[test]
    fn corrupt_batch_equals_the_batch_of_the_corrupted_rows() {
        let member = |v: i64| Record::new(vec![Value::Int(v)]);
        let columns: Vec<(&str, Vec<Value>)> = vec![
            (
                "Int",
                vec![Value::Int(1), Value::Int(i64::MAX), Value::Int(-7)],
            ),
            (
                "Int holding a null",
                vec![Value::Int(1), Value::Null, Value::Int(i64::MAX)],
            ),
            ("all null", vec![Value::Null, Value::Null]),
            (
                "Str",
                vec![Value::str("a"), Value::str(""), Value::str("é")],
            ),
            (
                "Str holding a null",
                vec![Value::str("a"), Value::Null, Value::str("c")],
            ),
            ("Mixed", vec![Value::Int(1), Value::str("b"), Value::Null]),
            (
                "stored bags",
                vec![Value::Bag(vec![member(1), member(2)]), Value::Bag(vec![])],
            ),
        ];
        for (name, leading) in columns {
            let rows: Vec<Record> = leading
                .into_iter()
                .enumerate()
                .map(|(i, v)| Record::new(vec![v, Value::Int(i as i64), Value::Null]))
                .collect();
            let mut batch = Batch::from_records(&rows).unwrap();
            // A clone shares every column: the fault copies the one it
            // flips, and the other holder reads what it read before.
            let holder = batch.clone();
            corrupt_batch(&mut batch);
            let mut corrupted = rows.clone();
            corrupted.iter_mut().for_each(corrupt_record);
            assert_eq!(batch, Batch::from_records(&corrupted).unwrap(), "{name}");
            assert_eq!(batch.to_records(), corrupted, "{name}");
            assert_eq!(holder.to_records(), rows, "{name}: the other holder");
        }

        // Hand-built columns off the layout rule — garbage under an
        // `Int` mask, a `Str` mask that hides nothing, `Mixed` values of
        // one type — come out in the layout the rule picks.
        let off_rule = [
            Column::Int {
                values: vec![7, 99, i64::MAX],
                validity: Some(vec![true, false, true]),
            },
            Column::Str {
                bytes: b"abc".to_vec(),
                offsets: vec![0, 1, 1, 3],
                validity: Some(vec![true; 3]),
            },
            Column::Mixed(vec![Value::Int(1), Value::Null, Value::Int(3)]),
        ];
        for column in off_rule {
            let mut batch = Batch::from_columns(vec![column.clone()], 3);
            let mut corrupted = batch.to_records();
            corrupted.iter_mut().for_each(corrupt_record);
            corrupt_batch(&mut batch);
            let expected = Batch::from_records(&corrupted).unwrap();
            assert_eq!(batch, expected, "{column:?}");
        }

        // Rows of no fields gain a column of zeros; no rows, nothing.
        let mut no_fields = Batch::from_records(&vec![Record::new(vec![]); 3]).unwrap();
        assert_eq!((no_fields.len(), no_fields.arity()), (3, 0));
        corrupt_batch(&mut no_fields);
        let zeros = vec![Record::new(vec![Value::Int(0)]); 3];
        assert_eq!(no_fields, Batch::from_records(&zeros).unwrap());
        let mut no_rows = Batch::from_records(&[]).unwrap();
        corrupt_batch(&mut no_rows);
        assert_eq!(no_rows, Batch::from_records(&[]).unwrap());
    }

    #[test]
    fn corruption_changes_canonical_encoding() {
        let originals = vec![
            Record::new(vec![Value::Int(5)]),
            Record::new(vec![Value::str("abc")]),
            Record::new(vec![Value::Null, Value::Int(2)]),
            Record::new(vec![Value::Bag(vec![Record::new(vec![Value::Int(1)])])]),
            Record::new(vec![Value::Bag(vec![])]),
            Record::new(vec![]),
        ];
        for original in originals {
            let mut corrupted = original.clone();
            corrupt_record(&mut corrupted);
            assert_ne!(
                original.to_canonical_bytes(),
                corrupted.to_canonical_bytes(),
                "corruption must be digest-visible for {original:?}"
            );
        }
    }
}
