//! Map-side combiners for algebraic aggregates.
//!
//! Pig emits a Hadoop combiner when a `GROUP` is consumed by a `FOREACH`
//! whose generates are all algebraic (COUNT/SUM/MIN/MAX/AVG): map tasks
//! pre-aggregate per key and the shuffle moves one small partial record
//! per (task, key) instead of the whole bag. The reduce side merges
//! partials and produces exactly the projection's output — so a
//! verification point on the projection digests the *same stream* whether
//! or not the combiner ran (replicas need not even agree on using it).
//! A verification point on the `GROUP` itself needs the materialized
//! bags, so combining is disabled there (the engine enforces this).
//!
//! Partial-record layout: `[key, p0, p1, ...]` — the grouping key always
//! first (even when the projection does not output it), then the partial
//! slots in generate order; `AVG` takes two slots (sum, count-of-ints).

use serde::{Deserialize, Serialize};

use crate::expr::{AggFunc, Expr};
use crate::op::Operator;
use crate::value::{Record, Value};

/// One algebraic generate of the fused projection.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombineSlot {
    /// `GENERATE group` — the key, passed through.
    Key,
    /// `COUNT(bag)` — partial: local record count; merge: sum.
    Count,
    /// `SUM(bag.field)` — partial: local sum; merge: sum.
    Sum {
        /// Field within bag records.
        field: usize,
    },
    /// `MIN(bag.field)` — partial: local min; merge: min.
    Min {
        /// Field within bag records.
        field: usize,
    },
    /// `MAX(bag.field)` — partial: local max; merge: max.
    Max {
        /// Field within bag records.
        field: usize,
    },
    /// `AVG(bag.field)` — partial: (sum, int-count); merge: sum both,
    /// divide at the end (truncated, matching [`AggFunc::Avg`]).
    Avg {
        /// Field within bag records.
        field: usize,
    },
}

impl CombineSlot {
    /// The field of the bag's records the slot aggregates, if it reads one.
    pub fn field(&self) -> Option<usize> {
        match *self {
            CombineSlot::Key | CombineSlot::Count => None,
            CombineSlot::Sum { field }
            | CombineSlot::Min { field }
            | CombineSlot::Max { field }
            | CombineSlot::Avg { field } => Some(field),
        }
    }

    fn partial_width(&self) -> usize {
        match self {
            CombineSlot::Key => 1,
            CombineSlot::Avg { .. } => 2,
            _ => 1,
        }
    }
}

/// A combiner plan: how to partially aggregate map output and merge it on
/// the reduce side.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Combiner {
    /// Grouping key column in the *map-side* record schema.
    pub key: usize,
    /// One slot per generate of the fused projection, in output order.
    pub slots: Vec<CombineSlot>,
}

impl Combiner {
    /// Builds the combiner plan for a `GROUP key` shuffle whose reduce
    /// pipeline starts with projection `exprs`, if every generate is
    /// algebraic. The projection's input schema is `(group, bag)`:
    /// `Col(0)` is the key, aggregates must target bag column 1.
    pub fn for_group_projection(key: usize, exprs: &[Expr]) -> Option<Combiner> {
        let mut slots = Vec::with_capacity(exprs.len());
        for e in exprs {
            let slot = match e {
                Expr::Col(0) => CombineSlot::Key,
                Expr::Agg {
                    func,
                    bag_col: 1,
                    field,
                } => match (func, field) {
                    (AggFunc::Count, _) => CombineSlot::Count,
                    (AggFunc::Sum, Some(f)) => CombineSlot::Sum { field: *f },
                    (AggFunc::Min, Some(f)) => CombineSlot::Min { field: *f },
                    (AggFunc::Max, Some(f)) => CombineSlot::Max { field: *f },
                    (AggFunc::Avg, Some(f)) => CombineSlot::Avg { field: *f },
                    _ => return None,
                },
                _ => return None,
            };
            slots.push(slot);
        }
        Some(Combiner { key, slots })
    }

    /// Builds the combiner plan for an [`Operator::Group`] shuffle followed
    /// by `first_reduce_op`, when that is an all-algebraic projection.
    pub fn for_job(shuffle: &Operator, first_reduce_op: &Operator) -> Option<Combiner> {
        match (shuffle, first_reduce_op) {
            (Operator::Group { key }, Operator::Project { exprs, .. }) => {
                Self::for_group_projection(*key, exprs)
            }
            _ => None,
        }
    }

    /// Map side: partially aggregates `records`, producing one
    /// `[key, partials...]` record per distinct key, in key order.
    pub fn partials(&self, records: &[Record]) -> Vec<Record> {
        let mut groups: std::collections::BTreeMap<Value, Vec<&Record>> =
            std::collections::BTreeMap::new();
        for r in records {
            let k = r.get(self.key).cloned().unwrap_or(Value::Null);
            groups.entry(k).or_default().push(r);
        }
        groups
            .into_iter()
            .map(|(k, bag)| {
                let mut fields = vec![k];
                for slot in &self.slots {
                    match slot {
                        CombineSlot::Key => {} // already leading; no slot
                        CombineSlot::Count => {
                            fields.push(Value::Int(bag.len() as i64));
                        }
                        CombineSlot::Sum { field } => {
                            fields.push(Value::Int(int_fold(&bag, *field, 0, i64::wrapping_add)));
                        }
                        CombineSlot::Min { field } => {
                            fields.push(int_extreme(&bag, *field, true));
                        }
                        CombineSlot::Max { field } => {
                            fields.push(int_extreme(&bag, *field, false));
                        }
                        CombineSlot::Avg { field } => {
                            fields.push(Value::Int(int_fold(&bag, *field, 0, i64::wrapping_add)));
                            fields.push(Value::Int(
                                bag.iter()
                                    .filter(|r| r.get(*field).and_then(Value::as_int).is_some())
                                    .count() as i64,
                            ));
                        }
                    }
                }
                Record::new(fields)
            })
            .collect()
    }

    /// Reduce side: merges partial records (grouped by leading key) into
    /// the fused projection's output, in key order. Equals what
    /// `group_records` + projection would have produced.
    pub fn merge(&self, partials: &[Record]) -> Vec<Record> {
        let mut groups: std::collections::BTreeMap<Value, Vec<&Record>> =
            std::collections::BTreeMap::new();
        for p in partials {
            let k = p.get(0).cloned().unwrap_or(Value::Null);
            groups.entry(k).or_default().push(p);
        }
        groups
            .into_iter()
            .map(|(k, parts)| {
                let mut out = Vec::with_capacity(self.slots.len());
                // Partial slots start after the leading key.
                let mut idx = 1usize;
                for slot in &self.slots {
                    match slot {
                        CombineSlot::Key => out.push(k.clone()),
                        CombineSlot::Count | CombineSlot::Sum { .. } => {
                            let total = parts
                                .iter()
                                .filter_map(|p| p.get(idx).and_then(Value::as_int))
                                .fold(0i64, i64::wrapping_add);
                            out.push(Value::Int(total));
                        }
                        CombineSlot::Min { .. } => {
                            out.push(merge_extreme(&parts, idx, true));
                        }
                        CombineSlot::Max { .. } => {
                            out.push(merge_extreme(&parts, idx, false));
                        }
                        CombineSlot::Avg { .. } => {
                            let sum = parts
                                .iter()
                                .filter_map(|p| p.get(idx).and_then(Value::as_int))
                                .fold(0i64, i64::wrapping_add);
                            let n = parts
                                .iter()
                                .filter_map(|p| p.get(idx + 1).and_then(Value::as_int))
                                .fold(0i64, i64::wrapping_add);
                            out.push(if n == 0 {
                                Value::Null
                            } else {
                                Value::Int(sum / n)
                            });
                        }
                    }
                    idx += slot.partial_width().min(2) * usize::from(*slot != CombineSlot::Key);
                }
                Record::new(out)
            })
            .collect()
    }
}

fn int_fold(bag: &[&Record], field: usize, init: i64, f: fn(i64, i64) -> i64) -> i64 {
    bag.iter()
        .filter_map(|r| r.get(field).and_then(Value::as_int))
        .fold(init, f)
}

fn int_extreme(bag: &[&Record], field: usize, min: bool) -> Value {
    let it = bag
        .iter()
        .filter_map(|r| r.get(field).and_then(Value::as_int));
    let v = if min { it.min() } else { it.max() };
    v.map_or(Value::Null, Value::Int)
}

fn merge_extreme(parts: &[&Record], idx: usize, min: bool) -> Value {
    let it = parts
        .iter()
        .filter_map(|p| p.get(idx).and_then(Value::as_int));
    let v = if min { it.min() } else { it.max() };
    v.map_or(Value::Null, Value::Int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{group_records, project_record};

    fn rec(vals: &[i64]) -> Record {
        Record::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn full_exprs() -> Vec<Expr> {
        vec![
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
            Expr::Agg {
                func: AggFunc::Min,
                bag_col: 1,
                field: Some(1),
            },
            Expr::Agg {
                func: AggFunc::Max,
                bag_col: 1,
                field: Some(1),
            },
            Expr::Agg {
                func: AggFunc::Avg,
                bag_col: 1,
                field: Some(1),
            },
        ]
    }

    /// The gold standard: combiner output == group + project output.
    fn reference(records: &[Record], exprs: &[Expr]) -> Vec<Record> {
        group_records(records, 0)
            .iter()
            .map(|r| project_record(r, exprs))
            .collect()
    }

    #[test]
    fn eligibility() {
        assert!(Combiner::for_group_projection(0, &full_exprs()).is_some());
        // Non-algebraic generate blocks the combiner.
        assert!(Combiner::for_group_projection(
            0,
            &[Expr::Col(1)] // the raw bag itself
        )
        .is_none());
        assert!(Combiner::for_group_projection(
            0,
            &[Expr::arith(
                crate::expr::ArithOp::Add,
                Expr::Col(0),
                Expr::IntLit(1)
            )]
        )
        .is_none());
        // SUM without a field is malformed and not combinable.
        assert!(Combiner::for_group_projection(
            0,
            &[Expr::Agg {
                func: AggFunc::Sum,
                bag_col: 1,
                field: None
            }]
        )
        .is_none());
    }

    #[test]
    fn single_split_matches_reference() {
        let records = vec![rec(&[1, 10]), rec(&[2, 5]), rec(&[1, 7]), rec(&[1, 2])];
        let exprs = full_exprs();
        let comb = Combiner::for_group_projection(0, &exprs).unwrap();
        let merged = comb.merge(&comb.partials(&records));
        assert_eq!(merged, reference(&records, &exprs));
    }

    #[test]
    fn multiple_splits_match_reference() {
        let all = vec![
            rec(&[1, 10]),
            rec(&[2, 5]),
            rec(&[1, 7]),
            rec(&[3, -4]),
            rec(&[2, 0]),
            rec(&[1, 2]),
            rec(&[3, 9]),
        ];
        let exprs = full_exprs();
        let comb = Combiner::for_group_projection(0, &exprs).unwrap();
        let mut partials = Vec::new();
        for chunk in all.chunks(3) {
            partials.extend(comb.partials(chunk));
        }
        assert_eq!(comb.merge(&partials), reference(&all, &exprs));
    }

    #[test]
    fn nulls_are_ignored_like_the_interpreter() {
        let records = vec![
            Record::new(vec![Value::Int(1), Value::Null]),
            rec(&[1, 4]),
            Record::new(vec![Value::Int(2), Value::Null]),
        ];
        let exprs = full_exprs();
        let comb = Combiner::for_group_projection(0, &exprs).unwrap();
        let merged = comb.merge(&comb.partials(&records));
        assert_eq!(merged, reference(&records, &exprs));
        // Key 2 has no int values: SUM 0, MIN/MAX/AVG null, COUNT 1.
        assert_eq!(
            merged[1].fields(),
            &[
                Value::Int(2),
                Value::Int(1),
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null
            ]
        );
    }

    #[test]
    fn projection_without_key_column_still_merges() {
        let exprs = vec![Expr::Agg {
            func: AggFunc::Count,
            bag_col: 1,
            field: None,
        }];
        let comb = Combiner::for_group_projection(0, &exprs).unwrap();
        let records = vec![rec(&[1, 0]), rec(&[2, 0]), rec(&[1, 0])];
        let merged = comb.merge(&comb.partials(&records));
        assert_eq!(merged, reference(&records, &exprs));
        assert_eq!(merged.len(), 2, "one record per key, counts only");
    }

    #[test]
    fn partial_records_carry_leading_key() {
        let exprs = vec![Expr::Agg {
            func: AggFunc::Sum,
            bag_col: 1,
            field: Some(1),
        }];
        let comb = Combiner::for_group_projection(0, &exprs).unwrap();
        let partials = comb.partials(&[rec(&[7, 3]), rec(&[7, 4])]);
        assert_eq!(partials, vec![rec(&[7, 7])], "[key, partial-sum]");
    }
}
