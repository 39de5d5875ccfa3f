//! Expressions: projections, predicates and aggregates.
//!
//! Expressions are fully resolved at plan-construction time (column names
//! become indices), so evaluation needs no symbol table — important because
//! the untrusted tier executes millions of them.

use serde::{Deserialize, Serialize};

use crate::value::{Record, Value};

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to an already-computed ordering; the batch
    /// kernels use this to compare typed columns without materializing
    /// [`Value`]s.
    pub fn apply_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    fn apply(self, ord: std::cmp::Ordering) -> bool {
        self.apply_ord(ord)
    }
}

/// Integer arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division; division by zero yields null)
    Div,
    /// `%` (remainder; by zero yields null)
    Mod,
}

impl ArithOp {
    /// Applies the operator to two integers; `None` for division or
    /// remainder by zero (which evaluate to null). Single source of truth
    /// for both row-wise [`Expr::eval`] and the vectorized kernels.
    pub fn apply_ints(self, a: i64, b: i64) -> Option<i64> {
        match self {
            ArithOp::Add => Some(a.wrapping_add(b)),
            ArithOp::Sub => Some(a.wrapping_sub(b)),
            ArithOp::Mul => Some(a.wrapping_mul(b)),
            ArithOp::Div if b == 0 => None,
            ArithOp::Div => Some(a.wrapping_div(b)),
            ArithOp::Mod if b == 0 => None,
            ArithOp::Mod => Some(a.wrapping_rem(b)),
        }
    }
}

/// Aggregate functions applied to a bag column (the output of `GROUP`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// Number of records in the bag.
    Count,
    /// Sum of an integer field across the bag.
    Sum,
    /// Truncated (integer) average of a field across the bag — the paper's
    /// determinism workaround (§5.4) applied by construction.
    Avg,
    /// Minimum of a field across the bag.
    Min,
    /// Maximum of a field across the bag.
    Max,
}

impl AggFunc {
    /// Folds the integer fields of one bag (nulls, strings and missing
    /// fields already dropped); `None` is null. Single source of truth
    /// for row-wise [`Expr::eval`] and the columnar bag kernel: wrapping
    /// sum (0 for no integers), truncated average, null `AVG`/`MIN`/`MAX`
    /// of no integers.
    ///
    /// # Panics
    ///
    /// Panics on [`AggFunc::Count`], which counts records, not a field.
    pub fn fold_ints(self, ints: impl Iterator<Item = i64>) -> Option<i64> {
        match self {
            AggFunc::Sum => Some(ints.fold(0i64, i64::wrapping_add)),
            AggFunc::Avg => {
                let (mut sum, mut n) = (0i64, 0i64);
                for v in ints {
                    sum = sum.wrapping_add(v);
                    n += 1;
                }
                (n > 0).then(|| sum / n)
            }
            AggFunc::Min => ints.min(),
            AggFunc::Max => ints.max(),
            AggFunc::Count => unreachable!("COUNT is answered from the bag length"),
        }
    }
}

/// A resolved expression tree.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{CmpOp, EvalContext, Expr, Record, Value};
///
/// // col0 > 10
/// let e = Expr::cmp(CmpOp::Gt, Expr::Col(0), Expr::IntLit(10));
/// let r = Record::new(vec![Value::Int(42)]);
/// assert!(e.eval(&EvalContext::new(&r)).is_truthy());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Integer literal.
    IntLit(i64),
    /// String literal.
    StrLit(String),
    /// The null literal.
    NullLit,
    /// Comparison, yielding `Int(1)` or `Int(0)`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Integer arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical and (operands use [`Value::is_truthy`]).
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
    /// `IS NULL` test, yielding `Int(1)` / `Int(0)`.
    IsNull(Box<Expr>),
    /// Aggregate over the bag in column `bag_col`; `field` selects the field
    /// inside each bag record (`None` is only valid for [`AggFunc::Count`]).
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Column holding the bag.
        bag_col: usize,
        /// Field index within bag records, if the function needs one.
        field: Option<usize>,
    },
}

impl Expr {
    /// Convenience constructor for comparisons.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for arithmetic.
    pub fn arith(op: ArithOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Arith(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for `IS NOT NULL`.
    pub fn is_not_null(inner: Expr) -> Expr {
        Expr::Not(Box::new(Expr::IsNull(Box::new(inner))))
    }

    /// Evaluates the expression against one record.
    ///
    /// Evaluation is total: type mismatches and missing columns yield
    /// [`Value::Null`] rather than failing, mirroring Pig's permissive
    /// runtime semantics (and keeping replicas deterministic even on
    /// malformed data).
    pub fn eval(&self, ctx: &EvalContext<'_>) -> Value {
        match self {
            Expr::Col(i) => ctx.record.get(*i).cloned().unwrap_or(Value::Null),
            Expr::IntLit(i) => Value::Int(*i),
            Expr::StrLit(s) => Value::Str(s.clone()),
            Expr::NullLit => Value::Null,
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(ctx);
                let rv = r.eval(ctx);
                Value::Int(op.apply(lv.cmp(&rv)) as i64)
            }
            Expr::Arith(op, l, r) => {
                let (Some(a), Some(b)) = (l.eval(ctx).as_int(), r.eval(ctx).as_int()) else {
                    return Value::Null;
                };
                op.apply_ints(a, b).map_or(Value::Null, Value::Int)
            }
            Expr::And(l, r) => {
                Value::Int((l.eval(ctx).is_truthy() && r.eval(ctx).is_truthy()) as i64)
            }
            Expr::Or(l, r) => {
                Value::Int((l.eval(ctx).is_truthy() || r.eval(ctx).is_truthy()) as i64)
            }
            Expr::Not(e) => Value::Int(!e.eval(ctx).is_truthy() as i64),
            Expr::IsNull(e) => Value::Int(e.eval(ctx).is_null() as i64),
            Expr::Agg {
                func,
                bag_col,
                field,
            } => ctx
                .record
                .get(*bag_col)
                .map_or(Value::Null, |cell| eval_agg(*func, cell, *field)),
        }
    }

    /// The largest column index referenced by this expression, if any.
    /// Used by plan validation to reject out-of-range references.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Expr::Col(i) => Some(*i),
            Expr::IntLit(_) | Expr::StrLit(_) | Expr::NullLit => None,
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.max_col().into_iter().chain(r.max_col()).max()
            }
            Expr::Not(e) | Expr::IsNull(e) => e.max_col(),
            Expr::Agg { bag_col, .. } => Some(*bag_col),
        }
    }

    /// Nodes on the longest path from this node to a leaf (a leaf is 1).
    pub(crate) fn depth(&self) -> usize {
        match self {
            Expr::Col(_) | Expr::IntLit(_) | Expr::StrLit(_) | Expr::NullLit | Expr::Agg { .. } => {
                1
            }
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                1 + l.depth().max(r.depth())
            }
            Expr::Not(e) | Expr::IsNull(e) => 1 + e.depth(),
        }
    }
}

/// Aggregates one cell: null unless it holds a bag.
pub(crate) fn eval_agg(func: AggFunc, cell: &Value, field: Option<usize>) -> Value {
    let Value::Bag(bag) = cell else {
        return Value::Null;
    };
    if func == AggFunc::Count {
        return Value::Int(bag.len() as i64);
    }
    let Some(f) = field else { return Value::Null };
    let ints = bag
        .iter()
        .filter_map(|r| r.get(f))
        .filter_map(Value::as_int);
    func.fold_ints(ints).map_or(Value::Null, Value::Int)
}

/// Evaluation context: the record an expression is applied to.
///
/// A separate struct (rather than passing `&Record`) so that future
/// extensions — e.g. referencing the enclosing group key — do not ripple
/// through every call site.
#[derive(Clone, Copy, Debug)]
pub struct EvalContext<'a> {
    record: &'a Record,
}

impl<'a> EvalContext<'a> {
    /// Creates a context for evaluating expressions against `record`.
    pub fn new(record: &'a Record) -> Self {
        EvalContext { record }
    }

    /// The record under evaluation.
    pub fn record(&self) -> &Record {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fields: Vec<Value>) -> Record {
        Record::new(fields)
    }

    fn eval(e: &Expr, r: &Record) -> Value {
        e.eval(&EvalContext::new(r))
    }

    #[test]
    fn comparisons_yield_bool_ints() {
        let r = rec(vec![Value::Int(5), Value::str("b")]);
        assert_eq!(
            eval(&Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::IntLit(9)), &r),
            Value::Int(1)
        );
        assert_eq!(
            eval(
                &Expr::cmp(CmpOp::Eq, Expr::Col(1), Expr::StrLit("b".into())),
                &r
            ),
            Value::Int(1)
        );
        assert_eq!(
            eval(&Expr::cmp(CmpOp::Gt, Expr::Col(0), Expr::IntLit(9)), &r),
            Value::Int(0)
        );
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let r = rec(vec![Value::Int(7)]);
        assert_eq!(
            eval(
                &Expr::arith(ArithOp::Mul, Expr::Col(0), Expr::IntLit(3)),
                &r
            ),
            Value::Int(21)
        );
        assert_eq!(
            eval(
                &Expr::arith(ArithOp::Div, Expr::Col(0), Expr::IntLit(0)),
                &r
            ),
            Value::Null
        );
        assert_eq!(
            eval(
                &Expr::arith(ArithOp::Mod, Expr::Col(0), Expr::IntLit(4)),
                &r
            ),
            Value::Int(3)
        );
        // Type mismatch → null, not panic.
        let s = rec(vec![Value::str("x")]);
        assert_eq!(
            eval(
                &Expr::arith(ArithOp::Add, Expr::Col(0), Expr::IntLit(1)),
                &s
            ),
            Value::Null
        );
    }

    #[test]
    fn logic_and_null_tests() {
        let r = rec(vec![Value::Null, Value::Int(1)]);
        assert_eq!(
            eval(&Expr::IsNull(Box::new(Expr::Col(0))), &r),
            Value::Int(1)
        );
        assert_eq!(eval(&Expr::is_not_null(Expr::Col(1)), &r), Value::Int(1));
        let both = Expr::And(
            Box::new(Expr::is_not_null(Expr::Col(1))),
            Box::new(Expr::IsNull(Box::new(Expr::Col(0)))),
        );
        assert_eq!(eval(&both, &r), Value::Int(1));
        assert_eq!(eval(&Expr::Not(Box::new(both)), &r), Value::Int(0));
    }

    #[test]
    fn missing_column_is_null() {
        let r = rec(vec![]);
        assert_eq!(eval(&Expr::Col(3), &r), Value::Null);
    }

    #[test]
    fn aggregates() {
        let bag = Value::Bag(vec![
            rec(vec![Value::Int(1), Value::Int(10)]),
            rec(vec![Value::Int(2), Value::Int(20)]),
            rec(vec![Value::Int(3), Value::Int(31)]),
        ]);
        let r = rec(vec![Value::str("k"), bag]);
        let agg = |func, field| Expr::Agg {
            func,
            bag_col: 1,
            field,
        };
        assert_eq!(eval(&agg(AggFunc::Count, None), &r), Value::Int(3));
        assert_eq!(eval(&agg(AggFunc::Sum, Some(1)), &r), Value::Int(61));
        assert_eq!(
            eval(&agg(AggFunc::Avg, Some(1)), &r),
            Value::Int(20),
            "truncated avg"
        );
        assert_eq!(eval(&agg(AggFunc::Min, Some(1)), &r), Value::Int(10));
        assert_eq!(eval(&agg(AggFunc::Max, Some(1)), &r), Value::Int(31));
    }

    #[test]
    fn aggregate_on_non_bag_is_null() {
        let r = rec(vec![Value::Int(5)]);
        let e = Expr::Agg {
            func: AggFunc::Count,
            bag_col: 0,
            field: None,
        };
        assert_eq!(eval(&e, &r), Value::Null);
    }

    #[test]
    fn avg_of_empty_bag_is_null() {
        let r = rec(vec![Value::Bag(vec![])]);
        let e = Expr::Agg {
            func: AggFunc::Avg,
            bag_col: 0,
            field: Some(0),
        };
        assert_eq!(eval(&e, &r), Value::Null);
    }

    #[test]
    fn max_col_tracks_deepest_reference() {
        let e = Expr::And(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::Col(2), Expr::IntLit(1))),
            Box::new(Expr::is_not_null(Expr::Col(7))),
        );
        assert_eq!(e.max_col(), Some(7));
        assert_eq!(Expr::IntLit(4).max_col(), None);
    }
}
