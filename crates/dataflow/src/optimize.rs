//! Logical-plan optimizations.
//!
//! Pig applies a battery of rule-based rewrites before compiling to
//! MapReduce; this module implements the subset that matters for the
//! reproduction's workloads, each *semantics-preserving* (verified by the
//! equivalence property test against the reference interpreter):
//!
//! * **constant folding** — literal sub-expressions evaluate at compile
//!   time ([`fold_expr`]);
//! * **filter simplification** — a filter whose predicate folds to a
//!   constant truth disappears; one folding to constant false still runs
//!   (it legitimately empties the stream) but with a pre-folded predicate;
//! * **filter fusion** — adjacent filters with a single consumer merge
//!   into one `AND` predicate, saving an operator pass per record; a run
//!   too long for one predicate of the parser's depth bound splits into
//!   several filters;
//! * **dead-code elimination** — vertices that cannot reach a `STORE`
//!   are dropped (the MR compiler also ignores them, but pruning first
//!   keeps analyses like the marker function honest).
//!
//! Optimization happens *before* verification points are placed, so all
//! replicas run the identical optimized plan and digests still correspond.

use std::collections::HashMap;

use crate::expr::{EvalContext, Expr};
use crate::op::Operator;
use crate::parser::MAX_EXPR_DEPTH;
use crate::plan::{LogicalPlan, PlanBuilder, VertexId};
use crate::value::{Record, Value};

/// Folds constant sub-expressions bottom-up.
///
/// Any sub-tree without column references or aggregates evaluates to the
/// same value for every record, so it is replaced by its literal result.
/// Evaluation is total (see [`Expr::eval`]), making the fold safe.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{optimize::fold_expr, ArithOp, CmpOp, Expr};
///
/// let e = Expr::cmp(
///     CmpOp::Gt,
///     Expr::Col(0),
///     Expr::arith(ArithOp::Mul, Expr::IntLit(6), Expr::IntLit(7)),
/// );
/// assert_eq!(fold_expr(&e), Expr::cmp(CmpOp::Gt, Expr::Col(0), Expr::IntLit(42)));
/// ```
pub fn fold_expr(e: &Expr) -> Expr {
    let folded = match e {
        Expr::Col(_) | Expr::IntLit(_) | Expr::StrLit(_) | Expr::NullLit | Expr::Agg { .. } => {
            e.clone()
        }
        Expr::Cmp(op, l, r) => Expr::Cmp(*op, Box::new(fold_expr(l)), Box::new(fold_expr(r))),
        Expr::Arith(op, l, r) => Expr::Arith(*op, Box::new(fold_expr(l)), Box::new(fold_expr(r))),
        Expr::And(l, r) => Expr::And(Box::new(fold_expr(l)), Box::new(fold_expr(r))),
        Expr::Or(l, r) => Expr::Or(Box::new(fold_expr(l)), Box::new(fold_expr(r))),
        Expr::Not(inner) => Expr::Not(Box::new(fold_expr(inner))),
        Expr::IsNull(inner) => Expr::IsNull(Box::new(fold_expr(inner))),
    };
    if is_constant(&folded) {
        let empty = Record::new(Vec::new());
        match folded.eval(&EvalContext::new(&empty)) {
            Value::Int(i) => Expr::IntLit(i),
            Value::Str(s) => Expr::StrLit(s),
            Value::Null => Expr::NullLit,
            Value::Bag(_) => folded, // cannot literalize; unreachable for constants
        }
    } else {
        folded
    }
}

fn is_constant(e: &Expr) -> bool {
    match e {
        Expr::IntLit(_) | Expr::StrLit(_) | Expr::NullLit => true,
        Expr::Col(_) | Expr::Agg { .. } => false,
        Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            is_constant(l) && is_constant(r)
        }
        Expr::Not(inner) | Expr::IsNull(inner) => is_constant(inner),
    }
}

/// Rewrites `plan` with the module's optimizations applied. Vertex ids are
/// renumbered; aliases carry over.
///
/// # Panics
///
/// Panics only if the input plan is internally inconsistent (impossible
/// via [`PlanBuilder`] / [`Script`](crate::Script)).
pub fn optimize(plan: &LogicalPlan) -> LogicalPlan {
    // Reverse reachability from the stores: anything else is dead.
    let mut live = vec![false; plan.len()];
    let mut stack = plan.stores();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut live[v.index()], true) {
            continue;
        }
        stack.extend(plan.vertex(v).parents().iter().copied());
    }

    let mut b = PlanBuilder::new();
    // old id → new id of the vertex that now carries its output stream.
    let mut remap: HashMap<VertexId, VertexId> = HashMap::new();
    // old filter id → predicate waiting to be fused into its sole child.
    let mut pending_filter: HashMap<VertexId, Expr> = HashMap::new();

    for v in plan.topo_order() {
        if !live[v.index()] {
            continue;
        }
        let vert = plan.vertex(v);
        let parents: Vec<VertexId> = vert.parents().to_vec();
        let mapped = |b: &PlanBuilder, remap: &HashMap<_, _>, p: VertexId| -> VertexId {
            let _ = b;
            *remap.get(&p).expect("parents are processed first")
        };
        let new_id = match vert.op() {
            Operator::Load { input, columns } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                b.add_load(input, &cols).expect("valid load")
            }
            Operator::Filter { predicate } => {
                let mut pred = fold_expr(predicate);
                // A pending parent is remapped to the stream its fused
                // predicate reads.
                let mut parent = mapped(&b, &remap, parents[0]);
                // Pick up a pending predicate from a fused upstream filter.
                if let Some(upstream) = pending_filter.remove(&parents[0]) {
                    // The `AND` over both is one level deeper than either;
                    // past what a parsed predicate may nest, the upstream
                    // run becomes a filter of its own and a new run starts
                    // here.
                    if upstream.depth().max(pred.depth()) < MAX_EXPR_DEPTH {
                        pred = Expr::And(Box::new(upstream), Box::new(pred));
                    } else {
                        parent = b.add_filter(parent, upstream).expect("valid filter");
                    }
                }
                if matches!(pred, Expr::IntLit(n) if n != 0) {
                    // Constant-true filter: drop the vertex entirely.
                    remap.insert(v, parent);
                    continue;
                }
                // A filter whose only consumer is another filter defers,
                // fusing into it.
                let children = plan.children(v);
                let sole_child_is_filter = children.len() == 1
                    && matches!(plan.vertex(children[0]).op(), Operator::Filter { .. })
                    && live[children[0].index()];
                if sole_child_is_filter {
                    pending_filter.insert(v, pred);
                    remap.insert(v, parent); // only the fused child reads this
                    continue;
                }
                b.add_filter(parent, pred).expect("valid filter")
            }
            Operator::Project { exprs, names } => {
                let parent = mapped(&b, &remap, parents[0]);
                let gens: Vec<(Expr, String)> = exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| (fold_expr(e), n.clone()))
                    .collect();
                b.add_project(parent, gens).expect("valid project")
            }
            Operator::Group { key } => {
                let parent = mapped(&b, &remap, parents[0]);
                b.add_group(parent, *key).expect("valid group")
            }
            Operator::Join {
                left_key,
                right_key,
            } => {
                let l = mapped(&b, &remap, parents[0]);
                let r = mapped(&b, &remap, parents[1]);
                b.add_join(l, *left_key, r, *right_key).expect("valid join")
            }
            Operator::Union => {
                let l = mapped(&b, &remap, parents[0]);
                let r = mapped(&b, &remap, parents[1]);
                b.add_union(l, r).expect("valid union")
            }
            Operator::Distinct => {
                let parent = mapped(&b, &remap, parents[0]);
                b.add_distinct(parent).expect("valid distinct")
            }
            Operator::Order { key, order } => {
                let parent = mapped(&b, &remap, parents[0]);
                b.add_order(parent, *key, *order).expect("valid order")
            }
            Operator::Limit { count } => {
                let parent = mapped(&b, &remap, parents[0]);
                b.add_limit(parent, *count).expect("valid limit")
            }
            Operator::Store { output } => {
                let parent = mapped(&b, &remap, parents[0]);
                b.add_store(parent, output).expect("valid store")
            }
        };
        if let Some(alias) = vert.alias() {
            b.set_alias(new_id, alias).expect("fresh vertex");
        }
        remap.insert(v, new_id);
    }

    b.build().expect("optimized plan keeps its stores")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, CmpOp};
    use crate::interp::interpret;
    use crate::parser::Script;
    use std::collections::HashMap as Map;

    fn ints(rows: &[&[i64]]) -> Vec<Record> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    fn outputs_of(plan: &LogicalPlan, records: Vec<Record>) -> Map<String, Vec<Record>> {
        let inputs = Map::from([("in".to_owned(), records)]);
        interpret(plan, &inputs).unwrap().outputs().clone()
    }

    #[test]
    fn folding_collapses_literal_trees() {
        // (2 + 3) * 4 == 20  →  1 (constant true)
        let e = Expr::cmp(
            CmpOp::Eq,
            Expr::arith(
                ArithOp::Mul,
                Expr::arith(ArithOp::Add, Expr::IntLit(2), Expr::IntLit(3)),
                Expr::IntLit(4),
            ),
            Expr::IntLit(20),
        );
        assert_eq!(fold_expr(&e), Expr::IntLit(1));
        // Division by a literal zero folds to null safely.
        let z = Expr::arith(ArithOp::Div, Expr::IntLit(1), Expr::IntLit(0));
        assert_eq!(fold_expr(&z), Expr::NullLit);
    }

    #[test]
    fn folding_stops_at_columns_and_aggregates() {
        let col = Expr::arith(ArithOp::Add, Expr::Col(0), Expr::IntLit(0));
        assert_eq!(fold_expr(&col), col, "column math is runtime work");
        let agg = Expr::Agg {
            func: crate::expr::AggFunc::Count,
            bag_col: 1,
            field: None,
        };
        assert_eq!(fold_expr(&agg), agg);
    }

    #[test]
    fn constant_true_filters_disappear() {
        let plan = Script::parse(
            "a = LOAD 'in' AS (x);
             b = FILTER a BY 1 + 1 == 2;
             STORE b INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let opt = optimize(&plan);
        assert_eq!(opt.len(), 2, "load + store only: {}", opt.render());
        assert_eq!(
            outputs_of(&plan, ints(&[&[1], &[2]])),
            outputs_of(&opt, ints(&[&[1], &[2]]))
        );
    }

    #[test]
    fn adjacent_filters_fuse() {
        let plan = Script::parse(
            "a = LOAD 'in' AS (x, y);
             b = FILTER a BY x > 1;
             c = FILTER b BY y < 10;
             d = FILTER c BY x != y;
             STORE d INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let opt = optimize(&plan);
        let filters = opt
            .vertices()
            .iter()
            .filter(|v| matches!(v.op(), Operator::Filter { .. }))
            .count();
        assert_eq!(filters, 1, "three filters fuse into one: {}", opt.render());
        let data = ints(&[&[0, 5], &[2, 5], &[2, 11], &[3, 3], &[4, 9]]);
        assert_eq!(outputs_of(&plan, data.clone()), outputs_of(&opt, data));
    }

    #[test]
    fn long_filter_runs_fuse_within_the_depth_bound() {
        // Filter i drops exactly the row x = i, so a run that went missing,
        // or read the wrong stream, leaves rows behind. 129 and 256 end on
        // a short run after one and two full ones; 1,000 spans eight.
        for n in [129_usize, 256, 1_000] {
            let mut text = String::from("f0 = LOAD 'in' AS (x, y);\n");
            for i in 1..=n {
                text += &format!("f{i} = FILTER f{} BY x != {i};\n", i - 1);
            }
            text += &format!("STORE f{n} INTO 'out';");
            let plan = Script::parse(&text).unwrap().into_plan();
            let opt = optimize(&plan);
            let depths: Vec<usize> = opt
                .vertices()
                .iter()
                .filter_map(|v| match v.op() {
                    Operator::Filter { predicate } => Some(predicate.depth()),
                    _ => None,
                })
                .collect();
            assert!(
                depths.iter().all(|&d| d <= MAX_EXPR_DEPTH),
                "n={n}: fused predicate depths {depths:?} exceed {MAX_EXPR_DEPTH}"
            );
            assert_eq!(depths.len(), n.div_ceil(MAX_EXPR_DEPTH - 1), "n={n}");
            let data: Vec<Record> = (0..=n as i64)
                .map(|i| Record::new(vec![Value::Int(i), Value::Int(-i)]))
                .collect();
            let rows = outputs_of(&plan, data.clone());
            assert_eq!(rows["out"].len(), 1, "n={n}: only x = 0 passes");
            assert_eq!(rows, outputs_of(&opt, data), "n={n}");
        }
    }

    #[test]
    fn branching_filters_do_not_fuse() {
        // The middle filter feeds two consumers: fusing would change one
        // of them.
        let plan = Script::parse(
            "a = LOAD 'in' AS (x);
             b = FILTER a BY x > 1;
             c = FILTER b BY x < 5;
             STORE c INTO 'narrow';
             d = FILTER b BY x > 100;
             STORE d INTO 'wide';",
        )
        .unwrap()
        .into_plan();
        let opt = optimize(&plan);
        let data = ints(&[&[0], &[2], &[4], &[7], &[200]]);
        assert_eq!(outputs_of(&plan, data.clone()), outputs_of(&opt, data));
    }

    #[test]
    fn dead_vertices_are_pruned() {
        let plan = Script::parse(
            "a = LOAD 'in' AS (x);
             dead = FILTER a BY x > 100;
             deader = GROUP dead BY x;
             live = FILTER a BY x > 0;
             STORE live INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let opt = optimize(&plan);
        assert_eq!(opt.len(), 3, "load + filter + store: {}", opt.render());
        let data = ints(&[&[-1], &[1]]);
        assert_eq!(outputs_of(&plan, data.clone()), outputs_of(&opt, data));
    }

    #[test]
    fn full_pipeline_is_preserved() {
        let plan = Script::parse(
            "a = LOAD 'in' AS (k, v);
             f = FILTER a BY v % 2 == 0 AND 3 > 1;
             g = GROUP f BY k;
             c = FOREACH g GENERATE group, COUNT(f) AS n, SUM(f.v) AS s;
             o = ORDER c BY n DESC;
             t = LIMIT o 3;
             STORE t INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let opt = optimize(&plan);
        let data: Vec<Record> = (0..60)
            .map(|i| Record::new(vec![Value::Int(i % 7), Value::Int(i)]))
            .collect();
        assert_eq!(outputs_of(&plan, data.clone()), outputs_of(&opt, data));
        assert!(opt.len() <= plan.len());
    }

    #[test]
    fn aliases_survive_optimization() {
        let plan = Script::parse(
            "a = LOAD 'in' AS (x);
             keep = FILTER a BY x > 0;
             g = GROUP keep BY x;
             c = FOREACH g GENERATE group, COUNT(keep);
             STORE c INTO 'out';",
        )
        .unwrap()
        .into_plan();
        let opt = optimize(&plan);
        assert!(
            opt.vertices().iter().any(|v| v.alias() == Some("keep")),
            "{}",
            opt.render()
        );
        // Group's bag column still carries the alias-derived name.
        let group = opt
            .vertices()
            .iter()
            .find(|v| matches!(v.op(), Operator::Group { .. }))
            .unwrap();
        assert_eq!(group.schema().columns()[1], "keep");
    }
}
