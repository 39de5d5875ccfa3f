//! The logical plan: an acyclic data-flow graph of operators.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::PlanError;
use crate::expr::Expr;
use crate::op::Operator;
use crate::value::Schema;

/// Identifier of a vertex within one [`LogicalPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub usize);

impl VertexId {
    /// The vertex's index in [`LogicalPlan::vertices`].
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One vertex of the data-flow graph: an operator plus its wiring.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vertex {
    id: VertexId,
    op: Operator,
    parents: Vec<VertexId>,
    schema: Schema,
    alias: Option<String>,
}

impl Vertex {
    /// The vertex id.
    pub fn id(&self) -> VertexId {
        self.id
    }

    /// The operator.
    pub fn op(&self) -> &Operator {
        &self.op
    }

    /// Input vertices, in argument order.
    pub fn parents(&self) -> &[VertexId] {
        &self.parents
    }

    /// The output schema of this vertex.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The script alias bound to this vertex, if any.
    pub fn alias(&self) -> Option<&str> {
        self.alias.as_deref()
    }
}

/// An acyclic data-flow graph, ready for analysis, compilation and
/// execution.
///
/// Construct via [`PlanBuilder`] or by parsing a script with
/// [`Script::parse`](crate::Script::parse).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogicalPlan {
    vertices: Vec<Vertex>,
    children: Vec<Vec<VertexId>>,
}

impl LogicalPlan {
    /// All vertices, indexed by [`VertexId::index`].
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// The vertex with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this plan.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id.0]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the plan has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Downstream consumers of vertex `id`.
    pub fn children(&self, id: VertexId) -> &[VertexId] {
        &self.children[id.0]
    }

    /// All `Load` vertices.
    pub fn loads(&self) -> Vec<VertexId> {
        self.filter_ids(|v| v.op.is_load())
    }

    /// All `Store` vertices.
    pub fn stores(&self) -> Vec<VertexId> {
        self.filter_ids(|v| v.op.is_store())
    }

    /// Vertex ids in a topological order (parents before children).
    /// Construction guarantees acyclicity, so this is simply id order.
    pub fn topo_order(&self) -> Vec<VertexId> {
        (0..self.vertices.len()).map(VertexId).collect()
    }

    /// Undirected breadth-first distance (in edges) from `from` to every
    /// vertex; `usize::MAX` marks unreachable vertices. Used by the marker
    /// function's distance term.
    pub fn undirected_distances(&self, from: VertexId) -> Vec<usize> {
        let n = self.vertices.len();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[from.0] = 0;
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            let d = dist[v.0] + 1;
            let neighbors = self.vertices[v.0]
                .parents
                .iter()
                .copied()
                .chain(self.children[v.0].iter().copied());
            for u in neighbors {
                if dist[u.0] == usize::MAX {
                    dist[u.0] = d;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Renders the plan as an indented listing, one vertex per line —
    /// handy in tests and examples.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.vertices {
            let parents: Vec<String> = v.parents.iter().map(|p| p.to_string()).collect();
            let alias = v.alias.as_deref().unwrap_or("-");
            let _ = writeln!(
                out,
                "{} {} alias={} parents=[{}] schema={:?}",
                v.id,
                v.op.name(),
                alias,
                parents.join(","),
                v.schema.columns()
            );
        }
        out
    }

    fn filter_ids(&self, pred: impl Fn(&Vertex) -> bool) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|v| pred(v))
            .map(|v| v.id)
            .collect()
    }

    /// Renders the plan in Graphviz dot format; `marked` vertices (e.g.
    /// verification points) are drawn with a double outline.
    ///
    /// ```sh
    /// cargo run --example quickstart | dot -Tsvg > plan.svg
    /// ```
    pub fn to_dot(&self, marked: &[VertexId]) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph plan {\n  rankdir=TB;\n  node [shape=box];\n");
        for v in &self.vertices {
            let label = match v.alias() {
                Some(a) => format!("{} {}\\n{}", v.id, v.op.name(), a),
                None => format!("{} {}", v.id, v.op.name()),
            };
            let peripheries = if marked.contains(&v.id) { 2 } else { 1 };
            let _ = writeln!(
                out,
                "  v{} [label=\"{label}\", peripheries={peripheries}];",
                v.id.0
            );
        }
        for v in &self.vertices {
            for p in &v.parents {
                let _ = writeln!(out, "  v{} -> v{};", p.0, v.id.0);
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental builder for [`LogicalPlan`].
///
/// Each `add_*` method appends a vertex wired to already-added parents and
/// returns its id, making cycles unrepresentable. Schemas are inferred as
/// vertices are added; expression column references are validated against
/// the input schema.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{Expr, PlanBuilder};
///
/// let mut b = PlanBuilder::new();
/// let load = b.add_load("edges", &["user", "follower"])?;
/// let grp = b.add_group(load, 0)?;
/// let cnt = b.add_project(
///     grp,
///     vec![
///         (Expr::Col(0), "group".to_string()),
///         (Expr::Agg { func: cbft_dataflow::AggFunc::Count, bag_col: 1, field: None },
///          "n".to_string()),
///     ],
/// )?;
/// b.add_store(cnt, "counts")?;
/// let plan = b.build()?;
/// assert_eq!(plan.len(), 4);
/// # Ok::<(), cbft_dataflow::PlanError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct PlanBuilder {
    vertices: Vec<Vertex>,
    aliases: HashMap<String, VertexId>,
}

impl PlanBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a `LOAD` source vertex.
    pub fn add_load(&mut self, input: &str, columns: &[&str]) -> Result<VertexId, PlanError> {
        let schema = Schema::from_names(columns);
        self.push(
            Operator::Load {
                input: input.to_owned(),
                columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            },
            vec![],
            schema,
        )
    }

    /// Adds a `FILTER` vertex.
    pub fn add_filter(&mut self, parent: VertexId, predicate: Expr) -> Result<VertexId, PlanError> {
        let schema = self.schema_of(parent)?.clone();
        self.check_expr(&predicate, &schema)?;
        self.push(Operator::Filter { predicate }, vec![parent], schema)
    }

    /// Adds a `FOREACH ... GENERATE` projection vertex. `exprs` pairs each
    /// output expression with its output column name.
    pub fn add_project(
        &mut self,
        parent: VertexId,
        exprs: Vec<(Expr, String)>,
    ) -> Result<VertexId, PlanError> {
        let input = self.schema_of(parent)?.clone();
        let mut es = Vec::with_capacity(exprs.len());
        let mut names = Vec::with_capacity(exprs.len());
        for (e, n) in exprs {
            self.check_expr(&e, &input)?;
            es.push(e);
            names.push(n);
        }
        let schema = Schema::new(names.clone());
        self.push(Operator::Project { exprs: es, names }, vec![parent], schema)
    }

    /// Adds a `GROUP ... BY` vertex keyed on input column `key`.
    /// Output schema is `(group, <parent alias or "bag">)`.
    pub fn add_group(&mut self, parent: VertexId, key: usize) -> Result<VertexId, PlanError> {
        let input = self.schema_of(parent)?;
        if key >= input.arity() {
            return Err(PlanError::ColumnOutOfRange {
                index: key,
                width: input.arity(),
            });
        }
        let bag_name = self.vertices[parent.0]
            .alias
            .clone()
            .unwrap_or_else(|| "bag".to_owned());
        let schema = Schema::new(vec!["group".to_owned(), bag_name]);
        self.push(Operator::Group { key }, vec![parent], schema)
    }

    /// Adds an equi-`JOIN` vertex. Output columns are prefixed by each
    /// side's alias, Pig-style.
    pub fn add_join(
        &mut self,
        left: VertexId,
        left_key: usize,
        right: VertexId,
        right_key: usize,
    ) -> Result<VertexId, PlanError> {
        let ls = self.schema_of(left)?.clone();
        let rs = self.schema_of(right)?.clone();
        if left_key >= ls.arity() {
            return Err(PlanError::ColumnOutOfRange {
                index: left_key,
                width: ls.arity(),
            });
        }
        if right_key >= rs.arity() {
            return Err(PlanError::ColumnOutOfRange {
                index: right_key,
                width: rs.arity(),
            });
        }
        let la = self.vertices[left.0]
            .alias
            .clone()
            .unwrap_or_else(|| "l".to_owned());
        let ra = self.vertices[right.0]
            .alias
            .clone()
            .unwrap_or_else(|| "r".to_owned());
        let schema = ls.prefixed(&la).concat(&rs.prefixed(&ra));
        self.push(
            Operator::Join {
                left_key,
                right_key,
            },
            vec![left, right],
            schema,
        )
    }

    /// Adds a `UNION` vertex over two inputs of equal arity.
    pub fn add_union(&mut self, left: VertexId, right: VertexId) -> Result<VertexId, PlanError> {
        let ls = self.schema_of(left)?.clone();
        let rs = self.schema_of(right)?;
        if ls.arity() != rs.arity() {
            return Err(PlanError::UnionArityMismatch {
                left: ls.arity(),
                right: rs.arity(),
            });
        }
        self.push(Operator::Union, vec![left, right], ls)
    }

    /// Adds a `DISTINCT` vertex.
    pub fn add_distinct(&mut self, parent: VertexId) -> Result<VertexId, PlanError> {
        let schema = self.schema_of(parent)?.clone();
        self.push(Operator::Distinct, vec![parent], schema)
    }

    /// Adds an `ORDER ... BY` vertex.
    pub fn add_order(
        &mut self,
        parent: VertexId,
        key: usize,
        order: crate::op::SortOrder,
    ) -> Result<VertexId, PlanError> {
        let schema = self.schema_of(parent)?.clone();
        if key >= schema.arity() {
            return Err(PlanError::ColumnOutOfRange {
                index: key,
                width: schema.arity(),
            });
        }
        self.push(Operator::Order { key, order }, vec![parent], schema)
    }

    /// Adds a `LIMIT` vertex.
    pub fn add_limit(&mut self, parent: VertexId, count: u64) -> Result<VertexId, PlanError> {
        let schema = self.schema_of(parent)?.clone();
        self.push(Operator::Limit { count }, vec![parent], schema)
    }

    /// Adds a `STORE` sink vertex.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::DuplicateStore`] when an earlier vertex already
    /// stores `output`: output files are write-once, so the second store
    /// could only fail (or be dropped) once its job had run.
    pub fn add_store(&mut self, parent: VertexId, output: &str) -> Result<VertexId, PlanError> {
        let stores_it = |v: &&Vertex| matches!(&v.op, Operator::Store { output: o } if o == output);
        if let Some(first) = self.vertices.iter().find(stores_it) {
            return Err(PlanError::DuplicateStore {
                output: output.to_owned(),
                first: first.id.0,
                second: self.vertices.len(),
            });
        }
        let schema = self.schema_of(parent)?.clone();
        self.push(
            Operator::Store {
                output: output.to_owned(),
            },
            vec![parent],
            schema,
        )
    }

    /// Binds a script alias to a vertex, improving join/group schema names
    /// and enabling [`PlanBuilder::alias_id`] lookups.
    pub fn set_alias(&mut self, id: VertexId, alias: &str) -> Result<(), PlanError> {
        if id.0 >= self.vertices.len() {
            return Err(PlanError::UnknownVertex(id.0));
        }
        self.vertices[id.0].alias = Some(alias.to_owned());
        self.aliases.insert(alias.to_owned(), id);
        Ok(())
    }

    /// Looks up a previously bound alias.
    pub fn alias_id(&self, alias: &str) -> Option<VertexId> {
        self.aliases.get(alias).copied()
    }

    /// The output schema of an already-added vertex.
    pub fn schema_of(&self, id: VertexId) -> Result<&Schema, PlanError> {
        self.vertices
            .get(id.0)
            .map(|v| &v.schema)
            .ok_or(PlanError::UnknownVertex(id.0))
    }

    /// Finalizes the plan.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoStore`] when no `STORE` vertex exists: such a
    /// plan computes nothing observable, so accepting it would mask script
    /// bugs.
    pub fn build(self) -> Result<LogicalPlan, PlanError> {
        if !self.vertices.iter().any(|v| v.op.is_store()) {
            return Err(PlanError::NoStore);
        }
        let mut children = vec![Vec::new(); self.vertices.len()];
        for v in &self.vertices {
            for p in &v.parents {
                children[p.0].push(v.id);
            }
        }
        Ok(LogicalPlan {
            vertices: self.vertices,
            children,
        })
    }

    fn push(
        &mut self,
        op: Operator,
        parents: Vec<VertexId>,
        schema: Schema,
    ) -> Result<VertexId, PlanError> {
        let expected = op.arity();
        if parents.len() != expected {
            return Err(PlanError::BadArity {
                op: op.name(),
                expected,
                actual: parents.len(),
            });
        }
        for p in &parents {
            if p.0 >= self.vertices.len() {
                return Err(PlanError::UnknownVertex(p.0));
            }
        }
        let id = VertexId(self.vertices.len());
        self.vertices.push(Vertex {
            id,
            op,
            parents,
            schema,
            alias: None,
        });
        Ok(id)
    }

    fn check_expr(&self, e: &Expr, input: &Schema) -> Result<(), PlanError> {
        if let Some(max) = e.max_col() {
            if max >= input.arity() {
                return Err(PlanError::ColumnOutOfRange {
                    index: max,
                    width: input.arity(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp};
    use crate::op::SortOrder;

    fn follower_plan() -> LogicalPlan {
        let mut b = PlanBuilder::new();
        let load = b.add_load("edges", &["user", "follower"]).unwrap();
        b.set_alias(load, "raw").unwrap();
        let filt = b.add_filter(load, Expr::is_not_null(Expr::Col(1))).unwrap();
        b.set_alias(filt, "good").unwrap();
        let grp = b.add_group(filt, 0).unwrap();
        let cnt = b
            .add_project(
                grp,
                vec![
                    (Expr::Col(0), "group".to_owned()),
                    (
                        Expr::Agg {
                            func: AggFunc::Count,
                            bag_col: 1,
                            field: None,
                        },
                        "n".to_owned(),
                    ),
                ],
            )
            .unwrap();
        b.add_store(cnt, "counts").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_wired_dag() {
        let plan = follower_plan();
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.loads().len(), 1);
        assert_eq!(plan.stores().len(), 1);
        let store = plan.stores()[0];
        assert_eq!(plan.children(store), &[]);
        let load = plan.loads()[0];
        assert_eq!(plan.children(load).len(), 1);
    }

    #[test]
    fn group_schema_uses_alias() {
        let plan = follower_plan();
        let grp = plan
            .vertices()
            .iter()
            .find(|v| matches!(v.op(), Operator::Group { .. }))
            .unwrap();
        assert_eq!(grp.schema().columns(), &["group", "good"]);
    }

    #[test]
    fn arity_violations_are_rejected() {
        let mut b = PlanBuilder::new();
        let err = b.add_filter(VertexId(0), Expr::IntLit(1)).unwrap_err();
        assert_eq!(err, PlanError::UnknownVertex(0));
    }

    #[test]
    fn column_out_of_range_rejected() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["a"]).unwrap();
        let err = b
            .add_filter(l, Expr::cmp(CmpOp::Eq, Expr::Col(4), Expr::IntLit(1)))
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::ColumnOutOfRange { index: 4, width: 1 }
        ));
        let err = b.add_group(l, 3).unwrap_err();
        assert!(matches!(err, PlanError::ColumnOutOfRange { .. }));
        let err = b.add_order(l, 1, SortOrder::Desc).unwrap_err();
        assert!(matches!(err, PlanError::ColumnOutOfRange { .. }));
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["a"]).unwrap();
        let r = b.add_load("g", &["a", "b"]).unwrap();
        let err = b.add_union(l, r).unwrap_err();
        assert!(matches!(
            err,
            PlanError::UnionArityMismatch { left: 1, right: 2 }
        ));
    }

    #[test]
    fn a_repeated_store_name_is_rejected_naming_both_vertices() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["a"]).unwrap();
        b.add_store(l, "x").unwrap();
        let kept = b.add_filter(l, Expr::IntLit(1)).unwrap();
        let err = b.add_store(kept, "x").unwrap_err();
        let expected = PlanError::DuplicateStore {
            output: "x".to_owned(),
            first: 1,
            second: 3,
        };
        assert_eq!(err, expected);
        let text = err.to_string();
        assert!(text.contains("'x'") && text.contains("vertex 1") && text.contains("vertex 3"));
        // The rejected vertex was not added; another name is accepted.
        assert_eq!(b.add_store(kept, "y").unwrap(), VertexId(3));
    }

    #[test]
    fn plan_without_store_rejected() {
        let mut b = PlanBuilder::new();
        b.add_load("f", &["a"]).unwrap();
        assert_eq!(b.build().unwrap_err(), PlanError::NoStore);
    }

    #[test]
    fn join_schema_is_prefixed() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["user", "follower"]).unwrap();
        b.set_alias(l, "a").unwrap();
        let r = b.add_load("f", &["user", "follower"]).unwrap();
        b.set_alias(r, "b").unwrap();
        let j = b.add_join(l, 0, r, 1).unwrap();
        assert_eq!(
            b.schema_of(j).unwrap().columns(),
            &["a::user", "a::follower", "b::user", "b::follower"]
        );
        b.add_store(j, "out").unwrap();
        b.build().unwrap();
    }

    #[test]
    fn undirected_distances_cross_join() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["x"]).unwrap();
        let r = b.add_load("g", &["x"]).unwrap();
        let j = b.add_join(l, 0, r, 0).unwrap();
        let s = b.add_store(j, "o").unwrap();
        let plan = b.build().unwrap();
        let d = plan.undirected_distances(l);
        assert_eq!(d[l.index()], 0);
        assert_eq!(d[j.index()], 1);
        assert_eq!(d[r.index()], 2, "via the join");
        assert_eq!(d[s.index()], 2);
    }

    #[test]
    fn render_mentions_every_vertex() {
        let plan = follower_plan();
        let r = plan.render();
        assert_eq!(r.lines().count(), plan.len());
        assert!(r.contains("Group"));
        assert!(r.contains("Store"));
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn dot_output_mentions_every_vertex_and_edge() {
        let mut b = PlanBuilder::new();
        let l = b.add_load("f", &["x"]).unwrap();
        let f = b.add_filter(l, Expr::IntLit(1)).unwrap();
        b.add_store(f, "o").unwrap();
        let plan = b.build().unwrap();
        let dot = plan.to_dot(&[f]);
        assert!(dot.starts_with("digraph plan {"));
        assert!(dot.contains("v0 -> v1;"));
        assert!(dot.contains("v1 -> v2;"));
        assert!(
            dot.contains("peripheries=2"),
            "marked vertex double-outlined"
        );
        assert_eq!(dot.matches("label=").count(), 3);
    }
}
