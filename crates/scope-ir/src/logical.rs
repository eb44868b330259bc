//! Logical operator algebra and the logical plan DAG.
//!
//! A [`LogicalPlan`] is the [`Dag`] arena of [`LogicalNode`]s; this module
//! adds what only the logical kind has: output schemas and widths, the
//! column-range checks of [`LogicalPlan::validate`], and the memoized
//! template identity.

use crate::dag::{Dag, PlanError, PlanNode};
use crate::expr::{AggExpr, ScalarExpr};
use crate::ids::{NodeId, Salt, StableHasher, TemplateId, LOGICAL_FP_SALT};
use crate::schema::{Column, DataType, Schema};
use crate::stats::DualStats;
use serde::Serialize;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A base dataset reference with dual cardinality statistics. `rows.actual`
/// is what the simulator executes against; `rows.estimated` is the (possibly
/// stale) catalog value the optimizer sees.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TableRef {
    pub name: Arc<str>,
    pub schema: Schema,
    pub rows: DualStats,
}

impl TableRef {
    pub fn new(name: impl Into<Arc<str>>, schema: Schema, rows: DualStats) -> Self {
        Self {
            name: name.into(),
            schema,
            rows,
        }
    }
}

/// Join kinds supported by the algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    LeftSemi,
}

impl JoinKind {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER",
            JoinKind::LeftOuter => "LEFT",
            JoinKind::LeftSemi => "SEMI",
        }
    }
}

/// One sort key: column index + direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct SortKey {
    pub column: usize,
    pub descending: bool,
}

impl SortKey {
    #[must_use]
    pub fn asc(column: usize) -> Self {
        Self {
            column,
            descending: false,
        }
    }

    #[must_use]
    pub fn desc(column: usize) -> Self {
        Self {
            column,
            descending: true,
        }
    }
}

/// Logical operators. Arity is fixed per variant and enforced by
/// [`LogicalPlan::validate`]: `Extract` is a leaf, `Join` is binary, `Union`
/// is n-ary (n ≥ 2), everything else is unary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum LogicalOp {
    /// Scan a base dataset (SCOPE `EXTRACT`).
    Extract { table: TableRef },
    /// Row filter with dual selectivity (true vs. optimizer-visible).
    Filter {
        predicate: ScalarExpr,
        selectivity: DualStats,
    },
    /// Projection: each output column is `(expr, alias)`.
    Project { exprs: Vec<(ScalarExpr, String)> },
    /// Equi-join on `(left column, right column)` pairs. `selectivity` is the
    /// fraction of the cross product retained.
    Join {
        kind: JoinKind,
        on: Vec<(usize, usize)>,
        selectivity: DualStats,
    },
    /// Group-by aggregation. `group_ratio` = output groups / input rows.
    Aggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        group_ratio: DualStats,
    },
    /// Bag union of n ≥ 2 identically-shaped inputs (SCOPE `UNION ALL`).
    Union,
    /// Total sort.
    Sort { keys: Vec<SortKey> },
    /// Top-k under an ordering.
    Top { k: u64, keys: Vec<SortKey> },
    /// Windowed aggregation partitioned by columns; appends one column per
    /// function.
    Window {
        partition_by: Vec<usize>,
        funcs: Vec<AggExpr>,
    },
    /// Opaque user code (SCOPE processor/reducer). `out_ratio` is rows out
    /// per row in (may exceed 1), `cpu_factor` scales per-row CPU work.
    Process {
        udf: Arc<str>,
        cpu_factor: f64,
        out_ratio: DualStats,
    },
    /// Job output sink; every root of the DAG is an `Output`.
    Output { path: Arc<str> },
}

impl LogicalOp {
    /// Short operator tag used in signatures and display.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            LogicalOp::Extract { .. } => "Extract",
            LogicalOp::Filter { .. } => "Filter",
            LogicalOp::Project { .. } => "Project",
            LogicalOp::Join { .. } => "Join",
            LogicalOp::Aggregate { .. } => "Aggregate",
            LogicalOp::Union => "Union",
            LogicalOp::Sort { .. } => "Sort",
            LogicalOp::Top { .. } => "Top",
            LogicalOp::Window { .. } => "Window",
            LogicalOp::Process { .. } => "Process",
            LogicalOp::Output { .. } => "Output",
        }
    }
}

/// One node of the logical DAG.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LogicalNode {
    pub op: LogicalOp,
    pub children: Vec<NodeId>,
}

impl PlanNode for LogicalNode {
    const PLAN_NAME: &'static str = "LogicalPlan";
    const FP_SALT: Salt = LOGICAL_FP_SALT;

    fn children(&self) -> &[NodeId] {
        &self.children
    }

    fn tag(&self) -> &'static str {
        self.op.tag()
    }

    fn arity(&self) -> Option<usize> {
        match self.op {
            LogicalOp::Extract { .. } => Some(0),
            LogicalOp::Join { .. } => Some(2),
            LogicalOp::Union => None,
            _ => Some(1),
        }
    }

    fn is_output(&self) -> bool {
        matches!(self.op, LogicalOp::Output { .. })
    }
}

/// A logical plan DAG with one or more `Output` roots.
pub type LogicalPlan = Dag<LogicalNode>;

impl LogicalPlan {
    /// Append a node; children must already exist in the arena.
    ///
    /// # Panics
    /// Panics if a child id is out of range (programming error at plan
    /// construction time, always caught in tests via `validate`).
    pub fn add(&mut self, op: LogicalOp, children: Vec<NodeId>) -> NodeId {
        self.push(LogicalNode { op, children })
    }

    /// Append an `Output` sink over `child` and register it as a root.
    pub fn add_output(&mut self, path: impl Into<Arc<str>>, child: NodeId) -> NodeId {
        let id = self.add(LogicalOp::Output { path: path.into() }, vec![child]);
        self.mark_output(id);
        id
    }

    /// Compute the output schema of every node (indexed by arena slot).
    /// Unreachable slots still get schemas; the computation is one linear
    /// pass thanks to the arena invariant.
    #[must_use]
    pub fn schemas(&self) -> Vec<Schema> {
        let mut out: Vec<Schema> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let schema = match &node.op {
                LogicalOp::Extract { table } => table.schema.clone(),
                LogicalOp::Filter { .. }
                | LogicalOp::Sort { .. }
                | LogicalOp::Top { .. }
                | LogicalOp::Output { .. } => out[node.children[0].index()].clone(),
                LogicalOp::Process { .. } => out[node.children[0].index()].clone(),
                LogicalOp::Union => out[node.children[0].index()].clone(),
                LogicalOp::Project { exprs } => {
                    let input = &out[node.children[0].index()];
                    Schema::new(
                        exprs
                            .iter()
                            .map(|(e, alias)| {
                                Column::new(
                                    alias.clone(),
                                    infer_type(e, |i| input.column(i).map(|c| c.ty)),
                                )
                            })
                            .collect(),
                    )
                }
                LogicalOp::Join { .. } => {
                    let l = &out[node.children[0].index()];
                    let r = &out[node.children[1].index()];
                    l.join(r)
                }
                LogicalOp::Aggregate { group_by, aggs, .. } => {
                    let input = &out[node.children[0].index()];
                    let mut cols: Vec<Column> = group_by
                        .iter()
                        .map(|&i| {
                            input
                                .column(i)
                                .cloned()
                                .unwrap_or_else(|| Column::new(format!("g{i}"), DataType::Int))
                        })
                        .collect();
                    cols.extend(
                        aggs.iter()
                            .map(|a| Column::new(a.alias.clone(), DataType::Float)),
                    );
                    Schema::new(cols)
                }
                LogicalOp::Window { funcs, .. } => {
                    let input = &out[node.children[0].index()];
                    let mut cols = input.columns().to_vec();
                    cols.extend(
                        funcs
                            .iter()
                            .map(|a| Column::new(a.alias.clone(), DataType::Float)),
                    );
                    Schema::new(cols)
                }
            };
            out.push(schema);
        }
        out
    }

    /// Validate the arena's structural invariants, then every column
    /// reference against its input's width ([`LogicalPlan::widths`]). Every
    /// plan produced by the binder, the workload generator, or the
    /// optimizer must pass.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.validate_structure()?;
        self.validate_columns()
    }

    /// Every node's output width (indexed by arena slot): the lengths of
    /// [`LogicalPlan::schemas`], computed without building a column.
    #[must_use]
    pub fn widths(&self) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let input = |j: usize| out[node.children[j].index()];
            let width = match &node.op {
                LogicalOp::Extract { table } => table.schema.len(),
                LogicalOp::Project { exprs } => exprs.len(),
                LogicalOp::Join { .. } => input(0) + input(1),
                LogicalOp::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
                LogicalOp::Window { funcs, .. } => input(0) + funcs.len(),
                LogicalOp::Filter { .. }
                | LogicalOp::Sort { .. }
                | LogicalOp::Top { .. }
                | LogicalOp::Process { .. }
                | LogicalOp::Union
                | LogicalOp::Output { .. } => input(0),
            };
            out.push(width);
        }
        out
    }

    /// Every node's average row length in bytes (indexed by arena slot):
    /// `schemas()[i].avg_row_len()`, computed from column types alone
    /// ([`LogicalPlan::row_len`] of every node).
    #[must_use]
    pub fn row_lens(&self) -> Vec<u32> {
        let widths = self.widths();
        (0..self.nodes.len())
            .map(|i| self.row_len(&widths, NodeId(i as u32)))
            .collect()
    }

    /// Node `node`'s average row length in bytes, `schemas()[node]
    /// .avg_row_len()`, given the plan's [`LogicalPlan::widths`]: the sum of
    /// its columns' type widths, each column's type traced down to the
    /// operator that makes it. Allocates nothing, so a caller that needs a
    /// few nodes' lengths (the view's output roots) pays for no other's.
    #[must_use]
    pub fn row_len(&self, widths: &[usize], node: NodeId) -> u32 {
        (0..widths[node.index()])
            .map(|i| {
                self.column_type(widths, node, i)
                    .unwrap_or(DataType::Int)
                    .avg_width()
            })
            .sum::<u32>()
            .max(1)
    }

    /// The type of column `i` of `node`'s output, `None` past its width.
    fn column_type(&self, widths: &[usize], node: NodeId, i: usize) -> Option<DataType> {
        let n = &self.nodes[node.index()];
        if i >= widths[node.index()] {
            return None;
        }
        let input = |j: usize, i: usize| self.column_type(widths, n.children[j], i);
        match &n.op {
            LogicalOp::Extract { table } => table.schema.columns().get(i).map(|c| c.ty),
            LogicalOp::Project { exprs } => Some(infer_type(&exprs[i].0, |col| input(0, col))),
            LogicalOp::Join { .. } => {
                let left = widths[n.children[0].index()];
                if i < left {
                    input(0, i)
                } else {
                    input(1, i - left)
                }
            }
            LogicalOp::Aggregate { group_by, .. } => Some(match group_by.get(i) {
                Some(&col) => input(0, col).unwrap_or(DataType::Int),
                None => DataType::Float,
            }),
            LogicalOp::Window { .. } => {
                if i < widths[n.children[0].index()] {
                    input(0, i)
                } else {
                    Some(DataType::Float)
                }
            }
            LogicalOp::Filter { .. }
            | LogicalOp::Sort { .. }
            | LogicalOp::Top { .. }
            | LogicalOp::Process { .. }
            | LogicalOp::Union
            | LogicalOp::Output { .. } => input(0, i),
        }
    }

    fn validate_columns(&self) -> Result<(), PlanError> {
        let widths = self.widths();
        let mut cols = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            let Some(&first) = node.children.first() else {
                continue;
            };
            let width = widths[first.index()];
            cols.clear();
            match &node.op {
                LogicalOp::Filter { predicate, .. } => {
                    predicate.collect_columns(&mut cols);
                    check_columns(id, cols.iter().copied(), width)?;
                }
                LogicalOp::Project { exprs } => {
                    for (e, _) in exprs {
                        e.collect_columns(&mut cols);
                    }
                    check_columns(id, cols.iter().copied(), width)?;
                }
                LogicalOp::Join { on, .. } => {
                    let rw = widths[node.children[1].index()];
                    for &(l, r) in on {
                        check_columns(id, [l], width)?;
                        check_columns(id, [r], rw)?;
                    }
                }
                LogicalOp::Aggregate { group_by, aggs, .. } => {
                    check_columns(id, group_by.iter().copied(), width)?;
                    check_columns(id, aggs.iter().filter_map(|a| a.input), width)?;
                }
                LogicalOp::Sort { keys } | LogicalOp::Top { keys, .. } => {
                    check_columns(id, keys.iter().map(|k| k.column), width)?;
                }
                LogicalOp::Window {
                    partition_by,
                    funcs,
                } => {
                    check_columns(id, partition_by.iter().copied(), width)?;
                    check_columns(id, funcs.iter().filter_map(|a| a.input), width)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Template identity: a structural fingerprint of the plan that is
    /// invariant across recurring instances of the same template (literal
    /// values and table cardinalities are masked; operator structure,
    /// columns, and table names are kept). It hashes a normalized signature
    /// streamed into the hasher, never built as a `String`.
    ///
    /// Memoized like [`LogicalPlan::fingerprint`]: the first call walks the
    /// plan, later calls (clones included) are one atomic load. A zero hash
    /// reads as "not computed", so it is never stored and is recomputed.
    #[must_use]
    pub fn template_id(&self) -> TemplateId {
        let memo = self.tid_memo.load(Ordering::Relaxed);
        if memo != 0 {
            debug_assert_eq!(
                memo,
                self.hash_template(),
                "memoized template id diverged from a fresh recompute \
                 (plan mutated after hashing?)"
            );
            return TemplateId(memo);
        }
        let id = self.hash_template();
        self.tid_memo.store(id, Ordering::Relaxed);
        TemplateId(id)
    }

    fn hash_template(&self) -> u64 {
        let mut h = StableHasher::new();
        // `StableHasher::write_str` cannot fail.
        let _ = self.write_signature(&mut h);
        h.finish()
    }

    fn write_signature(&self, s: &mut impl fmt::Write) -> fmt::Result {
        for id in self.topo_order() {
            let node = self.node(id);
            s.write_str(node.op.tag())?;
            match &node.op {
                LogicalOp::Extract { table } => write!(s, ":{}", table.name)?,
                LogicalOp::Filter { predicate, .. } => {
                    s.write_char(':')?;
                    predicate.normalized(s)?;
                }
                LogicalOp::Project { exprs } => {
                    s.write_char(':')?;
                    for (e, _) in exprs {
                        e.normalized(s)?;
                        s.write_char(',')?;
                    }
                }
                LogicalOp::Join { kind, on, .. } => {
                    write!(s, ":{}", kind.name())?;
                    for (l, r) in on {
                        write!(s, "{l}={r},")?;
                    }
                }
                LogicalOp::Aggregate { group_by, aggs, .. } => {
                    s.write_char(':')?;
                    for g in group_by {
                        write!(s, "g{g},")?;
                    }
                    for a in aggs {
                        write!(s, "{},", a.func.name())?;
                    }
                }
                LogicalOp::Output { path } => write!(s, ":{path}")?,
                _ => {}
            }
            s.write_char('|')?;
            for c in &node.children {
                write!(s, "{c},")?;
            }
            s.write_char(';')?;
        }
        Ok(())
    }

    /// The sub-DAG (as a set of node ids) under one output root. SCOPE
    /// generates some statistics per output tree and some per job; feature
    /// aggregation (Table 1) needs this split.
    #[must_use]
    pub fn output_tree(&self, root: NodeId) -> Vec<NodeId> {
        self.reachable(&[root])
    }
}

/// The first of `cols` outside a `width`-wide input, as an error.
fn check_columns(
    node: NodeId,
    cols: impl IntoIterator<Item = usize>,
    width: usize,
) -> Result<(), PlanError> {
    match cols.into_iter().find(|&c| c >= width) {
        Some(column) => Err(PlanError::ColumnOutOfRange {
            node,
            column,
            input_width: width,
        }),
        None => Ok(()),
    }
}

/// Minimal type inference for projection expressions.
/// The type of `e` over an input whose column `i` has type `column(i)`
/// (a missing column reads as `Int`).
fn infer_type(e: &ScalarExpr, column: impl Fn(usize) -> Option<DataType>) -> DataType {
    match e {
        ScalarExpr::Column(i) => column(*i).unwrap_or(DataType::Int),
        ScalarExpr::Literal(v) => match v {
            crate::expr::Value::Int(_) => DataType::Int,
            crate::expr::Value::Float(_) => DataType::Float,
            crate::expr::Value::Str(s) => DataType::String {
                avg_len: s.len() as u16,
            },
            crate::expr::Value::Bool(_) => DataType::Bool,
        },
        ScalarExpr::Binary { op, .. } if op.is_comparison() => DataType::Bool,
        ScalarExpr::Binary { .. } => DataType::Float,
        ScalarExpr::Udf { .. } => DataType::Float,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, BinOp};

    fn table(name: &str, rows: f64) -> TableRef {
        TableRef::new(
            name,
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
                Column::new("c", DataType::String { avg_len: 20 }),
            ]),
            DualStats::exact(rows),
        )
    }

    /// scan -> filter -> join(scan) -> agg -> output, plus a second output
    /// sharing the filter (a genuine DAG).
    fn sample_plan() -> LogicalPlan {
        let mut p = LogicalPlan::new();
        let s1 = p.add(
            LogicalOp::Extract {
                table: table("t1", 1000.0),
            },
            vec![],
        );
        let f = p.add(
            LogicalOp::Filter {
                predicate: ScalarExpr::binary(
                    BinOp::Gt,
                    ScalarExpr::col(0),
                    ScalarExpr::lit_int(5),
                ),
                selectivity: DualStats::new(0.2, 0.33),
            },
            vec![s1],
        );
        let s2 = p.add(
            LogicalOp::Extract {
                table: table("t2", 500.0),
            },
            vec![],
        );
        let j = p.add(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(0.001),
            },
            vec![f, s2],
        );
        let a = p.add(
            LogicalOp::Aggregate {
                group_by: vec![1],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(0), "s")],
                group_ratio: DualStats::exact(0.01),
            },
            vec![j],
        );
        p.add_output("out1", a);
        let t = p.add(
            LogicalOp::Top {
                k: 10,
                keys: vec![SortKey::desc(0)],
            },
            vec![f],
        );
        p.add_output("out2", t);
        p
    }

    /// Every operator and expression kind `row_lens` types on its own:
    /// windows, unions, processors, projected literals of every type,
    /// comparisons, arithmetic, UDFs, and column references past the
    /// input's end (read as `Int`, as `schemas` reads them).
    #[test]
    fn row_lens_are_the_schema_row_lengths_for_every_operator() {
        use crate::expr::Value;
        let mut p = sample_plan();
        let s = p.add(
            LogicalOp::Extract {
                table: table("t3", 100.0),
            },
            vec![],
        );
        let w = p.add(
            LogicalOp::Window {
                partition_by: vec![0],
                funcs: vec![AggExpr::new(AggFunc::Count, None, "n"); 2],
            },
            vec![s],
        );
        let u = p.add(LogicalOp::Union, vec![w, w]);
        let pr = p.add(
            LogicalOp::Process {
                udf: "u".into(),
                cpu_factor: 1.0,
                out_ratio: DualStats::exact(1.0),
            },
            vec![u],
        );
        let exprs = [
            ScalarExpr::col(2),
            ScalarExpr::col(99),
            ScalarExpr::Literal(Value::Str("x".repeat(70_000))),
            ScalarExpr::Literal(Value::Bool(true)),
            ScalarExpr::Literal(Value::Float(1.5)),
            ScalarExpr::binary(BinOp::Lt, ScalarExpr::col(0), ScalarExpr::lit_int(1)),
            ScalarExpr::binary(BinOp::Add, ScalarExpr::col(0), ScalarExpr::col(1)),
            ScalarExpr::Udf {
                name: "f".into(),
                args: vec![ScalarExpr::col(2)],
                cpu_factor: 2.0,
            },
        ];
        let project = LogicalOp::Project {
            exprs: exprs.into_iter().map(|e| (e, "e".to_string())).collect(),
        };
        let pj = p.add(project, vec![pr]);
        let agg = p.add(
            LogicalOp::Aggregate {
                group_by: vec![2, 40],
                aggs: vec![],
                group_ratio: DualStats::exact(0.5),
            },
            vec![pj],
        );
        p.add_output("out3", agg);
        let want: Vec<u32> = p.schemas().iter().map(Schema::avg_row_len).collect();
        assert_eq!(p.row_lens(), want);
    }

    #[test]
    fn sample_plan_validates() {
        sample_plan().validate().expect("plan must be valid");
    }

    #[test]
    fn topo_order_is_child_first() {
        let p = sample_plan();
        let order = p.topo_order();
        let pos: Vec<usize> = order.iter().map(|n| n.index()).collect();
        for id in &order {
            for c in &p.node(*id).children {
                let ci = pos.iter().position(|&x| x == c.index()).unwrap();
                let pi = pos.iter().position(|&x| x == id.index()).unwrap();
                assert!(ci < pi, "child {c} must precede parent {id}");
            }
        }
    }

    #[test]
    fn dag_shares_subplans_across_outputs() {
        let p = sample_plan();
        assert_eq!(p.outputs().len(), 2);
        let t1 = p.output_tree(p.outputs()[0]);
        let t2 = p.output_tree(p.outputs()[1]);
        // The filter node (id 1) is in both trees.
        assert!(t1.contains(&NodeId(1)));
        assert!(t2.contains(&NodeId(1)));
    }

    #[test]
    fn schemas_propagate() {
        let p = sample_plan();
        let schemas = p.schemas();
        // Join output = 3 + 3 columns.
        assert_eq!(schemas[3].len(), 6);
        // Aggregate output = 1 group col + 1 agg.
        assert_eq!(schemas[4].len(), 2);
        assert_eq!(&*schemas[4].columns()[1].name, "s");
    }

    #[test]
    fn validate_rejects_forward_children() {
        let mut p = LogicalPlan::new();
        let s = p.add(
            LogicalOp::Extract {
                table: table("t", 1.0),
            },
            vec![],
        );
        p.add_output("o", s);
        // Manually corrupt: make node 0 point at node 1.
        let mut broken = p.clone();
        broken.nodes[0].children.push(NodeId(1));
        assert!(matches!(
            broken.validate(),
            Err(PlanError::BadArity { .. }) | Err(PlanError::BadChildIndex { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut p = LogicalPlan::new();
        let s = p.add(
            LogicalOp::Extract {
                table: table("t", 1.0),
            },
            vec![],
        );
        let f = p.add(
            LogicalOp::Filter {
                predicate: ScalarExpr::lit_int(1),
                selectivity: DualStats::exact(1.0),
            },
            vec![s],
        );
        p.add_output("o", f);
        let mut broken = p.clone();
        broken.nodes[1].children.clear();
        assert!(matches!(broken.validate(), Err(PlanError::BadArity { .. })));
    }

    #[test]
    fn validate_rejects_no_outputs() {
        let mut p = LogicalPlan::new();
        p.add(
            LogicalOp::Extract {
                table: table("t", 1.0),
            },
            vec![],
        );
        assert_eq!(p.validate(), Err(PlanError::NoOutputs));
    }

    #[test]
    fn validate_rejects_out_of_range_columns() {
        let mut p = LogicalPlan::new();
        let s = p.add(
            LogicalOp::Extract {
                table: table("t", 1.0),
            },
            vec![],
        );
        let f = p.add(
            LogicalOp::Filter {
                predicate: ScalarExpr::binary(
                    BinOp::Eq,
                    ScalarExpr::col(17),
                    ScalarExpr::lit_int(1),
                ),
                selectivity: DualStats::exact(0.5),
            },
            vec![s],
        );
        p.add_output("o", f);
        assert!(matches!(
            p.validate(),
            Err(PlanError::ColumnOutOfRange { column: 17, .. })
        ));
    }

    #[test]
    fn template_id_invariant_to_literals_and_cardinality() {
        let make = |lit: i64, rows: f64| {
            let mut p = LogicalPlan::new();
            let s = p.add(
                LogicalOp::Extract {
                    table: table("t", rows),
                },
                vec![],
            );
            let f = p.add(
                LogicalOp::Filter {
                    predicate: ScalarExpr::binary(
                        BinOp::Gt,
                        ScalarExpr::col(0),
                        ScalarExpr::lit_int(lit),
                    ),
                    selectivity: DualStats::exact(0.5),
                },
                vec![s],
            );
            p.add_output("o", f);
            p
        };
        assert_eq!(
            make(5, 100.0).template_id(),
            make(999, 5000.0).template_id()
        );
        // Different table name => different template.
        let mut other = LogicalPlan::new();
        let s = other.add(
            LogicalOp::Extract {
                table: table("zz", 100.0),
            },
            vec![],
        );
        other.add_output("o", s);
        assert_ne!(make(5, 100.0).template_id(), other.template_id());
    }

    #[test]
    fn count_tag_counts_reachable_ops() {
        let p = sample_plan();
        assert_eq!(p.count_tag("Extract"), 2);
        assert_eq!(p.count_tag("Output"), 2);
        assert_eq!(p.count_tag("Join"), 1);
    }

    #[test]
    fn fingerprint_is_exact_where_template_id_normalizes() {
        let make = |lit: i64, rows: f64| {
            let mut p = LogicalPlan::new();
            let s = p.add(
                LogicalOp::Extract {
                    table: table("t", rows),
                },
                vec![],
            );
            let f = p.add(
                LogicalOp::Filter {
                    predicate: ScalarExpr::binary(
                        BinOp::Gt,
                        ScalarExpr::col(0),
                        ScalarExpr::lit_int(lit),
                    ),
                    selectivity: DualStats::exact(0.5),
                },
                vec![s],
            );
            p.add_output("o", f);
            p
        };
        // Identical plans agree; deterministically.
        assert_eq!(make(5, 100.0).fingerprint(), make(5, 100.0).fingerprint());
        // Literal or statistics changes are invisible to the template id
        // but MUST change the fingerprint (they change compile results).
        assert_eq!(make(5, 100.0).template_id(), make(9, 100.0).template_id());
        assert_ne!(make(5, 100.0).fingerprint(), make(9, 100.0).fingerprint());
        assert_ne!(make(5, 100.0).fingerprint(), make(5, 200.0).fingerprint());
    }

    #[test]
    fn fingerprint_memo_is_invisible_and_reset_on_mutation() {
        let mut p = sample_plan();
        let pristine = p.clone();
        let fp = p.fingerprint();
        // The memo must not leak into equality, Debug, or serialization.
        assert_eq!(p, pristine);
        assert_eq!(format!("{p:?}"), format!("{pristine:?}"));
        assert_eq!(p.to_value(), pristine.to_value());
        // Clones carry the memo and agree.
        assert_eq!(p.clone().fingerprint(), fp);
        // Mutation invalidates the memo.
        let extra = p.add(
            LogicalOp::Extract {
                table: table("zz", 7.0),
            },
            vec![],
        );
        p.mark_output(extra);
        assert_ne!(p.fingerprint(), fp);
    }

    /// The template id is memoized like the fingerprint: invisible to
    /// equality, `Debug` and serialization, carried by `Clone`, and reset
    /// by every mutation (`add`, `add_output`, `mark_output`).
    #[test]
    fn template_id_memo_is_invisible_and_reset_on_mutation() {
        let memo = |p: &LogicalPlan| p.tid_memo.load(Ordering::Relaxed);
        let p = sample_plan();
        let pristine = sample_plan();
        assert_eq!(memo(&p), 0);
        let id = p.template_id();
        assert_eq!(memo(&p), id.0, "the first call stores the id");
        assert_eq!(id, pristine.template_id(), "structurally equal plans agree");
        let unhashed = sample_plan();
        assert_eq!(p, unhashed);
        assert_eq!(format!("{p:?}"), format!("{unhashed:?}"));
        assert_eq!(p.to_value(), unhashed.to_value());
        let clone = p.clone();
        assert_eq!(memo(&clone), id.0, "a clone carries the memo");
        assert_eq!(clone.template_id(), id);

        let mut added = p.clone();
        let s = added.add(
            LogicalOp::Extract {
                table: table("zz", 7.0),
            },
            vec![],
        );
        assert_eq!(memo(&added), 0, "add resets the memo");
        let _ = added.template_id();
        added.add_output("o3", s);
        assert_eq!(memo(&added), 0, "add_output resets the memo");
        assert_ne!(added.template_id(), id);

        // A dead slot becomes reachable only once it is marked.
        let mut marked = p.clone();
        let dead = marked.add(
            LogicalOp::Extract {
                table: table("zz", 7.0),
            },
            vec![],
        );
        assert_eq!(marked.template_id(), id, "a dead slot is not hashed");
        marked.mark_output(dead);
        assert_eq!(memo(&marked), 0, "mark_output resets the memo");
        assert_ne!(marked.template_id(), id);
    }

    /// Debug builds recompute a memoized template id and compare, as
    /// `fingerprint` does: plant a wrong memo and read it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "memoized template id diverged")]
    fn a_stale_template_id_memo_is_caught_in_debug_builds() {
        let p = sample_plan();
        let id = p.template_id();
        p.tid_memo.store(id.0 ^ 1, Ordering::Relaxed);
        let _ = p.template_id();
    }
}
