//! Name resolution and lowering from AST to [`scope_ir::LogicalPlan`].
//!
//! Each bound statement registers its root node in a symbol table; statements
//! that reference the same upstream dataset *share* its sub-plan in the arena,
//! which is exactly how SCOPE scripts become operator DAGs with multiple
//! output trees over common sub-expressions.

use crate::ast::{AstBinOp, ColumnRef, Expr, Script, SelectItem, SelectStmt, Statement};
use crate::error::{LangError, Span};
use crate::parser::parse_script;
use rustc_hash::FxHashMap;
use scope_ir::expr::{AggExpr, AggFunc, BinOp, ScalarExpr, Value};
use scope_ir::ids::{stable_hash64, unit, StableHasher};
use scope_ir::logical::{JoinKind, LogicalOp, LogicalPlan, SortKey, TableRef};
use scope_ir::schema::{Column, DataType, Schema};
use scope_ir::stats::DualStats;
use scope_ir::NodeId;
use std::fmt::Write as _;

/// Catalog information for one base dataset.
#[derive(Debug, Clone, Copy)]
pub struct TableInfo {
    /// True and catalog-estimated row counts.
    pub rows: DualStats,
}

/// Catalog consulted while binding `EXTRACT` statements and predicates.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: FxHashMap<String, TableInfo>,
    /// Row count assumed for paths missing from the catalog.
    pub default_rows: DualStats,
    /// When true, the *actual* selectivity of each filter is perturbed
    /// deterministically (hash of the normalized predicate) away from the
    /// optimizer's heuristic estimate, reproducing realistic cost-model error
    /// for script-derived plans.
    pub realistic_selectivity: bool,
}

impl Default for Catalog {
    fn default() -> Self {
        Self {
            tables: FxHashMap::default(),
            default_rows: DualStats::exact(1_000_000.0),
            realistic_selectivity: true,
        }
    }
}

impl Catalog {
    /// Register a base dataset.
    pub fn register(&mut self, path: impl Into<String>, info: TableInfo) -> &mut Self {
        self.tables.insert(path.into(), info);
        self
    }

    #[must_use]
    pub fn lookup(&self, path: &str) -> TableInfo {
        self.tables.get(path).copied().unwrap_or(TableInfo {
            rows: self.default_rows,
        })
    }

    /// Dual selectivity for a predicate: estimate comes from the textbook
    /// heuristic; truth is the heuristic scaled by a deterministic
    /// per-predicate factor in [0.25, 2.5] when `realistic_selectivity`.
    #[must_use]
    pub fn filter_selectivity(&self, predicate: &ScalarExpr) -> DualStats {
        let est = predicate.heuristic_selectivity();
        if !self.realistic_selectivity {
            return DualStats::exact(est);
        }
        let mut h = StableHasher::new();
        // `StableHasher::write_str` cannot fail.
        let _ = predicate.normalized(&mut h);
        let h = h.finish();
        // Map hash to a log-uniform factor in [0.25, 2.5].
        let factor = 0.25 * (10.0f64).powf(unit(h)); // 0.25 .. 2.5
        DualStats::new((est * factor).clamp(1e-6, 1.0), est)
    }
}

/// Bind a script source all the way to a validated logical plan.
pub fn bind_script(src: &str, catalog: &Catalog) -> Result<LogicalPlan, LangError> {
    let script = parse_script(src)?;
    Binder::new(catalog).bind(&script)
}

/// Statement-by-statement binder. It borrows the catalog and the names of
/// the script it binds. Beyond what the plan keeps it allocates its symbol
/// table (one schema per dataset that changes columns) and one scope per
/// SELECT.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    plan: LogicalPlan,
    /// dataset name -> (plan node, index of its output schema in `schemas`)
    symbols: FxHashMap<&'a str, (NodeId, usize)>,
    /// Output schemas; a PROCESS or UNION shares its (first) input's.
    schemas: Vec<Schema>,
}

/// Column-resolution scope: the schemas of the FROM table and every joined
/// table, in order, each tagged with its alias.
type Scope<'s> = [(&'s str, &'s Schema)];

/// Resolve a column reference to a flat index into the scope's concatenated
/// schema. Unqualified names must be unambiguous.
fn resolve(scope: &Scope<'_>, col: &ColumnRef<'_>, span: Span) -> Result<usize, LangError> {
    let mut offset = 0usize;
    let mut found: Option<usize> = None;
    for &(alias, schema) in scope {
        if col.qualifier.is_some_and(|q| q != alias) {
            offset += schema.len();
            continue;
        }
        if let Some(i) = schema.index_of(col.name) {
            if found.is_some() {
                return Err(LangError::bind(span, format!("ambiguous column {col}")));
            }
            found = Some(offset + i);
            if col.qualifier.is_some() {
                break;
            }
        }
        offset += schema.len();
    }
    found.ok_or_else(|| LangError::bind(span, format!("unknown column {col}")))
}

/// The column at flat index `i` of the scope's concatenated schema.
fn column<'s>(scope: &Scope<'s>, mut i: usize) -> Option<&'s Column> {
    for &(_, schema) in scope {
        if i < schema.len() {
            return schema.column(i);
        }
        i -= schema.len();
    }
    None
}

/// [`stable_hash64`] of the formatted text, streamed: the same value as
/// hashing `format!(..)` of it, without building the string.
fn hash_fmt(args: std::fmt::Arguments<'_>) -> u64 {
    let mut h = StableHasher::new();
    // `StableHasher::write_str` cannot fail.
    let _ = h.write_fmt(args);
    h.finish()
}

/// The estimate `est` with, when the catalog is realistic, a truth scaled
/// by a deterministic factor in [0.25, 2.5] drawn from `h`.
fn perturbed(catalog: &Catalog, est: f64, h: impl FnOnce() -> u64) -> DualStats {
    if catalog.realistic_selectivity {
        DualStats::new((est * 0.25 * 10.0f64.powf(unit(h()))).clamp(1e-9, 1.0), est)
    } else {
        DualStats::exact(est)
    }
}

impl<'a> Binder<'a> {
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            plan: LogicalPlan::new(),
            symbols: FxHashMap::default(),
            schemas: Vec::new(),
        }
    }

    /// Bind a parsed script into a logical plan. An error names the span of
    /// the first token of the statement it is in.
    pub fn bind(mut self, script: &Script<'a>) -> Result<LogicalPlan, LangError> {
        self.symbols.reserve(script.statements.len());
        self.schemas.reserve(script.statements.len());
        for (i, stmt) in script.statements.iter().enumerate() {
            let span = script.spans.get(i).copied().unwrap_or_default();
            if let Some(name) = stmt.defines() {
                if self.symbols.contains_key(name) {
                    return Err(LangError::bind(span, format!("duplicate dataset {name}")));
                }
            }
            match stmt {
                Statement::Extract {
                    name,
                    columns,
                    path,
                    ..
                } => {
                    let schema =
                        Schema::new(columns.iter().map(|&(n, t)| Column::new(n, t)).collect());
                    let rows = self.catalog.lookup(path).rows;
                    let table = TableRef::new(*path, schema.clone(), rows);
                    let node = self.plan.add(LogicalOp::Extract { table }, vec![]);
                    self.define(name, node, schema);
                }
                Statement::Select { name, query } => {
                    let (node, schema) = self.bind_select(query, span)?;
                    self.define(name, node, schema);
                }
                Statement::Process { name, input, udf } => {
                    let (child, schema) = self.dataset(input, span)?;
                    // Deterministic per-UDF CPU factor in [1, 8]; opaque user
                    // code is the dominant CPU consumer in SCOPE jobs.
                    let h = stable_hash64(udf.as_bytes());
                    let cpu_factor = 1.0 + (h % 700) as f64 / 100.0;
                    let node = self.plan.add(
                        LogicalOp::Process {
                            udf: (*udf).into(),
                            cpu_factor,
                            out_ratio: DualStats::exact(1.0),
                        },
                        vec![child],
                    );
                    self.symbols.insert(name, (node, schema));
                }
                Statement::Window {
                    name,
                    input,
                    partition_by,
                    funcs,
                } => {
                    let (child, input) = self.dataset(input, span)?;
                    let input_schema = &self.schemas[input];
                    let scope: &Scope<'_> = &[("", input_schema)];
                    let mut cols = Vec::with_capacity(partition_by.len());
                    for c in partition_by {
                        cols.push(resolve(scope, c, span)?);
                    }
                    let mut lowered = Vec::with_capacity(funcs.len());
                    for f in funcs {
                        let input_col = match &f.column {
                            Some(c) => Some(resolve(scope, c, span)?),
                            None => None,
                        };
                        let func = match f.func {
                            "COUNT" => AggFunc::Count,
                            "SUM" => AggFunc::Sum,
                            "MIN" => AggFunc::Min,
                            "MAX" => AggFunc::Max,
                            "AVG" => AggFunc::Avg,
                            other => {
                                return Err(LangError::bind(
                                    span,
                                    format!("unknown window aggregate {other}"),
                                ));
                            }
                        };
                        lowered.push(AggExpr::new(func, input_col, f.alias));
                    }
                    // Window output = input columns plus one per function.
                    let mut out_cols = Vec::with_capacity(input_schema.len() + funcs.len());
                    out_cols.extend_from_slice(input_schema.columns());
                    out_cols.extend(funcs.iter().map(|f| Column::new(f.alias, DataType::Float)));
                    let node = self.plan.add(
                        LogicalOp::Window {
                            partition_by: cols,
                            funcs: lowered,
                        },
                        vec![child],
                    );
                    self.define(name, node, Schema::new(out_cols));
                }
                Statement::Union { name, inputs } => {
                    // The parser enforces this too, but a hand-built
                    // `Script` reaches the binder without it.
                    let (first, rest) = match inputs.as_slice() {
                        [first, rest @ ..] if !rest.is_empty() => (first, rest),
                        _ => return Err(LangError::bind(span, "UNION needs at least 2 inputs")),
                    };
                    let (first, schema) = self.dataset(first, span)?;
                    let width = self.schemas[schema].len();
                    let mut children = Vec::with_capacity(inputs.len());
                    children.push(first);
                    for input in rest {
                        let (node, s) = self.dataset(input, span)?;
                        let other = self.schemas[s].len();
                        if width != other {
                            return Err(LangError::bind(
                                span,
                                format!("UNION width mismatch: {width} vs {other} columns"),
                            ));
                        }
                        children.push(node);
                    }
                    let node = self.plan.add(LogicalOp::Union, children);
                    self.symbols.insert(name, (node, schema));
                }
                Statement::Output { input, path } => {
                    let (child, _) = self.dataset(input, span)?;
                    self.plan.add_output(*path, child);
                }
            }
        }
        if self.plan.outputs().is_empty() {
            return Err(LangError::bind(
                Span::default(),
                "script has no OUTPUT statement",
            ));
        }
        debug_assert!(self.plan.validate().is_ok(), "binder produced invalid plan");
        Ok(self.plan)
    }

    fn define(&mut self, name: &'a str, node: NodeId, schema: Schema) {
        self.symbols.insert(name, (node, self.schemas.len()));
        self.schemas.push(schema);
    }

    /// A bound dataset's plan node and schema index.
    fn dataset(&self, name: &str, span: Span) -> Result<(NodeId, usize), LangError> {
        self.symbols
            .get(name)
            .copied()
            .ok_or_else(|| LangError::bind(span, format!("unknown dataset {name}")))
    }

    fn bind_select(
        &mut self,
        query: &SelectStmt<'a>,
        span: Span,
    ) -> Result<(NodeId, Schema), LangError> {
        // FROM + JOINs build the scope.
        let (mut node, from) = self.dataset(query.from.name, span)?;
        let mut scope = Vec::with_capacity(1 + query.joins.len());
        scope.push((query.from.effective_alias(), &self.schemas[from]));
        for join in &query.joins {
            let (right, right_schema) = self.dataset(join.table.name, span)?;
            let right_scope = (join.table.effective_alias(), &self.schemas[right_schema]);
            let mut on = Vec::with_capacity(join.on.len());
            for (l, r) in &join.on {
                // Either side of the condition may name either input.
                let (li, ri) = match (resolve(&scope, l, span), resolve(&[right_scope], r, span)) {
                    (Ok(li), Ok(ri)) => (li, ri),
                    _ => {
                        let li = resolve(&scope, r, span)?;
                        let ri = resolve(&[right_scope], l, span)?;
                        (li, ri)
                    }
                };
                on.push((li, ri));
            }
            // Join selectivity: textbook 1/max(distinct) is unavailable at
            // bind time, use a key-join default with deterministic truth
            // perturbation (same mechanism as filters).
            let selectivity = perturbed(self.catalog, 0.001, || {
                hash_fmt(format_args!(
                    "{}|{}|{on:?}",
                    query.from.name, join.table.name
                ))
            });
            node = self.plan.add(
                LogicalOp::Join {
                    kind: JoinKind::Inner,
                    on,
                    selectivity,
                },
                vec![node, right],
            );
            scope.push(right_scope);
        }

        // WHERE.
        if let Some(pred) = &query.predicate {
            let predicate = lower_expr(pred, &scope, span)?;
            let selectivity = self.catalog.filter_selectivity(&predicate);
            node = self.plan.add(
                LogicalOp::Filter {
                    predicate,
                    selectivity,
                },
                vec![node],
            );
        }

        // Aggregation vs projection.
        let has_agg = query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Agg { .. }));
        let schema;
        if has_agg || !query.group_by.is_empty() {
            let mut group_idx = Vec::with_capacity(query.group_by.len());
            for g in &query.group_by {
                group_idx.push(resolve(&scope, g, span)?);
            }
            let mut aggs = Vec::with_capacity(query.items.len());
            for item in &query.items {
                match item {
                    SelectItem::Agg {
                        func,
                        distinct,
                        column,
                        alias,
                    } => {
                        let input = match column {
                            Some(c) => Some(resolve(&scope, c, span)?),
                            None => None,
                        };
                        let func = match (*func, distinct) {
                            ("COUNT", true) => AggFunc::CountDistinct,
                            ("COUNT", false) => AggFunc::Count,
                            ("SUM", _) => AggFunc::Sum,
                            ("MIN", _) => AggFunc::Min,
                            ("MAX", _) => AggFunc::Max,
                            ("AVG", _) => AggFunc::Avg,
                            (other, _) => {
                                return Err(LangError::bind(
                                    span,
                                    format!("unknown aggregate {other}"),
                                ));
                            }
                        };
                        aggs.push(AggExpr::new(func, input, *alias));
                    }
                    SelectItem::Expr {
                        expr: Expr::Column(c),
                        ..
                    } => {
                        // Non-aggregate items must be grouping columns.
                        let idx = resolve(&scope, c, span)?;
                        if !group_idx.contains(&idx) {
                            return Err(LangError::bind(
                                span,
                                format!("column {c} must appear in GROUP BY"),
                            ));
                        }
                    }
                    SelectItem::Wildcard => {
                        return Err(LangError::bind(span, "SELECT * cannot be aggregated"));
                    }
                    SelectItem::Expr { .. } => {
                        return Err(LangError::bind(
                            span,
                            "non-column expressions must appear inside aggregates",
                        ));
                    }
                }
            }
            // Group ratio: estimate from a fixed per-key reduction heuristic,
            // truth perturbed deterministically (recurring instances vary).
            let est_ratio = 0.1f64.powi(group_idx.len().max(1) as i32).max(1e-6);
            let group_ratio = perturbed(self.catalog, est_ratio, || {
                hash_fmt(format_args!("agg|{group_idx:?}"))
            });
            let mut cols = Vec::with_capacity(group_idx.len() + aggs.len());
            cols.extend(group_idx.iter().filter_map(|&i| column(&scope, i).cloned()));
            cols.extend(
                aggs.iter()
                    .map(|a| Column::new(a.alias.as_str(), DataType::Float)),
            );
            schema = Schema::new(cols);
            node = self.plan.add(
                LogicalOp::Aggregate {
                    group_by: group_idx,
                    aggs,
                    group_ratio,
                },
                vec![node],
            );
        } else if query.items.len() == 1 && matches!(query.items[0], SelectItem::Wildcard) {
            schema = Schema::new(
                scope
                    .iter()
                    .flat_map(|(_, s)| s.columns())
                    .cloned()
                    .collect(),
            );
        } else {
            let mut exprs = Vec::with_capacity(query.items.len());
            let mut cols = Vec::with_capacity(query.items.len());
            for item in &query.items {
                let SelectItem::Expr { expr, alias } = item else {
                    unreachable!("aggregates handled above")
                };
                let lowered = lower_expr(expr, &scope, span)?;
                let name = match (alias, expr) {
                    (Some(alias), _) => (*alias).to_owned(),
                    (None, Expr::Column(c)) => c.name.to_owned(),
                    (None, _) => format!("col{}", cols.len()),
                };
                let source = match &lowered {
                    ScalarExpr::Column(i) => column(&scope, *i),
                    _ => None,
                };
                cols.push(match (alias, source) {
                    // An unaliased column keeps its input's name.
                    (None, Some(source)) => source.clone(),
                    _ => Column::new(name.as_str(), source.map_or(DataType::Float, |c| c.ty)),
                });
                exprs.push((lowered, name));
            }
            schema = Schema::new(cols);
            node = self.plan.add(LogicalOp::Project { exprs }, vec![node]);
        }

        // ORDER BY resolves against the post-projection schema.
        if !query.order_by.is_empty() {
            let mut keys = Vec::with_capacity(query.order_by.len());
            for k in &query.order_by {
                let column = resolve(&[("", &schema)], &k.column, span)?;
                keys.push(SortKey {
                    column,
                    descending: k.descending,
                });
            }
            node = match query.top {
                Some(k) => self.plan.add(LogicalOp::Top { k, keys }, vec![node]),
                None => self.plan.add(LogicalOp::Sort { keys }, vec![node]),
            };
        }
        Ok((node, schema))
    }
}

fn lower_expr(expr: &Expr<'_>, scope: &Scope<'_>, span: Span) -> Result<ScalarExpr, LangError> {
    Ok(match expr {
        Expr::Column(c) => ScalarExpr::Column(resolve(scope, c, span)?),
        Expr::IntLit(v) => ScalarExpr::Literal(Value::Int(*v)),
        Expr::FloatLit(v) => ScalarExpr::Literal(Value::Float(*v)),
        Expr::StrLit(s) => ScalarExpr::Literal(Value::Str((*s).to_owned())),
        Expr::Binary { op, left, right } => ScalarExpr::Binary {
            op: match op {
                AstBinOp::Eq => BinOp::Eq,
                AstBinOp::Ne => BinOp::Ne,
                AstBinOp::Lt => BinOp::Lt,
                AstBinOp::Le => BinOp::Le,
                AstBinOp::Gt => BinOp::Gt,
                AstBinOp::Ge => BinOp::Ge,
                AstBinOp::And => BinOp::And,
                AstBinOp::Or => BinOp::Or,
                AstBinOp::Add => BinOp::Add,
                AstBinOp::Sub => BinOp::Sub,
                AstBinOp::Mul => BinOp::Mul,
                AstBinOp::Div => BinOp::Div,
            },
            left: Box::new(lower_expr(left, scope, span)?),
            right: Box::new(lower_expr(right, scope, span)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::logical::LogicalOp;

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        big   = SELECT user, spend FROM sales WHERE spend > 100;
        j     = SELECT * FROM big AS b JOIN users AS u ON b.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
        OUTPUT big TO "out/big_sales";
    "#;

    #[test]
    fn binds_full_script_to_valid_dag() {
        let plan = bind_script(SCRIPT, &Catalog::default()).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.outputs().len(), 2);
        assert_eq!(plan.count_tag("Extract"), 2);
        assert_eq!(plan.count_tag("Join"), 1);
        assert_eq!(plan.count_tag("Aggregate"), 1);
    }

    #[test]
    fn shared_subplans_are_shared_nodes() {
        let plan = bind_script(SCRIPT, &Catalog::default()).unwrap();
        // `big` feeds both the join and its own output: node appears in both
        // output trees.
        let t0 = plan.output_tree(plan.outputs()[0]);
        let t1 = plan.output_tree(plan.outputs()[1]);
        let shared: Vec<_> = t0.iter().filter(|n| t1.contains(n)).collect();
        assert!(!shared.is_empty(), "outputs must share the `big` sub-plan");
    }

    #[test]
    fn catalog_rows_flow_into_table_refs() {
        let mut catalog = Catalog::default();
        catalog.register(
            "store/sales",
            TableInfo {
                rows: DualStats::new(5000.0, 9000.0),
            },
        );
        let plan = bind_script(SCRIPT, &catalog).unwrap();
        let scan = plan
            .topo_order()
            .into_iter()
            .find_map(|id| match &plan.node(id).op {
                LogicalOp::Extract { table } if &*table.name == "store/sales" => {
                    Some(table.clone())
                }
                _ => None,
            })
            .unwrap();
        assert!((scan.rows.actual - 5000.0).abs() < 1e-9);
        assert!((scan.rows.estimated - 9000.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_dataset_is_bind_error() {
        let err = bind_script(r#"OUTPUT nothing TO "o";"#, &Catalog::default()).unwrap_err();
        assert!(err.to_string().contains("unknown dataset"), "{err}");
    }

    #[test]
    fn duplicate_dataset_is_bind_error() {
        let src = r#"
            a = EXTRACT x:int FROM "t";
            a = EXTRACT y:int FROM "t";
            OUTPUT a TO "o";
        "#;
        let err = bind_script(src, &Catalog::default()).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn bind_errors_name_the_statement_they_are_in() {
        let cases = [
            ("r = SELECT * FROM nope;", "2:1", "unknown dataset nope"),
            ("\n  r = SELECT zz FROM d;", "3:3", "unknown column zz"),
            (
                "d = EXTRACT y:int FROM \"t\";",
                "2:1",
                "duplicate dataset d",
            ),
        ];
        for (statement, at, message) in cases {
            let src = format!("d = EXTRACT x:int FROM \"t\";\n{statement}\nOUTPUT d TO \"o\";");
            let err = bind_script(&src, &Catalog::default()).unwrap_err();
            assert_eq!(err.to_string(), format!("bind error at {at}: {message}"));
        }
    }

    #[test]
    fn ambiguous_column_is_bind_error() {
        let src = r#"
            a = EXTRACT x:int FROM "t1";
            b = EXTRACT x:int FROM "t2";
            j = SELECT x FROM a JOIN b ON a.x == b.x;
            OUTPUT j TO "o";
        "#;
        let err = bind_script(src, &Catalog::default()).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn group_by_validation_rejects_ungrouped_columns() {
        let src = r#"
            a = EXTRACT x:int, y:int FROM "t";
            g = SELECT y, COUNT(*) AS n FROM a GROUP BY x;
            OUTPUT g TO "o";
        "#;
        let err = bind_script(src, &Catalog::default()).unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn filter_selectivity_diverges_deterministically() {
        let catalog = Catalog::default();
        let pred = ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(0), ScalarExpr::lit_int(5));
        let s1 = catalog.filter_selectivity(&pred);
        let s2 = catalog.filter_selectivity(&pred);
        assert_eq!(s1, s2, "determinism");
        assert!((s1.estimated - pred.heuristic_selectivity()).abs() < 1e-12);
        // Exact mode has no divergence.
        let exact = Catalog {
            realistic_selectivity: false,
            ..Catalog::default()
        };
        let s3 = exact.filter_selectivity(&pred);
        assert!((s3.actual - s3.estimated).abs() < 1e-12);
    }

    #[test]
    fn top_lowering_produces_top_operator() {
        let src = r#"
            a = EXTRACT x:int, y:int FROM "t";
            t = SELECT x, y FROM a ORDER BY y DESC;
            k = SELECT TOP 5 x, y FROM a ORDER BY x;
            OUTPUT t TO "o1";
            OUTPUT k TO "o2";
        "#;
        let plan = bind_script(src, &Catalog::default()).unwrap();
        assert_eq!(plan.count_tag("Sort"), 1);
        assert_eq!(plan.count_tag("Top"), 1);
    }

    #[test]
    fn union_requires_same_width() {
        let src = r#"
            a = EXTRACT x:int FROM "t1";
            b = EXTRACT x:int, y:int FROM "t2";
            u = UNION a, b;
            OUTPUT u TO "o";
        "#;
        let err = bind_script(src, &Catalog::default()).unwrap_err();
        assert!(err.to_string().contains("width mismatch"), "{err}");
    }

    #[test]
    fn hand_built_union_of_fewer_than_two_inputs_is_bind_error() {
        for inputs in [vec![], vec!["a"]] {
            let script = Script {
                statements: vec![
                    Statement::Extract {
                        name: "a",
                        columns: vec![("x", DataType::Int)],
                        path: "t",
                        extractor: None,
                    },
                    Statement::Union { name: "u", inputs },
                ],
                spans: vec![],
            };
            let err = Binder::new(&Catalog::default()).bind(&script).unwrap_err();
            assert!(err.to_string().contains("at least 2 inputs"), "{err}");
        }
    }

    #[test]
    fn process_gets_deterministic_cpu_factor() {
        let src = r#"
            a = EXTRACT x:int FROM "t";
            p = PROCESS a USING HeavyModel;
            OUTPUT p TO "o";
        "#;
        let plan1 = bind_script(src, &Catalog::default()).unwrap();
        let plan2 = bind_script(src, &Catalog::default()).unwrap();
        let factor = |plan: &LogicalPlan| {
            plan.topo_order()
                .into_iter()
                .find_map(|id| match &plan.node(id).op {
                    LogicalOp::Process { cpu_factor, .. } => Some(*cpu_factor),
                    _ => None,
                })
                .unwrap()
        };
        assert!((factor(&plan1) - factor(&plan2)).abs() < 1e-12);
        assert!(factor(&plan1) >= 1.0);
    }

    #[test]
    fn template_id_stable_across_literal_changes() {
        let make = |threshold: i64| {
            let src = format!(
                r#"
                a = EXTRACT x:int, y:int FROM "t";
                f = SELECT x, y FROM a WHERE x > {threshold};
                OUTPUT f TO "o";
            "#
            );
            bind_script(&src, &Catalog::default())
                .unwrap()
                .template_id()
        };
        assert_eq!(make(10), make(9999));
    }
}
