//! Scalar and aggregate expressions, plus textbook selectivity heuristics.
//!
//! The engine never materializes rows, so expressions exist for three
//! purposes: (1) carrying predicate structure that rewrite rules inspect,
//! (2) estimating selectivities the optimizer's cost model consumes, and
//! (3) normalizing into template signatures for recurring-job detection.

use serde::Serialize;
use std::fmt;

/// A literal value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// True for comparison operators that produce booleans.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Scalar expression over the input schema of an operator. Column references
/// are positional (`Column(i)` is the i-th input column), which keeps rewrite
/// rules free of name-resolution concerns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ScalarExpr {
    Column(usize),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    /// An opaque scalar UDF: SCOPE scripts routinely call user code. The
    /// `cpu_factor` scales per-row CPU work in the runtime profile.
    Udf {
        name: String,
        args: Vec<ScalarExpr>,
        cpu_factor: f64,
    },
}

impl ScalarExpr {
    pub fn col(i: usize) -> Self {
        ScalarExpr::Column(i)
    }

    pub fn lit_int(v: i64) -> Self {
        ScalarExpr::Literal(Value::Int(v))
    }

    pub fn binary(op: BinOp, left: ScalarExpr, right: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// All column indices referenced by this expression.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column(i) => out.push(*i),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            ScalarExpr::Udf { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Rewrite column references through `map`: `Column(i)` becomes
    /// `Column(map(i))`. Used when predicates are pushed through projections
    /// or join sides.
    #[must_use]
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Column(i) => ScalarExpr::Column(map(*i)),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(map)),
                right: Box::new(right.remap_columns(map)),
            },
            ScalarExpr::Udf {
                name,
                args,
                cpu_factor,
            } => ScalarExpr::Udf {
                name: name.clone(),
                args: args.iter().map(|a| a.remap_columns(map)).collect(),
                cpu_factor: *cpu_factor,
            },
        }
    }

    /// Textbook selectivity heuristic (System R-style defaults). This is what
    /// the *optimizer* believes; the workload generator attaches the true
    /// selectivity separately, so the gap between the two is a deliberate,
    /// controllable source of cost-model error (paper §2.2, §5.2).
    #[must_use]
    pub fn heuristic_selectivity(&self) -> f64 {
        match self {
            ScalarExpr::Binary { op, left, right } => match op {
                BinOp::Eq => 0.1,
                BinOp::Ne => 0.9,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1.0 / 3.0,
                BinOp::And => {
                    (left.heuristic_selectivity() * right.heuristic_selectivity()).max(1e-6)
                }
                BinOp::Or => {
                    let l = left.heuristic_selectivity();
                    let r = right.heuristic_selectivity();
                    (l + r - l * r).min(1.0)
                }
                _ => 1.0,
            },
            ScalarExpr::Udf { .. } => 0.5,
            _ => 1.0,
        }
    }

    /// Per-row CPU weight of evaluating this expression (arbitrary units,
    /// consumed by the runtime profile).
    #[must_use]
    pub fn cpu_weight(&self) -> f64 {
        match self {
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => 0.05,
            ScalarExpr::Binary { left, right, .. } => 0.1 + left.cpu_weight() + right.cpu_weight(),
            ScalarExpr::Udf {
                args, cpu_factor, ..
            } => 1.0 * cpu_factor + args.iter().map(ScalarExpr::cpu_weight).sum::<f64>(),
        }
    }

    /// A structural fingerprint that ignores literal *values* but keeps
    /// literal *presence*: two instances of the same recurring template parse
    /// to the same normalized form even though their filter constants differ.
    /// Written to any `fmt::Write`, so a hasher can take it without a
    /// `String` in between.
    pub fn normalized(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(out, "c{i}"),
            ScalarExpr::Literal(_) => out.write_char('?'),
            ScalarExpr::Binary { op, left, right } => {
                out.write_char('(')?;
                left.normalized(out)?;
                out.write_str(op.symbol())?;
                right.normalized(out)?;
                out.write_char(')')
            }
            ScalarExpr::Udf { name, args, .. } => {
                out.write_str(name)?;
                out.write_char('(')?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    a.normalized(out)?;
                }
                out.write_char(')')
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(f, "${i}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            ScalarExpr::Udf { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    CountDistinct,
}

impl AggFunc {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
            AggFunc::CountDistinct => "COUNT_DISTINCT",
        }
    }

    /// Whether the aggregate can be split into partial (local) and final
    /// (global) phases — the hook for the local/global aggregation rule.
    #[must_use]
    pub fn decomposable(self) -> bool {
        !matches!(self, AggFunc::CountDistinct)
    }
}

/// One aggregate expression, e.g. `SUM($2) AS total`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggExpr {
    pub func: AggFunc,
    /// Input column index; `None` means `COUNT(*)`.
    pub input: Option<usize>,
    pub alias: String,
}

impl AggExpr {
    pub fn new(func: AggFunc, input: Option<usize>, alias: impl Into<String>) -> Self {
        Self {
            func,
            input,
            alias: alias.into(),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.input {
            Some(i) => write!(f, "{}(${i}) AS {}", self.func.name(), self.alias),
            None => write!(f, "{}(*) AS {}", self.func.name(), self.alias),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred() -> ScalarExpr {
        // ($0 > 10) AND ($1 == "x")
        ScalarExpr::binary(
            BinOp::And,
            ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(0), ScalarExpr::lit_int(10)),
            ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col(1),
                ScalarExpr::Literal(Value::Str("x".into())),
            ),
        )
    }

    #[test]
    fn collect_columns_walks_tree() {
        let mut cols = Vec::new();
        pred().collect_columns(&mut cols);
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn remap_columns_shifts_indices() {
        let shifted = pred().remap_columns(&|i| i + 5);
        let mut cols = Vec::new();
        shifted.collect_columns(&mut cols);
        assert_eq!(cols, vec![5, 6]);
    }

    #[test]
    fn heuristic_selectivity_composes() {
        // AND of range (1/3) and equality (0.1).
        let s = pred().heuristic_selectivity();
        assert!((s - (1.0 / 3.0) * 0.1).abs() < 1e-12);
    }

    #[test]
    fn or_selectivity_is_inclusion_exclusion() {
        let p = ScalarExpr::binary(
            BinOp::Or,
            ScalarExpr::binary(BinOp::Eq, ScalarExpr::col(0), ScalarExpr::lit_int(1)),
            ScalarExpr::binary(BinOp::Eq, ScalarExpr::col(0), ScalarExpr::lit_int(2)),
        );
        let s = p.heuristic_selectivity();
        assert!((s - (0.1 + 0.1 - 0.01)).abs() < 1e-12);
    }

    #[test]
    fn normalized_ignores_literal_values() {
        let a = ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(0), ScalarExpr::lit_int(10));
        let b = ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(0), ScalarExpr::lit_int(99));
        let (mut na, mut nb) = (String::new(), String::new());
        a.normalized(&mut na).unwrap();
        b.normalized(&mut nb).unwrap();
        assert_eq!(na, nb);
        assert_eq!(na, "(c0>?)");
    }

    #[test]
    fn display_roundtrips_structure() {
        assert_eq!(pred().to_string(), "(($0 > 10) AND ($1 == \"x\"))");
        assert_eq!(
            AggExpr::new(AggFunc::Sum, Some(2), "t").to_string(),
            "SUM($2) AS t"
        );
        assert_eq!(
            AggExpr::new(AggFunc::Count, None, "n").to_string(),
            "COUNT(*) AS n"
        );
    }

    #[test]
    fn udf_cpu_weight_scales() {
        let u = ScalarExpr::Udf {
            name: "f".into(),
            args: vec![ScalarExpr::col(0)],
            cpu_factor: 3.0,
        };
        assert!(u.cpu_weight() > 3.0);
    }

    #[test]
    fn count_distinct_not_decomposable() {
        assert!(AggFunc::Sum.decomposable());
        assert!(!AggFunc::CountDistinct.decomposable());
    }
}
