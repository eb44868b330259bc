//! Abstract syntax for the SCOPE-like script language. Unlike the IR,
//! expressions here reference columns *by name* (optionally qualified by the
//! dataset alias); the binder resolves names to positional indices.

use crate::error::Span;
use scope_ir::schema::DataType;

/// A whole script: an ordered list of statements. Names, paths and string
/// literals borrow from the script source.
#[derive(Debug, Clone, PartialEq)]
pub struct Script<'a> {
    pub statements: Vec<Statement<'a>>,
    /// The span of each statement's first token, index for index: where a
    /// bind error in that statement is reported.
    pub spans: Vec<Span>,
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement<'a> {
    /// `name = EXTRACT col:type, ... FROM "path" [USING Extractor];`
    Extract {
        name: &'a str,
        columns: Vec<(&'a str, DataType)>,
        path: &'a str,
        extractor: Option<&'a str>,
    },
    /// `name = SELECT ... ;`
    Select {
        name: &'a str,
        query: SelectStmt<'a>,
    },
    /// `name = PROCESS input USING Udf;`
    Process {
        name: &'a str,
        input: &'a str,
        udf: &'a str,
    },
    /// `name = UNION a, b, c;`
    Union { name: &'a str, inputs: Vec<&'a str> },
    /// `name = WINDOW input PARTITION BY cols AGGREGATE SUM(x) AS s, ...;`
    Window {
        name: &'a str,
        input: &'a str,
        partition_by: Vec<ColumnRef<'a>>,
        funcs: Vec<WindowFunc<'a>>,
    },
    /// `OUTPUT name TO "path";`
    Output { input: &'a str, path: &'a str },
}

impl<'a> Statement<'a> {
    /// The dataset name this statement defines, if any.
    #[must_use]
    pub fn defines(&self) -> Option<&'a str> {
        match *self {
            Statement::Extract { name, .. }
            | Statement::Select { name, .. }
            | Statement::Process { name, .. }
            | Statement::Union { name, .. }
            | Statement::Window { name, .. } => Some(name),
            Statement::Output { .. } => None,
        }
    }
}

/// One windowed aggregate, e.g. `SUM(v) AS total`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFunc<'a> {
    /// Upper-case function name, one of the parser's aggregates.
    pub func: &'static str,
    /// `None` means `COUNT(*)`.
    pub column: Option<ColumnRef<'a>>,
    pub alias: &'a str,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt<'a> {
    /// `SELECT TOP k` limit, if present (requires ORDER BY).
    pub top: Option<u64>,
    pub items: Vec<SelectItem<'a>>,
    /// First (driving) input dataset.
    pub from: TableAlias<'a>,
    /// Zero or more `JOIN x ON a == b` clauses, applied left-to-right.
    pub joins: Vec<JoinClause<'a>>,
    pub predicate: Option<Expr<'a>>,
    pub group_by: Vec<ColumnRef<'a>>,
    pub order_by: Vec<OrderKey<'a>>,
}

/// A dataset reference with an optional alias (`sales AS s`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableAlias<'a> {
    pub name: &'a str,
    pub alias: Option<&'a str>,
}

impl<'a> TableAlias<'a> {
    /// The name columns may be qualified with.
    #[must_use]
    pub fn effective_alias(&self) -> &'a str {
        self.alias.unwrap_or(self.name)
    }
}

/// One `JOIN <table> ON <left-col> == <right-col> [AND ...]` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause<'a> {
    pub table: TableAlias<'a>,
    /// Equi-join conditions: pairs of column references.
    pub on: Vec<(ColumnRef<'a>, ColumnRef<'a>)>,
}

/// Items of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem<'a> {
    /// `*`
    Wildcard,
    /// A scalar expression with an optional alias.
    Expr {
        expr: Expr<'a>,
        alias: Option<&'a str>,
    },
    /// An aggregate call, e.g. `SUM(x) AS total`. `column == None` is
    /// `COUNT(*)`; `func` is upper case.
    Agg {
        func: &'static str,
        distinct: bool,
        column: Option<ColumnRef<'a>>,
        alias: &'a str,
    },
}

/// A possibly-qualified column name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef<'a> {
    pub qualifier: Option<&'a str>,
    pub name: &'a str,
}

impl<'a> ColumnRef<'a> {
    #[must_use]
    pub fn bare(name: &'a str) -> Self {
        Self {
            qualifier: None,
            name,
        }
    }

    #[must_use]
    pub fn qualified(q: &'a str, name: &'a str) -> Self {
        Self {
            qualifier: Some(q),
            name,
        }
    }
}

impl std::fmt::Display for ColumnRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Scalar expressions (named columns).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'a> {
    Column(ColumnRef<'a>),
    IntLit(i64),
    FloatLit(f64),
    StrLit(&'a str),
    Binary {
        op: AstBinOp,
        left: Box<Expr<'a>>,
        right: Box<Expr<'a>>,
    },
}

/// Binary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
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

/// One ORDER BY key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderKey<'a> {
    pub column: ColumnRef<'a>,
    pub descending: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defines_reports_bound_name() {
        let s = Statement::Union {
            name: "u",
            inputs: vec!["a", "b"],
        };
        assert_eq!(s.defines(), Some("u"));
        let o = Statement::Output {
            input: "u",
            path: "p",
        };
        assert_eq!(o.defines(), None);
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("x").to_string(), "x");
        assert_eq!(ColumnRef::qualified("t", "x").to_string(), "t.x");
    }

    #[test]
    fn effective_alias_prefers_explicit() {
        let t = TableAlias {
            name: "sales",
            alias: Some("s"),
        };
        assert_eq!(t.effective_alias(), "s");
        let t2 = TableAlias {
            name: "sales",
            alias: None,
        };
        assert_eq!(t2.effective_alias(), "sales");
    }
}
