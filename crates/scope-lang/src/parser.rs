//! Recursive-descent parser for the SCOPE-like script language.

use crate::ast::{
    AstBinOp, ColumnRef, Expr, JoinClause, OrderKey, Script, SelectItem, SelectStmt, Statement,
    TableAlias, WindowFunc,
};
use crate::error::{LangError, Span};
use crate::lexer::{tokenize, Spanned, Token};
use scope_ir::schema::DataType;

/// Deepest parenthesis nesting one expression may use. The parser re-enters
/// the whole precedence ladder per `(`, so without a cap a few thousand
/// parentheses overflow the stack instead of returning an error.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Most operands one expression may have. A chain of `n` binary operators is
/// a tree `n` deep, and everything after the parser (drop included) walks
/// it recursively, so the cap bounds that recursion too.
pub const MAX_EXPR_OPERANDS: usize = 1024;

/// Parse a script source into an AST that borrows its names from `src`.
///
/// # Errors
///
/// A [`LangError`] for any malformed script, including an expression
/// nested deeper than [`MAX_EXPR_DEPTH`] parentheses or with more than
/// [`MAX_EXPR_OPERANDS`] operands: hostile input fails typed, it never
/// aborts the process.
pub fn parse_script(src: &str) -> Result<Script<'_>, LangError> {
    let tokens = tokenize(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        operands: 0,
    }
    .script()
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    /// Open parentheses around the expression being parsed.
    depth: usize,
    /// Operands parsed so far in the current top-level expression.
    operands: usize,
}

const AGG_FUNCS: &[&str] = &["COUNT", "SUM", "MIN", "MAX", "AVG"];

/// The upper-case aggregate `name` spells, ignoring ASCII case.
fn agg_func(name: &str) -> Option<&'static str> {
    AGG_FUNCS
        .iter()
        .copied()
        .find(|f| f.eq_ignore_ascii_case(name))
}

/// Column type spellings, matched ignoring ASCII case.
const TYPES: [(&str, DataType); 7] = [
    ("int", DataType::Int),
    ("long", DataType::Int),
    ("float", DataType::Float),
    ("double", DataType::Float),
    ("bool", DataType::Bool),
    ("string", DataType::String { avg_len: 24 }),
    ("datetime", DataType::DateTime),
];

impl<'a> Parser<'a> {
    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos].token
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Token<'_>) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token<'_>, what: &str) -> Result<(), LangError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(LangError::parse(
                self.span(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, LangError> {
        match self.peek() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(LangError::parse(
                self.span(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn string(&mut self, what: &str) -> Result<&'a str, LangError> {
        match self.peek() {
            Token::StrLit(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(LangError::parse(
                self.span(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn script(&mut self) -> Result<Script<'a>, LangError> {
        // One statement per `;`, give or take a malformed tail.
        let n = self
            .tokens
            .iter()
            .filter(|t| t.token == Token::Semicolon)
            .count();
        let (mut statements, mut spans) = (Vec::with_capacity(n), Vec::with_capacity(n));
        while self.peek() != Token::Eof {
            spans.push(self.span());
            statements.push(self.statement()?);
        }
        Ok(Script { statements, spans })
    }

    fn statement(&mut self) -> Result<Statement<'a>, LangError> {
        if self.eat(Token::Output) {
            let input = self.ident("dataset name")?;
            self.expect(Token::To, "TO")?;
            let path = self.string("output path")?;
            self.expect(Token::Semicolon, ";")?;
            return Ok(Statement::Output { input, path });
        }
        let name = self.ident("statement name")?;
        self.expect(Token::Eq, "=")?;
        let stmt = match self.peek() {
            Token::Extract => {
                self.bump();
                self.extract(name)?
            }
            Token::Select => {
                self.bump();
                let query = self.select()?;
                Statement::Select { name, query }
            }
            Token::Process => {
                self.bump();
                let input = self.ident("input dataset")?;
                self.expect(Token::Using, "USING")?;
                let udf = self.ident("processor name")?;
                Statement::Process { name, input, udf }
            }
            Token::Window => {
                self.bump();
                let input = self.ident("input dataset")?;
                self.expect(Token::Partition, "PARTITION")?;
                self.expect(Token::By, "BY")?;
                let partition_by = self.list(Token::Comma, Self::column_ref)?;
                self.expect(Token::Aggregate, "AGGREGATE")?;
                let funcs = self.list(Token::Comma, Self::window_func)?;
                Statement::Window {
                    name,
                    input,
                    partition_by,
                    funcs,
                }
            }
            Token::Union => {
                self.bump();
                let inputs = self.list(Token::Comma, |p| p.ident("dataset name"))?;
                if inputs.len() < 2 {
                    return Err(LangError::parse(
                        self.span(),
                        "UNION needs at least 2 inputs",
                    ));
                }
                Statement::Union { name, inputs }
            }
            other => {
                return Err(LangError::parse(
                    self.span(),
                    format!("expected EXTRACT/SELECT/PROCESS/UNION, found {other:?}"),
                ));
            }
        };
        self.expect(Token::Semicolon, ";")?;
        Ok(stmt)
    }

    /// One or more `item`s separated by `sep`.
    fn list<T>(
        &mut self,
        sep: Token<'_>,
        mut item: impl FnMut(&mut Self) -> Result<T, LangError>,
    ) -> Result<Vec<T>, LangError> {
        // Script lists are short: one allocation covers most of them.
        let mut items = Vec::with_capacity(4);
        items.push(item(self)?);
        while self.eat(sep) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn extract(&mut self, name: &'a str) -> Result<Statement<'a>, LangError> {
        let columns = self.list(Token::Comma, Self::column_def)?;
        self.expect(Token::From, "FROM")?;
        let path = self.string("input path")?;
        let extractor = if self.eat(Token::Using) {
            Some(self.ident("extractor name")?)
        } else {
            None
        };
        Ok(Statement::Extract {
            name,
            columns,
            path,
            extractor,
        })
    }

    /// `name:type`
    fn column_def(&mut self) -> Result<(&'a str, DataType), LangError> {
        let col = self.ident("column name")?;
        self.expect(Token::Colon, ":")?;
        let ty_name = self.ident("type name")?;
        match TYPES.iter().find(|(n, _)| n.eq_ignore_ascii_case(ty_name)) {
            Some(&(_, ty)) => Ok((col, ty)),
            None => Err(LangError::parse(
                self.span(),
                format!("unknown type {}", ty_name.to_ascii_lowercase()),
            )),
        }
    }

    fn select(&mut self) -> Result<SelectStmt<'a>, LangError> {
        let top = if self.eat(Token::Top) {
            match self.bump() {
                Token::IntLit(v) if v > 0 => Some(v as u64),
                other => {
                    return Err(LangError::parse(
                        self.span(),
                        format!("expected positive TOP count, found {other:?}"),
                    ));
                }
            }
        } else {
            None
        };
        let items = self.select_items()?;
        self.expect(Token::From, "FROM")?;
        let from = self.table_alias()?;
        let mut joins = Vec::new();
        while self.eat(Token::Join) {
            let table = self.table_alias()?;
            self.expect(Token::On, "ON")?;
            let on = self.list(Token::And, Self::join_condition)?;
            joins.push(JoinClause { table, on });
        }
        let predicate = if self.eat(Token::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat(Token::Group) {
            self.expect(Token::By, "BY")?;
            group_by = self.list(Token::Comma, Self::column_ref)?;
        }
        let mut order_by = Vec::new();
        if self.eat(Token::Order) {
            self.expect(Token::By, "BY")?;
            order_by = self.list(Token::Comma, Self::order_key)?;
        }
        if top.is_some() && order_by.is_empty() {
            return Err(LangError::parse(
                self.span(),
                "SELECT TOP requires ORDER BY",
            ));
        }
        Ok(SelectStmt {
            top,
            items,
            from,
            joins,
            predicate,
            group_by,
            order_by,
        })
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem<'a>>, LangError> {
        if self.eat(Token::Star) {
            return Ok(vec![SelectItem::Wildcard]);
        }
        self.list(Token::Comma, Self::select_item)
    }

    fn order_key(&mut self) -> Result<OrderKey<'a>, LangError> {
        let column = self.column_ref()?;
        let descending = if self.eat(Token::Desc) {
            true
        } else {
            self.eat(Token::Asc);
            false
        };
        Ok(OrderKey { column, descending })
    }

    fn select_item(&mut self) -> Result<SelectItem<'a>, LangError> {
        // Aggregate call?
        if let Token::Ident(name) = self.peek() {
            let call = self.tokens.get(self.pos + 1).map(|s| s.token) == Some(Token::LParen);
            if let Some(func) = agg_func(name).filter(|_| call) {
                self.bump(); // func name
                self.bump(); // (
                let distinct = self.eat(Token::Distinct);
                let column = if self.eat(Token::Star) {
                    None
                } else {
                    Some(self.column_ref()?)
                };
                self.expect(Token::RParen, ")")?;
                self.expect(Token::As, "AS (aggregates must be aliased)")?;
                let alias = self.ident("alias")?;
                return Ok(SelectItem::Agg {
                    func,
                    distinct,
                    column,
                    alias,
                });
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat(Token::As) {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn window_func(&mut self) -> Result<WindowFunc<'a>, LangError> {
        let name = self.ident("aggregate function")?;
        let Some(func) = agg_func(name) else {
            return Err(LangError::parse(
                self.span(),
                format!("unknown aggregate {}", name.to_ascii_uppercase()),
            ));
        };
        self.expect(Token::LParen, "(")?;
        let column = if self.eat(Token::Star) {
            None
        } else {
            Some(self.column_ref()?)
        };
        self.expect(Token::RParen, ")")?;
        self.expect(Token::As, "AS (window aggregates must be aliased)")?;
        let alias = self.ident("alias")?;
        Ok(WindowFunc {
            func,
            column,
            alias,
        })
    }

    fn table_alias(&mut self) -> Result<TableAlias<'a>, LangError> {
        let name = self.ident("dataset name")?;
        let alias = if self.eat(Token::As) {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(TableAlias { name, alias })
    }

    fn join_condition(&mut self) -> Result<(ColumnRef<'a>, ColumnRef<'a>), LangError> {
        let l = self.column_ref()?;
        self.expect(Token::EqEq, "==")?;
        let r = self.column_ref()?;
        Ok((l, r))
    }

    fn column_ref(&mut self) -> Result<ColumnRef<'a>, LangError> {
        let first = self.ident("column name")?;
        if self.eat(Token::Dot) {
            let second = self.ident("column name")?;
            Ok(ColumnRef::qualified(first, second))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    /// A top-level expression: its nesting and operand budgets start afresh.
    fn expr(&mut self) -> Result<Expr<'a>, LangError> {
        self.depth = 0;
        self.operands = 0;
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr<'a>, LangError> {
        let mut left = self.and_expr()?;
        while self.eat(Token::Or) {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: AstBinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr<'a>, LangError> {
        let mut left = self.cmp_expr()?;
        while self.eat(Token::And) {
            let right = self.cmp_expr()?;
            left = Expr::Binary {
                op: AstBinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr<'a>, LangError> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Token::EqEq => AstBinOp::Eq,
            Token::Ne => AstBinOp::Ne,
            Token::Lt => AstBinOp::Lt,
            Token::Le => AstBinOp::Le,
            Token::Gt => AstBinOp::Gt,
            Token::Ge => AstBinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn add_expr(&mut self) -> Result<Expr<'a>, LangError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Plus => AstBinOp::Add,
                Token::Minus => AstBinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr<'a>, LangError> {
        let mut left = self.atom()?;
        loop {
            let op = match self.peek() {
                Token::Star => AstBinOp::Mul,
                Token::Slash => AstBinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.atom()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Expr<'a>, LangError> {
        self.operands += 1;
        if self.operands > MAX_EXPR_OPERANDS {
            return Err(LangError::parse(
                self.span(),
                format!("expression has more than {MAX_EXPR_OPERANDS} operands"),
            ));
        }
        match self.peek() {
            Token::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            Token::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            Token::StrLit(s) => {
                self.bump();
                Ok(Expr::StrLit(s))
            }
            Token::Ident(_) => Ok(Expr::Column(self.column_ref()?)),
            Token::LParen => {
                if self.depth == MAX_EXPR_DEPTH {
                    return Err(LangError::parse(
                        self.span(),
                        format!("expression nests deeper than {MAX_EXPR_DEPTH} parentheses"),
                    ));
                }
                self.bump();
                self.depth += 1;
                let e = self.or_expr()?;
                self.depth -= 1;
                self.expect(Token::RParen, ")")?;
                Ok(e)
            }
            other => Err(LangError::parse(
                self.span(),
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `r = SELECT * FROM d WHERE <predicate>;` over an extracted `d`,
    /// then output.
    fn with_predicate(predicate: &str) -> String {
        format!(
            "d = EXTRACT k:int FROM \"p\";\nr = SELECT * FROM d WHERE {predicate};\nOUTPUT r TO \"o\";"
        )
    }

    #[test]
    fn deep_parentheses_are_an_error_not_a_stack_overflow() {
        let n = 100_000;
        let src = with_predicate(&format!("{}k{} > 1", "(".repeat(n), ")".repeat(n)));
        let err = parse_script(&src).unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("parentheses"), "{err}");
        // The cap itself still parses.
        let d = MAX_EXPR_DEPTH;
        let src = with_predicate(&format!("{}k{} > 1", "(".repeat(d), ")".repeat(d)));
        assert!(parse_script(&src).is_ok());
    }

    #[test]
    fn long_operator_chains_are_an_error_not_a_stack_overflow() {
        let chain = |terms: usize| vec!["k"; terms].join(" + ");
        let err = parse_script(&with_predicate(&format!("{} > 1", chain(1_000_000)))).unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("operands"), "{err}");
        // The cap counts the comparison's right side too, and leaves the
        // binder's recursion room on the same thread.
        let at_cap = format!("{} > 1", chain(MAX_EXPR_OPERANDS - 1));
        let catalog = crate::binder::Catalog::default();
        assert!(crate::binder::bind_script(&with_predicate(&at_cap), &catalog).is_ok());
        let over = format!("{} > 1", chain(MAX_EXPR_OPERANDS));
        assert!(parse_script(&with_predicate(&over)).is_err());
        // The budget is per expression, not per script.
        let two = format!("{0} > 1 AND {0} > 1", chain(MAX_EXPR_OPERANDS / 4));
        let src = format!(
            "{}\ns = SELECT * FROM r WHERE {two};",
            with_predicate(&at_cap)
        );
        assert!(parse_script(&src).is_ok());
    }

    #[test]
    fn parses_extract() {
        let s = parse_script(r#"d = EXTRACT a:int, b:string FROM "p" USING Tsv;"#).unwrap();
        match &s.statements[0] {
            Statement::Extract {
                name,
                columns,
                path,
                extractor,
            } => {
                assert_eq!(*name, "d");
                assert_eq!(columns.len(), 2);
                assert_eq!(*path, "p");
                assert_eq!(extractor.as_deref(), Some("Tsv"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_select_with_all_clauses() {
        let src = r#"
            r = SELECT TOP 10 a, SUM(b) AS t FROM d AS x
                JOIN e ON x.a == e.a
                WHERE a > 3 AND b != 0
                GROUP BY a
                ORDER BY t DESC;
        "#;
        let s = parse_script(src).unwrap();
        match &s.statements[0] {
            Statement::Select { query, .. } => {
                assert_eq!(query.top, Some(10));
                assert_eq!(query.items.len(), 2);
                assert_eq!(query.joins.len(), 1);
                assert!(query.predicate.is_some());
                assert_eq!(query.group_by.len(), 1);
                assert_eq!(query.order_by.len(), 1);
                assert!(query.order_by[0].descending);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn top_without_order_by_is_rejected() {
        let err = parse_script("r = SELECT TOP 5 * FROM d;").unwrap_err();
        assert!(err.to_string().contains("ORDER BY"), "{err}");
    }

    #[test]
    fn parses_union_and_process_and_output() {
        let src = r#"
            u = UNION a, b, c;
            p = PROCESS u USING Cleanse;
            OUTPUT p TO "out";
        "#;
        let s = parse_script(src).unwrap();
        assert_eq!(s.statements.len(), 3);
        assert!(matches!(&s.statements[0], Statement::Union { inputs, .. } if inputs.len() == 3));
        assert!(matches!(&s.statements[1], Statement::Process { udf, .. } if *udf == "Cleanse"));
        assert!(matches!(&s.statements[2], Statement::Output { path, .. } if *path == "out"));
    }

    #[test]
    fn expression_precedence_and_over_or() {
        let s = parse_script("r = SELECT * FROM d WHERE a == 1 OR b == 2 AND c == 3;").unwrap();
        let Statement::Select { query, .. } = &s.statements[0] else {
            panic!()
        };
        let Some(Expr::Binary { op, .. }) = &query.predicate else {
            panic!()
        };
        assert_eq!(*op, AstBinOp::Or);
    }

    #[test]
    fn arithmetic_precedence_mul_over_add() {
        let s = parse_script("r = SELECT a + b * 2 AS v FROM d;").unwrap();
        let Statement::Select { query, .. } = &s.statements[0] else {
            panic!()
        };
        let SelectItem::Expr {
            expr: Expr::Binary { op, .. },
            ..
        } = &query.items[0]
        else {
            panic!()
        };
        assert_eq!(*op, AstBinOp::Add);
    }

    #[test]
    fn count_distinct_parses() {
        let s = parse_script("r = SELECT COUNT(DISTINCT u) AS n FROM d GROUP BY g;").unwrap();
        let Statement::Select { query, .. } = &s.statements[0] else {
            panic!()
        };
        assert!(matches!(
            &query.items[0],
            SelectItem::Agg { distinct: true, .. }
        ));
    }

    #[test]
    fn unknown_statement_kind_errors() {
        let err = parse_script("x = FROB a;").unwrap_err();
        assert!(err.to_string().contains("expected EXTRACT"), "{err}");
    }

    #[test]
    fn missing_semicolon_errors() {
        let err = parse_script(r#"d = EXTRACT a:int FROM "p""#).unwrap_err();
        assert!(err.to_string().contains(';'), "{err}");
    }
}
