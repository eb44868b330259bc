//! The two determinism rules clippy cannot express, as token-stream
//! scanners over [`FileCtx`].
//!
//! These are deliberately *lexical* heuristics: no type inference, no name
//! resolution. Each rule documents its recognition patterns; where a
//! pattern can't prove a hazard, the dynamic determinism tests remain the
//! backstop. False positives are expected to be rare and carry inline
//! `qo-lint: allow(...)` justifications.

use crate::lexer::Tok;
use crate::{Diagnostic, FileCtx};

fn ident(ctx: &FileCtx, i: usize) -> Option<&str> {
    match ctx.lx.kind(i)? {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Is token `i` a lone `:` (not part of `::`)?
fn lone_colon(ctx: &FileCtx, i: usize) -> bool {
    ctx.lx.is_punct(i, ':')
        && !ctx.lx.is_punct(i + 1, ':')
        && !(i > 0 && ctx.lx.is_punct(i - 1, ':'))
}

/// Is token `i` a lone `=` (not `==`, `<=`, `>=`, `!=`, `=>`, `+=`, …)?
fn lone_eq(ctx: &FileCtx, i: usize) -> bool {
    if !ctx.lx.is_punct(i, '=') || ctx.lx.is_punct(i + 1, '=') || ctx.lx.is_punct(i + 1, '>') {
        return false;
    }
    if i == 0 {
        return true;
    }
    !matches!(
        ctx.lx.kind(i - 1),
        Some(Tok::Punct(
            '=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
        ))
    )
}

/// Call names whose integer-literal arguments are seed salts by definition.
const SEED_CALLEES: &[&str] = &["mix64", "hash_value", "structural_hash", "seed_from_u64"];

/// QL03 — raw seed-salt integer literals outside `scope_ir::ids`.
///
/// Flags an integer literal (hex with ≥ 2 digits, or decimal ≥ 256) when
/// it appears (a) anywhere inside a call to `mix64`/`hash_value`/
/// `structural_hash`/`seed_from_u64`, or (b) as the initializer of a
/// binding or field whose name contains `seed`/`salt`. Small decimal ordinals (stage numbers,
/// counts) pass; the point is derivation salts, which in this workspace
/// are invariably hex-spelled or named.
pub fn ql03_seed_salt(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let n = ctx.lx.tokens.len();
    // Callee stack: one entry per currently-open delimiter.
    let mut stack: Vec<Option<String>> = Vec::new();
    for i in 0..n {
        match ctx.lx.kind(i) {
            Some(Tok::Punct('(')) => {
                let callee = if i > 0 {
                    ident(ctx, i - 1).map(str::to_string)
                } else {
                    None
                };
                stack.push(callee);
            }
            Some(Tok::Punct('[' | '{')) => stack.push(None),
            Some(Tok::Punct(')' | ']' | '}')) => {
                stack.pop();
            }
            Some(Tok::Int(text)) => {
                if ctx.in_test[i] {
                    continue;
                }
                if !is_salt_magnitude(text) {
                    continue;
                }
                let line = ctx.lx.tokens[i].line;
                let in_seed_call = stack
                    .iter()
                    .flatten()
                    .any(|c| SEED_CALLEES.contains(&c.as_str()));
                if in_seed_call {
                    ctx.emit(
                        out,
                        "QL03",
                        line,
                        format!(
                            "raw salt `{text}` in a seed-derivation call — name it in \
                             scope_ir::ids so replay tooling shares one vocabulary"
                        ),
                    );
                    continue;
                }
                if seed_named_binding(ctx, i) {
                    ctx.emit(
                        out,
                        "QL03",
                        line,
                        format!(
                            "raw literal `{text}` initializes a seed/salt binding — name \
                             it in scope_ir::ids so replay tooling shares one vocabulary"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Hex with at least two digits, or decimal ≥ 256.
fn is_salt_magnitude(text: &str) -> bool {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    if let Some(hex) = clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        let digits = hex.chars().take_while(|c| c.is_ascii_hexdigit()).count();
        return digits >= 2;
    }
    let digits: String = clean.chars().take_while(char::is_ascii_digit).collect();
    digits.parse::<u128>().is_ok_and(|v| v >= 256)
}

/// Is the literal at `i` the value of a binding/field whose name contains
/// `seed` or `salt`? Covers `seed: 0x…` field inits and
/// `const X_SALT: u64 = 0x…` / `let my_seed = 0x…` within a few tokens.
fn seed_named_binding(ctx: &FileCtx, i: usize) -> bool {
    let named = |s: &str| {
        let l = s.to_ascii_lowercase();
        l.contains("seed") || l.contains("salt")
    };
    // Field init: Ident ':' literal.
    if i >= 2 && lone_colon(ctx, i - 1) {
        if let Some(name) = ident(ctx, i - 2) {
            return named(name);
        }
    }
    // Binding: scan back over `= <type tokens> :` up to a statement edge.
    let mut j = i;
    let mut saw_eq = false;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        match ctx.lx.kind(j) {
            Some(Tok::Punct('=')) if lone_eq(ctx, j) => saw_eq = true,
            Some(Tok::Punct(';' | '{' | '}' | ',')) => return false,
            Some(Tok::Ident(s)) if saw_eq && named(s) => return true,
            _ => {}
        }
    }
    false
}

/// Accumulation methods QL06 flags inside parallel regions.
const ACCUM_METHODS: &[&str] = &["sum", "product", "reduce", "fold", "for_each"];

/// QL06 — accumulation inside parallel regions.
///
/// A *parallel region* is the call-chain statement containing a `par_*(`
/// call — in this workspace `stages::par_map(`, the one ordered parallel
/// map: from that token until the chain's nesting depth closes or a
/// `;`/`,` at the starting depth. Within it, compound assignments (`+=`,
/// `-=`, `*=`, `/=`) and
/// `.sum()/.product()/.reduce()/.fold()/.for_each()` calls are flagged:
/// float accumulation order must not depend on thread interleaving, so
/// reduces go through the serial deterministic reduce helpers
/// (`core::stages` collects fan-out results in input order).
pub fn ql06_par_accumulate(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let n = ctx.lx.tokens.len();
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = ident(ctx, i) else { continue };
        let is_par =
            (name.starts_with("par_") || name == "into_par_iter") && ctx.lx.is_punct(i + 1, '(');
        if !is_par {
            continue;
        }
        let d0 = ctx.depth[i];
        let mut j = i + 1;
        while j < n {
            if ctx.depth[j] < d0 {
                break;
            }
            if ctx.depth[j] == d0 && matches!(ctx.lx.kind(j), Some(Tok::Punct(';' | ','))) {
                break;
            }
            let line = ctx.lx.tokens[j].line;
            match ctx.lx.kind(j) {
                Some(Tok::Punct(c @ ('+' | '-' | '*' | '/')))
                    if ctx.lx.tokens[j].joint && ctx.lx.is_punct(j + 1, '=') =>
                {
                    ctx.emit(
                        out,
                        "QL06",
                        line,
                        format!(
                            "`{c}=` inside a parallel region — accumulate through the serial \
                             deterministic reduce helpers, not shared state"
                        ),
                    );
                }
                Some(Tok::Ident(m))
                    if ACCUM_METHODS.contains(&m.as_str())
                        && ctx.lx.is_punct(j - 1, '.')
                        && (ctx.lx.is_punct(j + 1, '(') || ctx.lx.is_punct(j + 1, ':')) =>
                {
                    let m = m.clone();
                    ctx.emit(
                        out,
                        "QL06",
                        line,
                        format!(
                            "`.{m}(` inside a parallel region — reduction order must not depend \
                             on thread interleaving; collect in input order and reduce \
                             serially"
                        ),
                    );
                }
                _ => {}
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    #[test]
    fn ql03_literal_magnitudes() {
        use super::is_salt_magnitude;
        assert!(is_salt_magnitude("0x7821"));
        assert!(is_salt_magnitude("0xAA"));
        assert!(is_salt_magnitude("0x9806_0d0d"));
        assert!(is_salt_magnitude("1000"));
        assert!(is_salt_magnitude("256u64"));
        assert!(!is_salt_magnitude("0x7"));
        assert!(!is_salt_magnitude("2"));
        assert!(!is_salt_magnitude("255"));
    }

    #[test]
    fn ql06_pure_par_map_is_clean_and_accumulating_one_is_not() {
        let pure = "fn f(items: &[u64]) -> Vec<u64> {\n\
                    par_map(2, items, |x| x + 1).unwrap_or_default()\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", pure).is_empty());
        let racy = "fn f(items: &[f64], total: &Mutex<f64>) {\n\
                    let _ = par_map(2, items, |x| *total.lock() += x);\n}\n";
        let diags = lint_source("crates/x/src/lib.rs", racy);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), ("QL06", 2));
    }
}
