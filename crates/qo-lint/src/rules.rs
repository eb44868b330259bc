//! The six determinism rules, as token-stream scanners over [`FileCtx`].
//!
//! These are deliberately *lexical* heuristics: no type inference, no name
//! resolution. Each rule documents its recognition patterns; where a
//! pattern can't prove a hazard (e.g. a hash-typed receiver threaded
//! through a helper), the dynamic determinism tests remain the backstop.
//! False positives are expected to be rare and carry inline
//! `qo-lint: allow(...)` justifications.

use crate::lexer::Tok;
use crate::{Diagnostic, FileCtx};

/// Unordered-container type names QL01 tracks.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iteration methods whose order is the container's internal order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

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

/// QL01 — unordered hash-container iteration.
///
/// Recognizes identifiers bound to a hash type anywhere in the file
/// (`name: FxHashMap<…>` declarations — fields, params, lets — and
/// `let name = FxHashMap::new()/default()` initializers), then flags
/// `recv.iter()/keys()/values()/drain()/…` method calls and
/// `for … in [&[mut]] recv` loops whose receiver is such an identifier.
pub fn ql01_unordered_iter(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let n = ctx.lx.tokens.len();
    // Pass 1: hash-typed identifiers.
    let mut hash_vars: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for i in 0..n {
        let Some(name) = ident(ctx, i) else { continue };
        // `name: …HashMap…` within the next few tokens (type position).
        if lone_colon(ctx, i + 1) {
            let mut j = i + 2;
            let mut steps = 0;
            while j < n && steps < 12 {
                match ctx.lx.kind(j) {
                    Some(Tok::Ident(t)) if HASH_TYPES.contains(&t.as_str()) => {
                        hash_vars.insert(name.to_string());
                        break;
                    }
                    Some(Tok::Punct(',' | ';' | ')' | '{' | '}')) => break,
                    Some(Tok::Punct('=')) if lone_eq(ctx, j) => break,
                    _ => {}
                }
                j += 1;
                steps += 1;
            }
        }
        // `let name = FxHashMap::new()` / `…::default()`.
        if lone_eq(ctx, i + 1) {
            if let Some(t) = ident(ctx, i + 2) {
                if HASH_TYPES.contains(&t) {
                    hash_vars.insert(name.to_string());
                }
            }
        }
    }
    // Pass 2a: `recv.method(` sites.
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let Some(m) = ident(ctx, i) else { continue };
        if !ITER_METHODS.contains(&m) {
            continue;
        }
        if !(i >= 2 && ctx.lx.is_punct(i - 1, '.') && ctx.lx.is_punct(i + 1, '(')) {
            continue;
        }
        let Some(recv) = ident(ctx, i - 2) else {
            continue;
        };
        if hash_vars.contains(recv) {
            ctx.emit(
                out,
                "QL01",
                ctx.lx.tokens[i].line,
                format!(
                    "`.{m}()` on unordered container `{recv}` — iteration order is \
                     layout-dependent; iterate a sorted view or reduce order-free"
                ),
            );
        }
    }
    // Pass 2b: `for … in [&[mut]] path` loops.
    for i in 0..n {
        if ctx.in_test[i] || !ctx.lx.is_ident(i, "in") {
            continue;
        }
        // Require an enclosing `for` in the same statement.
        let mut back = i;
        let mut found_for = false;
        while back > 0 {
            back -= 1;
            match ctx.lx.kind(back) {
                Some(Tok::Ident(s)) if s == "for" => {
                    found_for = true;
                    break;
                }
                Some(Tok::Punct(';' | '{' | '}')) => break,
                _ => {}
            }
            if i - back > 40 {
                break;
            }
        }
        if !found_for {
            continue;
        }
        // Parse the iterated expression: optional `&`/`mut`, then a dotted
        // identifier path ending right before `{`.
        let mut j = i + 1;
        while ctx.lx.is_punct(j, '&') || ctx.lx.is_ident(j, "mut") {
            j += 1;
        }
        let mut last_ident: Option<&str> = None;
        while let Some(Tok::Ident(s)) = ctx.lx.kind(j) {
            last_ident = Some(s);
            j += 1;
            if !ctx.lx.is_punct(j, '.') || ctx.lx.is_punct(j + 1, '.') {
                break;
            }
            // A call (`x.iter()`) is pass 2a's job; only plain field paths
            // continue here.
            if ctx.lx.is_punct(j + 2, '(') {
                last_ident = None;
                break;
            }
            j += 1;
        }
        let (Some(recv), true) = (last_ident, ctx.lx.is_punct(j, '{')) else {
            continue;
        };
        if hash_vars.contains(recv) {
            ctx.emit(
                out,
                "QL01",
                ctx.lx.tokens[i].line,
                format!(
                    "`for … in` over unordered container `{recv}` — iteration order is \
                     layout-dependent; iterate a sorted view or reduce order-free"
                ),
            );
        }
    }
}

/// QL02 — ambient entropy / wall-clock in steering code.
///
/// Flags the identifiers `thread_rng` and `from_entropy` anywhere, and the
/// token sequences `Instant::now` / `SystemTime::now` (plus any other use
/// of `SystemTime`). RNG must flow from the named seed helpers in
/// `scope_ir::ids`; wall-clock belongs to the bench crate or to
/// explicitly-annotated telemetry.
pub fn ql02_ambient_entropy(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = ident(ctx, i) else { continue };
        let line = ctx.lx.tokens[i].line;
        match name {
            "thread_rng" | "from_entropy" => ctx.emit(
                out,
                "QL02",
                line,
                format!(
                    "`{name}` draws ambient entropy — derive every seed from the named \
                     helpers in scope_ir::ids"
                ),
            ),
            "SystemTime" => ctx.emit(
                out,
                "QL02",
                line,
                "`SystemTime` reads the wall clock — steering code must be replayable \
                 without it"
                    .to_string(),
            ),
            "Instant"
                if ctx.lx.is_punct(i + 1, ':')
                    && ctx.lx.is_punct(i + 2, ':')
                    && ctx.lx.is_ident(i + 3, "now") =>
            {
                ctx.emit(
                    out,
                    "QL02",
                    line,
                    "`Instant::now` reads the wall clock — timing belongs to the bench \
                     crate or annotated telemetry"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
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

/// Derive traits QL04 bans on memo-carrying structs.
const BANNED_DERIVES: &[&str] = &["PartialEq", "Eq", "Hash", "Serialize", "Deserialize"];

/// QL04 — derived equality/serde on structs carrying an atomic fingerprint
/// memo.
///
/// A struct whose body has a field named `*memo*`/`*fingerprint*` of an
/// `Atomic*` type must hand-write `PartialEq`/`Hash`/serde so the memo
/// stays invisible (a derive would compare/serialize the memo and break
/// cached-vs-fresh equivalence). Flags any `#[derive(...)]` naming a
/// banned trait directly above such a struct.
pub fn ql04_derived_memo_eq(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let n = ctx.lx.tokens.len();
    let mut i = 0;
    while i < n {
        if !(ctx.lx.is_punct(i, '#')
            && ctx.lx.is_punct(i + 1, '[')
            && ctx.lx.is_ident(i + 2, "derive"))
        {
            i += 1;
            continue;
        }
        let derive_line = ctx.lx.tokens[i].line;
        // Collect derived trait names across this and any further derive
        // attributes, until the struct keyword.
        let mut derived: Vec<String> = Vec::new();
        let mut j = i;
        while j < n {
            if ctx.lx.is_punct(j, '#') && ctx.lx.is_punct(j + 1, '[') {
                let mut d = 0i32;
                while j < n {
                    match ctx.lx.kind(j) {
                        Some(Tok::Punct('[')) => d += 1,
                        Some(Tok::Punct(']')) => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        Some(Tok::Ident(s)) if BANNED_DERIVES.contains(&s.as_str()) => {
                            derived.push(s.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
                continue;
            }
            match ctx.lx.kind(j) {
                Some(Tok::Ident(s)) if s == "struct" => break,
                Some(Tok::Ident(s)) if s == "pub" || s == "crate" || s == "in" => j += 1,
                Some(Tok::Punct('(' | ')')) => j += 1,
                _ => break,
            }
        }
        if !ctx.lx.is_ident(j, "struct") {
            i += 1;
            continue;
        }
        // Find the struct body `{ … }` (tuple/unit structs carry no named
        // memo fields).
        let mut k = j;
        while k < n && !ctx.lx.is_punct(k, '{') && !ctx.lx.is_punct(k, ';') {
            k += 1;
        }
        if ctx.lx.is_punct(k, '{') {
            let mut depth = 0i32;
            let mut m = k;
            let mut has_atomic = false;
            let mut memo_field: Option<String> = None;
            while m < n {
                match ctx.lx.kind(m) {
                    Some(Tok::Punct('{')) => depth += 1,
                    Some(Tok::Punct('}')) => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Some(Tok::Ident(s)) => {
                        if s.starts_with("Atomic") {
                            has_atomic = true;
                        }
                        let l = s.to_ascii_lowercase();
                        if (l.contains("memo") || l.contains("fingerprint"))
                            && lone_colon(ctx, m + 1)
                        {
                            memo_field.get_or_insert_with(|| s.clone());
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            if has_atomic && !derived.is_empty() {
                if let Some(field) = memo_field {
                    if !ctx.in_test[i] {
                        ctx.emit(
                            out,
                            "QL04",
                            derive_line,
                            format!(
                                "derive({}) on a struct carrying atomic memo field `{field}` — \
                                 hand-write these impls so the memo stays invisible to \
                                 equality/hashing/serde",
                                derived.join(", ")
                            ),
                        );
                    }
                }
            }
            i = m + 1;
        } else {
            i = k + 1;
        }
    }
}

/// QL05 — `.unwrap()` / `.expect(` in `qo_advisor` and the other steering
/// paths (path scope lives in [`crate::rule_applies`]).
/// Typed errors only — extend `PipelineError`/`ViewBuildError` instead.
pub fn ql05_unwrap_expect(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.lx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = ident(ctx, i) else { continue };
        if name != "unwrap" && name != "expect" {
            continue;
        }
        if i >= 1 && ctx.lx.is_punct(i - 1, '.') && ctx.lx.is_punct(i + 1, '(') {
            ctx.emit(
                out,
                "QL05",
                ctx.lx.tokens[i].line,
                format!(
                    "`.{name}(` in a steering path — return a typed error \
                     (PipelineError/ViewBuildError) instead of panicking"
                ),
            );
        }
    }
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
    fn ql01_catches_map_iteration_and_respects_sorted_vecs() {
        let src = r#"
use rustc_hash::FxHashMap;
struct S { cache: FxHashMap<u64, u64> }
fn f(s: &S, v: &Vec<u64>) {
    for x in v { drop(x); }              // Vec: fine
    for (k, c) in &s.cache { drop(k); }  // map: flagged
    let total: u64 = s.cache.values().sum(); // flagged
}
"#;
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "QL01"));
    }

    #[test]
    fn ql02_instant_now_but_not_instant_type() {
        let src = "fn f(t: std::time::Instant) -> u64 { t.elapsed().as_nanos() as u64 }\n\
                   fn g() { let _t = std::time::Instant::now(); }\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

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
