//! `qo-lint` — a workspace-specific static analysis pass enforcing the
//! repo's determinism contract (byte-identical reports and SIS hint files
//! across thread counts and cache knobs; see ARCHITECTURE.md "Determinism
//! contract").
//!
//! The dynamic determinism tests in `tests/determinism.rs` can only catch a
//! hazard a seed happens to expose; this pass catches the *constructions*
//! that produce such hazards before they ship. It holds only the rules
//! rustc and clippy cannot express: hash-order iteration and the wall clock
//! are `clippy.toml`'s `disallowed-methods` plus
//! `clippy::iter_over_hash_type`, unwraps are `clippy::unwrap_used`/
//! `expect_used` at the steering crates' roots, and a derive that would see
//! an atomic fingerprint memo does not compile. It is a hand-rolled
//! lexer/token scanner (`lexer`) plus two token-level rules (`rules`) — no
//! `syn`, because the workspace vendors every dependency by hand.
//!
//! # Rules
//!
//! | id   | key              | protects against |
//! |------|------------------|------------------|
//! | QL03 | `seed-salt`      | raw seed-salt integer literals outside `scope_ir::ids` (the centralized seed vocabulary) |
//! | QL06 | `par-accumulate` | accumulation (`+=`, `.sum()`, `.reduce()`, `.fold()`, `.for_each()`) inside parallel regions (`par_*(` calls; here `stages::par_map`) — reduces go through the serial deterministic reduce helpers |
//!
//! QL00 (`allow-syntax`) reports malformed allow annotations themselves.
//!
//! # Allowlisting
//!
//! An intentional site carries a justification comment on the same line or
//! the line above:
//!
//! ```text
//! // qo-lint: allow(seed-salt) — top-level demo seed, not a derivation salt
//! ```
//!
//! The reason after the closing parenthesis is mandatory; an allow without
//! one (or with an unknown key) is itself a QL00 diagnostic. Rule ids
//! (`QL03`) are accepted as keys too. `scope_ir::ids` itself is exempt
//! from QL03 in [`rule_applies`].

pub mod lexer;
pub mod rules;

use lexer::{Lexed, Tok};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One finding: `file:line:rule` plus the allow key and a human message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub key: &'static str,
    pub message: String,
}

impl Diagnostic {
    /// The canonical single-line rendering: `file:line:rule[key] message`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}[{}] {}",
            self.file, self.line, self.rule, self.key, self.message
        )
    }
}

/// Static description of one rule, for `--list-rules` and the docs table.
pub struct RuleInfo {
    pub id: &'static str,
    pub key: &'static str,
    pub summary: &'static str,
}

/// Every rule the pass knows, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "QL00",
        key: "allow-syntax",
        summary: "qo-lint allow annotations must name a known rule key and carry a justification",
    },
    RuleInfo {
        id: "QL03",
        key: "seed-salt",
        summary: "no raw seed-salt integer literals outside scope_ir::ids",
    },
    RuleInfo {
        id: "QL06",
        key: "par-accumulate",
        summary: "no accumulation into shared state inside parallel regions; use the serial reduce helpers",
    },
];

/// Look a rule up by allow key *or* rule id.
#[must_use]
pub fn rule_by_key(key: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.key == key || r.id == key)
}

/// Does `rule` apply to the file at (workspace-relative, `/`-separated)
/// `path`? Encodes the per-rule path policy:
///
/// * all rules: only `crates/*/src/**`, `src/**`, and `examples/**` are
///   scanned at all (test/bench directories exercise, not produce, the
///   steered outputs);
/// * QL03: `scope-ir/src/ids.rs` IS the seed vocabulary.
#[must_use]
pub fn rule_applies(rule_id: &str, path: &str) -> bool {
    let in_scanned_tree = (path.starts_with("crates/") && path.contains("/src/"))
        || path.starts_with("src/")
        || path.starts_with("examples/");
    if !in_scanned_tree {
        return false;
    }
    match rule_id {
        "QL03" => path != "crates/scope-ir/src/ids.rs",
        _ => true,
    }
}

/// Everything the rules need about one file: the token stream, which
/// tokens sit inside test code, per-token nesting depth, and the allow
/// annotations keyed by the line they cover.
pub struct FileCtx {
    pub path: String,
    pub lx: Lexed,
    /// `in_test[i]` — token `i` is inside a `#[cfg(test)]` module or a
    /// `#[test]` function body.
    pub in_test: Vec<bool>,
    /// Combined `(`/`[`/`{` nesting depth *before* each token.
    pub depth: Vec<i32>,
    /// Lines covered by an allow annotation → the allowed keys.
    allows: BTreeMap<u32, BTreeSet<String>>,
    /// Diagnostics produced while parsing annotations (QL00).
    allow_diags: Vec<Diagnostic>,
}

impl FileCtx {
    #[must_use]
    pub fn new(path: &str, source: &str) -> Self {
        let lx = lexer::lex(source);
        let in_test = mark_test_regions(&lx);
        let depth = depths(&lx);
        let mut ctx = FileCtx {
            path: path.to_string(),
            lx,
            in_test,
            depth,
            allows: BTreeMap::new(),
            allow_diags: Vec::new(),
        };
        ctx.parse_allows();
        ctx
    }

    /// Is `key` (an allow key) granted on `line`?
    #[must_use]
    pub fn allowed(&self, line: u32, key: &str) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|keys| keys.contains(key))
    }

    /// Emit a diagnostic for rule `id` at `line` unless the line carries a
    /// matching allow annotation.
    pub fn emit(&self, out: &mut Vec<Diagnostic>, id: &'static str, line: u32, message: String) {
        let info = RULES
            .iter()
            .find(|r| r.id == id)
            .expect("rule ids are static");
        if self.allowed(line, info.key) || self.allowed(line, info.id) {
            return;
        }
        out.push(Diagnostic {
            file: self.path.clone(),
            line,
            rule: info.id,
            key: info.key,
            message,
        });
    }

    /// Parse `qo-lint: allow(key[, key…]) — reason` annotations out of the
    /// non-doc comments. A trailing comment covers its own line; a
    /// standalone comment covers the next code line.
    fn parse_allows(&mut self) {
        const MARKER: &str = "qo-lint: allow(";
        for c in &self.lx.comments {
            if c.doc {
                continue;
            }
            let Some(at) = c.text.find(MARKER) else {
                continue;
            };
            let after = &c.text[at + MARKER.len()..];
            let Some(close) = after.find(')') else {
                self.allow_diags.push(Diagnostic {
                    file: self.path.clone(),
                    line: c.line,
                    rule: "QL00",
                    key: "allow-syntax",
                    message: "unterminated qo-lint allow annotation".to_string(),
                });
                continue;
            };
            let keys: Vec<&str> = after[..close]
                .split(',')
                .map(str::trim)
                .filter(|k| !k.is_empty())
                .collect();
            let reason = after[close + 1..]
                .trim_start_matches([' ', '\t', '—', '-', '–', ':'])
                .trim();
            let mut valid: BTreeSet<String> = BTreeSet::new();
            for key in &keys {
                match rule_by_key(key) {
                    Some(info) => {
                        valid.insert(info.key.to_string());
                    }
                    None => self.allow_diags.push(Diagnostic {
                        file: self.path.clone(),
                        line: c.line,
                        rule: "QL00",
                        key: "allow-syntax",
                        message: format!("unknown qo-lint rule key `{key}` in allow annotation"),
                    }),
                }
            }
            if reason.is_empty() {
                self.allow_diags.push(Diagnostic {
                    file: self.path.clone(),
                    line: c.line,
                    rule: "QL00",
                    key: "allow-syntax",
                    message: "qo-lint allow annotation needs a justification after the closing \
                              parenthesis"
                        .to_string(),
                });
                continue; // an unjustified allow grants nothing
            }
            if keys.is_empty() {
                self.allow_diags.push(Diagnostic {
                    file: self.path.clone(),
                    line: c.line,
                    rule: "QL00",
                    key: "allow-syntax",
                    message: "qo-lint allow annotation names no rule keys".to_string(),
                });
                continue;
            }
            // Trailing comment (code before it on its line) covers that
            // line; standalone covers the next code line.
            let trailing = self
                .lx
                .tokens
                .iter()
                .any(|t| t.line == c.line && t.offset < c.offset);
            let target = if trailing {
                Some(c.line)
            } else {
                self.lx
                    .tokens
                    .iter()
                    .find(|t| t.offset > c.end_offset)
                    .map(|t| t.line)
            };
            if let Some(line) = target {
                self.allows.entry(line).or_default().extend(valid.clone());
                // Multi-line comments also cover their own span.
                self.allows.entry(c.line).or_default().extend(valid);
            }
        }
    }
}

/// Mark every token inside `#[cfg(test)] mod … { }` / `#[test] fn … { }`
/// regions. Attributes containing the bare identifier `test` count, except
/// when the attribute also contains `not` (`#[cfg(not(test))]` is
/// production code).
fn mark_test_regions(lx: &Lexed) -> Vec<bool> {
    let n = lx.tokens.len();
    let mut in_test = vec![false; n];
    let mut i = 0;
    while i < n {
        if lx.is_punct(i, '#') && lx.is_punct(i + 1, '[') {
            // Find the matching `]`.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test = false;
            let mut negated = false;
            while j < n {
                match lx.kind(j) {
                    Some(Tok::Punct('[')) => depth += 1,
                    Some(Tok::Punct(']')) => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Some(Tok::Ident(s)) if s == "test" => is_test = true,
                    Some(Tok::Ident(s)) if s == "not" => negated = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test && !negated {
                // Skip further attributes/doc comments, find the item's
                // opening `{`, and mark through its matching `}`.
                let mut k = j + 1;
                while k < n && lx.is_punct(k, '#') && lx.is_punct(k + 1, '[') {
                    let mut d = 0i32;
                    while k < n {
                        match lx.kind(k) {
                            Some(Tok::Punct('[')) => d += 1,
                            Some(Tok::Punct(']')) => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                while k < n && !lx.is_punct(k, '{') && !lx.is_punct(k, ';') {
                    k += 1;
                }
                if lx.is_punct(k, '{') {
                    let mut braces = 0i32;
                    let mut m = k;
                    while m < n {
                        match lx.kind(m) {
                            Some(Tok::Punct('{')) => braces += 1,
                            Some(Tok::Punct('}')) => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    let end = m.min(n.saturating_sub(1));
                    for flag in &mut in_test[i..=end] {
                        *flag = true;
                    }
                    i = m + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Combined bracket depth before each token.
fn depths(lx: &Lexed) -> Vec<i32> {
    let mut out = Vec::with_capacity(lx.tokens.len());
    let mut d = 0i32;
    for t in &lx.tokens {
        out.push(d);
        match t.kind {
            Tok::Punct('(' | '[' | '{') => d += 1,
            Tok::Punct(')' | ']' | '}') => d -= 1,
            _ => {}
        }
    }
    out
}

/// Lint one file's source under its workspace-relative path. This is the
/// unit the golden-fixture tests drive directly.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(rel_path, source);
    let mut out = ctx.allow_diags.clone();
    if rule_applies("QL03", rel_path) {
        rules::ql03_seed_salt(&ctx, &mut out);
    }
    if rule_applies("QL06", rel_path) {
        rules::ql06_par_accumulate(&ctx, &mut out);
    }
    out.sort();
    out
}

/// Collect the `.rs` files the pass scans, workspace-relative and sorted
/// (deterministic diagnostic order). Scanned trees: `crates/*/src`,
/// `src/`, `examples/`. `vendor/` (external stand-ins), `target/`, test
/// and bench directories, and fixture directories are never scanned.
#[must_use]
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src"), root.join("examples")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = crates
            .filter_map(Result::ok)
            .map(|e| e.path().join("src"))
            .collect();
        dirs.sort();
        roots.extend(dirs);
    }
    for r in roots {
        walk(&r, &mut files);
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    rel
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "fixtures" || name == "target" {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lint the whole workspace under `root`.
#[must_use]
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in collect_files(root) {
        let Ok(source) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        out.extend(lint_source(&rel_str, &source));
    }
    out.sort();
    out
}

/// Walk upward from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Render diagnostics as the machine-readable JSON document `--json`
/// emits. Hand-rolled (like everything else here) so the lint crate stays
/// dependency-free.
#[must_use]
pub fn render_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut s = String::from("{\n  \"tool\": \"qo-lint\",\n  \"findings\": [\n");
    for (i, d) in diags.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"key\": \"{}\", \
             \"message\": \"{}\"}}{}\n",
            esc(&d.file),
            d.line,
            d.rule,
            d.key,
            esc(&d.message),
            if i + 1 == diags.len() { "" } else { "," }
        ));
    }
    s.push_str(&format!("  ],\n  \"count\": {}\n}}\n", diags.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_modules_and_test_fns() {
        let src = r#"
fn prod() { let x = 1; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let y = 2; }
}
fn prod2() { let z = 3; }
"#;
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        let tok_test = |name: &str| {
            let i = ctx
                .lx
                .tokens
                .iter()
                .position(|t| t.kind == Tok::Ident(name.to_string()))
                .unwrap();
            ctx.in_test[i]
        };
        assert!(!tok_test("x"));
        assert!(tok_test("y"));
        assert!(!tok_test("z"));
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nmod prod { fn f() { let x = 1; } }";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(ctx.in_test.iter().all(|&t| !t));
    }

    #[test]
    fn allow_annotations_cover_their_line_and_the_next() {
        let src = "\
// qo-lint: allow(par-accumulate) — standalone covers next line
let a = 1;
let b = 2; // qo-lint: allow(seed-salt) — trailing covers its own line
";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(ctx.allowed(2, "par-accumulate"));
        assert!(!ctx.allowed(3, "par-accumulate"));
        assert!(ctx.allowed(3, "seed-salt"));
        assert!(ctx.allow_diags.is_empty());
    }

    #[test]
    fn allow_without_reason_is_ql00_and_grants_nothing() {
        let src = "let a = 1; // qo-lint: allow(seed-salt)\n";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(!ctx.allowed(1, "seed-salt"));
        assert_eq!(ctx.allow_diags.len(), 1);
        assert_eq!(ctx.allow_diags[0].rule, "QL00");
    }

    #[test]
    fn unknown_allow_key_is_ql00() {
        let src = "let a = 1; // qo-lint: allow(no-such-rule) — whatever\n";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert_eq!(ctx.allow_diags.len(), 1);
        assert!(ctx.allow_diags[0].message.contains("no-such-rule"));
    }

    #[test]
    fn rule_ids_work_as_allow_keys() {
        let src = "let a = 1; // qo-lint: allow(QL03) — id instead of key\n";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(ctx.allowed(1, "seed-salt"));
    }

    #[test]
    fn doc_comments_do_not_enact_allows() {
        let src = "/// qo-lint: allow(seed-salt) — just documenting the syntax\nlet a = 1;\n";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(!ctx.allowed(2, "seed-salt"));
        assert!(ctx.allow_diags.is_empty());
    }

    #[test]
    fn path_policies() {
        assert!(rule_applies("QL06", "crates/core/src/stages.rs"));
        assert!(rule_applies("QL03", "crates/bench/src/bin/experiments.rs"));
        assert!(rule_applies("QL03", "examples/quickstart.rs"));
        assert!(!rule_applies("QL03", "crates/scope-ir/src/ids.rs"));
        assert!(!rule_applies("QL06", "crates/core/tests/whatever.rs"));
        assert!(!rule_applies("QL03", "vendor/serde/src/lib.rs"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let diags = vec![Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: "QL03",
            key: "seed-salt",
            message: "say \"hi\"".into(),
        }];
        let json = render_json(&diags);
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.contains("\"count\": 1"));
    }
}
