//! Golden-file tests: each fixture under `tests/fixtures/` is linted under
//! a virtual workspace path and its rendered diagnostics compared with the
//! `.expected` snapshot next to it. Regenerate snapshots with
//! `QO_LINT_BLESS=1 cargo test -p qo-lint --test golden`.
//!
//! The workspace walk skips directories named `fixtures`
//! ([`qo_lint::collect_files`]), so the deliberately lint-positive files
//! here never fail the self-check below.

use std::fs;
use std::path::{Path, PathBuf};

/// (fixture stem, virtual path the fixture pretends to live at). The
/// virtual path decides which rules apply ([`qo_lint::rule_applies`]).
const CASES: &[(&str, &str)] = &[
    ("ql00_bad_allow", "crates/core/src/fixture.rs"),
    ("ql03_positive", "crates/core/src/fixture.rs"),
    ("ql03_allowed", "crates/core/src/fixture.rs"),
    ("ql06_positive", "crates/core/src/fixture.rs"),
    ("ql06_allowed", "crates/core/src/fixture.rs"),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixtures_match_their_golden_diagnostics() {
    let dir = fixture_dir();
    let bless = std::env::var_os("QO_LINT_BLESS").is_some();
    for (name, vpath) in CASES {
        let src = fs::read_to_string(dir.join(format!("{name}.rs")))
            .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        let got: String = qo_lint::lint_source(vpath, &src)
            .iter()
            .map(|d| d.render() + "\n")
            .collect();
        let expected_path = dir.join(format!("{name}.expected"));
        if bless {
            fs::write(&expected_path, &got).unwrap();
            continue;
        }
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("snapshot {name}.expected: {e}"));
        assert_eq!(got, expected, "fixture {name} diverged from its snapshot");
    }
}

#[test]
fn positive_fixtures_fire_their_rule_and_allowed_fixtures_are_clean() {
    // Independent of the snapshots: every `*_positive` fixture must produce
    // at least one diagnostic of its own rule, every `*_allowed` fixture
    // none at all (the point of the annotation syntax).
    let dir = fixture_dir();
    for (name, vpath) in CASES {
        let src = fs::read_to_string(dir.join(format!("{name}.rs"))).unwrap();
        let diags = qo_lint::lint_source(vpath, &src);
        let rule = name[..4].to_ascii_uppercase();
        if name.ends_with("_allowed") {
            assert!(
                diags.is_empty(),
                "{name}: allowlisted fixture produced {diags:?}"
            );
        } else {
            assert!(
                diags.iter().any(|d| d.rule == rule),
                "{name}: no {rule} diagnostic in {diags:?}"
            );
        }
    }
}

#[test]
fn json_report_is_stable_for_a_fixture() {
    let dir = fixture_dir();
    let src = fs::read_to_string(dir.join("ql03_positive.rs")).unwrap();
    let diags = qo_lint::lint_source("crates/core/src/fixture.rs", &src);
    let json = qo_lint::render_json(&diags);
    assert!(
        json.starts_with("{\n  \"tool\": \"qo-lint\""),
        "json must identify the tool: {json}"
    );
    assert!(
        json.contains("\"rule\": \"QL03\""),
        "json must carry the rule id: {json}"
    );
    assert_eq!(
        json.matches("\"file\":").count(),
        diags.len(),
        "one finding object per diagnostic: {json}"
    );
}

#[test]
fn workspace_is_clean_under_deny() {
    // The self-check the CI gate relies on: the workspace itself must stay
    // free of findings (fix real ones, annotate intentional ones).
    let root = qo_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("fixture tests run inside the workspace");
    let diags = qo_lint::lint_workspace(&root);
    let rendered: Vec<String> = diags.iter().map(qo_lint::Diagnostic::render).collect();
    assert!(
        diags.is_empty(),
        "workspace has qo-lint findings:\n{}",
        rendered.join("\n")
    );
}
