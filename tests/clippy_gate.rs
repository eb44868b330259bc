//! Pins the clippy half of the determinism contract. Hash-order iteration,
//! the wall clock, the raw seed mixer, shared interior mutability and
//! unwraps on the steering path are enforced by configuration, so deleting
//! one config line must fail `cargo test`.

use std::fs;
use std::path::Path;

/// Every method `clippy.toml` must list under `disallowed-methods`. The
/// `HashMap`/`HashSet` paths also cover `FxHashMap`/`FxHashSet`, which are
/// aliases of the std types.
const DISALLOWED_METHODS: &[&str] = &[
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::collections::HashMap::iter",
    "std::collections::HashMap::iter_mut",
    "std::collections::HashMap::keys",
    "std::collections::HashMap::values",
    "std::collections::HashMap::values_mut",
    "std::collections::HashMap::into_keys",
    "std::collections::HashMap::into_values",
    "std::collections::HashMap::drain",
    "std::collections::HashMap::retain",
    "std::collections::HashSet::iter",
    "std::collections::HashSet::drain",
    "std::collections::HashSet::retain",
    "serde::hash::mix64",
];

/// Every type `clippy.toml` must list under `disallowed-types`: the wall
/// clock, and the locks and atomics a `par_map` closure could share.
const DISALLOWED_TYPES: &[&str] = &[
    "std::time::SystemTime",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::atomic::AtomicBool",
    "std::sync::atomic::AtomicU8",
    "std::sync::atomic::AtomicU16",
    "std::sync::atomic::AtomicU32",
    "std::sync::atomic::AtomicU64",
    "std::sync::atomic::AtomicUsize",
    "std::sync::atomic::AtomicI8",
    "std::sync::atomic::AtomicI16",
    "std::sync::atomic::AtomicI32",
    "std::sync::atomic::AtomicI64",
    "std::sync::atomic::AtomicIsize",
];

/// Files that must enable `unwrap_used`/`expect_used` outside tests: the
/// crate roots of the steering path, down to the language and the IR.
const NO_UNWRAP: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/flighting/src/lib.rs",
    "crates/scope-state/src/lib.rs",
    "crates/personalizer/src/lib.rs",
    "crates/scope-runtime/src/lib.rs",
    "crates/sis/src/lib.rs",
    "crates/scope-opt/src/lib.rs",
    "crates/scope-lang/src/lib.rs",
    "crates/scope-workload/src/lib.rs",
    "crates/scope-ir/src/lib.rs",
];

const NO_UNWRAP_ATTR: &str =
    "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `{ path = "…", reason = "…" }` entries of the top-level array `key`
/// in `clippy.toml`, one per line, as `(path, reason)`.
fn entries(toml: &str, key: &str) -> Vec<(String, String)> {
    let quoted = |entry: &str, field: &str| {
        let start = entry.find(&format!("{field} = \""))? + field.len() + 4;
        let len = entry[start..].find('"')?;
        Some(entry[start..start + len].to_string())
    };
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != format!("{key} = ["))
        .skip(1)
        .take_while(|l| *l != "]")
        .filter(|l| l.starts_with('{'))
        .map(|l| {
            let path = quoted(l, "path").unwrap_or_else(|| panic!("{key}: no path in `{l}`"));
            let reason = quoted(l, "reason").unwrap_or_default();
            (path, reason)
        })
        .collect()
}

#[test]
fn clippy_toml_disallows_every_hash_order_and_wall_clock_path() {
    let toml = read("clippy.toml");
    for (key, required) in [
        ("disallowed-methods", DISALLOWED_METHODS),
        ("disallowed-types", DISALLOWED_TYPES),
    ] {
        let listed = entries(&toml, key);
        for path in required {
            let entry = listed.iter().find(|(p, _)| p == path);
            let Some((_, reason)) = entry else {
                panic!("clippy.toml {key} is missing `{path}`");
            };
            assert!(
                !reason.is_empty(),
                "clippy.toml {key} `{path}` has no reason"
            );
        }
    }
}

#[test]
fn workspace_lints_catch_for_loops_over_hash_containers() {
    let manifest = read("Cargo.toml");
    let section: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect();
    assert!(
        section.iter().any(|l| matches!(
            *l,
            "iter_over_hash_type = \"warn\"" | "iter_over_hash_type = \"deny\""
        )),
        "[workspace.lints.clippy] must enable iter_over_hash_type: {section:?}"
    );
    // The workspace lints reach a crate only if it inherits them.
    for entry in fs::read_dir(root().join("crates")).unwrap() {
        let crate_manifest = entry.unwrap().path().join("Cargo.toml");
        let text = fs::read_to_string(&crate_manifest).unwrap();
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} does not inherit the workspace lints",
            crate_manifest.display()
        );
    }
}

#[test]
fn steering_crate_roots_forbid_unwrap_and_expect() {
    for rel in NO_UNWRAP {
        let src = read(rel);
        assert!(
            src.lines().any(|l| l.trim() == NO_UNWRAP_ATTR),
            "{rel} must carry `{NO_UNWRAP_ATTR}`"
        );
    }
}
