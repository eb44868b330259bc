//! The hint file is the one document the system reads back (§4.4: SIS
//! "validates the format before installing"). These tests pin its bytes, and
//! check that every malformed variant fails the reload with an error while the
//! live store keeps serving what it had.

use scope_ir::TemplateId;
use scope_opt::{Hint, RuleFlip, RuleId};
use sis::{HintFile, SisError, SisStore};
use std::path::{Path, PathBuf};

/// A full-width template id: above `i64::MAX`, so it must stay a `u64`.
const WIDE_TEMPLATE: u64 = 0xfedc_ba98_7654_3210;

fn two_hints() -> HintFile {
    let hint = |template, rule, enable| Hint {
        template: TemplateId(template),
        flip: RuleFlip {
            rule: RuleId(rule),
            enable,
        },
    };
    HintFile {
        version: 1,
        source_day: 3,
        hints: vec![hint(42, 21, true), hint(WIDE_TEMPLATE, 170, false)],
    }
}

/// What `publish` writes for [`two_hints`].
const PUBLISHED: &str = r#"{
  "version": 1,
  "source_day": 3,
  "hints": [
    {
      "template": 42,
      "flip": {
        "rule": 21,
        "enable": true
      }
    },
    {
      "template": 18364758544493064720,
      "flip": {
        "rule": 170,
        "enable": false
      }
    }
  ]
}"#;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sis-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store at `dir` with [`two_hints`] published as version 1.
fn live_store(dir: &Path) -> SisStore {
    let store = SisStore::at_dir(dir).unwrap();
    store.publish(two_hints()).unwrap();
    store
}

/// Offer `bytes` as version 2 and require the reload to fail with the live
/// version 1 still installed.
fn assert_rejected(store: &SisStore, dir: &Path, bytes: &[u8], what: &str) -> SisError {
    std::fs::write(dir.join("hints-v000002.json"), bytes).unwrap();
    let err = store
        .reload_latest()
        .expect_err(&format!("{what}: a malformed file must not install"));
    assert_eq!(store.version(), 1, "{what}: live version moved");
    assert_eq!(store.len(), 2, "{what}: live hints changed");
    err
}

#[test]
fn published_bytes_are_pinned() {
    let dir = scratch_dir("pinned");
    live_store(&dir);
    let bytes = std::fs::read_to_string(dir.join("hints-v000001.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(bytes, PUBLISHED);
}

#[test]
fn hand_written_file_reloads_to_the_same_hints() {
    // Compact, irregular whitespace, and the second hint's keys reordered:
    // fields are looked up by name.
    let literal = r#"{"version":1, "source_day":3,"hints":[
        {"template":42,"flip":{"rule":21,"enable":true}},
        {"flip":{"enable":false,"rule":170},"template":18364758544493064720}]}"#;
    assert_eq!(
        serde_json::from_str::<HintFile>(literal).unwrap(),
        two_hints()
    );
    let dir = scratch_dir("literal");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("hints-v000001.json"), literal).unwrap();
    let store = SisStore::at_dir(&dir).unwrap();
    assert_eq!(store.reload_latest().unwrap(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(store.snapshot().hints(), two_hints().hints);
}

#[test]
fn every_truncation_is_rejected() {
    let dir = scratch_dir("truncated");
    let store = live_store(&dir);
    for len in 0..PUBLISHED.len() {
        let err = assert_rejected(
            &store,
            &dir,
            &PUBLISHED.as_bytes()[..len],
            &format!("first {len} bytes"),
        );
        assert!(matches!(err, SisError::Io(_)), "{len}: {err:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_newest_file_falls_back_to_the_previous_version() {
    let dir = scratch_dir("fallback");
    let mut v2 = two_hints();
    v2.version = 2;
    v2.hints.truncate(1);
    live_store(&dir).publish(v2).unwrap();
    let newest = dir.join("hints-v000002.json");
    let bytes = std::fs::read(&newest).unwrap();
    for len in 0..bytes.len() {
        std::fs::write(&newest, &bytes[..len]).unwrap();
        let fresh = SisStore::at_dir(&dir).unwrap();
        assert_eq!(fresh.reload_latest(), Ok(Some(1)), "first {len} bytes");
        assert_eq!(fresh.snapshot().hints(), two_hints().hints, "{len}");
    }
    // With no valid file left, the newest file's error is the one returned.
    std::fs::write(&newest, b"").unwrap();
    let duplicate = PUBLISHED.replacen("18364758544493064720", "42", 1);
    std::fs::write(dir.join("hints-v000001.json"), duplicate).unwrap();
    let fresh = SisStore::at_dir(&dir).unwrap();
    let err = fresh.reload_latest().expect_err("no valid file to install");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(matches!(err, SisError::Io(_)), "{err:?}");
    assert_eq!(fresh.version(), 0);
}

#[test]
fn every_targeted_mutation_is_rejected() {
    let mutate = |from: &str, to: &str| {
        assert!(PUBLISHED.contains(from), "{from} is not in the file");
        PUBLISHED.replacen(from, to, 1)
    };
    let parse_errors = [
        (
            "rule above u16",
            mutate(r#""rule": 21"#, r#""rule": 65536"#),
        ),
        ("negative rule", mutate(r#""rule": 21"#, r#""rule": -1"#)),
        ("fractional rule", mutate(r#""rule": 21"#, r#""rule": 1.5"#)),
        (
            "integer enable",
            mutate(r#""enable": true"#, r#""enable": 1"#),
        ),
        ("missing flip", mutate(r#""flip""#, r#""flop""#)),
        ("top-level array", format!("[{PUBLISHED}]")),
    ];
    let dir = scratch_dir("mutated");
    let store = live_store(&dir);
    for (what, text) in &parse_errors {
        let err = assert_rejected(&store, &dir, text.as_bytes(), what);
        assert!(matches!(err, SisError::Io(_)), "{what}: {err:?}");
    }
    let duplicate = mutate("18364758544493064720", "42");
    let err = assert_rejected(&store, &dir, duplicate.as_bytes(), "duplicate template");
    assert_eq!(
        err,
        SisError::DuplicateTemplate {
            template: TemplateId(42)
        }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let dir = scratch_dir("nested");
    let store = live_store(&dir);
    let err = assert_rejected(&store, &dir, &[b'['; 100_000], "100,000 nested arrays");
    assert!(matches!(err, SisError::Io(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
