//! The pinned golden snapshot: a committed binary fixture that the current
//! encoder must reproduce byte-for-byte and the current decoder must read
//! back exactly. Any format change — field order, widths, section layout,
//! checksum — fails here first, forcing a deliberate decision:
//!
//!   * compatible refactor: fix the code until the fixture passes again;
//!   * intentional format change: bump [`FORMAT_VERSION`], rename the
//!     fixture to match, and re-bless it with
//!     `QO_BLESS_SNAPSHOT=1 cargo test -p scope-state --test golden`.
//!
//! Re-blessing without a version bump would silently strand every snapshot
//! written by older builds, so the fixture name carries the version and the
//! test below pins the constant.

mod common;

use common::sample_snapshot;
use scope_state::{SteeringSnapshot, FORMAT_VERSION, MAGIC};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden-v{FORMAT_VERSION}.qosnap"))
}

#[test]
fn golden_fixture_is_byte_stable() {
    let snap = sample_snapshot();
    let bytes = snap.to_bytes();
    let path = fixture_path();

    if std::env::var_os("QO_BLESS_SNAPSHOT").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("re-blessed {} ({} bytes)", path.display(), bytes.len());
    }

    let fixture = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); re-bless deliberately with \
             QO_BLESS_SNAPSHOT=1 cargo test -p scope-state --test golden",
            path.display()
        )
    });

    // Encoder stability: today's writer reproduces the committed bytes.
    assert_eq!(
        bytes, fixture,
        "the encoder no longer reproduces the v{FORMAT_VERSION} golden fixture — \
         this is a format change; bump FORMAT_VERSION and re-bless deliberately \
         (QO_BLESS_SNAPSHOT=1), do not just update the file"
    );

    // Decoder compatibility: the committed bytes decode to exactly the
    // fixture state (a snapshot written by an older build of this format
    // version keeps restoring).
    let decoded = SteeringSnapshot::from_bytes(&fixture).expect("golden fixture decodes");
    assert_eq!(decoded, snap, "golden fixture decoded to different state");
}

#[test]
fn format_constants_are_pinned() {
    // Bumping either constant is a breaking format change: the golden
    // fixture must be renamed and re-blessed in the same commit.
    // v2: config fingerprints added to the META and MONITOR sections.
    // v3: PERSONALIZER holds the sparse weight list and no reward history.
    assert_eq!(FORMAT_VERSION, 3);
    assert_eq!(MAGIC, *b"QOSNAP\r\n");
}
