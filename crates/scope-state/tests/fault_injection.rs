//! Fault injection against the on-disk snapshot format: every corruption —
//! truncation at any byte (section boundaries included), a flipped checksum
//! or payload byte, a bumped format version, mangled magic, a dropped
//! authoritative section, a bad enum tag — must surface as the matching
//! typed [`SnapshotError`] variant. Never a panic, never an `Ok` over
//! corrupt bytes, never a silent partial load.

mod common;

use common::sample_snapshot;
use scope_state::codec::Field;
use scope_state::frame::section;
use scope_state::{
    FrameReader, FrameWriter, SnapshotError, SteeringSnapshot, FORMAT_VERSION, MAGIC,
};
use std::ops::Range;

/// Byte range of each section (header through checksum) by walking the
/// container layout: magic (8) | version (4) | count (4) | sections.
fn section_spans(bytes: &[u8]) -> Vec<(u16, Range<usize>)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let mut spans = Vec::new();
    let mut off = 16;
    for _ in 0..count {
        let id = u16::from_le_bytes(bytes[off..off + 2].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let end = off + 12 + len + 8; // header + payload + checksum
        spans.push((id, off..end));
        off = end;
    }
    assert_eq!(off, bytes.len(), "walker disagrees with the writer");
    spans
}

/// The sample snapshot with section `id`'s payload replaced. The frame
/// stays intact (the writer recomputes the checksum), so whatever error
/// comes back is the component codec's.
fn with_section_payload(id: u16, payload: Vec<u8>) -> Vec<u8> {
    let parsed = FrameReader::from_bytes(&sample_snapshot().to_bytes()).unwrap();
    let mut w = FrameWriter::new();
    for s in parsed.sections() {
        let payload = if s.id == id {
            payload.clone()
        } else {
            s.payload.clone()
        };
        if s.is_warm() {
            w.push_warm(s.id, payload);
        } else {
            w.push(s.id, payload);
        }
    }
    w.to_bytes()
}

/// A hand-written v3 PERSONALIZER payload: `weights` verbatim (canonical
/// or not), zero counters, then `tail` where the pending events go.
fn personalizer_payload(dim_bits: u32, weights: &[(u32, f64)], tail: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    dim_bits.put(&mut out);
    weights.to_vec().put(&mut out);
    for _counter in ["updates", "events", "next_event"] {
        0u64.put(&mut out);
    }
    out.extend_from_slice(tail);
    out
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let bytes = sample_snapshot().to_bytes();
    for cut in 0..bytes.len() {
        let err = SteeringSnapshot::from_bytes(&bytes[..cut])
            .expect_err("a proper prefix must never decode");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at byte {cut}/{}: unexpected {err:?}",
            bytes.len()
        );
    }
}

#[test]
fn truncation_at_each_section_boundary_names_the_header() {
    let bytes = sample_snapshot().to_bytes();
    // Cutting exactly where a promised section should begin fails while
    // reading that section's header.
    for (id, span) in section_spans(&bytes) {
        assert_eq!(
            SteeringSnapshot::from_bytes(&bytes[..span.start]).unwrap_err(),
            SnapshotError::Truncated {
                what: "section header"
            },
            "cut before section {id}"
        );
    }
}

#[test]
fn flipping_any_checksum_byte_blames_that_section() {
    let bytes = sample_snapshot().to_bytes();
    for (id, span) in section_spans(&bytes) {
        for checksum_byte in span.end - 8..span.end {
            let mut bad = bytes.clone();
            bad[checksum_byte] ^= 0x01;
            assert_eq!(
                SteeringSnapshot::from_bytes(&bad).unwrap_err(),
                SnapshotError::ChecksumMismatch { section: id },
                "flipped checksum byte {checksum_byte} of section {id}"
            );
        }
    }
}

#[test]
fn flipping_any_payload_byte_is_caught_by_the_checksum() {
    let bytes = sample_snapshot().to_bytes();
    for (id, span) in section_spans(&bytes) {
        let payload = span.start + 12..span.end - 8;
        // Every payload byte, so no field of any component codec escapes
        // checksum coverage.
        for byte in payload {
            let mut bad = bytes.clone();
            bad[byte] ^= 0xFF;
            assert_eq!(
                SteeringSnapshot::from_bytes(&bad).unwrap_err(),
                SnapshotError::ChecksumMismatch { section: id },
                "flipped payload byte {byte} of section {id}"
            );
        }
    }
}

#[test]
fn bumped_format_version_is_unsupported() {
    let mut bytes = sample_snapshot().to_bytes();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert_eq!(
        SteeringSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion {
            found: FORMAT_VERSION + 1,
            supported: FORMAT_VERSION
        }
    );
}

#[test]
fn previous_format_version_is_unsupported() {
    // One decoder: a v2 file (dense table + reward history) is as
    // unreadable as a future one, and says so before any section decodes.
    let mut bytes = sample_snapshot().to_bytes();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        SteeringSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion {
            found: 2,
            supported: FORMAT_VERSION
        }
    );
}

#[test]
fn mangled_magic_is_bad_magic() {
    let bytes = sample_snapshot().to_bytes();
    for byte in 0..MAGIC.len() {
        let mut bad = bytes.clone();
        bad[byte] ^= 0x20;
        assert_eq!(
            SteeringSnapshot::from_bytes(&bad).unwrap_err(),
            SnapshotError::BadMagic,
            "magic byte {byte}"
        );
    }
}

/// The `\r\n` tail of the magic is a text-mode canary (the PNG trick): a
/// snapshot that went through CRLF→LF newline translation must fail at the
/// magic check instead of decoding shifted garbage.
#[test]
fn newline_translated_snapshot_fails_the_magic_canary() {
    let bytes = sample_snapshot().to_bytes();
    let mut translated = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\r' && bytes.get(i + 1) == Some(&b'\n') {
            translated.push(b'\n');
            i += 2;
        } else {
            translated.push(bytes[i]);
            i += 1;
        }
    }
    assert_ne!(translated, bytes, "the magic alone guarantees one CRLF");
    assert_eq!(
        SteeringSnapshot::from_bytes(&translated).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn dropping_any_authoritative_section_is_corrupt() {
    let snap = sample_snapshot();
    let bytes = snap.to_bytes();
    let parsed = FrameReader::from_bytes(&bytes).unwrap();
    for dropped in [
        section::META,
        section::SIS,
        section::PERSONALIZER,
        section::FLIGHTING,
        section::EXPLORED,
    ] {
        let mut w = FrameWriter::new();
        for s in parsed.sections().iter().filter(|s| s.id != dropped) {
            if s.is_warm() {
                w.push_warm(s.id, s.payload.clone());
            } else {
                w.push(s.id, s.payload.clone());
            }
        }
        let err = SteeringSnapshot::from_bytes(&w.to_bytes()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Corrupt { .. }),
            "dropped section {dropped}: unexpected {err:?}"
        );
    }
    // Dropping the *warm* span cache is not an error: the cache is
    // deterministically rebuildable, so the snapshot restores without it.
    let mut w = FrameWriter::new();
    for s in parsed
        .sections()
        .iter()
        .filter(|s| s.id != section::SPAN_CACHE)
    {
        w.push(s.id, s.payload.clone());
    }
    let decoded = SteeringSnapshot::from_bytes(&w.to_bytes()).unwrap();
    assert_eq!(decoded.span_cache, None);
    assert_eq!(decoded.sis, snap.sis);
}

#[test]
fn bad_enum_tag_inside_a_section_is_corrupt() {
    // Hand-craft a meta payload with an unknown literal-policy tag; the
    // frame is intact (checksum recomputed by the writer), so the error
    // comes from the component codec, typed — not a panic.
    let mut meta = Vec::new();
    meta.extend_from_slice(&7u32.to_le_bytes()); // day
    meta.extend_from_slice(&1u64.to_le_bytes()); // config fingerprint
    meta.push(1); // workload present
    meta.extend_from_slice(&99u64.to_le_bytes()); // seed
    meta.extend_from_slice(&24u64.to_le_bytes()); // num_templates
    meta.extend_from_slice(&3u64.to_le_bytes()); // adhoc_per_day
    meta.extend_from_slice(&1u32.to_le_bytes()); // max_instances_per_day
    meta.push(99); // unknown literal-policy tag
    let err = SteeringSnapshot::from_bytes(&with_section_payload(section::META, meta)).unwrap_err();
    assert!(
        matches!(&err, SnapshotError::Corrupt { what } if what.contains("literal-policy tag")),
        "unexpected {err:?}"
    );
}

#[test]
fn non_canonical_weight_lists_are_corrupt() {
    // One encoding per table: a checksum-valid section whose weight list is
    // not the canonical sparse form is rejected, typed, never scattered.
    let ok = personalizer_payload(8, &[(3, 1.0), (255, -0.0)], &0u32.to_le_bytes());
    SteeringSnapshot::from_bytes(&with_section_payload(section::PERSONALIZER, ok)).unwrap();
    for (dim_bits, weights, why) in [
        (8, &[(7, 1.0), (3, 1.0)][..], "unsorted pair"),
        (8, &[(3, 1.0), (3, 2.0)], "duplicate slot"),
        (8, &[(256, 1.0)], "slot == 2^dim_bits"),
        (8, &[(3, 0.0)], "stored +0.0"),
        (7, &[], "dim_bits below the table range"),
        (27, &[], "dim_bits above the table range"),
    ] {
        let payload = personalizer_payload(dim_bits, weights, &0u32.to_le_bytes());
        let err =
            SteeringSnapshot::from_bytes(&with_section_payload(section::PERSONALIZER, payload))
                .unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt { what } if what.starts_with("personalizer section")),
            "{why}: unexpected {err:?}"
        );
    }
}

#[test]
fn element_count_is_bounded_by_element_size_not_byte_count() {
    // A crafted `n_pending` equal to the bytes that follow it: every
    // pending event encodes to at least 24 bytes, so the count is refused
    // before a `Vec` is sized by it. (The bound itself — `n * min_elem <=
    // remaining` — is pinned in `codec`'s unit tests; `unsafe` is forbidden
    // here, so no counting allocator.)
    let mut tail = vec![0u8; 4 + 4096];
    tail[..4].copy_from_slice(&4096u32.to_le_bytes());
    let payload = personalizer_payload(8, &[], &tail);
    assert_eq!(
        SteeringSnapshot::from_bytes(&with_section_payload(section::PERSONALIZER, payload))
            .unwrap_err(),
        SnapshotError::Truncated {
            what: "personalizer section"
        }
    );
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let path = std::env::temp_dir().join(format!(
        "qo-snapshot-does-not-exist-{}.qosnap",
        std::process::id()
    ));
    let err = SteeringSnapshot::read_from(&path).unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)), "unexpected {err:?}");
}
