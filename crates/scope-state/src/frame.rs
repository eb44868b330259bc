//! The snapshot container format: magic, format version, and checksummed
//! length-prefixed sections. See the crate docs for the byte layout.

use crate::codec::{Field, Reader};
use crate::error::SnapshotError;
use scope_ir::ids::stable_hash64;
use std::path::Path;

/// File magic. The `\r\n` tail is a text-mode-mangling canary (the PNG
/// trick): a snapshot that went through newline translation fails here
/// with [`SnapshotError::BadMagic`] instead of decoding garbage.
pub const MAGIC: [u8; 8] = *b"QOSNAP\r\n";

/// Current format version. Bumping it invalidates the pinned golden
/// fixture (`tests/golden.rs`), which must be re-blessed deliberately.
///
/// v2: `META` gained the pipeline-config fingerprint and `MONITOR` the
/// monitor-config fingerprint, so a snapshot restored under different
/// tuning is a typed mismatch instead of a silent divergence.
///
/// v3: `PERSONALIZER` carries the weight table as its non-`+0.0` slots and
/// no reward history, so a snapshot is the size of what the bandit learned.
/// There is one decoder: snapshots are overwritten daily and nothing
/// deployed holds a v2 file, so v2 is [`SnapshotError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 3;

/// Section flag: the payload is a warm cache — deterministically
/// rebuildable, safe to drop on restore, and skipped (not an error) when a
/// reader does not recognize its id.
pub const FLAG_WARM: u16 = 0x0001;

/// Section ids. Authoritative sections are required by
/// [`crate::SteeringSnapshot::from_bytes`]; warm ids (high bit set by
/// convention) carry [`FLAG_WARM`] and are droppable.
pub mod section {
    /// Day counter + workload identity (authoritative).
    pub const META: u16 = 1;
    /// SIS store version + installed hints (authoritative).
    pub const SIS: u16 = 2;
    /// Personalizer bandit state (authoritative): `dim_bits u32 · n u32 ·
    /// n × (slot u32, weight f64-bits)` — the table's non-`+0.0` slots,
    /// strictly ascending — then the update / event / next-event-id
    /// counters (`u64` each) and the pending events.
    pub const PERSONALIZER: u16 = 3;
    /// Flighting batch salt — the loop's only cross-day RNG position
    /// (authoritative).
    pub const FLIGHTING: u16 = 4;
    /// Fitted validation model, when installed (optional).
    pub const VALIDATION: u16 = 5;
    /// Templates already flighted (§8 stateful mode; authoritative).
    pub const EXPLORED: u16 = 6;
    /// Regression-monitor per-template baselines, when monitoring is
    /// enabled (optional).
    pub const MONITOR: u16 = 7;
    /// Span-fixpoint results per template (warm — rebuilt on demand).
    pub const SPAN_CACHE: u16 = 0x8001;
    /// Reserved for the compile-result cache (warm; never written — the
    /// cache is a pure function of the plans it sees).
    pub const COMPILE_CACHE: u16 = 0x8002;
    /// Reserved for the execution cache (warm; never written).
    pub const EXEC_CACHE: u16 = 0x8003;
    /// Reserved for the span-feature cache (warm; never written).
    pub const FEATURE_CACHE: u16 = 0x8004;
    /// Reserved for delta-compilation base memos (warm; never written).
    pub const DELTA_BASE_MEMO: u16 = 0x8005;
}

/// One decoded section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionFrame {
    pub id: u16,
    pub flags: u16,
    pub payload: Vec<u8>,
}

impl SectionFrame {
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.flags & FLAG_WARM != 0
    }
}

/// Assembles sections into the on-disk byte stream.
#[derive(Debug, Default)]
pub struct FrameWriter {
    sections: Vec<SectionFrame>,
}

impl FrameWriter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an authoritative section.
    pub fn push(&mut self, id: u16, payload: Vec<u8>) {
        self.sections.push(SectionFrame {
            id,
            flags: 0,
            payload,
        });
    }

    /// Append a droppable warm-cache section.
    pub fn push_warm(&mut self, id: u16, payload: Vec<u8>) {
        self.sections.push(SectionFrame {
            id,
            flags: FLAG_WARM,
            payload,
        });
    }

    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        FORMAT_VERSION.put(&mut out);
        (self.sections.len() as u32).put(&mut out);
        for s in &self.sections {
            s.id.put(&mut out);
            s.flags.put(&mut out);
            (s.payload.len() as u64).put(&mut out);
            out.extend_from_slice(&s.payload);
            stable_hash64(&s.payload).put(&mut out);
        }
        out
    }
}

/// Atomically replace `path` with `bytes`: the bytes land in a sibling
/// `<name>.tmp` file which is flushed to disk and then renamed over the
/// target. A crash anywhere in the window leaves either the previous
/// complete snapshot or the new one — never the truncated hybrid that
/// writing straight onto the live path would risk.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = {
        let mut name = path
            .file_name()
            .map(std::ffi::OsStr::to_os_string)
            .unwrap_or_default();
        name.push(".tmp");
        path.with_file_name(name)
    };
    let result = (|| {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Push the bytes through the OS cache before publishing the name,
        // so the rename never exposes data the kernel has not accepted.
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Parses and checksum-verifies the byte stream back into sections. All
/// structural validation happens here, before any component decodes.
#[derive(Debug)]
pub struct FrameReader {
    sections: Vec<SectionFrame>,
}

impl FrameReader {
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated { what: "magic" });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..], "format version");
        let version = u32::take(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        r.set_context("section count");
        let count = u32::take(&mut r)?;
        let mut sections: Vec<SectionFrame> = Vec::new();
        for _ in 0..count {
            r.set_context("section header");
            let id = u16::take(&mut r)?;
            let flags = u16::take(&mut r)?;
            let len = u64::take(&mut r)?;
            if len > r.remaining() as u64 {
                return Err(SnapshotError::Truncated {
                    what: "section payload",
                });
            }
            r.set_context("section payload");
            let payload = r.bytes(len as usize)?.to_vec();
            r.set_context("section checksum");
            let stored = u64::take(&mut r)?;
            if stored != stable_hash64(&payload) {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            if sections.iter().any(|s| s.id == id) {
                return Err(SnapshotError::Corrupt {
                    what: format!("duplicate section id {id}"),
                });
            }
            sections.push(SectionFrame { id, flags, payload });
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt {
                what: format!("{} trailing bytes after the last section", r.remaining()),
            });
        }
        Ok(Self { sections })
    }

    #[must_use]
    pub fn section(&self, id: u16) -> Option<&SectionFrame> {
        self.sections.iter().find(|s| s.id == id)
    }

    /// An authoritative section the restore cannot proceed without.
    pub fn require(&self, id: u16, what: &'static str) -> Result<&[u8], SnapshotError> {
        self.section(id)
            .map(|s| s.payload.as_slice())
            .ok_or(SnapshotError::Corrupt {
                what: format!("missing required section {id} ({what})"),
            })
    }

    #[must_use]
    pub fn sections(&self) -> &[SectionFrame] {
        &self.sections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_bytes() -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.push(section::META, vec![1, 2, 3, 4]);
        w.push_warm(section::SPAN_CACHE, vec![5, 6]);
        w.to_bytes()
    }

    #[test]
    fn frame_round_trips() {
        let bytes = two_section_bytes();
        let r = FrameReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.sections().len(), 2);
        assert_eq!(r.section(section::META).unwrap().payload, vec![1, 2, 3, 4]);
        assert!(r.section(section::SPAN_CACHE).unwrap().is_warm());
        assert!(r.section(section::SIS).is_none());
        assert!(r.require(section::SIS, "sis").is_err());
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = two_section_bytes();
        assert_eq!(
            FrameReader::from_bytes(&bytes[..4]).unwrap_err(),
            SnapshotError::Truncated { what: "magic" }
        );
        bytes[0] ^= 0xFF;
        assert_eq!(
            FrameReader::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut bumped = two_section_bytes();
        bumped[8] = FORMAT_VERSION as u8 + 1;
        assert_eq!(
            FrameReader::from_bytes(&bumped).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn checksum_flip_is_detected() {
        let mut bytes = two_section_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01; // last byte of the warm section's checksum
        assert_eq!(
            FrameReader::from_bytes(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch {
                section: section::SPAN_CACHE
            }
        );
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = two_section_bytes();
        for cut in 0..bytes.len() {
            let err = FrameReader::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn write_to_replaces_the_previous_snapshot_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("qo-frame-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.qosnap");

        atomic_write(&path, &[1]).unwrap();
        atomic_write(&path, &[2, 3]).unwrap();

        assert_eq!(std::fs::read(&path).unwrap(), vec![2, 3]);
        assert!(
            !dir.join("state.qosnap.tmp").exists(),
            "the temp file must be renamed away, not left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_keeps_the_previous_snapshot_intact() {
        let dir = std::env::temp_dir().join(format!("qo-frame-atomic-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.qosnap");

        let good = two_section_bytes();
        atomic_write(&path, &good).unwrap();

        // Block the temp-file slot with a directory: the write must fail
        // with a typed Io error while the live snapshot stays readable.
        std::fs::create_dir(dir.join("state.qosnap.tmp")).unwrap();
        assert!(matches!(
            atomic_write(&path, &[9]).unwrap_err(),
            SnapshotError::Io(_)
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "a failed write must never touch the previous snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_and_duplicate_sections_are_corrupt() {
        let mut bytes = two_section_bytes();
        bytes.push(0);
        assert!(matches!(
            FrameReader::from_bytes(&bytes).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
        let mut w = FrameWriter::new();
        w.push(section::META, vec![]);
        w.push(section::META, vec![]);
        assert!(matches!(
            FrameReader::from_bytes(&w.to_bytes()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }
}
