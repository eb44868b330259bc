// Restore paths return typed errors instead of panicking; tests may
// unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! **scope-state**: the durable-state snapshot subsystem of the steering
//! loop — a versioned, length-prefixed, checksummed on-disk format for
//! everything the loop must carry across a process restart, in which each
//! type's byte layout is written once ([`codec::Field`]).
//!
//! The paper's pipeline is a long-lived production service whose value
//! lives in warm state: the bandit model, the SIS hint store, and the
//! flighting history accumulate over weeks of recurring jobs (§3–5). This
//! crate makes that state durable without compromising the repo's
//! determinism contract: a process killed at any day boundary and restored
//! from its last snapshot produces byte-identical `DailyReport`s and SIS
//! hint files versus the uninterrupted run (`tests/snapshot_recovery.rs`).
//!
//! # Format
//!
//! ```text
//! magic  b"QOSNAP\r\n"                      (8 bytes)
//! format version                            (u32 LE)
//! section count                             (u32 LE)
//! section*: id (u16) | flags (u16) | payload len (u64) | payload
//!           | checksum = stable_hash64(payload) (u64)
//! ```
//!
//! Everything is little-endian; `f64`s travel as IEEE-754 bit patterns
//! (`to_bits`), so round-trips are exact — including NaNs. The checksum is
//! [`scope_ir::ids::stable_hash64`], the workspace's FNV-1a — no new hash
//! constants.
//!
//! The bandit's `2^dim_bits` weight table travels as its non-`+0.0` slots,
//! strictly ascending ([`frame::section::PERSONALIZER`]): a snapshot is the
//! size of what was learned, and the decoder rejects any other encoding of
//! the same table, so export → restore → export is a byte fixpoint.
//!
//! Sections are either **authoritative** (the restore fails without them:
//! SIS version + hints, bandit weights, flighting RNG position, …) or
//! **warm** ([`frame::FLAG_WARM`]): deterministically rebuildable caches
//! that are safe to drop on restore. Unknown warm sections from a future
//! writer are skipped; unknown authoritative sections are a typed error.
//!
//! Restores of corrupt, truncated, or version-mismatched snapshots return
//! the matching [`SnapshotError`] variant — never a panic, never a silent
//! partial load ([`SteeringSnapshot::from_bytes`] decodes everything before
//! the caller applies anything).

pub mod codec;
pub mod components;
pub mod error;
pub mod frame;

pub use components::{
    ExploredState, FlightingState, LiteralsId, MetaState, MonitorState, MonitorTemplateState,
    SisState, SpanCacheEntry, SpanCacheState, SteeringSnapshot, ValidationState, WorkloadIdentity,
};
pub use error::SnapshotError;
pub use frame::{FrameReader, FrameWriter, FLAG_WARM, FORMAT_VERSION, MAGIC};
