//! Versioned, validated hint storage.

use scope_ir::TemplateId;
use scope_opt::{Hint, HintSet, RuleConfig, RULE_COUNT};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{PoisonError, RwLockReadGuard};

/// The on-disk hint file format published by the pipeline's Hint Generation
/// task ("the output is saved to a file in the SIS pre-defined format", §4.4).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct HintFile {
    pub version: u32,
    /// Day the generating pipeline ran over.
    pub source_day: u32,
    pub hints: Vec<Hint>,
}

/// SIS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SisError {
    /// A hint references a rule id outside the registry.
    BadRuleId { rule: u16 },
    /// Two hints target the same template.
    DuplicateTemplate { template: TemplateId },
    /// Version must increase monotonically.
    StaleVersion { proposed: u32, current: u32 },
    /// Snapshot restore attempted on a store that already has a version
    /// installed; rewinding a live store would let future publishes re-issue
    /// version numbers whose hint files already exist on disk.
    NotPristine { current: u32 },
    /// Filesystem/serialization problems.
    Io(String),
}

impl fmt::Display for SisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SisError::BadRuleId { rule } => write!(f, "hint references invalid rule id {rule}"),
            SisError::DuplicateTemplate { template } => {
                write!(f, "duplicate hints for template {template}")
            }
            SisError::StaleVersion { proposed, current } => {
                write!(f, "version {proposed} is not newer than {current}")
            }
            SisError::NotPristine { current } => write!(
                f,
                "cannot restore a snapshot into a live store at version {current}: \
                 restore is only valid on a fresh store"
            ),
            SisError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SisError {}

/// The hint store: validates and versions published hint files and serves
/// compile-time lookups.
#[derive(Debug)]
pub struct SisStore {
    /// Optional persistence directory; `None` keeps everything in memory.
    dir: Option<PathBuf>,
    #[expect(
        clippy::disallowed_types,
        reason = "only the serial publish step writes the hint set"
    )]
    state: std::sync::RwLock<State>,
}

#[derive(Debug, Default)]
struct State {
    version: u32,
    hints: HintSet,
}

impl SisStore {
    /// Reads recover a poisoned lock: a writer only assigns `version` and
    /// `hints`, so a panicking holder cannot leave either half-built.
    fn state(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// In-memory store (most tests and simulations).
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            state: Default::default(),
        }
    }

    /// Store persisting published files under `dir`.
    pub fn at_dir(dir: impl AsRef<Path>) -> Result<Self, SisError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| SisError::Io(e.to_string()))?;
        Ok(Self {
            dir: Some(dir),
            state: Default::default(),
        })
    }

    /// Validate a hint file's format (§4.4: SIS "validates the format before
    /// installing").
    pub fn validate(file: &HintFile) -> Result<(), SisError> {
        let mut seen = std::collections::HashSet::new();
        for h in &file.hints {
            if usize::from(h.flip.rule.0) >= RULE_COUNT {
                return Err(SisError::BadRuleId {
                    rule: h.flip.rule.0,
                });
            }
            if !seen.insert(h.template) {
                return Err(SisError::DuplicateTemplate {
                    template: h.template,
                });
            }
        }
        Ok(())
    }

    /// Publish a hint file: validate, bump version, persist, install.
    ///
    /// Version 0 is the reserved "nothing installed" sentinel
    /// ([`SisStore::version`] returns 0 for an empty store), so publishing
    /// it is rejected even into an empty store (`0 <= state.version` always
    /// holds) — accepting it would leave hints installed that every
    /// version-probing caller believes absent.
    pub fn publish(&self, file: HintFile) -> Result<u32, SisError> {
        Self::validate(&file)?;
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        if file.version <= state.version {
            return Err(SisError::StaleVersion {
                proposed: file.version,
                current: state.version,
            });
        }
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("hints-v{:06}.json", file.version));
            let json =
                serde_json::to_string_pretty(&file).map_err(|e| SisError::Io(e.to_string()))?;
            std::fs::write(path, json).map_err(|e| SisError::Io(e.to_string()))?;
        }
        state.version = file.version;
        state.hints = HintSet::from_hints(file.hints);
        Ok(state.version)
    }

    /// Load the newest valid persisted hint file from disk and install it.
    /// Files are tried newest-first by the version in their name, down to
    /// (not including) the live version: a torn or invalid file falls back
    /// to the next older one, and `Err` — the newest file's error — comes
    /// only when none of them is valid. When the live in-memory version is
    /// already at least as new as every file, nothing is installed and
    /// `Ok(None)` is returned: a reload must never silently downgrade a
    /// store that has published past what is on disk (e.g. after a partial
    /// cleanup of the hint directory).
    pub fn reload_latest(&self) -> Result<Option<u32>, SisError> {
        let Some(dir) = &self.dir else {
            return Ok(None);
        };
        let io = |e: std::io::Error| SisError::Io(e.to_string());
        // The versions come from the filenames, so a stale directory is a
        // no-op before any file is read — a corrupt file that would install
        // nothing must not fail the reload.
        let live = self.state().version;
        let mut newer: Vec<(u32, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io)? {
            let entry = entry.map_err(io)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(v) = name
                .strip_prefix("hints-v")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                if v > live {
                    newer.push((v, entry.path()));
                }
            }
        }
        newer.sort_unstable_by(|a, b| b.cmp(a));
        let mut newest_err = None;
        for (version, path) in newer {
            let file = std::fs::read_to_string(path).map_err(io).and_then(|json| {
                let file: HintFile =
                    serde_json::from_str(&json).map_err(|e| SisError::Io(e.to_string()))?;
                Self::validate(&file).map(|()| file)
            });
            let file = match file {
                Ok(file) => file,
                Err(e) => {
                    newest_err.get_or_insert(e);
                    continue;
                }
            };
            let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
            if version <= state.version {
                return Ok(None);
            }
            state.version = version;
            state.hints = HintSet::from_hints(file.hints);
            return Ok(Some(version));
        }
        newest_err.map_or(Ok(None), Err)
    }

    /// Install snapshot-restored state directly: set the live version and
    /// hints without writing a hint file (the files from before the
    /// snapshot are already on disk). Only a **pristine** store — version 0,
    /// nothing ever published or reloaded — may restore: rewinding a live
    /// store would bypass the monotonic-version contract and let future
    /// publishes re-issue version numbers whose hint files already exist on
    /// disk with different content ([`SisError::NotPristine`] otherwise).
    /// Validation still applies — a corrupt snapshot must not install — and
    /// a version-0 snapshot that claims hints is rejected for the same
    /// reason [`SisStore::publish`] rejects version 0. Future publishes
    /// continue the version sequence from the restored point.
    pub fn restore_state(&self, version: u32, hints: Vec<Hint>) -> Result<(), SisError> {
        let file = HintFile {
            version,
            source_day: 0,
            hints,
        };
        Self::validate(&file)?;
        if version == 0 && !file.hints.is_empty() {
            return Err(SisError::StaleVersion {
                proposed: 0,
                current: 0,
            });
        }
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        if state.version != 0 {
            return Err(SisError::NotPristine {
                current: state.version,
            });
        }
        state.version = version;
        state.hints = HintSet::from_hints(file.hints);
        Ok(())
    }

    /// Current installed version (0 = nothing installed).
    pub fn version(&self) -> u32 {
        self.state().version
    }

    /// Number of installed hints.
    pub fn len(&self) -> usize {
        self.state().hints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The compile-time lookup: effective configuration for a template.
    pub fn config_for(&self, template: TemplateId, default: &RuleConfig) -> RuleConfig {
        self.state().hints.config_for(template, default)
    }

    /// Snapshot of the installed hints (e.g. for the engine's hint cache).
    pub fn snapshot(&self) -> HintSet {
        self.state().hints.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_opt::{RuleFlip, RuleId};

    fn hint(template: u64, rule: u16, enable: bool) -> Hint {
        Hint {
            template: TemplateId(template),
            flip: RuleFlip {
                rule: RuleId(rule),
                enable,
            },
        }
    }

    #[test]
    fn publish_and_lookup() {
        let store = SisStore::in_memory();
        let v = store
            .publish(HintFile {
                version: 1,
                source_day: 0,
                hints: vec![hint(42, 21, true)],
            })
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.len(), 1);
        let optimizer = scope_opt::Optimizer::default();
        let default = optimizer.default_config();
        let cfg = store.config_for(TemplateId(42), &default);
        assert!(cfg.enabled(RuleId(21)));
        assert_eq!(store.config_for(TemplateId(7), &default), default);
    }

    #[test]
    fn validation_rejects_bad_rule_and_duplicates() {
        let bad = HintFile {
            version: 1,
            source_day: 0,
            hints: vec![hint(1, 999, true)],
        };
        assert!(matches!(
            SisStore::validate(&bad),
            Err(SisError::BadRuleId { rule: 999 })
        ));
        let dup = HintFile {
            version: 1,
            source_day: 0,
            hints: vec![hint(1, 3, true), hint(1, 4, false)],
        };
        assert!(matches!(
            SisStore::validate(&dup),
            Err(SisError::DuplicateTemplate { .. })
        ));
    }

    #[test]
    fn versions_must_increase() {
        let store = SisStore::in_memory();
        store
            .publish(HintFile {
                version: 2,
                source_day: 0,
                hints: vec![],
            })
            .unwrap();
        let err = store
            .publish(HintFile {
                version: 2,
                source_day: 1,
                hints: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, SisError::StaleVersion { .. }));
        store
            .publish(HintFile {
                version: 3,
                source_day: 1,
                hints: vec![],
            })
            .unwrap();
        assert_eq!(store.version(), 3);
    }

    #[test]
    fn version_zero_is_rejected_even_into_an_empty_store() {
        // Regression: an empty store (version 0) used to accept a
        // `version: 0` file, leaving hints installed while `version()`
        // still answered "nothing installed".
        let store = SisStore::in_memory();
        let err = store
            .publish(HintFile {
                version: 0,
                source_day: 0,
                hints: vec![hint(1, 21, true)],
            })
            .unwrap_err();
        assert_eq!(
            err,
            SisError::StaleVersion {
                proposed: 0,
                current: 0
            }
        );
        assert_eq!(store.version(), 0);
        assert!(store.is_empty(), "the rejected file must not install");
    }

    #[test]
    fn reload_never_downgrades_a_newer_live_version() {
        // Regression: `reload_latest` used to install whatever the highest
        // on-disk version was, silently downgrading a store whose live
        // version had already moved past it.
        let dir = std::env::temp_dir().join(format!("sis-downgrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SisStore::at_dir(&dir).unwrap();
        store
            .publish(HintFile {
                version: 1,
                source_day: 0,
                hints: vec![hint(1, 21, true)],
            })
            .unwrap();
        store
            .publish(HintFile {
                version: 5,
                source_day: 1,
                hints: vec![hint(2, 22, true)],
            })
            .unwrap();
        // Lose the newest file: the directory now only holds version 1.
        std::fs::remove_file(dir.join("hints-v000005.json")).unwrap();
        assert_eq!(store.reload_latest().unwrap(), None, "downgrade skipped");
        assert_eq!(store.version(), 5, "live version untouched");
        let optimizer = scope_opt::Optimizer::default();
        let default = optimizer.default_config();
        assert!(
            store
                .config_for(TemplateId(2), &default)
                .enabled(RuleId(22)),
            "live hints untouched"
        );
        assert_eq!(
            store.config_for(TemplateId(1), &default),
            default,
            "the stale on-disk hints must not come back"
        );
        // Reloading the same version is also a no-op, not a reinstall.
        let fresh = SisStore::at_dir(&dir).unwrap();
        assert_eq!(fresh.reload_latest().unwrap(), Some(1));
        assert_eq!(fresh.reload_latest().unwrap(), None);
        assert_eq!(fresh.version(), 1);
        // A stale file that would install nothing is skipped before it is
        // even read: corrupting it must not fail the newer store's reload.
        std::fs::write(dir.join("hints-v000001.json"), b"{not json").unwrap();
        assert_eq!(store.reload_latest().unwrap(), None);
        assert_eq!(store.version(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_requires_a_pristine_store() {
        // A fresh store restores to wherever the snapshot was...
        let store = SisStore::in_memory();
        store.restore_state(5, vec![hint(1, 21, true)]).unwrap();
        assert_eq!(store.version(), 5);
        assert_eq!(store.len(), 1);
        // ...and publishes continue the version sequence from there.
        store
            .publish(HintFile {
                version: 6,
                source_day: 0,
                hints: vec![],
            })
            .unwrap();

        // A live store must never restore: rewinding the version would let
        // future publishes re-issue hint-file names that already exist.
        let err = store.restore_state(2, vec![]).unwrap_err();
        assert_eq!(err, SisError::NotPristine { current: 6 });
        assert_eq!(store.version(), 6, "failed restore must not install");

        // Same for a forward restore — only fresh stores restore at all.
        assert_eq!(
            store.restore_state(9, vec![]).unwrap_err(),
            SisError::NotPristine { current: 6 }
        );
    }

    #[test]
    fn restore_rejects_version_zero_with_hints() {
        // Mirrors `version_zero_is_rejected_even_into_an_empty_store`: a
        // snapshot claiming installed hints at the "nothing installed"
        // sentinel version is invalid, not installable.
        let store = SisStore::in_memory();
        let err = store.restore_state(0, vec![hint(1, 21, true)]).unwrap_err();
        assert_eq!(
            err,
            SisError::StaleVersion {
                proposed: 0,
                current: 0
            }
        );
        assert!(store.is_empty());
        // An empty version-0 snapshot (fresh-run state) is a valid no-op.
        store.restore_state(0, vec![]).unwrap();
        assert_eq!(store.version(), 0);
    }

    #[test]
    fn new_file_replaces_old_hints() {
        let store = SisStore::in_memory();
        store
            .publish(HintFile {
                version: 1,
                source_day: 0,
                hints: vec![hint(1, 21, true)],
            })
            .unwrap();
        store
            .publish(HintFile {
                version: 2,
                source_day: 1,
                hints: vec![hint(2, 22, true)],
            })
            .unwrap();
        let optimizer = scope_opt::Optimizer::default();
        let default = optimizer.default_config();
        // Old hint gone, new hint live.
        assert_eq!(store.config_for(TemplateId(1), &default), default);
        assert!(store
            .config_for(TemplateId(2), &default)
            .enabled(RuleId(22)));
    }

    #[test]
    fn disk_roundtrip_and_reload() {
        let dir = std::env::temp_dir().join(format!("sis-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SisStore::at_dir(&dir).unwrap();
            store
                .publish(HintFile {
                    version: 1,
                    source_day: 0,
                    hints: vec![hint(5, 26, false)],
                })
                .unwrap();
            store
                .publish(HintFile {
                    version: 2,
                    source_day: 1,
                    hints: vec![hint(6, 27, false)],
                })
                .unwrap();
        }
        let fresh = SisStore::at_dir(&dir).unwrap();
        assert_eq!(fresh.version(), 0, "fresh store starts empty");
        assert_eq!(fresh.reload_latest().unwrap(), Some(2));
        assert_eq!(fresh.len(), 1);
        let optimizer = scope_opt::Optimizer::default();
        let default = optimizer.default_config();
        assert!(!fresh
            .config_for(TemplateId(6), &default)
            .enabled(RuleId(27)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
