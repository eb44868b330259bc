//! Durable steering state: snapshot and crash recovery.
//!
//! The paper's pipeline is a *daily offline* loop: all steering state lives
//! between days, so the natural durability point is the day boundary. This
//! module composes the per-crate state exports (`personalizer`, `sis`,
//! `flighting`, the §8 monitor, the advisor's own span cache and explored
//! set) into one [`SteeringSnapshot`] (`scope-state`'s versioned,
//! checksummed on-disk format) and applies one back.
//!
//! The contract, proven by `tests/snapshot_recovery.rs`: a process killed
//! at any day boundary and restored from its snapshot produces
//! **byte-identical** remaining [`crate::DailyReport`]s and SIS hint files
//! compared to the uninterrupted run. Restore is all-or-nothing — every
//! failable step runs before any live state mutates, so a corrupt,
//! truncated, or mismatched snapshot leaves the process exactly as it was
//! and surfaces a typed [`SnapshotError`].

use crate::config::{PipelineConfig, RecommendStrategy, REWARD_CLIP, VALIDATION_THRESHOLD};
use crate::monitoring::tuning_fingerprint;
use crate::pipeline::{PipelineError, QoAdvisor};
use crate::simulation::ProductionSim;
use crate::validation_model::ValidationModel;
use personalizer::Personalizer;
use rustc_hash::{FxHashMap, FxHashSet};
use scope_ir::ids::stable_hash64;
use scope_state::{
    ExploredState, FlightingState, LiteralsId, MetaState, SisState, SnapshotError, SpanCacheEntry,
    SpanCacheState, SteeringSnapshot, ValidationState, WorkloadIdentity,
};
use scope_workload::{LiteralPolicy, WorkloadConfig};
use std::path::{Path, PathBuf};

/// When to write snapshots during [`ProductionSim::advance_day`]: after
/// every `every`-th completed day, to `path` (atomically overwritten each
/// time). `every = 1` snapshots at every day boundary — the crash-recovery
/// regime of `tests/snapshot_recovery.rs` and the `recovery` bin.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    pub path: PathBuf,
    pub every: u32,
}

impl SnapshotPolicy {
    /// Snapshot to `path` at every day boundary.
    #[must_use]
    pub fn every_day(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 1,
        }
    }

    /// Does a snapshot fire once `completed_days` days have finished?
    #[must_use]
    pub fn fires_after(&self, completed_days: u32) -> bool {
        self.every > 0 && completed_days.is_multiple_of(self.every)
    }
}

fn literals_id(policy: LiteralPolicy) -> LiteralsId {
    match policy {
        LiteralPolicy::FreshEachRun => LiteralsId::Fresh,
        LiteralPolicy::Sticky { redraw_every_days } => LiteralsId::Sticky { redraw_every_days },
        LiteralPolicy::Mixed { sticky_fraction } => LiteralsId::Mixed { sticky_fraction },
    }
}

/// Stable fingerprint of every *output-affecting* pipeline knob, carried in
/// the snapshot's META section and checked on restore: a snapshot resumed
/// under different tuning (bandit hyper-parameters, flight budget, span
/// limits, …) would silently diverge from the uninterrupted
/// run, so a disagreement is a typed [`SnapshotError::Mismatch`].
///
/// Throughput-only knobs are deliberately **excluded** — `parallelism`, the
/// compile/exec/feature caches, delta compilation, and the bandit's
/// `batch_rank` scoring path never change steering outputs
/// (`tests/determinism.rs` proves it), so a snapshot legally restores
/// across them (`tests/snapshot_recovery.rs` exercises exactly that cross).
fn pipeline_fingerprint(config: &PipelineConfig) -> u64 {
    let mut bytes = Vec::with_capacity(128);
    bytes.push(match config.strategy {
        RecommendStrategy::ContextualBandit => 0u8,
        RecommendStrategy::UniformRandom => 1,
    });
    for knob in [
        config.cb.epsilon.to_bits(),
        config.cb.learning_rate.to_bits(),
        u64::from(config.cb.dim_bits),
        config.cb.max_importance.to_bits(),
        // The per-flight cap, validation threshold and reward clip are
        // constants that hash in their retired settings' slots, so every
        // earlier snapshot's fingerprint holds.
        flighting::MAX_JOB_SECONDS.to_bits(),
        config.flight_budget.total_seconds.to_bits(),
        config.flight_budget.queue_size as u64,
        VALIDATION_THRESHOLD.to_bits(),
        REWARD_CLIP.to_bits(),
        config.span_max_iterations as u64,
        u64::from(config.est_cost_gate),
        config.max_flights_per_day as u64,
        config.max_span_for_triples as u64,
        u64::from(config.skip_explored),
        u64::from(config.span_features),
        // Where a retired compile-budget knob used to hash (unlimited, no
        // task cap): keeping the two words keeps every earlier snapshot's
        // fingerprint, so those snapshots still restore.
        1,
        0,
    ] {
        bytes.extend_from_slice(&knob.to_le_bytes());
    }
    stable_hash64(&bytes)
}

fn workload_identity(config: &WorkloadConfig) -> WorkloadIdentity {
    WorkloadIdentity {
        seed: config.seed,
        num_templates: config.num_templates as u64,
        adhoc_per_day: config.adhoc_per_day as u64,
        max_instances_per_day: config.max_instances_per_day,
        literals: literals_id(config.literals),
    }
}

impl QoAdvisor {
    /// Export the advisor's durable state as of completed day `day` (the
    /// next day the loop will run). Advisor-only snapshots carry no
    /// workload identity and no monitor section — [`ProductionSim`] adds
    /// both on top of this.
    #[must_use]
    pub fn export_state(&self, day: u32) -> SteeringSnapshot {
        #[expect(clippy::disallowed_methods, reason = "sorted below")]
        let mut explored: Vec<_> = self.explored.iter().copied().collect();
        explored.sort_unstable();
        #[expect(clippy::disallowed_methods, reason = "sorted by template below")]
        let mut entries: Vec<_> = self
            .span_cache
            .iter()
            .map(|(&template, entry)| {
                (
                    template,
                    entry.as_ref().map(|(result, default_cost)| SpanCacheEntry {
                        result: result.clone(),
                        default_cost: *default_cost,
                    }),
                )
            })
            .collect();
        entries.sort_by_key(|(template, _)| *template);
        SteeringSnapshot {
            meta: MetaState {
                day,
                config_fingerprint: pipeline_fingerprint(&self.config),
                workload: None,
            },
            sis: SisState {
                version: self.sis.version(),
                hints: self.sis.snapshot().hints(),
            },
            personalizer: self.personalizer.export_state(),
            flighting: FlightingState {
                batch_salt: self.flighting.batch_salt(),
            },
            validation: self.validation.map(|m| ValidationState {
                intercept: m.intercept,
                w_read: m.w_read,
                w_written: m.w_written,
            }),
            explored: ExploredState {
                templates: explored,
            },
            monitor: None,
            span_cache: Some(SpanCacheState { entries }),
        }
    }

    /// Apply a decoded snapshot to this advisor — the restart path, so the
    /// target is a freshly constructed process image (in particular the SIS
    /// store must be pristine: restoring into a store that has already
    /// published would rewind its monotonic version sequence). All fallible
    /// checks run before any live state mutates, so on error the advisor is
    /// untouched.
    ///
    /// The warm span-cache section is installed when present and **cleared**
    /// when absent: a dropped warm section resets, rather than retains,
    /// whatever this advisor had cached, so stale entries keyed by another
    /// run's `TemplateId`s can never leak into a restored process. Either
    /// way only cost changes, never outputs. The compile / execution /
    /// feature caches are *not* part of snapshots at all — they rebuild
    /// deterministically.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when the snapshot's pipeline-config
    /// fingerprint or personalizer table shape disagrees with this
    /// advisor's configuration, its SIS hints fail validation, or this
    /// advisor's SIS store is not pristine.
    pub fn import_state(&mut self, snap: &SteeringSnapshot) -> Result<(), SnapshotError> {
        let ours = pipeline_fingerprint(&self.config);
        if snap.meta.config_fingerprint != ours {
            return Err(SnapshotError::Mismatch {
                what: format!(
                    "pipeline configuration differs: snapshot fingerprint \
                     {:#018x}, process {ours:#018x} (an output-affecting knob \
                     — bandit hyper-parameters, flight budget, span \
                     limits, … — changed between snapshot and restore)",
                    snap.meta.config_fingerprint
                ),
            });
        }
        let personalizer = Personalizer::from_state(self.config.cb.clone(), &snap.personalizer)
            .map_err(|e| SnapshotError::Mismatch {
                what: format!("personalizer: {e}"),
            })?;
        self.sis
            .restore_state(snap.sis.version, snap.sis.hints.clone())
            .map_err(|e| SnapshotError::Mismatch {
                what: format!("sis: {e}"),
            })?;
        // Infallible from here on.
        self.personalizer = personalizer;
        self.flighting.restore_batch_salt(snap.flighting.batch_salt);
        self.validation = snap.validation.map(|v| ValidationModel {
            intercept: v.intercept,
            w_read: v.w_read,
            w_written: v.w_written,
        });
        self.explored = snap
            .explored
            .templates
            .iter()
            .copied()
            .collect::<FxHashSet<_>>();
        if let Some(span_cache) = &snap.span_cache {
            self.span_cache = span_cache
                .entries
                .iter()
                .map(|(template, entry)| {
                    (
                        *template,
                        entry.as_ref().map(|e| (e.result.clone(), e.default_cost)),
                    )
                })
                .collect::<FxHashMap<_, _>>();
        } else {
            // A snapshot without the warm section resets the cache: entries
            // from before the restore belong to a run this snapshot knows
            // nothing about.
            self.span_cache.clear();
        }
        Ok(())
    }
}

impl ProductionSim {
    /// Export the whole closed loop's durable state: the advisor's plus the
    /// day counter, the workload identity, and the §8 monitor when enabled.
    #[must_use]
    pub fn export_state(&self) -> SteeringSnapshot {
        let mut snap = self.advisor.export_state(self.day);
        snap.meta.workload = Some(workload_identity(&self.workload.config));
        snap.monitor = self.monitor.as_ref().map(|m| m.export_state());
        snap
    }

    /// Apply a decoded snapshot to this simulation. Beyond
    /// [`QoAdvisor::import_state`], the snapshot must have been taken from
    /// a loop with the *same workload configuration* (the workload is a
    /// pure function of configuration and day, so identity plus the day
    /// counter is exactly "resume the same run") and the same monitor
    /// setting — presence *and* tuning, via the monitor-config fingerprint.
    /// All-or-nothing like the advisor restore.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] on workload-identity, monitor-presence,
    /// or monitor-tuning disagreement, or any advisor-level mismatch
    /// (pipeline-config fingerprint included). On error the simulation is
    /// unchanged.
    pub fn import_state(&mut self, snap: &SteeringSnapshot) -> Result<(), SnapshotError> {
        let ours = workload_identity(&self.workload.config);
        match snap.meta.workload {
            Some(theirs) if theirs == ours => {}
            Some(theirs) => {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "workload identity differs: snapshot {theirs:?}, process {ours:?}"
                    ),
                })
            }
            None => {
                return Err(SnapshotError::Mismatch {
                    what: "snapshot carries no workload identity (advisor-only snapshot \
                           restored into a production simulation)"
                        .to_string(),
                })
            }
        }
        match (&self.monitor, &snap.monitor) {
            (Some(_), Some(state)) => {
                let ours = tuning_fingerprint();
                if state.config_fingerprint != ours {
                    return Err(SnapshotError::Mismatch {
                        what: format!(
                            "monitor configuration differs: snapshot fingerprint \
                             {:#018x}, process {ours:#018x} (margin, revert \
                             threshold, or EMA factor changed between snapshot \
                             and restore)",
                            state.config_fingerprint
                        ),
                    });
                }
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(SnapshotError::Mismatch {
                    what: "monitoring enabled but snapshot has no monitor state".to_string(),
                })
            }
            (None, Some(_)) => {
                return Err(SnapshotError::Mismatch {
                    what: "snapshot has monitor state but monitoring is disabled".to_string(),
                })
            }
        }
        self.advisor.import_state(snap)?;
        if let (Some(monitor), Some(state)) = (&mut self.monitor, &snap.monitor) {
            monitor.restore_state(state);
        }
        self.day = snap.meta.day;
        Ok(())
    }

    /// Write the loop's snapshot to `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be written.
    pub fn snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.export_state().write_to(path)
    }

    /// Restore the loop from a snapshot file; the next
    /// [`ProductionSim::advance_day`] continues from the snapshotted day.
    ///
    /// The wall-clock cost of the read + decode + import is billed into the
    /// *next* day's [`crate::StageTimings::restore_ns`] — the read-side
    /// mirror of how `snapshot_ns` bills the write at the boundary that
    /// produced it, so a resumed run's per-day timings account for the
    /// recovery cost instead of losing it to ad-hoc caller measurement.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; on error the simulation is unchanged (and
    /// nothing is billed).
    pub fn restore(&mut self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "restore-cost wall-clock telemetry only; timings are zeroed before every byte-identity comparison"
        )]
        let t = std::time::Instant::now();
        let snap = SteeringSnapshot::read_from(path)?;
        self.import_state(&snap)?;
        self.pending_restore_ns = t.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Install (or clear) a snapshot policy:
    /// [`ProductionSim::advance_day`] then writes a snapshot at matching
    /// day boundaries and records the cost in
    /// [`crate::StageTimings::snapshot_ns`].
    pub fn set_snapshot_policy(&mut self, policy: Option<SnapshotPolicy>) {
        self.snapshot_policy = policy;
    }

    /// The day-boundary hook called by [`ProductionSim::advance_day`] after
    /// the day counter advances. Returns the wall-clock nanoseconds spent
    /// writing (zero when no snapshot fired).
    pub(crate) fn snapshot_if_due(&self) -> Result<u64, PipelineError> {
        let Some(policy) = &self.snapshot_policy else {
            return Ok(0);
        };
        if !policy.fires_after(self.day) {
            return Ok(0);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot-cost wall-clock telemetry only; timings are zeroed before every byte-identity comparison"
        )]
        let t = std::time::Instant::now();
        self.snapshot(&policy.path)?;
        Ok(t.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use scope_state::FORMAT_VERSION;

    fn small_sim() -> ProductionSim {
        ProductionSim::new(
            WorkloadConfig {
                seed: 41,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            },
            PipelineConfig::default(),
        )
    }

    #[test]
    fn export_import_is_a_fixpoint() {
        let mut sim = small_sim();
        sim.bootstrap_validation_model(2, 8).unwrap();
        sim.run(2).unwrap();
        let snap = sim.export_state();
        let mut fresh = small_sim();
        fresh.import_state(&snap).unwrap();
        assert_eq!(fresh.day, sim.day);
        assert_eq!(fresh.export_state(), snap);
    }

    #[test]
    fn restore_rejects_different_workload() {
        let mut sim = small_sim();
        sim.run(1).unwrap();
        let snap = sim.export_state();
        let mut other = ProductionSim::new(
            WorkloadConfig {
                seed: 42,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            },
            PipelineConfig::default(),
        );
        let before = other.export_state();
        let err = other.import_state(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err:?}");
        assert_eq!(
            other.export_state(),
            before,
            "failed restore mutates nothing"
        );
    }

    #[test]
    fn restore_rejects_monitor_presence_mismatch() {
        let mut monitored = small_sim().with_monitoring();
        monitored.run(1).unwrap();
        let snap = monitored.export_state();
        let mut plain = small_sim();
        assert!(matches!(
            plain.import_state(&snap).unwrap_err(),
            SnapshotError::Mismatch { .. }
        ));
        // And the other direction.
        let mut plain2 = small_sim();
        plain2.run(1).unwrap();
        let snap2 = plain2.export_state();
        let mut monitored2 = small_sim().with_monitoring();
        assert!(matches!(
            monitored2.import_state(&snap2).unwrap_err(),
            SnapshotError::Mismatch { .. }
        ));
    }

    #[test]
    fn restore_rejects_different_pipeline_tuning() {
        let mut sim = small_sim();
        sim.run(1).unwrap();
        let snap = sim.export_state();
        for tweaked in [
            PipelineConfig {
                cb: personalizer::CbConfig {
                    epsilon: 0.2,
                    ..personalizer::CbConfig::default()
                },
                ..PipelineConfig::default()
            },
            PipelineConfig {
                max_flights_per_day: 47,
                ..PipelineConfig::default()
            },
        ] {
            let mut other = ProductionSim::new(
                WorkloadConfig {
                    seed: 41,
                    num_templates: 12,
                    adhoc_per_day: 3,
                    max_instances_per_day: 1,
                    ..WorkloadConfig::default()
                },
                tweaked,
            );
            let before = other.export_state();
            let err = other.import_state(&snap).unwrap_err();
            assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err:?}");
            assert_eq!(
                other.export_state(),
                before,
                "failed restore mutates nothing"
            );
        }
    }

    #[test]
    fn throughput_knobs_are_not_part_of_the_snapshot_identity() {
        // The determinism contract says threads/caches never change
        // outputs, so a snapshot must restore across them (the recovery
        // harness relies on it; this pins the fingerprint's exclusions).
        let serial_cached = PipelineConfig::default();
        let threaded_uncached = PipelineConfig {
            parallelism: crate::config::ParallelismConfig::with_threads(8),
            cache: scope_opt::CacheConfig::disabled(),
            exec_cache: scope_runtime::ExecCacheConfig::disabled(),
            delta: scope_opt::DeltaConfig::disabled(),
            feature_cache: crate::features::FeatureCacheConfig::disabled(),
            cb: personalizer::CbConfig {
                batch_rank: false,
                ..personalizer::CbConfig::default()
            },
            ..PipelineConfig::default()
        };
        assert_eq!(
            pipeline_fingerprint(&serial_cached),
            pipeline_fingerprint(&threaded_uncached)
        );

        let mut sim = ProductionSim::new(
            WorkloadConfig {
                seed: 41,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            },
            serial_cached,
        );
        sim.run(1).unwrap();
        let snap = sim.export_state();
        let mut other = ProductionSim::new(
            WorkloadConfig {
                seed: 41,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            },
            threaded_uncached,
        );
        other.import_state(&snap).unwrap();
        assert_eq!(other.day, sim.day);
    }

    #[test]
    fn restore_rejects_different_monitor_tuning() {
        // The tuning is constant, so a snapshot from other tuning is one
        // whose monitor fingerprint differs.
        let mut monitored = small_sim().with_monitoring();
        monitored.run(1).unwrap();
        let mut snap = monitored.export_state();
        snap.monitor.as_mut().unwrap().config_fingerprint ^= 1;
        let mut retuned = small_sim().with_monitoring();
        let err = retuned.import_state(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err:?}");
    }

    #[test]
    fn dropped_warm_span_cache_resets_the_restored_cache() {
        // A restore whose snapshot carries no warm section must clear, not
        // retain, whatever the target advisor had cached: stale entries
        // keyed by another run's TemplateIds would survive otherwise.
        let mut sim = small_sim();
        sim.advisor
            .span_cache
            .insert(scope_ir::TemplateId(123), None);
        let mut snap = small_sim().export_state();
        snap.span_cache = None;
        sim.import_state(&snap).unwrap();
        assert!(sim.advisor.span_cache.is_empty());
    }

    #[test]
    fn restore_into_a_used_sis_store_is_rejected() {
        // Restore targets a fresh process image; a store that has already
        // published must not be rewound (its hint-file history on disk is
        // append-only).
        let mut sim = small_sim();
        let snap = sim.export_state();
        sim.advisor
            .sis
            .publish(sis::HintFile {
                version: 1,
                source_day: 0,
                hints: vec![],
            })
            .unwrap();
        let err = sim.import_state(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err:?}");
        assert_eq!(
            sim.advisor.sis.version(),
            1,
            "failed restore mutates nothing"
        );
    }

    #[test]
    fn advisor_only_snapshot_rejected_by_sim_restore() {
        let sim = small_sim();
        let snap = sim.advisor.export_state(0);
        assert!(snap.meta.workload.is_none());
        let mut other = small_sim();
        assert!(matches!(
            other.import_state(&snap).unwrap_err(),
            SnapshotError::Mismatch { .. }
        ));
    }

    #[test]
    fn snapshot_file_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "qo-snapshot-test-{}-{FORMAT_VERSION}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.qosnap");
        let mut sim = small_sim();
        sim.run(2).unwrap();
        sim.snapshot(&path).unwrap();
        let mut fresh = small_sim();
        fresh.restore(&path).unwrap();
        assert_eq!(fresh.export_state(), sim.export_state());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_size_tracks_what_the_bandit_learned() {
        // Default `dim_bits` 20: a dense table alone is 8 MiB. The snapshot
        // pays 12 bytes per learned weight plus a small remainder (hints,
        // span cache, counters); that nothing in it grows per *reward* is
        // pinned by personalizer's `state_does_not_grow_with_rewarded_events`.
        let mut sim = small_sim();
        sim.bootstrap_validation_model(2, 8).unwrap();
        sim.run(5).unwrap();
        let snap = sim.export_state();
        let nonzero_slots = snap.personalizer.weights.len();
        assert!(nonzero_slots > 0, "five days must have taught it something");
        let bytes = snap.to_bytes().len();
        assert!(
            bytes <= 64 * 1024 + 12 * nonzero_slots,
            "{bytes}-byte snapshot for {nonzero_slots} learned weights"
        );
    }

    #[test]
    fn policy_fires_on_multiples_only() {
        let p = SnapshotPolicy {
            path: PathBuf::from("x"),
            every: 3,
        };
        assert!(!p.fires_after(1));
        assert!(!p.fires_after(2));
        assert!(p.fires_after(3));
        assert!(p.fires_after(6));
        let off = SnapshotPolicy {
            path: PathBuf::from("x"),
            every: 0,
        };
        assert!(!off.fires_after(3));
    }

    /// A moved fingerprint makes every snapshot written before the move fail
    /// to restore with `Mismatch`, so its value is pinned.
    #[test]
    fn default_pipeline_fingerprint_is_pinned() {
        assert_eq!(
            pipeline_fingerprint(&PipelineConfig::default()),
            0x12f0_c962_0596_67ee
        );
    }
}
