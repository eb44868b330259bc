//! Tenant isolation of the multi-tenant fleet: every tenant inside a
//! [`qo_advisor::fleet::Fleet`] — shared process-wide caches, one worker
//! pool building every tenant's view — must produce byte-identical daily
//! reports and byte-identical published SIS hint files to the same workload
//! run alone in a single-tenant [`ProductionSim`].
//!
//! This is the contract that makes shared-cache tenancy deployable: the
//! shared compile / execution / delta-base / span-feature caches are keyed
//! on tenant-invariant plan identities, so cross-tenant sharing changes hit
//! rates and wall clocks, never steering outputs. The worker count is
//! likewise a pure throughput knob (`queue_capacity` has no effect).
//!
//! Structure mirrors `tests/determinism.rs` and `tests/snapshot_recovery.rs`:
//! reports are compared after `DailyReport::steering` defaults the telemetry-only fields,
//! hint files as raw bytes.
//!
//! Legs:
//!   * fleet-vs-isolated: overlapping and disjoint tenants × shared/private
//!     caches × 1/8 stream workers (plus 3 workers over 7 tenants) against
//!     independent single-tenant sims;
//!   * mid-run kill/restore: per-tenant snapshots taken mid-fleet-run
//!     restore into a fresh fleet and finish byte-identical (extends the
//!     PR 8 crash-recovery harness to the fleet);
//!   * restore billing: a day resumed from [`ProductionSim::restore`]
//!     carries the restore's wall cost in `timings.restore_ns` (and only
//!     that day does);
//!   * serving bar: overlapping tenants' shared caches lift the lifetime
//!     compile+feature hit rate ≥ 1.2x over isolated per-tenant caches.

use qo_advisor::fleet::{
    disjoint_workloads, overlapping_workloads, Fleet, FleetConfig, StreamConfig,
};
use qo_advisor::{
    CacheConfig, DailyReport, DeltaConfig, ExecCacheConfig, FeatureCacheConfig, PipelineConfig,
    ProductionSim,
};
use scope_workload::WorkloadConfig;
use sis::SisStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const DAYS: u32 = 3;
const TENANTS: usize = 3;

fn workload() -> WorkloadConfig {
    // Same parameters as tests/determinism.rs: several hint files get
    // published, so the file comparisons below are not vacuous.
    WorkloadConfig {
        seed: 99,
        num_templates: 24,
        adhoc_per_day: 3,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    }
}

fn config_with(caches: bool) -> PipelineConfig {
    if caches {
        PipelineConfig::default()
    } else {
        PipelineConfig {
            cache: CacheConfig::disabled(),
            exec_cache: ExecCacheConfig::disabled(),
            delta: DeltaConfig::disabled(),
            feature_cache: FeatureCacheConfig::disabled(),
            ..PipelineConfig::default()
        }
    }
}

/// Removes the test's temp tree on drop, so hint-file directories and
/// snapshot files do not accumulate in the system temp dir even when an
/// assertion fails.
struct TempTree(PathBuf);

impl TempTree {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("qo-fleet-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create temp tree");
        Self(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// All published hint files in a SIS directory, name → raw bytes.
fn hint_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("sis dir exists")
        .map(|entry| {
            let entry = entry.expect("readable dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("readable hint file");
            (name, bytes)
        })
        .collect()
}

/// `days` fleet days over per-tenant SIS dirs under `root`; returns the
/// normalized per-tenant report streams (outer index = tenant).
fn run_fleet(
    workloads: &[WorkloadConfig],
    config: &FleetConfig,
    root: &Path,
    days: u32,
) -> Vec<Vec<DailyReport>> {
    let mut fleet =
        Fleet::with_sis_root(workloads.to_vec(), config, root).expect("create tenant sis dirs");
    let mut per_tenant: Vec<Vec<DailyReport>> = vec![Vec::new(); workloads.len()];
    for _ in 0..days {
        let day = fleet.advance_day().expect("fleet day runs clean");
        assert_eq!(day.outcomes.len(), workloads.len());
        for (tenant, outcome) in day.outcomes.iter().enumerate() {
            per_tenant[tenant].push(outcome.report.steering());
        }
    }
    per_tenant
}

/// The single-tenant references: each workload run alone, private caches,
/// publishing into its own SIS dir under `root` (same `tenant-NNN` layout
/// as [`Fleet::with_sis_root`] so hint trees compare path-for-path).
fn run_isolated_sims(
    workloads: &[WorkloadConfig],
    pipeline: &PipelineConfig,
    root: &Path,
    days: u32,
) -> Vec<Vec<DailyReport>> {
    workloads
        .iter()
        .enumerate()
        .map(|(t, wl)| {
            let dir = root.join(format!("tenant-{t:03}"));
            let mut sim = ProductionSim::with_sis_store(
                wl.clone(),
                pipeline.clone(),
                SisStore::at_dir(&dir).expect("create sis dir"),
            );
            (0..days)
                .map(|_| {
                    sim.advance_day()
                        .expect("generated workloads compile on the default path")
                        .report
                        .steering()
                })
                .collect()
        })
        .collect()
}

fn assert_tenants_match_references(
    label: &str,
    fleet_root: &Path,
    fleet_reports: &[Vec<DailyReport>],
    reference_root: &Path,
    reference_reports: &[Vec<DailyReport>],
) {
    let mut any_hints = false;
    for tenant in 0..fleet_reports.len() {
        assert_eq!(
            fleet_reports[tenant], reference_reports[tenant],
            "{label}: tenant {tenant} fleet reports diverged from its \
             single-tenant reference"
        );
        let dir = format!("tenant-{tenant:03}");
        let fleet_hints = hint_files(&fleet_root.join(&dir));
        any_hints |= !fleet_hints.is_empty();
        assert_eq!(
            fleet_hints,
            hint_files(&reference_root.join(&dir)),
            "{label}: tenant {tenant} hint files diverged"
        );
    }
    assert!(
        any_hints,
        "{label}: no tenant published a hint file — the comparison is vacuous"
    );
}

/// The headline leg: tenants inside a shared-cache streaming fleet are
/// byte-identical to single-tenant simulations, across cache settings,
/// stream worker counts, and overlapping/disjoint tenant populations.
#[test]
fn fleet_tenants_match_isolated_single_tenant_sims() {
    let tree = TempTree::new("isolation");
    let overlapping = overlapping_workloads(TENANTS, &workload());
    let disjoint = disjoint_workloads(TENANTS, &workload());
    // A tenant count the worker count does not divide: the per-tenant
    // reduce hands tenants out one at a time, so no worker owns a fixed
    // share.
    let disjoint7 = disjoint_workloads(7, &workload());
    let legs: [(&str, &[WorkloadConfig], bool, usize); 5] = [
        ("overlap/shared/8w", &overlapping, true, 8),
        ("overlap/shared/1w", &overlapping, true, 1),
        ("overlap/nocache/8w", &overlapping, false, 8),
        ("disjoint/shared/8w", &disjoint, true, 8),
        ("disjoint7/shared/3w", &disjoint7, true, 3),
    ];
    // One single-tenant reference per (population, cache setting).
    type Reference = (PathBuf, Vec<Vec<DailyReport>>);
    let mut references: BTreeMap<(usize, bool, bool), Reference> = BTreeMap::new();
    for (label, workloads, caches, workers) in legs {
        let overlap = std::ptr::eq(workloads.as_ptr(), overlapping.as_ptr());
        let key = (workloads.len(), overlap, caches);
        let reference = references.entry(key).or_insert_with(|| {
            let root = tree
                .0
                .join(format!("ref-{}-{overlap}-{caches}", workloads.len()));
            let reports = run_isolated_sims(workloads, &config_with(caches), &root, DAYS);
            (root, reports)
        });
        let fleet_root = tree.0.join(format!("fleet-{}", label.replace('/', "-")));
        let fleet_reports = run_fleet(
            workloads,
            &FleetConfig {
                pipeline: config_with(caches),
                stream: StreamConfig {
                    workers,
                    queue_capacity: if workers == 1 { 1 } else { 256 },
                },
                isolated_caches: false,
            },
            &fleet_root,
            DAYS,
        );
        assert_tenants_match_references(
            label,
            &fleet_root,
            &fleet_reports,
            &reference.0,
            &reference.1,
        );
    }
}

/// Per-tenant durable state survives mid-fleet kill/restore: snapshot every
/// tenant at a mid-run boundary, restore each into a *fresh* fleet over a
/// replica of the boundary's hint trees, and the resumed tail must be
/// byte-identical to the uninterrupted run — the PR 8 crash-recovery
/// contract, now per tenant under shared caches.
#[test]
fn mid_fleet_snapshot_restore_resumes_byte_identical() {
    const TOTAL_DAYS: u32 = 4;
    const BOUNDARY: u32 = 2;
    let tree = TempTree::new("restore");
    let workloads = overlapping_workloads(TENANTS, &workload());
    let config = FleetConfig {
        pipeline: config_with(true),
        stream: StreamConfig::default(),
        isolated_caches: false,
    };

    // Golden: snapshots every BOUNDARY days; replicate snapshots + hint
    // trees at the boundary (before later snapshots overwrite the files).
    let golden_root = tree.0.join("golden-sis");
    let snap_dir = tree.0.join("snaps");
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let mut golden = Fleet::with_sis_root(workloads.clone(), &config, &golden_root)
        .expect("create tenant sis dirs");
    golden.set_snapshot_policies(&snap_dir, BOUNDARY);
    let mut golden_tail: Vec<Vec<DailyReport>> = vec![Vec::new(); TENANTS];
    let boundary_snaps = tree.0.join("boundary-snaps");
    let boundary_sis = tree.0.join("boundary-sis");
    for day in 0..TOTAL_DAYS {
        let outcome = golden.advance_day().expect("fleet day runs clean");
        if day >= BOUNDARY {
            for (tenant, out) in outcome.outcomes.iter().enumerate() {
                golden_tail[tenant].push(out.report.steering());
            }
        }
        if day + 1 == BOUNDARY {
            for t in 0..TENANTS {
                let snap = format!("tenant-{t:03}.qosnap");
                std::fs::create_dir_all(&boundary_snaps).expect("create snap replica dir");
                std::fs::copy(snap_dir.join(&snap), boundary_snaps.join(&snap))
                    .expect("boundary snapshot exists");
                let sis_src = golden_root.join(format!("tenant-{t:03}"));
                let sis_dst = boundary_sis.join(format!("tenant-{t:03}"));
                std::fs::create_dir_all(&sis_dst).expect("create sis replica dir");
                for entry in std::fs::read_dir(&sis_src).expect("tenant sis dir exists") {
                    let entry = entry.expect("readable dir entry");
                    std::fs::copy(entry.path(), sis_dst.join(entry.file_name()))
                        .expect("copy hint file");
                }
            }
        }
    }
    let golden_files: Vec<_> = (0..TENANTS)
        .map(|t| hint_files(&golden_root.join(format!("tenant-{t:03}"))))
        .collect();
    assert!(
        golden_files.iter().any(|f| !f.is_empty()),
        "golden fleet published no hint files — the comparison is vacuous"
    );

    // A fresh fleet stands in for the restarted process: nothing survives
    // the kill except each tenant's snapshot file and hint tree.
    let mut resumed = Fleet::with_sis_root(workloads, &config, &boundary_sis)
        .expect("open replica tenant sis dirs");
    for tenant in resumed.tenants_mut() {
        let snap = boundary_snaps.join(format!("tenant-{:03}.qosnap", tenant.id));
        tenant.sim.restore(&snap).expect("snapshot restores");
        assert_eq!(tenant.sim.day, BOUNDARY, "restore resumed at the wrong day");
    }
    for day in BOUNDARY..TOTAL_DAYS {
        let outcome = resumed.advance_day().expect("resumed fleet day runs clean");
        for (tenant, out) in outcome.outcomes.iter().enumerate() {
            assert_eq!(
                out.report.steering(),
                golden_tail[tenant][(day - BOUNDARY) as usize],
                "tenant {tenant} day-{day} report diverged after mid-fleet restore"
            );
        }
    }
    for (t, golden) in golden_files.iter().enumerate() {
        assert_eq!(
            &hint_files(&boundary_sis.join(format!("tenant-{t:03}"))),
            golden,
            "tenant {t} final hint files diverged after mid-fleet restore"
        );
    }
}

/// The PR-8 `wall_ms` caveat, fixed and pinned: a day that resumes from
/// [`ProductionSim::restore`] bills the restore's wall cost into its
/// report's `timings.restore_ns` (mirroring how `snapshot_ns` bills the
/// write at the boundary that produced it); days without a restore bill
/// zero; and `StageTimings::total_ns` includes the field.
#[test]
fn restore_cost_is_billed_into_the_resumed_day() {
    let tree = TempTree::new("billing");
    let snap = tree.0.join("state.qosnap");
    let mut sim = ProductionSim::new(workload(), config_with(true));
    for _ in 0..2 {
        let report = sim
            .advance_day()
            .expect("generated workloads compile on the default path")
            .report;
        assert_eq!(
            report.timings.restore_ns, 0,
            "a day with no preceding restore must bill zero restore cost"
        );
    }
    sim.snapshot(&snap).expect("snapshot write succeeds");

    let mut resumed = ProductionSim::new(workload(), config_with(true));
    resumed.restore(&snap).expect("snapshot restores");
    let first = resumed.advance_day().expect("resumed day runs").report;
    assert!(
        first.timings.restore_ns > 0,
        "the day resuming from a restore must carry its wall cost: {:?}",
        first.timings
    );
    assert!(
        first.timings.total_ns() >= first.timings.restore_ns,
        "total_ns must include restore_ns: {:?}",
        first.timings
    );
    let second = resumed.advance_day().expect("next day runs").report;
    assert_eq!(
        second.timings.restore_ns, 0,
        "restore cost bills exactly once, into the resumed day"
    );
}

/// The fleet-serving bar from the probe, pinned at test scale: overlapping
/// tenants sharing caches must lift the lifetime compile + span-feature
/// hit rate at least 1.2x over the same fleet with isolated per-tenant
/// caches (fresh literals — the regime where within-tenant reuse is
/// weakest and cross-tenant sharing matters most).
#[test]
fn cross_tenant_uplift_meets_the_serving_bar() {
    let steer_hit_rate = |fleet: &Fleet| -> f64 {
        let compile = fleet.compile_stats();
        let feature = fleet.feature_stats();
        let hits = compile.hits + feature.hits;
        let lookups = compile.lookups() + feature.lookups();
        assert!(lookups > 0, "the fleet must exercise the steering caches");
        hits as f64 / lookups as f64
    };
    let workloads = overlapping_workloads(4, &workload());
    let mut shared = Fleet::new(workloads.clone(), &FleetConfig::default());
    let mut isolated = Fleet::new(
        workloads,
        &FleetConfig {
            isolated_caches: true,
            ..FleetConfig::default()
        },
    );
    shared.run(2).expect("shared fleet runs clean");
    isolated.run(2).expect("isolated fleet runs clean");
    let (s, i) = (steer_hit_rate(&shared), steer_hit_rate(&isolated));
    assert!(
        s >= 1.2 * i,
        "cross-tenant sharing must lift the steering-cache hit rate >= 1.2x: \
         shared {s:.3} vs isolated {i:.3}"
    );
}
