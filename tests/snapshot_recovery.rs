//! Crash-recovery equivalence of the durable steering state: a simulation
//! killed at *any* day boundary and restored from its snapshot must finish
//! the run byte-identical to one that was never interrupted — same daily
//! reports, same published SIS hint files.
//!
//! This is the contract that makes the snapshot a correctness feature
//! rather than an approximation: every durable component (bandit weights
//! and pending events, SIS version + installed hints, flighting batch
//! salt, validation model, explored set, regression-monitor baselines, day
//! counter, workload identity) round-trips exactly, and the warm span
//! cache either restores bit-identically or is dropped without changing
//! any steering output.
//!
//! Structure mirrors `tests/determinism.rs`: reports are compared after
//! `DailyReport::steering` defaults the telemetry-only fields (cache counters and
//! wall-clock timings — observability about the machinery, not steering
//! outputs), and hint files are compared as raw bytes.
//!
//! Legs:
//!   * exhaustive: the 20-day sticky-literal run (the regime with cross-day
//!     literal-epoch state), killed at *every* boundary 1..=19;
//!   * cross: fresh + sticky literals × caches on/off × 1/8 worker
//!     threads over a 6-day run, killed at every boundary 1..=5.

mod common;

use common::{hint_files, sticky_workload, workload, TempTree};
use qo_advisor::{
    CacheConfig, DailyReport, DeltaConfig, ExecCacheConfig, FeatureCacheConfig, ParallelismConfig,
    PipelineConfig, ProductionSim, SnapshotPolicy,
};
use scope_workload::WorkloadConfig;
use sis::SisStore;
use std::path::Path;

fn config_with(threads: Option<usize>, caches: bool) -> PipelineConfig {
    if caches {
        PipelineConfig {
            parallelism: ParallelismConfig { threads },
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig {
            parallelism: ParallelismConfig { threads },
            cache: CacheConfig::disabled(),
            exec_cache: ExecCacheConfig::disabled(),
            delta: DeltaConfig::disabled(),
            feature_cache: FeatureCacheConfig::disabled(),
            ..PipelineConfig::default()
        }
    }
}

fn fresh_sim(wl: &WorkloadConfig, config: &PipelineConfig, sis_dir: &Path) -> ProductionSim {
    ProductionSim::with_sis_store(
        wl.clone(),
        config.clone(),
        SisStore::at_dir(sis_dir).expect("create sis dir"),
    )
}

fn advance(sim: &mut ProductionSim) -> DailyReport {
    sim.advance_day()
        .expect("generated workloads compile on the default path")
        .report
}

/// Copy every regular file in `src` to `dst` (the SIS hint directories are
/// flat), so each kill boundary gets its own on-disk replica of the hint
/// files published up to that point.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create boundary sis dir");
    for entry in std::fs::read_dir(src).expect("source sis dir exists") {
        let entry = entry.expect("readable dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy hint file");
    }
}

/// The kill/restore equivalence check for one (workload, config) regime:
///
/// 1. run an uninterrupted `days`-day golden simulation;
/// 2. run a second "victim" simulation, writing a snapshot and replicating
///    the SIS directory at every day boundary (this also re-proves the
///    golden run's determinism: the victim's own reports must match);
/// 3. for every requested boundary `k`, build a *fresh* process-equivalent
///    simulation over boundary `k`'s SIS replica, restore its snapshot,
///    finish the remaining days, and require the resumed tail's reports
///    and the final hint-file tree to be byte-identical to the golden
///    run's.
fn assert_kill_restore_equivalence(
    label: &str,
    wl: &WorkloadConfig,
    config: &PipelineConfig,
    days: u32,
    boundaries: impl IntoIterator<Item = u32>,
    base: &Path,
) {
    // Golden: never interrupted.
    let golden_dir = base.join("golden");
    let mut golden = fresh_sim(wl, config, &golden_dir);
    let golden_reports: Vec<DailyReport> =
        (0..days).map(|_| advance(&mut golden).steering()).collect();
    let golden_files = hint_files(&golden_dir);
    assert!(
        !golden_files.is_empty(),
        "{label}: the golden simulation must publish at least one hint file, \
         or this test compares nothing"
    );

    // Victim: same run, but snapshotted (and its SIS directory replicated)
    // at every boundary, as if the process could die at any of them.
    let victim_dir = base.join("victim");
    let mut victim = fresh_sim(wl, config, &victim_dir);
    for day in 0..days {
        let report = advance(&mut victim).steering();
        assert_eq!(
            report, golden_reports[day as usize],
            "{label}: victim day-{day} report diverged from golden before any \
             kill — the regime itself is nondeterministic"
        );
        let boundary = day + 1;
        victim
            .snapshot(base.join(format!("boundary-{boundary}.qosnap")))
            .expect("snapshot write succeeds");
        copy_dir(&victim_dir, &base.join(format!("sis-{boundary}")));
    }
    assert_eq!(
        hint_files(&victim_dir),
        golden_files,
        "{label}: victim hint files diverged from golden before any kill"
    );

    for boundary in boundaries {
        assert!(
            (1..days).contains(&boundary),
            "{label}: boundary {boundary} outside 1..{days}"
        );
        let snap = base.join(format!("boundary-{boundary}.qosnap"));
        let sis_dir = base.join(format!("sis-{boundary}"));
        // A fresh simulation stands in for the restarted process: nothing
        // survives the kill except the snapshot file and the SIS directory.
        let mut resumed = fresh_sim(wl, config, &sis_dir);
        resumed.restore(&snap).expect("snapshot restores");
        assert_eq!(
            resumed.day, boundary,
            "{label}: restore at boundary {boundary} resumed at the wrong day"
        );
        for day in boundary..days {
            let report = advance(&mut resumed).steering();
            assert_eq!(
                report, golden_reports[day as usize],
                "{label}: day-{day} report diverged after kill/restore at \
                 boundary {boundary}"
            );
        }
        assert_eq!(
            hint_files(&sis_dir),
            golden_files,
            "{label}: final hint files diverged after kill/restore at \
             boundary {boundary}"
        );
    }
}

/// The headline leg: a 20-day sticky-literal production run (recurring
/// scripts, cross-day literal-epoch state, warm caches) killed at *every*
/// day boundary.
#[test]
fn sticky_20_day_run_survives_a_kill_at_every_boundary() {
    let base = TempTree::new("snapshot-exhaustive");

    const DAYS: u32 = 20;
    assert_kill_restore_equivalence(
        "sticky/caches-on/serial",
        &sticky_workload(),
        &config_with(None, true),
        DAYS,
        1..DAYS,
        &base.0,
    );
}

/// The cross leg: fresh + sticky literals × caches on/off × 1/8 worker
/// threads, each killed at every boundary of a 6-day run. Shorter than the
/// headline leg so the full 8-regime cross stays cheap in debug builds.
#[test]
fn kill_restore_equivalence_across_literals_caches_and_threads() {
    let base = TempTree::new("snapshot-cross");

    const DAYS: u32 = 6;
    for (policy, wl) in [("fresh", workload()), ("sticky", sticky_workload())] {
        for caches in [true, false] {
            for threads in [1usize, 8] {
                let label = format!(
                    "{policy}/caches-{}/t{threads}",
                    if caches { "on" } else { "off" }
                );
                assert_kill_restore_equivalence(
                    &label,
                    &wl,
                    &config_with(Some(threads), caches),
                    DAYS,
                    1..DAYS,
                    &base.0.join(label.replace('/', "-")),
                );
            }
        }
    }
}

/// A `SnapshotPolicy` installed on the simulation is purely an operational
/// knob: it bills its wall-clock into `timings.snapshot_ns`, keeps the
/// snapshot file current at every boundary, and changes no steering output
/// (the normalized reports already proved that above — here we pin the
/// telemetry and the file's freshness).
#[test]
fn snapshot_policy_bills_timing_and_keeps_the_file_current() {
    let base = TempTree::new("snapshot-policy");

    let snap = base.0.join("state.qosnap");
    let mut sim = fresh_sim(
        &sticky_workload(),
        &config_with(None, true),
        &base.0.join("sis"),
    );
    sim.set_snapshot_policy(Some(SnapshotPolicy::every_day(&snap)));
    for day in 0..3u32 {
        let report = advance(&mut sim);
        assert!(
            report.timings.snapshot_ns > 0,
            "day {day}: an installed every-day policy must bill snapshot time"
        );
        // The file on disk is always the state at the *latest* boundary: a
        // fresh process restoring it resumes at the next day to run.
        let mut probe = fresh_sim(
            &sticky_workload(),
            &config_with(None, true),
            &base.0.join(format!("probe-sis-{day}")),
        );
        probe
            .restore(&snap)
            .expect("policy-written snapshot restores");
        assert_eq!(probe.day, day + 1, "snapshot file is stale after day {day}");
    }

    // Without a policy the telemetry stays zero.
    let mut bare = fresh_sim(
        &sticky_workload(),
        &config_with(None, true),
        &base.0.join("bare-sis"),
    );
    let report = advance(&mut bare);
    assert_eq!(
        report.timings.snapshot_ns, 0,
        "no policy installed: snapshot_ns must stay zero"
    );
}
