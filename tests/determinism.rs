//! Thread-count *and* cache invariance of the staged pipeline: the same
//! multi-day simulation run serially and at 1, 2, and 8 worker threads,
//! with the compile-result cache, the execution cache, and delta
//! slate compilation on or off, must produce byte-identical daily reports
//! and byte-identical published SIS hint files.
//!
//! This is the contract that makes all four knobs safe to deploy:
//! parallelism, the two caches, and delta compilation are purely throughput
//! knobs, never behavior knobs — compilation and execution are both
//! deterministic, a cache hit replays exactly what a recompile (or
//! re-execution) would have produced, and a delta-priced treatment is
//! byte-identical to a from-scratch compile, including `RuleInstability`
//! compile failures.
//!
//! The fields excluded from the byte comparison are the report's
//! `compile_cache` / `exec_cache` / `delta_compile` telemetry and the
//! per-stage wall-clock `timings`: they are *about* the machinery (all-zero
//! with the knob off, eviction-order- or clock-dependent otherwise), not
//! steering outputs. `DailyReport::steering` defaults them; everything
//! else must match to the byte.

use qo_advisor::ProductionSim;
use qo_advisor::{
    CacheConfig, CacheCounters, CacheStats, DailyReport, DeltaConfig, ExecCacheConfig,
    ExecCounters, FeatureCacheConfig, ParallelismConfig, PipelineConfig,
};
use scope_workload::{LiteralPolicy, Workload, WorkloadConfig};
use sis::SisStore;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const DAYS: u32 = 3;

fn workload() -> WorkloadConfig {
    // Parameters chosen so the 3-day run publishes several hint files —
    // otherwise the file comparison below would be vacuous.
    WorkloadConfig {
        seed: 99,
        num_templates: 24,
        adhoc_per_day: 3,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    }
}

fn sticky_workload() -> WorkloadConfig {
    WorkloadConfig {
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
        ..workload()
    }
}

/// Removes the test's temp tree on drop, so hint-file directories do not
/// accumulate in the system temp dir even when an assertion fails.
struct TempTree(PathBuf);

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run a fresh DAYS-day simulation of `wl` under `config` publishing hint
/// files into `sis_dir`; returns every daily report.
fn run_sim_with(wl: WorkloadConfig, config: PipelineConfig, sis_dir: &Path) -> Vec<DailyReport> {
    let mut sim = ProductionSim::with_sis_store(
        wl,
        config,
        SisStore::at_dir(sis_dir).expect("create sis dir"),
    );
    (0..DAYS)
        .map(|_| {
            sim.advance_day()
                .expect("generated workloads compile on the default path")
                .report
        })
        .collect()
}

/// [`run_sim_with`] over the four original throughput knobs (span-feature
/// cache and batched ranking stay at their on-by-default settings).
fn run_sim_of(
    wl: WorkloadConfig,
    threads: Option<usize>,
    cache: CacheConfig,
    exec_cache: ExecCacheConfig,
    delta: DeltaConfig,
    sis_dir: &Path,
) -> Vec<DailyReport> {
    let config = PipelineConfig {
        parallelism: ParallelismConfig { threads },
        cache,
        exec_cache,
        delta,
        ..PipelineConfig::default()
    };
    run_sim_with(wl, config, sis_dir)
}

/// [`run_sim_of`] over the standard fresh-literal workload with the
/// execution cache and delta compilation at their defaults (on).
fn run_sim(threads: Option<usize>, cache: CacheConfig, sis_dir: &Path) -> Vec<DailyReport> {
    run_sim_of(
        workload(),
        threads,
        cache,
        ExecCacheConfig::default(),
        DeltaConfig::default(),
        sis_dir,
    )
}

/// The steering half of each report (telemetry-only fields defaulted — see
/// module docs).
fn steering(reports: &[DailyReport]) -> Vec<DailyReport> {
    reports.iter().map(DailyReport::steering).collect()
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

#[test]
fn reports_and_hint_files_are_identical_at_any_thread_count() {
    let base =
        TempTree(std::env::temp_dir().join(format!("qo-determinism-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&base.0);

    let serial_dir = base.0.join("serial");
    let baseline_reports = steering(&run_sim(None, CacheConfig::default(), &serial_dir));
    let baseline_files = hint_files(&serial_dir);

    assert!(
        !baseline_files.is_empty(),
        "the baseline simulation must publish at least one hint file, \
         or this test compares nothing"
    );

    for threads in [1usize, 2, 8] {
        let dir = base.0.join(format!("t{threads}"));
        let reports = steering(&run_sim(Some(threads), CacheConfig::default(), &dir));
        assert_eq!(
            reports, baseline_reports,
            "daily reports diverged at {threads} worker threads"
        );
        assert_eq!(
            hint_files(&dir),
            baseline_files,
            "published SIS hint files diverged at {threads} worker threads"
        );
    }
}

#[test]
fn reports_and_hint_files_are_identical_with_cache_on_and_off() {
    let base =
        TempTree(std::env::temp_dir().join(format!("qo-cache-determinism-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&base.0);

    // Baseline: the pre-cache pipeline (serial, both caches and delta off).
    let off_dir = base.0.join("off");
    let off_reports_raw = run_sim_of(
        workload(),
        None,
        CacheConfig::disabled(),
        ExecCacheConfig::disabled(),
        DeltaConfig::disabled(),
        &off_dir,
    );
    let baseline_reports = steering(&off_reports_raw);
    let baseline_files = hint_files(&off_dir);

    assert!(
        !baseline_files.is_empty(),
        "the cache-off simulation must publish at least one hint file"
    );
    assert!(
        off_reports_raw
            .iter()
            .all(|r| r.compile_cache == CacheCounters::default()
                && r.exec_cache == ExecCounters::default()),
        "disabled caches must report zero telemetry"
    );

    for threads in [1usize, 2, 8] {
        let dir = base.0.join(format!("cached-t{threads}"));
        let raw = run_sim(Some(threads), CacheConfig::default(), &dir);
        assert!(
            raw.iter().any(|r| r.compile_cache.total().hits > 0),
            "the cached run must actually hit, or this test compares nothing"
        );
        assert_eq!(
            steering(&raw),
            baseline_reports,
            "daily reports diverged between cache-off serial and cache-on \
             at {threads} worker threads"
        );
        assert_eq!(
            hint_files(&dir),
            baseline_files,
            "published SIS hint files diverged between cache-off serial \
             and cache-on at {threads} worker threads"
        );
    }
}

/// The execution cache alone, against the fully uncached baseline, under
/// fresh *and* sticky literals × 1/2/8 threads: byte-identical reports and
/// hint files everywhere. (The compile cache stays off on both sides so
/// this isolates the execution cache.)
#[test]
fn reports_and_hint_files_are_identical_with_exec_cache_on_and_off() {
    let base =
        TempTree(std::env::temp_dir().join(format!("qo-exec-determinism-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&base.0);

    for (policy, wl) in [("fresh", workload()), ("sticky", sticky_workload())] {
        let off_dir = base.0.join(format!("{policy}-off"));
        let baseline_reports = steering(&run_sim_of(
            wl.clone(),
            None,
            CacheConfig::disabled(),
            ExecCacheConfig::disabled(),
            DeltaConfig::disabled(),
            &off_dir,
        ));
        let baseline_files = hint_files(&off_dir);
        assert!(
            !baseline_files.is_empty(),
            "the {policy} exec-cache-off simulation must publish at least one hint file"
        );

        for threads in [1usize, 2, 8] {
            let dir = base.0.join(format!("{policy}-exec-t{threads}"));
            let raw = run_sim_of(
                wl.clone(),
                Some(threads),
                CacheConfig::disabled(),
                ExecCacheConfig::default(),
                DeltaConfig::disabled(),
                &dir,
            );
            assert!(
                raw.iter()
                    .any(|r| r.exec_cache.total().graphs.lookups() > 0),
                "the exec-cached run must consult the cache, or this test \
                 compares nothing: {:?}",
                raw[0].exec_cache
            );
            assert_eq!(
                steering(&raw),
                baseline_reports,
                "{policy} daily reports diverged between exec-cache-off serial \
                 and exec-cache-on at {threads} worker threads"
            );
            assert_eq!(
                hint_files(&dir),
                baseline_files,
                "{policy} SIS hint files diverged between exec-cache-off serial \
                 and exec-cache-on at {threads} worker threads"
            );
        }
    }
}

/// The regime the caches were built for: sticky literals make recurring
/// production scripts rebind identical plans across days, so the sim-wide
/// shared caches (production view building + all pipeline stages) are hot on
/// every warm day — and must *still* be invisible in every steering output,
/// at any thread count.
#[test]
fn sticky_literal_runs_are_identical_with_shared_cache_on_and_off() {
    let base = TempTree(
        std::env::temp_dir().join(format!("qo-sticky-determinism-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&base.0);

    let off_dir = base.0.join("off");
    let off_reports = run_sim_of(
        sticky_workload(),
        None,
        CacheConfig::disabled(),
        ExecCacheConfig::disabled(),
        DeltaConfig::disabled(),
        &off_dir,
    );
    let baseline_reports = steering(&off_reports);
    let baseline_files = hint_files(&off_dir);
    assert!(
        !baseline_files.is_empty(),
        "the sticky cache-off simulation must publish at least one hint file"
    );

    // Each day's production compiles that must miss: its ad-hoc jobs and
    // its recurring plans not seen on an earlier day.
    let workload = Workload::new(sticky_workload());
    let mut seen = BTreeSet::new();
    let must_miss: Vec<u64> = (0..DAYS)
        .map(|day| {
            let jobs = workload.jobs_for_day(day);
            jobs.iter()
                .filter(|job| !job.recurring || seen.insert(job.plan.fingerprint()))
                .count() as u64
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let dir = base.0.join(format!("sticky-t{threads}"));
        let raw = run_sim_of(
            sticky_workload(),
            Some(threads),
            CacheConfig::default(),
            ExecCacheConfig::default(),
            DeltaConfig::default(),
            &dir,
        );
        // Warm days rebind day-0 plans: every recurring production compile
        // of a plan seen before is a lookup that hits — the cross-day regime
        // a fresh-literal workload never reaches.
        for warm in &raw[1..] {
            assert!(
                warm.compile_cache.view_build.hits > 0,
                "warm-day view builds must hit the shared compile cache: {:?}",
                warm.compile_cache
            );
            assert_eq!(
                warm.compile_cache.view_build.misses, must_miss[warm.day as usize],
                "day {}: view-build compile misses other than the day's ad-hoc \
                 jobs and first-seen recurring plans: {:?}",
                warm.day, warm.compile_cache
            );
            // Execution side: warm-day production runs re-execute day-0
            // plans, whose stage graphs are memoized.
            let view_graphs = warm.exec_cache.view_build.graphs;
            assert!(
                view_graphs.hits > 0,
                "warm-day view builds must reuse memoized stage graphs: {:?}",
                warm.exec_cache
            );
            assert!(
                view_graphs.hit_rate() >= 0.5,
                "day {} exec-cache warm-day floor: expected >=50% of view-build \
                 executions to reuse a stage graph, got {:.2} ({:?})",
                warm.day,
                view_graphs.hit_rate(),
                warm.exec_cache
            );
        }
        assert_eq!(
            steering(&raw),
            baseline_reports,
            "sticky daily reports diverged between cache-off serial and \
             cache-on at {threads} worker threads"
        );
        assert_eq!(
            hint_files(&dir),
            baseline_files,
            "sticky SIS hint files diverged between cache-off serial and \
             cache-on at {threads} worker threads"
        );
    }
}

/// Delta slate compilation alone, against the fully uncached baseline,
/// under fresh *and* sticky literals × 1/2/8 threads: byte-identical
/// reports and hint files everywhere. (Both result caches stay off on both
/// sides so this isolates delta compilation — every delta- or prune-priced
/// treatment must replay exactly what a from-scratch compile would have
/// produced, `RuleInstability` failures included.)
#[test]
fn reports_and_hint_files_are_identical_with_delta_on_and_off() {
    let base =
        TempTree(std::env::temp_dir().join(format!("qo-delta-determinism-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&base.0);

    for (policy, wl) in [("fresh", workload()), ("sticky", sticky_workload())] {
        let off_dir = base.0.join(format!("{policy}-off"));
        let baseline_reports = steering(&run_sim_of(
            wl.clone(),
            None,
            CacheConfig::disabled(),
            ExecCacheConfig::disabled(),
            DeltaConfig::disabled(),
            &off_dir,
        ));
        let baseline_files = hint_files(&off_dir);
        assert!(
            !baseline_files.is_empty(),
            "the {policy} delta-off simulation must publish at least one hint file"
        );

        for threads in [1usize, 2, 8] {
            let dir = base.0.join(format!("{policy}-delta-t{threads}"));
            let raw = run_sim_of(
                wl.clone(),
                Some(threads),
                CacheConfig::disabled(),
                ExecCacheConfig::disabled(),
                DeltaConfig::default(),
                &dir,
            );
            assert!(
                raw.iter().any(|r| r.delta_compile.treatments() > 0),
                "the delta run must actually price slates, or this test \
                 compares nothing: {:?}",
                raw[0].delta_compile
            );
            assert!(
                raw.iter()
                    .any(|r| r.delta_compile.pruned + r.delta_compile.delta > 0),
                "some treatments must resolve without a from-scratch \
                 compile: {:?}",
                raw[0].delta_compile
            );
            assert_eq!(
                steering(&raw),
                baseline_reports,
                "{policy} daily reports diverged between delta-off serial \
                 and delta-on at {threads} worker threads"
            );
            assert_eq!(
                hint_files(&dir),
                baseline_files,
                "{policy} SIS hint files diverged between delta-off serial \
                 and delta-on at {threads} worker threads"
            );
        }
    }
}

/// PR 6's two recommend-path knobs — the span-feature cache and batched
/// sparse rank scoring — against the both-off baseline, under fresh *and*
/// sticky literals × 1/2/8 threads: byte-identical reports and hint files
/// everywhere. A cached span block must equal a rebuilt one and a batched
/// CSR scoring pass must equal the per-action dot products *to the bit*, or
/// the bandit's decisions (and with them everything downstream) drift.
#[test]
fn reports_and_hint_files_are_identical_with_feature_cache_and_batch_rank_on_and_off() {
    let base = TempTree(
        std::env::temp_dir().join(format!("qo-feature-determinism-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&base.0);

    let config_with = |threads: Option<usize>, fc: bool, br: bool| {
        let mut config = PipelineConfig {
            parallelism: ParallelismConfig { threads },
            feature_cache: if fc {
                FeatureCacheConfig::default()
            } else {
                FeatureCacheConfig::disabled()
            },
            ..PipelineConfig::default()
        };
        config.cb.batch_rank = br;
        config
    };

    for (policy, wl) in [("fresh", workload()), ("sticky", sticky_workload())] {
        // Baseline: the pre-PR-6 recommend path (serial, both knobs off).
        let off_dir = base.0.join(format!("{policy}-off"));
        let off_raw = run_sim_with(wl.clone(), config_with(None, false, false), &off_dir);
        let baseline_reports = steering(&off_raw);
        let baseline_files = hint_files(&off_dir);
        assert!(
            !baseline_files.is_empty(),
            "the {policy} both-off simulation must publish at least one hint file"
        );
        assert!(
            off_raw
                .iter()
                .all(|r| r.feature_cache == CacheStats::default()),
            "a disabled span-feature cache must report zero telemetry"
        );

        for threads in [1usize, 2, 8] {
            for (fc, br) in [(true, true), (true, false), (false, true)] {
                let dir = base.0.join(format!("{policy}-fc{fc}-br{br}-t{threads}"));
                let raw = run_sim_with(wl.clone(), config_with(Some(threads), fc, br), &dir);
                if fc {
                    assert!(
                        raw.iter().any(|r| r.feature_cache.hits > 0),
                        "the feature-cached run must actually hit, or this \
                         test compares nothing: {:?}",
                        raw[0].feature_cache
                    );
                }
                assert_eq!(
                    steering(&raw),
                    baseline_reports,
                    "{policy} daily reports diverged from the both-off serial \
                     baseline at feature_cache={fc} batch_rank={br} \
                     {threads} worker threads"
                );
                assert_eq!(
                    hint_files(&dir),
                    baseline_files,
                    "{policy} SIS hint files diverged from the both-off serial \
                     baseline at feature_cache={fc} batch_rank={br} \
                     {threads} worker threads"
                );
            }
        }
    }
}

#[test]
fn parallel_config_default_is_serial() {
    assert_eq!(
        PipelineConfig::default().parallelism,
        ParallelismConfig::serial()
    );
    assert_eq!(ParallelismConfig::default().threads, None);
    assert_eq!(ParallelismConfig::with_threads(4).threads, Some(4));
}

#[test]
fn cache_configs_default_to_enabled() {
    assert_eq!(PipelineConfig::default().cache, CacheConfig::default());
    assert!(CacheConfig::default().enabled);
    assert!(!CacheConfig::disabled().enabled);
    assert_eq!(
        PipelineConfig::default().exec_cache,
        ExecCacheConfig::default()
    );
    assert!(ExecCacheConfig::default().enabled);
    assert!(!ExecCacheConfig::disabled().enabled);
    assert_eq!(PipelineConfig::default().delta, DeltaConfig::default());
    assert!(DeltaConfig::default().enabled);
    assert!(!DeltaConfig::disabled().enabled);
    assert_eq!(
        PipelineConfig::default().feature_cache,
        FeatureCacheConfig::default()
    );
    assert!(FeatureCacheConfig::default().enabled);
    assert!(!FeatureCacheConfig::disabled().enabled);
    assert!(
        PipelineConfig::default().cb.batch_rank,
        "batched rank scoring is the default path"
    );
}
