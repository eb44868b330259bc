//! Budget-equivalence suite for the task-queue Cascades engine
//! (`scope_opt::tasks`), in two halves:
//!
//! * **Engine equivalence** — at unlimited budget the explicit task-queue
//!   engine must be **byte-identical** to the retired recursive-descent
//!   engine ([`Optimizer::compile_recursive`], kept alive as the
//!   differential reference) for every template × span treatment of a
//!   seeded workload day: plans, estimated costs (to the bit), signatures,
//!   and errors (`RuleInstability` replays with the same rule) alike.
//!
//! * **Pipeline legs** — under a *finite* [`PipelineConfig::compile_budget`]
//!   the closed loop stays deterministic (byte-identical reports and hint
//!   files at 1/2/8 worker threads × caches on/off), and the budget never
//!   leaks into steering outputs: the pipeline budget governs only the
//!   measurement-path counterfactual compiles of
//!   `ProductionSim::finish_day`, so hint files — and every report field
//!   except the `compile_budget` shed counters themselves — are
//!   byte-identical to an unlimited run.
//!
//! `tests/determinism.rs` proves the cache/thread contract at unlimited
//! budget; `tests/fleet_determinism.rs` covers the same pipeline budget
//! inside a fleet, at 1 and 8 stream workers.

use qo_advisor::{
    BudgetStats, CacheConfig, DailyReport, DeltaConfig, ExecCacheConfig, ParallelismConfig,
    PipelineConfig, ProductionSim,
};
use scope_opt::{compute_span, BudgetOutcome, CompileBudget, Optimizer, RuleConfig, RuleFlip};
use scope_workload::{Workload, WorkloadConfig};
use sis::SisStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Engine equivalence: task queue at unlimited budget vs recursive reference.
// ---------------------------------------------------------------------------

fn seeded_day() -> (Optimizer, Vec<scope_workload::JobInstance>) {
    let optimizer = Optimizer::default();
    let workload = Workload::new(WorkloadConfig {
        seed: 2022,
        num_templates: 24,
        adhoc_per_day: 4,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    });
    (optimizer, workload.jobs_for_day(0))
}

/// One treatment per span rule — exactly the slate recommendation prices.
fn span_slate(optimizer: &Optimizer, plan: &scope_ir::LogicalPlan) -> Vec<RuleConfig> {
    let default = optimizer.default_config();
    let Ok(span) = compute_span(optimizer, plan, 6) else {
        return Vec::new();
    };
    span.span
        .iter()
        .map(|rule| {
            default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            })
        })
        .collect()
}

/// Every template × (default + span treatments) of the seeded day: the
/// task-queue engine at unlimited budget must match the recursive reference
/// engine byte-for-byte — successes (plan, cost bits, signature) and
/// `RuleInstability` failures (same rule, same error) alike. Also pins that
/// the production entry `Optimizer::compile` *is* the task-queue engine.
#[test]
fn every_template_and_treatment_matches_the_recursive_engine() {
    let (optimizer, jobs) = seeded_day();
    let default = optimizer.default_config();
    let mut treatments_total = 0usize;
    let mut failures_replayed = 0usize;
    for job in &jobs {
        let recursive = optimizer
            .compile_recursive(&job.plan, &default)
            .expect("generated workloads compile on the default path");
        let budgeted = optimizer
            .compile_budgeted(&job.plan, &default, CompileBudget::unlimited())
            .expect("unlimited budget compiles whatever the recursive engine compiles");
        assert_eq!(
            budgeted.outcome,
            BudgetOutcome::Complete,
            "an unlimited budget can never truncate (template {})",
            job.template
        );
        assert_eq!(
            budgeted.compiled, recursive,
            "template {} default compile diverged between engines",
            job.template
        );
        assert_eq!(
            budgeted.compiled.est_cost.to_bits(),
            recursive.est_cost.to_bits(),
            "template {} cost bits diverged between engines",
            job.template
        );
        assert_eq!(
            optimizer
                .compile(&job.plan, &default)
                .expect("production entry compiles"),
            recursive,
            "the production entry `compile` must be the task-queue engine \
             at unlimited budget (template {})",
            job.template
        );

        for treatment in &span_slate(&optimizer, &job.plan) {
            treatments_total += 1;
            let recursive = optimizer.compile_recursive(&job.plan, treatment);
            let via_tasks = match optimizer.compile_budgeted(
                &job.plan,
                treatment,
                CompileBudget::unlimited(),
            ) {
                Ok(b) => {
                    assert_eq!(
                        b.outcome,
                        BudgetOutcome::Complete,
                        "an unlimited budget can never truncate (template {})",
                        job.template
                    );
                    Ok(b.compiled)
                }
                Err(e) => Err(e),
            };
            if recursive.is_err() {
                failures_replayed += 1;
            }
            assert_eq!(
                via_tasks, recursive,
                "template {} treatment diverged between the task-queue and \
                 recursive engines",
                job.template
            );
        }
    }
    assert!(
        treatments_total > 100,
        "the seeded day must produce a real treatment corpus, got {treatments_total}"
    );
    assert!(
        failures_replayed > 0,
        "the corpus must include RuleInstability failures (≈15% of span \
         flips fail), or the error-equivalence leg went untested"
    );
}

// ---------------------------------------------------------------------------
// Pipeline legs: determinism and steering-invariance under a finite budget.
// ---------------------------------------------------------------------------

const DAYS: u32 = 3;

/// A budget tight enough to truncate essentially every counterfactual
/// default recompile of the workload below (their cascades run thousands of
/// exploration tasks).
const TIGHT_BUDGET: CompileBudget = CompileBudget::tasks(48);

fn workload() -> WorkloadConfig {
    // Same parameters as tests/determinism.rs: the 3-day run publishes
    // several hint files, so the file comparisons are not vacuous.
    WorkloadConfig {
        seed: 99,
        num_templates: 24,
        adhoc_per_day: 3,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    }
}

/// Removes the test's temp tree on drop, so hint-file directories do not
/// accumulate in the system temp dir even when an assertion fails.
struct TempTree(PathBuf);

impl TempTree {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("qo-budget-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_sim(
    threads: Option<usize>,
    caches: bool,
    budget: CompileBudget,
    sis_dir: &Path,
) -> Vec<DailyReport> {
    let config = if caches {
        PipelineConfig {
            parallelism: ParallelismConfig { threads },
            compile_budget: budget,
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig {
            parallelism: ParallelismConfig { threads },
            compile_budget: budget,
            cache: CacheConfig::disabled(),
            exec_cache: ExecCacheConfig::disabled(),
            delta: DeltaConfig::disabled(),
            feature_cache: qo_advisor::FeatureCacheConfig::disabled(),
            ..PipelineConfig::default()
        }
    };
    let mut sim = ProductionSim::with_sis_store(
        workload(),
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

/// The steering half of each report. The `compile_budget` shed counters
/// are **deterministic** (only finite-budget compiles are recorded, and the
/// set of sheddable compiles is fixed by the workload), so they stay in the
/// comparison.
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

/// The determinism matrix with the budget **on**: byte-identical reports
/// (shed counters included — truncated counterfactuals are part of the
/// contract, not telemetry) and hint files at 1/2/8 worker threads × caches
/// on/off, against a serial caches-off baseline.
#[test]
fn budgeted_runs_are_identical_across_threads_and_caches() {
    let tree = TempTree::new("determinism");
    let base_dir = tree.0.join("serial");
    let baseline_raw = run_sim(None, false, TIGHT_BUDGET, &base_dir);
    let baseline = steering(&baseline_raw);
    let baseline_files = hint_files(&base_dir);
    assert!(
        !baseline_files.is_empty(),
        "the budgeted baseline must publish at least one hint file, \
         or this test compares nothing"
    );
    assert!(
        baseline_raw.iter().any(|r| r.compile_budget.truncated > 0),
        "the tight budget must actually shed counterfactual compiles: {:?}",
        baseline_raw[0].compile_budget
    );

    for threads in [1usize, 2, 8] {
        for caches in [true, false] {
            let dir = tree.0.join(format!("t{threads}-c{caches}"));
            let reports = steering(&run_sim(Some(threads), caches, TIGHT_BUDGET, &dir));
            assert_eq!(
                reports, baseline,
                "budgeted daily reports diverged at {threads} worker \
                 threads, caches={caches}"
            );
            assert_eq!(
                hint_files(&dir),
                baseline_files,
                "budgeted SIS hint files diverged at {threads} worker \
                 threads, caches={caches}"
            );
        }
    }
}

/// Steering invariance: the pipeline budget sheds **only** measurement-path
/// counterfactual compiles, so against an unlimited run the hint files are
/// byte-identical and the reports differ in nothing but the shed counters
/// themselves. (The unlimited run records no budget outcomes at all —
/// unlimited compiles can never shed.)
#[test]
fn finite_pipeline_budget_never_touches_steering_outputs() {
    let tree = TempTree::new("invariance");
    let unlimited_dir = tree.0.join("unlimited");
    let budgeted_dir = tree.0.join("budgeted");
    let unlimited = run_sim(None, true, CompileBudget::unlimited(), &unlimited_dir);
    let budgeted = run_sim(None, true, TIGHT_BUDGET, &budgeted_dir);

    assert!(
        unlimited
            .iter()
            .all(|r| r.compile_budget == BudgetStats::default()),
        "an unlimited budget must record no shed outcomes: {:?}",
        unlimited[0].compile_budget
    );
    assert!(
        budgeted.iter().any(|r| r.compile_budget.truncated > 0),
        "the tight budget must actually shed, or the invariance claim is \
         vacuous: {:?}",
        budgeted[0].compile_budget
    );
    let files = hint_files(&budgeted_dir);
    assert!(
        !files.is_empty(),
        "the budgeted run must publish hint files"
    );
    assert_eq!(
        files,
        hint_files(&unlimited_dir),
        "a finite pipeline budget must never change published hints — it \
         sheds only counterfactual measurement compiles"
    );
    // The cross-budget comparison: the shed counters are the one field a
    // finite budget is *allowed* to change.
    let sans_shed_counters = |reports: &[DailyReport]| -> Vec<DailyReport> {
        reports
            .iter()
            .map(|report| DailyReport {
                compile_budget: BudgetStats::default(),
                ..report.steering()
            })
            .collect()
    };
    assert_eq!(
        sans_shed_counters(&budgeted),
        sans_shed_counters(&unlimited),
        "outside the shed counters, a finite pipeline budget must not \
         change a single report field"
    );
}

#[test]
fn compile_budget_defaults_to_unlimited() {
    assert!(PipelineConfig::default().compile_budget.is_unlimited());
    assert_eq!(CompileBudget::default(), CompileBudget::unlimited());
}
