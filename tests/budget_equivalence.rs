//! Engine equivalence for the task-queue Cascades engine
//! (`scope_opt::tasks`): at unlimited budget the explicit task-queue engine
//! must be **byte-identical** to the retired recursive-descent engine
//! ([`Optimizer::compile_recursive`], kept alive as the differential
//! reference) for every template × span treatment of a seeded workload day:
//! plans, estimated costs (to the bit), signatures, and errors
//! (`RuleInstability` replays with the same rule) alike.
//!
//! `crates/scope-opt/tests/budget_monotonicity.rs` covers finite budgets: anytime plans stay
//! valid and their objective never worsens as the budget grows.

use scope_opt::{compute_span, BudgetOutcome, CompileBudget, Optimizer, RuleConfig, RuleFlip};
use scope_workload::{Workload, WorkloadConfig};

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
