//! Slate-equivalence suite: delta treatment compilation must be
//! **byte-identical** to from-scratch compilation for every template ×
//! treatment of a seeded workload day — plans, estimated costs, signatures,
//! and errors (`RuleInstability` replays with the same rule) alike — and the
//! pruner must only ever skip flips that are provably no-ops on the plan.
//!
//! `tests/determinism.rs` proves the same property end-to-end through the
//! closed loop (delta on/off × threads × literal policies); this suite
//! proves it exhaustively at the compiler level, treatment by treatment,
//! where a divergence is attributable to one (plan, flip) pair.

use scope_opt::delta::PricedTreatment;
use scope_opt::{
    compute_span, BaseMemo, CacheConfig, DeltaCompiler, DeltaConfig, Optimizer, RuleConfig,
    RuleFlip,
};
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

/// The realistic slate for a job: one treatment per span rule (exactly what
/// recommendation prices), in span order.
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

/// Every template × span treatment of the seeded day, priced through a
/// [`BaseMemo`], must match from-scratch compilation byte-for-byte —
/// successes and `RuleInstability` failures alike. Also asserts the pruner's
/// soundness claim directly: a pruned `Ok` is the base plan itself.
#[test]
fn every_template_treatment_is_byte_identical_and_pruner_is_sound() {
    let (optimizer, jobs) = seeded_day();
    let default = optimizer.default_config();
    let mut treatments_total = 0usize;
    let mut pruned = 0usize;
    let mut delta = 0usize;
    let mut full = 0usize;
    let mut failures_replayed = 0usize;
    for job in &jobs {
        let slate = span_slate(&optimizer, &job.plan);
        if slate.is_empty() {
            continue;
        }
        let base = BaseMemo::build(&optimizer, &job.plan, &default)
            .expect("generated workloads compile on the default path");
        for treatment in &slate {
            treatments_total += 1;
            let scratch = optimizer.compile(&job.plan, treatment);
            let priced = match base.price(&optimizer, treatment) {
                PricedTreatment::Pruned(result) => {
                    pruned += 1;
                    if let Ok(compiled) = &result {
                        // Pruner soundness: a pruned flip is a provable
                        // no-op — the treatment's plan IS the base plan.
                        assert_eq!(
                            compiled,
                            base.compiled(),
                            "pruned treatment of template {} must reuse the \
                             base compilation unchanged",
                            job.template
                        );
                    }
                    result
                }
                PricedTreatment::Delta(result) => {
                    delta += 1;
                    result
                }
                PricedTreatment::NeedsFull => {
                    full += 1;
                    optimizer.compile(&job.plan, treatment)
                }
            };
            if scratch.is_err() {
                failures_replayed += 1;
            }
            assert_eq!(
                priced, scratch,
                "template {} treatment diverged from from-scratch compile",
                job.template
            );
        }
    }
    assert!(
        treatments_total > 100,
        "the seeded day must produce a real slate corpus, got {treatments_total}"
    );
    assert!(pruned > 0, "some span flips must prune");
    assert!(delta > 0, "some span flips must delta-compile");
    assert!(
        failures_replayed > 0,
        "the corpus must include RuleInstability failures (≈15% of span \
         flips fail), or the error-replay path went untested"
    );
    assert!(
        full < treatments_total / 2,
        "full fallbacks must be the minority: {full} of {treatments_total} \
         ({pruned} pruned, {delta} delta)"
    );
}

/// The same corpus through `Optimizer::compile_slate` with cache and
/// delta in every combination: identical results everywhere, and the
/// delta-path counters actually move when delta is on.
#[test]
fn compile_slate_matches_per_treatment_compiles_in_every_configuration() {
    let (optimizer, jobs) = seeded_day();
    let default = optimizer.default_config();
    let variants = [
        (
            "cache+delta",
            CacheConfig::default(),
            DeltaConfig::default(),
        ),
        (
            "delta-only",
            CacheConfig::disabled(),
            DeltaConfig::default(),
        ),
        (
            "cache-only",
            CacheConfig::default(),
            DeltaConfig::disabled(),
        ),
    ];
    for (name, cache, delta) in variants {
        let caching = Optimizer::new(optimizer.clone(), cache).with_delta(delta);
        for job in jobs.iter().take(8) {
            let slate = span_slate(&optimizer, &job.plan);
            if slate.is_empty() {
                continue;
            }
            let via_slate = caching.compile_slate(&job.plan, &default, &slate);
            assert_eq!(via_slate.len(), slate.len());
            for (treatment, result) in slate.iter().zip(&via_slate) {
                assert_eq!(
                    *result,
                    optimizer.compile(&job.plan, treatment),
                    "[{name}] slate result diverged for template {}",
                    job.template
                );
            }
            // Slates resolve from the cache on repeat — and stay identical.
            let repeat = caching.compile_slate(&job.plan, &default, &slate);
            assert_eq!(via_slate, repeat, "[{name}] repeat slate diverged");
        }
        if delta.enabled {
            let stats = caching.delta_stats();
            assert!(
                stats.treatments() > 0,
                "[{name}] delta compiler saw no treatments"
            );
            assert!(
                stats.base_builds > 0,
                "[{name}] delta compiler built no base memos"
            );
        } else {
            assert_eq!(caching.delta_stats(), Default::default());
        }
    }
}

/// A cacheless optimizer's `compile_slate` is the per-treatment loop, and
/// it leaves nothing behind.
#[test]
fn cacheless_compile_slate_is_per_treatment_compilation() {
    let (optimizer, jobs) = seeded_day();
    let default = optimizer.default_config();
    let job = &jobs[0];
    let slate = span_slate(&optimizer, &job.plan);
    assert!(!slate.is_empty(), "the first job must have a span to price");
    let via_slate = optimizer.compile_slate(&job.plan, &default, &slate);
    assert_eq!(via_slate.len(), slate.len());
    for (treatment, result) in slate.iter().zip(&via_slate) {
        assert_eq!(*result, optimizer.compile(&job.plan, treatment));
    }
    assert!(optimizer.cache().is_none());
    assert_eq!(optimizer.stats(), Default::default());
    assert_eq!(optimizer.delta_stats(), Default::default());
}

/// A `DeltaCompiler` shared across the day (the pipeline's shape: one
/// compiler, many jobs, many slates) builds each plan's base memo exactly
/// once and still matches from-scratch everywhere.
#[test]
fn shared_delta_compiler_amortizes_base_memos_across_slates() {
    let (optimizer, jobs) = seeded_day();
    let default = optimizer.default_config();
    let dc = DeltaCompiler::default();
    let mut plans_with_slates = 0usize;
    for job in jobs.iter().take(10) {
        let slate = span_slate(&optimizer, &job.plan);
        if slate.is_empty() {
            continue;
        }
        plans_with_slates += 1;
        // Price the slate twice: the second pass must be pure base reuse.
        let first = dc.compile_slate(&optimizer, &job.plan, &default, &slate);
        let second = dc.compile_slate(&optimizer, &job.plan, &default, &slate);
        assert_eq!(first, second);
        for (treatment, result) in slate.iter().zip(&first) {
            assert_eq!(*result, optimizer.compile(&job.plan, treatment));
        }
    }
    let stats = dc.stats();
    assert_eq!(
        stats.base_builds as usize, plans_with_slates,
        "one base memo per plan"
    );
    assert_eq!(
        stats.base_hits as usize, plans_with_slates,
        "the second slate of each plan reuses the cached base"
    );
}

/// A base memo is shared, not copied: pricing a 20-treatment slate against
/// one `BaseMemo` from two threads at once — every treatment forks the memo
/// by pointer copy and rewrites only its own physical half — leaves the
/// base's `Compiled` bit-identical and every priced result equal to a
/// from-scratch compile. In debug builds each delta pass also asserts that
/// every forked group's logical half is still the base's own allocation
/// (`Arc::ptr_eq`); `scope_opt::delta`'s unit tests check that, and every
/// `Best` entry, directly — the memo is not reachable from out here.
#[test]
fn a_base_memo_priced_from_two_threads_is_shared_and_unchanged() {
    let (optimizer, jobs) = seeded_day();
    let default = optimizer.default_config();
    let job = &jobs[0];
    let base = BaseMemo::build(&optimizer, &job.plan, &default).unwrap();
    let before = base.compiled().clone();
    // 20 treatments that take the delta path (implementation-layer flips).
    let slate: Vec<RuleConfig> = optimizer
        .rules()
        .flippable()
        .map(|rule| {
            default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            })
        })
        .filter(|t| matches!(base.price(&optimizer, t), PricedTreatment::Delta(_)))
        .take(20)
        .collect();
    assert_eq!(slate.len(), 20);
    let scratch: Vec<_> = slate
        .iter()
        .map(|t| optimizer.compile(&job.plan, t))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for (treatment, expected) in slate.iter().zip(&scratch) {
                    match base.price(&optimizer, treatment) {
                        PricedTreatment::Delta(priced) => assert_eq!(&priced, expected),
                        other => panic!("delta flip re-classified as {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(*base.compiled(), before);
    assert_eq!(
        base.compiled().est_cost.to_bits(),
        before.est_cost.to_bits()
    );
    assert_eq!(
        base.compiled().physical.fingerprint(),
        before.physical.fingerprint()
    );
}
