//! Pricing is compiling with the plan left out. Over the compile-digest
//! corpus (`compile_digest.rs`: one fresh-literal workload day) at seeds
//! 2022 and 7, `Optimizer::price_slate` of every single flip of every
//! flippable rule equals `Optimizer::compile_slate`'s `est_cost`, or its
//! error, bit for bit — through the pipeline's optimizer (compile cache and
//! delta compiler) and through the bare one (every treatment a full search).
//! On the cached optimizer the priced entries then serve later pricing as
//! hits. A treatment priced below the default configuration keeps its plan,
//! so a plan slate over them hits it; every other success is a price entry,
//! which the plan slate reads as a miss and upgrades in place to the plan a
//! fresh optimizer compiles.

use scope_opt::{
    CacheConfig, CompileError, Compiled, DeltaConfig, Optimizer, RuleConfig, RuleFlip,
};
use scope_workload::{JobInstance, Workload, WorkloadConfig};
use std::collections::BTreeSet;

/// The corpus's distinct plans (a template can submit one plan twice).
fn corpus(seed: u64) -> Vec<JobInstance> {
    let mut seen = BTreeSet::new();
    Workload::new(WorkloadConfig {
        seed,
        num_templates: 60,
        adhoc_per_day: 15,
        max_instances_per_day: 2,
        ..WorkloadConfig::default()
    })
    .jobs_for_day(3)
    .into_iter()
    .filter(|job| seen.insert(job.plan.fingerprint()))
    .collect()
}

fn single_flips(optimizer: &Optimizer) -> Vec<RuleConfig> {
    let default = optimizer.default_config();
    optimizer
        .rules()
        .flippable()
        .map(|rule| {
            default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            })
        })
        .collect()
}

fn steering() -> Optimizer {
    Optimizer::new(Optimizer::default(), CacheConfig::default()).with_delta(DeltaConfig::default())
}

/// `est_cost` bits or the error, the two sides' common form.
fn bits(result: Result<f64, CompileError>) -> Result<u64, CompileError> {
    result.map(f64::to_bits)
}

fn compiled_bits(compiled: &[Result<Compiled, CompileError>]) -> Vec<Result<u64, CompileError>> {
    compiled
        .iter()
        .map(|result| bits(result.as_ref().map(|c| c.est_cost).map_err(Clone::clone)))
        .collect()
}

#[test]
fn price_slate_equals_compile_slate_est_costs_for_every_single_flip() {
    let (mut priced, mut failed, mut kept) = (0usize, 0usize, 0usize);
    for seed in [2022, 7] {
        let jobs = corpus(seed);
        let (pricing, compiling, bare) = (steering(), steering(), Optimizer::default());
        let default = pricing.default_config();
        let slate = single_flips(&pricing);
        for job in &jobs {
            let plan = &job.plan;
            let prices: Vec<_> = pricing
                .price_slate(plan, &default, &slate)
                .into_iter()
                .map(bits)
                .collect();
            let compiled = compiling.compile_slate(plan, &default, &slate);
            assert_eq!(
                prices,
                compiled_bits(&compiled),
                "{} at seed {seed}",
                job.name
            );
            let bare_prices: Vec<_> = bare
                .price_slate(plan, &default, &slate)
                .into_iter()
                .map(bits)
                .collect();
            assert_eq!(bare_prices, prices, "{} at seed {seed}, uncached", job.name);

            // Priced entries serve pricing; a plan slate upgrades them.
            let base_cost = compiling.compile(plan, &default).ok().map(|c| c.est_cost);
            let beats_base = |cost: u64| base_cost.is_some_and(|base| f64::from_bits(cost) < base);
            let plans = prices.iter().flatten().filter(|&&c| beats_base(c)).count();
            let before = pricing.stats();
            let again: Vec<_> = pricing
                .price_slate(plan, &default, &slate)
                .into_iter()
                .map(bits)
                .collect();
            assert_eq!(again, prices);
            let upgraded = pricing.compile_slate(plan, &default, &slate);
            assert_eq!(upgraded, compiled, "{} at seed {seed}, upgraded", job.name);
            let traffic = pricing.stats().since(&before);
            let upgrades = prices.iter().flatten().count() - plans;
            assert_eq!(traffic.hits, (2 * slate.len() - upgrades) as u64);
            assert_eq!(
                traffic.misses, upgrades as u64,
                "a price entry is a plan miss"
            );
            assert_eq!(traffic.inserts, 0, "an upgrade replaces in place");

            kept += plans;
            priced += prices.len();
            failed += prices.iter().filter(|p| p.is_err()).count();
        }
    }
    assert!(
        priced > 40_000 && failed > 1_000 && kept > 100 && kept < priced / 10,
        "{priced} priced, {failed} failed, {kept} kept their plan"
    );
}
