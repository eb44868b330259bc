//! Cross-commit byte identity of the compiler. One fresh-literal workload day
//! is compiled under the default configuration and under every single flip
//! of every flippable rule, and each job's span fixpoint is run; every
//! artifact — physical fingerprint, `est_cost` bits, signature fingerprint,
//! `(memo_groups, memo_exprs)`, or the error text — is folded into one
//! `combine` *artifact* digest per seed. The search's task counts are summed
//! into a separate *task* total, so a change that moves task counts on
//! purpose (a cheaper search) can show its artifacts unchanged.
//!
//! The digests were first recorded at the parent of the change that split
//! `PExpr` into a shared `PShape` (before `impls.rs` was touched),
//! re-recorded with the task counts folded in at the parent of the change
//! that made the recursive explorer the one search engine, and re-recorded
//! with the task counts taken out of the artifact digest at the parent of
//! the change that made the two plan arenas one generic `Dag`. The task
//! totals were re-recorded alone when exploration began trying each
//! transform only on expressions its root tag matches. A moved
//! artifact digest means some compile of some rule flip changed, not just a
//! plan `structural_hash.rs` pins or a memo size `memo_dedup_pins.rs` pins;
//! a moved task total alone means the search did different work for the
//! same results.

use scope_ir::ids::{combine, stable_hash64};
use scope_opt::{compute_span, CompileBudget, CompileError, Compiled, Optimizer, RuleFlip};
use scope_workload::{Workload, WorkloadConfig};

fn fold_compile(h: u64, result: &Result<(Compiled, u64), CompileError>) -> u64 {
    match result {
        Ok((c, _)) => [
            c.physical.fingerprint(),
            c.est_cost.to_bits(),
            c.signature.fingerprint(),
            c.memo_groups as u64,
            c.memo_exprs as u64,
        ]
        .into_iter()
        .fold(h, combine),
        Err(e) => combine(h, stable_hash64(e.to_string().as_bytes())),
    }
}

/// `(artifact digest, compiles, errors, tasks)` of one seed's corpus: the bench
/// corpus's shape (`qo_bench::corpus`) on day 3, sized to keep the debug run
/// short. `tasks` sums the successful compiles' task counts.
fn digest(seed: u64) -> (u64, usize, usize, u64) {
    let optimizer = Optimizer::default();
    let default = optimizer.default_config();
    let jobs = Workload::new(WorkloadConfig {
        seed,
        num_templates: 60,
        adhoc_per_day: 15,
        max_instances_per_day: 2,
        ..WorkloadConfig::default()
    })
    .jobs_for_day(3);
    let configs: Vec<_> = std::iter::once(default)
        .chain(optimizer.rules().flippable().map(|rule| {
            default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            })
        }))
        .collect();
    let (mut h, mut compiles, mut errors, mut tasks) = (0u64, 0usize, 0usize, 0u64);
    for job in &jobs {
        for config in &configs {
            let result = optimizer
                .compile_budgeted(&job.plan, config, CompileBudget::unlimited())
                .map(|b| (b.compiled, b.tasks_executed));
            compiles += 1;
            match &result {
                Ok((_, n)) => tasks += n,
                Err(_) => errors += 1,
            }
            h = fold_compile(h, &result);
        }
    }
    for job in &jobs {
        h = match compute_span(&optimizer, &job.plan, 6) {
            Ok(span) => combine(combine(h, span.span.fingerprint()), span.iterations as u64),
            Err(e) => combine(h, stable_hash64(e.to_string().as_bytes())),
        };
    }
    (h, compiles, errors, tasks)
}

/// Asserts the artifacts first, so a moved task total alone reads as such.
fn assert_digest(seed: u64, artifacts: (u64, usize, usize), tasks: u64) {
    let (h, compiles, errors, n) = digest(seed);
    assert_eq!((h, compiles, errors), artifacts, "artifacts moved");
    assert_eq!(n, tasks, "artifacts unchanged, task total moved");
}

#[test]
fn every_single_flip_compile_is_byte_identical_at_seed_2022() {
    assert_digest(2022, (0xb6f0_5322_db54_2504, 22_908, 681), 1_160_052);
}

#[test]
fn every_single_flip_compile_is_byte_identical_at_seed_7() {
    assert_digest(7, (0xcbac_7ba0_0de9_66f5, 22_161, 694), 1_110_729);
}
