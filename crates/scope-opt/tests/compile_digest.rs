//! Cross-commit byte identity of the compiler. One fresh-literal workload day
//! is compiled under the default configuration and under every single flip
//! of every flippable rule, and each job's span fixpoint is run; every
//! artifact — physical fingerprint, `est_cost` bits, signature fingerprint,
//! `(memo_groups, memo_exprs)`, or the error text — is folded into one
//! `combine` digest per seed.
//!
//! The digests were recorded at the parent of the change that split
//! `PExpr` into a shared `PShape` (before `impls.rs` was touched). A moved
//! digest means some compile of some rule flip changed, not just a plan
//! `structural_hash.rs` pins or a memo size `memo_dedup_pins.rs` pins.

use scope_ir::ids::{combine, stable_hash64};
use scope_opt::{compute_span, CompileError, Compiled, Optimizer, RuleFlip};
use scope_workload::{Workload, WorkloadConfig};

fn fold_compile(h: u64, result: &Result<Compiled, CompileError>) -> u64 {
    match result {
        Ok(c) => [
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

/// `(digest, compiles, errors)` of one seed's corpus: the bench corpus's
/// shape (`qo_bench::corpus`) on day 3, sized to keep the debug run short.
fn digest(seed: u64) -> (u64, usize, usize) {
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
    let (mut h, mut compiles, mut errors) = (0u64, 0usize, 0usize);
    for job in &jobs {
        for config in &configs {
            let result = optimizer.compile(&job.plan, config);
            compiles += 1;
            errors += usize::from(result.is_err());
            h = fold_compile(h, &result);
        }
    }
    for job in &jobs {
        h = match compute_span(&optimizer, &job.plan, 6) {
            Ok(span) => combine(combine(h, span.span.fingerprint()), span.iterations as u64),
            Err(e) => combine(h, stable_hash64(e.to_string().as_bytes())),
        };
    }
    (h, compiles, errors)
}

#[test]
fn every_single_flip_compile_is_byte_identical_at_seed_2022() {
    assert_eq!(digest(2022), (0xb6f0_5322_db54_2504, 22_908, 681));
}

#[test]
fn every_single_flip_compile_is_byte_identical_at_seed_7() {
    assert_eq!(digest(7), (0xcbac_7ba0_0de9_66f5, 22_161, 694));
}
