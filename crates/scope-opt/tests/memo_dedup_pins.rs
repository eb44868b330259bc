//! The memo's dedup key decides which expressions are "the same", and so how
//! many groups and expressions every compile explores. These sizes were
//! recorded with the key spelled as a hash of the operator's `Debug` text
//! (PR 23); the structural-hash key must induce exactly the same equivalence
//! classes, on every plan of the bench corpus, under the default
//! configuration and with every transform rule enabled (where rewrites
//! really do land in existing groups). A moved number here is a changed
//! search, not a cheaper one.

use scope_opt::{Optimizer, RuleConfig, RuleFlip};
use scope_workload::{Workload, WorkloadConfig};

/// `(memo_groups, memo_exprs)` per job of corpus day 0, default config.
#[rustfmt::skip]
const DEFAULT: [(usize, usize); 91] = [
    (5, 5), (5, 5), (5, 5), (6, 6), (6, 6), (9, 9), (8, 8), (8, 8), (8, 8), (9, 9), (9, 9), (5, 5), (5, 5),
    (5, 5), (5, 5), (5, 5), (5, 5), (7, 7), (7, 7), (7, 7), (7, 7), (5, 5), (9, 9), (9, 9), (7, 7), (5, 5),
    (5, 5), (9, 9), (9, 9), (5, 5), (5, 5), (5, 5), (5, 5), (9, 9), (9, 9), (5, 5), (5, 5), (7, 7), (7, 7),
    (6, 6), (6, 6), (8, 8), (5, 5), (7, 7), (5, 5), (5, 5), (7, 7), (7, 7), (7, 7), (5, 5), (5, 5), (5, 5),
    (5, 5), (5, 5), (7, 7), (7, 7), (5, 5), (5, 5), (8, 8), (5, 5), (5, 5), (7, 7), (7, 7), (6, 6), (9, 9),
    (9, 9), (8, 8), (9, 9), (9, 9), (8, 8), (9, 9), (9, 9), (9, 9), (9, 9), (9, 9), (9, 9), (7, 7), (7, 7),
    (7, 7), (7, 7), (7, 7), (9, 9), (7, 7), (5, 5), (7, 7), (7, 7), (9, 9), (8, 8), (5, 5), (5, 5), (7, 7),
];

/// The same with every flippable transform rule switched on.
#[rustfmt::skip]
const ALL_TRANSFORMS: [(usize, usize); 91] = [
    (5, 5), (5, 5), (5, 5), (6, 6), (6, 6), (10, 11), (8, 8), (8, 8), (8, 8), (11, 13), (11, 13), (5, 5),
    (5, 5), (5, 5), (5, 5), (5, 5), (5, 5), (8, 9), (8, 9), (8, 9), (8, 9), (5, 5), (10, 11), (10, 11),
    (8, 9), (5, 5), (5, 5), (11, 13), (11, 13), (5, 5), (5, 5), (5, 5), (5, 5), (11, 13), (11, 13), (5, 5),
    (5, 5), (8, 9), (8, 9), (6, 6), (6, 6), (8, 8), (5, 5), (8, 9), (5, 5), (5, 5), (8, 9), (8, 9), (8, 9),
    (5, 5), (5, 5), (5, 5), (5, 5), (5, 5), (8, 9), (8, 9), (5, 5), (5, 5), (8, 8), (5, 5), (5, 5), (8, 9),
    (8, 9), (6, 6), (11, 13), (11, 13), (8, 8), (11, 13), (11, 13), (8, 8), (11, 13), (11, 13), (10, 11),
    (10, 11), (11, 13), (11, 13), (8, 9), (8, 9), (8, 9), (8, 9), (8, 9), (10, 11), (8, 9), (5, 5), (8, 9),
    (8, 9), (11, 13), (8, 8), (5, 5), (5, 5), (8, 9),
];

fn memo_sizes(optimizer: &Optimizer, config: &RuleConfig) -> Vec<(usize, usize)> {
    // The bench corpus (`experiments`' one workload: seed 2022, 60 templates).
    Workload::new(WorkloadConfig {
        seed: 2022,
        num_templates: 60,
        adhoc_per_day: 15,
        max_instances_per_day: 2,
        ..WorkloadConfig::default()
    })
    .jobs_for_day(0)
    .iter()
    .map(|job| {
        let compiled = optimizer
            .compile(&job.plan, config)
            .expect("corpus compiles under both configurations");
        (compiled.memo_groups, compiled.memo_exprs)
    })
    .collect()
}

#[test]
fn corpus_memo_sizes_are_what_the_debug_text_key_produced() {
    let optimizer = Optimizer::default();
    let default = optimizer.default_config();
    assert_eq!(memo_sizes(&optimizer, &default), DEFAULT);
    let all_transforms = optimizer
        .rules()
        .transforms_by_promise()
        .filter(|rule| rule.flippable())
        .fold(default, |config, rule| {
            config.with_flip(RuleFlip {
                rule: rule.id,
                enable: true,
            })
        });
    assert_eq!(memo_sizes(&optimizer, &all_transforms), ALL_TRANSFORMS);
}
