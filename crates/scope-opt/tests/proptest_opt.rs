//! Property-based tests for the optimizer's core invariants: any valid plan
//! compiles under the default configuration; compilation is deterministic;
//! spans contain only flippable rules; configurations round-trip through
//! flips; emitted physical plans always validate and preserve output count;
//! a transform rooted at no tag of the memo is invisible to the compile.

mod plan_builder;

use plan_builder::{build, step};
use proptest::prelude::*;
use scope_opt::registry::RuleBehavior;
use scope_opt::{
    compute_span, BaseMemo, CompileBudget, CompileError, Optimizer, RuleConfig, RuleFlip, RuleId,
    RULE_COUNT,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn default_config_always_compiles(steps in prop::collection::vec(step(), 1..24)) {
        let plan = build(&steps);
        let opt = Optimizer::default();
        let compiled = opt.compile(&plan, &opt.default_config());
        prop_assert!(compiled.is_ok(), "{compiled:?}");
        let compiled = compiled.unwrap();
        prop_assert!(compiled.physical.validate().is_ok());
        prop_assert!(compiled.est_cost.is_finite() && compiled.est_cost >= 0.0);
        prop_assert_eq!(compiled.physical.outputs().len(), plan.outputs().len());
        prop_assert!(!compiled.signature.is_empty());
    }

    #[test]
    fn compilation_is_deterministic(steps in prop::collection::vec(step(), 1..20)) {
        let plan = build(&steps);
        let opt = Optimizer::default();
        let a = opt.compile(&plan, &opt.default_config()).unwrap();
        let b = opt.compile(&plan, &opt.default_config()).unwrap();
        prop_assert_eq!(a.physical, b.physical);
        prop_assert_eq!(a.est_cost.to_bits(), b.est_cost.to_bits());
        prop_assert_eq!(a.signature, b.signature);
    }

    /// Exploration tries a transform only on expressions with its root tag,
    /// so flipping a transform whose root tag no expression of the explored
    /// memo has changes nothing: not the plan, cost, signature or memo size,
    /// and not even the task count. Only the instability draws, which the
    /// configuration seeds, may fail the flipped compile.
    #[test]
    fn a_transform_rooted_at_no_memo_tag_is_invisible(steps in prop::collection::vec(step(), 1..16)) {
        let plan = build(&steps);
        let opt = Optimizer::default();
        let default = opt.default_config();
        let base = BaseMemo::build(&opt, &plan, &default).unwrap();
        let memo = base.memo();
        let tags: Vec<&str> = memo
            .group_ids()
            .flat_map(|g| memo.group(g).lexprs.iter().map(|e| e.op.tag()))
            .collect();
        let reference = opt
            .compile_budgeted(&plan, &default, CompileBudget::unlimited())
            .unwrap();
        for rule in opt.rules().rules() {
            let RuleBehavior::Transform(kind) = rule.behavior else {
                continue;
            };
            if tags.contains(&kind.root_tag()) {
                continue;
            }
            let flipped = default.with_flip(RuleFlip {
                rule: rule.id,
                enable: !default.enabled(rule.id),
            });
            match opt.compile_budgeted(&plan, &flipped, CompileBudget::unlimited()) {
                Ok(c) => {
                    prop_assert_eq!(&c.compiled, &reference.compiled, "{}", rule.name);
                    prop_assert_eq!(
                        c.compiled.est_cost.to_bits(),
                        reference.compiled.est_cost.to_bits()
                    );
                    prop_assert_eq!(c.tasks_executed, reference.tasks_executed, "{}", rule.name);
                }
                Err(CompileError::RuleInstability { .. }) => {}
                Err(e) => prop_assert!(false, "{}: {e}", rule.name),
            }
        }
    }

    #[test]
    fn spans_contain_only_flippable_rules(steps in prop::collection::vec(step(), 1..16)) {
        let plan = build(&steps);
        let opt = Optimizer::default();
        if let Ok(span) = compute_span(&opt, &plan, 4) {
            for rule in span.span.iter() {
                prop_assert!(opt.rules().rule(rule).flippable());
            }
            // Flippable rules of the default signature are always included.
            for rule in span.default_signature.iter() {
                if opt.rules().rule(rule).flippable() {
                    prop_assert!(span.span.contains(rule));
                }
            }
        }
    }

    #[test]
    fn flips_round_trip_configs(rule in 0u16..RULE_COUNT as u16, enable in any::<bool>()) {
        let opt = Optimizer::default();
        let default = opt.default_config();
        let flip = RuleFlip { rule: RuleId(rule), enable };
        let flipped = default.with_flip(flip);
        prop_assert_eq!(flipped.enabled(RuleId(rule)), enable);
        // Re-applying the default state restores the default config.
        let restored = flipped.with_flip(RuleFlip {
            rule: RuleId(rule),
            enable: default.enabled(RuleId(rule)),
        });
        prop_assert_eq!(restored, default);
    }

    #[test]
    fn single_flip_detection_is_exact(
        rule in 0u16..RULE_COUNT as u16,
        other in 0u16..RULE_COUNT as u16,
    ) {
        let opt = Optimizer::default();
        let default = opt.default_config();
        let f1 = RuleFlip { rule: RuleId(rule), enable: !default.enabled(RuleId(rule)) };
        let one = default.with_flip(f1);
        prop_assert_eq!(default.single_flip_to(&one), Some(f1));
        if other != rule {
            let f2 = RuleFlip { rule: RuleId(other), enable: !default.enabled(RuleId(other)) };
            let two = one.with_flip(f2);
            prop_assert_eq!(default.single_flip_to(&two), None);
        }
    }

    #[test]
    fn signature_is_subset_of_enabled_rules(steps in prop::collection::vec(step(), 1..16)) {
        let plan = build(&steps);
        let opt = Optimizer::default();
        let config: RuleConfig = opt.default_config();
        if let Ok(c) = opt.compile(&plan, &config) {
            for rule in c.signature.iter() {
                prop_assert!(
                    config.enabled(rule),
                    "signature rule {rule} must be enabled in the config"
                );
            }
        }
    }
}
