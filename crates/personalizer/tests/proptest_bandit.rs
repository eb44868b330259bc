//! Property-based tests for the bandit's statistical invariants.

use personalizer::{CbConfig, ContextualBandit, FeatureVector};
use proptest::prelude::*;

fn fv(names: &[String]) -> FeatureVector {
    let mut f = FeatureVector::new();
    for n in names {
        f.flag("t", n);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Epsilon-greedy propensities always form a probability distribution
    /// and the reported probability matches the chosen arm's true mass.
    #[test]
    fn propensities_form_distribution(
        eps in 0.0f64..1.0,
        n_actions in 1usize..12,
        seed in any::<u64>(),
    ) {
        let cb = ContextualBandit::new(CbConfig { epsilon: eps, ..CbConfig::default() });
        let ctx = fv(&["ctx".to_string()]);
        let actions: Vec<FeatureVector> =
            (0..n_actions).map(|i| fv(&[format!("a{i}")])).collect();
        let d = cb.decide(cb.scores(&ctx, &actions), seed, false);
        prop_assert!(d.chosen < n_actions);
        prop_assert!(d.probability > 0.0 && d.probability <= 1.0);
        let k = n_actions as f64;
        let greedy_mass = 1.0 - eps + eps / k;
        let explore_mass = eps / k;
        prop_assert!(
            (d.probability - greedy_mass).abs() < 1e-9
                || (d.probability - explore_mass).abs() < 1e-9
        );
    }

    /// Rewards are bounded => scores stay bounded no matter the update
    /// sequence (stability of the clamped normalized-SGD update).
    #[test]
    fn scores_stay_bounded_under_bounded_rewards(
        rewards in prop::collection::vec(0.0f64..2.0, 1..200),
        probs in prop::collection::vec(0.05f64..1.0, 1..200),
    ) {
        let mut cb = ContextualBandit::new(CbConfig::default());
        let ctx = fv(&["c1".to_string(), "c2".to_string()]);
        let a = fv(&["act".to_string()]);
        for (r, p) in rewards.iter().zip(probs.iter().cycle()) {
            cb.reward(&ctx, &a, *r, *p);
        }
        let s = cb.scores(&ctx, &[a]);
        prop_assert!(s[0].is_finite());
        prop_assert!(s[0].abs() < 100.0, "score {}", s[0]);
    }

    /// The uniform logging policy is genuinely uniform across seeds.
    #[test]
    fn uniform_policy_covers_all_arms(n_actions in 2usize..8) {
        let cb = ContextualBandit::new(CbConfig::default());
        let ctx = fv(&["c".to_string()]);
        let actions: Vec<FeatureVector> =
            (0..n_actions).map(|i| fv(&[format!("u{i}")])).collect();
        let mut seen = vec![false; n_actions];
        for seed in 0..400u64 {
            seen[cb.decide(cb.scores(&ctx, &actions), seed, true).chosen] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some arm never sampled: {seen:?}");
    }
}
