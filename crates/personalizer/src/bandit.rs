//! Contextual bandit over (context, action-set) pairs (paper §3.1-3.2).
//!
//! The learner repeatedly receives a context and a set of candidate actions,
//! chooses one, and observes the reward of the chosen action only. Actions
//! become "increasingly more likely under the experiment design as more data
//! accumulates, but other actions still have some likelihood" — here via
//! epsilon-greedy exploration. QO-Advisor trains off-policy from a
//! uniform-at-random logging policy (§4.2); both policies are exposed.

use crate::features::FeatureVector;
use crate::model::LinearModel;
use crate::slate::SparseSlate;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

/// Down-weight applied to the context×action quadratic block of the joint
/// representation (see [`ContextualBandit::joint`]). Shared with the batched
/// [`SparseSlate`] layout so both featurization paths multiply identically.
pub(crate) const QUADRATIC_SCALE: f64 = 0.5;

/// Bandit hyper-parameters.
#[derive(Debug, Clone, Serialize)]
pub struct CbConfig {
    /// Exploration rate of the learned policy.
    pub epsilon: f64,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Hashed weight-table size (bits).
    pub dim_bits: u32,
    /// Cap on inverse-propensity weights (variance control).
    pub max_importance: f64,
    /// Score rank slates through the batched CSR path
    /// ([`crate::slate::SparseSlate`]) instead of per-action joint
    /// featurization. Bit-identical decisions either way (asserted by the
    /// slate property test and the pipeline determinism suite) — purely a
    /// throughput knob.
    pub batch_rank: bool,
}

impl Default for CbConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            learning_rate: 0.25,
            dim_bits: 20,
            max_importance: 50.0,
            batch_rank: true,
        }
    }
}

/// The outcome of a rank call.
#[derive(Debug, Clone, PartialEq)]
pub struct RankDecision {
    /// Index into the action slate.
    pub chosen: usize,
    /// Probability the behaviour policy assigned to the chosen action.
    pub probability: f64,
    /// Model scores per action (diagnostics and counterfactual evaluation).
    pub scores: Vec<f64>,
}

/// A contextual bandit with a linear scorer.
#[derive(Debug, Clone)]
pub struct ContextualBandit {
    model: LinearModel,
    config: CbConfig,
    /// Events absorbed (for diagnostics).
    pub events: u64,
}

impl ContextualBandit {
    #[must_use]
    pub fn new(config: CbConfig) -> Self {
        Self {
            model: LinearModel::new(config.dim_bits),
            config,
            events: 0,
        }
    }

    #[must_use]
    pub fn config(&self) -> &CbConfig {
        &self.config
    }

    /// Rebuild a bandit from snapshot parts (`scope-state` restore): the
    /// live configuration plus a restored model and event counter. The
    /// caller has already checked `model.dim_bits()` against
    /// `config.dim_bits`.
    #[must_use]
    pub fn from_parts(config: CbConfig, model: LinearModel, events: u64) -> Self {
        Self {
            model,
            config,
            events,
        }
    }

    #[must_use]
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Joint (context × action) representation: the action features crossed
    /// with the context plus the raw action features. The quadratic part
    /// lets the model learn per-(span-feature, rule) effects; it is
    /// down-weighted so the action main effects (the strongest and fastest-
    /// converging signal) keep the majority share of each normalized-SGD
    /// correction.
    #[must_use]
    pub fn joint(context: &FeatureVector, action: &FeatureVector) -> FeatureVector {
        let mut fv = action.clone();
        fv.extend_from(&context.quadratic_weighted(action, QUADRATIC_SCALE));
        fv
    }

    /// Score every action under the current model.
    #[must_use]
    pub fn scores(&self, context: &FeatureVector, actions: &[FeatureVector]) -> Vec<f64> {
        actions
            .iter()
            .map(|a| self.model.score(&Self::joint(context, a)))
            .collect()
    }

    /// Score every action of a prebuilt [`SparseSlate`] — bit-identical to
    /// [`ContextualBandit::scores`] over the slate's source vectors, without
    /// re-featurizing or allocating per action.
    #[must_use]
    pub fn scores_slate(&self, slate: &SparseSlate) -> Vec<f64> {
        self.model.score_slate(slate)
    }

    /// Choose an action from `scores` (one per action, from
    /// [`ContextualBandit::scores`] or [`ContextualBandit::scores_slate`]).
    /// `uniform` selects the uniform-at-random logging policy (the paper's
    /// §4.2 data-gathering arm), otherwise the epsilon-greedy learned policy.
    /// Deterministic given `seed`: the uniform policy draws one int range;
    /// epsilon-greedy draws one float range, then an int range only on the
    /// exploration branch. Scoring is separate, so a caller can score a slate
    /// once and decide many times (the scores only change on reward).
    #[must_use]
    pub fn decide(&self, scores: Vec<f64>, seed: u64, uniform: bool) -> RankDecision {
        assert!(!scores.is_empty(), "rank needs at least one action");
        let n = scores.len();
        let k = n as f64;
        let mut rng = StdRng::seed_from_u64(seed);
        if uniform {
            return RankDecision {
                chosen: rng.random_range(0..n),
                probability: 1.0 / k,
                scores,
            };
        }
        let greedy = argmax(&scores);
        let eps = self.config.epsilon;
        let chosen = if rng.random_range(0.0..1.0) < eps {
            rng.random_range(0..n)
        } else {
            greedy
        };
        let probability = if chosen == greedy {
            1.0 - eps + eps / k
        } else {
            eps / k
        };
        RankDecision {
            chosen,
            probability,
            scores,
        }
    }

    /// Off-policy reward update: inverse-propensity-weighted regression of
    /// the chosen action's joint features toward the observed reward.
    pub fn reward(
        &mut self,
        context: &FeatureVector,
        action: &FeatureVector,
        reward: f64,
        logged_probability: f64,
    ) {
        let importance = self.importance(logged_probability);
        let joint = Self::joint(context, action);
        self.model
            .update(&joint, reward, importance, self.config.learning_rate);
        self.events += 1;
    }

    /// [`ContextualBandit::reward`] for action `chosen` of a prebuilt
    /// [`SparseSlate`], read from the slate's CSR row instead of re-crossing
    /// the joint vector: bit-identical weights, no allocation, no hashing.
    pub fn reward_row(
        &mut self,
        slate: &SparseSlate,
        chosen: usize,
        reward: f64,
        logged_probability: f64,
    ) {
        let importance = self.importance(logged_probability);
        self.model
            .update_row(slate, chosen, reward, importance, self.config.learning_rate);
        self.events += 1;
    }

    /// The capped inverse-propensity weight of a logged decision.
    fn importance(&self, logged_probability: f64) -> f64 {
        (1.0 / logged_probability.max(1e-6)).min(self.config.max_importance)
    }
}

fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate() {
        if *s > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(name: &str) -> FeatureVector {
        let mut f = FeatureVector::new();
        f.flag("action", name);
        f
    }

    fn context(name: &str) -> FeatureVector {
        let mut f = FeatureVector::new();
        f.flag("ctx", name);
        f
    }

    /// `decide` over freshly computed scores: what a rank call does.
    fn rank(
        cb: &ContextualBandit,
        ctx: &FeatureVector,
        actions: &[FeatureVector],
        seed: u64,
        uniform: bool,
    ) -> RankDecision {
        cb.decide(cb.scores(ctx, actions), seed, uniform)
    }

    #[test]
    fn uniform_policy_has_uniform_propensity() {
        let cb = ContextualBandit::new(CbConfig::default());
        let actions = vec![action("a"), action("b"), action("c"), action("d")];
        let d = rank(&cb, &context("x"), &actions, 3, true);
        assert!((d.probability - 0.25).abs() < 1e-12);
        assert!(d.chosen < 4);
        // Deterministic per seed; varies across seeds.
        assert_eq!(d.chosen, rank(&cb, &context("x"), &actions, 3, true).chosen);
        let picks: std::collections::HashSet<usize> = (0..64)
            .map(|s| rank(&cb, &context("x"), &actions, s, true).chosen)
            .collect();
        assert!(picks.len() > 1);
    }

    #[test]
    fn bandit_learns_context_dependent_best_action() {
        let mut cb = ContextualBandit::new(CbConfig {
            epsilon: 0.2,
            learning_rate: 0.3,
            dim_bits: 18,
            max_importance: 50.0,
            batch_rank: true,
        });
        let actions = vec![action("a0"), action("a1")];
        // Ground truth: action 0 is good in context A, action 1 in context B.
        let truth = |ctx: &str, a: usize| -> f64 {
            match (ctx, a) {
                ("A", 0) | ("B", 1) => 1.0,
                _ => 0.0,
            }
        };
        for i in 0..800u64 {
            let ctx_name = if i % 2 == 0 { "A" } else { "B" };
            let ctx = context(ctx_name);
            let d = rank(&cb, &ctx, &actions, i, true);
            let r = truth(ctx_name, d.chosen);
            cb.reward(&ctx, &actions[d.chosen], r, d.probability);
        }
        assert_eq!(argmax(&cb.scores(&context("A"), &actions)), 0);
        assert_eq!(argmax(&cb.scores(&context("B"), &actions)), 1);
    }

    #[test]
    fn epsilon_greedy_probabilities_are_correct() {
        let cb = ContextualBandit::new(CbConfig {
            epsilon: 0.4,
            ..CbConfig::default()
        });
        let actions = vec![action("a"), action("b")];
        let mut greedy_p = None;
        let mut explore_p = None;
        for seed in 0..200 {
            let d = rank(&cb, &context("x"), &actions, seed, false);
            if d.chosen == argmax(&d.scores) {
                greedy_p = Some(d.probability);
            } else {
                explore_p = Some(d.probability);
            }
        }
        assert!((greedy_p.unwrap() - (0.6 + 0.2)).abs() < 1e-12);
        if let Some(p) = explore_p {
            assert!((p - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn propensities_form_a_distribution() {
        // Sum over actions of P(choose a) equals 1 for epsilon-greedy.
        let cb = ContextualBandit::new(CbConfig {
            epsilon: 0.3,
            ..CbConfig::default()
        });
        let actions = vec![action("a"), action("b"), action("c")];
        let d = rank(&cb, &context("x"), &actions, 0, false);
        let greedy = argmax(&d.scores);
        let k = actions.len() as f64;
        let total: f64 = (0..actions.len())
            .map(|i| {
                if i == greedy {
                    1.0 - 0.3 + 0.3 / k
                } else {
                    0.3 / k
                }
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn importance_weights_are_capped() {
        let mut cb = ContextualBandit::new(CbConfig {
            max_importance: 2.0,
            ..CbConfig::default()
        });
        // Tiny logged probability must not explode the update.
        let ctx = context("x");
        let a = action("a");
        cb.reward(&ctx, &a, 1.0, 1e-9);
        let s = cb.scores(&ctx, &[a]);
        assert!(s[0].is_finite());
        assert!(s[0] < 3.0);
    }

    #[test]
    fn single_action_slate_is_forced() {
        let cb = ContextualBandit::new(CbConfig::default());
        let d = rank(&cb, &context("x"), &[action("only")], 1, false);
        assert_eq!(d.chosen, 0);
        assert!((d.probability - 1.0).abs() < 1e-9);
    }
}
