//! Batched slate scoring over a CSR sparse layout.
//!
//! [`ContextualBandit::scores`](crate::ContextualBandit::scores) builds the
//! joint (context × action) feature vector of every action and walks the
//! model's weight table per action — allocating `1 + S` joint vectors and
//! re-hashing the quadratic block on every call. A
//! [`SparseSlate`] does that work once: the joint features of all actions
//! are laid out contiguously in CSR form (`indptr` / `slots` / `values`),
//! with every hashed feature id already folded into the model's table
//! (`key & (2^dim_bits − 1)`), so scoring an action is a gather-multiply
//! over two flat arrays and scoring the slate touches no allocator at all.
//!
//! The layout replicates
//! [`ContextualBandit::joint`](crate::ContextualBandit::joint) exactly —
//! action main effects first, then the context×action quadratic block in
//! context-major order with the same `cv * av * scale` multiply order — and
//! scores accumulate left-to-right like `LinearModel::score`, so batched
//! scores are **bit-identical** to the sequential path (f64 addition is not
//! associative; order is part of the contract, asserted by the property
//! test below). A slate can be built once (e.g. in a parallel featurization
//! fan-out) and ranked several times: the training and acting rank calls of
//! a pipeline job share one slate.

use crate::bandit::QUADRATIC_SCALE;
use crate::features::FeatureVector;
use scope_ir::ids::mix64;

/// The joint features of a whole action slate in CSR form, pre-folded into
/// a `2^dim_bits` model table.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSlate {
    /// Table size the slot indices were folded for; models assert it.
    dim_bits: u32,
    /// `indptr[i]..indptr[i+1]` is action `i`'s slice of `slots`/`values`.
    indptr: Vec<usize>,
    /// Model-table indices (`key & (2^dim_bits − 1)`; fits u32 for every
    /// legal `dim_bits`).
    slots: Vec<u32>,
    values: Vec<f64>,
}

impl SparseSlate {
    /// Lay out the joint features of `actions` under `context`, folded for a
    /// `2^dim_bits` weight table. Item order per action is exactly
    /// [`ContextualBandit::joint`](crate::ContextualBandit::joint)'s: the
    /// action's own features, then context×action crosses in context-major
    /// order.
    #[must_use]
    pub fn build(context: &FeatureVector, actions: &[FeatureVector], dim_bits: u32) -> Self {
        let mask = (1u64 << dim_bits) - 1;
        let ctx = context.items();
        let nnz: usize = actions.iter().map(|a| a.len() * (1 + ctx.len())).sum();
        let mut indptr = Vec::with_capacity(actions.len() + 1);
        let mut slots = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for action in actions {
            for &(ak, av) in action.items() {
                slots.push((ak & mask) as u32);
                values.push(av);
            }
            for &(ck, cv) in ctx {
                for &(ak, av) in action.items() {
                    slots.push((mix64(ck, ak) & mask) as u32);
                    values.push(cv * av * QUADRATIC_SCALE);
                }
            }
            indptr.push(slots.len());
        }
        Self {
            dim_bits,
            indptr,
            slots,
            values,
        }
    }

    /// Table size (bits) the slots were folded for.
    #[must_use]
    pub fn dim_bits(&self) -> u32 {
        self.dim_bits
    }

    /// Number of actions laid out.
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.indptr.len() - 1
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_actions() == 0
    }

    /// Total laid-out (slot, value) pairs across all actions.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.slots.len()
    }

    /// Action `i`'s (slots, values) slices, in joint-feature order.
    #[must_use]
    pub fn action(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.slots[lo..hi], &self.values[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{CbConfig, ContextualBandit};
    use crate::model::LinearModel;
    use proptest::prelude::*;

    fn fv(pairs: &[(&str, f64)]) -> FeatureVector {
        let mut f = FeatureVector::new();
        for (name, v) in pairs {
            f.push("t", name, *v);
        }
        f
    }

    #[test]
    fn layout_matches_sequential_joint() {
        let ctx = fv(&[("c1", 1.5), ("c2", -2.0)]);
        let actions = vec![fv(&[("a", 1.0)]), fv(&[("b", 2.0), ("c", 0.5)])];
        let dim_bits = 16;
        let slate = SparseSlate::build(&ctx, &actions, dim_bits);
        assert_eq!(slate.num_actions(), 2);
        let mask = (1u64 << dim_bits) - 1;
        for (i, action) in actions.iter().enumerate() {
            let joint = ContextualBandit::joint(&ctx, action);
            let (slots, values) = slate.action(i);
            assert_eq!(slots.len(), joint.len());
            for (j, &(k, v)) in joint.items().iter().enumerate() {
                assert_eq!(u64::from(slots[j]), k & mask, "slot {j} of action {i}");
                assert!(
                    values[j].to_bits() == v.to_bits(),
                    "value {j} of action {i}"
                );
            }
        }
    }

    #[test]
    fn empty_actions_and_empty_context_are_representable() {
        let slate = SparseSlate::build(&FeatureVector::new(), &[], 12);
        assert!(slate.is_empty());
        assert_eq!(slate.nnz(), 0);
        let slate = SparseSlate::build(&FeatureVector::new(), &[fv(&[("a", 1.0)])], 12);
        assert_eq!(slate.num_actions(), 1);
        assert_eq!(slate.nnz(), 1, "no context ⇒ main effects only");
    }

    /// Strategy producing a feature vector of up to `n` features with values
    /// spanning many magnitudes (duplicate names — and so duplicate hashed
    /// keys — are allowed and must fold identically on both paths).
    fn arb_fv(n: usize) -> impl Strategy<Value = FeatureVector> {
        prop::collection::vec((0usize..8, -1e6f64..1e6), 0..n).prop_map(|pairs| {
            let mut f = FeatureVector::new();
            for (name_idx, v) in pairs {
                f.push("p", &format!("f{name_idx}"), v);
            }
            f
        })
    }

    proptest! {
        /// The tentpole contract: batched slate scores are bit-identical to
        /// per-action `scores` for arbitrary slates — including
        /// duplicate feature keys, which both paths keep as separate items.
        #[test]
        fn batched_scores_bit_equal_sequential(
            ctx in arb_fv(6),
            actions in prop::collection::vec(arb_fv(5), 1..6),
            seed in 0u64..1000,
        ) {
            let mut cb = ContextualBandit::new(CbConfig { dim_bits: 14, ..CbConfig::default() });
            // A trained model, so weights are non-zero and order matters.
            for (i, a) in actions.iter().enumerate() {
                cb.reward(&ctx, a, (i as f64) - 1.0, 0.5);
            }
            let slate = SparseSlate::build(&ctx, &actions, cb.config().dim_bits);
            let seq = cb.scores(&ctx, &actions);
            let bat = cb.scores_slate(&slate);
            prop_assert_eq!(seq.len(), bat.len());
            for (s, b) in seq.iter().zip(&bat) {
                prop_assert_eq!(s.to_bits(), b.to_bits(), "scores must be bit-identical");
            }
            // And the full decisions (choice, propensity, scores) agree
            // under both policies.
            for uniform in [false, true] {
                let d_seq = cb.decide(seq.clone(), seed, uniform);
                let d_bat = cb.decide(bat.clone(), seed, uniform);
                prop_assert_eq!(d_seq, d_bat);
            }
        }
    }

    #[test]
    fn model_scores_slate_through_the_table() {
        let ctx = fv(&[("c", 2.0)]);
        let actions = vec![fv(&[("x", 1.0)]), fv(&[("y", 3.0)])];
        let mut model = LinearModel::new(12);
        model.update(&ContextualBandit::joint(&ctx, &actions[0]), 1.0, 1.0, 0.5);
        let slate = SparseSlate::build(&ctx, &actions, 12);
        let batched = model.score_slate(&slate);
        for (i, action) in actions.iter().enumerate() {
            let s = model.score(&ContextualBandit::joint(&ctx, action));
            assert_eq!(s.to_bits(), batched[i].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dim_bits")]
    fn model_rejects_mismatched_slate_fold() {
        let model = LinearModel::new(12);
        let slate = SparseSlate::build(&fv(&[("c", 1.0)]), &[fv(&[("a", 1.0)])], 14);
        let _ = model.score_slate(&slate);
    }
}
