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
//! over flat arrays and scoring the slate touches no allocator at all.
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
//! a pipeline job share one slate. Learning reads it too: an action's CSR
//! row *is* its joint vector, pre-folded, so a reward updates the model from
//! the chosen row (`LinearModel::update_row`) with the same bits as an
//! update over the re-crossed joint vector.
//!
//! A row is stored in two segments. A context that ends with a
//! template-stable block (the span block) crosses every action with that
//! block identically for every job of the template, so those crosses live
//! in a [`SlateTail`] built once per table size and shared behind an
//! `Arc`; each slate owns only the action main effects and the crosses
//! with the job's own features. Readers walk the own segment and then the
//! tail, continuing one left-to-right sum.

use crate::bandit::QUADRATIC_SCALE;
use crate::features::FeatureVector;
use scope_ir::ids::combine;
use std::sync::Arc;

/// Rows of (slot, value) items in CSR form.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    /// `indptr[i]..indptr[i+1]` is row `i`'s slice of `slots`/`values`.
    indptr: Vec<usize>,
    /// Model-table indices (`key & (2^dim_bits − 1)`; fits u32 for every
    /// legal `dim_bits`).
    slots: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    fn with_capacity(rows: usize, nnz: usize) -> Self {
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        Self {
            indptr,
            slots: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Append `action`'s crosses with every `context` item, context-major,
    /// keys folded by `mask`.
    fn push_crosses(&mut self, context: &[(u64, f64)], action: &[(u64, f64)], mask: u64) {
        for &(ck, cv) in context {
            for &(ak, av) in action {
                self.slots.push((combine(ck, ak) & mask) as u32);
                self.values.push(cv * av * QUADRATIC_SCALE);
            }
        }
    }

    fn end_row(&mut self) {
        self.indptr.push(self.slots.len());
    }

    fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.slots[lo..hi], &self.values[lo..hi])
    }
}

/// Every action's crosses with a template-stable context block, folded
/// into a `2^dim_bits` table, in the order [`SparseSlate`] rows continue
/// with them. Folded, not kept at full width and masked on read: the mask
/// sits in the load chain of every weight gather and cost the scoring loop
/// about 10 % in a micro-benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SlateTail {
    dim_bits: u32,
    rows: Csr,
}

impl SlateTail {
    /// The crosses of each of `actions` with every `block` item,
    /// block-major, as [`SparseSlate::build`] lays them out.
    #[must_use]
    pub fn build(block: &FeatureVector, actions: &[FeatureVector], dim_bits: u32) -> Self {
        let mask = (1u64 << dim_bits) - 1;
        let nnz = actions.iter().map(|a| a.len() * block.len()).sum();
        let mut rows = Csr::with_capacity(actions.len(), nnz);
        for action in actions {
            rows.push_crosses(block.items(), action.items(), mask);
            rows.end_row();
        }
        Self { dim_bits, rows }
    }

    /// Table size (bits) the slots were folded for.
    #[must_use]
    pub fn dim_bits(&self) -> u32 {
        self.dim_bits
    }

    /// Total (slot, value) pairs across all actions.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rows.slots.len()
    }
}

/// The joint features of a whole action slate in CSR form, pre-folded into
/// a `2^dim_bits` model table.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSlate {
    /// Each action's own segment: its main effects, then its crosses with
    /// the job's features.
    own: Csr,
    /// Each action's crosses with the template-stable block, shared; its
    /// `dim_bits` is the slate's.
    tail: Arc<SlateTail>,
}

impl SparseSlate {
    /// Lay out the joint features of `actions` under `context`, folded for a
    /// `2^dim_bits` weight table. Item order per action is exactly
    /// [`ContextualBandit::joint`](crate::ContextualBandit::joint)'s: the
    /// action's own features, then context×action crosses in context-major
    /// order. The whole row is owned: the tail is empty.
    #[must_use]
    pub fn build(context: &FeatureVector, actions: &[FeatureVector], dim_bits: u32) -> Self {
        let tail = Arc::new(SlateTail::build(&FeatureVector::new(), actions, dim_bits));
        Self::split(context, actions, tail)
    }

    /// The slate of `actions` under the context `job ⧺ block`, where `tail`
    /// is [`SlateTail::build`]`(block, actions, dim_bits)`: row for row the
    /// items of `build(job ⧺ block, actions, dim_bits)`, of which this
    /// slate owns only the main effects and the crosses with `job`.
    ///
    /// # Panics
    /// Panics if `tail` crosses a different number of actions.
    #[must_use]
    pub fn split(job: &FeatureVector, actions: &[FeatureVector], tail: Arc<SlateTail>) -> Self {
        assert_eq!(
            tail.rows.rows(),
            actions.len(),
            "tail crosses a different action slate"
        );
        let mask = (1u64 << tail.dim_bits) - 1;
        let nnz = actions.iter().map(|a| a.len() * (1 + job.len())).sum();
        let mut own = Csr::with_capacity(actions.len(), nnz);
        for action in actions {
            for &(ak, av) in action.items() {
                own.slots.push((ak & mask) as u32);
                own.values.push(av);
            }
            own.push_crosses(job.items(), action.items(), mask);
            own.end_row();
        }
        Self { own, tail }
    }

    /// Table size (bits) the slots were folded for.
    #[must_use]
    pub fn dim_bits(&self) -> u32 {
        self.tail.dim_bits
    }

    /// Number of actions laid out.
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.own.rows()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_actions() == 0
    }

    /// Total (slot, value) pairs across all actions, tail included.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.own.slots.len() + self.tail.nnz()
    }

    /// The (slot, value) pairs this slate owns: its rows minus the tail.
    #[must_use]
    pub fn own_nnz(&self) -> usize {
        self.own.slots.len()
    }

    /// The shared tail this slate's rows continue with.
    #[must_use]
    pub fn tail(&self) -> &Arc<SlateTail> {
        &self.tail
    }

    /// Action `i`'s own segment and then its tail segment: (table slots,
    /// values) each, in row order.
    pub(crate) fn segments(&self, i: usize) -> [(&[u32], &[f64]); 2] {
        [self.own.row(i), self.tail.rows.row(i)]
    }

    /// Action `i`'s whole row, in joint-feature order: (table slot, value).
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        let [own, tail] = self.segments(i);
        items(own).chain(items(tail))
    }
}

/// A segment's (table slot, value) items.
fn items<'a>(
    (slots, values): (&'a [u32], &'a [f64]),
) -> impl Iterator<Item = (usize, f64)> + Clone + 'a {
    slots.iter().zip(values).map(|(&s, &v)| (s as usize, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{CbConfig, ContextualBandit};
    use crate::model::LinearModel;
    use crate::service::{Personalizer, PersonalizerState, RankInput, RankRequest};
    use proptest::prelude::*;
    use std::sync::Arc;

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
            let row: Vec<(usize, f64)> = slate.row(i).collect();
            assert_eq!(row.len(), joint.len());
            for (j, (&(k, v), &(s, w))) in joint.items().iter().zip(&row).enumerate() {
                assert_eq!(s as u64, k & mask, "slot {j} of action {i}");
                assert!(w.to_bits() == v.to_bits(), "value {j} of action {i}");
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

    proptest! {
        /// Learning from the CSR row is learning from the joint vector:
        /// the same rewards applied through `rank_shared` (row updates) and
        /// through `rank` (joint updates) leave bit-identical weights. A
        /// 2^8 table makes crossed slots collide, and `arb_fv` repeats
        /// feature names, so repeated slots within one row are exercised.
        #[test]
        fn row_rewards_bit_equal_joint_rewards(
            ctx in arb_fv(6),
            actions in prop::collection::vec(arb_fv(5), 1..6),
            rewards in prop::collection::vec((0u64..1000, -2.0f64..2.0), 1..12),
        ) {
            let config = CbConfig { dim_bits: 8, ..CbConfig::default() };
            let joint = Personalizer::new(config.clone());
            let row = Personalizer::new(config.clone());
            let input = Arc::new(RankInput {
                context: ctx.clone(),
                actions: Arc::new(actions.clone()),
                sparse: Some(Arc::new(SparseSlate::build(&ctx, &actions, config.dim_bits))),
            });
            for (i, &(seed, reward)) in rewards.iter().enumerate() {
                let log_uniform = i % 2 == 0;
                let a = joint.rank(&RankRequest {
                    context: ctx.clone(),
                    actions: actions.clone(),
                    seed,
                    log_uniform,
                });
                let b = row.rank_shared(&input, &row.scores(&input), seed, log_uniform);
                prop_assert_eq!(&a.decision, &b.decision);
                joint.reward(a.event_id, reward);
                row.reward(b.event_id, reward);
            }
            let (x, y) = (joint.export_state(), row.export_state());
            let bits = |s: &PersonalizerState| -> Vec<(u32, u64)> {
                s.weights.iter().map(|&(k, w)| (k, w.to_bits())).collect()
            };
            prop_assert_eq!(bits(&x), bits(&y));
            prop_assert_eq!((x.updates, x.events), (y.updates, y.events));
        }
    }

    proptest! {
        /// A slate split into the job's own segment and a shared tail
        /// scores and learns bit for bit like the flat slate of the whole
        /// context `job ⧺ block` — with an empty job block, an empty span
        /// block, and repeated keys (`arb_fv` repeats names), in a table
        /// small enough for crossed slots to collide and in a large one.
        #[test]
        fn split_slate_bit_equals_flat_slate(
            job in arb_fv(5),
            block in arb_fv(8),
            actions in prop::collection::vec(arb_fv(4), 1..6),
            rewards in prop::collection::vec((0usize..8, -2.0f64..2.0), 1..10),
        ) {
            for (job, block) in [
                (job.clone(), block.clone()),
                (FeatureVector::new(), block.clone()),
                (job.clone(), FeatureVector::new()),
            ] {
                let mut context = job.clone();
                context.extend_from(&block);
                for dim_bits in [8, 20] {
                    let flat = SparseSlate::build(&context, &actions, dim_bits);
                    let tail = Arc::new(SlateTail::build(&block, &actions, dim_bits));
                    let split = SparseSlate::split(&job, &actions, tail);
                    prop_assert_eq!(split.nnz(), flat.nnz());
                    prop_assert_eq!(
                        split.own_nnz(),
                        actions.iter().map(|a| a.len() * (1 + job.len())).sum::<usize>()
                    );
                    let (mut a, mut b) = (LinearModel::new(dim_bits), LinearModel::new(dim_bits));
                    for &(i, reward) in &rewards {
                        let bits = |m: &LinearModel, s: &SparseSlate| -> Vec<u64> {
                            m.score_slate(s).iter().map(|x| x.to_bits()).collect()
                        };
                        prop_assert_eq!(bits(&a, &flat), bits(&b, &split));
                        let i = i % actions.len();
                        a.update_row(&flat, i, reward, 2.0, 0.5);
                        b.update_row(&split, i, reward, 2.0, 0.5);
                    }
                    let weights = |m: &LinearModel| -> Vec<(u32, u64)> {
                        m.sparse_weights().iter().map(|&(k, w)| (k, w.to_bits())).collect()
                    };
                    prop_assert_eq!(weights(&a), weights(&b));
                }
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
