//! Linear scorer over hashed features, trained by importance-weighted
//! regression (the IWR reduction used by VW's contextual bandit modes).

use crate::features::FeatureVector;
use crate::slate::SparseSlate;

/// Slots per page of the weight table, as a shift. Four slots hold the
/// fewest zeros beside each written slot; 8- and 16-slot pages shrink the
/// index but measured no faster in the day loop, where every page size
/// pays one more dependent load per item than a dense table did.
const PAGE_BITS: u32 = 2;
const PAGE: usize = 1 << PAGE_BITS;

/// A linear model over a hashed weight table of `2^dim_bits` entries,
/// trained by normalized SGD: every update moves the *prediction* by
/// `lr · importance · error` regardless of feature scale, distributing the
/// correction across features proportionally to their squared values. This
/// is why the featurization weights interaction features below main-effect
/// features — the distribution of the correction follows `value²`.
///
/// The table is paged so that it holds only what the bandit learned: slot
/// `s` lives at `pool[pages[s >> PAGE_BITS] + (s & (PAGE - 1))]`. Every
/// page starts at offset 0, the shared all-zero page at `pool[..PAGE]`,
/// which is never written; the first write to a page appends a zeroed page
/// to `pool` and points the page's entry at it. A read is two loads with no
/// branch and no hash, and it yields exactly the value the dense table
/// held, so every score, update and export is bit-identical to one.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// One entry per `PAGE` slots: that page's offset in `pool`.
    pages: Vec<u32>,
    /// The zero page, then every written page in first-write order.
    pool: Vec<f64>,
    dim_bits: u32,
    /// Total updates absorbed (diagnostics).
    pub updates: u64,
}

impl LinearModel {
    /// A zero model. Its page index is one lazily zeroed allocation (1 MiB
    /// at `dim_bits` 20); no weight page exists until one is written.
    #[must_use]
    pub fn new(dim_bits: u32) -> Self {
        assert!(
            (8..=26).contains(&dim_bits),
            "dim_bits {dim_bits} out of range"
        );
        Self {
            pages: vec![0; 1 << (dim_bits - PAGE_BITS)],
            pool: vec![0.0; PAGE],
            dim_bits,
            updates: 0,
        }
    }

    /// The table in snapshot form: `(slot, value)` for every slot whose
    /// **bit pattern** is not `+0.0`, ascending — one walk over the written
    /// pages in slot order, no dense copy.
    /// Comparing bits (not `!= 0.0`) keeps `-0.0`, NaNs and subnormals, so
    /// [`LinearModel::from_sparse`] rebuilds the table bit for bit.
    #[must_use]
    pub fn sparse_weights(&self) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        for (page, &at) in self.pages.iter().enumerate() {
            if at == 0 {
                continue;
            }
            let at = at as usize;
            for (i, &w) in self.pool[at..at + PAGE].iter().enumerate() {
                if w.to_bits() != 0 {
                    out.push(((page * PAGE + i) as u32, w));
                }
            }
        }
        out
    }

    /// The hashed-table size exponent this model was built with.
    #[must_use]
    pub fn dim_bits(&self) -> u32 {
        self.dim_bits
    }

    /// Is `sparse` the canonical [`LinearModel::sparse_weights`] form of a
    /// `2^dim_bits` table: `dim_bits` in range, slots strictly ascending
    /// and inside the table, no stored `+0.0`? One encoding per table is
    /// what makes export → restore → export a byte fixpoint; the snapshot
    /// decoder and [`LinearModel::from_sparse`] both check it here.
    pub fn check_sparse(dim_bits: u32, sparse: &[(u32, f64)]) -> Result<(), String> {
        if !(8..=26).contains(&dim_bits) {
            return Err(format!("dim_bits {dim_bits} out of range 8..=26"));
        }
        let mut prev = None;
        for &(slot, w) in sparse {
            if prev.is_some_and(|p| slot <= p) {
                return Err(format!("weight slot {slot} repeated or out of order"));
            }
            if slot >> dim_bits != 0 {
                return Err(format!("weight slot {slot} outside the 2^{dim_bits} table"));
            }
            if w.to_bits() == 0 {
                return Err(format!("weight slot {slot} stores +0.0 (absent is zero)"));
            }
            prev = Some(slot);
        }
        Ok(())
    }

    /// Rebuild a model from its snapshot form: a zero model, then one write
    /// per listed slot, so it holds only the pages `sparse` touches. Errors
    /// (instead of panicking like [`LinearModel::new`]) on anything
    /// [`LinearModel::check_sparse`] rejects — restore paths must fail
    /// typed, never panic.
    pub fn from_sparse(dim_bits: u32, sparse: &[(u32, f64)], updates: u64) -> Result<Self, String> {
        Self::check_sparse(dim_bits, sparse)?;
        let mut model = Self::new(dim_bits);
        let live = sparse.chunk_by(|a, b| a.0 >> PAGE_BITS == b.0 >> PAGE_BITS);
        model.pool.reserve_exact(live.count() * PAGE);
        for &(slot, w) in sparse {
            *model.weight_mut(slot as usize) = w;
        }
        model.updates = updates;
        Ok(model)
    }

    /// Slot `s`'s weight: its page's entry, or the shared zero page.
    #[inline]
    fn weight(&self, s: usize) -> f64 {
        self.pool[self.pages[s >> PAGE_BITS] as usize + (s & (PAGE - 1))]
    }

    /// Slot `s`'s weight for writing; the first write to a page gives it
    /// its own zeroed page at the end of the pool.
    #[inline]
    fn weight_mut(&mut self, s: usize) -> &mut f64 {
        let at = &mut self.pages[s >> PAGE_BITS];
        if *at == 0 {
            // At most 2^26 slots plus the zero page: the offset fits a u32.
            *at = self.pool.len() as u32;
            self.pool.extend([0.0; PAGE]);
        }
        &mut self.pool[*at as usize + (s & (PAGE - 1))]
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key & ((1u64 << self.dim_bits) - 1)) as usize
    }

    /// Predicted reward of a (context × action) feature vector.
    ///
    /// Items accumulate left-to-right; duplicate keys (see
    /// [`FeatureVector::push`]) contribute one term each, in their positions
    /// — the batched [`LinearModel::score_slate`] path folds them the same
    /// way, which is what keeps the two bit-identical.
    #[must_use]
    pub fn score(&self, fv: &FeatureVector) -> f64 {
        fv.items()
            .iter()
            .map(|&(k, v)| self.weight(self.slot(k)) * v)
            .sum()
    }

    /// Predicted reward of every action in a prebuilt [`SparseSlate`]: a
    /// gather-multiply over the slate's flat arrays, one pass for the whole
    /// slate. The slate's pre-folded slots must match this model's table
    /// (same `dim_bits`), and each action's items accumulate in the same
    /// left-to-right order as [`LinearModel::score`] over the sequential
    /// joint vector — the own segment, then the shared tail continuing the
    /// same sum — so the scores are bit-identical to the per-action path.
    #[must_use]
    pub fn score_slate(&self, slate: &SparseSlate) -> Vec<f64> {
        self.assert_fold(slate);
        (0..slate.num_actions())
            .map(|i| {
                let [own, tail] = slate.segments(i);
                self.dot(self.dot(sum_start(), own), tail)
            })
            .collect()
    }

    /// `sum` plus every `weight · value` of a slate segment, left to right.
    #[inline]
    fn dot(&self, sum: f64, (slots, values): (&[u32], &[f64])) -> f64 {
        slots
            .iter()
            .zip(values)
            .fold(sum, |sum, (&s, &v)| sum + self.weight(s as usize) * v)
    }

    fn assert_fold(&self, slate: &SparseSlate) {
        assert_eq!(
            slate.dim_bits(),
            self.dim_bits,
            "slate folded for a different dim_bits than this model's table"
        );
    }

    /// One normalized-SGD step of squared loss `(w·x − reward)²`, scaled by
    /// `importance` (the inverse-propensity weight, pre-capped by the
    /// caller) and `lr`. The effective step in prediction space is clamped
    /// to keep rare huge importance weights from destabilizing the model.
    pub fn update(&mut self, fv: &FeatureVector, reward: f64, importance: f64, lr: f64) {
        let mask = (1u64 << self.dim_bits) - 1;
        let items = fv.items().iter().map(|&(k, v)| ((k & mask) as usize, v));
        self.step(items, reward, importance, lr);
    }

    /// [`LinearModel::update`] from action `row` of a prebuilt
    /// [`SparseSlate`]: the row is that action's joint vector, already
    /// folded into this table and in the same item order, so the weights
    /// move bit for bit as `update` over the joint vector moves them —
    /// duplicate and colliding slots included.
    pub fn update_row(
        &mut self,
        slate: &SparseSlate,
        row: usize,
        reward: f64,
        importance: f64,
        lr: f64,
    ) {
        self.assert_fold(slate);
        self.step(slate.row(row), reward, importance, lr);
    }

    /// The one body of both updates: norm, score and apply each walk
    /// `items` (table slot, value) in order, so the f64 sums and the writes
    /// to a repeated slot happen in the same sequence whichever form the
    /// features came in.
    fn step<I>(&mut self, items: I, reward: f64, importance: f64, lr: f64)
    where
        I: Iterator<Item = (usize, f64)> + Clone,
    {
        // Norm and score in one walk: two independent left-to-right sums.
        let (norm, score) = items
            .clone()
            .fold((sum_start(), sum_start()), |(norm, score), (s, v)| {
                (norm + v * v, score + self.weight(s) * v)
            });
        let norm = norm.max(1e-12);
        let err = reward - score;
        self.updates += 1;
        // A NaN error (a restored NaN weight, an overflowing score) has no
        // step to take, and its clamp bounds would be NaN.
        if err.is_nan() {
            return;
        }
        let step = (lr * importance * err).clamp(-2.0 * err.abs(), 2.0 * err.abs()) / norm;
        items.for_each(|(slot, v)| *self.weight_mut(slot) += step * v);
    }
}

/// The value std's `f64` `Sum` starts from, so a hand-written fold adds
/// exactly like `.sum()` does, signed zeros included.
#[inline]
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

#[cfg(test)]
impl LinearModel {
    /// Bytes the table holds: the page index and the pool, at capacity.
    fn table_bytes(&self) -> usize {
        self.pages.capacity() * size_of::<u32>() + self.pool.capacity() * size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(pairs: &[(&str, f64)]) -> FeatureVector {
        let mut f = FeatureVector::new();
        for (name, v) in pairs {
            f.push("t", name, *v);
        }
        f
    }

    #[test]
    fn fresh_model_scores_zero() {
        let m = LinearModel::new(12);
        assert_eq!(m.score(&fv(&[("a", 1.0), ("b", 2.0)])), 0.0);
    }

    #[test]
    fn update_moves_score_toward_reward() {
        let mut m = LinearModel::new(12);
        let x = fv(&[("a", 1.0), ("b", 1.0)]);
        for _ in 0..50 {
            m.update(&x, 1.0, 1.0, 0.5);
        }
        assert!((m.score(&x) - 1.0).abs() < 0.01, "score {}", m.score(&x));
    }

    #[test]
    fn disjoint_features_learn_independently() {
        let mut m = LinearModel::new(16);
        let a = fv(&[("alpha", 1.0)]);
        let b = fv(&[("beta", 1.0)]);
        for _ in 0..60 {
            m.update(&a, 1.0, 1.0, 0.5);
            m.update(&b, -1.0, 1.0, 0.5);
        }
        assert!(m.score(&a) > 0.8);
        assert!(m.score(&b) < -0.8);
    }

    #[test]
    fn importance_scales_the_step() {
        let x = fv(&[("a", 1.0)]);
        let mut low = LinearModel::new(12);
        let mut high = LinearModel::new(12);
        low.update(&x, 1.0, 0.5, 0.1);
        high.update(&x, 1.0, 2.0, 0.1);
        assert!(high.score(&x) > low.score(&x));
    }

    #[test]
    fn learning_is_scale_robust() {
        // Huge feature values must not blow up the weights (normalized SGD).
        let mut m = LinearModel::new(12);
        let x = fv(&[("big", 1e9)]);
        for _ in 0..20 {
            m.update(&x, 1.0, 1.0, 0.5);
        }
        assert!(m.score(&x).is_finite());
        assert!((m.score(&x) - 1.0).abs() < 0.05);
    }

    #[test]
    fn huge_importance_weights_cannot_overshoot() {
        let x = fv(&[("a", 1.0)]);
        let mut m = LinearModel::new(12);
        m.update(&x, 1.0, 1000.0, 1.0);
        // Step clamp: prediction moves at most 2x the error.
        assert!(m.score(&x) <= 2.0 + 1e-9, "score {}", m.score(&x));
        for _ in 0..10 {
            m.update(&x, 1.0, 1000.0, 1.0);
        }
        assert!((m.score(&x) - 1.0).abs() < 1.1, "bounded oscillation");
    }

    #[test]
    fn restored_table_holds_only_written_pages() {
        // 18,000 live slots is what a 20-bit bandit table holds after a
        // benchmark's worth of days; dense, the table alone is 8 MiB.
        // Fibonacci hashing spreads them about 58 slots apart, so nearly
        // every one gets a page of its own: the worst case for paging.
        let sparse: Vec<(u32, f64)> = (0..18_000u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as u32)
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .map(|s| (s, 1.0 + f64::from(s)))
            .collect();
        let m = LinearModel::from_sparse(20, &sparse, 0).unwrap();
        assert_eq!(sparse.len(), 18_000);
        assert!(m.table_bytes() <= 2 << 20, "{} bytes", m.table_bytes());
        assert_eq!(m.sparse_weights(), sparse);
    }

    /// A restored NaN weight makes the prediction error NaN: the update is
    /// counted and writes nothing, where the step's clamp used to panic.
    #[test]
    fn a_nan_error_counts_the_update_and_writes_nothing() {
        let mut m = LinearModel::from_sparse(12, &[(5, f64::NAN)], 0).unwrap();
        let before = m.sparse_weights();
        let x = FeatureVector::from_items(vec![(5, 1.0), (9, 2.0)]);
        m.update(&x, 1.0, 1.0, 0.5);
        assert_eq!(m.updates, 1);
        let bits = |w: &[(u32, f64)]| w.iter().map(|&(s, w)| (s, w.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&m.sparse_weights()), bits(&before));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_absurd_dims() {
        let _ = LinearModel::new(40);
    }
}
