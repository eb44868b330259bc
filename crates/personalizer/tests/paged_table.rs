//! `LinearModel`'s paged weight table against a dense reference: random
//! sequences of scores, updates and snapshot round trips, over weights that
//! include `-0.0`, NaNs and subnormals, must agree with a plain
//! `2^dim_bits` `Vec<f64>` bit for bit.

use personalizer::{FeatureVector, LinearModel, SparseSlate};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A dense `2^dim_bits` table with the model's normalized-SGD step.
struct Dense {
    w: Vec<f64>,
    mask: u64,
}

impl Dense {
    fn score(&self, items: &[(u64, f64)]) -> f64 {
        items
            .iter()
            .map(|&(k, v)| self.w[(k & self.mask) as usize] * v)
            .sum()
    }

    fn update(&mut self, items: &[(u64, f64)], reward: f64, importance: f64, lr: f64) {
        let norm = items.iter().map(|&(_, v)| v * v).sum::<f64>().max(1e-12);
        let err = reward - self.score(items);
        if err.is_nan() {
            return;
        }
        let step = (lr * importance * err).clamp(-2.0 * err.abs(), 2.0 * err.abs()) / norm;
        for &(k, v) in items {
            self.w[(k & self.mask) as usize] += step * v;
        }
    }

    fn sparse(&self) -> Vec<(u32, f64)> {
        let live = self.w.iter().enumerate().filter(|(_, w)| w.to_bits() != 0);
        live.map(|(s, &w)| (s as u32, w)).collect()
    }
}

fn bits(sparse: &[(u32, f64)]) -> Vec<(u32, u64)> {
    sparse.iter().map(|&(s, w)| (s, w.to_bits())).collect()
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -2.0f64..2.0,
        1 => Just(-0.0),
        1 => Just(f64::NAN),
        1 => Just(f64::from_bits(0x7ff8_0000_0000_0abc)),
        1 => Just(f64::from_bits(1)),
        1 => Just(-f64::MIN_POSITIVE / 3.0),
    ]
}

fn value() -> impl Strategy<Value = f64> {
    prop_oneof![8 => -3.0f64..3.0, 1 => Just(-0.0), 1 => Just(f64::from_bits(1))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Keys are drawn from a small universe of slots (with random bits above
    /// the mask), so features collide with each other and with the restored
    /// weights. An update whose error is NaN writes nothing, in the dense
    /// table as in the paged one.
    #[test]
    fn paged_table_matches_dense_reference(
        dim_bits in prop_oneof![Just(8u32), Just(12), Just(20)],
        universe in prop::collection::vec(any::<u64>(), 1..32),
        restored in prop::collection::vec((any::<u64>(), weight()), 0..24),
        ops in prop::collection::vec(
            (0u8..5, prop::collection::vec((any::<u64>(), value()), 0..10),
             -2.0f64..2.0, 0.0f64..4.0, 0.01f64..1.0),
            1..40,
        ),
    ) {
        let mask = (1u64 << dim_bits) - 1;
        let key = |raw: u64| {
            let slot = universe[(raw % universe.len() as u64) as usize] & mask;
            (raw & !mask) | slot
        };
        let restored: BTreeMap<u32, f64> =
            restored.iter().map(|&(raw, w)| ((key(raw) & mask) as u32, w)).collect();
        let restored: Vec<(u32, f64)> =
            restored.into_iter().filter(|(_, w)| w.to_bits() != 0).collect();
        let mut model = LinearModel::from_sparse(dim_bits, &restored, 0).unwrap();
        let mut dense = Dense { w: vec![0.0; 1 << dim_bits], mask };
        for &(s, w) in &restored {
            dense.w[s as usize] = w;
        }
        for (op, raw, reward, importance, lr) in ops {
            let items: Vec<(u64, f64)> = raw.iter().map(|&(k, v)| (key(k), v)).collect();
            let fv = FeatureVector::from_items(items.clone());
            // A slate of up to three actions over the first two items as context.
            let (ctx, rest) = items.split_at(items.len().min(2));
            let actions: Vec<FeatureVector> =
                rest.chunks(3).map(|c| FeatureVector::from_items(c.to_vec())).collect();
            let ctx = FeatureVector::from_items(ctx.to_vec());
            let slate = SparseSlate::build(&ctx, &actions, dim_bits);
            let row = |i: usize| -> Vec<(u64, f64)> {
                slate.row(i).map(|(s, v)| (s as u64, v)).collect()
            };
            match op {
                0 => {
                    prop_assert_eq!(model.score(&fv).to_bits(), dense.score(&items).to_bits());
                }
                1 => {
                    model.update(&fv, reward, importance, lr);
                    dense.update(&items, reward, importance, lr);
                }
                2 => {
                    let got: Vec<u64> =
                        model.score_slate(&slate).iter().map(|s| s.to_bits()).collect();
                    let want: Vec<u64> = (0..slate.num_actions())
                        .map(|i| dense.score(&row(i)).to_bits())
                        .collect();
                    prop_assert_eq!(got, want);
                }
                3 if !slate.is_empty() => {
                    let i = (importance * 8.0) as usize % slate.num_actions();
                    model.update_row(&slate, i, reward, importance, lr);
                    dense.update(&row(i), reward, importance, lr);
                }
                4 => {
                    // Export, restore, export: the restored twin carries on.
                    let sparse = model.sparse_weights();
                    prop_assert_eq!(bits(&sparse), bits(&dense.sparse()));
                    model = LinearModel::from_sparse(dim_bits, &sparse, model.updates).unwrap();
                    prop_assert_eq!(bits(&model.sparse_weights()), bits(&sparse));
                }
                _ => {}
            }
        }
        prop_assert_eq!(bits(&model.sparse_weights()), bits(&dense.sparse()));
    }
}
