//! Sparse feature vectors with the hashing trick.

use scope_ir::ids::{combine, stable_hash64, StableHasher};
use serde::Serialize;
use std::fmt::{self, Write as _};

/// A sparse feature vector: (hashed id, value) pairs. Feature identity is a
/// 64-bit hash of `namespace|name`; models fold it into their table size.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FeatureVector {
    items: Vec<(u64, f64)>,
}

impl FeatureVector {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn items(&self) -> &[(u64, f64)] {
        &self.items
    }

    /// Rebuild a vector from raw `(hashed id, value)` items — the
    /// snapshot-restore path (`scope-state`). Items are stored verbatim:
    /// order and duplicates matter to the scoring paths, so no
    /// normalization happens here.
    #[must_use]
    pub fn from_items(items: Vec<(u64, f64)>) -> Self {
        Self { items }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn key(namespace: &str, name: &str) -> u64 {
        combine(
            stable_hash64(namespace.as_bytes()),
            stable_hash64(name.as_bytes()),
        )
    }

    /// Add a named numeric feature.
    ///
    /// Duplicate keys are **kept as separate items**, not summed: pushing
    /// `("ns", "x", a)` then `("ns", "x", b)` yields two `(key, value)`
    /// pairs. A linear model scores them as `w·a + w·b` — mathematically the
    /// same as one item of value `a + b`, but *not* bit-identical under f64
    /// (`w*a + w*b ≠ w*(a+b)` in general), and gradient updates touch the
    /// slot once per item. Every scorer must therefore fold duplicates
    /// identically: both `LinearModel::score` and the batched
    /// `LinearModel::score_slate` walk items in push order, one term per
    /// item (VW resolves collisions the same way — last to hash wins
    /// nothing; all occurrences contribute).
    pub fn push(&mut self, namespace: &str, name: &str, value: f64) {
        self.items.push((Self::key(namespace, name), value));
    }

    /// Add an indicator feature (value 1.0).
    pub fn flag(&mut self, namespace: &str, name: &str) {
        self.push(namespace, name, 1.0);
    }

    /// [`FeatureVector::flag`] with the name given as format arguments: the
    /// name streams into its hash and is never built as a `String`, and the
    /// key equals `flag(namespace, &format!(..))`'s.
    pub fn flag_fmt(&mut self, namespace: &str, name: fmt::Arguments<'_>) {
        let mut hasher = StableHasher::new();
        // A hasher accepts every write; only a failing `Display` impl in
        // `name` could err, and the workspace has none.
        let _ = hasher.write_fmt(name);
        self.flag_hashed(namespace, hasher);
    }

    /// An indicator whose name has already been streamed into `name`.
    fn flag_hashed(&mut self, namespace: &str, name: StableHasher) {
        let key = combine(stable_hash64(namespace.as_bytes()), name.finish());
        self.items.push((key, 1.0));
    }

    /// Add a second-order co-occurrence indicator `a × b`.
    pub fn pair(&mut self, namespace: &str, a: &str, b: &str) {
        self.pair_weighted(namespace, a, b, 1.0);
    }

    /// Weighted second-order indicator: normalized SGD distributes updates
    /// by `value²`, so co-occurrence features are typically down-weighted
    /// relative to main effects.
    pub fn pair_weighted(&mut self, namespace: &str, a: &str, b: &str, value: f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.push(namespace, &format!("{lo}&{hi}"), value);
    }

    /// Add a third-order co-occurrence indicator `a × b × c`.
    pub fn triple(&mut self, namespace: &str, a: &str, b: &str, c: &str) {
        self.triple_weighted(namespace, a, b, c, 1.0);
    }

    /// Weighted third-order indicator (see [`FeatureVector::pair_weighted`]).
    pub fn triple_weighted(&mut self, namespace: &str, a: &str, b: &str, c: &str, value: f64) {
        let mut parts = [a, b, c];
        parts.sort_unstable();
        self.push(
            namespace,
            &format!("{}&{}&{}", parts[0], parts[1], parts[2]),
            value,
        );
    }

    /// A log-bucketed numeric feature: emits an indicator for the magnitude
    /// bucket of `value` (robust to the enormous dynamic ranges of costs and
    /// cardinalities).
    pub fn log_bucket(&mut self, namespace: &str, name: &str, value: f64) {
        let bucket = if value <= 0.0 {
            -1
        } else {
            value.log10().floor() as i64
        };
        // `{name}@e{bucket}`, streamed.
        let name = StableHasher::new().write(name.as_bytes()).write(b"@e");
        self.flag_hashed(namespace, write_decimal(name, bucket));
    }

    /// Concatenate another vector (e.g. context ⧺ action).
    pub fn extend_from(&mut self, other: &FeatureVector) {
        self.items.extend_from_slice(&other.items);
    }

    /// Cross every feature of `self` with every feature of `other` into a
    /// new vector (the VW `-q` quadratic namespace interaction). Values
    /// multiply.
    #[must_use]
    pub fn quadratic(&self, other: &FeatureVector) -> FeatureVector {
        self.quadratic_weighted(other, 1.0)
    }

    /// Quadratic interaction with an extra scale applied to every crossed
    /// value (down-weights the whole interaction block at once).
    #[must_use]
    pub fn quadratic_weighted(&self, other: &FeatureVector, scale: f64) -> FeatureVector {
        let mut out = FeatureVector::new();
        out.items.reserve(self.items.len() * other.items.len());
        for &(ka, va) in &self.items {
            for &(kb, vb) in &other.items {
                out.items.push((combine(ka, kb), va * vb * scale));
            }
        }
        out
    }
}

/// `hasher` fed the decimal spelling of `n`, as `write!(hasher, "{n}")`
/// would feed it, without the formatting machinery.
fn write_decimal(hasher: StableHasher, n: i64) -> StableHasher {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let hasher = if n < 0 { hasher.write(b"-") } else { hasher };
    hasher.write(&digits[at..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let mut a = FeatureVector::new();
        a.flag("ctx", "x");
        let mut b = FeatureVector::new();
        b.flag("ctx", "x");
        assert_eq!(a.items()[0].0, b.items()[0].0);
        let mut c = FeatureVector::new();
        c.flag("ctx", "y");
        assert_ne!(a.items()[0].0, c.items()[0].0);
        // Namespace participates in identity.
        let mut d = FeatureVector::new();
        d.flag("other", "x");
        assert_ne!(a.items()[0].0, d.items()[0].0);
    }

    #[test]
    fn pair_is_order_invariant() {
        let mut a = FeatureVector::new();
        a.pair("s", "r1", "r2");
        let mut b = FeatureVector::new();
        b.pair("s", "r2", "r1");
        assert_eq!(a.items()[0].0, b.items()[0].0);
    }

    #[test]
    fn triple_is_order_invariant() {
        let mut a = FeatureVector::new();
        a.triple("s", "r1", "r2", "r3");
        let mut b = FeatureVector::new();
        b.triple("s", "r3", "r1", "r2");
        assert_eq!(a.items()[0].0, b.items()[0].0);
    }

    #[test]
    fn log_buckets_group_magnitudes() {
        let bucket_key = |v: f64| {
            let mut f = FeatureVector::new();
            f.log_bucket("n", "cost", v);
            f.items()[0].0
        };
        assert_eq!(bucket_key(150.0), bucket_key(900.0), "same decade");
        assert_ne!(bucket_key(150.0), bucket_key(1500.0), "different decade");
        // Non-positive values fall into a sentinel bucket.
        assert_eq!(bucket_key(0.0), bucket_key(-3.0));
    }

    #[test]
    fn streamed_names_key_like_their_formatted_strings() {
        let mut streamed = FeatureVector::new();
        let mut built = FeatureVector::new();
        streamed.flag_fmt("job", format_args!("qtpl:{:x}", 0xbeef_u64));
        built.flag("job", &format!("qtpl:{:x}", 0xbeef_u64));
        for value in [0.0, -3.0, 1e-300, 0.004, 1.0, 9.99, 10.0, 2.5e9, 1e300] {
            streamed.log_bucket("job", "est_cost", value);
            let bucket = if value <= 0.0 {
                -1
            } else {
                value.log10().floor() as i64
            };
            built.flag("job", &format!("est_cost@e{bucket}"));
        }
        assert_eq!(streamed, built);
        for n in [i64::MIN, -300, -10, -1, 0, 7, 10, 99, 100, i64::MAX] {
            let decimal = write_decimal(StableHasher::new(), n).finish();
            assert_eq!(decimal, stable_hash64(n.to_string().as_bytes()), "{n}");
        }
    }

    #[test]
    fn duplicate_keys_stay_separate_items() {
        let mut f = FeatureVector::new();
        f.push("ns", "x", 2.0);
        f.push("ns", "x", 3.0);
        assert_eq!(f.len(), 2, "duplicates are not summed");
        assert_eq!(f.items()[0].0, f.items()[1].0, "same hashed key");
        assert_eq!((f.items()[0].1, f.items()[1].1), (2.0, 3.0));
    }

    #[test]
    fn quadratic_crosses_all_pairs() {
        let mut a = FeatureVector::new();
        a.push("x", "f1", 2.0);
        a.push("x", "f2", 3.0);
        let mut b = FeatureVector::new();
        b.push("y", "g1", 5.0);
        let q = a.quadratic(&b);
        assert_eq!(q.len(), 2);
        let values: Vec<f64> = q.items().iter().map(|(_, v)| *v).collect();
        assert!(values.contains(&10.0) && values.contains(&15.0));
    }
}
