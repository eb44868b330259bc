//! Shared cache-telemetry counters.
//!
//! One counter vocabulary for every result cache in the workspace: the
//! compile-result cache (`scope_opt::CompileCache`) and the execution cache
//! (`scope_runtime::ExecutionCache`) both report [`CacheStats`], so
//! per-stage attribution, deltas, and roll-ups compose the same way on both
//! sides of the pipeline.

/// Monotonic cache counters (snapshot semantics; see [`CacheStats::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter deltas relative to an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// Counter-wise sum, so per-stage deltas can be rolled up into totals (see
/// `qo_advisor`'s per-stage cache attribution in its daily report).
impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            inserts: self.inserts + rhs.inserts,
            evictions: self.evictions + rhs.evictions,
        }
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), std::ops::Add::add)
    }
}

/// Sub-bucket resolution bits per power-of-two octave. 8 sub-buckets per
/// octave bounds the relative quantile error at `1/8 = 12.5%` of the value —
/// plenty for p50/p95/p99 steering-latency reporting — while keeping the
/// whole histogram at 512 fixed buckets (4 KiB of counts).
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
const OCTAVES: usize = 64;
const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A fixed-bucket, log-spaced latency histogram.
///
/// Buckets are HDR-style: one octave per power of two of the recorded value,
/// each octave split into 8 linear sub-buckets, so relative
/// resolution is constant (≤ 12.5%) across the full `u64` range and no
/// configuration (min/max/bucket count) is needed up front. Two histograms
/// are mergeable bucket-wise ([`LatencyHistogram::merge`]), which is how the
/// fleet pipeline combines per-worker recordings without sharing a counter
/// cache line across workers.
///
/// Quantiles ([`LatencyHistogram::quantile`]) report the *upper bound* of the
/// bucket holding the requested rank — a conservative (never underestimating)
/// tail-latency figure.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

impl LatencyHistogram {
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    /// Bucket index for `value`: octave = position of the highest set bit,
    /// sub-bucket = the next [`SUB_BITS`] bits below it. Values below
    /// `2^SUB_BITS` land in the linear low range where each value has its
    /// own bucket.
    fn bucket_index(value: u64) -> usize {
        let bits = 64 - value.leading_zeros();
        if bits <= SUB_BITS + 1 {
            // 0..=2^(SUB_BITS+1)-1: exact, one value per bucket slot.
            return value as usize;
        }
        let octave = bits - SUB_BITS - 1;
        let sub = (value >> octave) as usize & (SUB_BUCKETS - 1);
        ((octave as usize + 1) << SUB_BITS) + sub
    }

    /// Inclusive upper bound of the values mapping to `index` (inverse of
    /// [`LatencyHistogram::bucket_index`]).
    fn bucket_upper(index: usize) -> u64 {
        if index < 2 * SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & (SUB_BUCKETS - 1)) as u128;
        // In u128: the top octave's last sub-bucket upper bound is 2^64 - 1,
        // which would overflow the shift in u64.
        let upper = ((SUB_BUCKETS as u128 + sub + 1) << octave) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded observation (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q * total)`
    /// (clamped to the exact observed max). Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_since_and_hit_rate() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            inserts: 1,
            evictions: 0,
        };
        let b = CacheStats {
            hits: 9,
            misses: 3,
            inserts: 2,
            evictions: 1,
        };
        let d = b.since(&a);
        assert_eq!(d.hits, 6);
        assert_eq!(d.lookups(), 8);
        assert!((d.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_exact_in_the_low_range() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.max(), 15);
        // One value per bucket below 2^(SUB_BITS+1): quantiles are exact.
        assert_eq!(h.quantile(1.0 / 16.0), 0);
        assert_eq!(h.p50(), 7);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        // The bucket upper bound never exceeds the true value by more than
        // 1/SUB_BUCKETS (12.5%) and never underestimates it.
        for &v in &[17u64, 100, 1_000, 123_456, 10_000_000, u64::MAX / 3] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let q = h.quantile(1.0);
            assert!(q >= v, "upper bound must not underestimate: {q} < {v}");
            let err = (q - v) as f64 / v as f64;
            assert!(err <= 0.125 + 1e-9, "relative error {err} too big for {v}");
        }
    }

    #[test]
    fn histogram_quantiles_rank_correctly() {
        let mut h = LatencyHistogram::new();
        // 99 cheap observations and one huge outlier.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 10);
        assert_eq!(h.p95(), 10);
        // Rank ceil(0.99*100) = 99 is still the cheap bucket; p100 is the
        // outlier, reported exactly via the max clamp.
        assert_eq!(h.p99(), 10);
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn histogram_merge_matches_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [3u64, 900, 64, 17, 250_000, 31, 8] {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.5), 0);
        let dbg = format!("{h:?}");
        assert!(dbg.contains("LatencyHistogram"), "{dbg}");
    }

    #[test]
    fn stats_add_and_sum_roll_up() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            inserts: 2,
            evictions: 0,
        };
        let b = CacheStats {
            hits: 4,
            misses: 1,
            inserts: 1,
            evictions: 1,
        };
        let s = a + b;
        assert_eq!(s.hits, 5);
        assert_eq!(s.lookups(), 8);
        let total: CacheStats = [a, b].into_iter().sum();
        assert_eq!(total, s);
    }
}
