//! Dual statistics: the ground truth the simulator executes against, and the
//! catalog estimates the optimizer costs against.
//!
//! The paper's central operational difficulty is that "estimated query costs
//! do not necessarily lead to better plans due to inaccurate cost models"
//! (§1, §5.2). We reproduce that by carrying *both* values everywhere: every
//! dataset has a true row count (used by `scope-runtime` to derive bytes
//! read/written and CPU work) and an estimated row count (used by
//! `scope-opt`'s cost model). The two diverge through (a) stale catalog
//! cardinalities on base tables and (b) heuristic vs. true selectivities on
//! predicates.

use serde::Serialize;

/// A pair of (true, estimated) values for one statistic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DualStats {
    /// Ground truth, visible only to the execution simulator.
    pub actual: f64,
    /// Catalog/heuristic estimate, visible to the optimizer.
    pub estimated: f64,
}

impl DualStats {
    #[must_use]
    pub fn exact(v: f64) -> Self {
        Self {
            actual: v,
            estimated: v,
        }
    }

    #[must_use]
    pub fn new(actual: f64, estimated: f64) -> Self {
        Self { actual, estimated }
    }

    /// Relative estimation error `est/actual` (q-error direction preserved).
    #[must_use]
    pub fn q_ratio(&self) -> f64 {
        if self.actual <= 0.0 {
            return 1.0;
        }
        self.estimated / self.actual
    }

    #[must_use]
    pub fn scale(&self, true_factor: f64, est_factor: f64) -> Self {
        Self {
            actual: self.actual * true_factor,
            estimated: self.estimated * est_factor,
        }
    }
}

/// Per-node statistics attached to optimized plan nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeStats {
    /// Output rows (true and estimated).
    pub rows: DualStats,
    /// Average output row length in bytes.
    pub avg_row_len: f64,
    /// Number of distinct grouping values, when meaningful.
    pub distinct: DualStats,
}

impl NodeStats {
    #[must_use]
    pub fn new(rows: DualStats, avg_row_len: f64, distinct: DualStats) -> Self {
        Self {
            rows,
            avg_row_len,
            distinct,
        }
    }

    /// Stats for a base table with possibly stale catalog cardinality.
    #[must_use]
    pub fn table(actual_rows: f64, estimated_rows: f64, avg_row_len: f64) -> Self {
        let distinct = DualStats::new(
            (actual_rows / 10.0).max(1.0),
            (estimated_rows / 10.0).max(1.0),
        );
        Self {
            rows: DualStats::new(actual_rows, estimated_rows),
            avg_row_len,
            distinct,
        }
    }

    /// Total output bytes, ground truth.
    #[must_use]
    pub fn actual_bytes(&self) -> f64 {
        self.rows.actual * self.avg_row_len
    }

    /// Total output bytes as the optimizer estimates them.
    #[must_use]
    pub fn estimated_bytes(&self) -> f64 {
        self.rows.estimated * self.avg_row_len
    }

    /// Apply a filter with separate true/estimated selectivities.
    #[must_use]
    pub fn filter(&self, actual_sel: f64, estimated_sel: f64) -> Self {
        Self {
            rows: self
                .rows
                .scale(actual_sel.clamp(0.0, 1.0), estimated_sel.clamp(0.0, 1.0)),
            avg_row_len: self.avg_row_len,
            distinct: self.distinct.scale(
                actual_sel.sqrt().clamp(0.0, 1.0),
                estimated_sel.sqrt().clamp(0.0, 1.0),
            ),
        }
    }
}

impl Default for NodeStats {
    fn default() -> Self {
        Self {
            rows: DualStats::exact(0.0),
            avg_row_len: 1.0,
            distinct: DualStats::exact(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_ratio_measures_misestimation() {
        let d = DualStats::new(100.0, 1000.0);
        assert!((d.q_ratio() - 10.0).abs() < 1e-12);
        assert!((DualStats::exact(5.0).q_ratio() - 1.0).abs() < 1e-12);
        // Zero actual rows degrades gracefully.
        assert!((DualStats::new(0.0, 10.0).q_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn filter_scales_both_sides_independently() {
        let s = NodeStats::table(1000.0, 2000.0, 10.0);
        let f = s.filter(0.5, 0.1);
        assert!((f.rows.actual - 500.0).abs() < 1e-9);
        assert!((f.rows.estimated - 200.0).abs() < 1e-9);
        // Row length unchanged by filtering.
        assert!((f.avg_row_len - 10.0).abs() < 1e-12);
    }

    #[test]
    fn filter_clamps_selectivity() {
        let s = NodeStats::table(1000.0, 1000.0, 10.0);
        let f = s.filter(1.7, -0.5);
        assert!((f.rows.actual - 1000.0).abs() < 1e-9);
        assert!(f.rows.estimated.abs() < 1e-9);
    }

    #[test]
    fn bytes_track_rows_times_len() {
        let s = NodeStats::table(100.0, 50.0, 8.0);
        assert!((s.actual_bytes() - 800.0).abs() < 1e-9);
        assert!((s.estimated_bytes() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_shrinks_sublinearly_under_filter() {
        let s = NodeStats::table(10_000.0, 10_000.0, 8.0);
        let f = s.filter(0.25, 0.25);
        // sqrt(0.25) = 0.5 of the distinct values survive.
        assert!((f.distinct.actual - s.distinct.actual * 0.5).abs() < 1e-9);
    }
}
