//! Runtime metrics logged by the SCOPE-like runtime (paper §2.1): job
//! latency, vertices count, PNhours, bytes read/written, and memory.

use serde::Serialize;

/// Metrics of one job execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct ExecutionMetrics {
    /// End-to-end job latency in seconds (critical path over stages).
    pub latency_sec: f64,
    /// Sum of CPU and I/O time over all vertices, in hours (§2.1).
    pub pn_hours: f64,
    /// Total number of vertices (tasks) executed.
    pub vertices: u64,
    /// Peak number of concurrently used containers.
    pub tokens: u64,
    /// Bytes read: base inputs plus exchange reads.
    pub data_read: f64,
    /// Bytes written: outputs plus exchange writes.
    pub data_written: f64,
    /// Peak per-vertex working set, bytes.
    pub max_memory: f64,
    /// Mean per-vertex working set, bytes.
    pub avg_memory: f64,
    /// CPU-seconds component of PNhours (diagnostic).
    pub cpu_sec: f64,
    /// IO-seconds component of PNhours (diagnostic).
    pub io_sec: f64,
}

impl ExecutionMetrics {
    /// The paper's delta convention: `new / old - 1` (negative = improved).
    #[must_use]
    pub fn pn_delta(&self, baseline: &ExecutionMetrics) -> f64 {
        rel_delta(self.pn_hours, baseline.pn_hours)
    }

    #[must_use]
    pub fn latency_delta(&self, baseline: &ExecutionMetrics) -> f64 {
        rel_delta(self.latency_sec, baseline.latency_sec)
    }

    #[must_use]
    pub fn vertices_delta(&self, baseline: &ExecutionMetrics) -> f64 {
        rel_delta(self.vertices as f64, baseline.vertices as f64)
    }

    #[must_use]
    pub fn data_read_delta(&self, baseline: &ExecutionMetrics) -> f64 {
        rel_delta(self.data_read, baseline.data_read)
    }

    #[must_use]
    pub fn data_written_delta(&self, baseline: &ExecutionMetrics) -> f64 {
        rel_delta(self.data_written, baseline.data_written)
    }
}

/// Relative delta `new/old - 1`, with a guard for degenerate baselines.
#[must_use]
pub fn rel_delta(new: f64, old: f64) -> f64 {
    if old.abs() < 1e-12 {
        return 0.0;
    }
    new / old - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_delta_sign_convention() {
        assert!(
            (rel_delta(75.0, 100.0) + 0.25).abs() < 1e-12,
            "-25% improvement"
        );
        assert!(
            (rel_delta(110.0, 100.0) - 0.10).abs() < 1e-12,
            "+10% regression"
        );
        assert_eq!(rel_delta(5.0, 0.0), 0.0, "degenerate baseline");
    }

    #[test]
    fn metric_deltas_delegate() {
        let base = ExecutionMetrics {
            pn_hours: 10.0,
            latency_sec: 100.0,
            vertices: 50,
            ..Default::default()
        };
        let new = ExecutionMetrics {
            pn_hours: 9.0,
            latency_sec: 120.0,
            vertices: 25,
            ..Default::default()
        };
        assert!((new.pn_delta(&base) + 0.1).abs() < 1e-12);
        assert!((new.latency_delta(&base) - 0.2).abs() < 1e-12);
        assert!((new.vertices_delta(&base) + 0.5).abs() < 1e-12);
    }
}
