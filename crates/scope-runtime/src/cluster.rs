//! The simulated cluster: a constant hardware model and the cloud variance
//! model.
//!
//! The hardware model has no settings: every cluster the loop runs on
//! (production, pre-production, the deterministic test cluster) has the same
//! hardware and differs only in noise, so a plan's stage graph is a function
//! of the plan alone and one memoized graph serves them all.

/// Per-vertex IO bandwidth, bytes/sec (reads and exchange traffic).
pub(crate) const IO_BANDWIDTH: f64 = 1.0e8; // 100 MB/s
/// Per-vertex write bandwidth, bytes/sec.
pub(crate) const WRITE_BANDWIDTH: f64 = 8.0e7; // 80 MB/s
/// Per-vertex CPU throughput, work-units/sec.
pub(crate) const CPU_SPEED: f64 = 2.5e7; // 25M row-ops/s: PNhours is IO-heavy
/// Input bytes one scan vertex is responsible for (extent sizing).
pub(crate) const BYTES_PER_SCAN_TASK: f64 = 2.56e8; // 256 MB extents
/// Hard cap on stage parallelism.
pub(crate) const MAX_PARALLELISM: u32 = 256;
/// Concurrent containers allotted to one job ("tokens", §2.1). Stages wider
/// than this run in waves: `ceil(P / tokens)` rounds of vertices. This is
/// why vertex reductions translate into latency reductions — fewer vertices
/// means fewer scheduling waves for the same tokens.
pub(crate) const TOKENS_PER_JOB: u32 = 24;
/// Fixed scheduling/startup cost charged per vertex (PN seconds).
pub(crate) const VERTEX_OVERHEAD_SEC: f64 = 1.0;
/// Fixed per-stage startup latency (seconds).
pub(crate) const STAGE_STARTUP_SEC: f64 = 4.0;

/// Cloud variance model (paper §5.1). All noise is multiplicative and drawn
/// per (job, run) from deterministic seeds, so experiments are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceModel {
    /// Lognormal sigma of per-vertex *duration* noise (drives latency:
    /// stages wait for their slowest vertex).
    pub vertex_sigma: f64,
    /// Probability that a vertex straggles.
    pub straggler_prob: f64,
    /// Straggler slowdown range (uniform in [lo, hi]).
    pub straggler_slowdown: (f64, f64),
    /// Lognormal sigma of per-vertex *CPU time* noise (drives PNhours; it
    /// averages out across vertices).
    pub cpu_sigma: f64,
    /// Lognormal sigma of a whole-run environment multiplier applied to CPU
    /// time (cluster-wide interference; does not average out).
    pub run_cpu_sigma: f64,
    /// Lognormal sigma of a whole-run multiplier on I/O *time* (bandwidth
    /// interference). Bytes moved stay constant across A/A runs — only the
    /// time to move them varies, which is exactly the paper's "variability
    /// of I/O time across A/A runs is bounded" observation (§4.3).
    pub run_io_sigma: f64,
    /// Probability that a stage suffers a vertex retry wave, re-charging a
    /// fraction of its work to PNhours and its duration to latency.
    pub retry_prob: f64,
    /// Fraction of stage work re-executed on a retry wave.
    pub retry_fraction: f64,
}

impl Default for VarianceModel {
    fn default() -> Self {
        Self {
            vertex_sigma: 0.35,
            straggler_prob: 0.035,
            straggler_slowdown: (1.6, 3.2),
            cpu_sigma: 0.10,
            run_cpu_sigma: 0.025,
            run_io_sigma: 0.065,
            retry_prob: 0.05,
            retry_fraction: 0.35,
        }
    }
}

impl VarianceModel {
    /// A variance-free model (useful for deterministic tests).
    #[must_use]
    pub fn none() -> Self {
        Self {
            vertex_sigma: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: (1.0, 1.0),
            cpu_sigma: 0.0,
            run_cpu_sigma: 0.0,
            run_io_sigma: 0.0,
            retry_prob: 0.0,
            retry_fraction: 0.0,
        }
    }
}

/// A simulated cluster: the constant hardware model plus a variance model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cluster {
    pub variance: VarianceModel,
}

impl Cluster {
    /// Cluster with no run-to-run noise.
    #[must_use]
    pub fn deterministic() -> Self {
        Self {
            variance: VarianceModel::none(),
        }
    }

    /// The pre-production (flighting) environment: same hardware model but
    /// markedly noisier than production — smaller shared clusters, no
    /// workload isolation. Single flighting runs are therefore unreliable,
    /// which is the entire reason the validation model exists (§4.3).
    #[must_use]
    pub fn preproduction() -> Self {
        Self {
            variance: VarianceModel {
                vertex_sigma: 0.40,
                straggler_prob: 0.05,
                straggler_slowdown: (1.6, 3.5),
                cpu_sigma: 0.12,
                run_cpu_sigma: 0.06,
                run_io_sigma: 0.11,
                retry_prob: 0.09,
                retry_fraction: 0.45,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_variance_is_noise_free() {
        let v = VarianceModel::none();
        assert_eq!(v.vertex_sigma, 0.0);
        assert_eq!(v.straggler_prob, 0.0);
        assert_eq!(v.retry_prob, 0.0);
    }
}
