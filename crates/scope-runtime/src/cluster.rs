//! Cluster hardware model and the cloud variance model.

use scope_ir::ids::{combine, CLUSTER_CONFIG_EPOCH_SALT, CLUSTER_VARIANCE_EPOCH_SALT};
use serde::Serialize;

/// Hardware constants of the simulated cluster.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterConfig {
    /// Per-vertex IO bandwidth, bytes/sec (reads and exchange traffic).
    pub io_bandwidth: f64,
    /// Per-vertex write bandwidth, bytes/sec.
    pub write_bandwidth: f64,
    /// Per-vertex CPU throughput, work-units/sec.
    pub cpu_speed: f64,
    /// Input bytes one scan vertex is responsible for (extent sizing).
    pub bytes_per_scan_task: f64,
    /// Hard cap on stage parallelism.
    pub max_parallelism: u32,
    /// Concurrent containers allotted to one job ("tokens", §2.1). Stages
    /// wider than this run in waves: `ceil(P / tokens)` rounds of vertices.
    /// This is why vertex reductions translate into latency reductions —
    /// fewer vertices means fewer scheduling waves for the same tokens.
    pub tokens_per_job: u32,
    /// Fixed scheduling/startup cost charged per vertex (PN seconds).
    pub vertex_overhead_sec: f64,
    /// Fixed per-stage startup latency (seconds).
    pub stage_startup_sec: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            io_bandwidth: 1.0e8,         // 100 MB/s
            write_bandwidth: 8.0e7,      // 80 MB/s
            cpu_speed: 2.5e7,            // 25M row-ops/s: PNhours is IO-heavy
            bytes_per_scan_task: 2.56e8, // 256 MB extents
            max_parallelism: 256,
            tokens_per_job: 24,
            vertex_overhead_sec: 1.0,
            stage_startup_sec: 4.0,
        }
    }
}

/// Cloud variance model (paper §5.1). All noise is multiplicative and drawn
/// per (job, run) from deterministic seeds, so experiments are reproducible.
#[derive(Debug, Clone, Serialize)]
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

/// A simulated cluster: hardware constants plus variance model.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    pub config: ClusterConfig,
    pub variance: VarianceModel,
}

impl Cluster {
    #[must_use]
    pub fn new(config: ClusterConfig, variance: VarianceModel) -> Self {
        Self { config, variance }
    }

    /// Cluster with no run-to-run noise.
    #[must_use]
    pub fn deterministic() -> Self {
        Self {
            config: ClusterConfig::default(),
            variance: VarianceModel::none(),
        }
    }

    /// Stable fingerprint of the *hardware* constants only. Stage graphs
    /// depend on the plan and [`ClusterConfig`] but not on the variance
    /// model, so this is the epoch under which memoized stage graphs can be
    /// shared — e.g. between the production and pre-production clusters,
    /// which differ only in noise.
    #[must_use]
    pub fn config_epoch(&self) -> u64 {
        CLUSTER_CONFIG_EPOCH_SALT.fingerprint(&self.config).max(1)
    }

    /// Stable fingerprint of the full execution environment (hardware *and*
    /// variance model). Execution metrics depend on both, so this is the
    /// epoch in the execution-result cache key: reconfiguring a cluster
    /// yields a fresh epoch and implicitly invalidates its cached results.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        combine(
            self.config_epoch(),
            CLUSTER_VARIANCE_EPOCH_SALT.fingerprint(&self.variance),
        )
        .max(1)
    }

    /// The pre-production (flighting) environment: same hardware model but
    /// markedly noisier than production — smaller shared clusters, no
    /// workload isolation. Single flighting runs are therefore unreliable,
    /// which is the entire reason the validation model exists (§4.3).
    #[must_use]
    pub fn preproduction() -> Self {
        Self {
            config: ClusterConfig::default(),
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
    fn default_config_is_sane() {
        let c = ClusterConfig::default();
        assert!(c.io_bandwidth > 0.0 && c.cpu_speed > 0.0);
        assert!(c.max_parallelism >= 1);
    }

    #[test]
    fn epochs_distinguish_environments_but_share_hardware() {
        let prod = Cluster::default();
        let preprod = Cluster::preproduction();
        let quiet = Cluster::deterministic();
        // Same hardware model => stage graphs are shareable.
        assert_eq!(prod.config_epoch(), preprod.config_epoch());
        assert_eq!(prod.config_epoch(), quiet.config_epoch());
        // Different noise => execution results are not.
        assert_ne!(prod.epoch(), preprod.epoch());
        assert_ne!(prod.epoch(), quiet.epoch());
        // Epochs are stable across reconstructions.
        assert_eq!(prod.epoch(), Cluster::default().epoch());
        // A hardware change shifts both epochs.
        let mut fat = Cluster::default();
        fat.config.tokens_per_job *= 2;
        assert_ne!(fat.config_epoch(), prod.config_epoch());
        assert_ne!(fat.epoch(), prod.epoch());
    }

    /// Literal values recorded at the last commit that computed epochs by
    /// serializing (PR 23): they key the stage-graph memo and the
    /// execution-result cache, so a change here is a deliberate re-key. The
    /// oracle comparison holds in release too, where no `debug_assert` runs.
    #[test]
    fn epochs_keep_their_pinned_values() {
        let prod = Cluster::default();
        assert_eq!(prod.config_epoch(), 0x008b_2fb3_18b2_13ea);
        assert_eq!(prod.epoch(), 0x875e_63c3_1373_dbd6);
        assert_eq!(Cluster::deterministic().epoch(), 0xa363_544d_18ef_a5f3);
        assert_eq!(Cluster::preproduction().epoch(), 0xbb8e_ac17_905f_ab0e);
        assert_eq!(
            prod.config_epoch(),
            scope_ir::ids::hash_value(&prod.config.to_value(), CLUSTER_CONFIG_EPOCH_SALT.value())
        );
    }

    #[test]
    fn none_variance_is_noise_free() {
        let v = VarianceModel::none();
        assert_eq!(v.vertex_sigma, 0.0);
        assert_eq!(v.straggler_prob, 0.0);
        assert_eq!(v.retry_prob, 0.0);
    }
}
