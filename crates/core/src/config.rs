//! Pipeline configuration.
//!
//! # Runtime knobs
//!
//! The `experiments` binary (`crates/bench/src/bin/experiments.rs`) is the
//! one command-line knob surface; nothing reads environment variables. Every
//! flag below except `--literals` is a *throughput or operational* switch
//! that never changes steering outputs (see `tests/determinism.rs`);
//! `--literals` changes the generated workload itself.
//!
//! | `experiments` flag   | Values                            | Effect |
//! |----------------------|-----------------------------------|--------|
//! | `--threads N`        | integer (`0` = all cores)         | Worker threads for the pipeline's compile-bound fan-outs ([`PipelineConfig::parallelism`]), which all run on the crate's one ordered parallel map (`stages::par_map`); unset or `1` = serial, inline on the caller's thread |
//! | `--cache V`          | `on`/`1`/`true`, `off`/`0`/`false`| Compile-result cache ([`PipelineConfig::cache`], on by default) shared across view building, span fixpoint, recommendation, flighting, and days |
//! | `--exec-cache V`     | `on`/`1`/`true`, `off`/`0`/`false`| Execution cache ([`PipelineConfig::exec_cache`], on by default) shared across production runs, counterfactual runs, flighting, and days — memoizes each physical plan's stage graph |
//! | `--delta-compile V`  | `on`/`1`/`true`, `off`/`0`/`false`| Delta treatment compilation ([`PipelineConfig::delta`], on by default): recommendation and flighting treatment slates are priced as incremental passes over a shared per-plan base memo instead of from-scratch compiles |
//! | `--feature-cache V`  | `on`/`1`/`true`, `off`/`0`/`false`| Span-feature cache ([`PipelineConfig::feature_cache`], on by default): the CB context's C(S,2)+C(S,3) span co-occurrence block and the action slate are built once per template and memoized keyed on `(template, span fingerprint)` instead of rebuilt per job-day |
//! | `--snapshot-every N` | integer N days (`0` = never, default) | Durable-state snapshot cadence ([`crate::snapshot::SnapshotPolicy`], installed with [`crate::simulation::ProductionSim::set_snapshot_policy`]): write the full steering state to `results/snapshots/<experiment>.qosnap` at every Nth day boundary; the write cost lands in `DailyReport.timings.snapshot_ns` |
//! | `--literals P`       | `fresh`, `sticky`, `sticky:N`, `mixed:F` | Literal-redraw policy ([`scope_workload::WorkloadConfig::literals`]) of recurring templates: fresh per run (default), pinned per N-day epoch (`sticky:0` = forever), or a sticky fraction `F` of templates |
//!
//! Fleet scale (tenant count, fleet-day workers) is set programmatically
//! through [`crate::fleet::FleetConfig`]; the `perf`
//! benchmark's `fleet_zipf` workload (`perfbench/`) is its measured driver.

use crate::features::FeatureCacheConfig;
use flighting::FlightBudget;
use personalizer::CbConfig;
use scope_opt::{CacheConfig, DeltaConfig};
use scope_runtime::ExecCacheConfig;
use serde::Serialize;

/// Reward clipping bound (§4.2): the bandit's reward is the cost ratio
/// `default / recompiled`, clipped at 2.0 as in the paper.
pub const REWARD_CLIP: f64 = 2.0;

/// Validation threshold on the predicted PNhours delta (§4.3): only flights
/// whose predicted delta is below −0.1 publish a hint, as in the paper.
pub const VALIDATION_THRESHOLD: f64 = -0.1;

/// How the Recommendation task chooses flips (Table 3 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RecommendStrategy {
    /// Contextual bandit (production QO-Advisor).
    ContextualBandit,
    /// Uniform-at-random flip from the span (the paper's baseline).
    UniformRandom,
}

/// Data-parallelism knob for the pipeline's compile-bound fan-outs (Feature
/// Generation span computation and Recommendation recompilation). The paper's
/// production pipeline runs these tasks over hundreds of thousands of jobs
/// per day; here they shard across threads.
///
/// Results are **bit-identical at any setting**: parallel stages only run
/// pure per-job compiles, and all bandit-state mutation happens in a
/// deterministic serial reduce afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ParallelismConfig {
    /// Worker threads for the parallel stages. `None` (default) keeps the
    /// original single-threaded execution; `Some(0)` uses every available
    /// core; `Some(n)` uses exactly `n` threads.
    pub threads: Option<usize>,
}

impl ParallelismConfig {
    /// The serial default.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: None }
    }

    /// Run fan-outs on `n` worker threads (`0` = all available cores).
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        Self { threads: Some(n) }
    }
}

/// Knobs of the daily pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub strategy: RecommendStrategy,
    /// Thread-parallelism of the per-day fan-out stages.
    pub parallelism: ParallelismConfig,
    /// Compile-result cache over the span / recommendation / validation
    /// recompiles (compilation is deterministic, so cached runs are
    /// byte-identical to uncached ones — the cache is purely a throughput
    /// knob, like `parallelism`).
    pub cache: CacheConfig,
    /// Execution cache (the stage-graph memo) under every simulated run of
    /// the closed loop (production view builds, counterfactual default runs,
    /// flighting baseline/treatment pairs). A stage graph depends on the plan
    /// alone, so — exactly like `cache` — this is a throughput knob that
    /// never changes steering outputs.
    pub exec_cache: ExecCacheConfig,
    /// Delta treatment compilation over the recommendation/flighting
    /// slates: each plan's default compilation is frozen as a shared
    /// `scope_opt::delta::BaseMemo` and rule-flip treatments are priced
    /// incrementally against it. Byte-identical to from-scratch compiles
    /// (asserted in `tests/delta_equivalence.rs` and
    /// `tests/determinism.rs`), so — like the compile and execution caches
    /// — a pure throughput knob.
    pub delta: DeltaConfig,
    /// Span-feature cache over the CB context's span co-occurrence block
    /// (built per template, memoized across jobs and days). Featurization
    /// is deterministic, so — like the other caches — a pure throughput
    /// knob that never changes steering outputs (`tests/determinism.rs`).
    pub feature_cache: FeatureCacheConfig,
    /// Contextual bandit hyper-parameters.
    pub cb: CbConfig,
    /// Flighting budget per daily batch: the advisor's flighting service
    /// is built from it.
    pub flight_budget: FlightBudget,
    /// Maximum span-fixpoint recompilation passes.
    pub span_max_iterations: usize,
    /// Prune recommendations whose recompiled estimated cost is not better
    /// than the default. Disabling this reproduces the §5.2 ablation where
    /// flighting drowns in orders-of-magnitude-worse plans.
    pub est_cost_gate: bool,
    /// Cap on flights per day (one representative job per template).
    pub max_flights_per_day: usize,
    /// Maximum span size used for third-order interaction features (keeps
    /// the feature count bounded on long-tail spans).
    pub max_span_for_triples: usize,
    /// §8 stateful mode: skip jobs whose template was already flighted on a
    /// previous day (it will be re-examined only if its plan changes, i.e.
    /// its template id changes). Off by default, as in the paper.
    pub skip_explored: bool,
    /// Include the job span (and its co-occurrence interactions) in the CB
    /// context. The paper found these features "critical to our success"
    /// (§6); disabling them is the span-features ablation.
    pub span_features: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            strategy: RecommendStrategy::ContextualBandit,
            parallelism: ParallelismConfig::serial(),
            cache: CacheConfig::default(),
            exec_cache: ExecCacheConfig::default(),
            delta: DeltaConfig::default(),
            feature_cache: FeatureCacheConfig::default(),
            cb: CbConfig::default(),
            flight_budget: FlightBudget::default(),
            span_max_iterations: 6,
            est_cost_gate: true,
            max_flights_per_day: 48,
            max_span_for_triples: 12,
            skip_explored: false,
            span_features: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = PipelineConfig::default();
        assert_eq!(c.strategy, RecommendStrategy::ContextualBandit);
        assert_eq!(VALIDATION_THRESHOLD, -0.1, "paper threshold is -0.1");
        assert_eq!(REWARD_CLIP, 2.0, "paper clips at 2.0");
        assert!(c.est_cost_gate, "cost gate on by default (§5.2)");
    }
}
