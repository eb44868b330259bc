// The steering loop returns typed errors instead of panicking; tests may
// unwrap freely. The rest of the determinism contract is the workspace
// `clippy.toml` and the `scope_ir::ids::Salt` type (ARCHITECTURE.md).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! **QO-Advisor**: a steered query optimizer pipeline — the Rust
//! reproduction of *"Deploying a Steered Query Optimizer in Production at
//! Microsoft"* (SIGMOD 2022).
//!
//! QO-Advisor externalizes the query planner: a daily offline pipeline mines
//! production telemetry to find, per recurring job template, **one rule
//! flip** (enable/disable a single optimizer rule relative to the default
//! configuration) that steers the engine toward a better plan — safely:
//!
//! 1. **Feature Generation** — job spans (which rules *can* change the plan)
//!    and Table-1 features from the denormalized view;
//! 2. **Recommendation** — a contextual bandit picks a flip per job; reward
//!    is the clipped estimated-cost ratio after recompilation;
//! 3. **Flighting** — one representative job per template A/B-tests the flip
//!    in pre-production under a strict budget;
//! 4. **Validation** — a linear model predicts the PNhours delta from the
//!    flight's DataRead/DataWritten deltas; only predicted wins below the
//!    −0.1 safety threshold survive;
//! 5. **Hint Generation** — accepted (template, flip) pairs publish to SIS
//!    and steer every future occurrence of the template.
//!
//! The closed loop around the pipeline is [`ProductionSim`]: it runs the
//! synthetic workload through `scope_workload::build_view`, measures hinted
//! jobs counterfactually, and feeds the view to [`QoAdvisor::run_day`].
//! Every compile in that loop — production view building, counterfactuals,
//! and all five pipeline stages — goes through one shared, cached
//! `scope_opt::Optimizer` (whose delta compiler prices the
//! recommendation/flighting treatment slates incrementally against each
//! plan's frozen base memo), and every *execution* — production runs,
//! counterfactual default runs, flighting's baseline/treatment pairs —
//! through `scope_runtime::Executor`s behind one shared
//! `scope_runtime::ExecutionCache`; [`DailyReport::compile_cache`],
//! [`DailyReport::exec_cache`], and [`DailyReport::delta_compile`]
//! attribute the traffic, and [`DailyReport::timings`] carries per-stage
//! wall clocks. Throughput knobs (worker threads, the two result caches,
//! delta compilation, the workload's literal-redraw policy) are catalogued
//! in the [`config`] module's knob table; see `ARCHITECTURE.md` at the
//! repo root for the crate map and the determinism contract, and
//! `PERFORMANCE.md` for the measured trajectory.
//!
//! # Quick start
//!
//! ```no_run
//! use qo_advisor::{PipelineConfig, ProductionSim};
//! use scope_workload::WorkloadConfig;
//!
//! let mut sim = ProductionSim::new(WorkloadConfig::default(), PipelineConfig::default());
//! // paper: 14 days of random flights
//! sim.bootstrap_validation_model(3, 16).expect("generated workloads compile");
//! let outcomes = sim.run(7).expect("generated workloads compile");
//! for day in &outcomes {
//!     println!(
//!         "day {}: {} hints published, {} jobs steered",
//!         day.report.day,
//!         day.report.hints_published,
//!         day.comparisons.len()
//!     );
//! }
//! ```

pub mod baselines;
pub mod config;
mod day;
pub mod features;
pub mod fleet;
mod meter;
pub mod monitoring;
pub mod pipeline;
pub mod simulation;
pub mod snapshot;
pub(crate) mod stages;
pub mod validation_model;

pub use baselines::{random_flip, Negi2021, Negi2021Outcome};
pub use config::{ParallelismConfig, PipelineConfig, RecommendStrategy};
pub use features::{
    action_slate, context_features, job_features, reward_from_costs, span_block, FeatureCache,
    FeatureCacheConfig, SpanFeatures,
};
pub use fleet::{
    disjoint_workloads, overlapping_workloads, Fleet, FleetConfig, FleetDayOutcome, FleetMetrics,
    StreamConfig, Tenant,
};
pub use meter::{CacheCounters, ExecCounters, StageCounters, StageTimings};
pub use monitoring::{MonitorConfig, RegressionMonitor};
pub use pipeline::{DailyReport, PipelineError, QoAdvisor, Recommendation, SharedCaches};
pub use scope_opt::{
    BudgetOutcome, CacheConfig, CacheStats, CompileBudget, DeltaConfig, DeltaStats,
};
pub use scope_runtime::{CachingExecutor, ExecCacheConfig, ExecStats, ExecutionCache, Executor};
pub use scope_state::{SnapshotError, SteeringSnapshot};
pub use scope_workload::ViewBuildError;
pub use simulation::{
    aggregate_impact, AggregateImpact, DayOutcome, HintedComparison, ProductionSim,
};
pub use snapshot::SnapshotPolicy;
pub use validation_model::{ValidationModel, ValidationSample};
