// Generation and view building fail as typed errors, never a panic; tests
// may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Synthetic SCOPE workload generator.
//!
//! Produces populations of **recurring job templates** ("periodically
//! arriving template-scripts with different input cardinalities and filter
//! predicates, but same set of operators", paper §2.1) plus a stream of
//! ad-hoc one-off jobs, and materializes the **denormalized daily view**
//! (Table 1 features) that feeds the QO-Advisor pipeline.
//!
//! How literally "recurring" the recurring templates are is a knob:
//! [`LiteralPolicy`] controls whether an instance redraws its filter
//! literals (and the catalog snapshot it binds against) every run — the
//! default, and the hardest case for plan-identity caching — or keeps them
//! pinned so the same exact plan resubmits day after day, the regime the
//! paper's steering wins (and the compile-result cache's cross-day hits)
//! come from.
//!
//! [`build_view`] compiles and "executes" one day's jobs into [`ViewRow`]s.
//! It takes the [`scope_opt::Optimizer`] and is generic over
//! [`scope_runtime::Executor`], so the production compiles can share the
//! steering pipeline's compile cache and the production runs a
//! [`scope_runtime::ExecutionCache`]; a job whose
//! default-path compilation fails surfaces as a typed [`ViewBuildError`]
//! instead of a panic.
//!
//! Every draw is seeded from stable hashes, so a given [`WorkloadConfig`]
//! always generates the identical workload — experiments are reproducible
//! end to end.

pub mod generator;
pub mod naming;
pub mod template;
pub mod view;

pub use generator::{JobInstance, Workload, WorkloadConfig};
pub use naming::normalize_job_name;
pub use template::{LiteralPolicy, TemplateSpec, TemplateStats};
pub use view::{build_view, build_view_row, Table1Features, ViewBuildError, ViewRow};
