// Every steered and default job executes here: typed errors instead of
// panics; tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Distributed execution simulator for the SCOPE-like engine.
//!
//! Executes [`scope_ir::PhysicalPlan`]s on a simulated cluster and returns
//! the runtime metrics QO-Advisor learns from: **latency**, **PNhours** (sum
//! of CPU and I/O time over all vertices, §2.1), **vertices**, **DataRead**,
//! **DataWritten**, and memory. Ground truth comes from the *actual* side of
//! the plan's dual statistics and the *actual* tuning knobs — the optimizer's
//! estimates are never consulted here. The hardware model is constant
//! (crate-private constants in `cluster`); clusters differ only in their
//! [`VarianceModel`].
//!
//! The cloud-variance model reproduces the paper's §5.1 findings by
//! construction rather than by curve fitting:
//!
//! * **latency** is a critical-path/max statistic: each stage waits for its
//!   slowest vertex (lognormal per-vertex noise plus occasional stragglers),
//!   so run-to-run variance is large and grows with parallelism;
//! * **PNhours** sums per-vertex CPU time (noise averages out across
//!   vertices) plus I/O time that is *deterministic given bytes moved* ("the
//!   variability of I/O time across A/A runs is bounded as data read and
//!   data written remain constant", §4.3), so it is far stabler.
//!
//! Execution is deterministic given `(plan, cluster, job_seed, run_seed)`,
//! which the [`Executor`] trait turns into an architecture: call sites are
//! generic over it, a bare [`Cluster`] executes directly, and
//! [`CachingExecutor`] memoizes stage graphs, keyed by the plan alone, in a
//! shared [`ExecutionCache`] — bit-identically, the execution-side mirror of
//! `scope_opt`'s compile-result cache.

pub mod cache;
pub mod cluster;
pub mod executor;
pub mod metrics;
pub mod stage;

pub use cache::{CachingExecutor, ExecCacheConfig, ExecStats, ExecutionCache};
pub use cluster::{Cluster, VarianceModel};
pub use executor::{execute, Executor};
pub use metrics::{rel_delta, ExecutionMetrics};
pub use stage::{StageGraph, StageWork};
