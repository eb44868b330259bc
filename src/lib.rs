//! # qo-advisor-repro
//!
//! A from-scratch Rust reproduction of *"Deploying a Steered Query Optimizer
//! in Production at Microsoft"* (SIGMOD 2022): the **QO-Advisor** system and
//! every substrate it runs on.
//!
//! The workspace is organized bottom-up:
//!
//! | Crate | Role |
//! |---|---|
//! | [`scope_ir`] | Plan IR: schemas, expressions, logical/physical DAGs, dual statistics |
//! | [`scope_lang`] | SCOPE-like script language (lexer/parser/binder) |
//! | [`scope_opt`] | Budgeted Cascades optimizer, 256-rule registry, signatures, spans, hints |
//! | [`scope_runtime`] | Distributed execution simulator with the cloud variance model |
//! | [`scope_workload`] | Recurring-template workload generator + the daily telemetry view |
//! | [`personalizer`] | Contextual-bandit decision service (Azure Personalizer substitute) |
//! | [`flighting`] | Pre-production A/B + A/A testing under budgets |
//! | [`sis`] | Versioned hint store (Stats & Insight Service substitute) |
//! | [`qo_advisor`] | The paper's contribution: the five-task steering pipeline |
//!
//! See `README.md` for the quickstart and the per-experiment commands,
//! `ARCHITECTURE.md` for the system inventory and its contracts, and
//! `PERFORMANCE.md` for every measured result and how to reproduce it.
//!
//! ## A complete steering loop in a few lines
//!
//! ```no_run
//! use qo_advisor::{PipelineConfig, ProductionSim};
//! use scope_workload::WorkloadConfig;
//!
//! let mut sim = ProductionSim::new(WorkloadConfig::default(), PipelineConfig::default());
//! sim.bootstrap_validation_model(5, 24).expect("generated workloads compile");
//! for outcome in sim.run(10).expect("generated workloads compile") {
//!     println!(
//!         "day {:>2}: {:>3} jobs  {:>2} hints  {:>2} steered",
//!         outcome.report.day,
//!         outcome.report.jobs_total,
//!         outcome.report.hints_published,
//!         outcome.comparisons.len(),
//!     );
//! }
//! ```

pub use flighting;
pub use personalizer;
pub use qo_advisor;
pub use scope_ir;
pub use scope_lang;
pub use scope_opt;
pub use scope_runtime;
pub use scope_workload;
pub use sis;
