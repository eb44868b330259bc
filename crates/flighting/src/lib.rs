// Flighting sits on the steering path: typed errors / failure outcomes
// instead of panics; tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! The Flighting Service: SCOPE's pre-production A/B testing infrastructure
//! (paper §2.1, §4.3).
//!
//! Flighting re-runs jobs in a pre-production environment under different
//! engine configurations and compares them with the default. It is the
//! single largest resource consumer in QO-Advisor, so the service enforces:
//! a fixed-size queue, a per-job time cap (24 simulated hours), and a total
//! time budget. Each flighted job yields one of four outcomes — success,
//! timeout, failure (e.g. expired inputs), or filtered (unsupported job
//! classes) — exactly the §4.3 taxonomy.

pub mod aa;
pub mod budget;
pub mod outcome;
pub mod service;

pub use aa::run_aa;
pub use budget::{BudgetTracker, FlightBudget};
pub use outcome::{FlightMeasurement, FlightOutcome};
pub use service::{FlightRequest, FlightingService};
