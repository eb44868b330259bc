// The bandit sits on the steering path: typed errors instead of panics;
// tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! A contextual-bandit decision service — the reproduction's substitute for
//! Azure Personalizer (paper §4.2, ref. 1).
//!
//! Azure Personalizer wraps Vowpal Wabbit-style contextual bandit learning
//! behind a *rank / reward* API with durable event logging. This crate
//! implements the same abstraction:
//!
//! * [`features`] — sparse feature vectors with the hashing trick and
//!   explicit second/third-order interaction features (the paper found span
//!   co-occurrence indicators "critical to our success", §6);
//! * [`model`] — a linear scorer over hashed (context × action) features
//!   trained by importance-weighted regression;
//! * [`bandit`] — epsilon-greedy exploration, uniform logging policy, and
//!   IPS-corrected off-policy updates;
//! * [`slate`] — batched slate scoring and learning over a CSR sparse
//!   layout, bit-identical to per-action scoring and joint-vector updates;
//! * [`service`] — the rank/reward facade with a pending-event log; a
//!   [`RankInput`] is built once per job and shared by its ranks and their
//!   pending events, and a reward reads the chosen CSR row when the input
//!   carries a slate.

pub mod bandit;
pub mod features;
pub mod model;
pub mod service;
pub mod slate;

pub use bandit::{CbConfig, ContextualBandit, RankDecision};
pub use features::FeatureVector;
pub use model::LinearModel;
pub use service::{
    PendingEventState, Personalizer, PersonalizerState, RankInput, RankRequest, RankResponse,
};
pub use slate::SparseSlate;
