// Hint publish and lookup sit on the steering path: typed `SisError`s
// instead of panics; tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! The Stats & Insight Service (SIS) substitute (paper §4.4, ref. 16).
//!
//! SIS "makes deploying models and configurations in SCOPE easier as it
//! manages versioning and validates the format before installing them in
//! the SCOPE optimizer". This crate provides exactly that contract for
//! QO-Advisor's hint files: a versioned store of `(job template, rule
//! configuration)` pairs with format validation on publish, plus the lookup
//! path the optimizer consults on every compilation.

pub mod store;

pub use store::{HintFile, SisError, SisStore};
