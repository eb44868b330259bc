//! Shared experiment utilities for the per-figure/table regenerators.

pub mod corpus;
pub mod stats;

pub use stats::{mean, pearson, percentile, polyfit1};
