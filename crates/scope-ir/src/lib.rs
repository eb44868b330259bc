// Plan construction and validation fail as typed errors, never a panic;
// tests may unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Plan intermediate representation for the SCOPE-like engine.
//!
//! SCOPE scripts compile into *DAGs* of operators (not single trees): a job
//! contains one or more SQL-like statements stitched together, with one
//! [`LogicalOp::Output`] root per resulting dataset and possibly shared
//! sub-plans. This crate defines:
//!
//! * [`schema`] — columns, data types, and row schemas;
//! * [`expr`] — scalar expressions with selectivity heuristics;
//! * [`stats`] — *dual* statistics (ground-truth and catalog-estimated) that
//!   let the optimizer mis-estimate while the runtime simulator stays honest;
//! * [`dag`] — the append-only topological arena both plan kinds are, with
//!   its fingerprint memo, reachability walk and structural validator;
//! * [`logical`] — the logical operator algebra and plan DAG;
//! * [`physical`] — physical operators (implementation flavors, exchanges,
//!   partitioning schemes) and the physical plan DAG;
//! * [`sharded`] — the generic lock-sharded FIFO cache every result cache in
//!   the workspace builds on, next to the [`counters`] vocabulary they all
//!   report in.
//!
//! The crate is dependency-light by design: every other crate in the
//! workspace (optimizer, runtime simulator, workload generator, pipeline)
//! builds on these types.

pub mod counters;
pub mod dag;
pub mod display;
pub mod expr;
pub mod ids;
pub mod logical;
pub mod physical;
pub mod schema;
pub mod sharded;
pub mod stats;

pub use counters::{CacheStats, LatencyHistogram};
pub use dag::{Dag, PlanError, PlanNode};
pub use expr::{AggExpr, AggFunc, BinOp, ScalarExpr, Value};
pub use ids::{JobId, NodeId, TemplateId};
pub use logical::{JoinKind, LogicalNode, LogicalOp, LogicalPlan, SortKey, TableRef};
pub use physical::{
    AggMode, Partitioning, PhysicalNode, PhysicalOp, PhysicalPlan, PhysicalTuning, ScanVariant,
};
pub use schema::{Column, DataType, Schema};
pub use sharded::ShardedCache;
pub use stats::{DualStats, NodeStats};
