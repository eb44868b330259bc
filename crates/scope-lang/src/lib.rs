// Malformed scripts fail as a typed `LangError`, never a panic; tests may
// unwrap freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! A SCOPE-like scripting language front-end.
//!
//! SCOPE scripts are "composed as a data flow of one or more SQL statements
//! that are stitched together into a single DAG by the SCOPE compiler"
//! (paper §2.1). This crate implements that front-end for the reproduction:
//!
//! * [`lexer`] — tokenizer with line/column tracking;
//! * [`ast`] — named-column abstract syntax;
//! * [`parser`] — recursive-descent parser;
//! * [`binder`] — name resolution and lowering to [`scope_ir::LogicalPlan`]
//!   DAGs (re-using a bound statement shares its sub-plan, which is how
//!   multi-output jobs become DAGs rather than trees).
//!
//! # Example
//!
//! ```
//! use scope_lang::{bind_script, Catalog};
//!
//! let script = r#"
//!     data = EXTRACT user:int, item:int, spend:float FROM "store/sales";
//!     big  = SELECT user, spend FROM data WHERE spend > 100;
//!     agg  = SELECT user, SUM(spend) AS total FROM big GROUP BY user;
//!     OUTPUT agg TO "out/totals";
//!     OUTPUT big TO "out/big";
//! "#;
//! let plan = bind_script(script, &Catalog::default()).unwrap();
//! assert_eq!(plan.outputs().len(), 2);
//! plan.validate().unwrap();
//! ```

pub mod ast;
pub mod binder;
pub mod error;
pub mod lexer;
pub mod parser;

pub use binder::{bind_script, Binder, Catalog, TableInfo};
pub use error::{LangError, Span};
pub use parser::parse_script;
