//! A Cascades-style, budgeted query optimizer for the SCOPE-like engine,
//! with the full machinery the QO-Advisor paper steers:
//!
//! * a **256-rule registry** in the paper's four categories
//!   ([`registry::RuleSet`]);
//! * **rule configurations** as 256-bit vectors and single-rule-flip
//!   steering actions ([`config`]);
//! * a **memo-based search** whose exploration budget, per-group caps, and
//!   promise ordering make it heuristic — and therefore steerable
//!   ([`search::Optimizer`]);
//! * **rule signatures** via provenance tracking (which rules directly
//!   contributed to the chosen plan);
//! * the **job-span fixpoint** heuristic ([`span::compute_span`]);
//! * per-template **compile-time hints** ([`hints::HintSet`]);
//! * a **sharded compile-result cache** exploiting deterministic
//!   compilation, so repeated `(plan, configuration)` compiles — the
//!   pipeline's span/recommendation/flighting recompiles *and* the
//!   production view's daily compiles of recurring scripts — are looked up
//!   instead of re-searched ([`cache::CompileCache`] /
//!   [`cache::CachingOptimizer`], both behind the [`search::Compiler`]
//!   trait);
//! * an **anytime task-queue engine** ([`tasks`]): exploration runs as an
//!   explicit ExploreGroup/ExploreExpr/ApplyRule cascade under a
//!   [`tasks::CompileBudget`], then an implementation epilogue of one task
//!   per memo group, so every compile is interruptible —
//!   at budget exhaustion the best plan so far is extracted from the
//!   partial memo and tagged [`tasks::BudgetOutcome::Truncated`]; at
//!   unlimited budget the cascade is byte-identical to the recursive
//!   reference engine ([`search::Optimizer::compile_recursive`]);
//! * **delta treatment compilation** ([`delta`]): a plan's default
//!   compilation is frozen as a shareable [`delta::BaseMemo`], and each
//!   rule-flip treatment is priced as an incremental pass over it
//!   (re-implementing only the groups the flip touches, replaying provable
//!   no-ops) — byte-identical to from-scratch compiles, and the engine
//!   behind [`search::Compiler::compile_slate`];
//! * a fixed cost model that prices plans from *estimated* statistics and
//!   *claimed* tuning only, reproducing SCOPE's estimated-vs-real divergence
//!   ([`cost`]).
//!
//! # Quick start
//!
//! ```
//! use scope_lang::{bind_script, Catalog};
//! use scope_opt::Optimizer;
//!
//! let plan = bind_script(
//!     r#"
//!     d = EXTRACT k:int, v:float FROM "data/t";
//!     f = SELECT k, v FROM d WHERE v > 10;
//!     a = SELECT k, SUM(v) AS s FROM f GROUP BY k;
//!     OUTPUT a TO "out/a";
//! "#,
//!     &Catalog::default(),
//! )
//! .unwrap();
//! let optimizer = Optimizer::default();
//! let compiled = optimizer.compile(&plan, &optimizer.default_config()).unwrap();
//! assert!(compiled.est_cost > 0.0);
//! assert!(!compiled.signature.is_empty());
//! ```

pub mod cache;
pub mod config;
pub mod cost;
pub mod delta;
pub mod hints;
pub mod impls;
pub mod memo;
pub mod registry;
pub mod rules;
pub mod search;
pub mod span;
pub mod tasks;

pub use cache::{CacheConfig, CacheStats, CachingOptimizer, CompileCache};
pub use config::{RuleBits, RuleConfig, RuleFlip, RuleId, RULE_COUNT};
pub use delta::{BaseMemo, DeltaCompiler, DeltaConfig, DeltaStats, PricedTreatment};
pub use hints::{Hint, HintSet};
pub use registry::{RuleCategory, RuleDef, RuleSet};
pub use search::{CompileError, Compiled, Compiler, Optimizer};
pub use span::{compute_span, SpanResult};
pub use tasks::{BudgetCounters, BudgetOutcome, BudgetStats, BudgetedCompile, CompileBudget};
