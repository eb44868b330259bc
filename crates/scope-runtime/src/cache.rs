//! Sharded, concurrent stage-graph memo — the execution-side mirror of
//! `scope_opt`'s compile-result cache.
//!
//! The steering loop re-executes the same physical plans over and over: the
//! production view runs a recurring script's plan every day, counterfactual
//! default runs replay the default plan beside every hinted run, flighting
//! executes the baseline plan the view already ran, and A/A probes re-run one
//! plan with a fixed seed schedule. Every uncached `execute` call rebuilds
//! the plan's stage graph, and the graph depends on the plan alone (the
//! hardware model is constant), so [`ExecutionCache`] memoizes it keyed by
//! [`PhysicalPlan::fingerprint`]. One graph serves every cluster —
//! production, pre-production and the deterministic test cluster differ only
//! in noise — and a cached execution is [`execute_stages`] on the memoized
//! graph: bit-identical to [`execute`].
//!
//! Whole runs are not cached. The closed loop draws fresh run seeds every
//! day, so a result keyed by its seeds answered no execution at all on three
//! of the four benchmark workloads, and on the fourth, whose tenants repeat
//! each other's runs, it was worth less than the 1.1x jobs/s it had to earn
//! (PERFORMANCE.md records the pairs).
//!
//! [`CachingExecutor`] packages a [`Cluster`] with an optional shared memo
//! behind the [`Executor`] trait, so view building, counterfactual runs,
//! flighting, and probes all share one memo without caring whether it is
//! enabled. On the compile side there is no such wrapper: the optimizer
//! owns its compile cache.

use crate::cluster::Cluster;
use crate::executor::{execute, execute_stages, Executor};
use crate::metrics::ExecutionMetrics;
use crate::stage::StageGraph;
use scope_ir::counters::CacheStats;
use scope_ir::physical::PhysicalPlan;
use scope_ir::sharded::ShardedCache;
use serde::Serialize;
use std::sync::Arc;

/// The execution cache's one knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExecCacheConfig {
    /// Master switch. Disabled, every execution builds its stage graph
    /// afresh (the pre-cache behavior, bit-for-bit).
    pub enabled: bool,
}

impl Default for ExecCacheConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl ExecCacheConfig {
    /// The cache turned off (executions go straight to the simulator).
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Maximum memoized stage graphs across all shards: one graph per distinct
/// physical plan actually executed.
const GRAPH_CAPACITY: usize = 1 << 13;
/// Lock shards of the memo.
const SHARDS: usize = 16;

/// Execution-cache counters. `graphs` counts stage-graph memo lookups, one
/// per cached execution. `results` is the spelling the benchmark harness
/// reads for its `scope-runtime.result_hit_ratio` (ROADMAP 1a retires it),
/// kept the way `scope_opt::CachingOptimizer` is: it counts every
/// execution as one miss, with no hits and no inserts, because no whole run
/// is replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// One miss per execution (`misses == graphs.lookups()`).
    pub results: CacheStats,
    /// Stage-graph memoization.
    pub graphs: CacheStats,
}

impl ExecStats {
    /// Counter deltas relative to an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            results: self.results.since(&earlier.results),
            graphs: self.graphs.since(&earlier.graphs),
        }
    }

    /// Executions that consulted the cache (one per `execute` call).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.graphs.lookups()
    }
}

impl std::ops::Add for ExecStats {
    type Output = ExecStats;

    fn add(self, rhs: ExecStats) -> ExecStats {
        ExecStats {
            results: self.results + rhs.results,
            graphs: self.graphs + rhs.graphs,
        }
    }
}

/// The stage-graph memo: one [`ShardedCache`] (the workspace-wide
/// lock-sharded, self-counting FIFO cache) keyed by the physical plan's
/// fingerprint. `&ExecutionCache` is `Sync`; one instance is shared (via
/// `Arc`) by every [`CachingExecutor`] of a simulation — production and
/// pre-production alike — the way one `CompileCache` spans every compile of
/// the pipeline.
#[derive(Debug)]
pub struct ExecutionCache {
    graphs: ShardedCache<u64, Arc<StageGraph>>,
}

impl Default for ExecutionCache {
    fn default() -> Self {
        // The fingerprint is already a well-mixed hash: it picks the shard.
        Self {
            graphs: ShardedCache::new(GRAPH_CAPACITY, SHARDS, |fingerprint| *fingerprint),
        }
    }
}

impl ExecutionCache {
    /// Build a shareable cache per `config`, or `None` when disabled — the
    /// shape [`CachingExecutor::new`] and the pipeline plumbing consume.
    #[must_use]
    pub fn shared(config: ExecCacheConfig) -> Option<Arc<Self>> {
        config.enabled.then(Arc::default)
    }

    /// The memoized stage graph of `plan`, building and caching it on first
    /// sight. The build runs outside any lock.
    fn stage_graph(&self, plan: &PhysicalPlan) -> Arc<StageGraph> {
        self.graphs
            .get_or_insert_with(plan.fingerprint(), || Arc::new(StageGraph::build(plan)))
    }

    /// Snapshot of the monotonic counters (`results` derived, see
    /// [`ExecStats`]).
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        let graphs = self.graphs.stats();
        ExecStats {
            results: CacheStats {
                misses: graphs.lookups(),
                ..CacheStats::default()
            },
            graphs,
        }
    }
}

/// A [`Cluster`] plus an optional shared [`ExecutionCache`], behind the same
/// [`Executor`] interface as the bare cluster. This is what the simulation
/// holds — one per environment (production, pre-production), all pointing at
/// one memo, whose graphs they share.
#[derive(Debug, Clone)]
pub struct CachingExecutor {
    cluster: Cluster,
    cache: Option<Arc<ExecutionCache>>,
}

impl CachingExecutor {
    /// Wrap `cluster` over an optional shared cache (`None` = pass-through).
    #[must_use]
    pub fn new(cluster: Cluster, cache: Option<Arc<ExecutionCache>>) -> Self {
        Self { cluster, cache }
    }

    /// An executor with its own private cache per `config` (`enabled:
    /// false` builds no cache at all). Convenience for standalone use;
    /// simulations share one cache via [`ExecutionCache::shared`] +
    /// [`CachingExecutor::new`] instead.
    #[must_use]
    pub fn with_config(cluster: Cluster, config: ExecCacheConfig) -> Self {
        Self::new(cluster, ExecutionCache::shared(config))
    }

    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    #[must_use]
    pub fn cache(&self) -> Option<&Arc<ExecutionCache>> {
        self.cache.as_ref()
    }

    /// Counter snapshot of the underlying (possibly shared) cache; all-zero
    /// when caching is disabled.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.cache
            .as_ref()
            .map(|cache| cache.stats())
            .unwrap_or_default()
    }
}

impl Executor for CachingExecutor {
    fn execute(&self, plan: &PhysicalPlan, job_seed: u64, run_seed: u64) -> ExecutionMetrics {
        match &self.cache {
            Some(cache) => {
                execute_stages(&cache.stage_graph(plan), &self.cluster, job_seed, run_seed)
            }
            None => execute(plan, &self.cluster, job_seed, run_seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::stats::DualStats;
    use scope_lang::{bind_script, Catalog, TableInfo};

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        j     = SELECT * FROM sales AS s JOIN users AS u ON s.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
    "#;

    fn physical(rows: f64) -> PhysicalPlan {
        let mut catalog = Catalog::default();
        catalog.register(
            "store/sales",
            TableInfo {
                rows: DualStats::exact(rows),
            },
        );
        let plan = bind_script(SCRIPT, &catalog).unwrap();
        let opt = scope_opt::Optimizer::default();
        std::sync::Arc::unwrap_or_clone(opt.compile(&plan, &opt.default_config()).unwrap().physical)
    }

    /// Every cached execution equals `execute` bit for bit, across run
    /// seeds and across the production, pre-production and deterministic
    /// clusters, and all of them share one stage graph per plan.
    #[test]
    fn cached_execution_replays_bit_identically() {
        let plans = [physical(1e6), physical(1e9)];
        assert_ne!(plans[0].fingerprint(), plans[1].fingerprint());
        let cache = ExecutionCache::shared(ExecCacheConfig::default()).unwrap();
        let clusters = [
            Cluster::default(),
            Cluster::preproduction(),
            Cluster::deterministic(),
        ];
        let mut runs = 0;
        for cluster in clusters {
            let cached = CachingExecutor::new(cluster.clone(), Some(Arc::clone(&cache)));
            for plan in &plans {
                for run_seed in 0..4 {
                    let got = cached.execute(plan, 7, run_seed);
                    let want = execute(plan, &cluster, 7, run_seed);
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{cluster:?}");
                    runs += 1;
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.graphs.hits, stats.graphs.misses, stats.graphs.inserts),
            (runs - 2, 2, 2),
            "one graph per plan"
        );
        // The harness's `result_hit_ratio` divides by this.
        assert_eq!(stats.results.lookups(), runs);
    }

    #[test]
    fn graph_memo_hits_across_run_seeds() {
        let plan = physical(1e7);
        let cached = CachingExecutor::with_config(Cluster::default(), ExecCacheConfig::default());
        for run in 0..5 {
            let _ = cached.execute(&plan, 7, run);
        }
        let stats = cached.stats();
        assert_eq!(
            (stats.graphs.hits, stats.graphs.misses),
            (4, 1),
            "the stage graph is built once and reused four times"
        );
        assert_eq!(
            stats.results,
            CacheStats {
                misses: 5,
                ..CacheStats::default()
            },
            "every execution counts as one result miss, and nothing else"
        );
    }

    #[test]
    fn environments_share_graphs_but_not_results() {
        let plan = physical(1e7);
        let cache = ExecutionCache::shared(ExecCacheConfig::default()).unwrap();
        let prod = CachingExecutor::new(Cluster::default(), Some(Arc::clone(&cache)));
        let preprod = CachingExecutor::new(Cluster::preproduction(), Some(Arc::clone(&cache)));
        let a = prod.execute(&plan, 1, 1);
        let b = preprod.execute(&plan, 1, 1);
        assert_ne!(a.latency_sec, b.latency_sec, "pre-production is noisier");
        assert_eq!(b, execute(&plan, preprod.cluster(), 1, 1));
        let stats = cache.stats();
        assert_eq!((stats.graphs.hits, stats.graphs.misses), (1, 1));
    }

    #[test]
    fn uncached_executor_is_pure_pass_through() {
        let plan = physical(1e6);
        let uncached = CachingExecutor::new(Cluster::default(), None);
        let m = uncached.execute(&plan, 2, 2);
        assert_eq!(m, execute(&plan, uncached.cluster(), 2, 2));
        assert_eq!(uncached.stats(), ExecStats::default());
        assert!(uncached.cache().is_none());
        assert!(ExecutionCache::shared(ExecCacheConfig::disabled()).is_none());
    }

    #[test]
    fn config_defaults_and_serde() {
        let c = ExecCacheConfig::default();
        assert!(c.enabled);
        assert!(!ExecCacheConfig::disabled().enabled);
        assert_eq!(serde_json::to_string(&c).unwrap(), r#"{"enabled":true}"#);
    }

    #[test]
    fn exec_stats_roll_up() {
        let a = ExecStats {
            results: CacheStats {
                misses: 4,
                ..CacheStats::default()
            },
            graphs: CacheStats {
                hits: 3,
                misses: 1,
                inserts: 1,
                evictions: 0,
            },
        };
        assert_eq!(a.lookups(), 4);
        let sum = a + a;
        assert_eq!((sum.results.misses, sum.graphs.hits), (8, 6));
        assert_eq!(sum.since(&a), a);
    }
}
