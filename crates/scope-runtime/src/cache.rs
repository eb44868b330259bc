//! Sharded, concurrent execution-result cache — the execution-side mirror of
//! `scope_opt`'s compile-result cache.
//!
//! The steering loop re-executes the same physical plans over and over: the
//! production view runs a recurring script's plan every day, counterfactual
//! default runs replay the default plan beside every hinted run, flighting
//! executes the baseline plan the view already ran, and A/A probes re-run one
//! plan with a fixed seed schedule. Execution is deterministic — the metrics
//! depend only on the plan bytes, the cluster model, and `(job_seed,
//! run_seed)` — so those tuples are perfect cache keys: a cached run is
//! bit-identical to a fresh one.
//!
//! [`ExecutionCache`] memoizes at two levels, both N-way lock-sharded:
//!
//! * **stage graphs** keyed by `(plan fingerprint, hardware epoch)` — every
//!   uncached `execute` call rebuilds the stage graph even for a plan it has
//!   executed before, and the graph depends only on the plan and the
//!   [`ClusterConfig`], so graphs are shared even across clusters that
//!   differ only in noise (production vs pre-production);
//! * **execution metrics** keyed by `(plan fingerprint, job_seed, run_seed,
//!   cluster epoch)` — the full result of one simulated run, replayed on
//!   repeat executions (the cluster epoch folds in the variance model, so
//!   environments never cross-contaminate).
//!
//! [`CachingExecutor`] packages a [`Cluster`] with an optional shared cache
//! behind the [`Executor`] trait, so view building, counterfactual runs,
//! flighting, and probes all share one cache without caring whether it is
//! enabled. On the compile side there is no such wrapper: the optimizer
//! owns its compile cache.

use crate::cluster::{Cluster, ClusterConfig};
use crate::executor::{execute, execute_stages, Executor};
use crate::metrics::ExecutionMetrics;
use crate::stage::StageGraph;
use scope_ir::counters::CacheStats;
use scope_ir::ids::mix64;
use scope_ir::physical::PhysicalPlan;
use scope_ir::sharded::ShardedCache;
use serde::Serialize;
use std::sync::Arc;

/// The execution-result cache's one knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExecCacheConfig {
    /// Master switch. Disabled, every execution goes straight to the
    /// simulator (the pre-cache behavior, bit-for-bit).
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

/// Maximum cached execution results across all shards. `ExecutionMetrics`
/// is a flat 80-byte struct, so even the full capacity is a few MB; sized
/// for ~weeks of simulated days.
const RESULT_CAPACITY: usize = 1 << 15;
/// Maximum memoized stage graphs across all shards: one graph per distinct
/// physical plan actually executed. Bounded separately because one graph
/// serves many `(seeds, epoch)` results and graphs are the heavier objects.
const GRAPH_CAPACITY: usize = 1 << 13;
/// Lock shards of each memo level.
const SHARDS: usize = 16;

/// Counters of the two memo levels, snapshotted together. `results` counts
/// whole-run replays (each `execute` call is exactly one lookup); `graphs`
/// counts stage-graph memo lookups (consulted only on result misses, so
/// `graphs.lookups() == results.misses` for a purely cache-driven workload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Full execution-result replays.
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
        self.results.lookups()
    }

    /// Executions answered without running the simulator at all.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.results.hits
    }

    /// Fraction of executions that skipped *some* work: a full-result replay
    /// or at least a memoized stage graph.
    #[must_use]
    pub fn partial_hit_rate(&self) -> f64 {
        let lookups = self.results.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.results.hits + self.graphs.hits) as f64 / lookups as f64
        }
    }

    /// Fraction of executions answered entirely from cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.results.hit_rate()
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

impl std::iter::Sum for ExecStats {
    fn sum<I: Iterator<Item = ExecStats>>(iter: I) -> ExecStats {
        iter.fold(ExecStats::default(), std::ops::Add::add)
    }
}

/// Result key: exact plan identity + both seeds + the full-environment
/// epoch.
type ResultKey = (u64, u64, u64, u64);
/// Graph key: exact plan identity + the hardware-only epoch.
type GraphKey = (u64, u64);

fn result_key_hash(key: &ResultKey) -> u64 {
    mix64(mix64(key.0, key.1), mix64(key.2, key.3))
}

fn graph_key_hash(key: &GraphKey) -> u64 {
    mix64(key.0, key.1)
}

/// The sharded execution-result cache: two [`ShardedCache`]s (the
/// workspace-wide lock-sharded, self-counting FIFO cache), one per memo
/// level. `&ExecutionCache` is `Sync`; one instance is
/// shared (via `Arc`) by every [`CachingExecutor`] of a simulation —
/// production and pre-production alike — the way one `CompileCache` spans
/// every compile of the pipeline.
#[derive(Debug)]
pub struct ExecutionCache {
    results: ShardedCache<ResultKey, ExecutionMetrics>,
    graphs: ShardedCache<GraphKey, Arc<StageGraph>>,
}

impl Default for ExecutionCache {
    fn default() -> Self {
        Self::sized(RESULT_CAPACITY, GRAPH_CAPACITY, SHARDS)
    }
}

impl ExecutionCache {
    fn sized(capacity: usize, graph_capacity: usize, shards: usize) -> Self {
        Self {
            results: ShardedCache::new(capacity, shards, result_key_hash),
            graphs: ShardedCache::new(graph_capacity, shards, graph_key_hash),
        }
    }

    /// Build a shareable cache per `config`, or `None` when disabled — the
    /// shape [`CachingExecutor::new`] and the pipeline plumbing consume.
    #[must_use]
    pub fn shared(config: ExecCacheConfig) -> Option<Arc<Self>> {
        config.enabled.then(Arc::default)
    }

    /// The memoized stage graph of `plan` on hardware `config` (epoch
    /// `config_epoch`), building and caching it on first sight.
    pub fn stage_graph(
        &self,
        plan: &PhysicalPlan,
        config_epoch: u64,
        config: &ClusterConfig,
    ) -> Arc<StageGraph> {
        self.graphs
            .get_or_insert_with((plan.fingerprint(), config_epoch), || {
                Arc::new(StageGraph::build(plan, config))
            })
    }

    /// The cached execution entry point: replay the stored metrics for
    /// `(plan, seeds, cluster)` or execute (on a memoized stage graph),
    /// store, and return them. Execution runs *outside* any lock.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        cluster: &Cluster,
        config_epoch: u64,
        cluster_epoch: u64,
        job_seed: u64,
        run_seed: u64,
    ) -> ExecutionMetrics {
        let key = (plan.fingerprint(), job_seed, run_seed, cluster_epoch);
        self.results.get_or_insert_with(key, || {
            let graph = self.stage_graph(plan, config_epoch, &cluster.config);
            execute_stages(&graph, cluster, job_seed, run_seed)
        })
    }

    /// Snapshot of the monotonic counters of both memo levels.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            results: self.results.stats(),
            graphs: self.graphs.stats(),
        }
    }

    /// Live cached results across all shards (stage graphs are counted by
    /// [`ExecutionCache::graph_len`], not here).
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Live memoized stage graphs across all shards.
    #[must_use]
    pub fn graph_len(&self) -> usize {
        self.graphs.len()
    }

    /// No cached *results* (`len() == 0`); memoized stage graphs alone do
    /// not make the cache non-empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters keep running).
    pub fn clear(&self) {
        self.results.clear();
        self.graphs.clear();
    }
}

/// A [`Cluster`] plus an optional shared [`ExecutionCache`], behind the same
/// [`Executor`] interface as the bare cluster. This is what the simulation
/// holds — one per environment (production, pre-production), all pointing at
/// one cache; the cluster epochs baked in at construction keep their entries
/// apart while letting them share stage graphs.
#[derive(Debug, Clone)]
pub struct CachingExecutor {
    cluster: Cluster,
    /// Hardware-only epoch (stage-graph sharing).
    config_epoch: u64,
    /// Full-environment epoch (result isolation).
    cluster_epoch: u64,
    cache: Option<Arc<ExecutionCache>>,
}

impl CachingExecutor {
    /// Wrap `cluster` over an optional shared cache (`None` = pass-through).
    #[must_use]
    pub fn new(cluster: Cluster, cache: Option<Arc<ExecutionCache>>) -> Self {
        Self {
            config_epoch: cluster.config_epoch(),
            cluster_epoch: cluster.epoch(),
            cluster,
            cache,
        }
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
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn execute(&self, plan: &PhysicalPlan, job_seed: u64, run_seed: u64) -> ExecutionMetrics {
        match &self.cache {
            Some(cache) => cache.execute(
                plan,
                &self.cluster,
                self.config_epoch,
                self.cluster_epoch,
                job_seed,
                run_seed,
            ),
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

    #[test]
    fn cached_execution_replays_bit_identically() {
        let plan = physical(1e7);
        let cluster = Cluster::default();
        let cached = CachingExecutor::with_config(cluster.clone(), ExecCacheConfig::default());
        let direct = execute(&plan, &cluster, 3, 9);
        let first = cached.execute(&plan, 3, 9);
        let second = cached.execute(&plan, 3, 9);
        assert_eq!(first, direct, "the cache is transparent");
        assert_eq!(second, direct, "the replay is bit-identical");
        let stats = cached.stats();
        assert_eq!((stats.results.hits, stats.results.misses), (1, 1));
        assert_eq!(
            (stats.graphs.hits, stats.graphs.misses),
            (0, 1),
            "one graph built, consulted only on the result miss"
        );
    }

    #[test]
    fn graph_memo_hits_across_run_seeds() {
        let plan = physical(1e7);
        let cached = CachingExecutor::with_config(Cluster::default(), ExecCacheConfig::default());
        for run in 0..5 {
            let a = cached.execute(&plan, 7, run);
            let b = execute(&plan, cached.cluster(), 7, run);
            assert_eq!(a, b, "fresh run seeds stay transparent");
        }
        let stats = cached.stats();
        assert_eq!(stats.results.misses, 5, "every run seed is a new result");
        assert_eq!(
            (stats.graphs.hits, stats.graphs.misses),
            (4, 1),
            "the stage graph is built once and replayed four times"
        );
        let cache = cached.cache().unwrap();
        assert_eq!(cache.graph_len(), 1);
        assert_eq!(cache.len(), 5);
        // `len`/`is_empty` speak for the results only: with just the stage
        // graph memoized, the cache holds no result.
        let graph_only = ExecutionCache::default();
        let cluster = cached.cluster();
        let _ = graph_only.stage_graph(&plan, cluster.config_epoch(), &cluster.config);
        assert_eq!((graph_only.graph_len(), graph_only.len()), (1, 0));
        assert!(graph_only.is_empty());
    }

    #[test]
    fn environments_share_graphs_but_not_results() {
        let plan = physical(1e7);
        let cache = ExecutionCache::shared(ExecCacheConfig::default()).unwrap();
        let prod = CachingExecutor::new(Cluster::default(), Some(Arc::clone(&cache)));
        let preprod = CachingExecutor::new(Cluster::preproduction(), Some(Arc::clone(&cache)));
        let a = prod.execute(&plan, 1, 1);
        let b = preprod.execute(&plan, 1, 1);
        assert_ne!(
            a.latency_sec, b.latency_sec,
            "pre-production is noisier; same key on a shared cache would \
             wrongly replay the production result"
        );
        assert_eq!(b, execute(&plan, preprod.cluster(), 1, 1));
        let stats = cache.stats();
        assert_eq!(stats.results.hits, 0, "distinct epochs, distinct entries");
        assert_eq!(
            (stats.graphs.hits, stats.graphs.misses),
            (1, 1),
            "identical hardware shares the memoized stage graph"
        );
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
    fn capacity_evicts_results_fifo() {
        let plan = physical(1e6);
        let cache = ExecutionCache::sized(2, 0, 1);
        let cluster = Cluster::default();
        let (ce, ee) = (cluster.config_epoch(), cluster.epoch());
        for run in 0..3 {
            let _ = cache.execute(&plan, &cluster, ce, ee, 1, run);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().results.evictions, 1);
        // Oldest (run 0) was evicted: looking it up again misses...
        let before = cache.stats();
        let _ = cache.execute(&plan, &cluster, ce, ee, 1, 0);
        assert_eq!(cache.stats().since(&before).results.misses, 1);
        // ...while the newest still hits.
        let before = cache.stats();
        let _ = cache.execute(&plan, &cluster, ce, ee, 1, 2);
        assert_eq!(cache.stats().since(&before).results.hits, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_plans_and_seeds_get_distinct_entries() {
        let small = physical(1e6);
        let big = physical(1e9);
        assert_ne!(small.fingerprint(), big.fingerprint());
        let cached = CachingExecutor::with_config(Cluster::default(), ExecCacheConfig::default());
        let _ = cached.execute(&small, 1, 1);
        let _ = cached.execute(&big, 1, 1);
        let _ = cached.execute(&small, 2, 1);
        let _ = cached.execute(&small, 1, 2);
        let cache = cached.cache().unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.graph_len(), 2);
        assert_eq!(cached.stats().results.hits, 0);
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
                hits: 2,
                misses: 2,
                inserts: 2,
                evictions: 0,
            },
            graphs: CacheStats {
                hits: 1,
                misses: 1,
                inserts: 1,
                evictions: 0,
            },
        };
        assert_eq!(a.lookups(), 4);
        assert_eq!(a.hits(), 2);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert!((a.partial_hit_rate() - 0.75).abs() < 1e-12);
        let sum = a + a;
        assert_eq!(sum.results.hits, 4);
        assert_eq!(sum.since(&a), a);
        let total: ExecStats = [a, a].into_iter().sum();
        assert_eq!(total, sum);
    }
}
