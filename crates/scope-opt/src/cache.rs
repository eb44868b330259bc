//! Sharded, concurrent compile-result cache.
//!
//! The steering pipeline recompiles the same `(plan, rule configuration)`
//! pairs over and over: the span fixpoint alone runs up to `max_iterations`
//! recompiles per job, then recommendation scoring and validation flighting
//! recompile the very same pairs again the same day ("Query Optimization in
//! the Wild" calls this recompilation cost the barrier to steering at fleet
//! scale). Compilation is deterministic — the result depends only on the
//! plan bytes and the configuration bits — so those pairs are perfect cache
//! keys: a cached run is byte-identical to an uncached one.
//!
//! [`CompileCache`] is a [`scope_ir::ShardedCache`] (the workspace-wide
//! lock-sharded FIFO cache), keyed by `(plan fingerprint, RuleBits)` and
//! storing compile results — **failures are cached too**, so a flip known to
//! crash compilation for a template is replayed instead of recompiled. A
//! success is kept with its plan (`CacheEntry::Plan`) when a caller needs
//! the plan (the view build, the counterfactual, flighting), and as its
//! price alone (`CacheEntry::Price`) when its caller reads only the
//! estimated cost and signature (recommendation, the span fixpoint) — save
//! a recommended treatment whose price beats its base's, which keeps its
//! plan for the flighting that follows. A price-only treatment is never
//! executed, so its plan is never extracted. A plan consumer reads a price
//! entry as a miss and upgrades it in place; a price never replaces a plan.
//! The plan fingerprint is the structural hash of the *whole* plan
//! ([`LogicalPlan::fingerprint`]: every field its serialized form has,
//! hashed without serializing), not the template id:
//! two instances of one template differ in literals and actual statistics,
//! and conflating them would make cached runs observably different from
//! uncached ones.
//!
//! An [`Optimizer`] owns an optional cache, and its compile entry points
//! (defined here) consult it, so span computation, recommendation
//! recompiles, and flighting's validation compiles all share one cache
//! without caring whether it is enabled.

use crate::config::{RuleBits, RuleConfig};
use crate::delta::{DeltaCompiler, DeltaConfig, DeltaStats};
use crate::search::{CompileError, Compiled, Kept, Optimizer, Price};
use scope_ir::ids::combine;
use scope_ir::logical::LogicalPlan;
use scope_ir::physical::PhysicalPlan;
use scope_ir::sharded::ShardedCache;
use serde::Serialize;
use std::sync::Arc;

/// The compile-result cache's one knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheConfig {
    /// Master switch. Disabled, every compile goes straight to the
    /// optimizer (the pre-cache behavior, bit-for-bit).
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl CacheConfig {
    /// The cache turned off (compiles go straight to the optimizer).
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Maximum cached compile results across all shards, plan and price
/// entries alike: ~25x the per-day insert volume of the largest simulated
/// workloads; bounds worst-case memory at roughly tens of MB of retained
/// physical plans.
const CAPACITY: usize = 1 << 14;
/// Lock shards (more shards = less write contention under parallel
/// fan-outs).
const SHARDS: usize = 16;

/// The shared counter vocabulary (also used by the execution-result cache in
/// `scope-runtime`); re-exported here so compile-cache callers keep writing
/// `scope_opt::CacheStats`.
pub use scope_ir::counters::CacheStats;

/// Cache key: exact plan identity ([`LogicalPlan::fingerprint`] — literals,
/// estimated *and* actual statistics included) plus the full 256-bit rule
/// configuration.
type Key = (u64, RuleBits);

/// What the cache keeps of one successful compile, and what a pricing
/// caller gets back.
#[derive(Debug, Clone)]
pub(crate) enum CacheEntry {
    /// The compile with its plan, [`laid_out`] and shared by every hit.
    Plan(Compiled),
    /// Only what a pricing caller reads.
    Price(Price),
}

impl CacheEntry {
    pub(crate) fn price(&self) -> Price {
        match self {
            CacheEntry::Plan(compiled) => compiled.price(),
            CacheEntry::Price(price) => *price,
        }
    }
}

/// The sharded compile-result cache: a [`ShardedCache`] of compile results
/// (per-shard FIFO eviction, hit/miss/insert accounting).
/// `&CompileCache` is `Sync`: parallel pipeline fan-outs hit it
/// concurrently, readers sharing each shard lock.
#[derive(Debug)]
pub struct CompileCache {
    entries: ShardedCache<Key, Result<CacheEntry, CompileError>>,
}

/// A stored result as a `K` caller reads it: `None` (a miss) when the entry
/// lacks what `K` keeps, as a price entry lacks the plan.
fn read<K: Kept>(stored: &Result<CacheEntry, CompileError>) -> Option<Result<K, CompileError>> {
    match stored {
        Ok(entry) => K::read(entry).map(Ok),
        Err(e) => Some(Err(e.clone())),
    }
}

fn compile_key_hash(key: &Key) -> u64 {
    combine(key.0, key.1.fingerprint())
}

/// A plan laid out to be kept: a plan fresh from extraction gets one deep
/// copy, its nodes laid out together instead of among the freed memo's
/// allocations, with its fingerprint memo pre-warmed, so every holder's
/// execution-cache lookup (`scope_runtime::CachingExecutor`) is one atomic
/// load instead of a hash walk. A plan already laid out — the one a base
/// memo keeps ([`crate::delta::BaseMemo::build`] lays it out here), which its
/// default configuration's entry and every pruned treatment share, or any
/// plan a cache hit returned — is fingerprinted and comes back as the same
/// `Arc`. Extraction never fingerprints, so "fingerprinted" is exactly
/// "laid out".
pub(crate) fn laid_out(plan: &Arc<PhysicalPlan>) -> Arc<PhysicalPlan> {
    if plan.is_fingerprinted() {
        return Arc::clone(plan);
    }
    let kept = Arc::new(PhysicalPlan::clone(plan));
    let _ = kept.fingerprint();
    kept
}

impl Default for CompileCache {
    fn default() -> Self {
        Self::sized(CAPACITY, SHARDS)
    }
}

impl CompileCache {
    fn sized(capacity: usize, shards: usize) -> Self {
        Self {
            entries: ShardedCache::new(capacity, shards, compile_key_hash),
        }
    }

    fn key(plan: &LogicalPlan, config: &RuleConfig) -> Key {
        (Self::plan_fingerprint(plan), *config.bits())
    }

    /// Stable structural fingerprint of a plan (memoized inside the plan, so
    /// repeat lookups on one plan cost an atomic load).
    /// Deliberately *not* [`LogicalPlan::template_id`]: the template id
    /// normalizes literals away, but compile results depend on them.
    #[must_use]
    pub fn plan_fingerprint(plan: &LogicalPlan) -> u64 {
        plan.fingerprint()
    }

    /// The cached compile entry point: return the stored result for
    /// `(plan, config)` or run `compile`, store, and return the stored
    /// result (a plan is the same shared copy every later hit returns).
    /// `compile` runs *outside* any lock, so concurrent misses on different
    /// keys never serialize on each other.
    pub(crate) fn get_or_compile<K: Kept>(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
        compile: impl FnOnce() -> Result<K, CompileError>,
    ) -> Result<K, CompileError> {
        let key = Self::key(plan, config);
        if let Some(hit) = self.entries.get_with(&key, read::<K>) {
            return hit;
        }
        self.store(key, &compile())
    }

    /// Counted lookup: the stored result for `(plan, config)`, a miss when
    /// the entry lacks what `K` keeps. The delta slate path uses this
    /// (paired with [`CompileCache::insert`]) so a slate's cache traffic is
    /// accounted exactly like [`CompileCache::get_or_compile`]'s.
    pub(crate) fn lookup<K: Kept>(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Option<Result<K, CompileError>> {
        self.entries.get_with(&Self::key(plan, config), read::<K>)
    }

    /// Store a compile result computed elsewhere (a delta-compiled
    /// treatment inserts under the same `(fingerprint, RuleBits)` key a
    /// from-scratch compile would use — the results are byte-identical, so
    /// the cache cannot tell them apart). Returns the stored copy, so the
    /// caller can hold the same shared plan later hits return.
    pub(crate) fn insert<K: Kept>(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
        result: &Result<K, CompileError>,
    ) -> Result<K, CompileError> {
        self.store(Self::key(plan, config), result)
    }

    /// Store `result` under `key`: a new entry, or a plan in place of the
    /// key's price entry (first writer wins otherwise).
    fn store<K: Kept>(
        &self,
        key: Key,
        result: &Result<K, CompileError>,
    ) -> Result<K, CompileError> {
        match result {
            Ok(kept) => {
                let (held, entry) = kept.stored();
                let plan = matches!(entry, CacheEntry::Plan(_));
                let upgrade = |present: &Result<CacheEntry, CompileError>| {
                    plan && matches!(present, Ok(CacheEntry::Price(_)))
                };
                self.entries.store(key, Ok(entry), upgrade);
                Ok(held)
            }
            Err(e) => {
                self.entries.insert(key, Err(e.clone()));
                Err(e.clone())
            }
        }
    }

    /// Snapshot of the monotonic counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (counters keep running).
    pub fn clear(&self) {
        self.entries.clear();
    }
}

/// The harness's spelling of the cached optimizer. There is one optimizer
/// type; `perfbench/` still names this one, and ROADMAP item 1a retires it.
pub type CachingOptimizer = Optimizer;

/// The compile entry points: each consults the optimizer's caches when it
/// has them and searches from scratch when it does not.
///
/// Sharing a cache is sound because the keys are tenant-invariant — the
/// exact structural plan fingerprint plus the full `RuleBits` — so a hit
/// returns exactly what a local compile would have produced, whichever
/// clone of the optimizer inserted it.
impl Optimizer {
    /// `inner` with a compile cache per `config` (`enabled: false` builds
    /// none) and no delta compiler; see [`Optimizer::with_delta`]. `inner`
    /// is always [`Optimizer::default`] today: the parameter is the
    /// harness's spelling (`perfbench/`), which ROADMAP item 1a retires.
    #[must_use]
    pub fn new(mut inner: Optimizer, config: CacheConfig) -> Self {
        inner.cache = config.enabled.then(Arc::default);
        inner.delta = None;
        inner
    }

    /// Enable (or explicitly disable) delta slate compilation per `config`.
    #[must_use]
    pub fn with_delta(mut self, config: DeltaConfig) -> Self {
        self.delta = config.enabled.then(Arc::default);
        self
    }

    #[must_use]
    pub fn cache(&self) -> Option<&CompileCache> {
        self.cache.as_deref()
    }

    /// Compile-cache counter snapshot; all-zero when there is no cache.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache
            .as_deref()
            .map(CompileCache::stats)
            .unwrap_or_default()
    }

    /// Delta-compiler counter snapshot; all-zero when there is no delta
    /// compiler.
    #[must_use]
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta
            .as_deref()
            .map(DeltaCompiler::stats)
            .unwrap_or_default()
    }

    /// Compile a logical plan under a rule configuration: through the
    /// compile cache when there is one, from scratch otherwise.
    ///
    /// With both the cache and the delta compiler, a *default-
    /// configuration* miss compiles through [`DeltaCompiler::base_for`]
    /// instead: the pipeline compiles every plan's default configuration
    /// anyway (production view build, span fixpoint), and retaining that
    /// compilation's explored memo as the plan's [`crate::delta::BaseMemo`]
    /// costs ~a quarter of rebuilding it later — which is what made delta
    /// slates pay off even for fresh-literal workloads whose plans never
    /// recur across days. The returned `Compiled` is the identical artifact
    /// either way.
    pub fn compile(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<Compiled, CompileError> {
        match (&self.cache, &self.delta) {
            (Some(cache), Some(delta)) if *config == self.default_config() => {
                cache.get_or_compile(plan, config, || {
                    delta
                        .base_for(self, plan, config)
                        .map(|base| base.compiled().clone())
                })
            }
            _ => self.compile_unsteered(plan, config),
        }
    }

    /// Compile a plan the pipeline will never steer (an ad-hoc job: hints
    /// are keyed by template and only recurring templates come back). The
    /// result is [`Optimizer::compile`]'s; the difference is what stays
    /// behind. It goes through the compile cache, but never through the
    /// delta compiler's base builder, so an ad-hoc job leaves no base memo
    /// behind to churn the recurring jobs' memos out of the FIFO. It keeps
    /// its compile-cache entry: fleet tenants that share a workload seed
    /// share their ad-hoc plans too.
    pub fn compile_unsteered(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<Compiled, CompileError> {
        self.searched(plan, config)
    }

    /// A compile's [`Price`] alone: what the span fixpoint reads of its
    /// flipped recompiles. Cached like [`Optimizer::compile_unsteered`],
    /// stored as a price entry on a miss (there is no base to beat); its
    /// search extracts no plan.
    pub(crate) fn price(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<Price, CompileError> {
        self.searched(plan, config)
            .map(|entry: CacheEntry| entry.price())
    }

    /// A search keeping what `K` keeps, through the compile cache when
    /// there is one.
    fn searched<K: Kept>(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<K, CompileError> {
        match &self.cache {
            Some(cache) => {
                cache.get_or_compile(plan, config, || self.compile_uncached(plan, config))
            }
            None => self.compile_uncached(plan, config),
        }
    }

    /// Compile a *slate* of treatment configurations against one base
    /// configuration of the same plan: flighting's validation compiles,
    /// which execute what they compile. Compile-cache lookups come first
    /// (a price-only entry is a miss, upgraded in place), then one
    /// [`DeltaCompiler::compile_slate`] over the misses (inserting its
    /// byte-identical results under the same `(fingerprint, RuleBits)` keys
    /// a from-scratch compile would use). Without a delta compiler each
    /// treatment goes through [`Optimizer::compile`]. One result per
    /// treatment, in input order.
    pub fn compile_slate(
        &self,
        plan: &LogicalPlan,
        base: &RuleConfig,
        treatments: &[RuleConfig],
    ) -> Vec<Result<Compiled, CompileError>> {
        self.slate(plan, base, treatments)
    }

    /// Price a slate of treatment configurations against one base
    /// configuration of the same plan: recommendation's candidate pricing,
    /// which reads only each treatment's estimated cost. The same lookups
    /// and delta pass as [`Optimizer::compile_slate`], and bit for bit its
    /// `est_cost` (or error) per treatment, but a miss is extracted with
    /// node building off and stored as a price entry: no plan is built,
    /// copied or kept — unless the delta compiler priced it below the base
    /// configuration's cost, the est-cost gate's flight candidates, whose
    /// plan is built in the same pass and stored for flighting.
    pub fn price_slate(
        &self,
        plan: &LogicalPlan,
        base: &RuleConfig,
        treatments: &[RuleConfig],
    ) -> Vec<Result<f64, CompileError>> {
        self.slate::<CacheEntry>(plan, base, treatments)
            .into_iter()
            .map(|result| result.map(|entry| entry.price().est_cost))
            .collect()
    }

    /// The body of [`Optimizer::compile_slate`] and
    /// [`Optimizer::price_slate`], keeping what `K` keeps.
    fn slate<K: Kept>(
        &self,
        plan: &LogicalPlan,
        base: &RuleConfig,
        treatments: &[RuleConfig],
    ) -> Vec<Result<K, CompileError>> {
        let Some(delta) = &self.delta else {
            return treatments
                .iter()
                .map(|treatment| self.searched(plan, treatment))
                .collect();
        };
        let cache = self.cache.as_deref();
        let cached: Vec<Option<Result<K, CompileError>>> = treatments
            .iter()
            .map(|treatment| cache.and_then(|cache| cache.lookup(plan, treatment)))
            .collect();
        let missed: Vec<RuleConfig> = treatments
            .iter()
            .zip(&cached)
            .filter_map(|(treatment, hit)| hit.is_none().then_some(*treatment))
            .collect();
        let mut priced = delta.slate::<K>(self, plan, base, &missed).into_iter();
        cached
            .into_iter()
            .zip(treatments)
            .map(|(hit, treatment)| {
                hit.unwrap_or_else(|| {
                    #[expect(
                        clippy::expect_used,
                        reason = "DeltaCompiler::slate prices every missed treatment"
                    )]
                    let result = priced.next().expect("one priced result per cache miss");
                    match cache {
                        Some(cache) => cache.insert(plan, treatment, &result),
                        None => result,
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleFlip;
    use scope_lang::{bind_script, Catalog};

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        big   = SELECT user, spend FROM sales WHERE spend > 100;
        j     = SELECT * FROM big AS b JOIN users AS u ON b.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
    "#;

    fn plan() -> LogicalPlan {
        bind_script(SCRIPT, &Catalog::default()).unwrap()
    }

    #[test]
    fn hit_returns_identical_compiled_result() {
        let opt = Optimizer::default();
        let cache = CompileCache::default();
        let p = plan();
        let cfg = opt.default_config();
        let first = cache
            .get_or_compile(&p, &cfg, || opt.compile(&p, &cfg))
            .unwrap();
        let second = cache
            .get_or_compile(&p, &cfg, || opt.compile(&p, &cfg))
            .unwrap();
        assert_eq!(first.physical, second.physical);
        assert_eq!(first.signature, second.signature);
        assert!((first.est_cost - second.est_cost).abs() < 1e-12);
        let direct = opt.compile(&p, &cfg).unwrap();
        assert_eq!(second.physical, direct.physical, "cache is transparent");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_configs_and_plans_get_distinct_entries() {
        let opt = Optimizer::default();
        let cache = CompileCache::default();
        let p = plan();
        let default = opt.default_config();
        // Same plan, two configs.
        let off_rule = opt
            .rules()
            .rules()
            .iter()
            .find(|r| r.category == crate::registry::RuleCategory::OffByDefault)
            .unwrap()
            .id;
        let flipped = default.with_flip(RuleFlip {
            rule: off_rule,
            enable: true,
        });
        let _ = cache.get_or_compile(&p, &default, || opt.compile(&p, &default));
        let _ = cache.get_or_compile(&p, &flipped, || opt.compile(&p, &flipped));
        assert_eq!(cache.len(), 2);
        // Same template, different literal => different plan fingerprint.
        let other = bind_script(
            &SCRIPT.replace("spend > 100", "spend > 200"),
            &Catalog::default(),
        )
        .unwrap();
        assert_eq!(other.template_id(), p.template_id());
        assert_ne!(
            CompileCache::plan_fingerprint(&other),
            CompileCache::plan_fingerprint(&p),
            "literal changes must change the cache key even though the \
             template id is literal-invariant"
        );
    }

    #[test]
    fn cached_rule_instability_is_replayed_not_recompiled() {
        let opt = Optimizer::default();
        let cache = CompileCache::default();
        let p = plan();
        let default = opt.default_config();
        // Find any single flip whose compilation fails with RuleInstability.
        let mut failing = None;
        for rule in opt.rules().flippable() {
            let cfg = default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            });
            if let Err(CompileError::RuleInstability { .. }) = opt.compile(&p, &cfg) {
                failing = Some(cfg);
                break;
            }
        }
        let Some(cfg) = failing else {
            // Astronomically unlikely across 200+ flippable rules, but the
            // instability draws are seeded: tolerate a lucky template.
            return;
        };
        let first = cache.get_or_compile(&p, &cfg, || opt.compile(&p, &cfg));
        let second = cache.get_or_compile(&p, &cfg, || opt.compile(&p, &cfg));
        assert!(matches!(first, Err(CompileError::RuleInstability { .. })));
        assert_eq!(first, second, "the cached failure replays identically");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "the second lookup must hit (no recompile of the known failure)"
        );
    }

    #[test]
    fn capacity_evicts_oldest_entries_fifo() {
        let opt = Optimizer::default();
        // One shard, room for exactly 2 entries.
        let cache = CompileCache::sized(2, 1);
        let p = plan();
        let default = opt.default_config();
        let mut configs = Vec::new();
        for rule in opt.rules().flippable().take(3) {
            configs.push(default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            }));
        }
        for cfg in &configs {
            let _ = cache.get_or_compile(&p, cfg, || opt.compile(&p, cfg));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Oldest (configs[0]) was evicted: looking it up again misses.
        let before = cache.stats();
        let _ = cache.get_or_compile(&p, &configs[0], || opt.compile(&p, &configs[0]));
        assert_eq!(cache.stats().since(&before).misses, 1);
        // Newest still hits.
        let before = cache.stats();
        let _ = cache.get_or_compile(&p, &configs[2], || opt.compile(&p, &configs[2]));
        assert_eq!(cache.stats().since(&before).hits, 1);
    }

    #[test]
    fn evictions_enforce_the_per_shard_capacity() {
        let opt = Optimizer::default();
        // Several shards, one entry of headroom each (per-shard attribution
        // itself is `ShardedCache`'s `evictions_attributed_per_shard`).
        let cache = CompileCache::sized(4, 4);
        let p = plan();
        let default = opt.default_config();
        for rule in opt.rules().flippable().take(12) {
            let cfg = default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            });
            let _ = cache.get_or_compile(&p, &cfg, || opt.compile(&p, &cfg));
        }
        let total = cache.stats().evictions;
        // 12 inserts into 4 shards of capacity 1 must evict somewhere...
        assert!(total > 0, "per-shard capacity must have been exceeded");
        // ...and live entries respect the per-shard cap.
        assert_eq!(cache.stats().inserts, 12);
        assert_eq!(cache.len() as u64 + total, 12);
    }

    #[test]
    fn lookup_and_insert_mirror_get_or_compile_counters() {
        let opt = Optimizer::default();
        let cache = CompileCache::default();
        let p = plan();
        let cfg = opt.default_config();
        assert!(cache.lookup::<Compiled>(&p, &cfg).is_none());
        assert_eq!(cache.stats().misses, 1);
        let result = opt.compile(&p, &cfg);
        let stored = cache.insert(&p, &cfg, &result);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(stored, result, "the stored copy equals what was priced");
        let looked_up = cache
            .lookup::<Compiled>(&p, &cfg)
            .expect("inserted result hits");
        assert!(Arc::ptr_eq(
            &looked_up.unwrap().physical,
            &stored.unwrap().physical
        ));
        assert_eq!(cache.stats().hits, 1);
        // Duplicate insert: first writer wins, no double count.
        let _ = cache.insert(&p, &cfg, &result);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.len(), 1);
    }

    /// Hits share the one compact copy the insert made instead of copying
    /// the plan, and that copy carries its fingerprint memo, so every holder
    /// (the execution cache's key lookup) reads it with one atomic load. A
    /// base memo's plan is that copy for its default configuration's entry
    /// and for every pruned treatment's.
    #[test]
    fn hits_share_the_stored_plan_and_its_fingerprint_memo() {
        let cached = Optimizer::new(Optimizer::default(), CacheConfig::default())
            .with_delta(DeltaConfig::default());
        let p = plan();
        let default = cached.default_config();
        let flipped = default.with_flip(RuleFlip {
            rule: crate::registry::RULE_SHUFFLE_ELIMINATION,
            enable: false,
        });
        // The default configuration's miss goes through the base builder,
        // the flipped one's through a plain compile: both store one copy.
        for cfg in [default, flipped] {
            let miss = cached.compile(&p, &cfg).unwrap();
            let first = cached.compile(&p, &cfg).unwrap();
            let second = cached.compile(&p, &cfg).unwrap();
            assert!(Arc::ptr_eq(&first.physical, &second.physical));
            assert!(Arc::ptr_eq(&miss.physical, &first.physical));
            assert!(first.physical.is_fingerprinted(), "pre-warmed on insert");
            let direct = Optimizer::default().compile(&p, &cfg).unwrap();
            assert!(!direct.physical.is_fingerprinted());
            assert_eq!(direct, first, "sharing is invisible to equality");
            assert_eq!(first.physical.fingerprint(), direct.physical.fingerprint());
        }
        assert_eq!(cached.stats().hits, 4);

        let delta = cached.delta.as_deref().unwrap();
        let base = delta.base_for(&cached, &p, &default).unwrap();
        let plan = &base.compiled().physical;
        assert!(plan.is_fingerprinted());
        let entry = cached.compile(&p, &default).unwrap();
        assert!(
            Arc::ptr_eq(plan, &entry.physical),
            "the default entry is the base's plan"
        );
        let pruned = cached
            .rules()
            .flippable()
            .map(|rule| {
                default.with_flip(RuleFlip {
                    rule,
                    enable: !default.enabled(rule),
                })
            })
            .find(|t| {
                matches!(
                    base.price(&cached, t),
                    crate::PricedTreatment::Pruned(Ok(_))
                )
            })
            .expect("some flip of the plan prunes");
        let [priced] = &cached.compile_slate(&p, &default, &[pruned])[..] else {
            panic!("one result per treatment");
        };
        assert!(Arc::ptr_eq(plan, &priced.as_ref().unwrap().physical));
        let hit = cached.compile(&p, &pruned).unwrap();
        assert!(
            Arc::ptr_eq(plan, &hit.physical),
            "and so is its cache entry"
        );
    }

    /// A price entry serves pricing; a plan caller reads it as one miss,
    /// compiles, and replaces it in place: the plan equals a fresh
    /// compile's, `len()` and the entry's FIFO place are unchanged, later
    /// plan lookups hit it, and a later price never downgrades it.
    #[test]
    fn a_plan_lookup_after_a_price_upgrades_the_entry_in_place() {
        let opt = Optimizer::default();
        let cache = CompileCache::sized(2, 1);
        let p = plan();
        let default = opt.default_config();
        let [a, b, c]: [RuleConfig; 3] = [
            crate::registry::RULE_SHUFFLE_ELIMINATION,
            crate::registry::RULE_INTERMEDIATE_COMPRESSION,
            crate::registry::RULE_EXCHANGE_PLACEMENT,
        ]
        .map(|rule| {
            default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            })
        });
        let price = |cfg: &RuleConfig| {
            cache.get_or_compile(&p, cfg, || opt.compile_uncached::<CacheEntry>(&p, cfg))
        };
        let compile = |cfg: &RuleConfig| {
            cache.get_or_compile(&p, cfg, || opt.compile_uncached::<Compiled>(&p, cfg))
        };
        let priced = price(&a).unwrap().price();
        let _ = price(&b);
        assert_eq!((cache.len(), cache.stats().inserts), (2, 2));

        let before = cache.stats();
        let upgraded = compile(&a).unwrap();
        assert_eq!(
            upgraded,
            opt.compile(&p, &a).unwrap(),
            "a fresh compile's plan"
        );
        assert_eq!(upgraded.price(), priced);
        assert_eq!(upgraded.est_cost.to_bits(), priced.est_cost.to_bits());
        let traffic = cache.stats().since(&before);
        assert_eq!((traffic.hits, traffic.misses, traffic.inserts), (0, 1, 0));
        assert_eq!(cache.len(), 2, "replaced in place");

        let before = cache.stats();
        assert!(
            matches!(price(&a), Ok(CacheEntry::Plan(_))),
            "a price reads the plan entry"
        );
        // A racing pricer that missed before the upgrade stores its price
        // late: the plan stays.
        let _ = cache.insert(&p, &a, &Ok(CacheEntry::Price(priced)));
        let hit = compile(&a).unwrap();
        assert!(
            Arc::ptr_eq(&hit.physical, &upgraded.physical),
            "not downgraded"
        );
        assert_eq!(cache.stats().since(&before).hits, 2);

        // The upgraded entry kept its place: the oldest, so evicted first.
        let _ = price(&c);
        let before = cache.stats();
        assert!(cache.lookup::<CacheEntry>(&p, &a).is_none());
        assert!(cache.lookup::<CacheEntry>(&p, &b).is_some());
        assert_eq!(cache.stats().since(&before).misses, 1);
    }

    #[test]
    fn unsteered_compiles_share_the_cache_but_build_no_base_memo() {
        let steering = Optimizer::new(Optimizer::default(), CacheConfig::default())
            .with_delta(DeltaConfig::default());
        let p = plan();
        let default = steering.default_config();
        let unsteered = steering.compile_unsteered(&p, &default);
        assert_eq!(steering.delta_stats(), DeltaStats::default());
        assert_eq!(unsteered, Optimizer::default().compile(&p, &default));
        // Either entry point then hits the one compile-cache entry.
        let steered = steering.compile(&p, &default);
        assert_eq!(steered, unsteered);
        let stats = steering.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(steering.delta_stats().base_builds, 0);
    }

    #[test]
    fn caching_optimizer_is_transparent_and_countable() {
        let cached = Optimizer::new(Optimizer::default(), CacheConfig::default());
        let uncached = Optimizer::new(Optimizer::default(), CacheConfig::disabled());
        let p = plan();
        let cfg = cached.default_config();
        let a = cached.compile(&p, &cfg).unwrap();
        let b = cached.compile(&p, &cfg).unwrap();
        let c = uncached.compile(&p, &cfg).unwrap();
        assert_eq!(a.physical, b.physical);
        assert_eq!(a.physical, c.physical);
        assert_eq!(cached.stats().hits, 1);
        assert_eq!(uncached.stats(), CacheStats::default());
        assert!(uncached.cache().is_none());
    }

    /// Fleet-wide sharing rests on `Clone`: a clone of a cached optimizer
    /// reads and writes the original's caches, never fresh ones.
    #[test]
    fn clones_share_the_compile_cache_and_the_delta_compiler() {
        let original = Optimizer::new(Optimizer::default(), CacheConfig::default())
            .with_delta(DeltaConfig::default());
        let clone = original.clone();
        let p = plan();
        let default = original.default_config();
        let flipped = default.with_flip(RuleFlip {
            rule: crate::registry::RULE_SHUFFLE_ELIMINATION,
            enable: false,
        });
        clone.compile(&p, &default).unwrap();
        let _ = clone.compile_slate(&p, &default, &[flipped]);
        let stats = original.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 2, 2));
        let delta = original.delta_stats();
        assert_eq!((delta.base_builds, delta.base_hits), (1, 1));
        assert_eq!(delta.treatments(), 1);
        // And the other way round: the original hits what the clone stored.
        let _ = original.compile(&p, &flipped);
        assert_eq!(clone.stats().hits, 1);
    }

    #[test]
    fn clear_empties_every_shard() {
        let opt = Optimizer::default();
        let cache = CompileCache::default();
        let p = plan();
        let cfg = opt.default_config();
        let _ = cache.get_or_compile(&p, &cfg, || opt.compile(&p, &cfg));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn config_defaults_and_disabled() {
        let c = CacheConfig::default();
        assert!(c.enabled);
        assert!(!CacheConfig::disabled().enabled);
    }
}
