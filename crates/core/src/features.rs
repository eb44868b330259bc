//! CB featurization (paper §3.2, §4.2, §6).
//!
//! * **Context** = Table-1 job features (log-bucketed: the dynamic ranges of
//!   costs and cardinalities span many decades) + the complete job span as
//!   indicator features, *"especially when interacted to create second and
//!   third order co-occurrence indicators"* (§3.2) — the paper calls these
//!   span features "critical to our success" (§6).
//! * **Actions** = the no-op plus one flip per span rule, featurized by rule
//!   id and rule category (§4.2).

use personalizer::{FeatureVector, SlateTail, SparseSlate};
use scope_ir::ids::{combine, SLATE_ACTION_SENTINEL, SLATE_FP_SEED};
use scope_ir::{ShardedCache, TemplateId};
use scope_opt::{CacheStats, RuleFlip, RuleSet, SpanResult};
use scope_workload::Table1Features;
use std::sync::{Arc, OnceLock};

/// Build the CB context vector for one job.
///
/// The context is the concatenation [`job_features`] ⧺ [`span_block`], in
/// that item order — callers that cache the (template-stable) span block
/// rebuild the identical vector by extending the job block with the cached
/// one.
#[must_use]
pub fn context_features(
    table1: &Table1Features,
    span: &SpanResult,
    max_span_for_triples: usize,
) -> FeatureVector {
    let mut fv = job_features(table1);
    fv.extend_from(&span_block(span, max_span_for_triples));
    fv
}

/// The per-instance half of the CB context: Table-1 job features,
/// log-bucketed (the dynamic ranges of costs and cardinalities span many
/// decades).
#[must_use]
pub fn job_features(table1: &Table1Features) -> FeatureVector {
    let mut fv = FeatureVector::new();
    fv.log_bucket("job", "est_cost", table1.estimated_cost);
    fv.log_bucket("job", "est_cards", table1.estimated_cardinalities);
    fv.log_bucket("job", "bytes_read", table1.bytes_read);
    fv.log_bucket("job", "row_count", table1.row_count);
    fv.log_bucket("job", "latency", table1.latency);
    fv.log_bucket("job", "pn_hours", table1.pn_hours);
    fv.log_bucket("job", "vertices", table1.total_vertices);
    fv.log_bucket("job", "max_memory", table1.max_memory);
    fv.log_bucket("job", "avg_row_len", table1.avg_row_length);
    fv.flag_fmt("job", format_args!("name:{}", table1.normalized_name));
    fv.flag_fmt("job", format_args!("qtpl:{:x}", table1.query_template));
    fv
}

/// The template-stable half of the CB context: the complete span as
/// indicators + co-occurrence interactions. The higher-order indicators are
/// down-weighted: under normalized SGD the correction is distributed by
/// value², and with C(S,2)+C(S,3) of them they would otherwise drown the
/// action main effects that our (much smaller than SCOPE's) event volume can
/// actually estimate.
///
/// Spans are a pure function of the template's plan, so this block is
/// identical for every instance of a template on every day — which is why
/// [`FeatureCache`] can memoize it (in a [`SpanFeatures`] entry).
#[must_use]
pub fn span_block(span: &SpanResult, max_span_for_triples: usize) -> FeatureVector {
    let mut fv = FeatureVector::new();
    let rules: Vec<String> = span.span.iter().map(|r| r.to_string()).collect();
    for r in &rules {
        fv.flag("span", r);
    }
    for i in 0..rules.len() {
        for j in (i + 1)..rules.len() {
            fv.pair_weighted("span2", &rules[i], &rules[j], 0.25);
        }
    }
    if rules.len() <= max_span_for_triples {
        for i in 0..rules.len() {
            for j in (i + 1)..rules.len() {
                for k in (j + 1)..rules.len() {
                    fv.triple_weighted("span3", &rules[i], &rules[j], &rules[k], 0.1);
                }
            }
        }
    }
    fv
}

/// Span-feature-cache configuration (the `--feature-cache` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureCacheConfig {
    /// Disabled = rebuild the span block and action slate per job (the
    /// pre-cache behavior).
    pub enabled: bool,
}

impl Default for FeatureCacheConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl FeatureCacheConfig {
    /// A disabled cache (the `--feature-cache off` setting).
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Maximum cached entries of each map across all shards (FIFO per shard
/// beyond this). One span entry per live template and a few slates per
/// template. Not small next to the compile cache: slates that each kept
/// their own span crosses would be a day loop's largest heap holder, which
/// is why a slate holds only its job's rows ([`SpanFeatures::tail`]).
const CAPACITY: usize = 1 << 12;
/// Lock shards of each map.
const SHARDS: usize = 16;

/// Shard router for the span-feature cache: the key is already two hashes,
/// so one `combine` folds it.
fn span_key_hash(key: &(u64, u64)) -> u64 {
    combine(key.0, key.1)
}

/// `h` folded (`combine`) over every item's hashed feature id and
/// value-bit pattern, in order.
fn fold_items(h: u64, items: &[(u64, f64)]) -> u64 {
    items.iter().fold(h, |h, &(key, value)| {
        combine(combine(h, key), value.to_bits())
    })
}

/// The template-stable half of a job's features, built once per template:
/// the context's span block ([`span_block`]) and the action slate
/// ([`action_slate`]). Both are pure functions of the span (under the
/// advisor's fixed rule set and triple cap), so one [`FeatureCache`] entry
/// serves both, and the actions sit behind an `Arc` that every job of the
/// template shares with the bandit's pending events. So does the actions'
/// crosses with the block ([`SpanFeatures::tail`]), which every rank slate
/// of the template ends its rows with.
#[derive(Debug, Clone)]
pub struct SpanFeatures {
    /// The span block a job's context ends with (empty when the pipeline
    /// runs without span features), shared by every rank input of the
    /// template (`personalizer::RankInput::shared`).
    pub block: Arc<FeatureVector>,
    pub actions: Arc<Vec<FeatureVector>>,
    /// `flips[i]` is the configuration change `actions[i]` stands for.
    pub flips: Vec<Option<RuleFlip>>,
    /// Content fingerprint of `block` and `actions`: their items folded in
    /// order, with a boundary sentinel before each action. A rank slate's
    /// cache key folds only the job's own features and then this.
    fingerprint: u64,
    /// `SlateTail::build(block, actions, dim_bits)` at the first slate's
    /// `dim_bits`, built by that slate.
    tail: OnceLock<Arc<SlateTail>>,
}

/// Equal content: the tail and the fingerprint are functions of `block`
/// and `actions`, whether or not a slate has built the tail yet.
impl PartialEq for SpanFeatures {
    fn eq(&self, other: &Self) -> bool {
        (&self.block, &self.actions, &self.flips) == (&other.block, &other.actions, &other.flips)
    }
}

impl SpanFeatures {
    /// Both halves: [`span_block`] and [`action_slate`], verbatim.
    #[must_use]
    pub fn build(span: &SpanResult, rules: &RuleSet, max_span_for_triples: usize) -> Self {
        Self::with_block(span_block(span, max_span_for_triples), span, rules)
    }

    /// The action slate under an empty block: the template-stable features
    /// of a pipeline that leaves the span out of the context.
    #[must_use]
    pub fn actions_only(span: &SpanResult, rules: &RuleSet) -> Self {
        Self::with_block(FeatureVector::new(), span, rules)
    }

    fn with_block(block: FeatureVector, span: &SpanResult, rules: &RuleSet) -> Self {
        let (actions, flips) = action_slate(span, rules);
        let fingerprint = actions.iter().fold(
            fold_items(SLATE_FP_SEED.start(0), block.items()),
            |h, action| fold_items(SLATE_ACTION_SENTINEL.mix(h), action.items()),
        );
        Self {
            block: Arc::new(block),
            actions: Arc::new(actions),
            flips,
            fingerprint,
            tail: OnceLock::new(),
        }
    }

    /// Every action's crosses with `block`, folded for a `2^dim_bits`
    /// table ([`SlateTail::build`]). The first call builds the tail this
    /// entry keeps and every later call at the same `dim_bits` shares it;
    /// a call at another table size (one cache serving two) gets a tail of
    /// its own.
    #[must_use]
    pub fn tail(&self, dim_bits: u32) -> Arc<SlateTail> {
        let build = || Arc::new(SlateTail::build(&self.block, &self.actions, dim_bits));
        let kept = self.tail.get_or_init(build);
        if kept.dim_bits() == dim_bits {
            Arc::clone(kept)
        } else {
            build()
        }
    }

    /// The rank slate of a job whose own features are `job`, for a
    /// `2^dim_bits` table: row for row `SparseSlate::build(job ⧺ block,
    /// actions)`, owning only the main effects and the crosses with `job`.
    #[must_use]
    pub fn slate(&self, job: &FeatureVector, dim_bits: u32) -> SparseSlate {
        SparseSlate::split(job, &self.actions, self.tail(dim_bits))
    }
}

/// The span-feature cache: built [`SpanFeatures`] (span block plus action
/// slate) keyed by `(template id, span fingerprint)` in a
/// [`scope_ir::ShardedCache`] (the workspace-wide lock-sharded FIFO cache).
/// The span fingerprint acts as the epoch: if a template's span ever changed
/// (e.g. a different rule universe), the old entry is simply never looked up
/// again.
///
/// Construction is deterministic, so a cached entry is byte-identical to a
/// rebuilt one — like every other cache in the workspace this is a
/// throughput knob, never a behavior knob (asserted in
/// `tests/determinism.rs`). The C(S,2)+C(S,3) interaction block costs
/// O(S³) string formatting + hashing per build, and the action slate three
/// formatted names per span rule; warm days previously paid that per *job*,
/// the cache pays it per *template*.
#[derive(Debug)]
pub struct FeatureCache {
    entries: ShardedCache<(u64, u64), Arc<SpanFeatures>>,
    /// Built rank slates keyed by `(template id, slate fingerprint)` — the
    /// downstream sibling of `entries`: once the context is assembled, the
    /// CSR fold of the whole `(context, actions)` slate is itself
    /// template-stable on warm days (the Table-1 half of the context is
    /// log-bucketed, so run-to-run noise rarely moves a bucket), and
    /// fingerprinting the inputs costs ~2% of refolding them.
    slates: ShardedCache<(u64, u64), Arc<SparseSlate>>,
}

impl Default for FeatureCache {
    fn default() -> Self {
        Self::sized(CAPACITY, SHARDS)
    }
}

impl FeatureCache {
    fn sized(capacity: usize, shards: usize) -> Self {
        Self {
            entries: ShardedCache::new(capacity, shards, span_key_hash),
            slates: ShardedCache::new(capacity, shards, span_key_hash),
        }
    }

    /// The span features for `template`, built via [`SpanFeatures::build`]
    /// on miss and memoized. Bit-identical to building them directly; the
    /// key leaves out `rules` and `max_span_for_triples` because one cache
    /// serves advisors that share both (see `SharedCaches`).
    #[must_use]
    pub fn span_features_for(
        &self,
        template: TemplateId,
        span: &SpanResult,
        rules: &RuleSet,
        max_span_for_triples: usize,
    ) -> Arc<SpanFeatures> {
        self.entries
            .get_or_insert_with((template.0, span.span.fingerprint()), || {
                Arc::new(SpanFeatures::build(span, rules, max_span_for_triples))
            })
    }

    /// The built rank slate for a job with own features `job` under
    /// `template` ([`SpanFeatures::slate`]), memoized by content
    /// fingerprint. The key folds the job's items, then the fingerprint
    /// `features` carries, under `dim_bits`: every input of the pure fold,
    /// so a hit can only return the slate the caller would have built. A
    /// miss builds only the job's own segment; the tail is the entry's.
    #[must_use]
    pub fn slate_for(
        &self,
        template: TemplateId,
        job: &FeatureVector,
        features: &SpanFeatures,
        dim_bits: u32,
    ) -> Arc<SparseSlate> {
        let fingerprint = fold_items(SLATE_FP_SEED.start(u64::from(dim_bits)), job.items());
        let key = (template.0, combine(fingerprint, features.fingerprint));
        self.slates
            .get_or_insert_with(key, || Arc::new(features.slate(job, dim_bits)))
    }

    /// Lifetime counters (same vocabulary as the compile/execution caches),
    /// summed over the span-feature and slate maps.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.entries.stats() + self.slates.stats()
    }

    /// Cached span-feature entries and slates currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len() + self.slates.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.slates.is_empty()
    }
}

/// The action slate for a job: index 0 is the no-op ("changing nothing"),
/// followed by one flip per span rule (§3.2: the action count is `1 + S`).
#[must_use]
pub fn action_slate(
    span: &SpanResult,
    rules: &RuleSet,
) -> (Vec<FeatureVector>, Vec<Option<RuleFlip>>) {
    let default = rules.default_config();
    let mut features = Vec::with_capacity(1 + span.span.len());
    let mut flips = Vec::with_capacity(1 + span.span.len());

    let mut noop = FeatureVector::new();
    noop.flag("action", "noop");
    features.push(noop);
    flips.push(None);

    for rule_id in span.span.iter() {
        let def = rules.rule(rule_id);
        let enable = !default.enabled(rule_id);
        let mut fv = FeatureVector::new();
        fv.flag("action", &rule_id.to_string());
        fv.flag("action", &format!("cat:{}", def.category.name()));
        fv.flag("action", if enable { "dir:on" } else { "dir:off" });
        features.push(fv);
        flips.push(Some(RuleFlip {
            rule: rule_id,
            enable,
        }));
    }
    (features, flips)
}

/// Clipped reward (§4.2): ratio of default estimated cost over the
/// recompiled estimated cost, clipped at `clip` (paper: 2.0). Failures pay 0.
#[must_use]
pub fn reward_from_costs(default_cost: f64, new_cost: Option<f64>, clip: f64) -> f64 {
    match new_cost {
        Some(new) if new > 0.0 => (default_cost / new).min(clip),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_lang::{bind_script, Catalog};
    use scope_opt::{compute_span, Optimizer};

    fn sample_span() -> (Optimizer, SpanResult, Table1Features) {
        let opt = Optimizer::default();
        let plan = bind_script(
            r#"
            a = EXTRACT k:int, v:float FROM "t1";
            b = EXTRACT k:int, g:int FROM "t2";
            j = SELECT * FROM a JOIN b ON a.k == b.k;
            r = SELECT g, SUM(v) AS s FROM j GROUP BY g;
            OUTPUT r TO "o";
        "#,
            &Catalog::default(),
        )
        .unwrap();
        let span = compute_span(&opt, &plan, 6).unwrap();
        let t1 = Table1Features {
            normalized_name: "JoinAgg_x".into(),
            latency: 120.0,
            estimated_cost: 1e9,
            query_template: 42,
            total_vertices: 64.0,
            estimated_cardinalities: 2e6,
            bytes_read: 4e10,
            max_memory: 1e8,
            avg_memory: 5e7,
            avg_row_length: 24.0,
            row_count: 2e6,
            pn_hours: 3.4,
        };
        (opt, span, t1)
    }

    #[test]
    fn context_contains_span_and_interactions() {
        let (_, span, t1) = sample_span();
        let s = span.len();
        let fv = context_features(&t1, &span, 12);
        // 11 job features + S span flags + C(S,2) pairs (+ triples when small).
        let pairs = s * (s - 1) / 2;
        assert!(fv.len() >= 11 + s + pairs, "len {} for span {s}", fv.len());
    }

    #[test]
    fn triples_are_capped_by_span_size() {
        let (_, span, t1) = sample_span();
        let with = context_features(&t1, &span, 64);
        let without = context_features(&t1, &span, 0);
        assert!(with.len() > without.len(), "triples add features");
    }

    #[test]
    fn action_slate_is_one_plus_span() {
        let (opt, span, _) = sample_span();
        let (features, flips) = action_slate(&span, opt.rules());
        assert_eq!(features.len(), 1 + span.len());
        assert_eq!(flips.len(), features.len());
        assert!(flips[0].is_none(), "index 0 is the no-op");
        // Every flip toggles the rule's default state.
        let default = opt.rules().default_config();
        for f in flips.iter().flatten() {
            assert_eq!(f.enable, !default.enabled(f.rule));
        }
    }

    #[test]
    fn context_is_job_block_concat_span_block() {
        let (_, span, t1) = sample_span();
        let whole = context_features(&t1, &span, 12);
        let mut split = job_features(&t1);
        split.extend_from(&span_block(&span, 12));
        assert_eq!(whole, split, "split halves concatenate bit-identically");
    }

    #[test]
    fn feature_cache_returns_identical_blocks_and_counts() {
        let (opt, span, _) = sample_span();
        let cache = FeatureCache::default();
        let t = TemplateId(9);
        let a = cache.span_features_for(t, &span, opt.rules(), 12);
        let b = cache.span_features_for(t, &span, opt.rules(), 12);
        assert_eq!(
            *a.block,
            span_block(&span, 12),
            "miss builds the real block"
        );
        let (actions, flips) = action_slate(&span, opt.rules());
        assert_eq!(*a.actions, actions, "and the real action slate");
        assert_eq!(*a.flips, *flips);
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the entry");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(cache.len(), 1);
        // A different template is a separate entry even with the same span.
        let _ = cache.span_features_for(TemplateId(10), &span, opt.rules(), 12);
        assert_eq!(cache.len(), 2);
    }

    /// A slate's rows as (table slot, value bits), whatever its layout.
    fn rows(slate: &SparseSlate) -> Vec<Vec<(usize, u64)>> {
        (0..slate.num_actions())
            .map(|i| slate.row(i).map(|(s, v)| (s, v.to_bits())).collect())
            .collect()
    }

    #[test]
    fn slate_cache_returns_identical_slates_and_keys_by_content() {
        let (opt, span, t1) = sample_span();
        let cache = FeatureCache::default();
        let t = TemplateId(9);
        let features = SpanFeatures::build(&span, opt.rules(), 12);
        let job = job_features(&t1);
        let context = context_features(&t1, &span, 12);
        let a = cache.slate_for(t, &job, &features, 18);
        let b = cache.slate_for(t, &job, &features, 18);
        assert_eq!(
            rows(&a),
            rows(&SparseSlate::build(&context, &features.actions, 18)),
            "miss builds the real slate"
        );
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the slate");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        // Any input change — a job item, the span features, or dim_bits —
        // is a different key, so a hit can never cross contents.
        let mut other_job = job_features(&t1);
        other_job.flag("job", "extra");
        let mut other_ctx = other_job.clone();
        other_ctx.extend_from(&features.block);
        let c = cache.slate_for(t, &other_job, &features, 18);
        assert_eq!(
            rows(&c),
            rows(&SparseSlate::build(&other_ctx, &features.actions, 18))
        );
        // The entry's tail is folded for 18 bits; a 20-bit slate folds its own.
        let d = cache.slate_for(t, &job, &features, 20);
        assert_eq!(d.dim_bits(), 20);
        assert_eq!(
            rows(&d),
            rows(&SparseSlate::build(&context, &features.actions, 20))
        );
        let bare = SpanFeatures::actions_only(&span, opt.rules());
        let e = cache.slate_for(t, &job, &bare, 18);
        assert_eq!(rows(&e), rows(&SparseSlate::build(&job, &bare.actions, 18)));
        let fewer_triples = SpanFeatures::build(&span, opt.rules(), 0);
        let f = cache.slate_for(t, &job, &fewer_triples, 18);
        assert_eq!(
            rows(&f),
            rows(&SparseSlate::build(
                &context_features(&t1, &span, 0),
                &fewer_triples.actions,
                18
            ))
        );
        assert_eq!(
            f.nnz() < a.nnz(),
            fewer_triples.block.len() < features.block.len()
        );
        assert_eq!(cache.stats().misses, 5);
    }

    /// Two jobs of one template with different job blocks share one tail,
    /// and each slate owns only its job's rows: main effects and the job
    /// block's crosses, Σ_a |a|·(1 + |job|) items. A slate that copied the
    /// span crosses again fails here.
    #[test]
    fn slates_of_a_template_share_one_tail() {
        let (opt, span, t1) = sample_span();
        let cache = FeatureCache::default();
        let t = TemplateId(9);
        let features = cache.span_features_for(t, &span, opt.rules(), 12);
        let job_a = job_features(&t1);
        let job_b = job_features(&Table1Features {
            latency: 1e5,
            ..t1.clone()
        });
        assert_ne!(job_a, job_b);
        let a = cache.slate_for(t, &job_a, &features, 18);
        let b = cache.slate_for(t, &job_b, &features, 18);
        assert!(!Arc::ptr_eq(&a, &b), "different jobs, different slates");
        assert!(Arc::ptr_eq(a.tail(), b.tail()), "one tail per template");
        assert!(Arc::ptr_eq(a.tail(), &features.tail(18)));
        for (slate, job) in [(&a, &job_a), (&b, &job_b)] {
            let own: usize = features
                .actions
                .iter()
                .map(|x| x.len() * (1 + job.len()))
                .sum();
            assert_eq!(slate.own_nnz(), own);
        }
        let block: usize = features
            .actions
            .iter()
            .map(|x| x.len() * features.block.len())
            .sum();
        assert!(block > 0);
        assert_eq!(a.tail().nnz(), block);
    }

    #[test]
    fn feature_cache_evicts_fifo_beyond_capacity() {
        let (opt, span, _) = sample_span();
        let cache = FeatureCache::sized(2, 1);
        for t in 0..3 {
            let _ = cache.span_features_for(TemplateId(t), &span, opt.rules(), 12);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted entry rebuilds to the same features.
        let again = cache.span_features_for(TemplateId(0), &span, opt.rules(), 12);
        assert_eq!(*again, SpanFeatures::build(&span, opt.rules(), 12));
    }

    #[test]
    fn reward_follows_paper_clipping() {
        assert!(
            (reward_from_costs(100.0, Some(50.0), 2.0) - 2.0).abs() < 1e-12,
            "clipped at 2"
        );
        assert!((reward_from_costs(100.0, Some(80.0), 2.0) - 1.25).abs() < 1e-12);
        assert!((reward_from_costs(100.0, Some(200.0), 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(
            reward_from_costs(100.0, None, 2.0),
            0.0,
            "failures pay zero"
        );
    }
}
