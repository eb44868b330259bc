//! Delta treatment compilation over a shared base memo.
//!
//! The steering pipeline's treatment compiles — recommendation's candidate
//! pricing and flighting's validation compiles — are single-rule-flip
//! perturbations of a plan's *default* compilation (paper §2.4: the action
//! space is edit distance 1 from the default configuration). A from-scratch
//! [`Optimizer::compile`] per treatment redoes the whole budgeted search,
//! even though almost all of it — exploration, the implementation pass over
//! every group, costing, extraction — is byte-identical to the default
//! compile. This is the cost Bao pays to price one query under many hint
//! sets (Marcus et al. 2020) and the recompilation overhead *Query
//! Optimization in the Wild* flags as the barrier to what-if steering at
//! fleet scale.
//!
//! [`BaseMemo`] freezes one configuration's full compilation — the explored
//! [`Memo`] (groups, logical expressions with rule provenance, physical
//! candidates, per-group [`crate::memo::Best`] tables), the root groups, the
//! *fired-transform* trace, and the [`Compiled`] result — as a shareable,
//! immutable artifact. Each treatment is then priced by the cheapest sound
//! method, chosen from the flip's provenance:
//!
//! * **Pruned** — the flip provably cannot change the memo: a disabled
//!   transform that never fired (it consumed no exploration budget, so the
//!   treatment's exploration trace is bit-identical), an enabled transform
//!   with no match anywhere in the final memo (rewrite production is
//!   monotone in memo growth, so it matches at no earlier state either), or
//!   a disabled implementation rule absent from the base signature (its
//!   candidates never won, and removing non-winners cannot displace a
//!   first-index minimum). The base [`Compiled`] is reused directly — after
//!   replaying the *instability draws*, which depend on the treatment's
//!   configuration fingerprint and can still fail the treatment even though
//!   the plan is unchanged.
//! * **Delta** — the flip only touches the implementation layer (an
//!   implementation/parametric rule, or a policy rule): exploration is
//!   unchanged, so the base memo's groups are reused; only groups whose
//!   logical operators match the flipped rule's target tag are
//!   re-implemented (all groups, for a policy flip), their ancestors' `Best`
//!   entries invalidated through the reverse logical edges, and costing +
//!   extraction re-run — clean groups are memoized hits.
//! * **Full** — the flip changes what exploration does (a fired transform
//!   disabled, or an enabled transform that matches): the budgeted,
//!   order-dependent search cannot be patched soundly, so the whole search
//!   is replayed through the optimizer's unchecked search entry (skipping
//!   re-validation and the already-replayed disable-path check — exactly
//!   the checks a from-scratch compile would redo and pass). With 18 of 256
//!   rules being transforms, this is the rare case; the replayed task
//!   counts land in [`DeltaStats::replay_tasks`].
//!
//! All three paths are **byte-identical** to a from-scratch compile of the
//! treatment configuration — including `RuleInstability` failures, which
//! replay with the same rule in the same check order
//! (`tests/delta_equivalence.rs` asserts this exhaustively over seeded
//! workload days).
//!
//! [`DeltaCompiler`] adds the fleet-scale piece: a sharded, FIFO-bounded
//! cache of `Arc<BaseMemo>`s keyed by `(plan fingerprint, base
//! configuration)`, so the base memo for a recurring plan is built once and
//! shared across treatments, stages, and — under sticky literals — days.
//! An [`Optimizer`] that owns one routes [`Optimizer::compile_slate`]
//! through it, layering the compile-result cache on top (delta results
//! insert under the same `(fingerprint, RuleBits)` keys, so cached and
//! delta-compiled runs stay interchangeable byte-for-byte).

use crate::config::{RuleBits, RuleConfig};
use crate::memo::{GroupId, Memo};
use crate::registry::{impl_targets, RuleBehavior, TransformKind};
use crate::rules::apply_transform;
use crate::search::{CompileError, Compiled, Optimizer};
use rustc_hash::FxHashMap;
use scope_ir::ids::combine;
use scope_ir::logical::LogicalPlan;
use scope_ir::sharded::ShardedCache;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// The delta compiler's one knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DeltaConfig {
    /// Master switch. Disabled, every slate compile goes through the
    /// ordinary per-treatment path (byte-identical, only slower).
    pub enabled: bool,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl DeltaConfig {
    /// Delta compilation turned off (slates compile treatment by treatment).
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Maximum retained base memos across all shards. A base memo holds a full
/// explored memo (~tens of KB for simulated plans), so this bounds the
/// dominant memory cost of delta compilation at tens of MB — plenty for the
/// live plan population of the simulated workloads. Only steerable plans
/// build one: ad-hoc jobs compile through [`Optimizer::compile_unsteered`],
/// so their memos never enter the FIFO. Sticky literals therefore keep ~1
/// plan per recurring template alive; fresh literals rotate through FIFO.
const BASE_CAPACITY: usize = 512;
/// Lock shards of the base-memo cache.
const BASE_SHARDS: usize = 8;

/// Monotonic delta-compiler counters (snapshot semantics, like
/// [`crate::CacheStats`]): how each priced treatment was resolved, plus
/// base-memo cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Treatments resolved by the pruner: provably plan-identical flips that
    /// reused the base `Compiled` after replaying the instability draws.
    pub pruned: u64,
    /// Treatments priced by an incremental pass over the base memo.
    pub delta: u64,
    /// Treatments that fell back to a from-scratch compile (exploration-
    /// affecting flips, or a base compile that itself failed).
    pub full: u64,
    /// Base-memo cache misses (each builds the base from scratch).
    pub base_builds: u64,
    /// Base-memo cache hits.
    pub base_hits: u64,
    /// Search tasks executed by replays through this compiler: the
    /// implementation tasks of delta passes (dirty groups only) plus the
    /// whole search of NeedsFull fallbacks. The task-count pin test uses
    /// this to prove delta replays redo *only* the invalidated work.
    pub replay_tasks: u64,
}

impl DeltaStats {
    /// Total treatments priced through the delta compiler.
    #[must_use]
    pub fn treatments(&self) -> u64 {
        self.pruned + self.delta + self.full
    }

    /// Counter deltas relative to an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &DeltaStats) -> DeltaStats {
        DeltaStats {
            pruned: self.pruned.saturating_sub(earlier.pruned),
            delta: self.delta.saturating_sub(earlier.delta),
            full: self.full.saturating_sub(earlier.full),
            base_builds: self.base_builds.saturating_sub(earlier.base_builds),
            base_hits: self.base_hits.saturating_sub(earlier.base_hits),
            replay_tasks: self.replay_tasks.saturating_sub(earlier.replay_tasks),
        }
    }
}

impl std::ops::Add for DeltaStats {
    type Output = DeltaStats;

    fn add(self, rhs: DeltaStats) -> DeltaStats {
        DeltaStats {
            pruned: self.pruned + rhs.pruned,
            delta: self.delta + rhs.delta,
            full: self.full + rhs.full,
            base_builds: self.base_builds + rhs.base_builds,
            base_hits: self.base_hits + rhs.base_hits,
            replay_tasks: self.replay_tasks + rhs.replay_tasks,
        }
    }
}

impl std::iter::Sum for DeltaStats {
    fn sum<I: Iterator<Item = DeltaStats>>(iter: I) -> DeltaStats {
        iter.fold(DeltaStats::default(), std::ops::Add::add)
    }
}

/// How [`BaseMemo::price`] resolved one treatment.
#[derive(Debug, Clone, PartialEq)]
pub enum PricedTreatment {
    /// The flip provably leaves the memo — and therefore the plan, cost,
    /// and signature — unchanged; the carried result is the base `Compiled`
    /// (or the treatment-fingerprint instability failure replayed in the
    /// order a from-scratch compile would raise it).
    Pruned(Result<Compiled, CompileError>),
    /// Priced by the incremental implement/cost/extract pass.
    Delta(Result<Compiled, CompileError>),
    /// The flip touches exploration; the caller must compile from scratch.
    NeedsFull,
}

/// One configuration's compilation, frozen for incremental treatment
/// pricing. Immutable and `Sync`: slate fan-outs share it behind an `Arc`.
#[derive(Debug)]
pub struct BaseMemo {
    plan_fingerprint: u64,
    base_bits: RuleBits,
    template_seed: u64,
    compiled: Compiled,
    memo: Memo,
    roots: Vec<GroupId>,
    /// Transforms that produced ≥1 rewrite during base exploration (strict
    /// superset of provenance-visible transforms; see `crate::search`).
    fired_transforms: RuleBits,
    /// Reverse logical edges: `parents[g]` lists every group with an
    /// expression whose children include `g`. Physical expressions mirror
    /// logical children (memo invariant), so this is the complete
    /// cost-dependency graph for `Best` invalidation.
    parents: Vec<Vec<u32>>,
    /// Lazily memoized "does this transform match anywhere in the (final,
    /// immutable) memo" answers, keyed by kind: a fixed property of the
    /// frozen memo, but computing it is a full-memo scan — and every
    /// enabled-transform treatment of every slate priced against this base
    /// asks it again.
    #[expect(
        clippy::disallowed_types,
        reason = "a lazy memo of pure answers about a frozen memo: every writer stores the same value"
    )]
    fires: std::sync::RwLock<FxHashMap<TransformKind, bool>>,
}

/// Internal classification of a treatment against a base.
enum Classification {
    /// Every flip is a provable no-op on the memo.
    Pruned,
    /// Re-implement groups whose operator tag is in `tags` (every group when
    /// `all` — a policy flip changes the implementation context globally).
    Dirty { tags: Vec<&'static str>, all: bool },
    /// Exploration-affecting flip: not patchable.
    Full,
}

impl BaseMemo {
    /// Compile `plan` under `base` from scratch and freeze the result.
    /// Fails iff the base compile fails.
    pub fn build(
        optimizer: &Optimizer,
        plan: &LogicalPlan,
        base: &RuleConfig,
    ) -> Result<BaseMemo, CompileError> {
        let full = optimizer.search(plan, base, true).1?;
        // Pre-warm the physical fingerprint once: every pruned result shares
        // this plan, so each reads it with one atomic load.
        let _ = full.compiled.physical.fingerprint();
        let n = full.memo.group_count();
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for gi in 0..n as u32 {
            for lexpr in &full.memo.group(GroupId(gi)).lexprs {
                for c in &lexpr.children {
                    let up = &mut parents[c.index()];
                    if up.last() != Some(&gi) {
                        up.push(gi);
                    }
                }
            }
        }
        Ok(BaseMemo {
            plan_fingerprint: plan.fingerprint(),
            base_bits: *base.bits(),
            template_seed: plan.template_id().0,
            compiled: full.compiled,
            memo: full.memo,
            roots: full.roots,
            fired_transforms: full.fired_transforms,
            parents,
            fires: Default::default(),
        })
    }

    /// The base configuration's compilation result.
    #[must_use]
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// Fingerprint of the plan this base memo was built from.
    #[must_use]
    pub fn plan_fingerprint(&self) -> u64 {
        self.plan_fingerprint
    }

    /// Price one treatment configuration against this base. The result is
    /// byte-identical to `optimizer.compile(plan, treatment)` for the plan
    /// this base was built from — including which `RuleInstability` error a
    /// failing treatment raises — except for [`PricedTreatment::NeedsFull`],
    /// where the caller must run that from-scratch compile itself.
    #[must_use]
    pub fn price(&self, optimizer: &Optimizer, treatment: &RuleConfig) -> PricedTreatment {
        self.price_counted(optimizer, treatment).0
    }

    /// [`BaseMemo::price`] plus the number of search tasks the pricing
    /// replayed (the implementation tasks of a delta pass; zero for pruned
    /// or needs-full resolutions). [`DeltaCompiler`] accounts these in
    /// [`DeltaStats::replay_tasks`].
    pub(crate) fn price_counted(
        &self,
        optimizer: &Optimizer,
        treatment: &RuleConfig,
    ) -> (PricedTreatment, u64) {
        // Replay the up-front disable-path instability scan in the same
        // position `Optimizer::compile` runs it: before any search.
        if let Err(e) = optimizer.disable_path_check(treatment, self.template_seed) {
            return (PricedTreatment::Pruned(Err(e)), 0);
        }
        match self.classify(optimizer, treatment) {
            Classification::Full => (PricedTreatment::NeedsFull, 0),
            Classification::Pruned => {
                let fp = treatment.bits().fingerprint();
                let replay = optimizer
                    .plan_instability_check(&self.compiled.signature, self.template_seed, fp)
                    .map(|()| self.compiled.clone());
                (PricedTreatment::Pruned(replay), 0)
            }
            Classification::Dirty { tags, all } => {
                let (tasks, result) = self.delta_compile(optimizer, treatment, &tags, all);
                (PricedTreatment::Delta(result), tasks)
            }
        }
    }

    /// Decide, per flipped rule, whether the treatment's memo can differ
    /// from the base memo — and if only the implementation layer can, which
    /// operator tags must be re-implemented.
    fn classify(&self, optimizer: &Optimizer, treatment: &RuleConfig) -> Classification {
        let rules = optimizer.rules();
        let t_bits = *treatment.bits();
        let mut tags: Vec<&'static str> = Vec::new();
        let mut all = false;
        let mark = |tag: &'static str, tags: &mut Vec<&'static str>| {
            if !tags.contains(&tag) {
                tags.push(tag);
            }
        };
        // Rules the treatment disables relative to the base.
        for id in self.base_bits.difference(&t_bits).iter() {
            match &rules.rule(id).behavior {
                RuleBehavior::Transform(_) => {
                    // A transform that fired consumed budget; removing it
                    // reroutes the trace. One that never fired is invisible.
                    if self.fired_transforms.contains(id) {
                        return Classification::Full;
                    }
                }
                RuleBehavior::Implement(kind) => {
                    // Candidates that never won cannot displace a winner by
                    // disappearing (first-index-minimum tie-break); rules in
                    // the signature require re-implementation.
                    if self.compiled.signature.contains(id) {
                        mark(impl_targets(*kind), &mut tags);
                    }
                }
                RuleBehavior::Parametric(spec) => {
                    if self.compiled.signature.contains(id) {
                        mark(spec.target, &mut tags);
                    }
                }
                RuleBehavior::Policy(_) => all = true,
                // Required bits never differ between steering configs; if a
                // caller hand-built one that does, punt to a full compile.
                RuleBehavior::Normalization | RuleBehavior::FallbackImpl => {
                    return Classification::Full;
                }
            }
        }
        // Rules the treatment enables relative to the base.
        for id in t_bits.difference(&self.base_bits).iter() {
            match &rules.rule(id).behavior {
                RuleBehavior::Transform(kind) => {
                    // Monotonicity: no match anywhere in the final memo ⇒ no
                    // match at any prefix state ⇒ the enabled transform
                    // never fires and never consumes budget.
                    if self.transform_fires(*kind) {
                        return Classification::Full;
                    }
                }
                RuleBehavior::Implement(kind) => mark(impl_targets(*kind), &mut tags),
                RuleBehavior::Parametric(spec) => mark(spec.target, &mut tags),
                RuleBehavior::Policy(_) => all = true,
                RuleBehavior::Normalization | RuleBehavior::FallbackImpl => {
                    return Classification::Full;
                }
            }
        }
        if all || !tags.is_empty() {
            Classification::Dirty { tags, all }
        } else {
            Classification::Pruned
        }
    }

    /// The incremental pass: fork the base memo (pointer copies; every
    /// group's logical half and every clean group's candidate list stay
    /// shared with the base), rebuild the physical
    /// candidates of dirty groups under the treatment configuration — as an
    /// [`Optimizer::implement`] of exactly those groups, one task each —
    /// invalidate `Best` on them and every ancestor, then re-cost and
    /// re-extract. Clean groups keep their base `Best` entries, which a
    /// from-scratch compile of the treatment would reproduce bit-for-bit
    /// (their candidates and their children's costs are untouched). Returns
    /// the replayed task count alongside the result.
    fn delta_compile(
        &self,
        optimizer: &Optimizer,
        treatment: &RuleConfig,
        tags: &[&'static str],
        all: bool,
    ) -> (u64, Result<Compiled, CompileError>) {
        let n = self.memo.group_count();
        let reimplement: Vec<bool> = (0..n as u32)
            .map(|gi| {
                all || self
                    .memo
                    .group(GroupId(gi))
                    .lexprs
                    .iter()
                    .any(|e| tags.contains(&e.op.tag()))
            })
            .collect();
        let mut memo = self.memo.fork_for_delta();
        let mut tasks = 0;
        let dirty = (0..n as u32)
            .filter(|&gi| reimplement[gi as usize])
            .map(GroupId);
        if let Err(e) = optimizer.implement(&mut memo, dirty, treatment, &mut tasks) {
            return (tasks, Err(e));
        }
        let mut stale = reimplement;
        let mut queue: VecDeque<u32> = (0..n as u32).filter(|&gi| stale[gi as usize]).collect();
        while let Some(gi) = queue.pop_front() {
            for &p in &self.parents[gi as usize] {
                if !stale[p as usize] {
                    stale[p as usize] = true;
                    queue.push_back(p);
                }
            }
        }
        for (gi, is_stale) in stale.iter().enumerate() {
            if *is_stale {
                memo.group_mut(GroupId(gi as u32)).best = None;
            }
        }
        let mut visiting = vec![false; n];
        for &root in &self.roots {
            optimizer.best_cost(&mut memo, root, &mut visiting);
        }
        let result = optimizer.extract(
            &memo,
            &self.roots,
            self.template_seed,
            treatment.bits().fingerprint(),
        );
        debug_assert!(
            memo.group_ids()
                .all(|g| memo.group(g).shares_logical_with(self.memo.group(g))),
            "a delta pass copied a logical half it only reads"
        );
        (tasks, result)
    }
}

impl BaseMemo {
    /// Whether `kind` produces a rewrite for any expression of the (final,
    /// fully explored) memo. Rewrite production is monotone in memo growth
    /// (groups and expressions are append-only and rules only pattern-match
    /// child-group expression lists), so "no match at the final state"
    /// implies "no match at any state of the exploration trace". Memoized
    /// per kind — the memo is frozen, so the answer never changes; a racing
    /// duplicate computation produces the identical value.
    fn transform_fires(&self, kind: TransformKind) -> bool {
        if let Some(&fires) = self
            .fires
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&kind)
        {
            return fires;
        }
        let fires = (0..self.memo.group_count() as u32).any(|gi| {
            let g = GroupId(gi);
            (0..self.memo.group(g).lexprs.len())
                .any(|e| !apply_transform(kind, &self.memo, g, e).is_empty())
        });
        self.fires
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(kind, fires);
        fires
    }
}

type BaseKey = (u64, RuleBits);

fn base_key_hash(key: &BaseKey) -> u64 {
    combine(key.0, key.1.fingerprint())
}

/// The sharded base-memo cache plus treatment-resolution counters: the
/// long-lived half of delta compilation. One instance sits inside the
/// pipeline's [`Optimizer`], so recommendation and flighting (and,
/// under sticky literals, successive days) share each plan's base memo.
/// The memos live in a [`ShardedCache`] (the workspace-wide lock-sharded
/// FIFO cache), which also gives this cache per-shard eviction attribution.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "telemetry counters: commutative adds that no steering decision reads"
)]
pub struct DeltaCompiler {
    bases: ShardedCache<BaseKey, Arc<BaseMemo>>,
    pruned: std::sync::atomic::AtomicU64,
    delta: std::sync::atomic::AtomicU64,
    full: std::sync::atomic::AtomicU64,
    replay_tasks: std::sync::atomic::AtomicU64,
}

impl Default for DeltaCompiler {
    fn default() -> Self {
        Self::sized(BASE_CAPACITY, BASE_SHARDS)
    }
}

impl DeltaCompiler {
    fn sized(capacity: usize, shards: usize) -> Self {
        Self {
            bases: ShardedCache::new(capacity, shards, base_key_hash),
            pruned: Default::default(),
            delta: Default::default(),
            full: Default::default(),
            replay_tasks: Default::default(),
        }
    }

    /// The shared base memo for `(plan, base)`: cached, or built from
    /// scratch and cached. Base compile failures are returned but not
    /// cached (they are rare — the pipeline's base is the default
    /// configuration, which view-built plans always compile under).
    pub fn base_for(
        &self,
        optimizer: &Optimizer,
        plan: &LogicalPlan,
        base: &RuleConfig,
    ) -> Result<Arc<BaseMemo>, CompileError> {
        let key = (plan.fingerprint(), *base.bits());
        if let Some(cached) = self.bases.get(&key) {
            return Ok(cached);
        }
        let built = Arc::new(BaseMemo::build(optimizer, plan, base)?);
        // First writer wins on concurrent builds (both built the identical
        // artifact — compilation is deterministic).
        self.bases.insert(key, built.clone());
        Ok(built)
    }

    /// Price one treatment through `base`, resolving a
    /// [`PricedTreatment::NeedsFull`] with a replay of the whole search
    /// (the plan was already validated at base-build time and
    /// `price` re-ran the disable-path check, so the replay entry skips
    /// both — byte-identical to a from-scratch compile), and count the
    /// resolution plus the replayed tasks.
    pub(crate) fn price_with(
        &self,
        optimizer: &Optimizer,
        base: &BaseMemo,
        plan: &LogicalPlan,
        treatment: &RuleConfig,
    ) -> Result<Compiled, CompileError> {
        debug_assert_eq!(
            base.plan_fingerprint(),
            plan.fingerprint(),
            "treatment priced against a base memo of a different plan"
        );
        let (priced, tasks) = base.price_counted(optimizer, treatment);
        self.replay_tasks.fetch_add(tasks, Ordering::Relaxed);
        match priced {
            PricedTreatment::Pruned(result) => {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                result
            }
            PricedTreatment::Delta(result) => {
                self.delta.fetch_add(1, Ordering::Relaxed);
                result
            }
            PricedTreatment::NeedsFull => {
                self.full.fetch_add(1, Ordering::Relaxed);
                // Unchecked: the identical plan was validated at base-build
                // time and `price` already ran the disable-path check.
                let (tasks, full) = optimizer.search(plan, treatment, false);
                self.replay_tasks.fetch_add(tasks, Ordering::Relaxed);
                full.map(|full| full.compiled)
            }
        }
    }

    /// Price a whole slate: get-or-build the base memo (not even looked up
    /// for an empty slate), then resolve each treatment. One result per
    /// treatment, in input order, byte-identical to from-scratch compiles.
    pub fn compile_slate(
        &self,
        optimizer: &Optimizer,
        plan: &LogicalPlan,
        base: &RuleConfig,
        treatments: &[RuleConfig],
    ) -> Vec<Result<Compiled, CompileError>> {
        if treatments.is_empty() {
            return Vec::new();
        }
        match self.base_for(optimizer, plan, base) {
            Ok(base_memo) => treatments
                .iter()
                .map(|t| self.price_with(optimizer, &base_memo, plan, t))
                .collect(),
            // No base to share: price every treatment from scratch (still
            // counted, and cached by the caller, so the search here must not
            // go through the cache itself).
            Err(_) => treatments
                .iter()
                .map(|t| {
                    self.full.fetch_add(1, Ordering::Relaxed);
                    optimizer.compile_uncached(plan, t)
                })
                .collect(),
        }
    }

    /// Snapshot of the monotonic counters.
    #[must_use]
    pub fn stats(&self) -> DeltaStats {
        let bases = self.bases.stats();
        DeltaStats {
            pruned: self.pruned.load(Ordering::Relaxed),
            delta: self.delta.load(Ordering::Relaxed),
            full: self.full.load(Ordering::Relaxed),
            base_builds: bases.misses,
            base_hits: bases.hits,
            replay_tasks: self.replay_tasks.load(Ordering::Relaxed),
        }
    }

    /// Live base memos across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Drop every base memo (counters keep running).
    pub fn clear(&self) {
        self.bases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleFlip;
    use crate::registry::RuleCategory;
    use scope_lang::{bind_script, Catalog};

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        big   = SELECT user, spend FROM sales WHERE spend > 100;
        j     = SELECT * FROM big AS b JOIN users AS u ON b.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
        OUTPUT big TO "out/big_sales";
    "#;

    fn plan() -> LogicalPlan {
        bind_script(SCRIPT, &Catalog::default()).unwrap()
    }

    /// Every single-flip treatment over every flippable rule: the delta
    /// path must be byte-identical to from-scratch compilation, successes
    /// and failures alike.
    #[test]
    fn every_single_flip_matches_from_scratch() {
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let base = BaseMemo::build(&opt, &p, &default).unwrap();
        let mut pruned = 0usize;
        let mut delta = 0usize;
        let mut full = 0usize;
        for rule in opt.rules().flippable() {
            let treatment = default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            });
            let scratch = opt.compile(&p, &treatment);
            let priced = match base.price(&opt, &treatment) {
                PricedTreatment::Pruned(r) => {
                    pruned += 1;
                    r
                }
                PricedTreatment::Delta(r) => {
                    delta += 1;
                    r
                }
                PricedTreatment::NeedsFull => {
                    full += 1;
                    opt.compile(&p, &treatment)
                }
            };
            assert_eq!(priced, scratch, "flip of {rule} diverged");
        }
        assert!(pruned > 0, "some flips must prune (most rules never fire)");
        assert!(delta > 0, "some flips must delta (impl-layer flips)");
        // Transforms are 18 of 256 rules; full fallbacks stay the minority.
        assert!(
            full < pruned + delta,
            "full fallbacks must be the exception: {full} full vs {pruned} pruned + {delta} delta"
        );
    }

    #[test]
    fn base_config_treatment_is_pruned_to_identity() {
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let base = BaseMemo::build(&opt, &p, &default).unwrap();
        match base.price(&opt, &default) {
            PricedTreatment::Pruned(Ok(c)) => {
                assert_eq!(c, *base.compiled());
            }
            other => panic!("identical treatment must prune, got {other:?}"),
        }
    }

    #[test]
    fn policy_flip_takes_the_delta_path_and_matches() {
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let base = BaseMemo::build(&opt, &p, &default).unwrap();
        let treatment = default.with_flip(RuleFlip {
            rule: crate::registry::RULE_SHUFFLE_ELIMINATION,
            enable: false,
        });
        match base.price(&opt, &treatment) {
            PricedTreatment::Delta(result) => {
                assert_eq!(result, opt.compile(&p, &treatment));
            }
            other => panic!("policy flip must delta-compile, got {other:?}"),
        }
    }

    #[test]
    fn multi_flip_treatments_match_from_scratch() {
        // The pipeline only deploys single flips, but the API accepts any
        // configuration; spot-check double flips across layers.
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let base = BaseMemo::build(&opt, &p, &default).unwrap();
        let flippable: Vec<_> = opt.rules().flippable().collect();
        for pair in flippable.chunks(2).take(40) {
            let treatment = default.with_flips(
                &pair
                    .iter()
                    .map(|&rule| RuleFlip {
                        rule,
                        enable: !default.enabled(rule),
                    })
                    .collect::<Vec<_>>(),
            );
            let scratch = opt.compile(&p, &treatment);
            let priced = match base.price(&opt, &treatment) {
                PricedTreatment::Pruned(r) | PricedTreatment::Delta(r) => r,
                PricedTreatment::NeedsFull => opt.compile(&p, &treatment),
            };
            assert_eq!(priced, scratch, "flips {pair:?} diverged");
        }
    }

    #[test]
    fn delta_compiler_caches_base_memos_and_counts_paths() {
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let dc = DeltaCompiler::default();
        // Two off-by-default parametric enables: guaranteed delta path.
        let treatments: Vec<RuleConfig> = opt
            .rules()
            .rules()
            .iter()
            .filter(|r| {
                r.category == RuleCategory::OffByDefault
                    && matches!(r.behavior, RuleBehavior::Parametric(_))
            })
            .take(2)
            .map(|r| {
                default.with_flip(RuleFlip {
                    rule: r.id,
                    enable: true,
                })
            })
            .collect();
        assert_eq!(treatments.len(), 2);
        let first = dc.compile_slate(&opt, &p, &default, &treatments);
        let second = dc.compile_slate(&opt, &p, &default, &treatments);
        assert_eq!(first, second);
        for (t, r) in treatments.iter().zip(&first) {
            assert_eq!(*r, opt.compile(&p, t));
        }
        let stats = dc.stats();
        assert_eq!(stats.base_builds, 1, "one base memo for both slates");
        assert_eq!(stats.base_hits, 1, "second slate reuses it");
        assert_eq!(stats.treatments(), 4);
        assert_eq!(stats.delta, 4, "parametric enables are delta-priced");
        assert_eq!(dc.len(), 1);
        dc.clear();
        assert!(dc.is_empty());
    }

    #[test]
    fn base_capacity_evicts_fifo() {
        let opt = Optimizer::default();
        let default = opt.default_config();
        let dc = DeltaCompiler::sized(2, 1);
        for literal in ["100", "200", "300"] {
            let p = bind_script(
                &SCRIPT.replace("spend > 100", &format!("spend > {literal}")),
                &Catalog::default(),
            )
            .unwrap();
            dc.base_for(&opt, &p, &default).unwrap();
        }
        assert_eq!(dc.len(), 2, "FIFO keeps the two newest base memos");
        assert_eq!(dc.stats().base_builds, 3);
    }

    #[test]
    fn config_defaults_and_serde() {
        let c = DeltaConfig::default();
        assert!(c.enabled);
        assert!(!DeltaConfig::disabled().enabled);
        assert_eq!(serde_json::to_string(&c).unwrap(), r#"{"enabled":true}"#);
    }

    /// Satellite pin: delta replays redo only the invalidated work, and the
    /// full-fallback path replays exactly the tasks a from-scratch
    /// compile would run — no extra passes, no double exploration.
    #[test]
    fn replay_task_counts_pin_delta_and_full_paths() {
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let dc = DeltaCompiler::default();
        let base = dc.base_for(&opt, &p, &default).unwrap();

        let mut dirty_flip = None;
        let mut full_flip = None;
        for rule in opt.rules().flippable() {
            let treatment = default.with_flip(RuleFlip {
                rule,
                enable: !default.enabled(rule),
            });
            match base.price(&opt, &treatment) {
                PricedTreatment::Delta(_) if dirty_flip.is_none() => dirty_flip = Some(treatment),
                PricedTreatment::NeedsFull if full_flip.is_none() => full_flip = Some(treatment),
                _ => {}
            }
            if dirty_flip.is_some() && full_flip.is_some() {
                break;
            }
        }
        let dirty_flip = dirty_flip.expect("some impl-layer flip takes the delta path");
        let full_flip = full_flip.expect("some fired-transform flip needs a full replay");

        // Dirty replay: strictly fewer tasks than the whole search.
        let direct_dirty = opt
            .compile_budgeted(&p, &dirty_flip, crate::search::CompileBudget::unlimited())
            .map(|b| b.tasks_executed)
            .unwrap_or(u64::MAX);
        let before = dc.stats().replay_tasks;
        let priced = dc.price_with(&opt, &base, &p, &dirty_flip);
        let dirty_tasks = dc.stats().replay_tasks - before;
        assert_eq!(priced, opt.compile(&p, &dirty_flip));
        assert!(dirty_tasks > 0, "delta pass must replay some groups");
        assert!(
            dirty_tasks < direct_dirty,
            "delta replay ({dirty_tasks} tasks) must redo less than a \
             from-scratch search ({direct_dirty} tasks)"
        );

        // Full fallback: exactly the tasks of a direct engine run.
        let direct_full = opt
            .compile_budgeted(&p, &full_flip, crate::search::CompileBudget::unlimited())
            .map(|b| b.tasks_executed)
            .ok();
        let before = dc.stats().replay_tasks;
        let priced = dc.price_with(&opt, &base, &p, &full_flip);
        let full_tasks = dc.stats().replay_tasks - before;
        assert_eq!(priced, opt.compile(&p, &full_flip));
        if let Some(direct_full) = direct_full {
            assert_eq!(
                full_tasks, direct_full,
                "full fallback must replay exactly the direct search"
            );
        } else {
            assert!(full_tasks > 0, "failed replays still ran the search");
        }
    }

    /// A delta pass reads the base's logical halves and clean candidate
    /// lists in place. Replay the worst case by hand — every group dirty —
    /// then price a 20-treatment delta slate from two threads: no forked
    /// group may own a copy of its logical half, and the shared base (its
    /// `Compiled`, every group's candidate list and `Best`) must come out
    /// bit-identical.
    #[test]
    fn delta_passes_share_the_base_and_leave_it_untouched() {
        let opt = Optimizer::default();
        let p = plan();
        let default = opt.default_config();
        let base = BaseMemo::build(&opt, &p, &default).unwrap();
        let groups: Vec<GroupId> = base.memo.group_ids().collect();
        let state = |base: &BaseMemo| -> Vec<(*const Vec<crate::memo::PExpr>, u64, usize)> {
            groups
                .iter()
                .map(|&g| {
                    let group = base.memo.group(g);
                    let best = group.best.expect("base memo is fully costed");
                    (Arc::as_ptr(&group.pexprs), best.cost.to_bits(), best.pexpr)
                })
                .collect()
        };
        let (compiled_before, state_before) = (base.compiled.clone(), state(&base));

        let treatment = default.with_flip(RuleFlip {
            rule: crate::registry::RULE_SHUFFLE_ELIMINATION,
            enable: false,
        });
        let mut fork = base.memo.fork_for_delta();
        opt.implement(&mut fork, groups.iter().copied(), &treatment, &mut 0)
            .unwrap();
        for &g in &groups {
            fork.group_mut(g).best = None;
        }
        let mut visiting = vec![false; groups.len()];
        for &root in &base.roots {
            opt.best_cost(&mut fork, root, &mut visiting);
        }
        for &g in &groups {
            assert!(fork.group(g).shares_logical_with(base.memo.group(g)));
            assert!(!Arc::ptr_eq(
                &fork.group(g).pexprs,
                &base.memo.group(g).pexprs
            ));
        }
        drop(fork);

        let slate: Vec<RuleConfig> = opt
            .rules()
            .flippable()
            .map(|rule| {
                default.with_flip(RuleFlip {
                    rule,
                    enable: !default.enabled(rule),
                })
            })
            .filter(|t| matches!(base.price(&opt, t), PricedTreatment::Delta(_)))
            .take(20)
            .collect();
        assert_eq!(slate.len(), 20, "the registry has >20 impl-layer flips");
        let scratch: Vec<_> = slate.iter().map(|t| opt.compile(&p, t)).collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for (treatment, expected) in slate.iter().zip(&scratch) {
                        let PricedTreatment::Delta(priced) = base.price(&opt, treatment) else {
                            panic!("classification is a pure function of (base, treatment)")
                        };
                        assert_eq!(&priced, expected);
                    }
                });
            }
        });
        assert_eq!(base.compiled, compiled_before);
        assert_eq!(
            base.compiled.est_cost.to_bits(),
            compiled_before.est_cost.to_bits()
        );
        assert_eq!(state(&base), state_before);
    }

    #[test]
    fn stats_roll_up() {
        let a = DeltaStats {
            pruned: 1,
            delta: 2,
            full: 3,
            base_builds: 1,
            base_hits: 0,
            replay_tasks: 10,
        };
        let b = DeltaStats {
            pruned: 2,
            delta: 1,
            full: 0,
            base_builds: 0,
            base_hits: 4,
            replay_tasks: 5,
        };
        let s = a + b;
        assert_eq!(s.treatments(), 9);
        assert_eq!(s.base_hits, 4);
        assert_eq!([a, b].into_iter().sum::<DeltaStats>(), s);
        assert_eq!(s.since(&a), b);
    }
}
