//! The Cascades search, the one engine behind every compile: exploration
//! (transform rules in promise order under a global rewrite limit and
//! per-group caps, as a recursive worklist over `(group, expression)`
//! pairs), implementation (impl/parametric/fallback rules, one group at a
//! time), bottom-up costing, and plan extraction with exchange
//! materialization and signature assembly.
//!
//! The search is deliberately *heuristic*: the rewrite limit, the per-group
//! caps, and the promise ordering mean the explored space is a
//! rule-configuration-dependent subset of the full space. That is why
//! flipping a rule — even turning one *off* — can reroute the search to a
//! plan with **lower** estimated cost, exactly the behaviour QO-Advisor
//! exploits in SCOPE. A compile always runs to completion: steering changes
//! only the rule configuration (paper §2.4), never interrupts a search.
//!
//! The search counts its own work as *tasks*, for telemetry and the delta
//! compiler's replay pins: one per group an exploration pass seeds, one per
//! expression explored, one per transform tried (an enabled transform whose
//! root tag matches the expression's), and one per group implemented
//! (`Optimizer::explore`, `Optimizer::implement`).

use crate::cache::{laid_out, CacheEntry, CompileCache};
use crate::config::{RuleBits, RuleConfig, RuleId};
use crate::cost::{exchange_cost, local_cost, pre_local_cost_and_rows};
use crate::delta::DeltaCompiler;
use crate::impls::{build_shape, implement_expr, physical_op, sized_scheme, ImplContext};
use crate::memo::{Best, GroupId, Memo, PExpr};
use crate::registry::{
    RuleBehavior, RuleSet, RULE_DEGREE_OF_PARALLELISM, RULE_EXCHANGE_PLACEMENT, RULE_FALLBACK_EXEC,
    RULE_INTERMEDIATE_COMPRESSION, RULE_MEMO_DEDUP, RULE_PLAN_SERIALIZE, RULE_PREDICATE_NORMALIZE,
    RULE_SCRIPT_STITCH, RULE_SHUFFLE_ELIMINATION, RULE_STATS_ANNOTATE,
};
use crate::rules::apply_transform;
use scope_ir::logical::LogicalPlan;
use scope_ir::physical::{PhysicalNode, PhysicalOp, PhysicalPlan, PhysicalTuning};
use scope_ir::stats::NodeStats;
use scope_ir::NodeId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Global limit of transform-rule rewrites per compile. Together with the
/// per-group cap and the pass count below, it bounds the search the way a
/// production optimizer's time budget does, scaled down to simulation size.
const MAX_TRANSFORM_APPLICATIONS: usize = 1500;
/// Maximum logical expressions per memo group.
const MAX_EXPRS_PER_GROUP: usize = 8;
/// Exploration passes over the expression worklist.
const EXPLORATION_PASSES: usize = 2;

/// Compilation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Input plan failed validation.
    Invalid(String),
    /// An experimental rule chosen for the final plan is incompatible with
    /// this job template (models SCOPE's experimental-rule compile crashes).
    RuleInstability { rule: RuleId },
    /// No physical implementation exists for a group (cannot happen while
    /// the required fallback rule is present; kept for completeness).
    NoImplementation { tag: String },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Invalid(m) => write!(f, "invalid plan: {m}"),
            CompileError::RuleInstability { rule } => {
                write!(
                    f,
                    "compilation failed: rule {rule} is unstable for this template"
                )
            }
            CompileError::NoImplementation { tag } => {
                write!(f, "no physical implementation for {tag}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A successful compilation. Cloning one is cheap: the plan is shared, so
/// compile-cache hits, pruned treatments and the base memo's hand-off to the
/// compile cache all bump a refcount instead of copying every node.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The chosen physical plan, immutable once extracted. Compares by value
    /// (`Arc`'s `PartialEq`), so two compiles of one `(plan, config)` are
    /// equal whether or not they share an allocation.
    pub physical: Arc<PhysicalPlan>,
    /// Total estimated cost (the optimizer's belief; see `scope-runtime` for
    /// ground truth).
    pub est_cost: f64,
    /// Rules that directly contributed to the chosen plan (paper §2.1).
    pub signature: RuleBits,
    /// Memo size telemetry.
    pub memo_groups: usize,
    pub memo_exprs: usize,
    /// Stable seed for the job's template (drives per-template truth draws).
    pub template_seed: u64,
}

impl Compiled {
    /// What recommendation and the span fixpoint read of this compile.
    pub(crate) fn price(&self) -> Price {
        Price {
            est_cost: self.est_cost,
            signature: self.signature,
        }
    }
}

/// A compile without its plan: the estimated cost (recommendation's reward,
/// Table 3's counters, the est-cost gate) and the rule signature (the span
/// fixpoint). Bit-identical to the [`Compiled`] fields of the same compile:
/// it comes from the same extraction walk, with node building off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Price {
    pub est_cost: f64,
    pub signature: RuleBits,
}

/// What a compile keeps of its winner. Every compile path is generic over
/// it, down to [`Kept::extract`], which runs the one extraction walk
/// ([`Optimizer::extract`]), with node building off unless a plan is kept.
/// The two kinds: a [`Compiled`], for callers that run the plan, and a
/// [`CacheEntry`], for callers that read the price — the price alone, or
/// the plan too when the price beats the base configuration's.
pub(crate) trait Kept: Clone + Sized {
    /// This kind's result of a costed memo. `beat` is the estimated cost of
    /// the base configuration a treatment is priced against, if any.
    fn extract(
        optimizer: &Optimizer,
        memo: &Memo,
        roots: &[GroupId],
        template_seed: u64,
        config_fingerprint: u64,
        beat: Option<f64>,
    ) -> Result<Self, CompileError>;
    /// The same result read off a full compile (a pruned treatment's, which
    /// reuses its base's, and so beats no base).
    fn of(compiled: &Compiled) -> Self;
    /// This result as the compile cache keeps it, and the value its caller
    /// holds: a fresh plan is [`crate::cache::laid_out`] once and shared.
    fn stored(&self) -> (Self, CacheEntry);
    /// This result read off a cache entry, if the entry holds enough of it.
    fn read(entry: &CacheEntry) -> Option<Self>;
}

impl Kept for Compiled {
    fn extract(
        optimizer: &Optimizer,
        memo: &Memo,
        roots: &[GroupId],
        template_seed: u64,
        config_fingerprint: u64,
        _: Option<f64>,
    ) -> Result<Self, CompileError> {
        let (plan, price) =
            optimizer.extract(memo, roots, template_seed, config_fingerprint, true)?;
        debug_assert!(plan.validate().is_ok(), "extractor must emit valid plans");
        Ok(Compiled {
            physical: Arc::new(plan),
            est_cost: price.est_cost,
            signature: price.signature,
            memo_groups: memo.group_count(),
            memo_exprs: memo.lexpr_count,
            template_seed,
        })
    }

    fn of(compiled: &Compiled) -> Self {
        compiled.clone()
    }

    fn stored(&self) -> (Self, CacheEntry) {
        let kept = Compiled {
            physical: laid_out(&self.physical),
            ..self.clone()
        };
        (kept.clone(), CacheEntry::Plan(kept))
    }

    fn read(entry: &CacheEntry) -> Option<Self> {
        match entry {
            CacheEntry::Plan(compiled) => Some(compiled.clone()),
            CacheEntry::Price(_) => None,
        }
    }
}

/// A pricing caller's result: the price, and the plan only for a treatment
/// whose price beats its base's. That is the treatment the est-cost gate
/// (paper §5.6) passes on to flighting, which runs its plan the same day;
/// building it in the pricing pass, by a second walk over the priced memo,
/// spares flighting a miss and a whole second pass. Every other treatment
/// is never executed, and keeps no plan.
impl Kept for CacheEntry {
    fn extract(
        optimizer: &Optimizer,
        memo: &Memo,
        roots: &[GroupId],
        template_seed: u64,
        config_fingerprint: u64,
        beat: Option<f64>,
    ) -> Result<Self, CompileError> {
        let (_, price) =
            optimizer.extract(memo, roots, template_seed, config_fingerprint, false)?;
        if beat.is_some_and(|base| price.est_cost < base) {
            let compiled = Compiled::extract(
                optimizer,
                memo,
                roots,
                template_seed,
                config_fingerprint,
                beat,
            )?;
            return Ok(CacheEntry::Plan(compiled));
        }
        Ok(CacheEntry::Price(price))
    }

    fn of(compiled: &Compiled) -> Self {
        CacheEntry::Price(compiled.price())
    }

    fn stored(&self) -> (Self, CacheEntry) {
        match self {
            CacheEntry::Plan(compiled) => {
                let (held, entry) = compiled.stored();
                (CacheEntry::Plan(held), entry)
            }
            CacheEntry::Price(price) => (self.clone(), CacheEntry::Price(*price)),
        }
    }

    fn read(entry: &CacheEntry) -> Option<Self> {
        Some(entry.clone())
    }
}

/// Everything one from-scratch compilation produces: the result it keeps,
/// the exploration trace fact `crate::delta` prices flips against, and the
/// memo artifacts [`crate::delta::BaseMemo`] freezes for incremental
/// treatment pricing.
pub(crate) struct FullCompile<K> {
    pub compiled: K,
    /// Transform rules that produced at least one rewrite during
    /// exploration. This is a strict superset of the transforms visible in
    /// memo provenance: a rewrite consumes the rewrite limit even when the
    /// materialized expression is rejected by dedup or the per-group cap, so
    /// only a rule absent from this set is provably trace-invisible.
    pub fired_transforms: RuleBits,
    /// The fully explored, implemented, and costed memo.
    pub memo: Memo,
    /// Root group per plan output, in output order.
    pub roots: Vec<GroupId>,
}

/// The harness's spelling of an unlimited compile. There is no compile
/// budget: `perfbench/` still passes this to
/// [`Optimizer::compile_budgeted`] to read a compile's task count, and
/// ROADMAP item 1a retires it.
#[derive(Debug, Clone, Copy)]
pub struct CompileBudget;

impl CompileBudget {
    /// The only budget: the search runs to completion.
    #[must_use]
    pub const fn unlimited() -> Self {
        Self
    }
}

/// What [`Optimizer::compile_budgeted`] returns: the compile and the number
/// of search tasks it ran (the module docs give the counting rule).
#[derive(Debug, Clone)]
pub struct BudgetedCompile {
    pub compiled: Compiled,
    pub tasks_executed: u64,
}

/// The SCOPE-like optimizer. Its one input is the rule registry: the cost
/// model (`crate::cost`) and the search limits are fixed, because steering
/// moves only the rule configuration (paper §2.4).
///
/// It also owns its result caches: an optional [`CompileCache`] and an
/// optional [`DeltaCompiler`], both consulted by the compile entry points in
/// `crate::cache` ([`Optimizer::compile`], [`Optimizer::compile_unsteered`],
/// [`Optimizer::compile_slate`]). [`Optimizer::default`] has neither, so it
/// is the uncached reference every cached run must match byte-for-byte. The
/// caches sit behind `Arc`s, so a clone shares them: that is how every stage
/// of the steering pipeline, and every tenant of a fleet, reads one cache.
#[derive(Debug, Clone)]
pub struct Optimizer {
    rules: RuleSet,
    /// Compile-result cache (`None` = every compile searches).
    pub(crate) cache: Option<Arc<CompileCache>>,
    /// Delta treatment compilation for [`Optimizer::compile_slate`]
    /// (`None` = slates compile treatment by treatment).
    pub(crate) delta: Option<Arc<DeltaCompiler>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self {
            rules: RuleSet::standard(),
            cache: None,
            delta: None,
        }
    }
}

/// A fresh memo seeded with `plan`: the template seed, the memo, and the
/// plan's root groups.
fn seed_memo(plan: &LogicalPlan) -> (u64, Memo, Vec<GroupId>) {
    let mut memo = Memo::new();
    let roots = memo.copy_in(plan);
    (plan.template_id().0, memo, roots)
}

impl Optimizer {
    #[must_use]
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The default rule configuration of this optimizer's registry.
    #[must_use]
    pub fn default_config(&self) -> RuleConfig {
        self.rules.default_config()
    }

    /// The prologue of every checked compile entry point: validate the
    /// plan, run the disable-path check, then [`seed_memo`].
    fn checked_seed(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<(u64, Memo, Vec<GroupId>), CompileError> {
        plan.validate()
            .map_err(|e| CompileError::Invalid(e.to_string()))?;
        self.disable_path_check(config, plan.template_id().0)?;
        Ok(seed_memo(plan))
    }

    /// The one search behind every compile entry point: seed a memo, then
    /// explore, implement, cost and extract what `K` keeps ([`Kept::extract`]
    /// reads `beat`). `checked` validates the plan and runs the disable-path
    /// check first ([`Optimizer::checked_seed`]); only `crate::delta`'s
    /// full-fallback replay passes `false`, having done both already.
    /// Returns the search's task count (also when the search fails) beside
    /// the result.
    pub(crate) fn search<K: Kept>(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
        checked: bool,
        beat: Option<f64>,
    ) -> (u64, Result<FullCompile<K>, CompileError>) {
        let seeded = if checked {
            self.checked_seed(plan, config)
        } else {
            Ok(seed_memo(plan))
        };
        let (template_seed, mut memo, roots) = match seeded {
            Ok(seeded) => seeded,
            Err(e) => return (0, Err(e)),
        };
        let mut tasks = 0;
        let run = self.optimize(&mut memo, &roots, config, template_seed, beat, &mut tasks);
        let full = run.map(|(compiled, fired_transforms)| FullCompile {
            compiled,
            fired_transforms,
            memo,
            roots,
        });
        (tasks, full)
    }

    /// [`Optimizer::search`]'s body over a seeded memo: the compile and the
    /// fired transforms.
    fn optimize<K: Kept>(
        &self,
        memo: &mut Memo,
        roots: &[GroupId],
        config: &RuleConfig,
        template_seed: u64,
        beat: Option<f64>,
        tasks: &mut u64,
    ) -> Result<(K, RuleBits), CompileError> {
        let fired = self.explore(memo, config, tasks)?;
        let groups = memo.group_ids();
        self.implement(memo, groups, config, tasks)?;
        let mut visiting = vec![false; memo.group_count()];
        for &root in roots {
            self.best_cost(memo, root, &mut visiting);
        }
        let fingerprint = config.bits().fingerprint();
        let compiled = K::extract(self, memo, roots, template_seed, fingerprint, beat)?;
        Ok((compiled, fired))
    }

    /// Compile a logical plan under a rule configuration from scratch,
    /// consulting no cache, keeping what `K` keeps: the search behind every
    /// cache miss.
    pub(crate) fn compile_uncached<K: Kept>(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<K, CompileError> {
        self.search(plan, config, true, None)
            .1
            .map(|full| full.compiled)
    }

    /// An uncached compile with its task count: the harness's spelling (see
    /// [`CompileBudget`]), which ROADMAP item 1a retires.
    pub fn compile_budgeted(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
        _budget: CompileBudget,
    ) -> Result<BudgetedCompile, CompileError> {
        let (tasks_executed, full) = self.search::<Compiled>(plan, config, true, None);
        Ok(BudgetedCompile {
            compiled: full?.compiled,
            tasks_executed,
        })
    }

    /// Disable-path instability: rules turned off relative to the default
    /// configuration can crash compilation for some templates (checked
    /// up-front, before any search; the outcome depends only on template +
    /// configuration). Shared verbatim with the delta path so a replayed
    /// treatment fails with exactly the error a from-scratch compile would
    /// raise — first failing rule in registry order.
    pub(crate) fn disable_path_check(
        &self,
        config: &RuleConfig,
        template_seed: u64,
    ) -> Result<(), CompileError> {
        let fingerprint = config.bits().fingerprint();
        for rule in self.rules.rules() {
            if rule.category.default_on()
                && rule.flippable()
                && !config.enabled(rule.id)
                && self
                    .rules
                    .disable_unstable_for(rule.id, template_seed, fingerprint)
            {
                return Err(CompileError::RuleInstability { rule: rule.id });
            }
        }
        Ok(())
    }

    /// Extraction-time instability of an assembled signature: the
    /// experimental-rule check (ascending rule-id order, matching
    /// `signature.iter()`) followed by the fallback-path check. Shared with
    /// the delta pruner, which replays these draws under the treatment's
    /// configuration fingerprint instead of re-extracting.
    pub(crate) fn plan_instability_check(
        &self,
        signature: &RuleBits,
        template_seed: u64,
        config_fingerprint: u64,
    ) -> Result<(), CompileError> {
        for id in signature.iter() {
            if self
                .rules
                .unstable_for(id, template_seed, config_fingerprint)
            {
                return Err(CompileError::RuleInstability { rule: id });
            }
        }
        if signature.contains(crate::registry::RULE_FALLBACK_EXEC)
            && self.rules.fallback_unstable_for(template_seed)
        {
            return Err(CompileError::RuleInstability {
                rule: crate::registry::RULE_FALLBACK_EXEC,
            });
        }
        Ok(())
    }

    /// Exploration: apply enabled transforms in promise order under the
    /// global rewrite limit, each to the expressions its pattern's root tag
    /// matches ([`RuleSet::transforms_for`]; a transform rewrites no other
    /// root, so skipping them changes no rewrite). New expressions (and
    /// expressions of newly created groups) join the back of the worklist;
    /// a second pass catches matches enabled by late arrivals.
    ///
    /// Counts into `tasks`, each before the rewrite-limit check: one task
    /// per group a pass seeds (when that group's first seed expression
    /// pops), one per expression popped, and one per enabled transform
    /// whose root tag matches the expression's.
    ///
    /// Returns the set of transform rules that produced at least one rewrite
    /// — the "fired" trace fact `crate::delta` uses to decide whether
    /// disabling a transform can be replayed without re-exploring (a rule
    /// that never fired consumed none of the limit, so removing it leaves
    /// the trace bit-identical).
    fn explore(
        &self,
        memo: &mut Memo,
        config: &RuleConfig,
        tasks: &mut u64,
    ) -> Result<RuleBits, CompileError> {
        let mut fired = RuleBits::empty();
        let mut rewrites_left = MAX_TRANSFORM_APPLICATIONS;
        for _pass in 0..EXPLORATION_PASSES {
            let seeded = memo.group_count();
            let mut worklist: VecDeque<(GroupId, usize)> = memo
                .group_ids()
                .flat_map(|g| (0..memo.group(g).lexprs.len()).map(move |e| (g, e)))
                .collect();
            while let Some((g, e)) = worklist.pop_front() {
                // Work discovered mid-pass is a new group's expression 0 or
                // a later expression of an old group, so `e == 0` on an old
                // group is that group's pass seed.
                *tasks += u64::from(e == 0 && g.index() < seeded) + 1;
                if rewrites_left == 0 {
                    return Ok(fired);
                }
                let tag = memo.group(g).lexprs[e].op.tag();
                for &(rule_id, kind) in self.rules.transforms_for(tag) {
                    if !config.enabled(rule_id) {
                        continue;
                    }
                    *tasks += 1;
                    if rewrites_left == 0 {
                        return Ok(fired);
                    }
                    let rewrites = apply_transform(kind, memo, g, e);
                    if !rewrites.is_empty() {
                        fired.insert(rule_id);
                    }
                    for node in rewrites {
                        if rewrites_left == 0 {
                            return Ok(fired);
                        }
                        rewrites_left -= 1;
                        let mut provenance = memo.group(g).lexprs[e].provenance;
                        provenance.insert(rule_id);
                        let groups_before = memo.group_count();
                        let (op, children) = memo.materialize(node, provenance);
                        // New interior groups need their seed expressions
                        // explored too.
                        for ng in groups_before..memo.group_count() {
                            worklist.push_back((GroupId(ng as u32), 0));
                        }
                        if let Some(idx) =
                            memo.add_to_group(g, op, children, provenance, MAX_EXPRS_PER_GROUP)?
                        {
                            worklist.push_back((g, idx));
                        }
                    }
                }
            }
        }
        Ok(fired)
    }

    /// The implementation-rule context for a configuration (the policy rules
    /// it enables).
    pub(crate) fn impl_context(&self, config: &RuleConfig) -> ImplContext {
        ImplContext {
            shuffle_elimination: config.enabled(RULE_SHUFFLE_ELIMINATION),
            compression: config.enabled(RULE_INTERMEDIATE_COMPRESSION),
        }
    }

    /// Build one group's candidate list as one run of the memo's candidate
    /// arena: the enabled implementation/parametric candidates of every
    /// logical expression (in registry order) plus the required fallback.
    /// Each logical expression's
    /// canonical shape is built once and shared by the fallback and every
    /// matching parametric candidate. One task of [`Optimizer::implement`],
    /// which is also how `crate::delta` redoes a dirty group.
    pub(crate) fn implement_group(
        &self,
        memo: &mut Memo,
        g: GroupId,
        config: &RuleConfig,
        ctx: &ImplContext,
    ) -> Result<(), CompileError> {
        let n = memo.group(g).lexprs.len();
        let start = memo.open_candidates();
        for e in 0..n {
            let tag = memo.group(g).lexprs[e].op.tag();
            let canonical = build_shape(memo, g, e, None, ctx);
            for rule in self.rules.impls_for(tag) {
                if !config.enabled(rule.id) {
                    continue;
                }
                if let Some(p) = implement_expr(rule, memo, g, e, canonical, ctx) {
                    memo.push_candidate(p);
                }
            }
            let fallback = self.rules.rule(RULE_FALLBACK_EXEC);
            if let Some(p) = implement_expr(fallback, memo, g, e, canonical, ctx) {
                memo.push_candidate(p);
            }
        }
        if memo.close_candidates(g, start) == 0 {
            let tag = memo.group(g).lexprs[0].op.tag().to_string();
            return Err(CompileError::NoImplementation { tag });
        }
        Ok(())
    }

    /// Implementation of `groups`, in order, one task each: every group of
    /// a full compile, or the groups a `crate::delta` pass invalidated.
    pub(crate) fn implement(
        &self,
        memo: &mut Memo,
        groups: impl IntoIterator<Item = GroupId>,
        config: &RuleConfig,
        tasks: &mut u64,
    ) -> Result<(), CompileError> {
        let ctx = self.impl_context(config);
        for g in groups {
            *tasks += 1;
            self.implement_group(memo, g, config, &ctx)?;
        }
        Ok(())
    }

    /// Memoized bottom-up best-cost computation. In-progress groups are
    /// treated as infinite cost, which safely breaks any pathological cycle.
    /// `pub(crate)` so `crate::delta` can re-cost only the groups whose
    /// [`Best`] entries a treatment invalidated — the memoization makes
    /// every clean group a cache hit.
    pub(crate) fn best_cost(&self, memo: &mut Memo, g: GroupId, visiting: &mut Vec<bool>) -> f64 {
        if let Some(b) = memo.group(g).best {
            return b.cost;
        }
        if visiting[g.index()] {
            return f64::INFINITY;
        }
        visiting[g.index()] = true;
        let out_stats = memo.group(g).stats;
        let mut best = Best {
            cost: f64::INFINITY,
            pexpr: usize::MAX,
        };
        let mut edge_stats: Vec<NodeStats> = Vec::new();
        // Candidates are `Copy`: read each afresh, as the recursion into
        // children needs `&mut memo`.
        for i in 0..memo.candidates(g).len() {
            let p = memo.candidates(g)[i];
            let shape = *memo.shape(p.shape);
            let mut total = 0.0;
            edge_stats.clear();
            // The inputs are the implemented expression's children; index
            // them afresh each edge, as the recursion needs `&mut memo`.
            for j in 0..memo.implemented(g, &shape).children.len() {
                let c = memo.implemented(g, &shape).children[j];
                total += self.best_cost(memo, c, visiting);
                let mut cstats = memo.group(c).stats;
                let edge = memo.edge(&shape, j);
                if let Some(pre) = edge.pre_local {
                    let (pc, reduced) = pre_local_cost_and_rows(pre, &cstats, &out_stats);
                    total += pc;
                    cstats = reduced;
                }
                if let Some(spec) = &edge.exchange {
                    // The consumer's IO knob scales its shuffle edges (e.g.
                    // variants that read compressed/compact shuffle input).
                    total += exchange_cost(spec, &cstats) * p.claimed.io_mult;
                }
                edge_stats.push(cstats);
            }
            let op = &memo.implemented(g, &shape).op;
            total += local_cost(shape.kind, op, &out_stats, &edge_stats, &p.claimed);
            if total < best.cost {
                best = Best {
                    cost: total,
                    pexpr: i,
                };
            }
        }
        visiting[g.index()] = false;
        memo.group_mut(g).best = Some(best);
        best.cost
    }

    /// Extraction: materialize the winning physical expressions into a
    /// [`PhysicalPlan`] with explicit Exchange / partial-reduction nodes,
    /// accumulate the exact estimated cost of the emitted plan (each shared
    /// group counted once), assemble the rule signature, and run the
    /// experimental-rule instability check. Returns the plan (empty unless
    /// `build`) and its price: without `build` the same walk runs with node
    /// building off, so cost, signature and instability check are the
    /// plan's own, bit for bit. [`Kept::extract`] is its one caller.
    pub(crate) fn extract(
        &self,
        memo: &Memo,
        roots: &[GroupId],
        template_seed: u64,
        config_fingerprint: u64,
        build: bool,
    ) -> Result<(PhysicalPlan, Price), CompileError> {
        let mut out = Extraction {
            // Room for two nodes per memo group: emitted plans hold about
            // 1.4 (a winner plus its exchanges and pre-reductions, over
            // groups extraction never reaches), and no default compile of
            // `fresh_daily`'s recurring plans needs more than 2.
            plan: build.then(|| PhysicalPlan::with_capacity(2 * memo.group_count(), roots.len())),
            node_of: vec![None; memo.group_count()],
            child_nodes: Vec::new(),
            edge_stats: Vec::new(),
            signature: RuleBits::empty(),
            est_cost: 0.0,
            any_exchange: false,
            any_elided: false,
            any_compressed: false,
            template_seed,
            compression_io: self.rules.compression_actual_io(template_seed),
        };
        for &root in roots {
            let node = self.emit(memo, root, &mut out);
            if let Some(plan) = &mut out.plan {
                plan.mark_output(node);
            }
        }
        let Extraction {
            plan,
            mut signature,
            est_cost,
            any_exchange,
            any_elided,
            any_compressed,
            ..
        } = out;

        // Required bookkeeping rules always contribute.
        for id in [
            RULE_SCRIPT_STITCH,
            RULE_STATS_ANNOTATE,
            RULE_DEGREE_OF_PARALLELISM,
            RULE_PREDICATE_NORMALIZE,
            RULE_MEMO_DEDUP,
            RULE_PLAN_SERIALIZE,
        ] {
            signature.insert(id);
        }
        if any_exchange {
            signature.insert(RULE_EXCHANGE_PLACEMENT);
        }
        if any_elided {
            signature.insert(RULE_SHUFFLE_ELIMINATION);
        }
        if any_compressed {
            signature.insert(RULE_INTERMEDIATE_COMPRESSION);
        }

        // Experimental-rule instability (a contributing rule unstable for
        // this template) and fallback-path instability (the rarely-exercised
        // fallback implementation crashing): both depend on the assembled
        // signature only, so the delta pruner replays this exact check.
        self.plan_instability_check(&signature, template_seed, config_fingerprint)?;

        let price = Price {
            est_cost,
            signature,
        };
        Ok((plan.unwrap_or_default(), price))
    }

    /// The tuning the runtime simulator sees for a winner: a parametric
    /// rule's per-template truth ([`RuleSet::actual_tuning`]), drawn here —
    /// for the emitted plan only, never per candidate — and every other
    /// rule's claimed tuning, which is honest.
    fn actual_tuning(&self, p: &PExpr, template_seed: u64) -> PhysicalTuning {
        match self.rules.rule(p.rule).behavior {
            RuleBehavior::Parametric(_) => self.rules.actual_tuning(p.rule, template_seed),
            _ => p.claimed,
        }
    }

    /// Emit group `g`'s winner (children first, each group once): its
    /// shape's operator, pre-reductions and exchanges, each built from the
    /// implemented logical operator's payload ([`physical_op`]), with every
    /// hash or range exchange keyed and sized under the winner's claimed
    /// tuning ([`sized_scheme`]) and every node tuned with the winner's
    /// actual tuning; its estimated cost and provenance accumulate into
    /// `out`. Returns the winner's node. Its edges' nodes and statistics
    /// sit on `out`'s two stacks while its children are emitted above them.
    fn emit(&self, memo: &Memo, g: GroupId, out: &mut Extraction) -> NodeId {
        if let Some(node) = out.node_of[g.index()] {
            return node;
        }
        let group = memo.group(g);
        #[expect(
            clippy::expect_used,
            reason = "best_cost costs every group reachable from a root before extract runs"
        )]
        let best = group.best.expect("costing ran before extraction");
        let pexpr = memo.candidates(g)[best.pexpr];
        let shape = *memo.shape(pexpr.shape);
        let implemented = memo.implemented(g, &shape);
        let actual = self.actual_tuning(&pexpr, out.template_seed);
        let out_stats = group.stats;

        let base = out.child_nodes.len();
        for (j, &c) in implemented.children.iter().enumerate() {
            let mut node = self.emit(memo, c, out);
            let mut cstats = memo.group(c).stats;
            let edge = memo.edge(&shape, j);
            if let Some(pre) = edge.pre_local {
                let (pc, reduced) = pre_local_cost_and_rows(pre, &cstats, &out_stats);
                out.est_cost += pc;
                if let Some(plan) = &mut out.plan {
                    node = plan.add(PhysicalNode {
                        op: physical_op(pre.kind(), &implemented.op),
                        children: vec![node],
                        stats: reduced,
                        tuning: actual,
                    });
                }
                cstats = reduced;
            }
            if let Some(spec) = &edge.exchange {
                out.est_cost += exchange_cost(spec, &cstats) * pexpr.claimed.io_mult;
                out.any_exchange = true;
                out.any_compressed |= spec.compressed;
                if let Some(plan) = &mut out.plan {
                    // True bytes moved combine the compression policy's
                    // realized ratio with the consumer's actual IO knob.
                    let (cpu_mult, io_mult) = if spec.compressed {
                        (1.1, actual.io_mult * out.compression_io)
                    } else {
                        (1.0, actual.io_mult)
                    };
                    let tuning = PhysicalTuning {
                        cpu_mult,
                        io_mult,
                        parallelism_mult: 1.0,
                    };
                    node = plan.add(PhysicalNode {
                        op: PhysicalOp::Exchange {
                            scheme: sized_scheme(spec, &pexpr.claimed, &implemented.op, j),
                        },
                        children: vec![node],
                        stats: cstats,
                        tuning,
                    });
                }
            }
            out.child_nodes.push(node);
            out.edge_stats.push(cstats);
        }
        out.est_cost += local_cost(
            shape.kind,
            &implemented.op,
            &out_stats,
            &out.edge_stats[base..],
            &pexpr.claimed,
        );
        // A price-only walk numbers no node: `node_of` then only marks the
        // group emitted, so its cost is counted once.
        let node = match &mut out.plan {
            Some(plan) => plan.add(PhysicalNode {
                op: physical_op(shape.kind, &implemented.op),
                children: out.child_nodes[base..].to_vec(),
                stats: out_stats,
                tuning: actual,
            }),
            None => NodeId(g.0),
        };
        out.child_nodes.truncate(base);
        out.edge_stats.truncate(base);
        if shape.elided_exchange {
            out.any_elided = true;
        }
        out.signature = out.signature.union(&pexpr.provenance);
        out.node_of[g.index()] = Some(node);
        node
    }
}

/// What [`Optimizer::extract`] accumulates while emitting winners, plus the
/// template's per-template truth inputs.
struct Extraction {
    /// The plan being built; `None` when only the price is kept.
    plan: Option<PhysicalPlan>,
    /// Each group's emitted winner, by group index.
    node_of: Vec<Option<NodeId>>,
    /// The input nodes and input statistics of the winners being emitted,
    /// each winner's run above its caller's.
    child_nodes: Vec<NodeId>,
    edge_stats: Vec<NodeStats>,
    signature: RuleBits,
    est_cost: f64,
    any_exchange: bool,
    any_elided: bool,
    any_compressed: bool,
    template_seed: u64,
    /// The compression policy's realized IO ratio for this template.
    compression_io: f64,
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
        OUTPUT big TO "out/big_sales";
    "#;

    fn plan() -> scope_ir::LogicalPlan {
        bind_script(SCRIPT, &Catalog::default()).unwrap()
    }

    #[test]
    fn compiles_default_config_to_valid_physical_plan() {
        let opt = Optimizer::default();
        let c = opt.compile(&plan(), &opt.default_config()).unwrap();
        c.physical.validate().unwrap();
        assert!(c.est_cost.is_finite() && c.est_cost > 0.0);
        assert_eq!(c.physical.outputs().len(), 2);
        assert!(
            c.physical.exchange_count() > 0,
            "distributed plan has exchanges"
        );
    }

    #[test]
    fn compilation_is_deterministic() {
        let opt = Optimizer::default();
        let a = opt.compile(&plan(), &opt.default_config()).unwrap();
        let b = opt.compile(&plan(), &opt.default_config()).unwrap();
        assert_eq!(a.physical, b.physical);
        assert!((a.est_cost - b.est_cost).abs() < 1e-9);
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn signature_contains_required_and_impl_rules() {
        let opt = Optimizer::default();
        let c = opt.compile(&plan(), &opt.default_config()).unwrap();
        assert!(c.signature.contains(RULE_SCRIPT_STITCH));
        assert!(c.signature.contains(RULE_PLAN_SERIALIZE));
        assert!(c.signature.contains(RULE_EXCHANGE_PLACEMENT));
        // At least one implementation-layer rule fired: a concrete impl rule
        // (26..=41) or a parametric physical-variant rule (44..).
        assert!(
            c.signature.iter().any(|r| r.0 >= 26),
            "{:?}",
            c.signature.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn some_rule_flip_changes_the_plan() {
        let opt = Optimizer::default();
        let default = opt.default_config();
        let base = opt.compile(&plan(), &default).unwrap();
        let mut changed = 0;
        for id in base.signature.iter() {
            if !opt.rules().rule(id).flippable() {
                continue;
            }
            let cfg = default.with_flip(RuleFlip {
                rule: id,
                enable: !default.enabled(id),
            });
            if let Ok(c) = opt.compile(&plan(), &cfg) {
                if c.physical != base.physical {
                    changed += 1;
                }
            }
        }
        assert!(
            changed > 0,
            "flipping signature rules must be able to change the plan"
        );
    }

    #[test]
    fn disabling_hash_join_falls_back_to_other_join() {
        let opt = Optimizer::default();
        let default = opt.default_config();
        let hj = opt
            .rules()
            .rules()
            .iter()
            .find(|r| r.name == "HashJoinImpl")
            .unwrap()
            .id;
        let cfg = default.with_flip(RuleFlip {
            rule: hj,
            enable: false,
        });
        let c = opt.compile(&plan(), &cfg).unwrap();
        c.physical.validate().unwrap();
        // The plan still has a join of some flavor.
        let joins = c.physical.count_tag("HashJoin")
            + c.physical.count_tag("MergeJoin")
            + c.physical.count_tag("BroadcastJoin");
        assert!(joins >= 1);
    }

    #[test]
    fn est_cost_counts_shared_groups_once() {
        // Two outputs share `big`; the shared scan+filter should not be
        // double charged. Compare against a single-output version.
        let opt = Optimizer::default();
        let one_output = r#"
            sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
            big   = SELECT user, spend FROM sales WHERE spend > 100;
            OUTPUT big TO "out/big_sales";
        "#;
        let two_outputs = r#"
            sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
            big   = SELECT user, spend FROM sales WHERE spend > 100;
            OUTPUT big TO "out/a";
            OUTPUT big TO "out/b";
        "#;
        let c1 = opt
            .compile(
                &bind_script(one_output, &Catalog::default()).unwrap(),
                &opt.default_config(),
            )
            .unwrap();
        let c2 = opt
            .compile(
                &bind_script(two_outputs, &Catalog::default()).unwrap(),
                &opt.default_config(),
            )
            .unwrap();
        // Second output adds only one extra OutputExec, far less than 2x.
        assert!(
            c2.est_cost < c1.est_cost * 1.7,
            "{} vs {}",
            c1.est_cost,
            c2.est_cost
        );
    }

    /// Root-tag soundness: exploration tries a transform only on
    /// expressions with its root tag, which changes no rewrite only if the
    /// transform rewrites no other root. Check every other pairing over
    /// every fully explored memo of the compile-digest corpus
    /// (`tests/compile_digest.rs`) at seeds 2022 and 7, under the default
    /// configuration and under each single transform flip.
    #[test]
    fn no_transform_rewrites_an_expression_outside_its_root_tag() {
        use crate::registry::TransformKind;
        use scope_workload::{Workload, WorkloadConfig};
        let opt = Optimizer::default();
        let default = opt.default_config();
        let transforms: Vec<(RuleId, TransformKind)> = opt
            .rules()
            .rules()
            .iter()
            .filter_map(|r| match r.behavior {
                RuleBehavior::Transform(kind) => Some((r.id, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(transforms.len(), 18);
        let configs: Vec<RuleConfig> = std::iter::once(default)
            .chain(transforms.iter().map(|&(rule, _)| {
                default.with_flip(RuleFlip {
                    rule,
                    enable: !default.enabled(rule),
                })
            }))
            .collect();
        let (mut memos, mut mismatched) = (0, 0);
        let mut fired: Vec<TransformKind> = Vec::new();
        for seed in [2022, 7] {
            let jobs = Workload::new(WorkloadConfig {
                seed,
                num_templates: 60,
                adhoc_per_day: 15,
                max_instances_per_day: 2,
                ..WorkloadConfig::default()
            })
            .jobs_for_day(3);
            for job in &jobs {
                for config in &configs {
                    let Ok(full) = opt.search::<Compiled>(&job.plan, config, true, None).1 else {
                        continue;
                    };
                    memos += 1;
                    let memo = &full.memo;
                    for g in memo.group_ids() {
                        for (e, expr) in memo.group(g).lexprs.iter().enumerate() {
                            for &(_, kind) in &transforms {
                                let rewrites = apply_transform(kind, memo, g, e);
                                if kind.root_tag() == expr.op.tag() {
                                    if !rewrites.is_empty() && !fired.contains(&kind) {
                                        fired.push(kind);
                                    }
                                    continue;
                                }
                                mismatched += 1;
                                assert!(
                                    rewrites.is_empty(),
                                    "{kind:?} (root {}) rewrote {g}'s {} expression {e} \
                                     of {} at seed {seed}",
                                    kind.root_tag(),
                                    expr.op.tag(),
                                    job.name
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(memos > 1000 && mismatched > 100_000, "{memos} {mismatched}");
        // Matching roots do rewrite: the corpus reaches real matches.
        assert!(fired.len() >= 2, "the corpus exercises {fired:?}");
    }

    /// The price walk is the plan walk with node building off: over the
    /// first 20 jobs of the compile-digest corpus at seeds 2022 and 7,
    /// under the default configuration and every single flip, extracting a
    /// costed memo without building a plan reads the plan compile's cost
    /// and signature bit for bit, and builds no node.
    #[test]
    fn a_price_walk_reads_the_plan_walks_cost_and_signature() {
        use scope_workload::{Workload, WorkloadConfig};
        let opt = Optimizer::default();
        let default = opt.default_config();
        let configs: Vec<RuleConfig> = std::iter::once(default)
            .chain(opt.rules().flippable().map(|rule| {
                default.with_flip(RuleFlip {
                    rule,
                    enable: !default.enabled(rule),
                })
            }))
            .collect();
        let mut walks = 0;
        for seed in [2022, 7] {
            let jobs = Workload::new(WorkloadConfig {
                seed,
                num_templates: 60,
                adhoc_per_day: 15,
                max_instances_per_day: 2,
                ..WorkloadConfig::default()
            })
            .jobs_for_day(3);
            for job in jobs.iter().take(20) {
                for config in &configs {
                    let Ok(full) = opt.search::<Compiled>(&job.plan, config, true, None).1 else {
                        continue;
                    };
                    let (seed, fp) = (full.compiled.template_seed, config.bits().fingerprint());
                    let (plan, price) = opt
                        .extract(&full.memo, &full.roots, seed, fp, false)
                        .unwrap();
                    assert!(plan.is_empty());
                    assert_eq!(
                        (price.est_cost.to_bits(), price.signature),
                        (full.compiled.est_cost.to_bits(), full.compiled.signature),
                        "{} under {config:?}",
                        job.name
                    );
                    walks += 1;
                }
            }
        }
        assert!(walks > 9_000, "{walks}");
    }

    #[test]
    fn instability_surfaces_as_compile_error_for_some_flip() {
        let opt = Optimizer::default();
        let default = opt.default_config();
        // Find an experimental parametric rule that is unstable for this
        // template and applicable to an operator in the plan.
        let p = plan();
        let seed = p.template_id().0;
        let mut found = None;
        for r in opt.rules().rules() {
            if let crate::registry::RuleBehavior::Parametric(spec) = &r.behavior {
                let cfg = default.with_flip(RuleFlip {
                    rule: r.id,
                    enable: true,
                });
                if opt
                    .rules()
                    .unstable_for(r.id, seed, cfg.bits().fingerprint())
                    && ["Extract", "Filter", "Join", "Aggregate", "Output"].contains(&spec.target)
                {
                    found = Some(r.id);
                    break;
                }
            }
        }
        let Some(rule) = found else {
            // Statistically rare with 212 parametric rules, but tolerate.
            return;
        };
        let cfg = default.with_flip(RuleFlip { rule, enable: true });
        match opt.compile(&p, &cfg) {
            Err(CompileError::RuleInstability { rule: r }) => assert_eq!(r, rule),
            // The unstable rule may simply lose on cost; that is fine.
            Ok(c) => assert!(!c.signature.contains(rule)),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
