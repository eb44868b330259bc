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
//! expression explored, one per transform tried, and one per group
//! implemented (`Optimizer::explore`, `Optimizer::implement`).

use crate::cache::CompileCache;
use crate::config::{RuleBits, RuleConfig, RuleId};
use crate::cost::{exchange_cost, local_cost, pre_local_cost_and_rows};
use crate::delta::DeltaCompiler;
use crate::impls::{build_shape, implement_expr, sized_scheme, ImplContext};
use crate::memo::{Best, GroupId, Memo, PExpr, PreLocal};
use crate::registry::{
    RuleBehavior, RuleSet, RULE_DEGREE_OF_PARALLELISM, RULE_EXCHANGE_PLACEMENT, RULE_FALLBACK_EXEC,
    RULE_INTERMEDIATE_COMPRESSION, RULE_MEMO_DEDUP, RULE_PLAN_SERIALIZE, RULE_PREDICATE_NORMALIZE,
    RULE_SCRIPT_STITCH, RULE_SHUFFLE_ELIMINATION, RULE_STATS_ANNOTATE,
};
use crate::rules::apply_transform;
use rustc_hash::FxHashMap;
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

/// Everything one from-scratch compilation produces: the [`Compiled`]
/// result, the exploration trace fact `crate::delta` prices flips against,
/// and the memo artifacts [`crate::delta::BaseMemo`] freezes for incremental
/// treatment pricing.
pub(crate) struct FullCompile {
    pub compiled: Compiled,
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
    /// explore, implement, cost and extract. `checked` validates the plan
    /// and runs the disable-path check first ([`Optimizer::checked_seed`]);
    /// only `crate::delta`'s full-fallback replay passes `false`, having
    /// done both already. Returns the search's task count (also when the
    /// search fails) beside the result.
    pub(crate) fn search(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
        checked: bool,
    ) -> (u64, Result<FullCompile, CompileError>) {
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
        let run = self.optimize(&mut memo, &roots, config, template_seed, &mut tasks);
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
    fn optimize(
        &self,
        memo: &mut Memo,
        roots: &[GroupId],
        config: &RuleConfig,
        template_seed: u64,
        tasks: &mut u64,
    ) -> Result<(Compiled, RuleBits), CompileError> {
        let fired = self.explore(memo, config, tasks)?;
        let groups = memo.group_ids();
        self.implement(memo, groups, config, tasks)?;
        let mut visiting = vec![false; memo.group_count()];
        for &root in roots {
            self.best_cost(memo, root, &mut visiting);
        }
        let compiled = self.extract(memo, roots, template_seed, config.bits().fingerprint())?;
        Ok((compiled, fired))
    }

    /// Compile a logical plan under a rule configuration from scratch,
    /// consulting no cache: the search behind every cache miss.
    pub(crate) fn compile_uncached(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
    ) -> Result<Compiled, CompileError> {
        self.search(plan, config, true).1.map(|full| full.compiled)
    }

    /// An uncached compile with its task count: the harness's spelling (see
    /// [`CompileBudget`]), which ROADMAP item 1a retires.
    pub fn compile_budgeted(
        &self,
        plan: &LogicalPlan,
        config: &RuleConfig,
        _budget: CompileBudget,
    ) -> Result<BudgetedCompile, CompileError> {
        let (tasks_executed, full) = self.search(plan, config, true);
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
    /// global rewrite limit. New expressions (and expressions of newly
    /// created groups) join the back of the worklist; a second pass catches
    /// matches enabled by late arrivals.
    ///
    /// Counts into `tasks`, each before the rewrite-limit check: one task
    /// per group a pass seeds (when that group's first seed expression
    /// pops), one per expression popped, and one per transform tried.
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
        let transforms = self.rules.enabled_transforms(config);
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
                for (rule_id, kind, bit) in &transforms {
                    *tasks += 1;
                    if rewrites_left == 0 {
                        return Ok(fired);
                    }
                    let rewrites = apply_transform(*kind, memo, g, e);
                    if !rewrites.is_empty() {
                        fired.insert(*rule_id);
                    }
                    for node in rewrites {
                        if rewrites_left == 0 {
                            return Ok(fired);
                        }
                        rewrites_left -= 1;
                        let provenance = memo.group(g).lexprs[e].provenance.union(bit);
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

    /// Build one group's physical-expression list: the enabled
    /// implementation/parametric candidates of every logical expression (in
    /// registry order) plus the required fallback. Each logical expression's
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
        let mut produced = Vec::new();
        for e in 0..n {
            let tag = memo.group(g).lexprs[e].op.tag();
            let canonical = build_shape(memo, g, e, None, ctx).map(Arc::new);
            for rule in self.rules.impls_for(tag) {
                if !config.enabled(rule.id) {
                    continue;
                }
                if let Some(p) = implement_expr(rule, memo, g, e, canonical.as_ref(), ctx) {
                    produced.push(p);
                }
            }
            let fallback = self.rules.rule(RULE_FALLBACK_EXEC);
            if let Some(p) = implement_expr(fallback, memo, g, e, canonical.as_ref(), ctx) {
                produced.push(p);
            }
        }
        if produced.is_empty() {
            let tag = memo.group(g).lexprs[0].op.tag().to_string();
            return Err(CompileError::NoImplementation { tag });
        }
        memo.group_mut(g).pexprs = Arc::new(produced);
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
        // Hold the candidate list while recursing into children (which needs
        // `&mut memo`): one pointer copy instead of a clone per candidate.
        let pexprs = Arc::clone(&memo.group(g).pexprs);
        let mut best = Best {
            cost: f64::INFINITY,
            pexpr: usize::MAX,
        };
        let mut edge_stats: Vec<NodeStats> = Vec::new();
        for (i, p) in pexprs.iter().enumerate() {
            let shape = &*p.shape;
            let mut total = 0.0;
            edge_stats.clear();
            for (j, &c) in shape.children.iter().enumerate() {
                total += self.best_cost(memo, c, visiting);
                let mut cstats = memo.group(c).stats;
                if let Some(pre) = shape.pre_local[j] {
                    let (pc, reduced) = pre_local_cost_and_rows(pre, &cstats, &out_stats);
                    total += pc;
                    cstats = reduced;
                }
                if let Some(spec) = &shape.exchanges[j] {
                    // The consumer's IO knob scales its shuffle edges (e.g.
                    // variants that read compressed/compact shuffle input).
                    total += exchange_cost(spec, &cstats) * p.claimed.io_mult;
                }
                edge_stats.push(cstats);
            }
            total += local_cost(&shape.op, &out_stats, &edge_stats, &p.claimed);
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
    /// experimental-rule instability check. `pub(crate)` for `crate::delta`,
    /// which re-extracts a re-costed memo under the treatment's
    /// configuration fingerprint.
    pub(crate) fn extract(
        &self,
        memo: &Memo,
        roots: &[GroupId],
        template_seed: u64,
        config_fingerprint: u64,
    ) -> Result<Compiled, CompileError> {
        let mut out = Extraction {
            plan: PhysicalPlan::new(),
            mapping: FxHashMap::default(),
            signature: RuleBits::empty(),
            est_cost: 0.0,
            any_exchange: false,
            any_elided: false,
            any_compressed: false,
            template_seed,
            compression_io: self.rules.compression_actual_io(template_seed),
        };
        for &root in roots {
            self.emit(memo, root, &mut out);
            let node = out.mapping[&root];
            out.plan.mark_output(node);
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

        debug_assert!(plan.validate().is_ok(), "extractor must emit valid plans");
        Ok(Compiled {
            physical: Arc::new(plan),
            est_cost,
            signature,
            memo_groups: memo.group_count(),
            memo_exprs: memo.lexpr_count,
            template_seed,
        })
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
    /// shape's operator, pre-reductions and exchanges, with every hash or
    /// range exchange sized under the winner's claimed tuning
    /// ([`sized_scheme`]) and every node tuned with the winner's actual
    /// tuning; its estimated cost and provenance accumulate into `out`.
    fn emit(&self, memo: &Memo, g: GroupId, out: &mut Extraction) {
        if out.mapping.contains_key(&g) {
            return;
        }
        let group = memo.group(g);
        #[expect(
            clippy::expect_used,
            reason = "best_cost costs every group reachable from a root before extract runs"
        )]
        let best = group.best.expect("costing ran before extraction");
        let pexpr = &group.pexprs[best.pexpr];
        let shape = &*pexpr.shape;
        let actual = self.actual_tuning(pexpr, out.template_seed);
        let out_stats = group.stats;

        let mut child_nodes: Vec<NodeId> = Vec::with_capacity(shape.children.len());
        let mut edge_stats: Vec<NodeStats> = Vec::with_capacity(shape.children.len());
        for (j, &c) in shape.children.iter().enumerate() {
            self.emit(memo, c, out);
            let mut node = out.mapping[&c];
            let mut cstats = memo.group(c).stats;
            if let Some(pre) = shape.pre_local[j] {
                let (pc, reduced) = pre_local_cost_and_rows(pre, &cstats, &out_stats);
                out.est_cost += pc;
                let pre_op = match (pre, &shape.op) {
                    (PreLocal::PartialAgg, PhysicalOp::HashAggregate { group_by, aggs, .. }) => {
                        PhysicalOp::HashAggregate {
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                            mode: scope_ir::AggMode::Partial,
                        }
                    }
                    (PreLocal::LocalTopK(k), PhysicalOp::TopNExec { keys, .. }) => {
                        PhysicalOp::TopNExec {
                            k,
                            keys: keys.clone(),
                        }
                    }
                    // Guarded by construction: `impls.rs` only attaches a
                    // pre-reduction to the operator it pairs with, so a
                    // mismatch here is plan corruption — fail loudly rather
                    // than silently emitting a no-op project.
                    (pre, op) => unreachable!(
                        "pre-reduction {pre:?} paired with {}; only \
                         PartialAgg→HashAggregate and LocalTopK→TopNExec exist",
                        op.tag()
                    ),
                };
                node = out.plan.add(PhysicalNode {
                    op: pre_op,
                    children: vec![node],
                    stats: reduced,
                    tuning: actual,
                });
                cstats = reduced;
            }
            if let Some(spec) = &shape.exchanges[j] {
                out.est_cost += exchange_cost(spec, &cstats) * pexpr.claimed.io_mult;
                out.any_exchange = true;
                // True bytes moved combine the compression policy's realized
                // ratio with the consumer's actual IO knob.
                let mut io_mult = actual.io_mult;
                let cpu_mult = if spec.compressed {
                    out.any_compressed = true;
                    io_mult *= out.compression_io;
                    1.1
                } else {
                    1.0
                };
                let tuning = PhysicalTuning {
                    cpu_mult,
                    io_mult,
                    parallelism_mult: 1.0,
                };
                node = out.plan.add(PhysicalNode {
                    op: PhysicalOp::Exchange {
                        scheme: sized_scheme(spec, &pexpr.claimed),
                    },
                    children: vec![node],
                    stats: cstats,
                    tuning,
                });
            }
            child_nodes.push(node);
            edge_stats.push(cstats);
        }
        out.est_cost += local_cost(&shape.op, &out_stats, &edge_stats, &pexpr.claimed);
        if shape.elided_exchange {
            out.any_elided = true;
        }
        out.signature = out.signature.union(&pexpr.provenance);
        let node = out.plan.add(PhysicalNode {
            op: shape.op.clone(),
            children: child_nodes,
            stats: out_stats,
            tuning: actual,
        });
        out.mapping.insert(g, node);
    }
}

/// What [`Optimizer::extract`] accumulates while emitting winners, plus the
/// template's per-template truth inputs.
struct Extraction {
    plan: PhysicalPlan,
    mapping: FxHashMap<GroupId, NodeId>,
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
