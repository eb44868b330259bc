//! The explicit task-queue Cascades engine: anytime optimization under a
//! [`CompileBudget`].
//!
//! # Task cascade
//!
//! The recursive exploration of `crate::search` is restructured as three
//! exploration task kinds over one deterministic deque (optd's task cascade,
//! scaled to this registry), followed by a plain implementation loop:
//!
//! ```text
//!   ExploreGroup(g)        — seed of a pass: fan out ExploreExpr(g, e) for
//!                            every logical expression the group holds when
//!                            the task runs (pushed to the FRONT, in order)
//!   ExploreExpr(g, e)      — fan out ApplyRule(g, e, t) for every enabled
//!                            transform, in descending promise order
//!                            (pushed to the FRONT, so they pop in order)
//!   ApplyRule(g, e, t)     — run one transform; materialize its rewrites;
//!                            discovered work (new interior groups, new
//!                            expressions of g) joins the BACK of the queue
//!   implement_group(g)     — implementation epilogue, one task per group in
//!                            group-id order: build the group's physical
//!                            candidates (impl/parametric rules in registry
//!                            order + the required fallback)
//! ```
//!
//! Front-expansion for fan-out plus back-insertion for discovered work
//! makes the queue pop in exactly the order the recursive engine visited
//! `(group, expr)` pairs, so at unlimited budget the memo mutation sequence
//! — and therefore every compiled artifact — is byte-identical to the
//! recursive reference engine ([`Optimizer::compile_recursive`] keeps that
//! engine alive for the differential tests in `tests/budget_equivalence.rs`).
//!
//! # Budget semantics
//!
//! [`CompileBudget`] bounds *exploration* tasks: the budget is checked when
//! an ExploreGroup/ExploreExpr/ApplyRule task is popped, and on exhaustion
//! the remaining exploration queue is dropped and the engine proceeds
//! straight to the epilogue. Implementation, costing, and extraction
//! always run: every group holds at least its copied-in logical expression
//! and the required fallback rule implements every operator, so anytime
//! extraction from a partially explored memo is always a valid executable
//! plan. The result is tagged [`BudgetOutcome::Truncated`] with the number
//! of dropped exploration tasks (later passes that were never seeded are
//! not counted). The search's own rewrite limit
//! (`search::MAX_TRANSFORM_APPLICATIONS`) is a *search heuristic*, not an
//! interruption: exhausting it is still [`BudgetOutcome::Complete`].
//!
//! # Anytime monotonicity
//!
//! Truncation only drops the tail of a deterministic task sequence, so the
//! memo at a smaller budget is a *prefix* of the memo at a larger one:
//! every group has a subset of the expressions, hence a subset of the
//! physical candidates, hence a group-best cost that can only decrease as
//! the budget grows. [`BudgetedCompile::objective`] (the sum of root-group
//! best costs) is therefore monotonically non-increasing in the budget —
//! the property `budget_monotonicity.rs` proves. `Compiled::est_cost` is
//! *not* used for that contract: it prices shared groups once, and less
//! sharing in a better-searched plan can raise it.
//!
//! # Cache-key soundness
//!
//! A compile cache keyed on `(plan, config)` may only serve results that do
//! not depend on the budget. We take the conservative side:
//! **finite-budget compiles are uncacheable**. [`Optimizer::compile_budgeted`]
//! bypasses the compile cache and the delta compiler entirely and always runs
//! this engine from scratch, and no cached compile ever sees a budget: the
//! caches and the delta compiler compile at unlimited budget only, and the
//! day loop never compiles any other way. Equivalently, the budget is
//! morally part of the cache key and only the unlimited point is ever
//! populated. Delta pricing is also only sound at unlimited budget (a base
//! memo frozen at one truncation point cannot replay another).

use crate::config::{RuleBits, RuleConfig};
use crate::memo::{GroupId, Memo};
use crate::rules::apply_transform;
use crate::search::{
    CompileError, Compiled, Optimizer, EXPLORATION_PASSES, MAX_EXPRS_PER_GROUP,
    MAX_TRANSFORM_APPLICATIONS,
};
use serde::Serialize;
use std::collections::VecDeque;

/// Work limit of one compile. At [`CompileBudget::unlimited`] the engine
/// behaves exactly like the recursive reference engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CompileBudget {
    /// Maximum exploration tasks (ExploreGroup + ExploreExpr + ApplyRule)
    /// the engine may execute; `None` is unlimited. Implementation,
    /// costing, and extraction are a mandatory epilogue and never count
    /// against the budget.
    pub max_tasks: Option<u64>,
}

impl CompileBudget {
    /// No limit — the engine runs to completion.
    #[must_use]
    pub const fn unlimited() -> Self {
        Self { max_tasks: None }
    }

    /// Allow at most `n` exploration tasks.
    #[must_use]
    pub const fn tasks(n: u64) -> Self {
        Self { max_tasks: Some(n) }
    }
}

/// How a budgeted compile ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetOutcome {
    /// Exploration ran to completion; the result is byte-identical to an
    /// unlimited compile.
    Complete,
    /// The task budget tripped mid-exploration; the plan was extracted from
    /// the partially explored memo. `tasks_remaining` counts the
    /// exploration tasks still queued when the budget tripped (seed tasks
    /// of later passes are not yet materialized and therefore not counted).
    Truncated { tasks_remaining: u64 },
}

impl BudgetOutcome {
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        matches!(self, BudgetOutcome::Truncated { .. })
    }
}

/// A successful budgeted compile: the anytime plan plus engine telemetry.
#[derive(Debug, Clone)]
pub struct BudgetedCompile {
    pub compiled: Compiled,
    pub outcome: BudgetOutcome,
    /// Tasks the engine executed (exploration + implementation epilogue).
    pub tasks_executed: u64,
    /// Sum of root-group best costs — the anytime objective the budget
    /// monotonicity contract is stated over. Unlike `Compiled::est_cost`
    /// (which prices shared groups once), this counts a shared group per
    /// consumer and is monotonically non-increasing in the budget.
    pub objective: f64,
}

/// One unit of budget-gated exploration work (the implementation epilogue is
/// a plain loop, [`TaskEngine::implement_all`]).
enum Task {
    ExploreGroup(GroupId),
    ExploreExpr(GroupId, usize),
    /// `usize` indexes the promise-ordered enabled-transform list.
    ApplyRule(GroupId, usize, usize),
}

/// The task-queue engine over one memo. Holds the running task count so
/// callers (delta replays, the budget bench) can read how much work a
/// compile actually did.
pub(crate) struct TaskEngine<'a> {
    opt: &'a Optimizer,
    pub(crate) tasks_executed: u64,
}

/// Everything one engine run produces beyond the [`Compiled`] artifact.
pub(crate) struct EngineRun {
    pub(crate) compiled: Compiled,
    /// Transform rules that produced at least one rewrite during
    /// exploration. This is a strict superset of the transforms visible in
    /// memo provenance: a rewrite consumes exploration budget even when the
    /// materialized expression is rejected by dedup or the per-group cap, so
    /// only a rule absent from this set is provably trace-invisible.
    pub(crate) fired_transforms: RuleBits,
    pub(crate) outcome: BudgetOutcome,
    pub(crate) objective: f64,
}

impl<'a> TaskEngine<'a> {
    pub(crate) fn new(opt: &'a Optimizer) -> Self {
        Self {
            opt,
            tasks_executed: 0,
        }
    }

    /// Full cascade over a memo already seeded by `Memo::copy_in`:
    /// exploration under the budget, then the mandatory implement / cost /
    /// extract epilogue.
    pub(crate) fn run(
        &mut self,
        memo: &mut Memo,
        roots: &[GroupId],
        config: &RuleConfig,
        template_seed: u64,
        budget: CompileBudget,
    ) -> Result<EngineRun, CompileError> {
        let (fired_transforms, outcome) = self.explore(memo, config, budget)?;
        self.implement_all(memo, config)?;
        let mut visiting = vec![false; memo.group_count()];
        for &root in roots {
            self.opt.best_cost(memo, root, &mut visiting);
        }
        let objective = roots
            .iter()
            .map(|r| memo.group(*r).best.map_or(f64::INFINITY, |b| b.cost))
            .sum();
        let compiled = self
            .opt
            .extract(memo, roots, template_seed, config.bits().fingerprint())?;
        Ok(EngineRun {
            compiled,
            fired_transforms,
            outcome,
            objective,
        })
    }

    /// Exploration cascade. Reproduces the recursive engine's worklist
    /// order exactly (see the module docs for the queue discipline); the
    /// rewrite limit `MAX_TRANSFORM_APPLICATIONS` halts all passes exactly
    /// where the recursive engine returned.
    fn explore(
        &mut self,
        memo: &mut Memo,
        config: &RuleConfig,
        budget: CompileBudget,
    ) -> Result<(RuleBits, BudgetOutcome), CompileError> {
        let transforms = self.opt.rules().enabled_transforms(config);
        let mut fired = RuleBits::empty();
        let mut rewrites_left = MAX_TRANSFORM_APPLICATIONS;
        let mut queue: VecDeque<Task> = VecDeque::new();
        'passes: for _pass in 0..EXPLORATION_PASSES {
            queue.extend(memo.group_ids().map(Task::ExploreGroup));
            while let Some(task) = queue.pop_front() {
                if let Some(max) = budget.max_tasks {
                    if self.tasks_executed >= max {
                        // The popped task goes unexecuted too.
                        let tasks_remaining = queue.len() as u64 + 1;
                        return Ok((fired, BudgetOutcome::Truncated { tasks_remaining }));
                    }
                }
                self.tasks_executed += 1;
                match task {
                    Task::ExploreGroup(g) => {
                        // A group can only grow while its own tasks run, so
                        // expanding at pop time sees exactly the expressions
                        // the pass seed enumerated.
                        for e in (0..memo.group(g).lexprs.len()).rev() {
                            queue.push_front(Task::ExploreExpr(g, e));
                        }
                    }
                    Task::ExploreExpr(g, e) => {
                        if rewrites_left == 0 {
                            break 'passes;
                        }
                        for t in (0..transforms.len()).rev() {
                            queue.push_front(Task::ApplyRule(g, e, t));
                        }
                    }
                    Task::ApplyRule(g, e, t) => {
                        if rewrites_left == 0 {
                            break 'passes;
                        }
                        let (rule_id, kind, bit) = &transforms[t];
                        let rewrites = apply_transform(*kind, memo, g, e);
                        if !rewrites.is_empty() {
                            fired.insert(*rule_id);
                        }
                        for node in rewrites {
                            if rewrites_left == 0 {
                                break 'passes;
                            }
                            rewrites_left -= 1;
                            let provenance = memo.group(g).lexprs[e].provenance.union(bit);
                            let groups_before = memo.group_count();
                            let (op, children) = memo.materialize(node, provenance);
                            // New interior groups need their seed
                            // expressions explored too.
                            for ng in groups_before..memo.group_count() {
                                queue.push_back(Task::ExploreExpr(GroupId(ng as u32), 0));
                            }
                            if let Some(idx) =
                                memo.add_to_group(g, op, children, provenance, MAX_EXPRS_PER_GROUP)?
                            {
                                queue.push_back(Task::ExploreExpr(g, idx));
                            }
                        }
                    }
                }
            }
        }
        Ok((fired, BudgetOutcome::Complete))
    }

    /// Implementation epilogue: one task per memo group, in group-id order
    /// — never budget-gated, so extraction always has a physical candidate
    /// (the required fallback) for every group.
    fn implement_all(&mut self, memo: &mut Memo, config: &RuleConfig) -> Result<(), CompileError> {
        let groups: Vec<GroupId> = memo.group_ids().collect();
        self.implement(memo, groups, config)
    }

    /// Delta replay entry: re-implement exactly the invalidated groups, in
    /// group-id order, one task each. This is the whole work of a delta
    /// recompile — `crate::delta` forked the memo, this replays the dirty
    /// part of the implementation epilogue against the treatment.
    pub(crate) fn replay_implement(
        &mut self,
        memo: &mut Memo,
        dirty: &[bool],
        config: &RuleConfig,
    ) -> Result<(), CompileError> {
        let groups = dirty
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(gi, _)| GroupId(gi as u32));
        self.implement(memo, groups, config)
    }

    fn implement(
        &mut self,
        memo: &mut Memo,
        groups: impl IntoIterator<Item = GroupId>,
        config: &RuleConfig,
    ) -> Result<(), CompileError> {
        let ctx = self.opt.impl_context(config);
        for g in groups {
            self.tasks_executed += 1;
            self.opt.implement_group(memo, g, config, &ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn unlimited_budget_matches_recursive_engine() {
        let opt = Optimizer::default();
        let config = opt.default_config();
        let budgeted = opt
            .compile_budgeted(&plan(), &config, CompileBudget::unlimited())
            .unwrap();
        let recursive = opt.compile_recursive(&plan(), &config).unwrap();
        assert_eq!(budgeted.outcome, BudgetOutcome::Complete);
        assert_eq!(budgeted.compiled, recursive);
        assert_eq!(
            budgeted.compiled.est_cost.to_bits(),
            recursive.est_cost.to_bits()
        );
    }

    #[test]
    fn every_task_prefix_extracts_a_valid_plan() {
        let opt = Optimizer::default();
        let config = opt.default_config();
        let full = opt
            .compile_budgeted(&plan(), &config, CompileBudget::unlimited())
            .unwrap();
        let mut last_objective = f64::INFINITY;
        for b in 0..=full.tasks_executed {
            let anytime = opt
                .compile_budgeted(&plan(), &config, CompileBudget::tasks(b))
                .unwrap();
            anytime.compiled.physical.validate().unwrap();
            assert_eq!(
                anytime.compiled.physical.outputs().len(),
                plan().outputs().len()
            );
            assert!(
                anytime.objective <= last_objective,
                "objective regressed at budget {b}: {} > {}",
                anytime.objective,
                last_objective
            );
            last_objective = anytime.objective;
            if b >= full.tasks_executed {
                assert_eq!(anytime.outcome, BudgetOutcome::Complete);
            }
        }
    }

    #[test]
    fn truncated_outcome_reports_remaining_work() {
        let opt = Optimizer::default();
        let config = opt.default_config();
        let tight = opt
            .compile_budgeted(&plan(), &config, CompileBudget::tasks(3))
            .unwrap();
        let BudgetOutcome::Truncated { tasks_remaining } = tight.outcome else {
            panic!("3 tasks cannot complete exploration: {:?}", tight.outcome)
        };
        assert!(tasks_remaining > 0);
        assert_eq!(tight.tasks_executed - tight.compiled.memo_groups as u64, 3);
    }
}
