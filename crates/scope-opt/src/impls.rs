//! Logical→physical implementation rules, including the required fallback
//! implementations and the parametric variant rules.
//!
//! Exchange placement happens here: each implementation decides, per input
//! edge, whether data must be moved (and how) by comparing the child group's
//! natural distribution with the operator's requirement, subject to the
//! `ShuffleElimination` policy rule.
//!
//! Implement once, tune many: the fallback rule and every parametric variant
//! implement a logical expression *canonically*, so they differ only in
//! tuning and share one [`PShape`] (`build_shape` with no `ImplKind`).
//! Nothing here depends on a candidate's tuning — exchange partition counts
//! are sized and per-template truth is drawn at extraction, for the winner
//! only (`sized_scheme`, `Optimizer::extract`).

use crate::memo::{Dist, ExchangeSpec, GroupId, Memo, PExpr, PShape, PreLocal};
use crate::registry::{ImplKind, ParametricSpec, RuleBehavior, RuleDef};
use scope_ir::logical::LogicalOp;
use scope_ir::physical::{AggMode, Partitioning, PhysicalOp, PhysicalTuning, ScanVariant};
use std::sync::Arc;

/// Estimated build-side bytes above which broadcast joins are rejected.
const BROADCAST_THRESHOLD_BYTES: f64 = 6.4e7;
/// Estimated |L|·|R| above which nested-loop joins are rejected.
const NESTED_LOOP_LIMIT: f64 = 1e8;
/// Target estimated bytes per partition when sizing exchanges. Sizing on
/// bytes (not rows) is what couples data-volume reductions to vertex counts —
/// the paper's "I/O reduction might be a natural result of fewer vertices"
/// observation (§5.5).
const BYTES_PER_PARTITION: f64 = 6.4e7;
/// Hard cap on exchange partitions.
const MAX_PARTITIONS: u32 = 256;
/// CPU penalty of the required fallback implementations.
const FALLBACK_CPU_PENALTY: f64 = 1.7;
/// IO penalty of the required fallback implementations.
const FALLBACK_IO_PENALTY: f64 = 1.25;

/// Context shared across implementation-rule applications for one compile:
/// the policy rules the configuration enables.
pub struct ImplContext {
    /// `ShuffleElimination` policy rule enabled.
    pub shuffle_elimination: bool,
    /// `IntermediateCompression` policy rule enabled.
    pub compression: bool,
}

/// Number of partitions for an exchange moving approximately `bytes_est`
/// bytes, scaled by the implementation's parallelism knob. Deterministic
/// (vertex counts must be noise-free). Bytes-based sizing means any flip
/// that shrinks the data flowing through an exchange also shrinks the
/// downstream vertex count.
#[must_use]
pub fn choose_partitions(bytes_est: f64, parallelism_mult: f64) -> u32 {
    let raw = (bytes_est / BYTES_PER_PARTITION).ceil().max(1.0);
    let pow2 = raw.log2().ceil().exp2();
    let scaled = (pow2 * parallelism_mult).round().max(1.0);
    (scaled as u32).clamp(1, MAX_PARTITIONS)
}

/// The partitioning an exchange of a shape takes under the consumer's
/// `claimed` tuning: a hash or range scheme gets its partition count sized
/// from the bytes it moves, scaled by the consumer's IO knob (the bytes its
/// shuffle edges move) and parallelism knob; broadcast and gather are fixed.
#[must_use]
pub(crate) fn sized_scheme(spec: &ExchangeSpec, claimed: &PhysicalTuning) -> Partitioning {
    let partitions = || choose_partitions(spec.bytes * claimed.io_mult, claimed.parallelism_mult);
    match &spec.scheme {
        Partitioning::Hash { columns, .. } => Partitioning::Hash {
            columns: columns.clone(),
            partitions: partitions(),
        },
        Partitioning::Range { columns, .. } => Partitioning::Range {
            columns: columns.clone(),
            partitions: partitions(),
        },
        fixed => fixed.clone(),
    }
}

/// Apply one implementation or parametric rule to a logical expression.
/// A concrete `Implement(kind)` rule builds its own shape; the fallback and
/// parametric rules share `canonical` (the expression's canonical
/// [`build_shape`]) and differ only in claimed tuning. Returns `None` when
/// the rule does not apply (wrong operator, inputs out of its applicability
/// envelope, …).
#[must_use]
pub(crate) fn implement_expr(
    rule: &RuleDef,
    memo: &Memo,
    gid: GroupId,
    eidx: usize,
    canonical: Option<&Arc<PShape>>,
    ctx: &ImplContext,
) -> Option<PExpr> {
    let expr = &memo.group(gid).lexprs[eidx];
    let (claimed, shape) = match &rule.behavior {
        RuleBehavior::Implement(kind) => {
            let claimed = if *kind == ImplKind::NestedLoopJoin {
                // Nested loop is modelled as a single-partition join with a
                // steep CPU penalty (its quadratic work), honest on both
                // sides.
                PhysicalTuning {
                    cpu_mult: 6.0,
                    io_mult: 1.0,
                    parallelism_mult: 1.0,
                }
            } else {
                PhysicalTuning::IDENTITY
            };
            (
                claimed,
                Arc::new(build_shape(memo, gid, eidx, Some(*kind), ctx)?),
            )
        }
        RuleBehavior::FallbackImpl => (
            PhysicalTuning {
                cpu_mult: FALLBACK_CPU_PENALTY,
                io_mult: FALLBACK_IO_PENALTY,
                parallelism_mult: 1.0,
            },
            Arc::clone(canonical?),
        ),
        RuleBehavior::Parametric(spec) => {
            if !parametric_matches(spec, &expr.op) {
                return None;
            }
            (spec.claimed, Arc::clone(canonical?))
        }
        _ => return None,
    };
    let mut provenance = expr.provenance;
    provenance.insert(rule.id);
    Some(PExpr {
        shape,
        claimed,
        rule: rule.id,
        provenance,
    })
}

/// Construct the physical shape. `kind == None` means "canonical
/// implementation for this operator": what the fallback rule and every
/// matching parametric rule share (`None` back only for an operator without
/// one; there is none today). Hash and range partition counts are left 0 for
/// [`sized_scheme`] to fill in.
pub(crate) fn build_shape(
    memo: &Memo,
    gid: GroupId,
    eidx: usize,
    kind: Option<ImplKind>,
    ctx: &ImplContext,
) -> Option<PShape> {
    let expr = &memo.group(gid).lexprs[eidx];
    let children = &expr.children;
    let child_stats = |i: usize| memo.group(children[i]).stats;
    let child_dist = |i: usize| &memo.group(children[i]).dist;
    let mk = |op: PhysicalOp,
              exchanges: Vec<Option<ExchangeSpec>>,
              pre_local: Vec<Option<PreLocal>>,
              elided: bool| {
        Some(PShape {
            op,
            children: children.clone(),
            exchanges,
            pre_local,
            elided_exchange: elided,
        })
    };
    let exchange = |scheme: Partitioning, sorted: bool, bytes: f64| ExchangeSpec {
        scheme,
        sorted,
        compressed: ctx.compression,
        bytes,
    };
    let hash_exchange = |columns: Vec<usize>, bytes: f64| {
        let partitions = 0;
        exchange(
            Partitioning::Hash {
                columns,
                partitions,
            },
            false,
            bytes,
        )
    };
    let range_exchange = |columns: Vec<usize>, bytes: f64| {
        let partitions = 0;
        exchange(
            Partitioning::Range {
                columns,
                partitions,
            },
            true,
            bytes,
        )
    };
    let gather = |sorted: bool| exchange(Partitioning::Gather, sorted, 0.0);

    match (&expr.op, kind) {
        (LogicalOp::Extract { table }, Some(ImplKind::Scan) | None) => mk(
            PhysicalOp::TableScan {
                table: table.name.clone(),
                variant: ScanVariant::Sequential,
            },
            vec![],
            vec![],
            false,
        ),
        (LogicalOp::Filter { predicate, .. }, Some(ImplKind::Filter) | None) => mk(
            PhysicalOp::FilterExec {
                predicate: predicate.clone(),
            },
            vec![None],
            vec![None],
            false,
        ),
        (LogicalOp::Project { exprs }, Some(ImplKind::Project) | None) => mk(
            PhysicalOp::ProjectExec {
                exprs: exprs.clone(),
            },
            vec![None],
            vec![None],
            false,
        ),
        (LogicalOp::Join { kind: jk, on, .. }, jkind) => {
            let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
            let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
            let (lbytes, rbytes) = (
                child_stats(0).estimated_bytes(),
                child_stats(1).estimated_bytes(),
            );
            match jkind {
                Some(ImplKind::HashJoin) | None => {
                    let mut elided = false;
                    let lx =
                        if ctx.shuffle_elimination && child_dist(0) == &Dist::Hash(lcols.clone()) {
                            elided = true;
                            None
                        } else {
                            Some(hash_exchange(lcols, lbytes.max(rbytes)))
                        };
                    let rx =
                        if ctx.shuffle_elimination && child_dist(1) == &Dist::Hash(rcols.clone()) {
                            elided = true;
                            None
                        } else {
                            Some(hash_exchange(rcols, lbytes.max(rbytes)))
                        };
                    mk(
                        PhysicalOp::HashJoin {
                            kind: *jk,
                            on: on.clone(),
                        },
                        vec![lx, rx],
                        vec![None, None],
                        elided,
                    )
                }
                Some(ImplKind::MergeJoin) => {
                    let mut elided = false;
                    let lx = if ctx.shuffle_elimination
                        && child_dist(0) == &Dist::Sorted(lcols.clone())
                    {
                        elided = true;
                        None
                    } else {
                        Some(range_exchange(lcols, lbytes.max(rbytes)))
                    };
                    let rx = if ctx.shuffle_elimination
                        && child_dist(1) == &Dist::Sorted(rcols.clone())
                    {
                        elided = true;
                        None
                    } else {
                        Some(range_exchange(rcols, lbytes.max(rbytes)))
                    };
                    mk(
                        PhysicalOp::MergeJoin {
                            kind: *jk,
                            on: on.clone(),
                        },
                        vec![lx, rx],
                        vec![None, None],
                        elided,
                    )
                }
                Some(ImplKind::BroadcastJoin) => {
                    // Only worthwhile (and allowed) for small build sides.
                    if child_stats(1).estimated_bytes() > BROADCAST_THRESHOLD_BYTES {
                        return None;
                    }
                    mk(
                        PhysicalOp::BroadcastJoin {
                            kind: *jk,
                            on: on.clone(),
                        },
                        vec![None, Some(exchange(Partitioning::Broadcast, false, 0.0))],
                        vec![None, None],
                        false,
                    )
                }
                Some(ImplKind::NestedLoopJoin) => {
                    let (lrows, rrows) =
                        (child_stats(0).rows.estimated, child_stats(1).rows.estimated);
                    if lrows * rrows > NESTED_LOOP_LIMIT {
                        return None;
                    }
                    mk(
                        PhysicalOp::HashJoin {
                            kind: *jk,
                            on: on.clone(),
                        },
                        vec![Some(gather(false)), Some(gather(false))],
                        vec![None, None],
                        false,
                    )
                }
                _ => None,
            }
        }
        (LogicalOp::Aggregate { group_by, aggs, .. }, akind) => {
            let bytes = child_stats(0).estimated_bytes();
            let keyed = !group_by.is_empty();
            let key_exchange = || {
                if keyed {
                    hash_exchange(group_by.clone(), bytes)
                } else {
                    gather(false)
                }
            };
            match akind {
                Some(ImplKind::HashAgg) | None => {
                    let mut elided = false;
                    let x = if ctx.shuffle_elimination
                        && keyed
                        && child_dist(0) == &Dist::Hash(group_by.clone())
                    {
                        elided = true;
                        None
                    } else {
                        Some(key_exchange())
                    };
                    mk(
                        PhysicalOp::HashAggregate {
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                            mode: AggMode::Single,
                        },
                        vec![x],
                        vec![None],
                        elided,
                    )
                }
                Some(ImplKind::StreamAgg) => {
                    if !keyed {
                        return None;
                    }
                    mk(
                        PhysicalOp::StreamAggregate {
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                            mode: AggMode::Single,
                        },
                        vec![Some(range_exchange(group_by.clone(), bytes))],
                        vec![None],
                        false,
                    )
                }
                Some(ImplKind::AggSplitLocalGlobal) => {
                    if !keyed || !aggs.iter().all(|a| a.func.decomposable()) {
                        return None;
                    }
                    mk(
                        PhysicalOp::HashAggregate {
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                            mode: AggMode::Final,
                        },
                        vec![Some(hash_exchange(group_by.clone(), bytes))],
                        vec![Some(PreLocal::PartialAgg)],
                        false,
                    )
                }
                _ => None,
            }
        }
        (LogicalOp::Sort { keys }, Some(ImplKind::Sort) | None) => {
            let cols: Vec<usize> = keys.iter().map(|k| k.column).collect();
            let bytes = child_stats(0).estimated_bytes();
            let mut elided = false;
            let x = if ctx.shuffle_elimination && child_dist(0) == &Dist::Sorted(cols.clone()) {
                elided = true;
                None
            } else {
                Some(range_exchange(cols, bytes))
            };
            mk(
                PhysicalOp::SortExec { keys: keys.clone() },
                vec![x],
                vec![None],
                elided,
            )
        }
        (LogicalOp::Top { k, keys }, Some(ImplKind::TopN) | None) => mk(
            PhysicalOp::TopNExec {
                k: *k,
                keys: keys.clone(),
            },
            vec![Some(gather(true))],
            vec![Some(PreLocal::LocalTopK(*k))],
            false,
        ),
        (
            LogicalOp::Window {
                partition_by,
                funcs,
            },
            Some(ImplKind::Window) | None,
        ) => {
            let bytes = child_stats(0).estimated_bytes();
            mk(
                PhysicalOp::WindowExec {
                    partition_by: partition_by.clone(),
                    funcs: funcs.clone(),
                },
                vec![Some(hash_exchange(partition_by.clone(), bytes))],
                vec![None],
                false,
            )
        }
        (
            LogicalOp::Process {
                udf, cpu_factor, ..
            },
            Some(ImplKind::Process) | None,
        ) => mk(
            PhysicalOp::ProcessExec {
                udf: udf.clone(),
                cpu_factor: *cpu_factor,
            },
            vec![None],
            vec![None],
            false,
        ),
        (LogicalOp::Union, Some(ImplKind::UnionAll) | None) => {
            let n = children.len();
            mk(
                PhysicalOp::UnionAllExec,
                vec![None; n],
                vec![None; n],
                false,
            )
        }
        (LogicalOp::Output { path }, Some(ImplKind::Output) | None) => mk(
            PhysicalOp::OutputExec { path: path.clone() },
            vec![None],
            vec![None],
            false,
        ),
        _ => None,
    }
}

/// Whether a parametric spec's target matches a logical operator: its tag,
/// whatever the operator's parameters. Join variants therefore decorate every
/// `Join` — `LeftSemi` joins introduced by rewrites included — which is also
/// the tag-level granularity `crate::delta` dirties groups at.
#[must_use]
pub fn parametric_matches(spec: &ParametricSpec, op: &LogicalOp) -> bool {
    spec.target == op.tag()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleBits;
    use crate::registry::RuleSet;
    use crate::search::Optimizer;
    use scope_ir::expr::ScalarExpr;
    use scope_ir::logical::{JoinKind, TableRef};
    use scope_ir::schema::{Column, DataType, Schema};
    use scope_ir::stats::DualStats;
    use scope_lang::{bind_script, Catalog, TableInfo};

    fn ctx() -> ImplContext {
        ImplContext {
            shuffle_elimination: true,
            compression: false,
        }
    }

    /// [`implement_expr`] on a group's first expression, with its canonical
    /// shape built the way `Optimizer::implement_group` builds it.
    fn implement(rule: &RuleDef, memo: &Memo, g: GroupId, c: &ImplContext) -> Option<PExpr> {
        let canonical = build_shape(memo, g, 0, None, c).map(Arc::new);
        implement_expr(rule, memo, g, 0, canonical.as_ref(), c)
    }

    fn scan(memo: &mut Memo, name: &str, rows: f64, row_len: u16) -> GroupId {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::String { avg_len: row_len }),
        ]);
        memo.intern(
            LogicalOp::Extract {
                table: TableRef::new(name, schema, DualStats::exact(rows)),
            },
            vec![],
            RuleBits::empty(),
        )
    }

    fn join(memo: &mut Memo, kind: JoinKind, l: GroupId, r: GroupId, sel: f64) -> GroupId {
        memo.intern(
            LogicalOp::Join {
                kind,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(sel),
            },
            vec![l, r],
            RuleBits::empty(),
        )
    }

    fn rule_named<'a>(rules: &'a RuleSet, name: &str) -> &'a RuleDef {
        rules.rules().iter().find(|r| r.name == name).unwrap()
    }

    /// The first parametric rule targeting `tag` that passes `keep`.
    fn parametric<'a>(
        rules: &'a RuleSet,
        tag: &str,
        keep: impl Fn(&RuleDef) -> bool,
    ) -> &'a RuleDef {
        rules
            .rules()
            .iter()
            .find(|r| {
                matches!(&r.behavior, RuleBehavior::Parametric(s) if s.target == tag) && keep(r)
            })
            .unwrap()
    }

    #[test]
    fn choose_partitions_is_pow2_and_clamped() {
        // 64 MB per partition.
        assert_eq!(choose_partitions(1e6, 1.0), 1);
        assert_eq!(choose_partitions(2e8, 1.0), 4);
        assert_eq!(choose_partitions(1e14, 1.0), MAX_PARTITIONS);
        // Parallelism knob halves/doubles.
        assert_eq!(choose_partitions(2e8, 2.0), 8);
        assert_eq!(choose_partitions(2e8, 0.5), 2);
    }

    #[test]
    fn hash_join_impl_adds_exchanges_on_both_sides() {
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e7, 20);
        let b = scan(&mut memo, "b", 1e7, 20);
        let j = join(&mut memo, JoinKind::Inner, a, b, 1e-7);
        let p = implement(rule_named(&rules, "HashJoinImpl"), &memo, j, &ctx()).unwrap();
        assert!(matches!(p.shape.op, PhysicalOp::HashJoin { .. }));
        assert!(p.shape.exchanges[0].is_some());
        assert!(p.shape.exchanges[1].is_some());
        assert!(!p.shape.elided_exchange);
    }

    #[test]
    fn broadcast_join_requires_small_build_side() {
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e8, 40);
        let small = scan(&mut memo, "s", 1000.0, 10);
        let big = scan(&mut memo, "bigt", 1e8, 40);
        let j_small = join(&mut memo, JoinKind::Inner, a, small, 1e-8);
        let j_big = join(&mut memo, JoinKind::Inner, a, big, 1e-8);
        let c = ctx();
        let bc = rule_named(&rules, "BroadcastJoinImpl");
        let ok = implement(bc, &memo, j_small, &c).unwrap();
        assert!(ok.shape.exchanges[0].is_none(), "probe side stays in place");
        assert!(matches!(
            ok.shape.exchanges[1].as_ref().unwrap().scheme,
            Partitioning::Broadcast
        ));
        assert!(
            implement(bc, &memo, j_big, &c).is_none(),
            "big side not broadcast"
        );
    }

    #[test]
    fn shuffle_elimination_skips_exchange_when_distribution_matches() {
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e7, 20);
        let b = scan(&mut memo, "b", 1e7, 20);
        // First join partitions output on left key 0.
        let j1 = join(&mut memo, JoinKind::Inner, a, b, 1e-7);
        // Aggregate on column 0 of the join output: already hash-distributed.
        let g = memo.intern(
            LogicalOp::Aggregate {
                group_by: vec![0],
                aggs: vec![],
                group_ratio: DualStats::exact(0.01),
            },
            vec![j1],
            RuleBits::empty(),
        );
        let c = ctx();
        let p = implement(rule_named(&rules, "HashAggImpl"), &memo, g, &c).unwrap();
        assert!(p.shape.exchanges[0].is_none(), "exchange eliminated");
        assert!(p.shape.elided_exchange);
        // With the policy off, the exchange is materialized.
        let mut c_off = ctx();
        c_off.shuffle_elimination = false;
        let p2 = implement(rule_named(&rules, "HashAggImpl"), &memo, g, &c_off).unwrap();
        assert!(p2.shape.exchanges[0].is_some());
    }

    #[test]
    fn agg_split_requires_decomposable_aggregates() {
        use scope_ir::expr::{AggExpr, AggFunc};
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e7, 20);
        let ok = memo.intern(
            LogicalOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(0), "s")],
                group_ratio: DualStats::exact(0.01),
            },
            vec![a],
            RuleBits::empty(),
        );
        let bad = memo.intern(
            LogicalOp::Aggregate {
                group_by: vec![0],
                aggs: vec![AggExpr::new(AggFunc::CountDistinct, Some(1), "d")],
                group_ratio: DualStats::exact(0.01),
            },
            vec![a],
            RuleBits::empty(),
        );
        let c = ctx();
        let split = rule_named(&rules, "AggSplitLocalGlobal");
        let p = implement(split, &memo, ok, &c).unwrap();
        assert_eq!(p.shape.pre_local[0], Some(PreLocal::PartialAgg));
        assert!(matches!(
            p.shape.op,
            PhysicalOp::HashAggregate {
                mode: AggMode::Final,
                ..
            }
        ));
        assert!(implement(split, &memo, bad, &c).is_none());
    }

    /// A parametric candidate carries only its claimed tuning; the
    /// per-template truth reaches the plan when the candidate wins and is
    /// emitted — as `actual_tuning(rule, template_seed)`.
    #[test]
    fn parametric_rule_carries_claimed_and_actual_tuning() {
        let opt = Optimizer::default();
        let rules = opt.rules();
        let config = opt.default_config();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e6, 20);
        let f = memo.intern(
            LogicalOp::Filter {
                predicate: ScalarExpr::lit_int(1),
                selectivity: DualStats::exact(0.5),
            },
            vec![a],
            RuleBits::empty(),
        );
        let out = memo.intern(
            LogicalOp::Output {
                path: "out/f".into(),
            },
            vec![f],
            RuleBits::empty(),
        );
        let c = opt.impl_context(&config);
        for g in [a, f, out] {
            opt.implement_group(&mut memo, g, &config, &c).unwrap();
        }
        // A default-on variant: stable, so extraction cannot fail on it.
        let prule = parametric(rules, "Filter", |r| r.category.default_on());
        let p = implement(prule, &memo, f, &c).unwrap();
        assert!(!p.claimed.is_identity());
        assert!(p.provenance.contains(prule.id));
        // Make it the filter group's only candidate, so it wins.
        memo.group_mut(f).pexprs = Arc::new(vec![p]);
        let mut visiting = vec![false; memo.group_count()];
        opt.best_cost(&mut memo, out, &mut visiting);
        let compiled = opt
            .extract(&memo, &[out], 42, config.bits().fingerprint())
            .unwrap();
        let filter = compiled
            .physical
            .nodes()
            .iter()
            .find(|n| matches!(n.op, PhysicalOp::FilterExec { .. }))
            .unwrap();
        assert_eq!(filter.tuning, rules.actual_tuning(prule.id, 42));
        assert_ne!(filter.tuning, rules.actual_tuning(prule.id, 43));
    }

    #[test]
    fn fallback_applies_penalty_tuning() {
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e6, 20);
        let fallback = rules.rule(crate::registry::RULE_FALLBACK_EXEC);
        let p = implement(fallback, &memo, a, &ctx()).unwrap();
        assert!((p.claimed.cpu_mult - FALLBACK_CPU_PENALTY).abs() < 1e-12);
        assert!(matches!(p.shape.op, PhysicalOp::TableScan { .. }));
    }

    #[test]
    fn stream_agg_needs_keys() {
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e6, 20);
        let global = memo.intern(
            LogicalOp::Aggregate {
                group_by: vec![],
                aggs: vec![],
                group_ratio: DualStats::exact(1e-6),
            },
            vec![a],
            RuleBits::empty(),
        );
        let c = ctx();
        assert!(implement(rule_named(&rules, "StreamAggImpl"), &memo, global, &c).is_none());
        // HashAgg on a global aggregate gathers to one partition.
        let p = implement(rule_named(&rules, "HashAggImpl"), &memo, global, &c).unwrap();
        assert!(matches!(
            p.shape.exchanges[0].as_ref().unwrap().scheme,
            Partitioning::Gather
        ));
    }

    /// Parametric join variants match on the tag alone, so they decorate a
    /// `LeftSemi` join too (`delta::classify` dirties groups at the same
    /// granularity); pinned because narrowing it would move steering.
    #[test]
    fn parametric_join_variants_decorate_semi_joins() {
        let rules = RuleSet::standard();
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 1e6, 20);
        let b = scan(&mut memo, "b", 1e4, 20);
        let semi = join(&mut memo, JoinKind::LeftSemi, a, b, 1e-4);
        let prule = parametric(&rules, "Join", |_| true);
        let RuleBehavior::Parametric(spec) = &prule.behavior else {
            unreachable!()
        };
        assert!(parametric_matches(spec, &memo.group(semi).lexprs[0].op));
        let p = implement(prule, &memo, semi, &ctx()).unwrap();
        assert!(matches!(
            p.shape.op,
            PhysicalOp::HashJoin {
                kind: JoinKind::LeftSemi,
                ..
            }
        ));
        assert_eq!(p.claimed, spec.claimed);
    }

    /// Implement once, tune many, on a join + aggregate script under the
    /// default configuration: the fallback and every parametric candidate of
    /// one logical expression share one shape, a `PExpr` is only that shape
    /// plus its own tuning and provenance, and the emitted hash exchanges have
    /// the partition counts the eager per-candidate sizing gave (recorded at
    /// the parent of this change, along with the plan's fingerprint).
    #[test]
    fn candidates_share_canonical_shapes_and_winners_are_sized_at_extraction() {
        let script = r#"
            sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
            users = EXTRACT user:int, region:string FROM "store/users";
            j     = SELECT * FROM sales AS s JOIN users AS u ON s.user == u.user;
            agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
            OUTPUT agg TO "out/by_region";
        "#;
        let mut catalog = Catalog::default();
        let rows = |n: f64| TableInfo {
            rows: DualStats::exact(n),
        };
        catalog.register("store/sales", rows(1e8));
        catalog.register("store/users", rows(5e6));
        let plan = bind_script(script, &catalog).unwrap();
        let opt = Optimizer::default();
        let full = opt.search(&plan, &opt.default_config(), true).1.unwrap();

        let mut shared = 0;
        for g in full.memo.group_ids() {
            let group = full.memo.group(g);
            let mut variants: Vec<&PExpr> = Vec::new();
            let mut fallbacks = 0;
            for p in group.pexprs.iter() {
                // Exhaustive: a new field (an op, a Vec) fails to compile here.
                let PExpr {
                    shape,
                    claimed: _,
                    rule,
                    provenance: _,
                } = p;
                match opt.rules().rule(*rule).behavior {
                    RuleBehavior::Parametric(_) => variants.push(p),
                    RuleBehavior::FallbackImpl => {
                        fallbacks += 1;
                        for v in variants.drain(..) {
                            assert!(Arc::ptr_eq(&v.shape, shape), "{g}: {}", v.rule);
                            shared += 1;
                        }
                    }
                    _ => {}
                }
            }
            assert!(
                variants.is_empty(),
                "{g}: each expression ends with its fallback"
            );
            assert_eq!(
                fallbacks,
                group.lexprs.len(),
                "{g}: one fallback per expression"
            );
        }
        assert!(shared > 20, "parametric variants share shapes: {shared}");

        let compiled = &full.compiled;
        let partitions: Vec<u32> = compiled
            .physical
            .nodes()
            .iter()
            .filter_map(|n| match &n.op {
                PhysicalOp::Exchange {
                    scheme: scheme @ (Partitioning::Hash { .. } | Partitioning::Range { .. }),
                } => Some(scheme.partitions()),
                _ => None,
            })
            .collect();
        assert_eq!(partitions, [64, 64, 256]);
        // The join's winner is a parametric variant, so its claimed tuning
        // sized the join's two exchanges.
        assert!(compiled
            .signature
            .contains(rule_named(opt.rules(), "JoinPrefetch209").id));
        assert_eq!(compiled.physical.fingerprint(), 0x359f_1150_9b4c_b528);
    }
}
