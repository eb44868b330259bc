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
//! tuning and share one shape (`build_shape` with no `ImplKind`). A
//! [`PShape`](crate::memo::PShape) is a `Copy` record in the memo's shape
//! arena: its operator kind, the expression it implements and its edges. Nothing here depends on a
//! candidate's tuning, and no operator payload is cloned per candidate —
//! exchange columns and partition counts, the physical operators and the
//! per-template truth are built at extraction, for the winner only
//! (`physical_op`, `sized_scheme`, `Optimizer::extract`).

use crate::memo::{
    Dist, Edge, ExchangeScheme, ExchangeSpec, GroupId, Memo, PExpr, PhysKind, PreLocal, ShapeId,
};
use crate::registry::{ImplKind, ParametricSpec, RuleBehavior, RuleDef};
use scope_ir::logical::LogicalOp;
use scope_ir::physical::{AggMode, Partitioning, PhysicalOp, PhysicalTuning, ScanVariant};

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

/// The partitioning the exchange on input edge `edge` of a shape
/// implementing `op` takes under the consumer's `claimed` tuning: a hash or
/// range scheme partitions on `op`'s keys for that edge, with its partition
/// count sized from the bytes it moves, scaled by the consumer's IO knob (the
/// bytes its shuffle edges move) and parallelism knob; broadcast and gather
/// are fixed.
#[must_use]
pub(crate) fn sized_scheme(
    spec: &ExchangeSpec,
    claimed: &PhysicalTuning,
    op: &LogicalOp,
    edge: usize,
) -> Partitioning {
    let partitions = || choose_partitions(spec.bytes * claimed.io_mult, claimed.parallelism_mult);
    match spec.scheme {
        ExchangeScheme::Hash => Partitioning::Hash {
            columns: exchange_columns(op, edge),
            partitions: partitions(),
        },
        ExchangeScheme::Range => Partitioning::Range {
            columns: exchange_columns(op, edge),
            partitions: partitions(),
        },
        ExchangeScheme::Broadcast => Partitioning::Broadcast,
        ExchangeScheme::Gather => Partitioning::Gather,
    }
}

/// The columns a hash or range exchange on input edge `edge` of `op`
/// partitions on: a join's keys on that side, an aggregate's grouping keys,
/// a sort's key columns, a window's partition keys.
fn exchange_columns(op: &LogicalOp, edge: usize) -> Vec<usize> {
    match op {
        LogicalOp::Join { on, .. } if edge == 0 => on.iter().map(|&(l, _)| l).collect(),
        LogicalOp::Join { on, .. } => on.iter().map(|&(_, r)| r).collect(),
        LogicalOp::Aggregate { group_by, .. } => group_by.clone(),
        LogicalOp::Sort { keys } => keys.iter().map(|k| k.column).collect(),
        LogicalOp::Window { partition_by, .. } => partition_by.clone(),
        // Guarded by construction: `build_shape` keys exchanges only below
        // the four operators above.
        other => unreachable!("{} has no keyed exchange", other.tag()),
    }
}

/// The physical operator a shape of kind `kind` implementing `op` emits —
/// or a pre-reduction below it ([`PreLocal::kind`]) — with `op`'s payload:
/// built at extraction, for winners only.
#[must_use]
pub(crate) fn physical_op(kind: PhysKind, op: &LogicalOp) -> PhysicalOp {
    match (kind, op) {
        (PhysKind::TableScan, LogicalOp::Extract { table }) => PhysicalOp::TableScan {
            table: table.name.clone(),
            variant: ScanVariant::Sequential,
        },
        (PhysKind::Filter, LogicalOp::Filter { predicate, .. }) => PhysicalOp::FilterExec {
            predicate: predicate.clone(),
        },
        (PhysKind::Project, LogicalOp::Project { exprs }) => PhysicalOp::ProjectExec {
            exprs: exprs.clone(),
        },
        (PhysKind::HashJoin, LogicalOp::Join { kind, on, .. }) => PhysicalOp::HashJoin {
            kind: *kind,
            on: on.clone(),
        },
        (PhysKind::MergeJoin, LogicalOp::Join { kind, on, .. }) => PhysicalOp::MergeJoin {
            kind: *kind,
            on: on.clone(),
        },
        (PhysKind::BroadcastJoin, LogicalOp::Join { kind, on, .. }) => PhysicalOp::BroadcastJoin {
            kind: *kind,
            on: on.clone(),
        },
        (PhysKind::HashAggregate(mode), LogicalOp::Aggregate { group_by, aggs, .. }) => {
            PhysicalOp::HashAggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                mode,
            }
        }
        (PhysKind::StreamAggregate(mode), LogicalOp::Aggregate { group_by, aggs, .. }) => {
            PhysicalOp::StreamAggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                mode,
            }
        }
        (PhysKind::Sort, LogicalOp::Sort { keys }) => PhysicalOp::SortExec { keys: keys.clone() },
        (PhysKind::TopN, LogicalOp::Top { k, keys }) => PhysicalOp::TopNExec {
            k: *k,
            keys: keys.clone(),
        },
        (
            PhysKind::Window,
            LogicalOp::Window {
                partition_by,
                funcs,
            },
        ) => PhysicalOp::WindowExec {
            partition_by: partition_by.clone(),
            funcs: funcs.clone(),
        },
        (
            PhysKind::Process,
            LogicalOp::Process {
                udf, cpu_factor, ..
            },
        ) => PhysicalOp::ProcessExec {
            udf: udf.clone(),
            cpu_factor: *cpu_factor,
        },
        (PhysKind::UnionAll, LogicalOp::Union) => PhysicalOp::UnionAllExec,
        (PhysKind::Output, LogicalOp::Output { path }) => {
            PhysicalOp::OutputExec { path: path.clone() }
        }
        // Guarded by construction: `build_shape` gives each operator only
        // the kinds (and pre-reductions) that implement it, so a mismatch
        // here is plan corruption — fail loudly.
        (kind, op) => unreachable!("{kind:?} does not implement {}", op.tag()),
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
    memo: &mut Memo,
    gid: GroupId,
    eidx: usize,
    canonical: Option<ShapeId>,
    ctx: &ImplContext,
) -> Option<PExpr> {
    let expr = &memo.group(gid).lexprs[eidx];
    let mut provenance = expr.provenance;
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
            (claimed, build_shape(memo, gid, eidx, Some(*kind), ctx)?)
        }
        RuleBehavior::FallbackImpl => (
            PhysicalTuning {
                cpu_mult: FALLBACK_CPU_PENALTY,
                io_mult: FALLBACK_IO_PENALTY,
                parallelism_mult: 1.0,
            },
            canonical?,
        ),
        RuleBehavior::Parametric(spec) => {
            if !parametric_matches(spec, &expr.op) {
                return None;
            }
            (spec.claimed, canonical?)
        }
        _ => return None,
    };
    provenance.insert(rule.id);
    Some(PExpr {
        shape,
        claimed,
        rule: rule.id,
        provenance,
    })
}

/// Whether `dist` is a hash distribution on exactly `cols`, in order.
fn hashed_on(dist: &Dist, cols: impl Iterator<Item = usize>) -> bool {
    matches!(dist, Dist::Hash(have) if have.iter().copied().eq(cols))
}

/// Whether `dist` is a range distribution sorted on exactly `cols`, in order.
fn sorted_on(dist: &Dist, cols: impl Iterator<Item = usize>) -> bool {
    matches!(dist, Dist::Sorted(have) if have.iter().copied().eq(cols))
}

/// Construct the physical shape and append it to the memo's arenas.
/// `kind == None` means "canonical implementation for this operator": what
/// the fallback rule and every matching parametric rule share (`None` back
/// only for an operator without one; there is none today).
pub(crate) fn build_shape(
    memo: &mut Memo,
    gid: GroupId,
    eidx: usize,
    kind: Option<ImplKind>,
    ctx: &ImplContext,
) -> Option<ShapeId> {
    let (kind, edges, elided) = shape_of(memo, gid, eidx, kind, ctx)?;
    Some(memo.push_shape(gid, eidx, kind, edges, elided))
}

/// [`build_shape`]'s decision: the operator kind, the first two input edges
/// (every operator with more inputs — a union — pipelines all of them) and
/// whether shuffle elimination removed an exchange.
fn shape_of(
    memo: &Memo,
    gid: GroupId,
    eidx: usize,
    kind: Option<ImplKind>,
    ctx: &ImplContext,
) -> Option<(PhysKind, [Edge; 2], bool)> {
    let expr = &memo.group(gid).lexprs[eidx];
    let children = &expr.children;
    let child_stats = |i: usize| memo.group(children[i]).stats;
    let child_dist = |i: usize| &memo.group(children[i]).dist;
    let pipelined = Edge::default();
    let exchange = |scheme: ExchangeScheme, sorted: bool, bytes: f64| Edge {
        exchange: Some(ExchangeSpec {
            scheme,
            sorted,
            compressed: ctx.compression,
            bytes,
        }),
        pre_local: None,
    };
    let hash_exchange = |bytes: f64| exchange(ExchangeScheme::Hash, false, bytes);
    let range_exchange = |bytes: f64| exchange(ExchangeScheme::Range, true, bytes);
    let gather = |sorted: bool| exchange(ExchangeScheme::Gather, sorted, 0.0);
    let unary = |kind: PhysKind, edge: Edge| Some((kind, [edge, pipelined], false));

    match (&expr.op, kind) {
        (LogicalOp::Extract { .. }, Some(ImplKind::Scan) | None) => {
            unary(PhysKind::TableScan, pipelined)
        }
        (LogicalOp::Filter { .. }, Some(ImplKind::Filter) | None) => {
            unary(PhysKind::Filter, pipelined)
        }
        (LogicalOp::Project { .. }, Some(ImplKind::Project) | None) => {
            unary(PhysKind::Project, pipelined)
        }
        (LogicalOp::Join { on, .. }, jkind) => {
            let lcols = || on.iter().map(|&(l, _)| l);
            let rcols = || on.iter().map(|&(_, r)| r);
            let (lbytes, rbytes) = (
                child_stats(0).estimated_bytes(),
                child_stats(1).estimated_bytes(),
            );
            match jkind {
                Some(ImplKind::HashJoin) | None => {
                    let mut elided = false;
                    let lx = if ctx.shuffle_elimination && hashed_on(child_dist(0), lcols()) {
                        elided = true;
                        pipelined
                    } else {
                        hash_exchange(lbytes.max(rbytes))
                    };
                    let rx = if ctx.shuffle_elimination && hashed_on(child_dist(1), rcols()) {
                        elided = true;
                        pipelined
                    } else {
                        hash_exchange(lbytes.max(rbytes))
                    };
                    Some((PhysKind::HashJoin, [lx, rx], elided))
                }
                Some(ImplKind::MergeJoin) => {
                    let mut elided = false;
                    let lx = if ctx.shuffle_elimination && sorted_on(child_dist(0), lcols()) {
                        elided = true;
                        pipelined
                    } else {
                        range_exchange(lbytes.max(rbytes))
                    };
                    let rx = if ctx.shuffle_elimination && sorted_on(child_dist(1), rcols()) {
                        elided = true;
                        pipelined
                    } else {
                        range_exchange(lbytes.max(rbytes))
                    };
                    Some((PhysKind::MergeJoin, [lx, rx], elided))
                }
                Some(ImplKind::BroadcastJoin) => {
                    // Only worthwhile (and allowed) for small build sides.
                    if child_stats(1).estimated_bytes() > BROADCAST_THRESHOLD_BYTES {
                        return None;
                    }
                    let bx = exchange(ExchangeScheme::Broadcast, false, 0.0);
                    Some((PhysKind::BroadcastJoin, [pipelined, bx], false))
                }
                Some(ImplKind::NestedLoopJoin) => {
                    let (lrows, rrows) =
                        (child_stats(0).rows.estimated, child_stats(1).rows.estimated);
                    if lrows * rrows > NESTED_LOOP_LIMIT {
                        return None;
                    }
                    Some((PhysKind::HashJoin, [gather(false), gather(false)], false))
                }
                _ => None,
            }
        }
        (LogicalOp::Aggregate { group_by, aggs, .. }, akind) => {
            let bytes = child_stats(0).estimated_bytes();
            let keyed = !group_by.is_empty();
            match akind {
                Some(ImplKind::HashAgg) | None => {
                    let mut elided = false;
                    let x = if ctx.shuffle_elimination
                        && keyed
                        && hashed_on(child_dist(0), group_by.iter().copied())
                    {
                        elided = true;
                        pipelined
                    } else if keyed {
                        hash_exchange(bytes)
                    } else {
                        gather(false)
                    };
                    Some((
                        PhysKind::HashAggregate(AggMode::Single),
                        [x, pipelined],
                        elided,
                    ))
                }
                Some(ImplKind::StreamAgg) => {
                    if !keyed {
                        return None;
                    }
                    unary(
                        PhysKind::StreamAggregate(AggMode::Single),
                        range_exchange(bytes),
                    )
                }
                Some(ImplKind::AggSplitLocalGlobal) => {
                    if !keyed || !aggs.iter().all(|a| a.func.decomposable()) {
                        return None;
                    }
                    let split = Edge {
                        pre_local: Some(PreLocal::PartialAgg),
                        ..hash_exchange(bytes)
                    };
                    unary(PhysKind::HashAggregate(AggMode::Final), split)
                }
                _ => None,
            }
        }
        (LogicalOp::Sort { keys }, Some(ImplKind::Sort) | None) => {
            let bytes = child_stats(0).estimated_bytes();
            let cols = keys.iter().map(|k| k.column);
            if ctx.shuffle_elimination && sorted_on(child_dist(0), cols) {
                Some((PhysKind::Sort, [pipelined, pipelined], true))
            } else {
                unary(PhysKind::Sort, range_exchange(bytes))
            }
        }
        (LogicalOp::Top { k, .. }, Some(ImplKind::TopN) | None) => {
            let local_top = Edge {
                pre_local: Some(PreLocal::LocalTopK(*k)),
                ..gather(true)
            };
            unary(PhysKind::TopN, local_top)
        }
        (LogicalOp::Window { .. }, Some(ImplKind::Window) | None) => {
            let bytes = child_stats(0).estimated_bytes();
            unary(PhysKind::Window, hash_exchange(bytes))
        }
        (LogicalOp::Process { .. }, Some(ImplKind::Process) | None) => {
            unary(PhysKind::Process, pipelined)
        }
        (LogicalOp::Union, Some(ImplKind::UnionAll) | None) => unary(PhysKind::UnionAll, pipelined),
        (LogicalOp::Output { .. }, Some(ImplKind::Output) | None) => {
            unary(PhysKind::Output, pipelined)
        }
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
    fn implement(rule: &RuleDef, memo: &mut Memo, g: GroupId, c: &ImplContext) -> Option<PExpr> {
        let canonical = build_shape(memo, g, 0, None, c);
        implement_expr(rule, memo, g, 0, canonical, c)
    }

    /// The exchange on input edge `j` of `p`'s shape.
    fn exchange(memo: &Memo, p: &PExpr, j: usize) -> Option<ExchangeSpec> {
        memo.edge(memo.shape(p.shape), j).exchange
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
        let p = implement(rule_named(&rules, "HashJoinImpl"), &mut memo, j, &ctx()).unwrap();
        assert_eq!(memo.shape(p.shape).kind, PhysKind::HashJoin);
        assert!(exchange(&memo, &p, 0).is_some());
        assert!(exchange(&memo, &p, 1).is_some());
        assert!(!memo.shape(p.shape).elided_exchange);
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
        let ok = implement(bc, &mut memo, j_small, &c).unwrap();
        assert!(
            exchange(&memo, &ok, 0).is_none(),
            "probe side stays in place"
        );
        assert_eq!(
            exchange(&memo, &ok, 1).unwrap().scheme,
            ExchangeScheme::Broadcast
        );
        assert!(
            implement(bc, &mut memo, j_big, &c).is_none(),
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
        let p = implement(rule_named(&rules, "HashAggImpl"), &mut memo, g, &c).unwrap();
        assert!(exchange(&memo, &p, 0).is_none(), "exchange eliminated");
        assert!(memo.shape(p.shape).elided_exchange);
        // With the policy off, the exchange is materialized.
        let mut c_off = ctx();
        c_off.shuffle_elimination = false;
        let p2 = implement(rule_named(&rules, "HashAggImpl"), &mut memo, g, &c_off).unwrap();
        assert!(exchange(&memo, &p2, 0).is_some());
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
        let p = implement(split, &mut memo, ok, &c).unwrap();
        let shape = *memo.shape(p.shape);
        assert_eq!(memo.edge(&shape, 0).pre_local, Some(PreLocal::PartialAgg));
        assert_eq!(shape.kind, PhysKind::HashAggregate(AggMode::Final));
        assert!(implement(split, &mut memo, bad, &c).is_none());
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
        let p = implement(prule, &mut memo, f, &c).unwrap();
        assert!(!p.claimed.is_identity());
        assert!(p.provenance.contains(prule.id));
        // Make it the filter group's only candidate, so it wins.
        let start = memo.open_candidates();
        memo.push_candidate(p);
        memo.close_candidates(f, start);
        let mut visiting = vec![false; memo.group_count()];
        opt.best_cost(&mut memo, out, &mut visiting);
        let (plan, _) = opt
            .extract(&memo, &[out], 42, config.bits().fingerprint(), true)
            .unwrap();
        let filter = plan
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
        let p = implement(fallback, &mut memo, a, &ctx()).unwrap();
        assert!((p.claimed.cpu_mult - FALLBACK_CPU_PENALTY).abs() < 1e-12);
        assert_eq!(memo.shape(p.shape).kind, PhysKind::TableScan);
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
        assert!(implement(rule_named(&rules, "StreamAggImpl"), &mut memo, global, &c).is_none());
        // HashAgg on a global aggregate gathers to one partition.
        let p = implement(rule_named(&rules, "HashAggImpl"), &mut memo, global, &c).unwrap();
        assert_eq!(
            exchange(&memo, &p, 0).unwrap().scheme,
            ExchangeScheme::Gather
        );
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
        let p = implement(prule, &mut memo, semi, &ctx()).unwrap();
        let shape = memo.shape(p.shape);
        assert!(matches!(
            physical_op(shape.kind, &memo.implemented(semi, shape).op),
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
        let full = opt
            .search::<crate::Compiled>(&plan, &opt.default_config(), true, None)
            .1
            .unwrap();

        let mut shared = 0;
        for g in full.memo.group_ids() {
            let group = full.memo.group(g);
            let mut variants: Vec<&PExpr> = Vec::new();
            let mut fallbacks = 0;
            for p in full.memo.candidates(g) {
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
                            assert_eq!(v.shape, *shape, "{g}: {}", v.rule);
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
