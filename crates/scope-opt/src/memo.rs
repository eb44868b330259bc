//! The Cascades memo: groups of logically-equivalent expressions with
//! dual statistics, natural physical properties, and provenance tracking.
//!
//! Provenance is the mechanism behind *rule signatures* (paper §2.1): every
//! expression records the set of rules on the rewrite path that produced it,
//! so the winning plan's union of provenance bits is exactly "the rules that
//! directly contributed to the plan".
//!
//! # Invariants
//!
//! The search (`crate::search`) and the delta compiler (`crate::delta`) both
//! lean on a small set of structural invariants:
//!
//! * **Append-only growth.** Groups and logical expressions are only ever
//!   added, never removed or reordered, and a [`GroupId`] or expression
//!   index stays valid for the memo's lifetime. This is what makes rewrite
//!   production *monotone*: an expression set that yields no rewrites for a
//!   transform at the final memo state yielded none at any earlier state
//!   (every earlier state is a prefix), which the delta pruner exploits.
//! * **Derived metadata is intern-time-final.** A group's [`Schema`],
//!   [`NodeStats`], and [`Dist`] are computed from its *first* expression
//!   when the group is interned and never revised — equivalent expressions
//!   added later share them by the group equivalence contract (rewrites are
//!   cardinality-preserving on the group's output).
//! * **Physical children mirror logical children, by construction.** A
//!   [`PShape`] stores no children: it names the logical expression it
//!   implements ([`PShape::lexpr`]), and that expression's child groups are
//!   its inputs, one [`Edge`] each. So the logical edges are the complete
//!   group-dependency graph — the delta compiler derives its invalidation
//!   (reverse-edge) closure from them alone.
//! * **Shapes and candidates own no heap.** Shapes, edges and candidates
//!   are `Copy` records in three memo-wide arenas (`Memo::shape`,
//!   `Memo::edge`, `Memo::candidates`), appended to and never rewritten; a
//!   candidate names its shape by [`ShapeId`], and a group names its
//!   candidates as one range of their arena. Operator payloads
//!   (predicates, keys, aggregates) stay in the logical operator, which the
//!   cost model reads in place and extraction clones for winners only. A
//!   delta fork copies the three arenas and appends to its copies.
//! * **[`Best`] is a pure function of the candidates + children's
//!   `Best`.** Each entry caches the first-index minimum over the group's
//!   physical candidates, priced with its children's best costs; clearing the entry
//!   and re-running `best_cost` always reproduces it. Delta compilation
//!   clears exactly the entries whose inputs a rule flip touched.
//! * **The logical half is written by one owner.** A group's
//!   [`GroupLogical`] sits behind an `Arc` that is unique while the memo is
//!   being explored and shared once `Memo::fork_for_delta` has handed it
//!   to a treatment's fork. Exploration reaches it with `Arc::get_mut` only
//!   — never `Arc::make_mut` — so growing a shared half is a typed error,
//!   not a silent copy that would detach the fork from its base.

use crate::config::{RuleBits, RuleId};
use crate::search::CompileError;
use rustc_hash::FxHashMap;
use scope_ir::ids::{combine, MEMO_EXPR_KEY_SALT};
use scope_ir::logical::{JoinKind, LogicalOp, LogicalPlan};
use scope_ir::physical::{AggMode, PhysicalTuning};
use scope_ir::schema::{Column, DataType, Schema};
use scope_ir::stats::{DualStats, NodeStats};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Index of a group in the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Natural data distribution a group's output arrives in, used by exchange
/// placement (and its elimination policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dist {
    Random,
    /// Hash-partitioned on these output column positions.
    Hash(Vec<usize>),
    /// Range-partitioned + sorted on these output column positions.
    Sorted(Vec<usize>),
    /// Single partition.
    Single,
}

/// A logical expression in the memo: an operator over child groups.
#[derive(Debug, Clone)]
pub struct MExpr {
    pub op: LogicalOp,
    pub children: Vec<GroupId>,
    /// Rules on the rewrite path that produced this expression: the parent
    /// expression's provenance plus the rule that fired, accumulated
    /// transitively from the original plan's expressions (which carry
    /// [`RuleBits::empty`]). When this expression is implemented, the
    /// resulting [`PExpr`] inherits these bits plus the implementing rule —
    /// and the winning plan's union of them is the *rule signature*
    /// (paper §2.1). Note the converse does **not** hold: a rule absent from
    /// every provenance set may still have fired (its rewrites can be
    /// rejected by dedup or the per-group cap after consuming budget), which
    /// is why the delta compiler tracks fired transforms separately.
    pub provenance: RuleBits,
}

/// How an exchange moves data. A hash or range exchange's columns are the
/// implemented logical operator's keys, and its partition count depends on
/// the candidate's claimed tuning; the cost model reads neither, so
/// extraction builds both for the winner only (`crate::impls::sized_scheme`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeScheme {
    Hash,
    Range,
    Gather,
    Broadcast,
}

/// An exchange on one input edge of a physical expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeSpec {
    pub scheme: ExchangeScheme,
    /// Range exchanges deliver sorted runs (adds a sort cost component).
    pub sorted: bool,
    /// Intermediate-compression policy applied to this edge.
    pub compressed: bool,
    /// Estimated bytes the exchange moves, before the consumer's IO knob:
    /// what a hash or range partition count is sized from.
    pub bytes: f64,
}

/// Local pre-reduction applied on the producer side of an exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreLocal {
    /// Partial (local) aggregation before the shuffle.
    PartialAgg,
    /// Local top-k before the gather.
    LocalTopK(u64),
}

impl PreLocal {
    /// The operator the pre-reduction runs: a partial aggregate, or a local
    /// top-k under the consumer's own `k` and keys.
    #[must_use]
    pub fn kind(self) -> PhysKind {
        match self {
            PreLocal::PartialAgg => PhysKind::HashAggregate(AggMode::Partial),
            PreLocal::LocalTopK(_) => PhysKind::TopN,
        }
    }
}

/// One input edge of a physical expression: the exchange on it and the
/// producer-side pre-reduction below that exchange.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Edge {
    /// The exchange requirement (`None` = pipelined locally).
    pub exchange: Option<ExchangeSpec>,
    pub pre_local: Option<PreLocal>,
}

/// The kind of physical operator a shape implements its logical expression
/// with. Its payload (predicate, projection, keys, aggregates, …) is the
/// logical operator's; only an aggregate's execution mode is the shape's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysKind {
    TableScan,
    Filter,
    Project,
    HashJoin,
    MergeJoin,
    BroadcastJoin,
    HashAggregate(AggMode),
    StreamAggregate(AggMode),
    Sort,
    TopN,
    Window,
    Process,
    UnionAll,
    Output,
}

/// Index of a shape in its memo's shape arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeId(pub u32);

/// The physical shape of an implementation: operator kind, and the exchanges
/// and pre-reductions on its input edges — everything about a candidate but
/// its tuning. Its inputs are the implemented expression's child groups
/// (`Memo::implemented`), edge `j` feeding from child `j`. The fallback rule
/// and every parametric variant of one logical expression implement it
/// canonically, so they share one [`ShapeId`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PShape {
    pub kind: PhysKind,
    /// Index of the implemented expression in its group's `lexprs`.
    pub lexpr: u32,
    /// Where this shape's edges start in the memo's edge arena: one per
    /// child of the implemented expression, in child order.
    pub edges: u32,
    /// Whether the `ShuffleElimination` policy removed at least one input
    /// exchange from this shape (credits the policy rule in the signature).
    pub elided_exchange: bool,
}

/// A physical expression: one implementation rule's candidate for a logical
/// expression — a shared [`PShape`] plus the tuning the cost model sees. The
/// runtime's per-template truth (`actual` tuning) is drawn at extraction,
/// for the winner only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PExpr {
    pub shape: ShapeId,
    /// Tuning the cost model sees.
    pub claimed: PhysicalTuning,
    /// Implementation rule that produced this expression.
    pub rule: RuleId,
    /// Provenance inherited from the implemented logical expression plus
    /// `rule` itself.
    pub provenance: RuleBits,
}

/// The winner of a group after costing: the **first** index among the
/// group's candidates achieving the minimum total cost (ties never displace an
/// earlier winner — the tie-break the delta compiler's soundness argument
/// relies on), with `cost` covering the whole subtree below it, children's
/// best costs included.
#[derive(Debug, Clone, Copy)]
pub struct Best {
    pub cost: f64,
    pub pexpr: usize,
}

/// The half of a group that is fixed once exploration ends: the logically
/// equivalent expressions (`lexprs`, all producing the same output relation)
/// and the metadata derived from the first of them when the group was
/// interned (see the module-level invariants).
#[derive(Debug)]
pub struct GroupLogical {
    pub schema: Schema,
    pub stats: NodeStats,
    pub dist: Dist,
    pub lexprs: Vec<MExpr>,
}

// Shapes, edges and candidates are plain records in flat arenas: a heap
// payload in any of them would be one more free per record when an evicted
// base memo drops.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<PShape>();
    copy::<Edge>();
    copy::<PExpr>();
};

/// One memo group: its shared [`GroupLogical`] half (read through `Deref`),
/// where its physical implementation candidates sit in the memo's candidate
/// arena (rebuilt per rule configuration; `Memo::candidates`) and the
/// costing winner (`best`, `None` until `best_cost` runs or after a delta
/// pass invalidates it). A delta fork copies the `Arc`, not the logical
/// half behind it.
#[derive(Debug)]
pub struct Group {
    logical: Arc<GroupLogical>,
    /// The group's candidates: `candidates[start..start + len]`.
    candidates: (u32, u32),
    pub best: Option<Best>,
}

impl Deref for Group {
    type Target = GroupLogical;

    fn deref(&self) -> &GroupLogical {
        &self.logical
    }
}

impl Group {
    /// Whether `self` and `other` read the very same logical half — true of
    /// every group of a delta fork and its base.
    #[must_use]
    pub(crate) fn shares_logical_with(&self, other: &Group) -> bool {
        Arc::ptr_eq(&self.logical, &other.logical)
    }
}

/// A rewrite result: a new operator tree whose leaves are existing groups.
#[derive(Debug, Clone)]
pub enum Node {
    Group(GroupId),
    Op(LogicalOp, Vec<Node>),
}

/// The memo. A frozen base memo is shared by forking it
/// (`Memo::fork_for_delta`): the delta compiler (`crate::delta`) forks the
/// base compilation's memo per treatment and replaces only the candidates
/// and `best` of affected groups.
#[derive(Debug, Default)]
pub struct Memo {
    groups: Vec<Group>,
    /// Dedup index: expression fingerprint -> owning group.
    index: FxHashMap<u64, GroupId>,
    /// Shape arena: every physical shape of every group's candidates.
    shapes: Vec<PShape>,
    /// Edge arena: each shape's input edges, contiguous from `PShape::edges`.
    edges: Vec<Edge>,
    /// Candidate arena: each group's physical candidates, contiguous.
    candidates: Vec<PExpr>,
    /// Total logical expressions (budget accounting).
    pub lexpr_count: usize,
}

impl Memo {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.index()]
    }

    pub fn group_mut(&mut self, id: GroupId) -> &mut Group {
        &mut self.groups[id.index()]
    }

    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The shape `id` names.
    #[must_use]
    pub fn shape(&self, id: ShapeId) -> &PShape {
        &self.shapes[id.0 as usize]
    }

    /// Input edge `j` of `shape`.
    #[must_use]
    pub fn edge(&self, shape: &PShape, j: usize) -> Edge {
        self.edges[shape.edges as usize + j]
    }

    /// Group `g`'s physical candidates (empty until it is implemented).
    #[must_use]
    pub fn candidates(&self, g: GroupId) -> &[PExpr] {
        let (start, len) = self.group(g).candidates;
        &self.candidates[start as usize..(start + len) as usize]
    }

    /// Where the next candidate pushed will sit: a group's candidate list
    /// opens here and [`Memo::close_candidates`] closes it.
    pub(crate) fn open_candidates(&self) -> u32 {
        self.candidates.len() as u32
    }

    /// Append one candidate to the list being built.
    pub(crate) fn push_candidate(&mut self, p: PExpr) {
        self.candidates.push(p);
    }

    /// Make the candidates pushed since `start` group `g`'s list (replacing
    /// any list it had, which stays behind in the arena); returns how many.
    pub(crate) fn close_candidates(&mut self, g: GroupId, start: u32) -> usize {
        let len = self.candidates.len() as u32 - start;
        self.group_mut(g).candidates = (start, len);
        len as usize
    }

    /// The logical expression of group `g` that `shape` implements: its
    /// operator is the shape's payload and its children the shape's inputs.
    #[must_use]
    pub fn implemented(&self, g: GroupId, shape: &PShape) -> &MExpr {
        &self.group(g).lexprs[shape.lexpr as usize]
    }

    /// Append a shape implementing expression `lexpr` of group `g`, with one
    /// edge per child of that expression: `edges` first, pipelined edges
    /// after them (only a union has more than two inputs).
    pub(crate) fn push_shape(
        &mut self,
        g: GroupId,
        lexpr: usize,
        kind: PhysKind,
        edges: [Edge; 2],
        elided_exchange: bool,
    ) -> ShapeId {
        let arity = self.group(g).lexprs[lexpr].children.len();
        let id = ShapeId(self.shapes.len() as u32);
        self.shapes.push(PShape {
            kind,
            lexpr: lexpr as u32,
            edges: self.edges.len() as u32,
            elided_exchange,
        });
        let pipelined = std::iter::repeat(Edge::default());
        self.edges
            .extend(edges.into_iter().chain(pipelined).take(arity));
        id
    }

    /// Drop the dedup index of a memo that will never intern again (a
    /// frozen base memo: its forks start without one).
    pub(crate) fn freeze(&mut self) {
        self.index = FxHashMap::default();
    }

    /// Fork for an incremental (delta) pass: one pointer copy per group —
    /// the logical half is shared with `self`, and a treatment replaces the
    /// candidates and `best` of the groups it dirties — a copy of the three
    /// flat arenas, which the pass appends its shapes and candidates to, and
    /// no dedup index (a delta pass never interns new expressions).
    #[must_use]
    pub(crate) fn fork_for_delta(&self) -> Memo {
        Memo {
            groups: self
                .groups
                .iter()
                .map(|group| Group {
                    logical: Arc::clone(&group.logical),
                    candidates: group.candidates,
                    best: group.best,
                })
                .collect(),
            index: FxHashMap::default(),
            shapes: self.shapes.clone(),
            edges: self.edges.clone(),
            candidates: self.candidates.clone(),
            lexpr_count: self.lexpr_count,
        }
    }

    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.groups.len() as u32).map(GroupId)
    }

    /// Fingerprint an expression for deduplication: the operator's
    /// structural hash (its full parameterization, selectivities included)
    /// folded with the child group ids.
    fn expr_key(op: &LogicalOp, children: &[GroupId]) -> u64 {
        children.iter().fold(
            combine(MEMO_EXPR_KEY_SALT.fingerprint(op), children.len() as u64),
            |h, c| combine(h, u64::from(c.0)),
        )
    }

    /// The group the dedup index files `key` under, if any. A 64-bit key
    /// match is taken as equality; debug builds check that the owning group
    /// really holds an equal expression, so a collision cannot silently merge
    /// two inequivalent ones.
    fn indexed(&self, key: u64, op: &LogicalOp, children: &[GroupId]) -> Option<GroupId> {
        let gid = *self.index.get(&key)?;
        debug_assert!(
            self.group(gid)
                .lexprs
                .iter()
                .any(|e| e.op == *op && e.children == children),
            "expr_key collision: {gid} holds no expression equal to {} over {children:?}",
            op.tag()
        );
        Some(gid)
    }

    /// Intern an expression: return its existing group or create a new one.
    pub fn intern(
        &mut self,
        op: LogicalOp,
        children: Vec<GroupId>,
        provenance: RuleBits,
    ) -> GroupId {
        let key = Self::expr_key(&op, &children);
        if let Some(gid) = self.indexed(key, &op, &children) {
            return gid;
        }
        let schema = self.derive_schema(&op, &children);
        let stats = self.derive_stats(&op, &children, &schema);
        let dist = self.derive_dist(&op, &children);
        let gid = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            logical: Arc::new(GroupLogical {
                schema,
                stats,
                dist,
                lexprs: vec![MExpr {
                    op,
                    children,
                    provenance,
                }],
            }),
            candidates: (0, 0),
            best: None,
        });
        self.index.insert(key, gid);
        self.lexpr_count += 1;
        gid
    }

    /// Add an equivalent expression to an existing group. Returns the index
    /// of the new expression, or `None` if it was already known (in this or
    /// any other group) or the group is at capacity.
    ///
    /// # Errors
    /// [`CompileError::Invalid`] if the group's logical half is shared with
    /// a delta fork: only a memo still under exploration may grow.
    pub fn add_to_group(
        &mut self,
        gid: GroupId,
        op: LogicalOp,
        children: Vec<GroupId>,
        provenance: RuleBits,
        max_exprs_per_group: usize,
    ) -> Result<Option<usize>, CompileError> {
        let key = Self::expr_key(&op, &children);
        if self.indexed(key, &op, &children).is_some()
            || self.group(gid).lexprs.len() >= max_exprs_per_group
        {
            return Ok(None);
        }
        let Some(logical) = Arc::get_mut(&mut self.groups[gid.index()].logical) else {
            return Err(CompileError::Invalid(format!(
                "memo invariant: exploration reached {gid}, whose logical half a delta fork shares"
            )));
        };
        logical.lexprs.push(MExpr {
            op,
            children,
            provenance,
        });
        self.index.insert(key, gid);
        self.lexpr_count += 1;
        Ok(Some(logical.lexprs.len() - 1))
    }

    /// Materialize a rewrite tree: intern interior nodes bottom-up and
    /// return the top operator ready to be added to the source group.
    pub fn materialize(&mut self, node: Node, provenance: RuleBits) -> (LogicalOp, Vec<GroupId>) {
        match node {
            Node::Group(_) => unreachable!("rewrite top must be an operator"),
            Node::Op(op, children) => {
                let child_groups = children
                    .into_iter()
                    .map(|c| self.materialize_child(c, provenance))
                    .collect();
                (op, child_groups)
            }
        }
    }

    fn materialize_child(&mut self, node: Node, provenance: RuleBits) -> GroupId {
        match node {
            Node::Group(g) => g,
            Node::Op(op, children) => {
                let child_groups: Vec<GroupId> = children
                    .into_iter()
                    .map(|c| self.materialize_child(c, provenance))
                    .collect();
                self.intern(op, child_groups, provenance)
            }
        }
    }

    /// Copy a logical plan into the memo; returns the root group per output.
    pub fn copy_in(&mut self, plan: &LogicalPlan) -> Vec<GroupId> {
        // Each reachable node's group, by node index (topological order sets
        // every child's before its parents read it).
        let mut group_of = vec![GroupId(u32::MAX); plan.len()];
        for id in plan.topo_order() {
            let node = plan.node(id);
            let children = node.children.iter().map(|c| group_of[c.index()]).collect();
            group_of[id.index()] = self.intern(node.op.clone(), children, RuleBits::empty());
        }
        plan.outputs().iter().map(|o| group_of[o.index()]).collect()
    }

    fn derive_schema(&self, op: &LogicalOp, children: &[GroupId]) -> Schema {
        let child = |i: usize| &self.groups[children[i].index()].schema;
        match op {
            LogicalOp::Extract { table } => table.schema.clone(),
            LogicalOp::Filter { .. }
            | LogicalOp::Sort { .. }
            | LogicalOp::Top { .. }
            | LogicalOp::Process { .. }
            | LogicalOp::Output { .. } => child(0).clone(),
            LogicalOp::Union => child(0).clone(),
            LogicalOp::Project { exprs } => {
                let input = child(0);
                Schema::new(
                    exprs
                        .iter()
                        .map(|(e, alias)| {
                            let ty = match e {
                                scope_ir::ScalarExpr::Column(i) => {
                                    input.column(*i).map_or(DataType::Int, |c| c.ty)
                                }
                                _ => DataType::Float,
                            };
                            Column::new(alias.clone(), ty)
                        })
                        .collect(),
                )
            }
            LogicalOp::Join {
                kind: JoinKind::LeftSemi,
                ..
            } => child(0).clone(),
            LogicalOp::Join { .. } => child(0).join(child(1)),
            LogicalOp::Aggregate { group_by, aggs, .. } => {
                let input = child(0);
                let mut cols: Vec<Column> = group_by
                    .iter()
                    .map(|&i| {
                        input
                            .column(i)
                            .cloned()
                            .unwrap_or_else(|| Column::new(format!("g{i}"), DataType::Int))
                    })
                    .collect();
                cols.extend(
                    aggs.iter()
                        .map(|a| Column::new(a.alias.clone(), DataType::Float)),
                );
                Schema::new(cols)
            }
            LogicalOp::Window { funcs, .. } => {
                let input = child(0);
                let mut cols = input.columns().to_vec();
                cols.extend(
                    funcs
                        .iter()
                        .map(|a| Column::new(a.alias.clone(), DataType::Float)),
                );
                Schema::new(cols)
            }
        }
    }

    fn derive_stats(&self, op: &LogicalOp, children: &[GroupId], schema: &Schema) -> NodeStats {
        let child = |i: usize| &self.groups[children[i].index()].stats;
        let row_len = f64::from(schema.avg_row_len());
        match op {
            LogicalOp::Extract { table } => {
                NodeStats::table(table.rows.actual, table.rows.estimated, row_len)
            }
            LogicalOp::Filter { selectivity, .. } => {
                child(0).filter(selectivity.actual, selectivity.estimated)
            }
            LogicalOp::Project { .. } => {
                let c = child(0);
                NodeStats {
                    rows: c.rows,
                    avg_row_len: row_len,
                    distinct: c.distinct,
                }
            }
            LogicalOp::Join {
                kind: JoinKind::LeftSemi,
                on: _,
                selectivity,
            } => {
                let (l, r) = (child(0), child(1));
                // P(a left row has a match) = min(1, sel * |R|).
                let match_p = |sel: f64, r_rows: f64| (sel * r_rows).clamp(0.0, 1.0);
                let rows = DualStats::new(
                    l.rows.actual * match_p(selectivity.actual, r.rows.actual),
                    l.rows.estimated * match_p(selectivity.estimated, r.rows.estimated),
                );
                NodeStats {
                    rows,
                    avg_row_len: row_len,
                    distinct: DualStats::new(
                        (rows.actual / 10.0).max(1.0),
                        (rows.estimated / 10.0).max(1.0),
                    ),
                }
            }
            LogicalOp::Join { selectivity, .. } => {
                let (l, r) = (child(0), child(1));
                let rows = DualStats::new(
                    (selectivity.actual * l.rows.actual * r.rows.actual).max(0.0),
                    (selectivity.estimated * l.rows.estimated * r.rows.estimated).max(0.0),
                );
                NodeStats {
                    rows,
                    avg_row_len: row_len,
                    distinct: DualStats::new(
                        (rows.actual / 10.0).max(1.0),
                        (rows.estimated / 10.0).max(1.0),
                    ),
                }
            }
            LogicalOp::Aggregate { group_ratio, .. } => {
                let c = child(0);
                let rows = DualStats::new(
                    (c.rows.actual * group_ratio.actual)
                        .max(1.0)
                        .min(c.rows.actual.max(1.0)),
                    (c.rows.estimated * group_ratio.estimated)
                        .max(1.0)
                        .min(c.rows.estimated.max(1.0)),
                );
                NodeStats {
                    rows,
                    avg_row_len: row_len,
                    distinct: rows,
                }
            }
            LogicalOp::Union => {
                let mut rows = DualStats::exact(0.0);
                for &c in children {
                    let s = &self.groups[c.index()].stats;
                    rows.actual += s.rows.actual;
                    rows.estimated += s.rows.estimated;
                }
                NodeStats {
                    rows,
                    avg_row_len: row_len,
                    distinct: DualStats::new(
                        (rows.actual / 10.0).max(1.0),
                        (rows.estimated / 10.0).max(1.0),
                    ),
                }
            }
            LogicalOp::Sort { .. } => *child(0),
            LogicalOp::Top { k, .. } => {
                let c = child(0);
                let kf = *k as f64;
                NodeStats {
                    rows: DualStats::new(c.rows.actual.min(kf), c.rows.estimated.min(kf)),
                    avg_row_len: row_len,
                    distinct: DualStats::new(
                        c.distinct.actual.min(kf),
                        c.distinct.estimated.min(kf),
                    ),
                }
            }
            LogicalOp::Window { .. } => {
                let c = child(0);
                NodeStats {
                    rows: c.rows,
                    avg_row_len: row_len,
                    distinct: c.distinct,
                }
            }
            LogicalOp::Process { out_ratio, .. } => {
                let c = child(0);
                NodeStats {
                    rows: DualStats::new(
                        c.rows.actual * out_ratio.actual,
                        c.rows.estimated * out_ratio.estimated,
                    ),
                    avg_row_len: row_len,
                    distinct: c.distinct,
                }
            }
            LogicalOp::Output { .. } => *child(0),
        }
    }

    fn derive_dist(&self, op: &LogicalOp, children: &[GroupId]) -> Dist {
        let child = |i: usize| &self.groups[children[i].index()].dist;
        match op {
            LogicalOp::Extract { .. } | LogicalOp::Union => Dist::Random,
            LogicalOp::Filter { .. } | LogicalOp::Process { .. } | LogicalOp::Output { .. } => {
                child(0).clone()
            }
            LogicalOp::Project { exprs } => {
                // Pure-column projections can remap a hash distribution.
                let mapping: Option<Vec<usize>> = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        scope_ir::ScalarExpr::Column(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                match (child(0), mapping) {
                    (Dist::Hash(cols), Some(map)) => {
                        let remapped: Option<Vec<usize>> = cols
                            .iter()
                            .map(|c| map.iter().position(|m| m == c))
                            .collect();
                        remapped.map_or(Dist::Random, Dist::Hash)
                    }
                    (Dist::Single, _) => Dist::Single,
                    _ => Dist::Random,
                }
            }
            LogicalOp::Join {
                kind: JoinKind::LeftSemi,
                on,
                ..
            } => {
                // Semi-join output keeps left schema, partitioned on keys.
                Dist::Hash(on.iter().map(|(l, _)| *l).collect())
            }
            LogicalOp::Join { on, .. } => Dist::Hash(on.iter().map(|(l, _)| *l).collect()),
            LogicalOp::Aggregate { group_by, .. } => {
                if group_by.is_empty() {
                    Dist::Single
                } else {
                    Dist::Hash((0..group_by.len()).collect())
                }
            }
            LogicalOp::Sort { keys } => Dist::Sorted(keys.iter().map(|k| k.column).collect()),
            LogicalOp::Top { .. } => Dist::Single,
            LogicalOp::Window { partition_by, .. } => Dist::Hash(partition_by.clone()),
        }
    }
}

#[cfg(test)]
impl Memo {
    /// The shape, edge and candidate arenas, for tests that pin them.
    pub(crate) fn arenas(&self) -> (&[PShape], &[Edge], &[PExpr]) {
        (&self.shapes, &self.edges, &self.candidates)
    }

    /// Where group `g`'s candidates start in the candidate arena.
    pub(crate) fn candidates_start(&self, g: GroupId) -> usize {
        self.group(g).candidates.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::ScalarExpr;
    use scope_ir::logical::TableRef;
    use scope_ir::stats::DualStats;

    fn scan_op(name: &str, rows: f64, est: f64) -> LogicalOp {
        LogicalOp::Extract {
            table: TableRef::new(
                name,
                Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                ]),
                DualStats::new(rows, est),
            ),
        }
    }

    #[test]
    fn intern_dedups_identical_expressions() {
        let mut memo = Memo::new();
        let g1 = memo.intern(scan_op("t", 100.0, 100.0), vec![], RuleBits::empty());
        let g2 = memo.intern(scan_op("t", 100.0, 100.0), vec![], RuleBits::empty());
        assert_eq!(g1, g2);
        assert_eq!(memo.group_count(), 1);
        let g3 = memo.intern(scan_op("u", 100.0, 100.0), vec![], RuleBits::empty());
        assert_ne!(g1, g3);
    }

    #[test]
    fn group_stats_propagate_dual_values() {
        let mut memo = Memo::new();
        let scan = memo.intern(scan_op("t", 1000.0, 4000.0), vec![], RuleBits::empty());
        let filter = memo.intern(
            LogicalOp::Filter {
                predicate: ScalarExpr::lit_int(1),
                selectivity: DualStats::new(0.5, 0.1),
            },
            vec![scan],
            RuleBits::empty(),
        );
        let s = memo.group(filter).stats;
        assert!((s.rows.actual - 500.0).abs() < 1e-9);
        assert!((s.rows.estimated - 400.0).abs() < 1e-9);
    }

    #[test]
    fn join_stats_multiply_with_selectivity() {
        let mut memo = Memo::new();
        let a = memo.intern(scan_op("a", 1000.0, 1000.0), vec![], RuleBits::empty());
        let b = memo.intern(scan_op("b", 2000.0, 2000.0), vec![], RuleBits::empty());
        let j = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(0.001),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        assert!((memo.group(j).stats.rows.actual - 2000.0).abs() < 1e-6);
        assert_eq!(memo.group(j).schema.len(), 4);
        assert_eq!(memo.group(j).dist, Dist::Hash(vec![0]));
    }

    #[test]
    fn semi_join_caps_match_probability() {
        let mut memo = Memo::new();
        let a = memo.intern(scan_op("a", 1000.0, 1000.0), vec![], RuleBits::empty());
        let b = memo.intern(scan_op("b", 10_000.0, 10_000.0), vec![], RuleBits::empty());
        let semi = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::LeftSemi,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1.0), // match prob saturates at 1
            },
            vec![a, b],
            RuleBits::empty(),
        );
        assert!((memo.group(semi).stats.rows.actual - 1000.0).abs() < 1e-6);
        assert_eq!(memo.group(semi).schema.len(), 2, "semi keeps left schema");
    }

    #[test]
    fn add_to_group_respects_cap_and_dedup() {
        let mut memo = Memo::new();
        let scan = memo.intern(scan_op("t", 10.0, 10.0), vec![], RuleBits::empty());
        let g = memo.intern(
            LogicalOp::Filter {
                predicate: ScalarExpr::lit_int(1),
                selectivity: DualStats::exact(0.5),
            },
            vec![scan],
            RuleBits::empty(),
        );
        // Duplicate of existing expr -> rejected.
        assert!(memo
            .add_to_group(
                g,
                LogicalOp::Filter {
                    predicate: ScalarExpr::lit_int(1),
                    selectivity: DualStats::exact(0.5),
                },
                vec![scan],
                RuleBits::empty(),
                8,
            )
            .unwrap()
            .is_none());
        // Distinct expr accepted.
        assert!(memo
            .add_to_group(
                g,
                LogicalOp::Filter {
                    predicate: ScalarExpr::lit_int(2),
                    selectivity: DualStats::exact(0.5),
                },
                vec![scan],
                RuleBits::empty(),
                8,
            )
            .unwrap()
            .is_some());
        // Cap enforcement.
        assert!(memo
            .add_to_group(
                g,
                LogicalOp::Filter {
                    predicate: ScalarExpr::lit_int(3),
                    selectivity: DualStats::exact(0.5),
                },
                vec![scan],
                RuleBits::empty(),
                2,
            )
            .unwrap()
            .is_none());
    }

    /// Dedup soundness: a 64-bit key match is trusted as equality, so debug
    /// builds verify it. Plant the key of one expression on the group of
    /// another and intern it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "expr_key collision")]
    fn a_planted_key_collision_is_caught_not_merged() {
        let mut memo = Memo::new();
        let t = memo.intern(scan_op("t", 10.0, 10.0), vec![], RuleBits::empty());
        let other = scan_op("u", 10.0, 10.0);
        memo.index.insert(Memo::expr_key(&other, &[]), t);
        memo.intern(other, vec![], RuleBits::empty());
    }

    #[test]
    fn expr_key_separates_operator_children_and_arity() {
        let key = |op: &LogicalOp, children: &[u32]| {
            Memo::expr_key(
                op,
                &children.iter().map(|&c| GroupId(c)).collect::<Vec<_>>(),
            )
        };
        let filter = |sel: f64| LogicalOp::Filter {
            predicate: ScalarExpr::lit_int(1),
            selectivity: DualStats::exact(sel),
        };
        assert_eq!(key(&filter(0.5), &[3]), key(&filter(0.5), &[3]));
        assert_ne!(key(&filter(0.5), &[3]), key(&filter(0.25), &[3]));
        assert_ne!(key(&filter(0.5), &[3]), key(&filter(0.5), &[4]));
        assert_ne!(
            key(&LogicalOp::Union, &[1, 2]),
            key(&LogicalOp::Union, &[2, 1])
        );
        assert_ne!(
            key(&LogicalOp::Union, &[1, 2]),
            key(&LogicalOp::Union, &[1, 2, 0])
        );
    }

    /// A forked memo shares every logical half with its base, so neither
    /// side may grow one: `add_to_group` reports the shared half as an
    /// invariant error instead of silently copying it.
    #[test]
    fn growing_a_shared_logical_half_is_a_typed_error() {
        let mut memo = Memo::new();
        let scan = memo.intern(scan_op("t", 10.0, 10.0), vec![], RuleBits::empty());
        let filter = |lit: i64| LogicalOp::Filter {
            predicate: ScalarExpr::lit_int(lit),
            selectivity: DualStats::exact(0.5),
        };
        let g = memo.intern(filter(1), vec![scan], RuleBits::empty());
        let fork = memo.fork_for_delta();
        assert!(fork.group(g).shares_logical_with(memo.group(g)));
        let grown = memo.add_to_group(g, filter(2), vec![scan], RuleBits::empty(), 8);
        assert!(
            matches!(&grown, Err(CompileError::Invalid(m)) if m.contains("memo invariant")),
            "{grown:?}"
        );
        assert_eq!(
            memo.group(g).lexprs.len(),
            1,
            "nothing was copied or pushed"
        );
        assert_eq!(memo.lexpr_count, 2);
        // Once the fork is gone the half is unique again and may grow.
        drop(fork);
        assert_eq!(
            memo.add_to_group(g, filter(2), vec![scan], RuleBits::empty(), 8),
            Ok(Some(1))
        );
    }

    #[test]
    fn copy_in_shares_dag_nodes() {
        use scope_ir::logical::LogicalPlan;
        let mut plan = LogicalPlan::new();
        let s = plan.add(scan_op("t", 100.0, 100.0), vec![]);
        let f = plan.add(
            LogicalOp::Filter {
                predicate: ScalarExpr::lit_int(1),
                selectivity: DualStats::exact(0.3),
            },
            vec![s],
        );
        plan.add_output("o1", f);
        plan.add_output("o2", f);
        let mut memo = Memo::new();
        let roots = memo.copy_in(&plan);
        assert_eq!(roots.len(), 2);
        // Scan, filter, two distinct outputs -> 4 groups.
        assert_eq!(memo.group_count(), 4);
    }

    #[test]
    fn materialize_interns_interior_nodes() {
        let mut memo = Memo::new();
        let a = memo.intern(scan_op("a", 10.0, 10.0), vec![], RuleBits::empty());
        let before = memo.group_count();
        let node = Node::Op(
            LogicalOp::Filter {
                predicate: ScalarExpr::lit_int(9),
                selectivity: DualStats::exact(0.9),
            },
            vec![Node::Op(
                LogicalOp::Filter {
                    predicate: ScalarExpr::lit_int(8),
                    selectivity: DualStats::exact(0.8),
                },
                vec![Node::Group(a)],
            )],
        );
        let (op, children) = memo.materialize(node, RuleBits::empty());
        assert!(matches!(op, LogicalOp::Filter { .. }));
        assert_eq!(children.len(), 1);
        assert_eq!(memo.group_count(), before + 1, "inner filter interned");
    }

    #[test]
    fn aggregate_dist_is_output_key_positions() {
        let mut memo = Memo::new();
        let s = memo.intern(scan_op("t", 100.0, 100.0), vec![], RuleBits::empty());
        let g = memo.intern(
            LogicalOp::Aggregate {
                group_by: vec![1],
                aggs: vec![],
                group_ratio: DualStats::exact(0.1),
            },
            vec![s],
            RuleBits::empty(),
        );
        assert_eq!(memo.group(g).dist, Dist::Hash(vec![0]));
    }
}
