//! The append-only topological arena both plan kinds live in.
//!
//! A [`Dag`] holds nodes in which every child index is strictly smaller than
//! its parent's index, plus the output roots. That *topological-arena
//! invariant* makes structural sharing (DAGs), traversal, and validation
//! cheap: node order is already a topological order. Rewrites in `scope-opt`
//! always construct fresh arenas bottom-up, so the invariant is preserved by
//! construction and checked by the plans' `validate`.
//!
//! [`crate::LogicalPlan`] and [`crate::PhysicalPlan`] are aliases of this one
//! type; a [`PlanNode`] supplies the few facts that differ per kind.

use crate::ids::{stable_hash64, NodeId, Salt};
use serde::Serialize;
use std::fmt;
use std::sync::atomic::Ordering;

/// The per-kind facts of a plan node the arena needs.
pub trait PlanNode: Clone + PartialEq + fmt::Debug + Serialize {
    /// Name of the plan type in `Debug` output.
    const PLAN_NAME: &'static str;
    /// Salt of [`Dag::fingerprint`] for this kind.
    const FP_SALT: Salt;

    fn children(&self) -> &[NodeId];

    /// Short operator tag used in signatures and display.
    fn tag(&self) -> &'static str;

    /// Expected number of children, or `None` for n-ary unions (n ≥ 2).
    fn arity(&self) -> Option<usize>;

    /// Whether the node is a job output sink; every root is one, and no
    /// reachable interior node is.
    fn is_output(&self) -> bool;
}

/// Errors raised by the plans' `validate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A child index points at or beyond its parent (breaks the topological
    /// arena invariant) or outside the arena.
    BadChildIndex { parent: NodeId, child: NodeId },
    /// Operator received the wrong number of children.
    BadArity {
        node: NodeId,
        expected: usize,
        found: usize,
    },
    /// `Union` needs at least two inputs.
    UnionTooNarrow { node: NodeId, found: usize },
    /// The plan has no `Output` roots.
    NoOutputs,
    /// An output root is not an `Output` operator.
    RootNotOutput { node: NodeId },
    /// An `Output` operator appears below another operator.
    InteriorOutput { node: NodeId },
    /// An expression references a column outside the input schema.
    ColumnOutOfRange {
        node: NodeId,
        column: usize,
        input_width: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadChildIndex { parent, child } => {
                write!(f, "node {parent} references invalid child {child}")
            }
            PlanError::BadArity {
                node,
                expected,
                found,
            } => {
                write!(f, "node {node} expects {expected} children, found {found}")
            }
            PlanError::UnionTooNarrow { node, found } => {
                write!(f, "union {node} needs >= 2 inputs, found {found}")
            }
            PlanError::NoOutputs => write!(f, "plan has no outputs"),
            PlanError::RootNotOutput { node } => write!(f, "root {node} is not an Output"),
            PlanError::InteriorOutput { node } => write!(f, "Output {node} is not a root"),
            PlanError::ColumnOutOfRange {
                node,
                column,
                input_width,
            } => {
                write!(
                    f,
                    "node {node} references column {column} of {input_width}-wide input"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// An arena-based plan DAG with one or more output roots.
///
/// `Clone`, `PartialEq`, `Debug`, and the serde impls are hand-written so
/// the [`Dag::fingerprint`] and [`crate::LogicalPlan::template_id`] memos
/// stay invisible: two plans compare equal, print, and serialize
/// identically whether or not either hash has been computed, and a clone
/// carries both memos along.
pub struct Dag<N> {
    pub(crate) nodes: Vec<N>,
    outputs: Vec<NodeId>,
    /// Memoized [`Dag::fingerprint`]; 0 = not computed yet. Reset by the
    /// mutating methods, copied by `Clone`.
    #[expect(
        clippy::disallowed_types,
        reason = "a memo of a pure function of the plan: every writer stores the same value"
    )]
    fp_memo: std::sync::atomic::AtomicU64,
    /// Memoized [`crate::LogicalPlan::template_id`], kept like `fp_memo`
    /// (always 0 in a physical plan).
    #[expect(
        clippy::disallowed_types,
        reason = "a memo of a pure function of the plan: every writer stores the same value"
    )]
    pub(crate) tid_memo: std::sync::atomic::AtomicU64,
}

impl<N> Default for Dag<N> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            outputs: Vec::new(),
            fp_memo: 0.into(),
            tid_memo: 0.into(),
        }
    }
}

impl<N: Clone> Clone for Dag<N> {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            outputs: self.outputs.clone(),
            fp_memo: self.fp_memo.load(Ordering::Relaxed).into(),
            tid_memo: self.tid_memo.load(Ordering::Relaxed).into(),
        }
    }
}

impl<N: PartialEq> PartialEq for Dag<N> {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.outputs == other.outputs
    }
}

impl<N: PlanNode> fmt::Debug for Dag<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(N::PLAN_NAME)
            .field("nodes", &self.nodes)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl<N: Serialize> Serialize for Dag<N> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("outputs".to_string(), self.outputs.to_value()),
        ])
    }

    fn structural_hash(&self, h: u64) -> u64 {
        use serde::hash::{key, map};
        let h = map(h, 2);
        let h = self
            .nodes
            .structural_hash(key(h, const { stable_hash64(b"nodes") }));
        self.outputs
            .structural_hash(key(h, const { stable_hash64(b"outputs") }))
    }
}

impl<N: PlanNode> Dag<N> {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty plan with room for `nodes` nodes and `outputs` roots.
    #[must_use]
    pub fn with_capacity(nodes: usize, outputs: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            outputs: Vec::with_capacity(outputs),
            ..Self::default()
        }
    }

    /// Append a node; its children must already exist in the arena.
    ///
    /// # Panics
    /// Panics if a child id is out of range (programming error at plan
    /// construction time, always caught in tests via `validate`).
    pub(crate) fn push(&mut self, node: N) -> NodeId {
        #[expect(clippy::expect_used, reason = "2^32 nodes is past any memory")]
        let id = NodeId(u32::try_from(self.nodes.len()).expect("plan too large"));
        for &c in node.children() {
            assert!(c.index() < self.nodes.len(), "child {c} does not exist yet");
        }
        self.nodes.push(node);
        self.forget_hashes();
        id
    }

    /// Register `node` as a job output root.
    pub fn mark_output(&mut self, node: NodeId) {
        self.outputs.push(node);
        self.forget_hashes();
    }

    /// Reset both hash memos after a mutation.
    fn forget_hashes(&mut self) {
        *self.fp_memo.get_mut() = 0;
        *self.tid_memo.get_mut() = 0;
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[must_use]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    #[must_use]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All node ids reachable from the outputs, in topological (child before
    /// parent) order. With the arena invariant this is simply ascending index
    /// order over the reachable set.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.reachable(&self.outputs)
    }

    /// The ids reachable from `roots`, ascending (so child before parent).
    pub(crate) fn reachable(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = roots.to_vec();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            stack.extend_from_slice(self.nodes[id.index()].children());
        }
        (0..self.nodes.len())
            .filter(|&i| seen[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Number of operators reachable from outputs, by tag.
    #[must_use]
    pub fn count_tag(&self, tag: &str) -> usize {
        self.topo_order()
            .iter()
            .filter(|id| self.node(**id).tag() == tag)
            .count()
    }

    /// The structural invariants every plan of either kind keeps: at least
    /// one output; children before parents; operator arity and union width;
    /// every root an output sink; no reachable interior sink (an unreachable
    /// one is a dead arena slot, tolerated).
    pub(crate) fn validate_structure(&self) -> Result<(), PlanError> {
        if self.outputs.is_empty() {
            return Err(PlanError::NoOutputs);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if let Some(&child) = node.children().iter().find(|c| c.index() >= i) {
                return Err(PlanError::BadChildIndex { parent: id, child });
            }
            let found = node.children().len();
            match node.arity() {
                Some(expected) if found != expected => {
                    return Err(PlanError::BadArity {
                        node: id,
                        expected,
                        found,
                    });
                }
                None if found < 2 => return Err(PlanError::UnionTooNarrow { node: id, found }),
                _ => {}
            }
        }
        for &root in &self.outputs {
            if root.index() >= self.nodes.len() {
                return Err(PlanError::BadChildIndex {
                    parent: root,
                    child: root,
                });
            }
            if !self.node(root).is_output() {
                return Err(PlanError::RootNotOutput { node: root });
            }
        }
        let interior = |id: &NodeId| self.node(*id).is_output() && !self.outputs.contains(id);
        // Walk only when an unrooted sink exists: every compile validates.
        if (0..self.nodes.len()).any(|i| interior(&NodeId(i as u32))) {
            if let Some(node) = self.topo_order().into_iter().find(interior) {
                return Err(PlanError::InteriorOutput { node });
            }
        }
        Ok(())
    }

    /// Exact fingerprint of this plan: the stable structural hash of its
    /// serialized form ([`Serialize::structural_hash`], which walks the plan
    /// itself and never builds that form) seeded with the kind's
    /// [`PlanNode::FP_SALT`]. It covers everything — operators, expressions,
    /// **literals**, statistics (estimated *and* actual) and tuning knobs —
    /// so two logical plans with equal fingerprints compile identically
    /// under any configuration (the compile-cache key), and two physical
    /// plans execute identically under any `(cluster, job_seed, run_seed)`
    /// (the execution-cache key; the runtime simulator is a pure function of
    /// the plan bytes, the cluster model, and the seeds). Contrast
    /// [`crate::LogicalPlan::template_id`], which normalizes literals away
    /// and so conflates plans that compile differently.
    ///
    /// Memoized: the first call walks the plan, later calls (including on
    /// clones of an already-fingerprinted plan) are one atomic load.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let memo = self.fp_memo.load(Ordering::Relaxed);
        if memo != 0 {
            debug_assert_eq!(
                memo,
                N::FP_SALT.fingerprint(self).max(1),
                "memoized {} fingerprint diverged from a fresh recompute \
                 (plan mutated after fingerprinting?)",
                N::PLAN_NAME
            );
            return memo;
        }
        let fp = N::FP_SALT.fingerprint(self).max(1);
        self.fp_memo.store(fp, Ordering::Relaxed);
        fp
    }

    /// Whether [`Dag::fingerprint`] is memoized, i.e. the next call is one
    /// atomic load. Never computes it.
    #[must_use]
    pub fn is_fingerprinted(&self) -> bool {
        self.fp_memo.load(Ordering::Relaxed) != 0
    }
}
