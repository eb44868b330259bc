//! Physical operators and the executable plan DAG.
//!
//! Physical plans are what the optimizer's implementation rules produce and
//! what the runtime simulator executes. Compared to the logical algebra they
//! add: operator *flavors* (hash vs. merge join, hash vs. stream aggregate),
//! explicit [`Exchange`](PhysicalOp::Exchange) operators that move data
//! between stages, and a [`PhysicalTuning`] knob block that parametric
//! optimizer rules use to express alternative physical configurations.

use crate::expr::{AggExpr, ScalarExpr};
use crate::ids::{stable_hash64, NodeId, PHYSICAL_FP_SALT};
use crate::logical::{JoinKind, SortKey};
use crate::stats::NodeStats;
use serde::Serialize;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How rows are distributed across the vertices of a stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum Partitioning {
    /// Hash-partition on columns into `partitions` buckets.
    Hash {
        columns: Vec<usize>,
        partitions: u32,
    },
    /// Range-partition on sort keys (used below merge joins / global sorts).
    Range {
        columns: Vec<usize>,
        partitions: u32,
    },
    /// Replicate the full dataset to every consumer vertex.
    Broadcast,
    /// Gather everything to a single vertex.
    Gather,
}

impl Partitioning {
    /// Number of output partitions (consumer-side parallelism).
    #[must_use]
    pub fn partitions(&self) -> u32 {
        match self {
            Partitioning::Hash { partitions, .. } | Partitioning::Range { partitions, .. } => {
                *partitions
            }
            Partitioning::Broadcast => 1,
            Partitioning::Gather => 1,
        }
    }

    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Partitioning::Hash { .. } => "Hash",
            Partitioning::Range { .. } => "Range",
            Partitioning::Broadcast => "Broadcast",
            Partitioning::Gather => "Gather",
        }
    }
}

/// Scan implementation flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ScanVariant {
    /// Plain sequential extract.
    Sequential,
    /// Extract with early projection/column pruning applied.
    Pruned,
}

/// Aggregation execution mode, produced by the local/global split rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AggMode {
    /// Single-phase aggregation (after a full shuffle on the keys).
    Single,
    /// Local pre-aggregation before the shuffle.
    Partial,
    /// Final aggregation of partials after the shuffle.
    Final,
}

/// Multiplicative knobs attached to every physical operator. Implementation
/// rules leave these at identity; *parametric* rules (the long tail of the
/// 256-rule registry) produce alternatives with non-identity knobs, modelling
/// SCOPE rules that trade CPU for I/O or change intra-stage parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhysicalTuning {
    /// Scales per-row CPU work of this operator.
    pub cpu_mult: f64,
    /// Scales bytes written by this operator (e.g. compression trade-offs).
    pub io_mult: f64,
    /// Scales the parallelism of the stage this operator anchors.
    pub parallelism_mult: f64,
}

impl PhysicalTuning {
    pub const IDENTITY: PhysicalTuning = PhysicalTuning {
        cpu_mult: 1.0,
        io_mult: 1.0,
        parallelism_mult: 1.0,
    };

    #[must_use]
    pub fn is_identity(&self) -> bool {
        self == &Self::IDENTITY
    }
}

impl Default for PhysicalTuning {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// Physical operators.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum PhysicalOp {
    TableScan {
        table: Arc<str>,
        variant: ScanVariant,
    },
    FilterExec {
        predicate: ScalarExpr,
    },
    ProjectExec {
        exprs: Vec<(ScalarExpr, String)>,
    },
    /// Build-side is always the right child.
    HashJoin {
        kind: JoinKind,
        on: Vec<(usize, usize)>,
    },
    /// Requires both inputs range-partitioned + sorted on the keys.
    MergeJoin {
        kind: JoinKind,
        on: Vec<(usize, usize)>,
    },
    /// Right side broadcast to every left vertex; no shuffle of the left.
    BroadcastJoin {
        kind: JoinKind,
        on: Vec<(usize, usize)>,
    },
    HashAggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        mode: AggMode,
    },
    /// Requires input sorted on the grouping keys.
    StreamAggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        mode: AggMode,
    },
    SortExec {
        keys: Vec<SortKey>,
    },
    TopNExec {
        k: u64,
        keys: Vec<SortKey>,
    },
    WindowExec {
        partition_by: Vec<usize>,
        funcs: Vec<AggExpr>,
    },
    ProcessExec {
        udf: Arc<str>,
        cpu_factor: f64,
    },
    UnionAllExec,
    /// Stage boundary: repartition/move data.
    Exchange {
        scheme: Partitioning,
    },
    OutputExec {
        path: Arc<str>,
    },
}

impl PhysicalOp {
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            PhysicalOp::TableScan { .. } => "TableScan",
            PhysicalOp::FilterExec { .. } => "FilterExec",
            PhysicalOp::ProjectExec { .. } => "ProjectExec",
            PhysicalOp::HashJoin { .. } => "HashJoin",
            PhysicalOp::MergeJoin { .. } => "MergeJoin",
            PhysicalOp::BroadcastJoin { .. } => "BroadcastJoin",
            PhysicalOp::HashAggregate { .. } => "HashAggregate",
            PhysicalOp::StreamAggregate { .. } => "StreamAggregate",
            PhysicalOp::SortExec { .. } => "SortExec",
            PhysicalOp::TopNExec { .. } => "TopNExec",
            PhysicalOp::WindowExec { .. } => "WindowExec",
            PhysicalOp::ProcessExec { .. } => "ProcessExec",
            PhysicalOp::UnionAllExec => "UnionAllExec",
            PhysicalOp::Exchange { .. } => "Exchange",
            PhysicalOp::OutputExec { .. } => "OutputExec",
        }
    }

    /// Whether this operator starts a new stage (its input crosses the
    /// network). The runtime simulator cuts the plan into stages here.
    #[must_use]
    pub fn is_stage_boundary(&self) -> bool {
        matches!(self, PhysicalOp::Exchange { .. })
    }
}

/// One node of the physical DAG, with statistics stamped by the optimizer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhysicalNode {
    pub op: PhysicalOp,
    pub children: Vec<NodeId>,
    pub stats: NodeStats,
    pub tuning: PhysicalTuning,
}

/// Arena-based physical plan with the same topological-arena invariant as
/// [`crate::LogicalPlan`].
///
/// `Clone`, `PartialEq`, `Debug`, and the serde impls are hand-written so
/// the [`PhysicalPlan::fingerprint`] memo stays invisible: two plans compare
/// equal, print, and serialize identically whether or not their fingerprint
/// has been computed, and a clone carries the memo along (mirroring
/// [`crate::LogicalPlan`]'s compile-cache fingerprint).
#[derive(Default)]
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
    outputs: Vec<NodeId>,
    /// Memoized [`PhysicalPlan::fingerprint`]; 0 = not computed yet. Reset
    /// by the mutating methods, copied by `Clone`.
    #[expect(
        clippy::disallowed_types,
        reason = "a memo of a pure function of the plan: every writer stores the same value"
    )]
    fp_memo: std::sync::atomic::AtomicU64,
}

impl Clone for PhysicalPlan {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            outputs: self.outputs.clone(),
            fp_memo: self.fp_memo.load(Ordering::Relaxed).into(),
        }
    }
}

impl PartialEq for PhysicalPlan {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.outputs == other.outputs
    }
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalPlan")
            .field("nodes", &self.nodes)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl Serialize for PhysicalPlan {
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

impl PhysicalPlan {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a node; children must already exist.
    pub fn add(&mut self, node: PhysicalNode) -> NodeId {
        #[expect(clippy::expect_used, reason = "2^32 nodes is past any memory")]
        let id = NodeId(u32::try_from(self.nodes.len()).expect("plan too large"));
        for &c in &node.children {
            assert!(c.index() < self.nodes.len(), "child {c} does not exist yet");
        }
        self.nodes.push(node);
        self.fp_memo.store(0, Ordering::Relaxed);
        id
    }

    pub fn mark_output(&mut self, node: NodeId) {
        self.outputs.push(node);
        self.fp_memo.store(0, Ordering::Relaxed);
    }

    /// Exact fingerprint of this plan: the stable structural hash of its
    /// serialized form ([`Serialize::structural_hash`], which walks the plan
    /// itself and never builds that form) — operators, expressions,
    /// literals, statistics, and tuning knobs. Two plans with equal
    /// fingerprints execute identically under any
    /// `(cluster, job_seed, run_seed)`, which is what makes this the
    /// execution-result cache key (the runtime simulator is a pure function
    /// of the plan bytes, the cluster model, and the seeds).
    ///
    /// Memoized: the first call walks the plan, later calls (including on
    /// clones of an already-fingerprinted plan) are one atomic load.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let memo = self.fp_memo.load(Ordering::Relaxed);
        if memo != 0 {
            debug_assert_eq!(
                memo,
                PHYSICAL_FP_SALT.fingerprint(self).max(1),
                "memoized physical fingerprint diverged from a fresh recompute \
                 (plan mutated after fingerprinting?)"
            );
            return memo;
        }
        let fp = PHYSICAL_FP_SALT.fingerprint(self).max(1);
        self.fp_memo.store(fp, Ordering::Relaxed);
        fp
    }

    /// Whether [`PhysicalPlan::fingerprint`] is memoized, i.e. the next call
    /// is one atomic load. Never computes it.
    #[must_use]
    pub fn is_fingerprinted(&self) -> bool {
        self.fp_memo.load(Ordering::Relaxed) != 0
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
    pub fn node(&self, id: NodeId) -> &PhysicalNode {
        &self.nodes[id.index()]
    }

    #[must_use]
    pub fn nodes(&self) -> &[PhysicalNode] {
        &self.nodes
    }

    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Reachable nodes in topological (child-first) order.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.index()], true) {
                continue;
            }
            stack.extend_from_slice(&self.nodes[id.index()].children);
        }
        (0..self.nodes.len())
            .filter(|&i| reachable[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Count reachable operators by tag.
    #[must_use]
    pub fn count_tag(&self, tag: &str) -> usize {
        self.topo_order()
            .iter()
            .filter(|id| self.node(**id).op.tag() == tag)
            .count()
    }

    /// Number of exchanges (≈ number of stage boundaries).
    #[must_use]
    pub fn exchange_count(&self) -> usize {
        self.count_tag("Exchange")
    }

    /// Structural validation (same invariants as the logical plan).
    pub fn validate(&self) -> Result<(), String> {
        if self.outputs.is_empty() {
            return Err("physical plan has no outputs".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if c.index() >= i {
                    return Err(format!("node n{i} references forward child {c}"));
                }
            }
            let expected = match &node.op {
                PhysicalOp::TableScan { .. } => Some(0),
                PhysicalOp::HashJoin { .. }
                | PhysicalOp::MergeJoin { .. }
                | PhysicalOp::BroadcastJoin { .. } => Some(2),
                PhysicalOp::UnionAllExec => None,
                _ => Some(1),
            };
            match expected {
                Some(e) if node.children.len() != e => {
                    return Err(format!(
                        "node n{i} ({}) expects {e} children, found {}",
                        node.op.tag(),
                        node.children.len()
                    ));
                }
                None if node.children.len() < 2 => {
                    return Err(format!("union n{i} needs >= 2 children"));
                }
                _ => {}
            }
        }
        for &o in &self.outputs {
            if !matches!(self.node(o).op, PhysicalOp::OutputExec { .. }) {
                return Err(format!("root {o} is not OutputExec"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &root) in self.outputs.iter().enumerate() {
            writeln!(f, "-- output {i} --")?;
            let mut stack = vec![(root, 0usize)];
            while let Some((id, depth)) = stack.pop() {
                let node = self.node(id);
                writeln!(
                    f,
                    "{:indent$}{} [{}]",
                    "",
                    node.op.tag(),
                    id,
                    indent = depth * 2
                )?;
                for &c in node.children.iter().rev() {
                    stack.push((c, depth + 1));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{DualStats, NodeStats};

    fn scan(plan: &mut PhysicalPlan, name: &str, rows: f64) -> NodeId {
        plan.add(PhysicalNode {
            op: PhysicalOp::TableScan {
                table: name.into(),
                variant: ScanVariant::Sequential,
            },
            children: vec![],
            stats: NodeStats::table(rows, rows, 10.0),
            tuning: PhysicalTuning::IDENTITY,
        })
    }

    fn sample() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let s1 = scan(&mut p, "t1", 1000.0);
        let s2 = scan(&mut p, "t2", 500.0);
        let x1 = p.add(PhysicalNode {
            op: PhysicalOp::Exchange {
                scheme: Partitioning::Hash {
                    columns: vec![0],
                    partitions: 8,
                },
            },
            children: vec![s1],
            stats: NodeStats::table(1000.0, 1000.0, 10.0),
            tuning: PhysicalTuning::IDENTITY,
        });
        let x2 = p.add(PhysicalNode {
            op: PhysicalOp::Exchange {
                scheme: Partitioning::Hash {
                    columns: vec![0],
                    partitions: 8,
                },
            },
            children: vec![s2],
            stats: NodeStats::table(500.0, 500.0, 10.0),
            tuning: PhysicalTuning::IDENTITY,
        });
        let j = p.add(PhysicalNode {
            op: PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
            },
            children: vec![x1, x2],
            stats: NodeStats::table(800.0, 800.0, 20.0),
            tuning: PhysicalTuning::IDENTITY,
        });
        let o = p.add(PhysicalNode {
            op: PhysicalOp::OutputExec { path: "out".into() },
            children: vec![j],
            stats: NodeStats::table(800.0, 800.0, 20.0),
            tuning: PhysicalTuning::IDENTITY,
        });
        p.mark_output(o);
        p
    }

    #[test]
    fn sample_validates() {
        sample().validate().expect("valid physical plan");
    }

    #[test]
    fn exchange_count_counts_boundaries() {
        assert_eq!(sample().exchange_count(), 2);
    }

    #[test]
    fn partitioning_partitions() {
        assert_eq!(
            Partitioning::Hash {
                columns: vec![0],
                partitions: 16
            }
            .partitions(),
            16
        );
        assert_eq!(Partitioning::Broadcast.partitions(), 1);
        assert_eq!(Partitioning::Gather.partitions(), 1);
    }

    #[test]
    fn tuning_identity_detection() {
        assert!(PhysicalTuning::IDENTITY.is_identity());
        let t = PhysicalTuning {
            cpu_mult: 1.1,
            ..PhysicalTuning::IDENTITY
        };
        assert!(!t.is_identity());
    }

    #[test]
    fn validate_rejects_join_arity() {
        let mut p = PhysicalPlan::new();
        let s = scan(&mut p, "t", 10.0);
        let j = p.add(PhysicalNode {
            op: PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                on: vec![],
            },
            children: vec![s],
            stats: NodeStats::default(),
            tuning: PhysicalTuning::IDENTITY,
        });
        let o = p.add(PhysicalNode {
            op: PhysicalOp::OutputExec { path: "o".into() },
            children: vec![j],
            stats: NodeStats::default(),
            tuning: PhysicalTuning::IDENTITY,
        });
        p.mark_output(o);
        let err = p.validate().unwrap_err();
        assert!(err.contains("children"), "{err}");
    }

    #[test]
    fn display_renders_tree() {
        let text = sample().to_string();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("TableScan"));
        assert!(text.contains("-- output 0 --"));
    }

    #[test]
    fn fingerprint_memo_is_invisible_and_reset_on_mutation() {
        let p = sample();
        let pristine = sample();
        assert!(!p.is_fingerprinted());
        let fp = p.fingerprint();
        assert!(p.is_fingerprinted());
        assert_eq!(fp, pristine.fingerprint(), "structurally equal plans agree");
        // The memo must not leak into equality, Debug, or serialization.
        assert_eq!(p, pristine);
        assert_eq!(format!("{p:?}"), format!("{pristine:?}"));
        assert_eq!(p.to_value(), pristine.to_value());
        // Clones carry the memo and agree.
        assert_eq!(p.clone().fingerprint(), fp);
        // Mutation invalidates the memo.
        let mut q = p.clone();
        let extra = scan(&mut q, "zz", 7.0);
        q.mark_output(extra);
        assert!(!q.is_fingerprinted());
        assert_ne!(q.fingerprint(), fp);
    }

    #[test]
    fn fingerprint_sees_stats_and_tuning() {
        // Identical operator trees with different actual statistics or
        // tuning knobs execute differently, so they must not share a
        // fingerprint.
        let mut a = PhysicalPlan::new();
        let s = scan(&mut a, "t", 100.0);
        let o = a.add(PhysicalNode {
            op: PhysicalOp::OutputExec { path: "o".into() },
            children: vec![s],
            stats: NodeStats::table(100.0, 100.0, 10.0),
            tuning: PhysicalTuning::IDENTITY,
        });
        a.mark_output(o);
        let mut b = PhysicalPlan::new();
        let s = scan(&mut b, "t", 200.0);
        let o = b.add(PhysicalNode {
            op: PhysicalOp::OutputExec { path: "o".into() },
            children: vec![s],
            stats: NodeStats::table(100.0, 100.0, 10.0),
            tuning: PhysicalTuning::IDENTITY,
        });
        b.mark_output(o);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn stats_dual_semantics() {
        let s = NodeStats::table(100.0, 400.0, 8.0);
        assert!((s.rows.q_ratio() - 4.0).abs() < 1e-12);
        let _ = DualStats::exact(1.0);
    }
}
