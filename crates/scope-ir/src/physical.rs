//! Physical operators and the executable plan DAG.
//!
//! Physical plans are what the optimizer's implementation rules produce and
//! what the runtime simulator executes. Compared to the logical algebra they
//! add: operator *flavors* (hash vs. merge join, hash vs. stream aggregate),
//! explicit [`Exchange`](PhysicalOp::Exchange) operators that move data
//! between stages, and a [`PhysicalTuning`] knob block that parametric
//! optimizer rules use to express alternative physical configurations.

use crate::dag::{Dag, PlanError, PlanNode};
use crate::expr::{AggExpr, ScalarExpr};
use crate::ids::{NodeId, Salt, PHYSICAL_FP_SALT};
use crate::logical::{JoinKind, SortKey};
use crate::stats::NodeStats;
use serde::Serialize;
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

impl PlanNode for PhysicalNode {
    const PLAN_NAME: &'static str = "PhysicalPlan";
    const FP_SALT: Salt = PHYSICAL_FP_SALT;

    fn children(&self) -> &[NodeId] {
        &self.children
    }

    fn tag(&self) -> &'static str {
        self.op.tag()
    }

    fn arity(&self) -> Option<usize> {
        match self.op {
            PhysicalOp::TableScan { .. } => Some(0),
            PhysicalOp::HashJoin { .. }
            | PhysicalOp::MergeJoin { .. }
            | PhysicalOp::BroadcastJoin { .. } => Some(2),
            PhysicalOp::UnionAllExec => None,
            _ => Some(1),
        }
    }

    fn is_output(&self) -> bool {
        matches!(self.op, PhysicalOp::OutputExec { .. })
    }
}

/// A physical plan DAG with one or more `OutputExec` roots: the same [`Dag`]
/// arena as [`crate::LogicalPlan`].
pub type PhysicalPlan = Dag<PhysicalNode>;

impl PhysicalPlan {
    /// Append a node; children must already exist.
    pub fn add(&mut self, node: PhysicalNode) -> NodeId {
        self.push(node)
    }

    /// Number of exchanges (≈ number of stage boundaries).
    #[must_use]
    pub fn exchange_count(&self) -> usize {
        self.count_tag("Exchange")
    }

    /// Structural validation: the arena invariants every plan keeps.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.validate_structure()
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
        assert!(matches!(
            p.validate(),
            Err(PlanError::BadArity {
                expected: 2,
                found: 1,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_root() {
        let mut p = sample();
        p.mark_output(NodeId(99));
        assert_eq!(
            p.validate(),
            Err(PlanError::BadChildIndex {
                parent: NodeId(99),
                child: NodeId(99),
            })
        );
    }

    #[test]
    fn validate_rejects_reachable_interior_output() {
        let mut p = PhysicalPlan::new();
        let s = scan(&mut p, "t", 10.0);
        let sink = |child| PhysicalNode {
            op: PhysicalOp::OutputExec { path: "o".into() },
            children: vec![child],
            stats: NodeStats::default(),
            tuning: PhysicalTuning::IDENTITY,
        };
        let inner = p.add(sink(s));
        let root = p.add(sink(inner));
        p.mark_output(root);
        assert_eq!(p.validate(), Err(PlanError::InteriorOutput { node: inner }));
        // An unreachable sink is a dead arena slot, tolerated.
        let mut q = PhysicalPlan::new();
        let s = scan(&mut q, "t", 10.0);
        q.add(sink(s));
        let root = q.add(sink(s));
        q.mark_output(root);
        q.validate().expect("dead sink slot is tolerated");
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
