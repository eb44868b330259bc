//! Stage-graph extraction: cut the physical plan at exchanges into pipelined
//! stages, derive each stage's parallelism and ground-truth work profile.
//!
//! The **actual** side of the dual statistics and the **actual** tuning
//! knobs are used throughout — this module is the ground truth the optimizer
//! never sees.

use crate::cluster::{BYTES_PER_SCAN_TASK, MAX_PARALLELISM};
use rustc_hash::FxHashMap;
use scope_ir::physical::{Partitioning, PhysicalOp, PhysicalPlan};
use scope_ir::NodeId;

/// Ground-truth work of one stage (totals across all its vertices).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageWork {
    /// CPU work units.
    pub cpu: f64,
    /// Bytes read (base inputs + exchange reads).
    pub read: f64,
    /// Bytes written (outputs + exchange writes charged to the producer).
    pub written: f64,
    /// Peak working-set bytes (hash builds, aggregation tables).
    pub memory: f64,
}

/// One stage: a pipeline of operators executed by `parallelism` vertices.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Plan nodes fused into this stage.
    pub members: Vec<NodeId>,
    /// Producer stages this stage consumes (via exchanges).
    pub inputs: Vec<usize>,
    pub parallelism: u32,
    pub work: StageWork,
}

/// The stage DAG of a physical plan.
#[derive(Debug, Clone)]
pub struct StageGraph {
    pub stages: Vec<Stage>,
}

impl StageGraph {
    /// Total vertices of the job.
    #[must_use]
    pub fn vertices(&self) -> u64 {
        self.stages.iter().map(|s| u64::from(s.parallelism)).sum()
    }

    /// Peak concurrent containers ≈ the widest stage.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| u64::from(s.parallelism))
            .max()
            .unwrap_or(0)
    }

    /// Build the stage graph of a plan. Stages are maximal regions connected
    /// by non-exchange edges; each Exchange node joins its *consumer's*
    /// stage (it models the read side of the shuffle), while its child stays
    /// in the producer stage. The graph depends on the plan alone (the
    /// hardware model is constant), which is what lets one memoized graph
    /// serve every cluster.
    #[must_use]
    pub fn build(plan: &PhysicalPlan) -> StageGraph {
        let order = plan.topo_order();
        // Union-find over arena slots.
        let mut parent: Vec<usize> = (0..plan.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        };
        for &id in &order {
            let node = plan.node(id);
            let id_is_exchange = node.op.is_stage_boundary();
            for &c in &node.children {
                let child_is_exchange = plan.node(c).op.is_stage_boundary();
                if child_is_exchange {
                    // consumer(id) <- exchange(c): same stage.
                    union(&mut parent, id.index(), c.index());
                } else if !id_is_exchange {
                    // plain edge: fuse.
                    union(&mut parent, id.index(), c.index());
                }
                // exchange(id) <- producer(c): cut (producer stage ends).
            }
        }

        // Collect stages in deterministic order of their root slot.
        let mut stage_of: FxHashMap<usize, usize> = FxHashMap::default();
        let mut stages: Vec<Stage> = Vec::new();
        for &id in &order {
            let root = find(&mut parent, id.index());
            let sid = *stage_of.entry(root).or_insert_with(|| {
                stages.push(Stage {
                    members: Vec::new(),
                    inputs: Vec::new(),
                    parallelism: 1,
                    work: StageWork::default(),
                });
                stages.len() - 1
            });
            stages[sid].members.push(id);
        }

        // Stage DAG edges: producer-of-exchange -> stage-of-exchange.
        let mut node_stage: FxHashMap<usize, usize> = FxHashMap::default();
        for (sid, s) in stages.iter().enumerate() {
            for m in &s.members {
                node_stage.insert(m.index(), sid);
            }
        }
        for &id in &order {
            if plan.node(id).op.is_stage_boundary() {
                let consumer = node_stage[&id.index()];
                let producer = node_stage[&plan.node(id).children[0].index()];
                if producer != consumer && !stages[consumer].inputs.contains(&producer) {
                    stages[consumer].inputs.push(producer);
                }
            }
        }

        // Parallelism and work.
        #[allow(clippy::needless_range_loop)] // sid also indexes node_stage lookups
        for sid in 0..stages.len() {
            let mut parallelism: u32 = 1;
            let mut work = StageWork::default();
            for &m in &stages[sid].members.clone() {
                let node = plan.node(m);
                match &node.op {
                    PhysicalOp::Exchange { scheme } => {
                        // Consumer-side parallelism from the exchange.
                        match scheme {
                            Partitioning::Hash { partitions, .. }
                            | Partitioning::Range { partitions, .. } => {
                                parallelism = parallelism.max(*partitions);
                            }
                            Partitioning::Broadcast | Partitioning::Gather => {}
                        }
                        // Bytes moved (already includes the exchange node's
                        // actual io tuning, e.g. realized compression).
                        let bytes = node.stats.actual_bytes() * node.tuning.io_mult;
                        let replication = match scheme {
                            Partitioning::Broadcast => 8.0,
                            _ => 1.0,
                        };
                        work.read += bytes * replication;
                        // The write side is charged to the producer stage in
                        // a separate pass below.
                    }
                    PhysicalOp::TableScan { .. } => {
                        let bytes = node.stats.actual_bytes() * node.tuning.io_mult;
                        work.read += bytes;
                        let scan_par = (bytes / BYTES_PER_SCAN_TASK).ceil().max(1.0) as u32;
                        parallelism = parallelism
                            .max(scan_par.min(MAX_PARALLELISM))
                            .max(
                                (scan_par as f64 * node.tuning.parallelism_mult)
                                    .round()
                                    .max(1.0) as u32,
                            )
                            .min(MAX_PARALLELISM);
                    }
                    PhysicalOp::OutputExec { .. } => {
                        work.written += node.stats.actual_bytes() * node.tuning.io_mult;
                        work.cpu += node.stats.rows.actual * 0.1 * node.tuning.cpu_mult;
                    }
                    op => {
                        let (cpu, mem) = op_true_work(op, plan, m);
                        work.cpu += cpu * node.tuning.cpu_mult;
                        work.memory = work.memory.max(mem);
                    }
                }
            }
            stages[sid].parallelism = parallelism.min(MAX_PARALLELISM);
            stages[sid].work.cpu += work.cpu;
            stages[sid].work.read += work.read;
            stages[sid].work.written += work.written;
            stages[sid].work.memory = stages[sid].work.memory.max(work.memory);
        }

        // Exchange write side charged to producer stages.
        for &id in &order {
            let node = plan.node(id);
            if let PhysicalOp::Exchange { .. } = &node.op {
                let bytes = node.stats.actual_bytes() * node.tuning.io_mult;
                let producer = node_stage[&node.children[0].index()];
                stages[producer].work.written += bytes;
            }
        }

        StageGraph { stages }
    }
}

/// Ground-truth CPU work units and working-set bytes of one operator
/// (mirrors the cost model formulas, but on the actual statistics).
fn op_true_work(op: &PhysicalOp, plan: &PhysicalPlan, id: NodeId) -> (f64, f64) {
    let node = plan.node(id);
    let out = &node.stats;
    let child = |i: usize| -> f64 {
        node.children
            .get(i)
            .map_or(0.0, |c| plan.node(*c).stats.rows.actual)
    };
    let child_bytes = |i: usize| -> f64 {
        node.children
            .get(i)
            .map_or(0.0, |c| plan.node(*c).stats.actual_bytes())
    };
    match op {
        PhysicalOp::FilterExec { predicate } => (child(0) * predicate.cpu_weight().max(0.1), 0.0),
        PhysicalOp::ProjectExec { exprs } => {
            let w: f64 = exprs
                .iter()
                .map(|(e, _)| e.cpu_weight())
                .sum::<f64>()
                .max(0.1);
            (child(0) * w * 0.5, 0.0)
        }
        PhysicalOp::HashJoin { .. } => (
            child(1) * 1.5 + child(0) * 1.0 + out.rows.actual * 0.3,
            child_bytes(1),
        ),
        PhysicalOp::MergeJoin { .. } => ((child(0) + child(1)) * 0.7 + out.rows.actual * 0.3, 0.0),
        PhysicalOp::BroadcastJoin { .. } => (
            child(1) * 1.5 + child(0) * 1.0 + out.rows.actual * 0.3,
            child_bytes(1),
        ),
        PhysicalOp::HashAggregate { .. } => {
            (child(0) * 1.2 + out.rows.actual * 0.5, out.actual_bytes())
        }
        PhysicalOp::StreamAggregate { .. } => (child(0) * 0.6 + out.rows.actual * 0.3, 0.0),
        PhysicalOp::SortExec { .. } => {
            let n = child(0).max(2.0);
            (n * n.log2() * 0.25, child_bytes(0) * 0.2)
        }
        PhysicalOp::TopNExec { .. } => (child(0) * 0.4, 0.0),
        PhysicalOp::WindowExec { .. } => (child(0) * 1.5, child_bytes(0) * 0.1),
        PhysicalOp::ProcessExec { cpu_factor, .. } => (child(0) * 2.0 * cpu_factor, 0.0),
        PhysicalOp::UnionAllExec => (0.0, 0.0),
        // Scan/Output/Exchange handled by the caller.
        _ => (0.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_lang::{bind_script, Catalog};
    use scope_opt::Optimizer;

    fn compiled_plan(src: &str) -> PhysicalPlan {
        let plan = bind_script(src, &Catalog::default()).unwrap();
        let opt = Optimizer::default();
        std::sync::Arc::unwrap_or_clone(opt.compile(&plan, &opt.default_config()).unwrap().physical)
    }

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        j     = SELECT * FROM sales AS s JOIN users AS u ON s.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
    "#;

    #[test]
    fn stage_graph_has_multiple_stages_for_distributed_plan() {
        let plan = compiled_plan(SCRIPT);
        let g = StageGraph::build(&plan);
        assert!(
            g.stages.len() >= 2,
            "join+agg plan must cross stages: {}",
            g.stages.len()
        );
        // Stage DAG edges exist.
        assert!(g.stages.iter().any(|s| !s.inputs.is_empty()));
    }

    #[test]
    fn every_node_is_in_exactly_one_stage() {
        let plan = compiled_plan(SCRIPT);
        let g = StageGraph::build(&plan);
        let mut seen = std::collections::HashSet::new();
        for s in &g.stages {
            for m in &s.members {
                assert!(seen.insert(*m), "node {m} in two stages");
            }
        }
        assert_eq!(seen.len(), plan.topo_order().len());
    }

    #[test]
    fn vertices_and_tokens_are_positive_and_consistent() {
        let plan = compiled_plan(SCRIPT);
        let g = StageGraph::build(&plan);
        assert!(g.vertices() >= g.stages.len() as u64);
        assert!(g.tokens() <= g.vertices());
        assert!(g.tokens() >= 1);
    }

    #[test]
    fn work_profile_accounts_reads_and_writes() {
        let plan = compiled_plan(SCRIPT);
        let g = StageGraph::build(&plan);
        let total_read: f64 = g.stages.iter().map(|s| s.work.read).sum();
        let total_written: f64 = g.stages.iter().map(|s| s.work.written).sum();
        assert!(total_read > 0.0, "scans read data");
        assert!(total_written > 0.0, "outputs and shuffles write data");
        let total_cpu: f64 = g.stages.iter().map(|s| s.work.cpu).sum();
        assert!(total_cpu > 0.0);
    }

    #[test]
    fn stage_graph_is_deterministic() {
        let plan = compiled_plan(SCRIPT);
        let a = StageGraph::build(&plan);
        let b = StageGraph::build(&plan);
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(b.stages.iter()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.work, y.work);
        }
    }

    #[test]
    fn bigger_inputs_mean_more_scan_parallelism() {
        let mut catalog = Catalog::default();
        catalog.register(
            "store/sales",
            scope_lang::TableInfo {
                rows: scope_ir::stats::DualStats::exact(5e8),
            },
        );
        let src = r#"
            sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
            OUTPUT sales TO "out/all";
        "#;
        let small = {
            let plan = bind_script(src, &Catalog::default()).unwrap();
            let opt = Optimizer::default();
            let c = opt.compile(&plan, &opt.default_config()).unwrap();
            StageGraph::build(&c.physical).vertices()
        };
        let big = {
            let plan = bind_script(src, &catalog).unwrap();
            let opt = Optimizer::default();
            let c = opt.compile(&plan, &opt.default_config()).unwrap();
            StageGraph::build(&c.physical).vertices()
        };
        assert!(big > small, "big {big} vs small {small}");
    }
}
