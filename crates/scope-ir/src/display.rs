//! Human-readable plan rendering: `EXPLAIN`-style trees with operator
//! details and statistics, used by examples, error messages, and tests.

use crate::dag::{Dag, PlanNode};
use crate::logical::{LogicalOp, LogicalPlan};
use crate::physical::{PhysicalOp, PhysicalPlan};
use std::fmt::Write as _;

/// Render a plan as an indented multi-output tree, one
/// `tag [id] <detail>` line per node. Shared sub-DAG nodes are printed once
/// per path (tree view), with their arena ids so sharing remains visible.
fn explain<N: PlanNode>(plan: &Dag<N>, detail: impl Fn(&N) -> String) -> String {
    let mut out = String::new();
    for (i, &root) in plan.outputs().iter().enumerate() {
        let _ = writeln!(out, "== output {i} ==");
        let mut stack = vec![(root, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            let node = plan.node(id);
            let _ = writeln!(
                out,
                "{:indent$}{} [{}] {}",
                "",
                node.tag(),
                id,
                detail(node),
                indent = depth * 2
            );
            stack.extend(node.children().iter().rev().map(|&c| (c, depth + 1)));
        }
    }
    out
}

/// Render a logical plan with operator details.
#[must_use]
pub fn explain_logical(plan: &LogicalPlan) -> String {
    explain(plan, |node| match &node.op {
        LogicalOp::Extract { table } => format!(
            "{} rows≈{:.0}/{:.0}",
            table.name, table.rows.actual, table.rows.estimated
        ),
        LogicalOp::Filter {
            predicate,
            selectivity,
        } => {
            format!(
                "{predicate} sel={:.3}/{:.3}",
                selectivity.actual, selectivity.estimated
            )
        }
        LogicalOp::Project { exprs } => format!("{} cols", exprs.len()),
        LogicalOp::Join {
            kind,
            on,
            selectivity,
        } => {
            format!(
                "{} on={on:?} sel={:.2e}",
                kind.name(),
                selectivity.estimated
            )
        }
        LogicalOp::Aggregate { group_by, aggs, .. } => {
            format!("by={group_by:?} aggs={}", aggs.len())
        }
        LogicalOp::Union => String::new(),
        LogicalOp::Sort { keys } => format!("{} keys", keys.len()),
        LogicalOp::Top { k, .. } => format!("k={k}"),
        LogicalOp::Window {
            partition_by,
            funcs,
        } => {
            format!("by={partition_by:?} funcs={}", funcs.len())
        }
        LogicalOp::Process {
            udf, cpu_factor, ..
        } => format!("{udf} cpu×{cpu_factor:.1}"),
        LogicalOp::Output { path } => path.to_string(),
    })
}

/// Render a physical plan with stage-boundary markers, per-node estimated
/// rows, and any non-identity tuning knobs.
#[must_use]
pub fn explain_physical(plan: &PhysicalPlan) -> String {
    explain(plan, |node| {
        let detail = match &node.op {
            PhysicalOp::TableScan { table, variant } => format!("{table} ({variant:?})"),
            PhysicalOp::Exchange { scheme } => {
                format!(
                    "{} p={} <== stage boundary",
                    scheme.tag(),
                    scheme.partitions()
                )
            }
            PhysicalOp::HashJoin { kind, .. }
            | PhysicalOp::MergeJoin { kind, .. }
            | PhysicalOp::BroadcastJoin { kind, .. } => kind.name().to_string(),
            PhysicalOp::HashAggregate { mode, .. } | PhysicalOp::StreamAggregate { mode, .. } => {
                format!("{mode:?}")
            }
            PhysicalOp::TopNExec { k, .. } => format!("k={k}"),
            PhysicalOp::OutputExec { path } => path.to_string(),
            _ => String::new(),
        };
        let tuning = if node.tuning.is_identity() {
            String::new()
        } else {
            format!(
                " tune(cpu×{:.2},io×{:.2},par×{:.2})",
                node.tuning.cpu_mult, node.tuning.io_mult, node.tuning.parallelism_mult
            )
        };
        format!("{detail} rows≈{:.0}{tuning}", node.stats.rows.estimated)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use crate::logical::{LogicalOp, LogicalPlan, TableRef};
    use crate::schema::{Column, DataType, Schema};
    use crate::stats::DualStats;

    #[test]
    fn explain_logical_mentions_operators_and_stats() {
        let mut p = LogicalPlan::new();
        let t = TableRef::new(
            "clicks",
            Schema::new(vec![Column::new("a", DataType::Int)]),
            DualStats::new(1000.0, 1500.0),
        );
        let s = p.add(LogicalOp::Extract { table: t }, vec![]);
        let f = p.add(
            LogicalOp::Filter {
                predicate: ScalarExpr::binary(
                    crate::expr::BinOp::Gt,
                    ScalarExpr::col(0),
                    ScalarExpr::lit_int(3),
                ),
                selectivity: DualStats::new(0.2, 0.33),
            },
            vec![s],
        );
        p.add_output("result", f);
        let text = explain_logical(&p);
        assert!(text.contains("clicks"), "{text}");
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("sel=0.200/0.330"), "{text}");
        assert!(text.contains("== output 0 =="), "{text}");
    }
}
