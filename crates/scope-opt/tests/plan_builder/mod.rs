//! The proptest plan builder of the optimizer's integration suite
//! (`proptest_opt.rs`): a stack-machine recipe tuned to produce
//! optimizer-interesting shapes.

use proptest::prelude::*;
use scope_ir::expr::{AggExpr, AggFunc, BinOp, ScalarExpr};
use scope_ir::logical::{JoinKind, LogicalOp, LogicalPlan, SortKey, TableRef};
use scope_ir::schema::{Column, DataType, Schema};
use scope_ir::stats::DualStats;
use scope_ir::NodeId;

/// Plan-building recipe (mirrors the IR proptest builder).
#[derive(Debug, Clone)]
pub enum Step {
    Scan { rows: f64, est_factor: f64 },
    Filter { sel: f64, est_sel: f64 },
    Join { sel: f64 },
    Aggregate { ratio: f64 },
    Top { k: u64 },
    Union,
}

pub fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => ((1e3f64..1e9), (0.2f64..5.0))
            .prop_map(|(rows, est_factor)| Step::Scan { rows, est_factor }),
        3 => ((0.001f64..1.0), (0.001f64..1.0))
            .prop_map(|(sel, est_sel)| Step::Filter { sel, est_sel }),
        2 => (1e-9f64..1e-3).prop_map(|sel| Step::Join { sel }),
        2 => (1e-4f64..0.5).prop_map(|ratio| Step::Aggregate { ratio }),
        1 => (1u64..500).prop_map(|k| Step::Top { k }),
        1 => Just(Step::Union),
    ]
}

pub fn build(steps: &[Step]) -> LogicalPlan {
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("v", DataType::Float),
    ]);
    let mut plan = LogicalPlan::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut scans = 0;
    for s in steps {
        match s {
            Step::Scan { rows, est_factor } => {
                scans += 1;
                let t = TableRef::new(
                    format!("t{scans}"),
                    schema.clone(),
                    DualStats::new(*rows, rows * est_factor),
                );
                stack.push(plan.add(LogicalOp::Extract { table: t }, vec![]));
            }
            Step::Filter { sel, est_sel } => {
                if let Some(c) = stack.pop() {
                    let pred =
                        ScalarExpr::binary(BinOp::Gt, ScalarExpr::col(0), ScalarExpr::lit_int(7));
                    stack.push(plan.add(
                        LogicalOp::Filter {
                            predicate: pred,
                            selectivity: DualStats::new(*sel, *est_sel),
                        },
                        vec![c],
                    ));
                }
            }
            Step::Join { sel } => {
                if stack.len() >= 2 {
                    let r = stack.pop().unwrap();
                    let l = stack.pop().unwrap();
                    stack.push(plan.add(
                        LogicalOp::Join {
                            kind: JoinKind::Inner,
                            on: vec![(0, 0)],
                            selectivity: DualStats::exact(*sel),
                        },
                        vec![l, r],
                    ));
                }
            }
            Step::Aggregate { ratio } => {
                if let Some(c) = stack.pop() {
                    stack.push(plan.add(
                        LogicalOp::Aggregate {
                            group_by: vec![0],
                            aggs: vec![AggExpr::new(AggFunc::Sum, Some(1), "s")],
                            group_ratio: DualStats::exact(*ratio),
                        },
                        vec![c],
                    ));
                }
            }
            Step::Top { k } => {
                if let Some(c) = stack.pop() {
                    stack.push(plan.add(
                        LogicalOp::Top {
                            k: *k,
                            keys: vec![SortKey::desc(0)],
                        },
                        vec![c],
                    ));
                }
            }
            Step::Union => {
                if stack.len() >= 2 {
                    // Union requires equal widths; both sides carry the base
                    // 3-wide schema only when untouched — guard on widths.
                    let schemas = plan.schemas();
                    let r = *stack.last().unwrap();
                    let l = stack[stack.len() - 2];
                    if schemas[l.index()].len() == schemas[r.index()].len() {
                        let r = stack.pop().unwrap();
                        let l = stack.pop().unwrap();
                        stack.push(plan.add(LogicalOp::Union, vec![l, r]));
                    }
                }
            }
        }
    }
    if stack.is_empty() {
        let t = TableRef::new("t0", schema, DualStats::exact(1000.0));
        stack.push(plan.add(LogicalOp::Extract { table: t }, vec![]));
    }
    for (i, node) in stack.into_iter().enumerate() {
        plan.add_output(format!("o{i}"), node);
    }
    plan
}
