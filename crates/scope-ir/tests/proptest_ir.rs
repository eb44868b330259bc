//! Property-based tests for plan IR invariants: any plan built bottom-up by
//! the random builder must validate, expose child-first topological order,
//! report each node's width as its schema's length, and keep template
//! identity invariant to literal values and cardinalities.

use proptest::prelude::*;
use scope_ir::expr::{AggExpr, AggFunc, BinOp, ScalarExpr};
use scope_ir::logical::{JoinKind, LogicalOp, LogicalPlan, SortKey, TableRef};
use scope_ir::schema::{Column, DataType, Schema};
use scope_ir::stats::DualStats;
use scope_ir::NodeId;

/// A recipe for building a random (but always well-formed) plan.
#[derive(Debug, Clone)]
enum Step {
    Scan { rows: f64 },
    Filter { lit: i64, sel: f64 },
    Project,
    Join { sel: f64 },
    Aggregate { ratio: f64 },
    Top { k: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1.0f64..1e7).prop_map(|rows| Step::Scan { rows }),
        ((-1000i64..1000), (0.001f64..1.0)).prop_map(|(lit, sel)| Step::Filter { lit, sel }),
        Just(Step::Project),
        (1e-6f64..0.01).prop_map(|sel| Step::Join { sel }),
        (0.0001f64..0.5).prop_map(|ratio| Step::Aggregate { ratio }),
        (1u64..1000).prop_map(|k| Step::Top { k }),
    ]
}

fn base_schema() -> Schema {
    Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("c", DataType::String { avg_len: 24 }),
    ])
}

/// Build a plan by folding steps over a stack of sub-plans, then wiring all
/// remaining stack entries to outputs. Mirrors how the workload generator
/// composes scripts, so properties proven here transfer.
fn build(steps: &[Step]) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut scans = 0u32;
    for step in steps {
        match step {
            Step::Scan { rows } => {
                scans += 1;
                let t = TableRef::new(
                    format!("t{scans}"),
                    base_schema(),
                    DualStats::new(*rows, rows * 1.3),
                );
                stack.push(plan.add(LogicalOp::Extract { table: t }, vec![]));
            }
            Step::Filter { lit, sel } => {
                if let Some(child) = stack.pop() {
                    let pred = ScalarExpr::binary(
                        BinOp::Gt,
                        ScalarExpr::col(0),
                        ScalarExpr::lit_int(*lit),
                    );
                    let node = plan.add(
                        LogicalOp::Filter {
                            predicate: pred,
                            selectivity: DualStats::new(*sel, (sel * 1.4).min(1.0)),
                        },
                        vec![child],
                    );
                    stack.push(node);
                }
            }
            Step::Project => {
                if let Some(child) = stack.pop() {
                    let node = plan.add(
                        LogicalOp::Project {
                            exprs: vec![
                                (ScalarExpr::col(0), "a".to_string()),
                                (ScalarExpr::col(1), "b".to_string()),
                            ],
                        },
                        vec![child],
                    );
                    stack.push(node);
                }
            }
            Step::Join { sel } => {
                if stack.len() >= 2 {
                    let r = stack.pop().unwrap();
                    let l = stack.pop().unwrap();
                    let node = plan.add(
                        LogicalOp::Join {
                            kind: JoinKind::Inner,
                            on: vec![(0, 0)],
                            selectivity: DualStats::exact(*sel),
                        },
                        vec![l, r],
                    );
                    stack.push(node);
                }
            }
            Step::Aggregate { ratio } => {
                if let Some(child) = stack.pop() {
                    let node = plan.add(
                        LogicalOp::Aggregate {
                            group_by: vec![0],
                            aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                            group_ratio: DualStats::exact(*ratio),
                        },
                        vec![child],
                    );
                    stack.push(node);
                }
            }
            Step::Top { k } => {
                if let Some(child) = stack.pop() {
                    let node = plan.add(
                        LogicalOp::Top {
                            k: *k,
                            keys: vec![SortKey::asc(0)],
                        },
                        vec![child],
                    );
                    stack.push(node);
                }
            }
        }
    }
    if stack.is_empty() {
        let t = TableRef::new("fallback", base_schema(), DualStats::exact(10.0));
        stack.push(plan.add(LogicalOp::Extract { table: t }, vec![]));
    }
    for (i, node) in stack.into_iter().enumerate() {
        plan.add_output(format!("out{i}"), node);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_plans_validate(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let plan = build(&steps);
        prop_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
    }

    #[test]
    fn topo_order_is_child_first(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let plan = build(&steps);
        let order = plan.topo_order();
        let mut seen = vec![false; plan.len()];
        for id in &order {
            for c in &plan.node(*id).children {
                prop_assert!(seen[c.index()], "child {c} after parent {id}");
            }
            seen[id.index()] = true;
        }
    }

    #[test]
    fn schemas_cover_every_node(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let plan = build(&steps);
        prop_assert_eq!(plan.schemas().len(), plan.len());
        // Every reachable node has a non-empty schema except none (all ops
        // here produce at least one column).
        for id in plan.topo_order() {
            prop_assert!(!plan.schemas()[id.index()].is_empty());
        }
    }

    #[test]
    fn widths_are_the_schema_lengths(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let plan = build(&steps);
        let schemas = plan.schemas();
        let widths = plan.widths();
        prop_assert_eq!(widths.len(), schemas.len());
        for (i, (width, schema)) in widths.iter().zip(&schemas).enumerate() {
            prop_assert_eq!(*width, schema.len(), "node {}", i);
        }
    }

    #[test]
    fn row_lens_are_the_schema_row_lengths(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let plan = build(&steps);
        let want: Vec<u32> = plan.schemas().iter().map(Schema::avg_row_len).collect();
        prop_assert_eq!(plan.row_lens(), want);
    }

    #[test]
    fn template_id_ignores_literals(
        steps in prop::collection::vec(step_strategy(), 1..30),
        delta in 1i64..500,
    ) {
        let plan_a = build(&steps);
        let shifted: Vec<Step> = steps
            .iter()
            .map(|s| match s {
                Step::Filter { lit, sel } => Step::Filter { lit: lit + delta, sel: *sel },
                other => other.clone(),
            })
            .collect();
        let plan_b = build(&shifted);
        prop_assert_eq!(plan_a.template_id(), plan_b.template_id());
    }
}
