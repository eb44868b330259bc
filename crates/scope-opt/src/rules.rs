//! Logical→logical transformation rules.
//!
//! Each rule inspects one memo expression (and its children's expressions)
//! and returns zero or more rewrite trees ([`Node`]) whose leaves are
//! existing groups. The search materializes the trees back into the memo.
//! All rewrites are cardinality-preserving on the expression's output (the
//! memo group invariant); selectivities are redistributed so the dual
//! statistics stay consistent on both the true and estimated side.

use crate::memo::{GroupId, Memo, Node};
use crate::registry::TransformKind;
use scope_ir::expr::{BinOp, ScalarExpr};
use scope_ir::logical::{JoinKind, LogicalOp};
use scope_ir::stats::DualStats;

/// Apply `kind` to expression `eidx` of group `gid`, returning rewrite trees.
#[must_use]
pub fn apply_transform(kind: TransformKind, memo: &Memo, gid: GroupId, eidx: usize) -> Vec<Node> {
    let expr = &memo.group(gid).lexprs[eidx];
    match kind {
        TransformKind::FilterPushProject => filter_push_project(memo, gid, eidx),
        TransformKind::FilterPushJoinLeft => filter_push_join(memo, gid, eidx, true),
        TransformKind::FilterPushJoinRight => filter_push_join(memo, gid, eidx, false),
        TransformKind::FilterPushUnion => filter_push_union(memo, gid, eidx),
        TransformKind::FilterMerge => filter_merge(memo, gid, eidx),
        TransformKind::FilterPushAggregate => filter_push_aggregate(memo, gid, eidx),
        TransformKind::FilterPushSort => filter_push_sort(memo, gid, eidx),
        TransformKind::JoinAssocLeft => join_assoc_left(memo, gid, eidx),
        TransformKind::JoinAssocRight => join_assoc_right(memo, gid, eidx),
        TransformKind::ProjectMerge => project_merge(memo, gid, eidx),
        TransformKind::SortRemoveRedundant => sort_remove_redundant(memo, gid, eidx),
        TransformKind::TopSortFuse => top_sort_fuse(memo, gid, eidx),
        TransformKind::UnionFlatten => union_flatten(memo, gid, eidx),
        TransformKind::ProjectPushJoin => project_push_join(memo, gid, eidx),
        TransformKind::SemiJoinReduction => semi_join_reduction(memo, gid, eidx),
        TransformKind::FilterPushProcess => filter_push_process(memo, gid, eidx),
        TransformKind::TopPushUnion => top_push_union(memo, gid, eidx),
        TransformKind::ProjectThroughUnion => project_through_union(memo, gid, eidx),
    }
    .unwrap_or_default()
    .into_iter()
    .filter(|n| matches!(n, Node::Op(..)))
    .inspect(|_| {
        debug_assert!(!expr.children.is_empty() || matches!(expr.op, LogicalOp::Extract { .. }))
    })
    .collect()
}

/// The (op, children) of an expression, borrowed: a rule whose root does
/// not match returns before anything is cloned, and one that does clones
/// only the fields that go into its rewrite.
fn expr_parts(memo: &Memo, gid: GroupId, eidx: usize) -> (&LogicalOp, &[GroupId]) {
    let e = &memo.group(gid).lexprs[eidx];
    (&e.op, &e.children)
}

/// The (predicate, selectivity, input group) of a `Filter` expression — the
/// root every filter-pushdown rule matches — or `None` for any other root.
fn filter_parts(
    memo: &Memo,
    gid: GroupId,
    eidx: usize,
) -> Option<(&ScalarExpr, DualStats, GroupId)> {
    match expr_parts(memo, gid, eidx) {
        (
            LogicalOp::Filter {
                predicate,
                selectivity,
            },
            children,
        ) => Some((predicate, *selectivity, children[0])),
        _ => None,
    }
}

fn width(memo: &Memo, g: GroupId) -> usize {
    memo.group(g).schema.len()
}

fn filter_push_project(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Project { exprs } = &ce.op else {
            continue;
        };
        // The predicate can move below the projection iff every referenced
        // output column is a pure column reference.
        let mut cols = Vec::new();
        predicate.collect_columns(&mut cols);
        let mapping: Option<Vec<(usize, usize)>> = cols
            .iter()
            .map(|&c| match exprs.get(c).map(|(e, _)| e) {
                Some(ScalarExpr::Column(j)) => Some((c, *j)),
                _ => None,
            })
            .collect();
        let Some(mapping) = mapping else { continue };
        let remapped = predicate.remap_columns(&|i| {
            mapping
                .iter()
                .find(|(from, _)| *from == i)
                .map_or(i, |(_, to)| *to)
        });
        out.push(Node::Op(
            LogicalOp::Project {
                exprs: exprs.clone(),
            },
            vec![Node::Op(
                LogicalOp::Filter {
                    predicate: remapped,
                    selectivity,
                },
                vec![Node::Group(ce.children[0])],
            )],
        ));
    }
    Some(out)
}

fn filter_push_join(memo: &Memo, gid: GroupId, eidx: usize, left: bool) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Join {
            kind,
            on,
            selectivity: jsel,
        } = &ce.op
        else {
            continue;
        };
        let lw = width(memo, ce.children[0]);
        let mut cols = Vec::new();
        predicate.collect_columns(&mut cols);
        if left {
            // Left push is valid for all our join kinds.
            if !cols.iter().all(|&c| c < lw) {
                continue;
            }
            out.push(Node::Op(
                LogicalOp::Join {
                    kind: *kind,
                    on: on.clone(),
                    selectivity: *jsel,
                },
                vec![
                    Node::Op(
                        LogicalOp::Filter {
                            predicate: predicate.clone(),
                            selectivity,
                        },
                        vec![Node::Group(ce.children[0])],
                    ),
                    Node::Group(ce.children[1]),
                ],
            ));
        } else {
            // Right push only for inner joins (outer/semi change semantics).
            if *kind != JoinKind::Inner || !cols.iter().all(|&c| c >= lw) {
                continue;
            }
            let remapped = predicate.remap_columns(&|i| i - lw);
            out.push(Node::Op(
                LogicalOp::Join {
                    kind: *kind,
                    on: on.clone(),
                    selectivity: *jsel,
                },
                vec![
                    Node::Group(ce.children[0]),
                    Node::Op(
                        LogicalOp::Filter {
                            predicate: remapped,
                            selectivity,
                        },
                        vec![Node::Group(ce.children[1])],
                    ),
                ],
            ));
        }
    }
    Some(out)
}

fn filter_push_union(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        if !matches!(ce.op, LogicalOp::Union) {
            continue;
        }
        let branches: Vec<Node> = ce
            .children
            .iter()
            .map(|&c| {
                Node::Op(
                    LogicalOp::Filter {
                        predicate: predicate.clone(),
                        selectivity,
                    },
                    vec![Node::Group(c)],
                )
            })
            .collect();
        out.push(Node::Op(LogicalOp::Union, branches));
    }
    Some(out)
}

fn filter_merge(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Filter {
            predicate: inner,
            selectivity: s2,
        } = &ce.op
        else {
            continue;
        };
        let merged = ScalarExpr::binary(BinOp::And, predicate.clone(), inner.clone());
        out.push(Node::Op(
            LogicalOp::Filter {
                predicate: merged,
                selectivity: DualStats::new(
                    selectivity.actual * s2.actual,
                    selectivity.estimated * s2.estimated,
                ),
            },
            vec![Node::Group(ce.children[0])],
        ));
    }
    Some(out)
}

fn filter_push_aggregate(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Aggregate {
            group_by,
            aggs,
            group_ratio,
        } = &ce.op
        else {
            continue;
        };
        let mut cols = Vec::new();
        predicate.collect_columns(&mut cols);
        // Only predicates over grouping keys (output positions < |group_by|)
        // commute with the aggregation.
        if !cols.iter().all(|&c| c < group_by.len()) {
            continue;
        }
        let remapped = predicate.remap_columns(&|i| group_by[i]);
        out.push(Node::Op(
            LogicalOp::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                group_ratio: *group_ratio,
            },
            vec![Node::Op(
                LogicalOp::Filter {
                    predicate: remapped,
                    selectivity,
                },
                vec![Node::Group(ce.children[0])],
            )],
        ));
    }
    Some(out)
}

fn filter_push_sort(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Sort { keys } = &ce.op else {
            continue;
        };
        out.push(Node::Op(
            LogicalOp::Sort { keys: keys.clone() },
            vec![Node::Op(
                LogicalOp::Filter {
                    predicate: predicate.clone(),
                    selectivity,
                },
                vec![Node::Group(ce.children[0])],
            )],
        ));
    }
    Some(out)
}

fn join_assoc_left(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Join {
        kind: JoinKind::Inner,
        on: on2,
        selectivity: s2,
    } = op
    else {
        return None;
    };
    let (lg, cg) = (children[0], children[1]);
    let mut out = Vec::new();
    for ce in &memo.group(lg).lexprs {
        let LogicalOp::Join {
            kind: JoinKind::Inner,
            on: on1,
            selectivity: s1,
        } = &ce.op
        else {
            continue;
        };
        let (ag, bg) = (ce.children[0], ce.children[1]);
        let aw = width(memo, ag);
        let bw = width(memo, bg);
        // Partition the top join's conditions between A-vs-C (stay on the
        // new outer join) and B-vs-C (move to the new inner join).
        let mut inner_on = Vec::new();
        let mut outer_extra = Vec::new();
        for &(l, r) in on2 {
            if l < aw {
                outer_extra.push((l, bw + r));
            } else {
                inner_on.push((l - aw, r));
            }
        }
        if inner_on.is_empty() {
            continue; // would create a cross join between B and C
        }
        let mut outer_on = on1.clone();
        outer_on.extend(outer_extra);
        let inner = Node::Op(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: inner_on,
                selectivity: *s2,
            },
            vec![Node::Group(bg), Node::Group(cg)],
        );
        out.push(Node::Op(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: outer_on,
                selectivity: *s1,
            },
            vec![Node::Group(ag), inner],
        ));
    }
    Some(out)
}

fn join_assoc_right(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Join {
        kind: JoinKind::Inner,
        on: on2,
        selectivity: s2,
    } = op
    else {
        return None;
    };
    let (ag, rg) = (children[0], children[1]);
    let aw = width(memo, ag);
    let mut out = Vec::new();
    for ce in &memo.group(rg).lexprs {
        let LogicalOp::Join {
            kind: JoinKind::Inner,
            on: on1,
            selectivity: s1,
        } = &ce.op
        else {
            continue;
        };
        let (bg, cg) = (ce.children[0], ce.children[1]);
        let bw = width(memo, bg);
        let mut inner_on = Vec::new();
        let mut outer_extra = Vec::new();
        for &(l, r) in on2 {
            if r < bw {
                inner_on.push((l, r)); // A vs B
            } else {
                outer_extra.push((l, r - bw)); // A vs C, in the new outer
            }
        }
        if inner_on.is_empty() {
            continue;
        }
        let mut outer_on: Vec<(usize, usize)> = on1.iter().map(|&(l, r)| (aw + l, r)).collect();
        outer_on.extend(outer_extra);
        let inner = Node::Op(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: inner_on,
                selectivity: *s2,
            },
            vec![Node::Group(ag), Node::Group(bg)],
        );
        out.push(Node::Op(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: outer_on,
                selectivity: *s1,
            },
            vec![inner, Node::Group(cg)],
        ));
    }
    Some(out)
}

/// Substitute inner projection expressions into an outer expression.
fn substitute(expr: &ScalarExpr, inner: &[(ScalarExpr, String)]) -> ScalarExpr {
    match expr {
        ScalarExpr::Column(i) => inner
            .get(*i)
            .map_or_else(|| expr.clone(), |(e, _)| e.clone()),
        ScalarExpr::Literal(_) => expr.clone(),
        ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
            op: *op,
            left: Box::new(substitute(left, inner)),
            right: Box::new(substitute(right, inner)),
        },
        ScalarExpr::Udf {
            name,
            args,
            cpu_factor,
        } => ScalarExpr::Udf {
            name: name.clone(),
            args: args.iter().map(|a| substitute(a, inner)).collect(),
            cpu_factor: *cpu_factor,
        },
    }
}

fn project_merge(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Project { exprs } = op else {
        return None;
    };
    let child = children[0];
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Project { exprs: inner } = &ce.op else {
            continue;
        };
        let merged: Vec<(ScalarExpr, String)> = exprs
            .iter()
            .map(|(e, alias)| (substitute(e, inner), alias.clone()))
            .collect();
        out.push(Node::Op(
            LogicalOp::Project { exprs: merged },
            vec![Node::Group(ce.children[0])],
        ));
    }
    Some(out)
}

fn sort_remove_redundant(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Sort { keys } = op else {
        return None;
    };
    let child = children[0];
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        if !matches!(ce.op, LogicalOp::Sort { .. }) {
            continue;
        }
        out.push(Node::Op(
            LogicalOp::Sort { keys: keys.clone() },
            vec![Node::Group(ce.children[0])],
        ));
    }
    Some(out)
}

fn top_sort_fuse(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let &LogicalOp::Top { k, ref keys } = op else {
        return None;
    };
    let child = children[0];
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        if !matches!(ce.op, LogicalOp::Sort { .. }) {
            continue;
        }
        out.push(Node::Op(
            LogicalOp::Top {
                k,
                keys: keys.clone(),
            },
            vec![Node::Group(ce.children[0])],
        ));
    }
    Some(out)
}

fn union_flatten(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    if !matches!(op, LogicalOp::Union) {
        return None;
    }
    // Splice the first nested union found (repeated application flattens
    // deeper nestings).
    for (i, &c) in children.iter().enumerate() {
        for ce in &memo.group(c).lexprs {
            if !matches!(ce.op, LogicalOp::Union) {
                continue;
            }
            let mut new_children: Vec<Node> = Vec::with_capacity(children.len() + 1);
            for (j, &other) in children.iter().enumerate() {
                if j == i {
                    new_children.extend(ce.children.iter().map(|&g| Node::Group(g)));
                } else {
                    new_children.push(Node::Group(other));
                }
            }
            return Some(vec![Node::Op(LogicalOp::Union, new_children)]);
        }
    }
    Some(vec![])
}

fn project_push_join(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Project { exprs } = op else {
        return None;
    };
    let child = children[0];
    // All projection expressions must be pure columns for positional
    // pruning.
    let used: Option<Vec<usize>> = exprs
        .iter()
        .map(|(e, _)| match e {
            ScalarExpr::Column(i) => Some(*i),
            _ => None,
        })
        .collect();
    let used = used?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Join {
            kind: JoinKind::Inner,
            on,
            selectivity,
        } = &ce.op
        else {
            continue;
        };
        let (lg, rg) = (ce.children[0], ce.children[1]);
        let (lw, rw) = (width(memo, lg), width(memo, rg));
        // Needed = projected columns plus join keys.
        let mut left_keep: Vec<usize> = Vec::new();
        let mut right_keep: Vec<usize> = Vec::new();
        let mut keep = |c: usize| {
            if c < lw {
                if !left_keep.contains(&c) {
                    left_keep.push(c);
                }
            } else if !right_keep.contains(&(c - lw)) {
                right_keep.push(c - lw);
            }
        };
        for &c in &used {
            keep(c);
        }
        for &(l, r) in on {
            keep(l);
            keep(lw + r);
        }
        left_keep.sort_unstable();
        right_keep.sort_unstable();
        if left_keep.len() == lw && right_keep.len() == rw {
            continue; // nothing to prune
        }
        let lschema = &memo.group(lg).schema;
        let rschema = &memo.group(rg).schema;
        let side_project = |keep: &[usize], schema: &scope_ir::Schema, g: GroupId| {
            Node::Op(
                LogicalOp::Project {
                    exprs: keep
                        .iter()
                        .map(|&c| {
                            (
                                ScalarExpr::Column(c),
                                schema
                                    .column(c)
                                    .map_or_else(|| format!("c{c}"), |col| col.name.to_string()),
                            )
                        })
                        .collect(),
                },
                vec![Node::Group(g)],
            )
        };
        // Every projected column and join key was kept above, so each
        // lookup below finds its column.
        let new_on: Vec<(usize, usize)> = on
            .iter()
            .map(|&(l, r)| {
                Some((
                    left_keep.iter().position(|&c| c == l)?,
                    right_keep.iter().position(|&c| c == r)?,
                ))
            })
            .collect::<Option<_>>()?;
        let remap = |c: usize| {
            if c < lw {
                left_keep.iter().position(|&k| k == c)
            } else {
                Some(left_keep.len() + right_keep.iter().position(|&k| k == c - lw)?)
            }
        };
        let new_exprs: Vec<(ScalarExpr, String)> = used
            .iter()
            .zip(exprs)
            .map(|(&c, (_, alias))| Some((ScalarExpr::Column(remap(c)?), alias.clone())))
            .collect::<Option<_>>()?;
        out.push(Node::Op(
            LogicalOp::Project { exprs: new_exprs },
            vec![Node::Op(
                LogicalOp::Join {
                    kind: JoinKind::Inner,
                    on: new_on,
                    selectivity: *selectivity,
                },
                vec![
                    side_project(&left_keep, lschema, lg),
                    side_project(&right_keep, rschema, rg),
                ],
            )],
        ));
    }
    Some(out)
}

fn semi_join_reduction(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Join {
        kind: JoinKind::Inner,
        on,
        selectivity,
    } = op
    else {
        return None;
    };
    let (lg, rg) = (children[0], children[1]);
    // Guard: do not re-reduce an already semi-reduced left side.
    let already = memo.group(lg).lexprs.iter().any(|e| {
        matches!(
            e.op,
            LogicalOp::Join {
                kind: JoinKind::LeftSemi,
                ..
            }
        )
    });
    if already {
        return Some(vec![]);
    }
    let r_stats = memo.group(rg).stats;
    // Residual selectivity keeps |out| invariant: the semi-filtered left has
    // l*min(1, sel*r) rows, so the outer join needs sel/min(1, sel*r).
    let residual = |sel: f64, r_rows: f64| {
        let p = (sel * r_rows).clamp(1e-12, 1.0);
        (sel / p).min(1.0)
    };
    let new_sel = DualStats::new(
        residual(selectivity.actual, r_stats.rows.actual),
        residual(selectivity.estimated, r_stats.rows.estimated),
    );
    let semi = Node::Op(
        LogicalOp::Join {
            kind: JoinKind::LeftSemi,
            on: on.clone(),
            selectivity: *selectivity,
        },
        vec![Node::Group(lg), Node::Group(rg)],
    );
    Some(vec![Node::Op(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            on: on.clone(),
            selectivity: new_sel,
        },
        vec![semi, Node::Group(rg)],
    )])
}

fn filter_push_process(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (predicate, selectivity, child) = filter_parts(memo, gid, eidx)?;
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        let LogicalOp::Process {
            udf,
            cpu_factor,
            out_ratio,
        } = &ce.op
        else {
            continue;
        };
        out.push(Node::Op(
            LogicalOp::Process {
                udf: udf.clone(),
                cpu_factor: *cpu_factor,
                out_ratio: *out_ratio,
            },
            vec![Node::Op(
                LogicalOp::Filter {
                    predicate: predicate.clone(),
                    selectivity,
                },
                vec![Node::Group(ce.children[0])],
            )],
        ));
    }
    Some(out)
}

fn top_push_union(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let &LogicalOp::Top { k, ref keys } = op else {
        return None;
    };
    let child = children[0];
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        if !matches!(ce.op, LogicalOp::Union) {
            continue;
        }
        // Guard against unbounded re-application on our own output.
        let child_is_top = ce.children.iter().any(|&c| {
            memo.group(c)
                .lexprs
                .iter()
                .any(|e| matches!(e.op, LogicalOp::Top { .. }))
        });
        if child_is_top {
            continue;
        }
        let branches: Vec<Node> = ce
            .children
            .iter()
            .map(|&c| {
                Node::Op(
                    LogicalOp::Top {
                        k,
                        keys: keys.clone(),
                    },
                    vec![Node::Group(c)],
                )
            })
            .collect();
        out.push(Node::Op(
            LogicalOp::Top {
                k,
                keys: keys.clone(),
            },
            vec![Node::Op(LogicalOp::Union, branches)],
        ));
    }
    Some(out)
}

fn project_through_union(memo: &Memo, gid: GroupId, eidx: usize) -> Option<Vec<Node>> {
    let (op, children) = expr_parts(memo, gid, eidx);
    let LogicalOp::Project { exprs } = op else {
        return None;
    };
    if exprs
        .iter()
        .any(|(e, _)| !matches!(e, ScalarExpr::Column(_)))
    {
        return None;
    }
    let child = children[0];
    let mut out = Vec::new();
    for ce in &memo.group(child).lexprs {
        if !matches!(ce.op, LogicalOp::Union) {
            continue;
        }
        let child_is_project = ce.children.iter().any(|&c| {
            memo.group(c)
                .lexprs
                .iter()
                .any(|e| matches!(e.op, LogicalOp::Project { .. }))
        });
        if child_is_project {
            continue;
        }
        let branches: Vec<Node> = ce
            .children
            .iter()
            .map(|&c| {
                Node::Op(
                    LogicalOp::Project {
                        exprs: exprs.clone(),
                    },
                    vec![Node::Group(c)],
                )
            })
            .collect();
        out.push(Node::Op(LogicalOp::Union, branches));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleBits;
    use scope_ir::expr::{AggExpr, AggFunc};
    use scope_ir::logical::{SortKey, TableRef};
    use scope_ir::schema::{Column, DataType, Schema};

    fn scan(memo: &mut Memo, name: &str, cols: usize, rows: f64) -> GroupId {
        let schema = Schema::new(
            (0..cols)
                .map(|i| Column::new(format!("{name}_{i}"), DataType::Int))
                .collect(),
        );
        memo.intern(
            LogicalOp::Extract {
                table: TableRef::new(name, schema, DualStats::exact(rows)),
            },
            vec![],
            RuleBits::empty(),
        )
    }

    fn filter_over(memo: &mut Memo, g: GroupId, col: usize) -> GroupId {
        memo.intern(
            LogicalOp::Filter {
                predicate: ScalarExpr::binary(
                    BinOp::Gt,
                    ScalarExpr::col(col),
                    ScalarExpr::lit_int(5),
                ),
                selectivity: DualStats::exact(0.3),
            },
            vec![g],
            RuleBits::empty(),
        )
    }

    #[test]
    fn filter_pushes_below_left_join_side() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let b = scan(&mut memo, "b", 2, 100.0);
        let j = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(0.01),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        let f = filter_over(&mut memo, j, 1); // col 1 is in the left side
        let rewrites = apply_transform(TransformKind::FilterPushJoinLeft, &memo, f, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Join { .. }, children) = &rewrites[0] else {
            panic!()
        };
        assert!(matches!(children[0], Node::Op(LogicalOp::Filter { .. }, _)));
        // Right push should not fire for a left-side column.
        assert!(apply_transform(TransformKind::FilterPushJoinRight, &memo, f, 0).is_empty());
    }

    #[test]
    fn filter_pushes_below_right_join_side_with_remap() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let b = scan(&mut memo, "b", 2, 100.0);
        let j = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(0.01),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        let f = filter_over(&mut memo, j, 3); // col 3 = right side col 1
        let rewrites = apply_transform(TransformKind::FilterPushJoinRight, &memo, f, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Join { .. }, children) = &rewrites[0] else {
            panic!()
        };
        let Node::Op(LogicalOp::Filter { predicate, .. }, _) = &children[1] else {
            panic!()
        };
        let mut cols = Vec::new();
        predicate.collect_columns(&mut cols);
        assert_eq!(cols, vec![1], "column remapped into right frame");
    }

    #[test]
    fn filter_merge_multiplies_selectivities() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let f1 = filter_over(&mut memo, a, 0);
        let f2 = memo.intern(
            LogicalOp::Filter {
                predicate: ScalarExpr::binary(
                    BinOp::Lt,
                    ScalarExpr::col(1),
                    ScalarExpr::lit_int(9),
                ),
                selectivity: DualStats::exact(0.5),
            },
            vec![f1],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::FilterMerge, &memo, f2, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Filter { selectivity, .. }, _) = &rewrites[0] else {
            panic!()
        };
        assert!((selectivity.actual - 0.15).abs() < 1e-12);
    }

    #[test]
    fn join_assoc_left_rebalances_and_keeps_output_cardinality() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 1000.0);
        let b = scan(&mut memo, "b", 2, 2000.0);
        let c = scan(&mut memo, "c", 2, 3000.0);
        let ab = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1e-3),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        let abc = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(2, 0)], // B.col0 (global col 2) vs C.col0
                selectivity: DualStats::exact(1e-4),
            },
            vec![ab, c],
            RuleBits::empty(),
        );
        let original_rows = memo.group(abc).stats.rows.actual;
        let rewrites = apply_transform(TransformKind::JoinAssocLeft, &memo, abc, 0);
        assert_eq!(rewrites.len(), 1);
        // Materialize and verify the new expression lands in an equivalent
        // cardinality.
        let mut memo2 = memo;
        let (op, children) = memo2.materialize(rewrites[0].clone(), RuleBits::empty());
        let idx = memo2
            .add_to_group(abc, op, children, RuleBits::empty(), 16)
            .unwrap()
            .unwrap();
        let inner_group = memo2.group(abc).lexprs[idx].children[1];
        let inner_rows = memo2.group(inner_group).stats.rows.actual;
        // Inner B⋈C rows = 1e-4 * 2000 * 3000 = 600.
        assert!((inner_rows - 600.0).abs() < 1e-6);
        // New outer cardinality: s1 * |A| * |inner| = 1e-3*1000*600 = 600k?
        // No: group stats are fixed at creation from the original expr; the
        // invariant we check is the formula product equality.
        let s_product = 1e-3 * 1e-4 * 1000.0 * 2000.0 * 3000.0;
        assert!((original_rows - s_product).abs() / s_product < 1e-9);
    }

    #[test]
    fn join_assoc_skips_cross_join_shapes() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 1000.0);
        let b = scan(&mut memo, "b", 2, 2000.0);
        let c = scan(&mut memo, "c", 2, 3000.0);
        let ab = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1e-3),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        // Top join keys touch only A (col 1 < |A|): B-C would be a cross join.
        let abc = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(1, 0)],
                selectivity: DualStats::exact(1e-4),
            },
            vec![ab, c],
            RuleBits::empty(),
        );
        assert!(apply_transform(TransformKind::JoinAssocLeft, &memo, abc, 0).is_empty());
    }

    #[test]
    fn project_merge_composes_expressions() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 3, 100.0);
        let p1 = memo.intern(
            LogicalOp::Project {
                exprs: vec![
                    (ScalarExpr::col(2), "x".into()),
                    (ScalarExpr::col(0), "y".into()),
                ],
            },
            vec![a],
            RuleBits::empty(),
        );
        let p2 = memo.intern(
            LogicalOp::Project {
                exprs: vec![(ScalarExpr::col(1), "z".into())],
            },
            vec![p1],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::ProjectMerge, &memo, p2, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Project { exprs }, children) = &rewrites[0] else {
            panic!()
        };
        assert_eq!(exprs.len(), 1);
        assert_eq!(exprs[0].0, ScalarExpr::col(0), "z = p1[1] = col 0");
        assert!(matches!(children[0], Node::Group(_)));
    }

    #[test]
    fn semi_join_reduction_builds_semi_then_join() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100_000.0);
        let b = scan(&mut memo, "b", 2, 100.0);
        let j = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1e-4),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::SemiJoinReduction, &memo, j, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                ..
            },
            children,
        ) = &rewrites[0]
        else {
            panic!()
        };
        assert!(matches!(
            children[0],
            Node::Op(
                LogicalOp::Join {
                    kind: JoinKind::LeftSemi,
                    ..
                },
                _
            )
        ));
    }

    #[test]
    fn project_push_join_prunes_unused_columns() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 4, 1000.0);
        let b = scan(&mut memo, "b", 4, 1000.0);
        let j = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1e-3),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        // Keep only left col 1 and right col 6 (= b col 2).
        let p = memo.intern(
            LogicalOp::Project {
                exprs: vec![
                    (ScalarExpr::col(1), "x".into()),
                    (ScalarExpr::col(6), "y".into()),
                ],
            },
            vec![j],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::ProjectPushJoin, &memo, p, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Project { exprs }, children) = &rewrites[0] else {
            panic!()
        };
        // Left keeps {0 (key), 1}; right keeps {0 (key), 2}. Remapped:
        // x = left pos 1; y = 2 + right pos 1 = 3.
        assert_eq!(exprs[0].0, ScalarExpr::col(1));
        assert_eq!(exprs[1].0, ScalarExpr::col(3));
        let Node::Op(LogicalOp::Join { on, .. }, sides) = &children[0] else {
            panic!()
        };
        assert_eq!(on, &vec![(0, 0)]);
        for side in sides {
            let Node::Op(LogicalOp::Project { exprs }, _) = side else {
                panic!()
            };
            assert_eq!(exprs.len(), 2);
        }
    }

    #[test]
    fn top_sort_fuse_removes_inner_sort() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let s = memo.intern(
            LogicalOp::Sort {
                keys: vec![SortKey::asc(0)],
            },
            vec![a],
            RuleBits::empty(),
        );
        let t = memo.intern(
            LogicalOp::Top {
                k: 5,
                keys: vec![SortKey::asc(0)],
            },
            vec![s],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::TopSortFuse, &memo, t, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Top { .. }, children) = &rewrites[0] else {
            panic!()
        };
        assert!(matches!(children[0], Node::Group(g) if g == a));
    }

    #[test]
    fn filter_push_aggregate_requires_key_columns() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 3, 1000.0);
        let g = memo.intern(
            LogicalOp::Aggregate {
                group_by: vec![2],
                aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                group_ratio: DualStats::exact(0.1),
            },
            vec![a],
            RuleBits::empty(),
        );
        // Filter on output col 0 (the group key) -> pushable, remapped to 2.
        let f_ok = filter_over(&mut memo, g, 0);
        let rewrites = apply_transform(TransformKind::FilterPushAggregate, &memo, f_ok, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Aggregate { .. }, children) = &rewrites[0] else {
            panic!()
        };
        let Node::Op(LogicalOp::Filter { predicate, .. }, _) = &children[0] else {
            panic!()
        };
        let mut cols = Vec::new();
        predicate.collect_columns(&mut cols);
        assert_eq!(cols, vec![2]);
        // Filter on the aggregate output (col 1) -> not pushable.
        let f_bad = filter_over(&mut memo, g, 1);
        assert!(apply_transform(TransformKind::FilterPushAggregate, &memo, f_bad, 0).is_empty());
    }

    #[test]
    fn union_flatten_splices_nested_union() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 10.0);
        let b = scan(&mut memo, "b", 2, 10.0);
        let c = scan(&mut memo, "c", 2, 10.0);
        let inner = memo.intern(LogicalOp::Union, vec![a, b], RuleBits::empty());
        let outer = memo.intern(LogicalOp::Union, vec![inner, c], RuleBits::empty());
        let rewrites = apply_transform(TransformKind::UnionFlatten, &memo, outer, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Union, children) = &rewrites[0] else {
            panic!()
        };
        assert_eq!(children.len(), 3);
    }

    #[test]
    fn filter_push_union_replicates_to_branches() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let b = scan(&mut memo, "b", 2, 100.0);
        let u = memo.intern(LogicalOp::Union, vec![a, b], RuleBits::empty());
        let f = filter_over(&mut memo, u, 0);
        let rewrites = apply_transform(TransformKind::FilterPushUnion, &memo, f, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Union, branches) = &rewrites[0] else {
            panic!()
        };
        assert_eq!(branches.len(), 2);
        for br in branches {
            assert!(matches!(br, Node::Op(LogicalOp::Filter { .. }, _)));
        }
    }

    #[test]
    fn filter_push_sort_commutes() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let srt = memo.intern(
            LogicalOp::Sort {
                keys: vec![SortKey::asc(1)],
            },
            vec![a],
            RuleBits::empty(),
        );
        let f = filter_over(&mut memo, srt, 0);
        let rewrites = apply_transform(TransformKind::FilterPushSort, &memo, f, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Sort { .. }, children) = &rewrites[0] else {
            panic!()
        };
        assert!(matches!(children[0], Node::Op(LogicalOp::Filter { .. }, _)));
    }

    #[test]
    fn sort_remove_redundant_drops_inner_sort() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let s1 = memo.intern(
            LogicalOp::Sort {
                keys: vec![SortKey::asc(0)],
            },
            vec![a],
            RuleBits::empty(),
        );
        let s2 = memo.intern(
            LogicalOp::Sort {
                keys: vec![SortKey::desc(1)],
            },
            vec![s1],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::SortRemoveRedundant, &memo, s2, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Sort { keys }, children) = &rewrites[0] else {
            panic!()
        };
        assert!(keys[0].descending, "outer ordering kept");
        assert!(
            matches!(children[0], Node::Group(g) if g == a),
            "inner sort dropped"
        );
    }

    #[test]
    fn join_assoc_right_builds_left_deep_shape() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 1000.0);
        let b = scan(&mut memo, "b", 2, 2000.0);
        let c = scan(&mut memo, "c", 2, 3000.0);
        let bc = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1e-3),
            },
            vec![b, c],
            RuleBits::empty(),
        );
        // A joins B on col 0 of the right side (which lives in B).
        let abc = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 1)],
                selectivity: DualStats::exact(1e-4),
            },
            vec![a, bc],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::JoinAssocRight, &memo, abc, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Join { on, .. }, children) = &rewrites[0] else {
            panic!()
        };
        // New outer join: (A ⋈ B) vs C with B's original key shifted by |A|.
        assert!(matches!(children[0], Node::Op(LogicalOp::Join { .. }, _)));
        assert!(matches!(children[1], Node::Group(g) if g == c));
        assert!(
            on.iter().all(|&(l, _)| l >= 2),
            "B-side keys shifted by |A|: {on:?}"
        );
    }

    #[test]
    fn filter_push_process_commutes_with_udf() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100.0);
        let p = memo.intern(
            LogicalOp::Process {
                udf: "Cleanse".into(),
                cpu_factor: 3.0,
                out_ratio: DualStats::exact(1.0),
            },
            vec![a],
            RuleBits::empty(),
        );
        let f = filter_over(&mut memo, p, 1);
        let rewrites = apply_transform(TransformKind::FilterPushProcess, &memo, f, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Process { cpu_factor, .. }, children) = &rewrites[0] else {
            panic!()
        };
        assert_eq!(*cpu_factor, 3.0);
        assert!(matches!(children[0], Node::Op(LogicalOp::Filter { .. }, _)));
    }

    #[test]
    fn top_push_union_adds_per_branch_tops_once() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 1000.0);
        let b = scan(&mut memo, "b", 2, 1000.0);
        let u = memo.intern(LogicalOp::Union, vec![a, b], RuleBits::empty());
        let t = memo.intern(
            LogicalOp::Top {
                k: 10,
                keys: vec![SortKey::desc(1)],
            },
            vec![u],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::TopPushUnion, &memo, t, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Top { .. }, children) = &rewrites[0] else {
            panic!()
        };
        let Node::Op(LogicalOp::Union, branches) = &children[0] else {
            panic!()
        };
        assert!(branches
            .iter()
            .all(|b| matches!(b, Node::Op(LogicalOp::Top { .. }, _))));
        // Guard: materialize the rewrite, then re-application is suppressed
        // (the new union's children already contain Top expressions).
        let prov = RuleBits::empty();
        let (op, ch) = memo.materialize(rewrites[0].clone(), prov);
        memo.add_to_group(t, op, ch, prov, 8).unwrap().unwrap();
        assert!(apply_transform(TransformKind::TopPushUnion, &memo, t, 1).is_empty());
    }

    #[test]
    fn project_through_union_distributes_pure_columns_only() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 3, 1000.0);
        let b = scan(&mut memo, "b", 3, 1000.0);
        let u = memo.intern(LogicalOp::Union, vec![a, b], RuleBits::empty());
        let pure = memo.intern(
            LogicalOp::Project {
                exprs: vec![(ScalarExpr::col(1), "x".into())],
            },
            vec![u],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::ProjectThroughUnion, &memo, pure, 0);
        assert_eq!(rewrites.len(), 1);
        let Node::Op(LogicalOp::Union, branches) = &rewrites[0] else {
            panic!()
        };
        assert_eq!(branches.len(), 2);
        // Computed projections do not distribute.
        let computed = memo.intern(
            LogicalOp::Project {
                exprs: vec![(
                    ScalarExpr::binary(BinOp::Add, ScalarExpr::col(0), ScalarExpr::col(1)),
                    "s".into(),
                )],
            },
            vec![u],
            RuleBits::empty(),
        );
        assert!(apply_transform(TransformKind::ProjectThroughUnion, &memo, computed, 0).is_empty());
    }

    #[test]
    fn semi_join_reduction_does_not_reapply_to_reduced_side() {
        let mut memo = Memo::new();
        let a = scan(&mut memo, "a", 2, 100_000.0);
        let b = scan(&mut memo, "b", 2, 100.0);
        let j = memo.intern(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                on: vec![(0, 0)],
                selectivity: DualStats::exact(1e-4),
            },
            vec![a, b],
            RuleBits::empty(),
        );
        let rewrites = apply_transform(TransformKind::SemiJoinReduction, &memo, j, 0);
        let prov = RuleBits::empty();
        let (op, ch) = memo.materialize(rewrites[0].clone(), prov);
        let idx = memo.add_to_group(j, op, ch, prov, 8).unwrap().unwrap();
        // The new expression's left side is the semi-reduced group; the rule
        // must refuse to reduce again.
        assert!(apply_transform(TransformKind::SemiJoinReduction, &memo, j, idx).is_empty());
    }
}
