//! The optimizer's cost model.
//!
//! Costs are computed from the **estimated** side of the dual statistics and
//! the **claimed** tuning of each physical expression, so the model is
//! exactly as misinformed as SCOPE's: "the estimated costs from the SCOPE
//! optimizer (whose reliability is well known to be lacking)" (§2.2). The
//! runtime simulator independently derives ground truth from the actual
//! side; nothing in this module touches it.

use crate::memo::{ExchangeScheme, ExchangeSpec, PhysKind, PreLocal};
use scope_ir::logical::LogicalOp;
use scope_ir::physical::PhysicalTuning;
use scope_ir::stats::NodeStats;

// Cost model constants (abstract cost units; 1 unit ≈ 1 byte moved or a
// comparable amount of CPU work).

/// Per-byte cost of reading base data.
const READ_BYTE: f64 = 1.0;
/// Per-byte cost of writing final outputs.
const WRITE_BYTE: f64 = 1.5;
/// Per-byte cost of moving data through an exchange.
const SHUFFLE_BYTE: f64 = 2.0;
/// Extra per-row cost when a range exchange must sort its runs.
const SORT_ROW_LOG: f64 = 0.05;
/// Per-row CPU unit (scaled by operator weights below).
const CPU_ROW: f64 = 0.2;
/// Hash-join build-side per-row weight.
const HASH_BUILD: f64 = 1.5;
/// Hash-join probe-side per-row weight.
const HASH_PROBE: f64 = 1.0;
/// Merge-join per-row weight (both sides).
const MERGE_ROW: f64 = 0.7;
/// Hash-aggregation per-input-row weight.
const HASH_AGG_ROW: f64 = 1.2;
/// Stream-aggregation per-input-row weight (cheaper, needs order).
const STREAM_AGG_ROW: f64 = 0.6;
/// Window function per-row weight.
const WINDOW_ROW: f64 = 1.5;
/// Process (UDF) per-row weight, multiplied by the UDF's cpu factor.
const PROCESS_ROW: f64 = 2.0;
/// Claimed IO discount of compressed exchanges.
const COMPRESSION_IO: f64 = 0.8;
/// Claimed CPU surcharge of compressed exchanges (per byte).
const COMPRESSION_CPU: f64 = 0.15;

/// Estimated cost of one operator instance of kind `kind` implementing `op`
/// (whose payload a filter, projection or UDF's weight is read from),
/// excluding its input exchanges and children.
#[must_use]
pub(crate) fn local_cost(
    kind: PhysKind,
    op: &LogicalOp,
    out: &NodeStats,
    children: &[NodeStats],
    tuning: &PhysicalTuning,
) -> f64 {
    let out_rows = out.rows.estimated.max(0.0);
    let out_bytes = out.estimated_bytes().max(0.0);
    let in_rows = |i: usize| children.get(i).map_or(0.0, |c| c.rows.estimated.max(0.0));
    let cpu = |units: f64| units * CPU_ROW * tuning.cpu_mult;
    let io = |bytes: f64| bytes * tuning.io_mult;
    match (kind, op) {
        (PhysKind::TableScan, _) => io(out_bytes * READ_BYTE),
        (PhysKind::Filter, LogicalOp::Filter { predicate, .. }) => {
            cpu(in_rows(0) * predicate.cpu_weight().max(0.1))
        }
        (PhysKind::Project, LogicalOp::Project { exprs }) => {
            let weight: f64 = exprs
                .iter()
                .map(|(e, _)| e.cpu_weight())
                .sum::<f64>()
                .max(0.1);
            cpu(in_rows(0) * weight * 0.5)
        }
        (PhysKind::HashJoin, _) => {
            cpu(in_rows(1) * HASH_BUILD + in_rows(0) * HASH_PROBE + out_rows * 0.3)
        }
        (PhysKind::MergeJoin, _) => cpu((in_rows(0) + in_rows(1)) * MERGE_ROW + out_rows * 0.3),
        (PhysKind::BroadcastJoin, _) => {
            // Replication cost is carried by the broadcast exchange; the
            // local probe is hash-join-like with a small build.
            cpu(in_rows(1) * HASH_BUILD + in_rows(0) * HASH_PROBE + out_rows * 0.3)
        }
        (PhysKind::HashAggregate(_), _) => cpu(in_rows(0) * HASH_AGG_ROW + out_rows * 0.5),
        (PhysKind::StreamAggregate(_), _) => cpu(in_rows(0) * STREAM_AGG_ROW + out_rows * 0.3),
        (PhysKind::Sort, _) => {
            let n = in_rows(0).max(2.0);
            cpu(n * n.log2() * SORT_ROW_LOG / CPU_ROW)
        }
        (PhysKind::TopN, _) => cpu(in_rows(0) * 0.4),
        (PhysKind::Window, _) => cpu(in_rows(0) * WINDOW_ROW),
        (PhysKind::Process, LogicalOp::Process { cpu_factor, .. }) => {
            cpu(in_rows(0) * PROCESS_ROW * cpu_factor)
        }
        (PhysKind::UnionAll, _) => 0.0,
        (PhysKind::Output, _) => io(out_bytes * WRITE_BYTE),
        // Guarded by construction: `crate::impls` gives each operator only
        // the kinds that implement it.
        (kind, op) => unreachable!("{kind:?} does not implement {}", op.tag()),
    }
}

/// Estimated cost of moving `input` through an exchange.
#[must_use]
pub(crate) fn exchange_cost(spec: &ExchangeSpec, input: &NodeStats) -> f64 {
    let rows = input.rows.estimated.max(0.0);
    let bytes = input.estimated_bytes().max(0.0);
    let replication = match spec.scheme {
        // Broadcast replicates the input to every consumer partition.
        ExchangeScheme::Broadcast => 8.0,
        _ => 1.0,
    };
    let mut cost = bytes * SHUFFLE_BYTE * replication;
    if spec.compressed {
        cost = cost * COMPRESSION_IO + bytes * COMPRESSION_CPU;
    }
    if spec.sorted {
        let n = rows.max(2.0);
        cost += n * n.log2() * SORT_ROW_LOG;
    }
    cost
}

/// Estimated cost of a producer-side pre-reduction (partial aggregation
/// or local top-k) plus the reduced row count that flows into the
/// exchange above it.
#[must_use]
pub(crate) fn pre_local_cost_and_rows(
    pre: PreLocal,
    input: &NodeStats,
    out: &NodeStats,
) -> (f64, NodeStats) {
    match pre {
        PreLocal::PartialAgg => {
            let reduced = NodeStats {
                rows: scope_ir::stats::DualStats::new(
                    partial_rows(input.rows.actual, out.rows.actual),
                    partial_rows(input.rows.estimated, out.rows.estimated),
                ),
                avg_row_len: out.avg_row_len,
                distinct: out.distinct,
            };
            let cost = input.rows.estimated.max(0.0) * HASH_AGG_ROW * CPU_ROW;
            (cost, reduced)
        }
        PreLocal::LocalTopK(k) => {
            let cap = (k * 32) as f64;
            let reduced = NodeStats {
                rows: scope_ir::stats::DualStats::new(
                    input.rows.actual.min(cap),
                    input.rows.estimated.min(cap),
                ),
                avg_row_len: input.avg_row_len,
                distinct: input.distinct,
            };
            let cost = input.rows.estimated.max(0.0) * 0.4 * CPU_ROW;
            (cost, reduced)
        }
    }
}

/// Rows surviving a local partial aggregation: each of ~16 producer tasks
/// emits at most the full group count.
#[must_use]
pub fn partial_rows(input_rows: f64, groups: f64) -> f64 {
    input_rows.min((groups * 16.0).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::ScalarExpr;
    use scope_ir::stats::DualStats;

    fn stats(rows: f64, len: f64) -> NodeStats {
        NodeStats {
            rows: DualStats::exact(rows),
            avg_row_len: len,
            distinct: DualStats::exact((rows / 10.0).max(1.0)),
        }
    }

    fn scan() -> LogicalOp {
        LogicalOp::Extract {
            table: scope_ir::logical::TableRef::new(
                "t",
                scope_ir::Schema::new(vec![]),
                DualStats::exact(1000.0),
            ),
        }
    }

    #[test]
    fn scan_cost_is_io_bound() {
        let out = stats(1000.0, 100.0);
        let c = local_cost(
            PhysKind::TableScan,
            &scan(),
            &out,
            &[],
            &PhysicalTuning::IDENTITY,
        );
        assert!((c - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn tuning_scales_cost_dimensions() {
        let out = stats(1000.0, 100.0);
        let scan = scan();
        let base = local_cost(
            PhysKind::TableScan,
            &scan,
            &out,
            &[],
            &PhysicalTuning::IDENTITY,
        );
        let tuned = local_cost(
            PhysKind::TableScan,
            &scan,
            &out,
            &[],
            &PhysicalTuning {
                io_mult: 0.5,
                ..PhysicalTuning::IDENTITY
            },
        );
        assert!((tuned - base * 0.5).abs() < 1e-6);
        // CPU-bound op scales with cpu_mult instead.
        let filt = LogicalOp::Filter {
            predicate: ScalarExpr::lit_int(1),
            selectivity: DualStats::exact(0.5),
        };
        let fb = local_cost(
            PhysKind::Filter,
            &filt,
            &out,
            &[stats(1000.0, 100.0)],
            &PhysicalTuning::IDENTITY,
        );
        let ft = local_cost(
            PhysKind::Filter,
            &filt,
            &out,
            &[stats(1000.0, 100.0)],
            &PhysicalTuning {
                cpu_mult: 2.0,
                ..PhysicalTuning::IDENTITY
            },
        );
        assert!((ft - fb * 2.0).abs() < 1e-6);
    }

    #[test]
    fn broadcast_exchange_costs_more_than_hash() {
        let input = stats(10_000.0, 50.0);
        let hash = exchange_cost(
            &ExchangeSpec {
                scheme: ExchangeScheme::Hash,
                sorted: false,
                compressed: false,
                bytes: 0.0,
            },
            &input,
        );
        let bcast = exchange_cost(
            &ExchangeSpec {
                scheme: ExchangeScheme::Broadcast,
                sorted: false,
                compressed: false,
                bytes: 0.0,
            },
            &input,
        );
        assert!(bcast > hash * 4.0);
    }

    #[test]
    fn compression_discounts_io() {
        let input = stats(10_000.0, 50.0);
        let spec = |compressed| ExchangeSpec {
            scheme: ExchangeScheme::Hash,
            sorted: false,
            compressed,
            bytes: 0.0,
        };
        assert!(exchange_cost(&spec(true), &input) < exchange_cost(&spec(false), &input));
    }

    #[test]
    fn sorted_exchange_adds_sort_cost() {
        let input = stats(10_000.0, 50.0);
        let plain = ExchangeSpec {
            scheme: ExchangeScheme::Range,
            sorted: false,
            compressed: false,
            bytes: 0.0,
        };
        let sorted = ExchangeSpec {
            sorted: true,
            ..plain
        };
        assert!(exchange_cost(&sorted, &input) > exchange_cost(&plain, &input));
    }

    #[test]
    fn partial_agg_reduces_rows_flowing_into_exchange() {
        let input = stats(1_000_000.0, 40.0);
        let out = stats(100.0, 20.0);
        let (cost, reduced) = pre_local_cost_and_rows(PreLocal::PartialAgg, &input, &out);
        assert!(cost > 0.0);
        assert!(reduced.rows.estimated < input.rows.estimated / 100.0);
        assert!((reduced.rows.estimated - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn local_topk_caps_rows() {
        let input = stats(1_000_000.0, 40.0);
        let out = stats(10.0, 40.0);
        let (_, reduced) = pre_local_cost_and_rows(PreLocal::LocalTopK(10), &input, &out);
        assert!((reduced.rows.estimated - 320.0).abs() < 1e-6);
    }

    #[test]
    fn stream_agg_cheaper_than_hash_agg_locally() {
        let input = [stats(100_000.0, 40.0)];
        let out = stats(100.0, 20.0);
        let agg = LogicalOp::Aggregate {
            group_by: vec![0],
            aggs: vec![],
            group_ratio: DualStats::exact(0.001),
        };
        let single = scope_ir::AggMode::Single;
        let hash = local_cost(
            PhysKind::HashAggregate(single),
            &agg,
            &out,
            &input,
            &PhysicalTuning::IDENTITY,
        );
        let stream = local_cost(
            PhysKind::StreamAggregate(single),
            &agg,
            &out,
            &input,
            &PhysicalTuning::IDENTITY,
        );
        assert!(stream < hash);
    }
}
