//! The benchmark's metric catalogue: every metric the harness may print, with
//! its unit, direction, regression bound and how it is measured.
//!
//! This table is the single source of truth. `perf --print-benchmark-json`
//! renders the root `BENCHMARK.json` from it, the result line of a run is
//! rendered by walking it (a metric that is missing or not finite is an
//! error, never a silent zero), and `perf --compare` reads its bounds.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression (end-to-end metrics only; 0 for the
    /// unbounded per-layer metrics).
    pub bound: f64,
    /// Deterministic per `(workload, seed, --seconds)`: a function of the
    /// program's outputs or of exact counts, never of a clock. Two runs of
    /// the same code must agree on it exactly (`perf --compare` enforces it).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload prints all
/// of them.
///
/// A bound is the issue's figure (10 % on clocks, CPU and memory) unless ten
/// runs of unchanged code at ten seeds — what the benchmark's driver accepts
/// or rejects the benchmark on — spread by more than that; the README's
/// "Noise" section records the measurements. The clock metrics do (this
/// container switches between two speeds about a third apart), and the two
/// quality metrics, exact per seed, differ *across* seeds by up to 14 % and
/// 1.4 %. `day_ms_p90` is not here: its spread reached 28–39 %, beyond any
/// bound the contract admits, so it is demoted to the per-layer list
/// (`core.day_ms_p90`) and the untraced run's stderr.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("jobs_per_s", "1/s", Higher, 0.25, false),
    e2e("day_ms_p50", "ms", Lower, 0.25, false),
    e2e("cpu_ms_per_kjob", "ms", Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.1, false),
    e2e("steered_pn_ratio_pct", "%", Lower, 0.25, true),
    e2e("non_regressed_share_pct", "%", Higher, 0.05, true),
];

/// Per-layer metrics, from the traced run and its replay pass. No bounds.
/// Names are `<crate>.<metric>`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("scope-workload.jobs_for_day_ms_p50", "ms", Lower, false),
    layer("scope-workload.table1_us_p50", "us", Lower, false),
    layer("scope-workload.jobs_per_day", "count", Higher, true),
    layer("scope-lang.parse_us_p50", "us", Lower, false),
    layer("scope-lang.bind_us_p50", "us", Lower, false),
    layer("scope-opt.compile_us_p50", "us", Lower, false),
    layer("scope-opt.compile_us_p99", "us", Lower, false),
    layer("scope-opt.tasks_per_compile", "count", Lower, true),
    layer("scope-opt.memo_exprs_per_compile", "count", Lower, true),
    layer("scope-opt.span_us_p50", "us", Lower, false),
    layer("scope-opt.slate_us_per_treatment", "us", Lower, false),
    layer("scope-opt.delta_share", "ratio", Higher, true),
    layer("scope-opt.cache_hit_us_p50", "us", Lower, false),
    layer("scope-opt.compile_cache_hit_ratio", "ratio", Higher, false),
    layer("scope-runtime.execute_us_p50", "us", Lower, false),
    layer("scope-runtime.execute_cached_us_p50", "us", Lower, false),
    layer("scope-runtime.graph_hit_ratio", "ratio", Higher, false),
    layer("scope-runtime.result_hit_ratio", "ratio", Higher, false),
    layer("personalizer.rank_us_p50", "us", Lower, false),
    layer("personalizer.reward_us_p50", "us", Lower, false),
    layer("personalizer.events_per_day", "count", Higher, true),
    layer("flighting.flight_ms_per_request", "ms", Lower, false),
    layer("flighting.flights_per_day", "count", Higher, true),
    layer("sis.publish_us_p50", "us", Lower, false),
    layer("sis.publish_disk_ms_p50", "ms", Lower, false),
    layer("sis.snapshot_us_p50", "us", Lower, false),
    layer("sis.hints_live", "count", Higher, true),
    layer("scope-state.encode_ms_p50", "ms", Lower, false),
    layer("scope-state.write_ms_p50", "ms", Lower, false),
    layer("scope-state.decode_ms_p50", "ms", Lower, false),
    layer("scope-state.snapshot_bytes", "bytes", Lower, true),
    layer("core.day_ms_p50", "ms", Lower, false),
    layer("core.day_ms_p90", "ms", Lower, false),
    layer("core.build_row_us_p50", "us", Lower, false),
    layer("core.build_row_us_p99", "us", Lower, false),
    layer("core.finish_day_ms_p50", "ms", Lower, false),
    layer("core.view_build_ms_p50", "ms", Lower, false),
    layer("core.counterfactual_ms_p50", "ms", Lower, false),
    layer("core.feature_gen_ms_p50", "ms", Lower, false),
    layer("core.recommend_ms_p50", "ms", Lower, false),
    layer("core.flight_ms_p50", "ms", Lower, false),
    layer("core.validate_ms_p50", "ms", Lower, false),
    layer("core.publish_ms_p50", "ms", Lower, false),
    layer("core.snapshot_ms_p50", "ms", Lower, false),
    layer("core.restore_ms_p50", "ms", Lower, false),
    layer("core.feature_cache_hit_ratio", "ratio", Higher, false),
    layer("core.unattributed_share", "ratio", Lower, false),
    layer("core.fleet.job_us_p50", "us", Lower, false),
    layer("core.fleet.job_us_p99", "us", Lower, false),
    layer("core.fleet.job_time_share", "ratio", Higher, false),
    layer("core.fleet.scaling_ratio", "ratio", Higher, false),
    layer("core.fleet.shed", "count", Lower, true),
    layer("bench.trace_overhead_pct", "%", Lower, false),
];

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`, and
/// the default of `--seconds`).
pub const RUN_SECONDS: u32 = 20;
