//! A/A testing: re-run the *same* configuration repeatedly to measure the
//! cluster's intrinsic variance (paper §5.1, Figures 3 and 5).

use scope_ir::ids::aa_run_seed;
use scope_ir::physical::PhysicalPlan;
use scope_runtime::{ExecutionMetrics, Executor};

/// Run a compiled plan `n` times with fresh run seeds. Generic over
/// [`Executor`]: through a `scope_runtime::CachingExecutor`, every run after
/// the first reuses the plan's memoized stage graph.
#[must_use]
pub fn run_aa<E: Executor>(
    plan: &PhysicalPlan,
    executor: &E,
    job_seed: u64,
    n: usize,
) -> Vec<ExecutionMetrics> {
    (0..n)
        .map(|i| executor.execute(plan, job_seed, aa_run_seed(i as u64)))
        .collect()
}

/// Coefficient of variation (stddev / mean) of a metric across runs.
#[must_use]
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean.abs() < 1e-12 {
        return 0.0;
    }
    let var =
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_lang::{bind_script, Catalog};
    use scope_opt::Optimizer;
    use scope_runtime::Cluster;

    fn compiled() -> PhysicalPlan {
        let src = r#"
            t = EXTRACT k:int, v:float FROM "data/t";
            f = SELECT k, v FROM t WHERE v > 5;
            a = SELECT k, SUM(v) AS s FROM f GROUP BY k;
            OUTPUT a TO "out/a";
        "#;
        let plan = bind_script(src, &Catalog::default()).unwrap();
        let opt = Optimizer::default();
        std::sync::Arc::unwrap_or_clone(opt.compile(&plan, &opt.default_config()).unwrap().physical)
    }

    #[test]
    fn aa_runs_share_data_volume_but_not_latency() {
        let plan = compiled();
        let runs = run_aa(&plan, &Cluster::default(), 9, 10);
        // A cached executor runs the identical A/A series, twice, on one
        // memoized stage graph.
        let cached = scope_runtime::CachingExecutor::with_config(
            Cluster::default(),
            scope_runtime::ExecCacheConfig::default(),
        );
        let warmup = run_aa(&plan, &cached, 9, 10);
        let replay = run_aa(&plan, &cached, 9, 10);
        assert_eq!(runs, warmup);
        assert_eq!(runs, replay);
        let graphs = cached.stats().graphs;
        assert_eq!(
            (graphs.misses, graphs.hits),
            (1, 19),
            "one graph for 20 runs"
        );
        assert_eq!(runs.len(), 10);
        let first = &runs[0];
        for r in &runs[1..] {
            assert_eq!(r.data_read, first.data_read, "A/A reads identical data");
            assert_eq!(r.vertices, first.vertices);
        }
        let latencies: Vec<f64> = runs.iter().map(|r| r.latency_sec).collect();
        assert!(coefficient_of_variation(&latencies) > 0.0);
    }

    #[test]
    fn cv_of_constant_series_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[5.0]), 0.0);
    }

    #[test]
    fn cv_measures_relative_spread() {
        let tight = coefficient_of_variation(&[100.0, 101.0, 99.0]);
        let wide = coefficient_of_variation(&[100.0, 150.0, 50.0]);
        assert!(wide > tight * 5.0);
    }
}
