//! Job execution: schedule the stage graph on the cluster, inject cloud
//! variance, and report runtime metrics.
//!
//! Execution is a *pure function* of the plan bytes, the cluster's variance
//! model, and the two seeds — the property the [`Executor`] trait and the
//! stage-graph memo ([`crate::CachingExecutor`]) are built on. Callers
//! that execute plans should be generic over [`Executor`] so a shared
//! [`crate::ExecutionCache`] can sit behind any of them.

use crate::cluster::{
    Cluster, CPU_SPEED, IO_BANDWIDTH, STAGE_STARTUP_SEC, TOKENS_PER_JOB, VERTEX_OVERHEAD_SEC,
    WRITE_BANDWIDTH,
};
use crate::metrics::ExecutionMetrics;
use crate::stage::StageGraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scope_ir::ids::{exec_base_seed, exec_stage_seed};
use scope_ir::physical::PhysicalPlan;

/// Something that can execute physical plans. `job_seed` identifies the job
/// instance (its data layout); `run_seed` identifies the run — the executor
/// carries the cluster (its variance model) it runs on.
///
/// The contract every implementation must honor: **execution is
/// deterministic given `(plan, job_seed, run_seed)`** — same inputs, same
/// metrics, bit for bit. A bare [`Cluster`] executes directly;
/// [`crate::CachingExecutor`] memoizes stage graphs behind the same
/// interface, which the contract makes invisible.
pub trait Executor {
    /// Execute a physical plan under `(job_seed, run_seed)`.
    fn execute(&self, plan: &PhysicalPlan, job_seed: u64, run_seed: u64) -> ExecutionMetrics;
}

/// A bare [`Cluster`] is the plainest executor: build the stage graph, run
/// it, no caching. This keeps ad-hoc call sites (tests, examples, one-shot
/// probes) free of wrapper noise.
impl Executor for Cluster {
    fn execute(&self, plan: &PhysicalPlan, job_seed: u64, run_seed: u64) -> ExecutionMetrics {
        execute(plan, self, job_seed, run_seed)
    }
}

/// Execute a physical plan. `job_seed` identifies the job instance (its data
/// layout); `run_seed` identifies the run — two executions with the same
/// seeds are identical, two runs with different `run_seed` model an A/A pair.
#[must_use]
pub fn execute(
    plan: &PhysicalPlan,
    cluster: &Cluster,
    job_seed: u64,
    run_seed: u64,
) -> ExecutionMetrics {
    let graph = StageGraph::build(plan);
    execute_stages(&graph, cluster, job_seed, run_seed)
}

/// Execute a pre-built stage graph (a cached execution runs a memoized one).
#[must_use]
pub fn execute_stages(
    graph: &StageGraph,
    cluster: &Cluster,
    job_seed: u64,
    run_seed: u64,
) -> ExecutionMetrics {
    let var = &cluster.variance;
    let base_seed = exec_base_seed(job_seed, run_seed);
    let mut run_rng = StdRng::seed_from_u64(base_seed);
    let cpu_sigma = var.cpu_sigma.max(1e-9);
    // Whole-run environment multiplier: cluster-wide interference that does
    // not average out across vertices.
    let run_cpu_mult = if var.run_cpu_sigma > 0.0 {
        (var.run_cpu_sigma * standard_normal(&mut run_rng)).exp()
    } else {
        1.0
    };
    // Run-level bandwidth interference: scales I/O *time*, never bytes.
    let run_io_mult = if var.run_io_sigma > 0.0 {
        (var.run_io_sigma * standard_normal(&mut run_rng)).exp()
    } else {
        1.0
    };

    let n = graph.stages.len();
    let mut finish = vec![0.0f64; n];
    let mut cpu_sec_total = 0.0;
    let mut io_sec_total = 0.0;
    let mut data_read = 0.0;
    let mut data_written = 0.0;
    let mut max_memory = 0.0f64;
    let mut memory_sum = 0.0;

    for (sid, stage) in graph.stages.iter().enumerate() {
        // Per-stage noise stream seeded by stage ordinal: two plans of the
        // same job executed under the same run seed share the noise of their
        // aligned stages (common random numbers), so A/B deltas reflect plan
        // differences rather than independent tail events — while the
        // marginal distribution of any single run is unchanged.
        let mut rng = StdRng::seed_from_u64(exec_stage_seed(base_seed, sid as u64));
        let p = f64::from(stage.parallelism.max(1));
        // Deterministic base resource times.
        let read_sec = stage.work.read / IO_BANDWIDTH;
        let write_sec = stage.work.written / WRITE_BANDWIDTH;
        let base_cpu_sec = stage.work.cpu / CPU_SPEED;

        // PNhours CPU component: per-vertex noise averages out; sample the
        // mean of `parallelism` lognormals cheaply via sampling each vertex
        // when small, or the analytic mean when wide. The per-vertex case
        // drains the uniform stream into one slice first, then transforms
        // in a tight RNG-free loop — bit-identical to sampling draw by draw
        // (`tests/legacy_values.rs` pins this against pre-change metrics).
        let vertices = stage.parallelism.max(1) as usize;
        let mean_cpu_mult = if var.cpu_sigma == 0.0 {
            1.0
        } else if vertices <= 64 {
            let mut pairs = [(0.0f64, 0.0f64); 64];
            for pair in pairs.iter_mut().take(vertices) {
                *pair = normal_uniform_pair(&mut rng);
            }
            pairs[..vertices]
                .iter()
                .map(|&(u1, u2)| (cpu_sigma * normal_from_uniforms(u1, u2)).exp())
                .sum::<f64>()
                / vertices as f64
        } else {
            // Law of large numbers: mean of many lognormals concentrates at
            // exp(sigma^2/2); add the residual fluctuation ~ sigma/sqrt(n).
            let mu = (var.cpu_sigma * var.cpu_sigma / 2.0).exp();
            mu * (1.0 + rng.random_range(-1.0..1.0) * var.cpu_sigma / (vertices as f64).sqrt())
        };
        let mut stage_cpu_sec = base_cpu_sec * mean_cpu_mult * run_cpu_mult;
        let mut stage_io_sec = (read_sec + write_sec) * run_io_mult;

        // Per-vertex duration: the slowest vertex gates each wave, and the
        // job's token allowance forces stages wider than it to run in waves
        // (fewer vertices => fewer waves => lower latency, §2.1/§5.5).
        let per_vertex = (stage_cpu_sec + stage_io_sec) / p;
        let waves = (p / f64::from(TOKENS_PER_JOB)).ceil().max(1.0);
        let worst = if var.vertex_sigma > 0.0 || var.straggler_prob > 0.0 {
            worst_vertex_multiplier(&mut rng, vertices.min(512), var)
        } else {
            1.0
        };
        let mut duration = per_vertex * waves * worst + STAGE_STARTUP_SEC;

        // Retry waves re-charge a fraction of the stage.
        if var.retry_prob > 0.0 && rng.random::<f64>() < var.retry_prob {
            stage_cpu_sec *= 1.0 + var.retry_fraction;
            stage_io_sec *= 1.0 + var.retry_fraction;
            duration *= 1.0 + var.retry_fraction;
        }

        let start = stage.inputs.iter().map(|&i| finish[i]).fold(0.0, f64::max);
        finish[sid] = start + duration;

        cpu_sec_total += stage_cpu_sec + f64::from(stage.parallelism) * VERTEX_OVERHEAD_SEC;
        io_sec_total += stage_io_sec;
        data_read += stage.work.read;
        data_written += stage.work.written;
        let per_vertex_mem = stage.work.memory / p;
        max_memory = max_memory.max(per_vertex_mem);
        memory_sum += per_vertex_mem;
    }

    let latency_sec = finish.iter().copied().fold(0.0, f64::max);
    ExecutionMetrics {
        latency_sec,
        pn_hours: (cpu_sec_total + io_sec_total) / 3600.0,
        vertices: graph.vertices(),
        tokens: graph.tokens(),
        data_read,
        data_written,
        max_memory,
        avg_memory: if n > 0 { memory_sum / n as f64 } else { 0.0 },
        cpu_sec: cpu_sec_total,
        io_sec: io_sec_total,
    }
}

/// The slowest-vertex multiplier of one stage: the max over `n` per-vertex
/// lognormal draws, each escalated by a straggler slowdown when its coin
/// hits — restructured from `n` interleaved RNG round-trips into two phases:
///
/// 1. **Drain** the uniform stream in the exact sequential draw order —
///    Box-Muller pair, straggler coin, and (only when the coin hits) the
///    slowdown draw. The coin compares a raw uniform, so the stream stays
///    fully predictable without computing a single transcendental.
/// 2. **Running max with a conservative skip filter.** A non-straggler
///    vertex's multiplier is `exp(sigma·z)` with `z ≤ √(−2 ln u1)`
///    (Box-Muller's cosine is at most 1), so once `worst` has grown, the
///    whole ln/sqrt/cos/exp chain is provably irrelevant for most vertices:
///    skip when `u1 ≥ exp(−zmax²/2)` where
///    `zmax = ln(worst·(1−1e-12))/sigma`. The 1e-12 pad lives in multiplier
///    space, so it dominates every rounding error in the bound (a handful
///    of ulps) at any sigma — float error can only make the filter *less*
///    eager, never skip a vertex that would have raised the max.
///
/// Max is order-insensitive and skipped draws are provably below it, so the
/// result is **bit-identical** to sampling draw by draw (asserted against a
/// sequential reference below and pinned to pre-change metrics in
/// `tests/legacy_values.rs`); under a heavy-tailed lognormal `worst` grows
/// within a few draws and the filter then rejects the bulk of a wide
/// stage's vertices.
fn worst_vertex_multiplier(rng: &mut StdRng, n: usize, var: &crate::cluster::VarianceModel) -> f64 {
    debug_assert!(n <= 512);
    let mut u1s = [0.0f64; 512];
    let mut u2s = [0.0f64; 512];
    let mut mults = [1.0f64; 512];
    for i in 0..n {
        (u1s[i], u2s[i]) = normal_uniform_pair(rng);
        if rng.random::<f64>() < var.straggler_prob {
            mults[i] = rng.random_range(var.straggler_slowdown.0..=var.straggler_slowdown.1);
        }
    }
    let sigma = var.vertex_sigma.max(1e-9);
    let skip_above = |worst: f64| {
        let padded = worst * (1.0 - 1e-12);
        if padded <= 1.0 {
            // r ≥ 0 makes the bound ≥ 1: nothing is skippable yet.
            // (2.0 exceeds every uniform, which live in [0, 1).)
            return 2.0;
        }
        let zmax = padded.ln() / sigma;
        (-zmax * zmax / 2.0).exp()
    };
    let mut worst = 1.0f64;
    let mut threshold = skip_above(worst);
    for i in 0..n {
        if mults[i] == 1.0 && u1s[i] >= threshold {
            continue;
        }
        let m = (sigma * normal_from_uniforms(u1s[i], u2s[i])).exp() * mults[i];
        if m > worst {
            worst = m;
            threshold = skip_above(worst);
        }
    }
    worst
}

/// The Box-Muller uniform pair for one normal deviate: `u1` in `(0, 1]`
/// (a zero is re-drawn), `u2` in `[0, 1)`. Split from the transform so the
/// samplers above can drain the stream first and skip the transcendentals
/// of draws a bound proves irrelevant.
fn normal_uniform_pair(rng: &mut StdRng) -> (f64, f64) {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > 0.0 {
            return (u1, u2);
        }
    }
}

/// The Box-Muller transform of a pair drawn by [`normal_uniform_pair`].
fn normal_from_uniforms(u1: f64, u2: f64) -> f64 {
    debug_assert!(u1 > 0.0, "Box-Muller u1 must be positive");
    let r = (-2.0 * u1.ln()).sqrt();
    r * (std::f64::consts::TAU * u2).cos()
}

/// One standard normal deviate; a lognormal draw is `exp(sigma * z)`.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let (u1, u2) = normal_uniform_pair(rng);
    normal_from_uniforms(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, VarianceModel};
    use scope_ir::stats::DualStats;
    use scope_lang::{bind_script, Catalog, TableInfo};

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        j     = SELECT * FROM sales AS s JOIN users AS u ON s.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
    "#;

    fn physical(rows: f64) -> PhysicalPlan {
        let mut catalog = Catalog::default();
        catalog.register(
            "store/sales",
            TableInfo {
                rows: DualStats::exact(rows),
            },
        );
        let plan = bind_script(SCRIPT, &catalog).unwrap();
        let opt = scope_opt::Optimizer::default();
        std::sync::Arc::unwrap_or_clone(opt.compile(&plan, &opt.default_config()).unwrap().physical)
    }

    #[test]
    fn execution_is_deterministic_given_seeds() {
        let plan = physical(1e7);
        let cluster = Cluster::default();
        let a = execute(&plan, &cluster, 1, 1);
        let b = execute(&plan, &cluster, 1, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_runs_differ_under_variance() {
        let plan = physical(1e7);
        let cluster = Cluster::default();
        let a = execute(&plan, &cluster, 1, 1);
        let b = execute(&plan, &cluster, 1, 2);
        assert_ne!(a.latency_sec, b.latency_sec);
        // Data read/written are run-invariant (paper §4.3).
        assert_eq!(a.data_read, b.data_read);
        assert_eq!(a.data_written, b.data_written);
        assert_eq!(a.vertices, b.vertices);
    }

    #[test]
    fn latency_varies_more_than_pnhours_across_aa_runs() {
        let plan = physical(3e7);
        let cluster = Cluster::default();
        let runs: Vec<ExecutionMetrics> = (0..30).map(|r| execute(&plan, &cluster, 7, r)).collect();
        let cv = |xs: Vec<f64>| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
            var.sqrt() / mean
        };
        let cv_latency = cv(runs.iter().map(|m| m.latency_sec).collect());
        let cv_pn = cv(runs.iter().map(|m| m.pn_hours).collect());
        assert!(
            cv_latency > cv_pn * 1.5,
            "latency CV {cv_latency:.3} must exceed PNhours CV {cv_pn:.3}"
        );
    }

    #[test]
    fn deterministic_cluster_has_zero_variance() {
        let plan = physical(1e7);
        let cluster = Cluster::deterministic();
        let a = execute(&plan, &cluster, 1, 1);
        let b = execute(&plan, &cluster, 1, 99);
        assert!((a.latency_sec - b.latency_sec).abs() < 1e-9);
        assert!((a.pn_hours - b.pn_hours).abs() < 1e-12);
    }

    #[test]
    fn larger_inputs_cost_more() {
        let cluster = Cluster::deterministic();
        let small = execute(&physical(1e6), &cluster, 1, 1);
        let big = execute(&physical(1e9), &cluster, 1, 1);
        assert!(big.pn_hours > small.pn_hours * 10.0);
        assert!(big.latency_sec > small.latency_sec);
        assert!(big.data_read > small.data_read);
        assert!(big.vertices >= small.vertices);
    }

    #[test]
    fn pnhours_decomposes_into_cpu_and_io() {
        let plan = physical(1e7);
        let m = execute(&plan, &Cluster::deterministic(), 1, 1);
        assert!((m.pn_hours * 3600.0 - (m.cpu_sec + m.io_sec)).abs() < 1e-6);
        assert!(m.io_sec > 0.0 && m.cpu_sec > 0.0);
    }

    /// The draw-by-draw loop `worst_vertex_multiplier` replaced: sample,
    /// coin, conditional slowdown, running max — one RNG round-trip per
    /// vertex.
    fn worst_vertex_reference(rng: &mut StdRng, n: usize, var: &VarianceModel) -> f64 {
        let sigma = var.vertex_sigma.max(1e-9);
        let mut worst = 1.0f64;
        for _ in 0..n {
            let mut m = (sigma * standard_normal(rng)).exp();
            if rng.random::<f64>() < var.straggler_prob {
                m *= rng.random_range(var.straggler_slowdown.0..=var.straggler_slowdown.1);
            }
            worst = worst.max(m);
        }
        worst
    }

    #[test]
    fn vectorized_worst_vertex_matches_sequential_reference_bit_for_bit() {
        // (vertex_sigma, straggler_prob) combos including the degenerate
        // sigma == 0 regime where only stragglers move the max (the skip
        // filter's padded bound must stay conservative at sigma -> 1e-9).
        let combos = [
            (0.35, 0.02),
            (0.35, 0.0),
            (0.0, 0.05),
            (1.5, 0.3),
            (0.05, 1.0),
        ];
        for &(sigma, prob) in &combos {
            let var = VarianceModel {
                vertex_sigma: sigma,
                straggler_prob: prob,
                ..VarianceModel::default()
            };
            for seed in 0..200 {
                for n in [1usize, 7, 64, 512] {
                    let mut vec_rng = StdRng::seed_from_u64(seed);
                    let mut ref_rng = StdRng::seed_from_u64(seed);
                    let got = worst_vertex_multiplier(&mut vec_rng, n, &var);
                    let want = worst_vertex_reference(&mut ref_rng, n, &var);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "sigma={sigma} prob={prob} seed={seed} n={n}: {got} != {want}"
                    );
                    // Both paths must also leave the stream in the same
                    // place (the retry draw follows from the same rng).
                    assert_eq!(vec_rng.random::<u64>(), ref_rng.random::<u64>());
                }
            }
        }
    }

    #[test]
    fn straggler_free_model_still_noisy_but_milder() {
        let plan = physical(3e7);
        let mild = Cluster {
            variance: VarianceModel {
                straggler_prob: 0.0,
                ..VarianceModel::default()
            },
        };
        let full = Cluster::default();
        let spread = |cluster: &Cluster| {
            let xs: Vec<f64> = (0..40)
                .map(|r| execute(&plan, cluster, 7, r).latency_sec)
                .collect();
            let max = xs.iter().cloned().fold(f64::MIN, f64::max);
            let min = xs.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(spread(&full) >= spread(&mild) * 0.9);
    }
}
