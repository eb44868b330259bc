//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run --release -p qo_bench --bin experiments -- all
//! cargo run --release -p qo_bench --bin experiments -- fig6
//! cargo run --release -p qo_bench --bin experiments -- table2 --threads 8
//! ```
//!
//! One experiment name (default `all`) and any of the flags below, in any
//! order; these flags are the repository's only command-line knobs.
//! `--threads N` runs the pipeline's compile-bound stages on `N` worker
//! threads (`0` = all cores); results are bit-identical to the serial
//! default. `--cache on|off` toggles the compile-result cache, `--exec-cache
//! on|off` the stage-graph memo, `--delta-compile on|off` delta
//! treatment compilation, and `--feature-cache on|off` the span-feature
//! cache — all bit-identical either way, only throughput differs (all on by
//! default). `--snapshot-every N` writes a durable-state snapshot to
//! `results/snapshots/<experiment>.qosnap` after every `N`-th simulated day
//! of the closed-loop experiments (0 = never, the default) — outputs are
//! bit-identical either way; the write cost lands in each day's
//! `timings.snapshot_ns`. `--literals fresh|sticky[:days]|mixed:fraction`
//! selects the workload's literal-redraw policy (it changes the workload, so
//! only compare runs with the same policy).
//!
//! Each experiment writes its raw series to `results/<name>.csv` and prints
//! a summary row comparing the paper's reported shape with the measured one.
//! Absolute numbers are not expected to match (the substrate is a simulator,
//! not SCOPE's production fleet); the *shape* — who wins, by roughly what
//! factor, where the crossovers fall — is the reproduction target.

use flighting::{FlightBudget, FlightRequest, FlightingService};
use qo_advisor::config::VALIDATION_THRESHOLD;
use qo_advisor::{
    aggregate_impact, HintedComparison, PipelineConfig, ProductionSim, QoAdvisor,
    RecommendStrategy, SnapshotPolicy, ValidationModel, ValidationSample,
};
use qo_bench::corpus::{write_csv, Env};
use qo_bench::{mean, pearson, percentile, polyfit1};
use scope_ir::ids::HOLDOUT_RUN_SALT;
use scope_runtime::{Cluster, Executor};
use scope_workload::{build_view, LiteralPolicy, WorkloadConfig};

/// The run-wide knobs: defaults overridden by the command line.
struct Knobs {
    /// The base pipeline configuration every experiment derives from:
    /// defaults plus the CLI-selected parallelism and cache knobs.
    pipeline: PipelineConfig,
    /// The literal-redraw policy of every simulated workload.
    literals: LiteralPolicy,
    /// Day-boundary snapshot cadence of the closed-loop experiments (0 = never).
    snapshot_every: u32,
}

fn switch(value: &str) -> Result<bool, String> {
    match value {
        "on" | "1" | "true" => Ok(true),
        "off" | "0" | "false" => Ok(false),
        other => Err(format!("expected on|off, got `{other}`")),
    }
}

fn integer<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expected an integer, got `{value}`"))
}

type SetKnob = fn(&mut Knobs, &str) -> Result<(), String>;

/// Every flag `experiments` accepts: its name and how its value lands in
/// [`Knobs`].
const FLAGS: &[(&str, SetKnob)] = &[
    ("--threads", |k, v| {
        k.pipeline.parallelism.threads = Some(integer(v)?);
        Ok(())
    }),
    ("--cache", |k, v| {
        k.pipeline.cache.enabled = switch(v)?;
        Ok(())
    }),
    ("--exec-cache", |k, v| {
        k.pipeline.exec_cache.enabled = switch(v)?;
        Ok(())
    }),
    ("--delta-compile", |k, v| {
        k.pipeline.delta.enabled = switch(v)?;
        Ok(())
    }),
    ("--feature-cache", |k, v| {
        k.pipeline.feature_cache.enabled = switch(v)?;
        Ok(())
    }),
    ("--snapshot-every", |k, v| {
        k.snapshot_every = integer(v)?;
        Ok(())
    }),
    ("--literals", |k, v| {
        k.literals = v.parse()?;
        Ok(())
    }),
];

type Experiment = (&'static [&'static str], fn(&Knobs));

/// Every experiment: the names that select it and the function that runs it.
const EXPERIMENTS: &[Experiment] = &[
    (&["fig2", "fig4"], fig2_fig4),
    (&["fig3", "fig5"], fig3_fig5),
    (&["fig6"], fig6),
    (&["fig7", "fig8"], fig7_fig8),
    (&["fig9"], fig9),
    (&["table2", "fig10", "fig11", "fig12"], table2_and_figs),
    (&["table3"], table3),
    (&["ablation-cost-gate"], ablation_cost_gate),
    (&["ablation-span-features"], ablation_span_features),
    (&["negi-cost"], negi_maintenance_cost),
];

/// Parse the command line (program name already stripped) into the knobs
/// and the selected experiment name (`all` when none is given). Flags may
/// come before or after the name.
fn parse_args(args: &[String]) -> Result<(Knobs, String), String> {
    let mut knobs = Knobs {
        pipeline: PipelineConfig::default(),
        literals: LiteralPolicy::FreshEachRun,
        snapshot_every: 0,
    };
    let mut which: Option<&String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            let (name, set) = FLAGS
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = args
                .next()
                .ok_or_else(|| format!("{name} requires a value"))?;
            set(&mut knobs, value).map_err(|e| format!("{name}: {e}"))?;
        } else if let Some(first) = which {
            return Err(format!("one experiment per run: got `{first}` and `{arg}`"));
        } else {
            which = Some(arg);
        }
    }
    let which = which.map_or("all", String::as_str);
    if which != "all" && !EXPERIMENTS.iter().any(|(names, _)| names.contains(&which)) {
        return Err(format!("unknown experiment `{which}`"));
    }
    Ok((knobs, which.to_string()))
}

impl Knobs {
    /// The base workload every simulation experiment derives from: the
    /// given shape plus the CLI-selected literal-redraw policy.
    fn workload_config(
        &self,
        seed: u64,
        num_templates: usize,
        adhoc_per_day: usize,
        max_instances_per_day: u32,
    ) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            num_templates,
            adhoc_per_day,
            max_instances_per_day,
            literals: self.literals,
        }
    }

    /// Install the CLI-selected snapshot policy on a closed-loop
    /// simulation, writing to `results/snapshots/<name>.qosnap`. No-op
    /// unless `--snapshot-every` selected a cadence.
    fn apply_snapshot_policy(&self, sim: &mut ProductionSim, name: &str) {
        if self.snapshot_every == 0 {
            return;
        }
        let dir = std::path::Path::new("results").join("snapshots");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
        sim.set_snapshot_policy(Some(SnapshotPolicy {
            path: dir.join(format!("{name}.qosnap")),
            every: self.snapshot_every,
        }));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (knobs, which) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for (names, run) in EXPERIMENTS {
        if which == "all" || names.contains(&which.as_str()) {
            run(&knobs);
        }
    }
}

/// Figures 2 and 4: week-over-week instability of single A/B savings.
fn fig2_fig4(knobs: &Knobs) {
    println!("\n=== Figures 2 & 4: recurring-job stability (week0 vs week1) ===");
    let env = Env::standard(2022, 60, knobs.literals);
    let default = env.default_config();
    let mut svc = FlightingService::new(FlightBudget {
        queue_size: usize::MAX,
        ..FlightBudget::default()
    });
    let preprod_exec = Cluster::preproduction();

    // Every estimated-cost-improving span flip of two days of jobs (the
    // candidates the early pipeline would have A/B-tested).
    let mut requests = Vec::new();
    for day in 0..2u32 {
        for j in &env.spanned_jobs(day) {
            for (flip, cost) in env.recompile_span(j) {
                if cost.is_some_and(|c| c < j.default_cost) {
                    requests.push(FlightRequest {
                        template: j.job.template,
                        plan: j.job.plan.clone(),
                        job_seed: j.job.job_seed,
                        baseline: default,
                        treatment: default.with_flip(flip),
                    });
                }
            }
        }
    }
    let (week0, _) = svc.flight_batch(&env.optimizer, &preprod_exec, &requests);
    let (week1, _) = svc.flight_batch(&env.optimizer, &preprod_exec, &requests);

    let mut rows = Vec::new();
    let mut lat = Vec::new();
    let mut pn = Vec::new();
    for (a, b) in week0.iter().zip(week1.iter()) {
        let (Some(m0), Some(m1)) = (a.measurement(), b.measurement()) else {
            continue;
        };
        rows.push(format!(
            "{},{},{},{}",
            m0.latency_delta(),
            m1.latency_delta(),
            m0.pn_delta(),
            m1.pn_delta()
        ));
        lat.push((m0.latency_delta(), m1.latency_delta()));
        pn.push((m0.pn_delta(), m1.pn_delta()));
    }
    write_csv(
        "fig2_fig4_stability.csv",
        "w0_latency,w1_latency,w0_pn,w1_pn",
        &rows,
    );

    let regress = |pairs: &[(f64, f64)]| {
        let improved: Vec<&(f64, f64)> = pairs.iter().filter(|(w0, _)| *w0 < 0.0).collect();
        if improved.is_empty() {
            return 0.0;
        }
        improved.iter().filter(|(_, w1)| *w1 > 0.0).count() as f64 / improved.len() as f64
    };
    println!("  jobs flighted twice: {}", lat.len());
    println!(
        "  Fig 2 latency: {:.0}% of week0-improved jobs regressed in week1 (paper: >40%)",
        100.0 * regress(&lat)
    );
    println!(
        "  Fig 4 PNhours: {:.0}% of week0-improved jobs regressed in week1 (paper: >40%)",
        100.0 * regress(&pn)
    );
}

/// Figures 3 and 5: A/A variance of latency vs PNhours.
fn fig3_fig5(knobs: &Knobs) {
    println!("\n=== Figures 3 & 5: A/A variance (10 runs per job) ===");
    let env = Env::standard(2022, 60, knobs.literals);
    let default = env.default_config();
    let jobs = env.workload.jobs_for_day(0);
    let mut points = Vec::new();
    for job in &jobs {
        let Ok(compiled) = env.optimizer.compile(&job.plan, &default) else {
            continue;
        };
        let runs = flighting::run_aa(&compiled.physical, &env.cluster, job.job_seed, 10);
        let lat: Vec<f64> = runs.iter().map(|m| m.latency_sec).collect();
        let pn: Vec<f64> = runs.iter().map(|m| m.pn_hours).collect();
        points.push((
            mean(&lat),
            flighting::aa::coefficient_of_variation(&lat),
            flighting::aa::coefficient_of_variation(&pn),
        ));
    }
    let max_t = points.iter().map(|p| p.0).fold(1e-12, f64::max);
    let rows: Vec<String> = points
        .iter()
        .map(|(t, cl, cp)| format!("{},{},{}", t / max_t, cl, cp))
        .collect();
    write_csv(
        "fig3_fig5_aa_variance.csv",
        "norm_exec_time,cv_latency,cv_pnhours",
        &rows,
    );

    let over5 = |sel: &dyn Fn(&(f64, f64, f64)) -> f64| {
        100.0 * points.iter().filter(|p| sel(p) > 0.05).count() as f64 / points.len() as f64
    };
    println!("  jobs: {}", points.len());
    println!(
        "  Fig 3 latency: {:.0}% of jobs exceed 5% variance (paper: >90%)",
        over5(&|p| p.1)
    );
    println!(
        "  Fig 5 PNhours: {:.0}% of jobs exceed 5% variance (paper: <50%)",
        over5(&|p| p.2)
    );
}

/// Figure 6: estimated-cost deltas do not predict latency deltas.
fn fig6(knobs: &Knobs) {
    println!("\n=== Figure 6: estimated-cost delta vs latency delta ===");
    let env = Env::standard(2022, 60, knobs.literals);
    let default = env.default_config();
    let mut svc = FlightingService::new(FlightBudget {
        queue_size: usize::MAX,
        ..FlightBudget::default()
    });
    let preprod_exec = Cluster::preproduction();
    let mut est = Vec::new();
    let mut lat = Vec::new();
    // ~5 days of jobs, every lower-estimate flip per job (paper: 950 jobs
    // over 5 days).
    'days: for day in 0..5u32 {
        let jobs = env.spanned_jobs(day);
        let mut requests = Vec::new();
        let mut deltas = Vec::new();
        for j in &jobs {
            for (flip, cost) in env.recompile_span(j) {
                let Some(cost) = cost else { continue };
                if cost >= j.default_cost {
                    continue;
                }
                deltas.push(cost / j.default_cost - 1.0);
                requests.push(FlightRequest {
                    template: j.job.template,
                    plan: j.job.plan.clone(),
                    job_seed: j.job.job_seed,
                    baseline: default,
                    treatment: default.with_flip(flip),
                });
            }
        }
        let (outcomes, _) = svc.flight_batch(&env.optimizer, &preprod_exec, &requests);
        for (d, o) in deltas.iter().zip(outcomes.iter()) {
            if let Some(m) = o.measurement() {
                est.push(*d);
                lat.push(m.latency_delta());
                if est.len() >= 1000 {
                    break 'days;
                }
            }
        }
    }
    let rows: Vec<String> = est
        .iter()
        .zip(lat.iter())
        .map(|(e, l)| format!("{e},{l}"))
        .collect();
    write_csv(
        "fig6_estcost_vs_latency.csv",
        "est_cost_delta,latency_delta",
        &rows,
    );

    let r = pearson(&est, &lat);
    let med = percentile(&est, 50.0);
    let big_improvers: Vec<usize> = (0..est.len()).filter(|&i| est[i] <= med).collect();
    let regressed = big_improvers.iter().filter(|&&i| lat[i] > 0.0).count() as f64
        / big_improvers.len().max(1) as f64;
    println!("  (job, flip) pairs flighted: {}", est.len());
    println!("  Pearson r(est delta, latency delta) = {r:+.3} (paper: no real correlation)");
    println!(
        "  Among the most-improving half of estimates, {:.0}% regressed in latency (paper: >40%)",
        100.0 * regressed
    );
}

/// Gather (DataRead delta, DataWritten delta, PN delta) flighting samples.
fn gather_samples(env: &Env, days: std::ops::Range<u32>, salt: u64) -> Vec<ValidationSample> {
    let default = env.default_config();
    let mut svc = FlightingService::new(FlightBudget {
        queue_size: usize::MAX,
        ..FlightBudget::default()
    });
    let preprod_exec = Cluster::preproduction();
    let mut samples = Vec::new();
    for day in days {
        let jobs = env.spanned_jobs(day);
        let requests: Vec<FlightRequest> = jobs
            .iter()
            .map(|j| {
                let flip = env.random_flip(j, salt ^ u64::from(day));
                FlightRequest {
                    template: j.job.template,
                    plan: j.job.plan.clone(),
                    job_seed: j.job.job_seed,
                    baseline: default,
                    treatment: default.with_flip(flip),
                }
            })
            .collect();
        let (outcomes, _) = svc.flight_batch(&env.optimizer, &preprod_exec, &requests);
        samples.extend(
            outcomes
                .iter()
                .filter_map(|o| o.measurement())
                .map(|m| ValidationSample {
                    data_read_delta: m.data_read_delta(),
                    data_written_delta: m.data_written_delta(),
                    pn_delta: m.pn_delta(),
                }),
        );
    }
    samples
}

/// Figures 7 and 8: DataRead/DataWritten deltas correlate with PN deltas.
fn fig7_fig8(knobs: &Knobs) {
    println!("\n=== Figures 7 & 8: data deltas predict PNhours deltas ===");
    let env = Env::standard(2022, 60, knobs.literals);
    let samples = gather_samples(&env, 0..3, 0x77);
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{},{},{}",
                s.data_read_delta, s.data_written_delta, s.pn_delta
            )
        })
        .collect();
    write_csv(
        "fig7_fig8_data_vs_pn.csv",
        "data_read_delta,data_written_delta,pn_delta",
        &rows,
    );

    let dr: Vec<f64> = samples.iter().map(|s| s.data_read_delta).collect();
    let dw: Vec<f64> = samples.iter().map(|s| s.data_written_delta).collect();
    let pn: Vec<f64> = samples.iter().map(|s| s.pn_delta).collect();
    let (a_r, b_r) = polyfit1(&dr, &pn);
    let (a_w, b_w) = polyfit1(&dw, &pn);
    println!("  samples: {}", samples.len());
    println!(
        "  Fig 7 DataRead:    r = {:+.3}, fit pn = {:+.3} + {:+.3}*dr (paper: clear positive trend)",
        pearson(&dr, &pn),
        a_r,
        b_r
    );
    println!(
        "  Fig 8 DataWritten: r = {:+.3}, fit pn = {:+.3} + {:+.3}*dw (paper: positive trend, weaker)",
        pearson(&dw, &pn),
        a_w,
        b_w
    );
}

/// Figure 9: validation-model accuracy on held-out days.
fn fig9(knobs: &Knobs) {
    println!("\n=== Figure 9: validation model, predicted vs actual PN delta ===");
    let env = Env::standard(2022, 60, knobs.literals);
    // Train on a 14-day window of random pre-production flights (Â§4.3);
    // evaluate against what actually happens in *production*: paired
    // default/flip runs of later days' jobs on the production cluster.
    let train = gather_samples(&env, 0..14, 0x7A11);
    let model = ValidationModel::fit(&train).expect("enough training samples");
    let default = env.default_config();
    let mut test = Vec::new();
    for day in 14..18u32 {
        for j in &env.spanned_jobs(day) {
            let flip = env.random_flip(j, 0x7E57 ^ u64::from(day));
            let Ok(treated) = env.optimizer.compile(&j.job.plan, &default.with_flip(flip)) else {
                continue;
            };
            let base = env
                .optimizer
                .compile(&j.job.plan, &default)
                .expect("default compiles");
            let run_seed = HOLDOUT_RUN_SALT.mix(u64::from(day));
            let m_base = env
                .cluster
                .execute(&base.physical, j.job.job_seed, run_seed);
            let m_new = env
                .cluster
                .execute(&treated.physical, j.job.job_seed, run_seed);
            test.push(ValidationSample {
                data_read_delta: m_new.data_read_delta(&m_base),
                data_written_delta: m_new.data_written_delta(&m_base),
                pn_delta: m_new.pn_delta(&m_base),
            });
        }
    }

    let rows: Vec<String> = test
        .iter()
        .map(|s| {
            format!(
                "{},{}",
                model.predict(s.data_read_delta, s.data_written_delta),
                s.pn_delta
            )
        })
        .collect();
    write_csv(
        "fig9_predicted_vs_actual.csv",
        "predicted_pn_delta,actual_pn_delta",
        &rows,
    );

    let passing: Vec<&ValidationSample> = test
        .iter()
        .filter(|s| model.predict(s.data_read_delta, s.data_written_delta) < VALIDATION_THRESHOLD)
        .collect();
    let below_01 =
        passing.iter().filter(|s| s.pn_delta < -0.1).count() as f64 / passing.len().max(1) as f64;
    let below_0 =
        passing.iter().filter(|s| s.pn_delta < 0.0).count() as f64 / passing.len().max(1) as f64;
    println!(
        "  train {} / test {} samples; model: pn = {:+.3} {:+.3}*dr {:+.3}*dw (R2 test {:.2})",
        train.len(),
        test.len(),
        model.intercept,
        model.w_read,
        model.w_written,
        model.r_squared(&test)
    );
    println!("  of jobs predicted < -0.1: {} jobs", passing.len());
    println!(
        "    {:.0}% had actual delta < -0.1 (paper: 85%)",
        100.0 * below_01
    );
    println!(
        "    {:.0}% had actual delta <  0.0 (paper: 91%)",
        100.0 * below_0
    );
}

/// Table 2 and Figures 10-12: end-to-end production impact.
fn table2_and_figs(knobs: &Knobs) {
    println!("\n=== Table 2 + Figures 10-12: pre-production impact of QO-Advisor ===");
    let mut sim = ProductionSim::new(
        knobs.workload_config(2022, 60, 15, 2),
        knobs.pipeline.clone(),
    );
    knobs.apply_snapshot_policy(&mut sim, "table2");
    sim.bootstrap_validation_model(5, 24)
        .expect("generated workloads compile on the default path");
    let outcomes = sim
        .run(25)
        .expect("generated workloads compile on the default path");
    let mut comparisons: Vec<HintedComparison> = Vec::new();
    for o in &outcomes {
        comparisons.extend(o.comparisons.iter().copied());
    }
    let agg = aggregate_impact(&comparisons);

    let series = |f: &dyn Fn(&HintedComparison) -> f64| {
        let mut v: Vec<f64> = comparisons.iter().map(f).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    };
    let pn = series(&|c| c.pn_delta());
    let lat = series(&|c| c.latency_delta());
    let vert = series(&|c| c.vertices_delta());
    let rows: Vec<String> = (0..pn.len())
        .map(|i| format!("{},{},{},{}", i, pn[i], lat[i], vert[i]))
        .collect();
    write_csv(
        "fig10_11_12_deltas.csv",
        "rank,pn_delta,latency_delta,vertices_delta",
        &rows,
    );

    let improved =
        |v: &[f64]| 100.0 * v.iter().filter(|d| **d < 0.0).count() as f64 / v.len().max(1) as f64;
    println!("  hint-matched production jobs measured: {}", agg.jobs);
    println!("  Table 2 (paper -> ours):");
    println!("    PNhours  -14.3%  ->  {:+.1}%", agg.pn_hours_pct);
    println!("    Latency   -8.9%  ->  {:+.1}%", agg.latency_pct);
    println!("    Vertices -52.8%  ->  {:+.1}%", agg.vertices_pct);
    if !pn.is_empty() {
        println!(
            "  Fig 10 PNhours deltas: {:.0}% improved; best {:+.0}%, worst {:+.0}% (paper: ~80%, -50%, +15%)",
            improved(&pn),
            100.0 * pn[0],
            100.0 * pn[pn.len() - 1]
        );
        println!(
            "  Fig 11 latency deltas: {:.0}% improved; best {:+.0}%, worst {:+.0}% (paper: ~80%, -90%, +45%)",
            improved(&lat),
            100.0 * lat[0],
            100.0 * lat[lat.len() - 1]
        );
        println!(
            "  Fig 12 vertices deltas: best {:+.0}%, worst {:+.0}%; {} of {} regressed (paper: -60%, +10%, 2 jobs)",
            100.0 * vert[0],
            100.0 * vert[vert.len() - 1],
            vert.iter().filter(|d| **d > 0.0).count(),
            vert.len()
        );
    }
}

/// Table 3: contextual bandit vs uniform-random rule flips.
fn table3(knobs: &Knobs) {
    println!("\n=== Table 3: random vs CB rule flips ===");
    let wl = knobs.workload_config(2022, 60, 15, 2);
    // Train the CB through the daily loop.
    let mut sim = ProductionSim::new(wl.clone(), knobs.pipeline.clone());
    knobs.apply_snapshot_policy(&mut sim, "table3");
    sim.bootstrap_validation_model(3, 16)
        .expect("generated workloads compile on the default path");
    for _ in 0..30 {
        sim.advance_day()
            .expect("generated workloads compile on the default path");
    }
    // Evaluation day: identical jobs/view (no hints) for both policies.
    let eval_day = sim.day;
    let jobs = sim.workload.jobs_for_day(eval_day);
    let view = build_view(
        &jobs,
        sim.advisor.caching_optimizer(),
        &Default::default(),
        sim.prod_executor(),
    )
    .expect("generated workloads compile on the default path");
    let report_cb = sim
        .advisor
        .run_day(&view, eval_day)
        .expect("pipeline day runs");

    let mut random = QoAdvisor::new(PipelineConfig {
        strategy: RecommendStrategy::UniformRandom,
        ..knobs.pipeline.clone()
    });
    let report_rand = random.run_day(&view, eval_day).expect("pipeline day runs");

    let pct = |n: usize, d: usize| 100.0 * n as f64 / d.max(1) as f64;
    let n_cb = report_cb.jobs_with_span;
    let n_rd = report_rand.jobs_with_span;
    let rows = vec![
        format!(
            "lower_cost,{},{}",
            report_rand.lower_cost, report_cb.lower_cost
        ),
        format!(
            "equal_cost,{},{}",
            report_rand.equal_cost, report_cb.equal_cost
        ),
        format!(
            "higher_cost,{},{}",
            report_rand.higher_cost, report_cb.higher_cost
        ),
        format!(
            "recompile_failures,{},{}",
            report_rand.recompile_failures, report_cb.recompile_failures
        ),
        format!("noop,{},{}", report_rand.noop_chosen, report_cb.noop_chosen),
        format!(
            "total_default_cost,{},{}",
            report_rand.total_default_cost, report_cb.total_default_cost
        ),
        format!(
            "total_chosen_cost,{},{}",
            report_rand.total_chosen_cost, report_cb.total_chosen_cost
        ),
    ];
    write_csv("table3_random_vs_cb.csv", "metric,random,cb", &rows);

    println!("  spanned jobs: random {n_rd}, cb {n_cb} (paper: ~66% non-empty span)");
    println!("                       Random          CB       (paper Random / CB)");
    println!(
        "    Lower cost      {:4} ({:4.1}%)  {:4} ({:4.1}%)   (10.6% / 34.5%)",
        report_rand.lower_cost,
        pct(report_rand.lower_cost, n_rd),
        report_cb.lower_cost,
        pct(report_cb.lower_cost, n_cb)
    );
    println!(
        "    Equal cost      {:4} ({:4.1}%)  {:4} ({:4.1}%)   (35.4% / 32.1%)",
        report_rand.equal_cost,
        pct(report_rand.equal_cost + report_rand.noop_chosen, n_rd),
        report_cb.equal_cost,
        pct(report_cb.equal_cost + report_cb.noop_chosen, n_cb)
    );
    println!(
        "    Higher cost     {:4} ({:4.1}%)  {:4} ({:4.1}%)   (36.0% / 19.5%)",
        report_rand.higher_cost,
        pct(report_rand.higher_cost, n_rd),
        report_cb.higher_cost,
        pct(report_cb.higher_cost, n_cb)
    );
    println!(
        "    Recompile fail  {:4} ({:4.1}%)  {:4} ({:4.1}%)   (18.0% / 13.9%)",
        report_rand.recompile_failures,
        pct(report_rand.recompile_failures, n_rd),
        report_cb.recompile_failures,
        pct(report_cb.recompile_failures, n_cb)
    );
    println!(
        "    Total est cost  {:.3e} -> {:.3e} (x{:.2} vs default) | CB {:.3e} (x{:.2})   (paper: 1.7e11 -> 1.0e9)",
        report_rand.total_default_cost,
        report_rand.total_chosen_cost,
        report_rand.total_chosen_cost / report_rand.total_default_cost.max(1e-12),
        report_cb.total_chosen_cost,
        report_cb.total_chosen_cost / report_cb.total_default_cost.max(1e-12),
    );
}

/// §5.2 ablation: without estimated-cost gating, flighting drowns.
fn ablation_cost_gate(knobs: &Knobs) {
    println!("\n=== §5.2 ablation: estimated-cost gate removed ===");
    // A realistic (tight) daily flighting budget.
    let tight = FlightBudget {
        total_seconds: 6.0 * 3600.0,
        queue_size: 64,
    };
    let run_one = |gate: bool| {
        let wl = knobs.workload_config(2022, 60, 15, 2);
        let mut sim = ProductionSim::new(
            wl,
            PipelineConfig {
                strategy: RecommendStrategy::UniformRandom,
                est_cost_gate: gate,
                flight_budget: tight.clone(),
                max_flights_per_day: 64,
                ..knobs.pipeline.clone()
            },
        );
        let out = sim
            .advance_day()
            .expect("generated workloads compile on the default path");
        (
            out.report.flighted,
            out.report.flight_success,
            out.report.flight_timeout,
            out.report.flight_seconds_used,
        )
    };
    let (f_gate, s_gate, t_gate, sec_gate) = run_one(true);
    let (f_none, s_none, t_none, sec_none) = run_one(false);
    write_csv(
        "ablation_cost_gate.csv",
        "config,flighted,success,timeout,seconds_used",
        &[
            format!("gated,{f_gate},{s_gate},{t_gate},{sec_gate}"),
            format!("ungated,{f_none},{s_none},{t_none},{sec_none}"),
        ],
    );
    println!(
        "  with cost gate:    {f_gate} flighted, {s_gate} success, {t_gate} timeout, {:.1}h used",
        sec_gate / 3600.0
    );
    println!(
        "  without cost gate: {f_none} flighted, {s_none} success, {t_none} timeout, {:.1}h used",
        sec_none / 3600.0
    );
    println!(
        "  (paper: without cost-based filters, flighting could not complete in 3 days;\n   \
         expect timeouts/abandoned flights to dominate the ungated run)"
    );
}

/// §6 ablation: "the surprising effectiveness of span features". Train two
/// CBs through the same daily loops — one with the full span context, one
/// with span features stripped — then compare their single-day
/// recommendation quality on identical jobs.
fn ablation_span_features(knobs: &Knobs) {
    println!("\n=== §6 ablation: span features in the CB context ===");
    let wl = knobs.workload_config(2022, 60, 15, 2);
    // Accumulate the acting-policy quality over the back half of training
    // (the first half is warm-up for both variants).
    let run_policy = |span_features: bool| {
        let mut sim = ProductionSim::new(
            wl.clone(),
            PipelineConfig {
                span_features,
                ..knobs.pipeline.clone()
            },
        );
        sim.bootstrap_validation_model(3, 16)
            .expect("generated workloads compile on the default path");
        let mut acc = qo_advisor::DailyReport::default();
        for i in 0..26 {
            let out = sim
                .advance_day()
                .expect("generated workloads compile on the default path");
            if i >= 13 {
                acc.lower_cost += out.report.lower_cost;
                acc.equal_cost += out.report.equal_cost;
                acc.higher_cost += out.report.higher_cost;
                acc.recompile_failures += out.report.recompile_failures;
                acc.noop_chosen += out.report.noop_chosen;
            }
        }
        acc
    };
    let with = run_policy(true);
    let without = run_policy(false);
    write_csv(
        "ablation_span_features.csv",
        "config,lower,equal,higher,fail,noop",
        &[
            format!(
                "with_span,{},{},{},{},{}",
                with.lower_cost,
                with.equal_cost,
                with.higher_cost,
                with.recompile_failures,
                with.noop_chosen
            ),
            format!(
                "without_span,{},{},{},{},{}",
                without.lower_cost,
                without.equal_cost,
                without.higher_cost,
                without.recompile_failures,
                without.noop_chosen
            ),
        ],
    );
    println!(
        "  with span features:    lower {:>3}  higher {:>3}  fail {:>2}",
        with.lower_cost, with.higher_cost, with.recompile_failures
    );
    println!(
        "  without span features: lower {:>3}  higher {:>3}  fail {:>2}",
        without.lower_cost, without.higher_cost, without.recompile_failures
    );
    println!(
        "  (paper §6: complete-span context features were \"critical to our success\";\n   \
         expect the stripped model to find fewer lower-cost flips and/or regress more)"
    );
}

/// §2.2 "expensive to maintain": the per-job search cost of the Negi et al.
/// 2021 heuristic (sample 1000 configurations, flight the top 10) against
/// QO-Advisor's per-job cost (2 recompiles, amortized span, ≤1 flight per
/// template).
fn negi_maintenance_cost(knobs: &Knobs) {
    println!("\n=== §2.2 maintenance cost: Negi et al. 2021 vs QO-Advisor ===");
    let env = Env::standard(2022, 60, knobs.literals);
    let mut svc = FlightingService::new(FlightBudget {
        queue_size: usize::MAX,
        ..FlightBudget::default()
    });
    let preprod_exec = Cluster::preproduction();
    // A scaled-down heuristic (200 samples instead of 1000) keeps the bench
    // quick; the printed numbers extrapolate linearly.
    let heuristic = qo_advisor::Negi2021 {
        samples: 200,
        top_k: 10,
    };
    let jobs = env.spanned_jobs(0);
    let mut rows = Vec::new();
    let mut total_recompiles = 0usize;
    let mut total_flights = 0usize;
    let mut total_flight_hours = 0.0;
    let mut wins = 0usize;
    let take = jobs.len().min(12);
    for j in jobs.iter().take(take) {
        let out = heuristic.search(
            &env.optimizer,
            &mut svc,
            &preprod_exec,
            j.job.template,
            &j.job.plan,
            j.job.job_seed,
            &j.span,
        );
        total_recompiles += out.recompiles;
        total_flights += out.flights;
        total_flight_hours += out.flight_seconds / 3600.0;
        wins += usize::from(out.chosen.is_some());
        rows.push(format!(
            "{},{},{},{:.2},{}",
            j.job.template,
            out.recompiles,
            out.flights,
            out.flight_seconds / 3600.0,
            out.chosen.is_some()
        ));
    }
    write_csv(
        "negi_cost.csv",
        "template,recompiles,flights,flight_hours,found",
        &rows,
    );
    println!("  Negi-2021 over {take} jobs (200-sample scale-down of the 1000-sample search):");
    println!(
        "    {:.0} recompiles/job, {:.1} flights/job, {:.2} flight-hours/job, {} wins",
        total_recompiles as f64 / take as f64,
        total_flights as f64 / take as f64,
        total_flight_hours / take as f64,
        wins
    );
    println!(
        "  QO-Advisor per job: 2 recompiles (uniform + acting pass), span amortized per\n  \
         template, at most 1 flight per template — a ~{:.0}x recompile reduction even at\n  \
         the scaled-down sample count (5x more at the paper's 1000 samples).",
        (total_recompiles as f64 / take as f64) / 2.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Knobs, String), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_run_every_experiment_at_the_defaults() {
        let (knobs, which) = parse(&[]).unwrap();
        assert_eq!(which, "all");
        assert_eq!(
            format!("{:?}", knobs.pipeline),
            format!("{:?}", PipelineConfig::default())
        );
        assert_eq!(knobs.snapshot_every, 0);
        assert_eq!(
            knobs.workload_config(1, 2, 3, 4).literals,
            WorkloadConfig::default().literals
        );
    }

    #[test]
    fn each_flag_lands_in_its_config_field() {
        let (knobs, which) = parse(&[
            "--threads",
            "8",
            "--cache",
            "off",
            "table2",
            "--exec-cache",
            "0",
            "--delta-compile",
            "false",
            "--feature-cache",
            "off",
            "--snapshot-every",
            "5",
            "--literals",
            "sticky:7",
        ])
        .unwrap();
        assert_eq!(which, "table2");
        let cfg = &knobs.pipeline;
        assert_eq!(cfg.parallelism.threads, Some(8));
        assert_eq!(cfg.cache, qo_advisor::CacheConfig::disabled());
        assert_eq!(cfg.exec_cache, qo_advisor::ExecCacheConfig::disabled());
        assert_eq!(cfg.delta, qo_advisor::DeltaConfig::disabled());
        assert_eq!(
            cfg.feature_cache,
            qo_advisor::FeatureCacheConfig::disabled()
        );
        assert_eq!(knobs.snapshot_every, 5);
        let wl = knobs.workload_config(2022, 60, 15, 2);
        assert_eq!(
            wl.literals,
            LiteralPolicy::Sticky {
                redraw_every_days: 7
            }
        );
        assert_eq!(
            (
                wl.seed,
                wl.num_templates,
                wl.adhoc_per_day,
                wl.max_instances_per_day
            ),
            (2022, 60, 15, 2)
        );
        // One flag leaves the others at their defaults.
        let cfg = parse(&["--cache", "on"]).unwrap().0.pipeline;
        assert_eq!(cfg.cache, PipelineConfig::default().cache);
        assert_eq!(cfg.parallelism.threads, None);
    }

    #[test]
    fn every_experiment_name_is_accepted() {
        for (names, _) in EXPERIMENTS {
            for name in *names {
                assert_eq!(parse(&[name]).unwrap().1, *name);
            }
        }
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for (args, needle) in [
            (&["--threads"][..], "requires a value"),
            (&["table2", "--literals"], "requires a value"),
            (&["--threads", "many"], "expected an integer"),
            (&["--snapshot-every", "-1"], "expected an integer"),
            (&["--cache", "maybe"], "expected on|off"),
            (
                &["--compile-budget", "48"],
                "unknown flag `--compile-budget`",
            ),
            (&["--literals", "mixed:2"], "outside [0, 1]"),
            (&["--thraeds", "8"], "unknown flag `--thraeds`"),
            (&["table2", "table3"], "one experiment per run"),
            (&["table9"], "unknown experiment `table9`"),
        ] {
            let err = parse(args).map(|(_, which)| which).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
