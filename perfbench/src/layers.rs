//! Per-layer metrics: what the traced run's spans say about each layer in
//! situ, plus a replay pass that times each layer's public function in
//! isolation on the jobs captured from the last traced day.
//!
//! Every layer is timed from outside, through a public function of its
//! crate; nothing here reaches into the program. Each metric is a median (or
//! a named percentile) over its samples.

use crate::stats::{median, ns_to_ms, ns_to_us, quantile, timed, MetricSet};
use crate::trace::{self, Recorder};
use crate::workloads::{Kind, Spec};
use personalizer::{Personalizer, RankRequest, SparseSlate};
use qo_advisor::{
    action_slate, context_features, CacheStats, DailyReport, ExecStats, Fleet, ProductionSim,
    SteeringSnapshot,
};
use scope_ir::ids::production_run_seed;
use scope_ir::LatencyHistogram;
use scope_lang::{parse_script, Binder};
use scope_opt::{
    compute_span, CacheConfig, CachingOptimizer, CompileBudget, CompileCache, DeltaConfig,
    Optimizer, RuleFlip,
};
use scope_runtime::{CachingExecutor, Cluster, ExecCacheConfig, Executor};
use scope_workload::{JobInstance, Table1Features};
use sis::{HintFile, SisStore};
use std::path::Path;

/// Most distinct plans (and templates) the replay pass times per layer.
const REPLAY_SAMPLE: usize = 400;

fn p50_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| ns_to_us(n)).collect::<Vec<_>>())
}

fn p50_ms(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| ns_to_ms(n)).collect::<Vec<_>>())
}

fn ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        f64::NAN
    } else {
        hits as f64 / lookups as f64
    }
}

/// Lifetime counters of the probe tenant's loop, read before and after
/// every day of the traced phase.
#[derive(Clone, Copy)]
pub struct Counters {
    compile: CacheStats,
    exec: ExecStats,
    events: u64,
    day: u32,
}

impl Counters {
    pub fn read(sim: &ProductionSim) -> Self {
        Self {
            compile: sim.advisor.cache_stats(),
            exec: sim.advisor.exec_stats(),
            events: sim.advisor.personalizer().events(),
            day: sim.day,
        }
    }
}

/// Cache and bandit traffic of the traced phase, summed day by day.
#[derive(Default)]
pub struct Traffic {
    compile: CacheStats,
    exec: ExecStats,
    events: u64,
    days: u32,
}

impl Traffic {
    /// Add one day's traffic. After a restart the caches are new and their
    /// lifetime counters began at zero inside this day, so `after` alone is
    /// the day's cache traffic; the bandit's event count and the day counter
    /// are restored state and keep running.
    pub fn add_day(&mut self, before: &Counters, after: &Counters, restarted: bool) {
        let (compile, exec) = if restarted {
            (after.compile, after.exec)
        } else {
            (
                after.compile.since(&before.compile),
                after.exec.since(&before.exec),
            )
        };
        self.compile = self.compile + compile;
        self.exec = self.exec + exec;
        self.events += after.events - before.events;
        self.days += after.day - before.day;
    }
}

/// Metrics read off the traced run itself: the harness's spans around the
/// decomposed days, the program's own per-stage clocks in those days'
/// reports, and counter deltas over the traced phase.
pub fn in_situ(
    rec: &Recorder,
    reports: &[DailyReport],
    traffic: &Traffic,
    m: &mut MetricSet,
) -> Result<(), String> {
    // Per decomposed day: wall, jobs_for_day, every build_view_row, finish_day.
    struct Day {
        wall: u64,
        jobs_for_day: u64,
        rows: Vec<u64>,
        finish: u64,
    }
    // Spans are recorded in start order and days do not nest, so every
    // span belongs to the last day opened. The fleet's own day spans have no
    // `finish_day` under them and drop out.
    let mut days: Vec<Day> = Vec::new();
    for s in rec.spans() {
        match (s.name, days.last_mut()) {
            (trace::DAY, _) => days.push(Day {
                wall: s.ns(),
                jobs_for_day: 0,
                rows: Vec::new(),
                finish: 0,
            }),
            (trace::JOBS_FOR_DAY, Some(day)) => day.jobs_for_day = s.ns(),
            (trace::BUILD_ROW, Some(day)) => day.rows.push(s.ns()),
            (trace::FINISH_DAY, Some(day)) => day.finish = s.ns(),
            _ => {}
        }
    }
    days.retain(|d| d.finish > 0);
    if days.len() != reports.len() || days.is_empty() {
        return Err(format!(
            "{} decomposed day spans for {} reports",
            days.len(),
            reports.len()
        ));
    }

    let per_day = |f: &dyn Fn(&Day) -> u64| -> Vec<u64> { days.iter().map(f).collect() };
    let per_report =
        |f: &dyn Fn(&DailyReport) -> u64| -> Vec<u64> { reports.iter().map(f).collect() };
    let all_rows: Vec<f64> = days
        .iter()
        .flat_map(|d| d.rows.iter().map(|&n| ns_to_us(n)))
        .collect();
    let mean = |total: usize| total as f64 / reports.len() as f64;

    let walls_ms: Vec<f64> = days.iter().map(|d| ns_to_ms(d.wall)).collect();
    m.set("core.day_ms_p50", median(&walls_ms));
    m.set("core.day_ms_p90", quantile(&walls_ms, 0.9));
    m.set(
        "scope-workload.jobs_for_day_ms_p50",
        p50_ms(&per_day(&|d| d.jobs_for_day)),
    );
    m.set(
        "scope-workload.jobs_per_day",
        mean(days.iter().map(|d| d.rows.len()).sum()),
    );
    m.set("core.build_row_us_p50", median(&all_rows));
    m.set("core.build_row_us_p99", quantile(&all_rows, 0.99));
    m.set("core.finish_day_ms_p50", p50_ms(&per_day(&|d| d.finish)));
    m.set(
        "core.view_build_ms_p50",
        p50_ms(&per_day(&|d| d.rows.iter().sum())),
    );
    m.set(
        "core.counterfactual_ms_p50",
        p50_ms(&per_report(&|r| r.timings.counterfactual_ns)),
    );
    m.set(
        "core.feature_gen_ms_p50",
        p50_ms(&per_report(&|r| r.timings.feature_gen_ns)),
    );
    m.set(
        "core.recommend_ms_p50",
        p50_ms(&per_report(&|r| r.timings.recommend_ns)),
    );
    m.set(
        "core.flight_ms_p50",
        p50_ms(&per_report(&|r| r.timings.flight_ns)),
    );
    m.set(
        "core.validate_ms_p50",
        p50_ms(&per_report(&|r| r.timings.validate_ns)),
    );
    m.set(
        "core.publish_ms_p50",
        p50_ms(&per_report(&|r| r.timings.publish_ns)),
    );
    // What no clock claims: the day's wall minus the rows the harness timed
    // and every stage the program timed itself (`finish_day` leaves
    // `view_build_ns` at zero, so nothing is counted twice; a restore is
    // billed to the day it precedes but spanned outside it).
    let unattributed: Vec<f64> = days
        .iter()
        .zip(reports)
        .map(|(d, r)| {
            let claimed = d.rows.iter().sum::<u64>() + r.timings.total_ns() - r.timings.restore_ns;
            d.wall.saturating_sub(claimed) as f64 / d.wall as f64
        })
        .collect();
    m.set("core.unattributed_share", median(&unattributed));

    let feature: CacheStats = reports
        .iter()
        .map(|r| r.feature_cache)
        .fold(CacheStats::default(), |a, b| a + b);
    m.set(
        "core.feature_cache_hit_ratio",
        ratio(feature.hits, feature.lookups()),
    );
    let flighted: usize = reports.iter().map(|r| r.flighted).sum();
    let flight_ns: u64 = reports.iter().map(|r| r.timings.flight_ns).sum();
    m.set("flighting.flights_per_day", mean(flighted));
    m.set(
        "flighting.flight_ms_per_request",
        ns_to_ms(flight_ns) / flighted.max(1) as f64,
    );

    let (compile, exec) = (traffic.compile, traffic.exec);
    m.set(
        "scope-opt.compile_cache_hit_ratio",
        ratio(compile.hits, compile.lookups()),
    );
    m.set(
        "scope-runtime.result_hit_ratio",
        ratio(exec.results.hits, exec.results.lookups()),
    );
    m.set(
        "scope-runtime.graph_hit_ratio",
        ratio(exec.graphs.hits, exec.graphs.lookups()),
    );
    m.set(
        "personalizer.events_per_day",
        traffic.events as f64 / f64::from(traffic.days.max(1)),
    );
    Ok(())
}

/// The replay pass: each layer's public function, alone, on `jobs` (the last
/// traced day's submissions) and on `probe`'s state as the traced run left
/// it. `scratch` is a private directory for the disk-backed layers.
/// `restarts_ns` are the wall times of the restarts the run itself did
/// (`durable_restart`: drop, rebuild over the disk SIS, `restore`); where
/// there were any they are `core.restore_ms_p50`, and only a workload that
/// never restarts reports what a restore of its state into a fresh sim costs.
pub fn replay(
    probe: &ProductionSim,
    jobs: &[JobInstance],
    restarts_ns: &[u64],
    scratch: &Path,
    m: &mut MetricSet,
) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let config = probe.advisor.config();
    let optimizer = Optimizer::default();
    let default = optimizer.default_config();
    let cluster = Cluster::default();

    // One job per distinct plan: repeats would only time the same work twice.
    let mut seen = std::collections::BTreeSet::new();
    let distinct: Vec<&JobInstance> = jobs
        .iter()
        .filter(|j| seen.insert(CompileCache::plan_fingerprint(&j.plan)))
        .take(REPLAY_SAMPLE)
        .collect();
    if distinct.is_empty() {
        return Err("no captured jobs to replay".to_string());
    }

    // scope-lang: the scripts recurring templates submit on the captured day.
    let day = distinct[0].day;
    let (mut parse_ns, mut bind_ns) = (Vec::new(), Vec::new());
    for template in probe.workload.recurring.iter().take(REPLAY_SAMPLE) {
        let (script, catalog) =
            template
                .spec
                .instantiate_with(probe.workload.config.literals, day, 0);
        let (ast, ns) = timed(|| parse_script(&script));
        let ast = ast.map_err(|e| format!("generated script does not parse: {e}"))?;
        parse_ns.push(ns);
        let (plan, ns) = timed(|| Binder::new(&catalog).bind(&ast));
        plan.map_err(|e| format!("generated script does not bind: {e}"))?;
        bind_ns.push(ns);
    }
    m.set("scope-lang.parse_us_p50", p50_us(&parse_ns));
    m.set("scope-lang.bind_us_p50", p50_us(&bind_ns));

    // scope-opt (uncached), scope-runtime (uncached), Table-1, span.
    let (mut compile_ns, mut exec_ns, mut table1_ns, mut span_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut tasks, mut memo_exprs) = (0u64, 0usize);
    let mut prepared = Vec::with_capacity(distinct.len());
    for job in &distinct {
        let (compiled, ns) = timed(|| optimizer.compile(&job.plan, &default));
        let compiled = compiled.map_err(|e| format!("captured job does not compile: {e}"))?;
        compile_ns.push(ns);
        memo_exprs += compiled.memo_exprs;
        tasks += optimizer
            .compile_budgeted(&job.plan, &default, CompileBudget::unlimited())
            .map_err(|e| e.to_string())?
            .tasks_executed;
        let run_seed = production_run_seed(job.day);
        let (metrics, ns) = timed(|| cluster.execute(&compiled.physical, job.job_seed, run_seed));
        exec_ns.push(ns);
        let (table1, ns) =
            timed(|| Table1Features::aggregate(&job.name, &job.plan, compiled.est_cost, &metrics));
        table1_ns.push(ns);
        let (span, ns) = timed(|| compute_span(&optimizer, &job.plan, config.span_max_iterations));
        span_ns.push(ns);
        prepared.push((*job, compiled, table1, span.ok().filter(|s| !s.is_empty())));
    }
    let compile_us: Vec<f64> = compile_ns.iter().map(|&n| ns_to_us(n)).collect();
    let n = distinct.len() as f64;
    m.set("scope-opt.compile_us_p50", median(&compile_us));
    m.set("scope-opt.compile_us_p99", quantile(&compile_us, 0.99));
    m.set("scope-opt.tasks_per_compile", tasks as f64 / n);
    m.set("scope-opt.memo_exprs_per_compile", memo_exprs as f64 / n);
    m.set("scope-opt.span_us_p50", p50_us(&span_ns));
    m.set("scope-runtime.execute_us_p50", p50_us(&exec_ns));
    m.set("scope-workload.table1_us_p50", p50_us(&table1_ns));

    // scope-opt behind its caches: a warm compile-cache hit, and treatment
    // slates priced by the delta compiler against a cold cache.
    let caching = CachingOptimizer::new(Optimizer::default(), CacheConfig::default())
        .with_delta(DeltaConfig::default());
    let mut hit_ns = Vec::new();
    let (mut slate_ns, mut treatments_priced) = (0u64, 0usize);
    for (job, _, _, span) in &prepared {
        let _ = caching.compile(&job.plan, &default);
        let (_, ns) = timed(|| caching.compile(&job.plan, &default));
        hit_ns.push(ns);
        if let Some(span) = span {
            let treatments: Vec<_> = span
                .span
                .iter()
                .map(|rule| {
                    default.with_flip(RuleFlip {
                        rule,
                        enable: !default.enabled(rule),
                    })
                })
                .collect();
            let (_, ns) = timed(|| caching.compile_slate(&job.plan, &default, &treatments));
            slate_ns += ns;
            treatments_priced += treatments.len();
        }
    }
    let delta = caching.delta_stats();
    m.set("scope-opt.cache_hit_us_p50", p50_us(&hit_ns));
    m.set(
        "scope-opt.slate_us_per_treatment",
        ns_to_us(slate_ns) / treatments_priced as f64,
    );
    m.set(
        "scope-opt.delta_share",
        ratio(delta.pruned + delta.delta, delta.treatments()),
    );

    // scope-runtime behind a warm stage-graph memo (new run seed: the graph
    // hits, the result cannot).
    let cached_exec = CachingExecutor::with_config(Cluster::default(), ExecCacheConfig::default());
    let mut cached_ns = Vec::new();
    for (job, compiled, _, _) in &prepared {
        let run_seed = production_run_seed(job.day);
        let _ = cached_exec.execute(&compiled.physical, job.job_seed, run_seed);
        let (_, ns) = timed(|| cached_exec.execute(&compiled.physical, job.job_seed, !run_seed));
        cached_ns.push(ns);
    }
    m.set("scope-runtime.execute_cached_us_p50", p50_us(&cached_ns));

    // personalizer: rank and reward against a copy of the live model.
    let bandit = Personalizer::new(config.cb.clone());
    bandit.restore_state(probe.advisor.personalizer().export_state())?;
    let (mut rank_ns, mut reward_ns) = (Vec::new(), Vec::new());
    for (job, _, table1, span) in &prepared {
        let Some(span) = span else { continue };
        let context = context_features(table1, span, config.max_span_for_triples);
        let (actions, _) = action_slate(span, optimizer.rules());
        let slate = SparseSlate::build(&context, &actions, config.cb.dim_bits);
        let request = RankRequest {
            context,
            actions,
            seed: job.job_id.0,
            log_uniform: false,
        };
        let (response, ns) = timed(|| bandit.rank_slate(&request, &slate));
        rank_ns.push(ns);
        let (_, ns) = timed(|| bandit.reward(response.event_id, 1.0));
        reward_ns.push(ns);
    }
    m.set("personalizer.rank_us_p50", p50_us(&rank_ns));
    m.set("personalizer.reward_us_p50", p50_us(&reward_ns));

    // sis: publish the live hint set into a fresh memory store and a fresh
    // disk store; snapshot the live store.
    let live = probe.advisor.sis().snapshot().hints();
    let publish = |store: &SisStore, rounds: u32| -> Result<Vec<u64>, String> {
        (1..=rounds)
            .map(|version| {
                let file = HintFile {
                    version,
                    source_day: version,
                    hints: live.clone(),
                };
                let (result, ns) = timed(|| store.publish(file));
                result.map(|_| ns).map_err(|e| e.to_string())
            })
            .collect()
    };
    m.set(
        "sis.publish_us_p50",
        p50_us(&publish(&SisStore::in_memory(), 32)?),
    );
    let disk = SisStore::at_dir(scratch.join("replay-sis")).map_err(|e| e.to_string())?;
    m.set("sis.publish_disk_ms_p50", p50_ms(&publish(&disk, 16)?));
    let snapshot_ns: Vec<u64> = (0..64)
        .map(|_| timed(|| probe.advisor.sis().snapshot()).1)
        .collect();
    m.set("sis.snapshot_us_p50", p50_us(&snapshot_ns));
    m.set("sis.hints_live", live.len() as f64);

    // scope-state codecs, then the sim-level snapshot / restore built on them.
    let state = probe.export_state();
    let bytes = state.to_bytes();
    let path = scratch.join("replay.qosnap");
    let (mut encode_ns, mut write_ns, mut decode_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        encode_ns.push(timed(|| state.to_bytes()).1);
        let (written, ns) = timed(|| state.write_to(&path));
        written.map_err(|e| e.to_string())?;
        write_ns.push(ns);
        let (decoded, ns) = timed(|| SteeringSnapshot::from_bytes(&bytes));
        decoded.map_err(|e| e.to_string())?;
        decode_ns.push(ns);
    }
    m.set("scope-state.encode_ms_p50", p50_ms(&encode_ns));
    m.set("scope-state.write_ms_p50", p50_ms(&write_ns));
    m.set("scope-state.decode_ms_p50", p50_ms(&decode_ns));
    m.set("scope-state.snapshot_bytes", bytes.len() as f64);
    let (mut snapshot_ns, mut restore_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (written, ns) = timed(|| probe.snapshot(&path));
        written.map_err(|e| e.to_string())?;
        snapshot_ns.push(ns);
        let mut fresh = ProductionSim::new(probe.workload.config.clone(), config.clone());
        let (restored, ns) = timed(|| fresh.restore(&path));
        restored.map_err(|e| e.to_string())?;
        restore_ns.push(ns);
    }
    m.set("core.snapshot_ms_p50", p50_ms(&snapshot_ns));
    m.set(
        "core.restore_ms_p50",
        p50_ms(if restarts_ns.is_empty() {
            &restore_ns
        } else {
            restarts_ns
        }),
    );
    Ok(())
}

/// `Fleet::advance_day` replayed over the workload's tenant population (the
/// single tenant of a daily workload, all 32 of `fleet_zipf`) at the
/// benchmark's worker count and again at one worker.
pub fn fleet_replay(
    spec: &Spec,
    seed: u64,
    workers: usize,
    m: &mut MetricSet,
) -> Result<(), String> {
    struct Probe {
        jobs: u64,
        wall_ns: u64,
        job_ns: u64,
        shed: u64,
        latency: LatencyHistogram,
    }
    let days = if spec.kind == Kind::Fleet { 6 } else { 16 };
    let run = |workers: usize| -> Result<Probe, String> {
        let mut fleet = Fleet::new(spec.tenant_configs(seed), &spec.fleet_config(workers));
        for tenant in fleet.tenants_mut() {
            tenant
                .sim
                .bootstrap_validation_model(spec.bootstrap.0, spec.bootstrap.1)
                .map_err(|e| e.to_string())?;
        }
        fleet.advance_day().map_err(|e| e.to_string())?;
        let mut probe = Probe {
            jobs: 0,
            wall_ns: 0,
            job_ns: 0,
            shed: 0,
            latency: LatencyHistogram::new(),
        };
        for _ in 0..days {
            let day = fleet.advance_day().map_err(|e| e.to_string())?;
            probe.jobs += day.jobs;
            probe.wall_ns += day.wall_ns;
            probe.shed += day.shed;
            // The fleet bills each tenant's summed per-job build time as its
            // view-build clock.
            probe.job_ns += day
                .outcomes
                .iter()
                .map(|o| o.report.timings.view_build_ns)
                .sum::<u64>();
            probe.latency.merge(&day.steering_latency);
        }
        Ok(probe)
    };
    let wide = run(workers)?;
    let narrow = run(1)?;
    let jobs_per_s = |p: &Probe| p.jobs as f64 / (p.wall_ns as f64 / 1e9);
    m.set("core.fleet.job_us_p50", ns_to_us(wide.latency.p50()));
    m.set("core.fleet.job_us_p99", ns_to_us(wide.latency.p99()));
    m.set(
        "core.fleet.job_time_share",
        wide.job_ns as f64 / (workers as f64 * wide.wall_ns as f64),
    );
    m.set(
        "core.fleet.scaling_ratio",
        jobs_per_s(&wide) / jobs_per_s(&narrow),
    );
    m.set("core.fleet.shed", wide.shed as f64);
    Ok(())
}
