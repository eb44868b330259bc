//! End-to-end production simulation: the SCOPE engine + workload + the
//! QO-Advisor pipeline advancing day by day, with counterfactual
//! (default-vs-steered) measurement of every hinted job — the machinery
//! behind Table 2 and Figures 10-12.

use crate::config::PipelineConfig;
use crate::day;
use crate::meter::Stage;
use crate::monitoring::{MonitorConfig, RegressionMonitor};
use crate::pipeline::{DailyReport, PipelineError, QoAdvisor, SharedCaches};
use crate::validation_model::{ValidationModel, ValidationSample};
use flighting::FlightingService;
use scope_ir::ids::production_run_seed;
use scope_ir::{JobId, TemplateId};
use scope_opt::Optimizer;
use scope_runtime::{CachingExecutor, Cluster, ExecutionMetrics, Executor};
use scope_workload::{build_view, ViewBuildError, ViewRow, Workload, WorkloadConfig};

/// Default-vs-steered measurement of one hinted production job (both runs
/// share the run seed, isolating the plan effect under identical cluster
/// conditions).
#[derive(Debug, Clone, Copy)]
pub struct HintedComparison {
    pub template: TemplateId,
    pub job_id: JobId,
    pub default: ExecutionMetrics,
    pub steered: ExecutionMetrics,
}

impl HintedComparison {
    #[must_use]
    pub fn pn_delta(&self) -> f64 {
        self.steered.pn_delta(&self.default)
    }

    #[must_use]
    pub fn latency_delta(&self) -> f64 {
        self.steered.latency_delta(&self.default)
    }

    #[must_use]
    pub fn vertices_delta(&self) -> f64 {
        self.steered.vertices_delta(&self.default)
    }
}

/// One simulated production day.
#[derive(Debug, Clone)]
pub struct DayOutcome {
    pub report: DailyReport,
    /// Counterfactual measurements for every job that ran with a hint.
    pub comparisons: Vec<HintedComparison>,
    /// Hints reverted today by the optimistic-monitoring loop (§8).
    pub reverted: Vec<TemplateId>,
}

/// Table 2 aggregate: percentage reduction over the hint-matched jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateImpact {
    pub jobs: usize,
    /// `Σ steered / Σ default − 1`, as percentages (negative = reduction).
    pub pn_hours_pct: f64,
    pub latency_pct: f64,
    pub vertices_pct: f64,
}

/// Aggregate Table-2 style totals over hinted-job comparisons.
#[must_use]
pub fn aggregate_impact(comparisons: &[HintedComparison]) -> AggregateImpact {
    if comparisons.is_empty() {
        return AggregateImpact::default();
    }
    let sum = |f: &dyn Fn(&HintedComparison) -> (f64, f64)| -> f64 {
        let (steered, default): (Vec<f64>, Vec<f64>) = comparisons.iter().map(f).unzip();
        let (s, d): (f64, f64) = (steered.iter().sum(), default.iter().sum());
        (s / d - 1.0) * 100.0
    };
    AggregateImpact {
        jobs: comparisons.len(),
        pn_hours_pct: sum(&|c| (c.steered.pn_hours, c.default.pn_hours)),
        latency_pct: sum(&|c| (c.steered.latency_sec, c.default.latency_sec)),
        vertices_pct: sum(&|c| (c.steered.vertices as f64, c.default.vertices as f64)),
    }
}

/// The full closed loop.
///
/// Every compile in the loop — production view building, the counterfactual
/// default runs, and all five pipeline stages — goes through the advisor's
/// [`scope_opt::CachingOptimizer`], so one compile-result cache spans the
/// whole simulation *and* every simulated day. Every *execution* likewise
/// goes through an [`Executor`] behind the advisor's shared
/// [`scope_runtime::ExecutionCache`]: the production cluster's executor
/// here, the pre-production one inside flighting. Under a sticky
/// [`scope_workload::LiteralPolicy`] these are the loop's main throughput
/// levers: a recurring script's production compile is a lookup on every day
/// after its first, and its production run reuses the memoized stage graph.
pub struct ProductionSim {
    pub workload: Workload,
    /// The production cluster behind the sim-wide execution cache.
    prod_exec: CachingExecutor,
    pub advisor: QoAdvisor,
    pub day: u32,
    /// §8 post-deployment monitor; hints that regress in production are
    /// automatically reverted when enabled.
    pub monitor: Option<RegressionMonitor>,
    /// Durable-state snapshots at day boundaries (see [`crate::snapshot`]);
    /// `None` = never snapshot.
    pub(crate) snapshot_policy: Option<crate::snapshot::SnapshotPolicy>,
    /// Wall-clock cost of a [`ProductionSim::restore`] awaiting attribution:
    /// billed into the *next* day's `report.timings.restore_ns` (a restore
    /// happens between days, so the day that resumes from it carries its
    /// cost — mirroring how `snapshot_ns` bills the write at the boundary
    /// that produced it).
    pub(crate) pending_restore_ns: u64,
}

impl ProductionSim {
    /// Build a simulation: production and pre-production clusters share the
    /// hardware model but see independent noise.
    #[must_use]
    pub fn new(workload: WorkloadConfig, pipeline: PipelineConfig) -> Self {
        Self::with_sis_store(workload, pipeline, sis::SisStore::in_memory())
    }

    /// Like [`ProductionSim::new`] but publishing hints into an explicit SIS
    /// store (e.g. a disk-backed one, so published hint files can be
    /// inspected). Builds private caches per the pipeline config.
    #[must_use]
    pub fn with_sis_store(
        workload: WorkloadConfig,
        pipeline: PipelineConfig,
        sis: sis::SisStore,
    ) -> Self {
        let caches = SharedCaches::from_config(&pipeline);
        Self::with_shared_caches(workload, pipeline, sis, &caches)
    }

    /// Like [`ProductionSim::with_sis_store`] but layering the advisor over
    /// caches owned elsewhere — the fleet path (`crate::fleet`), where every
    /// tenant's simulation shares one process-wide [`SharedCaches`]. The
    /// shared keys are tenant-invariant (see [`SharedCaches`]), so this sim's
    /// reports and published hints are byte-identical to a privately-cached
    /// one's.
    #[must_use]
    pub fn with_shared_caches(
        workload: WorkloadConfig,
        pipeline: PipelineConfig,
        sis: sis::SisStore,
        caches: &SharedCaches,
    ) -> Self {
        let optimizer = Optimizer::default();
        let flighting =
            FlightingService::new(Cluster::preproduction(), pipeline.flight_budget.clone());
        let advisor = QoAdvisor::with_shared_caches(optimizer, flighting, pipeline, sis, caches);
        let prod_exec = advisor.executor_for(Cluster::default());
        Self {
            workload: Workload::new(workload),
            prod_exec,
            advisor,
            day: 0,
            monitor: None,
            snapshot_policy: None,
            pending_restore_ns: 0,
        }
    }

    /// The production optimizer (the advisor's, *without* the cache).
    #[must_use]
    pub fn optimizer(&self) -> &Optimizer {
        self.advisor.optimizer()
    }

    /// The production executor (the production cluster *behind the sim-wide
    /// execution cache*). Hand this to [`build_view`] when driving the
    /// workload manually so production runs share the loop's cache.
    #[must_use]
    pub fn prod_executor(&self) -> &CachingExecutor {
        &self.prod_exec
    }

    /// Enable the §8 optimistic-monitoring loop: production telemetry of
    /// hinted jobs is compared against per-template baselines, and hints
    /// that regress repeatedly are reverted from SIS.
    #[must_use]
    pub fn with_monitoring(mut self, config: MonitorConfig) -> Self {
        self.monitor = Some(RegressionMonitor::new(config));
        self
    }

    /// The paper's validation-model bootstrap: flight random flips for
    /// `days` days, fit the regression, install it. Returns the samples, or
    /// the first day's [`ViewBuildError`] if a job refuses to compile on
    /// the default path (impossible for generated workloads; guards
    /// externally supplied plans).
    pub fn bootstrap_validation_model(
        &mut self,
        days: u32,
        flights_per_day: usize,
    ) -> Result<Vec<ValidationSample>, ViewBuildError> {
        let mut samples = Vec::new();
        for _ in 0..days {
            let jobs = self.workload.jobs_for_day(self.day);
            let hints = self.advisor.sis().snapshot();
            let view = build_view(
                &jobs,
                self.advisor.caching_optimizer(),
                &hints,
                &self.prod_exec,
            )?;
            samples.extend(self.advisor.gather_validation_samples(
                &view,
                self.day,
                flights_per_day,
            ));
            self.day += 1;
        }
        if let Some(model) = ValidationModel::fit(&samples) {
            self.advisor.set_validation_model(model);
        }
        Ok(samples)
    }

    /// Advance one production day: run the workload (with live hints), feed
    /// the view to the pipeline, and measure hinted jobs counterfactually.
    ///
    /// Production compiles go through the advisor's shared compile-result
    /// cache and production runs through its shared execution cache; the
    /// returned report's `compile_cache` / `exec_cache` attribute them to
    /// the `view_build` and `counterfactual` stages on top of the
    /// pipeline's own per-stage counters.
    ///
    /// Errors with [`PipelineError::View`] when a job's *default-path*
    /// compile fails while building the view — the one failure the loop has
    /// no safe fallback for (generated workloads never trigger it; it
    /// guards externally supplied plans) — and propagates any other typed
    /// pipeline failure ([`PipelineError::Publish`] /
    /// [`PipelineError::Invariant`]) from the daily run.
    pub fn advance_day(&mut self) -> Result<DayOutcome, PipelineError> {
        let jobs = [self.workload.jobs_for_day(self.day)];
        let mut meter = self.advisor.sample();
        // A fleet of one, built serially: a 2-thread single-tenant view
        // build is slower than a serial one today.
        let (views, _) = day::views(&[&*self], &jobs, 1)?;
        let view = views.into_iter().next().unwrap_or_default().0;
        let view_build = meter.lap(&self.advisor);
        let mut outcome = self.finish_day(view)?;
        // Recurring jobs' default-configuration compile misses during view
        // building route through the delta compiler's base builder (that is
        // where most `base_builds` land under fresh literals; ad-hoc jobs
        // build none): billing the lap adds them to the day's delta total on
        // top of finish_day's.
        outcome.report.bill(Stage::ViewBuild, view_build);
        Ok(outcome)
    }

    /// Complete the current day from a prebuilt production view:
    /// counterfactual default runs, §8 monitoring, the five pipeline stages,
    /// the day increment, and any due snapshot.
    /// [`ProductionSim::advance_day`] is exactly [`build_view`] followed by
    /// this; a fleet (`crate::fleet`) builds every tenant's view on a shared
    /// worker pool and feeds each here — the per-tenant *serial reduce* that
    /// keeps rank/reward application in job order and thereby preserves the
    /// determinism contract per tenant.
    ///
    /// `view` must be what [`build_view`] would have produced for this sim's
    /// current day — same jobs, same hint snapshot, same row order. The
    /// per-row computation is pure (see `scope_workload::build_view_row`),
    /// so a view assembled by any scheduling of workers, reordered back to
    /// job order, satisfies this byte-for-byte.
    ///
    /// # Errors
    ///
    /// Propagates any typed pipeline failure from the daily run, exactly as
    /// [`ProductionSim::advance_day`] does.
    pub fn finish_day(&mut self, view: Vec<ViewRow>) -> Result<DayOutcome, PipelineError> {
        let day = self.day;
        let mut meter = self.advisor.sample();

        // Counterfactual default runs for hinted jobs (same run seed). The
        // compiles go through the advisor's compile-result cache and the
        // runs through its execution cache — same results as uncached,
        // shared with the pipeline. Under a finite `compile_budget` these
        // are the loop's sheddable compiles: measurement-only work that may
        // return a best-effort plan from a partially explored memo without
        // touching what the pipeline recommends or publishes.
        let default_config = self.advisor.optimizer().default_config();
        let mut comparisons = Vec::new();
        for row in view.iter().filter(|r| r.hint_applied) {
            let Ok(default_compiled) = self.advisor.compile_shedding(&row.plan, &default_config)
            else {
                continue;
            };
            let run_seed = production_run_seed(day);
            let default_metrics =
                self.prod_exec
                    .execute(&default_compiled.physical, row.job_seed, run_seed);
            comparisons.push(HintedComparison {
                template: row.template,
                job_id: row.job_id,
                default: default_metrics,
                steered: row.metrics,
            });
        }
        let counterfactual = meter.lap(&self.advisor);

        // §8 monitoring: revert hints that regress in production.
        let mut reverted = Vec::new();
        if let Some(monitor) = &mut self.monitor {
            for template in monitor.observe_day(&view) {
                if self.advisor.revert_hint(template)? {
                    reverted.push(template);
                }
            }
        }

        let mut report = self.advisor.run_day(&view, day)?;
        report.bill(Stage::Counterfactual, counterfactual);
        // A restore that brought this sim to the current day bills its wall
        // cost to the day that resumes from it.
        report.timings.restore_ns = std::mem::take(&mut self.pending_restore_ns);
        self.day += 1;
        report.timings.snapshot_ns = self.snapshot_if_due()?;
        Ok(DayOutcome {
            report,
            comparisons,
            reverted,
        })
    }

    /// Run `days` production days, returning all outcomes (or the first
    /// day's [`PipelineError`]).
    pub fn run(&mut self, days: u32) -> Result<Vec<DayOutcome>, PipelineError> {
        (0..days).map(|_| self.advance_day()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sim() -> ProductionSim {
        ProductionSim::new(
            WorkloadConfig {
                seed: 41,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            },
            PipelineConfig::default(),
        )
    }

    #[test]
    fn bootstrap_gathers_samples_and_fits_model() {
        let mut sim = small_sim();
        let samples = sim.bootstrap_validation_model(3, 8).unwrap();
        assert!(!samples.is_empty(), "bootstrap collected flighting data");
        // With enough non-degenerate samples the model installs.
        if samples.len() >= 3 {
            assert!(sim.advisor.validation_model().is_some());
        }
        assert_eq!(sim.day, 3);
    }

    #[test]
    fn steering_loop_eventually_hints_jobs() {
        let mut sim = small_sim();
        sim.bootstrap_validation_model(3, 10).unwrap();
        let outcomes = sim.run(6).unwrap();
        let total_hints: usize = outcomes.iter().map(|o| o.report.hints_published).sum();
        let total_comparisons: usize = outcomes.iter().map(|o| o.comparisons.len()).sum();
        // Hints published on some day must eventually produce hinted runs.
        if total_hints > 0 {
            assert!(
                total_comparisons > 0,
                "published hints must match future recurring instances"
            );
        }
    }

    /// Telemetry parity: what counts as a lookup, a hit, an insert must not
    /// drift when the bookkeeping moves. The literals were recorded by this
    /// exact run (seed 41, 12 templates, 3 serial days — serial, so exact)
    /// at commit 56820a5, where each cache still counted in its own atomics;
    /// `perf`'s hit-ratio metrics are ratios of these counters. One literal
    /// moved on purpose since: `base_builds` 38 → 29, once ad-hoc jobs (3 a
    /// day) stopped building base memos (`Compiler::compile_unsteered`).
    #[test]
    fn cache_telemetry_matches_the_recorded_counts() {
        use scope_opt::{CacheStats, DeltaStats};
        use scope_runtime::ExecStats;

        let stats = |hits, misses| CacheStats {
            hits,
            misses,
            inserts: misses,
            evictions: 0,
        };
        let mut sim = small_sim();
        sim.run(3).unwrap();
        let advisor = &sim.advisor;
        assert_eq!(advisor.cache_stats(), stats(26, 89));
        assert_eq!(
            advisor.exec_stats(),
            ExecStats {
                results: stats(0, 42),
                graphs: stats(2, 40),
            }
        );
        assert_eq!(advisor.feature_stats(), stats(32, 26));
        assert_eq!(
            advisor.delta_stats(),
            DeltaStats {
                pruned: 0,
                delta: 35,
                full: 0,
                base_builds: 29,
                base_hits: 27,
                replay_tasks: 54,
            }
        );
    }

    /// Telemetry parity, per day and per field: the meter (`crate::meter`)
    /// must bill exactly what the hand-threaded counter snapshots it
    /// replaced did. The literals are every telemetry field of every
    /// `DailyReport` of this run (seed 41, 3 serial days — serial, so exact)
    /// as recorded at commit 2a16c8a, before the meter existed; and because
    /// laps tile the day, each day total must equal the advisor's
    /// lifetime-counter delta over that `advance_day`. Each day's
    /// `base_builds` has since dropped by its 3 ad-hoc jobs (12, 13, 13 →
    /// 9, 10, 10): their compiles no longer build base memos.
    #[test]
    fn daily_telemetry_matches_the_recorded_days_and_the_lifetime_deltas() {
        use crate::{CacheCounters, ExecCounters};
        use scope_opt::{BudgetStats, CacheStats, DeltaStats};
        use scope_runtime::ExecStats;

        let stats = |hits, misses| CacheStats {
            hits,
            misses,
            inserts: misses,
            evictions: 0,
        };
        let exec = |results, graphs| ExecStats { results, graphs };
        let delta = |delta, base_builds, base_hits, replay_tasks| DeltaStats {
            delta,
            base_builds,
            base_hits,
            replay_tasks,
            ..DeltaStats::default()
        };
        // (view_build, feature_gen, recommend, flight) compile counters,
        // (view_build, flight) exec counters, feature cache, delta compile;
        // no hint matched in these three days, so counterfactuals are zero.
        let recorded = [
            (
                [stats(0, 12), stats(18, 12), stats(0, 8), stats(0, 0)],
                [exec(stats(0, 12), stats(0, 12)), ExecStats::default()],
                stats(0, 18),
                delta(8, 9, 8, 14),
            ),
            (
                [stats(0, 13), stats(2, 2), stats(0, 15), stats(0, 0)],
                [exec(stats(0, 13), stats(0, 13)), ExecStats::default()],
                stats(15, 5),
                delta(15, 10, 10, 24),
            ),
            (
                [stats(0, 13), stats(2, 2), stats(0, 12), stats(4, 0)],
                [
                    exec(stats(0, 13), stats(0, 13)),
                    exec(stats(0, 4), stats(2, 2)),
                ],
                stats(17, 3),
                delta(12, 10, 9, 16),
            ),
        ];
        // Read through the public accessors, not the meter under test.
        let lifetime = |qa: &QoAdvisor| {
            let (compile, exec) = (qa.cache_stats(), qa.exec_stats());
            let (feature, delta) = (qa.feature_stats(), qa.delta_stats());
            (compile, exec, feature, delta, qa.budget_stats())
        };
        let mut sim = small_sim();
        for (day, (compile, execs, feature, delta)) in recorded.into_iter().enumerate() {
            let before = lifetime(&sim.advisor);
            let report = sim.advance_day().unwrap().report;
            let after = lifetime(&sim.advisor);
            assert_eq!(
                report.compile_cache,
                CacheCounters {
                    view_build: compile[0],
                    feature_gen: compile[1],
                    recommend: compile[2],
                    flight: compile[3],
                    ..CacheCounters::default()
                },
                "day {day}"
            );
            assert_eq!(
                report.exec_cache,
                ExecCounters {
                    view_build: execs[0],
                    flight: execs[1],
                    ..ExecCounters::default()
                },
                "day {day}"
            );
            assert_eq!(report.feature_cache, feature, "day {day}");
            assert_eq!(report.delta_compile, delta, "day {day}");
            assert_eq!(report.compile_budget, BudgetStats::default(), "day {day}");
            let total = (
                report.compile_cache.total(),
                report.exec_cache.total(),
                report.feature_cache,
                report.delta_compile,
                report.compile_budget,
            );
            let moved = (
                after.0.since(&before.0),
                after.1.since(&before.1),
                after.2.since(&before.2),
                after.3.since(&before.3),
                after.4.since(&before.4),
            );
            assert_eq!(total, moved, "day {day}");
        }
    }

    /// Only steerable plans leave a base memo behind. Under sticky literals
    /// a recurring plan's base memo is built on the first day the plan runs
    /// and reused on every later day, while ad-hoc jobs (fresh every day)
    /// build none. So each day's `base_builds` is exactly that day's newly
    /// seen recurring plans, and once every template has run (periods are
    /// at most 7 days) the count stops growing.
    #[test]
    fn sticky_sim_builds_base_memos_only_for_recurring_plans() {
        let mut sim = ProductionSim::new(
            WorkloadConfig {
                seed: 41,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 2,
                literals: scope_workload::LiteralPolicy::Sticky {
                    redraw_every_days: 0,
                },
            },
            PipelineConfig::default(),
        );
        let mut seen = std::collections::HashSet::new();
        for day in 0..10 {
            let jobs = sim.workload.jobs_for_day(sim.day);
            assert!(
                jobs.iter().any(|j| !j.recurring),
                "day {day} runs ad-hoc jobs"
            );
            let new_plans = jobs
                .iter()
                .filter(|j| j.recurring && seen.insert(j.plan.fingerprint()))
                .count() as u64;
            let report = sim.advance_day().unwrap().report;
            assert_eq!(report.delta_compile.base_builds, new_plans, "day {day}");
            if day >= 7 {
                assert_eq!(new_plans, 0, "day {day}: every template has run");
            }
        }
        assert_eq!(sim.advisor.delta_stats().base_builds, seen.len() as u64);
    }

    /// `advance_day` is its documented decomposition — `jobs_for_day`, the
    /// reference `build_view`, then `finish_day`, the day `perf` traces —
    /// on every steering output: reports, counterfactual comparisons,
    /// reverts, the SIS version and the published hint files.
    #[test]
    fn advance_day_is_build_view_then_finish_day() {
        let root = std::env::temp_dir().join(format!("qo-sim-decomposed-{}", std::process::id()));
        let sim_in = |name: &str| {
            let workload = WorkloadConfig {
                seed: 99,
                num_templates: 24,
                adhoc_per_day: 3,
                max_instances_per_day: 2,
                literals: scope_workload::LiteralPolicy::Sticky {
                    redraw_every_days: 0,
                },
            };
            let sis = sis::SisStore::at_dir(root.join(name)).unwrap();
            let mut sim = ProductionSim::with_sis_store(workload, PipelineConfig::default(), sis)
                .with_monitoring(MonitorConfig::default());
            sim.bootstrap_validation_model(2, 8).unwrap();
            sim
        };
        let (mut whole, mut decomposed) = (sim_in("whole"), sim_in("decomposed"));
        let (mut published, mut compared) = (0, 0);
        for day in 0..4 {
            let a = whole.advance_day().unwrap();
            let jobs = decomposed.workload.jobs_for_day(decomposed.day);
            let hints = decomposed.advisor.sis().snapshot();
            let optimizer = decomposed.advisor.caching_optimizer();
            let view = build_view(&jobs, optimizer, &hints, decomposed.prod_executor()).unwrap();
            let b = decomposed.finish_day(view).unwrap();
            assert_eq!(a.report.steering(), b.report.steering(), "day {day}");
            let comparisons = |o: &DayOutcome| format!("{:?}", o.comparisons);
            assert_eq!(comparisons(&a), comparisons(&b), "day {day}");
            assert_eq!(a.reverted, b.reverted, "day {day}");
            let versions = [&whole, &decomposed].map(|sim| sim.advisor.sis().version());
            assert_eq!(versions[0], versions[1], "day {day}");
            published += a.report.hints_published;
            compared += a.comparisons.len();
        }
        assert!(
            published > 0 && compared > 0,
            "{published} hints, {compared} comparisons"
        );
        let files = |name: &str| {
            let mut files: Vec<_> = std::fs::read_dir(root.join(name))
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    (
                        path.file_name().unwrap().to_owned(),
                        std::fs::read(&path).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        assert_eq!(files("whole"), files("decomposed"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn advance_day_attributes_production_compiles_to_their_stage() {
        let mut sim = small_sim();
        let out = sim.advance_day().unwrap();
        let cc = &out.report.compile_cache;
        assert!(
            cc.view_build.lookups() > 0,
            "view building must compile through the shared cache: {cc:?}"
        );
        assert!(
            cc.feature_gen.lookups() > 0,
            "span fixpoint compiles: {cc:?}"
        );
        assert_eq!(
            cc.total(),
            cc.view_build + cc.counterfactual + cc.feature_gen + cc.recommend + cc.flight,
            "per-stage counters partition the day's lookups"
        );
        // The view's default compiles seed the cache the span fixpoint then
        // hits: sharing one cache across sim and pipeline pays within a
        // single day, before any cross-day reuse.
        assert!(cc.feature_gen.hits > 0, "span default compiles hit: {cc:?}");
    }

    #[test]
    fn advance_day_attributes_executions_to_their_stage() {
        let mut sim = small_sim();
        let out = sim.advance_day().unwrap();
        let ec = &out.report.exec_cache;
        assert!(
            ec.view_build.lookups() > 0,
            "every production run must go through the shared execution \
             cache: {ec:?}"
        );
        assert_eq!(
            ec.view_build.lookups() as usize,
            out.report.jobs_total,
            "exactly one production execution per job"
        );
        assert_eq!(
            ec.total(),
            ec.view_build + ec.counterfactual + ec.flight,
            "per-stage counters partition the day's executions"
        );
        // Flighting executes on the pre-production executor behind the SAME
        // cache; its stage graphs come from the very plans the view just
        // executed (identical hardware epoch), so the flight stage reuses
        // them whenever anything flights.
        if out.report.flight_success > 0 {
            assert!(
                ec.flight.lookups() > 0,
                "successful flights must execute through the cache: {ec:?}"
            );
            assert!(
                ec.flight.graphs.hits > 0,
                "flight baselines reuse the view's memoized stage graphs: {ec:?}"
            );
        }
        // Lifetime counters cover the whole day (plus nothing else here).
        assert_eq!(sim.advisor.exec_stats(), ec.total());
    }

    #[test]
    fn exec_cache_disabled_reports_zero_telemetry_and_identical_outputs() {
        let mut on = small_sim();
        let mut off = ProductionSim::new(
            WorkloadConfig {
                seed: 41,
                num_templates: 12,
                adhoc_per_day: 3,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            },
            PipelineConfig {
                exec_cache: scope_runtime::ExecCacheConfig::disabled(),
                ..PipelineConfig::default()
            },
        );
        let day_on = on.advance_day().unwrap();
        let day_off = off.advance_day().unwrap();
        assert_eq!(
            day_off.report.exec_cache,
            crate::ExecCounters::default(),
            "a disabled execution cache must report zero telemetry"
        );
        assert_eq!(off.advisor.exec_stats(), Default::default());
        let mut normalized = day_on.report.clone();
        normalized.exec_cache = day_off.report.exec_cache;
        // Wall clocks legitimately differ between the two runs.
        normalized.timings = day_off.report.timings;
        assert_eq!(
            normalized, day_off.report,
            "the execution cache must never change what the loop decides"
        );
        assert_eq!(day_on.comparisons.len(), day_off.comparisons.len());
        for (a, b) in day_on.comparisons.iter().zip(day_off.comparisons.iter()) {
            assert_eq!(a.default, b.default, "counterfactual runs are identical");
            assert_eq!(a.steered, b.steered);
        }
    }

    #[test]
    fn aggregate_impact_totals_are_weighted() {
        let mk = |dpn: f64, spn: f64| HintedComparison {
            template: TemplateId(1),
            job_id: JobId(1),
            default: ExecutionMetrics {
                pn_hours: dpn,
                latency_sec: 100.0,
                vertices: 10,
                ..Default::default()
            },
            steered: ExecutionMetrics {
                pn_hours: spn,
                latency_sec: 90.0,
                vertices: 5,
                ..Default::default()
            },
        };
        let agg = aggregate_impact(&[mk(10.0, 9.0), mk(90.0, 72.0)]);
        // Total PN: 100 -> 81, i.e. -19%.
        assert!((agg.pn_hours_pct + 19.0).abs() < 1e-9);
        assert!((agg.latency_pct + 10.0).abs() < 1e-9);
        assert!((agg.vertices_pct + 50.0).abs() < 1e-9);
        assert_eq!(agg.jobs, 2);
    }

    #[test]
    fn empty_comparisons_are_safe() {
        let agg = aggregate_impact(&[]);
        assert_eq!(agg.jobs, 0);
        assert_eq!(agg.pn_hours_pct, 0.0);
    }
}
