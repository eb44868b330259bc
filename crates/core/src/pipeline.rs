//! The QO-Advisor daily pipeline (paper §2.5, Figure 1): Feature Generation
//! → Recommendation (+ Recompilation) → Flighting → Validation → Hint
//! Generation, publishing (template, flip) pairs into SIS for the next
//! occurrences of each template.

use crate::config::PipelineConfig;
use crate::features::FeatureCache;
use crate::meter::{CacheCounters, ExecCounters, Stage, StageTimings};
use crate::stages;
use crate::validation_model::{ValidationModel, ValidationSample};
use flighting::{FlightRequest, FlightingService};
use personalizer::Personalizer;
use rustc_hash::FxHashMap;
use scope_ir::ids::combine;
use scope_ir::logical::LogicalPlan;
use scope_ir::{JobId, TemplateId};
use scope_opt::{CacheStats, Optimizer, RuleFlip, SpanResult};
use scope_runtime::{CachingExecutor, Cluster, ExecStats, ExecutionCache};
use scope_workload::{ViewBuildError, ViewRow};
use sis::{HintFile, SisError, SisStore};
use std::fmt;
use std::sync::Arc;

/// A daily-pipeline failure. The steering path returns typed errors instead
/// of panicking (`clippy::unwrap_used` at the crate root): a broken
/// externally-supplied plan, a rejected SIS publish, or a violated internal
/// invariant all surface here rather than taking the whole loop down with an
/// `unwrap`.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A production job's *default-path* compile failed while building the
    /// view (steered compiles fall back instead of erroring).
    View(ViewBuildError),
    /// The SIS store rejected a hint-file publish.
    Publish(SisError),
    /// A durable-state snapshot write or restore failed (see
    /// [`crate::snapshot`]).
    Snapshot(scope_state::SnapshotError),
    /// An internal pipeline invariant broke — a bug, surfaced as an error.
    Invariant(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::View(e) => write!(f, "view build failed: {e}"),
            PipelineError::Publish(e) => write!(f, "SIS publish rejected: {e}"),
            PipelineError::Snapshot(e) => write!(f, "snapshot failed: {e}"),
            PipelineError::Invariant(what) => write!(f, "pipeline invariant violated: {what}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::View(e) => Some(e),
            PipelineError::Publish(e) => Some(e),
            PipelineError::Snapshot(e) => Some(e),
            PipelineError::Invariant(_) => None,
        }
    }
}

impl From<ViewBuildError> for PipelineError {
    fn from(e: ViewBuildError) -> Self {
        PipelineError::View(e)
    }
}

impl From<SisError> for PipelineError {
    fn from(e: SisError) -> Self {
        PipelineError::Publish(e)
    }
}

impl From<scope_state::SnapshotError> for PipelineError {
    fn from(e: scope_state::SnapshotError) -> Self {
        PipelineError::Snapshot(e)
    }
}

/// The process-wide result caches a fleet of advisors can share.
///
/// Every key in every one of these caches is *tenant-invariant*: the compile
/// cache and the delta base memo key on the exact serialized-plan fingerprint
/// (literals and statistics included) plus the full rule-configuration bits;
/// the execution cache's stage-graph memo keys on the physical-plan
/// fingerprint alone; the feature cache keys on the
/// content-derived template id plus span/slate fingerprints. None of them
/// embeds a tenant, workload, or store identity — so a hit returns exactly
/// what a tenant-local compute would have produced, whichever tenant paid
/// for the miss. That is what makes cross-tenant sharing a pure throughput
/// knob (see `crate::fleet` and the determinism tests pinning it).
#[derive(Clone, Default)]
pub(crate) struct SharedCaches {
    /// The optimizer with its compile-result cache and delta compiler. Its
    /// clones share both, so every holder reads the same caches.
    pub optimizer: Optimizer,
    /// Execution cache (the stage-graph memo).
    pub exec: Option<Arc<ExecutionCache>>,
    /// Span-feature cache.
    pub feature: Option<Arc<FeatureCache>>,
}

impl SharedCaches {
    /// The caches `config` enables, each at its fixed size: one per advisor
    /// ([`QoAdvisor::new`]) or one for a whole fleet.
    #[must_use]
    pub fn from_config(config: &PipelineConfig) -> Self {
        Self {
            optimizer: Optimizer::new(Optimizer::default(), config.cache).with_delta(config.delta),
            exec: ExecutionCache::shared(config.exec_cache),
            feature: config.feature_cache.enabled.then(Arc::default),
        }
    }

    /// Lifetime compile-cache counters (all-zero when disabled).
    #[must_use]
    pub fn compile_stats(&self) -> CacheStats {
        self.optimizer.stats()
    }

    /// Lifetime span-feature-cache counters (all-zero when disabled).
    #[must_use]
    pub fn feature_stats(&self) -> CacheStats {
        self.feature
            .as_deref()
            .map(FeatureCache::stats)
            .unwrap_or_default()
    }
}

impl fmt::Debug for SharedCaches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCaches")
            .field("compile", &self.optimizer.cache().is_some())
            .field("exec", &self.exec.is_some())
            .field("feature", &self.feature.is_some())
            .finish()
    }
}

/// One candidate produced by the Recommendation task.
#[derive(Debug, Clone)]
pub struct Recommendation {
    pub template: TemplateId,
    pub job_id: JobId,
    pub job_seed: u64,
    pub plan: Arc<LogicalPlan>,
    pub flip: RuleFlip,
    pub default_cost: f64,
    pub new_cost: f64,
}

impl Recommendation {
    /// Estimated-cost delta (`new/old − 1`; negative = predicted win).
    #[must_use]
    pub fn cost_delta(&self) -> f64 {
        if self.default_cost <= 0.0 {
            return 0.0;
        }
        self.new_cost / self.default_cost - 1.0
    }
}

/// Telemetry of one pipeline day. `PartialEq` so reproducibility tests can
/// compare whole days across thread counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DailyReport {
    pub day: u32,
    pub jobs_total: usize,
    pub recurring_jobs: usize,
    pub jobs_with_span: usize,
    /// Table 3 counters over the acting-policy recompilations.
    pub lower_cost: usize,
    pub equal_cost: usize,
    pub higher_cost: usize,
    pub recompile_failures: usize,
    pub noop_chosen: usize,
    /// Jobs skipped because their template was already explored (§8
    /// stateful mode; 0 unless `skip_explored` is on).
    pub skipped_explored: usize,
    /// Σ default estimated cost over jobs entering Recommendation.
    pub total_default_cost: f64,
    /// Σ chosen-configuration estimated cost over the same jobs (failures
    /// and no-ops fall back to the default cost).
    pub total_chosen_cost: f64,
    pub flighted: usize,
    pub flight_success: usize,
    pub flight_timeout: usize,
    pub flight_failure: usize,
    pub flight_filtered: usize,
    pub flight_seconds_used: f64,
    pub validated: usize,
    pub hints_published: usize,
    pub sis_version: u32,
    /// Compile-result-cache telemetry (all-zero when the cache is off).
    /// Observability only — reproducibility comparisons zero this field.
    ///
    /// Each stage's counters are the cache's lifetime counters differenced
    /// over the stage. Inside a shared-cache fleet (`crate::fleet`) those
    /// are *process-wide* caches, read while other tenants reduce
    /// concurrently, so a tenant's per-stage counters include its
    /// neighbours' traffic. Telemetry only, and not fixed here: per-tenant
    /// attribution needs a recorder on the lookup path (ROADMAP item 4a).
    pub compile_cache: CacheCounters,
    /// Execution-result-cache telemetry, attributed the same way — with the
    /// same shared-cache caveat as `compile_cache` (all-zero when the cache
    /// is off; zeroed in reproducibility comparisons).
    pub exec_cache: ExecCounters,
    /// Delta-compilation telemetry: how the day's treatment slates were
    /// resolved (pruned / delta / full) and the base-memo cache traffic.
    /// All-zero when delta compilation is off; observability only, zeroed
    /// in reproducibility comparisons like the cache counters.
    pub delta_compile: scope_opt::DeltaStats,
    /// Span-feature-cache telemetry: a day total (Recommendation is the
    /// cache's only consumer, so no per-stage breakdown; all-zero when the
    /// cache is off).
    /// Observability only — which lookup hits can depend on parallel insert
    /// order, so reproducibility comparisons zero this field like the other
    /// cache counters.
    pub feature_cache: CacheStats,
    /// Per-stage wall-clock timings of this day (observability only;
    /// zeroed in reproducibility comparisons).
    pub timings: StageTimings,
}

impl DailyReport {
    /// The deterministic steering half of the report: a copy with the
    /// telemetry-only fields (`compile_cache`, `exec_cache`,
    /// `delta_compile`, `feature_cache`, `timings`) defaulted. This is what
    /// the byte-identity contract compares across thread counts, cache
    /// switches and restores.
    #[must_use]
    pub fn steering(&self) -> DailyReport {
        DailyReport {
            compile_cache: CacheCounters::default(),
            exec_cache: ExecCounters::default(),
            delta_compile: scope_opt::DeltaStats::default(),
            feature_cache: CacheStats::default(),
            timings: StageTimings::default(),
            ..self.clone()
        }
    }
}

/// The QO-Advisor system: pipeline state that persists across days. The
/// per-day work is decomposed into the five stage functions of
/// `crate::stages`, which access this state directly.
pub struct QoAdvisor {
    /// Every cache of the loop. Each compile of the five stages (span
    /// fixpoint, recommendation recompiles, flighting's validation compiles)
    /// goes through its optimizer, so a `(plan, configuration)` pair is
    /// compiled at most once across stages *and* days; every executor built
    /// via [`QoAdvisor::executor_for`] (the production cluster's, the
    /// pre-production one below) shares its stage-graph memo; and
    /// Recommendation builds each template's span co-occurrence block once
    /// through its feature cache. A fleet of advisors shares one.
    pub(crate) caches: SharedCaches,
    /// The pre-production executor flighting runs on: the pre-production
    /// cluster behind the shared execution cache.
    pub(crate) preprod_exec: CachingExecutor,
    pub(crate) flighting: FlightingService,
    pub(crate) personalizer: Personalizer,
    pub(crate) validation: Option<ValidationModel>,
    pub(crate) sis: SisStore,
    pub(crate) config: PipelineConfig,
    /// Spans are template-stable (catalog estimates do not drift), so cache
    /// them across days: the dominant cost of Feature Generation.
    pub(crate) span_cache: FxHashMap<TemplateId, Option<(SpanResult, f64)>>,
    /// Templates already flighted on a previous day (§8 stateful mode).
    pub(crate) explored: rustc_hash::FxHashSet<TemplateId>,
}

impl QoAdvisor {
    /// A single-tenant advisor: an in-memory SIS store, private caches per
    /// `config`, and flights within `config.flight_budget` on the
    /// pre-production cluster.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let caches = SharedCaches::from_config(&config);
        Self::with_shared_caches(config, SisStore::in_memory(), caches)
    }

    /// An advisor publishing into `sis` with every cache layer pointing at
    /// caches owned elsewhere — the fleet path, where N advisors share one
    /// process-wide [`SharedCaches`]. Caches are throughput knobs, never
    /// behavior knobs, and the shared keys are tenant-invariant (see
    /// [`SharedCaches`]), so an advisor built this way produces
    /// byte-identical reports and hint files to one built with private
    /// caches — or none at all.
    pub(crate) fn with_shared_caches(
        config: PipelineConfig,
        sis: SisStore,
        caches: SharedCaches,
    ) -> Self {
        Self {
            preprod_exec: CachingExecutor::new(Cluster::preproduction(), caches.exec.clone()),
            flighting: FlightingService::new(config.flight_budget.clone()),
            caches,
            personalizer: Personalizer::new(config.cb.clone()),
            validation: None,
            sis,
            config,
            span_cache: FxHashMap::default(),
            explored: rustc_hash::FxHashSet::default(),
        }
    }

    /// Revert a deployed hint (the §8 optimistic-monitoring loop): removes
    /// the template's entry and publishes a new SIS version. Returns
    /// `Ok(false)` when no hint was live for the template.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Publish`] when the SIS store rejects the
    /// revert file (never for store-generated versions).
    pub fn revert_hint(&mut self, template: TemplateId) -> Result<bool, PipelineError> {
        let mut hints = self.sis.snapshot();
        if hints.remove(template).is_none() {
            return Ok(false);
        }
        let version = self.sis.version() + 1;
        self.sis.publish(HintFile {
            version,
            source_day: u32::MAX,
            hints: hints.hints(),
        })?;
        // Allow the pipeline to re-explore the template later.
        self.explored.remove(&template);
        Ok(true)
    }

    #[must_use]
    pub fn sis(&self) -> &SisStore {
        &self.sis
    }

    /// The optimizer *with the shared compile-result cache*. Hand this to
    /// [`scope_workload::build_view`] (as [`crate::ProductionSim`] does) so
    /// production compiles, the span fixpoint, recommendation recompiles,
    /// and flighting validation all share one cache — with a sticky
    /// [`scope_workload::LiteralPolicy`], recurring production scripts then
    /// compile once per literal epoch instead of once per day.
    #[must_use]
    pub fn caching_optimizer(&self) -> &Optimizer {
        &self.caches.optimizer
    }

    /// Lifetime compile-cache counters (all-zero when the cache is off).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.compile_stats()
    }

    /// Lifetime delta-compilation counters (all-zero when `delta` is off).
    #[must_use]
    pub fn delta_stats(&self) -> scope_opt::DeltaStats {
        self.caches.optimizer.delta_stats()
    }

    /// Build an executor over `cluster` that shares the advisor's
    /// execution cache (a pass-through when `exec_cache` is
    /// disabled). [`crate::ProductionSim`] uses this for the production
    /// cluster, so production runs, counterfactuals, and flighting all sit
    /// behind ONE cache — the execution-side mirror of
    /// [`QoAdvisor::caching_optimizer`].
    #[must_use]
    pub(crate) fn executor_for(&self, cluster: Cluster) -> CachingExecutor {
        CachingExecutor::new(cluster, self.caches.exec.clone())
    }

    /// Lifetime execution-cache counters (all-zero when the cache is off).
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.caches
            .exec
            .as_ref()
            .map(|cache| cache.stats())
            .unwrap_or_default()
    }

    /// Lifetime span-feature-cache counters (all-zero when the cache is
    /// off).
    #[must_use]
    pub fn feature_stats(&self) -> CacheStats {
        self.caches.feature_stats()
    }

    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    #[must_use]
    pub fn validation_model(&self) -> Option<&ValidationModel> {
        self.validation.as_ref()
    }

    /// Install a trained validation model (paper: trained on 14 days of
    /// randomly flighted jobs before enabling the pipeline).
    pub fn set_validation_model(&mut self, model: ValidationModel) {
        self.validation = Some(model);
    }

    #[must_use]
    pub fn personalizer(&self) -> &Personalizer {
        &self.personalizer
    }

    /// Task 1 — Feature Generation: span (cached per template) plus the
    /// default-configuration estimated cost.
    fn span_for(&mut self, template: TemplateId, plan: &LogicalPlan) -> Option<(SpanResult, f64)> {
        let optimizer = &self.caches.optimizer;
        let iterations = self.config.span_max_iterations;
        self.span_cache
            .entry(template)
            .or_insert_with(|| stages::compute_template_span(optimizer, plan, iterations))
            .clone()
    }

    /// Run the full pipeline over one day's view: the five stage functions
    /// of `crate::stages` composed over their typed intermediates. Returns
    /// the day's report; side effects: CB model updates and a new SIS hint
    /// file version.
    ///
    /// The compile-bound stages fan out under
    /// [`crate::config::ParallelismConfig`]; the report, bandit state, and
    /// published hints are bit-identical at any thread count.
    ///
    /// Note one deliberate semantic change from the original interleaved
    /// loop: all contextual-bandit rank calls of a day now happen before any
    /// of that day's rewards are applied (the whole batch acts on the
    /// previous day's model), so per-day numbers differ from the
    /// pre-refactor serial pipeline even at one thread. This is what makes
    /// the recompile fan-out order-free; see `crate::stages`.
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the SIS store rejects the day's
    /// hint-file publish or an internal pipeline invariant is violated;
    /// neither occurs for generated workloads.
    pub fn run_day(&mut self, view: &[ViewRow], day: u32) -> Result<DailyReport, PipelineError> {
        let mut report = DailyReport {
            day,
            jobs_total: view.len(),
            ..DailyReport::default()
        };
        // Stages run sequentially (each fans out internally), so the laps
        // between them attribute every cache lookup — and every wall-clock
        // nanosecond — to exactly one stage (see `crate::meter`).
        let mut meter = self.sample();
        let spanned = stages::feature_gen(self, view, &mut report)?;
        report.bill(Stage::FeatureGen, meter.lap(self));
        let recommended = stages::recommend(self, &spanned, day, &mut report)?;
        report.bill(Stage::Recommend, meter.lap(self));
        let flighted = stages::flight(self, recommended, &mut report);
        report.bill(Stage::Flight, meter.lap(self));
        let validated = stages::validate(self, &flighted, &mut report);
        report.bill(Stage::Validate, meter.lap(self));
        stages::publish(self, validated, day, &mut report)?;
        report.bill(Stage::Publish, meter.lap(self));
        Ok(report)
    }

    /// Gather validation-model training data by flighting random span flips
    /// (the paper's 14-day bootstrap, §4.3). Returns the collected samples.
    pub fn gather_validation_samples(
        &mut self,
        view: &[ViewRow],
        day: u32,
        max_flights: usize,
    ) -> Vec<ValidationSample> {
        let default_config = self.caches.optimizer.default_config();
        let mut requests = Vec::new();
        for row in view.iter().filter(|r| r.recurring) {
            if requests.len() >= max_flights {
                break;
            }
            let Some((span, _)) = self.span_for(row.template, &row.plan) else {
                continue;
            };
            let rules: Vec<_> = span.span.iter().collect();
            let pick = rules[combine(row.job_id.0, u64::from(day)) as usize % rules.len()];
            let enable = !default_config.enabled(pick);
            requests.push(FlightRequest {
                template: row.template,
                plan: row.plan.clone(),
                job_seed: row.job_seed,
                baseline: default_config,
                treatment: default_config.with_flip(RuleFlip { rule: pick, enable }),
            });
        }
        let (outcomes, _) =
            self.flighting
                .flight_batch(&self.caches.optimizer, &self.preprod_exec, &requests);
        outcomes
            .iter()
            .filter_map(|o| o.measurement())
            .map(|m| ValidationSample {
                data_read_delta: m.data_read_delta(),
                data_written_delta: m.data_written_delta(),
                pn_delta: m.pn_delta(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecommendStrategy;
    use scope_workload::{build_view, Workload, WorkloadConfig};

    fn advisor(strategy: RecommendStrategy) -> QoAdvisor {
        QoAdvisor::new(PipelineConfig {
            strategy,
            ..PipelineConfig::default()
        })
    }

    fn day_view(advisor: &QoAdvisor, seed: u64, day: u32) -> Vec<ViewRow> {
        let w = Workload::new(WorkloadConfig {
            seed,
            num_templates: 10,
            adhoc_per_day: 3,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        build_view(
            &w.jobs_for_day(day),
            &Optimizer::default(),
            &advisor.sis().snapshot(),
            &Cluster::default(),
        )
        .expect("generated workloads compile on the default path")
    }

    #[test]
    fn run_day_produces_consistent_report() {
        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        let view = day_view(&qa, 5, 0);
        let report = qa.run_day(&view, 0).unwrap();
        assert_eq!(report.jobs_total, view.len());
        assert!(report.recurring_jobs > 0);
        assert!(report.jobs_with_span <= report.recurring_jobs);
        let outcomes = report.flight_success
            + report.flight_timeout
            + report.flight_failure
            + report.flight_filtered;
        assert_eq!(outcomes, report.flighted);
        assert!(report.validated <= report.flight_success);
        assert_eq!(report.hints_published, report.validated);
    }

    #[test]
    fn table3_counters_partition_recompiles() {
        let mut qa = advisor(RecommendStrategy::UniformRandom);
        let view = day_view(&qa, 5, 0);
        let report = qa.run_day(&view, 0).unwrap();
        let total = report.lower_cost
            + report.equal_cost
            + report.higher_cost
            + report.recompile_failures
            + report.noop_chosen;
        assert_eq!(
            total, report.jobs_with_span,
            "every spanned job is classified"
        );
    }

    #[test]
    fn hints_persist_and_accumulate_in_sis() {
        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        let mut published = 0;
        for day in 0..4 {
            let view = day_view(&qa, 5, day);
            let report = qa.run_day(&view, day).unwrap();
            published += report.hints_published;
        }
        assert!(qa.sis().len() <= published.max(1));
        if published > 0 {
            assert!(qa.sis().version() > 0);
        }
    }

    #[test]
    fn bandit_absorbs_training_events() {
        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        let view = day_view(&qa, 5, 0);
        let report = qa.run_day(&view, 0).unwrap();
        // Every spanned job trains the CB at least once (uniform pass).
        assert!(qa.personalizer().events() >= report.jobs_with_span as u64);
    }

    #[test]
    fn validation_model_gates_acceptance() {
        // A model that rejects everything -> no hints.
        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        qa.set_validation_model(ValidationModel {
            intercept: 10.0, // predicted +1000% regression for everything
            w_read: 0.0,
            w_written: 0.0,
        });
        let view = day_view(&qa, 5, 0);
        let report = qa.run_day(&view, 0).unwrap();
        assert_eq!(report.validated, 0);
        assert_eq!(report.hints_published, 0);
        assert_eq!(qa.sis().version(), 0, "nothing published");
    }

    #[test]
    fn gather_validation_samples_returns_deltas() {
        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        let view = day_view(&qa, 6, 0);
        let samples = qa.gather_validation_samples(&view, 0, 10);
        for s in &samples {
            assert!(s.data_read_delta.is_finite());
            assert!(s.pn_delta.is_finite());
        }
    }

    #[test]
    fn compile_cache_counters_surface_and_do_not_change_steering() {
        use scope_opt::CacheConfig;

        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        let view = day_view(&qa, 5, 0);
        let report = qa.run_day(&view, 0).unwrap();
        assert!(report.compile_cache.total().lookups() > 0);
        // The span fixpoint compiles each template's default configuration
        // once, and nothing flights on this day, so no lookup repeats.
        assert_eq!(report.flighted, 0);
        assert_eq!(report.compile_cache.total().hits, 0);
        assert_eq!(qa.cache_stats(), report.compile_cache.total());
        // A bare run_day is handed a prebuilt view: the simulator-only
        // stages stay zero, every lookup lands in a pipeline stage.
        assert_eq!(report.compile_cache.view_build, CacheStats::default());
        assert_eq!(report.compile_cache.counterfactual, CacheStats::default());
        assert!(report.compile_cache.feature_gen.lookups() > 0);
        assert_eq!(
            report.compile_cache.total(),
            report.compile_cache.feature_gen
                + report.compile_cache.recommend
                + report.compile_cache.flight
        );

        // Same day, cache disabled: zero telemetry, byte-identical steering.
        let mut off = QoAdvisor::new(PipelineConfig {
            cache: CacheConfig::disabled(),
            ..PipelineConfig::default()
        });
        let report_off = off.run_day(&view, 0).unwrap();
        assert_eq!(report_off.compile_cache, CacheCounters::default());
        assert_eq!(off.cache_stats(), scope_opt::CacheStats::default());
        let mut normalized = report.clone();
        normalized.compile_cache = CacheCounters::default();
        // Telemetry-only fields (wall clocks, delta-resolution counters)
        // legitimately differ between the two runs; steering must not.
        normalized.timings = report_off.timings;
        normalized.delta_compile = report_off.delta_compile;
        assert_eq!(
            normalized, report_off,
            "the cache must never change what the pipeline decides"
        );
    }

    /// The advisor flies within its config's budget. Ungated random flips
    /// flight most spanned templates of a day; under the default budget
    /// they burn far more than the experiments' tight 6 h total, which
    /// stops the same day's flights at that total.
    #[test]
    fn flights_stay_within_the_configured_budget() {
        let tight = flighting::FlightBudget {
            total_seconds: 6.0 * 3600.0,
            queue_size: 64,
        };
        let day = |flight_budget: flighting::FlightBudget| {
            let mut qa = QoAdvisor::new(PipelineConfig {
                strategy: RecommendStrategy::UniformRandom,
                est_cost_gate: false,
                max_flights_per_day: 64,
                flight_budget,
                ..PipelineConfig::default()
            });
            let w = Workload::new(WorkloadConfig {
                seed: 2022,
                num_templates: 60,
                adhoc_per_day: 0,
                max_instances_per_day: 1,
                ..WorkloadConfig::default()
            });
            let view = build_view(
                &w.jobs_for_day(0),
                &Optimizer::default(),
                &qa.sis().snapshot(),
                &Cluster::default(),
            )
            .unwrap();
            qa.run_day(&view, 0).unwrap()
        };
        let generous = day(flighting::FlightBudget::default());
        assert!(
            generous.flight_seconds_used > tight.total_seconds,
            "{} s flown under the default budget",
            generous.flight_seconds_used
        );
        let report = day(tight.clone());
        assert!(report.flight_seconds_used <= tight.total_seconds);
        assert!(report.flight_timeout > generous.flight_timeout);
    }

    #[test]
    fn span_cache_avoids_recomputation_across_days() {
        let mut qa = advisor(RecommendStrategy::ContextualBandit);
        let v0 = day_view(&qa, 5, 0);
        qa.run_day(&v0, 0).unwrap();
        let cached = qa.span_cache.len();
        assert!(cached > 0);
        // Day 1 re-sees daily templates; the cache should not shrink and
        // mostly not grow for them.
        let v1 = day_view(&qa, 5, 1);
        qa.run_day(&v1, 1).unwrap();
        assert!(qa.span_cache.len() >= cached);
    }
}
