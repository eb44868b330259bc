//! Fleet-scale multi-tenant serving: N steering loops over shared caches.
//!
//! The paper's economics are fleet-scale — QO-Advisor steers hundreds of
//! thousands of recurring jobs across many customers per day, and the payoff
//! comes from recurring templates shared *across* the fleet. This module is
//! the structural move from "simulator" to "service": a [`Fleet`] hosts N
//! [`Tenant`]s, each owning a full per-tenant steering loop (workload
//! identity, SIS namespace, Personalizer bandit state, explored set,
//! regression monitor, snapshot path), all layered over ONE process-wide
//! [`SharedCaches`] — compile results, execution results, delta base memos,
//! and span features are shared across tenants because every key is
//! tenant-invariant (see [`SharedCaches`] for the argument).
//!
//! # Streaming pipeline
//!
//! A fleet day is a channel-based streaming pipeline followed by a
//! per-tenant reduce:
//!
//! ```text
//!   producer ──▶ bounded mpsc job-arrival queue ──▶ worker pool
//!   (round-robins the     (backpressure: a full      (each worker pulls a
//!    fleet's arrivals)     queue blocks, never        JobInstance, times one
//!                          drops)                     build_view_row call)
//!                                   │
//!                                   ▼
//!            per-tenant reorder to job order (restores build_view's output
//!            byte-for-byte; `build_view_row` is pure per job)
//!                                   │
//!                                   ▼
//!            per-tenant SERIAL reduce: `ProductionSim::finish_day`
//!            (counterfactuals, monitoring, the five pipeline stages —
//!             rank/reward application stays in job order, preserving the
//!             determinism contract per tenant; tenants reduce in parallel
//!             through `stages::par_map`, workers taking the next tenant as
//!             they free up, because each touches only its own state)
//! ```
//!
//! Each worker stamps a **steering-latency clock** around its
//! `build_view_row` call (the per-job compile-with-hints + execute path — the
//! latency a tenant's job observes from the steering layer) into a
//! per-worker [`LatencyHistogram`]; histograms merge bucket-wise into the
//! day's and the fleet's lifetime distribution (p50/p95/p99), next to a
//! jobs/sec throughput counter ([`FleetMetrics`]).
//!
//! # Load shedding
//!
//! [`StreamConfig::compile_budget`] bounds the compile work each job may
//! spend: with a finite task budget, workers compile through a
//! [`BudgetedCompiler`] whose task-queue cascade stops exploring at the
//! budget and extracts the best plan found so far from the partial memo
//! (`scope_opt::tasks`) — the job still ships, on a possibly-worse plan.
//! Shed decisions are *static*, a pure function of `(plan, config, budget)`
//! — never of queue depth, worker count, or scheduling — so a saturated
//! queue degrades latency, not determinism. Truncation tallies surface per
//! tenant in `DailyReport.compile_budget`, per day in
//! [`FleetDayOutcome::shed`], and fleet-lifetime in [`FleetMetrics::shed`];
//! shed jobs still stamp the steering-latency histogram (their cheaper
//! compiles are exactly the latency relief the budget buys).
//!
//! # Determinism contract, per tenant
//!
//! A tenant inside a fleet — any worker count, any queue capacity, shared or
//! private caches — produces byte-identical `DailyReport`s (normalized:
//! cache/timing telemetry zeroed) and byte-identical SIS hint files to the
//! same workload run alone in a single-tenant [`ProductionSim`]. Two things
//! make this hold: `build_view_row` is pure per job (so arrival interleaving
//! cannot change any row), and everything stateful is applied in
//! [`ProductionSim::finish_day`]'s per-tenant serial reduce in job order.
//! A finite stream budget keeps the contract at any worker count (sheds are
//! per-job-pure); it changes outputs only relative to a *differently
//! budgeted* run. `tests/fleet_determinism.rs` pins the contract.

use crate::config::PipelineConfig;
use crate::monitoring::MonitorConfig;
use crate::pipeline::{PipelineError, SharedCaches};
use crate::simulation::{DayOutcome, ProductionSim};
use crate::snapshot::SnapshotPolicy;
use crate::stages::{par_map, resolve_workers};
use scope_ir::ids::tenant_workload_seed;
use scope_ir::LatencyHistogram;
use scope_opt::{
    BudgetCounters, BudgetStats, BudgetedCompiler, CacheStats, CachingOptimizer, CompileBudget,
    HintSet, RuleConfig,
};
use scope_runtime::CachingExecutor;
use scope_workload::{build_view_row, JobInstance, ViewBuildError, ViewRow, WorkloadConfig};
use sis::{SisError, SisStore};
use std::path::Path;
use std::sync::{mpsc, Mutex};

/// Streaming-pipeline knobs: the worker pool and the arrival queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Worker threads pulling arrivals from the queue (`0` = one per
    /// available core). Purely a throughput knob: per-tenant outputs are
    /// byte-identical at any worker count.
    pub workers: usize,
    /// Bounded capacity of the job-arrival queue. A full queue blocks the
    /// producer (backpressure); arrivals are never dropped.
    pub queue_capacity: usize,
    /// Per-job anytime compile budget the workers apply to view-build
    /// compiles — the fleet's load-shedding knob. Unlimited (the default)
    /// keeps the streaming pipeline a pure throughput knob; a finite task
    /// budget trades plan quality for bounded per-job compile work: each
    /// worker compiles through a [`BudgetedCompiler`], which sheds
    /// exploration past the budget and extracts the best plan found so far
    /// from the partial memo. Shedding is *static and deterministic* — a
    /// budgeted compile is a pure function of `(plan, config, budget)`,
    /// never of queue depth or worker scheduling — so per-tenant outputs
    /// remain byte-identical at any worker count; only which plans ship
    /// changes with the budget itself. Shed tallies land per tenant in
    /// [`crate::pipeline::DailyReport::compile_budget`] and fleet-wide in
    /// [`FleetMetrics::shed`].
    pub compile_budget: CompileBudget,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            compile_budget: CompileBudget::unlimited(),
        }
    }
}

/// Fleet construction knobs.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// The per-tenant pipeline configuration (every tenant runs the same
    /// pipeline; per-tenant *state* is what differs).
    pub pipeline: PipelineConfig,
    /// Streaming-pipeline shape.
    pub stream: StreamConfig,
    /// `true` = all tenants share one process-wide [`SharedCaches`];
    /// `false` = every tenant builds private caches per the pipeline config
    /// (the isolated control regime the cross-tenant uplift benchmark
    /// compares against). Outputs are byte-identical either way.
    pub isolated_caches: bool,
}

/// One tenant: an id plus a full per-tenant steering loop. The sim owns
/// everything tenant-scoped — workload, SIS store, bandit state, explored
/// set, monitor, snapshot policy; only the result caches may be shared.
pub struct Tenant {
    pub id: u32,
    pub sim: ProductionSim,
}

/// Cumulative fleet-level serving metrics.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Per-job steering latency (one `build_view_row`: compile-with-hints +
    /// production execute) over the fleet's lifetime, in nanoseconds.
    pub steering_latency: LatencyHistogram,
    /// Jobs served over the fleet's lifetime.
    pub jobs: u64,
    /// Finite-budget compiles truncated by the anytime budget over the
    /// fleet's lifetime (view-build sheds under the stream budget plus each
    /// tenant's counterfactual sheds) — the load-shedding counter. Always 0
    /// on unlimited budgets; equals the sum of per-tenant
    /// `DailyReport.compile_budget.truncated` otherwise.
    pub shed: u64,
    /// Wall-clock nanoseconds spent inside [`Fleet::advance_day`].
    pub wall_ns: u64,
}

impl FleetMetrics {
    /// Lifetime fleet throughput: jobs served per wall-clock second of
    /// fleet-day processing (0 before any day ran).
    #[must_use]
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.jobs as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// One fleet day: every tenant advanced by one day.
#[derive(Debug)]
pub struct FleetDayOutcome {
    /// Per-tenant outcomes, in tenant order.
    pub outcomes: Vec<DayOutcome>,
    /// Jobs served this day across the fleet.
    pub jobs: u64,
    /// Compiles truncated by the anytime budget this day across the fleet
    /// (the day's shed decisions; 0 on unlimited budgets).
    pub shed: u64,
    /// This day's steering-latency distribution (merged across workers).
    pub steering_latency: LatencyHistogram,
    /// Wall-clock nanoseconds of the whole fleet day (stream + reduce).
    pub wall_ns: u64,
}

/// A multi-tenant fleet of steering loops over shared process-wide caches.
pub struct Fleet {
    tenants: Vec<Tenant>,
    /// The process-wide caches every tenant shares (`None` when the fleet
    /// was built with `isolated_caches`, in which case each tenant owns
    /// private caches).
    shared: Option<SharedCaches>,
    stream: StreamConfig,
    metrics: FleetMetrics,
}

/// One queued job arrival, tagged with its tenant and its position in the
/// tenant's daily job order (the reorder key that restores `build_view`'s
/// output order after arbitrary worker scheduling).
struct Arrival {
    tenant: usize,
    index: usize,
    job: JobInstance,
}

/// The immutable per-tenant state a worker needs to build one view row.
struct TenantCtx<'a> {
    optimizer: &'a CachingOptimizer,
    executor: &'a CachingExecutor,
    hints: HintSet,
    default: RuleConfig,
    /// The tenant advisor's shed counters: workers record every
    /// finite-budget view-build compile here, so per-tenant `DailyReport`
    /// attribution and the fleet-wide [`FleetMetrics::shed`] total reconcile
    /// against one tally.
    counters: &'a BudgetCounters,
}

impl Fleet {
    /// A fleet with in-memory SIS stores, one tenant per workload.
    #[must_use]
    pub fn new(workloads: Vec<WorkloadConfig>, config: &FleetConfig) -> Self {
        let stores = workloads.iter().map(|_| SisStore::in_memory()).collect();
        Self::with_stores(workloads, stores, config)
    }

    /// A fleet with disk-backed SIS namespacing: tenant `t` publishes hint
    /// files into `root/tenant-NNN/` (its private namespace — hints never
    /// cross tenants; only result caches do).
    ///
    /// # Errors
    ///
    /// [`SisError`] when a tenant directory cannot be created or opened.
    pub fn with_sis_root(
        workloads: Vec<WorkloadConfig>,
        config: &FleetConfig,
        root: impl AsRef<Path>,
    ) -> Result<Self, SisError> {
        let stores = (0..workloads.len())
            .map(|t| SisStore::at_dir(root.as_ref().join(format!("tenant-{t:03}"))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::with_stores(workloads, stores, config))
    }

    fn with_stores(
        workloads: Vec<WorkloadConfig>,
        stores: Vec<SisStore>,
        config: &FleetConfig,
    ) -> Self {
        let shared = (!config.isolated_caches).then(|| SharedCaches::from_config(&config.pipeline));
        let tenants = workloads
            .into_iter()
            .zip(stores)
            .enumerate()
            .map(|(t, (workload, sis))| {
                let sim = match &shared {
                    Some(caches) => ProductionSim::with_shared_caches(
                        workload,
                        config.pipeline.clone(),
                        sis,
                        caches,
                    ),
                    None => ProductionSim::with_sis_store(workload, config.pipeline.clone(), sis),
                };
                Tenant { id: t as u32, sim }
            })
            .collect();
        Self {
            tenants,
            shared,
            stream: config.stream,
            metrics: FleetMetrics::default(),
        }
    }

    /// Enable the §8 optimistic-monitoring loop on every tenant.
    #[must_use]
    pub fn with_monitoring(mut self, config: &MonitorConfig) -> Self {
        for tenant in &mut self.tenants {
            tenant.sim.monitor = Some(crate::monitoring::RegressionMonitor::new(config.clone()));
        }
        self
    }

    /// Install per-tenant snapshot policies: tenant `t` snapshots to
    /// `dir/tenant-NNN.qosnap` after every `every`-th of its days.
    pub fn set_snapshot_policies(&mut self, dir: impl AsRef<Path>, every: u32) {
        for tenant in &mut self.tenants {
            tenant.sim.set_snapshot_policy(Some(SnapshotPolicy {
                path: dir.as_ref().join(format!("tenant-{:03}.qosnap", tenant.id)),
                every,
            }));
        }
    }

    #[must_use]
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    pub fn tenants_mut(&mut self) -> &mut [Tenant] {
        &mut self.tenants
    }

    /// Lifetime fleet serving metrics (jobs/sec, latency distribution).
    #[must_use]
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// The process-wide shared caches, when this fleet shares them.
    #[must_use]
    pub fn shared_caches(&self) -> Option<&SharedCaches> {
        self.shared.as_ref()
    }

    /// Fleet-wide lifetime compile-cache counters: the shared cache's, or
    /// the sum over per-tenant private caches in the isolated regime — the
    /// like-for-like comparison behind the cross-tenant hit-uplift number.
    #[must_use]
    pub fn compile_stats(&self) -> CacheStats {
        match &self.shared {
            Some(caches) => caches.compile_stats(),
            None => self
                .tenants
                .iter()
                .map(|t| t.sim.advisor.cache_stats())
                .sum(),
        }
    }

    /// Fleet-wide lifetime span-feature-cache counters (see
    /// [`Fleet::compile_stats`]).
    #[must_use]
    pub fn feature_stats(&self) -> CacheStats {
        match &self.shared {
            Some(caches) => caches.feature_stats(),
            None => self
                .tenants
                .iter()
                .map(|t| t.sim.advisor.feature_stats())
                .sum(),
        }
    }

    /// Advance every tenant by one day through the streaming pipeline:
    /// stream all tenants' arrivals through the shared worker pool, then
    /// run each tenant's serial reduce ([`ProductionSim::finish_day`]).
    /// Updates [`Fleet::metrics`].
    ///
    /// # Errors
    ///
    /// The lowest-`(tenant, job)` [`PipelineError::View`] when a default-path
    /// compile fails (deterministic regardless of worker scheduling), or any
    /// typed pipeline failure from a tenant's reduce.
    pub fn advance_day(&mut self) -> Result<FleetDayOutcome, PipelineError> {
        // qo-lint: allow(ambient-entropy) — fleet throughput telemetry only;
        // per-tenant outputs are compared with timings zeroed
        let t_day = std::time::Instant::now();
        let budget0: Vec<BudgetStats> = self
            .tenants
            .iter()
            .map(|t| t.sim.advisor.budget_stats())
            .collect();
        let (views, view_ns, steering_latency, jobs) = self.stream_views()?;
        let mut outcomes = self.reduce_days(views)?;
        let mut shed = 0u64;
        for ((tenant, (outcome, ns)), b0) in self
            .tenants
            .iter()
            .zip(outcomes.iter_mut().zip(view_ns))
            .zip(budget0)
        {
            // Attribute each tenant's summed per-job build time as its
            // view-build wall clock (the streaming analogue of
            // `advance_day`'s serial measurement; per-stage *cache* counters
            // stay zero for view_build here because shared-cache traffic
            // cannot be attributed to one tenant).
            outcome.report.timings.view_build_ns = ns;
            // Widen the reduce's shed attribution to the whole fleet day:
            // worker-side view-build sheds happen before `finish_day`'s
            // snapshot, and they belong to this tenant's day. Per-tenant
            // counters make this deterministic at any worker count.
            outcome.report.compile_budget = tenant.sim.advisor.budget_stats().since(&b0);
            shed += outcome.report.compile_budget.truncated;
        }
        let wall_ns = t_day.elapsed().as_nanos() as u64;
        self.metrics.steering_latency.merge(&steering_latency);
        self.metrics.jobs += jobs;
        self.metrics.shed += shed;
        self.metrics.wall_ns += wall_ns;
        Ok(FleetDayOutcome {
            outcomes,
            jobs,
            shed,
            steering_latency,
            wall_ns,
        })
    }

    /// Run `days` fleet days.
    ///
    /// # Errors
    ///
    /// The first day's [`PipelineError`].
    pub fn run(&mut self, days: u32) -> Result<Vec<FleetDayOutcome>, PipelineError> {
        (0..days).map(|_| self.advance_day()).collect()
    }

    /// Phase 1+2: stream every tenant's arrivals through the worker pool and
    /// reassemble per-tenant views in job order. Returns the views, each
    /// tenant's summed per-job build nanoseconds, the day's latency
    /// histogram, and the arrival count.
    #[allow(clippy::type_complexity)]
    fn stream_views(
        &self,
    ) -> Result<(Vec<Vec<ViewRow>>, Vec<u64>, LatencyHistogram, u64), PipelineError> {
        let contexts: Vec<TenantCtx> = self
            .tenants
            .iter()
            .map(|t| TenantCtx {
                optimizer: t.sim.advisor.caching_optimizer(),
                executor: t.sim.prod_executor(),
                hints: t.sim.advisor.sis().snapshot(),
                default: t.sim.advisor.optimizer().default_config(),
                counters: t.sim.advisor.budget_counters(),
            })
            .collect();
        let jobs_per_tenant: Vec<Vec<JobInstance>> = self
            .tenants
            .iter()
            .map(|t| t.sim.workload.jobs_for_day(t.sim.day))
            .collect();
        let total_jobs: usize = jobs_per_tenant.iter().map(Vec::len).sum();
        let workers = resolve_workers(self.stream.workers).clamp(1, total_jobs.max(1));

        let (tx, rx) = mpsc::sync_channel::<Arrival>(self.stream.queue_capacity.max(1));
        let rx = Mutex::new(rx);
        let jobs_ref = &jobs_per_tenant;
        let contexts_ref = &contexts;
        let rx_ref = &rx;
        let budget = self.stream.compile_budget;

        type WorkerRows = Vec<(usize, usize, u64, Result<ViewRow, ViewBuildError>)>;
        let worker_outputs: Result<Vec<(WorkerRows, LatencyHistogram)>, PipelineError> =
            std::thread::scope(|s| {
                let producer = s.spawn(move || {
                    // Round-robin the fleet's arrivals (an interleaved
                    // arrival stream, not tenant-by-tenant batches). A full
                    // queue blocks here — bounded backpressure.
                    let mut cursors = vec![0usize; jobs_ref.len()];
                    loop {
                        let mut sent_any = false;
                        for (tenant, list) in jobs_ref.iter().enumerate() {
                            let index = cursors[tenant];
                            if index < list.len() {
                                cursors[tenant] += 1;
                                sent_any = true;
                                let arrival = Arrival {
                                    tenant,
                                    index,
                                    job: list[index].clone(),
                                };
                                if tx.send(arrival).is_err() {
                                    return; // all workers gone (panic path)
                                }
                            }
                        }
                        if !sent_any {
                            break; // tx drops here; workers drain and stop
                        }
                    }
                });
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(move || {
                            let mut rows: WorkerRows = Vec::new();
                            let mut hist = LatencyHistogram::new();
                            loop {
                                let arrival = {
                                    // Poisoned only if a sibling worker
                                    // panicked; stop and let scope propagate.
                                    let Ok(guard) = rx_ref.lock() else { break };
                                    guard.recv()
                                };
                                let Ok(a) = arrival else { break };
                                let ctx = &contexts_ref[a.tenant];
                                // qo-lint: allow(ambient-entropy) — the per-job
                                // steering-latency clock; telemetry only
                                let t = std::time::Instant::now();
                                // Load shedding: a finite stream budget routes
                                // the job's compiles through the task engine
                                // (still a pure per-job function — see
                                // `StreamConfig`); an unlimited one passes
                                // straight through to the tenant's optimizer.
                                let shedding =
                                    BudgetedCompiler::new(ctx.optimizer, budget, ctx.counters);
                                let row = build_view_row(
                                    &a.job,
                                    &shedding,
                                    &ctx.hints,
                                    &ctx.default,
                                    ctx.executor,
                                );
                                let ns = t.elapsed().as_nanos() as u64;
                                hist.record(ns);
                                rows.push((a.tenant, a.index, ns, row));
                            }
                            (rows, hist)
                        })
                    })
                    .collect();
                producer
                    .join()
                    .map_err(|_| PipelineError::Invariant("fleet producer panicked"))?;
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| PipelineError::Invariant("fleet worker panicked"))
                    })
                    .collect()
            });
        let worker_outputs = worker_outputs?;

        // Reassemble: per tenant, rows back in job order — byte-identical to
        // a serial `build_view`. Errors resolve to the lowest (tenant, job)
        // so the failure surfaced is scheduling-independent.
        let mut slots: Vec<Vec<Option<ViewRow>>> = jobs_per_tenant
            .iter()
            .map(|list| list.iter().map(|_| None).collect())
            .collect();
        let mut view_ns: Vec<u64> = vec![0; jobs_per_tenant.len()];
        let mut first_error: Option<(usize, usize, ViewBuildError)> = None;
        let mut steering_latency = LatencyHistogram::new();
        for (rows, hist) in worker_outputs {
            steering_latency.merge(&hist);
            for (tenant, index, ns, row) in rows {
                view_ns[tenant] += ns;
                match row {
                    Ok(row) => slots[tenant][index] = Some(row),
                    Err(e) => {
                        let worse = first_error
                            .as_ref()
                            .is_none_or(|(t0, i0, _)| (tenant, index) < (*t0, *i0));
                        if worse {
                            first_error = Some((tenant, index, e));
                        }
                    }
                }
            }
        }
        if let Some((_, _, error)) = first_error {
            return Err(PipelineError::View(error));
        }
        let views: Vec<Vec<ViewRow>> = slots
            .into_iter()
            .map(|tenant_slots| {
                tenant_slots
                    .into_iter()
                    .map(|slot| {
                        slot.ok_or(PipelineError::Invariant("fleet worker dropped an arrival"))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        Ok((views, view_ns, steering_latency, total_jobs as u64))
    }

    /// Phase 3: the per-tenant serial reduce, parallel *across* tenants —
    /// workers take the next unreduced tenant as they free up, each call
    /// mutates only its own tenant's state, and the shared caches are
    /// `&self`-concurrent. Outcomes come back in tenant order.
    fn reduce_days(&mut self, views: Vec<Vec<ViewRow>>) -> Result<Vec<DayOutcome>, PipelineError> {
        let tenant_days = self.tenants.iter_mut().zip(views);
        par_map(self.stream.workers, tenant_days, |(tenant, view)| {
            tenant.sim.finish_day(view)
        })
        .map_err(|_| PipelineError::Invariant("fleet reduce worker panicked"))?
        .into_iter()
        .collect()
    }
}

/// N tenants running the *same* workload: full template overlap, identical
/// job and run seeds — the cross-tenant cache-sharing best case and the
/// subject of the uplift benchmark (the paper's fleet story: recurring
/// templates shared across customers).
#[must_use]
pub fn overlapping_workloads(n: usize, base: &WorkloadConfig) -> Vec<WorkloadConfig> {
    (0..n).map(|_| base.clone()).collect()
}

/// N tenants with disjoint per-tenant seed streams derived from `base.seed`
/// via [`tenant_workload_seed`]: unrelated templates, schedules, and
/// literals per tenant — the no-overlap regime where shared caches cannot
/// help across tenants (but still cannot hurt correctness).
#[must_use]
pub fn disjoint_workloads(n: usize, base: &WorkloadConfig) -> Vec<WorkloadConfig> {
    (0..n)
        .map(|t| WorkloadConfig {
            seed: tenant_workload_seed(base.seed, t as u32),
            ..base.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> WorkloadConfig {
        WorkloadConfig {
            seed: 41,
            num_templates: 8,
            adhoc_per_day: 2,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn workload_helpers_shape_the_fleet() {
        let base = small_workload();
        let same = overlapping_workloads(4, &base);
        assert_eq!(same.len(), 4);
        assert!(same.iter().all(|w| w.seed == base.seed));
        let disjoint = disjoint_workloads(4, &base);
        let mut seeds: Vec<u64> = disjoint.iter().map(|w| w.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "disjoint tenants draw distinct seeds");
    }

    #[test]
    fn fleet_day_counts_jobs_and_latencies() {
        let mut fleet = Fleet::new(
            overlapping_workloads(3, &small_workload()),
            &FleetConfig::default(),
        );
        let day = fleet.advance_day().expect("generated workloads run clean");
        assert_eq!(day.outcomes.len(), 3);
        let per_tenant_jobs: u64 = day
            .outcomes
            .iter()
            .map(|o| o.report.jobs_total as u64)
            .sum();
        assert_eq!(day.jobs, per_tenant_jobs);
        assert_eq!(day.steering_latency.count(), day.jobs);
        assert!(day.steering_latency.p99() > 0);
        let m = fleet.metrics();
        assert_eq!(m.jobs, day.jobs);
        assert!(m.jobs_per_sec() > 0.0);
        // Every tenant carries its streamed view-build attribution.
        for outcome in &day.outcomes {
            assert!(outcome.report.timings.view_build_ns > 0);
        }
    }

    #[test]
    fn shared_caches_serve_overlapping_tenants_cross_tenant() {
        let workloads = overlapping_workloads(4, &small_workload());
        let mut shared = Fleet::new(workloads.clone(), &FleetConfig::default());
        let mut isolated = Fleet::new(
            workloads,
            &FleetConfig {
                isolated_caches: true,
                ..FleetConfig::default()
            },
        );
        shared.advance_day().expect("shared fleet day");
        isolated.advance_day().expect("isolated fleet day");
        let s = shared.compile_stats();
        let i = isolated.compile_stats();
        assert_eq!(
            s.lookups(),
            i.lookups(),
            "same traffic either way — sharing changes hits, not lookups"
        );
        assert!(
            s.hits > i.hits,
            "identical tenants must hit each other's compile entries: \
             shared {s:?} vs isolated {i:?}"
        );
        assert!(shared.shared_caches().is_some());
        assert!(isolated.shared_caches().is_none());
    }

    #[test]
    fn stream_shape_is_a_pure_throughput_knob() {
        // Tiny queue + 1 worker vs big queue + 8 workers: identical reports.
        let run = |workers: usize, queue: usize| {
            let mut fleet = Fleet::new(
                overlapping_workloads(2, &small_workload()),
                &FleetConfig {
                    stream: StreamConfig {
                        workers,
                        queue_capacity: queue,
                        ..StreamConfig::default()
                    },
                    ..FleetConfig::default()
                },
            );
            let days = fleet.run(2).expect("fleet days run clean");
            days.into_iter()
                .flat_map(|d| d.outcomes)
                .map(|o| {
                    let mut r = o.report;
                    r.compile_cache = Default::default();
                    r.exec_cache = Default::default();
                    r.delta_compile = Default::default();
                    r.feature_cache = Default::default();
                    r.timings = Default::default();
                    format!("{r:?}")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1, 1), run(8, 512));
    }
}
