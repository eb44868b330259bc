//! Fleet-scale multi-tenant serving: N steering loops over shared caches.
//!
//! The paper's economics are fleet-scale — QO-Advisor steers hundreds of
//! thousands of recurring jobs across many customers per day, and the payoff
//! comes from recurring templates shared *across* the fleet. This module is
//! the structural move from "simulator" to "service": a [`Fleet`] hosts N
//! [`Tenant`]s, each owning a full per-tenant steering loop (workload
//! identity, SIS namespace, Personalizer bandit state, explored set,
//! regression monitor, snapshot path), all layered over ONE process-wide
//! set of caches (the crate-private `pipeline::SharedCaches`) — compile
//! results, stage graphs, delta base memos, and span features are shared
//! across tenants because every key is tenant-invariant (its docs give the
//! argument).
//!
//! # One day loop
//!
//! A fleet day is the single-tenant day over N tenants: three passes of the
//! crate's one parallel map (`stages::par_map`), each returning its results
//! in input order, at [`StreamConfig::workers`]:
//!
//! ```text
//!   per tenant: Workload::jobs_for_day
//!                                   │
//!                                   ▼
//!   day::views — every tenant's jobs laid end to end (tenant-major, job
//!   order within a tenant), one clocked build_view_row per job, the results
//!   split back per tenant by length: each view is byte-for-byte
//!   `build_view`'s output (`build_view_row` is pure per job)
//!                                   │
//!                                   ▼
//!   per tenant: the SERIAL reduce `ProductionSim::finish_day`
//!   (counterfactuals, monitoring, the five pipeline stages — rank/reward
//!    application stays in job order, preserving the determinism contract
//!    per tenant; workers take the next tenant as they free up, because
//!    each touches only its own state)
//! ```
//!
//! [`ProductionSim::advance_day`] is the same `day::views` call over one
//! tenant at width 1.
//!
//! Each row carries a **steering-latency clock** around its
//! `build_view_row` call (the per-job compile-with-hints + execute path — the
//! latency a tenant's job observes from the steering layer); the day's
//! [`LatencyHistogram`] is filled from the returned rows and merged into the
//! fleet's lifetime distribution (p50/p95/p99), next to its job and
//! wall-time counters ([`FleetMetrics`]).
//!
//! # Load shedding
//!
//! A fleet never sheds: every compile of the day loop, in the view build and
//! in each tenant's reduce, runs to completion through the tenant's caching
//! optimizer. The fleet stays within budget by capping flighting
//! ([`PipelineConfig::flight_budget`]).
//!
//! # Determinism contract, per tenant
//!
//! A tenant inside a fleet — any worker count, shared or private caches —
//! produces byte-identical `DailyReport`s (normalized: cache/timing
//! telemetry zeroed) and byte-identical SIS hint files to the same workload
//! run alone in a single-tenant [`ProductionSim`]. Two things make this
//! hold: `build_view_row` is pure per job (so which worker builds which row,
//! and when, cannot change any row), and everything stateful is applied in
//! [`ProductionSim::finish_day`]'s per-tenant serial reduce in job order.
//! `tests/fleet_determinism.rs` pins the contract.

use crate::config::PipelineConfig;
use crate::day::{self, TenantView};
use crate::meter::{Lap, Stage};
use crate::pipeline::{PipelineError, SharedCaches};
use crate::simulation::{DayOutcome, ProductionSim};
use crate::snapshot::SnapshotPolicy;
use crate::stages::par_map;
use scope_ir::ids::tenant_workload_seed;
use scope_ir::LatencyHistogram;
use scope_opt::CacheStats;
use scope_workload::WorkloadConfig;
use sis::{SisError, SisStore};
use std::path::Path;

/// Fleet-day parallelism: the worker pool of the day's three passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Worker threads for job generation, the view build and the per-tenant
    /// reduce (`0` = one per available core). Purely a throughput knob:
    /// per-tenant outputs are byte-identical at any worker count.
    pub workers: usize,
    /// No effect; ROADMAP 1a deletes it with the harness's mention.
    pub queue_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
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
    /// No effect: every fleet's tenants share one process-wide
    /// set of caches. Kept only because the benchmark harness spells it;
    /// the isolated control regime is N independent [`ProductionSim`]s.
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
    /// Wall-clock nanoseconds spent inside [`Fleet::advance_day`].
    pub wall_ns: u64,
}

/// One fleet day: every tenant advanced by one day.
#[derive(Debug)]
pub struct FleetDayOutcome {
    /// Per-tenant outcomes, in tenant order.
    pub outcomes: Vec<DayOutcome>,
    /// Jobs served this day across the fleet.
    pub jobs: u64,
    /// Always `0`: a fleet never sheds. No effect; ROADMAP 1a deletes it
    /// with the harness's mention.
    pub shed: u64,
    /// This day's steering-latency distribution (merged across workers).
    pub steering_latency: LatencyHistogram,
    /// Wall-clock nanoseconds of the whole fleet day (stream + reduce).
    pub wall_ns: u64,
}

/// A multi-tenant fleet of steering loops over shared process-wide caches.
pub struct Fleet {
    tenants: Vec<Tenant>,
    /// The process-wide caches every tenant shares.
    shared: SharedCaches,
    stream: StreamConfig,
    metrics: FleetMetrics,
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
        let shared = SharedCaches::from_config(&config.pipeline);
        let tenants = workloads
            .into_iter()
            .zip(stores)
            .enumerate()
            .map(|(t, (workload, sis))| Tenant {
                id: t as u32,
                sim: ProductionSim::with_shared_caches(
                    workload,
                    config.pipeline.clone(),
                    sis,
                    shared.clone(),
                ),
            })
            .collect();
        Self {
            tenants,
            shared,
            stream: config.stream,
            metrics: FleetMetrics::default(),
        }
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

    /// Lifetime fleet serving metrics (jobs, wall time, latency
    /// distribution).
    #[must_use]
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Fleet-wide lifetime compile-cache counters (the shared cache's).
    #[must_use]
    pub fn compile_stats(&self) -> CacheStats {
        self.shared.compile_stats()
    }

    /// Fleet-wide lifetime span-feature-cache counters (the shared cache's).
    #[must_use]
    pub fn feature_stats(&self) -> CacheStats {
        self.shared.feature_stats()
    }

    /// Advance every tenant by one day: generate every tenant's jobs, build
    /// all their views on the shared worker pool (`day::views`), then run
    /// each tenant's serial reduce ([`ProductionSim::finish_day`]). Updates
    /// [`Fleet::metrics`].
    ///
    /// # Errors
    ///
    /// The lowest-`(tenant, job)` [`PipelineError::View`] when a default-path
    /// compile fails (deterministic regardless of worker scheduling), or any
    /// typed pipeline failure from a tenant's reduce.
    pub fn advance_day(&mut self) -> Result<FleetDayOutcome, PipelineError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "fleet throughput telemetry only; per-tenant outputs are compared with timings zeroed"
        )]
        let t_day = std::time::Instant::now();
        let workers = self.stream.workers;
        let sims: Vec<&ProductionSim> = self.tenants.iter().map(|t| &t.sim).collect();
        let jobs = par_map(workers, &sims, |sim| sim.workload.jobs_for_day(sim.day))
            .map_err(|_| PipelineError::Invariant("job-generation worker panicked"))?;
        let (views, steering_latency) = day::views(&sims, &jobs, workers)?;
        let outcomes = self.reduce_days(views)?;
        let jobs = steering_latency.count();
        let wall_ns = t_day.elapsed().as_nanos() as u64;
        self.metrics.steering_latency.merge(&steering_latency);
        self.metrics.jobs += jobs;
        self.metrics.wall_ns += wall_ns;
        Ok(FleetDayOutcome {
            outcomes,
            jobs,
            shed: 0,
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

    /// The per-tenant serial reduce, parallel *across* tenants — workers
    /// take the next unreduced tenant as they free up, each call mutates
    /// only its own tenant's state, and the shared caches are
    /// `&self`-concurrent. Outcomes come back in tenant order.
    ///
    /// Each tenant's view build is billed as the lap `finish_day` never saw:
    /// its summed per-job build time, the fleet's analogue of
    /// [`ProductionSim::advance_day`]'s meter lap. The lap's counters stay
    /// zero: shared-cache traffic while all tenants build at once cannot be
    /// attributed to one tenant.
    fn reduce_days(&mut self, views: Vec<TenantView>) -> Result<Vec<DayOutcome>, PipelineError> {
        let tenant_days = self.tenants.iter_mut().zip(views);
        let reduce = |(tenant, (view, ns)): (&mut Tenant, TenantView)| {
            let mut outcome = tenant.sim.finish_day(view)?;
            let view_build = Lap {
                ns,
                ..Lap::default()
            };
            outcome.report.bill(Stage::ViewBuild, view_build);
            Ok(outcome)
        };
        par_map(self.stream.workers, tenant_days, reduce)
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
        assert!(m.wall_ns > 0);
        assert_eq!(day.shed, 0);
        // Every tenant carries its view-build attribution, a clock-only
        // lap: the fleet's all-tenant build cannot bill cache traffic to one
        // tenant.
        for outcome in &day.outcomes {
            assert!(outcome.report.timings.view_build_ns > 0);
            assert_eq!(
                outcome.report.compile_cache.view_build,
                CacheStats::default()
            );
        }
    }

    #[test]
    fn shared_caches_serve_overlapping_tenants_cross_tenant() {
        let workloads = overlapping_workloads(4, &small_workload());
        let mut shared = Fleet::new(workloads.clone(), &FleetConfig::default());
        shared.advance_day().expect("shared fleet day");
        // The isolated control: one independent, privately cached sim per
        // tenant, run over the same day.
        let i: CacheStats = workloads
            .into_iter()
            .map(|w| {
                let mut sim = ProductionSim::new(w, PipelineConfig::default());
                sim.advance_day().expect("isolated tenant day");
                sim.advisor.cache_stats()
            })
            .sum();
        let s = shared.compile_stats();
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
    }

    #[test]
    fn stream_shape_is_a_pure_throughput_knob() {
        // 1 worker vs 2, 3 or 8: identical reports.
        let run = |workloads: Vec<WorkloadConfig>, workers: usize| {
            let mut fleet = Fleet::new(
                workloads,
                &FleetConfig {
                    stream: StreamConfig {
                        workers,
                        ..StreamConfig::default()
                    },
                    ..FleetConfig::default()
                },
            );
            let days = fleet.run(2).expect("fleet days run clean");
            let jobs: u64 = days.iter().map(|d| d.jobs).sum();
            let reports = days
                .into_iter()
                .flat_map(|d| d.outcomes)
                .map(|o| format!("{:?}", o.report.steering()))
                .collect::<Vec<_>>();
            (jobs, reports)
        };
        let two = || overlapping_workloads(2, &small_workload());
        let serial = run(two(), 1);
        for workers in [8, 2, 3] {
            assert_eq!(serial, run(two(), workers), "workers={workers}");
        }
        // More workers than the whole fleet has jobs.
        let tiny = || {
            vec![WorkloadConfig {
                num_templates: 2,
                adhoc_per_day: 0,
                ..small_workload()
            }]
        };
        let serial = run(tiny(), 1);
        assert!((1..16).contains(&serial.0), "jobs: {}", serial.0);
        assert_eq!(serial, run(tiny(), 16));
    }
}
