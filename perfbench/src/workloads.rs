//! The four workloads and the systems they drive.
//!
//! Every workload drives the program only through its real entry points —
//! `ProductionSim::advance_day`, `Fleet::advance_day`,
//! `ProductionSim::restore` — so an optimisation *inside* those calls shows
//! up here. All loops are closed: a day is one batch, submitted only after
//! the previous day completed (the fleet's bounded arrival queue
//! back-pressures its own producer), in a single process, with never more
//! threads than `nproc`.

use crate::stats::timed;
use crate::trace::{self, Recorder};
use qo_advisor::{
    CacheConfig, DayOutcome, DeltaConfig, ExecCacheConfig, FeatureCacheConfig, Fleet, FleetConfig,
    FleetDayOutcome, ParallelismConfig, PipelineConfig, ProductionSim, SnapshotPolicy,
    StreamConfig,
};
use scope_opt::Hint;
use scope_workload::{build_view_row, JobInstance, LiteralPolicy, WorkloadConfig};
use sis::SisStore;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One tenant, `ProductionSim::advance_day` per day.
    Daily,
    /// Many tenants, `Fleet::advance_day` per day.
    Fleet,
    /// One tenant with disk SIS and a snapshot every day; every
    /// [`RESTART_EVERY`]-th day the sim is dropped, rebuilt and restored.
    Durable,
}

/// `durable_restart` restarts before every 5th timed day: 20 % of its days
/// pay a restore, so `day_ms_p90` lands firmly inside the restart days (at
/// exactly 10 % it would sit on the boundary and flap).
pub const RESTART_EVERY: u32 = 5;

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub tenants: usize,
    pub templates: usize,
    pub adhoc: usize,
    pub literals: LiteralPolicy,
    /// Bandit weight-table size (`CbConfig::dim_bits`).
    pub dim_bits: u32,
    /// `bootstrap_validation_model(days, flights_per_day)` per tenant.
    pub bootstrap: (u32, usize),
    /// Untimed days run after the bootstrap so caches fill and hints exist.
    pub warm_days: u32,
    /// Timed days per second of `--seconds`. Sized so that this 2-core
    /// container finishes them in about three quarters of `--seconds`: on a
    /// machine this fast or faster every run measures the *same* days (day
    /// cost drifts with day index as caches churn, so a faster commit must
    /// not be "rewarded" with later, costlier days); on a slower one the
    /// `--seconds` deadline cuts the run short instead.
    pub days_per_second: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "recurring_daily",
        why: "sticky literals: every compile/exec/feature cache hits, so fingerprinting, lookups, simulated execution, Table-1 and slate rank dominate; real compiles are only the ad-hoc tail",
        kind: Kind::Daily,
        tenants: 1,
        templates: 240,
        adhoc: 60,
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
        dim_bits: 20,
        bootstrap: (5, 24),
        warm_days: 10,
        days_per_second: 30.0,
    },
    Spec {
        name: "fresh_daily",
        why: "fresh literals: every submission is a new plan, so bind, uncached compile, span and delta-base builds dominate and every cache runs in write mode (miss, insert, evict)",
        kind: Kind::Daily,
        tenants: 1,
        templates: 240,
        adhoc: 60,
        literals: LiteralPolicy::FreshEachRun,
        dim_bits: 20,
        bootstrap: (5, 24),
        warm_days: 5,
        days_per_second: 6.0,
    },
    Spec {
        name: "fleet_zipf",
        why: "32 tenants with Zipf-shared seeds over shared caches: the only workload where the stream producer, worker pool, reassembly, per-tenant reduce, lock contention and memory dominate",
        kind: Kind::Fleet,
        tenants: 32,
        templates: 48,
        adhoc: 12,
        literals: LiteralPolicy::Mixed {
            sticky_fraction: 0.7,
        },
        dim_bits: 16,
        bootstrap: (2, 8),
        warm_days: 2,
        days_per_second: 3.0,
    },
    Spec {
        name: "durable_restart",
        why: "disk SIS, a snapshot every day and a restore every 5th: scope-state encode/fsync/decode and on-disk sis do most of the work, written and read back",
        kind: Kind::Durable,
        tenants: 1,
        templates: 60,
        adhoc: 15,
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
        dim_bits: 20,
        bootstrap: (5, 24),
        warm_days: 5,
        days_per_second: 15.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Worker threads for the fleet's streaming pipeline: never more than the
/// machine has, at most 4.
pub fn fleet_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}

/// The benchmark's own PRNG (SplitMix64): workload inputs are a function of
/// `--seed` alone and of nothing inside the program.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How many of the fleet's 32 tenants run each of its 12 base seeds: the
/// Zipf(1) shares `32 / (k · H₁₂)` for rank `k`, rounded so they sum to 32.
/// The head seed is shared by ten tenants (clones of each other — the
/// cross-tenant cache-sharing best case), the five tail seeds are private
/// (disjoint — the worst case): the recurring-job skew between the two
/// bounding regimes. The shares are fixed rather than sampled so that every
/// `--seed` has the same sharing structure and differs only in *which*
/// scripts recur.
const FLEET_SEED_SHARES: [usize; 12] = [10, 5, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1];

impl Spec {
    /// The tenants' workload configurations for `--seed`. Single-tenant
    /// workloads use the seed directly. The fleet draws 12 base seeds and a
    /// tenant order from the benchmark's own PRNG and hands the base seeds
    /// out in the Zipf shares above.
    pub fn tenant_configs(&self, seed: u64) -> Vec<WorkloadConfig> {
        let config = |seed| WorkloadConfig {
            seed,
            num_templates: self.templates,
            adhoc_per_day: self.adhoc,
            max_instances_per_day: 2,
            literals: self.literals,
        };
        if self.kind != Kind::Fleet {
            return vec![config(seed)];
        }
        let mut rng = SplitMix64(seed);
        let mut seeds: Vec<u64> = FLEET_SEED_SHARES
            .iter()
            .flat_map(|&share| std::iter::repeat_n(rng.next_u64(), share))
            .collect();
        assert_eq!(seeds.len(), self.tenants);
        // Fisher–Yates: which tenant slot gets which base seed.
        for i in (1..seeds.len()).rev() {
            seeds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        seeds.into_iter().map(config).collect()
    }

    /// The measured configuration: every cache and delta compilation on (the
    /// defaults), serial pipeline stages.
    pub fn pipeline(&self) -> PipelineConfig {
        let mut config = PipelineConfig::default();
        config.cb.dim_bits = self.dim_bits;
        config
    }

    /// The plain path the output check reruns on: every cache, delta
    /// compilation and the batched scorer off, serial — the shortest code
    /// path that must produce the same steering outputs.
    pub fn plain_pipeline(&self) -> PipelineConfig {
        let mut config = PipelineConfig {
            parallelism: ParallelismConfig::serial(),
            cache: CacheConfig::disabled(),
            exec_cache: ExecCacheConfig::disabled(),
            delta: DeltaConfig::disabled(),
            feature_cache: FeatureCacheConfig::disabled(),
            ..PipelineConfig::default()
        };
        config.cb.dim_bits = self.dim_bits;
        config.cb.batch_rank = false;
        config
    }

    pub fn fleet_config(&self, workers: usize) -> FleetConfig {
        FleetConfig {
            pipeline: self.pipeline(),
            stream: StreamConfig {
                workers,
                queue_capacity: 256,
                ..StreamConfig::default()
            },
            isolated_caches: false,
        }
    }

    /// Timed days for a run of `seconds` (at least the days the output check
    /// covers).
    pub fn day_cap(&self, seconds: f64) -> usize {
        ((self.days_per_second * seconds).round() as usize).max(crate::check::CHECK_DAYS)
    }
}

/// What one day produced.
pub struct DayResult {
    /// Jobs completed across all tenants.
    pub jobs: u64,
    /// Per-tenant outcomes, in tenant order.
    pub outcomes: Vec<DayOutcome>,
    /// Wall time of the drop + rebuild + restore this day began with, if any.
    pub restore_ns: Option<u64>,
}

impl DayResult {
    fn single(outcome: DayOutcome) -> Self {
        Self {
            jobs: outcome.report.jobs_total as u64,
            outcomes: vec![outcome],
            restore_ns: None,
        }
    }

    fn fleet(day: FleetDayOutcome) -> Self {
        Self {
            jobs: day.jobs,
            outcomes: day.outcomes,
            restore_ns: None,
        }
    }
}

/// `durable_restart`'s system: the sim plus what is needed to rebuild it.
pub struct Durable {
    sim: Option<ProductionSim>,
    config: WorkloadConfig,
    pipeline: PipelineConfig,
    dir: PathBuf,
    steps: u32,
}

impl Durable {
    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("state.qosnap")
    }

    fn build(&self) -> Result<ProductionSim, String> {
        let store = SisStore::at_dir(self.dir.join("sis")).map_err(|e| e.to_string())?;
        let mut sim =
            ProductionSim::with_sis_store(self.config.clone(), self.pipeline.clone(), store);
        sim.set_snapshot_policy(Some(SnapshotPolicy::every_day(self.snapshot_path())));
        Ok(sim)
    }

    /// Drop the live sim (as a crash would), build a fresh process image and
    /// restore it from the last snapshot.
    fn restart(&mut self) -> Result<(), String> {
        self.sim = None;
        let mut sim = self.build()?;
        sim.restore(self.snapshot_path())
            .map_err(|e| e.to_string())?;
        self.sim = Some(sim);
        Ok(())
    }

    fn sim(&mut self) -> &mut ProductionSim {
        self.sim
            .as_mut()
            .expect("a durable system always holds a sim between steps")
    }
}

pub enum System {
    Daily(Box<ProductionSim>),
    Fleet(Box<Fleet>),
    Durable(Box<Durable>),
}

fn bootstrap(sim: &mut ProductionSim, spec: &Spec) -> Result<(), String> {
    sim.bootstrap_validation_model(spec.bootstrap.0, spec.bootstrap.1)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

impl System {
    /// Set-up: construct, bootstrap the validation model, run the warm days.
    /// `dir` is a private, empty scratch directory (only `durable_restart`
    /// writes to it).
    pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<System, String> {
        let mut configs = spec.tenant_configs(seed);
        let mut system = match spec.kind {
            Kind::Daily => {
                let mut sim = ProductionSim::new(configs.remove(0), spec.pipeline());
                bootstrap(&mut sim, spec)?;
                System::Daily(Box::new(sim))
            }
            Kind::Fleet => {
                let mut fleet = Fleet::new(configs, &spec.fleet_config(fleet_workers()));
                for tenant in fleet.tenants_mut() {
                    bootstrap(&mut tenant.sim, spec)?;
                }
                System::Fleet(Box::new(fleet))
            }
            Kind::Durable => {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                let mut durable = Durable {
                    sim: None,
                    config: configs.remove(0),
                    pipeline: spec.pipeline(),
                    dir: dir.to_path_buf(),
                    steps: 0,
                };
                let mut sim = durable.build()?;
                bootstrap(&mut sim, spec)?;
                durable.sim = Some(sim);
                System::Durable(Box::new(durable))
            }
        };
        for _ in 0..spec.warm_days {
            system.advance()?;
        }
        Ok(system)
    }

    /// One day through the program's own entry point, no restart logic.
    fn advance(&mut self) -> Result<DayResult, String> {
        match self {
            System::Daily(sim) => sim.advance_day().map(DayResult::single),
            System::Durable(d) => d.sim().advance_day().map(DayResult::single),
            System::Fleet(fleet) => fleet.advance_day().map(DayResult::fleet),
        }
        .map_err(|e| e.to_string())
    }

    /// `durable_restart` only: before every [`RESTART_EVERY`]-th timed day,
    /// drop, rebuild and restore the sim (inside a span when tracing).
    /// Returns the restart's wall time if it did.
    fn restart_if_due(&mut self, rec: Option<&mut Recorder>) -> Result<Option<u64>, String> {
        let System::Durable(durable) = self else {
            return Ok(None);
        };
        durable.steps += 1;
        if durable.steps % RESTART_EVERY != 0 {
            return Ok(None);
        }
        let day = durable.sim().day;
        let span = rec.map(|rec| {
            let id = rec.enter(trace::RESTORE, day);
            (rec, id)
        });
        let (restarted, ns) = timed(|| durable.restart());
        if let Some((rec, id)) = span {
            rec.exit(id);
        }
        restarted.map(|()| Some(ns))
    }

    /// One timed day, tracing off: the restart (if due) plus the program's
    /// own `advance_day`.
    pub fn step(&mut self) -> Result<DayResult, String> {
        let restore_ns = self.restart_if_due(None)?;
        let mut day = self.advance()?;
        day.restore_ns = restore_ns;
        Ok(day)
    }

    /// One timed day with the harness's spans around the public calls. A
    /// restart gets its own span before the day's (a restore happens between
    /// days). For a single tenant the day is driven in its documented
    /// decomposition ([`decomposed_day`]) and its jobs are handed back for
    /// the replay pass; `Fleet::advance_day` can only be spanned whole.
    pub fn step_traced(
        &mut self,
        rec: &mut Recorder,
    ) -> Result<(DayResult, Option<Vec<JobInstance>>), String> {
        let restore_ns = self.restart_if_due(Some(rec))?;
        let (mut day, jobs) = match self {
            System::Daily(sim) => decomposed_day(sim, rec).map(|(day, jobs)| (day, Some(jobs)))?,
            System::Durable(d) => {
                decomposed_day(d.sim(), rec).map(|(day, jobs)| (day, Some(jobs)))?
            }
            System::Fleet(fleet) => {
                let day_id = fleet.tenants()[0].sim.day;
                let d = rec.enter(trace::DAY, day_id);
                let f = rec.enter(trace::FLEET_DAY, day_id);
                let day = fleet.advance_day();
                rec.exit(f);
                rec.exit(d);
                (day.map(DayResult::fleet).map_err(|e| e.to_string())?, None)
            }
        };
        day.restore_ns = restore_ns;
        Ok((day, jobs))
    }

    /// The tenant whose loop the replay pass inspects: the only one, or the
    /// fleet's first.
    pub fn probe(&mut self) -> &mut ProductionSim {
        match self {
            System::Daily(sim) => sim,
            System::Durable(d) => d.sim(),
            System::Fleet(fleet) => &mut fleet.tenants_mut()[0].sim,
        }
    }

    fn tenant(&self, index: usize) -> &ProductionSim {
        match self {
            System::Daily(sim) => sim,
            System::Durable(d) => d
                .sim
                .as_ref()
                .expect("a durable system always holds a sim between steps"),
            System::Fleet(fleet) => &fleet.tenants()[index].sim,
        }
    }

    /// Tenant `index`'s installed SIS version and hints (`HintSet::hints`
    /// sorts by template).
    pub fn hints(&self, index: usize) -> (u32, Vec<Hint>) {
        let sis = self.tenant(index).advisor.sis();
        (sis.version(), sis.snapshot().hints())
    }
}

/// `ProductionSim::advance_day`, spelled out with a span per public call
/// under one day span: it is exactly `jobs_for_day`, `build_view_row` per job
/// in order, then `finish_day`. An error leaves its spans open; the traced
/// run ends there.
pub fn decomposed_day(
    sim: &mut ProductionSim,
    rec: &mut Recorder,
) -> Result<(DayResult, Vec<JobInstance>), String> {
    let day = sim.day;
    let d = rec.enter(trace::DAY, day);
    let s = rec.enter(trace::JOBS_FOR_DAY, day);
    let jobs = sim.workload.jobs_for_day(day);
    rec.exit(s);
    let hints = sim.advisor.sis().snapshot();
    let default = sim.advisor.caching_optimizer().default_config();
    let v = rec.enter(trace::VIEW_BUILD, day);
    let mut view = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let s = rec.enter(trace::BUILD_ROW, day);
        let row = build_view_row(
            job,
            sim.advisor.caching_optimizer(),
            &hints,
            &default,
            sim.prod_executor(),
        );
        rec.exit(s);
        view.push(row.map_err(|e| e.to_string())?);
    }
    rec.exit(v);
    let s = rec.enter(trace::FINISH_DAY, day);
    let outcome = sim.finish_day(view);
    rec.exit(s);
    rec.exit(d);
    let outcome = outcome.map_err(|e| e.to_string())?;
    Ok((DayResult::single(outcome), jobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_tenants_share_a_head_seed_and_keep_private_tails() {
        let fleet = spec("fleet_zipf").unwrap();
        for seed in [2022, 7, 1, 99] {
            let configs = fleet.tenant_configs(seed);
            assert_eq!(configs.len(), 32);
            let mut counts = std::collections::BTreeMap::new();
            for c in &configs {
                *counts.entry(c.seed).or_insert(0usize) += 1;
            }
            let mut shares: Vec<usize> = counts.into_values().collect();
            shares.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(shares, FLEET_SEED_SHARES, "seed {seed}");
            // Same seed, same inputs.
            let again = fleet.tenant_configs(seed);
            assert!(configs.iter().zip(&again).all(|(a, b)| a.seed == b.seed));
        }
    }
}
