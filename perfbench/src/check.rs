//! The output check.
//!
//! It cannot drift with the program because it holds no golden values: for
//! the first [`CHECK_DAYS`] timed days of every run, the same seed is rerun
//! on the *plain path* — every cache and delta compilation off, serial,
//! in-memory SIS, uninterrupted, one standalone `ProductionSim` — and the
//! measured run must have produced identical hint sets, identical
//! deterministic `DailyReport` fields (counts and cost bits, not cache
//! counters or timings) and identical hinted-job comparisons. On top of that
//! the plain rerun is held to invariants that do not depend on either path:
//! rows are the submitted jobs in order, the funnel counters nest, and every
//! hinted row's estimated cost and signature equal a fresh uncached
//! `Optimizer::compile`.

use crate::workloads::{DayResult, Kind, Spec, System};
use qo_advisor::{DailyReport, HintedComparison, ProductionSim};
use scope_ir::TemplateId;
use scope_opt::{Hint, Optimizer, RuleFlip, RuleId};
use scope_workload::build_view;

/// Timed days the check covers. `durable_restart` restarts before its 5th,
/// so the window includes a restore.
pub const CHECK_DAYS: usize = 6;

/// What the measured run produced for one tenant on one day.
pub struct DayCapture {
    report: DailyReport,
    comparisons: Vec<HintedComparison>,
    reverted: Vec<TemplateId>,
    sis_version: u32,
    hints: Vec<Hint>,
}

/// The measured run's outputs for the tenants the check covers.
pub struct Capture {
    /// Tenant indices: the only tenant, or for the fleet one head-seed tenant
    /// (its seed shared by the most tenants) and one tail-seed tenant (its
    /// seed shared by the fewest).
    tenants: Vec<usize>,
    days: Vec<Vec<DayCapture>>,
}

impl Capture {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let tenants = if spec.kind == Kind::Fleet {
            let seeds: Vec<u64> = spec.tenant_configs(seed).iter().map(|c| c.seed).collect();
            let share = |t: &usize| seeds.iter().filter(|s| **s == seeds[*t]).count();
            let head = (0..seeds.len()).max_by_key(share).unwrap_or(0);
            let tail = (0..seeds.len()).min_by_key(share).unwrap_or(0);
            vec![head, tail]
        } else {
            vec![0]
        };
        let days = tenants.iter().map(|_| Vec::new()).collect();
        Self { tenants, days }
    }

    pub fn is_full(&self) -> bool {
        self.days.iter().all(|d| d.len() >= CHECK_DAYS)
    }

    /// Record a completed day (call between days, outside any timing).
    pub fn push(&mut self, system: &System, day: &DayResult) {
        for (slot, &tenant) in self.tenants.iter().enumerate() {
            let outcome = &day.outcomes[tenant];
            let (sis_version, hints) = system.hints(tenant);
            self.days[slot].push(DayCapture {
                report: outcome.report.clone(),
                comparisons: outcome.comparisons.clone(),
                reverted: outcome.reverted.clone(),
                sis_version,
                hints,
            });
        }
    }

    /// The self-test's deliberate fault: change the last captured hint set
    /// (drop a hint, or plant one if there is none) so [`verify`] must fail.
    pub fn perturb_hints(&mut self) {
        if let Some(last) = self.days.first_mut().and_then(|d| d.last_mut()) {
            if last.hints.pop().is_none() {
                last.hints.push(Hint {
                    template: TemplateId(0),
                    flip: RuleFlip {
                        rule: RuleId(0),
                        enable: false,
                    },
                });
            }
        }
    }
}

/// The deterministic half of a report: cache/delta counters and wall clocks
/// legitimately differ between the two paths.
fn deterministic(report: &DailyReport) -> DailyReport {
    DailyReport {
        compile_cache: Default::default(),
        exec_cache: Default::default(),
        delta_compile: Default::default(),
        feature_cache: Default::default(),
        timings: Default::default(),
        ..report.clone()
    }
}

fn same_comparisons(a: &[HintedComparison], b: &[HintedComparison]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.template == y.template
                && x.job_id == y.job_id
                && x.default == y.default
                && x.steered == y.steered
        })
}

/// One plain-path day, driven in `advance_day`'s documented decomposition so
/// the view rows can be held to the path-independent invariants.
fn plain_day(sim: &mut ProductionSim, reference: &Optimizer) -> Result<DayCapture, String> {
    let day = sim.day;
    let jobs = sim.workload.jobs_for_day(day);
    let hints = sim.advisor.sis().snapshot();
    let view = build_view(
        &jobs,
        sim.advisor.caching_optimizer(),
        &hints,
        sim.prod_executor(),
    )
    .map_err(|e| e.to_string())?;
    if view.len() != jobs.len()
        || view
            .iter()
            .zip(&jobs)
            .any(|(row, job)| row.job_id != job.job_id || row.day != day)
    {
        return Err(format!(
            "day {day}: view rows are not the submitted jobs in order"
        ));
    }
    let default = reference.default_config();
    for row in view.iter().filter(|r| r.hint_applied) {
        let config = hints.config_for(row.template, &default);
        let fresh = reference
            .compile(&row.plan, &config)
            .map_err(|e| format!("day {day}: hinted row does not compile fresh: {e}"))?;
        if fresh.est_cost.to_bits() != row.est_cost.to_bits() || fresh.signature != row.signature {
            return Err(format!(
                "day {day}: hinted job {:?} differs from a fresh uncached compile",
                row.job_id
            ));
        }
    }
    let max_flights = sim.advisor.config().max_flights_per_day;
    let outcome = sim.finish_day(view).map_err(|e| e.to_string())?;
    let r = &outcome.report;
    if r.jobs_total != jobs.len() {
        return Err(format!(
            "day {day}: report counts {} jobs, {} submitted",
            r.jobs_total,
            jobs.len()
        ));
    }
    if !(r.hints_published <= r.validated && r.validated <= r.flighted && r.flighted <= max_flights)
    {
        return Err(format!(
            "day {day}: funnel does not nest: published {} validated {} flighted {} cap {max_flights}",
            r.hints_published, r.validated, r.flighted
        ));
    }
    let sis = sim.advisor.sis();
    Ok(DayCapture {
        report: outcome.report,
        comparisons: outcome.comparisons,
        reverted: outcome.reverted,
        sis_version: sis.version(),
        hints: sis.snapshot().hints(),
    })
}

/// Rerun the captured tenants on the plain path and compare. `Err` names the
/// first difference.
pub fn verify(spec: &Spec, seed: u64, capture: &Capture) -> Result<(), String> {
    if !capture.is_full() {
        return Err(format!("fewer than {CHECK_DAYS} days were captured"));
    }
    let configs = spec.tenant_configs(seed);
    let reference = Optimizer::default();
    for (slot, &tenant) in capture.tenants.iter().enumerate() {
        let mut sim = ProductionSim::new(configs[tenant].clone(), spec.plain_pipeline());
        sim.bootstrap_validation_model(spec.bootstrap.0, spec.bootstrap.1)
            .map_err(|e| e.to_string())?;
        for _ in 0..spec.warm_days {
            plain_day(&mut sim, &reference)?;
        }
        for (i, fast) in capture.days[slot].iter().take(CHECK_DAYS).enumerate() {
            let plain = plain_day(&mut sim, &reference)?;
            let at = format!("tenant {tenant}, timed day {i}");
            if plain.hints != fast.hints || plain.sis_version != fast.sis_version {
                return Err(format!(
                    "{at}: hint sets differ (measured v{} with {} hints, plain path v{} with {})",
                    fast.sis_version,
                    fast.hints.len(),
                    plain.sis_version,
                    plain.hints.len()
                ));
            }
            let (a, b) = (deterministic(&fast.report), deterministic(&plain.report));
            if a != b
                || a.total_default_cost.to_bits() != b.total_default_cost.to_bits()
                || a.total_chosen_cost.to_bits() != b.total_chosen_cost.to_bits()
            {
                return Err(format!(
                    "{at}: reports differ\n measured {a:?}\n plain    {b:?}"
                ));
            }
            if !same_comparisons(&fast.comparisons, &plain.comparisons) {
                return Err(format!("{at}: hinted-job comparisons differ"));
            }
            if fast.reverted != plain.reverted {
                return Err(format!("{at}: reverted hints differ"));
            }
        }
    }
    Ok(())
}
