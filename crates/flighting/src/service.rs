//! The flighting service proper: queued A/B runs under budget.

use crate::budget::{BudgetTracker, FlightBudget, MAX_JOB_SECONDS};
use crate::outcome::{FlightMeasurement, FlightOutcome};
use scope_ir::ids::{flight_baseline_run_seed, flight_treatment_run_seed, preflight_draw, unit};
use scope_ir::logical::LogicalPlan;
use scope_ir::TemplateId;
use scope_opt::{Optimizer, RuleConfig};
use scope_runtime::Executor;
use std::sync::Arc;

/// One flighting request: a job and the two configurations to compare.
#[derive(Debug, Clone)]
pub struct FlightRequest {
    pub template: TemplateId,
    pub plan: Arc<LogicalPlan>,
    pub job_seed: u64,
    pub baseline: RuleConfig,
    pub treatment: RuleConfig,
}

/// The pre-production flighting environment: its budget and its noise
/// position. The cluster flights run on is the [`Executor`] handed to
/// [`FlightingService::flight_batch`], so a shared execution cache can sit
/// behind it.
#[derive(Debug)]
pub struct FlightingService {
    budget: FlightBudget,
    /// Deterministic per-batch salt so different days see fresh noise.
    batch_salt: u64,
}

impl FlightingService {
    #[must_use]
    pub fn new(budget: FlightBudget) -> Self {
        Self {
            budget,
            batch_salt: 0,
        }
    }

    /// The current batch salt — the service's only cross-day RNG position
    /// (incremented once per [`FlightingService::flight_batch`]), exported
    /// into snapshots so a restored process draws the same preflight and
    /// flight noise the uninterrupted one would have.
    #[must_use]
    pub fn batch_salt(&self) -> u64 {
        self.batch_salt
    }

    /// Restore the batch salt from a snapshot (`scope-state`).
    pub fn restore_batch_salt(&mut self, batch_salt: u64) {
        self.batch_salt = batch_salt;
    }

    /// Probability-8% deterministic "inputs expired" failures and
    /// probability-7% unsupported job classes, drawn per (job, batch).
    fn preflight_outcome(&self, job_seed: u64) -> Option<FlightOutcome> {
        let u = unit(preflight_draw(job_seed, self.batch_salt));
        if u < 0.08 {
            return Some(FlightOutcome::Failure("job inputs expired".into()));
        }
        if u < 0.15 {
            return Some(FlightOutcome::Filtered);
        }
        None
    }

    /// Flight a batch of requests **in the given order** (callers order by
    /// estimated cost delta so the most promising jobs flight first, §4.3).
    /// Returns one outcome per request plus the final budget accounting.
    /// Both runs of every flight execute on `executor`: it is the
    /// pre-production cluster. Passing the pipeline's cached [`Optimizer`]
    /// lets the validation recompiles reuse its compile-result cache, and
    /// passing a `scope_runtime::CachingExecutor` lets the
    /// baseline/treatment runs share its execution cache (the baseline plan
    /// is usually the very default plan the production view already
    /// executed, so at least its stage graph is a lookup).
    pub fn flight_batch<E: Executor>(
        &mut self,
        optimizer: &Optimizer,
        executor: &E,
        requests: &[FlightRequest],
    ) -> (Vec<FlightOutcome>, BudgetTracker) {
        self.batch_salt = self.batch_salt.wrapping_add(1);
        let mut tracker = BudgetTracker::default();
        let mut outcomes = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            // Queue size bounds how many jobs even enter the system.
            if i >= self.budget.queue_size {
                outcomes.push(FlightOutcome::Timeout);
                continue;
            }
            if let Some(out) = self.preflight_outcome(req.job_seed) {
                outcomes.push(out);
                continue;
            }
            // Both arms must compile in pre-production. The treatment goes
            // through the slate API: an optimizer with a delta compiler
            // prices it against the baseline configuration's shared base
            // memo (byte-identical to a from-scratch compile — usually it is
            // already a compile-cache hit anyway, because recommendation
            // priced the same `(plan, treatment)` pair earlier the same day).
            let baseline = match optimizer.compile(&req.plan, &req.baseline) {
                Ok(c) => c,
                Err(e) => {
                    outcomes.push(FlightOutcome::Failure(format!("baseline: {e}")));
                    continue;
                }
            };
            let treatment = match optimizer
                .compile_slate(
                    &req.plan,
                    &req.baseline,
                    std::slice::from_ref(&req.treatment),
                )
                .pop()
            {
                Some(Ok(c)) => c,
                Some(Err(e)) => {
                    outcomes.push(FlightOutcome::Failure(format!("treatment: {e}")));
                    continue;
                }
                // The slate contract is one result per treatment; a missing
                // entry is a compiler bug, reported as a failed flight
                // rather than a panic in the steering path.
                None => {
                    outcomes.push(FlightOutcome::Failure(
                        "treatment: slate compiler returned no result".to_string(),
                    ));
                    continue;
                }
            };
            let run_a = flight_baseline_run_seed(req.job_seed, self.batch_salt);
            let run_b = flight_treatment_run_seed(req.job_seed, self.batch_salt);
            let base_m = executor.execute(&baseline.physical, req.job_seed, run_a);
            let treat_m = executor.execute(&treatment.physical, req.job_seed, run_b);
            let elapsed = base_m.latency_sec + treat_m.latency_sec;
            if base_m.latency_sec > MAX_JOB_SECONDS || treat_m.latency_sec > MAX_JOB_SECONDS {
                // Charge what we burned discovering the timeout.
                let capped = elapsed.min(2.0 * MAX_JOB_SECONDS);
                let _ = tracker.try_charge(capped, &self.budget);
                outcomes.push(FlightOutcome::Timeout);
                continue;
            }
            if !tracker.try_charge(elapsed, &self.budget) {
                outcomes.push(FlightOutcome::Timeout);
                continue;
            }
            outcomes.push(FlightOutcome::Success(FlightMeasurement {
                baseline: base_m,
                treatment: treat_m,
            }));
        }
        (outcomes, tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_opt::RuleFlip;
    use scope_runtime::Cluster;
    use scope_workload::{Workload, WorkloadConfig};

    fn requests(n: usize) -> (Optimizer, Vec<FlightRequest>) {
        let optimizer = Optimizer::default();
        let w = Workload::new(WorkloadConfig {
            seed: 31,
            num_templates: n,
            adhoc_per_day: 0,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        let default = optimizer.default_config();
        let reqs = w
            .jobs_for_day(0)
            .into_iter()
            .map(|j| FlightRequest {
                template: j.template,
                plan: j.plan,
                job_seed: j.job_seed,
                baseline: default,
                // Flip an off-by-default transform on.
                treatment: default.with_flip(RuleFlip {
                    rule: scope_opt::RuleId(21),
                    enable: true,
                }),
            })
            .collect();
        (optimizer, reqs)
    }

    #[test]
    fn successful_flights_return_measurements() {
        let (optimizer, reqs) = requests(12);
        let mut svc = FlightingService::new(FlightBudget::default());
        let (outcomes, tracker) = svc.flight_batch(&optimizer, &Cluster::default(), &reqs);
        assert_eq!(outcomes.len(), reqs.len());
        let successes = outcomes.iter().filter(|o| o.is_success()).count();
        assert!(
            successes > 0,
            "most flights succeed under a generous budget"
        );
        assert!(tracker.used_seconds > 0.0);
        for o in &outcomes {
            if let FlightOutcome::Success(m) = o {
                assert!(m.baseline.pn_hours > 0.0);
                assert!(m.treatment.pn_hours > 0.0);
            }
        }
    }

    /// Flights are measured on the executor handed to `flight_batch`: on a
    /// noise-free cluster each success is exactly the direct runs of its two
    /// compiled plans there, and the same batch on a noisy cluster differs.
    #[test]
    fn flights_measure_on_the_executor_they_are_handed() {
        let (optimizer, reqs) = requests(12);
        let quiet = Cluster::deterministic();
        let batch = |executor: &Cluster| {
            let mut svc = FlightingService::new(FlightBudget::default());
            svc.flight_batch(&optimizer, executor, &reqs).0
        };
        let outcomes = batch(&quiet);
        assert_ne!(outcomes, batch(&Cluster::default()));
        let mut checked = 0;
        for (req, outcome) in reqs.iter().zip(&outcomes) {
            let FlightOutcome::Success(m) = outcome else {
                continue;
            };
            let run = |config, run_seed| {
                let plan = optimizer.compile(&req.plan, config).unwrap().physical;
                quiet.execute(&plan, req.job_seed, run_seed)
            };
            // The first batch of a fresh service runs at salt 1.
            let seeds = (
                flight_baseline_run_seed(req.job_seed, 1),
                flight_treatment_run_seed(req.job_seed, 1),
            );
            assert_eq!(m.baseline, run(&req.baseline, seeds.0));
            assert_eq!(m.treatment, run(&req.treatment, seeds.1));
            checked += 1;
        }
        assert!(checked > 0, "some flight succeeds");
    }

    #[test]
    fn tight_budget_times_out_tail_jobs() {
        let (optimizer, reqs) = requests(14);
        let mut svc = FlightingService::new(FlightBudget {
            total_seconds: 1_500.0,
            queue_size: 64,
        });
        let (outcomes, tracker) = svc.flight_batch(&optimizer, &Cluster::default(), &reqs);
        let timeouts = outcomes
            .iter()
            .filter(|o| matches!(o, FlightOutcome::Timeout))
            .count();
        assert!(timeouts > 0, "tight budget must reject tail jobs");
        assert!(tracker.used_seconds <= 1_500.0 + 1e-9);
    }

    #[test]
    fn queue_size_caps_accepted_jobs() {
        let (optimizer, reqs) = requests(10);
        let mut svc = FlightingService::new(FlightBudget {
            queue_size: 3,
            ..FlightBudget::default()
        });
        let (outcomes, _) = svc.flight_batch(&optimizer, &Cluster::default(), &reqs);
        let past_queue = &outcomes[3.min(outcomes.len())..];
        assert!(past_queue
            .iter()
            .all(|o| matches!(o, FlightOutcome::Timeout)));
    }

    #[test]
    fn some_jobs_fail_or_filter_deterministically() {
        let (optimizer, reqs) = requests(40);
        let mut svc = FlightingService::new(FlightBudget::default());
        let (outcomes, _) = svc.flight_batch(&optimizer, &Cluster::default(), &reqs);
        let failures = outcomes
            .iter()
            .filter(|o| matches!(o, FlightOutcome::Failure(_) | FlightOutcome::Filtered))
            .count();
        assert!(failures > 0, "≈15% of jobs fail or are filtered");
        assert!(failures < reqs.len() / 2);
    }

    #[test]
    fn batches_see_fresh_noise_but_service_is_deterministic() {
        let (optimizer, reqs) = requests(6);
        let run = || {
            let mut svc = FlightingService::new(FlightBudget::default());
            let (o1, _) = svc.flight_batch(&optimizer, &Cluster::default(), &reqs);
            let (o2, _) = svc.flight_batch(&optimizer, &Cluster::default(), &reqs);
            (o1, o2)
        };
        let (a1, a2) = run();
        let (b1, b2) = run();
        // Same service state sequence => same outcomes.
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        // Different batches see different noise: at least one measurement
        // differs between batch 1 and batch 2.
        let pair_differs = a1.iter().zip(a2.iter()).any(|(x, y)| match (x, y) {
            (FlightOutcome::Success(mx), FlightOutcome::Success(my)) => {
                (mx.baseline.latency_sec - my.baseline.latency_sec).abs() > 1e-9
            }
            _ => x != y,
        });
        assert!(pair_differs);
    }
}
