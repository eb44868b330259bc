//! Pre-QO-Advisor baselines.
//!
//! * [`random_flip`] — the uniform-at-random single-flip policy compared
//!   against the CB in Table 3.
//! * [`Negi2021`] — the heuristic of the authors' earlier work (§2.1):
//!   sample many full configurations over the span, recompile all, keep the
//!   cost-improving ones, flight the top-k, deploy the best measured one.
//!   Its recompile/flight volume is what made the approach "expensive to
//!   maintain" (§2.2); the maintenance-cost comparison is an experiment in
//!   the bench crate.

use flighting::{FlightOutcome, FlightRequest, FlightingService};
use scope_ir::ids::{EXHAUSTIVE_SAMPLE_SALT, RANDOM_FLIP_SALT};
use scope_ir::logical::LogicalPlan;
use scope_ir::TemplateId;
use scope_opt::{Optimizer, RuleConfig, RuleFlip, SpanResult};
use scope_runtime::Executor;
use std::sync::Arc;

/// Uniform-at-random flip over the span. Deterministic in `seed`.
#[must_use]
pub fn random_flip(span: &SpanResult, default: &RuleConfig, seed: u64) -> Option<RuleFlip> {
    let rules: Vec<_> = span.span.iter().collect();
    if rules.is_empty() {
        return None;
    }
    let rule = rules[(RANDOM_FLIP_SALT.mix(seed) as usize) % rules.len()];
    Some(RuleFlip {
        rule,
        enable: !default.enabled(rule),
    })
}

/// Configuration of the Negi-et-al.-2021 sampling heuristic.
#[derive(Debug, Clone)]
pub struct Negi2021 {
    /// Configurations sampled uniformly over the span (paper: 1000).
    pub samples: usize,
    /// Best-estimated configurations flighted (paper: 10).
    pub top_k: usize,
}

impl Default for Negi2021 {
    fn default() -> Self {
        Self {
            samples: 1000,
            top_k: 10,
        }
    }
}

/// Cost accounting of one Negi-2021 search (the "expensive to maintain"
/// evidence: recompiles and flights consumed per job).
#[derive(Debug, Clone, Default)]
pub struct Negi2021Outcome {
    /// The winning configuration, if any improved the measured runtime.
    pub chosen: Option<(RuleConfig, f64)>,
    pub recompiles: usize,
    pub recompile_failures: usize,
    pub improved_estimates: usize,
    pub flights: usize,
    pub flight_seconds: f64,
}

impl Negi2021 {
    /// Run the §2.1 heuristic for one job:
    /// 1. sample `samples` uniform configurations over the span;
    /// 2. recompile all, keep those with better estimated cost;
    /// 3. flight the `top_k` most promising against the default;
    /// 4. pick the flighted configuration with the best PNhours, if it
    ///    improves over the default.
    #[allow(clippy::too_many_arguments)] // one knob per §2.1 search input
    pub fn search<E: Executor>(
        &self,
        optimizer: &Optimizer,
        flighting: &mut FlightingService,
        executor: &E,
        template: TemplateId,
        plan: &Arc<LogicalPlan>,
        job_seed: u64,
        span: &SpanResult,
    ) -> Negi2021Outcome {
        let default = optimizer.default_config();
        let mut outcome = Negi2021Outcome::default();
        let Ok(base) = optimizer.compile(plan, &default) else {
            return outcome;
        };
        let rules: Vec<_> = span.span.iter().collect();
        if rules.is_empty() {
            return outcome;
        }

        // Step 1 + 2: uniform sampling over the span, recompile, keep
        // configurations with better estimates.
        let mut improving: Vec<(RuleConfig, f64)> = Vec::new();
        for i in 0..self.samples {
            let draw = EXHAUSTIVE_SAMPLE_SALT.mix_tagged(job_seed, i as u64);
            let flips: Vec<RuleFlip> = rules
                .iter()
                .enumerate()
                .filter(|(j, _)| (draw >> (j % 63)) & 1 == 1)
                .map(|(_, &rule)| RuleFlip {
                    rule,
                    enable: !default.enabled(rule),
                })
                .collect();
            if flips.is_empty() {
                continue;
            }
            let cfg = default.with_flips(&flips);
            outcome.recompiles += 1;
            match optimizer.compile(plan, &cfg) {
                Ok(c) if c.est_cost < base.est_cost => improving.push((cfg, c.est_cost)),
                Ok(_) => {}
                Err(_) => outcome.recompile_failures += 1,
            }
        }
        outcome.improved_estimates = improving.len();
        improving.sort_by(|a, b| a.1.total_cmp(&b.1));
        improving.dedup_by(|a, b| a.0 == b.0);
        improving.truncate(self.top_k);

        // Step 3: flight the survivors against the default.
        let requests: Vec<FlightRequest> = improving
            .iter()
            .map(|(cfg, _)| FlightRequest {
                template,
                plan: plan.clone(),
                job_seed,
                baseline: default,
                treatment: *cfg,
            })
            .collect();
        let (results, tracker) = flighting.flight_batch(optimizer, executor, &requests);
        outcome.flights = requests.len();
        outcome.flight_seconds = tracker.used_seconds;

        // Step 4: best measured runtime, if improving.
        let mut best: Option<(RuleConfig, f64)> = None;
        for ((cfg, _), res) in improving.iter().zip(results.iter()) {
            if let FlightOutcome::Success(m) = res {
                let delta = m.pn_delta();
                if delta < 0.0 && best.as_ref().is_none_or(|(_, d)| delta < *d) {
                    best = Some((*cfg, delta));
                }
            }
        }
        outcome.chosen = best;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flighting::FlightBudget;
    use scope_opt::compute_span;
    use scope_runtime::Cluster;
    use scope_workload::{Workload, WorkloadConfig};

    fn setup() -> (
        Optimizer,
        FlightingService,
        TemplateId,
        Arc<LogicalPlan>,
        u64,
        SpanResult,
    ) {
        let optimizer = Optimizer::default();
        let w = Workload::new(WorkloadConfig {
            seed: 77,
            num_templates: 6,
            adhoc_per_day: 0,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        let jobs = w.jobs_for_day(0);
        let job = jobs
            .iter()
            .find(|j| {
                compute_span(&optimizer, &j.plan, 6)
                    .map(|s| s.len() >= 3)
                    .unwrap_or(false)
            })
            .expect("some job has a span");
        let span = compute_span(&optimizer, &job.plan, 6).unwrap();
        let flighting = FlightingService::new(FlightBudget::default());
        (
            optimizer,
            flighting,
            job.template,
            job.plan.clone(),
            job.job_seed,
            span,
        )
    }

    #[test]
    fn random_flip_is_deterministic_and_in_span() {
        let (optimizer, _, _, _, _, span) = setup();
        let default = optimizer.default_config();
        let f1 = random_flip(&span, &default, 42).unwrap();
        let f2 = random_flip(&span, &default, 42).unwrap();
        assert_eq!(f1, f2);
        assert!(span.span.contains(f1.rule));
        assert_eq!(f1.enable, !default.enabled(f1.rule));
        // Different seeds eventually pick different rules.
        let distinct: std::collections::HashSet<u16> = (0..50)
            .filter_map(|s| random_flip(&span, &default, s))
            .map(|f| f.rule.0)
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn negi2021_accounts_maintenance_cost() {
        let (optimizer, mut flighting, template, plan, job_seed, span) = setup();
        let heuristic = Negi2021 {
            samples: 60,
            top_k: 4,
        };
        let out = heuristic.search(
            &optimizer,
            &mut flighting,
            &Cluster::default(),
            template,
            &plan,
            job_seed,
            &span,
        );
        assert!(
            out.recompiles > 40,
            "samples minus empty draws: {}",
            out.recompiles
        );
        assert!(out.flights <= 4);
        if let Some((cfg, delta)) = &out.chosen {
            assert!(*delta < 0.0, "chosen configs improve runtime");
            assert_ne!(
                *cfg,
                optimizer.default_config(),
                "a real configuration change"
            );
        }
    }

    #[test]
    fn negi2021_handles_empty_span() {
        let (optimizer, mut flighting, template, plan, job_seed, _) = setup();
        let empty = SpanResult {
            span: scope_opt::RuleBits::empty(),
            default_signature: scope_opt::RuleBits::empty(),
            iterations: 0,
            stopped_on_failure: false,
        };
        let out = Negi2021::default().search(
            &optimizer,
            &mut flighting,
            &Cluster::default(),
            template,
            &plan,
            job_seed,
            &empty,
        );
        assert_eq!(out.recompiles, 0);
        assert!(out.chosen.is_none());
    }
}
