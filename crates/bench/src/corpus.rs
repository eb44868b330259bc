//! Shared experiment corpora: jobs, spans, and per-flip recompile results,
//! built once per experiment run.

use flighting::{FlightBudget, FlightOutcome, FlightRequest, FlightingService};
use scope_ir::ids::combine;
use scope_opt::{compute_span_with_cost, Optimizer, RuleConfig, RuleFlip, SpanResult};
use scope_runtime::Cluster;
use scope_workload::{JobInstance, Workload, WorkloadConfig};

/// A job plus its span and default compilation cost.
pub struct SpannedJob {
    pub job: JobInstance,
    pub span: SpanResult,
    pub default_cost: f64,
}

/// The experiment environment: one workload, the production cluster, and
/// an unbounded flighting service on the pre-production cluster.
pub struct Env {
    pub optimizer: Optimizer,
    pub cluster: Cluster,
    pub workload: Workload,
    pub flights: FlightingService,
    pub preprod: Cluster,
}

impl Env {
    /// A fresh environment over `config` (the "production SCOPE workload"
    /// of the evaluation). Its flighting service has flown no batch yet, so
    /// the same batches flown in the same order replay the same outcomes.
    #[must_use]
    pub fn new(config: WorkloadConfig) -> Env {
        Env {
            optimizer: Optimizer::default(),
            cluster: Cluster::default(),
            workload: Workload::new(config),
            flights: FlightingService::new(FlightBudget {
                queue_size: usize::MAX,
                ..FlightBudget::default()
            }),
            preprod: Cluster::preproduction(),
        }
    }

    /// A request to fly `job`: the default configuration against the
    /// default with `flip`.
    #[must_use]
    pub fn request(&self, job: &SpannedJob, flip: RuleFlip) -> FlightRequest {
        let default = self.default_config();
        FlightRequest {
            template: job.job.template,
            plan: job.job.plan.clone(),
            job_seed: job.job.job_seed,
            baseline: default,
            treatment: default.with_flip(flip),
        }
    }

    /// Fly one batch on the pre-production cluster; one outcome per request.
    pub fn flight(&mut self, requests: &[FlightRequest]) -> Vec<FlightOutcome> {
        self.flights
            .flight_batch(&self.optimizer, &self.preprod, requests)
            .0
    }

    /// Jobs of `day` with non-empty spans and their default costs.
    #[must_use]
    pub fn spanned_jobs(&self, day: u32) -> Vec<SpannedJob> {
        self.workload
            .jobs_for_day(day)
            .into_iter()
            .filter_map(|job| {
                let (span, default_cost) =
                    compute_span_with_cost(&self.optimizer, &job.plan, 6).ok()?;
                if span.is_empty() {
                    return None;
                }
                Some(SpannedJob {
                    job,
                    span,
                    default_cost,
                })
            })
            .collect()
    }

    /// All (flip, new estimated cost) pairs over a job's span; `None` cost
    /// marks recompile failures.
    #[must_use]
    pub fn recompile_span(&self, job: &SpannedJob) -> Vec<(RuleFlip, Option<f64>)> {
        let default = self.optimizer.default_config();
        job.span
            .span
            .iter()
            .map(|rule| {
                let flip = RuleFlip {
                    rule,
                    enable: !default.enabled(rule),
                };
                let cost = self
                    .optimizer
                    .compile(&job.job.plan, &default.with_flip(flip))
                    .ok()
                    .map(|c| c.est_cost);
                (flip, cost)
            })
            .collect()
    }

    /// A deterministic random span flip for a job (the random baseline).
    #[must_use]
    pub fn random_flip(&self, job: &SpannedJob, salt: u64) -> RuleFlip {
        let default = self.optimizer.default_config();
        let rules: Vec<_> = job.span.span.iter().collect();
        let rule = rules[(combine(job.job.job_seed, salt) as usize) % rules.len()];
        RuleFlip {
            rule,
            enable: !default.enabled(rule),
        }
    }

    #[must_use]
    pub fn default_config(&self) -> RuleConfig {
        self.optimizer.default_config()
    }
}

/// Write a CSV file under `results/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    path
}
