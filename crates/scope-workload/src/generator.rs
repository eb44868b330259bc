//! The workload: a population of recurring templates with per-day schedules,
//! plus ad-hoc one-off jobs.

use crate::template::{LiteralPolicy, TemplateSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scope_ir::ids::{
    combine, ADHOC_TEMPLATE_SALT, DEFAULT_WORKLOAD_SEED, JOB_ID_SALT, TEMPLATE_INDEX_SALT,
    TEMPLATE_SCHEDULE_SALT,
};
use scope_ir::logical::LogicalPlan;
use scope_ir::{JobId, ShardedCache, TemplateId};
use scope_lang::{bind_script, Catalog};
use std::sync::Arc;

/// Workload shape parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub seed: u64,
    /// Number of recurring templates in the population.
    pub num_templates: usize,
    /// Ad-hoc (one-off) jobs submitted per day. The paper reports >60% of
    /// jobs recurring; the default ratio keeps roughly that mix.
    pub adhoc_per_day: usize,
    /// Cap on instances of one template per day.
    pub max_instances_per_day: u32,
    /// How recurring templates redraw filter literals (and the catalog
    /// snapshot they bind against) across submissions. The default,
    /// [`LiteralPolicy::FreshEachRun`], redraws per `(day, instance)` and is
    /// byte-identical to the pre-policy generator; sticky policies make
    /// recurring scripts repeat their exact bound plans across days —
    /// the regime the paper's steering (and the compile cache) assume.
    /// Ad-hoc one-off jobs always draw fresh: they have no next run to
    /// stay identical for.
    pub literals: LiteralPolicy,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: DEFAULT_WORKLOAD_SEED,
            num_templates: 120,
            adhoc_per_day: 40,
            max_instances_per_day: 3,
            literals: LiteralPolicy::FreshEachRun,
        }
    }
}

/// A recurring template plus its schedule.
#[derive(Debug, Clone)]
pub struct RecurringTemplate {
    pub spec: TemplateSpec,
    /// Runs every `period_days` days.
    pub period_days: u32,
    /// Day offset within the period.
    pub phase: u32,
    /// Instances submitted on an active day.
    pub instances_per_day: u32,
}

/// One submitted job: a bound plan plus identity and seeds.
#[derive(Debug, Clone)]
pub struct JobInstance {
    pub job_id: JobId,
    pub name: String,
    /// Shared, not deep-copied: every downstream carrier of the plan (the
    /// view row, recommendations, flight requests) clones the `Arc`.
    pub plan: Arc<LogicalPlan>,
    pub template: TemplateId,
    /// Drives the runtime's data-layout-dependent draws.
    pub job_seed: u64,
    pub day: u32,
    pub recurring: bool,
}

/// Memoized bound plans for *sticky* recurring templates, keyed by
/// `(template seed, epoch draw day)`. Within an epoch every submission of a
/// template binds the identical plan (see [`LiteralPolicy::draw_coords`]),
/// so the generate-script/parse/bind round-trip is a pure function of the
/// key and the memo clones its result instead of re-deriving it. Fresh
/// templates and ad-hoc jobs never enter the memo — their coordinates are
/// unique per submission, so there is nothing to reuse.
type PlanMemo = ShardedCache<(u64, u32), (Arc<LogicalPlan>, TemplateId)>;

/// Bind a script the generator wrote.
fn bind_generated(script: &str, catalog: &Catalog) -> LogicalPlan {
    #[expect(
        clippy::expect_used,
        reason = "every pattern binds: `all_patterns_produce_bindable_scripts`"
    )]
    bind_script(script, catalog).expect("generated scripts always bind")
}

fn plan_memo_hash(key: &(u64, u32)) -> u64 {
    combine(key.0, u64::from(key.1))
}

/// The full synthetic workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub config: WorkloadConfig,
    pub recurring: Vec<RecurringTemplate>,
    /// Shared across clones: the memo is a pure function of its key, so
    /// sharing only saves rebinding work.
    bound: Arc<PlanMemo>,
}

impl Workload {
    #[must_use]
    pub fn new(config: WorkloadConfig) -> Self {
        let mut recurring = Vec::with_capacity(config.num_templates);
        for i in 0..config.num_templates {
            let tseed = TEMPLATE_INDEX_SALT.mix_tagged(config.seed, i as u64);
            let spec = TemplateSpec::generate(tseed);
            let mut rng = StdRng::seed_from_u64(TEMPLATE_SCHEDULE_SALT.mix(tseed));
            let period_days = if rng.random_range(0.0..1.0) < 0.7 {
                1
            } else {
                rng.random_range(2..=7)
            };
            let phase = rng.random_range(0..period_days);
            let instances_per_day = rng.random_range(1..=config.max_instances_per_day);
            recurring.push(RecurringTemplate {
                spec,
                period_days,
                phase,
                instances_per_day,
            });
        }
        Self {
            config,
            recurring,
            bound: Arc::new(ShardedCache::new(1 << 12, 4, plan_memo_hash)),
        }
    }

    /// All jobs submitted on `day`, recurring instances first, then ad-hoc
    /// one-offs. Deterministic: calling twice yields identical jobs.
    #[must_use]
    pub fn jobs_for_day(&self, day: u32) -> Vec<JobInstance> {
        let mut jobs = Vec::new();
        for rt in &self.recurring {
            if day % rt.period_days != rt.phase {
                continue;
            }
            for instance in 0..rt.instances_per_day {
                let sticky = self.config.literals.is_sticky_template(rt.spec.seed);
                let (draw_day, _) = self
                    .config
                    .literals
                    .draw_coords(rt.spec.seed, day, instance);
                let key = (rt.spec.seed, draw_day);
                let bound = sticky.then(|| self.bound.get(&key)).flatten();
                let (plan, template) = bound.unwrap_or_else(|| {
                    let (script, catalog) =
                        rt.spec
                            .instantiate_with(self.config.literals, day, instance);
                    let plan = bind_generated(&script, &catalog);
                    let template = plan.template_id();
                    let entry = (Arc::new(plan), template);
                    if sticky {
                        self.bound.insert(key, entry.clone());
                    }
                    entry
                });
                let job_seed = combine(rt.spec.seed, combine(u64::from(day), u64::from(instance)));
                jobs.push(JobInstance {
                    job_id: JobId(JOB_ID_SALT.mix(job_seed)),
                    name: rt.spec.instance_name(day, instance),
                    plan,
                    template,
                    job_seed,
                    day,
                    recurring: true,
                });
            }
        }
        for i in 0..self.config.adhoc_per_day {
            let tseed = combine(
                self.config.seed,
                ADHOC_TEMPLATE_SALT.mix_tagged(u64::from(day), i as u64),
            );
            let spec = TemplateSpec::generate(tseed);
            let (script, catalog) = spec.instantiate(day, 0);
            let plan = bind_generated(&script, &catalog);
            let template = plan.template_id();
            let plan = Arc::new(plan);
            let job_seed = combine(tseed, u64::from(day));
            jobs.push(JobInstance {
                job_id: JobId(JOB_ID_SALT.mix(job_seed)),
                name: spec.instance_name(day, 0),
                plan,
                template,
                job_seed,
                day,
                recurring: false,
            });
        }
        jobs
    }

    /// Fraction of jobs on a day that are recurring (diagnostic).
    #[must_use]
    pub fn recurring_fraction(&self, day: u32) -> f64 {
        let jobs = self.jobs_for_day(day);
        if jobs.is_empty() {
            return 0.0;
        }
        jobs.iter().filter(|j| j.recurring).count() as f64 / jobs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload::new(WorkloadConfig {
            seed: 7,
            num_templates: 20,
            adhoc_per_day: 5,
            max_instances_per_day: 2,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn jobs_for_day_is_deterministic() {
        let w = small();
        let a = w.jobs_for_day(3);
        let b = w.jobs_for_day(3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.job_id, y.job_id);
            assert_eq!(x.template, y.template);
            assert_eq!(x.plan, y.plan);
        }
    }

    #[test]
    fn recurring_jobs_reappear_across_days_with_same_template() {
        let w = small();
        let day0: Vec<TemplateId> = w
            .jobs_for_day(0)
            .iter()
            .filter(|j| j.recurring)
            .map(|j| j.template)
            .collect();
        // Daily templates (period 1) must appear again on day 1.
        let day1: Vec<TemplateId> = w
            .jobs_for_day(1)
            .iter()
            .filter(|j| j.recurring)
            .map(|j| j.template)
            .collect();
        let overlap = day0.iter().filter(|t| day1.contains(t)).count();
        assert!(overlap > 0, "daily recurring templates overlap across days");
    }

    #[test]
    fn majority_of_jobs_are_recurring() {
        let w = Workload::new(WorkloadConfig::default());
        let frac = w.recurring_fraction(0);
        assert!(frac > 0.6, "recurring fraction {frac:.2} (paper: >60%)");
    }

    #[test]
    fn sticky_plan_memo_is_invisible() {
        // Two sticky workloads, one of which has its memo warmed by prior
        // days: every field of every job must still match a cold bind.
        let config = WorkloadConfig {
            seed: 7,
            num_templates: 20,
            adhoc_per_day: 5,
            max_instances_per_day: 2,
            literals: LiteralPolicy::Sticky {
                redraw_every_days: 3,
            },
        };
        let warmed = Workload::new(config.clone());
        for day in 0..8 {
            let _ = warmed.jobs_for_day(day);
        }
        let cold = Workload::new(config);
        for day in [0, 2, 3, 5, 7] {
            let a = warmed.jobs_for_day(day);
            let b = cold.jobs_for_day(day);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.job_id, y.job_id);
                assert_eq!(x.name, y.name);
                assert_eq!(x.plan, y.plan);
                assert_eq!(x.template, y.template);
                assert_eq!(x.job_seed, y.job_seed);
                assert_eq!(x.recurring, y.recurring);
            }
        }
    }

    #[test]
    fn adhoc_jobs_are_one_off() {
        let w = small();
        let adhoc0: Vec<TemplateId> = w
            .jobs_for_day(0)
            .iter()
            .filter(|j| !j.recurring)
            .map(|j| j.template)
            .collect();
        let adhoc1: Vec<TemplateId> = w
            .jobs_for_day(1)
            .iter()
            .filter(|j| !j.recurring)
            .map(|j| j.template)
            .collect();
        assert!(
            adhoc0.iter().all(|t| !adhoc1.contains(t)),
            "ad-hoc templates do not recur"
        );
    }

    #[test]
    fn job_ids_are_unique_within_a_day() {
        let w = small();
        let jobs = w.jobs_for_day(2);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.job_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn instances_of_same_template_differ_in_job_seed() {
        let w = small();
        let jobs = w.jobs_for_day(0);
        for pair in jobs.windows(2) {
            if pair[0].template == pair[1].template {
                assert_ne!(pair[0].job_seed, pair[1].job_seed);
            }
        }
    }
}
