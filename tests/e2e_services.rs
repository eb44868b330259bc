//! Service-layer integration: flighting outcomes feeding the validation
//! model, SIS persistence across restarts, and a bandit learning the paying
//! arm from its own uniformly logged rank/reward events.

use flighting::{FlightBudget, FlightOutcome, FlightRequest, FlightingService};
use personalizer::{CbConfig, Personalizer, RankInput, RankRequest};
use qo_advisor::{ValidationModel, ValidationSample};
use scope_opt::{compute_span, Optimizer, RuleFlip};
use scope_runtime::Cluster;
use scope_workload::{Workload, WorkloadConfig};
use sis::{HintFile, SisStore};

#[test]
fn flighting_results_train_a_useful_validation_model() {
    let optimizer = Optimizer::default();
    let workload = Workload::new(WorkloadConfig {
        seed: 404,
        num_templates: 14,
        adhoc_per_day: 0,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    });
    let default = optimizer.default_config();
    let mut svc = FlightingService::new(FlightBudget::default());
    let mut samples = Vec::new();
    for day in 0..6u32 {
        let mut requests = Vec::new();
        for job in workload.jobs_for_day(day) {
            let Ok(span) = compute_span(&optimizer, &job.plan, 6) else {
                continue;
            };
            let Some(rule) = span.span.iter().next() else {
                continue;
            };
            let flip = RuleFlip {
                rule,
                enable: !default.enabled(rule),
            };
            requests.push(FlightRequest {
                template: job.template,
                plan: job.plan,
                job_seed: job.job_seed,
                baseline: default,
                treatment: default.with_flip(flip),
            });
        }
        let (outcomes, tracker) =
            svc.flight_batch(&optimizer, &Cluster::preproduction(), &requests);
        assert!(tracker.used_seconds >= 0.0);
        samples.extend(
            outcomes
                .iter()
                .filter_map(|o| o.measurement())
                .map(|m| ValidationSample {
                    data_read_delta: m.data_read_delta(),
                    data_written_delta: m.data_written_delta(),
                    pn_delta: m.pn_delta(),
                }),
        );
    }
    assert!(
        samples.len() >= 10,
        "flighting produced {} samples",
        samples.len()
    );
    let model = ValidationModel::fit(&samples).expect("fits");
    // Data deltas must carry real signal: positive read coefficient and a
    // usable fit on its own training data.
    assert!(model.w_read > 0.1, "w_read {}", model.w_read);
    assert!(
        model.r_squared(&samples) > 0.3,
        "R2 {}",
        model.r_squared(&samples)
    );
}

#[test]
fn flight_outcomes_cover_the_paper_taxonomy() {
    let optimizer = Optimizer::default();
    let workload = Workload::new(WorkloadConfig {
        seed: 42,
        num_templates: 40,
        adhoc_per_day: 0,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    });
    let default = optimizer.default_config();
    let requests: Vec<FlightRequest> = workload
        .jobs_for_day(0)
        .into_iter()
        .map(|job| FlightRequest {
            template: job.template,
            plan: job.plan,
            job_seed: job.job_seed,
            baseline: default,
            treatment: default,
        })
        .collect();
    let mut svc = FlightingService::new(FlightBudget::default());
    let (outcomes, _) = svc.flight_batch(&optimizer, &Cluster::preproduction(), &requests);
    let success = outcomes.iter().filter(|o| o.is_success()).count();
    let nonsuccess = outcomes.len() - success;
    assert!(success > outcomes.len() / 2, "most A/A flights succeed");
    assert!(nonsuccess > 0, "failures/filtered occur at realistic rates");
    // A/A measurement: identical bytes, noisy PN.
    for o in &outcomes {
        if let FlightOutcome::Success(m) = o {
            assert_eq!(m.baseline.data_read, m.treatment.data_read);
        }
    }
}

#[test]
fn sis_store_survives_restart_and_serves_hints() {
    let dir = std::env::temp_dir().join(format!("sis-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let template = scope_ir::TemplateId(0xFEED);
    let flip = RuleFlip {
        rule: scope_opt::RuleId(21),
        enable: true,
    };
    {
        let store = SisStore::at_dir(&dir).unwrap();
        store
            .publish(HintFile {
                version: 1,
                source_day: 3,
                hints: vec![scope_opt::Hint { template, flip }],
            })
            .unwrap();
    }
    let store = SisStore::at_dir(&dir).unwrap();
    assert_eq!(store.reload_latest().unwrap(), Some(1));
    let optimizer = Optimizer::default();
    let cfg = store.config_for(template, &optimizer.default_config());
    assert!(cfg.enabled(scope_opt::RuleId(21)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bandit_learns_the_paying_arm_from_a_uniform_log() {
    // Log a uniform policy over 3 actions where action 2 pays 1.0.
    let svc = Personalizer::new(CbConfig::default());
    let actions: Vec<personalizer::FeatureVector> = (0..3)
        .map(|i| {
            let mut f = personalizer::FeatureVector::new();
            f.flag("a", &format!("act{i}"));
            f
        })
        .collect();
    let ctx = {
        let mut f = personalizer::FeatureVector::new();
        f.flag("c", "ctx");
        f
    };
    for seed in 0..600u64 {
        let resp = svc.rank(&RankRequest {
            context: ctx.clone(),
            actions: actions.clone(),
            seed,
            log_uniform: true,
        });
        let reward = if resp.decision.chosen == 2 { 1.0 } else { 0.0 };
        svc.reward(resp.event_id, reward);
    }
    let scores = svc.scores(&RankInput {
        job: ctx,
        shared: Default::default(),
        actions: actions.into(),
        sparse: None,
    });
    let best = (0..scores.len()).max_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    assert_eq!(best, Some(2));
}
