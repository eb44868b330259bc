//! Integration tests for the §8 future-work extensions implemented on top of
//! the paper's pipeline: stateful skip-explored mode, hint reversion, and
//! the optimistic post-deployment monitoring loop.

use qo_advisor::{PipelineConfig, ProductionSim};
use scope_workload::WorkloadConfig;

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        num_templates: 14,
        adhoc_per_day: 3,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    }
}

#[test]
fn skip_explored_reduces_daily_work() {
    let mut sim = ProductionSim::new(
        workload(61),
        PipelineConfig {
            skip_explored: true,
            ..PipelineConfig::default()
        },
    );
    sim.bootstrap_validation_model(2, 10).unwrap();
    let first = sim.advance_day().unwrap();
    let later = sim.advance_day().unwrap();
    // Daily recurring templates flighted on the first day are skipped later
    // (day 2 schedules a different template subset, so only templates that
    // reappear can be skipped).
    assert!(
        later.report.skipped_explored > 0 || first.report.flighted == 0,
        "day2 skipped {} (day1 flighted {})",
        later.report.skipped_explored,
        first.report.flighted
    );
}

#[test]
fn default_mode_does_not_skip() {
    let mut sim = ProductionSim::new(workload(61), PipelineConfig::default());
    sim.bootstrap_validation_model(2, 10).unwrap();
    sim.advance_day().unwrap();
    let later = sim.advance_day().unwrap();
    assert_eq!(later.report.skipped_explored, 0);
}

#[test]
fn revert_hint_removes_sis_entry_and_bumps_version() {
    let mut sim = ProductionSim::new(workload(2024), PipelineConfig::default());
    sim.bootstrap_validation_model(4, 16).unwrap();
    // Run until some hint is live.
    let mut live_template = None;
    for _ in 0..12 {
        sim.advance_day().unwrap();
        if let Some(h) = sim.advisor.sis().snapshot().hints().first() {
            live_template = Some(h.template);
            break;
        }
    }
    let Some(template) = live_template else {
        return; // seed produced no hints; covered by other tests
    };
    let version_before = sim.advisor.sis().version();
    let len_before = sim.advisor.sis().len();
    assert!(sim.advisor.revert_hint(template).expect("revert publishes"));
    assert_eq!(sim.advisor.sis().len(), len_before - 1);
    assert!(sim.advisor.sis().version() > version_before);
    // Reverting again is a no-op.
    assert!(!sim.advisor.revert_hint(template).expect("revert publishes"));
}

#[test]
fn monitoring_loop_runs_and_never_reverts_healthy_hints_spuriously() {
    let mut with_monitor =
        ProductionSim::new(workload(2024), PipelineConfig::default()).with_monitoring();
    with_monitor.bootstrap_validation_model(4, 16).unwrap();
    let outcomes = with_monitor.run(12).unwrap();
    let reverted: usize = outcomes.iter().map(|o| o.reverted.len()).sum();
    let hinted_runs: usize = outcomes.iter().map(|o| o.comparisons.len()).sum();
    // Validated hints genuinely improve PNhours in this simulator, so the
    // monitor should intervene rarely relative to the hinted volume.
    assert!(
        reverted * 4 <= hinted_runs.max(4),
        "monitor reverted {reverted} of {hinted_runs} hinted runs"
    );
    // The monitor tracked baselines for recurring templates.
    assert!(with_monitor.monitor.as_ref().unwrap().tracked_templates() > 0);
}
