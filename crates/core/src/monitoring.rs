//! Post-deployment regression monitoring — the paper's §8 future-work item
//! implemented: *"In future work we will attempt to optimistically accept
//! proposed query plans and detect regressions from subsequent runtime
//! metrics."*
//!
//! The monitor keeps a rolling PNhours baseline per template from the
//! telemetry of *unhinted* runs; once a hint deploys, each hinted production
//! run is compared against that baseline. A hint that regresses in
//! `revert_after` consecutive observations is reverted (removed from SIS) —
//! turning the one-shot validation gate into a closed feedback loop and
//! allowing a looser (or even optimistic) validation threshold.

use rustc_hash::FxHashMap;
use scope_ir::TemplateId;
use scope_workload::ViewRow;
use serde::Serialize;

/// Monitor configuration.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorConfig {
    /// Relative PNhours increase over the baseline that counts as a
    /// regression observation (production noise is ~5%, so 0.08 means a
    /// hinted run ran at least 8% hotter than the template's baseline).
    pub regression_margin: f64,
    /// Consecutive regression observations before the hint is reverted.
    pub revert_after: u32,
    /// Exponential-moving-average factor for the per-template baseline.
    pub baseline_alpha: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            regression_margin: 0.08,
            revert_after: 2,
            baseline_alpha: 0.3,
        }
    }
}

impl MonitorConfig {
    /// Stable fingerprint of the monitor's knobs — every field changes
    /// revert decisions, so all of them are part of the snapshot identity
    /// checked by `ProductionSim::import_state`.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(24);
        for knob in [
            self.regression_margin.to_bits(),
            u64::from(self.revert_after),
            self.baseline_alpha.to_bits(),
        ] {
            bytes.extend_from_slice(&knob.to_le_bytes());
        }
        scope_ir::ids::stable_hash64(&bytes)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TemplateState {
    /// EMA of unhinted per-instance PNhours.
    baseline_pn: f64,
    observations: u32,
    /// Consecutive hinted runs above baseline * (1 + margin).
    consecutive_regressions: u32,
}

/// Rolling per-template regression monitor.
#[derive(Debug, Default)]
pub struct RegressionMonitor {
    config: MonitorConfig,
    templates: FxHashMap<TemplateId, TemplateState>,
    /// Templates reverted so far (diagnostics).
    pub reverted: Vec<TemplateId>,
}

impl RegressionMonitor {
    #[must_use]
    pub fn new(config: MonitorConfig) -> Self {
        Self {
            config,
            templates: FxHashMap::default(),
            reverted: Vec::new(),
        }
    }

    /// Ingest one day's view rows; returns the templates whose hints should
    /// be reverted (regressed `revert_after` times in a row).
    pub fn observe_day(&mut self, view: &[ViewRow]) -> Vec<TemplateId> {
        let mut reverts = Vec::new();
        for row in view {
            if !row.recurring {
                continue;
            }
            let state = self.templates.entry(row.template).or_default();
            if row.hint_applied {
                if state.observations == 0 {
                    // No baseline yet: cannot judge; skip.
                    continue;
                }
                let threshold = state.baseline_pn * (1.0 + self.config.regression_margin);
                if row.metrics.pn_hours > threshold {
                    state.consecutive_regressions += 1;
                    if state.consecutive_regressions >= self.config.revert_after
                        && !self.reverted.contains(&row.template)
                    {
                        reverts.push(row.template);
                        self.reverted.push(row.template);
                    }
                } else {
                    state.consecutive_regressions = 0;
                }
            } else {
                // Unhinted run: update the baseline EMA.
                let a = self.config.baseline_alpha;
                state.baseline_pn = if state.observations == 0 {
                    row.metrics.pn_hours
                } else {
                    (1.0 - a) * state.baseline_pn + a * row.metrics.pn_hours
                };
                state.observations += 1;
            }
        }
        reverts
    }

    /// The snapshot-identity fingerprint of this monitor's configuration.
    pub(crate) fn config_fingerprint(&self) -> u64 {
        self.config.fingerprint()
    }

    /// Export the monitor's durable state (snapshot path; `scope-state`).
    /// The config itself is construction-time and not exported — only its
    /// fingerprint travels, so a restore under different monitor tuning is
    /// a typed mismatch instead of a silent divergence.
    #[must_use]
    pub fn export_state(&self) -> scope_state::MonitorState {
        #[expect(
            clippy::disallowed_methods,
            reason = "collected and sorted by template below"
        )]
        let mut templates: Vec<scope_state::MonitorTemplateState> = self
            .templates
            .iter()
            .map(|(&template, s)| scope_state::MonitorTemplateState {
                template,
                baseline_pn: s.baseline_pn,
                observations: s.observations,
                consecutive_regressions: s.consecutive_regressions,
            })
            .collect();
        templates.sort_by_key(|t| t.template);
        scope_state::MonitorState {
            config_fingerprint: self.config.fingerprint(),
            templates,
            reverted: self.reverted.clone(),
        }
    }

    /// Replace the monitor's per-template baselines and revert log with a
    /// snapshot's ([`RegressionMonitor::export_state`] round-trip). The
    /// config is kept as constructed.
    pub fn restore_state(&mut self, state: &scope_state::MonitorState) {
        self.templates = state
            .templates
            .iter()
            .map(|t| {
                (
                    t.template,
                    TemplateState {
                        baseline_pn: t.baseline_pn,
                        observations: t.observations,
                        consecutive_regressions: t.consecutive_regressions,
                    },
                )
            })
            .collect();
        self.reverted = state.reverted.clone();
    }

    /// Baseline PNhours currently tracked for a template, if any.
    #[must_use]
    pub fn baseline(&self, template: TemplateId) -> Option<f64> {
        self.templates
            .get(&template)
            .filter(|s| s.observations > 0)
            .map(|s| s.baseline_pn)
    }

    #[must_use]
    pub fn tracked_templates(&self) -> usize {
        self.templates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::logical::{LogicalOp, LogicalPlan, TableRef};
    use scope_ir::schema::{Column, DataType, Schema};
    use scope_ir::stats::DualStats;
    use scope_ir::JobId;
    use scope_runtime::ExecutionMetrics;
    use scope_workload::Table1Features;

    fn row(template: u64, pn: f64, hinted: bool) -> ViewRow {
        let mut plan = LogicalPlan::new();
        let t = TableRef::new(
            "t",
            Schema::new(vec![Column::new("a", DataType::Int)]),
            DualStats::exact(10.0),
        );
        let s = plan.add(LogicalOp::Extract { table: t }, vec![]);
        plan.add_output("o", s);
        let metrics = ExecutionMetrics {
            pn_hours: pn,
            ..Default::default()
        };
        ViewRow {
            job_id: JobId(template ^ (pn.to_bits() >> 7)),
            day: 0,
            template: TemplateId(template),
            recurring: true,
            job_seed: 1,
            features: Table1Features::aggregate("job_1", &plan, 1.0, &metrics),
            plan: std::sync::Arc::new(plan),
            signature: scope_opt::RuleBits::empty(),
            est_cost: 1.0,
            metrics,
            hint_applied: hinted,
        }
    }

    #[test]
    fn builds_baseline_from_unhinted_runs() {
        let mut m = RegressionMonitor::new(MonitorConfig::default());
        m.observe_day(&[row(1, 10.0, false), row(1, 12.0, false)]);
        let b = m.baseline(TemplateId(1)).unwrap();
        assert!(b > 10.0 && b < 12.0, "EMA between observations: {b}");
    }

    #[test]
    fn reverts_after_consecutive_regressions() {
        let mut m = RegressionMonitor::new(MonitorConfig {
            regression_margin: 0.10,
            revert_after: 2,
            baseline_alpha: 0.5,
        });
        m.observe_day(&[row(1, 10.0, false)]);
        // First regression observation: no revert yet.
        let r1 = m.observe_day(&[row(1, 12.0, true)]);
        assert!(r1.is_empty());
        // Second consecutive regression: revert.
        let r2 = m.observe_day(&[row(1, 12.5, true)]);
        assert_eq!(r2, vec![TemplateId(1)]);
        // Already reverted: not reported again.
        let r3 = m.observe_day(&[row(1, 13.0, true)]);
        assert!(r3.is_empty());
    }

    #[test]
    fn good_hinted_runs_reset_the_streak() {
        let mut m = RegressionMonitor::new(MonitorConfig {
            regression_margin: 0.10,
            revert_after: 2,
            baseline_alpha: 0.5,
        });
        m.observe_day(&[row(1, 10.0, false)]);
        assert!(m.observe_day(&[row(1, 12.0, true)]).is_empty());
        // An improved run breaks the streak...
        assert!(m.observe_day(&[row(1, 9.0, true)]).is_empty());
        // ...so the next regression starts over.
        assert!(m.observe_day(&[row(1, 12.0, true)]).is_empty());
    }

    #[test]
    fn hinted_runs_without_baseline_are_skipped() {
        let mut m = RegressionMonitor::new(MonitorConfig::default());
        let r = m.observe_day(&[row(7, 99.0, true)]);
        assert!(r.is_empty());
        assert!(m.baseline(TemplateId(7)).is_none());
    }
}
