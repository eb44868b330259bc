//! Offline (counterfactual) policy evaluation from logged bandit data.
//!
//! "Azure Personalizer ... logs with high fidelity so that we can
//! counter-factually evaluate policies" (§4.2). Given events logged under a
//! known behaviour policy, the value of a *different* target policy is
//! estimated without running it: IPS re-weights rewards by
//! `1[target == logged] / p_logged`; SNIPS normalizes by the summed weights
//! to trade a little bias for much lower variance.

use serde::Serialize;

/// One logged decision with the target policy's agreement bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoggedOutcome {
    /// Would the target policy have chosen the logged action?
    pub target_agrees: bool,
    /// Propensity of the logged action under the behaviour policy.
    pub logged_probability: f64,
    /// Observed reward of the logged action.
    pub reward: f64,
}

/// Inverse-propensity-scoring estimate of the target policy's value.
#[must_use]
pub fn ips_estimate(events: &[LoggedOutcome]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let sum: f64 = events
        .iter()
        .map(|e| {
            if e.target_agrees {
                e.reward / e.logged_probability.max(1e-9)
            } else {
                0.0
            }
        })
        .sum();
    sum / events.len() as f64
}

/// Self-normalized IPS: divides by the total importance weight instead of
/// the event count.
#[must_use]
pub fn snips_estimate(events: &[LoggedOutcome]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for e in events {
        if e.target_agrees {
            let w = 1.0 / e.logged_probability.max(1e-9);
            num += w * e.reward;
            den += w;
        }
    }
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(agrees: bool, p: f64, r: f64) -> LoggedOutcome {
        LoggedOutcome {
            target_agrees: agrees,
            logged_probability: p,
            reward: r,
        }
    }

    #[test]
    fn ips_is_unbiased_for_uniform_logging() {
        // Two actions, uniform logging (p = 0.5). Target always picks action
        // 0, whose true reward is 1.0; action 1 pays 0. Logged data has half
        // agreements.
        let events: Vec<LoggedOutcome> = (0..1000)
            .map(|i| {
                let logged_action = i % 2; // uniform
                if logged_action == 0 {
                    ev(true, 0.5, 1.0)
                } else {
                    ev(false, 0.5, 0.0)
                }
            })
            .collect();
        let v = ips_estimate(&events);
        assert!((v - 1.0).abs() < 1e-9, "IPS value {v}");
    }

    #[test]
    fn snips_matches_ips_on_balanced_data_and_is_bounded() {
        let events: Vec<LoggedOutcome> = (0..100)
            .map(|i| ev(i % 2 == 0, 0.5, if i % 2 == 0 { 0.8 } else { 0.1 }))
            .collect();
        let snips = snips_estimate(&events);
        assert!(
            (snips - 0.8).abs() < 1e-9,
            "SNIPS averages agreeing rewards: {snips}"
        );
        // SNIPS of constant rewards is that constant, regardless of weights.
        let skewed: Vec<LoggedOutcome> =
            vec![ev(true, 0.01, 0.7), ev(true, 0.9, 0.7), ev(false, 0.5, 0.0)];
        assert!((snips_estimate(&skewed) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_logs_are_zero() {
        assert_eq!(ips_estimate(&[]), 0.0);
        assert_eq!(snips_estimate(&[]), 0.0);
        assert_eq!(snips_estimate(&[ev(false, 0.5, 1.0)]), 0.0);
    }

    #[test]
    fn ips_variance_grows_with_small_propensities() {
        // A single agreeing event with tiny propensity dominates IPS but not
        // SNIPS — the reason QO-Advisor caps importance weights.
        let events = vec![
            ev(true, 0.001, 1.0),
            ev(false, 0.5, 0.0),
            ev(false, 0.5, 0.0),
        ];
        assert!(ips_estimate(&events) > 100.0);
        assert!((snips_estimate(&events) - 1.0).abs() < 1e-9);
    }
}
