//! Flighting budgets: per-job cap, total time budget, queue size (§4.3).

use serde::Serialize;

/// Budget configuration.
#[derive(Debug, Clone, Serialize)]
pub struct FlightBudget {
    /// Maximum simulated seconds one flight may take (paper: 24 hours).
    pub max_job_seconds: f64,
    /// Total simulated seconds available across all flights.
    pub total_seconds: f64,
    /// Fixed queue size — at most this many jobs are accepted per batch.
    pub queue_size: usize,
}

impl Default for FlightBudget {
    fn default() -> Self {
        Self {
            max_job_seconds: 24.0 * 3600.0,
            total_seconds: 40.0 * 24.0 * 3600.0,
            queue_size: 64,
        }
    }
}

/// Running budget accounting.
#[derive(Debug, Clone, Default)]
pub struct BudgetTracker {
    pub used_seconds: f64,
    pub flights_run: usize,
    pub flights_rejected: usize,
}

impl BudgetTracker {
    /// Try to charge `seconds` against the budget: returns false (and counts
    /// a rejection) when the total budget would be exceeded.
    pub fn try_charge(&mut self, seconds: f64, budget: &FlightBudget) -> bool {
        if self.used_seconds + seconds > budget.total_seconds {
            self.flights_rejected += 1;
            return false;
        }
        self.used_seconds += seconds;
        self.flights_run += 1;
        true
    }

    #[must_use]
    pub fn remaining(&self, budget: &FlightBudget) -> f64 {
        (budget.total_seconds - self.used_seconds).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_respects_total_budget() {
        let budget = FlightBudget {
            max_job_seconds: 100.0,
            total_seconds: 250.0,
            queue_size: 8,
        };
        let mut t = BudgetTracker::default();
        assert!(t.try_charge(100.0, &budget));
        assert!(t.try_charge(100.0, &budget));
        assert!(!t.try_charge(100.0, &budget), "third flight exceeds total");
        assert_eq!(t.flights_run, 2);
        assert_eq!(t.flights_rejected, 1);
        assert!((t.remaining(&budget) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn default_budget_matches_paper_thresholds() {
        let b = FlightBudget::default();
        assert!(
            (b.max_job_seconds - 86_400.0).abs() < 1e-9,
            "24-hour per-job cap"
        );
        assert!(b.queue_size > 0);
    }
}
