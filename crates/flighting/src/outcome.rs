//! Flight outcomes and A/B measurements.

use scope_runtime::ExecutionMetrics;
use serde::Serialize;

/// The A/B measurement of one successful flight: one baseline run and one
/// treatment run of the same job in pre-production.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FlightMeasurement {
    pub baseline: ExecutionMetrics,
    pub treatment: ExecutionMetrics,
}

impl FlightMeasurement {
    /// PNhours delta (treatment vs baseline; negative = improvement).
    #[must_use]
    pub fn pn_delta(&self) -> f64 {
        self.treatment.pn_delta(&self.baseline)
    }

    #[must_use]
    pub fn latency_delta(&self) -> f64 {
        self.treatment.latency_delta(&self.baseline)
    }

    #[must_use]
    pub fn vertices_delta(&self) -> f64 {
        self.treatment.vertices_delta(&self.baseline)
    }

    /// DataRead delta — the validation model's primary regressor (§4.3).
    #[must_use]
    pub fn data_read_delta(&self) -> f64 {
        self.treatment.data_read_delta(&self.baseline)
    }

    /// DataWritten delta — the validation model's second regressor (§4.3).
    #[must_use]
    pub fn data_written_delta(&self) -> f64 {
        self.treatment.data_written_delta(&self.baseline)
    }
}

/// Outcome of one flighting request (§4.3: "failure ... timeout ...
/// filtered ... success").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FlightOutcome {
    Success(FlightMeasurement),
    /// Ran out of per-job or total time budget.
    Timeout,
    /// Job information or input data expired, or the treatment failed to
    /// compile.
    Failure(String),
    /// Job class unsupported by the Flighting Service.
    Filtered,
}

impl FlightOutcome {
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, FlightOutcome::Success(_))
    }

    #[must_use]
    pub fn measurement(&self) -> Option<&FlightMeasurement> {
        match self {
            FlightOutcome::Success(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_follow_paper_convention() {
        let m = FlightMeasurement {
            baseline: ExecutionMetrics {
                pn_hours: 10.0,
                data_read: 100.0,
                ..Default::default()
            },
            treatment: ExecutionMetrics {
                pn_hours: 8.0,
                data_read: 70.0,
                ..Default::default()
            },
        };
        assert!((m.pn_delta() + 0.2).abs() < 1e-12);
        assert!((m.data_read_delta() + 0.3).abs() < 1e-12);
    }

    #[test]
    fn outcome_classification() {
        let m = FlightMeasurement {
            baseline: ExecutionMetrics::default(),
            treatment: ExecutionMetrics::default(),
        };
        assert!(FlightOutcome::Success(m).is_success());
        assert!(!FlightOutcome::Timeout.is_success());
        assert!(FlightOutcome::Success(m).measurement().is_some());
        assert!(FlightOutcome::Filtered.measurement().is_none());
    }
}
