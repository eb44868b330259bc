//! The validation model (paper §4.3, §5.3): a linear regression that
//! predicts a job's PNhours delta from the DataRead and DataWritten deltas
//! observed in a *single* flighting run.
//!
//! Rationale: PNhours = CPU + I/O time; I/O time is bounded by bytes moved,
//! which are noise-free across runs, so bytes deltas are excellent denoised
//! predictors of the (noisy, single-sample) PNhours delta. The model is
//! trained on flighting results gathered over a multi-day window and applied
//! with a safety threshold (−0.1 in production).

use serde::Serialize;

/// One training/evaluation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ValidationSample {
    pub data_read_delta: f64,
    pub data_written_delta: f64,
    pub pn_delta: f64,
}

/// `pn_delta ≈ w0 + w1·data_read_delta + w2·data_written_delta`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ValidationModel {
    pub intercept: f64,
    pub w_read: f64,
    pub w_written: f64,
}

impl ValidationModel {
    /// Closed-form ordinary least squares on the 3-parameter model. Returns
    /// `None` with fewer than 3 points or a singular design matrix.
    #[must_use]
    pub fn fit(samples: &[ValidationSample]) -> Option<ValidationModel> {
        if samples.len() < 3 {
            return None;
        }
        // Normal equations: X^T X w = X^T y with X = [1, dr, dw].
        let mut xtx = [[0.0f64; 3]; 3];
        let mut xty = [0.0f64; 3];
        for s in samples {
            let x = [1.0, s.data_read_delta, s.data_written_delta];
            for i in 0..3 {
                for j in 0..3 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * s.pn_delta;
            }
        }
        let w = solve3(xtx, xty)?;
        Some(ValidationModel {
            intercept: w[0],
            w_read: w[1],
            w_written: w[2],
        })
    }

    /// Predicted PNhours delta for a flighted job.
    #[must_use]
    pub fn predict(&self, data_read_delta: f64, data_written_delta: f64) -> f64 {
        self.intercept + self.w_read * data_read_delta + self.w_written * data_written_delta
    }

    /// Accept the flip only when the predicted delta clears the safety
    /// threshold (paper: `delta < −0.1` ⇒ at least 10% predicted reduction).
    #[must_use]
    pub fn accepts(&self, data_read_delta: f64, data_written_delta: f64, threshold: f64) -> bool {
        self.predict(data_read_delta, data_written_delta) < threshold
    }

    /// Coefficient of determination on a held-out set.
    #[must_use]
    pub fn r_squared(&self, samples: &[ValidationSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mean = samples.iter().map(|s| s.pn_delta).sum::<f64>() / samples.len() as f64;
        let ss_tot: f64 = samples.iter().map(|s| (s.pn_delta - mean).powi(2)).sum();
        let ss_res: f64 = samples
            .iter()
            .map(|s| {
                let p = self.predict(s.data_read_delta, s.data_written_delta);
                (s.pn_delta - p).powi(2)
            })
            .sum();
        if ss_tot <= 0.0 {
            return 0.0;
        }
        1.0 - ss_res / ss_tot
    }
}

/// Solve a 3×3 linear system by Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // index math mirrors the textbook algorithm
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..3 {
            let f = a[row][col] / a[col][col];
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for col in (0..3).rev() {
        let mut sum = b[col];
        for k in (col + 1)..3 {
            sum -= a[col][k] * x[k];
        }
        x[col] = sum / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize, noise: f64) -> Vec<ValidationSample> {
        // Ground truth: pn = 0.02 + 0.6*dr + 0.3*dw (+ deterministic noise).
        (0..n)
            .map(|i| {
                let dr = -0.5 + (i as f64 / n as f64);
                let dw = -0.3 + ((i * 7 % n) as f64 / n as f64) * 0.6;
                let e = noise * (((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5);
                ValidationSample {
                    data_read_delta: dr,
                    data_written_delta: dw,
                    pn_delta: 0.02 + 0.6 * dr + 0.3 * dw + e,
                }
            })
            .collect()
    }

    #[test]
    fn recovers_noiseless_coefficients() {
        let m = ValidationModel::fit(&synth(100, 0.0)).unwrap();
        assert!((m.intercept - 0.02).abs() < 1e-9);
        assert!((m.w_read - 0.6).abs() < 1e-9);
        assert!((m.w_written - 0.3).abs() < 1e-9);
        assert!(m.r_squared(&synth(50, 0.0)) > 0.9999);
    }

    #[test]
    fn tolerates_label_noise() {
        let m = ValidationModel::fit(&synth(400, 0.1)).unwrap();
        assert!((m.w_read - 0.6).abs() < 0.05, "w_read {}", m.w_read);
        assert!(
            (m.w_written - 0.3).abs() < 0.08,
            "w_written {}",
            m.w_written
        );
        assert!(m.r_squared(&synth(100, 0.0)) > 0.95);
    }

    #[test]
    fn threshold_gates_acceptance() {
        let m = ValidationModel {
            intercept: 0.0,
            w_read: 1.0,
            w_written: 0.0,
        };
        assert!(m.accepts(-0.2, 0.0, -0.1), "predicted -0.2 clears -0.1");
        assert!(!m.accepts(-0.05, 0.0, -0.1), "predicted -0.05 does not");
        assert!(!m.accepts(0.3, 0.0, -0.1), "regressions never accepted");
    }

    #[test]
    fn degenerate_inputs_fail_gracefully() {
        assert!(ValidationModel::fit(&[]).is_none());
        // Collinear inputs (all identical) -> singular.
        let same = vec![
            ValidationSample {
                data_read_delta: 0.1,
                data_written_delta: 0.1,
                pn_delta: 0.1
            };
            10
        ];
        assert!(ValidationModel::fit(&same).is_none());
    }
}
