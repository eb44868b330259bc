//! Small statistics helpers used by the experiment harness.

/// Arithmetic mean (0 for empty input).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Pearson correlation coefficient (0 when undefined).
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (mean(xs), mean(ys));
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    if dx <= 0.0 || dy <= 0.0 {
        return 0.0;
    }
    num / (dx * dy).sqrt()
}

/// Least-squares straight line `y = a + b·x` (the paper's "one-dimensional
/// polynomial fit" in Figures 7/8). Returns `(a, b)`.
#[must_use]
pub fn polyfit1(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return (mean(ys), 0.0);
    }
    let (mx, my) = (mean(xs), mean(ys));
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den <= 0.0 {
        return (my, 0.0);
    }
    let b = num / den;
    (my - b * mx, b)
}

/// Percentile via linear interpolation on the sorted sample; `p` in
/// `[0, 100]`.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_detects_relationships() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let pos = [2.0, 4.0, 6.0, 8.0];
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson(&xs, &flat), 0.0);
    }

    #[test]
    fn polyfit_recovers_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (a, b) = polyfit1(&xs, &ys);
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 3.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 5.0).abs() < 1e-12);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
    }
}
