//! Small measurement helpers: quantiles, `/proc` readers, and the metric set
//! a run fills in and renders.

use crate::defs::MetricDef;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between the
/// two nearest order statistics. `NaN` for an empty slice, so a metric built
/// on no samples is reported as an error instead of a number.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the benchmark contract states spreads in.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (the contract's "spread").
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Time one call, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat`. Kernel clock ticks are 10 ms (`USER_HZ` = 100 on every
/// Linux this runs on), which is why CPU is only ever read around a whole
/// timed phase, never around a single day.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime (fields 14/15) are
    // at indices 11/12.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) * 10.0)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The metrics of one run, keyed by catalogue name.
#[derive(Default)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Render `{"name": {"value": v, "unit": "u"}, ...}` for exactly the
    /// metrics in `defs`, in catalogue order. A catalogue metric that was not
    /// measured, a measured metric not in the catalogue, or a value that is
    /// not finite is an error.
    pub fn render(&self, defs: &[MetricDef]) -> Result<String, String> {
        for name in self.0.keys() {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!(
                    "metric {name} is not in the catalogue for this run"
                ));
            }
        }
        let mut out = String::from("{");
        for (i, def) in defs.iter().enumerate() {
            let value = *self
                .0
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", def.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push('}');
        Ok(out)
    }

    /// Human-readable table (stderr).
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            if let Some(v) = self.0.get(def.name) {
                let _ = writeln!(out, "  {:<40} {:>16.4} {}", def.name, v, def.unit);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles_exclusive(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (0.75, 2.25));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn render_rejects_missing_and_non_finite() {
        let defs = &crate::defs::END_TO_END[..1];
        let mut m = MetricSet::default();
        assert!(m.render(defs).is_err());
        m.set("setup_s", f64::NAN);
        assert!(m.render(defs).is_err());
    }
}
