//! Record sets and `perf --compare A B`.
//!
//! A record set is a JSONL file: one line per run, the run's result object
//! wrapped with its workload, trace flag, seed, `--seconds` and run number.
//! `--compare` takes two sets measured at one seed and one `--seconds` (the
//! exact metrics are functions of both), applies the catalogue's bounds to
//! their medians, reports a metric as *unresolved* — not as unchanged — when
//! either set's own run-to-run spread exceeds the metric's bound, and
//! requires the deterministic metrics to agree exactly.

use crate::defs::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::SPECS;
use std::collections::BTreeMap;
use std::path::Path;

/// One line of a record set.
pub fn record_line(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    run: usize,
    result: &str,
) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"run\": {run}, \"result\": {result}}}",
        u8::from(trace)
    )
}

/// The text after `"key": ` in `text`.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    text.find(&needle).map(|at| &text[at + needle.len()..])
}

fn string_field(text: &str, key: &str) -> Option<String> {
    let rest = after_key(text, key)?.strip_prefix('"')?;
    rest.find('"').map(|end| rest[..end].to_string())
}

fn number_field(text: &str, key: &str) -> Option<f64> {
    let rest = after_key(text, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// `name -> value` for every `"name": {"value": v, "unit": "u"}` of a result.
pub fn parse_metrics(result: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut rest = after_key(result, "metrics")
        .and_then(|r| r.strip_prefix('{'))
        .ok_or("no metrics object")?;
    let mut out = BTreeMap::new();
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let close = body.find('"').ok_or("unterminated metric name")?;
        let name = &body[..close];
        let entry_end = body.find('}').ok_or("unterminated metric entry")?;
        let value = number_field(&body[close..=entry_end], "value")
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        out.insert(name.to_string(), value);
        rest = &body[entry_end + 1..];
    }
    Ok(out)
}

/// `(workload, traced) -> one metric map per run`.
type RecordSet = BTreeMap<(String, bool), Vec<BTreeMap<String, f64>>>;

fn read_set(path: &Path) -> Result<(RecordSet, (f64, f64)), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_set(&path.display().to_string(), &text)
}

/// Parse the record set `text` (read from `name`). Every line must carry the
/// same `(seed, seconds)`, which is returned with the set.
fn parse_set(name: &str, text: &str) -> Result<(RecordSet, (f64, f64)), String> {
    let mut set = RecordSet::new();
    let mut inputs = None;
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{name}:{}", i + 1);
        let workload =
            string_field(line, "workload").ok_or_else(|| format!("{}: no workload", at()))?;
        let trace =
            number_field(line, "trace").ok_or_else(|| format!("{}: no trace flag", at()))?;
        let result = after_key(line, "result").ok_or_else(|| format!("{}: no result", at()))?;
        let head = &line[..line.len() - result.len()];
        let line_inputs = number_field(head, "seed")
            .zip(number_field(head, "seconds"))
            .ok_or_else(|| format!("{}: no seed or seconds", at()))?;
        if *inputs.get_or_insert(line_inputs) != line_inputs {
            return Err(format!("{}: seed or seconds differ within the set", at()));
        }
        if !result.contains("\"correct\": true") {
            return Err(format!("{}: the run's output check did not pass", at()));
        }
        let metrics = parse_metrics(result).map_err(|e| format!("{}: {e}", at()))?;
        set.entry((workload, trace != 0.0))
            .or_default()
            .push(metrics);
    }
    let inputs = inputs.ok_or_else(|| format!("{name}: empty record set"))?;
    Ok((set, inputs))
}

fn values(runs: &[BTreeMap<String, f64>], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric).copied()).collect()
}

/// Share by which `b` is worse than `a` (negative: better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compare record set `b` (the change) against `a` (the parent). Returns
/// whether `b` is acceptable: no bounded metric regressed, every exact metric
/// identical. Unresolved metrics are reported but do not fail the comparison.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let ((set_a, inputs_a), (set_b, inputs_b)) = (read_set(a)?, read_set(b)?);
    if inputs_a != inputs_b {
        return Err(format!(
            "the sets were measured on different inputs: seed {} for {} s against seed {} for {} s",
            inputs_a.0, inputs_a.1, inputs_b.0, inputs_b.1
        ));
    }
    let mut acceptable = true;
    for spec in &SPECS {
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let key = (spec.name.to_string(), traced);
            let (Some(runs_a), Some(runs_b)) = (set_a.get(&key), set_b.get(&key)) else {
                return Err(format!(
                    "both sets need {} runs of {}",
                    if traced { "traced" } else { "untraced" },
                    spec.name
                ));
            };
            println!(
                "\n{} ({}, {} vs {} runs)",
                spec.name,
                if traced { "per-layer" } else { "end-to-end" },
                runs_a.len(),
                runs_b.len()
            );
            println!(
                "  {:<38} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
                "metric", "A median", "B median", "worse by", "A spread", "B spread", "bound"
            );
            for def in defs {
                let (va, vb) = (values(runs_a, def.name), values(runs_b, def.name));
                if va.len() != runs_a.len() || vb.len() != runs_b.len() {
                    return Err(format!("{}: {} is missing from a run", spec.name, def.name));
                }
                let (ma, mb) = (median(&va), median(&vb));
                let worse = worse_by(def, ma, mb);
                let (sa, sb) = (spread(&va), spread(&vb));
                let verdict = if def.exact {
                    if va.iter().chain(&vb).all(|v| v.to_bits() == va[0].to_bits()) {
                        "exact"
                    } else {
                        acceptable = false;
                        "DIFFERS (must be exact)"
                    }
                } else if traced {
                    ""
                } else if sa.zip(sb).is_none_or(|(a, b)| a.max(b) > def.bound) {
                    "unresolved (spread exceeds bound)"
                } else if worse > def.bound {
                    acceptable = false;
                    "REGRESSED"
                } else {
                    "ok"
                };
                let pct =
                    |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.1}%", 100.0 * v));
                println!(
                    "  {:<38} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>8} {:>6}  {verdict}",
                    def.name,
                    ma,
                    mb,
                    100.0 * worse,
                    pct(sa),
                    pct(sb),
                    if traced {
                        "-".to_string()
                    } else {
                        format!("{:.0}%", 100.0 * def.bound)
                    },
                );
            }
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_round_trip_through_a_record_line() {
        let result = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                      {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
                      \"jobs_per_s\": {\"value\": 12345.25, \"unit\": \"1/s\"}}}";
        let line = record_line("fresh_daily", false, 7, 20.0, 3, result);
        assert_eq!(
            string_field(&line, "workload").as_deref(),
            Some("fresh_daily")
        );
        assert_eq!(number_field(&line, "trace"), Some(0.0));
        assert_eq!(number_field(&line, "seed"), Some(7.0));
        assert_eq!(number_field(&line, "seconds"), Some(20.0));
        let m = parse_metrics(after_key(&line, "result").unwrap()).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["setup_s"], 0.5);
        assert_eq!(m["jobs_per_s"], 12345.25);

        let (set, inputs) = parse_set("a", &line).unwrap();
        assert_eq!(inputs, (7.0, 20.0));
        assert_eq!(set[&("fresh_daily".to_string(), false)].len(), 1);
        // A set is one seed and one --seconds: the exact metrics depend on both.
        let other_seed = record_line("fresh_daily", false, 8, 20.0, 4, result);
        assert!(parse_set("a", &format!("{line}\n{other_seed}")).is_err());
        let failed = record_line("fresh_daily", false, 7, 20.0, 4, "{\"correct\": false}");
        assert!(parse_set("a", &failed).is_err());
    }
}
