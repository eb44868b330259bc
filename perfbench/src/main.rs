//! `perf` — the repository's benchmark harness. See `perfbench/README.md`.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run; last stdout line is the result
//!      [--scratch DIR] [--perturb-hints]
//! perf --all [--out FILE] [--seed N] [--seconds S]                every workload, each run in its own process
//! perf --compare A B                                              apply the bounds to two record sets
//! perf --print-benchmark-json                                     render BENCHMARK.json from the catalogue
//! ```

mod check;
mod compare;
mod defs;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use defs::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::SPECS;

/// Directory (relative to the checkout root the harness is run from) for
/// everything a run leaves behind: trace files and per-process scratch.
const OUT_DIR: &str = "perfbench/out";

/// Seed used when none is given. 7 is the held-out seed: a claim made while
/// looking at 2022 must also hold there.
const DEFAULT_SEED: u64 = 2022;

/// Untraced runs per workload in a record set (`--all`); one traced run
/// follows them.
const REPEATS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: Option<PathBuf>,
    perturb_hints: bool,
    all: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scratch: None,
        perturb_hints: false,
        all: false,
        out: None,
        compare: None,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scratch" => args.scratch = Some(PathBuf::from(value("a directory")?)),
            "--perturb-hints" => args.perturb_hints = true,
            "--all" => args.all = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two record sets")?),
                    PathBuf::from(value("two record sets")?),
                ));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Removes the per-process scratch directory when the run ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let scratch = Scratch(
        args.scratch
            .clone()
            .unwrap_or_else(|| PathBuf::from(OUT_DIR))
            .join(format!("scratch-{}", std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let outcome = run::run(&run::Options {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: &scratch.0,
        trace_out: Path::new(OUT_DIR).join(format!("trace-{name}-{}.jsonl", args.seed)),
        perturb_hints: args.perturb_hints,
    })?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct, outcome.attempted, outcome.failed, outcome.metrics
    );
    Ok(outcome.correct)
}

/// Run every workload — each run in its own process, so CPU time and peak
/// RSS are per run — [`REPEATS`] times untraced and once traced, and
/// optionally keep the results as a record set.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = String::new();
    let mut all_correct = true;
    for spec in &SPECS {
        for (trace, runs) in [(false, REPEATS), (true, 1)] {
            for run in 0..runs {
                let output = Command::new(&exe)
                    .args(["--workload", spec.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let result = stdout.lines().last().unwrap_or_default();
                if !result.starts_with('{') {
                    return Err(format!(
                        "{} printed no result ({})",
                        spec.name, output.status
                    ));
                }
                all_correct &= output.status.success();
                println!(
                    "{} trace={} run={run}: {result}",
                    spec.name,
                    u8::from(trace)
                );
                let line =
                    compare::record_line(spec.name, trace, args.seed, args.seconds, run, result);
                let _ = writeln!(records, "{line}");
            }
        }
    }
    if let Some(out) = &args.out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(out, records).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(all_correct)
}

fn benchmark_json() -> String {
    let metric = |d: &MetricDef, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", d.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    };
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--bin\", \"perf\", \"--\"],\n  \
         \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(SPECS
            .iter()
            .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
            .collect()),
        list(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    )
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.print_benchmark_json {
            print!("{}", benchmark_json());
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            compare::compare(a, b)
        } else if args.all {
            run_all(&args)
        } else if let Some(name) = &args.workload {
            run_one(&args, name)
        } else {
            Err("nothing to do: give --workload <name>, --all, --compare A B or --print-benchmark-json"
                .to_string())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the benchmark contract puts on `BENCHMARK.json`.
    #[test]
    fn catalogue_fits_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name) && unit_ok(d.unit), "{}", d.name);
            assert!(names.insert(d.name), "{} used twice", d.name);
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&SPECS.len()));
        for s in &SPECS {
            assert!(name_ok(s.name) && names.insert(s.name));
            assert!(
                s.why.len() <= 200 && !s.why.contains(['\n', '"']),
                "{}",
                s.name
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
