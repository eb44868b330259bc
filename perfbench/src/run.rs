//! One benchmark run: set-up, the timed days, the metrics, the output check.

use crate::check::{self, Capture};
use crate::defs::{END_TO_END, PER_LAYER};
use crate::layers::{self, Counters, Traffic};
use crate::stats::{self, median, ns_to_ms, quantile, MetricSet};
use crate::trace::Recorder;
use crate::workloads::{decomposed_day, fleet_workers, DayResult, Spec, System};
use qo_advisor::HintedComparison;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Groups the timed days are cut into; `jobs_per_s` and `cpu_ms_per_kjob`
/// are the median group's, so a burst of machine noise moves one group, not
/// the metric.
const GROUPS: usize = 15;

/// Decomposed days run on the fleet's first tenant after its traced days, so
/// the single-tenant layers have spans to read on `fleet_zipf` too.
const FLEET_PROBE_DAYS: usize = 4;

pub struct Options<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private scratch directory of this process (removed by the caller).
    pub scratch: &'a Path,
    /// Where the traced run's spans are written.
    pub trace_out: PathBuf,
    /// Self-test: falsify the captured hint set so the check must fail.
    pub perturb_hints: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The rendered `metrics` object.
    pub metrics: String,
}

/// Steering quality over hinted production runs, accumulated day by day.
#[derive(Default)]
struct Quality {
    runs: u64,
    ratio_sum: f64,
    regressed: u64,
    steered_pn: f64,
    default_pn: f64,
}

impl Quality {
    fn add(&mut self, comparisons: &[HintedComparison]) {
        for c in comparisons {
            self.runs += 1;
            self.ratio_sum += c.steered.pn_hours / c.default.pn_hours;
            self.regressed += u64::from(c.pn_delta() > 0.0);
            self.steered_pn += c.steered.pn_hours;
            self.default_pn += c.default.pn_hours;
        }
    }
}

/// Operations attempted and failed: days, jobs, restores.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Account for one day; `Err` days count as one failed operation.
    fn day(&mut self, day: &Result<DayResult, String>) {
        self.attempted += 1;
        match day {
            Ok(day) => self.attempted += day.jobs + u64::from(day.restore_ns.is_some()),
            Err(e) => {
                self.failed += 1;
                eprintln!("perf: day failed: {e}");
            }
        }
    }
}

pub fn run(o: &Options) -> Result<Outcome, String> {
    let mut metrics = MetricSet::default();
    let mut ops = Ops::default();
    let mut capture = Capture::new(o.spec, o.seed);
    if o.trace {
        traced(o, &mut metrics, &mut ops, &mut capture)?;
    } else {
        untraced(o, &mut metrics, &mut ops, &mut capture)?;
    }
    let defs = if o.trace { PER_LAYER } else { END_TO_END };
    eprint!("{}", metrics.table(defs));

    if o.perturb_hints {
        capture.perturb_hints();
    }
    let checked = if ops.failed == 0 {
        check::verify(o.spec, o.seed, &capture)
    } else {
        Err("a day failed".to_string())
    };
    if let Err(why) = &checked {
        eprintln!("perf: output check FAILED: {why}");
    }
    Ok(Outcome {
        correct: checked.is_ok() && ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: metrics.render(defs)?,
    })
}

/// The measured run: several set-ups, then timed days through the program's
/// own entry points. A failed day ends the timed days and is counted in `ops`.
fn untraced(
    o: &Options,
    m: &mut MetricSet,
    ops: &mut Ops,
    capture: &mut Capture,
) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut system: Option<System> = None;
    for k in 0..SETUPS {
        // Drop the previous system first: each set-up starts from nothing.
        drop(system.take());
        let t = Instant::now();
        system = Some(System::setup(
            o.spec,
            o.seed,
            &o.scratch.join(format!("setup-{k}")),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut system = system.expect("SETUPS > 0");

    let cap = o.spec.day_cap(o.seconds);
    // Quality is a function of the seed alone: it covers a fixed prefix of
    // the days, which runs even if the deadline has passed.
    let quality_days = (cap / 2).max(check::CHECK_DAYS);
    let mut quality = Quality::default();
    let (mut day_ns, mut day_jobs, mut restarts_ns) = (Vec::new(), Vec::new(), Vec::new());
    // Process CPU time at every group boundary (its 10 ms ticks are too
    // coarse for a single day, fine for a group of about a second).
    let group = cap.div_ceil(GROUPS);
    let mut cpu_ms = vec![stats::cpu_ms()?];
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    while day_ns.len() < quality_days || (day_ns.len() < cap && Instant::now() < deadline) {
        let t = Instant::now();
        let day = system.step();
        let ns = t.elapsed().as_nanos() as u64;
        ops.day(&day);
        let Ok(day) = day else {
            break;
        };
        if day_ns.len() < quality_days {
            for outcome in &day.outcomes {
                quality.add(&outcome.comparisons);
            }
        }
        if !capture.is_full() {
            capture.push(&system, &day);
        }
        day_ns.push(ns);
        day_jobs.push(day.jobs);
        restarts_ns.extend(day.restore_ns);
        if day_ns.len() % group == 0 {
            cpu_ms.push(stats::cpu_ms()?);
        }
    }
    let peak_rss = stats::peak_rss_mb()?;
    if day_ns.is_empty() {
        return Err("no day completed".to_string());
    }

    let days_ms: Vec<f64> = day_ns.iter().map(|&n| ns_to_ms(n)).collect();
    let rates: Vec<f64> = day_ns
        .chunks(group)
        .zip(day_jobs.chunks(group))
        .map(|(ns, jobs)| jobs.iter().sum::<u64>() as f64 / (ns.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    // Per full group: CPU spent per 1000 jobs.
    let cpu_per_kjob: Vec<f64> = cpu_ms
        .windows(2)
        .zip(day_jobs.chunks(group))
        .map(|(cpu, jobs)| (cpu[1] - cpu[0]) / (jobs.iter().sum::<u64>() as f64 / 1e3))
        .collect();
    let jobs: u64 = day_jobs.iter().sum();

    m.set("setup_s", median(&setup_s));
    m.set("jobs_per_s", median(&rates));
    m.set("day_ms_p50", median(&days_ms));
    m.set("cpu_ms_per_kjob", median(&cpu_per_kjob));
    m.set("peak_rss_mb", peak_rss);
    if quality.runs == 0 {
        return Err(format!("no hinted run in the first {quality_days} days"));
    }
    m.set(
        "steered_pn_ratio_pct",
        100.0 * quality.ratio_sum / quality.runs as f64,
    );
    m.set(
        "non_regressed_share_pct",
        100.0 * (1.0 - quality.regressed as f64 / quality.runs as f64),
    );
    let restarts = if restarts_ns.is_empty() {
        String::new()
    } else {
        let ms: Vec<f64> = restarts_ns.iter().map(|&n| ns_to_ms(n)).collect();
        format!(
            " {} restarts (restore_ms_p50 {:.3}),",
            ms.len(),
            median(&ms)
        )
    };
    eprintln!(
        "perf: {} seed {}: {} timed days (cap {cap}, day_ms_p90 {:.3}), {jobs} jobs, \
         {} hinted runs in the first {quality_days} days, aggregate PN-hours {:+.3}%, \
         failed_ops_share {}/{},{restarts} {} worker threads available",
        o.spec.name,
        o.seed,
        day_ns.len(),
        quantile(&days_ms, 0.9),
        quality.runs,
        100.0 * (quality.steered_pn / quality.default_pn - 1.0),
        ops.failed,
        ops.attempted,
        fleet_workers(),
    );
    Ok(())
}

/// The traced run: one set-up, half the measured run's days in alternating
/// untraced and traced blocks (so a quarter of the days carry spans and the
/// other quarter is the overhead baseline), then the replay passes. A failed
/// day is an error: there is nothing meaningful left to report per layer.
fn traced(
    o: &Options,
    m: &mut MetricSet,
    ops: &mut Ops,
    capture: &mut Capture,
) -> Result<(), String> {
    let mut system = System::setup(o.spec, o.seed, &o.scratch.join("setup-0"))?;
    let mut traffic = Traffic::default();
    let mut rec = Recorder::new();
    // A fixed number of days, no deadline: the count-valued layer metrics
    // must not depend on how fast the machine happened to be.
    let days = (o.spec.day_cap(o.seconds) / 2).max(check::CHECK_DAYS);
    let block = (days / 20).max(1);
    let mut block_rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut block_jobs, mut block_ns) = (0u64, 0u64);
    let mut reports = Vec::new();
    let mut last_jobs = None;
    let mut restarts_ns = Vec::new();
    for i in 0..days {
        let spans_on = (i / block) % 2 == 1;
        let before = Counters::read(system.probe());
        let t = Instant::now();
        let day = if spans_on {
            system.step_traced(&mut rec).map(|(day, jobs)| {
                if let Some(jobs) = jobs {
                    reports.push(day.outcomes[0].report.clone());
                    last_jobs = Some(jobs);
                }
                day
            })
        } else {
            system.step()
        };
        let ns = t.elapsed().as_nanos() as u64;
        ops.day(&day);
        let day = day?;
        traffic.add_day(
            &before,
            &Counters::read(system.probe()),
            day.restore_ns.is_some(),
        );
        restarts_ns.extend(day.restore_ns);
        if !capture.is_full() {
            capture.push(&system, &day);
        }
        block_jobs += day.jobs;
        block_ns += ns;
        if (i + 1) % block == 0 || i + 1 == days {
            block_rates[usize::from(spans_on)].push(block_jobs as f64 / (block_ns as f64 / 1e9));
            (block_jobs, block_ns) = (0, 0);
        }
    }
    if matches!(system, System::Fleet(_)) {
        // `Fleet::advance_day` is one call from outside; drive its first
        // tenant alone for a few decomposed days to see the layers under it.
        for _ in 0..FLEET_PROBE_DAYS {
            let before = Counters::read(system.probe());
            let day = decomposed_day(system.probe(), &mut rec).map(|(day, jobs)| {
                reports.push(day.outcomes[0].report.clone());
                last_jobs = Some(jobs);
                day
            });
            ops.day(&day);
            day?;
            traffic.add_day(&before, &Counters::read(system.probe()), false);
        }
    }

    layers::in_situ(&rec, &reports, &traffic, m)?;
    let jobs = last_jobs.ok_or("the traced run captured no jobs")?;
    layers::replay(
        system.probe(),
        &jobs,
        &restarts_ns,
        &o.scratch.join("replay"),
        m,
    )?;
    layers::fleet_replay(o.spec, o.seed, fleet_workers(), m)?;
    let [plain, spanned] = &block_rates;
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (1.0 - median(spanned) / median(plain)),
    );

    if let Some(dir) = o.trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    rec.write_jsonl(&o.trace_out).map_err(|e| e.to_string())?;
    eprintln!(
        "perf: {} seed {}: {days} days, {} spans written to {}",
        o.spec.name,
        o.seed,
        rec.spans().len(),
        o.trace_out.display()
    );
    for (name, count, total, own) in rec.self_times() {
        eprintln!(
            "  span {name:<28} n={count:<7} total {:>10.3} ms  self {:>10.3} ms",
            ns_to_ms(total),
            ns_to_ms(own)
        );
    }
    Ok(())
}
