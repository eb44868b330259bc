//! Crash-recovery smoke driver: run the closed steering loop for N days,
//! optionally snapshotting at every day boundary, or resume a snapshotted
//! run and replay its tail. Prints one `DailyReport::steering` line per
//! day run in THIS process (telemetry-only fields defaulted, exactly like
//! `tests/determinism.rs`), so a resumed tail can be byte-diffed against
//! the same days of an uninterrupted golden run:
//!
//! ```text
//! # uninterrupted 10-day golden run
//! recovery --days 10 --sis sis_golden --out golden.txt
//! # run 6 days, snapshotting at each boundary, then "crash"
//! recovery --days 6 --sis sis_crash --snapshot state.qosnap --out head.txt
//! # restore and finish days 6..10 in a fresh process
//! recovery --days 10 --sis sis_crash --resume state.qosnap --out tail.txt
//! # equivalence: tail -n 4 golden.txt == tail.txt, and the SIS dirs match
//! ```
//!
//! CI's crash-recovery leg runs exactly this sequence and diffs the
//! outputs; see `.github/workflows/ci.yml`.

use qo_advisor::{PipelineConfig, ProductionSim, SnapshotPolicy};
use scope_workload::{LiteralPolicy, WorkloadConfig};
use sis::SisStore;

fn usage() -> ! {
    eprintln!("usage: recovery --days N --sis DIR --out FILE [--snapshot PATH] [--resume PATH]");
    std::process::exit(2);
}

fn main() {
    let mut days: Option<u32> = None;
    let mut sis_dir: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--days" => days = value().parse().ok(),
            "--sis" => sis_dir = Some(value()),
            "--out" => out_path = Some(value()),
            "--snapshot" => snapshot = Some(value()),
            "--resume" => resume = Some(value()),
            _ => usage(),
        }
    }
    let (Some(days), Some(sis_dir), Some(out_path)) = (days, sis_dir, out_path) else {
        usage()
    };

    // The sticky-literal recurring-script regime: the one with cross-day
    // literal-epoch state, so resuming mid-run exercises every durable
    // component.
    let wl = WorkloadConfig {
        seed: 99,
        num_templates: 24,
        adhoc_per_day: 3,
        max_instances_per_day: 1,
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
    };
    let mut sim = ProductionSim::with_sis_store(
        wl,
        PipelineConfig::default(),
        SisStore::at_dir(&sis_dir).expect("create sis dir"),
    );
    if let Some(path) = &resume {
        sim.restore(path).expect("restore snapshot");
        eprintln!("resumed from {path} at day {}", sim.day);
    }
    if let Some(path) = &snapshot {
        sim.set_snapshot_policy(Some(SnapshotPolicy::every_day(path)));
    }

    let mut lines = Vec::new();
    while sim.day < days {
        let out = sim
            .advance_day()
            .expect("generated workloads compile on the default path");
        lines.push(format!("{:?}", out.report.steering()));
    }
    let mut body = lines.join("\n");
    body.push('\n');
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).expect("create output dir");
    }
    std::fs::write(&out_path, body).expect("write report lines");
    eprintln!(
        "ran days {}..{days}, wrote {} report line(s) to {out_path}",
        days - lines.len() as u32,
        lines.len()
    );
}
