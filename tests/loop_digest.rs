//! Cross-commit byte identity of the whole steering loop. Reduced copies of
//! `perf`'s four workload shapes (`perfbench/src/workloads.rs`, mirrored
//! here, not imported) run at seeds 2022 and 7, and everything the loop
//! produces is folded into one 64-bit digest per shape and seed:
//!
//! * every day's report: at one worker with only the wall clocks defaulted,
//!   so the exact counters count (compile, execution and feature cache
//!   traffic, pruned/delta/full treatments, base builds and hits, replay
//!   tasks); the day's hinted comparisons and reverts; the bandit's event
//!   count;
//! * every published hint file's bytes, by sorted name;
//! * the snapshot bytes (every day's for `durable_restart`, otherwise one
//!   taken after the last day);
//! * the tasks and memo expressions of an uncached compile of each of the
//!   last day's jobs.
//!
//! The fleet also runs at two workers. Its shared-cache miss counts race
//! there, so that run folds only `DailyReport::steering`, the comparisons,
//! the reverts and the hint bytes, and must equal the same fold at one
//! worker.
//!
//! Each test pins both folds, `(outputs, exact)`, per seed. The exact
//! digests were recorded before seed salts became a type, and re-recorded
//! when exploration began trying each transform only on expressions its
//! root tag matches: that moved the task counts alone (the delta compiler's
//! replayed tasks and the replayed compiles' tasks), while every output
//! fold, and the exact fold with those task fields masked, stayed the same
//! at every shape and seed. The output folds were recorded before
//! recommendation and the span fixpoint began keeping a treatment's price
//! instead of its plan, a change that moved neither fold at any shape or
//! seed. The exact folds were re-recorded once more when the execution cache
//! became one stage-graph memo and the span fixpoint's default compile the
//! only one per template: that moved the reports' `exec_cache` and
//! `compile_cache` counters alone, and the exact fold with those two fields
//! masked stayed the same at every shape and seed. A moved output fold
//! means some steering output, hint file or comparison changed; a moved
//! exact fold alone means an exact counter or snapshot byte did. A change
//! that means to move one re-records it here and says why.

use qo_advisor::{
    DailyReport, DayOutcome, Fleet, FleetConfig, PipelineConfig, ProductionSim, SnapshotPolicy,
    StageTimings, StreamConfig,
};
use scope_ir::ids::{combine, stable_hash64};
use scope_opt::{CompileBudget, Optimizer};
use scope_workload::{LiteralPolicy, WorkloadConfig};
use sis::SisStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Daily,
    Fleet,
    Durable,
}

/// One workload shape, cut down from its `perf` spec.
struct Shape {
    name: &'static str,
    kind: Kind,
    templates: usize,
    adhoc: usize,
    literals: LiteralPolicy,
    dim_bits: u32,
    bootstrap: (u32, usize),
    days: u32,
}

const RECURRING_DAILY: Shape = Shape {
    name: "recurring_daily",
    kind: Kind::Daily,
    templates: 60,
    adhoc: 15,
    literals: LiteralPolicy::Sticky {
        redraw_every_days: 0,
    },
    dim_bits: 20,
    bootstrap: (5, 24),
    days: 10,
};

const FRESH_DAILY: Shape = Shape {
    name: "fresh_daily",
    kind: Kind::Daily,
    templates: 60,
    adhoc: 15,
    literals: LiteralPolicy::FreshEachRun,
    dim_bits: 20,
    bootstrap: (5, 24),
    days: 6,
};

const FLEET_ZIPF: Shape = Shape {
    name: "fleet_zipf",
    kind: Kind::Fleet,
    templates: 24,
    adhoc: 6,
    literals: LiteralPolicy::Mixed {
        sticky_fraction: 0.7,
    },
    dim_bits: 16,
    bootstrap: (2, 8),
    days: 4,
};

const DURABLE_RESTART: Shape = Shape {
    name: "durable_restart",
    kind: Kind::Durable,
    templates: 60,
    adhoc: 15,
    literals: LiteralPolicy::Sticky {
        redraw_every_days: 0,
    },
    dim_bits: 20,
    bootstrap: (5, 24),
    days: 10,
};

/// `durable_restart` drops, rebuilds and restores its sim before every 5th
/// day.
const RESTART_EVERY: u32 = 5;

/// How many fleet tenants run each base seed: the head shared, the tail
/// private (`perf` uses 32 tenants over 12 Zipf-shared seeds).
const FLEET_SEED_SHARES: [usize; 4] = [3, 2, 1, 1];

/// `perf`'s own PRNG, which draws the fleet's base seeds and tenant order.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Shape {
    fn tenant_configs(&self, seed: u64) -> Vec<WorkloadConfig> {
        let config = |seed| WorkloadConfig {
            seed,
            num_templates: self.templates,
            adhoc_per_day: self.adhoc,
            max_instances_per_day: 2,
            literals: self.literals,
        };
        if self.kind != Kind::Fleet {
            return vec![config(seed)];
        }
        let mut rng = SplitMix64(seed);
        let mut seeds: Vec<u64> = FLEET_SEED_SHARES
            .iter()
            .flat_map(|&share| std::iter::repeat_n(rng.next_u64(), share))
            .collect();
        for i in (1..seeds.len()).rev() {
            seeds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        seeds.into_iter().map(config).collect()
    }

    fn pipeline(&self) -> PipelineConfig {
        let mut config = PipelineConfig::default();
        config.cb.dim_bits = self.dim_bits;
        config
    }
}

/// A private scratch directory, removed on drop.
struct TempTree(PathBuf);

impl TempTree {
    fn new(name: &str, seed: u64, workers: usize) -> Self {
        let root = std::env::temp_dir().join(format!(
            "qo-loop-digest-{name}-{seed}-{workers}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create temp tree");
        Self(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two folds of one run: `outputs` sees only what the byte-identity
/// contract covers at any worker count, `exact` sees everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    outputs: u64,
    exact: u64,
}

fn fold(h: u64, bytes: &[u8]) -> u64 {
    combine(h, stable_hash64(bytes))
}

impl Digest {
    fn output(&mut self, bytes: &[u8]) {
        self.outputs = fold(self.outputs, bytes);
        self.exact = fold(self.exact, bytes);
    }

    fn counter(&mut self, bytes: &[u8]) {
        self.exact = fold(self.exact, bytes);
    }

    fn day(&mut self, sim: &ProductionSim, outcome: &DayOutcome) {
        self.output(format!("{:?}", outcome.report.steering()).as_bytes());
        self.output(format!("{:?} {:?}", outcome.comparisons, outcome.reverted).as_bytes());
        let counters = DailyReport {
            timings: StageTimings::default(),
            ..outcome.report.clone()
        };
        self.counter(format!("{counters:?}").as_bytes());
        self.counter(&sim.advisor.personalizer().events().to_le_bytes());
    }

    /// Every hint file under `dir`, by sorted name; returns how many.
    fn hint_files(&mut self, dir: &Path) -> usize {
        let files: BTreeMap<String, Vec<u8>> = std::fs::read_dir(dir)
            .expect("sis dir exists")
            .map(|entry| {
                let entry = entry.expect("readable dir entry");
                let bytes = std::fs::read(entry.path()).expect("readable hint file");
                (entry.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect();
        for (name, bytes) in &files {
            self.output(name.as_bytes());
            self.output(bytes);
        }
        files.len()
    }

    fn snapshot(&mut self, path: &Path) {
        self.counter(&std::fs::read(path).expect("snapshot written"));
    }

    /// Tasks and memo expressions of an uncached, unlimited compile of each
    /// of the last finished day's jobs.
    fn replay(&mut self, sim: &ProductionSim) {
        let optimizer = Optimizer::default();
        let default = optimizer.default_config();
        for job in sim.workload.jobs_for_day(sim.day - 1) {
            let text =
                match optimizer.compile_budgeted(&job.plan, &default, CompileBudget::unlimited()) {
                    Ok(b) => format!("{} {}", b.tasks_executed, b.compiled.memo_exprs),
                    Err(e) => e.to_string(),
                };
            self.counter(text.as_bytes());
        }
    }
}

fn bootstrap(sim: &mut ProductionSim, shape: &Shape) {
    sim.bootstrap_validation_model(shape.bootstrap.0, shape.bootstrap.1)
        .expect("generated workloads compile on the default path");
}

fn run_daily(shape: &Shape, seed: u64) -> Digest {
    let tmp = TempTree::new(shape.name, seed, 1);
    let sis_dir = tmp.0.join("sis");
    let snapshot = tmp.0.join("state.qosnap");
    let config = shape.tenant_configs(seed).remove(0);
    let build = || {
        let store = SisStore::at_dir(&sis_dir).expect("create sis dir");
        let mut sim = ProductionSim::with_sis_store(config.clone(), shape.pipeline(), store);
        if shape.kind == Kind::Durable {
            sim.set_snapshot_policy(Some(SnapshotPolicy::every_day(&snapshot)));
        }
        sim
    };
    let mut sim = build();
    bootstrap(&mut sim, shape);
    let mut digest = Digest::default();
    for step in 1..=shape.days {
        if shape.kind == Kind::Durable && step % RESTART_EVERY == 0 {
            sim = build();
            sim.restore(&snapshot).expect("restore the last snapshot");
        }
        let outcome = sim.advance_day().expect("day runs clean");
        digest.day(&sim, &outcome);
        if shape.kind == Kind::Durable {
            digest.snapshot(&snapshot);
        }
    }
    if shape.kind != Kind::Durable {
        sim.snapshot(&snapshot).expect("write snapshot");
        digest.snapshot(&snapshot);
    }
    assert!(digest.hint_files(&sis_dir) > 0, "no hint file published");
    digest.replay(&sim);
    digest
}

fn run_fleet(shape: &Shape, seed: u64, workers: usize) -> Digest {
    let tmp = TempTree::new(shape.name, seed, workers);
    let config = FleetConfig {
        pipeline: shape.pipeline(),
        stream: StreamConfig {
            workers,
            ..StreamConfig::default()
        },
        isolated_caches: false,
    };
    let mut fleet = Fleet::with_sis_root(shape.tenant_configs(seed), &config, &tmp.0)
        .expect("create tenant sis dirs");
    for tenant in fleet.tenants_mut() {
        bootstrap(&mut tenant.sim, shape);
    }
    let mut digest = Digest::default();
    for _ in 0..shape.days {
        let day = fleet.advance_day().expect("fleet day runs clean");
        for (tenant, outcome) in fleet.tenants().iter().zip(&day.outcomes) {
            digest.day(&tenant.sim, outcome);
        }
    }
    let mut published = 0;
    for tenant in fleet.tenants() {
        let snapshot = tmp.0.join(format!("tenant-{:03}.qosnap", tenant.id));
        tenant.sim.snapshot(&snapshot).expect("write snapshot");
        digest.snapshot(&snapshot);
        published += digest.hint_files(&tmp.0.join(format!("tenant-{:03}", tenant.id)));
    }
    assert!(published > 0, "no hint file published");
    digest.replay(&fleet.tenants()[0].sim);
    digest
}

/// The fleet's digests at one worker; its outputs must not depend on the
/// worker count.
fn fleet_digest(seed: u64) -> Digest {
    let one = run_fleet(&FLEET_ZIPF, seed, 1);
    let two = run_fleet(&FLEET_ZIPF, seed, 2);
    assert_eq!(one.outputs, two.outputs, "fleet outputs moved with workers");
    one
}

/// A digest as its `(outputs, exact)` pin.
fn pin(digest: Digest) -> (u64, u64) {
    (digest.outputs, digest.exact)
}

#[test]
fn recurring_daily_loop_is_byte_identical() {
    assert_eq!(
        (
            pin(run_daily(&RECURRING_DAILY, 2022)),
            pin(run_daily(&RECURRING_DAILY, 7))
        ),
        (
            (0x0a69_dfcf_7120_a838, 0xfb2d_d5aa_0f1d_54fa),
            (0xa991_133f_7765_21d4, 0x932b_926a_cc14_0659)
        )
    );
}

#[test]
fn fresh_daily_loop_is_byte_identical() {
    assert_eq!(
        (
            pin(run_daily(&FRESH_DAILY, 2022)),
            pin(run_daily(&FRESH_DAILY, 7))
        ),
        (
            (0x6f39_8ba1_7d36_17cf, 0x17a1_4adf_aadf_d366),
            (0x5f41_964b_71e2_242d, 0x2e1d_2b45_51c3_1e83)
        )
    );
}

#[test]
fn fleet_zipf_loop_is_byte_identical_at_one_and_two_workers() {
    assert_eq!(
        (pin(fleet_digest(2022)), pin(fleet_digest(7))),
        (
            (0x2b23_785b_67be_e1cd, 0x4029_4372_8f95_79c2),
            (0xb134_edda_f935_b860, 0xf59a_e77c_5682_8ad6)
        )
    );
}

#[test]
fn durable_restart_loop_is_byte_identical() {
    assert_eq!(
        (
            pin(run_daily(&DURABLE_RESTART, 2022)),
            pin(run_daily(&DURABLE_RESTART, 7))
        ),
        (
            (0x0a69_dfcf_7120_a838, 0x6333_abf3_c1b6_b9be),
            (0xa991_133f_7765_21d4, 0x8380_1ec5_418f_0075)
        )
    );
}
