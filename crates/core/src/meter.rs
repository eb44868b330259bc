//! The day loop's one meter: where a day's time and cache traffic went.
//!
//! Every phase of a simulated day is measured the same way — run it, then
//! bill the lap:
//!
//! ```text
//! let mut meter = advisor.sample();            // counters + clock, now
//! let spanned = stages::feature_gen(..)?;
//! report.bill(Stage::FeatureGen, meter.lap(advisor));
//! ```
//!
//! A [`Sample`] is one reading of the advisor's four lifetime counters plus
//! the wall clock; [`Sample::lap`] returns what moved since the previous
//! reading (a [`Lap`]) and re-arms the sample, so consecutive laps tile the
//! day with no gap and no overlap. [`DailyReport::bill`] is the only writer
//! of the report's telemetry: a lap's wall clock and compile/exec traffic
//! land in its stage's slot of [`StageTimings`] / [`CacheCounters`] /
//! [`ExecCounters`], and its span-feature and delta-compilation traffic
//! *accumulate* into the day totals — so widening a report from pipeline to
//! simulated day to fleet day is billing one more lap, never re-diffing a
//! wider window.
//!
//! All of it is observability: nothing here is read by steering, and
//! reproducibility comparisons drop it via [`DailyReport::steering`].

use crate::pipeline::{DailyReport, QoAdvisor};
use scope_opt::{CacheStats, DeltaStats};
use scope_runtime::ExecStats;
use std::time::Instant;

/// One day's cache telemetry, attributed to the pipeline stage (or simulator
/// phase) whose lap it moved in, so the report shows *where* a cache earns
/// its keep: under a sticky [`scope_workload::LiteralPolicy`] `view_build`
/// dominates the compile side (recurring production scripts rebind the
/// identical plan every day), while with fresh literals only the within-day
/// repeats (`feature_gen`/`flight`) hit.
///
/// Two instantiations ride in [`DailyReport`]: [`CacheCounters`] (the
/// compile-result cache) and [`ExecCounters`] (the execution cache, whose
/// [`ExecStats`] counts `graphs`, one stage-graph memo lookup per execution,
/// and `results`, the same executions as misses; only view building,
/// counterfactuals and flighting execute plans, so its other slots stay zero
/// in a single-tenant loop).
///
/// *Observability* counters, not steering outputs: cached results are
/// byte-identical to recomputation, but which lookup hits can depend on
/// eviction order under parallel inserts, so reproducibility comparisons
/// zero these fields (see `tests/determinism.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters<S> {
    /// Production compiles and runs while building the daily view (billed by
    /// [`crate::ProductionSim::advance_day`]; zero for a bare
    /// [`crate::QoAdvisor::run_day`], which is handed a prebuilt view, and
    /// inside a fleet, whose all-tenant view build cannot be attributed to
    /// one tenant).
    pub view_build: S,
    /// Counterfactual default-configuration compiles and runs of hinted
    /// production jobs (a [`crate::ProductionSim`] phase).
    pub counterfactual: S,
    /// Task 1 — Feature Generation: the span fixpoint's recompiles.
    pub feature_gen: S,
    /// Task 2 — Recommendation: the chosen-flip recompiles.
    pub recommend: S,
    /// Task 3 — Flighting: baseline/treatment compiles and pre-production
    /// runs.
    pub flight: S,
}

impl<S: Copy + std::ops::Add<Output = S>> StageCounters<S> {
    /// Counter-wise roll-up across every stage.
    #[must_use]
    pub fn total(&self) -> S {
        self.view_build + self.counterfactual + self.feature_gen + self.recommend + self.flight
    }
}

/// Per-stage compile-result-cache telemetry of one day.
pub type CacheCounters = StageCounters<CacheStats>;
/// Per-stage execution-cache telemetry of one day.
pub type ExecCounters = StageCounters<ExecStats>;

/// Wall-clock time of each phase of one simulated day, in nanoseconds —
/// embedded in [`crate::DailyReport`] so the per-day perf trajectory is
/// machine-readable (the `perf` benchmark's `core.*_ms_p50` layer metrics
/// read it; see `perfbench/README.md`).
///
/// Pure observability, like the cache counters: wall clocks obviously vary
/// run to run, so reproducibility comparisons zero this field (see
/// `tests/determinism.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Production view building ([`crate::ProductionSim::advance_day`], or a
    /// fleet's summed per-job build time; zero for a bare
    /// [`crate::QoAdvisor::run_day`]).
    pub view_build_ns: u64,
    /// Counterfactual default compiles + runs of hinted production jobs.
    pub counterfactual_ns: u64,
    /// Task 1 — Feature Generation (span fixpoint).
    pub feature_gen_ns: u64,
    /// Task 2 — Recommendation (+ recompilation / slate pricing).
    pub recommend_ns: u64,
    /// Task 3 — Flighting.
    pub flight_ns: u64,
    /// Task 4 — Validation.
    pub validate_ns: u64,
    /// Task 5 — Hint Generation / SIS publish.
    pub publish_ns: u64,
    /// Durable-state snapshot write at the day boundary (zero unless a
    /// [`crate::snapshot::SnapshotPolicy`] is installed and fired today).
    pub snapshot_ns: u64,
    /// Durable-state snapshot *restore* that brought the sim to this day
    /// (zero unless this day resumed from
    /// [`crate::ProductionSim::restore`]). A restore happens between days,
    /// so the day resuming from it carries the cost — the read-side mirror
    /// of `snapshot_ns`.
    pub restore_ns: u64,
}

impl StageTimings {
    /// Total instrumented nanoseconds of the day.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.view_build_ns
            + self.counterfactual_ns
            + self.feature_gen_ns
            + self.recommend_ns
            + self.flight_ns
            + self.validate_ns
            + self.publish_ns
            + self.snapshot_ns
            + self.restore_ns
    }
}

/// The phases of a day a [`Lap`] can be billed to.
pub(crate) enum Stage {
    ViewBuild,
    Counterfactual,
    FeatureGen,
    Recommend,
    Flight,
    Validate,
    Publish,
}

/// One reading of an advisor's lifetime counters and the wall clock.
pub(crate) struct Sample {
    compile: CacheStats,
    exec: ExecStats,
    feature: CacheStats,
    delta: DeltaStats,
    at: Instant,
}

/// What moved between two [`Sample`]s.
#[derive(Default)]
pub(crate) struct Lap {
    pub compile: CacheStats,
    pub exec: ExecStats,
    pub feature: CacheStats,
    pub delta: DeltaStats,
    pub ns: u64,
}

impl QoAdvisor {
    /// Read the meter: every lifetime counter, then the clock.
    #[expect(
        clippy::disallowed_methods,
        reason = "the day loop's one stage clock; `DailyReport.timings` is zeroed before every byte-identity comparison"
    )]
    pub(crate) fn sample(&self) -> Sample {
        Sample {
            compile: self.cache_stats(),
            exec: self.exec_stats(),
            feature: self.feature_stats(),
            delta: self.delta_stats(),
            at: Instant::now(),
        }
    }
}

impl Sample {
    /// What moved since this sample was taken (or last lapped); re-arms the
    /// sample at now, so the next lap starts where this one ended.
    pub(crate) fn lap(&mut self, advisor: &QoAdvisor) -> Lap {
        let now = advisor.sample();
        macro_rules! moved {
            ($counter:ident) => {
                now.$counter.since(&self.$counter)
            };
        }
        let lap = Lap {
            compile: moved!(compile),
            exec: moved!(exec),
            feature: moved!(feature),
            delta: moved!(delta),
            ns: now.at.duration_since(self.at).as_nanos() as u64,
        };
        *self = now;
        lap
    }
}

impl DailyReport {
    /// Bill one lap to `stage`: its wall clock and compile/exec traffic are
    /// the stage's (validation and publish have a clock only), and its
    /// span-feature and delta-compilation traffic add to the day totals.
    /// The only writer of this report's telemetry fields.
    pub(crate) fn bill(&mut self, stage: Stage, lap: Lap) {
        use Stage::*;
        let (t, cc, ec) = (
            &mut self.timings,
            &mut self.compile_cache,
            &mut self.exec_cache,
        );
        *match stage {
            ViewBuild => &mut t.view_build_ns,
            Counterfactual => &mut t.counterfactual_ns,
            FeatureGen => &mut t.feature_gen_ns,
            Recommend => &mut t.recommend_ns,
            Flight => &mut t.flight_ns,
            Validate => &mut t.validate_ns,
            Publish => &mut t.publish_ns,
        } = lap.ns;
        let counters = match stage {
            ViewBuild => Some((&mut cc.view_build, &mut ec.view_build)),
            Counterfactual => Some((&mut cc.counterfactual, &mut ec.counterfactual)),
            FeatureGen => Some((&mut cc.feature_gen, &mut ec.feature_gen)),
            Recommend => Some((&mut cc.recommend, &mut ec.recommend)),
            Flight => Some((&mut cc.flight, &mut ec.flight)),
            Validate | Publish => None,
        };
        if let Some((compile, exec)) = counters {
            (*compile, *exec) = (lap.compile, lap.exec);
        }
        self.feature_cache = self.feature_cache + lap.feature;
        self.delta_compile = self.delta_compile + lap.delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bill_writes_the_stage_slot_and_accumulates_the_day_totals() {
        let stats = |hits| CacheStats {
            hits,
            ..CacheStats::default()
        };
        let lap = |n: u64| Lap {
            compile: stats(n),
            exec: ExecStats {
                graphs: stats(n + 1),
                ..ExecStats::default()
            },
            feature: stats(n + 2),
            delta: DeltaStats {
                delta: n + 3,
                ..DeltaStats::default()
            },
            ns: n + 4,
        };
        let mut report = DailyReport::default();
        report.bill(Stage::Flight, lap(10));
        report.bill(Stage::Publish, lap(20));
        // Flight's slots hold exactly its lap; publish has a clock only.
        assert_eq!(report.compile_cache.flight, stats(10));
        assert_eq!(report.exec_cache.flight.graphs, stats(11));
        assert_eq!(report.compile_cache.total(), stats(10));
        assert_eq!(report.timings.flight_ns, 14);
        assert_eq!(report.timings.publish_ns, 24);
        assert_eq!(report.timings.total_ns(), 38);
        // Day totals add across laps, whichever stage they were billed to.
        assert_eq!(report.feature_cache, stats(12 + 22));
        assert_eq!(report.delta_compile.delta, 13 + 23);
    }
}
