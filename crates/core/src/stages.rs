//! The five pipeline tasks of a QO-Advisor day (paper §2.5, Figure 1) as
//! explicit stages with typed intermediates:
//!
//! ```text
//! FeatureGen → Recommend → Flight → Validate → Publish
//! ```
//!
//! The two compile-bound stages — span computation in [`feature_gen`] and
//! slate construction plus recompilation in [`recommend`] — fan out through
//! [`par_map`], this crate's one ordered parallel map (the day's view build
//! and the fleet's job generation and per-tenant reduce call it too), at the
//! width [`crate::config::ParallelismConfig`] asks for. Everything that
//! mutates shared state (the span cache, the contextual bandit, SIS) runs in
//! serial reduces over the fan-out results, **in input order**, so a day's
//! outputs are bit-identical at any thread count:
//!
//! * `feature_gen` computes missing spans in parallel, then installs them in
//!   the cache in first-seen template order;
//! * `recommend` splits the Personalizer interaction: all rank calls happen
//!   serially up front (event ids stay sequential in job order), the chosen
//!   flips recompile in parallel, and rewards apply in a serial reduce from
//!   the compiled costs. Relative to the fully interleaved loop this means
//!   the bandit acts on the previous day's model for the whole batch —
//!   matching a daily batch pipeline — while still absorbing every event.
//!   Each job's features are built once, in the parallel phase, as one
//!   shared `personalizer::RankInput`; a pending event holds that `Arc`,
//!   the chosen row and its propensity, and its reward reads the chosen row
//!   of the input's CSR slate (or, without one, re-crosses the context with
//!   the chosen action — the same bits either way).
//!
//! Every compile in these stages goes through the advisor's cached
//! [`Optimizer`], so a `(plan, configuration)` pair recompiled across
//! stages (the flight baseline repeats Feature Generation's default compile;
//! the flight treatment repeats Recommendation's flip compile) or across
//! days is a lookup, not a search — and the treatment compiles the cache
//! can never serve (fresh flips are new `(plan, config)` pairs) go through
//! [`Optimizer::price_slate`] (Recommendation, which reads only the
//! estimated cost and keeps no plan) or [`Optimizer::compile_slate`]
//! (flighting, which executes the plan and upgrades a priced entry), both
//! incremental against the plan's shared base memo (`scope_opt::delta`). Compilation is deterministic and
//! delta results are byte-identical to from-scratch compiles, so the
//! cache and the delta compiler — like the thread count — are throughput
//! knobs, never behavior knobs.

use crate::config::RecommendStrategy;
use crate::features::{job_features, reward_from_costs, SpanFeatures};
use crate::pipeline::{DailyReport, PipelineError, QoAdvisor, Recommendation};
use personalizer::{RankInput, SparseSlate};
use rustc_hash::{FxHashMap, FxHashSet};
use scope_ir::ids::{combine, Salt, CB_ACT_RANK_SALT, CB_TRAIN_RANK_SALT, UNIFORM_PICK_SALT};
use scope_ir::logical::LogicalPlan;
use scope_ir::TemplateId;
use scope_opt::{compute_span, CompileError, Hint, Optimizer, RuleFlip, SpanResult};
use scope_workload::ViewRow;
use sis::HintFile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Resolve a configured worker count: `0` means one per available core.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Map `f` over `items` on up to `workers` threads (`0` = all cores, see
/// [`resolve_workers`]) and return the results **in input order** — the one
/// parallel primitive on the steering path. `f` must be pure per item, so
/// the output is elementwise identical at any width.
///
/// Workers are scoped threads that pull the next item from the shared input
/// iterator (locked only for `next()`, never while `f` runs), so skewed
/// per-item cost balances itself and borrowed, `&mut` and owned items all
/// work. The iterator may block in `next()`, stalling only the worker that
/// asked, and is dropped before this returns, on success and on panic (the
/// crate's callers pass slices and vectors). No more workers start than
/// the iterator's `size_hint` upper bound; at one worker — or one item — `f`
/// runs inline on the caller's thread. Every worker is joined before
/// returning.
///
/// # Errors
///
/// The panic payload when `f` panicked, at any width; the surviving workers
/// still drain the remaining items first.
pub(crate) fn par_map<I, U, F>(workers: usize, items: I, f: F) -> std::thread::Result<Vec<U>>
where
    I: IntoIterator,
    I::IntoIter: Send,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    let items = items.into_iter();
    let (at_least, at_most) = items.size_hint();
    let workers = resolve_workers(workers).min(at_most.unwrap_or(usize::MAX));
    if workers <= 1 {
        // Same contract as a worker-thread panic below: the caller gets
        // `Err` and whatever `f` was mutating is as suspect as it is there.
        return catch_unwind(AssertUnwindSafe(|| items.map(&f).collect()));
    }
    #[expect(
        clippy::disallowed_types,
        reason = "the work queue: workers take items under the lock, results reassemble in input order"
    )]
    let source = std::sync::Mutex::new(items.enumerate());
    let parts: Vec<std::thread::Result<Vec<(usize, U)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    // A poisoned lock means a sibling panicked inside the
                    // iterator itself; stop, its join reports the panic.
                    while let Some((i, item)) = source.lock().ok().and_then(|mut it| it.next()) {
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut tagged = Vec::with_capacity(at_least);
    for part in parts {
        tagged.extend(part?);
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    Ok(tagged.into_iter().map(|(_, out)| out).collect())
}

/// The span-cache entry for one template: the default-configuration
/// estimated cost plus the span fixpoint, or `None` when the template does
/// not compile or has an empty span. Shared by the parallel Feature
/// Generation fan-out and [`QoAdvisor`]'s on-demand `span_for` so the gating
/// cannot diverge between the two paths.
pub(crate) fn compute_template_span(
    optimizer: &Optimizer,
    plan: &LogicalPlan,
    max_iterations: usize,
) -> Option<(SpanResult, f64)> {
    let default_cost = optimizer
        .compile(plan, &optimizer.default_config())
        .ok()?
        .est_cost;
    let span = compute_span(optimizer, plan, max_iterations).ok()?;
    if span.is_empty() {
        return None;
    }
    Some((span, default_cost))
}

/// One recurring job that cleared Feature Generation: its span plus the
/// default-configuration estimated cost.
pub struct SpannedJob<'v> {
    pub row: &'v ViewRow,
    pub span: SpanResult,
    pub default_cost: f64,
}

/// Output of Task 3 — Flighting: the flighted representatives, index-aligned
/// with their outcomes.
pub struct FlightOutput {
    pub reps: Vec<Recommendation>,
    pub outcomes: Vec<flighting::FlightOutcome>,
}

/// Task 1 — Feature Generation: select today's recurring jobs and attach
/// spans. Span computation is template-stable, so the cache is consulted
/// first and only the missing templates are compiled — in parallel, one
/// fan-out item per unique template in first-seen order.
pub(crate) fn feature_gen<'v>(
    qa: &mut QoAdvisor,
    view: &'v [ViewRow],
    report: &mut DailyReport,
) -> Result<Vec<SpannedJob<'v>>, PipelineError> {
    let mut rows: Vec<&ViewRow> = Vec::new();
    for row in view {
        if !row.recurring {
            continue;
        }
        report.recurring_jobs += 1;
        if qa.config.skip_explored && qa.explored.contains(&row.template) {
            report.skipped_explored += 1;
            continue;
        }
        rows.push(row);
    }

    // Unique templates missing from the cache, in first-seen order (the
    // order cache entries are installed in, independent of thread count).
    let mut seen: FxHashSet<TemplateId> = FxHashSet::default();
    let mut pending: Vec<(TemplateId, &LogicalPlan)> = Vec::new();
    for row in &rows {
        if !qa.span_cache.contains_key(&row.template) && seen.insert(row.template) {
            pending.push((row.template, &row.plan));
        }
    }

    let optimizer = &qa.optimizer;
    let iterations = qa.config.span_max_iterations;
    let workers = qa.config.parallelism.threads.unwrap_or(1); // unset = serial
    let computed = par_map(workers, &pending, |(_, plan)| {
        compute_template_span(optimizer, plan, iterations)
    })
    .map_err(|_| PipelineError::Invariant("feature-generation worker panicked"))?;
    for ((template, _), entry) in pending.iter().zip(computed) {
        qa.span_cache.insert(*template, entry);
    }

    let jobs: Vec<SpannedJob<'v>> = rows
        .into_iter()
        .filter_map(|row| {
            let (span, default_cost) = qa.span_cache.get(&row.template)?.clone()?;
            Some(SpannedJob {
                row,
                span,
                default_cost,
            })
        })
        .collect();
    report.jobs_with_span = jobs.len();
    Ok(jobs)
}

/// The Personalizer interactions decided for one job during the serial rank
/// pass, before any recompilation has happened.
struct JobDecisions {
    /// Off-policy training pass (contextual-bandit strategy only): event id
    /// plus the flip whose cost ratio will become the reward (`None` = the
    /// no-op action, rewarded 1.0).
    train: Option<(u64, Option<RuleFlip>)>,
    act: ActDecision,
}

/// The acting-policy decision for one job.
enum ActDecision {
    /// Keep the default configuration. The event id (bandit strategy only)
    /// is rewarded 1.0 in the reduce.
    Noop(Option<u64>),
    /// Recompile under this flip; the event id is rewarded from the
    /// resulting cost ratio.
    Flip(RuleFlip, Option<u64>),
}

/// Task 2 — Recommendation + Recompilation, in four phases:
/// parallel slate construction, serial rank pass, parallel recompile
/// fan-out, then a serial reduce applying rewards and report counters.
/// Returns the candidates that survived the estimated-cost gate, in job
/// order.
pub(crate) fn recommend(
    qa: &mut QoAdvisor,
    jobs: &[SpannedJob<'_>],
    day: u32,
    report: &mut DailyReport,
) -> Result<Vec<Recommendation>, PipelineError> {
    let default_config = qa.optimizer.default_config();

    // Phase 1: context + action slates are pure per-job features — fan out.
    // The template-stable half — the span block and the action slate —
    // comes from one span-feature cache lookup when enabled (bit-identical
    // to rebuilding it; see `crate::features`), so a job builds only its
    // Table-1 block. Under the batched scorer the (context × action) CSR
    // slate is folded here too (or found in the slate cache, keyed by the
    // job block plus the span features' fingerprint), so the serial rank
    // pass below only gathers weights. A slate folds only the job block's
    // crosses; its rows end with the span features' shared tail. Each job's
    // features become one shared `RankInput` holding its job block and the
    // template's span block (one `Arc`, never copied per job): both of its
    // ranks, and the pending events they log, hold that `Arc` instead of
    // copies.
    let optimizer = &qa.optimizer;
    let config = &qa.config;
    let feature_cache = qa.feature_cache.as_ref();
    let workers = config.parallelism.threads.unwrap_or(1); // unset = serial
    let batch = config.strategy == RecommendStrategy::ContextualBandit && config.cb.batch_rank;
    let inputs: Vec<(Arc<RankInput>, Arc<SpanFeatures>)> = par_map(workers, jobs, |job| {
        let (rules, triples) = (optimizer.rules(), config.max_span_for_triples);
        let features = match (config.span_features, feature_cache) {
            (true, Some(cache)) => {
                cache.span_features_for(job.row.template, &job.span, rules, triples)
            }
            (true, None) => Arc::new(SpanFeatures::build(&job.span, rules, triples)),
            (false, _) => Arc::new(SpanFeatures::actions_only(&job.span, rules)),
        };
        let context = job_features(&job.row.features);
        let dim_bits = config.cb.dim_bits;
        let sparse = batch.then(|| match feature_cache {
            Some(cache) => cache.slate_for(job.row.template, &context, &features, dim_bits),
            None => Arc::new(features.slate(&context, dim_bits)),
        });
        let input = RankInput {
            job: context,
            shared: Arc::clone(&features.block),
            actions: Arc::clone(&features.actions),
            sparse,
        };
        (Arc::new(input), features)
    })
    .map_err(|_| PipelineError::Invariant("slate-construction worker panicked"))?;

    // Phase 2: serial rank pass, job order. Every rank call happens before
    // any reward, so event ids are sequential regardless of thread count
    // and the whole batch acts on the model as of yesterday.
    // That ordering also makes the model constant across the whole pass
    // (rewards apply in phase 4), so each job is *scored* once for both of
    // its ranks, and each distinct CSR slate once for every job sharing it
    // (a cached slate). Keying the memo by slate address is sound because
    // the memo holds the `Arc`: a key's allocation stays live for the whole
    // pass, so no later slate can alias it. The ranks borrow the scores;
    // decisions stay bit-identical to the sequential per-action path.
    let mut score_memo: FxHashMap<usize, (Arc<SparseSlate>, Vec<f64>)> = FxHashMap::default();
    let mut decisions: Vec<JobDecisions> = Vec::with_capacity(jobs.len());
    for (job, (input, features)) in jobs.iter().zip(&inputs) {
        let flips = &features.flips;
        let decision = match qa.config.strategy {
            RecommendStrategy::ContextualBandit => {
                let personalizer = &qa.personalizer;
                let unshared;
                let scores: &[f64] = match &input.sparse {
                    Some(slate) => {
                        &score_memo
                            .entry(Arc::as_ptr(slate) as usize)
                            .or_insert_with(|| (Arc::clone(slate), personalizer.scores(input)))
                            .1
                    }
                    None => {
                        unshared = personalizer.scores(input);
                        &unshared
                    }
                };
                let seed = |salt: Salt| combine(job.row.job_id.0, salt.mix(u64::from(day)));
                let train = personalizer.rank_shared(input, scores, seed(CB_TRAIN_RANK_SALT), true);
                let act = personalizer.rank_shared(input, scores, seed(CB_ACT_RANK_SALT), false);
                JobDecisions {
                    train: Some((train.event_id, flips[train.decision.chosen])),
                    act: match flips[act.decision.chosen] {
                        None => ActDecision::Noop(Some(act.event_id)),
                        Some(flip) => ActDecision::Flip(flip, Some(act.event_id)),
                    },
                }
            }
            RecommendStrategy::UniformRandom => {
                // Uniform baseline always flips a span rule (Table 3).
                let idx = 1
                    + (combine(job.row.job_id.0, UNIFORM_PICK_SALT.mix(u64::from(day))) as usize
                        % job.span.len());
                JobDecisions {
                    train: None,
                    act: match flips[idx] {
                        None => ActDecision::Noop(None),
                        Some(flip) => ActDecision::Flip(flip, None),
                    },
                }
            }
        };
        decisions.push(decision);
    }

    // Phase 3: recompile fan-out, one *slate* per job — its 0-2 distinct
    // treatment configurations (the training flip, then the acting flip if
    // it differs) priced together against the default base configuration,
    // so `Optimizer::price_slate` can reuse the plan's base memo across
    // them (and, through the shared `DeltaCompiler`, across jobs, stages,
    // and days). Only the estimated cost is read, so no treatment's plan is
    // extracted or kept. When both passes chose the same flip the compile
    // is shared (compilation is deterministic, so this is observationally
    // identical to compiling twice); an empty slate compiles nothing.
    let treatments: Vec<Vec<_>> = decisions
        .iter()
        .map(|decision| {
            let train = decision.train.and_then(|(_, flip)| flip);
            let act = match decision.act {
                ActDecision::Flip(flip, _) if Some(flip) != train => Some(flip),
                _ => None,
            };
            let flips = train.into_iter().chain(act);
            flips.map(|flip| default_config.with_flip(flip)).collect()
        })
        .collect();
    let slates = jobs.iter().zip(&treatments);
    let costs: Vec<Vec<Result<f64, CompileError>>> = par_map(workers, slates, |(job, slate)| {
        optimizer.price_slate(&job.row.plan, &default_config, slate)
    })
    .map_err(|_| PipelineError::Invariant("recompile worker panicked"))?;
    // A decision's cost sits at its treatment's position in its own job's
    // slate.
    let cost_of = |job: usize, flip: RuleFlip| {
        let treatment = default_config.with_flip(flip);
        let at = treatments[job].iter().position(|t| *t == treatment)?;
        costs[job].get(at)
    };

    // Phase 4: serial reduce, job order — bandit rewards, Table-3 counters,
    // and the estimated-cost gate (§5.6). A reward updates the model from
    // the chosen row of the event's CSR slate when phase 1 built one, else
    // from the re-crossed joint vector; both are the same update, bit for
    // bit, so `batch_rank` stays a throughput knob.
    let mut candidates: Vec<Recommendation> = Vec::new();
    for (i, (job, decision)) in jobs.iter().zip(&decisions).enumerate() {
        let default_cost = job.default_cost;
        if let Some((event, flip)) = decision.train {
            let reward = match flip {
                None => 1.0, // no-op: cost ratio is exactly 1
                Some(flip) => {
                    let cost = cost_of(i, flip).and_then(|cost| cost.as_ref().ok().copied());
                    reward_from_costs(default_cost, cost, qa.config.reward_clip)
                }
            };
            qa.personalizer.reward(event, reward);
        }
        match decision.act {
            ActDecision::Noop(event) => {
                if let Some(event) = event {
                    qa.personalizer.reward(event, 1.0);
                }
                report.noop_chosen += 1;
                report.total_default_cost += default_cost;
                report.total_chosen_cost += default_cost;
            }
            ActDecision::Flip(flip, event) => {
                report.total_default_cost += default_cost;
                // A `Flip` decision's treatment is always in its job's slate;
                // a miss is a scheduling bug.
                let Some(outcome) = cost_of(i, flip) else {
                    return Err(PipelineError::Invariant(
                        "flip decision without a recompiled treatment",
                    ));
                };
                match outcome {
                    Ok(new_cost) => {
                        let new_cost = *new_cost;
                        report.total_chosen_cost += new_cost;
                        if let Some(event) = event {
                            qa.personalizer.reward(
                                event,
                                reward_from_costs(
                                    default_cost,
                                    Some(new_cost),
                                    qa.config.reward_clip,
                                ),
                            );
                        }
                        let rel = (new_cost - default_cost) / default_cost.max(1e-12);
                        // Table-3 classification: deltas within 0.3% count
                        // as "equal" (SCOPE cost units are coarse at plan
                        // scale).
                        if rel < -0.003 {
                            report.lower_cost += 1;
                        } else if rel > 0.003 {
                            report.higher_cost += 1;
                        } else {
                            report.equal_cost += 1;
                        }
                        // Short-circuit when the estimate did not improve
                        // (§5.6).
                        if qa.config.est_cost_gate && rel >= -1e-9 {
                            continue;
                        }
                        candidates.push(Recommendation {
                            template: job.row.template,
                            job_id: job.row.job_id,
                            job_seed: job.row.job_seed,
                            plan: job.row.plan.clone(),
                            flip,
                            default_cost,
                            new_cost,
                        });
                    }
                    Err(_) => {
                        report.recompile_failures += 1;
                        report.total_chosen_cost += default_cost;
                        if let Some(event) = event {
                            qa.personalizer.reward(event, 0.0);
                        }
                    }
                }
            }
        }
    }
    Ok(candidates)
}

/// Task 3 — Flighting: one representative job per template (picked
/// deterministically), most-promising estimated-cost deltas first (§4.3),
/// A/B-tested in pre-production under the flighting budget.
pub(crate) fn flight(
    qa: &mut QoAdvisor,
    candidates: Vec<Recommendation>,
    report: &mut DailyReport,
) -> FlightOutput {
    let mut by_template: FxHashMap<TemplateId, Recommendation> = FxHashMap::default();
    for cand in candidates {
        by_template.entry(cand.template).or_insert(cand);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "collected then totally ordered by the (cost_delta, template) sort immediately below"
    )]
    let mut reps: Vec<Recommendation> = by_template.into_values().collect();
    reps.sort_by(|a, b| {
        a.cost_delta()
            .total_cmp(&b.cost_delta())
            .then(a.template.cmp(&b.template))
    });
    reps.truncate(qa.config.max_flights_per_day);
    let default_config = qa.optimizer.default_config();
    let requests: Vec<flighting::FlightRequest> = reps
        .iter()
        .map(|r| flighting::FlightRequest {
            template: r.template,
            plan: r.plan.clone(),
            job_seed: r.job_seed,
            baseline: default_config,
            treatment: default_config.with_flip(r.flip),
        })
        .collect();
    let (outcomes, tracker) = qa
        .flighting
        .flight_batch(&qa.optimizer, &qa.preprod_exec, &requests);
    report.flighted = requests.len();
    report.flight_seconds_used = tracker.used_seconds;
    for r in &reps {
        qa.explored.insert(r.template);
    }
    FlightOutput { reps, outcomes }
}

/// Task 4 — Validation: accept a flight only when the (modeled) PNhours
/// delta clears the safety threshold. Returns the accepted hints.
pub(crate) fn validate(
    qa: &QoAdvisor,
    input: &FlightOutput,
    report: &mut DailyReport,
) -> Vec<Hint> {
    let mut accepted: Vec<Hint> = Vec::new();
    for (rec, outcome) in input.reps.iter().zip(input.outcomes.iter()) {
        match outcome {
            flighting::FlightOutcome::Success(m) => {
                report.flight_success += 1;
                let ok = match &qa.validation {
                    Some(model) => model.accepts(
                        m.data_read_delta(),
                        m.data_written_delta(),
                        qa.config.validation_threshold,
                    ),
                    // Without a trained model, fall back to the raw (noisy)
                    // single-flight measurement.
                    None => m.pn_delta() < qa.config.validation_threshold,
                };
                if ok {
                    report.validated += 1;
                    accepted.push(Hint {
                        template: rec.template,
                        flip: rec.flip,
                    });
                }
            }
            flighting::FlightOutcome::Timeout => report.flight_timeout += 1,
            flighting::FlightOutcome::Failure(_) => report.flight_failure += 1,
            flighting::FlightOutcome::Filtered => report.flight_filtered += 1,
        }
    }
    accepted
}

/// Task 5 — Hint Generation: merge today's accepted hints with the live
/// set and publish a new SIS version.
pub(crate) fn publish(
    qa: &mut QoAdvisor,
    accepted: Vec<Hint>,
    day: u32,
    report: &mut DailyReport,
) -> Result<(), PipelineError> {
    let mut merged = qa.sis.snapshot();
    for h in &accepted {
        merged.insert(*h);
    }
    report.hints_published = accepted.len();
    if !accepted.is_empty() {
        let version = qa.sis.version() + 1;
        qa.sis.publish(HintFile {
            version,
            source_day: day,
            hints: merged.hints(),
        })?;
    }
    report.sis_version = qa.sis.version();
    Ok(())
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "probes of par_map itself: channel ends shared with workers sit behind a lock, the drop flag is atomic"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    /// One `par_map` call over `len` `(&mut visit counter, owned label)`
    /// pairs. Once two workers are live, the first item blocks until the
    /// last one has finished, so completion order is forced to differ from
    /// input order (and the call would time out if the input lock were held
    /// while `f` runs).
    fn map_under_skew(workers: usize, len: usize) {
        let labels: Vec<String> = (0..len).map(|i| format!("item-{i}")).collect();
        let mut visits = vec![0u32; len];
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let skewed = workers.min(len) > 1;
        let items = visits.iter_mut().zip(labels.clone()).enumerate();
        let out = par_map(workers, items, |(i, (visit, label))| {
            *visit += 1;
            if skewed && i == 0 {
                let last_done = rx.lock().unwrap().recv_timeout(Duration::from_secs(30));
                assert!(last_done.is_ok(), "later items never ran beside item 0");
            }
            if skewed && i == len - 1 {
                tx.send(()).unwrap();
            }
            label
        });
        assert_eq!(out.ok(), Some(labels), "workers={workers} len={len}");
        assert!(
            visits.iter().all(|&v| v == 1),
            "workers={workers} len={len}"
        );
    }

    #[test]
    fn par_map_keeps_input_order_and_visits_each_item_once() {
        for workers in [1, 2, 8] {
            for len in [0, 1, workers - 1, 100] {
                map_under_skew(workers, len);
            }
        }
    }

    /// A receiver's iterator that records its own drop.
    struct Source<'a>(mpsc::IntoIter<u32>, &'a AtomicBool);

    impl Iterator for Source<'_> {
        type Item = u32;
        fn next(&mut self) -> Option<u32> {
            self.0.next()
        }
    }

    impl Drop for Source<'_> {
        fn drop(&mut self) {
            self.1.store(true, Ordering::SeqCst);
        }
    }

    /// A blocking source: the input is a channel's receiver, fed one item at
    /// a time by a thread that waits for each result before sending the
    /// next — so workers block in `next()` while the source is still
    /// yielding, and the source must be gone when `par_map` returns.
    #[test]
    fn par_map_maps_a_source_that_yields_while_workers_wait() {
        for workers in [1, 2, 8] {
            let (tx, rx) = mpsc::sync_channel::<u32>(1);
            let (seen_tx, seen_rx) = mpsc::channel::<u32>();
            let seen_tx = Mutex::new(seen_tx);
            let dropped = AtomicBool::new(false);
            let out = std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..50 {
                        tx.send(i).expect("the map is still pulling");
                        let seen = seen_rx.recv_timeout(Duration::from_secs(30));
                        assert_eq!(seen, Ok(i), "item {i} is mapped before the next is sent");
                    }
                }); // `tx` drops with the feeder: end of input
                let out = par_map(workers, Source(rx.into_iter(), &dropped), |i| {
                    seen_tx.lock().unwrap().send(i).unwrap();
                    i * 2
                });
                assert!(dropped.load(Ordering::SeqCst), "workers={workers}");
                out
            });
            // Order kept, each item exactly once.
            let doubled: Vec<u32> = (0..50).map(|i| i * 2).collect();
            assert_eq!(out.ok(), Some(doubled), "workers={workers}");
        }
    }

    #[test]
    fn par_map_turns_a_panicking_item_into_an_error() {
        for workers in [1, 2, 8] {
            let out = par_map(workers, 0..10u32, |i| {
                assert_ne!(i, 3, "planted panic");
                i
            });
            assert!(out.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn zero_workers_means_all_cores() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(par_map(0, [1, 2, 3], |x| x * 2).ok(), Some(vec![2, 4, 6]));
    }
}
