//! The Personalizer facade: a rank/reward service with a durable pending-
//! event log, mirroring how QO-Advisor integrates with Azure Personalizer
//! (§4.2): rank calls return an event id; rewards arrive later (after
//! recompilation computes the cost ratio) keyed by that id.
//!
//! A pending event remembers *what* was ranked, not a copy of it: an
//! `Arc` of the [`RankInput`] plus the chosen row and its propensity. When
//! the input carries a prebuilt [`SparseSlate`], the reward updates the
//! model straight from the chosen CSR row
//! ([`ContextualBandit::reward_row`]); otherwise it re-crosses the context
//! with the chosen action ([`ContextualBandit::reward`]). Both walk the
//! same items in the same order, so the weights are bit-identical either
//! way — and a snapshot, which stores `(context, action)` pairs, restores
//! into events that reward through the joint path. The input keeps its
//! context in two parts, the job's own items and a template-shared block
//! behind an `Arc`; the joint context is assembled only where it is read
//! whole ([`RankInput::context`]).

use crate::bandit::{CbConfig, ContextualBandit, RankDecision};
use crate::features::FeatureVector;
use crate::model::LinearModel;
use crate::slate::SparseSlate;
use rustc_hash::FxHashMap;
use std::borrow::Cow;
use std::sync::{Arc, MutexGuard, PoisonError};

/// A rank request: context plus candidate actions.
#[derive(Debug, Clone)]
pub struct RankRequest {
    pub context: FeatureVector,
    pub actions: Vec<FeatureVector>,
    /// Deterministic exploration seed (e.g. hash of job id).
    pub seed: u64,
    /// Use the uniform logging policy instead of the learned policy.
    pub log_uniform: bool,
}

/// One job's features, built once and shared — behind an `Arc` — by every
/// rank over them ([`Personalizer::rank_shared`]) and by the pending events
/// those ranks log, so neither ranking nor logging copies a feature vector.
#[derive(Debug, Clone)]
pub struct RankInput {
    /// The job's own context items: the context is `job ⧺ shared`.
    pub job: FeatureVector,
    /// The context's template-stable rest (the pipeline's span block), one
    /// `Arc` for every job of the template.
    pub shared: Arc<FeatureVector>,
    /// The candidate actions. An `Arc` so a template-stable action slate can
    /// be shared by every job of the template.
    pub actions: Arc<Vec<FeatureVector>>,
    /// The `(context, actions)` slate folded into CSR form for this
    /// service's table ([`SparseSlate::build`]), when the caller batches:
    /// ranks then score it, and rewards read the chosen row.
    pub sparse: Option<Arc<SparseSlate>>,
}

impl RankInput {
    /// The joint context `job ⧺ shared`, assembled for the readers that
    /// need it whole: the unbatched scorer and reward, and the snapshot of
    /// a pending event. Borrowed when there is no shared part.
    #[must_use]
    pub fn context(&self) -> Cow<'_, FeatureVector> {
        if self.shared.is_empty() {
            return Cow::Borrowed(&self.job);
        }
        let mut items = Vec::with_capacity(self.job.len() + self.shared.len());
        items.extend_from_slice(self.job.items());
        items.extend_from_slice(self.shared.items());
        Cow::Owned(FeatureVector::from_items(items))
    }
}

/// A rank response: the decision plus the event id to reward later.
#[derive(Debug, Clone)]
pub struct RankResponse {
    pub event_id: u64,
    pub decision: RankDecision,
}

/// A logged, not yet rewarded decision: action `chosen` of `input`.
#[derive(Debug)]
struct PendingEvent {
    input: Arc<RankInput>,
    chosen: usize,
    probability: f64,
}

impl PendingEvent {
    /// An event that keeps only the context and the chosen action, and so
    /// rewards through the joint path: what the request-taking rank calls
    /// and a snapshot restore log.
    fn features_only(context: FeatureVector, action: FeatureVector, probability: f64) -> Self {
        Self {
            input: Arc::new(RankInput {
                job: context,
                shared: Arc::default(),
                actions: Arc::new(vec![action]),
                sparse: None,
            }),
            chosen: 0,
            probability,
        }
    }
}

/// One not-yet-rewarded rank decision, in snapshot form.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingEventState {
    pub event_id: u64,
    pub context: FeatureVector,
    pub action: FeatureVector,
    pub probability: f64,
}

/// The full durable state of a [`Personalizer`], as exported for (and
/// restored from) a `scope-state` snapshot. Everything the rank/reward
/// loop's future behavior depends on is here: the model weight table and
/// its counters, the event-id allocator, and the pending decisions — sized
/// by what the bandit learned, not by the table or by how long it has run.
/// `pending` is sorted by event id so the export itself is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizerState {
    pub dim_bits: u32,
    /// The `2^dim_bits` weight table in its canonical sparse form
    /// ([`LinearModel::sparse_weights`]): every slot whose bit pattern is
    /// not `+0.0`, ascending by slot.
    pub weights: Vec<(u32, f64)>,
    /// Model updates absorbed ([`crate::model::LinearModel::updates`]).
    pub updates: u64,
    /// Rewarded events absorbed ([`ContextualBandit::events`]).
    pub events: u64,
    /// Next event id the allocator will hand out.
    pub next_event: u64,
    pub pending: Vec<PendingEventState>,
}

/// The decision service. Interior mutability lets rank/reward interleave
/// from pipeline stages without plumbing `&mut` through.
#[derive(Debug)]
pub struct Personalizer {
    #[expect(
        clippy::disallowed_types,
        reason = "rank and reward run in job order on the serial pass; the lock only spares callers `&mut`"
    )]
    inner: std::sync::Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    bandit: ContextualBandit,
    pending: FxHashMap<u64, PendingEvent>,
    next_event: u64,
}

impl Inner {
    /// Decide over `scores` under the given policy, assign the next event
    /// id and log `event(chosen, propensity)` as pending — the shared tail
    /// of every rank entry point.
    fn log_decision(
        &mut self,
        scores: Vec<f64>,
        seed: u64,
        log_uniform: bool,
        event: impl FnOnce(usize, f64) -> PendingEvent,
    ) -> RankResponse {
        let decision = self.bandit.decide(scores, seed, log_uniform);
        let event_id = self.next_event;
        self.next_event += 1;
        self.pending
            .insert(event_id, event(decision.chosen, decision.probability));
        RankResponse { event_id, decision }
    }

    /// Log a request-taking rank's decision: the chosen action and the
    /// context are copied out of the borrowed request.
    fn log_request(&mut self, req: &RankRequest, scores: Vec<f64>) -> RankResponse {
        self.log_decision(scores, req.seed, req.log_uniform, |chosen, p| {
            PendingEvent::features_only(req.context.clone(), req.actions[chosen].clone(), p)
        })
    }

    /// The live state a snapshot export describes, under `config`.
    fn from_state(config: CbConfig, state: &PersonalizerState) -> Result<Inner, String> {
        if config.dim_bits != state.dim_bits {
            return Err(format!(
                "snapshot bandit table uses dim_bits {} but this process is configured with {}",
                state.dim_bits, config.dim_bits
            ));
        }
        let model = LinearModel::from_sparse(state.dim_bits, &state.weights, state.updates)?;
        let mut pending = FxHashMap::default();
        for p in &state.pending {
            let event =
                PendingEvent::features_only(p.context.clone(), p.action.clone(), p.probability);
            if pending.insert(p.event_id, event).is_some() {
                return Err(format!("duplicate pending event id {}", p.event_id));
            }
        }
        Ok(Inner {
            bandit: ContextualBandit::from_parts(config, model, state.events),
            pending,
            next_event: state.next_event,
        })
    }
}

impl Personalizer {
    #[must_use]
    pub fn new(config: CbConfig) -> Self {
        Self {
            inner: Inner {
                bandit: ContextualBandit::new(config),
                pending: FxHashMap::default(),
                next_event: 1,
            }
            .into(),
        }
    }

    /// The service state, recovered if another caller panicked holding it:
    /// one failed rank or reward must not take every later call down too.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rank a slate; the decision is logged as pending until rewarded.
    pub fn rank(&self, req: &RankRequest) -> RankResponse {
        let mut inner = self.lock();
        let scores = inner.bandit.scores(&req.context, &req.actions);
        inner.log_request(req, scores)
    }

    /// [`Personalizer::rank`] through a prebuilt [`SparseSlate`] of the
    /// request's `context`/`actions`. The decision — choice, propensity,
    /// scores, event id — is bit-identical to `rank`'s; only the scoring
    /// path differs. The pending event copies the context and the chosen
    /// action out of the request and rewards through the joint path; a
    /// caller that keeps its slate should rank with
    /// [`Personalizer::rank_shared`] instead.
    pub fn rank_slate(&self, req: &RankRequest, slate: &SparseSlate) -> RankResponse {
        debug_assert_eq!(
            slate.num_actions(),
            req.actions.len(),
            "slate laid out for a different action set"
        );
        let mut inner = self.lock();
        let scores = inner.bandit.scores_slate(slate);
        inner.log_request(req, scores)
    }

    /// Score every action of `input` under the current model, without
    /// ranking or logging anything: through its CSR slate when it has one,
    /// else per action over the joint vectors (bit-identical either way).
    /// Pair with [`Personalizer::rank_shared`]: the model only changes on
    /// [`Personalizer::reward`], so in a ranks-then-rewards pass one score
    /// vector serves every rank over the same input — or the same slate.
    pub fn scores(&self, input: &RankInput) -> Vec<f64> {
        let inner = self.lock();
        match &input.sparse {
            Some(slate) => inner.bandit.scores_slate(slate),
            None => inner.bandit.scores(&input.context(), &input.actions),
        }
    }

    /// Rank a shared [`RankInput`] from `scores` previously computed by
    /// [`Personalizer::scores`], under the policy `log_uniform` selects and
    /// the exploration `seed`. The pending event holds the `Arc` and the
    /// chosen row — no feature vector is copied — and its reward reads the
    /// CSR row when `input` has a slate. Bit-identical to
    /// [`Personalizer::rank_slate`] (and [`Personalizer::rank`]) over the
    /// same features as long as no reward landed between scoring and
    /// ranking — the caller's contract (the pipeline's rank pass rewards
    /// only after every rank).
    pub fn rank_shared(
        &self,
        input: &Arc<RankInput>,
        scores: &[f64],
        seed: u64,
        log_uniform: bool,
    ) -> RankResponse {
        debug_assert_eq!(
            scores.len(),
            input.actions.len(),
            "scores computed for a different action set"
        );
        self.lock()
            .log_decision(scores.to_vec(), seed, log_uniform, |chosen, probability| {
                PendingEvent {
                    input: Arc::clone(input),
                    chosen,
                    probability,
                }
            })
    }

    /// Reward a previously ranked event; updates the model off-policy and
    /// forgets the event. Unknown ids are ignored (Azure Personalizer drops
    /// late rewards the same way).
    pub fn reward(&self, event_id: u64, reward: f64) {
        let mut inner = self.lock();
        let Some(ev) = inner.pending.remove(&event_id) else {
            return;
        };
        let input = &*ev.input;
        match &input.sparse {
            Some(slate) => inner
                .bandit
                .reward_row(slate, ev.chosen, reward, ev.probability),
            None => inner.bandit.reward(
                &input.context(),
                &input.actions[ev.chosen],
                reward,
                ev.probability,
            ),
        }
    }

    /// Greedy decision without logging (deployment-time inference).
    pub fn best_action(&self, context: &FeatureVector, actions: &[FeatureVector]) -> RankDecision {
        self.lock().bandit.rank_greedy(context, actions)
    }

    /// Events absorbed so far.
    pub fn events(&self) -> u64 {
        self.lock().bandit.events
    }

    /// Number of rank calls not yet rewarded.
    pub fn pending(&self) -> usize {
        self.lock().pending.len()
    }

    /// Export the full durable state for a snapshot. Deterministic: the
    /// pending map is sorted by event id before leaving the lock, and the
    /// weight table leaves as one scan into its sparse form. A pending
    /// event leaves as its context and chosen action, whatever it shares.
    #[must_use]
    pub fn export_state(&self) -> PersonalizerState {
        let inner = self.lock();
        let model = inner.bandit.model();
        #[expect(
            clippy::disallowed_methods,
            reason = "collected and sorted by event id below"
        )]
        let mut pending: Vec<PendingEventState> = inner
            .pending
            .iter()
            .map(|(&event_id, ev)| PendingEventState {
                event_id,
                context: ev.input.context().into_owned(),
                action: ev.input.actions[ev.chosen].clone(),
                probability: ev.probability,
            })
            .collect();
        pending.sort_by_key(|p| p.event_id);
        PersonalizerState {
            dim_bits: model.dim_bits(),
            weights: model.sparse_weights(),
            updates: model.updates,
            events: inner.bandit.events,
            next_event: inner.next_event,
            pending,
        }
    }

    /// A service resuming from a snapshot export: [`Personalizer::new`] +
    /// [`Personalizer::restore_state`] in one step, so the weight table is
    /// allocated once. Same checks and errors as `restore_state`.
    pub fn from_state(config: CbConfig, state: &PersonalizerState) -> Result<Self, String> {
        Ok(Self {
            inner: Inner::from_state(config, state)?.into(),
        })
    }

    /// Replace the live state with a snapshot export. The bandit keeps its
    /// construction-time [`CbConfig`]; the snapshot must have been taken
    /// under the same hashed-table size, and a malformed weight list is an
    /// error (restore never panics and never partially applies). Only
    /// `dim_bits` is checked *here* — it is the one knob that makes the
    /// state structurally uninterpretable. The remaining `CbConfig` fields
    /// (epsilon, learning rate, …) are covered by the pipeline-config
    /// fingerprint in the snapshot's META section, checked before this
    /// method is ever reached on the steering-loop restore path.
    pub fn restore_state(&self, state: PersonalizerState) -> Result<(), String> {
        let mut inner = self.lock();
        *inner = Inner::from_state(inner.bandit.config().clone(), &state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(name: &str) -> FeatureVector {
        let mut f = FeatureVector::new();
        f.flag("t", name);
        f
    }

    fn request(seed: u64, uniform: bool) -> RankRequest {
        RankRequest {
            context: fv("ctx"),
            actions: vec![fv("a0"), fv("a1"), fv("a2")],
            seed,
            log_uniform: uniform,
        }
    }

    #[test]
    fn rank_then_reward_consumes_pending() {
        let svc = Personalizer::new(CbConfig::default());
        let resp = svc.rank(&request(1, true));
        assert_eq!(svc.pending(), 1);
        svc.reward(resp.event_id, 1.0);
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.events(), 1);
    }

    #[test]
    fn unknown_event_ids_are_ignored() {
        let svc = Personalizer::new(CbConfig::default());
        svc.reward(999, 1.0);
        assert_eq!(svc.events(), 0);
    }

    #[test]
    fn event_ids_are_unique_and_monotonic() {
        let svc = Personalizer::new(CbConfig::default());
        let a = svc.rank(&request(1, true));
        let b = svc.rank(&request(2, true));
        assert!(b.event_id > a.event_id);
    }

    #[test]
    fn service_learns_through_rank_reward_loop() {
        let svc = Personalizer::new(CbConfig {
            epsilon: 0.3,
            learning_rate: 0.3,
            dim_bits: 16,
            max_importance: 20.0,
            batch_rank: true,
        });
        // Action 2 always pays.
        for seed in 0..600 {
            let resp = svc.rank(&request(seed, true));
            let r = if resp.decision.chosen == 2 { 1.0 } else { 0.0 };
            svc.reward(resp.event_id, r);
        }
        let best = svc.best_action(&fv("ctx"), &[fv("a0"), fv("a1"), fv("a2")]);
        assert_eq!(best.chosen, 2);
        assert!((best.probability - 1.0).abs() < 1e-12);
    }

    /// `request`'s features as one shared input, with its CSR slate.
    fn shared(req: &RankRequest, dim_bits: u32) -> Arc<RankInput> {
        Arc::new(RankInput {
            job: req.context.clone(),
            shared: Arc::default(),
            actions: Arc::new(req.actions.clone()),
            sparse: Some(Arc::new(SparseSlate::build(
                &req.context,
                &req.actions,
                dim_bits,
            ))),
        })
    }

    #[test]
    fn scored_path_matches_rank_slate_bit_for_bit() {
        let a = Personalizer::new(CbConfig::default());
        let b = Personalizer::new(CbConfig::default());
        for seed in 0..32 {
            let req = request(seed, false);
            let input = shared(&req, 20);
            let slate = input.sparse.as_deref().unwrap();
            // One score vector serves both ranks of a job; rewards land
            // only after both, as in the pipeline's rank pass.
            let scores = b.scores(&input);
            let mut events = Vec::new();
            for uniform in [false, true] {
                let req = request(seed, uniform);
                let want = a.rank_slate(&req, slate);
                let got = b.rank_shared(&input, &scores, req.seed, req.log_uniform);
                assert_eq!(got.event_id, want.event_id);
                assert_eq!(got.decision, want.decision);
                events.push((got.event_id, got.decision.chosen as f64 - 1.0));
            }
            // Reward some events, so later scores come from a trained
            // model: the row and joint rewards must keep it in step.
            if seed % 2 == 0 {
                for (event, r) in events {
                    a.reward(event, r);
                    b.reward(event, r);
                }
            }
        }
        assert_eq!(a.pending(), b.pending());
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn slate_backed_pending_events_survive_a_snapshot_unchanged() {
        let config = CbConfig::default();
        // Two services trained alike, then one rank each: over the shared
        // slate, and over the request's feature vectors.
        let slated = Personalizer::new(config.clone());
        let plain = Personalizer::new(config.clone());
        for seed in 0..8 {
            let req = request(seed, true);
            let (a, b) = (slated.rank(&req), plain.rank(&req));
            slated.reward(a.event_id, 0.5);
            plain.reward(b.event_id, 0.5);
        }
        let req = request(99, false);
        let input = shared(&req, config.dim_bits);
        let scores = slated.scores(&input);
        let a = slated.rank_shared(&input, &scores, req.seed, req.log_uniform);
        let b = plain.rank(&req);
        assert_eq!(a.decision, b.decision);
        let state = slated.export_state();
        assert_eq!(state.pending.len(), 1);
        assert_eq!(
            state,
            plain.export_state(),
            "a slate-backed event exports what the feature-vector path logged"
        );

        // The restoree rewards through the joint path, the original through
        // the CSR row: the weights must still agree bit for bit.
        let restored = Personalizer::from_state(config, &state).unwrap();
        slated.reward(a.event_id, 1.75);
        restored.reward(a.event_id, 1.75);
        let (x, y) = (slated.export_state(), restored.export_state());
        let bits = |s: &PersonalizerState| -> Vec<(u32, u64)> {
            s.weights.iter().map(|&(k, w)| (k, w.to_bits())).collect()
        };
        assert_eq!(bits(&x), bits(&y));
        assert_eq!(x, y);
    }

    #[test]
    fn exported_state_restores_into_an_identical_service() {
        let svc = Personalizer::new(CbConfig::default());
        for seed in 0..40 {
            let resp = svc.rank(&request(seed, seed % 2 == 0));
            if seed % 3 != 0 {
                // Leave some events pending so the export carries them.
                svc.reward(
                    resp.event_id,
                    if resp.decision.chosen == 1 { 1.0 } else { -0.5 },
                );
            }
        }
        let state = svc.export_state();
        assert!(!state.pending.is_empty(), "some events must stay pending");
        assert!(state.events > 0);

        let fresh = Personalizer::new(CbConfig::default());
        fresh.restore_state(state.clone()).unwrap();
        assert_eq!(
            fresh.export_state(),
            state,
            "export/restore/export fixpoint"
        );
        // Future decisions are bit-identical between original and restoree.
        for seed in 100..120 {
            let a = svc.rank(&request(seed, false));
            let b = fresh.rank(&request(seed, false));
            assert_eq!(a.event_id, b.event_id);
            assert_eq!(a.decision, b.decision);
            svc.reward(a.event_id, 0.25);
            fresh.reward(b.event_id, 0.25);
        }
        assert_eq!(svc.export_state(), fresh.export_state());
    }

    /// One feature, one action, propensity 1 and learning rate 1: each
    /// reward moves the feature's slot to exactly that reward.
    fn set_slot(svc: &Personalizer, slot: u64, reward: f64) {
        let resp = svc.rank(&RankRequest {
            context: FeatureVector::new(),
            actions: vec![FeatureVector::from_items(vec![(slot, 1.0)])],
            seed: 0,
            log_uniform: true,
        });
        svc.reward(resp.event_id, reward);
    }

    #[test]
    fn sparse_export_is_canonical_and_a_restore_fixpoint() {
        let config = CbConfig {
            learning_rate: 1.0,
            dim_bits: 12,
            ..CbConfig::default()
        };
        let svc = Personalizer::new(config.clone());
        set_slot(&svc, 5, 0.75);
        set_slot(&svc, 9, 1.0);
        set_slot(&svc, 9, 0.0); // written, then back to +0.0: no entry
        let mut state = svc.export_state();
        assert_eq!(state.weights, vec![(5, 0.75)]);

        // An explicit -0.0 is not +0.0: its entry stays, bit for bit.
        state.weights.push((77, -0.0));
        svc.restore_state(state.clone()).unwrap();
        let exported = svc.export_state();
        assert_eq!(exported, state, "export/restore/export fixpoint");
        assert_eq!(exported.weights[1].1.to_bits(), (-0.0f64).to_bits());
        let fresh = Personalizer::from_state(config, &exported).unwrap();
        assert_eq!(fresh.export_state(), exported);

        // Future decisions are bit-identical between original and restoree.
        for seed in 0..20 {
            let a = svc.rank(&request(seed, false));
            let b = fresh.rank(&request(seed, false));
            assert_eq!(a.event_id, b.event_id);
            assert_eq!(a.decision, b.decision);
            svc.reward(a.event_id, 0.25);
            fresh.reward(b.event_id, 0.25);
        }
        assert_eq!(svc.export_state(), fresh.export_state());
    }

    #[test]
    fn state_does_not_grow_with_rewarded_events() {
        // What a service holds is what it exports. Destructuring without
        // `..` stops compiling when the state gains a field, so whoever
        // adds one has to decide here whether it grows per event.
        fn footprint(state: PersonalizerState) -> (usize, usize) {
            let PersonalizerState {
                dim_bits: _,
                weights,
                updates: _,
                events: _,
                next_event: _,
                pending,
            } = state;
            (weights.len(), pending.len())
        }
        let svc = Personalizer::new(CbConfig {
            dim_bits: 12,
            ..CbConfig::default()
        });
        let run = |events: u64| {
            for seed in 0..events {
                let resp = svc.rank(&request(seed, true));
                svc.reward(resp.event_id, (seed % 3) as f64);
            }
        };
        run(100); // touch every slot this slate can reach
        let before = footprint(svc.export_state());
        run(10_000);
        assert_eq!(svc.events(), 10_100);
        assert_eq!(footprint(svc.export_state()), before);
        assert_eq!(before.1, 0, "every event was rewarded");
    }

    #[test]
    fn restore_rejects_mismatched_table_sizes() {
        let svc = Personalizer::new(CbConfig::default());
        let good = svc.export_state();
        for (weights, why) in [
            (vec![(1 << 20, 1.0)], "slot past the table"),
            (vec![(7, 1.0), (3, 1.0)], "unsorted"),
            (vec![(3, 1.0), (3, 2.0)], "duplicate slot"),
            (vec![(3, 0.0)], "stored +0.0"),
        ] {
            let bad = PersonalizerState {
                weights,
                ..good.clone()
            };
            assert!(svc.restore_state(bad).is_err(), "{why}");
        }
        assert_eq!(svc.export_state(), good, "failed restore mutates nothing");
        let other = Personalizer::new(CbConfig {
            dim_bits: 12,
            ..CbConfig::default()
        });
        assert!(
            other.restore_state(good).is_err(),
            "dim_bits mismatch between snapshot and live config"
        );
    }

    #[test]
    fn double_reward_is_a_noop() {
        let svc = Personalizer::new(CbConfig::default());
        let resp = svc.rank(&request(1, true));
        svc.reward(resp.event_id, 1.0);
        svc.reward(resp.event_id, 1.0);
        assert_eq!(svc.events(), 1, "second reward dropped");
    }
}
