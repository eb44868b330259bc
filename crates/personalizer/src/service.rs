//! The Personalizer facade: a rank/reward service with a durable pending-
//! event log, mirroring how QO-Advisor integrates with Azure Personalizer
//! (§4.2): rank calls return an event id; rewards arrive later (after
//! recompilation computes the cost ratio) keyed by that id.

use crate::bandit::{CbConfig, ContextualBandit, RankDecision};
use crate::features::FeatureVector;
use crate::model::LinearModel;
use crate::slate::SparseSlate;
use rustc_hash::FxHashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// A rank response: the decision plus the event id to reward later.
#[derive(Debug, Clone)]
pub struct RankResponse {
    pub event_id: u64,
    pub decision: RankDecision,
}

#[derive(Debug)]
struct PendingEvent {
    context: FeatureVector,
    action: FeatureVector,
    probability: f64,
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
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    bandit: ContextualBandit,
    pending: FxHashMap<u64, PendingEvent>,
    next_event: u64,
}

impl Inner {
    /// Decide over `scores` under the request's policy, assign the next
    /// event id and log the decision as pending — the shared tail of every
    /// rank entry point.
    fn log_decision(&mut self, req: &RankRequest, scores: Vec<f64>) -> RankResponse {
        let decision = self.bandit.decide(scores, req.seed, req.log_uniform);
        let event_id = self.next_event;
        self.next_event += 1;
        self.pending.insert(
            event_id,
            PendingEvent {
                context: req.context.clone(),
                action: req.actions[decision.chosen].clone(),
                probability: decision.probability,
            },
        );
        RankResponse { event_id, decision }
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
            let event = PendingEvent {
                context: p.context.clone(),
                action: p.action.clone(),
                probability: p.probability,
            };
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
            inner: Mutex::new(Inner {
                bandit: ContextualBandit::new(config),
                pending: FxHashMap::default(),
                next_event: 1,
            }),
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
        inner.log_decision(req, scores)
    }

    /// [`Personalizer::rank`] through a prebuilt [`SparseSlate`] (built once
    /// per request, e.g. in a parallel featurization fan-out, and shared by
    /// the training and acting rank calls). The decision — choice,
    /// propensity, scores, event id — is bit-identical to [`Personalizer::
    /// rank`] over the request's `context`/`actions`; only the scoring path
    /// differs. The request still carries the full feature vectors: the
    /// pending-event log stores them for the eventual reward update.
    pub fn rank_slate(&self, req: &RankRequest, slate: &SparseSlate) -> RankResponse {
        debug_assert_eq!(
            slate.num_actions(),
            req.actions.len(),
            "slate laid out for a different action set"
        );
        let mut inner = self.lock();
        let scores = inner.bandit.scores_slate(slate);
        inner.log_decision(req, scores)
    }

    /// Score a prebuilt slate under the current model, without ranking or
    /// logging anything. Pair with [`Personalizer::rank_scored`]: the model
    /// only changes on [`Personalizer::reward`], so in a ranks-then-rewards
    /// pass one score vector per distinct slate serves every rank over it.
    pub fn scores_slate(&self, slate: &SparseSlate) -> Vec<f64> {
        self.lock().bandit.scores_slate(slate)
    }

    /// [`Personalizer::rank_slate`] with the scoring pass hoisted out:
    /// decide and log from `scores` previously computed by
    /// [`Personalizer::scores_slate`]. Bit-identical to `rank_slate` as
    /// long as no reward landed between scoring and ranking — the caller's
    /// contract (the pipeline's rank pass rewards only after every rank).
    pub fn rank_scored(&self, req: &RankRequest, scores: &[f64]) -> RankResponse {
        debug_assert_eq!(
            scores.len(),
            req.actions.len(),
            "scores computed for a different action set"
        );
        self.lock().log_decision(req, scores.to_vec())
    }

    /// Reward a previously ranked event; updates the model off-policy and
    /// forgets the event. Unknown ids are ignored (Azure Personalizer drops
    /// late rewards the same way).
    pub fn reward(&self, event_id: u64, reward: f64) {
        let mut inner = self.lock();
        let Some(ev) = inner.pending.remove(&event_id) else {
            return;
        };
        inner
            .bandit
            .reward(&ev.context, &ev.action, reward, ev.probability);
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
    /// weight table leaves as one scan into its sparse form.
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
                context: ev.context.clone(),
                action: ev.action.clone(),
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
            inner: Mutex::new(Inner::from_state(config, state)?),
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

    #[test]
    fn scored_path_matches_rank_slate_bit_for_bit() {
        let a = Personalizer::new(CbConfig::default());
        let b = Personalizer::new(CbConfig::default());
        for seed in 0..32 {
            for uniform in [false, true] {
                let req = request(seed, uniform);
                let slate = SparseSlate::build(&req.context, &req.actions, 20);
                let want = a.rank_slate(&req, &slate);
                let scores = b.scores_slate(&slate);
                let got = b.rank_scored(&req, &scores);
                assert_eq!(got.event_id, want.event_id);
                assert_eq!(got.decision, want.decision);
            }
        }
        assert_eq!(a.pending(), b.pending());
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
