//! Per-component codecs and the [`SteeringSnapshot`] aggregate.
//!
//! Each component's durable state has a plain-data struct here plus an
//! `encode`/`decode` pair over the primitive codecs. The structs are
//! deliberately decoupled from the live service types (`qo_advisor`
//! converts): the format must stay stable even when the services refactor.
//!
//! What is **authoritative** vs **warm** follows the determinism contract:
//! the compile cache, execution cache, span-feature cache, and delta base
//! memos are pure functions of the plans the loop replays, so they are
//! *not* serialized (their section ids are reserved in [`crate::frame::
//! section`]); the span cache is serialized as a droppable warm section
//! because rebuilding it is the dominant Feature Generation cost. The
//! workload itself is a pure function of `(WorkloadConfig, day)` — only its
//! identity travels, and a restore into a differently-configured process is
//! a typed [`SnapshotError::Mismatch`].

use crate::codec::{Reader, Writer};
use crate::error::SnapshotError;
use crate::frame::{atomic_write, section, FrameReader, FrameWriter};
use personalizer::{FeatureVector, LinearModel, PendingEventState, PersonalizerState};
use scope_ir::TemplateId;
use scope_opt::{Hint, RuleBits, RuleFlip, RuleId, SpanResult, RULE_COUNT};
use std::path::Path;

/// Literal policy identity (workload check only — the policy itself is
/// reconstructed by the process's own configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiteralsId {
    Fresh,
    Sticky { redraw_every_days: u32 },
    Mixed { sticky_fraction: f64 },
}

/// Identity of the workload the snapshot was taken under. The generator is
/// a pure function of this configuration and the day counter, so equality
/// here (plus the restored day) is exactly what "same remaining days"
/// requires — sticky literal epochs included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadIdentity {
    pub seed: u64,
    pub num_templates: u64,
    pub adhoc_per_day: u64,
    pub max_instances_per_day: u32,
    pub literals: LiteralsId,
}

/// Day counter + configuration identity + workload identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaState {
    /// The next day the loop will run (days `0..day` are complete).
    pub day: u32,
    /// Stable fingerprint of the *output-affecting* pipeline knobs the
    /// snapshot was taken under (bandit hyper-parameters, flight budget,
    /// validation threshold, …; computed by `qo-advisor`). Restoring under
    /// different tuning would silently diverge from the uninterrupted run,
    /// so a fingerprint disagreement is a typed mismatch. Throughput-only
    /// knobs (threads, caches) are deliberately excluded — they never
    /// change outputs, so restoring across them is legal.
    pub config_fingerprint: u64,
    /// `None` for advisor-only snapshots (no workload attached).
    pub workload: Option<WorkloadIdentity>,
}

/// SIS store: installed version + hints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SisState {
    pub version: u32,
    /// Sorted by template id (the canonical export order).
    pub hints: Vec<Hint>,
}

/// Flighting service: the batch salt is its only cross-day RNG position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightingState {
    pub batch_salt: u64,
}

/// The fitted validation model's three coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationState {
    pub intercept: f64,
    pub w_read: f64,
    pub w_written: f64,
}

/// Templates already flighted (§8 stateful mode), sorted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploredState {
    pub templates: Vec<TemplateId>,
}

/// One template's regression-monitor state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorTemplateState {
    pub template: TemplateId,
    pub baseline_pn: f64,
    pub observations: u32,
    pub consecutive_regressions: u32,
}

/// Regression monitor: per-template baselines (sorted by template) plus
/// the revert log in observation order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorState {
    /// Stable fingerprint of the monitor tuning the baselines were built
    /// under (margin, revert threshold, EMA factor — each changes revert
    /// decisions). Checked on restore like the pipeline fingerprint
    /// in [`MetaState`].
    pub config_fingerprint: u64,
    pub templates: Vec<MonitorTemplateState>,
    pub reverted: Vec<TemplateId>,
}

/// One span-cache entry: the fixpoint result and the default-plan estimated
/// cost, or `None` for templates whose span computation failed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanCacheEntry {
    pub result: SpanResult,
    pub default_cost: f64,
}

/// The advisor's span cache (warm: safe to drop, rebuilt on demand),
/// sorted by template.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanCacheState {
    pub entries: Vec<(TemplateId, Option<SpanCacheEntry>)>,
}

/// Everything a steering process must carry across a restart, plus the
/// optional warm span cache. Decoding ([`SteeringSnapshot::from_bytes`])
/// validates the whole snapshot before the caller applies any of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringSnapshot {
    pub meta: MetaState,
    pub sis: SisState,
    pub personalizer: PersonalizerState,
    pub flighting: FlightingState,
    pub validation: Option<ValidationState>,
    pub explored: ExploredState,
    /// Present only when the §8 monitor is enabled.
    pub monitor: Option<MonitorState>,
    /// Warm section: dropping it changes cost, never outputs.
    pub span_cache: Option<SpanCacheState>,
}

// ---------------------------------------------------------------------------
// Component codecs.

fn encode_rule_bits(w: &mut Writer, bits: &RuleBits) {
    for word in bits.words() {
        w.put_u64(word);
    }
}

fn decode_rule_bits(r: &mut Reader<'_>) -> Result<RuleBits, SnapshotError> {
    let mut words = [0u64; RULE_COUNT / 64];
    for word in &mut words {
        *word = r.take_u64()?;
    }
    Ok(RuleBits::from_words(words))
}

pub(crate) fn encode_meta(state: &MetaState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(state.day);
    w.put_u64(state.config_fingerprint);
    w.put_bool(state.workload.is_some());
    if let Some(wl) = &state.workload {
        w.put_u64(wl.seed);
        w.put_u64(wl.num_templates);
        w.put_u64(wl.adhoc_per_day);
        w.put_u32(wl.max_instances_per_day);
        match wl.literals {
            LiteralsId::Fresh => w.put_u8(0),
            LiteralsId::Sticky { redraw_every_days } => {
                w.put_u8(1);
                w.put_u32(redraw_every_days);
            }
            LiteralsId::Mixed { sticky_fraction } => {
                w.put_u8(2);
                w.put_f64(sticky_fraction);
            }
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_meta(bytes: &[u8]) -> Result<MetaState, SnapshotError> {
    let mut r = Reader::new(bytes, "meta section");
    let day = r.take_u32()?;
    let config_fingerprint = r.take_u64()?;
    let workload = if r.take_bool()? {
        let seed = r.take_u64()?;
        let num_templates = r.take_u64()?;
        let adhoc_per_day = r.take_u64()?;
        let max_instances_per_day = r.take_u32()?;
        let literals = match r.take_u8()? {
            0 => LiteralsId::Fresh,
            1 => LiteralsId::Sticky {
                redraw_every_days: r.take_u32()?,
            },
            2 => LiteralsId::Mixed {
                sticky_fraction: r.take_f64()?,
            },
            tag => {
                return Err(SnapshotError::Corrupt {
                    what: format!("meta section: unknown literal-policy tag {tag}"),
                })
            }
        };
        Some(WorkloadIdentity {
            seed,
            num_templates,
            adhoc_per_day,
            max_instances_per_day,
            literals,
        })
    } else {
        None
    };
    r.finish()?;
    Ok(MetaState {
        day,
        config_fingerprint,
        workload,
    })
}

pub(crate) fn encode_sis(state: &SisState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(state.version);
    w.put_len(state.hints.len());
    for h in &state.hints {
        w.put_u64(h.template.0);
        w.put_u16(h.flip.rule.0);
        w.put_bool(h.flip.enable);
    }
    w.into_bytes()
}

pub(crate) fn decode_sis(bytes: &[u8]) -> Result<SisState, SnapshotError> {
    let mut r = Reader::new(bytes, "sis section");
    let version = r.take_u32()?;
    let n = r.take_len(8 + 2 + 1)?;
    let mut hints = Vec::with_capacity(n);
    for _ in 0..n {
        let template = TemplateId(r.take_u64()?);
        let rule = RuleId(r.take_u16()?);
        let enable = r.take_bool()?;
        hints.push(Hint {
            template,
            flip: RuleFlip { rule, enable },
        });
    }
    r.finish()?;
    Ok(SisState { version, hints })
}

fn encode_feature_vector(w: &mut Writer, fv: &FeatureVector) {
    w.put_len(fv.items().len());
    for &(key, value) in fv.items() {
        w.put_u64(key);
        w.put_f64(value);
    }
}

fn decode_feature_vector(r: &mut Reader<'_>) -> Result<FeatureVector, SnapshotError> {
    let n = r.take_len(8 + 8)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.take_u64()?;
        let value = r.take_f64()?;
        items.push((key, value));
    }
    Ok(FeatureVector::from_items(items))
}

pub(crate) fn encode_personalizer(state: &PersonalizerState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(state.dim_bits);
    w.put_len(state.weights.len());
    for &(slot, weight) in &state.weights {
        w.put_u32(slot);
        w.put_f64(weight);
    }
    w.put_u64(state.updates);
    w.put_u64(state.events);
    w.put_u64(state.next_event);
    w.put_len(state.pending.len());
    for p in &state.pending {
        w.put_u64(p.event_id);
        encode_feature_vector(&mut w, &p.context);
        encode_feature_vector(&mut w, &p.action);
        w.put_f64(p.probability);
    }
    w.into_bytes()
}

pub(crate) fn decode_personalizer(bytes: &[u8]) -> Result<PersonalizerState, SnapshotError> {
    let mut r = Reader::new(bytes, "personalizer section");
    let dim_bits = r.take_u32()?;
    let n_weights = r.take_len(4 + 8)?;
    let mut weights = Vec::with_capacity(n_weights);
    for _ in 0..n_weights {
        weights.push((r.take_u32()?, r.take_f64()?));
    }
    // One encoding per table, or export → restore → export is no fixpoint.
    LinearModel::check_sparse(dim_bits, &weights).map_err(|e| SnapshotError::Corrupt {
        what: format!("personalizer section: {e}"),
    })?;
    let updates = r.take_u64()?;
    let events = r.take_u64()?;
    let next_event = r.take_u64()?;
    let n_pending = r.take_len(8 + 4 + 4 + 8)?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        let event_id = r.take_u64()?;
        let context = decode_feature_vector(&mut r)?;
        let action = decode_feature_vector(&mut r)?;
        let probability = r.take_f64()?;
        pending.push(PendingEventState {
            event_id,
            context,
            action,
            probability,
        });
    }
    r.finish()?;
    Ok(PersonalizerState {
        dim_bits,
        weights,
        updates,
        events,
        next_event,
        pending,
    })
}

pub(crate) fn encode_flighting(state: &FlightingState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(state.batch_salt);
    w.into_bytes()
}

pub(crate) fn decode_flighting(bytes: &[u8]) -> Result<FlightingState, SnapshotError> {
    let mut r = Reader::new(bytes, "flighting section");
    let batch_salt = r.take_u64()?;
    r.finish()?;
    Ok(FlightingState { batch_salt })
}

pub(crate) fn encode_validation(state: &ValidationState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_f64(state.intercept);
    w.put_f64(state.w_read);
    w.put_f64(state.w_written);
    w.into_bytes()
}

pub(crate) fn decode_validation(bytes: &[u8]) -> Result<ValidationState, SnapshotError> {
    let mut r = Reader::new(bytes, "validation section");
    let intercept = r.take_f64()?;
    let w_read = r.take_f64()?;
    let w_written = r.take_f64()?;
    r.finish()?;
    Ok(ValidationState {
        intercept,
        w_read,
        w_written,
    })
}

pub(crate) fn encode_explored(state: &ExploredState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_len(state.templates.len());
    for t in &state.templates {
        w.put_u64(t.0);
    }
    w.into_bytes()
}

pub(crate) fn decode_explored(bytes: &[u8]) -> Result<ExploredState, SnapshotError> {
    let mut r = Reader::new(bytes, "explored section");
    let n = r.take_len(8)?;
    let mut templates = Vec::with_capacity(n);
    for _ in 0..n {
        templates.push(TemplateId(r.take_u64()?));
    }
    r.finish()?;
    Ok(ExploredState { templates })
}

pub(crate) fn encode_monitor(state: &MonitorState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(state.config_fingerprint);
    w.put_len(state.templates.len());
    for t in &state.templates {
        w.put_u64(t.template.0);
        w.put_f64(t.baseline_pn);
        w.put_u32(t.observations);
        w.put_u32(t.consecutive_regressions);
    }
    w.put_len(state.reverted.len());
    for t in &state.reverted {
        w.put_u64(t.0);
    }
    w.into_bytes()
}

pub(crate) fn decode_monitor(bytes: &[u8]) -> Result<MonitorState, SnapshotError> {
    let mut r = Reader::new(bytes, "monitor section");
    let config_fingerprint = r.take_u64()?;
    let n = r.take_len(8 + 8 + 4 + 4)?;
    let mut templates = Vec::with_capacity(n);
    for _ in 0..n {
        let template = TemplateId(r.take_u64()?);
        let baseline_pn = r.take_f64()?;
        let observations = r.take_u32()?;
        let consecutive_regressions = r.take_u32()?;
        templates.push(MonitorTemplateState {
            template,
            baseline_pn,
            observations,
            consecutive_regressions,
        });
    }
    let n_rev = r.take_len(8)?;
    let mut reverted = Vec::with_capacity(n_rev);
    for _ in 0..n_rev {
        reverted.push(TemplateId(r.take_u64()?));
    }
    r.finish()?;
    Ok(MonitorState {
        config_fingerprint,
        templates,
        reverted,
    })
}

pub(crate) fn encode_span_cache(state: &SpanCacheState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_len(state.entries.len());
    for (template, entry) in &state.entries {
        w.put_u64(template.0);
        w.put_bool(entry.is_some());
        if let Some(e) = entry {
            encode_rule_bits(&mut w, &e.result.span);
            encode_rule_bits(&mut w, &e.result.default_signature);
            w.put_u64(e.result.iterations as u64);
            w.put_bool(e.result.stopped_on_failure);
            w.put_f64(e.default_cost);
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_span_cache(bytes: &[u8]) -> Result<SpanCacheState, SnapshotError> {
    let mut r = Reader::new(bytes, "span-cache section");
    let n = r.take_len(8 + 1)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let template = TemplateId(r.take_u64()?);
        let entry = if r.take_bool()? {
            let span = decode_rule_bits(&mut r)?;
            let default_signature = decode_rule_bits(&mut r)?;
            let iterations = r.take_u64()? as usize;
            let stopped_on_failure = r.take_bool()?;
            let default_cost = r.take_f64()?;
            Some(SpanCacheEntry {
                result: SpanResult {
                    span,
                    default_signature,
                    iterations,
                    stopped_on_failure,
                },
                default_cost,
            })
        } else {
            None
        };
        entries.push((template, entry));
    }
    r.finish()?;
    Ok(SpanCacheState { entries })
}

// ---------------------------------------------------------------------------
// The aggregate.

impl SteeringSnapshot {
    /// Serialize to the framed on-disk format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut frame = FrameWriter::new();
        frame.push(section::META, encode_meta(&self.meta));
        frame.push(section::SIS, encode_sis(&self.sis));
        frame.push(
            section::PERSONALIZER,
            encode_personalizer(&self.personalizer),
        );
        frame.push(section::FLIGHTING, encode_flighting(&self.flighting));
        if let Some(v) = &self.validation {
            frame.push(section::VALIDATION, encode_validation(v));
        }
        frame.push(section::EXPLORED, encode_explored(&self.explored));
        if let Some(m) = &self.monitor {
            frame.push(section::MONITOR, encode_monitor(m));
        }
        if let Some(s) = &self.span_cache {
            frame.push_warm(section::SPAN_CACHE, encode_span_cache(s));
        }
        frame.to_bytes()
    }

    /// Parse and fully validate a snapshot. Nothing is applied to live
    /// state here, so an error means nothing changed anywhere. Unknown
    /// *warm* sections are skipped; unknown authoritative sections are
    /// [`SnapshotError::Corrupt`] (the writer knew something this reader
    /// must not silently drop).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let frame = FrameReader::from_bytes(bytes)?;
        for s in frame.sections() {
            let known = matches!(
                s.id,
                section::META
                    | section::SIS
                    | section::PERSONALIZER
                    | section::FLIGHTING
                    | section::VALIDATION
                    | section::EXPLORED
                    | section::MONITOR
                    | section::SPAN_CACHE
            );
            if !known && !s.is_warm() {
                return Err(SnapshotError::Corrupt {
                    what: format!("unknown authoritative section id {}", s.id),
                });
            }
        }
        let meta = decode_meta(frame.require(section::META, "meta")?)?;
        let sis = decode_sis(frame.require(section::SIS, "sis")?)?;
        let personalizer =
            decode_personalizer(frame.require(section::PERSONALIZER, "personalizer")?)?;
        let flighting = decode_flighting(frame.require(section::FLIGHTING, "flighting")?)?;
        let validation = match frame.section(section::VALIDATION) {
            Some(s) => Some(decode_validation(&s.payload)?),
            None => None,
        };
        let explored = decode_explored(frame.require(section::EXPLORED, "explored")?)?;
        let monitor = match frame.section(section::MONITOR) {
            Some(s) => Some(decode_monitor(&s.payload)?),
            None => None,
        };
        let span_cache = match frame.section(section::SPAN_CACHE) {
            Some(s) => Some(decode_span_cache(&s.payload)?),
            None => None,
        };
        Ok(Self {
            meta,
            sis,
            personalizer,
            flighting,
            validation,
            explored,
            monitor,
            span_cache,
        })
    }

    /// Write the snapshot to `path` atomically (temp file + rename): a
    /// crash mid-write leaves any previous snapshot at `path` intact, so
    /// there is always a complete snapshot to restore from.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pending event ranked from a batched input — a job block, a span
    /// block shared behind an `Arc` and a split CSR slate — snapshots to
    /// the bytes of the same decisions ranked unbatched over the joint
    /// context: the export assembles the joint context it never stored.
    #[test]
    fn a_pending_batched_event_encodes_like_the_unbatched_one() {
        use personalizer::{
            CbConfig, Personalizer, RankInput, RankRequest, SlateTail, SparseSlate,
        };
        use std::sync::Arc;
        let fv = |pairs: &[(u64, f64)]| FeatureVector::from_items(pairs.to_vec());
        let job = fv(&[(1, 1.0), (2, 0.5)]);
        let block = Arc::new(fv(&[(7, 1.0), (8, 2.0), (9, 0.25)]));
        let actions = vec![
            fv(&[(100, 1.0)]),
            fv(&[(101, 1.0), (102, 1.0)]),
            fv(&[(103, 0.5)]),
        ];
        let config = CbConfig::default();
        let tail = Arc::new(SlateTail::build(&block, &actions, config.dim_bits));
        let input = Arc::new(RankInput {
            job: job.clone(),
            shared: Arc::clone(&block),
            actions: Arc::new(actions.clone()),
            sparse: Some(Arc::new(SparseSlate::split(&job, &actions, tail))),
        });
        let mut joint = job.clone();
        joint.extend_from(&block);
        assert_eq!(*input.context(), joint);

        let (batched, plain) = (Personalizer::new(config.clone()), Personalizer::new(config));
        for seed in 0..6 {
            let uniform = seed % 2 == 0;
            let scores = batched.scores(&input);
            let a = batched.rank_shared(&input, &scores, seed, uniform);
            let b = plain.rank(&RankRequest {
                context: joint.clone(),
                actions: actions.clone(),
                seed,
                log_uniform: uniform,
            });
            assert_eq!((a.event_id, a.decision), (b.event_id, b.decision));
            // Reward every other event; the rest stay pending.
            if seed % 3 != 2 {
                batched.reward(a.event_id, 0.75);
                plain.reward(b.event_id, 0.75);
            }
        }
        let (a, b) = (batched.export_state(), plain.export_state());
        assert_eq!(a.pending.len(), 2);
        assert_eq!(encode_personalizer(&a), encode_personalizer(&b));
    }

    /// A small but fully-populated snapshot (every optional section
    /// present) — shared with the golden-fixture test.
    pub(crate) fn sample_snapshot() -> SteeringSnapshot {
        let fv = |pairs: &[(u64, f64)]| FeatureVector::from_items(pairs.to_vec());
        let mut span = RuleBits::empty();
        span.insert(RuleId(21));
        span.insert(RuleId(200));
        let mut sig = RuleBits::empty();
        sig.insert(RuleId(3));
        SteeringSnapshot {
            meta: MetaState {
                day: 7,
                config_fingerprint: 0x5EED_F00D_CAFE_0001,
                workload: Some(WorkloadIdentity {
                    seed: 99,
                    num_templates: 24,
                    adhoc_per_day: 3,
                    max_instances_per_day: 1,
                    literals: LiteralsId::Sticky {
                        redraw_every_days: 0,
                    },
                }),
            },
            sis: SisState {
                version: 4,
                hints: vec![
                    Hint {
                        template: TemplateId(11),
                        flip: RuleFlip {
                            rule: RuleId(21),
                            enable: true,
                        },
                    },
                    Hint {
                        template: TemplateId(42),
                        flip: RuleFlip {
                            rule: RuleId(7),
                            enable: false,
                        },
                    },
                ],
            },
            personalizer: PersonalizerState {
                dim_bits: 8,
                weights: vec![(0, -3.0), (17, 0.125), (255, 28.875)],
                updates: 17,
                events: 17,
                next_event: 23,
                pending: vec![PendingEventState {
                    event_id: 22,
                    context: fv(&[(1, 1.0), (9, 0.5)]),
                    action: fv(&[(4, 1.0)]),
                    probability: 0.25,
                }],
            },
            flighting: FlightingState { batch_salt: 9 },
            validation: Some(ValidationState {
                intercept: -0.01,
                w_read: 0.4,
                w_written: 0.6,
            }),
            explored: ExploredState {
                templates: vec![TemplateId(11), TemplateId(42)],
            },
            monitor: Some(MonitorState {
                config_fingerprint: 0x5EED_F00D_CAFE_0002,
                templates: vec![MonitorTemplateState {
                    template: TemplateId(11),
                    baseline_pn: 12.5,
                    observations: 4,
                    consecutive_regressions: 1,
                }],
                reverted: vec![TemplateId(42)],
            }),
            span_cache: Some(SpanCacheState {
                entries: vec![
                    (
                        TemplateId(11),
                        Some(SpanCacheEntry {
                            result: SpanResult {
                                span,
                                default_signature: sig,
                                iterations: 3,
                                stopped_on_failure: false,
                            },
                            default_cost: 123.5,
                        }),
                    ),
                    (TemplateId(42), None),
                ],
            }),
        }
    }

    #[test]
    fn full_snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(SteeringSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn optional_sections_can_be_absent() {
        let mut snap = sample_snapshot();
        snap.validation = None;
        snap.monitor = None;
        snap.span_cache = None;
        snap.meta.workload = None;
        let bytes = snap.to_bytes();
        assert_eq!(SteeringSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn missing_authoritative_section_is_corrupt() {
        let mut frame = FrameWriter::new();
        frame.push(section::META, encode_meta(&sample_snapshot().meta));
        let err = SteeringSnapshot::from_bytes(&frame.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn unknown_warm_section_is_skipped_but_authoritative_is_not() {
        let snap = sample_snapshot();
        let mut frame = FrameWriter::new();
        frame.push(section::META, encode_meta(&snap.meta));
        frame.push(section::SIS, encode_sis(&snap.sis));
        frame.push(
            section::PERSONALIZER,
            encode_personalizer(&snap.personalizer),
        );
        frame.push(section::FLIGHTING, encode_flighting(&snap.flighting));
        frame.push(section::EXPLORED, encode_explored(&snap.explored));
        frame.push_warm(0x9999, vec![1, 2, 3]);
        let decoded = SteeringSnapshot::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(decoded.sis, snap.sis);

        let mut bad = FrameWriter::new();
        bad.push(section::META, encode_meta(&snap.meta));
        bad.push(0x0777, vec![1, 2, 3]);
        assert!(matches!(
            SteeringSnapshot::from_bytes(&bad.to_bytes()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }
}
