//! Per-component state, its wire layouts, and the [`SteeringSnapshot`]
//! aggregate.
//!
//! Each component's durable state is a plain-data struct here. One
//! `record!` block lists every struct's fields in wire order, which gives
//! each its [`Field`] impl, and a few hand-written impls cover the types
//! that are not plain field lists (`LiteralsId`, `RuleBits`,
//! `FeatureVector`). A section is `codec::encode` / `codec::decode` of its
//! struct. The structs are deliberately decoupled from the live service
//! types (`qo_advisor` converts): the format must stay stable even when the
//! services refactor.
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

use crate::codec::{decode, encode, record, write_seq, Field, Reader};
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
// Layouts: each type's fields in wire order, written once.

record! {
    WorkloadIdentity {
        seed: u64,
        num_templates: u64,
        adhoc_per_day: u64,
        max_instances_per_day: u32,
        literals: LiteralsId,
    }
    MetaState { day: u32, config_fingerprint: u64, workload: Option<WorkloadIdentity> }
    SisState { version: u32, hints: Vec<Hint> }
    Hint { template: TemplateId, flip: RuleFlip }
    RuleFlip { rule: RuleId, enable: bool }
    PersonalizerState {
        dim_bits: u32,
        weights: Vec<(u32, f64)>,
        updates: u64,
        events: u64,
        next_event: u64,
        pending: Vec<PendingEventState>,
    }
    PendingEventState {
        event_id: u64,
        context: FeatureVector,
        action: FeatureVector,
        probability: f64,
    }
    FlightingState { batch_salt: u64 }
    ValidationState { intercept: f64, w_read: f64, w_written: f64 }
    ExploredState { templates: Vec<TemplateId> }
    MonitorState {
        config_fingerprint: u64,
        templates: Vec<MonitorTemplateState>,
        reverted: Vec<TemplateId>,
    }
    MonitorTemplateState {
        template: TemplateId,
        baseline_pn: f64,
        observations: u32,
        consecutive_regressions: u32,
    }
    SpanCacheState { entries: Vec<(TemplateId, Option<SpanCacheEntry>)> }
    SpanCacheEntry { result: SpanResult, default_cost: f64 }
    SpanResult {
        span: RuleBits,
        default_signature: RuleBits,
        iterations: usize,
        stopped_on_failure: bool,
    }
    TemplateId { 0: u64 }
    RuleId { 0: u16 }
}

/// A tag byte (0 fresh, 1 sticky, 2 mixed), then the variant's field.
impl Field for LiteralsId {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            LiteralsId::Fresh => 0u8.put(out),
            LiteralsId::Sticky { redraw_every_days } => {
                1u8.put(out);
                redraw_every_days.put(out);
            }
            LiteralsId::Mixed { sticky_fraction } => {
                2u8.put(out);
                sticky_fraction.put(out);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(match u8::take(r)? {
            0 => LiteralsId::Fresh,
            1 => LiteralsId::Sticky {
                redraw_every_days: u32::take(r)?,
            },
            2 => LiteralsId::Mixed {
                sticky_fraction: f64::take(r)?,
            },
            tag => return Err(r.corrupt(format_args!("unknown literal-policy tag {tag}"))),
        })
    }
}

/// The bit set's words in order; no length prefix (it is fixed).
impl Field for RuleBits {
    const MIN_BYTES: usize = RULE_COUNT / 8;

    fn put(&self, out: &mut Vec<u8>) {
        for word in self.words() {
            word.put(out);
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut words = [0u64; RULE_COUNT / 64];
        for word in &mut words {
            *word = u64::take(r)?;
        }
        Ok(RuleBits::from_words(words))
    }
}

/// Its `(key, value)` items as a `Vec`.
impl Field for FeatureVector {
    const MIN_BYTES: usize = <Vec<(u64, f64)>>::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        write_seq(self.items(), out);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(FeatureVector::from_items(Vec::take(r)?))
    }
}

// ---------------------------------------------------------------------------
// The aggregate.

impl SteeringSnapshot {
    /// Serialize to the framed on-disk format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut frame = FrameWriter::new();
        frame.push(section::META, encode(&self.meta));
        frame.push(section::SIS, encode(&self.sis));
        frame.push(section::PERSONALIZER, encode(&self.personalizer));
        frame.push(section::FLIGHTING, encode(&self.flighting));
        if let Some(v) = &self.validation {
            frame.push(section::VALIDATION, encode(v));
        }
        frame.push(section::EXPLORED, encode(&self.explored));
        if let Some(m) = &self.monitor {
            frame.push(section::MONITOR, encode(m));
        }
        if let Some(s) = &self.span_cache {
            frame.push_warm(section::SPAN_CACHE, encode(s));
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
        fn optional<T: Field>(
            frame: &FrameReader,
            id: u16,
            what: &'static str,
        ) -> Result<Option<T>, SnapshotError> {
            frame
                .section(id)
                .map(|s| decode(&s.payload, what))
                .transpose()
        }
        let meta = decode(frame.require(section::META, "meta")?, "meta section")?;
        let sis = decode(frame.require(section::SIS, "sis")?, "sis section")?;
        let personalizer: PersonalizerState = decode(
            frame.require(section::PERSONALIZER, "personalizer")?,
            "personalizer section",
        )?;
        // One encoding per table, or export → restore → export is no fixpoint.
        LinearModel::check_sparse(personalizer.dim_bits, &personalizer.weights).map_err(|e| {
            SnapshotError::Corrupt {
                what: format!("personalizer section: {e}"),
            }
        })?;
        let flighting = decode(
            frame.require(section::FLIGHTING, "flighting")?,
            "flighting section",
        )?;
        let validation = optional(&frame, section::VALIDATION, "validation section")?;
        let explored = decode(
            frame.require(section::EXPLORED, "explored")?,
            "explored section",
        )?;
        let monitor = optional(&frame, section::MONITOR, "monitor section")?;
        let span_cache = optional(&frame, section::SPAN_CACHE, "span-cache section")?;
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
        assert_eq!(encode(&a), encode(&b));
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

    /// Each collection element's derived lower bound equals the size the
    /// v3 decoder hard-coded, so a hostile count is refused exactly as
    /// before.
    #[test]
    fn derived_element_bounds_match_the_v3_layout() {
        assert_eq!(Hint::MIN_BYTES, 11);
        assert_eq!(<(u32, f64)>::MIN_BYTES, 12);
        assert_eq!(PendingEventState::MIN_BYTES, 24);
        assert_eq!(MonitorTemplateState::MIN_BYTES, 24);
        assert_eq!(<(TemplateId, Option<SpanCacheEntry>)>::MIN_BYTES, 9);
        assert_eq!(<(u64, f64)>::MIN_BYTES, 16);
        assert_eq!(TemplateId::MIN_BYTES, 8);
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
        frame.push(section::META, encode(&sample_snapshot().meta));
        let err = SteeringSnapshot::from_bytes(&frame.to_bytes()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn unknown_warm_section_is_skipped_but_authoritative_is_not() {
        let snap = sample_snapshot();
        let mut frame = FrameWriter::new();
        frame.push(section::META, encode(&snap.meta));
        frame.push(section::SIS, encode(&snap.sis));
        frame.push(section::PERSONALIZER, encode(&snap.personalizer));
        frame.push(section::FLIGHTING, encode(&snap.flighting));
        frame.push(section::EXPLORED, encode(&snap.explored));
        frame.push_warm(0x9999, vec![1, 2, 3]);
        let decoded = SteeringSnapshot::from_bytes(&frame.to_bytes()).unwrap();
        assert_eq!(decoded.sis, snap.sis);

        let mut bad = FrameWriter::new();
        bad.push(section::META, encode(&snap.meta));
        bad.push(0x0777, vec![1, 2, 3]);
        assert!(matches!(
            SteeringSnapshot::from_bytes(&bad.to_bytes()).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }
}
