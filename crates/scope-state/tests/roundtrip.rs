//! Property round-trips for every component codec: arbitrary component
//! state spliced into a full snapshot must survive `to_bytes` →
//! `from_bytes` exactly. Floats are compared with `PartialEq` here (the
//! strategies draw finite values); bit-exactness for the funny values
//! (NaN, ±0, infinities) is pinned by a dedicated test at the bottom.

mod common;

use common::sample_snapshot;
use personalizer::{FeatureVector, PendingEventState, PersonalizerState};
use proptest::prelude::*;
use scope_ir::TemplateId;
use scope_opt::{Hint, RuleBits, RuleFlip, RuleId, SpanResult, RULE_COUNT};
use scope_state::codec::{encode, Field};
use scope_state::{
    ExploredState, FlightingState, LiteralsId, MetaState, MonitorState, MonitorTemplateState,
    SisState, SpanCacheEntry, SpanCacheState, SteeringSnapshot, ValidationState, WorkloadIdentity,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Strategies.

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(-1.5), -1.0e12..1.0e12, -1.0..1.0]
}

fn option_of<T: Clone + std::fmt::Debug + 'static>(
    s: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn literals_id() -> impl Strategy<Value = LiteralsId> {
    prop_oneof![
        Just(LiteralsId::Fresh),
        (0u32..365).prop_map(|redraw_every_days| LiteralsId::Sticky { redraw_every_days }),
        (0.0..1.0).prop_map(|sticky_fraction| LiteralsId::Mixed { sticky_fraction }),
    ]
}

fn workload_identity() -> impl Strategy<Value = WorkloadIdentity> {
    (
        any::<u64>(),
        0u64..10_000,
        0u64..10_000,
        0u32..10_000,
        literals_id(),
    )
        .prop_map(
            |(seed, num_templates, adhoc_per_day, max_instances_per_day, literals)| {
                WorkloadIdentity {
                    seed,
                    num_templates,
                    adhoc_per_day,
                    max_instances_per_day,
                    literals,
                }
            },
        )
}

fn meta_state() -> impl Strategy<Value = MetaState> {
    (0u32..100_000, any::<u64>(), option_of(workload_identity())).prop_map(
        |(day, config_fingerprint, workload)| MetaState {
            day,
            config_fingerprint,
            workload,
        },
    )
}

fn hint() -> impl Strategy<Value = Hint> {
    (any::<u64>(), 0u16..RULE_COUNT as u16, any::<bool>()).prop_map(|(template, rule, enable)| {
        Hint {
            template: TemplateId(template),
            flip: RuleFlip {
                rule: RuleId(rule),
                enable,
            },
        }
    })
}

fn sis_state() -> impl Strategy<Value = SisState> {
    (0u32..1_000_000, prop::collection::vec(hint(), 0..8))
        .prop_map(|(version, hints)| SisState { version, hints })
}

fn feature_vector() -> impl Strategy<Value = FeatureVector> {
    prop::collection::vec((any::<u64>(), finite_f64()), 0..6).prop_map(FeatureVector::from_items)
}

fn pending_event() -> impl Strategy<Value = PendingEventState> {
    (any::<u64>(), feature_vector(), feature_vector(), 0.0..1.0).prop_map(
        |(event_id, context, action, probability)| PendingEventState {
            event_id,
            context,
            action,
            probability,
        },
    )
}

/// Any stored weight: everything but `+0.0`, whose slots are absent. NaN
/// is left to the bit-exact test below (`PartialEq` cannot vouch for it).
fn stored_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),
        1.0e-9..1.0e12,
        -1.0e12..-1.0e-9,
    ]
}

/// A `(dim_bits, canonical sparse table)` pair: empty, completely full, or
/// scattered over a table of any legal size.
fn sparse_weights() -> impl Strategy<Value = (u32, Vec<(u32, f64)>)> {
    let empty = (8u32..27).prop_map(|dim_bits| (dim_bits, Vec::new()));
    let full = prop::collection::vec(stored_weight(), 256..257)
        .prop_map(|weights| (8, (0u32..).zip(weights).collect()));
    let scattered = (
        8u32..27,
        prop::collection::vec((any::<u64>(), stored_weight()), 0..64),
    )
        .prop_map(|(dim_bits, draws)| {
            // The map sorts the slots and drops repeats.
            let slots: BTreeMap<u32, f64> = draws
                .into_iter()
                .map(|(r, w)| ((r >> (64 - dim_bits)) as u32, w))
                .collect();
            (dim_bits, slots.into_iter().collect())
        });
    prop_oneof![empty, full, scattered]
}

fn personalizer_state() -> impl Strategy<Value = PersonalizerState> {
    (
        sparse_weights(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(pending_event(), 0..4),
    )
        .prop_map(
            |((dim_bits, weights), (updates, events, next_event), pending)| PersonalizerState {
                dim_bits,
                weights,
                updates,
                events,
                next_event,
                pending,
            },
        )
}

fn validation_state() -> impl Strategy<Value = ValidationState> {
    (finite_f64(), finite_f64(), finite_f64()).prop_map(|(intercept, w_read, w_written)| {
        ValidationState {
            intercept,
            w_read,
            w_written,
        }
    })
}

fn explored_state() -> impl Strategy<Value = ExploredState> {
    prop::collection::vec(any::<u64>(), 0..16).prop_map(|ids| ExploredState {
        templates: ids.into_iter().map(TemplateId).collect(),
    })
}

fn monitor_template() -> impl Strategy<Value = MonitorTemplateState> {
    (any::<u64>(), finite_f64(), 0u32..1000, 0u32..10).prop_map(
        |(template, baseline_pn, observations, consecutive_regressions)| MonitorTemplateState {
            template: TemplateId(template),
            baseline_pn,
            observations,
            consecutive_regressions,
        },
    )
}

fn monitor_state() -> impl Strategy<Value = MonitorState> {
    (
        any::<u64>(),
        prop::collection::vec(monitor_template(), 0..8),
        prop::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(|(config_fingerprint, templates, reverted)| MonitorState {
            config_fingerprint,
            templates,
            reverted: reverted.into_iter().map(TemplateId).collect(),
        })
}

fn rule_bits() -> impl Strategy<Value = RuleBits> {
    prop::collection::vec(any::<u64>(), (RULE_COUNT / 64)..(RULE_COUNT / 64 + 1)).prop_map(
        |words| {
            let words: [u64; RULE_COUNT / 64] = words.try_into().expect("exact word count");
            RuleBits::from_words(words)
        },
    )
}

fn span_cache_entry() -> impl Strategy<Value = SpanCacheEntry> {
    (
        rule_bits(),
        rule_bits(),
        0u64..100,
        any::<bool>(),
        finite_f64(),
    )
        .prop_map(
            |(span, default_signature, iterations, stopped_on_failure, default_cost)| {
                SpanCacheEntry {
                    result: SpanResult {
                        span,
                        default_signature,
                        iterations: iterations as usize,
                        stopped_on_failure,
                    },
                    default_cost,
                }
            },
        )
}

fn span_cache_state() -> impl Strategy<Value = SpanCacheState> {
    prop::collection::vec((any::<u64>(), option_of(span_cache_entry())), 0..6).prop_map(|entries| {
        SpanCacheState {
            entries: entries
                .into_iter()
                .map(|(t, e)| (TemplateId(t), e))
                .collect(),
        }
    })
}

fn snapshot() -> impl Strategy<Value = SteeringSnapshot> {
    (
        (meta_state(), sis_state(), personalizer_state()),
        (
            any::<u64>(),
            option_of(validation_state()),
            explored_state(),
        ),
        (option_of(monitor_state()), option_of(span_cache_state())),
    )
        .prop_map(
            |(
                (meta, sis, personalizer),
                (batch_salt, validation, explored),
                (monitor, span_cache),
            )| SteeringSnapshot {
                meta,
                sis,
                personalizer,
                flighting: FlightingState { batch_salt },
                validation,
                explored,
                monitor,
                span_cache,
            },
        )
}

// ---------------------------------------------------------------------------
// One property per component codec: splice arbitrary state into the fixed
// fixture, round-trip the whole snapshot, require exact equality.

fn round_trips(snap: &SteeringSnapshot) -> Result<(), String> {
    let decoded = SteeringSnapshot::from_bytes(&snap.to_bytes())
        .map_err(|e| format!("decode failed: {e}"))?;
    if &decoded != snap {
        return Err(format!(
            "round-trip drift:\n got {decoded:?}\nwant {snap:?}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn meta_codec_round_trips(meta in meta_state()) {
        let mut snap = sample_snapshot();
        snap.meta = meta;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn sis_codec_round_trips(sis in sis_state()) {
        let mut snap = sample_snapshot();
        snap.sis = sis;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn personalizer_codec_round_trips(state in personalizer_state()) {
        let mut snap = sample_snapshot();
        snap.personalizer = state;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn flighting_codec_round_trips(batch_salt in any::<u64>()) {
        let mut snap = sample_snapshot();
        snap.flighting = FlightingState { batch_salt };
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn validation_codec_round_trips(validation in option_of(validation_state())) {
        let mut snap = sample_snapshot();
        snap.validation = validation;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn explored_codec_round_trips(explored in explored_state()) {
        let mut snap = sample_snapshot();
        snap.explored = explored;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn monitor_codec_round_trips(monitor in option_of(monitor_state())) {
        let mut snap = sample_snapshot();
        snap.monitor = monitor;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn span_cache_codec_round_trips(span_cache in option_of(span_cache_state())) {
        let mut snap = sample_snapshot();
        snap.span_cache = span_cache;
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    #[test]
    fn whole_snapshot_round_trips(snap in snapshot()) {
        prop_assert_eq!(round_trips(&snap), Ok(()));
    }

    // Serialization is a pure function of the snapshot: encoding twice
    // yields identical bytes (the golden-fixture test depends on this).
    #[test]
    fn encoding_is_deterministic(snap in snapshot()) {
        prop_assert_eq!(snap.to_bytes(), snap.to_bytes());
    }
}

/// Whether `value` encodes to at least its type's `MIN_BYTES`: the bound
/// `Reader::take_len` refuses a hostile element count by.
fn fits_its_bound<T: Field>(value: &T) -> bool {
    encode(value).len() >= T::MIN_BYTES
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every section, and every element of every collection in it, encodes
    // to at least its derived `MIN_BYTES`. A bound above a real encoding
    // would refuse a valid snapshot; this holds it for every section.
    #[test]
    fn every_value_encodes_to_at_least_its_min_bytes(snap in snapshot()) {
        let s = &snap;
        prop_assert!(fits_its_bound(&s.meta) && fits_its_bound(&s.sis));
        prop_assert!(fits_its_bound(&s.personalizer) && fits_its_bound(&s.flighting));
        prop_assert!(fits_its_bound(&s.validation) && fits_its_bound(&s.explored));
        prop_assert!(fits_its_bound(&s.monitor) && fits_its_bound(&s.span_cache));
        prop_assert!(s.meta.workload.iter().all(fits_its_bound));
        prop_assert!(s.validation.iter().all(fits_its_bound));
        prop_assert!(s.sis.hints.iter().all(fits_its_bound));
        prop_assert!(s.personalizer.weights.iter().all(fits_its_bound));
        for p in &s.personalizer.pending {
            prop_assert!(fits_its_bound(p));
            prop_assert!(p.context.items().iter().all(fits_its_bound));
            prop_assert!(p.action.items().iter().all(fits_its_bound));
        }
        prop_assert!(s.explored.templates.iter().all(fits_its_bound));
        if let Some(m) = &s.monitor {
            prop_assert!(fits_its_bound(m));
            prop_assert!(m.templates.iter().all(fits_its_bound));
            prop_assert!(m.reverted.iter().all(fits_its_bound));
        }
        if let Some(c) = &s.span_cache {
            prop_assert!(fits_its_bound(c) && c.entries.iter().all(fits_its_bound));
            prop_assert!(c.entries.iter().flat_map(|(_, e)| e).all(fits_its_bound));
        }
    }
}

/// `f64` fields travel as IEEE-754 bit patterns, so the values `PartialEq`
/// cannot vouch for (NaN) or distinguish (±0) still round-trip bit-exactly.
#[test]
fn nan_negative_zero_and_infinities_round_trip_bit_exactly() {
    let mut snap = sample_snapshot();
    snap.validation = Some(ValidationState {
        intercept: f64::NAN,
        w_read: -0.0,
        w_written: f64::NEG_INFINITY,
    });
    // `-0.0` is not `+0.0`: it is stored, and comes back as `-0.0`.
    snap.personalizer.weights = vec![
        (0, f64::INFINITY),
        (3, f64::MIN_POSITIVE),
        (4, -0.0),
        (255, f64::NAN),
    ];
    let decoded = SteeringSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let v = decoded.validation.unwrap();
    assert_eq!(v.intercept.to_bits(), f64::NAN.to_bits());
    assert_eq!(v.w_read.to_bits(), (-0.0f64).to_bits());
    assert_eq!(v.w_written.to_bits(), f64::NEG_INFINITY.to_bits());
    let bits: Vec<(u32, u64)> = decoded
        .personalizer
        .weights
        .iter()
        .map(|&(slot, w)| (slot, w.to_bits()))
        .collect();
    assert_eq!(
        bits,
        vec![
            (0, f64::INFINITY.to_bits()),
            (3, f64::MIN_POSITIVE.to_bits()),
            (4, (-0.0f64).to_bits()),
            (255, f64::NAN.to_bits()),
        ]
    );
}
