//! Shared fixture for the scope-state integration tests: a small but
//! fully-populated snapshot (every optional section present, every codec
//! exercised) built from fixed values, so its serialized bytes are
//! reproducible — `tests/golden.rs` pins them as the committed fixture.

use personalizer::{FeatureVector, PendingEventState, PersonalizerState};
use scope_ir::TemplateId;
use scope_opt::{Hint, RuleBits, RuleFlip, RuleId, SpanResult};
use scope_state::{
    ExploredState, FlightingState, LiteralsId, MetaState, MonitorState, MonitorTemplateState,
    SisState, SpanCacheEntry, SpanCacheState, SteeringSnapshot, ValidationState, WorkloadIdentity,
};

#[must_use]
pub fn sample_snapshot() -> SteeringSnapshot {
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
            weights: vec![(0, -3.0), (17, 0.125), (200, -0.0), (255, 28.875)],
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
