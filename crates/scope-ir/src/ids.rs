//! Strongly-typed identifiers and the seed-derivation vocabulary shared
//! across the workspace.
//!
//! Every stochastic draw in the simulation is derived from stable hashes via
//! [`mix64`], so runs are reproducible bit-for-bit. The *named* seed helpers
//! below ([`production_run_seed`], [`aa_run_seed`], the flighting seeds, and
//! the executor's internal stream seeds) centralize the per-purpose salts
//! that used to be magic constants scattered over the call sites — the
//! execution-result cache keys on the very same `(job_seed, run_seed)`
//! values these helpers produce, so cache and call sites must share one
//! vocabulary.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node inside a plan arena ([`crate::LogicalPlan`] /
/// [`crate::PhysicalPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena slot this id refers to.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of one submitted job (one execution of a script).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{:08x}", self.0)
    }
}

/// Identifier of a recurring job template. More than 60% of SCOPE jobs are
/// recurring: periodically arriving template-scripts with different input
/// cardinalities and filter predicates but the same set of operators.
/// QO-Advisor keys every hint on the template id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TemplateId(pub u64);

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tpl-{:08x}", self.0)
    }
}

/// The hash primitives every seed and fingerprint in the workspace derives
/// from. They are defined beside the vendored `serde::Serialize` because the
/// derive macro's streaming walk ([`Serialize::structural_hash`]) is spelled
/// with them; this module stays their public home.
///
/// [`hash_value`] is the reference walk over a materialized [`serde::Value`]
/// tree. No fingerprint calls it any more — [`crate::LogicalPlan`],
/// [`crate::PhysicalPlan`], the cluster epochs and the memo's dedup key all
/// use `structural_hash`, which returns the same bits without building the
/// tree — it is kept as the oracle `tests/structural_hash.rs` compares against.
pub use serde::hash::{hash_value, mix64, stable_hash64};

// ---------------------------------------------------------------------
// Named salt vocabulary (qo-lint rule QL03).
//
// Every raw salt below used to be a magic literal at its call site; the
// values are unchanged (see `named_salts_match_their_legacy_spellings`),
// so fingerprints, cache keys, and replayed runs stay byte-identical.
// New derivation salts belong here, not at call sites — `qo-lint --deny`
// enforces that.
// ---------------------------------------------------------------------

/// Salt of the contextual bandit's *training-pass* rank draw (the
/// logged-propensity stream; `qo_advisor::stages`).
pub const CB_TRAIN_RANK_SALT: u64 = 0x7821;
/// Salt of the contextual bandit's *acting-pass* rank draw.
pub const CB_ACT_RANK_SALT: u64 = 0xAC7;
/// Salt of the uniform-random baseline's span pick (Table 3 ablation).
pub const UNIFORM_PICK_SALT: u64 = 0x9A9;
/// Salt of `qo_advisor::baselines::random_flip`'s uniform rule draw.
pub const RANDOM_FLIP_SALT: u64 = 0xBA5E;
/// Tag OR-ed onto the sample ordinal in the exhaustive-search baseline.
pub const EXHAUSTIVE_SAMPLE_SALT: u64 = 0x4E91_0000;
/// Initial value of the slate-input content-fingerprint fold
/// (`qo_advisor::features`, the slate-cache key).
pub const SLATE_FP_SEED: u64 = 0x51A7E;
/// Boundary sentinel between actions inside the slate fingerprint fold.
pub const SLATE_ACTION_SENTINEL: u64 = 0xAC710;

/// Salt of [`crate::LogicalPlan::fingerprint`] (the compile-cache key).
pub const LOGICAL_FP_SALT: u64 = 0x05ca_1ab1_e0dd_ba11;
/// Salt of [`crate::PhysicalPlan::fingerprint`] (the execution-cache key).
pub const PHYSICAL_FP_SALT: u64 = 0x0e8e_c0de_5ca1_ab1e;
/// Salt of the cluster *hardware* config epoch (stage-graph memo sharing).
pub const CLUSTER_CONFIG_EPOCH_SALT: u64 = 0xc105_7e40_0000_0001;
/// Salt of the cluster *variance-model* half of the execution epoch.
pub const CLUSTER_VARIANCE_EPOCH_SALT: u64 = 0x0e8e_0000_0000_0002;
/// Salt of the optimizer memo's expression dedup key (`scope_opt::memo`).
pub const MEMO_EXPR_KEY_SALT: u64 = 0x3e30_de00_0000_0003;

/// Salt of the per-(template, config) experimental-rule instability draw
/// (`scope_opt::registry`).
pub const RULE_INSTABILITY_SALT: u64 = 0xDEAD_0000;
/// XOR flip separating the two uniform draws behind one tuning-noise
/// sample.
pub const TUNING_NOISE_AXIS_FLIP: u64 = 0xFF;
/// Salt of the fallback-path recompile-failure draw.
pub const FALLBACK_UNSTABLE_SALT: u64 = 0xFBFB_0001;
/// Salt of the disable-default-rule recompile-failure draw.
pub const DISABLE_UNSTABLE_SALT: u64 = 0x0FF0_0000;
/// Salt of the realized intermediate-compression IO ratio draw.
pub const COMPRESSION_IO_SALT: u64 = 0xC0DE_0000;

/// Default top-level seed of the synthetic workload
/// (`scope_workload::WorkloadConfig`).
pub const DEFAULT_WORKLOAD_SEED: u64 = 0x5c09e;
/// Tag OR-ed onto the template ordinal when deriving recurring-template
/// seeds from the workload seed.
pub const TEMPLATE_INDEX_SALT: u64 = 0x1000_0000;
/// Salt separating a template's *schedule* draws (period/phase) from its
/// structure draws.
pub const TEMPLATE_SCHEDULE_SALT: u64 = 0x5c4ed;
/// Salt deriving a [`JobId`] from a job seed.
pub const JOB_ID_SALT: u64 = 0x10b;
/// Tag OR-ed onto the ad-hoc ordinal when deriving one-off job seeds.
pub const ADHOC_TEMPLATE_SALT: u64 = 0xAD_0000;
/// Salt separating template-structure draws from instance-literal draws.
pub const TEMPLATE_STRUCTURE_SALT: u64 = 0x7e4a_91b5_02fd_11aa;
/// Salt of the Mixed-literal-policy stickiness draw.
pub const STICKY_LITERAL_SALT: u64 = 0x51_1C4B_F00D;
/// Salt of the day-over-day cardinality-drift stream.
pub const CARDINALITY_DRIFT_SALT: u64 = 0xD81F_7000;
/// Salt of the second uniform draw inside one drift sample.
pub const DRIFT_SECOND_DRAW_SALT: u64 = 0x77;
/// Salt deriving a tenant's private workload seed from a fleet base seed
/// (see [`tenant_workload_seed`]).
pub const TENANT_WORKLOAD_SALT: u64 = 0x7E4A_0017;

/// Salt of the shared daily production run seed (one cluster-noise draw per
/// simulated day, shared by the production view build and the counterfactual
/// default runs so both arms see identical conditions).
const PRODUCTION_RUN_SALT: u64 = 0x9806_0d0d;
/// Salt of the A/A re-run stream (`flighting::run_aa`).
const AA_RUN_SALT: u64 = 0xAA;
/// Per-arm salts of a flighting batch's baseline/treatment runs.
const FLIGHT_BASELINE_SALT: u64 = 0xA;
const FLIGHT_TREATMENT_SALT: u64 = 0xB;
/// Salt of the deterministic preflight failure/filter draw.
const PREFLIGHT_SALT: u64 = 0xF11;
/// Salt folding `(job_seed, run_seed)` into the executor's base RNG seed.
const EXEC_BASE_SALT: u64 = 0x5eed_cafe;
/// Tag OR-ed onto the stage ordinal for per-stage noise streams.
const EXEC_STAGE_SALT: u64 = 0x57A6_0000;

/// The run seed of production day `day`: every production execution of that
/// day (view build and counterfactual default runs alike) shares it, so
/// default-vs-steered deltas isolate the plan effect.
#[must_use]
pub fn production_run_seed(day: u32) -> u64 {
    mix64(u64::from(day), PRODUCTION_RUN_SALT)
}

/// The run seed of the `run_index`-th A/A re-execution of a job.
#[must_use]
pub fn aa_run_seed(run_index: u64) -> u64 {
    mix64(AA_RUN_SALT, run_index)
}

/// Run seed of a flighting batch's *baseline* arm.
#[must_use]
pub fn flight_baseline_run_seed(job_seed: u64, batch_salt: u64) -> u64 {
    mix64(job_seed, mix64(batch_salt, FLIGHT_BASELINE_SALT))
}

/// Run seed of a flighting batch's *treatment* arm.
#[must_use]
pub fn flight_treatment_run_seed(job_seed: u64, batch_salt: u64) -> u64 {
    mix64(job_seed, mix64(batch_salt, FLIGHT_TREATMENT_SALT))
}

/// Deterministic per-(job, batch) draw behind flighting's preflight
/// failure/filter taxonomy.
#[must_use]
pub fn preflight_draw(job_seed: u64, batch_salt: u64) -> u64 {
    mix64(job_seed, mix64(batch_salt, PREFLIGHT_SALT))
}

/// The executor's whole-run base RNG seed for `(job_seed, run_seed)`. Two
/// executions with equal base seeds (and equal plans/clusters) are
/// bit-identical — which is exactly what makes execution results cacheable.
#[must_use]
pub fn exec_base_seed(job_seed: u64, run_seed: u64) -> u64 {
    mix64(job_seed, mix64(run_seed, EXEC_BASE_SALT))
}

/// The per-stage noise-stream seed: aligned stages of two plans executed
/// under one run seed share noise (common random numbers).
#[must_use]
pub fn exec_stage_seed(base_seed: u64, stage_ordinal: u64) -> u64 {
    mix64(base_seed, stage_ordinal | EXEC_STAGE_SALT)
}

/// The workload seed of fleet tenant `tenant` derived from a fleet-wide
/// `base_seed`: a disjoint seed stream per tenant, so a fleet of
/// *non*-overlapping tenants draws unrelated templates, schedules, and
/// literals (overlapping fleets simply reuse `base_seed` verbatim instead).
#[must_use]
pub fn tenant_workload_seed(base_seed: u64, tenant: u32) -> u64 {
    mix64(base_seed, u64::from(tenant) ^ TENANT_WORKLOAD_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(stable_hash64(b"hello"), stable_hash64(b"hello"));
        assert_ne!(stable_hash64(b"hello"), stable_hash64(b"hellp"));
    }

    #[test]
    fn stable_hash_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn mix64_differs_by_argument() {
        assert_ne!(mix64(1, 2), mix64(1, 3));
        assert_ne!(mix64(1, 2), mix64(2, 1));
        assert_eq!(mix64(7, 9), mix64(7, 9));
    }

    #[test]
    fn seed_helpers_match_their_legacy_spellings() {
        // The helpers must reproduce the exact values of the magic-constant
        // call sites they replaced, or cached runs would diverge from the
        // pre-refactor outputs.
        assert_eq!(production_run_seed(7), mix64(7, 0x9806_0d0d));
        assert_eq!(aa_run_seed(3), mix64(0xAA, 3));
        assert_eq!(flight_baseline_run_seed(11, 2), mix64(11, mix64(2, 0xA)));
        assert_eq!(flight_treatment_run_seed(11, 2), mix64(11, mix64(2, 0xB)));
        assert_eq!(preflight_draw(11, 2), mix64(11, mix64(2, 0xF11)));
        assert_eq!(exec_base_seed(5, 9), mix64(5, mix64(9, 0x5eed_cafe)));
        assert_eq!(exec_stage_seed(42, 3), mix64(42, 3 | 0x57A6_0000));
        // Arms of one flight are distinct streams.
        assert_ne!(
            flight_baseline_run_seed(11, 2),
            flight_treatment_run_seed(11, 2)
        );
    }

    #[test]
    fn named_salts_match_their_legacy_spellings() {
        // Each named salt must keep the exact value of the magic literal it
        // replaced at its call site, or every fingerprint, cache key, and
        // replayed run would diverge from pre-refactor outputs.
        assert_eq!(CB_TRAIN_RANK_SALT, 0x7821);
        assert_eq!(CB_ACT_RANK_SALT, 0xAC7);
        assert_eq!(UNIFORM_PICK_SALT, 0x9A9);
        assert_eq!(RANDOM_FLIP_SALT, 0xBA5E);
        assert_eq!(EXHAUSTIVE_SAMPLE_SALT, 0x4E91_0000);
        assert_eq!(SLATE_FP_SEED, 0x51A7E);
        assert_eq!(SLATE_ACTION_SENTINEL, 0xAC710);
        assert_eq!(LOGICAL_FP_SALT, 0x05ca_1ab1_e0dd_ba11);
        assert_eq!(PHYSICAL_FP_SALT, 0x0e8e_c0de_5ca1_ab1e);
        assert_eq!(CLUSTER_CONFIG_EPOCH_SALT, 0xc105_7e40_0000_0001);
        assert_eq!(CLUSTER_VARIANCE_EPOCH_SALT, 0x0e8e_0000_0000_0002);
        assert_eq!(RULE_INSTABILITY_SALT, 0xDEAD_0000);
        assert_eq!(TUNING_NOISE_AXIS_FLIP, 0xFF);
        assert_eq!(FALLBACK_UNSTABLE_SALT, 0xFBFB_0001);
        assert_eq!(DISABLE_UNSTABLE_SALT, 0x0FF0_0000);
        assert_eq!(COMPRESSION_IO_SALT, 0xC0DE_0000);
        assert_eq!(DEFAULT_WORKLOAD_SEED, 0x5c09e);
        assert_eq!(TEMPLATE_INDEX_SALT, 0x1000_0000);
        assert_eq!(TEMPLATE_SCHEDULE_SALT, 0x5c4ed);
        assert_eq!(JOB_ID_SALT, 0x10b);
        assert_eq!(ADHOC_TEMPLATE_SALT, 0xAD_0000);
        assert_eq!(TEMPLATE_STRUCTURE_SALT, 0x7e4a_91b5_02fd_11aa);
        assert_eq!(STICKY_LITERAL_SALT, 0x51_1C4B_F00D);
        assert_eq!(CARDINALITY_DRIFT_SALT, 0xD81F_7000);
        assert_eq!(DRIFT_SECOND_DRAW_SALT, 0x77);
        assert_eq!(TENANT_WORKLOAD_SALT, 0x7E4A_0017);
    }

    #[test]
    fn tenant_workload_seeds_are_disjoint_and_stable() {
        let base = DEFAULT_WORKLOAD_SEED;
        let seeds: Vec<u64> = (0..64).map(|t| tenant_workload_seed(base, t)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert_ne!(*a, base, "tenant {i} must not alias the base seed");
            for (j, b) in seeds.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "tenants {i} and {j} must draw disjoint streams");
            }
        }
        assert_eq!(tenant_workload_seed(base, 7), tenant_workload_seed(base, 7));
    }

    #[test]
    fn hash_value_distinguishes_kinds_and_contents() {
        use serde::Value;
        let h = |v: &Value| hash_value(v, 0);
        assert_ne!(h(&Value::U64(0)), h(&Value::Bool(false)));
        assert_ne!(h(&Value::U64(1)), h(&Value::I64(1)));
        assert_eq!(h(&Value::Str("a".into())), h(&Value::Str("a".into())));
        assert_ne!(h(&Value::Str("a".into())), h(&Value::Str("b".into())));
        assert_ne!(
            h(&Value::Array(vec![Value::U64(1), Value::U64(2)])),
            h(&Value::Array(vec![Value::U64(2), Value::U64(1)]))
        );
    }

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.to_string(), "n42");
        assert_eq!(JobId(0xff).to_string(), "job-000000ff");
        assert_eq!(TemplateId(0xab).to_string(), "tpl-000000ab");
    }
}
