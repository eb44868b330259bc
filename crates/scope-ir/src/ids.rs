//! Strongly-typed identifiers and the seed-derivation vocabulary shared
//! across the workspace.
//!
//! Every stochastic draw in the simulation is derived from stable hashes, so
//! runs are reproducible bit-for-bit. Two values are mixed with [`combine`];
//! a seeded noise stream is separated from its siblings by a [`Salt`], and
//! every salt is a named constant of this module. The *named* seed helpers
//! below ([`production_run_seed`], [`aa_run_seed`], the flighting seeds, and
//! the executor's internal stream seeds) are the salted derivations more
//! than one crate needs — the execution-result cache keys on the very same
//! `(job_seed, run_seed)` values these helpers produce, so cache and call
//! sites must share one vocabulary.

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

/// The hash primitives every fingerprint in the workspace derives from.
/// They are defined beside the vendored `serde::Serialize` because the
/// derive macro's streaming walk ([`Serialize::structural_hash`]) is spelled
/// with them.
///
/// [`hash_value`] is the reference walk over a materialized [`serde::Value`]
/// tree. No fingerprint calls it any more — [`crate::LogicalPlan`],
/// [`crate::PhysicalPlan`], the cluster epochs and the memo's dedup key all
/// use `structural_hash`, which returns the same bits without building the
/// tree — it is kept as the oracle `tests/structural_hash.rs` compares against.
///
/// The raw mixer, `serde::hash::mix64`, is banned by `clippy.toml` outside
/// this module and the structural walk: data goes through [`combine`], a
/// seeded stream through a [`Salt`].
pub use serde::hash::{hash_value, stable_hash64, StableHasher};

/// Combine two 64-bit values into one (splitmix-style finalizer): cache
/// keys, feature crosses, job seeds from `(template, day, instance)`, test
/// digests. Both arguments are data. A literal passed here is the one way
/// left to make an unnamed seed stream; name it as a [`Salt`] instead.
#[must_use]
#[inline]
pub const fn combine(a: u64, b: u64) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "the one data mixer")]
    serde::hash::mix64(a, b)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of a hash.
#[must_use]
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The uniform draw of `salt`'s stream out of `seed`.
#[must_use]
#[inline]
pub fn unit_draw(seed: u64, salt: Salt) -> f64 {
    unit(salt.mix(seed))
}

/// A named derivation salt: the value that keeps one seeded noise stream
/// apart from every other stream drawn from the same seed. The field is
/// private, so every salt is a constant of this module, and two primary
/// salts with one value are a compile error.
///
/// ```compile_fail,E0423
/// let salt = scope_ir::ids::Salt(0xBEEF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Salt(u64);

impl Salt {
    /// `x` mixed with this salt (`mix64(x, salt)`).
    #[must_use]
    #[inline]
    pub const fn mix(self, x: u64) -> u64 {
        combine(x, self.0)
    }

    /// This salt as the start of a fold over `x` (`mix64(salt, x)`).
    #[must_use]
    #[inline]
    pub const fn start(self, x: u64) -> u64 {
        combine(self.0, x)
    }

    /// `x` mixed with `ordinal` tagged by this salt (`mix64(x, ordinal |
    /// salt)`): the salt sits above the ordinal's bits, so each family of
    /// ordinals (templates, stages, samples) keeps its own streams.
    #[must_use]
    #[inline]
    pub const fn mix_tagged(self, x: u64, ordinal: u64) -> u64 {
        combine(x, ordinal | self.0)
    }

    /// The second stream of this salt (`salt ^ flip`).
    #[must_use]
    #[inline]
    pub const fn flip(self, flip: Salt) -> Salt {
        Salt(self.0 ^ flip.0)
    }

    /// The structural fingerprint of `value` seeded with this salt.
    #[must_use]
    #[inline]
    pub fn fingerprint<T: Serialize + ?Sized>(self, value: &T) -> u64 {
        value.structural_hash(self.0)
    }

    /// The raw value, for oracle comparisons.
    #[must_use]
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }
}

/// Defines each primary salt as a constant and lists it in `SALTS`, so no
/// salt can skip the uniqueness check below.
macro_rules! salts {
    ($($(#[$doc:meta])* $vis:vis $name:ident = $value:expr;)*) => {
        $($(#[$doc])* $vis const $name: Salt = Salt($value);)*
        /// Every primary salt, aliases excluded.
        const SALTS: &[Salt] = &[$($name),*];
    };
}

// Each value is unchanged from the magic literal it replaced (see
// `named_salts_match_their_legacy_spellings`), so fingerprints, cache keys
// and replayed runs stay byte-identical.
salts! {
    /// Salt of the contextual bandit's *training-pass* rank draw (the
    /// logged-propensity stream; `qo_advisor::stages`).
    pub CB_TRAIN_RANK_SALT = 0x7821;
    /// Salt of the contextual bandit's *acting-pass* rank draw.
    pub CB_ACT_RANK_SALT = 0xAC7;
    /// Salt of the uniform-random baseline's span pick (Table 3 ablation).
    pub UNIFORM_PICK_SALT = 0x9A9;
    /// Salt of `qo_advisor::baselines::random_flip`'s uniform rule draw.
    pub RANDOM_FLIP_SALT = 0xBA5E;
    /// Tag of the sample ordinal in the exhaustive-search baseline.
    pub EXHAUSTIVE_SAMPLE_SALT = 0x4E91_0000;
    /// Initial value of the slate-input content-fingerprint fold
    /// (`qo_advisor::features`, the slate-cache key).
    pub SLATE_FP_SEED = 0x51A7E;
    /// Boundary sentinel between actions inside the slate fingerprint fold.
    pub SLATE_ACTION_SENTINEL = 0xAC710;

    /// Salt of [`crate::LogicalPlan::fingerprint`] (the compile-cache key).
    pub LOGICAL_FP_SALT = 0x05ca_1ab1_e0dd_ba11;
    /// Salt of [`crate::PhysicalPlan::fingerprint`] (the execution-cache key).
    pub PHYSICAL_FP_SALT = 0x0e8e_c0de_5ca1_ab1e;
    /// Salt of the cluster *hardware* config epoch (stage-graph memo sharing).
    pub CLUSTER_CONFIG_EPOCH_SALT = 0xc105_7e40_0000_0001;
    /// Salt of the cluster *variance-model* half of the execution epoch.
    pub CLUSTER_VARIANCE_EPOCH_SALT = 0x0e8e_0000_0000_0002;
    /// Salt of the optimizer memo's expression dedup key (`scope_opt::memo`).
    pub MEMO_EXPR_KEY_SALT = 0x3e30_de00_0000_0003;

    /// Salts of a parametric rule's claimed-effect draws from its name hash
    /// (`scope_opt::registry`): the CPU spread, the IO spread, the parallelism
    /// coin, a parallelism rule's CPU spread, the off-by-default coin, the
    /// instability rate and the promise.
    pub RULE_CLAIM_CPU_SALT = 1;
    pub RULE_CLAIM_IO_SALT = 2;
    pub RULE_CLAIM_PARALLELISM_SALT = 3;
    pub RULE_CLAIM_PARALLEL_CPU_SALT = 4;
    pub RULE_OFF_BY_DEFAULT_SALT = 5;
    pub RULE_INSTABILITY_RATE_SALT = 6;
    pub RULE_PROMISE_SALT = 7;
    /// Tag of the per-(template, config) experimental-rule instability draw.
    pub RULE_INSTABILITY_SALT = 0xDEAD_0000;
    /// Flip separating the two uniform draws behind one tuning-noise sample.
    pub TUNING_NOISE_AXIS_FLIP = 0xFF;
    /// Salt of the fallback-path recompile-failure draw.
    pub FALLBACK_UNSTABLE_SALT = 0xFBFB_0001;
    /// Tag of the disable-default-rule recompile-failure draw.
    pub DISABLE_UNSTABLE_SALT = 0x0FF0_0000;
    /// Tag of the realized intermediate-compression IO ratio draw.
    pub COMPRESSION_IO_SALT = 0xC0DE_0000;

    /// Tag of the template ordinal when deriving recurring-template seeds from
    /// the workload seed.
    pub TEMPLATE_INDEX_SALT = 0x1000_0000;
    /// Salt separating a template's *schedule* draws (period/phase) from its
    /// structure draws.
    pub TEMPLATE_SCHEDULE_SALT = 0x5c4ed;
    /// Salt deriving a [`JobId`] from a job seed.
    pub JOB_ID_SALT = 0x10b;
    /// Tag of the ad-hoc ordinal when deriving one-off job seeds.
    pub ADHOC_TEMPLATE_SALT = 0xAD_0000;
    /// Salt separating template-structure draws from instance-literal draws.
    pub TEMPLATE_STRUCTURE_SALT = 0x7e4a_91b5_02fd_11aa;
    /// Salt of the Mixed-literal-policy stickiness draw.
    pub STICKY_LITERAL_SALT = 0x51_1C4B_F00D;
    /// Tag of the day in the day-over-day cardinality-drift stream.
    pub CARDINALITY_DRIFT_SALT = 0xD81F_7000;
    /// Salt of the second uniform draw inside one drift sample.
    pub DRIFT_SECOND_DRAW_SALT = 0x77;
    /// Salt deriving a tenant's private workload seed from a fleet base seed
    /// (see [`tenant_workload_seed`]).
    TENANT_WORKLOAD_SALT = 0x7E4A_0017;
    /// Salt of the validation-model experiment's held-out production runs
    /// (`qo_bench`'s `experiments`; never cached or shared with the loop).
    pub HOLDOUT_RUN_SALT = 0xF19;

    /// Salt of the shared daily production run seed (one cluster-noise draw per
    /// simulated day, shared by the production view build and the counterfactual
    /// default runs so both arms see identical conditions).
    PRODUCTION_RUN_SALT = 0x9806_0d0d;
    /// Salt of the A/A re-run stream (`flighting::run_aa`).
    AA_RUN_SALT = 0xAA;
    /// Per-arm salts of a flighting batch's baseline/treatment runs.
    FLIGHT_BASELINE_SALT = 0xA;
    FLIGHT_TREATMENT_SALT = 0xB;
    /// Salt of the deterministic preflight failure/filter draw.
    PREFLIGHT_SALT = 0xF11;
    /// Salt folding `(job_seed, run_seed)` into the executor's base RNG seed.
    EXEC_BASE_SALT = 0x5eed_cafe;
    /// Tag of the stage ordinal for per-stage noise streams.
    EXEC_STAGE_SALT = 0x57A6_0000;
}

/// Salt of a parametric rule's dominant-axis draw. An alias: it has always
/// shared its value with `FLIGHT_BASELINE_SALT`. The two streams never
/// meet (a rule's name hash against a flighting batch id), and separating
/// them would move every rule's claimed effect.
pub const RULE_AXIS_SALT: Salt = FLIGHT_BASELINE_SALT;
/// Salts of the per-(template, rule) actual-tuning noise on the CPU and IO
/// axes. Aliases of the claimed-effect salts whose values they have always
/// shared; those draw from a rule's name hash, these from a template seed
/// mixed with the rule id.
pub const RULE_ACTUAL_CPU_SALT: Salt = RULE_CLAIM_CPU_SALT;
pub const RULE_ACTUAL_IO_SALT: Salt = RULE_CLAIM_IO_SALT;
/// Default top-level seed of the synthetic workload
/// (`scope_workload::WorkloadConfig`). A seed, not a salt.
pub const DEFAULT_WORKLOAD_SEED: u64 = 0x5c09e;

// Two primary salts with one value fail the build.
const _: () = {
    let mut i = 0;
    while i < SALTS.len() {
        let mut j = i + 1;
        while j < SALTS.len() {
            assert!(SALTS[i].0 != SALTS[j].0, "two salts share a value");
            j += 1;
        }
        i += 1;
    }
};

/// The run seed of production day `day`: every production execution of that
/// day (view build and counterfactual default runs alike) shares it, so
/// default-vs-steered deltas isolate the plan effect.
#[must_use]
pub fn production_run_seed(day: u32) -> u64 {
    PRODUCTION_RUN_SALT.mix(u64::from(day))
}

/// The run seed of the `run_index`-th A/A re-execution of a job.
#[must_use]
pub fn aa_run_seed(run_index: u64) -> u64 {
    AA_RUN_SALT.start(run_index)
}

/// Run seed of a flighting batch's *baseline* arm.
#[must_use]
pub fn flight_baseline_run_seed(job_seed: u64, batch_salt: u64) -> u64 {
    combine(job_seed, FLIGHT_BASELINE_SALT.mix(batch_salt))
}

/// Run seed of a flighting batch's *treatment* arm.
#[must_use]
pub fn flight_treatment_run_seed(job_seed: u64, batch_salt: u64) -> u64 {
    combine(job_seed, FLIGHT_TREATMENT_SALT.mix(batch_salt))
}

/// Deterministic per-(job, batch) draw behind flighting's preflight
/// failure/filter taxonomy.
#[must_use]
pub fn preflight_draw(job_seed: u64, batch_salt: u64) -> u64 {
    combine(job_seed, PREFLIGHT_SALT.mix(batch_salt))
}

/// The executor's whole-run base RNG seed for `(job_seed, run_seed)`. Two
/// executions with equal base seeds (and equal plans/clusters) are
/// bit-identical — which is exactly what makes execution results cacheable.
#[must_use]
pub fn exec_base_seed(job_seed: u64, run_seed: u64) -> u64 {
    combine(job_seed, EXEC_BASE_SALT.mix(run_seed))
}

/// The per-stage noise-stream seed: aligned stages of two plans executed
/// under one run seed share noise (common random numbers).
#[must_use]
pub fn exec_stage_seed(base_seed: u64, stage_ordinal: u64) -> u64 {
    EXEC_STAGE_SALT.mix_tagged(base_seed, stage_ordinal)
}

/// The workload seed of fleet tenant `tenant` derived from a fleet-wide
/// `base_seed`: a disjoint seed stream per tenant, so a fleet of
/// *non*-overlapping tenants draws unrelated templates, schedules, and
/// literals (overlapping fleets simply reuse `base_seed` verbatim instead).
#[must_use]
pub fn tenant_workload_seed(base_seed: u64, tenant: u32) -> u64 {
    combine(base_seed, u64::from(tenant) ^ TENANT_WORKLOAD_SALT.0)
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
        assert_ne!(combine(1, 2), combine(1, 3));
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_eq!(combine(7, 9), combine(7, 9));
    }

    #[test]
    fn seed_helpers_match_their_legacy_spellings() {
        // The helpers must reproduce the exact values of the magic-constant
        // call sites they replaced, or cached runs would diverge from the
        // pre-refactor outputs.
        assert_eq!(production_run_seed(7), combine(7, 0x9806_0d0d));
        assert_eq!(aa_run_seed(3), combine(0xAA, 3));
        assert_eq!(
            flight_baseline_run_seed(11, 2),
            combine(11, combine(2, 0xA))
        );
        assert_eq!(
            flight_treatment_run_seed(11, 2),
            combine(11, combine(2, 0xB))
        );
        assert_eq!(preflight_draw(11, 2), combine(11, combine(2, 0xF11)));
        assert_eq!(exec_base_seed(5, 9), combine(5, combine(9, 0x5eed_cafe)));
        assert_eq!(exec_stage_seed(42, 3), combine(42, 3 | 0x57A6_0000));
        // Arms of one flight are distinct streams.
        assert_ne!(
            flight_baseline_run_seed(11, 2),
            flight_treatment_run_seed(11, 2)
        );
    }

    #[test]
    fn salt_shapes_keep_their_spellings() {
        let salt = Salt(0x1234);
        assert_eq!(salt.mix(9), combine(9, 0x1234));
        assert_eq!(salt.start(9), combine(0x1234, 9));
        assert_eq!(salt.mix_tagged(9, 5), combine(9, 5 | 0x1234));
        assert_eq!(salt.flip(Salt(0xFF)), Salt(0x1234 ^ 0xFF));
        assert_eq!(salt.fingerprint(&3u64), 3u64.structural_hash(0x1234));
        let h = salt.mix(9);
        assert_eq!(
            unit(h).to_bits(),
            ((h >> 11) as f64 / (1u64 << 53) as f64).to_bits()
        );
        assert_eq!(unit_draw(9, salt), unit(h));
    }

    #[test]
    fn named_salts_match_their_legacy_spellings() {
        // Each named salt must keep the exact value of the magic literal it
        // replaced at its call site, or every fingerprint, cache key, and
        // replayed run would diverge from pre-refactor outputs.
        let pinned: &[(Salt, u64)] = &[
            (CB_TRAIN_RANK_SALT, 0x7821),
            (CB_ACT_RANK_SALT, 0xAC7),
            (UNIFORM_PICK_SALT, 0x9A9),
            (RANDOM_FLIP_SALT, 0xBA5E),
            (EXHAUSTIVE_SAMPLE_SALT, 0x4E91_0000),
            (SLATE_FP_SEED, 0x51A7E),
            (SLATE_ACTION_SENTINEL, 0xAC710),
            (LOGICAL_FP_SALT, 0x05ca_1ab1_e0dd_ba11),
            (PHYSICAL_FP_SALT, 0x0e8e_c0de_5ca1_ab1e),
            (CLUSTER_CONFIG_EPOCH_SALT, 0xc105_7e40_0000_0001),
            (CLUSTER_VARIANCE_EPOCH_SALT, 0x0e8e_0000_0000_0002),
            (MEMO_EXPR_KEY_SALT, 0x3e30_de00_0000_0003),
            (RULE_CLAIM_CPU_SALT, 1),
            (RULE_CLAIM_IO_SALT, 2),
            (RULE_CLAIM_PARALLELISM_SALT, 3),
            (RULE_CLAIM_PARALLEL_CPU_SALT, 4),
            (RULE_OFF_BY_DEFAULT_SALT, 5),
            (RULE_INSTABILITY_RATE_SALT, 6),
            (RULE_PROMISE_SALT, 7),
            (RULE_AXIS_SALT, 0xA),
            (RULE_ACTUAL_CPU_SALT, 1),
            (RULE_ACTUAL_IO_SALT, 2),
            (RULE_INSTABILITY_SALT, 0xDEAD_0000),
            (TUNING_NOISE_AXIS_FLIP, 0xFF),
            (FALLBACK_UNSTABLE_SALT, 0xFBFB_0001),
            (DISABLE_UNSTABLE_SALT, 0x0FF0_0000),
            (COMPRESSION_IO_SALT, 0xC0DE_0000),
            (TEMPLATE_INDEX_SALT, 0x1000_0000),
            (TEMPLATE_SCHEDULE_SALT, 0x5c4ed),
            (JOB_ID_SALT, 0x10b),
            (ADHOC_TEMPLATE_SALT, 0xAD_0000),
            (TEMPLATE_STRUCTURE_SALT, 0x7e4a_91b5_02fd_11aa),
            (STICKY_LITERAL_SALT, 0x51_1C4B_F00D),
            (CARDINALITY_DRIFT_SALT, 0xD81F_7000),
            (DRIFT_SECOND_DRAW_SALT, 0x77),
            (TENANT_WORKLOAD_SALT, 0x7E4A_0017),
            (HOLDOUT_RUN_SALT, 0xF19),
            (PRODUCTION_RUN_SALT, 0x9806_0d0d),
            (AA_RUN_SALT, 0xAA),
            (FLIGHT_BASELINE_SALT, 0xA),
            (FLIGHT_TREATMENT_SALT, 0xB),
            (PREFLIGHT_SALT, 0xF11),
            (EXEC_BASE_SALT, 0x5eed_cafe),
            (EXEC_STAGE_SALT, 0x57A6_0000),
        ];
        for &(salt, value) in pinned {
            assert_eq!(salt.0, value);
        }
        assert_eq!(DEFAULT_WORKLOAD_SEED, 0x5c09e);
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
