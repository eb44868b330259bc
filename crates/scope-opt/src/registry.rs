//! The 256-rule registry, mirroring the SCOPE optimizer's rule taxonomy
//! (§2.1): *required* rules (always enabled — normalization, fallback
//! implementations, exchange placement), *on-by-default* rules,
//! *off-by-default* rules (experimental or estimate-sensitive), and
//! *implementation* rules (logical → physical mappings).
//!
//! Roughly sixty ids are concrete rewrite/implementation/policy rules with
//! real semantics in [`crate::rules`] and [`crate::impls`]. The remaining ids
//! are **parametric physical-variant rules**: pattern-guarded alternatives
//! that implement a matching logical operator with non-identity
//! [`scope_ir::PhysicalTuning`] knobs. They model the long
//! tail of SCOPE rules the paper treats as opaque bits — each genuinely flows
//! through the memo search, can win or lose on estimated cost, and (for
//! experimental ones) can fail compilation for particular job templates.

use crate::config::{RuleBits, RuleConfig, RuleId, RULE_COUNT};
use scope_ir::ids::{
    mix64, stable_hash64, COMPRESSION_IO_SALT, DISABLE_UNSTABLE_SALT, FALLBACK_UNSTABLE_SALT,
    RULE_INSTABILITY_SALT, TUNING_NOISE_AXIS_FLIP,
};
use scope_ir::PhysicalTuning;
use serde::Serialize;

/// Rule categories from the paper (§2.1). The category decides the default
/// state and how the span algorithm treats the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RuleCategory {
    /// Must always be enabled to get valid plans. Never flipped.
    Required,
    /// Enabled by default; candidate for flipping off.
    OnByDefault,
    /// Disabled by default (experimental / estimate-sensitive); candidate
    /// for flipping on.
    OffByDefault,
    /// Logical → physical mapping rules; enabled by default.
    Implementation,
}

impl RuleCategory {
    /// Whether rules of this category are enabled in the default config.
    #[must_use]
    pub fn default_on(self) -> bool {
        !matches!(self, RuleCategory::OffByDefault)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleCategory::Required => "required",
            RuleCategory::OnByDefault => "on-by-default",
            RuleCategory::OffByDefault => "off-by-default",
            RuleCategory::Implementation => "implementation",
        }
    }
}

/// Concrete logical→logical rewrites. Implementations live in
/// [`crate::rules`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    FilterPushProject,
    FilterPushJoinLeft,
    FilterPushJoinRight,
    FilterPushUnion,
    FilterMerge,
    FilterPushAggregate,
    FilterPushSort,
    JoinAssocLeft,
    ProjectMerge,
    SortRemoveRedundant,
    TopSortFuse,
    UnionFlatten,
    ProjectPushJoin,
    SemiJoinReduction,
    JoinAssocRight,
    FilterPushProcess,
    TopPushUnion,
    ProjectThroughUnion,
}

/// Concrete logical→physical implementation rules. Implementations live in
/// [`crate::impls`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplKind {
    Scan,
    Filter,
    Project,
    HashJoin,
    MergeJoin,
    BroadcastJoin,
    NestedLoopJoin,
    HashAgg,
    StreamAgg,
    AggSplitLocalGlobal,
    Sort,
    TopN,
    Window,
    Process,
    UnionAll,
    Output,
}

/// Optimizer-wide policies gated by a rule bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Skip an exchange when the producer is already partitioned correctly.
    ShuffleElimination,
    /// Compress intermediate exchange data (claimed IO win, CPU cost).
    IntermediateCompression,
}

/// Parametric physical-variant rule: implement `target` (a logical operator
/// tag) with the default implementation flavor but non-identity tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricSpec {
    /// Logical operator tag this rule applies to (e.g. `"Join"`).
    pub target: &'static str,
    /// Tuning the optimizer *believes* (feeds estimated cost).
    pub claimed: PhysicalTuning,
    /// Probability mass of compile-time failure when this rule's variant is
    /// chosen for an incompatible job template (experimental rules only).
    pub instability: f64,
}

/// What a rule does.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleBehavior {
    /// Required normalization/bookkeeping passes; always fire.
    Normalization,
    /// Required fallback implementation covering every operator at a cost
    /// penalty, so disabling a specific implementation rule degrades the
    /// plan rather than breaking compilation.
    FallbackImpl,
    Transform(TransformKind),
    Implement(ImplKind),
    Policy(PolicyKind),
    Parametric(ParametricSpec),
}

/// One registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDef {
    pub id: RuleId,
    pub name: String,
    pub category: RuleCategory,
    pub behavior: RuleBehavior,
    /// Search priority: higher-promise rules are tried first; combined with
    /// the exploration budget this is one of the levers that makes the
    /// search heuristic (and therefore steerable).
    pub promise: f64,
}

impl RuleDef {
    /// True when flipping this rule is a legal steering action.
    #[must_use]
    pub fn flippable(&self) -> bool {
        self.category != RuleCategory::Required
    }
}

// Fixed id layout (documented so tests can rely on it):
//   0..=7     required
//   8..=20    on-by-default transforms
//   21..=25   off-by-default transforms
//   26..=41   implementation rules (32 = NestedLoopJoin is off-by-default)
//   42..=43   policies
//   44..=255  parametric physical-variant rules
pub const RULE_SCRIPT_STITCH: RuleId = RuleId(0);
pub const RULE_STATS_ANNOTATE: RuleId = RuleId(1);
pub const RULE_FALLBACK_EXEC: RuleId = RuleId(2);
pub const RULE_EXCHANGE_PLACEMENT: RuleId = RuleId(3);
pub const RULE_DEGREE_OF_PARALLELISM: RuleId = RuleId(4);
pub const RULE_PREDICATE_NORMALIZE: RuleId = RuleId(5);
pub const RULE_MEMO_DEDUP: RuleId = RuleId(6);
pub const RULE_PLAN_SERIALIZE: RuleId = RuleId(7);

pub const RULE_SHUFFLE_ELIMINATION: RuleId = RuleId(42);
pub const RULE_INTERMEDIATE_COMPRESSION: RuleId = RuleId(43);
pub const FIRST_PARAMETRIC: u16 = 44;

/// The full rule registry.
#[derive(Debug, Clone)]
pub struct RuleSet {
    rules: Vec<RuleDef>,
    default_config: RuleConfig,
    /// Implementation + parametric rule ids per logical operator tag, in
    /// registry order — precomputed because [`RuleSet::impls_for`] sits on
    /// the implementation pass's innermost loop (once per logical
    /// expression per compile, and again per dirty group per delta pass).
    impls_by_tag: rustc_hash::FxHashMap<&'static str, Vec<u16>>,
    /// Transform rules in descending promise order with their kinds,
    /// precomputed for the same reason: every compile's exploration walks
    /// them.
    transforms_by_promise: Vec<(RuleId, TransformKind)>,
}

impl RuleSet {
    /// Build the standard 256-rule registry. Deterministic: parametric rule
    /// parameters derive from stable hashes of the rule id.
    #[must_use]
    pub fn standard() -> Self {
        let mut rules: Vec<RuleDef> = Vec::with_capacity(RULE_COUNT);
        let mut push =
            |name: &str, category: RuleCategory, behavior: RuleBehavior, promise: f64| {
                let id = RuleId(rules.len() as u16);
                rules.push(RuleDef {
                    id,
                    name: name.to_string(),
                    category,
                    behavior,
                    promise,
                });
            };

        // -- required (0..=7) --
        push(
            "ScriptStitch",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );
        push(
            "StatsAnnotate",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );
        push(
            "FallbackExec",
            RuleCategory::Required,
            RuleBehavior::FallbackImpl,
            0.1,
        );
        push(
            "ExchangePlacement",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );
        push(
            "DegreeOfParallelism",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );
        push(
            "PredicateNormalize",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );
        push(
            "MemoDedup",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );
        push(
            "PlanSerialize",
            RuleCategory::Required,
            RuleBehavior::Normalization,
            100.0,
        );

        // -- on-by-default transforms (8..=20) --
        use RuleBehavior::Transform as T;
        use TransformKind::*;
        push(
            "FilterPushProject",
            RuleCategory::OnByDefault,
            T(FilterPushProject),
            9.0,
        );
        push(
            "FilterPushJoinLeft",
            RuleCategory::OnByDefault,
            T(FilterPushJoinLeft),
            9.5,
        );
        push(
            "FilterPushJoinRight",
            RuleCategory::OnByDefault,
            T(FilterPushJoinRight),
            9.4,
        );
        push(
            "FilterPushUnion",
            RuleCategory::OnByDefault,
            T(FilterPushUnion),
            8.0,
        );
        push(
            "FilterMerge",
            RuleCategory::OnByDefault,
            T(FilterMerge),
            9.8,
        );
        push(
            "FilterPushAggregate",
            RuleCategory::OnByDefault,
            T(FilterPushAggregate),
            8.5,
        );
        push(
            "FilterPushSort",
            RuleCategory::OnByDefault,
            T(FilterPushSort),
            8.4,
        );
        push(
            "JoinAssocLeft",
            RuleCategory::OnByDefault,
            T(JoinAssocLeft),
            7.0,
        );
        push(
            "ProjectMerge",
            RuleCategory::OnByDefault,
            T(ProjectMerge),
            6.0,
        );
        push(
            "SortRemoveRedundant",
            RuleCategory::OnByDefault,
            T(SortRemoveRedundant),
            6.5,
        );
        push(
            "TopSortFuse",
            RuleCategory::OnByDefault,
            T(TopSortFuse),
            6.4,
        );
        push(
            "UnionFlatten",
            RuleCategory::OnByDefault,
            T(UnionFlatten),
            5.0,
        );
        push(
            "ProjectPushJoin",
            RuleCategory::OnByDefault,
            T(ProjectPushJoin),
            7.5,
        );

        // -- off-by-default transforms (21..=25) --
        push(
            "SemiJoinReduction",
            RuleCategory::OffByDefault,
            T(SemiJoinReduction),
            7.2,
        );
        push(
            "JoinAssocRight",
            RuleCategory::OffByDefault,
            T(JoinAssocRight),
            6.8,
        );
        push(
            "FilterPushProcess",
            RuleCategory::OffByDefault,
            T(FilterPushProcess),
            8.2,
        );
        push(
            "TopPushUnion",
            RuleCategory::OffByDefault,
            T(TopPushUnion),
            6.2,
        );
        push(
            "ProjectThroughUnion",
            RuleCategory::OffByDefault,
            T(ProjectThroughUnion),
            5.5,
        );

        // -- implementation rules (26..=41) --
        use ImplKind::*;
        use RuleBehavior::Implement as I;
        push("ScanImpl", RuleCategory::Implementation, I(Scan), 5.0);
        push("FilterImpl", RuleCategory::Implementation, I(Filter), 5.0);
        push("ProjectImpl", RuleCategory::Implementation, I(Project), 5.0);
        push(
            "HashJoinImpl",
            RuleCategory::Implementation,
            I(HashJoin),
            5.0,
        );
        push(
            "MergeJoinImpl",
            RuleCategory::Implementation,
            I(MergeJoin),
            4.5,
        );
        push(
            "BroadcastJoinImpl",
            RuleCategory::Implementation,
            I(BroadcastJoin),
            4.8,
        );
        push(
            "NestedLoopJoinImpl",
            RuleCategory::OffByDefault,
            I(NestedLoopJoin),
            1.0,
        );
        push("HashAggImpl", RuleCategory::Implementation, I(HashAgg), 5.0);
        push(
            "StreamAggImpl",
            RuleCategory::Implementation,
            I(StreamAgg),
            4.5,
        );
        push(
            "AggSplitLocalGlobal",
            RuleCategory::Implementation,
            I(AggSplitLocalGlobal),
            4.7,
        );
        push("SortImpl", RuleCategory::Implementation, I(Sort), 5.0);
        push("TopNImpl", RuleCategory::Implementation, I(TopN), 5.0);
        push("WindowImpl", RuleCategory::Implementation, I(Window), 5.0);
        push("ProcessImpl", RuleCategory::Implementation, I(Process), 5.0);
        push(
            "UnionAllImpl",
            RuleCategory::Implementation,
            I(UnionAll),
            5.0,
        );
        push("OutputImpl", RuleCategory::Implementation, I(Output), 5.0);

        // -- policies (42..=43) --
        push(
            "ShuffleElimination",
            RuleCategory::OnByDefault,
            RuleBehavior::Policy(PolicyKind::ShuffleElimination),
            3.0,
        );
        push(
            "IntermediateCompression",
            RuleCategory::OnByDefault,
            RuleBehavior::Policy(PolicyKind::IntermediateCompression),
            3.0,
        );

        // -- parametric physical-variant rules (44..=255) --
        const TARGETS: [&str; 11] = [
            "Join",
            "Aggregate",
            "Extract",
            "Filter",
            "Project",
            "Sort",
            "Top",
            "Window",
            "Process",
            "Union",
            "Output",
        ];
        const VARIANTS: [&str; 14] = [
            "Vectorized",
            "Prefetch",
            "SpillTuned",
            "Fused",
            "Batched",
            "Pipelined",
            "Adaptive",
            "Compressed",
            "Reordered",
            "Speculative",
            "Cached",
            "Inlined",
            "WidePartition",
            "Compact",
        ];
        for raw in FIRST_PARAMETRIC..RULE_COUNT as u16 {
            let k = (raw - FIRST_PARAMETRIC) as usize;
            let target = TARGETS[k % TARGETS.len()];
            let variant = VARIANTS[(k / TARGETS.len()) % VARIANTS.len()];
            let name = format!("{target}{variant}{raw}");
            let h = stable_hash64(name.as_bytes());
            // Claimed effects: log-uniform around 1 with one dominant axis so
            // rules are distinguishable (pure-CPU rules, pure-IO rules, and
            // parallelism rules).
            let unit = |salt: u64| (mix64(h, salt) >> 11) as f64 / (1u64 << 53) as f64;
            let axis = mix64(h, 0xA) % 100;
            let spread = |u: f64, lo: f64, hi: f64| lo * (hi / lo).powf(u);
            let off = unit(5) < 0.45;
            // Enabled-by-default long-tail rules have mild, well-understood
            // effects; the experimental (off-by-default) tail is where the
            // big claimed wins — and the big risks — live. This is exactly
            // why SCOPE ships them off by default.
            let (io_lo, io_hi, cpu_lo, cpu_hi) = if off {
                (0.45, 1.20, 0.60, 1.25)
            } else {
                (0.82, 1.10, 0.85, 1.12)
            };
            let mut claimed = PhysicalTuning::IDENTITY;
            if axis < 42 {
                // IO-axis rules are the plurality: SCOPE's long tail is full
                // of I/O-shape knobs, and data volume is what the validation
                // model keys on.
                claimed.io_mult = spread(unit(2), io_lo, io_hi);
            } else if axis < 78 {
                claimed.cpu_mult = spread(unit(1), cpu_lo, cpu_hi);
            } else {
                claimed.parallelism_mult = if unit(3) < 0.5 { 0.5 } else { 2.0 };
                claimed.cpu_mult = spread(unit(4), 0.92, 1.08);
            }
            let category = if off {
                RuleCategory::OffByDefault
            } else {
                RuleCategory::OnByDefault
            };
            // Only experimental (off-by-default) rules are unstable.
            let instability = if off { 0.08 + 0.35 * unit(6) } else { 0.0 };
            let promise = 2.0 + 2.0 * unit(7);
            let id = RuleId(raw);
            rules.push(RuleDef {
                id,
                name,
                category,
                behavior: RuleBehavior::Parametric(ParametricSpec {
                    target,
                    claimed,
                    instability,
                }),
                promise,
            });
        }

        debug_assert_eq!(rules.len(), RULE_COUNT);
        let default_bits: RuleBits = rules
            .iter()
            .filter(|r| r.category.default_on())
            .map(|r| r.id)
            .collect();
        let mut impls_by_tag: rustc_hash::FxHashMap<&'static str, Vec<u16>> =
            rustc_hash::FxHashMap::default();
        for r in &rules {
            let tag = match &r.behavior {
                RuleBehavior::Implement(kind) => impl_targets(*kind),
                RuleBehavior::Parametric(spec) => spec.target,
                _ => continue,
            };
            impls_by_tag.entry(tag).or_default().push(r.id.0);
        }
        let mut transforms: Vec<(&RuleDef, TransformKind)> = rules
            .iter()
            .filter_map(|r| match r.behavior {
                RuleBehavior::Transform(kind) => Some((r, kind)),
                _ => None,
            })
            .collect();
        transforms
            .sort_by(|(a, _), (b, _)| b.promise.total_cmp(&a.promise).then(a.id.0.cmp(&b.id.0)));
        let transforms_by_promise = transforms.iter().map(|&(r, kind)| (r.id, kind)).collect();
        debug_assert!(matches!(
            rules[RULE_FALLBACK_EXEC.index()].behavior,
            RuleBehavior::FallbackImpl
        ));
        Self {
            rules,
            default_config: RuleConfig::from_bits(default_bits),
            impls_by_tag,
            transforms_by_promise,
        }
    }

    #[must_use]
    pub fn rule(&self, id: RuleId) -> &RuleDef {
        &self.rules[id.index()]
    }

    #[must_use]
    pub fn rules(&self) -> &[RuleDef] {
        &self.rules
    }

    /// The default SCOPE rule configuration.
    #[must_use]
    pub fn default_config(&self) -> RuleConfig {
        self.default_config
    }

    /// All rule ids whose category allows flipping.
    pub fn flippable(&self) -> impl Iterator<Item = RuleId> + '_ {
        self.rules.iter().filter(|r| r.flippable()).map(|r| r.id)
    }

    /// Transform rules in descending promise order (the deterministic order
    /// the search applies them in; precomputed at construction).
    pub fn transforms_by_promise(&self) -> impl Iterator<Item = &RuleDef> + '_ {
        self.transforms_by_promise
            .iter()
            .map(|&(id, _)| self.rule(id))
    }

    /// The transforms `config` enables, in descending promise order, each
    /// with its kind and its one-rule provenance bit: the list every
    /// exploration engine walks per logical expression.
    pub(crate) fn enabled_transforms(
        &self,
        config: &RuleConfig,
    ) -> Vec<(RuleId, TransformKind, RuleBits)> {
        self.transforms_by_promise
            .iter()
            .filter(|&&(id, _)| config.enabled(id))
            .map(|&(id, kind)| (id, kind, std::iter::once(id).collect()))
            .collect()
    }

    /// Implementation + parametric rules applicable to a logical tag, in
    /// registry order (precomputed at construction — this is the
    /// implementation pass's innermost lookup).
    pub fn impls_for(&self, logical_tag: &str) -> impl Iterator<Item = &RuleDef> + '_ {
        self.impls_by_tag
            .get(logical_tag)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(|&raw| &self.rules[raw as usize])
    }

    /// Deterministic instability draw for a (rule, template, configuration)
    /// triple: compilation fails when the rule is part of the chosen plan
    /// and this returns true. The configuration fingerprint participates
    /// because experimental-rule crashes depend on which *other* rules are
    /// active — which is also why the span-discovery passes (run under very
    /// different configurations) cannot pre-certify a rule as safe for the
    /// production single-flip configuration.
    #[must_use]
    pub fn unstable_for(&self, id: RuleId, template_seed: u64, config_fingerprint: u64) -> bool {
        let spec_instability = match &self.rule(id).behavior {
            RuleBehavior::Parametric(spec) => spec.instability,
            _ => 0.0,
        };
        if spec_instability <= 0.0 {
            return false;
        }
        let u = (mix64(
            mix64(template_seed, config_fingerprint),
            u64::from(id.0) | RULE_INSTABILITY_SALT,
        ) >> 11) as f64
            / (1u64 << 53) as f64;
        u < spec_instability
    }

    /// True ("actual") tuning of a parametric rule for a template: the
    /// claimed effect regressed toward 1 and perturbed per-template. The gap
    /// between claimed and actual is the controlled source of
    /// estimated-vs-real divergence for the rule long tail (paper §5.2).
    #[must_use]
    pub fn actual_tuning(&self, id: RuleId, template_seed: u64) -> PhysicalTuning {
        let RuleBehavior::Parametric(spec) = &self.rule(id).behavior else {
            return PhysicalTuning::IDENTITY;
        };
        let noise = |salt: u64, sigma: f64| -> f64 {
            // Log-normal-ish multiplicative noise from two uniform draws.
            let u1 = (mix64(template_seed, mix64(u64::from(id.0), salt)) >> 11) as f64
                / (1u64 << 53) as f64;
            let u2 = (mix64(
                template_seed,
                mix64(u64::from(id.0), salt ^ TUNING_NOISE_AXIS_FLIP),
            ) >> 11) as f64
                / (1u64 << 53) as f64;
            let n = (u1 + u2 - 1.0) * 2.0; // triangular on [-2, 2]
            (sigma * n).exp()
        };
        // True effects are weaker than claimed and noisy, and the two axes
        // regress differently: IO claims mostly materialize (bytes are easy
        // to reason about), CPU claims are largely cost-model optimism that
        // evaporates at runtime. This asymmetry is what makes estimated-cost
        // improvements a poor predictor of runtime improvements (Fig 6)
        // while DataRead/DataWritten deltas stay excellent predictors of
        // PNhours deltas (Figs 7/8).
        let regress = |claimed: f64, exponent: f64, salt: u64| {
            (claimed.powf(exponent) * noise(salt, 0.18)).max(0.05)
        };
        PhysicalTuning {
            cpu_mult: regress(spec.claimed.cpu_mult, 0.45, 1),
            io_mult: regress(spec.claimed.io_mult, 0.85, 2),
            // Parallelism is a deterministic plan property (vertex counts
            // must not be noisy), so actual == claimed.
            parallelism_mult: spec.claimed.parallelism_mult,
        }
    }
}

impl RuleSet {
    /// Whether forcing the *fallback* execution path (by disabling the
    /// specialized implementation rule an operator normally uses) crashes
    /// compilation for this template. The fallback path is rarely exercised
    /// in production, so it is the second major source of recompile
    /// failures besides experimental-rule instability.
    #[must_use]
    pub fn fallback_unstable_for(&self, template_seed: u64) -> bool {
        let u = (mix64(template_seed, FALLBACK_UNSTABLE_SALT) >> 11) as f64 / (1u64 << 53) as f64;
        u < 0.35
    }

    /// Whether *disabling* a default-on parametric rule crashes compilation
    /// for this (template, configuration): production code paths assume the
    /// default rule set, so turning long-tail rules off at job level
    /// exercises untested interactions (~10% of draws). Concrete rewrite and
    /// implementation rules are battle-tested and never fail this way.
    #[must_use]
    pub fn disable_unstable_for(
        &self,
        id: RuleId,
        template_seed: u64,
        config_fingerprint: u64,
    ) -> bool {
        let def = self.rule(id);
        if !matches!(def.behavior, RuleBehavior::Parametric(_)) || !def.category.default_on() {
            return false;
        }
        let u = (mix64(
            mix64(template_seed, config_fingerprint),
            u64::from(id.0) | DISABLE_UNSTABLE_SALT,
        ) >> 11) as f64
            / (1u64 << 53) as f64;
        u < 0.05
    }

    /// True IO multiplier of the intermediate-compression policy for a
    /// template (claimed is the cost model's `COMPRESSION_IO`; the
    /// realized ratio depends on how compressible the template's data is).
    #[must_use]
    pub fn compression_actual_io(&self, template_seed: u64) -> f64 {
        let u = (mix64(
            template_seed,
            u64::from(RULE_INTERMEDIATE_COMPRESSION.0) | COMPRESSION_IO_SALT,
        ) >> 11) as f64
            / (1u64 << 53) as f64;
        // Realized compression between 0.65 (very compressible) and 1.05
        // (incompressible, pure overhead).
        0.65 + 0.40 * u
    }
}

/// Logical tag each implementation kind applies to.
pub(crate) fn impl_targets(kind: ImplKind) -> &'static str {
    match kind {
        ImplKind::Scan => "Extract",
        ImplKind::Filter => "Filter",
        ImplKind::Project => "Project",
        ImplKind::HashJoin
        | ImplKind::MergeJoin
        | ImplKind::BroadcastJoin
        | ImplKind::NestedLoopJoin => "Join",
        ImplKind::HashAgg | ImplKind::StreamAgg | ImplKind::AggSplitLocalGlobal => "Aggregate",
        ImplKind::Sort => "Sort",
        ImplKind::TopN => "Top",
        ImplKind::Window => "Window",
        ImplKind::Process => "Process",
        ImplKind::UnionAll => "Union",
        ImplKind::Output => "Output",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_exactly_256_rules() {
        let rs = RuleSet::standard();
        assert_eq!(rs.rules().len(), RULE_COUNT);
        // Ids are dense and ordered.
        for (i, r) in rs.rules().iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
    }

    #[test]
    fn category_counts_are_sane() {
        let rs = RuleSet::standard();
        let count = |c: RuleCategory| rs.rules().iter().filter(|r| r.category == c).count();
        assert_eq!(count(RuleCategory::Required), 8);
        assert_eq!(count(RuleCategory::Implementation), 15); // NestedLoop is off-by-default
        let off = count(RuleCategory::OffByDefault);
        // 5 off transforms + NestedLoop + ~45% of 212 parametric.
        assert!(off > 60 && off < 140, "off-by-default count {off}");
    }

    #[test]
    fn default_config_enables_everything_but_off_rules() {
        let rs = RuleSet::standard();
        let cfg = rs.default_config();
        for r in rs.rules() {
            assert_eq!(cfg.enabled(r.id), r.category.default_on(), "{}", r.name);
        }
    }

    #[test]
    fn required_rules_are_not_flippable() {
        let rs = RuleSet::standard();
        for id in rs.flippable() {
            assert_ne!(rs.rule(id).category, RuleCategory::Required);
        }
        assert!(!rs.rule(RULE_FALLBACK_EXEC).flippable());
    }

    #[test]
    fn impls_for_join_include_all_flavors() {
        let rs = RuleSet::standard();
        let names: Vec<&str> = rs.impls_for("Join").map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"HashJoinImpl"));
        assert!(names.contains(&"MergeJoinImpl"));
        assert!(names.contains(&"BroadcastJoinImpl"));
        assert!(names.contains(&"NestedLoopJoinImpl"));
        // Plus a healthy number of parametric join variants.
        assert!(names.len() > 10, "{names:?}");
    }

    #[test]
    fn transforms_sorted_by_promise() {
        let rs = RuleSet::standard();
        let t: Vec<&RuleDef> = rs.transforms_by_promise().collect();
        for pair in t.windows(2) {
            assert!(pair[0].promise >= pair[1].promise);
        }
        assert_eq!(t[0].name, "FilterMerge");
    }

    #[test]
    fn instability_is_deterministic_and_limited_to_experimental() {
        let rs = RuleSet::standard();
        for r in rs.rules() {
            let unstable = rs.unstable_for(r.id, 12345, 99);
            assert_eq!(unstable, rs.unstable_for(r.id, 12345, 99));
            if unstable {
                assert_eq!(r.category, RuleCategory::OffByDefault, "{}", r.name);
            }
        }
        // Some experimental rule must be unstable for some template.
        let any = rs
            .rules()
            .iter()
            .any(|r| (0..50u64).any(|seed| rs.unstable_for(r.id, seed, 7)));
        assert!(any);
    }

    #[test]
    fn actual_tuning_differs_from_claimed_but_is_deterministic() {
        let rs = RuleSet::standard();
        let id = RuleId(FIRST_PARAMETRIC);
        let RuleBehavior::Parametric(spec) = &rs.rule(id).behavior else {
            panic!()
        };
        let a1 = rs.actual_tuning(id, 7);
        let a2 = rs.actual_tuning(id, 7);
        assert_eq!(a1, a2);
        let other = rs.actual_tuning(id, 8);
        assert!(a1 != other || spec.claimed.is_identity());
        assert!((a1.parallelism_mult - spec.claimed.parallelism_mult).abs() < 1e-12);
    }

    #[test]
    fn parametric_rules_have_one_dominant_axis() {
        let rs = RuleSet::standard();
        for r in rs.rules() {
            if let RuleBehavior::Parametric(spec) = &r.behavior {
                let t = spec.claimed;
                let moved = [
                    (t.cpu_mult - 1.0).abs() > 1e-9,
                    (t.io_mult - 1.0).abs() > 1e-9,
                    (t.parallelism_mult - 1.0).abs() > 1e-9,
                ];
                assert!(moved.iter().any(|&m| m), "{} is identity", r.name);
            }
        }
    }
}
