//! Recurring job templates: script skeletons whose instances differ only in
//! literal values and input cardinalities (paper §2.1).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scope_ir::ids::{
    combine, stable_hash64, unit, unit_draw, CARDINALITY_DRIFT_SALT, DRIFT_SECOND_DRAW_SALT,
    STICKY_LITERAL_SALT, TEMPLATE_STRUCTURE_SALT,
};
use scope_ir::stats::DualStats;
use scope_lang::{Catalog, TableInfo};
use serde::Serialize;
use std::fmt::Write as _;

/// Structural pattern of a template. The mix approximates the operator
/// composition of analytical SCOPE workloads: aggregation reports, join
/// pipelines, ingestion unions with user code, and top-k dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Pattern {
    FilterAgg,
    JoinAgg,
    TriJoinAgg,
    UnionProcess,
    TopK,
    SharedMultiOutput,
}

impl Pattern {
    const ALL: [Pattern; 6] = [
        Pattern::FilterAgg,
        Pattern::JoinAgg,
        Pattern::TriJoinAgg,
        Pattern::UnionProcess,
        Pattern::TopK,
        Pattern::SharedMultiOutput,
    ];

    /// Weighted draw (FilterAgg and JoinAgg dominate real workloads).
    fn draw(rng: &mut StdRng) -> Pattern {
        let weights = [28u32, 26, 12, 14, 10, 10];
        let total: u32 = weights.iter().sum();
        let mut x = rng.random_range(0..total);
        for (p, w) in Self::ALL.iter().zip(weights) {
            if x < w {
                return *p;
            }
            x -= w;
        }
        Pattern::FilterAgg
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pattern::FilterAgg => "FilterAgg",
            Pattern::JoinAgg => "JoinAgg",
            Pattern::TriJoinAgg => "TriJoinAgg",
            Pattern::UnionProcess => "UnionProcess",
            Pattern::TopK => "TopK",
            Pattern::SharedMultiOutput => "SharedMultiOutput",
        }
    }
}

/// One base table of a template.
#[derive(Debug, Clone, Serialize)]
pub struct TableDef {
    pub path: String,
    /// Long-run cardinality; the catalog estimate every instance sees.
    pub base_rows: f64,
}

/// Structural metadata of a template (used by tests and reports).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TemplateStats {
    pub pattern: Pattern,
    pub num_tables: usize,
}

/// A recurring job template: a script skeleton with literal placeholders
/// (`__L0__`, `__L1__`, …) plus its base tables.
#[derive(Debug, Clone, Serialize)]
pub struct TemplateSpec {
    pub seed: u64,
    /// Base of the submitted job name (instances append date/run suffixes).
    pub base_name: String,
    /// Script skeleton with literal placeholders.
    pub skeleton: String,
    pub tables: Vec<TableDef>,
    pub stats: TemplateStats,
}

/// How a template's instances redraw their filter literals (and the
/// cardinality snapshot they are bound against) across submissions.
///
/// The paper's steering wins come from *recurring* SCOPE scripts — the same
/// job resubmitted daily, byte-for-byte. [`FreshEachRun`] instead redraws
/// literals per `(day, instance)`, which makes every submission a unique
/// exact plan; that is the hardest regime for any fingerprint-keyed compile
/// cache. [`Sticky`] pins the draws for a whole epoch, so an instance is the
/// *same script over the same catalog snapshot* until the next redraw — its
/// bound plan, and therefore its exact plan fingerprint, repeats across
/// days. [`Mixed`] models a fleet where only a fraction of templates are
/// truly recurring scripts.
///
/// The policy only affects *which seeds* the existing draws use; a given
/// `(policy, day, instance)` is as deterministic as before, and
/// [`FreshEachRun`] is byte-identical to the pre-policy generator.
///
/// [`FreshEachRun`]: LiteralPolicy::FreshEachRun
/// [`Sticky`]: LiteralPolicy::Sticky
/// [`Mixed`]: LiteralPolicy::Mixed
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub enum LiteralPolicy {
    /// Redraw literals on every `(day, instance)` — the original behavior.
    #[default]
    FreshEachRun,
    /// All templates keep their literals (and catalog snapshot) for
    /// `redraw_every_days` days, then redraw; `0` means never redraw.
    /// Instances of one template within an epoch are identical scripts.
    Sticky { redraw_every_days: u32 },
    /// Each template is independently sticky-forever with probability
    /// `sticky_fraction` (drawn deterministically from its seed), fresh
    /// otherwise.
    Mixed { sticky_fraction: f64 },
}

impl LiteralPolicy {
    /// Whether this policy pins `template_seed`'s literals (diagnostics and
    /// tests; [`draw_coords`](Self::draw_coords) is the authoritative use).
    #[must_use]
    pub fn is_sticky_template(&self, template_seed: u64) -> bool {
        match *self {
            LiteralPolicy::FreshEachRun => false,
            LiteralPolicy::Sticky { .. } => true,
            LiteralPolicy::Mixed { sticky_fraction } => {
                unit_draw(template_seed, STICKY_LITERAL_SALT) < sticky_fraction
            }
        }
    }

    /// The `(day, instance)` coordinates the literal and cardinality draws
    /// use for an instance submitted on `day`. Fresh templates use the
    /// submission coordinates; sticky templates use their epoch's first day
    /// (and instance 0), so every submission inside the epoch binds the
    /// identical plan.
    #[must_use]
    pub fn draw_coords(&self, template_seed: u64, day: u32, instance: u32) -> (u32, u32) {
        let sticky_epoch_start = match *self {
            LiteralPolicy::FreshEachRun => return (day, instance),
            LiteralPolicy::Mixed { .. } => {
                if !self.is_sticky_template(template_seed) {
                    return (day, instance);
                }
                0
            }
            LiteralPolicy::Sticky { redraw_every_days } => {
                if redraw_every_days == 0 {
                    0
                } else {
                    day - day % redraw_every_days
                }
            }
        };
        (sticky_epoch_start, 0)
    }
}

/// Parse the CLI spelling of a policy (`experiments --literals`): `fresh`,
/// `sticky`, `sticky:N` (redraw every `N` days), or `mixed:F` (sticky
/// fraction `F` in `[0, 1]`).
impl std::str::FromStr for LiteralPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let expected = "expected fresh|sticky[:days]|mixed:fraction";
        match s.split_once(':') {
            None => match s {
                "fresh" => Ok(LiteralPolicy::FreshEachRun),
                "sticky" => Ok(LiteralPolicy::Sticky {
                    redraw_every_days: 0,
                }),
                _ => Err(format!("unknown literal policy `{s}` ({expected})")),
            },
            Some(("sticky", days)) => days
                .parse()
                .map(|redraw_every_days| LiteralPolicy::Sticky { redraw_every_days })
                .map_err(|_| format!("bad sticky day count in `{s}` ({expected})")),
            Some(("mixed", fraction)) => {
                let sticky_fraction: f64 = fraction
                    .parse()
                    .map_err(|_| format!("bad mixed fraction in `{s}` ({expected})"))?;
                if !(0.0..=1.0).contains(&sticky_fraction) {
                    return Err(format!(
                        "mixed fraction {sticky_fraction} outside [0, 1] ({expected})"
                    ));
                }
                Ok(LiteralPolicy::Mixed { sticky_fraction })
            }
            Some(_) => Err(format!("unknown literal policy `{s}` ({expected})")),
        }
    }
}

/// The literal placeholders a skeleton may hold; each appears at most once,
/// and the generated skeletons spell nothing else that starts with `__L`.
const PLACEHOLDERS: [&str; 4] = ["__L0__", "__L1__", "__L2__", "__L3__"];

/// Day-over-day drift of a table's true cardinality: deterministic
/// log-normal-ish multiplier in roughly [0.5, 2.0].
#[must_use]
pub fn cardinality_drift(table_path: &str, day: u32) -> f64 {
    let h = CARDINALITY_DRIFT_SALT.mix_tagged(stable_hash64(table_path.as_bytes()), u64::from(day));
    let u1 = unit(h);
    let u2 = unit_draw(h, DRIFT_SECOND_DRAW_SALT);
    let n = (u1 + u2 - 1.0) * 2.0; // triangular in [-2, 2]
    (0.35 * n).exp()
}

impl TemplateSpec {
    /// Generate a template from a seed.
    #[must_use]
    pub fn generate(seed: u64) -> TemplateSpec {
        let mut rng = StdRng::seed_from_u64(TEMPLATE_STRUCTURE_SALT.mix(seed));
        let pattern = Pattern::draw(&mut rng);
        let tag = format!("{seed:010x}");
        let table = |i: usize, rng: &mut StdRng, lo: f64, hi: f64| {
            let u: f64 = rng.random_range(0.0..1.0);
            TableDef {
                path: format!("store/{tag}_t{i}"),
                base_rows: lo * (hi / lo).powf(u),
            }
        };
        let (skeleton, tables) = match pattern {
            Pattern::FilterAgg => {
                let t0 = table(0, &mut rng, 1e6, 2e9);
                let s = format!(
                    r#"
raw = EXTRACT k:int, a:int, b:int, v:float FROM "{p0}";
flt = SELECT k, a, v FROM raw WHERE v > __L0__ AND a > __L1__;
rpt = SELECT k, SUM(v) AS total, COUNT(*) AS n FROM flt GROUP BY k;
OUTPUT rpt TO "out/{tag}_report";
"#,
                    p0 = t0.path,
                );
                (s, vec![t0])
            }
            Pattern::JoinAgg => {
                let fact = table(0, &mut rng, 1e7, 5e9);
                let dim = table(1, &mut rng, 1e4, 1e7);
                let s = format!(
                    r#"
fact = EXTRACT k:int, a:int, v:float FROM "{p0}";
dim  = EXTRACT k:int, g:int, s:string FROM "{p1}";
flt  = SELECT k, v FROM fact WHERE v > __L0__;
j    = SELECT * FROM flt AS f JOIN dim AS d ON f.k == d.k;
rpt  = SELECT g, SUM(v) AS total, COUNT(*) AS n FROM j GROUP BY g;
OUTPUT rpt TO "out/{tag}_joined";
"#,
                    p0 = fact.path,
                    p1 = dim.path,
                );
                (s, vec![fact, dim])
            }
            Pattern::TriJoinAgg => {
                let fact = table(0, &mut rng, 1e7, 5e9);
                let d1 = table(1, &mut rng, 1e4, 1e7);
                let d2 = table(2, &mut rng, 1e3, 1e6);
                let s = format!(
                    r#"
fact = EXTRACT k:int, m:int, v:float FROM "{p0}";
d1   = EXTRACT k:int, g:int FROM "{p1}";
d2   = EXTRACT m:int, region:string FROM "{p2}";
flt  = SELECT k, m, v FROM fact WHERE v > __L0__;
j1   = SELECT * FROM flt AS f JOIN d1 ON f.k == d1.k;
j2   = SELECT * FROM j1 JOIN d2 ON j1.m == d2.m;
rpt  = SELECT g, SUM(v) AS total FROM j2 GROUP BY g;
OUTPUT rpt TO "out/{tag}_cube";
"#,
                    p0 = fact.path,
                    p1 = d1.path,
                    p2 = d2.path,
                );
                (s, vec![fact, d1, d2])
            }
            Pattern::UnionProcess => {
                let t0 = table(0, &mut rng, 1e6, 1e9);
                let t1 = table(1, &mut rng, 1e6, 1e9);
                let s = format!(
                    r#"
s0 = EXTRACT k:int, v:float FROM "{p0}";
s1 = EXTRACT k:int, v:float FROM "{p1}";
u  = UNION s0, s1;
p  = PROCESS u USING Udf{tag};
rpt = SELECT k, SUM(v) AS total, AVG(v) AS mean FROM p GROUP BY k;
OUTPUT rpt TO "out/{tag}_cleansed";
"#,
                    p0 = t0.path,
                    p1 = t1.path,
                );
                (s, vec![t0, t1])
            }
            Pattern::TopK => {
                let fact = table(0, &mut rng, 1e7, 2e9);
                let dim = table(1, &mut rng, 1e4, 1e7);
                let k = [50u64, 100, 500][rng.random_range(0..3usize)];
                let s = format!(
                    r#"
fact = EXTRACT k:int, a:int, v:float FROM "{p0}";
dim  = EXTRACT k:int, name:string FROM "{p1}";
flt  = SELECT k, v FROM fact WHERE v > __L0__;
j    = SELECT * FROM flt AS f JOIN dim AS d ON f.k == d.k;
agg  = SELECT name, SUM(v) AS total FROM j GROUP BY name;
topk = SELECT TOP {k} name, total FROM agg ORDER BY total DESC;
OUTPUT topk TO "out/{tag}_top";
"#,
                    p0 = fact.path,
                    p1 = dim.path,
                );
                (s, vec![fact, dim])
            }
            Pattern::SharedMultiOutput => {
                let t0 = table(0, &mut rng, 1e6, 2e9);
                let s = format!(
                    r#"
raw  = EXTRACT k:int, a:int, v:float FROM "{p0}";
flt  = SELECT k, a, v FROM raw WHERE v > __L0__;
agg  = SELECT k, SUM(v) AS total FROM flt GROUP BY k;
hot  = SELECT TOP 50 k, a, v FROM flt ORDER BY v DESC;
OUTPUT agg TO "out/{tag}_rollup";
OUTPUT hot TO "out/{tag}_hot";
"#,
                    p0 = t0.path,
                );
                (s, vec![t0])
            }
        };
        let num_tables = tables.len();
        TemplateSpec {
            seed,
            base_name: format!("{}_{tag}", pattern.name()),
            skeleton,
            tables,
            stats: TemplateStats {
                pattern,
                num_tables,
            },
        }
    }

    /// Concrete script + catalog for one instance under the default
    /// [`LiteralPolicy::FreshEachRun`]: literals drawn per instance, catalog
    /// estimates stale at `base_rows`, true cardinalities drifting by day.
    #[must_use]
    pub fn instantiate(&self, day: u32, instance: u32) -> (String, Catalog) {
        self.instantiate_with(LiteralPolicy::FreshEachRun, day, instance)
    }

    /// Like [`instantiate`](Self::instantiate) but drawing literals and the
    /// catalog's cardinality snapshot at the coordinates `policy` dictates:
    /// a sticky instance reproduces its epoch's script *and* inputs exactly,
    /// so its bound plan repeats byte-for-byte until the next redraw.
    #[must_use]
    pub fn instantiate_with(
        &self,
        policy: LiteralPolicy,
        day: u32,
        instance: u32,
    ) -> (String, Catalog) {
        let (day, instance) = policy.draw_coords(self.seed, day, instance);
        let mut rng = StdRng::seed_from_u64(combine(
            self.seed,
            combine(u64::from(day), u64::from(instance)),
        ));
        // One draw per placeholder the skeleton holds, in index order; then
        // one pass writes the script with every placeholder replaced.
        let mut values = [None; PLACEHOLDERS.len()];
        for (value, placeholder) in values.iter_mut().zip(PLACEHOLDERS) {
            if self.skeleton.contains(placeholder) {
                *value = Some(rng.random_range(1..10_000i64));
            }
        }
        // A value is never longer than its placeholder.
        let mut script = String::with_capacity(self.skeleton.len());
        let mut rest = self.skeleton.as_str();
        while let Some(at) = rest.find("__L") {
            script.push_str(&rest[..at]);
            rest = &rest[at..];
            let hit = PLACEHOLDERS
                .iter()
                .zip(values)
                .find(|(p, _)| rest.starts_with(*p));
            if let Some((placeholder, Some(value))) = hit {
                // Writing to a `String` cannot fail.
                let _ = write!(script, "{value}");
                rest = &rest[placeholder.len()..];
            } else {
                script.push_str("__L");
                rest = &rest[3..];
            }
        }
        script.push_str(rest);
        let mut catalog = Catalog::default();
        for t in &self.tables {
            let actual = t.base_rows * cardinality_drift(&t.path, day);
            catalog.register(
                t.path.clone(),
                TableInfo {
                    rows: DualStats::new(actual, t.base_rows),
                },
            );
        }
        (script, catalog)
    }

    /// The submitted (un-normalized) job name of one instance.
    #[must_use]
    pub fn instance_name(&self, day: u32, instance: u32) -> String {
        format!(
            "{}_{:04}_{:02}_run{}",
            self.base_name,
            2021 + day / 365,
            day % 365,
            instance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_lang::bind_script;

    #[test]
    fn generation_is_deterministic() {
        let a = TemplateSpec::generate(17);
        let b = TemplateSpec::generate(17);
        assert_eq!(a.skeleton, b.skeleton);
        assert_eq!(a.base_name, b.base_name);
        let c = TemplateSpec::generate(18);
        assert_ne!(a.skeleton, c.skeleton);
    }

    #[test]
    fn instances_share_template_identity() {
        let spec = TemplateSpec::generate(99);
        let (s1, c1) = spec.instantiate(0, 0);
        let (s2, c2) = spec.instantiate(5, 1);
        let p1 = bind_script(&s1, &c1).unwrap();
        let p2 = bind_script(&s2, &c2).unwrap();
        assert_eq!(
            p1.template_id(),
            p2.template_id(),
            "instances share the template"
        );
    }

    #[test]
    fn different_templates_have_different_identity() {
        let a = TemplateSpec::generate(1);
        let b = TemplateSpec::generate(2);
        let (sa, ca) = a.instantiate(0, 0);
        let (sb, cb) = b.instantiate(0, 0);
        assert_ne!(
            bind_script(&sa, &ca).unwrap().template_id(),
            bind_script(&sb, &cb).unwrap().template_id()
        );
    }

    #[test]
    fn all_patterns_produce_bindable_scripts() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..60u64 {
            let spec = TemplateSpec::generate(seed);
            let (script, catalog) = spec.instantiate(3, 0);
            let plan = bind_script(&script, &catalog)
                .unwrap_or_else(|e| panic!("seed {seed} pattern {:?}: {e}", spec.stats.pattern));
            plan.validate().unwrap();
            seen.insert(spec.stats.pattern);
        }
        assert!(seen.len() >= 5, "covered {} patterns", seen.len());
    }

    #[test]
    fn cardinality_drift_is_deterministic_and_bounded() {
        let d1 = cardinality_drift("store/x", 5);
        let d2 = cardinality_drift("store/x", 5);
        assert_eq!(d1, d2);
        for day in 0..100 {
            let d = cardinality_drift("store/x", day);
            assert!((0.3..3.5).contains(&d), "drift {d} out of range");
        }
        // Varies across days.
        assert_ne!(
            cardinality_drift("store/x", 1),
            cardinality_drift("store/x", 2)
        );
    }

    #[test]
    fn instance_names_normalize_to_one_template_name() {
        use crate::naming::normalize_job_name;
        let spec = TemplateSpec::generate(7);
        let n1 = normalize_job_name(&spec.instance_name(3, 0));
        let n2 = normalize_job_name(&spec.instance_name(40, 2));
        assert_eq!(n1, n2);
    }

    #[test]
    fn fresh_policy_is_byte_identical_to_the_pre_policy_generator() {
        // Regression snapshot captured from the generator *before*
        // `LiteralPolicy` existed (hash over scripts + catalog stats of
        // templates 3/17/99, days 0..3, instances 0..2). The default policy
        // must keep reproducing it byte-for-byte.
        let mut acc = String::new();
        for seed in [3u64, 17, 99] {
            let spec = TemplateSpec::generate(seed);
            for day in 0..3u32 {
                for inst in 0..2u32 {
                    let (script, catalog) = spec.instantiate(day, inst);
                    let (script2, _) = spec.instantiate_with(LiteralPolicy::default(), day, inst);
                    assert_eq!(script, script2, "default policy == legacy path");
                    acc.push_str(&script);
                    for t in &spec.tables {
                        let info = catalog.lookup(&t.path);
                        acc.push_str(&format!("{}:{:?}\n", t.path, info.rows));
                    }
                }
            }
        }
        assert_eq!(
            stable_hash64(acc.as_bytes()),
            0x4f4d_f204_78eb_5657,
            "FreshEachRun diverged from the pre-LiteralPolicy generator output"
        );
    }

    #[test]
    fn sticky_instances_repeat_exact_plans_across_days() {
        let policy = LiteralPolicy::Sticky {
            redraw_every_days: 0,
        };
        for seed in [5u64, 23, 77] {
            let spec = TemplateSpec::generate(seed);
            let (s0, c0) = spec.instantiate_with(policy, 0, 0);
            let (s5, c5) = spec.instantiate_with(policy, 5, 1);
            assert_eq!(s0, s5, "sticky scripts are identical across days");
            let p0 = bind_script(&s0, &c0).unwrap();
            let p5 = bind_script(&s5, &c5).unwrap();
            assert_eq!(
                p0.fingerprint(),
                p5.fingerprint(),
                "sticky instances bind the identical exact plan"
            );
        }
    }

    #[test]
    fn sticky_redraw_period_starts_a_new_epoch() {
        let policy = LiteralPolicy::Sticky {
            redraw_every_days: 7,
        };
        // Any template whose skeleton actually carries a literal.
        let spec = (0..20u64)
            .map(TemplateSpec::generate)
            .find(|s| s.skeleton.contains("__L0__"))
            .unwrap();
        let (day0, _) = spec.instantiate_with(policy, 0, 0);
        let (day6, _) = spec.instantiate_with(policy, 6, 2);
        let (day7, _) = spec.instantiate_with(policy, 7, 0);
        assert_eq!(day0, day6, "same epoch, same script");
        assert_ne!(day0, day7, "epoch boundary redraws the literals");
        // The new epoch's draws are the fresh draws of its first day.
        let (fresh7, _) = spec.instantiate(7, 0);
        assert_eq!(day7, fresh7);
    }

    #[test]
    fn mixed_policy_keeps_roughly_the_configured_fraction_sticky() {
        let policy = LiteralPolicy::Mixed {
            sticky_fraction: 0.5,
        };
        let n = 400;
        let sticky = (0..n)
            .filter(|seed| policy.is_sticky_template(combine(*seed, 0xABCD)))
            .count();
        let frac = sticky as f64 / n as f64;
        assert!(
            (0.4..0.6).contains(&frac),
            "sticky fraction {frac:.2} should track the configured 0.5"
        );
        // The per-template decision is what draw_coords applies.
        for seed in 0..50u64 {
            let spec = TemplateSpec::generate(seed);
            let pinned = policy.draw_coords(spec.seed, 9, 1) == (0, 0);
            assert_eq!(pinned, policy.is_sticky_template(spec.seed));
        }
        // Degenerate fractions are total.
        let all = LiteralPolicy::Mixed {
            sticky_fraction: 1.0,
        };
        let none = LiteralPolicy::Mixed {
            sticky_fraction: 0.0,
        };
        assert!((0..50).all(|s| all.is_sticky_template(s)));
        assert!(!(0..50).any(|s| none.is_sticky_template(s)));
    }

    #[test]
    fn literal_policy_parses_its_cli_spellings() {
        assert_eq!("fresh".parse(), Ok(LiteralPolicy::FreshEachRun));
        assert_eq!(
            "sticky".parse(),
            Ok(LiteralPolicy::Sticky {
                redraw_every_days: 0
            })
        );
        assert_eq!(
            "sticky:7".parse(),
            Ok(LiteralPolicy::Sticky {
                redraw_every_days: 7
            })
        );
        assert_eq!(
            "mixed:0.25".parse(),
            Ok(LiteralPolicy::Mixed {
                sticky_fraction: 0.25
            })
        );
        for bad in ["bogus", "sticky:x", "mixed:", "mixed:1.5", "mixed:-0.1"] {
            assert!(
                bad.parse::<LiteralPolicy>().is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn literals_vary_across_instances() {
        let spec = TemplateSpec::generate(11);
        let (s1, _) = spec.instantiate(0, 0);
        let (s2, _) = spec.instantiate(0, 1);
        // FilterAgg-family skeletons always carry literals; union ones may
        // not, so only assert when a placeholder existed.
        if spec.skeleton.contains("__L0__") {
            assert_ne!(s1, s2, "literal values should differ");
        }
    }
}
