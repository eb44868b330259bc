//! Job-span computation (paper §2.1 / §4.1).
//!
//! > "Given a job, we compute a set containing all rules which, if enabled
//! > or disabled, can affect the final query plan. [...] for each job we
//! > start from the original rule configuration, and we turn on all the
//! > off-by-default rules, while we turn off all the on-by-default and
//! > implementation rules that appear in the original rule signature. We
//! > then pass this new rule configuration to the SCOPE optimizer for a
//! > recompilation pass. [...] This process is repeated until we reach a
//! > fix-point (i.e., no new rule is added to the signature, or the
//! > recompilation fails)."

use crate::config::{RuleBits, RuleConfig};
use crate::registry::{RuleCategory, RuleSet};
use crate::search::{CompileError, Optimizer};
use scope_ir::logical::LogicalPlan;

/// Result of the span fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanResult {
    /// Flippable rules that can affect this job's plan.
    pub span: RuleBits,
    /// Signature of the default-configuration compilation.
    pub default_signature: RuleBits,
    /// Number of recompilation passes performed.
    pub iterations: usize,
    /// Whether the fixpoint terminated due to a failed recompilation.
    pub stopped_on_failure: bool,
}

impl SpanResult {
    /// Span size (the paper's `S`; the action set is `1 + S`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.span.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }
}

/// Build one fixpoint pass's exploration configuration (§4.1): every
/// off-by-default rule turned **on**, and the *on-by-default and
/// implementation* rules seen in any signature so far turned **off**. An
/// off-by-default rule discovered by an earlier pass stays enabled — the
/// paper only switches off rules that are on by default, so exploration
/// keeps probing what the experimental rules unlock.
fn exploration_config(rules: &RuleSet, default_config: &RuleConfig, seen: &RuleBits) -> RuleConfig {
    let mut bits = *default_config.bits();
    for r in rules.rules() {
        if r.category == RuleCategory::OffByDefault {
            bits.insert(r.id);
        }
    }
    for id in seen.iter() {
        let rule = rules.rule(id);
        if rule.flippable() && rule.category.default_on() {
            bits.remove(id);
        }
    }
    RuleConfig::from_bits(bits)
}

/// Compute the span of a job with the fixpoint heuristic, bounded by
/// `max_iterations` recompiles. The default configuration compiles through
/// [`Optimizer::compile`] (the view build executes that plan); the
/// exploration passes read only signatures, so they are priced, extracting
/// no plan. Both go through the optimizer's compile cache when it has one.
pub fn compute_span(
    optimizer: &Optimizer,
    plan: &LogicalPlan,
    max_iterations: usize,
) -> Result<SpanResult, CompileError> {
    let rules = optimizer.rules();
    let default_config = optimizer.default_config();
    let default = optimizer.compile(plan, &default_config)?;

    let flippable_only = |bits: &RuleBits| -> RuleBits {
        bits.iter()
            .filter(|&id| rules.rule(id).flippable())
            .collect()
    };

    let mut seen = default.signature;
    let mut span = flippable_only(&default.signature);
    let mut iterations = 0;
    let mut stopped_on_failure = false;
    let mut prev_config: Option<RuleConfig> = None;

    while iterations < max_iterations {
        let config = exploration_config(rules, &default_config, &seen);
        if prev_config == Some(config) {
            break; // configuration fixpoint
        }
        prev_config = Some(config);
        iterations += 1;
        match optimizer.price(plan, &config) {
            Ok(priced) => {
                let new_rules = flippable_only(&priced.signature).difference(&span);
                if new_rules.is_empty() {
                    break; // signature fixpoint
                }
                span = span.union(&new_rules);
                seen = seen.union(&priced.signature);
            }
            Err(_) => {
                stopped_on_failure = true;
                break;
            }
        }
    }

    Ok(SpanResult {
        span,
        default_signature: default.signature,
        iterations,
        stopped_on_failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_lang::{bind_script, Catalog};

    fn plan(src: &str) -> LogicalPlan {
        bind_script(src, &Catalog::default()).unwrap()
    }

    const SCRIPT: &str = r#"
        sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
        users = EXTRACT user:int, region:string FROM "store/users";
        big   = SELECT user, spend FROM sales WHERE spend > 100;
        j     = SELECT * FROM big AS b JOIN users AS u ON b.user == u.user;
        agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
        OUTPUT agg TO "out/by_region";
    "#;

    #[test]
    fn span_is_nonempty_and_flippable_only() {
        let opt = Optimizer::default();
        let result = compute_span(&opt, &plan(SCRIPT), 8).unwrap();
        assert!(!result.is_empty(), "typical jobs have non-empty spans");
        for id in result.span.iter() {
            assert!(opt.rules().rule(id).flippable(), "{id} must be flippable");
        }
    }

    #[test]
    fn span_includes_default_signature_flippables() {
        let opt = Optimizer::default();
        let result = compute_span(&opt, &plan(SCRIPT), 8).unwrap();
        for id in result.default_signature.iter() {
            if opt.rules().rule(id).flippable() {
                assert!(result.span.contains(id));
            }
        }
    }

    #[test]
    fn span_is_deterministic() {
        let opt = Optimizer::default();
        let a = compute_span(&opt, &plan(SCRIPT), 8).unwrap();
        let b = compute_span(&opt, &plan(SCRIPT), 8).unwrap();
        assert_eq!(a.span, b.span);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn span_discovers_off_by_default_rules_beyond_default_signature() {
        let opt = Optimizer::default();
        let result = compute_span(&opt, &plan(SCRIPT), 8).unwrap();
        let default_flippable: RuleBits = result
            .default_signature
            .iter()
            .filter(|&id| opt.rules().rule(id).flippable())
            .collect();
        let discovered = result.span.difference(&default_flippable);
        // The all-on pass virtually always surfaces extra candidates for a
        // join+agg job; tolerate zero only if the first recompile failed.
        assert!(
            !discovered.is_empty() || result.stopped_on_failure,
            "span should usually exceed the default signature"
        );
    }

    #[test]
    fn exploration_keeps_discovered_off_by_default_rules_enabled() {
        // Regression: the exploration config used to turn off *every*
        // flippable rule seen in a signature, including off-by-default rules
        // discovered in an earlier pass. The paper (§4.1) only turns off
        // "on-by-default and implementation rules that appear in the
        // original rule signature" — off-by-default rules stay on.
        let opt = Optimizer::default();
        let rules = opt.rules();
        let off = rules
            .rules()
            .iter()
            .find(|r| r.category == RuleCategory::OffByDefault)
            .expect("registry has off-by-default rules")
            .id;
        let on = rules
            .rules()
            .iter()
            .find(|r| r.category == RuleCategory::OnByDefault)
            .expect("registry has on-by-default rules")
            .id;
        let implementation = rules
            .rules()
            .iter()
            .find(|r| r.category == RuleCategory::Implementation)
            .expect("registry has implementation rules")
            .id;
        // Pass 1 discovered all three in a signature.
        let seen: RuleBits = [off, on, implementation].into_iter().collect();
        let config = exploration_config(rules, &opt.default_config(), &seen);
        assert!(
            config.enabled(off),
            "off-by-default rule discovered in pass 1 must stay enabled in \
             pass 2's exploration config"
        );
        assert!(!config.enabled(on), "seen on-by-default rules turn off");
        assert!(
            !config.enabled(implementation),
            "seen implementation rules turn off"
        );
    }

    #[test]
    fn max_iterations_bounds_the_fixpoint() {
        let opt = Optimizer::default();
        let result = compute_span(&opt, &plan(SCRIPT), 1).unwrap();
        assert!(result.iterations <= 1);
    }
}
