//! Compile-time hints: per-template single rule flips, as produced by the
//! QO-Advisor pipeline and served through SIS.

use crate::config::{RuleConfig, RuleFlip};
use rustc_hash::FxHashMap;
use scope_ir::TemplateId;
use serde::{Deserialize, Serialize};

/// One steering hint: apply `flip` to every job matching `template`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hint {
    pub template: TemplateId,
    pub flip: RuleFlip,
}

/// An in-memory set of hints keyed by template, consulted by the engine at
/// compile time. SIS wraps this with versioned persistence.
#[derive(Debug, Clone, Default)]
pub struct HintSet {
    by_template: FxHashMap<TemplateId, RuleFlip>,
}

impl HintSet {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_hints(hints: impl IntoIterator<Item = Hint>) -> Self {
        let mut set = Self::default();
        for h in hints {
            set.insert(h);
        }
        set
    }

    /// Insert or replace the hint for a template.
    pub fn insert(&mut self, hint: Hint) {
        self.by_template.insert(hint.template, hint.flip);
    }

    pub fn remove(&mut self, template: TemplateId) -> Option<RuleFlip> {
        self.by_template.remove(&template)
    }

    #[must_use]
    pub fn lookup(&self, template: TemplateId) -> Option<RuleFlip> {
        self.by_template.get(&template).copied()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.by_template.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_template.is_empty()
    }

    /// The installed hints as a list sorted by template id — the canonical
    /// export order for snapshots and diffs (the backing map is unordered).
    #[must_use]
    pub fn hints(&self) -> Vec<Hint> {
        #[expect(
            clippy::disallowed_methods,
            reason = "collected and sorted by template below"
        )]
        let mut hints: Vec<Hint> = self
            .by_template
            .iter()
            .map(|(&template, &flip)| Hint { template, flip })
            .collect();
        hints.sort_by_key(|h| h.template);
        hints
    }

    /// The effective configuration for a job: default plus the matching
    /// hint's flip, if any.
    #[must_use]
    pub fn config_for(&self, template: TemplateId, default: &RuleConfig) -> RuleConfig {
        match self.lookup(template) {
            Some(flip) => default.with_flip(flip),
            None => *default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RuleBits, RuleId};

    fn flip(rule: u16, enable: bool) -> RuleFlip {
        RuleFlip {
            rule: RuleId(rule),
            enable,
        }
    }

    #[test]
    fn lookup_and_config_application() {
        let mut set = HintSet::new();
        set.insert(Hint {
            template: TemplateId(1),
            flip: flip(21, true),
        });
        let default = RuleConfig::from_bits(RuleBits::empty());
        let cfg = set.config_for(TemplateId(1), &default);
        assert!(cfg.enabled(RuleId(21)));
        // Unmatched template keeps the default.
        let cfg2 = set.config_for(TemplateId(2), &default);
        assert_eq!(cfg2, default);
    }

    #[test]
    fn insert_replaces_existing_hint() {
        let mut set = HintSet::new();
        set.insert(Hint {
            template: TemplateId(1),
            flip: flip(21, true),
        });
        set.insert(Hint {
            template: TemplateId(1),
            flip: flip(22, false),
        });
        assert_eq!(set.len(), 1);
        assert_eq!(set.lookup(TemplateId(1)), Some(flip(22, false)));
    }

    #[test]
    fn hints_are_sorted_by_template() {
        let set = HintSet::from_hints([
            Hint {
                template: TemplateId(9),
                flip: flip(1, true),
            },
            Hint {
                template: TemplateId(3),
                flip: flip(2, false),
            },
        ]);
        let hints = set.hints();
        assert_eq!(hints[0].template, TemplateId(3));
        assert_eq!(hints[1].template, TemplateId(9));
    }

    #[test]
    fn remove_clears_hint() {
        let mut set = HintSet::from_hints([Hint {
            template: TemplateId(5),
            flip: flip(7, true),
        }]);
        assert!(set.remove(TemplateId(5)).is_some());
        assert!(set.is_empty());
        assert!(set.remove(TemplateId(5)).is_none());
    }
}
