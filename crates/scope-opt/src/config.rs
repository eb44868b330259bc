//! Rule configurations: 256-bit vectors of enabled optimizer rules.
//!
//! The SCOPE optimizer has 256 rules; a *rule configuration* decides which
//! are available during optimization. QO-Advisor only ever deploys
//! configurations at edit distance 1 from the default (a single
//! [`RuleFlip`]), which is the paper's central "simplicity first" design
//! decision (§2.4).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Total number of optimizer rules, as in SCOPE (§2.1).
pub const RULE_COUNT: usize = 256;

/// Identifier of one optimizer rule: a bit position in 0..256.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RuleId(pub u16);

impl RuleId {
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{:03}", self.0)
    }
}

/// A fixed 256-bit set over rule ids. Used for both rule *configurations*
/// (which rules may fire) and rule *signatures* (which rules did fire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct RuleBits {
    words: [u64; RULE_COUNT / 64],
}

impl RuleBits {
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn contains(&self, id: RuleId) -> bool {
        let i = id.index();
        debug_assert!(i < RULE_COUNT);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn insert(&mut self, id: RuleId) {
        let i = id.index();
        debug_assert!(i < RULE_COUNT);
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, id: RuleId) {
        let i = id.index();
        debug_assert!(i < RULE_COUNT);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub fn set(&mut self, id: RuleId, value: bool) {
        if value {
            self.insert(id);
        } else {
            self.remove(id);
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw bit words (snapshot serialization; `scope-state`).
    #[must_use]
    pub fn words(&self) -> [u64; RULE_COUNT / 64] {
        self.words
    }

    /// Rebuild from raw bit words ([`RuleBits::words`] round-trip).
    #[must_use]
    pub fn from_words(words: [u64; RULE_COUNT / 64]) -> Self {
        Self { words }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RuleId> + '_ {
        (0..RULE_COUNT as u16)
            .map(RuleId)
            .filter(move |id| self.contains(*id))
    }

    #[must_use]
    pub fn union(&self, other: &RuleBits) -> RuleBits {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        RuleBits { words }
    }

    #[must_use]
    pub fn difference(&self, other: &RuleBits) -> RuleBits {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
        RuleBits { words }
    }

    /// Stable 64-bit fingerprint of the bit set (used to make experimental-
    /// rule instability configuration-dependent).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xdead_beef_cafe_f00du64;
        for (i, w) in self.words.iter().enumerate() {
            h = scope_ir::ids::mix64(h, w.wrapping_add(i as u64));
        }
        h
    }

    /// Render as the paper's bit-vector notation, lowest rule id first,
    /// truncated to the first `n` bits (e.g. `1100000000`).
    #[must_use]
    pub fn bitstring(&self, n: usize) -> String {
        (0..n.min(RULE_COUNT))
            .map(|i| {
                if self.contains(RuleId(i as u16)) {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }
}

impl FromIterator<RuleId> for RuleBits {
    fn from_iter<T: IntoIterator<Item = RuleId>>(iter: T) -> Self {
        let mut bits = RuleBits::empty();
        for id in iter {
            bits.insert(id);
        }
        bits
    }
}

/// A single rule flip relative to the default configuration: turn `rule` on
/// (`enable == true`) or off. The paper's action space is exactly
/// {no-op} ∪ {one flip in the job span}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RuleFlip {
    pub rule: RuleId,
    pub enable: bool,
}

impl fmt::Display for RuleFlip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.enable { "+" } else { "-" }, self.rule)
    }
}

/// A rule configuration: the set of rules the optimizer may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RuleConfig {
    bits: RuleBits,
}

impl RuleConfig {
    #[must_use]
    pub fn from_bits(bits: RuleBits) -> Self {
        Self { bits }
    }

    #[must_use]
    pub fn enabled(&self, id: RuleId) -> bool {
        self.bits.contains(id)
    }

    #[must_use]
    pub fn bits(&self) -> &RuleBits {
        &self.bits
    }

    /// Apply one flip, returning the new configuration.
    #[must_use]
    pub fn with_flip(&self, flip: RuleFlip) -> RuleConfig {
        let mut bits = self.bits;
        bits.set(flip.rule, flip.enable);
        RuleConfig { bits }
    }

    /// Apply several flips (used by the Negi-et-al.-2021 baseline which
    /// samples arbitrary configurations over the span).
    #[must_use]
    pub fn with_flips(&self, flips: &[RuleFlip]) -> RuleConfig {
        let mut bits = self.bits;
        for f in flips {
            bits.set(f.rule, f.enable);
        }
        RuleConfig { bits }
    }

    /// The flip that transforms `self` into `other`, if they differ by
    /// exactly one bit.
    #[must_use]
    pub fn single_flip_to(&self, other: &RuleConfig) -> Option<RuleFlip> {
        let mut flip = None;
        for id in (0..RULE_COUNT as u16).map(RuleId) {
            match (self.enabled(id), other.enabled(id)) {
                (false, true) => {
                    if flip.is_some() {
                        return None;
                    }
                    flip = Some(RuleFlip {
                        rule: id,
                        enable: true,
                    });
                }
                (true, false) => {
                    if flip.is_some() {
                        return None;
                    }
                    flip = Some(RuleFlip {
                        rule: id,
                        enable: false,
                    });
                }
                _ => {}
            }
        }
        flip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_insert_remove_contains() {
        let mut b = RuleBits::empty();
        assert!(b.is_empty());
        b.insert(RuleId(0));
        b.insert(RuleId(63));
        b.insert(RuleId(64));
        b.insert(RuleId(255));
        assert_eq!(b.len(), 4);
        assert!(b.contains(RuleId(63)));
        assert!(b.contains(RuleId(64)));
        assert!(!b.contains(RuleId(1)));
        b.remove(RuleId(63));
        assert!(!b.contains(RuleId(63)));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn bitstring_matches_paper_notation() {
        // "if only the first and the second rule were used ... 1100000000"
        let b: RuleBits = [RuleId(0), RuleId(1)].into_iter().collect();
        assert_eq!(b.bitstring(10), "1100000000");
    }

    #[test]
    fn set_operations() {
        let a: RuleBits = [RuleId(1), RuleId(2), RuleId(200)].into_iter().collect();
        let b: RuleBits = [RuleId(2), RuleId(3)].into_iter().collect();
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.difference(&b).len(), 2);
        let ids: Vec<u16> = a.iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![1, 2, 200]);
    }

    #[test]
    fn config_flip_roundtrip() {
        let base = RuleConfig::from_bits([RuleId(5)].into_iter().collect());
        let flipped = base.with_flip(RuleFlip {
            rule: RuleId(9),
            enable: true,
        });
        assert!(flipped.enabled(RuleId(9)));
        assert_eq!(
            base.single_flip_to(&flipped),
            Some(RuleFlip {
                rule: RuleId(9),
                enable: true
            })
        );
        assert_eq!(
            flipped.single_flip_to(&base),
            Some(RuleFlip {
                rule: RuleId(9),
                enable: false
            })
        );
        assert_eq!(base.single_flip_to(&base), None);
        // Two flips apart -> not a single flip.
        let two = flipped.with_flip(RuleFlip {
            rule: RuleId(5),
            enable: false,
        });
        assert_eq!(base.single_flip_to(&two), None);
    }
}
