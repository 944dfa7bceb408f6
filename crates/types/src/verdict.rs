//! The pruning verdict lattice.
//!
//! Evaluating a predicate against a partition's metadata cannot generally
//! decide the predicate per row; instead we track four conservative facts
//! about the (Kleene three-valued) truth value the predicate takes across
//! the partition's rows:
//!
//! * `may_true` — **over**-approximation of "some row evaluates to TRUE".
//!   When false, the partition is *not-matching* and can be pruned; this is
//!   the paper's no-false-negatives guarantee (§2.1).
//! * `all_true` — **under**-approximation of "every row evaluates to TRUE".
//!   When true, the partition is *fully-matching* (§4.2), enabling LIMIT
//!   pruning and top-k boundary initialization.
//! * `may_false` / `all_false` — the same for FALSE, needed to propagate
//!   verdicts through `NOT` without losing NULL soundness: a row where
//!   `x IS NULL` satisfies neither `x > 5` nor `NOT (x > 5)`.
//!
//! The duals make `not` exact on the lattice, which is what lets the
//! single-pass `all_true` detection agree with the paper's two-pass
//! inverted-predicate method (property-tested in `snowprune-expr`).

use serde::{Deserialize, Serialize};

/// Conservative knowledge about a predicate's truth values over a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Verdict {
    /// Some row may evaluate to TRUE (over-approximation).
    pub may_true: bool,
    /// Every row definitely evaluates to TRUE (under-approximation).
    pub all_true: bool,
    /// Some row may evaluate to FALSE (over-approximation).
    pub may_false: bool,
    /// Every row definitely evaluates to FALSE (under-approximation).
    pub all_false: bool,
}

impl Verdict {
    /// No information: anything is possible. The safe default for
    /// expressions the pruner does not understand.
    pub const TOP: Verdict = Verdict {
        may_true: true,
        all_true: false,
        may_false: true,
        all_false: false,
    };

    /// Every row is TRUE.
    pub const ALWAYS_TRUE: Verdict = Verdict {
        may_true: true,
        all_true: true,
        may_false: false,
        all_false: false,
    };

    /// Every row is FALSE.
    pub const ALWAYS_FALSE: Verdict = Verdict {
        may_true: false,
        all_true: false,
        may_false: true,
        all_false: true,
    };

    /// Every row is UNKNOWN (e.g. comparing against NULL).
    pub const ALWAYS_UNKNOWN: Verdict = Verdict {
        may_true: false,
        all_true: false,
        may_false: false,
        all_false: false,
    };

    /// Kleene AND over per-row truth values.
    pub fn and(self, other: Verdict) -> Verdict {
        Verdict {
            // a AND b is TRUE only where both are TRUE.
            may_true: self.may_true && other.may_true,
            all_true: self.all_true && other.all_true,
            // a AND b is FALSE wherever either is FALSE.
            may_false: self.may_false || other.may_false,
            all_false: self.all_false || other.all_false,
        }
    }

    /// Kleene OR over per-row truth values.
    pub fn or(self, other: Verdict) -> Verdict {
        Verdict {
            may_true: self.may_true || other.may_true,
            all_true: self.all_true || other.all_true,
            may_false: self.may_false && other.may_false,
            all_false: self.all_false && other.all_false,
        }
    }

    /// Kleene NOT: swaps the TRUE and FALSE facts (UNKNOWN maps to itself).
    #[allow(clippy::should_implement_trait)] // domain name mirroring and/or
    pub fn not(self) -> Verdict {
        Verdict {
            may_true: self.may_false,
            all_true: self.all_false,
            may_false: self.may_true,
            all_false: self.all_true,
        }
    }

    /// Whether the partition can be removed from the scan set.
    pub fn prunable(self) -> bool {
        !self.may_true
    }

    /// Whether the partition is fully matching (§4.2).
    pub fn fully_matching(self) -> bool {
        self.all_true
    }

    /// Classify for scan-set handling. Empty partitions are never matching.
    pub fn classify(self, row_count: u64) -> MatchClass {
        if row_count == 0 || self.prunable() {
            MatchClass::NotMatching
        } else if self.fully_matching() {
            MatchClass::FullyMatching
        } else {
            MatchClass::PartiallyMatching
        }
    }
}

/// The three partition categories of §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchClass {
    /// Pruned away by filter pruning: contains no qualifying rows.
    NotMatching,
    /// Might contain qualifying rows; retained in the scan set.
    PartiallyMatching,
    /// Every row qualifies all predicates (subset of partially-matching).
    FullyMatching,
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Verdict; 4] = [
        Verdict::TOP,
        Verdict::ALWAYS_TRUE,
        Verdict::ALWAYS_FALSE,
        Verdict::ALWAYS_UNKNOWN,
    ];

    #[test]
    fn not_is_involutive() {
        for v in ALL {
            assert_eq!(v.not().not(), v);
        }
    }

    #[test]
    fn de_morgan_holds_on_lattice() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.or(b).not(), a.not().and(b.not()));
            }
        }
    }

    #[test]
    fn null_semantics_of_not() {
        // If every row is UNKNOWN, neither p nor NOT p matches any row.
        let u = Verdict::ALWAYS_UNKNOWN;
        assert!(u.prunable());
        assert!(u.not().prunable());
        assert!(!u.fully_matching());
        assert!(!u.not().fully_matching());
    }

    #[test]
    fn and_or_identities() {
        let t = Verdict::ALWAYS_TRUE;
        let f = Verdict::ALWAYS_FALSE;
        assert_eq!(t.and(f), f);
        assert_eq!(t.or(f), t);
        assert_eq!(Verdict::TOP.and(f), f);
        assert_eq!(Verdict::TOP.or(t), t);
        // TOP AND TRUE stays TOP-ish: may_true, not all_true.
        let v = Verdict::TOP.and(t);
        assert!(v.may_true && !v.all_true);
    }

    #[test]
    fn classify_rules() {
        assert_eq!(Verdict::ALWAYS_TRUE.classify(10), MatchClass::FullyMatching);
        assert_eq!(Verdict::ALWAYS_TRUE.classify(0), MatchClass::NotMatching);
        assert_eq!(Verdict::ALWAYS_FALSE.classify(10), MatchClass::NotMatching);
        assert_eq!(Verdict::TOP.classify(10), MatchClass::PartiallyMatching);
        assert_eq!(
            Verdict::ALWAYS_UNKNOWN.classify(10),
            MatchClass::NotMatching
        );
    }
}
