//! Zone maps (a.k.a. small materialized aggregates): per-column, per-partition
//! min/max metadata, as described in §2.1 of the paper.
//!
//! Two realism details matter for correctness and are modelled explicitly:
//!
//! * **String truncation.** Metadata stores keep only a prefix of long
//!   strings. The stored *min* is a prefix of the true min (still a valid
//!   lower bound); the stored *max* is the truncated prefix with its last
//!   character incremented (a valid upper bound). Truncated bounds are
//!   *inexact*: no row is guaranteed to equal them, which matters for top-k
//!   boundary initialization (§5.4).
//! * **Null accounting.** `null_count`/`row_count` let pruning evaluate
//!   `IS NULL` exactly and keep three-valued logic sound.

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Default number of characters kept for string bounds, mirroring the small
/// prefix real metadata services store.
pub const DEFAULT_STRING_PREFIX: usize = 32;

/// Min/max metadata for one column of one micro-partition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ZoneMap {
    /// Lower bound over all non-null values; `None` when the column has no
    /// non-null values in this partition.
    pub min: Option<Value>,
    /// Upper bound over all non-null values.
    pub max: Option<Value>,
    /// `true` when some row is known to equal `min` (false after truncation).
    pub min_exact: bool,
    /// `true` when some row is known to equal `max` (false after truncation).
    pub max_exact: bool,
    pub null_count: u64,
    pub row_count: u64,
}

impl ZoneMap {
    /// Zone map of an empty column chunk.
    pub fn empty() -> Self {
        ZoneMap {
            min: None,
            max: None,
            min_exact: false,
            max_exact: false,
            null_count: 0,
            row_count: 0,
        }
    }

    /// Build a zone map from values, truncating string bounds to
    /// `string_prefix` characters (use [`DEFAULT_STRING_PREFIX`] normally).
    pub fn build<'a>(values: impl IntoIterator<Item = &'a Value>, string_prefix: usize) -> Self {
        let mut zm = ZoneMap::empty();
        let mut min: Option<&Value> = None;
        let mut max: Option<&Value> = None;
        for v in values {
            zm.row_count += 1;
            if v.is_null() {
                zm.null_count += 1;
                continue;
            }
            match min {
                None => {
                    min = Some(v);
                    max = Some(v);
                }
                Some(_) => {
                    if v.total_ord_cmp(min.unwrap()) == std::cmp::Ordering::Less {
                        min = Some(v);
                    }
                    if v.total_ord_cmp(max.unwrap()) == std::cmp::Ordering::Greater {
                        max = Some(v);
                    }
                }
            }
        }
        if let (Some(lo), Some(hi)) = (min, max) {
            let (lo_v, lo_exact) = truncate_lower(lo, string_prefix);
            let (hi_v, hi_exact) = truncate_upper(hi, string_prefix);
            zm.min = Some(lo_v);
            zm.max = hi_v; // None = unbounded above (carry overflow)
            zm.min_exact = lo_exact;
            zm.max_exact = hi_exact && zm.max.is_some();
        }
        zm
    }

    /// True when every row in the partition is NULL for this column (or the
    /// partition is empty).
    pub fn all_null(&self) -> bool {
        self.null_count == self.row_count
    }

    pub fn has_nulls(&self) -> bool {
        self.null_count > 0
    }

    /// Number of non-null rows.
    pub fn non_null_count(&self) -> u64 {
        self.row_count - self.null_count
    }

    /// Merge two zone maps covering disjoint row sets (e.g. pages into a
    /// row group, row groups into a file).
    pub fn merge(&self, other: &ZoneMap) -> ZoneMap {
        fn pick(
            a: &Option<Value>,
            a_exact: bool,
            b: &Option<Value>,
            b_exact: bool,
            want_less: bool,
        ) -> (Option<Value>, bool) {
            match (a, b) {
                (None, None) => (None, false),
                (Some(x), None) => (Some(x.clone()), a_exact),
                (None, Some(y)) => (Some(y.clone()), b_exact),
                (Some(x), Some(y)) => {
                    let x_wins = match x.total_ord_cmp(y) {
                        std::cmp::Ordering::Less => want_less,
                        std::cmp::Ordering::Greater => !want_less,
                        std::cmp::Ordering::Equal => return (Some(x.clone()), a_exact || b_exact),
                    };
                    if x_wins {
                        (Some(x.clone()), a_exact)
                    } else {
                        (Some(y.clone()), b_exact)
                    }
                }
            }
        }
        // An unbounded max (None with non-null rows) poisons the merge: the
        // merged max must also be unbounded.
        let self_unbounded = self.max.is_none() && self.non_null_count() > 0;
        let other_unbounded = other.max.is_none() && other.non_null_count() > 0;
        let (min, min_exact) = pick(&self.min, self.min_exact, &other.min, other.min_exact, true);
        let (max, max_exact) = if self_unbounded || other_unbounded {
            (None, false)
        } else {
            pick(
                &self.max,
                self.max_exact,
                &other.max,
                other.max_exact,
                false,
            )
        };
        ZoneMap {
            min,
            max,
            min_exact,
            max_exact,
            null_count: self.null_count + other.null_count,
            row_count: self.row_count + other.row_count,
        }
    }
}

/// Truncate a lower bound. A string prefix is lexicographically `<=` the
/// original, so it remains a valid lower bound; it is inexact if shortened.
fn truncate_lower(v: &Value, prefix: usize) -> (Value, bool) {
    match v {
        Value::Str(s) if s.chars().count() > prefix => (
            Value::from(s.chars().take(prefix).collect::<String>()),
            false,
        ),
        other => (other.clone(), true),
    }
}

/// Truncate an upper bound: keep the prefix and increment its last character
/// so the result is `>=` every string that starts with the original prefix.
/// Returns `(None, false)` if the increment carries out of the string
/// (all characters at `char::MAX`), meaning "unbounded above".
fn truncate_upper(v: &Value, prefix: usize) -> (Option<Value>, bool) {
    match v {
        Value::Str(s) if s.chars().count() > prefix => {
            let mut chars: Vec<char> = s.chars().take(prefix).collect();
            while let Some(&c) = chars.last() {
                if let Some(next) = char::from_u32(c as u32 + 1) {
                    *chars.last_mut().unwrap() = next;
                    return (
                        Some(Value::from(chars.into_iter().collect::<String>())),
                        false,
                    );
                }
                chars.pop();
            }
            (None, false)
        }
        other => (Some(other.clone()), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[Option<i64>]) -> Vec<Value> {
        vals.iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect()
    }

    #[test]
    fn builds_min_max_and_null_counts() {
        let vals = ints(&[Some(5), None, Some(-3), Some(9), None]);
        let zm = ZoneMap::build(&vals, DEFAULT_STRING_PREFIX);
        assert_eq!(zm.min, Some(Value::Int(-3)));
        assert_eq!(zm.max, Some(Value::Int(9)));
        assert!(zm.min_exact && zm.max_exact);
        assert_eq!(zm.null_count, 2);
        assert_eq!(zm.row_count, 5);
    }

    #[test]
    fn all_null_column() {
        let vals = ints(&[None, None]);
        let zm = ZoneMap::build(&vals, DEFAULT_STRING_PREFIX);
        assert!(zm.all_null());
        assert_eq!(zm.min, None);
    }

    #[test]
    fn string_truncation_stays_conservative() {
        let long_lo = "aaaaaaaaaa-suffix-low".to_owned();
        let long_hi = "zzzz-very-long-string-suffix".to_owned();
        let vals = vec![
            Value::Str(long_lo.clone().into()),
            Value::Str(long_hi.clone().into()),
        ];
        let zm = ZoneMap::build(&vals, 4);
        let min = zm.min.as_ref().unwrap().as_str().unwrap().to_owned();
        let max = zm.max.as_ref().unwrap().as_str().unwrap().to_owned();
        assert!(min.as_str() <= long_lo.as_str(), "{min} vs {long_lo}");
        assert!(max.as_str() >= long_hi.as_str(), "{max} vs {long_hi}");
        assert!(!zm.min_exact && !zm.max_exact);
    }

    #[test]
    fn upper_truncation_carry() {
        let s: String = std::iter::repeat_n(char::MAX, 6).collect();
        let (v, exact) = truncate_upper(&Value::Str(s.into()), 3);
        assert_eq!(v, None);
        assert!(!exact);
    }

    #[test]
    fn merge_combines_bounds() {
        let a = ZoneMap::build(&ints(&[Some(1), Some(5)]), 32);
        let b = ZoneMap::build(&ints(&[Some(-2), None]), 32);
        let m = a.merge(&b);
        assert_eq!(m.min, Some(Value::Int(-2)));
        assert_eq!(m.max, Some(Value::Int(5)));
        assert_eq!(m.row_count, 4);
        assert_eq!(m.null_count, 1);
        assert!(m.min_exact && m.max_exact);
    }

    #[test]
    fn merge_respects_unbounded_max() {
        let mut a = ZoneMap::build(&ints(&[Some(1)]), 32);
        a.max = None; // simulate carry-out truncation
        let b = ZoneMap::build(&ints(&[Some(2)]), 32);
        let m = a.merge(&b);
        assert_eq!(m.max, None);
    }
}
