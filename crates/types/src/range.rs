//! Value ranges and the interval arithmetic behind "Deriving Min/Max Ranges"
//! (§3.1 of the paper).
//!
//! A [`ValueRange`] over-approximates the set of values an expression can
//! take on a partition, given the zone maps of its input columns. Bounds are
//! inclusive; `None` means unbounded on that side. Float arithmetic widens
//! results by one ULP so rounding can never make a range *smaller* than the
//! true image (which would break the no-false-negative pruning guarantee).

use std::cmp::Ordering;

use crate::value::Value;
use crate::zonemap::ZoneMap;

/// An inclusive, possibly unbounded range of values plus null tracking.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueRange {
    /// Inclusive lower bound (`None` = unbounded below).
    pub lo: Option<Value>,
    /// Inclusive upper bound (`None` = unbounded above).
    pub hi: Option<Value>,
    /// Whether the expression may evaluate to NULL on some row.
    pub may_null: bool,
    /// Whether the expression evaluates to NULL on *every* row.
    pub all_null: bool,
}

impl ValueRange {
    /// Completely unknown range.
    pub fn top() -> Self {
        ValueRange {
            lo: None,
            hi: None,
            may_null: true,
            all_null: false,
        }
    }

    /// Range of a single known non-null constant.
    pub fn point(v: Value) -> Self {
        if v.is_null() {
            return ValueRange::null();
        }
        ValueRange {
            lo: Some(v.clone()),
            hi: Some(v),
            may_null: false,
            all_null: false,
        }
    }

    /// Range of the constant NULL.
    pub fn null() -> Self {
        ValueRange {
            lo: None,
            hi: None,
            may_null: true,
            all_null: true,
        }
    }

    /// The range of a column given its zone map.
    pub fn from_zone_map(zm: &ZoneMap) -> Self {
        ValueRange {
            lo: zm.min.clone(),
            hi: zm.max.clone(),
            may_null: zm.has_nulls(),
            all_null: zm.row_count > 0 && zm.all_null(),
        }
    }

    /// Union of the images of two branches (used for `IF`/`CASE`, §3.1:
    /// "the resulting min/max range is extended to encompass the min/max
    /// ranges of both sub-expressions").
    pub fn union(&self, other: &ValueRange) -> ValueRange {
        ValueRange {
            lo: union_bound(&self.lo, &other.lo, true),
            hi: union_bound(&self.hi, &other.hi, false),
            may_null: self.may_null || other.may_null,
            all_null: self.all_null && other.all_null,
        }
    }

    /// True if some value in the range could compare `<=` `v`.
    /// Conservative: incomparable types answer `true`.
    pub fn possibly_le(&self, v: &Value) -> bool {
        match &self.lo {
            None => true,
            Some(lo) => !matches!(lo.sql_cmp(v), Some(Ordering::Greater)),
        }
    }

    pub fn possibly_ge(&self, v: &Value) -> bool {
        match &self.hi {
            None => true,
            Some(hi) => !matches!(hi.sql_cmp(v), Some(Ordering::Less)),
        }
    }

    pub fn possibly_eq(&self, v: &Value) -> bool {
        self.possibly_le(v) && self.possibly_ge(v)
    }

    /// True only if *every* value in the range is `< v` (requires a bounded,
    /// comparable upper bound).
    pub fn certainly_lt(&self, v: &Value) -> bool {
        matches!(
            self.hi.as_ref().and_then(|hi| hi.sql_cmp(v)),
            Some(Ordering::Less)
        )
    }

    pub fn certainly_le(&self, v: &Value) -> bool {
        matches!(
            self.hi.as_ref().and_then(|hi| hi.sql_cmp(v)),
            Some(Ordering::Less | Ordering::Equal)
        )
    }

    pub fn certainly_ge(&self, v: &Value) -> bool {
        matches!(
            self.lo.as_ref().and_then(|lo| lo.sql_cmp(v)),
            Some(Ordering::Greater | Ordering::Equal)
        )
    }

    pub fn certainly_eq(&self, v: &Value) -> bool {
        self.certainly_ge(v) && self.certainly_le(v)
    }

    /// Whether the two ranges can contain a common value. Conservative.
    pub fn overlaps(&self, other: &ValueRange) -> bool {
        let self_below = match (&self.hi, &other.lo) {
            (Some(hi), Some(lo)) => matches!(hi.sql_cmp(lo), Some(Ordering::Less)),
            _ => false,
        };
        let self_above = match (&self.lo, &other.hi) {
            (Some(lo), Some(hi)) => matches!(lo.sql_cmp(hi), Some(Ordering::Greater)),
            _ => false,
        };
        !(self_below || self_above)
    }

    // ---- arithmetic -------------------------------------------------------

    pub fn add(&self, other: &ValueRange) -> ValueRange {
        self.arith(other, ArithOp::Add)
    }

    pub fn sub(&self, other: &ValueRange) -> ValueRange {
        self.arith(other, ArithOp::Sub)
    }

    pub fn mul(&self, other: &ValueRange) -> ValueRange {
        self.arith(other, ArithOp::Mul)
    }

    /// Division: a divisor range that may contain zero poisons the result
    /// (unbounded + may-null), because `x / 0` evaluates to NULL.
    pub fn div(&self, other: &ValueRange) -> ValueRange {
        let may_null = self.may_null || other.may_null;
        let zero = Value::Int(0);
        if other.possibly_eq(&zero) {
            return ValueRange {
                lo: None,
                hi: None,
                may_null: true,
                all_null: self.all_null || other.all_null,
            };
        }
        let mut r = self.arith(other, ArithOp::Div);
        r.may_null = may_null;
        r
    }

    pub fn neg(&self) -> ValueRange {
        let flip = |b: &Option<Value>| -> Option<Value> {
            b.as_ref()
                .and_then(crate::value::arith::neg)
                .filter(|v| !v.is_null())
        };
        ValueRange {
            lo: flip(&self.hi),
            hi: flip(&self.lo),
            may_null: self.may_null,
            all_null: self.all_null,
        }
    }

    fn arith(&self, other: &ValueRange, op: ArithOp) -> ValueRange {
        let may_null = self.may_null || other.may_null;
        let all_null = self.all_null || other.all_null;
        let a = NumInterval::from_range(self);
        let b = NumInterval::from_range(other);
        match (a, b) {
            (Some(a), Some(b)) => {
                let r = a.apply(b, op);
                ValueRange {
                    lo: r.lo_value(),
                    hi: r.hi_value(),
                    may_null,
                    all_null,
                }
            }
            // Non-numeric operand: arithmetic on it yields NULL at runtime,
            // so the only possible output is NULL.
            _ => ValueRange {
                lo: None,
                hi: None,
                may_null,
                all_null,
            },
        }
    }
}

// ---- predicate literal ranges (§8.2 shape-mode fingerprints) -------------

/// One endpoint of a [`LiteralRange`]: a non-null comparison literal plus
/// whether the endpoint itself is included (`>=`/`<=` vs `>`/`<`).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeBound {
    /// The literal value of the bound. Never [`Value::Null`] — predicates
    /// comparing against NULL match no rows and are not range-representable.
    pub value: Value,
    /// `true` for inclusive comparisons (`>=`, `<=`, `=`).
    pub inclusive: bool,
}

/// The interval a conjunctive predicate pins one column to, extracted from
/// comparison literals (`v >= 50`, `v BETWEEN 10 AND 90`, …). Used by the
/// shape-mode predicate cache (§8.2 extension): two plans with identical
/// literal-abstracted shapes are compared by these per-column intervals to
/// decide whether a cached entry's predicate *subsumes* a query's.
///
/// `None` on a side means unbounded. An interval may be empty
/// (contradictory conjuncts); containment checks stay sound for empty
/// intervals without special-casing them.
#[derive(Clone, Debug, PartialEq)]
pub struct LiteralRange {
    /// The constrained column's name.
    pub column: String,
    /// Lower bound (`None` = unbounded below).
    pub lo: Option<RangeBound>,
    /// Upper bound (`None` = unbounded above).
    pub hi: Option<RangeBound>,
}

impl LiteralRange {
    /// The unconstrained interval for `column`.
    pub fn unbounded(column: impl Into<String>) -> Self {
        LiteralRange {
            column: column.into(),
            lo: None,
            hi: None,
        }
    }

    /// Intersect a `column > value` / `column >= value` conjunct into the
    /// interval, keeping the tighter lower bound. Returns `false` when the
    /// new bound is incomparable with the current one (mixed types), in
    /// which case the interval is left unchanged and the caller should
    /// treat the predicate as not range-representable.
    pub fn tighten_lo(&mut self, value: Value, inclusive: bool) -> bool {
        match &self.lo {
            None => {
                self.lo = Some(RangeBound { value, inclusive });
                true
            }
            Some(cur) => match value.sql_cmp(&cur.value) {
                None => false,
                Some(Ordering::Greater) => {
                    self.lo = Some(RangeBound { value, inclusive });
                    true
                }
                Some(Ordering::Equal) => {
                    // Exclusive beats inclusive at the same endpoint.
                    if cur.inclusive && !inclusive {
                        self.lo = Some(RangeBound { value, inclusive });
                    }
                    true
                }
                Some(Ordering::Less) => true,
            },
        }
    }

    /// Intersect a `column < value` / `column <= value` conjunct into the
    /// interval, keeping the tighter upper bound. See [`Self::tighten_lo`].
    pub fn tighten_hi(&mut self, value: Value, inclusive: bool) -> bool {
        match &self.hi {
            None => {
                self.hi = Some(RangeBound { value, inclusive });
                true
            }
            Some(cur) => match value.sql_cmp(&cur.value) {
                None => false,
                Some(Ordering::Less) => {
                    self.hi = Some(RangeBound { value, inclusive });
                    true
                }
                Some(Ordering::Equal) => {
                    if cur.inclusive && !inclusive {
                        self.hi = Some(RangeBound { value, inclusive });
                    }
                    true
                }
                Some(Ordering::Greater) => true,
            },
        }
    }

    /// Does this interval contain every value of `other`? Conservative:
    /// incomparable bounds answer `false` (the caller must not subsume).
    pub fn contains(&self, other: &LiteralRange) -> bool {
        let lo_ok = match (&self.lo, &other.lo) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(s), Some(o)) => match s.value.sql_cmp(&o.value) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => s.inclusive || !o.inclusive,
                _ => false,
            },
        };
        let hi_ok = match (&self.hi, &other.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(s), Some(o)) => match s.value.sql_cmp(&o.value) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => s.inclusive || !o.inclusive,
                _ => false,
            },
        };
        lo_ok && hi_ok
    }

    /// Are the two intervals exactly equal (same bounds, same
    /// inclusivity)? Required for top-k subsumption, where a merely wider
    /// entry predicate would rank its top-k over a different row set.
    pub fn same_interval(&self, other: &LiteralRange) -> bool {
        fn bound_eq(a: &Option<RangeBound>, b: &Option<RangeBound>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    a.inclusive == b.inclusive && a.value.sql_cmp(&b.value) == Some(Ordering::Equal)
                }
                _ => false,
            }
        }
        bound_eq(&self.lo, &other.lo) && bound_eq(&self.hi, &other.hi)
    }
}

/// A shape-mode predicate-cache key (§8.2 extension): a literal-abstracted
/// plan hash plus the concrete literal range each predicate column is
/// pinned to, and — for top-k plans — how many rows the plan needs
/// (`k + offset`, excluded from the hash).
///
/// Produced by `snowprune_plan::shape_signature` and stored/compared by
/// `snowprune_cache::PredicateCache`: two plans with the same
/// `fingerprint` differ at most in their comparison literals and top-k row
/// count, so subsumption between them reduces to comparing `ranges` (and
/// `need`).
#[derive(Clone, Debug, PartialEq)]
pub struct ShapeKey {
    /// Literal-abstracted plan hash (the shape-index key).
    pub fingerprint: u64,
    /// Whole-plan per-column literal intervals, sorted by column name.
    pub ranges: Vec<LiteralRange>,
    /// `k + offset` for `Limit(Sort(..))` plans, `None` for filter chains.
    pub need: Option<u64>,
}

fn union_bound(a: &Option<Value>, b: &Option<Value>, want_less: bool) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => match x.sql_cmp(y) {
            Some(Ordering::Less) => Some(if want_less { x.clone() } else { y.clone() }),
            Some(Ordering::Greater) => Some(if want_less { y.clone() } else { x.clone() }),
            Some(Ordering::Equal) => Some(x.clone()),
            None => None, // mixed types: give up on this side
        },
        _ => None,
    }
}

#[derive(Clone, Copy)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// One bound of a numeric interval. Keeps the integer track exact when
/// possible and falls back to ULP-widened floats otherwise.
#[derive(Clone, Copy, Debug)]
enum NumBound {
    NegInf,
    Int(i64),
    Float(f64),
    PosInf,
}

impl NumBound {
    fn to_f64_lo(self) -> f64 {
        match self {
            NumBound::NegInf => f64::NEG_INFINITY,
            NumBound::Int(i) => {
                let f = i as f64;
                // Casting can round up past the true value; step down if so.
                if crate::value::Value::Int(i)
                    .sql_cmp(&crate::value::Value::Float(f))
                    .is_some_and(|o| o == Ordering::Less)
                {
                    f.next_down()
                } else {
                    f
                }
            }
            NumBound::Float(f) => f,
            NumBound::PosInf => f64::INFINITY,
        }
    }

    fn to_f64_hi(self) -> f64 {
        match self {
            NumBound::NegInf => f64::NEG_INFINITY,
            NumBound::Int(i) => {
                let f = i as f64;
                if crate::value::Value::Int(i)
                    .sql_cmp(&crate::value::Value::Float(f))
                    .is_some_and(|o| o == Ordering::Greater)
                {
                    f.next_up()
                } else {
                    f
                }
            }
            NumBound::Float(f) => f,
            NumBound::PosInf => f64::INFINITY,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct NumInterval {
    lo: NumBound,
    hi: NumBound,
}

impl NumInterval {
    /// `None` when the range holds non-numeric values.
    fn from_range(r: &ValueRange) -> Option<NumInterval> {
        let lo = match &r.lo {
            None => NumBound::NegInf,
            Some(Value::Int(i)) => NumBound::Int(*i),
            Some(Value::Float(f)) => NumBound::Float(*f),
            Some(_) => return None,
        };
        let hi = match &r.hi {
            None => NumBound::PosInf,
            Some(Value::Int(i)) => NumBound::Int(*i),
            Some(Value::Float(f)) => NumBound::Float(*f),
            Some(_) => return None,
        };
        Some(NumInterval { lo, hi })
    }

    fn apply(self, other: NumInterval, op: ArithOp) -> NumInterval {
        // Integer fast path: both intervals fully integral and finite and the
        // checked ops succeed -> exact integer bounds.
        if let (
            NumBound::Int(a_lo),
            NumBound::Int(a_hi),
            NumBound::Int(b_lo),
            NumBound::Int(b_hi),
        ) = (self.lo, self.hi, other.lo, other.hi)
        {
            if !matches!(op, ArithOp::Div) {
                let int_op = |x: i64, y: i64| -> Option<i64> {
                    match op {
                        ArithOp::Add => x.checked_add(y),
                        ArithOp::Sub => x.checked_sub(y),
                        ArithOp::Mul => x.checked_mul(y),
                        ArithOp::Div => unreachable!(),
                    }
                };
                let corners = [
                    int_op(a_lo, b_lo),
                    int_op(a_lo, b_hi),
                    int_op(a_hi, b_lo),
                    int_op(a_hi, b_hi),
                ];
                if corners.iter().all(Option::is_some) {
                    let vals: Vec<i64> = corners.into_iter().map(Option::unwrap).collect();
                    return NumInterval {
                        lo: NumBound::Int(*vals.iter().min().unwrap()),
                        hi: NumBound::Int(*vals.iter().max().unwrap()),
                    };
                }
            }
        }
        // Float track with ULP widening.
        let (a_lo, a_hi) = (self.lo.to_f64_lo(), self.hi.to_f64_hi());
        let (b_lo, b_hi) = (other.lo.to_f64_lo(), other.hi.to_f64_hi());
        let f = |x: f64, y: f64| -> f64 {
            match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => mul_corner(x, y),
                ArithOp::Div => {
                    if y == 0.0 {
                        f64::NAN
                    } else {
                        x / y
                    }
                }
            }
        };
        let corners = [f(a_lo, b_lo), f(a_lo, b_hi), f(a_hi, b_lo), f(a_hi, b_hi)];
        if corners.iter().any(|c| c.is_nan()) {
            return NumInterval {
                lo: NumBound::NegInf,
                hi: NumBound::PosInf,
            };
        }
        let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        NumInterval {
            lo: finite_or_inf(lo.next_down(), false),
            hi: finite_or_inf(hi.next_up(), true),
        }
    }

    fn lo_value(self) -> Option<Value> {
        match self.lo {
            NumBound::NegInf => None,
            NumBound::Int(i) => Some(Value::Int(i)),
            NumBound::Float(f) => Some(Value::Float(f)),
            NumBound::PosInf => Some(Value::Float(f64::INFINITY)),
        }
    }

    fn hi_value(self) -> Option<Value> {
        match self.hi {
            NumBound::PosInf => None,
            NumBound::Int(i) => Some(Value::Int(i)),
            NumBound::Float(f) => Some(Value::Float(f)),
            NumBound::NegInf => Some(Value::Float(f64::NEG_INFINITY)),
        }
    }
}

/// Corner multiplication with the convention `0 * ±inf = 0`, which yields
/// correct interval corners (the unbounded factor only matters when the
/// other factor can be nonzero, in which case another corner captures it).
fn mul_corner(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

fn finite_or_inf(f: f64, pos: bool) -> NumBound {
    if f.is_finite() {
        NumBound::Float(f)
    } else if pos {
        NumBound::PosInf
    } else {
        NumBound::NegInf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_range(lo: i64, hi: i64) -> ValueRange {
        ValueRange {
            lo: Some(Value::Int(lo)),
            hi: Some(Value::Int(hi)),
            may_null: false,
            all_null: false,
        }
    }

    #[test]
    fn paper_example_altitude_scaling() {
        // §3.1: altit in [934, 7674]; altit * 0.3048 ~ [284.68, 2339.04].
        let altit = int_range(934, 7674);
        let factor = ValueRange::point(Value::Float(0.3048));
        let scaled = altit.mul(&factor);
        let lo = scaled.lo.clone().unwrap().as_f64().unwrap();
        let hi = scaled.hi.clone().unwrap().as_f64().unwrap();
        assert!((lo - 284.68).abs() < 0.01, "lo = {lo}");
        assert!((hi - 2339.04).abs() < 0.01, "hi = {hi}");
        // The comparison `> 1500` partially overlaps -> possibly true.
        assert!(!scaled.certainly_le(&Value::Int(1500)));
        assert!(scaled.possibly_le(&Value::Int(1500)));
        // The IF(...) union with the raw range extends to [284.68.., 7674].
        let unioned = scaled.union(&int_range(934, 7674));
        assert!(!unioned.certainly_le(&Value::Int(1500)));
        assert_eq!(unioned.hi, Some(Value::Int(7674)));
    }

    #[test]
    fn integer_track_is_exact() {
        let r = int_range(-3, 4).mul(&int_range(2, 5));
        assert_eq!(r.lo, Some(Value::Int(-15)));
        assert_eq!(r.hi, Some(Value::Int(20)));
    }

    #[test]
    fn overflow_falls_back_to_float() {
        let r = int_range(i64::MAX - 1, i64::MAX).add(&int_range(1, 2));
        assert!(matches!(r.lo, Some(Value::Float(_))));
        let lo = r.lo.unwrap().as_f64().unwrap();
        assert!(lo <= i64::MAX as f64);
    }

    #[test]
    fn division_by_possible_zero_is_top() {
        let r = int_range(1, 10).div(&int_range(-1, 1));
        assert_eq!(r.lo, None);
        assert_eq!(r.hi, None);
        assert!(r.may_null);
    }

    #[test]
    fn division_exact_enough() {
        let r = int_range(10, 20).div(&int_range(2, 2));
        assert!(r.certainly_ge(&Value::Float(4.999)));
        assert!(r.certainly_le(&Value::Float(10.001)));
    }

    #[test]
    fn unbounded_times_zero_width() {
        let unbounded = ValueRange {
            lo: None,
            hi: None,
            may_null: false,
            all_null: false,
        };
        let zero = ValueRange::point(Value::Int(0));
        let r = unbounded.mul(&zero);
        assert!(r.possibly_eq(&Value::Int(0)));
        assert!(r.certainly_le(&Value::Float(0.1)));
        assert!(r.certainly_ge(&Value::Float(-0.1)));
    }

    #[test]
    fn comparisons_on_mixed_types_are_conservative() {
        let r = ValueRange {
            lo: Some(Value::Str("a".into())),
            hi: Some(Value::Str("z".into())),
            may_null: false,
            all_null: false,
        };
        assert!(!r.certainly_le(&Value::Int(5)));
        assert!(r.possibly_le(&Value::Int(5)));
    }

    #[test]
    fn overlap_checks() {
        assert!(int_range(0, 10).overlaps(&int_range(10, 20)));
        assert!(!int_range(0, 9).overlaps(&int_range(10, 20)));
        assert!(int_range(5, 6).overlaps(&ValueRange::top()));
    }

    #[test]
    fn negation_swaps_bounds() {
        let r = int_range(-3, 7).neg();
        assert_eq!(r.lo, Some(Value::Int(-7)));
        assert_eq!(r.hi, Some(Value::Int(3)));
    }

    fn lit_range(lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> LiteralRange {
        LiteralRange {
            column: "v".into(),
            lo: lo.map(|(v, inclusive)| RangeBound {
                value: Value::Int(v),
                inclusive,
            }),
            hi: hi.map(|(v, inclusive)| RangeBound {
                value: Value::Int(v),
                inclusive,
            }),
        }
    }

    #[test]
    fn literal_range_tighten_keeps_tighter_bound() {
        let mut r = LiteralRange::unbounded("v");
        assert!(r.tighten_lo(Value::Int(10), true));
        assert!(r.tighten_lo(Value::Int(5), true)); // looser: ignored
        assert_eq!(
            r.lo,
            Some(RangeBound {
                value: Value::Int(10),
                inclusive: true
            })
        );
        assert!(r.tighten_lo(Value::Int(10), false)); // exclusive beats inclusive
        assert_eq!(
            r.lo,
            Some(RangeBound {
                value: Value::Int(10),
                inclusive: false
            })
        );
        assert!(r.tighten_hi(Value::Int(90), true));
        assert!(r.tighten_hi(Value::Int(80), false));
        assert_eq!(
            r.hi,
            Some(RangeBound {
                value: Value::Int(80),
                inclusive: false
            })
        );
        // Mixed types are not intersectable.
        assert!(!r.tighten_lo(Value::Str("a".into()), true));
    }

    #[test]
    fn literal_range_containment() {
        // [10, 90] contains [20, 80] (the BETWEEN subsumption example).
        let wide = lit_range(Some((10, true)), Some((90, true)));
        let narrow = lit_range(Some((20, true)), Some((80, true)));
        assert!(wide.contains(&narrow));
        assert!(!narrow.contains(&wide));
        // [50, inf) contains (50, inf) but not vice versa (equal-boundary
        // inclusivity: every v > 50 satisfies v >= 50; v = 50 does not
        // satisfy v > 50).
        let ge = lit_range(Some((50, true)), None);
        let gt = lit_range(Some((50, false)), None);
        assert!(ge.contains(&gt));
        assert!(!gt.contains(&ge));
        // Unbounded contains everything; bounded never contains unbounded.
        assert!(LiteralRange::unbounded("v").contains(&wide));
        assert!(!wide.contains(&LiteralRange::unbounded("v")));
        // Incomparable bounds are conservatively not contained.
        let s = LiteralRange {
            column: "v".into(),
            lo: Some(RangeBound {
                value: Value::Str("a".into()),
                inclusive: true,
            }),
            hi: None,
        };
        assert!(!s.contains(&ge));
        assert!(!ge.contains(&s));
    }

    #[test]
    fn literal_range_equality_requires_matching_inclusivity() {
        let ge = lit_range(Some((50, true)), None);
        let gt = lit_range(Some((50, false)), None);
        assert!(ge.same_interval(&ge.clone()));
        assert!(!ge.same_interval(&gt));
        // Int/Float bounds with equal SQL value compare equal.
        let ge_f = LiteralRange {
            column: "v".into(),
            lo: Some(RangeBound {
                value: Value::Float(50.0),
                inclusive: true,
            }),
            hi: None,
        };
        assert!(ge.same_interval(&ge_f));
    }
}
