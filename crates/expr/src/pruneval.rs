//! Metadata-only expression evaluation: the machinery of §3.1.
//!
//! Two mutually recursive analyses over an expression and the zone maps of
//! one micro-partition:
//!
//! * [`derive_range`] — the image of a *value* expression as a
//!   [`ValueRange`] ("every function must provide a mechanism to derive
//!   transformed min/max ranges from its input").
//! * [`prune_eval`] — the [`Verdict`] of a *predicate*: conservative facts
//!   about the truth values it takes across the partition's rows.
//!
//! Everything here must be conservative: `!may_true` ⇒ the partition truly
//! contains no qualifying row, and `all_true` ⇒ every row truly qualifies.
//! These invariants are property-tested in `tests/prop_pruning.rs`.

use std::cmp::Ordering;

use snowprune_types::{Value, ValueRange, Verdict, ZoneMap};

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::rewrite::{analyze_like, prefix_successor, LikeShape};

/// Derive the possible value range of `expr` on a partition described by
/// `meta` (one zone map per schema column, indexed by bound column index).
pub fn derive_range(expr: &Expr, meta: &[ZoneMap]) -> ValueRange {
    match expr {
        Expr::Literal(v) => {
            if v.is_null() {
                ValueRange::null()
            } else {
                ValueRange::point(v.clone())
            }
        }
        Expr::Column(c) => ValueRange::from_zone_map(&meta[c.index]),
        Expr::Arith(op, a, b) => {
            let (ra, rb) = (derive_range(a, meta), derive_range(b, meta));
            match op {
                ArithOp::Add => ra.add(&rb),
                ArithOp::Sub => ra.sub(&rb),
                ArithOp::Mul => ra.mul(&rb),
                ArithOp::Div => ra.div(&rb),
            }
        }
        Expr::Neg(x) => derive_range(x, meta).neg(),
        Expr::Abs(x) => abs_range(&derive_range(x, meta)),
        Expr::If(cond, then, els) => {
            // §3.1: conservatively union both branches; if metadata proves
            // the condition always (or never) holds, use only one branch.
            let vc = prune_eval(cond, meta);
            let rt = derive_range(then, meta);
            let re = derive_range(els, meta);
            if vc.all_true {
                rt
            } else if !vc.may_true {
                // Rows where the condition is FALSE *or* NULL take `else`.
                re
            } else {
                rt.union(&re)
            }
        }
        Expr::Coalesce(xs) => {
            let mut acc: Option<ValueRange> = None;
            let mut may_null = true;
            let mut all_null = true;
            for x in xs {
                let r = derive_range(x, meta);
                may_null &= r.may_null;
                all_null &= r.all_null;
                acc = Some(match acc {
                    None => r,
                    Some(prev) => prev.union(&r),
                });
                if !may_null {
                    break;
                }
            }
            let mut r = acc.unwrap_or_else(ValueRange::null);
            r.may_null = may_null;
            r.all_null = all_null;
            r
        }
        // Boolean-valued expressions: summarize the verdict as a bool range.
        Expr::Cmp(..)
        | Expr::And(_)
        | Expr::Or(_)
        | Expr::Not(_)
        | Expr::IsNull(_)
        | Expr::Like(..)
        | Expr::StartsWith(..)
        | Expr::InList(..) => bool_range(prune_eval(expr, meta)),
    }
}

fn abs_range(r: &ValueRange) -> ValueRange {
    let zero = Value::Int(0);
    if r.certainly_ge(&zero) {
        return r.clone();
    }
    if r.certainly_le(&zero) {
        return r.neg();
    }
    // Straddles zero: [0, max(|lo|, |hi|)]; either side may be unbounded.
    let hi = match (&r.lo, &r.hi) {
        (Some(lo), Some(hi)) => {
            let nlo = snowprune_types::arith::neg(lo).unwrap_or(Value::Null);
            if nlo.is_null() || hi.is_null() {
                None
            } else {
                match nlo.sql_cmp(hi) {
                    Some(Ordering::Greater) => Some(nlo),
                    Some(_) => Some(hi.clone()),
                    None => None,
                }
            }
        }
        _ => None,
    };
    ValueRange {
        lo: Some(zero),
        hi,
        may_null: r.may_null,
        all_null: r.all_null,
    }
}

fn bool_range(v: Verdict) -> ValueRange {
    let lo = if v.may_false {
        Value::Bool(false)
    } else {
        Value::Bool(true)
    };
    let hi = if v.may_true {
        Value::Bool(true)
    } else {
        Value::Bool(false)
    };
    // may be UNKNOWN (NULL) when neither "all" fact holds.
    let may_null = !(v.all_true || v.all_false);
    ValueRange {
        lo: Some(lo),
        hi: Some(hi),
        may_null,
        all_null: !v.may_true && !v.may_false && may_null,
    }
}

/// Evaluate a predicate against partition metadata, yielding a [`Verdict`].
pub fn prune_eval(expr: &Expr, meta: &[ZoneMap]) -> Verdict {
    match expr {
        Expr::Literal(Value::Bool(true)) => Verdict::ALWAYS_TRUE,
        Expr::Literal(Value::Bool(false)) => Verdict::ALWAYS_FALSE,
        Expr::Literal(Value::Null) => Verdict::ALWAYS_UNKNOWN,
        Expr::Literal(_) => Verdict::TOP,
        Expr::Column(c) => {
            // A bare boolean column as predicate.
            let r = ValueRange::from_zone_map(&meta[c.index]);
            if r.all_null {
                return Verdict::ALWAYS_UNKNOWN;
            }
            let t = Value::Bool(true);
            let f = Value::Bool(false);
            leaf_verdict(
                r.possibly_eq(&t),
                r.certainly_eq(&t),
                r.possibly_eq(&f),
                r.certainly_eq(&f),
                r.may_null,
            )
        }
        Expr::And(xs) => xs
            .iter()
            .map(|x| prune_eval(x, meta))
            .fold(Verdict::ALWAYS_TRUE, Verdict::and),
        Expr::Or(xs) => xs
            .iter()
            .map(|x| prune_eval(x, meta))
            .fold(Verdict::ALWAYS_FALSE, Verdict::or),
        Expr::Not(x) => prune_eval(x, meta).not(),
        Expr::IsNull(x) => {
            let r = derive_range(x, meta);
            Verdict {
                may_true: r.may_null,
                all_true: r.all_null,
                may_false: !r.all_null,
                all_false: !r.may_null,
            }
        }
        Expr::Cmp(op, a, b) => {
            let (ra, rb) = (derive_range(a, meta), derive_range(b, meta));
            cmp_verdict(*op, &ra, &rb)
        }
        Expr::Like(x, pattern) => like_verdict(x, pattern, meta),
        Expr::StartsWith(x, prefix) => prefix_verdict(&derive_range(x, meta), prefix, true),
        Expr::InList(x, vals) => in_list_verdict(&derive_range(x, meta), vals),
        Expr::If(c, t, e) => {
            let vc = prune_eval(c, meta);
            let vt = prune_eval(t, meta);
            let ve = prune_eval(e, meta);
            if_verdict(vc, vt, ve)
        }
        // Value-typed nodes used as predicates: no information.
        Expr::Arith(..) | Expr::Neg(_) | Expr::Abs(_) | Expr::Coalesce(_) => Verdict::TOP,
    }
}

/// Assemble a verdict from truth-possibility facts at a leaf.
/// `may_t`/`all_t` ignore NULL; NULL possibility strips the "all" claims.
fn leaf_verdict(may_t: bool, all_t: bool, may_f: bool, all_f: bool, may_null: bool) -> Verdict {
    Verdict {
        may_true: may_t,
        all_true: all_t && !may_null,
        may_false: may_f,
        all_false: all_f && !may_null,
    }
}

fn cmp_verdict(op: CmpOp, a: &ValueRange, b: &ValueRange) -> Verdict {
    if a.all_null || b.all_null {
        return Verdict::ALWAYS_UNKNOWN;
    }
    let may_null = a.may_null || b.may_null;
    let (may_t, all_t) = (exists_pair(op, a, b), forall_pair(op, a, b));
    let neg = op.negate();
    let (may_f, all_f) = (exists_pair(neg, a, b), forall_pair(neg, a, b));
    leaf_verdict(may_t, all_t, may_f, all_f, may_null)
}

/// ∃ a ∈ A, b ∈ B (non-null) with `a op b`? Conservative `true` on
/// incomparable or unbounded inputs.
fn exists_pair(op: CmpOp, a: &ValueRange, b: &ValueRange) -> bool {
    match op {
        CmpOp::Lt => {
            cmp_bounds(&a.lo, &b.hi) != Some(Ordering::Greater)
                && cmp_bounds(&a.lo, &b.hi) != Some(Ordering::Equal)
        }
        CmpOp::Le => cmp_bounds(&a.lo, &b.hi) != Some(Ordering::Greater),
        CmpOp::Gt => {
            cmp_bounds(&a.hi, &b.lo) != Some(Ordering::Less)
                && cmp_bounds(&a.hi, &b.lo) != Some(Ordering::Equal)
        }
        CmpOp::Ge => cmp_bounds(&a.hi, &b.lo) != Some(Ordering::Less),
        CmpOp::Eq => a.overlaps(b),
        CmpOp::Ne => !forall_pair(CmpOp::Eq, a, b),
    }
}

/// ∀ a ∈ A, b ∈ B (non-null): `a op b`? Conservative `false`.
fn forall_pair(op: CmpOp, a: &ValueRange, b: &ValueRange) -> bool {
    match op {
        CmpOp::Lt => cmp_bounds(&a.hi, &b.lo) == Some(Ordering::Less),
        CmpOp::Le => matches!(
            cmp_bounds(&a.hi, &b.lo),
            Some(Ordering::Less | Ordering::Equal)
        ),
        CmpOp::Gt => cmp_bounds(&a.lo, &b.hi) == Some(Ordering::Greater),
        CmpOp::Ge => matches!(
            cmp_bounds(&a.lo, &b.hi),
            Some(Ordering::Greater | Ordering::Equal)
        ),
        CmpOp::Eq => {
            // Both ranges the same single point.
            matches!(
                (
                    cmp_bounds(&a.lo, &a.hi),
                    cmp_bounds(&b.lo, &b.hi),
                    cmp_bounds(&a.lo, &b.lo)
                ),
                (
                    Some(Ordering::Equal),
                    Some(Ordering::Equal),
                    Some(Ordering::Equal)
                )
            )
        }
        CmpOp::Ne => !a.overlaps(b),
    }
}

/// Compare two optional bounds; `None` (unbounded or incomparable types)
/// yields `None`, which callers must treat conservatively.
fn cmp_bounds(a: &Option<Value>, b: &Option<Value>) -> Option<Ordering> {
    match (a, b) {
        (Some(x), Some(y)) => x.sql_cmp(y),
        _ => None,
    }
}

fn like_verdict(x: &Expr, pattern: &str, meta: &[ZoneMap]) -> Verdict {
    let r = derive_range(x, meta);
    if r.all_null {
        return Verdict::ALWAYS_UNKNOWN;
    }
    match analyze_like(pattern) {
        LikeShape::Exact(s) => cmp_verdict(CmpOp::Eq, &r, &ValueRange::point(Value::from(s))),
        LikeShape::Prefix(p) => prefix_verdict(&r, &p, true),
        // Widened: the prefix region over-approximates matches, so only the
        // may_true/all_false facts carry over; all_true must not (§3.1:
        // widening relaxes the suffix constraint).
        LikeShape::WidenedPrefix(p) => {
            let v = prefix_verdict(&r, &p, false);
            Verdict {
                all_true: false,
                ..v
            }
        }
        LikeShape::Opaque => leaf_verdict(true, false, true, false, r.may_null),
    }
}

/// Verdict for `expr STARTSWITH prefix` given the expression's range.
/// `exact` marks that the predicate *is* the prefix test (not a widened
/// stand-in), enabling the all_true claim.
fn prefix_verdict(r: &ValueRange, prefix: &str, exact: bool) -> Verdict {
    if r.all_null {
        return Verdict::ALWAYS_UNKNOWN;
    }
    let p = Value::from(prefix);
    let succ = prefix_successor(prefix).map(Value::from);
    // may_true: [min, max] intersects [prefix, succ(prefix)).
    let below = match &succ {
        Some(s) => r.certainly_ge(s),
        None => false,
    };
    let may_t = r.possibly_ge(&p) && !below && string_possible(r);
    // all_true: min >= prefix and max < succ (every string in between
    // starts with the prefix).
    let all_t = exact && r.certainly_ge(&p) && succ.as_ref().is_some_and(|s| r.certainly_lt(s));
    leaf_verdict(may_t, all_t, !all_t, !may_t, r.may_null)
}

/// Whether a range can contain string values at all.
fn string_possible(r: &ValueRange) -> bool {
    let is_str = |v: &Option<Value>| v.as_ref().map(|x| matches!(x, Value::Str(_)));
    !matches!((is_str(&r.lo), is_str(&r.hi)), (Some(false), Some(false)))
}

fn in_list_verdict(r: &ValueRange, vals: &[Value]) -> Verdict {
    if r.all_null {
        return Verdict::ALWAYS_UNKNOWN;
    }
    let list_has_null = vals.iter().any(Value::is_null);
    let non_null: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
    let may_t = non_null.iter().any(|v| r.possibly_eq(v));
    // all_true: the whole range is one point equal to a list element.
    let all_t = non_null.iter().any(|v| r.certainly_eq(v));
    // FALSE requires a definite non-match AND no NULL in the list
    // (`x IN (1, NULL)` is TRUE or UNKNOWN, never FALSE).
    let may_f = !list_has_null && !all_t;
    let all_f = !list_has_null && !may_t;
    leaf_verdict(may_t, all_t, may_f, all_f, r.may_null)
}

/// Verdict of `IF(c, t, e)` as a predicate: rows where `c` is TRUE take
/// `t`'s truth value, all other rows (FALSE or NULL condition) take `e`'s.
fn if_verdict(c: Verdict, t: Verdict, e: Verdict) -> Verdict {
    let c_may_take_then = c.may_true;
    let c_may_take_else = !c.all_true;
    Verdict {
        may_true: (c_may_take_then && t.may_true) || (c_may_take_else && e.may_true),
        all_true: (c.all_true && t.all_true)
            || (!c.may_true && e.all_true)
            || (t.all_true && e.all_true),
        may_false: (c_may_take_then && t.may_false) || (c_may_take_else && e.may_false),
        all_false: (c.all_true && t.all_false)
            || (!c.may_true && e.all_false)
            || (t.all_false && e.all_false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use snowprune_storage::{Field, Schema};
    use snowprune_types::{MatchClass, ScalarType};

    fn zm(min: Value, max: Value, nulls: u64, rows: u64) -> ZoneMap {
        ZoneMap {
            min: Some(min),
            max: Some(max),
            min_exact: true,
            max_exact: true,
            null_count: nulls,
            row_count: rows,
        }
    }

    /// The paper's §3.1 metadata table: unit in ["feet","meters"],
    /// altit in [934, 7674], name in ["Basecamp-...","Unmarked-..."].
    fn paper_meta() -> Vec<ZoneMap> {
        vec![
            zm(
                Value::Str("feet".into()),
                Value::Str("meters".into()),
                0,
                100,
            ),
            zm(Value::Int(934), Value::Int(7674), 0, 100),
            zm(
                Value::Str("Basecamp-Trail-1".into()),
                Value::Str("Unmarked-Ridge-9".into()),
                0,
                100,
            ),
        ]
    }

    fn paper_schema() -> Schema {
        Schema::new(vec![
            Field::new("unit", ScalarType::Str),
            Field::new("altit", ScalarType::Int),
            Field::new("name", ScalarType::Str),
        ])
    }

    fn paper_predicate() -> Expr {
        if_(
            col("unit").eq(lit("feet")),
            col("altit").mul(lit(0.3048)),
            col("altit"),
        )
        .gt(lit(1500i64))
        .and(col("name").like("Marked-%-Ridge"))
        .bind(&paper_schema())
        .unwrap()
    }

    #[test]
    fn paper_example_not_pruned() {
        // §3.1 concludes: "the micro-partition should not be pruned".
        let v = prune_eval(&paper_predicate(), &paper_meta());
        assert!(v.may_true);
        assert!(!v.all_true);
        assert_eq!(v.classify(100), MatchClass::PartiallyMatching);
    }

    #[test]
    fn paper_example_pruned_when_name_out_of_range() {
        let mut meta = paper_meta();
        meta[2] = zm(
            Value::Str("Np-Trail".into()),
            Value::Str("Zz-Trail".into()),
            0,
            100,
        );
        let v = prune_eval(&paper_predicate(), &meta);
        assert!(v.prunable(), "name range excludes 'Marked-' prefix");
    }

    #[test]
    fn paper_example_pruned_when_altitude_low_and_meters() {
        // unit always 'meters' -> IF takes raw altit; altit max 1200 < 1500.
        let mut meta = paper_meta();
        meta[0] = zm(
            Value::Str("meters".into()),
            Value::Str("meters".into()),
            0,
            100,
        );
        meta[1] = zm(Value::Int(934), Value::Int(1200), 0, 100);
        meta[2] = zm(
            Value::Str("Marked-A-Ridge".into()),
            Value::Str("Marked-Z-Ridge".into()),
            0,
            100,
        );
        let v = prune_eval(&paper_predicate(), &meta);
        assert!(v.prunable());
    }

    #[test]
    fn unit_all_feet_refines_range() {
        // unit always 'feet' -> scaled range [284.68, 2339.04]; altit above
        // 4921 ft (1500m) cannot be ruled out when max is 7674 ft.
        let mut meta = paper_meta();
        meta[0] = zm(Value::Str("feet".into()), Value::Str("feet".into()), 0, 100);
        meta[2] = zm(
            Value::Str("Marked-A-Ridge".into()),
            Value::Str("Marked-Z-Ridge".into()),
            0,
            100,
        );
        let v = prune_eval(&paper_predicate(), &meta);
        assert!(v.may_true);
        // And with a low max altitude, the scaled range drops below 1500.
        meta[1] = zm(Value::Int(934), Value::Int(4000), 0, 100);
        let v2 = prune_eval(&paper_predicate(), &meta);
        assert!(v2.prunable(), "4000ft = 1219m < 1500m");
    }

    #[test]
    fn fully_matching_detection() {
        let schema = Schema::new(vec![
            Field::new("species", ScalarType::Str),
            Field::new("s", ScalarType::Int),
        ]);
        // Figure 5, partition 3: species all 'Alpine*', s in [76, 101].
        let meta = vec![
            zm(
                Value::Str("Alpine Goat".into()),
                Value::Str("Alpine Sheep".into()),
                0,
                3,
            ),
            zm(Value::Int(76), Value::Int(101), 0, 3),
        ];
        let pred = col("species")
            .like("Alpine%")
            .and(col("s").ge(lit(50i64)))
            .bind(&schema)
            .unwrap();
        let v = prune_eval(&pred, &meta);
        assert!(v.fully_matching(), "{v:?}");
        assert_eq!(v.classify(3), MatchClass::FullyMatching);
        // Partition 2 (Figure 5): species in [Alpine Bat, Red Fox], s in [6, 70].
        let meta2 = vec![
            zm(
                Value::Str("Alpine Bat".into()),
                Value::Str("Red Fox".into()),
                0,
                3,
            ),
            zm(Value::Int(6), Value::Int(70), 0, 3),
        ];
        let v2 = prune_eval(&pred, &meta2);
        assert_eq!(v2.classify(3), MatchClass::PartiallyMatching);
        // Partition 1 (Figure 5): species in [Brown Bear, Snow Vole] - prunable.
        let meta1 = vec![
            zm(
                Value::Str("Brown Bear".into()),
                Value::Str("Snow Vole".into()),
                0,
                3,
            ),
            zm(Value::Int(7), Value::Int(133), 0, 3),
        ];
        assert_eq!(
            prune_eval(&pred, &meta1).classify(3),
            MatchClass::NotMatching
        );
    }

    #[test]
    fn nulls_block_fully_matching() {
        let schema = Schema::new(vec![Field::new("s", ScalarType::Int)]);
        let pred = col("s").ge(lit(50i64)).bind(&schema).unwrap();
        let no_nulls = vec![zm(Value::Int(60), Value::Int(90), 0, 10)];
        assert!(prune_eval(&pred, &no_nulls).fully_matching());
        let with_nulls = vec![zm(Value::Int(60), Value::Int(90), 1, 10)];
        let v = prune_eval(&pred, &with_nulls);
        assert!(!v.fully_matching(), "a NULL row does not satisfy s >= 50");
        assert!(v.may_true);
    }

    #[test]
    fn is_null_verdicts() {
        let schema = Schema::new(vec![Field::new("s", ScalarType::Int)]);
        let pred = col("s").is_null().bind(&schema).unwrap();
        let all_null = vec![ZoneMap {
            min: None,
            max: None,
            min_exact: false,
            max_exact: false,
            null_count: 5,
            row_count: 5,
        }];
        assert!(prune_eval(&pred, &all_null).fully_matching());
        let none_null = vec![zm(Value::Int(1), Value::Int(2), 0, 5)];
        assert!(prune_eval(&pred, &none_null).prunable());
        let not_null_pred = col("s").is_null().not().bind(&schema).unwrap();
        assert!(prune_eval(&not_null_pred, &none_null).fully_matching());
        assert!(prune_eval(&not_null_pred, &all_null).prunable());
    }

    #[test]
    fn ne_and_eq_verdicts() {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let meta = vec![zm(Value::Int(5), Value::Int(5), 0, 4)];
        let eq = col("x").eq(lit(5i64)).bind(&schema).unwrap();
        assert!(prune_eval(&eq, &meta).fully_matching());
        let ne = col("x").ne(lit(5i64)).bind(&schema).unwrap();
        assert!(prune_eval(&ne, &meta).prunable());
        let ne2 = col("x").ne(lit(7i64)).bind(&schema).unwrap();
        assert!(prune_eval(&ne2, &meta).fully_matching());
    }

    #[test]
    fn in_list_verdicts() {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let meta = vec![zm(Value::Int(10), Value::Int(20), 0, 4)];
        let pred = col("x")
            .in_list(vec![Value::Int(1), Value::Int(15)])
            .bind(&schema)
            .unwrap();
        assert!(prune_eval(&pred, &meta).may_true);
        let miss = col("x")
            .in_list(vec![Value::Int(1), Value::Int(2)])
            .bind(&schema)
            .unwrap();
        assert!(prune_eval(&miss, &meta).prunable());
        // NULL in list: misses become UNKNOWN, so NOT IN cannot match either.
        let miss_null = col("x")
            .in_list(vec![Value::Int(1), Value::Null])
            .bind(&schema)
            .unwrap();
        let v = prune_eval(&miss_null, &meta);
        assert!(v.prunable());
        assert!(prune_eval(&miss_null.not(), &meta).prunable());
    }

    #[test]
    fn truncated_string_metadata_stays_sound() {
        let schema = Schema::new(vec![Field::new("name", ScalarType::Str)]);
        // Stored bounds truncated to 3 chars: min "Mar" (prefix of true min
        // "Marked-A"), max "Mas" (increment of "Mar", above true max).
        let meta = vec![ZoneMap {
            min: Some(Value::Str("Mar".into())),
            max: Some(Value::Str("Mas".into())),
            min_exact: false,
            max_exact: false,
            null_count: 0,
            row_count: 10,
        }];
        let pred = col("name").starts_with("Marked-").bind(&schema).unwrap();
        let v = prune_eval(&pred, &meta);
        // Must not prune (partition may contain Marked-*), and must not
        // claim fully matching (bounds are wider than the prefix region).
        assert!(v.may_true);
        assert!(!v.all_true);
    }

    #[test]
    fn startswith_fully_matching() {
        let schema = Schema::new(vec![Field::new("name", ScalarType::Str)]);
        let meta = vec![zm(
            Value::Str("Alpine Goat".into()),
            Value::Str("Alpine Sheep".into()),
            0,
            3,
        )];
        let pred = col("name").starts_with("Alpine").bind(&schema).unwrap();
        assert!(prune_eval(&pred, &meta).fully_matching());
        let pred2 = col("name")
            .starts_with("Alpine Goat x")
            .bind(&schema)
            .unwrap();
        let v2 = prune_eval(&pred2, &meta);
        assert!(!v2.fully_matching());
    }

    #[test]
    fn derive_range_through_if_and_abs() {
        let schema = Schema::new(vec![
            Field::new("unit", ScalarType::Str),
            Field::new("x", ScalarType::Int),
        ]);
        let meta = vec![
            zm(Value::Str("a".into()), Value::Str("b".into()), 0, 10),
            zm(Value::Int(-8), Value::Int(3), 0, 10),
        ];
        let e = col("x").abs().bind(&schema).unwrap();
        let r = derive_range(&e, &meta);
        assert_eq!(r.lo, Some(Value::Int(0)));
        assert_eq!(r.hi, Some(Value::Int(8)));
        let e2 = if_(col("unit").eq(lit("a")), col("x"), col("x").mul(lit(2i64)))
            .bind(&schema)
            .unwrap();
        let r2 = derive_range(&e2, &meta);
        assert_eq!(r2.lo, Some(Value::Int(-16)));
        assert_eq!(r2.hi, Some(Value::Int(6)));
    }

    #[test]
    fn coalesce_range_strips_null_when_fallback_is_literal() {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let meta = vec![zm(Value::Int(5), Value::Int(9), 3, 10)];
        let e = coalesce(vec![col("x"), lit(0i64)]).bind(&schema).unwrap();
        let r = derive_range(&e, &meta);
        assert!(!r.may_null);
        assert_eq!(r.lo, Some(Value::Int(0)));
        assert_eq!(r.hi, Some(Value::Int(9)));
    }
}
