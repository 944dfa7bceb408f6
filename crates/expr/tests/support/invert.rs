//! Predicate inversion for the two-pass fully-matching detection of §4.2.
//!
//! The paper identifies fully-matching partitions by "including a second
//! pass with the inverted predicate": a partition is fully matching iff the
//! inverted pass proves it contains no row *failing* the original
//! predicate. A row fails `p` when `p` evaluates to FALSE **or UNKNOWN**
//! (SQL WHERE only keeps TRUE), so the inversion must fold NULL handling in
//! — `s >= 50` inverts to `s < 50 OR s IS NULL`, not just `s < 50`.
//!
//! Not every predicate shape is invertible; [`invert_predicate`] returns
//! `None` for unsupported shapes, which surfaces in the paper's Table 2 as
//! the "unsupported shapes" category.
//!
//! The engine detects fully-matching partitions in a single pass, from the
//! `all_true` half of the verdict lattice (`prune_eval(..).classify`). This
//! module keeps the paper's two-pass method as an independent cross-check
//! for the pruning property tests.

use snowprune_expr::{prune_eval, CmpOp, Expr};
use snowprune_types::{Value, Verdict, ZoneMap};

/// Build the *failure predicate* of `p`: an expression that is TRUE exactly
/// on the rows where `p` is FALSE or UNKNOWN. Returns `None` when `p` has a
/// shape we cannot invert soundly.
pub fn invert_predicate(p: &Expr) -> Option<Expr> {
    match p {
        Expr::Literal(Value::Bool(true)) => Some(Expr::Literal(Value::Bool(false))),
        Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null) => {
            Some(Expr::Literal(Value::Bool(true)))
        }
        // p1 AND p2 is TRUE iff both TRUE; it fails iff either fails.
        Expr::And(xs) => {
            let inv: Option<Vec<Expr>> = xs.iter().map(invert_predicate).collect();
            Some(Expr::Or(inv?))
        }
        // p1 OR p2 fails iff every disjunct fails.
        Expr::Or(xs) => {
            let inv: Option<Vec<Expr>> = xs.iter().map(invert_predicate).collect();
            Some(Expr::And(inv?))
        }
        // NOT x is TRUE iff x is FALSE; it fails iff x is TRUE or UNKNOWN.
        Expr::Not(x) => truthy_or_unknown(x),
        // a <op> b fails iff the negated comparison holds or either side is NULL.
        Expr::Cmp(op, a, b) => Some(or_nulls(
            Expr::Cmp(op.negate(), a.clone(), b.clone()),
            [a.as_ref(), b.as_ref()],
        )),
        // IS NULL is two-valued: it fails iff it is FALSE.
        Expr::IsNull(x) => Some(Expr::Not(Box::new(Expr::IsNull(x.clone())))),
        Expr::Like(x, pat) => Some(or_nulls(
            Expr::Not(Box::new(Expr::Like(x.clone(), pat.clone()))),
            [x.as_ref()],
        )),
        Expr::StartsWith(x, p) => Some(or_nulls(
            Expr::Not(Box::new(Expr::StartsWith(x.clone(), p.clone()))),
            [x.as_ref()],
        )),
        Expr::InList(x, vals) => {
            if vals.iter().any(Value::is_null) {
                // With a NULL in the list the predicate is never FALSE; it
                // fails iff it is not TRUE, i.e. iff no element matches —
                // which we cannot express better than NOT IN ... OR NULL.
                // NOT (x IN (..)) is UNKNOWN on exactly the failing rows,
                // so the failure predicate is `NOT(x = v1 OR x = v2 ...)`
                // over non-null values, OR x IS NULL.
                let eqs: Vec<Expr> = vals
                    .iter()
                    .filter(|v| !v.is_null())
                    .map(|v| Expr::Cmp(CmpOp::Eq, x.clone(), Box::new(Expr::Literal(v.clone()))))
                    .collect();
                let no_match = if eqs.is_empty() {
                    Expr::Literal(Value::Bool(true))
                } else {
                    Expr::And(
                        eqs.into_iter()
                            .map(|e| {
                                or_nulls_noexpand(Expr::Cmp(CmpOp::Ne, cmp_lhs(&e), cmp_rhs(&e)))
                            })
                            .collect(),
                    )
                };
                Some(or_nulls(no_match, [x.as_ref()]))
            } else {
                Some(or_nulls(
                    Expr::Not(Box::new(Expr::InList(x.clone(), vals.clone()))),
                    [x.as_ref()],
                ))
            }
        }
        // Bare boolean column: fails iff FALSE or NULL.
        Expr::Column(c) => Some(or_nulls(
            Expr::Not(Box::new(Expr::Column(c.clone()))),
            [&Expr::Column(c.clone())],
        )),
        // IF-predicates, arithmetic-as-boolean, COALESCE, and non-boolean
        // literals: unsupported.
        Expr::If(..)
        | Expr::Arith(..)
        | Expr::Neg(_)
        | Expr::Abs(_)
        | Expr::Coalesce(_)
        | Expr::Literal(_) => None,
    }
}

fn cmp_lhs(e: &Expr) -> Box<Expr> {
    match e {
        Expr::Cmp(_, a, _) => a.clone(),
        _ => unreachable!(),
    }
}

fn cmp_rhs(e: &Expr) -> Box<Expr> {
    match e {
        Expr::Cmp(_, _, b) => b.clone(),
        _ => unreachable!(),
    }
}

fn or_nulls_noexpand(e: Expr) -> Expr {
    match &e {
        Expr::Cmp(_, a, b) => or_nulls(e.clone(), [a.as_ref(), b.as_ref()]),
        _ => e,
    }
}

/// `e OR x1 IS NULL OR x2 IS NULL ...` skipping literal operands (which are
/// never NULL unless they are the NULL literal).
fn or_nulls<'a>(e: Expr, operands: impl IntoIterator<Item = &'a Expr>) -> Expr {
    let mut disjuncts = vec![e];
    for op in operands {
        match op {
            Expr::Literal(v) if !v.is_null() => {}
            _ => disjuncts.push(Expr::IsNull(Box::new(op.clone()))),
        }
    }
    if disjuncts.len() == 1 {
        disjuncts.pop().unwrap()
    } else {
        Expr::Or(disjuncts)
    }
}

/// An expression that is TRUE exactly where `x` is TRUE or UNKNOWN (used to
/// invert `NOT x`).
fn truthy_or_unknown(x: &Expr) -> Option<Expr> {
    // x is TRUE-or-UNKNOWN iff x does not fail... iff NOT(fails(x)) — but we
    // need an *expression*. fails(x) is exactly what invert_predicate
    // builds, and "TRUE or UNKNOWN" == NOT FALSE. A row has x FALSE iff
    // NOT x is TRUE, i.e. iff fails(NOT x)... to avoid infinite regress we
    // handle the leaf cases directly.
    match x {
        Expr::Cmp(op, a, b) => Some(or_nulls(
            Expr::Cmp(*op, a.clone(), b.clone()),
            [a.as_ref(), b.as_ref()],
        )),
        Expr::Like(inner, p) => Some(or_nulls(
            Expr::Like(inner.clone(), p.clone()),
            [inner.as_ref()],
        )),
        Expr::StartsWith(inner, p) => Some(or_nulls(
            Expr::StartsWith(inner.clone(), p.clone()),
            [inner.as_ref()],
        )),
        Expr::IsNull(inner) => Some(Expr::IsNull(inner.clone())),
        Expr::Not(inner) => {
            // NOT (NOT y) fails iff NOT y is T or U iff y is F or U == fails(y).
            invert_predicate(inner)
        }
        Expr::And(xs) => {
            // AND is T-or-U iff no conjunct is FALSE iff every conjunct is T-or-U.
            let parts: Option<Vec<Expr>> = xs.iter().map(truthy_or_unknown).collect();
            Some(Expr::And(parts?))
        }
        Expr::Or(xs) => {
            // OR is FALSE iff all disjuncts FALSE; T-or-U iff some disjunct T-or-U.
            let parts: Option<Vec<Expr>> = xs.iter().map(truthy_or_unknown).collect();
            Some(Expr::Or(parts?))
        }
        Expr::Literal(Value::Bool(b)) => Some(Expr::Literal(Value::Bool(*b))),
        Expr::Literal(Value::Null) => Some(Expr::Literal(Value::Bool(true))),
        _ => None,
    }
}

/// The paper's two-pass fully-matching check: run filter pruning with the
/// inverted predicate and see whether the partition is *not matching* under
/// it. Returns `None` for unsupported shapes.
pub fn fully_matching_two_pass(p: &Expr, meta: &[ZoneMap]) -> Option<bool> {
    let inverted = invert_predicate(p)?;
    let v: Verdict = prune_eval(&inverted, meta);
    Some(v.prunable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::*;
    use snowprune_expr::{eval_predicate, Truth};
    use snowprune_storage::{Field, Schema};
    use snowprune_types::ScalarType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("species", ScalarType::Str),
            Field::new("s", ScalarType::Int),
        ])
    }

    #[test]
    fn paper_inversion_example() {
        // §4.2: species LIKE 'Alpine%' AND s >= 50 inverts to
        // species NOT LIKE 'Alpine%' OR s < 50 (plus NULL guards).
        let p = col("species")
            .like("Alpine%")
            .and(col("s").ge(lit(50i64)))
            .bind(&schema())
            .unwrap();
        let inv = invert_predicate(&p).unwrap();
        let s = inv.to_string();
        assert!(s.contains("NOT (species LIKE 'Alpine%')"), "{s}");
        assert!(s.contains("(s < 50)"), "{s}");
        assert!(s.contains("IS NULL"), "{s}");
    }

    /// The failure predicate must be TRUE exactly where the original is not
    /// TRUE, row by row.
    fn check_pointwise(p: &Expr, rows: &[Vec<Value>]) {
        let inv = invert_predicate(p).expect("invertible");
        for row in rows {
            let orig = eval_predicate(p, row);
            let fails = eval_predicate(&inv, row);
            assert_eq!(
                fails == Truth::True,
                orig != Truth::True,
                "row {row:?}: orig={orig:?} fails={fails:?} inv={inv}"
            );
        }
    }

    #[test]
    fn inversion_is_pointwise_complement_with_nulls() {
        let s = schema();
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Str("Alpine Ibex".into()), Value::Int(101)],
            vec![Value::Str("Alpine Bat".into()), Value::Int(6)],
            vec![Value::Str("Red Fox".into()), Value::Int(40)],
            vec![Value::Null, Value::Int(60)],
            vec![Value::Str("Alpine Goat".into()), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        let preds = vec![
            col("species").like("Alpine%").and(col("s").ge(lit(50i64))),
            col("s")
                .lt(lit(50i64))
                .or(col("species").eq(lit("Red Fox"))),
            col("s").is_null(),
            col("s").is_null().not(),
            col("species").like("Alpine%").not(),
            col("s").in_list(vec![Value::Int(6), Value::Int(101)]),
            col("s").in_list(vec![Value::Int(6), Value::Null]),
            col("s").ge(lit(10i64)).not().or(col("s").gt(lit(90i64))),
        ];
        for p in preds {
            check_pointwise(&p.bind(&s).unwrap(), &rows);
        }
    }

    #[test]
    fn unsupported_shapes_return_none() {
        let s = schema();
        let p = if_(col("s").gt(lit(0i64)), lit(true), lit(false))
            .bind(&s)
            .unwrap();
        assert!(invert_predicate(&p).is_none());
    }

    #[test]
    fn two_pass_agrees_with_lattice_on_figure5() {
        let s = schema();
        let pred = col("species")
            .like("Alpine%")
            .and(col("s").ge(lit(50i64)))
            .bind(&s)
            .unwrap();
        let zm = |lo: &str, hi: &str, slo: i64, shi: i64| {
            vec![
                ZoneMap {
                    min: Some(Value::Str(lo.into())),
                    max: Some(Value::Str(hi.into())),
                    min_exact: true,
                    max_exact: true,
                    null_count: 0,
                    row_count: 3,
                },
                ZoneMap {
                    min: Some(Value::Int(slo)),
                    max: Some(Value::Int(shi)),
                    min_exact: true,
                    max_exact: true,
                    null_count: 0,
                    row_count: 3,
                },
            ]
        };
        // Partition 3 of Figure 5: fully matching under both methods.
        let p3 = zm("Alpine Goat", "Alpine Sheep", 76, 101);
        assert_eq!(fully_matching_two_pass(&pred, &p3), Some(true));
        assert!(prune_eval(&pred, &p3).fully_matching());
        // Partition 2: not fully matching under both.
        let p2 = zm("Alpine Bat", "Red Fox", 6, 70);
        assert_eq!(fully_matching_two_pass(&pred, &p2), Some(false));
        assert!(!prune_eval(&pred, &p2).fully_matching());
    }
}
