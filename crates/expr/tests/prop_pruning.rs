//! Property tests for the pruning soundness invariants:
//!
//! 1. A pruned partition (`!may_true`) never contains a qualifying row
//!    (the paper's "no false negatives" guarantee, §2.1).
//! 2. A fully-matching partition (`all_true`) never contains a
//!    non-qualifying row (§4.2).
//! 3. The dual facts (`may_false` / `all_false`) are likewise conservative,
//!    which is what makes verdicts sound under `NOT`.
//! 4. The two-pass inverted-predicate method agrees with ground truth.
//! 5. Ranges derived for value expressions contain every row's value.
//!
//! All hold for arbitrary data, arbitrary (generated) predicates, and
//! arbitrary string-metadata truncation.

use proptest::prelude::*;

use snowprune_expr::ast::{dsl, CmpOp, Expr};
use snowprune_expr::{derive_range, eval_predicate, eval_value, prune_eval, Truth};
use snowprune_types::{Value, ZoneMap};

#[path = "support/invert.rs"]
mod invert;
use invert::fully_matching_two_pass;

const COLS: [&str; 4] = ["a", "b", "s", "f"];

fn col_idx(name: &str) -> usize {
    COLS.iter().position(|c| *c == name).unwrap()
}

fn bound_col(name: &str) -> Expr {
    Expr::Column(snowprune_expr::ColumnRef {
        index: col_idx(name),
        name: name.to_owned(),
    })
}

/// One generated row: (a: Int?, b: Int?, s: Str?, f: Float?).
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    let int = prop_oneof![
        3 => (-20i64..20).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    let int2 = prop_oneof![
        3 => (-20i64..20).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    let string = prop_oneof![
        2 => "[a-c]{0,6}".prop_map(Value::Str),
        1 => Just(Value::Str("Alpine Ibex".into())),
        1 => Just(Value::Str("Marked-A-Ridge".into())),
        1 => Just(Value::Null),
    ];
    let float = prop_oneof![
        3 => (-100i32..100).prop_map(|i| Value::Float(i as f64 / 4.0)),
        1 => Just(Value::Null),
    ];
    (int, int2, string, float).prop_map(|(a, b, s, f)| vec![a, b, s, f])
}

fn int_col() -> impl Strategy<Value = Expr> {
    prop_oneof![Just(bound_col("a")), Just(bound_col("b"))]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Value expressions over the int/float columns.
fn value_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        int_col(),
        Just(bound_col("f")),
        (-25i64..25).prop_map(dsl::lit),
        (-40i32..40).prop_map(|i| dsl::lit(i as f64 / 8.0)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.div(b)),
            inner.clone().prop_map(|a| a.neg()),
            inner.clone().prop_map(|a| a.abs()),
            (
                inner.clone(),
                inner.clone(),
                inner.clone(),
                cmp_op(),
                inner.clone()
            )
                .prop_map(|(c1, c2, t, op, e)| dsl::if_(
                    Expr::Cmp(op, Box::new(c1), Box::new(c2)),
                    t,
                    e
                )),
            proptest::collection::vec(inner, 1..3).prop_map(dsl::coalesce),
        ]
    })
}

/// Predicate expressions.
fn predicate() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (value_expr(), cmp_op(), value_expr()).prop_map(|(a, op, b)| Expr::Cmp(
            op,
            Box::new(a),
            Box::new(b)
        )),
        "[a-cAIM%_-]{0,5}".prop_map(|p| bound_col("s").like(p)),
        Just(bound_col("s").like("Alpine%")),
        Just(bound_col("s").like("Marked-%-Ridge")),
        "[a-cA]{0,3}".prop_map(|p| bound_col("s").starts_with(p)),
        int_col().prop_map(|c| c.is_null()),
        Just(bound_col("s").is_null()),
        (
            int_col(),
            proptest::collection::vec(
                prop_oneof![3 => (-20i64..20).prop_map(Value::Int), 1 => Just(Value::Null)],
                0..4
            )
        )
            .prop_map(|(c, vs)| c.in_list(vs)),
    ];
    leaf.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

fn zone_maps(rows: &[Vec<Value>], string_prefix: usize) -> Vec<ZoneMap> {
    (0..COLS.len())
        .map(|c| {
            let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            ZoneMap::build(vals.iter(), string_prefix)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Invariants 1-3: verdicts are conservative w.r.t. per-row evaluation.
    #[test]
    fn verdict_soundness(
        rows in proptest::collection::vec(row_strategy(), 1..24),
        pred in predicate(),
        prefix in prop_oneof![Just(2usize), Just(3), Just(32)],
    ) {
        let meta = zone_maps(&rows, prefix);
        let verdict = prune_eval(&pred, &meta);
        let truths: Vec<Truth> = rows.iter().map(|r| eval_predicate(&pred, r)).collect();
        let any_true = truths.contains(&Truth::True);
        let all_true = truths.iter().all(|t| *t == Truth::True);
        let any_false = truths.contains(&Truth::False);
        let all_false = truths.iter().all(|t| *t == Truth::False);

        if !verdict.may_true {
            prop_assert!(!any_true,
                "pruned partition contains qualifying row: pred={pred} verdict={verdict:?}");
        }
        if verdict.all_true {
            prop_assert!(all_true,
                "fully-matching partition contains non-qualifying row: pred={pred}");
        }
        if !verdict.may_false {
            prop_assert!(!any_false, "may_false unsound: pred={pred}");
        }
        if verdict.all_false {
            prop_assert!(all_false, "all_false unsound: pred={pred}");
        }
    }

    /// Invariant 4: the two-pass inverted-predicate method is conservative,
    /// and its claims match ground truth exactly like the lattice's.
    #[test]
    fn two_pass_soundness(
        rows in proptest::collection::vec(row_strategy(), 1..24),
        pred in predicate(),
        prefix in prop_oneof![Just(2usize), Just(32)],
    ) {
        let meta = zone_maps(&rows, prefix);
        let truths: Vec<Truth> = rows.iter().map(|r| eval_predicate(&pred, r)).collect();
        let all_true = truths.iter().all(|t| *t == Truth::True);
        if let Some(fm) = fully_matching_two_pass(&pred, &meta) {
            if fm {
                prop_assert!(all_true,
                    "two-pass claimed fully-matching falsely: pred={pred}");
            }
        }
        // The single-pass lattice must make the same guarantee.
        if prune_eval(&pred, &meta).all_true {
            prop_assert!(all_true);
        }
    }

    /// Invariant 5: derived ranges contain every row's evaluated value.
    #[test]
    fn range_derivation_soundness(
        rows in proptest::collection::vec(row_strategy(), 1..24),
        expr in value_expr(),
    ) {
        let meta = zone_maps(&rows, 32);
        let range = derive_range(&expr, &meta);
        for row in &rows {
            let v = eval_value(&expr, row);
            if v.is_null() {
                prop_assert!(range.may_null,
                    "row produced NULL but range says no nulls: expr={expr}");
            } else {
                prop_assert!(!range.all_null, "non-null value from all-null range: {expr}");
                if let Some(lo) = &range.lo {
                    if let Some(ord) = v.sql_cmp(lo) {
                        prop_assert!(ord != std::cmp::Ordering::Less,
                            "value {v} below derived lo {lo} for {expr}");
                    }
                }
                if let Some(hi) = &range.hi {
                    if let Some(ord) = v.sql_cmp(hi) {
                        prop_assert!(ord != std::cmp::Ordering::Greater,
                            "value {v} above derived hi {hi} for {expr}");
                    }
                }
            }
        }
    }

    /// Constant folding must not change row-level results.
    #[test]
    fn folding_preserves_semantics(
        rows in proptest::collection::vec(row_strategy(), 1..8),
        pred in predicate(),
    ) {
        let folded = snowprune_expr::fold_constants(&pred);
        for row in &rows {
            prop_assert_eq!(eval_predicate(&pred, row), eval_predicate(&folded, row),
                "folding changed semantics: {} vs {}", &pred, &folded);
        }
    }
}
