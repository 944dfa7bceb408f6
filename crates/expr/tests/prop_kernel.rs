//! Property test for the selection-vector predicate kernels: on random
//! typed columns with NULLs (all six scalar types), arbitrary generated
//! predicates, and arbitrary row windows, the batch kernel path
//! ([`snowprune_expr::kernel::select_range`] — typed loops plus the
//! scalar fallback) must select *exactly* the rows on which row-at-a-time
//! [`eval_predicate`] is `TRUE`, including NaN ordering, int/float
//! cross-type comparisons, and NULL literals. The int column `a`, the
//! float column `f` and the numeric literals draw from the edges of the
//! two number lines (`-0.0`, ±∞, NaN, ±2^53, 2^53 ± 1, `i64::MIN`,
//! `i64::MAX`, `i64::MAX as f64`), where a lossy `as f64` comparison and
//! an exact one disagree. The compositional form
//! ([`snowprune_expr::kernel::refine`] conjunct by conjunct) must agree
//! with the one-shot form. Column `r` repeats a few strings, so its
//! chunks have small dictionaries and the string kernel takes its
//! once-per-dictionary-entry path.

use proptest::prelude::*;

use snowprune_expr::ast::{CmpOp, Expr};
use snowprune_expr::eval_predicate;
use snowprune_expr::kernel::{refine, select_range};
use snowprune_storage::{ColumnBuilder, Field, MicroPartition, Schema};
use snowprune_types::{ScalarType, Value};

#[path = "support/edges.rs"]
mod edges;
use edges::{float_edge, int_edge};

const COLS: [(&str, ScalarType); 7] = [
    ("a", ScalarType::Int),
    ("b", ScalarType::Int),
    ("s", ScalarType::Str),
    ("f", ScalarType::Float),
    ("d", ScalarType::Date),
    ("t", ScalarType::Timestamp),
    ("r", ScalarType::Str),
];

fn schema() -> Schema {
    Schema::new(COLS.iter().map(|(n, ty)| Field::new(*n, *ty)).collect())
}

fn bound_col(name: &str) -> Expr {
    Expr::Column(snowprune_expr::ColumnRef {
        index: COLS.iter().position(|(n, _)| *n == name).unwrap(),
        name: name.to_owned(),
    })
}

/// One generated row covering every scalar type, each nullable.
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    let int = |range: std::ops::Range<i64>| {
        prop_oneof![
            3 => range.prop_map(Value::Int),
            1 => Just(Value::Null),
        ]
    };
    let edgy_int = prop_oneof![
        3 => (-20i64..20).prop_map(Value::Int),
        2 => int_edge(),
        1 => Just(Value::Null),
    ];
    let string = prop_oneof![
        3 => "[a-c]{0,5}".prop_map(Value::from),
        1 => Just(Value::Null),
    ];
    let repeated = prop_oneof![
        6 => prop_oneof![Just(""), Just("x"), Just("xy"), Just("y")].prop_map(Value::from),
        1 => Just(Value::Null),
    ];
    let float = prop_oneof![
        3 => (-60i32..60).prop_map(|i| Value::Float(i as f64 / 4.0)),
        3 => float_edge(),
        1 => Just(Value::Null),
    ];
    let date = prop_oneof![
        3 => (18_000i32..18_030).prop_map(Value::Date),
        1 => Just(Value::Null),
    ];
    let ts = prop_oneof![
        3 => (0i64..5_000).prop_map(Value::Timestamp),
        1 => Just(Value::Null),
    ];
    (
        edgy_int,
        int(-500i64..500),
        string,
        float,
        date,
        ts,
        repeated,
    )
        .prop_map(|(a, b, s, f, d, t, r)| vec![a, b, s, f, d, t, r])
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

/// Predicates biased toward kernel-eligible conjuncts
/// (`column <op> literal`, `IS NULL`) but including flipped operand
/// order, NULL literals, cross-type int/float comparisons, and
/// arithmetic/LIKE/IN shapes that must take the scalar fallback.
fn predicate() -> impl Strategy<Value = Expr> {
    let cmp = |c: Expr, lit_strat: BoxedStrategy<Value>| {
        let flip = prop_oneof![Just(false), Just(true)];
        (cmp_op(), lit_strat, flip).prop_map(move |(op, l, flip)| {
            if flip {
                Expr::Cmp(op, Box::new(Expr::Literal(l)), Box::new(c.clone()))
            } else {
                Expr::Cmp(op, Box::new(c.clone()), Box::new(Expr::Literal(l)))
            }
        })
    };
    let int_lit = prop_oneof![
        4 => (-25i64..25).prop_map(Value::Int),
        4 => int_edge(),
        1 => Just(Value::Null),
    ]
    .boxed();
    let float_lit = prop_oneof![
        4 => (-70i32..70).prop_map(|i| Value::Float(i as f64 / 4.0)),
        4 => float_edge(),
        1 => Just(Value::Null),
    ]
    .boxed();
    let str_lit = prop_oneof![
        5 => "[a-c]{0,4}".prop_map(Value::from),
        1 => Just(Value::Null),
    ]
    .boxed();
    let repeated_lit = prop_oneof![
        5 => "[xy]{0,2}".prop_map(Value::from),
        1 => Just(Value::Null),
    ]
    .boxed();
    let leaf = prop_oneof![
        cmp(bound_col("a"), int_lit.clone()),
        cmp(bound_col("b"), int_lit.clone()),
        // Cross-type comparisons: int column vs float literal and the
        // float column vs int literal take the kernel's generic arm.
        cmp(bound_col("a"), float_lit.clone()),
        cmp(bound_col("f"), float_lit),
        cmp(bound_col("f"), int_lit.clone()),
        cmp(bound_col("s"), str_lit),
        cmp(bound_col("r"), repeated_lit),
        cmp(
            bound_col("d"),
            (18_000i32..18_030).prop_map(Value::Date).boxed()
        ),
        cmp(
            bound_col("t"),
            (0i64..5_000).prop_map(Value::Timestamp).boxed()
        ),
        prop_oneof![
            Just(bound_col("a")),
            Just(bound_col("s")),
            Just(bound_col("f")),
            Just(bound_col("r"))
        ]
        .prop_map(|c| c.is_null()),
        "[a-c%_]{0,4}".prop_map(|p| bound_col("s").like(p)),
        "[a-c]{0,2}".prop_map(|p| bound_col("s").starts_with(p)),
        "[xy%_]{0,3}".prop_map(|p| bound_col("r").like(p)),
        proptest::collection::vec(int_lit, 0..4).prop_map(|vs| bound_col("a").in_list(vs)),
        // Arithmetic comparand: never kernel-eligible, exercises the
        // scalar fallback on exactly the still-selected rows.
        (cmp_op(), -40i64..40).prop_map(|(op, l)| Expr::Cmp(
            op,
            Box::new(bound_col("a").add(bound_col("b"))),
            Box::new(Expr::Literal(Value::Int(l)))
        )),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

fn build_partition(rows: &[Vec<Value>]) -> MicroPartition {
    let schema = schema();
    let chunks = (0..COLS.len())
        .map(|c| {
            let mut b = ColumnBuilder::new(COLS[c].1);
            for row in rows {
                b.push(row[c].clone());
            }
            b.finish()
        })
        .collect();
    MicroPartition::from_chunks(0, &schema, chunks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The kernel path equals row-at-a-time evaluation on every window.
    #[test]
    fn kernels_match_scalar_eval(
        rows in proptest::collection::vec(row_strategy(), 1..40),
        pred in predicate(),
        raw_start in 0usize..64,
        raw_len in 0usize..64,
    ) {
        let part = build_partition(&rows);
        let start = raw_start % rows.len();
        let len = raw_len % (rows.len() - start + 1);
        let got = select_range(&pred, &part, start, len).to_vec();
        let want: Vec<usize> = (start..start + len)
            .filter(|&i| eval_predicate(&pred, &part.row(i)).qualifies())
            .collect();
        prop_assert_eq!(
            got, want,
            "kernel diverged from scalar eval: pred={} window {}+{}",
            pred, start, len
        );
    }

    /// Conjunct-by-conjunct refinement equals the one-shot conjunction
    /// (how chained WHERE stages compose in the batch pipeline).
    #[test]
    fn refine_composition_matches_conjunction(
        rows in proptest::collection::vec(row_strategy(), 1..40),
        p1 in predicate(),
        p2 in predicate(),
    ) {
        let part = build_partition(&rows);
        let n = rows.len();
        let mut sel = select_range(&p1, &part, 0, n);
        refine(&p2, &part, &mut sel);
        let both = p1.and(p2);
        prop_assert_eq!(
            sel.to_vec(),
            select_range(&both, &part, 0, n).to_vec(),
            "sequential refine diverged from conjunction: pred={}",
            both
        );
    }
}
