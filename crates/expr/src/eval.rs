//! Expression evaluation: row-at-a-time scalar evaluation and vectorized
//! predicate evaluation over micro-partitions, both under SQL's Kleene
//! three-valued logic.

use std::cmp::Ordering;

use snowprune_storage::{ColumnValues, MicroPartition};
use snowprune_types::{arith, Value};

use crate::ast::{ArithOp, CmpOp, Expr};

/// Kleene truth value of a predicate on one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truth {
    /// SQL TRUE.
    True,
    /// SQL FALSE.
    False,
    /// SQL NULL/UNKNOWN.
    Unknown,
}

impl Truth {
    /// Lift a two-valued bool into a definite truth value.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Kleene AND.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Kleene OR.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Kleene negation; named after the SQL operator rather than the
    /// `std::ops::Not` trait (Truth is not a bool-like operator type).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// SQL WHERE semantics: only TRUE qualifies.
    pub fn qualifies(self) -> bool {
        self == Truth::True
    }

    fn from_value(v: &Value) -> Truth {
        match v {
            Value::Bool(true) => Truth::True,
            Value::Bool(false) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Bool(true),
            Truth::False => Value::Bool(false),
            Truth::Unknown => Value::Null,
        }
    }
}

/// SQL `LIKE` with `%` (any run) and `_` (any single char). Iterative
/// matcher with greedy `%` backtracking.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Evaluate an expression on one row, producing a value (`Null` stands for
/// SQL NULL / UNKNOWN). The expression must be bound.
pub fn eval_value(expr: &Expr, row: &[Value]) -> Value {
    match expr {
        Expr::Literal(v) => v.clone(),
        Expr::Column(c) => row[c.index].clone(),
        Expr::Cmp(op, a, b) => {
            let (av, bv) = (eval_value(a, row), eval_value(b, row));
            eval_cmp(*op, &av, &bv).to_value()
        }
        Expr::And(xs) => xs
            .iter()
            .map(|x| Truth::from_value(&eval_value(x, row)))
            .fold(Truth::True, Truth::and)
            .to_value(),
        Expr::Or(xs) => xs
            .iter()
            .map(|x| Truth::from_value(&eval_value(x, row)))
            .fold(Truth::False, Truth::or)
            .to_value(),
        Expr::Not(x) => Truth::from_value(&eval_value(x, row)).not().to_value(),
        Expr::IsNull(x) => Value::Bool(eval_value(x, row).is_null()),
        Expr::Arith(op, a, b) => {
            let (av, bv) = (eval_value(a, row), eval_value(b, row));
            match op {
                ArithOp::Add => arith::add(&av, &bv),
                ArithOp::Sub => arith::sub(&av, &bv),
                ArithOp::Mul => arith::mul(&av, &bv),
                ArithOp::Div => arith::div(&av, &bv),
            }
            .unwrap_or(Value::Null)
        }
        Expr::Neg(x) => arith::neg(&eval_value(x, row)).unwrap_or(Value::Null),
        Expr::If(c, t, e) => match Truth::from_value(&eval_value(c, row)) {
            Truth::True => eval_value(t, row),
            // SQL IF: a NULL condition takes the else branch.
            Truth::False | Truth::Unknown => eval_value(e, row),
        },
        Expr::Like(x, p) => match eval_value(x, row) {
            Value::Null => Value::Null,
            Value::Str(s) => Value::Bool(like_match(&s, p)),
            _ => Value::Null,
        },
        Expr::StartsWith(x, p) => match eval_value(x, row) {
            Value::Null => Value::Null,
            Value::Str(s) => Value::Bool(s.starts_with(p.as_str())),
            _ => Value::Null,
        },
        Expr::InList(x, vals) => {
            let v = eval_value(x, row);
            if v.is_null() {
                return Value::Null;
            }
            let mut saw_unknown = false;
            for cand in vals {
                match v.sql_eq(cand) {
                    Some(true) => return Value::Bool(true),
                    Some(false) => {}
                    None => saw_unknown = true,
                }
            }
            if saw_unknown {
                Value::Null
            } else {
                Value::Bool(false)
            }
        }
        Expr::Coalesce(xs) => xs
            .iter()
            .map(|x| eval_value(x, row))
            .find(|v| !v.is_null())
            .unwrap_or(Value::Null),
        Expr::Abs(x) => match eval_value(x, row) {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(i.saturating_abs()),
            Value::Float(f) => Value::Float(f.abs()),
            _ => Value::Null,
        },
    }
}

/// Evaluate a predicate on one row.
pub fn eval_predicate(expr: &Expr, row: &[Value]) -> Truth {
    Truth::from_value(&eval_value(expr, row))
}

pub(crate) fn eval_cmp(op: CmpOp, a: &Value, b: &Value) -> Truth {
    match a.sql_cmp(b) {
        None => Truth::Unknown,
        Some(ord) => Truth::from_bool(cmp_holds(op, ord)),
    }
}

#[inline]
pub(crate) fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Vectorized predicate evaluation over partition rows `start..start +
/// len`: one [`Truth`] per row, element `j` for row `start + j`. Common
/// shapes (`column <op> literal` on primitive types, boolean combinators)
/// take typed fast paths; everything else falls back to row-at-a-time
/// evaluation. Batches evaluate only their own row window instead of the
/// whole partition.
pub fn eval_truths_range(
    expr: &Expr,
    part: &MicroPartition,
    start: usize,
    len: usize,
) -> Vec<Truth> {
    match expr {
        Expr::And(xs) => {
            let mut acc = vec![Truth::True; len];
            for x in xs {
                let t = eval_truths_range(x, part, start, len);
                for (a, b) in acc.iter_mut().zip(t) {
                    *a = a.and(b);
                }
            }
            acc
        }
        Expr::Or(xs) => {
            let mut acc = vec![Truth::False; len];
            for x in xs {
                let t = eval_truths_range(x, part, start, len);
                for (a, b) in acc.iter_mut().zip(t) {
                    *a = a.or(b);
                }
            }
            acc
        }
        Expr::Not(x) => {
            let mut t = eval_truths_range(x, part, start, len);
            for v in &mut t {
                *v = v.not();
            }
            t
        }
        Expr::IsNull(inner) => {
            if let Expr::Column(c) = inner.as_ref() {
                let chunk = part.column(c.index);
                return (start..start + len)
                    .map(|i| Truth::from_bool(!chunk.is_valid(i)))
                    .collect();
            }
            fallback_truths(expr, part, start, len)
        }
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => {
                cmp_column_literal(part, c.index, *op, v, start, len)
            }
            (Expr::Literal(v), Expr::Column(c)) => {
                cmp_column_literal(part, c.index, op.flip(), v, start, len)
            }
            _ => fallback_truths(expr, part, start, len),
        },
        _ => fallback_truths(expr, part, start, len),
    }
}

fn fallback_truths(expr: &Expr, part: &MicroPartition, start: usize, len: usize) -> Vec<Truth> {
    (start..start + len)
        .map(|i| {
            let row = part.row(i);
            eval_predicate(expr, &row)
        })
        .collect()
}

fn cmp_column_literal(
    part: &MicroPartition,
    col: usize,
    op: CmpOp,
    lit: &Value,
    start: usize,
    len: usize,
) -> Vec<Truth> {
    let chunk = part.column(col);
    if lit.is_null() {
        return vec![Truth::Unknown; len];
    }
    let rows = start..start + len;
    macro_rules! typed_loop {
        ($vals:expr, $litv:expr) => {{
            let lv = $litv;
            rows.map(|i| {
                if !chunk.is_valid(i) {
                    Truth::Unknown
                } else {
                    Truth::from_bool(cmp_holds(op, $vals[i].partial_cmp(&lv).unwrap()))
                }
            })
            .collect()
        }};
    }
    match (chunk.values(), lit) {
        (ColumnValues::Int(vals), Value::Int(l)) => typed_loop!(vals, *l),
        (ColumnValues::Date(vals), Value::Date(l)) => typed_loop!(vals, *l),
        (ColumnValues::Timestamp(vals), Value::Timestamp(l)) => typed_loop!(vals, *l),
        (ColumnValues::Float(vals), _) if lit.as_f64().is_some() => {
            let l = lit.as_f64().unwrap();
            rows.map(|i| {
                if !chunk.is_valid(i) {
                    Truth::Unknown
                } else {
                    Truth::from_bool(cmp_holds(op, vals[i].total_cmp(&l)))
                }
            })
            .collect()
        }
        (ColumnValues::Int(vals), Value::Float(_)) => {
            let l = lit.clone();
            rows.map(|i| {
                if !chunk.is_valid(i) {
                    Truth::Unknown
                } else {
                    eval_cmp(op, &Value::Int(vals[i]), &l)
                }
            })
            .collect()
        }
        (ColumnValues::Str(vals), Value::Str(l)) => rows
            .map(|i| {
                if !chunk.is_valid(i) {
                    Truth::Unknown
                } else {
                    Truth::from_bool(cmp_holds(op, vals[i].as_str().cmp(l.as_str())))
                }
            })
            .collect(),
        _ => rows
            .map(|i| eval_cmp(op, &chunk.value_at(i), lit))
            .collect(),
    }
}

/// Indices of rows whose truth value qualifies (TRUE).
// TEST-API: the oracle prop_kernel and prop_cache compare `select_range` against.
pub fn selection_indices(truths: &[Truth]) -> Vec<usize> {
    truths
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.qualifies().then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use snowprune_storage::{ColumnBuilder, Field, Schema};
    use snowprune_types::ScalarType;

    #[test]
    fn like_matcher() {
        assert!(like_match("Marked-Alps-Ridge", "Marked-%-Ridge"));
        assert!(!like_match("Marked-Alps-Valley", "Marked-%-Ridge"));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b")); // literal traversal through %
        assert!(like_match("xxabyy", "%ab%"));
        assert!(like_match("ab", "%%ab"));
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("x", ScalarType::Int),
            Field::new("s", ScalarType::Str),
        ])
    }

    fn part() -> MicroPartition {
        let mut xs = ColumnBuilder::new(ScalarType::Int);
        let mut ss = ColumnBuilder::new(ScalarType::Str);
        for (x, s) in [
            (Some(1i64), Some("alpha")),
            (Some(5), None),
            (None, Some("beta")),
            (Some(9), Some("alpine")),
        ] {
            xs.push(x.map_or(Value::Null, Value::Int));
            ss.push(s.map_or(Value::Null, |v| Value::Str(v.into())));
        }
        MicroPartition::from_chunks(0, &schema(), vec![xs.finish(), ss.finish()])
    }

    #[test]
    fn three_valued_where() {
        let p = part();
        let e = col("x").gt(lit(2i64)).bind(&schema()).unwrap();
        let t = eval_truths_range(&e, &p, 0, p.row_count());
        assert_eq!(
            t,
            vec![Truth::False, Truth::True, Truth::Unknown, Truth::True]
        );
        assert_eq!(selection_indices(&t), vec![1, 3]);
    }

    #[test]
    fn null_propagates_through_and_or() {
        let p = part();
        // x > 2 AND s LIKE 'al%':
        // row 1: TRUE AND unknown = unknown;
        // row 2: unknown AND FALSE = FALSE (Kleene short-circuit).
        let e = col("x")
            .gt(lit(2i64))
            .and(col("s").like("al%"))
            .bind(&schema())
            .unwrap();
        let t = eval_truths_range(&e, &p, 0, p.row_count());
        assert_eq!(
            t,
            vec![Truth::False, Truth::Unknown, Truth::False, Truth::True]
        );
        // NOT of unknown is unknown; selection excludes it either way.
        let ne = e.not();
        let nt = eval_truths_range(&ne, &p, 0, p.row_count());
        assert_eq!(
            nt,
            vec![Truth::True, Truth::Unknown, Truth::True, Truth::False]
        );
    }

    #[test]
    fn vectorized_matches_rowwise_on_complex_expr() {
        let p = part();
        let e = if_(col("s").like("alp%"), col("x").mul(lit(10i64)), col("x"))
            .ge(lit(10i64))
            .bind(&schema())
            .unwrap();
        let fast = eval_truths_range(&e, &p, 0, p.row_count());
        let slow: Vec<Truth> = (0..p.row_count())
            .map(|i| eval_predicate(&e, &p.row(i)))
            .collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn in_list_with_null_semantics() {
        let row = vec![Value::Int(3), Value::Null];
        let schema = schema();
        let e = col("x")
            .in_list(vec![Value::Int(1), Value::Int(2)])
            .bind(&schema)
            .unwrap();
        assert_eq!(eval_predicate(&e, &row), Truth::False);
        let e2 = col("x")
            .in_list(vec![Value::Int(1), Value::Null])
            .bind(&schema)
            .unwrap();
        // 3 IN (1, NULL) -> unknown, not false.
        assert_eq!(eval_predicate(&e2, &row), Truth::Unknown);
        let e3 = col("x")
            .in_list(vec![Value::Int(3), Value::Null])
            .bind(&schema)
            .unwrap();
        assert_eq!(eval_predicate(&e3, &row), Truth::True);
    }

    #[test]
    fn coalesce_and_abs() {
        let schema = schema();
        let row = vec![Value::Null, Value::Str("z".into())];
        let e = coalesce(vec![col("x"), lit(-7i64)])
            .abs()
            .bind(&schema)
            .unwrap();
        assert_eq!(eval_value(&e, &row), Value::Int(7));
    }

    #[test]
    fn if_null_condition_takes_else() {
        let schema = schema();
        let row = vec![Value::Null, Value::Null];
        // IF(x > 0, 1, 2) with x NULL -> 2.
        let e = if_(col("x").gt(lit(0i64)), lit(1i64), lit(2i64))
            .bind(&schema)
            .unwrap();
        assert_eq!(eval_value(&e, &row), Value::Int(2));
    }

    #[test]
    fn division_by_zero_is_null() {
        let schema = schema();
        let row = vec![Value::Int(4), Value::Null];
        let e = col("x").div(lit(0i64)).bind(&schema).unwrap();
        assert_eq!(eval_value(&e, &row), Value::Null);
    }
}
