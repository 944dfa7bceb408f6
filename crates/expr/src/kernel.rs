//! Selection-vector predicate kernels: tight typed loops over column
//! slices that refine a [`SelVec`] in place.
//!
//! This is the batch-at-a-time counterpart of
//! [`eval_truths_range`](crate::eval_truths_range): instead of
//! materializing a `Vec<Truth>` per row, a predicate is split into conjuncts
//! ([`Expr::split_conjunction`]) and each conjunct *filters* the current
//! selection. Eligible conjuncts (`column <op> literal` on primitive
//! types, `column IS NULL`) run as monomorphized loops directly over the
//! typed column vectors with the validity check hoisted; everything else
//! falls back to scalar row-at-a-time evaluation of just that conjunct on
//! just the still-selected rows.
//!
//! Equivalence contract (checked by `tests/prop_kernel.rs`): for any bound
//! predicate `p`, partition `part`, and row window `start..start+len`,
//!
//! ```text
//! select_range(p, part, start, len).to_vec()
//!   == selection_indices(eval_truths_range(p, part, start, len))
//!         .map(|j| j + start)
//! ```
//!
//! Under SQL WHERE semantics only `TRUE` qualifies, so refining by each
//! conjunct in turn (keep a row iff the conjunct is `TRUE` on it) is
//! exactly Kleene `AND` followed by qualification.

use snowprune_storage::{Bitmap, ColumnValues, MicroPartition};
use snowprune_types::{SelVec, Value};

use crate::ast::{CmpOp, Expr};
use crate::eval::{cmp_holds, eval_cmp, eval_predicate};

/// Evaluate `pred` over partition rows `start..start + len` and return the
/// qualifying rows as a selection vector (absolute row indices).
pub fn select_range(pred: &Expr, part: &MicroPartition, start: usize, len: usize) -> SelVec {
    let mut sel = SelVec::All(start..start + len);
    refine(pred, part, &mut sel);
    sel
}

/// Refine an existing selection in place: keep only rows on which `pred`
/// evaluates to SQL `TRUE`. This is how chained filters (post-scan WHERE
/// stages) compose with the scan predicate's selection without ever
/// materializing intermediate rows.
pub fn refine(pred: &Expr, part: &MicroPartition, sel: &mut SelVec) {
    for conjunct in pred.split_conjunction() {
        if sel.is_empty() {
            return;
        }
        refine_conjunct(conjunct, part, sel);
    }
}

fn refine_conjunct(conjunct: &Expr, part: &MicroPartition, sel: &mut SelVec) {
    match conjunct {
        Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => refine_cmp(part, c.index, *op, v, sel),
            (Expr::Literal(v), Expr::Column(c)) => refine_cmp(part, c.index, op.flip(), v, sel),
            _ => refine_scalar(conjunct, part, sel),
        },
        Expr::IsNull(inner) => {
            if let Expr::Column(c) = inner.as_ref() {
                let chunk = part.column(c.index);
                keep(sel, |i| !chunk.is_valid(i));
            } else {
                refine_scalar(conjunct, part, sel);
            }
        }
        _ => refine_scalar(conjunct, part, sel),
    }
}

/// Scalar fallback for non-eligible conjuncts: row-at-a-time Kleene
/// evaluation on the still-selected rows only.
fn refine_scalar(conjunct: &Expr, part: &MicroPartition, sel: &mut SelVec) {
    keep(sel, |i| eval_predicate(conjunct, &part.row(i)).qualifies());
}

/// `column <op> literal` kernels. The arm order mirrors
/// `eval::cmp_column_literal` exactly so vectorized and truth-vector
/// evaluation agree on every input, including NaN (`total_cmp`) and
/// int/float cross-type comparisons.
fn refine_cmp(part: &MicroPartition, col: usize, op: CmpOp, lit: &Value, sel: &mut SelVec) {
    let chunk = part.column(col);
    if lit.is_null() {
        // NULL literal: UNKNOWN on every row, nothing qualifies.
        *sel = SelVec::empty();
        return;
    }
    let validity = chunk.validity();
    match (chunk.values(), lit) {
        (ColumnValues::Int(vals), Value::Int(l)) => {
            let l = *l;
            keep_valid(sel, validity, |i| cmp_holds(op, vals[i].cmp(&l)));
        }
        (ColumnValues::Date(vals), Value::Date(l)) => {
            let l = *l;
            keep_valid(sel, validity, |i| cmp_holds(op, vals[i].cmp(&l)));
        }
        (ColumnValues::Timestamp(vals), Value::Timestamp(l)) => {
            let l = *l;
            keep_valid(sel, validity, |i| cmp_holds(op, vals[i].cmp(&l)));
        }
        (ColumnValues::Float(vals), _) if lit.as_f64().is_some() => {
            let l = lit.as_f64().unwrap();
            keep_valid(sel, validity, |i| cmp_holds(op, vals[i].total_cmp(&l)));
        }
        (ColumnValues::Int(vals), Value::Float(_)) => {
            keep_valid(sel, validity, |i| {
                eval_cmp(op, &Value::Int(vals[i]), lit).qualifies()
            });
        }
        (ColumnValues::Str(vals), Value::Str(l)) => {
            keep_valid(sel, validity, |i| {
                cmp_holds(op, vals[i].as_str().cmp(l.as_str()))
            });
        }
        // Generic: value_at maps invalid slots to Null, which compares to
        // UNKNOWN — no separate validity hoist.
        _ => keep(sel, |i| eval_cmp(op, &chunk.value_at(i), lit).qualifies()),
    }
}

/// Drop rows whose value in column `col` is NULL. This is the Kleene
/// join-key kernel: an equi-join key compares `UNKNOWN` against every
/// build value when NULL, so NULL-key probe rows can be discarded before
/// any hash or Bloom lookup. The dense (no-nulls) case is a no-op that
/// keeps the selection's allocation-free `All` form.
pub fn refine_valid(part: &MicroPartition, col: usize, sel: &mut SelVec) {
    match part.column(col).validity() {
        None => {}
        Some(bits) => keep(sel, |i| bits.get(i)),
    }
}

/// Hoist the validity check out of the row loop: the dense (no-nulls) case
/// runs `test` alone, the sparse case masks through the bitmap first.
#[inline]
fn keep_valid(sel: &mut SelVec, validity: Option<&Bitmap>, test: impl Fn(usize) -> bool) {
    match validity {
        None => keep(sel, test),
        Some(bits) => keep(sel, |i| bits.get(i) && test(i)),
    }
}

/// Retain only rows passing `test`. Monomorphized per call site so each
/// typed kernel compiles to a tight loop over its concrete column slice.
#[inline]
fn keep(sel: &mut SelVec, test: impl Fn(usize) -> bool) {
    sel.retain(test);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use crate::eval::{eval_truths_range, selection_indices};
    use snowprune_storage::{ColumnBuilder, Field, Schema};
    use snowprune_types::ScalarType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("x", ScalarType::Int),
            Field::new("f", ScalarType::Float),
            Field::new("s", ScalarType::Str),
        ])
    }

    fn part() -> MicroPartition {
        let mut xs = ColumnBuilder::new(ScalarType::Int);
        let mut fs = ColumnBuilder::new(ScalarType::Float);
        let mut ss = ColumnBuilder::new(ScalarType::Str);
        for (x, f, s) in [
            (Some(1i64), Some(0.5f64), Some("alpha")),
            (Some(5), None, None),
            (None, Some(f64::NAN), Some("beta")),
            (Some(9), Some(-2.0), Some("alpine")),
            (Some(12), Some(3.25), Some("gamma")),
        ] {
            xs.push(x.map_or(Value::Null, Value::Int));
            fs.push(f.map_or(Value::Null, Value::Float));
            ss.push(s.map_or(Value::Null, |v| Value::Str(v.into())));
        }
        MicroPartition::from_chunks(0, &schema(), vec![xs.finish(), fs.finish(), ss.finish()])
    }

    fn oracle(pred: &Expr, part: &MicroPartition, start: usize, len: usize) -> Vec<usize> {
        selection_indices(&eval_truths_range(pred, part, start, len))
            .into_iter()
            .map(|j| j + start)
            .collect()
    }

    #[test]
    fn typed_kernels_match_truth_vectors() {
        let p = part();
        let s = schema();
        let preds = [
            col("x").gt(lit(2i64)).bind(&s).unwrap(),
            col("f").le(lit(1.0)).bind(&s).unwrap(),
            col("s").ge(lit("b")).bind(&s).unwrap(),
            col("x").between(lit(2i64), lit(10i64)).bind(&s).unwrap(),
            col("x").is_null().bind(&s).unwrap(),
            lit(3i64).lt(col("x")).bind(&s).unwrap(),
        ];
        for pred in &preds {
            for (start, len) in [(0, 5), (1, 3), (4, 1), (2, 0)] {
                assert_eq!(
                    select_range(pred, &p, start, len).to_vec(),
                    oracle(pred, &p, start, len),
                    "pred {pred} window {start}+{len}"
                );
            }
        }
    }

    #[test]
    fn scalar_fallback_matches_on_complex_conjuncts() {
        let p = part();
        let s = schema();
        let pred = col("s")
            .like("al%")
            .or(col("f").is_null())
            .and(col("x").mul(lit(2i64)).lt(lit(20i64)))
            .bind(&s)
            .unwrap();
        assert_eq!(
            select_range(&pred, &p, 0, 5).to_vec(),
            oracle(&pred, &p, 0, 5)
        );
    }

    #[test]
    fn null_literal_selects_nothing() {
        let p = part();
        let s = schema();
        let pred = col("x").gt(Expr::Literal(Value::Null)).bind(&s).unwrap();
        assert!(select_range(&pred, &p, 0, 5).is_empty());
    }

    #[test]
    fn fully_matching_window_stays_contiguous() {
        let p = part();
        let s = schema();
        let pred = col("x").gt(lit(0i64)).bind(&s).unwrap();
        // Rows 3..5 both have x > 0 and are valid: selection stays All.
        assert_eq!(select_range(&pred, &p, 3, 2), SelVec::All(3..5));
    }

    #[test]
    fn refine_valid_drops_null_rows_only() {
        let p = part();
        // Column x has a NULL at row 2; column s at row 1.
        let mut sel = SelVec::All(0..5);
        refine_valid(&p, 0, &mut sel);
        assert_eq!(sel.to_vec(), vec![0, 1, 3, 4]);
        refine_valid(&p, 2, &mut sel);
        assert_eq!(sel.to_vec(), vec![0, 3, 4]);
    }

    #[test]
    fn refine_composes_filters() {
        let p = part();
        let s = schema();
        let mut sel = select_range(&col("x").gt(lit(0i64)).bind(&s).unwrap(), &p, 0, 5);
        refine(&col("s").like("a%").bind(&s).unwrap(), &p, &mut sel);
        assert_eq!(sel.to_vec(), vec![0, 3]);
    }
}
