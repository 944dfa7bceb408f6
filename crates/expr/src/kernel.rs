//! Selection-vector predicate kernels: tight typed loops over column
//! slices that refine a [`SelVec`] in place.
//!
//! This is the batch-at-a-time counterpart of row-at-a-time
//! [`eval_predicate`]: a predicate is split into conjuncts
//! ([`Expr::split_conjunction`]) and each conjunct *filters* the current
//! selection. Eligible conjuncts (`column <op> literal` on primitive
//! types, `column IS NULL`) run as monomorphized loops directly over the
//! typed column vectors with the validity check hoisted; everything else
//! falls back to scalar row-at-a-time evaluation of just that conjunct on
//! just the still-selected rows.
//!
//! Equivalence contract (checked by `tests/prop_kernel.rs`): for any bound
//! predicate `p`, partition `part`, and row window `start..start+len`,
//! `select_range(p, part, start, len)` holds exactly the rows `i` of the
//! window with `eval_predicate(p, &part.row(i)) == Truth::True`.
//!
//! Typed arms exist only where the column and the literal have the same
//! type: there the native order is [`Value::sql_cmp`]'s (`Ord` for
//! integers, dates, timestamps and strings, `total_cmp` for floats). Every
//! cross-type comparison takes the generic arm, which calls `sql_cmp`
//! itself, so rows, batches and zone-map verdicts share one comparison
//! definition.
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
/// evaluation on the still-selected rows only. Every row is evaluated in
/// one scratch row that holds just the columns the conjunct reads; the
/// other slots stay `Null`.
fn refine_scalar(conjunct: &Expr, part: &MicroPartition, sel: &mut SelVec) {
    let cols = conjunct.referenced_columns();
    let mut row = vec![Value::Null; part.columns.len()];
    keep(sel, |i| {
        for &c in &cols {
            row[c] = part.column(c).value_at(i);
        }
        eval_predicate(conjunct, &row).qualifies()
    });
}

/// `column <op> literal` kernels. A typed arm runs only when the literal
/// has the column's type, so its native order is `sql_cmp`'s; every other
/// pairing (Int column vs Float literal and the reverse included) takes
/// the generic `sql_cmp` arm.
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
        (ColumnValues::Float(vals), Value::Float(l)) => {
            let l = *l;
            keep_valid(sel, validity, |i| cmp_holds(op, vals[i].total_cmp(&l)));
        }
        // A string chunk is dictionary-encoded: each distinct value is
        // compared at most once, on the first selected row that holds it,
        // and every other row is kept by its code.
        (ColumnValues::Str(vals), Value::Str(l)) => {
            let (dict, codes) = (vals.dict(), vals.codes());
            let mut holds: Vec<Option<bool>> = vec![None; dict.len()];
            keep_valid(sel, validity, |i| {
                let c = codes[i] as usize;
                *holds[c].get_or_insert_with(|| cmp_holds(op, (*dict[c]).cmp(l)))
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
fn keep_valid(sel: &mut SelVec, validity: Option<&Bitmap>, mut test: impl FnMut(usize) -> bool) {
    match validity {
        None => keep(sel, test),
        Some(bits) => keep(sel, |i| bits.get(i) && test(i)),
    }
}

/// Retain only rows passing `test`. Monomorphized per call site so each
/// typed kernel compiles to a tight loop over its concrete column slice.
#[inline]
fn keep(sel: &mut SelVec, test: impl FnMut(usize) -> bool) {
    sel.retain(test);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
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

    /// The row-at-a-time reference: rows of the window on which `pred` is
    /// `TRUE`.
    fn oracle(pred: &Expr, part: &MicroPartition, start: usize, len: usize) -> Vec<usize> {
        (start..start + len)
            .filter(|&i| eval_predicate(pred, &part.row(i)).qualifies())
            .collect()
    }

    #[test]
    fn typed_kernels_match_truth_vectors() {
        let p = part();
        let s = schema();
        let preds = [
            col("x").gt(lit(2i64)).bind(&s).unwrap(),
            col("f").le(lit(1.0)).bind(&s).unwrap(),
            col("f").ge(lit(0i64)).bind(&s).unwrap(),
            col("x").lt(lit(9.5)).bind(&s).unwrap(),
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
