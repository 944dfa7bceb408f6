//! Partition-local DML: the §4.1 match classes applied to writes.
//!
//! DELETE and UPDATE keep their `WHERE` as a bound [`Expr`] and visit the
//! table one partition at a time ([`Table::rewrite_partitions`]). Each
//! partition is classified from its zone maps alone ([`prune_eval`]), as
//! a scan's filter pruning would classify it:
//!
//! * *not-matching* — carried over as the same `Arc`; no row is read;
//! * *fully-matching* — every row is selected without evaluating the
//!   predicate, so DELETE drops the partition outright;
//! * *partially-matching* — the predicate runs on the partition's columns
//!   through the selection kernels ([`select_range`]).
//!
//! Rows are materialized only in a partition with a selected row, and the
//! partition is rebuilt only when the statement deletes a row or changes a
//! value. A write cannot defer work, so none of `FilterPruner`'s reorder,
//! cutoff or budget machinery applies. The outcome — [`DmlResult`],
//! changed-column set and table contents — is what the row-closure API
//! ([`Table::delete_rows`], [`Table::update_rows_tracked`]) produces with
//! `eval_predicate` / [`eval_value`]; the SQL property suite checks the two
//! against each other.

use snowprune_cache::DmlKind;
use snowprune_expr::kernel::select_range;
use snowprune_expr::{eval_value, prune_eval, Expr};
use snowprune_storage::{DmlResult, MicroPartition, PartitionEdit, Table};
use snowprune_types::{MatchClass, Result, SelVec, Value};

use crate::session::Session;

/// `DELETE FROM table [WHERE predicate]` on a table (no predicate deletes
/// every row). Errors, before any write, when the predicate names a
/// column the table does not have.
pub fn delete_where(table: &mut Table, predicate: Option<&Expr>) -> Result<DmlResult> {
    check_columns(
        table,
        predicate.into_iter().flat_map(Expr::referenced_columns),
    )?;
    Ok(table.rewrite_partitions(|p| {
        let sel = select(predicate, p);
        if sel.is_empty() {
            return PartitionEdit::Keep;
        }
        let mut picked = sel.iter().peekable();
        let rows = (0..p.row_count())
            .filter(|&i| picked.next_if_eq(&i).is_none())
            .map(|i| p.row(i))
            .collect();
        PartitionEdit::Rewrite {
            rows,
            affected: sel.len() as u64,
        }
    }))
}

/// `UPDATE table SET sets [WHERE predicate]` on a table. Each assignment
/// is `(column index, bound value expression)` and reads the *old* row;
/// a later assignment to the same column wins. Returns the result, whose
/// `rows_affected` counts the rows that actually changed, and the names
/// of the columns that changed in some row, in schema order. Errors,
/// before any write, on a column the table does not have.
pub fn update_where(
    table: &mut Table,
    sets: &[(usize, Expr)],
    predicate: Option<&Expr>,
) -> Result<(DmlResult, Vec<String>)> {
    let read = sets.iter().map(|(_, e)| e).chain(predicate);
    let targets = sets.iter().map(|(c, _)| *c);
    check_columns(
        table,
        read.flat_map(Expr::referenced_columns).chain(targets),
    )?;
    let mut col_changed = vec![false; table.schema().len()];
    let res = table.rewrite_partitions(|p| {
        // The selected rows that change, with their new values.
        let mut changed: Vec<(usize, Vec<Value>)> = Vec::new();
        for i in &select(predicate, p) {
            let old = p.row(i);
            let mut new = old.clone();
            for (c, e) in sets {
                new[*c] = eval_value(e, &old);
            }
            let mut any = false;
            for (c, _) in sets {
                if new[*c] != old[*c] {
                    col_changed[*c] = true;
                    any = true;
                }
            }
            if any {
                changed.push((i, new));
            }
        }
        if changed.is_empty() {
            return PartitionEdit::Keep;
        }
        let affected = changed.len() as u64;
        let mut changed = changed.into_iter().peekable();
        let rows = (0..p.row_count())
            .map(|i| match changed.next_if(|(j, _)| *j == i) {
                Some((_, new)) => new,
                None => p.row(i),
            })
            .collect();
        PartitionEdit::Rewrite { rows, affected }
    });
    Ok((res, table.schema().names_where(&col_changed)))
}

/// The rows of `p` the DML `WHERE` selects, decided from the zone maps
/// where §4.1 allows and by the kernels otherwise.
fn select(predicate: Option<&Expr>, p: &MicroPartition) -> SelVec {
    let all = SelVec::All(0..p.row_count());
    let Some(pred) = predicate else {
        return all;
    };
    match prune_eval(pred, &p.meta.zone_maps).classify(p.meta.row_count) {
        MatchClass::NotMatching => SelVec::empty(),
        MatchClass::FullyMatching => all,
        MatchClass::PartiallyMatching => select_range(pred, p, 0, p.row_count()),
    }
}

/// Zone maps and kernels index columns by position: refuse an index the
/// table does not have instead of panicking on it mid-rewrite.
fn check_columns(table: &Table, cols: impl IntoIterator<Item = usize>) -> Result<()> {
    cols.into_iter()
        .try_for_each(|c| table.schema().field(c).map(drop))
}

impl Session {
    /// DELETE the rows of `table` matching `predicate` (every row when
    /// `None`), partition-locally (see [`crate::dml`]), keeping the
    /// predicate cache consistent like [`Session::delete_rows`].
    pub fn delete_where(&self, table: &str, predicate: Option<&Expr>) -> Result<DmlResult> {
        let handle = self.catalog().get(table)?;
        let res = delete_where(&mut handle.write(), predicate)?;
        self.on_dml(table, &DmlKind::Delete, &res);
        Ok(res)
    }

    /// UPDATE `table` with `sets` on the rows matching `predicate` (every
    /// row when `None`), partition-locally (see [`crate::dml`]). The cache
    /// is told the *measured* changed-column set, like
    /// [`Session::update_rows`].
    pub fn update_where(
        &self,
        table: &str,
        sets: &[(usize, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<DmlResult> {
        let handle = self.catalog().get(table)?;
        let (res, changed_columns) = update_where(&mut handle.write(), sets, predicate)?;
        self.on_dml(table, &DmlKind::Update(changed_columns), &res);
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::{Field, Layout, Schema, TableBuilder};
    use snowprune_types::ScalarType;
    use std::sync::Arc;

    /// `k` 0..100 clustered in four 25-row partitions, `b = k` except two
    /// NULLs in partition 1 (`k` 30 and 40), `s` a label.
    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", ScalarType::Int),
            Field::new("b", ScalarType::Int),
            Field::new("s", ScalarType::Str),
        ]);
        let mut t = TableBuilder::new("t", schema)
            .target_rows_per_partition(25)
            .layout(Layout::ClusterBy(vec!["k".into()]));
        for k in 0..100i64 {
            let b = if k == 30 || k == 40 {
                Value::Null
            } else {
                Value::Int(k)
            };
            t.push_row(vec![Value::Int(k), b, Value::Str(format!("r{k}").into())]);
        }
        t.build()
    }

    fn bound(e: Expr, t: &Table) -> Expr {
        e.bind(t.schema()).unwrap()
    }

    fn rows(t: &Table) -> Vec<Vec<Value>> {
        t.partition_ids()
            .into_iter()
            .flat_map(|id| {
                let p = t.partition(id).unwrap();
                (0..p.row_count()).map(|i| p.row(i)).collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn not_matching_partitions_keep_their_arcs() {
        let mut t = table();
        let before = t.clone();
        let pred = bound(col("k").between(lit(30i64), lit(34i64)), &t);
        let res = delete_where(&mut t, Some(&pred)).unwrap();
        assert_eq!(res.rows_affected, 5);
        assert_eq!(
            (res.partitions_removed, res.partitions_added),
            (vec![1], vec![4])
        );
        assert_eq!(t.partition_ids(), vec![0, 4, 2, 3]);
        for id in [0, 2, 3] {
            assert!(Arc::ptr_eq(
                &before.partition(id).unwrap(),
                &t.partition(id).unwrap()
            ));
        }
        // UPDATE: the same, and the changed-column set is the one column
        // whose value moved.
        let sets = [(1, bound(col("b").add(lit(1i64)), &t))];
        let pred = bound(col("k").ge(lit(90i64)), &t);
        let before = t.clone();
        let (res, cols) = update_where(&mut t, &sets, Some(&pred)).unwrap();
        assert_eq!(res.rows_affected, 10);
        assert_eq!(
            (res.partitions_removed, res.partitions_added),
            (vec![3], vec![5])
        );
        assert_eq!(cols, vec!["b".to_owned()]);
        for id in [0, 4, 2] {
            assert!(Arc::ptr_eq(
                &before.partition(id).unwrap(),
                &t.partition(id).unwrap()
            ));
        }
    }

    #[test]
    fn fully_matching_partitions_are_dropped_but_null_rows_survive() {
        let mut t = table();
        // Every non-NULL `b` is >= 0, so partitions 0, 2 and 3 are fully
        // matching and go without a rebuild. Partition 1's zone map holds
        // NULLs, which `b >= 0` does not select: it is rewritten, keeping
        // exactly its two NULL rows.
        let pred = bound(col("b").ge(lit(0i64)), &t);
        let mut reference = t.clone();
        let res = delete_where(&mut t, Some(&pred)).unwrap();
        assert_eq!(res.rows_affected, 98);
        assert_eq!(res.partitions_removed, vec![0, 1, 2, 3]);
        assert_eq!(res.partitions_added, vec![4]);
        assert_eq!(
            rows(&t),
            vec![
                vec![Value::Int(30), Value::Null, Value::Str("r30".into())],
                vec![Value::Int(40), Value::Null, Value::Str("r40".into())],
            ]
        );
        let expect =
            reference.delete_rows(|row| snowprune_expr::eval_predicate(&pred, row).qualifies());
        assert_eq!(res, expect);
        // No WHERE: every remaining row goes, and nothing is rebuilt.
        let res = delete_where(&mut t, None).unwrap();
        assert_eq!((res.rows_affected, res.partitions_added.len()), (2, 0));
        assert_eq!(t.total_rows(), 0);
    }

    #[test]
    fn identity_update_rewrites_nothing() {
        let mut t = table();
        let before = t.clone();
        let sets = [(1, bound(col("b"), &t))];
        let (res, cols) = update_where(&mut t, &sets, None).unwrap();
        assert_eq!(res.rows_affected, 0);
        assert!(res.partitions_removed.is_empty() && res.partitions_added.is_empty());
        assert!(cols.is_empty());
        assert_eq!(
            res.new_version, 1,
            "a statement that changes nothing still writes"
        );
        for id in before.partition_ids() {
            assert!(Arc::ptr_eq(
                &before.partition(id).unwrap(),
                &t.partition(id).unwrap()
            ));
        }
        // Assignments read the old row and the last one wins: `b = b + 1,
        // b = b` is still the identity.
        let sets = [
            (1, bound(col("b").add(lit(1i64)), &t)),
            (1, bound(col("b"), &t)),
        ];
        let (res, cols) = update_where(&mut t, &sets, None).unwrap();
        assert_eq!((res.rows_affected, cols.len()), (0, 0));
    }

    #[test]
    fn unknown_columns_are_refused_before_any_write() {
        let mut t = table();
        // Never bound, so its index is `ColumnRef::UNRESOLVED`.
        let bad = col("zz").gt(lit(0i64));
        assert!(delete_where(&mut t, Some(&bad)).is_err());
        let sets = [(9, lit(1i64))];
        assert!(update_where(&mut t, &sets, None).is_err());
        assert_eq!(t.version(), 0);
    }
}
