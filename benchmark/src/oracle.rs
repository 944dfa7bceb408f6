//! Answer checking, outside the timed region: a sequential executor with
//! every pruning technique off re-runs a statement on the same tables and
//! the two results are compared the way `diffgen::Check` does — multiset
//! equality, sort-key order for ORDER BY, count + containment for LIMIT
//! without ORDER BY. The `scale_events` lake (`ts = 10·i`, partition =
//! `i / rows_per_partition`) additionally has closed forms.

use snowprune_exec::{ExecConfig, Executor, RowSet};
use snowprune_expr::{CmpOp, Expr};
use snowprune_plan::Plan;
use snowprune_storage::Catalog;
use snowprune_types::Value;

use crate::digest::{contained_in, multiset, ordered_column};

/// How a statement's rows are compared with the oracle's.
enum Check {
    /// Same rows, any order.
    Multiset,
    /// ORDER BY: the sort-key column agrees position by position; the
    /// whole rows agree as a multiset unless a LIMIT cuts through ties.
    OrderedKey { col: usize, limited: bool },
    /// LIMIT without ORDER BY: `min(k, |unlimited|)` rows, all of them
    /// rows of the unlimited result.
    Limited { k: u64, unlimited: Plan },
}

fn sort_key_column(input: &Plan, keys: &[snowprune_plan::SortKey]) -> Option<usize> {
    let Expr::Column(c) = &keys.first()?.expr else {
        return None;
    };
    input.schema().ok()?.index_of(&c.name).ok()
}

fn check_for(plan: &Plan) -> Check {
    let ordered = |sort: &Plan, limited| match sort {
        Plan::Sort { input, keys } => {
            sort_key_column(input, keys).map(|col| Check::OrderedKey { col, limited })
        }
        _ => None,
    };
    match plan {
        Plan::Limit { input, k, .. } => ordered(input, true).unwrap_or_else(|| Check::Limited {
            k: *k,
            unlimited: (**input).clone(),
        }),
        sort @ Plan::Sort { .. } => ordered(sort, false).unwrap_or(Check::Multiset),
        _ => Check::Multiset,
    }
}

pub struct Oracle {
    exec: Executor,
    catalog: Catalog,
}

impl Oracle {
    /// The oracle reads the same catalog as the session under test, so it
    /// sees every DML statement the session applied.
    pub fn new(catalog: &Catalog) -> Self {
        Oracle {
            exec: Executor::new(catalog.clone(), ExecConfig::no_pruning()),
            catalog: catalog.clone(),
        }
    }

    pub fn rows(&self, plan: &Plan) -> Result<RowSet, String> {
        self.exec
            .run(plan)
            .map(|o| o.rows)
            .map_err(|e| format!("oracle failed: {e}"))
    }

    /// Compare `got` with what the unpruned sequential executor returns.
    /// `got` is digested and dropped before the oracle runs, so only one
    /// result is in memory at a time and `peak_rss_mb` stays the engine's.
    pub fn verify(&self, plan: &Plan, got: RowSet) -> Result<(), String> {
        match check_for(plan) {
            Check::Multiset => {
                let seen = multiset(&got.rows);
                drop(got);
                same(seen, multiset(&self.rows(plan)?.rows), "rows")
            }
            Check::OrderedKey { col, limited } => {
                let seen = (
                    got.len(),
                    ordered_column(&got.rows, col),
                    multiset(&got.rows),
                );
                drop(got);
                let want = self.rows(plan)?;
                same(seen.0, want.len(), "row count")?;
                same(seen.1, ordered_column(&want.rows, col), "sort-key order")?;
                if limited {
                    return Ok(());
                }
                same(seen.2, multiset(&want.rows), "rows")
            }
            Check::Limited { k, unlimited } => {
                let all = self.rows(&unlimited)?;
                same(got.len() as u64, k.min(all.len() as u64), "LIMIT row count")?;
                if contained_in(&got.rows, &all.rows) {
                    Ok(())
                } else {
                    Err("LIMIT returned a row the unlimited query does not".into())
                }
            }
        }
    }

    /// Rows of `table` with `lo <= key <= hi`, and the sum of `bump` over
    /// them — the before/after facts a DML statement is checked against.
    pub fn range_facts(
        &self,
        table: &str,
        key: &str,
        bump: &str,
        lo: i64,
        hi: i64,
    ) -> Result<(u64, i64), String> {
        use snowprune_expr::dsl::{col, lit};
        let schema = self
            .catalog
            .get(table)
            .map_err(|e| e.to_string())?
            .read()
            .schema()
            .clone();
        let bump_idx = schema.index_of(bump).map_err(|e| e.to_string())?;
        let plan = snowprune_plan::PlanBuilder::scan(table, schema)
            .filter(col(key).between(lit(lo), lit(hi)))
            .build();
        let rows = self.rows(&plan)?;
        let sum = rows.rows.iter().filter_map(|r| r[bump_idx].as_i64()).sum();
        Ok((rows.len() as u64, sum))
    }
}

fn same<T: PartialEq + std::fmt::Debug>(got: T, want: T, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, oracle {want:?}"))
    }
}

/// The `ts BETWEEN lo AND hi` range of a `scale_events` slice or report
/// window (optionally under a projection); `None` for any other shape.
pub fn ts_slice(plan: &Plan) -> Option<(i64, i64)> {
    let scan = match plan {
        Plan::Project { input, .. } => input,
        other => other,
    };
    let Plan::Scan {
        table,
        predicate: Some(Expr::And(parts)),
        ..
    } = scan
    else {
        return None;
    };
    let bound = |e: &Expr, want: CmpOp| match e {
        Expr::Cmp(op, l, r) if *op == want => match (&**l, &**r) {
            (Expr::Column(c), Expr::Literal(Value::Int(v))) if c.name == "ts" => Some(*v),
            _ => None,
        },
        _ => None,
    };
    match parts.as_slice() {
        [ge, le] if table == "scale_events" => Some((bound(ge, CmpOp::Ge)?, bound(le, CmpOp::Le)?)),
        _ => None,
    }
}

/// Row indices `i` of the lake with `lo <= 10·i <= hi`, as a half-open range.
fn slice_row_range(lo: i64, hi: i64, total_rows: u64) -> std::ops::Range<u64> {
    let first = lo.max(0).div_euclid(10) + i64::from(lo.max(0).rem_euclid(10) != 0);
    let end = (hi.div_euclid(10) + 1).clamp(0, total_rows as i64);
    let first = first.clamp(0, end);
    first as u64..end as u64
}

/// Closed-form row count of a slice over `total_rows` rows of `ts = 10·i`.
pub fn slice_rows(lo: i64, hi: i64, total_rows: u64) -> u64 {
    let r = slice_row_range(lo, hi, total_rows);
    r.end - r.start
}

/// Closed-form count of partitions holding at least one qualifying row.
pub fn slice_partitions(lo: i64, hi: i64, total_rows: u64, rows_per_partition: u64) -> u64 {
    let r = slice_row_range(lo, hi, total_rows);
    if r.is_empty() {
        0
    } else {
        (r.end - 1) / rows_per_partition - r.start / rows_per_partition + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_plan::PlanBuilder;
    use snowprune_workload::{production_scale, ProductionScaleConfig};

    #[test]
    fn closed_forms_agree_with_brute_force() {
        let (total, per) = (100u64, 8u64);
        for (lo, hi) in [
            (0, 0),
            (5, 9),
            (5, 10),
            (10, 70),
            (-30, 25),
            (75, 5000),
            (991, 2000),
            (40, 30),
        ] {
            let rows: Vec<u64> = (0..total)
                .filter(|i| lo <= 10 * *i as i64 && 10 * *i as i64 <= hi)
                .collect();
            assert_eq!(slice_rows(lo, hi, total), rows.len() as u64, "{lo}..{hi}");
            let mut parts: Vec<u64> = rows.iter().map(|i| i / per).collect();
            parts.dedup();
            assert_eq!(
                slice_partitions(lo, hi, total, per),
                parts.len() as u64,
                "{lo}..{hi}"
            );
        }
    }

    #[test]
    fn closed_form_matches_the_generated_lake() {
        let cfg = ProductionScaleConfig {
            tenants: 4,
            queries: 40,
            fact_partitions: 50,
            rows_per_partition: 8,
            zipf_s: 1.1,
        };
        let wl = production_scale(&cfg, 3);
        let oracle = Oracle::new(&wl.catalog);
        let mut slices = 0;
        for (_, q) in &wl.arrivals {
            if let Some((lo, hi)) = ts_slice(&q.plan) {
                slices += 1;
                let rows = oracle.rows(&q.plan).unwrap();
                assert_eq!(rows.len() as u64, slice_rows(lo, hi, 400));
                oracle.verify(&q.plan, rows).unwrap();
            }
        }
        assert!(slices > 20, "most generated statements are ts slices");
    }

    #[test]
    fn check_kinds_follow_the_plan_shape() {
        let cfg = ProductionScaleConfig {
            tenants: 1,
            queries: 1,
            fact_partitions: 10,
            rows_per_partition: 8,
            zipf_s: 1.1,
        };
        let wl = production_scale(&cfg, 1);
        let schema = wl
            .catalog
            .get("scale_events")
            .unwrap()
            .read()
            .schema()
            .clone();
        let oracle = Oracle::new(&wl.catalog);
        let base =
            || PlanBuilder::scan("scale_events", schema.clone()).filter(col("ts").ge(lit(100i64)));

        let topk = base().order_by("ts", true).limit(5).build();
        let mut got = oracle.rows(&topk).unwrap();
        oracle.verify(&topk, got.clone()).unwrap();
        got.rows.swap(0, 1);
        assert!(oracle
            .verify(&topk, got.clone())
            .unwrap_err()
            .contains("sort-key"));

        let limited = base().limit(7).build();
        let mut got = oracle.rows(&limited).unwrap();
        oracle.verify(&limited, got.clone()).unwrap();
        got.rows[0][0] = Value::Int(-1);
        assert!(oracle.verify(&limited, got.clone()).is_err());
        got.rows.pop();
        assert!(oracle
            .verify(&limited, got.clone())
            .unwrap_err()
            .contains("row count"));

        let plain = base().build();
        let mut got = oracle.rows(&plain).unwrap();
        got.rows.reverse();
        oracle.verify(&plain, got.clone()).unwrap();
        got.rows.pop();
        assert!(oracle.verify(&plain, got.clone()).is_err());
    }
}
