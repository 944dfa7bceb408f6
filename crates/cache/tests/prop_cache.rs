//! Property suite for the predicate cache's DML correctness rules: for
//! random tables, random entries (top-k and filter shapes), and random DML
//! sequences (inserts, deletes, updates over random columns), a cache
//! lookup that still *hits* must never yield a partition set that loses an
//! oracle row — every row a cold full scan says belongs to the result must
//! live in a replayed partition. Misses/invalidations are always legal;
//! serving a stale or under-scanning partition set never is.
//!
//! The DML kinds fed to `on_dml` are *measured* (`update_rows_tracked`
//! reports the columns an update actually changed), mirroring how
//! `snowprune_exec::Session` drives the cache.

use proptest::prelude::*;
use snowprune_cache::{CacheEntry, CacheLookup, DmlKind, EntryKind, PredicateCache, ShapeKey};
use snowprune_expr::dsl::{col, lit};
use snowprune_expr::{eval_truths, selection_indices, Expr};
use snowprune_storage::{Field, Layout, PartitionId, Schema, Table, TableBuilder};
use snowprune_types::{LiteralRange, RangeBound, ScalarType, Value};

/// The shape key of `w >= lo` (shared shape fingerprint for all
/// thresholds); `need` distinguishes filter entries from top-k ones.
fn w_ge_shape(lo: i64, need: Option<u64>) -> ShapeKey {
    ShapeKey {
        fingerprint: 0x5AFE,
        ranges: vec![LiteralRange {
            column: "w".into(),
            lo: Some(RangeBound {
                value: Value::Int(lo),
                inclusive: true,
            }),
            hi: None,
        }],
        need,
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("v", ScalarType::Int), // ordering column
        Field::new("w", ScalarType::Int), // predicate column
        Field::new("g", ScalarType::Int), // payload column
    ])
}

/// Rows are (v, noise) pairs; the predicate column is `w = v + noise`, so
/// `w` correlates with the clustering column. That correlation matters:
/// partitions matching `w >= threshold` and partitions holding a given
/// lower `w`-band are then *disjoint* sets, which is exactly the geometry
/// where an UPDATE fast path keyed on "did the statement rewrite a cached
/// partition?" silently under-scans.
fn build_table(rows: &[(i64, i64)], per_part: usize, clustered: bool) -> Table {
    let layout = if clustered {
        Layout::ClusterBy(vec!["v".into()])
    } else {
        Layout::Shuffle(17)
    };
    let mut b = TableBuilder::new("t", schema())
        .target_rows_per_partition(per_part)
        .layout(layout);
    for (i, (v, noise)) in rows.iter().enumerate() {
        b.push_row(vec![
            Value::Int(*v),
            Value::Int(*v + *noise),
            Value::Int(i as i64),
        ]);
    }
    b.build()
}

/// All (order value, partition) pairs of rows matching `pred`.
fn qualifying_pairs(table: &Table, pred: Option<&Expr>) -> Vec<(i64, PartitionId)> {
    let bound = pred.map(|p| p.bind(table.schema()).unwrap());
    let mut pairs = Vec::new();
    for id in table.partition_ids() {
        let part = table.partition(id).unwrap();
        let sel: Vec<usize> = match &bound {
            Some(p) => selection_indices(&eval_truths(p, &part)),
            None => (0..part.row_count()).collect(),
        };
        for i in sel {
            if let Value::Int(v) = part.column(0).value_at(i) {
                pairs.push((v, id));
            }
        }
    }
    pairs
}

/// The distinct partitions of `pairs`, sorted.
fn partitions_of(pairs: Vec<(i64, PartitionId)>) -> Vec<PartitionId> {
    let mut out: Vec<PartitionId> = pairs.into_iter().map(|(_, id)| id).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Partitions holding at least one row matching `pred` (the filter oracle).
fn matching_partitions(table: &Table, pred: &Expr) -> Vec<PartitionId> {
    partitions_of(qualifying_pairs(table, Some(pred)))
}

/// Every qualifying row ranked at-or-better-than the k-th best order value
/// (`k >= 1`): the top-k rows plus every row tied with the boundary, which
/// a replay may draw the boundary row from (the top-k oracle). Its
/// partitions are the exact entry the engine records.
fn topk_pairs(table: &Table, pred: Option<&Expr>, k: usize, desc: bool) -> Vec<(i64, PartitionId)> {
    let mut pairs = qualifying_pairs(table, pred);
    pairs.sort_by(|a, b| if desc { b.0.cmp(&a.0) } else { a.0.cmp(&b.0) });
    if pairs.len() > k {
        let bound = pairs[k - 1].0;
        pairs.retain(|(v, _)| if desc { *v >= bound } else { *v <= bound });
    }
    pairs
}

/// One random DML statement. Parameters are interpreted per `kind`.
#[derive(Clone, Debug)]
struct DmlOp {
    kind: u8,
    lo: i64,
    span: i64,
    delta: i64,
}

fn op_strategy() -> impl Strategy<Value = DmlOp> {
    (0u8..5, -60i64..60, 0i64..25, -30i64..30).prop_map(|(kind, lo, span, delta)| DmlOp {
        kind,
        lo,
        span,
        delta,
    })
}

/// Apply `op` to the table and feed the *measured* DML kind to the cache.
/// `threshold` anchors predicate-column updates near the predicate's
/// boundary, where moving rows into/out of the range actually changes
/// which partitions match.
fn apply_op(table: &mut Table, cache: &mut PredicateCache, op: &DmlOp, threshold: i64) {
    let in_range = |v: &Value| match v {
        Value::Int(x) => *x >= op.lo && *x <= op.lo + op.span,
        _ => false,
    };
    match op.kind {
        0 => {
            // INSERT a couple of fresh rows.
            let res = table.insert_rows(vec![
                vec![
                    Value::Int(op.lo),
                    Value::Int(op.delta),
                    Value::Int(1_000 + op.span),
                ],
                vec![
                    Value::Int(op.lo + op.span),
                    Value::Int(-op.delta),
                    Value::Int(2_000 + op.span),
                ],
            ]);
            cache.on_dml("t", &DmlKind::Insert, &res);
        }
        1 => {
            // DELETE rows whose order value falls in a band.
            let res = table.delete_rows(|row| in_range(&row[0]));
            cache.on_dml("t", &DmlKind::Delete, &res);
        }
        2 => {
            // UPDATE the predicate column, selecting *by* the predicate
            // column: shifts a whole w-band near the predicate boundary,
            // which can move rows into the predicate's range inside
            // partitions that never matched it — without touching any
            // partition that did (w correlates with the clustering key).
            let band_lo = threshold - 20 + op.lo.rem_euclid(25);
            let band_hi = band_lo + op.span;
            let (res, cols) = table.update_rows_tracked(|row| {
                let mut r = row.to_vec();
                if let Value::Int(w) = r[1] {
                    if w >= band_lo && w <= band_hi {
                        r[1] = Value::Int(w + op.delta);
                    }
                }
                r
            });
            cache.on_dml("t", &DmlKind::Update(cols), &res);
        }
        3 => {
            // UPDATE the payload column (never affects any entry's rows).
            let (res, cols) = table.update_rows_tracked(|row| {
                let mut r = row.to_vec();
                if in_range(&r[0]) {
                    if let Value::Int(g) = r[2] {
                        r[2] = Value::Int(g + 1);
                    }
                }
                r
            });
            cache.on_dml("t", &DmlKind::Update(cols), &res);
        }
        _ => {
            // UPDATE the ordering column (unsafe for top-k entries).
            let (res, cols) = table.update_rows_tracked(|row| {
                let mut r = row.to_vec();
                if in_range(&r[1]) {
                    if let Value::Int(v) = r[0] {
                        r[0] = Value::Int(v + op.delta);
                    }
                }
                r
            });
            cache.on_dml("t", &DmlKind::Update(cols), &res);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Top-k entries: after any DML sequence, a hit's partition set must
    /// cover every row a cold oracle scan puts in (or ties with) the
    /// top-k — including boundary ties spanning partitions.
    #[test]
    fn topk_hit_never_loses_an_oracle_row(
        rows in proptest::collection::vec((-60i64..60, -15i64..15), 1..120),
        per_part in prop_oneof![Just(5usize), Just(13), Just(40)],
        clustered in any::<bool>(),
        k in 1usize..8,
        desc in any::<bool>(),
        with_pred in any::<bool>(),
        threshold in 10i64..55,
        ops in proptest::collection::vec(op_strategy(), 0..5),
    ) {
        let mut table = build_table(&rows, per_part, clustered);
        let pred = with_pred.then(|| col("w").ge(lit(threshold)));
        let mut cache = PredicateCache::new(8);
        let parts = partitions_of(topk_pairs(&table, pred.as_ref(), k, desc));
        cache.insert(1, CacheEntry {
            kind: EntryKind::TopK { order_column: "v".into() },
            table: "t".into(),
            partitions: parts,
            predicate_columns: if with_pred { vec!["w".into()] } else { Vec::new() },
            table_version: table.version(),
            appended: Vec::new(),
            shape: None,
            saved_loads: 0,
            aux_tables: Vec::new(),
        });
        for op in &ops {
            apply_op(&mut table, &mut cache, op, threshold);
        }
        // A miss (invalidated or stale) is always legal; a hit must not
        // lose any oracle row.
        if let CacheLookup::Hit(replay) = cache.lookup(1, table.version()) {
            for (v, id) in topk_pairs(&table, pred.as_ref(), k, desc) {
                prop_assert!(
                    replay.contains(&id),
                    "row v={v} in partition {id} lost by replay set {replay:?} \
                     (k={k} desc={desc} pred={with_pred} ops={ops:?})"
                );
            }
        }
    }

    /// Filter entries: a hit must cover every partition holding at least
    /// one matching row — in particular after UPDATEs of the predicate
    /// column that move rows into the range inside never-cached partitions.
    #[test]
    fn filter_hit_never_loses_a_matching_partition(
        rows in proptest::collection::vec((-60i64..60, -15i64..15), 1..120),
        per_part in prop_oneof![Just(5usize), Just(13), Just(40)],
        clustered in any::<bool>(),
        threshold in 10i64..55,
        ops in proptest::collection::vec(op_strategy(), 0..5),
    ) {
        let mut table = build_table(&rows, per_part, clustered);
        // A selective threshold leaves many partitions *outside* the
        // cached set — exactly where the UPDATE fast-path bug under-scans.
        let pred = col("w").ge(lit(threshold));
        let mut cache = PredicateCache::new(8);
        cache.insert(2, CacheEntry {
            kind: EntryKind::Filter,
            table: "t".into(),
            partitions: matching_partitions(&table, &pred),
            predicate_columns: vec!["w".into()],
            table_version: table.version(),
            appended: Vec::new(),
            shape: None,
            saved_loads: 0,
            aux_tables: Vec::new(),
        });
        for op in &ops {
            apply_op(&mut table, &mut cache, op, threshold);
        }
        if let CacheLookup::Hit(replay) = cache.lookup(2, table.version()) {
            for id in matching_partitions(&table, &pred) {
                prop_assert!(
                    replay.contains(&id),
                    "matching partition {id} lost by replay set {replay:?} (t={threshold} ops={ops:?})"
                );
            }
        }
    }

    /// Shape-mode filter subsumption: an entry recorded for `w >= t` may
    /// serve any narrowed query `w >= t + d` (d ≥ 0) via its shape key —
    /// after arbitrary DML, a shape hit must still cover every partition
    /// holding a row matching the *narrowed* predicate.
    #[test]
    fn filter_shape_hit_never_loses_a_matching_partition(
        rows in proptest::collection::vec((-60i64..60, -15i64..15), 1..120),
        per_part in prop_oneof![Just(5usize), Just(13), Just(40)],
        clustered in any::<bool>(),
        threshold in 10i64..40,
        delta in 0i64..30,
        ops in proptest::collection::vec(op_strategy(), 0..5),
    ) {
        let mut table = build_table(&rows, per_part, clustered);
        let entry_pred = col("w").ge(lit(threshold));
        let mut cache = PredicateCache::new(8);
        cache.insert(2, CacheEntry {
            kind: EntryKind::Filter,
            table: "t".into(),
            partitions: matching_partitions(&table, &entry_pred),
            predicate_columns: vec!["w".into()],
            table_version: table.version(),
            appended: Vec::new(),
            shape: Some(w_ge_shape(threshold, None)),
            saved_loads: 0,
            aux_tables: Vec::new(),
        });
        for op in &ops {
            apply_op(&mut table, &mut cache, op, threshold);
        }
        // The narrowed query has a different exact fingerprint (7) but the
        // same shape; a ShapeHit must cover the narrowed oracle.
        let query_pred = col("w").ge(lit(threshold + delta));
        let lookup = cache.lookup_with_shape(
            7,
            Some(&w_ge_shape(threshold + delta, None)),
            table.version(),
        );
        if let CacheLookup::ShapeHit(replay) = lookup {
            for id in matching_partitions(&table, &query_pred) {
                prop_assert!(
                    replay.contains(&id),
                    "narrowed-match partition {id} lost by shape replay {replay:?} \
                     (t={threshold} d={delta} ops={ops:?})"
                );
            }
        } else {
            prop_assert!(!matches!(lookup, CacheLookup::Hit(_)), "fp 7 never inserted");
        }
    }

    /// Shape-mode top-k subsumption: an entry recorded at `k_entry` may
    /// serve the same predicate at any `k_query <= k_entry` — after
    /// arbitrary DML, a shape hit must cover every row a cold oracle
    /// ranks in (or tied with) the smaller top-k.
    #[test]
    fn topk_shape_hit_never_loses_an_oracle_row(
        rows in proptest::collection::vec((-60i64..60, -15i64..15), 1..120),
        per_part in prop_oneof![Just(5usize), Just(13), Just(40)],
        clustered in any::<bool>(),
        k_entry in 2usize..8,
        k_delta in 0usize..6,
        desc in any::<bool>(),
        with_pred in any::<bool>(),
        threshold in 10i64..55,
        ops in proptest::collection::vec(op_strategy(), 0..5),
    ) {
        let k_query = k_entry.saturating_sub(k_delta).max(1);
        let mut table = build_table(&rows, per_part, clustered);
        let pred = with_pred.then(|| col("w").ge(lit(threshold)));
        let mut cache = PredicateCache::new(8);
        let parts = partitions_of(topk_pairs(&table, pred.as_ref(), k_entry, desc));
        // Shape fingerprint varies with predicate presence, as the real
        // extraction's constrained-column set would.
        let entry_shape = if with_pred {
            w_ge_shape(threshold, Some(k_entry as u64))
        } else {
            ShapeKey { fingerprint: 0xBA5E, ranges: Vec::new(), need: Some(k_entry as u64) }
        };
        let query_shape = if with_pred {
            w_ge_shape(threshold, Some(k_query as u64))
        } else {
            ShapeKey { fingerprint: 0xBA5E, ranges: Vec::new(), need: Some(k_query as u64) }
        };
        cache.insert(1, CacheEntry {
            kind: EntryKind::TopK { order_column: "v".into() },
            table: "t".into(),
            partitions: parts,
            predicate_columns: if with_pred { vec!["w".into()] } else { Vec::new() },
            table_version: table.version(),
            appended: Vec::new(),
            shape: Some(entry_shape),
            saved_loads: 0,
            aux_tables: Vec::new(),
        });
        for op in &ops {
            apply_op(&mut table, &mut cache, op, threshold);
        }
        let lookup = cache.lookup_with_shape(9, Some(&query_shape), table.version());
        if let CacheLookup::ShapeHit(replay) = lookup {
            for (v, id) in topk_pairs(&table, pred.as_ref(), k_query, desc) {
                prop_assert!(
                    replay.contains(&id),
                    "row v={v} in partition {id} lost by shape replay {replay:?} \
                     (k_entry={k_entry} k_query={k_query} desc={desc} pred={with_pred} ops={ops:?})"
                );
            }
        }
    }
}
