//! Property test: filter pruning is *precise* on clustered ranges.
//!
//! `prop_pruning` (in `snowprune-expr`) proves zone-map pruning is sound:
//! it never drops a partition holding a matching row. This file proves the
//! other half for the case the paper's headline number rests on: for a
//! conjunction of range leaves over a clustered column, the scan set is
//! exactly the partitions whose min/max overlap the predicate's interval.
//! The §3.2 cutoff must not cost precision here: an extra unclustered leaf
//! that never prunes may ride along, and the scan set under the default
//! `FilterPruneConfig` equals the one with `cutoff: false`.

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use proptest::prelude::*;
use snowprune_core::filter::{FilterPruneConfig, FilterPruner};
use snowprune_expr::dsl::{col, lit};
use snowprune_expr::Expr;
use snowprune_storage::{Field, Layout, PartitionMeta, Schema, Table, TableBuilder};
use snowprune_types::{ScalarType, Value};

const ROWS_PER_PARTITION: usize = 2;
/// `y` is drawn from `0..Y_RANGE`, so `y < Y_RANGE` never prunes.
const Y_RANGE: i64 = 50;

/// splitmix64 stream, so a case's table is a function of its seed.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `partitions` partitions clustered on `x`, with `x` drawn from a domain
/// a few times the row count (so neighbouring partitions may share a
/// boundary value) and `y` drawn independently.
fn clustered_table(partitions: usize, seed: u64) -> Table {
    let schema = Schema::new(vec![
        Field::new("x", ScalarType::Int),
        Field::new("y", ScalarType::Int),
    ]);
    let rows = partitions * ROWS_PER_PARTITION;
    let domain = 4 * rows as u64;
    let mut next = splitmix(seed);
    let mut b = TableBuilder::new("t", schema)
        .target_rows_per_partition(ROWS_PER_PARTITION)
        .layout(Layout::ClusterBy(vec!["x".into()]));
    for _ in 0..rows {
        let x = (next() % domain) as i64;
        let y = (next() % Y_RANGE as u64) as i64;
        b.push_row(vec![Value::Int(x), Value::Int(y)]);
    }
    b.build()
}

fn int(v: &Option<Value>) -> i64 {
    match v {
        Some(Value::Int(i)) => *i,
        other => panic!("clustered column has an int min/max, got {other:?}"),
    }
}

/// Ids of the partitions whose `x` min/max overlap `[lo, hi]`, read off the
/// zone maps directly.
fn overlapping(metas: &[&PartitionMeta], lo: i64, hi: i64) -> Vec<u64> {
    metas
        .iter()
        .filter(|m| {
            let zm = &m.zone_maps[0];
            int(&zm.min) <= hi && int(&zm.max) >= lo
        })
        .map(|m| m.id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clustered_range_scan_set_is_exactly_the_overlapping_partitions(
        partitions in 64usize..3_001,
        seed in any::<u64>(),
        start_permille in -50i64..1_050,
        width_permille in 0i64..300,
        // (operator, slack in ‰ of the domain): 0 `<`, 1 `<=`, 2 `>`,
        // 3 `>=`, 4 BETWEEN. Zero slack makes a leaf tight at the slice.
        leaves in proptest::collection::vec(
            (0u8..5, prop_oneof![3 => Just(0i64), 1 => 0i64..100]), 1..5),
        extra in 0u8..3,
    ) {
        let t = clustered_table(partitions, seed);
        let metas = t.metadata();
        prop_assert_eq!(metas.len(), partitions);

        // The slice [a, b]; every leaf contains it, so the conjunction's
        // interval [lo, hi] is never empty and per-leaf zone-map pruning
        // is exact for it.
        let domain = (4 * partitions * ROWS_PER_PARTITION) as i64;
        let a = domain * start_permille / 1_000;
        let b = a + domain * width_permille / 1_000;
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        let x = || col("x");
        let mut conjuncts: Vec<Expr> = Vec::new();
        for &(op, slack_permille) in &leaves {
            let slack = domain * slack_permille / 1_000;
            let (l, h) = (a - slack, b + slack);
            conjuncts.push(match op {
                0 => { hi = hi.min(h); x().lt(lit(h + 1)) }
                1 => { hi = hi.min(h); x().le(lit(h)) }
                2 => { lo = lo.max(l); x().gt(lit(l - 1)) }
                3 => { lo = lo.max(l); x().ge(lit(l)) }
                _ => { lo = lo.max(l); hi = hi.min(h); x().between(lit(l), lit(h)) }
            });
        }
        let never_prunes = col("y").lt(lit(Y_RANGE));
        match extra {
            1 => conjuncts.insert(0, never_prunes),
            2 => conjuncts.push(never_prunes),
            _ => {}
        }
        let pred = conjuncts
            .into_iter()
            .reduce(Expr::and)
            .expect("at least one leaf")
            .bind(t.schema())
            .expect("predicate binds");

        let scan_set = |cutoff: bool| {
            let mut cfg = FilterPruneConfig::default();
            cfg.cutoff = cutoff;
            FilterPruner::new(&pred, cfg).prune(&metas).scan_set.ids()
        };
        let expected = overlapping(&metas, lo, hi);
        prop_assert_eq!(scan_set(true), expected.clone(), "default config, [{}, {}]", lo, hi);
        prop_assert_eq!(scan_set(false), expected, "cutoff off, [{}, {}]", lo, hi);
    }
}
