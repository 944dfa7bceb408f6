//! Cross-crate integration tests exercising the full stack through the
//! `snowprune` facade: storage → expressions → planning → pruning →
//! execution → caching.

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use snowprune::cache::CacheLookup;
use snowprune::plan::{fingerprint, FingerprintMode};
use snowprune::prelude::*;

fn sensor_catalog() -> Catalog {
    let schema = Schema::new(vec![
        Field::new("day", ScalarType::Int),
        Field::new("sensor", ScalarType::Str),
        Field::new("reading", ScalarType::Int),
    ]);
    let mut b = TableBuilder::new("readings", schema)
        .target_rows_per_partition(250)
        .layout(Layout::ClusterBy(vec!["day".into()]));
    for i in 0..25_000i64 {
        b.push_row(vec![
            Value::Int(i / 100),
            Value::Str(format!("s{:03}", i % 200)),
            Value::Int((i * 7919) % 1_000_000),
        ]);
    }
    let c = Catalog::new();
    c.register(b.build());
    c
}

fn schema_of(c: &Catalog, t: &str) -> Schema {
    c.get(t).unwrap().read().schema().clone()
}

#[test]
fn facade_end_to_end_filter_query() {
    let catalog = sensor_catalog();
    let plan = PlanBuilder::scan("readings", schema_of(&catalog, "readings"))
        .filter(col("day").between(lit(100i64), lit(104i64)))
        .build();
    let exec = Executor::new(catalog, ExecConfig::default());
    let out = exec.run(&plan).unwrap();
    assert_eq!(out.rows.len(), 500);
    assert!(out.report.pruning.filter_ratio() > 0.95);
}

#[test]
fn pruning_configs_agree_on_results() {
    // Every combination of enabled techniques yields identical rows.
    let catalog = sensor_catalog();
    let plan = PlanBuilder::scan("readings", schema_of(&catalog, "readings"))
        .filter(col("sensor").like("s00%"))
        .order_by("reading", true)
        .limit(12)
        .build();
    let mut key_sets = Vec::new();
    for mask in 0..8u8 {
        let mut cfg = ExecConfig::default();
        cfg.enable_filter_pruning = mask & 1 != 0;
        cfg.enable_limit_pruning = mask & 2 != 0;
        cfg.enable_topk_pruning = mask & 4 != 0;
        let exec = Executor::new(catalog.clone(), cfg);
        let out = exec.run(&plan).unwrap();
        let keys: Vec<Value> = out.rows.rows.iter().map(|r| r[2].clone()).collect();
        key_sets.push(keys);
    }
    for ks in &key_sets[1..] {
        assert_eq!(ks, &key_sets[0]);
    }
}

#[test]
fn dml_then_query_sees_new_data_under_pruning() {
    let catalog = sensor_catalog();
    let schema = schema_of(&catalog, "readings");
    let handle = catalog.get("readings").unwrap();
    handle.write().insert_rows(vec![vec![
        Value::Int(999),
        Value::Str("s999".into()),
        Value::Int(123),
    ]]);
    let plan = PlanBuilder::scan("readings", schema)
        .filter(col("day").eq(lit(999i64)))
        .build();
    let exec = Executor::new(catalog, ExecConfig::default());
    let out = exec.run(&plan).unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.io.partitions_loaded, 1, "only the new partition");
}

#[test]
fn predicate_cache_round_trip_with_dml() {
    let catalog = sensor_catalog();
    let schema = schema_of(&catalog, "readings");
    let handle = catalog.get("readings").unwrap();
    let plan = PlanBuilder::scan("readings", schema)
        .order_by("reading", true)
        .limit(5)
        .build();
    let fp = fingerprint(&plan, FingerprintMode::Exact);
    // The engine populates the cache: a cold run records the partitions
    // of its top-k survivors.
    let session = Session::new(
        catalog.clone(),
        ExecConfig::default().with_predicate_cache(true),
    );
    let expected: Vec<i64> = session
        .run(&plan)
        .unwrap()
        .rows
        .rows
        .iter()
        .map(|r| r[2].as_i64().unwrap())
        .collect();
    let cache = session.cache().unwrap();
    let CacheLookup::Hit(parts) = cache.lock().lookup(fp, handle.read().version()) else {
        panic!("expected hit");
    };
    // Replaying the cached partitions reproduces the exact top-k multiset.
    let mut replayed: Vec<i64> = Vec::new();
    {
        let t = handle.read();
        for &id in &parts {
            let p = t.partition(id).unwrap();
            for i in 0..p.row_count() {
                replayed.push(p.column(2).value_at(i).as_i64().unwrap());
            }
        }
    }
    replayed.sort_unstable_by(|a, b| b.cmp(a));
    replayed.truncate(5);
    assert_eq!(replayed, expected);
    // INSERT with a new global maximum: cache appends the new partition, so
    // replay still finds the new top-1.
    session
        .insert_rows(
            "readings",
            vec![vec![
                Value::Int(1_000),
                Value::Str("s_new".into()),
                Value::Int(99_999_999),
            ]],
        )
        .unwrap();
    let CacheLookup::Hit(after_insert) = cache.lock().lookup(fp, handle.read().version()) else {
        panic!("insert must not invalidate");
    };
    assert!(after_insert.len() > parts.len());
    // DELETE invalidates the top-k entry.
    session
        .delete_rows("readings", |r| r[2] == Value::Int(99_999_999))
        .unwrap();
    assert_eq!(
        cache.lock().lookup(fp, handle.read().version()),
        CacheLookup::Miss
    );
}

#[test]
fn tpch_q6_pruning_beats_baseline_io() {
    let catalog = snowprune::workload::generate_tpch(&snowprune::workload::TpchConfig {
        scale: 0.003,
        rows_per_partition: 400,
        clustered: true,
        seed: 5,
    });
    let plan = snowprune::workload::tpch_query(6);
    let pruned = Executor::new(catalog.clone(), ExecConfig::default())
        .run(&plan)
        .unwrap();
    let baseline = Executor::new(catalog, ExecConfig::no_pruning())
        .run(&plan)
        .unwrap();
    // Same rows.
    assert_eq!(pruned.rows.len(), baseline.rows.len());
    assert!(!pruned.rows.is_empty());
    // Far less I/O (Q6 is the classic one-year shipdate range).
    assert!(pruned.io.partitions_loaded * 2 < baseline.io.partitions_loaded);
}

#[test]
fn lake_table_scan_matches_regular_table() {
    let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
    let rows: Vec<Vec<Value>> = (0..5_000i64).map(|i| vec![Value::Int(i)]).collect();
    let lake = LakeTable::from_rows(
        "lake",
        schema.clone(),
        rows,
        1_000,
        250,
        50,
        true,
        true,
        true,
    );
    let catalog = Catalog::new();
    catalog.register(lake.to_table());
    let plan = PlanBuilder::scan("lake", schema)
        .filter(col("x").between(lit(1_000i64), lit(1_249i64)))
        .build();
    let out = Executor::new(catalog, ExecConfig::default())
        .run(&plan)
        .unwrap();
    assert_eq!(out.rows.len(), 250);
    assert_eq!(out.io.partitions_loaded, 1, "one row group's partition");
}
