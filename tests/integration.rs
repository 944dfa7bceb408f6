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
            Value::Str(format!("s{:03}", i % 200).into()),
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

/// Rows of `t(f) WHERE f = literal` over a one-column Float table in
/// 2-row partitions, under `ExecConfig::default()` and `no_pruning()`.
fn float_eq_int_rows(values: &[f64], literal: i64) -> [usize; 2] {
    let schema = Schema::new(vec![Field::new("f", ScalarType::Float)]);
    let mut b = TableBuilder::new("t", schema.clone()).target_rows_per_partition(2);
    for v in values {
        b.push_row(vec![Value::Float(*v)]);
    }
    let catalog = Catalog::new();
    catalog.register(b.build());
    let plan = PlanBuilder::scan("t", schema)
        .filter(col("f").eq(lit(literal)))
        .build();
    [ExecConfig::default(), ExecConfig::no_pruning()].map(|cfg| {
        Executor::new(catalog.clone(), cfg)
            .run(&plan)
            .unwrap()
            .rows
            .len()
    })
}

#[test]
fn negative_zero_equals_int_zero_with_and_without_pruning() {
    // Under SQL's exact int/float order -0.0 = 0, so the first partition
    // fully matches and the kernel must agree when it runs.
    assert_eq!(float_eq_int_rows(&[-0.0, -0.0, 1.0, 2.0], 0), [2, 2]);
}

#[test]
fn unrepresentable_int_literal_matches_no_float_with_and_without_pruning() {
    // 2^53 + 1 has no f64; `as f64` would round it onto 2^53.
    let rows = float_eq_int_rows(&[9_007_199_254_740_992.0, 1.0, 2.0, 3.0], (1 << 53) + 1);
    assert_eq!(rows, [0, 0]);
}

/// `a(i Int) {1, 2}` and `b(f Float) {1.0, 3.0}`.
fn int_float_catalog() -> Catalog {
    let catalog = Catalog::new();
    for (name, col, ty, vals) in [
        ("a", "i", ScalarType::Int, [Value::Int(1), Value::Int(2)]),
        (
            "b",
            "f",
            ScalarType::Float,
            [Value::Float(1.0), Value::Float(3.0)],
        ),
    ] {
        let mut t = TableBuilder::new(name, Schema::new(vec![Field::new(col, ty)]));
        for v in vals {
            t.push_row(vec![v]);
        }
        catalog.register(t.build());
    }
    catalog
}

#[test]
fn int_float_join_keys_are_refused_in_a_plan() {
    use snowprune::types::{DiagCode, Error};
    let catalog = int_float_catalog();
    let plan = PlanBuilder::scan("a", schema_of(&catalog, "a"))
        .join(
            PlanBuilder::scan("b", schema_of(&catalog, "b")),
            "i",
            "f",
            JoinType::Inner,
        )
        .build();
    match Executor::new(catalog, ExecConfig::default()).run(&plan) {
        Err(Error::PlanRejected(ds)) => {
            assert_eq!(ds.len(), 1, "{ds:?}");
            assert_eq!(ds[0].code, DiagCode::JoinKeyMismatch);
        }
        other => panic!("expected a join-key rejection, got {other:?}"),
    }
}

#[test]
fn int_float_join_keys_are_refused_in_sql() {
    let session = Session::new(int_float_catalog(), ExecConfig::default());
    // The filter form compares exactly and keeps the row...
    match session.run_sql("SELECT * FROM a WHERE i = 1.0").unwrap() {
        SqlOutcome::Rows(out) => assert_eq!(out.rows.len(), 1),
        other => panic!("{other:?}"),
    }
    // ...so the join form is refused rather than silently empty.
    let sql = "SELECT * FROM a JOIN b ON i = f";
    let err = session.run_sql(sql).unwrap_err();
    assert_eq!(
        snowprune::sql::render_error(sql, &err),
        "error[join-key-type-mismatch] at 1:27: join keys `i` (BIGINT) and `f` (DOUBLE) \
         differ in type: the hash join matches keys of one type only\n  \
         SELECT * FROM a JOIN b ON i = f\n                            \
         ^^^^^"
    );
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

#[test]
fn tpch_skeletons_match_the_unpruned_engine() {
    use snowprune::workload::tpch::{
        customer_schema, lineitem_schema, nation_schema, orders_schema,
    };
    use snowprune::workload::{all_tpch_queries, generate_tpch, TpchConfig};
    fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_ord_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(a.len().cmp(&b.len()))
        });
        rows
    }
    let catalog = generate_tpch(&TpchConfig {
        scale: 0.003,
        rows_per_partition: 200,
        clustered: true,
        seed: 5,
    });
    let mut cfg = ExecConfig::default();
    cfg.predicate_cache = true;
    let cached = Executor::new(catalog.clone(), cfg);
    let pooled = Executor::new(catalog.clone(), ExecConfig::default().with_scan_threads(4));
    let row = Executor::new(
        catalog.clone(),
        ExecConfig::default().with_batch_native(false),
    );
    // The cached engine runs each plan twice: the second run replays
    // whatever the first one recorded.
    let engines = [
        ("cold cached", &cached),
        ("warm cached", &cached),
        ("pooled", &pooled),
        ("row", &row),
    ];
    let reference = Executor::new(catalog.clone(), ExecConfig::no_pruning());
    // The skeletons hold the only plans with a join as a join side and a
    // filter above a join.
    for (q, plan) in all_tpch_queries() {
        let want = canonical(reference.run(&plan).unwrap().rows.rows);
        for (name, exec) in engines {
            let got = canonical(exec.run(&plan).unwrap().rows.rows);
            assert_eq!(got, want, "Q{q} on the {name} engine");
        }
    }
    // Top-k through a nested join: the top join's probe is itself a join.
    let nested = PlanBuilder::scan("customer", customer_schema())
        .join(
            PlanBuilder::scan("orders", orders_schema()).join(
                PlanBuilder::scan("lineitem", lineitem_schema()),
                "o_orderkey",
                "l_orderkey",
                JoinType::Inner,
            ),
            "c_custkey",
            "o_custkey",
            JoinType::Inner,
        )
        .order_by("l_shipdate", false)
        .limit(10)
        .build();
    // Top-k on the probe side of an outer join whose build is a join:
    // rows reach the heap from `customer`, never from the `orders` target,
    // so a warm replay has no sound partition set to restrict to.
    let outer = PlanBuilder::scan("nation", nation_schema())
        .join(
            PlanBuilder::scan("customer", customer_schema()),
            "n_nationkey",
            "c_nationkey",
            JoinType::Inner,
        )
        .join(
            PlanBuilder::scan("orders", orders_schema()),
            "c_custkey",
            "o_custkey",
            JoinType::OuterPreserveBuild,
        )
        .order_by("o_orderdate", true)
        .limit(5)
        .build();
    // The ORDER BY values tie, so only the order-key sequence is determined.
    for (plan, key) in [(nested, "l_shipdate"), (outer, "o_orderdate")] {
        let want = reference.run(&plan).unwrap().rows.column(key).unwrap();
        for (name, exec) in engines {
            let got = exec.run(&plan).unwrap().rows.column(key).unwrap();
            assert_eq!(got, want, "top-k by {key} on the {name} engine");
        }
    }
}
