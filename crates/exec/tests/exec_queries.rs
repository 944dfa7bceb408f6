//! End-to-end executor tests. The master invariant: every pruning
//! technique produces exactly the same rows as the no-pruning baseline,
//! while loading fewer partitions.

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use snowprune_exec::{ExecConfig, Executor, QueryOutput};
use snowprune_expr::dsl::{col, lit};
use snowprune_plan::{AggFunc, JoinType, Plan, PlanBuilder};
use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
use snowprune_types::{ScalarType, Value};

/// The paper's running example data: trails + tracking_data.
fn wildlife_catalog() -> Catalog {
    let catalog = Catalog::new();
    let trails_schema = Schema::new(vec![
        Field::new("mountain", ScalarType::Str),
        Field::new("name", ScalarType::Str),
        Field::new("unit", ScalarType::Str),
        Field::new("altit", ScalarType::Int),
    ]);
    let mut trails = TableBuilder::new("trails", trails_schema)
        .target_rows_per_partition(50)
        .layout(Layout::ClusterBy(vec!["altit".into()]));
    for i in 0..1000i64 {
        let unit = if i % 3 == 0 { "feet" } else { "meters" };
        let name = if i % 4 == 0 {
            format!("Marked-{i}-Ridge")
        } else {
            format!("Basecamp-{i}")
        };
        trails.push_row(vec![
            Value::Str(format!("M{}", i % 20)),
            Value::Str(name),
            Value::Str(unit.into()),
            Value::Int(500 + i * 7 % 7000),
        ]);
    }
    catalog.register(trails.build());

    let tracking_schema = Schema::new(vec![
        Field::new("area", ScalarType::Str),
        Field::new("species", ScalarType::Str),
        Field::new("s", ScalarType::Int),
        Field::new("num_sightings", ScalarType::Int),
    ]);
    let mut tracking = TableBuilder::new("tracking_data", tracking_schema)
        .target_rows_per_partition(100)
        .layout(Layout::ClusterBy(vec!["num_sightings".into()]));
    let species = [
        "Alpine Ibex",
        "Alpine Goat",
        "Brown Bear",
        "Red Fox",
        "Snow Vole",
    ];
    for i in 0..5000i64 {
        tracking.push_row(vec![
            Value::Str(format!("M{}", i % 20)),
            Value::Str(species[(i % 5) as usize].into()),
            Value::Int(4 + (i * 13) % 130),
            Value::Int((i * 31) % 10000),
        ]);
    }
    catalog.register(tracking.build());
    catalog
}

fn run_both(plan: &Plan) -> (QueryOutput, QueryOutput) {
    let catalog = wildlife_catalog();
    let pruned = Executor::new(catalog.clone(), ExecConfig::default())
        .run(plan)
        .unwrap();
    let baseline = Executor::new(catalog, ExecConfig::no_pruning())
        .run(plan)
        .unwrap();
    (pruned, baseline)
}

fn sorted_rows(out: &QueryOutput) -> Vec<Vec<Value>> {
    let mut rows = out.rows.rows.clone();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.total_ord_cmp(y) {
                std::cmp::Ordering::Equal => continue,
                o => return o,
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

#[test]
fn filter_query_same_rows_less_io() {
    let catalog = wildlife_catalog();
    let schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", schema)
        .filter(col("num_sightings").lt(lit(500i64)))
        .build();
    let (pruned, baseline) = run_both(&plan);
    assert_eq!(sorted_rows(&pruned), sorted_rows(&baseline));
    assert!(!pruned.rows.is_empty());
    assert!(
        pruned.io.partitions_loaded < baseline.io.partitions_loaded,
        "pruning must reduce I/O: {} vs {}",
        pruned.io.partitions_loaded,
        baseline.io.partitions_loaded
    );
    assert!(pruned.report.pruning.pruned_by_filter > 0);
    assert!(pruned.report.pruning.filter_eligible);
}

#[test]
fn complex_expression_filter_matches_baseline() {
    let catalog = wildlife_catalog();
    let schema = catalog.get("trails").unwrap().read().schema().clone();
    // The §3.1 query: unit conversion + LIKE.
    let pred = snowprune_expr::dsl::if_(
        col("unit").eq(lit("feet")),
        col("altit").mul(lit(0.3048)),
        col("altit"),
    )
    .gt(lit(1500i64))
    .and(col("name").like("Marked-%-Ridge"));
    let plan = PlanBuilder::scan("trails", schema).filter(pred).build();
    let (pruned, baseline) = run_both(&plan);
    assert_eq!(sorted_rows(&pruned), sorted_rows(&baseline));
}

#[test]
fn limit_without_predicate_prunes_to_one_partition() {
    let catalog = wildlife_catalog();
    let schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", schema).limit(10).build();
    let exec = Executor::new(catalog, ExecConfig::default());
    let out = exec.run(&plan).unwrap();
    assert_eq!(out.rows.len(), 10);
    assert_eq!(out.io.partitions_loaded, 1, "LIMIT 10 needs one partition");
    assert!(matches!(
        out.report.limit_outcome,
        Some(snowprune_core::LimitOutcome::PrunedToOne)
    ));
    assert!(out.report.pruning.pruned_by_limit > 0);
}

#[test]
fn limit_with_predicate_uses_fully_matching_partitions() {
    let catalog = wildlife_catalog();
    let schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    // num_sightings < 2000 matches whole clustered partitions.
    let plan = PlanBuilder::scan("tracking_data", schema)
        .filter(col("num_sightings").lt(lit(2000i64)))
        .limit(5)
        .build();
    let exec = Executor::new(catalog, ExecConfig::default());
    let out = exec.run(&plan).unwrap();
    assert_eq!(out.rows.len(), 5);
    for row in &out.rows.rows {
        let v = row[3].as_i64().unwrap();
        assert!(v < 2000, "row violates predicate: {v}");
    }
    assert_eq!(out.io.partitions_loaded, 1);
}

#[test]
fn limit_offset_is_honoured() {
    let catalog = wildlife_catalog();
    let schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", schema)
        .limit_offset(10, 5)
        .build();
    let exec = Executor::new(catalog, ExecConfig::default());
    let out = exec.run(&plan).unwrap();
    assert_eq!(out.rows.len(), 10);
}

#[test]
fn topk_above_scan_matches_baseline() {
    let catalog = wildlife_catalog();
    let schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", schema)
        .filter(col("species").like("Alpine%").and(col("s").ge(lit(50i64))))
        .order_by("num_sightings", true)
        .limit(3)
        .build();
    let (pruned, baseline) = run_both(&plan);
    // Ties make row identity ambiguous; the ORDER BY key multiset must match.
    let keys =
        |o: &QueryOutput| -> Vec<Value> { o.rows.rows.iter().map(|r| r[3].clone()).collect() };
    assert_eq!(keys(&pruned), keys(&baseline));
    assert_eq!(pruned.rows.len(), 3);
    assert!(
        pruned.report.pruning.pruned_by_topk > 0,
        "top-k should skip partitions: {:?}",
        pruned.report.topk_stats
    );
    assert!(pruned.io.partitions_loaded < baseline.io.partitions_loaded);
}

#[test]
fn topk_ascending_matches_baseline() {
    let catalog = wildlife_catalog();
    let schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", schema)
        .order_by("num_sightings", false)
        .limit(7)
        .build();
    let (pruned, baseline) = run_both(&plan);
    let keys =
        |o: &QueryOutput| -> Vec<Value> { o.rows.rows.iter().map(|r| r[3].clone()).collect() };
    assert_eq!(keys(&pruned), keys(&baseline));
}

#[test]
fn topk_join_probe_side_matches_baseline() {
    let catalog = wildlife_catalog();
    let trails = catalog.get("trails").unwrap().read().schema().clone();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("trails", trails)
        .filter(col("altit").gt(lit(6000i64)))
        .join(
            PlanBuilder::scan("tracking_data", tracking),
            "mountain",
            "area",
            JoinType::Inner,
        )
        .order_by("num_sightings", true)
        .limit(5)
        .build();
    let (pruned, baseline) = run_both(&plan);
    let keys = |o: &QueryOutput| -> Vec<Value> {
        o.rows.rows.iter().map(|r| r[r.len() - 1].clone()).collect()
    };
    assert_eq!(keys(&pruned), keys(&baseline));
    assert_eq!(
        pruned.report.topk_shape,
        Some(snowprune_plan::TopKShape::JoinProbeSide)
    );
}

#[test]
fn topk_outer_join_build_side_matches_baseline() {
    let catalog = wildlife_catalog();
    let trails = catalog.get("trails").unwrap().read().schema().clone();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("trails", trails)
        .join(
            PlanBuilder::scan("tracking_data", tracking),
            "mountain",
            "area",
            JoinType::OuterPreserveBuild,
        )
        .order_by("altit", true)
        .limit(4)
        .build();
    let (pruned, baseline) = run_both(&plan);
    let keys =
        |o: &QueryOutput| -> Vec<Value> { o.rows.rows.iter().map(|r| r[3].clone()).collect() };
    assert_eq!(keys(&pruned), keys(&baseline));
    assert_eq!(
        pruned.report.topk_shape,
        Some(snowprune_plan::TopKShape::OuterJoinBuildSide)
    );
}

#[test]
fn topk_aggregation_matches_baseline() {
    let catalog = wildlife_catalog();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    // GROUP BY num_sightings ORDER BY num_sightings DESC LIMIT 5 (7d shape).
    let grouped = || {
        PlanBuilder::scan("tracking_data", tracking.clone())
            .aggregate(vec!["num_sightings"], vec![AggFunc::CountStar])
    };
    let plan = grouped().order_by("num_sightings", true).limit(5).build();
    let (pruned, baseline) = run_both(&plan);
    assert_eq!(pruned.rows.rows, baseline.rows.rows);
    assert_eq!(
        pruned.report.topk_shape,
        Some(snowprune_plan::TopKShape::AboveAggregation)
    );
    assert!(pruned.report.pruning.pruned_by_topk > 0);
    // `detect_topk` classifies a Project between Sort and Aggregate (SQL:
    // `SELECT COUNT(*), g … GROUP BY g ORDER BY g`) as the same shape, but
    // the distinct-key path needs the Aggregate directly below the Sort.
    // The query used to come back unsorted and unlimited.
    let plan = grouped()
        .project(vec!["num_sightings"])
        .order_by("num_sightings", true)
        .limit(5)
        .build();
    let (pruned, baseline) = run_both(&plan);
    assert_eq!(baseline.rows.rows.len(), 5);
    assert_eq!(pruned.rows.rows, baseline.rows.rows);
}

#[test]
fn join_pruning_same_result_less_io() {
    let catalog = wildlife_catalog();
    let trails = catalog.get("trails").unwrap().read().schema().clone();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    // Selective build side: few trails qualify -> probe pruning on area.
    let plan = PlanBuilder::scan("tracking_data", tracking)
        .filter(col("num_sightings").lt(lit(300i64)))
        .join(
            PlanBuilder::scan("trails", trails).filter(col("altit").gt(lit(1i64))),
            "num_sightings",
            "altit",
            JoinType::Inner,
        )
        .build();
    let (pruned, baseline) = run_both(&plan);
    assert_eq!(sorted_rows(&pruned), sorted_rows(&baseline));
    assert!(
        pruned.report.pruning.pruned_by_join > 0,
        "{:?}",
        pruned.report.pruning
    );
    assert!(pruned.io.partitions_loaded < baseline.io.partitions_loaded);
}

#[test]
fn empty_build_side_prunes_probe_entirely() {
    let catalog = wildlife_catalog();
    let trails = catalog.get("trails").unwrap().read().schema().clone();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("trails", trails)
        .filter(col("altit").gt(lit(1_000_000i64))) // nothing qualifies
        .join(
            PlanBuilder::scan("tracking_data", tracking),
            "mountain",
            "area",
            JoinType::Inner,
        )
        .build();
    let exec = Executor::new(catalog, ExecConfig::default());
    let out = exec.run(&plan).unwrap();
    assert!(out.rows.is_empty());
    // Probe side never loaded: 100% probe-side pruning (Figure 10's 13%).
    assert_eq!(out.report.pruning.pruned_by_join, 50);
}

#[test]
fn aggregation_and_sort_without_limit() {
    let catalog = wildlife_catalog();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", tracking)
        .aggregate(
            vec!["species"],
            vec![
                AggFunc::CountStar,
                AggFunc::Sum("num_sightings".into()),
                AggFunc::Avg("s".into()),
            ],
        )
        .order_by("species", false)
        .build();
    let (pruned, baseline) = run_both(&plan);
    assert_eq!(pruned.rows.rows, baseline.rows.rows);
    assert_eq!(pruned.rows.len(), 5);
}

#[test]
fn parallel_workers_match_sequential() {
    let catalog = wildlife_catalog();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", tracking)
        .filter(col("s").ge(lit(60i64)))
        .build();
    let seq = Executor::new(catalog.clone(), ExecConfig::default())
        .run(&plan)
        .unwrap();
    let mut cfg = ExecConfig::default();
    cfg.scan_threads = 4;
    let par = Executor::new(catalog, cfg).run(&plan).unwrap();
    assert_eq!(sorted_rows(&par), sorted_rows(&seq));
}

#[test]
fn parallel_limit_reads_at_least_workers_partitions() {
    // §4.4: "if no pruning is applied, the work might be distributed
    // across n machines ... the query engine reads at least n partitions,
    // even though 1 might have been enough."
    let catalog = wildlife_catalog();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let plan = PlanBuilder::scan("tracking_data", tracking)
        .limit(10)
        .build();
    let mut cfg = ExecConfig::no_pruning();
    cfg.scan_threads = 4;
    let out = Executor::new(catalog.clone(), cfg).run(&plan).unwrap();
    // Pre-assignment makes the floor deterministic: the first
    // min(workers, partitions) partitions are read unconditionally.
    assert!(
        out.io.partitions_loaded >= 4,
        "parallel workers over-read: {}",
        out.io.partitions_loaded
    );
    // With LIMIT pruning, one partition suffices regardless of workers.
    let mut cfg2 = ExecConfig::default();
    cfg2.scan_threads = 4;
    let out2 = Executor::new(catalog, cfg2).run(&plan).unwrap();
    assert_eq!(out2.io.partitions_loaded, 1);
    assert_eq!(out2.rows.len(), 10);
}

#[test]
fn report_composes_filter_and_join_and_topk() {
    let catalog = wildlife_catalog();
    let trails = catalog.get("trails").unwrap().read().schema().clone();
    let tracking = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    // The paper's final example query (§6.1): filter + join + top-k.
    let pred = snowprune_expr::dsl::if_(
        col("unit").eq(lit("feet")),
        col("altit").mul(lit(0.3048)),
        col("altit"),
    )
    .gt(lit(1500i64))
    .and(col("name").like("Marked-%-Ridge"));
    let plan = PlanBuilder::scan("trails", trails)
        .filter(pred)
        .join(
            PlanBuilder::scan("tracking_data", tracking)
                .filter(col("species").like("Alpine%").and(col("s").ge(lit(50i64)))),
            "mountain",
            "area",
            JoinType::Inner,
        )
        .order_by("num_sightings", true)
        .limit(3)
        .build();
    let (pruned, baseline) = run_both(&plan);
    let keys = |o: &QueryOutput| -> Vec<Value> {
        o.rows.rows.iter().map(|r| r[r.len() - 1].clone()).collect()
    };
    assert_eq!(keys(&pruned), keys(&baseline));
    let combo = pruned.report.pruning.techniques_used();
    assert!(
        combo.contains(snowprune_core::TechniqueSet::JOIN)
            || pruned.report.pruning.pruned_by_join == 0
    );
    assert!(pruned.io.partitions_loaded <= baseline.io.partitions_loaded);
}
