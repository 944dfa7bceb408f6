//! The paper's running example (§3–§6): the IUCN searching for an animal
//! observation post.
//!
//! Walks through all four pruning techniques on the `trails` /
//! `tracking_data` tables:
//! 1. filter pruning with a complex expression (`IF(unit='feet', ...)`)
//!    and an imprecise LIKE rewrite;
//! 2. LIMIT pruning via fully-matching partitions (Figure 5);
//! 3. top-k pruning with a boundary value;
//! 4. join pruning of the tracking-data probe side.
//!
//! ```text
//! cargo run --release --example wildlife_observatory
//! ```

use snowprune::prelude::*;

fn build_catalog() -> Catalog {
    let catalog = Catalog::new();

    let trails_schema = Schema::new(vec![
        Field::new("mountain", ScalarType::Str),
        Field::new("name", ScalarType::Str),
        Field::new("unit", ScalarType::Str),
        Field::new("altit", ScalarType::Int),
    ]);
    let mut trails = TableBuilder::new("trails", trails_schema)
        .target_rows_per_partition(200)
        .layout(Layout::ClusterBy(vec!["altit".into()]));
    for i in 0..4_000i64 {
        let unit = if i % 3 == 0 { "feet" } else { "meters" };
        let name = if i % 5 == 0 {
            format!("Marked-{}-Ridge", i % 400)
        } else {
            format!("Basecamp-{}", i % 700)
        };
        trails.push_row(vec![
            Value::Str(format!("M{:02}", i % 40).into()),
            Value::Str(name.into()),
            Value::Str(unit.into()),
            Value::Int(400 + (i * 13) % 7_300),
        ]);
    }
    catalog.register(trails.build());

    let tracking_schema = Schema::new(vec![
        Field::new("area", ScalarType::Str),
        Field::new("species", ScalarType::Str),
        Field::new("s", ScalarType::Int),
        Field::new("num_sightings", ScalarType::Int),
    ]);
    let species = [
        "Alpine Ibex",
        "Alpine Goat",
        "Alpine Sheep",
        "Brown Bear",
        "Gray Wolf",
        "Red Fox",
        "Snow Vole",
        "Alpine Bat",
    ];
    let mut tracking = TableBuilder::new("tracking_data", tracking_schema)
        .target_rows_per_partition(500)
        .layout(Layout::ClusterBy(vec!["num_sightings".into()]));
    for i in 0..40_000i64 {
        tracking.push_row(vec![
            Value::Str(format!("M{:02}", i % 40).into()),
            Value::Str(species[(i % 8) as usize].into()),
            Value::Int(4 + (i * 7) % 130),
            Value::Int((i * 131) % 100_000),
        ]);
    }
    catalog.register(tracking.build());
    catalog
}

fn main() {
    let catalog = build_catalog();
    let trails_schema = catalog.get("trails").unwrap().read().schema().clone();
    let tracking_schema = catalog
        .get("tracking_data")
        .unwrap()
        .read()
        .schema()
        .clone();
    let exec = Executor::new(catalog.clone(), ExecConfig::default());

    // --- §3: filter pruning with a complex expression --------------------
    let altitude_pred = if_(
        col("unit").eq(lit("feet")),
        col("altit").mul(lit(0.3048)),
        col("altit"),
    )
    .gt(lit(1500i64))
    .and(col("name").like("Marked-%-Ridge"));
    println!("§3 query:\n  SELECT * FROM trails");
    println!("  WHERE IF(unit='feet', altit * 0.3048, altit) > 1500");
    println!("    AND name LIKE 'Marked-%-Ridge';");
    if let Some(widened) = snowprune::expr::widen_for_pruning(&col("name").like("Marked-%-Ridge")) {
        println!("  imprecise rewrite for pruning: {widened}");
    }
    let q1 = PlanBuilder::scan("trails", trails_schema.clone())
        .filter(altitude_pred.clone())
        .build();
    let out = exec.run(&q1).unwrap();
    println!(
        "  -> {} rows; filter pruning removed {:.1}% of partitions\n",
        out.rows.len(),
        out.report.pruning.filter_ratio() * 100.0
    );

    // --- §4: LIMIT pruning ------------------------------------------------
    println!("§4 query:\n  SELECT * FROM tracking_data");
    println!("  WHERE species LIKE 'Alpine%' AND s >= 50 LIMIT 3;");
    let q2 = PlanBuilder::scan("tracking_data", tracking_schema.clone())
        .filter(col("species").like("Alpine%").and(col("s").ge(lit(50i64))))
        .limit(3)
        .build();
    let out = exec.run(&q2).unwrap();
    println!(
        "  -> {} rows; outcome {:?}; {} partitions loaded (fully-matching partitions found: {})\n",
        out.rows.len(),
        out.report.limit_outcome,
        out.io.partitions_loaded,
        out.report.pruning.fully_matching,
    );

    // --- §5: top-k pruning -------------------------------------------------
    println!("§5 query:\n  SELECT * FROM tracking_data");
    println!("  WHERE species LIKE 'Alpine%' AND s >= 50");
    println!("  ORDER BY num_sightings DESC LIMIT 3;");
    let q3 = PlanBuilder::scan("tracking_data", tracking_schema.clone())
        .filter(col("species").like("Alpine%").and(col("s").ge(lit(50i64))))
        .order_by("num_sightings", true)
        .limit(3)
        .build();
    let out = exec.run(&q3).unwrap();
    println!(
        "  -> top values: {:?}; boundary pruning skipped {} of {} partitions\n",
        out.rows
            .rows
            .iter()
            .map(|r| r[3].clone())
            .collect::<Vec<_>>(),
        out.report.topk_stats.partitions_skipped,
        out.report.topk_stats.partitions_considered,
    );

    // --- §6: the full query — three techniques on one table ---------------
    println!("§6 query:\n  SELECT * FROM trails t JOIN tracking_data d ON t.mountain = d.area");
    println!("  WHERE IF(unit='feet', altit*0.3048, altit) > 1500 AND name LIKE 'Marked-%-Ridge'");
    println!("    AND species LIKE 'Alpine%' AND s >= 50");
    println!("  ORDER BY d.num_sightings DESC LIMIT 3;");
    let q4 = PlanBuilder::scan("trails", trails_schema)
        .filter(altitude_pred)
        .join(
            PlanBuilder::scan("tracking_data", tracking_schema)
                .filter(col("species").like("Alpine%").and(col("s").ge(lit(50i64)))),
            "mountain",
            "area",
            JoinType::Inner,
        )
        .order_by("num_sightings", true)
        .limit(3)
        .build();
    let out = exec.run(&q4).unwrap();
    let p = &out.report.pruning;
    println!(
        "  -> {} rows; filter pruned {}, join pruned {}, top-k pruned {} of {} total partitions",
        out.rows.len(),
        p.pruned_by_filter,
        p.pruned_by_join,
        p.pruned_by_topk,
        p.partitions_total,
    );
    println!(
        "  techniques used together: {}",
        p.techniques_used().label()
    );
}
