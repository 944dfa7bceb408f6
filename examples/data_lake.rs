//! Pruning for Iceberg-like data-lake tables (§8.1): hierarchical
//! file → row-group → page pruning, missing-metadata conservatism, and
//! metadata backfill.
//!
//! ```text
//! cargo run --release --example data_lake
//! ```

use snowprune::expr::{dsl, prune_eval};
use snowprune::prelude::*;
use snowprune::storage::{IoCostModel, LakeTable};

fn main() {
    let schema = Schema::new(vec![
        Field::new("event_date", ScalarType::Int),
        Field::new("device", ScalarType::Str),
        Field::new("reading", ScalarType::Int),
    ]);
    let rows: Vec<Vec<Value>> = (0..100_000i64)
        .map(|i| {
            vec![
                Value::Int(20_000 + i / 1_000), // ~100 distinct dates, sorted
                Value::Str(format!("sensor-{:04}", i % 500).into()),
                Value::Int((i * 37) % 100_000),
            ]
        })
        .collect();

    // A writer that produced file stats, row-group stats, and page indexes.
    let full = LakeTable::from_rows(
        "iot_lake",
        schema.clone(),
        rows.clone(),
        20_000, // rows per file -> 5 files
        4_000,  // rows per row group
        1_000,  // rows per page
        true,
        true,
        true,
    );
    // A sloppy writer that wrote no statistics at all.
    let mut bare = LakeTable::from_rows(
        "iot_lake_nostats",
        schema.clone(),
        rows,
        20_000,
        4_000,
        1_000,
        false,
        false,
        false,
    );

    // Predicate: one week of data.
    let pred = dsl::col("event_date")
        .between(dsl::lit(20_040i64), dsl::lit(20_046i64))
        .bind(&schema)
        .unwrap();
    let judge = move |zms: &[ZoneMap], rc: u64| prune_eval(&pred, zms).classify(rc);
    let judge_fn = |zms: &[ZoneMap], rc: u64| match judge(zms, rc) {
        MatchClass::NotMatching => Verdict::ALWAYS_FALSE,
        MatchClass::FullyMatching => Verdict::ALWAYS_TRUE,
        MatchClass::PartiallyMatching => Verdict::TOP,
    };

    let st = full.prune_hierarchical(&judge_fn);
    println!("with full metadata:");
    println!(
        "  files {}/{} pruned, row groups {}/{}, pages {}/{}, rows scanned {}",
        st.files_pruned,
        st.files_total,
        st.row_groups_pruned,
        st.row_groups_total,
        st.pages_pruned,
        st.pages_total,
        st.rows_scanned
    );

    let st = bare.prune_hierarchical(&judge_fn);
    println!("without metadata (conservative full scan):");
    println!("  rows scanned {}", st.rows_scanned);

    // §8.1: "Snowflake can reconstruct it by performing a full table scan to
    // compute missing metadata entries, which can then be used for
    // subsequent queries."
    let io = IoStats::new();
    bare.backfill_metadata(&io, &IoCostModel::default());
    let st = bare.prune_hierarchical(&judge_fn);
    println!(
        "after backfill ({} row-group loads, {:.1} ms simulated I/O):",
        io.snapshot().partitions_loaded,
        io.snapshot().simulated_io_ns as f64 / 1e6
    );
    println!(
        "  files {}/{} pruned, row groups {}/{}, rows scanned {}",
        st.files_pruned, st.files_total, st.row_groups_pruned, st.row_groups_total, st.rows_scanned
    );

    // The engine scans lake tables through the same scan path (§8.1:
    // "pruning techniques operating transparently across" formats).
    let catalog = Catalog::new();
    catalog.register(full.to_table());
    let exec = Executor::new(catalog, ExecConfig::default());
    let plan = PlanBuilder::scan("iot_lake", schema)
        .filter(dsl::col("event_date").between(dsl::lit(20_040i64), dsl::lit(20_046i64)))
        .build();
    let out = exec.run(&plan).unwrap();
    println!(
        "engine scan over the flattened lake table: {} rows, {:.1}% of partitions pruned",
        out.rows.len(),
        out.report.pruning.filter_ratio() * 100.0
    );
}
