//! Cybersecurity scenario from the paper's intro: a threat-detection tool
//! investigating connections from specific IP prefixes, recent log-in
//! attempts (top-k), and dashboard LIMIT queries — all over an
//! append-mostly log table whose natural time order makes zone maps sharp.
//!
//! ```text
//! cargo run --release --example security_logs
//! ```

use snowprune::prelude::*;

fn main() {
    let schema = Schema::new(vec![
        Field::new("ts", ScalarType::Timestamp),
        Field::new("src_ip", ScalarType::Str),
        Field::new("action", ScalarType::Str),
        Field::new("severity", ScalarType::Int),
        Field::new("bytes_out", ScalarType::Int),
    ]);
    let actions = ["login", "logout", "read", "write", "denied"];
    let mut b = TableBuilder::new("audit_log", schema.clone())
        .target_rows_per_partition(2_000)
        .layout(Layout::Natural); // logs arrive roughly in time order
    for i in 0..200_000i64 {
        b.push_row(vec![
            Value::Timestamp(1_700_000_000_000_000 + i * 1_000_000),
            Value::Str(
                format!("10.{}.{}.{}", (i * 7) % 256, (i * 13) % 256, (i * 29) % 256).into(),
            ),
            Value::Str(actions[(i % 5) as usize].into()),
            Value::Int((i * 11) % 10),
            Value::Int((i * 97) % 1_000_000),
        ]);
    }
    let catalog = Catalog::new();
    catalog.register(b.build());
    let exec = Executor::new(catalog.clone(), ExecConfig::default());

    // 1. "A cybersecurity expert might investigate a few connections from a
    //    specific IP address" — LIMIT pruning with a predicate.
    let q1 = PlanBuilder::scan("audit_log", schema.clone())
        .filter(col("src_ip").like("10.77.%"))
        .limit(5)
        .build();
    let out = exec.run(&q1).unwrap();
    println!(
        "IP investigation: {} rows, {} of {} partitions loaded (outcome {:?})",
        out.rows.len(),
        out.io.partitions_loaded,
        out.report.pruning.partitions_total,
        out.report.limit_outcome
    );

    // 2. "A threat-detection tool might identify recent log-in attempts" —
    //    a top-k query on the timestamp, where the natural log order makes
    //    boundary pruning skip almost the whole table.
    let q2 = PlanBuilder::scan("audit_log", schema.clone())
        .filter(col("action").eq(lit("login")))
        .order_by("ts", true)
        .limit(20)
        .build();
    let out = exec.run(&q2).unwrap();
    println!(
        "Recent logins: {} rows, top-k skipped {} of {} partitions",
        out.rows.len(),
        out.report.topk_stats.partitions_skipped,
        out.report.topk_stats.partitions_considered,
    );

    // 3. "A dashboard tool might automatically append a default LIMIT" —
    //    LIMIT without predicate prunes to a single partition.
    let q3 = PlanBuilder::scan("audit_log", schema.clone())
        .limit(100)
        .build();
    let out = exec.run(&q3).unwrap();
    println!(
        "Dashboard preview: {} rows from {} partition(s)",
        out.rows.len(),
        out.io.partitions_loaded
    );

    // 4. Severity sweep with a complex predicate: time window AND
    //    (denied actions OR exfiltration-sized transfers).
    let window_start = 1_700_000_000_000_000 + 150_000 * 1_000_000;
    let q4 = PlanBuilder::scan("audit_log", schema)
        .filter(
            col("ts").ge(lit(Value::Timestamp(window_start))).and(
                col("action")
                    .eq(lit("denied"))
                    .or(col("bytes_out").gt(lit(900_000i64))),
            ),
        )
        .build();
    let out = exec.run(&q4).unwrap();
    println!(
        "Threat sweep: {} rows, filter pruning removed {:.1}% of partitions",
        out.rows.len(),
        out.report.pruning.filter_ratio() * 100.0
    );
}
