//! The `snowprune` REPL core: a line-oriented SQL loop over a
//! [`Session`].
//!
//! The loop itself is I/O-agnostic (`BufRead` in, `Write` out) so tests
//! and the CI smoke script drive it with in-memory buffers exactly the
//! way the binary drives it with stdin/stdout. Output is deterministic:
//! result rows, then a `--` stats line with the cache outcome and
//! partition pruning counters — never wall-clock times.

use std::io::{BufRead, Write};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_exec::Session;
use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
use snowprune_types::{ScalarType, Value};

use crate::render::render_error;
use crate::run::{SessionSqlExt, SqlOutcome};

/// REPL behaviour switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplOptions {
    /// Print a `sql> ` prompt before each line (interactive use; off for
    /// piped scripts so output stays machine-checkable).
    pub prompt: bool,
}

/// A small deterministic demo lake: a clustered `fact` table (unique
/// ordered `a`, nullable `b`, categorical `c`) and a `dim` table joining
/// `dim.id = fact.b` — enough to demonstrate every pruning technique
/// from the REPL.
pub fn demo_catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(0x5EED_DEC0);
    let fact_schema = Schema::new(vec![
        Field::new("a", ScalarType::Int),
        Field::new("b", ScalarType::Int),
        Field::new("c", ScalarType::Str),
    ]);
    let cats = ["red", "green", "blue", "teal"];
    let mut fact = TableBuilder::new("fact", fact_schema)
        .target_rows_per_partition(50)
        .layout(Layout::ClusterBy(vec!["a".into()]));
    for i in 0..1200i64 {
        let b = if rng.random::<f64>() < 0.05 {
            Value::Null
        } else {
            Value::Int(rng.random_range(0i64..60))
        };
        fact.push_row(vec![
            Value::Int(i),
            b,
            Value::Str(cats[rng.random_range(0usize..cats.len())].into()),
        ]);
    }
    let dim_schema = Schema::new(vec![
        Field::new("id", ScalarType::Int),
        Field::new("weight", ScalarType::Int),
    ]);
    let mut dim = TableBuilder::new("dim", dim_schema).target_rows_per_partition(16);
    for id in 0..60i64 {
        dim.push_row(vec![Value::Int(id), Value::Int(rng.random_range(0i64..50))]);
    }
    let catalog = Catalog::new();
    catalog.register(fact.build());
    catalog.register(dim.build());
    catalog
}

/// Run the REPL: one statement (or `.` command) per line until EOF or
/// `.quit`. Blank lines and `--` comment lines are skipped; errors are
/// rendered with `line:col` carets and do not end the loop.
pub fn run_repl(
    session: &Session,
    input: impl BufRead,
    out: &mut impl Write,
    opts: &ReplOptions,
) -> std::io::Result<()> {
    let mut lines = input.lines();
    loop {
        if opts.prompt {
            write!(out, "sql> ")?;
            out.flush()?;
        }
        let Some(line) = lines.next() else {
            return Ok(());
        };
        let line = line?;
        let stmt = line.trim();
        if stmt.is_empty() || stmt.starts_with("--") {
            continue;
        }
        if let Some(cmd) = stmt.strip_prefix('.') {
            if !dot_command(session, cmd.trim(), out)? {
                return Ok(());
            }
            continue;
        }
        match session.run_sql(stmt) {
            Ok(outcome) => print_outcome(&outcome, out)?,
            Err(e) => writeln!(out, "{}", render_error(stmt, &e))?,
        }
    }
}

/// Handle a `.command`; returns `false` when the loop should end.
fn dot_command(session: &Session, cmd: &str, out: &mut impl Write) -> std::io::Result<bool> {
    match cmd.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["quit"] | ["exit"] => return Ok(false),
        ["tables"] => {
            for name in session.catalog().table_names() {
                writeln!(out, "{name}")?;
            }
        }
        ["schema", table] => match session.catalog().get(table) {
            Ok(handle) => {
                for f in handle.read().schema().fields() {
                    writeln!(
                        out,
                        "{} {:?}{}",
                        f.name,
                        f.ty,
                        if f.nullable { "" } else { " NOT NULL" }
                    )?;
                }
            }
            Err(_) => writeln!(out, "error: no table `{table}`")?,
        },
        _ => writeln!(
            out,
            "error: unknown command `.{cmd}` (try .tables, .schema <t>, .quit)"
        )?,
    }
    Ok(true)
}

fn print_outcome(outcome: &SqlOutcome, out: &mut impl Write) -> std::io::Result<()> {
    match outcome {
        SqlOutcome::Dml {
            verb,
            table,
            rows_affected,
            partitions_removed,
            partitions_added,
        } => writeln!(
            out,
            "-- {verb} {rows_affected} row(s) in {table}; partitions -{partitions_removed} +{partitions_added}"
        ),
        SqlOutcome::Rows(o) => {
            let names: Vec<&str> = o
                .rows
                .schema
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            writeln!(out, "{}", names.join(" | "))?;
            for row in &o.rows.rows {
                let vals: Vec<String> = row.iter().map(Value::to_string).collect();
                writeln!(out, "{}", vals.join(" | "))?;
            }
            let p = &o.report.pruning;
            writeln!(
                out,
                "-- {} row(s); cache={:?}; partitions {}/{}; pruned filter={} limit={} join={} topk={} cutoff={}",
                o.rows.rows.len(),
                o.report.cache,
                p.partitions_scanned,
                p.partitions_total,
                p.pruned_by_filter,
                p.pruned_by_limit,
                p.pruned_by_join,
                p.pruned_by_topk,
                p.leaves_cut_off,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_exec::{ExecConfig, PredicateCacheMode};
    use std::io::Cursor;

    fn session(cache: bool) -> Session {
        let mut cfg = ExecConfig::default().with_scan_threads(2);
        if cache {
            cfg = cfg
                .with_predicate_cache(true)
                .with_predicate_cache_mode(PredicateCacheMode::Shape);
        }
        Session::new(demo_catalog(), cfg)
    }

    fn drive(session: &Session, script: &str) -> String {
        let mut out = Vec::new();
        run_repl(
            session,
            Cursor::new(script.as_bytes()),
            &mut out,
            &ReplOptions::default(),
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn select_prints_rows_and_a_stats_line() {
        let s = session(false);
        let out = drive(
            &s,
            "SELECT a, c FROM fact WHERE a < 3 ORDER BY a LIMIT 2;\n",
        );
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("a | c"));
        assert!(lines.next().unwrap().starts_with("0 | "));
        assert!(lines.next().unwrap().starts_with("1 | "));
        let stats = lines.next().unwrap();
        assert!(
            stats.starts_with("-- 2 row(s); cache=NotConsulted; partitions "),
            "{stats}"
        );
    }

    #[test]
    fn shape_cache_replay_reports_a_shape_hit() {
        let s = session(true);
        let out = drive(
            &s,
            "SELECT * FROM fact WHERE a >= 1100\nSELECT * FROM fact WHERE a >= 1150\n",
        );
        let stats: Vec<&str> = out.lines().filter(|l| l.starts_with("-- ")).collect();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].contains("cache=Miss"), "{}", stats[0]);
        assert!(stats[1].contains("cache=ShapeHit"), "{}", stats[1]);
    }

    #[test]
    fn errors_render_carets_and_do_not_end_the_loop() {
        let s = session(false);
        let out = drive(&s, "SELECT * FROM nope\n.tables\n");
        assert!(
            out.contains("error[unknown-table] at 1:15: no table `nope`"),
            "{out}"
        );
        assert!(out.contains("^^^^"), "{out}");
        // The loop kept going: .tables still ran.
        assert!(out.contains("dim\nfact\n"), "{out}");
    }

    #[test]
    fn dml_round_trip_updates_row_counts() {
        let s = session(false);
        let out = drive(
            &s,
            "INSERT INTO dim VALUES (777, 1), (778, 2)\n\
             SELECT * FROM dim WHERE id >= 777\n\
             DELETE FROM dim WHERE id >= 777\n\
             SELECT * FROM dim WHERE id >= 777\n",
        );
        assert!(
            out.contains("-- INSERT 2 row(s) in dim; partitions -0 +1\n"),
            "{out}"
        );
        assert!(out.contains("777 | 1"), "{out}");
        // The inserted partition holds only the two rows: fully matching,
        // dropped without a rebuild.
        assert!(
            out.contains("-- DELETE 2 row(s) in dim; partitions -1 +0\n"),
            "{out}"
        );
        assert!(out.contains("-- 0 row(s);"), "{out}");
    }

    #[test]
    fn narrow_writes_report_the_partitions_they_rewrite() {
        let s = session(false);
        // `fact` is clustered on `a`, 50 rows a partition: rows 100..=104
        // live in one partition, which is rewritten; the other 23 are kept.
        let out = drive(
            &s,
            "DELETE FROM fact WHERE a BETWEEN 100 AND 104\n\
             UPDATE fact SET c = 'x' WHERE a BETWEEN 400 AND 449\n\
             UPDATE fact SET c = c WHERE a < 300\n\
             DELETE FROM fact WHERE a > 5000\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "-- DELETE 5 row(s) in fact; partitions -1 +1",
                "-- UPDATE 50 row(s) in fact; partitions -1 +1",
                "-- UPDATE 0 row(s) in fact; partitions -0 +0",
                "-- DELETE 0 row(s) in fact; partitions -0 +0",
            ]
        );
    }

    #[test]
    fn dot_schema_and_quit() {
        let s = session(false);
        let out = drive(&s, ".schema fact\n.quit\nSELECT * FROM fact\n");
        assert!(out.contains("a Int"), "{out}");
        // .quit ended the loop before the SELECT ran.
        assert!(!out.contains("row(s)"), "{out}");
    }
}
