//! SQL front-end robustness suite.
//!
//! Three legs, all over seeded random inputs:
//!
//! 1. **Valid statements** — a grammar-directed generator emits
//!    statements against the demo catalog; every one must lex, parse,
//!    and bind cleanly.
//! 2. **Printable-byte soup** — arbitrary printable strings must never
//!    panic the front-end, and every rejection must carry at least one
//!    diagnostic whose span lies inside the input.
//! 3. **Token soup** — random sequences of *real* SQL vocabulary get
//!    much deeper into the parser than byte soup; the same
//!    never-panic / spans-in-bounds invariant holds.
//! 4. **Partition-local DML** — generated DELETE/UPDATE statements run
//!    through `run_sql` and must match the row-closure reference.

use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_exec::{dml, ExecConfig, Session};
use snowprune_expr::{eval_predicate, eval_value, Expr};
use snowprune_sql::{
    bind_sql, demo_catalog, parse_statement, SessionSqlExt, SqlOutcome, Statement,
};
use snowprune_storage::{Catalog, Layout, Table, TableBuilder};
use snowprune_types::{Error, Value};

/// Every rejection must be a `PlanRejected` with at least one
/// diagnostic, and every spanned diagnostic must point inside `src`.
fn assert_well_formed_rejection(src: &str, err: &Error) {
    let Error::PlanRejected(diags) = err else {
        panic!("rejection of {src:?} is not PlanRejected: {err}");
    };
    assert!(!diags.is_empty(), "empty diagnostics for {src:?}");
    for d in diags {
        let span = d
            .span
            .unwrap_or_else(|| panic!("span-free front-end diagnostic for {src:?}: {d}"));
        assert!(
            span.start <= span.end && span.end <= src.len(),
            "span {}..{} outside input of length {} for {src:?}",
            span.start,
            span.end,
            src.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Leg 1: grammar-directed valid statements always parse and bind.
// ---------------------------------------------------------------------------

/// A random predicate over the demo `fact` table (columns `a`, `b`
/// integer, `c` string), depth-limited so conjunctions stay small.
fn random_fact_pred(rng: &mut StdRng, depth: u32) -> String {
    let arm = if depth == 0 {
        rng.random_range(0u32..8)
    } else {
        rng.random_range(0u32..10)
    };
    match arm {
        0 => format!("a >= {}", rng.random_range(-100i64..1200)),
        1 => {
            let lo = rng.random_range(0i64..600);
            format!("a BETWEEN {lo} AND {}", lo + rng.random_range(1i64..400))
        }
        2 => format!(
            "c = '{}'",
            ["red", "green", "blue", "teal"][rng.random_range(0usize..4)]
        ),
        3 => "b IS NOT NULL".into(),
        4 => "b IS NULL".into(),
        5 => format!(
            "c LIKE '{}'",
            ["red", "gr%", "%e%"][rng.random_range(0usize..3)]
        ),
        6 => format!(
            "a IN (1, 2, {}, {})",
            rng.random_range(3i64..600),
            rng.random_range(3i64..600)
        ),
        7 => format!("NOT (b < {})", rng.random_range(0i64..60)),
        8 => format!(
            "({} AND {})",
            random_fact_pred(rng, depth - 1),
            random_fact_pred(rng, depth - 1)
        ),
        _ => format!(
            "({} OR {})",
            random_fact_pred(rng, depth - 1),
            random_fact_pred(rng, depth - 1)
        ),
    }
}

/// A random statement that must survive the whole front-end: lexer,
/// parser, binder, and the static plan verifier.
fn random_valid_statement(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..8) {
        0 => format!("SELECT * FROM fact WHERE {}", random_fact_pred(rng, 1)),
        1 => {
            let k = rng.random_range(1u32..40);
            let dir = if rng.random::<bool>() { " DESC" } else { "" };
            format!(
                "SELECT a, c FROM fact WHERE {} ORDER BY a{dir} LIMIT {k}",
                random_fact_pred(rng, 1)
            )
        }
        2 => format!(
            "SELECT c, COUNT(*), SUM(b), MIN(a) FROM fact WHERE {} GROUP BY c",
            random_fact_pred(rng, 0)
        ),
        3 => format!(
            "SELECT * FROM dim JOIN fact ON id = b WHERE weight < {}",
            rng.random_range(1i64..50)
        ),
        4 => format!(
            "SELECT * FROM dim LEFT JOIN fact ON id = b WHERE {}",
            random_fact_pred(rng, 0)
        ),
        5 => format!(
            "INSERT INTO dim VALUES ({}, {})",
            rng.random_range(1000i64..2000),
            rng.random_range(0i64..50)
        ),
        6 => format!(
            "DELETE FROM fact WHERE a > {}",
            rng.random_range(0i64..1200)
        ),
        _ => format!(
            "UPDATE fact SET b = {} WHERE {}",
            rng.random_range(0i64..60),
            random_fact_pred(rng, 0)
        ),
    }
}

#[test]
fn valid_statements_always_parse_and_bind() {
    let catalog = demo_catalog();
    let mut rng = StdRng::seed_from_u64(0x5A11_D5EE);
    for i in 0..512 {
        let sql = random_valid_statement(&mut rng);
        parse_statement(&sql).unwrap_or_else(|e| panic!("case {i}: {sql:?} failed to parse: {e}"));
        bind_sql(&sql, &catalog)
            .unwrap_or_else(|e| panic!("case {i}: {sql:?} failed to bind: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Leg 4: partition-local DML is indistinguishable from the row closures.
// ---------------------------------------------------------------------------

/// A random `DELETE FROM fact` or `UPDATE fact SET b = …, c = …`, with a
/// generated `WHERE` three times in four.
fn random_fact_dml(rng: &mut StdRng) -> String {
    let selection = if rng.random_range(0u32..4) == 0 {
        String::new()
    } else {
        format!(" WHERE {}", random_fact_pred(rng, 1))
    };
    if rng.random::<bool>() {
        return format!("DELETE FROM fact{selection}");
    }
    let b = ["b", "b + 1", "b - 7", "b * 0", "NULL", "42", "a"][rng.random_range(0usize..7)];
    let c = ["c", "'red'", "'x'"][rng.random_range(0usize..3)];
    let sets = match rng.random_range(0u32..4) {
        0 => format!("b = {b}"),
        1 => format!("c = {c}"),
        2 => format!("b = {b}, c = {c}"),
        _ => format!("c = {c}, b = {b}, b = b"),
    };
    format!("UPDATE fact SET {sets}{selection}")
}

/// The demo catalog, with `fact` rebuilt in shuffled row order when
/// `shuffle` is set (wide zone maps: few not-matching partitions).
fn dml_catalog(shuffle: Option<u64>) -> Catalog {
    let catalog = demo_catalog();
    if let Some(seed) = shuffle {
        let fact = catalog.get("fact").unwrap().read().clone();
        let mut b = TableBuilder::new("fact", fact.schema().clone())
            .target_rows_per_partition(50)
            .layout(Layout::Shuffle(seed));
        b.extend_rows(contents(&fact).into_iter().flat_map(|(_, rows)| rows));
        catalog.register(b.build());
    }
    catalog
}

/// `(id, rows)` per partition, in table order.
fn contents(t: &Table) -> Vec<(u64, Vec<Vec<Value>>)> {
    t.partition_ids()
        .into_iter()
        .map(|id| {
            let p = t.partition(id).unwrap();
            (id, (0..p.row_count()).map(|i| p.row(i)).collect())
        })
        .collect()
}

/// Every generated DELETE/UPDATE, on the clustered demo `fact` and on
/// shuffled copies, runs three ways from the same table state: through
/// `run_sql` on the live catalog, through `exec::dml` on a clone (for the
/// whole `DmlResult` and the changed-column set), and through the
/// row-closure API with `eval_predicate` / `eval_value` on another clone
/// — the reference. All three must leave the same `(id, rows)` per
/// partition and report the same result.
#[test]
fn partition_local_dml_matches_the_row_closure_reference() {
    let mut rng = StdRng::seed_from_u64(0xD31E_7E00);
    let mut changed_some = 0u32;
    for episode in 0..48u64 {
        let shuffle = (episode % 2 == 1).then_some(episode);
        let catalog = dml_catalog(shuffle);
        let session = Session::new(catalog.clone(), ExecConfig::default().with_scan_threads(1));
        let live = catalog.get("fact").unwrap();
        for step in 0..6 {
            let sql = random_fact_dml(&mut rng);
            let ctx = format!("episode {episode} step {step}: {sql}");
            let before = live.read().clone();
            let (mut reference, mut direct) = (before.clone(), before.clone());
            let qualifies = |p: &Option<Expr>, row: &[Value]| {
                p.as_ref()
                    .is_none_or(|p| eval_predicate(p, row).qualifies())
            };
            let (want, got) = match bind_sql(&sql, &catalog).unwrap() {
                Statement::Delete { predicate, .. } => (
                    (
                        reference.delete_rows(|row| qualifies(&predicate, row)),
                        None,
                    ),
                    (
                        dml::delete_where(&mut direct, predicate.as_ref()).unwrap(),
                        None,
                    ),
                ),
                Statement::Update {
                    sets, predicate, ..
                } => {
                    let (want, want_cols) = reference.update_rows_tracked(|row| {
                        let mut out = row.to_vec();
                        if qualifies(&predicate, row) {
                            for (c, e) in &sets {
                                out[*c] = eval_value(e, row);
                            }
                        }
                        out
                    });
                    let (got, got_cols) =
                        dml::update_where(&mut direct, &sets, predicate.as_ref()).unwrap();
                    ((want, Some(want_cols)), (got, Some(got_cols)))
                }
                other => panic!("{ctx}: not DML: {other:?}"),
            };
            assert_eq!(got, want, "{ctx}: DmlResult and changed columns");
            let outcome = session.run_sql(&sql).unwrap();
            let SqlOutcome::Dml {
                rows_affected,
                partitions_removed,
                partitions_added,
                ..
            } = outcome
            else {
                panic!("{ctx}: {outcome:?}");
            };
            let want = &want.0;
            assert_eq!(
                (rows_affected, partitions_removed, partitions_added),
                (
                    want.rows_affected,
                    want.partitions_removed.len(),
                    want.partitions_added.len()
                ),
                "{ctx}"
            );
            let expect = contents(&reference);
            assert_eq!(contents(&direct), expect, "{ctx}: exec::dml table");
            assert_eq!(contents(&live.read()), expect, "{ctx}: run_sql table");
            assert_eq!(live.read().version(), want.new_version, "{ctx}");
            changed_some += u32::from(want.rows_affected > 0);
        }
    }
    assert!(
        changed_some >= 96,
        "only {changed_some} statements changed a row"
    );
}

// ---------------------------------------------------------------------------
// Legs 2 and 3: soup must never panic, and rejections must be spanned.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printable_byte_soup_never_panics(src in "[ -~]{0,48}") {
        let catalog = demo_catalog();
        if let Err(e) = parse_statement(&src) {
            assert_well_formed_rejection(&src, &e);
        }
        if let Err(e) = bind_sql(&src, &catalog) {
            assert_well_formed_rejection(&src, &e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics(
        toks in collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("GROUP"),
                Just("ORDER"), Just("BY"), Just("LIMIT"), Just("OFFSET"),
                Just("JOIN"), Just("LEFT"), Just("ON"), Just("AND"),
                Just("OR"), Just("NOT"), Just("IS"), Just("NULL"),
                Just("LIKE"), Just("IN"), Just("BETWEEN"), Just("INSERT"),
                Just("INTO"), Just("VALUES"), Just("DELETE"), Just("UPDATE"),
                Just("SET"), Just("COUNT"), Just("SUM"), Just("AVG"),
                Just("fact"), Just("dim"), Just("a"), Just("b"), Just("c"),
                Just("id"), Just("weight"), Just("nope"), Just("*"),
                Just(","), Just("("), Just(")"), Just(";"), Just("."),
                Just("="), Just("!="), Just("<"), Just(">="), Just("+"),
                Just("-"), Just("/"), Just("0"), Just("7"), Just("42"),
                Just("'red'"), Just("'"), Just("3.5"),
            ],
            0..14,
        ),
    ) {
        let src = toks.join(" ");
        let catalog = demo_catalog();
        if let Err(e) = parse_statement(&src) {
            assert_well_formed_rejection(&src, &e);
        }
        if let Err(e) = bind_sql(&src, &catalog) {
            assert_well_formed_rejection(&src, &e);
        }
    }
}
