//! Golden error snapshots: the full rendered diagnostic — header,
//! offending source line, and caret underline — is pinned for one
//! representative of each front-end failure class. A change to any of
//! these blocks is a user-visible REPL change and must be deliberate.

use snowprune_sql::{bind_sql, demo_catalog, render_error};

fn rendered(src: &str) -> String {
    let catalog = demo_catalog();
    let err = bind_sql(src, &catalog)
        .err()
        .unwrap_or_else(|| panic!("golden input unexpectedly accepted: {src:?}"));
    render_error(src, &err)
}

#[track_caller]
fn check(src: &str, expect: &str) {
    assert_eq!(rendered(src), expect, "golden drifted for {src:?}");
}

#[test]
fn unknown_leading_keyword() {
    check(
        "SELEC * FROM fact",
        "error[sql-syntax] at 1:1: expected `SELECT`, `INSERT`, `DELETE`, or `UPDATE`, found `SELEC`\n  \
         SELEC * FROM fact\n  \
         ^^^^^",
    );
}

#[test]
fn misspelled_from() {
    check(
        "SELECT * FORM fact",
        "error[sql-syntax] at 1:10: expected `FROM`, found `FORM`\n  \
         SELECT * FORM fact\n           \
         ^^^^",
    );
}

#[test]
fn missing_table_name_points_past_the_input() {
    check(
        "SELECT * FROM",
        "error[sql-syntax] at 1:14: expected a table name, found end of input\n  \
         SELECT * FROM\n               \
         ^",
    );
}

#[test]
fn unknown_table() {
    check(
        "SELECT * FROM nope",
        "error[unknown-table] at 1:15: no table `nope` in the catalog\n  \
         SELECT * FROM nope\n                \
         ^^^^",
    );
}

#[test]
fn unknown_column_in_where() {
    check(
        "SELECT * FROM fact WHERE q > 1",
        "error[unknown-column] at 1:26: no column `q` in scope\n  \
         SELECT * FROM fact WHERE q > 1\n                           \
         ^",
    );
}

#[test]
fn self_join_is_rejected() {
    check(
        "SELECT * FROM fact JOIN fact ON a = b",
        "error[sql-unsupported] at 1:25: self-join of `fact` is not supported\n  \
         SELECT * FROM fact JOIN fact ON a = b\n                          \
         ^^^^",
    );
}

#[test]
fn group_by_without_aggregates() {
    check(
        "SELECT a FROM fact GROUP BY c",
        "error[sql-unsupported] at 1:29: GROUP BY requires at least one aggregate in the SELECT list\n  \
         SELECT a FROM fact GROUP BY c\n                              \
         ^",
    );
}

#[test]
fn star_only_counts() {
    check(
        "SELECT SUM(*) FROM fact",
        "error[sql-syntax] at 1:12: only COUNT accepts `*`\n  \
         SELECT SUM(*) FROM fact\n             \
         ^",
    );
}

#[test]
fn between_missing_and() {
    check(
        "SELECT * FROM fact WHERE a BETWEEN 1",
        "error[sql-syntax] at 1:37: expected `AND`, found end of input\n  \
         SELECT * FROM fact WHERE a BETWEEN 1\n                                      \
         ^",
    );
}

#[test]
fn negative_limit() {
    check(
        "SELECT * FROM fact LIMIT -1",
        "error[sql-syntax] at 1:26: expected a LIMIT count (a non-negative integer), found `-`\n  \
         SELECT * FROM fact LIMIT -1\n                           \
         ^",
    );
}

#[test]
fn unterminated_string_literal() {
    check(
        "SELECT * FROM fact WHERE c = 'red",
        "error[sql-syntax] at 1:30: unterminated string literal\n  \
         SELECT * FROM fact WHERE c = 'red\n                               \
         ^^^^",
    );
}

#[test]
fn order_by_column_outside_the_select_output() {
    check(
        "SELECT * FROM fact WHERE a = 5 ORDER BY z",
        "error[unknown-column] at 1:41: no column `z` in the SELECT output to order by\n  \
         SELECT * FROM fact WHERE a = 5 ORDER BY z\n                                          \
         ^",
    );
}

#[test]
fn trailing_garbage_after_a_complete_statement() {
    check(
        "SELECT * FROM fact WHERE a = 5 5",
        "error[sql-syntax] at 1:32: expected end of statement, found integer `5`\n  \
         SELECT * FROM fact WHERE a = 5 5\n                                 \
         ^",
    );
}

#[test]
fn insert_arity_mismatch() {
    check(
        "INSERT INTO dim VALUES (1)",
        "error[sql-syntax] at 1:25: table `dim` has 2 columns but the VALUES row has 1\n  \
         INSERT INTO dim VALUES (1)\n                          \
         ^",
    );
}

#[test]
fn mistyped_update_points_at_the_value() {
    check(
        "UPDATE fact SET b = b / 2 WHERE a = 1",
        "error[assignment-type-mismatch] at 1:21: column `b` is BIGINT but the value is DOUBLE\n  \
         UPDATE fact SET b = b / 2 WHERE a = 1\n                      \
         ^^^^^",
    );
}
