//! The seeded random workload generator behind the differential
//! pruning-oracle suite (`tests/differential.rs`) — extracted here so the
//! static-analyzer property suite (`crates/analyze/tests/prop_analyze.rs`)
//! exercises the *identical* plan corpus: every plan the differential
//! harness executes must analyze clean, and the harness in turn
//! executes every plan this module can produce.
//!
//! Determinism contract: all randomness flows through the caller's
//! seeded [`StdRng`], and the call sequence is part of the public
//! behaviour — reordering draws would silently change every downstream
//! differential fingerprint.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_expr::dsl::{col, lit};
use snowprune_expr::Expr;
use snowprune_plan::{AggFunc, JoinType, Plan, PlanBuilder, SortKey};
use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
use snowprune_types::{ScalarType, Value};

/// One generated workload: a `fact`/`dim` catalog with randomized schema
/// order, layout, and partitioning.
pub struct Workload {
    /// The generated `fact` and `dim` tables.
    pub catalog: Catalog,
    /// Schema of the fact table (column order is randomized per seed).
    pub fact_schema: Schema,
    /// Schema of the dim table.
    pub dim_schema: Schema,
    /// Number of rows in the fact table (LIMIT determinism bookkeeping).
    pub fact_rows: usize,
}

/// How a query's result must be compared against the oracle.
pub enum Check {
    /// Multiset equality (canonical row order).
    Sorted,
    /// Exact ordered equality (deterministic ORDER BY on the unique key).
    Ordered,
    /// LIMIT-without-ORDER-BY: `min(k, |matching|)` rows, all contained in
    /// the oracle result of `unlimited`.
    Limited {
        /// The LIMIT count.
        k: usize,
        /// The same plan without the LIMIT (the containment oracle).
        unlimited: Plan,
    },
}

/// Build the seeded random `fact`/`dim` workload: shuffled column order,
/// an optional pad column, random partition count/size/layout, `a` unique
/// (the deterministic ORDER BY key), `b` nullable, `c` categorical.
// TEST-API: corpus generator of tests/differential.rs and prop_analyze.
pub fn build_workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random schema: core columns in shuffled order plus an optional pad
    // column, so column indices differ across workloads.
    let mut fields = vec![
        Field::new("a", ScalarType::Int),
        Field::new("b", ScalarType::Int),
        Field::new("c", ScalarType::Str),
    ];
    if rng.random::<f64>() < 0.5 {
        fields.push(Field::new("d", ScalarType::Int));
    }
    for i in (1..fields.len()).rev() {
        let j = rng.random_range(0..(i + 1));
        fields.swap(i, j);
    }
    let fact_schema = Schema::new(fields);

    let partitions = rng.random_range(8usize..24);
    let rows_per_part = rng.random_range(16usize..40);
    let fact_rows = partitions * rows_per_part;
    let layout = match rng.random_range(0u32..3) {
        0 => Layout::ClusterBy(vec!["a".into()]),
        1 => Layout::Natural,
        _ => Layout::Shuffle(rng.random_range(1u64..64)),
    };
    let cats = ["red", "green", "blue", "teal"];
    let mut fact = TableBuilder::new("fact", fact_schema.clone())
        .target_rows_per_partition(rows_per_part)
        .layout(layout);
    for i in 0..fact_rows as i64 {
        let mut row = Vec::with_capacity(fact_schema.len());
        for f in fact_schema.fields() {
            row.push(match f.name.as_str() {
                // `a` is unique: the deterministic ORDER BY key.
                "a" => Value::Int(i),
                "b" => {
                    if rng.random::<f64>() < 0.08 {
                        Value::Null
                    } else {
                        Value::Int(rng.random_range(-500i64..500))
                    }
                }
                "c" => Value::Str(cats[rng.random_range(0usize..cats.len())].into()),
                _ => Value::Int(rng.random_range(0i64..1000)),
            });
        }
        fact.push_row(row);
    }

    let dim_schema = Schema::new(vec![
        Field::new("id", ScalarType::Int),
        Field::new("weight", ScalarType::Int),
    ]);
    let mut dim = TableBuilder::new("dim", dim_schema.clone()).target_rows_per_partition(32);
    for id in 0..rng.random_range(40i64..120) {
        dim.push_row(vec![Value::Int(id), Value::Int(rng.random_range(0i64..50))]);
    }

    let catalog = Catalog::new();
    catalog.register(fact.build());
    catalog.register(dim.build());
    Workload {
        catalog,
        fact_schema,
        dim_schema,
        fact_rows,
    }
}

/// One of five random single/two-column fact predicates (range on `a`,
/// threshold on nullable `b`, category equality on `c`, a conjunction,
/// and an open range).
pub fn random_predicate(rng: &mut StdRng, fact_rows: usize) -> Expr {
    let hi = fact_rows as i64;
    match rng.random_range(0u32..5) {
        0 => {
            let lo = rng.random_range(0..hi);
            let width = rng.random_range(1..hi / 2 + 2);
            col("a").between(lit(lo), lit((lo + width).min(hi)))
        }
        1 => col("b").ge(lit(rng.random_range(-400i64..400))),
        2 => col("c").eq(lit(
            ["red", "green", "blue", "teal"][rng.random_range(0usize..4)]
        )),
        3 => {
            let lo = rng.random_range(0..hi);
            col("a")
                .ge(lit(lo))
                .and(col("b").lt(lit(rng.random_range(-100i64..450))))
        }
        _ => col("a").lt(lit(rng.random_range(1..hi))),
    }
}

/// The six-arm random query mix of the core differential legs: filtered
/// select, projected scan, top-k on the unique key, top-k above GROUP BY
/// (Figure 7d), dim⋈fact join, and LIMIT-with-predicate.
// TEST-API: corpus generator of tests/differential.rs and prop_analyze.
pub fn random_queries(rng: &mut StdRng, wl: &Workload) -> Vec<(Plan, Check)> {
    let fs = &wl.fact_schema;
    let mut out = Vec::new();
    // 1. Filtered select.
    out.push((
        PlanBuilder::scan("fact", fs.clone())
            .filter(random_predicate(rng, wl.fact_rows))
            .build(),
        Check::Sorted,
    ));
    // 2. Projected (optionally filtered) scan.
    {
        let mut b = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.5 {
            b = b.filter(random_predicate(rng, wl.fact_rows));
        }
        out.push((b.project(vec!["a", "c"]).build(), Check::Sorted));
    }
    // 3. Top-k on the unique key (exact ordered check).
    {
        let mut b = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.6 {
            b = b.filter(random_predicate(rng, wl.fact_rows));
        }
        let k = rng.random_range(1u64..30);
        let desc = rng.random::<bool>();
        out.push((b.order_by("a", desc).limit(k).build(), Check::Ordered));
    }
    // 4. Top-k above GROUP BY on the grouping key (Figure 7d shape).
    {
        let k = rng.random_range(1u64..20);
        out.push((
            PlanBuilder::scan("fact", fs.clone())
                .aggregate(vec!["a"], vec![AggFunc::CountStar])
                .order_by("a", rng.random::<bool>())
                .limit(k)
                .build(),
            Check::Ordered,
        ));
    }
    // 5. Join: filtered dim build side, fact probe side on `b`.
    {
        let dim = PlanBuilder::scan("dim", wl.dim_schema.clone())
            .filter(col("weight").lt(lit(rng.random_range(1i64..40))));
        let mut probe = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.4 {
            probe = probe.filter(random_predicate(rng, wl.fact_rows));
        }
        out.push((
            dim.join(probe, "id", "b", JoinType::Inner).build(),
            Check::Sorted,
        ));
    }
    // 6. LIMIT with predicate, no ORDER BY.
    {
        let pred = random_predicate(rng, wl.fact_rows);
        let k = rng.random_range(1u64..60);
        let unlimited = PlanBuilder::scan("fact", fs.clone())
            .filter(pred.clone())
            .build();
        out.push((
            PlanBuilder::scan("fact", fs.clone())
                .filter(pred)
                .limit(k)
                .build(),
            Check::Limited {
                k: k as usize,
                unlimited,
            },
        ));
    }
    out
}

/// The §8.2 cacheable-shape mix of the predicate-cache differential leg:
/// filtered chains (bare and projected), an optionally-filtered top-k,
/// and an unfiltered top-k.
// TEST-API: corpus generator of tests/differential.rs and prop_analyze.
pub fn cacheable_queries(rng: &mut StdRng, wl: &Workload) -> Vec<(Plan, Check)> {
    let fs = &wl.fact_schema;
    let mut out = Vec::new();
    out.push((
        PlanBuilder::scan("fact", fs.clone())
            .filter(random_predicate(rng, wl.fact_rows))
            .build(),
        Check::Sorted,
    ));
    out.push((
        PlanBuilder::scan("fact", fs.clone())
            .filter(random_predicate(rng, wl.fact_rows))
            .project(vec!["a", "c"])
            .build(),
        Check::Sorted,
    ));
    {
        let mut b = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.6 {
            b = b.filter(random_predicate(rng, wl.fact_rows));
        }
        let k = rng.random_range(1u64..30);
        out.push((
            b.order_by("a", rng.random::<bool>()).limit(k).build(),
            Check::Ordered,
        ));
    }
    out.push((
        PlanBuilder::scan("fact", fs.clone())
            .order_by("a", rng.random::<bool>())
            .limit(rng.random_range(1u64..20))
            .build(),
        Check::Ordered,
    ));
    out
}

/// The join/aggregation mix of the batch-native differential leg: inner
/// and outer-preserve-build joins, top-k over a join (Figure 7b), a
/// filtered GROUP BY chain with every aggregate function, and GROUP BY
/// over a join.
// TEST-API: corpus generator of tests/differential.rs and prop_analyze.
pub fn joinagg_queries(rng: &mut StdRng, wl: &Workload) -> Vec<(Plan, Check)> {
    let fs = &wl.fact_schema;
    let ds = &wl.dim_schema;
    let mut out = Vec::new();
    // 1. Inner join: filtered dim build side, optionally filtered fact
    //    probe side (batch-native build and probe).
    {
        let dim = PlanBuilder::scan("dim", ds.clone())
            .filter(col("weight").lt(lit(rng.random_range(1i64..40))));
        let mut probe = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.5 {
            probe = probe.filter(random_predicate(rng, wl.fact_rows));
        }
        out.push((
            dim.join(probe, "id", "b", JoinType::Inner).build(),
            Check::Sorted,
        ));
    }
    // 2. Outer preserve-build join: NULL-padded build rows ride along and
    //    NULL join keys must never match (Kleene semantics).
    {
        let dim = PlanBuilder::scan("dim", ds.clone());
        let probe =
            PlanBuilder::scan("fact", fs.clone()).filter(random_predicate(rng, wl.fact_rows));
        out.push((
            dim.join(probe, "id", "b", JoinType::OuterPreserveBuild)
                .build(),
            Check::Sorted,
        ));
    }
    // 3. Top-k over a join on the probe-side unique key (Figure 7b):
    //    boundary logs above the join, per-row provenance through it.
    {
        let dim = PlanBuilder::scan("dim", ds.clone());
        let mut probe = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.5 {
            probe = probe.filter(random_predicate(rng, wl.fact_rows));
        }
        let k = rng.random_range(1u64..25);
        out.push((
            dim.join(probe, "id", "b", JoinType::Inner)
                .order_by("a", rng.random::<bool>())
                .limit(k)
                .build(),
            Check::Ordered,
        ));
    }
    // 4. Filtered GROUP BY straight over the fact chain: the columnar
    //    fold path, with NULLs in `b` exercising the skip semantics.
    {
        let mut b = PlanBuilder::scan("fact", fs.clone());
        if rng.random::<f64>() < 0.7 {
            b = b.filter(random_predicate(rng, wl.fact_rows));
        }
        out.push((
            b.aggregate(
                vec!["c"],
                vec![
                    AggFunc::CountStar,
                    AggFunc::Count("b".into()),
                    AggFunc::Sum("b".into()),
                    AggFunc::Min("a".into()),
                    AggFunc::Max("b".into()),
                    AggFunc::Avg("b".into()),
                ],
            )
            .build(),
            Check::Ordered,
        ));
    }
    // 5. GROUP BY over a join: the aggregation consumes joined rows (not
    //    a chain), so it exercises the fallback boundary above a
    //    batch-native join.
    {
        let dim = PlanBuilder::scan("dim", ds.clone());
        let probe = PlanBuilder::scan("fact", fs.clone());
        out.push((
            dim.join(probe, "id", "b", JoinType::Inner)
                .aggregate(
                    vec!["c"],
                    vec![AggFunc::CountStar, AggFunc::Sum("weight".into())],
                )
                .build(),
            Check::Ordered,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// SQL emission for the round-trip differential leg
// ---------------------------------------------------------------------------

/// Reserved words of the SQL front-end grammar: a column or table whose
/// name collides with one of these cannot be emitted as a bare
/// identifier. Kept in sync with the parser's reserved-word list.
const SQL_RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "OFFSET", "JOIN", "LEFT", "INNER",
    "ON", "AND", "OR", "NOT", "IS", "NULL", "TRUE", "FALSE", "LIKE", "IN", "BETWEEN", "AS", "ASC",
    "DESC", "INSERT", "INTO", "VALUES", "DELETE", "UPDATE", "SET",
];

/// True when `name` lexes as a single bare identifier the SQL grammar
/// accepts (and is not a reserved word), so it can be emitted unquoted.
fn sql_ident(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !SQL_RESERVED.iter().any(|k| name.eq_ignore_ascii_case(k))
}

/// True when a literal's `Display` text parses back to the same value:
/// floats can print like integers (`400.0` → `400`) and dates have no
/// literal syntax, so only NULL/boolean/integer/string round-trip.
fn literal_round_trips(v: &Value) -> bool {
    matches!(
        v,
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Str(_)
    )
}

/// True when `e`'s `Display` text parses back to a structurally equal
/// expression through the SQL front-end grammar.
fn expr_round_trips(e: &Expr) -> bool {
    match e {
        Expr::Literal(v) => literal_round_trips(v),
        Expr::Column(c) => sql_ident(&c.name),
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => expr_round_trips(a) && expr_round_trips(b),
        Expr::And(xs) | Expr::Or(xs) | Expr::Coalesce(xs) => xs.iter().all(expr_round_trips),
        Expr::Not(x) | Expr::IsNull(x) | Expr::Like(x, _) | Expr::StartsWith(x, _) => {
            expr_round_trips(x)
        }
        // The parser folds a unary minus over a numeric literal into the
        // literal itself, so `Neg(Literal)` would come back reshaped.
        Expr::Neg(x) | Expr::Abs(x) => !matches!(**x, Expr::Literal(_)) && expr_round_trips(x),
        Expr::If(c, t, f) => [c, t, f].iter().all(|x| expr_round_trips(x)),
        Expr::InList(x, vs) => expr_round_trips(x) && vs.iter().all(literal_round_trips),
    }
}

/// Emit the SQL text of `plan` for the round-trip differential leg:
/// parsing the returned statement and lowering it through the binder
/// must produce a plan structurally equal to `plan`.
///
/// Returns `None` for shapes the grammar cannot express faithfully —
/// residual filters above a join, probe-scan predicates under an
/// outer-preserve-build join (WHERE applies after null-extension, so
/// the binder keeps probe-side conjuncts above the join), computed sort
/// keys, float or date literals, nested joins, or joins whose two
/// schemas share a column name (every emitted column reference is
/// unqualified, so a shared name would be ambiguous).
pub fn emit_sql(plan: &Plan) -> Option<String> {
    // Strict spine walk: Limit? Sort? (Aggregate | Project)? (Join | Scan).
    let mut node = plan;
    let mut limit = None;
    if let Plan::Limit { input, k, offset } = node {
        limit = Some((*k, *offset));
        node = input;
    }
    let mut order: Option<&[SortKey]> = None;
    if let Plan::Sort { input, keys } = node {
        order = Some(keys);
        node = input;
    }
    let mut group: Option<(&[String], &[AggFunc])> = None;
    let mut project: Option<&[String]> = None;
    match node {
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            group = Some((group_by, aggs));
            node = input;
        }
        Plan::Project { input, columns } => {
            project = Some(columns);
            node = input;
        }
        _ => {}
    }

    // The relation: one scan, or a join of exactly two scans.
    fn scan(p: &Plan) -> Option<(&str, &Schema, Option<&Expr>)> {
        match p {
            Plan::Scan {
                table,
                schema,
                predicate,
            } => Some((table, schema, predicate.as_ref())),
            _ => None,
        }
    }

    let mut from = String::new();
    // WHERE conjuncts, one per scan predicate. Each predicate's `Display`
    // text is fully parenthesized, so it survives as a single AND-term
    // and the binder routes it back to its scan whole.
    let mut conjuncts: Vec<String> = Vec::new();
    match node {
        Plan::Join {
            build,
            probe,
            build_key,
            probe_key,
            join_type,
        } => {
            let (bt, bs, bp) = scan(build)?;
            let (pt, ps, pp) = scan(probe)?;
            if !sql_ident(bt) || !sql_ident(pt) || bt == pt {
                return None;
            }
            // Unqualified references must resolve to exactly one side.
            if bs.fields().iter().any(|f| ps.contains(&f.name)) {
                return None;
            }
            if !sql_ident(build_key) || !sql_ident(probe_key) {
                return None;
            }
            let kw = match join_type {
                JoinType::Inner => "JOIN",
                JoinType::OuterPreserveBuild => "LEFT JOIN",
            };
            // A probe-scan predicate under LEFT JOIN has no WHERE
            // spelling: standard SQL applies WHERE after null-extension,
            // so the binder lowers a probe-side WHERE conjunct to a
            // residual filter above the join, not back onto the scan.
            if matches!(join_type, JoinType::OuterPreserveBuild) && pp.is_some() {
                return None;
            }
            from = format!("{bt} {kw} {pt} ON {build_key} = {probe_key}");
            for pred in [bp, pp].into_iter().flatten() {
                if !expr_round_trips(pred) {
                    return None;
                }
                conjuncts.push(pred.to_string());
            }
        }
        _ => {
            let (t, _, pred) = scan(node)?;
            if !sql_ident(t) {
                return None;
            }
            from.push_str(t);
            if let Some(pred) = pred {
                if !expr_round_trips(pred) {
                    return None;
                }
                conjuncts.push(pred.to_string());
            }
        }
    }

    // SELECT list: group keys + aggregate spellings, projected columns,
    // or `*`.
    let select_list = match (group, project) {
        (Some((keys, aggs)), _) => {
            if !keys.iter().all(|k| sql_ident(k)) {
                return None;
            }
            if !aggs.iter().all(|a| a.input_column().is_none_or(sql_ident)) {
                return None;
            }
            let mut items: Vec<String> = keys.to_vec();
            items.extend(aggs.iter().map(AggFunc::sql));
            items.join(", ")
        }
        (None, Some(cols)) => {
            if !cols.iter().all(|c| sql_ident(c)) {
                return None;
            }
            cols.join(", ")
        }
        (None, None) => "*".into(),
    };

    let mut sql = format!("SELECT {select_list} FROM {from}");
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    if let Some((keys, _)) = group {
        sql.push_str(" GROUP BY ");
        sql.push_str(&keys.join(", "));
    }
    if let Some(keys) = order {
        let mut parts = Vec::with_capacity(keys.len());
        for k in keys {
            // Only bare column sort keys have an ORDER BY spelling.
            let Expr::Column(c) = &k.expr else {
                return None;
            };
            if !sql_ident(&c.name) {
                return None;
            }
            parts.push(if k.desc {
                format!("{} DESC", c.name)
            } else {
                c.name.clone()
            });
        }
        sql.push_str(" ORDER BY ");
        sql.push_str(&parts.join(", "));
    }
    if let Some((k, offset)) = limit {
        sql.push_str(&format!(" LIMIT {k}"));
        if offset > 0 {
            sql.push_str(&format!(" OFFSET {offset}"));
        }
    }
    Some(sql)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_random_query_shape_has_a_sql_spelling() {
        for w in 0..8u64 {
            let wl = build_workload(0xD1FF_0000 + w);
            let mut rng = StdRng::seed_from_u64((0xD1FF_0000 + w) ^ 0x5EED);
            for (i, (plan, _)) in random_queries(&mut rng, &wl).iter().enumerate() {
                assert!(
                    emit_sql(plan).is_some(),
                    "workload {w} query {i} has no SQL spelling:\n{plan}"
                );
            }
        }
    }

    #[test]
    fn emitted_sql_spells_the_join_and_spine_clauses() {
        let wl = build_workload(1);
        let dim =
            PlanBuilder::scan("dim", wl.dim_schema.clone()).filter(col("weight").lt(lit(10i64)));
        let plan = dim
            .join(
                PlanBuilder::scan("fact", wl.fact_schema.clone())
                    .filter(col("a").ge(lit(5i64)).and(col("b").lt(lit(3i64)))),
                "id",
                "b",
                JoinType::Inner,
            )
            .order_by("a", true)
            .limit(7)
            .build();
        assert_eq!(
            emit_sql(&plan).as_deref(),
            Some(
                "SELECT * FROM dim JOIN fact ON id = b \
                 WHERE (weight < 10) AND ((a >= 5) AND (b < 3)) \
                 ORDER BY a DESC LIMIT 7"
            )
        );
    }

    #[test]
    fn left_join_probe_predicates_have_no_where_spelling() {
        let wl = build_workload(3);
        // Probe-scan predicate under LEFT JOIN: a WHERE conjunct would
        // bind to a residual filter above the join (standard SQL applies
        // WHERE after null-extension), so there is no faithful spelling.
        let probe_filtered = PlanBuilder::scan("dim", wl.dim_schema.clone())
            .join(
                PlanBuilder::scan("fact", wl.fact_schema.clone()).filter(col("a").ge(lit(5i64))),
                "id",
                "b",
                JoinType::OuterPreserveBuild,
            )
            .build();
        assert_eq!(emit_sql(&probe_filtered), None);
        // Build-scan predicates commute with the preserve-build join, so
        // they keep their WHERE spelling.
        let build_filtered = PlanBuilder::scan("dim", wl.dim_schema.clone())
            .filter(col("weight").lt(lit(10i64)))
            .join(
                PlanBuilder::scan("fact", wl.fact_schema.clone()),
                "id",
                "b",
                JoinType::OuterPreserveBuild,
            )
            .build();
        assert_eq!(
            emit_sql(&build_filtered).as_deref(),
            Some("SELECT * FROM dim LEFT JOIN fact ON id = b WHERE (weight < 10)")
        );
    }

    #[test]
    fn unexpressible_shapes_emit_none() {
        let wl = build_workload(2);
        // Float literals can print like integers, so they never round-trip.
        let float_pred = PlanBuilder::scan("fact", wl.fact_schema.clone())
            .filter(col("a").ge(lit(4.0f64)))
            .build();
        assert_eq!(emit_sql(&float_pred), None);
        // A join of two scans over the same table would make every
        // unqualified column ambiguous.
        let self_join = PlanBuilder::scan("fact", wl.fact_schema.clone())
            .join(
                PlanBuilder::scan("fact", wl.fact_schema.clone()),
                "a",
                "b",
                JoinType::Inner,
            )
            .build();
        assert_eq!(emit_sql(&self_join), None);
    }
}
