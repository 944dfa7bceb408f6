//! Property suite for the static plan analyzer.
//!
//! Soundness (zero false positives): every plan the differential,
//! production, and TPC-H workload generators can produce analyzes with
//! **zero error-severity diagnostics** — the analyzer may only reject
//! plans the engine could not execute correctly.
//!
//! Completeness (mutation testing): seeded single-node mutations of the
//! same corpus — renaming a referenced column, flipping a column's type
//! under the expressions that use it, emptying a sort's key list, and
//! severing top-k provenance with a self-join — must each surface at
//! least one diagnostic with the expected code.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snowprune_analyze::{analyze, DiagCode, Diagnostic};
use snowprune_expr::{ColumnRef, Expr};
use snowprune_plan::{AggFunc, Plan, PlanBuilder, SortKey};
use snowprune_storage::{Field, Schema};
use snowprune_types::ScalarType;
use snowprune_workload::diffgen::{
    build_workload, cacheable_queries, joinagg_queries, random_queries,
};

const WORKLOADS: u64 = 50;
const MISSING: &str = "___no_such_column";

/// Every plan of one differential workload seed, across all three query
/// mixes (the exact corpus `tests/differential.rs` executes).
fn corpus(seed: u64) -> Vec<Plan> {
    let wl = build_workload(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut plans = Vec::new();
    for (plan, _) in random_queries(&mut rng, &wl) {
        plans.push(plan);
    }
    for (plan, _) in cacheable_queries(&mut rng, &wl) {
        plans.push(plan);
    }
    for (plan, _) in joinagg_queries(&mut rng, &wl) {
        plans.push(plan);
    }
    plans
}

fn errors(plan: &Plan) -> Vec<Diagnostic> {
    analyze(plan)
        .diagnostics
        .into_iter()
        .filter(|d| d.is_error())
        .collect()
}

// ---- soundness: the valid corpus must analyze clean ----------------------

#[test]
fn differential_corpus_has_zero_false_positives() {
    for seed in 0..WORKLOADS {
        for plan in corpus(seed) {
            let errs = errors(&plan);
            assert!(
                errs.is_empty(),
                "seed {seed}: analyzer flagged a valid differential plan:\n{plan}\n{errs:?}"
            );
        }
    }
}

#[test]
fn production_workload_has_zero_false_positives() {
    let cfg = snowprune_workload::WorkloadConfig {
        queries: 120,
        ..Default::default()
    };
    for seed in [1u64, 7, 42] {
        let wl = snowprune_workload::generate(&cfg, seed);
        for q in &wl.queries {
            let errs = errors(&q.plan);
            assert!(
                errs.is_empty(),
                "seed {seed}: analyzer flagged a valid production plan {}:\n{errs:?}",
                q.plan
            );
        }
    }
}

#[test]
fn tpch_queries_have_zero_false_positives() {
    for (q, plan) in snowprune_workload::all_tpch_queries() {
        let errs = errors(&plan);
        assert!(errs.is_empty(), "TPC-H q{q} flagged:\n{errs:?}");
    }
}

// ---- mutation: rename a referenced column → unknown-column ---------------

fn rename_expr(e: &Expr, done: &mut bool) -> Expr {
    if *done {
        return e.clone();
    }
    match e {
        Expr::Column(c) => {
            *done = true;
            Expr::Column(ColumnRef {
                index: c.index,
                name: MISSING.into(),
            })
        }
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(rename_expr(a, done)),
            Box::new(rename_expr(b, done)),
        ),
        Expr::And(xs) => Expr::And(xs.iter().map(|x| rename_expr(x, done)).collect()),
        Expr::Or(xs) => Expr::Or(xs.iter().map(|x| rename_expr(x, done)).collect()),
        Expr::Not(x) => Expr::Not(Box::new(rename_expr(x, done))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(rename_expr(x, done))),
        Expr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(rename_expr(a, done)),
            Box::new(rename_expr(b, done)),
        ),
        Expr::Neg(x) => Expr::Neg(Box::new(rename_expr(x, done))),
        Expr::Abs(x) => Expr::Abs(Box::new(rename_expr(x, done))),
        Expr::If(c, t, f) => Expr::If(
            Box::new(rename_expr(c, done)),
            Box::new(rename_expr(t, done)),
            Box::new(rename_expr(f, done)),
        ),
        Expr::Like(x, p) => Expr::Like(Box::new(rename_expr(x, done)), p.clone()),
        Expr::StartsWith(x, p) => Expr::StartsWith(Box::new(rename_expr(x, done)), p.clone()),
        Expr::InList(x, vs) => Expr::InList(Box::new(rename_expr(x, done)), vs.clone()),
        Expr::Coalesce(xs) => Expr::Coalesce(xs.iter().map(|x| rename_expr(x, done)).collect()),
        Expr::Literal(_) => e.clone(),
    }
}

/// Rename the first column reference anywhere in the plan (predicates,
/// projections, join keys, grouping keys, aggregate inputs, sort keys).
fn rename_first(plan: &Plan, done: &mut bool) -> Plan {
    match plan {
        Plan::Scan {
            table,
            schema,
            predicate,
        } => Plan::Scan {
            table: table.clone(),
            schema: schema.clone(),
            predicate: predicate.as_ref().map(|p| rename_expr(p, done)),
        },
        Plan::Filter { input, predicate } => {
            let input = Box::new(rename_first(input, done));
            let predicate = rename_expr(predicate, done);
            Plan::Filter { input, predicate }
        }
        Plan::Project { input, columns } => {
            let input = Box::new(rename_first(input, done));
            let mut columns = columns.clone();
            if !*done && !columns.is_empty() {
                columns[0] = MISSING.into();
                *done = true;
            }
            Plan::Project { input, columns }
        }
        Plan::Join {
            build,
            probe,
            build_key,
            probe_key,
            join_type,
        } => {
            let build = Box::new(rename_first(build, done));
            let probe = Box::new(rename_first(probe, done));
            let mut build_key = build_key.clone();
            if !*done {
                build_key = MISSING.into();
                *done = true;
            }
            Plan::Join {
                build,
                probe,
                build_key,
                probe_key: probe_key.clone(),
                join_type: *join_type,
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input = Box::new(rename_first(input, done));
            let mut group_by = group_by.clone();
            let mut aggs = aggs.clone();
            if !*done && !group_by.is_empty() {
                group_by[0] = MISSING.into();
                *done = true;
            } else if !*done {
                for a in &mut aggs {
                    if a.input_column().is_some() {
                        *a = AggFunc::Sum(MISSING.into());
                        *done = true;
                        break;
                    }
                }
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            }
        }
        Plan::Sort { input, keys } => {
            let input = Box::new(rename_first(input, done));
            let keys = keys
                .iter()
                .map(|k| SortKey {
                    expr: rename_expr(&k.expr, done),
                    desc: k.desc,
                })
                .collect();
            Plan::Sort { input, keys }
        }
        Plan::Limit { input, k, offset } => Plan::Limit {
            input: Box::new(rename_first(input, done)),
            k: *k,
            offset: *offset,
        },
    }
}

#[test]
fn renamed_column_yields_unknown_column() {
    for seed in 0..WORKLOADS {
        for plan in corpus(seed) {
            let mut done = false;
            let mutant = rename_first(&plan, &mut done);
            assert!(done, "seed {seed}: plan with no column reference?\n{plan}");
            let errs = errors(&mutant);
            assert!(
                errs.iter().any(|d| d.code == DiagCode::UnknownColumn),
                "seed {seed}: renamed column not flagged:\n{mutant}\n{errs:?}"
            );
        }
    }
}

// ---- mutation: flip a column's type → typing diagnostics -----------------

/// Flip column `name` to VARCHAR in every scan schema of the plan,
/// without touching the expressions that use it.
fn flip_to_str(plan: &Plan, name: &str, flipped: &mut bool) -> Plan {
    match plan {
        Plan::Scan {
            table,
            schema,
            predicate,
        } => {
            let fields = schema
                .fields()
                .iter()
                .map(|f| {
                    if f.name == name && f.ty != ScalarType::Str {
                        *flipped = true;
                        Field::new(f.name.clone(), ScalarType::Str)
                    } else {
                        f.clone()
                    }
                })
                .collect();
            Plan::Scan {
                table: table.clone(),
                schema: Schema::new(fields),
                predicate: predicate.clone(),
            }
        }
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(flip_to_str(input, name, flipped)),
            predicate: predicate.clone(),
        },
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(flip_to_str(input, name, flipped)),
            columns: columns.clone(),
        },
        Plan::Join {
            build,
            probe,
            build_key,
            probe_key,
            join_type,
        } => Plan::Join {
            build: Box::new(flip_to_str(build, name, flipped)),
            probe: Box::new(flip_to_str(probe, name, flipped)),
            build_key: build_key.clone(),
            probe_key: probe_key.clone(),
            join_type: *join_type,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(flip_to_str(input, name, flipped)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(flip_to_str(input, name, flipped)),
            keys: keys.clone(),
        },
        Plan::Limit { input, k, offset } => Plan::Limit {
            input: Box::new(flip_to_str(input, name, flipped)),
            k: *k,
            offset: *offset,
        },
    }
}

#[test]
fn flipped_column_type_yields_typing_diagnostics() {
    let expected = [
        DiagCode::IncomparableCmp,
        DiagCode::JoinKeyMismatch,
        DiagCode::BadAggregateInput,
        DiagCode::NonNumericArith,
    ];
    for seed in 0..WORKLOADS {
        let mut flagged = 0usize;
        for plan in corpus(seed) {
            let mut flipped = false;
            let mutant = flip_to_str(&plan, "b", &mut flipped);
            if !flipped {
                continue;
            }
            let errs = errors(&mutant);
            for d in &errs {
                assert!(
                    expected.contains(&d.code),
                    "seed {seed}: unexpected code for type flip: {d}\n{mutant}"
                );
            }
            if !errs.is_empty() {
                flagged += 1;
            }
        }
        // Every seed's mix contains joins keyed on `b` (guaranteed
        // JoinKeyMismatch) and a SUM/AVG over `b` (BadAggregateInput).
        assert!(
            flagged >= 2,
            "seed {seed}: type flip surfaced only {flagged} flagged plans"
        );
    }
}

// ---- mutation: drop sort keys → empty-sort-keys --------------------------

fn empty_sort_keys(plan: &Plan, had_sort: &mut bool) -> Plan {
    match plan {
        Plan::Sort { input, .. } => {
            *had_sort = true;
            Plan::Sort {
                input: Box::new(empty_sort_keys(input, had_sort)),
                keys: Vec::new(),
            }
        }
        Plan::Limit { input, k, offset } => Plan::Limit {
            input: Box::new(empty_sort_keys(input, had_sort)),
            k: *k,
            offset: *offset,
        },
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(empty_sort_keys(input, had_sort)),
            predicate: predicate.clone(),
        },
        other => other.clone(),
    }
}

#[test]
fn dropped_sort_keys_yield_empty_sort_keys() {
    for seed in 0..WORKLOADS {
        let mut sort_plans = 0usize;
        for plan in corpus(seed) {
            let mut had_sort = false;
            let mutant = empty_sort_keys(&plan, &mut had_sort);
            if !had_sort {
                continue;
            }
            sort_plans += 1;
            let errs = errors(&mutant);
            assert!(
                errs.iter().any(|d| d.code == DiagCode::EmptySortKeys),
                "seed {seed}: keyless sort not flagged:\n{mutant}\n{errs:?}"
            );
        }
        assert!(sort_plans >= 2, "seed {seed}: no top-k plans in the mix?");
    }
}

// ---- mutation: self-join severs top-k provenance -------------------------

#[test]
fn self_join_topk_severs_provenance() {
    for seed in 0..8 {
        let wl = build_workload(seed);
        // The Figure 7b join-top-k shape, but with the probe table also
        // scanned on the build side (projected so the order column only
        // comes from the probe): classified as a join spine, yet the
        // survivor provenance is no longer attributable to one scan.
        let plan = PlanBuilder::scan("fact", wl.fact_schema.clone())
            .project(vec!["b"])
            .join(
                PlanBuilder::scan("fact", wl.fact_schema.clone()),
                "b",
                "a",
                snowprune_plan::JoinType::Inner,
            )
            .order_by("a", seed % 2 == 0)
            .limit(5)
            .build();
        let analysis = analyze(&plan);
        assert!(
            analysis.cacheability.shape.is_none(),
            "seed {seed}: self-join top-k must not be cacheable"
        );
        assert!(
            analysis
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::ProvenanceNotAttributable),
            "seed {seed}: severed provenance not surfaced:\n{:?}",
            analysis.diagnostics
        );
    }
}
