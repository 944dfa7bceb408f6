//! Experiment runners: one per table/figure in the paper's evaluation.
//! Each returns a plain-text report section with paper-vs-measured rows.

use snowprune_core::topk::PartitionOrder;
use snowprune_core::{LimitOutcome, TechniqueSet, UnsupportedReason};
use snowprune_exec::{ExecConfig, Executor, QueryOutput};
use snowprune_plan::{detect_topk, limit_pushdown, LimitPushdown, Plan, TopKShape};
use snowprune_workload::{
    generate, occurrence_histogram, repetition_shape_ids, sample_k, QueryKind, WorkloadConfig,
};

use crate::report::{cdf_table, share, summarize};

/// Standard workload size for the harness (kept laptop-friendly).
pub fn harness_workload(queries: usize, seed: u64) -> snowprune_workload::ProductionWorkload {
    generate(
        &WorkloadConfig {
            queries,
            rows_per_partition: 400,
            fact_partitions: 60,
        },
        seed,
    )
}

/// Run every query with the default (all-pruning) configuration.
pub fn run_workload(wl: &snowprune_workload::ProductionWorkload) -> Vec<(QueryKind, QueryOutput)> {
    let exec = Executor::new(wl.catalog.clone(), ExecConfig::default());
    wl.queries
        .iter()
        .filter_map(|q| exec.run(&q.plan).ok().map(|o| (q.kind, o)))
        .collect()
}

/// Figure 1: pruning-ratio distributions per technique over eligible
/// queries.
pub fn fig01_overview(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let runs = run_workload(&wl);
    let mut filter = Vec::new();
    let mut limit = Vec::new();
    let mut topk = Vec::new();
    let mut join = Vec::new();
    for (_, out) in &runs {
        let p = &out.report.pruning;
        if p.filter_eligible && p.partitions_total > 0 {
            filter.push(p.filter_ratio());
        }
        if matches!(
            out.report.limit_outcome,
            Some(LimitOutcome::PrunedToOne | LimitOutcome::PrunedToMany(_))
        ) {
            limit.push(p.limit_ratio());
        }
        if out.report.topk_stats.partitions_considered > 0 && p.topk_eligible {
            topk.push(out.report.topk_stats.pruning_ratio());
        }
        if p.join_eligible && p.pruned_by_join > 0 {
            join.push(p.join_ratio());
        }
    }
    let mut s = String::from("## Figure 1 — pruning ratios per technique (eligible queries)\n");
    s += &format!("{}\n", summarize(&filter).row("filter"));
    s += &format!("{}\n", summarize(&limit).row("limit"));
    s += &format!("{}\n", summarize(&topk).row("top-k"));
    s += &format!("{}\n", summarize(&join).row("join"));
    s +=
        "paper: filter ~99% for applicable, limit 70%, top-k 77%, join 79% (means over eligible)\n";
    s
}

/// Figure 4: CDF of filter pruning ratio for SELECTs with ≥1 predicate.
pub fn fig04_filter_cdf(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let runs = run_workload(&wl);
    let ratios: Vec<f64> = runs
        .iter()
        .filter(|(kind, out)| {
            out.report.pruning.filter_eligible
                && !matches!(kind, QueryKind::FullScan)
                && out.report.pruning.partitions_total > 0
        })
        .map(|(_, out)| out.report.pruning.filter_ratio())
        .collect();
    let mut s = String::from("## Figure 4 — filter pruning CDF (queries with predicates)\n");
    for (p, v) in cdf_table(&ratios, &[0.1, 0.25, 0.5, 0.75, 0.9]) {
        s += &format!("  P{:>2.0}: {:>6.1}%\n", p * 100.0, v * 100.0);
    }
    s += &format!(
        "  share pruning >=90%: {:.1}% (paper: ~36%)\n",
        share(&ratios, |r| r >= 0.9) * 100.0
    );
    s += &format!(
        "  share pruning == 0%: {:.1}% (paper: ~27%)\n",
        share(&ratios, |r| r == 0.0) * 100.0
    );
    s
}

/// A Table 1 row: the LIMIT and top-k query patterns the paper counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tab1Class {
    /// LIMIT k with no predicate.
    LimitNoPredicate,
    /// LIMIT k below at least one predicate.
    LimitWithPredicate,
    /// ORDER BY x LIMIT k over a scan or a join.
    OrderByLimit,
    /// GROUP BY x ORDER BY x LIMIT k (ordering on a grouping key).
    GroupOrderKey,
    /// GROUP BY y ORDER BY agg(x) LIMIT k.
    GroupOrderAgg,
}

/// The Table 1 row a plan falls in, read with the engine's own plan
/// analyses (LIMIT pushdown and top-k shape detection), or `None` when the
/// plan is none of the five patterns.
fn tab1_class(plan: &Plan) -> Option<Tab1Class> {
    if let LimitPushdown::Supported { predicates, .. } = limit_pushdown(plan) {
        return Some(if predicates.is_empty() {
            Tab1Class::LimitNoPredicate
        } else {
            Tab1Class::LimitWithPredicate
        });
    }
    match detect_topk(plan) {
        Some(spec) if spec.shape == TopKShape::AboveAggregation => Some(Tab1Class::GroupOrderKey),
        Some(_) => Some(Tab1Class::OrderByLimit),
        // Detection rejects a top-k over an aggregate only when it orders
        // by an aggregate output.
        None => match plan {
            Plan::Limit { input, .. } => match input.as_ref() {
                Plan::Sort { input, .. } if matches!(input.as_ref(), Plan::Aggregate { .. }) => {
                    Some(Tab1Class::GroupOrderAgg)
                }
                _ => None,
            },
            _ => None,
        },
    }
}

/// Table 1: query-type frequencies, each plan classified by the engine's
/// own LIMIT and top-k plan analyses.
pub fn tab1_query_mix(queries: usize, seed: u64) -> String {
    let wl = generate(
        &WorkloadConfig {
            queries,
            rows_per_partition: 50,
            fact_partitions: 4,
        },
        seed,
    );
    let total = wl.queries.len().max(1) as f64;
    let pct = |c: Tab1Class| {
        let n = wl
            .queries
            .iter()
            .filter(|q| tab1_class(&q.plan) == Some(c))
            .count();
        n as f64 / total * 100.0
    };
    let mut s = String::from("## Table 1 — LIMIT/top-k query mix (measured vs paper)\n");
    for (label, class, paper) in [
        ("LIMIT w/o predicate ", Tab1Class::LimitNoPredicate, "0.37"),
        (
            "LIMIT w/ predicate  ",
            Tab1Class::LimitWithPredicate,
            "2.23",
        ),
        ("ORDER BY x LIMIT k  ", Tab1Class::OrderByLimit, "4.47"),
        ("GROUP/ORDER key     ", Tab1Class::GroupOrderKey, "0.12"),
        ("GROUP/ORDER agg     ", Tab1Class::GroupOrderAgg, "0.96"),
    ] {
        s += &format!("  {label}: {:>5.2}%  (paper {paper}%)\n", pct(class));
    }
    s
}

/// Figure 6: CDF of k in LIMIT clauses.
pub fn fig06_k_cdf(samples: usize, seed: u64) -> String {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let ks: Vec<u64> = (0..samples)
        .map(|_| sample_k(&mut rng, true))
        .filter(|&k| k > 0)
        .collect();
    let anchor = |t: u64| snowprune_workload::cdf_at(&ks, t) * 100.0;
    let mut s = String::from("## Figure 6 — CDF of k in LIMIT clauses (k > 0)\n");
    for t in [1u64, 10, 100, 1_000, 10_000, 100_000, 2_000_000] {
        s += &format!("  P(k <= {t:>9}) = {:>5.1}%\n", anchor(t));
    }
    s += "  paper anchors: P(k<=10000) = 97%, P(k<=2000000) = 99.9%\n";
    s
}

/// Table 2: LIMIT pruning applicability breakdown.
pub fn tab2_limit_breakdown(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let exec = Executor::new(wl.catalog.clone(), ExecConfig::default());
    #[derive(Default, Clone, Copy)]
    struct Counts {
        minimal: u64,
        unsupported: u64,
        to_one: u64,
        to_many: u64,
        total: u64,
    }
    let mut with_pred = Counts::default();
    let mut without_pred = Counts::default();
    for q in &wl.queries {
        let bucket = match q.kind {
            QueryKind::LimitNoPredicate => &mut without_pred,
            QueryKind::LimitWithPredicate => &mut with_pred,
            _ => continue,
        };
        let Ok(out) = exec.run(&q.plan) else { continue };
        bucket.total += 1;
        match out.report.limit_outcome {
            Some(LimitOutcome::AlreadyMinimal) => bucket.minimal += 1,
            Some(LimitOutcome::Unsupported(UnsupportedReason::PlanShape))
            | Some(LimitOutcome::Unsupported(UnsupportedReason::InsufficientFullyMatching))
            | None => bucket.unsupported += 1,
            Some(LimitOutcome::PrunedToOne) => bucket.to_one += 1,
            Some(LimitOutcome::PrunedToMany(_)) => bucket.to_many += 1,
        }
    }
    let row = |c: &Counts, label: &str| -> String {
        if c.total == 0 {
            return format!("  {label:<22} (no samples)\n");
        }
        let pct = |x: u64| x as f64 / c.total as f64 * 100.0;
        format!(
            "  {label:<22} minimal={:>5.1}% unsupported={:>5.1}% ->1={:>5.1}% ->many={:>5.1}% (n={})\n",
            pct(c.minimal),
            pct(c.unsupported),
            pct(c.to_one),
            pct(c.to_many),
            c.total
        )
    };
    let mut s = String::from("## Table 2 — LIMIT pruning applicability\n");
    s += &row(&without_pred, "without predicate");
    s += &row(&with_pred, "with predicate");
    s += "  paper: w/o pred: 79.6/1.7/16.6/1.5; w/ pred: 61.7/36.2/1.7/0.0\n";
    s
}

/// Figure 8: influence of partition processing order on top-k pruning.
pub fn fig08_topk_sorting(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let mut rows = String::from("## Figure 8 — top-k pruning ratio by partition order\n");
    for (label, order) in [
        ("no sorting (random)", PartitionOrder::Random { seed: 99 }),
        ("full sort", PartitionOrder::ByBoundary),
        ("fm-first (ext.)", PartitionOrder::FullyMatchingFirst),
    ] {
        let mut cfg = ExecConfig::default();
        cfg.topk_order = order;
        cfg.topk_init_boundary = false; // isolate the ordering effect
        let exec = Executor::new(wl.catalog.clone(), cfg);
        let mut ratios = Vec::new();
        for q in &wl.queries {
            if !matches!(q.kind, QueryKind::TopK | QueryKind::TopKGroupByKey) {
                continue;
            }
            let Ok(out) = exec.run(&q.plan) else { continue };
            let st = out.report.topk_stats;
            if st.partitions_considered > 0 {
                ratios.push(st.pruning_ratio());
            }
        }
        rows += &format!("{}\n", summarize(&ratios).row(label));
    }
    rows += "paper: full sort clearly dominates random order (better median and tails)\n";
    rows
}

/// Figure 9: top-k pruning ratio and runtime change, bucketed by baseline
/// runtime.
pub fn fig09_topk_impact(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let pruned_exec = Executor::new(wl.catalog.clone(), ExecConfig::default());
    let base_exec = Executor::new(wl.catalog.clone(), ExecConfig::no_pruning());
    // Collect samples, then bucket by baseline simulated I/O terciles
    // (the wall-time stand-in for the paper's 1s/10s/60s buckets).
    let mut samples: Vec<(u64, f64, f64)> = Vec::new();
    for q in &wl.queries {
        if !matches!(q.kind, QueryKind::TopK) {
            continue;
        }
        let (Ok(p), Ok(b)) = (pruned_exec.run(&q.plan), base_exec.run(&q.plan)) else {
            continue;
        };
        let st = p.report.topk_stats;
        if st.partitions_skipped == 0 {
            continue; // "successfully applied" only, as in the paper
        }
        let ratio = st.pruning_ratio();
        let runtime_change = if b.io.simulated_io_ns > 0 {
            (p.io.simulated_io_ns as f64 - b.io.simulated_io_ns as f64)
                / b.io.simulated_io_ns as f64
        } else {
            0.0
        };
        samples.push((b.io.simulated_io_ns, ratio, runtime_change));
    }
    samples.sort_by_key(|(io, _, _)| *io);
    let n = samples.len();
    let mut buckets: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
        ("fast baseline", Vec::new(), Vec::new()),
        ("mid baseline ", Vec::new(), Vec::new()),
        ("slow baseline", Vec::new(), Vec::new()),
    ];
    for (i, (_, ratio, change)) in samples.into_iter().enumerate() {
        let b = if n == 0 { 0 } else { (i * 3 / n.max(1)).min(2) };
        buckets[b].1.push(ratio);
        buckets[b].2.push(change);
    }
    let mut s =
        String::from("## Figure 9 — top-k pruning ratio and runtime change by baseline size\n");
    for (label, ratios, changes) in &buckets {
        s += &format!("{}\n", summarize(ratios).row(&format!("{label} ratio")));
        s += &format!("{}\n", summarize(changes).row(&format!("{label} dI/O")));
    }
    s += "paper: pruning-ratio and runtime-improvement CDFs track each other; avg ratio ~77%\n";
    s
}

/// Figure 10: CDF of join pruning ratio.
pub fn fig10_join_cdf(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let runs = run_workload(&wl);
    let ratios: Vec<f64> = runs
        .iter()
        .filter(|(kind, out)| {
            matches!(kind, QueryKind::Join) && out.report.pruning.pruned_by_join > 0
        })
        .map(|(_, out)| out.report.pruning.join_ratio())
        .collect();
    let mut s = String::from("## Figure 10 — join pruning ratio CDF (applied queries)\n");
    for (p, v) in cdf_table(&ratios, &[0.1, 0.25, 0.5, 0.75, 0.9]) {
        s += &format!("  P{:>2.0}: {:>6.1}%\n", p * 100.0, v * 100.0);
    }
    s += &format!(
        "  share at 100%: {:.1}% (paper ~13%); median (paper >=72%)\n",
        share(&ratios, |r| r >= 0.999) * 100.0
    );
    s
}

/// Figure 11: share of queries per technique combination.
pub fn fig11_flow(queries: usize, seed: u64) -> String {
    let wl = harness_workload(queries, seed);
    let runs = run_workload(&wl);
    let mut agg = snowprune_core::FlowAggregator::new();
    for (_, out) in &runs {
        agg.add(&out.report.pruning);
    }
    let mut s = String::from("## Figure 11 — technique-combination shares\n");
    for (label, frac) in agg.combination_shares() {
        s += &format!("  {label:<24} {:>6.2}%\n", frac * 100.0);
    }
    s += &format!(
        "  share using filter: {:.1}% (paper 58.7%); overall partition pruning ratio: {:.2}% (paper 99.4%)\n",
        agg.share_using(TechniqueSet::FILTER) * 100.0,
        agg.overall_pruning_ratio() * 100.0
    );
    s
}

/// Figure 12: repetitiveness of top-k plan shapes.
pub fn fig12_repetitiveness(seed: u64) -> String {
    let mut s = String::from("## Figure 12 — repetitiveness of top-k plan shapes\n");
    for (label, n, paper) in [
        ("3 days", 3000usize, "85/9/3/1/1/2"),
        ("1 month", 30_000, "87/8/2/1/0/2"),
    ] {
        let ids = repetition_shape_ids(n, seed);
        let hist = occurrence_histogram(&ids);
        let cells: Vec<String> = hist
            .iter()
            .map(|(b, v)| format!("{b}:{:.0}%", v * 100.0))
            .collect();
        s += &format!("  {label:<8} {} (paper {paper})\n", cells.join(" "));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiments_run() {
        // Smoke-test the cheap experiments end to end.
        let s = fig06_k_cdf(5000, 3);
        assert!(s.contains("Figure 6"));
        let s = fig12_repetitiveness(4);
        assert!(s.contains("3 days"));
    }

    #[test]
    fn tab1_classes_each_generator_arm() {
        use snowprune_expr::dsl::{col, lit};
        use snowprune_plan::{AggFunc, JoinType, PlanBuilder};
        use snowprune_storage::{Field, Schema};
        use snowprune_types::ScalarType;
        let events = || {
            let f = |n: &str, t| Field::new(n, t);
            PlanBuilder::scan(
                "events",
                Schema::new(vec![
                    f("ts", ScalarType::Int),
                    f("user_id", ScalarType::Int),
                    f("category", ScalarType::Str),
                    f("metric", ScalarType::Int),
                ]),
            )
        };
        let dim = PlanBuilder::scan(
            "dim",
            Schema::new(vec![
                Field::new("id", ScalarType::Int),
                Field::new("weight", ScalarType::Int),
            ]),
        );
        let narrow = || col("ts").between(lit(100i64), lit(200i64));
        let cases = [
            (events().limit(10), Some(Tab1Class::LimitNoPredicate)),
            (
                events().filter(narrow()).limit(10),
                Some(Tab1Class::LimitWithPredicate),
            ),
            (
                events().filter(narrow()).order_by("ts", true).limit(5),
                Some(Tab1Class::OrderByLimit),
            ),
            (
                events().order_by("metric", false).limit(5),
                Some(Tab1Class::OrderByLimit),
            ),
            (
                events()
                    .aggregate(vec!["ts"], vec![AggFunc::CountStar])
                    .order_by("ts", true)
                    .limit(5),
                Some(Tab1Class::GroupOrderKey),
            ),
            (
                events()
                    .aggregate(vec!["category"], vec![AggFunc::Sum("metric".into())])
                    .order_by("sum_metric", true)
                    .limit(5),
                Some(Tab1Class::GroupOrderAgg),
            ),
            (
                dim.filter(col("weight").lt(lit(3i64))).join(
                    events().filter(narrow()),
                    "id",
                    "user_id",
                    JoinType::Inner,
                ),
                None,
            ),
            (events().filter(narrow()), None),
            (events().project(vec!["ts", "metric"]), None),
        ];
        for (b, want) in cases {
            let plan = b.build();
            assert_eq!(tab1_class(&plan), want, "{plan}");
        }
    }

    #[test]
    fn tab1_smoke_scale_is_pinned() {
        // `reproduce --smoke tab1`: 1 000 queries at the harness seed.
        assert_eq!(
            tab1_query_mix(1_000, 20241105),
            "## Table 1 — LIMIT/top-k query mix (measured vs paper)\n\
             \x20 LIMIT w/o predicate :  0.40%  (paper 0.37%)\n\
             \x20 LIMIT w/ predicate  :  2.40%  (paper 2.23%)\n\
             \x20 ORDER BY x LIMIT k  :  5.40%  (paper 4.47%)\n\
             \x20 GROUP/ORDER key     :  0.10%  (paper 0.12%)\n\
             \x20 GROUP/ORDER agg     :  1.20%  (paper 0.96%)\n"
        );
    }

    #[test]
    fn workload_experiments_run_small() {
        let s = fig01_overview(60, 11);
        assert!(s.contains("filter"));
        let s = fig11_flow(60, 11);
        assert!(s.contains("technique-combination"));
    }
}
