//! Figure 13: TPC-H pruning ratios per query, plus the predicate-cache and
//! ablation extension experiments.

use snowprune_core::join::SummaryKind;
use snowprune_exec::{CacheOutcome, ExecConfig, Executor, Session};
use snowprune_plan::PlanBuilder;
use snowprune_workload::{all_tpch_queries, generate_tpch, TpchConfig};

/// Figure 13: per-query pruning ratios on TPC-H, clustered on
/// `l_shipdate`/`o_orderdate`.
pub fn fig13_tpch(scale: f64, seed: u64) -> String {
    let paper: [f64; 22] = [
        1.0, 0.0, 45.0, 19.0, 16.0, 84.0, 53.0, 13.0, 0.0, 57.0, 0.0, 67.0, 0.0, 96.0, 96.0, 0.0,
        0.0, 0.0, 0.0, 72.0, 4.0, 0.0,
    ];
    let mut s = String::from("## Figure 13 — TPC-H pruning ratios (clustered layout)\n");
    let catalog = generate_tpch(&TpchConfig {
        scale,
        rows_per_partition: 1200,
        clustered: true,
        seed,
    });
    let exec = Executor::new(catalog, ExecConfig::default());
    let mut ratios = Vec::new();
    for (q, plan) in all_tpch_queries() {
        let out = match exec.run(&plan) {
            Ok(o) => o,
            Err(e) => {
                s += &format!("  Q{q:<2} failed: {e}\n");
                continue;
            }
        };
        let r = out.report.pruning.overall_pruning_ratio() * 100.0;
        ratios.push(r);
        s += &format!(
            "  Q{q:<2} pruning {:>5.1}%  (paper {:>4.0}%)  [{} of {} partitions scanned]\n",
            r,
            paper[q - 1],
            out.report.pruning.partitions_scanned,
            out.report.pruning.partitions_total
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let mut sorted = ratios.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    s += &format!("  average {mean:.1}% (paper 28.7%), median {median:.1}% (paper 8.3%)\n");
    s
}

/// Companion: the same queries on the *unclustered* layout, reproducing
/// "no pruning happened with default data clustering".
pub fn fig13_tpch_unclustered(scale: f64, seed: u64) -> String {
    let catalog = generate_tpch(&TpchConfig {
        scale,
        rows_per_partition: 1200,
        clustered: false,
        seed,
    });
    let exec = Executor::new(catalog, ExecConfig::default());
    let mut total = 0.0;
    let mut n = 0;
    for (_, plan) in all_tpch_queries() {
        if let Ok(out) = exec.run(&plan) {
            total += out.report.pruning.filter_ratio();
            n += 1;
        }
    }
    format!(
        "## Figure 13 companion — unclustered TPC-H: mean filter pruning {:.1}% (paper: ~0%)\n",
        total / n.max(1) as f64 * 100.0
    )
}

/// §8.2: the predicate cache wired into the engine — cold miss records the
/// contributing partitions during execution, warm replay restricts the
/// scan set before morsel generation, and DML routed through the
/// [`Session`] keeps entries consistent. Every claim in the report is
/// asserted: warm rows are byte-identical to cold, the shuffled-layout
/// warm replay loads *strictly fewer* partitions, INSERT keeps the entry
/// (appending the new partitions), DELETE invalidates it. Returns the
/// report and the cold/warm partition loads as a tracked
/// [`crate::snapshot::Snapshot`] for `BENCH_cache.json`. The counters are
/// deterministic, so the snapshot is exact rather than sampled.
pub fn ext_cache_snap(seed: u64) -> (String, crate::snapshot::Snapshot) {
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
    use snowprune_types::{ScalarType, Value};
    let mut snap = crate::snapshot::Snapshot::new("cache").context("seed", seed);
    let mut s = String::from("## §8.2 — predicate caching wired into the engine\n");
    for (label, layout) in [
        ("clustered", Layout::ClusterBy(vec!["v".into()])),
        ("shuffled ", Layout::Shuffle(seed)),
    ] {
        let schema = Schema::new(vec![
            Field::new("v", ScalarType::Int),
            Field::new("payload", ScalarType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema.clone())
            .target_rows_per_partition(500)
            .layout(layout);
        for i in 0..50_000i64 {
            b.push_row(vec![Value::Int((i * 37) % 100_000), Value::Int(i)]);
        }
        let catalog = Catalog::new();
        catalog.register(b.build());
        let session = Session::new(
            catalog.clone(),
            ExecConfig::default().with_predicate_cache(true),
        );
        let topk = PlanBuilder::scan("t", schema.clone())
            .order_by("v", true)
            .limit(10)
            .build();
        // Cold run misses and records; warm run replays the cached set.
        // Under the full §5 machinery (boundary-sorted order + upfront
        // boundary) top-k pruning is already near-optimal, so the cache
        // must only match it — "pruning wins on sorted ones".
        let cold = session.run(&topk).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = session.run(&topk).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(warm.rows.rows, cold.rows.rows, "warm top-k not identical");
        assert!(
            warm.io.partitions_loaded <= cold.io.partitions_loaded,
            "warm replay loaded more than cold"
        );
        s += &format!(
            "  {label} top-k (full pruning): cold loads {:>3} partitions, warm replays {:>3} (of {}; {:>3} dropped by cache)\n",
            cold.io.partitions_loaded,
            warm.io.partitions_loaded,
            cold.report.pruning.partitions_total,
            warm.report.pruned_by_cache,
        );
        let metric_label = label.trim();
        snap.metric(
            format!("{metric_label}_topk_cold_loads"),
            cold.io.partitions_loaded as f64,
            "partitions",
        );
        snap.metric(
            format!("{metric_label}_topk_warm_loads"),
            warm.io.partitions_loaded as f64,
            "partitions",
        );
        // Top-k where boundary pruning is weak (random partition order, no
        // upfront boundary — the paper's "no sorting" baseline): the warm
        // replay must load *strictly fewer* partitions.
        let mut weak_cfg = ExecConfig::default().with_predicate_cache(true);
        weak_cfg.topk_order = snowprune_core::topk::PartitionOrder::Random { seed: seed ^ 7 };
        weak_cfg.topk_init_boundary = false;
        let weak = Session::new(catalog.clone(), weak_cfg);
        let cold_w = weak.run(&topk).unwrap();
        let warm_w = weak.run(&topk).unwrap();
        assert_eq!(warm_w.report.cache, CacheOutcome::Hit);
        assert_eq!(
            warm_w.rows.rows, cold_w.rows.rows,
            "weak warm not identical"
        );
        assert!(
            warm_w.io.partitions_loaded < cold_w.io.partitions_loaded,
            "weak-pruning warm replay must load strictly fewer partitions \
             ({} vs {})",
            warm_w.io.partitions_loaded,
            cold_w.io.partitions_loaded,
        );
        s += &format!(
            "  {label} top-k (weak pruning): cold loads {:>3} partitions, warm replays {:>3}\n",
            cold_w.io.partitions_loaded, warm_w.io.partitions_loaded,
        );
        snap.metric(
            format!("{metric_label}_weak_topk_cold_loads"),
            cold_w.io.partitions_loaded as f64,
            "partitions",
        );
        snap.metric(
            format!("{metric_label}_weak_topk_warm_loads"),
            warm_w.io.partitions_loaded as f64,
            "partitions",
        );
        // Filter shape on a column no layout clusters: zone maps cannot
        // prune it, the cache replays exactly the surviving partitions —
        // strictly fewer loads with byte-identical rows.
        let filt = PlanBuilder::scan("t", schema.clone())
            .filter(col("payload").between(lit(25_000i64), lit(25_004i64)))
            .build();
        let cold_f = session.run(&filt).unwrap();
        let warm_f = session.run(&filt).unwrap();
        assert_eq!(warm_f.report.cache, CacheOutcome::Hit);
        assert_eq!(
            warm_f.rows.rows, cold_f.rows.rows,
            "warm filter not identical"
        );
        assert!(
            warm_f.io.partitions_loaded < cold_f.io.partitions_loaded,
            "filter warm replay must load strictly fewer partitions"
        );
        s += &format!(
            "  {label} filter (uncl. column): cold loads {:>3} partitions, warm replays {:>3}\n",
            cold_f.io.partitions_loaded, warm_f.io.partitions_loaded,
        );
        snap.metric(
            format!("{metric_label}_filter_cold_loads"),
            cold_f.io.partitions_loaded as f64,
            "partitions",
        );
        snap.metric(
            format!("{metric_label}_filter_warm_loads"),
            warm_f.io.partitions_loaded as f64,
            "partitions",
        );
        // DML rules, routed through the session so the cache stays
        // consistent: INSERT appends (the new top-1 row must surface on a
        // *hit*), DELETE invalidates top-k entries.
        session
            .insert_rows("t", vec![vec![Value::Int(1_000_000), Value::Int(-1)]])
            .unwrap();
        let after_insert = session.run(&topk).unwrap();
        assert_eq!(after_insert.report.cache, CacheOutcome::Hit);
        assert_eq!(
            after_insert.rows.rows[0][0],
            Value::Int(1_000_000),
            "appended partition must replay"
        );
        let oracle = Executor::new(catalog.clone(), ExecConfig::default())
            .run(&topk)
            .unwrap();
        assert_eq!(after_insert.rows.rows, oracle.rows.rows);
        session
            .delete_rows("t", |row| row[0] == Value::Int(1_000_000))
            .unwrap();
        let after_delete = session.run(&topk).unwrap();
        assert_eq!(
            after_delete.report.cache,
            CacheOutcome::Miss,
            "DELETE must invalidate the top-k entry"
        );
        assert_eq!(after_delete.rows.rows, cold.rows.rows);
        let stats = session.cache_stats();
        s += &format!(
            "    DML rules: INSERT appended (still a hit), DELETE invalidated; \
             hits {} misses {} insertions {} invalidations {}\n",
            stats.hits, stats.misses, stats.insertions, stats.invalidations,
        );
        // Shape-mode fingerprints: a narrowed literal range (different
        // exact fingerprint) misses in exact mode but is served by
        // subsumption in shape mode — byte-identical to a cold no-pruning
        // oracle, never loading more partitions.
        let narrow_filter = PlanBuilder::scan("t", schema.clone())
            .filter(col("payload").between(lit(25_001i64), lit(25_003i64)))
            .build();
        let narrow_topk = PlanBuilder::scan("t", schema.clone())
            .order_by("v", true)
            .limit(4)
            .build();
        for (mode, mode_label) in [
            (snowprune_exec::PredicateCacheMode::Exact, "exact"),
            (snowprune_exec::PredicateCacheMode::Shape, "shape"),
        ] {
            let session = Session::new(
                catalog.clone(),
                ExecConfig::default()
                    .with_predicate_cache(true)
                    .with_predicate_cache_mode(mode),
            );
            // Record the wide shapes cold, then replay narrowed.
            assert_eq!(session.run(&filt).unwrap().report.cache, CacheOutcome::Miss);
            assert_eq!(session.run(&topk).unwrap().report.cache, CacheOutcome::Miss);
            let warm_filter = session.run(&narrow_filter).unwrap();
            let warm_topk = session.run(&narrow_topk).unwrap();
            let oracle = Executor::new(catalog.clone(), ExecConfig::no_pruning());
            let oracle_filter = oracle.run(&narrow_filter).unwrap();
            let oracle_topk = oracle.run(&narrow_topk).unwrap();
            let sort = |rows: &[Vec<Value>]| {
                let mut rows = rows.to_vec();
                rows.sort_by(|a, b| a[1].total_ord_cmp(&b[1]));
                rows
            };
            assert_eq!(
                sort(&warm_filter.rows.rows),
                sort(&oracle_filter.rows.rows),
                "narrowed filter diverged from the cold no-pruning oracle"
            );
            assert_eq!(
                warm_topk.rows.rows, oracle_topk.rows.rows,
                "narrowed top-k diverged from the cold no-pruning oracle"
            );
            let stats = session.cache_stats();
            match mode {
                snowprune_exec::PredicateCacheMode::Exact => {
                    assert_eq!(warm_filter.report.cache, CacheOutcome::Miss);
                    assert_eq!(warm_topk.report.cache, CacheOutcome::Miss);
                    assert_eq!(stats.shape_hits, 0);
                }
                snowprune_exec::PredicateCacheMode::Shape => {
                    assert_eq!(
                        warm_filter.report.cache,
                        CacheOutcome::ShapeHit,
                        "BETWEEN 25001 AND 25003 must be served by the \
                         BETWEEN 25000 AND 25004 entry"
                    );
                    assert_eq!(
                        warm_topk.report.cache,
                        CacheOutcome::ShapeHit,
                        "LIMIT 4 must be served by the LIMIT 10 entry"
                    );
                    assert!(stats.shape_hits > 0, "shape mode must record shape hits");
                    assert!(warm_filter.io.partitions_loaded <= oracle_filter.io.partitions_loaded);
                }
            }
            s += &format!(
                "    {label} {mode_label} mode: narrowed filter {}, narrowed top-k {} \
                 (shape_hits {}, subsumption_rejections {}, evictions {})\n",
                outcome_label(warm_filter.report.cache),
                outcome_label(warm_topk.report.cache),
                stats.shape_hits,
                stats.subsumption_rejections,
                stats.evictions,
            );
        }
    }
    s += "  paper: caching wins on shuffled layouts, pruning wins on sorted ones; combine both\n";
    (s, snap)
}

fn outcome_label(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::NotConsulted => "not consulted",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Hit => "exact hit",
        CacheOutcome::ShapeHit => "SHAPE HIT",
    }
}

/// Ablations called out in DESIGN.md: join summary sweep and top-k
/// boundary-initialization on/off.
pub fn ablations(seed: u64) -> String {
    let mut s = String::from("## Ablations\n");
    // Join summary fidelity sweep.
    let wl = crate::experiments::harness_workload(300, seed);
    for (label, kind) in [
        ("minmax summary", SummaryKind::MinMax),
        ("range-set 16", SummaryKind::RangeSet { budget: 16 }),
        ("range-set 128", SummaryKind::RangeSet { budget: 128 }),
        ("exact set", SummaryKind::Exact),
    ] {
        let mut cfg = ExecConfig::default();
        cfg.join_summary = kind;
        let exec = Executor::new(wl.catalog.clone(), cfg);
        let mut pruned = 0u64;
        let mut bytes = 0u64;
        let mut n = 0u64;
        for q in &wl.queries {
            if !matches!(q.kind, snowprune_workload::QueryKind::Join) {
                continue;
            }
            if let Ok(out) = exec.run(&q.plan) {
                pruned += out.report.pruning.pruned_by_join;
                bytes += out.report.join_summary_bytes;
                n += 1;
            }
        }
        s += &format!(
            "  {label:<16} partitions pruned {:>6} summary bytes/query {:>8} (n={n})\n",
            pruned,
            bytes / n.max(1)
        );
    }
    // Top-k boundary initialization on/off. Measured under a random
    // processing order, where a seeded boundary matters most (§5.4:
    // "enabling pruning from the very first partition").
    for init in [false, true] {
        let mut cfg = ExecConfig::default();
        cfg.topk_order = snowprune_core::topk::PartitionOrder::Random { seed: 42 };
        cfg.topk_init_boundary = init;
        let exec = Executor::new(wl.catalog.clone(), cfg);
        let mut skipped = 0u64;
        let mut considered = 0u64;
        for q in &wl.queries {
            if !matches!(q.kind, snowprune_workload::QueryKind::TopK) {
                continue;
            }
            if let Ok(out) = exec.run(&q.plan) {
                skipped += out.report.topk_stats.partitions_skipped;
                considered += out.report.topk_stats.partitions_considered;
            }
        }
        s += &format!("  topk init_boundary={init:<5} skipped {skipped:>6} of {considered}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tpch_tiny_runs() {
        let s = super::fig13_tpch(0.002, 1);
        assert!(s.contains("Q1 "), "{s}");
        assert!(s.contains("average"));
    }

    #[test]
    fn cache_experiment_runs() {
        // The experiment asserts its own claims (byte-identical warm rows,
        // strictly fewer shuffled warm loads, INSERT append, DELETE
        // invalidation) — reaching the report text means they all held.
        let s = super::ext_cache_snap(5).0;
        assert!(s.contains("warm replays"), "{s}");
        assert!(s.contains("DELETE invalidated"), "{s}");
    }
}
