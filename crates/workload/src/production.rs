//! The calibrated production-like workload: tables with realistic layout
//! diversity plus a query generator whose mix matches the statistics the
//! paper publishes (Table 1 frequencies, Figure 6 k-distribution,
//! Figure 4-style selectivity profile, Figure 12 repetitiveness).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_expr::dsl::{col, lit};
use snowprune_expr::Expr;
use snowprune_plan::{AggFunc, JoinType, Plan, PlanBuilder};
use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
use snowprune_types::{ScalarType, Value};

use crate::kdist::sample_k;

/// What kind of query the generator produced (drives per-figure filtering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// SELECT with ≥1 predicate, no LIMIT.
    FilteredSelect,
    /// SELECT without predicates.
    FullScan,
    /// LIMIT without predicate.
    LimitNoPredicate,
    /// LIMIT with predicate.
    LimitWithPredicate,
    /// ORDER BY x LIMIT k.
    TopK,
    /// GROUP BY x ORDER BY x LIMIT k.
    TopKGroupByKey,
    /// GROUP BY y ORDER BY agg(x) LIMIT k (not prunable, §5.2).
    TopKGroupByAgg,
    /// Join query.
    Join,
}

/// A generated query.
#[derive(Clone, Debug)]
pub struct GeneratedQuery {
    /// The logical plan to execute.
    pub plan: Plan,
    /// Which generator arm produced it.
    pub kind: QueryKind,
}

/// Workload generation parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// Rows per micro-partition for the generated tables.
    pub rows_per_partition: usize,
    /// Partitions in the large fact tables.
    pub fact_partitions: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 500,
            rows_per_partition: 500,
            fact_partitions: 80,
        }
    }
}

/// A generated catalog + query stream.
pub struct ProductionWorkload {
    /// The generated tables.
    pub catalog: Catalog,
    /// The generated query stream.
    pub queries: Vec<GeneratedQuery>,
}

fn events_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", ScalarType::Int),
        Field::new("user_id", ScalarType::Int),
        Field::new("category", ScalarType::Str),
        Field::new("metric", ScalarType::Int),
        Field::new("name", ScalarType::Str),
    ])
}

fn dim_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", ScalarType::Int),
        Field::new("label", ScalarType::Str),
        Field::new("weight", ScalarType::Int),
    ])
}

/// Build the workload tables: fact tables with clustered / partially
/// clustered / shuffled layouts plus a small dimension table. The layout
/// mix is what produces the Figure 4 shape (a large well-clustered share
/// pruning ≥90%, a long tail pruning nothing).
fn build_tables(catalog: &Catalog, cfg: &WorkloadConfig, rng: &mut StdRng) {
    let categories = ["web", "mobile", "batch", "iot", "ops", "ml"];
    let rows = cfg.rows_per_partition * cfg.fact_partitions;
    for (name, layout) in [
        ("events_clustered", Layout::ClusterBy(vec!["ts".into()])),
        ("events_partial", Layout::Natural),
        ("events_shuffled", Layout::Shuffle(17)),
        // Clustered by the join key: the "sufficient correlation in data
        // layout between build and probe sides" that §8.3 calls out as a
        // precondition for join pruning.
        ("events_bykey", Layout::ClusterBy(vec!["user_id".into()])),
    ] {
        let mut b = TableBuilder::new(name, events_schema())
            .target_rows_per_partition(cfg.rows_per_partition)
            .layout(layout);
        for i in 0..rows as i64 {
            // "Partial" layout: mostly increasing ts with local jitter, the
            // common ingestion pattern (roughly time-ordered arrival).
            let ts = match name {
                "events_partial" => i * 10 + rng.random_range(-2000i64..2000),
                _ => i * 10,
            };
            b.push_row(vec![
                Value::Int(ts),
                Value::Int(rng.random_range(0..100_000)),
                Value::Str(categories[rng.random_range(0..categories.len())].into()),
                Value::Int(rng.random_range(0..1_000_000)),
                Value::Str(format!("name-{:06}", rng.random_range(0..100_000))),
            ]);
        }
        catalog.register(b.build());
    }
    let mut dim = TableBuilder::new("dim_users", dim_schema()).target_rows_per_partition(1000);
    for i in 0..2000i64 {
        dim.push_row(vec![
            // Contiguous ids at the bottom of the fact key space: selective
            // dimension filters produce key sets whose range excludes most
            // key-clustered fact partitions.
            Value::Int(i),
            Value::Str(format!("label-{i}")),
            Value::Int(rng.random_range(0..100)),
        ]);
    }
    catalog.register(dim.build());
}

/// Generate the workload.
pub fn generate(cfg: &WorkloadConfig, seed: u64) -> ProductionWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::new();
    build_tables(&catalog, cfg, &mut rng);
    let max_ts = (cfg.rows_per_partition * cfg.fact_partitions) as i64 * 10;

    // Figure 12: plan shapes are drawn from a heavy-tailed template pool so
    // ~85% of shapes appear exactly once in a 3-day-sized sample.
    let mut queries = Vec::with_capacity(cfg.queries);
    for _ in 0..cfg.queries {
        let kind = sample_kind(&mut rng);
        queries.push(match kind {
            QueryKind::FilteredSelect => gen_filtered_select(&mut rng, max_ts),
            QueryKind::FullScan => gen_full_scan(&mut rng),
            QueryKind::LimitNoPredicate => gen_limit(&mut rng, max_ts, false),
            QueryKind::LimitWithPredicate => gen_limit(&mut rng, max_ts, true),
            QueryKind::TopK => gen_topk(&mut rng, max_ts),
            QueryKind::TopKGroupByKey => gen_topk_group_key(&mut rng),
            QueryKind::TopKGroupByAgg => gen_topk_group_agg(&mut rng),
            QueryKind::Join => gen_join(&mut rng, max_ts),
        });
    }
    ProductionWorkload { catalog, queries }
}

/// Query-type mix calibrated to Table 1 (LIMIT 2.60% split 0.37/2.23;
/// top-k 5.55% split 4.47/0.12/0.96) with the remainder split between
/// filtered selects, full scans, and joins.
fn sample_kind(rng: &mut StdRng) -> QueryKind {
    let r: f64 = rng.random::<f64>() * 100.0;
    if r < 0.37 {
        QueryKind::LimitNoPredicate
    } else if r < 2.60 {
        QueryKind::LimitWithPredicate
    } else if r < 2.60 + 4.47 {
        QueryKind::TopK
    } else if r < 2.60 + 4.59 {
        QueryKind::TopKGroupByKey
    } else if r < 2.60 + 5.55 {
        QueryKind::TopKGroupByAgg
    } else if r < 2.60 + 5.55 + 12.0 {
        QueryKind::Join
    } else if r < 2.60 + 5.55 + 12.0 + 14.0 {
        QueryKind::FullScan
    } else {
        QueryKind::FilteredSelect
    }
}

fn fact_table(rng: &mut StdRng) -> (&'static str, bool) {
    // (name, is_clustered_on_ts): the mix shapes Figure 4's CDF.
    match rng.random_range(0..10) {
        0..=5 => ("events_clustered", true),
        6..=7 => ("events_partial", true),
        _ => ("events_shuffled", false),
    }
}

/// A predicate whose selectivity follows the paper's "real-world queries
/// are much more selective than benchmarks assume" profile: many narrow
/// time-range scans, some moderate, some non-selective, plus predicates on
/// unclustered columns (prunable in principle, not in practice).
fn gen_predicate(rng: &mut StdRng, max_ts: i64) -> Expr {
    let r: f64 = rng.random();
    if r < 0.55 {
        // Narrow ts range: 0.1% - 2% of the key space.
        let width = (max_ts as f64 * rng.random_range(0.001..0.02)) as i64;
        let start = rng.random_range(0..(max_ts - width).max(1));
        col("ts").between(lit(start), lit(start + width))
    } else if r < 0.70 {
        // Moderate range: 5% - 30%.
        let width = (max_ts as f64 * rng.random_range(0.05..0.30)) as i64;
        let start = rng.random_range(0..(max_ts - width).max(1));
        col("ts").between(lit(start), lit(start + width))
    } else if r < 0.80 {
        // Point-ish lookup on ts plus a category filter.
        let start = rng.random_range(0..max_ts);
        col("ts")
            .ge(lit(start))
            .and(col("ts").lt(lit(start + 500)))
            .and(col("category").eq(lit("iot")))
    } else if r < 0.93 {
        // Unclustered column: pruning-eligible but ineffective.
        col("metric").lt(lit(rng.random_range(1000i64..900_000)))
    } else {
        // Non-selective: covers nearly everything.
        col("ts").ge(lit(0i64))
    }
}

fn gen_filtered_select(rng: &mut StdRng, max_ts: i64) -> GeneratedQuery {
    let (table, _) = fact_table(rng);
    let plan = PlanBuilder::scan(table, events_schema())
        .filter(gen_predicate(rng, max_ts))
        .build();
    GeneratedQuery {
        plan,
        kind: QueryKind::FilteredSelect,
    }
}

fn gen_full_scan(rng: &mut StdRng) -> GeneratedQuery {
    let (table, _) = fact_table(rng);
    let plan = PlanBuilder::scan(table, events_schema())
        .project(vec!["ts", "metric"])
        .build();
    GeneratedQuery {
        plan,
        kind: QueryKind::FullScan,
    }
}

fn gen_limit(rng: &mut StdRng, max_ts: i64, with_predicate: bool) -> GeneratedQuery {
    let (table, _) = fact_table(rng);
    let mut b = PlanBuilder::scan(table, events_schema());
    if with_predicate {
        b = b.filter(gen_predicate(rng, max_ts));
    }
    let k = sample_k(rng, true);
    GeneratedQuery {
        plan: b.limit(k).build(),
        kind: if with_predicate {
            QueryKind::LimitWithPredicate
        } else {
            QueryKind::LimitNoPredicate
        },
    }
}

fn gen_topk(rng: &mut StdRng, max_ts: i64) -> GeneratedQuery {
    let (table, _) = fact_table(rng);
    let mut b = PlanBuilder::scan(table, events_schema());
    if rng.random::<f64>() < 0.7 {
        b = b.filter(gen_predicate(rng, max_ts));
    }
    let order_col = if rng.random::<f64>() < 0.75 {
        "ts"
    } else {
        "metric"
    };
    let k = sample_k(rng, false).min(1000);
    GeneratedQuery {
        plan: b
            .order_by(order_col, rng.random::<f64>() < 0.8)
            .limit(k)
            .build(),
        kind: QueryKind::TopK,
    }
}

fn gen_topk_group_key(rng: &mut StdRng) -> GeneratedQuery {
    let (table, _) = fact_table(rng);
    let plan = PlanBuilder::scan(table, events_schema())
        .aggregate(vec!["ts"], vec![AggFunc::CountStar])
        .order_by("ts", true)
        .limit(sample_k(rng, false).min(100))
        .build();
    GeneratedQuery {
        plan,
        kind: QueryKind::TopKGroupByKey,
    }
}

fn gen_topk_group_agg(rng: &mut StdRng) -> GeneratedQuery {
    let (table, _) = fact_table(rng);
    let plan = PlanBuilder::scan(table, events_schema())
        .aggregate(vec!["category"], vec![AggFunc::Sum("metric".into())])
        .order_by("sum_metric", true)
        .limit(sample_k(rng, false).min(100))
        .build();
    GeneratedQuery {
        plan,
        kind: QueryKind::TopKGroupByAgg,
    }
}

fn gen_join(rng: &mut StdRng, max_ts: i64) -> GeneratedQuery {
    // Probe side: mostly the key-clustered fact (join pruning effective),
    // sometimes a time-clustered one (join pruning eligible but weak).
    let fact = if rng.random::<f64>() < 0.65 {
        "events_bykey"
    } else {
        fact_table(rng).0
    };
    // Build-side selectivity mix: ~10% of builds are empty (Figure 10's
    // 13%-at-100% population), the rest select a small dimension slice.
    let r: f64 = rng.random();
    let weight_cut = if r < 0.10 {
        -1 // empty build side
    } else if r < 0.75 {
        rng.random_range(1i64..8)
    } else {
        rng.random_range(8i64..40)
    };
    let mut dim =
        PlanBuilder::scan("dim_users", dim_schema()).filter(col("weight").lt(lit(weight_cut)));
    // Often narrow the build side to a random id window, varying how much
    // of the probe key space the summary covers (drives the Figure 10
    // spread rather than a single ratio).
    if rng.random::<f64>() < 0.6 {
        let lo = rng.random_range(0i64..1800);
        let hi = lo + rng.random_range(20i64..800);
        dim = dim.filter(col("id").between(lit(lo), lit(hi)));
    }
    let mut probe = PlanBuilder::scan(fact, events_schema());
    if rng.random::<f64>() < 0.4 {
        probe = probe.filter(gen_predicate(rng, max_ts));
    }
    let plan = dim.join(probe, "id", "user_id", JoinType::Inner).build();
    GeneratedQuery {
        plan,
        kind: QueryKind::Join,
    }
}

/// I/O-bound burst for the prefetch experiment: wide filtered range scans
/// over the clustered fact table, no LIMIT/top-k shapes. The partition set
/// is fixed at scan-compile time, so sweeping the prefetch depth changes
/// *only* the overlap accounting — never which partitions load — which is
/// exactly what makes the depth-1 vs depth-n wall-clock comparison fair.
pub fn io_bound_burst(cfg: &WorkloadConfig, seed: u64) -> ProductionWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::new();
    build_tables(&catalog, cfg, &mut rng);
    let max_ts = (cfg.rows_per_partition * cfg.fact_partitions) as i64 * 10;
    let queries = (0..cfg.queries)
        .map(|_| {
            // Wide windows (~40-80% of the key space): plenty of partitions
            // survive pruning, so the scan is dominated by partition GETs.
            let width = max_ts * 2 / 5 + rng.random_range(0..max_ts * 2 / 5);
            let lo = rng.random_range(0..(max_ts - width).max(1));
            let plan = PlanBuilder::scan("events_clustered", events_schema())
                .filter(col("ts").between(lit(lo), lit(lo + width)))
                .build();
            GeneratedQuery {
                plan,
                kind: QueryKind::FilteredSelect,
            }
        })
        .collect();
    ProductionWorkload { catalog, queries }
}

/// Top-k burst engineered so the pruning boundary tightens *mid-scan*: an
/// ascending top-k over the `ts`-clustered fact, whose first partition
/// alone fills the heap. Every later partition becomes prunable only once
/// that first partition has been evaluated — so a prefetching scan always
/// has loads in flight at the moment the boundary snaps shut, and those
/// loads are cancelled before their I/O is charged (run with upfront
/// boundary seeding disabled, or the scan never submits them at all).
pub fn topk_tighten_burst(cfg: &WorkloadConfig, seed: u64) -> ProductionWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::new();
    build_tables(&catalog, cfg, &mut rng);
    let queries = (0..cfg.queries)
        .map(|_| {
            let k = rng.random_range(1u64..(cfg.rows_per_partition as u64 / 2).max(2));
            let plan = PlanBuilder::scan("events_clustered", events_schema())
                .order_by("ts", false)
                .limit(k)
                .build();
            GeneratedQuery {
                plan,
                kind: QueryKind::TopK,
            }
        })
        .collect();
    ProductionWorkload { catalog, queries }
}

/// Parameters for the production-*scale* multi-tenant burst: a lake with
/// orders of magnitude more micro-partitions than the calibrated stream
/// workload, and arrivals attributed to tenants under a skewed (Zipf)
/// popularity distribution — a few tenants dominate the burst, a long
/// tail contributes single queries, mirroring fleet telemetry.
#[derive(Clone, Debug)]
pub struct ProductionScaleConfig {
    /// Distinct tenant sessions contributing arrivals.
    pub tenants: usize,
    /// Total arrivals in the burst.
    pub queries: usize,
    /// Micro-partitions in the scale fact table (default 100k).
    pub fact_partitions: usize,
    /// Rows per micro-partition (small: the scale axis is partitions, and
    /// scans over the lake stay I/O-bound under the default cost model).
    pub rows_per_partition: usize,
    /// Zipf exponent for tenant arrival skew (higher = more skewed).
    pub zipf_s: f64,
}

impl Default for ProductionScaleConfig {
    fn default() -> Self {
        ProductionScaleConfig {
            tenants: 512,
            queries: 2048,
            fact_partitions: 100_000,
            rows_per_partition: 8,
            zipf_s: 1.1,
        }
    }
}

/// A production-scale burst: the lake plus `(tenant, query)` arrivals in
/// arrival order, ready for `Session::run_admitted`.
pub struct ProductionScaleWorkload {
    /// The catalog holding the scale lake.
    pub catalog: Catalog,
    /// Arrivals in order: tenant id plus the generated query.
    pub arrivals: Vec<(u64, GeneratedQuery)>,
}

fn scale_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", ScalarType::Int),
        Field::new("tenant_key", ScalarType::Int),
        Field::new("metric", ScalarType::Int),
    ])
}

/// Generate the production-scale multi-tenant burst.
///
/// Every query shape here has a partition set decided at compile time (ts
/// ranges over a strictly-clustered fact) or derived from a deterministic
/// build side (dimension joins) — no top-k boundaries or LIMIT stop
/// signals — so per-query counters are bit-identical under any pool
/// interleaving and the burst is safe to fingerprint in the stress suite.
pub fn production_scale(cfg: &ProductionScaleConfig, seed: u64) -> ProductionScaleWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::new();

    // The scale lake: all-integer columns, strictly increasing ts, no rng
    // in the row loop — building 100k+ partitions has to be cheap.
    let rows = (cfg.rows_per_partition * cfg.fact_partitions) as i64;
    let mut fact = TableBuilder::new("scale_events", scale_schema())
        .target_rows_per_partition(cfg.rows_per_partition)
        .layout(Layout::ClusterBy(vec!["ts".into()]));
    for i in 0..rows {
        fact.push_row(vec![
            Value::Int(i * 10),
            Value::Int(i % 4096),
            Value::Int((i * 7919) % 1_000_000),
        ]);
    }
    catalog.register(fact.build());
    let mut dim = TableBuilder::new("scale_dim", dim_schema()).target_rows_per_partition(64);
    for i in 0..256i64 {
        dim.push_row(vec![
            Value::Int(i),
            Value::Str(format!("tenant-{i}")),
            Value::Int(i % 100),
        ]);
    }
    catalog.register(dim.build());

    // Zipf CDF over tenant ranks: tenant r arrives with weight 1/(r+1)^s.
    let weights: Vec<f64> = (0..cfg.tenants.max(1))
        .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let max_ts = rows * 10;
    let arrivals = (0..cfg.queries)
        .map(|_| {
            let u: f64 = rng.random();
            let tenant = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
            let r: f64 = rng.random();
            let plan = if r < 0.70 {
                // Narrow dashboard slice: 0.05% - 1% of the key space.
                let width = ((max_ts as f64) * rng.random_range(0.0005..0.01)) as i64;
                let lo = rng.random_range(0..(max_ts - width).max(1));
                PlanBuilder::scan("scale_events", scale_schema())
                    .filter(col("ts").between(lit(lo), lit(lo + width)))
                    .build()
            } else if r < 0.90 {
                // Moderate report window: 2% - 8%.
                let width = ((max_ts as f64) * rng.random_range(0.02..0.08)) as i64;
                let lo = rng.random_range(0..(max_ts - width).max(1));
                PlanBuilder::scan("scale_events", scale_schema())
                    .filter(col("ts").between(lit(lo), lit(lo + width)))
                    .project(vec!["ts", "metric"])
                    .build()
            } else {
                // Dimension join: the build side is a deterministic dim
                // slice, so the probe's partition set is too.
                let lo = rng.random_range(0i64..200);
                let hi = lo + rng.random_range(8i64..56);
                PlanBuilder::scan("scale_dim", dim_schema())
                    .filter(col("id").between(lit(lo), lit(hi)))
                    .join(
                        PlanBuilder::scan("scale_events", scale_schema()),
                        "id",
                        "tenant_key",
                        JoinType::Inner,
                    )
                    .build()
            };
            let kind = if r < 0.90 {
                QueryKind::FilteredSelect
            } else {
                QueryKind::Join
            };
            (tenant, GeneratedQuery { plan, kind })
        })
        .collect();
    ProductionScaleWorkload { catalog, arrivals }
}

/// Figure 12: repetitiveness model. Draws `n` top-k queries where shapes
/// follow a heavy-tailed popularity distribution calibrated so that ~85%
/// of observed shapes occur exactly once over a 3-day-sized window.
pub fn repetition_shape_ids(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut next_fresh: u64 = 1_000_000;
    let mut seen: Vec<u64> = Vec::new();
    for _ in 0..n {
        // 88% of arrivals are brand-new shapes (ad-hoc analysis); the rest
        // re-draw from recently seen shapes with Zipf-ish preference.
        if seen.is_empty() || rng.random::<f64>() < 0.88 {
            next_fresh += 1;
            seen.push(next_fresh);
            out.push(next_fresh);
        } else {
            // Prefer recent/popular shapes.
            let idx = (rng.random::<f64>().powi(3) * seen.len() as f64) as usize;
            let id = seen[seen.len() - 1 - idx.min(seen.len() - 1)];
            out.push(id);
        }
    }
    out
}

/// Histogram of occurrence counts (Figure 12's x-axis: 1, 2, .., >=6).
pub fn occurrence_histogram(ids: &[u64]) -> Vec<(String, f64)> {
    use std::collections::HashMap;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for id in ids {
        *counts.entry(*id).or_insert(0) += 1;
    }
    let total = counts.len() as f64;
    let mut buckets = [0u64; 6];
    for (_, c) in counts {
        let b = (c.min(6) - 1) as usize;
        buckets[b] += 1;
    }
    buckets
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let label = if i == 5 {
                ">=6".to_owned()
            } else {
                format!("{}", i + 1)
            };
            (label, c as f64 / total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_plans() {
        let wl = generate(
            &WorkloadConfig {
                queries: 120,
                rows_per_partition: 100,
                fact_partitions: 10,
            },
            7,
        );
        assert_eq!(wl.queries.len(), 120);
        for q in &wl.queries {
            q.plan.check().unwrap();
        }
        assert_eq!(wl.catalog.table_names().len(), 5);
    }

    #[test]
    fn mix_is_roughly_calibrated() {
        let wl = generate(
            &WorkloadConfig {
                queries: 4000,
                rows_per_partition: 50,
                fact_partitions: 4,
            },
            13,
        );
        let frac = |k: QueryKind| {
            wl.queries.iter().filter(|q| q.kind == k).count() as f64 / wl.queries.len() as f64
        };
        let limit_total = frac(QueryKind::LimitNoPredicate) + frac(QueryKind::LimitWithPredicate);
        assert!(
            (limit_total - 0.026).abs() < 0.01,
            "LIMIT share {limit_total}"
        );
        let topk_total = frac(QueryKind::TopK)
            + frac(QueryKind::TopKGroupByKey)
            + frac(QueryKind::TopKGroupByAgg);
        assert!(
            (topk_total - 0.0555).abs() < 0.015,
            "topk share {topk_total}"
        );
    }

    #[test]
    fn prefetch_bursts_have_expected_shapes() {
        let cfg = WorkloadConfig {
            queries: 8,
            rows_per_partition: 40,
            fact_partitions: 6,
        };
        let io = io_bound_burst(&cfg, 9);
        assert_eq!(io.queries.len(), 8);
        for q in &io.queries {
            q.plan.check().unwrap();
            assert_eq!(q.kind, QueryKind::FilteredSelect);
        }
        let topk = topk_tighten_burst(&cfg, 9);
        for q in &topk.queries {
            q.plan.check().unwrap();
            assert_eq!(q.kind, QueryKind::TopK);
        }
    }

    #[test]
    fn production_scale_burst_is_skewed_and_valid() {
        let cfg = ProductionScaleConfig {
            tenants: 32,
            queries: 400,
            fact_partitions: 200,
            rows_per_partition: 8,
            zipf_s: 1.1,
        };
        let wl = production_scale(&cfg, 11);
        assert_eq!(wl.arrivals.len(), 400);
        let mut per_tenant = vec![0usize; cfg.tenants];
        for (tenant, q) in &wl.arrivals {
            q.plan.check().unwrap();
            per_tenant[*tenant as usize] += 1;
        }
        // Zipf skew: the most popular tenant dominates the median tenant.
        let max = *per_tenant.iter().max().unwrap();
        let busy = per_tenant.iter().filter(|&&c| c > 0).count();
        assert!(busy >= cfg.tenants / 2, "long tail exists ({busy} active)");
        assert!(
            max >= 400 / cfg.tenants * 4,
            "head tenant ({max} arrivals) must dominate a uniform share"
        );
        // The scale axis is partitions: the fact table really has them.
        let parts = wl
            .catalog
            .get("scale_events")
            .unwrap()
            .read()
            .partition_count();
        assert_eq!(parts, cfg.fact_partitions);
    }

    #[test]
    fn repetition_is_mostly_singletons() {
        let ids = repetition_shape_ids(3000, 3);
        let hist = occurrence_histogram(&ids);
        let singles = hist[0].1;
        assert!(
            (0.80..0.92).contains(&singles),
            "singleton share {singles} (paper: 85%)"
        );
    }
}
