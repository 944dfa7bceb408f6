//! Concurrency stress suite: 16 queries on a small shared worker pool,
//! repeated 100×, asserting per-query prune counters, I/O totals, and row
//! results are **exactly reproducible** across runs — no lost counter
//! updates, no cross-query crosstalk, fully deterministic given the seed.
//!
//! The query set deliberately sticks to shapes whose partition set is
//! decided at compile time or is scan-order-insensitive (filtered selects,
//! full scans, joins, and LIMITs that prune to a minimal cover): for those,
//! even arbitrary morsel interleavings must reproduce identical counters.
//! Shapes with timing-dependent I/O (racing early-stop, top-k boundary
//! skips mid-flight) are covered by the differential and property suites,
//! which check result-invariance rather than counter equality.
//!
//! Every leg runs at every engine configuration in `common/lattice.rs`
//! (pool size × prefetch depth, batch size, plan verifier); the
//! mixed-depth leg keeps its own depths (1, 2, 8 round-robin across
//! queries sharing one pool) and must be equally reproducible.

mod common {
    pub mod lattice;
}

use common::lattice::POINTS;
use snowprune::prelude::*;

const RUNS: usize = 100;
const QUERIES: usize = 16;

fn catalog() -> Catalog {
    let fact_schema = Schema::new(vec![
        Field::new("ts", ScalarType::Int),
        Field::new("key", ScalarType::Int),
        Field::new("val", ScalarType::Int),
    ]);
    let mut fact = TableBuilder::new("fact", fact_schema)
        .target_rows_per_partition(32)
        .layout(Layout::ClusterBy(vec!["ts".into()]));
    for i in 0..512i64 {
        fact.push_row(vec![
            Value::Int(i),
            // Correlated with the ts clustering (each partition covers a
            // narrow key window) — the §8.3 precondition for join pruning.
            Value::Int(i / 8),
            Value::Int((i * 7919) % 1000),
        ]);
    }
    let dim_schema = Schema::new(vec![
        Field::new("id", ScalarType::Int),
        Field::new("w", ScalarType::Int),
    ]);
    let mut dim = TableBuilder::new("dim", dim_schema).target_rows_per_partition(16);
    for id in 0..64i64 {
        dim.push_row(vec![Value::Int(id), Value::Int(id % 10)]);
    }
    let c = Catalog::new();
    c.register(fact.build());
    c.register(dim.build());
    c
}

fn schema_of(c: &Catalog, t: &str) -> Schema {
    c.get(t).unwrap().read().schema().clone()
}

fn queries(c: &Catalog) -> Vec<Plan> {
    let fact = schema_of(c, "fact");
    let dim = schema_of(c, "dim");
    let mut plans = Vec::with_capacity(QUERIES);
    // 8 filtered selects with staggered, partially overlapping ranges.
    for i in 0..8i64 {
        plans.push(
            PlanBuilder::scan("fact", fact.clone())
                .filter(col("ts").between(lit(i * 60), lit(i * 60 + 150)))
                .build(),
        );
    }
    // 2 full scans (projected / raw).
    plans.push(
        PlanBuilder::scan("fact", fact.clone())
            .project(vec!["ts", "val"])
            .build(),
    );
    plans.push(PlanBuilder::scan("fact", fact.clone()).build());
    // 3 joins with build sides of varying selectivity.
    for w in [2i64, 5, 9] {
        plans.push(
            PlanBuilder::scan("dim", dim.clone())
                .filter(col("w").lt(lit(w)))
                .join(
                    PlanBuilder::scan("fact", fact.clone()),
                    "id",
                    "key",
                    JoinType::Inner,
                )
                .build(),
        );
    }
    // 3 LIMITs without predicate: LIMIT pruning shrinks the scan set to a
    // minimal fully-matching cover at compile time, so the partition set —
    // and therefore every counter — is deterministic on the pool.
    for k in [10u64, 40, 90] {
        plans.push(PlanBuilder::scan("fact", fact.clone()).limit(k).build());
    }
    assert_eq!(plans.len(), QUERIES);
    plans
}

/// Everything that must be bit-identical across repeated runs. `io` is the
/// full per-query `IoSnapshot`, so the prefetch pipeline's virtual-clock
/// accounting (overlap, cancellations, simulated wall) must also reproduce
/// exactly under arbitrary morsel interleavings.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    partitions_total: u64,
    partitions_scanned: u64,
    pruned_by_filter: u64,
    pruned_by_limit: u64,
    pruned_by_join: u64,
    pruned_by_topk: u64,
    io: snowprune::storage::IoSnapshot,
    scan: snowprune::exec::ScanRunStats,
    row_count: usize,
    rows_sorted: Vec<Vec<Value>>,
}

fn fingerprint(out: &QueryOutput) -> Fingerprint {
    let mut rows = out.rows.rows.clone();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let ord = x.total_ord_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let p = &out.report.pruning;
    Fingerprint {
        partitions_total: p.partitions_total,
        partitions_scanned: p.partitions_scanned,
        pruned_by_filter: p.pruned_by_filter,
        pruned_by_limit: p.pruned_by_limit,
        pruned_by_join: p.pruned_by_join,
        pruned_by_topk: p.pruned_by_topk,
        io: out.io,
        scan: out.report.scan_stats,
        row_count: out.rows.len(),
        rows_sorted: rows,
    }
}

#[test]
fn sixteen_queries_on_shared_pool_are_exactly_reproducible() {
    let catalog = catalog();
    let plans = queries(&catalog);
    for p in &POINTS {
        let cfg = p
            .apply(ExecConfig::default())
            .with_scan_threads(p.scan_threads);

        let run_once = || -> Vec<Fingerprint> {
            let session = Session::new(catalog.clone(), cfg.clone());
            session
                .run_batch(&plans)
                .into_iter()
                .map(|r| fingerprint(&r.expect("query failed")))
                .collect()
        };

        let reference = run_once();
        // Sanity: the workload actually exercises each pruning technique
        // and per-query accounting is self-consistent.
        assert!(reference.iter().any(|f| f.pruned_by_filter > 0));
        assert!(reference.iter().any(|f| f.pruned_by_limit > 0));
        assert!(reference.iter().any(|f| f.pruned_by_join > 0));
        for f in &reference {
            assert_eq!(f.partitions_scanned, f.io.partitions_loaded);
            assert_eq!(f.row_count, f.rows_sorted.len());
            // Pipeline invariant and load/record lockstep.
            assert_eq!(
                f.scan.loaded + f.scan.skipped_by_boundary + f.scan.cancelled_in_flight(),
                f.scan.considered
            );
            assert_eq!(f.scan.loaded, f.io.partitions_loaded);
            assert_eq!(f.scan.cancelled_in_flight(), f.io.loads_cancelled);
        }

        for run in 1..RUNS {
            let got = run_once();
            for (qi, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g, r, "run {run} query {qi} diverged at {p:?}");
            }
        }
    }
}

/// Production-scale admission leg: 256 queries across 64 tenants with
/// Zipf-skewed arrivals on a small shared pool, run through the
/// admission-controlled windowed FIFO with adaptive prefetch depth. The
/// fingerprint covers every admitted query's counters and rows **plus**
/// the per-tenant [`snowprune::exec::TenantStats`] (queue waits, lane
/// gaps, morsel counts, depth histories) — all of it must be bit-identical
/// across 100 repetitions, because both the stats and the adaptive depths
/// are computed from virtual clocks and the windowed-FIFO discipline, not
/// from host scheduling.
#[test]
fn admitted_multi_tenant_burst_is_exactly_reproducible() {
    use snowprune::exec::TenantStats;
    use snowprune::workload::{production_scale, ProductionScaleConfig};

    let scale = ProductionScaleConfig {
        tenants: 64,
        queries: 256,
        fact_partitions: 96,
        rows_per_partition: 8,
        zipf_s: 1.1,
    };
    let wl = production_scale(&scale, 0x5eed);
    // Every one of the 64 tenant sessions contributes at least one query
    // (the leading arrivals cycle through the fleet); the rest of the
    // burst keeps the generator's Zipf skew.
    let arrivals: Vec<(u64, Plan)> = wl
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, (t, q))| {
            let tenant = if i < scale.tenants { i as u64 } else { *t };
            (tenant, q.plan.clone())
        })
        .collect();
    for p in &POINTS {
        let cfg = p
            .apply(ExecConfig::default())
            .with_scan_threads(p.scan_threads)
            .with_tenant_max_concurrent(2)
            .with_admission_queue_cap(6)
            .with_adaptive_prefetch(true)
            .with_prefetch_max_depth(8);

        let run_once = || -> (Vec<Option<Fingerprint>>, Vec<TenantStats>) {
            let session = Session::new(wl.catalog.clone(), cfg.clone());
            let run = session.run_admitted(&arrivals);
            let outcomes = run
                .outcomes
                .iter()
                .map(|o| o.output().map(fingerprint))
                .collect();
            (outcomes, run.tenants)
        };

        let (ref_outcomes, ref_tenants) = run_once();
        // The skewed burst must actually exercise admission control: the
        // Zipf head tenants overflow their 2-running + 6-queued windows.
        let rejected = ref_outcomes.iter().filter(|o| o.is_none()).count();
        assert!(rejected > 0, "no rejections: the burst never hit the caps");
        assert!(
            ref_outcomes.len() - rejected >= 128,
            "most of the burst should still be admitted"
        );
        assert_eq!(ref_tenants.len(), scale.tenants);
        for t in &ref_tenants {
            assert!(
                t.depth_hist.iter().all(|&d| (1..=8).contains(&d)),
                "tenant {} adaptive depth out of bounds: {:?}",
                t.tenant,
                t.depth_hist
            );
        }

        for run in 1..RUNS {
            let (outcomes, tenants) = run_once();
            for (qi, (g, r)) in outcomes.iter().zip(&ref_outcomes).enumerate() {
                assert_eq!(
                    g, r,
                    "run {run} arrival {qi} diverged under admission at {p:?}"
                );
            }
            assert_eq!(
                tenants, ref_tenants,
                "run {run} TenantStats diverged at {p:?}"
            );
        }
    }
}

/// The 16-query burst with *heterogeneous* prefetch depths — queries are
/// assigned depths 1, 2, 8 round-robin but share one worker pool — must be
/// just as reproducible: per-query counters and the full `IoSnapshot`
/// (including overlap and virtual wall-clock) bit-identical across 100
/// repetitions. Depth is per-lane state, so mixing depths on shared
/// workers must introduce no crosstalk.
#[test]
fn mixed_prefetch_depth_pool_runs_are_reproducible() {
    const DEPTHS: [usize; 3] = [1, 2, 8];
    let catalog = catalog();
    let plans = queries(&catalog);
    for p in &POINTS {
        let base = p
            .apply(ExecConfig::default())
            .with_scan_threads(p.scan_threads);

        let run_once = || -> Vec<Fingerprint> {
            let pool = MorselPool::new(p.scan_threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = plans
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| {
                        let cfg = base.clone().with_prefetch_depth(DEPTHS[i % DEPTHS.len()]);
                        let pool = std::sync::Arc::clone(&pool);
                        let exec = Executor::with_pool(catalog.clone(), cfg, pool);
                        scope.spawn(move || exec.run(plan).expect("query failed"))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| fingerprint(&h.join().expect("driver panicked")))
                    .collect()
            })
        };

        let reference = run_once();
        for (qi, f) in reference.iter().enumerate() {
            assert_eq!(
                f.scan.loaded + f.scan.skipped_by_boundary + f.scan.cancelled_in_flight(),
                f.scan.considered,
                "query {qi} violates the pipeline invariant at {p:?}"
            );
            assert_eq!(f.scan.loaded, f.io.partitions_loaded, "query {qi} at {p:?}");
        }
        // Depth must not change which partitions load for these shapes —
        // only the overlap accounting; depth-1 lanes can never overlap.
        for (qi, f) in reference.iter().enumerate() {
            if qi % DEPTHS.len() == 0 {
                assert_eq!(f.io.io_overlapped_ns, 0, "depth-1 query {qi} overlapped");
            }
        }
        assert!(
            reference
                .iter()
                .enumerate()
                .any(|(qi, f)| qi % DEPTHS.len() != 0 && f.io.io_overlapped_ns > 0),
            "deeper lanes should overlap some I/O at {p:?}"
        );

        for run in 1..RUNS {
            let got = run_once();
            for (qi, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g,
                    r,
                    "run {run} query {qi} (depth {}) diverged on a mixed-depth pool at {p:?}",
                    DEPTHS[qi % DEPTHS.len()]
                );
            }
        }
    }
}
