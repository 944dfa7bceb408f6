//! Multi-query session driver: the virtual-warehouse front door.
//!
//! A [`Session`] owns one shared [`MorselPool`] and runs batches of
//! compiled queries concurrently on it. Each query gets its own driver
//! (one scoped thread), its own [`snowprune_storage::IoStats`] handle, and
//! its own injector
//! lane, so:
//!
//! * N concurrent queries share `ExecConfig::scan_threads` scan workers —
//!   not N×threads as the old per-scan scoped-thread model did;
//! * per-query I/O and prune counters are tallied race-free (counters are
//!   per-executor atomics, never shared across queries);
//! * round-robin lane scheduling keeps a long scan from starving short
//!   queries submitted in the same burst.
//!
//! With `ExecConfig::predicate_cache` on, the session additionally owns
//! the shared (mutex-guarded) §8.2 [`PredicateCache`]: every per-query
//! executor consults it at admission, and DML routed through the session's
//! [`Session::insert_rows`] / [`Session::delete_where`] /
//! [`Session::update_where`] (the SQL path, in `dml.rs`), the row-closure
//! [`Session::delete_rows`] / [`Session::update_rows`] wrappers, or raw
//! results via [`Session::on_dml`] keeps the cached entries consistent
//! with the paper's correctness rules.

use parking_lot::Mutex;
use snowprune_cache::{CacheStats, DmlKind, PredicateCache};
use snowprune_plan::Plan;
use snowprune_storage::{Catalog, DmlResult};
use snowprune_types::{Error, Result, Value};
use std::sync::Arc;

use crate::config::ExecConfig;
use crate::exec::{Executor, QueryOutput};
use crate::pool::MorselPool;

/// A shared-pool execution session for a burst of concurrent queries.
pub struct Session {
    catalog: Catalog,
    cfg: ExecConfig,
    pool: Arc<MorselPool>,
    /// §8.2 predicate cache, shared by every query this session runs.
    cache: Option<Arc<Mutex<PredicateCache>>>,
}

impl Session {
    /// Create a session with its own pool of `cfg.scan_threads` workers.
    /// Unlike [`Executor::new`], a session always routes scans through the
    /// pool — even at `scan_threads = 1` — so single-worker runs exercise
    /// the same code path the concurrency suites stress.
    pub fn new(catalog: Catalog, cfg: ExecConfig) -> Self {
        let pool = MorselPool::new(cfg.scan_threads.max(1));
        let cache = crate::exec::new_cache(&cfg);
        Session {
            catalog,
            cfg,
            pool,
            cache,
        }
    }

    /// A session on an existing pool (e.g. several sessions sharing one
    /// warehouse).
    pub fn with_pool(catalog: Catalog, cfg: ExecConfig, pool: Arc<MorselPool>) -> Self {
        let cache = crate::exec::new_cache(&cfg);
        Session {
            catalog,
            cfg,
            pool,
            cache,
        }
    }

    /// The shared worker pool every query of this session draws from.
    pub fn pool(&self) -> &Arc<MorselPool> {
        &self.pool
    }

    /// The session's configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// The catalog this session serves (used by the SQL front-end to
    /// resolve table and column names at bind time).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session-shared predicate cache, when enabled.
    pub fn cache(&self) -> Option<&Arc<Mutex<PredicateCache>>> {
        self.cache.as_ref()
    }

    /// Counters of the session's predicate cache (defaults when disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(|c| c.lock().stats())
            .unwrap_or_default()
    }

    /// A fresh executor bound to this session's pool and shared predicate
    /// cache, with its own per-query I/O counters.
    pub fn executor(&self) -> Executor {
        Executor::with_pool(
            self.catalog.clone(),
            self.cfg.clone(),
            Arc::clone(&self.pool),
        )
        .with_shared_cache(self.cache.clone())
    }

    /// Like [`Session::executor`], but with this query's prefetch depth
    /// overridden — the admission layer's adaptive-depth hook.
    pub(crate) fn executor_with_prefetch_depth(&self, depth: usize) -> Executor {
        let mut cfg = self.cfg.clone();
        cfg.prefetch_depth = depth.max(1);
        Executor::with_pool(self.catalog.clone(), cfg, Arc::clone(&self.pool))
            .with_shared_cache(self.cache.clone())
    }

    // ---- DML ------------------------------------------------------------

    /// Feed a DML statement's result into the predicate cache (no-op when
    /// the cache is disabled). The convenience wrappers below call this
    /// automatically; use it directly when applying DML to catalog tables
    /// by hand.
    pub fn on_dml(&self, table: &str, kind: &DmlKind, result: &DmlResult) {
        if let Some(cache) = &self.cache {
            cache.lock().on_dml(table, kind, result);
        }
    }

    /// INSERT rows into a catalog table, keeping the predicate cache
    /// consistent (new partitions are appended to affected entries).
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<DmlResult> {
        let handle = self.catalog.get(table)?;
        let res = handle.write().insert_rows(rows);
        self.on_dml(table, &DmlKind::Insert, &res);
        Ok(res)
    }

    /// DELETE rows matching `pred`, keeping the predicate cache consistent
    /// (top-k entries for the table are invalidated).
    pub fn delete_rows(&self, table: &str, pred: impl Fn(&[Value]) -> bool) -> Result<DmlResult> {
        let handle = self.catalog.get(table)?;
        let res = handle.write().delete_rows(pred);
        self.on_dml(table, &DmlKind::Delete, &res);
        Ok(res)
    }

    /// UPDATE rows via `f`, keeping the predicate cache consistent. The
    /// changed-column set is *measured* by the storage layer
    /// (`Table::update_rows_tracked`), not declared by the caller, so the
    /// cache's ordering/predicate-column rules cannot be bypassed by an
    /// under-declared update.
    pub fn update_rows(
        &self,
        table: &str,
        f: impl Fn(&[Value]) -> Vec<Value>,
    ) -> Result<DmlResult> {
        let handle = self.catalog.get(table)?;
        let (res, changed_columns) = handle.write().update_rows_tracked(f);
        self.on_dml(table, &DmlKind::Update(changed_columns), &res);
        Ok(res)
    }

    /// Run one query on the shared pool.
    pub fn run(&self, plan: &Plan) -> Result<QueryOutput> {
        self.executor().run(plan)
    }

    /// Run an admission-controlled multi-tenant burst on the shared pool.
    ///
    /// Unlike [`Session::run_batch`] — which spawns one driver thread per
    /// plan, an unbounded fan-in — this routes the burst through
    /// [`crate::admission`]: at most `scan_threads` driver threads, a
    /// windowed per-tenant FIFO capped at
    /// [`ExecConfig::tenant_max_concurrent`] running queries, explicit
    /// [`crate::Admission::Rejected`] once a tenant exceeds its cap plus
    /// [`ExecConfig::admission_queue_cap`] queued arrivals, and (with
    /// [`ExecConfig::adaptive_prefetch`]) per-tenant prefetch depth
    /// steered by the observed unhidden-I/O/CPU balance. Returns one
    /// outcome per arrival in arrival order plus deterministic per-tenant
    /// fairness metrics ([`crate::TenantStats`]).
    pub fn run_admitted(&self, arrivals: &[(crate::TenantId, Plan)]) -> crate::AdmissionRun {
        crate::admission::run_admitted(self, arrivals)
    }

    /// Run a batch of queries concurrently on the shared pool, returning
    /// per-query outputs in input order. Each output carries that query's
    /// own `IoStats` delta and pruning report.
    pub fn run_batch(&self, plans: &[Plan]) -> Vec<Result<QueryOutput>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|plan| scope.spawn(move || self.executor().run(plan)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Error::Invalid("query driver panicked".into())))
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_plan::PlanBuilder;
    use snowprune_storage::{Field, Layout, Schema, TableBuilder};
    use snowprune_types::{ScalarType, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", ScalarType::Int),
            Field::new("v", ScalarType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema)
            .target_rows_per_partition(25)
            .layout(Layout::ClusterBy(vec!["k".into()]));
        for i in 0..1000i64 {
            b.push_row(vec![Value::Int(i), Value::Int((i * 37) % 500)]);
        }
        let c = Catalog::new();
        c.register(b.build());
        c
    }

    fn schema_of(c: &Catalog) -> Schema {
        c.get("t").unwrap().read().schema().clone()
    }

    #[test]
    fn admitted_burst_matches_oracle_and_rejects_overflow() {
        let catalog = catalog();
        let schema = schema_of(&catalog);
        let plans: Vec<Plan> = (0..6)
            .map(|i| {
                PlanBuilder::scan("t", schema.clone())
                    .filter(col("k").between(lit(i * 100), lit(i * 100 + 250)))
                    .build()
            })
            .collect();
        let cfg = ExecConfig::default()
            .with_scan_threads(2)
            .with_tenant_max_concurrent(1)
            .with_admission_queue_cap(1);
        let session = Session::new(catalog.clone(), cfg);
        // Tenant 0 sends four arrivals against a window of 1 running +
        // 1 queued; the last two must be refused. Tenant 1's window is
        // independent.
        let arrivals: Vec<(crate::TenantId, Plan)> = [0u64, 0, 1, 0, 0, 1]
            .into_iter()
            .zip(plans.iter().cloned())
            .collect();
        let run = session.run_admitted(&arrivals);
        let rejected: Vec<usize> = run
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_rejected())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rejected, vec![3, 4], "burst admission is order-decided");
        let sort = |rs: &crate::RowSet| {
            let mut rows = rs.rows.clone();
            rows.sort_by(|a, b| a[0].total_ord_cmp(&b[0]));
            rows
        };
        for (i, (_, plan)) in arrivals.iter().enumerate() {
            let Some(out) = run.outcomes[i].output() else {
                continue;
            };
            let solo = Executor::new(catalog.clone(), ExecConfig::default())
                .run(plan)
                .unwrap();
            assert_eq!(sort(&out.rows), sort(&solo.rows), "arrival {i}");
        }
        let t0 = run.tenant(0).unwrap();
        assert_eq!((t0.admitted, t0.rejected), (2, 2));
        let t1 = run.tenant(1).unwrap();
        assert_eq!((t1.admitted, t1.rejected), (2, 0));
        assert!(t0.morsels_run > 0);
    }

    #[test]
    fn adaptive_depth_is_bounded_and_stats_are_reproducible() {
        let catalog = catalog();
        let schema = schema_of(&catalog);
        let arrivals: Vec<(crate::TenantId, Plan)> = (0..12i64)
            .map(|i| {
                let plan = PlanBuilder::scan("t", schema.clone())
                    .filter(col("k").between(lit((i % 4) * 200), lit((i % 4) * 200 + 300)))
                    .build();
                (i as u64 % 3, plan)
            })
            .collect();
        let mut cfg = ExecConfig::default()
            .with_scan_threads(3)
            .with_tenant_max_concurrent(2)
            .with_adaptive_prefetch(true)
            .with_prefetch_max_depth(4);
        // An I/O-heavy cost model so the update rule has a gradient to
        // climb (the depths must still stay inside [1, max]).
        cfg.io_cost = snowprune_storage::IoCostModel {
            latency_ns_per_request: 1_000_000,
            throughput_bytes_per_sec: 100_000_000,
            metadata_ns_per_read: 0,
            eval_ns_per_row: 100,
        };
        let run_once = || {
            let session = Session::new(catalog.clone(), cfg.clone());
            let run = session.run_admitted(&arrivals);
            for t in &run.tenants {
                assert!(
                    t.depth_hist.iter().all(|&d| (1..=4).contains(&d)),
                    "depth left [1, max]: {:?}",
                    t.depth_hist
                );
            }
            run.tenants.clone()
        };
        let first = run_once();
        // Per-tenant stats come off virtual clocks, never host timing.
        for _ in 0..5 {
            assert_eq!(run_once(), first, "TenantStats must be bit-identical");
        }
        // The I/O-bound mix actually drives some tenant's depth upward.
        assert!(
            first.iter().any(|t| t
                .depth_hist
                .iter()
                .any(|&d| d > ExecConfig::default().prefetch_depth)),
            "adaptive depth never moved: {first:?}"
        );
    }

    #[test]
    fn batch_results_match_individual_runs() {
        let catalog = catalog();
        let schema = schema_of(&catalog);
        let plans: Vec<Plan> = (0..8)
            .map(|i| {
                PlanBuilder::scan("t", schema.clone())
                    .filter(col("k").between(lit(i * 100), lit(i * 100 + 250)))
                    .build()
            })
            .collect();
        let session = Session::new(catalog.clone(), ExecConfig::default().with_scan_threads(3));
        let batch = session.run_batch(&plans);
        for (plan, out) in plans.iter().zip(&batch) {
            let out = out.as_ref().unwrap();
            let solo = Executor::new(catalog.clone(), ExecConfig::default())
                .run(plan)
                .unwrap();
            let sort = |rs: &crate::RowSet| {
                let mut rows = rs.rows.clone();
                rows.sort_by(|a, b| a[0].total_ord_cmp(&b[0]));
                rows
            };
            assert_eq!(sort(&out.rows), sort(&solo.rows));
            // Per-query I/O deltas are isolated even though all eight
            // queries interleaved on three workers.
            assert_eq!(out.io.partitions_loaded, solo.io.partitions_loaded);
        }
    }

    #[test]
    fn prefetch_counters_thread_through_session_outputs() {
        // The new pipeline counters surface per query: the IoSnapshot delta
        // carries overlap/wall accounting and the report carries the
        // pipeline invariant, for every query of a concurrent batch.
        let catalog = catalog();
        let schema = schema_of(&catalog);
        let plans: Vec<Plan> = (0..6)
            .map(|i| {
                PlanBuilder::scan("t", schema.clone())
                    .filter(col("k").between(lit(i * 120), lit(i * 120 + 300)))
                    .build()
            })
            .collect();
        let mut cfg = ExecConfig::default()
            .with_scan_threads(3)
            .with_prefetch_depth(4);
        // Zero metadata cost so the wall identity below covers exactly the
        // pipeline's load + evaluate time.
        cfg.io_cost.metadata_ns_per_read = 0;
        let session = Session::new(catalog, cfg);
        for out in session.run_batch(&plans) {
            let out = out.unwrap();
            let s = &out.report.scan_stats;
            assert_eq!(
                s.considered,
                s.loaded + s.skipped_by_boundary + s.cancelled_in_flight(),
                "pipeline invariant"
            );
            assert_eq!(out.io.partitions_loaded, s.loaded);
            assert!(out.io.io_overlapped_ns > 0, "depth 4 must overlap I/O");
            assert_eq!(
                out.io.simulated_wall_ns,
                out.io.simulated_io_ns + out.io.simulated_cpu_ns - out.io.io_overlapped_ns
            );
        }
    }

    #[test]
    fn single_worker_session_still_uses_pool_path() {
        let catalog = catalog();
        let schema = schema_of(&catalog);
        let plan = PlanBuilder::scan("t", schema)
            .filter(col("v").lt(lit(100i64)))
            .build();
        let session = Session::new(catalog, ExecConfig::default().with_scan_threads(1));
        assert_eq!(session.pool().worker_count(), 1);
        let out = session.run(&plan).unwrap();
        assert_eq!(out.rows.len(), 200);
    }

    // ---- predicate cache (§8.2) -----------------------------------------

    use crate::exec::CacheOutcome;

    fn cached_session(threads: usize) -> Session {
        Session::new(
            catalog(),
            ExecConfig::default()
                .with_scan_threads(threads)
                .with_predicate_cache(true),
        )
    }

    #[test]
    fn warm_topk_replay_is_byte_identical_and_restricted() {
        for threads in [1usize, 4] {
            let session = cached_session(threads);
            let schema = session.catalog.get("t").unwrap().read().schema().clone();
            let plan = PlanBuilder::scan("t", schema)
                .filter(col("v").ge(lit(250i64)))
                .order_by("k", true)
                .limit(7)
                .build();
            let cold = session.run(&plan).unwrap();
            assert_eq!(cold.report.cache, CacheOutcome::Miss);
            let warm = session.run(&plan).unwrap();
            assert_eq!(warm.report.cache, CacheOutcome::Hit);
            assert_eq!(warm.rows.rows, cold.rows.rows, "threads {threads}");
            assert!(warm.io.partitions_loaded <= cold.io.partitions_loaded);
            assert!(warm.report.pruned_by_cache > 0, "scan set not restricted");
            let stats = session.cache_stats();
            assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        }
    }

    #[test]
    fn warm_filter_replay_is_byte_identical() {
        let session = cached_session(3);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        // Predicate on the unclustered column: zone maps cannot prune it,
        // so the cold run loads everything and the warm replay only the
        // partitions that actually matched.
        let plan = PlanBuilder::scan("t", schema)
            .filter(col("v").eq(lit(123i64)))
            .build();
        let cold = session.run(&plan).unwrap();
        let warm = session.run(&plan).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(warm.rows.rows, cold.rows.rows);
        assert!(
            warm.io.partitions_loaded < cold.io.partitions_loaded,
            "warm {} vs cold {}",
            warm.io.partitions_loaded,
            cold.io.partitions_loaded
        );
    }

    #[test]
    fn session_dml_keeps_warm_replays_correct() {
        let session = cached_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let plan = PlanBuilder::scan("t", schema)
            .order_by("k", true)
            .limit(3)
            .build();
        let cold = session.run(&plan).unwrap();
        // INSERT a new global maximum: the entry survives (appended
        // partitions) and the warm hit must surface the new row.
        session
            .insert_rows("t", vec![vec![Value::Int(5_000), Value::Int(0)]])
            .unwrap();
        let warm = session.run(&plan).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(warm.rows.rows[0][0], Value::Int(5_000));
        // DELETE invalidates the top-k entry; the next run re-records.
        session
            .delete_rows("t", |row| row[0] == Value::Int(5_000))
            .unwrap();
        let after = session.run(&plan).unwrap();
        assert_eq!(after.report.cache, CacheOutcome::Miss);
        assert_eq!(after.rows.rows, cold.rows.rows);
        assert!(session.cache_stats().invalidations >= 1);
    }

    #[test]
    fn untracked_dml_is_rejected_as_stale_not_served() {
        let session = cached_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let plan = PlanBuilder::scan("t", schema)
            .order_by("k", true)
            .limit(3)
            .build();
        session.run(&plan).unwrap();
        // Mutate the table behind the session's back (no on_dml): the
        // version check must reject the entry instead of replaying it.
        let handle = session.catalog.get("t").unwrap();
        handle
            .write()
            .insert_rows(vec![vec![Value::Int(9_999), Value::Int(0)]]);
        let out = session.run(&plan).unwrap();
        assert_eq!(out.report.cache, CacheOutcome::Miss);
        assert_eq!(out.rows.rows[0][0], Value::Int(9_999));
        assert_eq!(session.cache_stats().stale_rejections, 1);
    }

    // ---- shape-mode fingerprints (§8.2 extension) ------------------------

    use crate::config::PredicateCacheMode;

    fn shape_session(threads: usize) -> Session {
        Session::new(
            catalog(),
            ExecConfig::default()
                .with_scan_threads(threads)
                .with_predicate_cache(true)
                .with_predicate_cache_mode(PredicateCacheMode::Shape),
        )
    }

    #[test]
    fn shape_mode_serves_narrowed_filter_range() {
        let session = shape_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let filt = |lo: i64, hi: i64| {
            PlanBuilder::scan("t", schema.clone())
                .filter(col("v").between(lit(lo), lit(hi)))
                .build()
        };
        // Cold run on the wide range records a shaped entry.
        let cold = session.run(&filt(100, 300)).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        // A strictly narrower range is a different exact fingerprint but a
        // subsumed shape: served as a ShapeHit, byte-identical to a cold
        // no-pruning oracle, never loading more than the wide cold run.
        let narrow = filt(150, 250);
        let warm = session.run(&narrow).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::ShapeHit);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&narrow)
            .unwrap();
        let sort = |rs: &crate::RowSet| {
            let mut rows = rs.rows.clone();
            rows.sort_by(|a, b| a[0].total_ord_cmp(&b[0]));
            rows
        };
        assert_eq!(sort(&warm.rows), sort(&oracle.rows));
        assert!(warm.io.partitions_loaded <= cold.io.partitions_loaded);
        let stats = session.cache_stats();
        assert_eq!(stats.shape_hits, 1);
        assert_eq!(stats.hits, 0, "no exact fingerprint matched");
        // The widening direction must NOT be served by subsumption.
        let wide = session.run(&filt(50, 350)).unwrap();
        assert_eq!(wide.report.cache, CacheOutcome::Miss);
        assert!(session.cache_stats().subsumption_rejections >= 1);
    }

    #[test]
    fn shape_mode_serves_smaller_k_topk() {
        let session = shape_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let topk = |k: u64| {
            PlanBuilder::scan("t", schema.clone())
                .filter(col("v").ge(lit(250i64)))
                .order_by("k", true)
                .limit(k)
                .build()
        };
        let cold = session.run(&topk(9)).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        // Same predicate, smaller k: the recorded survivors + tie log
        // cover the smaller top-k, so the replay is exact.
        let warm = session.run(&topk(4)).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::ShapeHit);
        assert_eq!(warm.rows.rows, cold.rows.rows[..4].to_vec());
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&topk(4))
            .unwrap();
        assert_eq!(warm.rows.rows, oracle.rows.rows);
        // A larger k cannot be served; it records its own entry.
        let bigger = session.run(&topk(20)).unwrap();
        assert_eq!(bigger.report.cache, CacheOutcome::Miss);
        // A narrowed predicate cannot be served by a top-k entry either
        // (equal ranges required), even at a smaller k.
        let narrowed = PlanBuilder::scan("t", schema.clone())
            .filter(col("v").ge(lit(300i64)))
            .order_by("k", true)
            .limit(4)
            .build();
        let out = session.run(&narrowed).unwrap();
        assert_eq!(out.report.cache, CacheOutcome::Miss);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&narrowed)
            .unwrap();
        assert_eq!(out.rows.rows, oracle.rows.rows);
    }

    #[test]
    fn shape_mode_dml_invalidation_still_applies_to_shape_hits() {
        let session = shape_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let topk = |k: u64| {
            PlanBuilder::scan("t", schema.clone())
                .order_by("k", true)
                .limit(k)
                .build()
        };
        session.run(&topk(8)).unwrap();
        // INSERT keeps the entry: the smaller-k shape hit must surface the
        // newly inserted global maximum from an appended partition.
        session
            .insert_rows("t", vec![vec![Value::Int(7_000), Value::Int(0)]])
            .unwrap();
        let warm = session.run(&topk(3)).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::ShapeHit);
        assert_eq!(warm.rows.rows[0][0], Value::Int(7_000));
        // DELETE invalidates the shape-serving top-k entry: the next
        // smaller-k query misses instead of replaying a stale superset.
        session
            .delete_rows("t", |row| row[0] == Value::Int(7_000))
            .unwrap();
        let after = session.run(&topk(3)).unwrap();
        assert_eq!(after.report.cache, CacheOutcome::Miss);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&topk(3))
            .unwrap();
        assert_eq!(after.rows.rows, oracle.rows.rows);
    }

    #[test]
    fn exact_mode_never_reports_shape_hits() {
        // The default (exact) mode must be byte-for-byte the old behavior:
        // a narrowed replay misses and records its own entry.
        let session = cached_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let filt = |lo: i64| {
            PlanBuilder::scan("t", schema.clone())
                .filter(col("v").ge(lit(lo)))
                .build()
        };
        session.run(&filt(200)).unwrap();
        let narrowed = session.run(&filt(260)).unwrap();
        assert_eq!(narrowed.report.cache, CacheOutcome::Miss);
        let stats = session.cache_stats();
        assert_eq!((stats.shape_hits, stats.subsumption_rejections), (0, 0));
    }

    #[test]
    fn untracked_dml_followed_by_tracked_dml_does_not_resync_entry() {
        // Regression: an untracked mutation (no on_dml) used to be masked
        // by a subsequent *tracked* DML stamping the entry with the live
        // version — the warm replay then silently missed the untracked
        // statement's partitions. The entry must be dropped instead.
        let session = cached_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        let plan = PlanBuilder::scan("t", schema)
            .order_by("k", true)
            .limit(3)
            .build();
        session.run(&plan).unwrap();
        // Untracked: a new global maximum inserted behind the session's
        // back (version bumps without on_dml).
        let handle = session.catalog.get("t").unwrap();
        handle
            .write()
            .insert_rows(vec![vec![Value::Int(8_888), Value::Int(0)]]);
        // Tracked: a harmless insert routed through the session. This used
        // to resynchronize the stale entry's version.
        session
            .insert_rows("t", vec![vec![Value::Int(-1), Value::Int(0)]])
            .unwrap();
        let out = session.run(&plan).unwrap();
        assert_eq!(out.report.cache, CacheOutcome::Miss, "stale entry served");
        assert_eq!(out.rows.rows[0][0], Value::Int(8_888));
        assert_eq!(session.cache_stats().stale_rejections, 1);
    }

    // ---- batch-native join/agg shapes in the cache ----------------------

    use snowprune_plan::{AggFunc, JoinType};

    /// dim(dk, name) × fact(k, dim_k, score): 1 000 fact rows in 20
    /// natural-order partitions, unique pseudo-random scores, every
    /// `dim_k` present in the 2-partition dim table.
    fn star_catalog() -> Catalog {
        let dim_schema = Schema::new(vec![
            Field::new("dk", ScalarType::Int),
            Field::new("name", ScalarType::Str),
        ]);
        let mut d = TableBuilder::new("dim", dim_schema).target_rows_per_partition(8);
        for i in 0..16i64 {
            d.push_row(vec![Value::Int(i), Value::Str(format!("d{i}").into())]);
        }
        let fact_schema = Schema::new(vec![
            Field::new("k", ScalarType::Int),
            Field::new("dim_k", ScalarType::Int),
            Field::new("score", ScalarType::Int),
            Field::new("tag", ScalarType::Int),
        ]);
        let mut f = TableBuilder::new("fact", fact_schema).target_rows_per_partition(50);
        for i in 0..1_000i64 {
            f.push_row(vec![
                Value::Int(i),
                Value::Int(i % 16),
                Value::Int((i * 7919) % 1_000_003),
                // Unclustered: every partition's [min, max] straddles most
                // tag values, so zone maps cannot prune a tag predicate.
                Value::Int((i * 37) % 500),
            ]);
        }
        let c = Catalog::new();
        c.register(d.build());
        c.register(f.build());
        c
    }

    fn star_session(threads: usize) -> Session {
        Session::new(
            star_catalog(),
            ExecConfig::default()
                .with_scan_threads(threads)
                .with_predicate_cache(true),
        )
    }

    fn star_schema(session: &Session, table: &str) -> Schema {
        session.catalog.get(table).unwrap().read().schema().clone()
    }

    /// Top-5 fact rows by score, joined through dim (Figure 7b shape:
    /// the ORDER BY column comes from the probe side).
    fn topk_over_join(session: &Session, k: u64) -> Plan {
        let dim = star_schema(session, "dim");
        let fact = star_schema(session, "fact");
        PlanBuilder::scan("dim", dim)
            .join(
                PlanBuilder::scan("fact", fact),
                "dk",
                "dim_k",
                JoinType::Inner,
            )
            .order_by("score", true)
            .limit(k)
            .build()
    }

    #[test]
    fn topk_over_join_warm_replay_hits_and_restricts() {
        // Regression: join shapes used to be shut out of cache admission
        // because the row-fallback join discarded partition provenance —
        // the heap could never attribute its survivors to fact partitions.
        for threads in [1usize, 3] {
            let session = star_session(threads);
            let plan = topk_over_join(&session, 5);
            let cold = session.run(&plan).unwrap();
            assert_eq!(cold.report.cache, CacheOutcome::Miss);
            let warm = session.run(&plan).unwrap();
            assert_eq!(warm.report.cache, CacheOutcome::Hit, "threads {threads}");
            assert_eq!(warm.rows.rows, cold.rows.rows);
            assert!(warm.report.pruned_by_cache > 0, "probe scan not restricted");
            // Cold-run boundary refinement may already have narrowed the
            // probe scan to the contributing partitions, so `<=` (the
            // restriction proof is the pruned_by_cache counter above).
            assert!(warm.io.partitions_loaded <= cold.io.partitions_loaded);
            let stats = session.cache_stats();
            assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        }
    }

    #[test]
    fn fact_dml_keeps_join_topk_replays_correct() {
        let session = star_session(2);
        let plan = topk_over_join(&session, 5);
        session.run(&plan).unwrap();
        // INSERT a new global maximum on the target (probe) side: the
        // entry survives via appended partitions and the warm hit must
        // surface the new row through the join.
        session
            .insert_rows(
                "fact",
                vec![vec![
                    Value::Int(5_000),
                    Value::Int(3),
                    Value::Int(9_999_999),
                    Value::Int(0),
                ]],
            )
            .unwrap();
        let warm = session.run(&plan).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(warm.rows.rows[0][4], Value::Int(9_999_999));
        // DELETE on the target invalidates the top-k entry as usual.
        session
            .delete_rows("fact", |row| row[2] == Value::Int(9_999_999))
            .unwrap();
        let after = session.run(&plan).unwrap();
        assert_eq!(after.report.cache, CacheOutcome::Miss);
        assert!(session.cache_stats().invalidations >= 1);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&plan)
            .unwrap();
        assert_eq!(after.rows.rows, oracle.rows.rows);
    }

    #[test]
    fn dml_on_aux_dim_table_invalidates_join_topk_entry() {
        // Regression: the entry's restriction was computed against the old
        // build side. Serving it after a dim DELETE would replay a top-k
        // whose rows no longer join — the aux-table invalidation must fire.
        let session = star_session(2);
        let plan = topk_over_join(&session, 5);
        session.run(&plan).unwrap();
        assert_eq!(session.run(&plan).unwrap().report.cache, CacheOutcome::Hit);
        session
            .delete_rows("dim", |row| row[0] == Value::Int(3))
            .unwrap();
        let after = session.run(&plan).unwrap();
        assert_eq!(after.report.cache, CacheOutcome::Miss, "stale aux served");
        assert!(session.cache_stats().invalidations >= 1);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&plan)
            .unwrap();
        assert_eq!(after.rows.rows, oracle.rows.rows);
    }

    #[test]
    fn untracked_aux_dml_is_rejected_as_stale() {
        // A dim mutation behind the session's back (no on_dml): the
        // lookup's aux-version check must reject the entry.
        let session = star_session(2);
        let plan = topk_over_join(&session, 5);
        session.run(&plan).unwrap();
        let handle = session.catalog.get("dim").unwrap();
        handle
            .write()
            .insert_rows(vec![vec![Value::Int(777), Value::Str("ghost".into())]]);
        let out = session.run(&plan).unwrap();
        assert_eq!(out.report.cache, CacheOutcome::Miss);
        assert_eq!(session.cache_stats().stale_rejections, 1);
    }

    #[test]
    fn filtered_aggregate_warm_replay_hits_and_restricts() {
        // Regression: aggregates were never admitted to the cache even
        // though the scan's filter survivors are an exact replay set.
        for threads in [1usize, 3] {
            let session = star_session(threads);
            let fact = star_schema(&session, "fact");
            let plan = PlanBuilder::scan("fact", fact)
                .filter(col("tag").eq(lit(123i64)))
                .aggregate(
                    vec!["dim_k"],
                    vec![AggFunc::Sum("score".into()), AggFunc::CountStar],
                )
                .build();
            let cold = session.run(&plan).unwrap();
            assert_eq!(cold.report.cache, CacheOutcome::Miss);
            let warm = session.run(&plan).unwrap();
            assert_eq!(warm.report.cache, CacheOutcome::Hit, "threads {threads}");
            assert_eq!(warm.rows.rows, cold.rows.rows);
            assert!(warm.report.pruned_by_cache > 0, "scan set not restricted");
        }
    }

    #[test]
    fn filtered_aggregate_entry_tracks_inserts() {
        let session = star_session(2);
        let fact = star_schema(&session, "fact");
        let plan = PlanBuilder::scan("fact", fact)
            .filter(col("tag").eq(lit(123i64)))
            .aggregate(
                vec!["dim_k"],
                vec![AggFunc::Sum("score".into()), AggFunc::CountStar],
            )
            .build();
        session.run(&plan).unwrap();
        // INSERT a row matching the filter: the appended partition rides
        // along, so the warm hit reflects the new row.
        session
            .insert_rows(
                "fact",
                vec![vec![
                    Value::Int(120),
                    Value::Int(2),
                    Value::Int(-50),
                    Value::Int(123),
                ]],
            )
            .unwrap();
        let warm = session.run(&plan).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&plan)
            .unwrap();
        assert_eq!(warm.rows.rows, oracle.rows.rows);
    }

    #[test]
    fn update_of_predicate_column_does_not_poison_warm_filter() {
        let session = cached_session(2);
        let schema = session.catalog.get("t").unwrap().read().schema().clone();
        // v = (k * 37) % 500; predicate selects a narrow v band.
        let plan = PlanBuilder::scan("t", schema)
            .filter(col("v").between(lit(490i64), lit(499i64)))
            .build();
        let cold = session.run(&plan).unwrap();
        assert_eq!(session.run(&plan).unwrap().report.cache, CacheOutcome::Hit);
        // Move rows *into* the predicate's range inside partitions the
        // entry never cached (v is the predicate column): the tracked
        // UPDATE must append the rewritten partitions so the warm replay
        // still sees every matching row.
        session
            .update_rows("t", |row| {
                let mut r = row.to_vec();
                if r[1] == Value::Int(7) {
                    r[1] = Value::Int(495);
                }
                r
            })
            .unwrap();
        let warm = session.run(&plan).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        let oracle = Executor::new(session.catalog.clone(), ExecConfig::no_pruning())
            .run(&plan)
            .unwrap();
        let sort = |rs: &crate::RowSet| {
            let mut rows = rs.rows.clone();
            rows.sort_by(|a, b| a[0].total_ord_cmp(&b[0]));
            rows
        };
        assert_eq!(sort(&warm.rows), sort(&oracle.rows));
        assert!(warm.rows.len() > cold.rows.len(), "moved rows must appear");
    }
}
