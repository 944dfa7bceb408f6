//! The query executor: runs logical plans against a catalog with all four
//! pruning techniques wired in at their proper phases (§7):
//!
//! 1. **Filter pruning** at scan compilation (compile time).
//! 2. **LIMIT pruning** when the LIMIT pushes down to a scan (compile time).
//! 3. **Join pruning** after the build side materializes (runtime).
//! 4. **Top-k pruning** via a boundary shared between the top-k heap and
//!    the scan, with the scan pipelined partition-at-a-time (runtime).
//!
//! Plus the §8.2 **predicate cache**: when an (optionally shared) cache is
//! attached, query admission fingerprints the plan (exact mode), and a hit
//! restricts the compiled scan set to the cached contributing partitions
//! *before* morsel generation — the pool and prefetch pipeline only ever
//! see cached contributors (plus DML-appended partitions). On a miss, the
//! query records its own contributors as it executes: the top-k heap keeps
//! each survivor's source partition (plus the partition of every row tied
//! with the final boundary value, tracked exactly), and filter scans keep
//! the partitions that emitted at least one selected row. The entry is
//! inserted at query completion at the snapshot's table version.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use snowprune_analyze::CacheShape;
use snowprune_cache::{CacheEntry, CacheLookup, CacheStats, EntryKind, PredicateCache, ShapeKey};
use snowprune_core::filter::FilterPruner;
use snowprune_core::join::{prune_probe_side, BloomFilter, JoinSummary};
use snowprune_core::limit::{prune_for_limit, LimitOutcome};
use snowprune_core::topk::{initial_boundary, order_scan_set, Boundary, TopKHeap, TopKScanStats};
use snowprune_core::QueryPruningReport;
use snowprune_plan::{
    detect_topk, fingerprint, limit_pushdown, predicate_column_names, shape_signature, AggFunc,
    FingerprintMode, JoinType, LimitPushdown, Plan, SortKey, TopKShape, TopKSpec,
};
use snowprune_storage::{Catalog, IoSnapshot, IoStats, PartitionId, Schema, Table};
use snowprune_types::{Error, Result, Value};

use crate::agg::{aggregate_rows, DistinctKeyTopK};
use crate::config::{ExecConfig, PredicateCacheMode};
use crate::pool::{MorselDoneFn, MorselPool, PartitionSink, QueryId, ScanJobSpec, StopFn};
use crate::rows::RowSet;
use crate::scan::{stream_scan, CompiledScan, ScanHooks, ScanRunStats};
use crate::vector::{Batch, BatchAggregator, BatchChain, JoinBuild};

/// Execution report: core pruning accounting plus technique-level detail.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// Per-technique partition pruning tallies.
    pub pruning: QueryPruningReport,
    /// Compile-time LIMIT pruning outcome, when the plan had a LIMIT.
    pub limit_outcome: Option<LimitOutcome>,
    /// The Figure 7 top-k shape, when the plan was a top-k query.
    pub topk_shape: Option<TopKShape>,
    /// Boundary-pruning counters of the top-k scan.
    pub topk_stats: TopKScanStats,
    /// Serialized size of the build-side join summaries (§6.1).
    pub join_summary_bytes: u64,
    /// Rows skipped by the row-level Bloom filter inside joins.
    pub bloom_skipped_rows: u64,
    /// Aggregated per-partition pipeline counters over every scan this
    /// query executed (`considered == loaded + skipped + cancelled`).
    pub scan_stats: ScanRunStats,
    /// Predicate-cache interaction of this query (§8.2).
    pub cache: CacheOutcome,
    /// Compiled scan-set entries dropped by the cache-hit restriction.
    pub pruned_by_cache: u64,
    /// Structured cache-shape eligibility explanation from the static
    /// analyzer: why this plan is or isn't predicate-cacheable (§8.2).
    /// Computed on every run, whether or not a cache is attached; its
    /// `shape` *is* the executor's admission decision.
    pub cacheability: Option<snowprune_analyze::CacheReport>,
}

/// How a query interacted with the predicate cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache attached, or the plan shape is not cacheable.
    #[default]
    NotConsulted,
    /// Consulted and missed; the query recorded a fresh entry.
    Miss,
    /// Consulted and hit on the exact fingerprint; the scan set was
    /// restricted to cached contributors (plus DML-appended partitions).
    Hit,
    /// Shape-mode fallback hit ([`PredicateCacheMode::Shape`]): a
    /// same-shape entry whose literal ranges subsume this query's served a
    /// sound superset of the contributing partitions.
    ShapeHit,
}

/// The result of running one query.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// The query's result rows.
    pub rows: RowSet,
    /// Pruning/caching report for the run.
    pub report: ExecReport,
    /// I/O performed by this query (counter delta).
    pub io: IoSnapshot,
    /// Real (host) wall-clock time of the run.
    pub wall: Duration,
}

#[derive(Default)]
pub(crate) struct RunState {
    report: ExecReport,
    limit_override: Option<LimitOverride>,
    /// This query's FIFO lane on the shared morsel pool.
    lane: QueryId,
    /// Predicate-cache context when the cache was consulted for this plan.
    cache: Option<CacheRun>,
}

struct LimitOverride {
    table: String,
    scan: CompiledScan,
}

/// Per-query predicate-cache context (§8.2).
struct CacheRun {
    fingerprint: u64,
    table: String,
    /// Shape-mode signature of the plan (shape mode only, shape-eligible
    /// plans only); attached to the entry a miss records so later queries
    /// can be served by subsumption.
    shape: Option<ShapeKey>,
    /// Hit: restrict the table's compiled scan set to these partitions —
    /// provided the snapshot still carries the version the lookup was
    /// validated against (a concurrent DML between lookup and snapshot
    /// falls back to the full scan set rather than under-scanning).
    restrict: Option<(HashSet<PartitionId>, u64)>,
    /// Miss: record a fresh entry during execution, inserted at completion.
    record: Option<CacheRecorder>,
}

/// The §8.2 filter recorder's survivor set, handed to the scans of its
/// target table: partitions that emitted at least one selected row (pooled
/// scan workers insert concurrently). `None` when nothing records.
type Survivors = Option<Arc<Mutex<HashSet<PartitionId>>>>;

/// Collects a query's contributing partitions while it executes.
struct CacheRecorder {
    /// What the entry under construction caches.
    kind: EntryKind,
    /// Column names referenced by the plan's predicates (UPDATE rules).
    predicate_columns: Vec<String>,
    /// Version of the table snapshot the recorded partitions refer to;
    /// pinned by `prepare_scan` when the target scan compiles. `None`
    /// aborts recording.
    snapshot_version: Option<u64>,
    /// Other tables this query scanned (join build/probe sides), with the
    /// versions it saw. Recorded as auxiliary dependencies on the entry:
    /// a warm replay restricting the target scan is only sound while every
    /// other side of the join is byte-identical, so lookups reject the
    /// entry once any auxiliary table's version moves.
    aux: Vec<(String, u64)>,
    /// Set when an auxiliary table was seen at two different versions
    /// within one query (concurrent DML mid-run): the recording is not a
    /// consistent snapshot and must be discarded.
    aux_poisoned: bool,
    /// Filter shape: see [`Survivors`].
    survivors: Arc<Mutex<HashSet<PartitionId>>>,
    /// TopK shape, set by `exec_topk` at heap drain: the source partition
    /// of every heap survivor plus of every row tied with the final
    /// boundary value. `None` provenance aborts recording.
    topk: Option<Vec<Option<PartitionId>>>,
}

impl CacheRecorder {
    fn is_topk(&self) -> bool {
        matches!(self.kind, EntryKind::TopK { .. })
    }

    /// Assemble the finished entry; `None` when recording never completed
    /// (the plan bypassed the expected execution path). `shape` is the
    /// plan's shape-mode key (shape mode only) and `partitions_total` the
    /// table's compiled scan-set size, from which the eviction policy's
    /// cost signal (loads a warm replay saves) is derived.
    fn finish(
        self,
        table: String,
        shape: Option<ShapeKey>,
        partitions_total: u64,
    ) -> Option<CacheEntry> {
        let CacheRecorder {
            kind,
            predicate_columns,
            snapshot_version,
            mut aux,
            aux_poisoned,
            survivors,
            topk,
        } = self;
        if aux_poisoned {
            return None;
        }
        let table_version = snapshot_version?;
        let mut partitions: Vec<PartitionId> = match kind {
            EntryKind::Filter => std::mem::take(&mut *survivors.lock()).into_iter().collect(),
            EntryKind::TopK { .. } => topk?.into_iter().collect::<Option<_>>()?,
        };
        partitions.sort_unstable();
        partitions.dedup();
        aux.sort();
        aux.dedup();
        let saved_loads = partitions_total.saturating_sub(partitions.len() as u64);
        Some(CacheEntry {
            kind,
            table,
            partitions,
            predicate_columns,
            table_version,
            appended: Vec::new(),
            shape,
            saved_loads,
            aux_tables: aux,
        })
    }
}

/// The pruning-aware query executor.
pub struct Executor {
    catalog: Catalog,
    cfg: ExecConfig,
    io: IoStats,
    /// Shared scan worker pool; `None` runs scans sequentially in the
    /// driver. [`Executor::new`] creates a private pool when
    /// `scan_threads > 1`; [`Executor::with_pool`] (used by
    /// [`crate::Session`]) shares one pool across many executors so
    /// concurrent queries share `scan_threads` workers instead of
    /// N×threads.
    pool: Option<Arc<MorselPool>>,
    /// §8.2 predicate cache. [`Executor::new`] creates a private cache
    /// when `cfg.predicate_cache` is set; [`crate::Session`] replaces it
    /// with the session-shared one via [`Executor::with_shared_cache`].
    cache: Option<Arc<Mutex<PredicateCache>>>,
}

impl Executor {
    /// An executor over `catalog` with a private pool (when
    /// `cfg.scan_threads > 1`) and a private predicate cache (when
    /// `cfg.predicate_cache` is set).
    pub fn new(catalog: Catalog, cfg: ExecConfig) -> Self {
        let pool = (cfg.scan_threads > 1).then(|| MorselPool::new(cfg.scan_threads));
        let cache = new_cache(&cfg);
        Executor {
            catalog,
            cfg,
            io: IoStats::new(),
            pool,
            cache,
        }
    }

    /// An executor drawing scan workers from an existing shared pool.
    pub fn with_pool(catalog: Catalog, cfg: ExecConfig, pool: Arc<MorselPool>) -> Self {
        let cache = new_cache(&cfg);
        Executor {
            catalog,
            cfg,
            io: IoStats::new(),
            pool: Some(pool),
            cache,
        }
    }

    /// Replace the executor's predicate cache with a shared one (or detach
    /// it with `None`). [`crate::Session`] uses this so every per-query
    /// executor consults the same session-owned cache.
    pub fn with_shared_cache(mut self, cache: Option<Arc<Mutex<PredicateCache>>>) -> Self {
        self.cache = cache;
        self
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// This executor's I/O counters (cumulative across its queries).
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// The attached worker pool, when scans run pooled.
    pub fn pool(&self) -> Option<&Arc<MorselPool>> {
        self.pool.as_ref()
    }

    /// The attached predicate cache, when one is enabled.
    pub fn cache(&self) -> Option<&Arc<Mutex<PredicateCache>>> {
        self.cache.as_ref()
    }

    /// Counters of the attached predicate cache (defaults when detached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(|c| c.lock().stats())
            .unwrap_or_default()
    }

    /// Execute a plan, returning rows plus the pruning report.
    ///
    /// # Errors
    /// Besides the structural [`Plan::check`] errors, when
    /// [`ExecConfig::verify_plans`] is set (the default) the static plan
    /// analyzer runs at admission and ill-formed plans — unresolvable
    /// columns, provably-degenerate predicate typing, join keys of two
    /// types, empty sort keys, mistyped aggregate inputs — are rejected
    /// with [`Error::PlanRejected`] before any morsel is generated.
    pub fn run(&self, plan: &Plan) -> Result<QueryOutput> {
        plan.check()?;
        let cacheability = if self.cfg.verify_plans {
            snowprune_analyze::verify_with(plan, self.cfg.enable_topk_pruning)?.cacheability
        } else {
            snowprune_analyze::explain_cacheability(plan, self.cfg.enable_topk_pruning)
        };
        let io_before = self.io.snapshot();
        // CLOCK-OK: feeds `QueryOutput::wall`, which is reported and never
        // decides anything.
        let start = std::time::Instant::now();
        let mut st = RunState {
            lane: self.pool.as_ref().map_or(0, |p| p.next_lane()),
            ..RunState::default()
        };
        if let (Some(cache), Some(shape)) = (&self.cache, &cacheability.shape) {
            st.cache = self.consult_cache(plan, shape, cache, &mut st.report);
        }
        st.report.cacheability = Some(cacheability);
        let topk = detect_topk(plan);
        st.report.pruning.topk_eligible = topk.is_some();
        st.report.pruning.limit_eligible =
            !matches!(limit_pushdown(plan), LimitPushdown::NotALimitQuery);
        st.report.pruning.join_eligible = has_join(plan);
        st.report.pruning.filter_eligible = has_predicate(plan);
        let rows = match (&topk, self.cfg.enable_topk_pruning) {
            (Some(spec), true) => self.exec_topk(plan, spec, &mut st)?,
            _ => self.exec_node(plan, &mut st)?,
        };
        // Population happens at query completion: a missed cacheable query
        // inserts the contributing-partition set it just recorded.
        if let Some(cr) = st.cache.take() {
            if let (Some(rec), Some(cache)) = (cr.record, self.cache.as_ref()) {
                if let Some(entry) =
                    rec.finish(cr.table, cr.shape, st.report.pruning.partitions_total)
                {
                    cache.lock().insert(cr.fingerprint, entry);
                }
            }
        }
        let wall = start.elapsed();
        let io = self.io.snapshot().since(&io_before);
        st.report.pruning.partitions_scanned = io.partitions_loaded;
        Ok(QueryOutput {
            rows,
            report: st.report,
            io,
            wall,
        })
    }

    /// Fingerprint a plan the analyzer found cacheable as `cache_shape` and
    /// look it up, arming either the scan-set restriction (exact or shape hit)
    /// or a recorder (miss). In
    /// [`PredicateCacheMode::Shape`], shape-eligible plans additionally
    /// carry their literal-abstracted signature: a miss on the exact
    /// fingerprint falls back to any same-shape entry whose recorded
    /// ranges subsume this query's, and a recorded entry is indexed for
    /// later subsumption lookups.
    fn consult_cache(
        &self,
        plan: &Plan,
        cache_shape: &CacheShape,
        cache: &Arc<Mutex<PredicateCache>>,
        report: &mut ExecReport,
    ) -> Option<CacheRun> {
        let (table, kind) = match cache_shape {
            CacheShape::Filter { table } => (table.clone(), EntryKind::Filter),
            CacheShape::TopK {
                table,
                order_column,
            } => (
                table.clone(),
                EntryKind::TopK {
                    order_column: order_column.clone(),
                },
            ),
        };
        let live_version = self.catalog.get(&table).ok()?.read().version();
        let fp = fingerprint(plan, FingerprintMode::Exact);
        let shape = (self.cfg.predicate_cache_mode == PredicateCacheMode::Shape)
            .then(|| shape_signature(plan))
            .flatten();
        // Auxiliary-table freshness: entries recorded through a join also
        // pin the versions of every *other* table the query scanned; the
        // lookup rejects an entry whose auxiliary versions moved. (There is
        // an unavoidable window between this check and the aux scans
        // actually compiling — a DML in between falls back to the target
        // restriction being validated against a stale-but-sound superset
        // recorded at insert; the sequential test suites never race it.)
        let aux_live = |t: &str| self.catalog.get(t).ok().map(|h| h.read().version());
        let served = match cache
            .lock()
            .lookup_with_aux(fp, shape.as_ref(), live_version, &aux_live)
        {
            CacheLookup::Hit(parts) => Some((CacheOutcome::Hit, parts)),
            CacheLookup::ShapeHit(parts) => Some((CacheOutcome::ShapeHit, parts)),
            CacheLookup::Miss => None,
        };
        let (restrict, record) = match served {
            Some((outcome, parts)) => {
                report.cache = outcome;
                (Some((parts.into_iter().collect(), live_version)), None)
            }
            None => {
                report.cache = CacheOutcome::Miss;
                let recorder = CacheRecorder {
                    kind,
                    predicate_columns: predicate_column_names(plan),
                    snapshot_version: None,
                    aux: Vec::new(),
                    aux_poisoned: false,
                    survivors: Arc::new(Mutex::new(HashSet::new())),
                    topk: None,
                };
                (None, Some(recorder))
            }
        };
        Some(CacheRun {
            fingerprint: fp,
            table,
            shape,
            restrict,
            record,
        })
    }

    // ---- generic recursive execution ----------------------------------

    fn exec_node(&self, plan: &Plan, st: &mut RunState) -> Result<RowSet> {
        match plan {
            Plan::Scan { .. } | Plan::Filter { .. } | Plan::Project { .. } | Plan::Join { .. } => {
                let mut rows = Vec::new();
                self.stream(plan, StreamOpts::ordered(None), st, &mut |r, _| {
                    rows.push(r)
                })?;
                Ok(RowSet {
                    schema: plan.schema()?,
                    rows,
                })
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                // Batch-native GROUP BY when the input is a chain over a
                // scan: columns fold straight into typed accumulators.
                if self.cfg.batch_native {
                    if let Some(out) = self.exec_batch_aggregate(plan, input, group_by, aggs, st)? {
                        return Ok(out);
                    }
                }
                let input_rows = self.exec_node(input, st)?;
                let rows =
                    aggregate_rows(&input_rows.schema, input_rows.rows, group_by, aggs, None)?;
                Ok(RowSet {
                    schema: plan.schema()?,
                    rows,
                })
            }
            Plan::Sort { input, keys } => {
                let input_rows = self.exec_node(input, st)?;
                sort_rows(input_rows, keys)
            }
            Plan::Limit { input, k, offset } => self.exec_limit(plan, input, *k, *offset, st),
        }
    }

    fn exec_limit(
        &self,
        whole: &Plan,
        input: &Plan,
        k: u64,
        offset: u64,
        st: &mut RunState,
    ) -> Result<RowSet> {
        let need = (k + offset) as usize;
        // Compile-time LIMIT pruning (§4).
        if self.cfg.enable_limit_pruning && self.cfg.enable_filter_pruning {
            match limit_pushdown(whole) {
                LimitPushdown::Supported {
                    table, predicates, ..
                } => {
                    let conj = predicates.into_iter().reduce(|a, b| a.and(b));
                    let mut scan = self.compile_scan(&table, conj.as_ref(), true, st)?;
                    let res = prune_for_limit(&scan.scan_set, k + offset);
                    st.report.limit_outcome = Some(res.outcome);
                    st.report.pruning.pruned_by_limit +=
                        (res.partitions_before - res.scan_set.len()) as u64;
                    scan.scan_set = res.scan_set;
                    st.limit_override = Some(LimitOverride { table, scan });
                }
                LimitPushdown::Unsupported { .. } => {
                    st.report.limit_outcome = Some(LimitOutcome::Unsupported(
                        snowprune_core::limit::UnsupportedReason::PlanShape,
                    ));
                }
                LimitPushdown::NotALimitQuery => {}
            }
        }
        // Early termination where the input streams ("most systems halt
        // query processing when the LIMIT has been reached"). Pooled
        // morsels race to fill the limit — pre-assigned partitions still
        // model the §4.4 catch — but [`Delivery::Ordered`] stops on the
        // deterministic prefix, so the truncated result is byte-identical
        // to the sequential scan; only the I/O overshoot varies.
        let mut rows = Vec::with_capacity(need.min(4096));
        self.stream(input, StreamOpts::ordered(Some(need)), st, &mut |r, _| {
            rows.push(r)
        })?;
        rows.truncate(need);
        st.limit_override = None;
        Ok(RowSet {
            schema: input.schema()?,
            rows: rows.into_iter().skip(offset as usize).collect(),
        })
    }

    // ---- scans ----------------------------------------------------------

    /// Snapshot `table` and compile a scan of it, adding the compile-time
    /// pruning counters to the report.
    fn compile_scan(
        &self,
        table: &str,
        predicate: Option<&snowprune_expr::Expr>,
        filter_pruning: bool,
        st: &mut RunState,
    ) -> Result<CompiledScan> {
        let snapshot = snapshot_table(&self.catalog, table)?;
        let scan = CompiledScan::compile(
            table,
            snapshot,
            predicate,
            filter_pruning,
            &self.cfg.filter,
            &self.io,
            &self.cfg.io_cost,
        )?;
        st.report.pruning.partitions_total += scan.partitions_total as u64;
        st.report.pruning.pruned_by_filter += scan.pruned_by_filter;
        st.report.pruning.fully_matching += scan.fully_matching;
        st.report.pruning.leaves_cut_off += scan.leaves_cut_off;
        Ok(scan)
    }

    /// Compile (or fetch the LIMIT-pruned override for) a scan, recording
    /// report counters exactly once, and apply this query's predicate-cache
    /// context to it: restrict a hit's target scan, and on a miss pin the
    /// recorder to the target's snapshot (or note another table as an
    /// auxiliary dependency). The returned [`Survivors`] are armed when the
    /// scan is a filter-shape record target; every caller hands them to
    /// the scan's worker map.
    fn prepare_scan(
        &self,
        table: &str,
        predicate: Option<&snowprune_expr::Expr>,
        st: &mut RunState,
    ) -> Result<(CompiledScan, Survivors)> {
        if let Some(ov) = &st.limit_override {
            if ov.table == table {
                // Counted when the override was created.
                return Ok((ov.scan.clone(), None));
            }
        }
        let mut scan = self.compile_scan(table, predicate, self.cfg.enable_filter_pruning, st)?;
        let Some(cr) = &mut st.cache else {
            return Ok((scan, None));
        };
        let version = scan.table.version();
        if cr.table != table {
            // Auxiliary-dependency recording: while a recorder is armed, any
            // scan of a table *other than* the record target (a join's other
            // side) pins that table's version on the entry. Seeing the same
            // auxiliary table at two versions within one query means a DML
            // landed mid-run — the recording is inconsistent and is poisoned.
            if let Some(rec) = &mut cr.record {
                match rec.aux.iter().find(|(t, _)| t == table) {
                    Some((_, seen)) if *seen != version => rec.aux_poisoned = true,
                    Some(_) => {}
                    None => rec.aux.push((table.to_owned(), version)),
                }
            }
            return Ok((scan, None));
        }
        // Cache hit: restrict the scan set to the cached contributors
        // before any morsel is generated — but only if the snapshot still
        // matches the version the lookup validated against (a concurrent
        // DML in between would make the restriction under-scan).
        if let Some((parts, expected_version)) = &cr.restrict {
            if version == *expected_version {
                let before = scan.scan_set.len();
                scan.scan_set.entries.retain(|e| parts.contains(&e.id));
                st.report.pruned_by_cache += (before - scan.scan_set.len()) as u64;
            }
        }
        // Cache miss: pin the snapshot version the recorded partitions
        // refer to. A filter-shape recorder remembers every partition that
        // emits at least one selected row ("partitions containing rows
        // matching a filter predicate", §8.2); a top-k recorder reads its
        // partitions off the heap instead.
        let survivors = cr.record.as_mut().and_then(|rec| {
            rec.snapshot_version = Some(version);
            (!rec.is_topk()).then(|| Arc::clone(&rec.survivors))
        });
        Ok((scan, survivors))
    }

    fn runtime_pruner_for(&self, scan: &CompiledScan) -> Option<FilterPruner> {
        if scan.deferred_ids.is_empty() {
            return None;
        }
        scan.predicate
            .as_ref()
            .map(|p| FilterPruner::new(p, self.cfg.filter.clone()))
    }

    /// The one scan driver: run `scan` partition-by-partition through the
    /// prefetch pipeline, turn each column-major [`Batch`] into a `T` with
    /// `worker_map` next to the scan, and hand the `T`s to `driver_sink`
    /// sequentially on the calling thread. Every scan the executor runs —
    /// rows or batches, materialized or streamed, with or without a top-k
    /// `boundary` — is a `(worker_map, driver_sink)` pair over this
    /// function, and it alone chooses between the two engines:
    ///
    /// * **Pooled** (a [`MorselPool`] is attached): the scan is submitted
    ///   as morsels on `st`'s lane; `worker_map` runs on the pool's workers.
    ///   [`Delivery::Ordered`] parks each morsel's output in its own slot
    ///   and drains the slots in morsel order once the scan finishes;
    ///   [`Delivery::Arrival`] funnels output through a channel the driver
    ///   drains while later morsels are still scanning.
    /// * **In-driver** (no pool): the sequential [`stream_scan`], with
    ///   `worker_map` and `driver_sink` called back to back per batch. This
    ///   is the reference the differential suites and the benchmark oracle
    ///   (`Executor::new(_, ExecConfig::no_pruning())`) compare against;
    ///   both deliveries degenerate to scan-set order on it.
    ///
    /// The scan's counters are merged into `st`'s report (with the top-k
    /// tallies when a `boundary` is hooked) and returned.
    pub(crate) fn drive_scan<T: RowCount + Send + 'static>(
        &self,
        scan: &CompiledScan,
        st: &mut RunState,
        boundary: Option<(&Arc<Boundary>, usize)>,
        delivery: Delivery,
        worker_map: impl Fn(Batch) -> Option<T> + Send + Sync + 'static,
        mut driver_sink: impl FnMut(T),
    ) -> ScanRunStats {
        let need = match delivery {
            Delivery::Ordered { need } => need,
            Delivery::Arrival => None,
        };
        let stats = if let Some(pool) = &self.pool {
            let mut stop: Box<StopFn> = Box::new(|| false);
            let mut on_morsel_done: Option<Box<MorselDoneFn>> = None;
            let mut slots: Arc<Vec<Mutex<Vec<T>>>> = Arc::default();
            let mut arrivals = None;
            let sink: Box<PartitionSink> = match delivery {
                Delivery::Ordered { .. } => {
                    let morsels = scan
                        .scan_set
                        .len()
                        .div_ceil(self.cfg.morsel_partitions.max(1));
                    slots = Arc::new((0..morsels).map(|_| Mutex::new(Vec::new())).collect());
                    let tracker = need.map(|_| Arc::new(LimitTracker::new(morsels)));
                    if let (Some(need), Some(tracker)) = (need, &tracker) {
                        let (on_stop, on_done) = (Arc::clone(tracker), Arc::clone(tracker));
                        stop = Box::new(move || on_stop.prefix_rows() >= need);
                        on_morsel_done = Some(Box::new(move |mi| on_done.complete(mi)));
                    }
                    let slots = Arc::clone(&slots);
                    Box::new(move |mi, batch| {
                        if let Some(t) = worker_map(batch) {
                            if let Some(tracker) = &tracker {
                                tracker.rows_per_morsel[mi]
                                    .fetch_add(t.row_count(), Ordering::AcqRel);
                            }
                            slots[mi].lock().push(t);
                        }
                    })
                }
                Delivery::Arrival => {
                    // The channel is bounded (a few items per worker) so a
                    // slow driver back-pressures the workers instead of
                    // buffering the whole selected row set. SyncSender sends
                    // through &self, so workers contend only on the channel
                    // itself.
                    let (tx, rx) = std::sync::mpsc::sync_channel(pool.worker_count() * 4);
                    arrivals = Some(rx);
                    Box::new(move |_, batch| {
                        if let Some(t) = worker_map(batch) {
                            let _ = tx.send(t);
                        }
                    })
                }
            };
            let ticket = pool.submit(
                st.lane,
                ScanJobSpec {
                    scan: scan.clone(),
                    io: self.io.clone(),
                    io_cost: self.cfg.io_cost,
                    boundary: boundary.map(|(b, col)| (Arc::clone(b), col)),
                    runtime_pruner: self.runtime_pruner_for(scan),
                    morsel_partitions: self.cfg.morsel_partitions,
                    prefetch_depth: self.cfg.prefetch_depth,
                    batch_rows: self.cfg.batch_rows,
                    sink,
                    stop,
                    on_morsel_done,
                },
            );
            // Arrival: the job (and with it the sender) drops when its last
            // morsel finishes, ending this loop.
            for t in arrivals.into_iter().flatten() {
                driver_sink(t);
            }
            let stats = ticket.wait();
            for slot in slots.iter() {
                std::mem::take(&mut *slot.lock())
                    .into_iter()
                    .for_each(&mut driver_sink);
            }
            stats
        } else {
            let runtime_pruner = self.runtime_pruner_for(scan).map(Mutex::new);
            let hooks = ScanHooks {
                boundary,
                runtime_pruner: runtime_pruner.as_ref(),
                prefetch_depth: self.cfg.prefetch_depth,
                batch_rows: self.cfg.batch_rows,
            };
            let mut got = 0usize;
            let full = |got: usize| need.is_some_and(|n| got >= n);
            stream_scan(scan, &self.io, &self.cfg.io_cost, &hooks, |batch| {
                // Windows that still flow after the break (sticky break)
                // find the limit already full and are dropped unmapped.
                if !full(got) {
                    if let Some(t) = worker_map(batch) {
                        got += t.row_count();
                        driver_sink(t);
                    }
                }
                if full(got) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
        };
        let report = &mut st.report;
        if boundary.is_some() {
            let topk_pruned = stats.skipped_by_boundary + stats.cancelled_by_boundary;
            report.topk_stats.partitions_considered += stats.considered;
            report.topk_stats.partitions_skipped += topk_pruned;
            report.pruning.pruned_by_topk += topk_pruned;
        }
        report.pruning.pruned_by_filter += stats.cancelled_by_runtime_filter;
        report.scan_stats.merge(&stats);
        stats
    }

    // ---- joins ----------------------------------------------------------

    /// Execute a join, pushing the joined rows into `sink`. With `topk`,
    /// the side the top-k spine runs through streams into `sink` instead
    /// of materializing, so boundary updates apply mid-stream.
    fn exec_join(
        &self,
        plan: &Plan,
        topk: Option<(&TopKSpec, &Arc<Boundary>)>,
        st: &mut RunState,
        sink: RowSink<'_>,
    ) -> Result<()> {
        let Plan::Join {
            build,
            probe,
            build_key,
            probe_key,
            join_type,
        } = plan
        else {
            return Err(Error::Invalid("exec_join on non-join".into()));
        };
        match join_type {
            JoinType::Inner => {
                // Build side: however `join_side` loads it, the same rows
                // arrive in the same order, so the §6 summary and Bloom
                // filter see identical key sequences.
                let jb = self.join_side(build, build_key, None, st)?;
                let summary = JoinSummary::build(jb.keys().iter(), self.cfg.join_summary);
                st.report.join_summary_bytes += summary.serialized_bytes() as u64;
                // No Bloom filter when nothing can match anyway.
                let bloom = (self.cfg.join_bloom && !jb.no_matches_possible()).then(|| {
                    let mut bf = BloomFilter::with_capacity(jb.rows().len());
                    for key in jb.keys() {
                        if !key.is_null() {
                            bf.insert(key);
                        }
                    }
                    bf
                });
                let mut bloom_skips = 0u64;
                let join_hook = self
                    .cfg
                    .enable_join_pruning
                    .then_some((&summary, probe_key.as_str()));
                // The top-k hook reaches the probe only when the probe is a
                // chain over a scan, so top-k through a nested join stays
                // unpruned: its rows reach the heap without provenance, and
                // lifting this needs a warm-replay check for nested joins.
                let topk = topk.filter(|_| split_chain(probe).is_some());
                // Probe side. Joined rows carry the probe row's source
                // partition when the probe is the hooked top-k target, so
                // §8.2 provenance survives the join.
                let mut join_rows = |probe_row: &[Value], matches: &[usize], pid| {
                    for &bi in matches {
                        let build_row = &jb.rows()[bi];
                        let mut row = Vec::with_capacity(build_row.len() + probe_row.len());
                        row.extend_from_slice(build_row);
                        row.extend_from_slice(probe_row);
                        sink(row, pid);
                    }
                };
                let batch_probe = if self.cfg.batch_native {
                    self.prepare_chain(probe, join_hook, topk, st)?
                } else {
                    None
                };
                match batch_probe {
                    Some(cs) => {
                        // Batch-native probe: workers refine each batch
                        // through the pre-join chain; rows stay column-major
                        // through the hash lookup and materialize only on a
                        // match (late materialization).
                        let key_col = cs.chain.column_of(probe.schema()?.index_of(probe_key)?);
                        let hook = topk.and_then(|(_, b)| cs.order_col.map(|c| (b, c)));
                        self.drive_scan(
                            &cs.scan,
                            st,
                            hook,
                            Delivery::Arrival,
                            batch_map(cs.chain.clone(), cs.survivors),
                            |batch| {
                                let pid = hook.map(|_| batch.part.meta.id);
                                let probe_row = |i| cs.chain.materialize(&batch.part, i);
                                bloom_skips += jb.probe_batch(
                                    &batch,
                                    key_col,
                                    bloom.as_ref(),
                                    |i, matches| join_rows(&probe_row(i), matches, pid),
                                );
                            },
                        );
                    }
                    None => {
                        let pk = probe.schema()?.index_of(probe_key)?;
                        let mut emit = |probe_row: Vec<Value>, pid: Option<PartitionId>| {
                            let key = &probe_row[pk];
                            if key.is_null() {
                                return;
                            }
                            if bloom.as_ref().is_some_and(|bf| !bf.might_contain(key)) {
                                bloom_skips += 1;
                            } else if let Some(matches) = jb.matches(key) {
                                join_rows(&probe_row, matches, pid);
                            }
                        };
                        let opts = StreamOpts {
                            join: join_hook,
                            topk,
                            delivery: Delivery::Arrival,
                        };
                        self.stream(probe, opts, st, &mut emit)?;
                    }
                }
                st.report.bloom_skipped_rows += bloom_skips;
            }
            JoinType::OuterPreserveBuild => {
                // The preserved build side streams; the probe side is the
                // lookup table.
                let bk = build.schema()?.index_of(build_key)?;
                let probe_width = probe.schema()?.len();
                // Preserved rows keep their source partition: the build side
                // is the spine of an OuterJoinBuildSide top-k.
                let join_one = |lookup: &JoinBuild,
                                row: Vec<Value>,
                                pid: Option<PartitionId>,
                                sink: RowSink<'_>| {
                    // NULL build keys are never indexed, so a NULL key
                    // falls straight to the preserved (null-padded) arm.
                    match lookup.matches(&row[bk]) {
                        Some(matches) => {
                            for &pi in matches {
                                let mut joined = Vec::with_capacity(row.len() + probe_width);
                                joined.extend_from_slice(&row);
                                joined.extend_from_slice(&lookup.rows()[pi]);
                                sink(joined, pid);
                            }
                        }
                        None => {
                            // One reallocation: `extend` reserves the
                            // exact padding up front.
                            let mut joined = row;
                            joined.extend(std::iter::repeat_n(Value::Null, probe_width));
                            sink(joined, pid);
                        }
                    }
                };
                match topk {
                    // Figure 7c: the build side streams as the spine so
                    // boundary pruning applies to it — which means the
                    // probe is loaded unpruned (its keys are needed before
                    // any build row flows).
                    Some(_) => {
                        let lookup = self.join_side(probe, probe_key, None, st)?;
                        self.stream(build, StreamOpts::spine(topk), st, &mut |row, pid| {
                            join_one(&lookup, row, pid, &mut *sink)
                        })?;
                    }
                    // Without a spine the build materializes first and its
                    // keys join-prune the probe (§6).
                    None => {
                        let build_rows = self.exec_node(build, st)?.rows;
                        let summary = JoinSummary::build(
                            build_rows.iter().map(|r| &r[bk]),
                            self.cfg.join_summary,
                        );
                        st.report.join_summary_bytes += summary.serialized_bytes() as u64;
                        let summary = self.cfg.enable_join_pruning.then_some(&summary);
                        let lookup = self.join_side(probe, probe_key, summary, st)?;
                        for row in build_rows {
                            join_one(&lookup, row, None, &mut *sink);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Compile a Filter*/Project* chain over a scan. With `join` (a build
    /// side's summary and this side's key column), apply §6 join pruning
    /// to the scan set; with `topk`, when the scan is the top-k spine
    /// target, install the Figure-7b machinery (scan-set ordering, boundary
    /// seeding) and report the order column for the boundary hook. Returns
    /// `None` for non-chain shapes, having touched nothing.
    fn prepare_chain(
        &self,
        plan: &Plan,
        join: Option<(&JoinSummary, &str)>,
        topk: Option<(&TopKSpec, &Arc<Boundary>)>,
        st: &mut RunState,
    ) -> Result<Option<ChainScan>> {
        let Some((chain, table, predicate)) = split_chain(plan) else {
            return Ok(None);
        };
        let (mut scan, survivors) = self.prepare_scan(table, predicate, st)?;
        let join = join.and_then(|(summary, key)| Some((summary, scan.schema.index_of(key).ok()?)));
        let topk = topk
            .filter(|(spec, _)| scan.table_name == spec.target_table)
            .and_then(|(spec, b)| Some((spec, b, scan.schema.index_of(&spec.order_column).ok()?)));
        if join.is_some() || topk.is_some() {
            let metas = scan.table.metadata();
            if let Some((summary, key_idx)) = join {
                let res = prune_probe_side(summary, &scan.scan_set, &metas, key_idx);
                st.report.pruning.pruned_by_join += res.pruned as u64;
                scan.scan_set = res.scan_set;
            }
            if let Some((spec, boundary, order_col)) = topk {
                order_scan_set(
                    &mut scan.scan_set,
                    &metas,
                    order_col,
                    spec.desc,
                    self.cfg.topk_order,
                );
                if self.cfg.topk_init_boundary {
                    if let Some(init) = initial_boundary(
                        &scan.scan_set,
                        &metas,
                        order_col,
                        spec.k + spec.offset,
                        spec.desc,
                    ) {
                        boundary.tighten(&init);
                    }
                }
            }
        }
        let chain = bind_chain(&chain, &scan.schema)?;
        Ok(Some(ChainScan {
            scan,
            chain,
            order_col: topk.map(|(.., order_col)| order_col),
            survivors,
        }))
    }

    /// The one row stream: push `plan`'s rows into `sink`. A row carries
    /// its source partition only when it comes off the hooked top-k target
    /// scan — the §8.2 provenance the heap records. A row off any other
    /// scan may come from another table, so it carries `None`, and a
    /// recording that sees it aborts.
    ///
    /// * A Filter*/Project* chain over a scan compiles through
    ///   [`Executor::prepare_chain`] with `opts.join` and `opts.topk` and
    ///   runs through [`Executor::drive_scan`], rows materializing next to
    ///   the scan. A scan with the top-k boundary hooked delivers on
    ///   arrival, so heap tightenings reach the workers mid-scan; any other
    ///   uses `opts.delivery`.
    /// * A Filter or Project above any other input wraps `sink` row by row
    ///   and recurses with [`StreamOpts::below`].
    /// * A Join pushes its joined rows through [`Executor::exec_join`].
    /// * Aggregate, Sort and Limit materialize through [`Executor::exec_node`].
    fn stream(
        &self,
        plan: &Plan,
        opts: StreamOpts<'_>,
        st: &mut RunState,
        sink: RowSink<'_>,
    ) -> Result<()> {
        if let Some(cs) = self.prepare_chain(plan, opts.join, opts.topk, st)? {
            let hook = opts.topk.and_then(|(_, b)| cs.order_col.map(|c| (b, c)));
            let delivery = hook.map_or(opts.delivery, |_| Delivery::Arrival);
            self.drive_scan(
                &cs.scan,
                st,
                hook,
                delivery,
                rows_map(cs.chain, cs.survivors),
                |(pid, chunk)| {
                    let pid = hook.map(|_| pid);
                    chunk.into_iter().for_each(|r| sink(r, pid));
                },
            );
            return Ok(());
        }
        match plan {
            Plan::Filter { input, predicate } => {
                let bound = predicate.bind(&input.schema()?)?;
                self.stream(input, opts.below(), st, &mut |row, pid| {
                    if snowprune_expr::eval_predicate(&bound, &row).qualifies() {
                        sink(row, pid);
                    }
                })
            }
            Plan::Project { input, columns } => {
                let schema = input.schema()?;
                let idxs: Vec<usize> = columns
                    .iter()
                    .map(|c| schema.index_of(c))
                    .collect::<Result<_>>()?;
                self.stream(input, opts.below(), st, &mut |row, pid| {
                    sink(idxs.iter().map(|&i| row[i].clone()).collect(), pid)
                })
            }
            Plan::Join { .. } => self.exec_join(plan, opts.topk, st, sink),
            _ => {
                let rows = self.exec_node(plan, st)?.rows;
                rows.into_iter().for_each(|r| sink(r, None));
                Ok(())
            }
        }
    }

    /// Load a join side into a [`JoinBuild`] in scan-set order, so the §6
    /// summary sees the sequential key sequence; with `summary`, §6
    /// join-prune the side's scan first. A chain over a scan bulk-loads its
    /// refined batches column-major when `batch_native` is on; any other
    /// side streams row by row, also in scan order — so an outer join's
    /// lookup side (a chain reaches the row path only with `batch_native`
    /// off) loads identically on pooled and sequential runs.
    fn join_side(
        &self,
        plan: &Plan,
        key: &str,
        summary: Option<&JoinSummary>,
        st: &mut RunState,
    ) -> Result<JoinBuild> {
        let join = summary.map(|s| (s, key));
        let key_out = plan.schema()?.index_of(key)?;
        let mut jb = JoinBuild::new();
        if self.cfg.batch_native {
            if let Some(cs) = self.prepare_chain(plan, join, None, st)? {
                self.drive_scan(
                    &cs.scan,
                    st,
                    None,
                    Delivery::Ordered { need: None },
                    batch_map(cs.chain.clone(), cs.survivors),
                    |batch| jb.push_batch(&batch, &cs.chain, key_out),
                );
                return Ok(jb);
            }
        }
        let opts = StreamOpts {
            join,
            ..StreamOpts::ordered(None)
        };
        self.stream(plan, opts, st, &mut |row, _| {
            let key = row[key_out].clone();
            jb.push_row(row, key);
        })?;
        Ok(jb)
    }

    /// Batch-native GROUP BY over a Filter*/Project* chain: columns fold
    /// straight into typed per-group accumulators
    /// ([`crate::agg::fold_chunk_grouped`]), in scan-set order (so float
    /// accumulation matches the sequential fold), without ever
    /// materializing input rows. Returns `None` for non-chain inputs (the
    /// row path handles them).
    fn exec_batch_aggregate(
        &self,
        plan: &Plan,
        input: &Plan,
        group_by: &[String],
        aggs: &[AggFunc],
        st: &mut RunState,
    ) -> Result<Option<RowSet>> {
        let Some(cs) = self.prepare_chain(input, None, None, st)? else {
            return Ok(None);
        };
        let mut agg = BatchAggregator::new(&cs.chain, &input.schema()?, group_by, aggs)?;
        self.drive_scan(
            &cs.scan,
            st,
            None,
            Delivery::Ordered { need: None },
            batch_map(cs.chain, cs.survivors),
            |batch| agg.update(&batch),
        );
        Ok(Some(RowSet {
            schema: plan.schema()?,
            rows: agg.finish(),
        }))
    }

    // ---- top-k ----------------------------------------------------------

    fn exec_topk(&self, plan: &Plan, spec: &TopKSpec, st: &mut RunState) -> Result<RowSet> {
        let Plan::Limit { input, k, offset } = plan else {
            return self.exec_node(plan, st);
        };
        let Plan::Sort { input: below, .. } = input.as_ref() else {
            return self.exec_node(plan, st);
        };
        let n = (k + offset) as usize;
        st.report.topk_shape = Some(spec.shape);
        let boundary = Boundary::new(spec.desc);

        if spec.shape == TopKShape::AboveAggregation {
            // `detect_topk` classifies through Filter/Project nodes, but
            // the distinct-key path needs the Aggregate directly below the
            // Sort; anything else sorts generically.
            if !matches!(below.as_ref(), Plan::Aggregate { .. }) {
                return self.exec_node(plan, st);
            }
            return self.exec_topk_aggregation(below, spec, n, *offset as usize, &boundary, st);
        }

        let below_schema = below.schema()?;
        let order_idx = below_schema.index_of(&spec.order_column)?;
        // Heap payloads carry each row's source partition ("recording
        // partition information alongside each tuple in the top-k heap",
        // §8.2) so a cache recorder can read survivors' partitions off the
        // final heap.
        let heap = Mutex::new(TopKHeap::new(n, spec.desc, Arc::clone(&boundary)));
        let recording = st
            .cache
            .as_ref()
            .and_then(|c| c.record.as_ref())
            .is_some_and(CacheRecorder::is_topk);
        // Ties-or-better filter against a bound: a row that compares worse
        // can never equal the final boundary value (bounds only tighten).
        let desc = spec.desc;
        let ties_or_better = move |v: &Value, b: &Value| {
            let ord = v.total_ord_cmp(b);
            if desc {
                ord != std::cmp::Ordering::Less
            } else {
                ord != std::cmp::Ordering::Greater
            }
        };
        // Exact boundary-tie tracking: a row equal to the final k-th value
        // may be rejected or evicted by the heap (first-seen ties win) yet
        // the engine could draw the boundary row from its partition on a
        // replay — log such candidates, compacting as the bound tightens.
        let mut tie_log: Vec<(Value, PartitionId)> = Vec::new();
        let tie_cap = 4 * n.max(16) + 64;
        let mut sink = |row: Vec<Value>, pid: Option<PartitionId>| {
            let key = row[order_idx].clone();
            if recording && !key.is_null() {
                if let Some(pid) = pid {
                    let keep = boundary.get().is_none_or(|b| ties_or_better(&key, &b));
                    if keep {
                        tie_log.push((key.clone(), pid));
                        if tie_log.len() > tie_cap {
                            if let Some(b) = boundary.get() {
                                tie_log.retain(|(v, _)| ties_or_better(v, &b));
                            }
                        }
                    }
                }
            }
            heap.lock().insert(key, (row, pid));
        };
        let opts = StreamOpts::spine(Some((spec, &boundary)));
        self.stream(below, opts, st, &mut sink)?;

        let survivors = heap.into_inner().into_sorted();
        if recording {
            // The k-th value only bounds the result when the heap actually
            // filled; a short heap already holds every qualifying row.
            let bound = (n > 0 && survivors.len() == n)
                .then(|| survivors.last().map(|(v, _)| v.clone()))
                .flatten();
            let mut pids: Vec<Option<PartitionId>> =
                survivors.iter().map(|(_, (_, pid))| *pid).collect();
            if let Some(b) = &bound {
                pids.extend(
                    tie_log
                        .iter()
                        .filter(|(v, _)| v.total_ord_cmp(b) == std::cmp::Ordering::Equal)
                        .map(|(_, pid)| Some(*pid)),
                );
            }
            if let Some(rec) = st.cache.as_mut().and_then(|c| c.record.as_mut()) {
                rec.topk = Some(pids);
            }
        }
        let rows: Vec<Vec<Value>> = survivors
            .into_iter()
            .map(|(_, (r, _))| r)
            .skip(*offset as usize)
            .collect();
        Ok(RowSet {
            schema: below_schema,
            rows,
        })
    }

    /// Figure 7d: TopK over GROUP BY with the ORDER BY column among the
    /// grouping keys. The aggregation filters groups through a distinct-key
    /// top-k which shares the scan's pruning boundary.
    fn exec_topk_aggregation(
        &self,
        agg_plan: &Plan,
        spec: &TopKSpec,
        n: usize,
        offset: usize,
        boundary: &Arc<Boundary>,
        st: &mut RunState,
    ) -> Result<RowSet> {
        let Plan::Aggregate {
            input,
            group_by,
            aggs,
        } = agg_plan
        else {
            return Err(Error::Invalid(
                "exec_topk_aggregation on non-aggregate".into(),
            ));
        };
        let input_schema = input.schema()?;
        let key_pos = group_by
            .iter()
            .position(|g| *g == spec.order_column)
            .ok_or_else(|| Error::Invalid("order column not in group by".into()))?;
        let key_idx = input_schema.index_of(&group_by[key_pos])?;
        let mut topk_keys = DistinctKeyTopK::new(n, spec.desc, Arc::clone(boundary));
        let mut staged: Vec<Vec<Value>> = Vec::new();
        {
            let mut sink = |row: Vec<Value>, _: Option<PartitionId>| {
                if topk_keys.offer(&row[key_idx]) {
                    staged.push(row);
                }
            };
            let opts = StreamOpts::spine(Some((spec, boundary)));
            self.stream(input, opts, st, &mut sink)?;
        }
        let grouped = aggregate_rows(&input_schema, staged, group_by, aggs, None)?;
        let schema = agg_plan.schema()?;
        let order_in_out = schema.index_of(&spec.order_column)?;
        let mut rows = grouped;
        rows.sort_by(|a, b| {
            let ord = a[order_in_out].total_ord_cmp(&b[order_in_out]);
            if spec.desc {
                ord.reverse()
            } else {
                ord
            }
        });
        rows.truncate(n);
        let rows = rows.into_iter().skip(offset).collect();
        Ok(RowSet { schema, rows })
    }
}

/// Accounting for deterministic pooled-LIMIT early stop: rows produced by
/// the contiguous *completed* morsel prefix. Once that prefix covers the
/// LIMIT's `need`, later morsels can stop — every row of the final
/// (ordered, truncated) result is already pinned down, so early
/// termination cannot change the result, only how much extra I/O the
/// in-flight morsels perform. The prefix cursor advances once per
/// completed morsel (under a tiny mutex), keeping the hot per-partition
/// stop check a single atomic load instead of an O(morsels) walk.
struct LimitTracker {
    /// Post-chain row count per morsel (atomic so readers can observe
    /// while workers write).
    rows_per_morsel: Vec<AtomicUsize>,
    /// Morsel-complete flags.
    done: Vec<AtomicBool>,
    /// (next morsel index to absorb, rows absorbed so far).
    cursor: Mutex<(usize, usize)>,
    prefix_rows: AtomicUsize,
}

impl LimitTracker {
    fn new(morsels: usize) -> Self {
        LimitTracker {
            rows_per_morsel: (0..morsels).map(|_| AtomicUsize::new(0)).collect(),
            done: (0..morsels).map(|_| AtomicBool::new(false)).collect(),
            cursor: Mutex::new((0, 0)),
            prefix_rows: AtomicUsize::new(0),
        }
    }

    /// Mark morsel `mi` finished and absorb any newly-contiguous prefix.
    fn complete(&self, mi: usize) {
        self.done[mi].store(true, Ordering::Release);
        let mut state = self.cursor.lock();
        let (mut cursor, mut total) = *state;
        while cursor < self.done.len() && self.done[cursor].load(Ordering::Acquire) {
            total += self.rows_per_morsel[cursor].load(Ordering::Acquire);
            cursor += 1;
        }
        *state = (cursor, total);
        self.prefix_rows.store(total, Ordering::Release);
    }

    fn prefix_rows(&self) -> usize {
        self.prefix_rows.load(Ordering::Acquire)
    }
}

/// How [`Executor::drive_scan`] hands worker output to the driver-side sink
/// when the scan runs pooled.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Delivery {
    /// Exact scan-set order, after the scan has drained: every
    /// order-sensitive consumer (result rows, float accumulation,
    /// join-summary construction) sees the sequential scan's sequence no
    /// matter which worker ran which morsel. `need = Some(k)` arms the
    /// [`LimitTracker`]'s deterministic prefix-based early stop (§4.4
    /// pre-assigned partitions excepted); the caller truncates to `k`.
    Ordered { need: Option<usize> },
    /// Morsel-completion order, while later morsels are still scanning, so
    /// a consumer that tightens the scan's boundary (the top-k heap)
    /// reaches the workers mid-scan. Arrival order is timing-dependent:
    /// for a top-k consumer, ties at the k-th ORDER BY value are broken by
    /// arrival rather than scan order (SQL-legal; unique-key results stay
    /// fully deterministic).
    Arrival,
}

/// Worker output whose rows the ordered-LIMIT prefix accounting counts.
pub(crate) trait RowCount {
    fn row_count(&self) -> usize;
}

/// One batch's output rows, materialized worker-side, with their source
/// partition.
pub(crate) type RowChunk = (PartitionId, Vec<Vec<Value>>);

impl RowCount for RowChunk {
    fn row_count(&self) -> usize {
        self.1.len()
    }
}

impl RowCount for Batch {
    fn row_count(&self) -> usize {
        self.len()
    }
}

/// §8.2 filter recording, worker-side: a partition is a survivor as soon
/// as one of its batches carries a scan-predicate-selected row — *before*
/// any chain refines it.
fn note_survivor(survivors: &Survivors, batch: &Batch) {
    if let Some(s) = survivors {
        if !batch.is_empty() {
            s.lock().insert(batch.part.meta.id);
        }
    }
}

/// Worker map to materialized rows: the full `chain` applied to each batch.
pub(crate) fn rows_map(
    chain: BatchChain,
    survivors: Survivors,
) -> impl Fn(Batch) -> Option<RowChunk> + Send + Sync + 'static {
    move |batch| {
        note_survivor(&survivors, &batch);
        let rows = chain.apply(&batch);
        (!rows.is_empty()).then_some((batch.part.meta.id, rows))
    }
}

/// Worker map to refined batches: `chain`'s filters narrow the selection,
/// rows stay column-major for the consumer to materialize late.
fn batch_map(
    chain: BatchChain,
    survivors: Survivors,
) -> impl Fn(Batch) -> Option<Batch> + Send + Sync + 'static {
    move |batch| {
        note_survivor(&survivors, &batch);
        let mut sel = batch.sel.clone();
        chain.refine(&batch.part, &mut sel);
        (!sel.is_empty()).then_some(Batch {
            part: batch.part,
            sel,
        })
    }
}

/// A Filter*/Project* chain over a scan, compiled by
/// [`Executor::prepare_chain`]: the (join- and cache-restricted) scan, the
/// bound chain above it, the order column when the Figure-7b boundary hook
/// installed, and the filter recorder's survivor set when it is the
/// record target.
struct ChainScan {
    scan: CompiledScan,
    chain: BatchChain,
    order_col: Option<usize>,
    survivors: Survivors,
}

/// A row consumer on the streaming path, with the row's source partition
/// when it comes off the hooked top-k target scan.
type RowSink<'a> = &'a mut dyn FnMut(Vec<Value>, Option<PartitionId>);

/// How [`Executor::stream`] runs a plan: the hooks [`Executor::prepare_chain`]
/// installs on the chain it reaches, and how that chain's pooled output
/// reaches the sink.
#[derive(Clone, Copy)]
struct StreamOpts<'a> {
    /// §6 join pruning: a build side's summary and this side's key column.
    join: Option<(&'a JoinSummary, &'a str)>,
    /// Figure 7: the top-k spec and the boundary its heap tightens.
    topk: Option<(&'a TopKSpec, &'a Arc<Boundary>)>,
    delivery: Delivery,
}

impl<'a> StreamOpts<'a> {
    /// No hooks; scan-order delivery, stopping once `need` rows are pinned
    /// down when it is set.
    fn ordered(need: Option<usize>) -> Self {
        StreamOpts {
            join: None,
            topk: None,
            delivery: Delivery::Ordered { need },
        }
    }

    /// The top-k spine: the hooked target scan delivers on arrival; any
    /// other input runs in scan order, as a materialized sort input would.
    fn spine(topk: Option<(&'a TopKSpec, &'a Arc<Boundary>)>) -> Self {
        StreamOpts {
            topk,
            ..StreamOpts::ordered(None)
        }
    }

    /// What a Filter or Project above a non-chain input passes down: the
    /// top-k hook follows the spine, while the join hook and a LIMIT's
    /// `need` belong to the node they were given to.
    fn below(mut self) -> Self {
        self.join = None;
        if let Delivery::Ordered { need } = &mut self.delivery {
            *need = None;
        }
        self
    }
}

// ---- helpers -------------------------------------------------------------

/// Fresh predicate cache per the config knob (also used by
/// [`crate::Session`] to build its shared cache).
pub(crate) fn new_cache(cfg: &ExecConfig) -> Option<Arc<Mutex<PredicateCache>>> {
    cfg.predicate_cache.then(|| {
        Arc::new(Mutex::new(PredicateCache::new(
            cfg.predicate_cache_capacity,
        )))
    })
}

/// Chain operators (bottom-up application order).
enum ChainOp {
    Filter(snowprune_expr::Expr),
    Project(Vec<String>),
}

/// Decompose a Filter*/Project* chain over a single scan. Returns ops in
/// bottom-up order plus the scan's table and predicate.
fn split_chain(plan: &Plan) -> Option<(Vec<ChainOp>, &str, Option<&snowprune_expr::Expr>)> {
    match plan {
        Plan::Scan {
            table, predicate, ..
        } => Some((Vec::new(), table.as_str(), predicate.as_ref())),
        Plan::Filter { input, predicate } => {
            let (mut ops, t, p) = split_chain(input)?;
            ops.push(ChainOp::Filter(predicate.clone()));
            Some((ops, t, p))
        }
        Plan::Project { input, columns } => {
            let (mut ops, t, p) = split_chain(input)?;
            ops.push(ChainOp::Project(columns.clone()));
            Some((ops, t, p))
        }
        _ => None,
    }
}

/// Compile a chain into a [`BatchChain`], binding each filter against the
/// schema in force where it appears and composing projections into one
/// column map.
fn bind_chain(ops: &[ChainOp], scan_schema: &Schema) -> Result<BatchChain> {
    let mut schema = scan_schema.clone();
    let mut chain = BatchChain::identity(schema.len());
    for op in ops {
        match op {
            ChainOp::Filter(e) => chain.push_filter(&e.bind(&schema)?),
            ChainOp::Project(cols) => {
                let idxs: Vec<usize> = cols
                    .iter()
                    .map(|c| schema.index_of(c))
                    .collect::<Result<_>>()?;
                let fields = idxs
                    .iter()
                    .map(|&i| schema.fields()[i].clone())
                    .collect::<Vec<_>>();
                schema = Schema::new(fields);
                chain.push_project(&idxs);
            }
        }
    }
    Ok(chain)
}

fn sort_rows(input: RowSet, keys: &[SortKey]) -> Result<RowSet> {
    let bound: Vec<(snowprune_expr::Expr, bool)> = keys
        .iter()
        .map(|k| Ok((k.expr.bind(&input.schema)?, k.desc)))
        .collect::<Result<_>>()?;
    let mut rows = input.rows;
    rows.sort_by(|a, b| {
        for (expr, desc) in &bound {
            let va = snowprune_expr::eval_value(expr, a);
            let vb = snowprune_expr::eval_value(expr, b);
            let ord = va.total_ord_cmp(&vb);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(RowSet {
        schema: input.schema,
        rows,
    })
}

fn has_join(plan: &Plan) -> bool {
    let mut found = false;
    plan.visit(&mut |p| {
        if matches!(p, Plan::Join { .. }) {
            found = true;
        }
    });
    found
}

fn has_predicate(plan: &Plan) -> bool {
    let mut found = false;
    plan.visit(&mut |p| match p {
        Plan::Filter { .. } => found = true,
        Plan::Scan {
            predicate: Some(_), ..
        } => found = true,
        _ => {}
    });
    found
}

/// Snapshot a table out of a catalog: the table's current version, which
/// shares its immutable partition list with the live table (O(1), see
/// [`Table`]) and is unaffected by later DML.
pub fn snapshot_table(catalog: &Catalog, name: &str) -> Result<Arc<Table>> {
    Ok(Arc::new(catalog.get(name)?.read().clone()))
}
