//! The shared, morsel-driven scan worker pool — the virtual-warehouse
//! stand-in (§2 "Virtual Warehouses").
//!
//! A fixed set of worker threads pulls *morsels* — `(query, contiguous
//! scan-set range)` units — from a global injector queue organized as
//! per-query FIFO lanes. The pop rule is round-robin over lanes, so N
//! concurrent queries share `ExecConfig::scan_threads` workers instead of
//! spinning up N×threads, and no single query can starve the others.
//!
//! Two details model the paper's distributed execution faithfully:
//!
//! * **Pre-assignment (§4.4).** The first `min(workers, partitions)`
//!   partitions of every scan are processed without consulting the
//!   early-stop signal (spread across the leading morsels), mirroring how
//!   a scan set is distributed to n workers before any LIMIT coordination
//!   — which is why, without LIMIT pruning, n workers read at least n
//!   partitions even when one would do.
//! * **Stale boundaries stay sound.** Workers consult each query's top-k
//!   [`Boundary`] between partitions. Because boundaries only tighten
//!   (see [`snowprune_core::topk::boundary_allows_skip`]), a worker acting
//!   on a stale snapshot may under-prune but never over-prune, so morsels
//!   of different queries can interleave arbitrarily.
//!
//! The queue internals use `std::sync` primitives directly (the vendored
//! `parking_lot` shim deliberately exposes no `Condvar`); poison is
//! cleared, matching the shim's non-poisoning semantics.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// STD-SYNC-OK: the pool *wants* poisoning semantics — a worker panic must
// propagate to every thread blocked on the job's condvar, which
// parking_lot's non-poisoning locks cannot signal.
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use snowprune_core::filter::FilterPruner;
use snowprune_core::topk::Boundary;
use snowprune_storage::{IoCostModel, IoStats};

use crate::scan::{CompiledScan, ScanHooks, ScanPipeline, ScanRunStats};
use crate::vector::Batch;

/// Identifies one query's FIFO lane in the injector queue.
pub type QueryId = u64;

/// Per-batch output callback: `(morsel_index, batch)`. The morsel index
/// lets callers reassemble output in scan-set order regardless of which
/// worker ran which morsel; the batch carries its partition (provenance)
/// and the selected rows of one `batch_rows` window.
pub type PartitionSink = dyn Fn(usize, Batch) + Send + Sync;

/// Early-stop signal (LIMIT-style). Checked before each partition except
/// the scan's pre-assigned leading partitions (§4.4).
pub type StopFn = dyn Fn() -> bool + Send + Sync;

/// Invoked once per morsel after its last partition (processed or
/// stop-skipped); used for deterministic prefix accounting.
pub type MorselDoneFn = dyn Fn(usize) + Send + Sync;

/// Everything the pool needs to run one scan as morsels.
pub struct ScanJobSpec {
    /// The compiled scan (snapshot + pruned scan set) to execute.
    pub scan: CompiledScan,
    /// Per-query I/O counters (clones share counters, so per-query tallies
    /// stay race-free even when workers of many queries interleave).
    pub io: IoStats,
    /// Simulated object-store cost model charged per load.
    pub io_cost: IoCostModel,
    /// Top-k boundary hook and the ORDER BY column index.
    pub boundary: Option<(Arc<Boundary>, usize)>,
    /// Runtime pruner for deferred-filter partitions (§3.2).
    pub runtime_pruner: Option<FilterPruner>,
    /// Scan-set entries per morsel (clamped to ≥ 1).
    pub morsel_partitions: usize,
    /// Partition loads each worker keeps in flight per lane (clamped to
    /// ≥ 1; 1 = blocking). See [`crate::ExecConfig::prefetch_depth`].
    pub prefetch_depth: usize,
    /// Rows per column-major batch delivered to the sink (clamped to ≥ 1;
    /// `usize::MAX` = whole-partition batches). See
    /// [`crate::ExecConfig::batch_rows`].
    pub batch_rows: usize,
    /// Per-batch output callback (receives the morsel index).
    pub sink: Box<PartitionSink>,
    /// Early-stop signal checked between partitions (§4.4 pre-assigned
    /// partitions excepted).
    pub stop: Box<StopFn>,
    /// Optional per-morsel completion callback (LIMIT prefix accounting).
    pub on_morsel_done: Option<Box<MorselDoneFn>>,
}

struct ScanJob {
    scan: CompiledScan,
    io: IoStats,
    io_cost: IoCostModel,
    boundary: Option<(Arc<Boundary>, usize)>,
    runtime_pruner: Option<parking_lot::Mutex<FilterPruner>>,
    prefetch_depth: usize,
    batch_rows: usize,
    sink: Box<PartitionSink>,
    stop: Box<StopFn>,
    on_morsel_done: Option<Box<MorselDoneFn>>,
    progress: Arc<JobProgress>,
}

/// Shared completion state + aggregated counters for one submitted scan.
struct JobProgress {
    total_morsels: usize,
    completed: Mutex<usize>,
    done_cv: Condvar,
    /// Set when a worker panicked inside this job; re-raised by `wait()`.
    panicked: AtomicBool,
    /// Per-morsel [`ScanRunStats`] merged in as each morsel finishes; read
    /// by `wait()` only after every morsel has drained.
    totals: parking_lot::Mutex<ScanRunStats>,
}

impl JobProgress {
    fn new(total_morsels: usize) -> Self {
        JobProgress {
            total_morsels,
            completed: Mutex::new(0),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            totals: parking_lot::Mutex::new(ScanRunStats::default()),
        }
    }

    fn stats(&self) -> ScanRunStats {
        *self.totals.lock()
    }
}

/// Handle returned by [`MorselPool::submit`]; [`ScanTicket::wait`] blocks
/// until every morsel of the scan has drained.
pub struct ScanTicket {
    progress: Arc<JobProgress>,
}

impl ScanTicket {
    /// Block until every morsel has drained; returns the merged counters.
    /// Re-raises a panic from any worker that executed this job's morsels.
    pub fn wait(self) -> ScanRunStats {
        let mut done = lock(&self.progress.completed);
        while *done < self.progress.total_morsels {
            done = self
                .progress
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);
        if self.progress.panicked.load(Ordering::Acquire) {
            // PANIC-OK: deliberate panic propagation from a worker thread.
            panic!("a scan worker panicked while executing this job");
        }
        self.progress.stats()
    }
}

/// One unit of scan work: a contiguous range of scan-set entries.
struct Morsel {
    job: Arc<ScanJob>,
    index: usize,
    range: Range<usize>,
    /// §4.4 pre-assignment: this many leading partitions of the range are
    /// processed without consulting the early-stop signal. Across all
    /// morsels of a job, exactly the first `min(workers, partitions)`
    /// partitions of the scan set are unconditional, so the "n workers
    /// read at least n partitions" effect holds at any morsel size.
    unconditional: usize,
}

struct Lane {
    query: QueryId,
    morsels: VecDeque<Morsel>,
}

#[derive(Default)]
struct Injector {
    lanes: VecDeque<Lane>,
}

impl Injector {
    /// Round-robin pop: take the front lane's next morsel, rotating the
    /// lane to the back if it still has work (per-query FIFO, cross-query
    /// fairness).
    ///
    /// Fairness audit: the pop rule has no fixed starting cursor to bias —
    /// the *lane itself* rotates to the back of the lane queue on every
    /// pop, and a newly submitted lane joins at the back, so under
    /// contention every waiting lane is served exactly once per round
    /// regardless of lane id or submission order. The regression test
    /// `eight_contending_lanes_share_one_worker_fairly` pins the resulting
    /// max wait-gap.
    fn pop(&mut self) -> Option<Morsel> {
        let mut lane = self.lanes.pop_front()?;
        let morsel = lane.morsels.pop_front();
        if !lane.morsels.is_empty() {
            self.lanes.push_back(lane);
        }
        morsel
    }

    /// Round-robin pop of a *chain*: the front lane's next morsel plus as
    /// many consecutive same-job successors as it takes to cover the
    /// job's `prefetch_depth` in scan-set entries. The worker runs the
    /// chain through one shared [`ScanPipeline`], so a prefetch window
    /// deeper than one morsel actually spans morsel boundaries instead of
    /// draining at each one (`prefetch_depth` used to be silently capped
    /// at `morsel_partitions`). Chain boundaries depend only on the lane's
    /// FIFO content — all of a job's morsels are enqueued atomically at
    /// submit — so they are deterministic under any worker interleaving,
    /// which keeps the virtual-clock overlap accounting bit-identical
    /// across runs. With `prefetch_depth <= morsel_partitions` every chain
    /// is a single morsel and scheduling is unchanged.
    fn pop_chain(&mut self) -> Option<Vec<Morsel>> {
        let mut lane = self.lanes.pop_front()?;
        let first = lane.morsels.pop_front()?;
        let depth = first.job.prefetch_depth;
        let mut entries = first.range.len();
        let mut chain = vec![first];
        while entries < depth {
            match lane.morsels.front() {
                Some(next) if Arc::ptr_eq(&next.job, &chain[0].job) => {
                    // PANIC-OK: the queue is locked; front() just returned Some.
                    let m = lane.morsels.pop_front().expect("front just observed");
                    entries += m.range.len();
                    chain.push(m);
                }
                _ => break,
            }
        }
        if !lane.morsels.is_empty() {
            self.lanes.push_back(lane);
        }
        Some(chain)
    }

    fn push(&mut self, query: QueryId, morsels: VecDeque<Morsel>) {
        if morsels.is_empty() {
            return;
        }
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.query == query) {
            lane.morsels.extend(morsels);
        } else {
            self.lanes.push_back(Lane { query, morsels });
        }
    }
}

struct PoolShared {
    injector: Mutex<Injector>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared worker pool. Create once (per [`crate::Session`], or
/// implicitly per [`crate::Executor`] when `scan_threads > 1`) and share
/// the `Arc` across every query that should draw from the same workers.
pub struct MorselPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    next_lane: AtomicU64,
}

impl MorselPool {
    /// Spawn a pool of `workers` scan threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Arc<MorselPool> {
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(Injector::default()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("snowprune-scan-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // PANIC-OK: thread spawn failure at startup is unrecoverable.
                    .expect("spawn scan worker")
            })
            .collect();
        Arc::new(MorselPool {
            shared,
            workers: handles,
            next_lane: AtomicU64::new(0),
        })
    }

    /// Number of worker threads serving this pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Allocate a fresh query lane id (one per executed query).
    pub fn next_lane(&self) -> QueryId {
        self.next_lane.fetch_add(1, Ordering::Relaxed)
    }

    /// Split the scan into morsels, enqueue them on `lane`, and return a
    /// ticket to wait on. An empty scan set completes immediately.
    pub fn submit(&self, lane: QueryId, spec: ScanJobSpec) -> ScanTicket {
        let morsel_partitions = spec.morsel_partitions.max(1);
        let entries = spec.scan.scan_set.len();
        let total_morsels = entries.div_ceil(morsel_partitions);
        let progress = Arc::new(JobProgress::new(total_morsels));
        if total_morsels == 0 {
            // Job (and the sink it owns) drops here; nothing to run.
            return ScanTicket { progress };
        }
        let job = Arc::new(ScanJob {
            scan: spec.scan,
            io: spec.io,
            io_cost: spec.io_cost,
            boundary: spec.boundary,
            runtime_pruner: spec.runtime_pruner.map(parking_lot::Mutex::new),
            prefetch_depth: spec.prefetch_depth.max(1),
            batch_rows: spec.batch_rows.max(1),
            sink: spec.sink,
            stop: spec.stop,
            on_morsel_done: spec.on_morsel_done,
            progress: Arc::clone(&progress),
        });
        let preassign_parts = self.worker_count().min(entries);
        let morsels: VecDeque<Morsel> = (0..total_morsels)
            .map(|index| {
                let start = index * morsel_partitions;
                let range = start..((index + 1) * morsel_partitions).min(entries);
                let unconditional = preassign_parts.saturating_sub(start).min(range.len());
                Morsel {
                    job: Arc::clone(&job),
                    index,
                    range,
                    unconditional,
                }
            })
            .collect();
        drop(job);
        {
            let mut injector = lock(&self.shared.injector);
            injector.push(lane, morsels);
        }
        self.shared.work_cv.notify_all();
        ScanTicket { progress }
    }
}

impl Drop for MorselPool {
    fn drop(&mut self) {
        // Raise the flag under the injector lock: a worker checks it and
        // parks on `work_cv` without releasing that lock in between, so the
        // store cannot slip between its check and its wait (a wake-up lost
        // there would hang the join below forever).
        {
            let _queue = lock(&self.shared.injector);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers exit at the shutdown check without draining the queue.
        // Complete any stranded morsels (unexecuted) so a ScanTicket held
        // past the pool's lifetime unblocks instead of waiting forever.
        let mut injector = lock(&self.shared.injector);
        while let Some(morsel) = injector.pop() {
            complete_morsel(&morsel);
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut guard = lock(&shared.injector);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(chain) = guard.pop_chain() {
            drop(guard);
            // A panicking sink/predicate must not hang the driver in
            // `ScanTicket::wait` or kill the worker: record it, complete
            // every claimed morsel, and let `wait()` re-raise (matching
            // the panic propagation of the old scoped-thread model).
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_chain(&chain))).is_err()
            {
                chain[0]
                    .job
                    .progress
                    .panicked
                    .store(true, Ordering::Release);
            }
            for morsel in &chain {
                complete_morsel(morsel);
            }
            // Drop the chain — and with it, possibly the job's last Arc
            // (sink closure, channel senders, CompiledScan) — before
            // re-contending the pool-wide injector lock.
            drop(chain);
            guard = lock(&shared.injector);
        } else {
            guard = shared
                .work_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Execute a chain of same-job morsels through ONE shared load/evaluate
/// prefetch pipeline — identical per-entry semantics to the sequential
/// `stream_scan`, with §4.4 pre-assignment and the job's stop signal
/// wired in. Because the [`ScanPipeline`] (and its `AsyncLake`) persists
/// across the chained morsels, in-flight loads submitted under one morsel
/// keep overlapping with evaluation of the next — this is what lets
/// `prefetch_depth > morsel_partitions` actually deepen the window
/// instead of draining at every morsel boundary. Counters accumulate
/// locally and merge into the job's totals once the whole chain finishes
/// (readers only look after `wait()`); `on_morsel_done` still fires once
/// per morsel, in index order, after that morsel's entries have all been
/// submitted-or-skipped and completed.
fn run_chain(chain: &[Morsel]) {
    let job = &chain[0].job;
    let hooks = ScanHooks {
        boundary: job.boundary.as_ref().map(|(b, col)| (b, *col)),
        runtime_pruner: job.runtime_pruner.as_ref(),
        prefetch_depth: job.prefetch_depth,
        batch_rows: job.batch_rows,
    };
    let mut stats = ScanRunStats::default();
    let mut pipeline = ScanPipeline::new(&job.scan, &job.io, &job.io_cost);
    let mut sink = |tag: usize, batch: Batch| {
        (job.sink)(tag, batch);
        std::ops::ControlFlow::Continue(())
    };
    for morsel in chain {
        pipeline.run_slice(
            &job.scan,
            morsel.range.clone(),
            morsel.unconditional,
            morsel.index,
            &hooks,
            &|| (job.stop)(),
            &mut stats,
            &mut sink,
        );
    }
    pipeline.drain(&job.scan, &hooks, &|| (job.stop)(), &mut stats, &mut sink);
    pipeline.finish();
    job.progress.totals.lock().merge(&stats);
    if let Some(done) = &job.on_morsel_done {
        for morsel in chain {
            done(morsel.index);
        }
    }
}

fn complete_morsel(morsel: &Morsel) {
    let p = &morsel.job.progress;
    let mut done = lock(&p.completed);
    *done += 1;
    if *done >= p.total_morsels {
        p.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_core::filter::FilterPruneConfig;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::{Field, Layout, Schema, Table, TableBuilder};
    use snowprune_types::{ScalarType, Value};

    fn table(rows: i64) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let mut b = TableBuilder::new("t", schema)
            .target_rows_per_partition(10)
            .layout(Layout::ClusterBy(vec!["x".into()]));
        for i in 0..rows {
            b.push_row(vec![Value::Int(i)]);
        }
        Arc::new(b.build())
    }

    fn compile(t: &Arc<Table>, io: &IoStats, pred: Option<&snowprune_expr::Expr>) -> CompiledScan {
        CompiledScan::compile(
            "t",
            Arc::clone(t),
            pred,
            true,
            &FilterPruneConfig::default(),
            io,
            &IoCostModel::free(),
        )
        .unwrap()
    }

    fn spec_collecting(
        scan: CompiledScan,
        io: &IoStats,
        rows: &Arc<parking_lot::Mutex<Vec<(usize, Value)>>>,
    ) -> ScanJobSpec {
        let rows = Arc::clone(rows);
        ScanJobSpec {
            scan,
            io: io.clone(),
            io_cost: IoCostModel::free(),
            boundary: None,
            runtime_pruner: None,
            morsel_partitions: 3,
            prefetch_depth: 2,
            batch_rows: usize::MAX,
            sink: Box::new(move |mi, batch| {
                let mut g = rows.lock();
                for i in batch.sel.iter() {
                    g.push((mi, batch.part.row(i)[0].clone()));
                }
            }),
            stop: Box::new(|| false),
            on_morsel_done: None,
        }
    }

    #[test]
    fn pool_runs_all_morsels_and_counts() {
        let t = table(200);
        let io = IoStats::new();
        let scan = compile(&t, &io, Some(&col("x").lt(lit(90i64))));
        let pool = MorselPool::new(4);
        let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ticket = pool.submit(pool.next_lane(), spec_collecting(scan, &io, &rows));
        let stats = ticket.wait();
        assert_eq!(stats.loaded, 9);
        assert_eq!(stats.rows_emitted, 90);
        assert_eq!(rows.lock().len(), 90);
    }

    #[test]
    fn empty_scan_set_completes_immediately() {
        let t = table(50);
        let io = IoStats::new();
        let scan = compile(&t, &io, Some(&col("x").lt(lit(-1i64))));
        assert!(scan.scan_set.is_empty());
        let pool = MorselPool::new(2);
        let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ticket = pool.submit(pool.next_lane(), spec_collecting(scan, &io, &rows));
        let stats = ticket.wait();
        assert_eq!(stats.considered, 0);
        assert!(rows.lock().is_empty());
    }

    #[test]
    fn concurrent_lanes_share_workers_without_crosstalk() {
        let t = table(300);
        let pool = MorselPool::new(2);
        let ios: Vec<IoStats> = (0..8).map(|_| IoStats::new()).collect();
        let tickets: Vec<ScanTicket> = ios
            .iter()
            .map(|io| {
                let scan = compile(&t, io, None);
                let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
                pool.submit(pool.next_lane(), spec_collecting(scan, io, &rows))
            })
            .collect();
        for (ticket, io) in tickets.into_iter().zip(&ios) {
            let stats = ticket.wait();
            assert_eq!(stats.loaded, 30);
            // Per-query IoStats see exactly their own query's loads.
            assert_eq!(io.snapshot().partitions_loaded, 30);
        }
    }

    #[test]
    fn morsel_order_reassembles_scan_set_order() {
        let t = table(200);
        let io = IoStats::new();
        let scan = compile(&t, &io, None);
        let pool = MorselPool::new(4);
        let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
        pool.submit(pool.next_lane(), spec_collecting(scan, &io, &rows))
            .wait();
        let mut got = rows.lock().clone();
        // Sorting by (morsel index, value) must reproduce scan-set order —
        // i.e. the fully sequential read — exactly.
        got.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_ord_cmp(&b.1)));
        let expect: Vec<Value> = (0..200i64).map(Value::Int).collect();
        assert_eq!(got.into_iter().map(|(_, v)| v).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn dropping_pool_unblocks_outstanding_tickets() {
        let t = table(200);
        let io = IoStats::new();
        let pool = MorselPool::new(1);
        // Park the single worker on a job that waits until shutdown begins,
        // so a second job's morsels are still queued when the pool drops.
        let gate = Arc::new(AtomicBool::new(false));
        let mut blocker = spec_collecting(compile(&t, &io, None), &io, &Arc::default());
        let gate_in_sink = Arc::clone(&gate);
        blocker.sink = Box::new(move |_, _| {
            while !gate_in_sink.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let t1 = pool.submit(pool.next_lane(), blocker);
        let t2 = pool.submit(
            pool.next_lane(),
            spec_collecting(compile(&t, &io, None), &io, &Arc::default()),
        );
        gate.store(true, Ordering::Release);
        drop(pool);
        // Both tickets resolve: executed morsels report stats, stranded
        // ones are completed-without-running rather than leaking a hang.
        let _ = t1.wait();
        let s2 = t2.wait();
        assert!(s2.considered <= 20);
    }

    #[test]
    fn worker_panic_surfaces_at_wait_and_pool_survives() {
        let t = table(100);
        let io = IoStats::new();
        let pool = MorselPool::new(2);
        let mut spec = spec_collecting(compile(&t, &io, None), &io, &Arc::default());
        spec.sink = Box::new(|_, _| panic!("boom"));
        let ticket = pool.submit(pool.next_lane(), spec);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait())).is_err());
        // The workers survived the panic and keep serving later jobs.
        let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stats = pool
            .submit(
                pool.next_lane(),
                spec_collecting(compile(&t, &io, None), &io, &rows),
            )
            .wait();
        assert_eq!(stats.loaded, 10);
    }

    #[test]
    fn preassigned_partitions_ignore_stop() {
        let t = table(200); // 20 partitions, morsels of 3 ⇒ 7 morsels
        let io = IoStats::new();
        let scan = compile(&t, &io, None);
        let pool = MorselPool::new(4);
        let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut spec = spec_collecting(scan, &io, &rows);
        spec.stop = Box::new(|| true); // stop signalled from the very start
        let stats = pool.submit(pool.next_lane(), spec).wait();
        // Exactly the first min(4 workers, 20 partitions) partitions are
        // read unconditionally — independent of morsel size — and
        // everything else honours the stop signal.
        assert_eq!(stats.loaded, 4, "§4.4: n workers read n partitions");
    }

    #[test]
    fn preassigned_partitions_are_never_cancelled() {
        // Even with a deep prefetch pipeline and the stop signal raised
        // from the start, the §4.4 pre-assigned partitions complete —
        // they are neither stop-skipped at submit nor cancelled in flight.
        let t = table(200);
        let io = IoStats::new();
        let scan = compile(&t, &io, None);
        let pool = MorselPool::new(4);
        let mut spec = spec_collecting(scan, &io, &Arc::default());
        spec.prefetch_depth = 8;
        spec.stop = Box::new(|| true);
        let stats = pool.submit(pool.next_lane(), spec).wait();
        assert_eq!(stats.loaded, 4);
        assert_eq!(stats.cancelled_by_stop, 0, "pre-assigned never cancelled");
        assert_eq!(io.snapshot().partitions_loaded, 4);
    }

    #[test]
    fn prefetch_depth_deeper_than_morsel_still_overlaps() {
        // Regression: pooled scans used to drain the prefetch pipeline at
        // every morsel boundary, silently capping the effective in-flight
        // depth at `morsel_partitions` — depth 8 over morsels of 4 produced
        // exactly the same `io_overlapped_ns` as depth 4. Chain claiming
        // carries the window across consecutive morsels of the lane, so a
        // deeper window now hides strictly more I/O while loading exactly
        // the same bytes.
        let t = table(200); // 20 partitions of 10 rows
        let cost = IoCostModel {
            latency_ns_per_request: 10_000,
            throughput_bytes_per_sec: u64::MAX,
            metadata_ns_per_read: 0,
            eval_ns_per_row: 1_000, // per-partition eval == per-load latency
        };
        let run = |depth: usize| {
            let io = IoStats::new();
            let scan = compile(&t, &io, None);
            let pool = MorselPool::new(4);
            let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut spec = spec_collecting(scan, &io, &rows);
            spec.io_cost = cost;
            spec.morsel_partitions = 4;
            spec.prefetch_depth = depth;
            let stats = pool.submit(pool.next_lane(), spec).wait();
            let emitted = rows.lock().len();
            (stats, io.snapshot(), emitted)
        };
        let (s4, io4, n4) = run(4);
        let (s8, io8, n8) = run(8);
        assert_eq!(s4, s8, "depth must never change which partitions load");
        assert_eq!(n4, n8);
        assert_eq!(io4.bytes_loaded, io8.bytes_loaded, "bytes unchanged");
        assert_eq!(io4.partitions_loaded, io8.partitions_loaded);
        // Depth 4 drains per 4-entry window: 3 of every 4 loads hidden.
        // Depth 8 chains two morsels: 7 of every 8 loads hidden.
        assert!(
            io8.io_overlapped_ns > io4.io_overlapped_ns,
            "depth 8 over morsels of 4 must hide strictly more I/O \
             (depth 4: {} ns, depth 8: {} ns)",
            io4.io_overlapped_ns,
            io8.io_overlapped_ns
        );
    }

    #[test]
    fn eight_contending_lanes_share_one_worker_fairly() {
        // Satellite audit: prove the round-robin pop rule has no positional
        // bias. Eight lanes contend for ONE worker; we log the global order
        // in which morsels execute and assert every lane is served exactly
        // once per round — i.e. the gap between consecutive services of the
        // same lane never exceeds the lane count.
        let t = table(200); // 20 partitions ⇒ 5 morsels of 4 per lane
        let pool = MorselPool::new(1);
        let order = Arc::new(parking_lot::Mutex::new(Vec::<usize>::new()));
        // Hold the worker at the gate until all eight lanes are queued, so
        // the pop order reflects queue discipline rather than a race with
        // submission.
        let gate = Arc::new(AtomicBool::new(false));
        let ios: Vec<IoStats> = (0..8).map(|_| IoStats::new()).collect();
        let tickets: Vec<ScanTicket> = ios
            .iter()
            .enumerate()
            .map(|(lane, io)| {
                let scan = compile(&t, io, None);
                let order = Arc::clone(&order);
                let gate = Arc::clone(&gate);
                let mut spec = spec_collecting(scan, io, &Arc::default());
                spec.morsel_partitions = 4;
                spec.prefetch_depth = 1;
                spec.sink = Box::new(move |_, _| {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
                spec.on_morsel_done = Some(Box::new(move |_| order.lock().push(lane)));
                pool.submit(pool.next_lane(), spec)
            })
            .collect();
        gate.store(true, Ordering::Release);
        for ticket in tickets {
            ticket.wait();
        }
        let order = order.lock().clone();
        assert_eq!(order.len(), 8 * 5);
        let mut last_seen = [None::<usize>; 8];
        let mut max_gap = 0usize;
        for (pos, &lane) in order.iter().enumerate() {
            if let Some(prev) = last_seen[lane] {
                max_gap = max_gap.max(pos - prev);
            }
            last_seen[lane] = Some(pos);
        }
        assert!(
            max_gap <= 8,
            "a lane waited {max_gap} pops between services; \
             round-robin over 8 lanes must bound the gap at 8"
        );
    }

    #[test]
    fn pool_counters_are_depth_invariant_without_runtime_signals() {
        // With no boundary and no early stop, the prefetch depth changes
        // only the overlap accounting — never which partitions load.
        let t = table(200);
        let fingerprint = |depth: usize| -> (ScanRunStats, u64, u64) {
            let io = IoStats::new();
            let scan = compile(&t, &io, Some(&col("x").lt(lit(90i64))));
            let pool = MorselPool::new(4);
            let rows = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut spec = spec_collecting(scan, &io, &rows);
            spec.prefetch_depth = depth;
            let stats = pool.submit(pool.next_lane(), spec).wait();
            let snap = io.snapshot();
            (stats, snap.partitions_loaded, snap.bytes_loaded)
        };
        let base = fingerprint(1);
        for depth in [2usize, 8] {
            let got = fingerprint(depth);
            assert_eq!(got.0, base.0, "stats diverged at depth {depth}");
            assert_eq!(got.1, base.1);
            assert_eq!(got.2, base.2);
        }
    }
}
