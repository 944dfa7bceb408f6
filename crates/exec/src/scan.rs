//! Table-scan compilation and the load/evaluate prefetch pipeline shared by
//! every execution path.
//!
//! `run_scan_slice` is the single per-partition pipeline: it keeps up to
//! `prefetch_depth` partition loads in flight on an [`AsyncLake`] lane
//! while evaluating completed ones, re-checking the top-k boundary, the
//! deferred-filter pruner, and the early-stop signal at *completion* time
//! so a partition that became prunable while its load was in flight is
//! cancelled without ever charging I/O. The sequential [`stream_scan`]
//! drives it over the whole scan set; the shared [`crate::MorselPool`]
//! drives it per morsel — both therefore share identical pruning
//! decisions, counter ordering (the single `complete_load` helper), and
//! virtual-clock accounting.
//!
//! Completed loads are streamed to the sink **column-major**: each loaded
//! partition is chunked into `batch_rows` windows, the scan predicate runs
//! as selection-vector kernels per window, and the sink receives
//! [`Batch`]es (partition + [`SelVec`]) instead of materialized rows. The
//! batch size is purely a CPU-side knob — partitions load (and charge
//! I/O) whole, and every window of a loaded partition is always delivered
//! even after the sink breaks, so row/counter accounting is bit-identical
//! at every batch size.

use std::collections::{HashSet, VecDeque};
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use parking_lot::Mutex;
use snowprune_core::filter::{FilterPruneConfig, FilterPruner};
use snowprune_core::scan_set::ScanSet;
use snowprune_core::topk::Boundary;
use snowprune_expr::Expr;
use snowprune_storage::{
    AsyncLake, IoCostModel, IoStats, LoadTicket, MicroPartition, PartitionId, PartitionMeta,
    Schema, Table,
};
use snowprune_types::{Result, SelVec};

use crate::vector::Batch;

/// A table scan after compile-time filter pruning.
#[derive(Clone)]
pub struct CompiledScan {
    /// Name of the scanned table.
    pub table_name: String,
    /// Consistent snapshot of the table (partitions are immutable `Arc`s).
    pub table: Arc<Table>,
    /// The snapshot's schema (predicates are bound against it).
    pub schema: Schema,
    /// Bound scan predicate (pushed-down filters).
    pub predicate: Option<Expr>,
    /// Partitions that survived compile-time pruning, in scan order.
    pub scan_set: ScanSet,
    /// Partition count of the snapshot before any pruning.
    pub partitions_total: usize,
    /// Partitions dropped by compile-time filter pruning.
    pub pruned_by_filter: u64,
    /// Partitions whose every row matches the predicate (§4.1).
    pub fully_matching: u64,
    /// Filter leaves the §3.2 cutoff disabled during compile-time pruning.
    pub leaves_cut_off: u64,
    /// Partitions whose compile-time pruning was deferred (§3.2); they sit
    /// in the scan set and are re-checked by the runtime pruner.
    pub deferred_ids: HashSet<PartitionId>,
}

impl CompiledScan {
    /// Compile a scan: snapshot the table, bind the predicate, and run
    /// compile-time filter pruning within the configured budget.
    pub fn compile(
        table_name: &str,
        table: Arc<Table>,
        predicate: Option<&Expr>,
        enable_filter_pruning: bool,
        filter_cfg: &FilterPruneConfig,
        io: &IoStats,
        io_cost: &IoCostModel,
    ) -> Result<CompiledScan> {
        let schema = table.schema().clone();
        let bound = predicate.map(|p| p.bind(&schema)).transpose()?;
        let metas = table.read_metadata(io, io_cost);
        let partitions_total = metas.len();
        let (scan_set, pruned, fully, cut_off, deferred_ids) = match (&bound, enable_filter_pruning)
        {
            (Some(pred), true) => {
                let mut pruner = FilterPruner::new(pred, filter_cfg.clone());
                let res = pruner.prune(&metas);
                let deferred: HashSet<PartitionId> = res
                    .scan_set
                    .entries
                    .iter()
                    .rev()
                    .take(res.deferred)
                    .map(|e| e.id)
                    .collect();
                (
                    res.scan_set,
                    res.pruned as u64,
                    res.fully_matching as u64,
                    res.disabled_leaves as u64,
                    deferred,
                )
            }
            _ => {
                // No predicate: every partition is trivially fully matching
                // (§4.2), which LIMIT pruning exploits.
                let mut ss = ScanSet::full(&metas);
                if bound.is_none() {
                    for e in &mut ss.entries {
                        e.class = snowprune_types::MatchClass::FullyMatching;
                    }
                }
                (
                    ss,
                    0,
                    if bound.is_none() {
                        partitions_total as u64
                    } else {
                        0
                    },
                    0,
                    HashSet::new(),
                )
            }
        };
        Ok(CompiledScan {
            table_name: table_name.to_owned(),
            table,
            schema,
            predicate: bound,
            scan_set,
            partitions_total,
            pruned_by_filter: pruned,
            fully_matching: fully,
            leaves_cut_off: cut_off,
            deferred_ids,
        })
    }
}

/// Counters from one scan execution. The pipeline invariant
/// `considered == loaded + skipped_by_boundary + cancelled_in_flight()`
/// holds on every path (entries dropped before submission are skips;
/// entries whose load was issued and then revoked are cancellations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanRunStats {
    /// Scan-set entries the pipeline looked at.
    pub considered: u64,
    /// Partition loads that completed and were charged.
    pub loaded: u64,
    /// Submit-time skips: the boundary already excluded the partition
    /// before its load was issued.
    pub skipped_by_boundary: u64,
    /// In-flight loads cancelled at completion time because the top-k
    /// boundary tightened after submission.
    pub cancelled_by_boundary: u64,
    /// Deferred-filter prunes (§3.2). Decided at load-completion time —
    /// the adaptive pruner must see each deferred partition exactly once,
    /// in scan order, on every path — cancelling the in-flight load free.
    pub cancelled_by_runtime_filter: u64,
    /// In-flight loads cancelled because the early-stop signal fired while
    /// they were being prefetched.
    pub cancelled_by_stop: u64,
    /// Rows passed to the sink after predicate selection.
    pub rows_emitted: u64,
}

impl ScanRunStats {
    /// Total in-flight loads cancelled before their I/O was charged.
    pub fn cancelled_in_flight(&self) -> u64 {
        self.cancelled_by_boundary + self.cancelled_by_runtime_filter + self.cancelled_by_stop
    }

    /// Accumulate another scan's counters (per-query report totals).
    pub fn merge(&mut self, other: &ScanRunStats) {
        self.considered += other.considered;
        self.loaded += other.loaded;
        self.skipped_by_boundary += other.skipped_by_boundary;
        self.cancelled_by_boundary += other.cancelled_by_boundary;
        self.cancelled_by_runtime_filter += other.cancelled_by_runtime_filter;
        self.cancelled_by_stop += other.cancelled_by_stop;
        self.rows_emitted += other.rows_emitted;
    }
}

/// Runtime hooks consulted while the pipeline runs.
pub struct ScanHooks<'a> {
    /// Top-k boundary and the ORDER BY column index.
    pub boundary: Option<(&'a Arc<Boundary>, usize)>,
    /// Runtime filter pruner for deferred partitions.
    pub runtime_pruner: Option<&'a Mutex<FilterPruner>>,
    /// Loads kept in flight ahead of evaluation; 1 = the blocking model.
    pub prefetch_depth: usize,
    /// Rows per column-major batch delivered to the sink (clamped to ≥ 1).
    /// `usize::MAX` delivers each partition as a single batch.
    pub batch_rows: usize,
}

impl ScanHooks<'_> {
    /// No runtime hooks: blocking depth-1 scan, whole-partition batches,
    /// no boundary or pruner.
    pub fn none() -> ScanHooks<'static> {
        ScanHooks {
            boundary: None,
            runtime_pruner: None,
            prefetch_depth: 1,
            batch_rows: usize::MAX,
        }
    }
}

/// Stream the scan's partitions sequentially, invoking `sink` with each
/// column-major [`Batch`] that survives predicate selection. `sink` may
/// stop the scan early (LIMIT-style); the current partition's remaining
/// windows still flow (keeping counters batch-size-invariant), then
/// submission halts and in-flight prefetches are cancelled free.
pub fn stream_scan(
    scan: &CompiledScan,
    io: &IoStats,
    io_cost: &IoCostModel,
    hooks: &ScanHooks<'_>,
    mut sink: impl FnMut(Batch) -> ControlFlow<()>,
) -> ScanRunStats {
    let mut stats = ScanRunStats::default();
    run_scan_slice(
        scan,
        0..scan.scan_set.len(),
        0,
        io,
        io_cost,
        hooks,
        &|| false,
        &mut stats,
        &mut sink,
    );
    stats
}

/// Run one contiguous slice of the scan set through the load/evaluate
/// prefetch pipeline — the single-slice wrapper over [`ScanPipeline`],
/// used by the sequential [`stream_scan`] (whole scan set,
/// `unconditional = 0`) and the single-morsel unit tests. The pool's
/// workers drive [`ScanPipeline`] directly so the prefetch window can
/// *carry across consecutive morsels of one query lane* instead of
/// draining at every morsel boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_scan_slice(
    scan: &CompiledScan,
    range: Range<usize>,
    unconditional: usize,
    io: &IoStats,
    io_cost: &IoCostModel,
    hooks: &ScanHooks<'_>,
    stop: &dyn Fn() -> bool,
    stats: &mut ScanRunStats,
    sink: &mut dyn FnMut(Batch) -> ControlFlow<()>,
) {
    let mut pipeline = ScanPipeline::new(scan, io, io_cost);
    let mut tagged = |_tag: usize, batch: Batch| sink(batch);
    pipeline.run_slice(
        scan,
        range,
        unconditional,
        0,
        hooks,
        stop,
        stats,
        &mut tagged,
    );
    pipeline.drain(scan, hooks, stop, stats, &mut tagged);
    pipeline.finish();
}

/// The load/evaluate prefetch pipeline over one [`AsyncLake`] lane,
/// reusable across several contiguous slices of the same scan.
///
/// Submit stage ([`ScanPipeline::run_slice`]), per entry: early-stop check
/// (beyond the pre-assigned prefix), `considered` bump, submit-time
/// boundary skip, then an [`AsyncLake::submit_load`]. At most
/// `hooks.prefetch_depth` loads stay in flight; the oldest is resolved
/// before the next submission. Nothing drains at slice end — the caller
/// chains further slices (the cross-morsel carry) and calls
/// [`ScanPipeline::drain`] + [`ScanPipeline::finish`] once.
///
/// Completion stage, per in-flight load (FIFO, preserving scan-set output
/// order byte-identically): non-pre-assigned loads are re-checked against
/// the early stop and the (possibly tightened) boundary, and *every* load
/// runs the deferred filter pruner — any hit cancels the load with zero
/// I/O charged. §4.4 pre-assigned loads are exempt only from the runtime
/// *coordination* signals (stop, boundary), matching the blocking pool's
/// semantics where pre-assignment gated the stop check alone; a
/// partition's own deferred filter verdict still prunes it. The verdict is
/// pinned per slot at submit time, so a slot completing during a *later*
/// slice keeps its own slice's pre-assignment. Survivors complete through
/// [`complete_load`], get evaluated, and flow to `sink` tagged with the
/// slot's slice tag (the pool's morsel index — output reassembly stays
/// exact when a batch completes during a later morsel); a `Break` from
/// the sink halts submission and cancels the rest of the pipeline.
pub(crate) struct ScanPipeline<'s> {
    lake: AsyncLake,
    inflight: VecDeque<InflightSlot<'s>>,
    halted: bool,
}

impl<'s> ScanPipeline<'s> {
    /// A fresh pipeline (one virtual-clock lane) over `scan`.
    pub(crate) fn new(scan: &'s CompiledScan, io: &IoStats, io_cost: &IoCostModel) -> Self {
        ScanPipeline {
            lake: AsyncLake::new(Arc::clone(&scan.table), io.clone(), *io_cost),
            inflight: VecDeque::new(),
            halted: false,
        }
    }

    /// Submit one contiguous slice (see the type docs). `tag` labels every
    /// slot submitted here and rides to the sink with its batches.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_slice(
        &mut self,
        scan: &'s CompiledScan,
        range: Range<usize>,
        unconditional: usize,
        tag: usize,
        hooks: &ScanHooks<'_>,
        stop: &dyn Fn() -> bool,
        stats: &mut ScanRunStats,
        sink: &mut dyn FnMut(usize, Batch) -> ControlFlow<()>,
    ) {
        let depth = hooks.prefetch_depth.max(1);
        for (offset, index) in range.enumerate() {
            while self.inflight.len() >= depth {
                self.finish_next(scan, hooks, stop, stats, sink);
            }
            if offset >= unconditional && (self.halted || stop()) {
                self.halted = true;
                break;
            }
            let entry = &scan.scan_set.entries[index];
            // An unresolvable entry (impossible with immutable table
            // snapshots) is dropped before it is counted, preserving the
            // `considered == loaded + skipped + cancelled` identity.
            let Ok(meta) = scan.table.partition_meta(entry.id) else {
                continue;
            };
            stats.considered += 1;
            if let Some((boundary, col)) = hooks.boundary {
                if boundary.should_skip(&meta.zone_maps[col]) {
                    stats.skipped_by_boundary += 1;
                    continue;
                }
            }
            let ticket = self.lake.submit_load(entry.id, meta.bytes);
            self.inflight.push_back(InflightSlot {
                unconditional: offset < unconditional,
                index,
                tag,
                meta,
                ticket,
            });
        }
    }

    /// Resolve every still-in-flight load (FIFO).
    pub(crate) fn drain(
        &mut self,
        scan: &'s CompiledScan,
        hooks: &ScanHooks<'_>,
        stop: &dyn Fn() -> bool,
        stats: &mut ScanRunStats,
        sink: &mut dyn FnMut(usize, Batch) -> ControlFlow<()>,
    ) {
        while !self.inflight.is_empty() {
            self.finish_next(scan, hooks, stop, stats, sink);
        }
    }

    /// Close the lane, recording its makespan as simulated wall-clock.
    pub(crate) fn finish(mut self) {
        self.lake.finish();
    }

    /// Completion stage for the oldest in-flight load (see the type docs).
    fn finish_next(
        &mut self,
        scan: &'s CompiledScan,
        hooks: &ScanHooks<'_>,
        stop: &dyn Fn() -> bool,
        stats: &mut ScanRunStats,
        sink: &mut dyn FnMut(usize, Batch) -> ControlFlow<()>,
    ) {
        let slot = self
            .inflight
            .pop_front()
            // PANIC-OK: callers drain only while the queue is non-empty.
            .expect("in-flight queue non-empty");
        let entry = &scan.scan_set.entries[slot.index];
        // §4.4 pre-assigned partitions are never cancelled by the runtime
        // *coordination* signals (early stop, top-k boundary): they model
        // scan-set ranges already handed to workers before any LIMIT/top-k
        // coordination, matching the blocking pool, where pre-assignment
        // gated only the stop check.
        if !slot.unconditional {
            if self.halted || stop() {
                self.lake.cancel(slot.ticket);
                stats.cancelled_by_stop += 1;
                return;
            }
            if let Some((boundary, col)) = hooks.boundary {
                if boundary.should_skip(&slot.meta.zone_maps[col]) {
                    self.lake.cancel(slot.ticket);
                    stats.cancelled_by_boundary += 1;
                    return;
                }
            }
        }
        // The deferred filter verdict is the partition's own (§3.2), not a
        // coordination signal — it applies to pre-assigned entries too, and
        // runs here (completion, FIFO) so the adaptive pruner sees each
        // deferred partition exactly once, in scan order, on every path.
        if let Some(pruner) = hooks.runtime_pruner {
            if scan.deferred_ids.contains(&entry.id)
                && pruner.lock().evaluate(&slot.meta.zone_maps).prunable()
            {
                self.lake.cancel(slot.ticket);
                stats.cancelled_by_runtime_filter += 1;
                return;
            }
        }
        let Some(part) = complete_load(&mut self.lake, slot.ticket, &mut || stats.loaded += 1)
        else {
            return;
        };
        let n = part.row_count();
        let batch_rows = hooks.batch_rows.max(1);
        self.lake.note_evaluated(n as u64);
        // Chunked delivery. Every window of a loaded partition flows to the
        // sink even after it breaks (sticky break): early stop stays
        // partition-granular, so `rows_emitted` and the per-partition I/O
        // accounting are bit-identical at every batch size — the
        // differential and stress fingerprints depend on this.
        let mut start = 0usize;
        loop {
            let len = batch_rows.min(n - start);
            let sel = select_range(scan, entry, &part, start, len);
            stats.rows_emitted += sel.len() as u64;
            if sink(
                slot.tag,
                Batch {
                    part: Arc::clone(&part),
                    sel,
                },
            )
            .is_break()
            {
                self.halted = true;
            }
            start += len;
            if start >= n {
                break;
            }
        }
    }
}

/// One submitted-but-unresolved load in the pipeline.
struct InflightSlot<'a> {
    /// §4.4 verdict pinned at submit time: this slot sat inside its
    /// slice's pre-assigned prefix, so coordination signals never cancel
    /// it — even when it completes during a later chained slice.
    unconditional: bool,
    /// Index into the scan set.
    index: usize,
    /// Caller tag of the slice that submitted this slot (the pool's morsel
    /// index), echoed to the sink for exact output reassembly.
    tag: usize,
    /// Resolved at submit time; partitions are immutable snapshots, so the
    /// completion-stage re-checks can reuse it instead of re-resolving.
    meta: &'a PartitionMeta,
    ticket: LoadTicket,
}

/// The single load/record step shared by the blocking (depth-1) and
/// prefetch paths: completing the ticket charges the partition's bytes and
/// latency to `IoStats`, and only then is the `loaded` counter bumped —
/// one helper, one ordering, so the scan counter and the I/O charge cannot
/// diverge between execution paths (the seed split this across `pool.rs`
/// and `scan.rs`).
pub(crate) fn complete_load(
    lake: &mut AsyncLake,
    ticket: LoadTicket,
    loaded: &mut dyn FnMut(),
) -> Option<Arc<MicroPartition>> {
    let part = lake.complete(ticket).ok()?;
    loaded();
    Some(part)
}

/// Evaluate the scan predicate on one row window of a partition.
/// Fully-matching partitions skip predicate evaluation entirely (a real
/// CPU saving from §4's classification) and yield an allocation-free
/// contiguous selection; everything else runs the selection-vector
/// kernels of `snowprune_expr::kernel`.
pub(crate) fn select_range(
    scan: &CompiledScan,
    entry: &snowprune_core::scan_set::ScanEntry,
    part: &MicroPartition,
    start: usize,
    len: usize,
) -> SelVec {
    match (&scan.predicate, entry.class) {
        (None, _) | (_, snowprune_types::MatchClass::FullyMatching) => {
            SelVec::All(start..start + len)
        }
        (Some(pred), _) => snowprune_expr::kernel::select_range(pred, part, start, len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_expr::dsl::{col, lit};
    use snowprune_storage::{Field, Layout, TableBuilder};
    use snowprune_types::{ScalarType, Value};

    fn table() -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let mut b = TableBuilder::new("t", schema)
            .target_rows_per_partition(10)
            .layout(Layout::ClusterBy(vec!["x".into()]));
        for i in 0..200i64 {
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

    #[test]
    fn compile_prunes_and_marks_fully_matching() {
        let t = table();
        let io = IoStats::new();
        let scan = CompiledScan::compile(
            "t",
            t,
            Some(&col("x").lt(lit(25i64))),
            true,
            &FilterPruneConfig::default(),
            &io,
            &IoCostModel::free(),
        )
        .unwrap();
        assert_eq!(scan.partitions_total, 20);
        assert_eq!(scan.scan_set.len(), 3); // x in [0,25): partitions 0,1,2
        assert_eq!(scan.pruned_by_filter, 17);
        assert_eq!(scan.fully_matching, 2); // partitions 0 and 1 fully inside
        assert_eq!(io.snapshot().metadata_reads, 20);
    }

    #[test]
    fn stream_applies_predicate_and_counts_io() {
        let t = table();
        let io = IoStats::new();
        let model = IoCostModel::free();
        let scan = CompiledScan::compile(
            "t",
            t,
            Some(&col("x").lt(lit(25i64))),
            true,
            &FilterPruneConfig::default(),
            &io,
            &model,
        )
        .unwrap();
        let mut rows = Vec::new();
        let stats = stream_scan(&scan, &io, &model, &ScanHooks::none(), |batch| {
            for i in batch.sel.iter() {
                rows.push(batch.part.row(i)[0].clone());
            }
            ControlFlow::Continue(())
        });
        assert_eq!(rows.len(), 25);
        assert_eq!(stats.loaded, 3);
        assert_eq!(io.snapshot().partitions_loaded, 3);
    }

    #[test]
    fn no_pruning_configuration_scans_everything() {
        let t = table();
        let io = IoStats::new();
        let scan = CompiledScan::compile(
            "t",
            t,
            Some(&col("x").lt(lit(25i64))),
            false, // pruning disabled
            &FilterPruneConfig::default(),
            &io,
            &IoCostModel::free(),
        )
        .unwrap();
        assert_eq!(scan.scan_set.len(), 20);
        let stats = stream_scan(&scan, &io, &IoCostModel::free(), &ScanHooks::none(), |_| {
            ControlFlow::Continue(())
        });
        assert_eq!(stats.loaded, 20);
        assert_eq!(stats.rows_emitted, 25, "same rows, more I/O");
    }

    #[test]
    fn early_stop_halts_scan() {
        let t = table();
        let io = IoStats::new();
        let scan = CompiledScan::compile(
            "t",
            t,
            None,
            true,
            &FilterPruneConfig::default(),
            &io,
            &IoCostModel::free(),
        )
        .unwrap();
        let mut n = 0u64;
        stream_scan(
            &scan,
            &io,
            &IoCostModel::free(),
            &ScanHooks::none(),
            |batch| {
                n += batch.len() as u64;
                if n >= 15 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(io.snapshot().partitions_loaded, 2);
    }

    #[test]
    fn boundary_hook_skips_partitions() {
        let t = table();
        let io = IoStats::new();
        let scan = CompiledScan::compile(
            "t",
            t,
            None,
            true,
            &FilterPruneConfig::default(),
            &io,
            &IoCostModel::free(),
        )
        .unwrap();
        let boundary = Boundary::new(true);
        boundary.tighten(&Value::Int(150));
        let hooks = ScanHooks {
            boundary: Some((&boundary, 0)),
            runtime_pruner: None,
            prefetch_depth: 1,
            batch_rows: usize::MAX,
        };
        let stats = stream_scan(&scan, &io, &IoCostModel::free(), &hooks, |_| {
            ControlFlow::Continue(())
        });
        // Partitions with max <= 150: ids 0..=14 skipped (max 149 in id 14),
        // partition 15 has max 159 > 150.
        assert_eq!(stats.skipped_by_boundary, 15);
        assert_eq!(stats.loaded, 5);
    }

    #[test]
    fn pooled_scan_matches_sequential_rows() {
        // Every engine behind `Executor::drive_scan` — in-driver, pooled
        // with 1 worker, pooled with 4 — under every delivery discipline
        // must reproduce the bare sequential `stream_scan` on a scan that
        // exercises all the runtime hooks at once: a zero compile-time
        // budget defers the filter verdicts to the runtime pruner, and a
        // pre-seeded ascending boundary skips the tail of the scan set.
        use crate::exec::{rows_map, Delivery, Executor, RunState};
        let filter = FilterPruneConfig {
            compile_time_budget_ns: 0,
            cutoff: false,
            ..FilterPruneConfig::default()
        };
        let model = IoCostModel::free();
        let pred = col("x").ge(lit(100i64));
        let scan = CompiledScan::compile(
            "t",
            table(),
            Some(&pred),
            true,
            &filter,
            &IoStats::new(),
            &model,
        )
        .unwrap();
        assert!(!scan.deferred_ids.is_empty());
        let boundary = Boundary::new(false);
        boundary.tighten(&Value::Int(155));

        let pruner = Mutex::new(FilterPruner::new(
            scan.predicate.as_ref().unwrap(),
            filter.clone(),
        ));
        let hooks = ScanHooks {
            boundary: Some((&boundary, 0)),
            runtime_pruner: Some(&pruner),
            prefetch_depth: 2,
            batch_rows: 4,
        };
        let mut seq_rows: Vec<Vec<Value>> = Vec::new();
        let mut seq_parts = HashSet::new();
        let seq_stats = stream_scan(&scan, &IoStats::new(), &model, &hooks, |batch| {
            if !batch.is_empty() {
                seq_parts.insert(batch.part.meta.id);
            }
            seq_rows.extend(batch.sel.iter().map(|i| batch.part.row(i)));
            ControlFlow::Continue(())
        });
        // x in [100, 160): partitions 10..=15 load, 0..=9 fall to the
        // runtime filter, 16..=19 to the boundary.
        assert_eq!(seq_rows.len(), 60);
        assert_eq!(seq_stats.loaded, 6);
        assert!(seq_stats.cancelled_by_runtime_filter > 0);
        assert_eq!(seq_stats.skipped_by_boundary, 4);

        let cfg = crate::ExecConfig {
            scan_threads: 1,
            morsel_partitions: 3,
            prefetch_depth: 2,
            batch_rows: 4,
            filter,
            io_cost: model,
            ..crate::ExecConfig::default()
        };
        let catalog = snowprune_storage::Catalog::new;
        let pooled = |n| Executor::with_pool(catalog(), cfg.clone(), crate::MorselPool::new(n));
        let engines = [
            ("in-driver", Executor::new(catalog(), cfg.clone())),
            ("pooled x1", pooled(1)),
            ("pooled x4", pooled(4)),
        ];
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by(|a, b| a[0].total_ord_cmp(&b[0]));
            rows
        };
        const NEED: usize = 25;
        for (engine, exec) in &engines {
            for delivery in [
                Delivery::Ordered { need: None },
                Delivery::Ordered { need: Some(NEED) },
                Delivery::Arrival,
            ] {
                let cell = format!("{engine} / {delivery:?}");
                let survivors = Arc::new(Mutex::new(HashSet::new()));
                let mut rows: Vec<Vec<Value>> = Vec::new();
                let mut st = RunState::default();
                let stats = exec.drive_scan(
                    &scan,
                    &mut st,
                    Some((&boundary, 0)),
                    delivery,
                    rows_map(crate::BatchChain::identity(1), Some(Arc::clone(&survivors))),
                    |(_, chunk)| rows.extend(chunk),
                );
                assert_eq!(
                    stats.considered,
                    stats.loaded + stats.skipped_by_boundary + stats.cancelled_in_flight(),
                    "{cell}"
                );
                if let Delivery::Ordered { need: Some(_) } = delivery {
                    // Early stop: how far past the limit the scan ran is
                    // the engine's business; the prefix is not.
                    assert_eq!(rows[..NEED], seq_rows[..NEED], "{cell}");
                    continue;
                }
                assert_eq!(stats, seq_stats, "{cell}");
                assert_eq!(*survivors.lock(), seq_parts, "{cell}");
                match delivery {
                    Delivery::Arrival => {
                        assert_eq!(sorted(rows), sorted(seq_rows.clone()), "{cell}")
                    }
                    Delivery::Ordered { .. } => assert_eq!(rows, seq_rows, "{cell}"),
                }
            }
        }
    }

    #[test]
    fn loaded_counter_and_io_charge_move_in_lockstep() {
        // Pins the ordering of the shared load/record helper: when the
        // `loaded` callback fires, the IoStats charge for that partition
        // has already landed — and an unresolved ticket bumps neither.
        let t = table();
        let io = IoStats::new();
        let model = IoCostModel::free();
        let mut lake = AsyncLake::new(Arc::clone(&t), io.clone(), model);
        let mut loaded = 0u64;
        for id in 0..3u64 {
            let bytes = t.partition_meta(id).unwrap().bytes;
            let ticket = lake.submit_load(id, bytes);
            assert_eq!(io.snapshot().partitions_loaded, loaded, "no charge yet");
            let io_probe = io.clone();
            let part = complete_load(&mut lake, ticket, &mut || {
                loaded += 1;
                // The I/O charge precedes the counter bump.
                assert_eq!(io_probe.snapshot().partitions_loaded, loaded);
            })
            .unwrap();
            assert_eq!(part.meta.id, id);
        }
        assert_eq!(loaded, 3);
        assert_eq!(io.snapshot().partitions_loaded, 3);
        // Cancelled tickets bump neither side.
        let ticket = lake.submit_load(3, t.partition_meta(3).unwrap().bytes);
        lake.cancel(ticket);
        assert_eq!(io.snapshot().partitions_loaded, 3);
        assert_eq!(io.snapshot().loads_cancelled, 1);
    }

    #[test]
    fn prefetch_depths_agree_with_blocking_on_boundary_scans() {
        // Sequential law: because completions are FIFO and the boundary is
        // monotone, a depth-d pipeline loads exactly the partitions the
        // blocking path loads — submit-time skips plus completion-time
        // cancellations together equal the blocking path's skips.
        let t = table();
        let run = |depth: usize| -> (ScanRunStats, u64, Vec<Value>) {
            let io = IoStats::new();
            let scan = compile(&t, &io, None);
            let boundary = Boundary::new(true);
            let hooks = ScanHooks {
                boundary: Some((&boundary, 0)),
                runtime_pruner: None,
                prefetch_depth: depth,
                batch_rows: usize::MAX,
            };
            let mut rows = Vec::new();
            let stats = stream_scan(&scan, &io, &IoCostModel::free(), &hooks, |batch| {
                for i in batch.sel.iter() {
                    let v = batch.part.row(i)[0].clone();
                    rows.push(v.clone());
                    // Tighten as a heap would: after 30 rows the 30th-best
                    // value bounds the scan.
                    if rows.len() == 30 {
                        boundary.tighten_inclusive(&Value::Int(170));
                    }
                }
                ControlFlow::Continue(())
            });
            (stats, io.snapshot().partitions_loaded, rows)
        };
        let (s1, loaded1, rows1) = run(1);
        for depth in [2usize, 4, 8] {
            let (sd, loadedd, rowsd) = run(depth);
            assert_eq!(sd.loaded, s1.loaded, "depth {depth} loads diverged");
            assert_eq!(loadedd, loaded1);
            assert_eq!(rowsd, rows1, "depth {depth} rows diverged");
            assert_eq!(
                sd.skipped_by_boundary + sd.cancelled_by_boundary,
                s1.skipped_by_boundary + s1.cancelled_by_boundary,
            );
            assert_eq!(
                sd.considered,
                sd.loaded + sd.skipped_by_boundary + sd.cancelled_in_flight()
            );
        }
        // The boundary tightened mid-flight, so deeper pipelines must have
        // cancelled at least one submitted load instead of skipping it.
        let (s8, _, _) = run(8);
        assert!(s8.cancelled_by_boundary > 0, "no in-flight cancellation");
        assert_eq!(s1.cancelled_by_boundary, 0, "depth 1 cannot cancel");
    }

    #[test]
    fn sink_break_cancels_inflight_prefetches() {
        let t = table();
        let io = IoStats::new();
        let scan = compile(&t, &io, None);
        let hooks = ScanHooks {
            boundary: None,
            runtime_pruner: None,
            prefetch_depth: 4,
            batch_rows: usize::MAX,
        };
        let mut n = 0u64;
        let stats = stream_scan(&scan, &io, &IoCostModel::free(), &hooks, |batch| {
            n += batch.len() as u64;
            if n >= 15 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        // Identical I/O to the blocking early stop: partitions prefetched
        // past the break are cancelled, not loaded.
        assert_eq!(io.snapshot().partitions_loaded, 2);
        assert_eq!(stats.loaded, 2);
        assert!(stats.cancelled_by_stop > 0);
        assert_eq!(io.snapshot().loads_cancelled, stats.cancelled_in_flight());
    }

    #[test]
    fn prefetch_overlaps_simulated_io_with_evaluation() {
        let t = table();
        let model = IoCostModel {
            latency_ns_per_request: 10_000,
            throughput_bytes_per_sec: u64::MAX,
            metadata_ns_per_read: 0,
            eval_ns_per_row: 1_000,
        };
        let run = |depth: usize| {
            let io = IoStats::new();
            let scan = compile(&t, &io, None);
            let hooks = ScanHooks {
                boundary: None,
                runtime_pruner: None,
                prefetch_depth: depth,
                batch_rows: usize::MAX,
            };
            stream_scan(&scan, &io, &model, &hooks, |_| ControlFlow::Continue(()));
            io.snapshot()
        };
        let blocking = run(1);
        let prefetched = run(2);
        assert_eq!(blocking.io_overlapped_ns, 0);
        assert_eq!(
            blocking.simulated_wall_ns,
            blocking.simulated_io_ns + blocking.simulated_cpu_ns
        );
        assert_eq!(prefetched.bytes_loaded, blocking.bytes_loaded);
        assert!(prefetched.io_overlapped_ns > 0);
        assert!(prefetched.simulated_wall_ns < blocking.simulated_wall_ns);
        assert_eq!(
            prefetched.simulated_wall_ns,
            prefetched.simulated_io_ns + prefetched.simulated_cpu_ns - prefetched.io_overlapped_ns
        );
    }

    #[test]
    fn batch_size_never_changes_rows_or_counters() {
        // The batch size is a pure CPU-side chunking knob: rows delivered,
        // every pipeline counter, and the full I/O snapshot must be
        // bit-identical at any `batch_rows` — including with a sink that
        // breaks mid-partition (sticky break keeps early stop
        // partition-granular).
        let t = table();
        let model = IoCostModel::free();
        let run = |batch_rows: usize, stop_at: Option<u64>| {
            let io = IoStats::new();
            let scan = compile(&t, &io, Some(&col("x").ge(lit(40i64))));
            let hooks = ScanHooks {
                boundary: None,
                runtime_pruner: None,
                prefetch_depth: 2,
                batch_rows,
            };
            let mut rows: Vec<Value> = Vec::new();
            let mut seen = 0u64;
            let stats = stream_scan(&scan, &io, &model, &hooks, |batch| {
                for i in batch.sel.iter() {
                    rows.push(batch.part.row(i)[0].clone());
                }
                seen += batch.len() as u64;
                match stop_at {
                    Some(n) if seen >= n => ControlFlow::Break(()),
                    _ => ControlFlow::Continue(()),
                }
            });
            (rows, stats, io.snapshot())
        };
        for stop_at in [None, Some(7u64), Some(25)] {
            let (rows_ref, stats_ref, io_ref) = run(usize::MAX, stop_at);
            for batch_rows in [1usize, 3, 7, 1024] {
                let (rows, stats, io) = run(batch_rows, stop_at);
                assert_eq!(rows, rows_ref, "rows diverged at batch {batch_rows}");
                assert_eq!(stats, stats_ref, "stats diverged at batch {batch_rows}");
                assert_eq!(io, io_ref, "io diverged at batch {batch_rows}");
            }
        }
    }
}
