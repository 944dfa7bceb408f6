//! Property tests for the async prefetch pipeline: under *arbitrary*
//! completion orderings and boundary-tighten interleavings (proptest-
//! generated schedules driven on the deterministic virtual clock), a
//! cancelled load never contributes bytes or latency to `IoStats`, and
//! cancellation never drops a row the oracle emits.

#![allow(clippy::field_reassign_with_default)] // config tweak idiom

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;
use snowprune_core::filter::FilterPruneConfig;
use snowprune_core::topk::{Boundary, TopKHeap};
use snowprune_exec::{CompiledScan, ExecConfig, Executor};
use snowprune_expr::dsl::{col, lit};
use snowprune_plan::PlanBuilder;
use snowprune_storage::{
    AsyncLake, Catalog, Field, IoCostModel, IoStats, Layout, LoadTicket, Schema, Table,
    TableBuilder,
};
use snowprune_types::{ScalarType, Value};

fn schema() -> Schema {
    Schema::new(vec![Field::new("v", ScalarType::Int)])
}

fn build_table(values: &[i64], per_part: usize, clustered: bool) -> Arc<Table> {
    let layout = if clustered {
        Layout::ClusterBy(vec!["v".into()])
    } else {
        Layout::Shuffle(23)
    };
    let mut b = TableBuilder::new("t", schema())
        .target_rows_per_partition(per_part)
        .layout(layout);
    for v in values {
        b.push_row(vec![Value::Int(*v)]);
    }
    Arc::new(b.build())
}

/// Per-run bookkeeping for the manual pipeline harness.
#[derive(Default)]
struct Tally {
    loaded: u64,
    loaded_bytes: u64,
    cancelled: u64,
}

/// Resolve one in-flight load, under schedule control: first absorb up to
/// `absorb` pending rows into the heap (the boundary-tighten interleaving —
/// this models a driver that lags arbitrarily behind the scan), then pick
/// an arbitrary in-flight ticket (the completion-ordering interleaving),
/// re-check the boundary, and cancel or complete it.
#[allow(clippy::too_many_arguments)]
fn resolve_one(
    scan: &CompiledScan,
    boundary: &Boundary,
    heap: &mut TopKHeap<Value>,
    lake: &mut AsyncLake,
    pending: &mut VecDeque<Value>,
    inflight: &mut VecDeque<(usize, LoadTicket)>,
    (absorb, pick): (u8, u8),
    tally: &mut Tally,
) {
    for _ in 0..absorb {
        let Some(v) = pending.pop_front() else { break };
        heap.insert(v.clone(), v);
    }
    let slot = pick as usize % inflight.len();
    let (idx, ticket) = inflight.remove(slot).expect("slot in range");
    let entry = &scan.scan_set.entries[idx];
    let meta = scan.table.partition_meta(entry.id).unwrap();
    if boundary.should_skip(&meta.zone_maps[0]) {
        lake.cancel(ticket);
        tally.cancelled += 1;
    } else {
        let part = lake.complete(ticket).unwrap();
        tally.loaded += 1;
        tally.loaded_bytes += part.meta.bytes;
        for i in 0..part.row_count() {
            pending.push_back(part.row(i)[0].clone());
        }
        lake.note_evaluated(part.row_count() as u64);
    }
}

const LATENCY_NS: u64 = 1_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The manual harness: a top-k scan driven through `AsyncLake` with a
    /// proptest schedule choosing, at every resolution point, how far the
    /// boundary has tightened and *which* in-flight load resolves next.
    /// Invariants: (1) `IoStats` charges exactly the completed loads —
    /// cancelled tickets contribute zero bytes and zero latency; (2) the
    /// pipeline counter identity holds; (3) the surviving rows still
    /// contain the exact oracle top-k — cancellation never loses a result
    /// row, no matter the interleaving.
    #[test]
    fn cancelled_loads_are_free_and_never_drop_oracle_rows(
        values in proptest::collection::vec(-100i64..100, 1..240),
        per_part in prop_oneof![Just(5usize), Just(13), Just(32)],
        k in 1usize..12,
        desc in any::<bool>(),
        depth in 1usize..9,
        clustered in any::<bool>(),
        schedule in proptest::collection::vec((0u8..8, 0u8..8), 0..512),
    ) {
        let table = build_table(&values, per_part, clustered);
        let io = IoStats::new();
        let model = IoCostModel {
            latency_ns_per_request: LATENCY_NS,
            throughput_bytes_per_sec: u64::MAX,
            metadata_ns_per_read: 0,
            eval_ns_per_row: 10,
        };
        let scan = CompiledScan::compile(
            "t",
            Arc::clone(&table),
            None,
            true,
            &FilterPruneConfig::default(),
            &io,
            &model,
        )
        .unwrap();
        let boundary = Boundary::new(desc);
        let mut heap = TopKHeap::new(k, desc, Arc::clone(&boundary));
        let mut lake = AsyncLake::new(Arc::clone(&table), io.clone(), model);
        let mut sched: VecDeque<(u8, u8)> = schedule.into_iter().collect();
        let mut pending: VecDeque<Value> = VecDeque::new();
        let mut inflight: VecDeque<(usize, LoadTicket)> = VecDeque::new();
        let mut tally = Tally::default();
        let mut considered = 0u64;
        let mut skipped = 0u64;

        for (idx, entry) in scan.scan_set.entries.iter().enumerate() {
            while inflight.len() >= depth {
                let step = sched.pop_front().unwrap_or((7, 0));
                resolve_one(
                    &scan, &boundary, &mut heap, &mut lake,
                    &mut pending, &mut inflight, step, &mut tally,
                );
            }
            considered += 1;
            let meta = scan.table.partition_meta(entry.id).unwrap();
            if boundary.should_skip(&meta.zone_maps[0]) {
                skipped += 1;
                continue;
            }
            inflight.push_back((idx, lake.submit_load(entry.id, meta.bytes)));
        }
        while !inflight.is_empty() {
            let step = sched.pop_front().unwrap_or((7, 0));
            resolve_one(
                &scan, &boundary, &mut heap, &mut lake,
                &mut pending, &mut inflight, step, &mut tally,
            );
        }
        for v in pending.drain(..) {
            heap.insert(v.clone(), v);
        }
        lake.finish();

        // (1) Cancelled loads are free: I/O accounting covers exactly the
        // completed loads, to the byte and the nanosecond.
        let s = io.snapshot();
        prop_assert_eq!(s.partitions_loaded, tally.loaded);
        prop_assert_eq!(s.bytes_loaded, tally.loaded_bytes);
        prop_assert_eq!(s.loads_cancelled, tally.cancelled);
        prop_assert_eq!(s.simulated_io_ns, tally.loaded * LATENCY_NS);
        // (2) The pipeline counter identity.
        prop_assert_eq!(considered, tally.loaded + skipped + tally.cancelled);
        // (3) No oracle row lost: the heap holds the exact top-k.
        let mut oracle = values.clone();
        oracle.sort_unstable();
        if desc {
            oracle.reverse();
        }
        oracle.truncate(k);
        let got: Vec<i64> = heap
            .into_sorted()
            .into_iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        prop_assert_eq!(got, oracle,
            "k={} desc={} depth={} clustered={}", k, desc, depth, clustered);
    }

    /// End-to-end: the real executor's results are invariant in the
    /// prefetch depth, for filter, LIMIT, and top-k shapes, against the
    /// blocking no-pruning oracle.
    #[test]
    fn engine_rows_are_prefetch_depth_invariant(
        values in proptest::collection::vec(-100i64..100, 1..200),
        per_part in prop_oneof![Just(7usize), Just(20)],
        k in 1u64..15,
        desc in any::<bool>(),
        depth in 1usize..9,
        shape in 0u8..3,
        clustered in any::<bool>(),
    ) {
        let table = build_table(&values, per_part, clustered);
        let catalog = Catalog::new();
        catalog.register(Arc::try_unwrap(table).unwrap_or_else(|t| (*t).clone()));
        let plan = match shape {
            0 => PlanBuilder::scan("t", schema())
                .filter(col("v").ge(lit(0i64)))
                .build(),
            1 => PlanBuilder::scan("t", schema())
                .filter(col("v").lt(lit(50i64)))
                .limit(k)
                .build(),
            _ => PlanBuilder::scan("t", schema())
                .order_by("v", desc)
                .limit(k)
                .build(),
        };
        let pruned = Executor::new(
            catalog.clone(),
            ExecConfig::default().with_prefetch_depth(depth),
        )
        .run(&plan)
        .unwrap();
        let oracle = Executor::new(catalog, ExecConfig::no_pruning().with_prefetch_depth(1))
            .run(&plan)
            .unwrap();
        // For filter and top-k shapes, pruning + prefetch cancellation can
        // only reduce I/O. (LIMIT shapes are excluded: LIMIT pruning picks
        // a *guaranteed* fully-matching cover, which may legally differ
        // from the oracle's lucky early stop by a partition — a compile
        // time trade-off independent of prefetching.)
        if shape != 1 {
            prop_assert!(pruned.io.bytes_loaded <= oracle.io.bytes_loaded,
                "shape={} depth={} pruned={} oracle={}",
                shape, depth, pruned.io.bytes_loaded, oracle.io.bytes_loaded);
        }
        let canon = |rows: &Vec<Vec<Value>>| -> Vec<i64> {
            let mut v: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            if shape != 2 {
                v.sort_unstable();
            }
            v
        };
        match shape {
            // LIMIT without ORDER BY: any k matching rows are legal; check
            // count and containment against the unlimited matching set.
            1 => {
                let matching: Vec<i64> = values.iter().copied().filter(|v| *v < 50).collect();
                prop_assert_eq!(pruned.rows.len(), (k as usize).min(matching.len()));
                for r in &pruned.rows.rows {
                    prop_assert!(matching.contains(&r[0].as_i64().unwrap()));
                }
            }
            _ => prop_assert_eq!(canon(&pruned.rows.rows), canon(&oracle.rows.rows)),
        }
    }
}
