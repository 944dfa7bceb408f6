//! Extension experiment: the async prefetch pipeline — overlapping
//! simulated object-store GETs with predicate evaluation, and cancelling
//! in-flight loads that runtime pruning makes obsolete.
//!
//! Two legs, both sweeping `prefetch_depth ∈ {1, 2, 4, 8}` on the
//! deterministic virtual clock (the numbers are exact, not sampled):
//!
//! * **I/O-bound burst** — wide filtered scans where the partition set is
//!   fixed at compile time. Depth changes only the overlap: simulated
//!   wall-clock falls from the blocking `io + cpu` toward `max(io, cpu)`
//!   per lane, while `bytes_loaded` stays exactly the blocking path's.
//! * **Top-k tighten burst** — an ascending top-k whose boundary snaps
//!   shut after the first partition is evaluated. Any deeper-than-1
//!   pipeline has loads in flight at that moment; they are *cancelled*
//!   before their I/O cost is charged (`loads_cancelled > 0`), pruning
//!   work that the blocking model had already paid for.

use snowprune_exec::{ExecConfig, Executor, Session};
use snowprune_storage::{IoCostModel, IoSnapshot};
use snowprune_workload::{io_bound_burst, topk_tighten_burst, WorkloadConfig};

use crate::snapshot::Snapshot;

const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Cost model where GETs and evaluation are comparable, so overlap is
/// worth a large fraction of the wall-clock (a ~2ms GET against ~2ms of
/// evaluation per 400-row partition).
fn overlap_model() -> IoCostModel {
    IoCostModel {
        latency_ns_per_request: 2_000_000,
        throughput_bytes_per_sec: 200_000_000,
        metadata_ns_per_read: 0,
        eval_ns_per_row: 5_000,
    }
}

fn sum_io(outs: &[IoSnapshot]) -> IoSnapshot {
    let mut total = IoSnapshot::default();
    for o in outs {
        total.merge(o);
    }
    total
}

/// Run the prefetch experiment, returning the report and the measured
/// numbers as a tracked [`Snapshot`] for `BENCH_prefetch.json`. The
/// numbers come off the deterministic virtual clock, so this snapshot is
/// exact rather than sampled.
pub fn ext_prefetch_snap(
    seed: u64,
    queries: usize,
    rows_per_partition: usize,
    fact_partitions: usize,
) -> (String, Snapshot) {
    let cfg = WorkloadConfig {
        queries,
        rows_per_partition,
        fact_partitions,
    };
    let mut snap = Snapshot::new("prefetch")
        .context("seed", seed)
        .context("queries", queries)
        .context("rows_per_partition", rows_per_partition)
        .context("fact_partitions", fact_partitions);
    let mut s = String::from("## Extension — async prefetch pipeline (overlap + cancellation)\n");

    // ---- leg 1: I/O-bound burst --------------------------------------
    let wl = io_bound_burst(&cfg, seed);
    let plans: Vec<_> = wl.queries.iter().map(|q| q.plan.clone()).collect();
    s += &format!(
        "  I/O-bound burst: {queries} wide filtered scans, 2 scan workers, \
         simulated wall = sum of per-lane pipeline makespans\n"
    );
    let mut blocking: Option<IoSnapshot> = None;
    for depth in DEPTHS {
        let mut ec = ExecConfig::default()
            .with_scan_threads(2)
            .with_prefetch_depth(depth);
        // Keep morsels as large as the deepest depth so per-depth walls are
        // directly comparable to the pre-chaining baselines (chain claiming
        // now carries the window across morsels either way, but a chain
        // never splits a partially-covered morsel, so tail overlap still
        // depends slightly on the morsel grid).
        ec.morsel_partitions = *DEPTHS.iter().max().unwrap();
        ec.io_cost = overlap_model();
        let session = Session::new(wl.catalog.clone(), ec);
        let outs: Vec<IoSnapshot> = session
            .run_batch(&plans)
            .into_iter()
            .map(|o| o.unwrap().io)
            .collect();
        let total = sum_io(&outs);
        s += &format!(
            "    depth {depth}: wall {:>8.2} ms  (io {:>8.2} + cpu {:>7.2} - overlapped {:>7.2}), \
             {} partitions / {} bytes loaded\n",
            total.simulated_wall_ns as f64 / 1e6,
            total.simulated_io_ns as f64 / 1e6,
            total.simulated_cpu_ns as f64 / 1e6,
            total.io_overlapped_ns as f64 / 1e6,
            total.partitions_loaded,
            total.bytes_loaded,
        );
        snap.metric(
            format!("io_wall_ms_depth_{depth}"),
            total.simulated_wall_ns as f64 / 1e6,
            "ms",
        );
        match &blocking {
            None => blocking = Some(total),
            Some(base) => {
                assert!(
                    total.simulated_wall_ns < base.simulated_wall_ns,
                    "depth {depth} must beat the blocking wall-clock"
                );
                assert!(
                    total.bytes_loaded <= base.bytes_loaded,
                    "prefetching must never load more bytes than blocking"
                );
            }
        }
    }
    let base = blocking.expect("depth 1 ran");
    s += &format!(
        "    blocking wall = io + cpu exactly: {}\n",
        base.simulated_wall_ns == base.simulated_io_ns + base.simulated_cpu_ns
    );

    // ---- leg 2: top-k boundary-tighten burst -------------------------
    let wl = topk_tighten_burst(&cfg, seed ^ 0x9e37);
    let plans: Vec<_> = wl.queries.iter().map(|q| q.plan.clone()).collect();
    s += &format!(
        "  top-k tighten burst: {queries} ascending top-k queries, sequential lanes \
         (deterministic cancellation)\n"
    );
    let mut base_bytes: Option<u64> = None;
    for depth in DEPTHS {
        let mut ec = ExecConfig::default().with_prefetch_depth(depth);
        // The boundary must tighten at runtime (from the heap) for loads to
        // be in flight when it does; upfront seeding would skip them at
        // submit time instead.
        ec.topk_init_boundary = false;
        ec.io_cost = overlap_model();
        // Sequential executor (no pool): heap tightenings happen
        // synchronously inside the pipeline's sink, so cancellation counts
        // are exact integers, reproducible across runs.
        let exec = Executor::new(wl.catalog.clone(), ec);
        let outs: Vec<IoSnapshot> = plans.iter().map(|p| exec.run(p).unwrap().io).collect();
        let total = sum_io(&outs);
        s += &format!(
            "    depth {depth}: {} loads cancelled in flight, {} partitions / {} bytes loaded, \
             wall {:>7.2} ms\n",
            total.loads_cancelled,
            total.partitions_loaded,
            total.bytes_loaded,
            total.simulated_wall_ns as f64 / 1e6,
        );
        snap.metric(
            format!("tighten_cancelled_depth_{depth}"),
            total.loads_cancelled as f64,
            "count",
        );
        snap.metric(
            format!("tighten_bytes_depth_{depth}"),
            total.bytes_loaded as f64,
            "bytes",
        );
        match base_bytes {
            None => base_bytes = Some(total.bytes_loaded),
            Some(base) => {
                assert!(
                    total.loads_cancelled > 0,
                    "depth {depth} must cancel in-flight loads on the tighten burst"
                );
                assert!(total.bytes_loaded <= base, "cancelled loads must be free");
            }
        }
    }
    s += "  cancelled loads charge zero bytes/latency: pruning that the blocking model paid for is free under prefetch\n";
    (s, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_experiment_runs_small() {
        let s = ext_prefetch_snap(7, 4, 50, 8).0;
        assert!(s.contains("I/O-bound burst"));
        assert!(s.contains("loads cancelled"));
        assert!(s.contains("blocking wall = io + cpu exactly: true"));
    }
}
