//! Extension experiment: the production-scale multi-tenant harness —
//! admission control + adaptive prefetch depth over a 100k-partition lake.
//!
//! One burst of skewed (Zipf) tenant arrivals runs three ways:
//!
//! * **admitted, adaptive depth** — `Session::run_admitted` with the
//!   windowed per-tenant FIFO, queue caps, and feedback-steered prefetch
//!   depth starting at 1;
//! * **admitted, fixed depth 1** — identical admission decisions (they
//!   depend only on arrival order), blocking prefetch. The adaptive run
//!   must beat this wall-clock on the I/O-bound mix;
//! * **sequential oracle** — every admitted query re-run alone on a
//!   single-threaded executor; result *multisets* must be byte-identical
//!   (canonical row order — pooled join probes legally emit matches in
//!   completion order, exactly as in the differential suite's contract).
//!
//! The run also asserts the fairness invariants: zero starved tenants
//! (every admitted query completed, and each tenant's max virtual queue
//! wait is bounded by its own total work — never by other tenants'), and
//! every adaptive depth within `[1, prefetch_max_depth]`.

use snowprune_exec::{Admission, ExecConfig, Executor, Session};
use snowprune_storage::IoCostModel;
use snowprune_workload::{production_scale, ProductionScaleConfig};

use crate::snapshot::Snapshot;

/// Cost model where partition GETs dominate the 8-row evaluations — the
/// I/O-bound regime the adaptive rule is meant to exploit.
fn lake_model() -> IoCostModel {
    IoCostModel {
        latency_ns_per_request: 2_000_000,
        throughput_bytes_per_sec: 200_000_000,
        metadata_ns_per_read: 0,
        eval_ns_per_row: 5_000,
    }
}

/// Run the production experiment over `scale` with `workers` pool
/// threads, returning the report and the measured numbers as a tracked
/// [`Snapshot`] for `BENCH_production.json`. All
/// numbers come off deterministic virtual clocks, so the snapshot is
/// exact rather than sampled.
pub fn ext_production_snap(
    seed: u64,
    scale: &ProductionScaleConfig,
    workers: usize,
) -> (String, Snapshot) {
    const MAX_DEPTH: usize = 8;
    let wl = production_scale(scale, seed);
    let arrivals: Vec<(u64, snowprune_plan::Plan)> = wl
        .arrivals
        .iter()
        .map(|(t, q)| (*t, q.plan.clone()))
        .collect();
    let mut snap = Snapshot::new("production")
        .context("seed", seed)
        .context("tenants", scale.tenants)
        .context("queries", scale.queries)
        .context("fact_partitions", scale.fact_partitions)
        .context("workers", workers);
    let mut s = String::from(
        "## Extension — production-scale multi-tenant harness (admission + adaptive depth)\n",
    );
    s += &format!(
        "  {} arrivals from {} tenants (Zipf skew) over a {}-partition lake, {} workers\n",
        scale.queries, scale.tenants, scale.fact_partitions, workers
    );

    let base_cfg = |adaptive: bool| {
        let mut ec = ExecConfig::default()
            .with_scan_threads(workers)
            .with_prefetch_depth(1)
            .with_tenant_max_concurrent(2)
            .with_admission_queue_cap(30)
            .with_adaptive_prefetch(adaptive)
            .with_prefetch_max_depth(MAX_DEPTH);
        ec.io_cost = lake_model();
        ec
    };

    // ---- leg 1: admitted burst, adaptive depth -----------------------
    let session = Session::new(wl.catalog.clone(), base_cfg(true));
    let run = session.run_admitted(&arrivals);
    let admitted = run.outcomes.iter().filter(|o| o.output().is_some()).count();
    let rejected = run.outcomes.iter().filter(|o| o.is_rejected()).count();
    assert_eq!(admitted + rejected, arrivals.len(), "no query may vanish");
    let adaptive_wall: u64 = run
        .outcomes
        .iter()
        .filter_map(|o| o.output())
        .map(|out| out.io.simulated_wall_ns)
        .sum();
    let mut max_wait = 0u64;
    let mut max_depth_seen = 0usize;
    for t in &run.tenants {
        assert!(
            t.depth_hist.iter().all(|&d| (1..=MAX_DEPTH).contains(&d)),
            "tenant {} depth left [1, {MAX_DEPTH}]: {:?}",
            t.tenant,
            t.depth_hist
        );
        max_depth_seen = max_depth_seen.max(*t.depth_hist.iter().max().unwrap());
        // Starvation bound: a tenant waits at most for its own admitted
        // work, never for the rest of the fleet.
        let own_wall: u64 = run
            .outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| arrivals[*i].0 == t.tenant)
            .filter_map(|(_, o)| o.output())
            .map(|out| out.io.simulated_wall_ns)
            .sum();
        assert!(
            t.max_queue_wait_ns <= own_wall,
            "tenant {} starved: waited {} ns against {} ns of own work",
            t.tenant,
            t.max_queue_wait_ns,
            own_wall
        );
        max_wait = max_wait.max(t.max_queue_wait_ns);
    }
    s += &format!(
        "  admitted {admitted} / rejected {rejected} (caps: 2 running + 30 queued per tenant)\n"
    );
    s += &format!(
        "  adaptive depth: wall {:>9.2} ms, max depth reached {max_depth_seen}, \
         max tenant queue wait {:.2} ms\n",
        adaptive_wall as f64 / 1e6,
        max_wait as f64 / 1e6,
    );

    // ---- leg 2: identical admission, fixed depth 1 -------------------
    let session1 = Session::new(wl.catalog.clone(), base_cfg(false));
    let run1 = session1.run_admitted(&arrivals);
    let fixed_wall: u64 = run1
        .outcomes
        .iter()
        .filter_map(|o| o.output())
        .map(|out| out.io.simulated_wall_ns)
        .sum();
    s += &format!(
        "  fixed depth 1:  wall {:>9.2} ms  ({:.2}x)\n",
        fixed_wall as f64 / 1e6,
        fixed_wall as f64 / adaptive_wall as f64,
    );
    assert!(
        adaptive_wall < fixed_wall,
        "adaptive depth must beat fixed depth 1 on the I/O-bound mix \
         ({adaptive_wall} ns vs {fixed_wall} ns)"
    );
    for (a, b) in run.outcomes.iter().zip(&run1.outcomes) {
        assert_eq!(
            a.is_rejected(),
            b.is_rejected(),
            "admission decisions depend on arrival order only, never depth"
        );
    }

    // ---- leg 3: sequential oracle ------------------------------------
    let mut oracle_cfg = ExecConfig::default();
    oracle_cfg.io_cost = lake_model();
    let oracle = Executor::new(wl.catalog.clone(), oracle_cfg);
    // Canonical row order: pooled join probes emit matches in completion
    // order (SQL-legal), so the oracle contract is multiset equality.
    let canonical = |mut rows: Vec<Vec<snowprune_types::Value>>| {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_ord_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or_else(|| a.len().cmp(&b.len()))
        });
        rows
    };
    let mut checked = 0usize;
    for (i, outcome) in run.outcomes.iter().enumerate() {
        let Admission::Completed(out) = outcome else {
            continue;
        };
        let solo = oracle.run(&arrivals[i].1).expect("oracle run");
        assert_eq!(
            canonical(out.rows.rows.clone()),
            canonical(solo.rows.rows),
            "arrival {i} diverged from the sequential oracle"
        );
        checked += 1;
    }
    s += &format!(
        "  oracle: all {checked} admitted result multisets byte-identical to sequential runs\n"
    );
    s += "  zero starved tenants: every tenant's max queue wait is bounded by its own admitted work\n";

    snap.metric("admitted", admitted as f64, "count");
    snap.metric("rejected", rejected as f64, "count");
    snap.metric("adaptive_wall_ms", adaptive_wall as f64 / 1e6, "ms");
    snap.metric("fixed1_wall_ms", fixed_wall as f64 / 1e6, "ms");
    snap.metric(
        "adaptive_speedup",
        fixed_wall as f64 / adaptive_wall as f64,
        "x",
    );
    snap.metric("max_depth_reached", max_depth_seen as f64, "depth");
    snap.metric("max_queue_wait_ms", max_wait as f64 / 1e6, "ms");
    (s, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_experiment_runs_small() {
        let cfg = ProductionScaleConfig {
            tenants: 12,
            queries: 48,
            fact_partitions: 200,
            rows_per_partition: 8,
            zipf_s: 1.1,
        };
        let s = ext_production_snap(7, &cfg, 4).0;
        assert!(s.contains("byte-identical to sequential runs"));
        assert!(s.contains("adaptive depth"));
    }
}
