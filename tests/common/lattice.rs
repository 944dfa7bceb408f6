//! The engine configurations the differential and stress suites sweep in
//! process, on every `cargo test`. Every leg loops over [`POINTS`] and
//! applies the axes it reads; a leg that sweeps an axis itself (the
//! prefetch leg's depths, the batch-size legs' `batch_rows`, the stress
//! suite's mixed-depth pool) overrides that axis with its own values.

use snowprune::exec::{ExecConfig, PredicateCacheMode};
use PredicateCacheMode::{Exact, Shape};

/// One engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Shared-pool workers for the pooled engines (sequential engines
    /// always run in the driver).
    pub scan_threads: usize,
    pub prefetch_depth: usize,
    pub batch_rows: usize,
    /// Per-tenant in-flight cap, read by the admission legs.
    pub tenant_max_concurrent: usize,
    /// Predicate cache on/off, read by the cache replay leg; the
    /// subsumption leg forces it on and reads only the mode.
    pub predicate_cache: bool,
    pub predicate_cache_mode: PredicateCacheMode,
    pub verify_plans: bool,
}

impl Point {
    /// `cfg` with this point's prefetch depth, batch size and plan
    /// verifier — the axes every leg's engines share. Pool size, admission
    /// cap and predicate cache are applied by the legs that read them.
    pub fn apply(&self, cfg: ExecConfig) -> ExecConfig {
        cfg.with_prefetch_depth(self.prefetch_depth)
            .with_batch_rows(self.batch_rows)
            .with_verify_plans(self.verify_plans)
    }
}

const fn point(
    scan_threads: usize,
    prefetch_depth: usize,
    batch_rows: usize,
    tenant_max_concurrent: usize,
    predicate_cache: bool,
    predicate_cache_mode: PredicateCacheMode,
    verify_plans: bool,
) -> Point {
    Point {
        scan_threads,
        prefetch_depth,
        batch_rows,
        tenant_max_concurrent,
        predicate_cache,
        predicate_cache_mode,
        verify_plans,
    }
}

/// The six `scan_threads × prefetch_depth` cells the CI pool matrix used
/// to run, plus the 4-worker / depth-2 local default. The other axes are
/// spread so that every value appears, and so that the points stay
/// distinct on `(scan_threads, batch_rows, verify_plans)` — the axes the
/// legs that sweep depth themselves still read.
#[rustfmt::skip]
pub const POINTS: [Point; 7] = [
    //    threads depth batch_rows cap cache  mode   verify
    point(1,      1,    1,         1,  false, Exact, true),
    point(1,      8,    1024,      2,  true,  Shape, false),
    point(4,      1,    1024,      2,  true,  Exact, false),
    point(4,      8,    1,         1,  true,  Shape, true),
    point(8,      1,    1024,      1,  true,  Exact, true),
    point(8,      8,    1,         2,  false, Shape, false),
    point(4,      2,    1024,      1,  true,  Exact, true),
];

#[test]
fn points_cover_every_ci_cell_and_axis_value() {
    let has = |f: &dyn Fn(&Point) -> bool| POINTS.iter().any(f);
    for threads in [1, 4, 8] {
        for depth in [1, 8] {
            assert!(
                has(&|p| p.scan_threads == threads && p.prefetch_depth == depth),
                "missing CI cell threads {threads} × depth {depth}"
            );
        }
    }
    assert!(
        has(&|p| p.scan_threads == 4 && p.prefetch_depth == 2),
        "missing the local default"
    );
    for rows in [1, 1024] {
        assert!(has(&|p| p.batch_rows == rows), "batch_rows {rows}");
    }
    for cap in [1, 2] {
        assert!(has(&|p| p.tenant_max_concurrent == cap), "tenant cap {cap}");
    }
    // The replay leg sees off / exact / shape; the subsumption leg, which
    // forces the cache on, sees both modes.
    assert!(has(&|p| !p.predicate_cache), "cache off");
    for mode in [Exact, Shape] {
        assert!(
            has(&|p| p.predicate_cache && p.predicate_cache_mode == mode),
            "cache on, {mode:?}"
        );
    }
    // `verify_plans = false` runs `Executor::run`'s
    // `explain_cacheability` branch.
    for verify in [true, false] {
        assert!(has(&|p| p.verify_plans == verify), "verify_plans {verify}");
    }
    let mut seen = Vec::new();
    for p in &POINTS {
        let key = (p.scan_threads, p.batch_rows, p.verify_plans);
        assert!(!seen.contains(&key), "{p:?} repeats {key:?}");
        seen.push(key);
    }
}
