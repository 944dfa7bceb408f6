//! Differential pruning-oracle suite: for many seeded random workloads
//! (random schemas, layouts, predicates, LIMIT / top-k / join shapes), the
//! executor with **all four pruning techniques enabled** must return
//! results identical to the **all-pruning-disabled oracle** — sequentially
//! and with the whole workload running concurrently on the shared morsel
//! pool ("Sparsity May Cry": pruning claims only count under an
//! adversarial, result-checked harness).
//!
//! Determinism contract per query shape:
//! * filter / scan / join / aggregation queries: row *multisets* must be
//!   byte-identical (order canonicalized — joins and pooled scans may
//!   legally reorder);
//! * top-k over a unique ORDER BY key: the exact ordered rows must be
//!   byte-identical;
//! * LIMIT without ORDER BY: SQL allows any k matching rows, so every
//!   engine must return exactly `min(k, |matching|)` rows, each contained
//!   in the oracle's unlimited result.
//!
//! Every leg runs at every engine configuration in `common/lattice.rs`
//! (pool size × prefetch depth, batch size, admission cap, predicate cache,
//! plan verifier); the oracles that do not depend on the configuration
//! run once per workload, outside the sweep. The prefetch leg sweeps
//! depths {1, 4} itself, and the vectorized-batch legs pin
//! `batch_rows ∈ {1, 3, 1024}` against the whole-partition row-order
//! oracle.

mod common {
    pub mod lattice;
}

use std::collections::BTreeMap;

use common::lattice::POINTS;
use snowprune::exec::{CacheOutcome, PredicateCacheMode};
use snowprune::prelude::*;
use snowprune::workload::diffgen::{
    build_workload, cacheable_queries, joinagg_queries, random_queries, Check, Workload,
};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WORKLOADS: u64 = 50;

/// The prefetch pipeline's counter invariant: every considered scan-set
/// entry was loaded, skipped before submission, or cancelled in flight.
fn assert_pipeline_invariant(out: &QueryOutput, ctx: &str) {
    let s = &out.report.scan_stats;
    assert_eq!(
        s.loaded + s.skipped_by_boundary + s.cancelled_in_flight(),
        s.considered,
        "{ctx}: loaded + skipped + cancelled != considered ({s:?})"
    );
    assert_eq!(
        out.io.partitions_loaded, s.loaded,
        "{ctx}: IoStats and scan counters disagree on loads"
    );
}

// ---- random workload generation -----------------------------------------
//
// The generator lives in `snowprune::workload::diffgen` so the analyzer
// property suite (`crates/analyze/tests/prop_analyze.rs`) runs over the
// identical plan corpus this harness executes.

type MakeQueries = fn(&mut StdRng, &Workload) -> Vec<(Plan, Check)>;

/// Workload `w` of a seeded corpus and its query shapes.
fn corpus(
    make: MakeQueries,
    seed_base: u64,
    seed_mix: u64,
    w: u64,
) -> (Workload, Vec<(Plan, Check)>) {
    let seed = seed_base + w;
    let wl = build_workload(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ seed_mix);
    let queries = make(&mut rng, &wl);
    (wl, queries)
}

/// Workload `w` of the shared random corpus.
fn random_workload(w: u64) -> (Workload, Vec<(Plan, Check)>) {
    corpus(random_queries, 0xD1FF_0000, 0x5EED, w)
}

fn plans_of(queries: &[(Plan, Check)]) -> Vec<Plan> {
    queries.iter().map(|(p, _)| p.clone()).collect()
}

/// `plans` run one after another on a fresh sequential engine.
fn run_seq(catalog: &Catalog, plans: &[Plan], cfg: ExecConfig, ctx: &str) -> Vec<QueryOutput> {
    let exec = Executor::new(catalog.clone(), cfg);
    plans
        .iter()
        .enumerate()
        .map(|(qi, p)| {
            exec.run(p)
                .unwrap_or_else(|e| panic!("{ctx} query {qi}: {e:?}"))
        })
        .collect()
}

/// `plans` as one concurrent batch on a fresh `threads`-worker session, so
/// morsels of different queries interleave.
fn run_pooled(
    catalog: &Catalog,
    plans: &[Plan],
    cfg: ExecConfig,
    threads: usize,
    ctx: &str,
) -> Vec<QueryOutput> {
    Session::new(catalog.clone(), cfg.with_scan_threads(threads))
        .run_batch(plans)
        .into_iter()
        .enumerate()
        .map(|(qi, r)| r.unwrap_or_else(|e| panic!("{ctx} query {qi}: {e:?}")))
        .collect()
}

// ---- comparison helpers --------------------------------------------------

fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_ord_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| cmp_rows(a, b));
    rows
}

/// What an engine must return for one query under its shape's contract.
enum Expect {
    /// The row multiset, canonicalized.
    Sorted(Vec<Vec<Value>>),
    /// The exact ordered rows.
    Ordered(Vec<Vec<Value>>),
    /// `min(k, |full|)` rows, each in the canonical unlimited result.
    Limited { k: usize, full: Vec<Vec<Value>> },
}

impl Expect {
    /// The contract set by the reference output `out` of `exec` (which
    /// also runs a LIMIT shape's unlimited variant).
    fn of(exec: &Executor, out: &QueryOutput, check: &Check) -> Self {
        match check {
            Check::Sorted => Expect::Sorted(canonical(out.rows.rows.clone())),
            Check::Ordered => Expect::Ordered(out.rows.rows.clone()),
            Check::Limited { k, unlimited } => Expect::Limited {
                k: *k,
                full: canonical(exec.run(unlimited).unwrap().rows.rows),
            },
        }
    }

    fn assert(&self, out: &QueryOutput, ctx: &str) {
        match self {
            Expect::Sorted(rows) => assert_eq!(
                &canonical(out.rows.rows.clone()),
                rows,
                "{ctx}: row multiset diverged from the oracle"
            ),
            Expect::Ordered(rows) => assert_eq!(
                &out.rows.rows, rows,
                "{ctx}: ordered rows diverged from the oracle"
            ),
            Expect::Limited { k, full } => {
                assert_eq!(out.rows.len(), (*k).min(full.len()), "{ctx}: row count");
                for row in &out.rows.rows {
                    assert!(
                        full.binary_search_by(|probe| cmp_rows(probe, row)).is_ok(),
                        "{ctx}: returned a row outside the oracle result"
                    );
                }
            }
        }
    }
}

/// A workload's sequential reference run, executed once outside the
/// configuration sweep: every query's output and the contract it sets.
struct Oracle {
    outs: Vec<QueryOutput>,
    expect: Vec<Expect>,
}

impl Oracle {
    fn new(catalog: &Catalog, cfg: ExecConfig, queries: &[(Plan, Check)], ctx: &str) -> Self {
        let exec = Executor::new(catalog.clone(), cfg);
        let mut outs = Vec::with_capacity(queries.len());
        let mut expect = Vec::with_capacity(queries.len());
        for (qi, (plan, check)) in queries.iter().enumerate() {
            let ctx = format!("{ctx} query {qi} oracle");
            let out = exec.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            assert_pipeline_invariant(&out, &ctx);
            expect.push(Expect::of(&exec, &out, check));
            outs.push(out);
        }
        Oracle { outs, expect }
    }

    /// The blocking no-pruning oracle: no pruning, no prefetching.
    fn no_pruning(catalog: &Catalog, queries: &[(Plan, Check)], ctx: &str) -> Self {
        let cfg = ExecConfig::no_pruning().with_prefetch_depth(1);
        Oracle::new(catalog, cfg, queries, ctx)
    }

    /// Hold every output of one engine to the pipeline invariant and its
    /// query's contract.
    fn check(&self, outs: &[QueryOutput], ctx: &str) {
        for (qi, (out, expect)) in outs.iter().zip(&self.expect).enumerate() {
            let ctx = format!("{ctx} query {qi}");
            assert_pipeline_invariant(out, &ctx);
            expect.assert(out, &ctx);
        }
    }
}

// ---- the oracle ----------------------------------------------------------

#[test]
fn pruning_is_result_invariant_across_50_workloads() {
    for w in 0..WORKLOADS {
        let (wl, queries) = random_workload(w);
        let plans = plans_of(&queries);
        let oracle = Oracle::no_pruning(&wl.catalog, &queries, &format!("workload {w}"));
        for p in &POINTS {
            let ctx = format!("workload {w} ({p:?})");
            let pruned = p.apply(ExecConfig::default());
            let seq = run_seq(&wl.catalog, &plans, pruned.clone(), &ctx);
            // Pruning must never scan more than the oracle.
            for (qi, (ps, os)) in seq.iter().zip(&oracle.outs).enumerate() {
                assert!(
                    ps.report.pruning.partitions_scanned <= os.report.pruning.partitions_scanned,
                    "{ctx} query {qi}: pruned scanned more than oracle"
                );
            }
            oracle.check(&seq, &format!("{ctx} seq pruned"));
            let pool = run_pooled(&wl.catalog, &plans, pruned, p.scan_threads, &ctx);
            oracle.check(&pool, &format!("{ctx} pool pruned"));
            let unpruned = p.apply(ExecConfig::no_pruning());
            let pool = run_pooled(&wl.catalog, &plans, unpruned, p.scan_threads, &ctx);
            oracle.check(&pool, &format!("{ctx} pool oracle"));
        }
    }
}

// ---- the predicate-cache leg ---------------------------------------------

/// Random DML statement applied *through the session*, so the predicate
/// cache sees every result; DELETE and UPDATE go through `run_sql`, i.e.
/// the partition-local path. Inserted rows use fresh unique `a` keys and
/// `a`-updates shift by a large disjoint offset, preserving the unique-key
/// invariant the Ordered checks rely on.
fn apply_random_dml(rng: &mut StdRng, session: &Session, wl: &Workload, next_a: &mut i64) {
    let schema = &wl.fact_schema;
    let cats = ["red", "green", "blue", "teal"];
    let hi = wl.fact_rows as i64;
    let lo = rng.random_range(0..hi);
    let span = rng.random_range(0..hi / 8 + 1);
    let in_band = format!("WHERE a BETWEEN {lo} AND {}", lo + span);
    let run = |sql: String| {
        session
            .run_sql(&sql)
            .unwrap_or_else(|e| panic!("{sql}: {e:?}"))
    };
    match rng.random_range(0u32..5) {
        0 => {
            // INSERT 1..3 rows with fresh unique keys.
            let n = rng.random_range(1usize..4);
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let mut row = Vec::with_capacity(schema.len());
                for f in schema.fields() {
                    row.push(match f.name.as_str() {
                        "a" => {
                            *next_a += 1;
                            Value::Int(*next_a)
                        }
                        "b" => Value::Int(rng.random_range(-500i64..500)),
                        "c" => Value::Str(cats[rng.random_range(0usize..cats.len())].into()),
                        _ => Value::Int(rng.random_range(0i64..1000)),
                    });
                }
                rows.push(row);
            }
            session.insert_rows("fact", rows).unwrap();
        }
        1 => {
            // DELETE an `a` band (unsafe for top-k entries).
            run(format!("DELETE FROM fact {in_band}"));
        }
        2 => {
            // UPDATE the predicate column `b` (moves rows into/out of
            // predicate ranges in arbitrary partitions; NULL stays NULL).
            let delta = rng.random_range(-300i64..300);
            run(format!("UPDATE fact SET b = b + {delta} {in_band}"));
        }
        3 => {
            // UPDATE the category column `c`.
            let cat = cats[rng.random_range(0usize..cats.len())];
            run(format!("UPDATE fact SET c = '{cat}' {in_band}"));
        }
        _ => {
            // UPDATE the ordering/unique column `a` by a disjoint offset
            // (unsafe for top-k entries ordered on `a`; keys stay unique).
            run(format!("UPDATE fact SET a = a + 10000000 {in_band}"));
        }
    }
}

/// Cacheable query shapes (top-k above scan, filter chains) for the cache
/// leg. LIMIT-without-ORDER-BY is deliberately absent: its result set is
/// legally nondeterministic, so "byte-identical to a cold oracle" is not a
/// meaningful contract for it (and the engine does not cache it).
///
/// §8.2 differential leg: replay every workload's cacheable shapes
/// cold-then-warm on a cached session, interleaved with random safe and
/// unsafe DML routed through the session, and require each replay to be
/// byte-identical to a cold no-pruning oracle run over the live table —
/// with the cache off, in exact mode and in shape mode (where the random
/// literal-sharing queries also exercise the subsumption fallback).
#[test]
fn predicate_cache_warm_replays_match_cold_oracle() {
    for p in &POINTS {
        let (cache_on, mode) = (p.predicate_cache, p.predicate_cache_mode);
        let cfg = p
            .apply(ExecConfig::default())
            .with_scan_threads(p.scan_threads)
            .with_predicate_cache(cache_on)
            .with_predicate_cache_mode(mode);
        for w in 0..WORKLOADS {
            let seed = 0xCAC4_0000 + w;
            let wl = build_workload(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
            let session = Session::new(wl.catalog.clone(), cfg.clone());
            let oracle = Executor::new(wl.catalog.clone(), ExecConfig::no_pruning());
            let queries = cacheable_queries(&mut rng, &wl);
            let mut next_a = wl.fact_rows as i64 * 1_000;
            for (qi, (plan, check)) in queries.iter().enumerate() {
                let ctx = format!("workload {w} query {qi} ({p:?})");
                // Cold run populates the cache (or hits an entry recorded
                // by a colliding earlier shape — both are fine).
                let cold = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&cold, &format!("{ctx} cold"));
                // Interleave random DML through the session.
                for _ in 0..rng.random_range(0u32..3) {
                    apply_random_dml(&mut rng, &session, &wl, &mut next_a);
                }
                // Replay after DML, then replay again with the cache
                // certainly populated; both must match a cold oracle over
                // the live table.
                let warm = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let warm2 = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let oracle_out = oracle.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let expect = Expect::of(&oracle, &oracle_out, check);
                for (label, out) in [("warm", &warm), ("warm2", &warm2)] {
                    assert_pipeline_invariant(out, &format!("{ctx} {label}"));
                    expect.assert(out, &format!("{ctx} {label}"));
                }
                // With the cache enabled, the second replay (no DML since
                // the first) must be served — exactly in exact mode, via
                // either path in shape mode (the warm run may itself have
                // been a shape hit, recording nothing under this exact
                // fingerprint). Disabled, the cache is never consulted.
                if cache_on {
                    match mode {
                        PredicateCacheMode::Exact => assert_eq!(
                            warm2.report.cache,
                            CacheOutcome::Hit,
                            "{ctx}: immediate replay must hit"
                        ),
                        PredicateCacheMode::Shape => assert!(
                            matches!(
                                warm2.report.cache,
                                CacheOutcome::Hit | CacheOutcome::ShapeHit
                            ),
                            "{ctx}: immediate replay must be served, got {:?}",
                            warm2.report.cache
                        ),
                    }
                } else {
                    assert_eq!(warm2.report.cache, CacheOutcome::NotConsulted);
                }
            }
            if cache_on {
                let stats = session.cache_stats();
                assert!(
                    stats.hits + stats.shape_hits >= queries.len() as u64,
                    "workload {w} ({p:?}): no hits"
                );
            }
        }
    }
}

/// Shape-mode subsumption under the cold oracle: for every workload, a
/// wide filter (`b >= X`) and a top-k (`... LIMIT k`) are recorded cold,
/// then replayed *narrowed* (`b >= X + δ`, `LIMIT k' < k`) — in shape mode
/// the narrowed replays must be served by subsumption (`ShapeHit`) and in
/// exact mode they must miss; either way, results after interleaved DML
/// stay byte-identical to a cold no-pruning oracle over the live table.
/// The cache is on at every point; only its mode varies.
#[test]
fn predicate_cache_shape_subsumption_matches_cold_oracle() {
    for p in &POINTS {
        let mode = p.predicate_cache_mode;
        let cfg = p
            .apply(ExecConfig::default())
            .with_scan_threads(p.scan_threads)
            .with_predicate_cache(true)
            .with_predicate_cache_mode(mode);
        for w in 0..WORKLOADS {
            let seed = 0xC0DE_0000 + w;
            let wl = build_workload(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
            let fs = &wl.fact_schema;
            let threshold = rng.random_range(-300i64..200);
            let delta = rng.random_range(1i64..150);
            let k_wide = rng.random_range(8u64..30);
            let k_narrow = rng.random_range(1u64..k_wide);
            let filter = |lo: i64| {
                PlanBuilder::scan("fact", fs.clone())
                    .filter(col("b").ge(lit(lo)))
                    .build()
            };
            let topk = |k: u64| {
                PlanBuilder::scan("fact", fs.clone())
                    .filter(col("b").ge(lit(threshold)))
                    .order_by("a", true)
                    .limit(k)
                    .build()
            };
            let pairs: [(Plan, Plan, Check); 2] = [
                (filter(threshold), filter(threshold + delta), Check::Sorted),
                (topk(k_wide), topk(k_narrow), Check::Ordered),
            ];
            for (pi, (wide, narrow, check)) in pairs.iter().enumerate() {
                let ctx = format!("workload {w} pair {pi} ({p:?})");
                // Fresh session per pair: the wide cold run always records.
                let session = Session::new(wl.catalog.clone(), cfg.clone());
                let cold = session.run(wide).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_eq!(cold.report.cache, CacheOutcome::Miss, "{ctx}: cold");
                // The narrowed replay (no DML yet): shape mode serves it by
                // subsumption, exact mode must miss.
                let narrowed = session
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&narrowed, &format!("{ctx} narrowed"));
                match mode {
                    PredicateCacheMode::Shape => assert_eq!(
                        narrowed.report.cache,
                        CacheOutcome::ShapeHit,
                        "{ctx}: narrowed replay must be served by subsumption"
                    ),
                    PredicateCacheMode::Exact => assert_eq!(
                        narrowed.report.cache,
                        CacheOutcome::Miss,
                        "{ctx}: exact mode must not subsume"
                    ),
                }
                let oracle = Executor::new(wl.catalog.clone(), ExecConfig::no_pruning());
                let oracle_out = oracle
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                Expect::of(&oracle, &oracle_out, check)
                    .assert(&narrowed, &format!("{ctx} narrowed"));
                assert!(
                    narrowed.io.partitions_loaded <= oracle_out.io.partitions_loaded,
                    "{ctx}: narrowed replay loaded more than the oracle"
                );
                // Interleave DML, then replay the narrowed query again: the
                // serve path may change (invalidation, appends), but the
                // result must still match a cold oracle on the live table.
                let mut next_a = wl.fact_rows as i64 * 2_000;
                for _ in 0..rng.random_range(1u32..3) {
                    apply_random_dml(&mut rng, &session, &wl, &mut next_a);
                }
                let after_dml = session
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&after_dml, &format!("{ctx} after-dml"));
                let oracle_after = oracle
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                Expect::of(&oracle, &oracle_after, check)
                    .assert(&after_dml, &format!("{ctx} after-dml"));
            }
        }
    }
}

// ---- the prefetch leg ----------------------------------------------------

/// The same 50 workloads × 6 query shapes, executed with all pruning on at
/// `prefetch_depth ∈ {1, 4}` (sequentially and as concurrent pool
/// batches), must stay byte-identical to the blocking sequential oracle —
/// and every run must satisfy the pipeline counter invariant
/// `loaded + skipped + cancelled == considered`. Cancellation is I/O
/// accounting only; it can never change results.
#[test]
fn prefetch_depths_match_sequential_oracle() {
    for w in 0..WORKLOADS {
        let (wl, queries) = random_workload(w);
        let plans = plans_of(&queries);
        let oracle = Oracle::no_pruning(&wl.catalog, &queries, &format!("workload {w}"));
        for p in &POINTS {
            for depth in [1usize, 4] {
                let ctx = format!("workload {w} depth {depth} ({p:?})");
                let cfg = p.apply(ExecConfig::default()).with_prefetch_depth(depth);
                let seq = run_seq(&wl.catalog, &plans, cfg.clone(), &ctx);
                for (qi, (ps, os)) in seq.iter().zip(&oracle.outs).enumerate() {
                    assert!(
                        ps.io.bytes_loaded <= os.io.bytes_loaded,
                        "{ctx} query {qi}: prefetching loaded more bytes than the oracle"
                    );
                }
                oracle.check(&seq, &format!("{ctx} seq"));
                let pool = run_pooled(&wl.catalog, &plans, cfg, p.scan_threads, &ctx);
                oracle.check(&pool, &format!("{ctx} pool"));
            }
        }
    }
}

// ---- the vectorized-batch leg --------------------------------------------

/// The same 50 workloads × 6 query shapes, executed at
/// `batch_rows ∈ {1, 3, 1024}`, must be indistinguishable from the
/// whole-partition row-order oracle (`batch_rows = usize::MAX`: one
/// window per partition — exactly the pre-vectorization delivery
/// granularity). Batching is post-load CPU-side chunking, so on the
/// sequential engine nothing may move at all: rows are byte-identical in
/// order (for *every* shape, including racing LIMIT — the sticky-break
/// contract keeps partition-granular early stop exact), and the full
/// [`IoSnapshot`], scan counters, and pruning report are equal. On the
/// shared pool, morsel interleaving makes I/O for top-k / racing-LIMIT
/// shapes legally timing-dependent, so pooled runs are held to the same
/// per-shape determinism contract as the pruning leg instead.
#[test]
fn vectorized_matches_row_oracle() {
    run_batch_size_sweep(random_queries, 0xD1FF_0000, 0x5EED, ExecConfig::default());
}

// ---- the batch-native join/agg leg ---------------------------------------

/// Join/aggregation shapes that historically dropped to the row-at-a-time
/// fallback at the first join or GROUP BY: the batch-native operators at
/// `batch_rows ∈ {1, 3, 1024}` must be indistinguishable from the
/// row-at-a-time fallback oracle (`batch_native(false)` with
/// whole-partition windows — exactly the pre-batch execution). On the
/// sequential engine rows, the full [`IoSnapshot`], scan counters, the
/// pruning report, and the bloom-skip accounting must all be
/// bit-identical; pooled runs are held to the per-shape determinism
/// contract.
#[test]
fn joinagg_batch_matches_row_oracle() {
    run_batch_size_sweep(
        joinagg_queries,
        0x10A6_0000,
        0xBA7C,
        ExecConfig::default().with_batch_native(false),
    );
}

// ---- the admission leg ---------------------------------------------------

/// Admission differential: the same seeded workloads' query shapes, run as
/// admission-controlled multi-tenant bursts (`Session::run_admitted` with
/// tight per-tenant caps and adaptive prefetch depth), must satisfy the
/// exact per-shape determinism contract against the sequential oracle —
/// and the rejections themselves must be a pure function of arrival order
/// and the caps. Afterwards the *same* session re-runs every plan
/// (including the just-rejected ones) as an ordinary pooled batch: a
/// rejected query must leave no stranded morsels or lane state behind, so
/// the follow-up batch completes and matches the oracle too.
///
/// One arrival may queue behind each tenant's in-flight window; a cap of 1
/// running + 1 queued rejects each tenant's third arrival, while the wider
/// cap exercises the all-admitted windowed dispatch path.
#[test]
fn admitted_bursts_match_sequential_oracle_and_leave_no_residue() {
    const QUEUE_CAP: usize = 1;
    for w in 0..WORKLOADS / 2 {
        let (wl, queries) = random_workload(w);
        let plans = plans_of(&queries);
        let arrivals: Vec<(u64, Plan)> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| ((i % 2) as u64, p.clone()))
            .collect();
        let oracle = Oracle::no_pruning(&wl.catalog, &queries, &format!("workload {w}"));
        for p in &POINTS {
            let ctx = format!("workload {w} ({p:?})");
            // Per-tenant admission window: arrivals past `cap` are rejected.
            let cap = p.tenant_max_concurrent + QUEUE_CAP;
            let cfg = p
                .apply(ExecConfig::default())
                .with_scan_threads(p.scan_threads)
                .with_tenant_max_concurrent(p.tenant_max_concurrent)
                .with_admission_queue_cap(QUEUE_CAP)
                .with_adaptive_prefetch(true)
                .with_prefetch_max_depth(6);
            let session = Session::new(wl.catalog.clone(), cfg);
            let run = session.run_admitted(&arrivals);
            assert_eq!(run.outcomes.len(), arrivals.len());
            for (qi, outcome) in run.outcomes.iter().enumerate() {
                // Burst admission over alternating arrivals: arrival `qi` is
                // its tenant's `qi / 2`-th query, rejected exactly when that
                // index overflows the `cap`-wide window — independent of
                // timing, depth, or pool size.
                if qi / 2 >= cap {
                    assert!(
                        outcome.is_rejected(),
                        "{ctx}: arrival {qi} overflowed its tenant window (cap {cap}) \
                         and must be rejected"
                    );
                    continue;
                }
                let out = outcome
                    .output()
                    .unwrap_or_else(|| panic!("{ctx}: arrival {qi} must be admitted"));
                let ctx = format!("{ctx} query {qi} admitted");
                assert_pipeline_invariant(out, &ctx);
                oracle.expect[qi].assert(out, &ctx);
            }
            // No residue: the same session (same pool, same lanes) runs
            // every plan again as a plain batch — the rejected arrivals'
            // lanes must not exist, and nothing may block or diverge.
            let batch: Vec<QueryOutput> = session
                .run_batch(&plans)
                .into_iter()
                .enumerate()
                .map(|(qi, r)| r.unwrap_or_else(|e| panic!("{ctx} follow-up query {qi}: {e:?}")))
                .collect();
            oracle.check(&batch, &format!("{ctx} follow-up batch"));
        }
    }
}

/// Shared harness for the vectorized and join/agg legs: for each seeded
/// workload, run `make_queries` shapes on sequential and pooled engines at
/// `batch_rows ∈ {1, 3, 1024}` against a sequential whole-partition oracle
/// built from `oracle_base` (row-fallback when `batch_native` is off) at
/// the same prefetch depth — the full [`IoSnapshot`] depends on it.
fn run_batch_size_sweep(
    make_queries: MakeQueries,
    seed_base: u64,
    seed_mix: u64,
    oracle_base: ExecConfig,
) {
    for w in 0..WORKLOADS {
        let (wl, queries) = corpus(make_queries, seed_base, seed_mix, w);
        let plans = plans_of(&queries);
        let mut oracles: BTreeMap<usize, Oracle> = BTreeMap::new();
        for p in &POINTS {
            let oracle = oracles.entry(p.prefetch_depth).or_insert_with(|| {
                let cfg = oracle_base
                    .clone()
                    .with_prefetch_depth(p.prefetch_depth)
                    .with_batch_rows(usize::MAX);
                Oracle::new(&wl.catalog, cfg, &queries, &format!("workload {w}"))
            });
            for batch_rows in [1usize, 3, 1024] {
                let ctx = format!("workload {w} batch_rows {batch_rows} ({p:?})");
                let cfg = p.apply(ExecConfig::default()).with_batch_rows(batch_rows);
                let seq = run_seq(&wl.catalog, &plans, cfg.clone(), &ctx);
                for (qi, (ps, os)) in seq.iter().zip(&oracle.outs).enumerate() {
                    let ctx = format!("{ctx} query {qi} seq");
                    assert_pipeline_invariant(ps, &ctx);
                    // Sequential: the batch size must be invisible, bit for
                    // bit.
                    assert_eq!(
                        &ps.rows.rows, &os.rows.rows,
                        "{ctx}: rows diverged from the whole-partition oracle"
                    );
                    assert_eq!(
                        ps.io, os.io,
                        "{ctx}: I/O accounting moved with the batch size"
                    );
                    assert_eq!(
                        ps.report.scan_stats, os.report.scan_stats,
                        "{ctx}: scan counters moved with the batch size"
                    );
                    assert_eq!(
                        ps.report.pruning, os.report.pruning,
                        "{ctx}: pruning report moved with the batch size"
                    );
                    assert_eq!(
                        ps.report.bloom_skipped_rows, os.report.bloom_skipped_rows,
                        "{ctx}: bloom-skip accounting diverged"
                    );
                }
                // Pooled: per-shape determinism contract.
                let pool = run_pooled(&wl.catalog, &plans, cfg, p.scan_threads, &ctx);
                oracle.check(&pool, &format!("{ctx} pool"));
            }
        }
    }
}

// ---- the SQL round-trip leg ----------------------------------------------
//
// Every plan shape the generator produces must survive the full SQL loop:
// emit SQL text, lex/parse/bind it against the workload catalog, and get
// back a *structurally identical* plan — then execution of the lowered
// plan must be byte-identical (rows and IO counters) to the hand-built
// plan, sequentially and on the shared morsel pool.

#[test]
fn sql_round_trip_is_byte_identical_across_50_workloads() {
    use snowprune::sql::{bind_sql, Statement};
    use snowprune::workload::emit_sql;

    for w in 0..WORKLOADS {
        let (wl, queries) = random_workload(w);
        let hand_plans = plans_of(&queries);

        // Emit + parse + bind: the lowered plan must equal the hand-built
        // one structurally, before anything executes.
        let mut lowered_plans = Vec::with_capacity(queries.len());
        for (qi, plan) in hand_plans.iter().enumerate() {
            let ctx = format!("workload {w} query {qi}");
            let sql =
                emit_sql(plan).unwrap_or_else(|| panic!("{ctx}: no SQL spelling for\n{plan}"));
            let lowered = match bind_sql(&sql, &wl.catalog) {
                Ok(Statement::Query(p)) => p,
                Ok(_) => panic!("{ctx}: `{sql}` bound to a DML statement"),
                Err(e) => panic!("{ctx}: `{sql}` failed to bind: {e}"),
            };
            assert_eq!(lowered, *plan, "{ctx}: `{sql}` lowered to a different plan");
            lowered_plans.push(lowered);
        }

        for p in &POINTS {
            let cfg = p.apply(ExecConfig::default());
            // Sequential: fresh engines per side, so per-query IO snapshots
            // of structurally equal plans must agree bit for bit.
            let ctx = format!("workload {w} ({p:?}) sequential");
            let hand = run_seq(&wl.catalog, &hand_plans, cfg.clone(), &ctx);
            let lowered = run_seq(&wl.catalog, &lowered_plans, cfg.clone(), &ctx);
            for (qi, (h, s)) in hand.iter().zip(&lowered).enumerate() {
                let ctx = format!("{ctx} query {qi}");
                assert_eq!(s.rows.rows, h.rows.rows, "{ctx}: rows diverge");
                assert_eq!(s.io, h.io, "{ctx}: IO snapshots diverge");
                assert_eq!(
                    s.report.pruning.partitions_scanned, h.report.pruning.partitions_scanned,
                    "{ctx}: pruning effectiveness diverges"
                );
            }

            // Pooled: the whole lowered workload runs as one concurrent
            // batch; compare against the hand-built batch under each
            // shape's check contract (pool scheduling may legally reorder
            // Sorted results).
            let ctx = format!("workload {w} ({p:?}) pooled");
            let hand_seq = Executor::new(wl.catalog.clone(), cfg.clone());
            let hand = run_pooled(&wl.catalog, &hand_plans, cfg.clone(), p.scan_threads, &ctx);
            let lowered = run_pooled(&wl.catalog, &lowered_plans, cfg, p.scan_threads, &ctx);
            for (qi, ((h, s), (_, check))) in hand.iter().zip(&lowered).zip(&queries).enumerate() {
                Expect::of(&hand_seq, h, check).assert(s, &format!("{ctx} query {qi} lowered"));
            }
        }
    }
}
