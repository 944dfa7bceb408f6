//! The traced run: per-layer numbers, timed by the harness around calls
//! into each layer's public functions with the workload's own inputs.
//!
//! Two identically built lakes receive every statement: one untraced (the
//! reference wall), one under spans. Per traced statement the span tree is
//!
//! ```text
//! stmt ─ sql.lex, sql.parse, sql.bind, exec.run          (the statement)
//! replay ─ storage.read_metadata, core.filter.prune, exec.scan.compile,
//!          analyze.verify, plan.fingerprint, plan.shape_signature
//! ```
//!
//! `replay` runs right after the statement and repeats, from outside, the
//! calls `exec.run` made inside; a layer's share of `exec.run` is its
//! replayed time. Workloads that submit plans get their SQL spans under
//! `replay` too (what the front end would cost), outside `stmt`.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use snowprune_analyze::verify_with;
use snowprune_cache::{CacheEntry, EntryKind, PredicateCache};
use snowprune_core::FilterPruner;
use snowprune_exec::exec::snapshot_table;
use snowprune_exec::vector::{BatchAggregator, JoinBuild};
use snowprune_exec::{Admission, Batch, BatchChain, CompiledScan, QueryOutput, Session};
use snowprune_expr::kernel::select_range;
use snowprune_plan::{fingerprint, shape_signature, AggFunc, FingerprintMode, Plan};
use snowprune_sql::{bind::bind, lex, parse_statement, Statement};
use snowprune_storage::{Catalog, IoStats, MicroPartition, Table};
use snowprune_types::{SelVec, Value};

use crate::oracle::{slice_partitions, ts_slice};
use crate::run::{burst_arrivals, check_select, run_dml, run_select, setup, Lake, Metrics, Tally};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self_times, Tracer};
use crate::workloads::{input_digest, Dml, DmlKind, Op, Scale, Select, Submit, SCAN_THREADS};

/// Every n-th SELECT also gets the kernel / partition-load probes, which
/// walk its whole compiled scan set.
const DEEP_EVERY: u64 = 8;

#[derive(Default)]
struct Acc {
    lex_us: Vec<f64>,
    parse_us: Vec<f64>,
    bind_us: Vec<f64>,
    /// Front-end time, and the statement walls it is a share of.
    frontend_ns: u64,
    frontend_of_ns: u64,
    verify_us: Vec<f64>,
    fingerprint_us: Vec<f64>,
    shape_us: Vec<f64>,
    fingerprints: Vec<(u64, String)>,

    /// Traced SELECTs: whole statement, `exec.run`, replayed compile.
    stmt_ns: u64,
    run_ns: u64,
    compile_ns: u64,
    rows_out: u64,
    io_metadata_reads: u64,
    io_partitions_loaded: u64,
    io_bytes_loaded: u64,
    io_loads_cancelled: u64,
    /// `(pruned, total)` over the queries eligible for each technique.
    filter: (u64, u64),
    limit: (u64, u64),
    join: (u64, u64),
    topk: (u64, u64),

    /// Replays: nanoseconds and the partitions they covered.
    read_metadata: (u64, u64),
    prune: (u64, u64),
    compile: (u64, u64),
    kernel: (u64, u64),
    load: (u64, u64),
    scan_set_parts: u64,
    needed_parts: u64,

    /// The same statements on the untraced and the traced lake.
    wall_plain_ns: u64,
    wall_traced_ns: u64,
    dml_ms: Vec<f64>,

    admission_rejected: u64,
    admission_waits_ms: Vec<f64>,
    admission_max_depth: usize,
}

fn ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// `sql.lex`, `sql.parse`, `sql.bind` around the front end's public
/// functions. `parse_statement` lexes again internally, so `sql.parse_us`
/// is its span minus the `sql.lex` span.
fn frontend_spans(
    t: &mut Tracer,
    id: u64,
    sql: &str,
    catalog: &Catalog,
    acc: &mut Acc,
) -> (Option<Statement>, u64) {
    let (_, lex_ns) = t.leaf("sql.lex", id, || lex(sql));
    let (stmt, parse_ns) = t.leaf("sql.parse", id, || parse_statement(sql));
    let (bound, bind_ns) = t.leaf("sql.bind", id, || stmt.and_then(|s| bind(&s, catalog)));
    acc.lex_us.push(lex_ns as f64 / 1e3);
    acc.parse_us
        .push(parse_ns.saturating_sub(lex_ns) as f64 / 1e3);
    acc.bind_us.push(bind_ns as f64 / 1e3);
    (bound.ok(), parse_ns + bind_ns)
}

fn record_output(acc: &mut Acc, out: &QueryOutput) {
    acc.rows_out += out.rows.len() as u64;
    acc.io_metadata_reads += out.io.metadata_reads;
    acc.io_partitions_loaded += out.io.partitions_loaded;
    acc.io_bytes_loaded += out.io.bytes_loaded;
    acc.io_loads_cancelled += out.io.loads_cancelled;
    let p = &out.report.pruning;
    for (eligible, pruned, slot) in [
        (p.filter_eligible, p.pruned_by_filter, &mut acc.filter),
        (p.limit_eligible, p.pruned_by_limit, &mut acc.limit),
        (p.join_eligible, p.pruned_by_join, &mut acc.join),
        (p.topk_eligible, p.pruned_by_topk, &mut acc.topk),
    ] {
        if eligible {
            slot.0 += pruned;
            slot.1 += p.partitions_total;
        }
    }
}

/// Repeat, from outside, what `exec.run` did for this plan's scans, plus
/// the plan-level admission work. Returns the replayed compile time.
fn replay(
    t: &mut Tracer,
    id: u64,
    lake: &Lake,
    s: &Select,
    deep: bool,
    acc: &mut Acc,
    tally: &mut Tally,
) -> u64 {
    let cfg = &lake.w.cfg;
    let span = t.open("replay", id);
    if lake.w.submit != Submit::Sql {
        if let Some(sql) = &s.sql {
            let (_, ns) = frontend_spans(t, id, sql, &lake.w.catalog, acc);
            acc.frontend_ns += ns;
            acc.frontend_of_ns += ns;
        }
    }
    let (_, v) = t.leaf("analyze.verify", id, || {
        verify_with(&s.plan, cfg.enable_topk_pruning)
    });
    let (fp, f) = t.leaf("plan.fingerprint", id, || {
        fingerprint(&s.plan, FingerprintMode::Exact)
    });
    let (_, sh) = t.leaf("plan.shape_signature", id, || shape_signature(&s.plan));
    acc.verify_us.push(v as f64 / 1e3);
    acc.fingerprint_us.push(f as f64 / 1e3);
    acc.shape_us.push(sh as f64 / 1e3);

    let mut compile_ns = 0;
    for scan in s.plan.scans() {
        let Plan::Scan {
            table, predicate, ..
        } = scan
        else {
            continue;
        };
        let Ok(snap) = snapshot_table(&lake.w.catalog, table) else {
            continue;
        };
        acc.fingerprints.push((fp, table.clone()));
        let parts = snap.partition_count() as u64;
        let io = IoStats::new();
        let (metas, ns) = t.leaf("storage.read_metadata", id, || {
            snap.read_metadata(&io, &cfg.io_cost)
        });
        acc.read_metadata.0 += ns;
        acc.read_metadata.1 += parts;
        if let Some(Ok(bound)) = predicate.as_ref().map(|p| p.bind(snap.schema())) {
            let (_, ns) = t.leaf("core.filter.prune", id, || {
                FilterPruner::new(&bound, cfg.filter.clone()).prune(&metas)
            });
            acc.prune.0 += ns;
            acc.prune.1 += parts;
        }
        let (compiled, ns) = t.leaf("exec.scan.compile", id, || {
            CompiledScan::compile(
                table,
                Arc::clone(&snap),
                predicate.as_ref(),
                cfg.enable_filter_pruning,
                &cfg.filter,
                &io,
                &cfg.io_cost,
            )
        });
        acc.compile.0 += ns;
        acc.compile.1 += parts;
        compile_ns += ns;
        if let (true, Ok(compiled)) = (deep, compiled) {
            let needed = deep_probe(&compiled, &io, lake, acc);
            if let (Some((lo, hi)), Some(needed)) = (ts_slice(&s.plan), needed) {
                let want = slice_partitions(
                    lo,
                    hi,
                    snap.total_rows(),
                    crate::workloads::SCALE_ROWS_PER_PARTITION as u64,
                );
                if needed != want {
                    tally.note(
                        &format!("statement {id}"),
                        Err(format!(
                            "kernel finds rows in {needed} partitions, closed form says {want}"
                        )),
                    );
                }
            }
        }
    }
    t.close(span);
    compile_ns
}

/// Walk a compiled scan set: the predicate kernel over every partition
/// (which also tells how many hold a qualifying row), and
/// `Table::load_partition` for each. Returns the needed-partition count of
/// a filtered scan.
fn deep_probe(compiled: &CompiledScan, io: &IoStats, lake: &Lake, acc: &mut Acc) -> Option<u64> {
    let parts: Vec<Arc<MicroPartition>> = compiled
        .scan_set
        .entries
        .iter()
        .filter_map(|e| compiled.table.partition(e.id).ok())
        .collect();
    let t0 = Instant::now();
    for e in &compiled.scan_set.entries {
        let _ = compiled.table.load_partition(e.id, io, &lake.w.cfg.io_cost);
    }
    acc.load.0 += t0.elapsed().as_nanos() as u64;
    acc.load.1 += compiled.scan_set.entries.len() as u64;

    let pred = compiled.predicate.as_ref()?;
    let t0 = Instant::now();
    let needed = parts
        .iter()
        .filter(|p| !select_range(pred, p, 0, p.row_count()).is_empty())
        .count() as u64;
    acc.kernel.0 += t0.elapsed().as_nanos() as u64;
    acc.kernel.1 += parts.iter().map(|p| p.row_count() as u64).sum::<u64>();
    acc.scan_set_parts += parts.len() as u64;
    acc.needed_parts += needed;
    Some(needed)
}

/// One SELECT under spans on the traced lake; returns its wall in ns.
fn traced_select(
    t: &mut Tracer,
    id: u64,
    lake: &Lake,
    s: &Select,
    acc: &mut Acc,
    tally: &mut Tally,
) -> u64 {
    let root = t.open("stmt", id);
    let mut plan = None;
    if let (Submit::Sql, Some(sql)) = (lake.w.submit, &s.sql) {
        let (bound, ns) = frontend_spans(t, id, sql, &lake.w.catalog, acc);
        acc.frontend_ns += ns;
        if let Some(Statement::Query(p)) = bound {
            plan = Some(p);
        }
    }
    let run = t.open("exec.run", id);
    let out = lake.session.run(plan.as_ref().unwrap_or(&s.plan));
    let run_ns = t.close(run);
    let stmt_ns = t.close(root);
    if lake.w.submit == Submit::Sql {
        acc.frontend_of_ns += stmt_ns;
    } else if s.sql.is_some() {
        acc.frontend_of_ns += run_ns;
    }
    let what = format!("statement {id}");
    match out {
        Ok(out) => {
            acc.stmt_ns += stmt_ns;
            acc.run_ns += run_ns;
            record_output(acc, &out);
            let ask_oracle = id.is_multiple_of(DEEP_EVERY * 2);
            tally.attempt(
                &what,
                check_select(&lake.oracle, s, Cow::Borrowed(&out.rows), ask_oracle),
            );
            acc.compile_ns += replay(t, id, lake, s, id.is_multiple_of(DEEP_EVERY), acc, tally);
        }
        Err(e) => tally.attempt(&what, Err(e.to_string())),
    }
    stmt_ns
}

/// One write under spans; `exec.run` is `run_sql` whole (which parses and
/// binds again inside — its DML dispatch is not callable from outside).
fn traced_dml(
    t: &mut Tracer,
    id: u64,
    lake: &Lake,
    d: &Dml,
    checked: bool,
    acc: &mut Acc,
    tally: &mut Tally,
) -> u64 {
    let root = t.open("stmt", id);
    let (_, front_ns) = frontend_spans(t, id, &d.sql, &lake.w.catalog, acc);
    let run = t.open("exec.run", id);
    let res = run_dml(lake, d, checked);
    t.close(run);
    let stmt_ns = t.close(root);
    acc.frontend_ns += front_ns;
    acc.frontend_of_ns += stmt_ns;
    // `run_dml` times the statement alone; the span also covers its check.
    let secs = *res.as_ref().unwrap_or(&0.0);
    acc.dml_ms.push(secs * 1e3);
    tally.attempt(&format!("write {id}"), res.map(|_| ()));
    front_ns + ns(secs)
}

fn drive_closed_loop(
    t: &mut Tracer,
    plain: &Lake,
    traced: &Lake,
    budget_s: f64,
    acc: &mut Acc,
    tally: &mut Tally,
) {
    let w = &traced.w;
    let min_ops = w.ops.len().min(22);
    for i in 0.. {
        let busy = (acc.wall_plain_ns + acc.wall_traced_ns) as f64 / 1e9;
        if busy >= budget_s && i >= min_ops {
            break;
        }
        let id = i as u64;
        match (&plain.w.ops[i % w.ops.len()], &w.ops[i % w.ops.len()]) {
            (Op::Select(ps), Op::Select(s)) => {
                // Alternate which lake goes first, so neither always runs
                // on caches the other warmed.
                let run_plain =
                    || run_select(&plain.session, w.submit, ps).map_or(0, |(secs, _)| ns(secs));
                let (plain_ns, traced_ns) = if i % 2 == 0 {
                    let plain_ns = run_plain();
                    (plain_ns, traced_select(t, id, traced, s, acc, tally))
                } else {
                    let traced_ns = traced_select(t, id, traced, s, acc, tally);
                    (run_plain(), traced_ns)
                };
                acc.wall_plain_ns += plain_ns;
                acc.wall_traced_ns += traced_ns;
            }
            (Op::Dml(pd), Op::Dml(d)) => {
                acc.wall_plain_ns += run_dml(plain, pd, false).map_or(0, ns);
                acc.wall_traced_ns += traced_dml(t, id, traced, d, i % 40 == 9, acc, tally);
            }
            _ => unreachable!("both lakes are built from the same seed"),
        }
    }
}

fn drive_bursts(
    t: &mut Tracer,
    plain: &Lake,
    traced: &Lake,
    budget_s: f64,
    acc: &mut Acc,
    tally: &mut Tally,
) {
    let w = &traced.w;
    for burst_no in 0.. {
        let busy = (acc.wall_plain_ns + acc.wall_traced_ns) as f64 / 1e9;
        if busy >= budget_s && burst_no >= 1 {
            break;
        }
        let (start, arrivals) = burst_arrivals(w, burst_no);
        let t0 = Instant::now();
        let _ = plain.session.run_admitted(&arrivals);
        acc.wall_plain_ns += t0.elapsed().as_nanos() as u64;

        let id0 = (burst_no * w.burst) as u64;
        let root = t.open("stmt", id0);
        let run_span = t.open("exec.run", id0);
        let run = traced.session.run_admitted(&arrivals);
        t.close(run_span);
        acc.wall_traced_ns += t.close(root);

        for ts in &run.tenants {
            acc.admission_rejected += ts.rejected as u64;
            acc.admission_waits_ms
                .push(ts.max_queue_wait_ns as f64 / 1e6);
            acc.admission_max_depth = acc
                .admission_max_depth
                .max(ts.depth_hist.iter().copied().max().unwrap_or(0));
        }
        for (j, outcome) in run.outcomes.iter().enumerate() {
            let id = id0 + j as u64;
            let what = format!("burst {burst_no} arrival {j}");
            let Op::Select(s) = &w.ops[start + j] else {
                continue;
            };
            match outcome {
                Admission::Completed(out) => {
                    let wall = out.wall.as_nanos() as u64;
                    acc.stmt_ns += wall;
                    acc.run_ns += wall;
                    acc.frontend_of_ns += wall;
                    record_output(acc, out);
                    tally.attempt(
                        &what,
                        check_select(
                            &traced.oracle,
                            s,
                            Cow::Borrowed(&out.rows),
                            j % (w.check_every * 2) == 0,
                        ),
                    );
                    acc.compile_ns +=
                        replay(t, id, traced, s, id.is_multiple_of(DEEP_EVERY), acc, tally);
                }
                Admission::Failed(e) => tally.attempt(&what, Err(e.to_string())),
                Admission::Rejected => tally.attempt(&what, Err("refused by admission".into())),
            }
        }
    }
}

// ---- probes after the statement stream ---------------------------------------

/// `PredicateCache::lookup` on a cache of the pinned capacity filled with
/// the run's own fingerprints.
fn cache_lookup_us(acc: &Acc, capacity: usize) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let fps: Vec<&(u64, String)> = acc
        .fingerprints
        .iter()
        .filter(|(fp, _)| seen.insert(*fp))
        .take(4 * capacity)
        .collect();
    let mut cache = PredicateCache::new(capacity);
    for (fp, table) in &fps {
        cache.insert(
            *fp,
            CacheEntry {
                kind: EntryKind::Filter,
                table: table.clone(),
                partitions: (0..16).collect(),
                predicate_columns: Vec::new(),
                table_version: 0,
                appended: Vec::new(),
                shape: None,
                aux_tables: Vec::new(),
                saved_loads: 1,
            },
        );
    }
    const ROUNDS: usize = 20;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for (fp, _) in &fps {
            std::hint::black_box(cache.lookup(*fp, 0));
        }
    }
    ratio(
        t0.elapsed().as_nanos() as f64 / 1e3,
        (ROUNDS * fps.len()) as f64,
    )
}

struct StorageDml {
    insert_us: Vec<f64>,
    delete_ms: Vec<f64>,
    update_ms: Vec<f64>,
    parts_rewritten: u64,
}

/// The workload's writes through `Table::{insert,delete,update}_rows` on a
/// private copy of each target table (partitions are shared `Arc`s, so the
/// copy is cheap and the catalog never sees these writes).
fn storage_dml_probe(lake: &Lake) -> StorageDml {
    let stream = lake.w.ops.iter().filter_map(|op| match op {
        Op::Dml(d) => Some(d),
        Op::Select(_) => None,
    });
    let mut out = StorageDml {
        insert_us: Vec::new(),
        delete_ms: Vec::new(),
        update_ms: Vec::new(),
        parts_rewritten: 0,
    };
    for d in stream.chain(&lake.w.epilogue).take(24) {
        let Ok(handle) = lake.w.catalog.get(&d.table) else {
            continue;
        };
        let mut table: Table = handle.read().clone();
        let schema = table.schema().clone();
        let (Ok(key), Ok(bump)) = (schema.index_of(&d.key), schema.index_of(&d.bump)) else {
            continue;
        };
        let in_range = |row: &[Value]| row[key].as_i64().is_some_and(|k| d.lo <= k && k <= d.hi);
        match d.kind {
            DmlKind::Insert { .. } => {
                let Ok(Statement::Insert { rows, .. }) =
                    snowprune_sql::bind_sql(&d.sql, &lake.w.catalog)
                else {
                    continue;
                };
                let t0 = Instant::now();
                table.insert_rows(rows);
                out.insert_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            DmlKind::Delete => {
                let t0 = Instant::now();
                let res = table.delete_rows(in_range);
                out.delete_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.parts_rewritten += res.partitions_removed.len() as u64;
            }
            DmlKind::Update => {
                let t0 = Instant::now();
                let res = table.update_rows(|row| {
                    let mut new = row.to_vec();
                    if in_range(row) {
                        if let Some(v) = row[bump].as_i64() {
                            new[bump] = Value::Int(v + 1);
                        }
                    }
                    new
                });
                out.update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.parts_rewritten += res.partitions_removed.len() as u64;
            }
        }
    }
    out
}

/// Whole partitions of `table` as batches, up to `max_rows` rows.
fn batches(catalog: &Catalog, table: &str, max_rows: usize) -> Option<(Table, Vec<Batch>)> {
    let table: Table = catalog.get(table).ok()?.read().clone();
    let mut rows = 0;
    let mut out = Vec::new();
    for id in table.partition_ids() {
        if rows >= max_rows {
            break;
        }
        let part = table.partition(id).ok()?;
        rows += part.row_count();
        out.push(Batch {
            sel: SelVec::All(0..part.row_count()),
            part,
        });
    }
    Some((table, out))
}

/// `JoinBuild::push_batch` / `probe_batch` and `BatchAggregator::update`
/// over the workload's own join and GROUP BY columns; ns per input row.
fn vector_probe(lake: &Lake) -> Option<(f64, f64, f64)> {
    let p = &lake.w.probe;
    let per_row = |t0: Instant, bs: &[Batch]| {
        ratio(
            t0.elapsed().as_nanos() as f64,
            bs.iter().map(Batch::len).sum::<usize>() as f64,
        )
    };

    let (build_table, build_batches) = batches(&lake.w.catalog, p.build.0, 50_000)?;
    let chain = BatchChain::identity(build_table.schema().len());
    let key_out = build_table.schema().index_of(p.build.1).ok()?;
    let mut join = JoinBuild::new();
    let t0 = Instant::now();
    for b in &build_batches {
        join.push_batch(b, &chain, key_out);
    }
    let build_ns = per_row(t0, &build_batches);

    let (probe_table, probe_batches) = batches(&lake.w.catalog, p.probe.0, 200_000)?;
    let key_col = probe_table.schema().index_of(p.probe.1).ok()?;
    let mut matches = 0usize;
    let t0 = Instant::now();
    for b in &probe_batches {
        join.probe_batch(b, key_col, None, |_, m| matches += m.len());
    }
    let probe_ns = per_row(t0, &probe_batches);
    std::hint::black_box(matches);

    let (agg_table, agg_batches) = batches(&lake.w.catalog, p.agg.0, 200_000)?;
    let chain = BatchChain::identity(agg_table.schema().len());
    let mut agg = BatchAggregator::new(
        &chain,
        agg_table.schema(),
        &[p.agg.1.to_string()],
        &[AggFunc::Sum(p.agg.2.to_string())],
    )
    .ok()?;
    let t0 = Instant::now();
    for b in &agg_batches {
        agg.update(b);
    }
    let agg_ns = per_row(t0, &agg_batches);
    std::hint::black_box(agg.finish().len());
    Some((build_ns, probe_ns, agg_ns))
}

/// The same statements at `scan_threads` = 1 and = 2 (cache off, so both
/// sessions do the same work): wall at 1 ÷ wall at 2.
fn pool_speedup(lake: &Lake) -> f64 {
    let session = |threads: usize| {
        let mut cfg = lake.w.cfg.clone();
        cfg.scan_threads = threads;
        cfg.predicate_cache = false;
        Session::new(lake.w.catalog.clone(), cfg)
    };
    let (one, two) = (session(1), session(SCAN_THREADS));
    let (mut wall_one, mut wall_two) = (0.0, 0.0);
    if lake.w.submit == Submit::Burst {
        let (_, mut arrivals) = burst_arrivals(&lake.w, 0);
        arrivals.truncate(lake.w.burst / 2);
        for (s, wall) in [(&two, &mut wall_two), (&one, &mut wall_one)] {
            let t0 = Instant::now();
            let _ = s.run_admitted(&arrivals);
            *wall += t0.elapsed().as_secs_f64();
        }
    } else {
        let selects = lake.w.ops.iter().filter_map(|op| match op {
            Op::Select(s) => Some(s),
            Op::Dml(_) => None,
        });
        for s in selects.take(40) {
            if wall_one + wall_two > 3.0 {
                break;
            }
            wall_two += run_select(&two, Submit::Plan, s).map_or(0.0, |(secs, _)| secs);
            wall_one += run_select(&one, Submit::Plan, s).map_or(0.0, |(secs, _)| secs);
        }
    }
    ratio(wall_one, wall_two)
}

/// The `--trace 1` run of one workload. Spans go to
/// `<out_dir>/trace-<workload>.json` when a directory is given.
pub fn per_layer(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    out_dir: Option<&Path>,
) -> Option<(Metrics, Tally, u64)> {
    let plain = setup(name, seed, scale)?;
    let traced = setup(name, seed, scale)?;
    let digest = input_digest(&traced.w);
    let (mut t, mut acc, mut tally) = (Tracer::new(), Acc::default(), Tally::default());

    // Half the time for the statement stream (each statement runs on both
    // lakes), the rest for the probes below.
    match traced.w.submit {
        Submit::Burst => drive_bursts(&mut t, &plain, &traced, seconds / 2.0, &mut acc, &mut tally),
        Submit::Sql | Submit::Plan => {
            drive_closed_loop(&mut t, &plain, &traced, seconds / 2.0, &mut acc, &mut tally)
        }
    }
    let cache = traced.session.cache_stats();
    let cache_lookups = cache.hits + cache.shape_hits + cache.misses;
    for (i, d) in traced.w.epilogue.iter().enumerate() {
        let id = u64::MAX - i as u64;
        traced_dml(&mut t, id, &traced, d, i % 2 == 0, &mut acc, &mut tally);
    }
    let dml = storage_dml_probe(&traced);
    let (build_ns, probe_ns, agg_ns) = vector_probe(&traced)?;
    let speedup = pool_speedup(&traced);

    let mut self_ms = std::collections::BTreeMap::new();
    for (span, own) in t.spans.iter().zip(self_times(&t.spans)) {
        *self_ms.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
    }
    eprintln!("{name}: self time by span, ms: {self_ms:.1?}");
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{name}.json"));
        match t.write_chrome(&path) {
            Ok(()) => eprintln!(
                "{name}: {} spans written to {}",
                t.spans.len(),
                path.display()
            ),
            Err(e) => tally.attempt("trace file", Err(format!("{}: {e}", path.display()))),
        }
    }

    let per_kpart_us = |(ns, parts): (u64, u64)| ratio(ns as f64 / 1e3, parts as f64 / 1e3);
    let frac = |(pruned, total): (u64, u64)| ratio(pruned as f64, total as f64);
    let metrics = vec![
        ("sql.lex_us", median(&acc.lex_us)),
        ("sql.parse_us", median(&acc.parse_us)),
        ("sql.bind_us", median(&acc.bind_us)),
        (
            "sql.frontend_share",
            ratio(acc.frontend_ns as f64, acc.frontend_of_ns as f64),
        ),
        ("analyze.verify_us", median(&acc.verify_us)),
        ("plan.fingerprint_us", median(&acc.fingerprint_us)),
        ("plan.shape_signature_us", median(&acc.shape_us)),
        (
            "cache.hit_rate",
            ratio((cache.hits + cache.shape_hits) as f64, cache_lookups as f64),
        ),
        ("cache.evictions", cache.evictions as f64),
        ("cache.stale_rejections", cache.stale_rejections as f64),
        ("cache.invalidations", cache.invalidations as f64),
        ("cache.insertions", cache.insertions as f64),
        (
            "cache.lookup_us",
            cache_lookup_us(&acc, traced.w.cfg.predicate_cache_capacity),
        ),
        (
            "storage.read_metadata_us_per_kpart",
            per_kpart_us(acc.read_metadata),
        ),
        (
            "storage.load_partition_us",
            ratio(acc.load.0 as f64 / 1e3, acc.load.1 as f64),
        ),
        ("storage.metadata_reads", acc.io_metadata_reads as f64),
        ("storage.partitions_loaded", acc.io_partitions_loaded as f64),
        ("storage.bytes_loaded", acc.io_bytes_loaded as f64),
        ("storage.loads_cancelled", acc.io_loads_cancelled as f64),
        ("storage.dml_insert_us", median(&dml.insert_us)),
        ("storage.dml_delete_ms", median(&dml.delete_ms)),
        ("storage.dml_update_ms", median(&dml.update_ms)),
        ("storage.dml_parts_rewritten", dml.parts_rewritten as f64),
        ("dml.p95_ms", percentile(&acc.dml_ms, 0.95)),
        ("core.filter.prune_us_per_kpart", per_kpart_us(acc.prune)),
        ("core.filter.pruned_frac", frac(acc.filter)),
        ("core.limit.pruned_frac", frac(acc.limit)),
        ("core.join.pruned_frac", frac(acc.join)),
        ("core.topk.pruned_frac", frac(acc.topk)),
        (
            "core.filter.loaded_per_needed",
            ratio(acc.scan_set_parts as f64, acc.needed_parts as f64),
        ),
        ("exec.scan.compile_us_per_kpart", per_kpart_us(acc.compile)),
        (
            "exec.scan.compile_share",
            ratio(acc.compile_ns as f64, acc.stmt_ns as f64),
        ),
        (
            "exec.run_us_per_part_loaded",
            ratio(
                acc.run_ns.saturating_sub(acc.compile_ns) as f64 / 1e3,
                acc.io_partitions_loaded as f64,
            ),
        ),
        (
            "exec.rows_out_per_s",
            ratio(acc.rows_out as f64, acc.run_ns as f64 / 1e9),
        ),
        ("exec.pool.speedup_2v1", speedup),
        ("exec.admission.rejected", acc.admission_rejected as f64),
        (
            "exec.admission.queue_wait_p95_vms",
            if acc.admission_waits_ms.is_empty() {
                0.0
            } else {
                percentile(&acc.admission_waits_ms, 0.95)
            },
        ),
        ("exec.admission.max_depth", acc.admission_max_depth as f64),
        (
            "expr.kernel.ns_per_row",
            ratio(acc.kernel.0 as f64, acc.kernel.1 as f64),
        ),
        ("exec.vector.join_build_ns_per_row", build_ns),
        ("exec.vector.join_probe_ns_per_row", probe_ns),
        ("exec.vector.agg_ns_per_row", agg_ns),
        (
            "trace.overhead_frac",
            ratio(acc.wall_traced_ns as f64, acc.wall_plain_ns as f64) - 1.0,
        ),
    ];
    Some((metrics, tally, digest))
}
