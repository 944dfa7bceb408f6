//! The four workloads: inputs generated from a seed, the engine
//! configuration each one pins, and the digest that pins the inputs.
//!
//! Every `ExecConfig` field is written out in [`pinned_config`] — nothing
//! is inherited from `Default` and no `SNOWPRUNE_*` variable is read — so
//! an engine change that moves a default cannot silently change the load.

use std::hash::Hasher;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_core::filter::FilterPruneConfig;
use snowprune_core::join::SummaryKind;
use snowprune_core::topk::PartitionOrder;
use snowprune_exec::{ExecConfig, PredicateCacheMode};
use snowprune_plan::{pretty, Plan};
use snowprune_sql::{bind_sql, Statement};
use snowprune_storage::{Catalog, IoCostModel};
use snowprune_types::Value;
use snowprune_workload::{
    all_tpch_queries, emit_sql, generate, generate_tpch, production_scale, ProductionScaleConfig,
    TpchConfig, WorkloadConfig,
};

use crate::digest::Fnv;
use crate::oracle::{slice_rows, ts_slice};

/// Full-size inputs for measuring, or tiny ones for `smoke` and tests
/// (same code paths, seconds instead of minutes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// How statements reach the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Submit {
    /// `SessionSqlExt::run_sql` with SQL text, one statement at a time.
    Sql,
    /// `Session::run` with a plan, one statement at a time.
    Plan,
    /// `Session::run_admitted` with `burst` plans at once.
    Burst,
}

pub struct Select {
    pub plan: Plan,
    /// SQL text of the plan, where the grammar can express it.
    pub sql: Option<String>,
    pub tenant: u64,
    /// Row count known in closed form (slices of `scale_events`).
    pub closed_form_rows: Option<u64>,
}

pub enum DmlKind {
    Insert { rows: u64 },
    Delete,
    Update,
}

/// One write statement: SQL text plus the facts the oracle checks it by.
pub struct Dml {
    pub sql: String,
    pub kind: DmlKind,
    pub table: String,
    /// Column the DELETE/UPDATE range is on, and its inclusive bounds.
    pub key: String,
    pub lo: i64,
    pub hi: i64,
    /// Integer column an UPDATE increments.
    pub bump: String,
}

pub enum Op {
    Select(Select),
    Dml(Dml),
}

/// Tables and columns the join/aggregate layer probes read.
pub struct VectorProbe {
    pub build: (&'static str, &'static str),
    pub probe: (&'static str, &'static str),
    /// `(table, GROUP BY column, SUM column)`.
    pub agg: (&'static str, &'static str, &'static str),
}

pub struct Workload {
    pub name: &'static str,
    pub submit: Submit,
    pub cfg: ExecConfig,
    pub catalog: Catalog,
    /// The statement stream; the driver cycles through it until time is up.
    pub ops: Vec<Op>,
    /// Writes issued after the timed SELECTs on workloads whose stream has
    /// none, so write latency is measured on every lake.
    pub epilogue: Vec<Dml>,
    /// Counts (`loaded_frac`, `sim_io_s`) and oracle checks cover exactly
    /// the first `count_prefix` statements, so they do not depend on how
    /// many statements the host gets through.
    pub count_prefix: usize,
    /// Every n-th SELECT of the prefix goes to the oracle.
    pub check_every: usize,
    /// Statements per `run_admitted` call (`Submit::Burst`).
    pub burst: usize,
    pub probe: VectorProbe,
}

/// Simulated object store where partition GETs dominate the evaluation of
/// eight-row partitions (the `production` experiment's lake model).
const LAKE_IO: IoCostModel = IoCostModel {
    latency_ns_per_request: 2_000_000,
    throughput_bytes_per_sec: 200_000_000,
    metadata_ns_per_read: 0,
    eval_ns_per_row: 5_000,
};

const STORE_IO: IoCostModel = IoCostModel {
    latency_ns_per_request: 10_000_000,
    throughput_bytes_per_sec: 500_000_000,
    metadata_ns_per_read: 500,
    eval_ns_per_row: 250,
};

/// `nproc` is 2 on the reference box; the engine gets no more than that.
pub const SCAN_THREADS: usize = 2;

struct Knobs {
    predicate_cache: bool,
    prefetch_depth: usize,
    tenant_max_concurrent: usize,
    admission_queue_cap: usize,
    adaptive_prefetch: bool,
    io_cost: IoCostModel,
}

fn pinned_config(k: Knobs) -> ExecConfig {
    ExecConfig {
        enable_filter_pruning: true,
        enable_limit_pruning: true,
        enable_join_pruning: true,
        enable_topk_pruning: true,
        topk_order: PartitionOrder::ByBoundary,
        topk_init_boundary: true,
        join_summary: SummaryKind::RangeSet { budget: 128 },
        join_bloom: true,
        scan_threads: SCAN_THREADS,
        morsel_partitions: 4,
        prefetch_depth: k.prefetch_depth,
        predicate_cache: k.predicate_cache,
        predicate_cache_capacity: 128,
        predicate_cache_mode: PredicateCacheMode::Exact,
        batch_rows: 1024,
        tenant_max_concurrent: k.tenant_max_concurrent,
        admission_queue_cap: k.admission_queue_cap,
        adaptive_prefetch: k.adaptive_prefetch,
        prefetch_max_depth: 8,
        batch_native: true,
        verify_plans: true,
        filter: FilterPruneConfig {
            adapt_interval: 64,
            cutoff_min_evals: 64,
            scan_cost_ns_per_partition: 2_000_000,
            reorder: true,
            cutoff: true,
            compile_time_budget_ns: u64::MAX,
        },
        io_cost: k.io_cost,
    }
}

const CLOSED_LOOP: Knobs = Knobs {
    predicate_cache: false,
    prefetch_depth: 2,
    tenant_max_concurrent: 1,
    admission_queue_cap: 16,
    adaptive_prefetch: false,
    io_cost: STORE_IO,
};

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    Some(match name {
        "dash_scale" => dash_scale(seed, scale),
        "tpch_cpu" => tpch_cpu(seed, scale),
        "adhoc_dml" => adhoc_dml(seed, scale),
        "tenant_burst" => tenant_burst(seed, scale),
        _ => return None,
    })
}

// ---- dash_scale / tenant_burst ------------------------------------------

pub const SCALE_ROWS_PER_PARTITION: usize = 8;
pub const BURST: usize = 128;

const SCALE_PROBE: VectorProbe = VectorProbe {
    build: ("scale_dim", "id"),
    probe: ("scale_events", "tenant_key"),
    agg: ("scale_events", "tenant_key", "metric"),
};

const SCALE_TARGET: DmlTarget = DmlTarget {
    table: "scale_events",
    key: "ts",
    bump: "metric",
};

/// The `production_scale` mix over `scale_events`, rendered to SQL text.
fn scale_statements(seed: u64, scale: Scale) -> (Catalog, Vec<Select>) {
    // 20 000 partitions cost ~175 ms a statement on the reference box, so
    // a 20 s run would see ~100 statements; 8 000 partitions leave room
    // for ~1 000, which is what steadies the median across seeds.
    let (partitions, queries) = match scale {
        Scale::Full => (8_000, 20 * BURST),
        Scale::Smoke => (400, BURST),
    };
    let wl = production_scale(
        &ProductionScaleConfig {
            tenants: 64,
            queries,
            fact_partitions: partitions,
            rows_per_partition: SCALE_ROWS_PER_PARTITION,
            zipf_s: 1.1,
        },
        seed,
    );
    let total_rows = (partitions * SCALE_ROWS_PER_PARTITION) as u64;
    let selects = wl
        .arrivals
        .into_iter()
        .map(|(tenant, q)| Select {
            sql: Some(emit_sql(&q.plan).expect("production_scale plans have a SQL spelling")),
            closed_form_rows: ts_slice(&q.plan).map(|(lo, hi)| slice_rows(lo, hi, total_rows)),
            plan: q.plan,
            tenant,
        })
        .collect();
    (wl.catalog, selects)
}

fn dash_scale(seed: u64, scale: Scale) -> Workload {
    let (catalog, selects) = scale_statements(seed, scale);
    let epilogue = write_probe(&catalog, &SCALE_TARGET, seed);
    Workload {
        name: "dash_scale",
        submit: Submit::Sql,
        cfg: pinned_config(CLOSED_LOOP),
        catalog,
        ops: selects.into_iter().map(Op::Select).collect(),
        epilogue,
        count_prefix: match scale {
            Scale::Full => 3 * BURST,
            Scale::Smoke => 48,
        },
        check_every: 16,
        burst: 1,
        probe: SCALE_PROBE,
    }
}

fn tenant_burst(seed: u64, scale: Scale) -> Workload {
    let (catalog, mut selects) = scale_statements(seed, scale);
    // Bound once: the burst submits plans, so the SQL front end runs here.
    for s in &mut selects {
        let sql = s.sql.as_deref().expect("scale statements carry SQL");
        match bind_sql(sql, &catalog) {
            Ok(Statement::Query(plan)) => s.plan = plan,
            other => panic!("scale statement did not bind to a query: {other:?}"),
        }
    }
    let epilogue = write_probe(&catalog, &SCALE_TARGET, seed);
    Workload {
        name: "tenant_burst",
        submit: Submit::Burst,
        // The `production` experiment's admitted, adaptive-depth leg at 2
        // workers. A burst of 128 arrivals keeps the hottest of 64 Zipf
        // tenants under its 2 + 64 window, so nothing is refused.
        cfg: pinned_config(Knobs {
            predicate_cache: false,
            prefetch_depth: 1,
            tenant_max_concurrent: 2,
            admission_queue_cap: 64,
            adaptive_prefetch: true,
            io_cost: LAKE_IO,
        }),
        catalog,
        ops: selects.into_iter().map(Op::Select).collect(),
        epilogue,
        count_prefix: match scale {
            Scale::Full => 3 * BURST,
            Scale::Smoke => BURST,
        },
        check_every: 16,
        burst: BURST,
        probe: SCALE_PROBE,
    }
}

// ---- tpch_cpu -------------------------------------------------------------

fn tpch_cpu(seed: u64, scale: Scale) -> Workload {
    let catalog = generate_tpch(&TpchConfig {
        scale: match scale {
            Scale::Full => 0.05,
            Scale::Smoke => 0.004,
        },
        rows_per_partition: 1_500,
        clustered: true,
        seed,
    });
    let ops: Vec<Op> = all_tpch_queries()
        .into_iter()
        .map(|(_, plan)| {
            Op::Select(Select {
                sql: emit_sql(&plan),
                plan,
                tenant: 0,
                closed_form_rows: None,
            })
        })
        .collect();
    let epilogue = write_probe(
        &catalog,
        &DmlTarget {
            table: "partsupp",
            key: "ps_partkey",
            bump: "ps_availqty",
        },
        seed,
    );
    Workload {
        name: "tpch_cpu",
        submit: Submit::Plan,
        cfg: pinned_config(CLOSED_LOOP),
        catalog,
        count_prefix: ops.len(),
        ops,
        epilogue,
        check_every: 1,
        burst: 1,
        probe: VectorProbe {
            build: ("orders", "o_orderkey"),
            probe: ("lineitem", "l_orderkey"),
            agg: ("lineitem", "l_returnflag", "l_quantity"),
        },
    }
}

// ---- adhoc_dml ------------------------------------------------------------

const EVENT_TABLES: [&str; 4] = [
    "events_clustered",
    "events_partial",
    "events_shuffled",
    "events_bykey",
];

/// Re-issue window: the repeated set (256 distinct statements) is larger
/// than the predicate cache (128 entries), so hits, misses and evictions
/// all occur.
const REPEAT_WINDOW: usize = 256;

fn adhoc_dml(seed: u64, scale: Scale) -> Workload {
    // 400 partitions keep pruning as selective as in the calibrated mix;
    // 125 rows each keep a statement cheap enough (writes rewrite whole
    // tables) that a run sees some 5 000 of them, which is what steadies a
    // median that sits between two modes of a multimodal mix.
    let (stream_len, rows_per_partition, fact_partitions) = match scale {
        Scale::Full => (12_000, 125, 400),
        Scale::Smoke => (300, 100, 40),
    };
    let wl = generate(
        &WorkloadConfig {
            queries: stream_len,
            rows_per_partition,
            fact_partitions,
        },
        seed,
    );
    let mut fresh = wl.queries.into_iter();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ad0_cd31);
    // Zipf(1) over recency ranks: rank 1 is the most recent distinct statement.
    let zipf_cdf: Vec<f64> = {
        let weights: Vec<f64> = (1..=REPEAT_WINDOW).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect()
    };
    let mut distinct: Vec<(Plan, String)> = Vec::new();
    let mut ops = Vec::with_capacity(stream_len);
    for i in 0..stream_len {
        if i % 10 == 9 {
            let target = DmlTarget {
                table: EVENT_TABLES[rng.random_range(0..EVENT_TABLES.len())],
                key: "ts",
                bump: "metric",
            };
            ops.push(Op::Dml(gen_dml(&wl.catalog, &target, i / 10, 50, &mut rng)));
            continue;
        }
        let (plan, sql) = if !distinct.is_empty() && rng.random::<f64>() < 0.3 {
            let window = distinct.len().min(REPEAT_WINDOW);
            let u: f64 = rng.random::<f64>() * zipf_cdf[window - 1];
            let rank = zipf_cdf.partition_point(|c| *c < u).min(window - 1);
            distinct[distinct.len() - 1 - rank].clone()
        } else {
            let q = fresh.next().expect("one fresh query per stream slot");
            let sql = emit_sql(&q.plan).expect("generated plans have a SQL spelling");
            distinct.push((q.plan.clone(), sql.clone()));
            (q.plan, sql)
        };
        ops.push(Op::Select(Select {
            plan,
            sql: Some(sql),
            tenant: 0,
            closed_form_rows: None,
        }));
    }
    Workload {
        name: "adhoc_dml",
        submit: Submit::Sql,
        cfg: pinned_config(Knobs {
            predicate_cache: true,
            ..CLOSED_LOOP
        }),
        catalog: wl.catalog,
        ops,
        epilogue: Vec::new(),
        count_prefix: match scale {
            Scale::Full => 1_500,
            Scale::Smoke => 100,
        },
        check_every: 4,
        burst: 1,
        probe: VectorProbe {
            build: ("dim_users", "id"),
            probe: ("events_bykey", "user_id"),
            agg: ("events_clustered", "category", "metric"),
        },
    }
}

// ---- write statements -------------------------------------------------------

struct DmlTarget {
    table: &'static str,
    key: &'static str,
    bump: &'static str,
}

/// Writes per read-only workload, issued after its timed SELECTs.
const WRITE_PROBE_STATEMENTS: usize = 48;

fn write_probe(catalog: &Catalog, target: &DmlTarget, seed: u64) -> Vec<Dml> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00d3_10b5);
    (0..WRITE_PROBE_STATEMENTS)
        .map(|i| gen_dml(catalog, target, i, 8, &mut rng))
        .collect()
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Null => "NULL".into(),
        other => panic!("no SQL literal for {other:?}: pick a write target without such columns"),
    }
}

/// The `n`-th write on `target`, rotating INSERT (rows copied from a random
/// existing partition), narrow-range DELETE and narrow-range UPDATE.
fn gen_dml(
    catalog: &Catalog,
    target: &DmlTarget,
    n: usize,
    insert_rows: usize,
    rng: &mut StdRng,
) -> Dml {
    let handle = catalog.get(target.table).expect("write target exists");
    let table = handle.read();
    let key_idx = table
        .schema()
        .index_of(target.key)
        .expect("key column exists");
    let int = |v: &Option<Value>| v.as_ref().and_then(Value::as_i64);
    let metas = table.metadata();
    let key_min = metas
        .iter()
        .filter_map(|m| int(&m.zone_map(key_idx).min))
        .min()
        .unwrap_or(0);
    let key_max = metas
        .iter()
        .filter_map(|m| int(&m.zone_map(key_idx).max))
        .max()
        .unwrap_or(0);
    // Narrow: 0.05 % of the key span.
    let width = ((key_max - key_min) / 2_000).max(1);
    let lo = rng.random_range(key_min..(key_max - width).max(key_min + 1));
    let hi = lo + width;
    let (kind, sql) = match n % 3 {
        0 => {
            let ids = table.partition_ids();
            let part = table
                .partition(ids[rng.random_range(0..ids.len())])
                .expect("listed partition exists");
            let rows: Vec<String> = (0..part.row_count().min(insert_rows))
                .map(|i| {
                    let vals: Vec<String> = part.row(i).iter().map(sql_literal).collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            (
                DmlKind::Insert {
                    rows: rows.len() as u64,
                },
                format!("INSERT INTO {} VALUES {}", target.table, rows.join(", ")),
            )
        }
        1 => (
            DmlKind::Delete,
            format!(
                "DELETE FROM {} WHERE {} BETWEEN {lo} AND {hi}",
                target.table, target.key
            ),
        ),
        _ => (
            DmlKind::Update,
            format!(
                "UPDATE {} SET {bump} = {bump} + 1 WHERE {} BETWEEN {lo} AND {hi}",
                target.table,
                target.key,
                bump = target.bump
            ),
        ),
    };
    Dml {
        sql,
        kind,
        table: target.table.into(),
        key: target.key.into(),
        lo,
        hi,
        bump: target.bump.into(),
    }
}

// ---- input digest -----------------------------------------------------------

/// Digest of everything the engine is given: statement texts (or canonical
/// plans), tenants, and per table the row count, partition count and every
/// zone map. A change to a generator or to `emit_sql` changes it.
pub fn input_digest(w: &Workload) -> u64 {
    let mut h = Fnv::default();
    h.text(w.name);
    for op in &w.ops {
        match op {
            Op::Select(s) => {
                h.text(s.sql.as_deref().unwrap_or(""));
                h.text(&pretty(&s.plan));
                h.write_u64(s.tenant);
            }
            Op::Dml(d) => h.text(&d.sql),
        }
    }
    for d in &w.epilogue {
        h.text(&d.sql);
    }
    for name in w.catalog.table_names() {
        let handle = w.catalog.get(&name).expect("listed table exists");
        let table = handle.read();
        h.text(&name);
        h.write_u64(table.total_rows());
        h.write_u64(table.partition_count() as u64);
        for meta in table.metadata() {
            for z in &meta.zone_maps {
                h.text(&format!("{:?}{:?}", z.min, z.max));
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_stream_mixes_writes_and_repeats() {
        let w = adhoc_dml(5, Scale::Smoke);
        let writes = w.ops.iter().filter(|op| matches!(op, Op::Dml(_))).count();
        assert_eq!(writes, w.ops.len() / 10);
        let texts: Vec<&str> = w
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Select(s) => s.sql.as_deref(),
                Op::Dml(_) => None,
            })
            .collect();
        let distinct: std::collections::HashSet<&str> = texts.iter().copied().collect();
        let repeated = 1.0 - distinct.len() as f64 / texts.len() as f64;
        assert!((0.2..0.45).contains(&repeated), "repeated share {repeated}");
        for kind in ["INSERT INTO", "DELETE FROM", "UPDATE "] {
            assert!(w
                .ops
                .iter()
                .any(|op| matches!(op, Op::Dml(d) if d.sql.starts_with(kind))));
        }
    }

    #[test]
    fn burst_never_overflows_a_tenant_window() {
        let w = tenant_burst(9, Scale::Smoke);
        let window = w.cfg.tenant_max_concurrent + w.cfg.admission_queue_cap;
        for chunk in w.ops.chunks(w.burst) {
            let mut per_tenant = std::collections::HashMap::new();
            for op in chunk {
                if let Op::Select(s) = op {
                    *per_tenant.entry(s.tenant).or_insert(0usize) += 1;
                }
            }
            assert!(per_tenant.values().all(|n| *n <= window));
        }
    }

    #[test]
    fn write_literals_round_trip_through_the_sql_front_end() {
        let w = tpch_cpu(2, Scale::Smoke);
        for d in &w.epilogue {
            assert!(bind_sql(&d.sql, &w.catalog).is_ok(), "{}", d.sql);
        }
        assert_eq!(sql_literal(&Value::Str("it's".into())), "'it''s'");
        assert_eq!(sql_literal(&Value::Float(2.0)), "2.0");
    }
}
