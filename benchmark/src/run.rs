//! The untraced run: set the workload up, drive the engine through its
//! public functions for `--seconds` of engine time, check answers outside
//! the timed spans, and report the end-to-end metrics.

use std::borrow::Cow;
use std::time::Instant;

use snowprune_exec::{Admission, QueryOutput, RowSet, Session, TenantId};
use snowprune_plan::Plan;
use snowprune_sql::{SessionSqlExt, SqlOutcome};

use crate::oracle::Oracle;
use crate::stats::{median, percentile, ratio};
use crate::workloads::{build, Dml, DmlKind, Op, Scale, Select, Submit, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Named values in the order they were measured.
pub type Metrics = Vec<(&'static str, f64)>;

/// Statements attempted and those that failed: returned `Err`, were
/// refused by admission, or disagreed with the oracle.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        self.note(what, result);
    }

    /// Record a failed check of a statement already counted as attempted.
    pub fn note(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(format!("{what}: {e}"));
            }
        }
    }
}

/// A workload with its session and oracle: what set-up produces.
pub struct Lake {
    pub w: Workload,
    pub session: Session,
    pub oracle: Oracle,
}

pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Lake> {
    let w = build(name, seed, scale)?;
    let session = Session::new(w.catalog.clone(), w.cfg.clone());
    let oracle = Oracle::new(&w.catalog);
    Some(Lake { w, session, oracle })
}

fn timed_setup(name: &str, seed: u64, scale: Scale) -> Option<(Lake, f64)> {
    let t0 = Instant::now();
    let lake = setup(name, seed, scale)?;
    Some((lake, t0.elapsed().as_secs_f64()))
}

/// One SELECT the way the workload submits it; returns seconds and output.
pub fn run_select(
    session: &Session,
    submit: Submit,
    s: &Select,
) -> Result<(f64, Box<QueryOutput>), String> {
    let t0 = Instant::now();
    let out = match (submit, &s.sql) {
        (Submit::Sql, Some(sql)) => match session.run_sql(sql) {
            Ok(SqlOutcome::Rows(out)) => Ok(out),
            Ok(other) => Err(format!("SELECT returned {other:?}")),
            Err(e) => Err(e.to_string()),
        },
        _ => session
            .run(&s.plan)
            .map(Box::new)
            .map_err(|e| e.to_string()),
    };
    let secs = t0.elapsed().as_secs_f64();
    out.map(|o| (secs, o))
}

/// Closed form on every statement that has one, the oracle when asked.
pub fn check_select(
    oracle: &Oracle,
    s: &Select,
    rows: Cow<'_, RowSet>,
    ask_oracle: bool,
) -> Result<(), String> {
    if let Some(want) = s.closed_form_rows {
        if rows.len() as u64 != want {
            return Err(format!("closed form says {want} rows, got {}", rows.len()));
        }
    }
    if ask_oracle {
        oracle.verify(&s.plan, rows.into_owned())?;
    }
    Ok(())
}

/// One write through `run_sql`; returns seconds. With `checked`, the
/// oracle's before/after facts must agree with what the statement claims.
pub fn run_dml(lake: &Lake, d: &Dml, checked: bool) -> Result<f64, String> {
    let facts = |lake: &Lake| {
        lake.oracle
            .range_facts(&d.table, &d.key, &d.bump, d.lo, d.hi)
    };
    let total_rows = |lake: &Lake| {
        lake.w
            .catalog
            .get(&d.table)
            .map(|t| t.read().total_rows())
            .map_err(|e| e.to_string())
    };
    let before = if checked {
        Some((facts(lake)?, total_rows(lake)?))
    } else {
        None
    };
    let t0 = Instant::now();
    let outcome = lake.session.run_sql(&d.sql);
    let secs = t0.elapsed().as_secs_f64();
    let affected = match outcome {
        Ok(SqlOutcome::Dml { rows_affected, .. }) => rows_affected,
        Ok(other) => return Err(format!("write returned {other:?}")),
        Err(e) => return Err(e.to_string()),
    };
    let Some(((in_range, sum), rows_before)) = before else {
        return Ok(secs);
    };
    let ((in_range_after, sum_after), rows_after) = (facts(lake)?, total_rows(lake)?);
    let ok = match d.kind {
        DmlKind::Insert { rows } => affected == rows && rows_after == rows_before + rows,
        DmlKind::Delete => {
            affected == in_range && in_range_after == 0 && rows_after == rows_before - in_range
        }
        DmlKind::Update => {
            affected == in_range && in_range_after == in_range && sum_after == sum + in_range as i64
        }
    };
    if ok {
        Ok(secs)
    } else {
        Err(format!(
            "`{:.60}…` affected {affected}; in range {in_range}→{in_range_after}, rows {rows_before}→{rows_after}, sum {sum}→{sum_after}",
            d.sql
        ))
    }
}

/// What the first `count_prefix` SELECTs loaded, per the engine's reports.
#[derive(Default)]
struct Counts {
    partitions_total: u64,
    partitions_loaded: u64,
    sim_wall_ns: u64,
}

impl Counts {
    fn add(&mut self, out: &QueryOutput) {
        self.partitions_total += out.report.pruning.partitions_total;
        self.partitions_loaded += out.io.partitions_loaded;
        self.sim_wall_ns += out.io.simulated_wall_ns;
    }
}

/// Clone the next burst's arrivals (outside the timed span).
pub fn burst_arrivals(w: &Workload, burst_no: usize) -> (usize, Vec<(TenantId, Plan)>) {
    let start = (burst_no * w.burst) % w.ops.len();
    let arrivals = w.ops[start..(start + w.burst).min(w.ops.len())]
        .iter()
        .filter_map(|op| match op {
            Op::Select(s) => Some((s.tenant, s.plan.clone())),
            Op::Dml(_) => None,
        })
        .collect();
    (start, arrivals)
}

#[derive(Default)]
struct Driven {
    select_ms: Vec<f64>,
    dml_ms: Vec<f64>,
    busy_s: f64,
    statements: u64,
    /// Per pass `[p50 ms, p95 ms, statements/s]`, when the stream is one
    /// short pass repeated (see `drive_closed_loop`).
    passes: Vec<[f64; 3]>,
    counts: Counts,
    tally: Tally,
}

/// Every fourth stream write is checked against the oracle's facts.
const DML_CHECK_EVERY: usize = 4;

fn drive_closed_loop(lake: &Lake, seconds: f64, d: &mut Driven) {
    let w = &lake.w;
    let (mut selects, mut writes) = (0usize, 0usize);
    // A stream that is one short pass (the 22 TPC-H plans) is measured in
    // whole passes, so every run times the same mix of statements, and is
    // reported as the median over passes, which a noisy pass cannot move.
    let whole_passes = w.ops.len() == w.count_prefix;
    let mut pass_from = (0usize, 0.0f64);
    for i in 0.. {
        let in_prefix = i < w.count_prefix;
        let mid_pass = whole_passes && i % w.ops.len() != 0;
        if d.busy_s >= seconds && !in_prefix && !mid_pass {
            break;
        }
        d.statements += 1;
        match &w.ops[i % w.ops.len()] {
            Op::Select(s) => {
                let what = format!("statement {i}");
                match run_select(&lake.session, w.submit, s) {
                    Ok((secs, out)) => {
                        d.busy_s += secs;
                        d.select_ms.push(secs * 1e3);
                        let ask_oracle = in_prefix && selects % w.check_every == 0;
                        if in_prefix {
                            d.counts.add(&out);
                        }
                        d.tally.attempt(
                            &what,
                            check_select(&lake.oracle, s, Cow::Owned(out.rows), ask_oracle),
                        );
                    }
                    Err(e) => d.tally.attempt(&what, Err(e)),
                }
                selects += 1;
            }
            Op::Dml(dml) => {
                let checked = in_prefix && writes % DML_CHECK_EVERY == 0;
                let res = run_dml(lake, dml, checked).map(|secs| {
                    d.busy_s += secs;
                    d.dml_ms.push(secs * 1e3);
                });
                d.tally.attempt(&format!("write {i}"), res);
                writes += 1;
            }
        }
        if whole_passes && (i + 1) % w.ops.len() == 0 && d.select_ms.len() > pass_from.0 {
            let ms = &d.select_ms[pass_from.0..];
            let qps = ratio(w.ops.len() as f64, d.busy_s - pass_from.1);
            d.passes.push([median(ms), percentile(ms, 0.95), qps]);
            pass_from = (d.select_ms.len(), d.busy_s);
        }
    }
}

fn drive_bursts(lake: &Lake, seconds: f64, d: &mut Driven) {
    let w = &lake.w;
    for burst_no in 0.. {
        let in_prefix = burst_no * w.burst < w.count_prefix;
        if d.busy_s >= seconds && !in_prefix {
            break;
        }
        let (start, arrivals) = burst_arrivals(w, burst_no);
        let t0 = Instant::now();
        let run = lake.session.run_admitted(&arrivals);
        d.busy_s += t0.elapsed().as_secs_f64();
        d.statements += arrivals.len() as u64;
        for (j, outcome) in run.outcomes.iter().enumerate() {
            let what = format!("burst {burst_no} arrival {j}");
            let Op::Select(s) = &w.ops[start + j] else {
                continue;
            };
            match outcome {
                Admission::Completed(out) => {
                    d.select_ms.push(out.wall.as_secs_f64() * 1e3);
                    if in_prefix {
                        d.counts.add(out);
                    }
                    let ask_oracle = in_prefix && j % w.check_every == 0;
                    d.tally.attempt(
                        &what,
                        check_select(&lake.oracle, s, Cow::Borrowed(&out.rows), ask_oracle),
                    );
                }
                Admission::Failed(e) => d.tally.attempt(&what, Err(e.to_string())),
                Admission::Rejected => d.tally.attempt(&what, Err("refused by admission".into())),
            }
        }
    }
}

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `--trace 0` run of one workload.
pub fn end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Option<(Metrics, Tally, u64)> {
    let (lake, first_setup_s) = timed_setup(name, seed, scale)?;
    let digest = crate::workloads::input_digest(&lake.w);
    let mut d = Driven::default();
    match lake.w.submit {
        Submit::Burst => drive_bursts(&lake, seconds, &mut d),
        Submit::Sql | Submit::Plan => drive_closed_loop(&lake, seconds, &mut d),
    }
    // Throughput covers the stream only; the write probe below is extra.
    let over_passes = |k: usize| median(&d.passes.iter().map(|p| p[k]).collect::<Vec<_>>());
    let [p50, p95, throughput] = if d.passes.len() >= 3 {
        [over_passes(0), over_passes(1), over_passes(2)]
    } else {
        [
            median(&d.select_ms),
            percentile(&d.select_ms, 0.95),
            ratio(d.statements as f64, d.busy_s),
        ]
    };
    for (i, dml) in lake.w.epilogue.iter().enumerate() {
        let res = run_dml(&lake, dml, i % 2 == 0).map(|secs| d.dml_ms.push(secs * 1e3));
        d.tally.attempt(&format!("write probe {i}"), res);
    }
    eprintln!(
        "{name}: {} SELECT and {} write samples in {:.2} s of engine time",
        d.select_ms.len(),
        d.dml_ms.len(),
        d.busy_s
    );
    // The process's high-water mark is read before the remaining set-ups:
    // it is that of one set-up plus the stream, not of allocator churn
    // from building the lake over and over.
    let peak_rss = peak_rss_mb();
    drop(lake);
    let mut setups = vec![first_setup_s];
    for _ in 1..SETUPS {
        setups.push(timed_setup(name, seed, scale)?.1);
    }
    let metrics = vec![
        ("setup_s", median(&setups)),
        ("select_p50_ms", p50),
        ("select_p95_ms", p95),
        ("dml_p50_ms", median(&d.dml_ms)),
        ("throughput_qps", throughput),
        (
            "loaded_frac",
            ratio(
                d.counts.partitions_loaded as f64,
                d.counts.partitions_total as f64,
            ),
        ),
        ("sim_io_s", d.counts.sim_wall_ns as f64 / 1e9),
        ("peak_rss_mb", peak_rss),
    ];
    Some((metrics, d.tally, digest))
}
