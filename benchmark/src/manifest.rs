//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repo root is this table
//! rendered by [`benchmark_json`]; a unit test keeps the two identical, so
//! the names the runner prints and the names the driver expects cannot
//! drift apart.

/// Seconds one run measures for (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "benchmark",
    "--",
];

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "dash_scale",
        why: "SQL dashboard slices over an 8000-partition lake, cache off: metadata read, zone-map pruning, scan compile and per-partition pipeline overhead do the work",
    },
    WorkloadInfo {
        name: "tpch_cpu",
        why: "the 22 TPC-H plans at SF 0.05: kernels, join build/probe, aggregation and row materialization do the work; pruning and compile are noise",
    },
    WorkloadInfo {
        name: "adhoc_dml",
        why: "Table-1 query mix as SQL with the predicate cache on, repeated statements and every 10th statement a write: front end, analyzer, cache and DML all fire",
    },
    WorkloadInfo {
        name: "tenant_burst",
        why: "the dash_scale statements submitted as multi-tenant bursts through admission control: same inputs, so the difference isolates pool, admission and prefetch depth",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricInfo {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees; measured with tracing off.
pub const END_TO_END: &[MetricInfo] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("select_p50_ms", "ms", Lower, 0.25),
    e2e("select_p95_ms", "ms", Lower, 0.25),
    e2e("dml_p50_ms", "ms", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("loaded_frac", "ratio", Lower, 0.15),
    e2e("sim_io_s", "s", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// One layer each (layer = crate/module); from the `--trace 1` run.
pub const PER_LAYER: &[MetricInfo] = &[
    layer("sql.lex_us", "us", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("sql.bind_us", "us", Lower),
    layer("sql.frontend_share", "ratio", Lower),
    layer("analyze.verify_us", "us", Lower),
    layer("plan.fingerprint_us", "us", Lower),
    layer("plan.shape_signature_us", "us", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    layer("cache.stale_rejections", "count", Lower),
    layer("cache.invalidations", "count", Lower),
    layer("cache.insertions", "count", Lower),
    layer("cache.lookup_us", "us", Lower),
    layer("storage.read_metadata_us_per_kpart", "us", Lower),
    layer("storage.load_partition_us", "us", Lower),
    layer("storage.metadata_reads", "count", Lower),
    layer("storage.partitions_loaded", "count", Lower),
    layer("storage.bytes_loaded", "count", Lower),
    layer("storage.loads_cancelled", "count", Higher),
    layer("storage.dml_insert_us", "us", Lower),
    layer("storage.dml_delete_ms", "ms", Lower),
    layer("storage.dml_update_ms", "ms", Lower),
    layer("storage.dml_parts_rewritten", "count", Lower),
    layer("dml.p95_ms", "ms", Lower),
    layer("core.filter.prune_us_per_kpart", "us", Lower),
    layer("core.filter.pruned_frac", "ratio", Higher),
    layer("core.limit.pruned_frac", "ratio", Higher),
    layer("core.join.pruned_frac", "ratio", Higher),
    layer("core.topk.pruned_frac", "ratio", Higher),
    layer("core.filter.loaded_per_needed", "ratio", Lower),
    layer("exec.scan.compile_us_per_kpart", "us", Lower),
    layer("exec.scan.compile_share", "ratio", Lower),
    layer("exec.run_us_per_part_loaded", "us", Lower),
    layer("exec.rows_out_per_s", "1/s", Higher),
    layer("exec.pool.speedup_2v1", "ratio", Higher),
    layer("exec.admission.rejected", "count", Lower),
    layer("exec.admission.queue_wait_p95_vms", "vms", Lower),
    layer("exec.admission.max_depth", "count", Higher),
    layer("expr.kernel.ns_per_row", "ns", Lower),
    layer("exec.vector.join_build_ns_per_row", "ns", Lower),
    layer("exec.vector.join_probe_ns_per_row", "ns", Lower),
    layer("exec.vector.agg_ns_per_row", "ns", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

fn json_str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn metric_json(m: &MetricInfo) -> String {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    let bound = m
        .bound
        .map(|b| format!(", \"bound\": {b}"))
        .unwrap_or_default();
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_str_list(COMMAND),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_bounds_respect_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
