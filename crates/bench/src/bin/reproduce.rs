//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run -p snowprune-bench --release --bin reproduce -- all
//! cargo run -p snowprune-bench --release --bin reproduce -- fig13 --scale 0.05
//! ```

use snowprune_bench::snapshot::Snapshot;
use snowprune_bench::{experiments as e, prefetch_exp as pf, production_exp as pr, tpch_exp as t};
use snowprune_workload::ProductionScaleConfig;

/// Persist a tracked snapshot next to the report (`BENCH_<name>.json`,
/// honoring `SNOWPRUNE_BENCH_DIR`) and return a report line saying where.
fn emit(snap: Snapshot) -> String {
    match snap.write_file() {
        Ok(path) => format!("  snapshot: {}\n", path.display()),
        Err(e) => format!(
            "  snapshot: FAILED to write BENCH_{}.json: {e}\n",
            snap.name
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One pass over the args: valued flags consume their value here, so the
    // experiment-id scan below can never mistake a value for an id.
    // `--smoke`: tiny-scale pass over every experiment, used by CI to keep
    // the reproduction binary from rotting without paying full runtime.
    let mut smoke = false;
    let mut scale_arg: Option<f64> = None;
    let mut queries_arg: Option<usize> = None;
    let mut which: Option<&str> = None;
    let mut i = 0;
    fn flag_value<T: std::str::FromStr>(args: &[String], i: usize) -> T {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!(
                "flag {} needs a {} value",
                args[i - 1],
                std::any::type_name::<T>()
            );
            std::process::exit(2);
        })
    }
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--scale" => {
                i += 1;
                scale_arg = Some(flag_value(&args, i));
            }
            "--queries" => {
                i += 1;
                queries_arg = Some(flag_value(&args, i));
            }
            a if a.starts_with("--") => {
                eprintln!("unknown flag '{a}'. available: --smoke --scale <f64> --queries <n>");
                std::process::exit(2);
            }
            a => which = which.or(Some(a)),
        }
        i += 1;
    }
    let which = which.unwrap_or("all");
    let scale = scale_arg.unwrap_or(if smoke { 0.005 } else { 0.02 });
    let queries = queries_arg.unwrap_or(if smoke { 40 } else { 400 });
    let seed = 20241105; // 2024-11-05, the paper's camera-ready era
    let mix_queries = if smoke { 1_000 } else { 20_000 };
    let k_samples = if smoke { 5_000 } else { 100_000 };
    let limit_floor = if smoke { 200 } else { 2_000 };

    let run = |id: &str| -> Option<String> {
        match id {
            "fig1" => Some(e::fig01_overview(queries, seed)),
            "fig4" => Some(e::fig04_filter_cdf(queries, seed)),
            "tab1" => Some(e::tab1_query_mix(mix_queries, seed)),
            "fig6" => Some(e::fig06_k_cdf(k_samples, seed)),
            "tab2" => Some(e::tab2_limit_breakdown(queries.max(limit_floor), seed)),
            "fig8" => Some(e::fig08_topk_sorting(queries, seed)),
            "fig9" => Some(e::fig09_topk_impact(queries, seed)),
            "fig10" => Some(e::fig10_join_cdf(queries, seed)),
            "fig11" => Some(e::fig11_flow(queries, seed)),
            "fig12" => Some(e::fig12_repetitiveness(seed)),
            "fig13" => Some(format!(
                "{}{}",
                t::fig13_tpch(scale, seed),
                t::fig13_tpch_unclustered(scale, seed)
            )),
            "cache" => Some({
                let (s, snap) = t::ext_cache_snap(seed);
                s + &emit(snap)
            }),
            "ablations" => Some(t::ablations(seed)),
            "prefetch" => Some({
                let (s, snap) = if smoke {
                    pf::ext_prefetch_snap(seed, 4, 50, 10)
                } else {
                    pf::ext_prefetch_snap(seed, 12, 400, 60)
                };
                s + &emit(snap)
            }),
            "production" => Some({
                let (s, snap) = if smoke {
                    let scale = ProductionScaleConfig {
                        tenants: 24,
                        queries: 96,
                        fact_partitions: 400,
                        rows_per_partition: 8,
                        zipf_s: 1.1,
                    };
                    pr::ext_production_snap(seed, &scale, 4)
                } else {
                    // Tracked-baseline scale: hundreds of tenants over a
                    // 20k-partition lake regenerates in minutes on one
                    // core. The generator's own default
                    // (`ProductionScaleConfig::default()`: 512 tenants,
                    // 2048 arrivals, 100k partitions) is the full
                    // production scale — pass it through
                    // `ext_production_snap` when wall-clock budget allows.
                    let scale = ProductionScaleConfig {
                        tenants: 256,
                        queries: 512,
                        fact_partitions: 20_000,
                        rows_per_partition: 8,
                        zipf_s: 1.1,
                    };
                    pr::ext_production_snap(seed, &scale, 8)
                };
                s + &emit(snap)
            }),
            _ => None,
        }
    };

    let ids = [
        "fig1",
        "fig4",
        "tab1",
        "fig6",
        "tab2",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "cache",
        "ablations",
        "prefetch",
        "production",
    ];
    if which == "all" {
        for id in ids {
            println!("{}", run(id).unwrap());
        }
    } else if let Some(report) = run(which) {
        println!("{report}");
    } else {
        eprintln!(
            "unknown experiment '{which}'. available: {} all",
            ids.join(" ")
        );
        std::process::exit(2);
    }
}
