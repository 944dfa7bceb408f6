//! `benchmark`: one real-time benchmark of the engine, SQL text → rows, on
//! four workloads, with per-layer numbers timed from outside. See
//! `benchmark/README.md` for the glossary and `BENCHMARK.json` for the
//! contract.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! benchmark smoke                      all workloads, tiny lakes, both modes
//! benchmark runs --runs <k> --out <file> [--seed <n>] [--seconds <s>]
//! benchmark compare <runs-A> <runs-B>
//! benchmark manifest                   print BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod compare;
mod digest;
mod layers;
mod manifest;
mod oracle;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use manifest::{MetricInfo, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{Metrics, Tally};
use workloads::Scale;

/// Seed whose input digests are committed under `golden/`.
pub const DEFAULT_SEED: u64 = 1;

/// Where the traced run writes its spans, relative to the checkout root.
const TRACE_DIR: &str = "benchmark/out";

const GOLDEN: &str = include_str!("../golden/input_digests.txt");

fn golden_digest(workload: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        (it.next()? == workload).then(|| u64::from_str_radix(it.next()?, 16).ok())?
    })
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--record" => out.record = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == out.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(out)
}

/// Print every metric by name with its unit, then the result line.
/// Returns false when a metric of `wanted` is missing or not finite.
fn report(workload: &str, wanted: &[MetricInfo], metrics: &Metrics, tally: &Tally) -> bool {
    let mut complete = true;
    let mut fields = Vec::with_capacity(wanted.len());
    println!("{workload}:");
    for info in wanted {
        match metrics.iter().find(|(name, _)| *name == info.name) {
            Some((_, value)) if value.is_finite() => {
                println!("  {:<38} {:>16.6} {}", info.name, value, info.unit);
                fields.push(format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    info.name, info.unit
                ));
            }
            _ => {
                eprintln!("{workload}: metric {} was not measured", info.name);
                complete = false;
            }
        }
    }
    for m in &tally.messages {
        eprintln!("{workload}: FAILED {m}");
    }
    let correct = complete && tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    correct
}

/// Append `workload seed metric unit value` lines for `compare`.
fn record(
    path: &str,
    a: &RunArgs,
    wanted: &[MetricInfo],
    metrics: &Metrics,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for info in wanted {
        if let Some((_, v)) = metrics.iter().find(|(n, _)| *n == info.name) {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{v}",
                a.workload, a.seed, info.name, info.unit
            )?;
        }
    }
    f.flush()
}

fn run_one(a: &RunArgs) -> ExitCode {
    let (wanted, outcome) = if a.trace {
        (
            PER_LAYER,
            layers::per_layer(
                &a.workload,
                a.seed,
                a.seconds,
                Scale::Full,
                Some(Path::new(TRACE_DIR)),
            ),
        )
    } else {
        (
            END_TO_END,
            run::end_to_end(&a.workload, a.seed, a.seconds, Scale::Full),
        )
    };
    let Some((metrics, mut tally, digest)) = outcome else {
        eprintln!("unknown workload {}", a.workload);
        return ExitCode::from(2);
    };
    eprintln!("{}: seed {} input_digest {digest:016x}", a.workload, a.seed);
    if a.seed == DEFAULT_SEED {
        let want = golden_digest(&a.workload);
        if want != Some(digest) {
            tally.attempt(
                "input digest",
                Err(format!(
                    "golden/input_digests.txt pins {want:016x?}, generated {digest:016x}"
                )),
            );
        }
    }
    let ok = report(&a.workload, wanted, &metrics, &tally);
    if let Some(path) = &a.record {
        if let Err(e) = record(path, a, wanted, &metrics) {
            eprintln!("cannot record to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    exit_code(ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All workloads on tiny lakes, both modes: the code paths, not the numbers.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let e2e = run::end_to_end(w.name, DEFAULT_SEED, 0.3, Scale::Smoke);
        let layers = layers::per_layer(
            w.name,
            DEFAULT_SEED,
            0.3,
            Scale::Smoke,
            Some(Path::new(TRACE_DIR)),
        );
        for (wanted, outcome) in [(END_TO_END, e2e), (PER_LAYER, layers)] {
            match outcome {
                Some((metrics, tally, _)) => ok &= report(w.name, wanted, &metrics, &tally),
                None => ok = false,
            }
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("smoke") => return smoke(),
        Some("runs") => compare::runs(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        _ => match parse_run_args(&args) {
            Ok(a) => return run_one(&a),
            Err(e) => Err(e),
        },
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> | smoke | \
                 runs --runs <k> --out <file> | compare <A> <B> | manifest"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_reports_every_metric_on_a_tiny_lake() {
        for w in WORKLOADS {
            let (metrics, tally, _) = run::end_to_end(w.name, 7, 0.05, Scale::Smoke).unwrap();
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name, tally.messages);
            assert!(tally.attempted > 20, "{}", w.name);
            for info in END_TO_END {
                // End-to-end metrics are never 0, on any workload.
                let found = metrics.iter().find(|(n, _)| *n == info.name);
                assert!(
                    matches!(found, Some((_, v)) if v.is_finite() && *v > 0.0),
                    "{} {}",
                    w.name,
                    info.name
                );
            }
            let (metrics, tally, _) =
                layers::per_layer(w.name, 7, 0.05, Scale::Smoke, None).unwrap();
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name, tally.messages);
            for info in PER_LAYER {
                let found = metrics.iter().find(|(n, _)| *n == info.name);
                assert!(
                    matches!(found, Some((_, v)) if v.is_finite()),
                    "{} {}",
                    w.name,
                    info.name
                );
                // A time is measured on every workload, never defaulted.
                if matches!(info.unit, "us" | "ms" | "ns" | "s") {
                    assert!(found.unwrap().1 > 0.0, "{} {}", w.name, info.name);
                }
            }
            assert_eq!(metrics.len(), PER_LAYER.len());
        }
    }

    #[test]
    fn cache_fires_only_where_it_is_on() {
        let rate = |name: &str| {
            let (metrics, _, _) = layers::per_layer(name, 3, 0.05, Scale::Smoke, None).unwrap();
            let get = |m: &str| metrics.iter().find(|(n, _)| *n == m).unwrap().1;
            (get("cache.hit_rate"), get("cache.insertions"))
        };
        let (hit_rate, insertions) = rate("adhoc_dml");
        assert!(hit_rate > 0.0 && insertions > 0.0);
        assert_eq!(rate("dash_scale"), (0.0, 0.0));
    }

    #[test]
    fn inputs_depend_on_the_seed_and_nothing_else() {
        for w in WORKLOADS {
            let digest = |seed| {
                workloads::input_digest(&workloads::build(w.name, seed, Scale::Smoke).unwrap())
            };
            assert_eq!(digest(3), digest(3), "{}", w.name);
            assert_ne!(digest(3), digest(4), "{}", w.name);
        }
    }

    #[test]
    fn golden_file_pins_every_workload() {
        for w in WORKLOADS {
            assert!(golden_digest(w.name).is_some(), "{}", w.name);
        }
        assert_eq!(golden_digest("no_such_workload"), None);
    }

    /// `cargo xtask lint` does not walk `benchmark/`, so its two rules that
    /// matter here are repeated: no environment knobs, no `std::sync` locks.
    #[test]
    fn harness_sources_obey_the_repo_lints() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let knob = format!("\"SNOWPRUNE{}", "_");
        let env_read = format!("env::{}", "var");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            for (i, line) in std::fs::read_to_string(&path).unwrap().lines().enumerate() {
                let at = format!("{}:{}", path.display(), i + 1);
                assert!(
                    !line.contains(&knob) && !line.contains(&env_read),
                    "{at} reads the environment"
                );
                let lock = ["Mutex", "RwLock", "Condvar", "Barrier"]
                    .iter()
                    .any(|t| line.contains(t));
                assert!(
                    !(line.contains("std::sync") && lock),
                    "{at} uses a std::sync lock"
                );
            }
        }
    }
}
