//! `runs` produces a set of runs (one child process per run, so
//! `peak_rss_mb` is per workload); `compare` judges two sets against the
//! bounds of the manifest, the way the repeatability criterion is checked.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::manifest::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// `runs --runs <k> --out <file> [--seed <n>] [--seed-step <d>] [--seconds <s>]`
pub fn runs(args: &[String]) -> Result<ExitCode, String> {
    let (mut k, mut out, mut seed, mut step, mut seconds) =
        (5u64, None, crate::DEFAULT_SEED, 0u64, RUN_SECONDS as f64);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--runs" => k = value.parse().map_err(|_| bad())?,
            "--out" => out = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seed-step" => step = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let out = out.ok_or("runs needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in WORKLOADS {
        for run in 0..k {
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0", "--record", &out])
                .args(["--seed", &(seed + run * step).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .status()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            if !status.success() {
                return Err(format!("{} run {run} exited with {status}", w.name));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

type RunSet = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, _seed, metric, _unit, value] = f[..] else {
            return Err(format!("{path}: malformed line `{line}`"));
        };
        let v: f64 = value
            .parse()
            .map_err(|_| format!("{path}: bad value in `{line}`"))?;
        set.entry((workload.into(), metric.into()))
            .or_default()
            .push(v);
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Within,
    Worse,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

/// Relative change of B's median against A's, positive when worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let noisy = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (worse_by, verdict)
}

fn summary(v: &[f64]) -> String {
    if v.len() < 2 {
        return format!("{:.4}", median(v));
    }
    let [q1, q2, q3] = quartiles(v);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

/// `compare <runs-A> <runs-B>`: exit code 1 when any pair is `worse`.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two run files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<13} {:<15} {:>34} {:>34} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{} {} is missing from a run file", w.name, m.name));
            };
            let bound = m.bound.unwrap_or(0.0);
            let (worse_by, verdict) = judge(va, vb, m.better, bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<13} {:<15} {:>34} {:>34} {:>+8.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                summary(va),
                summary(vb),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.6, 11.7, 11.5, 11.6, 11.65];
        assert_eq!(judge(&a, &slower, Better::Lower, 0.1).1, Verdict::Worse);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.2).1, Verdict::Within);
        // A higher throughput is not a regression, a lower one is.
        assert_eq!(judge(&a, &slower, Better::Higher, 0.1).1, Verdict::Within);
        assert_eq!(judge(&slower, &a, Better::Higher, 0.1).1, Verdict::Worse);
        let noisy = [8.0, 12.0, 10.0, 7.0, 13.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.1).1, Verdict::Unresolved);
        let (by, _) = judge(&a, &slower, Better::Lower, 0.1);
        assert!((by - 0.16).abs() < 1e-9);
    }
}
