//! `perf compare A B`: a baseline set of `perf run` outputs against a
//! candidate set.
//!
//! For every (workload, end-to-end metric) it prints both sides' medians
//! and quartiles and a verdict: *improved* when every B run beats every A
//! run and B's median beats A's by more than A's interquartile distance,
//! *unresolved* when either side's spread is wider than the metric's
//! bound, *worse* when B's median is worse than A's by more than the bound,
//! and *within bound* otherwise. A rise in `fail_ratio`, or any `check.*`
//! value that differs between the sides for the same workload and seed, is
//! a failure. Exits 1 on a failure or a *worse* verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::metrics::{Better, Metric, END_TO_END, FAIL_RATIO};
use crate::stats::{quartiles, rel_spread};

/// Values parsed from a set of `perf run` outputs.
#[derive(Debug, Default)]
struct Runs {
    /// (workload, metric) -> one value per run.
    metrics: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed, check) -> every value seen.
    checks: BTreeMap<(String, u64, String), BTreeSet<u64>>,
}

fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    let mut seed = None;
    for (n, line) in text.lines().enumerate() {
        let bad = || format!("line {}: cannot read {line:?}", n + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["host", facts @ ..] => {
                let s = facts.iter().find_map(|f| f.strip_prefix("seed="));
                seed = Some(s.and_then(|s| s.parse().ok()).ok_or_else(bad)?);
            }
            ["metric", workload, name, value, ..] => {
                let value: f64 = value.parse().map_err(|_| bad())?;
                runs.metrics
                    .entry((workload.to_string(), name.to_string()))
                    .or_default()
                    .push(value);
            }
            ["check", workload, name, value] => {
                let seed = seed.ok_or_else(|| format!("line {}: check before host line", n + 1))?;
                runs.checks
                    .entry((workload.to_string(), seed, name.to_string()))
                    .or_default()
                    .insert(value.parse().map_err(|_| bad())?);
            }
            _ => {}
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = B is worse.
    let worse_by = |x: f64, y: f64| sign * (y - x);
    let (qa1, ma, qa3) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let separated = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
    if separated && -worse_by(ma, mb) > qa3 - qa1 {
        Verdict::Improved
    } else if rel_spread(a).max(rel_spread(b)) > m.bound {
        Verdict::Unresolved
    } else if worse_by(ma, mb) > m.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: perf compare A B");
        return 2;
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (report, failures) = compare(&a, &b);
    print!("{report}");
    i32::from(failures > 0)
}

/// The comparison table and the number of failures and *worse* verdicts.
fn compare(a: &Runs, b: &Runs) -> (String, usize) {
    let mut out = String::new();
    let mut failures = 0;
    let _ = writeln!(
        out,
        "{:<15} {:<12} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let workloads: BTreeSet<&String> = a.metrics.keys().map(|(w, _)| w).collect();
    for w in workloads {
        for m in END_TO_END.iter().chain([&FAIL_RATIO]) {
            let key = (w.clone(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                let _ = writeln!(out, "{w:<15} {:<12} missing on one side", m.name);
                failures += 1;
                continue;
            };
            let (qa1, ma, qa3) = quartiles(va);
            let (qb1, mb, qb3) = quartiles(vb);
            let verdict = if m.name == FAIL_RATIO.name {
                let rose =
                    vb.iter().copied().fold(0.0, f64::max) > va.iter().copied().fold(0.0, f64::max);
                if rose {
                    "FAIL: failures rose"
                } else {
                    "ok"
                }
            } else {
                verdict(m, va, vb).name()
            };
            if verdict.starts_with("FAIL") || verdict == Verdict::Worse.name() {
                failures += 1;
            }
            let change = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma
            };
            let _ = writeln!(
                out,
                "{w:<15} {:<12} {:>28} {:>28} {change:>+7.1}% {:>5.0}%  {verdict}",
                m.name,
                format!("{ma:.4} [{qa1:.4}, {qa3:.4}]"),
                format!("{mb:.4} [{qb1:.4}, {qb3:.4}]"),
                100.0 * m.bound,
            );
        }
    }
    // Exact checks: for every workload and seed both sides ran, the values
    // must agree and repeat.
    let seeds = |r: &Runs| -> BTreeSet<(String, u64)> {
        r.checks.keys().map(|(w, s, _)| (w.clone(), *s)).collect()
    };
    let shared: BTreeSet<_> = seeds(a).intersection(&seeds(b)).cloned().collect();
    let names: BTreeSet<&(String, u64, String)> = a.checks.keys().chain(b.checks.keys()).collect();
    let mut compared = 0;
    for key @ (w, seed, name) in names {
        if !shared.contains(&(w.clone(), *seed)) {
            continue;
        }
        compared += 1;
        let mut seen = a.checks.get(key).cloned().unwrap_or_default();
        seen.extend(b.checks.get(key).into_iter().flatten());
        if seen.len() != 1 || !a.checks.contains_key(key) || !b.checks.contains_key(key) {
            failures += 1;
            let _ = writeln!(out, "FAIL: {w} seed {seed} {name} reads {seen:?}");
        }
    }
    let _ = writeln!(
        out,
        "{compared} exact checks compared over {} (workload, seed) pairs; {failures} failure(s)",
        shared.len()
    );
    (out, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(seed: u64, throughput: &[f64], cycles: u64) -> String {
        let mut s = String::new();
        for t in throughput {
            s += &format!("host nproc=2 threads=2 profile=release seed={seed} seconds=1\n");
            for m in END_TO_END {
                let v = if m.name == "throughput" { *t } else { 1.0 };
                s += &format!("metric w {} {v} {} n=5\n", m.name, m.unit);
            }
            s += "metric w fail_ratio 0 ratio n=5\n";
            s += &format!("check w check.cycles {cycles}\n");
        }
        s
    }

    #[test]
    fn verdicts_follow_bounds_spreads_and_checks() {
        let base = parse(&runs(42, &[100.0, 101.0, 99.0, 100.5, 99.5], 7)).unwrap();
        let same = parse(&runs(42, &[100.2, 99.8, 100.1, 99.9, 100.0], 7)).unwrap();
        assert_eq!(compare(&base, &same).1, 0);

        // Throughput 35 % lower: worse than its 24 % bound.
        let slow = parse(&runs(42, &[65.0, 65.5, 64.5, 65.2, 64.8], 7)).unwrap();
        let (report, failures) = compare(&base, &slow);
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("WORSE"));

        // Every run faster than every baseline run, by more than the
        // baseline's interquartile distance (1.5).
        let fast = parse(&runs(42, &[120.0, 121.0, 119.0, 120.5, 119.5], 7)).unwrap();
        assert!(compare(&base, &fast).0.contains("improved"));
        // Every run faster, but the medians only 1.2 apart.
        let barely = parse(&runs(42, &[101.1, 101.2, 101.3, 101.15, 101.25], 7)).unwrap();
        let (report, failures) = compare(&base, &barely);
        assert!(!report.contains("improved") && failures == 0, "{report}");

        // Too noisy to call.
        let noisy = parse(&runs(42, &[60.0, 140.0, 100.0, 70.0, 130.0], 7)).unwrap();
        assert!(compare(&base, &noisy).0.contains("unresolved"));

        // A simulated value changed: a failure whatever the timings.
        let (report, failures) = compare(&base, &parse(&runs(42, &[100.0], 8)).unwrap());
        assert_eq!(failures, 1, "{report}");
        // Checks of a seed only one side ran are not compared.
        assert_eq!(compare(&base, &parse(&runs(7, &[100.0], 8)).unwrap()).1, 0);
    }
}
