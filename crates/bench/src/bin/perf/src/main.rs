//! `perf` — the repository benchmark.
//!
//! ```text
//! perf run     [--workload W] [--seed N] [--seconds S] [--threads T] [--trace 0|1] [--smoke]
//! perf trace   --workload W [--seed N] [--seconds S] [--threads T] [--smoke]
//! perf compare A B
//! ```
//!
//! `run` without `--workload` runs every workload, each in a child process of
//! its own, one after the other: a closed loop with one client. Each
//! workload sets up three times (the median is `setup_s`), then runs ops
//! for `--seconds`, stopping before an op that would overrun them (but
//! after at least two). Times are rescaled to reference speed (see
//! [`speed`]). It prints every metric by name with its unit and sample count,
//! every exact `check.*` value, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 1` (or `trace`)
//! alternates untraced and traced ops instead and reports the per-layer
//! metrics, a ranked table of where the op's wall time goes, and the tracing
//! overhead; spans go to `target/perf-spans-<W>.jsonl`.
//!
//! The exit code is 0 when every op passed its checks, 1 when one failed,
//! and 2 on a usage error.

mod compare;
mod metrics;
mod spans;
mod speed;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

use metrics::{Metric, END_TO_END, FAIL_RATIO, PER_LAYER};
use spans::Tracer;
use speed::{Clock, Timed};
use workloads::{OpOut, Size, Traced, Workload, NAMES};

const USAGE: &str = "usage: perf run [--workload W] [--seed N] [--seconds S] [--threads T] \
                     [--trace 0|1] [--smoke]
       perf trace --workload W [--seed N] [--seconds S] [--threads T] [--smoke]
       perf compare A B      (A, B: files holding the output of one or more `perf run`s)";

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed ops a run makes, however short `--seconds` is.
const MIN_OPS: usize = 2;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
    smoke: bool,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn parse_opts(args: &[String], trace: bool) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 42,
        seconds: 20.0,
        // One engine worker by default: with two, runtime-faults' peak RSS
        // flips between levels ~20 % apart from run to run (each worker
        // thread may get its own allocator arena), and a single worker is
        // slowed by contention the way the single-threaded speed probe is.
        // Golden verification fans out over every core regardless.
        threads: 1,
        trace,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => o.workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("one of {NAMES:?}"))),
            "--seed" => o.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            // Never more workers than cores: oversubscription only adds noise.
            "--threads" => match value.parse::<usize>() {
                Ok(t) if t >= 1 => o.threads = t.min(nproc()),
                _ => return Err(bad("a positive integer")),
            },
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if trace && o.workload.is_none() {
        return Err("`perf trace` needs --workload".into());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => match parse_opts(&args[1..], cmd == "trace") {
            Ok(o) => run(&o),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn host_line(o: &Opts) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host nproc={} threads={} profile={profile} seed={} seconds={}",
        nproc(),
        o.threads,
        o.seed,
        o.seconds
    )
}

fn run(o: &Opts) -> i32 {
    println!("{}", host_line(o));
    match &o.workload {
        Some(name) => run_workload(name, o),
        None => run_children(o),
    }
}

/// Runs every workload in a child process of its own, one at a time, and
/// relays its report (minus the repeated host line).
fn run_children(o: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the perf binary: {e}");
            return 2;
        }
    };
    let mut failed = Vec::new();
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--threads", &o.threads.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.stdout(Stdio::piped()).spawn().and_then(|mut child| {
            let stdout = child.stdout.take().expect("stdout is piped");
            for line in BufReader::new(stdout).lines() {
                let line = line?;
                if !line.starts_with("host ") {
                    println!("{line}");
                }
            }
            child.wait()
        });
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{name} ({s})")),
            Err(e) => failed.push(format!("{name} ({e})")),
        }
    }
    println!(
        "summary workloads={} failed={}{}",
        NAMES.len(),
        failed.len(),
        if failed.is_empty() {
            String::new()
        } else {
            format!(" [{}]", failed.join(", "))
        }
    );
    i32::from(!failed.is_empty())
}

/// Runs `f`, turning a panic — such as a golden-model divergence — into an
/// error.
fn attempt<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// The ops of one run and the verdict of their checks.
#[derive(Debug, Default)]
struct Tally {
    work: f64,
    attempted: usize,
    failed: usize,
    /// The checks of the first good op, which every later op repeats.
    reference: Option<Vec<(String, u64)>>,
}

impl Tally {
    fn record(&mut self, name: &str, result: Result<OpOut, String>) {
        self.attempted += 1;
        let verdict = result.and_then(|out| {
            let reference = self.reference.get_or_insert_with(|| out.checks.clone());
            if *reference != out.checks {
                return Err(format!(
                    "checks {:?} differ from the first op's {:?}",
                    out.checks, reference
                ));
            }
            self.work += out.work;
            Ok(())
        });
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("{name}: op {} failed: {e}", self.attempted - 1);
        }
    }

    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set of this process, from `/proc/self/status` (0 where
/// that is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric line: `metric <workload> <name> <value> <unit> n=<samples>`.
fn metric_line(out: &mut String, workload: &str, m: &Metric, value: f64, n: usize) {
    let _ = writeln!(out, "metric {workload} {} {value} {} n={n}", m.name, m.unit);
}

/// The last line: the result object, with `value` printed in full.
fn result_json(correct: bool, tally: &Tally, metrics: &[(&Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run_workload(name: &str, o: &Opts) -> i32 {
    mocha::engine::set_default_threads(o.threads);
    let size = if o.smoke { Size::Smoke } else { Size::Full };
    let mut tr = Tracer::new();
    // The traced run reports raw host seconds.
    let mut clock = Clock::new(size == Size::Full && !o.trace);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut w: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS {
        tr.begin("setup", rep);
        // Drop the previous inputs first, so peak RSS holds one copy.
        drop(w.take());
        let fresh = attempt(|| {
            let mut fresh = clock.time(|| workloads::setup(name, o.seed, size, &mut tr))?;
            if fresh.warm_up() {
                fresh.op(&mut clock)?;
            }
            Ok(fresh)
        });
        setup.push(clock.take());
        match fresh {
            Ok(fresh) => w = Some(fresh),
            Err(e) => {
                eprintln!("{name}: setup failed: {e}");
                return 1;
            }
        }
    }
    let w = w.expect("SETUP_REPS > 0");
    if o.trace {
        trace_workload(name, o, w, tr, clock, &setup)
    } else {
        time_workload(name, o, w, clock, &setup)
    }
}

/// Whether a run goes on after `ops` ops, the last taking `last` seconds:
/// until `min` ops ran, then while another such op still fits in
/// `--seconds`.
fn more(ops: usize, min: usize, last: f64, start: Instant, o: &Opts) -> bool {
    ops < min || start.elapsed().as_secs_f64() + last <= o.seconds
}

/// Throughput, `op_p50_s`, `op_p75_s` and `setup_s` from the seconds of
/// each op and each set-up.
fn summary(work: f64, ops: &[f64], setup: &[f64]) -> [f64; 4] {
    [
        work / ops.iter().sum::<f64>(),
        stats::percentile(ops, 50.0),
        stats::percentile(ops, 75.0),
        stats::median(setup),
    ]
}

fn time_workload(
    name: &str,
    o: &Opts,
    mut w: Box<dyn Workload>,
    mut clock: Clock,
    setup: &[Timed],
) -> i32 {
    let mut tally = Tally::default();
    let mut ops: Vec<Timed> = vec![];
    let start = Instant::now();
    while more(
        ops.len(),
        MIN_OPS,
        ops.last().map_or(0.0, |t| t.raw),
        start,
        o,
    ) {
        let result = attempt(|| w.op(&mut clock));
        ops.push(clock.take());
        tally.record(name, result);
    }
    let n = ops.len();
    let raw = |ts: &[Timed]| ts.iter().map(|t| t.raw).collect::<Vec<_>>();
    let scaled = |ts: &[Timed]| ts.iter().map(|t| t.scaled).collect::<Vec<_>>();
    let [throughput, p50, p75, setup_s] = summary(tally.work, &scaled(&ops), &scaled(setup));
    let values = [throughput, p50, p75, setup_s, peak_rss_mb()];
    let counts = [n, n, n, SETUP_REPS, 1];

    let mut out = String::new();
    for ((m, &v), &count) in END_TO_END.iter().zip(&values).zip(&counts) {
        metric_line(&mut out, name, m, v, count);
    }
    metric_line(&mut out, name, &FAIL_RATIO, tally.fail_ratio(), n);
    for (m, v) in END_TO_END
        .iter()
        .zip(summary(tally.work, &raw(&ops), &raw(setup)))
    {
        let _ = writeln!(out, "raw {name} {} {v} {}", m.name, m.unit);
    }
    let refs = &clock.refs;
    if !refs.is_empty() {
        let _ = writeln!(
            out,
            "note {name} times are at reference speed: {} speed probes took {:.4} s on \
             average, against {} s",
            refs.len(),
            refs.iter().sum::<f64>() / refs.len() as f64,
            speed::REFERENCE_SECS,
        );
    }
    let _ = writeln!(
        out,
        "note {name} op_p75_s has {} samples beyond it",
        stats::beyond(n, 75.0)
    );
    checks_lines(&mut out, name, &tally);
    let correct = tally.failed == 0;
    let pairs: Vec<(&Metric, f64)> = END_TO_END.iter().zip(values).collect();
    out += &result_json(correct, &tally, &pairs);
    println!("{out}");
    i32::from(!correct)
}

fn checks_lines(out: &mut String, name: &str, tally: &Tally) {
    for (check, value) in tally.reference.iter().flatten() {
        let _ = writeln!(out, "check {name} check.{check} {value}");
    }
}

fn is_count(layer: &str) -> bool {
    metrics::per_layer(layer).unit == "count"
}

/// The exact counts among a traced op's per-layer metrics.
fn counts(op: &Traced) -> BTreeMap<&'static str, f64> {
    op.layers
        .iter()
        .copied()
        .filter(|&(l, _)| is_count(l))
        .collect()
}

fn trace_workload(
    name: &str,
    o: &Opts,
    mut w: Box<dyn Workload>,
    mut tr: Tracer,
    mut clock: Clock,
    setup: &[Timed],
) -> i32 {
    let setup_s = stats::median(&setup.iter().map(|t| t.raw).collect::<Vec<_>>());
    let mut tally = Tally::default();
    let mut untraced = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let start = Instant::now();
    let mut pair = 0.0;
    // One traced op of the slowest workload outlasts a run's seconds.
    while more(traced.len(), 1, pair, start, o) {
        let t = Instant::now();
        let result = attempt(|| w.op(&mut clock));
        untraced.push(clock.take().raw);
        tally.record(name, result);

        tr.begin("op", untraced.len() - 1);
        let result = attempt(|| w.traced_op(&mut tr)).and_then(|op| {
            // Counts are exact: every traced op repeats the first one's.
            if let Some(first) = traced.first() {
                if counts(first) != counts(&op) {
                    return Err(format!(
                        "counts {:?} differ from the first op's {:?}",
                        counts(&op),
                        counts(first)
                    ));
                }
            }
            traced.push(op.clone());
            Ok(op.out)
        });
        tally.record(name, result);
        pair = t.elapsed().as_secs_f64();
    }

    // Times: the mean per traced op. Counts: the count of one op.
    let mut layers: BTreeMap<&'static str, f64> = traced.first().map(counts).unwrap_or_default();
    for op in &traced {
        for &(layer, v) in &op.layers {
            if !is_count(layer) {
                *layers.entry(layer).or_default() += v / traced.len() as f64;
            }
        }
    }
    // Set-up layers: the median over the set-ups of each span's total.
    for m in PER_LAYER {
        let Some(span) = m.name.strip_suffix("_s") else {
            continue;
        };
        let per_rep: Vec<f64> = (0..SETUP_REPS)
            .map(|rep| {
                tr.spans()
                    .iter()
                    .filter(|s| s.phase == "setup" && s.op == rep && s.name == span)
                    .map(spans::Span::secs)
                    .sum()
            })
            .collect();
        if per_rep.iter().any(|&s| s > 0.0) {
            layers.insert(m.name, stats::median(&per_rep));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let traced_op = mean(&traced.iter().map(|t| t.op_secs).collect::<Vec<_>>());
    let untraced_op = mean(&untraced);
    layers.insert("trace.overhead_s", traced_op - untraced_op);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "where wall-time goes: {name}, {} traced ops, setup {setup_s:.3} s (median of {SETUP_REPS})",
        traced.len()
    );
    let mut parts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for t in &traced {
        for &(part, v) in &t.parts {
            *parts.entry(part).or_default() += v / traced.len() as f64;
        }
    }
    let mut ranked: Vec<(&str, f64)> = parts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(
        out,
        "  {:>4}  {:<20} {:>10}  {:>6}",
        "rank", "layer", "s/op", "share"
    );
    for (rank, (part, secs)) in ranked.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>4}  {part:<20} {secs:>10.4}  {:>5.1} %",
            rank + 1,
            100.0 * secs / traced_op
        );
    }
    let _ = writeln!(
        out,
        "  traced op {traced_op:.4} s, untraced op {untraced_op:.4} s, tracing overhead {:+.4} s ({:+.1} %)",
        traced_op - untraced_op,
        100.0 * (traced_op - untraced_op) / untraced_op
    );
    for (&layer, &v) in &layers {
        let m = metrics::per_layer(layer);
        let _ = writeln!(out, "layer {name} {layer} {v} {}", m.unit);
    }
    metric_line(
        &mut out,
        name,
        &FAIL_RATIO,
        tally.fail_ratio(),
        tally.attempted,
    );
    checks_lines(&mut out, name, &tally);

    let path = format!("target/perf-spans-{name}.jsonl");
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
        Ok(()) => {
            let _ = writeln!(out, "spans {name} {path} ({} spans)", tr.spans().len());
        }
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    let correct = tally.failed == 0;
    let pairs: Vec<(&Metric, f64)> = PER_LAYER
        .iter()
        .map(|m| (m, layers.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    out += &result_json(correct, &tally, &pairs);
    println!("{out}");
    i32::from(!correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workload: &str, seed: u64, trace: bool) -> Opts {
        Opts {
            workload: Some(workload.into()),
            seed,
            seconds: 0.0,
            threads: nproc(),
            trace,
            smoke: true,
        }
    }

    /// Each workload at smoke size passes its checks, untraced on the seed
    /// the benchmark defaults to and on a held-out one, and traced.
    macro_rules! smoke {
        ($($test:ident: $name:literal, $seed:literal, $trace:literal;)*) => {$(
            #[test]
            fn $test() {
                assert_eq!(run_workload($name, &opts($name, $seed, $trace)), 0);
            }
        )*};
    }

    smoke! {
        smoke_sim_alexnet: "sim-alexnet", 42, false;
        smoke_sim_alexnet_held_out_seed: "sim-alexnet", 7, false;
        smoke_sim_alexnet_traced: "sim-alexnet", 42, true;
        smoke_runtime_faults: "runtime-faults", 42, false;
        smoke_runtime_faults_held_out_seed: "runtime-faults", 7, false;
        smoke_runtime_faults_traced: "runtime-faults", 42, true;
        smoke_serve_openloop: "serve-openloop", 42, false;
        smoke_serve_openloop_held_out_seed: "serve-openloop", 7, false;
        smoke_serve_openloop_traced: "serve-openloop", 42, true;
        smoke_fleet_faults: "fleet-faults", 42, false;
        smoke_fleet_faults_held_out_seed: "fleet-faults", 7, false;
        smoke_fleet_faults_traced: "fleet-faults", 42, true;
    }

    /// An op whose checks stop repeating, or that panics, counts as failed,
    /// raises the fail ratio and turns the exit code non-zero.
    #[test]
    fn a_forced_check_failure_fails_the_run() {
        /// Op 1 panics as a golden divergence does; op 2 reads other cycles.
        struct Flaky(u64);
        impl Workload for Flaky {
            fn op(&mut self, _: &mut Clock) -> Result<OpOut, String> {
                self.0 += 1;
                match self.0 - 1 {
                    1 => panic!("simulated output deviates from golden model"),
                    i => Ok(OpOut {
                        work: 1.0,
                        checks: vec![("cycles".into(), 100 + u64::from(i == 2))],
                    }),
                }
            }
            fn traced_op(&mut self, _: &mut Tracer) -> Result<Traced, String> {
                unreachable!("not traced")
            }
        }
        let mut tally = Tally::default();
        let mut w = Flaky(0);
        let mut clock = Clock::new(false);
        for _ in 0..4 {
            let result = attempt(|| w.op(&mut clock));
            tally.record("flaky", result);
        }
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.fail_ratio(), 0.5);
        let o = opts("sim-alexnet", 42, false);
        let setup = [Timed {
            raw: 0.1,
            scaled: 0.1,
        }];
        assert_eq!(
            time_workload("flaky", &o, Box::new(Flaky(0)), Clock::new(false), &setup),
            1
        );
    }
}
