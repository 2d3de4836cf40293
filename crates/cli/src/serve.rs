//! The serving front-end: `mocha-sim serve` and `mocha-sim runtime`.
//!
//! `serve` speaks a std-only JSON-lines protocol: one job request per line,
//! a blank (or whitespace/CRLF-only) line closes the batch, and the
//! runtime's per-job reports plus a summary come back as JSON lines. Over
//! stdin/stdout one batch is served; with `--tcp ADDR` the deterministic
//! reactor of [`mocha::serve`] multiplexes many concurrent clients and
//! merges every batch that completes in one poll round into a single
//! runtime invocation. With `--shed-policy` the server predicts each
//! request's start from calibrated service times and sheds doomed or
//! over-queued work with an explicit `shed` response instead of queueing it
//! unboundedly; `--slo CYCLES` supplies the default deadline.
//!
//! `serve --open-loop` is the offline twin used by experiment R3: a seeded
//! heavy-tailed open-loop trace (or a `--trace FILE` replay) driven through
//! the calibrated queueing model, printing goodput/latency aggregates. The
//! same front end serves `fleet --open-loop` (experiment R5): with `--fleet`
//! or `--route` the trace is routed over the fleet's shards instead.
//!
//! `runtime` is the closed-loop generator: it creates a seeded arrival
//! trace over a tenant mix and prints per-job rows and fleet aggregates,
//! in a table or as JSON.

use crate::args::Args;
use crate::commands;
use crate::config;
use crate::fleet_cmd;
use mocha::engine::Engine;
use mocha::fleet::{run_fleet_open_loop, FleetOpenLoopParams, FleetSpec};
use mocha::obs::{names, MemRecorder, Recorder, WindowSpec, WindowedMetrics};
use mocha::runtime::{self, DecisionCache, JobSpec, RuntimeConfig, RuntimeReport, Submission};
use mocha::serve::{
    read_line_capped, run_open_loop, serve_reactor, traffic, windows_from_open_loop,
    windows_from_runtime, BatchHandler, Calibration, ClientBatch, LineRead, OpenLoopParams,
    OpenLoopReport, ReactorConfig, Request, RequestOutcome, ShedPolicy, MAX_LINE_BYTES,
};
use mocha_json::ToJson;
use std::collections::BTreeMap;

/// Span retention cap for the server's always-on recorder and for both
/// open-loop modes: counters and histograms are O(names) and never capped,
/// but spans grow with traffic, so the recorder keeps the first ~100k and
/// counts the rest in `spans_dropped`.
const SERVE_SPAN_CAP: usize = 100_000;

/// Windowed telemetry for a long-running server (`--metrics-window`).
///
/// Every runtime batch restarts its clock at zero, so batch-relative
/// cycles are offset by a running server clock before they land in the
/// window store — consecutive batches occupy consecutive windows and the
/// export stays a pure function of the request sequence (byte-identical
/// at any `--threads`).
struct ServeMetrics {
    m: WindowedMetrics,
    /// Cycle offset applied to the next batch's relative times.
    clock: u64,
    /// Cache (hits, misses) already attributed to earlier batches.
    cache_seen: (u64, u64),
}

impl ServeMetrics {
    fn new(spec: WindowSpec) -> Self {
        ServeMetrics {
            m: WindowedMetrics::new(spec),
            clock: 0,
            cache_seen: (0, 0),
        }
    }

    /// Folds one merged batch into the windows: sheds (with their policy
    /// reason) and admissions at arrival, completions at finish with
    /// latency/wait histograms and the per-request deadline verdict, and
    /// the batch's cache hit/miss deltas at the batch-start window. The
    /// clock then advances past everything the batch touched.
    #[allow(clippy::too_many_arguments)]
    fn absorb_batch(
        &mut self,
        shed: &[(u64, usize, String)],
        reason: &'static str,
        kept: &[(usize, Submission, Option<u64>)],
        default_slo: Option<u64>,
        report: &RuntimeReport,
        rec: &MemRecorder,
    ) {
        let spec = self.m.windows.spec();
        let clock = self.clock;
        if default_slo.is_some() || kept.iter().any(|(_, _, d)| d.is_some()) {
            self.m.enable_slo();
        }
        let mut touched = 0u64;
        for (arrival, client, network) in shed {
            let tenant = client.to_string();
            let labels = self.m.windows.intern(&[
                ("tenant", &tenant),
                ("template", network),
                ("reason", reason),
            ]);
            let at = clock + arrival;
            self.m.windows.add_at(names::SERVE_REQUESTS, labels, at, 1);
            self.m.windows.add_at(names::SERVE_SHED, labels, at, 1);
            if let Some(slo) = self.m.slo.as_mut() {
                slo.error(spec.cell(at), 1);
            }
            touched = touched.max(*arrival);
        }
        for (client, sub, _) in kept {
            let tenant = client.to_string();
            let labels = self
                .m
                .windows
                .intern(&[("tenant", &tenant), ("template", &sub.spec.network)]);
            let at = clock + sub.arrival_cycle;
            self.m.windows.add_at(names::SERVE_REQUESTS, labels, at, 1);
            self.m.windows.add_at(names::SERVE_ADMITTED, labels, at, 1);
            touched = touched.max(sub.arrival_cycle);
        }
        for job in &report.jobs {
            let (client, sub, deadline) = &kept[job.id as usize];
            let tenant = client.to_string();
            let labels = self
                .m
                .windows
                .intern(&[("tenant", &tenant), ("template", &sub.spec.network)]);
            let tmpl = self.m.windows.intern(&[("template", &sub.spec.network)]);
            let finish = clock + job.finished;
            self.m
                .windows
                .add_at(names::SERVE_COMPLETED, labels, finish, 1);
            let latency = job.finished - job.arrival;
            self.m
                .windows
                .sample_at(names::HIST_JOB_LATENCY, tmpl, finish, latency);
            self.m.windows.sample_at(
                names::HIST_QUEUE_WAIT,
                tmpl,
                finish,
                job.admitted - job.arrival,
            );
            if let Some(deadline) = deadline.or(default_slo) {
                let name = if latency <= deadline {
                    names::SERVE_IN_SLO
                } else {
                    names::SERVE_DEADLINE_MISSES
                };
                self.m.windows.add_at(name, labels, finish, 1);
                let slo = self.m.slo.as_mut().expect("deadline implies tracker");
                if latency <= deadline {
                    slo.good(spec.cell(finish), 1);
                } else {
                    slo.miss(spec.cell(finish), 1);
                }
            }
        }
        if report.failed > 0 {
            let at = clock + report.horizon;
            self.m.windows.add_at(
                names::SERVE_FAILED,
                mocha::obs::LabelSet::EMPTY,
                at,
                report.failed as u64,
            );
            if let Some(slo) = self.m.slo.as_mut() {
                slo.error(spec.cell(at), report.failed as u64);
            }
        }
        let hits = rec.counter(names::CACHE_HITS);
        let misses = rec.counter(names::CACHE_MISSES);
        let (seen_h, seen_m) = self.cache_seen;
        if hits > seen_h {
            let l = self.m.windows.intern(&[("result", "hit")]);
            self.m
                .windows
                .add_at(names::CACHE_DECISIONS, l, clock, hits - seen_h);
        }
        if misses > seen_m {
            let l = self.m.windows.intern(&[("result", "miss")]);
            self.m
                .windows
                .add_at(names::CACHE_DECISIONS, l, clock, misses - seen_m);
        }
        self.cache_seen = (hits, misses);
        let advance = report.horizon.max(touched);
        self.m.windows.observe_cycle(clock + advance);
        self.clock = clock + advance + 1;
    }
}

/// Long-lived server state: the runtime configuration, the admission
/// policy, the lazily-built per-template service-time cache backing shed
/// decisions, and the recorder every batch accumulates into.
struct ServeState {
    cfg: RuntimeConfig,
    shed: ShedPolicy,
    /// Default deadline (cycles after arrival) for requests that do not
    /// carry their own `deadline_cycles`.
    slo: Option<u64>,
    services: BTreeMap<(String, String), u64>,
    rec: MemRecorder,
    /// Morph-decision cache shared across batches (with `--cache`): later
    /// batches reuse decisions from earlier ones, and the `cache.*`
    /// counters in `stats` expose the hit rate.
    cache: Option<DecisionCache>,
    /// Windowed telemetry behind the `metrics` query (`--metrics-window`).
    metrics: Option<ServeMetrics>,
}

impl ServeState {
    /// Builds the server from its runtime options, `--shed-policy`,
    /// `--slo` and `--metrics-window`.
    fn from_args(args: &Args) -> Result<Self, String> {
        let cfg = config::runtime_config(args)?;
        let shed = shed_policy(args)?;
        let slo = args.options.get("slo").map(|_| args.opt_u64("slo", 0));
        // Live servers expose windows through the `metrics` query, not a file.
        let window = args
            .options
            .get("metrics-window")
            .map(|w| WindowSpec::parse(w))
            .transpose()?;
        Ok(ServeState {
            cache: cfg.cache.then(DecisionCache::new),
            cfg,
            shed,
            slo,
            services: BTreeMap::new(),
            rec: MemRecorder::with_span_cap(SERVE_SPAN_CAP),
            metrics: window.map(ServeMetrics::new),
        })
    }

    /// Calibrated one-slot service time for a spec's template, measured on
    /// first use and cached for the life of the server.
    fn service(&mut self, spec: &JobSpec) -> u64 {
        let key = (spec.network.clone(), spec.profile.clone());
        if let Some(&cycles) = self.services.get(&key) {
            return cycles;
        }
        let cal = Calibration::measure(
            &self.cfg.fabric,
            self.cfg.max_tenants,
            std::slice::from_ref(spec),
            Engine::configured(),
        )
        .expect("spec validated at parse time");
        let cycles = cal.service(spec);
        self.services.insert(key, cycles);
        cycles
    }
}

/// Runs one round of client batches through the runtime together: requests
/// are parsed per client (a bad line fails only that client), merged
/// across clients in arrival order, optionally filtered by the shed
/// policy, and executed as a single runtime batch. Returns one response
/// (or protocol error) per input batch, in order.
fn run_batches(state: &mut ServeState, batches: &[Vec<String>]) -> Vec<Result<String, String>> {
    let mut results: Vec<Option<Result<String, String>>> =
        (0..batches.len()).map(|_| None).collect();
    let mut merged: Vec<(usize, Submission, Option<u64>)> = Vec::new();
    let mut valid: Vec<usize> = Vec::new();
    for (c, lines) in batches.iter().enumerate() {
        let mut parsed = Vec::new();
        let mut bad = None;
        for (n, line) in lines.iter().enumerate() {
            state.rec.add(names::SERVE_REQUESTS, 1);
            match traffic::parse_request(line.trim()) {
                Ok(r) => parsed.push((
                    Submission {
                        arrival_cycle: r.arrival,
                        spec: r.spec,
                    },
                    r.deadline,
                )),
                Err(e) => {
                    state.rec.add(names::SERVE_REQUESTS_REJECTED, 1);
                    bad = Some(format!("line {}: {e}", n + 1));
                    break;
                }
            }
        }
        match bad {
            Some(e) => results[c] = Some(Err(e)),
            None => {
                merged.extend(parsed.into_iter().map(|(sub, d)| (c, sub, d)));
                valid.push(c);
            }
        }
    }
    if valid.is_empty() {
        return results
            .into_iter()
            .map(|r| r.expect("every client resolved"))
            .collect();
    }
    // The scheduler wants non-decreasing arrivals; clients may interleave.
    merged.sort_by_key(|(_, s, _)| s.arrival_cycle);

    // Admission control: predict every start from the calibrated service
    // times and drop doomed (or over-queued) requests with an explicit
    // shed line instead of queueing them unboundedly.
    let mut shed_lines: Vec<Vec<String>> = (0..batches.len()).map(|_| Vec::new()).collect();
    let mut shed_events: Vec<(u64, usize, String)> = Vec::new();
    let mut batch_shed = 0u64;
    let kept: Vec<(usize, Submission, Option<u64>)> = if state.shed.active() && !merged.is_empty() {
        let requests: Vec<Request> = merged
            .iter()
            .map(|(c, s, d)| Request {
                arrival: s.arrival_cycle,
                tenant: *c as u64,
                deadline: d.or(state.slo),
                spec: s.spec.clone(),
            })
            .collect();
        let services: Vec<u64> = merged
            .iter()
            .map(|(_, s, _)| state.service(&s.spec))
            .collect();
        let params = OpenLoopParams {
            fabric: &state.cfg.fabric,
            slots: state.cfg.max_tenants,
            shed: state.shed,
            faults: None,
            record_spans: false,
        };
        // The admission pre-pass records the queue-depth and shed-slack
        // histograms into a scratch recorder; only those histograms are
        // absorbed — the serve.* counters are re-added below per decision.
        let mut scratch = MemRecorder::new();
        let (_, outcomes) = run_open_loop(&params, &requests, &services, &mut scratch);
        state
            .rec
            .absorb_hist(names::HIST_SERVE_QUEUE_DEPTH, &scratch);
        state
            .rec
            .absorb_hist(names::HIST_SERVE_SHED_SLACK, &scratch);
        let mut kept = Vec::new();
        for ((c, sub, d), outcome) in merged.into_iter().zip(outcomes) {
            if matches!(outcome, RequestOutcome::Shed) {
                state.rec.add(names::SERVE_SHED, 1);
                batch_shed += 1;
                shed_events.push((sub.arrival_cycle, c, sub.spec.network.clone()));
                shed_lines[c].push(
                    mocha_json::jobj! {
                        "shed" => true,
                        "network" => sub.spec.network.as_str(),
                        "arrival_cycle" => sub.arrival_cycle,
                        "policy" => state.shed.name().as_str(),
                    }
                    .to_string_compact(),
                );
            } else {
                state.rec.add(names::SERVE_ADMITTED, 1);
                kept.push((c, sub, d));
            }
        }
        kept
    } else {
        merged
    };

    let subs: Vec<Submission> = kept.iter().map(|(_, s, _)| s.clone()).collect();
    let report = match state.cache.as_mut() {
        Some(cache) => runtime::run_with_cache(&state.cfg, &subs, cache, &mut state.rec),
        None => runtime::run_with(&state.cfg, &subs, &mut state.rec),
    };
    state.rec.add(names::SERVE_BATCHES, valid.len() as u64);
    if let Some(metrics) = state.metrics.as_mut() {
        metrics.absorb_batch(
            &shed_events,
            state.shed.reason(),
            &kept,
            state.slo,
            &report,
            &state.rec,
        );
    }

    let mut summary = summary_json(&report);
    if state.shed.active() {
        summary = summary.with("shed", batch_shed);
    }
    let summary = summary.to_string_compact();

    // `report.jobs` excludes failed jobs and is sorted by completion, so
    // ownership comes from the job id — the index of its submission.
    let mut out: Vec<String> = (0..batches.len()).map(|_| String::new()).collect();
    for &c in &valid {
        for line in &shed_lines[c] {
            out[c].push_str(line);
            out[c].push('\n');
        }
    }
    for job in &report.jobs {
        let owner = kept[job.id as usize].0;
        out[owner].push_str(&job.to_json().to_string_compact());
        out[owner].push('\n');
    }
    for c in valid {
        out[c].push_str(&summary);
        out[c].push('\n');
        results[c] = Some(Ok(std::mem::take(&mut out[c])));
    }
    results
        .into_iter()
        .map(|r| r.expect("every client resolved"))
        .collect()
}

/// The `stats` response: the recorder snapshot (counters, histogram
/// summaries, span tally) plus a derived `jobs` block whose counts
/// reconcile by construction. Without shedding,
/// `admitted == finished + failed + in_flight`; with a shed policy,
/// `admitted` counts every request past parsing and
/// `admitted == finished + failed + shed + in_flight`.
fn stats_json(rec: &MemRecorder, shed_active: bool) -> mocha_json::Value {
    let admitted = rec.counter(names::RUNTIME_JOBS_ADMITTED);
    let finished = rec.counter(names::RUNTIME_JOBS_FINISHED);
    let failed = rec.counter(names::RUNTIME_JOBS_FAILED);
    let shed = rec.counter(names::SERVE_SHED);
    let mut snap = rec.snapshot();
    if let mocha_json::Value::Obj(map) = &mut snap {
        let mut jobs = mocha_json::jobj! {
            "submitted" => rec.counter(names::RUNTIME_JOBS_SUBMITTED),
            "admitted" => if shed_active { admitted + shed } else { admitted },
            "finished" => finished,
            "retried" => rec.counter(names::RUNTIME_JOBS_RETRIED),
            "failed" => failed,
            "rejected" => rec.counter(names::SERVE_REQUESTS_REJECTED),
            "in_flight" => admitted - finished - failed,
        };
        if shed_active {
            jobs = jobs.with("shed", shed);
        }
        map.insert("jobs".to_string(), jobs);
    }
    snap
}

/// The fleet-level summary line (job list omitted — jobs were streamed
/// above).
fn summary_json(report: &RuntimeReport) -> mocha_json::Value {
    mocha_json::jobj! {
        "summary" => true,
        "policy" => report.policy.as_str(),
        "completed" => report.completed(),
        "horizon" => report.horizon,
        "jobs_per_mcycle" => report.jobs_per_mcycle(),
        "retried" => report.retried,
        "failed" => report.failed,
        "latency_p50" => report.latency_percentile(50.0),
        "latency_p95" => report.latency_percentile(95.0),
        "latency_p99" => report.latency_percentile(99.0),
        "mean_queue_wait" => report.mean_queue_wait(),
        "utilization" => report.utilization(),
        "gops" => report.gops(),
        "gops_per_watt" => report.gops_per_watt(),
    }
}

/// True when a batch is a `stats` snapshot query.
fn is_stats(lines: &[String]) -> bool {
    lines.first().map(|l| l.trim()) == Some("stats")
}

/// True when a batch is a `metrics` exposition query.
fn is_metrics(lines: &[String]) -> bool {
    lines.first().map(|l| l.trim()) == Some("metrics")
}

/// The reactor's early-completion predicate: query clients (`stats`,
/// `metrics`) keep their write side open, so the batch must complete
/// without a terminator.
fn is_query(lines: &[String]) -> bool {
    is_stats(lines) || is_metrics(lines)
}

/// A one-line JSON `error` response.
fn error_line(msg: &str) -> String {
    format!(
        "{}\n",
        mocha_json::jobj! { "error" => msg }.to_string_compact()
    )
}

/// The `metrics` response: the Prometheus-style text exposition followed
/// by one compact JSON snapshot line — or a one-line error when the
/// server was started without `--metrics-window`, or when its windows
/// would pass the export cap (the server keeps serving).
fn metrics_response(state: &mut ServeState) -> String {
    state.rec.add(names::SERVE_METRICS_REQUESTS, 1);
    match &state.metrics {
        None => error_line("metrics disabled (run with --metrics-window)"),
        Some(sm) => match sm.m.check_window_cap() {
            Err(e) => error_line(&e),
            Ok(()) => format!(
                "{}{}\n",
                sm.m.exposition(),
                sm.m.snapshot_json().to_string_compact()
            ),
        },
    }
}

/// Serves stdin/stdout batches until EOF: capped line reads until a
/// terminator close each batch (one runtime invocation per batch), and
/// bare `stats` / `metrics` lines at a batch boundary answer inline.
/// Protocol errors exit 2 with a one-line message. EOF mid-batch runs the
/// buffered lines, so a single unterminated batch still serves — the
/// original one-shot contract.
fn serve_stdin(state: &mut ServeState) -> i32 {
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let mut lines: Vec<String> = Vec::new();
    let mut served = 0usize;
    loop {
        let run_now = match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Ok(LineRead::Line(l)) => {
                if lines.is_empty() && l.trim() == "stats" {
                    state.rec.add(names::SERVE_STATS_REQUESTS, 1);
                    println!(
                        "{}",
                        stats_json(&state.rec, state.shed.active()).to_string_compact()
                    );
                    served += 1;
                    continue;
                }
                if lines.is_empty() && l.trim() == "metrics" {
                    print!("{}", metrics_response(state));
                    served += 1;
                    continue;
                }
                lines.push(l);
                continue;
            }
            Ok(LineRead::Terminator) => true,
            // An empty EOF after at least one served batch is a clean
            // shutdown; a bare EOF with no input at all still runs one
            // empty batch (the historical empty-input summary).
            Ok(LineRead::Eof) => !lines.is_empty() || served == 0,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        if run_now {
            let result = run_batches(state, std::slice::from_ref(&lines))
                .pop()
                .expect("one batch in, one response out");
            lines.clear();
            served += 1;
            match result {
                Ok(resp) => print!("{resp}"),
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        } else {
            return 0;
        }
    }
}

/// Drives [`run_batches`] from the TCP reactor: stats queries answer from
/// the recorder, all job batches of a poll round share one runtime
/// invocation, and per-client failures come back as one-line JSON errors.
struct ServeHandler<'a> {
    state: &'a mut ServeState,
}

impl BatchHandler for ServeHandler<'_> {
    fn handle(&mut self, batches: &[ClientBatch]) -> Vec<String> {
        let mut responses: Vec<Option<String>> = (0..batches.len()).map(|_| None).collect();
        let mut jobs: Vec<Vec<String>> = Vec::new();
        let mut job_pos: Vec<usize> = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            if !is_query(&b.lines) {
                jobs.push(b.lines.clone());
                job_pos.push(i);
            }
        }
        if !jobs.is_empty() {
            for (pos, result) in job_pos.into_iter().zip(run_batches(self.state, &jobs)) {
                responses[pos] = Some(result.unwrap_or_else(|e| error_line(&e)));
            }
        }
        // Query batches answer after the round's job batches, so a
        // snapshot taken in the same round reflects them.
        let shed_active = self.state.shed.active();
        batches
            .iter()
            .zip(responses)
            .map(|(b, r)| match r {
                Some(r) => r,
                None if is_metrics(&b.lines) => metrics_response(self.state),
                None => {
                    self.state.rec.add(names::SERVE_STATS_REQUESTS, 1);
                    format!(
                        "{}\n",
                        stats_json(&self.state.rec, shed_active).to_string_compact()
                    )
                }
            })
            .collect()
    }

    fn protocol_error(&mut self, msg: &str) -> String {
        error_line(msg)
    }
}

/// `serve` subcommand.
pub fn serve(args: &Args) -> i32 {
    if args.flag("open-loop") {
        // `--fleet` or `--route` shards the trace over a fleet.
        return open_loop(args, args.flag("fleet") || args.flag("route"));
    }
    if let Err(code) = commands::strict(
        args,
        0,
        &[
            "policy",
            "max-tenants",
            "no-verify",
            "fabric",
            "tcp",
            "once",
            "threads",
            "faults",
            "shed-policy",
            "slo",
            "cache",
            "metrics-window",
        ],
    ) {
        return code;
    }
    let mut state = match ServeState::from_args(args) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match args.options.get("tcp") {
        None => serve_stdin(&mut state),
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot bind {addr:?}: {e}");
                    return 2;
                }
            };
            match listener.local_addr() {
                Ok(a) => eprintln!("listening on {a}"),
                Err(_) => eprintln!("listening on {addr}"),
            }
            let reactor_cfg = ReactorConfig {
                once: args.flag("once"),
                complete_early: Some(is_query),
                ..ReactorConfig::default()
            };
            let mut handler = ServeHandler { state: &mut state };
            match serve_reactor(listener, &reactor_cfg, &mut handler) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("{e}");
                    2
                }
            }
        }
    }
}

/// Parses `--shed-policy` (default none).
fn shed_policy(args: &Args) -> Result<ShedPolicy, String> {
    args.options
        .get("shed-policy")
        .map_or(Ok(ShedPolicy::None), |s| ShedPolicy::parse(s))
}

/// Parses the paired offline metrics flags: `--metrics-window W` selects
/// the windowing and `--metrics FILE` the JSONL destination — both or
/// neither.
fn metrics_flags(args: &Args) -> Result<Option<(WindowSpec, String)>, String> {
    match (args.options.get("metrics-window"), args.options.get("metrics")) {
        (None, None) => Ok(None),
        (Some(_), None) => {
            Err("--metrics-window needs --metrics FILE for the windowed JSONL export".to_string())
        }
        (None, Some(_)) => {
            Err("--metrics FILE needs --metrics-window (WIDTH, tumbling:WIDTH, or rolling:WIDTH/STRIDE)"
                .to_string())
        }
        (Some(w), Some(path)) => {
            let spec = WindowSpec::parse(w)?;
            if path == "-" {
                return Err(
                    "--metrics writes a file; `-` is reserved for --obs (the report owns stdout)"
                        .to_string(),
                );
            }
            Ok(Some((spec, path.clone())))
        }
    }
}

/// Options every open-loop entry point takes. Single-fabric mode adds
/// `--fabric`; fleet mode adds [`FLEET_OPTIONS`].
const OPEN_LOOP_OPTIONS: [&str; 17] = [
    "open-loop",
    "requests",
    "tenants",
    "load",
    "seed",
    "mix",
    "slo",
    "shed-policy",
    "trace",
    "json",
    "obs",
    "max-tenants",
    "threads",
    "faults",
    "cache",
    "metrics-window",
    "metrics",
];

/// The fleet-mode options: fleet shape, routing, and cold penalty.
const FLEET_OPTIONS: [&str; 4] = ["fleet", "route", "route-seed", "cold-penalty"];

/// `serve --open-loop` and `fleet --open-loop`: the offline load sweep
/// behind experiments R3 and R5. Generates (or replays) a heavy-tailed
/// open-loop trace, calibrates per-template service times once per shard
/// geometry, and runs the deterministic queueing engine with the chosen
/// shed policy — on one fabric, or with `fleet` routed over the shards of
/// `--fleet` with per-shard fault domains, live re-balancing and cold
/// penalties.
pub(crate) fn open_loop(args: &Args, fleet: bool) -> i32 {
    let mode: &[&str] = if fleet { &FLEET_OPTIONS } else { &["fabric"] };
    if let Err(code) = commands::strict(args, 0, &[&OPEN_LOOP_OPTIONS[..], mode].concat()) {
        return code;
    }
    match sweep(args, fleet) {
        Ok((out, rec)) => commands::emit(args, &out, &rec),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// The open-loop sweep behind [`open_loop`]: the shared flags, the trace,
/// calibration, the recorder, the report text and the `--metrics` export
/// run once; only the engine call depends on the mode. Returns the report
/// text and the recorder for the `--obs` sink.
fn sweep(args: &Args, fleet_mode: bool) -> Result<(String, MemRecorder), String> {
    let metrics = metrics_flags(args)?;
    // Single-fabric mode is the one-shard fleet: strict admits `--fabric`
    // only there, and `--fleet` only in fleet mode.
    let fleet = match args.options.get("fabric") {
        Some(_) => FleetSpec::single(commands::load_fabric(args)),
        None => fleet_cmd::fleet_spec(args)?,
    };
    let route = fleet_cmd::route_kind(args)?;
    let slots = args.opt_u64("max-tenants", 4) as usize;
    if slots == 0 {
        return Err("--max-tenants must be at least 1".into());
    }
    let shed = shed_policy(args)?;
    let slo = args.options.get("slo").map(|_| args.opt_u64("slo", 0));
    let faults = config::fault_plan(args)?;
    let mix = config::mix(args)?;
    let (label, mut requests) = match args.options.get("trace") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            (format!("replay {path}"), traffic::from_jsonl(&text)?)
        }
        None => {
            let load = config::load(args)?;
            let tenants = args.opt_u64("tenants", 100) as usize;
            if tenants == 0 {
                return Err("--tenants must be at least 1".into());
            }
            let cfg = traffic::OpenLoopConfig {
                requests: args.opt_u64("requests", 2_000) as usize,
                tenants,
                load,
                seed: args.opt_u64("seed", 42),
                mix,
                slo,
            };
            (format!("load {load:.2}"), traffic::generate(&cfg))
        }
    };
    // `--slo` is the default deadline: replayed requests keep their own.
    if let Some(slo) = slo {
        for r in &mut requests {
            r.deadline.get_or_insert(slo);
        }
    }
    let specs: Vec<JobSpec> = requests.iter().map(|r| r.spec.clone()).collect();
    // `--cache` shares one decision cache across the calibrated geometries.
    let mut cache = args.flag("cache").then(DecisionCache::new);
    let services: Vec<Vec<u64>> = fleet
        .calibrate(slots, &specs, Engine::configured(), cache.as_mut())?
        .iter()
        .map(|cal| requests.iter().map(|r| cal.service(&r.spec)).collect())
        .collect();
    let record_spans = args.flag("obs");
    let mut rec = MemRecorder::with_span_cap(SERVE_SPAN_CAP);
    let (report, outcomes) = if fleet_mode {
        let params = FleetOpenLoopParams {
            fleet: &fleet,
            slots,
            shed,
            route,
            route_seed: args.opt_u64("route-seed", 42),
            faults: faults.as_ref(),
            cold_penalty: args.opt_u64("cold-penalty", 0),
            record_spans,
        };
        run_fleet_open_loop(&params, &requests, &services, &mut rec)
    } else {
        let params = OpenLoopParams {
            fabric: &fleet.shards()[0].fabric,
            slots,
            shed,
            faults: faults.as_ref(),
            record_spans,
        };
        run_open_loop(&params, &requests, &services[0], &mut rec)
    };
    let out = if args.flag("json") {
        format!("{}\n", report.to_json().to_string_pretty())
    } else {
        open_loop_text(&label, &report, faults.is_some())
    };

    if let Some((spec, path)) = metrics {
        let m = windows_from_open_loop(spec, &requests, &outcomes, &report.fault_log, shed);
        write_windows(&m, &path)?;
        // SLO alerts also land in the obs stream (counter + spans) so the
        // trace tooling sees them without parsing the metrics file.
        if m.slo.is_some() {
            m.record_alerts(&mut rec);
        }
    }
    Ok((out, rec))
}

/// The open-loop text report: the header, the admission tally, the fault
/// tally when `faults`, goodput and latency; a fleet run adds its routing
/// line and per-shard table.
fn open_loop_text(label: &str, r: &OpenLoopReport, faults: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = match r.route {
        Some(route) => writeln!(
            out,
            "fleet open-loop ({label}): {} requests over {} shard(s), route {route}, policy {}",
            r.offered,
            r.shards.len(),
            r.policy,
        ),
        None => writeln!(
            out,
            "open-loop ({label}): {} requests on {} slots, policy {}",
            r.offered, r.servers, r.policy,
        ),
    };
    let _ = writeln!(
        out,
        "  admitted {} | shed {} | completed {} | failed {} | in-SLO {} | misses {}",
        r.admitted, r.shed, r.completed, r.failed, r.in_slo, r.deadline_misses,
    );
    if r.route.is_some() {
        let _ = writeln!(
            out,
            "  routing: {} rebalanced | {} cold | {} warm",
            r.rebalanced, r.cold_misses, r.warm_hits,
        );
    }
    if faults {
        let _ = writeln!(
            out,
            "  faults: {} injected | {} quarantined | {} cycles lost",
            r.faults_injected, r.quarantined, r.lost_cycles,
        );
    }
    let _ = writeln!(
        out,
        "  goodput {:.3} /Mcycle | p50 {} p95 {} p99 {} cycles | mean wait {:.0} | util {:.1} %",
        r.goodput_per_mcycle(),
        r.latency_percentile(50.0),
        r.latency_percentile(95.0),
        r.latency_percentile(99.0),
        r.mean_queue_wait,
        100.0 * r.utilization(),
    );
    if r.route.is_some() {
        let _ = writeln!(
            out,
            "  {:>5} {:<12} {:>7} {:>7} {:>5} {:>9} {:>7} {:>7} {:>7} {:>10}",
            "shard",
            "fabric",
            "servers",
            "routed",
            "shed",
            "completed",
            "failed",
            "reb-in",
            "reb-out",
            "p99"
        );
        for (i, s) in r.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>5} {:<12} {:>7} {:>7} {:>5} {:>9} {:>7} {:>7} {:>7} {:>10}",
                i,
                s.label,
                s.servers,
                s.routed,
                s.shed,
                s.completed,
                s.failed,
                s.rebalanced_in,
                s.rebalanced_out,
                s.latency_percentile(99.0),
            );
        }
    }
    out
}

/// Writes a windowed `--metrics` export, refusing one past the window cap.
fn write_windows(m: &WindowedMetrics, path: &str) -> Result<(), String> {
    m.check_window_cap()?;
    std::fs::write(path, m.to_jsonl()).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// `runtime` subcommand.
pub fn runtime_cmd(args: &Args) -> i32 {
    if let Err(code) = commands::strict(
        args,
        0,
        &[
            "jobs",
            "load",
            "seed",
            "policy",
            "max-tenants",
            "mix",
            "no-verify",
            "json",
            "fabric",
            "obs",
            "threads",
            "faults",
            "cache",
            "metrics-window",
            "metrics",
        ],
    ) {
        return code;
    }
    match runtime_run(args) {
        Ok((out, rec)) => commands::emit(args, &out, &rec),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// The run behind `runtime`: its report text and recorder.
fn runtime_run(args: &Args) -> Result<(String, MemRecorder), String> {
    let metrics = metrics_flags(args)?;
    let cfg = config::runtime_config(args)?;
    let traffic = config::traffic(args)?;
    let subs = runtime::generate(&traffic);
    // With `--obs` the run is recorded and the full event stream exported
    // as JSON lines. The stream is a pure function of the seeded run, so
    // identical invocations produce byte-identical output.
    let mut rec = MemRecorder::new();
    let report = if args.flag("obs") {
        runtime::run_with(&cfg, &subs, &mut rec)
    } else {
        runtime::run(&cfg, &subs)
    };
    if let Some((spec, path)) = metrics {
        write_windows(&windows_from_runtime(spec, &report), &path)?;
    }

    use std::fmt::Write as _;
    let mut out = String::new();
    if args.flag("json") {
        let _ = writeln!(out, "{}", report.to_json().to_string_pretty());
    } else {
        let _ = writeln!(
            out,
            "{} jobs ({} mix, load {:.2}, seed {}) on {}x{} fabric, policy {}",
            traffic.jobs,
            traffic.mix.name(),
            traffic.load,
            traffic.seed,
            cfg.fabric.pe_rows,
            cfg.fabric.pe_cols,
            cfg.policy.name(),
        );
        let _ = writeln!(
            out,
            "  {:>3} {:<10} {:<8} {:>10} {:>10} {:>10} {:>10} {:>7} {:>8}",
            "job",
            "network",
            "priority",
            "arrival",
            "wait",
            "latency",
            "busy",
            "groups",
            "remorphs"
        );
        for j in &report.jobs {
            let _ = writeln!(
                out,
                "  {:>3} {:<10} {:<8} {:>10} {:>10} {:>10} {:>10} {:>7} {:>8}",
                j.id,
                j.spec.network,
                j.spec
                    .priority
                    .to_json()
                    .as_str()
                    .unwrap_or("?")
                    .to_string(),
                j.arrival,
                j.queue_wait(),
                j.latency(),
                j.busy_cycles,
                j.groups,
                j.remorphs,
            );
        }
        if cfg.faults.is_some() {
            let _ = writeln!(
                out,
                "faults: {} of {} jobs retried, {} failed ({} completed)",
                report.retried,
                traffic.jobs,
                report.failed,
                report.completed(),
            );
        }
        let _ = writeln!(
            out,
            "throughput {:.3} jobs/Mcycle | p50 {} p95 {} p99 {} cycles | util {:.1} % | {:.1} GOPS | {:.1} GOPS/W",
            report.jobs_per_mcycle(),
            report.latency_percentile(50.0),
            report.latency_percentile(95.0),
            report.latency_percentile(99.0),
            100.0 * report.utilization(),
            report.gops(),
            report.gops_per_watt(),
        );
    }

    Ok((out, rec))
}
