//! End-to-end tests driving the `mocha-sim` binary: the multi-tenant
//! `runtime` command on a seeded workload (with golden-model verification
//! on, so any divergence under contention aborts the run), the `serve`
//! JSON-lines batch protocol, and the scriptable error contract (one-line
//! stderr + exit code 2).

use mocha_json::ToJson;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};

fn mocha_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(args)
        .output()
        .expect("spawn mocha-sim")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

/// The acceptance path: `mocha-sim runtime` on a seeded multi-tenant
/// workload. Verification is on by default, so every executed group was
/// checked against the golden executor in-process — a non-zero exit would
/// mean morphing under contention changed a result. The JSON report must
/// also match the library run bit for bit (cross-process determinism).
#[test]
fn runtime_on_seeded_workload_matches_the_library_and_the_golden_model() {
    let out = mocha_sim(&[
        "runtime", "--jobs", "5", "--load", "3.0", "--seed", "13", "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let traffic = mocha::runtime::TrafficConfig {
        jobs: 5,
        load: 3.0,
        seed: 13,
        mix: mocha::runtime::Mix::Quick,
    };
    let subs = mocha::runtime::generate(&traffic);
    let report = mocha::runtime::run(&mocha::runtime::RuntimeConfig::default(), &subs);
    assert_eq!(report.completed(), 5);
    let expected = format!("{}\n", report.to_json().to_string_pretty());
    assert_eq!(stdout(&out), expected);
}

/// The human-readable table carries one row per job plus the fleet summary.
#[test]
fn runtime_table_lists_every_job_and_a_summary() {
    let out = mocha_sim(&["runtime", "--jobs", "3", "--load", "2.0", "--seed", "5"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["job", "latency", "remorphs", "throughput", "p99", "GOPS/W"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Header + column row + 3 job rows + summary.
    assert_eq!(text.lines().count(), 6, "unexpected shape:\n{text}");
}

/// `serve` over stdin: two requests in, two job reports plus one summary
/// line out, all valid JSON.
#[test]
fn serve_answers_a_stdin_batch_with_json_lines() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"priority\": \"high\", \"seed\": 7}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 5000}\n\n",
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "expected 2 job reports + summary:\n{text}");
    for line in &lines {
        mocha_json::parse(line).expect("every output line is JSON");
    }
    let summary = mocha_json::parse(lines[2]).unwrap();
    assert_eq!(summary.get("completed").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(summary.get("summary").and_then(|v| v.as_bool()), Some(true));
}

/// A malformed request is rejected with the offending line number, a
/// one-line stderr message and exit code 2.
#[test]
fn serve_rejects_bad_requests_with_line_numbers() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"{\"network\": \"nope\"}\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.starts_with("line 1:"), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
}

/// `runtime --obs` exports the observability event stream: every line is a
/// tagged JSON object, all three event kinds are present, and two identical
/// seeded invocations produce byte-identical files.
#[test]
fn runtime_obs_export_is_deterministic_and_well_formed() {
    let dir = std::env::temp_dir();
    let f1 = dir.join("mocha_obs_e2e_1.jsonl");
    let f2 = dir.join("mocha_obs_e2e_2.jsonl");
    for f in [&f1, &f2] {
        let out = mocha_sim(&[
            "runtime",
            "--jobs",
            "3",
            "--load",
            "2.0",
            "--seed",
            "7",
            "--obs",
            f.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
    }
    let a = std::fs::read_to_string(&f1).expect("obs file written");
    let b = std::fs::read_to_string(&f2).expect("obs file written");
    assert!(!a.is_empty());
    assert_eq!(a, b, "two seeded runs must export byte-identical streams");

    let mut kinds = std::collections::BTreeSet::new();
    for line in a.lines() {
        let v = mocha_json::parse(line).expect("every obs line is JSON");
        let kind = v
            .get("event")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| panic!("untagged obs line: {line}"));
        kinds.insert(kind.to_string());
    }
    assert!(kinds.contains("span"), "kinds: {kinds:?}");
    assert!(kinds.contains("counter"), "kinds: {kinds:?}");
    assert!(kinds.contains("hist"), "kinds: {kinds:?}");
    let _ = std::fs::remove_file(f1);
    let _ = std::fs::remove_file(f2);
}

/// `serve --tcp`: a batch connection followed by a `stats` connection. The
/// snapshot must be well-formed JSON whose job counters reconcile with the
/// batch summary: every request was submitted, admitted and finished
/// (`admitted == finished + in_flight`, nothing rejected).
#[test]
fn serve_tcp_stats_snapshot_reconciles_with_the_batch() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve --tcp");
    let mut child_err = BufReader::new(child.stderr.take().expect("stderr"));
    let mut line = String::new();
    child_err.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    // Connection 1: a two-job batch.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(
            b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\n",
        )
        .expect("send batch");
    let mut lines = Vec::new();
    for l in BufReader::new(stream).lines() {
        lines.push(l.expect("read response"));
    }
    assert_eq!(lines.len(), 3, "2 job reports + summary: {lines:?}");
    let summary = mocha_json::parse(&lines[2]).expect("summary JSON");
    assert_eq!(summary.get("completed").and_then(|v| v.as_u64()), Some(2));

    // Connection 2: the stats snapshot.
    let stream = std::net::TcpStream::connect(&addr).expect("connect stats");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"stats\n").expect("send stats");
    let mut reader = BufReader::new(stream);
    let mut snap_line = String::new();
    reader.read_line(&mut snap_line).expect("read snapshot");
    child.kill().expect("kill server");
    let _ = child.wait();

    let snap = mocha_json::parse(snap_line.trim()).expect("snapshot is JSON");
    let jobs = snap.get("jobs").expect("jobs block");
    let get = |k: &str| jobs.get(k).and_then(|v| v.as_u64()).expect(k);
    assert_eq!(get("submitted"), 2);
    assert_eq!(get("admitted"), 2);
    assert_eq!(get("rejected"), 0);
    assert_eq!(get("admitted"), get("finished") + get("in_flight"));
    let counters = snap.get("counters").expect("counters block");
    let counter = |k: &str| counters.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    assert_eq!(counter("serve.requests"), 2);
    assert_eq!(counter("serve.batches"), 1);
    assert_eq!(counter("runtime.jobs_finished"), 2);
    assert!(snap.get("hists").is_some());
    assert!(snap.get("spans").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
}

/// `--obs -` keeps stdout pure for pipelines: every stdout line is a
/// tagged obs event, and the human report moves to stderr intact.
#[test]
fn obs_dash_streams_events_on_stdout_and_the_report_on_stderr() {
    let out = mocha_sim(&[
        "runtime", "--jobs", "2", "--load", "2.0", "--seed", "7", "--obs", "-",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let events = stdout(&out);
    assert!(!events.is_empty());
    for line in events.lines() {
        let v = mocha_json::parse(line).unwrap_or_else(|e| panic!("bad obs line {line:?}: {e}"));
        assert!(v.get("event").is_some(), "untagged line: {line}");
    }
    let report = stderr(&out);
    for needle in ["job", "latency", "throughput", "GOPS/W"] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }

    // `simulate --obs -` keeps the same contract.
    let out = mocha_sim(&["simulate", "tiny", "--obs", "-", "--no-verify"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    for line in stdout(&out).lines() {
        mocha_json::parse(line).unwrap_or_else(|e| panic!("bad obs line {line:?}: {e}"));
    }
    assert!(stderr(&out).contains("tiny"), "stderr: {}", stderr(&out));
}

/// The analysis loop: `runtime --obs` → `trace summary` / `trace export`.
/// Summaries, profile JSON and Chrome exports are byte-identical across two
/// identical seeded runs, and the Chrome export is one well-formed JSON
/// document with complete ("X") events.
#[test]
fn trace_summary_and_export_are_deterministic() {
    let dir = std::env::temp_dir();
    let mut summaries = Vec::new();
    let mut profiles = Vec::new();
    let mut chromes = Vec::new();
    for i in 0..2 {
        let obs = dir.join(format!("mocha_trace_e2e_{i}.jsonl"));
        let chrome = dir.join(format!("mocha_trace_e2e_{i}.chrome.json"));
        let out = mocha_sim(&[
            "runtime",
            "--jobs",
            "3",
            "--load",
            "2.0",
            "--seed",
            "7",
            "--obs",
            obs.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));

        let summary = mocha_sim(&["trace", "summary", obs.to_str().unwrap()]);
        assert!(summary.status.success(), "stderr: {}", stderr(&summary));
        summaries.push(stdout(&summary));

        let profile = mocha_sim(&["trace", "summary", obs.to_str().unwrap(), "--json"]);
        assert!(profile.status.success(), "stderr: {}", stderr(&profile));
        profiles.push(stdout(&profile));

        let export = mocha_sim(&[
            "trace",
            "export",
            obs.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
        ]);
        assert!(export.status.success(), "stderr: {}", stderr(&export));
        chromes.push(std::fs::read_to_string(&chrome).expect("chrome export written"));
        let _ = std::fs::remove_file(obs);
        let _ = std::fs::remove_file(chrome);
    }
    assert_eq!(summaries[0], summaries[1], "summary must be byte-stable");
    assert_eq!(profiles[0], profiles[1], "profile JSON must be byte-stable");
    assert_eq!(chromes[0], chromes[1], "chrome export must be byte-stable");

    let text = &summaries[0];
    for needle in ["makespan", "critical path", "overlap", "energy", "p95"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let chrome = mocha_json::parse(&chromes[0]).expect("chrome export is JSON");
    let events = chrome
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
}

/// `trace summary -` reads the stream from stdin, so
/// `runtime --obs - | trace summary -` works as a single pipeline.
#[test]
fn trace_summary_reads_stdin() {
    let run = mocha_sim(&[
        "runtime", "--jobs", "2", "--load", "2.0", "--seed", "7", "--obs", "-",
    ]);
    assert!(run.status.success());
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["trace", "summary", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trace summary -");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(&run.stdout)
        .expect("pipe stream");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("2 job(s)"), "got:\n{}", stdout(&out));
}

/// Malformed or truncated trace input exits 2 with a one-line stderr
/// message naming the offending line — never a panic, never partial output.
#[test]
fn trace_rejects_malformed_input_with_a_line_number() {
    let dir = std::env::temp_dir();
    let bad = dir.join("mocha_trace_e2e_bad.jsonl");
    std::fs::write(
        &bad,
        "{\"event\":\"span\",\"path\":\"a\",\"start\":0,\"end\":5}\nnot json\n",
    )
    .expect("write bad stream");
    let truncated = dir.join("mocha_trace_e2e_trunc.jsonl");
    std::fs::write(
        &truncated,
        "{\"event\":\"counter\",\"name\":\"x\",\"value\":1}\n{\"event\":\"span\",\"pa",
    )
    .expect("write truncated stream");

    for (file, line) in [(&bad, "line 2:"), (&truncated, "line 2:")] {
        for action in [&["trace", "summary"][..], &["trace", "diff"][..]] {
            let mut args: Vec<&str> = action.to_vec();
            args.push(file.to_str().unwrap());
            if action[1] == "diff" {
                args.push(file.to_str().unwrap());
            }
            let out = mocha_sim(&args);
            assert_eq!(out.status.code(), Some(2), "args: {args:?}");
            let err = stderr(&out);
            assert_eq!(err.lines().count(), 1, "stderr: {err}");
            assert!(err.contains(line), "stderr: {err}");
            assert!(stdout(&out).is_empty(), "partial stdout: {}", stdout(&out));
        }
    }
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(truncated);
}

/// The regression gate: a profile diffed against its own stream passes with
/// exit 0; a clearly different run trips `--fail-on-regression` with exit 1
/// (distinct from the exit-2 usage/input contract).
#[test]
fn trace_diff_gates_regressions() {
    let dir = std::env::temp_dir();
    let obs = dir.join("mocha_trace_e2e_gate.jsonl");
    let baseline = dir.join("mocha_trace_e2e_gate.profile.json");
    let run = mocha_sim(&[
        "runtime",
        "--jobs",
        "3",
        "--load",
        "2.0",
        "--seed",
        "7",
        "--obs",
        obs.to_str().unwrap(),
    ]);
    assert!(run.status.success());
    let profile = mocha_sim(&["trace", "summary", obs.to_str().unwrap(), "--json"]);
    assert!(profile.status.success());
    std::fs::write(&baseline, profile.stdout).expect("write baseline");

    // Saved profile vs the stream it came from: no deltas, exit 0.
    let clean = mocha_sim(&[
        "trace",
        "diff",
        baseline.to_str().unwrap(),
        obs.to_str().unwrap(),
        "--fail-on-regression",
        "0",
    ]);
    assert!(clean.status.success(), "stderr: {}", stderr(&clean));
    assert!(stdout(&clean).contains("makespan_cycles"));
    assert!(!stdout(&clean).contains("FAIL"));

    // A heavier run against the same baseline must trip the gate.
    let obs2 = dir.join("mocha_trace_e2e_gate2.jsonl");
    let run2 = mocha_sim(&[
        "runtime",
        "--jobs",
        "6",
        "--load",
        "2.0",
        "--seed",
        "7",
        "--obs",
        obs2.to_str().unwrap(),
    ]);
    assert!(run2.status.success());
    let gated = mocha_sim(&[
        "trace",
        "diff",
        baseline.to_str().unwrap(),
        obs2.to_str().unwrap(),
        "--fail-on-regression",
        "5",
    ]);
    assert_eq!(gated.status.code(), Some(1), "stderr: {}", stderr(&gated));
    assert!(stdout(&gated).contains("FAIL"));
    assert!(
        stderr(&gated).starts_with("regression:"),
        "stderr: {}",
        stderr(&gated)
    );
    assert_eq!(stderr(&gated).lines().count(), 1);
    let _ = std::fs::remove_file(obs);
    let _ = std::fs::remove_file(obs2);
    let _ = std::fs::remove_file(baseline);
}

/// Unknown subcommands fail with a single-line stderr message and exit
/// code 2 — no usage dump to scrape around.
#[test]
fn unknown_subcommand_is_a_one_line_error() {
    let out = mocha_sim(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    assert!(err.contains("frobnicate"), "stderr: {err}");
    assert!(stdout(&out).is_empty());
}

/// Unknown options and stray positionals are rejected per subcommand.
#[test]
fn unknown_flags_and_stray_arguments_exit_nonzero() {
    for args in [
        &["runtime", "--bogus", "3"][..],
        &["serve", "--jobs", "4"][..],
        &["simulate", "tiny", "extra"][..],
        &["networks", "tiny"][..],
        &["area", "--sparsity", "0.5"][..],
    ] {
        let out = mocha_sim(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert_eq!(stderr(&out).lines().count(), 1, "args: {args:?}");
    }
}

/// Invalid option *values* (not just unknown keys) are also exit code 2.
#[test]
fn invalid_option_values_exit_nonzero() {
    for args in [
        &["runtime", "--policy", "greedy"][..],
        &["runtime", "--mix", "heavy"][..],
        &["runtime", "--load", "-1"][..],
        &["runtime", "--max-tenants", "0"][..],
    ] {
        let out = mocha_sim(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

/// No arguments prints usage to stderr and exits 2 (stdout stays clean for
/// pipelines); `help` prints the same usage to stdout and exits 0.
#[test]
fn bare_invocation_is_an_error_but_help_is_not() {
    let bare = mocha_sim(&[]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(stdout(&bare).is_empty());
    assert!(stderr(&bare).contains("USAGE"));

    let help = mocha_sim(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));
    assert!(stdout(&help).contains("mocha-sim serve"));
}

/// Every `--option` token in `text`, in order of appearance.
fn option_tokens(text: &str) -> Vec<&str> {
    text.match_indices("--")
        .map(|(i, _)| {
            let rest = &text[i + 2..];
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty() && !name.starts_with('-'))
        .collect()
}

/// Every option `serve --open-loop`'s strict allowlist admits, in
/// single-fabric or fleet mode, is listed in its `help` entry. The
/// allowlist is probed through the binary: each option the help text
/// mentions anywhere is passed with a stray positional, so strict parsing
/// rejects the line before any work runs, naming the option only when it
/// is not on the list.
#[test]
fn help_lists_every_open_loop_option() {
    let help = stdout(&mocha_sim(&["help"]));
    let entry = help
        .split("mocha-sim serve --open-loop")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("help has a serve --open-loop entry");
    let listed = option_tokens(entry);
    let mut candidates = option_tokens(&help);
    candidates.sort_unstable();
    candidates.dedup();
    let mut admitted = 0;
    for name in candidates {
        let flag = format!("--{name}");
        for mode in [&[][..], &["--fleet", "preset=quad"][..]] {
            let mut args = vec!["serve", "--open-loop", flag.as_str(), "x"];
            args.extend_from_slice(mode);
            args.push("stray");
            let out = mocha_sim(&args);
            assert_eq!(out.status.code(), Some(2), "args: {args:?}");
            if stderr(&out).contains("unknown option") {
                continue;
            }
            admitted += 1;
            assert!(
                listed.contains(&name),
                "serve --open-loop admits {flag} (args {args:?}) but its help entry omits it"
            );
        }
    }
    // The probe must separate admitted options from rejected ones: the 17
    // options both modes share are admitted twice.
    assert!(
        admitted >= 2 * 17,
        "only {admitted} (option, mode) pairs admitted"
    );
    let jobs = mocha_sim(&["serve", "--open-loop", "--jobs", "3", "stray"]);
    assert!(stderr(&jobs).contains("unknown option --jobs"));
}

/// The determinism matrix: the same seeded workload at `--threads 1`, `2`
/// and `8` must produce byte-identical reports AND byte-identical obs
/// streams. Parallelism is an execution detail — the engine reduces in
/// canonical order, so worker count can never leak into any output.
#[test]
fn thread_count_never_changes_any_byte_of_output() {
    let dir = std::env::temp_dir();
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        let obs = dir.join(format!("mocha_threads_e2e_{threads}.jsonl"));
        let out = mocha_sim(&[
            "runtime",
            "--jobs",
            "4",
            "--load",
            "2.5",
            "--seed",
            "11",
            "--json",
            "--threads",
            threads,
            "--obs",
            obs.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        let obs_bytes = std::fs::read_to_string(&obs).expect("obs file written");
        let _ = std::fs::remove_file(&obs);
        runs.push((threads, stdout(&out), obs_bytes));
    }
    let (_, base_out, base_obs) = &runs[0];
    for (threads, out, obs) in &runs[1..] {
        assert_eq!(
            out, base_out,
            "--threads {threads} report differs from --threads 1"
        );
        assert_eq!(
            obs, base_obs,
            "--threads {threads} obs stream differs from --threads 1"
        );
    }
}

/// `repro r1` — the sharded experiment sweep — is byte-identical across
/// thread counts too (the ISSUE acceptance criterion, end to end).
#[test]
fn repro_r1_is_byte_identical_across_thread_counts() {
    let mut tables = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = mocha_sim(&["repro", "r1", "--quick", "--threads", threads]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        tables.push((threads, stdout(&out)));
    }
    let (_, base) = &tables[0];
    for (threads, table) in &tables[1..] {
        assert_eq!(table, base, "--threads {threads} table differs");
    }
}

/// `--threads` rejects zero and garbage with the one-line exit-2 contract.
#[test]
fn bad_thread_counts_exit_nonzero() {
    for t in ["0", "-1", "lots", ""] {
        let out = mocha_sim(&["runtime", "--jobs", "1", "--threads", t]);
        assert_eq!(out.status.code(), Some(2), "--threads {t:?}");
        assert_eq!(stderr(&out).lines().count(), 1, "--threads {t:?}");
    }
}

/// Malformed `--faults` specs hit the one-line exit-2 contract on every
/// command that accepts the option: missing rate, bad values, unknown keys
/// and bad modes are all rejected before any work starts.
#[test]
fn malformed_fault_specs_exit_nonzero() {
    for spec in [
        "",
        "rate=",
        "rate=fast",
        "rate=-3",
        "seed=7", // rate is mandatory
        "rate=5,mode=maybe",
        "rate=5,transient=2.0",
        "rate=5,bogus=1",
        "rate=5,seed",
    ] {
        for cmd in [
            &["runtime", "--jobs", "1", "--faults"][..],
            &["simulate", "tiny", "--no-verify", "--faults"][..],
            &["serve", "--faults"][..],
        ] {
            let mut args = cmd.to_vec();
            args.push(spec);
            let out = mocha_sim(&args);
            assert_eq!(out.status.code(), Some(2), "args: {args:?}");
            assert_eq!(
                stderr(&out).lines().count(),
                1,
                "args: {args:?} stderr: {}",
                stderr(&out)
            );
            assert!(stdout(&out).is_empty(), "args: {args:?}");
        }
    }
}

/// `repro` keeps the strict-argument contract around the new r2 experiment:
/// unknown ids and unknown options are one-line exit-2 errors.
#[test]
fn repro_rejects_unknown_ids_and_options() {
    for args in [
        &["repro", "r99"][..],
        &["repro", "r2", "--bogus", "1"][..],
        &["repro", "r2", "--faults", "rate=5"][..],
    ] {
        let out = mocha_sim(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert_eq!(stderr(&out).lines().count(), 1, "args: {args:?}");
    }
}

/// The determinism matrix extended to fault injection: a seeded faulted
/// workload (retries, quarantines and re-morphs in play) still produces
/// byte-identical JSON reports and obs streams at `--threads 1`, `2`, `8`.
#[test]
fn faulted_runtime_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir();
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        let obs = dir.join(format!("mocha_fault_threads_e2e_{threads}.jsonl"));
        let out = mocha_sim(&[
            "runtime",
            "--jobs",
            "8",
            "--load",
            "2.0",
            "--seed",
            "42",
            "--faults",
            "rate=15,seed=9",
            "--json",
            "--threads",
            threads,
            "--obs",
            obs.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        let obs_bytes = std::fs::read_to_string(&obs).expect("obs file written");
        let _ = std::fs::remove_file(&obs);
        runs.push((threads, stdout(&out), obs_bytes));
    }
    let (_, base_out, base_obs) = &runs[0];
    assert!(
        base_obs.contains("fault"),
        "rate 15 must inject at least one fault"
    );
    for (threads, out, obs) in &runs[1..] {
        assert_eq!(
            out, base_out,
            "--threads {threads} faulted report differs from --threads 1"
        );
        assert_eq!(
            obs, base_obs,
            "--threads {threads} faulted obs stream differs from --threads 1"
        );
    }
}

/// `repro r2` — the degradation-curve sweep — is byte-identical across
/// thread counts and carries the headline quarantine-beats-fail-stop note.
#[test]
fn repro_r2_is_byte_identical_across_thread_counts() {
    let mut tables = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = mocha_sim(&["repro", "r2", "--quick", "--threads", threads]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        tables.push((threads, stdout(&out)));
    }
    let (_, base) = &tables[0];
    assert!(
        base.contains("beats fail-stop on goodput AND p99"),
        "headline claim missing:\n{base}"
    );
    for (threads, table) in &tables[1..] {
        assert_eq!(table, base, "--threads {threads} r2 table differs");
    }
}

/// `serve --tcp --faults`: the stats snapshot's job counters reconcile with
/// the fault-aware split (`admitted == finished + failed + in_flight`), and
/// the batch summary reports the retried/failed breakdown.
#[test]
fn serve_tcp_stats_reconciles_under_faults() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--faults",
            "rate=15,seed=9",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve --tcp --faults");
    let mut child_err = BufReader::new(child.stderr.take().expect("stderr"));
    let mut line = String::new();
    child_err.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    // Connection 1: a three-job batch under injected faults.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(
            b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 9000}\n\n",
        )
        .expect("send batch");
    let mut lines = Vec::new();
    for l in BufReader::new(stream).lines() {
        lines.push(l.expect("read response"));
    }
    let summary = mocha_json::parse(lines.last().expect("summary line")).expect("summary JSON");
    assert_eq!(summary.get("summary").and_then(|v| v.as_bool()), Some(true));
    let completed = summary
        .get("completed")
        .and_then(|v| v.as_u64())
        .expect("completed");
    let failed = summary
        .get("failed")
        .and_then(|v| v.as_u64())
        .expect("summary carries the failed count");
    assert!(summary.get("retried").is_some(), "summary: {summary:?}");
    assert_eq!(completed + failed, 3, "every job is accounted for");

    // Connection 2: the stats snapshot must reconcile with that outcome.
    let stream = std::net::TcpStream::connect(&addr).expect("connect stats");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"stats\n").expect("send stats");
    let mut reader = BufReader::new(stream);
    let mut snap_line = String::new();
    reader.read_line(&mut snap_line).expect("read snapshot");
    child.kill().expect("kill server");
    let _ = child.wait();

    let snap = mocha_json::parse(snap_line.trim()).expect("snapshot is JSON");
    let jobs = snap.get("jobs").expect("jobs block");
    let get = |k: &str| jobs.get(k).and_then(|v| v.as_u64()).expect(k);
    assert_eq!(get("submitted"), 3);
    assert_eq!(get("rejected"), 0);
    assert_eq!(get("finished"), completed);
    assert_eq!(get("failed"), failed);
    assert_eq!(
        get("admitted"),
        get("finished") + get("failed") + get("in_flight"),
        "jobs block: {jobs:?}"
    );
}

/// `serve --tcp --shed-policy deadline` with two interleaved clients: the
/// reactor multiplexes both, the doomed request (1-cycle deadline) comes
/// back as an explicit `shed` line, the healthy one runs, and the stats
/// snapshot reconciles the full fate split:
/// `admitted == finished + failed + shed + in_flight`.
#[test]
fn serve_tcp_multi_client_shed_reconciles_in_stats() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve", "--tcp", "127.0.0.1:0", "--shed-policy", "deadline"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve --tcp --shed-policy deadline");
    let mut child_err = BufReader::new(child.stderr.take().expect("stderr"));
    let mut line = String::new();
    child_err.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    // Client A opens its batch but stalls before the terminator; client B
    // connects afterwards with a request that cannot make its 1-cycle
    // deadline and completes first — the reactor must answer B while A is
    // still open.
    let a = std::net::TcpStream::connect(&addr).expect("connect A");
    let mut a_writer = a.try_clone().expect("clone A");
    a_writer
        .write_all(b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n")
        .expect("A first line");

    let b = std::net::TcpStream::connect(&addr).expect("connect B");
    let mut b_writer = b.try_clone().expect("clone B");
    b_writer
        .write_all(b"{\"network\": \"tiny\", \"arrival_cycle\": 10, \"deadline_cycles\": 1}\n\n")
        .expect("B batch");
    let mut b_lines = Vec::new();
    for l in BufReader::new(b).lines() {
        b_lines.push(l.expect("read B response"));
    }
    assert_eq!(b_lines.len(), 2, "shed line + summary: {b_lines:?}");
    let shed = mocha_json::parse(&b_lines[0]).expect("shed line JSON");
    assert_eq!(shed.get("shed").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        shed.get("policy").and_then(|v| v.as_str()),
        Some("deadline")
    );

    // A finishes its batch and still gets its job report.
    a_writer.write_all(b"\n").expect("A terminator");
    let mut a_lines = Vec::new();
    for l in BufReader::new(a).lines() {
        a_lines.push(l.expect("read A response"));
    }
    assert_eq!(a_lines.len(), 2, "job report + summary: {a_lines:?}");
    let summary = mocha_json::parse(&a_lines[1]).expect("summary JSON");
    assert_eq!(summary.get("completed").and_then(|v| v.as_u64()), Some(1));

    // The stats snapshot reconciles the split, shed included.
    let stream = std::net::TcpStream::connect(&addr).expect("connect stats");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"stats\n").expect("send stats");
    let mut reader = BufReader::new(stream);
    let mut snap_line = String::new();
    reader.read_line(&mut snap_line).expect("read snapshot");
    child.kill().expect("kill server");
    let _ = child.wait();

    let snap = mocha_json::parse(snap_line.trim()).expect("snapshot is JSON");
    let jobs = snap.get("jobs").expect("jobs block");
    let get = |k: &str| jobs.get(k).and_then(|v| v.as_u64()).expect(k);
    assert_eq!(get("shed"), 1);
    assert_eq!(get("finished"), 1);
    assert_eq!(get("rejected"), 0);
    assert_eq!(
        get("admitted"),
        get("finished") + get("failed") + get("shed") + get("in_flight"),
        "jobs block: {jobs:?}"
    );
    let counters = snap.get("counters").expect("counters block");
    let counter = |k: &str| counters.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    assert_eq!(counter("serve.requests"), 2);
    assert_eq!(counter("serve.shed"), 1);
    assert_eq!(counter("serve.admitted"), 1);
}

/// The TCP reactor inherits the determinism matrix: the same batch served
/// with `--threads 1`, `2` and `8` produces byte-identical responses.
#[test]
fn serve_reactor_is_byte_identical_across_thread_counts() {
    let mut responses = Vec::new();
    for threads in ["1", "2", "8"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--once",
                "--shed-policy",
                "deadline",
                "--slo",
                "400000",
                "--threads",
                threads,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mocha-sim serve --tcp --once");
        let mut child_err = BufReader::new(child.stderr.take().expect("stderr"));
        let mut line = String::new();
        child_err.read_line(&mut line).expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer
            .write_all(
                b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
                  {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\
                  {\"network\": \"tiny\", \"arrival_cycle\": 8000, \"deadline_cycles\": 1}\n\n",
            )
            .expect("send batch");
        let mut response = String::new();
        use std::io::Read as _;
        BufReader::new(stream)
            .read_to_string(&mut response)
            .expect("read response");
        let _ = child.wait();
        assert!(!response.is_empty(), "--threads {threads}");
        responses.push((threads, response));
    }
    let (_, base) = &responses[0];
    assert!(base.contains("\"shed\":true"), "response: {base}");
    for (threads, response) in &responses[1..] {
        assert_eq!(response, base, "--threads {threads} response differs");
    }
}

/// Protocol hardening: an oversized request line is rejected before any
/// unbounded buffering — one-line stderr, exit 2 on stdin.
#[test]
fn oversized_request_lines_exit_nonzero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve");
    let huge = vec![b'x'; 80 * 1024];
    let mut stdin = child.stdin.take().expect("stdin");
    // The server may cut the pipe as soon as the cap trips; ignore EPIPE.
    let _ = stdin.write_all(&huge);
    let _ = stdin.write_all(b"\n");
    drop(stdin);
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("exceeds"), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
}

/// CRLF and whitespace-only lines terminate a batch exactly like a bare
/// blank line (clients on other platforms speak the same protocol).
#[test]
fn crlf_and_whitespace_lines_terminate_batches() {
    for terminator in ["\r\n", "   \n", "\t\r\n"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
            .args(["serve"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mocha-sim serve");
        let batch = format!(
            "{}\r\n{}",
            "{\"network\": \"tiny\", \"seed\": 3}", terminator
        );
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(batch.as_bytes())
            .expect("write batch");
        let out = child.wait_with_output().expect("wait");
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert_eq!(
            text.lines().count(),
            2,
            "terminator {terminator:?}: 1 job report + summary:\n{text}"
        );
    }
}

/// A replayed trace whose cycle counts a JSON number cannot carry exactly
/// (near `u64::MAX`, where the queueing engine's cycle sums would overflow)
/// is refused up front: exit 2, one stderr line naming the trace line, and
/// no panic.
#[test]
fn trace_replay_rejects_cycles_beyond_exact_json_integers() {
    let path = std::env::temp_dir().join("mocha_trace_huge_cycles_e2e.jsonl");
    for line in [
        r#"{"network":"tiny","arrival_cycle":18446744073709551000}"#,
        r#"{"network":"tiny","arrival_cycle":5,"deadline_cycles":18446744073709551000}"#,
    ] {
        std::fs::write(&path, format!("{{\"network\":\"tiny\"}}\n{line}\n")).expect("write");
        let out = mocha_sim(&["serve", "--open-loop", "--trace", path.to_str().unwrap()]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{line}: stderr: {err}");
        assert_eq!(err.lines().count(), 1, "{line}: stderr: {err}");
        assert!(err.contains("trace line 2:"), "{line}: stderr: {err}");
        assert!(!err.contains("panicked"), "{line}: stderr: {err}");
        assert!(stdout(&out).is_empty(), "{line}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Bad `--shed-policy` and `--slo` values keep the one-line exit-2
/// contract on both serve modes.
#[test]
fn bad_shed_policies_exit_nonzero() {
    for args in [
        &["serve", "--shed-policy", "bogus"][..],
        &["serve", "--shed-policy", "queue="][..],
        &["serve", "--shed-policy", "queue=x"][..],
        &["serve", "--slo", "soon"][..],
        &["serve", "--open-loop", "--shed-policy", "bogus"][..],
        &["serve", "--open-loop", "--load", "-2"][..],
        &["serve", "--open-loop", "--tenants", "0"][..],
        &[
            "serve",
            "--open-loop",
            "--trace",
            "/nonexistent/trace.jsonl",
        ][..],
    ] {
        let out = mocha_sim(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert_eq!(
            stderr(&out).lines().count(),
            1,
            "args: {args:?} stderr: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "args: {args:?}");
    }
}

/// `serve --open-loop --json` joins the determinism matrix: byte-identical
/// reports at `--threads 1`, `2`, `8`, and a generated trace replayed from
/// a file reproduces the generated run exactly.
#[test]
fn serve_open_loop_is_byte_identical_across_thread_counts_and_replay() {
    let base_args = [
        "serve",
        "--open-loop",
        "--requests",
        "3000",
        "--tenants",
        "120",
        "--load",
        "3.0",
        "--seed",
        "11",
        "--slo",
        "400000",
        "--shed-policy",
        "deadline",
        "--json",
    ];
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        let mut args = base_args.to_vec();
        args.extend(["--threads", threads]);
        let out = mocha_sim(&args);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        runs.push((threads, stdout(&out)));
    }
    let (_, base) = &runs[0];
    let report = mocha_json::parse(base.trim()).expect("report JSON");
    assert!(
        report.get("shed").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "load 3.0 must shed: {base}"
    );
    for (threads, run) in &runs[1..] {
        assert_eq!(run, base, "--threads {threads} open-loop report differs");
    }

    // Replaying the same trace from a file reproduces the generated run.
    let trace_cfg = mocha::serve::traffic::OpenLoopConfig {
        requests: 3000,
        tenants: 120,
        load: 3.0,
        seed: 11,
        mix: mocha::runtime::Mix::Quick,
        slo: Some(400_000),
    };
    let trace = mocha::serve::traffic::generate(&trace_cfg);
    let path = std::env::temp_dir().join("mocha_openloop_replay_e2e.jsonl");
    std::fs::write(&path, mocha::serve::traffic::to_jsonl(&trace)).expect("write trace");
    let out = mocha_sim(&[
        "serve",
        "--open-loop",
        "--trace",
        path.to_str().unwrap(),
        "--slo",
        "400000",
        "--shed-policy",
        "deadline",
        "--json",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), *base, "replayed trace must reproduce the run");
}

/// Drops the `cache.*` counter lines from an obs stream — the only delta a
/// cache-enabled run is allowed to introduce.
fn strip_cache_lines(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| !l.contains("\"cache."))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The determinism matrix extended to the morph-decision cache: `runtime
/// --cache` must reproduce the uncached JSON report byte-for-byte at
/// `--threads 1`, `2`, `8`, the obs stream may differ only in its `cache.*`
/// counter lines, and the cache-enabled stream itself is byte-identical at
/// every worker count.
#[test]
fn cached_runtime_is_byte_identical_to_uncached_across_thread_counts() {
    let dir = std::env::temp_dir();
    let base_args = [
        "runtime", "--jobs", "4", "--load", "2.5", "--seed", "11", "--json",
    ];

    let obs = dir.join("mocha_cache_e2e_off.jsonl");
    let mut args = base_args.to_vec();
    args.extend(["--obs", obs.to_str().unwrap()]);
    let out = mocha_sim(&args);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let off_report = stdout(&out);
    let off_obs = std::fs::read_to_string(&obs).expect("obs file written");
    let _ = std::fs::remove_file(&obs);
    assert!(
        !off_obs.contains("\"cache."),
        "uncached run must record no cache counters"
    );

    let mut cached_streams = Vec::new();
    for threads in ["1", "2", "8"] {
        let obs = dir.join(format!("mocha_cache_e2e_on_{threads}.jsonl"));
        let mut args = base_args.to_vec();
        args.extend([
            "--cache",
            "--threads",
            threads,
            "--obs",
            obs.to_str().unwrap(),
        ]);
        let out = mocha_sim(&args);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            off_report,
            "--threads {threads} cached report differs from uncached"
        );
        let on_obs = std::fs::read_to_string(&obs).expect("obs file written");
        let _ = std::fs::remove_file(&obs);
        assert!(
            on_obs.contains("\"cache."),
            "--threads {threads}: cached run recorded no cache counters"
        );
        assert_eq!(
            strip_cache_lines(&on_obs),
            off_obs,
            "--threads {threads} obs stream differs beyond cache.* lines"
        );
        cached_streams.push((threads, on_obs));
    }
    let (_, base) = &cached_streams[0];
    for (threads, obs) in &cached_streams[1..] {
        assert_eq!(
            obs, base,
            "--threads {threads} cached obs stream differs from --threads 1"
        );
    }
}

/// `repro r1/r2/r3 --cache` replays the uncached experiment tables
/// byte-for-byte at every thread count: memoized morph decisions can never
/// leak into a result.
#[test]
fn cached_repro_tables_match_uncached_across_thread_counts() {
    for id in ["r1", "r2", "r3"] {
        let base = mocha_sim(&["repro", id, "--quick", "--threads", "2"]);
        assert!(base.status.success(), "{id} stderr: {}", stderr(&base));
        let base_table = stdout(&base);
        for threads in ["1", "2", "8"] {
            let out = mocha_sim(&["repro", id, "--quick", "--threads", threads, "--cache"]);
            assert!(
                out.status.success(),
                "{id} --threads {threads} stderr: {}",
                stderr(&out)
            );
            assert_eq!(
                stdout(&out),
                base_table,
                "{id} --threads {threads} cached table differs from uncached"
            );
        }
    }
}

/// `serve --open-loop --cache` joins the matrix too: the calibrated report
/// is byte-identical to the uncached run at every thread count.
#[test]
fn cached_open_loop_report_matches_uncached_across_thread_counts() {
    let base_args = [
        "serve",
        "--open-loop",
        "--requests",
        "2000",
        "--tenants",
        "100",
        "--load",
        "3.0",
        "--seed",
        "7",
        "--slo",
        "400000",
        "--shed-policy",
        "deadline",
        "--json",
    ];
    let base = mocha_sim(&base_args);
    assert!(base.status.success(), "stderr: {}", stderr(&base));
    let base_report = stdout(&base);
    for threads in ["1", "2", "8"] {
        let mut args = base_args.to_vec();
        args.extend(["--cache", "--threads", threads]);
        let out = mocha_sim(&args);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            base_report,
            "--threads {threads} cached open-loop report differs"
        );
    }
}

/// `serve --tcp --cache` cold vs warm: the first batch fills the cache, an
/// identical second batch hits it, and every `stats` snapshot reconciles
/// `cache.hit + cache.miss == cache.decisions` — while both batches answer
/// with byte-identical job reports.
#[test]
fn serve_tcp_cache_stats_reconcile_cold_and_warm() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve", "--tcp", "127.0.0.1:0", "--cache"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve --tcp --cache");
    let mut child_err = BufReader::new(child.stderr.take().expect("stderr"));
    let mut line = String::new();
    child_err.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    let batch = b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
                  {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\n";
    let send_batch = || {
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(batch).expect("send batch");
        let mut lines = Vec::new();
        for l in BufReader::new(stream).lines() {
            lines.push(l.expect("read response"));
        }
        lines
    };
    let stats = || {
        let stream = std::net::TcpStream::connect(&addr).expect("connect stats");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(b"stats\n").expect("send stats");
        let mut reader = BufReader::new(stream);
        let mut snap_line = String::new();
        reader.read_line(&mut snap_line).expect("read snapshot");
        mocha_json::parse(snap_line.trim()).expect("snapshot is JSON")
    };
    let cache_counters = |snap: &mocha_json::Value| -> (u64, u64, u64) {
        let counters = snap.get("counters").expect("counters block");
        let c = |k: &str| counters.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        (c("cache.hit"), c("cache.miss"), c("cache.decisions"))
    };

    // Cold batch: every decision is a miss, but the counters reconcile.
    let cold_lines = send_batch();
    assert_eq!(
        cold_lines.len(),
        3,
        "2 job reports + summary: {cold_lines:?}"
    );
    let cold_snap = stats();
    let (h1, m1, d1) = cache_counters(&cold_snap);
    assert!(
        d1 > 0,
        "cold batch never consulted the cache: {cold_snap:?}"
    );
    assert_eq!(h1 + m1, d1, "cold snapshot: hit + miss != decisions");

    // Warm batch: identical requests replay identical reports via the
    // shared cache, hits grow, and the snapshot still reconciles.
    let warm_lines = send_batch();
    let warm_snap = stats();
    child.kill().expect("kill server");
    let _ = child.wait();
    assert_eq!(
        warm_lines, cold_lines,
        "warm batch answered differently from the cold batch"
    );
    let (h2, m2, d2) = cache_counters(&warm_snap);
    assert_eq!(h2 + m2, d2, "warm snapshot: hit + miss != decisions");
    assert!(d2 > d1, "warm batch never consulted the cache");
    assert!(h2 > h1, "warm batch did not hit the shared decision cache");
}

/// Malformed `--metrics-window` specs and broken `--metrics-window` /
/// `--metrics` pairings hit the one-line exit-2 contract on every command
/// that accepts them, before any work starts.
#[test]
fn malformed_metrics_flags_exit_nonzero() {
    // Bad window specs on every accepting command.
    for spec in [
        "bogus",
        "0",
        "tumbling:",
        "rolling:100",
        "rolling:100/0",
        "rolling:100/200",
        "rolling:100/33",
    ] {
        for cmd in [
            &[
                "runtime",
                "--jobs",
                "1",
                "--metrics",
                "/tmp/m.jsonl",
                "--metrics-window",
            ][..],
            &["serve", "--metrics-window"][..],
            &[
                "serve",
                "--open-loop",
                "--requests",
                "1",
                "--metrics",
                "/tmp/m.jsonl",
                "--metrics-window",
            ][..],
        ] {
            let mut args = cmd.to_vec();
            args.push(spec);
            let out = mocha_sim(&args);
            assert_eq!(out.status.code(), Some(2), "args: {args:?}");
            let err = stderr(&out);
            assert_eq!(err.lines().count(), 1, "args: {args:?} stderr: {err}");
            assert!(
                err.contains("bad window spec"),
                "args: {args:?} stderr: {err}"
            );
            assert!(stdout(&out).is_empty(), "args: {args:?}");
        }
    }
    // Export flags come as a pair; `-` is reserved for `--obs`.
    for args in [
        &["runtime", "--jobs", "1", "--metrics-window", "1000"][..],
        &["runtime", "--jobs", "1", "--metrics", "/tmp/m.jsonl"][..],
        &[
            "runtime",
            "--jobs",
            "1",
            "--metrics-window",
            "1000",
            "--metrics",
            "-",
        ][..],
        &["serve", "--open-loop", "--metrics-window", "1000"][..],
        &["serve", "--open-loop", "--metrics", "/tmp/m.jsonl"][..],
    ] {
        let out = mocha_sim(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert_eq!(
            stderr(&out).lines().count(),
            1,
            "args: {args:?} stderr: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "args: {args:?}");
    }
}

/// `runtime --metrics` exports the windowed JSONL stream: tagged lines,
/// a `window_spec` header, per-window counters and histogram summaries —
/// byte-identical across two identical seeded runs.
#[test]
fn runtime_metrics_export_is_deterministic_and_well_formed() {
    let dir = std::env::temp_dir();
    let mut exports = Vec::new();
    for i in 0..2 {
        let f = dir.join(format!("mocha_metrics_e2e_{i}.jsonl"));
        let out = mocha_sim(&[
            "runtime",
            "--jobs",
            "4",
            "--load",
            "2.5",
            "--seed",
            "11",
            "--metrics-window",
            "200000",
            "--metrics",
            f.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        exports.push(std::fs::read_to_string(&f).expect("metrics file written"));
        let _ = std::fs::remove_file(&f);
    }
    assert_eq!(exports[0], exports[1], "metrics export must be byte-stable");
    let mut kinds = std::collections::BTreeSet::new();
    for line in exports[0].lines() {
        let v = mocha_json::parse(line).expect("every metrics line is JSON");
        kinds.insert(
            v.get("event")
                .and_then(|e| e.as_str())
                .unwrap_or_else(|| panic!("untagged metrics line: {line}"))
                .to_string(),
        );
    }
    for kind in ["window_spec", "window", "whist"] {
        assert!(kinds.contains(kind), "kinds: {kinds:?}");
    }

    // `trace summary` distils the export into the per-window tail table.
    let obs = dir.join("mocha_metrics_e2e_sum.jsonl");
    let metrics = dir.join("mocha_metrics_e2e_sum.metrics.jsonl");
    let out = mocha_sim(&[
        "runtime",
        "--jobs",
        "4",
        "--load",
        "2.5",
        "--seed",
        "11",
        "--obs",
        obs.to_str().unwrap(),
        "--metrics-window",
        "200000",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let mut joined = std::fs::read_to_string(&obs).expect("obs written");
    joined.push_str(&std::fs::read_to_string(&metrics).expect("metrics written"));
    let both = dir.join("mocha_metrics_e2e_sum.both.jsonl");
    std::fs::write(&both, &joined).expect("write joined stream");
    let summary = mocha_sim(&["trace", "summary", both.to_str().unwrap()]);
    assert!(summary.status.success(), "stderr: {}", stderr(&summary));
    let text = stdout(&summary);
    assert!(text.contains("windowed:"), "summary:\n{text}");
    assert!(text.contains("p99"), "summary:\n{text}");
    for f in [obs, metrics, both] {
        let _ = std::fs::remove_file(f);
    }
}

/// Satellite: with a shed policy active, the `stats` snapshot's `hists`
/// block carries nearest-rank percentiles for the admission-control
/// histograms (queue depth at arrival, shed slack).
#[test]
fn serve_stats_hists_carry_admission_percentiles() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve", "--shed-policy", "deadline", "--slo", "400000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 8000, \"deadline_cycles\": 1}\n\n\
              stats\n",
        )
        .expect("write batch + stats query");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let snap_line = text.lines().last().expect("stats line");
    let snap = mocha_json::parse(snap_line).expect("snapshot is JSON");
    let hists = snap.get("hists").expect("hists block");
    for name in ["serve.queue_depth", "serve.shed_slack_cycles"] {
        let h = hists
            .get(name)
            .unwrap_or_else(|| panic!("missing {name} in {hists:?}"));
        for key in ["count", "p50", "p95", "p99"] {
            assert!(h.get(key).is_some(), "{name} missing {key}: {h:?}");
        }
        assert!(
            h.get("count").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "{name} recorded no samples: {h:?}"
        );
    }
}

/// The live `metrics` query over stdin: after a served batch, the response
/// is a Prometheus-style exposition followed by one JSON snapshot line,
/// and the snapshot's counters reconcile with the batch.
#[test]
fn serve_stdin_metrics_query_returns_exposition_and_snapshot() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args([
            "serve",
            "--shed-policy",
            "deadline",
            "--slo",
            "400000",
            "--metrics-window",
            "100000",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\
              {\"network\": \"tiny\", \"arrival_cycle\": 8000, \"deadline_cycles\": 1}\n\n\
              metrics\n",
        )
        .expect("write batch + metrics query");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.lines().any(|l| l.starts_with("# TYPE mocha_")),
        "no exposition TYPE lines:\n{text}"
    );
    assert!(
        text.contains("mocha_serve_requests"),
        "missing serve.requests metric:\n{text}"
    );
    let snap_line = text
        .lines()
        .filter(|l| l.starts_with('{'))
        .find(|l| {
            mocha_json::parse(l)
                .ok()
                .and_then(|v| v.get("metrics").and_then(|m| m.as_bool()))
                == Some(true)
        })
        .unwrap_or_else(|| panic!("no snapshot line in:\n{text}"));
    let snap = mocha_json::parse(snap_line).expect("snapshot is JSON");
    let counters = snap
        .get("counters")
        .and_then(|v| v.as_arr())
        .expect("counters");
    let total: u64 = counters
        .iter()
        .filter(|c| c.get("name").and_then(|n| n.as_str()) == Some("serve.requests"))
        .filter_map(|c| c.get("value").and_then(|v| v.as_u64()))
        .sum();
    assert_eq!(total, 3, "every request lands in a window: {snap_line}");
    let slo = snap.get("slo").expect("slo block (deadline policy active)");
    assert!(slo.get("burn_slow").is_some(), "slo block: {slo:?}");

    // Without `--metrics-window` the query answers with a one-line error
    // instead of an exposition — and the server stays up.
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"metrics\n{\"network\": \"tiny\", \"seed\": 3}\n\n")
        .expect("write query + batch");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let first = text.lines().next().expect("error line");
    let err = mocha_json::parse(first).expect("error line is JSON");
    assert!(
        err.get("error")
            .and_then(|v| v.as_str())
            .is_some_and(|m| m.contains("--metrics-window")),
        "error line: {first}"
    );
    assert!(text.lines().count() > 1, "batch still served:\n{text}");
}

/// The scripted serve session behind `baselines/metrics-smoke.json` (see
/// ci.sh for the regeneration command): the snapshot's counter and hist
/// name set must equal the baseline's, and its four burn-rate fields must
/// be present and within 5 % (+1e-9) of the baseline.
#[test]
fn serve_metrics_snapshot_matches_the_committed_baseline() {
    let out = mocha_sim_stdin(
        &[
            "serve",
            "--shed-policy",
            "deadline",
            "--slo",
            "400000",
            "--metrics-window",
            "100000",
        ],
        b"{\"network\": \"tiny\", \"profile\": \"sparse\", \"seed\": 3}\n\
          {\"network\": \"tiny\", \"arrival_cycle\": 4000}\n\
          {\"network\": \"tiny\", \"arrival_cycle\": 8000, \"deadline_cycles\": 1}\n\n\
          metrics\n",
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let snap_line = text
        .lines()
        .find(|l| l.contains("\"metrics\":true"))
        .unwrap_or_else(|| panic!("no snapshot line in:\n{text}"));
    let snap = mocha_json::parse(snap_line).expect("snapshot is JSON");
    let base = mocha_bench::baseline::load("metrics-smoke.json").unwrap();
    let names = |v: &mocha_json::Value| -> std::collections::BTreeSet<String> {
        ["counters", "hists"]
            .iter()
            .flat_map(|k| v.get(k).and_then(|a| a.as_arr()).expect(k))
            .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_string))
            .collect()
    };
    assert_eq!(names(&snap), names(&base), "name set diverged");
    let (slo, base_slo) = (snap.get("slo").expect("slo"), base.get("slo").unwrap());
    for k in ["burn_fast", "burn_slow", "peak_burn_fast", "peak_burn_slow"] {
        mocha_bench::baseline::within(slo, base_slo, k, 0.05).unwrap();
    }
}

/// `repro r3` — the open-loop serving sweep — is byte-identical across
/// thread counts and carries the headline shedding-beats-queueing note.
#[test]
fn repro_r3_is_byte_identical_across_thread_counts() {
    let mut tables = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = mocha_sim(&["repro", "r3", "--quick", "--threads", threads]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        tables.push((threads, stdout(&out)));
    }
    let (_, base) = &tables[0];
    assert!(
        base.contains("beats unbounded queueing on goodput AND p99"),
        "headline claim missing:\n{base}"
    );
    assert!(
        base.contains("fires before the goodput knee"),
        "windowed burn-rate claim missing:\n{base}"
    );
    for (threads, table) in &tables[1..] {
        assert_eq!(table, base, "--threads {threads} r3 table differs");
    }
}

/// Malformed `--fleet` / `--route` specs follow the scriptable error
/// contract everywhere they are accepted: exit code 2, exactly one stderr
/// line, nothing on stdout — the same shape as `--faults`.
#[test]
fn malformed_fleet_specs_exit_nonzero() {
    for spec in [
        "",
        "/",
        "preset=quad/",
        "preset=warp",
        "grid",
        "grid=fast",
        "grid=0",
        "grid=65",
        "count=0",
        "banks=4,bogus=1",
        "count=65",          // single instance past MAX_SHARDS
        "count=40/count=40", // total past MAX_SHARDS
    ] {
        for cmd in [
            &["fleet", "--fleet"][..],
            &["fleet", "--open-loop", "--requests", "10", "--fleet"][..],
            &["serve", "--open-loop", "--requests", "10", "--fleet"][..],
        ] {
            let mut args = cmd.to_vec();
            args.push(spec);
            let out = mocha_sim(&args);
            assert_eq!(out.status.code(), Some(2), "args: {args:?}");
            assert_eq!(
                stderr(&out).lines().count(),
                1,
                "args: {args:?} stderr: {}",
                stderr(&out)
            );
            assert!(stdout(&out).is_empty(), "args: {args:?}");
        }
    }
    for route in ["", "fastest", "p3c", "roundrobin"] {
        for cmd in [
            &["fleet", "--route"][..],
            &["fleet", "--open-loop", "--requests", "10", "--route"][..],
            &["serve", "--open-loop", "--requests", "10", "--route"][..],
        ] {
            let mut args = cmd.to_vec();
            args.push(route);
            let out = mocha_sim(&args);
            assert_eq!(out.status.code(), Some(2), "args: {args:?}");
            assert_eq!(stderr(&out).lines().count(), 1, "args: {args:?}");
            assert!(stdout(&out).is_empty(), "args: {args:?}");
        }
    }
}

/// The fleet property pair, end to end: routing is deterministic (the JSON
/// report and obs stream replay byte-identical at `--threads 1`, `2`, `8`)
/// and conserves jobs — every admitted request is accounted for in
/// per-shard tallies, with migrations balancing out fleet-wide.
#[test]
fn fleet_open_loop_conserves_jobs_and_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir();
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        let obs = dir.join(format!("mocha_sim_fleet_e2e_{threads}.jsonl"));
        let out = mocha_sim(&[
            "fleet",
            "--open-loop",
            "--fleet",
            "preset=quad/preset=mocha,count=2",
            "--route",
            "p2c",
            "--requests",
            "2000",
            "--tenants",
            "100",
            "--load",
            "3.0",
            "--seed",
            "11",
            "--slo",
            "2000000",
            "--faults",
            "rate=0.5,seed=9",
            "--json",
            "--threads",
            threads,
            "--obs",
            obs.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        let stream = std::fs::read_to_string(&obs).expect("obs stream");
        let _ = std::fs::remove_file(&obs);
        runs.push((threads, stdout(&out), stream));
    }
    let (_, base_report, base_stream) = &runs[0];
    for (threads, report, stream) in &runs[1..] {
        assert_eq!(report, base_report, "--threads {threads} report differs");
        assert_eq!(
            stream, base_stream,
            "--threads {threads} obs stream differs"
        );
    }

    let report = mocha_json::parse(base_report.trim()).expect("report JSON");
    let field = |v: &mocha_json::Value, k: &str| {
        v.get(k)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("missing {k}: {base_report}"))
    };
    let admitted = field(&report, "admitted");
    let shards = match report.get("shards") {
        Some(mocha_json::Value::Arr(shards)) => shards,
        other => panic!("shards must be an array, got {other:?}"),
    };
    assert_eq!(shards.len(), 3, "spec names three shards");
    let mut routed = 0;
    let mut settled = 0;
    let mut reb_in = 0;
    let mut reb_out = 0;
    for s in shards {
        routed += field(s, "routed");
        settled +=
            field(s, "shed") + field(s, "completed") + field(s, "failed") + field(s, "in_flight");
        reb_in += field(s, "rebalanced_in");
        reb_out += field(s, "rebalanced_out");
    }
    // Fleet-wide conservation: the router routes every offered request, a
    // migrated job exits one shard's ledger via rebalanced_out and enters
    // another's via rebalanced_in, so summing the per-shard identities the
    // migration terms cancel and every request settles exactly once.
    assert_eq!(routed, field(&report, "offered"), "router loses requests");
    assert_eq!(
        admitted + field(&report, "shed"),
        settled,
        "admitted jobs leak: {base_report}"
    );
    assert_eq!(reb_in, reb_out, "migrations must balance fleet-wide");
    assert!(
        field(&report, "rebalanced") > 0,
        "quarantines at rate=0.5 must trigger re-balancing: {base_report}"
    );
}

/// The fleet-of-1 differential at the binary level: with zero faults,
/// `fleet` over a single default shard reproduces the single-fabric
/// `runtime` obs stream byte-for-byte once its `fleet.*` telemetry lines
/// are stripped — the router provably adds telemetry and nothing else.
#[test]
fn fleet_of_one_with_zero_faults_matches_runtime_byte_for_byte() {
    let dir = std::env::temp_dir();
    let solo_obs = dir.join("mocha_sim_fleet1_solo_e2e.jsonl");
    let fleet_obs = dir.join("mocha_sim_fleet1_fleet_e2e.jsonl");
    let solo = mocha_sim(&[
        "runtime",
        "--jobs",
        "6",
        "--load",
        "2.0",
        "--seed",
        "17",
        "--obs",
        solo_obs.to_str().unwrap(),
    ]);
    assert!(solo.status.success(), "stderr: {}", stderr(&solo));
    let fleet = mocha_sim(&[
        "fleet",
        "--jobs",
        "6",
        "--load",
        "2.0",
        "--seed",
        "17",
        "--obs",
        fleet_obs.to_str().unwrap(),
    ]);
    assert!(fleet.status.success(), "stderr: {}", stderr(&fleet));
    let solo_stream = std::fs::read_to_string(&solo_obs).expect("solo stream");
    let fleet_stream = std::fs::read_to_string(&fleet_obs).expect("fleet stream");
    let _ = std::fs::remove_file(&solo_obs);
    let _ = std::fs::remove_file(&fleet_obs);
    assert!(
        fleet_stream.lines().any(|l| l.contains("\"fleet")),
        "fleet run must record fleet.* telemetry"
    );
    let stripped: String = fleet_stream
        .lines()
        .filter(|l| !l.contains("\"fleet"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        stripped, solo_stream,
        "fleet-of-1 must wrap runtime byte-for-byte beyond fleet lines"
    );
}

/// `repro r5` — the fleet degradation sweep — is byte-identical across
/// thread counts and carries its routing and re-balancing claims.
#[test]
fn repro_r5_is_byte_identical_across_thread_counts() {
    let mut tables = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = mocha_sim(&["repro", "r5", "--quick", "--threads", threads]);
        assert!(
            out.status.success(),
            "--threads {threads} stderr: {}",
            stderr(&out)
        );
        tables.push((threads, stdout(&out)));
    }
    let (_, base) = &tables[0];
    assert!(
        base.contains("p2c beats round-robin and locality beats round-robin"),
        "headline claim missing:\n{base}"
    );
    assert!(
        base.contains("re-balancing is visible at every nonzero rate"),
        "re-balancing claim missing:\n{base}"
    );
    assert!(
        base.contains("amplifies the morph-decision cache at fleet scale"),
        "cache amplification claim missing:\n{base}"
    );
    for (threads, table) in &tables[1..] {
        assert_eq!(table, base, "--threads {threads} r5 table differs");
    }
}

/// Runs `mocha-sim` with `input` on stdin.
fn mocha_sim_stdin(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mocha-sim"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mocha-sim");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input)
        .expect("write stdin");
    child.wait_with_output().expect("wait")
}

/// An offered load that is not a finite positive number (NaN, infinity)
/// is refused by every traffic generator's front end: exit 2, one stderr
/// line, no panic.
#[test]
fn non_finite_offered_loads_exit_nonzero_on_every_front_end() {
    for load in ["nan", "inf"] {
        for cmd in [
            &["runtime"][..],
            &["fleet"][..],
            &["serve", "--open-loop"][..],
            &["fleet", "--open-loop"][..],
        ] {
            let args = [cmd, &["--load", load]].concat();
            let out = mocha_sim(&args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: stderr: {err}");
            assert!(err.contains("--load"), "{args:?}: stderr: {err}");
            assert!(stdout(&out).is_empty(), "{args:?}");
        }
    }
}

/// The stdin line protocol applies the same 2^53 cycle bound as `--trace`
/// replay: an arrival a JSON number cannot carry exactly is a one-line
/// protocol error, not an overflow in the scheduler.
#[test]
fn serve_stdin_rejects_cycles_beyond_exact_json_integers() {
    for line in [
        r#"{"network":"tiny","arrival_cycle":1e30}"#,
        r#"{"network":"tiny","deadline_cycles":18446744073709551000}"#,
    ] {
        let out = mocha_sim_stdin(&["serve"], format!("{line}\n\n").as_bytes());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{line}: stderr: {err}");
        assert_eq!(err.lines().count(), 1, "{line}: stderr: {err}");
        assert!(err.starts_with("line 1:"), "{line}: stderr: {err}");
        assert!(err.contains("2^53"), "{line}: stderr: {err}");
    }
}

/// A replayed arrival near 2^53 with a narrow `--metrics-window` would need
/// ~10^13 windows: both open-loop entry points refuse the export with one
/// stderr line naming the window count and the cap, instead of aborting on
/// the allocation or walking the windows for hours.
#[test]
fn offline_windowed_exports_past_the_window_cap_exit_nonzero() {
    let dir = std::env::temp_dir();
    let trace = dir.join("mocha_window_cap_e2e.jsonl");
    let metrics = dir.join("mocha_window_cap_e2e.metrics.jsonl");
    std::fs::write(
        &trace,
        "{\"network\":\"tiny\",\"arrival_cycle\":9007199254740000}\n",
    )
    .expect("write trace");
    let (trace_s, metrics_s) = (trace.to_str().unwrap(), metrics.to_str().unwrap());
    for cmd in [
        &["serve", "--open-loop", "--slo", "400000"][..],
        &["fleet", "--open-loop"][..],
    ] {
        let args = [
            cmd,
            &[
                "--trace",
                trace_s,
                "--metrics-window",
                "1000",
                "--metrics",
                metrics_s,
            ],
        ]
        .concat();
        let out = mocha_sim(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: stderr: {err}");
        assert_eq!(err.lines().count(), 1, "{cmd:?}: stderr: {err}");
        assert!(err.contains("cover 9007199254"), "{cmd:?}: {err}");
        assert!(err.contains("1048576"), "{cmd:?}: {err}");
        assert!(stdout(&out).is_empty(), "{cmd:?}");
    }
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

/// The live `metrics` query past the window cap answers a one-line JSON
/// error and the server keeps serving: a following `stats` still answers.
#[test]
fn serve_metrics_query_past_the_window_cap_keeps_the_server_alive() {
    let out = mocha_sim_stdin(
        &["serve", "--metrics-window", "1000"],
        b"{\"network\":\"tiny\",\"arrival_cycle\":9007199254740000}\n\nmetrics\nstats\n",
    );
    let text = stdout(&out);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "job, summary, error, stats:\n{text}");
    let err = mocha_json::parse(lines[2]).expect("error line is JSON");
    let msg = err.get("error").and_then(|v| v.as_str()).unwrap_or("");
    assert!(msg.contains("1048576"), "error line: {}", lines[2]);
    let stats = mocha_json::parse(lines[3]).expect("stats line is JSON");
    let jobs = stats.get("jobs").expect("stats carries the jobs block");
    assert_eq!(jobs.get("finished").and_then(|v| v.as_u64()), Some(1));
}

/// `serve --open-loop --fleet …` and `fleet --open-loop` are one front end:
/// the same arguments give byte-identical text, `--json`, `--obs` and
/// `--metrics` output through either entry point.
#[test]
fn serve_and_fleet_open_loop_entry_points_are_byte_identical() {
    let dir = std::env::temp_dir();
    let args = [
        "--open-loop",
        "--fleet",
        "preset=quad/preset=mocha",
        "--route",
        "locality",
        "--requests",
        "400",
        "--tenants",
        "60",
        "--load",
        "3.0",
        "--seed",
        "7",
        "--slo",
        "2000000",
        "--faults",
        "rate=0.5,seed=9",
        "--cold-penalty",
        "20000",
        "--metrics-window",
        "100000",
    ];
    let run = |cmd: &str, json: bool| {
        let obs = dir.join(format!("mocha_entry_e2e_{cmd}_{json}.jsonl"));
        let metrics = dir.join(format!("mocha_entry_e2e_{cmd}_{json}.metrics.jsonl"));
        let mut all = vec![cmd];
        all.extend(args);
        all.extend(["--obs", obs.to_str().unwrap()]);
        all.extend(["--metrics", metrics.to_str().unwrap()]);
        if json {
            all.push("--json");
        }
        let out = mocha_sim(&all);
        assert!(out.status.success(), "{cmd}: stderr: {}", stderr(&out));
        let files = [&obs, &metrics].map(|f| std::fs::read_to_string(f).expect("export"));
        for f in [&obs, &metrics] {
            let _ = std::fs::remove_file(f);
        }
        (stdout(&out), stderr(&out), files)
    };
    for json in [false, true] {
        let (serve, fleet) = (run("serve", json), run("fleet", json));
        assert!(serve.0.contains("route locality") || json, "{}", serve.0);
        assert!(!serve.2[0].is_empty() && !serve.2[1].is_empty());
        assert_eq!(serve, fleet, "json = {json}");
    }
}

#[test]
fn fleet_open_loop_obs_keeps_the_server_span_cap() {
    // `SERVE_SPAN_CAP` in crates/cli/src/serve.rs: both open-loop modes
    // keep the first 100 000 spans and count the rest as dropped.
    const SERVE_SPAN_CAP: usize = 100_000;
    let out = mocha_sim(&[
        "fleet",
        "--open-loop",
        "--requests",
        "100500",
        "--load",
        "0.3",
        "--seed",
        "3",
        "--obs",
        "-",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let report = stderr(&out);
    assert!(report.contains("completed 100500"), "{report}");
    let spans = stdout(&out)
        .lines()
        .filter(|l| l.contains("\"event\":\"span\""))
        .count();
    assert_eq!(spans, SERVE_SPAN_CAP);
}
