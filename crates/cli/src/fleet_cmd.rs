//! The fleet front-end: `mocha-sim fleet`.
//!
//! `fleet` shards work across N simulated fabric instances of differing
//! geometry behind one deterministic router. The default (batch) mode is
//! the fleet twin of `runtime`: a seeded closed-loop trace routed over the
//! fleet and executed on each shard's cycle-accurate scheduler. With
//! `--open-loop` it runs the open-loop front end of [`crate::serve`] in
//! fleet mode — the engine behind experiment R5 — adding per-shard fault
//! domains, quarantine-triggered re-balancing, and template-warmth cold
//! penalties.
//!
//! Both modes are byte-identical at any `--threads` and with the decision
//! cache on or off; `--fleet` / `--route` parse errors are one line on
//! stderr with exit code 2, the same contract as `--faults`.

use crate::args::Args;
use crate::commands;
use crate::config;
use mocha::fleet::{run_fleet, FleetConfig, FleetSpec, RouteKind};
use mocha::obs::{MemRecorder, NoopRecorder};
use mocha::runtime::{self, LeasePolicy};
use mocha_json::ToJson;

/// Parses `--fleet SPEC`, defaulting to a fleet of one quad fabric so
/// `fleet` without options is the exact off-switch for `runtime`.
pub(crate) fn fleet_spec(args: &Args) -> Result<FleetSpec, String> {
    match args.options.get("fleet") {
        None => Ok(FleetSpec::single(mocha::fabric::FabricConfig::mocha_quad())),
        Some(spec) => FleetSpec::parse(spec),
    }
}

/// Parses `--route POLICY` (default round-robin — the stateless baseline).
pub(crate) fn route_kind(args: &Args) -> Result<RouteKind, String> {
    match args.options.get("route") {
        None => Ok(RouteKind::RoundRobin),
        Some(s) => RouteKind::parse(s),
    }
}

/// `fleet` subcommand.
pub fn fleet(args: &Args) -> i32 {
    if args.flag("open-loop") {
        return crate::serve::open_loop(args, true);
    }
    if let Err(code) = commands::strict(
        args,
        0,
        &[
            "fleet",
            "route",
            "route-seed",
            "jobs",
            "load",
            "seed",
            "mix",
            "policy",
            "max-tenants",
            "no-verify",
            "json",
            "obs",
            "threads",
            "faults",
            "cache",
        ],
    ) {
        return code;
    }
    match batch(args) {
        Ok((out, rec)) => commands::emit(args, &out, &rec),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// The batch run behind `fleet`: its report text and recorder.
fn batch(args: &Args) -> Result<(String, MemRecorder), String> {
    let fleet = fleet_spec(args)?;
    let route = route_kind(args)?;
    let policy_name = args.opt("policy", "adaptive");
    let policy = LeasePolicy::parse(&policy_name)
        .ok_or_else(|| format!("unknown policy {policy_name:?} (adaptive|static)"))?;
    let max_tenants = args.opt_u64("max-tenants", 4) as usize;
    if max_tenants == 0 {
        return Err("--max-tenants must be at least 1".into());
    }
    let faults = config::fault_plan(args)?;
    let traffic = config::traffic(args)?;
    let cfg = FleetConfig {
        fleet,
        route,
        route_seed: args.opt_u64("route-seed", 42),
        policy,
        max_tenants,
        verify: !args.flag("no-verify"),
        threads: 0,
        faults,
        cache: args.flag("cache"),
    };
    let subs = runtime::generate(&traffic);
    let mut rec = MemRecorder::new();
    let report = if args.flag("obs") {
        run_fleet(&cfg, &subs, &mut rec)
    } else {
        run_fleet(&cfg, &subs, &mut NoopRecorder)
    };

    use std::fmt::Write as _;
    let mut out = String::new();
    if args.flag("json") {
        let _ = writeln!(out, "{}", report.to_json().to_string_pretty());
    } else {
        let _ = writeln!(
            out,
            "{} jobs ({} mix, load {:.2}, seed {}) over {} shard(s), route {}",
            traffic.jobs,
            traffic.mix.name(),
            traffic.load,
            traffic.seed,
            report.shards.len(),
            report.route,
        );
        let _ = writeln!(
            out,
            "  {:>5} {:<12} {:>7} {:>10} {:>7} {:>8} {:>12}",
            "shard", "fabric", "routed", "completed", "failed", "retried", "horizon"
        );
        for s in &report.shards {
            let _ = writeln!(
                out,
                "  {:>5} {:<12} {:>7} {:>10} {:>7} {:>8} {:>12}",
                s.shard,
                s.label,
                s.routed,
                s.report.completed(),
                s.report.failed,
                s.report.retried,
                s.report.horizon,
            );
        }
        let _ = writeln!(
            out,
            "fleet: {} completed | {} failed | {} retried | horizon {} cycles",
            report.completed(),
            report.failed(),
            report.retried(),
            report.horizon(),
        );
        let _ = writeln!(
            out,
            "  p50 {} p95 {} p99 {} cycles | mean wait {:.0}",
            report.latency_percentile(50.0),
            report.latency_percentile(95.0),
            report.latency_percentile(99.0),
            report.mean_queue_wait(),
        );
    }

    Ok((out, rec))
}
