//! Shared option plumbing for the runtime-backed subcommands (`serve`,
//! `runtime`, `fleet`, and `simulate`'s fault replay) — one builder instead
//! of diverging copies.

use crate::args::Args;
use crate::commands;
use mocha::fault::FaultPlan;
use mocha::runtime::{LeasePolicy, Mix, RuntimeConfig, TrafficConfig};

/// Parses `--mix` (default `quick`).
pub fn mix(args: &Args) -> Result<Mix, String> {
    let name = args.opt("mix", "quick");
    Mix::parse(&name).ok_or_else(|| format!("unknown mix {name:?} (quick|full)"))
}

/// Parses `--load` (default 2.0), the offered load of every traffic
/// generator. It must be finite and positive: the generators divide by it.
pub fn load(args: &Args) -> Result<f64, String> {
    check_load(args.opt_f64("load", 2.0))
}

fn check_load(load: f64) -> Result<f64, String> {
    if load <= 0.0 {
        return Err("--load must be positive".into());
    }
    if !load.is_finite() {
        return Err(format!("--load must be a finite number, got {load}"));
    }
    Ok(load)
}

/// Builds the closed-loop trace config shared by `runtime` and `fleet`
/// from `--mix`, `--jobs`, `--load` and `--seed`, in that order (the load
/// is range-checked last, so a malformed `--seed` reports first).
pub fn traffic(args: &Args) -> Result<TrafficConfig, String> {
    let mix = mix(args)?;
    let traffic = TrafficConfig {
        jobs: args.opt_u64("jobs", 8) as usize,
        load: args.opt_f64("load", 2.0),
        seed: args.opt_u64("seed", 42),
        mix,
    };
    check_load(traffic.load)?;
    Ok(traffic)
}

/// Parses `--faults SPEC` into a plan, `Ok(None)` when the option is
/// absent.
pub fn fault_plan(args: &Args) -> Result<Option<FaultPlan>, String> {
    match args.options.get("faults") {
        None => Ok(None),
        Some(spec) => FaultPlan::parse(spec).map(Some),
    }
}

/// Builds the runtime configuration shared by `serve` and `runtime` from
/// `--fabric`, `--policy`, `--max-tenants`, `--no-verify`, `--faults` and
/// `--cache`.
///
/// The returned config always carries `threads: 0`. That is deliberate,
/// not a missing feature: `--threads N` is folded into the process-wide
/// engine default exactly once by `main` *before* command dispatch, and a
/// `threads` of 0 here defers to that default (all cores when the flag was
/// never given). Resolving the flag again in this builder would apply it
/// twice.
pub fn runtime_config(args: &Args) -> Result<RuntimeConfig, String> {
    let fabric = match args.options.get("fabric") {
        None => mocha::fabric::FabricConfig::mocha_quad(),
        Some(_) => commands::load_fabric(args),
    };
    let policy_name = args.opt("policy", "adaptive");
    let policy = LeasePolicy::parse(&policy_name)
        .ok_or_else(|| format!("unknown policy {policy_name:?} (adaptive|static)"))?;
    let max_tenants = args.opt_u64("max-tenants", 4) as usize;
    if max_tenants == 0 {
        return Err("--max-tenants must be at least 1".into());
    }
    Ok(RuntimeConfig {
        fabric,
        policy,
        max_tenants,
        verify: !args.flag("no-verify"),
        threads: 0,
        faults: fault_plan(args)?,
        cache: args.flag("cache"),
    })
}
