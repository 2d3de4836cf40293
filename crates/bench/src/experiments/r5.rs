//! R5 (fleet degradation curves) — routing policies across a heterogeneous
//! fleet as per-shard fault rates rise: round-robin vs locality-aware vs
//! power-of-two-choices on R3's open-loop arrival traces.
//!
//! The fleet argument: a router that sees per-shard queue depth (p2c) or
//! per-shard template warmth (locality) keeps goodput and tail latency
//! intact as shards degrade, because quarantines shrink a shard's slot
//! count and a state-blind round-robin keeps feeding the crippled shard
//! its full share. Locality additionally amplifies the PR-7 morph-decision
//! cache at fleet scale: routing a template back to the shard that has
//! already planned it skips the cold first-decision penalty, so the same
//! trace pays fewer cold misses the warmer the routing.
//!
//! Every point replays the *same* seeded trace; per-shard fault timelines
//! derive from one plan with seeds stepped per shard, so shard fault
//! domains are independent but reproducible. The whole table is
//! byte-identical at any `--threads` value and with the decision cache on
//! or off (calibration cycles are cache-invariant).

use crate::table::{f, Table};
use mocha::engine::Engine;
use mocha::fault::FaultPlan;
use mocha::fleet::{run_fleet_open_loop, FleetOpenLoopParams, FleetSpec, RouteKind};
use mocha::obs::names;
use mocha::serve::{traffic, Calibration, ShedPolicy};
use mocha_runtime::{JobSpec, Mix, Priority};

use super::ExpConfig;

/// Runs the fleet degradation sweep and renders its table.
pub fn run(cfg: &ExpConfig) -> String {
    let requests = if cfg.quick { 30_000 } else { 120_000 };
    let tenants = if cfg.quick { 200 } else { 400 };
    // Rates are per-shard faults per Mcycle; horizons run to ~1 Gcycle, so
    // even fractional rates land hundreds of faults — enough to carve slots
    // out of shards without collapsing the whole fleet into noise.
    let rates: &[f64] = if cfg.quick {
        &[0.0, 0.1, 0.2]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2]
    };
    let load = 2.0;
    let mix = Mix::Quick;
    let slots = 4;
    // One big quad instance plus two small ones: heterogeneous enough that
    // routing decisions matter even before the first fault lands.
    let fleet = FleetSpec::parse("preset=quad/preset=mocha,count=2").expect("static spec");

    // Calibrate each template once per distinct shard geometry. With
    // `cfg.cache` one decision cache spans the geometries; measured cycles
    // (and thus the whole table) are identical either way.
    let specs: Vec<JobSpec> = mix
        .templates()
        .iter()
        .map(|(network, profile)| JobSpec {
            network: network.to_string(),
            profile: profile.to_string(),
            objective: mocha::core::Objective::Edp,
            priority: Priority::Normal,
            seed: cfg.seed,
        })
        .collect();
    let mut cache = cfg.cache.then(mocha::core::DecisionCache::new);
    let cals = fleet
        .calibrate(slots, &specs, Engine::new(cfg.threads), cache.as_mut())
        .expect("mix templates validate");
    // SLO and cold penalty scale with the *slowest* geometry's calibrated
    // mean, so they track the cost model instead of being magic numbers.
    let slowest = cals
        .iter()
        .map(Calibration::mean_service)
        .max()
        .expect("fleet is non-empty");
    let slo = 4 * slowest;
    let cold_penalty = slowest / 4;

    let trace = traffic::generate(&traffic::OpenLoopConfig {
        requests,
        tenants,
        load,
        seed: cfg.seed,
        mix,
        slo: Some(slo),
    });
    let services: Vec<Vec<u64>> = cals
        .iter()
        .map(|cal| trace.iter().map(|r| cal.service(&r.spec)).collect())
        .collect();

    let mut t = Table::new(
        format!(
            "R5 — fleet degradation, {} shards / {requests} requests per point, SLO {slo} \
             cycles, cold penalty {cold_penalty}: routing policies vs per-shard fault rate",
            fleet.len(),
        ),
        &[
            "rate", "route", "done", "failed", "in-SLO", "goodput", "p99 kcyc", "rebal", "cold",
            "warm", "quar",
        ],
    );

    // One task per (rate, policy) point; every point replays the same
    // trace. Shards merge in sweep order, so the table is byte-identical
    // for every `cfg.threads` value.
    let points: Vec<(f64, RouteKind)> = rates
        .iter()
        .flat_map(|&rate| RouteKind::all().map(|route| (rate, route)))
        .collect();
    let (reports, rec) = Engine::new(cfg.threads).map_recorded(points, |_, (rate, route), rec| {
        let faults = (rate > 0.0).then(|| {
            FaultPlan::parse(&format!("rate={rate},seed=5,transient=0.3")).expect("static spec")
        });
        let params = FleetOpenLoopParams {
            fleet: &fleet,
            slots,
            shed: ShedPolicy::None,
            route,
            route_seed: cfg.seed,
            faults: faults.as_ref(),
            cold_penalty,
            record_spans: false,
        };
        let (report, _) = run_fleet_open_loop(&params, &trace, &services, rec);
        (rate, route, report)
    });

    for (rate, route, r) in &reports {
        t.row(vec![
            f(*rate, 2),
            route.name().to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            r.in_slo.to_string(),
            f(r.goodput_per_mcycle(), 2),
            f(r.latency_percentile(99.0) as f64 / 1e3, 1),
            r.rebalanced.to_string(),
            r.cold_misses.to_string(),
            r.warm_hits.to_string(),
            r.quarantined.to_string(),
        ]);
    }

    // Claim 1: state-aware routing beats round-robin on goodput AND p99 at
    // every nonzero fault rate. Claim 2: quarantine-triggered re-balancing
    // is visible (every policy migrates jobs) at every nonzero rate.
    // Claim 3: locality pays fewer cold decision-cache misses than
    // round-robin at every rate — the fleet-level cache amplification.
    let mut p2c_wins = true;
    let mut locality_wins = true;
    let mut rebalance_visible = true;
    let mut locality_warmer = true;
    for chunk in reports.chunks(RouteKind::all().len()) {
        let (rate, _, rr) = &chunk[0];
        let (_, _, loc) = &chunk[1];
        let (_, _, p2c) = &chunk[2];
        // At rate 0 every policy pays at most templates×shards cold
        // misses, so equality is possible; under faults the warm sets keep
        // getting cleared and locality must pay strictly fewer.
        locality_warmer &= if *rate == 0.0 {
            loc.cold_misses <= rr.cold_misses
        } else {
            loc.cold_misses < rr.cold_misses
        };
        if *rate == 0.0 {
            continue;
        }
        p2c_wins &= p2c.goodput_per_mcycle() > rr.goodput_per_mcycle()
            && p2c.latency_percentile(99.0) < rr.latency_percentile(99.0);
        locality_wins &= loc.goodput_per_mcycle() > rr.goodput_per_mcycle()
            && loc.latency_percentile(99.0) < rr.latency_percentile(99.0);
        rebalance_visible &= chunk.iter().all(|(_, _, r)| r.rebalanced > 0);
    }

    t.note(format!(
        "p2c {} round-robin and locality {} round-robin on goodput AND SLO p99 at every \
         nonzero per-shard fault rate",
        if p2c_wins { "beats" } else { "does NOT beat" },
        if locality_wins {
            "beats"
        } else {
            "does NOT beat"
        },
    ));
    t.note(format!(
        "quarantine-triggered re-balancing {} at every nonzero rate: evicted queued jobs \
         re-route live onto healthy shards",
        if rebalance_visible {
            "is visible"
        } else {
            "is NOT visible"
        },
    ));
    t.note(format!(
        "locality-aware routing {} the morph-decision cache at fleet scale: fewer cold \
         first-decision penalties than round-robin at every rate",
        if locality_warmer {
            "amplifies"
        } else {
            "does NOT amplify"
        },
    ));
    t.note(
        "same seeded heavy-tailed trace for every point; per-shard fault timelines derive \
         from one plan with seeds stepped per shard; goodput = in-SLO completions per \
         Mcycle of horizon",
    );
    t.note(format!(
        "r5-smoke {{\"shards\":{},\"points\":{},\"routed\":{},\"rebalanced\":{},\
         \"cold\":{},\"warm\":{},\"p2c_wins\":{},\"locality_wins\":{},\
         \"rebalance_visible\":{},\"locality_warmer\":{}}}",
        fleet.len(),
        reports.len(),
        rec.counter(names::FLEET_ROUTED),
        rec.counter(names::FLEET_REBALANCED),
        rec.counter(names::FLEET_COLD_MISSES),
        rec.counter(names::FLEET_WARM_HITS),
        u64::from(p2c_wins),
        u64::from(locality_wins),
        u64::from(rebalance_visible),
        u64::from(locality_warmer),
    ));
    t.render()
}
