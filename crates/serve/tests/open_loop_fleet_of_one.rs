//! Fleet-of-1 ≡ single fabric, open-loop edition: a one-shard
//! `run_fleet_open_loop` at zero cold penalty must replay `run_open_loop`
//! exactly — per-request outcomes, the whole report (fault log and sorted
//! latencies included) once the route name, shard label and warmth tallies
//! are normalised, and the obs stream modulo `fleet.*` telemetry and the
//! `fleet/shard0/` span root. The open-loop twin of the batch fleet-of-1 ≡
//! runtime gate.

use mocha_core::Objective;
use mocha_fabric::FabricConfig;
use mocha_fault::FaultPlan;
use mocha_obs::{names, MemRecorder};
use mocha_runtime::{JobSpec, Priority};
use mocha_serve::{
    run_fleet_open_loop, run_open_loop, FleetOpenLoopParams, FleetSpec, OpenLoopParams, Request,
    RouteKind, ShedPolicy,
};

/// `n` arrivals over three templates with uneven gaps, service times and
/// deadlines (every fourth request has none), near saturation on 4 slots.
fn trace(n: usize) -> (Vec<Request>, Vec<u64>) {
    let mut arrival = 0;
    let mut reqs = Vec::with_capacity(n);
    let mut services = Vec::with_capacity(n);
    for i in 0..n {
        arrival += [90, 310, 170, 40, 520][i % 5];
        let t = i % 3;
        reqs.push(Request {
            arrival,
            tenant: (i % 7) as u64,
            deadline: (i % 4 != 0).then_some(2_500 + 1_000 * t as u64),
            spec: JobSpec {
                network: ["tiny", "lenet5", "tinyconv"][t].into(),
                profile: "nominal".into(),
                objective: Objective::Edp,
                priority: Priority::Normal,
                seed: i as u64,
            },
        });
        services.push(600 + 350 * t as u64);
    }
    (reqs, services)
}

/// The obs stream with `fleet.*` lines dropped and the shard-0 span root
/// stripped.
fn without_fleet_telemetry(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| !l.contains("\"fleet."))
        .map(|l| l.replace("\"path\":\"fleet/shard0/", "\"path\":\"") + "\n")
        .collect()
}

#[test]
fn one_shard_fleet_replays_the_single_fabric_open_loop() {
    let fabric = FabricConfig::mocha_quad();
    let fleet = FleetSpec::parse("preset=quad").unwrap();
    assert_eq!(fleet.shards()[0].fabric, fabric);
    let (reqs, svc) = trace(1_500);
    let fleet_svc = vec![svc.clone()];
    let plans: Vec<Option<FaultPlan>> = [
        None,
        Some("rate=40,seed=5,transient=0.2"),
        Some("rate=80,seed=7,transient=0.1"),
    ]
    .into_iter()
    .map(|spec| spec.map(|s| FaultPlan::parse(s).unwrap()))
    .collect();
    let (mut shed_seen, mut quarantine_seen) = (false, false);
    for shed in [ShedPolicy::None, ShedPolicy::Queue(3), ShedPolicy::Deadline] {
        for plan in &plans {
            let single = OpenLoopParams {
                fabric: &fabric,
                slots: 4,
                shed,
                faults: plan.as_ref(),
                record_spans: true,
            };
            let mut solo_rec = MemRecorder::new();
            let (solo, solo_outs) = run_open_loop(&single, &reqs, &svc, &mut solo_rec);
            shed_seen |= solo.shed > 0;
            quarantine_seen |= solo.quarantined > 0;
            for route in RouteKind::all() {
                let ctx = format!("{shed:?} {plan:?} {route:?}");
                let p = FleetOpenLoopParams {
                    fleet: &fleet,
                    slots: 4,
                    shed,
                    route,
                    route_seed: 42,
                    faults: plan.as_ref(),
                    cold_penalty: 0,
                    record_spans: true,
                };
                let mut rec = MemRecorder::new();
                let (r, outs) = run_fleet_open_loop(&p, &reqs, &fleet_svc, &mut rec);
                assert_eq!(outs, solo_outs, "{ctx}");
                assert_eq!(r.route, Some(route.name()), "{ctx}");
                assert_eq!(r.shards[0].label, "16x16/32b", "{ctx}");
                assert_eq!(r.cold_misses + r.warm_hits, r.admitted, "{ctx}");
                assert_eq!(r.rebalanced, 0, "{ctx}");
                let mut normalised = r.clone();
                normalised.route = None;
                normalised.shards[0].label.clear();
                (normalised.cold_misses, normalised.warm_hits) = (0, 0);
                assert_eq!(normalised, solo, "{ctx}");
                assert_eq!(rec.counter(names::FLEET_ROUTED), r.offered as u64);
                assert_eq!(
                    without_fleet_telemetry(&rec.to_jsonl()),
                    solo_rec.to_jsonl(),
                    "{ctx}"
                );
            }
        }
    }
    assert!(shed_seen, "the trace exercises the shed gate");
    assert!(quarantine_seen, "the fault plans exercise quarantine");
}
