//! The fleet-level open-loop simulation behind experiment R5.
//!
//! [`run_fleet_open_loop`] runs `mocha-serve`'s open-loop engine
//! ([`mocha_serve::openloop`]) with one shard per [`FleetSpec`] instance:
//! each shard's [`FaultTimeline`] is seeded via [`shard_seed`] so fault
//! domains are independent, the routing policy comes from [`RouteKind`],
//! and template warmth charges `cold_penalty` on a shard's first job of
//! each template. The run is a sequential pure function of its inputs:
//! byte-identical output at any `--threads` count.

use mocha_fault::{FaultPlan, FaultTimeline};
use mocha_json::{ToJson, Value};
use mocha_obs::{names, nearest_rank, Recorder};
use mocha_serve::openloop::{run_shards, EngineSetup, ShardSetup};
use mocha_serve::shed::ShedPolicy;
use mocha_serve::{Request, RequestOutcome};

pub use mocha_serve::openloop::{template_ids, ShardStats as FleetShardStats};

use crate::route::RouteKind;
use crate::spec::{shard_seed, FleetSpec};

/// Fleet open-loop simulation parameters.
pub struct FleetOpenLoopParams<'a> {
    /// The fleet: per-shard fabric geometry in canonical order.
    pub fleet: &'a FleetSpec,
    /// Requested tenant slots per shard (clamped per shard to what that
    /// fabric can host).
    pub slots: usize,
    /// Admission-control policy, applied on the routed shard.
    pub shed: ShedPolicy,
    /// Routing policy.
    pub route: RouteKind,
    /// Seed for stochastic routing policies (p2c).
    pub route_seed: u64,
    /// Optional per-shard fault schedule. Shard `s` runs the plan with its
    /// seed stepped by [`shard_seed`], so fault domains are independent.
    pub faults: Option<&'a FaultPlan>,
    /// Extra cycles the first job of a template pays on a shard whose
    /// decision cache has never seen that template.
    pub cold_penalty: u64,
    /// Record per-request `fleet/shard<s>/job/<idx>` spans and
    /// `fleet/shard<s>/fault/<kind>` lost-work spans.
    pub record_spans: bool,
}

/// Aggregate outcome of one fleet open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOpenLoopReport {
    /// Routing policy name.
    pub route: String,
    /// Shed policy name.
    pub policy: String,
    /// Per-shard tallies in canonical shard order.
    pub shards: Vec<FleetShardStats>,
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests admitted past the shed gate (on their routed shard).
    pub admitted: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Admitted requests that completed.
    pub completed: usize,
    /// Admitted requests dropped after exhausting fault retries.
    pub failed: usize,
    /// Completions past their deadline.
    pub deadline_misses: usize,
    /// Completions within their deadline.
    pub in_slo: usize,
    /// Cross-shard migrations triggered by quarantines.
    pub rebalanced: usize,
    /// Admissions that paid the cold decision-cache penalty.
    pub cold_misses: usize,
    /// Admissions that landed on a warm (template, shard) pair.
    pub warm_hits: usize,
    /// Fault events drawn across all shard timelines.
    pub faults_injected: usize,
    /// Permanent faults admitted into quarantine across all shards.
    pub quarantined: usize,
    /// Last simulated cycle across the fleet.
    pub horizon: u64,
    /// Slot-cycles spent on successful attempts, fleet-wide.
    pub busy_cycles: u64,
    /// Slot-cycles discarded to faults, fleet-wide.
    pub lost_cycles: u64,
    /// Mean first-start queue wait over completions, cycles.
    pub mean_queue_wait: f64,
    /// Every fault event drawn, merged over shards and sorted by
    /// `(cycle, shard)`: feeds windowed telemetry, not part of the JSON
    /// report.
    pub fault_log: Vec<(u64, &'static str)>,
    latencies: Vec<u64>, // sorted
}

impl FleetOpenLoopReport {
    /// Nearest-rank latency percentile over fleet-wide completions.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        nearest_rank(&self.latencies, p)
    }

    /// In-SLO completions per million cycles of horizon.
    pub fn goodput_per_mcycle(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        self.in_slo as f64 * 1e6 / self.horizon as f64
    }

    /// Fraction of fleet slot-cycles spent serving (successful or
    /// discarded attempts), over the initial slot counts.
    pub fn utilization(&self) -> f64 {
        let servers: u64 = self.shards.iter().map(|s| s.servers as u64).sum();
        if self.horizon == 0 || servers == 0 {
            return 0.0;
        }
        (self.busy_cycles + self.lost_cycles) as f64 / (self.horizon * servers) as f64
    }
}

impl ToJson for FleetOpenLoopReport {
    fn to_json(&self) -> Value {
        let shards: Vec<Value> = self.shards.iter().map(|s| s.to_json()).collect();
        mocha_json::jobj! {
            "fleet" => true,
            "route" => self.route.as_str(),
            "policy" => self.policy.as_str(),
            "shards" => Value::Arr(shards),
            "offered" => self.offered as u64,
            "admitted" => self.admitted as u64,
            "shed" => self.shed as u64,
            "completed" => self.completed as u64,
            "failed" => self.failed as u64,
            "deadline_misses" => self.deadline_misses as u64,
            "in_slo" => self.in_slo as u64,
            "rebalanced" => self.rebalanced as u64,
            "cold_misses" => self.cold_misses as u64,
            "warm_hits" => self.warm_hits as u64,
            "faults_injected" => self.faults_injected as u64,
            "quarantined" => self.quarantined as u64,
            "horizon" => self.horizon,
            "busy_cycles" => self.busy_cycles,
            "lost_cycles" => self.lost_cycles,
            "goodput_per_mcycle" => self.goodput_per_mcycle(),
            "latency_p50" => self.latency_percentile(50.0),
            "latency_p95" => self.latency_percentile(95.0),
            "latency_p99" => self.latency_percentile(99.0),
            "mean_queue_wait" => self.mean_queue_wait,
            "utilization" => self.utilization(),
        }
    }
}

/// Runs the fleet open-loop simulation. `services[s][i]` is the calibrated
/// service time of request `i` on shard `s` (see
/// [`mocha_serve::Calibration`]). Returns the aggregate report and the
/// per-request outcomes in trace order.
pub fn run_fleet_open_loop<R: Recorder>(
    p: &FleetOpenLoopParams,
    requests: &[Request],
    services: &[Vec<u64>],
    rec: &mut R,
) -> (FleetOpenLoopReport, Vec<RequestOutcome>) {
    assert_eq!(services.len(), p.fleet.len(), "one service table per shard");
    let n = p.fleet.len();
    let shards = p
        .fleet
        .shards()
        .iter()
        .zip(services)
        .enumerate()
        .map(|(s, (shard, services))| ShardSetup {
            label: shard.label.clone(),
            fabric: shard.fabric,
            services,
            faults: p.faults.map(|plan| {
                let per_shard = FaultPlan {
                    seed: shard_seed(plan.seed, s),
                    ..plan.clone()
                };
                FaultTimeline::new(&per_shard, &shard.fabric)
            }),
            span_root: format!("fleet/shard{s}/"),
        })
        .collect();
    let setup = EngineSetup {
        shards,
        slots: p.slots,
        shed: p.shed,
        max_retries: p.faults.map_or(0, |plan| plan.max_retries),
        record_spans: p.record_spans,
        depth_hists: &[names::HIST_SERVE_QUEUE_DEPTH, names::HIST_FLEET_SHARD_DEPTH],
        routing: Some(p.route.policy(n, p.route_seed)),
        cold_penalty: p.cold_penalty,
    };
    let (run, outcomes) = run_shards(setup, requests, rec);
    for (name, total) in [
        (names::FLEET_SHARDS, n),
        (names::FLEET_ROUTED, requests.len()),
        (names::FLEET_REBALANCED, run.rebalanced),
        (names::FLEET_COLD_MISSES, run.cold_misses),
        (names::FLEET_WARM_HITS, run.warm_hits),
        (names::FLEET_WARM_EVICTIONS, run.warm_evictions),
    ] {
        if total > 0 {
            rec.add(name, total as u64);
        }
    }

    let mut latencies: Vec<u64> = run
        .shards
        .iter()
        .flat_map(|s| s.latencies().iter().copied())
        .collect();
    latencies.sort_unstable();
    let report = FleetOpenLoopReport {
        route: p.route.name().to_string(),
        policy: p.shed.name(),
        offered: requests.len(),
        admitted: run.admitted,
        shed: run.shed,
        completed: run.completed,
        failed: run.failed,
        deadline_misses: run.deadline_misses,
        in_slo: run.in_slo,
        rebalanced: run.rebalanced,
        cold_misses: run.cold_misses,
        warm_hits: run.warm_hits,
        faults_injected: run.shards.iter().map(|s| s.faults_injected).sum(),
        quarantined: run.shards.iter().map(|s| s.quarantined).sum(),
        horizon: run.horizon,
        busy_cycles: run.shards.iter().map(|s| s.busy_cycles).sum(),
        lost_cycles: run.shards.iter().map(|s| s.lost_cycles).sum(),
        mean_queue_wait: run.mean_queue_wait,
        fault_log: run.fault_log,
        latencies,
        shards: run.shards,
    };
    (report, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_core::Objective;
    use mocha_obs::{MemRecorder, NoopRecorder};
    use mocha_runtime::{JobSpec, Priority};

    fn req(i: usize, arrival: u64, deadline: Option<u64>) -> Request {
        Request {
            arrival,
            tenant: (i % 3) as u64,
            deadline,
            spec: JobSpec {
                network: ["tiny", "lenet5", "tinyconv"][i % 3].to_string(),
                profile: "nominal".into(),
                objective: Objective::Edp,
                priority: Priority::Normal,
                seed: i as u64,
            },
        }
    }

    /// `n` arrivals every `gap` cycles over 3 templates; shard 0 serves at
    /// `base`, every further shard 40 % slower per index.
    fn trace(
        fleet: &FleetSpec,
        n: usize,
        gap: u64,
        base: u64,
        deadline: Option<u64>,
    ) -> (Vec<Request>, Vec<Vec<u64>>) {
        let reqs: Vec<Request> = (0..n).map(|i| req(i, i as u64 * gap, deadline)).collect();
        let services = (0..fleet.len())
            .map(|s| vec![base + s as u64 * base * 2 / 5; n])
            .collect();
        (reqs, services)
    }

    fn fleet3() -> FleetSpec {
        FleetSpec::parse("preset=quad/preset=mocha,count=2").unwrap()
    }

    fn params<'a>(
        fleet: &'a FleetSpec,
        route: RouteKind,
        faults: Option<&'a FaultPlan>,
    ) -> FleetOpenLoopParams<'a> {
        FleetOpenLoopParams {
            fleet,
            slots: 4,
            shed: ShedPolicy::None,
            route,
            route_seed: 42,
            faults,
            cold_penalty: 200,
            record_spans: false,
        }
    }

    #[test]
    fn runs_are_deterministic_and_conserve_requests() {
        let fleet = fleet3();
        let plan = FaultPlan::parse("rate=30,seed=5,transient=0.3").unwrap();
        let (reqs, svc) = trace(&fleet, 600, 150, 1_000, Some(6_000));
        for route in RouteKind::all() {
            let p = params(&fleet, route, Some(&plan));
            let mut rec_a = MemRecorder::new();
            let mut rec_b = MemRecorder::new();
            let (a, outs) = run_fleet_open_loop(&p, &reqs, &svc, &mut rec_a);
            let (b, _) = run_fleet_open_loop(&p, &reqs, &svc, &mut rec_b);
            assert_eq!(a, b, "{route:?}");
            assert_eq!(rec_a.to_jsonl(), rec_b.to_jsonl(), "{route:?}");
            // Fleet-level conservation.
            assert_eq!(a.offered, a.admitted + a.shed, "{route:?}");
            assert_eq!(a.admitted, a.completed + a.failed, "{route:?}");
            let in_flight: usize = a.shards.iter().map(|s| s.in_flight).sum();
            assert_eq!(
                a.offered,
                a.shards
                    .iter()
                    .map(|s| s.shed + s.completed + s.failed)
                    .sum::<usize>()
                    + in_flight,
                "{route:?}"
            );
            // Per-shard conservation, including migrations.
            for sh in &a.shards {
                assert!(sh.conserved(), "{route:?} shard {} conserves", sh.label);
            }
            assert_eq!(
                a.shards.iter().map(|s| s.rebalanced_in).sum::<usize>(),
                a.shards.iter().map(|s| s.rebalanced_out).sum::<usize>(),
            );
            assert_eq!(a.offered, a.shards.iter().map(|s| s.routed).sum::<usize>());
            let shed_outs = outs
                .iter()
                .filter(|o| matches!(o, RequestOutcome::Shed))
                .count();
            assert_eq!(shed_outs, a.shed);
        }
    }

    #[test]
    fn quarantine_on_one_shard_rebalances_onto_the_others() {
        let fleet = fleet3();
        // High permanent-fault rate: quarantines are certain.
        let plan = FaultPlan::parse("rate=80,seed=7,transient=0.1").unwrap();
        let (reqs, svc) = trace(&fleet, 500, 200, 1_200, Some(8_000));
        let p = params(&fleet, RouteKind::PowerOfTwo, Some(&plan));
        let mut rec = MemRecorder::new();
        let (r, _) = run_fleet_open_loop(&p, &reqs, &svc, &mut rec);
        assert!(r.quarantined > 0, "permanent faults quarantine");
        assert!(r.rebalanced > 0, "quarantine displaces work across shards");
        assert_eq!(rec.counter(names::FLEET_REBALANCED), r.rebalanced as u64);
        assert_eq!(rec.counter(names::FLEET_ROUTED), r.offered as u64);
        assert_eq!(rec.counter(names::FLEET_SHARDS), fleet.len() as u64);
    }

    #[test]
    fn locality_routing_pays_fewer_cold_misses_than_round_robin() {
        // Two shards against three templates: round-robin smears every
        // template over both shards, locality pins each to one.
        let fleet = FleetSpec::parse("preset=quad/preset=mocha").unwrap();
        let (reqs, svc) = trace(&fleet, 300, 2_000, 1_000, None);
        let (loc, _) = run_fleet_open_loop(
            &params(&fleet, RouteKind::Locality, None),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        let (rr, _) = run_fleet_open_loop(
            &params(&fleet, RouteKind::RoundRobin, None),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert!(
            loc.cold_misses < rr.cold_misses,
            "locality concentrates templates: {} vs {} cold misses",
            loc.cold_misses,
            rr.cold_misses
        );
        assert!(loc.warm_hits > rr.warm_hits);
    }

    #[test]
    fn fleet_of_one_routes_everything_to_shard_zero() {
        let fleet = FleetSpec::parse("preset=quad").unwrap();
        let (reqs, svc) = trace(&fleet, 100, 500, 1_000, Some(4_000));
        for route in RouteKind::all() {
            let (r, _) =
                run_fleet_open_loop(&params(&fleet, route, None), &reqs, &svc, &mut NoopRecorder);
            assert_eq!(r.shards[0].routed, 100, "{route:?}");
            assert_eq!(r.rebalanced, 0);
        }
    }

    #[test]
    fn spans_cover_completions_and_lost_work_under_fleet_namespace() {
        let fleet = fleet3();
        let plan = FaultPlan::parse("rate=40,seed=3,transient=0.5").unwrap();
        let (reqs, svc) = trace(&fleet, 120, 400, 1_000, None);
        let mut p = params(&fleet, RouteKind::RoundRobin, Some(&plan));
        p.record_spans = true;
        let mut rec = MemRecorder::new();
        let (r, _) = run_fleet_open_loop(&p, &reqs, &svc, &mut rec);
        let jobs = rec
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("fleet/shard") && s.path.contains("/job/"))
            .count();
        assert_eq!(jobs, r.completed);
        assert!(
            rec.spans().iter().all(|s| s.path.starts_with("fleet/")),
            "every span is fleet-namespaced"
        );
        if r.lost_cycles > 0 {
            assert!(rec.spans().iter().any(|s| s.path.contains("/fault/")));
        }
    }

    #[test]
    fn fault_log_is_sorted_and_feeds_windowing() {
        let fleet = fleet3();
        let plan = FaultPlan::parse("rate=50,seed=9").unwrap();
        let (reqs, svc) = trace(&fleet, 300, 250, 1_000, Some(6_000));
        let p = params(&fleet, RouteKind::Locality, Some(&plan));
        let (r, outs) = run_fleet_open_loop(&p, &reqs, &svc, &mut NoopRecorder);
        assert!(r.fault_log.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(r.fault_log.len(), r.faults_injected);
        let m = mocha_serve::windows_from_open_loop(
            mocha_obs::WindowSpec::tumbling(10_000),
            &reqs,
            &outs,
            &r.fault_log,
            p.shed,
        );
        assert_eq!(
            m.windows.counter_total(names::SERVE_REQUESTS),
            reqs.len() as u64
        );
        assert_eq!(
            m.windows.counter_total(names::FAULT_INJECTED),
            r.faults_injected as u64
        );
    }
}
