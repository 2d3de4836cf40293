//! Fleet-mode tests of the open-loop engine: routing, quarantine-driven
//! re-balancing, template warmth and per-shard fault domains, driven
//! through [`run_fleet_open_loop`](crate::openloop::run_fleet_open_loop)
//! over N shards.

#[cfg(test)]
mod tests {
    use mocha_core::Objective;
    use mocha_fault::FaultPlan;
    use mocha_obs::{names, MemRecorder, NoopRecorder};
    use mocha_runtime::{JobSpec, Priority};

    use crate::openloop::{run_fleet_open_loop, FleetOpenLoopParams, RequestOutcome};
    use crate::route::RouteKind;
    use crate::shed::ShedPolicy;
    use crate::spec::FleetSpec;
    use crate::traffic::Request;

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
        let m = crate::windows_from_open_loop(
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
