//! R3 (open-loop serving) — goodput and tail latency vs offered load:
//! SLO-aware load shedding against unbounded queueing on the same seeded
//! heavy-tailed trace.
//!
//! The morphing argument applied to serving: a fabric carved into tenant
//! slots has a *known* per-template service time (calibrated once on one
//! slot), so the admission controller can predict at arrival whether a
//! request will finish inside its deadline — and shed the doomed ones with
//! an explicit response instead of letting queues grow without bound. Past
//! saturation an unbounded queue still reports near-100 % utilization
//! while *goodput* (in-SLO completions per cycle) collapses: everything
//! completes, arbitrarily late. Shedding keeps the served fraction inside
//! the SLO, degrading goodput gracefully instead of falling off a cliff.

use crate::table::{f, Table};
use mocha::engine::Engine;
use mocha::fleet::FleetSpec;
use mocha::obs::{names, WindowSpec};
use mocha::serve::{
    run_open_loop, traffic, windows_from_open_loop, OpenLoopParams, OpenLoopReport, ShedPolicy,
};
use mocha_runtime::{JobSpec, Mix, Priority};

use super::ExpConfig;

/// Runs the offered-load sweep and renders its table.
pub fn run(cfg: &ExpConfig) -> String {
    let (requests, tenants) = if cfg.quick {
        (100_000, 200)
    } else {
        (200_000, 400)
    };
    let loads: &[f64] = if cfg.quick {
        &[0.5, 1.0, 2.0, 4.0]
    } else {
        &[0.4, 0.8, 1.2, 1.6, 2.0, 3.0, 4.0]
    };
    let mix = Mix::Quick;
    let fabric = mocha::fabric::FabricConfig::mocha_quad();
    let slots = 4;

    // Calibrate each template of the tenant population once, sharded over
    // the engine pool; the SLO is a fixed multiple of the mean calibrated
    // service time, so it scales with the cost model instead of being a
    // magic cycle count.
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
    // With `cfg.cache` the calibration shares one decision cache across
    // templates; measured cycles (and thus the whole table) are identical.
    let mut cache = cfg.cache.then(mocha::core::DecisionCache::new);
    let cal = FleetSpec::single(fabric)
        .calibrate(slots, &specs, Engine::new(cfg.threads), cache.as_mut())
        .expect("mix templates validate")
        .remove(0);
    let slo = 4 * cal.mean_service();

    let mut t = Table::new(
        format!(
            "R3 — open-loop serving, {requests} requests / {tenants} tenants per point, \
             SLO {slo} cycles: deadline shedding vs unbounded queueing"
        ),
        &[
            "load", "policy", "offered", "admitted", "shed", "done", "in-SLO", "goodput",
            "p50 kcyc", "p99 kcyc", "util %",
        ],
    );

    // One task per (load, policy) point. The trace is a pure function of
    // its config, so both policies at a load replay the *same* arrivals;
    // shards merge in sweep order, so the table is byte-identical for
    // every `cfg.threads` value.
    let points: Vec<(f64, ShedPolicy)> = loads
        .iter()
        .flat_map(|&load| [(load, ShedPolicy::None), (load, ShedPolicy::Deadline)])
        .collect();
    let (reports, rec) = Engine::new(cfg.threads).map_recorded(points, |_, (load, shed), rec| {
        let trace = traffic::generate(&traffic::OpenLoopConfig {
            requests,
            tenants,
            load,
            seed: cfg.seed,
            mix,
            slo: Some(slo),
        });
        let services: Vec<u64> = trace.iter().map(|r| cal.service(&r.spec)).collect();
        let params = OpenLoopParams {
            fabric: &fabric,
            slots,
            shed,
            faults: None,
            record_spans: false,
        };
        let (report, outcomes) = run_open_loop(&params, &trace, &services, rec);
        // Windowed SLO telemetry for the unbounded-queueing runs: the
        // multi-window burn-rate pair is the *leading* indicator the
        // whole-run goodput column can only show after the fact.
        let burn = matches!(shed, ShedPolicy::None).then(|| {
            let m = windows_from_open_loop(
                WindowSpec::tumbling(8 * slo),
                &trace,
                &outcomes,
                &report.fault_log,
                shed,
            );
            let (fast, slow) = m.peak_burn();
            (m.alerts(), fast, slow, m.first_alert_cycle())
        });
        (load, report, burn)
    });

    let mut shed_wins_past_saturation = true;
    for pair in reports.chunks(2) {
        let (load, queueing, _) = &pair[0];
        let (_, shedding, _) = &pair[1];
        row(&mut t, *load, queueing);
        row(&mut t, *load, shedding);
        if *load > 1.0 {
            shed_wins_past_saturation &= shedding.goodput_per_mcycle()
                > queueing.goodput_per_mcycle()
                && shedding.latency_percentile(99.0) < queueing.latency_percentile(99.0);
        }
    }

    t.note(format!(
        "deadline shedding {} unbounded queueing on goodput AND p99 at every load past saturation",
        if shed_wins_past_saturation {
            "beats"
        } else {
            "does NOT beat"
        }
    ));
    t.note(
        "same seeded heavy-tailed (bounded-Pareto) trace for both policies at each load; \
         goodput = in-SLO completions per Mcycle of horizon; \
         service times calibrated per template on one tenant slot",
    );
    t.note(format!(
        "obs totals over the sweep: {} requests offered, {} admitted, {} shed, \
         {} deadline misses",
        rec.counter(names::SERVE_REQUESTS),
        rec.counter(names::SERVE_ADMITTED),
        rec.counter(names::SERVE_SHED),
        rec.counter(names::SERVE_DEADLINE_MISSES),
    ));

    // Windowed burn-rate section: for the *unbounded queueing* runs, the
    // fast/slow burn pair over tumbling 8×SLO windows raises its alert
    // partway into the overloaded runs — an operator watching `metrics`
    // sees the collapse long before the whole-run goodput column exists.
    let mut w = Table::new(
        format!(
            "R3w — windowed SLO burn (unbounded queueing, tumbling {} cycle windows): \
             the burn-rate pair is a leading indicator of the goodput knee",
            8 * slo
        ),
        &[
            "load",
            "goodput",
            "burn fast",
            "burn slow",
            "alerts",
            "1st alert kcyc",
            "% of run",
        ],
    );
    let mut calm_below_saturation = true;
    let mut alert_past_saturation = true;
    let mut alert_leads = true;
    for (load, report, burn) in &reports {
        let Some((alerts, peak_fast, peak_slow, first_alert)) = burn else {
            continue;
        };
        let pct_of_run = first_alert.map(|c| 100.0 * c as f64 / report.horizon as f64);
        w.row(vec![
            f(*load, 1),
            f(report.goodput_per_mcycle(), 2),
            f(*peak_fast, 2),
            f(*peak_slow, 2),
            alerts.to_string(),
            first_alert.map_or("-".into(), |c| f(c as f64 / 1e3, 1)),
            pct_of_run.map_or("-".into(), |p| f(p, 1)),
        ]);
        if *load < 1.0 {
            calm_below_saturation &= *alerts == 0;
        } else if *load > 1.0 {
            alert_past_saturation &= *alerts > 0;
            // "Leading": the first alert lands in the front half of the run,
            // well before the aggregate goodput number is even computable.
            alert_leads &= pct_of_run.is_some_and(|p| p < 50.0);
        }
    }
    w.note(format!(
        "burn-rate alert {} the goodput knee: quiet below saturation ({}), firing in the \
         first half of every overloaded run ({})",
        if calm_below_saturation && alert_past_saturation && alert_leads {
            "fires before"
        } else {
            "does NOT fire before"
        },
        calm_below_saturation,
        alert_past_saturation && alert_leads,
    ));
    format!("{}\n{}", t.render(), w.render())
}

fn row(t: &mut Table, load: f64, r: &OpenLoopReport) {
    t.row(vec![
        f(load, 1),
        r.policy.clone(),
        r.offered.to_string(),
        r.admitted.to_string(),
        r.shed.to_string(),
        r.completed.to_string(),
        r.in_slo.to_string(),
        f(r.goodput_per_mcycle(), 2),
        f(r.latency_percentile(50.0) as f64 / 1e3, 1),
        f(r.latency_percentile(99.0) as f64 / 1e3, 1),
        f(100.0 * r.utilization(), 1),
    ]);
}
