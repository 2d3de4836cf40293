//! The four workloads. Each builds its inputs from the seed in `setup`, and
//! each op is one call a user of the simulator makes, with the same
//! arguments the CLI passes. The traced variant of an op makes the same
//! calls inside spans and adds extra calls — a warm replay, a run without
//! the recorder, a run without verification — whose differences split the
//! op's time by layer.

use std::hint::black_box;

use mocha::compress::{bitmask, nibble, zrle};
use mocha::core::{Accelerator, DecisionCache, DecisionShard, Objective, Session, Simulator};
use mocha::energy::EnergyTable;
use mocha::engine::Engine;
use mocha::fabric::FabricConfig;
use mocha::fault::FaultPlan;
use mocha::fleet::{
    run_fleet_open_loop, FleetOpenLoopParams, FleetOpenLoopReport, FleetSpec, RouteKind,
};
use mocha::model::{self, network, SparsityProfile};
use mocha::obs::{names, MemRecorder, NoopRecorder};
use mocha::runtime::{self, JobSpec, Mix, Priority, RuntimeConfig, RuntimeReport, Submission};
use mocha::serve::{
    run_open_loop, traffic, Calibration, OpenLoopParams, OpenLoopReport, Request, ShedPolicy,
};
use mocha::trace::{parse_input, Profile, SpanTree};

use crate::spans::Tracer;
use crate::speed::Clock;
use crate::stats::Fnv;

pub const NAMES: [&str; 4] = [
    "sim-alexnet",
    "runtime-faults",
    "serve-openloop",
    "fleet-faults",
];

/// The benchmark's inputs, or the seconds-long smoke version the tests run
/// (the `tiny` network, 2 jobs, 2k-request traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one op produced.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    /// Work done, in the workload's throughput unit.
    pub work: f64,
    /// Exact simulated values that every op must repeat.
    pub checks: Vec<(String, u64)>,
}

/// One traced op.
#[derive(Debug, Clone)]
pub struct Traced {
    pub out: OpOut,
    /// Host seconds of the calls the untraced op makes, traced.
    pub op_secs: f64,
    /// Per-layer metrics of this op (see [`crate::metrics::PER_LAYER`]).
    pub layers: Vec<(&'static str, f64)>,
    /// The op's seconds split by layer; the parts sum to `op_secs`.
    pub parts: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Whether an op is short enough (under ~2 s) that setup ends with an
    /// untimed warm-up op.
    fn warm_up(&self) -> bool {
        true
    }

    /// Runs one op, timing it with `clock`.
    fn op(&mut self, clock: &mut Clock) -> Result<OpOut, String>;

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<Traced, String>;
}

/// Builds workload `name`'s inputs from `seed`, recording setup spans.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-alexnet" => Box::new(SimNet::setup(seed, size, tr)),
        "runtime-faults" => Box::new(RuntimeFaults::setup(seed, size, tr)?),
        "serve-openloop" => Box::new(ServeOpenLoop::setup(seed, size, tr)?),
        "fleet-faults" => Box::new(FleetFaults::setup(seed, size, tr)?),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}

fn check(name: impl Into<String>, value: u64) -> (String, u64) {
    (name.into(), value)
}

/// The mix's templates as the R3/R5 experiments calibrate them.
fn template_specs(seed: u64) -> Vec<JobSpec> {
    Mix::Quick
        .templates()
        .iter()
        .map(|(network, profile)| JobSpec {
            network: network.to_string(),
            profile: profile.to_string(),
            objective: Objective::Edp,
            priority: Priority::Normal,
            seed,
        })
        .collect()
}

/// Tenant slots per fabric, as `serve --open-loop` and the fleet default.
const SLOTS: usize = 4;

// ---------------------------------------------------------------- sim-alexnet

/// `mocha-sim simulate alexnet`: one verified whole-network simulation.
struct SimNet {
    sim: Simulator,
    inputs: model::Workload,
}

impl SimNet {
    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let net = match size {
            Size::Full => network::alexnet(),
            Size::Smoke => network::tiny(),
        };
        let inputs = tr.span("model.generate", |_| {
            model::Workload::generate(net, SparsityProfile::NOMINAL, seed)
        });
        SimNet {
            sim: Simulator::new(Accelerator::mocha(Objective::Edp)),
            inputs,
        }
    }

    fn checks(&self, run: &mocha::core::RunMetrics) -> Vec<(String, u64)> {
        let report = run.report(&self.sim.energy);
        vec![
            check("cycles", run.cycles()),
            check("energy_pj_bits", report.energy.total_pj().to_bits()),
            check("dram_bytes", run.events().dram_bytes()),
            check("groups", run.groups.len() as u64),
        ]
    }
}

impl Workload for SimNet {
    fn warm_up(&self) -> bool {
        false
    }

    fn op(&mut self, clock: &mut Clock) -> Result<OpOut, String> {
        // Exactly what `Simulator::run` does, timed one fusion group at a
        // time: an op lasts ~10 s, longer than the host's contention holds
        // still, so the speed probe runs between groups. Verification is
        // on: a golden divergence panics, which the caller counts as a
        // failed op.
        let mut s = clock.time(|| Session::new(self.sim.clone(), self.inputs.clone()));
        while !s.done() {
            clock.time(|| {
                s.step();
            });
        }
        let run = s.finish();
        Ok(OpOut {
            work: run.work_macs() as f64 / 1e6,
            checks: self.checks(&run),
        })
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<Traced, String> {
        let fabric = self.sim.accelerator.fabric;
        let mut cache = DecisionCache::new();
        // The op itself, stepped as a session over a fresh decision cache.
        let (cold, delta) = tr.span("op", |tr| {
            let mut s = tr.span("sim.golden", |_| {
                Session::new(self.sim.clone(), self.inputs.clone())
            });
            let mut shard = DecisionShard::new(&cache);
            while !s.done() {
                tr.span("sim.step_cold", |_| {
                    s.step_on_shard(&fabric, &mut shard);
                });
            }
            (s.finish(), shard.into_delta())
        });
        cache.absorb(delta, &mut NoopRecorder);
        // The same steps replayed on the warmed cache: no controller search.
        let mut maps = vec![self.inputs.input.data().to_vec()];
        let warm = tr.span("replay", |tr| {
            let mut s = tr.span("sim.golden_replay", |_| {
                Session::new(self.sim.clone(), self.inputs.clone())
            });
            let mut shard = DecisionShard::new(&cache);
            while !s.done() {
                tr.span("sim.step_warm", |_| {
                    s.step_on_shard(&fabric, &mut shard);
                });
                maps.push(s.output().data().to_vec());
            }
            s.finish()
        });
        let checks = self.checks(&cold);
        if self.checks(&warm) != checks {
            return Err("warm replay diverged from the cold run".into());
        }
        // The codecs over this workload's kernels and verified feature maps.
        let kernels = self.inputs.kernels.iter().flatten().map(|k| k.data());
        let streams: Vec<&[i8]> = kernels.chain(maps.iter().map(Vec::as_slice)).collect();
        let bytes = tr.span("compress.size", |_| {
            let mut encoded = 0;
            for s in &streams {
                encoded += zrle::encoded_size(black_box(s))
                    + nibble::encoded_size(black_box(s))
                    + bitmask::encoded_size(black_box(s));
            }
            black_box(encoded);
            3 * streams.iter().map(|s| s.len()).sum::<usize>()
        });

        let (op, golden) = (tr.total("op"), tr.total("sim.golden"));
        let (step_cold, step_warm) = (tr.total("sim.step_cold"), tr.total("sim.step_warm"));
        let controller = step_cold - step_warm;
        let candidates: usize = cold.groups.iter().map(|g| g.candidates).sum();
        Ok(Traced {
            out: OpOut {
                work: cold.work_macs() as f64 / 1e6,
                checks,
            },
            op_secs: op,
            layers: vec![
                ("sim.golden_s", golden),
                ("sim.controller_s", controller),
                ("sim.candidates", candidates as f64),
                (
                    "sim.controller_us_per_candidate",
                    controller * 1e6 / candidates.max(1) as f64,
                ),
                ("sim.exec_s", step_warm),
                ("sim.groups", cold.groups.len() as f64),
                (
                    "compress.size_mb_s",
                    bytes as f64 / 1e6 / tr.total("compress.size"),
                ),
            ],
            parts: vec![
                ("sim.golden", golden),
                ("sim.controller", controller),
                ("sim.exec", step_warm),
                ("other", op - golden - step_cold),
            ],
        })
    }
}

// ------------------------------------------------------------- runtime-faults

/// `mocha-sim runtime --jobs 16 --load 3.0 --faults rate=15,seed=N --obs F`
/// followed by `mocha-sim trace summary F`.
struct RuntimeFaults {
    cfg: RuntimeConfig,
    subs: Vec<Submission>,
}

impl RuntimeFaults {
    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        let jobs = match size {
            Size::Full => 16,
            Size::Smoke => 2,
        };
        let subs = tr.span("runtime.generate", |_| {
            runtime::generate(&runtime::TrafficConfig {
                jobs,
                load: 3.0,
                seed,
                mix: Mix::Quick,
            })
        });
        let cfg = RuntimeConfig {
            faults: Some(FaultPlan::parse(&format!("rate=15,seed={seed}"))?),
            ..RuntimeConfig::default()
        };
        Ok(RuntimeFaults { cfg, subs })
    }

    /// Checks conservation and that the stream profiles, and returns the
    /// exact values every op must repeat.
    fn checks(
        &self,
        report: &RuntimeReport,
        rec: &MemRecorder,
        stream: &str,
        profile: &Profile,
    ) -> Result<Vec<(String, u64)>, String> {
        let admitted = rec.counter(names::RUNTIME_JOBS_ADMITTED);
        let finished = rec.counter(names::RUNTIME_JOBS_FINISHED);
        let failed = rec.counter(names::RUNTIME_JOBS_FAILED);
        // Every job has left the fabric when the run returns: in_flight = 0.
        if admitted != finished + failed || admitted != self.subs.len() as u64 {
            return Err(format!(
                "admitted {admitted} != finished {finished} + failed {failed} (+ 0 in flight) \
                 for {} jobs",
                self.subs.len()
            ));
        }
        if report.completed() as u64 != finished || report.failed as u64 != failed {
            return Err("report disagrees with the recorder's job counters".into());
        }
        if profile.jobs != finished {
            return Err(format!(
                "profile saw {} jobs, {finished} finished",
                profile.jobs
            ));
        }
        let mut h = Fnv::new();
        h.u64(report.horizon)
            .u64(report.retried as u64)
            .u64(report.failed as u64);
        for j in &report.jobs {
            h.u64(j.id)
                .u64(j.arrival)
                .u64(j.admitted)
                .u64(j.finished)
                .u64(j.groups as u64)
                .u64(j.remorphs as u64)
                .u64(j.retries as u64)
                .u64(j.busy_cycles)
                .u64(j.energy_pj.to_bits())
                .u64(j.output_hash);
        }
        Ok(vec![
            check("report_hash", h.finish()),
            check("stream_hash", Fnv::new().bytes(stream.as_bytes()).finish()),
            check("completed", finished),
            check("failed", failed),
            check("profile_groups", profile.groups),
            check("profile_makespan", profile.makespan),
        ])
    }
}

impl Workload for RuntimeFaults {
    fn op(&mut self, clock: &mut Clock) -> Result<OpOut, String> {
        clock.time(|| {
            let mut rec = MemRecorder::new();
            let report = runtime::run_with(&self.cfg, &self.subs, &mut rec);
            let stream = rec.to_jsonl();
            let (profile, _) = mocha::trace::profile_input(&stream, &EnergyTable::default())
                .map_err(|e| format!("stream does not profile: {e}"))?;
            Ok(OpOut {
                work: self.subs.len() as f64,
                checks: self.checks(&report, &rec, &stream, &profile)?,
            })
        })
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<Traced, String> {
        let (cfg, subs) = (&self.cfg, &self.subs);
        let (report, rec, stream, profile) = tr.span("op", |tr| {
            let mut rec = MemRecorder::new();
            let report = tr.span("runtime.run", |_| runtime::run_with(cfg, subs, &mut rec));
            let stream = tr.span("obs.export", |_| rec.to_jsonl());
            let parsed = tr.span("trace.parse", |_| parse_input(&stream));
            let profile = tr.span("trace.profile", |_| {
                let parsed = parsed?;
                let tree = SpanTree::build(&parsed.spans)?;
                Ok(Profile::build(&tree, &parsed, &EnergyTable::default()).0)
            });
            (report, rec, stream, profile)
        });
        let profile = profile
            .map_err(|e: mocha::trace::TraceError| format!("stream does not profile: {e}"))?;
        let checks = self.checks(&report, &rec, &stream, &profile)?;
        // Extra calls: the same run without verification, and without
        // recording.
        let unverified = RuntimeConfig {
            verify: false,
            ..cfg.clone()
        };
        tr.span("runtime.run_noverify", |_| {
            black_box(runtime::run_with(
                &unverified,
                subs,
                &mut MemRecorder::new(),
            ))
        });
        tr.span("runtime.run_noop", |_| black_box(runtime::run(cfg, subs)));

        let run = tr.total("runtime.run");
        let verify = run - tr.total("runtime.run_noverify");
        let hist = run - tr.total("runtime.run_noop");
        let (export, parse, prof) = (
            tr.total("obs.export"),
            tr.total("trace.parse"),
            tr.total("trace.profile"),
        );
        let op = tr.total("op");
        let groups = rec.counter(names::RUNTIME_GROUPS_STEPPED);
        Ok(Traced {
            out: OpOut {
                work: subs.len() as f64,
                checks,
            },
            op_secs: op,
            layers: vec![
                ("runtime.run_s", run),
                ("runtime.verify_s", verify),
                ("runtime.us_per_group", run * 1e6 / groups.max(1) as f64),
                ("runtime.groups_stepped", groups as f64),
                (
                    "runtime.remorphs",
                    rec.counter(names::RUNTIME_REMORPHS) as f64,
                ),
                ("fault.injected", rec.counter(names::FAULT_INJECTED) as f64),
                ("fault.retries", rec.counter(names::FAULT_RETRIES) as f64),
                (
                    "fault.quarantined",
                    rec.counter(names::FAULT_QUARANTINED) as f64,
                ),
                ("obs.hist_s", hist),
                ("obs.export_s", export),
                ("trace.parse_s", parse),
                ("trace.profile_s", prof),
            ],
            parts: vec![
                ("runtime.verify", verify),
                ("obs.record", hist),
                ("runtime.sched+sim", run - verify - hist),
                ("obs.export", export),
                ("trace.parse", parse),
                ("trace.profile", prof),
                ("other", op - run - export - parse - prof),
            ],
        })
    }
}

// ------------------------------------------------------------- serve-openloop

const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const SHEDS: [ShedPolicy; 2] = [ShedPolicy::None, ShedPolicy::Deadline];

/// `mocha-sim serve --open-loop` over a 200k-request trace at every point of
/// offered load × shed policy. One op sweeps all eight points, so every op
/// does the same work: per-point ops would put the median on the boundary
/// between cheap low-load and costly high-load points.
struct ServeOpenLoop {
    fabric: FabricConfig,
    /// Per load: the trace and each request's calibrated service time.
    traces: Vec<(Vec<Request>, Vec<u64>)>,
}

/// The conservation every open-loop point must satisfy.
fn conserved(
    point: &str,
    offered: usize,
    admitted: usize,
    shed: usize,
    completed: usize,
    failed: usize,
) -> Result<(), String> {
    if offered != admitted + shed || admitted != completed + failed {
        return Err(format!(
            "{point}: offered {offered}, admitted {admitted}, shed {shed}, \
             completed {completed}, failed {failed} do not conserve"
        ));
    }
    Ok(())
}

impl ServeOpenLoop {
    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        let requests = match size {
            Size::Full => 200_000,
            Size::Smoke => 2_000,
        };
        let fabric = FabricConfig::mocha_quad();
        let cal = tr.span("serve.calibrate", |_| {
            Calibration::measure(&fabric, SLOTS, &template_specs(seed), Engine::configured())
        })?;
        // R3's SLO: four mean calibrated service times.
        let slo = 4 * cal.mean_service();
        let traces = tr.span("serve.traffic", |_| {
            LOADS
                .iter()
                .map(|&load| {
                    let trace = traffic::generate(&traffic::OpenLoopConfig {
                        requests,
                        tenants: 400,
                        load,
                        seed,
                        mix: Mix::Quick,
                        slo: Some(slo),
                    });
                    let services = trace.iter().map(|r| cal.service(&r.spec)).collect();
                    (trace, services)
                })
                .collect()
        });
        Ok(ServeOpenLoop { fabric, traces })
    }

    /// Every (label, parameters, trace, services) point of a sweep.
    fn points(&self) -> Vec<(String, OpenLoopParams<'_>, &[Request], &[u64])> {
        let mut points = Vec::new();
        for (&load, (trace, services)) in LOADS.iter().zip(&self.traces) {
            for shed in SHEDS {
                let params = OpenLoopParams {
                    fabric: &self.fabric,
                    slots: SLOTS,
                    shed,
                    faults: None,
                    record_spans: false,
                };
                let label = format!("load{load}-{}", shed.name());
                points.push((label, params, trace.as_slice(), services.as_slice()));
            }
        }
        points
    }

    /// Checks one point's report and appends its exact values to `out`.
    fn record_point(label: &str, r: &OpenLoopReport, out: &mut OpOut) -> Result<(), String> {
        conserved(label, r.offered, r.admitted, r.shed, r.completed, r.failed)?;
        out.work += r.offered as f64 / 1e6;
        out.checks.extend([
            check(format!("{label}.admitted"), r.admitted as u64),
            check(format!("{label}.shed"), r.shed as u64),
            check(format!("{label}.in_slo"), r.in_slo as u64),
            check(format!("{label}.horizon"), r.horizon),
            check(format!("{label}.p99"), r.latency_percentile(99.0)),
        ]);
        Ok(())
    }
}

impl Workload for ServeOpenLoop {
    fn op(&mut self, clock: &mut Clock) -> Result<OpOut, String> {
        clock.time(|| {
            let mut out = OpOut::default();
            for (label, params, trace, services) in self.points() {
                let (r, _) = run_open_loop(&params, trace, services, &mut MemRecorder::new());
                Self::record_point(&label, &r, &mut out)?;
            }
            Ok(out)
        })
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<Traced, String> {
        let points = self.points();
        let recorded: Vec<OpenLoopReport> = tr.span("op", |tr| {
            points
                .iter()
                .map(|(_, params, trace, services)| {
                    tr.span("serve.openloop", |_| {
                        run_open_loop(params, trace, services, &mut MemRecorder::new()).0
                    })
                })
                .collect()
        });
        let mut out = OpOut::default();
        let (mut admitted, mut shed, mut requests) = (0, 0, 0);
        for ((label, params, trace, services), r) in points.iter().zip(&recorded) {
            let bare = tr.span("serve.queue", |_| {
                run_open_loop(params, trace, services, &mut NoopRecorder).0
            });
            if bare != *r {
                return Err(format!("{label}: recording changed the report"));
            }
            Self::record_point(label, r, &mut out)?;
            (admitted, shed, requests) =
                (admitted + r.admitted, shed + r.shed, requests + r.offered);
        }
        let queue = tr.total("serve.queue");
        let hist = tr.total("serve.openloop") - queue;
        let op = tr.total("op");
        Ok(Traced {
            out,
            op_secs: op,
            layers: vec![
                ("serve.queue_s", queue),
                ("obs.hist_s", hist),
                ("serve.ns_per_request", queue * 1e9 / requests as f64),
                ("serve.admitted", admitted as f64),
                ("serve.shed", shed as f64),
            ],
            parts: vec![
                ("serve.queue", queue),
                ("obs.hist", hist),
                ("other", op - queue - hist),
            ],
        })
    }
}

// --------------------------------------------------------------- fleet-faults

const RATES: [f64; 3] = [0.0, 0.1, 0.2];

/// `mocha-sim fleet --open-loop --fleet preset=quad/preset=mocha,count=2
/// --shed-policy deadline` over a 100k-request trace at every point of
/// per-shard fault rate × route; one op sweeps all nine points.
struct FleetFaults {
    fleet: FleetSpec,
    trace: Vec<Request>,
    /// Per shard, each request's calibrated service time.
    services: Vec<Vec<u64>>,
    plans: Vec<Option<FaultPlan>>,
    cold_penalty: u64,
    seed: u64,
}

impl FleetFaults {
    fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Self, String> {
        let requests = match size {
            Size::Full => 100_000,
            Size::Smoke => 2_000,
        };
        let fleet = FleetSpec::parse("preset=quad/preset=mocha,count=2")?;
        let specs = template_specs(seed);
        // One calibration per distinct shard geometry, as the CLI does.
        let cals = tr.span("serve.calibrate", |_| {
            let mut cals: Vec<(FabricConfig, Calibration)> = Vec::new();
            for shard in fleet.shards() {
                if !cals.iter().any(|(f, _)| *f == shard.fabric) {
                    let cal =
                        Calibration::measure(&shard.fabric, SLOTS, &specs, Engine::configured())?;
                    cals.push((shard.fabric, cal));
                }
            }
            Ok::<_, String>(cals)
        })?;
        // R5's SLO and cold penalty, scaled by the slowest geometry.
        let slowest = cals
            .iter()
            .map(|(_, c)| c.mean_service())
            .max()
            .ok_or("empty fleet")?;
        let (trace, services) = tr.span("serve.traffic", |_| {
            let trace = traffic::generate(&traffic::OpenLoopConfig {
                requests,
                tenants: 400,
                load: 2.0,
                seed,
                mix: Mix::Quick,
                slo: Some(4 * slowest),
            });
            let services: Vec<Vec<u64>> = fleet
                .shards()
                .iter()
                .map(|sh| {
                    let (_, cal) = cals
                        .iter()
                        .find(|(f, _)| *f == sh.fabric)
                        .expect("every geometry calibrated above");
                    trace.iter().map(|r| cal.service(&r.spec)).collect()
                })
                .collect();
            (trace, services)
        });
        let plans = RATES
            .iter()
            .map(|&rate| {
                (rate > 0.0)
                    .then(|| FaultPlan::parse(&format!("rate={rate},seed={seed},transient=0.3")))
                    .transpose()
            })
            .collect::<Result<_, _>>()?;
        Ok(FleetFaults {
            fleet,
            trace,
            services,
            plans,
            cold_penalty: slowest / 4,
            seed,
        })
    }

    /// Every (label, parameters) point of a sweep.
    fn points(&self) -> Vec<(String, FleetOpenLoopParams<'_>)> {
        let mut points = Vec::new();
        for (&rate, plan) in RATES.iter().zip(&self.plans) {
            for route in RouteKind::all() {
                let params = FleetOpenLoopParams {
                    fleet: &self.fleet,
                    slots: SLOTS,
                    shed: ShedPolicy::Deadline,
                    route,
                    route_seed: self.seed,
                    faults: plan.as_ref(),
                    cold_penalty: self.cold_penalty,
                    record_spans: false,
                };
                points.push((format!("rate{rate}-{}", route.name()), params));
            }
        }
        points
    }

    /// Checks one point's report and appends its exact values to `out`.
    fn record_point(label: &str, r: &FleetOpenLoopReport, out: &mut OpOut) -> Result<(), String> {
        conserved(label, r.offered, r.admitted, r.shed, r.completed, r.failed)?;
        let reb_in: usize = r.shards.iter().map(|s| s.rebalanced_in).sum();
        let reb_out: usize = r.shards.iter().map(|s| s.rebalanced_out).sum();
        if reb_in != reb_out || reb_in != r.rebalanced || !r.shards.iter().all(|s| s.conserved()) {
            return Err(format!(
                "{label}: re-balanced in {reb_in}, out {reb_out}, total {}, or a shard's \
                 jobs do not conserve",
                r.rebalanced
            ));
        }
        out.work += r.offered as f64 / 1e6;
        out.checks.extend([
            check(format!("{label}.admitted"), r.admitted as u64),
            check(format!("{label}.shed"), r.shed as u64),
            check(format!("{label}.failed"), r.failed as u64),
            check(format!("{label}.rebalanced"), r.rebalanced as u64),
            check(format!("{label}.cold"), r.cold_misses as u64),
            check(format!("{label}.quarantined"), r.quarantined as u64),
            check(format!("{label}.horizon"), r.horizon),
            check(format!("{label}.p99"), r.latency_percentile(99.0)),
        ]);
        Ok(())
    }
}

impl Workload for FleetFaults {
    fn op(&mut self, clock: &mut Clock) -> Result<OpOut, String> {
        clock.time(|| {
            let mut out = OpOut::default();
            for (label, params) in self.points() {
                let mut rec = MemRecorder::new();
                let (r, _) = run_fleet_open_loop(&params, &self.trace, &self.services, &mut rec);
                Self::record_point(&label, &r, &mut out)?;
            }
            Ok(out)
        })
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<Traced, String> {
        let points = self.points();
        let (trace, services) = (&self.trace, &self.services);
        let recorded: Vec<FleetOpenLoopReport> = tr.span("op", |tr| {
            points
                .iter()
                .map(|(_, params)| {
                    tr.span("fleet.openloop", |_| {
                        run_fleet_open_loop(params, trace, services, &mut MemRecorder::new()).0
                    })
                })
                .collect()
        });
        let mut out = OpOut::default();
        let mut counts = [0usize; 4];
        for ((label, params), r) in points.iter().zip(&recorded) {
            let bare = tr.span("fleet.queue", |_| {
                run_fleet_open_loop(params, trace, services, &mut NoopRecorder).0
            });
            if bare != *r {
                return Err(format!("{label}: recording changed the report"));
            }
            Self::record_point(label, r, &mut out)?;
            for (c, v) in counts.iter_mut().zip([
                r.rebalanced,
                r.cold_misses,
                r.faults_injected,
                r.quarantined,
            ]) {
                *c += v;
            }
        }
        let queue = tr.total("fleet.queue");
        let hist = tr.total("fleet.openloop") - queue;
        let op = tr.total("op");
        let requests = (points.len() * trace.len()) as f64;
        let [rebalanced, cold, injected, quarantined] = counts.map(|c| c as f64);
        Ok(Traced {
            out,
            op_secs: op,
            layers: vec![
                ("fleet.queue_s", queue),
                ("obs.hist_s", hist),
                ("fleet.ns_per_request", queue * 1e9 / requests),
                ("fleet.rebalanced", rebalanced),
                ("fleet.cold", cold),
                ("fault.injected", injected),
                ("fault.quarantined", quarantined),
            ],
            parts: vec![
                ("fleet.queue", queue),
                ("obs.hist", hist),
                ("other", op - queue - hist),
            ],
        })
    }
}
