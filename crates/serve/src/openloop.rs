//! The deterministic open-loop queueing engine behind experiments R3 and R5.
//!
//! Arrivals from a [`Request`] trace are admitted onto `c` tenant slots per
//! shard — FIFO per slot, earliest-free-slot placement: the classic
//! `c`-server FIFO queue — where each admitted request holds its slot for
//! its *calibrated* service time ([`crate::calibrate`]). This queueing-level
//! model keeps 10⁵-request load sweeps tractable while preserving exactly
//! what R3 studies — queueing delay, deadline misses, shed rate, goodput —
//! and the calibration ties its service times to the real simulator.
//!
//! One engine serves both front ends and fills one [`OpenLoopReport`].
//! [`run_open_loop`] is its one-shard case: one fabric, no routing, no cold
//! penalty. [`run_fleet_open_loop`] runs it over the N heterogeneous shards
//! of a [`FleetSpec`], routing each arrival with a [`RoutePolicy`]; with
//! routing on, the first job of a template on a shard pays a cold
//! decision-cache penalty.
//!
//! Faults compose as in the runtime: each shard's seeded [`FaultTimeline`]
//! interleaves with arrivals; a fault on a busy slot discards the attempt
//! in progress (bounded retries, then the job fails), and a *permanent*
//! fault admitted by the shard's [`Quarantine`] shrinks its carve window,
//! clears its template warmth and evicts excess slots, whose residents are
//! re-homed through the router. Fewer slots ⇒ later predicted starts ⇒
//! more sheds: shedding reacts to capacity loss with no extra coupling.
//! Shard `s` of a fleet runs the fault plan with its seed stepped by
//! [`shard_seed`], so fault domains are independent.
//!
//! A run is a sequential pure function of `(trace, services, policies,
//! fault plans)`: byte-identical at any worker count, which is what lets
//! `ci.sh` gate R3 and R5 across `--threads 1/2/8`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mocha_fabric::FabricConfig;
use mocha_fault::{FaultEvent, FaultKind, FaultPlan, FaultTimeline, Quarantine};
use mocha_json::{ToJson, Value};
use mocha_obs::{names, nearest_rank, Recorder};
use mocha_runtime::lease;
use mocha_runtime::scheduler::kind_counter;

use crate::route::{template_ids, RouteKind, RoutePolicy, ShardView};
use crate::shed::ShedPolicy;
use crate::spec::{shard_seed, FleetSpec};
use crate::traffic::Request;

/// Open-loop simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopParams<'a> {
    /// The parent fabric slots are carved from.
    pub fabric: &'a FabricConfig,
    /// Requested tenant slots (clamped to what the fabric can host).
    pub slots: usize,
    /// Admission-control policy.
    pub shed: ShedPolicy,
    /// Optional fault schedule; permanent faults shrink capacity via
    /// quarantine, exactly composing with shedding.
    pub faults: Option<&'a FaultPlan>,
    /// Record per-request `job/<idx>` spans and `fault/<kind>` lost-work
    /// spans (queue-depth and latency histograms are always recorded).
    pub record_spans: bool,
}

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

/// Per-request fate, indexed like the input trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Shed at admission; never ran.
    Shed,
    /// Completed: first service start and finish cycles.
    Done {
        /// Cycle the first service attempt began.
        start: u64,
        /// Completion cycle.
        finish: u64,
    },
    /// Admitted but dropped after exhausting its fault-retry budget.
    Failed {
        /// Cycle of the fault that exhausted the budget.
        at: u64,
    },
}

/// Aggregate outcome of one open-loop run, on one fabric or over a fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopReport {
    /// Routing policy name; `None` on a single fabric.
    pub route: Option<&'static str>,
    /// Shed policy name.
    pub policy: String,
    /// Tenant slots the run started with, summed over shards.
    pub servers: usize,
    /// Per-shard tallies in canonical shard order (one on a single fabric).
    pub shards: Vec<ShardStats>,
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
    /// Completions that finished past their deadline.
    pub deadline_misses: usize,
    /// Completions within their deadline (all completions when a request
    /// has no deadline).
    pub in_slo: usize,
    /// Cross-shard migrations triggered by quarantines.
    pub rebalanced: usize,
    /// Admissions that paid the cold penalty (0 without routing).
    pub cold_misses: usize,
    /// Admissions onto a warm (template, shard) pair (0 without routing).
    pub warm_hits: usize,
    /// Last simulated cycle (max of arrivals and completions).
    pub horizon: u64,
    /// Slot-cycles spent on successful service attempts.
    pub busy_cycles: u64,
    /// Slot-cycles discarded to faults (interrupted attempts).
    pub lost_cycles: u64,
    /// Fault events drawn across all shard timelines.
    pub faults_injected: usize,
    /// Permanent faults admitted into quarantine across all shards.
    pub quarantined: usize,
    /// Mean first-start queue wait over completions, cycles.
    pub mean_queue_wait: f64,
    /// Every fault event drawn, sorted by `(cycle, shard)`: `(cycle, kind
    /// name)`. Feeds the fault-kind dimension of windowed telemetry; not
    /// part of the JSON report (which keeps its pre-telemetry byte shape).
    pub fault_log: Vec<(u64, &'static str)>,
    /// Latencies merged over shards, sorted; empty with one shard, whose
    /// own sorted latencies serve instead.
    merged: Vec<u64>,
}

impl OpenLoopReport {
    /// Completion latencies over every shard, sorted.
    fn latencies(&self) -> &[u64] {
        match self.shards.as_slice() {
            [only] => only.latencies(),
            _ => &self.merged,
        }
    }

    /// Nearest-rank latency percentile over completions (0 when none).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        nearest_rank(self.latencies(), p)
    }

    /// In-SLO completions per million cycles of horizon — the goodput R3
    /// plots against offered load.
    pub fn goodput_per_mcycle(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        self.in_slo as f64 * 1e6 / self.horizon as f64
    }

    /// Fraction of slot-cycles spent serving (successful or discarded
    /// attempts), over the initial slot count.
    pub fn utilization(&self) -> f64 {
        if self.horizon == 0 || self.servers == 0 {
            return 0.0;
        }
        (self.busy_cycles + self.lost_cycles) as f64 / (self.horizon * self.servers as u64) as f64
    }
}

impl ToJson for OpenLoopReport {
    /// The shared aggregates, plus `open_loop`/`servers` on a single
    /// fabric or the fleet's routing keys and shard table.
    fn to_json(&self) -> Value {
        let shared = mocha_json::jobj! {
            "policy" => self.policy.as_str(),
            "offered" => self.offered as u64,
            "admitted" => self.admitted as u64,
            "shed" => self.shed as u64,
            "completed" => self.completed as u64,
            "failed" => self.failed as u64,
            "deadline_misses" => self.deadline_misses as u64,
            "in_slo" => self.in_slo as u64,
            "horizon" => self.horizon,
            "busy_cycles" => self.busy_cycles,
            "lost_cycles" => self.lost_cycles,
            "faults_injected" => self.faults_injected as u64,
            "quarantined" => self.quarantined as u64,
            "goodput_per_mcycle" => self.goodput_per_mcycle(),
            "latency_p50" => self.latency_percentile(50.0),
            "latency_p95" => self.latency_percentile(95.0),
            "latency_p99" => self.latency_percentile(99.0),
            "mean_queue_wait" => self.mean_queue_wait,
            "utilization" => self.utilization(),
        };
        match self.route {
            None => shared
                .with("open_loop", true)
                .with("servers", self.servers as u64),
            Some(route) => shared
                .with("fleet", true)
                .with("route", route)
                .with("shards", &self.shards)
                .with("rebalanced", self.rebalanced as u64)
                .with("cold_misses", self.cold_misses as u64)
                .with("warm_hits", self.warm_hits as u64),
        }
    }
}

/// Runs the open-loop simulation over a trace on one fabric. `services[i]`
/// is the calibrated slot service time of `requests[i]` (see
/// [`Calibration::service`](crate::Calibration::service)). Returns the
/// aggregate report and the per-request outcomes in trace order.
pub fn run_open_loop<R: Recorder>(
    p: &OpenLoopParams,
    requests: &[Request],
    services: &[u64],
    rec: &mut R,
) -> (OpenLoopReport, Vec<RequestOutcome>) {
    let shard = ShardSetup {
        label: String::new(),
        fabric: *p.fabric,
        services,
        faults: p.faults.map(|plan| FaultTimeline::new(plan, p.fabric)),
    };
    let setup = EngineSetup {
        shards: vec![shard],
        slots: p.slots,
        shed: p.shed,
        max_retries: p.faults.map_or(0, |plan| plan.max_retries),
        record_spans: p.record_spans,
        routing: None,
        cold_penalty: 0,
    };
    run_shards(setup, requests, rec)
}

/// Runs the fleet open-loop simulation. `services[s][i]` is the calibrated
/// service time of request `i` on shard `s` (see
/// [`FleetSpec::calibrate`]). Returns the aggregate report and the
/// per-request outcomes in trace order.
pub fn run_fleet_open_loop<R: Recorder>(
    p: &FleetOpenLoopParams,
    requests: &[Request],
    services: &[Vec<u64>],
    rec: &mut R,
) -> (OpenLoopReport, Vec<RequestOutcome>) {
    assert_eq!(services.len(), p.fleet.len(), "one service table per shard");
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
        })
        .collect();
    let setup = EngineSetup {
        shards,
        slots: p.slots,
        shed: p.shed,
        max_retries: p.faults.map_or(0, |plan| plan.max_retries),
        record_spans: p.record_spans,
        routing: Some(p.route.policy(p.fleet.len(), p.route_seed)),
        cold_penalty: p.cold_penalty,
    };
    run_shards(setup, requests, rec)
}

/// One shard of an engine run.
struct ShardSetup<'a> {
    /// Label carried into the shard's [`ShardStats`].
    label: String,
    /// Geometry the shard's tenant slots are carved from.
    fabric: FabricConfig,
    /// Calibrated service time of every request on this shard.
    services: &'a [u64],
    /// This shard's fault schedule, if any.
    faults: Option<FaultTimeline>,
}

/// Everything one engine run needs besides the trace.
struct EngineSetup<'a> {
    /// The shards, in canonical order.
    shards: Vec<ShardSetup<'a>>,
    /// Requested tenant slots per shard (clamped per shard to what its
    /// fabric can host).
    slots: usize,
    /// Admission-control policy, applied on the routed shard.
    shed: ShedPolicy,
    /// Attempts a job may lose to faults before it fails.
    max_retries: usize,
    /// Record per-request job spans and lost-work fault spans.
    record_spans: bool,
    /// Picks each arrival's shard and re-homes jobs evicted by quarantine
    /// (consulted only with more than one shard), and turns on template
    /// warmth, the `fleet/shard<s>/` span roots, the per-shard depth
    /// histogram and the `fleet.*` totals. `None` sends every arrival to
    /// the only shard.
    routing: Option<Box<dyn RoutePolicy>>,
    /// Extra cycles a template's first admission on a shard pays; charged
    /// only with routing.
    cold_penalty: u64,
}

/// Per-shard tallies of one engine run, in canonical shard order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard label (`16x16/32b`; empty on a single fabric).
    pub label: String,
    /// Tenant slots the shard started with.
    pub servers: usize,
    /// Requests the router sent here (including ones shed at admission).
    pub routed: usize,
    /// Requests shed at this shard's admission gate.
    pub shed: usize,
    /// Jobs that completed here (including re-balanced arrivals).
    pub completed: usize,
    /// Jobs that exhausted their fault-retry budget here.
    pub failed: usize,
    /// Jobs still queued when the simulation ended (always 0 today: the
    /// final drain retires everything; kept explicit for the conservation
    /// identity).
    pub in_flight: usize,
    /// Jobs that migrated *in* from a quarantined shard.
    pub rebalanced_in: usize,
    /// Jobs that migrated *out* when this shard quarantined.
    pub rebalanced_out: usize,
    /// Fault events drawn from this shard's timeline.
    pub faults_injected: usize,
    /// Permanent faults admitted into this shard's quarantine.
    pub quarantined: usize,
    /// Slot-cycles spent on successful service attempts.
    pub busy_cycles: u64,
    /// Slot-cycles discarded to faults.
    pub lost_cycles: u64,
    latencies: Vec<u64>, // sorted
}

impl ShardStats {
    /// Nearest-rank latency percentile over this shard's completions.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        nearest_rank(&self.latencies, p)
    }

    /// This shard's completion latencies, sorted.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Per-shard conservation: everything routed or migrated in was shed,
    /// finished, failed, migrated out, or is still in flight.
    pub fn conserved(&self) -> bool {
        self.routed + self.rebalanced_in
            == self.shed + self.completed + self.failed + self.rebalanced_out + self.in_flight
    }
}

impl ToJson for ShardStats {
    fn to_json(&self) -> Value {
        mocha_json::jobj! {
            "label" => self.label.as_str(),
            "servers" => self.servers as u64,
            "routed" => self.routed as u64,
            "shed" => self.shed as u64,
            "completed" => self.completed as u64,
            "failed" => self.failed as u64,
            "in_flight" => self.in_flight as u64,
            "rebalanced_in" => self.rebalanced_in as u64,
            "rebalanced_out" => self.rebalanced_out as u64,
            "faults_injected" => self.faults_injected as u64,
            "quarantined" => self.quarantined as u64,
            "busy_cycles" => self.busy_cycles,
            "lost_cycles" => self.lost_cycles,
            "latency_p99" => self.latency_percentile(99.0),
        }
    }
}

/// One admitted request somewhere in a slot's FIFO queue.
struct Job {
    idx: usize,
    arrival: u64,
    deadline: u64, // u64::MAX = no SLO
    len: u64,
    /// Current attempt's scheduled start.
    attempt_start: u64,
    /// Current attempt's scheduled completion.
    end: u64,
    /// Start of the *first* attempt, frozen the first time a fault
    /// interrupts the job after it began (queue wait is measured to here).
    first_start: Option<u64>,
    attempts: usize,
}

#[derive(Default)]
struct Slot {
    queue: VecDeque<Job>,
    free_at: u64,
}

struct Shard<'a> {
    setup: ShardSetup<'a>,
    /// Prefix of the shard's `job/<idx>` and `fault/<kind>` span paths.
    span_root: String,
    slots: Vec<Slot>,
    requested: usize,
    quarantine: Quarantine,
    /// Scheduled first-attempt starts of admitted-but-unstarted jobs; its
    /// length after popping elapsed entries is the queue depth. Rebuilt
    /// whenever a fault shifts schedules.
    unstarted: BinaryHeap<Reverse<u64>>,
    /// Per template: has this shard cached its morph decisions?
    warm: Vec<bool>,
    tally: ShardStats,
}

impl Shard<'_> {
    /// Earliest-free slot, ties toward the lowest index.
    #[inline]
    fn argmin_free(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.slots.iter().enumerate() {
            if s.free_at < self.slots[best].free_at {
                best = i;
            }
        }
        best
    }

    /// Queues `job` on slot `j`, starting no earlier than `t`, its arrival
    /// or the slot's backlog.
    #[inline]
    fn place(&mut self, j: usize, mut job: Job, t: u64) {
        let start = t.max(self.slots[j].free_at).max(job.arrival);
        job.attempt_start = start;
        job.end = start + job.len;
        self.slots[j].free_at = job.end;
        if job.first_start.is_none() && start > t {
            self.unstarted.push(Reverse(start));
        }
        self.slots[j].queue.push_back(job);
    }

    /// Queue depth at `t`: admitted jobs whose first start lies after `t`.
    #[inline]
    fn depth_at(&mut self, t: u64) -> usize {
        while let Some(&Reverse(s)) = self.unstarted.peek() {
            if s > t {
                break;
            }
            self.unstarted.pop();
        }
        self.unstarted.len()
    }

    #[inline]
    fn due_fault(&mut self, upto: u64) -> Option<FaultEvent> {
        let tl = self.setup.faults.as_mut()?;
        if tl.peek()?.at > upto {
            return None;
        }
        tl.pop()
    }
}

struct Engine<'a> {
    /// The run's settings; its shard list has moved into `shards`.
    cfg: EngineSetup<'a>,
    shards: Vec<Shard<'a>>,
    /// Reused per routing decision.
    views: Vec<ShardView>,
    /// Template index per request; empty without routing.
    templates: Vec<usize>,
    outcomes: Vec<RequestOutcome>,
    /// The run-wide tallies; per-shard ones live in each shard's `tally`.
    report: OpenLoopReport,
    /// Warm templates dropped by quarantines.
    warm_evictions: usize,
    wait_sum: u64,
    fault_log: Vec<(u64, usize, &'static str)>,
}

/// Runs the open-loop engine over a trace. Every shard's `services` holds
/// one service time per request. Returns the aggregate report and the
/// per-request outcomes in trace order.
fn run_shards<R: Recorder>(
    mut setup: EngineSetup,
    requests: &[Request],
    rec: &mut R,
) -> (OpenLoopReport, Vec<RequestOutcome>) {
    let n = setup.shards.len();
    let routed = setup.routing.is_some();
    assert!(n == 1 || routed, "many shards need routing");
    debug_assert!(requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    let templates = if routed {
        template_ids(requests.iter().map(|r| &r.spec))
    } else {
        Vec::new()
    };
    let warm_len = templates.iter().max().map_or(0, |&t| t + 1);
    let shards = std::mem::take(&mut setup.shards);
    let mut sim = Engine {
        shards: shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                assert_eq!(
                    s.services.len(),
                    requests.len(),
                    "one service time per request"
                );
                let servers = setup.slots.clamp(1, lease::max_tenants(&s.fabric).max(1));
                Shard {
                    setup: s,
                    span_root: if routed {
                        format!("fleet/shard{i}/")
                    } else {
                        String::new()
                    },
                    slots: (0..servers).map(|_| Slot::default()).collect(),
                    requested: servers,
                    quarantine: Quarantine::default(),
                    unstarted: BinaryHeap::new(),
                    warm: vec![false; warm_len],
                    tally: ShardStats {
                        servers,
                        ..ShardStats::default()
                    },
                }
            })
            .collect(),
        views: vec![ShardView::default(); n],
        templates,
        cfg: setup,
        outcomes: vec![RequestOutcome::Shed; requests.len()],
        report: OpenLoopReport::default(),
        warm_evictions: 0,
        wait_sum: 0,
        fault_log: Vec::new(),
    };

    for (i, req) in requests.iter().enumerate() {
        for s in 0..n {
            while let Some(ev) = sim.shards[s].due_fault(req.arrival) {
                sim.apply_fault(s, ev, rec);
            }
        }
        for s in 0..n {
            sim.retire_completed(s, req.arrival, rec);
        }
        sim.admit(i, req, rec);
    }

    // Trailing faults: keep drawing on every shard while events land
    // before the last scheduled completion, so a fault cannot be skipped
    // just because no arrival follows it. Re-balancing can extend another
    // shard's schedule, so sweep until a full pass makes no progress.
    loop {
        let last = sim
            .shards
            .iter()
            .flat_map(|sh| sh.slots.iter().map(|s| s.free_at))
            .max()
            .unwrap_or(0);
        let mut progressed = false;
        for s in 0..n {
            if let Some(ev) = sim.shards[s].due_fault(last) {
                sim.apply_fault(s, ev, rec);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for s in 0..n {
        sim.retire_completed(s, u64::MAX, rec);
    }

    let Engine {
        cfg,
        shards,
        outcomes,
        report: mut r,
        templates,
        warm_evictions,
        wait_sum,
        mut fault_log,
        ..
    } = sim;
    // The per-request template ids are dead: free them before the merge
    // below allocates the fleet-wide latencies, so it adds no peak memory.
    drop(templates);
    fault_log.sort_by_key(|&(at, shard, _)| (at, shard));
    r.fault_log = fault_log.into_iter().map(|(at, _, k)| (at, k)).collect();
    if r.completed > 0 {
        r.mean_queue_wait = wait_sum as f64 / r.completed as f64;
    }
    r.route = cfg.routing.as_ref().map(|policy| policy.name());
    r.policy = cfg.shed.name();
    r.offered = requests.len();
    r.shards = shards
        .into_iter()
        .map(|sh| {
            let mut tally = sh.tally;
            tally.label = sh.setup.label;
            tally.in_flight = sh.slots.iter().map(|s| s.queue.len()).sum();
            tally.latencies.sort_unstable();
            tally
        })
        .collect();
    for sh in &r.shards {
        r.servers += sh.servers;
        r.busy_cycles += sh.busy_cycles;
        r.lost_cycles += sh.lost_cycles;
        r.faults_injected += sh.faults_injected;
        r.quarantined += sh.quarantined;
    }
    if n > 1 {
        r.merged = r
            .shards
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect();
        r.merged.sort_unstable();
    }
    if routed {
        for (name, total) in [
            (names::FLEET_SHARDS, n),
            (names::FLEET_ROUTED, requests.len()),
            (names::FLEET_REBALANCED, r.rebalanced),
            (names::FLEET_COLD_MISSES, r.cold_misses),
            (names::FLEET_WARM_HITS, r.warm_hits),
            (names::FLEET_WARM_EVICTIONS, warm_evictions),
        ] {
            if total > 0 {
                rec.add(name, total as u64);
            }
        }
    }
    let sum = |f: fn(&ShardStats) -> usize| r.shards.iter().map(f).sum::<usize>();
    debug_assert!(r.shards.iter().all(ShardStats::conserved));
    debug_assert_eq!(r.offered, r.admitted + r.shed);
    debug_assert_eq!(r.admitted, r.completed + r.failed + sum(|s| s.in_flight));
    debug_assert_eq!(sum(|s| s.rebalanced_in), sum(|s| s.rebalanced_out));
    (r, outcomes)
}

impl Engine<'_> {
    /// Routes arrival `i`, then admits or sheds it on the chosen shard.
    fn admit<R: Recorder>(&mut self, i: usize, req: &Request, rec: &mut R) {
        let chosen = self.route(i, req.arrival, 0);
        let depth = self.shards[chosen].depth_at(req.arrival);
        rec.add(names::SERVE_REQUESTS, 1);
        rec.sample(names::HIST_SERVE_QUEUE_DEPTH, depth as u64);
        if self.cfg.routing.is_some() {
            rec.sample(names::HIST_FLEET_SHARD_DEPTH, depth as u64);
        }
        self.report.horizon = self.report.horizon.max(req.arrival);
        self.shards[chosen].tally.routed += 1;
        let (service, cold) = self.costed(chosen, i);
        let sh = &mut self.shards[chosen];
        let j = sh.argmin_free();
        let start = req.arrival.max(sh.slots[j].free_at);
        let deadline = req.deadline.unwrap_or(u64::MAX);
        let finish = start.saturating_add(service);
        let due = req.arrival.saturating_add(deadline);
        let shed = match self.cfg.shed {
            ShedPolicy::None => false,
            ShedPolicy::Queue(cap) => depth >= cap,
            ShedPolicy::Deadline => deadline != u64::MAX && finish > due,
        };
        if shed {
            self.report.shed += 1;
            sh.tally.shed += 1;
            rec.add(names::SERVE_SHED, 1);
            if matches!(self.cfg.shed, ShedPolicy::Deadline) {
                rec.sample(names::HIST_SERVE_SHED_SLACK, finish - due);
            }
            return; // outcome stays Shed; the shard stays cold
        }
        self.report.admitted += 1;
        rec.add(names::SERVE_ADMITTED, 1);
        let job = Job {
            idx: i,
            arrival: req.arrival,
            deadline,
            len: service,
            attempt_start: start,
            end: finish,
            first_start: None,
            attempts: 0,
        };
        sh.place(j, job, req.arrival);
        self.warm_up(chosen, i, cold);
    }

    /// The routing policy's pick for request `i` at `t` over fresh shard
    /// views; `home` when there is no choice to make.
    #[inline]
    fn route(&mut self, i: usize, t: u64, home: usize) -> usize {
        let Some(routing) = self.cfg.routing.as_mut().filter(|_| self.shards.len() > 1) else {
            return home;
        };
        for (sh, view) in self.shards.iter_mut().zip(&mut self.views) {
            *view = ShardView {
                depth: sh.depth_at(t),
                backlog: sh.slots.iter().map(|s| s.free_at.saturating_sub(t)).sum(),
            };
        }
        let chosen = routing.route(self.templates[i], &self.views);
        debug_assert!(chosen < self.shards.len(), "policy returned a valid shard");
        chosen
    }

    /// Request `i`'s service time on shard `s`, and whether it is a cold
    /// miss there (never, without routing): a cold miss pays the penalty.
    #[inline]
    fn costed(&self, s: usize, i: usize) -> (u64, bool) {
        let cold = self.cfg.routing.is_some() && !self.shards[s].warm[self.templates[i]];
        let penalty = if cold { self.cfg.cold_penalty } else { 0 };
        (self.shards[s].setup.services[i] + penalty, cold)
    }

    /// Counts request `i`'s admission onto shard `s` as a cold miss or a
    /// warm hit and marks its template warm there.
    #[inline]
    fn warm_up(&mut self, s: usize, i: usize, cold: bool) {
        if self.cfg.routing.is_none() {
            return;
        }
        if cold {
            self.report.cold_misses += 1;
            self.shards[s].warm[self.templates[i]] = true;
        } else {
            self.report.warm_hits += 1;
        }
    }

    fn retire_completed<R: Recorder>(&mut self, s: usize, now: u64, rec: &mut R) {
        for v in 0..self.shards[s].slots.len() {
            while let Some(front) = self.shards[s].slots[v].queue.front() {
                if front.end > now {
                    break;
                }
                let job = self.shards[s].slots[v].queue.pop_front().expect("checked");
                self.complete(s, job, rec);
            }
        }
    }

    fn complete<R: Recorder>(&mut self, s: usize, job: Job, rec: &mut R) {
        let first = job.first_start.unwrap_or(job.attempt_start);
        let latency = job.end - job.arrival;
        let wait = first - job.arrival;
        self.report.completed += 1;
        self.wait_sum += wait;
        self.report.horizon = self.report.horizon.max(job.end);
        let sh = &mut self.shards[s];
        sh.tally.completed += 1;
        sh.tally.busy_cycles += job.len;
        sh.tally.latencies.push(latency);
        rec.sample(names::HIST_JOB_LATENCY, latency);
        rec.sample(names::HIST_QUEUE_WAIT, wait);
        if latency <= job.deadline {
            self.report.in_slo += 1;
        } else {
            self.report.deadline_misses += 1;
            rec.add(names::SERVE_DEADLINE_MISSES, 1);
        }
        if self.cfg.record_spans {
            let (root, idx) = (&sh.span_root, job.idx);
            rec.span(|| format!("{root}job/{idx}"), first, job.end);
        }
        self.outcomes[job.idx] = RequestOutcome::Done {
            start: first,
            finish: job.end,
        };
    }

    fn fail(&mut self, s: usize, job: Job, at: u64) {
        self.report.failed += 1;
        self.shards[s].tally.failed += 1;
        self.outcomes[job.idx] = RequestOutcome::Failed { at };
    }

    /// Slots of shard `s` a fault's hardware scope maps onto: geometric
    /// kinds project proportionally onto the slot strip (leases are ordered
    /// column/bank intervals), anonymous capacity kinds round-robin, and a
    /// DRAM glitch is channel-wide — it corrupts the active attempt on
    /// every slot.
    fn victims(&self, s: usize, kind: &FaultKind) -> Vec<usize> {
        let sh = &self.shards[s];
        let n = sh.slots.len();
        let clamp = |i: usize| i.min(n - 1);
        match kind {
            FaultKind::PeRect { col0, .. } => {
                vec![clamp(col0 * n / sh.setup.fabric.pe_cols.max(1))]
            }
            FaultKind::SpmBank { bank } => vec![clamp(bank * n / sh.setup.fabric.spm_banks.max(1))],
            FaultKind::NocLane { lane } => vec![lane % n],
            FaultKind::DmaEngine { engine } => vec![engine % n],
            FaultKind::DramChannel => (0..n).collect(),
        }
    }

    fn apply_fault<R: Recorder>(&mut self, s: usize, ev: FaultEvent, rec: &mut R) {
        self.shards[s].tally.faults_injected += 1;
        self.fault_log.push((ev.at, s, ev.kind.name()));
        rec.add(names::FAULT_INJECTED, 1);
        rec.add(
            if ev.permanent {
                names::FAULT_PERMANENT
            } else {
                names::FAULT_TRANSIENT
            },
            1,
        );
        rec.add(kind_counter(&ev.kind), 1);
        // Work that finished strictly before the fault commits first —
        // the runtime's commit-wins-ties event ordering.
        self.retire_completed(s, ev.at, rec);
        let mut changed = false;
        for v in self.victims(s, &ev.kind) {
            changed |= self.disrupt(s, v, ev.at, &ev.kind, rec);
        }
        let fabric = self.shards[s].setup.fabric;
        if ev.permanent && self.shards[s].quarantine.admit(&ev.kind, &fabric) {
            let sh = &mut self.shards[s];
            sh.tally.quarantined += 1;
            rec.add(names::FAULT_QUARANTINED, 1);
            // The carve geometry changed: every cached morph decision on
            // this shard is stale, and routing must stop chasing it.
            self.warm_evictions += sh.warm.iter().filter(|&&w| w).count();
            sh.warm.fill(false);
            let cap = sh
                .requested
                .min(sh.quarantine.window(&fabric).max_tenants())
                .max(1);
            if let Some(routing) = self.cfg.routing.as_mut() {
                routing.forget_shard(s);
            }
            while self.shards[s].slots.len() > cap {
                self.evict_last(s, ev.at, &ev.kind, rec);
                changed = true;
            }
        }
        if changed {
            self.rebuild_unstarted(s, ev.at);
        }
    }

    /// Charges the attempt of `job` in progress on shard `s` with the work
    /// a fault at `t` discards. Returns whether the job is out of retries.
    fn lose_attempt<R: Recorder>(
        &mut self,
        s: usize,
        job: &mut Job,
        t: u64,
        kind: &FaultKind,
        rec: &mut R,
    ) -> bool {
        let lost = t - job.attempt_start;
        self.shards[s].tally.lost_cycles += lost;
        rec.add(names::FAULT_LOST_CYCLES, lost);
        if self.cfg.record_spans {
            let (root, kn) = (&self.shards[s].span_root, kind.name());
            rec.span(|| format!("{root}fault/{kn}"), job.attempt_start, t);
        }
        if job.first_start.is_none() {
            job.first_start = Some(job.attempt_start);
        }
        job.attempts += 1;
        let failed = job.attempts > self.cfg.max_retries;
        if !failed {
            rec.add(names::FAULT_RETRIES, 1);
        }
        failed
    }

    /// Interrupts the attempt in progress on slot `v` of shard `s` at `t`,
    /// if any: bounded retry in place, then FIFO reflow of everything
    /// queued behind it. Returns whether any schedule changed.
    fn disrupt<R: Recorder>(
        &mut self,
        s: usize,
        v: usize,
        t: u64,
        kind: &FaultKind,
        rec: &mut R,
    ) -> bool {
        let queue = &mut self.shards[s].slots[v].queue;
        let Some(k) = queue.iter().position(|j| j.attempt_start <= t && t < j.end) else {
            return false;
        };
        rec.add(names::FAULT_HITS, 1);
        let mut job = queue.remove(k).expect("index in range");
        if self.lose_attempt(s, &mut job, t, kind, rec) {
            self.fail(s, job, t);
            let queue = &self.shards[s].slots[v].queue;
            let prev_end = if k == 0 { t } else { queue[k - 1].end };
            self.reflow(s, v, k, prev_end);
        } else {
            job.attempt_start = t;
            job.end = t + job.len;
            let prev_end = job.end;
            self.shards[s].slots[v].queue.insert(k, job);
            self.reflow(s, v, k + 1, prev_end);
        }
        true
    }

    /// Recomputes the FIFO chain of slot `v` on shard `s` from queue
    /// position `from`, following a shifted predecessor ending at
    /// `prev_end`.
    fn reflow(&mut self, s: usize, v: usize, from: usize, mut prev_end: u64) {
        let slot = &mut self.shards[s].slots[v];
        for job in slot.queue.iter_mut().skip(from) {
            let start = prev_end.max(job.arrival);
            job.attempt_start = start;
            job.end = start + job.len;
            prev_end = job.end;
        }
        slot.free_at = slot.queue.back().map(|j| j.end).unwrap_or(prev_end);
    }

    /// Removes shard `s`'s last slot (quarantine shrank the carve window)
    /// and re-homes its residents, restarting any in-progress attempt:
    /// each surviving job is re-routed through the policy, and a
    /// cross-shard move is re-costed with the destination's service time
    /// (plus the cold penalty if the destination never saw the template).
    fn evict_last<R: Recorder>(&mut self, s: usize, t: u64, kind: &FaultKind, rec: &mut R) {
        let mut slot = self.shards[s]
            .slots
            .pop()
            .expect("capacity is at least one");
        while let Some(mut job) = slot.queue.pop_front() {
            rec.add(names::FAULT_EVICTIONS, 1);
            // The active attempt loses its work.
            if job.attempt_start <= t && self.lose_attempt(s, &mut job, t, kind, rec) {
                self.fail(s, job, t);
                continue;
            }
            let dest = self.route(job.idx, t, s);
            if dest != s {
                self.report.rebalanced += 1;
                self.shards[s].tally.rebalanced_out += 1;
                self.shards[dest].tally.rebalanced_in += 1;
                let cold;
                (job.len, cold) = self.costed(dest, job.idx);
                self.warm_up(dest, job.idx, cold);
            }
            let sh = &mut self.shards[dest];
            sh.place(sh.argmin_free(), job, t);
        }
    }

    /// Re-derives shard `s`'s unstarted-start heap after schedules shifted
    /// at `t`.
    fn rebuild_unstarted(&mut self, s: usize, t: u64) {
        let sh = &mut self.shards[s];
        sh.unstarted.clear();
        for slot in &sh.slots {
            for job in &slot.queue {
                if job.first_start.is_none() && job.attempt_start > t {
                    sh.unstarted.push(Reverse(job.attempt_start));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_core::Objective;
    use mocha_obs::{MemRecorder, NoopRecorder};
    use mocha_runtime::{JobSpec, Priority};

    fn req(arrival: u64, deadline: Option<u64>) -> Request {
        Request {
            arrival,
            tenant: 0,
            deadline,
            spec: JobSpec {
                network: "tiny".into(),
                profile: "nominal".into(),
                objective: Objective::Edp,
                priority: Priority::Normal,
                seed: 1,
            },
        }
    }

    fn params(fabric: &FabricConfig, shed: ShedPolicy) -> OpenLoopParams<'_> {
        OpenLoopParams {
            fabric,
            slots: 4,
            shed,
            faults: None,
            record_spans: false,
        }
    }

    /// `n` arrivals every `gap` cycles, all with service `len`.
    fn trace(n: usize, gap: u64, deadline: Option<u64>) -> (Vec<Request>, Vec<u64>) {
        let reqs: Vec<Request> = (0..n).map(|i| req(i as u64 * gap, deadline)).collect();
        let services = vec![1_000u64; n];
        (reqs, services)
    }

    #[test]
    fn light_load_completes_everything_without_waiting() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(16, 2_000, Some(5_000));
        let (r, outs) = run_open_loop(
            &params(&fabric, ShedPolicy::None),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert_eq!((r.admitted, r.shed, r.completed, r.failed), (16, 0, 16, 0));
        assert_eq!(r.in_slo, 16);
        assert_eq!(r.mean_queue_wait, 0.0);
        assert_eq!(r.latency_percentile(99.0), 1_000);
        assert!(outs
            .iter()
            .all(|o| matches!(o, RequestOutcome::Done { .. })));
    }

    #[test]
    fn runs_are_deterministic_and_conserve_requests() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(500, 120, Some(3_000));
        for shed in [ShedPolicy::None, ShedPolicy::Queue(4), ShedPolicy::Deadline] {
            let p = params(&fabric, shed);
            let mut rec_a = MemRecorder::new();
            let mut rec_b = MemRecorder::new();
            let (a, outs) = run_open_loop(&p, &reqs, &svc, &mut rec_a);
            let (b, _) = run_open_loop(&p, &reqs, &svc, &mut rec_b);
            assert_eq!(a, b);
            assert_eq!(rec_a.to_jsonl(), rec_b.to_jsonl());
            assert_eq!(a.offered, a.admitted + a.shed, "{shed:?}");
            assert_eq!(a.admitted, a.completed + a.failed, "{shed:?}");
            let shed_n = outs
                .iter()
                .filter(|o| matches!(o, RequestOutcome::Shed))
                .count();
            assert_eq!(shed_n, a.shed);
        }
    }

    #[test]
    fn deadline_shedding_only_completes_in_slo_work() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(400, 100, Some(2_500));
        let (r, _) = run_open_loop(
            &params(&fabric, ShedPolicy::Deadline),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert!(r.shed > 0, "overload must shed");
        assert_eq!(r.deadline_misses, 0, "admitted work meets its deadline");
        assert_eq!(r.in_slo, r.completed);
    }

    #[test]
    fn past_saturation_shedding_beats_unbounded_queueing() {
        let fabric = FabricConfig::mocha_quad();
        // 4 slots x 1000-cycle service, arrivals every 100 cycles: offered
        // ~2.5x capacity with a 3000-cycle SLO.
        let (reqs, svc) = trace(2_000, 100, Some(3_000));
        let (none, _) = run_open_loop(
            &params(&fabric, ShedPolicy::None),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        let (shed, _) = run_open_loop(
            &params(&fabric, ShedPolicy::Deadline),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert!(
            shed.goodput_per_mcycle() > 2.0 * none.goodput_per_mcycle(),
            "goodput {} vs {}",
            shed.goodput_per_mcycle(),
            none.goodput_per_mcycle()
        );
        assert!(
            shed.latency_percentile(99.0) < none.latency_percentile(99.0) / 4,
            "p99 {} vs {}",
            shed.latency_percentile(99.0),
            none.latency_percentile(99.0)
        );
    }

    #[test]
    fn bounded_queue_bounds_observed_depth() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(600, 50, None);
        let mut rec = MemRecorder::new();
        let (r, _) = run_open_loop(
            &params(&fabric, ShedPolicy::Queue(3)),
            &reqs,
            &svc,
            &mut rec,
        );
        assert!(r.shed > 0);
        let depth = rec.hist(names::HIST_SERVE_QUEUE_DEPTH).expect("recorded");
        let max = depth.max().unwrap_or(0);
        assert!(max <= 3, "observed depth {max}");
    }

    #[test]
    fn faults_shrink_capacity_and_conservation_still_holds() {
        let fabric = FabricConfig::mocha_quad();
        let plan = FaultPlan::parse("rate=40,seed=5,transient=0.2").unwrap();
        let (reqs, svc) = trace(800, 300, Some(6_000));
        let p = OpenLoopParams {
            fabric: &fabric,
            slots: 4,
            shed: ShedPolicy::Deadline,
            faults: Some(&plan),
            record_spans: false,
        };
        let mut rec = MemRecorder::new();
        let (r, _) = run_open_loop(&p, &reqs, &svc, &mut rec);
        assert!(r.faults_injected > 0);
        assert!(r.quarantined > 0, "permanent faults quarantine");
        assert!(r.lost_cycles > 0, "interrupted attempts lose work");
        assert_eq!(r.offered, r.admitted + r.shed);
        assert_eq!(r.admitted, r.completed + r.failed);
        assert_eq!(rec.counter(names::FAULT_QUARANTINED), r.quarantined as u64);
        // Same plan, same trace: byte-identical.
        let mut rec2 = MemRecorder::new();
        let (r2, _) = run_open_loop(&p, &reqs, &svc, &mut rec2);
        assert_eq!(r, r2);
        assert_eq!(rec.to_jsonl(), rec2.to_jsonl());
    }

    #[test]
    fn shed_slack_saturates_near_the_end_of_time() {
        let fabric = FabricConfig::mocha_quad();
        let reqs = vec![req(u64::MAX - 10, Some(5))];
        let mut rec = MemRecorder::new();
        let (r, outs) = run_open_loop(
            &params(&fabric, ShedPolicy::Deadline),
            &reqs,
            &[1_000],
            &mut rec,
        );
        assert_eq!((r.offered, r.shed), (1, 1));
        assert_eq!(outs, vec![RequestOutcome::Shed]);
        let slack = rec.hist(names::HIST_SERVE_SHED_SLACK).expect("recorded");
        assert_eq!(slack.max(), Some(5));
    }

    #[test]
    fn json_key_sets_pin_both_report_shapes() {
        fn keys(v: &Value) -> Vec<&str> {
            match v {
                Value::Obj(map) => map.keys().map(String::as_str).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
        let shared = [
            "admitted",
            "busy_cycles",
            "completed",
            "deadline_misses",
            "failed",
            "faults_injected",
            "goodput_per_mcycle",
            "horizon",
            "in_slo",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "lost_cycles",
            "mean_queue_wait",
            "offered",
            "policy",
            "quarantined",
            "shed",
            "utilization",
        ];
        let with = |extra: &[&'static str]| {
            let mut k: Vec<&str> = shared.iter().chain(extra).copied().collect();
            k.sort_unstable();
            k
        };
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(40, 500, Some(3_000));
        let p = params(&fabric, ShedPolicy::Deadline);
        let (single, _) = run_open_loop(&p, &reqs, &svc, &mut NoopRecorder);
        let single = single.to_json();
        assert_eq!(keys(&single), with(&["open_loop", "servers"]));
        assert_eq!(keys(&single).len(), 21);

        let fleet = FleetSpec::parse("preset=quad/preset=mocha").unwrap();
        let fp = FleetOpenLoopParams {
            fleet: &fleet,
            slots: 4,
            shed: ShedPolicy::Deadline,
            route: RouteKind::Locality,
            route_seed: 42,
            faults: None,
            cold_penalty: 0,
            record_spans: false,
        };
        let (r, _) = run_fleet_open_loop(&fp, &reqs, &[svc.clone(), svc], &mut NoopRecorder);
        let json = r.to_json();
        let fleet_keys = [
            "cold_misses",
            "fleet",
            "rebalanced",
            "route",
            "shards",
            "warm_hits",
        ];
        assert_eq!(keys(&json), with(&fleet_keys));
        assert_eq!(keys(&json).len(), 25);
        assert_eq!(json.get("route").and_then(Value::as_str), Some("locality"));
        assert_eq!(
            json.get("shards").and_then(Value::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn spans_cover_completions_and_lost_work() {
        let fabric = FabricConfig::mocha_quad();
        let plan = FaultPlan::parse("rate=25,seed=3,transient=0.8").unwrap();
        let (reqs, svc) = trace(60, 400, None);
        let p = OpenLoopParams {
            fabric: &fabric,
            slots: 4,
            shed: ShedPolicy::None,
            faults: Some(&plan),
            record_spans: true,
        };
        let mut rec = MemRecorder::new();
        let (r, _) = run_open_loop(&p, &reqs, &svc, &mut rec);
        let jobs = rec
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("job/"))
            .count();
        assert_eq!(jobs, r.completed);
        if r.lost_cycles > 0 {
            assert!(rec.spans().iter().any(|s| s.path.starts_with("fault/")));
        }
    }
}
