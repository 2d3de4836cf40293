//! The fleet *batch* path: routing a submission trace across shards and
//! running each shard through the full cycle-accurate `mocha-runtime`
//! scheduler.
//!
//! Where [`run_fleet_open_loop`](crate::openloop::run_fleet_open_loop)
//! drives the calibrated open-loop queueing engine behind the R5 load
//! sweeps, this module is the fleet analogue of `mocha-sim runtime`:
//! every shard executes its routed submissions on the real multi-tenant
//! scheduler (leases, re-morphs, verification, faults), and the fleet
//! report aggregates the per-shard [`RuntimeReport`]s in canonical shard
//! order.
//!
//! Shards run *sequentially* in shard order — each shard's scheduler is
//! already internally parallel over `cfg.threads` with a byte-identical
//! recorder stream, so running the shards one after another into one
//! recorder inherits determinism with no merge step. That is also what
//! makes the fleet-of-1 off-switch exact: with a single shard, the
//! recorder stream is the single-fabric stream plus `fleet.*` lines, and
//! the embedded report is byte-identical to the single-fabric run.
//!
//! Routing happens before execution: the router sees only arrival order
//! and a per-shard *estimate* of backlog (jobs weighted by each shard's
//! peak MAC throughput), never execution results — so a policy cannot
//! peek into the future, and the route assignment is a pure function of
//! `(fleet, trace, policy, seed)`.

use std::collections::VecDeque;

use mocha_core::DecisionCache;
use mocha_fault::FaultPlan;
use mocha_json::{ToJson, Value};
use mocha_obs::{names, Recorder};
use mocha_runtime::{
    run_with, run_with_cache, LeasePolicy, RuntimeConfig, RuntimeReport, Submission,
};

use crate::route::{template_ids, RouteKind, ShardView};
use crate::spec::{shard_seed, FleetSpec};

/// Fleet batch-run configuration: the fleet-level analogue of
/// [`RuntimeConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The fleet: per-shard fabric geometry in canonical order.
    pub fleet: FleetSpec,
    /// Routing policy.
    pub route: RouteKind,
    /// Seed for stochastic routing policies (p2c).
    pub route_seed: u64,
    /// Lease assignment policy, applied on every shard.
    pub policy: LeasePolicy,
    /// Admission cap per shard (further clamped per shard).
    pub max_tenants: usize,
    /// Verify every group against the golden model.
    pub verify: bool,
    /// Worker threads per shard scheduler (`0` = engine default).
    pub threads: usize,
    /// Per-shard fault injection; shard `s` runs the plan with its seed
    /// stepped by [`shard_seed`], so fault domains are independent.
    pub faults: Option<FaultPlan>,
    /// Share one morph-decision cache across all shards.
    pub cache: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            fleet: FleetSpec::single(mocha_fabric::FabricConfig::mocha_quad()),
            route: RouteKind::RoundRobin,
            route_seed: 42,
            policy: LeasePolicy::Adaptive,
            max_tenants: 4,
            verify: true,
            threads: 0,
            faults: None,
            cache: false,
        }
    }
}

/// One shard's slice of a fleet batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetShardRun {
    /// Shard index in canonical order.
    pub shard: usize,
    /// Shard label from the spec.
    pub label: String,
    /// Submissions the router sent here.
    pub routed: usize,
    /// The shard's full single-fabric runtime report.
    pub report: RuntimeReport,
}

/// Aggregate outcome of one fleet batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBatchReport {
    /// Routing policy name.
    pub route: String,
    /// Submissions offered to the router.
    pub offered: usize,
    /// Per-shard runs in canonical shard order.
    pub shards: Vec<FleetShardRun>,
}

impl FleetBatchReport {
    /// Jobs that finished across the fleet.
    pub fn completed(&self) -> usize {
        self.shards.iter().map(|s| s.report.completed()).sum()
    }

    /// Jobs dropped after exhausting fault retries, fleet-wide.
    pub fn failed(&self) -> usize {
        self.shards.iter().map(|s| s.report.failed).sum()
    }

    /// Fault-driven group retries, fleet-wide.
    pub fn retried(&self) -> usize {
        self.shards.iter().map(|s| s.report.retried).sum()
    }

    /// Last simulated cycle across all shards.
    pub fn horizon(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.horizon)
            .max()
            .unwrap_or(0)
    }

    /// Nearest-rank completion-latency percentile over all shards' jobs,
    /// merged in canonical shard order.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let mut lats: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.report.jobs.iter().map(|j| j.finished - j.arrival))
            .collect();
        lats.sort_unstable();
        mocha_obs::nearest_rank(&lats, p)
    }

    /// Mean admission queue wait over completions, fleet-wide.
    pub fn mean_queue_wait(&self) -> f64 {
        let n: usize = self.shards.iter().map(|s| s.report.jobs.len()).sum();
        if n == 0 {
            return 0.0;
        }
        let wait: u64 = self
            .shards
            .iter()
            .flat_map(|s| s.report.jobs.iter().map(|j| j.admitted - j.arrival))
            .sum();
        wait as f64 / n as f64
    }
}

impl ToJson for FleetBatchReport {
    fn to_json(&self) -> Value {
        let shards: Vec<Value> = self
            .shards
            .iter()
            .map(|s| {
                mocha_json::jobj! {
                    "shard" => s.shard as u64,
                    "label" => s.label.as_str(),
                    "routed" => s.routed as u64,
                    "report" => s.report.to_json(),
                }
            })
            .collect();
        mocha_json::jobj! {
            "fleet" => true,
            "route" => self.route.as_str(),
            "offered" => self.offered as u64,
            "completed" => self.completed() as u64,
            "failed" => self.failed() as u64,
            "retried" => self.retried() as u64,
            "horizon" => self.horizon(),
            "latency_p50" => self.latency_percentile(50.0),
            "latency_p99" => self.latency_percentile(99.0),
            "mean_queue_wait" => self.mean_queue_wait(),
            "shards" => Value::Arr(shards),
        }
    }
}

/// Nominal work unit behind the router's backlog estimate; only ratios
/// between shards matter, the absolute scale cancels out.
const EST_WORK: u64 = 1 << 26;

/// Routes `submissions` (sorted by arrival) across the fleet, returning
/// the shard index per submission. Pure function of `(fleet, trace,
/// policy, seed)`; [`run_fleet`] executes the assignment.
pub fn route_batch(
    fleet: &FleetSpec,
    route: RouteKind,
    route_seed: u64,
    submissions: &[Submission],
) -> Vec<usize> {
    debug_assert!(submissions
        .windows(2)
        .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
    let n = fleet.len();
    let mut policy = route.policy(n, route_seed);
    // Per-shard single-queue estimate: completion times of routed jobs,
    // each costed at EST_WORK / peak-MACs so faster shards drain quicker.
    let est: Vec<u64> = fleet
        .shards()
        .iter()
        .map(|s| EST_WORK / (s.fabric.peak_macs_per_cycle() as u64).max(1))
        .collect();
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
    let templates = template_ids(submissions.iter().map(|s| &s.spec));
    let mut picks = Vec::with_capacity(submissions.len());
    for (sub, &template) in submissions.iter().zip(&templates) {
        let now = sub.arrival_cycle;
        let views: Vec<ShardView> = queues
            .iter_mut()
            .map(|q| {
                while q.front().is_some_and(|&t| t <= now) {
                    q.pop_front();
                }
                ShardView {
                    depth: q.len(),
                    backlog: q.back().map(|&t| t - now).unwrap_or(0),
                }
            })
            .collect();
        let chosen = policy.route(template, &views);
        let start = queues[chosen].back().copied().unwrap_or(0).max(now);
        queues[chosen].push_back(start + est[chosen]);
        picks.push(chosen);
    }
    picks
}

/// Runs a fleet batch: route every submission, then execute each shard's
/// slice on the full `mocha-runtime` scheduler, shards in canonical order
/// into one recorder. With `cfg.cache`, all shards share one
/// [`DecisionCache`]: the fleet-level face of the morph-decision cache.
pub fn run_fleet<R: Recorder>(
    cfg: &FleetConfig,
    submissions: &[Submission],
    rec: &mut R,
) -> FleetBatchReport {
    let n = cfg.fleet.len();
    rec.add(names::FLEET_SHARDS, n as u64);
    let picks = route_batch(&cfg.fleet, cfg.route, cfg.route_seed, submissions);
    let mut per_shard: Vec<Vec<Submission>> = vec![Vec::new(); n];
    for (sub, &s) in submissions.iter().zip(&picks) {
        per_shard[s].push(sub.clone());
    }
    let mut cache = cfg.cache.then(DecisionCache::new);
    let mut shards = Vec::with_capacity(n);
    for (s, subs) in per_shard.into_iter().enumerate() {
        rec.add(names::FLEET_ROUTED, subs.len() as u64);
        let shard_cfg = RuntimeConfig {
            fabric: cfg.fleet.shards()[s].fabric,
            policy: cfg.policy,
            max_tenants: cfg.max_tenants,
            verify: cfg.verify,
            threads: cfg.threads,
            faults: cfg.faults.clone().map(|mut plan| {
                plan.seed = shard_seed(plan.seed, s);
                plan
            }),
            cache: false, // the shared fleet cache replaces the per-run one
        };
        let report = match cache.as_mut() {
            Some(cache) => run_with_cache(&shard_cfg, &subs, cache, rec),
            None => run_with(&shard_cfg, &subs, rec),
        };
        let t0 = subs.first().map(|s| s.arrival_cycle).unwrap_or(0);
        rec.span(|| format!("fleet/shard{s}"), t0, report.horizon.max(t0));
        shards.push(FleetShardRun {
            shard: s,
            label: cfg.fleet.shards()[s].label.clone(),
            routed: subs.len(),
            report,
        });
    }
    // Conservation: the batch router rejects nothing, so every submission
    // is routed to exactly one shard, and each shard finishes or fails
    // every job routed to it.
    debug_assert_eq!(
        shards.iter().map(|s| s.routed).sum::<usize>(),
        submissions.len()
    );
    debug_assert!(shards
        .iter()
        .all(|s| s.report.jobs.len() + s.report.failed == s.routed));
    FleetBatchReport {
        route: cfg.route.name().to_string(),
        offered: submissions.len(),
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_fabric::FabricConfig;
    use mocha_obs::MemRecorder;
    use mocha_runtime::{generate, Mix, TrafficConfig};

    fn trace(jobs: usize) -> Vec<Submission> {
        generate(&TrafficConfig {
            jobs,
            load: 3.0,
            seed: 11,
            mix: Mix::Quick,
        })
    }

    fn cfg(fleet: &str, route: RouteKind) -> FleetConfig {
        FleetConfig {
            fleet: FleetSpec::parse(fleet).unwrap(),
            route,
            threads: 1,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn routing_conserves_submissions_and_is_deterministic() {
        let subs = trace(12);
        for route in RouteKind::all() {
            let c = cfg("preset=quad/preset=mocha,count=2", route);
            let a = route_batch(&c.fleet, route, c.route_seed, &subs);
            let b = route_batch(&c.fleet, route, c.route_seed, &subs);
            assert_eq!(a, b, "{route:?}");
            assert!(a.iter().all(|&s| s < 3));
            assert_eq!(a.len(), subs.len());
        }
    }

    #[test]
    fn fleet_of_one_report_matches_single_fabric_runtime() {
        let subs = trace(6);
        let c = cfg("preset=quad", RouteKind::RoundRobin);
        let mut fleet_rec = MemRecorder::new();
        let fleet = run_fleet(&c, &subs, &mut fleet_rec);
        let mut solo_rec = MemRecorder::new();
        let solo = run_with(
            &RuntimeConfig {
                fabric: FabricConfig::mocha_quad(),
                threads: 1,
                ..RuntimeConfig::default()
            },
            &subs,
            &mut solo_rec,
        );
        assert_eq!(fleet.shards.len(), 1);
        assert_eq!(
            fleet.shards[0].report, solo,
            "embedded report is the solo run"
        );
        assert_eq!(
            fleet.shards[0].report.to_json().to_string_compact(),
            solo.to_json().to_string_compact()
        );
        // The recorder stream minus fleet.* lines is the solo stream.
        let fleet_jsonl = fleet_rec.to_jsonl();
        let stripped: Vec<&str> = fleet_jsonl
            .lines()
            .filter(|l| !l.contains("\"fleet"))
            .collect();
        let solo_jsonl = solo_rec.to_jsonl();
        let solo_lines: Vec<&str> = solo_jsonl.lines().collect();
        assert_eq!(stripped, solo_lines);
    }

    #[test]
    fn heterogeneous_fleet_runs_every_submission_once() {
        let subs = trace(10);
        for route in RouteKind::all() {
            let c = cfg("preset=quad/preset=mocha,count=2", route);
            let mut rec = MemRecorder::new();
            let r = run_fleet(&c, &subs, &mut rec);
            assert_eq!(r.offered, subs.len(), "{route:?}");
            let routed: usize = r.shards.iter().map(|s| s.routed).sum();
            assert_eq!(routed, subs.len(), "{route:?}");
            let done: usize = r.shards.iter().map(|s| s.report.jobs.len()).sum();
            assert_eq!(done + r.failed(), subs.len(), "{route:?}");
            assert_eq!(rec.counter(names::FLEET_ROUTED), subs.len() as u64);
            assert_eq!(rec.counter(names::FLEET_SHARDS), 3);
            let shard_spans = rec
                .spans()
                .iter()
                .filter(|s| s.path.starts_with("fleet/shard"))
                .count();
            assert_eq!(shard_spans, 3, "{route:?}");
        }
    }

    #[test]
    fn fleet_batch_is_byte_identical_across_threads_and_cache() {
        let subs = trace(10);
        let mut base = None;
        for threads in [1usize, 2] {
            for cache in [false, true] {
                let mut c = cfg("preset=quad/preset=mocha", RouteKind::Locality);
                c.threads = threads;
                c.cache = cache;
                let mut rec = MemRecorder::new();
                let r = run_fleet(&c, &subs, &mut rec);
                let json = r.to_json().to_string_compact();
                let stream: String = rec
                    .to_jsonl()
                    .lines()
                    .filter(|l| !l.contains("\"cache."))
                    .collect::<Vec<_>>()
                    .join("\n");
                match &base {
                    None => base = Some((json, stream)),
                    Some((bj, bs)) => {
                        assert_eq!(*bj, json, "threads={threads} cache={cache}");
                        assert_eq!(*bs, stream, "threads={threads} cache={cache}");
                    }
                }
            }
        }
    }
}
