//! Runtime outcome reporting: per-job records and fleet-level aggregates.

use crate::job::{JobId, JobSpec};
use mocha_json::Value;

/// The lifecycle record of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Runtime-assigned id (submission order).
    pub id: JobId,
    /// What was requested.
    pub spec: JobSpec,
    /// Cycle the job arrived.
    pub arrival: u64,
    /// Cycle the job was admitted and leased.
    pub admitted: u64,
    /// Cycle the last group finished.
    pub finished: u64,
    /// Controller decisions executed (fusion groups).
    pub groups: usize,
    /// Boundaries at which the job adopted a *different* lease and
    /// re-morphed onto it (0 under a static policy).
    pub remorphs: usize,
    /// Fault retries/restarts this job survived (0 without fault injection).
    pub retries: usize,
    /// Dense work performed, MACs.
    pub work_macs: u64,
    /// Cycles the job spent executing (excludes queue wait).
    pub busy_cycles: u64,
    /// Energy consumed, pJ.
    pub energy_pj: f64,
    /// Σ over the job's groups of `group cycles × lease PEs` — the PE-time
    /// the job's leases reserved while it executed.
    pub leased_pe_cycles: f64,
    /// FNV-1a hash of the output tensor — compared against the golden
    /// model's output by the end-to-end tests.
    pub output_hash: u64,
}

impl JobReport {
    /// Cycles spent waiting for admission.
    pub fn queue_wait(&self) -> u64 {
        self.admitted - self.arrival
    }

    /// Arrival-to-completion latency in cycles.
    pub fn latency(&self) -> u64 {
        self.finished - self.arrival
    }
}

impl mocha_json::ToJson for JobReport {
    fn to_json(&self) -> Value {
        mocha_json::jobj! {
            "id" => self.id,
            "spec" => &self.spec,
            "arrival" => self.arrival,
            "admitted" => self.admitted,
            "finished" => self.finished,
            "queue_wait" => self.queue_wait(),
            "latency" => self.latency(),
            "groups" => self.groups,
            "remorphs" => self.remorphs,
            "retries" => self.retries,
            "work_macs" => self.work_macs,
            "busy_cycles" => self.busy_cycles,
            "energy_pj" => self.energy_pj,
            "leased_pe_cycles" => self.leased_pe_cycles,
            "output_hash" => self.output_hash,
        }
    }
}

/// Aggregate outcome of one runtime execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Lease policy name (`adaptive` / `static`).
    pub policy: String,
    /// Cycle the last job finished (0 if no jobs ran).
    pub horizon: u64,
    /// Total PEs of the parent fabric (utilization denominator).
    pub parent_pes: usize,
    /// Σ over executed groups of `group cycles × lease PEs`.
    pub leased_pe_cycles: f64,
    /// Clock used to convert cycles to time, GHz.
    pub clock_ghz: f64,
    /// Jobs that needed at least one fault retry/restart (completed or
    /// failed); 0 without fault injection.
    pub retried: usize,
    /// Jobs dropped after exhausting their fault-retry budget; failed jobs
    /// do not appear in `jobs`.
    pub failed: usize,
    /// Per-job records, in completion order (ties broken by id).
    pub jobs: Vec<JobReport>,
}

impl RuntimeReport {
    /// Jobs completed.
    pub fn completed(&self) -> usize {
        self.jobs.len()
    }

    /// Nearest-rank percentile of arrival-to-completion latency, cycles.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let mut lat: Vec<u64> = self.jobs.iter().map(JobReport::latency).collect();
        lat.sort_unstable();
        mocha_obs::nearest_rank(&lat, p)
    }

    /// Mean admission queue wait, cycles.
    pub fn mean_queue_wait(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.queue_wait() as f64).sum::<f64>() / self.jobs.len() as f64
    }

    /// Completed jobs per million fabric cycles.
    pub fn jobs_per_mcycle(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        self.jobs.len() as f64 * 1e6 / self.horizon as f64
    }

    /// Fraction of the fabric's PE-cycles covered by leases doing work.
    pub fn utilization(&self) -> f64 {
        if self.horizon == 0 || self.parent_pes == 0 {
            return 0.0;
        }
        // When every job fails, the fault-accounting trims cancel the
        // accumulator to (negative) zero — clamp so "-0.0" never surfaces.
        (self.leased_pe_cycles / (self.horizon as f64 * self.parent_pes as f64)).max(0.0)
    }

    /// Aggregate compute efficiency: operations per second per watt, in
    /// GOPS/W (counting 2 ops per MAC).
    pub fn gops_per_watt(&self) -> f64 {
        let pj: f64 = self.jobs.iter().map(|j| j.energy_pj).sum();
        if pj <= 0.0 {
            return 0.0;
        }
        let ops: f64 = self.jobs.iter().map(|j| 2.0 * j.work_macs as f64).sum();
        // ops/J = ops / (pJ · 1e-12); GOPS/W divides by 1e9.
        ops / pj * 1e3
    }

    /// Sustained throughput over the horizon, GOPS.
    pub fn gops(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        let ops: f64 = self.jobs.iter().map(|j| 2.0 * j.work_macs as f64).sum();
        (ops / (self.horizon as f64 / self.clock_ghz)).max(0.0) // ops per ns = GOPS
    }
}

impl mocha_json::ToJson for RuntimeReport {
    fn to_json(&self) -> Value {
        mocha_json::jobj! {
            "policy" => self.policy.as_str(),
            "horizon" => self.horizon,
            "completed" => self.completed(),
            "jobs_per_mcycle" => self.jobs_per_mcycle(),
            "retried" => self.retried,
            "failed" => self.failed,
            "latency_p50" => self.latency_percentile(50.0),
            "latency_p95" => self.latency_percentile(95.0),
            "latency_p99" => self.latency_percentile(99.0),
            "mean_queue_wait" => self.mean_queue_wait(),
            "utilization" => self.utilization(),
            "gops" => self.gops(),
            "gops_per_watt" => self.gops_per_watt(),
            "jobs" => self.jobs.iter().collect::<Vec<_>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use mocha_core::Objective;

    fn job(id: u64, arrival: u64, admitted: u64, finished: u64) -> JobReport {
        JobReport {
            id,
            spec: JobSpec {
                network: "tiny".into(),
                profile: "nominal".into(),
                objective: Objective::Edp,
                priority: Priority::Normal,
                seed: id,
            },
            arrival,
            admitted,
            finished,
            groups: 3,
            remorphs: 1,
            retries: 0,
            work_macs: 1000,
            busy_cycles: finished - admitted,
            energy_pj: 500.0,
            leased_pe_cycles: 0.0,
            output_hash: 7,
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = RuntimeReport {
            policy: "adaptive".into(),
            horizon: 400,
            parent_pes: 256,
            leased_pe_cycles: 0.0,
            clock_ghz: 1.0,
            retried: 0,
            failed: 0,
            jobs: (0..4).map(|i| job(i, 0, 0, 100 * (i + 1))).collect(),
        };
        assert_eq!(r.latency_percentile(50.0), 200);
        assert_eq!(r.latency_percentile(95.0), 400);
        assert_eq!(r.latency_percentile(99.0), 400);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = RuntimeReport {
            policy: "static".into(),
            horizon: 0,
            parent_pes: 256,
            leased_pe_cycles: 0.0,
            clock_ghz: 1.0,
            retried: 0,
            failed: 0,
            jobs: Vec::new(),
        };
        assert_eq!(r.latency_percentile(99.0), 0);
        assert_eq!(r.jobs_per_mcycle(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.gops_per_watt(), 0.0);
    }

    #[test]
    fn percentile_edge_cases_match_the_obs_histogram() {
        // Both definitions are nearest-rank: on an empty set both read 0
        // (checked in `empty_report_is_all_zero` / the obs property tests);
        // a single sample and an all-equal set must agree at every p too.
        let single = RuntimeReport {
            policy: "adaptive".into(),
            horizon: 500,
            parent_pes: 256,
            leased_pe_cycles: 0.0,
            clock_ghz: 1.0,
            retried: 0,
            failed: 0,
            jobs: vec![job(0, 10, 20, 510)],
        };
        let equal = RuntimeReport {
            jobs: (0..5).map(|i| job(i, 0, 0, 300)).collect(),
            ..single.clone()
        };
        for r in [&single, &equal] {
            let mut h = mocha_obs::Histogram::new();
            for j in &r.jobs {
                h.record(j.latency());
            }
            let mut sorted: Vec<u64> = r.jobs.iter().map(JobReport::latency).collect();
            sorted.sort_unstable();
            for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
                assert_eq!(r.latency_percentile(p), h.quantile(p).unwrap(), "p{p}");
                assert_eq!(mocha_obs::nearest_rank(&sorted, p), r.latency_percentile(p));
            }
        }
        assert_eq!(mocha_obs::nearest_rank(&[], 50.0), 0);
        assert_eq!(single.latency_percentile(50.0), 500);
        assert_eq!(equal.latency_percentile(99.0), 300);
    }

    #[test]
    fn utilization_is_leased_share_of_pe_cycles() {
        let r = RuntimeReport {
            policy: "adaptive".into(),
            horizon: 1000,
            parent_pes: 256,
            leased_pe_cycles: 128.0 * 1000.0,
            clock_ghz: 1.0,
            retried: 0,
            failed: 0,
            jobs: vec![job(0, 0, 0, 1000)],
        };
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }
}
