//! Integration tests for deterministic fault injection and recovery:
//! the disabled fault layer is provably inert, fixed-seed fault schedules
//! reproduce byte-identically, every submitted job is accounted for, and
//! quarantine-and-remorph degrades more gracefully than fail-stop.

use mocha_obs::{MemRecorder, NoopRecorder};
use mocha_runtime::{
    generate, run_with, FaultMode, FaultPlan, Mix, RuntimeConfig, RuntimeReport, TrafficConfig,
};

fn traffic(jobs: usize, seed: u64) -> Vec<mocha_runtime::Submission> {
    generate(&TrafficConfig {
        jobs,
        load: 2.0,
        seed,
        mix: Mix::Quick,
    })
}

fn faulted(rate: f64, seed: u64, mode: FaultMode) -> RuntimeConfig {
    RuntimeConfig {
        faults: Some(FaultPlan {
            rate_per_mcycle: rate,
            seed,
            mode,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::default()
    }
}

fn run_recorded(cfg: &RuntimeConfig, jobs: usize) -> (RuntimeReport, String) {
    let mut rec = MemRecorder::new();
    let report = run_with(cfg, &traffic(jobs, 42), &mut rec);
    (report, rec.to_jsonl())
}

/// `faults: None` and a zero-rate plan take the exact same path: the fault
/// layer adds zero overhead (and zero observable difference) when disabled.
#[test]
fn zero_rate_plan_is_byte_identical_to_no_faults() {
    let off = RuntimeConfig::default();
    let zero = faulted(0.0, 1, FaultMode::Quarantine);
    let (r_off, obs_off) = run_recorded(&off, 6);
    let (r_zero, obs_zero) = run_recorded(&zero, 6);
    assert_eq!(r_off, r_zero);
    assert_eq!(obs_off, obs_zero);
    assert_eq!(r_off.retried, 0);
    assert_eq!(r_off.failed, 0);
    assert!(r_off.jobs.iter().all(|j| j.retries == 0));
    assert!(!obs_off.contains("fault"), "no fault events without faults");
}

/// Same fault plan, same traffic: reports and obs streams reproduce
/// byte-identically run over run and for every worker count.
#[test]
fn fixed_seed_fault_schedules_are_deterministic() {
    for mode in [FaultMode::Quarantine, FaultMode::FailStop] {
        let cfg = faulted(25.0, 7, mode);
        let (r1, o1) = run_recorded(&cfg, 8);
        let (r2, o2) = run_recorded(&cfg, 8);
        assert_eq!(r1, r2, "{mode:?} report reproduces");
        assert_eq!(o1, o2, "{mode:?} obs stream reproduces");
        let threaded = RuntimeConfig {
            threads: 3,
            ..cfg.clone()
        };
        let (r3, o3) = run_recorded(&threaded, 8);
        assert_eq!(r1, r3, "{mode:?} report is thread-invariant");
        assert_eq!(o1, o3, "{mode:?} obs stream is thread-invariant");
    }
}

/// Different fault seeds produce different recoveries (the schedule is
/// actually seeded, not constant).
#[test]
fn fault_seed_changes_the_outcome() {
    let a = run_recorded(&faulted(40.0, 1, FaultMode::Quarantine), 8).1;
    let b = run_recorded(&faulted(40.0, 2, FaultMode::Quarantine), 8).1;
    assert_ne!(a, b);
}

/// Every submitted job either completes or fails; completed jobs still
/// verify against the golden model even after retries and re-morphs.
#[test]
fn completed_plus_failed_covers_every_submission() {
    for (rate, mode) in [
        (15.0, FaultMode::Quarantine),
        (60.0, FaultMode::Quarantine),
        (15.0, FaultMode::FailStop),
        (60.0, FaultMode::FailStop),
    ] {
        let cfg = faulted(rate, 3, mode);
        let report = run_with(&cfg, &traffic(8, 42), &mut NoopRecorder);
        assert_eq!(
            report.completed() + report.failed,
            8,
            "rate {rate} {mode:?}: every job is accounted for"
        );
        assert!(report.retried <= 8);
        // Accounting sanity under heavy fault churn: the horizon covers
        // every completion and utilization stays physical.
        assert!(report.utilization() <= 1.0 + 1e-9, "rate {rate} {mode:?}");
        assert!(
            report.utilization() >= 0.0 && report.utilization().is_sign_positive(),
            "rate {rate} {mode:?}: trims must never drive utilization negative"
        );
        for j in &report.jobs {
            assert!(j.finished <= report.horizon);
            assert!(j.admitted >= j.arrival);
        }
    }
}

/// The fault counters reconcile: injected = transient + permanent, and the
/// report's retried/failed match the counter namespace.
#[test]
fn fault_counters_reconcile_with_the_report() {
    let cfg = faulted(30.0, 5, FaultMode::Quarantine);
    let mut rec = MemRecorder::new();
    let report = run_with(&cfg, &traffic(8, 42), &mut rec);
    let c = |name: &str| rec.counter(name);
    use mocha_obs::names;
    assert!(
        c(names::FAULT_INJECTED) > 0,
        "rate 30 must inject something"
    );
    assert_eq!(
        c(names::FAULT_INJECTED),
        c(names::FAULT_TRANSIENT) + c(names::FAULT_PERMANENT)
    );
    assert_eq!(
        c(names::FAULT_INJECTED),
        c(names::FAULT_INJECTED_PE)
            + c(names::FAULT_INJECTED_SPM)
            + c(names::FAULT_INJECTED_NOC)
            + c(names::FAULT_INJECTED_DMA)
            + c(names::FAULT_INJECTED_DRAM)
    );
    assert_eq!(c(names::RUNTIME_JOBS_RETRIED), report.retried as u64);
    assert_eq!(c(names::RUNTIME_JOBS_FAILED), report.failed as u64);
    assert_eq!(
        c(names::RUNTIME_JOBS_ADMITTED),
        report.completed() as u64 + report.failed as u64,
        "re-admissions after eviction do not recount"
    );
}

/// The headline claim behind experiment R2: at a fault rate that leaves
/// permanent damage, quarantine-and-remorph completes every job while
/// fail-stop loses some — and never completes more.
#[test]
fn quarantine_degrades_more_gracefully_than_fail_stop() {
    let quarantine = run_with(
        &faulted(15.0, 42, FaultMode::Quarantine),
        &traffic(8, 42),
        &mut NoopRecorder,
    );
    let failstop = run_with(
        &faulted(15.0, 42, FaultMode::FailStop),
        &traffic(8, 42),
        &mut NoopRecorder,
    );
    assert_eq!(quarantine.completed(), 8);
    assert_eq!(quarantine.failed, 0);
    assert!(failstop.failed > 0, "fail-stop loses jobs at this rate");
    assert!(quarantine.completed() > failstop.completed());
}

/// Property sweep over fault seeds: whenever a quarantine re-carve shrinks
/// the healthy window during a cached run, the re-carve must consult the
/// morph-decision cache's invalidation hook (the `cache.invalidate` counter
/// is recorded) — and the faulted cached run must still reproduce the
/// uncached report exactly.
#[test]
fn quarantine_recarve_always_invalidates_cached_geometry() {
    use mocha_obs::names;
    let mut quarantined_seeds = 0;
    for fault_seed in 1..=6u64 {
        let base = faulted(20.0, fault_seed, FaultMode::Quarantine);
        let cached = RuntimeConfig {
            cache: true,
            ..base.clone()
        };
        let subs = traffic(8, 42);
        let plain = run_with(&base, &subs, &mut NoopRecorder);
        let mut rec = MemRecorder::new();
        let report = run_with(&cached, &subs, &mut rec);
        assert_eq!(
            report, plain,
            "seed {fault_seed}: cached faulted run diverged"
        );
        let quarantines = rec.counter(names::FAULT_QUARANTINED);
        let invalidate_records = rec
            .to_jsonl()
            .lines()
            .filter(|l| l.contains("\"cache.invalidate\""))
            .count() as u64;
        if quarantines > 0 {
            quarantined_seeds += 1;
            assert!(
                invalidate_records > 0,
                "seed {fault_seed}: {quarantines} quarantines but no invalidation consult"
            );
        } else {
            assert_eq!(
                rec.counter(names::CACHE_INVALIDATED),
                0,
                "seed {fault_seed}: invalidation without a quarantine"
            );
        }
    }
    assert!(
        quarantined_seeds > 0,
        "sweep never quarantined; property untested"
    );
}

/// Completed jobs keep verifying bit-exactly against the single-tenant
/// golden run even when faults forced retries, evictions, restarts and
/// re-morphs. Each case asserts that the recovery path it covers ran.
#[test]
fn outputs_stay_bit_exact_under_fault_recovery() {
    use mocha_obs::names;
    use mocha_runtime::LeasePolicy;
    let subs = traffic(6, 11);
    let clean = run_with(&RuntimeConfig::default(), &subs, &mut NoopRecorder);
    let static_quarantine = RuntimeConfig {
        policy: LeasePolicy::StaticEqual,
        ..faulted(25.0, 2, FaultMode::Quarantine)
    };
    for (name, cfg, path) in [
        (
            "adaptive quarantine",
            faulted(25.0, 2, FaultMode::Quarantine),
            names::FAULT_EVICTIONS,
        ),
        (
            "static quarantine",
            static_quarantine,
            names::FAULT_EVICTIONS,
        ),
        (
            "fail-stop",
            faulted(5.0, 2, FaultMode::FailStop),
            names::FAULT_RESTARTS,
        ),
    ] {
        let mut rec = MemRecorder::new();
        let report = run_with(&cfg, &subs, &mut rec);
        assert!(report.retried > 0, "{name}: this seed must retry something");
        assert!(rec.counter(path) > 0, "{name}: {path} never happened");
        assert!(!report.jobs.is_empty(), "{name}: some job completes");
        for j in &report.jobs {
            let golden = clean
                .jobs
                .iter()
                .find(|g| g.id == j.id)
                .expect("clean run completes everything");
            assert_eq!(j.output_hash, golden.output_hash, "{name}: job {}", j.id);
            assert_eq!(
                j.work_macs, golden.work_macs,
                "{name}: useful work is identical"
            );
        }
    }
}
