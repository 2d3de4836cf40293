//! The multi-tenant scheduler: a deterministic virtual-time event loop over
//! job arrivals, group boundaries, and (optionally) injected faults.
//!
//! ## Model
//!
//! Time is fabric cycles. The loop is a private `Scheduler`; at every event
//! instant its phase methods run in this order:
//!
//! 1. `manifest_faults`: faults due at or before the instant manifest
//!    (only with [`RuntimeConfig::faults`]; see "Fault handling" below).
//!    Groups whose boundary falls on the same instant committed first:
//!    commit wins ties.
//! 2. `arrive`: arrivals due at or before the instant join the queue.
//! 3. `detect_latent_damage` (fail-stop only): a group that completed on a
//!    broken region restarts its job.
//! 4. `retire`: jobs whose last fusion group completes now finish and
//!    release their lease; the others at a boundary are *ready*.
//! 5. `plan_and_release`: target leases are carved for the *desired*
//!    membership — the residents plus the best queued jobs up to the
//!    capacity cap (priority, then arrival, then id). Under the adaptive
//!    policy the carve is proportional to each member's remaining work
//!    scaled by its priority; under the static policy each job keeps a
//!    fixed equal slot. Ready residents re-lease toward their targets.
//! 6. `admit`: candidates enter onto their target when it is free, or
//!    (adaptive only) onto an *interim* lease carved from the currently
//!    free gaps, so freed fabric never idles waiting for a mid-group
//!    neighbour.
//! 7. `step`: every ready job executes its next fusion group on the
//!    sub-fabric of whatever lease it now holds — the controller re-decides
//!    the morph for that sub-fabric, which is the online re-morph. Ready
//!    jobs step in parallel on a [`mocha_engine::Engine`] worker pool,
//!    which reduces results in input order, so the loop is bit-for-bit
//!    deterministic regardless of worker count.
//! 8. `advance`: the clock moves to the next boundary, arrival or fault.
//!
//! Debug builds check conservation after every phase: each arrived
//! submission is queued, resident, done or failed exactly once, and the
//! held leases form a valid set.
//!
//! ## Safe lease handoff
//!
//! A job may only adopt a lease when the resulting *held* set — every
//! other resident job's currently held lease plus the new one — still
//! passes [`FabricPartition::validate_set`] (pairwise disjoint, share sums
//! within the parent), so the held set is disjoint at *every* instant:
//! there is no transient oversubscription window. A ready job whose target
//! is still occupied by a mid-group neighbour shrinks or grows onto the
//! best free-space lease clamped to its target's shares (its own old strip
//! counts as free, so an in-place resize is always available) and retries
//! the exact target at its next boundary; transitions converge as
//! mid-group holders drain.
//!
//! ## Fault handling
//!
//! With a [`FaultPlan`], a seeded [`FaultTimeline`] interleaves fault
//! events with the virtual clock; every event is processed sequentially in
//! the main loop (never inside the parallel step), so fault runs stay
//! byte-identical at any worker count. Under
//! [`FaultMode::Quarantine`] a *transient* fault costs its victim only the
//! interrupted fusion group, which re-runs in place; a *permanent* fault
//! additionally quarantines the region — later carves avoid it
//! ([`CarveWindow`]) and overlapping residents are evicted back to the
//! queue with their session intact, re-running only the interrupted group
//! after re-admission (at its recorded cost). Under [`FaultMode::FailStop`]
//! nothing is routed around: any fault restarts the whole victim job from
//! scratch, and a job whose group completes on a broken region restarts
//! too (its output is untrusted). Both modes bound per-job
//! retries/restarts by [`FaultPlan::max_retries`], after which the job is
//! dropped as *failed* — so every run terminates. Time and energy thrown
//! away to faults are attributed via `fault/<kind>` spans and the
//! `fault.*` counters. With `faults: None` every hook short-circuits and
//! the loop is the exact pre-fault code path.

use crate::job::{JobId, Priority, Submission};
use crate::lease::{carve, carve_in, max_tenants, LeasePolicy};
use crate::report::{JobReport, RuntimeReport};
use mocha_core::{Accelerator, DecisionCache, DecisionShard, Session, Simulator};
use mocha_fabric::{FabricConfig, FabricPartition};
use mocha_fault::{
    CarveWindow, FaultEvent, FaultKind, FaultMode, FaultPlan, FaultTimeline, Quarantine,
};
use mocha_model::gen::Workload;
use mocha_obs::{names, NoopRecorder, Recorder};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The parent fabric all leases are carved from.
    pub fabric: FabricConfig,
    /// Lease assignment policy.
    pub policy: LeasePolicy,
    /// Admission cap (further clamped to what the fabric can host).
    pub max_tenants: usize,
    /// Verify every group against the golden model (slower; on by default).
    pub verify: bool,
    /// Worker threads for stepping ready jobs (and the controller searches
    /// under them). `0` = the process-default engine width (see
    /// [`mocha_engine::set_default_threads`]); `1` = fully sequential.
    /// Reports and recorder streams are byte-identical for every value.
    pub threads: usize,
    /// Deterministic fault injection; `None` (the default) disables the
    /// fault layer entirely and reproduces the fault-free loop exactly.
    pub faults: Option<FaultPlan>,
    /// Consult a morph-decision cache across jobs (off by default). The
    /// cache memoizes controller searches keyed on normalized geometry and
    /// hits only on exact estimate bits, so every report and recorder
    /// stream except the `cache.*` counters is byte-identical to an
    /// uncached run at any thread count.
    pub cache: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            fabric: FabricConfig::mocha_quad(),
            policy: LeasePolicy::Adaptive,
            max_tenants: 4,
            verify: true,
            threads: 0,
            faults: None,
            cache: false,
        }
    }
}

impl RuntimeConfig {
    /// The effective tenant cap: the requested cap clamped to the fabric's
    /// structural limit.
    pub fn cap(&self) -> usize {
        self.max_tenants.clamp(1, max_tenants(&self.fabric))
    }
}

/// A job waiting for admission — fresh, or evicted mid-run by a quarantine
/// and waiting to resume.
struct Queued {
    id: JobId,
    sub: Submission,
    resume: Option<Box<Resume>>,
}

/// Carried state of an evicted resident, so re-admission continues the job
/// instead of restarting it.
struct Resume {
    session: Session,
    tally: Tally,
    /// `(cycles, energy_pj)` of the fusion group the eviction interrupted;
    /// it re-runs at its recorded cost on the new lease before the
    /// session's next group.
    redo: Option<(u64, f64)>,
}

/// What a job accumulates over its life, carried across evictions and
/// reported when it finishes.
#[derive(Default)]
struct Tally {
    admitted: u64,
    remorphs: usize,
    busy_cycles: u64,
    leased_pe_cycles: f64,
    energy_pj: f64,
    work_macs: u64,
    groups: usize,
    /// Fault retries/restarts consumed so far (bounded by the plan).
    retries: usize,
}

/// A resident job.
struct Resident {
    id: JobId,
    sub: Submission,
    session: Session,
    lease: FabricPartition,
    /// Fixed slot index under [`LeasePolicy::StaticEqual`].
    slot: usize,
    /// Absolute cycle the current group completes (== now when ready).
    boundary: u64,
    tally: Tally,
    /// Start cycle of the in-flight fusion group.
    group_start: u64,
    /// Cycles of the in-flight fusion group.
    group_len: u64,
    /// Energy of the in-flight fusion group, pJ.
    group_energy: f64,
    /// Start cycle of the current fail-stop attempt (== admission, until a
    /// restart).
    attempt_start: u64,
    /// Energy accumulated by the current fail-stop attempt, pJ.
    attempt_energy: f64,
}

impl Resident {
    /// Charges `cycles` on the job's lease and `energy_pj` to its busy,
    /// leased-PE, energy and attempt totals.
    fn charge(&mut self, cycles: u64, energy_pj: f64) {
        self.tally.busy_cycles += cycles;
        self.tally.leased_pe_cycles += cycles as f64 * self.lease.pes() as f64;
        self.tally.energy_pj += energy_pj;
        self.attempt_energy += energy_pj;
    }

    /// Takes back the `cycles` and `energy_pj` of an in-flight group that
    /// was charged in full when it was stepped but never executed.
    fn trim(&mut self, cycles: u64, energy_pj: f64) {
        self.tally.busy_cycles -= cycles;
        self.tally.leased_pe_cycles -= cycles as f64 * self.lease.pes() as f64;
        self.tally.energy_pj -= energy_pj;
        self.attempt_energy -= energy_pj;
    }

    /// Starts an in-flight group of `cycles` and `energy_pj` at `now`.
    fn start_group(&mut self, now: u64, cycles: u64, energy_pj: f64) {
        self.group_start = now;
        self.group_len = cycles;
        self.group_energy = energy_pj;
        self.boundary = now + cycles;
    }
}

/// Runs the configured runtime over a submission trace and reports.
///
/// Submissions are taken in order; `arrival_cycle` must be non-decreasing.
///
/// # Panics
/// Panics on invalid job specs, unsorted arrivals, or (with `verify`) any
/// divergence from the golden model.
pub fn run(cfg: &RuntimeConfig, submissions: &[Submission]) -> RuntimeReport {
    run_with(cfg, submissions, &mut NoopRecorder)
}

/// [`run`] with an observability recorder: the scheduler emits lifecycle
/// counters (submissions, admissions, deferrals, remorphs, and with faults
/// enabled the `fault.*` namespace), a `job/<id>` span per finished job
/// with its groups and tile phases nested under it, a `fault/<kind>` span
/// per window of fabric time a fault discards, and latency/queue-wait
/// histograms — all on the virtual clock, so two identically-seeded runs
/// record byte-identical streams. With [`NoopRecorder`] (`ACTIVE = false`)
/// every hook compiles away and the function is exactly [`run`].
pub fn run_with<R: Recorder>(
    cfg: &RuntimeConfig,
    submissions: &[Submission],
    rec: &mut R,
) -> RuntimeReport {
    let mut cache = cfg.cache.then(DecisionCache::new);
    Scheduler::new(cfg, submissions, cache.as_mut(), rec).run()
}

/// [`run_with`] sharing a caller-owned morph-decision cache, so repeated
/// batches (a serving reactor, a warm benchmark pass) reuse decisions from
/// earlier runs. The cache is consulted regardless of
/// [`RuntimeConfig::cache`]; per-round worker shards are merged back in
/// canonical job order, so reports and streams stay byte-identical at any
/// [`RuntimeConfig::threads`].
pub fn run_with_cache<R: Recorder>(
    cfg: &RuntimeConfig,
    submissions: &[Submission],
    cache: &mut DecisionCache,
    rec: &mut R,
) -> RuntimeReport {
    Scheduler::new(cfg, submissions, Some(cache), rec).run()
}

/// The event loop's state; each phase of the module doc is one method.
struct Scheduler<'a, R: Recorder> {
    cfg: &'a RuntimeConfig,
    submissions: &'a [Submission],
    cache: Option<&'a mut DecisionCache>,
    rec: &'a mut R,
    engine: mocha_engine::Engine,
    /// The requested tenant cap, clamped to the fabric.
    cap: usize,
    /// Largest healthy carve window (the full fabric until a quarantine).
    window: CarveWindow,
    /// Static-policy slots carved inside `window`.
    static_slots: Vec<FabricPartition>,
    /// The fault events still to come (only with faults enabled).
    timeline: Option<FaultTimeline>,
    /// Permanently-faulty regions: quarantined ones later carves avoid, or
    /// under fail-stop broken ones nobody routes around.
    damaged: Quarantine,
    queue: Vec<Queued>,
    /// Resident jobs in id order.
    resident: Vec<Resident>,
    done: Vec<JobReport>,
    /// Submissions that have arrived so far.
    next_sub: usize,
    now: u64,
    retried_jobs: usize,
    failed_jobs: usize,
    /// Latest instant a job left the system *without* finishing: failed
    /// jobs have no JobReport, but the cycles burned on them are real
    /// wall-clock, so the report horizon may not end before the last
    /// failure.
    horizon_floor: u64,
}

impl<'a, R: Recorder> Scheduler<'a, R> {
    fn new(
        cfg: &'a RuntimeConfig,
        submissions: &'a [Submission],
        cache: Option<&'a mut DecisionCache>,
        rec: &'a mut R,
    ) -> Self {
        for (i, s) in submissions.iter().enumerate() {
            s.spec.validate().unwrap_or_else(|e| panic!("job {i}: {e}"));
            if i > 0 {
                assert!(
                    submissions[i - 1].arrival_cycle <= s.arrival_cycle,
                    "submissions must arrive in non-decreasing cycle order"
                );
            }
        }
        let cap = cfg.cap();
        Self {
            cfg,
            submissions,
            cache,
            rec,
            engine: mocha_engine::Engine::new(cfg.threads),
            cap,
            window: CarveWindow::full(&cfg.fabric),
            static_slots: carve(&cfg.fabric, &vec![1; cap]),
            timeline: cfg
                .faults
                .as_ref()
                .map(|plan| FaultTimeline::new(plan, &cfg.fabric)),
            damaged: Quarantine::default(),
            queue: Vec::new(),
            resident: Vec::new(),
            done: Vec::new(),
            next_sub: 0,
            now: submissions.first().map_or(0, |s| s.arrival_cycle),
            retried_jobs: 0,
            failed_jobs: 0,
            horizon_floor: 0,
        }
    }

    fn run(mut self) -> RuntimeReport {
        loop {
            self.manifest_faults();
            self.check();
            self.arrive();
            self.check();
            self.detect_latent_damage();
            self.check();
            self.retire();
            self.check();
            let candidates = self.plan_and_release();
            self.check();
            self.admit(candidates);
            self.check();
            self.step();
            self.check();
            if !self.advance() {
                break;
            }
        }
        self.report()
    }

    /// The fault plan; only called with faults enabled.
    fn plan(&self) -> &'a FaultPlan {
        self.cfg.faults.as_ref().expect("fault plan present")
    }

    /// Removes and returns the residents `pred` selects, keeping id order.
    fn take_resident(&mut self, pred: impl Fn(&Resident) -> bool) -> Vec<Resident> {
        let (taken, kept) = std::mem::take(&mut self.resident)
            .into_iter()
            .partition(pred);
        self.resident = kept;
        taken
    }

    /// Conservation after every phase: each arrived submission is queued,
    /// resident, done or failed exactly once, and the held leases form a
    /// valid set.
    fn check(&self) {
        debug_assert_eq!(
            self.queue.len() + self.resident.len() + self.done.len() + self.failed_jobs,
            self.next_sub,
            "a job was lost or duplicated"
        );
        debug_assert!(FabricPartition::validate_set(
            &self.resident.iter().map(|r| r.lease).collect::<Vec<_>>(),
            &self.cfg.fabric
        )
        .is_ok());
    }

    /// Phase 1: faults at or before `now` manifest, strictly sequentially.
    fn manifest_faults(&mut self) {
        while let Some(ev) = self
            .timeline
            .as_mut()
            .filter(|t| t.peek().is_some_and(|e| e.at <= self.now))
            .and_then(|t| t.pop())
        {
            self.manifest(ev);
        }
    }

    /// Counts one fault, records its damage and recovers its victims.
    fn manifest(&mut self, ev: FaultEvent) {
        self.rec.add(names::FAULT_INJECTED, 1);
        self.rec.add(kind_counter(&ev.kind), 1);
        self.rec.add(
            if ev.permanent {
                names::FAULT_PERMANENT
            } else {
                names::FAULT_TRANSIENT
            },
            1,
        );
        let mode = self.plan().mode;
        let quarantined = ev.permanent && self.damage(&ev.kind);
        let victims = fault_victims(&ev.kind, &self.resident, self.now);
        if victims.iter().any(|&(_, mid)| mid) {
            self.rec.add(names::FAULT_HITS, 1);
        }
        for &(i, mid_group) in victims.iter().rev() {
            match mode {
                FaultMode::Quarantine if mid_group => self.interrupt(i, &ev.kind, quarantined),
                // The victim's group committed before the fault; only a
                // quarantine (its lease / lane share is gone) forces it
                // back to the queue — for free.
                FaultMode::Quarantine if quarantined => {
                    self.rec.add(names::FAULT_EVICTIONS, 1);
                    let r = self.resident.remove(i);
                    self.queue.push(requeue(r, None));
                }
                FaultMode::FailStop if mid_group => {
                    self.restart_or_fail(i, ev.kind.name());
                }
                _ => {}
            }
        }
    }

    /// Permanent damage: quarantine mode retires the region (unless that
    /// would brick the last tenant slot — then the fault is handled as
    /// transient); fail-stop just remembers it broke. Returns whether the
    /// region was quarantined.
    fn damage(&mut self, kind: &FaultKind) -> bool {
        if self.plan().mode == FaultMode::FailStop {
            self.damaged.insert(kind);
            return false;
        }
        if !self.damaged.admit(kind, &self.cfg.fabric) {
            return false;
        }
        self.rec.add(names::FAULT_QUARANTINED, 1);
        let w = self.damaged.window(&self.cfg.fabric);
        self.window = w;
        let slots = self.cap.min(w.max_tenants());
        self.static_slots = carve_in(&self.cfg.fabric, &w, &vec![1; slots]);
        // The healthy window shrank: cached decisions for sub-fabrics the
        // window can no longer host are dead geometry — evict them.
        if let Some(c) = self.cache.as_deref_mut() {
            c.invalidate_window(w.cols, w.banks, w.lanes, w.dmas, w.codecs, self.rec);
        }
        true
    }

    /// A quarantine-mode fault interrupted resident `i` mid-group: the
    /// executed part of the group is lost, one retry is spent, and the
    /// group re-runs — in place after a transient fault, after
    /// re-admission when the region was quarantined.
    fn interrupt(&mut self, i: usize, kind: &FaultKind, quarantined: bool) {
        let now = self.now;
        let (lost, lost_energy) = lost_window(&self.resident[i], now);
        if lost > 0 {
            let start = self.resident[i].group_start;
            self.rec
                .span(|| format!("fault/{}", kind.name()), start, now);
            self.rec.add(names::FAULT_LOST_CYCLES, lost);
            self.rec.add_f64(names::FAULT_LOST_ENERGY_PJ, lost_energy);
        }
        if !self.spend_retry(i) {
            return;
        }
        if quarantined {
            // Lease (or lane/DMA share) is gone: evict, and redo the
            // interrupted group after re-admission. Only `lost` of the
            // group executed here; the redo re-charges it on the new lease.
            self.rec.add(names::FAULT_EVICTIONS, 1);
            let mut r = self.resident.remove(i);
            r.trim(r.group_len - lost, r.group_energy - lost_energy);
            let redo = Some((r.group_len, r.group_energy));
            self.queue.push(requeue(r, redo));
        } else {
            // Transient: the interrupted group re-runs in place; the
            // partial window is pure waste.
            self.rec.add(names::FAULT_RETRIES, 1);
            let r = &mut self.resident[i];
            r.charge(lost, lost_energy);
            r.start_group(now, r.group_len, r.group_energy);
        }
    }

    /// Spends one retry of resident `i`'s budget. Returns `true` when the
    /// job lives on; on a blown budget it removes the job (reporting it
    /// failed) and returns `false`.
    fn spend_retry(&mut self, i: usize) -> bool {
        let max_retries = self.plan().max_retries;
        let tally = &mut self.resident[i].tally;
        tally.retries += 1;
        if tally.retries == 1 {
            self.rec.add(names::RUNTIME_JOBS_RETRIED, 1);
            self.retried_jobs += 1;
        }
        if tally.retries <= max_retries {
            return true;
        }
        let r = self.resident.remove(i);
        self.rec.add(names::RUNTIME_JOBS_FAILED, 1);
        self.failed_jobs += 1;
        // The fabric was busy with the doomed job until this instant, so the
        // report horizon (and thus throughput) must cover it.
        self.horizon_floor = self.horizon_floor.max(self.now);
        // The job's span still closes, so the trace attributes its fabric time.
        self.rec
            .span(|| format!("job/{}", r.id), r.tally.admitted, self.now);
        false
    }

    /// Fail-stop recovery: account the wasted attempt, then restart the job
    /// from scratch in place — or drop it when its budget is blown. Returns
    /// `true` when the resident at `i` still exists.
    fn restart_or_fail(&mut self, i: usize, kind: &'static str) -> bool {
        let now = self.now;
        let r = &mut self.resident[i];
        // The interrupted group was charged in full when it was stepped;
        // trim the part that never executed before accounting the waste.
        let remainder = (r.group_start + r.group_len).saturating_sub(now);
        if remainder > 0 {
            r.trim(
                remainder,
                r.group_energy * remainder as f64 / r.group_len as f64,
            );
        }
        let lost = now - r.attempt_start;
        if lost > 0 {
            self.rec
                .span(|| format!("fault/{kind}"), r.attempt_start, now);
            self.rec.add(names::FAULT_LOST_CYCLES, lost);
            self.rec
                .add_f64(names::FAULT_LOST_ENERGY_PJ, r.attempt_energy);
        }
        if !self.spend_retry(i) {
            return false;
        }
        self.rec.add(names::FAULT_RESTARTS, 1);
        let r = &mut self.resident[i];
        // Everything the attempt computed is discarded; busy cycles and energy
        // were physically spent and stay counted.
        r.session = make_session(self.cfg, &r.sub);
        r.tally.work_macs = 0;
        r.attempt_start = now;
        r.attempt_energy = 0.0;
        r.start_group(now, 0, 0.0);
        true
    }

    /// Phase 2: arrivals at or before `now` join the queue.
    fn arrive(&mut self) {
        while let Some(sub) = self
            .submissions
            .get(self.next_sub)
            .filter(|s| s.arrival_cycle <= self.now)
        {
            self.queue.push(Queued {
                id: self.next_sub as JobId,
                sub: sub.clone(),
                resume: None,
            });
            self.next_sub += 1;
            self.rec.add(names::RUNTIME_JOBS_SUBMITTED, 1);
        }
    }

    /// Phase 3, fail-stop only: a group that completes on a broken region
    /// produced untrusted output — the whole job restarts (and keeps
    /// restarting until its retry budget fails it; fail-stop never routes
    /// around damage).
    fn detect_latent_damage(&mut self) {
        if self.damaged.is_empty() || self.plan().mode != FaultMode::FailStop {
            return;
        }
        let mut i = 0;
        while i < self.resident.len() {
            let r = &self.resident[i];
            let kind = (r.boundary == self.now)
                .then(|| self.damaged.overlap_kind(&r.lease))
                .flatten();
            let Some(kind) = kind else {
                i += 1;
                continue;
            };
            self.rec.add(names::FAULT_HITS, 1);
            if self.restart_or_fail(i, kind) {
                i += 1;
            }
        }
    }

    /// Phase 4: jobs whose last group completes now retire.
    fn retire(&mut self) {
        let now = self.now;
        for r in self.take_resident(|r| r.boundary == now && r.session.done()) {
            let admitted = r.tally.admitted;
            self.rec.add(names::RUNTIME_JOBS_FINISHED, 1);
            self.rec.span(|| format!("job/{}", r.id), admitted, now);
            self.rec
                .sample(names::HIST_JOB_LATENCY, now - r.sub.arrival_cycle);
            self.rec
                .sample(names::HIST_QUEUE_WAIT, admitted - r.sub.arrival_cycle);
            self.done.push(finalize(r, now));
        }
    }

    /// Phase 5: plan leases for the desired membership — the residents plus
    /// the best queued jobs up to the cap (priority desc, arrival asc, id
    /// asc) — and re-lease ready residents toward their targets, so
    /// residents at a boundary shrink *now*, making room for admissions.
    /// With a quarantine the carve happens inside the healthy window and
    /// the cap shrinks to what that window can host. Returns each
    /// candidate's `(target, slot)`, index-aligned with the queue's head.
    fn plan_and_release(&mut self) -> Vec<(FabricPartition, usize)> {
        self.queue.sort_by_key(|q| {
            (
                std::cmp::Reverse(q.sub.spec.priority),
                q.sub.arrival_cycle,
                q.id,
            )
        });
        let eff_cap = self.cap.min(self.window.max_tenants()).max(1);
        let n_new = eff_cap
            .saturating_sub(self.resident.len())
            .min(self.queue.len());
        let (targets, cand_targets) = plan_leases(
            self.cfg,
            &self.window,
            &self.static_slots,
            &self.resident,
            &self.queue[..n_new],
        );
        // Ready residents re-lease in id order. A ready job adopts its exact
        // target when the handoff is safe against everyone else's held
        // lease; when the target is still occupied it takes the best
        // free-space lease clamped to the target's shares instead —
        // shrinking immediately when the carve asks it to, growing only
        // when that actually gains PEs. Its own old strip counts as free
        // here, so a shrink or an in-place resize is always possible and
        // every job holds a valid lease at every instant.
        let parent = &self.cfg.fabric;
        for (i, target) in targets.into_iter().enumerate() {
            let old = self.resident[i].lease;
            if self.resident[i].boundary != self.now || target == old {
                continue;
            }
            let others: Vec<FabricPartition> = self
                .resident
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, r)| r.lease)
                .collect();
            let new_lease = if fits(parent, &others, target) {
                target
            } else {
                match interim_lease(parent, &self.window, &others, &target) {
                    Some(l) if target.pes() < old.pes() || l.pes() > old.pes() => l,
                    _ => old,
                }
            };
            let r = &mut self.resident[i];
            if new_lease != old {
                r.lease = new_lease;
                if r.tally.groups > 0 {
                    r.tally.remorphs += 1;
                    self.rec.add(names::RUNTIME_REMORPHS, 1);
                }
            }
        }
        cand_targets
    }

    /// Phase 6: a candidate enters on its target lease when that no longer
    /// conflicts with any held lease. Under the adaptive policy a blocked
    /// candidate is instead started immediately on an *interim* lease
    /// carved from whatever is free right now (freed fabric never idles
    /// waiting for mid-group neighbours); boundary re-leasing then
    /// converges it to its carve target. Under the static policy the
    /// target is a free slot and never conflicts.
    fn admit(&mut self, candidates: Vec<(FabricPartition, usize)>) {
        let (parent, now) = (&self.cfg.fabric, self.now);
        for (qi, (target, slot)) in candidates.into_iter().enumerate().rev() {
            let held: Vec<FabricPartition> = self.resident.iter().map(|r| r.lease).collect();
            let lease = if fits(parent, &held, target) {
                target
            } else {
                let interim = match self.cfg.policy {
                    LeasePolicy::Adaptive => interim_lease(parent, &self.window, &held, &target),
                    LeasePolicy::StaticEqual => None,
                };
                // Only start a job on an interim lease that carries at
                // least half its target PEs or a full fair share of the
                // fabric: a sliver admission pins the job to the sliver
                // for its whole first group, which is worse than waiting
                // one boundary for real space.
                match interim {
                    Some(l)
                        if 2 * l.pes() >= target.pes() || l.pes() * self.cap >= parent.pes() =>
                    {
                        self.rec.add(names::RUNTIME_INTERIM_ADMISSIONS, 1);
                        l
                    }
                    _ => {
                        self.rec.add(names::RUNTIME_ADMISSION_DEFERRALS, 1);
                        continue;
                    }
                }
            };
            let cand = self.queue.remove(qi);
            let Resume {
                session,
                tally,
                redo,
            } = match cand.resume {
                Some(b) => *b,
                None => {
                    self.rec.add(names::RUNTIME_JOBS_ADMITTED, 1);
                    Resume {
                        session: make_session(self.cfg, &cand.sub),
                        tally: Tally {
                            admitted: now,
                            ..Tally::default()
                        },
                        redo: None,
                    }
                }
            };
            let mut r = Resident {
                id: cand.id,
                sub: cand.sub,
                session,
                lease,
                slot,
                boundary: now,
                tally,
                group_start: now,
                group_len: 0,
                group_energy: 0.0,
                attempt_start: now,
                attempt_energy: 0.0,
            };
            if let Some((cycles, energy_pj)) = redo {
                // Re-run the group the eviction interrupted, at its
                // recorded cost, before the session's next group.
                r.charge(cycles, energy_pj);
                r.start_group(now, cycles, energy_pj);
            }
            let at = insertion_point(&self.resident, r.id);
            self.resident.insert(at, r);
        }
    }

    /// Phase 7: pull the ready jobs out, step them concurrently
    /// (order-preserving, so deterministic), and merge them back.
    fn step(&mut self) {
        let now = self.now;
        let ready = self.take_resident(|r| r.boundary == now);
        let parent = self.cfg.fabric;
        // Each parallel task reads an immutable snapshot of the cache
        // through a private shard and returns its delta; deltas are
        // absorbed below in canonical (id) order, first insert wins, so
        // the cache contents — and everything downstream — are identical
        // at any worker count.
        let snap = self.cache.as_deref();
        let stepped = self.engine.map_vec(ready, |_, mut r| {
            let mut shard = match snap {
                Some(c) => DecisionShard::new(c),
                None => DecisionShard::disabled(),
            };
            let sub = r.lease.sub_config(&parent);
            let g = r.session.step_on_shard(&sub, &mut shard);
            let (cycles, group_energy, work_macs) =
                (g.cycles.max(1), g.energy.total_pj(), g.work_macs);
            r.charge(cycles, group_energy);
            r.tally.work_macs += work_macs;
            r.tally.groups += 1;
            r.start_group(now, cycles, group_energy);
            (r, shard.into_delta())
        });
        for (r, delta) in stepped {
            if let Some(c) = self.cache.as_deref_mut() {
                c.absorb(delta, self.rec);
            }
            self.rec.add(names::RUNTIME_GROUPS_STEPPED, 1);
            if R::ACTIVE {
                // Stepping happens inside the parallel map, so the recorder
                // sees each group here, sequentially in ready (id) order —
                // the same order every run.
                let g = r.session.groups().last().expect("job just stepped");
                mocha_core::record_group(self.rec, &format!("job/{}", r.id), now, g);
            }
            let at = insertion_point(&self.resident, r.id);
            self.resident.insert(at, r);
        }
    }

    /// Phase 8: advance to the next event — the earliest group boundary or
    /// the next arrival, whichever comes first, unless a fault lands on a
    /// mid-group resident before that. Returns `false` when the run is
    /// over.
    fn advance(&mut self) -> bool {
        let next_boundary = self.resident.iter().map(|r| r.boundary).min();
        let next_arrival = self.submissions.get(self.next_sub).map(|s| s.arrival_cycle);
        match next_boundary.into_iter().chain(next_arrival).min() {
            Some(t) => self.now = t,
            None if self.queue.is_empty() => return false,
            // Queue non-empty with nothing resident: admission must succeed
            // immediately (no leases are held), so re-run the loop at the
            // same instant.
            None => {}
        }
        // Faults drained above are strictly past, so the next one lies
        // after the instant just processed and the clock still advances;
        // with nothing resident a fault cannot hit anything and is simply
        // drained at the next real event.
        let next_fault = self.timeline.as_ref().and_then(|t| t.peek());
        if let Some(ev) = next_fault.filter(|_| !self.resident.is_empty()) {
            self.now = self.now.min(ev.at);
        }
        true
    }

    fn report(mut self) -> RuntimeReport {
        // Conservation: every submission arrived and left exactly once,
        // either finished (one report, unique id) or failed; nothing is
        // still queued or resident.
        let n = self.submissions.len();
        debug_assert_eq!(self.next_sub, n);
        debug_assert!(self.queue.is_empty() && self.resident.is_empty());
        debug_assert_eq!(self.done.len() + self.failed_jobs, n);
        debug_assert!(self.retried_jobs <= n && self.failed_jobs <= n);
        debug_assert!(
            {
                let mut ids: Vec<JobId> = self.done.iter().map(|j| j.id).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len() == self.done.len() && ids.iter().all(|&id| id < n as JobId)
            },
            "each submission reports at most once"
        );
        self.done.sort_by_key(|j| (j.finished, j.id));
        let leased_pe_cycles: f64 = self.done.iter().map(|j| j.leased_pe_cycles).sum();
        RuntimeReport {
            policy: self.cfg.policy.name().to_string(),
            horizon: self
                .done
                .iter()
                .map(|j| j.finished)
                .max()
                .unwrap_or(0)
                .max(self.horizon_floor),
            parent_pes: self.cfg.fabric.pes(),
            leased_pe_cycles,
            clock_ghz: mocha_energy::EnergyTable::default().clock_ghz,
            retried: self.retried_jobs,
            failed: self.failed_jobs,
            jobs: self.done,
        }
    }
}

/// The `fault.injected_<kind>` counter for a fault's scope.
pub fn kind_counter(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::PeRect { .. } => names::FAULT_INJECTED_PE,
        FaultKind::SpmBank { .. } => names::FAULT_INJECTED_SPM,
        FaultKind::NocLane { .. } => names::FAULT_INJECTED_NOC,
        FaultKind::DmaEngine { .. } => names::FAULT_INJECTED_DMA,
        FaultKind::DramChannel => names::FAULT_INJECTED_DRAM,
    }
}

/// Residents a fault touches, as `(index, mid_group)`. Retiring residents
/// (done at this boundary) are spared: their output committed first.
/// Geometric faults (PE rectangles, banks) hit by lease overlap; lane and
/// DMA faults hit the holder of the faulted unit under a deterministic
/// cumulative-share numbering in id order (an index past every held share
/// is a free unit and hits nobody); DRAM glitches hit every mid-group
/// resident.
fn fault_victims(kind: &FaultKind, resident: &[Resident], now: u64) -> Vec<(usize, bool)> {
    let alive = |r: &Resident| !(r.boundary == now && r.session.done());
    let holder_of = |unit: usize, shares: &dyn Fn(&Resident) -> usize| -> Vec<(usize, bool)> {
        let mut cum = 0;
        for (i, r) in resident.iter().enumerate() {
            if unit < cum + shares(r) {
                return if alive(r) {
                    vec![(i, r.boundary > now)]
                } else {
                    Vec::new()
                };
            }
            cum += shares(r);
        }
        Vec::new()
    };
    match kind {
        FaultKind::PeRect { .. } | FaultKind::SpmBank { .. } => resident
            .iter()
            .enumerate()
            .filter(|(_, r)| alive(r) && Quarantine::kind_hits_lease(kind, &r.lease))
            .map(|(i, r)| (i, r.boundary > now))
            .collect(),
        FaultKind::NocLane { lane } => holder_of(*lane, &|r| r.lease.noc_dma_lanes),
        FaultKind::DmaEngine { engine } => holder_of(*engine, &|r| r.lease.dma_engines),
        FaultKind::DramChannel => resident
            .iter()
            .enumerate()
            .filter(|(_, r)| r.boundary > now)
            .map(|(i, _)| (i, true))
            .collect(),
    }
}

/// The partial window of the victim's in-flight group a fault just
/// invalidated: `(cycles, energy_pj)` pro-rated over the group.
fn lost_window(r: &Resident, now: u64) -> (u64, f64) {
    let lost = now - r.group_start;
    let energy = if r.group_len > 0 {
        r.group_energy * lost as f64 / r.group_len as f64
    } else {
        0.0
    };
    (lost, energy)
}

/// Sends an evicted resident back to the admission queue with its session
/// and tally intact.
fn requeue(r: Resident, redo: Option<(u64, f64)>) -> Queued {
    Queued {
        id: r.id,
        sub: r.sub,
        resume: Some(Box::new(Resume {
            session: r.session,
            tally: r.tally,
            redo,
        })),
    }
}

/// Builds the simulation session for one admitted job.
fn make_session(cfg: &RuntimeConfig, sub: &Submission) -> Session {
    let network = mocha_model::network::by_name(&sub.spec.network).expect("validated");
    let profile = sub.spec.sparsity_profile().expect("validated");
    let workload = Workload::generate(network, profile, sub.spec.seed);
    let mut sim = Simulator::new(Accelerator::mocha(sub.spec.objective));
    sim.verify = cfg.verify;
    Session::new(sim, workload)
}

/// Whether `lease` can join the `held` set: pairwise disjoint and within
/// the parent's shares.
fn fits(parent: &FabricConfig, held: &[FabricPartition], lease: FabricPartition) -> bool {
    let mut set = held.to_vec();
    set.push(lease);
    FabricPartition::validate_set(&set, parent).is_ok()
}

/// Plans leases for the *desired* membership: the current residents plus
/// the given admission candidates, carved inside the healthy window.
/// Returns the residents' targets (index-aligned with `resident`) and each
/// candidate's `(target, slot)` (index-aligned with `candidates`). When
/// quarantines have shrunk the window below the current residency, every
/// resident keeps its lease and no candidates are planned; the set
/// converges as residents retire.
fn plan_leases(
    cfg: &RuntimeConfig,
    window: &CarveWindow,
    static_slots: &[FabricPartition],
    resident: &[Resident],
    candidates: &[Queued],
) -> (Vec<FabricPartition>, Vec<(FabricPartition, usize)>) {
    let free_slots: Vec<usize> = (0..static_slots.len())
        .filter(|s| resident.iter().all(|r| r.slot != *s))
        .collect();
    match cfg.policy {
        LeasePolicy::StaticEqual => (
            resident
                .iter()
                .map(|r| static_slots.get(r.slot).copied().unwrap_or(r.lease))
                .collect(),
            candidates
                .iter()
                .zip(&free_slots)
                .map(|(_, &s)| (static_slots[s], s))
                .collect(),
        ),
        LeasePolicy::Adaptive => {
            if resident.len() + candidates.len() > window.max_tenants() {
                return (resident.iter().map(|r| r.lease).collect(), Vec::new());
            }
            // Shares are proportional to remaining work scaled by priority:
            // heavy co-residents get more fabric, so tenants tend to finish
            // together instead of a light job retiring early while a heavy
            // one drags a sliver of fabric far past everyone else, and a
            // nearly-done job automatically cedes space to fresh arrivals.
            let mut members: Vec<(JobId, usize)> = resident
                .iter()
                .map(|r| {
                    (
                        r.id,
                        share_weight(r.sub.spec.priority, r.session.remaining_macs()),
                    )
                })
                .chain(candidates.iter().map(|q| {
                    let macs = match &q.resume {
                        Some(b) => b.session.remaining_macs(),
                        None => spec_macs(&q.sub.spec),
                    };
                    (q.id, share_weight(q.sub.spec.priority, macs))
                }))
                .collect();
            members.sort_by_key(|&(id, _)| id);
            let weights: Vec<usize> = members.iter().map(|&(_, w)| w).collect();
            let leases = carve_in(&cfg.fabric, window, &weights);
            let by_id =
                |id: JobId| leases[members.iter().position(|&(m, _)| m == id).expect("member")];
            (
                resident.iter().map(|r| by_id(r.id)).collect(),
                candidates
                    .iter()
                    .zip(&free_slots)
                    .map(|(q, &s)| (by_id(q.id), s))
                    .collect(),
            )
        }
    }
}

/// A carve weight: priority-scaled remaining work, in MAC-millions (plus
/// one so nearly-done jobs still hold a share) to keep the
/// largest-remainder arithmetic far from overflow.
fn share_weight(p: Priority, remaining_macs: u64) -> usize {
    p.weight() * ((remaining_macs / 1_000_000) as usize + 1)
}

/// The total dense work of a not-yet-admitted job, from its network alone.
fn spec_macs(spec: &crate::job::JobSpec) -> u64 {
    mocha_model::network::by_name(&spec.network)
        .expect("validated")
        .layers()
        .iter()
        .map(|l| l.macs())
        .sum()
}

/// A best-effort interim lease for a candidate whose carve target is still
/// occupied by mid-group neighbours: a full-height column strip and bank
/// range in the largest currently-free gaps *inside the healthy window*,
/// with the window's unleased remainder of the memory path, all clamped to
/// the target's shares so later admissions at the same instant still find
/// room. `None` when any required resource class has no free capacity.
fn interim_lease(
    parent: &FabricConfig,
    window: &CarveWindow,
    held: &[FabricPartition],
    want: &FabricPartition,
) -> Option<FabricPartition> {
    let (pe_col0, cols) = largest_gap(
        parent.pe_cols,
        (window.col0, window.cols),
        held.iter().map(|l| (l.pe_col0, l.pe_cols)),
    )?;
    let (bank0, banks) = largest_gap(
        parent.spm_banks,
        (window.bank0, window.banks),
        held.iter().map(|l| (l.bank0, l.banks)),
    )?;
    let unleased = |budget: usize, share: fn(&FabricPartition) -> usize| {
        budget.saturating_sub(held.iter().map(share).sum::<usize>())
    };
    let lanes = unleased(window.lanes, |l| l.noc_dma_lanes);
    let dma = unleased(window.dmas, |l| l.dma_engines);
    let codecs = unleased(window.codecs, |l| l.codec_engines);
    if lanes == 0 || dma == 0 {
        return None;
    }
    let lease = FabricPartition {
        pe_row0: 0,
        pe_rows: parent.pe_rows,
        pe_col0,
        pe_cols: cols.min(want.pe_cols),
        bank0,
        banks: banks.min(want.banks),
        noc_dma_lanes: lanes.min(want.noc_dma_lanes),
        dma_engines: dma.min(want.dma_engines),
        codec_engines: codecs.min(want.codec_engines),
    };
    fits(parent, held, lease).then_some(lease)
}

/// The largest free interval of `[0, total)` inside the window `(w0,
/// wlen)` not covered by the `(start, len)` spans in `held`; `None` when
/// nothing is free. Held spans are disjoint (they come from a validated
/// lease set) and may overlap the window-blinding spans — the cursor max
/// handles both.
fn largest_gap(
    total: usize,
    (w0, wlen): (usize, usize),
    held: impl Iterator<Item = (usize, usize)>,
) -> Option<(usize, usize)> {
    // Space outside the window counts as taken, so the gap can only land
    // inside it. A zero-length span would split a gap, so those are dropped.
    let blind = [(0, w0), (w0 + wlen, total - w0 - wlen)];
    let mut spans: Vec<(usize, usize)> = held
        .chain(blind.into_iter().filter(|&(_, len)| len > 0))
        .collect();
    spans.sort_unstable();
    let mut best: Option<(usize, usize)> = None;
    let mut cursor = 0;
    for (start, len) in spans.into_iter().chain(std::iter::once((total, 0))) {
        if start > cursor && best.is_none_or(|(_, b)| start - cursor > b) {
            best = Some((cursor, start - cursor));
        }
        cursor = cursor.max(start + len);
    }
    best
}

/// Index at which a job id belongs in the id-sorted resident list.
fn insertion_point(resident: &[Resident], id: JobId) -> usize {
    resident.partition_point(|r| r.id < id)
}

/// Converts a retiring resident into its report.
fn finalize(r: Resident, now: u64) -> JobReport {
    let t = r.tally;
    JobReport {
        id: r.id,
        spec: r.sub.spec,
        arrival: r.sub.arrival_cycle,
        admitted: t.admitted,
        finished: now,
        groups: t.groups,
        remorphs: t.remorphs,
        retries: t.retries,
        work_macs: t.work_macs,
        busy_cycles: t.busy_cycles,
        energy_pj: t.energy_pj,
        leased_pe_cycles: t.leased_pe_cycles,
        output_hash: fnv1a(r.session.output().data()),
    }
}

/// FNV-1a over the raw output bytes.
fn fnv1a(data: &[i8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u8 as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Mix, TrafficConfig};
    use mocha_obs::MemRecorder;

    /// A permanent fault that lands exactly on a ready resident's group
    /// boundary finds its group committed: quarantine evicts the job back
    /// to the queue for free, with no group to redo. A seeded fault
    /// timeline almost never hits that cycle, so the fault is built by
    /// hand at the first such instant.
    #[test]
    fn quarantine_at_a_group_boundary_evicts_without_redo() {
        let cfg = RuntimeConfig {
            faults: Some(FaultPlan::default()),
            ..RuntimeConfig::default()
        };
        let subs = generate(&TrafficConfig {
            jobs: 4,
            load: 2.0,
            seed: 42,
            mix: Mix::Quick,
        });
        let mut rec = MemRecorder::new();
        let mut s = Scheduler::new(&cfg, &subs, None, &mut rec);
        // The phases of `run`, until the clock stops on a boundary where a
        // resident with groups left waits to step.
        let (id, lease) = loop {
            s.manifest_faults();
            s.arrive();
            s.detect_latent_damage();
            s.retire();
            let candidates = s.plan_and_release();
            s.admit(candidates);
            s.step();
            s.check();
            assert!(s.advance(), "the run ended before a ready resident");
            let now = s.now;
            let ready = s
                .resident
                .iter()
                .find(|r| r.boundary == now && !r.session.done());
            if let Some(r) = ready {
                break (r.id, r.lease);
            }
        };
        let evictions = s.rec.counter(names::FAULT_EVICTIONS);
        let (queued, resident) = (s.queue.len(), s.resident.len());
        s.manifest(FaultEvent {
            at: s.now,
            kind: FaultKind::PeRect {
                row0: lease.pe_row0,
                rows: lease.pe_rows,
                col0: lease.pe_col0,
                cols: 1,
            },
            permanent: true,
        });
        s.check();
        assert_eq!(s.rec.counter(names::FAULT_EVICTIONS), evictions + 1);
        assert_eq!(s.rec.counter(names::FAULT_QUARANTINED), 1);
        assert_eq!(
            (s.queue.len(), s.resident.len()),
            (queued + 1, resident - 1)
        );
        assert!(s.resident.iter().all(|r| r.id != id));
        let back = s.queue.last().expect("the evicted job is queued");
        assert_eq!(back.id, id);
        let resume = back.resume.as_ref().expect("an evicted job resumes");
        assert_eq!(resume.redo, None, "a committed group is not redone");
    }
}
