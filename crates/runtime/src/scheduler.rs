//! The multi-tenant scheduler: a deterministic virtual-time event loop over
//! job arrivals, group boundaries, and (optionally) injected faults.
//!
//! ## Model
//!
//! Time is fabric cycles. Things happen, always in this order at any event
//! instant:
//!
//! 0. **Faults** scheduled at or before the instant manifest (only with
//!    [`RuntimeConfig::faults`]; see "Fault handling" below). Groups whose
//!    boundary falls on the same instant committed first: commit wins ties.
//! 1. **Arrivals** at or before the instant join the admission queue.
//! 2. **Boundaries**: jobs whose current fusion group completes at this
//!    instant either finish (releasing their lease) or become *ready* for
//!    their next group.
//! 3. **Admission & re-leasing**: target leases are carved for the
//!    *desired* membership — the residents plus the best queued jobs up to
//!    the capacity cap (priority, then arrival, then id). Under the
//!    adaptive policy the carve is proportional to each member's remaining
//!    work scaled by its priority; under the static policy each job keeps
//!    a fixed equal slot. Ready residents re-lease toward their targets,
//!    then candidates are admitted — onto their target when it is free, or
//!    (adaptive only) onto an *interim* lease carved from the currently
//!    free gaps, so freed fabric never idles waiting for a mid-group
//!    neighbour.
//! 4. **Stepping**: every ready job executes its next fusion group on the
//!    sub-fabric of whatever lease it now holds — the controller re-decides
//!    the morph for that sub-fabric, which is the online re-morph. Ready
//!    jobs step in parallel on a [`mocha_engine::Engine`] worker pool,
//!    which reduces results in input order, so the loop is bit-for-bit
//!    deterministic regardless of worker count.
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
use mocha_fault::{CarveWindow, FaultKind, FaultMode, FaultPlan, FaultTimeline, Quarantine};
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

/// Carried state of an evicted resident: its session plus every accumulated
/// statistic, so re-admission continues the job instead of restarting it.
struct Resume {
    session: Session,
    admitted: u64,
    remorphs: usize,
    busy_cycles: u64,
    leased_pe_cycles: f64,
    energy_pj: f64,
    work_macs: u64,
    groups: usize,
    retries: usize,
    /// `(cycles, energy_pj)` of the fusion group the eviction interrupted;
    /// it re-runs at its recorded cost on the new lease before the
    /// session's next group.
    redo: Option<(u64, f64)>,
}

/// A resident job.
struct Resident {
    id: JobId,
    sub: Submission,
    admitted: u64,
    session: Session,
    lease: FabricPartition,
    /// Fixed slot index under [`LeasePolicy::StaticEqual`].
    slot: usize,
    /// Absolute cycle the current group completes (== now when ready).
    boundary: u64,
    remorphs: usize,
    busy_cycles: u64,
    leased_pe_cycles: f64,
    energy_pj: f64,
    work_macs: u64,
    groups: usize,
    /// Fault retries/restarts consumed so far (bounded by the plan).
    retries: usize,
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

/// Live fault state: the event stream plus the accumulated damage.
struct Faults {
    plan: FaultPlan,
    timeline: FaultTimeline,
    /// Quarantine mode: permanently-faulty regions later carves avoid.
    quarantine: Quarantine,
    /// Fail-stop mode: permanently-faulty regions nobody routes around.
    broken: Quarantine,
    /// Largest healthy carve window (the full fabric until a quarantine).
    window: CarveWindow,
    /// Static-policy slots re-carved inside the current window.
    static_slots: Vec<FabricPartition>,
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
    if cfg.cache {
        let mut cache = DecisionCache::new();
        run_impl(cfg, submissions, Some(&mut cache), rec)
    } else {
        run_impl(cfg, submissions, None, rec)
    }
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
    run_impl(cfg, submissions, Some(cache), rec)
}

fn run_impl<R: Recorder>(
    cfg: &RuntimeConfig,
    submissions: &[Submission],
    mut cache: Option<&mut DecisionCache>,
    rec: &mut R,
) -> RuntimeReport {
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
    let static_slots = carve(&cfg.fabric, &vec![1; cap]);
    let full_window = CarveWindow::full(&cfg.fabric);
    let energy = mocha_energy::EnergyTable::default();
    let engine = mocha_engine::Engine::new(cfg.threads);

    let mut faults = cfg.faults.as_ref().map(|plan| Faults {
        plan: plan.clone(),
        timeline: FaultTimeline::new(plan, &cfg.fabric),
        quarantine: Quarantine::default(),
        broken: Quarantine::default(),
        window: full_window,
        static_slots: static_slots.clone(),
    });
    let mut retried_jobs = 0usize;
    let mut failed_jobs = 0usize;
    // Latest instant a job left the system *without* finishing: failed jobs
    // have no JobReport, but the cycles burned on them are real wall-clock,
    // so the report horizon may not end before the last failure.
    let mut horizon_floor = 0u64;

    let mut queue: Vec<Queued> = Vec::new();
    let mut resident: Vec<Resident> = Vec::new();
    let mut done: Vec<JobReport> = Vec::new();
    let mut next_sub = 0usize;
    let mut now = submissions.first().map_or(0, |s| s.arrival_cycle);

    loop {
        // 0. Faults at or before `now` manifest, strictly sequentially.
        while let Some(ev) = faults
            .as_mut()
            .filter(|f| f.timeline.peek().is_some_and(|e| e.at <= now))
            .and_then(|f| f.timeline.pop())
        {
            let fs = faults.as_mut().expect("fault state present");
            rec.add(names::FAULT_INJECTED, 1);
            rec.add(kind_counter(&ev.kind), 1);
            rec.add(
                if ev.permanent {
                    names::FAULT_PERMANENT
                } else {
                    names::FAULT_TRANSIENT
                },
                1,
            );
            // Permanent damage: quarantine mode retires the region (unless
            // that would brick the last tenant slot — then the fault is
            // handled as transient); fail-stop just remembers it broke.
            let mut quarantined = false;
            if ev.permanent {
                match fs.plan.mode {
                    FaultMode::Quarantine => {
                        quarantined = fs.quarantine.admit(&ev.kind, &cfg.fabric);
                        if quarantined {
                            rec.add(names::FAULT_QUARANTINED, 1);
                            fs.window = fs.quarantine.window(&cfg.fabric);
                            let slots = cap.min(fs.window.max_tenants());
                            fs.static_slots = carve_in(&cfg.fabric, &fs.window, &vec![1; slots]);
                            // The healthy window shrank: cached decisions
                            // for sub-fabrics the window can no longer host
                            // are dead geometry — evict them.
                            if let Some(c) = cache.as_deref_mut() {
                                c.invalidate_window(
                                    fs.window.cols,
                                    fs.window.banks,
                                    fs.window.lanes,
                                    fs.window.dmas,
                                    fs.window.codecs,
                                    rec,
                                );
                            }
                        }
                    }
                    FaultMode::FailStop => fs.broken.insert(&ev.kind),
                }
            }
            let victims = fault_victims(&ev.kind, &resident, now);
            if victims.iter().any(|&(_, mid)| mid) {
                rec.add(names::FAULT_HITS, 1);
            }
            for &(i, mid_group) in victims.iter().rev() {
                match fs.plan.mode {
                    FaultMode::Quarantine => {
                        if !mid_group {
                            // The victim's group committed before the fault;
                            // only a quarantine (its lease / lane share is
                            // gone) forces it back to the queue — for free.
                            if quarantined {
                                rec.add(names::FAULT_EVICTIONS, 1);
                                queue.push(requeue(resident.remove(i), None));
                            }
                            continue;
                        }
                        let (lost, lost_energy) = lost_window(&resident[i], now);
                        if lost > 0 {
                            rec.span(
                                || format!("fault/{}", ev.kind.name()),
                                resident[i].group_start,
                                now,
                            );
                            rec.add(names::FAULT_LOST_CYCLES, lost);
                            rec.add_f64(names::FAULT_LOST_ENERGY_PJ, lost_energy);
                        }
                        if !spend_retry(
                            &mut resident,
                            i,
                            fs.plan.max_retries,
                            now,
                            rec,
                            &mut retried_jobs,
                            &mut failed_jobs,
                            &mut horizon_floor,
                        ) {
                            continue;
                        }
                        if quarantined {
                            // Lease (or lane/DMA share) is gone: evict, and
                            // redo the interrupted group after re-admission.
                            rec.add(names::FAULT_EVICTIONS, 1);
                            let mut r = resident.remove(i);
                            // The group was charged in full when it was
                            // stepped, but only `lost` of it executed here:
                            // trim the unexecuted remainder (the redo
                            // re-charges the group on the new lease).
                            let remainder = r.group_len - lost;
                            r.busy_cycles -= remainder;
                            r.leased_pe_cycles -= remainder as f64 * r.lease.pes() as f64;
                            r.energy_pj -= r.group_energy - lost_energy;
                            r.attempt_energy -= r.group_energy - lost_energy;
                            let redo = Some((r.group_len, r.group_energy));
                            queue.push(requeue(r, redo));
                        } else {
                            // Transient: the interrupted group re-runs in
                            // place; the partial window is pure waste.
                            rec.add(names::FAULT_RETRIES, 1);
                            let r = &mut resident[i];
                            r.busy_cycles += lost;
                            r.leased_pe_cycles += lost as f64 * r.lease.pes() as f64;
                            r.energy_pj += lost_energy;
                            r.attempt_energy += lost_energy;
                            r.boundary = now + r.group_len;
                            r.group_start = now;
                        }
                    }
                    FaultMode::FailStop => {
                        if !mid_group {
                            continue;
                        }
                        restart_or_fail(
                            &mut resident,
                            i,
                            ev.kind.name(),
                            fs.plan.max_retries,
                            cfg,
                            now,
                            rec,
                            &mut retried_jobs,
                            &mut failed_jobs,
                            &mut horizon_floor,
                        );
                    }
                }
            }
        }

        // 1. Arrivals at or before `now` join the queue.
        while next_sub < submissions.len() && submissions[next_sub].arrival_cycle <= now {
            queue.push(Queued {
                id: next_sub as JobId,
                sub: submissions[next_sub].clone(),
                resume: None,
            });
            next_sub += 1;
            rec.add(names::RUNTIME_JOBS_SUBMITTED, 1);
        }

        // 2a. Fail-stop latent-damage detection: a group that completes on
        //     a broken region produced untrusted output — the whole job
        //     restarts (and keeps restarting until its retry budget fails
        //     it; fail-stop never routes around damage).
        if let Some(fs) = faults
            .as_mut()
            .filter(|f| f.plan.mode == FaultMode::FailStop && !f.broken.is_empty())
        {
            let mut i = 0;
            while i < resident.len() {
                if resident[i].boundary != now {
                    i += 1;
                    continue;
                }
                let Some(kind) = fs.broken.overlap_kind(&resident[i].lease) else {
                    i += 1;
                    continue;
                };
                rec.add(names::FAULT_HITS, 1);
                if restart_or_fail(
                    &mut resident,
                    i,
                    kind,
                    fs.plan.max_retries,
                    cfg,
                    now,
                    rec,
                    &mut retried_jobs,
                    &mut failed_jobs,
                    &mut horizon_floor,
                ) {
                    i += 1;
                }
            }
        }

        // 2. Boundaries: retire completed jobs.
        let mut i = 0;
        while i < resident.len() {
            if resident[i].boundary == now && resident[i].session.done() {
                let r = resident.remove(i);
                rec.add(names::RUNTIME_JOBS_FINISHED, 1);
                rec.span(|| format!("job/{}", r.id), r.admitted, now);
                rec.sample(names::HIST_JOB_LATENCY, now - r.sub.arrival_cycle);
                rec.sample(names::HIST_QUEUE_WAIT, r.admitted - r.sub.arrival_cycle);
                done.push(finalize(r, now));
            } else {
                i += 1;
            }
        }

        // 3. Desired membership: the residents plus the best queued jobs up
        //    to the cap (priority desc, arrival asc, id asc). Targets are
        //    carved for this membership so residents at a boundary shrink
        //    *now*, making room for the admissions below. With a quarantine
        //    the carve happens inside the healthy window and the cap shrinks
        //    to what that window can host.
        queue.sort_by_key(|q| {
            (
                std::cmp::Reverse(q.sub.spec.priority),
                q.sub.arrival_cycle,
                q.id,
            )
        });
        let (window, slots): (CarveWindow, &[FabricPartition]) = match &faults {
            Some(fs) => (fs.window, &fs.static_slots),
            None => (full_window, &static_slots),
        };
        let eff_cap = cap.min(window.max_tenants()).max(1);
        let n_new = eff_cap.saturating_sub(resident.len()).min(queue.len());
        let (targets, cand_targets) = plan_leases(cfg, &window, slots, &resident, &queue[..n_new]);

        // 4. Re-lease ready residents toward their targets, in id order. A
        //    ready job adopts its exact target when the handoff is safe
        //    against everyone else's held lease; when the target is still
        //    occupied it takes the best free-space lease clamped to the
        //    target's shares instead — shrinking immediately when the carve
        //    asks it to (making room for admissions below), growing only
        //    when that actually gains PEs. Its own old strip counts as free
        //    here, so a shrink or an in-place resize is always possible and
        //    every job holds a valid lease at every instant.
        for i in 0..resident.len() {
            if resident[i].boundary != now || targets[i] == resident[i].lease {
                continue;
            }
            let others: Vec<FabricPartition> = resident
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, r)| r.lease)
                .collect();
            let mut with_target = others.clone();
            with_target.push(targets[i]);
            let old = resident[i].lease;
            let new_lease = if FabricPartition::validate_set(&with_target, &cfg.fabric).is_ok() {
                targets[i]
            } else {
                match interim_lease(&cfg.fabric, &window, &others, &targets[i]) {
                    Some(l) if targets[i].pes() < old.pes() || l.pes() > old.pes() => l,
                    _ => old,
                }
            };
            if new_lease != old {
                resident[i].lease = new_lease;
                if resident[i].groups > 0 {
                    resident[i].remorphs += 1;
                    rec.add(names::RUNTIME_REMORPHS, 1);
                }
            }
        }

        // 5. Admission: a candidate enters on its target lease when that no
        //    longer conflicts with any held lease. Under the adaptive policy
        //    a blocked candidate is instead started immediately on an
        //    *interim* lease carved from whatever is free right now (freed
        //    fabric never idles waiting for mid-group neighbours); the
        //    boundary re-leasing above then converges it to its carve
        //    target. Under the static policy the target is a free slot and
        //    never conflicts.
        for (qi, (target, slot)) in cand_targets.into_iter().enumerate().rev() {
            let held: Vec<FabricPartition> = resident.iter().map(|r| r.lease).collect();
            let mut with_target = held.clone();
            with_target.push(target);
            let lease = if FabricPartition::validate_set(&with_target, &cfg.fabric).is_ok() {
                target
            } else if cfg.policy == LeasePolicy::Adaptive {
                // Only start a job on an interim lease that carries at
                // least half its target PEs or a full fair share of the
                // fabric: a sliver admission pins the job to the sliver
                // for its whole first group, which is worse than waiting
                // one boundary for real space.
                match interim_lease(&cfg.fabric, &window, &held, &target) {
                    Some(l) if 2 * l.pes() >= target.pes() || l.pes() * cap >= cfg.fabric.pes() => {
                        rec.add(names::RUNTIME_INTERIM_ADMISSIONS, 1);
                        l
                    }
                    _ => {
                        rec.add(names::RUNTIME_ADMISSION_DEFERRALS, 1);
                        continue;
                    }
                }
            } else {
                rec.add(names::RUNTIME_ADMISSION_DEFERRALS, 1);
                continue;
            };
            let cand = queue.remove(qi);
            let at = insertion_point(&resident, cand.id);
            let r = match cand.resume {
                Some(b) => {
                    let b = *b;
                    let mut r = Resident {
                        id: cand.id,
                        sub: cand.sub,
                        admitted: b.admitted,
                        session: b.session,
                        lease,
                        slot,
                        boundary: now,
                        remorphs: b.remorphs,
                        busy_cycles: b.busy_cycles,
                        leased_pe_cycles: b.leased_pe_cycles,
                        energy_pj: b.energy_pj,
                        work_macs: b.work_macs,
                        groups: b.groups,
                        retries: b.retries,
                        group_start: now,
                        group_len: 0,
                        group_energy: 0.0,
                        attempt_start: now,
                        attempt_energy: 0.0,
                    };
                    if let Some((cycles, energy_pj)) = b.redo {
                        // Re-run the group the eviction interrupted, at its
                        // recorded cost, before the session's next group.
                        r.boundary = now + cycles;
                        r.busy_cycles += cycles;
                        r.leased_pe_cycles += cycles as f64 * lease.pes() as f64;
                        r.energy_pj += energy_pj;
                        r.attempt_energy += energy_pj;
                        r.group_len = cycles;
                        r.group_energy = energy_pj;
                    }
                    r
                }
                None => {
                    rec.add(names::RUNTIME_JOBS_ADMITTED, 1);
                    let session = make_session(cfg, &cand.sub);
                    Resident {
                        id: cand.id,
                        sub: cand.sub,
                        admitted: now,
                        session,
                        lease,
                        slot,
                        boundary: now,
                        remorphs: 0,
                        busy_cycles: 0,
                        leased_pe_cycles: 0.0,
                        energy_pj: 0.0,
                        work_macs: 0,
                        groups: 0,
                        retries: 0,
                        group_start: now,
                        group_len: 0,
                        group_energy: 0.0,
                        attempt_start: now,
                        attempt_energy: 0.0,
                    }
                }
            };
            resident.insert(at, r);
        }
        debug_assert!(FabricPartition::validate_set(
            &resident.iter().map(|r| r.lease).collect::<Vec<_>>(),
            &cfg.fabric
        )
        .is_ok());

        // Pull the ready jobs out, step them concurrently (order-preserving,
        // so deterministic), and merge them back.
        let mut ready: Vec<Resident> = Vec::new();
        let mut i = 0;
        while i < resident.len() {
            if resident[i].boundary == now {
                ready.push(resident.remove(i));
            } else {
                i += 1;
            }
        }
        let parent = cfg.fabric;
        // Each parallel task reads an immutable snapshot of the cache
        // through a private shard and returns its delta; deltas are
        // absorbed below in canonical (id) order, first insert wins, so
        // the cache contents — and everything downstream — are identical
        // at any worker count.
        let stepped = {
            let snap = cache.as_deref();
            engine.map_vec(ready, |_, mut r| {
                let mut shard = match snap {
                    Some(c) => DecisionShard::new(c),
                    None => DecisionShard::disabled(),
                };
                let sub = r.lease.sub_config(&parent);
                let g = r.session.step_on_shard(&sub, &mut shard);
                let cycles = g.cycles.max(1);
                let group_energy = g.energy.total_pj();
                r.busy_cycles += cycles;
                r.leased_pe_cycles += cycles as f64 * r.lease.pes() as f64;
                r.energy_pj += group_energy;
                r.attempt_energy += group_energy;
                r.work_macs += g.work_macs;
                r.groups += 1;
                r.group_start = now;
                r.group_len = cycles;
                r.group_energy = group_energy;
                r.boundary = now + cycles;
                (r, shard.into_delta())
            })
        };
        for (r, delta) in stepped {
            if let Some(c) = cache.as_deref_mut() {
                c.absorb(delta, rec);
            }
            rec.add(names::RUNTIME_GROUPS_STEPPED, 1);
            if R::ACTIVE {
                // Stepping happens inside the parallel map, so the recorder
                // sees each group here, sequentially in ready (id) order —
                // the same order every run.
                let g = r.session.groups().last().expect("job just stepped");
                mocha_core::record_group(rec, &format!("job/{}", r.id), now, g);
            }
            let at = insertion_point(&resident, r.id);
            resident.insert(at, r);
        }

        // Advance to the next event: the earliest group boundary or the
        // next arrival, whichever comes first — unless a fault lands on a
        // mid-group resident before that.
        let next_boundary = resident.iter().map(|r| r.boundary).min();
        let next_arrival =
            (next_sub < submissions.len()).then(|| submissions[next_sub].arrival_cycle);
        now = match (next_boundary, next_arrival) {
            (Some(b), Some(a)) => b.min(a),
            (Some(b), None) => b,
            (None, Some(a)) => a,
            (None, None) => {
                if queue.is_empty() {
                    break;
                }
                // Queue non-empty with nothing resident: admission must
                // succeed immediately (no leases are held), so re-run the
                // loop at the same instant.
                now
            }
        };
        if !resident.is_empty() {
            if let Some(at) = faults
                .as_ref()
                .and_then(|f| f.timeline.peek().map(|e| e.at))
            {
                // Faults drained above are strictly past, so `at` exceeds
                // the instant just processed and the clock still advances;
                // with nothing resident a fault cannot hit anything and is
                // simply drained at the next real event.
                now = now.min(at);
            }
        }
    }

    // Conservation: every submission arrived and left exactly once, either
    // finished (one report, unique id) or failed; nothing is still queued
    // or resident.
    debug_assert_eq!(next_sub, submissions.len());
    debug_assert!(queue.is_empty() && resident.is_empty());
    debug_assert_eq!(done.len() + failed_jobs, submissions.len());
    debug_assert!(retried_jobs <= submissions.len() && failed_jobs <= submissions.len());
    debug_assert!(
        {
            let mut ids: Vec<JobId> = done.iter().map(|j| j.id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() == done.len() && ids.iter().all(|&id| id < submissions.len() as JobId)
        },
        "each submission reports at most once"
    );
    done.sort_by_key(|j| (j.finished, j.id));
    let leased_pe_cycles: f64 = done.iter().map(|j| j.leased_pe_cycles).sum();
    RuntimeReport {
        policy: cfg.policy.name().to_string(),
        horizon: done
            .iter()
            .map(|j| j.finished)
            .max()
            .unwrap_or(0)
            .max(horizon_floor),
        parent_pes: cfg.fabric.pes(),
        leased_pe_cycles,
        clock_ghz: energy.clock_ghz,
        retried: retried_jobs,
        failed: failed_jobs,
        jobs: done,
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

/// Spends one retry of the victim's budget. Returns `true` when the job
/// lives on; on a blown budget it removes the job (reporting it failed)
/// and returns `false`.
#[allow(clippy::too_many_arguments)]
fn spend_retry<R: Recorder>(
    resident: &mut Vec<Resident>,
    i: usize,
    max_retries: usize,
    now: u64,
    rec: &mut R,
    retried_jobs: &mut usize,
    failed_jobs: &mut usize,
    horizon_floor: &mut u64,
) -> bool {
    resident[i].retries += 1;
    if resident[i].retries == 1 {
        rec.add(names::RUNTIME_JOBS_RETRIED, 1);
        *retried_jobs += 1;
    }
    if resident[i].retries <= max_retries {
        return true;
    }
    let r = resident.remove(i);
    rec.add(names::RUNTIME_JOBS_FAILED, 1);
    *failed_jobs += 1;
    // The fabric was busy with the doomed job until this instant, so the
    // report horizon (and thus throughput) must cover it.
    *horizon_floor = (*horizon_floor).max(now);
    // The job's span still closes, so the trace attributes its fabric time.
    rec.span(|| format!("job/{}", r.id), r.admitted, now);
    false
}

/// Fail-stop recovery: account the wasted attempt, then restart the job
/// from scratch in place — or drop it when its budget is blown. Returns
/// `true` when the resident at `i` still exists.
#[allow(clippy::too_many_arguments)]
fn restart_or_fail<R: Recorder>(
    resident: &mut Vec<Resident>,
    i: usize,
    kind: &'static str,
    max_retries: usize,
    cfg: &RuntimeConfig,
    now: u64,
    rec: &mut R,
    retried_jobs: &mut usize,
    failed_jobs: &mut usize,
    horizon_floor: &mut u64,
) -> bool {
    {
        // The interrupted group was charged in full when it was stepped;
        // trim the part that never executed before accounting the waste.
        let r = &mut resident[i];
        let remainder = (r.group_start + r.group_len).saturating_sub(now);
        if remainder > 0 {
            r.busy_cycles -= remainder;
            r.leased_pe_cycles -= remainder as f64 * r.lease.pes() as f64;
            let unexecuted = r.group_energy * remainder as f64 / r.group_len as f64;
            r.energy_pj -= unexecuted;
            r.attempt_energy -= unexecuted;
        }
    }
    let lost = now - resident[i].attempt_start;
    if lost > 0 {
        rec.span(|| format!("fault/{kind}"), resident[i].attempt_start, now);
        rec.add(names::FAULT_LOST_CYCLES, lost);
        rec.add_f64(names::FAULT_LOST_ENERGY_PJ, resident[i].attempt_energy);
    }
    if !spend_retry(
        resident,
        i,
        max_retries,
        now,
        rec,
        retried_jobs,
        failed_jobs,
        horizon_floor,
    ) {
        return false;
    }
    rec.add(names::FAULT_RESTARTS, 1);
    let r = &mut resident[i];
    // Everything the attempt computed is discarded; busy cycles and energy
    // were physically spent and stay counted.
    r.session = make_session(cfg, &r.sub);
    r.work_macs = 0;
    r.boundary = now;
    r.attempt_start = now;
    r.attempt_energy = 0.0;
    r.group_start = now;
    r.group_len = 0;
    r.group_energy = 0.0;
    true
}

/// Sends an evicted resident back to the admission queue with its session
/// and statistics intact.
fn requeue(r: Resident, redo: Option<(u64, f64)>) -> Queued {
    Queued {
        id: r.id,
        sub: r.sub,
        resume: Some(Box::new(Resume {
            session: r.session,
            admitted: r.admitted,
            remorphs: r.remorphs,
            busy_cycles: r.busy_cycles,
            leased_pe_cycles: r.leased_pe_cycles,
            energy_pj: r.energy_pj,
            work_macs: r.work_macs,
            groups: r.groups,
            retries: r.retries,
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
    // Space outside the window counts as taken, so the gap search can only
    // land inside it (`largest_gap` tolerates the overlap with held spans).
    let col_blind = [
        (0, window.col0),
        (
            window.col0 + window.cols,
            parent.pe_cols - window.col0 - window.cols,
        ),
    ];
    let bank_blind = [
        (0, window.bank0),
        (
            window.bank0 + window.banks,
            parent.spm_banks - window.bank0 - window.banks,
        ),
    ];
    let (pe_col0, cols) = largest_gap(
        parent.pe_cols,
        held.iter()
            .map(|l| (l.pe_col0, l.pe_cols))
            .chain(col_blind.into_iter().filter(|&(_, len)| len > 0)),
    )?;
    let (bank0, banks) = largest_gap(
        parent.spm_banks,
        held.iter()
            .map(|l| (l.bank0, l.banks))
            .chain(bank_blind.into_iter().filter(|&(_, len)| len > 0)),
    )?;
    let lanes = window
        .lanes
        .saturating_sub(held.iter().map(|l| l.noc_dma_lanes).sum::<usize>());
    let dma = window
        .dmas
        .saturating_sub(held.iter().map(|l| l.dma_engines).sum::<usize>());
    let codecs = window
        .codecs
        .saturating_sub(held.iter().map(|l| l.codec_engines).sum::<usize>());
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
    let mut with_lease = held.to_vec();
    with_lease.push(lease);
    FabricPartition::validate_set(&with_lease, parent)
        .ok()
        .map(|()| lease)
}

/// The largest free interval of `[0, total)` not covered by the `(start,
/// len)` spans in `taken`; `None` when nothing is free. Held spans are
/// disjoint (they come from a validated lease set), and window-blinding
/// spans may overlap them — the cursor max handles both.
fn largest_gap(
    total: usize,
    taken: impl Iterator<Item = (usize, usize)>,
) -> Option<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = taken.collect();
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
    JobReport {
        id: r.id,
        spec: r.sub.spec,
        arrival: r.sub.arrival_cycle,
        admitted: r.admitted,
        finished: now,
        groups: r.groups,
        remorphs: r.remorphs,
        retries: r.retries,
        work_macs: r.work_macs,
        busy_cycles: r.busy_cycles,
        energy_pj: r.energy_pj,
        leased_pe_cycles: r.leased_pe_cycles,
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
