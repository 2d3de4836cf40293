//! Host speed, measured with a fixed probe, so that end-to-end times from a
//! shared host compare across runs.
//!
//! Other tenants of a shared host slow every process on it by 10–70 % for
//! seconds to minutes at a time, and a guest sees little of it as steal
//! time. Much of the slowdown is in the memory hierarchy: a loop that stays
//! in L2 notices little of it, while one that misses L2 tracks the
//! simulator's slowdown more closely. Each timed call is therefore
//! bracketed by a fixed std-only probe — random read-modify-writes over a
//! 2 MiB buffer, just past L2 — and an op's host seconds are rescaled by
//! [`REFERENCE_SECS`] over the mean of the probes around its calls: an op
//! slowed by contention is rescaled by the probes it slowed too. The probe
//! is the benchmark's own code, and it refills its buffer before each
//! timing, so a change under test can move it only by what it leaves
//! running, not by what it leaves in the caches.

use std::hint::black_box;
use std::time::Instant;

/// What [`Probe::secs`] takes on a quiet host of the kind the README's
/// numbers come from (a 2-vCPU Xeon virtual machine with 2 MiB of L2 per
/// core).
pub const REFERENCE_SECS: f64 = 0.009;

/// The probe's buffer, allocated once so that page faults stay out of it.
#[derive(Debug)]
struct Probe(Vec<u64>);

impl Probe {
    fn new() -> Self {
        Probe(vec![0; 1 << 18])
    }

    /// Seconds taken by 3M random read-modify-writes over the buffer, after
    /// one untimed sequential pass brings it back into the caches.
    fn secs(&mut self) -> f64 {
        for (i, v) in self.0.iter_mut().enumerate() {
            *v = v.wrapping_add(i as u64);
        }
        black_box(&self.0);
        let mask = self.0.len() - 1;
        let t = Instant::now();
        let mut x = black_box(0x2545_f491_4f6c_dd1du64);
        for i in 0..3_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x as usize) & mask;
            self.0[k] = self.0[k].wrapping_add(i);
        }
        black_box(&self.0);
        t.elapsed().as_secs_f64()
    }
}

/// Times calls between probes and sums them until [`Clock::take`].
#[derive(Debug)]
pub struct Clock {
    /// `None` when calls go unscaled (the smoke size and the traced run).
    probe: Option<Probe>,
    /// Every probe run, in order.
    pub refs: Vec<f64>,
    /// Where in `refs` the probes of the calls since the last `take` start:
    /// at the probe that ended the previous op and opens this one.
    open: usize,
    raw: f64,
}

/// Timed calls.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds.
    pub raw: f64,
    /// Host seconds at reference speed.
    pub scaled: f64,
}

impl Clock {
    pub fn new(scale: bool) -> Self {
        let mut probe = scale.then(Probe::new);
        Clock {
            refs: probe.as_mut().map(Probe::secs).into_iter().collect(),
            probe,
            open: 0,
            raw: 0.0,
        }
    }

    /// Runs `f` and adds its time to the total, followed by a probe.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.raw += t.elapsed().as_secs_f64();
        if let Some(probe) = &mut self.probe {
            self.refs.push(probe.secs());
        }
        out
    }

    /// The calls timed since the last `take`, scaled by the mean of the
    /// probes around them.
    pub fn take(&mut self) -> Timed {
        let raw = std::mem::take(&mut self.raw);
        let probes = &self.refs[self.open..];
        self.open = self.refs.len().saturating_sub(1);
        let scaled = if probes.is_empty() {
            raw
        } else {
            raw * REFERENCE_SECS * probes.len() as f64 / probes.iter().sum::<f64>()
        };
        Timed { raw, scaled }
    }
}
