//! # mocha-obs
//!
//! Deterministic, allocation-light observability for the MOCHA stack:
//!
//! * **Spans** — named `[start, end)` intervals keyed on the *simulated*
//!   clock (fabric cycles), nestable by path convention
//!   (`job/3/group/conv1/tile/0/load`);
//! * **Counters** — monotonic `u64` counters under `&'static str` names
//!   (DRAM bursts, NoC flit-hops, bytes compressed, admissions…);
//! * **Histograms** — exact-by-construction streaming value histograms
//!   whose quantiles match a sort-based oracle bit for bit (see
//!   [`Histogram`]).
//!
//! The instrumentation contract is the [`Recorder`] trait. Hot paths are
//! generic over `R: Recorder` — never `dyn` — so the [`NoopRecorder`]
//! monomorphizes to nothing: span paths are built by closures the no-op
//! recorder never calls, and call sites that must *prepare* data (e.g.
//! resolve a pipeline schedule into tile spans) gate on the associated
//! constant [`Recorder::ACTIVE`], which is `false` for the no-op recorder.
//!
//! Recording is fully deterministic: [`MemRecorder`] stores spans in call
//! order and counters/histograms in name order, so two identical seeded
//! simulations emit byte-identical [`MemRecorder::to_jsonl`] event streams.

#![warn(missing_docs)]

mod hist;
pub mod names;
mod record;
pub mod window;

pub use hist::{nearest_rank, Histogram};
pub use record::{MemRecorder, SpanEvent};
pub use window::{
    LabelInterner, LabelSet, SloRow, SloTracker, WindowSet, WindowSpec, WindowedMetrics,
};

/// The instrumentation sink. Everything the simulator, fabric and runtime
/// report goes through these three methods.
///
/// Implementations are plugged in via generics (`fn run_with<R: Recorder>`),
/// so the no-op recorder compiles out of hot loops entirely.
pub trait Recorder {
    /// `false` only for recorders that drop everything ([`NoopRecorder`]):
    /// call sites use it to skip *preparing* observability data (path
    /// formatting, schedule resolution) that the sink would discard.
    const ACTIVE: bool = true;

    /// Records a completed span over simulated cycles `[start, end)`.
    ///
    /// The path is built lazily so inactive recorders never allocate;
    /// nesting is by path convention (`job/0/group/conv1`).
    fn span(&mut self, path: impl FnOnce() -> String, start: u64, end: u64);

    /// Adds `delta` to the monotonic counter `name`.
    fn add(&mut self, name: &'static str, delta: u64);

    /// Adds `delta` to the monotonic *fractional* counter `name`.
    ///
    /// The float channel exists for already-priced energies (`fabric.
    /// codec_priced_pj`) that have no integer event count. Accumulation is
    /// plain `f64` addition in call order, so a deterministic simulation
    /// yields the bit-identical sum the simulator itself computes — the
    /// property `mocha-trace` relies on for exact energy reconciliation.
    fn add_f64(&mut self, name: &'static str, delta: f64);

    /// Records one sample into the streaming histogram `name`.
    fn sample(&mut self, name: &'static str, value: u64);
}

/// The recorder that records nothing. `ACTIVE = false`, every method is an
/// empty inline body: a simulation generic over it compiles to exactly the
/// uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn span(&mut self, _path: impl FnOnce() -> String, _start: u64, _end: u64) {}

    #[inline(always)]
    fn add(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn add_f64(&mut self, _name: &'static str, _delta: f64) {}

    #[inline(always)]
    fn sample(&mut self, _name: &'static str, _value: u64) {}
}

impl<R: Recorder> Recorder for &mut R {
    const ACTIVE: bool = R::ACTIVE;

    #[inline(always)]
    fn span(&mut self, path: impl FnOnce() -> String, start: u64, end: u64) {
        (**self).span(path, start, end);
    }

    #[inline(always)]
    fn add(&mut self, name: &'static str, delta: u64) {
        (**self).add(name, delta);
    }

    #[inline(always)]
    fn add_f64(&mut self, name: &'static str, delta: f64) {
        (**self).add_f64(name, delta);
    }

    #[inline(always)]
    fn sample(&mut self, name: &'static str, value: u64) {
        (**self).sample(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_never_builds_span_paths() {
        let mut rec = NoopRecorder;
        rec.span(|| unreachable!("no-op recorder must not build paths"), 0, 1);
        rec.add("x", 1);
        rec.sample("y", 2);
        const { assert!(!NoopRecorder::ACTIVE) }
    }

    /// Drives a recorder through the generic bound, the way the simulator
    /// and scheduler entry points see it.
    fn drive<R: Recorder>(mut rec: R) {
        rec.span(|| "a/b".into(), 1, 2);
        rec.add("c", 3);
        rec.add_f64("f", 0.25);
        rec.sample("h", 4);
    }

    #[test]
    fn mut_ref_forwards_to_the_underlying_recorder() {
        let mut rec = MemRecorder::new();
        drive(&mut rec);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.counter("c"), 3);
        assert_eq!(rec.fcounter("f"), 0.25);
        assert_eq!(rec.hist("h").unwrap().count(), 1);
        const { assert!(<&mut MemRecorder as Recorder>::ACTIVE) }
    }
}
