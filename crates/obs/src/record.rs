//! The in-memory recorder: collects spans, counters and histograms and
//! exports them as a deterministic JSON-lines event stream or a snapshot.

use crate::{Histogram, Recorder};
use mocha_json::Value;
use std::collections::BTreeMap;

/// A completed span: a named `[start, end)` interval on the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Slash-separated span path (`job/0/group/conv1`).
    pub path: String,
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
}

/// Name-sorted `(name, value)` slots: the recorder's counter and histogram
/// tables.
type Slots<V> = Vec<(&'static str, V)>;

/// The slot of `name`, inserted at its sorted position on first use.
///
/// Callers pass `names::*` constants, so the slot is usually found by
/// comparing the string's address; a name that reaches here through a
/// different address (another crate's copy of the literal, or a string
/// built at run time) falls back to a string search.
fn slot<'a, V: Default>(slots: &'a mut Slots<V>, name: &'static str) -> &'a mut V {
    let i = match slots.iter().position(|&(n, _)| std::ptr::eq(n, name)) {
        Some(i) => i,
        None => match slots.binary_search_by(|&(n, _)| n.cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                slots.insert(i, (name, V::default()));
                i
            }
        },
    };
    &mut slots[i].1
}

/// The value in `name`'s slot, if any.
fn find<'a, V>(slots: &'a Slots<V>, name: &str) -> Option<&'a V> {
    let i = slots.binary_search_by(|&(n, _)| n.cmp(name)).ok()?;
    Some(&slots[i].1)
}

/// A [`Recorder`] that keeps everything in memory.
///
/// Spans are stored in call order; counters and histograms in name order
/// (name-sorted slot tables). Both orders are pure functions of the
/// recorded calls, so a deterministic simulation yields a byte-identical
/// [`Self::to_jsonl`] stream on every run.
#[derive(Debug, Clone, Default)]
pub struct MemRecorder {
    spans: Vec<SpanEvent>,
    counters: Slots<u64>,
    fcounters: Slots<f64>,
    hists: Slots<Histogram>,
    /// `None` = unbounded. Long-running servers cap span retention; counters
    /// and histograms are O(names) and never capped.
    span_cap: Option<usize>,
    spans_dropped: u64,
}

impl MemRecorder {
    /// An unbounded recorder (batch runs, tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that retains at most `cap` spans (further spans are
    /// counted in [`Self::spans_dropped`], counters/histograms unaffected).
    /// For always-on recording in long-running servers.
    pub fn with_span_cap(cap: usize) -> Self {
        Self {
            span_cap: Some(cap),
            ..Self::default()
        }
    }

    /// Spans recorded, in call order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// Spans that were dropped by the span cap.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        find(&self.counters, name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Current value of a fractional counter (0.0 when never touched).
    pub fn fcounter(&self, name: &str) -> f64 {
        find(&self.fcounters, name).copied().unwrap_or(0.0)
    }

    /// All fractional counters in name order.
    pub fn fcounters(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.fcounters.iter().copied()
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        find(&self.hists, name)
    }

    /// The event stream as JSON lines: spans in call order, then counters,
    /// fractional counters and histogram summaries in name order. Every
    /// line is a compact JSON object tagged with `"event"`. Fractional
    /// counters print through Rust's shortest round-trip `f64` formatting,
    /// so a parser recovers the accumulated sum bit for bit.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = mocha_json::jobj! {
                "event" => "span",
                "path" => s.path.as_str(),
                "start" => s.start,
                "end" => s.end,
            };
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for &(name, value) in &self.counters {
            let line = mocha_json::jobj! {
                "event" => "counter",
                "name" => name,
                "value" => value,
            };
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for &(name, value) in &self.fcounters {
            let line = mocha_json::jobj! {
                "event" => "fcounter",
                "name" => name,
                "value" => value,
            };
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for &(name, ref hist) in &self.hists {
            let mut line = mocha_json::jobj! {
                "event" => "hist",
                "name" => name,
            };
            if let Value::Obj(map) = &mut line {
                if let Value::Obj(summary) = hist.summary_json() {
                    map.extend(summary);
                }
            }
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Merges another recorder's state into this one: spans are appended in
    /// `other`'s recording order (respecting this recorder's span cap),
    /// counters and fractional counters are added name-wise, and histograms
    /// are combined with [`Histogram::merge`] — so merge-then-quantile
    /// equals quantile over the concatenated samples bit for bit.
    ///
    /// This is the reduction step of `mocha-engine`'s sharded execution:
    /// per-task shard recorders merged in canonical task order reproduce
    /// the sequential stream exactly. Merge order is the caller's contract —
    /// for byte-identical output across worker counts, shards must be merged
    /// in an order that does not depend on scheduling (the engine merges in
    /// task-index order). Fractional (`f64`) counters are added one partial
    /// sum per name per shard, so the total is a fold over shard partials in
    /// merge order — invariant to worker count because shards are formed at
    /// task granularity, never worker granularity.
    pub fn merge(&mut self, other: &MemRecorder) {
        for s in &other.spans {
            if self.span_cap.is_some_and(|cap| self.spans.len() >= cap) {
                self.spans_dropped += 1;
            } else {
                self.spans.push(s.clone());
            }
        }
        self.spans_dropped += other.spans_dropped;
        for &(name, v) in &other.counters {
            *slot(&mut self.counters, name) += v;
        }
        for &(name, v) in &other.fcounters {
            *slot(&mut self.fcounters, name) += v;
        }
        for (name, h) in &other.hists {
            slot(&mut self.hists, name).merge(h);
        }
    }

    /// Merges exactly one of `other`'s histograms into this recorder,
    /// leaving every other channel untouched. The serve front-end uses
    /// this to fold the shed pre-pass's queue-depth and shed-slack
    /// histograms into the long-lived stats recorder without
    /// double-counting the counters the front-end re-records itself.
    pub fn absorb_hist(&mut self, name: &'static str, other: &MemRecorder) {
        if let Some(h) = find(&other.hists, name) {
            slot(&mut self.hists, name).merge(h);
        }
    }

    /// A point-in-time snapshot as one JSON object: every counter, every
    /// histogram summary, and the span tally. The `serve` front-end answers
    /// `stats` requests with this.
    pub fn snapshot(&self) -> Value {
        let counters: BTreeMap<String, Value> = self
            .counters
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::Num(v as f64)))
            .collect();
        let fcounters: BTreeMap<String, Value> = self
            .fcounters
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::Num(v)))
            .collect();
        let hists: BTreeMap<String, Value> = self
            .hists
            .iter()
            .map(|(k, h)| (k.to_string(), h.summary_json()))
            .collect();
        mocha_json::jobj! {
            "counters" => Value::Obj(counters),
            "fcounters" => Value::Obj(fcounters),
            "hists" => Value::Obj(hists),
            "spans" => self.spans.len() as u64,
            "spans_dropped" => self.spans_dropped,
        }
    }
}

impl Recorder for MemRecorder {
    fn span(&mut self, path: impl FnOnce() -> String, start: u64, end: u64) {
        if self.span_cap.is_some_and(|cap| self.spans.len() >= cap) {
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(SpanEvent {
            path: path(),
            start,
            end,
        });
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        *slot(&mut self.counters, name) += delta;
    }

    fn add_f64(&mut self, name: &'static str, delta: f64) {
        *slot(&mut self.fcounters, name) += delta;
    }

    fn sample(&mut self, name: &'static str, value: u64) {
        slot(&mut self.hists, name).record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> MemRecorder {
        let mut r = MemRecorder::new();
        r.span(|| "job/0".into(), 0, 100);
        r.span(|| "job/0/group/conv1".into(), 0, 60);
        r.add("runtime.jobs_admitted", 1);
        r.add("runtime.jobs_admitted", 1);
        r.add("fabric.dram_bursts", 7);
        r.add_f64("fabric.codec_priced_pj", 1.5);
        r.add_f64("fabric.codec_priced_pj", 0.25);
        r.sample("core.group_cycles", 60);
        r.sample("core.group_cycles", 40);
        r
    }

    #[test]
    fn counters_accumulate_and_missing_reads_zero() {
        let r = sample_recorder();
        assert_eq!(r.counter("runtime.jobs_admitted"), 2);
        assert_eq!(r.counter("fabric.dram_bursts"), 7);
        assert_eq!(r.counter("nope"), 0);
    }

    #[test]
    fn fcounters_accumulate_and_missing_reads_zero() {
        let r = sample_recorder();
        assert_eq!(r.fcounter("fabric.codec_priced_pj"), 1.75);
        assert_eq!(r.fcounter("nope"), 0.0);
        assert_eq!(r.fcounters().count(), 1);
    }

    #[test]
    fn jsonl_lines_all_parse_and_tag_their_event_kind() {
        let text = sample_recorder().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // 2 spans + 2 counters + 1 fcounter + 1 hist
        assert_eq!(lines.len(), 2 + 2 + 1 + 1);
        for line in &lines {
            let v = mocha_json::parse(line).expect("line parses");
            assert!(v.get("event").is_some(), "untagged line {line}");
        }
        assert!(lines[0].contains("\"span\""));
        assert!(text.contains("\"fcounter\""));
        assert!(text.contains("\"p95\""));
    }

    #[test]
    fn fcounter_jsonl_round_trips_the_exact_f64_sum() {
        let r = sample_recorder();
        let line = r
            .to_jsonl()
            .lines()
            .find(|l| l.contains("\"fcounter\""))
            .expect("fcounter line present")
            .to_string();
        let v = mocha_json::parse(&line).expect("parses");
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("fabric.codec_priced_pj")
        );
        let parsed = v.get("value").and_then(Value::as_f64).expect("numeric");
        // Exact bit round-trip: shortest Display + str::parse is lossless.
        assert_eq!(
            parsed.to_bits(),
            r.fcounter("fabric.codec_priced_pj").to_bits()
        );
    }

    #[test]
    fn identical_recordings_are_byte_identical() {
        assert_eq!(sample_recorder().to_jsonl(), sample_recorder().to_jsonl());
    }

    #[test]
    fn snapshot_carries_counters_hists_and_span_tally() {
        let snap = sample_recorder().snapshot();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("fabric.dram_bursts"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(
            snap.get("fcounters")
                .and_then(|c| c.get("fabric.codec_priced_pj"))
                .and_then(Value::as_f64),
            Some(1.75)
        );
        assert_eq!(
            snap.get("hists")
                .and_then(|h| h.get("core.group_cycles"))
                .and_then(|g| g.get("count"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(snap.get("spans").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn merge_of_split_recordings_equals_one_sequential_recording() {
        // Record the sample stream split across two recorders at an
        // arbitrary boundary; merging must reproduce the sequential stream
        // byte for byte.
        let mut a = MemRecorder::new();
        a.span(|| "job/0".into(), 0, 100);
        a.span(|| "job/0/group/conv1".into(), 0, 60);
        a.add("runtime.jobs_admitted", 1);
        a.add_f64("fabric.codec_priced_pj", 1.5);
        a.sample("core.group_cycles", 60);
        let mut b = MemRecorder::new();
        b.add("runtime.jobs_admitted", 1);
        b.add("fabric.dram_bursts", 7);
        b.add_f64("fabric.codec_priced_pj", 0.25);
        b.sample("core.group_cycles", 40);
        a.merge(&b);
        assert_eq!(a.to_jsonl(), sample_recorder().to_jsonl());
        assert_eq!(
            a.fcounter("fabric.codec_priced_pj").to_bits(),
            sample_recorder()
                .fcounter("fabric.codec_priced_pj")
                .to_bits()
        );
    }

    #[test]
    fn merge_into_empty_recorder_clones_the_stream() {
        let mut empty = MemRecorder::new();
        empty.merge(&sample_recorder());
        assert_eq!(empty.to_jsonl(), sample_recorder().to_jsonl());
    }

    #[test]
    fn merge_respects_destination_span_cap_and_propagates_drops() {
        let mut dst = MemRecorder::with_span_cap(1);
        let mut src = MemRecorder::with_span_cap(1);
        src.span(|| "a".into(), 0, 1);
        src.span(|| "b".into(), 1, 2); // dropped at source: spans_dropped = 1
        dst.merge(&src); // "a" fits the cap
        dst.merge(&src); // "a" again overflows the cap
        assert_eq!(dst.spans().len(), 1);
        // one drop propagated per merge + one overflow drop in the second.
        assert_eq!(dst.spans_dropped(), 3);
    }

    #[test]
    fn absorb_hist_takes_one_histogram_and_nothing_else() {
        let src = sample_recorder();
        let mut dst = MemRecorder::new();
        dst.sample("core.group_cycles", 10);
        dst.absorb_hist("core.group_cycles", &src);
        dst.absorb_hist("not.recorded", &src);
        let h = dst.hist("core.group_cycles").expect("merged");
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(10));
        assert_eq!(
            dst.counter("runtime.jobs_admitted"),
            0,
            "counters untouched"
        );
        assert!(dst.spans().is_empty(), "spans untouched");
        assert!(
            dst.hist("not.recorded").is_none(),
            "absent source hist is a no-op"
        );
    }

    #[test]
    fn one_name_at_two_addresses_shares_one_slot() {
        // A copy of the name at another address finds the slot by string.
        let copy: &'static str = Box::leak(String::from("core.group_cycles").into_boxed_str());
        let mut r = sample_recorder();
        r.sample(copy, 10);
        r.add(
            Box::leak(String::from("fabric.dram_bursts").into_boxed_str()),
            1,
        );
        assert_eq!(r.hist("core.group_cycles").map(Histogram::count), Some(3));
        assert_eq!(r.counter("fabric.dram_bursts"), 8);
        let text = r.to_jsonl();
        assert_eq!(text.matches("\"core.group_cycles\"").count(), 1);
        assert_eq!(text.matches("\"fabric.dram_bursts\"").count(), 1);
    }

    #[test]
    fn span_cap_drops_overflow_but_keeps_counting() {
        let mut r = MemRecorder::with_span_cap(1);
        r.span(|| "a".into(), 0, 1);
        r.span(|| "b".into(), 1, 2);
        r.add("c", 1);
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.spans_dropped(), 1);
        assert_eq!(r.counter("c"), 1);
    }
}
