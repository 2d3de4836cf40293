//! Windowed dimensional telemetry on the simulated clock.
//!
//! The whole-run counters and histograms of [`crate::MemRecorder`] answer
//! "how did the run go?"; this module answers "how is the run going?" —
//! the operational view a serving fleet routes on. It buckets events into
//! **windows** of the simulated clock (tumbling, or rolling with a
//! stride), attaches **dimensional labels** (tenant, network template,
//! shed reason, fault kind, cache hit/miss) through an interned
//! [`LabelSet`] text, and layers an [`SloTracker`] on top: per-window
//! goodput, deadline-miss ratio, and the SRE-style multi-window
//! error-budget **burn rate** (a fast/slow trailing-window pair) with
//! edge-triggered alerts.
//!
//! Everything here is a pure function of the fed events, so exports are
//! byte-identical at any worker count:
//!
//! * the recorder trait records *whole-run* aggregates with no
//!   timestamps, so window feeding is out-of-band — builders walk a
//!   finished run's per-request outcomes and call
//!   [`WindowSet::add_at`]/[`WindowSet::sample_at`] with explicit cycles;
//! * storage is **base cells** at stride granularity. A rolling window is
//!   a lossless [`Histogram::merge`]/sum of consecutive cells, so merging
//!   every tumbling window reproduces the whole-run aggregate bit for
//!   bit (the property `obs/tests/window_properties.rs` pins);
//! * the exports — JSONL (`window`/`whist`/`slo` event kinds), a
//!   Prometheus-style text exposition, and a JSON snapshot — iterate
//!   `BTreeMap`s in canonical `(name, labels, window)` order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{names, Histogram, Recorder};
use mocha_json::Value;

/// The most windows (base cells) an export may cover. Every export walks
/// windows densely from cycle 0, so one event near the end of time with a
/// narrow window would otherwise allocate or iterate ~10^12 rows; callers
/// check [`WindowedMetrics::check_window_cap`] before exporting.
pub const MAX_WINDOWS: u64 = 1 << 20;

/// A window specification: `width` cycles per window, emitted every
/// `stride` cycles. `stride == width` is a tumbling window; `stride <
/// width` (with `width % stride == 0`) is a rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width in cycles (≥ 1).
    pub width: u64,
    /// Emission stride in cycles (≥ 1, divides `width`).
    pub stride: u64,
}

impl WindowSpec {
    /// A tumbling window: adjacent, non-overlapping `width`-cycle buckets.
    pub fn tumbling(width: u64) -> Self {
        WindowSpec {
            width,
            stride: width,
        }
    }

    /// Parses a CLI window spec. Accepted forms:
    ///
    /// * `"W"` or `"tumbling:W"` — tumbling windows of `W` cycles;
    /// * `"rolling:W/S"` — `W`-cycle windows every `S` cycles
    ///   (`S ≤ W`, `W % S == 0` so rolling views merge whole base cells).
    ///
    /// Errors are one-line strings; the CLI prints them verbatim and
    /// exits 2.
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad = |why: &str| {
            Err(format!(
                "bad window spec {s:?}: {why} (expected CYCLES, tumbling:CYCLES or rolling:WIDTH/STRIDE)"
            ))
        };
        let cycles = |txt: &str, what: &str| -> Result<u64, String> {
            match txt.parse::<u64>() {
                Ok(0) => Err(format!(
                    "bad window spec {s:?}: {what} must be at least 1 cycle"
                )),
                Ok(n) => Ok(n),
                Err(_) => Err(format!(
                    "bad window spec {s:?}: {what} must be a positive integer"
                )),
            }
        };
        if let Some(rest) = s.strip_prefix("tumbling:") {
            return Ok(WindowSpec::tumbling(cycles(rest, "width")?));
        }
        if let Some(rest) = s.strip_prefix("rolling:") {
            let Some((w, st)) = rest.split_once('/') else {
                return bad("rolling takes WIDTH/STRIDE");
            };
            let width = cycles(w, "width")?;
            let stride = cycles(st, "stride")?;
            if stride > width {
                return bad("stride exceeds width");
            }
            if width % stride != 0 {
                return bad("width must be a multiple of stride");
            }
            return Ok(WindowSpec { width, stride });
        }
        Ok(WindowSpec::tumbling(cycles(s, "width")?))
    }

    /// True for non-overlapping windows.
    pub fn is_tumbling(&self) -> bool {
        self.width == self.stride
    }

    /// Base cell (stride bucket) a cycle falls into.
    pub fn cell(&self, cycle: u64) -> u64 {
        cycle / self.stride
    }

    /// Base cells each emitted window spans.
    pub fn cells_per_window(&self) -> u64 {
        self.width / self.stride
    }

    /// First cycle of emitted window `w`.
    pub fn window_start(&self, w: u64) -> u64 {
        w * self.stride
    }

    /// One past the last cycle of emitted window `w`.
    pub fn window_end(&self, w: u64) -> u64 {
        w * self.stride + self.width
    }
}

/// An interned label set. The id is an index into the interner; the text
/// it resolves to is the canonical `key=value,key=value` form (pairs
/// sorted by key), so equal label sets always intern to the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelSet(u32);

impl LabelSet {
    /// The empty (unlabeled) set — always id 0.
    pub const EMPTY: LabelSet = LabelSet(0);
}

/// Interns label sets to compact ids so windowed storage keys stay
/// `Copy + Ord` and label text is stored once per distinct set.
#[derive(Debug, Clone, Default)]
pub struct LabelInterner {
    ids: BTreeMap<String, u32>,
    texts: Vec<String>,
}

impl LabelInterner {
    fn ensure_empty(&mut self) {
        if self.texts.is_empty() {
            self.texts.push(String::new());
            self.ids.insert(String::new(), 0);
        }
    }

    /// Interns `pairs` (any order; sorted by key internally). Keys and
    /// values must not contain `=` or `,` — callers label with closed
    /// vocabularies (tenant ids, template names, shed reasons, fault
    /// kinds), never free text.
    pub fn intern(&mut self, pairs: &[(&str, &str)]) -> LabelSet {
        self.ensure_empty();
        let mut sorted: Vec<(&str, &str)> = pairs.to_vec();
        sorted.sort_unstable();
        let mut text = String::new();
        for (i, (k, v)) in sorted.iter().enumerate() {
            debug_assert!(
                !k.contains(['=', ',']) && !v.contains(['=', ',']),
                "label pairs must not contain '=' or ','"
            );
            if i > 0 {
                text.push(',');
            }
            text.push_str(k);
            text.push('=');
            text.push_str(v);
        }
        if let Some(&id) = self.ids.get(&text) {
            return LabelSet(id);
        }
        let id = self.texts.len() as u32;
        self.texts.push(text.clone());
        self.ids.insert(text, id);
        LabelSet(id)
    }

    /// The canonical text of an interned set (`""` for the empty set).
    pub fn text(&self, set: LabelSet) -> &str {
        self.texts
            .get(set.0 as usize)
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Windowed dimensional counters and histograms over the simulated clock.
///
/// Storage is per base cell (stride bucket); emitted windows are lossless
/// merges of consecutive cells, so the layer never loses or double-counts
/// a sample within a window view.
#[derive(Debug, Clone)]
pub struct WindowSet {
    spec: WindowSpec,
    labels: LabelInterner,
    counters: BTreeMap<(&'static str, LabelSet, u64), u64>,
    hists: BTreeMap<(&'static str, LabelSet, u64), Histogram>,
    /// Highest base cell covered (fed or observed), `None` before any.
    max_cell: Option<u64>,
}

impl WindowSet {
    /// An empty window set over `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowSet {
            spec,
            labels: LabelInterner::default(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            max_cell: None,
        }
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Interns a label set for use with [`Self::add_at`]/[`Self::sample_at`].
    pub fn intern(&mut self, pairs: &[(&str, &str)]) -> LabelSet {
        self.labels.intern(pairs)
    }

    /// Extends coverage to the cell containing `cycle` without recording
    /// anything (so trailing silence still emits empty windows and decays
    /// the burn rate).
    pub fn observe_cycle(&mut self, cycle: u64) {
        let cell = self.spec.cell(cycle);
        self.max_cell = Some(self.max_cell.map_or(cell, |m| m.max(cell)));
    }

    /// Adds `delta` to windowed counter `name` under `labels`, attributed
    /// to the cycle the event happened at.
    pub fn add_at(&mut self, name: &'static str, labels: LabelSet, cycle: u64, delta: u64) {
        self.observe_cycle(cycle);
        *self
            .counters
            .entry((name, labels, self.spec.cell(cycle)))
            .or_insert(0) += delta;
    }

    /// Records one histogram sample under `labels`, attributed to `cycle`.
    pub fn sample_at(&mut self, name: &'static str, labels: LabelSet, cycle: u64, value: u64) {
        self.observe_cycle(cycle);
        self.hists
            .entry((name, labels, self.spec.cell(cycle)))
            .or_default()
            .record(value);
    }

    /// Emitted windows: one per base cell covered (rolling windows start
    /// at every stride boundary). Zero before any event.
    pub fn window_count(&self) -> u64 {
        self.max_cell.map_or(0, |m| m + 1)
    }

    /// Whole-run total of counter `name` summed across labels and cells.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _, _), _)| *n == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Whole-run merge of histogram `name` across labels and cells.
    pub fn merged_hist(&self, name: &str) -> Histogram {
        let mut h = Histogram::new();
        for ((n, _, _), part) in &self.hists {
            if *n == name {
                h.merge(part);
            }
        }
        h
    }

    /// Counter value inside emitted window `w` (summed across labels).
    pub fn window_counter(&self, name: &str, w: u64) -> u64 {
        let cells = w..w + self.spec.cells_per_window();
        self.counters
            .iter()
            .filter(|((n, _, c), _)| *n == name && cells.contains(c))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Histogram merged over emitted window `w` (across labels).
    pub fn window_hist(&self, name: &str, w: u64) -> Histogram {
        let cells = w..w + self.spec.cells_per_window();
        let mut h = Histogram::new();
        for ((n, _, c), part) in &self.hists {
            if *n == name && cells.contains(c) {
                h.merge(part);
            }
        }
        h
    }

    /// Per-window counters of window `w`, keyed `(name, label text)` in
    /// canonical order.
    fn window_counters_by_label(&self, w: u64) -> BTreeMap<(&'static str, &str), u64> {
        let cells = w..w + self.spec.cells_per_window();
        let mut out: BTreeMap<(&'static str, &str), u64> = BTreeMap::new();
        for ((n, l, c), &v) in &self.counters {
            if cells.contains(c) {
                *out.entry((n, self.labels.text(*l))).or_insert(0) += v;
            }
        }
        out
    }

    /// Per-window histograms of window `w`, keyed `(name, label text)`;
    /// when a name carries non-empty labels an aggregate row under the
    /// empty label text is added so analysers can merge tails without
    /// re-deriving label algebra.
    fn window_hists_by_label(&self, w: u64) -> BTreeMap<(&'static str, String), Histogram> {
        let cells = w..w + self.spec.cells_per_window();
        let mut out: BTreeMap<(&'static str, String), Histogram> = BTreeMap::new();
        let mut labeled: BTreeMap<&'static str, bool> = BTreeMap::new();
        for ((n, l, c), h) in &self.hists {
            if !cells.contains(c) {
                continue;
            }
            let text = self.labels.text(*l);
            *labeled.entry(n).or_insert(false) |= !text.is_empty();
            out.entry((n, text.to_string())).or_default().merge(h);
        }
        for (n, has_labels) in labeled {
            if has_labels {
                let agg = self.window_hist(n, w);
                out.insert((n, String::new()), agg);
            }
        }
        out
    }

    /// Whole-run counter totals keyed `(name, label text)`.
    fn totals_by_label(&self) -> BTreeMap<(&'static str, &str), u64> {
        let mut out: BTreeMap<(&'static str, &str), u64> = BTreeMap::new();
        for ((n, l, _), &v) in &self.counters {
            *out.entry((n, self.labels.text(*l))).or_insert(0) += v;
        }
        out
    }

    /// Whole-run histogram merges keyed `(name, label text)`.
    fn hist_totals_by_label(&self) -> BTreeMap<(&'static str, &str), Histogram> {
        let mut out: BTreeMap<(&'static str, &str), Histogram> = BTreeMap::new();
        for ((n, l, _), h) in &self.hists {
            out.entry((n, self.labels.text(*l))).or_default().merge(h);
        }
        out
    }
}

/// One per-window SLO row (stride cadence).
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// Window (base cell) index.
    pub window: u64,
    /// In-SLO completions.
    pub good: u64,
    /// Deadline misses among completions.
    pub misses: u64,
    /// Error-budget spend: misses + failures + sheds.
    pub errors: u64,
    /// In-SLO completions per Mcycle of window.
    pub goodput_per_mcycle: f64,
    /// `misses / (good + misses)`, 0 with no completions.
    pub miss_ratio: f64,
    /// Error-budget burn over the trailing fast window.
    pub burn_fast: f64,
    /// Error-budget burn over the trailing slow window.
    pub burn_slow: f64,
    /// True while both burns sit at/above the alert threshold.
    pub firing: bool,
    /// True on the rising edge (this window started the alert).
    pub alert: bool,
}

/// Multi-window error-budget burn tracking.
///
/// Counts per base cell: `good` (in-SLO completions), `misses` (deadline
/// misses), `errors` (misses + failures + sheds — everything that spends
/// error budget). The burn rate over a trailing span is
/// `errors/(good+errors) / budget`; burn 1.0 spends budget exactly at the
/// sustainable rate, and the tracker raises an edge-triggered alert when
/// both the fast (1-window) and slow (8-window) burns reach the
/// threshold — the fast window catches the spike, the slow window
/// debounces it (the classic SRE fast/slow pair).
#[derive(Debug, Clone)]
pub struct SloTracker {
    budget: f64,
    fast: u64,
    slow: u64,
    threshold: f64,
    good: BTreeMap<u64, u64>,
    misses: BTreeMap<u64, u64>,
    errors: BTreeMap<u64, u64>,
}

impl SloTracker {
    /// Default availability target (99 % in-SLO ⇒ 1 % error budget).
    pub const DEFAULT_TARGET: f64 = 0.99;
    /// Trailing windows of the fast burn.
    pub const FAST_WINDOWS: u64 = 1;
    /// Trailing windows of the slow burn.
    pub const SLOW_WINDOWS: u64 = 8;
    /// Burn level at which both windows must sit to alert.
    pub const ALERT_THRESHOLD: f64 = 1.0;

    /// A tracker with the default target and fast/slow pair.
    pub fn new() -> Self {
        Self::with_target(Self::DEFAULT_TARGET)
    }

    /// A tracker for an explicit availability target in `(0, 1)`.
    pub fn with_target(target: f64) -> Self {
        assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
        SloTracker {
            budget: 1.0 - target,
            fast: Self::FAST_WINDOWS,
            slow: Self::SLOW_WINDOWS,
            threshold: Self::ALERT_THRESHOLD,
            good: BTreeMap::new(),
            misses: BTreeMap::new(),
            errors: BTreeMap::new(),
        }
    }

    /// Records `n` in-SLO completions in base cell `cell`.
    pub fn good(&mut self, cell: u64, n: u64) {
        *self.good.entry(cell).or_insert(0) += n;
    }

    /// Records `n` deadline misses (budget spend) in base cell `cell`.
    pub fn miss(&mut self, cell: u64, n: u64) {
        *self.misses.entry(cell).or_insert(0) += n;
        *self.errors.entry(cell).or_insert(0) += n;
    }

    /// Records `n` non-miss errors (failures, sheds) in base cell `cell`.
    pub fn error(&mut self, cell: u64, n: u64) {
        *self.errors.entry(cell).or_insert(0) += n;
    }

    fn sum(map: &BTreeMap<u64, u64>, cells: std::ops::RangeInclusive<u64>) -> u64 {
        map.range(cells).map(|(_, &v)| v).sum()
    }

    /// Error-budget burn over the `trailing` cells ending at `cell`
    /// (0 with no traffic in the span).
    pub fn burn(&self, cell: u64, trailing: u64) -> f64 {
        let first = cell.saturating_sub(trailing.saturating_sub(1));
        let good = Self::sum(&self.good, first..=cell);
        let errors = Self::sum(&self.errors, first..=cell);
        let total = good + errors;
        if total == 0 {
            return 0.0;
        }
        (errors as f64 / total as f64) / self.budget
    }

    /// Per-cell SLO rows for cells `0..=last`, with edge-triggered alert
    /// marks.
    pub fn rows(&self, last: u64, spec: &WindowSpec) -> Vec<SloRow> {
        let mut rows = Vec::with_capacity(last as usize + 1);
        let mut prev_firing = false;
        for cell in 0..=last {
            let good = self.good.get(&cell).copied().unwrap_or(0);
            let misses = self.misses.get(&cell).copied().unwrap_or(0);
            let errors = self.errors.get(&cell).copied().unwrap_or(0);
            let burn_fast = self.burn(cell, self.fast);
            let burn_slow = self.burn(cell, self.slow);
            let firing = burn_fast >= self.threshold && burn_slow >= self.threshold;
            rows.push(SloRow {
                window: cell,
                good,
                misses,
                errors,
                goodput_per_mcycle: good as f64 * 1e6 / spec.stride as f64,
                miss_ratio: if good + misses == 0 {
                    0.0
                } else {
                    misses as f64 / (good + misses) as f64
                },
                burn_fast,
                burn_slow,
                firing,
                alert: firing && !prev_firing,
            });
            prev_firing = firing;
        }
        rows
    }
}

impl Default for SloTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// A complete windowed-metrics bundle: the dimensional window store plus
/// the optional SLO tracker, with every export surface (JSONL, Prometheus
/// exposition, JSON snapshot, alert events).
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    /// The windowed counters/histograms.
    pub windows: WindowSet,
    /// SLO burn tracking (absent when the workload carries no deadlines).
    pub slo: Option<SloTracker>,
}

impl WindowedMetrics {
    /// A bundle over `spec`; call [`WindowedMetrics::enable_slo`] when the
    /// workload has deadlines.
    pub fn new(spec: WindowSpec) -> Self {
        WindowedMetrics {
            windows: WindowSet::new(spec),
            slo: None,
        }
    }

    /// Switches SLO tracking on (idempotent).
    pub fn enable_slo(&mut self) -> &mut SloTracker {
        self.slo.get_or_insert_with(SloTracker::new)
    }

    /// Refuses an export that would cover more than [`MAX_WINDOWS`]
    /// windows, with a one-line error naming the count and the cap.
    pub fn check_window_cap(&self) -> Result<(), String> {
        let n = self.windows.window_count();
        if n > MAX_WINDOWS {
            return Err(format!(
                "windowed export would cover {n} windows of {} cycles, above the cap of \
                 {MAX_WINDOWS}; use a wider window",
                self.windows.spec.stride
            ));
        }
        Ok(())
    }

    fn slo_rows(&self) -> Vec<SloRow> {
        match (&self.slo, self.windows.max_cell) {
            (Some(slo), Some(last)) => slo.rows(last, &self.windows.spec),
            _ => Vec::new(),
        }
    }

    /// Alerts raised (rising edges) over the covered cells.
    pub fn alerts(&self) -> u64 {
        self.slo_rows().iter().filter(|r| r.alert).count() as u64
    }

    /// Peak `(burn_fast, burn_slow)` over the covered cells.
    pub fn peak_burn(&self) -> (f64, f64) {
        let rows = self.slo_rows();
        (
            rows.iter().map(|r| r.burn_fast).fold(0.0, f64::max),
            rows.iter().map(|r| r.burn_slow).fold(0.0, f64::max),
        )
    }

    /// First cycle of the first alerting window, if any alert fired.
    pub fn first_alert_cycle(&self) -> Option<u64> {
        self.slo_rows()
            .iter()
            .find(|r| r.alert)
            .map(|r| self.windows.spec.window_start(r.window))
    }

    /// The JSONL export: a `window_spec` header, then per emitted window
    /// the `window` counter rows and `whist` histogram rows, then per base
    /// cell the `slo` rows. Canonical order throughout, so identical runs
    /// export byte-identical streams.
    pub fn to_jsonl(&self) -> String {
        let spec = self.windows.spec;
        let mut out = String::new();
        let header = mocha_json::jobj! {
            "event" => "window_spec",
            "width" => spec.width,
            "stride" => spec.stride,
            "windows" => self.windows.window_count(),
        };
        out.push_str(&header.to_string_compact());
        out.push('\n');
        for w in 0..self.windows.window_count() {
            let start = spec.window_start(w);
            let end = spec.window_end(w);
            for ((name, labels), value) in self.windows.window_counters_by_label(w) {
                let line = mocha_json::jobj! {
                    "event" => "window",
                    "window" => w,
                    "start" => start,
                    "end" => end,
                    "name" => name,
                    "labels" => labels,
                    "value" => value,
                };
                out.push_str(&line.to_string_compact());
                out.push('\n');
            }
            for ((name, labels), hist) in self.windows.window_hists_by_label(w) {
                let mut line = mocha_json::jobj! {
                    "event" => "whist",
                    "window" => w,
                    "start" => start,
                    "end" => end,
                    "name" => name,
                    "labels" => labels.as_str(),
                };
                if let Value::Obj(map) = &mut line {
                    if let Value::Obj(summary) = hist.summary_json() {
                        map.extend(summary);
                    }
                }
                out.push_str(&line.to_string_compact());
                out.push('\n');
            }
        }
        for row in self.slo_rows() {
            let line = mocha_json::jobj! {
                "event" => "slo",
                "window" => row.window,
                "start" => row.window * spec.stride,
                "end" => (row.window + 1) * spec.stride,
                "good" => row.good,
                "misses" => row.misses,
                "errors" => row.errors,
                "goodput_per_mcycle" => row.goodput_per_mcycle,
                "miss_ratio" => row.miss_ratio,
                "burn_fast" => row.burn_fast,
                "burn_slow" => row.burn_slow,
                "alert" => row.alert,
            };
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// The Prometheus-style text exposition: whole-run totals per
    /// `(metric, label set)` (counters as `counter`, histograms as
    /// `summary` quantiles + `_count`), plus `mocha_slo_*` burn gauges
    /// when SLO tracking is on. Metric names are `mocha_` + the obs name
    /// with dots mapped to underscores.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), value) in self.windows.totals_by_label() {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {} counter", prom_name(name));
                last_name = name;
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                prom_name(name),
                prom_labels(labels, &[]),
                value
            );
        }
        last_name = "";
        for ((name, labels), hist) in self.windows.hist_totals_by_label() {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {} summary", prom_name(name));
                last_name = name;
            }
            for (q, v) in [
                ("0.5", hist.p50()),
                ("0.95", hist.p95()),
                ("0.99", hist.p99()),
            ] {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    prom_name(name),
                    prom_labels(labels, &[("quantile", q)]),
                    v
                );
            }
            let _ = writeln!(
                out,
                "{}_count{} {}",
                prom_name(name),
                prom_labels(labels, &[]),
                hist.count()
            );
        }
        let rows = self.slo_rows();
        if let Some(last) = rows.last() {
            let (peak_fast, peak_slow) = self.peak_burn();
            for (name, v) in [
                ("mocha_slo_burn_fast", last.burn_fast),
                ("mocha_slo_burn_slow", last.burn_slow),
                ("mocha_slo_burn_peak_fast", peak_fast),
                ("mocha_slo_burn_peak_slow", peak_slow),
            ] {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            let _ = writeln!(out, "# TYPE mocha_slo_alerts counter");
            let _ = writeln!(out, "mocha_slo_alerts {}", self.alerts());
        }
        out
    }

    /// The JSON snapshot: window spec, whole-run totals per
    /// `(name, labels)`, and the SLO burn summary. One compact line; the
    /// CI smoke gate diffs its counter name set and burn values.
    pub fn snapshot_json(&self) -> Value {
        let counters: Vec<Value> = self
            .windows
            .totals_by_label()
            .into_iter()
            .map(|((name, labels), value)| {
                mocha_json::jobj! {
                    "name" => name,
                    "labels" => labels,
                    "value" => value,
                }
            })
            .collect();
        let hists: Vec<Value> = self
            .windows
            .hist_totals_by_label()
            .into_iter()
            .map(|((name, labels), hist)| {
                let mut v = mocha_json::jobj! {
                    "name" => name,
                    "labels" => labels,
                };
                if let Value::Obj(map) = &mut v {
                    if let Value::Obj(summary) = hist.summary_json() {
                        map.extend(summary);
                    }
                }
                v
            })
            .collect();
        let mut snap = mocha_json::jobj! {
            "metrics" => true,
            "width" => self.windows.spec.width,
            "stride" => self.windows.spec.stride,
            "windows" => self.windows.window_count(),
            "counters" => Value::Arr(counters),
            "hists" => Value::Arr(hists),
        };
        if self.slo.is_some() {
            let rows = self.slo_rows();
            let (peak_fast, peak_slow) = self.peak_burn();
            let (burn_fast, burn_slow) = rows
                .last()
                .map(|r| (r.burn_fast, r.burn_slow))
                .unwrap_or((0.0, 0.0));
            let slo = mocha_json::jobj! {
                "good" => rows.iter().map(|r| r.good).sum::<u64>(),
                "misses" => rows.iter().map(|r| r.misses).sum::<u64>(),
                "errors" => rows.iter().map(|r| r.errors).sum::<u64>(),
                "burn_fast" => burn_fast,
                "burn_slow" => burn_slow,
                "peak_burn_fast" => peak_fast,
                "peak_burn_slow" => peak_slow,
                "alerts" => self.alerts(),
            };
            if let Value::Obj(map) = &mut snap {
                map.insert("slo".to_string(), slo);
            }
        }
        snap
    }

    /// Emits the structured `slo.*` alert events into an obs stream: one
    /// [`names::SLO_ALERTS`] counter bump plus one `slo/alert` span per
    /// rising-edge window.
    pub fn record_alerts<R: Recorder>(&self, rec: &mut R) {
        let spec = self.windows.spec;
        for row in self.slo_rows() {
            if row.alert {
                rec.add(names::SLO_ALERTS, 1);
                let w = row.window;
                rec.span(
                    || "slo/alert".to_string(),
                    w * spec.stride,
                    (w + 1) * spec.stride,
                );
            }
        }
    }
}

/// `mocha_` + the obs metric name with `.` mapped to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("mocha_");
    for c in name.chars() {
        out.push(if c == '.' { '_' } else { c });
    }
    out
}

/// Renders canonical label text (`k=v,k=v`) plus extra pairs as a
/// Prometheus label block (`{k="v",...}`; empty string when no labels).
fn prom_labels(text: &str, extra: &[(&str, &str)]) -> String {
    let mut parts: Vec<(String, String)> = text
        .split(',')
        .filter(|p| !p.is_empty())
        .filter_map(|p| p.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    for (k, v) in extra {
        parts.push((k.to_string(), v.to_string()));
    }
    if parts.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in parts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemRecorder;

    #[test]
    fn spec_parses_every_accepted_form() {
        assert_eq!(
            WindowSpec::parse("5000").unwrap(),
            WindowSpec::tumbling(5000)
        );
        assert_eq!(
            WindowSpec::parse("tumbling:250").unwrap(),
            WindowSpec::tumbling(250)
        );
        let r = WindowSpec::parse("rolling:4000/1000").unwrap();
        assert_eq!((r.width, r.stride), (4000, 1000));
        assert!(!r.is_tumbling());
        assert_eq!(r.cells_per_window(), 4);
    }

    #[test]
    fn spec_rejects_malformed_forms_with_one_line_errors() {
        for bad in [
            "",
            "0",
            "-5",
            "abc",
            "tumbling:",
            "tumbling:0",
            "rolling:1000",
            "rolling:0/0",
            "rolling:1000/0",
            "rolling:1000/3000",
            "rolling:1000/300",
            "rolling:a/b",
            "1.5",
        ] {
            let err = WindowSpec::parse(bad).unwrap_err();
            assert!(err.starts_with("bad window spec"), "{bad:?}: {err}");
            assert!(!err.contains('\n'), "{bad:?}: multi-line error");
        }
    }

    #[test]
    fn labels_intern_canonically_regardless_of_pair_order() {
        let mut i = LabelInterner::default();
        let a = i.intern(&[("tenant", "3"), ("template", "lenet5")]);
        let b = i.intern(&[("template", "lenet5"), ("tenant", "3")]);
        assert_eq!(a, b);
        assert_eq!(i.text(a), "template=lenet5,tenant=3");
        assert_eq!(i.intern(&[]), LabelSet::EMPTY);
        assert_eq!(i.text(LabelSet::EMPTY), "");
    }

    #[test]
    fn tumbling_windows_bucket_and_total_exactly() {
        let mut ws = WindowSet::new(WindowSpec::tumbling(100));
        let l = ws.intern(&[("tenant", "0")]);
        ws.add_at("serve.requests", l, 0, 1);
        ws.add_at("serve.requests", l, 99, 1);
        ws.add_at("serve.requests", l, 100, 1);
        ws.add_at("serve.requests", l, 250, 1);
        assert_eq!(ws.window_count(), 3);
        assert_eq!(ws.window_counter("serve.requests", 0), 2);
        assert_eq!(ws.window_counter("serve.requests", 1), 1);
        assert_eq!(ws.window_counter("serve.requests", 2), 1);
        assert_eq!(ws.counter_total("serve.requests"), 4);
    }

    #[test]
    fn rolling_windows_are_merges_of_base_cells() {
        let spec = WindowSpec::parse("rolling:200/100").unwrap();
        let mut ws = WindowSet::new(spec);
        let l = LabelSet::EMPTY;
        ws.sample_at("lat", l, 50, 10);
        ws.sample_at("lat", l, 150, 20);
        ws.sample_at("lat", l, 250, 30);
        // Window 0 covers cells 0-1, window 1 covers cells 1-2.
        assert_eq!(ws.window_hist("lat", 0).count(), 2);
        assert_eq!(ws.window_hist("lat", 1).count(), 2);
        assert_eq!(ws.window_hist("lat", 1).min(), Some(20));
        assert_eq!(ws.merged_hist("lat").count(), 3);
    }

    #[test]
    fn burn_rate_spikes_on_errors_and_decays_with_silence() {
        let mut slo = SloTracker::new();
        // Cells 0-1 healthy, cell 2 melts down, cells 3+ silent.
        slo.good(0, 100);
        slo.good(1, 100);
        slo.good(2, 50);
        slo.miss(2, 25);
        slo.error(2, 25);
        assert_eq!(slo.burn(1, 1), 0.0);
        // 50 % errors against a ~1 % budget: burn ≈ 50× (the budget is
        // 1.0 - 0.99, which is not exactly 0.01 in f64).
        assert!((slo.burn(2, 1) - 50.0).abs() < 1e-6, "{}", slo.burn(2, 1));
        // Slow burn dilutes over the trailing 8 cells but still fires.
        assert!(slo.burn(2, 8) > 1.0);
        // Silence after the spike: fast burn back to zero.
        assert_eq!(slo.burn(3, 1), 0.0);
    }

    #[test]
    fn alerts_are_edge_triggered() {
        let spec = WindowSpec::tumbling(1000);
        let mut m = WindowedMetrics::new(spec);
        let slo = m.enable_slo();
        slo.good(0, 10);
        for cell in 1..4 {
            slo.good(cell, 1);
            slo.miss(cell, 9); // 90 % errors, way past a 1 % budget
        }
        slo.good(4, 10);
        m.windows.observe_cycle(4999);
        let rows = m.slo_rows();
        assert!(!rows[0].firing);
        assert!(rows[1].alert, "rising edge");
        assert!(rows[2].firing && !rows[2].alert, "held, not re-raised");
        assert_eq!(m.alerts(), 1);
        assert_eq!(m.first_alert_cycle(), Some(1000));
        let mut rec = MemRecorder::new();
        m.record_alerts(&mut rec);
        assert_eq!(rec.counter(names::SLO_ALERTS), 1);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].path, "slo/alert");
        assert_eq!((rec.spans()[0].start, rec.spans()[0].end), (1000, 2000));
    }

    #[test]
    fn jsonl_export_is_canonical_and_parseable() {
        let mut m = WindowedMetrics::new(WindowSpec::tumbling(100));
        let l = m.windows.intern(&[("tenant", "1"), ("template", "tiny")]);
        m.windows.add_at("serve.requests", l, 10, 2);
        m.windows.sample_at("runtime.latency_cycles", l, 10, 42);
        m.enable_slo().good(0, 2);
        let a = m.to_jsonl();
        let b = m.to_jsonl();
        assert_eq!(a, b, "export is deterministic");
        for line in a.lines() {
            let v = mocha_json::parse(line).expect("every line parses");
            assert!(v.get("event").is_some());
        }
        assert!(a.starts_with("{\"event\":\"window_spec\""));
        assert!(a.contains("\"event\":\"window\""));
        assert!(a.contains("\"event\":\"whist\""));
        assert!(a.contains("\"event\":\"slo\""));
        // The labeled hist also gets an aggregate (empty-label) row.
        assert!(a.contains("\"labels\":\"\""));
    }

    #[test]
    fn window_cap_refuses_exports_past_the_cap() {
        let mut m = WindowedMetrics::new(WindowSpec::tumbling(10));
        m.windows.observe_cycle(10 * MAX_WINDOWS - 1);
        assert_eq!(m.check_window_cap(), Ok(()));
        m.windows.observe_cycle(10 * MAX_WINDOWS);
        let err = m.check_window_cap().unwrap_err();
        assert!(err.contains(&(MAX_WINDOWS + 1).to_string()), "{err}");
        assert!(err.contains(&MAX_WINDOWS.to_string()), "{err}");
        assert_eq!(err.lines().count(), 1);
    }

    #[test]
    fn exposition_renders_counters_summaries_and_slo_gauges() {
        let mut m = WindowedMetrics::new(WindowSpec::tumbling(100));
        let l = m.windows.intern(&[("tenant", "1")]);
        m.windows.add_at("serve.requests", l, 0, 3);
        m.windows
            .sample_at("runtime.latency_cycles", LabelSet::EMPTY, 0, 7);
        m.enable_slo().good(0, 3);
        let text = m.exposition();
        assert!(text.contains("# TYPE mocha_serve_requests counter"));
        assert!(text.contains("mocha_serve_requests{tenant=\"1\"} 3"));
        assert!(text.contains("# TYPE mocha_runtime_latency_cycles summary"));
        assert!(text.contains("mocha_runtime_latency_cycles{quantile=\"0.99\"} 7"));
        assert!(text.contains("mocha_runtime_latency_cycles_count 1"));
        assert!(text.contains("mocha_slo_burn_fast 0"));
        assert!(text.contains("mocha_slo_alerts 0"));
        assert_eq!(m.exposition(), text, "deterministic");
    }

    #[test]
    fn snapshot_carries_totals_and_slo_summary() {
        let mut m = WindowedMetrics::new(WindowSpec::tumbling(100));
        let l = m.windows.intern(&[("kind", "pe")]);
        m.windows.add_at("fault.injected", l, 150, 2);
        m.enable_slo().miss(1, 2);
        m.enable_slo().good(1, 8);
        let snap = m.snapshot_json();
        assert_eq!(snap.get("windows").and_then(Value::as_u64), Some(2));
        let counters = snap.get("counters").expect("counters");
        let Value::Arr(items) = counters else {
            panic!("counters is an array")
        };
        assert_eq!(items.len(), 1);
        assert_eq!(
            items[0].get("labels").and_then(Value::as_str),
            Some("kind=pe")
        );
        let slo = snap.get("slo").expect("slo block");
        assert_eq!(slo.get("misses").and_then(Value::as_u64), Some(2));
        assert!(slo.get("peak_burn_fast").and_then(Value::as_f64).unwrap() > 1.0);
    }
}
