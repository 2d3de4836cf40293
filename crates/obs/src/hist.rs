//! Exact streaming histograms over `u64` samples.
//!
//! The MOCHA simulators sample *cycle counts*: group latencies, queue waits,
//! queue depths. Some repeat heavily (depths), others are mostly distinct
//! (latencies), so the store must be exact and cheap for both shapes.
//!
//! A [`Histogram`] keeps two parts:
//!
//! * **runs** — a sorted `Vec` of distinct `(value, count)` pairs;
//! * **pending** — an unsorted append buffer of samples not yet in a run.
//!
//! [`Histogram::record`] pushes onto the buffer. When the buffer reaches
//! `max(CHUNK, runs.len())` samples it is sorted and merged into the runs:
//! a geometric, LSM-style fold, so the amortised cost per sample is
//! O(log n). Memory is 16 bytes per distinct value plus a buffer of fewer
//! than `max(CHUNK, distinct values)` 8-byte samples, whatever the sample
//! count.
//!
//! Reads take `&self` and walk the runs merged with a sorted copy of the
//! buffer, so quantiles are a nearest-rank walk over the exact sample
//! multiset: they match a sort-based oracle bit for bit on any input, and
//! equality, merge and JSON depend only on that multiset, never on when the
//! buffer last folded. No buckets, no approximation error.

use std::cmp::Ordering;

/// Buffer length below which a fold never happens, so small histograms
/// (per-window cells, short runs) do not sort after every few samples.
const CHUNK: usize = 256;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)`, clamped to `[1, n]` — the definition
/// [`Histogram::quantile`] walks to. 0 when empty.
///
/// Every report percentile in the workspace goes through this one
/// function.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An exact streaming histogram of `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Distinct values in ascending order, each with its sample count.
    runs: Vec<(u64, u64)>,
    /// Samples recorded since the last fold, in arrival order.
    pending: Vec<u64>,
    total: u64,
    sum: u128,
}

/// `(value, count)` runs of an ascending-sorted sample.
fn runs_of(sorted: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
}

/// Merges two ascending streams of distinct-value runs into one, adding the
/// counts of a value present in both.
fn merge_runs(
    a: impl Iterator<Item = (u64, u64)>,
    b: impl Iterator<Item = (u64, u64)>,
) -> impl Iterator<Item = (u64, u64)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek().copied(), b.peek().copied()) {
        (Some(x), Some(y)) => match x.0.cmp(&y.0) {
            Ordering::Less => a.next(),
            Ordering::Greater => b.next(),
            Ordering::Equal => {
                a.next();
                b.next();
                Some((x.0, x.1 + y.1))
            }
        },
        (Some(_), None) => a.next(),
        (None, _) => b.next(),
    })
}

/// `runs` merged with at most `len` further runs, as a new run list.
fn merged(
    runs: &[(u64, u64)],
    other: impl Iterator<Item = (u64, u64)>,
    len: usize,
) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(runs.len() + len);
    out.extend(merge_runs(runs.iter().copied(), other));
    out
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.total += 1;
        self.sum += value as u128;
        self.push(value);
    }

    /// Buffers one sample already counted in `total`/`sum`, folding the
    /// buffer into the runs once it is as long as the run list.
    fn push(&mut self, value: u64) {
        self.pending.push(value);
        if self.pending.len() >= CHUNK.max(self.runs.len()) {
            self.fold();
        }
    }

    /// Sorts the buffer and merges it into the runs.
    fn fold(&mut self) {
        self.pending.sort_unstable();
        self.runs = merged(&self.runs, runs_of(&self.pending), self.pending.len());
        self.pending.clear();
    }

    /// The buffer, sorted (a copy: reads never fold).
    fn sorted_pending(&self) -> Vec<u64> {
        let mut sorted = self.pending.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Merges another histogram into this one, as if every sample recorded
    /// into `other` had been recorded here instead. The store is exact, so
    /// merge-then-quantile equals quantile over the concatenated sample
    /// sets bit for bit — the property that makes shard/batch snapshot
    /// aggregation lossless.
    pub fn merge(&mut self, other: &Histogram) {
        self.total += other.total;
        self.sum += other.sum;
        let run_samples = other.total - other.pending.len() as u64;
        if run_samples < self.runs.len() as u64 {
            // Replaying a few samples is cheaper than rewriting every run,
            // and keeps many small merges into one big histogram linear.
            for &(value, n) in &other.runs {
                for _ in 0..n {
                    self.push(value);
                }
            }
        } else {
            self.runs = merged(&self.runs, other.runs.iter().copied(), other.runs.len());
        }
        for &value in &other.pending {
            self.push(value);
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        let run = self.runs.first().map(|&(value, _)| value);
        run.into_iter().chain(self.pending.iter().copied()).min()
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        let run = self.runs.last().map(|&(value, _)| value);
        run.into_iter().chain(self.pending.iter().copied()).max()
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Nearest-rank quantile: the smallest recorded value whose cumulative
    /// count reaches `ceil(p/100 · n)` (clamped to `[1, n]`, so `p = 0`
    /// returns the minimum and `p = 100` the maximum). `None` when empty.
    ///
    /// This is the same definition `RuntimeReport::latency_percentile`
    /// uses, so fleet reports and live histograms can never disagree.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        self.quantiles([p]).map(|[q]| q)
    }

    /// Nearest-rank quantiles at ascending percentiles `ps`, in one walk
    /// over the runs merged with the sorted buffer. `None` when empty.
    fn quantiles<const N: usize>(&self, ps: [f64; N]) -> Option<[u64; N]> {
        if self.total == 0 {
            return None;
        }
        let ranks =
            ps.map(|p| (((p / 100.0) * self.total as f64).ceil() as u64).clamp(1, self.total));
        debug_assert!(ranks.is_sorted(), "percentiles must ascend");
        let pending = self.sorted_pending();
        let mut out = [0; N];
        let mut next = 0;
        let mut seen = 0u64;
        for (value, n) in merge_runs(self.runs.iter().copied(), runs_of(&pending)) {
            seen += n;
            while next < N && seen >= ranks[next] {
                out[next] = value;
                next += 1;
            }
            if next == N {
                return Some(out);
            }
        }
        unreachable!("cumulative counts must reach total")
    }

    /// The median (`quantile(50)`), 0 when empty.
    pub fn p50(&self) -> u64 {
        self.quantile(50.0).unwrap_or(0)
    }

    /// The 95th percentile, 0 when empty.
    pub fn p95(&self) -> u64 {
        self.quantile(95.0).unwrap_or(0)
    }

    /// The 99th percentile, 0 when empty.
    pub fn p99(&self) -> u64 {
        self.quantile(99.0).unwrap_or(0)
    }

    /// Summary as a JSON object (count/min/max/mean/p50/p95/p99; zeros when
    /// empty, so snapshots always have a defined shape). The buffer is
    /// sorted once for all three quantiles.
    pub fn summary_json(&self) -> mocha_json::Value {
        let [p50, p95, p99] = self.quantiles([50.0, 95.0, 99.0]).unwrap_or_default();
        mocha_json::jobj! {
            "count" => self.count(),
            "min" => self.min().unwrap_or(0),
            "max" => self.max().unwrap_or(0),
            "mean" => self.mean(),
            "p50" => p50,
            "p95" => p95,
            "p99" => p99,
        }
    }
}

/// Equality of the recorded sample multisets, whatever each side's buffer
/// holds.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        if self.total != other.total || self.sum != other.sum {
            return false;
        }
        let (a, b) = (self.sorted_pending(), other.sorted_pending());
        merge_runs(self.runs.iter().copied(), runs_of(&a))
            .eq(merge_runs(other.runs.iter().copied(), runs_of(&b)))
    }
}

impl Eq for Histogram {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The value→count tree this store replaced, kept as the exactness
    /// oracle: every read of a [`Histogram`] must equal its read here.
    #[derive(Default)]
    struct TreeHistogram {
        counts: BTreeMap<u64, u64>,
        total: u64,
        sum: u128,
    }

    impl TreeHistogram {
        fn record(&mut self, value: u64) {
            *self.counts.entry(value).or_insert(0) += 1;
            self.total += 1;
            self.sum += value as u128;
        }

        fn min(&self) -> Option<u64> {
            self.counts.keys().next().copied()
        }

        fn max(&self) -> Option<u64> {
            self.counts.keys().next_back().copied()
        }

        fn mean(&self) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            self.sum as f64 / self.total as f64
        }

        fn quantile(&self, p: f64) -> Option<u64> {
            if self.total == 0 {
                return None;
            }
            let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
            let rank = rank.clamp(1, self.total);
            let mut seen = 0u64;
            for (&value, &n) in &self.counts {
                seen += n;
                if seen >= rank {
                    return Some(value);
                }
            }
            unreachable!("cumulative counts must reach total")
        }

        fn summary_json(&self) -> mocha_json::Value {
            mocha_json::jobj! {
                "count" => self.total,
                "min" => self.min().unwrap_or(0),
                "max" => self.max().unwrap_or(0),
                "mean" => self.mean(),
                "p50" => self.quantile(50.0).unwrap_or(0),
                "p95" => self.quantile(95.0).unwrap_or(0),
                "p99" => self.quantile(99.0).unwrap_or(0),
            }
        }
    }

    /// Deterministic splitmix64, so the property tests need no rand crate.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    /// Sample counts at and either side of the fold threshold, plus sizes
    /// large enough that the run list sets the threshold.
    const SIZES: [usize; 12] = [
        0,
        1,
        2,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        2 * CHUNK - 1,
        2 * CHUNK,
        2 * CHUNK + 1,
        3 * CHUNK + 7,
        1_000,
        5_000,
    ];

    /// Seeded sample sets of every shape the oracle is checked on.
    fn shapes(seed: u64, len: usize) -> Vec<(&'static str, Vec<u64>)> {
        let mut rng = SplitMix(seed);
        let mut draw = |f: &mut dyn FnMut(u64) -> u64| -> Vec<u64> {
            (0..len).map(|_| f(rng.next())).collect()
        };
        vec![
            ("random", draw(&mut |r| r)),
            ("cycles", draw(&mut |r| r % 1_000_000)),
            ("duplicates", draw(&mut |r| r % 7)),
            ("all-equal", vec![42; len]),
            ("huge", draw(&mut |r| u64::MAX - r % 3)),
        ]
    }

    fn assert_matches_oracle(h: &Histogram, oracle: &TreeHistogram, label: &str) {
        assert!(
            h.runs.windows(2).all(|w| w[0].0 < w[1].0),
            "{label}: runs must be distinct and ascending"
        );
        assert!(
            h.pending.len() < CHUNK.max(h.runs.len()),
            "{label}: buffer outgrew its bound"
        );
        assert_eq!(h.count(), oracle.total, "{label}: count");
        assert_eq!(h.min(), oracle.min(), "{label}: min");
        assert_eq!(h.max(), oracle.max(), "{label}: max");
        assert_eq!(h.mean().to_bits(), oracle.mean().to_bits(), "{label}: mean");
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.quantile(p), oracle.quantile(p), "{label}: p{p}");
        }
        assert_eq!(
            h.summary_json().to_string_compact(),
            oracle.summary_json().to_string_compact(),
            "{label}: summary_json"
        );
    }

    fn recorded(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn reads_match_the_tree_oracle_with_records_interleaved() {
        for (seed, len) in SIZES.into_iter().enumerate() {
            for (shape, samples) in shapes(seed as u64, len) {
                let mut h = Histogram::new();
                let mut oracle = TreeHistogram::default();
                let mut rng = SplitMix(seed as u64 ^ 0x5eed);
                for (i, &v) in samples.iter().enumerate() {
                    h.record(v);
                    oracle.record(v);
                    // Read at random points, so the buffer is often
                    // part-full when the walk merges it.
                    if rng.next() % 97 == 0 {
                        assert_matches_oracle(&h, &oracle, &format!("{shape} n={len} at {i}"));
                    }
                }
                assert_matches_oracle(&h, &oracle, &format!("{shape} n={len}"));
            }
        }
    }

    #[test]
    fn merge_of_splits_in_every_order_matches_the_oracle() {
        const ORDERS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for (seed, len) in SIZES.into_iter().enumerate() {
            for (shape, samples) in shapes(seed as u64 + 100, len) {
                let mut oracle = TreeHistogram::default();
                samples.iter().for_each(|&v| oracle.record(v));
                let whole = recorded(&samples);
                // Uneven splits: a tiny part, a middle part and the rest,
                // so merges take both the replay and the run-merge path.
                let mut rng = SplitMix(seed as u64);
                let a = (rng.next() as usize % (len + 1)).min(3);
                let b = a + rng.next() as usize % (len - a + 1);
                let parts = [
                    recorded(&samples[..a]),
                    recorded(&samples[a..b]),
                    recorded(&samples[b..]),
                ];
                for order in ORDERS {
                    let mut h = Histogram::new();
                    for i in order {
                        h.merge(&parts[i]);
                    }
                    let label = format!("{shape} n={len} split {a}/{b} order {order:?}");
                    assert_matches_oracle(&h, &oracle, &label);
                    assert_eq!(h, whole, "{label}: ==");
                }
            }
        }
    }

    #[test]
    fn merging_a_small_folded_histogram_into_a_wide_one_is_exact() {
        // The source's runs hold fewer samples than the destination has
        // runs, so its repeated values are replayed one sample at a time.
        let wide: Vec<u64> = (0..5_000).map(|v| v * 3).collect();
        let small: Vec<u64> = (0..CHUNK as u64 + 44).map(|v| v % 7).collect();
        let mut oracle = TreeHistogram::default();
        wide.iter().chain(&small).for_each(|&v| oracle.record(v));
        let all = recorded(&[&wide[..], &small[..]].concat());
        for (first, second) in [(&wide, &small), (&small, &wide)] {
            let mut h = recorded(first);
            h.merge(&recorded(second));
            assert_matches_oracle(&h, &oracle, "wide + small");
            assert_eq!(h, all);
        }
    }

    #[test]
    fn equality_ignores_the_buffer_state() {
        let mut rng = SplitMix(9);
        let samples: Vec<u64> = (0..3 * CHUNK + 5).map(|_| rng.next() % 500).collect();
        let forward = recorded(&samples);
        let reversed: Vec<u64> = samples.iter().rev().copied().collect();
        let backward = recorded(&reversed);
        let mut singletons = Histogram::new();
        for &v in &samples {
            singletons.merge(&recorded(&[v]));
        }
        // Same multiset, split so one side holds it all in the buffer.
        let mut pending_heavy = recorded(&samples[..CHUNK - 1]);
        pending_heavy.merge(&recorded(&samples[CHUNK - 1..]));
        for (name, h) in [
            ("backward", &backward),
            ("singletons", &singletons),
            ("pending-heavy", &pending_heavy),
        ] {
            assert_eq!(h, &forward, "{name}");
            assert_eq!(forward, *h, "{name} (symmetric)");
        }
        let mut one_more = forward.clone();
        one_more.record(0);
        assert_ne!(one_more, forward);
        // Equal count and sum, different samples.
        assert_ne!(recorded(&[1, 3]), recorded(&[2, 2]));
    }

    #[test]
    fn empty_histogram_has_defined_values() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(50.0), None);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(7);
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.quantile(p), Some(7), "p{p}");
        }
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.mean(), 7.0);
    }

    #[test]
    fn all_equal_samples_are_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(42);
        }
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.quantile(p), Some(42), "p{p}");
        }
    }

    #[test]
    fn nearest_rank_on_a_known_ladder() {
        // Four samples 100/200/300/400 — the RuntimeReport doc example.
        let mut h = Histogram::new();
        for v in [400, 100, 300, 200] {
            h.record(v);
        }
        assert_eq!(h.quantile(50.0), Some(200));
        assert_eq!(h.quantile(95.0), Some(400));
        assert_eq!(h.quantile(99.0), Some(400));
        assert_eq!(h.quantile(25.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(100));
        assert_eq!(h.quantile(100.0), Some(400));
    }

    #[test]
    fn sorted_slice_nearest_rank_matches_the_walk() {
        let ladder = [100, 200, 300, 400];
        let mut h = Histogram::new();
        for v in ladder {
            h.record(v);
        }
        for p in [0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(nearest_rank(&ladder, p), h.quantile(p).unwrap(), "p{p}");
        }
        assert_eq!(nearest_rank(&[], 50.0), 0);
    }

    #[test]
    fn float_rank_equals_the_integer_ceiling_form() {
        // `ceil(p/100 · n)` in f64 and `(p · n).div_ceil(100)` in integers
        // pick the same rank at every percentile reports print.
        let sorted: Vec<u64> = (0..2_000).collect();
        for n in 1..=sorted.len() {
            for p in [50u64, 75, 90, 95, 99] {
                let rank = (p * n as u64).div_ceil(100).max(1);
                assert_eq!(nearest_rank(&sorted[..n], p as f64), rank - 1, "n={n} p{p}");
            }
        }
    }

    #[test]
    fn duplicates_weight_the_walk() {
        let mut h = Histogram::new();
        for v in [1, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(50.0), Some(1));
        assert_eq!(h.quantile(90.0), Some(1));
        assert_eq!(h.quantile(91.0), Some(100));
    }

    #[test]
    fn merge_is_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1, 5, 5, 9] {
            a.record(v);
            all.record(v);
        }
        for v in [2, 5, 100] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 7);
        assert_eq!(a.mean(), all.mean());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(7);
        let orig = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, orig);
        let mut empty = Histogram::new();
        empty.merge(&orig);
        assert_eq!(empty, orig);
    }

    #[test]
    fn summary_json_is_complete_even_when_empty() {
        let v = Histogram::new().summary_json();
        for key in ["count", "min", "max", "mean", "p50", "p95", "p99"] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }
}
