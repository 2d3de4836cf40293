//! Exact streaming histograms over bounded `u64` domains.
//!
//! The MOCHA simulators sample *cycle counts* — bounded, discrete values
//! with heavy repetition (group latencies, queue waits). A value→count map
//! therefore stays small while remaining **exact**: quantiles are computed
//! by nearest-rank walk over the sorted (by construction) counts, so they
//! match a sort-based oracle bit for bit on any input. No buckets, no
//! approximation error, no sample retention.

use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Merges another histogram into this one, as if every sample recorded
    /// into `other` had been recorded here instead. Because the
    /// representation is an exact value→count map, merge-then-quantile
    /// equals quantile over the concatenated sample sets bit for bit — the
    /// property that makes shard/batch snapshot aggregation lossless.
    pub fn merge(&mut self, other: &Histogram) {
        for (&value, &n) in &other.counts {
            *self.counts.entry(value).or_insert(0) += n;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
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
    /// empty, so snapshots always have a defined shape).
    pub fn summary_json(&self) -> mocha_json::Value {
        mocha_json::jobj! {
            "count" => self.count(),
            "min" => self.min().unwrap_or(0),
            "max" => self.max().unwrap_or(0),
            "mean" => self.mean(),
            "p50" => self.p50(),
            "p95" => self.p95(),
            "p99" => self.p99(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
