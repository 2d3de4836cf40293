//! The benchmark's own statistics. They live here, not in a workspace crate,
//! so that a change under test cannot change how it is measured.

/// Nearest-rank percentile: the smallest sample with at least `p` % of all
/// samples at or below it.
///
/// # Panics
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let n = samples.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    let mut v = samples.to_vec();
    *v.select_nth_unstable_by(rank.clamp(1, n) - 1, f64::total_cmp)
        .1
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile —
/// the tail a percentile rests on (at least ten make it meaningful).
pub fn beyond(n: usize, p: f64) -> usize {
    n - (p / 100.0 * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here as in
/// any script that checks them. A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty sample set.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median, as [`quartiles`] computes it.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn rel_spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// FNV-1a, for fingerprinting simulated outputs that must repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, by sorting: the `ceil(p/100·n)`-th smallest sample.
    fn sort_oracle(samples: &[f64], p: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let mut rank = 1;
        while (rank as f64) < p / 100.0 * v.len() as f64 {
            rank += 1;
        }
        v[rank.min(v.len()) - 1]
    }

    #[test]
    fn percentile_matches_sort_oracle() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in 1..=130 {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 1000) as f64 / 7.0
                })
                .collect();
            for p in [0.0, 1.0, 10.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&samples, p),
                    sort_oracle(&samples, p),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn tail_rule_counts_samples_beyond_the_percentile() {
        // p90 of 100 samples is the 90th smallest: ten lie beyond it.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1, 90.0), 0);
        for n in 1..300 {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p90 = percentile(&samples, 90.0);
            let above = samples.iter().filter(|&&s| s > p90).count();
            assert_eq!(beyond(n, 90.0), above, "n={n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[7.0]), 7.0);
    }
}
