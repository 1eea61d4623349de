//! Mergeable histograms over the fixed log-bucket grid.
//!
//! A [`LogHistogram`] is a vector of integer counts over the
//! [`pdm_linalg::logbucket`] grid (four buckets per octave, upper edges at
//! `2^(k/4)`).  Because every instance shares the same edges, merging two
//! histograms is element-wise `u64` addition — exact, associative, and
//! commutative — so any fold order over any number of workers produces the
//! same counts, and quantile estimates read off the merged counts are
//! deterministic — unlike a sampled ring window, which evicts, so merges
//! lose samples.  `pdm-service` records its per-request latency here for
//! that reason.

use pdm_linalg::logbucket::{bucket_index, quantile_rank, BUCKETS, UPPER_EDGES};

/// A histogram of `u64` observations (nanoseconds, item counts) over the
/// fixed base-2^(1/4) grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    /// Sum of raw observed values; `u128` so pathological inputs cannot
    /// silently wrap.
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations in one fold.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Adds another histogram's counts into this one — an exact integer
    /// fold over the shared grid.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether anything has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of the raw observed values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Sum of the raw observed values as `f64` (for exposition).
    #[must_use]
    pub fn sum_f64(&self) -> f64 {
        self.sum as f64
    }

    /// Mean observed value, `0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The per-bucket counts over the full grid.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(upper_edge, count)` for every non-empty bucket, in edge order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(k, &count)| (UPPER_EDGES[k], count))
    }

    /// Deterministic quantile estimate: the upper edge of the bucket holding
    /// the `ceil(q · count)`-th ordered observation, or `None` when empty.
    /// The estimate overshoots the true value by at most one bucket ratio
    /// (2^(1/4) ≈ +19%) and, being a pure function of the integer counts, is
    /// identical however the histogram was assembled.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = quantile_rank(self.total, q);
        let mut seen = 0u64;
        for (k, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(UPPER_EDGES[k] as f64);
            }
        }
        Some(UPPER_EDGES[BUCKETS - 1] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_merge_and_count_are_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(100);
        a.record_n(1_000, 3);
        b.record(100);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum(), 100 + 3 * 1_000 + 100);
        let direct: Vec<_> = merged.nonzero_buckets().collect();
        assert_eq!(direct.len(), 2);
        assert_eq!(direct[0].1, 2, "both 100s share a bucket");
    }

    #[test]
    fn quantiles_are_upper_edges_and_monotone() {
        let mut h = LogHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 >= 500.0, "upper-edge estimate never undershoots");
        assert!(p50 <= 500.0 * 1.19, "at most one bucket ratio over");
        assert!(p99 >= p50);
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn zero_observations_land_in_the_first_bucket() {
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.nonzero_buckets().next(), Some((1, 1)));
        assert_eq!(h.quantile(0.5), Some(1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        fn merge_is_associative_and_commutative(
            seed_a in 0u64..u64::MAX,
            seed_b in 0u64..u64::MAX,
            seed_c in 0u64..u64::MAX,
        ) {
            // Three histograms of pseudo-random values (SplitMix over the
            // seeds); the fold order must not matter, bucket for bucket.
            let fill = |seed: u64| {
                let mut h = LogHistogram::new();
                let mut state = seed;
                for _ in 0..50 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    h.record(state >> 16);
                }
                h
            };
            let (a, b, c) = (fill(seed_a), fill(seed_b), fill(seed_c));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut right_tail = b.clone();
            right_tail.merge(&c);
            let mut right = a.clone();
            right.merge(&right_tail);
            prop_assert_eq!(&left, &right);
            let mut flipped = b.clone();
            flipped.merge(&a);
            flipped.merge(&c);
            prop_assert_eq!(&left, &flipped);
            prop_assert_eq!(left.quantile(0.99), right.quantile(0.99));
        }
    }
}
