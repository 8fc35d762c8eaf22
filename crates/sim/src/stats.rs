//! Counters and the one histogram used throughout the simulator.
//!
//! Every reported quantity in `EXPERIMENTS.md` (average memory access time,
//! idle-cycle percentages, latency distributions, queue occupancy) is
//! accumulated with the types here.

use core::fmt;

use crate::heap::vec_bytes;

/// A simple event counter.
///
/// # Example
///
/// ```
/// use ultra_sim::stats::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one to the counter.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Returns the current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// An exact histogram over `u64` observations with linear bins below a
/// threshold and power-of-two bins above, plus exact count/mean.
///
/// Designed for latency distributions: the interesting region (a few dozen
/// cycles) is exact, and heavy tails are still captured.
///
/// # Example
///
/// ```
/// use ultra_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(4);
/// h.record(4);
/// h.record(100);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.percentile(50.0), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Exact bins for values `0..LINEAR_BINS`.
    linear: Vec<u64>,
    /// Power-of-two bins for larger values: bin `i` holds
    /// `[LINEAR_BINS << i, LINEAR_BINS << (i+1))`.
    log: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

const LINEAR_BINS: u64 = 256;

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the bins occupy.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.linear) + vec_bytes(&self.log)
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
        if v < LINEAR_BINS {
            if self.linear.len() <= v as usize {
                self.linear.resize(v as usize + 1, 0);
            }
            self.linear[v as usize] += 1;
        } else {
            let bin = (64 - (v / LINEAR_BINS).leading_zeros() - 1) as usize;
            if self.log.len() <= bin {
                self.log.resize(bin + 1, 0);
            }
            self.log[bin] += 1;
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the observations (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observation (0 if empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Cumulative `(upper_edge, count_at_or_below)` buckets, ascending,
    /// at power-of-two edges (`0, 1, 3, 7, … 255`, then the log bins'
    /// upper edges `511, 1023, …`).
    ///
    /// Every edge coincides with a bin boundary, so each count is
    /// *exact*: `count_at_or_below` equals the number of recorded values
    /// `<= upper_edge`. Emission stops at the first edge covering every
    /// observation (the last pair's count equals [`Histogram::count`]);
    /// an empty histogram yields no buckets. This is the
    /// Prometheus-`le` view of the histogram used by the service
    /// metrics exposition.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut cumulative = 0u64;
        // Power-of-two edges through the exact linear region: the edge
        // 2^k - 1 closes over linear values 0..=2^k - 1.
        let mut next = 0usize;
        for k in 0..=8u32 {
            let le = (1u64 << k) - 1;
            while next < self.linear.len() && (next as u64) <= le {
                cumulative += self.linear[next];
                next += 1;
            }
            out.push((le, cumulative));
            if cumulative == self.count {
                return out;
            }
        }
        for (bin, &c) in self.log.iter().enumerate() {
            cumulative += c;
            out.push(((LINEAR_BINS << (bin + 1)) - 1, cumulative));
            if cumulative == self.count {
                return out;
            }
        }
        out
    }

    /// Value at or below which `p` percent of observations fall.
    ///
    /// Exact below 256; above, the matching power-of-two bin's *upper*
    /// edge, clamped to the observed maximum. A bucketed percentile may
    /// therefore overstate by at most the bin width but never understates
    /// the tail: `percentile(100.0) == max()`, and the result is monotone
    /// in `p`. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 100.0`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (v, &c) in self.linear.iter().enumerate() {
            seen += c;
            if seen >= target {
                return v as u64;
            }
        }
        for (bin, &c) in self.log.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper edge of `[256<<bin, 256<<(bin+1))`; the observed
                // max bounds the highest occupied bin from above.
                let upper = (LINEAR_BINS << (bin + 1)) - 1;
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median — [`Histogram::percentile`] at 50.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile — [`Histogram::percentile`] at 90.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile — [`Histogram::percentile`] at 99.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.linear.len() < other.linear.len() {
            self.linear.resize(other.linear.len(), 0);
        }
        for (a, b) in self.linear.iter_mut().zip(&other.linear) {
            *a += b;
        }
        if self.log.len() < other.log.len() {
            self.log.resize(other.log.len(), 0);
        }
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 13.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(50.0), 2);
        assert_eq!(h.percentile(100.0), 3);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn histogram_large_values_go_to_log_bins() {
        let mut h = Histogram::new();
        h.record(300);
        h.record(5000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 5000);
        // p50 falls in the first log bin [256, 512); its upper edge is 511.
        assert_eq!(h.percentile(50.0), 511);
        // p100 is always the exact observed maximum.
        assert_eq!(h.percentile(100.0), 5000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(Histogram::new().percentile(99.0), 0);
    }

    #[test]
    fn named_percentiles_on_uniform_distribution() {
        // 1..=100 once each: the p-th percentile is exactly p.
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p90(), 90);
        assert_eq!(h.p99(), 99);
    }

    #[test]
    fn named_percentiles_on_skewed_distribution() {
        // 99 fast observations and one slow outlier: the tail percentile
        // sees the outlier's bin, the median does not.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(10_000);
        assert_eq!(h.p50(), 4);
        assert_eq!(h.p90(), 4);
        assert_eq!(h.p99(), 4);
        // 10_000 lands in the [8192, 16384) log bin; the percentile clamps
        // the bin's upper edge to the observed maximum.
        assert_eq!(h.percentile(100.0), 10_000);
    }

    #[test]
    fn named_percentiles_on_constant_distribution() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(17);
        }
        assert_eq!(h.p50(), 17);
        assert_eq!(h.p90(), 17);
        assert_eq!(h.p99(), 17);
    }

    /// Deterministic pseudo-random value stream for the property tests:
    /// an xorshift walk shaped so values cover linear bins, several log
    /// bins, and the extremes.
    fn property_values(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Spread across ~2^(0..34) so both bin regimes are hit.
                let shift = (x >> 58) % 34;
                (x >> 30) >> (33 - shift)
            })
            .collect()
    }

    #[test]
    fn percentile_100_is_exact_max_property() {
        for seed in 1..=20u64 {
            let mut h = Histogram::new();
            let mut true_max = 0;
            for v in property_values(seed * 0x9e37, 500) {
                h.record(v);
                true_max = true_max.max(v);
            }
            assert_eq!(h.percentile(100.0), true_max, "seed {seed}");
            assert_eq!(h.percentile(100.0), h.max(), "seed {seed}");
        }
    }

    #[test]
    fn percentile_is_monotone_in_p_property() {
        for seed in 1..=20u64 {
            let mut h = Histogram::new();
            for v in property_values(seed * 0x517c, 300) {
                h.record(v);
            }
            let mut prev = 0;
            for p in 0..=100 {
                let q = h.percentile(f64::from(p));
                assert!(
                    q >= prev,
                    "seed {seed}: percentile({p}) = {q} < percentile({}) = {prev}",
                    p - 1
                );
                prev = q;
            }
        }
    }

    #[test]
    fn percentile_never_understates_never_exceeds_max() {
        // Every percentile of a bucketed histogram must be >= the exact
        // percentile of the raw data (tail-safe) and <= the observed max.
        for seed in 1..=10u64 {
            let mut h = Histogram::new();
            let mut raw = property_values(seed * 0xabcd, 400);
            for &v in &raw {
                h.record(v);
            }
            raw.sort_unstable();
            for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                let target = ((p / 100.0) * raw.len() as f64).ceil().max(1.0) as usize;
                let exact = raw[target - 1];
                let q = h.percentile(p);
                assert!(
                    q >= exact,
                    "seed {seed} p{p}: {q} understates exact {exact}"
                );
                assert!(q <= h.max(), "seed {seed} p{p}: {q} exceeds max");
            }
        }
    }

    #[test]
    fn cumulative_buckets_are_exact_at_every_edge() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 7, 8, 300, 5000] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        // Edges partition at bin boundaries, so each count is exact.
        assert_eq!(buckets[0], (0, 1)); // v=0
        assert_eq!(buckets[1], (1, 3)); // + two 1s
        assert_eq!(buckets[3], (7, 4)); // + the 7
        assert_eq!(buckets[4], (15, 5)); // + the 8
        assert_eq!(buckets[8], (255, 5)); // nothing else below 256
        assert_eq!(buckets[9], (511, 6)); // + the 300
                                          // Emission stops once every observation is covered.
        let &(last_le, last_c) = buckets.last().unwrap();
        assert_eq!(last_c, h.count());
        assert!(last_le >= h.max());
        assert!(h.sum() == 5317);
    }

    #[test]
    fn cumulative_buckets_empty_and_monotone() {
        assert!(Histogram::new().cumulative_buckets().is_empty());
        let mut h = Histogram::new();
        for v in property_values(0x7777, 300) {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        let mut prev_le = None;
        let mut prev_c = 0;
        for &(le, c) in &buckets {
            if let Some(p) = prev_le {
                assert!(le > p, "edges must ascend");
            }
            assert!(c >= prev_c, "counts must be cumulative");
            prev_le = Some(le);
            prev_c = c;
        }
        assert_eq!(prev_c, h.count());
    }

    #[test]
    fn merge_then_percentile_matches_recording_everything_once() {
        for seed in 1..=10u64 {
            let values = property_values(seed * 0x2545, 600);
            let mut whole = Histogram::new();
            for &v in &values {
                whole.record(v);
            }
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for (i, &v) in values.iter().enumerate() {
                if i % 3 == 0 {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            a.merge(&b);
            assert_eq!(a, whole, "seed {seed}: merge must be exact");
            for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(a.percentile(p), whole.percentile(p), "seed {seed} p{p}");
            }
            assert_eq!(a.percentile(100.0), whole.max(), "seed {seed}");
        }
    }
}
