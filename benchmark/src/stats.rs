//! The estimators: floor time over sliced repetitions, percentiles, and
//! the quartiles printed beside every floor.

/// The floor-time estimator.
///
/// Host noise on a shared sandbox is one-sided (a slice can only be
/// slowed, by a neighbour or a host interrupt, never sped up) and comes
/// in bursts shorter than a repetition. So every repetition is cut into
/// fixed simulated-cycle slices, each slice index keeps the **minimum**
/// wall time seen over all repetitions, and the floor time is the sum
/// of those minima: the time of a repetition in which no slice was
/// disturbed.
#[derive(Debug, Clone, Default)]
pub struct SliceFloors {
    min_ns: Vec<u64>,
}

impl SliceFloors {
    /// No samples yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that slice `index` took `ns` in some repetition. Slices
    /// must arrive without gaps (index at most the current count).
    ///
    /// # Panics
    ///
    /// Panics on a gap — a repetition that skipped a slice is a bug.
    pub fn record(&mut self, index: usize, ns: u64) {
        match index.cmp(&self.min_ns.len()) {
            std::cmp::Ordering::Less => self.min_ns[index] = self.min_ns[index].min(ns),
            std::cmp::Ordering::Equal => self.min_ns.push(ns),
            std::cmp::Ordering::Greater => panic!("slice {index} recorded before its predecessor"),
        }
    }

    /// The floor time: the sum over slice indices of the minimum.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.min_ns.iter().sum()
    }

    /// The per-slice minima, in slice order.
    #[must_use]
    pub fn per_slice_ns(&self) -> &[u64] {
        &self.min_ns
    }
}

/// The `q`-quantile (`0.0..=1.0`) of ascending `sorted`, interpolating
/// linearly between order statistics. 0 for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let frac = rank - below as f64;
    match sorted.get(below + 1) {
        Some(&next) => sorted[below] + (next - sorted[below]) * frac,
        None => last,
    }
}

/// `values` sorted ascending (NaN-free by construction in this crate).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (any order).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The smallest of `values`; infinity for none.
#[must_use]
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nanoseconds as milliseconds.
#[must_use]
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `samples` samples beyond it; 50 when none has.
#[must_use]
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(samples, p) >= 10)
        .unwrap_or(TAIL_LADDER[0])
}

/// How many of `samples` samples lie beyond percentile `p` (counted in
/// tenths of a percent, so 99.9 is exact).
#[must_use]
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    let beyond_per_mille = ((100.0 - p) * 10.0).round().max(0.0) as usize;
    samples * beyond_per_mille / 1000
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method) — the routine the acceptance driver judges spreads with.
/// `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_time_is_the_sum_of_per_slice_minima() {
        let mut f = SliceFloors::new();
        // Three repetitions of a three-slice run; each repetition has
        // one disturbed slice, a different one each time.
        for rep in [[10, 50, 30], [40, 20, 30], [10, 20, 90]] {
            for (i, ns) in rep.into_iter().enumerate() {
                f.record(i, ns);
            }
        }
        assert_eq!(f.per_slice_ns(), [10, 20, 30]);
        assert_eq!(f.total_ns(), 60);
    }

    #[test]
    #[should_panic(expected = "before its predecessor")]
    fn floor_time_rejects_a_gap() {
        SliceFloors::new().record(1, 5);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 300 jobs: p95 leaves 15 beyond, p99 only 3.
        assert_eq!(tail_percentile(300), 95.0);
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
