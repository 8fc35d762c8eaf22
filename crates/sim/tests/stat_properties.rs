//! Property tests for the statistics substrate: the histogram must
//! agree with naive reference computations on arbitrary inputs, and the
//! RNG must be a well-behaved uniform source.
//!
//! The cases are driven by the crate's own deterministic [`SplitMix64`]
//! rather than an external property-testing framework: every run explores
//! the same inputs, so a failure is reproducible from the case index alone.

use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::stats::Histogram;

/// Runs `f` against `cases` independent deterministic RNG streams.
fn forall(cases: u64, label: &str, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(0xC0FF_EE00 ^ (case.wrapping_mul(0x9e37_79b9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{label}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

fn vec_u64(rng: &mut SplitMix64, bound: u64, min_len: usize, max_len: usize) -> Vec<u64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| rng.range_u64(0..bound)).collect()
}

#[test]
fn histogram_mean_count_max_are_exact() {
    forall(128, "histogram_mean_count_max_are_exact", |rng| {
        let values = vec_u64(rng, 100_000, 1, 300);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((h.mean() - mean).abs() < 1e-9 * (1.0 + mean));
    });
}

#[test]
fn histogram_percentile_exact_below_256() {
    forall(128, "histogram_percentile_exact_below_256", |rng| {
        let values = vec_u64(rng, 256, 1, 300);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &p in &[0.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            assert_eq!(h.percentile(p), sorted[rank], "p = {p}");
        }
    });
}

#[test]
fn percentiles_are_monotone() {
    forall(128, "percentiles_are_monotone", |rng| {
        let values = vec_u64(rng, 1_000_000, 1, 200);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p);
            assert!(q >= last);
            last = q;
        }
    });
}

#[test]
fn histogram_percentile_100_equals_max() {
    forall(128, "histogram_percentile_100_equals_max", |rng| {
        // Mix small exact values with deep log-bin tails: the top
        // percentile must always be the exact observed maximum, never a
        // power-of-two bin edge.
        let bound = 1u64 << (2 + rng.below(40) as u32);
        let values = vec_u64(rng, bound, 1, 300);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.percentile(100.0), *values.iter().max().unwrap());
        assert_eq!(h.percentile(100.0), h.max());
    });
}

#[test]
fn histogram_percentile_never_understates() {
    forall(128, "histogram_percentile_never_understates", |rng| {
        // Bucketing may round a percentile up (to the bin's upper edge)
        // but must never report below the exact order statistic — a
        // tail-latency report that understates is the failure mode the
        // upper-edge semantics exist to rule out.
        let values = vec_u64(rng, 1 << 20, 1, 250);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &p in &[1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            let q = h.percentile(p);
            assert!(q >= sorted[rank], "p{p}: {q} < exact {}", sorted[rank]);
            assert!(q <= h.max(), "p{p}: {q} above max {}", h.max());
        }
    });
}

#[test]
fn histogram_merge_then_percentile_consistent() {
    forall(128, "histogram_merge_then_percentile_consistent", |rng| {
        let values = vec_u64(rng, 1 << 24, 2, 300);
        let cut = rng.below(values.len() + 1);
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < cut {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        for &p in &[0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p = {p}");
        }
        assert_eq!(a.percentile(100.0), whole.max());
    });
}

#[test]
fn histogram_cumulative_buckets_match_reference_counts() {
    forall(
        128,
        "histogram_cumulative_buckets_match_reference_counts",
        |rng| {
            // Every bucket edge coincides with a bin boundary, so the
            // cumulative count at each edge must be *exactly* the number of
            // raw values at or below it — and merging preserves that.
            let values = vec_u64(rng, 1 << 22, 1, 300);
            let cut = rng.below(values.len() + 1);
            let mut whole = Histogram::new();
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                if i < cut {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            a.merge(&b);
            let buckets = whole.cumulative_buckets();
            assert!(!buckets.is_empty());
            assert_eq!(a.cumulative_buckets(), buckets);
            let mut prev_le = None;
            for &(le, c) in &buckets {
                let exact = values.iter().filter(|&&v| v <= le).count() as u64;
                assert_eq!(c, exact, "le = {le}");
                if let Some(p) = prev_le {
                    assert!(le > p, "edges must ascend");
                }
                prev_le = Some(le);
            }
            let &(last_le, last_c) = buckets.last().unwrap();
            assert_eq!(last_c, whole.count());
            assert!(last_le >= whole.max());
            assert_eq!(
                whole.sum(),
                values.iter().map(|&v| u128::from(v)).sum::<u128>()
            );
        },
    );
}

#[test]
fn rng_below_is_roughly_uniform() {
    forall(64, "rng_below_is_roughly_uniform", |rng| {
        let seed = rng.next_u64();
        let bound = 2 + rng.below(30);
        let mut rng = SplitMix64::new(seed);
        let draws = 8_000;
        let mut counts = vec![0u32; bound];
        for _ in 0..draws {
            counts[rng.below(bound)] += 1;
        }
        let expect = f64::from(draws) / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (f64::from(c) - expect).abs() < 6.0 * expect.sqrt() + 10.0,
                "bucket {i} count {c} far from {expect}"
            );
        }
    });
}

#[test]
fn generators_are_deterministic_and_distinct() {
    forall(64, "generators_are_deterministic_and_distinct", |rng| {
        let seed = rng.next_u64();
        let mut a1 = SplitMix64::new(seed);
        let mut a2 = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed).split();
        for _ in 0..64 {
            assert_eq!(a1.next_u64(), a2.next_u64());
        }
        // A split child stream must not mirror its parent.
        let mut a3 = SplitMix64::new(seed);
        let same = (0..64).filter(|_| a3.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    });
}
