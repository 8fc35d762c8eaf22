//! Deterministic pseudo-random number generation.
//!
//! The simulator must produce bit-identical traces for a given seed so that
//! every experiment in `EXPERIMENTS.md` can be regenerated exactly. To avoid
//! depending on the streaming behaviour of external crates (which may change
//! between versions) this module implements one tiny, well-known generator:
//! [`SplitMix64`], Steele, Lea & Flood's 64-bit mixer. It is not
//! cryptographic, and more than adequate for the queueing-simulation
//! purposes here.

use core::ops::Range;

use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// A deterministic source of pseudo-random numbers.
///
/// All simulator components draw randomness through this trait so that the
/// generator can be swapped in tests. The provided methods derive bounded
/// integers, floats and Bernoulli draws from the raw 64-bit output.
///
/// # Example
///
/// ```
/// use ultra_sim::rng::{Rng, SplitMix64};
///
/// let mut rng = SplitMix64::new(7);
/// let x = rng.range_u64(10..20);
/// assert!((10..20).contains(&x));
/// ```
pub trait Rng {
    /// Returns the next raw 64-bit pseudo-random value.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed value in `range`.
    ///
    /// Uses Lemire-style multiply-shift rejection-free mapping, which is
    /// negligibly biased for the small ranges used by the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    fn range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        let x = self.next_u64();
        // 128-bit multiply-high maps x uniformly onto [0, span).
        let hi = ((u128::from(x) * u128::from(span)) >> 64) as u64;
        range.start + hi
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn below(&mut self, bound: usize) -> usize {
        self.range_u64(0..bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffles `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

/// SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014).
///
/// Tiny state, excellent mixing, period 2⁶⁴. This is the default generator
/// for all simulator decisions.
///
/// # Example
///
/// ```
/// use ultra_sim::rng::{Rng, SplitMix64};
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including zero) is
    /// acceptable.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent child generator; used to give each PE its own
    /// stream without correlation.
    #[must_use]
    pub fn split(&mut self) -> Self {
        Self::new(self.next_u64() ^ 0x9e37_79b9_7f4a_7c15)
    }
}

impl Wire for SplitMix64 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.state);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self { state: r.u64()? })
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 0 from the public-domain C reference.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = SplitMix64::new(123);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ() {
        let mut parent = SplitMix64::new(5);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let v = rng.range_u64(17..42);
            assert!((17..42).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values_of_small_span() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SplitMix64::new(0);
        let _ = rng.range_u64(5..5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SplitMix64::new(8);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn generators_round_trip_through_wire() {
        let mut sm = SplitMix64::new(3);
        let _ = sm.next_u64(); // advance off the seed
        let mut w = WireWriter::new();
        sm.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut sm2 = SplitMix64::decode(&mut r).unwrap();
        assert_eq!(sm.next_u64(), sm2.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(21);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
