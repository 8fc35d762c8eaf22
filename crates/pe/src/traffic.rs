//! Open-loop traffic generators for the §4 network experiments.
//!
//! The analytic model of §4.1 assumes "requests are generated at each PE by
//! independent identically distributed time-invariant random processes" and
//! "MMs are equally likely to be referenced" — that is exactly
//! [`UniformTraffic`]: each cycle, each PE emits a request with probability
//! `p`, directed at a uniformly random MM.
//!
//! [`HotspotTraffic`] adds a tunable fraction of requests aimed at one
//! shared word — the situation combining exists to survive (experiment E6).

use ultra_net::message::{MsgKind, PhiOp};
use ultra_sim::{MemAddr, MmId, PeId, Rng, SplitMix64, Value};

/// One request a generator wants a PE to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Function indicator.
    pub kind: MsgKind,
    /// Destination word.
    pub addr: MemAddr,
    /// Store datum / fetch operand.
    pub value: Value,
}

/// A per-PE stochastic request source.
pub trait TrafficPattern {
    /// Returns the request PE `pe` should issue this cycle, if any.
    fn generate(&mut self, pe: PeId) -> Option<RequestSpec>;

    /// The offered load in messages per PE per cycle (the analytic `p`).
    fn intensity(&self) -> f64;
}

/// Bernoulli(p) arrivals, uniform destination, configurable mix of loads
/// and stores.
///
/// # Example
///
/// ```
/// use ultra_pe::traffic::{TrafficPattern, UniformTraffic};
/// use ultra_sim::PeId;
///
/// let mut t = UniformTraffic::new(16, 0.25, 0.5, 7);
/// let mut emitted = 0;
/// for _ in 0..1000 {
///     if t.generate(PeId(0)).is_some() {
///         emitted += 1;
///     }
/// }
/// assert!(emitted > 150 && emitted < 350, "roughly p = 0.25");
/// ```
#[derive(Debug, Clone)]
pub struct UniformTraffic {
    n_mms: usize,
    p: f64,
    load_fraction: f64,
    rng: SplitMix64,
}

impl UniformTraffic {
    /// Creates a generator over `n_mms` modules with per-cycle emission
    /// probability `p`; a `load_fraction` of requests are loads, the rest
    /// stores.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`, `0 <= load_fraction <= 1`, and
    /// `n_mms > 0`.
    #[must_use]
    pub fn new(n_mms: usize, p: f64, load_fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(
            (0.0..=1.0).contains(&load_fraction),
            "load_fraction must be a probability"
        );
        assert!(n_mms > 0, "need at least one MM");
        Self {
            n_mms,
            p,
            load_fraction,
            rng: SplitMix64::new(seed),
        }
    }
}

impl TrafficPattern for UniformTraffic {
    fn generate(&mut self, pe: PeId) -> Option<RequestSpec> {
        if !self.rng.chance(self.p) {
            return None;
        }
        let mm = MmId(self.rng.below(self.n_mms));
        let offset = self.rng.below(1024);
        let kind = if self.rng.chance(self.load_fraction) {
            MsgKind::Load
        } else {
            MsgKind::Store
        };
        Some(RequestSpec {
            kind,
            addr: MemAddr::new(mm, offset),
            value: pe.0 as Value,
        })
    }

    fn intensity(&self) -> f64 {
        self.p
    }
}

/// Uniform background traffic plus a `hot_fraction` of fetch-and-adds aimed
/// at one word.
#[derive(Debug, Clone)]
pub struct HotspotTraffic {
    uniform: UniformTraffic,
    hot_fraction: f64,
    hot_addr: MemAddr,
    rng: SplitMix64,
}

impl HotspotTraffic {
    /// Creates a generator in which each emitted request targets
    /// `hot_addr` with a fetch-and-add with probability `hot_fraction`,
    /// otherwise behaves like [`UniformTraffic`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= hot_fraction <= 1` (and see
    /// [`UniformTraffic::new`]).
    #[must_use]
    pub fn new(n_mms: usize, p: f64, hot_fraction: f64, hot_addr: MemAddr, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction must be a probability"
        );
        Self {
            uniform: UniformTraffic::new(n_mms, p, 1.0, seed),
            hot_fraction,
            hot_addr,
            rng: SplitMix64::new(seed ^ 0xdead_beef),
        }
    }
}

impl TrafficPattern for HotspotTraffic {
    fn generate(&mut self, pe: PeId) -> Option<RequestSpec> {
        let base = self.uniform.generate(pe)?;
        if self.rng.chance(self.hot_fraction) {
            Some(RequestSpec {
                kind: MsgKind::FetchPhi(PhiOp::Add),
                addr: self.hot_addr,
                value: 1,
            })
        } else {
            Some(base)
        }
    }

    fn intensity(&self) -> f64 {
        self.uniform.intensity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_intensity_calibrated() {
        let mut t = UniformTraffic::new(64, 0.1, 0.5, 42);
        let hits = (0..100_000)
            .filter(|_| t.generate(PeId(1)).is_some())
            .count();
        assert!((8_000..12_000).contains(&hits), "hits = {hits}");
        assert!((t.intensity() - 0.1).abs() < f64::EPSILON);
    }

    #[test]
    fn uniform_spreads_over_all_mms() {
        let mut t = UniformTraffic::new(16, 1.0, 0.5, 3);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            let r = t.generate(PeId(0)).unwrap();
            seen[r.addr.mm.0] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn load_fraction_respected() {
        let mut t = UniformTraffic::new(16, 1.0, 1.0, 5);
        for _ in 0..100 {
            assert_eq!(t.generate(PeId(0)).unwrap().kind, MsgKind::Load);
        }
        let mut t = UniformTraffic::new(16, 1.0, 0.0, 5);
        for _ in 0..100 {
            assert_eq!(t.generate(PeId(0)).unwrap().kind, MsgKind::Store);
        }
    }

    #[test]
    fn hotspot_fraction_targets_hot_word() {
        let hot = MemAddr::new(MmId(3), 0);
        let mut t = HotspotTraffic::new(16, 1.0, 0.25, hot, 9);
        let mut hot_hits = 0;
        for _ in 0..10_000 {
            let r = t.generate(PeId(0)).unwrap();
            if r.addr == hot {
                assert_eq!(r.kind, MsgKind::FetchPhi(PhiOp::Add));
                hot_hits += 1;
            }
        }
        assert!((2_000..3_000).contains(&hot_hits), "hot_hits = {hot_hits}");
    }

    #[test]
    fn zero_hot_fraction_degenerates_to_uniform() {
        let hot = MemAddr::new(MmId(3), 0);
        let mut t = HotspotTraffic::new(16, 1.0, 0.0, hot, 9);
        for _ in 0..1000 {
            let r = t.generate(PeId(0)).unwrap();
            assert_eq!(r.kind, MsgKind::Load);
        }
    }
}
