//! Virtual→physical address translation with MM-spreading hash (§3.1.4).
//!
//! "A potential serial bottleneck is the memory module itself. If every PE
//! simultaneously requests a distinct word from the same MM, these N
//! requests are serviced one at a time. However, introducing a hashing
//! function when translating the virtual address to a physical address,
//! assures that this unfavorable situation occurs with probability
//! approaching zero as N increases."
//!
//! Two translation modes are provided:
//!
//! * [`TranslationMode::Interleaved`] — classic low-order interleaving
//!   (`mm = addr mod N`). Simple, but strided access patterns with stride a
//!   multiple of `N` pound a single module.
//! * [`TranslationMode::Hashed`] — the paper's remedy: the module number is
//!   a mix of all address bits, so any fixed stride spreads across modules.
//!
//! Both translations are injective (distinct virtual words never collide on
//! the same physical word), which the property tests verify.
//!
//! # Degraded mode (dead memory modules)
//!
//! The §4.1 fault model lets whole MMs die; the machine keeps running by
//! re-hashing around them. When the hasher carries a non-empty dead set,
//! any word whose healthy translation lands on a dead module is *remapped*
//! onto a live module, into a reserved offset region disjoint from all
//! healthy offsets ([`REMAP_BASE`]), keeping the full translation
//! injective. With an empty dead set the remap layer is structurally
//! absent and translation is bit-identical to the healthy hasher.

use ultra_sim::heap::vec_bytes;
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{MemAddr, MmId};

/// First offset of the reserved region that remapped (dead-module) words
/// occupy on their adoptive live module. Healthy offsets are `vaddr / N`,
/// far below this for any realistic address space (the machine's reserved
/// barrier words sit at `2^40`), so remapped words can never collide with
/// native ones.
pub const REMAP_BASE: usize = 1 << 50;

/// How virtual word addresses map onto `(module, offset)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TranslationMode {
    /// `mm = addr mod N`, `offset = addr div N`.
    Interleaved,
    /// `mm = mix(addr) mod N`, `offset = addr div N` — the §3.1.4 hash.
    /// The offset keeps a module-local slot per `addr div N` *group*, and
    /// within a group the mix permutes which module each word lands on.
    #[default]
    Hashed,
}

impl Wire for TranslationMode {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            Self::Interleaved => 0,
            Self::Hashed => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::Interleaved,
            1 => Self::Hashed,
            _ => return Err(WireError::Invalid("translation mode tag")),
        })
    }
}

/// Translates flat virtual word addresses to physical [`MemAddr`]s.
///
/// # Example
///
/// ```
/// use ultra_mem::hash::{AddressHasher, TranslationMode};
///
/// let h = AddressHasher::new(64, TranslationMode::Hashed);
/// let a = h.translate(1000);
/// let b = h.translate(1001);
/// assert_ne!((a.mm, a.offset), (b.mm, b.offset));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressHasher {
    n_mms: usize,
    mode: TranslationMode,
    /// `dead_rank[mm] = Some(r)` iff module `mm` is dead and is the
    /// `r`-th dead module in ascending order. Empty when healthy.
    dead_rank: Vec<Option<usize>>,
    /// Live module indices, ascending. Empty when healthy (all live).
    live: Vec<usize>,
}

impl AddressHasher {
    /// Creates a translator over `n_mms` modules (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n_mms` is not a positive power of two.
    #[must_use]
    pub fn new(n_mms: usize, mode: TranslationMode) -> Self {
        assert!(
            n_mms.is_power_of_two(),
            "module count must be a power of two"
        );
        Self {
            n_mms,
            mode,
            dead_rank: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Heap bytes this translator owns (none while every module lives).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.dead_rank) + vec_bytes(&self.live)
    }

    /// Switches the hasher into degraded mode: words whose healthy
    /// translation lands on a module in `dead` are remapped onto live
    /// modules (round-robin by dead rank) in the [`REMAP_BASE`] offset
    /// region. Passing an empty set restores exact healthy translation.
    ///
    /// # Panics
    ///
    /// Panics if every module is dead or a dead index is out of range.
    pub fn set_dead_mms(&mut self, dead: &[MmId]) {
        if dead.is_empty() {
            self.dead_rank = Vec::new();
            self.live = Vec::new();
            return;
        }
        let mut rank = vec![None; self.n_mms];
        let mut sorted: Vec<usize> = dead.iter().map(|m| m.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        for (r, &mm) in sorted.iter().enumerate() {
            assert!(mm < self.n_mms, "dead module {mm} out of range");
            rank[mm] = Some(r);
        }
        let live: Vec<usize> = (0..self.n_mms).filter(|&m| rank[m].is_none()).collect();
        assert!(!live.is_empty(), "at least one module must survive");
        self.dead_rank = rank;
        self.live = live;
    }

    /// Maps a flat virtual word address to its module and offset.
    #[must_use]
    pub fn translate(&self, vaddr: usize) -> MemAddr {
        let mask = self.n_mms - 1;
        let group = vaddr / self.n_mms;
        let mm = match self.mode {
            TranslationMode::Interleaved => vaddr & mask,
            TranslationMode::Hashed => {
                // Within group g, word index w = vaddr mod N lands on module
                // (w XOR mix(g)) — a per-group permutation of the modules, so
                // the map stays injective while any fixed stride is spread.
                (vaddr & mask) ^ (mix(group as u64) as usize & mask)
            }
        };
        self.remap(MemAddr::new(MmId(mm), group))
    }

    /// Applies the degraded-mode remap to a healthy translation. Identity
    /// when no modules are dead. Injective: distinct dead `(mm, offset)`
    /// pairs get distinct remapped offsets (`offset · D + rank` with
    /// `rank < D`), and the [`REMAP_BASE`] region keeps them disjoint
    /// from every native offset on the adoptive module. Public so
    /// harnesses that generate *physical* traffic can steer it around
    /// dead modules the same way translated traffic is steered.
    #[must_use]
    pub fn remap(&self, addr: MemAddr) -> MemAddr {
        if self.live.is_empty() {
            return addr;
        }
        match self.dead_rank[addr.mm.0] {
            None => addr,
            Some(rank) => {
                let d = self.n_mms - self.live.len();
                let adoptive = self.live[rank % self.live.len()];
                MemAddr::new(MmId(adoptive), REMAP_BASE + addr.offset * d + rank)
            }
        }
    }
}

/// SplitMix64-style finalizer: avalanche all input bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use ultra_sim::rng::{Rng, SplitMix64};

    #[test]
    fn interleaved_is_modulo() {
        let h = AddressHasher::new(8, TranslationMode::Interleaved);
        assert_eq!(h.translate(13), MemAddr::new(MmId(5), 1));
        assert_eq!(h.translate(7), MemAddr::new(MmId(7), 0));
    }

    #[test]
    fn both_modes_are_injective() {
        for mode in [TranslationMode::Interleaved, TranslationMode::Hashed] {
            let h = AddressHasher::new(16, mode);
            let mut seen = HashSet::new();
            for v in 0..10_000 {
                let a = h.translate(v);
                assert!(a.mm.0 < 16);
                assert!(seen.insert((a.mm, a.offset)), "collision at {v} ({mode:?})");
            }
        }
    }

    #[test]
    fn hashed_spreads_pathological_stride() {
        // Stride-N accesses: interleaving sends all to MM 0; the hash must
        // spread them over many modules.
        let n = 64;
        let inter = AddressHasher::new(n, TranslationMode::Interleaved);
        let hashed = AddressHasher::new(n, TranslationMode::Hashed);
        let addrs: Vec<usize> = (0..n).map(|i| i * n).collect();
        let inter_mms: HashSet<_> = addrs.iter().map(|&a| inter.translate(a).mm).collect();
        let hashed_mms: HashSet<_> = addrs.iter().map(|&a| hashed.translate(a).mm).collect();
        assert_eq!(
            inter_mms.len(),
            1,
            "interleaving collapses stride-N onto one MM"
        );
        assert!(
            hashed_mms.len() > n / 2,
            "hashing must spread stride-N over most MMs (got {})",
            hashed_mms.len()
        );
    }

    #[test]
    fn hashed_spreads_sequential_addresses_evenly() {
        let n = 16;
        let h = AddressHasher::new(n, TranslationMode::Hashed);
        let mut counts = vec![0u32; n];
        for v in 0..(n * 100) {
            counts[h.translate(v).mm.0] += 1;
        }
        // Perfect balance: each group is a permutation of the modules.
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = AddressHasher::new(12, TranslationMode::Hashed);
    }

    #[test]
    fn empty_dead_set_is_exact_passthrough() {
        let healthy = AddressHasher::new(16, TranslationMode::Hashed);
        let mut degraded = AddressHasher::new(16, TranslationMode::Hashed);
        degraded.set_dead_mms(&[MmId(3)]);
        degraded.set_dead_mms(&[]);
        for v in 0..5_000 {
            assert_eq!(healthy.translate(v), degraded.translate(v));
        }
    }

    #[test]
    fn degraded_translation_avoids_dead_modules_and_stays_injective() {
        // One seeded dead set of every size 1..N for N = 2..1024, both
        // modes, over a window of two words per module.
        let mut rng = SplitMix64::new(0x5B1E_C7ED);
        for n in (1..=10).map(|b| 1usize << b) {
            let mut order: Vec<usize> = (0..n).collect();
            for size in 1..n {
                rng.shuffle(&mut order);
                let dead: Vec<MmId> = order[..size].iter().map(|&m| MmId(m)).collect();
                let mut is_dead = vec![false; n];
                dead.iter().for_each(|mm| is_dead[mm.0] = true);
                for mode in [TranslationMode::Interleaved, TranslationMode::Hashed] {
                    let mut h = AddressHasher::new(n, mode);
                    h.set_dead_mms(&dead);
                    let mut words: Vec<MemAddr> = (0..2 * n).map(|v| h.translate(v)).collect();
                    let case = format!("N {n}, {size} dead, {mode:?}");
                    assert!(
                        words.iter().all(|a| !is_dead[a.mm.0]),
                        "dead module hit ({case})"
                    );
                    words.sort_unstable();
                    assert!(words.windows(2).all(|w| w[0] != w[1]), "collision ({case})");
                }
            }
        }
    }

    #[test]
    fn remapped_words_live_in_the_reserved_region() {
        let healthy = AddressHasher::new(8, TranslationMode::Hashed);
        let mut h = AddressHasher::new(8, TranslationMode::Hashed);
        h.set_dead_mms(&[MmId(2)]);
        for v in 0..2_000 {
            let base = healthy.translate(v);
            let got = h.translate(v);
            if base.mm == MmId(2) {
                assert!(got.offset >= REMAP_BASE, "remapped offset in region");
                assert_ne!(got.mm, MmId(2));
            } else {
                assert_eq!(got, base, "healthy-module words are untouched");
            }
        }
    }

    #[test]
    fn dead_modules_spread_over_all_survivors() {
        // With several dead modules, their adoptive homes must not all
        // collapse onto one survivor.
        let mut h = AddressHasher::new(16, TranslationMode::Hashed);
        h.set_dead_mms(&[MmId(1), MmId(2), MmId(3), MmId(4)]);
        let adoptive: HashSet<_> = (0..5_000)
            .map(|v| h.translate(v))
            .filter(|a| a.offset >= REMAP_BASE)
            .map(|a| a.mm)
            .collect();
        assert!(adoptive.len() >= 4, "got {adoptive:?}");
    }

    #[test]
    #[should_panic(expected = "survive")]
    fn rejects_killing_every_module() {
        let mut h = AddressHasher::new(2, TranslationMode::Hashed);
        h.set_dead_mms(&[MmId(0), MmId(1)]);
    }
}
