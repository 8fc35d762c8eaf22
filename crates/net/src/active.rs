//! Sparse active-set worklists for the cycle sweeps.
//!
//! An idle-heavy fabric is mostly empty: at 4096 PEs the small-`k`
//! configurations build tens of thousands of switches, yet a typical cycle
//! moves messages through a few dozen of them. [`ActiveSet`] tracks, per
//! stage and per direction, exactly which switches currently hold traffic,
//! so a sweep can visit *members* instead of *switches built* — the
//! per-cycle cost then follows occupancy, not topology.
//!
//! The representation is a two-level bitset plus a member count:
//!
//! * `bits` — one bit per switch, used for O(1) membership tests and for
//!   **deterministic ascending-order iteration** (word scan +
//!   `trailing_zeros`). Ascending order matters: the dense reference sweep
//!   visits switches in ascending index order, and a switch holding no
//!   traffic is a no-op visit, so iterating exactly the non-empty switches
//!   in the same order reproduces the dense engine's operation sequence
//!   bit for bit.
//! * `summary` — one bit per `bits` word, so the walk (and `clear`) skips
//!   4096 idle switches per zero bit.
//! * `len` — the popcount, kept incrementally: the sweep's dense-fallback
//!   test and the drained check read it every cycle.
//!
//! An insert or remove touches one `bits` word and (on a word's first or
//! last member) one `summary` word — nothing indexed by member position.

/// A set of switch indices over a fixed universe `0..universe`.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// Membership bitset, one bit per index.
    bits: Vec<u64>,
    /// Hierarchical index over `bits`: bit `w % 64` of `summary[w / 64]`
    /// is set iff `bits[w] != 0`. One summary-word test lets a sweep skip
    /// 64 all-empty bitset words — 4096 switches — at a time, which is
    /// what keeps the per-cycle walk sublinear on 16K–64K-PE fabrics
    /// where a stage holds tens of thousands of switches but single-digit
    /// traffic.
    summary: Vec<u64>,
    /// Number of set bits in `bits`.
    len: usize,
}

impl ActiveSet {
    /// Creates an empty set over `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        let words = universe.div_ceil(64);
        Self {
            bits: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is a member.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `i`; no-op if already present.
    pub fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.summary[word / 64] |= 1 << (word % 64);
            self.len += 1;
        }
    }

    /// Removes `i`; no-op if absent.
    pub fn remove(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.bits[word] & bit != 0 {
            self.bits[word] &= !bit;
            if self.bits[word] == 0 {
                self.summary[word / 64] &= !(1 << (word % 64));
            }
            self.len -= 1;
        }
    }

    /// Removes every member, visiting only the non-empty words.
    pub fn clear(&mut self) {
        for (sw, sbits) in self.summary.iter_mut().enumerate() {
            for b in set_bits(std::mem::take(sbits)) {
                self.bits[sw * 64 + b] = 0;
            }
        }
        self.len = 0;
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| set_bits(bits).map(move |b| w * 64 + b))
    }

    /// Number of 64-bit words backing the bitset.
    #[must_use]
    pub fn words(&self) -> usize {
        self.bits.len()
    }

    /// The `w`-th bitset word — the sweep iterates these so that members
    /// come out in ascending index order while tolerating removal of the
    /// index currently being processed (the caller snapshots each word
    /// before consuming its bits).
    #[must_use]
    pub fn word(&self, w: usize) -> u64 {
        self.bits[w]
    }

    /// Number of 64-bit words backing the summary index.
    #[must_use]
    pub fn summary_words(&self) -> usize {
        self.summary.len()
    }

    /// The `sw`-th summary word: bit `w % 64` set means bitset word
    /// `sw * 64 + (w % 64)` is non-zero. Sweeps snapshot these exactly
    /// like [`ActiveSet::word`], skipping 64 empty words per clear bit.
    #[must_use]
    pub fn summary_word(&self, sw: usize) -> u64 {
        self.summary[sw]
    }
}

/// Positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation for differential testing.
    fn model_contains(model: &[bool], set: &ActiveSet) {
        let expect: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
        let got: Vec<usize> = set.iter().collect();
        assert_eq!(got, expect, "ascending walk diverged from model");
        assert_eq!(set.len(), expect.len());
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(set.contains(i), m, "contains({i})");
        }
        // Bitset word iteration yields the same members ascending.
        let mut scanned = Vec::new();
        for w in 0..set.words() {
            let mut word = set.word(w);
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                scanned.push(w * 64 + b);
            }
        }
        assert_eq!(scanned, expect, "bitset scan order");
        // The summary index agrees with the bitset: a summary-guided scan
        // yields the same ascending members, and no non-zero word hides
        // behind a clear summary bit.
        let mut via_summary = Vec::new();
        for sw in 0..set.summary_words() {
            let mut sbits = set.summary_word(sw);
            while sbits != 0 {
                let w = sw * 64 + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                assert_ne!(set.word(w), 0, "summary bit set for empty word {w}");
                let mut word = set.word(w);
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    via_summary.push(w * 64 + b);
                }
            }
        }
        assert_eq!(via_summary, expect, "summary-guided scan order");
        for w in 0..set.words() {
            if set.word(w) != 0 {
                assert_ne!(
                    set.summary_word(w / 64) & (1 << (w % 64)),
                    0,
                    "non-zero word {w} missing from the summary"
                );
            }
        }
    }

    #[test]
    fn random_ops_match_reference_model() {
        let universe = 197; // crosses word boundaries, not a multiple of 64
        let mut set = ActiveSet::new(universe);
        let mut model = vec![false; universe];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..4000 {
            let i = (next() as usize) % universe;
            match next() % 3 {
                0 => {
                    set.insert(i);
                    model[i] = true;
                }
                1 => {
                    set.remove(i);
                    model[i] = false;
                }
                _ => {
                    set.clear();
                    model.iter_mut().for_each(|m| *m = false);
                }
            }
        }
        model_contains(&model, &set);
    }

    #[test]
    fn insert_remove_are_idempotent() {
        let mut set = ActiveSet::new(70);
        set.insert(65);
        set.insert(65);
        assert_eq!(set.len(), 1);
        assert!(set.contains(65));
        set.remove(65);
        set.remove(65);
        assert!(set.is_empty());
        assert!(!set.contains(65));
    }

    #[test]
    fn clear_resets_everything() {
        let mut set = ActiveSet::new(130);
        for i in [0, 63, 64, 127, 129] {
            set.insert(i);
        }
        set.clear();
        assert!(set.is_empty());
        for i in 0..130 {
            assert!(!set.contains(i));
        }
        set.insert(129);
        assert_eq!(set.iter().collect::<Vec<_>>(), [129]);
        assert_eq!(set.len(), 1);
    }
}
