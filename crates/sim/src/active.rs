//! The workspace's one set type: sparse membership over a fixed universe.
//!
//! An idle-heavy machine is mostly empty: at 65536 PEs a stage holds tens
//! of thousands of switches and the engine tracks as many shards and
//! banks, yet a typical cycle touches a few dozen of each. [`ActiveSet`]
//! records exactly which units hold work — switches with queued traffic,
//! shards with outbound messages, shards worth a datapath cycle, banks
//! with requests — so every per-cycle walk visits *members*, not *units
//! built*, and its cost follows occupancy, not machine size.
//!
//! The representation is a two-level bitset plus a member count, in one
//! allocation: membership bits (one per index); a summary (one bit per
//! membership word, set iff that word is non-zero — one summary word
//! guards a block of 64 data words, so a [`Walk`] and
//! [`ActiveSet::clear`] skip 4096 idle units per test); and `len`, kept
//! incrementally, which dense-fallback tests, quiescence checks and the
//! pool's occupancy-adaptive dispatch read every cycle without a counting
//! pass. An insert or remove touches one membership word and, on a
//! word's first or last member, one summary word.
//!
//! Walks are **ascending**: the dense reference loops visit units in
//! ascending index order and a unit holding no work is a no-op visit, so
//! visiting exactly the members in that order reproduces the dense
//! engine's operation sequence bit for bit.

/// A set of indices over a fixed universe `0..universe`.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// One allocation: `bits` words of membership, then the summary —
    /// bit `w % 64` of summary word `w / 64` ⇔ membership word `w` ≠ 0.
    words: Vec<u64>,
    bits: usize,
    /// Number of members.
    len: usize,
}

impl ActiveSet {
    /// Creates an empty set over `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        let bits = universe.div_ceil(64);
        Self {
            words: vec![0; bits + bits.div_ceil(64)],
            bits,
            len: 0,
        }
    }

    /// Creates a set over `0..universe` holding `members`.
    #[must_use]
    pub fn from_members(universe: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut set = Self::new(universe);
        for i in members {
            set.insert(i);
        }
        set
    }

    /// Heap bytes of the bits and the summary.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        crate::heap::vec_bytes(&self.words)
    }

    /// Number of members.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is a member.
    #[must_use]
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[..self.bits][i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `i`; no-op if already present.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let (bits, summary) = self.words.split_at_mut(self.bits);
        if bits[word] & bit == 0 {
            bits[word] |= bit;
            summary[word / 64] |= 1 << (word % 64);
            self.len += 1;
        }
    }

    /// Removes `i`; no-op if absent.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let (bits, summary) = self.words.split_at_mut(self.bits);
        if bits[word] & bit != 0 {
            bits[word] &= !bit;
            if bits[word] == 0 {
                summary[word / 64] &= !(1 << (word % 64));
            }
            self.len -= 1;
        }
    }

    /// Removes every member, visiting only the non-empty words.
    pub fn clear(&mut self) {
        let (bits, summary) = self.words.split_at_mut(self.bits);
        for (sw, sbits) in summary.iter_mut().enumerate() {
            let mut s = std::mem::take(sbits);
            while s != 0 {
                bits[sw * 64 + s.trailing_zeros() as usize] = 0;
                s &= s - 1;
            }
        }
        self.len = 0;
    }

    /// The smallest member `>= from`, found through the summary: the rest
    /// of `from`'s own word, then the rest of its summary word, then one
    /// test per 4096 indices. [`Walk`] iterates with it, a word at a time.
    #[must_use]
    pub fn next_member(&self, from: usize) -> Option<usize> {
        self.next_member_before(from, usize::MAX)
    }

    /// [`ActiveSet::next_member`], searching the summary no further than
    /// `end`: a member at or past `end` may still be returned, but the
    /// search for one stops at the first summary word past it.
    fn next_member_before(&self, from: usize, end: usize) -> Option<usize> {
        let (bits, summary) = self.words.split_at(self.bits);
        let word = from / 64;
        let rest = *bits.get(word)? & (!0 << (from % 64));
        if rest != 0 {
            return Some(word * 64 + rest.trailing_zeros() as usize);
        }
        let word = word + 1;
        let mut sw = word / 64;
        let mut sbits = *summary.get(sw)? & (!0 << (word % 64));
        while sbits == 0 {
            sw += 1;
            if sw * 4096 >= end {
                return None;
            }
            sbits = *summary.get(sw)?;
        }
        let word = sw * 64 + sbits.trailing_zeros() as usize;
        Some(word * 64 + bits[word].trailing_zeros() as usize)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut walk = Walk::default();
        std::iter::from_fn(move || walk.next(self))
    }
}

/// A detached cursor over an [`ActiveSet`]'s members, ascending — how
/// every per-cycle walk iterates:
/// `let mut walk = Walk::default(); while let Some(i) = walk.next(&set) { … }`.
///
/// The cursor holds no borrow, so the body may mutate the set. It copies
/// a whole word when it reaches it and hands out that word's members at
/// one `trailing_zeros` each, so the body may remove any member —
/// typically the one just visited — and the walk still visits, ascending,
/// every member present when its word was reached. Members inserted into
/// a later word are visited; elsewhere, by the next walk.
/// [`Walk::within`] walks one range of the set, as if it were a set of
/// its own.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    /// Where the search for the next non-empty word starts.
    next_from: usize,
    /// Index of bit 0 of the word being handed out.
    base: usize,
    /// Members of that word not yet handed out.
    bits: u64,
    /// The walk ends at the first member at or past this.
    end: usize,
}

impl Default for Walk {
    fn default() -> Self {
        Self::within(0..usize::MAX)
    }
}

impl Walk {
    /// A walk over the members in `range` only.
    #[must_use]
    pub fn within(range: std::ops::Range<usize>) -> Self {
        Self {
            next_from: range.start,
            base: 0,
            bits: 0,
            end: range.end,
        }
    }

    /// The next member of `set`, or `None` once the walk is past the last.
    #[inline]
    pub fn next(&mut self, set: &ActiveSet) -> Option<usize> {
        if self.bits == 0 {
            let first = set.next_member_before(self.next_from, self.end)?;
            self.base = first & !63;
            self.bits = set.words[first / 64] & (!0 << (first % 64));
            self.next_from = self.base + 64;
        }
        let member = self.base + self.bits.trailing_zeros() as usize;
        if member >= self.end {
            self.bits = 0;
            self.next_from = self.end;
            return None;
        }
        self.bits &= self.bits - 1;
        Some(member)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Differential check against a `Vec<bool>` model, including that the
    /// summary agrees with the bitset in both directions.
    fn model_contains(model: &[bool], set: &ActiveSet) {
        let expect: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
        let got: Vec<usize> = set.iter().collect();
        assert_eq!(got, expect, "ascending walk diverged from model");
        assert_eq!(set.len(), expect.len());
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(set.contains(i), m, "contains({i})");
        }
        let (bits, summary) = set.words.split_at(set.bits);
        for (w, &word) in bits.iter().enumerate() {
            let flagged = summary[w / 64] & (1 << (w % 64)) != 0;
            assert_eq!(flagged, word != 0, "summary bit of word {w}");
        }
        // Entering the walk anywhere lands on the model's next member.
        let mut want = None;
        for from in (0..=model.len() + 1).rev() {
            if model.get(from) == Some(&true) {
                want = Some(from);
            }
            assert_eq!(set.next_member(from), want, "next_member({from})");
        }
    }

    fn lcg(state: &mut u64) -> usize {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as usize
    }

    #[test]
    fn random_ops_match_reference_model() {
        // 197 crosses word boundaries; 4096 + 70 and 3 * 4096 cross and
        // exactly fill summary words.
        for universe in [197, 4096 + 70, 3 * 4096] {
            let mut set = ActiveSet::new(universe);
            let mut model = vec![false; universe];
            let mut state = 0x1234_5678_9abc_def0u64 ^ universe as u64;
            for step in 0..4000 {
                let i = lcg(&mut state) % universe;
                match lcg(&mut state) % 16 {
                    0..=8 => {
                        set.insert(i);
                        model[i] = true;
                    }
                    9..=14 => {
                        set.remove(i);
                        model[i] = false;
                    }
                    _ => {
                        set.clear();
                        model.iter_mut().for_each(|m| *m = false);
                    }
                }
                if step % 500 == 499 {
                    model_contains(&model, &set);
                }
            }
            model_contains(&model, &set);
        }
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
        let mut set = ActiveSet::from_members(130, [0, 63, 64, 127, 129]);
        assert_eq!(set.len(), 5);
        set.clear();
        assert!(set.is_empty());
        for i in 0..130 {
            assert!(!set.contains(i));
        }
        set.insert(129);
        assert_eq!(set.iter().collect::<Vec<_>>(), [129]);
        assert_eq!(set.len(), 1);
    }

    /// The engine's walks retire the member just visited and wake members
    /// of other words; the walk must visit, ascending, exactly the members
    /// present when the cursor reaches their word.
    #[test]
    fn walk_tolerates_removal_and_insertion_mid_iteration() {
        let universe = 2 * 4096 + 130;
        let mut state = 7u64;
        let mut model = vec![false; universe];
        for _ in 0..600 {
            model[lcg(&mut state) % universe] = true;
        }
        let mut set = ActiveSet::from_members(universe, (0..universe).filter(|&i| model[i]));
        let (mut walk, mut at) = (Walk::default(), 0);
        while let Some(i) = walk.next(&set) {
            assert_eq!(Some(i), (at..universe).find(|&i| model[i]));
            at = i + 1;
            // Any index outside the word being walked.
            let other = (i / 64 * 64 + 64 + lcg(&mut state) % (universe - 64)) % universe;
            let (target, member) = match lcg(&mut state) % 4 {
                0 => (i, false),
                1 => (other, false),
                2 => (other, true),
                _ => continue,
            };
            model[target] = member;
            if member {
                set.insert(target);
            } else {
                set.remove(target);
            }
        }
        assert_eq!((at..universe).find(|&i| model[i]), None);
        model_contains(&model, &set);
    }

    #[test]
    fn universe_edges_are_members_like_any_other() {
        assert!(ActiveSet::new(0).next_member(0).is_none());
        for universe in [1, 63, 64, 65, 4095, 4096, 4097, 65536 + 1] {
            let last = universe - 1;
            let mut set = ActiveSet::from_members(universe, [last]);
            for (from, want) in [(0, Some(last)), (last, Some(last)), (last + 1, None)] {
                assert_eq!(set.next_member(from), want, "universe {universe}");
            }
            assert_eq!(set.next_member(universe + 4096), None);
            set.remove(last);
            assert_eq!(set.iter().next(), None);
        }
    }

    #[test]
    fn a_walk_within_a_range_sees_only_its_members() {
        let mut set = ActiveSet::from_members(300, [3, 40, 63, 64, 70, 130, 200, 299]);
        let walked = |set: &ActiveSet, range: std::ops::Range<usize>| {
            let mut walk = Walk::within(range);
            std::iter::from_fn(|| walk.next(set)).collect::<Vec<_>>()
        };
        assert_eq!(walked(&set, 40..70), [40, 63, 64]);
        assert_eq!(walked(&set, 71..130), [] as [usize; 0]);
        assert_eq!(walked(&set, 0..300), set.iter().collect::<Vec<_>>());
        // Members inserted past the end while walking stay unvisited.
        let mut walk = Walk::within(0..64);
        let mut seen = Vec::new();
        while let Some(i) = walk.next(&set) {
            set.insert(i + 1);
            seen.push(i);
        }
        assert_eq!(seen, [3, 40, 63]);
        assert_eq!(walk.next(&set), None, "an ended walk stays ended");
    }
}
