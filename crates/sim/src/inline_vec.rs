//! A small vector that stores its first `N` elements inline.
//!
//! The hot path of the cycle engine moves [`crate::ids::PeId`]-sized ids
//! around in per-message lists (a combined message's folded constituents,
//! §3.1.2) whose length is almost always 1 and only grows past a handful
//! under heavy combining. A `Vec` there costs one heap allocation per
//! message; `InlineVec` keeps short lists entirely inline and spills to a
//! `Vec` only when the inline capacity overflows.
//!
//! Written in 100% safe code (the workspace denies `unsafe`): the inline
//! storage is a plain `[T; N]` of `Copy + Default` elements — vacant slots
//! hold `T::default()`, so no `Option` niche-less padding doubles the
//! footprint of id-sized payloads, and messages stay cheap to memcpy
//! through switch queues. Elements are push-only plus `clear`, which is
//! all the folded-list use case needs and keeps the representation
//! canonical (inline slots fill before the spill vector).

use core::fmt;

/// A push-only small vector: first `N` elements inline, the rest spilled
/// to the heap.
///
/// # Example
///
/// ```
/// use ultra_sim::inline_vec::InlineVec;
///
/// let mut v: InlineVec<u64, 2> = InlineVec::new();
/// v.push(7);
/// v.push(8);
/// v.push(9); // spills
/// assert_eq!(v.len(), 3);
/// assert_eq!(v, vec![7, 8, 9]);
/// ```
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    inline: [T; N],
    /// Number of occupied inline slots (`<= N`).
    inline_len: usize,
    /// Overflow storage; empty until the inline slots are full.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inline: [T::default(); N],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// Creates a vector holding a single element (no heap allocation).
    #[must_use]
    pub fn one(value: T) -> Self {
        let mut v = Self::new();
        v.push(value);
        v
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.inline_len < N {
            self.inline[self.inline_len] = value;
            self.inline_len += 1;
        } else {
            self.spill.push(value);
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Whether the vector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    /// Removes every element, keeping any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
    }

    /// Iterates the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline[..self.inline_len]
            .iter()
            .chain(self.spill.iter())
    }

    /// Whether `value` is among the elements.
    #[must_use]
    pub fn contains(&self, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|v| v == value)
    }

    /// Appends every element of `other`.
    pub fn extend_from(&mut self, other: &Self) {
        for &v in other {
            self.push(v);
        }
    }
}

impl<T: Copy + Default + crate::wire::Wire, const N: usize> crate::wire::Wire for InlineVec<T, N> {
    fn encode(&self, w: &mut crate::wire::WireWriter) {
        w.usize(self.len());
        for item in self.iter() {
            item.encode(w);
        }
    }
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        let len = r.seq_len()?;
        let mut out = Self::new();
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(values: Vec<T>) -> Self {
        let mut v = Self::new();
        for value in values {
            v.push(value);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::iter::Chain<core::slice::Iter<'a, T>, core::slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.inline[..self.inline_len]
            .iter()
            .chain(self.spill.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..3 {
            v.push(i);
        }
        assert_eq!(v.len(), 3);
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn spills_past_capacity_preserving_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..7 {
            v.push(i);
        }
        assert_eq!(v.len(), 7);
        assert_eq!(v, (0..7).collect::<Vec<_>>());
        assert!(v.contains(&6));
        assert!(!v.contains(&7));
    }

    #[test]
    fn clear_resets_and_allows_reuse() {
        let mut v: InlineVec<u32, 2> = vec![0, 1, 2, 3, 4].into();
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        v.push(9);
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn equality_ignores_representation_boundary() {
        let a: InlineVec<u32, 2> = vec![0, 1, 2, 3].into();
        let b: InlineVec<u32, 2> = vec![0, 1, 2, 3].into();
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1, 2, 3]);
        let c: InlineVec<u32, 2> = vec![0, 1, 2].into();
        assert_ne!(a, c);
    }

    #[test]
    fn extend_from_merges_lists() {
        let mut a: InlineVec<u32, 2> = InlineVec::one(1);
        let b: InlineVec<u32, 2> = vec![2, 3, 4].into();
        a.extend_from(&b);
        assert_eq!(a, vec![1, 2, 3, 4]);
    }

    #[test]
    fn id_sized_elements_stay_memcpy_small() {
        // The whole point of the plain-array representation: four u64-ish
        // ids plus bookkeeping, not four 16-byte `Option`s.
        assert!(
            std::mem::size_of::<InlineVec<u64, 4>>()
                <= 4 * std::mem::size_of::<u64>() + 2 * std::mem::size_of::<usize>() * 4
        );
    }

    #[test]
    fn reference_iteration_works() {
        let v: InlineVec<u32, 2> = vec![10, 11, 12, 13, 14].into();
        let sum: u32 = (&v).into_iter().copied().sum();
        assert_eq!(sum, 10 + 11 + 12 + 13 + 14);
    }
}
