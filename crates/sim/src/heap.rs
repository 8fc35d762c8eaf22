//! Heap-footprint arithmetic for the standard containers.
//!
//! A machine's `heap_bytes` methods add these up to estimate what one
//! machine keeps allocated, which is what a cache of machines budgets by.
//! Each helper prices the container's own buffer at its capacity; what
//! the elements own in turn is the caller's to add.

use std::collections::{HashMap, VecDeque};
use std::mem::size_of;

/// Bytes of `v`'s buffer.
#[must_use]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes of `q`'s buffer.
#[must_use]
pub fn deque_bytes<T>(q: &VecDeque<T>) -> usize {
    q.capacity() * size_of::<T>()
}

/// Bytes of `m`'s table: a power-of-two bucket count filled to at most
/// 7/8, one entry and one control byte per bucket, one trailing group of
/// control bytes.
#[must_use]
pub fn map_bytes<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    match m.capacity() {
        0 => 0,
        capacity => (capacity * 8 / 7).next_power_of_two() * (size_of::<(K, V)>() + 1) + 16,
    }
}

/// A `Vec` whose copy keeps the original's capacity, for the buffers a
/// machine reuses from cycle to cycle: a copy of the machine then grows
/// them at the same moments the original does, instead of one
/// reallocation at a time in the cycles after the copy. It reads and
/// writes as the `Vec` it wraps.
///
/// # Example
///
/// ```
/// use ultra_sim::heap::KeptVec;
///
/// let mut staged: KeptVec<u32> = KeptVec::default();
/// staged.extend(0..100);
/// staged.clear();
/// assert!(staged.clone().capacity() >= 100);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct KeptVec<T>(Vec<T>);

impl<T> Default for KeptVec<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T: Clone> Clone for KeptVec<T> {
    fn clone(&self) -> Self {
        Self(clone_kept(&self.0))
    }
}

/// A copy of `v` with `v`'s capacity (see [`KeptVec`]).
#[must_use]
pub fn clone_kept<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut copy = Vec::with_capacity(v.capacity());
    copy.extend_from_slice(v);
    copy
}

impl<T> std::ops::Deref for KeptVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> std::ops::DerefMut for KeptVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}
