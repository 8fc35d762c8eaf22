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
