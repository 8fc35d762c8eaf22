//! The one bounded buffer behind every recorder.
//!
//! The machine's event trace, its engine-phase spans and telemetry
//! windows, the service's flight events and its retained job spans all
//! keep "the newest `capacity` entries" of an unbounded stream. [`Ring`]
//! is that buffer, written once: off by default, preallocated when
//! enabled, and dropping (and counting) its oldest entry when full, so
//! the tail of a long run is always what is kept.

use std::collections::vec_deque::{self, VecDeque};

/// A bounded, drop-oldest buffer that is off until [`Ring::enable`].
///
/// Recording into a disabled ring is one branch and stores nothing.
/// Once enabled, recording allocates nothing: the buffer is sized at
/// [`Ring::enable`], and a full ring evicts its oldest entry, counted by
/// [`Ring::dropped`], to make room.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// Zero while disabled.
    capacity: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Ring<T> {
    /// A disabled ring: records nothing until [`Ring::enable`].
    #[must_use]
    pub const fn new() -> Self {
        Self {
            capacity: 0,
            items: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Turns recording on with room for `capacity` entries, starting
    /// empty with a zero drop count and preallocating the whole buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "ring capacity must be positive");
        self.capacity = capacity;
        self.items = VecDeque::with_capacity(capacity);
        self.dropped = 0;
    }

    /// Whether the ring is recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends `item`, evicting the oldest entry when full. No-op while
    /// disabled.
    #[inline]
    pub fn record(&mut self, item: T) {
        if self.capacity == 0 {
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Number of retained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries evicted to honour the capacity since [`Ring::enable`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity (zero while disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_sim::rng::{Rng, SplitMix64};

    #[test]
    fn ring_keeps_the_newest_entries_and_counts_the_rest() {
        let mut rng = SplitMix64::new(0x5EED);
        for capacity in [1, 2, 3, 7, 64] {
            let mut ring = Ring::new();
            for x in 0..5u64 {
                ring.record(x);
            }
            assert!(
                ring.is_empty() && !ring.is_enabled(),
                "disabled ring stores nothing"
            );
            assert_eq!((ring.dropped(), ring.capacity()), (0, 0));
            // Re-enabling a used ring starts it over, every round.
            for _ in 0..4 {
                ring.enable(capacity);
                assert!(ring.is_empty() && ring.is_enabled());
                assert_eq!((ring.dropped(), ring.capacity()), (0, capacity));
                let n = rng.range_u64(0..4 * capacity as u64 + 3);
                for x in 0..n {
                    ring.record(x);
                }
                let kept = (n as usize).min(capacity);
                assert_eq!(ring.len(), kept);
                assert_eq!(ring.dropped(), n - kept as u64);
                let want: Vec<u64> = (n - kept as u64..n).collect();
                assert_eq!(ring.iter().copied().collect::<Vec<_>>(), want);
            }
        }
    }
}
