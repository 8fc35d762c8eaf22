//! [`Rings`]: many small FIFOs stored in one slab.
//!
//! A machine of N PEs holds N outbound queues, N lists of outstanding
//! requests and N bank queues, and almost all of them are empty or hold
//! one entry. As `VecDeque`s each is a heap block of its own: a machine's
//! copy, and its drop, then pay one allocation and one free per queue. Here
//! every item of one kind sits in one [`Rings`] slab and a queue is a
//! [`Ring`], an 8-byte record of its tail slot and length. The items of a
//! ring are chained through their slots' `next` index into a ring that
//! closes through the tail — the tail's `next` is the head — the layout of
//! the network's own link slab (`ultra_net::queue`). Copying every queue of
//! a kind is then one copy of one buffer.
//!
//! Freed slots are reused last-freed-first, so a slab's size is the
//! high-water mark of items held at once. A copy keeps the original's
//! capacity, so the copy and the original allocate at the same moments
//! when they go on to run the same cycles.
//!
//! # Example
//!
//! ```
//! use ultra_sim::ring::{Ring, Rings};
//!
//! let mut slab: Rings<&str> = Rings::default();
//! let (mut a, mut b) = (Ring::default(), Ring::default());
//! slab.push_back(&mut a, "first");
//! slab.push_back(&mut b, "other");
//! slab.push_back(&mut a, "second");
//! assert_eq!(slab.iter(a).copied().collect::<Vec<_>>(), ["first", "second"]);
//! assert_eq!(slab.pop_front(&mut a), Some("first"));
//! assert_eq!((a.len(), b.len()), (1, 1));
//! ```

use crate::heap::{vec_bytes, KeptVec};

/// The "no slot" index: an empty ring's tail, the free list's end.
const NIL: u32 = u32::MAX;

/// One FIFO of a [`Rings`] slab: its tail slot and its length. Every
/// operation on it goes through the slab that holds its items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    tail: u32,
    len: u32,
}

impl Default for Ring {
    fn default() -> Self {
        Self { tail: NIL, len: 0 }
    }
}

impl Ring {
    /// Items in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the ring holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    /// The slot behind this one in its ring (the head, for the tail), or
    /// the next free slot.
    next: u32,
    /// `None` only while the slot is on the free list.
    item: Option<T>,
}

/// The slab every [`Ring`] of one kind keeps its items in.
#[derive(Debug, Clone)]
pub struct Rings<T> {
    slots: KeptVec<Slot<T>>,
    free: u32,
    /// Items held, over every ring.
    items: usize,
}

impl<T> Default for Rings<T> {
    fn default() -> Self {
        Self {
            slots: KeptVec::default(),
            free: NIL,
            items: 0,
        }
    }
}

impl<T> Rings<T> {
    /// Heap bytes of the slab: its high-water mark of slots.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.slots)
    }

    /// Items held, over every ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no ring holds an item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Stores `item` in a free slot and names it.
    fn alloc(&mut self, item: T) -> u32 {
        self.items += 1;
        let slot = Slot {
            next: NIL,
            item: Some(item),
        };
        match self.free {
            NIL => {
                let i = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("ring slots fit in u32");
                self.slots.push(slot);
                i
            }
            i => {
                self.free = self.slots[i as usize].next;
                self.slots[i as usize] = slot;
                i
            }
        }
    }

    /// Takes the item out of slot `i` and frees the slot.
    fn release(&mut self, i: u32) -> T {
        self.items -= 1;
        let slot = &mut self.slots[i as usize];
        slot.next = self.free;
        self.free = i;
        slot.item.take().expect("a ring slot holds an item")
    }

    /// Links a new slot holding `item` behind `ring`'s tail; returns the
    /// slot and its successor (the head).
    fn link(&mut self, ring: &mut Ring, item: T) -> u32 {
        let i = self.alloc(item);
        let head = match ring.tail {
            NIL => i,
            tail => std::mem::replace(&mut self.slots[tail as usize].next, i),
        };
        self.slots[i as usize].next = head;
        ring.len += 1;
        i
    }

    /// Appends `item` to `ring`.
    pub fn push_back(&mut self, ring: &mut Ring, item: T) {
        ring.tail = self.link(ring, item);
    }

    /// Puts `item` at the head of `ring`.
    pub fn push_front(&mut self, ring: &mut Ring, item: T) {
        let i = self.link(ring, item);
        if ring.tail == NIL {
            ring.tail = i;
        }
    }

    /// Removes and returns the head of `ring`.
    pub fn pop_front(&mut self, ring: &mut Ring) -> Option<T> {
        let tail = ring.tail;
        if tail == NIL {
            return None;
        }
        let head = self.slots[tail as usize].next;
        if head == tail {
            ring.tail = NIL;
        } else {
            self.slots[tail as usize].next = self.slots[head as usize].next;
        }
        ring.len -= 1;
        Some(self.release(head))
    }

    /// The head of `ring`.
    #[must_use]
    pub fn front(&self, ring: Ring) -> Option<&T> {
        match ring.tail {
            NIL => None,
            tail => self.slots[self.slots[tail as usize].next as usize]
                .item
                .as_ref(),
        }
    }

    /// Removes and returns the first item of `ring` that `matches`,
    /// keeping the order of the rest.
    pub fn remove_first(
        &mut self,
        ring: &mut Ring,
        mut matches: impl FnMut(&T) -> bool,
    ) -> Option<T> {
        let mut prev = ring.tail;
        for _ in 0..ring.len {
            let i = self.slots[prev as usize].next;
            let hit = self.slots[i as usize]
                .item
                .as_ref()
                .is_some_and(&mut matches);
            if hit {
                let next = self.slots[i as usize].next;
                if i == prev {
                    ring.tail = NIL;
                } else {
                    self.slots[prev as usize].next = next;
                    if i == ring.tail {
                        ring.tail = prev;
                    }
                }
                ring.len -= 1;
                return Some(self.release(i));
            }
            prev = i;
        }
        None
    }

    /// Empties `ring`, freeing its slots.
    pub fn clear(&mut self, ring: &mut Ring) {
        while self.pop_front(ring).is_some() {}
    }

    /// Calls `f` on each item of `ring`, head first.
    pub fn for_each_mut(&mut self, ring: Ring, mut f: impl FnMut(&mut T)) {
        let mut at = ring.tail;
        for _ in 0..ring.len {
            at = self.slots[at as usize].next;
            f(self.slots[at as usize]
                .item
                .as_mut()
                .expect("a ring slot holds an item"));
        }
    }

    /// The items of `ring`, head first.
    pub fn iter(&self, ring: Ring) -> impl Iterator<Item = &T> + '_ {
        let mut at = match ring.tail {
            NIL => NIL,
            tail => self.slots[tail as usize].next,
        };
        (0..ring.len).map(move |_| {
            let slot = &self.slots[at as usize];
            at = slot.next;
            slot.item.as_ref().expect("a ring slot holds an item")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(slab: &Rings<u32>, ring: Ring) -> Vec<u32> {
        slab.iter(ring).copied().collect()
    }

    #[test]
    fn rings_share_a_slab_and_keep_fifo_order() {
        let mut slab = Rings::default();
        let (mut a, mut b) = (Ring::default(), Ring::default());
        for v in 0..4 {
            slab.push_back(&mut a, v);
            slab.push_back(&mut b, 10 + v);
        }
        slab.push_front(&mut a, 99);
        assert_eq!(items(&slab, a), [99, 0, 1, 2, 3]);
        assert_eq!(slab.front(b), Some(&10));
        assert_eq!(slab.pop_front(&mut a), Some(99));
        assert_eq!(slab.remove_first(&mut a, |&v| v == 3), Some(3), "the tail");
        assert_eq!(slab.remove_first(&mut a, |&v| v == 1), Some(1));
        assert_eq!(slab.remove_first(&mut a, |&v| v == 7), None);
        slab.push_back(&mut a, 5);
        assert_eq!(items(&slab, a), [0, 2, 5]);
        assert_eq!(items(&slab, b), [10, 11, 12, 13]);
        slab.clear(&mut b);
        assert!(b.is_empty() && slab.front(b).is_none());
        assert_eq!(slab.slots.len(), 9, "freed slots are reused");
        for v in 0..6 {
            slab.push_back(&mut b, v);
        }
        assert_eq!(slab.slots.len(), 9);
        assert_eq!(slab.remove_first(&mut a, |&v| v == 0), Some(0), "the head");
        assert_eq!(slab.pop_front(&mut a), Some(2));
        assert_eq!(slab.remove_first(&mut a, |_| true), Some(5), "the last one");
        assert_eq!((a, slab.pop_front(&mut a)), (Ring::default(), None));
        assert_eq!(items(&slab, b), [0, 1, 2, 3, 4, 5]);
        slab.for_each_mut(b, |v| *v *= 10);
        assert_eq!(items(&slab, b), [0, 10, 20, 30, 40, 50]);
        assert!(!slab.is_empty());
        slab.clear(&mut b);
        assert!(slab.is_empty(), "no ring holds anything");
    }

    #[test]
    fn a_copy_keeps_the_capacity() {
        let mut slab = Rings::default();
        let mut ring = Ring::default();
        for v in 0..5u32 {
            slab.push_back(&mut ring, v);
        }
        let copy = slab.clone();
        assert_eq!(copy.slots.capacity(), slab.slots.capacity());
        assert_eq!(items(&copy, ring), items(&slab, ring));
    }
}
