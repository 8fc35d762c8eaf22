//! Switch output queues (§3.3, §3.3.1) and the slab their messages live in.
//!
//! The paper associates a queue with each switch output port. The ToMM
//! queues are enhanced VLSI systolic queues (Guibas & Liang) that preserve
//! FIFO order *and* support the associative search used for combining; the
//! ToPE queues are plain FIFOs. Behaviourally, both reduce to the structure
//! modelled here: a FIFO of messages with
//!
//! * capacity measured in **packets** (§4.2 limits each queue to fifteen
//!   packets; a data message is three packets, a control message one);
//! * a transmit link that carries one packet per cycle, so a message of
//!   `L` packets occupies the link for `L` cycles while its *head* reaches
//!   the next stage after a single cycle (the paper's cut-through
//!   pipelining: "the delay at each switch is only one cycle if the queues
//!   are empty");
//! * iteration over queued entries for the combining search.
//!
//! # Storage
//!
//! A network holds hundreds of thousands of these queues and almost all
//! of them are empty, so a queue owns no memory of its own. Every
//! in-flight message sits once in a per-network [`Slab`] and is named by a
//! `u32` [`Handle`]; an [`OutQueue`] is a 24-byte record — head and tail
//! handles, packet occupancy, link timing — and the messages queued on it
//! are chained through the `next` handle inside their [`Slot`]. Moving a
//! message from one switch to the next unlinks a handle here and links it
//! there; the body never moves. The generic parameter lets one slab type
//! serve requests ([`crate::message::Message`]) and replies
//! ([`crate::message::Reply`]).

use ultra_sim::heap::vec_bytes;
use ultra_sim::Cycle;

/// Names one [`Slot`] of a [`Slab`].
pub type Handle = u32;

/// The "no slot" handle: an empty queue's head, the last slot's `next`.
pub const NIL: Handle = Handle::MAX;

/// A message in the fabric plus its queue bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot<T> {
    /// The message; `None` only while the slot is on the free list.
    item: Option<T>,
    /// Cycle at which the message head finished arriving in its current
    /// queue; it may not be transmitted before this.
    pub head_arrival: Cycle,
    /// The slot behind this one in its queue (or on the free list).
    next: Handle,
    /// Whether this slot has already taken part in a combine in this switch
    /// (§3.3 pair-only restriction).
    pub combined_here: bool,
    /// Current length in packets (can change when a combine mutates the
    /// message kind).
    pub packets: u8,
}

impl<T> Slot<T> {
    /// The message held.
    ///
    /// # Panics
    ///
    /// Panics on a freed slot — a stale handle, which is a fabric bug.
    #[must_use]
    pub fn item(&self) -> &T {
        self.item.as_ref().expect("handle names a live slot")
    }

    /// Mutable access to the message held.
    ///
    /// # Panics
    ///
    /// Panics on a freed slot.
    pub fn item_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("handle names a live slot")
    }
}

/// Every in-flight message of one kind, stored once.
///
/// Freed slots are chained into a free list and reused last-freed-first,
/// so the slab's footprint is the high-water mark of messages in flight.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Handle,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the slab owns: its high-water mark of slots.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.slots)
    }

    /// Stores `item`, a message of `packets` packets, and names its slot.
    /// The slot starts unlinked; [`OutQueue::push`] queues it.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, item: T, packets: u8) -> Handle {
        let slot = Slot {
            item: Some(item),
            head_arrival: 0,
            next: NIL,
            combined_here: false,
            packets,
        };
        self.live += 1;
        let handle = self.free;
        if handle == NIL {
            let handle = Handle::try_from(self.slots.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("slab handles fit in u32");
            self.slots.push(slot);
            return handle;
        }
        let freed = std::mem::replace(&mut self.slots[handle as usize], slot);
        debug_assert!(freed.item.is_none(), "free list holds only freed slots");
        self.free = freed.next;
        handle
    }

    /// Takes the message out of slot `handle` and frees the slot. The slot
    /// must not be linked into any queue.
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not name a live slot.
    pub fn remove(&mut self, handle: Handle) -> T {
        let slot = &mut self.slots[handle as usize];
        let item = slot.item.take().expect("handle names a live slot");
        slot.next = self.free;
        self.free = handle;
        self.live -= 1;
        item
    }

    /// The live slot `handle` names.
    #[must_use]
    pub fn get(&self, handle: Handle) -> &Slot<T> {
        &self.slots[handle as usize]
    }

    /// Mutable access to the live slot `handle` names.
    pub fn get_mut(&mut self, handle: Handle) -> &mut Slot<T> {
        &mut self.slots[handle as usize]
    }

    /// Two distinct slots at once — the combining step mutates the queued
    /// request while reading the incoming one.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn pair_mut(&mut self, a: Handle, b: Handle) -> (&mut Slot<T>, &mut Slot<T>) {
        assert_ne!(a, b, "pair_mut needs two distinct slots");
        let (a, b) = (a as usize, b as usize);
        if a < b {
            let (lo, hi) = self.slots.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    /// The messages stored, in slot order.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| slot.item.as_ref())
    }

    /// Messages currently stored.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether no message is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever allocated (live plus free) — the high-water mark of
    /// [`Slab::live`].
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// A switch output queue with packet-granularity capacity and link timing:
/// the per-port record. The queued messages themselves live in a [`Slab`],
/// which every operation that follows the chain takes as an argument; the
/// capacity is the network's configuration, not the queue's state, and is
/// passed where it is checked (`usize::MAX` models the analytic infinite
/// queue).
///
/// # Example
///
/// ```
/// use ultra_net::queue::{OutQueue, Slab};
///
/// let mut slab: Slab<&str> = Slab::new();
/// let mut q = OutQueue::new();
/// let hello = slab.insert("hello", 3);
/// q.push(&mut slab, hello, 5, 15);
/// assert_eq!(q.packets_used(), 3);
/// assert!(!q.ready_to_transmit(&slab, 4)); // head not fully usable before cycle 5
/// assert!(q.ready_to_transmit(&slab, 5));
/// let sent = q.pop_for_transmit(&mut slab, 5);
/// assert_eq!(slab.remove(sent), "hello");
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutQueue {
    head: Handle,
    tail: Handle,
    packets_used: u32,
    max_packets_used: u32,
    link_free_at: Cycle,
}

impl Default for OutQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl OutQueue {
    /// Creates an empty queue with an idle link.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            packets_used: 0,
            max_packets_used: 0,
            link_free_at: 0,
        }
    }

    /// Whether a message of `packets` packets fits right now under a
    /// capacity of `capacity_packets`.
    #[must_use]
    pub fn can_accept(&self, packets: u8, capacity_packets: usize) -> bool {
        self.packets_used as usize + packets as usize <= capacity_packets
    }

    /// Links slot `handle` at the tail; its head finishes arriving at
    /// `head_arrival`. The slot enters the queue un-combined.
    ///
    /// # Panics
    ///
    /// Panics if the queue lacks space — callers must check
    /// [`OutQueue::can_accept`] first (the upstream switch holds a message
    /// until space exists; see §3.3 "the message might be delayed if the
    /// queue this message is due to enter is already full").
    pub fn push<T>(
        &mut self,
        slab: &mut Slab<T>,
        handle: Handle,
        head_arrival: Cycle,
        capacity_packets: usize,
    ) {
        let slot = slab.get_mut(handle);
        assert!(
            self.can_accept(slot.packets, capacity_packets),
            "queue overflow: caller must check"
        );
        debug_assert!(slot.item.is_some(), "only live slots are queued");
        slot.head_arrival = head_arrival;
        slot.combined_here = false;
        slot.next = NIL;
        self.packets_used += u32::from(slot.packets);
        self.max_packets_used = self.max_packets_used.max(self.packets_used);
        if self.tail == NIL {
            self.head = handle;
        } else {
            slab.get_mut(self.tail).next = handle;
        }
        self.tail = handle;
    }

    /// Whether the head message may start transmission at `now`: the queue
    /// is non-empty, the link is idle, and the head has arrived.
    #[must_use]
    pub fn ready_to_transmit<T>(&self, slab: &Slab<T>, now: Cycle) -> bool {
        now >= self.link_free_at && self.head != NIL && now >= slab.get(self.head).head_arrival
    }

    /// Unlinks the head for transmission starting at `now`, marking the
    /// link busy for the message's packet count. The slot stays live in
    /// the slab: the caller links it downstream or removes it.
    ///
    /// # Panics
    ///
    /// Panics if [`OutQueue::ready_to_transmit`] would return `false`.
    pub fn pop_for_transmit<T>(&mut self, slab: &mut Slab<T>, now: Cycle) -> Handle {
        assert!(self.ready_to_transmit(slab, now), "transmit when not ready");
        let handle = self.head;
        let slot = slab.get_mut(handle);
        self.head = slot.next;
        if self.head == NIL {
            self.tail = NIL;
        }
        slot.next = NIL;
        self.packets_used -= u32::from(slot.packets);
        self.link_free_at = now + Cycle::from(slot.packets);
        handle
    }

    /// Walks the queued slots head first — the combining search (§3.3.1).
    pub fn iter<'a, T>(&self, slab: &'a Slab<T>) -> Iter<'a, T> {
        Iter {
            slab,
            at: self.head,
        }
    }

    /// The handle at the head of the queue ([`NIL`] when empty).
    #[must_use]
    pub fn head(&self) -> Handle {
        self.head
    }

    /// The slot at the head of the queue, if any.
    #[must_use]
    pub fn front<'a, T>(&self, slab: &'a Slab<T>) -> Option<&'a Slot<T>> {
        (self.head != NIL).then(|| slab.get(self.head))
    }

    /// Adjusts the recorded packet length of queued slot `handle` after a
    /// combine mutated its message kind (e.g. a Load slot adopting a
    /// Store's identity grows from one packet to three). Capacity may be
    /// transiently exceeded: the incoming message's packets had already
    /// been granted queue space.
    pub fn resize_slot<T>(&mut self, slab: &mut Slab<T>, handle: Handle, packets: u8) {
        let slot = slab.get_mut(handle);
        self.packets_used = self.packets_used - u32::from(slot.packets) + u32::from(packets);
        self.max_packets_used = self.max_packets_used.max(self.packets_used);
        slot.packets = packets;
    }

    /// Number of queued messages (walks the chain).
    #[must_use]
    pub fn len<T>(&self, slab: &Slab<T>) -> usize {
        self.iter(slab).count()
    }

    /// Whether no messages are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Packets currently occupying the queue.
    #[must_use]
    pub fn packets_used(&self) -> usize {
        self.packets_used as usize
    }

    /// High-water mark of packet occupancy over the queue's lifetime —
    /// the empirical answer to §4.2's "queues of modest size" question.
    #[must_use]
    pub fn max_packets_used(&self) -> usize {
        self.max_packets_used as usize
    }

    /// Cycle at which the output link next becomes idle.
    #[must_use]
    pub fn link_free_at(&self) -> Cycle {
        self.link_free_at
    }
}

/// Head-first walk over one queue's chain; yields each slot with its
/// handle.
#[derive(Debug)]
pub struct Iter<'a, T> {
    slab: &'a Slab<T>,
    at: Handle,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Handle, &'a Slot<T>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == NIL {
            return None;
        }
        let handle = self.at;
        let slot = self.slab.get(handle);
        self.at = slot.next;
        Some((handle, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slab plus one queue of `capacity` packets, the shape the old
    /// self-contained queue had.
    struct Fixture {
        slab: Slab<u32>,
        q: OutQueue,
        capacity: usize,
    }

    impl Fixture {
        fn new(capacity: usize) -> Self {
            Self {
                slab: Slab::new(),
                q: OutQueue::new(),
                capacity,
            }
        }

        fn push(&mut self, item: u32, packets: u8, head_arrival: Cycle) -> Handle {
            let h = self.slab.insert(item, packets);
            self.q.push(&mut self.slab, h, head_arrival, self.capacity);
            h
        }

        fn pop(&mut self, now: Cycle) -> (u32, u8) {
            let h = self.q.pop_for_transmit(&mut self.slab, now);
            let packets = self.slab.get(h).packets;
            (self.slab.remove(h), packets)
        }
    }

    #[test]
    fn capacity_is_in_packets() {
        let mut f = Fixture::new(7);
        assert!(f.q.can_accept(3, 7));
        f.push(1, 3, 0);
        f.push(2, 3, 0);
        assert!(f.q.can_accept(1, 7));
        assert!(!f.q.can_accept(3, 7), "only one packet left");
        f.push(3, 1, 0);
        assert!(!f.q.can_accept(1, 7));
        assert_eq!(f.q.len(&f.slab), 3);
        assert_eq!(f.q.packets_used(), 7);
    }

    #[test]
    #[should_panic(expected = "queue overflow")]
    fn push_without_space_panics() {
        let mut f = Fixture::new(3);
        f.push(1, 3, 0);
        f.push(2, 1, 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut f = Fixture::new(usize::MAX);
        for i in 0..5 {
            f.push(i, 1, 0);
        }
        for i in 0..5 {
            let now = Cycle::from(i) * 2;
            assert_eq!(f.pop(now).0, i);
        }
        assert!(f.slab.is_empty(), "every slot returned to the free list");
    }

    #[test]
    fn link_busy_for_message_length() {
        let mut f = Fixture::new(usize::MAX);
        f.push(1, 3, 0);
        f.push(2, 1, 0);
        assert!(f.q.ready_to_transmit(&f.slab, 0));
        let _ = f.pop(0);
        // Link busy until cycle 3: the 3-packet message streams out.
        assert!(!f.q.ready_to_transmit(&f.slab, 1));
        assert!(!f.q.ready_to_transmit(&f.slab, 2));
        assert!(f.q.ready_to_transmit(&f.slab, 3));
        assert_eq!(f.q.link_free_at(), 3);
    }

    #[test]
    fn head_arrival_gates_transmission() {
        let mut f = Fixture::new(usize::MAX);
        f.push(9, 1, 10);
        assert!(!f.q.ready_to_transmit(&f.slab, 9));
        assert!(f.q.ready_to_transmit(&f.slab, 10));
    }

    #[test]
    fn resize_slot_tracks_packets() {
        let mut f = Fixture::new(usize::MAX);
        let first = f.push(1, 1, 0);
        f.push(2, 3, 0);
        f.q.resize_slot(&mut f.slab, first, 3); // a Load slot grew into a Store
        assert_eq!(f.q.packets_used(), 6);
        assert_eq!(f.q.max_packets_used(), 6);
        let (_, packets) = f.pop(0);
        assert_eq!(packets, 3);
        assert_eq!(f.q.packets_used(), 3);
    }

    #[test]
    fn iter_mut_sees_all_entries() {
        let mut f = Fixture::new(usize::MAX);
        f.push(1, 1, 0);
        f.push(2, 1, 0);
        let handles: Vec<Handle> = f.q.iter(&f.slab).map(|(h, _)| h).collect();
        assert_eq!(handles.len(), 2);
        for h in handles {
            *f.slab.get_mut(h).item_mut() *= 10;
        }
        assert_eq!(f.pop(0).0, 10);
        assert_eq!(f.pop(1).0, 20);
    }

    #[test]
    fn empty_queue_not_ready() {
        let f = Fixture::new(4);
        assert!(!f.q.ready_to_transmit(&f.slab, 100));
        assert!(f.q.is_empty());
        assert_eq!(f.q.head(), NIL);
    }

    #[test]
    fn freed_handles_are_reused_last_freed_first() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1, 1);
        let b = slab.insert(2, 1);
        assert_eq!(slab.remove(a), 1);
        assert_eq!(slab.remove(b), 2);
        assert_eq!(slab.insert(3, 1), b);
        assert_eq!(slab.insert(4, 1), a);
        assert_eq!(slab.slots(), 2, "no growth while free slots exist");
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn a_hop_moves_the_handle_not_the_body() {
        let mut slab: Slab<u32> = Slab::new();
        let (mut up, mut down) = (OutQueue::new(), OutQueue::new());
        let h = slab.insert(7, 3);
        up.push(&mut slab, h, 0, 15);
        let moved = up.pop_for_transmit(&mut slab, 0);
        down.push(&mut slab, moved, 1, 15);
        assert_eq!(moved, h);
        assert!(up.is_empty());
        assert_eq!(down.front(&slab).map(|s| *s.item()), Some(7));
        assert_eq!(down.packets_used(), 3);
        assert_eq!(slab.live(), 1);
    }
}
