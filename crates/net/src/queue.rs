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
//! `u32` [`Handle`]; an [`OutQueue`] is a 16-byte record — the tail
//! handle, packet occupancy, link timing — and the messages queued on it
//! are chained through the `next` handle of their [`Link`] into a ring
//! that closes through the tail: the tail's `next` is the head. One
//! handle then names both ends, so the record needs no head field, and
//! finding the head costs one read of the tail's link. Moving a message
//! from one switch to the next unlinks a handle here and links it there;
//! the body never moves. A queue keeps no high-water mark: the switches
//! keep one per switch for the ToMM side, the only side anyone reads
//! (see [`crate::switch`]).
//!
//! The slab is two columns indexed by the same handle. The **link
//! column** holds, per slot, the 24 bytes a hop reads and writes: the
//! chain, the head's arrival cycle, the packet length, the pair-only
//! combine flag and the §3.1.1 routing register (the amalgam). The **body
//! column** holds the messages themselves. Deciding whether a head may
//! leave, whether the next switch has room for it, and moving it there
//! touches only the link column; a body is read only to search a
//! non-empty queue for a combining partner or to match a wait-buffer
//! entry. The generic parameter lets one slab type serve requests
//! ([`crate::message::Message`]) and replies
//! ([`crate::message::Reply`]).

use ultra_sim::heap::{vec_bytes, KeptVec};
use ultra_sim::Cycle;

/// Names one slot of a [`Slab`].
pub type Handle = u32;

/// The "no slot" handle: an empty queue's tail, the free list's end.
pub const NIL: Handle = Handle::MAX;

/// The part of a slot a hop touches: its queue bookkeeping and the
/// message's routing register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Cycle at which the message head finished arriving in its current
    /// queue; it may not be transmitted before this.
    pub head_arrival: Cycle,
    /// The §3.1.1 origin/destination amalgam: it enters the network
    /// holding the destination (an MM number on the forward trip, a PE
    /// number on the reverse trip); each stage reads its output port from
    /// one digit and overwrites that digit with the arrival port, so the
    /// register holds the origin when the message leaves the fabric.
    pub amalgam: usize,
    /// The slot behind this one in its queue — the head, for the tail —
    /// or on the free list.
    next: Handle,
    /// Current length in packets (can change when a combine mutates the
    /// message kind).
    pub packets: u8,
    /// Whether this slot has already taken part in a combine in this switch
    /// (§3.3 pair-only restriction).
    pub combined_here: bool,
}

/// Every in-flight message of one kind, stored once, as a link column
/// and a body column (see the module docs).
///
/// Freed slots are chained into a free list and reused last-freed-first,
/// so the slab's footprint is the high-water mark of messages in flight.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    links: KeptVec<Link>,
    /// The messages; `None` only while the slot is on the free list.
    bodies: KeptVec<Option<T>>,
    free: Handle,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            links: KeptVec::default(),
            bodies: KeptVec::default(),
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

    /// Heap bytes the slab owns: its high-water mark of slots, both
    /// columns.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.links) + vec_bytes(&self.bodies)
    }

    /// Stores `item`, a message of `packets` packets whose routing
    /// register starts at `amalgam`, and names its slot. The slot starts
    /// unlinked; [`OutQueue::push`] queues it.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, item: T, packets: u8, amalgam: usize) -> Handle {
        let link = Link {
            head_arrival: 0,
            amalgam,
            next: NIL,
            packets,
            combined_here: false,
        };
        self.live += 1;
        let handle = self.free;
        if handle == NIL {
            let handle = Handle::try_from(self.links.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("slab handles fit in u32");
            self.links.push(link);
            self.bodies.push(Some(item));
            return handle;
        }
        let i = handle as usize;
        debug_assert!(self.bodies[i].is_none(), "free list holds only freed slots");
        self.free = self.links[i].next;
        self.links[i] = link;
        self.bodies[i] = Some(item);
        handle
    }

    /// Takes the message out of slot `handle` and frees the slot. The slot
    /// must not be linked into any queue.
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not name a live slot.
    pub fn remove(&mut self, handle: Handle) -> T {
        let item = self.bodies[handle as usize]
            .take()
            .expect("handle names a live slot");
        self.links[handle as usize].next = self.free;
        self.free = handle;
        self.live -= 1;
        item
    }

    /// The link record of slot `handle`.
    #[must_use]
    pub fn link(&self, handle: Handle) -> &Link {
        &self.links[handle as usize]
    }

    /// Mutable access to the link record of slot `handle`.
    pub fn link_mut(&mut self, handle: Handle) -> &mut Link {
        &mut self.links[handle as usize]
    }

    /// The message slot `handle` holds.
    ///
    /// # Panics
    ///
    /// Panics on a freed slot — a stale handle, which is a fabric bug.
    #[must_use]
    pub fn body(&self, handle: Handle) -> &T {
        self.bodies[handle as usize]
            .as_ref()
            .expect("handle names a live slot")
    }

    /// Two distinct bodies at once — the combining step mutates the queued
    /// request while reading the incoming one.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either slot is free.
    pub fn bodies_mut(&mut self, a: Handle, b: Handle) -> (&mut T, &T) {
        assert_ne!(a, b, "bodies_mut needs two distinct slots");
        let (a, b) = (a as usize, b as usize);
        let (a, b) = if a < b {
            let (lo, hi) = self.bodies.split_at_mut(b);
            (&mut lo[a], &hi[0])
        } else {
            let (lo, hi) = self.bodies.split_at_mut(a);
            (&mut hi[0], &lo[b])
        };
        let live = "handle names a live slot";
        (a.as_mut().expect(live), b.as_ref().expect(live))
    }

    /// The messages stored, in slot order.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.bodies.iter().filter_map(Option::as_ref)
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
        self.links.len()
    }
}

/// A switch output queue with packet-granularity capacity and link timing:
/// the per-port record. The queued messages themselves live in a [`Slab`],
/// which every operation that follows the chain takes as an argument; the
/// capacity is the network's configuration, not the queue's state, and is
/// passed where it is checked (`usize::MAX` models the analytic infinite
/// queue). Only the slab's link column is read or written here.
///
/// The chain is a ring closed through the tail (see the module docs):
/// an empty queue's tail is [`NIL`], a one-message queue's tail is its own
/// `next`.
///
/// # Example
///
/// ```
/// use ultra_net::queue::{OutQueue, Slab};
///
/// let mut slab: Slab<&str> = Slab::new();
/// let mut q = OutQueue::new();
/// let hello = slab.insert("hello", 3, 0);
/// q.push(&mut slab, hello, 5, 15);
/// assert_eq!(q.packets_used(), 3);
/// assert_eq!(q.ready_head(&slab, 4), None); // head not fully usable before cycle 5
/// assert_eq!(q.ready_head(&slab, 5), Some(hello));
/// let sent = q.pop_for_transmit(&mut slab, 5);
/// assert_eq!(slab.remove(sent), "hello");
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutQueue {
    tail: Handle,
    packets_used: u32,
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
            tail: NIL,
            packets_used: 0,
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
    /// `head_arrival`. The slot enters the queue un-combined. Returns the
    /// packets the queue then holds, for the caller's high-water mark.
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
    ) -> u32 {
        let packets = slab.link(handle).packets;
        assert!(
            self.can_accept(packets, capacity_packets),
            "queue overflow: caller must check"
        );
        let head = match self.tail {
            NIL => handle,
            tail => std::mem::replace(&mut slab.link_mut(tail).next, handle),
        };
        let link = slab.link_mut(handle);
        link.head_arrival = head_arrival;
        link.combined_here = false;
        link.next = head;
        self.packets_used += u32::from(packets);
        self.tail = handle;
        self.packets_used
    }

    /// The head's handle if it may start transmission at `now`: the queue
    /// is non-empty, the link is idle, and the head has arrived.
    #[must_use]
    pub fn ready_head<T>(&self, slab: &Slab<T>, now: Cycle) -> Option<Handle> {
        if now < self.link_free_at || self.tail == NIL {
            return None;
        }
        let head = slab.link(self.tail).next;
        (now >= slab.link(head).head_arrival).then_some(head)
    }

    /// Unlinks the head for transmission starting at `now`, marking the
    /// link busy for the message's packet count. The slot stays live in
    /// the slab: the caller links it downstream or removes it.
    ///
    /// # Panics
    ///
    /// Panics if [`OutQueue::ready_head`] would return `None`.
    pub fn pop_for_transmit<T>(&mut self, slab: &mut Slab<T>, now: Cycle) -> Handle {
        let handle = self.ready_head(slab, now).expect("transmit when not ready");
        let link = slab.link_mut(handle);
        let next = std::mem::replace(&mut link.next, NIL);
        self.packets_used -= u32::from(link.packets);
        self.link_free_at = now + Cycle::from(link.packets);
        if handle == self.tail {
            self.tail = NIL;
        } else {
            slab.link_mut(self.tail).next = next;
        }
        handle
    }

    /// Walks the queued slots head first — the combining search (§3.3.1).
    pub fn iter<'a, T>(&self, slab: &'a Slab<T>) -> Iter<'a, T> {
        Iter {
            slab,
            at: self.head(slab),
            tail: self.tail,
        }
    }

    /// The handle at the head of the queue ([`NIL`] when empty).
    #[must_use]
    pub fn head<T>(&self, slab: &Slab<T>) -> Handle {
        match self.tail {
            NIL => NIL,
            tail => slab.link(tail).next,
        }
    }

    /// Adjusts the recorded packet length of queued slot `handle` after a
    /// combine mutated its message kind (e.g. a Load slot adopting a
    /// Store's identity grows from one packet to three). Capacity may be
    /// transiently exceeded: the incoming message's packets had already
    /// been granted queue space. Returns the packets the queue then holds,
    /// for the caller's high-water mark.
    pub fn resize_slot<T>(&mut self, slab: &mut Slab<T>, handle: Handle, packets: u8) -> u32 {
        let link = slab.link_mut(handle);
        self.packets_used = self.packets_used - u32::from(link.packets) + u32::from(packets);
        link.packets = packets;
        self.packets_used
    }

    /// Number of queued messages (walks the chain).
    #[must_use]
    pub fn len<T>(&self, slab: &Slab<T>) -> usize {
        self.iter(slab).count()
    }

    /// Whether no messages are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tail == NIL
    }

    /// Packets currently occupying the queue.
    #[must_use]
    pub fn packets_used(&self) -> usize {
        self.packets_used as usize
    }

    /// Cycle at which the output link next becomes idle.
    #[must_use]
    pub fn link_free_at(&self) -> Cycle {
        self.link_free_at
    }
}

/// Head-first walk over one queue's ring, stopping after the tail;
/// yields each slot's handle with its link record.
#[derive(Debug)]
pub struct Iter<'a, T> {
    slab: &'a Slab<T>,
    at: Handle,
    tail: Handle,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Handle, &'a Link);

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == NIL {
            return None;
        }
        let handle = self.at;
        let link = self.slab.link(handle);
        self.at = if handle == self.tail { NIL } else { link.next };
        Some((handle, link))
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
            let h = self.slab.insert(item, packets, 0);
            self.q.push(&mut self.slab, h, head_arrival, self.capacity);
            h
        }

        fn pop(&mut self, now: Cycle) -> (u32, u8) {
            let h = self.q.pop_for_transmit(&mut self.slab, now);
            let packets = self.slab.link(h).packets;
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
        assert!(f.q.ready_head(&f.slab, 0).is_some());
        let _ = f.pop(0);
        // Link busy until cycle 3: the 3-packet message streams out.
        assert!(f.q.ready_head(&f.slab, 1).is_none());
        assert!(f.q.ready_head(&f.slab, 2).is_none());
        assert!(f.q.ready_head(&f.slab, 3).is_some());
        assert_eq!(f.q.link_free_at(), 3);
    }

    #[test]
    fn head_arrival_gates_transmission() {
        let mut f = Fixture::new(usize::MAX);
        f.push(9, 1, 10);
        assert!(f.q.ready_head(&f.slab, 9).is_none());
        assert!(f.q.ready_head(&f.slab, 10).is_some());
    }

    #[test]
    fn resize_slot_tracks_packets() {
        let mut f = Fixture::new(usize::MAX);
        let first = f.push(1, 1, 0);
        f.push(2, 3, 0);
        // A Load slot grew into a Store.
        assert_eq!(f.q.resize_slot(&mut f.slab, first, 3), 6);
        assert_eq!(f.q.packets_used(), 6);
        let (_, packets) = f.pop(0);
        assert_eq!(packets, 3);
        assert_eq!(f.q.packets_used(), 3);
    }

    #[test]
    fn iter_walks_the_chain_head_first() {
        let mut f = Fixture::new(usize::MAX);
        let first = f.push(1, 1, 0);
        let second = f.push(2, 3, 4);
        let walked: Vec<(Handle, u8, Cycle)> = (f.q.iter(&f.slab))
            .map(|(h, l)| (h, l.packets, l.head_arrival))
            .collect();
        assert_eq!(walked, [(first, 1, 0), (second, 3, 4)]);
        assert_eq!(*f.slab.body(second), 2);
        assert_eq!(f.pop(0).0, 1);
        assert_eq!(f.pop(4).0, 2);
    }

    #[test]
    fn empty_queue_not_ready() {
        let f = Fixture::new(4);
        assert!(f.q.ready_head(&f.slab, 100).is_none());
        assert!(f.q.is_empty());
        assert_eq!(f.q.head(&f.slab), NIL);
        assert_eq!(f.q.tail, NIL);
    }

    #[test]
    fn a_one_message_ring_closes_on_itself() {
        let mut f = Fixture::new(usize::MAX);
        let only = f.push(1, 3, 0);
        assert_eq!(f.q.tail, only);
        assert_eq!(f.slab.link(only).next, only, "tail.next == tail");
        assert_eq!(f.q.head(&f.slab), only);
        assert_eq!(f.q.len(&f.slab), 1);
        let second = f.push(2, 1, 0);
        assert_eq!(
            f.slab.link(second).next,
            only,
            "the new tail closes the ring"
        );
        assert_eq!(f.slab.link(only).next, second);
        assert_eq!(f.q.head(&f.slab), only);
    }

    #[test]
    fn pop_to_empty_then_push_starts_a_fresh_ring() {
        let mut f = Fixture::new(usize::MAX);
        f.push(1, 1, 0);
        f.push(2, 1, 0);
        assert_eq!(f.pop(0).0, 1);
        assert_eq!(f.pop(1).0, 2);
        assert!(f.q.is_empty());
        assert_eq!(f.q.packets_used(), 0);
        let again = f.push(3, 3, 2);
        assert_eq!(f.slab.link(again).next, again);
        assert_eq!(f.q.head(&f.slab), again);
        assert!(f.q.ready_head(&f.slab, 2).is_some());
        assert_eq!(f.pop(2), (3, 3));
        assert!(f.slab.is_empty());
    }

    #[test]
    fn iter_stops_at_the_tail() {
        let mut f = Fixture::new(usize::MAX);
        let handles: Vec<Handle> = (0..4).map(|i| f.push(i, 1, 0)).collect();
        let walked: Vec<Handle> = f.q.iter(&f.slab).map(|(h, _)| h).collect();
        assert_eq!(walked, handles, "once round the ring, not forever");
        assert_eq!(f.q.len(&f.slab), 4);
        // Popping the head moves the ring's start, not its end.
        let _ = f.pop(0);
        let walked: Vec<Handle> = f.q.iter(&f.slab).map(|(h, _)| h).collect();
        assert_eq!(walked, handles[1..]);
        assert_eq!(f.slab.link(handles[3]).next, handles[1]);
    }

    #[test]
    fn push_returns_the_occupancy_it_leaves() {
        let mut f = Fixture::new(usize::MAX);
        let h = f.slab.insert(1, 3, 0);
        assert_eq!(f.q.push(&mut f.slab, h, 0, f.capacity), 3);
        let h = f.slab.insert(2, 1, 0);
        assert_eq!(f.q.push(&mut f.slab, h, 0, f.capacity), 4);
    }

    #[test]
    fn freed_handles_are_reused_last_freed_first() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1, 1, 0);
        let b = slab.insert(2, 1, 0);
        assert_eq!(slab.remove(a), 1);
        assert_eq!(slab.remove(b), 2);
        assert_eq!(slab.insert(3, 1, 5), b);
        assert_eq!(slab.insert(4, 1, 6), a);
        assert_eq!(slab.link(b).amalgam, 5, "a reused slot starts afresh");
        assert!(!slab.link(b).combined_here);
        assert_eq!(slab.slots(), 2, "no growth while free slots exist");
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn a_hop_moves_the_handle_not_the_body() {
        let mut slab: Slab<u32> = Slab::new();
        let (mut up, mut down) = (OutQueue::new(), OutQueue::new());
        let h = slab.insert(7, 3, 9);
        up.push(&mut slab, h, 0, 15);
        let moved = up.pop_for_transmit(&mut slab, 0);
        down.push(&mut slab, moved, 1, 15);
        assert_eq!(moved, h);
        assert!(up.is_empty());
        assert_eq!(down.head(&slab), h);
        assert_eq!(*slab.body(h), 7);
        assert_eq!(slab.link(h).amalgam, 9, "the register rides in the link");
        assert_eq!(down.packets_used(), 3);
        assert_eq!(slab.live(), 1);
    }

    /// A hop reads one port record and one link record; a field added to
    /// either, or to a message, must not silently push it across another
    /// cache line. At 16 bytes, four port records share a 64-byte line.
    #[test]
    fn layout_keeps_a_hop_on_few_cache_lines() {
        use crate::message::{Message, Reply};
        use std::mem::size_of;
        assert!(size_of::<Link>() <= 24, "link record {}", size_of::<Link>());
        assert_eq!(size_of::<OutQueue>(), 16, "tail, packets, link timing");
        assert_eq!(size_of::<Message>(), 56);
        assert_eq!(size_of::<Reply>(), 64);
        assert_eq!(size_of::<Option<Message>>(), 56, "the body column's slot");
        assert_eq!(size_of::<Option<Reply>>(), 64);
    }
}
