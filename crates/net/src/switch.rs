//! The fabric's k×k bidirectional switches (§3.3), stored by column.
//!
//! Each switch is "essentially a 2×2 bidirectional routing device" (the
//! paper details 2×2; everything generalizes to k×k, §3.1.1) made of two
//! nearly independent halves:
//!
//! * the **forward** half: `k` ToMM output queues into which arriving
//!   requests are routed by destination digit, with the combining search on
//!   insertion (§3.3.1);
//! * the **reverse** half: `k` ToPE output queues for replies;
//! * the **wait buffer** linking them: each combine deposits an entry, and
//!   a returning reply whose id matches an entry spawns the absorbed
//!   request's reply (§3.3).
//!
//! The §3.3 simplification "the structure of the switch is simplified if it
//! supports only combinations of pairs" is honoured via the
//! `combined_here` flag: a queue slot that has already combined in this
//! switch will not absorb a third request, but a combined message can
//! combine again at later stages ("combined requests can themselves be
//! combined", §3.1.2).
//!
//! # Storage
//!
//! A switch is not an object. [`Switches`] holds one network's switch
//! state as columns: every ToMM port record in one `Vec<OutQueue>` and
//! every ToPE port record in another, stage-major, a stage's slice indexed
//! `switch · k + port`; the queued messages in two [`Slab`]s (requests,
//! replies), each queue's messages chained into a ring through their link
//! records (see [`crate::queue`]); the per-switch wait-entry count,
//! combine count and ToMM high-water mark in three more columns; and
//! every wait entry of the network in one table keyed `(switch cell,
//! survivor id)`. An idle switch therefore costs `2k` 16-byte port
//! records and sixteen bytes of counters — no heap of its own — and a
//! sweep over a stage reads consecutive memory. The high-water mark is
//! kept per switch, not per port, because the heatmap and the §4.2 queue
//! sizing question read it per switch; ToPE queues keep none, since no
//! one reads one.
//!
//! A hop reads the port record and the 24-byte link records of the
//! message it moves and of its queue's tail, never the message: the
//! output port comes from the link's amalgam, which this module derives
//! at admission and steps at each switch. A message body is read only to
//! search a non-empty ToMM queue for a combining partner and to match the
//! wait table at a switch that holds wait entries.

use crate::combine::{kinds_combinable, try_combine, WaitEntry};
use crate::config::{NetConfig, SwitchPolicy};
use crate::message::{Message, MsgId, Reply, ReplyKind};
use crate::queue::{Handle, OutQueue, Slab};
use crate::route::Topology;
use crate::stats::NetStats;
use ultra_sim::heap::{map_bytes, vec_bytes};
use ultra_sim::{Cycle, IdMap};

/// What became of a request offered to a switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// Queued normally in a ToMM queue.
    Queued,
    /// Merged into an already-queued request; a wait-buffer entry was
    /// recorded and the request will be answered on the return trip.
    Combined,
    /// Killed under [`SwitchPolicy::DropOnConflict`]; the caller must
    /// arrange the retry.
    Dropped(Message),
}

/// The state of every switch of one network (see the module docs for the
/// layout). Switches are addressed `(stage, switch)`, stage 0 on the PE
/// side.
#[derive(Debug, Clone)]
pub struct Switches {
    /// The wiring: `k`, the switches per stage (`width`) and the stages,
    /// and every routing decision a hop makes.
    topo: Topology,
    /// ToMM port records, `(stage · width + switch) · k + port`.
    to_mm: Vec<OutQueue>,
    /// ToPE port records, same indexing.
    to_pe: Vec<OutQueue>,
    /// Live wait-buffer entries per switch cell (`stage · width + switch`).
    wait_len: Vec<u32>,
    /// Combines performed per switch cell — the per-cell source of the
    /// hot-spot heatmap (the aggregate lives in `NetStats::combines`).
    combines: Vec<u64>,
    /// Largest packet occupancy any ToMM queue of the cell reached, raised
    /// on every push and every combine that grows a queued slot.
    request_high_water: Vec<u32>,
    /// Every wait-buffer entry of the network, keyed by the cell that
    /// holds it and the surviving request's id.
    wait: IdMap<(u32, MsgId), WaitEntry>,
    requests: Slab<Message>,
    replies: Slab<Reply>,
    request_capacity: usize,
    reply_capacity: usize,
    wait_capacity: usize,
    policy: SwitchPolicy,
    data_packets: u8,
    ctl_packets: u8,
}

impl Switches {
    /// Creates the idle switches of the network `cfg` describes.
    ///
    /// # Panics
    ///
    /// Panics unless [`Topology::new`] accepts `cfg.pes` and `cfg.k`, or
    /// if the fabric has more than `u32::MAX` switches.
    #[must_use]
    pub fn new(cfg: &NetConfig) -> Self {
        let topo = Topology::new(cfg.pes, cfg.k);
        let cells = topo.stages() * topo.switches_per_stage();
        assert!(u32::try_from(cells).is_ok(), "switch cells fit in u32");
        Self {
            topo,
            to_mm: vec![OutQueue::new(); cells * cfg.k],
            to_pe: vec![OutQueue::new(); cells * cfg.k],
            wait_len: vec![0; cells],
            combines: vec![0; cells],
            request_high_water: vec![0; cells],
            wait: IdMap::default(),
            requests: Slab::new(),
            replies: Slab::new(),
            request_capacity: cfg.request_queue_packets,
            reply_capacity: cfg.reply_queue_packets,
            wait_capacity: cfg.wait_entries,
            policy: cfg.policy,
            data_packets: cfg.data_packets,
            ctl_packets: cfg.ctl_packets,
        }
    }

    /// Heap bytes the switches own: port and cell columns, the wait
    /// buffer and both message slabs.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.to_mm)
            + vec_bytes(&self.to_pe)
            + vec_bytes(&self.wait_len)
            + vec_bytes(&self.combines)
            + vec_bytes(&self.request_high_water)
            + map_bytes(&self.wait)
            + self.requests.heap_bytes()
            + self.replies.heap_bytes()
    }

    /// The wiring these switches are connected by.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn cell(&self, stage: usize, switch: usize) -> usize {
        let width = self.topo.switches_per_stage();
        debug_assert!(stage < self.topo.stages() && switch < width);
        stage * width + switch
    }

    /// Index of port `port` of switch `(stage, switch)` in the port
    /// columns.
    fn port_at(&self, stage: usize, switch: usize, port: usize) -> usize {
        self.cell(stage, switch) * self.topo.k() + port
    }

    /// The slab holding every request in the fabric — pass it to the
    /// [`OutQueue`] accessors to follow a ToMM queue's chain.
    #[must_use]
    pub fn requests(&self) -> &Slab<Message> {
        &self.requests
    }

    /// The slab holding every reply in the fabric.
    #[must_use]
    pub fn replies(&self) -> &Slab<Reply> {
        &self.replies
    }

    /// The ToMM queue behind output port `port` of switch `(stage, switch)`.
    #[must_use]
    pub fn to_mm_queue(&self, stage: usize, switch: usize, port: usize) -> &OutQueue {
        &self.to_mm[self.port_at(stage, switch, port)]
    }

    /// The ToPE queue behind output port `port` of switch `(stage, switch)`.
    #[must_use]
    pub fn to_pe_queue(&self, stage: usize, switch: usize, port: usize) -> &OutQueue {
        &self.to_pe[self.port_at(stage, switch, port)]
    }

    /// Number of live wait-buffer entries in switch `(stage, switch)`.
    #[must_use]
    pub fn wait_occupancy(&self, stage: usize, switch: usize) -> usize {
        self.wait_len[self.cell(stage, switch)] as usize
    }

    /// Wait-buffer entries outstanding across every switch.
    #[must_use]
    pub fn total_wait_occupancy(&self) -> usize {
        self.wait.len()
    }

    /// Checks the wait table's bookkeeping: the per-switch counts sum to
    /// the entries in the table, and no switch holds more entries than
    /// its `wait_entries`.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn check_wait_table(&self) {
        let counted: usize = self.wait_len.iter().map(|&n| n as usize).sum();
        assert_eq!(counted, self.wait.len(), "wait table: Σ wait_len");
        if let Some(cell) = (self.wait_len.iter()).position(|&n| n as usize > self.wait_capacity) {
            panic!(
                "wait table: switch cell {cell} holds {} of {} entries",
                self.wait_len[cell], self.wait_capacity
            );
        }
    }

    /// Whether any ToMM (forward) output queue of the switch holds a
    /// message — the occupancy predicate behind the forward active sets: a
    /// switch is in its stage's forward worklist exactly while this is true.
    #[must_use]
    pub fn has_forward_traffic(&self, stage: usize, switch: usize) -> bool {
        let base = self.port_at(stage, switch, 0);
        self.to_mm[base..base + self.topo.k()]
            .iter()
            .any(|q| !q.is_empty())
    }

    /// Whether any ToPE (reverse) output queue of the switch holds a reply
    /// — the occupancy predicate behind the reverse active sets.
    ///
    /// Wait-buffer entries are deliberately not traffic: an entry only
    /// exists while its combined request is in flight towards memory (so
    /// some queue somewhere is non-empty), except for poisoned ghost
    /// entries which persist forever and must not keep the fabric "busy".
    #[must_use]
    pub fn has_reverse_traffic(&self, stage: usize, switch: usize) -> bool {
        let base = self.port_at(stage, switch, 0);
        self.to_pe[base..base + self.topo.k()]
            .iter()
            .any(|q| !q.is_empty())
    }

    /// Fault hook: one wait-buffer slot of switch `(stage, switch)` sticks.
    /// A ghost entry keyed by an id no real message can carry is inserted
    /// and never deallocated, so the slot is permanently lost to combining
    /// (the §3.3 capacity shrinks by one). Loses no data — only future
    /// combining capacity. Returns `false` if the buffer has no free slot
    /// to lose.
    pub fn poison_wait_entry(&mut self, stage: usize, switch: usize, stats: &mut NetStats) -> bool {
        let cell = self.cell(stage, switch);
        let held = self.wait_len[cell];
        if held as usize >= self.wait_capacity {
            return false;
        }
        // Ids above the top bit are never minted by PNIs (pe << 44 + seq)
        // or network id bases (1 + copy << 48), so the ghost never matches
        // a returning reply.
        let ghost = MsgId(u64::MAX - u64::from(held));
        self.wait.insert(
            (cell as u32, ghost),
            WaitEntry {
                survivor: ghost,
                absorbed_id: ghost,
                absorbed_pe: ultra_sim::PeId(0),
                addr: ultra_sim::MemAddr::new(ultra_sim::MmId(0), 0),
                absorbed_issued_at: 0,
                absorbed_reply_kind: ReplyKind::Ack,
                rule: crate::combine::ReplyRule::Ack,
            },
        );
        self.wait_len[cell] += 1;
        stats.stuck_wait_entries.incr();
        true
    }

    /// Combines performed in switch `(stage, switch)` since construction.
    #[must_use]
    pub fn combines(&self, stage: usize, switch: usize) -> u64 {
        self.combines[self.cell(stage, switch)]
    }

    /// Largest packet occupancy any ToMM queue of switch `(stage, switch)`
    /// reached.
    #[must_use]
    pub fn request_queue_high_water(&self, stage: usize, switch: usize) -> usize {
        self.request_high_water[self.cell(stage, switch)] as usize
    }

    /// Largest packet occupancy any ToMM queue in the fabric reached.
    #[must_use]
    pub fn fabric_request_queue_high_water(&self) -> usize {
        self.request_high_water.iter().copied().max().unwrap_or(0) as usize
    }

    /// Links the admitted request `handle` at the tail of ToMM queue `q`
    /// of cell `cell`.
    fn queue_request(&mut self, cell: usize, q: usize, handle: Handle, head_arrival: Cycle) {
        let used = self.to_mm[q].push(
            &mut self.requests,
            handle,
            head_arrival,
            self.request_capacity,
        );
        self.raise_high_water(cell, used);
    }

    /// Raises cell `cell`'s ToMM high-water mark to `used` packets, the
    /// occupancy a push or a resize left in one of its queues.
    fn raise_high_water(&mut self, cell: usize, used: u32) {
        let mark = &mut self.request_high_water[cell];
        *mark = (*mark).max(used);
    }

    fn packets_of(&self, msg: &Message) -> u8 {
        msg.packets(self.data_packets, self.ctl_packets)
    }

    fn reply_packets(&self, reply: &Reply) -> u8 {
        reply.packets(self.data_packets, self.ctl_packets)
    }

    /// Stores `msg` in the request slab, unlinked — the fabric-edge step
    /// before [`Switches::accept_request`] queues it in a stage-0 switch.
    /// Its routing register starts as the destination MM number.
    pub fn admit_request(&mut self, msg: Message) -> Handle {
        let packets = self.packets_of(&msg);
        let amalgam = msg.addr.mm.0;
        self.requests.insert(msg, packets, amalgam)
    }

    /// Stores `reply` in the reply slab, unlinked, about to enter a
    /// switch of `stage`: its routing register starts as what the
    /// stages behind it would have made of the destination PE number
    /// (the number itself at the last stage, where MNIs inject).
    pub fn admit_reply(&mut self, reply: Reply, stage: usize) -> Handle {
        let packets = self.reply_packets(&reply);
        let amalgam = self
            .topo
            .reverse_amalgam_at(reply.dst, reply.addr.mm, stage);
        self.replies.insert(reply, packets, amalgam)
    }

    /// Takes a request that left its last queue out of the fabric.
    pub fn release_request(&mut self, handle: Handle) -> Message {
        self.requests.remove(handle)
    }

    /// Takes a reply that left its last queue out of the fabric.
    pub fn release_reply(&mut self, handle: Handle) -> Reply {
        self.replies.remove(handle)
    }

    /// Whether the head of ToMM queue `(stage, switch, port)` may start
    /// transmission at `now`; returns its handle and packet length.
    #[must_use]
    pub fn forward_head_ready(
        &self,
        stage: usize,
        switch: usize,
        port: usize,
        now: Cycle,
    ) -> Option<(Handle, u8)> {
        let q = &self.to_mm[self.port_at(stage, switch, port)];
        let head = q.ready_head(&self.requests, now)?;
        Some((head, self.requests.link(head).packets))
    }

    /// Reverse-direction mirror of [`Switches::forward_head_ready`].
    #[must_use]
    pub fn reverse_head_ready(
        &self,
        stage: usize,
        switch: usize,
        port: usize,
        now: Cycle,
    ) -> Option<(Handle, u8)> {
        let q = &self.to_pe[self.port_at(stage, switch, port)];
        let head = q.ready_head(&self.replies, now)?;
        Some((head, self.replies.link(head).packets))
    }

    /// Unlinks the head of ToMM queue `(stage, switch, port)` for
    /// transmission starting at `now`. The request stays in the slab: hand
    /// the handle to [`Switches::accept_request`] downstream or to
    /// [`Switches::release_request`] at the MM edge.
    ///
    /// # Panics
    ///
    /// Panics if the head is not ready to transmit.
    pub fn transmit_request(
        &mut self,
        stage: usize,
        switch: usize,
        port: usize,
        now: Cycle,
    ) -> Handle {
        let q = self.port_at(stage, switch, port);
        self.to_mm[q].pop_for_transmit(&mut self.requests, now)
    }

    /// Reverse-direction mirror of [`Switches::transmit_request`].
    ///
    /// # Panics
    ///
    /// Panics if the head is not ready to transmit.
    pub fn transmit_reply(
        &mut self,
        stage: usize,
        switch: usize,
        port: usize,
        now: Cycle,
    ) -> Handle {
        let q = self.port_at(stage, switch, port);
        self.to_pe[q].pop_for_transmit(&mut self.replies, now)
    }

    /// Whether stage-0 switch `switch` can take `msg`, a request not yet
    /// admitted, right now — the PNI's check before injecting.
    #[must_use]
    pub fn can_admit_request(&self, switch: usize, msg: &Message) -> bool {
        let port = self.topo.forward_out_port(msg.addr.mm, 0);
        self.request_room(self.cell(0, switch), port, self.packets_of(msg), || msg)
    }

    /// Whether switch `(stage, switch)` can take the in-flight request
    /// `handle` right now (an upstream switch calls this before
    /// transmitting). Reads the request's link record; its body only if a
    /// full target queue must be searched for a combining partner.
    #[must_use]
    pub fn can_accept_request(&self, stage: usize, switch: usize, handle: Handle) -> bool {
        let link = self.requests.link(handle);
        let port = self.topo.amalgam_out_port(link.amalgam, stage);
        self.request_room(self.cell(stage, switch), port, link.packets, || {
            self.requests.body(handle)
        })
    }

    /// Whether ToMM port `port` of cell `cell` has room for a request of
    /// `packets` packets. A request that will combine is always
    /// acceptable: it consumes no queue space. `incoming` yields the
    /// request itself, asked for only when that search must run.
    fn request_room<'a>(
        &'a self,
        cell: usize,
        port: usize,
        packets: u8,
        incoming: impl FnOnce() -> &'a Message,
    ) -> bool {
        let queue = &self.to_mm[cell * self.topo.k() + port];
        match self.policy {
            // Drops are decided (and reported) inside `accept_request`.
            SwitchPolicy::DropOnConflict => true,
            SwitchPolicy::QueuedNoCombine => queue.can_accept(packets, self.request_capacity),
            SwitchPolicy::QueuedCombining => {
                queue.can_accept(packets, self.request_capacity)
                    || ((self.wait_len[cell] as usize) < self.wait_capacity
                        && !queue.is_empty()
                        && self.combine_candidate(queue, incoming()).is_some())
            }
        }
    }

    /// The first queued slot (head first) `msg` could combine with: same
    /// word, combinable kinds, not yet combined in this switch.
    fn combine_candidate(&self, queue: &OutQueue, msg: &Message) -> Option<Handle> {
        queue
            .iter(&self.requests)
            .find(|&(handle, link)| {
                let queued = self.requests.body(handle);
                !link.combined_here
                    && queued.addr == msg.addr
                    && kinds_combinable(queued.kind, msg.kind)
            })
            .map(|(handle, _)| handle)
    }

    /// Routes the admitted request `handle` into the proper ToMM queue of
    /// switch `(stage, switch)`, combining if possible. `head_arrival` is
    /// the cycle the head becomes available for onward transmission. The
    /// handle is consumed: queued, freed by the combine, or freed and
    /// returned by value in [`AcceptOutcome::Dropped`].
    ///
    /// # Panics
    ///
    /// Panics if the caller did not verify [`Switches::can_accept_request`].
    pub fn accept_request(
        &mut self,
        stage: usize,
        switch: usize,
        handle: Handle,
        in_port: usize,
        head_arrival: Cycle,
        stats: &mut NetStats,
    ) -> AcceptOutcome {
        let cell = self.cell(stage, switch);
        let link = self.requests.link_mut(handle);
        let (out_port, updated) = self.topo.step_amalgam(link.amalgam, stage, in_port);
        link.amalgam = updated;
        let q = cell * self.topo.k() + out_port;

        if self.policy == SwitchPolicy::DropOnConflict {
            if self.to_mm[q].is_empty() {
                self.queue_request(cell, q, handle, head_arrival);
                return AcceptOutcome::Queued;
            }
            stats.drops.incr();
            // The retry re-enters from the PE, where admission derives a
            // fresh routing register.
            return AcceptOutcome::Dropped(self.requests.remove(handle));
        }

        if self.policy == SwitchPolicy::QueuedCombining && !self.to_mm[q].is_empty() {
            let incoming = self.requests.body(handle);
            if let Some(candidate) = self.combine_candidate(&self.to_mm[q], incoming) {
                if (self.wait_len[cell] as usize) < self.wait_capacity {
                    let (queued, incoming) = self.requests.bodies_mut(candidate, handle);
                    let incoming_id = incoming.id;
                    if let Some(entry) = try_combine(queued, incoming) {
                        let new_packets = queued.packets(self.data_packets, self.ctl_packets);
                        // A slot that took over the incoming request's
                        // identity (Load+Store, Load+FΦ, FΦ+Store) now
                        // routes as that request did.
                        if entry.survivor == incoming_id {
                            let amalgam = self.requests.link(handle).amalgam;
                            self.requests.link_mut(candidate).amalgam = amalgam;
                        }
                        self.requests.link_mut(candidate).combined_here = true;
                        let used =
                            self.to_mm[q].resize_slot(&mut self.requests, candidate, new_packets);
                        self.raise_high_water(cell, used);
                        self.requests.remove(handle);
                        let prior = self.wait.insert((cell as u32, entry.survivor), entry);
                        debug_assert!(
                            prior.is_none(),
                            "pair-only combining: one wait entry per survivor per switch"
                        );
                        self.wait_len[cell] += 1;
                        stats.combines.incr();
                        stats.combines_by_stage[stage].incr();
                        self.combines[cell] += 1;
                        return AcceptOutcome::Combined;
                    }
                } else {
                    stats.wait_buffer_declines.incr();
                }
            }
        }

        self.queue_request(cell, q, handle, head_arrival);
        AcceptOutcome::Queued
    }

    /// Whether last-stage switch `switch` can take `reply`, not yet
    /// admitted, right now — the MNI's check before injecting.
    #[must_use]
    pub fn can_admit_reply(&self, switch: usize, reply: &Reply) -> bool {
        let stage = self.topo.stages() - 1;
        let port = self.topo.reverse_out_port(reply.dst, stage);
        let len = self.reply_packets(reply);
        self.reply_room(self.cell(stage, switch), port, len, stage, || reply.id)
    }

    /// Whether switch `(stage, switch)` can take the in-flight reply
    /// `handle` right now, *including* space for any decombined reply its
    /// arrival would spawn. Reads the reply's body only at a switch that
    /// holds wait entries.
    #[must_use]
    pub fn can_accept_reply(&self, stage: usize, switch: usize, handle: Handle) -> bool {
        let link = self.replies.link(handle);
        let port = self.topo.amalgam_out_port(link.amalgam, stage);
        self.reply_room(self.cell(stage, switch), port, link.packets, stage, || {
            self.replies.body(handle).id
        })
    }

    /// Whether ToPE port `port` of cell `cell` has room for a reply of
    /// `len` packets plus the reply its wait entry (if any) would spawn;
    /// `id` yields the reply's id, asked for only if the cell holds wait
    /// entries.
    fn reply_room(
        &self,
        cell: usize,
        port: usize,
        len: u8,
        stage: usize,
        id: impl FnOnce() -> MsgId,
    ) -> bool {
        let base = cell * self.topo.k();
        let cap = self.reply_capacity;
        // A cell with an empty buffer — the common case — answers from its
        // counter alone, without asking for the id.
        let entry = (self.wait_len[cell] > 0)
            .then(|| self.wait.get(&(cell as u32, id())))
            .flatten();
        match entry {
            None => self.to_pe[base + port].can_accept(len, cap),
            Some(entry) => {
                let spawn_port = self.topo.reverse_out_port(entry.absorbed_pe, stage);
                let spawn_len = match entry.absorbed_reply_kind {
                    ReplyKind::Value => self.data_packets,
                    ReplyKind::Ack | ReplyKind::Nack => self.ctl_packets,
                };
                if spawn_port == port {
                    self.to_pe[base + port].can_accept(len + spawn_len, cap)
                } else {
                    self.to_pe[base + port].can_accept(len, cap)
                        && self.to_pe[base + spawn_port].can_accept(spawn_len, cap)
                }
            }
        }
    }

    /// Routes the admitted reply `handle` into the proper ToPE queue of
    /// switch `(stage, switch)`, consulting the wait buffer and spawning
    /// the absorbed request's reply on a match (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if the caller did not verify [`Switches::can_accept_reply`].
    pub fn accept_reply(
        &mut self,
        stage: usize,
        switch: usize,
        handle: Handle,
        in_port: usize,
        head_arrival: Cycle,
        stats: &mut NetStats,
    ) {
        let cell = self.cell(stage, switch);
        let base = cell * self.topo.k();
        let link = self.replies.link_mut(handle);
        let (out_port, updated) = self.topo.step_amalgam(link.amalgam, stage, in_port);
        link.amalgam = updated;
        self.to_pe[base + out_port].push(
            &mut self.replies,
            handle,
            head_arrival,
            self.reply_capacity,
        );

        if self.wait_len[cell] == 0 {
            return;
        }
        let id = self.replies.body(handle).id;
        if let Some(entry) = self.wait.remove(&(cell as u32, id)) {
            self.wait_len[cell] -= 1;
            let spawn = entry.make_reply(self.replies.body(handle));
            stats.decombines.incr();
            let spawn = self.admit_reply(spawn, stage);
            let link = self.replies.link_mut(spawn);
            let (spawn_port, spawn_updated) = self.topo.step_amalgam(link.amalgam, stage, in_port);
            link.amalgam = spawn_updated;
            // The spawned reply streams out right behind the triggering one;
            // model its head as available one packet later.
            self.to_pe[base + spawn_port].push(
                &mut self.replies,
                spawn,
                head_arrival + 1,
                self.reply_capacity,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use ultra_sim::{MemAddr, MmId, PeId};

    fn cfg() -> NetConfig {
        NetConfig::small(8)
    }

    fn topo() -> Topology {
        Topology::new(8, 2)
    }

    fn req(id: u64, pe: usize, mm: usize, kind: MsgKind, value: i64) -> Message {
        Message::request(
            MsgId(id),
            kind,
            MemAddr::new(MmId(mm), 0),
            value,
            PeId(pe),
            0,
        )
    }

    /// Sends `msg` into the stage-0 switch it would physically enter.
    fn into_stage0(
        sw: &mut Switches,
        topo: &Topology,
        msg: Message,
        stats: &mut NetStats,
    ) -> AcceptOutcome {
        let (switch, in_port) = topo.pe_entry(msg.src);
        let handle = sw.admit_request(msg);
        sw.accept_request(0, switch, handle, in_port, 1, stats)
    }

    /// Messages queued on ToMM port `port` of stage-0 switch `switch`.
    fn to_mm_len(sw: &Switches, switch: usize, port: usize) -> usize {
        sw.to_mm_queue(0, switch, port).len(sw.requests())
    }

    #[test]
    fn routes_by_destination_digit() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        // PEs 0 and 4 share stage-0 switch 0 (entry = shuffle).
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&cfg());
        // MM 3 = 0b011: stage 0 uses the msb (0); MM 7 = 0b111: msb 1.
        into_stage0(&mut sw, &t, req(1, 0, 3, MsgKind::Load, 0), &mut stats);
        into_stage0(&mut sw, &t, req(2, 0, 7, MsgKind::Load, 0), &mut stats);
        assert_eq!(to_mm_len(&sw, sw0, 0), 1);
        assert_eq!(to_mm_len(&sw, sw0, 1), 1);
    }

    #[test]
    fn combines_two_fetch_adds() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let (sw0b, _) = t.pe_entry(PeId(4));
        assert_eq!(sw0, sw0b, "PEs 0 and 4 share a stage-0 switch");
        let mut sw = Switches::new(&cfg());
        let a = req(1, 0, 3, MsgKind::fetch_add(), 5);
        let b = req(2, 4, 3, MsgKind::fetch_add(), 9);
        assert_eq!(
            into_stage0(&mut sw, &t, a, &mut stats),
            AcceptOutcome::Queued
        );
        assert_eq!(
            into_stage0(&mut sw, &t, b, &mut stats),
            AcceptOutcome::Combined
        );
        assert_eq!(to_mm_len(&sw, sw0, 0), 1, "one message on the wire");
        assert_eq!(
            sw.requests().live(),
            1,
            "the absorbed request left the slab"
        );
        assert_eq!(sw.wait_occupancy(0, sw0), 1);
        assert_eq!(sw.combines(0, sw0), 1);
        assert_eq!(stats.combines.get(), 1);
        let head = sw.to_mm_queue(0, sw0, 0).head(sw.requests());
        assert_eq!(sw.requests().body(head).value, 14, "operands summed");
        assert!(sw.requests().link(head).combined_here);
    }

    #[test]
    fn pair_only_third_request_queues() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&cfg());
        for (id, pe) in [(1, 0), (2, 4)] {
            into_stage0(
                &mut sw,
                &t,
                req(id, pe, 3, MsgKind::fetch_add(), 1),
                &mut stats,
            );
        }
        // Third request to the same word: the existing slot already
        // combined, so it must queue separately (§3.3 pair-only).
        let outcome = into_stage0(
            &mut sw,
            &t,
            req(3, 0, 3, MsgKind::fetch_add(), 1),
            &mut stats,
        );
        assert_eq!(outcome, AcceptOutcome::Queued);
        assert_eq!(to_mm_len(&sw, sw0, 0), 2);
    }

    #[test]
    fn fourth_request_combines_with_third() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&cfg());
        for (id, pe) in [(1, 0), (2, 4), (3, 0), (4, 4)] {
            into_stage0(
                &mut sw,
                &t,
                req(id, pe, 3, MsgKind::fetch_add(), 1),
                &mut stats,
            );
        }
        assert_eq!(to_mm_len(&sw, sw0, 0), 2, "two combined pairs");
        assert_eq!(stats.combines.get(), 2);
        assert_eq!(sw.wait_occupancy(0, sw0), 2);
        assert_eq!(sw.total_wait_occupancy(), 2);
    }

    #[test]
    fn full_wait_buffer_declines_combining() {
        let t = topo();
        let mut c = cfg();
        c.wait_entries = 0;
        let mut stats = NetStats::new(t.stages());
        let mut sw = Switches::new(&c);
        into_stage0(
            &mut sw,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        let outcome = into_stage0(
            &mut sw,
            &t,
            req(2, 4, 3, MsgKind::fetch_add(), 9),
            &mut stats,
        );
        assert_eq!(outcome, AcceptOutcome::Queued);
        assert_eq!(stats.wait_buffer_declines.get(), 1);
    }

    #[test]
    fn no_combine_policy_keeps_requests_separate() {
        let t = topo();
        let mut c = cfg();
        c.policy = SwitchPolicy::QueuedNoCombine;
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&c);
        into_stage0(
            &mut sw,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        into_stage0(
            &mut sw,
            &t,
            req(2, 4, 3, MsgKind::fetch_add(), 9),
            &mut stats,
        );
        assert_eq!(to_mm_len(&sw, sw0, 0), 2);
        assert_eq!(stats.combines.get(), 0);
    }

    #[test]
    fn drop_policy_kills_conflicting_request() {
        let t = topo();
        let mut c = cfg();
        c.policy = SwitchPolicy::DropOnConflict;
        let mut stats = NetStats::new(t.stages());
        let mut sw = Switches::new(&c);
        into_stage0(&mut sw, &t, req(1, 0, 3, MsgKind::Load, 0), &mut stats);
        let outcome = into_stage0(&mut sw, &t, req(2, 4, 7, MsgKind::Load, 0), &mut stats);
        // MM 7 routes to the other port: no conflict.
        assert_eq!(outcome, AcceptOutcome::Queued);
        let outcome = into_stage0(&mut sw, &t, req(3, 0, 3, MsgKind::Load, 0), &mut stats);
        let AcceptOutcome::Dropped(killed) = outcome else {
            panic!("conflicting request must be killed, got {outcome:?}");
        };
        assert_eq!(killed.id, MsgId(3));
        assert_eq!(stats.drops.get(), 1);
        assert_eq!(sw.requests().live(), 2, "the killed request left the slab");
    }

    #[test]
    fn reply_decombines_and_spawns_second_reply() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&cfg());
        let a = req(1, 0, 3, MsgKind::fetch_add(), 5);
        let b = req(2, 4, 3, MsgKind::fetch_add(), 9);
        into_stage0(&mut sw, &t, a, &mut stats);
        into_stage0(&mut sw, &t, b, &mut stats);

        // The combined message would continue to memory holding X = 100 and
        // return a reply for survivor id 1. Route it back into this switch:
        // on the reverse trip it enters on the port it departed from.
        let sent = sw.transmit_request(0, sw0, 0, 1);
        let survivor = sw.release_request(sent);
        assert_eq!(survivor.value, 14);
        assert!(sw.requests().is_empty());
        let reply = Reply::to_request(&survivor, 100);
        let in_port = t.forward_out_port(reply.addr.mm, 0);
        // Entering stage 0 on the reverse trip: admission gives it the
        // amalgam a reply carries at that point.
        let handle = sw.admit_reply(reply, 0);
        assert!(sw.can_accept_reply(0, sw0, handle));
        sw.accept_reply(0, sw0, handle, in_port, 2, &mut stats);
        assert_eq!(stats.decombines.get(), 1);
        assert_eq!(sw.wait_occupancy(0, sw0), 0);
        assert_eq!(sw.total_wait_occupancy(), 0);

        // Collect both replies from the ToPE queues.
        let mut got = Vec::new();
        for port in 0..2 {
            while !sw.to_pe_queue(0, sw0, port).is_empty() {
                let now = sw.to_pe_queue(0, sw0, port).link_free_at().max(10);
                let sent = sw.transmit_reply(0, sw0, port, now);
                got.push(sw.release_reply(sent));
            }
        }
        assert!(sw.replies().is_empty());
        got.sort_by_key(|r| r.id);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, MsgId(1));
        assert_eq!(got[0].value, 100, "first F&A observes X");
        assert_eq!(got[1].id, MsgId(2));
        assert_eq!(got[1].value, 105, "second F&A observes X + 5");
        assert_eq!(got[1].dst, PeId(4));
        assert_eq!(got[1].kind, ReplyKind::Value);
    }

    #[test]
    fn unmatched_reply_passes_straight_through() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let mut sw = Switches::new(&cfg());
        let r = Reply {
            id: MsgId(77),
            dst: PeId(0),
            addr: MemAddr::new(MmId(3), 0),
            value: 1,
            kind: ReplyKind::Value,
            request_issued_at: 0,
            mm_injected_at: 0,
            copy: 0,
        };
        let in_port = t.forward_out_port(MmId(3), 0);
        let handle = sw.admit_reply(r, 0);
        sw.accept_reply(0, 0, handle, in_port, 1, &mut stats);
        let port = t.reverse_out_port(PeId(0), 0);
        assert_eq!(sw.to_pe_queue(0, 0, port).len(sw.replies()), 1);
        assert_eq!(stats.decombines.get(), 0);
    }

    #[test]
    fn poisoned_wait_slot_shrinks_combining_capacity() {
        let t = topo();
        let mut c = cfg();
        c.wait_entries = 1;
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&c);
        assert!(sw.poison_wait_entry(0, sw0, &mut stats));
        assert_eq!(stats.stuck_wait_entries.get(), 1);
        assert_eq!(sw.wait_occupancy(0, sw0), 1);
        // The single wait slot is gone: a combinable pair must decline.
        into_stage0(
            &mut sw,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        let outcome = into_stage0(
            &mut sw,
            &t,
            req(2, 4, 3, MsgKind::fetch_add(), 9),
            &mut stats,
        );
        assert_eq!(outcome, AcceptOutcome::Queued);
        assert_eq!(stats.combines.get(), 0);
        // No free slot left to poison a second time.
        assert!(!sw.poison_wait_entry(0, sw0, &mut stats));
        // The neighbouring switch's buffer is its own.
        assert_eq!(sw.wait_occupancy(0, sw0 + 1), 0);
        assert!(sw.poison_wait_entry(0, sw0 + 1, &mut stats));
    }

    #[test]
    fn can_accept_request_true_when_combinable_despite_full_queue() {
        let t = topo();
        let mut c = cfg();
        c.request_queue_packets = 3;
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&c);
        into_stage0(
            &mut sw,
            &t,
            req(1, 0, 3, MsgKind::fetch_add(), 5),
            &mut stats,
        );
        // Queue now holds 3 packets = full, but a combinable twin must still
        // be acceptable (it takes no space).
        let twin = req(2, 4, 3, MsgKind::fetch_add(), 9);
        assert!(sw.can_admit_request(sw0, &twin));
        // A request to a different word behind the same port is refused.
        let mut other = req(3, 4, 3, MsgKind::fetch_add(), 9);
        other.addr.offset = 99;
        assert!(!sw.can_admit_request(sw0, &other));
        // The same answers for the two once admitted.
        let (twin, other) = (sw.admit_request(twin), sw.admit_request(other));
        assert!(sw.can_accept_request(0, sw0, twin));
        assert!(!sw.can_accept_request(0, sw0, other));
    }

    #[test]
    fn admitted_request_amalgam_starts_as_destination() {
        let t = topo();
        let mut sw = Switches::new(&cfg());
        let handle = sw.admit_request(req(1, 2, 5, MsgKind::Load, 0));
        assert_eq!(sw.requests().link(handle).amalgam, 5);
        let reply = Reply::to_request(&req(2, 6, 3, MsgKind::Load, 0), 0);
        let last = t.stages() - 1;
        let handle = sw.admit_reply(reply, last);
        assert_eq!(
            sw.replies().link(handle).amalgam,
            6,
            "an MNI injects at the PE number"
        );
    }

    #[test]
    fn identity_takeover_takes_the_incoming_routing_register() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&cfg());
        // PEs 0 and 4 enter switch `sw0` on different ports, so their
        // registers differ after the stage-0 step.
        into_stage0(&mut sw, &t, req(1, 0, 3, MsgKind::Load, 0), &mut stats);
        let store = sw.admit_request(req(2, 4, 3, MsgKind::Store, 7));
        let (_, in_port) = t.pe_entry(PeId(4));
        let (_, expect) = t.step_amalgam(3, 0, in_port);
        let outcome = sw.accept_request(0, sw0, store, in_port, 1, &mut stats);
        assert_eq!(outcome, AcceptOutcome::Combined);
        let head = sw.to_mm_queue(0, sw0, 0).head(sw.requests());
        assert_eq!(sw.requests().body(head).id, MsgId(2), "the store survives");
        assert_eq!(sw.requests().link(head).amalgam, expect);
        assert_eq!(sw.requests().link(head).packets, 3, "grown into a store");
    }

    #[test]
    fn resize_slot_raises_the_cell_high_water_mark() {
        let t = topo();
        let mut stats = NetStats::new(t.stages());
        let (sw0, _) = t.pe_entry(PeId(0));
        let mut sw = Switches::new(&cfg());
        into_stage0(&mut sw, &t, req(1, 0, 3, MsgKind::Load, 0), &mut stats);
        assert_eq!(sw.request_queue_high_water(0, sw0), 1, "a one-packet load");
        // The store takes the load's slot over and grows it to three
        // packets: no push, only the resize, raises the mark.
        let outcome = into_stage0(&mut sw, &t, req(2, 4, 3, MsgKind::Store, 7), &mut stats);
        assert_eq!(outcome, AcceptOutcome::Combined);
        assert_eq!(sw.request_queue_high_water(0, sw0), 3);
        // A push on the cell's other port counts from that port's own
        // occupancy, and leaving the queue never lowers the mark.
        into_stage0(&mut sw, &t, req(3, 0, 7, MsgKind::Load, 0), &mut stats);
        assert_eq!(sw.request_queue_high_water(0, sw0), 3);
        let _ = sw.transmit_request(0, sw0, 0, 5);
        assert_eq!(sw.to_mm_queue(0, sw0, 0).packets_used(), 0);
        assert_eq!(sw.request_queue_high_water(0, sw0), 3);
        assert_eq!(sw.fabric_request_queue_high_water(), 3);
        assert_eq!(
            sw.request_queue_high_water(0, sw0 + 1),
            0,
            "a cell of its own"
        );
    }
}
