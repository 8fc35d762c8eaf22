//! The memory side of the machine: `d` copies of the combining Omega
//! network in front of one [`Bank`] per memory module (§3.1, §4.1), whose
//! words and queues are one [`BankStore`].
//! Each PE spreads its requests over the copies round-robin, failing over
//! to the next copy when one refuses; a reply re-enters the network
//! through the copy that carried its request, so decombining matches
//! (the fabric stamps that copy on the request, and the reply copies it); a
//! request every copy refuses outright is reported unroutable rather than
//! wedging its PE; only banks holding work are cycled. Every fault on the
//! copies is applied here: the boot-time [`FaultPlan`]'s static faults at
//! construction, scheduled ones through [`Fabric::apply_copy_fault`]. PE
//! buffers, counters and what to do with a dropped request stay with the
//! caller.

use ultra_faults::{Fault, FaultPlan};
use ultra_net::config::{NetConfig, SweepMode};
use ultra_net::message::{Message, MsgId, MsgKind, Reply};
use ultra_net::omega::{NetworkEvents, OmegaNetwork};
use ultra_net::stats::NetStats;
use ultra_obs::{CounterSnapshot, GaugeSnapshot, HeatmapSnapshot};
use ultra_sim::active::Walk;
use ultra_sim::heap::vec_bytes;
use ultra_sim::{ActiveSet, Cycle, MemAddr, MmId, PeId, Value};

use crate::bank::{Bank, BankStore};

/// What became of a request offered to the [`Fabric`].
#[derive(Debug)]
pub enum Offer {
    /// A copy accepted it.
    Injected,
    /// Every copy that could carry it is busy (backpressure): offer it
    /// again later.
    Refused(Message),
    /// Every copy refuses its route outright (a dead copy, or a dead port
    /// on its only route): it has been dropped.
    Unroutable,
}

/// `d` network copies plus one bank per memory module.
#[derive(Debug, Clone)]
pub struct Fabric {
    nets: Vec<OmegaNetwork>,
    /// Per PE, the copy its next request tries first.
    cursor: Vec<usize>,
    /// Requests a faulted copy refused and a later copy carried.
    failovers: u64,
    /// The one buffer every copy's cycle fills and [`Fabric::advance`]
    /// drains before the next copy cycles; empty between calls.
    events: NetworkEvents,
    banks: Vec<Bank>,
    /// Every bank's words, queued requests and undelivered replies.
    store: BankStore,
    /// Banks holding work: joined on request delivery, left once observed
    /// idle (an idle bank's cycle is a no-op).
    busy: ActiveSet,
}

impl Fabric {
    /// Builds `copies` copies of `net` and one bank per PE serving a
    /// request every `mm_service` cycles, with `plan`'s static faults
    /// applied: per-copy masks, dead modules, slow modules.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is 0 or more than a message's copy stamp names
    /// (256), if `mm_service == 0` or if `net` is invalid.
    #[must_use]
    pub fn new(net: NetConfig, copies: usize, mm_service: Cycle, plan: &FaultPlan) -> Self {
        assert!(copies >= 1, "need at least one network copy");
        assert!(
            copies <= usize::from(u8::MAX) + 1,
            "a message names at most 256 network copies, not {copies}"
        );
        let nets = (0..copies)
            .map(|c| {
                let mut copy = OmegaNetwork::new(net);
                // Disjoint id spaces so wait-buffer keys can never collide
                // across copies.
                copy.set_msg_id_base(1 + ((c as u64) << 48));
                copy.set_fault_mask(plan.mask_for_copy(c));
                copy
            })
            .collect();
        let mut banks: Vec<Bank> = (0..net.pes)
            .map(|i| {
                let factor = Cycle::from(plan.slow_factor(MmId(i)).max(1));
                Bank::new(MmId(i), mm_service * factor)
            })
            .collect();
        let mut store = BankStore::default();
        for mm in plan.dead_mms() {
            banks[mm.0].kill(&mut store);
        }
        Self {
            nets,
            cursor: vec![0; net.pes],
            failovers: 0,
            events: NetworkEvents::default(),
            banks,
            store,
            busy: ActiveSet::new(net.pes),
        }
    }

    /// Applies a fired fault on one copy — [`Fault::KillCopy`],
    /// [`Fault::KillSwitchPort`] or [`Fault::StickWaitEntry`] — and returns
    /// whether it may have severed routes (see [`Fabric::reachability`]).
    /// Module faults are left to the caller, which also re-hashes
    /// translation around them: they return `false` untouched.
    ///
    /// # Panics
    ///
    /// Panics if the fault names a copy, stage or switch that does not
    /// exist.
    pub fn apply_copy_fault(&mut self, fault: Fault) -> bool {
        match fault {
            Fault::KillCopy { copy } => self.nets[copy].kill(),
            Fault::KillSwitchPort {
                copy,
                stage,
                switch,
                port,
            } => {
                let net = &mut self.nets[copy];
                let mut mask = net.fault_mask().clone();
                mask.kill_port(stage, switch, port);
                net.set_fault_mask(mask);
            }
            Fault::StickWaitEntry {
                copy,
                stage,
                switch,
            } => {
                self.nets[copy].poison_wait_entry(stage, switch);
                return false;
            }
            Fault::KillMm { .. } | Fault::SlowMm { .. } => return false,
        }
        true
    }

    /// Which modules each PE can still reach through some copy: `None`
    /// when one copy's routing is intact, so every PE reaches every
    /// module, else `reach[pe][mm]`. Link loss drops single injections
    /// and never severs a route, so a loss-only plan skips the
    /// O(PEs × MMs) route probe.
    #[must_use]
    pub fn reachability(&self) -> Option<Vec<Vec<bool>>> {
        let intact = |net: &OmegaNetwork| {
            let mask = net.fault_mask();
            !mask.copy_dead() && !mask.any_port_dead()
        };
        if self.nets.iter().any(intact) {
            return None;
        }
        let n = self.banks.len();
        let routable = |pe, mm| {
            let addr = MemAddr::new(MmId(mm), 0);
            self.routable(&Message::request(
                MsgId(0),
                MsgKind::Load,
                addr,
                0,
                PeId(pe),
                0,
            ))
        };
        Some(
            (0..n)
                .map(|pe| (0..n).map(|mm| routable(pe, mm)).collect())
                .collect(),
        )
    }

    /// Whether some copy's faults let it carry `msg` (it may be busy).
    fn routable(&self, msg: &Message) -> bool {
        self.nets.iter().any(|net| !net.fault_refuses(msg))
    }

    /// Turns on every bank's exactly-once dedup cache (for retries).
    pub fn enable_dedup(&mut self) {
        self.banks.iter_mut().for_each(Bank::enable_dedup);
    }

    /// Fail-stops module `mm`: its words, queued requests and undelivered
    /// replies are lost, and every later request is discarded.
    pub fn kill_bank(&mut self, mm: MmId) {
        self.banks[mm.0].kill(&mut self.store);
    }

    /// Offers a request at cycle `now` to the copies, starting at the
    /// next one in its PE's round-robin order, stamped with the copy it is
    /// offered to.
    #[inline]
    pub fn offer(&mut self, msg: Message, now: Cycle) -> Offer {
        if !self.routable(&msg) {
            return Offer::Unroutable;
        }
        let pe = msg.src.0;
        let d = self.nets.len();
        let start = self.cursor[pe];
        let mut msg = msg;
        let mut fault_refused = false;
        for offset in 0..d {
            let copy = (start + offset) % d;
            let net = &mut self.nets[copy];
            fault_refused |= net.fault_refuses(&msg);
            msg.copy = copy as u8;
            match net.try_inject_request(msg, now) {
                Ok(()) => {
                    if fault_refused {
                        self.failovers += 1;
                    }
                    self.cursor[pe] = (copy + 1) % d;
                    return Offer::Injected;
                }
                Err(m) => msg = m,
            }
        }
        Offer::Refused(msg)
    }

    /// Cycles every busy bank in bank order, each followed by draining its
    /// replies into the copies that carried their requests until one is
    /// refused.
    pub fn serve_banks(&mut self, now: Cycle) {
        let mut walk = Walk::default();
        while let Some(mm) = walk.next(&self.busy) {
            let bank = &mut self.banks[mm];
            bank.cycle(&mut self.store, now);
            while let Some(reply) = bank.pop_reply(&mut self.store) {
                let copy = usize::from(reply.copy);
                if let Err(refused) = self.nets[copy].try_inject_reply(reply, now) {
                    bank.return_reply(&mut self.store, refused);
                    break;
                }
            }
            if bank.is_idle() {
                self.busy.remove(mm);
            }
        }
    }

    /// Moves every copy one cycle, in copy order (a drained copy is
    /// skipped: it would cycle to itself). Requests reaching a module
    /// join its bank, replies reaching a PE go to `deliveries`, dropped
    /// requests to `on_drop`.
    pub fn advance(
        &mut self,
        now: Cycle,
        deliveries: &mut Vec<Reply>,
        mut on_drop: impl FnMut(Message),
    ) {
        let events = &mut self.events;
        for net in &mut self.nets {
            if net.is_drained() {
                continue;
            }
            net.cycle_into(now, events);
            for msg in events.requests_at_mm.drain(..) {
                let mm = msg.addr.mm.0;
                self.busy.insert(mm);
                self.banks[mm].push_request(&mut self.store, msg);
            }
            for reply in events.replies_at_pe.drain(..) {
                deliveries.push(reply);
            }
            for msg in events.dropped.drain(..) {
                on_drop(msg);
            }
        }
    }

    /// Every request the copies and banks hold (absorbed ones excepted).
    pub fn requests(&self) -> impl Iterator<Item = &Message> {
        let nets = self.nets.iter().flat_map(OmegaNetwork::requests);
        nets.chain(
            self.banks
                .iter()
                .flat_map(|bank| bank.requests(&self.store)),
        )
    }

    /// Whether every copy is drained and every bank idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.nets.iter().all(OmegaNetwork::is_drained) && self.busy.is_empty()
    }

    /// The copies' statistics rolled up: scalar counters summed, transit
    /// histograms merged. `combines_by_stage` stays empty — the machine's
    /// parity digest is taken over this value's `Debug` form, which has
    /// never carried the per-copy stage detail.
    #[must_use]
    pub fn net_stats(&self) -> NetStats {
        let mut total = NetStats::new(0);
        for net in &self.nets {
            let s = net.stats();
            total.injected_requests.add(s.injected_requests.get());
            total.delivered_requests.add(s.delivered_requests.get());
            total.injected_replies.add(s.injected_replies.get());
            total.delivered_replies.add(s.delivered_replies.get());
            total.combines.add(s.combines.get());
            total.decombines.add(s.decombines.get());
            total.wait_buffer_declines.add(s.wait_buffer_declines.get());
            total.drops.add(s.drops.get());
            total.inject_stalls.add(s.inject_stalls.get());
            total.fault_dropped.add(s.fault_dropped.get());
            total.fault_refusals.add(s.fault_refusals.get());
            total.stuck_wait_entries.add(s.stuck_wait_entries.get());
            total.forward_transit.merge(&s.forward_transit);
            total.reverse_transit.merge(&s.reverse_transit);
        }
        total
    }

    /// What a telemetry window samples at its boundary: the copies'
    /// cumulative scalar counters summed, the deepest bank request queue
    /// and the wait-buffer entries across the copies. No allocation, no
    /// histogram merge — this runs at every window boundary.
    #[must_use]
    pub fn telemetry_sample(&self) -> (CounterSnapshot, GaugeSnapshot) {
        let mut c = CounterSnapshot::default();
        let mut wait_occupancy = 0;
        for net in &self.nets {
            let s = net.stats();
            c.injected_requests += s.injected_requests.get();
            c.delivered_requests += s.delivered_requests.get();
            c.injected_replies += s.injected_replies.get();
            c.delivered_replies += s.delivered_replies.get();
            c.combines += s.combines.get();
            c.decombines += s.decombines.get();
            c.inject_stalls += s.inject_stalls.get();
            c.fault_dropped += s.fault_dropped.get();
            c.fault_refusals += s.fault_refusals.get();
            wait_occupancy += net.total_wait_occupancy();
        }
        let mm_queue_depth_max = (self.banks.iter())
            .map(|b| b.queue_depth() as u64)
            .max()
            .unwrap_or(0);
        let gauges = GaugeSnapshot {
            mm_queue_depth_max,
            wait_occupancy,
        };
        (c, gauges)
    }

    /// The hot-spot heatmap merged across the copies: combine counts and
    /// wait occupancy sum per switch position, queue high-water marks
    /// take the per-position maximum.
    #[must_use]
    pub fn heatmap(&self) -> HeatmapSnapshot {
        let mut merged = self.nets[0].heatmap();
        for net in &self.nets[1..] {
            merged.merge(&net.heatmap());
        }
        merged
    }

    /// Requests that a faulted copy refused and a later copy then
    /// carried — the §4.1 redundancy actually doing its job.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Largest forward-queue packet occupancy across all copies.
    #[must_use]
    pub fn request_queue_high_water(&self) -> usize {
        (self.nets.iter())
            .map(OmegaNetwork::request_queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Test hook: forces every copy's switch sweep (the dense scan is the
    /// parity reference for the sparse walk). Not part of a snapshot.
    #[doc(hidden)]
    pub fn set_sweep_mode(&mut self, mode: SweepMode) {
        for net in &mut self.nets {
            net.set_sweep_mode(mode);
        }
    }

    /// Checks every copy's bookkeeping: its wait table and its request
    /// conservation (see [`OmegaNetwork::check_invariants`]).
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn check_networks(&self) {
        for net in &self.nets {
            net.check_invariants();
        }
    }

    /// Heap bytes the copies, the banks and their store own.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let nets: usize = self.nets.iter().map(OmegaNetwork::heap_bytes).sum();
        let dedup: usize = self.banks.iter().map(Bank::heap_bytes).sum();
        vec_bytes(&self.nets)
            + nets
            + vec_bytes(&self.banks)
            + dedup
            + self.store.heap_bytes()
            + vec_bytes(&self.cursor)
            + self.events.heap_bytes()
            + self.busy.heap_bytes()
    }

    /// The banks, indexed by module.
    #[must_use]
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// Bank `mm`, for fault hooks.
    pub fn bank_mut(&mut self, mm: MmId) -> &mut Bank {
        &mut self.banks[mm.0]
    }

    /// Reads the word at `addr` (untimed).
    #[must_use]
    pub fn peek(&self, addr: MemAddr) -> Value {
        self.store.peek(addr)
    }

    /// Writes the word at `addr` (untimed).
    pub fn poke(&mut self, addr: MemAddr, value: Value) {
        self.store.poke(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(id: u64, pe: usize, mm: usize, now: Cycle) -> Message {
        Message::request(
            MsgId(id),
            MsgKind::Load,
            MemAddr::new(MmId(mm), 0),
            0,
            PeId(pe),
            now,
        )
    }

    /// Steps banks then network once, the machine's order.
    fn step(fabric: &mut Fabric, now: Cycle, deliveries: &mut Vec<Reply>) {
        fabric.serve_banks(now);
        fabric.advance(now, deliveries, |m| panic!("unexpected drop of {m:?}"));
    }

    /// The copies stamped on the requests copy `c` holds.
    fn stamps(fabric: &Fabric, c: usize) -> Vec<u8> {
        fabric.nets[c].requests().map(|m| m.copy).collect()
    }

    #[test]
    fn dead_copy_fails_over_and_the_reply_returns_through_the_live_one() {
        let plan = FaultPlan::none().dead_copy(0);
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 2, &plan);
        let msg = load(1, 3, 5, 0);
        assert!(matches!(fabric.offer(msg, 0), Offer::Injected));
        assert_eq!(stamps(&fabric, 1), [1], "carried by copy 1, and stamped so");
        assert_eq!(fabric.failovers(), 1);
        let mut deliveries = Vec::new();
        for now in 0..100 {
            step(&mut fabric, now, &mut deliveries);
            if !deliveries.is_empty() {
                break;
            }
        }
        assert_eq!(deliveries.len(), 1, "the reply came back");
        assert_eq!((deliveries[0].id, deliveries[0].copy), (MsgId(1), 1));
        let copy = |c: usize| fabric.nets[c].stats().clone();
        assert_eq!(copy(1).delivered_replies.get(), 1, "through copy 1");
        assert_eq!(copy(0).injected_replies.get(), 0);
        assert!(fabric.is_idle());
    }

    #[test]
    fn a_request_every_copy_refuses_is_unroutable() {
        let plan = FaultPlan::none().dead_copy(0).dead_copy(1);
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 2, &plan);
        assert!(matches!(
            fabric.offer(load(1, 0, 0, 0), 0),
            Offer::Unroutable
        ));
        assert!(fabric.is_idle());
    }

    #[test]
    fn a_reply_nobody_waits_for_is_a_duplicate() {
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 1, &FaultPlan::none());
        fabric.enable_dedup();
        // A request reaches bank 2 with no request of its PE waiting: the
        // answer to an attempt whose twin already round-tripped. The
        // fabric returns it on the copy its request was stamped with; only
        // the PE can tell it answers nothing.
        let mut twin = load(9, 0, 2, 0);
        twin.copy = 1;
        fabric.banks[2].push_request(&mut fabric.store, twin);
        fabric.busy.insert(2);
        let mut deliveries = Vec::new();
        for now in 0..40 {
            step(&mut fabric, now, &mut deliveries);
        }
        assert_eq!(deliveries.len(), 1);
        assert_eq!((deliveries[0].id, deliveries[0].copy), (MsgId(9), 1));
        assert_eq!(fabric.nets[1].stats().delivered_replies.get(), 1);
        assert!(fabric.is_idle());
    }

    #[test]
    fn a_single_copy_without_dedup_keeps_no_copy_map() {
        let cfg = NetConfig::small(8);
        let mut fabric = Fabric::new(cfg, 1, 1, &FaultPlan::none());
        let mut deliveries = Vec::new();
        for pe in 0..8 {
            assert!(matches!(
                fabric.offer(load(1 + pe as u64, pe, 2, 0), 0),
                Offer::Injected
            ));
        }
        step(&mut fabric, 0, &mut deliveries);
        assert!(!stamps(&fabric, 0).is_empty());
        assert!(stamps(&fabric, 0).iter().all(|&c| c == 0));
        for now in 1..40 {
            step(&mut fabric, now, &mut deliveries);
        }
        assert_eq!(deliveries.len(), 8, "every reply returns on copy 0");
        assert!(deliveries.iter().all(|r| r.copy == 0));
        assert!(fabric.is_idle());
    }

    #[test]
    fn lost_and_swallowed_requests_leave_no_copy_map_entry() {
        // Requests a lossy link swallows never reach the copy.
        let lossy = FaultPlan::none().seed(3).link_loss(0.5);
        let mut fabric = Fabric::new(NetConfig::small(8), 1, 1, &lossy);
        fabric.enable_dedup();
        for pe in 0..8 {
            assert!(matches!(
                fabric.offer(load(1 + pe as u64, pe, 2, 0), 0),
                Offer::Injected
            ));
        }
        let stats = fabric.net_stats();
        assert!(stats.fault_dropped.get() > 0, "some are lost on the link");
        let entered = stats.injected_requests.get();
        assert_eq!(entered + stats.fault_dropped.get(), 8);
        // A module that dies holding work discards it, and so does a dead
        // module a request reaches later: no reply comes back.
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 1, &FaultPlan::none());
        let mut deliveries = Vec::new();
        assert!(matches!(fabric.offer(load(1, 0, 2, 0), 0), Offer::Injected));
        assert!(matches!(fabric.offer(load(2, 1, 3, 0), 0), Offer::Injected));
        let mut now = 0;
        while fabric.banks[2].is_idle() {
            step(&mut fabric, now, &mut deliveries);
            now += 1;
        }
        fabric.kill_bank(MmId(2));
        fabric.kill_bank(MmId(3));
        for now in now..now + 40 {
            step(&mut fabric, now, &mut deliveries);
        }
        assert!(deliveries.is_empty() && fabric.is_idle());
        let discards = |f: &Fabric, mm: usize| f.banks[mm].stats().dead_discards.get();
        assert_eq!((discards(&fabric, 2), discards(&fabric, 3)), (1, 1));
        // A retry the dedup cache swallows gets no reply.
        let mut fabric = Fabric::new(NetConfig::small(8), 1, 1, &FaultPlan::none());
        fabric.enable_dedup();
        let mut amalgam = load(1, 0, 2, 0).tracked();
        amalgam.folded.as_mut().expect("tracked").push(MsgId(2));
        fabric.banks[2].push_request(&mut fabric.store, amalgam);
        fabric.busy.insert(2);
        step(&mut fabric, 0, &mut deliveries);
        let retry = load(2, 1, 2, 1).as_retry(1, 1);
        assert!(matches!(fabric.offer(retry, 1), Offer::Injected));
        for now in 1..40 {
            step(&mut fabric, now, &mut deliveries);
        }
        assert_eq!(fabric.banks[2].stats().dedup_swallowed.get(), 1);
        let answered: Vec<MsgId> = deliveries.iter().map(|r| r.id).collect();
        assert_eq!(answered, [MsgId(1)], "the amalgam's reply, not the retry's");
        assert!(fabric.is_idle());
    }

    #[test]
    fn replicated_round_robins_and_keeps_ids_disjoint() {
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 2, &FaultPlan::none());
        assert!(matches!(fabric.offer(load(1, 0, 1, 0), 0), Offer::Injected));
        assert!(matches!(fabric.offer(load(2, 0, 1, 0), 0), Offer::Injected));
        assert_eq!(
            (stamps(&fabric, 0), stamps(&fabric, 1)),
            (vec![0], vec![1]),
            "round robin alternates copies"
        );
        let ids: Vec<MsgId> = fabric.nets.iter_mut().map(|n| n.next_msg_id()).collect();
        assert_eq!(ids, [MsgId(1), MsgId(1 + (1 << 48))]);
        let mut deliveries = Vec::new();
        for now in 0..40 {
            step(&mut fabric, now, &mut deliveries);
        }
        assert_eq!(deliveries.len(), 2, "both copies deliver");
    }

    #[test]
    fn dead_copy_fails_over_to_the_survivor() {
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 2, &FaultPlan::none());
        assert!(fabric.apply_copy_fault(Fault::KillCopy { copy: 0 }));
        // PE 0's round robin points at the dead copy 0 before each
        // request: both fail over to copy 1.
        let mut deliveries = Vec::new();
        for now in 0..60 {
            if now % 10 == 0 && now < 20 {
                assert!(matches!(
                    fabric.offer(load(now + 1, 0, 1, now), now),
                    Offer::Injected
                ));
            }
            step(&mut fabric, now, &mut deliveries);
        }
        assert_eq!(
            fabric.failovers(),
            2,
            "dead copy forced a failover each time"
        );
        let dead = fabric.nets[0].stats();
        assert_eq!(
            (dead.fault_refusals.get(), dead.injected_requests.get()),
            (2, 0)
        );
        assert_eq!(
            deliveries.len(),
            2,
            "all traffic completes through the survivor"
        );
    }
}
