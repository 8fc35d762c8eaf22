//! The memory side of the machine: `d` copies of the combining Omega
//! network in front of one [`MemBank`] per memory module (§3.1, §4.1).
//! A reply re-enters the network through the copy that carried its
//! request, so decombining matches; a request every copy refuses outright
//! is reported unroutable rather than wedging its PE; only banks holding
//! work are cycled. The boot-time [`FaultPlan`]'s static faults are
//! applied once, at construction. PE buffers, counters and what to do
//! with a dropped request stay with the caller.

use ultra_faults::FaultPlan;
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId, Reply};
use ultra_net::omega::ReplicatedOmega;
use ultra_obs::GaugeSnapshot;
use ultra_sim::active::Walk;
use ultra_sim::heap::{map_bytes, vec_bytes};
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{ActiveSet, Cycle, IdMap, MmId};

use crate::MemBank;

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

/// Why serialized state failed to reassemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateDecodeError {
    /// The bytes themselves are malformed.
    Wire(WireError),
    /// The bytes are well-formed but disagree with the config they were
    /// decoded against; names what.
    ConfigMismatch(&'static str),
}

impl From<WireError> for StateDecodeError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// `d` network copies plus one bank per memory module.
#[derive(Debug, Clone)]
pub struct Fabric {
    nets: ReplicatedOmega,
    banks: Vec<MemBank>,
    /// Which copy carried each in-flight request. Keyed by attempt too: a
    /// retry may travel a different copy than the original.
    copy_of: IdMap<(MsgId, u32), usize>,
    /// Banks holding work: joined on request delivery, left once observed
    /// idle (an idle bank's cycle is a no-op). Rebuilt on decode.
    busy: ActiveSet,
}

impl Fabric {
    /// Builds `copies` copies of `net` and one bank per PE serving a
    /// request every `mm_service` cycles, with `plan`'s static faults
    /// applied: per-copy masks, dead modules, slow modules.
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`, `mm_service == 0` or `net` is invalid.
    #[must_use]
    pub fn new(net: NetConfig, copies: usize, mm_service: Cycle, plan: &FaultPlan) -> Self {
        let mut nets = ReplicatedOmega::new(net, copies);
        for c in 0..copies {
            let mask = plan.mask_for_copy(c);
            if !mask.is_healthy() {
                nets.copy_mut(c).set_fault_mask(mask);
            }
        }
        let mut banks: Vec<MemBank> = (0..net.pes)
            .map(|i| {
                let factor = Cycle::from(plan.slow_factor(MmId(i)).max(1));
                MemBank::new(MmId(i), mm_service * factor)
            })
            .collect();
        for mm in plan.dead_mms() {
            banks[mm.0].kill();
        }
        Self {
            nets,
            banks,
            copy_of: IdMap::default(),
            busy: ActiveSet::new(net.pes),
        }
    }

    /// Turns on every bank's exactly-once dedup cache (for retries).
    pub fn enable_dedup(&mut self) {
        self.banks.iter_mut().for_each(MemBank::enable_dedup);
    }

    /// Offers a request to the network copies at cycle `now`.
    #[inline]
    pub fn offer(&mut self, msg: Message, now: Cycle) -> Offer {
        let nets = &self.nets;
        if (0..nets.copies()).all(|c| nets.copy(c).fault_refuses(&msg)) {
            return Offer::Unroutable;
        }
        let key = (msg.id, msg.attempt);
        match self.nets.try_inject_request(msg, now) {
            Ok(copy) => {
                self.copy_of.insert(key, copy);
                Offer::Injected
            }
            Err(refused) => Offer::Refused(refused),
        }
    }

    /// Cycles every busy bank in bank order, each followed by draining its
    /// replies into their copies until one is refused. Returns the replies
    /// discarded because no request waits for them (an attempt whose twin
    /// already round-tripped).
    pub fn serve_banks(&mut self, now: Cycle) -> u64 {
        let mut duplicates = 0;
        let mut walk = Walk::default();
        while let Some(mm) = walk.next(&self.busy) {
            let bank = &mut self.banks[mm];
            bank.cycle(now);
            while let Some(reply) = bank.pop_reply() {
                let Some(&copy) = self.copy_of.get(&(reply.id, reply.attempt)) else {
                    duplicates += 1;
                    continue;
                };
                if let Err(refused) = self.nets.copy_mut(copy).try_inject_reply(reply, now) {
                    bank.return_reply(refused);
                    break;
                }
            }
            if bank.is_idle() {
                self.busy.remove(mm);
            }
        }
        duplicates
    }

    /// Moves the network one cycle (skipped when drained: it would cycle
    /// to itself). Requests reaching a module join its bank, replies
    /// reaching a PE go to `deliveries`, dropped requests to `on_drop`,
    /// in copy order.
    pub fn advance(
        &mut self,
        now: Cycle,
        deliveries: &mut Vec<Reply>,
        mut on_drop: impl FnMut(Message),
    ) {
        if self.nets.is_drained() {
            return;
        }
        self.nets.cycle_inplace(now);
        for copy in 0..self.nets.copies() {
            let events = self.nets.events_mut(copy);
            for msg in events.requests_at_mm.drain(..) {
                self.busy.insert(msg.addr.mm.0);
                self.banks[msg.addr.mm.0].push_request(msg);
            }
            for reply in events.replies_at_pe.drain(..) {
                self.copy_of.remove(&(reply.id, reply.attempt));
                deliveries.push(reply);
            }
            events.dropped.drain(..).for_each(&mut on_drop);
        }
    }

    /// Whether the network is drained and every bank idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.nets.is_drained() && self.busy.is_empty()
    }

    /// The gauges a telemetry window samples at its boundary: the deepest
    /// bank request queue and the wait-buffer entries across the copies.
    #[must_use]
    pub fn gauges(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            mm_queue_depth_max: (self.banks.iter())
                .map(|b| b.queue_depth() as u64)
                .max()
                .unwrap_or(0),
            wait_occupancy: self.nets.total_wait_occupancy(),
        }
    }

    /// Heap bytes the copies, the banks and the in-flight map own.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let words: usize = self.banks.iter().map(MemBank::heap_bytes).sum();
        self.nets.heap_bytes() + vec_bytes(&self.banks) + words + map_bytes(&self.copy_of)
    }

    /// The network copies.
    #[must_use]
    pub fn nets(&self) -> &ReplicatedOmega {
        &self.nets
    }

    /// The network copies, for fault hooks and test knobs.
    pub fn nets_mut(&mut self) -> &mut ReplicatedOmega {
        &mut self.nets
    }

    /// The banks, indexed by module.
    #[must_use]
    pub fn banks(&self) -> &[MemBank] {
        &self.banks
    }

    /// Bank `mm`, for fault hooks and untimed reads and writes.
    pub fn bank_mut(&mut self, mm: MmId) -> &mut MemBank {
        &mut self.banks[mm.0]
    }

    /// Serializes the copies, the banks and the in-flight map, in order.
    pub fn encode(&self, w: &mut WireWriter) {
        self.nets.encode_state(w);
        self.banks.encode(w);
        self.copy_of.encode(w);
    }

    /// Rebuilds a fabric from [`Fabric::encode`] bytes that must describe
    /// `copies` copies of `net`.
    ///
    /// # Errors
    ///
    /// A [`StateDecodeError`] on malformed bytes (an in-flight copy index
    /// out of range included) or a copy count, geometry or bank count
    /// that disagrees with `net`/`copies`.
    pub fn decode(
        r: &mut WireReader<'_>,
        net: &NetConfig,
        copies: usize,
    ) -> Result<Self, StateDecodeError> {
        let mismatch = |what| Err(StateDecodeError::ConfigMismatch(what));
        let nets = ReplicatedOmega::decode_state(r)?;
        if nets.copies() != copies {
            return mismatch("network copy count");
        }
        if nets.copy(0).cfg() != net {
            return mismatch("network geometry");
        }
        let banks: Vec<MemBank> = Vec::decode(r)?;
        if banks.len() != net.pes {
            return mismatch("memory bank count");
        }
        let copy_of: IdMap<(MsgId, u32), usize> = IdMap::decode(r)?;
        if copy_of.values().any(|&c| c >= copies) {
            return Err(WireError::Invalid("in-flight copy index out of range").into());
        }
        let busy = ActiveSet::from_members(net.pes, (0..net.pes).filter(|&i| !banks[i].is_idle()));
        Ok(Self {
            nets,
            banks,
            copy_of,
            busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_net::message::MsgKind;
    use ultra_sim::{MemAddr, PeId};

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
    fn step(fabric: &mut Fabric, now: Cycle, deliveries: &mut Vec<Reply>) -> u64 {
        let dups = fabric.serve_banks(now);
        fabric.advance(now, deliveries, |m| panic!("unexpected drop of {m:?}"));
        dups
    }

    #[test]
    fn dead_copy_fails_over_and_the_reply_returns_through_the_live_one() {
        let plan = FaultPlan::none().dead_copy(0);
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 2, &plan);
        let msg = load(1, 3, 5, 0);
        assert!(matches!(fabric.offer(msg, 0), Offer::Injected));
        assert_eq!(fabric.copy_of[&(MsgId(1), 0)], 1, "carried by copy 1");
        assert_eq!(fabric.nets().failovers(), 1);
        let mut deliveries = Vec::new();
        for now in 0..100 {
            assert_eq!(step(&mut fabric, now, &mut deliveries), 0);
            if !deliveries.is_empty() {
                break;
            }
        }
        assert_eq!(deliveries.len(), 1, "the reply came back");
        assert_eq!(deliveries[0].id, MsgId(1));
        let copy = |c: usize| fabric.nets().copy(c).stats().clone();
        assert_eq!(copy(1).delivered_replies.get(), 1, "through copy 1");
        assert_eq!(copy(0).injected_replies.get(), 0);
        assert!(fabric.copy_of.is_empty());
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
        assert!(fabric.copy_of.is_empty());
        assert!(fabric.is_idle());
    }

    #[test]
    fn a_reply_nobody_waits_for_is_a_duplicate() {
        let mut fabric = Fabric::new(NetConfig::small(8), 1, 1, &FaultPlan::none());
        // A request reaches bank 2 without an in-flight entry: the answer
        // to an attempt whose twin already round-tripped.
        fabric.bank_mut(MmId(2)).push_request(load(9, 0, 2, 0));
        fabric.busy.insert(2);
        let mut deliveries = Vec::new();
        assert_eq!(step(&mut fabric, 0, &mut deliveries), 1);
        assert!(deliveries.is_empty());
        assert!(fabric.is_idle(), "discarded, not re-injected");
    }

    #[test]
    fn encoding_round_trips_mid_traffic() {
        let plan = FaultPlan::none().slow_mm(MmId(3), 3);
        let mut fabric = Fabric::new(NetConfig::small(8), 2, 2, &plan);
        fabric.enable_dedup();
        let mut deliveries = Vec::new();
        let mut id = 0;
        for now in 0..12 {
            for pe in 0..8 {
                id += 1;
                let _ = fabric.offer(load(id, pe, (pe * 3 + now as usize) % 8, now), now);
            }
            step(&mut fabric, now, &mut deliveries);
        }
        assert!(!fabric.is_idle() && !fabric.copy_of.is_empty());
        let bytes = |f: &Fabric| {
            let mut w = WireWriter::new();
            f.encode(&mut w);
            w.into_bytes()
        };
        let first = bytes(&fabric);
        let mut r = WireReader::new(&first);
        let twin = Fabric::decode(&mut r, &NetConfig::small(8), 2).expect("decode");
        assert!(r.is_empty());
        assert_eq!(bytes(&twin), first);
        assert_eq!(
            twin.busy.iter().collect::<Vec<_>>(),
            fabric.busy.iter().collect::<Vec<_>>()
        );
        let mut r = WireReader::new(&first);
        assert_eq!(
            Fabric::decode(&mut r, &NetConfig::small(8), 1).unwrap_err(),
            StateDecodeError::ConfigMismatch("network copy count")
        );
    }
}
