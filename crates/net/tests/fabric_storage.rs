//! Seeded model tests of the fabric's storage: the message [`Slab`] with
//! its link and body columns, the [`OutQueue`] port records whose
//! messages are chained through it into rings closed at the tail, the
//! routing register (amalgam) each link carries, the per-switch ToMM
//! high-water marks and the network-wide wait table behind [`Switches`].
//!
//! The reference is the structure the fabric used to be built from — one
//! plain `VecDeque` of slots per queue — written out here in the test.
//! Random push / pop-for-transmit / hop / combine-resize sequences must
//! leave every queue's walk (once round its ring, head first), packet
//! accounting, link timing, every slot's amalgam and each switch's
//! high-water mark
//! equal to the model's; a handle the slab hands out must never name a
//! message that is still live; a request's link must route by its
//! destination digit at every forward stage and a reply's by its PE digit
//! at every reverse stage; a switch's high-water mark must cover its
//! queues and never fall; and a drained fabric must hold an empty slab
//! and an empty wait table.

use std::collections::{HashMap, VecDeque};

use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId, MsgKind, PhiOp, Reply};
use ultra_net::queue::{Handle, OutQueue, Slab, NIL};
use ultra_net::route::{ForwardHop, ReverseHop, Topology};
use ultra_net::stats::NetStats;
use ultra_net::switch::{AcceptOutcome, Switches};
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::{Cycle, MemAddr, MmId, PeId};

/// One queued message as the model sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelSlot {
    item: u64,
    packets: u8,
    head_arrival: Cycle,
    combined_here: bool,
    amalgam: usize,
}

/// The pre-slab queue: a `VecDeque` that owns its slots.
#[derive(Debug, Default)]
struct ModelQueue {
    entries: VecDeque<ModelSlot>,
    packets_used: usize,
    link_free_at: Cycle,
}

impl ModelQueue {
    fn can_accept(&self, packets: u8, capacity: usize) -> bool {
        self.packets_used + packets as usize <= capacity
    }

    fn push(&mut self, slot: ModelSlot) {
        self.packets_used += slot.packets as usize;
        self.entries.push_back(slot);
    }

    fn ready(&self, now: Cycle) -> bool {
        now >= self.link_free_at && self.entries.front().is_some_and(|s| now >= s.head_arrival)
    }

    fn pop(&mut self, now: Cycle) -> ModelSlot {
        let slot = self.entries.pop_front().expect("ready implies non-empty");
        self.packets_used -= slot.packets as usize;
        self.link_free_at = now + Cycle::from(slot.packets);
        slot
    }

    /// A combine: the slot's length changes, and when it takes over the
    /// incoming request's identity it takes its routing register too.
    fn combine(&mut self, index: usize, packets: u8, takeover: Option<usize>) {
        let slot = &mut self.entries[index];
        self.packets_used = self.packets_used - slot.packets as usize + packets as usize;
        slot.packets = packets;
        slot.combined_here = true;
        if let Some(amalgam) = takeover {
            slot.amalgam = amalgam;
        }
    }
}

fn assert_queue_matches(q: &OutQueue, slab: &Slab<u64>, model: &ModelQueue, what: &str) {
    let walked: Vec<ModelSlot> = q
        .iter(slab)
        .map(|(h, link)| ModelSlot {
            item: *slab.body(h),
            packets: link.packets,
            head_arrival: link.head_arrival,
            combined_here: link.combined_here,
            amalgam: link.amalgam,
        })
        .collect();
    let expect: Vec<ModelSlot> = model.entries.iter().cloned().collect();
    assert_eq!(walked, expect, "{what}: FIFO walk");
    assert_eq!(q.len(slab), model.entries.len(), "{what}: len");
    assert_eq!(q.is_empty(), model.entries.is_empty(), "{what}: emptiness");
    assert_eq!(q.packets_used(), model.packets_used, "{what}: packets");
    assert_eq!(q.link_free_at(), model.link_free_at, "{what}: link timing");
    let head = q.head(slab);
    assert_eq!(
        (head != NIL).then(|| *slab.body(head)),
        model.entries.front().map(|s| s.item),
        "{what}: front"
    );
    assert_eq!(head == NIL, model.entries.is_empty(), "{what}: head");
}

/// Ports per switch in the queue-level test: queue `q` belongs to cell
/// `q / PORTS`, whose high-water mark covers its ports (the last cell of
/// an odd count has one).
const PORTS: usize = 2;

/// Raises queue `q`'s cell mark in the model to the packets its slots
/// hold now.
fn raise_model_high(marks: &mut [usize], model: &[ModelQueue], q: usize) {
    let held: usize = model[q].entries.iter().map(|s| s.packets as usize).sum();
    marks[q / PORTS] = marks[q / PORTS].max(held);
}

#[test]
fn queues_chained_through_one_slab_match_the_vecdeque_model() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x51AB_0000 ^ case.wrapping_mul(0x9e37_79b9));
        let queues = 2 + rng.below(7);
        // Both capacities the fabric uses: the 15-packet request bound and
        // the unbounded reply queues.
        let capacity = if rng.below(2) == 0 { 15 } else { usize::MAX };
        let mut slab: Slab<u64> = Slab::new();
        let mut real: Vec<OutQueue> = vec![OutQueue::new(); queues];
        let mut model: Vec<ModelQueue> = (0..queues).map(|_| ModelQueue::default()).collect();
        // Per cell: the mark the returned occupancies raise, and the model's
        // from the packets its queues hold after each step.
        let mut real_high = vec![0u32; queues.div_ceil(PORTS)];
        let mut model_high = vec![0usize; queues.div_ceil(PORTS)];
        // Which item every live handle names — the aliasing oracle.
        let mut live: HashMap<Handle, u64> = HashMap::new();
        let mut next_item = 0u64;
        let mut live_high_water = 0usize;
        let mut now: Cycle = 0;

        for step in 0..3000 {
            let qi = rng.below(queues);
            match rng.below(8) {
                // push a fresh message
                0..=2 => {
                    let packets = if rng.below(2) == 0 { 1 } else { 3 };
                    let fits = real[qi].can_accept(packets, capacity);
                    assert_eq!(fits, model[qi].can_accept(packets, capacity));
                    if fits {
                        let head_arrival = now + rng.below(3) as Cycle;
                        let amalgam = rng.below(1 << 12);
                        let handle = slab.insert(next_item, packets, amalgam);
                        assert!(
                            live.insert(handle, next_item).is_none(),
                            "case {case} step {step}: handle {handle} reissued while live"
                        );
                        let used = real[qi].push(&mut slab, handle, head_arrival, capacity);
                        real_high[qi / PORTS] = real_high[qi / PORTS].max(used);
                        model[qi].push(ModelSlot {
                            item: next_item,
                            packets,
                            head_arrival,
                            combined_here: false,
                            amalgam,
                        });
                        next_item += 1;
                    }
                }
                // pop for transmit, then hop downstream or leave the fabric
                3..=5 => {
                    let ready = real[qi].ready_head(&slab, now).is_some();
                    assert_eq!(ready, model[qi].ready(now), "case {case} step {step}");
                    if ready {
                        let handle = real[qi].pop_for_transmit(&mut slab, now);
                        let popped = model[qi].pop(now);
                        assert_eq!(live[&handle], popped.item, "FIFO order");
                        assert_eq!(slab.link(handle).packets, popped.packets);
                        assert_eq!(slab.link(handle).amalgam, popped.amalgam);
                        let to = rng.below(queues);
                        if to != qi && real[to].can_accept(popped.packets, capacity) {
                            // The hop: same handle, new queue, fresh flags,
                            // the register as it was.
                            let used = real[to].push(&mut slab, handle, now + 1, capacity);
                            real_high[to / PORTS] = real_high[to / PORTS].max(used);
                            model[to].push(ModelSlot {
                                head_arrival: now + 1,
                                combined_here: false,
                                ..popped
                            });
                            raise_model_high(&mut model_high, &model, to);
                            assert_queue_matches(&real[to], &slab, &model[to], "hop target");
                        } else {
                            assert_eq!(slab.remove(handle), popped.item);
                            live.remove(&handle);
                        }
                    }
                }
                // a combine mutates a queued slot's length in place, and an
                // identity takeover overwrites its register
                6 => {
                    if !model[qi].entries.is_empty() {
                        let index = rng.below(model[qi].entries.len());
                        let packets = if rng.below(2) == 0 { 1 } else { 3 };
                        let takeover = (rng.below(2) == 0).then(|| rng.below(1 << 12));
                        let (handle, _) = real[qi].iter(&slab).nth(index).expect("in range");
                        let link = slab.link_mut(handle);
                        link.combined_here = true;
                        if let Some(amalgam) = takeover {
                            link.amalgam = amalgam;
                        }
                        let used = real[qi].resize_slot(&mut slab, handle, packets);
                        real_high[qi / PORTS] = real_high[qi / PORTS].max(used);
                        model[qi].combine(index, packets, takeover);
                    }
                }
                _ => now += 1 + rng.below(3) as Cycle,
            }
            raise_model_high(&mut model_high, &model, qi);
            assert_queue_matches(&real[qi], &slab, &model[qi], "touched queue");
            let real_marks: Vec<usize> = real_high.iter().map(|&m| m as usize).collect();
            assert_eq!(real_marks, model_high, "case {case} step {step}: marks");
            let queued: usize = model.iter().map(|m| m.entries.len()).sum();
            assert_eq!(
                slab.live(),
                queued,
                "every live slot is queued exactly once"
            );
            assert_eq!(slab.live(), live.len());
            live_high_water = live_high_water.max(slab.live());
            assert!(
                slab.slots() <= live_high_water,
                "the slab grows only when the free list is empty"
            );
        }

        // Drain: every queue still agrees, and the slab ends empty.
        for qi in 0..queues {
            assert_queue_matches(&real[qi], &slab, &model[qi], "before drain");
            while !real[qi].is_empty() {
                let head = slab.link(real[qi].head(&slab)).head_arrival;
                now = now.max(real[qi].link_free_at()).max(head);
                let handle = real[qi].pop_for_transmit(&mut slab, now);
                assert_eq!(slab.remove(handle), model[qi].pop(now).item);
            }
            assert_queue_matches(&real[qi], &slab, &model[qi], "after drain");
        }
        assert!(slab.is_empty(), "case {case}: slab empty once drained");
    }
}

/// Requests enter random stage-0 switches of an 8-PE fabric (few words,
/// so they combine), leave straight from the stage-0 queues as if memory
/// sat right behind them, and their replies come back through the same
/// switch. The model is the wait buffer's bookkeeping: per switch,
/// entries held = combines − decombines; every request is answered
/// exactly once; nothing is left in either slab or the wait table.
#[test]
fn wait_entries_and_slabs_balance_under_random_switch_traffic() {
    let cfg = NetConfig {
        wait_entries: 3,
        request_queue_packets: 9,
        ..NetConfig::small(8)
    };
    let topo = Topology::new(8, 2);
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0x3A17_0000 ^ case.wrapping_mul(0x9e37_79b9));
        let mut sw = Switches::new(&cfg);
        let mut stats = NetStats::new(topo.stages());
        let mut held = [0usize; 4]; // model: wait entries per stage-0 switch
        let mut issued: Vec<MsgId> = Vec::new();
        let mut answered: Vec<MsgId> = Vec::new();
        let mut next_id = 1u64;
        let mut now: Cycle = 0;

        for _ in 0..1500 {
            now += 1;
            match rng.below(3) {
                // a PE offers a request to its entry switch
                0 => {
                    let pe = PeId(rng.below(8));
                    let kind = match rng.below(3) {
                        0 => MsgKind::Load,
                        1 => MsgKind::Store,
                        _ => MsgKind::FetchPhi(PhiOp::Add),
                    };
                    let addr = MemAddr::new(MmId(rng.below(8)), rng.below(2));
                    let msg = Message::request(MsgId(next_id), kind, addr, 1, pe, now);
                    let (switch, in_port) = topo.pe_entry(pe);
                    if sw.can_admit_request(switch, &msg) {
                        next_id += 1;
                        issued.push(msg.id);
                        let handle = sw.admit_request(msg);
                        let outcome =
                            sw.accept_request(0, switch, handle, in_port, now, &mut stats);
                        if outcome == AcceptOutcome::Combined {
                            held[switch] += 1;
                        }
                    }
                }
                // a stage-0 queue transmits; memory answers at once
                _ => {
                    let (switch, port) = (rng.below(4), rng.below(2));
                    if sw.forward_head_ready(0, switch, port, now).is_none() {
                        continue;
                    }
                    let handle = sw.transmit_request(0, switch, port, now);
                    let survivor = sw.release_request(handle);
                    let reply = Reply::to_request(&survivor, 100);
                    let in_port = topo.forward_out_port(reply.addr.mm, 0);
                    let handle = sw.admit_reply(reply, 0);
                    assert!(
                        sw.can_accept_reply(0, switch, handle),
                        "reply queues are unbounded"
                    );
                    let before = stats.decombines.get();
                    sw.accept_reply(0, switch, handle, in_port, now, &mut stats);
                    held[switch] -= (stats.decombines.get() - before) as usize;
                    // Deliver whatever is ready on this switch's ToPE side.
                    for pe_port in 0..2 {
                        while sw.reverse_head_ready(0, switch, pe_port, now + 8).is_some() {
                            let h = sw.transmit_reply(0, switch, pe_port, now + 8);
                            answered.push(sw.release_reply(h).id);
                            now += 3;
                        }
                    }
                }
            }
            for (switch, &want) in held.iter().enumerate() {
                assert_eq!(sw.wait_occupancy(0, switch), want, "case {case}");
                assert!(want <= cfg.wait_entries, "capacity respected");
            }
            assert_eq!(sw.total_wait_occupancy(), held.iter().sum::<usize>());
        }

        // Drain what is still queued; every survivor's reply decombines.
        for switch in 0..4 {
            for port in 0..2 {
                loop {
                    now += 4;
                    if sw.forward_head_ready(0, switch, port, now).is_none() {
                        break;
                    }
                    let handle = sw.transmit_request(0, switch, port, now);
                    let survivor = sw.release_request(handle);
                    let reply = Reply::to_request(&survivor, 100);
                    let in_port = topo.forward_out_port(reply.addr.mm, 0);
                    let handle = sw.admit_reply(reply, 0);
                    sw.accept_reply(0, switch, handle, in_port, now, &mut stats);
                }
            }
            for pe_port in 0..2 {
                loop {
                    now += 4;
                    if sw.reverse_head_ready(0, switch, pe_port, now).is_none() {
                        break;
                    }
                    let h = sw.transmit_reply(0, switch, pe_port, now);
                    answered.push(sw.release_reply(h).id);
                }
            }
            assert_eq!(
                sw.wait_occupancy(0, switch),
                0,
                "case {case}: drained switch"
            );
        }
        assert_eq!(
            sw.total_wait_occupancy(),
            0,
            "case {case}: wait table empty"
        );
        assert!(sw.requests().is_empty(), "case {case}: request slab empty");
        assert!(sw.replies().is_empty(), "case {case}: reply slab empty");
        assert_eq!(stats.combines.get(), stats.decombines.get());
        assert!(
            stats.combines.get() > 0,
            "case {case}: traffic must combine"
        );
        issued.sort_unstable();
        answered.sort_unstable();
        assert_eq!(
            issued, answered,
            "case {case}: every request answered exactly once"
        );
    }
}

/// Checks every queued slot's routing register against the message it
/// belongs to. A request queued on ToMM port `p` of stage `s` has taken
/// that port by its destination digit, and its register holds the source
/// digits of stages `0..=s` above the destination digits still to come —
/// so it picks the destination digit at the next stage. A reply queued on
/// ToPE port `p` of stage `s` mirrors that with the PE and MM digits.
fn assert_links_route_by_digits(sw: &Switches, topo: &Topology, what: &str) {
    let last = topo.stages() - 1;
    for stage in 0..=last {
        for switch in 0..topo.switches_per_stage() {
            for port in 0..topo.k() {
                let q = sw.to_mm_queue(stage, switch, port);
                for (h, link) in q.iter(sw.requests()) {
                    let msg = sw.requests().body(h);
                    let mm = msg.addr.mm;
                    assert_eq!(port, topo.forward_out_port(mm, stage), "{what}");
                    assert_eq!(
                        link.amalgam,
                        topo.reverse_amalgam_at(msg.src, mm, stage),
                        "{what}: request {:?} at stage {stage}",
                        msg.id
                    );
                    if stage < last {
                        assert_eq!(
                            topo.amalgam_out_port(link.amalgam, stage + 1),
                            topo.forward_out_port(mm, stage + 1),
                            "{what}: destination digit at stage {}",
                            stage + 1
                        );
                    }
                }
                let q = sw.to_pe_queue(stage, switch, port);
                for (h, link) in q.iter(sw.replies()) {
                    let reply = sw.replies().body(h);
                    let (pe, mm) = (reply.dst, reply.addr.mm);
                    assert_eq!(port, topo.reverse_out_port(pe, stage), "{what}");
                    let expect = match stage {
                        0 => mm.0,
                        s => topo.reverse_amalgam_at(pe, mm, s - 1),
                    };
                    assert_eq!(link.amalgam, expect, "{what}: reply {:?}", reply.id);
                    if stage > 0 {
                        assert_eq!(
                            topo.amalgam_out_port(link.amalgam, stage - 1),
                            topo.reverse_out_port(pe, stage - 1),
                            "{what}: PE digit at stage {}",
                            stage - 1
                        );
                    }
                }
            }
        }
    }
}

/// Checks every switch's ToMM high-water mark: it covers the packets each
/// of its ports holds now, it never falls (`seen` holds the marks of the
/// last check), and the fabric's mark is the largest.
fn assert_high_water_marks(sw: &Switches, topo: &Topology, seen: &mut [usize], what: &str) {
    let mut top = 0;
    for stage in 0..topo.stages() {
        for switch in 0..topo.switches_per_stage() {
            let mark = sw.request_queue_high_water(stage, switch);
            for port in 0..topo.k() {
                let held = sw.to_mm_queue(stage, switch, port).packets_used();
                assert!(
                    held <= mark,
                    "{what}: ({stage}, {switch}) holds {held} > {mark}"
                );
            }
            let cell = &mut seen[stage * topo.switches_per_stage() + switch];
            assert!(mark >= *cell, "{what}: ({stage}, {switch}) mark fell");
            *cell = mark;
            top = top.max(mark);
        }
    }
    assert_eq!(sw.fabric_request_queue_high_water(), top, "{what}");
}

/// Requests cross every stage of 16-PE fabrics (k = 2 and k = 4, tight
/// queues, few words so they combine in every arity of identity), memory
/// answers each at once, and replies cross back, decombining. After every
/// cycle each queued link must route by the digits of the message it holds
/// — which fails if a hop mis-steps the register or an identity-takeover
/// combine keeps the absorbed request's — and at the end every request is
/// answered exactly once with both slabs and the wait table empty.
#[test]
fn link_amalgams_route_by_digits_at_every_stage() {
    let mut takeovers = 0;
    for case in 0..12u64 {
        let k = if case % 2 == 0 { 2 } else { 4 };
        let cfg = NetConfig {
            k,
            wait_entries: 2,
            request_queue_packets: 6,
            ..NetConfig::small(16)
        };
        let topo = Topology::new(16, k);
        let last = topo.stages() - 1;
        let mut rng = SplitMix64::new(0xA3A1_0000 ^ case.wrapping_mul(0x9e37_79b9));
        let mut sw = Switches::new(&cfg);
        let mut stats = NetStats::new(topo.stages());
        let mut at_mm: VecDeque<Message> = VecDeque::new();
        let (mut issued, mut answered) = (Vec::new(), Vec::new());
        let mut next_id = 1u64;
        let mut marks = vec![0; topo.stages() * topo.switches_per_stage()];

        for now in 0..900 as Cycle {
            // Up to four PEs offer a request while the run is young.
            for _ in 0..if now < 600 { rng.below(5) } else { 0 } {
                let pe = PeId(rng.below(16));
                let kind = match rng.below(4) {
                    0 => MsgKind::Load,
                    1 => MsgKind::Store,
                    _ => MsgKind::FetchPhi(PhiOp::Add),
                };
                let addr = MemAddr::new(MmId(rng.below(3)), 0);
                let msg = Message::request(MsgId(next_id), kind, addr, 1, pe, now);
                let (switch, in_port) = topo.pe_entry(pe);
                if sw.can_admit_request(switch, &msg) {
                    next_id += 1;
                    issued.push(msg.id);
                    let handle = sw.admit_request(msg);
                    sw.accept_request(0, switch, handle, in_port, now, &mut stats);
                }
            }
            // Forward sweep, MM side first.
            for stage in (0..=last).rev() {
                for switch in 0..topo.switches_per_stage() {
                    for port in 0..k {
                        let Some((head, _)) = sw.forward_head_ready(stage, switch, port, now)
                        else {
                            continue;
                        };
                        match topo.forward_next(stage, switch, port) {
                            ForwardHop::ToMm(mm) => {
                                let h = sw.transmit_request(stage, switch, port, now);
                                let msg = sw.release_request(h);
                                assert_eq!(msg.addr.mm, mm, "egress reaches its MM");
                                at_mm.push_back(msg);
                            }
                            ForwardHop::ToSwitch(next, next_port) => {
                                if !sw.can_accept_request(stage + 1, next, head) {
                                    continue;
                                }
                                let incoming = sw.requests().body(head).id;
                                let h = sw.transmit_request(stage, switch, port, now);
                                let outcome = sw.accept_request(
                                    stage + 1,
                                    next,
                                    h,
                                    next_port,
                                    now + 1,
                                    &mut stats,
                                );
                                // An absorbed request's id is gone from the
                                // queues; one that survives took the slot over.
                                let survived = (0..k).any(|p| {
                                    let q = sw.to_mm_queue(stage + 1, next, p);
                                    q.iter(sw.requests())
                                        .any(|(h, _)| sw.requests().body(h).id == incoming)
                                });
                                if outcome == AcceptOutcome::Combined && survived {
                                    takeovers += 1;
                                }
                            }
                        }
                    }
                }
            }
            // Memory answers in arrival order, as fast as the MNI links take
            // replies.
            while let Some(msg) = at_mm.front() {
                let reply = Reply::to_request(msg, 100);
                let (switch, in_port) = topo.reverse_entry(msg.addr.mm);
                if !sw.can_admit_reply(switch, &reply) {
                    break;
                }
                at_mm.pop_front();
                let handle = sw.admit_reply(reply, last);
                sw.accept_reply(last, switch, handle, in_port, now, &mut stats);
            }
            // Reverse sweep, PE side first.
            for stage in 0..=last {
                for switch in 0..topo.switches_per_stage() {
                    for port in 0..k {
                        let Some((head, _)) = sw.reverse_head_ready(stage, switch, port, now)
                        else {
                            continue;
                        };
                        match topo.reverse_next(stage, switch, port) {
                            ReverseHop::ToPe(pe) => {
                                let h = sw.transmit_reply(stage, switch, port, now);
                                let reply = sw.release_reply(h);
                                assert_eq!(reply.dst, pe, "egress reaches its PE");
                                answered.push(reply.id);
                            }
                            ReverseHop::ToSwitch(prev, prev_port) => {
                                if !sw.can_accept_reply(stage - 1, prev, head) {
                                    continue;
                                }
                                let h = sw.transmit_reply(stage, switch, port, now);
                                sw.accept_reply(stage - 1, prev, h, prev_port, now + 1, &mut stats);
                            }
                        }
                    }
                }
            }
            let what = format!("case {case} cycle {now}");
            assert_links_route_by_digits(&sw, &topo, &what);
            assert_high_water_marks(&sw, &topo, &mut marks, &what);
        }

        assert!(sw.requests().is_empty(), "case {case}: request slab empty");
        assert!(sw.replies().is_empty(), "case {case}: reply slab empty");
        assert_eq!(
            sw.total_wait_occupancy(),
            0,
            "case {case}: wait table empty"
        );
        assert_eq!(stats.combines.get(), stats.decombines.get());
        assert!(
            stats.combines.get() > 0,
            "case {case}: traffic must combine"
        );
        assert!(
            sw.fabric_request_queue_high_water() > 0,
            "case {case}: queues filled"
        );
        issued.sort_unstable();
        answered.sort_unstable();
        assert_eq!(issued, answered, "case {case}: answered exactly once");
    }
    assert!(takeovers > 0, "identity takeovers must occur");
}
