//! The assembled Omega network and its per-cycle advancement.
//!
//! [`OmegaNetwork`] wires the `D = log_k N` stages of switches held in
//! [`crate::switch::Switches`] with perfect-shuffle links ([`crate::route::Topology`]) and advances the
//! whole fabric one switch cycle at a time. The timing model follows the
//! paper's pipelined, message-switched design (§3.1.2, §4.2):
//!
//! * every link (PE→stage 0, stage→stage, stage D−1→MNI and the reverse
//!   direction) carries **one packet per cycle**;
//! * a message's *head* advances one stage per cycle when uncontended
//!   (cut-through), so the minimum one-way transit is `D + m − 1` cycles
//!   for an `m`-packet message — the analytic model's
//!   `(lg n / lg k) + m − 1`;
//! * a full downstream queue stalls the sender (backpressure), except under
//!   [`crate::SwitchPolicy::DropOnConflict`], which kills the request
//!   instead.
//!
//! Each call to [`OmegaNetwork::cycle_into`] performs one sweep in each
//! direction, processing stages sink-first so that a message moves at most
//! one hop per cycle while freed space propagates without extra dead
//! cycles.

#[cfg(test)]
use crate::config::SwitchPolicy;
use crate::config::{NetConfig, SweepMode};
use crate::message::{Message, MsgId, Reply};
use crate::queue::Handle;
use crate::route::{ForwardHop, ReverseHop, Topology};
use crate::stats::NetStats;
use crate::switch::{AcceptOutcome, Switches};
use ultra_faults::FaultMask;
use ultra_obs::HeatmapSnapshot;
use ultra_sim::active::Walk;
use ultra_sim::heap::{clone_kept, vec_bytes, KeptVec};
use ultra_sim::{ActiveSet, Cycle};

/// Everything that emerged from the network during one cycle. A copy
/// keeps the lists' capacities, as [`KeptVec`] does.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct NetworkEvents {
    /// Requests whose tail arrived at their MNI this cycle.
    pub requests_at_mm: Vec<Message>,
    /// Replies whose tail arrived at their PNI this cycle.
    pub replies_at_pe: Vec<Reply>,
    /// Requests killed by [`crate::SwitchPolicy::DropOnConflict`] or lost
    /// on a lossy injection link since the last cycle; the issuing PE must
    /// offer them again. (The notification is modelled as returning
    /// instantly, which flatters the baseline.)
    pub dropped: Vec<Message>,
}

impl Clone for NetworkEvents {
    fn clone(&self) -> Self {
        Self {
            requests_at_mm: clone_kept(&self.requests_at_mm),
            replies_at_pe: clone_kept(&self.replies_at_pe),
            dropped: clone_kept(&self.dropped),
        }
    }
}

impl NetworkEvents {
    /// Whether nothing at all emerged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests_at_mm.is_empty() && self.replies_at_pe.is_empty() && self.dropped.is_empty()
    }

    /// Heap bytes of the three lists.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.requests_at_mm) + vec_bytes(&self.replies_at_pe) + vec_bytes(&self.dropped)
    }

    /// Empties all three lists, keeping their capacity — the reusable
    /// buffer contract of [`OmegaNetwork::cycle_into`].
    pub fn clear(&mut self) {
        self.requests_at_mm.clear();
        self.replies_at_pe.clear();
        self.dropped.clear();
    }
}

/// The switches of every stage holding traffic in one direction: one set
/// over all stages' switches, stage-major, and each stage's member count —
/// one buffer each however many stages, so a copy of a network makes the
/// same number of allocations at every size. A stage is walked as a set of
/// its own ([`Walk::within`]).
#[derive(Debug, Clone)]
struct StageSets {
    set: ActiveSet,
    per_stage: Vec<usize>,
    switches_per_stage: usize,
}

impl StageSets {
    fn new(stages: usize, switches_per_stage: usize) -> Self {
        Self {
            set: ActiveSet::new(stages * switches_per_stage),
            per_stage: vec![0; stages],
            switches_per_stage,
        }
    }

    fn contains(&self, s: usize, sw: usize) -> bool {
        self.set.contains(s * self.switches_per_stage + sw)
    }

    fn insert(&mut self, s: usize, sw: usize) {
        let before = self.set.len();
        self.set.insert(s * self.switches_per_stage + sw);
        self.per_stage[s] += self.set.len() - before;
    }

    fn remove(&mut self, s: usize, sw: usize) {
        let before = self.set.len();
        self.set.remove(s * self.switches_per_stage + sw);
        self.per_stage[s] -= before - self.set.len();
    }

    /// A walk over stage `s` and the set index of its switch 0.
    fn walk(&self, s: usize) -> (Walk, usize) {
        let base = s * self.switches_per_stage;
        (Walk::within(base..base + self.switches_per_stage), base)
    }
}

/// One `N`-PE combining Omega network.
#[derive(Debug, Clone)]
pub struct OmegaNetwork {
    cfg: NetConfig,
    /// Every switch's queues, wait buffer and counters, plus the slabs the
    /// in-flight messages live in (stage 0 on the PE side).
    switches: Switches,
    /// The switches whose ToMM queues hold traffic, per stage; maintained
    /// exactly on every enqueue/dequeue so the sparse sweep visits only
    /// them.
    active_fwd: StageSets,
    /// The switches whose ToPE queues hold traffic, per stage.
    active_rev: StageSets,
    sweep: SweepMode,
    pe_link_free: Vec<Cycle>,
    mm_link_free: Vec<Cycle>,
    /// Requests in flight on the last-stage→MNI links: `(tail_arrival,
    /// handle)`; the message stays in the request slab until its tail
    /// arrives.
    fwd_egress: KeptVec<(Cycle, Handle)>,
    /// Replies in flight on the stage-0→PNI links.
    rev_egress: KeptVec<(Cycle, Handle)>,
    /// Kills and link losses recorded since the last `cycle` call.
    pending_drops: KeptVec<Message>,
    next_id: u64,
    stats: NetStats,
    /// Live fault state (§4.1 graceful degradation); healthy by default,
    /// in which case every fault check below short-circuits and the
    /// network behaves bit-identically to a fault-free build.
    mask: FaultMask,
}

impl OmegaNetwork {
    /// Builds the network described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`NetConfig::check_fabric`]).
    #[must_use]
    pub fn new(cfg: NetConfig) -> Self {
        cfg.validate_fabric();
        let switches = Switches::new(&cfg);
        let topo = *switches.topology();
        let active = || StageSets::new(topo.stages(), topo.switches_per_stage());
        Self {
            stats: NetStats::new(topo.stages()),
            cfg,
            switches,
            active_fwd: active(),
            active_rev: active(),
            sweep: SweepMode::default(),
            pe_link_free: vec![0; cfg.pes],
            mm_link_free: vec![0; cfg.pes],
            fwd_egress: KeptVec::default(),
            rev_egress: KeptVec::default(),
            pending_drops: KeptVec::default(),
            next_id: 1,
            mask: FaultMask::healthy(),
        }
    }

    /// Heap bytes this network owns: switches, link state, the in-flight
    /// lists, the active sets and the statistics.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let stats = &self.stats;
        let stats = vec_bytes(&stats.combines_by_stage)
            + stats.forward_transit.heap_bytes()
            + stats.reverse_transit.heap_bytes();
        let active = |sets: &StageSets| sets.set.heap_bytes() + vec_bytes(&sets.per_stage);
        self.switches.heap_bytes()
            + active(&self.active_fwd)
            + active(&self.active_rev)
            + stats
            + vec_bytes(&self.pe_link_free)
            + vec_bytes(&self.mm_link_free)
            + vec_bytes(&self.fwd_egress)
            + vec_bytes(&self.rev_egress)
            + vec_bytes(&self.pending_drops)
    }

    /// Installs the boot-time fault state of this copy.
    pub fn set_fault_mask(&mut self, mask: FaultMask) {
        self.mask = mask;
    }

    /// The live fault state.
    #[must_use]
    pub fn fault_mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Fail-stops this copy: no new requests are accepted from now on;
    /// traffic already inside (and returning replies) drains normally.
    pub fn kill(&mut self) {
        self.mask.kill_copy();
    }

    /// Fault hook: permanently occupies one wait-buffer slot of switch
    /// `(stage, switch)` (see [`Switches::poison_wait_entry`]).
    ///
    /// # Panics
    ///
    /// Panics if `(stage, switch)` is out of range.
    pub fn poison_wait_entry(&mut self, stage: usize, switch: usize) -> bool {
        self.switches
            .poison_wait_entry(stage, switch, &mut self.stats)
    }

    /// Whether this copy's faults make it refuse `msg` outright: the copy
    /// is dead, or a dead switch port lies on the request's forward route.
    /// (Distinct from backpressure, which is transient.)
    #[must_use]
    pub fn fault_refuses(&self, msg: &Message) -> bool {
        self.mask.copy_dead() || self.route_blocked(msg)
    }

    /// Whether a dead forward port lies on `msg`'s unique Omega route.
    /// In-flight traffic is unaffected (a port death mid-run only blocks
    /// requests injected after it), so the check runs at injection time.
    fn route_blocked(&self, msg: &Message) -> bool {
        if !self.mask.any_port_dead() {
            return false;
        }
        let topo = self.topology();
        let (mut sw, _) = topo.pe_entry(msg.src);
        for s in 0..topo.stages() {
            let out_port = topo.forward_out_port(msg.addr.mm, s);
            if self.mask.port_dead(s, sw, out_port) {
                return true;
            }
            match topo.forward_next(s, sw, out_port) {
                ForwardHop::ToSwitch(next_sw, _) => sw = next_sw,
                ForwardHop::ToMm(_) => break,
            }
        }
        false
    }

    /// The configuration this network was built with.
    #[must_use]
    pub fn cfg(&self) -> &NetConfig {
        &self.cfg
    }

    /// The static wiring.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.switches.topology()
    }

    /// Test and microbench hook: forces how the per-cycle sweeps iterate
    /// switches (the dense scan is the parity reference for the sparse
    /// walk). Not part of a machine snapshot: a restored machine sweeps
    /// sparsely.
    #[doc(hidden)]
    pub fn set_sweep_mode(&mut self, mode: SweepMode) {
        self.sweep = mode;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Largest packet occupancy any forward (ToMM) queue in the fabric
    /// reached — the measured counterpart of §4.2's observation that
    /// 18-packet queues behave like infinite ones.
    #[must_use]
    pub fn request_queue_high_water(&self) -> usize {
        self.switches.fabric_request_queue_high_water()
    }

    /// Wait-buffer entries outstanding across every switch — the
    /// instantaneous combining-capacity gauge the telemetry recorder
    /// samples at window boundaries.
    #[must_use]
    pub fn total_wait_occupancy(&self) -> u64 {
        self.switches.total_wait_occupancy() as u64
    }

    /// The requests this copy holds (absorbed ones excepted: a wait
    /// buffer keeps only what their replies need).
    pub fn requests(&self) -> impl Iterator<Item = &Message> {
        self.switches
            .requests()
            .items()
            .chain(self.pending_drops.iter())
    }

    /// Snapshots the per-switch hot-spot matrices: cumulative combine
    /// counts, request-queue high-water marks, and instantaneous
    /// wait-buffer occupancy for every switch in the fabric.
    #[must_use]
    pub fn heatmap(&self) -> HeatmapSnapshot {
        let stages = self.topology().stages();
        let width = self.topology().switches_per_stage();
        let mut snap = HeatmapSnapshot::new(stages, width);
        for s in 0..stages {
            for i in 0..width {
                snap.record(
                    s,
                    i,
                    self.switches.combines(s, i),
                    self.switches.request_queue_high_water(s, i) as u64,
                    self.switches.wait_occupancy(s, i) as u64,
                );
            }
        }
        snap
    }

    /// Draws a fresh request id (callers managing their own id space — like
    /// the PNI layer — may ignore this).
    pub fn next_msg_id(&mut self) -> MsgId {
        let id = self.next_id;
        self.next_id += 1;
        MsgId(id)
    }

    /// Moves this network's id counter to `base`, so that the `d` copies
    /// of a machine draw disjoint ids.
    pub fn set_msg_id_base(&mut self, base: u64) {
        self.next_id = base;
    }

    /// Offers a request to the network at cycle `now`. Taken, it either
    /// enters or is lost on the wire by a lossy link: the link time is
    /// spent, and the request is handed back with the cycle's drops.
    ///
    /// # Errors
    ///
    /// Returns the message back if the PE's input link is still streaming a
    /// previous message or the entry switch has no room (backpressure); the
    /// caller should retry next cycle.
    // Returning the refused message by value is the point of the API: the
    // caller keeps ownership without a clone, and a `Message` is a flat
    // 56-byte value that the hot path memcpys rather than boxes.
    pub fn try_inject_request(&mut self, msg: Message, now: Cycle) -> Result<(), Message> {
        if self.fault_refuses(&msg) {
            self.stats.fault_refusals.incr();
            return Err(msg);
        }
        let pe = msg.src;
        if now < self.pe_link_free[pe.0] {
            self.stats.inject_stalls.incr();
            return Err(msg);
        }
        let (sw, in_port) = self.topology().pe_entry(pe);
        if !self.switches.can_admit_request(sw, &msg) {
            self.stats.inject_stalls.incr();
            return Err(msg);
        }
        let len = msg.packets(self.cfg.data_packets, self.cfg.ctl_packets);
        self.pe_link_free[pe.0] = now + Cycle::from(len);
        // Lossy PE→network link: the message streams onto the wire (the
        // link time is consumed) but never reaches the entry switch. The
        // loss is reported like a kill, and the PE offers the request
        // again: it was lost *before* any combining or memory application.
        if self.mask.roll_link_loss() {
            self.stats.fault_dropped.incr();
            self.pending_drops.push(msg);
            return Ok(());
        }
        self.stats.injected_requests.incr();
        let handle = self.switches.admit_request(msg);
        match self
            .switches
            .accept_request(0, sw, handle, in_port, now, &mut self.stats)
        {
            AcceptOutcome::Dropped(m) => self.pending_drops.push(m),
            AcceptOutcome::Queued | AcceptOutcome::Combined => {}
        }
        // Every outcome leaves the entry switch holding forward traffic —
        // a drop only happens when the target queue is already non-empty.
        self.active_fwd.insert(0, sw);
        Ok(())
    }

    /// Offers a reply (from an MNI) to the reverse network at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns the reply back if the MM's link is busy or the last-stage
    /// switch has no room for it (and any decombined reply it would spawn).
    pub fn try_inject_reply(&mut self, mut reply: Reply, now: Cycle) -> Result<(), Reply> {
        let mm = reply.addr.mm;
        if now < self.mm_link_free[mm.0] {
            return Err(reply);
        }
        let last = self.topology().stages() - 1;
        let (sw, in_port) = self.topology().reverse_entry(mm);
        if !self.switches.can_admit_reply(sw, &reply) {
            return Err(reply);
        }
        reply.mm_injected_at = now;
        let len = reply.packets(self.cfg.data_packets, self.cfg.ctl_packets);
        self.mm_link_free[mm.0] = now + Cycle::from(len);
        self.stats.injected_replies.incr();
        let handle = self.switches.admit_reply(reply, last);
        self.switches
            .accept_reply(last, sw, handle, in_port, now, &mut self.stats);
        self.active_rev.insert(last, sw);
        Ok(())
    }

    /// Advances the whole fabric by one switch cycle, writing whatever
    /// emerged into the caller-supplied `events` buffer (cleared first).
    /// Free of per-cycle allocation once the buffer's capacity has warmed
    /// up.
    pub fn cycle_into(&mut self, now: Cycle, events: &mut NetworkEvents) {
        events.clear();
        events.dropped.append(&mut self.pending_drops);
        self.sweep_forward(now);
        self.sweep_reverse(now);
        // Drain tails that completed arrival at the fabric edge.
        let (stats, switches) = (&mut self.stats, &mut self.switches);
        extract_ready(&mut self.fwd_egress, now, |handle| {
            let amalgam = switches.requests().link(handle).amalgam;
            let m = switches.release_request(handle);
            debug_assert_eq!(
                amalgam, m.src.0,
                "amalgam has become the origin PE number (§3.1.1)"
            );
            stats.delivered_requests.incr();
            stats.forward_transit.record(now - m.issued_at);
            events.requests_at_mm.push(m);
        });
        extract_ready(&mut self.rev_egress, now, |handle| {
            let amalgam = switches.replies().link(handle).amalgam;
            let r = switches.release_reply(handle);
            debug_assert_eq!(
                amalgam, r.addr.mm.0,
                "reverse amalgam has become the MM number (§3.1.1)"
            );
            stats.delivered_replies.incr();
            stats.reverse_transit.record(now - r.mm_injected_at);
            events.replies_at_pe.push(r);
        });
    }

    /// Whether no traffic is in flight anywhere in the fabric: every switch
    /// queue, both egress link sets, and the pending-drop list are empty.
    /// Wait-buffer entries are deliberately ignored — a live entry implies
    /// traffic that *is* visible elsewhere (at a bank or in a queue), while
    /// a poisoned entry (stuck-at fault) persists forever and must not keep
    /// the machine from fast-forwarding idle cycles.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        // No `active_sets_exact` debug-assert here: the engine now
        // consults drainedness every cycle (to skip the fabric sweep
        // entirely), and an O(switches-built) check per cycle makes
        // debug-build runs at 16K+ PEs intractable. The invariant is
        // property-tested in `crates/net/tests/active_set.rs`.
        self.fwd_egress.is_empty()
            && self.rev_egress.is_empty()
            && self.pending_drops.is_empty()
            && self.active_fwd.set.is_empty()
            && self.active_rev.set.is_empty()
    }

    /// Checks this copy's bookkeeping: the wait table (see
    /// [`Switches::check_wait_table`]) and request conservation. Every
    /// request the copy took in is, by its counters, delivered to its MM,
    /// absorbed by a combine, killed by a drop (a kill not yet handed back
    /// by [`OmegaNetwork::cycle_into`] is still counted) or live in the
    /// request slab:
    ///
    /// `injected_requests = delivered_requests + combines + drops + live`.
    ///
    /// A request a lossy link loses was never injected (it counts in
    /// `fault_dropped`); the pending drops are kills and losses not yet
    /// handed back.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn check_invariants(&self) {
        self.switches.check_wait_table();
        let s = &self.stats;
        let live = self.switches.requests().live() as u64;
        let accounted = s.delivered_requests.get() + s.combines.get() + s.drops.get() + live;
        assert_eq!(
            s.injected_requests.get(),
            accounted,
            "request conservation: injected = delivered {} + combined {} + dropped {} + live {live}",
            s.delivered_requests.get(),
            s.combines.get(),
            s.drops.get(),
        );
        let reported = s.drops.get() + s.fault_dropped.get();
        assert!(
            self.pending_drops.len() as u64 <= reported,
            "request conservation: {} pending drops, {reported} counted",
            self.pending_drops.len(),
        );
    }

    /// Checks the occupancy-bookkeeping invariant: each direction's active
    /// set contains exactly the switches whose queues hold traffic in that
    /// direction. Returns the first discrepancy as an error string.
    ///
    /// # Errors
    ///
    /// Describes the first switch whose membership disagrees with its
    /// queue occupancy.
    pub fn active_sets_exact(&self) -> Result<(), String> {
        let topo = self.topology();
        for s in 0..topo.stages() {
            for i in 0..topo.switches_per_stage() {
                let fwd = self.switches.has_forward_traffic(s, i);
                if self.active_fwd.contains(s, i) != fwd {
                    return Err(format!(
                        "stage {s} switch {i}: forward traffic {fwd} but membership {}",
                        self.active_fwd.contains(s, i)
                    ));
                }
                let rev = self.switches.has_reverse_traffic(s, i);
                if self.active_rev.contains(s, i) != rev {
                    return Err(format!(
                        "stage {s} switch {i}: reverse traffic {rev} but membership {}",
                        self.active_rev.contains(s, i)
                    ));
                }
            }
            for (what, sets) in [("forward", &self.active_fwd), ("reverse", &self.active_rev)] {
                let members = (0..topo.switches_per_stage()).filter(|&i| sets.contains(s, i));
                if members.count() != sets.per_stage[s] {
                    return Err(format!("stage {s}: {what} member count is off"));
                }
            }
        }
        Ok(())
    }

    /// Forward sweep, MM side first so freed space propagates upstream
    /// within the cycle.
    fn sweep_forward(&mut self, now: Cycle) {
        let last = self.topology().stages() - 1;
        for s in (0..=last).rev() {
            self.sweep_stage_forward(now, s);
        }
    }

    /// Visits the stage-`s` switches holding forward traffic, ascending.
    ///
    /// Sparse mode walks the active set's members through its summary;
    /// dense mode (forced through [`OmegaNetwork::set_sweep_mode`]) scans
    /// every switch. Both orders are ascending and a traffic-less switch
    /// is a no-op visit, so the two modes execute the identical operation
    /// sequence.
    ///
    /// Walking the set while transmissions mutate it is sound because
    /// processing stage `s` can only (a) remove the switch just processed
    /// — the cursor keeps its own copy of the word — and (b) insert into
    /// stage `s+1`, never into stage `s` itself.
    fn sweep_stage_forward(&mut self, now: Cycle, s: usize) {
        if self.sweep == SweepMode::Dense {
            for sw_idx in 0..self.topology().switches_per_stage() {
                self.transmit_forward(now, s, sw_idx);
            }
            return;
        }
        if self.active_fwd.per_stage[s] == 0 {
            return; // idle stage: skip without touching a single switch
        }
        let (mut walk, base) = self.active_fwd.walk(s);
        while let Some(i) = walk.next(&self.active_fwd.set) {
            self.transmit_forward(now, s, i - base);
        }
    }

    /// Reverse sweep, PE side first.
    fn sweep_reverse(&mut self, now: Cycle) {
        for s in 0..self.topology().stages() {
            self.sweep_stage_reverse(now, s);
        }
    }

    /// Reverse-direction mirror of [`OmegaNetwork::sweep_stage_forward`]:
    /// same forced dense scan, same empty-stage skip, same member walk, with
    /// transmissions landing in stage `s - 1`.
    fn sweep_stage_reverse(&mut self, now: Cycle, s: usize) {
        if self.sweep == SweepMode::Dense {
            for sw_idx in 0..self.topology().switches_per_stage() {
                self.transmit_reverse(now, s, sw_idx);
            }
            return;
        }
        if self.active_rev.per_stage[s] == 0 {
            return;
        }
        let (mut walk, base) = self.active_rev.walk(s);
        while let Some(i) = walk.next(&self.active_rev.set) {
            self.transmit_reverse(now, s, i - base);
        }
    }

    /// Tries to advance the head of every ToMM queue of stage-`s` switch
    /// `sw_idx`. A hop unlinks the head's handle here and links it one
    /// stage on; the message body stays where it is in the slab.
    fn transmit_forward(&mut self, now: Cycle, s: usize, sw_idx: usize) {
        for port in 0..self.cfg.k {
            let Some((head, len)) = self.switches.forward_head_ready(s, sw_idx, port, now) else {
                continue;
            };
            match self.topology().forward_next(s, sw_idx, port) {
                ForwardHop::ToMm(_) => {
                    let handle = self.switches.transmit_request(s, sw_idx, port, now);
                    self.fwd_egress.push((now + Cycle::from(len), handle));
                }
                ForwardHop::ToSwitch(next_sw, next_port) => {
                    if !self.switches.can_accept_request(s + 1, next_sw, head) {
                        continue; // backpressure: try again next cycle
                    }
                    let handle = self.switches.transmit_request(s, sw_idx, port, now);
                    match self.switches.accept_request(
                        s + 1,
                        next_sw,
                        handle,
                        next_port,
                        now + 1,
                        &mut self.stats,
                    ) {
                        AcceptOutcome::Dropped(m) => self.pending_drops.push(m),
                        AcceptOutcome::Queued | AcceptOutcome::Combined => {}
                    }
                    // A drop only happens when the target queue already holds
                    // traffic, so the downstream switch is active after every
                    // outcome.
                    self.active_fwd.insert(s + 1, next_sw);
                }
            }
            // The upstream switch retires once emptied.
            if !self.switches.has_forward_traffic(s, sw_idx) {
                self.active_fwd.remove(s, sw_idx);
            }
        }
    }

    /// Tries to advance the head of every ToPE queue of stage-`s` switch
    /// `sw_idx`.
    fn transmit_reverse(&mut self, now: Cycle, s: usize, sw_idx: usize) {
        for port in 0..self.cfg.k {
            let Some((head, len)) = self.switches.reverse_head_ready(s, sw_idx, port, now) else {
                continue;
            };
            match self.topology().reverse_next(s, sw_idx, port) {
                ReverseHop::ToPe(_) => {
                    let handle = self.switches.transmit_reply(s, sw_idx, port, now);
                    self.rev_egress.push((now + Cycle::from(len), handle));
                }
                ReverseHop::ToSwitch(prev_sw, prev_port) => {
                    if !self.switches.can_accept_reply(s - 1, prev_sw, head) {
                        continue;
                    }
                    let handle = self.switches.transmit_reply(s, sw_idx, port, now);
                    self.switches.accept_reply(
                        s - 1,
                        prev_sw,
                        handle,
                        prev_port,
                        now + 1,
                        &mut self.stats,
                    );
                    // Decombined twins also land in `prev_sw`, so the accept
                    // always leaves it holding reverse traffic.
                    self.active_rev.insert(s - 1, prev_sw);
                }
            }
            if !self.switches.has_reverse_traffic(s, sw_idx) {
                self.active_rev.remove(s, sw_idx);
            }
        }
    }
}

/// Removes entries with `ready_at <= now` from `pending`, handing each to
/// `sink` (order of readiness preserved).
fn extract_ready<T>(pending: &mut Vec<(Cycle, T)>, now: Cycle, mut sink: impl FnMut(T)) {
    let mut i = 0;
    while i < pending.len() {
        if pending[i].0 <= now {
            let (_, item) = pending.swap_remove(i);
            sink(item);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgKind, ReplyKind};
    use ultra_sim::{MemAddr, MmId, PeId, Value};

    /// Advances `net` one cycle into a fresh event buffer.
    fn cyc(net: &mut OmegaNetwork, now: Cycle) -> NetworkEvents {
        let mut events = NetworkEvents::default();
        net.cycle_into(now, &mut events);
        events
    }

    fn load(net: &mut OmegaNetwork, pe: usize, mm: usize, offset: usize) -> MsgId {
        let id = net.next_msg_id();
        let msg = Message::request(
            id,
            MsgKind::Load,
            MemAddr::new(MmId(mm), offset),
            0,
            PeId(pe),
            0,
        );
        net.try_inject_request(msg, 0).expect("inject");
        id
    }

    fn faa(net: &mut OmegaNetwork, pe: usize, mm: usize, e: Value, now: Cycle) -> MsgId {
        let id = net.next_msg_id();
        let msg = Message::request(
            id,
            MsgKind::fetch_add(),
            MemAddr::new(MmId(mm), 0),
            e,
            PeId(pe),
            now,
        );
        net.try_inject_request(msg, now).expect("inject");
        id
    }

    /// Runs cycles until a request pops out at the MM side.
    fn run_until_mm(net: &mut OmegaNetwork, start: Cycle, limit: Cycle) -> (Cycle, Vec<Message>) {
        for now in start..start + limit {
            let ev = cyc(net, now);
            if !ev.requests_at_mm.is_empty() {
                return (now, ev.requests_at_mm);
            }
        }
        panic!("no MM arrival within {limit} cycles");
    }

    #[test]
    fn minimum_forward_transit_is_stages_plus_pipe_fill() {
        // 64 PEs, k=2 -> 6 stages. A 1-packet load injected at cycle 0 must
        // arrive at cycle 6 (D + m - 1 = 6 + 0).
        let mut net = OmegaNetwork::new(NetConfig::small(64));
        load(&mut net, 13, 42, 7);
        let (t, msgs) = run_until_mm(&mut net, 0, 50);
        assert_eq!(t, 6);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].addr, MemAddr::new(MmId(42), 7));
        assert_eq!(msgs[0].src, PeId(13));
    }

    #[test]
    fn data_message_takes_pipe_fill_penalty() {
        // A 3-packet store over 6 stages: D + m - 1 = 8 cycles.
        let mut net = OmegaNetwork::new(NetConfig::small(64));
        let id = net.next_msg_id();
        let msg = Message::request(id, MsgKind::Store, MemAddr::new(MmId(9), 0), 5, PeId(3), 0);
        net.try_inject_request(msg, 0).unwrap();
        let (t, _) = run_until_mm(&mut net, 0, 50);
        assert_eq!(t, 8);
    }

    #[test]
    fn round_trip_reply_returns_to_issuer() {
        let mut net = OmegaNetwork::new(NetConfig::small(16));
        let id = load(&mut net, 5, 11, 3);
        let (t, msgs) = run_until_mm(&mut net, 0, 50);
        let req = &msgs[0];
        let reply = Reply::to_request(req, 777);
        net.try_inject_reply(reply, t + 2).expect("inject reply");
        for now in t + 2..t + 40 {
            let ev = cyc(&mut net, now);
            if let Some(r) = ev.replies_at_pe.first() {
                assert_eq!(r.id, id);
                assert_eq!(r.dst, PeId(5));
                assert_eq!(r.value, 777);
                assert_eq!(r.kind, ReplyKind::Value);
                return;
            }
        }
        panic!("reply never arrived");
    }

    #[test]
    fn hotspot_fetch_adds_fully_combine_into_one_message() {
        // All 16 PEs fire F&A(X, 1) at the same word in the same cycle. The
        // tree must combine them into a single request reaching the MM with
        // the full increment, and the 16 replies must be the prefix sums
        // 0..16 in some order.
        let n = 16;
        let mut net = OmegaNetwork::new(NetConfig::small(n));
        let mut ids = Vec::new();
        for pe in 0..n {
            ids.push(faa(&mut net, pe, 6, 1, 0));
        }
        let mut mm_arrivals = Vec::new();
        let mut t_arrive = 0;
        for now in 0..100 {
            let ev = cyc(&mut net, now);
            mm_arrivals.extend(ev.requests_at_mm);
            if !mm_arrivals.is_empty() {
                t_arrive = now;
                break;
            }
        }
        assert_eq!(
            mm_arrivals.len(),
            1,
            "a complete combining tree folds N requests into one"
        );
        let req = &mm_arrivals[0];
        assert_eq!(req.value, n as Value, "combined increment is the total");
        assert_eq!(net.stats().combines.get(), (n - 1) as u64);

        // Memory held 100; serve the combined request.
        let reply = Reply::to_request(req, 100);
        let mut now = t_arrive + 2;
        net.try_inject_reply(reply, now).unwrap();
        let mut got = Vec::new();
        while got.len() < n && now < t_arrive + 200 {
            now += 1;
            let ev = cyc(&mut net, now);
            got.extend(ev.replies_at_pe);
        }
        assert_eq!(got.len(), n, "every PE gets a decombined reply");
        let mut values: Vec<Value> = got.iter().map(|r| r.value).collect();
        values.sort_unstable();
        let expected: Vec<Value> = (100..100 + n as Value).collect();
        assert_eq!(values, expected, "replies are the prefix sums of X=100");
        // All n distinct requesters are answered.
        let mut dsts: Vec<usize> = got.iter().map(|r| r.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, (0..n).collect::<Vec<_>>());
        assert_eq!(net.stats().decombines.get(), (n - 1) as u64);
    }

    #[test]
    fn uniform_loads_all_complete() {
        // Every PE loads from a distinct MM; all must arrive.
        let n = 32;
        let mut net = OmegaNetwork::new(NetConfig::small(n));
        for pe in 0..n {
            load(&mut net, pe, (pe * 7 + 3) % n, pe);
        }
        let mut arrived = 0;
        for now in 0..500 {
            arrived += cyc(&mut net, now).requests_at_mm.len();
            if arrived == n {
                return;
            }
        }
        panic!("only {arrived}/{n} arrived");
    }

    #[test]
    fn injection_respects_link_rate() {
        let mut net = OmegaNetwork::new(NetConfig::small(8));
        let a = Message::request(
            MsgId(1),
            MsgKind::Store,
            MemAddr::new(MmId(1), 0),
            1,
            PeId(0),
            0,
        );
        let b = Message::request(
            MsgId(2),
            MsgKind::Store,
            MemAddr::new(MmId(2), 0),
            2,
            PeId(0),
            0,
        );
        net.try_inject_request(a, 0).unwrap();
        // The PE link streams 3 packets; a second message can't enter until
        // cycle 3.
        let b = net.try_inject_request(b, 1).unwrap_err();
        let b = net.try_inject_request(b, 2).unwrap_err();
        net.try_inject_request(b, 3).unwrap();
        assert_eq!(net.stats().inject_stalls.get(), 2);
    }

    #[test]
    fn drop_policy_reports_kills() {
        let mut cfg = NetConfig::small(8);
        cfg.policy = SwitchPolicy::DropOnConflict;
        let mut net = OmegaNetwork::new(cfg);
        // Two PEs sharing a stage-0 switch target the same output port.
        // PEs 0 and 4 share switch 0; MMs 0..4 route out port 0.
        for (id, pe) in [(1u64, 0usize), (2, 4)] {
            let msg = Message::request(
                MsgId(id),
                MsgKind::Load,
                MemAddr::new(MmId(1), 0),
                0,
                PeId(pe),
                0,
            );
            let _ = net.try_inject_request(msg, 0);
        }
        let ev = cyc(&mut net, 0);
        assert_eq!(ev.dropped.len(), 1, "the conflicting request is killed");
        assert_eq!(net.stats().drops.get(), 1);
    }

    #[test]
    fn dead_port_blocks_exactly_the_routes_crossing_it() {
        let mut net = OmegaNetwork::new(NetConfig::small(8));
        // Kill the stage-0 output port PE 0's route to MM 1 uses.
        let t = Topology::new(8, 2);
        let (sw, _) = t.pe_entry(PeId(0));
        let dead_port = t.forward_out_port(MmId(1), 0);
        let mut mask = FaultMask::healthy();
        mask.kill_port(0, sw, dead_port);
        net.set_fault_mask(mask);
        let blocked = Message::request(
            MsgId(1),
            MsgKind::Load,
            MemAddr::new(MmId(1), 0),
            0,
            PeId(0),
            0,
        );
        assert!(net.fault_refuses(&blocked));
        assert!(net.try_inject_request(blocked, 0).is_err());
        assert_eq!(net.stats().fault_refusals.get(), 1);
        // The same PE reaching an MM through the other port is unaffected.
        let other_mm = MmId((dead_port * 4) ^ 4); // flips the stage-0 digit
        let clear = Message::request(
            MsgId(2),
            MsgKind::Load,
            MemAddr::new(other_mm, 0),
            0,
            PeId(0),
            0,
        );
        assert!(!net.fault_refuses(&clear));
        net.try_inject_request(clear, 0).unwrap();
    }

    #[test]
    fn lossy_link_swallows_deterministically() {
        let run = |seed: u64| {
            let mut net = OmegaNetwork::new(NetConfig::small(8));
            let mut mask = FaultMask::healthy();
            mask.set_link_loss(0.5, seed);
            net.set_fault_mask(mask);
            let (mut delivered, mut handed_back) = (0, 0);
            for i in 0..20u64 {
                let msg = Message::request(
                    MsgId(i + 1),
                    MsgKind::Load,
                    MemAddr::new(MmId((i % 8) as usize), 0),
                    0,
                    PeId((i % 8) as usize),
                    i * 10,
                );
                net.try_inject_request(msg, i * 10).unwrap();
                for now in i * 10..i * 10 + 10 {
                    let events = cyc(&mut net, now);
                    delivered += events.requests_at_mm.len();
                    handed_back += events.dropped.len() as u64;
                }
            }
            let lost = net.stats().fault_dropped.get();
            assert_eq!(handed_back, lost, "every loss is reported");
            (delivered, lost)
        };
        let (delivered, lost) = run(7);
        assert_eq!(
            delivered as u64 + lost,
            20,
            "every request lost or delivered"
        );
        assert!(lost > 0, "p = 0.5 must lose some of 20");
        assert!(delivered > 0, "p = 0.5 must deliver some of 20");
        assert_eq!((delivered, lost), run(7), "same seed, same losses");
    }

    #[test]
    fn request_conservation_holds_every_cycle_under_every_policy() {
        for policy in [
            SwitchPolicy::QueuedCombining,
            SwitchPolicy::QueuedNoCombine,
            SwitchPolicy::DropOnConflict,
        ] {
            let mut cfg = NetConfig::small(16);
            cfg.policy = policy;
            cfg.request_queue_packets = 4;
            let mut net = OmegaNetwork::new(cfg);
            let mut events = NetworkEvents::default();
            for now in 0..120 {
                for pe in (0..16).filter(|pe| (pe + now as usize) % 3 == 0) {
                    let id = net.next_msg_id();
                    let msg = Message::request(
                        id,
                        MsgKind::fetch_add(),
                        MemAddr::new(MmId(pe % 2), 0),
                        1,
                        PeId(pe),
                        now,
                    );
                    let _ = net.try_inject_request(msg, now);
                    net.check_invariants();
                }
                net.cycle_into(now, &mut events);
                net.check_invariants();
                for req in events.requests_at_mm.drain(..) {
                    let _ = net.try_inject_reply(Reply::to_request(&req, 0), now);
                }
            }
            let s = net.stats();
            assert!(s.delivered_requests.get() > 0, "{policy:?}");
            match policy {
                SwitchPolicy::QueuedCombining => assert!(s.combines.get() > 0),
                SwitchPolicy::DropOnConflict => assert!(s.drops.get() > 0),
                SwitchPolicy::QueuedNoCombine => {}
            }
        }
    }

    #[test]
    fn queue_backpressure_never_loses_messages() {
        // Tiny queues + a hot MM: every request must still eventually arrive
        // (no drops under the queued policies).
        let mut cfg = NetConfig::small(16);
        cfg.request_queue_packets = 3;
        cfg.policy = SwitchPolicy::QueuedNoCombine;
        let mut net = OmegaNetwork::new(cfg);
        let total = 32;
        let mut injected = 0;
        let mut arrived = 0;
        let mut next_payload = Vec::new();
        for pe in 0..16 {
            for j in 0..2 {
                next_payload.push((pe, j));
            }
        }
        let mut now = 0;
        let mut idcount = 0;
        while arrived < total && now < 5000 {
            while injected < total {
                let (pe, j) = next_payload[injected];
                idcount += 1;
                let msg = Message::request(
                    MsgId(idcount),
                    MsgKind::Store,
                    MemAddr::new(MmId(3), pe * 10 + j),
                    1,
                    PeId(pe),
                    now,
                );
                if net.try_inject_request(msg, now).is_err() {
                    break;
                }
                injected += 1;
            }
            arrived += cyc(&mut net, now).requests_at_mm.len();
            now += 1;
        }
        assert_eq!(arrived, total, "backpressure must not lose messages");
        assert_eq!(net.stats().drops.get(), 0);
    }
}
