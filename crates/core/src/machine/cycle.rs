//! The cycle loop: `run`/`step`, the PE phase, the outbound flush, the
//! backend cycle and reply delivery, the park/wake rule of the ready set,
//! and each shard's datapath cycle.

use std::time::Instant;

use ultra_mem::Offer;
use ultra_net::message::{MsgKind, Reply};
use ultra_obs::{EnginePhase, PhaseSpan};
use ultra_pe::pni::PniError;
use ultra_sim::active::Walk;
use ultra_sim::{Cycle, PeId};

use super::{
    BackendImpl, CtxState, CycleCtx, CycleSinks, Machine, PeShard, Purpose, ReqMeta, RunOutcome,
    BARRIER_VADDR_BASE,
};
use crate::interp::{Fetched, IssueSpec};
use crate::trace::TraceEvent;

impl Machine {
    /// Runs until completion or the cycle budget.
    pub fn run(&mut self) -> RunOutcome {
        let started = Instant::now();
        let outcome = self.run_inner();
        self.run_elapsed = Some(started.elapsed());
        outcome
    }

    /// Runs for at most `budget` further cycles (or to completion, or to
    /// [`super::MachineConfig::max_cycles`], whichever is soonest). Stopping and
    /// resuming is bit-identical to an uninterrupted [`Machine::run`]:
    /// `run_for(k)` then `run_for(m)` leaves exactly the state of
    /// `run_for(k + m)`. This is the unit the job server's
    /// checkpoint-on-budget and snapshot-cache prefixes are built from.
    pub fn run_for(&mut self, budget: Cycle) -> RunOutcome {
        let orig = self.cfg.max_cycles;
        self.cfg.max_cycles = orig.min(self.now.saturating_add(budget));
        let outcome = self.run();
        self.cfg.max_cycles = orig;
        outcome
    }

    /// Runs to cycle `target` the way a donor can have got there:
    /// `run_for`, then [`Machine::step`] past a completion — after which
    /// nothing but scheduled events happen, so with fast-forward on the
    /// idle stretch up to the next one is jumped.
    pub(super) fn advance_to(&mut self, target: Cycle) {
        while self.now < target {
            self.run_for(target - self.now);
            if self.now == target {
                break;
            }
            self.step();
            if self.cfg.fast_forward {
                let budget = self.cfg.max_cycles;
                self.cfg.max_cycles = budget.min(target);
                self.fast_forward_idle();
                self.cfg.max_cycles = budget;
            }
        }
    }

    fn run_inner(&mut self) -> RunOutcome {
        // A machine that already completed must stay a fixed point:
        // without this check a resumed (restored or re-run) quiescent
        // machine would burn one extra cycle before noticing, breaking
        // run/snapshot/resume parity.
        if self.is_quiescent() {
            return self.finish(true);
        }
        while self.now < self.cfg.max_cycles {
            self.step();
            if self.is_quiescent() {
                return self.finish(true);
            }
            if self.cfg.fast_forward {
                self.fast_forward_idle();
            }
        }
        self.finish(false)
    }

    fn finish(&mut self, completed: bool) -> RunOutcome {
        let cycles = self.now;
        if self.series.is_enabled() {
            // Close the final (possibly partial) telemetry window so the
            // per-window sums cover the whole run.
            let (cum, gauges) = self.telemetry_sample();
            self.series.flush(self.now, cum, gauges);
        }
        self.debug_check_invariants();
        RunOutcome { completed, cycles }
    }

    fn is_quiescent(&self) -> bool {
        self.halted_count == self.virtual_pes() && self.meta.is_empty() && self.outgoing.is_empty()
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        let fired = self.fault_clock.due(now);
        if !fired.is_empty() {
            // A fault may halt contexts or re-key PNIs: every parked
            // shard is settled and re-examined (`runnable = live`).
            let mut walk = Walk::default();
            while let Some(i) = walk.next(&self.live) {
                self.wake(i);
            }
        }
        for fault in fired {
            self.apply_fault(fault);
        }
        // Phase timing costs an `Instant::now` pair per phase: off by default.
        let timed = self.phases.is_enabled();
        let t0 = timed.then(Instant::now);
        self.flush_outgoing(now);
        if let Some(t0) = t0 {
            let dur = t0.elapsed().as_nanos() as u64;
            self.record_phase_span(now, EnginePhase::Flush, t0, dur);
        }
        self.backend_cycle(now);
        self.queue_due_retries(now);
        self.release_barrier_if_complete();
        let t0 = timed.then(Instant::now);
        self.pe_phase(now);
        if let Some(t0) = t0 {
            let dur = t0.elapsed().as_nanos() as u64;
            self.record_phase_span(now, EnginePhase::PeShards, t0, dur);
        }
        self.now += 1;
        self.telemetry_tick();
    }

    /// Records one wall-clock phase span that started at `t0` and took
    /// `dur_ns`.
    fn record_phase_span(&mut self, cycle: Cycle, phase: EnginePhase, t0: Instant, dur_ns: u64) {
        let start_ns = t0.saturating_duration_since(self.phase_epoch).as_nanos() as u64;
        self.phases.record(PhaseSpan {
            cycle,
            phase,
            start_ns,
            dur_ns,
        });
    }

    /// The datapath cycle of every runnable physical PE, in ascending
    /// shard order, each followed at once by its epilogue: a shard that
    /// issued joins [`Machine::outgoing`], and one whose cycle proved it
    /// parked or fully halted leaves [`Machine::runnable`]. Shards outside
    /// the set are not visited at all: their datapath cycle is provably an
    /// idle charge and nothing else, and that charge is stamped lazily
    /// ([`PeShard::unstamped_idle`]).
    fn pe_phase(&mut self, now: Cycle) {
        let cx = CycleCtx {
            now,
            cpi: self.cfg.time.cycles_per_instruction,
            barrier_generation: self.barrier_generation,
        };
        let mut sinks = CycleSinks {
            meta: &mut self.meta,
            trace: &mut self.trace,
            halted_count: &mut self.halted_count,
        };
        let mut walk = Walk::default();
        while let Some(i) = walk.next(&self.runnable) {
            let shard = &mut self.shards[i];
            // Mid-instruction: the most common visit, and nothing to do.
            if shard.busy_until > now {
                continue;
            }
            let halted_before = *sinks.halted_count;
            shard.datapath_cycle(cx, &mut sinks);
            if !shard.outgoing.is_empty() {
                self.outgoing.insert(i);
            }
            let all_halted = *sinks.halted_count != halted_before
                && shard.states.iter().all(|s| *s == CtxState::Halted);
            if all_halted {
                self.live.remove(i);
            }
            if all_halted || shard.parked_since.is_some() {
                self.runnable.remove(i);
            }
        }
    }

    /// Returns parked shard `i` to the runnable set, first charging the
    /// idle cycles it sat out (its contexts' states have not changed
    /// since it parked, so the charge lands where per-cycle visits would
    /// have put it). No-op on a shard that is not parked; callers about
    /// to change a context's state wake first.
    fn wake(&mut self, i: usize) {
        let shard = &mut self.shards[i];
        if let Some(since) = shard.parked_since.take() {
            shard.charge_idle(self.now - since);
            self.runnable.insert(i);
        }
    }

    /// Debug-build check of the machine's invariants, run where a run
    /// stops, where a fork or a snapshot is taken and where a restore
    /// ends (O(N): never per cycle): the ready sets (`runnable ⊆ live`,
    /// and every live non-member is marked parked and re-proves it), a
    /// copy map no larger than the requests in flight (an entry leaves
    /// wherever its request is lost), and each network copy's wait table
    /// (its per-switch counts sum to its size, none over `wait_entries`).
    pub(crate) fn debug_check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let live = shard.states.iter().any(|s| *s != CtxState::Halted);
            let parked = live && !self.runnable.contains(i);
            assert_eq!(self.live.contains(i), live, "shard {i}: live set");
            assert!(
                live || !self.runnable.contains(i),
                "shard {i}: runnable ⊄ live"
            );
            assert_eq!(shard.parked_since.is_some(), parked, "shard {i}: flag");
            let proof = shard.busy_until <= self.now
                && (0..shard.states.len()).all(|c| shard.ctx_parked(c));
            assert!(
                !parked || proof,
                "shard {i}: parked but a context could run"
            );
        }
        if let BackendImpl::Network(fabric) = &self.backend {
            let (entries, in_flight) = (fabric.copy_map_len(), fabric.requests_in_flight());
            assert!(
                entries <= in_flight,
                "copy map: {entries} entries, {in_flight} in flight"
            );
            fabric.check_wait_tables();
        }
    }

    /// Tries to push queued outbound messages into the backend, walking
    /// the members of [`Machine::outgoing`]; only the shard just flushed
    /// is ever removed, so the walk is safe against its own updates.
    fn flush_outgoing(&mut self, now: Cycle) {
        let mut walk = Walk::default();
        while let Some(pe) = walk.next(&self.outgoing) {
            self.flush_shard_outgoing(pe, now);
            if self.shards[pe].outgoing.is_empty() {
                self.outgoing.remove(pe);
            }
        }
    }

    /// Flushes one shard's queue until empty or backpressured. Each
    /// message is offered by value; a refused one goes back to the head.
    fn flush_shard_outgoing(&mut self, pe: usize, now: Cycle) {
        while let Some(msg) = self.shards[pe].outgoing.pop_front() {
            match &mut self.backend {
                BackendImpl::Ideal {
                    latency, pending, ..
                } => {
                    let due = now + *latency;
                    pending.entry(due).or_default().push(msg);
                }
                BackendImpl::Network(fabric) => match fabric.offer(msg, now) {
                    Offer::Injected => {}
                    Offer::Refused(refused) => {
                        // Backpressure; retry next cycle.
                        self.shards[pe].outgoing.push_front(refused);
                        break;
                    }
                    // Abandoned rather than wedging this PE's queue; the
                    // PNI timeout re-issues it under whatever translation
                    // the degraded hash uses by then.
                    Offer::Unroutable => self.unroutable += 1,
                },
            }
        }
    }

    /// Advances the memory system and delivers completions.
    fn backend_cycle(&mut self, now: Cycle) {
        let timed = self.phases.is_enabled();
        // Staged first to avoid borrowing `self` across the delivery; the
        // buffer is pooled on the machine so steady state never allocates.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        debug_assert!(deliveries.is_empty());
        // Spans are staged here and recorded after the backend borrow
        // ends.
        let mut bank_span: Option<(Instant, u64)> = None;
        let mut net_span: Option<(Instant, u64)> = None;
        match &mut self.backend {
            BackendImpl::Ideal { para, pending, .. } => {
                let t0 = timed.then(Instant::now);
                if let Some(batch) = pending.remove(&now) {
                    // The whole batch is "simultaneous": serialization
                    // principle via seeded shuffle inside apply_batch.
                    let n = self.cfg.net.pes;
                    let ops: Vec<crate::paracomputer::MemOp> = batch
                        .iter()
                        .map(|m| {
                            let key = Self::flat_key(m.addr, n);
                            match m.kind {
                                MsgKind::Load => crate::paracomputer::MemOp::Load { addr: key },
                                MsgKind::Store => crate::paracomputer::MemOp::Store {
                                    addr: key,
                                    value: m.value,
                                },
                                MsgKind::FetchPhi(op) => crate::paracomputer::MemOp::FetchPhi {
                                    op,
                                    addr: key,
                                    operand: m.value,
                                },
                            }
                        })
                        .collect();
                    let results = para.apply_batch(&ops);
                    for (m, v) in batch.iter().zip(results) {
                        deliveries.push(Reply::to_request(m, v));
                    }
                }
                if let Some(t0) = t0 {
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64));
                }
            }
            BackendImpl::Network(fabric) => {
                let t0 = timed.then(Instant::now);
                self.duplicate_replies += fabric.serve_banks(now);
                if let Some(t0) = t0 {
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64));
                }
                let t0 = timed.then(Instant::now);
                fabric.advance(now, &mut deliveries, |dropped| {
                    // DropOnConflict: the PE must re-offer the request.
                    self.outgoing.insert(dropped.src.0);
                    self.shards[dropped.src.0].outgoing.push_back(dropped);
                });
                if let Some(t0) = t0 {
                    net_span = Some((t0, t0.elapsed().as_nanos() as u64));
                }
            }
        }
        if let Some((t0, dur)) = bank_span {
            self.record_phase_span(now, EnginePhase::MemBanks, t0, dur);
        }
        if let Some((t0, dur)) = net_span {
            self.record_phase_span(now, EnginePhase::Network, t0, dur);
        }
        for reply in deliveries.drain(..) {
            self.deliver_reply(&reply, now);
        }
        self.deliveries = deliveries;
    }

    fn deliver_reply(&mut self, reply: &Reply, now: Cycle) {
        let Some(meta) = self.meta.remove(&reply.id) else {
            // The retry protocol makes duplicate answers legal: a timed-out
            // request and its retry can both be served (the MM dedup cache
            // keeps the *effect* exactly-once). The first answer completed
            // the request; later ones are discarded here.
            self.duplicate_replies += 1;
            return;
        };
        let ctx = meta.ctx;
        let phys = ctx / self.cfg.contexts_per_pe;
        // A reply is the one thing that unlocks a register or drains a
        // fence: the shard's next datapath cycle must look again.
        self.wake(phys);
        let shard = &mut self.shards[phys];
        let c = ctx - shard.base;
        let matched = shard.pni.complete(reply);
        debug_assert!(matched, "PNI lost track of an outstanding request");
        shard.stats[c]
            .cm_access
            .record(now.saturating_sub(reply.request_issued_at));
        self.trace.record(TraceEvent::Reply {
            cycle: now,
            pe: PeId(ctx),
            latency: now.saturating_sub(reply.request_issued_at),
        });
        match meta.purpose {
            Purpose::Data => {
                if let Some(dst) = meta.dst {
                    shard.interps[c].write_and_unlock(dst, reply.value);
                }
            }
            Purpose::Barrier => {
                self.barrier_arrived += 1;
            }
        }
    }

    fn release_barrier_if_complete(&mut self) {
        let parties = self.cfg.barrier_parties.unwrap_or(self.virtual_pes());
        if self.barrier_arrived == parties {
            self.barrier_arrived = 0;
            self.trace.record(TraceEvent::BarrierRelease {
                cycle: self.now,
                generation: self.barrier_generation,
            });
            self.barrier_generation += 1;
            // Only live shards can hold a waiter. Each is woken before
            // its states change: the cycles it sat out are barrier waits
            // only while the charged context still says so.
            let mut walk = Walk::default();
            while let Some(i) = walk.next(&self.live) {
                if self.shards[i].states.contains(&CtxState::WaitBarrier) {
                    self.wake(i);
                    for state in &mut self.shards[i].states {
                        if *state == CtxState::WaitBarrier {
                            *state = CtxState::Ready;
                        }
                    }
                }
            }
        }
    }
}

impl PeShard {
    /// Issues `spec` for local context `c` through the shard's PNI and
    /// queues the message for injection, recording its metadata and trace
    /// event in `sinks`.
    fn attempt_issue(
        &mut self,
        c: usize,
        spec: &IssueSpec,
        purpose: Purpose,
        cx: CycleCtx,
        sinks: &mut CycleSinks<'_>,
    ) -> bool {
        if !self.outgoing.is_empty() {
            return false; // the PNI's outbound buffer is occupied
        }
        match self.pni.issue(spec.kind, spec.vaddr, spec.value, cx.now) {
            Ok(msg) => {
                let ctx = self.base + c;
                sinks.meta.insert(
                    msg.id,
                    ReqMeta {
                        ctx,
                        dst: spec.dst,
                        purpose,
                    },
                );
                if let Some(dst) = spec.dst {
                    self.interps[c].lock(dst);
                }
                sinks.trace.record(TraceEvent::Issue {
                    cycle: cx.now,
                    pe: PeId(ctx),
                    kind: spec.kind,
                    vaddr: spec.vaddr,
                });
                let s = &mut self.stats[c];
                s.shared_refs.incr();
                if spec.kind.reply_carries_data() {
                    s.cm_loads.incr();
                }
                self.outgoing.push_back(msg);
                true
            }
            Err(PniError::LocationBusy) => false,
        }
    }

    /// Whether local context `c` could execute an instruction right now
    /// if given the datapath (resolving any completed waits). With
    /// multiprogramming a fence waits for *this context's* requests; the
    /// shared PNI tracks per-PE, so a conservative fence waits for the
    /// whole PNI to drain.
    fn resolve_waits(&mut self, c: usize, now: Cycle) -> bool {
        match self.states[c] {
            CtxState::Ready | CtxState::WaitIssue(..) => true,
            CtxState::WaitUntil(at) if now < at => false,
            _ if self.ctx_parked(c) => false,
            _ => {
                self.states[c] = CtxState::Ready;
                true
            }
        }
    }

    /// One datapath cycle: round-robin over the shard's contexts,
    /// executing the first one that can make progress (zero-cost context
    /// switching, §3.5 / HEP).
    #[inline(never)]
    fn datapath_cycle(&mut self, cx: CycleCtx, sinks: &mut CycleSinks<'_>) {
        let k = self.states.len();
        for offset in 0..k {
            let c = (self.cursor + offset) % k;
            if !self.resolve_waits(c, cx.now) {
                continue;
            }
            let advanced = self.ctx_execute(c, cx, sinks);
            if advanced {
                // HEP-style: next instruction goes to the next context.
                self.cursor = (self.cursor + offset + 1) % k;
                return;
            }
        }
        // No context could use the datapath: a genuinely idle cycle. If
        // moreover every context waits on an event, all later cycles are
        // the same idle cycle until the machine wakes the shard.
        if self.charge_idle(1) && (0..k).all(|c| self.ctx_parked(c)) {
            self.parked_since = Some(cx.now + 1);
        }
    }

    /// Whether local context `c` waits on something no passing cycle can
    /// resolve — only a delivered reply, a barrier release or a fault.
    /// `Ready`, `WaitIssue` (re-attempts every cycle) and `WaitUntil`
    /// (the clock resolves it) are not parked.
    pub(super) fn ctx_parked(&self, c: usize) -> bool {
        match self.states[c] {
            CtxState::Halted | CtxState::WaitBarrier => true,
            CtxState::WaitReg(r) => self.interps[c].is_locked(r),
            CtxState::WaitFence => self.pni.outstanding() > 0,
            CtxState::Ready | CtxState::WaitIssue(..) | CtxState::WaitUntil(_) => false,
        }
    }

    /// The local context an idle datapath cycle is charged to — the one
    /// whose turn it was, else the first still alive — and whether it is
    /// waiting at a barrier. `None` once every context has halted.
    fn idle_owner(&self) -> Option<(usize, bool)> {
        let k = self.states.len();
        let owner = self.cursor % k;
        let c = if self.states[owner] != CtxState::Halted {
            owner
        } else {
            (0..k).find(|&c| self.states[c] != CtxState::Halted)?
        };
        Some((c, self.states[c] == CtxState::WaitBarrier))
    }

    /// Charges `cycles` idle datapath cycles; returns whether a context
    /// was alive to take them.
    pub(super) fn charge_idle(&mut self, cycles: u64) -> bool {
        let Some((c, at_barrier)) = self.idle_owner() else {
            return false;
        };
        self.stats[c].idle_cycles.add(cycles);
        if at_barrier {
            self.stats[c].barrier_wait_cycles.add(cycles);
        }
        true
    }

    /// The `(idle, barrier-wait)` cycles local context `c` is owed for the
    /// cycles its parked shard has sat out — zero unless the shard is
    /// parked and `c` is the context its idle cycles are charged to.
    /// [`Machine::wake`] settles them; everywhere statistics leave the
    /// machine before that, they are added on the fly — the way
    /// `total_cycles` is.
    pub(super) fn unstamped_idle(&self, c: usize, now: Cycle) -> (u64, u64) {
        match (self.parked_since, self.idle_owner()) {
            (Some(since), Some((owner, at_barrier))) if owner == c => {
                (now - since, if at_barrier { now - since } else { 0 })
            }
            _ => (0, 0),
        }
    }

    /// Attempts to execute one instruction of local context `c`. Returns
    /// whether the datapath was consumed.
    fn ctx_execute(&mut self, c: usize, cx: CycleCtx, sinks: &mut CycleSinks<'_>) -> bool {
        let now = cx.now;
        let cpi = cx.cpi;
        if let CtxState::WaitIssue(spec, purpose) = self.states[c].clone() {
            if self.attempt_issue(c, &spec, purpose, cx, sinks) {
                self.states[c] = if purpose == Purpose::Barrier {
                    CtxState::WaitBarrier
                } else {
                    CtxState::Ready
                };
                self.stats[c].instructions.incr();
                self.busy_until = now + cpi;
                return true;
            }
            return false;
        }

        match self.interps[c].next_op(now) {
            Fetched::Halted => {
                self.states[c] = CtxState::Halted;
                *sinks.halted_count += 1;
                sinks.trace.record(TraceEvent::Halt {
                    cycle: now,
                    pe: PeId(self.base + c),
                });
                // Halting consumes no datapath time; let another context
                // run this cycle.
                false
            }
            Fetched::Work {
                instructions,
                private_refs,
            } => {
                let s = &mut self.stats[c];
                s.instructions.add(u64::from(instructions));
                s.private_refs.add(u64::from(private_refs));
                self.busy_until = now + Cycle::from(instructions) * cpi;
                true
            }
            Fetched::BlockedOnReg(r) => {
                self.states[c] = CtxState::WaitReg(r);
                false
            }
            Fetched::SleepUntil(at) => {
                // The wait instruction itself costs one slot (it is the
                // fetch that fixed the target); the context then parks.
                self.states[c] = CtxState::WaitUntil(at);
                self.stats[c].instructions.incr();
                self.busy_until = now + cpi;
                true
            }
            Fetched::Fence => {
                self.states[c] = CtxState::WaitFence;
                self.stats[c].instructions.incr();
                self.busy_until = now + cpi;
                true
            }
            Fetched::Issue(spec) => {
                if self.attempt_issue(c, &spec, Purpose::Data, cx, sinks) {
                    self.stats[c].instructions.incr();
                    self.busy_until = now + cpi;
                    true
                } else {
                    self.states[c] = CtxState::WaitIssue(spec, Purpose::Data);
                    false
                }
            }
            Fetched::Barrier => {
                let spec = IssueSpec {
                    kind: MsgKind::fetch_add(),
                    vaddr: BARRIER_VADDR_BASE + cx.barrier_generation as usize,
                    value: 1,
                    dst: None,
                };
                if self.attempt_issue(c, &spec, Purpose::Barrier, cx, sinks) {
                    self.states[c] = CtxState::WaitBarrier;
                    self.stats[c].instructions.incr();
                    self.busy_until = now + cpi;
                    true
                } else {
                    self.states[c] = CtxState::WaitIssue(spec, Purpose::Barrier);
                    false
                }
            }
        }
    }
}
