//! The cycle loop: `run`/`step`, the PE phase, the outbound flush, the
//! backend cycle and reply delivery, the park/wake rule of the ready set,
//! and each shard's datapath cycle.

use std::cmp::Reverse;
use std::time::Instant;

use ultra_mem::Offer;
use ultra_net::message::{MsgKind, Reply};
use ultra_obs::{EnginePhase, PhaseSpan};
use ultra_pe::pni::{Access, PniError};
use ultra_sim::active::Walk;
use ultra_sim::{Cycle, IdMap, PeId};

use super::ff::min_event;
use super::{
    BackendImpl, Context, CtxState, CycleCtx, CycleSinks, Machine, PeShard, Purpose, RunOutcome,
    Tag, BARRIER_VADDR_BASE,
};
use crate::interp::{Env, Fetched, Frame, IssueSpec};
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
        self.halted_count == self.virtual_pes()
            && self.outstanding.is_empty()
            && self.outgoing.is_empty()
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        let fired = self.fault_clock.due(now);
        if !fired.is_empty() {
            // A fault may halt contexts or re-key PNIs: every parked
            // shard is settled and re-examined (`runnable = live`). That
            // leaves every calendar entry stale, so `wake_due` below
            // empties the calendar: a PE the fault fail-stops keeps none.
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
        self.wake_due(now);
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
        let k = self.cfg.contexts_per_pe;
        let cx = CycleCtx {
            now,
            cpi: self.cfg.time.cycles_per_instruction,
            barrier_generation: self.barrier_generation,
            code: &self.code,
            programs: &self.recipe.programs,
            hasher: &self.hasher,
            retry: self.retry,
            k,
            vpes: self.cfg.net.pes * k,
        };
        let mut sinks = CycleSinks {
            trace: &mut self.trace,
            halted_count: &mut self.halted_count,
            wakes: &mut self.wakes,
            outstanding: &mut self.outstanding,
            outbound: &mut self.outbound,
        };
        let depth = cx.code.depth();
        let mut walk = Walk::default();
        while let Some(i) = walk.next(&self.runnable) {
            let shard = &mut self.shards[i];
            // Mid-instruction: the most common visit, and nothing to do.
            if shard.busy_until > now {
                continue;
            }
            let ctxs = &mut self.ctxs[i * k..][..k];
            let frames = &mut self.frames[i * k * depth..][..k * depth];
            let halted_before = *sinks.halted_count;
            shard.datapath_cycle(ctxs, frames, cx, &mut sinks);
            if !shard.outgoing.is_empty() {
                self.outgoing.insert(i);
                if self.retry.is_some() {
                    self.retrying.insert(i);
                }
            }
            let all_halted = *sinks.halted_count != halted_before
                && ctxs.iter().all(|ctx| ctx.state == CtxState::Halted);
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
        let now = self.now;
        let (shard, ctxs) = self.shard_mut(i);
        if let Some(since) = shard.parked_since.take() {
            shard.charge_idle(ctxs, now - since);
            self.runnable.insert(i);
        }
    }

    /// Wakes every shard whose earliest clock wait falls at `now`, so
    /// this cycle's PE phase finds it runnable exactly as per-cycle
    /// visits would have.
    fn wake_due(&mut self, now: Cycle) {
        while self.next_timed_wake().is_some_and(|at| at <= now) {
            let Some(Reverse((_, i, _))) = self.wakes.pop() else {
                unreachable!("the head was just read");
            };
            self.wake(i as usize);
        }
    }

    /// The cycle of the wake calendar's earliest entry that is still
    /// live — its shard still in the park that filed it — dropping the
    /// stale entries in front of it.
    pub(super) fn next_timed_wake(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((at, i, since))) = self.wakes.peek() {
            if self.shards[i as usize].parked_since == Some(since) {
                return Some(at);
            }
            self.wakes.pop();
        }
        None
    }

    /// Debug-build check of the machine's invariants, run where a run
    /// stops, where a fork or a snapshot is taken and where a restore
    /// ends (O(N): never per cycle): the ready sets (`runnable ⊆ live`,
    /// and every live non-member is marked parked and re-proves it), the
    /// wake calendar (every entry names a live shard and is not overdue;
    /// a parked shard with a context asleep on the clock has exactly one
    /// live entry, at its earliest wake, and an event-parked one none),
    /// the retry walk's set (it holds every shard with requests
    /// outstanding under retries), the outstanding slab (it holds exactly
    /// the requests the PNIs' rings name), each network copy's wait table
    /// (its per-switch counts sum to its size, none over
    /// `wait_entries`), and each copy's request conservation
    /// (`injected_requests = delivered_requests + combines + drops +
    /// slab-live`, see `OmegaNetwork::check_invariants`).
    pub(crate) fn debug_check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let now = self.now;
        // Keyed by shard, so a machine with an empty calendar checks it
        // without allocating.
        let mut filed: IdMap<usize, Cycle> = IdMap::default();
        for &Reverse((at, i, since)) in self.wakes.iter() {
            let i = i as usize;
            assert!(self.live.contains(i), "calendar names dead shard {i}");
            assert!(at >= now, "shard {i}: calendar entry {at} overdue");
            if self.shards[i].parked_since == Some(since) {
                let twice = filed.insert(i, at).is_some();
                assert!(!twice, "shard {i}: two live calendar entries");
            }
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let ctxs = self.ctxs_of(i);
            let live = ctxs.iter().any(|ctx| ctx.state != CtxState::Halted);
            let parked = live && !self.runnable.contains(i);
            assert_eq!(self.live.contains(i), live, "shard {i}: live set");
            assert!(
                live || !self.runnable.contains(i),
                "shard {i}: runnable ⊄ live"
            );
            assert_eq!(shard.parked_since.is_some(), parked, "shard {i}: flag");
            if parked {
                // Nothing has changed since the park's proof: it holds as
                // of the last cycle run.
                let proof = (shard.busy_until <= now).then(|| shard.idle_until(ctxs, now - 1));
                let Some(Some(wake)) = proof else {
                    panic!("shard {i}: parked but a context could run");
                };
                assert_eq!(filed.get(&i).copied(), wake, "shard {i}: calendar entry");
            }
            if self.retry.is_some() && shard.pni.outstanding() > 0 {
                assert!(self.retrying.contains(i), "shard {i}: retries unwalked");
            }
        }
        let named: usize = self.shards.iter().map(|s| s.pni.outstanding()).sum();
        assert_eq!(self.outstanding.len(), named, "outstanding slab");
        if let BackendImpl::Network(fabric) = &self.backend {
            fabric.check_networks();
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
        while let Some(msg) = self.outbound.pop_front(&mut self.shards[pe].outgoing) {
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
                        (self.outbound).push_front(&mut self.shards[pe].outgoing, refused);
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
                fabric.serve_banks(now);
                if let Some(t0) = t0 {
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64));
                }
                let t0 = timed.then(Instant::now);
                fabric.advance(now, &mut deliveries, |dropped| {
                    // DropOnConflict: the PE must re-offer the request.
                    let pe = dropped.src.0;
                    self.outgoing.insert(pe);
                    (self.outbound).push_back(&mut self.shards[pe].outgoing, dropped);
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
        let phys = reply.dst.0;
        let Some(tag) = self.shards[phys].pni.complete(&mut self.outstanding, reply) else {
            // The retry protocol makes duplicate answers legal: a timed-out
            // request and its retry can both be served (the MM dedup cache
            // keeps the *effect* exactly-once). The first answer completed
            // the request; later ones are discarded here.
            self.duplicate_replies += 1;
            return;
        };
        // A reply is the one thing that unlocks a register or drains a
        // fence: the shard's next datapath cycle must look again.
        self.wake(phys);
        let ctx = phys * self.cfg.contexts_per_pe + tag.ctx as usize;
        let context = &mut self.ctxs[ctx];
        (self.cm_access).record(
            &mut context.stats.cm_access,
            now.saturating_sub(reply.request_issued_at),
        );
        self.trace.record(TraceEvent::Reply {
            cycle: now,
            pe: PeId(ctx),
            latency: now.saturating_sub(reply.request_issued_at),
        });
        match tag.purpose {
            Purpose::Data => {
                if let Some(dst) = tag.dst {
                    context.thread.write_and_unlock(dst, reply.value);
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
                let waiting = |ctx: &Context| ctx.state == CtxState::WaitBarrier;
                if self.ctxs_of(i).iter().any(waiting) {
                    self.wake(i);
                    for ctx in self.shard_mut(i).1 {
                        if waiting(ctx) {
                            ctx.state = CtxState::Ready;
                        }
                    }
                }
            }
        }
    }
}

impl PeShard {
    /// Issues `spec` for `ctx`, virtual PE `vpe`, through the shard's PNI
    /// and queues the message for injection, recording its trace event in
    /// `sinks`.
    fn attempt_issue(
        &mut self,
        ctx: &mut Context,
        vpe: usize,
        spec: &IssueSpec,
        purpose: Purpose,
        cx: CycleCtx<'_>,
        sinks: &mut CycleSinks<'_>,
    ) -> bool {
        if !self.outgoing.is_empty() {
            return false; // the PNI's outbound buffer is occupied
        }
        let access = Access {
            kind: spec.kind,
            vaddr: spec.vaddr,
            value: spec.value,
            tag: Tag {
                ctx: (vpe % cx.k) as u32,
                dst: spec.dst,
                purpose,
            },
        };
        match (self.pni).issue(cx.hasher, cx.retry, sinks.outstanding, access, cx.now) {
            Ok(msg) => {
                if let Some(dst) = spec.dst {
                    ctx.thread.lock(dst);
                }
                sinks.trace.record(TraceEvent::Issue {
                    cycle: cx.now,
                    pe: PeId(vpe),
                    kind: spec.kind,
                    vaddr: spec.vaddr,
                });
                let s = &mut ctx.stats;
                s.shared_refs.incr();
                if spec.kind.reply_carries_data() {
                    s.cm_loads.incr();
                }
                sinks.outbound.push_back(&mut self.outgoing, msg);
                true
            }
            Err(PniError::LocationBusy) => false,
        }
    }

    /// Whether `ctx` could execute an instruction right now if given the
    /// datapath (resolving any completed waits). With multiprogramming a
    /// fence waits for *this context's* requests; the shared PNI tracks
    /// per-PE, so a conservative fence waits for the whole PNI to drain.
    fn resolve_waits(&self, ctx: &mut Context, now: Cycle) -> bool {
        match ctx.state {
            CtxState::Ready | CtxState::WaitIssue(..) => true,
            CtxState::WaitUntil(at) if now < at => false,
            _ if self.ctx_parked(ctx) => false,
            _ => {
                ctx.state = CtxState::Ready;
                true
            }
        }
    }

    /// One datapath cycle over the shard's contexts `ctxs`, whose frames
    /// are `frames`: round-robin, executing the first one that can make
    /// progress (zero-cost context switching, §3.5 / HEP).
    #[inline(never)]
    fn datapath_cycle(
        &mut self,
        ctxs: &mut [Context],
        frames: &mut [Frame],
        cx: CycleCtx<'_>,
        sinks: &mut CycleSinks<'_>,
    ) {
        let k = ctxs.len();
        let depth = cx.code.depth();
        for offset in 0..k {
            let c = (self.cursor + offset) % k;
            if !self.resolve_waits(&mut ctxs[c], cx.now) {
                continue;
            }
            let frames = &mut frames[c * depth..][..depth];
            let advanced = self.ctx_execute(&mut ctxs[c], frames, self.vpe(k, c), cx, sinks);
            if advanced {
                // HEP-style: next instruction goes to the next context.
                self.cursor = (self.cursor + offset + 1) % k;
                return;
            }
        }
        // No context could use the datapath: a genuinely idle cycle. If
        // moreover every context waits on an event or sleeps to a later
        // cycle, all cycles until the earliest wake are the same idle
        // cycle: the shard parks, filed in the calendar if it sleeps.
        if !self.charge_idle(ctxs, 1) {
            return;
        }
        if let Some(wake) = self.idle_until(ctxs, cx.now) {
            let since = cx.now + 1;
            self.parked_since = Some(since);
            if let Some(at) = wake {
                let shard = self.pni.pe().0 as u32;
                sinks.wakes.push(Reverse((at, shard, since)));
            }
        }
    }

    /// `None` if a context of `ctxs` could run after cycle `now` with no
    /// event arriving and the clock not yet at any wait's end; otherwise
    /// `Some(wake)`: every context is parked on an event or asleep to a
    /// later cycle, and `wake` is the earliest of those cycles (`None`
    /// when no context sleeps).
    pub(super) fn idle_until(&self, ctxs: &[Context], now: Cycle) -> Option<Option<Cycle>> {
        let mut wake = None;
        for ctx in ctxs {
            match ctx.state {
                CtxState::WaitUntil(at) if at > now => wake = min_event(wake, at),
                _ if self.ctx_parked(ctx) => {}
                _ => return None,
            }
        }
        Some(wake)
    }

    /// Whether `ctx`, one of this shard's contexts, waits on something no
    /// passing cycle can resolve — only a delivered reply, a barrier
    /// release or a fault. `Ready`, `WaitIssue` (re-attempts every cycle)
    /// and `WaitUntil` (the clock resolves it; the wake calendar keeps
    /// such sleepers) are not parked on an event.
    fn ctx_parked(&self, ctx: &Context) -> bool {
        match ctx.state {
            CtxState::Halted | CtxState::WaitBarrier => true,
            CtxState::WaitReg(r) => ctx.thread.is_locked(r),
            CtxState::WaitFence => self.pni.outstanding() > 0,
            CtxState::Ready | CtxState::WaitIssue(..) | CtxState::WaitUntil(_) => false,
        }
    }

    /// The local context of `ctxs` an idle datapath cycle is charged to —
    /// the one whose turn it was, else the first still alive — and whether
    /// it is waiting at a barrier. `None` once every context has halted.
    fn idle_owner(&self, ctxs: &[Context]) -> Option<(usize, bool)> {
        let owner = self.cursor % ctxs.len();
        let c = if ctxs[owner].state != CtxState::Halted {
            owner
        } else {
            (ctxs.iter()).position(|ctx| ctx.state != CtxState::Halted)?
        };
        Some((c, ctxs[c].state == CtxState::WaitBarrier))
    }

    /// Charges `cycles` idle datapath cycles to one of the shard's
    /// contexts `ctxs`; returns whether a context was alive to take them.
    pub(super) fn charge_idle(&self, ctxs: &mut [Context], cycles: u64) -> bool {
        let Some((c, at_barrier)) = self.idle_owner(ctxs) else {
            return false;
        };
        let s = &mut ctxs[c].stats;
        s.idle_cycles.add(cycles);
        if at_barrier {
            s.barrier_wait_cycles.add(cycles);
        }
        true
    }

    /// The `(idle, barrier-wait)` cycles local context `c` of `ctxs` is
    /// owed for the cycles its parked shard has sat out — zero unless the
    /// shard is parked and `c` is the context its idle cycles are charged
    /// to. [`Machine::wake`] settles them; everywhere statistics leave the
    /// machine before that, they are added on the fly — the way
    /// `total_cycles` is.
    pub(super) fn unstamped_idle(&self, ctxs: &[Context], c: usize, now: Cycle) -> (u64, u64) {
        match (self.parked_since, self.idle_owner(ctxs)) {
            (Some(since), Some((owner, at_barrier))) if owner == c => {
                (now - since, if at_barrier { now - since } else { 0 })
            }
            _ => (0, 0),
        }
    }

    /// Attempts to execute one instruction of `ctx`, virtual PE `vpe`,
    /// whose frames are `frames`. Returns whether the datapath was
    /// consumed.
    fn ctx_execute(
        &mut self,
        ctx: &mut Context,
        frames: &mut [Frame],
        vpe: usize,
        cx: CycleCtx<'_>,
        sinks: &mut CycleSinks<'_>,
    ) -> bool {
        let now = cx.now;
        let cpi = cx.cpi;
        if let CtxState::WaitIssue(spec, purpose) = ctx.state.clone() {
            if self.attempt_issue(ctx, vpe, &spec, purpose, cx, sinks) {
                ctx.state = if purpose == Purpose::Barrier {
                    CtxState::WaitBarrier
                } else {
                    CtxState::Ready
                };
                ctx.stats.instructions.incr();
                self.busy_until = now + cpi;
                return true;
            }
            return false;
        }

        let env = Env {
            code: cx.code,
            params: &cx.programs[ctx.thread.program()].1.params,
            pe: PeId(vpe),
            n_pes: cx.vpes,
        };
        match ctx.thread.next_op(frames, env, now) {
            Fetched::Halted => {
                ctx.state = CtxState::Halted;
                *sinks.halted_count += 1;
                sinks.trace.record(TraceEvent::Halt {
                    cycle: now,
                    pe: PeId(vpe),
                });
                // Halting consumes no datapath time; let another context
                // run this cycle.
                false
            }
            Fetched::Work {
                instructions,
                private_refs,
            } => {
                let s = &mut ctx.stats;
                s.instructions.add(u64::from(instructions));
                s.private_refs.add(u64::from(private_refs));
                self.busy_until = now + Cycle::from(instructions) * cpi;
                true
            }
            Fetched::BlockedOnReg(r) => {
                ctx.state = CtxState::WaitReg(r);
                false
            }
            Fetched::SleepUntil(at) => {
                // The wait instruction itself costs one slot (it is the
                // fetch that fixed the target); the context then parks.
                ctx.state = CtxState::WaitUntil(at);
                ctx.stats.instructions.incr();
                self.busy_until = now + cpi;
                true
            }
            Fetched::Fence => {
                ctx.state = CtxState::WaitFence;
                ctx.stats.instructions.incr();
                self.busy_until = now + cpi;
                true
            }
            Fetched::Issue(spec) => {
                if self.attempt_issue(ctx, vpe, &spec, Purpose::Data, cx, sinks) {
                    ctx.stats.instructions.incr();
                    self.busy_until = now + cpi;
                    true
                } else {
                    ctx.state = CtxState::WaitIssue(spec, Purpose::Data);
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
                if self.attempt_issue(ctx, vpe, &spec, Purpose::Barrier, cx, sinks) {
                    ctx.state = CtxState::WaitBarrier;
                    ctx.stats.instructions.incr();
                    self.busy_until = now + cpi;
                    true
                } else {
                    ctx.state = CtxState::WaitIssue(spec, Purpose::Barrier);
                    false
                }
            }
        }
    }
}
