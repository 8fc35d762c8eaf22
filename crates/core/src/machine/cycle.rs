//! The cycle loop: `run`/`step`, the PE phase and its deferred-effect
//! merge, the outbound flush, the backend cycle and reply delivery, and
//! each shard's datapath cycle.

use std::time::Instant;

use ultra_net::message::{MsgKind, Reply};
use ultra_obs::{EnginePhase, PhaseSpan};
use ultra_pe::pni::PniError;
use ultra_sim::{Cycle, PeId};

use super::{
    BackendImpl, CtxState, CycleCtx, Machine, PeShard, Purpose, ReqMeta, RunOutcome,
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
        RunOutcome { completed, cycles }
    }

    fn is_quiescent(&self) -> bool {
        self.halted_count == self.virtual_pes()
            && self.meta.is_empty()
            && self.outgoing_mask.is_empty()
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        let fired = self.fault_clock.due(now);
        for fault in fired {
            self.apply_fault(fault);
        }
        // Phase timing costs an `Instant::now` pair per phase, so the
        // default path takes none of them.
        if self.phases.is_enabled() {
            let t0 = Instant::now();
            self.flush_outgoing(now);
            let dur = t0.elapsed().as_nanos() as u64;
            self.record_phase_span(now, EnginePhase::Flush, t0, dur, 0);
            self.backend_cycle(now);
            self.queue_due_retries(now);
            self.release_barrier_if_complete();
            let t0 = Instant::now();
            self.pe_phase(now);
            let dur = t0.elapsed().as_nanos() as u64;
            let chunks = self.pool.dispatch_stats().last_chunks as u32;
            self.record_phase_span(now, EnginePhase::PeShards, t0, dur, chunks);
        } else {
            self.flush_outgoing(now);
            self.backend_cycle(now);
            self.queue_due_retries(now);
            self.release_barrier_if_complete();
            self.pe_phase(now);
        }
        self.now += 1;
        self.telemetry_tick();
    }

    /// Records one wall-clock phase span that started at `t0` and took
    /// `dur_ns`.
    fn record_phase_span(
        &mut self,
        cycle: Cycle,
        phase: EnginePhase,
        t0: Instant,
        dur_ns: u64,
        chunks: u32,
    ) {
        let start_ns = t0.saturating_duration_since(self.phase_epoch).as_nanos() as u64;
        self.phases.record(PhaseSpan {
            cycle,
            phase,
            start_ns,
            dur_ns,
            pool_chunks: chunks,
        });
    }

    /// Sparse-dispatch grain: one worker thread is engaged per this many
    /// *active* units (live shards, busy banks), so near-idle cycles run
    /// inline on the caller instead of waking the pool.
    const SPARSE_GRAIN: usize = 32;

    /// The datapath cycle of every live physical PE, fanned out over the
    /// engine's threads (shards never touch each other within a cycle),
    /// followed by the deferred-effect merge. Workers flag shards that
    /// produced effects in [`Machine::fx_dirty`]; the merge then drains
    /// only flagged shards, in ascending shard index order — the order
    /// the sequential loop applies effects in, so every thread count
    /// yields identical metadata, trace and halt streams. Fully-halted
    /// shards are skipped outright (their datapath cycle is a no-op),
    /// and the post-phase pass is a pointer-wide word walk instead of an
    /// every-shard scan.
    fn pe_phase(&mut self, now: Cycle) {
        let cx = CycleCtx {
            now,
            cpi: self.cfg.time.cycles_per_instruction,
            barrier_generation: self.barrier_generation,
            trace_enabled: self.trace.enabled,
        };
        let fx_dirty = &self.fx_dirty;
        self.pool.run_sparse(
            &mut self.shards,
            self.live_mask.words(),
            Self::SPARSE_GRAIN,
            |i, shard| {
                shard.pe_cycle(cx);
                if !shard.fx.is_empty() {
                    fx_dirty.mark(i);
                }
            },
        );
        for w in 0..self.fx_dirty.words() {
            let mut bits = self.fx_dirty.take_word(w);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let shard = &mut self.shards[i];
                for (id, meta) in shard.fx.meta.drain(..) {
                    self.meta.insert(id, meta);
                }
                for event in shard.fx.trace.drain(..) {
                    self.trace.record(event);
                }
                if shard.fx.halted > 0 {
                    self.halted_count += shard.fx.halted;
                    shard.fx.halted = 0;
                    if shard.states.iter().all(|s| *s == CtxState::Halted) {
                        self.live_mask.clear(i);
                    }
                }
                // An issue pushes its metadata and its outbound message
                // together, so dirty shards are exactly the ones whose
                // `outgoing` may have just become non-empty.
                if !shard.outgoing.is_empty() {
                    self.outgoing_mask.set(i);
                }
            }
        }
    }

    /// Tries to push queued outbound messages into the backend. Walks
    /// the outgoing mask's words, so a mostly-drained machine pays one
    /// word test per 64 shards instead of a queue probe per shard; each
    /// word is snapshot before its bits are consumed, and only the bit
    /// of the shard just flushed is ever cleared, so the walk is safe
    /// against its own updates.
    fn flush_outgoing(&mut self, now: Cycle) {
        for w in 0..self.outgoing_mask.words().len() {
            let mut bits = self.outgoing_mask.word(w);
            while bits != 0 {
                let pe = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.flush_shard_outgoing(pe, now);
                if self.shards[pe].outgoing.is_empty() {
                    self.outgoing_mask.clear(pe);
                }
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
                BackendImpl::Network { nets, copy_of, .. } => {
                    // A request every copy refuses (dead copy, or a
                    // dead port on its only route in each) can never
                    // inject: abandon it rather than wedging this
                    // PE's queue; the PNI timeout re-issues it under
                    // whatever translation the degraded hash uses by
                    // then.
                    if (0..nets.copies()).all(|c| nets.copy(c).fault_refuses(&msg)) {
                        self.unroutable += 1;
                        continue;
                    }
                    let key = (msg.id, msg.attempt);
                    match nets.try_inject_request(msg, now) {
                        Ok(copy) => {
                            copy_of.insert(key, copy);
                        }
                        Err(refused) => {
                            // Backpressure; retry next cycle.
                            self.shards[pe].outgoing.push_front(refused);
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Advances the memory system and delivers completions.
    fn backend_cycle(&mut self, now: Cycle) {
        let pool = &self.pool;
        let timed = self.phases.is_enabled();
        // Staged first to avoid borrowing `self` across the delivery; the
        // buffer is pooled on the machine so steady state never allocates.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        debug_assert!(deliveries.is_empty());
        // Spans are staged here and recorded after the backend borrow
        // ends.
        let mut bank_span: Option<(Instant, u64, u32)> = None;
        let mut net_span: Option<(Instant, u64, u32)> = None;
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
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64, 0));
                }
            }
            BackendImpl::Network {
                nets,
                banks,
                copy_of,
            } => {
                let t0 = timed.then(Instant::now);
                // Banks are mutually independent and never read the
                // network, so serving them fans out over the engine's
                // threads — but only banks actually holding work: a bit
                // in `bank_active` is set when a request is delivered
                // and cleared once the bank drains idle, and an idle
                // bank's cycle is a no-op, so the masked fan-out is
                // exact. Outboxes then drain into the network in bank
                // index order (the mask walk is ascending) — exactly the
                // injection sequence the sequential interleaved loop
                // produces.
                pool.run_sparse(
                    banks,
                    self.bank_active.words(),
                    Self::SPARSE_GRAIN,
                    |_, bank| bank.cycle(now),
                );
                for w in 0..self.bank_active.words().len() {
                    let mut bits = self.bank_active.word(w);
                    while bits != 0 {
                        let b = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let bank = &mut banks[b];
                        // Replies re-enter through the copy that carried
                        // the request (stalling if the reverse link is
                        // busy).
                        while let Some(reply) = bank.pop_reply() {
                            let Some(&copy) = copy_of.get(&(reply.id, reply.attempt)) else {
                                // An answer to an attempt whose twin already
                                // round-tripped; nobody is waiting for it.
                                self.duplicate_replies += 1;
                                continue;
                            };
                            if let Err(refused) = nets.try_inject_reply(copy, reply, now) {
                                bank.return_reply(refused);
                                break;
                            }
                        }
                        if bank.is_idle() {
                            self.bank_active.clear(b);
                        }
                    }
                }
                if let Some(t0) = t0 {
                    let chunks = pool.dispatch_stats().last_chunks as u32;
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64, chunks));
                }
                let t0 = timed.then(Instant::now);
                // The fabric moves — the d copies share nothing within a
                // cycle, so they advance in parallel into their pooled
                // event buffers; arrivals then drain in fixed copy order.
                // Arrivals at MMs enter bank queues; arrivals at PEs are
                // delivered below. A fully drained fabric (checked after
                // the reply injections above) cycles to itself with empty
                // event buffers, so the whole phase is skipped.
                if !nets.is_drained() {
                    nets.cycle_inplace(now, pool);
                    let d = nets.copies();
                    for copy in 0..d {
                        let events = nets.events_mut(copy);
                        for msg in events.requests_at_mm.drain(..) {
                            self.bank_active.set(msg.addr.mm.0);
                            banks[msg.addr.mm.0].push_request(msg);
                        }
                        for reply in events.replies_at_pe.drain(..) {
                            copy_of.remove(&(reply.id, reply.attempt));
                            deliveries.push(reply);
                        }
                        for dropped in events.dropped.drain(..) {
                            // DropOnConflict: the PE must re-offer the
                            // request.
                            self.outgoing_mask.set(dropped.src.0);
                            self.shards[dropped.src.0].outgoing.push_back(dropped);
                        }
                    }
                }
                if let Some(t0) = t0 {
                    let chunks = pool.dispatch_stats().last_chunks as u32;
                    net_span = Some((t0, t0.elapsed().as_nanos() as u64, chunks));
                }
            }
        }
        if let Some((t0, dur, chunks)) = bank_span {
            self.record_phase_span(now, EnginePhase::MemBanks, t0, dur, chunks);
        }
        if let Some((t0, dur, chunks)) = net_span {
            self.record_phase_span(now, EnginePhase::Network, t0, dur, chunks);
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
            for shard in &mut self.shards {
                for state in &mut shard.states {
                    if *state == CtxState::WaitBarrier {
                        *state = CtxState::Ready;
                    }
                }
            }
        }
    }
}

impl PeShard {
    /// Issues `spec` for local context `c` through the shard's PNI and
    /// queues the message for injection. Metadata and trace writes are
    /// deferred into [`ShardFx`].
    fn attempt_issue(
        &mut self,
        c: usize,
        spec: &IssueSpec,
        purpose: Purpose,
        cx: CycleCtx,
    ) -> bool {
        if !self.outgoing.is_empty() {
            return false; // the PNI's outbound buffer is occupied
        }
        match self.pni.issue(spec.kind, spec.vaddr, spec.value, cx.now) {
            Ok(msg) => {
                let ctx = self.base + c;
                self.fx.meta.push((
                    msg.id,
                    ReqMeta {
                        ctx,
                        dst: spec.dst,
                        purpose,
                    },
                ));
                if let Some(dst) = spec.dst {
                    self.interps[c].lock(dst);
                }
                if cx.trace_enabled {
                    self.fx.trace.push(TraceEvent::Issue {
                        cycle: cx.now,
                        pe: PeId(ctx),
                        kind: spec.kind,
                        vaddr: spec.vaddr,
                    });
                }
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
    /// if given the datapath (resolving any completed waits).
    fn resolve_waits(&mut self, c: usize, now: Cycle) -> bool {
        match self.states[c].clone() {
            CtxState::Halted | CtxState::WaitBarrier => false,
            CtxState::WaitReg(r) => {
                if self.interps[c].is_locked(r) {
                    false
                } else {
                    self.states[c] = CtxState::Ready;
                    true
                }
            }
            CtxState::WaitUntil(at) => {
                if now < at {
                    false
                } else {
                    self.states[c] = CtxState::Ready;
                    true
                }
            }
            CtxState::WaitFence => {
                // With multiprogramming the fence waits for *this
                // context's* requests; the shared PNI tracks per-PE, so a
                // conservative fence waits for the whole PNI to drain.
                if self.pni.outstanding() > 0 {
                    false
                } else {
                    self.states[c] = CtxState::Ready;
                    true
                }
            }
            CtxState::WaitIssue(..) | CtxState::Ready => true,
        }
    }

    /// One datapath cycle: round-robin over the shard's contexts,
    /// executing the first one that can make progress (zero-cost context
    /// switching, §3.5 / HEP).
    fn pe_cycle(&mut self, cx: CycleCtx) {
        if self.busy_until > cx.now {
            return; // mid-instruction
        }
        let k = self.states.len();
        for offset in 0..k {
            let c = (self.cursor + offset) % k;
            if !self.resolve_waits(c, cx.now) {
                continue;
            }
            let advanced = self.ctx_execute(c, cx);
            if advanced {
                // HEP-style: next instruction goes to the next context.
                self.cursor = (self.cursor + offset + 1) % k;
                return;
            }
        }
        // No context could use the datapath: a genuinely idle cycle,
        // charged to the context whose turn it was (if it is still alive).
        let owner = self.cursor % k;
        if self.states[owner] != CtxState::Halted {
            self.stats[owner].idle_cycles.incr();
            if self.states[owner] == CtxState::WaitBarrier {
                self.stats[owner].barrier_wait_cycles.incr();
            }
        } else if let Some(alive) = (0..k).find(|&c| self.states[c] != CtxState::Halted) {
            self.stats[alive].idle_cycles.incr();
            if self.states[alive] == CtxState::WaitBarrier {
                self.stats[alive].barrier_wait_cycles.incr();
            }
        }
    }

    /// Attempts to execute one instruction of local context `c`. Returns
    /// whether the datapath was consumed.
    fn ctx_execute(&mut self, c: usize, cx: CycleCtx) -> bool {
        let now = cx.now;
        let cpi = cx.cpi;
        if let CtxState::WaitIssue(spec, purpose) = self.states[c].clone() {
            if self.attempt_issue(c, &spec, purpose, cx) {
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
                self.fx.halted += 1;
                if cx.trace_enabled {
                    self.fx.trace.push(TraceEvent::Halt {
                        cycle: now,
                        pe: PeId(self.base + c),
                    });
                }
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
                if self.attempt_issue(c, &spec, Purpose::Data, cx) {
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
                if self.attempt_issue(c, &spec, Purpose::Barrier, cx) {
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
