//! Idle fast-forward: jump provably idle stretches of cycles straight to
//! the next scheduled event.

use ultra_sim::Cycle;

use super::{BackendImpl, CtxState, Machine, PeShard};

impl Machine {
    /// Skips a stretch of cycles during which the machine provably does
    /// nothing but tick: all traffic drained, every context parked on a
    /// wait only a *scheduled* future event can resolve. Jumps straight
    /// to the earliest such event — a fault firing, a PNI retry
    /// deadline, an ideal-backend completion, or a datapath release —
    /// bulk-charging idle statistics exactly as per-cycle stepping
    /// would. Runs are bit-identical with this on or off.
    pub(super) fn fast_forward_idle(&mut self) {
        let now = self.now;
        if !self.outgoing_mask.is_empty() {
            return;
        }
        let mut next: Option<Cycle> = None;
        match &self.backend {
            BackendImpl::Ideal { pending, .. } => {
                if let Some((&due, _)) = pending.iter().next() {
                    next = min_event(next, due);
                }
            }
            BackendImpl::Network { nets, .. } => {
                if !nets.is_drained() || !self.bank_active.is_empty() {
                    return;
                }
            }
        }
        // With retries enabled every shard must be scanned: a
        // fully-halted shard can still hold a pending PNI retry deadline
        // (a store issued just before the context halted, then lost to a
        // faulty link), and missing that deadline would wedge the run.
        // With retries off — the overwhelmingly common case — halted
        // shards provably schedule nothing, so the scan walks only the
        // live mask's words.
        if self.retry_enabled {
            for shard in &self.shards {
                match Self::shard_ff_event(shard, now) {
                    ShardFf::Event(at) => next = min_event(next, at),
                    ShardFf::Parked => {}
                    ShardFf::Runnable => return,
                }
                if let Some(deadline) = shard.pni.next_retry_deadline() {
                    next = min_event(next, deadline);
                }
            }
        } else {
            for w in 0..self.live_mask.words().len() {
                let mut bits = self.live_mask.word(w);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    match Self::shard_ff_event(&self.shards[i], now) {
                        ShardFf::Event(at) => next = min_event(next, at),
                        ShardFf::Parked => {}
                        ShardFf::Runnable => return,
                    }
                }
            }
        }
        if let Some(due) = self.fault_clock.next_due() {
            next = min_event(next, due);
        }
        // No event at all means deadlock: burn straight to the budget,
        // preserving the timeout outcome per-cycle stepping reaches.
        let target = next.unwrap_or(self.cfg.max_cycles).min(self.cfg.max_cycles);
        if target <= now {
            return;
        }
        let skipped = target - now;
        // Bulk idle charging touches only live shards: a fully-halted
        // shard has no context to charge.
        for w in 0..self.live_mask.words().len() {
            let mut bits = self.live_mask.word(w);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let shard = &mut self.shards[i];
                if shard.busy_until > now {
                    continue; // busy datapath: stepping charges no idle time
                }
                let k = shard.states.len();
                let owner = shard.cursor % k;
                let charged = if shard.states[owner] != CtxState::Halted {
                    Some(owner)
                } else {
                    (0..k).find(|&c| shard.states[c] != CtxState::Halted)
                };
                if let Some(c) = charged {
                    shard.stats[c].idle_cycles.add(skipped);
                    if shard.states[c] == CtxState::WaitBarrier {
                        shard.stats[c].barrier_wait_cycles.add(skipped);
                    }
                }
            }
        }
        self.fast_forwarded += skipped;
        self.now = target;
        // The jump may have crossed telemetry window boundaries; emit
        // the samples stepping would have produced (zero-delta, since
        // nothing happened in the skipped stretch).
        self.telemetry_tick();
    }

    /// One shard's contribution to the fast-forward decision: the cycle
    /// its datapath frees, proof every context is parked, or evidence a
    /// context could run now (which forbids skipping).
    fn shard_ff_event(shard: &PeShard, now: Cycle) -> ShardFf {
        if shard.busy_until > now {
            // Mid-instruction: the datapath frees at `busy_until`,
            // which may unpark a ready context — an event.
            return ShardFf::Event(shard.busy_until);
        }
        // Idle datapath: every context must be unable to run until a
        // reply arrives (impossible: traffic is drained) or a future
        // event fires. `Ready` could execute now; `WaitIssue`
        // re-attempts each cycle and bumps PNI conflict counters, so
        // neither may be skipped over. A timed wait whose target is
        // still ahead contributes a wake-up event at that cycle.
        let mut next = None;
        for (c, state) in shard.states.iter().enumerate() {
            let parked = match state {
                CtxState::Halted | CtxState::WaitBarrier => true,
                CtxState::WaitReg(r) => shard.interps[c].is_locked(*r),
                CtxState::WaitFence => shard.pni.outstanding() > 0,
                CtxState::WaitUntil(at) => {
                    if *at > now {
                        next = min_event(next, *at);
                        true
                    } else {
                        false
                    }
                }
                CtxState::Ready | CtxState::WaitIssue(..) => return ShardFf::Runnable,
            };
            if !parked {
                return ShardFf::Runnable;
            }
        }
        match next {
            Some(at) => ShardFf::Event(at),
            None => ShardFf::Parked,
        }
    }
}

/// One shard's verdict in the fast-forward scan.
enum ShardFf {
    /// The shard's datapath frees at this cycle (an event to jump to).
    Event(Cycle),
    /// Every context is parked on a wait no passing cycle resolves.
    Parked,
    /// Some context could use the datapath now: skipping is illegal.
    Runnable,
}

/// The earliest of an optional event cycle and a new candidate.
fn min_event(current: Option<Cycle>, candidate: Cycle) -> Option<Cycle> {
    Some(current.map_or(candidate, |c| c.min(candidate)))
}
