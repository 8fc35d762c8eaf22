//! Idle fast-forward: jump provably idle stretches of cycles straight to
//! the next scheduled event.

use ultra_sim::active::Walk;
use ultra_sim::Cycle;

use super::{BackendImpl, Context, Machine, PeShard};

impl Machine {
    /// Skips a stretch of cycles during which the machine provably does
    /// nothing but tick: all traffic drained, every context parked on a
    /// wait only a *scheduled* future event can resolve. Jumps straight
    /// to the earliest such event — a fault firing, a PNI retry
    /// deadline, an ideal-backend completion, a datapath release, or the
    /// wake calendar's head — bulk-charging idle statistics exactly as
    /// per-cycle stepping would. Runs are bit-identical with this on or
    /// off.
    pub(super) fn fast_forward_idle(&mut self) {
        let now = self.now;
        if !self.outgoing.is_empty() {
            return;
        }
        let mut next: Option<Cycle> = None;
        match &self.backend {
            BackendImpl::Ideal { pending, .. } => {
                if let Some((&due, _)) = pending.iter().next() {
                    next = min_event(next, due);
                }
            }
            BackendImpl::Network(fabric) => {
                if !fabric.is_idle() {
                    return;
                }
            }
        }
        // A parked shard waits on an event, or sleeps to the cycle the
        // calendar holds for it: only the runnable ones are asked.
        let mut walk = Walk::default();
        while let Some(i) = walk.next(&self.runnable) {
            match self.shards[i].next_self_wake(self.ctxs_of(i), now) {
                Some(at) if at <= now => return, // could run now: no skipping
                Some(at) => next = min_event(next, at),
                None => {}
            }
        }
        if let Some(at) = self.next_timed_wake() {
            next = min_event(next, at);
        }
        // With retries enabled every shard that may hold a pending retry
        // is asked for its deadline: a parked or even fully-halted shard
        // can hold one (a store issued just before the context halted,
        // then lost to a faulty link), and missing it would wedge the run.
        if self.retry.is_some() {
            for i in self.retrying.iter() {
                if let Some(deadline) = self.shards[i].pni.next_retry_deadline(&self.outstanding) {
                    next = min_event(next, deadline);
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
        // Bulk idle charging touches only runnable shards with a free
        // datapath (stepping charges a busy one no idle time); parked
        // shards are stamped when they wake.
        let mut walk = Walk::default();
        while let Some(i) = walk.next(&self.runnable) {
            let (shard, ctxs) = self.shard_mut(i);
            if shard.busy_until <= now {
                shard.charge_idle(ctxs, skipped);
            }
        }
        self.fast_forwarded += skipped;
        self.now = target;
        // The jump may have crossed telemetry window boundaries; emit
        // the samples stepping would have produced (zero-delta, since
        // nothing happened in the skipped stretch).
        self.telemetry_tick();
    }
}

impl PeShard {
    /// The earliest cycle at which this runnable shard's datapath could
    /// do anything but idle with no event arriving: `busy_until` while
    /// mid-instruction (freeing the datapath may let a ready context
    /// run), `now` if a context could run — `Ready` executes and
    /// `WaitIssue` re-attempts each cycle, bumping PNI conflict counters
    /// — else the earliest timed wake-up still ahead; `None` when every
    /// context is parked on an event. A shard asleep on the clock is in
    /// the calendar, not here; the timed branch serves a shard whose
    /// sleep its next datapath cycle has yet to prove (one that has just
    /// executed its `WaitUntil`), so the jump lands where it always did.
    fn next_self_wake(&self, ctxs: &[Context], now: Cycle) -> Option<Cycle> {
        if self.busy_until > now {
            return Some(self.busy_until);
        }
        self.idle_until(ctxs, now).unwrap_or(Some(now))
    }
}

/// The earliest of an optional event cycle and a new candidate.
pub(super) fn min_event(current: Option<Cycle>, candidate: Cycle) -> Option<Cycle> {
    Some(current.map_or(candidate, |c| c.min(candidate)))
}
