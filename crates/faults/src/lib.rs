//! Deterministic fault injection for the Ultracomputer model.
//!
//! The paper argues (§3.1) that an Omega network built from `d` replicated
//! copies, together with the address hash of §3.1.4, lets the machine
//! *degrade gracefully*: a dead switch, port, or memory module removes
//! capacity, not correctness. This crate describes faults; the component
//! crates (`ultra-net`, `ultra-mem`, `ultra-pe`, `ultracomputer`) consume
//! the descriptions and implement the degraded behaviour.
//!
//! Everything is **deterministic**: a [`FaultPlan`] is an explicit, seeded
//! description of what breaks and when, so one seed yields one trace. The
//! pieces are:
//!
//! * [`FaultPlan`] — the full description: static (boot-time) faults plus a
//!   schedule of transient faults that fire at exact cycles. A plan with no
//!   faults ([`FaultPlan::none`]) must be behaviourally invisible — the
//!   equivalence property tests in `ultracomputer` enforce bit-identical
//!   traces against a fault-free build.
//! * [`FaultMask`] — the per-network-copy view consumed by
//!   `ultra_net::OmegaNetwork`: whether the whole copy is dead, which
//!   forward switch output ports are dead, and the injection-link loss
//!   probability (with its own deterministic RNG stream).
//! * [`FaultClock`] — drains the schedule: [`FaultClock::due`] returns the
//!   faults firing at exactly the given cycle.
//! * [`RetryPolicy`] — the PNI recovery protocol: a timeout after which an
//!   unanswered request is re-issued under the *same* message id (its
//!   sequence number) with exponential backoff.
//!
//! # Loss model and exactly-once
//!
//! Transient message loss is modelled on the PE→network injection links —
//! the longest wires in the machine — *before* any combining can happen.
//! A lost request was therefore never applied, so a retry under the same
//! sequence number is trivially safe. For losses after application (a
//! memory module dying with replies in its outbox, a spuriously early
//! timeout) the memory modules keep a dedup cache keyed by every sequence
//! number folded into a combined request, so a retried fetch-and-add is
//! applied **exactly once** (see `ultra_mem::MemBank`).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{Cycle, MmId};

/// The PNI's timeout-and-retry recovery protocol (enabled by a fault plan;
/// a plan without one never retries, preserving fault-free behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Cycles an issued request may stay unanswered before the first retry.
    pub base_timeout: Cycle,
    /// Backoff doubling stops after this many attempts (caps the wait at
    /// `base_timeout << backoff_cap`).
    pub backoff_cap: u32,
}

impl RetryPolicy {
    /// A policy sized for a network of `stages` stages: generous enough
    /// that healthy traffic essentially never retries spuriously, tight
    /// enough that lost messages are recovered quickly.
    #[must_use]
    pub fn for_depth(stages: usize) -> Self {
        Self {
            // Worst-case healthy round trips are tens of cycles per stage
            // under congestion; 64·D leaves a wide margin.
            base_timeout: 64 * (stages as Cycle).max(1),
            backoff_cap: 6,
        }
    }

    /// The cycle at which attempt `attempt` (0 = the original issue) of a
    /// request issued/retried at `now` should be declared lost.
    #[must_use]
    pub fn deadline(&self, now: Cycle, attempt: u32) -> Cycle {
        now + (self.base_timeout << attempt.min(self.backoff_cap))
    }
}

impl Wire for RetryPolicy {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.base_timeout);
        w.u32(self.backoff_cap);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            base_timeout: r.u64()?,
            backoff_cap: r.u32()?,
        })
    }
}

/// One transient fault, fired by the [`FaultClock`] at an exact cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Network copy `copy` fails stop: it accepts no new injections from
    /// this cycle on (in-flight traffic drains).
    KillCopy {
        /// Index of the dying copy.
        copy: usize,
    },
    /// Memory module `mm` dies: queued and future requests are discarded
    /// unserved, its contents are lost, and translation re-hashes around it.
    KillMm {
        /// The dying module.
        mm: MmId,
    },
    /// Memory module `mm` degrades to `factor`× its configured service
    /// time.
    SlowMm {
        /// The degraded module.
        mm: MmId,
        /// Service-time multiplier (≥ 1).
        factor: u32,
    },
    /// Forward output port `port` of switch `(stage, switch)` in copy
    /// `copy` dies; requests whose route crosses it fail over to another
    /// copy at injection time.
    KillSwitchPort {
        /// Network copy.
        copy: usize,
        /// Stage (0 = PE side).
        stage: usize,
        /// Switch index within the stage.
        switch: usize,
        /// Forward (ToMM) output port.
        port: usize,
    },
    /// One wait-buffer slot of switch `(stage, switch)` in copy `copy`
    /// sticks: it never deallocates, permanently shrinking the switch's
    /// combining capacity.
    StickWaitEntry {
        /// Network copy.
        copy: usize,
        /// Stage (0 = PE side).
        stage: usize,
        /// Switch index within the stage.
        switch: usize,
    },
}

impl Wire for Fault {
    fn encode(&self, w: &mut WireWriter) {
        match *self {
            Self::KillCopy { copy } => {
                w.u8(0);
                w.usize(copy);
            }
            Self::KillMm { mm } => {
                w.u8(1);
                mm.encode(w);
            }
            Self::SlowMm { mm, factor } => {
                w.u8(2);
                mm.encode(w);
                w.u32(factor);
            }
            Self::KillSwitchPort {
                copy,
                stage,
                switch,
                port,
            } => {
                w.u8(3);
                w.usize(copy);
                w.usize(stage);
                w.usize(switch);
                w.usize(port);
            }
            Self::StickWaitEntry {
                copy,
                stage,
                switch,
            } => {
                w.u8(4);
                w.usize(copy);
                w.usize(stage);
                w.usize(switch);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::KillCopy { copy: r.usize()? },
            1 => Self::KillMm {
                mm: MmId::decode(r)?,
            },
            2 => Self::SlowMm {
                mm: MmId::decode(r)?,
                factor: r.u32()?,
            },
            3 => Self::KillSwitchPort {
                copy: r.usize()?,
                stage: r.usize()?,
                switch: r.usize()?,
                port: r.usize()?,
            },
            4 => Self::StickWaitEntry {
                copy: r.usize()?,
                stage: r.usize()?,
                switch: r.usize()?,
            },
            _ => return Err(WireError::Invalid("fault tag")),
        })
    }
}

/// A fault scheduled to fire at an exact cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Cycle at which the fault fires (checked at the top of that cycle).
    pub at: Cycle,
    /// What breaks.
    pub fault: Fault,
}

impl Wire for ScheduledFault {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.at);
        self.fault.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            at: r.u64()?,
            fault: Fault::decode(r)?,
        })
    }
}

/// Geometry the random-plan generator needs to know what can break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetShape {
    /// Network copies `d`.
    pub copies: usize,
    /// Switch stages per copy.
    pub stages: usize,
    /// Switches per stage.
    pub switches_per_stage: usize,
    /// Ports per switch (the switch arity `k`).
    pub k: usize,
    /// Memory modules.
    pub mms: usize,
}

/// A complete, deterministic description of what is broken in one machine.
///
/// Static faults exist from boot; scheduled faults fire at exact cycles via
/// the [`FaultClock`]. Identical plans (same builder calls, same seed)
/// always produce identical fault behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    dead_copies: BTreeSet<usize>,
    dead_mms: BTreeSet<usize>,
    /// MM index → service-time multiplier.
    slow_mms: BTreeMap<usize, u32>,
    /// `(copy, stage, switch, port)` forward ports dead from boot.
    dead_ports: BTreeSet<(usize, usize, usize, usize)>,
    /// Probability a request is lost on its PE→network injection link.
    link_loss: f64,
    schedule: Vec<ScheduledFault>,
    retry: Option<RetryPolicy>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The healthy plan: nothing is broken, nothing ever fires, and the
    /// retry protocol is disabled. Running a machine under this plan is
    /// bit-identical to running without any plan.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            dead_copies: BTreeSet::new(),
            dead_mms: BTreeSet::new(),
            slow_mms: BTreeMap::new(),
            dead_ports: BTreeSet::new(),
            link_loss: 0.0,
            schedule: Vec::new(),
            retry: None,
        }
    }

    /// Whether this plan breaks nothing (static, scheduled, or lossy).
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.dead_copies.is_empty()
            && self.dead_mms.is_empty()
            && self.slow_mms.is_empty()
            && self.dead_ports.is_empty()
            && self.link_loss == 0.0
            && self.schedule.is_empty()
    }

    /// Sets the seed for the lossy-link RNG streams.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Marks network copy `copy` dead from boot.
    #[must_use]
    pub fn dead_copy(mut self, copy: usize) -> Self {
        self.dead_copies.insert(copy);
        self
    }

    /// Marks memory module `mm` dead from boot (translation re-hashes
    /// around it).
    #[must_use]
    pub fn dead_mm(mut self, mm: MmId) -> Self {
        self.dead_mms.insert(mm.0);
        self
    }

    /// Degrades memory module `mm` to `factor`× its service time from
    /// boot.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn slow_mm(mut self, mm: MmId, factor: u32) -> Self {
        assert!(factor >= 1, "slow-MM factor must be at least 1");
        self.slow_mms.insert(mm.0, factor);
        self
    }

    /// Marks one forward switch output port dead from boot.
    #[must_use]
    pub fn dead_switch_port(
        mut self,
        copy: usize,
        stage: usize,
        switch: usize,
        port: usize,
    ) -> Self {
        self.dead_ports.insert((copy, stage, switch, port));
        self
    }

    /// Sets the probability that a request is lost on its PE→network
    /// injection link (recovered by the PNI retry protocol).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    #[must_use]
    pub fn link_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.link_loss = p;
        self
    }

    /// Schedules `fault` to fire at cycle `at`.
    #[must_use]
    pub fn schedule(mut self, at: Cycle, fault: Fault) -> Self {
        self.schedule.push(ScheduledFault { at, fault });
        self.schedule.sort_by_key(|s| s.at);
        self
    }

    /// Enables the PNI timeout/retry protocol. Any plan that can lose
    /// messages (lossy links, scheduled MM/copy deaths) needs one.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Draws a random static plan over `shape`: each MM dies independently
    /// with probability `dead_mm_frac` (at least one MM always survives)
    /// and each forward switch port dies with probability
    /// `dead_port_frac`. Deterministic in `seed`.
    #[must_use]
    pub fn random_static(
        seed: u64,
        shape: NetShape,
        dead_mm_frac: f64,
        dead_port_frac: f64,
    ) -> Self {
        let mut plan = Self::none().seed(seed);
        let mut rng = SplitMix64::new(seed ^ 0xFA17_7F1A_u64.wrapping_mul(0x9e37_79b9));
        for mm in 0..shape.mms {
            if plan.dead_mms.len() + 1 < shape.mms && rng.chance(dead_mm_frac) {
                plan.dead_mms.insert(mm);
            }
        }
        for copy in 0..shape.copies {
            for stage in 0..shape.stages {
                for switch in 0..shape.switches_per_stage {
                    for port in 0..shape.k {
                        if rng.chance(dead_port_frac) {
                            plan.dead_ports.insert((copy, stage, switch, port));
                        }
                    }
                }
            }
        }
        plan
    }

    /// Memory modules dead from boot, ascending.
    #[must_use]
    pub fn dead_mms(&self) -> Vec<MmId> {
        self.dead_mms.iter().map(|&m| MmId(m)).collect()
    }

    /// Boot-time service-time multiplier for `mm` (1 = healthy speed).
    #[must_use]
    pub fn slow_factor(&self, mm: MmId) -> u32 {
        self.slow_mms.get(&mm.0).copied().unwrap_or(1)
    }

    /// Network copies dead from boot.
    #[must_use]
    pub fn dead_copies(&self) -> Vec<usize> {
        self.dead_copies.iter().copied().collect()
    }

    /// The retry policy, if the plan enables recovery.
    #[must_use]
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// The scheduled transient faults, in firing order.
    #[must_use]
    pub fn scheduled(&self) -> &[ScheduledFault] {
        &self.schedule
    }

    /// Builds the boot-time mask network copy `copy` must honour.
    #[must_use]
    pub fn mask_for_copy(&self, copy: usize) -> FaultMask {
        let mut mask = FaultMask::healthy();
        if self.dead_copies.contains(&copy) {
            mask.kill_copy();
        }
        for &(c, stage, switch, port) in &self.dead_ports {
            if c == copy {
                mask.kill_port(stage, switch, port);
            }
        }
        if self.link_loss > 0.0 {
            mask.set_link_loss(
                self.link_loss,
                self.seed ^ (copy as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            );
        }
        mask
    }

    /// Checks the plan against a machine of `mms` memory modules: every
    /// module it kills must exist, and its boot-time and scheduled kills
    /// together must leave one alive — translation re-hashes a dead
    /// module's words onto the survivors, and with none there is nowhere
    /// to hash to.
    ///
    /// # Errors
    ///
    /// Names the violated invariant — as a [`WireError`], like
    /// `NetConfig::check`: the plans that need a fallible check are the
    /// ones decoded from snapshot bytes.
    pub fn check(&self, mms: usize) -> Result<(), WireError> {
        let mut dead = self.dead_mms.clone();
        dead.extend(self.schedule.iter().filter_map(|s| match s.fault {
            Fault::KillMm { mm } => Some(mm.0),
            _ => None,
        }));
        if dead.iter().any(|&mm| mm >= mms) {
            return Err(WireError::Invalid("fault plan kills a module out of range"));
        }
        if dead.len() >= mms {
            return Err(WireError::Invalid("fault plan kills every memory module"));
        }
        Ok(())
    }

    /// Builds the injection clock that fires this plan's scheduled faults.
    #[must_use]
    pub fn clock(&self) -> FaultClock {
        FaultClock {
            pending: self.schedule.clone(),
            cursor: 0,
        }
    }
}

impl Wire for FaultPlan {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.seed);
        self.dead_copies.encode(w);
        self.dead_mms.encode(w);
        self.slow_mms.encode(w);
        self.dead_ports.encode(w);
        w.f64(self.link_loss);
        self.schedule.encode(w);
        self.retry.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            seed: r.u64()?,
            dead_copies: BTreeSet::decode(r)?,
            dead_mms: BTreeSet::decode(r)?,
            slow_mms: BTreeMap::decode(r)?,
            dead_ports: BTreeSet::decode(r)?,
            link_loss: r.f64()?,
            schedule: Vec::decode(r)?,
            retry: Option::decode(r)?,
        })
    }
}

/// The live fault state of one network copy, consulted at injection time
/// by `ultra_net::OmegaNetwork`.
///
/// A healthy mask is behaviourally inert: no RNG is consulted and every
/// check short-circuits, so a faulted build with an empty plan runs
/// bit-identically to a fault-free build.
#[derive(Debug, Clone)]
pub struct FaultMask {
    copy_dead: bool,
    /// `(stage, switch, port)` forward output ports that are dead.
    dead_ports: HashSet<(usize, usize, usize)>,
    link_loss: f64,
    rng: SplitMix64,
}

impl Default for FaultMask {
    fn default() -> Self {
        Self::healthy()
    }
}

impl FaultMask {
    /// A mask with nothing broken.
    #[must_use]
    pub fn healthy() -> Self {
        Self {
            copy_dead: false,
            dead_ports: HashSet::new(),
            link_loss: 0.0,
            rng: SplitMix64::new(0),
        }
    }

    /// Whether nothing is broken in this copy.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        !self.copy_dead && self.dead_ports.is_empty() && self.link_loss == 0.0
    }

    /// Whether the whole copy is dead (refuses all new injections).
    #[must_use]
    pub fn copy_dead(&self) -> bool {
        self.copy_dead
    }

    /// Kills the whole copy.
    pub fn kill_copy(&mut self) {
        self.copy_dead = true;
    }

    /// Kills one forward output port.
    pub fn kill_port(&mut self, stage: usize, switch: usize, port: usize) {
        self.dead_ports.insert((stage, switch, port));
    }

    /// Whether the forward output port `(stage, switch, port)` is dead.
    #[must_use]
    pub fn port_dead(&self, stage: usize, switch: usize, port: usize) -> bool {
        !self.dead_ports.is_empty() && self.dead_ports.contains(&(stage, switch, port))
    }

    /// Whether any port at all is dead (cheap pre-screen before walking a
    /// route).
    #[must_use]
    pub fn any_port_dead(&self) -> bool {
        !self.dead_ports.is_empty()
    }

    /// Arms the lossy injection links with probability `p` and a
    /// deterministic RNG stream derived from `seed`.
    pub fn set_link_loss(&mut self, p: f64, seed: u64) {
        self.link_loss = p;
        self.rng = SplitMix64::new(seed);
    }

    /// Rolls the injection-link loss die for one accepted request. Returns
    /// `true` if the message is lost on the wire. Consults no RNG when the
    /// loss rate is zero.
    pub fn roll_link_loss(&mut self) -> bool {
        self.link_loss > 0.0 && self.rng.chance(self.link_loss)
    }
}

impl Wire for FaultMask {
    fn encode(&self, w: &mut WireWriter) {
        w.bool(self.copy_dead);
        self.dead_ports.encode(w);
        w.f64(self.link_loss);
        self.rng.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            copy_dead: r.bool()?,
            dead_ports: HashSet::decode(r)?,
            link_loss: r.f64()?,
            rng: SplitMix64::decode(r)?,
        })
    }
}

/// Drains a [`FaultPlan`]'s schedule in cycle order.
#[derive(Debug, Clone)]
pub struct FaultClock {
    pending: Vec<ScheduledFault>,
    cursor: usize,
}

impl FaultClock {
    /// The faults firing at exactly cycle `now`. Must be called with
    /// non-decreasing `now`; faults scheduled for skipped cycles fire on
    /// the next call.
    pub fn due(&mut self, now: Cycle) -> Vec<Fault> {
        let mut fired = Vec::new();
        while self.cursor < self.pending.len() && self.pending[self.cursor].at <= now {
            fired.push(self.pending[self.cursor].fault);
            self.cursor += 1;
        }
        fired
    }

    /// Faults not yet fired.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.cursor
    }

    /// The cycle at which the next scheduled fault fires, if any. The idle
    /// fast-forward uses this to bound how far it may jump without skipping
    /// a fault.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        self.pending[self.cursor..].iter().map(|s| s.at).min()
    }
}

impl Wire for FaultClock {
    fn encode(&self, w: &mut WireWriter) {
        self.pending.encode(w);
        w.usize(self.cursor);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let pending: Vec<ScheduledFault> = Vec::decode(r)?;
        let cursor = r.usize()?;
        if cursor > pending.len() {
            return Err(WireError::Invalid("fault-clock cursor out of range"));
        }
        Ok(Self { pending, cursor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_state_round_trips_through_wire() {
        let plan = FaultPlan::none()
            .seed(9)
            .dead_copy(1)
            .dead_mm(MmId(3))
            .slow_mm(MmId(5), 4)
            .dead_switch_port(0, 2, 1, 0)
            .link_loss(0.05)
            .schedule(100, Fault::KillMm { mm: MmId(2) })
            .retry(RetryPolicy::for_depth(6));
        let mut mask = plan.mask_for_copy(0);
        let _ = mask.roll_link_loss(); // advance the RNG off its seed
        let mut clock = plan.clock();
        let _ = clock.due(100);
        let mut w = WireWriter::new();
        plan.encode(&mut w);
        mask.encode(&mut w);
        clock.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let plan2 = FaultPlan::decode(&mut r).unwrap();
        let mut mask2 = FaultMask::decode(&mut r).unwrap();
        let clock2 = FaultClock::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(plan, plan2);
        for _ in 0..32 {
            assert_eq!(mask.roll_link_loss(), mask2.roll_link_loss());
        }
        assert_eq!(clock.remaining(), clock2.remaining());
        assert_eq!(clock.next_due(), clock2.next_due());
    }

    #[test]
    fn check_rejects_plans_that_leave_no_module() {
        let invalid = |plan: &FaultPlan, mms| match plan.check(mms) {
            Err(WireError::Invalid(what)) => what,
            other => panic!("expected a typed rejection, got {other:?}"),
        };
        let boot = FaultPlan::none().dead_mm(MmId(0)).dead_mm(MmId(1));
        assert!(boot.check(3).is_ok() && FaultPlan::none().check(1).is_ok());
        assert!(invalid(&boot, 2).contains("every memory module"));
        // Boot-time and scheduled kills count together.
        let later = boot.schedule(50, Fault::KillMm { mm: MmId(2) });
        assert!(later.check(4).is_ok());
        assert!(invalid(&later, 3).contains("every memory module"));
        assert!(invalid(&later, 2).contains("out of range"));
    }

    #[test]
    fn none_is_healthy_and_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_healthy());
        assert!(plan.retry_policy().is_none());
        assert!(plan.dead_mms().is_empty());
        let mask = plan.mask_for_copy(0);
        assert!(mask.is_healthy());
        assert!(!mask.copy_dead());
        let mut clock = plan.clock();
        assert_eq!(clock.remaining(), 0);
        assert!(clock.due(1_000_000).is_empty());
    }

    #[test]
    fn builders_accumulate() {
        let plan = FaultPlan::none()
            .seed(7)
            .dead_copy(1)
            .dead_mm(MmId(3))
            .slow_mm(MmId(5), 4)
            .dead_switch_port(0, 2, 1, 0)
            .link_loss(0.01)
            .schedule(100, Fault::KillMm { mm: MmId(2) });
        assert!(!plan.is_healthy());
        assert_eq!(plan.dead_copies(), vec![1]);
        assert_eq!(plan.dead_mms(), vec![MmId(3)]);
        assert_eq!(plan.slow_factor(MmId(5)), 4);
        assert_eq!(plan.slow_factor(MmId(0)), 1);
        let m0 = plan.mask_for_copy(0);
        assert!(m0.port_dead(2, 1, 0));
        assert!(!m0.copy_dead());
        let m1 = plan.mask_for_copy(1);
        assert!(m1.copy_dead());
        assert!(!m1.port_dead(2, 1, 0));
    }

    #[test]
    fn clock_fires_in_order_and_catches_up() {
        let plan = FaultPlan::none()
            .schedule(50, Fault::KillCopy { copy: 0 })
            .schedule(10, Fault::KillMm { mm: MmId(1) })
            .schedule(
                50,
                Fault::StickWaitEntry {
                    copy: 0,
                    stage: 1,
                    switch: 2,
                },
            );
        let mut clock = plan.clock();
        assert_eq!(clock.remaining(), 3);
        assert!(clock.due(9).is_empty());
        assert_eq!(clock.due(10), vec![Fault::KillMm { mm: MmId(1) }]);
        // Skipping past cycle 50 still fires both cycle-50 faults.
        let fired = clock.due(60);
        assert_eq!(fired.len(), 2);
        assert_eq!(clock.remaining(), 0);
    }

    #[test]
    fn retry_backoff_doubles_then_caps() {
        let p = RetryPolicy {
            base_timeout: 10,
            backoff_cap: 2,
        };
        assert_eq!(p.deadline(0, 0), 10);
        assert_eq!(p.deadline(0, 1), 20);
        assert_eq!(p.deadline(0, 2), 40);
        assert_eq!(p.deadline(0, 9), 40, "backoff capped");
        assert_eq!(p.deadline(100, 0), 110);
    }

    #[test]
    fn random_static_is_deterministic_and_leaves_a_survivor() {
        let shape = NetShape {
            copies: 2,
            stages: 3,
            switches_per_stage: 4,
            k: 2,
            mms: 8,
        };
        let a = FaultPlan::random_static(42, shape, 0.9, 0.1);
        let b = FaultPlan::random_static(42, shape, 0.9, 0.1);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random_static(43, shape, 0.9, 0.1);
        assert_ne!(a, c, "different seed, different plan");
        assert!(
            a.dead_mms().len() < shape.mms,
            "at least one MM must survive"
        );
    }

    #[test]
    fn healthy_mask_rolls_no_losses() {
        let mut mask = FaultMask::healthy();
        for _ in 0..1000 {
            assert!(!mask.roll_link_loss());
        }
    }

    #[test]
    fn lossy_mask_is_deterministic() {
        let roll = || {
            let mut m = FaultMask::healthy();
            m.set_link_loss(0.3, 99);
            (0..64).map(|_| m.roll_link_loss()).collect::<Vec<_>>()
        };
        let a = roll();
        assert_eq!(a, roll());
        assert!(a.iter().any(|&l| l), "some losses at p = 0.3");
        assert!(a.iter().any(|&l| !l), "some survivals at p = 0.3");
    }
}
