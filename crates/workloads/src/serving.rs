//! Serving-tier workload: open-loop users over the Ultracomputer.
//!
//! The paper's workloads are batch-scientific, but the machine primitives
//! it argues for — combinable fetch-and-add dispatch, hash-interleaved
//! memory — are exactly what a request-serving tier needs: many users
//! submit requests at times *they* choose (open loop: arrivals do not
//! wait for the system), workers claim requests from a shared ticket
//! queue with one fetch-and-add each, and per-request state lives in
//! records hashed across the memory modules. This module builds that
//! tier as a DSL program plus arrival/latency plumbing:
//!
//! * Arrivals are a seeded Poisson process: exponential inter-arrival
//!   gaps with a configurable mean, prefix-summed into an absolute
//!   schedule and installed in shared memory before the run.
//! * Workers self-schedule over request tickets. For each claimed
//!   ticket a worker loads the request's arrival cycle, parks on
//!   [`Op::WaitUntil`] until that cycle (a ticket claimed late — the
//!   queue is backlogged — starts immediately, which is precisely the
//!   queueing delay an overloaded open-loop system accumulates), looks
//!   up the request's KV record through the address hash, does the
//!   service work, and stamps the completion clock into the done table.
//! * [`Serving::latencies`] reads both tables back and folds
//!   `done − arrival` into a [`Histogram`], whose upper-edge percentile
//!   semantics guarantee the reported p99 never understates the tail.
//!
//! Sweeping the mean gap down (offered load up) traces the classic
//! load-vs-tail-latency hockey stick; `ultra-bench --bin serving`
//! drives that sweep and writes the curve as a JSON artifact.

use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::stats::Histogram;
use ultracomputer::machine::{Machine, Recipe};
use ultracomputer::program::{body, Expr, Op, Program};

/// Base address of the arrival-cycle table (one word per request).
pub const ARRIVAL_BASE: usize = 1 << 22;
/// Base address of the completion-stamp table (one word per request).
pub const DONE_BASE: usize = 1 << 23;
/// Base address of the KV record store.
pub const KV_BASE: usize = 1 << 24;
/// Address of the shared ticket counter workers claim requests from.
pub const TICKET_ADDR: usize = (1 << 28) + 0xD15C;

/// Open-loop serving workload generator.
///
/// # Example
///
/// ```
/// use ultra_workloads::Serving;
/// use ultracomputer::machine::{Machine, MachineBuilder};
///
/// let s = Serving::new(64, 40).seed(7);
/// let mut recipe = MachineBuilder::new(4).ideal(2).recipe_spmd(&s.program());
/// s.install(&mut recipe);
/// let mut m = Machine::from_recipe(recipe);
/// assert!(m.run().completed);
/// let lat = s.latencies(&m);
/// assert_eq!(lat.count(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serving {
    /// Number of requests in the run.
    pub requests: usize,
    /// Mean inter-arrival gap in cycles (inverse offered load).
    pub mean_gap: u64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Number of KV records hashed across the memory modules.
    pub kv_records: usize,
    /// Pure-compute instructions of service work per request.
    pub service_compute: u32,
    /// Cache-satisfied references per request.
    pub service_private: u32,
    /// Cycle the first request may arrive at (lets the PEs boot and
    /// claim their first tickets before the clock matters).
    pub warmup: u64,
}

impl Serving {
    /// A serving tier with the given request count and mean gap.
    ///
    /// # Panics
    ///
    /// Panics if `requests` or `mean_gap` is zero.
    #[must_use]
    pub fn new(requests: usize, mean_gap: u64) -> Self {
        assert!(requests >= 1, "need requests to serve");
        assert!(mean_gap >= 1, "arrivals need a positive mean gap");
        Self {
            requests,
            mean_gap,
            seed: 0x5E81_1CE5,
            kv_records: 4096,
            service_compute: 60,
            service_private: 12,
            warmup: 64,
        }
    }

    /// Replaces the arrival-process seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The absolute arrival schedule: a seeded Poisson process.
    ///
    /// Gap `i` is drawn from an exponential distribution with mean
    /// [`Self::mean_gap`] via inverse-CDF on a [`SplitMix64`] stream, so
    /// the schedule is a pure function of `(seed, mean_gap, requests)` —
    /// the same table on every run.
    #[must_use]
    pub fn arrivals(&self) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.seed ^ 0xA55A_7EA5_0F75_11E5);
        let mut at = self.warmup;
        (0..self.requests)
            .map(|_| {
                // u in (0, 1]: never ln(0); a gap may round to zero
                // (bursts are part of a Poisson process). A huge mean gap
                // saturates the clock instead of overflowing it.
                let u = 1.0 - rng.f64();
                let gap = -(self.mean_gap as f64) * u.ln();
                at = at.saturating_add(gap.min(1e15) as u64);
                at
            })
            .collect()
    }

    /// Builds the worker program (parameter 0 = request count).
    ///
    /// Register use: r4 = claimed ticket, r2 = arrival cycle,
    /// r3 = KV value, r5 = running use of the KV value (forces the
    /// lookup's round trip into the request's critical path).
    #[must_use]
    pub fn program(&self) -> Program {
        let kv_addr = Expr::add(
            KV_BASE as i64,
            Expr::rem(
                Expr::hash(Expr::Reg(4), 0x9E37_79B9),
                self.kv_records as i64,
            ),
        );
        let request_body = body(vec![
            Op::Load {
                addr: Expr::add(ARRIVAL_BASE as i64, Expr::Reg(4)),
                dst: 2,
            },
            // Park until the user actually submits this request; a
            // backlogged (past) arrival starts service immediately.
            Op::WaitUntil {
                cycle: Expr::Reg(2),
            },
            Op::Load {
                addr: kv_addr,
                dst: 3,
            },
            Op::Set {
                reg: 5,
                value: Expr::add(Expr::Reg(5), Expr::Reg(3)),
            },
            Op::Compute(self.service_compute),
            Op::PrivateRef(self.service_private),
            Op::Store {
                addr: Expr::add(DONE_BASE as i64, Expr::Reg(4)),
                value: Expr::Clock,
            },
        ]);
        Program::new(
            body(vec![
                Op::SelfSched {
                    reg: 4,
                    counter: Expr::Const(TICKET_ADDR as i64),
                    limit: Expr::Param(0),
                    body: request_body,
                },
                Op::Halt,
            ]),
            vec![self.requests as i64],
        )
    }

    /// Writes the arrival schedule and KV records into a machine's
    /// recipe, as untimed writes before cycle 0.
    pub fn install(&self, recipe: &mut Recipe) {
        for (i, &at) in self.arrivals().iter().enumerate() {
            recipe.write_shared(ARRIVAL_BASE + i, at as i64);
        }
        let mut rng = SplitMix64::new(self.seed ^ 0x4B56_0DA7_A0C0_FFEE);
        for r in 0..self.kv_records {
            recipe.write_shared(KV_BASE + r, rng.range_u64(1..1 << 20) as i64);
        }
    }

    /// Reads the completion stamps back and returns the end-to-end
    /// latency histogram (`done − arrival` per request).
    ///
    /// # Panics
    ///
    /// Panics if a request never completed (the run was truncated).
    #[must_use]
    pub fn latencies(&self, m: &Machine) -> Histogram {
        let arrivals = self.arrivals();
        let mut h = Histogram::new();
        for (i, &at) in arrivals.iter().enumerate() {
            let done = m.read_shared(DONE_BASE + i);
            assert!(done > 0, "request {i} never completed");
            h.record((done as u64).saturating_sub(at));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultracomputer::machine::MachineBuilder;

    #[test]
    fn arrivals_are_deterministic_and_increasing() {
        let s = Serving::new(200, 50).seed(3);
        let a = s.arrivals();
        let b = s.arrivals();
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "prefix sums increase");
        assert!(a[0] >= s.warmup);
        // The empirical mean gap should land near the configured mean.
        let span = (a[a.len() - 1] - a[0]) as f64 / (a.len() - 1) as f64;
        assert!((span - 50.0).abs() < 15.0, "mean gap {span} far from 50");
        assert_ne!(a, Serving::new(200, 50).seed(4).arrivals());
        let huge = Serving::new(20_000, u64::MAX).arrivals();
        assert!(
            huge.windows(2).all(|w| w[0] <= w[1]),
            "saturates, never wraps"
        );
    }

    #[test]
    fn every_request_completes_on_both_backends() {
        let s = Serving::new(48, 30).seed(11);
        for build in [
            MachineBuilder::new(4).ideal(2),
            MachineBuilder::new(4).network(1),
        ] {
            let mut recipe = build.recipe_spmd(&s.program());
            s.install(&mut recipe);
            let mut m = Machine::from_recipe(recipe);
            assert!(m.run().completed);
            let lat = s.latencies(&m);
            assert_eq!(lat.count(), 48);
            assert_eq!(
                m.read_shared(TICKET_ADDR),
                48 + 4,
                "each PE overclaims one ticket"
            );
        }
    }

    #[test]
    fn lighter_load_means_lower_tail_latency() {
        // The defining serving-tier shape: shrinking the mean gap
        // (raising offered load) on a fixed-capacity machine must not
        // *improve* the tail, and a saturating load must visibly hurt it.
        let run = |gap: u64| {
            let s = Serving::new(256, gap).seed(5);
            let mut recipe = MachineBuilder::new(4).ideal(2).recipe_spmd(&s.program());
            s.install(&mut recipe);
            let mut m = Machine::from_recipe(recipe);
            assert!(m.run().completed);
            s.latencies(&m).percentile(99.0)
        };
        let relaxed = run(400);
        let saturated = run(1);
        assert!(
            saturated > 4 * relaxed.max(1),
            "p99 at gap 1 ({saturated}) should dwarf gap 400 ({relaxed})"
        );
    }
}
