//! Property tests for the fault-injection subsystem (`ultra-faults`).
//!
//! The two contracts the subsystem must keep:
//!
//! * **Zero-cost when idle** — a run under `FaultPlan::none()` is
//!   bit-identical (same trace, same stats, same final memory, same cycle
//!   count) to a run that never mentions faults at all.
//! * **Exactly-once under recovery** — with lossy links, dead modules and
//!   dead copies, the PNI retry protocol plus the MM dedup cache keep
//!   every fetch-and-add's effect single-shot, so the serialization
//!   principle (dense, distinct tickets; exact totals) still holds.

use ultra_faults::{Fault, FaultPlan, NetShape, RetryPolicy};
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::{MmId, Value};
use ultracomputer::machine::Machine;
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::trace::TraceEvent;
use ultracomputer::{EngineTuning, MachineBuilder};

/// Deterministic "forall": seeded cases, failures reported with the case
/// number so they replay exactly.
fn forall(cases: u64, label: &str, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(0xFA17_7E57 ^ (case.wrapping_mul(0x9e37_79b9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{label}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Every PE claims `iters` tickets from word 0 and marks slot
/// `1000 + ticket`.
fn ticket_program(iters: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(iters),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: Expr::add(Expr::Const(1000), Expr::Reg(0)),
                        value: Expr::Const(1),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

fn assert_tickets_exact(m: &mut Machine, total: i64, what: &str) {
    assert_eq!(m.read_shared(0), total as Value, "{what}: final count");
    for slot in 0..total as usize {
        assert_eq!(m.read_shared(1000 + slot), 1, "{what}: ticket {slot}");
    }
}

/// A small random mixed workload: hot-word fetch-and-adds, per-PE
/// stores, and a barrier between phases.
fn random_program(rng: &mut SplitMix64) -> Program {
    let iters = 1 + rng.below(6) as i64;
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(iters),
                body: body(vec![Op::FetchAdd {
                    addr: Expr::Const(3),
                    delta: Expr::Const(1),
                    dst: None,
                }]),
            },
            Op::Barrier,
            Op::Store {
                addr: Expr::add(Expr::Const(64), Expr::PeIndex),
                value: Expr::add(Expr::PeIndex, 1),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

#[test]
fn no_faults_plan_is_bit_identical_to_a_faultless_build() {
    forall(12, "no_faults_plan_is_bit_identical", |rng| {
        let n = [4usize, 8, 16][rng.below(3)];
        let seed = rng.next_u64();
        let program = random_program(rng);
        let run = |plan: Option<FaultPlan>| {
            let mut b = MachineBuilder::new(n).seed(seed);
            if let Some(p) = plan {
                b = b.faults(p);
            }
            let mut m = b.build_spmd(&program);
            m.enable_trace(1 << 14);
            let out = m.run();
            assert!(out.completed);
            m
        };
        let plain = run(None);
        let idle = run(Some(FaultPlan::none()));
        assert_eq!(plain.now(), idle.now(), "cycle-for-cycle identical");
        let a: Vec<TraceEvent> = plain.trace().iter().copied().collect();
        let b: Vec<TraceEvent> = idle.trace().iter().copied().collect();
        assert_eq!(a, b, "identical traces");
        let (sa, sb) = (plain.net_stats(), idle.net_stats());
        for (x, y) in [
            (&sa.injected_requests, &sb.injected_requests),
            (&sa.delivered_replies, &sb.delivered_replies),
            (&sa.combines, &sb.combines),
            (&sa.decombines, &sb.decombines),
            (&sa.inject_stalls, &sb.inject_stalls),
        ] {
            assert_eq!(x.get(), y.get(), "identical network stats");
        }
        assert!(!idle.fault_summary().any(), "idle plan fires nothing");
        for v in 0..n {
            assert_eq!(plain.read_shared(64 + v), idle.read_shared(64 + v));
        }
        assert_eq!(plain.read_shared(3), idle.read_shared(3));
    });
}

#[test]
fn faulty_runs_are_deterministic_in_the_plan_seed() {
    forall(8, "faulty_runs_are_deterministic", |rng| {
        let seed = rng.next_u64();
        let loss = 0.02 + rng.f64() * 0.08;
        let plan = FaultPlan::none()
            .seed(seed)
            .link_loss(loss)
            .schedule(40 + rng.below(100) as u64, Fault::KillCopy { copy: 1 });
        let iters = 3 + rng.below(6) as i64;
        let run = || {
            let mut m = MachineBuilder::new(8)
                .network(2)
                .faults(plan.clone())
                .max_cycles(2_000_000)
                .build_spmd(&ticket_program(iters));
            m.enable_trace(1 << 14);
            assert!(m.run().completed, "recovery must drain the run");
            m
        };
        let (one, two) = (run(), run());
        assert_eq!(one.now(), two.now(), "same cycle count");
        assert_eq!(one.fault_summary(), two.fault_summary(), "same counters");
        let a: Vec<TraceEvent> = one.trace().iter().copied().collect();
        let b: Vec<TraceEvent> = two.trace().iter().copied().collect();
        assert_eq!(a, b, "one seed, one trace");
    });
}

#[test]
fn fetch_add_is_exactly_once_under_lossy_links_and_retry() {
    forall(16, "exactly_once_under_loss", |rng| {
        let n = 8;
        let iters = 4 + rng.below(8) as i64;
        let loss = 0.02 + rng.f64() * 0.13;
        let plan = FaultPlan::none().seed(rng.next_u64()).link_loss(loss);
        let mut m = MachineBuilder::new(n)
            .faults(plan)
            .max_cycles(4_000_000)
            .build_spmd(&ticket_program(iters));
        assert!(m.run().completed, "retries must recover every loss");
        let f = m.fault_summary();
        assert!(
            f.retries >= f.dropped,
            "each lost request needs at least one retry"
        );
        assert_tickets_exact(&mut m, n as i64 * iters, "lossy links");
    });
}

/// A lossy, retrying hot spot with a timeout short enough to retry
/// requests still in flight is cut mid-run with combined requests in
/// flight; `resume` copies the machine at the cut. Both the copy and the
/// original finish with exact tickets, on the same cycle.
fn exactly_once_across_a_cut(label: &str, resume: impl Fn(&Machine) -> Machine) {
    forall(6, label, |rng| {
        let n = 16;
        let iters = 4 + rng.below(6) as i64;
        let plan = FaultPlan::none()
            .seed(rng.next_u64())
            .link_loss(0.02 + rng.f64() * 0.08)
            .retry(RetryPolicy {
                base_timeout: 12 + rng.below(4) as u64,
                backoff_cap: 3,
            });
        let mut m = MachineBuilder::new(n)
            .faults(plan)
            .max_cycles(4_000_000)
            .build_spmd(&ticket_program(iters));
        assert!(!m.run_for(10 + rng.below(100) as u64).completed);
        // Step to a cycle where some combine still awaits its reply.
        let absorbed_in_flight = |m: &Machine| {
            let s = m.net_stats();
            s.combines.get() > s.decombines.get()
        };
        while !absorbed_in_flight(&m) {
            assert!(
                !m.run_for(1).completed,
                "no combine in flight before the end"
            );
        }
        let mut copy = resume(&m);
        for (m, what) in [(&mut m, "original"), (&mut copy, "copy")] {
            assert!(m.run().completed, "{what}: retries must recover every loss");
            assert_tickets_exact(m, n as i64 * iters, what);
        }
        assert_eq!(copy.now(), m.now(), "the cut changes nothing");
        let f = m.fault_summary();
        assert!(f.dropped > 0 && f.dedup_swallowed > 0, "{f:?}");
    });
}

#[test]
fn fetch_add_is_exactly_once_across_a_fork_mid_run() {
    exactly_once_across_a_cut("exactly_once_across_fork", |m| {
        m.fork(EngineTuning::default())
    });
}

#[test]
fn fetch_add_is_exactly_once_across_a_restore_mid_run() {
    exactly_once_across_a_cut("exactly_once_across_restore", |m| {
        Machine::restore(&m.snapshot()).expect("restore")
    });
}

#[test]
fn fetch_add_is_exactly_once_under_combined_static_faults() {
    // Dead MMs + dead ports + a dead copy + loss, all at once: the
    // serialization principle must survive the whole menagerie.
    forall(10, "exactly_once_under_static_faults", |rng| {
        let n = 8;
        let shape = NetShape {
            copies: 2,
            stages: 3,
            switches_per_stage: 4,
            k: 2,
            mms: n,
        };
        let mut plan = FaultPlan::random_static(rng.next_u64(), shape, 0.2, 0.05)
            .link_loss(0.03)
            .retry(RetryPolicy::for_depth(3));
        if rng.chance(0.5) {
            plan = plan.dead_copy(0);
        }
        let iters = 3 + rng.below(5) as i64;
        let mut m = MachineBuilder::new(n)
            .network(2)
            .faults(plan)
            .max_cycles(4_000_000)
            .build_spmd(&ticket_program(iters));
        assert!(m.run().completed, "degraded machine must still drain");
        // A plan can sever every route out of a PE (both ports of its
        // entry switch dead in the only live copy); such PEs are
        // fail-stopped at boot and claim no tickets. The survivors'
        // tickets must still be exact and dense.
        let live = n - m.dead_pes().len();
        assert!(live > 0, "some PE must survive this plan");
        assert_tickets_exact(&mut m, live as i64 * iters, "static fault soup");
    });
}

#[test]
fn mid_run_module_death_keeps_post_death_traffic_exact() {
    forall(8, "mid_run_module_death", |rng| {
        let n = 8;
        let victim = MmId(rng.below(n));
        let at = 30 + rng.below(120) as u64;
        let plan = FaultPlan::none().schedule(at, Fault::KillMm { mm: victim });
        let iters = 4 + rng.below(4) as i64;
        // The hot counter itself may live on the victim and lose its
        // value; what must hold is that the machine drains, every
        // in-flight request is recovered, and post-death tickets stay
        // distinct (slots are written at most once).
        let mut m = MachineBuilder::new(n)
            .faults(plan)
            .max_cycles(4_000_000)
            .build_spmd(&ticket_program(iters));
        assert!(m.run().completed, "retry must recover the discards");
        for slot in 0..(n as i64 * iters) as usize {
            let v = m.read_shared(1000 + slot);
            assert!(v == 0 || v == 1, "slot {slot} written at most once");
        }
    });
}
