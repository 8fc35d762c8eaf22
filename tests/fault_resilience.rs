//! Property tests for the fault-injection subsystem (`ultra-faults`).
//!
//! The two contracts the subsystem must keep:
//!
//! * **Zero-cost when idle** — a run under `FaultPlan::none()` is
//!   bit-identical (same trace, same stats, same final memory, same cycle
//!   count) to a run that never mentions faults at all.
//! * **Exactly-once under recovery** — with lossy links, dead modules and
//!   dead copies, every loss is reported where it happens and the lost
//!   request sent again once, so every fetch-and-add's effect is
//!   single-shot and the serialization principle (dense, distinct
//!   tickets; exact totals) still holds.

use ultra_faults::{Fault, FaultPlan, NetShape};
use ultra_mem::{AddressHasher, TranslationMode};
use ultra_net::config::{NetConfig, SwitchPolicy};
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
        assert!(m.run().completed, "every loss must be recovered");
        let f = m.fault_summary();
        assert_eq!(f.retries, f.dropped, "each lost request is sent again once");
        assert_eq!(f.duplicate_replies, 0, "{f:?}");
        assert_tickets_exact(&mut m, n as i64 * iters, "lossy links");
    });
}

/// A lossy hot spot is cut mid-run with combined requests in flight;
/// `resume` copies the machine at the cut. Both the copy and the original
/// finish with exact tickets, on the same cycle.
fn exactly_once_across_a_cut(label: &str, resume: impl Fn(&Machine) -> Machine) {
    forall(6, label, |rng| {
        let n = 16;
        let iters = 4 + rng.below(6) as i64;
        let plan = FaultPlan::none()
            .seed(rng.next_u64())
            .link_loss(0.02 + rng.f64() * 0.08);
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
            assert!(m.run().completed, "{what}: every loss must be recovered");
            assert_tickets_exact(m, n as i64 * iters, what);
        }
        assert_eq!(copy.now(), m.now(), "the cut changes nothing");
        assert_eq!(copy.fault_summary(), m.fault_summary());
        let f = m.fault_summary();
        assert!(f.dropped > 0, "{f:?}");
        assert_eq!(f.duplicate_replies, 0, "{f:?}");
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
        let mut plan = FaultPlan::random_static(rng.next_u64(), shape, 0.2, 0.05).link_loss(0.03);
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
        let f = m.fault_summary();
        assert_eq!(f.duplicate_replies, 0, "{f:?}");
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
        // in-flight request is refused and re-issued, and post-death
        // tickets stay distinct (slots are written at most once).
        let mut m = MachineBuilder::new(n)
            .faults(plan)
            .max_cycles(4_000_000)
            .build_spmd(&ticket_program(iters));
        assert!(m.run().completed, "the NACKs must recover what died");
        for slot in 0..(n as i64 * iters) as usize {
            let v = m.read_shared(1000 + slot);
            assert!(v == 0 || v == 1, "slot {slot} written at most once");
        }
        assert_eq!(m.fault_summary().duplicate_replies, 0);
    });
}

/// Each round every PE takes a ticket and stores it, plus one, to word
/// `1000 + iters · PE + round`: a word that reads 0 holds no ticket.
fn ticket_slots_program(iters: i64) -> Program {
    let slot = Expr::add(
        Expr::Const(1000),
        Expr::add(Expr::mul(Expr::PeIndex, iters), Expr::Reg(1)),
    );
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
                        dst: Some(3),
                    },
                    Op::Store {
                        addr: slot,
                        value: Expr::add(Expr::Reg(3), Expr::Const(1)),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// Case `case` of the sweep: `d` copies, a switch policy and a link loss
/// of 0, 5 or 20 % (every 18 consecutive cases cover each combination
/// once, and the first 8 each value), the default queues or, in every
/// other run of 18 cases, queues tight enough that a module can die with
/// replies it could not yet send, and a module, drawn from `rng`, killed
/// mid-run. Every loss must be reported and recovered once: the run
/// completes, no reply is a duplicate, every wait-buffer entry is
/// answered, the tickets each module of the counter handed out are
/// distinct, and, when the counter's module survived, dense — every
/// ticket `0..n · iters` is written but the ones the dead module lost
/// with its words.
fn every_loss_reported_case(case: usize, rng: &mut SplitMix64) {
    let n = 16;
    let copies = 1 + case % 2;
    let policy = [
        SwitchPolicy::QueuedCombining,
        SwitchPolicy::QueuedNoCombine,
        SwitchPolicy::DropOnConflict,
    ][case % 3];
    let loss = [0.0, 0.05, 0.2][(case + case / 6) % 3];
    let victim = MmId(rng.below(n));
    let at = 10 + rng.below(50) as u64;
    let iters = 3 + rng.below(4) as i64;
    let plan = FaultPlan::none()
        .seed(rng.next_u64())
        .link_loss(loss)
        .schedule(at, Fault::KillMm { mm: victim });
    let mut net = NetConfig::small(n);
    net.policy = policy;
    let tight = case / 18 % 2 == 1;
    if tight {
        net.request_queue_packets = 3;
        net.reply_queue_packets = 6;
    }
    let what = format!(
        "d = {copies}, {policy:?}, loss {loss}, tight queues {tight}, MM {} dies at {at}",
        victim.0
    );
    let mut m = MachineBuilder::new(n)
        .net(net)
        .network(copies)
        .faults(plan)
        .max_cycles(4_000_000)
        .build_spmd(&ticket_slots_program(iters));
    assert!(m.run().completed, "{what}: the run must complete");
    assert!(m.now() > at, "{what}: the module died mid-run");
    let f = m.fault_summary();
    assert_eq!(f.duplicate_replies, 0, "{what}: {f:?}");
    let s = m.net_stats();
    assert_eq!(s.combines.get(), s.decombines.get(), "{what}: wait entries");
    let healthy = AddressHasher::new(n, TranslationMode::Hashed);
    let total = n * iters as usize;
    // The counter's module hands out tickets `0..old` until it dies (those
    // applied but NACKed were never handed out), and its adoptive module
    // `0..fresh` afterwards; a survivor hands out `0..total` alone.
    let fresh = m.read_shared(0) as usize;
    let old = total - fresh;
    let mut times = vec![0; total];
    for slot in 1000..1000 + total {
        match m.read_shared(slot) {
            0 => assert_eq!(
                healthy.translate(slot).mm,
                victim,
                "{what}: slot {slot} unwritten"
            ),
            t => {
                assert!((1..=total as Value).contains(&t), "{what}: ticket {t}");
                times[t as usize - 1] += 1;
            }
        }
    }
    for (t, &times) in times.iter().enumerate() {
        let owed = usize::from(t < old) + usize::from(t < fresh);
        assert!(times <= owed, "{what}: ticket {t} written {times} times");
    }
    if healthy.translate(0).mm != victim {
        // Dense: every ticket is written but those whose slots the dead
        // module lost with its words.
        assert_eq!(fresh, total, "{what}: exact count");
        let lost = (1000..1000 + total)
            .filter(|&s| m.read_shared(s) == 0)
            .count();
        assert_eq!(times.iter().sum::<usize>() + lost, total, "{what}: dense");
    }
}

/// The first `cases` cases of the sweep.
fn every_loss_reported_sweep(cases: u64) {
    let mut case = 0;
    forall(cases, "every_loss_reported", |rng| {
        every_loss_reported_case(case, rng);
        case += 1;
    });
}

#[test]
fn every_loss_is_reported_and_recovered_once() {
    every_loss_reported_sweep(8);
}

#[test]
#[ignore = "512 seeded cases: run in release"]
fn every_loss_is_reported_and_recovered_once_sweep() {
    every_loss_reported_sweep(512);
}
