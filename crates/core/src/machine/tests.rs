use ultra_faults::{Fault, FaultPlan};
use ultra_mem::TranslationMode;
use ultra_sim::clock::TimeScale;

use super::*;
use crate::program::{body, Expr, Op};
use crate::trace::TraceEvent;

fn counter_program(increments: i64) -> Program {
    // Every PE adds `increments` times 1 to the shared word 0.
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(increments),
                body: body(vec![Op::FetchAdd {
                    addr: Expr::Const(0),
                    delta: Expr::Const(1),
                    dst: None,
                }]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

#[test]
fn ideal_backend_counts_exactly() {
    let mut m = MachineBuilder::new(8)
        .ideal(2)
        .build_spmd(&counter_program(10));
    let out = m.run();
    assert!(out.completed, "must drain");
    assert_eq!(m.read_shared(0), 80);
}

#[test]
fn network_backend_counts_exactly() {
    let mut m = MachineBuilder::new(8).build_spmd(&counter_program(10));
    let out = m.run();
    assert!(out.completed);
    assert_eq!(m.read_shared(0), 80);
}

#[test]
#[should_panic(expected = "invalid network configuration: network has no stage")]
fn a_one_pe_network_machine_is_refused_by_name() {
    let _ = MachineBuilder::new(1).build_spmd(&counter_program(1));
}

#[test]
fn backends_agree_on_final_memory() {
    // Distinct-slot writes through self-scheduling: both backends must
    // produce one write per slot and full counter consumption.
    let p = Program::new(
        body(vec![
            Op::SelfSched {
                reg: 0,
                counter: Expr::Const(0),
                limit: Expr::Const(40),
                body: body(vec![Op::FetchAdd {
                    addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
                    delta: Expr::Const(1),
                    dst: None,
                }]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    for build in [
        MachineBuilder::new(8).ideal(2),
        MachineBuilder::new(8).network(1),
    ] {
        let mut m = build.build_spmd(&p);
        assert!(m.run().completed);
        for i in 0..40 {
            assert_eq!(m.read_shared(100 + i), 1, "slot {i}");
        }
        assert_eq!(m.read_shared(0), 40 + 8, "each PE overshoots once");
    }
}

#[test]
fn barrier_synchronizes_all_pes() {
    // PE0 stores 42 to word 5 before the barrier; every PE loads it
    // after the barrier and stores what it saw into its own slot.
    let p = Program::new(
        body(vec![
            Op::If {
                cond: crate::program::Cond::new(Expr::PeIndex, crate::program::CmpOp::Eq, 0),
                then_ops: body(vec![
                    Op::Store {
                        addr: Expr::Const(5),
                        value: Expr::Const(42),
                    },
                    Op::Fence,
                ]),
                else_ops: body(vec![]),
            },
            Op::Barrier,
            Op::Load {
                addr: Expr::Const(5),
                dst: 0,
            },
            Op::Store {
                addr: Expr::add(Expr::Const(200), Expr::PeIndex),
                value: Expr::Reg(0),
            },
            Op::Halt,
        ]),
        vec![],
    );
    for build in [
        MachineBuilder::new(8).ideal(2),
        MachineBuilder::new(8).network(1),
    ] {
        let mut m = build.build_spmd(&p);
        assert!(m.run().completed);
        for pe in 0..8 {
            assert_eq!(m.read_shared(200 + pe), 42, "PE{pe} saw the store");
        }
    }
}

#[test]
fn consecutive_barriers_work() {
    let p = Program::new(
        body(vec![Op::Barrier, Op::Barrier, Op::Barrier, Op::Halt]),
        vec![],
    );
    let mut m = MachineBuilder::new(4).build_spmd(&p);
    assert!(m.run().completed);
}

#[test]
fn network_latency_reflected_in_cm_access() {
    // One load on an otherwise idle 64-PE machine: round trip should be
    // the §4.2 minimum (fwd D + m_ctl - 1, MM service, reverse
    // D + m_data - 1) — with D = 6, service 2: 6 + 2 + 8 = 16 cycles.
    let p = Program::new(
        body(vec![
            Op::Load {
                addr: Expr::Const(7),
                dst: 0,
            },
            Op::Store {
                addr: Expr::Const(300),
                value: Expr::Reg(0),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let mut programs = vec![Program::empty(); 64];
    programs[3] = p;
    let mut m = MachineBuilder::new(64).build(programs);
    assert!(m.run().completed);
    let merged = m.merged_pe_stats();
    assert_eq!(merged.cm_access.count(), 2);
    // The load's round trip is measured from issue to delivery; allow
    // the injection cycle itself as slack.
    let min = merged.cm_access.percentile(0.0);
    assert!(
        (16..=18).contains(&min),
        "min CM access {min} should be ~16 cycles (8 PE instruction times)"
    );
}

#[test]
fn hotspot_combining_machine_end_to_end() {
    // All PEs hammer one word; combining must keep the final count
    // exact and the returned values distinct.
    let p = Program::new(
        body(vec![
            Op::FetchAdd {
                addr: Expr::Const(0),
                delta: Expr::Const(1),
                dst: Some(0),
            },
            Op::Store {
                addr: Expr::add(Expr::Const(500), Expr::Reg(0)),
                value: Expr::Const(1),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let n = 16;
    let mut m = MachineBuilder::new(n).build_spmd(&p);
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), n as Value);
    for i in 0..n {
        assert_eq!(m.read_shared(500 + i), 1, "ticket {i} claimed once");
    }
}

#[test]
fn run_times_out_on_deadlock() {
    // One PE waits at a barrier nobody else reaches.
    let p = Program::new(body(vec![Op::Barrier, Op::Halt]), vec![]);
    let mut programs = vec![Program::empty(); 4];
    programs[0] = p;
    let mut m = MachineBuilder::new(4).max_cycles(5_000).build(programs);
    let out = m.run();
    assert!(!out.completed);
    assert_eq!(out.cycles, 5_000);
}

#[test]
fn stats_populated() {
    let mut m = MachineBuilder::new(8).build_spmd(&counter_program(5));
    assert!(m.run().completed);
    let merged = m.merged_pe_stats();
    assert!(merged.instructions.get() > 0);
    assert_eq!(merged.shared_refs.get(), 8 * 5);
    assert_eq!(merged.cm_loads.get(), 8 * 5, "fetch-and-adds carry data");
    let net = m.net_stats();
    assert_eq!(net.injected_requests.get(), 8 * 5);
    assert_eq!(
        net.delivered_replies.get(),
        8 * 5,
        "every request gets exactly one reply (decombined or direct)"
    );
    assert_eq!(net.combines.get(), net.decombines.get());
}

#[test]
fn fetch_and_max_reduction_combines_end_to_end() {
    // §2.4 generality through the whole machine: every PE folds a
    // value into a shared maximum with FetchPhi(Max); the network
    // combines Max pairs exactly like adds.
    use ultra_net::message::PhiOp;
    let p = Program::new(
        body(vec![
            Op::FetchPhi {
                op: PhiOp::Max,
                addr: Expr::Const(3),
                // Values 0, 7, 14, ... — max is (n-1)*7.
                operand: Expr::mul(Expr::PeIndex, 7),
                dst: Some(0),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let n = 16;
    let mut m = MachineBuilder::new(n).build_spmd(&p);
    m.write_shared(3, -100);
    assert!(m.run().completed);
    assert_eq!(m.read_shared(3), (n as Value - 1) * 7);
    assert!(
        m.net_stats().combines.get() > 0,
        "simultaneous maxes must combine in the tree"
    );
}

#[test]
fn four_by_four_switch_machine_works() {
    // The §4.2 geometry (k = 4) at small scale, through the machine.
    let mut m = MachineBuilder::new(16)
        .net(ultra_net::config::NetConfig::paper_section42_scaled(16))
        .build_spmd(&counter_program(8));
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 16 * 8);
    assert!(
        m.net_stats().combines.get() > 0,
        "hot counter combines in 4x4 switches too"
    );
}

#[test]
fn trace_records_the_story_of_a_run() {
    use crate::trace::TraceEvent;
    let p = Program::new(
        body(vec![
            Op::FetchAdd {
                addr: Expr::Const(0),
                delta: Expr::Const(1),
                dst: Some(0),
            },
            Op::Barrier,
            Op::Halt,
        ]),
        vec![],
    );
    let mut m = MachineBuilder::new(4).build_spmd(&p);
    m.enable_trace(1024);
    assert!(m.run().completed);
    let issues = m
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Issue { .. }))
        .count();
    let replies = m
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Reply { .. }))
        .count();
    let halts = m
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Halt { .. }))
        .count();
    let releases = m
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::BarrierRelease { .. }))
        .count();
    assert_eq!(issues, 8, "4 fetch-adds + 4 barrier arrivals");
    assert_eq!(replies, 8);
    assert_eq!(halts, 4);
    assert_eq!(releases, 1);
    // Events are recorded in nondecreasing cycle order.
    let cycles: Vec<_> = m.trace().iter().map(TraceEvent::cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(m.trace().dropped(), 0);
}

// ---- fault injection & resilience ----

#[test]
fn dead_mm_at_boot_machine_counts_exactly() {
    // The counter word's healthy home may be the dead module; the
    // re-hash sends every access to the adoptive module instead and
    // the run stays exact.
    for dead in 0..8usize {
        let mut m = MachineBuilder::new(8)
            .faults(FaultPlan::none().dead_mm(MmId(dead)))
            .build_spmd(&counter_program(6));
        assert!(m.run().completed, "dead MM {dead} must not wedge the run");
        assert_eq!(m.read_shared(0), 48, "dead MM {dead}");
    }
}

#[test]
fn dead_copy_fails_over_and_counts_exactly() {
    // d = 2 with one copy fully dead: every injection is refused by
    // the dead copy and carried by the survivor.
    let mut m = MachineBuilder::new(8)
        .network(2)
        .faults(FaultPlan::none().dead_copy(0))
        .build_spmd(&counter_program(8));
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 64);
    let f = m.fault_summary();
    assert!(f.failovers > 0, "survivor must pick up refused requests");
    assert_eq!(f.refusals, f.failovers, "every refusal failed over");
}

#[test]
fn lossy_links_with_retry_stay_exactly_once() {
    // 10% of injections are lost on the link. Each loss is handed back to
    // its PE and sent again, once: nothing is answered twice.
    let mut m = MachineBuilder::new(8)
        .faults(FaultPlan::none().seed(7).link_loss(0.10))
        .max_cycles(2_000_000)
        .build_spmd(&counter_program(10));
    assert!(m.run().completed, "every loss must be recovered");
    assert_eq!(m.read_shared(0), 80, "applied exactly once despite loss");
    let f = m.fault_summary();
    assert!(f.dropped > 0, "losses must actually occur at 10%");
    assert_eq!(f.retries, f.dropped, "each loss is sent again once");
    assert_eq!(f.duplicate_replies, 0, "{f:?}");
}

fn fabric(m: &Machine) -> &Fabric {
    match &m.backend {
        BackendImpl::Network(fabric) => fabric,
        BackendImpl::Ideal { .. } => panic!("network backend expected"),
    }
}

#[test]
fn long_lossy_run_keeps_the_copy_map_bounded() {
    // A hot spot under link loss, with a module dying mid-run: requests
    // are lost on links and refused by the dead module. None of them may
    // leave a record behind: each request is one entry of its PNI's ring,
    // and a PE holds at most its fetch-and-add and its store in flight.
    let hasher = AddressHasher::new(16, TranslationMode::Hashed);
    let counter = hasher.translate(0).mm;
    let victim = (100..116)
        .map(|w| hasher.translate(w).mm)
        .find(|&mm| mm != counter);
    let victim = victim.expect("a store word off the counter's module");
    let plan = FaultPlan::none()
        .seed(0x10_55)
        .link_loss(0.08)
        .schedule(250, Fault::KillMm { mm: victim });
    // Each PE adds to the counter and stores to a word of its own.
    let p = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(40),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: None,
                    },
                    Op::Store {
                        addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                        value: Expr::Reg(1),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let mut m = MachineBuilder::new(16)
        .faults(plan)
        .max_cycles(4_000_000)
        .build_spmd(&p);
    loop {
        let done = m.run_for(200).completed;
        let entries = m.outstanding.len();
        assert!(entries <= 2 * 16, "{entries} requests recorded");
        if done {
            break;
        }
    }
    assert_eq!(m.read_shared(0), 16 * 40, "exactly once");
    let f = m.fault_summary();
    assert!(f.dropped > 0 && f.dead_discards > 0, "{f:?}");
    assert_eq!(f.duplicate_replies, 0, "{f:?}");
    assert!(
        m.outstanding.is_empty(),
        "nothing in flight, nothing recorded"
    );
    assert!(m.shards.iter().all(|s| s.pni.outstanding() == 0));
}

#[test]
fn fault_free_hot_spot_carries_no_retry_bookkeeping() {
    // Cut mid-slice with combined requests in flight: every message
    // travels copy 0, and no fault counter has moved.
    let mut m = MachineBuilder::new(64).build_spmd(&counter_program(8));
    assert!(!m.run_for(40).completed);
    let f = fabric(&m);
    assert!(f.requests().count() > 0 && f.net_stats().combines.get() > 0);
    let queued = m.shards.iter().flat_map(|s| m.outbound.iter(s.outgoing));
    assert!((f.requests().chain(queued)).all(|msg| msg.copy == 0));
    assert!(!m.fault_summary().any());
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 64 * 8);
    assert!(m.outstanding.is_empty());
}

/// Each round every PE takes a ticket, `r3 = F&A(0, 1)`, and stores
/// `r3 + plus` to word `1000 + rounds · PE + round`.
fn ticket_rounds(rounds: i64, plus: i64) -> Program {
    let slot = Expr::add(
        Expr::Const(1000),
        Expr::add(Expr::mul(Expr::PeIndex, rounds), Expr::Reg(1)),
    );
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: Some(3),
                    },
                    Op::Store {
                        addr: slot,
                        value: Expr::add(Expr::Reg(3), Expr::Const(plus)),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// The values [`ticket_rounds`] wrote on an `pes`-PE machine, sorted.
fn tickets(m: &Machine, pes: usize, rounds: usize) -> Vec<Value> {
    let mut got: Vec<Value> = (0..pes * rounds)
        .map(|slot| m.read_shared(1000 + slot))
        .collect();
    got.sort_unstable();
    got
}

#[test]
fn retries_answered_alongside_their_originals_deliver_once() {
    // The serialization principle under loss: every fetch-and-add on the
    // hot word gets exactly one ticket, so the 64 tickets are a
    // permutation of 0..64. Requests are lost on the links, and a module
    // that holds ticket slots, not the hot word, dies while stores are in
    // flight to it. Each loss is reported and the request sent again, and
    // only then, so no request is ever answered twice, even where it
    // combines with others: two copies of one request in flight, one of
    // them combined, would repeat tickets.
    const KILL_AT: Cycle = 24;
    let (pes, rounds) = (16, 4);
    let hasher = AddressHasher::new(pes, TranslationMode::Hashed);
    let counter = hasher.translate(0).mm;
    let victim = (1000..1000 + pes * rounds as usize)
        .map(|slot| hasher.translate(slot).mm)
        .find(|&mm| mm != counter)
        .expect("a ticket slot off the hot word's module");
    let plan = FaultPlan::none()
        .seed(0x5EED)
        .link_loss(0.1)
        .schedule(KILL_AT, Fault::KillMm { mm: victim });
    let mut m = MachineBuilder::new(pes)
        .network(2)
        .faults(plan)
        .max_cycles(1_000_000)
        .build_spmd(&ticket_rounds(rounds, 0));
    assert!(!m.run_for(KILL_AT).completed);
    // Stores are in flight, but none has reached a module yet: the dying
    // one refuses those sent to it, and loses no ticket.
    assert!(fabric(&m)
        .banks()
        .iter()
        .all(|b| b.stats().stores.get() == 0));
    assert!(m.run().completed);
    let total = pes * rounds as usize;
    let all: Vec<Value> = (0..total as Value).collect();
    assert_eq!(
        tickets(&m, pes, rounds as usize),
        all,
        "a permutation of 0..{total}"
    );
    assert_eq!(m.read_shared(0), total as Value);
    let f = m.fault_summary();
    assert!(f.dropped > 0 && f.dead_discards > 0, "{f:?}");
    assert_eq!(f.retries, f.dropped + f.dead_discards, "{f:?}");
    assert_eq!(f.duplicate_replies, 0, "{f:?}");
    assert!(m.outstanding.is_empty());
    assert!(m.shards.iter().all(|s| s.pni.outstanding() == 0));
}

#[test]
fn a_dying_counter_module_leaks_no_wait_buffer_slot() {
    // The hot word's module dies with combined requests queued at it and
    // decombined replies in its outbox. It answers each with a NACK, the
    // switches decombine every NACK into one per absorbed request, and so
    // every wait-buffer entry is freed and every request re-issued once.
    let (pes, rounds) = (64, 8);
    let total = pes * rounds as usize;
    let healthy = AddressHasher::new(pes, TranslationMode::Hashed);
    let counter = healthy.translate(0).mm;
    for at in [40, 80, 120] {
        let plan = FaultPlan::none().schedule(at, Fault::KillMm { mm: counter });
        let mut m = MachineBuilder::new(pes)
            .faults(plan)
            .max_cycles(1_000_000)
            .build_spmd(&ticket_rounds(rounds, 1));
        assert!(m.run().completed, "kill at {at}");
        let s = m.net_stats();
        assert!(s.combines.get() > 0, "kill at {at}");
        assert_eq!(
            s.combines.get(),
            s.decombines.get(),
            "kill at {at}: wait slots"
        );
        let f = m.fault_summary();
        assert!(f.dead_discards > 0 && f.retries > 0, "kill at {at}: {f:?}");
        assert_eq!(f.duplicate_replies, 0, "kill at {at}: {f:?}");
        // The counter restarts from zero on its adoptive module, which
        // applied `fresh` of the tickets; the dead module handed out the
        // other `total − fresh`. Each module's tickets are distinct and
        // dense, so a value may be written at most once for each module
        // that reached it. (A NACK decombined as a value would hand out a
        // ticket neither module applied.) A slot reads 0 only if its
        // store was lost with the dead module's words.
        let fresh = m.read_shared(0);
        assert!(0 < fresh && fresh < total as Value, "kill at {at}");
        let old = total as Value - fresh;
        let mut seen = vec![0; total];
        for slot in 1000..1000 + total {
            match m.read_shared(slot) {
                0 => assert_eq!(healthy.translate(slot).mm, counter, "slot {slot}"),
                t => seen[(t - 1) as usize] += 1,
            }
        }
        for (t, &times) in seen.iter().enumerate() {
            let owed = usize::from((t as Value) < old) + usize::from((t as Value) < fresh);
            assert!(
                times <= owed,
                "kill at {at}: ticket {t} written {times} times"
            );
        }
    }
}

#[test]
fn scheduled_copy_death_mid_run_is_survivable() {
    let mut m = MachineBuilder::new(8)
        .network(2)
        .faults(FaultPlan::none().schedule(50, Fault::KillCopy { copy: 1 }))
        .build_spmd(&counter_program(12));
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 96);
    assert!(m.fault_summary().refusals > 0, "the dead copy refused work");
}

#[test]
fn scheduled_mm_death_mid_run_rehashes_and_recovers() {
    // Distinct-slot stores: slots written before the death and living
    // on surviving modules keep their values; requests in flight to
    // the dying module are refused with NACKs and re-issued.
    let p = Program::new(
        body(vec![
            Op::Store {
                addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                value: Expr::Const(7),
            },
            Op::Fence,
            Op::Barrier,
            Op::Store {
                addr: Expr::add(Expr::Const(200), Expr::PeIndex),
                value: Expr::Const(9),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let healthy = AddressHasher::new(8, TranslationMode::Hashed);
    let dying = MmId(3);
    let mut m = MachineBuilder::new(8)
        .faults(FaultPlan::none().schedule(60, Fault::KillMm { mm: dying }))
        .build_spmd(&p);
    let out = m.run();
    assert!(out.completed, "machine must drain after the module dies");
    assert!(m.fault_summary().retries > 0 || m.fault_summary().dead_discards == 0);
    // Post-barrier stores all happened under the degraded hash.
    for pe in 0..8 {
        assert_eq!(m.read_shared(200 + pe), 9, "post-death store {pe}");
    }
    // Pre-death stores survive unless their word lived on the victim.
    for pe in 0..8 {
        if healthy.translate(100 + pe).mm != dying {
            assert_eq!(m.read_shared(100 + pe), 7, "surviving store {pe}");
        }
    }
}

#[test]
fn healthy_plan_reports_zero_fault_activity() {
    let mut m = MachineBuilder::new(8).build_spmd(&counter_program(5));
    assert!(m.run().completed);
    assert!(!m.fault_summary().any());
}

// ---- §3.5 hardware multiprogramming ----

#[test]
fn multiprogramming_runs_k_contexts_per_pe() {
    // 4 physical PEs x 2 contexts = 8 virtual PEs; each writes its own
    // virtual id into a slot.
    let p = Program::new(
        body(vec![
            Op::Store {
                addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                value: Expr::add(Expr::PeIndex, 1),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let mut m = MachineBuilder::new(4).multiprogramming(2).build_spmd(&p);
    assert_eq!(m.virtual_pes(), 8);
    assert!(m.run().completed);
    for vid in 0..8 {
        assert_eq!(m.read_shared(100 + vid), vid as Value + 1);
    }
}

#[test]
fn multiprogramming_counts_exactly() {
    let mut m = MachineBuilder::new(4)
        .multiprogramming(4)
        .build_spmd(&counter_program(10));
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 16 * 10, "16 virtual PEs x 10");
}

#[test]
fn multiprogramming_barriers_span_all_contexts() {
    let p = Program::new(
        body(vec![
            Op::FetchAdd {
                addr: Expr::Const(0),
                delta: Expr::Const(1),
                dst: None,
            },
            Op::Barrier,
            // After the barrier every context must see all arrivals.
            Op::Load {
                addr: Expr::Const(0),
                dst: 0,
            },
            Op::Store {
                addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                value: Expr::Reg(0),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let mut m = MachineBuilder::new(4).multiprogramming(2).build_spmd(&p);
    assert!(m.run().completed);
    for vid in 0..8 {
        assert_eq!(m.read_shared(100 + vid), 8, "context {vid}");
    }
}

// ---- cycle engine: sweep-mode parity & idle fast-forward ----

fn digest(m: &Machine) -> String {
    crate::report::MachineReport::from_machine(m).parity_string()
}

#[test]
fn dense_sweep_is_bit_identical_to_sparse() {
    let run = |mode: SweepMode| {
        let mut m = MachineBuilder::new(8)
            .network(2)
            .multiprogramming(2)
            .build_spmd(&counter_program(6));
        m.set_sweep_mode(mode);
        m.enable_trace(4096);
        assert!(m.run().completed);
        let events: Vec<TraceEvent> = m.trace().iter().copied().collect();
        (digest(&m), events, m.read_shared(0))
    };
    assert_eq!(
        run(SweepMode::Sparse),
        run(SweepMode::Dense),
        "sweep mode changed the simulation"
    );
}

#[test]
fn fast_forward_is_bit_identical_on_ideal_backend() {
    // A huge round-trip latency leaves long provably idle gaps while
    // every context sits in WaitReg on a locked destination; the
    // fast-forward must jump them without disturbing any statistic.
    let p = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(3),
                body: body(vec![
                    Op::Load {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 64), Expr::Reg(1)),
                        dst: 0,
                    },
                    // Immediate use: the context parks until the reply.
                    Op::Set {
                        reg: 2,
                        value: Expr::add(Expr::Reg(0), Expr::Reg(2)),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let run = |ff: bool| {
        let mut m = MachineBuilder::new(4)
            .ideal(500)
            .fast_forward(ff)
            .build_spmd(&p);
        assert!(m.run().completed);
        (digest(&m), m.fast_forwarded_cycles())
    };
    let (slow, skipped_off) = run(false);
    let (fast, skipped_on) = run(true);
    assert_eq!(slow, fast, "fast-forward changed the simulation");
    assert_eq!(skipped_off, 0);
    assert!(
        skipped_on > 1_000,
        "500-cycle latencies must leave big skippable gaps, got {skipped_on}"
    );
}

#[test]
fn fast_forward_is_bit_identical_under_lossy_retries() {
    // A lost request is handed back to its PE at once: while it is
    // outstanding the machine is never drained, so no jump may skip the
    // cycle it is offered again.
    let run = |ff: bool| {
        let mut m = MachineBuilder::new(8)
            .faults(FaultPlan::none().seed(11).link_loss(0.15))
            .fast_forward(ff)
            .max_cycles(2_000_000)
            .build_spmd(&counter_program(6));
        assert!(m.run().completed);
        assert_eq!(m.read_shared(0), 48);
        digest(&m)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn fast_forward_deadlock_still_burns_to_the_budget() {
    let p = Program::new(body(vec![Op::Barrier, Op::Halt]), vec![]);
    let mut programs = vec![Program::empty(); 4];
    programs[0] = p;
    let mut m = MachineBuilder::new(4).max_cycles(5_000).build(programs);
    let out = m.run();
    assert!(!out.completed);
    assert_eq!(out.cycles, 5_000);
    assert!(
        m.fast_forwarded_cycles() > 4_000,
        "the deadlocked tail should be skipped in one jump"
    );
}

#[test]
fn wait_until_wakes_on_time_and_fast_forwards_the_gap() {
    // Every PE sleeps until a staggered absolute cycle, then stamps
    // the clock it woke at into its own slot. The wake must be
    // punctual (at/after the target, and not far after: the next
    // fetch happens on the wake cycle), and the idle gaps must be
    // fast-forwardable without disturbing the parity digest.
    let p = Program::new(
        body(vec![
            Op::WaitUntil {
                cycle: Expr::add(Expr::mul(Expr::PeIndex, 1000), 2000),
            },
            Op::Store {
                addr: Expr::add(Expr::Const(300), Expr::PeIndex),
                value: Expr::Clock,
            },
            Op::Halt,
        ]),
        vec![],
    );
    let run = |ff: bool| {
        let mut m = MachineBuilder::new(4)
            .ideal(2)
            .fast_forward(ff)
            .build_spmd(&p);
        assert!(m.run().completed);
        for pe in 0..4i64 {
            let target = pe * 1000 + 2000;
            let woke = m.read_shared((300 + pe) as usize);
            assert!(woke >= target, "PE {pe} woke at {woke}, before {target}");
            assert!(woke < target + 16, "PE {pe} overslept: {woke} vs {target}");
        }
        (digest(&m), m.fast_forwarded_cycles())
    };
    let (slow, skipped_off) = run(false);
    let (fast, skipped_on) = run(true);
    assert_eq!(slow, fast, "fast-forward changed a timed-wait run");
    assert_eq!(skipped_off, 0);
    assert!(
        skipped_on > 1_000,
        "staggered sleeps must leave skippable gaps, got {skipped_on}"
    );
}

#[test]
fn relative_wait_matches_across_backends() {
    // WaitUntil(Clock + k) from inside a loop: a fixed-rate pacing
    // pattern. Both backends must complete and agree that each
    // iteration lands at least k cycles after the previous stamp.
    let p = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(4),
                body: body(vec![
                    Op::WaitUntil {
                        cycle: Expr::add(Expr::Clock, 100),
                    },
                    Op::Store {
                        addr: Expr::add(
                            Expr::add(Expr::Const(400), Expr::mul(Expr::PeIndex, 8)),
                            Expr::Reg(1),
                        ),
                        value: Expr::Clock,
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    for build in [
        MachineBuilder::new(2).ideal(2),
        MachineBuilder::new(2).network(1),
    ] {
        let mut m = build.build_spmd(&p);
        assert!(m.run().completed);
        for pe in 0..2 {
            let mut prev = 0;
            for i in 0..4 {
                let stamp = m.read_shared(400 + pe * 8 + i);
                assert!(
                    stamp >= prev + 100,
                    "PE {pe} iteration {i} stamped {stamp}, under {prev} + 100"
                );
                prev = stamp;
            }
        }
    }
}

#[test]
fn multiprogramming_hides_memory_latency() {
    // A latency-bound pointer-chase-like program: load, use, repeat.
    // One context stalls on every use; two contexts interleave and
    // lower the PE's idle fraction.
    let p = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(60),
                body: body(vec![
                    Op::Load {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 1024), Expr::Reg(1)),
                        dst: 0,
                    },
                    // Immediate use: no prefetch slack.
                    Op::Set {
                        reg: 2,
                        value: Expr::add(Expr::Reg(0), Expr::Reg(2)),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let idle_frac = |contexts: usize| {
        let mut m = MachineBuilder::new(16)
            .multiprogramming(contexts)
            .build_spmd(&p);
        assert!(m.run().completed);
        let merged = m.merged_pe_stats();
        merged.idle_cycles.get() as f64 / (16 * m.now()) as f64
    };
    let single = idle_frac(1);
    let dual = idle_frac(2);
    assert!(
        dual < 0.8 * single,
        "2-fold multiprogramming must hide latency: idle {single:.3} -> {dual:.3}"
    );
}

/// A machine holds one shard per PE and one context record per virtual
/// PE: a field added to either must not silently re-inflate the per-PE
/// cost (`tests/footprint.rs` bounds the total).
#[test]
fn per_pe_records_stay_small() {
    use std::mem::size_of;
    assert!(
        size_of::<PeShard>() <= 112,
        "shard {}",
        size_of::<PeShard>()
    );
    // The PNI's own guard is `pni::tests::a_pni_stays_small`.
    // Interpreter record 160, state 32, counters and tally 80.
    assert!(
        size_of::<Context>() <= 272,
        "context {}",
        size_of::<Context>()
    );
}

#[test]
fn every_pni_shares_the_machine_translator() {
    let plan = FaultPlan::none().schedule(5, Fault::KillMm { mm: MmId(2) });
    let mut m = MachineBuilder::new(16)
        .faults(plan)
        .build_spmd(&counter_program(4));
    // The PNIs hold no translator: the machine's is the only one.
    assert_eq!(Arc::strong_count(&m.hasher), 1, "the machine alone");
    let fork = m.fork(EngineTuning::default());
    assert!(Arc::ptr_eq(&fork.hasher, &m.hasher), "a fork shares it");
    assert_eq!(Arc::strong_count(&m.hasher), 2);
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 64);
    assert!(
        m.hasher.heap_bytes() > 0,
        "the module died: a new translator"
    );
    assert_eq!(
        Arc::strong_count(&m.hasher),
        1,
        "built once for the machine"
    );
    assert_eq!(Arc::strong_count(&fork.hasher), 1, "the fork keeps the old");
    assert_eq!(fork.hasher.heap_bytes(), 0);
}

// ---- the wake calendar: a context asleep on the clock parks its shard ----

/// Every PE sleeps to cycle `base + step · PE`, then stores the clock it
/// woke at into word `300 + PE`.
fn staggered_sleep(base: i64, step: i64) -> Program {
    Program::new(
        body(vec![
            Op::WaitUntil {
                cycle: Expr::add(Expr::mul(Expr::PeIndex, step), base),
            },
            Op::Store {
                addr: Expr::add(Expr::Const(300), Expr::PeIndex),
                value: Expr::Clock,
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// `rounds` × { load a private word and use it at once (a register
/// wait), sleep `nap + PE` cycles, fetch-and-add word 0 and store the
/// ticket to a private slot }.
fn nap_program(rounds: i64, nap: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![
                    Op::Load {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 16), Expr::Reg(1)),
                        dst: 0,
                    },
                    Op::Set {
                        reg: 2,
                        value: Expr::add(Expr::Reg(2), Expr::Reg(0)),
                    },
                    Op::WaitUntil {
                        cycle: Expr::add(Expr::Clock, Expr::add(Expr::PeIndex, nap)),
                    },
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: Some(3),
                    },
                    Op::Store {
                        addr: Expr::add(
                            Expr::add(Expr::Const(1024), Expr::mul(Expr::PeIndex, 16)),
                            Expr::Reg(1),
                        ),
                        value: Expr::Reg(3),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// The cycle of shard `i`'s live calendar entry — the one its current
/// park filed — if it has one.
fn live_wake(m: &Machine, i: usize) -> Option<Cycle> {
    let since = m.shards[i].parked_since?;
    (m.wakes.iter())
        .find(|Reverse((_, shard, filed))| *shard as usize == i && *filed == since)
        .map(|Reverse((at, ..))| *at)
}

/// Every shard's live calendar entry, by shard.
fn live_wakes(m: &Machine) -> Vec<Option<Cycle>> {
    (0..m.pes()).map(|i| live_wake(m, i)).collect()
}

fn memory_image(m: &Machine) -> Vec<Value> {
    (0..2048).map(|word| m.read_shared(word)).collect()
}

#[test]
fn a_sleeper_leaves_runnable_and_returns_at_its_wake_cycle() {
    let mut m = MachineBuilder::new(4)
        .ideal(2)
        .build_spmd(&staggered_sleep(100, 40));
    m.enable_trace(64);
    let mut parked_from = [None; 4];
    while m.now() < 300 {
        m.step();
        // Cycles `..now` have run.
        let now = m.now();
        for (pe, parked) in parked_from.iter_mut().enumerate() {
            let wake = 100 + 40 * pe as Cycle;
            if now <= wake && !m.runnable.contains(pe) {
                // One park for the whole sleep: never woken before its cycle.
                let since = *parked.get_or_insert(now);
                assert_eq!(m.shards[pe].parked_since, Some(since), "PE {pe} at {now}");
                assert_eq!(live_wake(&m, pe), Some(wake), "PE {pe} at {now}: filed");
            } else if now <= wake {
                assert!(parked.is_none(), "PE {pe} back in the ready set at {now}");
            } else if now == wake + 1 {
                assert!(m.runnable.contains(pe), "PE {pe} ran its wake cycle");
            }
        }
    }
    // The WaitUntil itself takes one instruction slot; then the PE parks.
    for (pe, parked) in parked_from.iter().enumerate() {
        assert!(
            parked.is_some_and(|at| at <= 4),
            "PE {pe} parked at {parked:?}"
        );
    }
    // Each store issued in its PE's wake cycle, and stored that clock.
    let issued: Vec<(usize, Cycle)> = (m.trace().iter())
        .filter_map(|e| match *e {
            TraceEvent::Issue { cycle, pe, .. } => Some((pe.0, cycle)),
            _ => None,
        })
        .collect();
    assert!(m.run().completed);
    for pe in 0..4 {
        let wake = 100 + 40 * pe as Cycle;
        assert!(issued.contains(&(pe, wake)), "PE {pe}: {issued:?}");
        assert_eq!(m.read_shared(300 + pe), wake as Value);
    }
    assert!(m.wakes.is_empty(), "every entry popped by its wake cycle");
}

#[test]
fn idle_and_barrier_waits_add_up_at_every_cut_across_sleeps() {
    // One cycle per instruction and an ideal backend: each cycle before a
    // context halts either executes one of its instructions or is idle,
    // and its barrier waits are the cycles after its barrier request
    // issued up to the release. `pe_stats()` adds a parked shard's
    // unstamped cycles on the fly; read at every cut, it must say so.
    let p = Program::new(
        body(vec![
            Op::WaitUntil {
                cycle: Expr::add(Expr::mul(Expr::PeIndex, 25), 40),
            },
            Op::Barrier,
            Op::WaitUntil {
                cycle: Expr::add(Expr::Clock, Expr::add(Expr::mul(Expr::PeIndex, 5), 30)),
            },
            Op::Store {
                addr: Expr::add(Expr::Const(500), Expr::PeIndex),
                value: Expr::Clock,
            },
            Op::Halt,
        ]),
        vec![],
    );
    let one_cycle = TimeScale {
        cycles_per_instruction: 1,
        ..TimeScale::default()
    };
    for slice in [1, 7] {
        let mut m = MachineBuilder::new(8)
            .ideal(3)
            .time(one_cycle)
            .build_spmd(&p);
        m.enable_trace(1024);
        let mut cuts = 0;
        loop {
            let done = m.run_for(slice).completed;
            let now = m.now();
            cuts += 1;
            let events: Vec<TraceEvent> = m.trace().iter().copied().collect();
            let release = events.iter().find_map(|e| match *e {
                TraceEvent::BarrierRelease { cycle, .. } => Some(cycle),
                _ => None,
            });
            for (pe, s) in m.pe_stats().iter().enumerate() {
                let halted = events.iter().find_map(|e| match *e {
                    TraceEvent::Halt { cycle, pe: who } if who.0 == pe => Some(cycle),
                    _ => None,
                });
                let arrived = events.iter().find_map(|e| match *e {
                    TraceEvent::Issue {
                        cycle,
                        pe: who,
                        vaddr,
                        ..
                    } if who.0 == pe && vaddr >= BARRIER_VADDR_BASE => Some(cycle),
                    _ => None,
                });
                let alive = halted.unwrap_or(now);
                let idle = alive - s.instructions.get();
                let barrier = arrived.map_or(0, |at| {
                    (release.unwrap_or(now).min(now)).saturating_sub(at + 1)
                });
                let at = format!("slice {slice}, cut {now}, PE {pe}");
                assert_eq!(s.idle_cycles.get(), idle, "{at}: idle");
                assert_eq!(s.barrier_wait_cycles.get(), barrier, "{at}: barrier");
            }
            if done {
                break;
            }
        }
        assert!(cuts > 20, "slice {slice}: {cuts} cuts");
    }
}

#[test]
fn a_fork_or_a_restore_taken_mid_sleep_finishes_like_the_donor() {
    let build = || {
        MachineBuilder::new(16)
            .multiprogramming(2)
            .build_spmd(&nap_program(5, 20))
    };
    let mut whole = build();
    assert!(whole.run().completed);
    let want = (digest(&whole), memory_image(&whole));
    let mut donor = build();
    while donor.now() < 40 || live_wakes(&donor).iter().all(Option::is_none) {
        assert!(!donor.run_for(1).completed, "no cut inside a sleep");
    }
    let fork = donor.fork(EngineTuning::default());
    let restored = Machine::restore(&donor.snapshot()).expect("the frame restores");
    assert_eq!(
        live_wakes(&fork),
        live_wakes(&donor),
        "a fork keeps the calendar"
    );
    assert_eq!(
        live_wakes(&restored),
        live_wakes(&donor),
        "a replay rebuilds the calendar"
    );
    for (label, mut m) in [("donor", donor), ("fork", fork), ("restore", restored)] {
        assert!(m.run().completed, "{label}");
        assert_eq!((digest(&m), memory_image(&m)), want, "{label}");
    }
}

#[test]
fn early_wakes_leave_one_live_calendar_entry_per_shard() {
    // Context 0 of every PE sleeps long; context 1 chases loads, and each
    // reply wakes the shard early, leaving the sleeper's entry stale.
    let sleeper = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(3),
                body: body(vec![Op::WaitUntil {
                    cycle: Expr::add(Expr::Clock, 150),
                }]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let chaser = Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(40),
                body: body(vec![
                    Op::Load {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 64), Expr::Reg(1)),
                        dst: 0,
                    },
                    Op::Set {
                        reg: 2,
                        value: Expr::add(Expr::Reg(2), Expr::Reg(0)),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let programs = (0..8)
        .flat_map(|_| [sleeper.clone(), chaser.clone()])
        .collect();
    let mut m = MachineBuilder::new(8).multiprogramming(2).build(programs);
    let mut stale = 0;
    loop {
        let done = m.run_for(1).completed;
        let mut live = [0; 8];
        for &Reverse((_, i, since)) in m.wakes.iter() {
            if m.shards[i as usize].parked_since == Some(since) {
                live[i as usize] += 1;
            } else {
                stale += 1;
            }
        }
        assert!(live.iter().all(|&n| n <= 1), "cycle {}: {live:?}", m.now());
        if done {
            break;
        }
    }
    assert!(stale > 0, "replies never woke a sleeping shard early");
    assert!(m.wakes.is_empty(), "every entry popped by its wake cycle");
}

#[test]
fn a_fail_stopped_sleeper_leaves_the_calendar() {
    // Both forward ports of one entry switch die mid-sleep: its two PEs
    // lose every route and are fail-stopped; their calendar entries go
    // with them, while the survivors sleep on to their wake cycle.
    let kill = |port| Fault::KillSwitchPort {
        copy: 0,
        stage: 0,
        switch: 3,
        port,
    };
    let plan = FaultPlan::none()
        .schedule(50, kill(0))
        .schedule(50, kill(1));
    let mut m = MachineBuilder::new(8)
        .faults(plan)
        .build_spmd(&staggered_sleep(200, 0));
    assert!(!m.run_for(60).completed);
    let dead: Vec<usize> = m.dead_pes().iter().map(|pe| pe.0).collect();
    assert_eq!(dead.len(), 2, "{dead:?}");
    for Reverse((_, i, _)) in m.wakes.iter() {
        assert!(!dead.contains(&(*i as usize)), "entry for dead PE {i}");
    }
    for (pe, wake) in live_wakes(&m).into_iter().enumerate() {
        let want = (!dead.contains(&pe)).then_some(200);
        assert_eq!(wake, want, "PE {pe}");
    }
    assert!(m.run().completed);
    for pe in (0..8).filter(|pe| !dead.contains(pe)) {
        assert_eq!(m.read_shared(300 + pe), 200, "PE {pe}");
    }
}
