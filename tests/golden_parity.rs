//! Golden parity digests: the modelled machine, pinned against constants.
//!
//! `tests/engine_parity.rs` compares the engines with *each other*, so a
//! change that alters the modelled machine consistently — a different
//! queue order, a combine taken one cycle later — passes it. The digests
//! below were recorded once (at the commit before the fabric moved to
//! slab + port-column storage) and must never move under a refactor:
//!
//! * `cycles` — the run's completion cycle;
//! * `parity` — FNV-1a of [`MachineReport::parity_string`] (cycles, merged
//!   PE statistics, network statistics, fault summary);
//! * `memory` — FNV-1a over the first 2048 shared words;
//! * `snapshot` — FNV-1a of a mid-run [`Machine::snapshot`] with traffic in
//!   the fabric, minus the crate-version header and the checksum trailer
//!   (re-recorded for snapshot format v3, whose frame holds the machine's
//!   recipe, cycle and parity digest rather than its live state), so the
//!   frame *bytes* are pinned too.
//!
//! A deliberate change to the modelled machine re-records them: run with
//! `GOLDEN_PRINT=1 cargo test -p ultra-integration-tests --test
//! golden_parity -- --nocapture` and paste the printed rows.

use ultra_faults::{FaultPlan, RetryPolicy};
use ultra_net::config::{NetConfig, SwitchPolicy};
use ultra_sim::wire::fnv1a;
use ultracomputer::machine::Machine;
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::{MachineBuilder, MachineReport};

/// `rounds` × { fetch-and-add word 0 → store the ticket to a private slot }.
fn ticket_program(rounds: i64, delta: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(delta),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: Expr::add(
                            Expr::add(Expr::Const(64), Expr::mul(Expr::PeIndex, 16)),
                            Expr::Reg(1),
                        ),
                        value: Expr::Reg(0),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// `rounds` × { load a hashed address → compute → store another hashed
/// address }: uniform traffic in which nothing combines.
fn scatter_program(pes: usize, rounds: i64) -> Program {
    let region = Expr::Const(16 * pes as i64);
    let hashed = |mult: i64, index: Expr| {
        Expr::rem(
            Expr::hash(Expr::mul(Expr::PeIndex, mult), index),
            region.clone(),
        )
    };
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![
                    Op::Load {
                        addr: hashed(40_503, Expr::Reg(1)),
                        dst: 2,
                    },
                    Op::Compute(4),
                    Op::Store {
                        addr: hashed(65_599, Expr::add(Expr::Reg(1), 7)),
                        value: Expr::Reg(1),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// Loads and stores aimed at few words, so Load/Store/F&A meet in the
/// switches and the heterogeneous combining rules fire.
fn mixed_hot_program(rounds: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![
                    Op::Load {
                        addr: Expr::rem(Expr::Reg(1), 3),
                        dst: 2,
                    },
                    Op::FetchAdd {
                        addr: Expr::rem(Expr::add(Expr::Reg(1), Expr::PeIndex), 3),
                        delta: Expr::Const(1),
                        dst: Some(3),
                    },
                    Op::Store {
                        addr: Expr::rem(Expr::add(Expr::Reg(1), 1), 3),
                        value: Expr::PeIndex,
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    parity: u64,
    memory: u64,
    snapshot: u64,
}

/// The snapshot minus its magic / format / crate-version header and its
/// checksum trailer (which covers the crate version), so a version bump
/// alone does not move the digest.
fn snapshot_body(bytes: &[u8]) -> &[u8] {
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    &bytes[20 + len..bytes.len() - 8]
}

fn memory_digest(m: &Machine) -> u64 {
    let mut image = Vec::with_capacity(2048 * 8);
    for word in 0..2048 {
        image.extend_from_slice(&m.read_shared(word).to_le_bytes());
    }
    fnv1a(&image)
}

/// Runs `cut` cycles, snapshots, then runs to completion.
fn observe(builder: MachineBuilder, program: &Program, cut: u64) -> Golden {
    let mut m = builder.build_spmd(program);
    let early = m.run_for(cut);
    assert!(!early.completed, "the cut must land mid-run");
    let snapshot = fnv1a(snapshot_body(&m.snapshot()));
    assert!(m.run().completed, "scenario must drain");
    Golden {
        cycles: m.now(),
        parity: fnv1a(MachineReport::from_machine(&m).parity_string().as_bytes()),
        memory: memory_digest(&m),
        snapshot,
    }
}

fn check(label: &str, got: &Golden, want: &Golden) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "{label}: Golden {{ cycles: {}, parity: {:#018x}, memory: {:#018x}, snapshot: {:#018x} }}",
            got.cycles, got.parity, got.memory, got.snapshot
        );
        return;
    }
    assert_eq!(got, want, "{label}: the modelled machine changed");
}

#[test]
fn hot_spot_fetch_add() {
    let got = observe(MachineBuilder::new(64), &ticket_program(6, 3), 30);
    let want = Golden {
        cycles: 234,
        parity: 0xad53_bbc6_4098_48e7,
        memory: 0x0bf7_3301_b067_5cd0,
        snapshot: 0x5377_a41a_70dd_529a,
    };
    check("hot_spot_fetch_add", &got, &want);
}

#[test]
fn hashed_load_store() {
    let got = observe(MachineBuilder::new(64), &scatter_program(64, 10), 40);
    let want = Golden {
        cycles: 228,
        parity: 0xf536_e60f_59e6_45c3,
        memory: 0x7826_3321_07a0_022e,
        snapshot: 0x2619_16bb_0d47_d09b,
    };
    check("hashed_load_store", &got, &want);
}

#[test]
fn mixed_kinds_on_three_words() {
    let got = observe(MachineBuilder::new(32), &mixed_hot_program(6), 25);
    let want = Golden {
        cycles: 314,
        parity: 0x7073_5e9c_8f21_d3a2,
        memory: 0x5551_28f7_2926_ef4f,
        snapshot: 0x7460_f3c9_b4ce_5bd6,
    };
    check("mixed_kinds_on_three_words", &got, &want);
}

#[test]
fn lossy_links_with_retries() {
    let plan = FaultPlan::none()
        .seed(0x10_55)
        .link_loss(0.08)
        .retry(RetryPolicy::for_depth(4));
    let builder = MachineBuilder::new(16).faults(plan).max_cycles(4_000_000);
    let got = observe(builder, &ticket_program(8, 1), 30);
    let want = Golden {
        cycles: 2195,
        parity: 0x13ee_a538_885f_0bf9,
        memory: 0xec0f_aa34_eed1_3785,
        snapshot: 0xd105_775d_a5bf_397d,
    };
    check("lossy_links_with_retries", &got, &want);
}

#[test]
fn four_by_four_switches() {
    let builder = MachineBuilder::new(64).net(NetConfig::paper_section42_scaled(64));
    let got = observe(builder, &ticket_program(6, 2), 20);
    let want = Golden {
        cycles: 326,
        parity: 0x5b3e_adc3_a993_186b,
        memory: 0x41ff_2884_353c_eddc,
        snapshot: 0xd792_7a41_ebe6_bedf,
    };
    check("four_by_four_switches", &got, &want);
}

#[test]
fn two_network_copies() {
    let builder = MachineBuilder::new(32).network(2).multiprogramming(2);
    let got = observe(builder, &scatter_program(32, 8), 30);
    let want = Golden {
        cycles: 247,
        parity: 0x3674_93ad_0979_7148,
        memory: 0x5b13_91eb_319e_c084,
        snapshot: 0x30fe_ec04_f4ba_ab75,
    };
    check("two_network_copies", &got, &want);
}

#[test]
fn drop_on_conflict_policy() {
    let mut net = NetConfig::small(16);
    net.policy = SwitchPolicy::DropOnConflict;
    let got = observe(MachineBuilder::new(16).net(net), &ticket_program(4, 1), 20);
    let want = Golden {
        cycles: 250,
        parity: 0x7671_1598_ae35_9949,
        memory: 0x5244_b84a_3bd1_aa05,
        snapshot: 0x46e7_6a49_6ff9_347a,
    };
    check("drop_on_conflict_policy", &got, &want);
}

#[test]
fn tight_queues_and_wait_buffers() {
    // Three-packet request queues, bounded reply queues and two wait
    // entries per switch: backpressure, declined combines and reply-side
    // stalls all on one run.
    let mut net = NetConfig::small(32);
    net.request_queue_packets = 3;
    net.reply_queue_packets = 6;
    net.wait_entries = 2;
    let got = observe(MachineBuilder::new(32).net(net), &mixed_hot_program(5), 40);
    let want = Golden {
        cycles: 297,
        parity: 0x9e16_4845_0391_f484,
        memory: 0xc7ff_3383_c994_39f9,
        snapshot: 0x23c6_a7ff_bb58_92a3,
    };
    check("tight_queues_and_wait_buffers", &got, &want);
}
