//! Micro-bench: the cost of a single `Machine::step()`.
//!
//! Isolates the cycle engine's hot path — one machine cycle over the PE
//! shards, banks and network copies — from whole-run effects (program
//! completion, drain tails). `machine_step` steps an N = 256 machine
//! whose ticket traffic is in full flight, so the pooled buffers
//! (`NetworkEvents`, delivery staging) are warm and
//! the path is allocation-free. `merge_phase` steps a mostly-halted
//! N = 1024 machine (16 live shards, fast-forward off), so the row
//! prices the ready-set bookkeeping around the live work — the member
//! walks over runnable shards, busy banks and occupied switches — rather
//! than the PE work itself. `network_cycle` prices a fresh
//! `NetworkEvents` buffer per `OmegaNetwork::cycle_into` call against
//! one reused buffer, under identical hot-spot load.

use std::hint::black_box;
use ultra_bench::microbench::Group;
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgKind, PhiOp};
use ultra_net::omega::{NetworkEvents, OmegaNetwork};
use ultra_sim::{MemAddr, MmId, PeId};
use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Expr, Op, Program};

const N: usize = 256;
const STEPS_PER_SAMPLE: usize = 200;

fn ticket_program() -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(1_000_000),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 64), Expr::Reg(1)),
                        value: Expr::Reg(0),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// A machine mid-flight: warmed past the cold start so queues, pools and
/// scratch buffers hold their steady-state capacity.
fn warmed_machine() -> Machine {
    let mut m = MachineBuilder::new(N).build_spmd(&ticket_program());
    for _ in 0..500 {
        m.step();
    }
    m
}

fn bench_machine_step() {
    let mut group = Group::new("engine_step_n256");
    group.sample_size(10);
    let mut m = warmed_machine();
    group.bench("steady_state", || {
        for _ in 0..STEPS_PER_SAMPLE {
            m.step();
        }
        black_box(m.now());
    });
}

/// The merge phase in isolation: a mostly-halted N = 1024 machine where
/// only 16 shards do work each cycle. Per-step cost here is dominated by
/// the engine's bookkeeping around the live work — the walks over the
/// runnable shards, the busy banks and the occupied switches — not by the
/// work itself, so this row is the direct price of that bookkeeping at
/// low occupancy.
fn bench_merge_phase() {
    const IDLE_N: usize = 1024;
    const ACTIVE: usize = 16;
    let mut group = Group::new("merge_phase_n1024_16live");
    group.sample_size(10);
    let parked = Program::new(body(vec![Op::Halt]), vec![]);
    let programs: Vec<Program> = (0..IDLE_N)
        .map(|pe| {
            if pe < ACTIVE {
                ticket_program()
            } else {
                parked.clone()
            }
        })
        .collect();
    // Fast-forward off: the point is per-step merge cost, and idle-cycle
    // skipping would collapse the steps being measured.
    let mut m = MachineBuilder::new(IDLE_N)
        .fast_forward(false)
        .build(programs);
    for _ in 0..500 {
        m.step();
    }
    group.bench("steady_state", || {
        for _ in 0..STEPS_PER_SAMPLE {
            m.step();
        }
        black_box(m.now());
    });
}

/// Drives one network copy under hot-spot fetch-and-add load with the
/// given per-cycle advance function.
fn drive_network(mut advance: impl FnMut(&mut OmegaNetwork, u64)) {
    let mut net = OmegaNetwork::new(NetConfig::small(N));
    let hot = MemAddr::new(MmId(0), 0);
    for now in 0..STEPS_PER_SAMPLE as u64 {
        for pe in 0..N {
            let id = net.next_msg_id();
            let msg = Message::request(id, MsgKind::FetchPhi(PhiOp::Add), hot, 1, PeId(pe), now);
            let _ = net.try_inject_request(msg, now);
        }
        advance(&mut net, now);
    }
}

fn bench_network_cycle() {
    let mut group = Group::new("network_cycle_n256");
    group.sample_size(10);
    // A fresh event buffer per call: the price of not reusing one.
    group.bench("allocating_seed_path", || {
        drive_network(|net, now| {
            let mut events = NetworkEvents::default();
            net.cycle_into(now, &mut events);
            black_box(events);
        });
    });
    let mut events = NetworkEvents::default();
    group.bench("pooled", || {
        drive_network(|net, now| {
            net.cycle_into(now, &mut events);
            black_box(events.replies_at_pe.len());
        });
    });
}

fn main() {
    bench_machine_step();
    bench_merge_phase();
    bench_network_cycle();
}
