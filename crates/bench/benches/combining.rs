//! Micro-bench: hot-spot fetch-and-add traffic with combining on vs.
//! off (experiment E6's engine) — wall-clock per simulated window, plus a
//! whole-machine hot-spot program on both backends.

use std::hint::black_box;
use ultra_bench::microbench::Group;
use ultra_bench::{run_open_loop, OpenLoopConfig};
use ultra_net::config::{NetConfig, SwitchPolicy};
use ultra_pe::traffic::HotspotTraffic;
use ultra_sim::{MemAddr, MmId};
use ultracomputer::machine::MachineBuilder;
use ultracomputer::program::{body, Expr, Op, Program};

fn bench_hotspot_policies() {
    let mut group = Group::new("hotspot_window");
    group.sample_size(10);
    for (policy, name) in [
        (SwitchPolicy::QueuedCombining, "combining"),
        (SwitchPolicy::QueuedNoCombine, "no_combine"),
    ] {
        group.bench(&format!("{name}/64"), || {
            let cfg = OpenLoopConfig {
                net: NetConfig {
                    policy,
                    ..NetConfig::small(64)
                },
                copies: 1,
                mm_service: 2,
                warmup: 200,
                measure: 1_000,
            };
            let mut traffic = HotspotTraffic::new(64, 0.08, 0.3, MemAddr::new(MmId(0), 0), 5);
            black_box(run_open_loop(cfg, &mut traffic));
        });
    }
}

fn hot_counter_program(rounds: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![Op::FetchAdd {
                    addr: Expr::Const(0),
                    delta: Expr::Const(1),
                    dst: Some(0),
                }]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

fn bench_machine_hot_counter() {
    let mut group = Group::new("machine_hot_counter");
    group.sample_size(10);
    let prog = hot_counter_program(50);
    for (name, copies) in [("net_d1", 1usize), ("net_d2", 2)] {
        group.bench(name, || {
            let mut m = MachineBuilder::new(32).network(copies).build_spmd(&prog);
            let out = m.run();
            assert!(out.completed);
            black_box(m.read_shared(0));
        });
    }
    group.bench("ideal", || {
        let mut m = MachineBuilder::new(32).ideal(2).build_spmd(&prog);
        let out = m.run();
        assert!(out.completed);
        black_box(m.read_shared(0));
    });
}

fn main() {
    bench_hotspot_policies();
    bench_machine_hot_counter();
}
