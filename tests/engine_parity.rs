//! Property tests for the cycle engine's speed knobs.
//!
//! The contract: the idle fast-forward and the network's sparse switch
//! sweep are pure *speed* knobs — a run is **bit-identical** to the
//! per-cycle, dense-sweep reference regardless of either. Identity is
//! checked through [`MachineReport::parity_string`] (cycles, merged PE
//! statistics, network statistics, fault summary), the full event trace,
//! and final shared memory, across random configurations, fault plans
//! and workloads, plus the named E8/E14 harness configurations.

use ultra_faults::{Fault, FaultPlan};
use ultra_net::config::{NetConfig, SweepMode};
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::{MmId, Value};
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::trace::TraceEvent;
use ultracomputer::{Machine, MachineBuilder, MachineReport};

/// Deterministic "forall": seeded cases, failures reported with the case
/// number so they replay exactly.
fn forall(cases: u64, label: &str, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(0x00E4_614E ^ (case.wrapping_mul(0x9e37_79b9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{label}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Every PE claims `iters` tickets from one hot word and marks each
/// ticket's slot (the serialization-principle workload).
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

/// Latency-bound load/use loop with a barrier — exercises register
/// locking, fences of idle time for the fast-forward, and barriers.
fn load_barrier_program(iters: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(iters),
                body: body(vec![
                    Op::Load {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 128), Expr::Reg(1)),
                        dst: 0,
                    },
                    Op::Set {
                        reg: 2,
                        value: Expr::add(Expr::Reg(0), Expr::Reg(2)),
                    },
                ]),
            },
            Op::Barrier,
            Op::FetchAdd {
                addr: Expr::Const(7),
                delta: Expr::Const(1),
                dst: None,
            },
            Op::Halt,
        ]),
        vec![],
    )
}

struct RunResult {
    parity: String,
    trace: Vec<TraceEvent>,
    hot_word: Value,
}

fn run(builder: MachineBuilder, program: &Program, trace: bool) -> RunResult {
    run_swept(builder, program, trace, SweepMode::Sparse)
}

fn run_swept(
    builder: MachineBuilder,
    program: &Program,
    trace: bool,
    sweep: SweepMode,
) -> RunResult {
    let mut m = builder.build_spmd(program);
    m.set_sweep_mode(sweep);
    if trace {
        m.enable_trace(1 << 14);
    }
    m.run();
    RunResult {
        parity: MachineReport::from_machine(&m).parity_string(),
        trace: m.trace().iter().copied().collect(),
        hot_word: m.read_shared(0),
    }
}

fn assert_engines_agree(make: impl Fn() -> MachineBuilder, program: &Program, label: &str) {
    let seq = run(make(), program, true);
    // Fast-forward off must match (it defaults to on above).
    let stepped = run(make().fast_forward(false), program, true);
    assert_eq!(
        seq.parity, stepped.parity,
        "{label}: fast-forward changed the simulation"
    );
    assert_eq!(
        seq.trace, stepped.trace,
        "{label}: fast-forward trace drift"
    );
    // The dense full-topology sweep must match the default sparse
    // active-set walk (runs above use the sparse default).
    let dense = run_swept(make(), program, true, SweepMode::Dense);
    assert_eq!(
        seq.parity, dense.parity,
        "{label}: sweep mode changed the simulation"
    );
    assert_eq!(seq.trace, dense.trace, "{label}: sweep-mode trace drift");
    assert_eq!(
        seq.hot_word, dense.hot_word,
        "{label}: sweep-mode memory drift"
    );
}

#[test]
fn engines_agree_on_random_configs_and_workloads() {
    forall(12, "engine parity across random machines", |rng| {
        let n = [4usize, 8, 16][rng.range_u64(0..3) as usize];
        let copies = 1 + rng.range_u64(0..2) as usize;
        let contexts = 1 + rng.range_u64(0..2) as usize;
        let iters = 2 + rng.range_u64(0..5) as i64;
        let seed = rng.next_u64();
        let program = if rng.range_u64(0..2) == 0 {
            ticket_program(iters)
        } else {
            load_barrier_program(iters)
        };
        let make = || {
            MachineBuilder::new(n)
                .network(copies)
                .multiprogramming(contexts)
                .seed(seed)
        };
        assert_engines_agree(make, &program, "random config");
    });
}

#[test]
fn serving_latency_curve_is_bit_identical_across_engines() {
    // The serving workload leans on everything the other parity programs
    // don't: timed waits ([`Op::WaitUntil`]) parked across long
    // fast-forwardable gaps at light load, and backlogged (already-past)
    // arrival targets at heavy load. The whole latency histogram — not
    // just a few percentiles — must survive fast-forward unchanged.
    use ultra_workloads::Serving;
    for gap in [150u64, 4] {
        let s = Serving::new(96, gap).seed(13);
        let run = |ff: bool| {
            let mut recipe = MachineBuilder::new(8)
                .seed(13)
                .fast_forward(ff)
                .recipe_spmd(&s.program());
            s.install(&mut recipe);
            let mut m = Machine::from_recipe(recipe);
            assert!(m.run().completed, "gap {gap} must drain");
            (
                MachineReport::from_machine(&m).parity_string(),
                s.latencies(&m),
            )
        };
        let (seq_parity, seq_lat) = run(true);
        let (stepped_parity, stepped_lat) = run(false);
        assert_eq!(
            seq_parity, stepped_parity,
            "gap {gap}: fast-forward changed the simulation"
        );
        assert_eq!(
            seq_lat, stepped_lat,
            "gap {gap}: fast-forward changed the latency histogram"
        );
        // The curve point itself — the artifact the serving bench
        // publishes — is a pure function of the histogram.
        assert_eq!(seq_lat.percentile(100.0), seq_lat.max());
    }
}

#[test]
fn engines_agree_on_random_fault_plans() {
    forall(8, "engine parity under faults", |rng| {
        let seed = rng.next_u64();
        let iters = 2 + rng.range_u64(0..4) as i64;
        let which = rng.range_u64(0..3);
        let make = move || {
            let plan = match which {
                0 => FaultPlan::none().seed(seed).link_loss(0.08),
                1 => FaultPlan::none().dead_copy(0),
                _ => FaultPlan::none()
                    .dead_mm(MmId((seed % 8) as usize))
                    .schedule(40, Fault::KillCopy { copy: 1 }),
            };
            MachineBuilder::new(8)
                .network(2)
                .faults(plan)
                .max_cycles(2_000_000)
        };
        assert_engines_agree(make, &ticket_program(iters), "faulty config");
    });
}

#[test]
fn engines_agree_on_ideal_backend() {
    forall(6, "engine parity on the paracomputer", |rng| {
        let latency = 2 + rng.range_u64(0..60);
        let n = [4usize, 8][rng.range_u64(0..2) as usize];
        let make = move || MachineBuilder::new(n).ideal(latency);
        assert_engines_agree(make, &load_barrier_program(4), "ideal backend");
    });
}

/// The E8 bandwidth-harness geometry run closed-loop: n = 64, one copy,
/// queued combining switches, hot-word tickets.
#[test]
fn engines_agree_on_e8_configuration() {
    let make = || MachineBuilder::new(64).net(NetConfig::small(64)).network(1);
    assert_engines_agree(make, &ticket_program(4), "E8 configuration");
}

/// Cycle-windowed telemetry is defined in *simulated* time, so the
/// recorded series and the end-of-run heatmap must be bit-identical
/// with fast-forward on and off — and enabling it must not change the
/// parity digest at all.
#[test]
fn telemetry_is_bit_identical_across_engines_and_inert() {
    use ultracomputer::ultra_obs::{HeatmapSnapshot, Sample};

    struct Observed {
        parity: String,
        samples: Vec<Sample>,
        heatmap: Option<HeatmapSnapshot>,
    }
    fn run_observed(builder: MachineBuilder, program: &Program, window: u64) -> Observed {
        let mut m = builder.build_spmd(program);
        m.enable_telemetry(window, 1 << 12);
        m.run();
        Observed {
            parity: MachineReport::from_machine(&m).parity_string(),
            samples: m.telemetry().samples().iter().copied().collect(),
            heatmap: m.heatmap(),
        }
    }

    forall(8, "telemetry parity across engines", |rng| {
        let n = [4usize, 8, 16][rng.range_u64(0..3) as usize];
        let window = [1u64, 3, 16, 64][rng.range_u64(0..4) as usize];
        let iters = 2 + rng.range_u64(0..4) as i64;
        let seed = rng.next_u64();
        let program = if rng.range_u64(0..2) == 0 {
            ticket_program(iters)
        } else {
            load_barrier_program(iters)
        };
        let make = || MachineBuilder::new(n).seed(seed);
        let seq = run_observed(make(), &program, window);
        assert!(!seq.samples.is_empty(), "telemetry recorded nothing");
        let stepped = run_observed(make().fast_forward(false), &program, window);
        assert_eq!(
            seq.samples, stepped.samples,
            "fast-forward changed the telemetry series (window {window})"
        );
        assert_eq!(
            seq.heatmap, stepped.heatmap,
            "fast-forward changed the heatmap"
        );
        // Inert: the same machine without telemetry digests identically.
        let bare = run(make(), &program, false);
        assert_eq!(
            seq.parity, bare.parity,
            "enabling telemetry perturbed the simulation"
        );
    });
}

/// A 16384-PE fabric with 16 active PEs hammering the hot word under
/// lossy links — the scale the word-packed engine paths exist for. The
/// inactive PEs halt on cycle 0, so from cycle 1 on every phase (PE
/// dispatch, outbound flush, bank cycling, fast-forward scans) runs off
/// the sparse masks, and the requests lost on links and handed back
/// exercise the re-offer path of those scans. A fully stepped run with the
/// fast-forward off must digest identically (the masked idle paths do
/// the same bookkeeping the per-cycle walk did).
#[test]
fn engines_agree_at_sixteen_k_pes_under_faults() {
    const N: usize = 16384;
    const ACTIVE: usize = 16;
    let idle = Program::new(body(vec![Op::Halt]), vec![]);
    let programs: Vec<Program> = (0..N)
        .map(|pe| {
            if pe < ACTIVE {
                ticket_program(2)
            } else {
                idle.clone()
            }
        })
        .collect();
    let run_wide = |fast_forward: bool| {
        let mut m = MachineBuilder::new(N)
            .network(1)
            .fast_forward(fast_forward)
            .faults(FaultPlan::none().seed(23).link_loss(0.05))
            .max_cycles(2_000_000)
            .build(programs.clone());
        m.enable_trace(1 << 14);
        assert!(m.run().completed, "16K-PE run must complete");
        RunResult {
            parity: MachineReport::from_machine(&m).parity_string(),
            trace: m.trace().iter().copied().collect(),
            hot_word: m.read_shared(0),
        }
    };
    let seq = run_wide(true);
    assert_eq!(seq.hot_word, (ACTIVE * 2) as Value, "every ticket claimed");
    let stepped = run_wide(false);
    assert_eq!(
        seq.parity, stepped.parity,
        "16K PEs: fast-forward changed the simulation"
    );
    assert_eq!(
        seq.trace, stepped.trace,
        "16K PEs: fast-forward trace drift"
    );
}

/// The E14c degradation configuration: 16 PEs, d = 2 with copy 0
/// fail-stopped at boot — `FaultSummary` (failovers, refusals) must be
/// byte-identical under every speed knob, not just final memory.
#[test]
fn engines_agree_on_e14_configuration() {
    let healthy = || MachineBuilder::new(16).network(2);
    assert_engines_agree(healthy, &ticket_program(20), "E14 healthy");
    let degraded = || {
        MachineBuilder::new(16)
            .network(2)
            .faults(FaultPlan::none().dead_copy(0))
    };
    assert_engines_agree(degraded, &ticket_program(20), "E14 dead copy");
}
