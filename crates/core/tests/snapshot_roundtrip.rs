//! Snapshot round-trip property: `run(k) → snapshot → restore → run(m)`
//! is bit-identical to `run(k+m)` — under every engine tuning, through
//! every kind of mid-run machine state.
//!
//! Each scenario builds a machine, runs the *uninterrupted* baseline to
//! completion, then re-runs it with a snapshot cut at several mid-run
//! points. At each cut the snapshot is restored under every engine
//! tuning (donor settings, fast-forward off, forced-dense sweep) and
//! driven to completion; all of them — and the
//! donor machine continuing past its own snapshot — must digest to the
//! baseline's parity string. `Machine::fork` is held to the same cuts
//! with the codec as its reference: a fork under each tuning (and a fork
//! of that fork) carries the restored machine's snapshot bytes, at the
//! cut and again some cycles on, and running it leaves the donor alone. The fault scenarios deliberately cut while
//! recovery machinery is live: one cut is searched for dynamically so a
//! PNI retry is *pending* (a loss happened, its timeout has not fired)
//! at snapshot time, and one scenario snapshots before a scheduled fault
//! so the restored clock must still fire it.
//!
//! The last tests turn to frames that are *not* a donor's. A flipped bit
//! alone is always an error: the frame's checksum trailer no longer
//! matches. A flipped bit with the trailer resealed over it — a forgery
//! the checksum cannot see — makes `Machine::restore` answer `Ok` or a
//! typed `SnapshotError`; it never unwinds.

use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::ultra_faults::{Fault, FaultPlan};
use ultracomputer::ultra_net::config::SweepMode;
use ultracomputer::ultra_sim::clock::TimeScale;
use ultracomputer::ultra_sim::rng::{Rng, SplitMix64};
use ultracomputer::ultra_sim::wire::fnv1a;
use ultracomputer::ultra_sim::MmId;
use ultracomputer::{EngineTuning, MachineReport, SnapshotError};

/// Tickets from a hot counter, a private-slot store per round, and a
/// closing barrier — combining, register locking, bank traffic and
/// barrier state all live at most cut points.
fn ticket_program(rounds: i64) -> Program {
    ticket_program_then(rounds, vec![])
}

/// [`ticket_program`] with `then` appended to every round.
fn ticket_program_then(rounds: i64, then: Vec<Op>) -> Program {
    let mut round = vec![
        Op::FetchAdd {
            addr: Expr::Const(0),
            delta: Expr::Const(1),
            dst: Some(0),
        },
        Op::Store {
            addr: Expr::add(
                Expr::add(Expr::Const(1024), Expr::mul(Expr::PeIndex, 64)),
                Expr::Reg(1),
            ),
            value: Expr::Reg(0),
        },
    ];
    round.extend(then);
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(round),
            },
            Op::Barrier,
            Op::Halt,
        ]),
        vec![],
    )
}

fn digest(m: &Machine) -> String {
    MachineReport::from_machine(m).parity_string()
}

fn tunings() -> Vec<(&'static str, EngineTuning, SweepMode)> {
    let donor = EngineTuning::default();
    vec![
        ("donor", donor, SweepMode::Sparse),
        (
            "no-fast-forward",
            EngineTuning {
                fast_forward: Some(false),
                ..donor
            },
            SweepMode::Sparse,
        ),
        ("dense-sweep", donor, SweepMode::Dense),
    ]
}

/// The property at one cut point: donor-continue, every restored tuning
/// and every fork reach the baseline digest — and [`Machine::fork`] is
/// the codec round trip without the codec: under each tuning the fork,
/// and a fork of the fork, hold the restored machine's snapshot bytes at
/// the cut and again `more` cycles on, where the donor's own bytes are
/// the same (donor tuning), and running them leaves the donor alone.
fn check_cut(make: &dyn Fn() -> Machine, baseline: &str, cut: u64, label: &str) {
    let mut donor = make();
    donor.run_for(cut);
    let snapshot = donor.snapshot();
    let more = 1 + SplitMix64::new(cut).below(40) as u64;
    for (engine, tuning, sweep) in tunings() {
        let at = format!("{label} cut {cut} [{engine}]");
        let mut restored = Machine::restore_tuned(&snapshot, tuning)
            .unwrap_or_else(|e| panic!("{at}: restore failed: {e}"));
        let mut fork = donor.fork(tuning);
        let mut second = fork.fork(EngineTuning::default());
        assert_eq!(fork.snapshot(), restored.snapshot(), "{at}: fork");
        assert_eq!(
            second.snapshot(),
            restored.snapshot(),
            "{at}: fork of a fork"
        );
        for m in [&mut restored, &mut fork, &mut second] {
            m.set_sweep_mode(sweep);
            m.run_for(more);
        }
        assert_eq!(
            donor.snapshot(),
            snapshot,
            "{at}: running a fork moved the donor"
        );
        assert_eq!(fork.snapshot(), restored.snapshot(), "{at}: fork + {more}");
        assert_eq!(
            second.snapshot(),
            restored.snapshot(),
            "{at}: fork of a fork + {more}"
        );
        for (what, mut m) in [
            ("restored", restored),
            ("fork", fork),
            ("fork of a fork", second),
        ] {
            assert!(m.run().completed, "{at}: {what} run must finish");
            assert_eq!(
                digest(&m),
                baseline,
                "{at}: {what} diverged from the uninterrupted run"
            );
        }
    }
    let mut fork = donor.fork(EngineTuning::default());
    assert_eq!(
        fork.snapshot(),
        snapshot,
        "{label} cut {cut}: fork under the donor's tuning"
    );
    donor.run_for(more);
    fork.run_for(more);
    assert_eq!(
        fork.snapshot(),
        donor.snapshot(),
        "{label} cut {cut}: fork + {more} against run({cut} + {more})"
    );
    assert!(
        donor.run().completed,
        "{label} cut {cut}: donor must finish"
    );
    assert_eq!(
        digest(&donor),
        baseline,
        "{label} cut {cut}: snapshotting and forking perturbed the donor"
    );
}

/// Checks `cuts` and one more cut drawn anywhere in the run.
fn check_scenario(make: &dyn Fn() -> Machine, cuts: &[u64], label: &str) {
    let mut full = make();
    assert!(full.run().completed, "{label}: baseline must complete");
    let baseline = digest(&full);
    let anywhere = 1 + SplitMix64::new(full.now()).below(full.now() as usize - 1) as u64;
    for &cut in cuts.iter().chain([&anywhere]) {
        check_cut(make, &baseline, cut, label);
    }
}

#[test]
fn healthy_machine_round_trips_at_any_cut() {
    let make = || MachineBuilder::new(8).build_spmd(&ticket_program(12));
    check_scenario(&make, &[1, 5, 33, 100, 251], "healthy 8-PE ticket");
}

#[test]
fn lossy_links_round_trip_with_a_pni_retry_pending_at_the_cut() {
    let make = || {
        MachineBuilder::new(8)
            .faults(FaultPlan::none().seed(11).link_loss(0.15))
            .max_cycles(2_000_000)
            .build_spmd(&ticket_program(10))
    };

    // Find a cut where a loss has happened but its retry has not fired:
    // at that snapshot a PNI timeout (and its sequence-numbered request)
    // is in flight and must survive the round trip.
    let mut probe = make();
    let mut pending_cut = None;
    while probe.now() < 5_000 {
        probe.run_for(1);
        let f = probe.fault_summary();
        if f.dropped > f.retries {
            pending_cut = Some(probe.now());
            break;
        }
    }
    let pending_cut = pending_cut.expect("15% loss must strand a message within 5k cycles");

    let mut full = make();
    assert!(full.run().completed);
    assert!(
        full.fault_summary().retries > 0,
        "scenario must actually exercise the retry protocol"
    );
    let baseline = digest(&full);
    for cut in [pending_cut, pending_cut + 37, 400] {
        check_cut(&make, &baseline, cut, "lossy 8-PE ticket");
    }
}

#[test]
fn busy_traffic_cut_rebuilds_engine_masks() {
    // Cut while the fabric is saturated: requests mid-flight in the
    // network, banks with queued work, PEs with non-empty outgoing
    // buffers. None of the engine's sets (live / runnable / outgoing /
    // bank-active) are serialized — restore must rebuild every one of
    // them from the decoded shard and bank state, under every tuning,
    // or the restored run wedges or diverges.
    let make = || MachineBuilder::new(16).build_spmd(&ticket_program(10));

    // Find an early cut with traffic still in the fabric (injected but
    // not yet delivered), so the snapshot genuinely captures a mid-merge
    // machine rather than a quiescent one.
    let mut probe = make();
    let mut busy_cut = None;
    while probe.now() < 200 {
        probe.run_for(1);
        let s = probe.net_stats();
        if s.injected_requests.get() > s.delivered_requests.get() {
            busy_cut = Some(probe.now());
            break;
        }
    }
    let busy_cut = busy_cut.expect("16 combining PEs must have a request mid-fabric early on");
    check_scenario(&make, &[busy_cut, busy_cut + 17, 120], "busy 16-PE ticket");
}

#[test]
fn dead_copy_failover_round_trips() {
    let make = || {
        MachineBuilder::new(8)
            .network(2)
            .faults(FaultPlan::none().dead_copy(0))
            .build_spmd(&ticket_program(8))
    };
    check_scenario(&make, &[20, 75, 160], "dead-copy d=2");
}

#[test]
fn scheduled_mm_death_fires_after_restore() {
    // Cut 30 is *before* the scheduled kill at cycle 60: the restored
    // fault clock must still fire it. Cut 90 is after, in degraded mode.
    let make = || {
        MachineBuilder::new(8)
            .faults(FaultPlan::none().schedule(60, Fault::KillMm { mm: MmId(3) }))
            .build_spmd(&ticket_program(8))
    };
    check_scenario(&make, &[30, 90], "scheduled MM death");
}

#[test]
fn ideal_backend_round_trips() {
    let make = || {
        MachineBuilder::new(8)
            .ideal(10)
            .build_spmd(&ticket_program(6))
    };
    check_scenario(&make, &[7, 40], "ideal backend");
}

#[test]
fn multiprogrammed_contexts_round_trip() {
    let make = || {
        MachineBuilder::new(4)
            .multiprogramming(2)
            .build_spmd(&ticket_program(6))
    };
    check_scenario(&make, &[15, 80], "4 PEs x 2 contexts");
}

#[test]
fn parked_shards_round_trip_and_account_every_idle_cycle() {
    // Every way a context can wait, two contexts per PE, lossy links with
    // the retry protocol on: fetch-and-add then a dependent store (locked
    // register), a fence behind the store, a timed wait, and a closing
    // barrier that PE 0 — eight times the rounds — keeps everyone else
    // parked at for most of the run.
    let program = |rounds| {
        let nap = Op::WaitUntil {
            cycle: Expr::add(Expr::Clock, Expr::Const(9)),
        };
        ticket_program_then(rounds, vec![Op::Fence, nap])
    };
    let (pes, k) = (8, 2);
    let make_with = |fast_forward: bool| {
        let programs = (0..pes * k)
            .map(|ctx| program(if ctx < k { 24 } else { 3 }))
            .collect();
        MachineBuilder::new(pes)
            .multiprogramming(k)
            .time(TimeScale {
                cycles_per_instruction: 1,
                cycles_per_mm_access: 2,
            })
            .faults(FaultPlan::none().seed(5).link_loss(0.08))
            .max_cycles(2_000_000)
            .fast_forward(fast_forward)
            .build(programs)
    };
    let waits = |m: &Machine| -> Vec<(u64, u64)> {
        m.pe_stats()
            .iter()
            .map(|s| (s.idle_cycles.get(), s.barrier_wait_cycles.get()))
            .collect()
    };

    // A cut with most PEs already waiting at the barrier (an idle cycle
    // is charged to one context per PE).
    let mut probe = make_with(true);
    while waits(&probe).iter().filter(|w| w.1 > 0).count() < pes - 2 {
        assert!(!probe.run_for(1).completed, "barrier never filled up");
    }
    let barrier_cut = probe.now() + 25;
    let cuts = [7, 38, 90, barrier_cut];

    for &cut in &cuts {
        let mut stepped = make_with(false);
        assert!(!stepped.run_for(cut).completed, "cut {cut} is mid-run");
        let mut m = make_with(true);
        m.run_for(cut);
        assert_eq!(m.now(), cut);
        assert_eq!(
            waits(&m),
            waits(&stepped),
            "cut {cut}: idle/barrier-wait read mid-run"
        );
        // Ground truth that needs no second engine: nobody has passed
        // the barrier and every instruction holds the datapath one
        // cycle, so each PE accounts for every cycle so far as either
        // an instruction or an idle cycle.
        for (pe, ctxs) in m.pe_stats().chunks(k).enumerate() {
            let accounted: u64 = ctxs
                .iter()
                .map(|s| s.instructions.get() + s.idle_cycles.get())
                .sum();
            assert_eq!(accounted, cut, "cut {cut}: PE {pe}");
        }
    }
    assert!(probe.run().completed && probe.fault_summary().retries > 0);
    check_scenario(&|| make_with(true), &cuts, "parked 8 PEs x 2 contexts");
}

/// An 8-PE ticket machine 40 cycles in, traffic in flight.
fn mid_run_frame() -> Vec<u8> {
    let mut donor = MachineBuilder::new(8).build_spmd(&ticket_program(6));
    donor.run_for(40);
    donor.snapshot()
}

/// Rewrites the frame's checksum trailer over the bytes before it.
fn reseal(frame: &mut [u8]) {
    let at = frame.len() - 8;
    let sum = fnv1a(&frame[..at]);
    frame[at..].copy_from_slice(&sum.to_le_bytes());
}

/// Flips each of `bits` in turn, reseals the frame, and restores it:
/// whatever the flip does to the state, the answer is `Ok` or a typed
/// error, never an unwind.
fn restore_resealed_flips(frame: &[u8], bits: impl Iterator<Item = usize>) {
    let mut forged = frame.to_vec();
    for bit in bits {
        forged[bit / 8] ^= 1 << (bit % 8);
        reseal(&mut forged);
        let _: Result<Machine, SnapshotError> = Machine::restore(&forged);
        forged.copy_from_slice(frame);
    }
}

#[test]
fn every_raw_bit_flip_is_an_error() {
    let mut frame = mid_run_frame();
    for bit in 0..frame.len() * 8 {
        frame[bit / 8] ^= 1 << (bit % 8);
        assert!(Machine::restore(&frame).is_err(), "bit {bit} restored");
        frame[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn a_flipped_bit_restores_or_fails_with_a_typed_error() {
    let frame = mid_run_frame();
    // The state starts past magic (8), format (4), the length-prefixed
    // crate version and config echo, and the 1-byte tuning echo.
    let len_at = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().unwrap()) as usize;
    let cfg_len_at = 20 + len_at(12);
    let state_at = cfg_len_at + 8 + len_at(cfg_len_at) + 1;
    assert!((100..frame.len() / 2).contains(&state_at), "{state_at}");

    // Everything before the state and the state's leading scalars (dead
    // lists, clock, barrier and fault counters) is flipped exhaustively:
    // every size the restore allocates or multiplies by is decoded
    // there. The rest, ~11 KiB, is sampled; the ignored test below
    // flips all of it.
    let exhaustive_bits = (state_at + 64) * 8;
    let sampled_bits = frame.len() * 8 - exhaustive_bits;
    let mut rng = SplitMix64::new(0x5eed_f11b);
    let sampled = (0..2_500).map(|_| exhaustive_bits + rng.below(sampled_bits));
    restore_resealed_flips(&frame, (0..exhaustive_bits).chain(sampled));
}

#[test]
#[ignore = "exhaustive: every bit of the frame; CI runs it in release"]
fn every_resealed_bit_flip_restores_or_fails_with_a_typed_error() {
    let frame = mid_run_frame();
    restore_resealed_flips(&frame, 0..frame.len() * 8);
}
