//! Snapshot round-trip property: `run(k) → snapshot → restore → run(m)`
//! is bit-identical to `run(k+m)` — under every engine tuning, through
//! every kind of mid-run machine state.
//!
//! Each scenario builds a machine, runs the *uninterrupted* baseline to
//! completion, then re-runs it with a cut at several mid-run points. At
//! each cut the donor is restored from its snapshot, forked, and the
//! fork forked again, under every engine tuning (donor settings,
//! fast-forward off, forced-dense sweep); each copy must equal the donor
//! running on — cycles, parity digest, memory digest, skipped cycles and
//! the report — at the cut, some cycles on and at completion, and the
//! donor's completed run must equal the baseline. The fork is compared
//! with the donor, not with the restored machine: its copy is complete
//! by construction, and a snapshot is only the donor's recipe replayed.
//! The fault scenarios deliberately cut while recovery machinery is
//! live: one cut is searched for dynamically so a lost request is
//! *pending* (handed back to its PE, not yet offered again) at the cut,
//! and one scenario cuts before a scheduled fault so the replayed clock
//! must still fire it.
//!
//! The last tests turn to frames that are *not* a donor's. A flipped bit
//! alone is always an error: the frame's checksum trailer no longer
//! matches. A flipped bit with the trailer resealed over it — a forgery
//! the checksum cannot see — makes `Machine::restore` answer `Ok` or a
//! typed `SnapshotError`; it never unwinds.

use ultra_workloads::{serving, Serving};
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

/// What a machine shows from outside.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    cycles: u64,
    parity: String,
    /// FNV-1a of the words the scenarios write.
    memory: u64,
    report: String,
    fast_forwarded: u64,
}

impl Observed {
    fn of(m: &Machine) -> Self {
        let words = (0..2048)
            .chain(serving::ARRIVAL_BASE..serving::ARRIVAL_BASE + 64)
            .chain(serving::DONE_BASE..serving::DONE_BASE + 64);
        let image: Vec<u8> = words
            .flat_map(|word| m.read_shared(word).to_le_bytes())
            .collect();
        let report = MachineReport::from_machine(m).without_wall_clock();
        Self {
            cycles: m.now(),
            parity: report.parity_string(),
            memory: fnv1a(&image),
            report: report.to_string(),
            fast_forwarded: m.fast_forwarded_cycles(),
        }
    }

    /// Everything but the skipped-cycle count, which depends on how a
    /// run was sliced into `run_for` calls and on the tuning.
    fn run(&self) -> (u64, &str, u64, &str) {
        (self.cycles, &self.parity, self.memory, &self.report)
    }
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

/// The property at one cut point. Under each tuning the restored
/// machine, a fork and a fork of that fork equal the donor — in cycles,
/// parity, memory, skipped cycles and report — at the cut, again `more`
/// cycles on, and at completion, where the donor's run also equals the
/// uninterrupted `baseline`. Without fast-forward the copies skip no
/// further cycles, so their count stays at the cut's. Running the
/// copies leaves the donor alone.
fn check_cut(make: &dyn Fn() -> Machine, baseline: &Observed, cut: u64, label: &str) {
    let mut donor = make();
    donor.run_for(cut);
    let at_cut = Observed::of(&donor);
    let snapshot = donor.snapshot();
    let more = 1 + SplitMix64::new(cut).below(40) as u64;
    let mut copies = Vec::new();
    for (engine, tuning, sweep) in tunings() {
        let at = format!("{label} cut {cut} [{engine}]");
        let restored = Machine::restore_tuned(&snapshot, tuning)
            .unwrap_or_else(|e| panic!("{at}: restore failed: {e}"));
        let fork = donor.fork(tuning);
        let second = fork.fork(EngineTuning::default());
        for (what, mut m) in [
            ("restored", restored),
            ("fork", fork),
            ("fork of a fork", second),
        ] {
            let at = format!("{at}: {what}");
            assert_eq!(Observed::of(&m), at_cut, "{at}: at the cut");
            m.set_sweep_mode(sweep);
            m.run_for(more);
            copies.push((at, tuning.fast_forward != Some(false), m));
        }
    }
    assert_eq!(
        Observed::of(&donor),
        at_cut,
        "{label} cut {cut}: running the copies moved the donor"
    );
    donor.run_for(more);
    let on = Observed::of(&donor);
    assert!(
        donor.run().completed,
        "{label} cut {cut}: donor must finish"
    );
    let done = Observed::of(&donor);
    assert_eq!(
        done.run(),
        baseline.run(),
        "{label} cut {cut}: snapshotting and forking perturbed the donor"
    );
    for (at, fast_forward, mut m) in copies {
        let skipped = |o: &Observed| {
            if fast_forward {
                o.fast_forwarded
            } else {
                at_cut.fast_forwarded
            }
        };
        let mine = Observed::of(&m);
        assert_eq!(mine.run(), on.run(), "{at} + {more}");
        assert_eq!(mine.fast_forwarded, skipped(&on), "{at} + {more}: skipped");
        assert!(m.run().completed, "{at}: run must finish");
        let mine = Observed::of(&m);
        assert_eq!(mine.run(), done.run(), "{at}: diverged at completion");
        assert_eq!(mine.fast_forwarded, skipped(&done), "{at}: skipped");
    }
}

/// Checks `cuts` and one more cut drawn anywhere in the run.
fn check_scenario(make: &dyn Fn() -> Machine, cuts: &[u64], label: &str) {
    let mut full = make();
    assert!(full.run().completed, "{label}: baseline must complete");
    let baseline = Observed::of(&full);
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

    // Find a cut right after a loss: at that snapshot the lost request
    // has been handed back and waits in its PE's queue to be offered
    // again under its id, and must survive the round trip.
    let mut probe = make();
    let mut pending_cut = None;
    while probe.now() < 5_000 {
        let before = probe.fault_summary().dropped;
        probe.run_for(1);
        if probe.fault_summary().dropped > before {
            pending_cut = Some(probe.now());
            break;
        }
    }
    let pending_cut = pending_cut.expect("15% loss must lose a message within 5k cycles");

    let mut full = make();
    assert!(full.run().completed);
    assert!(
        full.fault_summary().retries > 0,
        "scenario must actually send lost requests again"
    );
    let baseline = Observed::of(&full);
    for cut in [pending_cut, pending_cut + 37, 400] {
        check_cut(&make, &baseline, cut, "lossy 8-PE ticket");
    }
}

#[test]
fn busy_traffic_cut_rebuilds_engine_masks() {
    // Cut while the fabric is saturated: requests mid-flight in the
    // network, banks with queued work, PEs with non-empty outgoing
    // buffers. None of the engine's sets (live / runnable / outgoing /
    // bank-active) is in a frame — the replay must arrive at every one
    // of them, under every tuning, or the restored run wedges or
    // diverges.
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
    // Every way a context can wait, two contexts per PE, lossy links
    // handing lost requests back: fetch-and-add then a dependent store (locked
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

#[test]
fn a_serving_machine_with_a_write_log_round_trips() {
    // The arrival schedule and the KV records are untimed writes before
    // cycle 0: the replay must apply them before the first cycle.
    let requests = Serving::new(64, 40).seed(7);
    let make = || {
        let mut recipe = MachineBuilder::new(8).recipe_spmd(&requests.program());
        requests.install(&mut recipe);
        Machine::from_recipe(recipe)
    };
    check_scenario(&make, &[90, 700], "serving 8 PEs");
}

#[test]
fn a_write_between_slices_replays_at_its_cycle() {
    // Every PE sleeps to cycle 60, then copies word 5000 to its own
    // slot; the donor writes word 5000 at cycle 30, mid-run.
    let program = Program::new(
        body(vec![
            Op::WaitUntil {
                cycle: Expr::Const(60),
            },
            Op::Load {
                addr: Expr::Const(5000),
                dst: 0,
            },
            Op::Store {
                addr: Expr::add(Expr::Const(1024), Expr::PeIndex),
                value: Expr::Reg(0),
            },
            Op::Halt,
        ]),
        vec![],
    );
    let mut donor = MachineBuilder::new(8).build_spmd(&program);
    donor.write_shared(5000, 3);
    donor.run_for(30);
    donor.write_shared(5000, 41);
    donor.run_for(10);
    let mut restored = Machine::restore(&donor.snapshot()).expect("restore");
    assert_eq!(Observed::of(&restored), Observed::of(&donor));
    assert!(donor.run().completed && restored.run().completed);
    assert_eq!(Observed::of(&restored), Observed::of(&donor));
    assert_eq!(restored.read_shared(1024 + 7), 41);
}

#[test]
fn a_frame_holds_no_live_state() {
    // A 1024-PE ticket machine mid-run, requests in the fabric: its
    // frame is as long as at cycle 0.
    let make = || MachineBuilder::new(1024).build_spmd(&ticket_program(2));
    let mut m = make();
    let empty = m.snapshot().len();
    m.run_for(12);
    let s = m.net_stats();
    assert!(s.injected_requests.get() > s.delivered_requests.get());
    let frame = m.snapshot();
    assert_eq!(frame.len(), empty, "frame length follows traffic");
    let restored = Machine::restore(&frame).expect("restore");
    assert_eq!(Observed::of(&restored), Observed::of(&m));
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
/// whatever the flip does to the recipe, the answer is `Ok` or a typed
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
    // The recipe starts past magic (8), format (4), the length-prefixed
    // crate version and config echo, and the 1-byte tuning echo.
    let len_at = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().unwrap()) as usize;
    let cfg_len_at = 20 + len_at(12);
    let recipe_at = cfg_len_at + 8 + len_at(cfg_len_at) + 1;
    assert!((100..frame.len() - 80).contains(&recipe_at), "{recipe_at}");

    // Everything that sizes what the restore builds or how far it
    // replays — the header, the config echo, the run count and the
    // first run's length, and the trailing cycle, skipped count and
    // digest — is flipped exhaustively. The program bodies between
    // are sampled; the ignored test below flips all of it.
    let head_bits = (recipe_at + 16) * 8;
    let tail_bits = (frame.len() - 40) * 8..frame.len() * 8;
    let body_bits = tail_bits.start - head_bits;
    let mut rng = SplitMix64::new(0x5eed_f11b);
    let sampled = (0..600).map(|_| head_bits + rng.below(body_bits));
    restore_resealed_flips(&frame, (0..head_bits).chain(sampled).chain(tail_bits));
}

#[test]
#[ignore = "exhaustive: every bit of the frame; CI runs it in release"]
fn every_resealed_bit_flip_restores_or_fails_with_a_typed_error() {
    let frame = mid_run_frame();
    restore_resealed_flips(&frame, 0..frame.len() * 8);
}
