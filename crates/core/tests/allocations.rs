//! How many allocations a machine makes: a fork, the cycles after it, and
//! a hot-spot run in steady state. Counting them takes a counting
//! `#[global_allocator]`, and therefore a test binary of its own.
//!
//! * A fork copies columns, one allocation each, so a fork of a 256-PE and
//!   of a 1024-PE machine make the same number of allocations, and few.
//! * A fork keeps its donor's capacities: the cycles after a fork allocate
//!   no more than the same cycles run on the donor.
//! * The hot-spot run of the `engine_hot` benchmark workload (4096 PEs
//!   fetch-and-add one word, run in 4-cycle slices) allocates an exact,
//!   recorded number of times after its first slice: 121, a fifth of an
//!   allocation per cycle. A change that moves the count
//!   re-records it here, and says why.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::EngineTuning;

/// The system allocator, counting the calls that hand out memory.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a statistic (a relaxed atomic that publishes no other data) and never
// influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The allocations `f` makes, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (CALLS.load(Ordering::Relaxed) - before, out)
}

/// `rounds` × { fetch-and-add `delta` to word 0 → store the ticket to a
/// private slot }: the job service's `ticket` workload.
fn ticket(rounds: i64, delta: i64) -> Program {
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
                            Expr::add(Expr::Const(1024), Expr::mul(Expr::PeIndex, 64)),
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

/// A `ticket` job's machine of `pes` PEs, run to cycle 512 as a prefix
/// image: mid-run, traffic in the fabric.
fn ticket_image(pes: usize) -> Machine {
    let mut m = MachineBuilder::new(pes)
        .seed(7)
        .max_cycles(u64::MAX)
        .build_spmd(&ticket(64, 1));
    assert!(!m.run_for(512).completed, "{pes} PEs: cut mid-run");
    m.into_image()
}

#[test]
fn a_fork_makes_a_fixed_handful_of_allocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let counts: Vec<u64> = [256, 1024]
        .into_iter()
        .map(|pes| {
            let donor = ticket_image(pes);
            let (count, fork) = allocations(|| donor.fork(EngineTuning::default()));
            eprintln!("{pes} PEs: a fork makes {count} allocations");
            drop(fork);
            count
        })
        .collect();
    assert_eq!(counts[0], counts[1], "the count does not grow with N");
    assert!(counts[1] <= 64, "{} allocations", counts[1]);
}

#[test]
fn the_cycles_after_a_fork_allocate_no_more_than_on_the_donor() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for pes in [256, 1024] {
        let mut donor = ticket_image(pes);
        let mut fork = donor.fork(EngineTuning::default());
        let (on_fork, _) = allocations(|| fork.run_for(8));
        let (on_donor, _) = allocations(|| donor.run_for(8));
        eprintln!("{pes} PEs, 8 cycles: {on_fork} allocations forked, {on_donor} on the donor");
        assert!(
            on_fork <= on_donor,
            "{pes} PEs: {on_fork} allocations after the fork, {on_donor} on the donor"
        );
    }
}

#[test]
fn a_hot_spot_run_allocates_its_recorded_count_after_the_first_slice() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = MachineBuilder::new(4096).build_spmd(&ticket(8, 3));
    assert!(!m.run_for(4).completed);
    let (count, ()) = allocations(|| while !m.run_for(4).completed {});
    let steady = m.now() - 4;
    eprintln!(
        "{count} allocations over {steady} cycles: {:.2} per cycle",
        count as f64 / steady as f64
    );
    assert_eq!(count, 121, "recorded allocations after the first slice");
}
