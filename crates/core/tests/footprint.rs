//! What an idle machine costs per PE, and what a dead module adds to it.
//!
//! [`Machine::heap_bytes`] adds up every buffer the machine holds. Its
//! per-PE quotient is the number the million-PE row scales: a field added
//! to a per-PE, per-context or per-port record shows up here before it
//! shows up as a run that no longer fits. The bounds are the measured
//! values plus 8 bytes per PE, less than any per-PE column the machine
//! holds (one 32-byte column per PE shows four times over); the estimate
//! is deterministic, so any growth beyond that is a change of layout, not
//! noise.
//!
//! The N = 2^18 leg is `#[ignore]`d (it builds a 420 MiB machine); CI runs
//! it in release with `cargo test --release -p ultracomputer --test
//! footprint -- --ignored`.
//!
//! A static fault costs time, never answers — and never memory that grows
//! with N per PE: every PNI shares the machine's one address translator,
//! so a dead module adds its remap tables once, not once per PE. Nor does
//! a lossy run keep memory that grows with its length: a lost request is
//! reported and re-issued from the one record it already has, and no
//! module remembers what it served.

use ultra_faults::FaultPlan;
use ultra_mem::{AddressHasher, TranslationMode};
use ultra_sim::MmId;
use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Expr, Op, Program};

/// A machine of `n` PEs that all halt, built under `plan` and not run.
fn idle(n: usize, plan: FaultPlan) -> Machine {
    let halt = Program::new(body(vec![Op::Halt]), vec![]);
    MachineBuilder::new(n).faults(plan).build_spmd(&halt)
}

/// Checks the heap an idle `n`-PE machine holds per PE against the
/// `measured` value plus 8 bytes.
fn assert_idle_cost(n: usize, measured: f64) {
    let m = idle(n, FaultPlan::none());
    let per_pe = m.heap_bytes() as f64 / n as f64;
    eprintln!("N = {n}: {per_pe:.1} bytes per PE idle");
    assert!(
        per_pe <= measured + 8.0,
        "an idle {n}-PE machine holds {per_pe:.1} bytes per PE (measured {measured})"
    );
}

#[test]
fn an_idle_4096_pe_machine_costs_its_state() {
    assert_idle_cost(4096, 1026.5);
}

#[test]
#[ignore = "builds a 2^18-PE machine: run in release"]
fn an_idle_2_18_pe_machine_costs_its_state() {
    assert_idle_cost(1 << 18, 1266.8);
}

#[test]
fn a_dead_module_costs_one_translator_not_one_per_pe() {
    let n = 1024;
    let dead = MmId(3);
    let healthy = idle(n, FaultPlan::none()).heap_bytes();
    let degraded = idle(n, FaultPlan::none().dead_mm(dead)).heap_bytes();
    let mut translator = AddressHasher::new(n, TranslationMode::Hashed);
    translator.set_dead_mms(&[dead]);
    let tables = translator.heap_bytes();
    assert!(tables > 0, "a degraded translator holds remap tables");
    // The fault turns on no recovery state of its own, per PE or per
    // module: the two machines differ only by the translator.
    assert!(
        degraded <= healthy + tables,
        "one dead module: {degraded} bytes, healthy {healthy} + tables {tables}"
    );
}

/// Heap bytes a 64-PE machine holds after every PE has added 1 to word 0
/// `increments` times under 5 % link loss.
fn lossy_counter_heap(increments: i64) -> usize {
    let counter = Program::new(
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
    );
    let plan = FaultPlan::none().seed(0x10_55).link_loss(0.05);
    let mut m = MachineBuilder::new(64)
        .faults(plan)
        .max_cycles(4_000_000)
        .build_spmd(&counter);
    assert!(m.run().completed);
    assert_eq!(m.read_shared(0), 64 * increments, "exactly once");
    assert!(m.fault_summary().dropped > 0);
    m.heap_bytes()
}

#[test]
fn a_long_lossy_run_holds_no_more_heap_than_a_short_one() {
    // Sixteen times the run, the same heap: recovering from a loss
    // leaves nothing behind, at a PE or at a module.
    let short = lossy_counter_heap(40);
    let long = lossy_counter_heap(640);
    eprintln!("heap after 40 increments per PE {short} B, after 640 {long} B");
    assert!(
        long <= short + SLACK,
        "{long} B after 640 against {short} B after 40"
    );
}

/// What a longer run may add to the heap: one more slab or ring capacity
/// doubling of a few dozen entries.
const SLACK: usize = 4096;
