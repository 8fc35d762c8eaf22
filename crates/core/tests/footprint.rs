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
//! so a dead module adds its remap tables once, not once per PE.

use ultra_faults::{FaultPlan, RetryPolicy};
use ultra_mem::{AddressHasher, TranslationMode};
use ultra_sim::MmId;
use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Op, Program};

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
    assert_idle_cost(4096, 1074.5);
}

#[test]
#[ignore = "builds a 2^18-PE machine: run in release"]
fn an_idle_2_18_pe_machine_costs_its_state() {
    assert_idle_cost(1 << 18, 1314.8);
}

#[test]
fn a_dead_module_costs_one_translator_not_one_per_pe() {
    let n = 1024;
    let dead = MmId(3);
    // The retry protocol a dead module turns on, without the dead module:
    // the two machines then differ only by the module.
    let policy = RetryPolicy::for_depth(10);
    let healthy = idle(n, FaultPlan::none()).heap_bytes();
    let retrying = idle(n, FaultPlan::none().retry(policy)).heap_bytes();
    let degraded = idle(n, FaultPlan::none().dead_mm(dead)).heap_bytes();
    let mut translator = AddressHasher::new(n, TranslationMode::Hashed);
    translator.set_dead_mms(&[dead]);
    let tables = translator.heap_bytes();
    assert!(tables > 0, "a degraded translator holds remap tables");
    assert!(
        degraded <= retrying + tables,
        "one dead module: {degraded} bytes, healthy with retries {retrying} + tables {tables}"
    );
    // The retry protocol keeps no per-PE state: a request's attempt and
    // deadline live in its outstanding entry, and the policy is the
    // machine's one value.
    assert!(
        retrying <= healthy + 8 * n,
        "retry state: {retrying} bytes against {healthy} without"
    );
}
