//! Shared pieces of the repo's benchmark: estimators, span recording,
//! workload generators, a JSON reader and host probes. The two binaries
//! (`ultra-perf`, end to end; `ultra-perf-probe`, per layer) build on
//! these. See `README.md` in this directory for what is measured and why.
//!
//! This library compiles against the same short list of program APIs as
//! the end-to-end binary (`Machine`, the program DSL), so a refactor
//! inside a layer cannot stop it from building.

pub mod alloc;
pub mod catalog;
pub mod expected;
pub mod gen;
pub mod host;
pub mod json;
pub mod ledger;
pub mod spans;
pub mod stats;

/// FNV-1a, 64 bit — the digest `ultra-serve` prints as `parity`, written
/// out here so the benchmark does not borrow the program's copy.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
