//! The engine-phase ledger: the program's own per-cycle phase spans
//! (`Machine::enable_phase_spans`), summed by phase.

use ultracomputer::machine::Machine;

/// The program's engine phases, by the name its recorder gives them,
/// each with the per-layer metric it feeds. Matching by name keeps this
/// building (and the four sums meaningful) if the program grows phases.
pub const PHASES: [(&str, &str); 4] = [
    ("network", "net.sweep_ns_per_cycle"),
    ("mem-banks", "mem.banks_ns_per_cycle"),
    ("flush", "core.flush_ns_per_cycle"),
    ("pe-shards", "core.pe_shards_ns_per_cycle"),
];

/// Index into [`PHASES`] of the phase called `name`.
#[must_use]
pub fn phase_index(name: &str) -> Option<usize> {
    PHASES.iter().position(|(phase, _)| *phase == name)
}

/// Ring capacity that holds every phase span of a `cycles`-cycle run.
#[must_use]
pub fn span_capacity(cycles: u64) -> usize {
    PHASES.len() * cycles as usize + 64
}

/// Host nanoseconds `m` spent in each of [`PHASES`] since its phase
/// spans were enabled.
///
/// # Panics
///
/// Panics if the ring dropped spans: the sums would silently miss the
/// oldest cycles.
#[must_use]
pub fn phase_sums(m: &Machine) -> [u64; 4] {
    assert_eq!(m.phase_spans().dropped(), 0, "phase-span ring overflowed");
    let mut sums = [0u64; 4];
    for span in m.phase_spans().spans() {
        if let Some(k) = phase_index(span.phase.name()) {
            sums[k] += span.dur_ns;
        }
    }
    sums
}
