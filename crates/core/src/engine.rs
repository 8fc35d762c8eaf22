//! Cycle-engine selection: sequential vs deterministic parallel.
//!
//! The machine's per-cycle work decomposes into units that never touch
//! each other within a cycle: the `d` network copies, the memory banks,
//! and the physical PEs (each with its own PNI and contexts). The
//! parallel engine fans those units out over OS threads and merges their
//! deferred side effects in fixed index order, so a parallel run is
//! **bit-identical** to a sequential run of the same configuration — same
//! final memory, same statistics, same trace, same fault summary.

use std::fmt;

/// Which cycle engine a [`crate::machine::Machine`] uses.
///
/// Derived from [`crate::machine::MachineBuilder::threads`]: more than
/// one thread selects [`EngineMode::Parallel`]; the default is
/// [`EngineMode::Sequential`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Single-threaded reference engine.
    Sequential,
    /// Deterministic fan-out over `threads` OS threads.
    Parallel {
        /// Worker thread budget per fan-out point (copies, banks, PEs).
        threads: usize,
    },
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineMode::Sequential => write!(f, "sequential"),
            EngineMode::Parallel { threads } => write!(f, "parallel({threads})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_reports_threads_and_formats() {
        assert_eq!(EngineMode::Sequential.to_string(), "sequential");
        assert_eq!(
            EngineMode::Parallel { threads: 2 }.to_string(),
            "parallel(2)"
        );
    }
}
