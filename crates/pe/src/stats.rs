//! Per-PE execution accounting — the raw material of the paper's Table 1.
//!
//! Table 1 reports, per program: average central-memory access time, the
//! percentage of idle cycles, idle cycles per central-memory load, memory
//! references per instruction, and shared references per instruction. All
//! of those derive from the counters kept here.

use ultra_sim::{Counter, Cycle, Histogram};

/// Counters for one PE's run.
#[derive(Debug, Clone, Default)]
pub struct PeStats {
    /// Instructions executed (compute, private-reference and issue slots).
    pub instructions: Counter,
    /// Cycles spent stalled waiting for a central-memory reply.
    pub idle_cycles: Counter,
    /// References satisfied by the local cache / private memory.
    pub private_refs: Counter,
    /// References sent to central memory (shared data).
    pub shared_refs: Counter,
    /// Loads (and fetch-and-phis) from central memory, for the
    /// idle-per-load column.
    pub cm_loads: Counter,
    /// Round-trip central-memory access times, in network cycles.
    pub cm_access: Histogram,
    /// Total cycles this PE was alive.
    pub total_cycles: Cycle,
    /// Of the idle cycles, those spent waiting at barriers — Table 2's
    /// `W(P,N)` as opposed to Table 1's memory-latency idling.
    pub barrier_wait_cycles: Counter,
}

impl PeStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another PE's counters into this one (whole-machine totals).
    pub fn merge(&mut self, other: &PeStats) {
        self.instructions.add(other.instructions.get());
        self.idle_cycles.add(other.idle_cycles.get());
        self.private_refs.add(other.private_refs.get());
        self.shared_refs.add(other.shared_refs.get());
        self.cm_loads.add(other.cm_loads.get());
        self.cm_access.merge(&other.cm_access);
        self.total_cycles += other.total_cycles;
        self.barrier_wait_cycles
            .add(other.barrier_wait_cycles.get());
    }

    /// Idle cycles excluding barrier waits — pure memory-latency stalls.
    #[must_use]
    pub fn memory_idle_cycles(&self) -> u64 {
        self.idle_cycles
            .get()
            .saturating_sub(self.barrier_wait_cycles.get())
    }

    /// Memory references (shared + private) per instruction.
    #[must_use]
    pub fn mem_refs_per_instruction(&self) -> f64 {
        let instr = self.instructions.get();
        if instr == 0 {
            0.0
        } else {
            (self.shared_refs.get() + self.private_refs.get()) as f64 / instr as f64
        }
    }

    /// Shared (central-memory) references per instruction.
    #[must_use]
    pub fn shared_refs_per_instruction(&self) -> f64 {
        let instr = self.instructions.get();
        if instr == 0 {
            0.0
        } else {
            self.shared_refs.get() as f64 / instr as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_from_counters() {
        let mut s = PeStats::new();
        s.instructions.add(100);
        s.shared_refs.add(8);
        s.private_refs.add(12);
        assert!((s.mem_refs_per_instruction() - 0.2).abs() < 1e-12);
        assert!((s.shared_refs_per_instruction() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PeStats::new();
        assert_eq!(s.mem_refs_per_instruction(), 0.0);
        assert_eq!(s.shared_refs_per_instruction(), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = PeStats::new();
        let mut b = PeStats::new();
        a.instructions.add(10);
        b.instructions.add(20);
        a.cm_access.record(16);
        b.cm_access.record(18);
        a.merge(&b);
        assert_eq!(a.instructions.get(), 30);
        assert_eq!(a.cm_access.count(), 2);
        assert!((a.cm_access.mean() - 17.0).abs() < 1e-12);
    }
}
