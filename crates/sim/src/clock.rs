//! The time base of the cycle-driven machine simulation.
//!
//! The Ultracomputer network is pipelined at the granularity of the *switch
//! cycle* (paper §3.1.2, §4); the whole machine model in this repository
//! advances in units of that cycle. The paper's other time units are derived
//! from it: in the §4.2 simulations the PE instruction time and the MM access
//! time both equal **two** network cycles.

/// A point in simulated time, measured in network (switch) cycles.
pub type Cycle = u64;

/// Conversion constants between the paper's time units (§4.2).
///
/// The §4.2 network simulations assume the PE instruction time and the MM
/// access time each equal two network cycles, which makes the minimum
/// central-memory access time (MM access + two minimum network transits)
/// equal to eight PE instruction times for the 6-stage 4×4 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeScale {
    /// Network cycles per PE instruction.
    pub cycles_per_instruction: Cycle,
    /// Network cycles per MM access.
    pub cycles_per_mm_access: Cycle,
}

impl Default for TimeScale {
    fn default() -> Self {
        Self {
            cycles_per_instruction: 2,
            cycles_per_mm_access: 2,
        }
    }
}

impl crate::wire::Wire for TimeScale {
    fn encode(&self, w: &mut crate::wire::WireWriter) {
        w.u64(self.cycles_per_instruction);
        w.u64(self.cycles_per_mm_access);
    }
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        Ok(Self {
            cycles_per_instruction: r.u64()?,
            cycles_per_mm_access: r.u64()?,
        })
    }
}

impl TimeScale {
    /// Converts a duration in network cycles to PE instruction times.
    #[must_use]
    pub fn cycles_to_instructions(&self, cycles: Cycle) -> f64 {
        cycles as f64 / self.cycles_per_instruction as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timescale_matches_paper() {
        let ts = TimeScale::default();
        assert_eq!(ts.cycles_per_instruction, 2);
        assert_eq!(ts.cycles_per_mm_access, 2);
        // 16 network cycles == 8 PE instruction times (paper §4.2).
        assert!((ts.cycles_to_instructions(16) - 8.0).abs() < f64::EPSILON);
    }
}
