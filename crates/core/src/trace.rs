//! Execution tracing for debugging machine runs.
//!
//! The paper's group debugged parallel programs on their simulator
//! (§5: "to develop methodologies for writing and debugging parallel
//! programs"); this module is the modern equivalent: an optional,
//! bounded event trace the machine records as it runs. Disabled by
//! default — tracing costs one branch per event until
//! [`crate::machine::Machine::enable_trace`] turns it on.

use ultra_net::message::MsgKind;
use ultra_obs::Ring;
use ultra_sim::{Cycle, PeId};

/// One recorded machine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A context issued a memory request.
    Issue {
        /// Cycle of issue.
        cycle: Cycle,
        /// Issuing virtual PE.
        pe: PeId,
        /// Request kind.
        kind: MsgKind,
        /// Flat virtual address.
        vaddr: usize,
    },
    /// A reply was delivered to a context.
    Reply {
        /// Cycle of delivery.
        cycle: Cycle,
        /// Receiving virtual PE.
        pe: PeId,
        /// Round-trip latency in cycles.
        latency: Cycle,
    },
    /// A barrier generation released all waiters.
    BarrierRelease {
        /// Cycle of release.
        cycle: Cycle,
        /// Generation that completed.
        generation: u64,
    },
    /// A context ran to completion.
    Halt {
        /// Cycle of halt.
        cycle: Cycle,
        /// Halting virtual PE.
        pe: PeId,
    },
}

impl TraceEvent {
    /// The cycle at which the event happened.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        match self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::Reply { cycle, .. }
            | TraceEvent::BarrierRelease { cycle, .. }
            | TraceEvent::Halt { cycle, .. } => *cycle,
        }
    }
}

/// A bounded event recorder. When full, the *oldest* events are dropped,
/// so the tail of a long run is always visible.
pub type Trace = Ring<TraceEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    fn halt(cycle: Cycle) -> TraceEvent {
        TraceEvent::Halt { cycle, pe: PeId(0) }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(halt(1));
        assert!(t.is_empty());
    }

    #[test]
    fn ring_keeps_the_tail() {
        let mut t = Trace::new();
        t.enable(3);
        for c in 0..10 {
            t.record(halt(c));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let cycles: Vec<Cycle> = t.iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn overfilled_ring_drops_exactly_the_overflow() {
        let capacity = 64;
        let recorded = 1000;
        let mut t = Trace::new();
        t.enable(capacity);
        for c in 0..recorded {
            t.record(halt(c));
        }
        assert_eq!(t.len(), capacity);
        assert_eq!(t.dropped(), (recorded as usize - capacity) as u64);
        // The retained window is exactly the newest `capacity` events.
        let cycles: Vec<Cycle> = t.iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles[0], recorded - capacity as Cycle);
        assert_eq!(*cycles.last().unwrap(), recorded - 1);
    }

    #[test]
    fn retained_tail_stays_cycle_monotone() {
        let mut t = Trace::new();
        t.enable(7);
        // Mixed event kinds, strictly increasing cycles, far past capacity.
        for c in 0..200 {
            let e = match c % 4 {
                0 => TraceEvent::Halt {
                    cycle: c,
                    pe: PeId(0),
                },
                1 => TraceEvent::Reply {
                    cycle: c,
                    pe: PeId(1),
                    latency: 3,
                },
                2 => TraceEvent::BarrierRelease {
                    cycle: c,
                    generation: c / 4,
                },
                _ => TraceEvent::Issue {
                    cycle: c,
                    pe: PeId(2),
                    kind: MsgKind::Load,
                    vaddr: 9,
                },
            };
            t.record(e);
        }
        let cycles: Vec<Cycle> = t.iter().map(TraceEvent::cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "retained tail must stay in recording order: {cycles:?}"
        );
        assert_eq!(cycles.len() as u64 + t.dropped(), 200);
    }

    #[test]
    fn event_cycle_accessor_covers_variants() {
        assert_eq!(
            TraceEvent::Issue {
                cycle: 5,
                pe: PeId(1),
                kind: MsgKind::Load,
                vaddr: 7
            }
            .cycle(),
            5
        );
        assert_eq!(
            TraceEvent::Reply {
                cycle: 6,
                pe: PeId(1),
                latency: 16
            }
            .cycle(),
            6
        );
        assert_eq!(
            TraceEvent::BarrierRelease {
                cycle: 7,
                generation: 2
            }
            .cycle(),
            7
        );
    }
}
