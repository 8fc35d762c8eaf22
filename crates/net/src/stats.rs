//! Network instrumentation.

use ultra_sim::{Counter, Histogram};

/// Counters and distributions accumulated by one network instance.
///
/// Transit histograms measure *one-way* times: injection to tail arrival.
/// Round-trip memory latency is assembled at the machine level (it includes
/// MM service time).
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Requests accepted into the network.
    pub injected_requests: Counter,
    /// Requests whose tail reached their MM.
    pub delivered_requests: Counter,
    /// Replies accepted from MNIs.
    pub injected_replies: Counter,
    /// Replies whose tail reached their PE.
    pub delivered_replies: Counter,
    /// Pairwise combines performed (each reduces wire traffic by one
    /// message).
    pub combines: Counter,
    /// Per-stage combine counts (index = stage from the PE side).
    pub combines_by_stage: Vec<Counter>,
    /// Replies manufactured from wait-buffer entries.
    pub decombines: Counter,
    /// Combines declined because the switch's wait buffer was full.
    pub wait_buffer_declines: Counter,
    /// Requests killed under [`crate::SwitchPolicy::DropOnConflict`].
    pub drops: Counter,
    /// Injection attempts refused for lack of space or a busy input link.
    pub inject_stalls: Counter,
    /// Forward transit time in cycles (injection → tail at MM).
    pub forward_transit: Histogram,
    /// Reverse transit time in cycles (MNI injection → tail at PE).
    pub reverse_transit: Histogram,
    /// Requests lost to injected faults (lossy injection links).
    pub fault_dropped: Counter,
    /// Injections refused by this copy because a fault (dead copy or a
    /// dead switch port on the route) forced the request onto another
    /// copy.
    pub fault_refusals: Counter,
    /// Wait-buffer slots permanently lost to stuck-entry faults.
    pub stuck_wait_entries: Counter,
}

impl NetStats {
    /// Creates zeroed statistics for a network with `stages` stages.
    #[must_use]
    pub fn new(stages: usize) -> Self {
        Self {
            combines_by_stage: vec![Counter::new(); stages],
            ..Self::default()
        }
    }

    /// Fraction of injected requests that were absorbed by combining.
    #[must_use]
    pub fn combine_rate(&self) -> f64 {
        let injected = self.injected_requests.get();
        if injected == 0 {
            0.0
        } else {
            self.combines.get() as f64 / injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_rate_of_empty_stats_is_zero() {
        assert_eq!(NetStats::new(3).combine_rate(), 0.0);
    }

    #[test]
    fn combine_rate_fraction() {
        let mut s = NetStats::new(2);
        s.injected_requests.add(10);
        s.combines.add(4);
        assert!((s.combine_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn per_stage_counters_sized() {
        let s = NetStats::new(6);
        assert_eq!(s.combines_by_stage.len(), 6);
    }
}
