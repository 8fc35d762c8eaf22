//! Cycle-windowed telemetry: rate-over-time series and engine-phase spans.
//!
//! # Window semantics
//!
//! The recorder divides simulated time into consecutive windows of a
//! fixed cycle length. At each boundary the machine hands it the current
//! *cumulative* counter values; the recorder stores the per-window
//! **delta**, so by construction the sum of all recorded deltas equals
//! the end-of-run totals (as long as the ring never dropped a sample).
//! Gauges — queue depths, wait-buffer occupancy — are instantaneous
//! values read at the boundary, not deltas.
//!
//! # Determinism
//!
//! Sampling reads simulation state and never writes it, so enabling the
//! recorder cannot change a run. Boundaries are defined in *simulated*
//! cycles, and the idle fast-forward emits one sample per crossed
//! boundary with the same (unchanged) cumulative counters a stepped run
//! would have seen — the series is therefore bit-identical with the
//! fast-forward on and off.

use ultra_sim::Cycle;

use crate::json::{array_lines, JsonObject};
use crate::ring::Ring;

/// Cumulative scalar counters sampled at a window boundary. Field names
/// mirror `NetStats`; the machine fills them by summing over the `d`
/// network copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Requests accepted into stage 0 of any copy.
    pub injected_requests: u64,
    /// Requests handed to memory modules.
    pub delivered_requests: u64,
    /// Replies injected by memory modules.
    pub injected_replies: u64,
    /// Replies delivered back to PEs.
    pub delivered_replies: u64,
    /// Pairwise combines performed in switches.
    pub combines: u64,
    /// Replies split by wait-buffer matches on the return trip.
    pub decombines: u64,
    /// Injection attempts refused by a full stage-0 queue.
    pub inject_stalls: u64,
    /// Messages lost to injected faults.
    pub fault_dropped: u64,
    /// Injections refused because the route was fault-masked.
    pub fault_refusals: u64,
}

impl CounterSnapshot {
    /// The per-window delta `self − prev` (saturating, so a snapshot
    /// taken out of order cannot underflow).
    #[must_use]
    pub fn delta(&self, prev: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            injected_requests: self
                .injected_requests
                .saturating_sub(prev.injected_requests),
            delivered_requests: self
                .delivered_requests
                .saturating_sub(prev.delivered_requests),
            injected_replies: self.injected_replies.saturating_sub(prev.injected_replies),
            delivered_replies: self
                .delivered_replies
                .saturating_sub(prev.delivered_replies),
            combines: self.combines.saturating_sub(prev.combines),
            decombines: self.decombines.saturating_sub(prev.decombines),
            inject_stalls: self.inject_stalls.saturating_sub(prev.inject_stalls),
            fault_dropped: self.fault_dropped.saturating_sub(prev.fault_dropped),
            fault_refusals: self.fault_refusals.saturating_sub(prev.fault_refusals),
        }
    }

    /// Element-wise sum, for re-aggregating window deltas into totals.
    pub fn accumulate(&mut self, other: &CounterSnapshot) {
        self.injected_requests += other.injected_requests;
        self.delivered_requests += other.delivered_requests;
        self.injected_replies += other.injected_replies;
        self.delivered_replies += other.delivered_replies;
        self.combines += other.combines;
        self.decombines += other.decombines;
        self.inject_stalls += other.inject_stalls;
        self.fault_dropped += other.fault_dropped;
        self.fault_refusals += other.fault_refusals;
    }

    /// The snapshot's fields as `(name, value)` pairs, in a fixed order —
    /// one source of truth for exporters.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("injected_requests", self.injected_requests),
            ("delivered_requests", self.delivered_requests),
            ("injected_replies", self.injected_replies),
            ("delivered_replies", self.delivered_replies),
            ("combines", self.combines),
            ("decombines", self.decombines),
            ("inject_stalls", self.inject_stalls),
            ("fault_dropped", self.fault_dropped),
            ("fault_refusals", self.fault_refusals),
        ]
    }
}

/// Instantaneous gauges read at a window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Deepest memory-module request queue at the boundary.
    pub mm_queue_depth_max: u64,
    /// Wait-buffer entries outstanding across all switches and copies.
    pub wait_occupancy: u64,
}

impl GaugeSnapshot {
    /// The gauges as `(name, value)` pairs, in a fixed order.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 2] {
        [
            ("mm_queue_depth_max", self.mm_queue_depth_max),
            ("wait_occupancy", self.wait_occupancy),
        ]
    }
}

/// One recorded window: `[start, start + len)` in simulated cycles,
/// counter deltas over the window and gauges at its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// First cycle covered by the window.
    pub start: Cycle,
    /// Cycles covered — the configured window length, except for a
    /// shorter final flush at end of run.
    pub len: u64,
    /// Counter increments that happened inside the window.
    pub counters: CounterSnapshot,
    /// Gauges read at the window's end boundary.
    pub gauges: GaugeSnapshot,
}

/// A cycle-windowed telemetry recorder: window and delta bookkeeping
/// around a [`Ring`] of [`Sample`]s, off by default like the event trace.
///
/// The hot-path cost while disabled is one test per cycle; once enabled,
/// recording allocates nothing (the ring is preallocated and old samples
/// are dropped, counted by the ring's [`Ring::dropped`]).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    window: u64,
    window_start: Cycle,
    last: CounterSnapshot,
    samples: Ring<Sample>,
}

impl TimeSeries {
    /// Creates a disabled recorder; [`TimeSeries::due`] is always false.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns recording on with the given window length (cycles) and ring
    /// capacity (samples), starting the first window at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `capacity` is zero.
    pub fn enable(&mut self, window: u64, capacity: usize, now: Cycle) {
        assert!(window > 0, "telemetry window must be at least one cycle");
        self.samples.enable(capacity);
        self.window = window;
        self.window_start = now;
        self.last = CounterSnapshot::default();
    }

    /// Whether the recorder is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.samples.is_enabled()
    }

    /// The configured window length in cycles (zero while disabled).
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// True when `now` has reached or passed the current window's end —
    /// the machine should take a sample. Always false while disabled.
    #[must_use]
    pub fn due(&self, now: Cycle) -> bool {
        self.is_enabled() && now >= self.window_start + self.window
    }

    /// Records one full window ending at `window_start + window`, given
    /// the cumulative counters and boundary gauges, then starts the next
    /// window. Call while [`TimeSeries::due`] holds (repeatedly, when
    /// fast-forward skipped several boundaries at once).
    pub fn sample(&mut self, cumulative: CounterSnapshot, gauges: GaugeSnapshot) {
        debug_assert!(self.is_enabled());
        self.samples.record(Sample {
            start: self.window_start,
            len: self.window,
            counters: cumulative.delta(&self.last),
            gauges,
        });
        self.last = cumulative;
        self.window_start += self.window;
    }

    /// Records the final, possibly shorter window `[window_start, now)`
    /// at end of run. No-op while disabled or if the window is empty.
    pub fn flush(&mut self, now: Cycle, cumulative: CounterSnapshot, gauges: GaugeSnapshot) {
        if !self.is_enabled() || now <= self.window_start {
            return;
        }
        self.samples.record(Sample {
            start: self.window_start,
            len: now - self.window_start,
            counters: cumulative.delta(&self.last),
            gauges,
        });
        self.last = cumulative;
        self.window_start = now;
    }

    /// The ring of retained samples, oldest first. When its
    /// [`Ring::dropped`] is zero, summed window deltas equal the
    /// end-of-run totals exactly.
    #[must_use]
    pub fn samples(&self) -> &Ring<Sample> {
        &self.samples
    }

    /// Sums the retained samples' counter deltas. With no dropped
    /// samples this equals the cumulative counters at the last boundary.
    #[must_use]
    pub fn totals(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for s in self.samples.iter() {
            total.accumulate(&s.counters);
        }
        total
    }

    /// The series as a JSON object: `window`, `dropped_windows`, one
    /// `windows` row per retained sample (counter deltas and gauges)
    /// and the re-aggregated `totals`. The one renderer behind the
    /// service's `telemetry` result field (`one_line`, NDJSON) and the
    /// bench `--metrics-out` documents (one window row per line);
    /// callers add their own keys before rendering.
    #[must_use]
    pub fn to_json(&self, one_line: bool) -> JsonObject {
        let windows: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                let row = JsonObject::new().uint("start", s.start).uint("len", s.len);
                row.uints(&s.counters.fields())
                    .uints(&s.gauges.fields())
                    .render()
            })
            .collect();
        let windows = if one_line {
            format!("[{}]", windows.join(", "))
        } else {
            array_lines(&windows, 4)
        };
        JsonObject::new()
            .uint("window", self.window())
            .uint("dropped_windows", self.samples.dropped())
            .raw("windows", windows)
            .raw(
                "totals",
                JsonObject::new().uints(&self.totals().fields()).render(),
            )
    }
}

/// The engine phases the machine can time inside one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// PNI outgoing-queue flush into the network copies.
    Flush,
    /// Network stage sweep across the `d` copies.
    Network,
    /// Memory-bank service and reply delivery.
    MemBanks,
    /// PE shard execution (instruction issue and retirement).
    PeShards,
}

impl EnginePhase {
    /// Stable display name (also the Perfetto track name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EnginePhase::Flush => "flush",
            EnginePhase::Network => "network",
            EnginePhase::MemBanks => "mem-banks",
            EnginePhase::PeShards => "pe-shards",
        }
    }

    /// A stable small integer for Perfetto `tid` assignment.
    #[must_use]
    pub fn track(self) -> u64 {
        match self {
            EnginePhase::Flush => 1,
            EnginePhase::Network => 2,
            EnginePhase::MemBanks => 3,
            EnginePhase::PeShards => 4,
        }
    }
}

/// One timed engine phase: wall-clock nanoseconds relative to the
/// recorder's enable point, tagged with the simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Simulated cycle the phase ran in.
    pub cycle: Cycle,
    /// Which engine phase.
    pub phase: EnginePhase,
    /// Wall-clock start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-cycle engine phase timing for Perfetto export: a [`Ring`] of
/// [`PhaseSpan`]s, off by default. The spans carry wall clock, so they
/// are *not* deterministic and never feed back into simulation state or
/// parity.
pub type PhaseRecorder = Ring<PhaseSpan>;

impl Ring<PhaseSpan> {
    /// Compatibility shim: the retained spans, oldest first — the same as
    /// [`Ring::iter`], kept for callers written against the recorder
    /// that predates [`Ring`]. ROADMAP item 4 deletes it.
    pub fn spans(&self) -> impl Iterator<Item = &PhaseSpan> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(injected: u64, combines: u64) -> CounterSnapshot {
        CounterSnapshot {
            injected_requests: injected,
            combines,
            ..CounterSnapshot::default()
        }
    }

    #[test]
    fn disabled_recorder_is_never_due() {
        let ts = TimeSeries::new();
        assert!(!ts.due(0));
        assert!(!ts.due(u64::MAX / 2));
        assert!(ts.samples().is_empty());
    }

    #[test]
    fn deltas_sum_to_totals() {
        let mut ts = TimeSeries::new();
        ts.enable(10, 64, 0);
        let mut cum = 0;
        for w in 1..=5u64 {
            cum += w * 3;
            assert!(ts.due(w * 10));
            ts.sample(counters(cum, w), GaugeSnapshot::default());
        }
        assert_eq!(ts.samples().len(), 5);
        assert_eq!(ts.samples().dropped(), 0);
        let totals = ts.totals();
        assert_eq!(totals.injected_requests, cum);
        assert_eq!(totals.combines, 5);
        // Individual deltas are per-window increments, not cumulative.
        let first = ts.samples().iter().next().unwrap();
        assert_eq!(first.counters.injected_requests, 3);
        assert_eq!(first.start, 0);
        assert_eq!(first.len, 10);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ts = TimeSeries::new();
        ts.enable(4, 3, 0);
        for i in 1..=7u64 {
            ts.sample(counters(i, 0), GaugeSnapshot::default());
        }
        assert_eq!(ts.samples().len(), 3);
        assert_eq!(ts.samples().dropped(), 4);
        let starts: Vec<u64> = ts.samples().iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![16, 20, 24], "oldest windows evicted first");
    }

    #[test]
    fn flush_records_partial_final_window() {
        let mut ts = TimeSeries::new();
        ts.enable(100, 8, 0);
        ts.sample(counters(10, 1), GaugeSnapshot::default());
        // Run ends mid-window at cycle 130.
        ts.flush(130, counters(14, 1), GaugeSnapshot::default());
        let last = ts.samples().iter().last().unwrap();
        assert_eq!(last.start, 100);
        assert_eq!(last.len, 30);
        assert_eq!(last.counters.injected_requests, 4);
        assert_eq!(last.counters.combines, 0);
        // Flushing again at the same cycle records nothing.
        ts.flush(130, counters(14, 1), GaugeSnapshot::default());
        assert_eq!(ts.samples().len(), 2);
    }

    #[test]
    fn fast_forward_boundary_catch_up_is_zero_delta() {
        let mut ts = TimeSeries::new();
        ts.enable(10, 16, 0);
        let cum = counters(42, 7);
        // Simulate a fast-forward that crossed three boundaries: the
        // machine samples three times with the same cumulative values.
        while ts.due(35) {
            ts.sample(cum, GaugeSnapshot::default());
        }
        assert_eq!(ts.samples().len(), 3);
        let deltas: Vec<u64> = ts
            .samples()
            .iter()
            .map(|s| s.counters.injected_requests)
            .collect();
        assert_eq!(deltas, vec![42, 0, 0]);
        assert_eq!(ts.totals().injected_requests, 42);
    }

    #[test]
    fn phase_recorder_rings() {
        let mut pr = PhaseRecorder::new();
        pr.record(PhaseSpan {
            cycle: 0,
            phase: EnginePhase::Network,
            start_ns: 0,
            dur_ns: 1,
        });
        assert_eq!(pr.iter().count(), 0, "disabled recorder stores nothing");
        pr.enable(2);
        for c in 0..5u64 {
            pr.record(PhaseSpan {
                cycle: c,
                phase: EnginePhase::PeShards,
                start_ns: c * 10,
                dur_ns: 5,
            });
        }
        assert_eq!(pr.dropped(), 3);
        let cycles: Vec<u64> = pr.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
    }
}
