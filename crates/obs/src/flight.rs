//! A bounded flight recorder for service-layer job events.
//!
//! The service keeps the last *K* structured events in a ring — cheap
//! enough to leave on in production — so that when a job errors or
//! times out, the operator gets the recent history *leading up to* the
//! failure, not just the failure line. Every event is recorded into the
//! ring regardless of level; the level only gates what is *emitted* to
//! stderr at record time (record-everything, filter-on-emit), so a
//! post-mortem [`FlightRecorder::dump`] always has the debug-level
//! breadcrumbs.
//!
//! Events render as NDJSON through [`JsonObject`] (sorted keys), so a
//! dump is greppable and `json.tool`-parseable line by line.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonObject;
use crate::ring::Ring;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightLevel {
    /// Per-slice / per-checkpoint detail.
    Debug,
    /// Job lifecycle milestones.
    Info,
    /// Degraded but continuing (timeouts, budget exhaustion).
    Warn,
    /// Job or protocol failure.
    Error,
}

impl FlightLevel {
    /// The lowercase name used in rendered events and `--log-level`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Debug => "debug",
            Self::Info => "info",
            Self::Warn => "warn",
            Self::Error => "error",
        }
    }

    /// Parses a `--log-level` argument (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Self::Debug),
            "info" => Some(Self::Info),
            "warn" | "warning" => Some(Self::Warn),
            "error" => Some(Self::Error),
            _ => None,
        }
    }
}

/// One recorded service event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotone sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Severity.
    pub level: FlightLevel,
    /// Job id the event belongs to (empty for service-wide events).
    pub job: String,
    /// Short machine-readable event kind (`"result"`, `"cache"`, …).
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

impl FlightEvent {
    /// Renders the event as one NDJSON line (sorted keys, no trailing
    /// newline).
    #[must_use]
    pub fn render(&self) -> String {
        JsonObject::new()
            .uint("at_us", self.at_us)
            .str("detail", &self.detail)
            .str("event", &self.kind)
            .str("job", &self.job)
            .str("level", self.level.as_str())
            .uint("seq", self.seq)
            .render()
    }
}

/// The recorder's interior: the sequence counter and the event ring.
#[derive(Debug)]
struct FlightState {
    next_seq: u64,
    ring: Ring<FlightEvent>,
}

/// A lock-cheap bounded [`Ring`] of the last K service events.
///
/// The only synchronization is one short mutex hold per record; rendering
/// happens outside any lock held by other recorders. Capacity is fixed at
/// construction; once full, the oldest event is dropped and counted in
/// the ring's [`Ring::dropped`].
#[derive(Debug)]
pub struct FlightRecorder {
    start: Instant,
    state: Mutex<FlightState>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let mut ring = Ring::new();
        ring.enable(capacity);
        Self {
            start: Instant::now(),
            state: Mutex::new(FlightState { next_seq: 0, ring }),
        }
    }

    /// Microseconds since the recorder was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records one event (always stored, whatever its level) and
    /// returns its rendered NDJSON line so callers can also emit it.
    pub fn record(&self, level: FlightLevel, job: &str, kind: &str, detail: &str) -> String {
        let at_us = self.now_us();
        let mut state = self.state.lock().expect("flight recorder poisoned");
        let ev = FlightEvent {
            seq: state.next_seq,
            at_us,
            level,
            job: job.to_owned(),
            kind: kind.to_owned(),
            detail: detail.to_owned(),
        };
        state.next_seq += 1;
        let line = ev.render();
        state.ring.record(ev);
        line
    }

    /// The rendered NDJSON lines of every event currently in the ring,
    /// oldest first.
    #[must_use]
    pub fn dump(&self) -> Vec<String> {
        self.with_ring(|ring| ring.iter().map(FlightEvent::render).collect())
    }

    /// Reads the event ring — its length, capacity and drop count, say —
    /// under one hold of the recorder's lock.
    pub fn with_ring<R>(&self, read: impl FnOnce(&Ring<FlightEvent>) -> R) -> R {
        read(&self.state.lock().expect("flight recorder poisoned").ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(FlightLevel::Debug < FlightLevel::Info);
        assert!(FlightLevel::Info < FlightLevel::Warn);
        assert!(FlightLevel::Warn < FlightLevel::Error);
        assert_eq!(FlightLevel::parse("WARN"), Some(FlightLevel::Warn));
        assert_eq!(FlightLevel::parse("warning"), Some(FlightLevel::Warn));
        assert_eq!(FlightLevel::parse("verbose"), None);
    }

    #[test]
    fn sequence_numbers_survive_the_ring_wrap() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(FlightLevel::Info, "j", "tick", &format!("n={i}"));
        }
        let dump = rec.dump();
        // Oldest-first, numbered from the first event ever recorded.
        assert!(dump[0].contains("\"seq\": 2"), "{}", dump[0]);
        assert!(dump[2].contains("\"seq\": 4"), "{}", dump[2]);
        assert!(dump[0].contains("\"detail\": \"n=2\""));
    }

    #[test]
    fn events_render_as_escaped_sorted_key_json() {
        let rec = FlightRecorder::new(4);
        let line = rec.record(FlightLevel::Error, "job \"a\"", "result", "x\ny");
        assert!(line.starts_with("{\"at_us\": "));
        assert!(line.contains("\"detail\": \"x\\ny\""));
        assert!(line.contains("\"job\": \"job \\\"a\\\"\""));
        assert!(line.contains("\"level\": \"error\""));
        // Keys appear in sorted order.
        let at = line.find("\"at_us\"").unwrap();
        let detail = line.find("\"detail\"").unwrap();
        let event = line.find("\"event\"").unwrap();
        let job = line.find("\"job\"").unwrap();
        let level = line.find("\"level\"").unwrap();
        let seq = line.find("\"seq\"").unwrap();
        assert!(at < detail && detail < event && event < job && job < level && level < seq);
    }

    #[test]
    fn debug_events_are_stored_even_when_not_emitted() {
        // The recorder itself never filters; emission policy lives in
        // the caller. Everything lands in the ring.
        let rec = FlightRecorder::new(8);
        rec.record(FlightLevel::Debug, "j", "slice", "cycle=100");
        rec.record(FlightLevel::Error, "j", "result", "boom");
        assert_eq!(rec.dump().len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = FlightRecorder::new(0);
    }
}
