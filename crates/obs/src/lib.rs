//! Observability for the Ultracomputer simulator.
//!
//! The paper's whole evaluation (§4–§5) rests on *observing* simulated
//! runs, yet end-of-run aggregates (`NetStats`, `PeStats`) can only say
//! what happened on average — never *when* congestion formed or *where*
//! in the fabric it sat. This crate supplies the three missing views:
//!
//! * [`series`] — a cycle-windowed time-series recorder ([`TimeSeries`])
//!   the machine samples at window boundaries, turning cumulative
//!   counters into rate-over-time curves. Off by default, zero
//!   allocation once enabled, and deterministic: the sampled series is
//!   bit-identical with the idle fast-forward on and off.
//! * [`chrome`] — a hand-serialized Chrome/Perfetto `trace_event` JSON
//!   writer ([`ChromeTraceBuilder`]), so event rings, engine-phase
//!   spans and telemetry series load directly in `ui.perfetto.dev`.
//! * [`heatmap`] — per-switch, per-stage matrices ([`HeatmapSnapshot`])
//!   of combine counts, queue high-water marks and wait-buffer
//!   occupancy, with an ASCII renderer for report footers.
//!
//! The modules above observe the simulated *machine* in simulated time.
//! Two further modules observe the **service wrapped around it** in
//! wall-clock time (see `ultra-serve`):
//!
//! * [`metrics`] — a dep-free service-metrics registry
//!   ([`MetricsRegistry`]: counters and gauges on relaxed atomics) with
//!   Prometheus-style text exposition ([`PromWriter`]).
//! * [`flight`] — a bounded flight recorder ([`FlightRecorder`]) keeping
//!   the last K structured NDJSON job events for post-mortem dumps.
//!
//! Underneath all of them sit [`ring`], the one bounded drop-oldest
//! buffer ([`Ring`]) that every recorder — the machine's event trace,
//! its phase spans and telemetry windows, the flight recorder and the
//! service's job spans — keeps its entries in, and [`json`], the
//! workspace's one JSON writer and reader (no serde): every text
//! artifact the repo emits or accepts goes through it.
//!
//! Everything here is passive: recording never feeds back into the
//! simulation, so enabling telemetry cannot perturb `parity_string`.

pub mod chrome;
pub mod flight;
pub mod heatmap;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod series;

pub use chrome::ChromeTraceBuilder;
pub use flight::{FlightEvent, FlightLevel, FlightRecorder};
pub use heatmap::HeatmapSnapshot;
pub use metrics::{Counter, Gauge, MetricKind, MetricsRegistry, PromWriter};
pub use ring::Ring;
pub use series::{
    CounterSnapshot, EnginePhase, GaugeSnapshot, PhaseRecorder, PhaseSpan, Sample, TimeSeries,
};
