//! Perfetto/Chrome trace export for machine runs.
//!
//! Converts everything a [`Machine`] recorded — the event [`crate::trace`],
//! the engine's wall-clock phase spans, and the cycle-windowed telemetry
//! series — into one Chrome `trace_event` JSON document that loads directly
//! in `ui.perfetto.dev` or `chrome://tracing`. Three process-track groups
//! keep the two time bases apart:
//!
//! * **pid 1 "machine"** — simulated time, one cycle rendered as one
//!   microsecond. Each virtual PE is a thread track; replies become
//!   duration spans covering their round trip, issues and halts become
//!   instants.
//! * **pid 2 "engine"** — host wall-clock time in real microseconds. One
//!   thread track per [`EnginePhase`].
//! * **pid 3 "telemetry"** — counter tracks sampled at window boundaries
//!   (simulated time again), mirroring the [`TimeSeries`] the machine
//!   recorded.
//!
//! [`TimeSeries`]: ultra_obs::TimeSeries

use ultra_net::message::MsgKind;
use ultra_obs::{ChromeTraceBuilder, EnginePhase};

use crate::machine::Machine;
use crate::trace::TraceEvent;

/// Process id of the simulated-machine track group (1 cycle = 1 µs).
pub const PID_MACHINE: u64 = 1;
/// Process id of the engine wall-clock track group.
pub const PID_ENGINE: u64 = 2;
/// Process id of the telemetry counter track group.
pub const PID_TELEMETRY: u64 = 3;

fn issue_name(kind: MsgKind) -> &'static str {
    match kind {
        MsgKind::Load => "issue load",
        MsgKind::Store => "issue store",
        MsgKind::FetchPhi(_) => "issue fetch-and-phi",
    }
}

/// Renders the machine's recorded observability state as a Chrome
/// `trace_event` JSON array.
///
/// Sections whose recorder was never enabled simply contribute no events;
/// the result is always a valid (possibly metadata-only) trace.
#[must_use]
pub fn chrome_trace(m: &Machine) -> String {
    let mut b = ChromeTraceBuilder::new();
    b.process_name(PID_MACHINE, "machine (1 cycle = 1us)");
    b.process_name(PID_ENGINE, "engine (wall clock)");
    b.process_name(PID_TELEMETRY, "telemetry (per window)");
    for phase in [
        EnginePhase::Flush,
        EnginePhase::Network,
        EnginePhase::MemBanks,
        EnginePhase::PeShards,
    ] {
        b.thread_name(PID_ENGINE, phase.track(), phase.name());
    }

    for event in m.trace().iter() {
        match *event {
            TraceEvent::Issue {
                cycle, pe, kind, ..
            } => b.instant(issue_name(kind), PID_MACHINE, pe.0 as u64, cycle as f64),
            TraceEvent::Reply { cycle, pe, latency } => b.complete(
                "mem round-trip",
                PID_MACHINE,
                pe.0 as u64,
                cycle.saturating_sub(latency) as f64,
                latency as f64,
            ),
            TraceEvent::BarrierRelease { cycle, generation } => b.instant(
                &format!("barrier release (gen {generation})"),
                PID_MACHINE,
                0,
                cycle as f64,
            ),
            TraceEvent::Halt { cycle, pe } => {
                b.instant("halt", PID_MACHINE, pe.0 as u64, cycle as f64);
            }
        }
    }

    for span in m.phase_spans().iter() {
        b.complete(
            span.phase.name(),
            PID_ENGINE,
            span.phase.track(),
            span.start_ns as f64 / 1000.0,
            span.dur_ns as f64 / 1000.0,
        );
    }

    b.series(PID_TELEMETRY, m.telemetry());
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use crate::program::{body, Expr, Op, Program};

    fn contended_program() -> Program {
        Program::new(
            body(vec![
                Op::FetchAdd {
                    addr: Expr::Const(0),
                    delta: Expr::Const(1),
                    dst: Some(0),
                },
                Op::Halt,
            ]),
            vec![],
        )
    }

    #[test]
    fn trace_without_recorders_is_metadata_only() {
        let mut m = MachineBuilder::new(4).build_spmd(&contended_program());
        assert!(m.run().completed);
        let text = chrome_trace(&m);
        assert!(text.starts_with("[\n"));
        assert!(text.contains("process_name"));
        assert!(!text.contains("\"ph\": \"X\""));
        assert!(!text.contains("\"ph\": \"C\""));
    }

    #[test]
    fn full_recording_produces_all_three_track_groups() {
        let mut m = MachineBuilder::new(8).build_spmd(&contended_program());
        m.enable_trace(4096);
        m.enable_telemetry(8, 1024);
        m.enable_phase_spans(65536);
        assert!(m.run().completed);
        let text = chrome_trace(&m);
        assert!(text.contains("mem round-trip"));
        assert!(text.contains("issue fetch-and-phi"));
        assert!(text.contains("\"name\": \"halt\""));
        assert!(text.contains("window rates"));
        assert!(text.contains("pe-shards"));
        // Reply spans must start at cycle - latency, never negative.
        assert!(!text.contains("\"ts\": -"));
    }
}
