//! Property tests for the observability layer (`ultra-obs` threaded
//! through the machine and the open-loop harness).
//!
//! The recorder stores per-window *deltas* of cumulative counters, so by
//! construction the sum over all windows must equal the end-of-run
//! totals — here that identity is checked against the machine's own
//! `NetStats` across random configurations, along with the structural
//! validity of the Perfetto `trace_event` export.

use ultra_faults::FaultPlan;
use ultra_pe::traffic::HotspotTraffic;
use ultra_sim::rng::{Rng, SplitMix64};
use ultra_sim::{MemAddr, MmId};
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::{chrome_trace, MachineBuilder, MachineReport};

use ultra_bench::{run_open_loop_faulty, run_open_loop_observed, OpenLoopConfig};

/// Deterministic "forall": seeded cases, failures reported with the case
/// number so they replay exactly.
fn forall(cases: u64, label: &str, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(0x0B5E_4B17 ^ (case.wrapping_mul(0x9e37_79b9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{label}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

fn ticket_program(iters: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(iters),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: Expr::add(Expr::Const(1000), Expr::Reg(0)),
                        value: Expr::Const(1),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// Summed per-window deltas must equal the machine's cumulative
/// `NetStats` totals — for any window length, PE count, copy count, and
/// workload size, as long as the ring never dropped a sample.
#[test]
fn window_sums_equal_net_stats_totals() {
    forall(10, "window sums == NetStats totals", |rng| {
        let n = [4usize, 8, 16, 32][rng.range_u64(0..4) as usize];
        let copies = 1 + rng.range_u64(0..2) as usize;
        let window = 1 + rng.range_u64(0..300);
        let iters = 2 + rng.range_u64(0..6) as i64;
        let mut m = MachineBuilder::new(n)
            .network(copies)
            .seed(rng.next_u64())
            .build_spmd(&ticket_program(iters));
        m.enable_telemetry(window, 1 << 14);
        assert!(m.run().completed);
        assert_eq!(
            m.telemetry().samples().dropped(),
            0,
            "ring must hold the whole run"
        );
        let totals = m.telemetry().totals();
        let net = MachineReport::from_machine(&m).net;
        assert_eq!(totals.injected_requests, net.injected_requests.get());
        assert_eq!(totals.delivered_requests, net.delivered_requests.get());
        assert_eq!(totals.injected_replies, net.injected_replies.get());
        assert_eq!(totals.delivered_replies, net.delivered_replies.get());
        assert_eq!(totals.combines, net.combines.get());
        assert_eq!(totals.decombines, net.decombines.get());
        assert_eq!(totals.inject_stalls, net.inject_stalls.get());
        assert_eq!(totals.fault_dropped, net.fault_dropped.get());
        assert_eq!(totals.fault_refusals, net.fault_refusals.get());
        // Windows tile simulated time: consecutive, no gaps or overlaps.
        let samples: Vec<_> = m.telemetry().samples().iter().copied().collect();
        for pair in samples.windows(2) {
            assert_eq!(pair[0].start + pair[0].len, pair[1].start);
        }
        let last = samples.last().expect("at least the flush window");
        assert_eq!(last.start + last.len, m.now());
    });
}

/// The heatmap's per-switch combine counts must re-aggregate to the same
/// total the network statistics report.
#[test]
fn heatmap_combines_reaggregate_to_totals() {
    forall(6, "heatmap == combine totals", |rng| {
        let n = [8usize, 16, 32][rng.range_u64(0..3) as usize];
        let copies = 1 + rng.range_u64(0..2) as usize;
        let mut m = MachineBuilder::new(n)
            .network(copies)
            .seed(rng.next_u64())
            .build_spmd(&ticket_program(4));
        m.enable_telemetry(64, 1 << 12);
        assert!(m.run().completed);
        let heatmap = m.heatmap().expect("network backend has a heatmap");
        let from_cells: u64 = heatmap.combines().iter().sum();
        let net = MachineReport::from_machine(&m).net;
        assert_eq!(from_cells, net.combines.get());
    });
}

/// Minimal structural validation of a `trace_event` JSON document
/// without a JSON parser: an array of one-line objects, each carrying
/// the `name`/`ph`/`ts`/`pid`/`tid` fields Perfetto requires.
fn assert_valid_trace_event_json(text: &str) {
    let trimmed = text.trim();
    assert!(trimmed.starts_with('['), "must be a JSON array");
    assert!(trimmed.ends_with(']'), "array must close");
    let inner = &trimmed[1..trimmed.len() - 1];
    let mut events = 0usize;
    for line in inner.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let obj = line.strip_suffix(',').unwrap_or(line);
        assert!(
            obj.starts_with('{') && obj.ends_with('}'),
            "event must be a one-line object: {obj}"
        );
        for field in ["\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            assert!(obj.contains(field), "event missing {field}: {obj}");
        }
        events += 1;
    }
    assert!(events > 0, "trace must contain events");
}

#[test]
fn machine_chrome_trace_is_structurally_valid() {
    let mut m = MachineBuilder::new(16).build_spmd(&ticket_program(6));
    m.enable_trace(1 << 12);
    m.enable_telemetry(32, 1 << 10);
    m.enable_phase_spans(1 << 12);
    assert!(m.run().completed);
    let text = chrome_trace(&m);
    assert_valid_trace_event_json(&text);
    assert!(text.contains("\"ph\": \"X\""), "round-trip spans present");
    assert!(text.contains("\"ph\": \"C\""), "counter tracks present");
    assert!(text.contains("\"ph\": \"M\""), "track metadata present");
}

#[test]
fn series_chrome_trace_is_structurally_valid() {
    let cfg = OpenLoopConfig::small(16);
    let hot = MemAddr::new(MmId(0), 0);
    let mut traffic = HotspotTraffic::new(16, 0.1, 0.3, hot, 7);
    let (_, obs) = run_open_loop_observed(cfg, &FaultPlan::none(), &mut traffic, 128, 1024);
    assert!(obs.series.samples().len() > 1, "run spans several windows");
    let text = ultra_bench::json::series_chrome_trace("hotspot", &obs.series);
    assert_valid_trace_event_json(&text);
}

/// Observation must not perturb the open-loop run: the observed runner's
/// report matches the plain runner's, and its window sums re-aggregate
/// to the fabric totals the report exposes.
#[test]
fn observed_open_loop_matches_plain_runner() {
    let run_traffic = || HotspotTraffic::new(16, 0.1, 0.3, MemAddr::new(MmId(0), 0), 7);
    let cfg = OpenLoopConfig::small(16);
    let plain = run_open_loop_faulty(cfg, &FaultPlan::none(), &mut run_traffic());
    let (observed, obs) =
        run_open_loop_observed(cfg, &FaultPlan::none(), &mut run_traffic(), 64, 4096);
    assert_eq!(plain.injected, observed.injected);
    assert_eq!(plain.completed, observed.completed);
    assert_eq!(plain.combines, observed.combines);
    assert_eq!(plain.stalled_attempts, observed.stalled_attempts);
    assert_eq!(plain.queue_high_water, observed.queue_high_water);
    assert_eq!(obs.series.samples().dropped(), 0);
    let totals = obs.series.totals();
    assert_eq!(totals.combines, observed.combines);
    let heat_combines: u64 = obs.heatmap.combines().iter().sum();
    assert_eq!(heat_combines, observed.combines);
}
