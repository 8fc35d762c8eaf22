//! Shared measurement harness for the table/figure binaries and Criterion
//! benches.
//!
//! The paper's §4 network studies are *open loop*: each PE offers
//! Bernoulli(p) traffic regardless of outstanding replies. [`run_open_loop`]
//! drives an [`ultra_mem::Fabric`] (the `d` network copies and memory
//! banks the machine itself uses) with that traffic and reports transit
//! and round-trip statistics — the simulated counterpart of the §4.1
//! analytic model and the engine behind the Figure 7 validation points,
//! the hot-spot ablation (E6), the queue-depth study (E7), the bandwidth
//! scaling study (E8) and the fault sweeps (E14). Only the PE side is its
//! own: one outbound buffer per PE, and a request the network drops is
//! re-offered only if that buffer is free.

pub mod json;
pub mod microbench;

use ultra_faults::FaultPlan;
use ultra_mem::{AddressHasher, Fabric, Offer, TranslationMode};
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId, Reply};
use ultra_obs::{HeatmapSnapshot, TimeSeries};
use ultra_pe::traffic::TrafficPattern;
use ultra_sim::{Cycle, Histogram, PeId};

/// Configuration of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Network geometry/policy.
    pub net: NetConfig,
    /// Network copies `d`.
    pub copies: usize,
    /// MM service time in cycles.
    pub mm_service: Cycle,
    /// Cycles to run before measuring (pipeline fill).
    pub warmup: Cycle,
    /// Measurement window in cycles.
    pub measure: Cycle,
}

impl OpenLoopConfig {
    /// A small default: `n` PEs, 2×2 switches, one copy, §4.2 timing.
    #[must_use]
    pub fn small(n: usize) -> Self {
        Self {
            net: NetConfig::small(n),
            copies: 1,
            mm_service: 2,
            warmup: 200,
            measure: 2_000,
        }
    }
}

/// What an open-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Requests injected during the measurement window.
    pub injected: u64,
    /// Replies received for requests issued in the window.
    pub completed: u64,
    /// Round-trip times (issue → reply) for those requests.
    pub round_trip: Histogram,
    /// Forward transit mean from the network's own stats (all traffic).
    pub forward_transit_mean: f64,
    /// Requests killed (DropOnConflict only).
    pub drops: u64,
    /// Combines performed.
    pub combines: u64,
    /// Delivered-request throughput in messages per PE per cycle.
    pub throughput: f64,
    /// Generator attempts that could not inject (backpressure/saturation).
    pub stalled_attempts: u64,
    /// Largest forward-queue packet occupancy observed anywhere.
    pub queue_high_water: usize,
    /// Injections refused by a dead copy or dead port (fault plans only).
    pub fault_refusals: u64,
    /// Refused requests a later network copy carried instead.
    pub failovers: u64,
    /// Requests abandoned because every copy's route to their MM was
    /// dead — the open-loop stand-in for the OS remapping that memory.
    pub unroutable: u64,
}

/// Runs `traffic` against the configured network + memory and measures.
///
/// Every PE holds at most one un-injected request (the PNI outbound
/// buffer); generator emissions while the buffer is full are counted in
/// `stalled_attempts` and discarded — the open-loop convention.
#[must_use]
pub fn run_open_loop(cfg: OpenLoopConfig, traffic: &mut dyn TrafficPattern) -> OpenLoopReport {
    run_open_loop_faulty(cfg, &FaultPlan::none(), traffic)
}

/// [`run_open_loop`] under a static [`FaultPlan`]: per-copy fault masks
/// are installed (dead copies/ports refuse injections and fail over),
/// dead MMs are killed and the generated traffic is re-hashed around
/// them exactly as the machine's degraded translation would. With
/// [`FaultPlan::none`] this is identical to the healthy runner.
#[must_use]
pub fn run_open_loop_faulty(
    cfg: OpenLoopConfig,
    plan: &FaultPlan,
    traffic: &mut dyn TrafficPattern,
) -> OpenLoopReport {
    let mut unused = TimeSeries::new();
    run_open_loop_inner(cfg, plan, traffic, &mut unused).0
}

/// Telemetry captured alongside an observed open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopObservation {
    /// Per-window counter deltas and gauges over the whole run
    /// (including warmup and drain — the open loop has no reason to hide
    /// the fill).
    pub series: TimeSeries,
    /// Per-switch combine/queue/wait totals at end of run.
    pub heatmap: HeatmapSnapshot,
}

/// [`run_open_loop_faulty`] with cycle-windowed telemetry: samples the
/// fabric's cumulative counters every `window` cycles into a ring of
/// `capacity` windows and snapshots the per-switch heatmap at the end.
/// Observation only reads simulator state, so the report is bit-identical
/// to the unobserved runner's.
///
/// # Panics
///
/// Panics on zero `window`/`capacity`.
#[must_use]
pub fn run_open_loop_observed(
    cfg: OpenLoopConfig,
    plan: &FaultPlan,
    traffic: &mut dyn TrafficPattern,
    window: u64,
    capacity: usize,
) -> (OpenLoopReport, OpenLoopObservation) {
    let mut series = TimeSeries::new();
    series.enable(window, capacity, 0);
    let (report, heatmap) = run_open_loop_inner(cfg, plan, traffic, &mut series);
    (report, OpenLoopObservation { series, heatmap })
}

fn run_open_loop_inner(
    cfg: OpenLoopConfig,
    plan: &FaultPlan,
    traffic: &mut dyn TrafficPattern,
    series: &mut TimeSeries,
) -> (OpenLoopReport, HeatmapSnapshot) {
    let n = cfg.net.pes;
    let mut fabric = Fabric::new(cfg.net, cfg.copies, cfg.mm_service, plan);
    let mut hasher = AddressHasher::new(n, TranslationMode::Interleaved);
    hasher.set_dead_mms(&plan.dead_mms());
    let mut pending: Vec<Option<Message>> = vec![None; n];
    let mut deliveries: Vec<Reply> = Vec::new();
    let mut next_id: u64 = 1;
    let mut report = OpenLoopReport::default();
    let horizon = cfg.warmup + cfg.measure;
    // Drain window: let in-flight traffic finish (no new injections).
    let drain = horizon + 4 * (cfg.warmup + 100);

    for now in 0..drain {
        // 1. Flush pending injections.
        for slot in pending.iter_mut() {
            if let Some(msg) = slot.take() {
                let issued_at = msg.issued_at;
                match fabric.offer(msg, now) {
                    Offer::Injected => {
                        if (cfg.warmup..horizon).contains(&issued_at) {
                            report.injected += 1;
                        }
                    }
                    Offer::Refused(m) => *slot = Some(m),
                    // Abandoned instead of wedging this PE's buffer forever.
                    Offer::Unroutable => report.unroutable += 1,
                }
            }
        }
        // 2. Memory banks serve and reply; 3. the fabric moves.
        fabric.serve_banks(now);
        fabric.advance(now, &mut deliveries, |dropped| {
            // Retry from the PE if its buffer is free.
            let slot = &mut pending[dropped.src.0];
            if slot.is_none() {
                *slot = Some(dropped);
            }
        });
        for reply in deliveries.drain(..) {
            if (cfg.warmup..horizon).contains(&reply.request_issued_at) {
                report.completed += 1;
                report
                    .round_trip
                    .record(now.saturating_sub(reply.request_issued_at));
            }
        }
        // 4. Generators emit (only before the horizon).
        if now < horizon {
            for (pe, slot) in pending.iter_mut().enumerate() {
                if let Some(spec) = traffic.generate(PeId(pe)) {
                    if slot.is_none() {
                        let msg = Message::request(
                            MsgId(next_id),
                            spec.kind,
                            hasher.remap(spec.addr),
                            spec.value,
                            PeId(pe),
                            now,
                        );
                        next_id += 1;
                        *slot = Some(msg);
                    } else {
                        report.stalled_attempts += 1;
                    }
                }
            }
        }
        // 5. Window boundary: record the delta (no-op unless observed).
        while series.due(now + 1) {
            let (counters, gauges) = fabric.telemetry_sample();
            series.sample(counters, gauges);
        }
    }
    let (counters, gauges) = fabric.telemetry_sample();
    series.flush(drain, counters, gauges);

    let totals = fabric.net_stats();
    report.forward_transit_mean = totals.forward_transit.mean();
    report.queue_high_water = fabric.request_queue_high_water();
    report.drops = totals.drops.get();
    report.combines = totals.combines.get();
    report.fault_refusals = totals.fault_refusals.get();
    report.failovers = fabric.failovers();
    report.throughput = report.completed as f64 / (n as f64 * cfg.measure as f64);
    (report, fabric.heatmap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_pe::traffic::UniformTraffic;

    #[test]
    fn light_uniform_load_round_trip_near_minimum() {
        // 64 PEs, 6 stages of 2x2: min round trip = 6 (fwd load) + 2 (MM)
        // + 8 (reverse data) = 16 cycles, plus queueing at p = 0.05.
        let cfg = OpenLoopConfig::small(64);
        let mut traffic = UniformTraffic::new(64, 0.05, 1.0, 11);
        let r = run_open_loop(cfg, &mut traffic);
        assert!(r.completed > 3000, "completed = {}", r.completed);
        let mean = r.round_trip.mean();
        assert!(
            (16.0..26.0).contains(&mean),
            "mean round trip {mean} should be a little above the 16-cycle floor"
        );
        assert_eq!(r.completed, r.injected, "all measured traffic drains");
    }

    #[test]
    fn saturation_shows_as_stalls() {
        // p = 0.5 with 3-packet messages exceeds capacity 1/3: the
        // generator must be throttled by backpressure.
        let cfg = OpenLoopConfig::small(16);
        let mut traffic = UniformTraffic::new(16, 0.5, 0.0, 5);
        let r = run_open_loop(cfg, &mut traffic);
        assert!(r.stalled_attempts > 0);
        assert!(
            r.throughput < 0.40,
            "throughput {} is capacity-bound",
            r.throughput
        );
    }
}
