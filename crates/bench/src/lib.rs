//! Shared measurement harness for the table/figure binaries and Criterion
//! benches.
//!
//! The paper's §4 network studies are *open loop*: each PE offers
//! Bernoulli(p) traffic regardless of outstanding replies. [`run_open_loop`]
//! drives an [`ultra_net::OmegaNetwork`] (or several copies) against real
//! [`ultra_mem::MemBank`]s with that traffic and reports transit and
//! round-trip statistics — the simulated counterpart of the §4.1 analytic
//! model and the engine behind the Figure 7 validation points, the
//! hot-spot ablation (E6), the queue-depth study (E7) and the bandwidth
//! scaling study (E8).

pub mod json;
pub mod microbench;

use ultra_faults::FaultPlan;
use ultra_mem::{telemetry_gauges, AddressHasher, MemBank, TranslationMode};
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId};
use ultra_net::omega::ReplicatedOmega;
use ultra_obs::{HeatmapSnapshot, TimeSeries};
use ultra_pe::traffic::TrafficPattern;
use ultra_sim::{Cycle, Histogram, MmId, PeId};

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
#[derive(Debug, Clone)]
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
///
/// # Panics
///
/// Panics on internal inconsistencies (lost replies).
#[must_use]
pub fn run_open_loop(cfg: OpenLoopConfig, traffic: &mut dyn TrafficPattern) -> OpenLoopReport {
    run_open_loop_faulty(cfg, &FaultPlan::none(), traffic)
}

/// [`run_open_loop`] under a static [`FaultPlan`]: per-copy fault masks
/// are installed (dead copies/ports refuse injections and fail over),
/// dead MMs are killed and the generated traffic is re-hashed around
/// them exactly as the machine's degraded translation would. With
/// [`FaultPlan::none`] this is identical to the healthy runner.
///
/// # Panics
///
/// Panics on internal inconsistencies (lost replies).
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
/// Panics on internal inconsistencies (lost replies) and on zero
/// `window`/`capacity`.
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
    let mut nets = ReplicatedOmega::new(cfg.net, cfg.copies);
    for c in 0..cfg.copies {
        let mask = plan.mask_for_copy(c);
        if !mask.is_healthy() {
            nets.copy_mut(c).set_fault_mask(mask);
        }
    }
    let mut hasher = AddressHasher::new(n, TranslationMode::Interleaved);
    let dead = plan.dead_mms();
    if !dead.is_empty() {
        hasher.set_dead_mms(&dead);
    }
    let mut banks: Vec<MemBank> = (0..n)
        .map(|i| MemBank::new(MmId(i), cfg.mm_service))
        .collect();
    for mm in &dead {
        banks[mm.0].kill();
    }
    let mut copy_of: std::collections::HashMap<MsgId, usize> = std::collections::HashMap::new();
    let mut pending: Vec<Option<Message>> = vec![None; n];
    let mut next_id: u64 = 1;
    let mut report = OpenLoopReport {
        injected: 0,
        completed: 0,
        round_trip: Histogram::new(),
        forward_transit_mean: 0.0,
        drops: 0,
        combines: 0,
        throughput: 0.0,
        stalled_attempts: 0,
        queue_high_water: 0,
        fault_refusals: 0,
        failovers: 0,
        unroutable: 0,
    };
    let horizon = cfg.warmup + cfg.measure;
    // Drain window: let in-flight traffic finish (no new injections).
    let drain = horizon + 4 * (cfg.warmup + 100);

    for now in 0..drain {
        // 1. Flush pending injections.
        for slot in pending.iter_mut() {
            if let Some(msg) = slot.take() {
                // A request every copy refuses outright (dead copy or a
                // dead port on its only route) can never inject: abandon
                // it instead of wedging this PE's buffer forever.
                if (0..nets.copies()).all(|c| nets.copy(c).fault_refuses(&msg)) {
                    report.unroutable += 1;
                    continue;
                }
                let id = msg.id;
                let issued_at = msg.issued_at;
                match nets.try_inject_request(msg, now) {
                    Ok(copy) => {
                        copy_of.insert(id, copy);
                        if (cfg.warmup..horizon).contains(&issued_at) {
                            report.injected += 1;
                        }
                    }
                    Err(m) => *slot = Some(m),
                }
            }
        }
        // 2. Memory banks serve and reply.
        for bank in &mut banks {
            bank.cycle(now);
            while let Some(r) = bank.peek_reply() {
                let copy = copy_of[&r.id];
                let reply = r.clone();
                match nets.try_inject_reply(copy, reply, now) {
                    Ok(()) => {
                        let _ = bank.pop_reply();
                    }
                    Err(_) => break,
                }
            }
        }
        // 3. The fabric moves.
        nets.cycle_inplace(now);
        for copy in 0..nets.copies() {
            let events = nets.events_mut(copy);
            for msg in events.requests_at_mm.drain(..) {
                banks[msg.addr.mm.0].push_request(msg);
            }
            for reply in events.replies_at_pe.drain(..) {
                copy_of.remove(&reply.id);
                if reply.request_issued_at >= cfg.warmup && reply.request_issued_at < horizon {
                    report.completed += 1;
                    report
                        .round_trip
                        .record(now.saturating_sub(reply.request_issued_at));
                }
            }
            let dropped = std::mem::take(&mut events.dropped);
            for dropped in dropped {
                // Retry from the PE (its buffer is free: the drop came from
                // a message already injected).
                let pe = dropped.src.0;
                if pending[pe].is_none() {
                    pending[pe] = Some(dropped);
                }
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
            series.sample(nets.telemetry_counters(), telemetry_gauges(&nets, &banks));
        }
    }
    series.flush(
        drain,
        nets.telemetry_counters(),
        telemetry_gauges(&nets, &banks),
    );

    let totals = nets.net_stats();
    report.forward_transit_mean = totals.forward_transit.mean();
    report.queue_high_water = nets.request_queue_high_water();
    report.drops = totals.drops.get();
    report.combines = totals.combines.get();
    report.fault_refusals = totals.fault_refusals.get();
    report.failovers = nets.failovers();
    report.throughput = report.completed as f64 / (n as f64 * cfg.measure as f64);
    (report, nets.heatmap())
}

/// Formats a value/percent cell for the table binaries.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:>4.0}%", 100.0 * x)
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
