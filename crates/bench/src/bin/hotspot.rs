//! Experiment E6: the value of combining under hot-spot fetch-and-add
//! traffic (§2.3/§3.1.2's claim that "any number of concurrent memory
//! references to the same location can be satisfied in the time required
//! for just one central memory access").
//!
//! Each PE offers Bernoulli(p) traffic of which a fraction targets a
//! single shared fetch-and-add word. With combining on, the hot requests
//! merge in the tree; with combining off they serialize at one MM.
//!
//! ```text
//! cargo run --release -p ultra-bench --bin hotspot
//! ```
//!
//! `--metrics-out <path>` / `--trace-out <path>` re-run the n = 64
//! combining row with cycle-windowed telemetry and write the per-window
//! series + per-switch heatmap as JSON / Chrome `trace_event` JSON.

use ultra_bench::json::{series_chrome_trace, ObsFlags};
use ultra_bench::{run_open_loop, run_open_loop_observed, OpenLoopConfig, OpenLoopObservation};
use ultra_faults::FaultPlan;
use ultra_net::config::{NetConfig, SwitchPolicy};
use ultra_pe::traffic::HotspotTraffic;
use ultra_sim::{MemAddr, MmId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let obs_flags = ObsFlags::from_args(&args);
    let mut observed: Option<OpenLoopObservation> = None;
    println!("E6 — hot-spot fetch-and-add storm: combining vs. no combining");
    println!("(uniform background p = 0.08, hot fraction 30%, k = 2, 15-packet queues)\n");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>12} {:>11} {:>12}",
        "PEs", "policy", "mean RT (cyc)", "p95 RT (cyc)", "throughput", "offered srv", "combines"
    );
    for n in [16usize, 64, 256] {
        for (policy, label) in [
            (SwitchPolicy::QueuedCombining, "combining"),
            (SwitchPolicy::QueuedNoCombine, "no-combine"),
        ] {
            let cfg = OpenLoopConfig {
                net: NetConfig {
                    policy,
                    ..NetConfig::small(n)
                },
                copies: 1,
                mm_service: 2,
                warmup: 1_000,
                measure: 8_000,
            };
            let hot = MemAddr::new(MmId(0), 0);
            let mut traffic = HotspotTraffic::new(n, 0.08, 0.3, hot, 99);
            // Observation never perturbs the run, so the exported row is
            // the same row the table prints.
            let want_obs = obs_flags.any() && n == 64 && policy == SwitchPolicy::QueuedCombining;
            let r = if want_obs {
                let (r, obs) =
                    run_open_loop_observed(cfg, &FaultPlan::none(), &mut traffic, 256, 4096);
                observed = Some(obs);
                r
            } else {
                run_open_loop(cfg, &mut traffic)
            };
            println!(
                "{:>6} {:>12} {:>14.1} {:>14} {:>12.4} {:>8.0}% {:>12}",
                n,
                label,
                r.round_trip.mean(),
                r.round_trip.percentile(95.0),
                r.throughput,
                100.0 * r.completed as f64 / (r.injected + r.stalled_attempts).max(1) as f64,
                r.combines
            );
        }
        println!();
    }
    println!(
        "Expected shape: without combining the hot MM serializes the storm and\n\
         latency grows roughly linearly with N; with combining it stays near the\n\
         uncontended round trip at every N."
    );
    if let Some(obs) = &observed {
        obs_flags.write("hotspot", &obs.series, Some(&obs.heatmap), || {
            series_chrome_trace("hotspot", &obs.series)
        });
    }
}
