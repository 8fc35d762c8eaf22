//! Serving-tier load sweep: open-loop users vs. tail latency.
//!
//! Runs the [`ultra_workloads::Serving`] workload — seeded Poisson
//! arrivals, fetch-and-add ticket dispatch, KV records hashed across the
//! MMs — at a ladder of offered loads (descending mean inter-arrival
//! gap) on one machine shape, and prints the classic load-vs-latency
//! hockey stick: p50/p90/p99/max end-to-end request latency per point.
//!
//! ```text
//! cargo run --release -p ultra-bench --bin serving
//! ```
//!
//! Every point is a deterministic function of `(pes, seed, requests,
//! mean_gap)` — the same curve with fast-forward on or off and on every
//! run, which is
//! what lets CI diff the artifact byte-for-byte. Flags:
//!
//! * `--quick` — CI-sized run (fewer requests, fewer points).
//! * `--pes <n>` / `--requests <n>` / `--seed <n>` — machine shape.
//! * `--out <path>` — write the curve as a JSON artifact.
//! * `--check` — re-run every point with fast-forward disabled, and fail
//!   unless the rendered curve and the parity digest are identical in
//!   both; exits non-zero otherwise.
//! * `--metrics-out <path>` / `--trace-out <path>` — re-run the
//!   highest-load point with cycle-windowed telemetry and write the
//!   per-window series + heatmap as JSON / Chrome `trace_event` JSON.
//! * `--prom-out <path>` — write the sweep's latency distributions as a
//!   Prometheus text exposition (one summary per offered load), the
//!   same format `ultra-serve` answers to `{"metrics"}`.

use ultra_bench::json::{flag_path, ObsFlags};
use ultra_obs::json::{array_lines, JsonObject};
use ultra_obs::metrics::PromWriter;
use ultra_sim::stats::Histogram;
use ultra_sim::wire::fnv1a;
use ultra_sim::Cycle;
use ultra_workloads::Serving;
use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::{chrome_trace, MachineReport};

/// One measured point on the load-vs-latency curve.
struct Point {
    mean_gap: u64,
    cycles: Cycle,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    mean: f64,
    /// Completed requests per thousand cycles.
    throughput: f64,
    /// FNV-1a of the machine's canonical parity string.
    parity: u64,
    /// The full latency distribution behind the percentiles above.
    lat: Histogram,
}

/// How one sweep is configured: a fixed machine shape swept over gaps.
#[derive(Clone, Copy)]
struct Sweep {
    pes: usize,
    requests: usize,
    seed: u64,
}

/// Mirrors `JobSpec::recipe` in ultra-serve (network backend, pinned
/// budget) so a sweep replayed through the service lands on the same
/// parity digest as this bin.
fn build(sweep: Sweep, gap: u64, fast_forward: bool) -> (Serving, Machine) {
    let s = Serving::new(sweep.requests, gap).seed(sweep.seed);
    let mut recipe = MachineBuilder::new(sweep.pes)
        .seed(sweep.seed)
        .fast_forward(fast_forward)
        .max_cycles(Cycle::MAX)
        .recipe_spmd(&s.program());
    s.install(&mut recipe);
    (s, Machine::from_recipe(recipe))
}

fn measure(sweep: Sweep, gap: u64, fast_forward: bool) -> Point {
    let (s, mut m) = build(sweep, gap, fast_forward);
    let out = m.run();
    assert!(out.completed, "a serving sweep point must drain");
    let lat = s.latencies(&m);
    let parity = fnv1a(MachineReport::from_machine(&m).parity_string().as_bytes());
    Point {
        mean_gap: gap,
        cycles: out.cycles,
        p50: lat.percentile(50.0),
        p90: lat.percentile(90.0),
        p99: lat.percentile(99.0),
        max: lat.max(),
        mean: lat.mean(),
        throughput: sweep.requests as f64 * 1000.0 / out.cycles.max(1) as f64,
        parity,
        lat,
    }
}

/// The sweep as a Prometheus text exposition: one latency summary and
/// one throughput gauge per offered load, rendered from each point's
/// exact [`Histogram`] (same format `ultra-serve` serves live).
fn render_prom(points: &[Point]) -> String {
    let mut w = PromWriter::new();
    w.family(
        "ultra_bench_serving_request_latency_cycles",
        "summary",
        "end-to-end request latency in cycles per offered load (quantile 1 is the max)",
    );
    for p in points {
        let gap = p.mean_gap.to_string();
        w.summary(
            "ultra_bench_serving_request_latency_cycles",
            &[("mean_gap", gap.as_str())],
            &[
                ("0.5", p.p50 as f64),
                ("0.9", p.p90 as f64),
                ("0.99", p.p99 as f64),
                ("1", p.max as f64),
            ],
            p.lat.sum() as f64,
            p.lat.count(),
        );
    }
    w.family(
        "ultra_bench_serving_throughput_per_kcycle",
        "gauge",
        "completed requests per thousand cycles at each offered load",
    );
    for p in points {
        let gap = p.mean_gap.to_string();
        w.sample(
            "ultra_bench_serving_throughput_per_kcycle",
            &[("mean_gap", gap.as_str())],
            p.throughput,
        );
    }
    w.finish()
}

fn point_json(p: &Point) -> String {
    JsonObject::new()
        .uint("mean_gap", p.mean_gap)
        .uint("cycles", p.cycles)
        .uint("p50", p.p50)
        .uint("p90", p.p90)
        .uint("p99", p.p99)
        .uint("max", p.max)
        .float("mean", p.mean, 2)
        .float("throughput_per_kcycle", p.throughput, 4)
        .str("parity", &format!("{:016x}", p.parity))
        .render()
}

fn render_curve(sweep: Sweep, points: &[Point]) -> String {
    let rows: Vec<String> = points.iter().map(point_json).collect();
    let mut text = JsonObject::new()
        .str("bench", "serving")
        .uint("pes", sweep.pes as u64)
        .uint("requests", sweep.requests as u64)
        .uint("seed", sweep.seed)
        .raw("points", array_lines(&rows, 4))
        .render();
    text.push('\n');
    text
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let flag_num = |name: &str, default: u64| {
        args.iter().position(|a| a == name).map_or(default, |i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        })
    };
    let out_path = flag_path(&args, "--out");
    let prom_path = flag_path(&args, "--prom-out");
    let obs = ObsFlags::from_args(&args);
    let sweep = Sweep {
        pes: flag_num("--pes", 8) as usize,
        requests: flag_num("--requests", if quick { 256 } else { 1024 }) as usize,
        seed: flag_num("--seed", 42),
    };
    // Descending gap = ascending offered load; the last points push the
    // tier past saturation, where queueing delay dominates the tail.
    let gaps: &[u64] = if quick {
        &[200, 50, 12, 3]
    } else {
        &[400, 200, 100, 50, 25, 12, 6, 3]
    };

    println!(
        "serving sweep: {} PEs, {} requests, seed {}",
        sweep.pes, sweep.requests, sweep.seed
    );
    println!(
        "{:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "mean gap", "cycles", "p50", "p90", "p99", "max", "mean", "req/kcycle"
    );
    let mut points = Vec::new();
    for &gap in gaps {
        let p = measure(sweep, gap, true);
        println!(
            "{:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10.1} {:>12.4}",
            p.mean_gap, p.cycles, p.p50, p.p90, p.p99, p.max, p.mean, p.throughput
        );
        points.push(p);
    }
    println!(
        "\nExpected shape: latency sits near the bare service time while the\n\
         offered load fits in {} PEs, then the p99 (and then the p50) blow up\n\
         as arrivals outpace capacity and queueing delay accumulates.",
        sweep.pes
    );

    if let Some(path) = &out_path {
        std::fs::write(path, render_curve(sweep, &points)).expect("write --out file");
        println!("wrote {}", path.display());
    }

    if let Some(path) = &prom_path {
        std::fs::write(path, render_prom(&points)).expect("write --prom-out file");
        println!("wrote {}", path.display());
    }

    if check {
        // Engine parity: the rendered point (and the parity digest inside
        // it) must be byte-identical with fast-forward off.
        let mut failed = false;
        for (i, &gap) in gaps.iter().enumerate() {
            let base = point_json(&points[i]);
            let stepped = point_json(&measure(sweep, gap, false));
            if stepped != base {
                eprintln!(
                    "PARITY FAILURE at gap {gap}:\n  fast-forward: {base}\n  no-fast-forward: {stepped}"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("parity: fast-forward == no-fast-forward on every point");
    }

    if obs.any() {
        // One instrumented run of the highest-load point; observation
        // never perturbs the simulation.
        let gap = *gaps.last().expect("sweep has points");
        let (_, mut m) = build(sweep, gap, true);
        m.enable_telemetry(1024, 1 << 16);
        m.enable_trace(1 << 16);
        let out = m.run();
        assert!(out.completed, "instrumented run must complete");
        println!(
            "instrumented gap={gap}: {} cycles, {} telemetry windows",
            out.cycles,
            m.telemetry().samples().len()
        );
        obs.write("serving", m.telemetry(), m.heatmap().as_ref(), || {
            chrome_trace(&m)
        });
    }
}
