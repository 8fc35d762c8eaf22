//! The metric catalog: every metric the benchmark reports, by name, with
//! its unit and direction. `BENCHMARK.json` at the repo root lists the
//! same names (a test holds the two together); README.md defines them.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's name, as printed.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which it may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one (README.md says what a "job" is on each).
///
/// `fail_ratio` is not in this list: the run's result line carries it
/// as `failed` / `attempted`, and its bound is zero — any failure makes
/// the run incorrect.
pub const END_TO_END: [Metric; 6] = [
    e2e("pe_cycles_per_s", "1/s", Higher, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("job_p50_ms", "ms", Lower, 0.25),
    e2e("job_p95_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.08),
];

/// Per-layer metrics, from the traced run. A metric that has no meaning
/// on a workload reads 0 there (README.md lists which).
pub const PER_LAYER: [Metric; 46] = [
    // Engine phases: host time per simulated cycle, by where it went.
    layer("net.sweep_ns_per_cycle", "ns", Lower),
    layer("mem.banks_ns_per_cycle", "ns", Lower),
    layer("core.flush_ns_per_cycle", "ns", Lower),
    layer("core.pe_shards_ns_per_cycle", "ns", Lower),
    layer("core.other_ns_per_cycle", "ns", Lower),
    layer("core.run_for_overhead_us", "us", Lower),
    layer("core.build_ms", "ms", Lower),
    // Normalisers and modelled-machine counters: exact, must not move.
    layer("core.sim_cycles", "count", Lower),
    layer("core.ff_cycles", "count", Higher),
    layer("core.host_ns_per_msg", "ns", Lower),
    layer("net.injected", "count", Lower),
    layer("net.combines", "count", Higher),
    layer("net.combine_ratio", "ratio", Higher),
    layer("net.inject_stalls", "count", Lower),
    layer("net.queue_high_water", "count", Lower),
    layer("mem.queue_depth_max", "count", Lower),
    layer("pe.idle_pct", "%", Lower),
    // Isolated kernels: one layer's public API driven directly.
    layer("net.cycle_ns_hot", "ns", Lower),
    layer("net.cycle_ns_uniform", "ns", Lower),
    layer("mem.bank_ns_per_req", "ns", Lower),
    layer("pe.pni_ns_per_req", "ns", Lower),
    layer("core.interp_ns_per_op", "ns", Lower),
    layer("alloc.count_per_cycle", "count", Lower),
    layer("alloc.bytes_per_cycle", "B", Lower),
    layer("core.par2_speedup", "ratio", Higher),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    // Service layers: median host time per job, by public call.
    layer("serve.parse_us", "us", Lower),
    layer("serve.report_us", "us", Lower),
    layer("serve.queue_ns_per_op", "ns", Lower),
    layer("serve.build_us", "us", Lower),
    layer("serve.snapshot_us", "us", Lower),
    layer("serve.cache_insert_us", "us", Lower),
    layer("core.snapshot_encode_mb_s", "MB/s", Higher),
    layer("serve.cache_lookup_us", "us", Lower),
    layer("serve.restore_us", "us", Lower),
    layer("core.snapshot_decode_mb_s", "MB/s", Higher),
    layer("core.snapshot_bytes", "B", Lower),
    layer("serve.simulate_us", "us", Lower),
    layer("serve.suffix_cycles_per_job", "count", Lower),
    layer("serve.checkpoints_per_job", "count", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.run_job_us", "us", Lower),
    layer("serve.wire_overhead_us", "us", Lower),
    layer("serve.wait_share", "ratio", Lower),
    layer("serve.server_cpu_s", "s", Lower),
    layer("serve.gen_lag_p95_ms", "ms", Lower),
];
