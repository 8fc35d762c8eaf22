//! A tiny wall-clock micro-benchmark harness for the `harness = false`
//! benches.
//!
//! The container this repo builds in has no access to the crates registry,
//! so the benches cannot depend on an external statistics framework. This
//! module provides the minimal surface they need: named groups, a
//! configurable sample count, and median/min/mean reporting over samples.
//! It is intentionally simple — the benches compare *relative* costs of
//! the simulator's network, switch and engine paths, not nanosecond-exact
//! latencies.

use std::time::{Duration, Instant};

/// One named group of related measurements (mirrors a Criterion group).
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    /// Creates a group that takes `DEFAULT_SAMPLES` samples per bench.
    #[must_use]
    pub fn new(name: &str) -> Self {
        println!("\n== {name} ==");
        Self {
            name: name.to_string(),
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Overrides the number of timed samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Times `f` (one warmup call, then `samples` timed calls) and prints
    /// `group/id: median min mean`.
    pub fn bench<F: FnMut()>(&mut self, id: &str, mut f: F) {
        f(); // warmup
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        let min = times[0];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{}/{}: median {} | min {} | mean {} ({} samples)",
            self.name,
            id,
            fmt(median),
            fmt(min),
            fmt(mean),
            self.samples
        );
    }
}

/// Default samples per measurement.
pub const DEFAULT_SAMPLES: usize = 20;

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}
