//! The observability artifacts of the bench binaries: the
//! `--metrics-out` / `--trace-out` flags and the two documents they
//! ask for, rendered through [`ultra_obs::json`].

use std::path::PathBuf;

use ultra_obs::{ChromeTraceBuilder, HeatmapSnapshot, TimeSeries};

/// The path following flag `name` in `args`, if the flag is present.
///
/// # Panics
///
/// Panics if the flag is the last argument.
#[must_use]
pub fn flag_path(args: &[String], name: &str) -> Option<PathBuf> {
    args.iter().position(|a| a == name).map(|i| {
        PathBuf::from(
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a path")),
        )
    })
}

/// Where an observed run's telemetry should go: the `--metrics-out` and
/// `--trace-out` flags shared by the `engine`, `serving`, `hotspot` and
/// `degradation` bins.
#[derive(Debug)]
pub struct ObsFlags {
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
}

impl ObsFlags {
    /// Reads both flags from the process arguments.
    #[must_use]
    pub fn from_args(args: &[String]) -> Self {
        Self {
            metrics: flag_path(args, "--metrics-out"),
            trace: flag_path(args, "--trace-out"),
        }
    }

    /// Whether either file was asked for, i.e. whether the bin has to
    /// make its observed run at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }

    /// Writes the files that were asked for: [`metrics_json`] of the
    /// observed `series` (and `heatmap`), and the Chrome trace `trace`
    /// renders.
    ///
    /// # Panics
    ///
    /// Panics if a file cannot be written.
    pub fn write(
        &self,
        bench: &str,
        series: &TimeSeries,
        heatmap: Option<&HeatmapSnapshot>,
        trace: impl FnOnce() -> String,
    ) {
        if let Some(path) = &self.metrics {
            std::fs::write(path, metrics_json(bench, series, heatmap))
                .expect("write --metrics-out file");
            println!("wrote {}", path.display());
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, trace()).expect("write --trace-out file");
            println!("wrote {}", path.display());
        }
    }
}

/// Renders a recorded [`TimeSeries`] (plus an optional heatmap) as the
/// `--metrics-out` document: per-window counter deltas and gauges, the
/// re-aggregated totals, and ring bookkeeping.
#[must_use]
pub fn metrics_json(bench: &str, series: &TimeSeries, heatmap: Option<&HeatmapSnapshot>) -> String {
    let mut top = series.to_json(false).str("bench", bench);
    if let Some(h) = heatmap {
        top = top.raw("heatmap", h.to_json());
    }
    let mut text = top.render();
    text.push('\n');
    text
}

/// Renders a bare [`TimeSeries`] as a Chrome `trace_event` JSON document
/// of counter tracks — the `--trace-out` format for the open-loop bins,
/// which have no machine event trace or engine phase spans to add.
#[must_use]
pub fn series_chrome_trace(bench: &str, series: &TimeSeries) -> String {
    let mut b = ChromeTraceBuilder::new();
    b.process_name(1, &format!("{bench} telemetry (per window)"));
    b.series(1, series);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_obs::{CounterSnapshot, GaugeSnapshot};

    #[test]
    fn metrics_json_embeds_windows_and_totals() {
        let mut series = TimeSeries::new();
        series.enable(10, 8, 0);
        let cum = CounterSnapshot {
            injected_requests: 7,
            ..CounterSnapshot::default()
        };
        series.sample(cum, GaugeSnapshot::default());
        let text = metrics_json("unit", &series, None);
        assert!(text.contains("\"bench\": \"unit\""));
        assert!(text.contains("\"injected_requests\": 7"));
        assert!(text.contains("\"totals\""));
        assert!(!text.contains("heatmap"));
        let mut h = HeatmapSnapshot::new(1, 2);
        h.record(0, 1, 5, 2, 0);
        let with_map = metrics_json("unit", &series, Some(&h));
        assert!(with_map.contains("\"heatmap\": {"));
        assert!(with_map.contains("\"combines\": [[0, 5]]"));
    }
}
