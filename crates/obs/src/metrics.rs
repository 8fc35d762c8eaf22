//! A dependency-free service-metrics registry with Prometheus-style
//! text exposition.
//!
//! The simulator-side recorders in [`crate::series`] observe *simulated*
//! time; this module observes the **service wrapped around the
//! simulator** — queue depths, cache hit rates, worker utilization —
//! in wall-clock time. Two instrument kinds, both backed by relaxed
//! atomics so the hot path (a job finishing, a queue push) costs one
//! `fetch_add` and never takes a lock:
//!
//! * [`Counter`] — a monotone `u64` event count;
//! * [`Gauge`] — a signed instantaneous level (queue depth, cache size).
//!
//! Handles are `Arc`s: callers register once (under a short registry
//! lock) and then update lock-free forever after.
//!
//! [`MetricsRegistry::render`] emits the Prometheus text exposition
//! format (`# HELP`/`# TYPE` headers, `name{label="v"} value` samples)
//! through [`PromWriter`], which callers also drive directly to append
//! families the registry does not own: distributions live in the
//! workspace's one histogram, [`ultra_sim::stats::Histogram`], and are
//! written as `histogram` ([`PromWriter::histogram`]) or `summary`
//! ([`PromWriter::summary`]) families.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ultra_sim::stats::Histogram;

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, cache size).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Overwrites the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What kind of instrument a family holds (drives the `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
        }
    }
}

/// One family's metadata.
struct Family {
    kind: MetricKind,
    help: String,
    /// Exposition-time divisor (e.g. `1e6` to render a counter kept in
    /// microseconds as seconds, per Prometheus naming conventions). A
    /// divisor rather than a multiplier so round unit conversions stay
    /// exact in floating point (`us / 1e6`, not `us * 1e-6`).
    scale: f64,
}

/// Registry interior: instruments keyed by `(family name, rendered
/// label block)`.
#[derive(Default)]
struct RegistryInner {
    families: BTreeMap<String, Family>,
    counters: BTreeMap<(String, String), Arc<Counter>>,
    gauges: BTreeMap<(String, String), Arc<Gauge>>,
}

/// The service-metrics registry (see the module docs).
///
/// Registration takes a short lock; the returned handles update
/// lock-free. Registering the same `(name, labels)` twice returns the
/// same instrument.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn family(inner: &mut RegistryInner, name: &str, kind: MetricKind, help: &str, scale: f64) {
        let fam = inner.families.entry(name.to_owned()).or_insert(Family {
            kind,
            help: help.to_owned(),
            scale,
        });
        assert!(
            fam.kind == kind,
            "metric family `{name}` registered as {} and {}",
            fam.kind.as_str(),
            kind.as_str()
        );
    }

    /// Registers (or fetches) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered with a different kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        self.scaled_counter(name, labels, help, 1.0)
    }

    /// Registers a counter whose stored value is divided by `scale` at
    /// exposition time (e.g. accumulate microseconds, pass `1e6`,
    /// expose seconds).
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered with a different kind.
    #[must_use]
    pub fn scaled_counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        scale: f64,
    ) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Self::family(&mut inner, name, MetricKind::Counter, help, scale);
        let key = (name.to_owned(), render_labels(labels));
        Arc::clone(inner.counters.entry(key).or_default())
    }

    /// Registers (or fetches) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered with a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Self::family(&mut inner, name, MetricKind::Gauge, help, 1.0);
        let key = (name.to_owned(), render_labels(labels));
        Arc::clone(inner.gauges.entry(key).or_default())
    }

    /// Renders the Prometheus text exposition of every registered
    /// instrument (families sorted by name, samples by label block).
    #[must_use]
    pub fn render(&self) -> String {
        self.render_with(|_| {})
    }

    /// Like [`MetricsRegistry::render`], then hands the writer to
    /// `extra` so callers can append families the registry does not own
    /// (e.g. merged latency summaries).
    #[must_use]
    pub fn render_with(&self, extra: impl FnOnce(&mut PromWriter)) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut w = PromWriter::new();
        for (name, fam) in &inner.families {
            w.family(name, fam.kind.as_str(), &fam.help);
            match fam.kind {
                MetricKind::Counter => {
                    for ((n, lb), c) in inner.counters.range(range_of(name)) {
                        debug_assert_eq!(n, name);
                        w.sample_pre(name, lb, c.get() as f64 / fam.scale);
                    }
                }
                MetricKind::Gauge => {
                    for ((_, lb), g) in inner.gauges.range(range_of(name)) {
                        w.sample_pre(name, lb, g.get() as f64 / fam.scale);
                    }
                }
            }
        }
        drop(inner);
        extra(&mut w);
        w.finish()
    }

    /// Every registered instrument flattened to `(name, label_block,
    /// value)` rows, counters first — the JSON-artifact view of the
    /// registry.
    #[must_use]
    pub fn scalar_rows(&self) -> Vec<(String, String, f64)> {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut rows = Vec::new();
        for ((name, lb), c) in &inner.counters {
            let scale = inner.families[name].scale;
            rows.push((name.clone(), lb.clone(), c.get() as f64 / scale));
        }
        for ((name, lb), g) in &inner.gauges {
            rows.push((name.clone(), lb.clone(), g.get() as f64));
        }
        rows
    }
}

/// The `BTreeMap` range covering one family's `(name, labels)` keys.
fn range_of(name: &str) -> std::ops::RangeInclusive<(String, String)> {
    (name.to_owned(), String::new())..=(name.to_owned(), "\u{10FFFF}".to_owned())
}

/// Escapes a label *value* per the exposition format (backslash, quote,
/// newline).
#[must_use]
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a label block — `{a="x",b="y"}` sorted by label name, or the
/// empty string when there are no labels.
#[must_use]
pub fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Formats a sample value: integral floats render without a decimal
/// point, non-finite values collapse to 0 (the exposition format's
/// `NaN`/`+Inf` literals are legal but never useful here).
fn prom_num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// An incremental Prometheus text-exposition writer.
///
/// [`MetricsRegistry::render_with`] drives one for the registry's own
/// instruments and then lends it out, so service layers can append
/// families sourced elsewhere (merged `ultra_sim::stats::Histogram`
/// summaries, cache sizes read at exposition time).
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` / `# TYPE` header for a family.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        // HELP text: the format escapes backslash and newline only.
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Writes one sample with a pre-rendered label block.
    pub fn sample_pre(&mut self, name: &str, label_block: &str, value: f64) {
        self.out
            .push_str(&format!("{name}{label_block} {}\n", prom_num(value)));
    }

    /// Writes one sample, rendering `labels` in place.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let lb = render_labels(labels);
        self.sample_pre(name, &lb, value);
    }

    /// Writes a histogram family's `_bucket`/`_sum`/`_count` series:
    /// one cumulative `le` bucket per power-of-two edge of `h` (see
    /// [`Histogram::cumulative_buckets`]), then `+Inf`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let lb = render_labels(labels);
        for (le, cum) in h.cumulative_buckets() {
            let with_le = splice_label(&lb, "le", &le.to_string());
            self.sample_pre(&format!("{name}_bucket"), &with_le, cum as f64);
        }
        let inf = splice_label(&lb, "le", "+Inf");
        self.sample_pre(&format!("{name}_bucket"), &inf, h.count() as f64);
        self.sample_pre(&format!("{name}_sum"), &lb, h.sum() as f64);
        self.sample_pre(&format!("{name}_count"), &lb, h.count() as f64);
    }

    /// Writes a summary family's quantile samples plus `_sum`/`_count`.
    /// `quantiles` pairs the `quantile` label value with the sample
    /// (already scaled to the exposed unit).
    pub fn summary(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        quantiles: &[(&str, f64)],
        sum: f64,
        count: u64,
    ) {
        let lb = render_labels(labels);
        for &(q, v) in quantiles {
            let with_q = splice_label(&lb, "quantile", q);
            self.sample_pre(name, &with_q, v);
        }
        self.sample_pre(&format!("{name}_sum"), &lb, sum);
        self.sample_pre(&format!("{name}_count"), &lb, count as f64);
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Inserts one more label into a rendered label block (used for `le` and
/// `quantile`, which attach per-sample rather than per-instrument).
fn splice_label(block: &str, key: &str, value: &str) -> String {
    let pair = format!("{key}=\"{}\"", escape_label(value));
    if block.is_empty() {
        format!("{{{pair}}}")
    } else {
        // `{a="x"}` → `{a="x",key="value"}`
        format!("{},{pair}}}", &block[..block.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_accumulate_atomically() {
        let r = MetricsRegistry::new();
        let c = r.counter("jobs_total", &[("status", "done")], "finished jobs");
        let g = r.gauge("queue_depth", &[], "queued jobs");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let g = Arc::clone(&g);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                        g.add(1);
                        g.sub(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn re_registration_returns_the_same_instrument() {
        let r = MetricsRegistry::new();
        let a = r.counter("hits_total", &[("k", "v")], "hits");
        let b = r.counter("hits_total", &[("k", "v")], "hits");
        a.incr();
        assert_eq!(b.get(), 1);
        // Different labels are a different instrument in the family.
        let other = r.counter("hits_total", &[("k", "w")], "hits");
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _c = r.counter("x_total", &[], "x");
        let _g = r.gauge("x_total", &[], "x");
    }

    #[test]
    fn exposition_has_headers_sorted_families_and_escaped_labels() {
        let r = MetricsRegistry::new();
        r.counter("zz_total", &[], "last family").add(3);
        r.gauge("aa_depth", &[("q", "a\"b\\c\nd")], "first family")
            .set(-2);
        let mut lat = Histogram::new();
        lat.record(5);
        let text = r.render_with(|w| {
            w.family("lat_us", "histogram", "latency");
            w.histogram("lat_us", &[("w", "ticket")], &lat);
        });
        let aa = text.find("# HELP aa_depth first family").unwrap();
        let zz = text.find("# TYPE zz_total counter").unwrap();
        let lat = text.find("# TYPE lat_us histogram").unwrap();
        assert!(aa < zz && zz < lat, "families sort by name, extras follow");
        assert!(text.contains("aa_depth{q=\"a\\\"b\\\\c\\nd\"} -2"));
        assert!(text.contains("zz_total 3"));
        assert!(text.contains("lat_us_bucket{w=\"ticket\",le=\"7\"} 1"));
        assert!(text.contains("lat_us_bucket{w=\"ticket\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_us_sum{w=\"ticket\"} 5"));
        assert!(text.contains("lat_us_count{w=\"ticket\"} 1"));
        // Every line is a header or a `name[{labels}] value` sample.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.rsplit_once(' ').is_some(),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn scaled_counters_expose_in_the_scaled_unit() {
        let r = MetricsRegistry::new();
        let busy = r.scaled_counter(
            "busy_seconds_total",
            &[("worker", "0")],
            "busy wall-clock",
            1e6,
        );
        busy.add(2_500_000); // microseconds
        let text = r.render();
        assert!(
            text.contains("busy_seconds_total{worker=\"0\"} 2.5"),
            "{text}"
        );
    }

    #[test]
    fn summary_writer_emits_quantiles_sum_count() {
        let mut w = PromWriter::new();
        w.family("job_latency_seconds", "summary", "end-to-end");
        w.summary(
            "job_latency_seconds",
            &[("workload", "counter")],
            &[("0.5", 0.01), ("0.99", 0.5)],
            1.25,
            7,
        );
        let text = w.finish();
        assert!(text.contains("job_latency_seconds{workload=\"counter\",quantile=\"0.5\"} 0.01"));
        assert!(text.contains("job_latency_seconds{workload=\"counter\",quantile=\"0.99\"} 0.5"));
        assert!(text.contains("job_latency_seconds_sum{workload=\"counter\"} 1.25"));
        assert!(text.contains("job_latency_seconds_count{workload=\"counter\"} 7"));
    }

    #[test]
    fn label_blocks_sort_and_handle_empty() {
        assert_eq!(render_labels(&[]), "");
        assert_eq!(
            render_labels(&[("z", "1"), ("a", "2")]),
            "{a=\"2\",z=\"1\"}"
        );
        assert_eq!(splice_label("", "le", "7"), "{le=\"7\"}");
        assert_eq!(splice_label("{a=\"2\"}", "le", "7"), "{a=\"2\",le=\"7\"}");
    }
}
