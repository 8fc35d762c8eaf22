//! Service observability: the glue between ultra-serve and the
//! `ultra-obs` metrics registry, flight recorder and Chrome trace
//! writer.
//!
//! One [`ServeObs`] lives as long as the [`crate::Server`] it instruments
//! and owns four views of the running service:
//!
//! * a [`MetricsRegistry`] of live instruments — queue depth and
//!   enqueue/dequeue counts, prefix-cache hits/misses/evictions,
//!   per-worker busy/idle time, jobs by terminal status, reply
//!   writes/lines/bytes of the connection writers — rendered on
//!   demand as a Prometheus text exposition;
//! * per-job **phase latency histograms** (`parse → queue wait → restore
//!   → slices → report`, plus end-to-end `total`), kept per worker in
//!   exact [`Histogram`]s and merged with [`Histogram::merge`] at
//!   exposition time into per-workload p50/p90/p99 summaries, and one
//!   more [`Histogram`] of wall-clock microseconds per checkpoint slice,
//!   exposed as the `ultra_serve_slice_us` histogram family through
//!   [`Histogram::cumulative_buckets`];
//! * a bounded [`FlightRecorder`] of structured NDJSON job events — the
//!   replacement for ad-hoc `eprintln!` — where every event is retained
//!   at every level and `--log-level` only gates what reaches stderr;
//! * optional per-job **lifecycle spans** of the newest
//!   [`JOB_TRACE_CAPACITY`] jobs, kept in a [`Ring`] and exported through
//!   [`ChromeTraceBuilder`]: one Perfetto process per worker, one thread
//!   per job (stable job sequence ids), one span per phase.
//!
//! Everything here is observation-only. Nothing feeds back into job
//! execution, which is what keeps result lines byte-identical with
//! observability on or off (asserted by the `service.rs` integration
//! tests).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ultra_obs::flight::{FlightLevel, FlightRecorder};
use ultra_obs::json::{array_lines, JsonObject};
use ultra_obs::metrics::{Counter, Gauge, MetricsRegistry};
use ultra_obs::{ChromeTraceBuilder, Ring};
use ultra_sim::stats::Histogram;

use crate::cache::CacheMeter;
use crate::queue::QueueMeter;
use crate::spec::Workload;
use crate::JobStatus;

/// One phase of a job's lifecycle, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobPhase {
    /// Parsing and validating the protocol line.
    Parse,
    /// Sitting in the bounded priority queue.
    QueueWait,
    /// Acquiring a machine: prefix-cache lookup plus fork, or a
    /// fresh build.
    Restore,
    /// The `run_for` checkpoint-slice loop — the simulation itself.
    Slices,
    /// Rendering the result line.
    Report,
    /// End to end: enqueue (or start, for detached jobs) to result.
    Total,
}

impl JobPhase {
    /// Every phase, in lifecycle order.
    pub const ALL: [JobPhase; 6] = [
        JobPhase::Parse,
        JobPhase::QueueWait,
        JobPhase::Restore,
        JobPhase::Slices,
        JobPhase::Report,
        JobPhase::Total,
    ];

    /// The label value used in metrics and span names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::QueueWait => "queue-wait",
            Self::Restore => "restore",
            Self::Slices => "slices",
            Self::Report => "report",
            Self::Total => "total",
        }
    }
}

/// How observability is configured (all fields have serviceable
/// defaults).
#[derive(Debug, Clone, Copy)]
pub struct ObsOptions {
    /// Flight-recorder ring capacity (events kept for post-mortems).
    pub flight_capacity: usize,
    /// Lowest level emitted to stderr; everything is recorded in the
    /// ring regardless.
    pub log_level: FlightLevel,
    /// Whether to retain per-job lifecycle spans for a Chrome trace
    /// export. The spans of the newest [`JOB_TRACE_CAPACITY`] jobs are
    /// kept; older jobs' spans are dropped, so a long-lived server's
    /// trace store stays bounded.
    pub trace_jobs: bool,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self {
            flight_capacity: 256,
            log_level: FlightLevel::Info,
            trace_jobs: false,
        }
    }
}

/// How many jobs' lifecycle spans [`ServeObs`] retains for the trace
/// export when [`ObsOptions::trace_jobs`] is on; the oldest job's spans
/// make room for the newest.
pub const JOB_TRACE_CAPACITY: usize = 1 << 14;

/// One phase span of one job, in microseconds since the service epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Which phase the span covers.
    pub phase: JobPhase,
    /// Start offset from the [`ServeObs`] epoch, µs.
    pub start_us: u64,
    /// Span length, µs.
    pub dur_us: u64,
}

/// The retained lifecycle spans of one job.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Stable per-service job sequence number (allocation order).
    pub seq: u64,
    /// The job id from the spec.
    pub id: String,
    /// Worker index that executed the job.
    pub worker: usize,
    /// Workload registry name.
    pub workload: &'static str,
    /// Phase spans, lifecycle order.
    pub spans: Vec<SpanRecord>,
}

/// Per-worker phase histograms for one `(workload, phase)` pair.
type LatencyMap = BTreeMap<(String, &'static str), BTreeMap<usize, Histogram>>;

/// One `(workload, phase)` pair's latencies across all workers.
fn merge_workers(workers: &BTreeMap<usize, Histogram>) -> Histogram {
    let mut merged = Histogram::new();
    for h in workers.values() {
        merged.merge(h);
    }
    merged
}

/// The service-observability hub (see the module docs).
pub struct ServeObs {
    registry: MetricsRegistry,
    flight: FlightRecorder,
    log_level: FlightLevel,
    epoch: Instant,
    cache_checkpoints: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    slice_us: Mutex<Histogram>,
    protocol_errors: Arc<Counter>,
    reply_writes: Arc<Counter>,
    reply_lines: Arc<Counter>,
    reply_bytes: Arc<Counter>,
    latency: Mutex<LatencyMap>,
    traces: Mutex<Ring<JobTrace>>,
    next_seq: AtomicU64,
}

impl ServeObs {
    /// Builds the hub and pre-registers every per-workload/per-status
    /// job counter, so the exposition carries zeros from the first
    /// scrape rather than families appearing as jobs trickle in.
    #[must_use]
    pub fn new(opts: ObsOptions) -> Self {
        let registry = MetricsRegistry::new();
        for workload in Workload::ALL {
            for status in JobStatus::ALL {
                let _ = registry.counter(
                    "ultra_serve_jobs_total",
                    &[("status", status.as_str()), ("workload", workload.name())],
                    "jobs finished, by workload and terminal status",
                );
            }
        }
        let cache_checkpoints = registry.gauge(
            "ultra_serve_cache_checkpoints",
            &[],
            "machine images currently held by the prefix cache",
        );
        let cache_bytes = registry.gauge(
            "ultra_serve_cache_bytes",
            &[],
            "estimated heap bytes of the images the prefix cache holds",
        );
        let protocol_errors = registry.counter(
            "ultra_serve_protocol_errors_total",
            &[],
            "protocol lines that failed to parse or validate",
        );
        let reply_writes = registry.counter(
            "ultra_serve_reply_writes_total",
            &[],
            "socket writes issued by connection reply writers",
        );
        let reply_lines = registry.counter(
            "ultra_serve_reply_lines_total",
            &[],
            "replies written to connections (a multi-line exposition or dump counts once)",
        );
        let reply_bytes = registry.counter(
            "ultra_serve_reply_bytes_total",
            &[],
            "bytes written to connections",
        );
        let mut traces = Ring::new();
        if opts.trace_jobs {
            traces.enable(JOB_TRACE_CAPACITY);
        }
        Self {
            registry,
            flight: FlightRecorder::new(opts.flight_capacity),
            log_level: opts.log_level,
            epoch: Instant::now(),
            cache_checkpoints,
            cache_bytes,
            slice_us: Mutex::default(),
            protocol_errors,
            reply_writes,
            reply_lines,
            reply_bytes,
            latency: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(traces),
            next_seq: AtomicU64::new(0),
        }
    }

    /// The live registry (for tests and ad-hoc instruments).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Whether per-job lifecycle spans are being retained.
    #[must_use]
    pub fn trace_jobs(&self) -> bool {
        self.traces.lock().expect("traces poisoned").is_enabled()
    }

    /// Microseconds since the hub was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// `instant`, as microseconds since the hub's epoch (0 if earlier).
    #[must_use]
    pub fn us_since_epoch(&self, instant: Instant) -> u64 {
        instant
            .checked_duration_since(self.epoch)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
    }

    /// Allocates the next stable job sequence number.
    #[must_use]
    pub fn next_job_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a structured event in the flight ring (always) and
    /// emits its NDJSON line to stderr when `level` clears the
    /// configured threshold.
    pub fn log(&self, level: FlightLevel, job: &str, kind: &str, detail: &str) {
        let line = self.flight.record(level, job, kind, detail);
        if level >= self.log_level {
            eprintln!("{line}");
        }
    }

    /// The flight ring's current contents as NDJSON lines, oldest
    /// first.
    #[must_use]
    pub fn dump_flight(&self) -> Vec<String> {
        self.flight.dump()
    }

    /// Dumps the flight ring to stderr for a post-mortem, bracketed by
    /// a `flight-dump` event naming the `reason`.
    pub fn dump_flight_to_stderr(&self, reason: &str) {
        let lines = self.dump_flight();
        self.log(
            FlightLevel::Warn,
            "",
            "flight-dump",
            &format!("{reason}; {} events follow", lines.len()),
        );
        for line in lines {
            eprintln!("{line}");
        }
    }

    /// Handles to the queue instruments, for wiring a
    /// [`crate::queue::JobQueue`].
    #[must_use]
    pub fn queue_meter(&self) -> QueueMeter {
        QueueMeter {
            enqueued: self.registry.counter(
                "ultra_serve_queue_enqueued_total",
                &[],
                "jobs accepted into the priority queue",
            ),
            dequeued: self.registry.counter(
                "ultra_serve_queue_dequeued_total",
                &[],
                "jobs handed to a worker",
            ),
            rejected: self.registry.counter(
                "ultra_serve_queue_rejected_total",
                &[],
                "pushes refused because the queue was closed",
            ),
            depth: self.registry.gauge(
                "ultra_serve_queue_depth",
                &[],
                "jobs currently waiting in the priority queue",
            ),
        }
    }

    /// Handles to the prefix-cache instruments, for wiring a
    /// [`crate::cache::SnapshotCache`].
    #[must_use]
    pub fn cache_meter(&self) -> CacheMeter {
        CacheMeter {
            hits: self.registry.counter(
                "ultra_serve_cache_hits_total",
                &[],
                "prefix-cache lookups that found a usable checkpoint",
            ),
            misses: self.registry.counter(
                "ultra_serve_cache_misses_total",
                &[],
                "prefix-cache lookups that found nothing",
            ),
            evictions: self.registry.counter(
                "ultra_serve_cache_evictions_total",
                &[],
                "checkpoints evicted by the LRU byte budget",
            ),
        }
    }

    /// Adds `us` of busy wall-clock to `worker`'s utilization counter.
    pub fn worker_busy(&self, worker: usize, us: u64) {
        self.registry
            .scaled_counter(
                "ultra_serve_worker_busy_seconds_total",
                &[("worker", &worker.to_string())],
                "wall-clock seconds each worker spent running jobs",
                1e6,
            )
            .add(us);
    }

    /// Adds `us` of idle wall-clock to `worker`'s utilization counter.
    pub fn worker_idle(&self, worker: usize, us: u64) {
        self.registry
            .scaled_counter(
                "ultra_serve_worker_idle_seconds_total",
                &[("worker", &worker.to_string())],
                "wall-clock seconds each worker spent waiting for work",
                1e6,
            )
            .add(us);
    }

    /// Counts one protocol-level failure (unparseable or invalid line).
    pub fn protocol_error(&self) {
        self.protocol_errors.incr();
    }

    /// Counts one socket write that carried `lines` replies in `bytes`
    /// bytes; lines per write is how well reply bursts coalesce.
    pub fn reply_written(&self, lines: u64, bytes: u64) {
        self.reply_writes.incr();
        self.reply_lines.add(lines);
        self.reply_bytes.add(bytes);
    }

    /// Records `us` spent in `phase` of a `workload` job on `worker`.
    /// Kept per worker so exposition exercises [`Histogram::merge`].
    pub fn observe_phase(&self, workload: &str, phase: JobPhase, worker: usize, us: u64) {
        let mut latency = self.latency.lock().expect("latency map poisoned");
        latency
            .entry((workload.to_owned(), phase.name()))
            .or_default()
            .entry(worker)
            .or_default()
            .record(us);
    }

    /// Records one checkpoint slice's wall-clock microseconds.
    pub fn observe_slice(&self, us: u64) {
        self.slice_us
            .lock()
            .expect("slice histogram poisoned")
            .record(us);
    }

    /// Counts one finished job by workload and terminal status.
    pub fn job_done(&self, workload: &str, status: JobStatus) {
        self.registry
            .counter(
                "ultra_serve_jobs_total",
                &[("status", status.as_str()), ("workload", workload)],
                "jobs finished, by workload and terminal status",
            )
            .incr();
    }

    /// Publishes the prefix cache's current checkpoint count and
    /// accounted bytes (read at exposition time by
    /// [`crate::Server::render_metrics`]).
    pub fn set_cache_size(&self, len: usize, bytes: usize) {
        self.cache_checkpoints.set(len as i64);
        self.cache_bytes.set(bytes as i64);
    }

    /// Retains one job's lifecycle spans for the trace export, evicting
    /// the oldest job's when [`JOB_TRACE_CAPACITY`] are held (no-op
    /// unless span tracing is on).
    pub fn record_trace(&self, trace: JobTrace) {
        self.traces.lock().expect("traces poisoned").record(trace);
    }

    /// The full Prometheus text exposition: every registry instrument
    /// plus the per-workload phase-latency summaries (merged across
    /// workers with [`Histogram::merge`]) and the flight-ring gauges.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.registry.render_with(|w| {
            w.family(
                "ultra_serve_flight_events",
                "gauge",
                "events currently held by the flight recorder",
            );
            let (events, dropped) = self.flight.with_ring(|r| (r.len(), r.dropped()));
            w.sample("ultra_serve_flight_events", &[], events as f64);
            w.family(
                "ultra_serve_flight_dropped_total",
                "counter",
                "flight events evicted by the ring bound",
            );
            w.sample("ultra_serve_flight_dropped_total", &[], dropped as f64);
            w.family(
                "ultra_serve_slice_us",
                "histogram",
                "wall-clock microseconds per checkpoint slice",
            );
            let slices = self.slice_us.lock().expect("slice histogram poisoned");
            w.histogram("ultra_serve_slice_us", &[], &slices);
            drop(slices);
            w.family(
                "ultra_serve_job_latency_seconds",
                "summary",
                "per-phase job latency by workload (quantile 1 is the max)",
            );
            let latency = self.latency.lock().expect("latency map poisoned");
            for ((workload, phase), workers) in latency.iter() {
                let merged = merge_workers(workers);
                // Divide (don't multiply by 1e-6): `us / 1e6` rounds to
                // the same double as the decimal literal, so 100µs reads
                // back as 0.0001, not 0.00009999….
                let q = |p: f64| merged.percentile(p) as f64 / 1e6;
                w.summary(
                    "ultra_serve_job_latency_seconds",
                    &[("phase", phase), ("workload", workload)],
                    &[
                        ("0.5", q(50.0)),
                        ("0.9", q(90.0)),
                        ("0.99", q(99.0)),
                        ("1", merged.max() as f64 / 1e6),
                    ],
                    merged.sum() as f64 / 1e6,
                    merged.count(),
                );
            }
        })
    }

    /// The registry + latency state as a single JSON document — the
    /// `--metrics-out` artifact (machine-readable counterpart of the
    /// exposition).
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut scalars: Vec<String> = self
            .registry
            .scalar_rows()
            .into_iter()
            .map(|(name, labels, value)| {
                JsonObject::new()
                    .str("name", &name)
                    .str("labels", &labels)
                    .float("value", value, 6)
                    .render()
            })
            .collect();
        let slices = self.slice_us.lock().expect("slice histogram poisoned");
        scalars.push(
            JsonObject::new()
                .str("name", "ultra_serve_slice_us")
                .str("labels", "")
                .uint("count", slices.count())
                .uint("sum", u64::try_from(slices.sum()).unwrap_or(u64::MAX))
                .uint("max", slices.max())
                .render(),
        );
        drop(slices);
        let latency = self.latency.lock().expect("latency map poisoned");
        let lat_rows: Vec<String> = latency
            .iter()
            .map(|((workload, phase), workers)| {
                let merged = merge_workers(workers);
                JsonObject::new()
                    .str("workload", workload)
                    .str("phase", phase)
                    .uint("count", merged.count())
                    .uint("p50_us", merged.percentile(50.0))
                    .uint("p90_us", merged.percentile(90.0))
                    .uint("p99_us", merged.percentile(99.0))
                    .uint("max_us", merged.max())
                    .render()
            })
            .collect();
        drop(latency);
        let flight = self.flight.with_ring(|r| {
            JsonObject::new()
                .uint("capacity", r.capacity() as u64)
                .uint("events", r.len() as u64)
                .uint("dropped", r.dropped())
                .render()
        });
        let mut text = JsonObject::new()
            .raw("flight", flight)
            .raw("latency", array_lines(&lat_rows, 4))
            .raw("metrics", array_lines(&scalars, 4))
            .render();
        text.push('\n');
        text
    }

    /// The retained job lifecycle spans as Chrome `trace_event` JSON:
    /// one process per worker, one thread per job (named by job id),
    /// one complete span per phase. Empty array when span tracing was
    /// off or no jobs ran.
    #[must_use]
    pub fn trace_json(&self) -> String {
        let mut traces: Vec<JobTrace> = self
            .traces
            .lock()
            .expect("traces poisoned")
            .iter()
            .cloned()
            .collect();
        traces.sort_by_key(|t| t.seq);
        let mut b = ChromeTraceBuilder::new();
        let workers: std::collections::BTreeSet<usize> = traces.iter().map(|t| t.worker).collect();
        for worker in workers {
            b.process_name(worker as u64 + 1, &format!("serve worker {worker}"));
        }
        for t in &traces {
            let pid = t.worker as u64 + 1;
            let tid = t.seq + 1;
            b.thread_name(pid, tid, &format!("job {} [{}]", t.id, t.workload));
            for span in &t.spans {
                b.complete(
                    span.phase.name(),
                    pid,
                    tid,
                    span.start_us as f64,
                    span.dur_us as f64,
                );
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = JobPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "queue-wait",
                "restore",
                "slices",
                "report",
                "total"
            ]
        );
    }

    #[test]
    fn exposition_merges_per_worker_histograms() {
        let obs = ServeObs::new(ObsOptions::default());
        // Two workers, disjoint observations; the summary must see both.
        obs.observe_phase("counter", JobPhase::Total, 0, 100);
        obs.observe_phase("counter", JobPhase::Total, 0, 100);
        obs.observe_phase("counter", JobPhase::Total, 1, 100_000);
        let text = obs.render_prometheus();
        assert!(
            text.contains(
                "ultra_serve_job_latency_seconds_count{phase=\"total\",workload=\"counter\"} 3"
            ),
            "{text}"
        );
        // p50 of {100, 100, 100000} is 100 µs = 0.0001 s.
        assert!(
            text.contains(
                "ultra_serve_job_latency_seconds{phase=\"total\",workload=\"counter\",quantile=\"0.5\"} 0.0001"
            ),
            "{text}"
        );
        // Pre-registered job counters are present at zero.
        assert!(
            text.contains("ultra_serve_jobs_total{status=\"completed\",workload=\"serving\"} 0")
        );
    }

    #[test]
    fn metrics_json_is_populated_and_single_root() {
        let obs = ServeObs::new(ObsOptions::default());
        obs.observe_phase("ticket", JobPhase::Slices, 0, 42);
        obs.observe_slice(42);
        obs.job_done("ticket", JobStatus::Completed);
        let text = obs.metrics_json();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"ultra_serve_jobs_total\""));
        assert!(text.contains("\"ultra_serve_slice_us\""));
        assert!(text.contains("\"phase\": \"slices\""));
    }

    #[test]
    fn trace_json_groups_jobs_under_worker_processes() {
        let obs = ServeObs::new(ObsOptions {
            trace_jobs: true,
            ..ObsOptions::default()
        });
        obs.record_trace(JobTrace {
            seq: obs.next_job_seq(),
            id: "j1".into(),
            worker: 2,
            workload: "counter",
            spans: vec![
                SpanRecord {
                    phase: JobPhase::Total,
                    start_us: 0,
                    dur_us: 50,
                },
                SpanRecord {
                    phase: JobPhase::Slices,
                    start_us: 5,
                    dur_us: 40,
                },
            ],
        });
        let text = obs.trace_json();
        assert!(text.contains("\"serve worker 2\""));
        assert!(text.contains("\"job j1 [counter]\""));
        assert!(text.contains("\"name\": \"slices\""));
        assert!(text.contains("\"ph\": \"X\""));
    }

    #[test]
    fn tracing_off_drops_spans() {
        let obs = ServeObs::new(ObsOptions::default());
        obs.record_trace(JobTrace {
            seq: 0,
            id: "j".into(),
            worker: 0,
            workload: "counter",
            spans: Vec::new(),
        });
        assert!(!obs.trace_json().contains("thread_name"));
    }

    #[test]
    fn retained_job_spans_are_bounded_to_the_newest_jobs() {
        let obs = ServeObs::new(ObsOptions {
            trace_jobs: true,
            ..ObsOptions::default()
        });
        let jobs = JOB_TRACE_CAPACITY as u64 + 3;
        for seq in 0..jobs {
            obs.record_trace(JobTrace {
                seq,
                id: format!("j{seq}"),
                worker: 0,
                workload: "counter",
                spans: Vec::new(),
            });
        }
        assert_eq!(obs.traces.lock().unwrap().len(), JOB_TRACE_CAPACITY);
        // Every job the trace names, by the number in its thread name.
        let text = obs.trace_json();
        let mut named: Vec<u64> = text
            .split("\"job j")
            .skip(1)
            .map(|rest| rest[..rest.find(' ').unwrap()].parse().unwrap())
            .collect();
        named.sort_unstable();
        assert_eq!(named, (3..jobs).collect::<Vec<_>>());
    }
}
