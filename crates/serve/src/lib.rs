//! # ultra-serve — the simulator as a resident service
//!
//! A multi-threaded job server over the `ultracomputer` machine: clients
//! submit simulation requests (machine shape + workload + fault plan +
//! seed + cycle budget) as newline-delimited JSON — from a batch file or
//! over a TCP socket — and receive one JSON result line per job,
//! rendered with the workspace's one JSON writer ([`ultra_obs::json`]).
//!
//! The server owns three pieces of machinery:
//!
//! * a bounded **priority queue** ([`queue::JobQueue`]) feeding a worker
//!   pool, with per-job cancellation and wall-clock timeouts polled at
//!   checkpoint boundaries;
//! * a **prefix cache** ([`cache::SnapshotCache`]) of machine images
//!   ([`image::Image`]): every job leaves a checkpoint at a configurable
//!   cadence — a [`Machine::fork`] of the running machine, and at the
//!   end the machine itself — and a later job whose
//!   [`spec::JobSpec::prefix_key`] matches forks the latest checkpoint at
//!   or below its own cycle target instead of re-simulating the shared
//!   prefix. A fork copies every field of the machine (the core crate's
//!   tests hold it, and a snapshot's replay, to the donor running on),
//!   so a resume is bit-identical; no snapshot is written or restored
//!   anywhere in the service. The cache holds at most
//!   [`cache::CACHE_BUDGET_BYTES`] of images, least recently used out
//!   first, and an evicted image is freed by the worker that built it;
//! * the **workload registry** ([`spec::Workload`]): deterministic
//!   programs parameterized by `(pes, rounds)`;
//! * an optional **observability hub** ([`obs::ServeObs`], enabled via
//!   [`Server::with_obs`]): a live metrics registry with Prometheus
//!   exposition, per-phase latency histograms, per-job Perfetto spans
//!   and a bounded flight recorder of structured NDJSON events.
//!   Observation never feeds back into execution, so result lines are
//!   byte-identical with observability on or off.
//!
//! The line protocol both modes speak is [`protocol`]; socket mode's
//! connection layer — accept loop, bounded request lines, one reply
//! writer per connection that sends each burst of results in one
//! segment — is [`listen`].
//!
//! Results carry a parity digest (FNV-1a of the machine's canonical
//! parity string), so "served run == one-shot run" is a one-field
//! comparison; the integration tests hold the whole result line to that
//! standard.

pub mod cache;
pub mod image;
pub mod json;
pub mod listen;
pub mod obs;
pub mod protocol;
pub mod queue;
pub mod spec;

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ultra_obs::flight::FlightLevel;
use ultra_obs::json::JsonObject;
use ultra_sim::wire::fnv1a;
use ultracomputer::machine::Machine;
use ultracomputer::{EngineTuning, MachineReport};

use crate::cache::SnapshotCache;
use crate::image::Image;
use crate::obs::{JobPhase, JobTrace, ObsOptions, ServeObs, SpanRecord};
use crate::queue::JobQueue;
use crate::spec::JobSpec;

/// Telemetry ring capacity (windows) for jobs that request telemetry.
const TELEMETRY_CAPACITY: usize = 4096;

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The workload ran to completion within the cycle budget.
    Completed,
    /// The cycle budget elapsed first; the final checkpoint stays in the
    /// prefix cache for a longer-budget job to resume.
    BudgetExhausted,
    /// The job was cancelled; partial progress is reported.
    Cancelled,
    /// The wall-clock timeout fired between checkpoints.
    Timeout,
    /// The line never became a job: parse or validation failure. Never
    /// produced by [`Server::run_job`]; it exists so protocol errors
    /// carry a status through [`JobOutcome`] like every other terminal
    /// state.
    Error,
}

impl JobStatus {
    /// Every terminal status (used to pre-register per-status metrics).
    pub const ALL: [JobStatus; 5] = [
        JobStatus::Completed,
        JobStatus::BudgetExhausted,
        JobStatus::Cancelled,
        JobStatus::Timeout,
        JobStatus::Error,
    ];

    /// The protocol string for this status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::BudgetExhausted => "budget-exhausted",
            Self::Cancelled => "cancelled",
            Self::Timeout => "timeout",
            Self::Error => "error",
        }
    }

    /// Whether this outcome should fail a batch run: protocol errors
    /// and timeouts are failures; cancellation and budget exhaustion
    /// are requested behavior.
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, Self::Timeout | Self::Error)
    }
}

/// One finished job: the NDJSON result line plus server-side log lines
/// (cache hits, rejections) that belong on stderr, not in the stream.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's id, echoed from the spec.
    pub id: String,
    /// How the job ended (mirrors the `status` field of `line`).
    pub status: JobStatus,
    /// The single-line JSON result.
    pub line: String,
    /// Human-readable log lines about how the job executed.
    pub log: Vec<String>,
}

/// Execution context for one job: which worker runs it and when it was
/// enqueued, for queue-wait accounting and span attribution. A direct
/// call outside any worker pool runs under the default (worker 0, never
/// queued).
#[derive(Debug, Clone, Copy, Default)]
struct JobCtx {
    /// Worker index executing the job.
    worker: usize,
    /// When the job entered the queue, if it was queued.
    enqueued_at: Option<Instant>,
}

/// Wall-clock microseconds since `t` (saturating).
fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One queued job: the spec, when it was enqueued, and the channel its
/// outcome goes back on — the batch collector, or the reply writer of
/// the connection that submitted it.
pub(crate) struct Submission {
    pub(crate) spec: JobSpec,
    pub(crate) enqueued_at: Instant,
    pub(crate) reply: mpsc::Sender<JobOutcome>,
}

/// The resident service: image cache + cancellation registry + optional
/// observability hub. One instance outlives many batches; the prefix
/// cache persists across them.
#[derive(Default)]
pub struct Server {
    cache: SnapshotCache<Image>,
    cancels: Mutex<HashMap<String, Arc<AtomicBool>>>,
    obs: Option<Arc<ServeObs>>,
}

impl Server {
    /// A fresh server with an empty cache and observability off.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh server with the observability hub enabled: metrics,
    /// flight recorder, and (per `opts`) job lifecycle spans.
    #[must_use]
    pub fn with_obs(opts: ObsOptions) -> Self {
        let obs = Arc::new(ServeObs::new(opts));
        Self {
            cache: SnapshotCache::with_meter(obs.cache_meter()),
            cancels: Mutex::default(),
            obs: Some(obs),
        }
    }

    /// The observability hub, when enabled.
    #[must_use]
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.as_ref()
    }

    /// The Prometheus text exposition (cache gauge refreshed first), or
    /// `None` with observability off.
    #[must_use]
    pub fn render_metrics(&self) -> Option<String> {
        let obs = self.obs.as_ref()?;
        obs.set_cache_size(self.cache.len(), self.cache.bytes());
        Some(obs.render_prometheus())
    }

    /// The metrics state as a JSON document (the `--metrics-out`
    /// artifact), or `None` with observability off.
    #[must_use]
    pub fn metrics_json(&self) -> Option<String> {
        let obs = self.obs.as_ref()?;
        obs.set_cache_size(self.cache.len(), self.cache.bytes());
        Some(obs.metrics_json())
    }

    /// The retained job lifecycle spans as Chrome `trace_event` JSON,
    /// or `None` with observability off.
    #[must_use]
    pub fn trace_json(&self) -> Option<String> {
        Some(self.obs.as_ref()?.trace_json())
    }

    /// The prefix cache (for stats and tests).
    #[must_use]
    pub fn cache(&self) -> &SnapshotCache<Image> {
        &self.cache
    }

    /// Requests cancellation of job `id` — queued, running, or yet to
    /// be submitted. A job observes the flag at its next checkpoint
    /// boundary and takes it out of the registry when it ends.
    pub fn cancel(&self, id: &str) {
        self.cancel_flag(id).store(true, Ordering::Relaxed);
    }

    fn cancel_flag(&self, id: &str) -> Arc<AtomicBool> {
        Arc::clone(
            self.cancels
                .lock()
                .expect("cancel registry poisoned")
                .entry(id.to_owned())
                .or_default(),
        )
    }

    /// Executes one job to its terminal status, synchronously.
    ///
    /// The execution loop is slice-based: `run_for(checkpoint_every)`
    /// until the workload completes or the budget is spent, depositing a
    /// fork of the machine in the prefix cache after every slice but the
    /// last and the machine itself after that (checkpoint-on-budget comes
    /// for free: the final checkpoint of a budget-exhausted job *is* the
    /// resume point for the next, longer job). Cancellation and timeout
    /// are polled between slices.
    pub fn run_job(&self, spec: &JobSpec) -> JobOutcome {
        let outcome = self.execute(spec, JobCtx::default()).0;
        image::free_returned();
        outcome
    }

    /// Runs one job and returns its outcome. The machine it ran on has
    /// gone into the prefix cache as the job's last checkpoint; when it
    /// made no progress past a checkpoint the cache already holds, it
    /// comes back instead, so a worker can deliver the outcome first and
    /// pay for tearing it down afterwards.
    fn execute(&self, spec: &JobSpec, ctx: JobCtx) -> (JobOutcome, Option<Machine>) {
        let started = Instant::now();
        let seq = self.obs.as_ref().map_or(0, |o| o.next_job_seq());
        let queue_wait_us = ctx.enqueued_at.map(|t| {
            started
                .checked_duration_since(t)
                .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        });
        if let Some(obs) = &self.obs {
            obs.log(
                FlightLevel::Debug,
                &spec.id,
                "start",
                &format!(
                    "workload={} worker={} queue_wait_us={}",
                    spec.workload.name(),
                    ctx.worker,
                    queue_wait_us.unwrap_or(0)
                ),
            );
        }
        let cancel = self.cancel_flag(&spec.id);
        let key = spec.prefix_key();
        let mut log = Vec::new();
        let flight = |level: FlightLevel, kind: &str, detail: &str| {
            if let Some(obs) = &self.obs {
                obs.log(level, &spec.id, kind, detail);
            }
        };

        // Resume from the best cached prefix, unless this job wants
        // telemetry (an image carries no telemetry history, so a
        // telemetry series must start from cycle 0 to be complete).
        let restore_started = Instant::now();
        let resumed = match spec.telemetry_window {
            None => self.cache.best_at_or_below(&key, spec.cycles),
            Some(_) => None,
        };
        // The cycle at which the cache is known to hold this machine's
        // state (0: a machine nobody has run is not worth holding).
        let mut shelved_at = 0;
        let mut m = match resumed {
            Some((cycle, image)) => {
                let msg = format!("cache hit: job `{}` resumed from cycle {cycle}", spec.id);
                flight(FlightLevel::Info, "cache", &msg);
                log.push(msg);
                shelved_at = cycle;
                image.machine().fork(EngineTuning::default())
            }
            None => spec.machine(),
        };
        if let Some(window) = spec.telemetry_window {
            m.enable_telemetry(window, TELEMETRY_CAPACITY);
        }
        let restore_us = elapsed_us(restore_started);

        let slices_started = Instant::now();
        let mut status = JobStatus::BudgetExhausted;
        loop {
            if cancel.load(Ordering::Relaxed) {
                status = JobStatus::Cancelled;
                break;
            }
            if let Some(ms) = spec.timeout_ms {
                if started.elapsed() >= Duration::from_millis(ms) {
                    status = JobStatus::Timeout;
                    break;
                }
            }
            let remaining = spec.cycles.saturating_sub(m.now());
            if remaining == 0 {
                break;
            }
            let slice_started = Instant::now();
            let outcome = m.run_for(remaining.min(spec.checkpoint_every));
            // The job's last slice deposits nothing here: the machine
            // itself goes into the cache once the result is rendered.
            if !outcome.completed && m.now() < spec.cycles {
                self.cache.insert(&key, m.now(), Image::copy_of(&m));
                shelved_at = m.now();
            }
            if let Some(obs) = &self.obs {
                obs.observe_slice(elapsed_us(slice_started));
            }
            if outcome.completed {
                status = JobStatus::Completed;
                break;
            }
        }
        let slices_us = elapsed_us(slices_started);

        let report_started = Instant::now();
        let line = render_result(spec, &m, status);
        let report_us = elapsed_us(report_started);

        if let Some(obs) = &self.obs {
            let workload = spec.workload.name();
            let total_us = queue_wait_us.unwrap_or(0) + elapsed_us(started);
            if let Some(q) = queue_wait_us {
                obs.observe_phase(workload, JobPhase::QueueWait, ctx.worker, q);
            }
            obs.observe_phase(workload, JobPhase::Restore, ctx.worker, restore_us);
            obs.observe_phase(workload, JobPhase::Slices, ctx.worker, slices_us);
            obs.observe_phase(workload, JobPhase::Report, ctx.worker, report_us);
            obs.observe_phase(workload, JobPhase::Total, ctx.worker, total_us);
            obs.job_done(workload, status);
            let level = match status {
                JobStatus::Completed | JobStatus::BudgetExhausted => FlightLevel::Info,
                _ => FlightLevel::Warn,
            };
            obs.log(
                level,
                &spec.id,
                "result",
                &format!(
                    "status={} cycles={} total_us={total_us}",
                    status.as_str(),
                    m.now()
                ),
            );
            if status == JobStatus::Timeout {
                obs.dump_flight_to_stderr(&format!("job `{}` timed out", spec.id));
            }
            if obs.trace_jobs() {
                let mut spans = vec![SpanRecord {
                    phase: JobPhase::Total,
                    start_us: obs.us_since_epoch(ctx.enqueued_at.unwrap_or(started)),
                    dur_us: total_us,
                }];
                if let (Some(enqueued_at), Some(q)) = (ctx.enqueued_at, queue_wait_us) {
                    spans.push(SpanRecord {
                        phase: JobPhase::QueueWait,
                        start_us: obs.us_since_epoch(enqueued_at),
                        dur_us: q,
                    });
                }
                for (phase, at, dur_us) in [
                    (JobPhase::Restore, restore_started, restore_us),
                    (JobPhase::Slices, slices_started, slices_us),
                    (JobPhase::Report, report_started, report_us),
                ] {
                    spans.push(SpanRecord {
                        phase,
                        start_us: obs.us_since_epoch(at),
                        dur_us,
                    });
                }
                obs.record_trace(JobTrace {
                    seq,
                    id: spec.id.clone(),
                    worker: ctx.worker,
                    workload,
                    spans,
                });
            }
        }

        // The registry holds a flag from the first `cancel` or start of
        // an id to the end of its last running job (two jobs may share
        // an id, and the flag): a resident service must not keep one per
        // job it ever ran.
        let mut cancels = self.cancels.lock().expect("cancel registry poisoned");
        if Arc::strong_count(&cancel) == 2 {
            cancels.remove(&spec.id);
        }
        drop(cancels);

        let outcome = JobOutcome {
            id: spec.id.clone(),
            status,
            line,
            log,
        };
        // In the cache before the outcome is out, so that a client holding
        // the result can count on a longer job resuming from it.
        let leftover = if m.now() > shelved_at {
            self.cache.insert(&key, m.now(), Image::new(m));
            None
        } else {
            Some(m)
        };
        (outcome, leftover)
    }

    /// The outcome of a job whose execution panicked: one `error`
    /// result line and a flight-recorder event. The job's cancel flag
    /// was dropped in the unwind; its registry entry goes with it unless
    /// another running job shares the id.
    fn panicked(&self, spec: &JobSpec, payload: &(dyn Any + Send)) -> JobOutcome {
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("a non-text panic");
        let message = format!("job panicked: {message}");
        if let Some(obs) = &self.obs {
            obs.job_done(spec.workload.name(), JobStatus::Error);
            obs.log(FlightLevel::Error, &spec.id, "panic", &message);
        }
        let mut cancels = self.cancels.lock().expect("cancel registry poisoned");
        if cancels
            .get(&spec.id)
            .is_some_and(|flag| Arc::strong_count(flag) == 1)
        {
            cancels.remove(&spec.id);
        }
        drop(cancels);
        JobOutcome {
            id: spec.id.clone(),
            status: JobStatus::Error,
            line: error_line(&spec.id, &message),
            log: vec![message],
        }
    }

    /// One worker's life, shared by batch and listen mode: pop a
    /// submission, run it, hand the outcome to whoever waits for it,
    /// and only then free machines — the job's own if the cache did not
    /// take it, and the images this worker built that were evicted since
    /// ([`image::free_returned`]). Teardown of a large machine is a
    /// measurable share of a short job and must not sit in front of the
    /// reply. A job that panics answers with an `error` line, and the
    /// worker goes on to the next. Returns once `queue` is closed and
    /// drained.
    pub(crate) fn work(&self, worker: usize, queue: &JobQueue<Submission>) {
        let mut idle_since = Instant::now();
        while let Some(sub) = queue.pop() {
            let busy_since = Instant::now();
            if let Some(obs) = &self.obs {
                obs.worker_idle(worker, elapsed_us(idle_since));
            }
            let ctx = JobCtx {
                worker,
                enqueued_at: Some(sub.enqueued_at),
            };
            let run = panic::catch_unwind(AssertUnwindSafe(|| self.execute(&sub.spec, ctx)));
            let (outcome, leftover) =
                run.unwrap_or_else(|payload| (self.panicked(&sub.spec, payload.as_ref()), None));
            // A receiver that is gone (a disconnected client) just
            // drops its results.
            let _ = sub.reply.send(outcome);
            drop(leftover);
            image::free_returned();
            if let Some(obs) = &self.obs {
                obs.worker_busy(worker, elapsed_us(busy_since));
            }
            idle_since = Instant::now();
        }
    }

    /// Runs a batch: enqueues every spec into a bounded priority queue,
    /// fans out over `workers` threads, and streams each [`JobOutcome`]
    /// to `on_result` in completion order. Returns the number of jobs
    /// executed.
    pub fn run_batch<F: FnMut(JobOutcome)>(
        &self,
        specs: Vec<JobSpec>,
        workers: usize,
        queue_capacity: usize,
        mut on_result: F,
    ) -> usize {
        let queue = JobQueue::with_meter(
            queue_capacity.max(1),
            self.obs.as_ref().map(|o| o.queue_meter()),
        );
        let (tx, rx) = mpsc::channel();
        let mut done = 0;
        thread::scope(|s| {
            for worker in 0..workers.max(1) {
                let queue = &queue;
                s.spawn(move || self.work(worker, queue));
            }
            for spec in specs {
                let priority = spec.priority;
                let submission = Submission {
                    spec,
                    enqueued_at: Instant::now(),
                    reply: tx.clone(),
                };
                if !queue.push(priority, submission) {
                    break;
                }
            }
            drop(tx);
            queue.close();
            for outcome in rx {
                done += 1;
                on_result(outcome);
            }
        });
        done
    }
}

/// Renders one job's NDJSON result line.
///
/// Deliberately deterministic: no wall-clock fields and no cache or
/// engine provenance, so a cached resume renders byte-identically to a
/// fresh one-shot run of the same spec — the service's core correctness
/// claim, asserted by the integration tests. (That rules out
/// `fast_forwarded` too: how many idle cycles were *jumped* depends on
/// where checkpoint slices cut a jump, an execution detail the parity
/// string also excludes.) The `parity` field is the FNV-1a digest of the
/// machine's canonical parity string.
fn render_result(spec: &JobSpec, m: &Machine, status: JobStatus) -> String {
    let report = MachineReport::from_machine(m);
    let digest = fnv1a(report.parity_string().as_bytes());
    let mut obj = JsonObject::new()
        .str("id", &spec.id)
        .str("status", status.as_str())
        .str("workload", spec.workload.name())
        .uint("pes", spec.pes as u64)
        .uint("seed", spec.seed)
        .uint("cycles", m.now())
        .uint("injected", report.net.injected_requests.get())
        .uint("combines", report.net.combines.get())
        .uint("drops", report.net.drops.get())
        .uint("retries", report.faults.retries)
        .int("shared0", m.read_shared(0))
        .str("parity", &format!("{digest:016x}"));
    // A completed serving job reports its end-to-end latency tail; a
    // truncated one cannot (some requests never stamped a completion).
    if spec.workload == crate::spec::Workload::Serving && status == JobStatus::Completed {
        let lat = spec.serving_config().latencies(m);
        obj = obj
            .uint("latency_p50", lat.percentile(50.0))
            .uint("latency_p90", lat.percentile(90.0))
            .uint("latency_p99", lat.percentile(99.0))
            .uint("latency_max", lat.max());
    }
    if spec.telemetry_window.is_some() {
        // The NDJSON variant of the bench harness's `--metrics-out`
        // document: the series on one line, plus the heatmap.
        let mut telemetry = m.telemetry().to_json(true);
        if let Some(heatmap) = m.heatmap() {
            telemetry = telemetry.raw("heatmap", heatmap.to_json());
        }
        obj = obj.raw("telemetry", telemetry.render());
    }
    obj.render()
}

/// Renders a protocol-level failure (parse error, invalid spec) as a
/// result line, so batch output stays one line per input job.
#[must_use]
pub fn error_line(id: &str, message: &str) -> String {
    JsonObject::new()
        .str("id", id)
        .str("status", "error")
        .str("error", message)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cancel_registry_is_empty_after_a_batch() {
        let server = Server::new();
        server.cancel("job-7");
        let specs: Vec<JobSpec> = (0..50)
            .map(|i| {
                // Two ids are used twice: a flag goes with its last job.
                let mut spec = JobSpec::new(&format!("job-{}", i % 48));
                spec.pes = 2;
                spec.rounds = 1;
                spec
            })
            .collect();
        let mut cancelled = Vec::new();
        let done = server.run_batch(specs, 3, 8, |out| {
            if out.status == JobStatus::Cancelled {
                cancelled.push(out.id);
            }
        });
        assert_eq!(done, 50);
        assert_eq!(
            cancelled,
            ["job-7"],
            "a cancel ahead of the job still lands"
        );
        assert!(server.cancels.lock().unwrap().is_empty());
    }
}
