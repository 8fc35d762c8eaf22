//! End-to-end service tests: the acceptance criteria of the
//! simulation-as-a-service milestone.
//!
//! * A 10-job concurrent batch (mixed PE counts, seeds, fault plans)
//!   produces per-job JSON byte-identical to one-shot runs of the same
//!   specs on a fresh server.
//! * Jobs whose recipes equal a cached prefix's resume from it, and say
//!   so in their logs; a serving job with another mean gap does not.
//! * Cancellation and timeout produce their statuses, never hangs.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::thread;

use ultra_obs::flight::FlightLevel;
use ultra_serve::cache::CACHE_BUDGET_BYTES;
use ultra_serve::json::parse_object;
use ultra_serve::obs::ObsOptions;
use ultra_serve::protocol::{classify, Request};
use ultra_serve::spec::{JobSpec, Workload};
use ultra_serve::{JobOutcome, JobStatus, Server};

/// Extracts `"key": "value"` or `"key": 123` from a rendered result line
/// (every value the protocol renders is a string or an integer).
fn field(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\": ");
    let at = line
        .find(&tag)
        .unwrap_or_else(|| panic!("{line} lacks {key}"))
        + tag.len();
    let rest = &line[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped[..stripped.find('"').unwrap()].to_owned()
    } else {
        rest[..rest.find([',', '}']).unwrap()].trim().to_owned()
    }
}

/// The `resume` job of [`mixed_batch`] as job-line fields.
const RESUME: &str = r#""pes": 8, "seed": 11, "workload": "ticket", "rounds": 40, "cycles": 200000, "checkpoint_every": 512"#;

fn job(line: &str) -> JobSpec {
    JobSpec::from_json(&parse_object(line).unwrap(), "job").unwrap()
}

fn mixed_batch() -> Vec<JobSpec> {
    // The sweep jobs: the machines of the warm-up jobs below, bigger
    // budgets — must resume from the cached checkpoints. A fault seed
    // with no fault, and dead modules named in another order than the
    // second warm-up's, change nothing.
    let sweep = [
        ("resume", ""),
        ("resume-fault-seed", r#", "fault_seed": 9"#),
        ("resume-dead-mms", r#", "dead_mms": [2, 5]"#),
    ];
    let sweep = sweep.map(|(id, extra)| format!(r#"{{"id": "{id}", {RESUME}{extra}}}"#));
    let others = [
        r#"{"id": "small-counter", "pes": 4, "seed": 1, "rounds": 8}"#,
        r#"{"id": "wide-counter", "pes": 16, "seed": 2, "rounds": 6}"#,
        r#"{"id": "ticket-99", "pes": 8, "seed": 99, "workload": "ticket", "rounds": 10}"#,
        r#"{"id": "barrier", "pes": 8, "seed": 5, "workload": "barrier", "rounds": 6}"#,
        r#"{"id": "dead-mm", "pes": 8, "seed": 3, "rounds": 6, "dead_mms": [3]}"#,
        r#"{"id": "dead-copy", "pes": 8, "seed": 4, "copies": 2, "rounds": 6, "dead_copies": [0]}"#,
        r#"{"id": "lossy", "pes": 8, "seed": 6, "rounds": 10, "cycles": 2000000, "link_loss": 0.1, "fault_seed": 7}"#,
    ];
    (sweep.iter().map(String::as_str).chain(others))
        .map(job)
        .collect()
}

#[test]
fn concurrent_batch_matches_one_shot_runs_and_resumes_from_the_prefix_cache() {
    let server = Server::new();

    // Warm the cache: the prefixes of the sweep jobs, cut off after 600
    // cycles (the 40-round ticket workload runs far longer than that).
    for extra in ["", r#", "dead_mms": [5, 2]"#] {
        let warm = job(&format!(
            r#"{{"id": "warm", {RESUME}, "cycles": 600{extra}}}"#
        ));
        let warm_out = server.run_job(&warm);
        assert_eq!(field(&warm_out.line, "status"), "budget-exhausted");
    }
    assert!(
        !server.cache().is_empty(),
        "budget-exhausted job must leave checkpoints behind"
    );

    let jobs = mixed_batch();
    assert!(jobs.len() >= 8, "acceptance demands >= 8 jobs");
    let mut outcomes: HashMap<String, JobOutcome> = HashMap::new();
    let done = server.run_batch(jobs.clone(), 3, 16, |out| {
        outcomes.insert(out.id.clone(), out);
    });
    assert_eq!(done, jobs.len(), "every job must produce a result");

    // Every job's result line is byte-identical to a one-shot run of the
    // same spec on a fresh server (empty cache, no concurrency).
    for spec in &jobs {
        let solo = Server::new().run_job(spec);
        let served = &outcomes[&spec.id];
        assert_eq!(
            served.line, solo.line,
            "served result for `{}` diverged from its one-shot run",
            spec.id
        );
        assert_eq!(field(&served.line, "status"), "completed", "{}", spec.id);
    }
    // A job line's `"threads"` is range-checked and ignored: `ticket-99`
    // sent as a line, with and without it, answers byte-identically.
    let ticket_99 =
        r#"{"id": "ticket-99", "pes": 8, "seed": 99, "workload": "ticket", "rounds": 10"#;
    for line in [
        format!("{ticket_99}}}"),
        format!(r#"{ticket_99}, "threads": 2}}"#),
    ] {
        let Ok(Request::Job(spec)) = classify(&server, &line, 1) else {
            panic!("{line} is a job line");
        };
        assert_eq!(
            Server::new().run_job(&spec).line,
            outcomes["ticket-99"].line,
            "{line}"
        );
    }

    // The sweep jobs resumed from the warm-ups' checkpoints.
    for id in ["resume", "resume-fault-seed", "resume-dead-mms"] {
        let resumed = &outcomes[id];
        assert!(
            resumed.log.iter().any(|l| l.contains("cache hit")),
            "{id} must log its cache hit, got {:?}",
            resumed.log
        );
    }

    // Sanity on the physics: combining happened, and the lossy run
    // actually lost and retried messages.
    assert!(
        field(&outcomes["wide-counter"].line, "combines")
            .parse::<u64>()
            .unwrap()
            > 0
    );
    assert!(
        field(&outcomes["lossy"].line, "retries")
            .parse::<u64>()
            .unwrap()
            > 0
    );
    assert_eq!(field(&outcomes["small-counter"].line, "shared0"), "32");
}

#[test]
fn telemetry_jobs_attach_a_series_and_never_resume_from_cache() {
    let server = Server::new();
    let mut plain = JobSpec::new("plain");
    plain.seed = 21;
    plain.workload = Workload::Ticket;
    plain.rounds = 12;
    let _ = server.run_job(&plain);

    // Same prefix, telemetry on: must NOT consume the cached prefix (a
    // resumed series would be missing its head), but must still succeed.
    let mut observed = plain.clone();
    observed.id = "observed".into();
    observed.telemetry_window = Some(64);
    let hits_before = server.cache().hits();
    let out = server.run_job(&observed);
    assert_eq!(
        server.cache().hits(),
        hits_before,
        "telemetry job used the cache"
    );
    assert!(
        out.log.is_empty(),
        "no cache-hit log expected: {:?}",
        out.log
    );
    assert!(out.line.contains("\"telemetry\": {"), "series missing");
    assert!(out.line.contains("\"windows\": ["));
    assert!(out.line.contains("\"heatmap\": {"));
    assert!(!out.line.contains('\n'), "result must stay a single line");

    // Everything before the telemetry attachment matches the plain job's
    // simulation (same parity digest, different id).
    let solo = Server::new().run_job(&plain);
    assert_eq!(field(&out.line, "parity"), field(&solo.line, "parity"));

    // The converse: a telemetry job seeds the cache like any other, but
    // what a later job forks from carries none of its observer state.
    let server = Server::new();
    let mut first = observed.clone();
    first.cycles = 150;
    first.checkpoint_every = 64;
    let first_out = server.run_job(&first);
    assert_eq!(field(&first_out.line, "status"), "budget-exhausted");
    assert!(first_out.line.contains("\"telemetry\": {"));
    for at in [64, 128, 150] {
        let (cycle, image) = server
            .cache()
            .best_at_or_below(&plain.recipe(), at)
            .expect("every slice of the telemetry job left a checkpoint");
        assert_eq!(cycle, at);
        let m = image.machine();
        assert!(!m.telemetry().is_enabled() && m.telemetry().samples().is_empty());
        assert!(m.trace().is_empty() && m.phase_spans().is_empty());
    }
    let resumed = server.run_job(&plain);
    assert!(
        resumed
            .log
            .iter()
            .any(|l| l.contains("resumed from cycle 150")),
        "the plain job must resume from the telemetry job's last checkpoint: {:?}",
        resumed.log
    );
    assert_eq!(
        resumed.line, solo.line,
        "resumed from a telemetry job's image"
    );
    assert!(!resumed.line.contains("telemetry"));
}

#[test]
fn four_hundred_prefixes_stay_inside_the_cache_budget() {
    // A client cycling seeds used to grow the server without limit: every
    // key kept its checkpoints for ever. Now all keys share one budget.
    let server = Server::new();
    let specs: Vec<JobSpec> = (0..400)
        .map(|seed| {
            let mut spec = JobSpec::new(&format!("seed-{seed}"));
            spec.pes = 64;
            spec.seed = seed;
            spec.workload = Workload::Ticket;
            spec.rounds = 1;
            spec
        })
        .collect();
    let cache = server.cache();
    let mut peak = 0;
    let done = server.run_batch(specs, 2, 16, |out| {
        assert_eq!(out.status, JobStatus::Completed);
        peak = peak.max(cache.bytes());
    });
    assert_eq!(done, 400);
    assert!(
        cache.evictions() > 0 && cache.len() < 400,
        "400 x 64 PEs must not fit: {} images, {} bytes",
        cache.len(),
        cache.bytes()
    );
    assert_eq!(cache.evictions() + cache.len() as u64, 400);
    // No image of this shape is anywhere near the budget, so the
    // allowance for one oversized entry held alone never applies.
    assert!(
        peak <= CACHE_BUDGET_BYTES,
        "cache peaked at {peak} bytes, budget {CACHE_BUDGET_BYTES}"
    );
    assert!(cache.bytes() <= CACHE_BUDGET_BYTES);
}

#[test]
fn serving_sweep_resumes_from_the_prefix_cache_with_identical_curve() {
    // A load-vs-p99 sweep through the service: one serving point per
    // offered load. For one point, a short-budget job warms the cache —
    // its checkpoint holds WaitUntil-parked worker contexts mid-sweep —
    // and the full-budget job must resume from it and still render the
    // exact result line (latency percentiles and parity digest included)
    // a fresh one-shot run produces.
    let serving_spec = |id: &str, gap: u64| {
        let mut spec = JobSpec::new(id);
        spec.pes = 4;
        spec.seed = 17;
        spec.workload = Workload::Serving;
        spec.rounds = 64;
        spec.mean_gap = gap;
        spec.checkpoint_every = 256;
        spec
    };

    let server = Server::new();
    let mut warm = serving_spec("warm", 120);
    warm.cycles = 1_500;
    let warm_out = server.run_job(&warm);
    assert_eq!(field(&warm_out.line, "status"), "budget-exhausted");
    assert!(
        !warm_out.line.contains("latency_p99"),
        "a truncated serving job must not report a latency tail"
    );

    // The sweep itself: three loads, the first sharing the warm prefix.
    let mut curve = Vec::new();
    for (i, gap) in [120u64, 30, 5].into_iter().enumerate() {
        let spec = serving_spec(&format!("point-{gap}"), gap);
        let out = server.run_job(&spec);
        assert_eq!(field(&out.line, "status"), "completed");
        // Another mean gap is another arrival schedule: only the warm
        // point may resume.
        assert_eq!(
            out.log.iter().any(|l| l.contains("cache hit")),
            i == 0,
            "gap {gap}: {:?}",
            out.log
        );
        let solo = Server::new().run_job(&spec);
        assert_eq!(
            out.line, solo.line,
            "resumed serving point at gap {gap} diverged from one-shot"
        );
        curve.push((gap, field(&out.line, "latency_p99").parse::<u64>().unwrap()));
    }
    assert!(server.cache().hits() >= 1, "prefix cache never hit");

    // The curve keeps the serving-tier shape: saturation inflates p99.
    let relaxed = curve[0].1;
    let saturated = curve[2].1;
    assert!(saturated > relaxed, "p99 must grow with load: {curve:?}");
}

#[test]
fn cancelled_jobs_report_cancelled_without_running() {
    let server = Server::new();
    server.cancel("doomed");
    let mut spec = JobSpec::new("doomed");
    spec.workload = Workload::Ticket;
    spec.rounds = 50;
    let out = server.run_job(&spec);
    assert_eq!(field(&out.line, "status"), "cancelled");
    assert_eq!(
        field(&out.line, "cycles"),
        "0",
        "cancelled before any slice"
    );
}

#[test]
fn timeouts_fire_between_checkpoints() {
    let server = Server::new();
    let mut spec = JobSpec::new("slowpoke");
    spec.workload = Workload::Ticket;
    spec.rounds = 50;
    spec.timeout_ms = Some(0);
    let out = server.run_job(&spec);
    assert_eq!(field(&out.line, "status"), "timeout");
}

#[test]
fn batch_respects_priority_order_with_one_worker() {
    let server = Server::new();
    let mut order = Vec::new();
    let mut jobs = Vec::new();
    for (id, priority) in [("low", 0), ("high", 9), ("mid", 4)] {
        let mut spec = JobSpec::new(id);
        spec.pes = 4;
        spec.rounds = 2;
        spec.priority = priority;
        jobs.push(spec);
    }
    server.run_batch(jobs, 1, 1, |out| order.push(out.id));
    // Capacity 1 + a single worker: "low" is claimed immediately (the
    // queue never holds more than one job), then the remaining two pop
    // by priority.
    assert_eq!(order, ["low", "high", "mid"]);
}

#[test]
fn cancelling_a_running_job_yields_exactly_one_cancelled_result() {
    // The race under test: the job has already been dequeued and is
    // mid-simulation when the cancel arrives. It must stop at the next
    // cancellation poll and emit exactly one terminal result line.
    let server = Arc::new(Server::new());
    let mut spec = JobSpec::new("marathon");
    spec.workload = Workload::Ticket;
    spec.rounds = 1_000_000; // far more work than any test should finish
    spec.cycles = u64::MAX / 2;
    spec.checkpoint_every = 64; // poll cancellation often

    let (tx, rx) = mpsc::channel::<JobOutcome>();
    let batch = {
        let server = Arc::clone(&server);
        let spec = spec.clone();
        thread::spawn(move || server.run_batch(vec![spec], 1, 1, |out| tx.send(out).unwrap()))
    };
    // The first checkpoint landing in the cache proves the job is past
    // dequeue and actively simulating — cancel exactly then.
    while server.cache().is_empty() {
        thread::yield_now();
    }
    server.cancel("marathon");
    assert_eq!(batch.join().unwrap(), 1);

    let outcomes: Vec<JobOutcome> = rx.iter().collect();
    assert_eq!(
        outcomes.len(),
        1,
        "a cancelled-while-running job must emit exactly one result line"
    );
    assert_eq!(outcomes[0].status, JobStatus::Cancelled);
    assert_eq!(field(&outcomes[0].line, "status"), "cancelled");
    assert!(
        field(&outcomes[0].line, "cycles").parse::<u64>().unwrap() > 0,
        "the job was running when cancelled, so it simulated some cycles"
    );
}

#[test]
fn observability_never_changes_result_lines() {
    // The determinism contract: metrics, spans and the flight recorder
    // observe the service without steering it. The same batch through an
    // instrumented server and a bare one must render byte-identical
    // result lines.
    let jobs = mixed_batch();
    let run = |server: &Server| {
        let mut lines = Vec::new();
        let done = server.run_batch(jobs.clone(), 3, 8, |out| {
            lines.push((out.id.clone(), out.line))
        });
        assert_eq!(done, jobs.len());
        lines.sort();
        lines
    };

    let bare = run(&Server::new());
    let observed_server = Server::with_obs(ObsOptions {
        flight_capacity: 64,
        log_level: FlightLevel::Error, // keep test stderr quiet
        trace_jobs: true,
    });
    let observed = run(&observed_server);
    assert_eq!(
        bare, observed,
        "observability must be invisible in result lines"
    );

    // The instrumented run produced a full exposition...
    let text = observed_server.render_metrics().expect("obs is on");
    for needle in [
        "ultra_serve_queue_depth",
        "ultra_serve_queue_enqueued_total",
        "ultra_serve_cache_hits_total",
        "ultra_serve_cache_misses_total",
        "ultra_serve_cache_checkpoints",
        "ultra_serve_cache_bytes",
        "ultra_serve_worker_busy_seconds_total",
        "ultra_serve_jobs_total{status=\"completed\"",
        "ultra_serve_job_latency_seconds{phase=\"total\"",
        "quantile=\"0.99\"",
    ] {
        assert!(text.contains(needle), "exposition lacks {needle}:\n{text}");
    }
    // ...and Chrome trace spans for every job phase.
    let trace = observed_server.trace_json().expect("trace_jobs is on");
    for phase in ["queue-wait", "restore", "slices", "report", "total"] {
        assert!(trace.contains(&format!("\"name\": \"{phase}\"")), "{trace}");
    }
    // The bare server exposes none of it.
    assert!(Server::new().render_metrics().is_none());
}

/// One absurd job line costs only itself. Over-bound `threads` and `pes`
/// used to abort the whole server (thread spawn, allocation) and lose
/// every other job of the batch; now each is an ordinary error line.
#[test]
fn over_bound_job_lines_are_rejected_and_their_neighbours_complete() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    use ultra_serve::spec::{MAX_COPIES, MAX_PES, MAX_SERVING_REQUESTS, MAX_THREADS};

    let batch = r#"{"id": "before", "pes": 16, "workload": "ticket", "rounds": 2}
{"pes": 16, "workload": "ticket", "rounds": 2, "cycles": 100, "threads": 200000}
{"pes": 268435456}
{"pes": 16, "copies": 4096}
{"pes": 16, "workload": "serving", "rounds": 9007199254740992}
{"id": "after", "pes": 16, "workload": "ticket", "rounds": 2}
"#;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ultra-serve"))
        .args(["--batch", "-", "--log-level", "error"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ultra-serve starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(batch.as_bytes()).expect("batch written");
    drop(stdin);
    let out = child.wait_with_output().expect("ultra-serve exits");
    // Rejected lines fail the batch (exit 1); an abort would be a signal.
    assert_eq!(out.status.code(), Some(1), "server died: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 results");
    let by_id: HashMap<String, &str> = stdout.lines().map(|l| (field(l, "id"), l)).collect();
    assert_eq!(by_id.len(), 6, "one result line per input line: {stdout}");
    // A rejected line is answered under its line number.
    for (id, name, max) in [
        ("job-2", "threads", MAX_THREADS),
        ("job-3", "pes", MAX_PES),
        ("job-4", "copies", MAX_COPIES),
        ("job-5", "rounds", MAX_SERVING_REQUESTS),
    ] {
        assert_eq!(field(by_id[id], "status"), "error");
        let error = field(by_id[id], "error");
        assert!(
            error.starts_with(name) && error.contains(&format!("..={max}")),
            "{id}: error `{error}` must name the field and its bound"
        );
    }
    for id in ["before", "after"] {
        assert_eq!(field(by_id[id], "status"), "completed", "{}", by_id[id]);
    }
}

/// A job that panics mid-execution costs only itself: one `error` line,
/// a flight-recorder event, and the worker goes on. `pes = 3` passes no
/// validation here — the spec is built in code — so the machine builder
/// panics on it.
#[test]
fn a_panicking_job_is_one_error_line_and_the_worker_goes_on() {
    let job = |id: &str, pes: usize| {
        let mut spec = JobSpec::new(id);
        spec.pes = pes;
        spec.workload = Workload::Ticket;
        spec.rounds = 4;
        spec
    };
    let specs = vec![job("before", 8), job("broken", 3), job("after", 16)];
    let server = Arc::new(Server::with_obs(ObsOptions {
        log_level: FlightLevel::Error,
        ..ObsOptions::default()
    }));
    // One worker: the jobs after the panic run on the worker it hit. A
    // worker that died with its job would leave the others queued
    // forever, so the results are awaited with a deadline.
    let (tx, rx) = mpsc::channel();
    let batch = (Arc::clone(&server), specs.clone());
    thread::spawn(move || {
        let (server, specs) = batch;
        server.run_batch(specs, 1, 4, |out| {
            let _ = tx.send(out);
        })
    });
    let mut lines = HashMap::new();
    for _ in 0..3 {
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a result line for every job");
        lines.insert(out.id.clone(), (out.status, out.line));
    }
    assert_eq!(lines.len(), 3, "three result lines");
    let (status, line) = &lines["broken"];
    assert_eq!(*status, JobStatus::Error);
    assert_eq!(field(line, "status"), "error");
    assert!(field(line, "error").starts_with("job panicked: "), "{line}");
    for spec in [&specs[0], &specs[2]] {
        let solo = Server::new().run_job(spec);
        assert_eq!(lines[&spec.id], (JobStatus::Completed, solo.line));
    }
    let events = server.obs().expect("obs on").dump_flight();
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"broken\"") && e.contains("panic")),
        "{events:?}"
    );
}
