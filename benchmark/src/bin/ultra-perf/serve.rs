//! The service workloads: `ultra-serve --listen` as a child process,
//! driven over one TCP connection with the NDJSON protocol, exactly as
//! any client would — default socket options on the server's side, no
//! knowledge of its internals.
//!
//! Every phase gets a fresh server: the closed-loop phase measures
//! throughput, the open-loop phase latency from a fixed arrival
//! schedule, and neither may find the other's checkpoints in the cache.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ultra_perf::gen::{self, Job, ServeWorkload, CLOSED_WINDOW, SERVE_WORKERS};
use ultra_perf::json::{self, Json};
use ultra_perf::stats::{self, ms};
use ultra_perf::{expected, host};

use crate::tools::Tools;
use crate::RunReport;

/// How long the client waits for any one reply before it declares the
/// remaining jobs of the phase failed.
const REPLY_DEADLINE: Duration = Duration::from_secs(30);

/// How long a server may take to announce its address, and to exit
/// after `{"shutdown": true}`.
const LIFECYCLE_DEADLINE: Duration = Duration::from_secs(15);

/// What the reference run says a job's result line must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub cycles: u64,
    pub parity: String,
}

/// A running `ultra-serve --listen` child.
struct ServerProc {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns the server on an ephemeral port and waits for its
    /// `listening on <addr>` event. Standard error is drained for the
    /// server's lifetime so its event log can never block it.
    fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--workers"])
            .arg(SERVE_WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let drain = thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(at) = line.find("listening on ") {
                    let rest = &line[at + "listening on ".len()..];
                    let addr: String = rest.chars().take_while(|c| *c != '"').collect();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = Self {
            child,
            addr: String::new(),
            stderr: Some(drain),
        };
        server.addr = rx
            .recv_timeout(LIFECYCLE_DEADLINE)
            .map_err(|_| "the server never announced its address")?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and exit and waits until it has, up to
    /// the deadline. Returns whether it exited by itself; dropping the
    /// handle reaps it either way.
    fn shutdown(&mut self, conn: &mut Conn) -> bool {
        let _ = conn.send("{\"shutdown\": true}");
        let deadline = Instant::now() + LIFECYCLE_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                _ => return false,
            }
        }
    }
}

/// No run leaves a server behind, whatever path it ends on: the child
/// is killed (a no-op once it has exited) and waited for, and the
/// stderr drain, which ends at the child's end of file, is joined.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// The one TCP connection of a phase.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        // The generator must not add latency of its own: its request
        // lines leave at once. (The server's socket keeps its defaults.)
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_DEADLINE)))
            .map_err(|e| format!("configuring the socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        send_line(&mut self.writer, line)
    }

    /// The next reply line, without its newline; `None` on timeout,
    /// error or end of stream.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(line.trim_end().to_owned()),
            _ => None,
        }
    }

    /// `{"metrics"}` -> the exposition's lines (without `# EOF`).
    fn metrics(&mut self) -> Option<Vec<String>> {
        self.send("{\"metrics\"}").ok()?;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "# EOF" {
                return Some(lines);
            }
            lines.push(line);
        }
    }
}

/// One request line, written with a single `write` call.
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// The value of exposition sample `name` (no labels).
fn exposition_value(lines: &[String], name: &str) -> Option<f64> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// A server brought up for one phase, and what bringing it up cost.
struct Instance {
    server: ServerProc,
    conn: Conn,
    setup_ns: u64,
}

/// Spawn -> `listening on` -> connect -> first `{"metrics"}` reply ->
/// the warm jobs: everything a client waits for before its first
/// measured job.
fn bring_up(bin: &Path, w: &ServeWorkload, check: &mut Checker) -> Result<Instance, String> {
    let started = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut conn = Conn::open(&server.addr)?;
    conn.metrics()
        .ok_or("no reply to the first {\"metrics\"}")?;
    for job in &w.warm {
        conn.send(&job.line)
            .map_err(|e| format!("sending a warm job: {e}"))?;
    }
    let mut replies = Replies::default();
    for _ in &w.warm {
        replies.push(conn.read_line().ok_or("a warm job got no reply")?);
    }
    let setup_ns = started.elapsed().as_nanos() as u64;
    check.judge(&w.warm, &replies.by_id());
    Ok(Instance {
        server,
        conn,
        setup_ns,
    })
}

/// What the server's own process looked like at the end of a phase.
#[derive(Default, Clone, Copy)]
struct ServerStats {
    peak_rss_mb: f64,
    cpu_s: f64,
    cache_hits: f64,
    cache_misses: f64,
}

impl Instance {
    /// Reads the server's memory, CPU time and cache counters, then
    /// shuts it down and waits for it.
    fn finish(mut self, report: &mut RunReport) -> ServerStats {
        let exposition = self.conn.metrics().unwrap_or_default();
        let pid = self.server.pid();
        let counter = |name| exposition_value(&exposition, name).unwrap_or(0.0);
        let stats = ServerStats {
            peak_rss_mb: host::peak_rss_mb(Some(pid)).unwrap_or(0.0),
            cpu_s: host::cpu_seconds(pid).unwrap_or(0.0),
            cache_hits: counter("ultra_serve_cache_hits_total"),
            cache_misses: counter("ultra_serve_cache_misses_total"),
        };
        if !self.server.shutdown(&mut self.conn) {
            report.fail("the server did not exit after {\"shutdown\": true}".into());
        }
        stats
    }
}

/// The replies of a phase (or of the warm jobs), in arrival order.
#[derive(Default)]
struct Replies {
    at: Vec<Instant>,
    lines: Vec<String>,
}

impl Replies {
    fn push(&mut self, line: String) {
        self.at.push(Instant::now());
        self.lines.push(line);
    }

    /// Job id -> when its result line was read and what it said. Parsed
    /// once the phase is over, so reading stays cheap while it runs.
    fn by_id(&self) -> HashMap<String, (Instant, Json)> {
        self.lines
            .iter()
            .zip(&self.at)
            .filter_map(|(line, at)| {
                let doc = json::parse(line).ok()?;
                let id = doc.get("id")?.as_str()?.to_owned();
                Some((id, (*at, doc)))
            })
            .collect()
    }
}

/// Judges result lines against the reference digests.
struct Checker {
    expect: &'static str,
    reference: HashMap<String, Reference>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    /// Why `job`'s result is wrong, if it is: missing, a status other
    /// than the workload's expected one, or cycles/parity that differ
    /// from the in-process reference run.
    fn fault(&self, job: &Job, reply: Option<&(Instant, Json)>) -> Option<String> {
        let Some((_, doc)) = reply else {
            return Some("no result line".into());
        };
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
        if status != self.expect {
            return Some(format!("status {status}, expected {}", self.expect));
        }
        let got = Reference {
            cycles: doc.get("cycles").and_then(Json::as_u64).unwrap_or(0),
            parity: doc
                .get("parity")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
        };
        match self.reference.get(&job.id) {
            Some(want) if *want == got => None,
            Some(want) => Some(format!(
                "served cycles/parity {}/{} differ from the in-process run's {}/{}",
                got.cycles, got.parity, want.cycles, want.parity
            )),
            None => Some("no reference digest".into()),
        }
    }

    /// Counts every job of `jobs` as attempted and each one without a
    /// correct result among `replies` as failed. Returns, per job,
    /// whether it passed.
    fn judge(&mut self, jobs: &[Job], replies: &HashMap<String, (Instant, Json)>) -> Vec<bool> {
        jobs.iter()
            .map(|job| {
                self.attempted += 1;
                let fault = self.fault(job, replies.get(&job.id));
                if let Some(why) = &fault {
                    self.failed += 1;
                    if self.problems.len() < 8 {
                        self.problems.push(format!("job {}: {why}", job.id));
                    }
                }
                fault.is_none()
            })
            .collect()
    }
}

/// Closed loop: `CLOSED_WINDOW` jobs in flight, the next one sent when
/// a result arrives. Returns the makespan (first byte sent -> last
/// result line read) and the replies.
fn closed_phase(conn: &mut Conn, jobs: &[Job]) -> (Duration, Replies) {
    let mut replies = Replies::default();
    let started = Instant::now();
    let mut unsent = jobs.iter();
    for job in unsent.by_ref().take(CLOSED_WINDOW) {
        let _ = conn.send(&job.line);
    }
    while replies.lines.len() < jobs.len() {
        let Some(line) = conn.read_line() else { break };
        replies.push(line);
        if let Some(job) = unsent.next() {
            let _ = conn.send(&job.line);
        }
    }
    let makespan = replies
        .at
        .last()
        .map_or(Duration::ZERO, |last| last.duration_since(started));
    (makespan, replies)
}

/// Open loop: job `i` is due `schedule_ns[i]` after the phase starts
/// and is sent then, whatever the server is doing. Returns the phase
/// start, the replies, and how late each send actually was.
fn open_phase(conn: &mut Conn, jobs: &[Job], schedule_ns: &[u64]) -> (Instant, Replies, Vec<f64>) {
    let mut replies = Replies::default();
    let mut sender_stream = conn.writer.try_clone().expect("cloning a connected socket");
    let started = Instant::now() + Duration::from_millis(2);
    let lags = thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lags = Vec::with_capacity(jobs.len());
            for (job, &due_ns) in jobs.iter().zip(schedule_ns) {
                let due = started + Duration::from_nanos(due_ns);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                if send_line(&mut sender_stream, &job.line).is_err() {
                    break;
                }
                lags.push(Instant::now().saturating_duration_since(due).as_nanos() as f64);
            }
            lags
        });
        while replies.lines.len() < jobs.len() {
            let Some(line) = conn.read_line() else { break };
            replies.push(line);
        }
        sender.join().expect("the sender thread panicked")
    });
    (started, replies, lags)
}

/// Everything the wire measurement produced.
struct WireNumbers {
    pe_cycles_per_s: f64,
    jobs_per_s: f64,
    job_p50_ms: f64,
    job_p95_ms: f64,
    setup_s: f64,
    rounds: usize,
    servers: Vec<ServerStats>,
    gen_lag_p95_ms: f64,
}

/// Fetches the reference digests from the probe binary's in-process
/// runs and, on the default seed, holds them to `expected.json`.
fn reference_digests(
    name: &str,
    seed: u64,
    tools: &Tools,
    report: &mut RunReport,
) -> Result<HashMap<String, Reference>, String> {
    let doc = tools.probe("oracle", name, seed, &[])?;
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_object)
        .ok_or("oracle output has no `jobs` object")?;
    let mut reference = HashMap::new();
    for (id, entry) in jobs {
        let (Some(cycles), Some(parity)) = (
            entry.get("cycles").and_then(Json::as_u64),
            entry.get("parity").and_then(Json::as_str),
        ) else {
            return Err(format!("oracle entry for {id} is malformed"));
        };
        reference.insert(
            id.clone(),
            Reference {
                cycles,
                parity: parity.to_owned(),
            },
        );
    }
    if seed == gen::DEFAULT_SEED {
        let Some(expected) = expected::serve(name) else {
            report.fail(format!("expected.json has no entry for {name}"));
            return Ok(reference);
        };
        for (id, (cycles, parity)) in &expected {
            let got = reference.get(id);
            if got.map(|r| (r.cycles, r.parity.as_str())) != Some((*cycles, parity)) {
                report.fail(format!(
                    "job {id}: in-process run gives {got:?}, expected.json has {cycles}/{parity}"
                ));
            }
        }
        if expected.len() != reference.len() {
            report.fail(format!(
                "expected.json lists {} jobs for {name}, the workload has {}",
                expected.len(),
                reference.len()
            ));
        }
    }
    Ok(reference)
}

/// Runs closed-loop + open-loop rounds for `seconds` (at least
/// `min_rounds`); output checks and information lines go to `report`.
fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    tools: &Tools,
    report: &mut RunReport,
) -> Result<WireNumbers, String> {
    let w = gen::serve_workload(name, seed).expect("caller checked the workload name");
    let bin = tools.build_server()?;
    let reference = reference_digests(name, seed, tools, report)?;
    let delivered_pe_cycles: f64 = w
        .jobs
        .iter()
        .map(|job| job.pes as f64 * reference.get(&job.id).map_or(0, |r| r.cycles) as f64)
        .sum();
    let mut check = Checker {
        expect: w.expect.as_str(),
        reference,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let schedule = gen::poisson_schedule(seed, w.jobs.len(), w.open_rate);

    let mut makespans = Vec::new();
    let mut setups = Vec::new();
    let mut servers = Vec::new();
    let mut lags = Vec::new();
    // Per job index, the minimum latency-from-due over rounds.
    let mut floor_latency_ns = vec![f64::INFINITY; w.jobs.len()];
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut longest_round = Duration::ZERO;
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed() + longest_round <= budget {
        let round_started = Instant::now();

        let mut closed = bring_up(&bin, &w, &mut check)?;
        setups.push(closed.setup_ns as f64);
        let (makespan, replies) = closed_phase(&mut closed.conn, &w.jobs);
        if check.judge(&w.jobs, &replies.by_id()).iter().all(|&ok| ok) {
            makespans.push(makespan.as_secs_f64());
        }
        servers.push(closed.finish(report));

        let mut open = bring_up(&bin, &w, &mut check)?;
        setups.push(open.setup_ns as f64);
        let (phase_start, replies, mut phase_lags) = open_phase(&mut open.conn, &w.jobs, &schedule);
        let replies = replies.by_id();
        let passed = check.judge(&w.jobs, &replies);
        for (i, job) in w.jobs.iter().enumerate() {
            if let (true, Some((at, _))) = (passed[i], replies.get(&job.id)) {
                let due = phase_start + Duration::from_nanos(schedule[i]);
                let latency = at.saturating_duration_since(due).as_nanos() as f64;
                floor_latency_ns[i] = floor_latency_ns[i].min(latency);
            }
        }
        lags.append(&mut phase_lags);
        servers.push(open.finish(report));

        longest_round = longest_round.max(round_started.elapsed());
        rounds += 1;
    }

    report.attempted += check.attempted;
    report.failed += check.failed;
    report.problems.append(&mut check.problems);

    let best_makespan = stats::min(&makespans);
    floor_latency_ns.retain(|l| l.is_finite());
    if !best_makespan.is_finite() || floor_latency_ns.is_empty() {
        return Err("no round completed without failures".into());
    }
    let latencies = stats::sorted(&floor_latency_ns);
    let numbers = WireNumbers {
        pe_cycles_per_s: delivered_pe_cycles / best_makespan,
        jobs_per_s: w.jobs.len() as f64 / best_makespan,
        job_p50_ms: ms(stats::quantile(&latencies, 0.50)),
        job_p95_ms: ms(stats::quantile(&latencies, 0.95)),
        setup_s: stats::min(&setups) / 1e9,
        rounds,
        gen_lag_p95_ms: ms(stats::quantile(&stats::sorted(&lags), 0.95)),
        servers,
    };

    let q = stats::quartiles(&makespans).unwrap_or([best_makespan; 3]);
    report.info(format!(
        "{name}: {rounds} rounds x (closed loop, window {CLOSED_WINDOW} + open loop at {} jobs/s) of {} jobs, {SERVE_WORKERS} workers",
        w.open_rate,
        w.jobs.len()
    ));
    report.info(format!(
        "closed-loop makespan: min {:.1} ms | q1 {:.1} median {:.1} q3 {:.1} ms",
        best_makespan * 1e3,
        q[0] * 1e3,
        q[1] * 1e3,
        q[2] * 1e3
    ));
    report.info(format!(
        "open-loop latency from due: {} samples (per-job floor over rounds), {} beyond p95 (best-founded tail: p{}); generator lateness p95 {:.3} ms",
        latencies.len(),
        stats::samples_beyond(latencies.len(), 95.0),
        stats::tail_percentile(latencies.len()),
        numbers.gen_lag_p95_ms
    ));
    report.info(format!(
        "set-up per server: min {:.2} ms, median {:.2} ms over {} servers",
        ms(stats::min(&setups)),
        ms(stats::median(&setups)),
        setups.len()
    ));
    Ok(numbers)
}

/// The end-to-end run (tracing off).
pub fn run(name: &str, seed: u64, seconds: f64, min_rounds: usize, tools: &Tools) -> RunReport {
    let mut report = RunReport::default();
    match measure(name, seed, seconds, min_rounds, tools, &mut report) {
        Ok(wire) => {
            report.set("pe_cycles_per_s", wire.pe_cycles_per_s);
            report.set("jobs_per_s", wire.jobs_per_s);
            report.set("job_p50_ms", wire.job_p50_ms);
            report.set("job_p95_ms", wire.job_p95_ms);
            report.set("setup_s", wire.setup_s);
            let rss: Vec<f64> = wire.servers.iter().map(|s| s.peak_rss_mb).collect();
            report.set("peak_rss_mb", stats::median(&rss));
        }
        Err(e) => report.fail(e),
    }
    report
}

/// The traced run: a shorter wire measurement for the numbers only an
/// outside view has (server CPU, generator lateness, cache hit ratio),
/// then the probe binary's in-process replay with a span around every
/// public call.
pub fn run_traced(name: &str, seed: u64, seconds: f64, tools: &Tools) -> RunReport {
    let mut report = RunReport::default();
    let wire = match measure(name, seed, seconds * 0.4, 1, tools, &mut report) {
        Ok(wire) => wire,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    let sum = |f: fn(&ServerStats) -> f64| wire.servers.iter().map(f).sum::<f64>();
    let lookups = sum(|s| s.cache_hits) + sum(|s| s.cache_misses);
    report.set(
        "serve.server_cpu_s",
        sum(|s| s.cpu_s) / wire.servers.len().max(1) as f64,
    );
    report.set("serve.gen_lag_p95_ms", wire.gen_lag_p95_ms);
    report.set(
        "serve.cache_hit_ratio",
        sum(|s| s.cache_hits) / lookups.max(1.0),
    );
    let extra = [
        ("--seconds", (seconds * 0.5).to_string()),
        ("--trace-out", RunReport::trace_path(name)),
    ];
    match tools.probe("replay", name, seed, &extra) {
        Ok(doc) => {
            report.absorb(&doc);
            let in_process_p50_us = doc
                .get("in_process_job_p50_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let wire_p50_us = wire.job_p50_ms * 1e3;
            report.set("serve.wire_overhead_us", wire_p50_us - in_process_p50_us);
            report.set("serve.wait_share", 1.0 - in_process_p50_us / wire_p50_us);
            report.info(format!(
                "job p50: {wire_p50_us:.0} us over the wire ({} rounds) vs {in_process_p50_us:.0} us in process",
                wire.rounds
            ));
        }
        Err(e) => report.fail(format!("in-process replay: {e}")),
    }
    report
}
