//! `ultra-perf` — the repo's benchmark, end to end.
//!
//! ```text
//! ultra-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!     One run of one workload. The last line of standard output is the
//!     result object: {"correct", "attempted", "failed", "metrics"}.
//!     --trace 0 measures the end-to-end metrics with tracing off;
//!     --trace 1 is the separate traced run with the per-layer metrics.
//!
//! ultra-perf [--only <name>] [--seed N] [--seconds S] [--quick]
//!     Every workload (or one), both runs each, one table. --quick is a
//!     smoke test: 1 s per run, end to end only, numbers not for claims.
//!
//! ultra-perf --selfcheck [--only <name>] [--seed N] [--seconds S]
//!     Two complete end-to-end sets back to back; exits non-zero if any
//!     metric differs between them by more than its bound.
//!
//! ultra-perf --record-expected
//!     Rewrites expected.json from the current program (default seed).
//! ```
//!
//! Exit status is non-zero whenever any output failed its check.

mod engine;
mod serve;
mod tools;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use ultra_perf::alloc::CountingAlloc;
use ultra_perf::catalog::{Metric, END_TO_END, PER_LAYER};
use ultra_perf::gen::{self, DEFAULT_SEED, WORKLOADS};
use ultra_perf::json::{self, number, quote, Json};
use ultra_perf::{host, stats};

use crate::tools::Tools;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measurement time of one run unless `--seconds` says otherwise; the
/// same value `BENCHMARK.json` records as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Repetitions an engine run makes however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Rounds a serve run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 1;

/// `--quick`: seconds per run, so every run makes just its minimum.
const QUICK_SECONDS: f64 = 1.0;

/// Below this many seconds a run cannot reach the repetition counts the
/// estimators need; it still runs, and says its numbers are not for
/// claims.
const CLAIMABLE_SECONDS: f64 = 5.0;

/// Directory (under this package) for traces and reports; git-ignored.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunReport {
    /// Operations whose output was checked (repetitions, jobs).
    pub attempted: u64,
    /// Those that failed the check.
    pub failed: u64,
    /// Why, for the first few.
    pub problems: Vec<String>,
    /// Metric name -> value.
    pub metrics: BTreeMap<String, f64>,
    /// Lines printed for information beside the metrics.
    info: Vec<String>,
}

impl RunReport {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Records a failure that is not one job's or repetition's: the
    /// run as a whole counts as one more failed attempt.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(why);
    }

    /// Where the traced run of `workload` writes its Chrome trace.
    pub fn trace_path(workload: &str) -> String {
        format!("{OUT_DIR}/trace-{workload}.json")
    }

    pub fn write_trace(&mut self, workload: &str, content: &str) {
        let path = Self::trace_path(workload);
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, content));
        match written {
            Ok(()) => self.info(format!("trace written to {path}")),
            Err(e) => self.info(format!("could not write {path}: {e}")),
        }
    }

    /// Takes over a probe document: its `metrics` object, its `info`
    /// lines and its `mismatches` count (outputs the probe checked).
    pub fn absorb(&mut self, doc: &Json) {
        if let Some(metrics) = doc.get("metrics").and_then(Json::as_object) {
            for (name, value) in metrics {
                if let Some(value) = value.as_f64() {
                    self.set(name, value);
                }
            }
        }
        for line in doc.get("info").and_then(Json::as_array).unwrap_or(&[]) {
            if let Some(line) = line.as_str() {
                self.info(line.to_owned());
            }
        }
        let checked = doc.get("checked").and_then(Json::as_u64).unwrap_or(0);
        let mismatches = doc.get("mismatches").and_then(Json::as_u64).unwrap_or(0);
        self.attempted += checked;
        self.failed += mismatches;
        if mismatches > 0 {
            self.problems.push(format!(
                "the probe's replay disagreed with the reference on {mismatches} jobs"
            ));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's result line: exactly the catalog's metrics for
    /// this kind of run, in catalog order.
    fn result_line(&self, catalog: &[Metric]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(self.metrics.get(m.name).copied().unwrap_or(0.0)),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    record_expected: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ultra-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      ultra-perf [--only <name>] [--seed N] [--seconds S] [--quick] [--selfcheck]\n\
         \x20      ultra-perf --record-expected\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        only: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
        record_expected: false,
    };
    let mut seconds_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--only" => args.only = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--record-expected" => args.record_expected = true,
            _ => usage(),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = QUICK_SECONDS;
    }
    let named = args.workload.iter().chain(&args.only);
    if args.seconds.is_nan()
        || args.seconds <= 0.0
        || named.clone().any(|w| !WORKLOADS.contains(&w.as_str()))
    {
        usage();
    }
    args
}

/// The honest header: host, toolchain, commit, and every setting that
/// shapes the numbers.
fn header(seed: u64, seconds: f64) -> String {
    host::header_json(&[
        ("seed", seed.to_string()),
        ("seconds_per_run", number(seconds)),
        ("min_repetitions", MIN_REPS.to_string()),
        ("min_rounds", MIN_ROUNDS.to_string()),
        ("serve_workers", gen::SERVE_WORKERS.to_string()),
        ("closed_loop_window", gen::CLOSED_WINDOW.to_string()),
        ("open_rate_serve_cold_per_s", number(gen::COLD_OPEN_RATE)),
        (
            "open_rate_serve_resume_per_s",
            number(gen::RESUME_OPEN_RATE),
        ),
    ])
}

/// One run of one workload, in this process.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool, tools: &Tools) -> ExitCode {
    println!("header: {}", header(seed, seconds));
    let engine = gen::engine_workload(workload, seed).is_some();
    let report = match (engine, trace) {
        (true, false) => engine::run(workload, seed, seconds, MIN_REPS),
        (true, true) => engine::run_traced(workload, seed, seconds, MIN_REPS, tools),
        (false, false) => serve::run(workload, seed, seconds, MIN_ROUNDS, tools),
        (false, true) => serve::run_traced(workload, seed, seconds, tools),
    };
    if seconds < CLAIMABLE_SECONDS {
        println!("NOT FOR CLAIMS: {seconds} s is too short for the estimators to settle");
    }
    for line in &report.info {
        println!("{line}");
    }
    let catalog: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in catalog {
        let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("{workload:<15} {:<30} {value:>16.4} {}", m.name, m.unit);
    }
    println!(
        "{workload:<15} {:<30} {:>16.6} ({} failed of {} attempted)",
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }
    println!("{}", report.result_line(catalog));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this executable — one child
/// per run, so `peak_rss_mb` of an engine workload is that workload's
/// alone — echoing the child's report and parsing its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("the run printed nothing")?;
    for line in lines.iter().filter(|l| !l.starts_with("header: ")) {
        println!("  {line}");
    }
    let doc = json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

fn selected(only: &Option<String>) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.as_deref().map_or(true, |o| o == *w))
        .collect()
}

/// Every selected workload, end to end and (unless `--quick`) traced;
/// one report file.
fn run_suite(args: &Args) -> ExitCode {
    let head = header(args.seed, args.seconds);
    println!("header: {head}");
    if args.quick {
        println!("NOT FOR CLAIMS: --quick runs are too short for the estimators to settle");
    }
    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in selected(&args.only) {
        let mut row = vec![format!("\"workload\": {}", quote(workload))];
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            if trace && args.quick {
                continue;
            }
            println!("== {workload} ({key}) ==");
            match run_child(workload, args.seed, args.seconds, trace) {
                Ok(result) => {
                    all_correct &= result.correct;
                    let metrics: Vec<String> = result
                        .metrics
                        .iter()
                        .map(|(name, value)| format!("{}: {}", quote(name), number(*value)))
                        .collect();
                    row.push(format!(
                        "{}: {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                        quote(key),
                        result.attempted,
                        result.failed,
                        metrics.join(", ")
                    ));
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    all_correct = false;
                }
            }
        }
        rows.push(format!("{{{}}}", row.join(", ")));
    }
    let doc = format!(
        "{{\"claim\": null, \"not_for_claims\": {}, \"header\": {head}, \"workloads\": [\n  {}\n]}}\n",
        args.quick,
        rows.join(",\n  ")
    );
    let path = format!("{OUT_DIR}/report.json");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("report written to {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one output check failed");
        ExitCode::FAILURE
    }
}

/// Two complete end-to-end sets back to back, compared metric by
/// metric against the bounds.
fn run_selfcheck(args: &Args) -> ExitCode {
    println!("header: {}", header(args.seed, args.seconds));
    let workloads = selected(&args.only);
    let mut sets: Vec<Vec<Option<ChildResult>>> = Vec::new();
    let mut ok = true;
    for set in 1..=2 {
        let mut results = Vec::new();
        for workload in &workloads {
            println!("== set {set}: {workload} ==");
            let result = run_child(workload, args.seed, args.seconds, false);
            if let Err(e) = &result {
                println!("FAILED: {e}");
            }
            let result = result.ok();
            ok &= result.as_ref().is_some_and(|r| r.correct);
            results.push(result);
        }
        sets.push(results);
    }
    println!();
    println!(
        "{:<15} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (i, workload) in workloads.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][i], &sets[1][i]) else {
            continue;
        };
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let diff = (y - x).abs() / stats::median(&[x, y]);
            let within = diff <= m.bound;
            ok &= within;
            println!(
                "{workload:<15} {:<16} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.0}%  {}",
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        let fails = a.failed + b.failed;
        ok &= fails == 0;
        println!(
            "{workload:<15} {:<16} {:>16} {:>16} {:>9} {:>6}%  {}",
            "fail_ratio",
            format!("{}/{}", a.failed, a.attempted),
            format!("{}/{}", b.failed, b.attempted),
            "",
            0,
            if fails == 0 { "ok" } else { "FAILURES" }
        );
    }
    if ok {
        println!("selfcheck passed: two sets of runs of the same code agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED");
        ExitCode::FAILURE
    }
}

/// Rewrites `expected.json` from the current program.
fn record_expected(tools: &Tools) -> ExitCode {
    let mut entries = vec![format!("\"seed\": {DEFAULT_SEED}")];
    for workload in WORKLOADS {
        let entry = if gen::engine_workload(workload, DEFAULT_SEED).is_some() {
            engine::record(workload, DEFAULT_SEED)
        } else {
            let doc = tools.probe("oracle", workload, DEFAULT_SEED, &[]);
            let jobs = doc.as_ref().ok().and_then(|d| d.get("jobs")?.as_object());
            let Some(jobs) = jobs else {
                eprintln!("ultra-perf: no oracle output for {workload}: {doc:?}");
                return ExitCode::FAILURE;
            };
            let lines: Vec<String> = jobs
                .iter()
                .map(|(id, e)| {
                    format!(
                        "    {}: {{\"cycles\": {}, \"parity\": {}}}",
                        quote(id),
                        e.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                        quote(e.get("parity").and_then(Json::as_str).unwrap_or(""))
                    )
                })
                .collect();
            format!("{{\n{}\n  }}", lines.join(",\n"))
        };
        entries.push(format!("{}: {entry}", quote(workload)));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    match std::fs::write(&path, format!("{{\n  {}\n}}\n", entries.join(",\n  "))) {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ultra-perf: writing {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let tools = match Tools::locate() {
        Ok(tools) => tools,
        Err(e) => {
            eprintln!("ultra-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.record_expected {
        record_expected(&tools)
    } else if let Some(workload) = &args.workload {
        run_one(workload, args.seed, args.seconds, args.trace, &tools)
    } else if args.selfcheck {
        run_selfcheck(&args)
    } else {
        run_suite(&args)
    }
}
