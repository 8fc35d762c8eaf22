//! `ultra-serve` — the Ultracomputer simulator as a resident service.
//!
//! ```text
//! ultra-serve --batch jobs.ndjson [--workers N] [--queue-cap N]
//!             [--metrics-out FILE] [--trace-out FILE]
//!             [--log-level debug|info|warn|error] [--flight-cap N]
//! ultra-serve --listen 127.0.0.1:7077 [same flags]
//! ```
//!
//! Both modes speak the same newline-delimited JSON protocol: one object
//! per line. A job line names a machine and a workload (see
//! `ultra_serve::spec::JobSpec`); `{"cancel": "<id>"}` cancels a queued
//! or running job; `{"metrics"}` (or `{"metrics": true}`) answers with
//! the Prometheus text exposition terminated by a `# EOF` line;
//! `{"dump"}` (or `{"dump": true}`) answers with the flight recorder's
//! NDJSON events terminated by a `{"dump_complete": N}` line;
//! `{"shutdown": true}` (socket mode) drains the queue and exits. On a
//! socket a request line may be at most 1 MiB; a longer one is answered
//! with an error line and ends that connection.
//!
//! **Result lines** go to stdout in batch mode and to the submitting
//! connection in socket mode — every input job yields exactly one.
//! **Diagnostics** are structured NDJSON events on stderr, filtered by
//! `--log-level` (everything is retained in the bounded flight recorder
//! regardless, and the ring is dumped to stderr on job error/timeout).
//!
//! Batch mode exits non-zero if any line failed to parse or validate,
//! or any job timed out (`cancelled` and `budget-exhausted` are
//! requested behavior, not failures); `--batch -` reads from stdin. On
//! exit, `--metrics-out` writes the metrics state as JSON and
//! `--trace-out` writes per-job lifecycle spans as Chrome `trace_event`
//! JSON (loadable in Perfetto).

use std::io::{Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use ultra_obs::flight::FlightLevel;
use ultra_serve::listen;
use ultra_serve::obs::ObsOptions;
use ultra_serve::protocol::{classify, Request};
use ultra_serve::Server;

const DEFAULT_WORKERS: usize = 2;
const DEFAULT_QUEUE_CAP: usize = 64;
const DEFAULT_FLIGHT_CAP: usize = 256;

fn usage() -> ! {
    eprintln!(
        "usage: ultra-serve --batch <file|-> [--workers N] [--queue-cap N]\n\
         \x20                 [--metrics-out FILE] [--trace-out FILE]\n\
         \x20                 [--log-level debug|info|warn|error] [--flight-cap N]\n\
         \x20      ultra-serve --listen <addr> [same flags]"
    );
    std::process::exit(2);
}

struct Options {
    batch: Option<String>,
    listen: Option<String>,
    workers: usize,
    queue_cap: usize,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    log_level: FlightLevel,
    flight_cap: usize,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        batch: None,
        listen: None,
        workers: DEFAULT_WORKERS,
        queue_cap: DEFAULT_QUEUE_CAP,
        metrics_out: None,
        trace_out: None,
        log_level: FlightLevel::Info,
        flight_cap: DEFAULT_FLIGHT_CAP,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--batch" => opts.batch = Some(value(i)),
            "--listen" => opts.listen = Some(value(i)),
            "--workers" => {
                opts.workers = value(i).parse().unwrap_or_else(|_| usage());
            }
            "--queue-cap" => {
                opts.queue_cap = value(i).parse().unwrap_or_else(|_| usage());
            }
            "--metrics-out" => opts.metrics_out = Some(value(i)),
            "--trace-out" => opts.trace_out = Some(value(i)),
            "--log-level" => {
                opts.log_level = FlightLevel::parse(&value(i)).unwrap_or_else(|| usage());
            }
            "--flight-cap" => {
                opts.flight_cap = value(i).parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
        i += 2;
    }
    if opts.batch.is_some() == opts.listen.is_some() {
        usage();
    }
    if opts.workers < 1 || opts.queue_cap < 1 || opts.flight_cap < 1 {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let server = Server::with_obs(ObsOptions {
        flight_capacity: opts.flight_cap,
        log_level: opts.log_level,
        trace_jobs: opts.trace_out.is_some(),
    });
    let code = if let Some(path) = &opts.batch {
        run_batch_mode(&server, path, &opts)
    } else if let Some(addr) = &opts.listen {
        run_listen_mode(&server, addr, &opts)
    } else {
        usage()
    };
    write_artifacts(&server, &opts);
    code
}

/// Writes the `--metrics-out` / `--trace-out` files from the final
/// service state (both modes, on exit).
fn write_artifacts(server: &Server, opts: &Options) {
    let obs = server.obs().expect("main always enables obs");
    for (path, content, kind) in [
        (&opts.metrics_out, server.metrics_json(), "metrics"),
        (&opts.trace_out, server.trace_json(), "trace"),
    ] {
        let (Some(path), Some(content)) = (path, content) else {
            continue;
        };
        match std::fs::write(path, content) {
            Ok(()) => obs.log(
                FlightLevel::Info,
                "",
                "artifact",
                &format!("wrote {kind} to {path}"),
            ),
            Err(e) => obs.log(
                FlightLevel::Error,
                "",
                "artifact",
                &format!("writing {kind} to {path}: {e}"),
            ),
        }
    }
}

fn run_batch_mode(server: &Server, path: &str, opts: &Options) -> ExitCode {
    let obs = server.obs().expect("main always enables obs");
    let text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            obs.log(FlightLevel::Error, "", "io", &format!("reading stdin: {e}"));
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                obs.log(
                    FlightLevel::Error,
                    "",
                    "io",
                    &format!("reading {path}: {e}"),
                );
                return ExitCode::FAILURE;
            }
        }
    };

    // One lock for the whole batch; a flush per result, so a consumer on
    // a pipe sees every line as its job finishes.
    let mut stdout = std::io::stdout().lock();
    let mut emit = |line: &str| writeln!(stdout, "{line}").and_then(|()| stdout.flush());

    let mut specs = Vec::new();
    let mut had_error = false;
    for (index, line) in text.lines().enumerate() {
        match classify(server, line, index + 1) {
            Ok(Request::Job(spec)) => specs.push(*spec),
            Ok(Request::Control | Request::Shutdown) => {}
            Ok(Request::Metrics) => obs.log(
                FlightLevel::Warn,
                "",
                "protocol",
                "metrics control line is answered in --listen mode; use --metrics-out for batch runs",
            ),
            Ok(Request::Dump) => obs.dump_flight_to_stderr("dump requested by batch line"),
            Err(error) => {
                // Every input job yields exactly one terminal result
                // line on stdout, parse failures included.
                let _ = emit(&error);
                had_error = true;
            }
        }
    }

    let submitted = specs.len();
    let mut failed_jobs = 0usize;
    let done = server.run_batch(specs, opts.workers, opts.queue_cap, |outcome| {
        // A result nobody can read is a failed job.
        if emit(&outcome.line).is_err() || outcome.status.is_failure() {
            failed_jobs += 1;
        }
    });
    obs.log(
        FlightLevel::Info,
        "",
        "batch",
        &format!(
            "{done}/{submitted} jobs done ({failed_jobs} failed); cache: {} hits, {} misses, {} evictions, {} checkpoints, {} bytes",
            server.cache().hits(),
            server.cache().misses(),
            server.cache().evictions(),
            server.cache().len(),
            server.cache().bytes()
        ),
    );
    if had_error || done != submitted || failed_jobs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_listen_mode(server: &Server, addr: &str, opts: &Options) -> ExitCode {
    let obs = server.obs().expect("main always enables obs");
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            obs.log(
                FlightLevel::Error,
                "",
                "io",
                &format!("binding {addr}: {e}"),
            );
            return ExitCode::FAILURE;
        }
    };
    obs.log(
        FlightLevel::Info,
        "",
        "listen",
        &format!(
            "listening on {}",
            listener
                .local_addr()
                .map_or_else(|_| addr.to_owned(), |a| a.to_string())
        ),
    );
    listen::serve(server, &listener, opts.workers, opts.queue_cap);
    obs.log(FlightLevel::Info, "", "listen", "shut down");
    ExitCode::SUCCESS
}
