//! `ultra-perf-probe` — the benchmark's second binary: everything that
//! reaches *inside* the program.
//!
//! ```text
//! ultra-perf-probe oracle  --workload <serve_*> --seed N
//!     In-process reference run of every job: id -> cycles, parity.
//! ultra-perf-probe replay  --workload <serve_*> --seed N --seconds S [--trace-out FILE]
//!     The job list replayed in process with a span around every public
//!     call, the engine-phase ledger of the mix, `Server::run_job`
//!     timing, and the isolated kernels.
//! ultra-perf-probe kernels --workload <engine_*> --seed N --seconds S
//!     One layer's public API at a time, driven with the workload's
//!     traffic.
//! ```
//!
//! The last line of standard output is one JSON document for
//! `ultra-perf` to absorb. This binary names functions of `ultra-net`,
//! `ultra-mem`, `ultra-pe`, `ultracomputer::interp` and `ultra-serve`;
//! the end-to-end binary names none of them, so a refactor that moves a
//! probed function breaks this build and not the end-to-end numbers.

mod kernels;
mod oracle;
mod replay;

use std::collections::BTreeMap;
use std::process::ExitCode;

use ultra_perf::alloc::CountingAlloc;
use ultra_perf::gen;
use ultra_perf::json::{number, quote};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a probe subcommand hands back: metrics by catalog name, lines
/// for information, and how many outputs it checked / found wrong.
#[derive(Default)]
pub struct ProbeDoc {
    pub metrics: BTreeMap<String, f64>,
    pub info: Vec<String>,
    pub checked: u64,
    pub mismatches: u64,
    /// Extra top-level members, already rendered as JSON.
    pub extra: Vec<(String, String)>,
}

impl ProbeDoc {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
            .collect();
        let info: Vec<String> = self.info.iter().map(|l| quote(l)).collect();
        let mut members = vec![
            format!("\"metrics\": {{{}}}", metrics.join(", ")),
            format!("\"info\": [{}]", info.join(", ")),
            format!("\"checked\": {}", self.checked),
            format!("\"mismatches\": {}", self.mismatches),
        ];
        members.extend(self.extra.iter().map(|(k, v)| format!("{}: {v}", quote(k))));
        format!("{{{}}}", members.join(", "))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ultra-perf-probe <oracle|replay|kernels> --workload <name> [--seed N] [--seconds S] [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| usage());
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 5.0f64;
    let mut trace_out = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace-out" => trace_out = Some(value()),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let doc = match command.as_str() {
        "oracle" => oracle::run(&workload, seed),
        "replay" => replay::run(&workload, seed, seconds, trace_out.as_deref()),
        "kernels" => kernels::run(&workload, seed, seconds),
        _ => usage(),
    };
    match doc {
        Ok(doc) => {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ultra-perf-probe {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
