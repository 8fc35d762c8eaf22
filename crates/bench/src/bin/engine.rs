//! Cycle-engine throughput harness.
//!
//! Measures simulated-cycles/sec and PE·cycles/sec of the cycle engine at
//! N ∈ {64, 256, 1024, 4096, 16384, 65536} on two workloads, and writes
//! the rows to `BENCH_engine.json` at the repo root:
//!
//! * `ticket` — every PE hammers one combinable hot word (traffic scales
//!   with N; measures the whole engine under load). The 65536 row runs in
//!   full mode only — at that size a single run is ~10 s of wall time.
//! * `idle` — 16 ticket PEs inside the full fabric, every other PE halts
//!   immediately (traffic is constant while topology grows; isolates the
//!   word-packed sweep's *scale with traffic, not switches* claim).
//!
//! Flags (combine freely):
//!
//! * `--quick` — CI-sized iteration counts (~10× shorter runs).
//! * `--check` — instead of (over)writing the baseline: assert runs with
//!   the idle fast-forward on and off are bit-identical on the E8 and E14
//!   harness configurations, and fail if any row regressed more than 35%
//!   in cycles/sec against the committed `BENCH_engine.json` (matched by
//!   N + workload). Exits non-zero on any violation.
//! * `--out <path>` — also write the freshly measured rows to `<path>`
//!   (CI uploads this as an artifact so regressions can be diffed).
//! * `--metrics-out <path>` — run one instrumented N = 1024 ticket
//!   machine with cycle-windowed telemetry (window 1024) and write the
//!   per-window counter series + hot-spot heatmap as JSON.
//! * `--trace-out <path>` — same instrumented run, written as Chrome
//!   `trace_event` JSON: load it at <https://ui.perfetto.dev>.
//! * `--workload <name>` — measure only that workload (`ticket` or
//!   `idle`); an unknown name exits with an error listing the known
//!   workloads instead of panicking mid-run.
//!
//! The committed baseline records the machine it was measured on; the
//! regression gate is only meaningful across runs on comparable hardware.

use std::path::PathBuf;
use std::time::Instant;

use ultra_bench::json::{flag_path, ObsFlags};
use ultra_faults::FaultPlan;
use ultra_obs::json::{array_lines, parse, Json, JsonObject};
use ultracomputer::machine::{MachineBuilder, RunOutcome};
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::{chrome_trace, MachineReport};

/// PEs that stay busy in the `idle` workload (matches the paper's §4.2
/// setting of a few active PEs inside a big fabric).
const IDLE_ACTIVE_PES: usize = 16;

/// Workloads this harness knows how to build; `--workload` accepts any of
/// these, and anything else is a usage error, not a panic.
const KNOWN_WORKLOADS: &[&str] = &["ticket", "idle"];

/// Prints a usage error naming the known workloads and exits non-zero.
fn unknown_workload(name: &str) -> ! {
    eprintln!(
        "error: unknown workload `{name}` (known workloads: {})",
        KNOWN_WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

/// Every PE draws `iters` tickets from one combinable hot word and writes
/// each ticket into a private slot — serialization-heavy, so the network,
/// banks, and PE shards all stay busy.
fn ticket_program(iters: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(iters),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: Expr::add(Expr::mul(Expr::PeIndex, 64), Expr::Reg(1)),
                        value: Expr::Reg(0),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// The `idle` workload: the first [`IDLE_ACTIVE_PES`] run the ticket
/// loop, the rest halt on cycle one. Per-cycle engine cost is then
/// dominated by how the network sweep scales with *topology* rather than
/// traffic — the dense scan pays for every switch of every stage, the
/// sparse walk only for the handful carrying tickets.
fn idle_programs(n: usize, iters: i64) -> Vec<Program> {
    let active = ticket_program(iters);
    let parked = Program::new(body(vec![Op::Halt]), vec![]);
    (0..n)
        .map(|pe| {
            if pe < IDLE_ACTIVE_PES.min(n) {
                active.clone()
            } else {
                parked.clone()
            }
        })
        .collect()
}

struct Row {
    n: usize,
    workload: &'static str,
    iters: i64,
    cycles: u64,
    wall_secs: f64,
    cycles_per_sec: f64,
}

impl Row {
    fn pe_cycles_per_sec(&self) -> f64 {
        self.cycles_per_sec * self.n as f64
    }
}

/// Best-of-`reps` measurement (minimum wall time): simulated cycles are
/// deterministic across repetitions — asserted — so the fastest rep is
/// the least-noisy estimate of the engine's cost.
fn measure(n: usize, iters: i64, workload: &'static str, reps: u32) -> Row {
    let build = || {
        let b = MachineBuilder::new(n);
        match workload {
            "ticket" => b.build_spmd(&ticket_program(iters)),
            "idle" => {
                // Only the active PEs partake in barriers (none here) and
                // the stats range; the parked ones just halt.
                b.build(idle_programs(n, iters))
            }
            other => unknown_workload(other),
        }
    };
    if reps == 1 {
        // Single-rep rows still need the process heap warmed at this
        // fabric size: the first-ever run at a new N pays first-touch
        // page faults for gigabyte-scale shard state, which would bill
        // the measured run ~2x the steady cost.
        let mut warm = build();
        warm.run();
    }
    let mut best: Option<(f64, RunOutcome)> = None;
    for _ in 0..reps {
        let mut m = build();
        let t0 = Instant::now();
        let out = m.run();
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        assert!(
            out.completed,
            "engine bench workload must complete (n={n} workload={workload})"
        );
        if let Some((_, prev)) = &best {
            assert_eq!(prev.cycles, out.cycles, "nondeterministic run at n={n}");
        }
        if best.as_ref().map_or(true, |(w, _)| wall < *w) {
            best = Some((wall, out));
        }
    }
    let (wall, out) = best.expect("reps >= 1");
    Row {
        n,
        workload,
        iters,
        cycles: out.cycles,
        wall_secs: wall,
        cycles_per_sec: out.cycles as f64 / wall,
    }
}

fn render_json(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .uint("n", r.n as u64)
                .str("workload", r.workload)
                .int("iters", r.iters)
                .uint("cycles", r.cycles)
                .float("wall_secs", r.wall_secs, 6)
                .float("cycles_per_sec", r.cycles_per_sec, 1)
                .float("pe_cycles_per_sec", r.pe_cycles_per_sec(), 1)
                .render()
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut text = JsonObject::new()
        .str("bench", "engine")
        .uint("host_cores", cores as u64)
        .raw("rows", array_lines(&items, 4))
        .render();
    text.push('\n');
    text
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Finds the committed cycles/sec for `(n, workload)` in the parsed
/// baseline.
fn baseline_rate(baseline: &Json, n: usize, workload: &str) -> Option<f64> {
    let rows = baseline.as_object()?.get("rows")?.as_array()?;
    rows.iter().filter_map(Json::as_object).find_map(|row| {
        (row.get("n")?.as_u64() == Some(n as u64)
            && row.get("workload")?.as_str() == Some(workload))
        .then(|| row.get("cycles_per_sec")?.as_f64())
        .flatten()
    })
}

/// Fails if any measured row regressed more than 35% in cycles/sec
/// against the committed baseline row with the same (N, workload).
/// Missing baseline rows are skipped — a new N or workload is not a
/// regression.
fn regression_gate(rows: &[Row]) -> Result<(), String> {
    let path = baseline_path();
    match std::fs::read_to_string(&path) {
        Ok(baseline) => {
            let baseline = parse(&baseline)
                .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
            for row in rows {
                let Some(committed) = baseline_rate(&baseline, row.n, row.workload) else {
                    continue;
                };
                let floor = 0.65 * committed;
                println!(
                    "gate n={} {}: {:.0} cycles/s vs committed {:.0} (floor {:.0})",
                    row.n, row.workload, row.cycles_per_sec, committed, floor
                );
                if row.cycles_per_sec < floor {
                    return Err(format!(
                        "n={} ({}) regressed >35%: {:.0} cycles/s vs committed {:.0}",
                        row.n, row.workload, row.cycles_per_sec, committed
                    ));
                }
            }
        }
        Err(_) => println!(
            "no committed baseline at {} — skipping gate",
            path.display()
        ),
    }
    Ok(())
}

/// Bit-identity spot checks on the E8 (64 PEs, d = 1) and E14 (16 PEs,
/// d = 2, copy 0 dead) harness configurations: runs with the idle
/// fast-forward on and off must digest identically.
fn parity_check() -> Result<(), String> {
    type MakeBuilder = Box<dyn Fn() -> MachineBuilder>;
    let cases: [(&str, MakeBuilder, i64); 2] = [
        ("E8 n=64 d=1", Box::new(|| MachineBuilder::new(64)), 8),
        (
            "E14 n=16 d=2 dead-copy",
            Box::new(|| {
                MachineBuilder::new(16)
                    .network(2)
                    .faults(FaultPlan::none().dead_copy(0))
            }),
            20,
        ),
    ];
    for (label, make, iters) in &cases {
        let program = ticket_program(*iters);
        let digest = |b: MachineBuilder| {
            let mut m = b.build_spmd(&program);
            m.run();
            MachineReport::from_machine(&m).parity_string()
        };
        if digest(make()) != digest(make().fast_forward(false)) {
            return Err(format!("{label}: fast-forward changed the simulation"));
        }
        println!("parity {label}: fast-forward == no-fast-forward");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_path = flag_path(&args, "--out");
    let obs = ObsFlags::from_args(&args);
    // `--workload <name>` restricts the matrix to one workload; a name
    // the harness does not know is a usage error listing the known ones.
    let workload_filter = args.iter().position(|a| a == "--workload").map(|i| {
        let name = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("error: --workload needs a name");
            std::process::exit(2);
        });
        if !KNOWN_WORKLOADS.contains(&name.as_str()) {
            unknown_workload(name);
        }
        name.clone()
    });
    let runs = |workload: &str| workload_filter.as_deref().map_or(true, |w| w == workload);
    // Quick rows must still run long enough (≳ 0.1 s) that host jitter
    // cannot swing a best-of-reps row past the regression gate. The
    // 65536 ticket row is full-mode only: one run is ~10 s of wall
    // time, which would dominate a CI --quick pass for one data point.
    let ticket_sizes: &[(usize, i64)] = if quick {
        &[(64, 100), (256, 40), (1024, 10), (4096, 2), (16384, 1)]
    } else {
        &[
            (64, 200),
            (256, 100),
            (1024, 40),
            (4096, 10),
            (16384, 2),
            (65536, 1),
        ]
    };
    // Idle rows run the same iteration count at every N and in both
    // modes (the runs are milliseconds either way): the first cycle, in
    // which every PE executes its `Halt`, is the one O(N) cost left, and
    // equal run lengths amortise it equally — the rows then compare
    // steady-state cycles, whose cost no longer depends on N.
    let idle_sizes = [1024, 4096, 16384, 65536].map(|n| (n, 200));
    // Big-fabric ticket rows run once: a single run is seconds long, so
    // best-of-reps buys nothing but triples the wall time.
    let reps_for = |n: usize| if n >= 16384 { 1 } else { 3 };

    let print_row = |r: &Row| {
        println!(
            "n={:<5} {:<8} cycles={:<8} wall={:.3}s  {:>10.0} cycles/s  {:>12.0} PE·cycles/s",
            r.n,
            r.workload,
            r.cycles,
            r.wall_secs,
            r.cycles_per_sec,
            r.pe_cycles_per_sec()
        );
    };
    let mut rows = Vec::new();
    for &(n, iters) in ticket_sizes {
        if !runs("ticket") {
            break;
        }
        let row = measure(n, iters, "ticket", reps_for(n));
        print_row(&row);
        rows.push(row);
    }
    // Idle-heavy rows price the member walks themselves.
    for (n, iters) in idle_sizes {
        if !runs("idle") {
            break;
        }
        let row = measure(n, iters, "idle", reps_for(n));
        print_row(&row);
        rows.push(row);
    }

    if let Some(path) = &out_path {
        std::fs::write(path, render_json(&rows)).expect("write --out file");
        println!("wrote {}", path.display());
    }
    if obs.any() {
        // One instrumented run of the N = 1024 ticket machine: telemetry
        // at the acceptance window of 1024 cycles, the event trace, and
        // engine phase spans, all on at once.
        let (n, iters) = if quick { (1024, 8) } else { (1024, 40) };
        let mut m = MachineBuilder::new(n).build_spmd(&ticket_program(iters));
        m.enable_telemetry(1024, 1 << 16);
        m.enable_trace(1 << 16);
        m.enable_phase_spans(1 << 16);
        let out = m.run();
        assert!(out.completed, "instrumented run must complete");
        println!(
            "instrumented n={n}: {} cycles, {} telemetry windows, {} phase spans",
            out.cycles,
            m.telemetry().samples().len(),
            m.phase_spans().len()
        );
        obs.write("engine", m.telemetry(), m.heatmap().as_ref(), || {
            chrome_trace(&m)
        });
    }
    if check {
        let mut failed = false;
        if let Err(e) = parity_check() {
            eprintln!("PARITY FAILURE: {e}");
            failed = true;
        }
        if let Err(e) = regression_gate(&rows) {
            eprintln!("REGRESSION: {e}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("engine check passed: parity holds, no >35% cycles/sec regression");
    } else if workload_filter.is_some() {
        // A filtered matrix is not a full baseline; refuse to clobber the
        // committed rows with a partial set.
        println!("--workload filter active — not rewriting the committed baseline");
    } else {
        let path = baseline_path();
        std::fs::write(&path, render_json(&rows)).expect("write BENCH_engine.json");
        println!("wrote {}", path.display());
    }
}
