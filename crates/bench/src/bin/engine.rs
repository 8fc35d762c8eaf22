//! Cycle-engine throughput harness.
//!
//! Measures simulated-cycles/sec and PE·cycles/sec for the sequential and
//! parallel engines at N ∈ {64, 256, 1024, 4096, 16384, 65536} on two
//! workloads, and writes the rows to `BENCH_engine.json` at the repo root:
//!
//! * `ticket` — every PE hammers one combinable hot word (traffic scales
//!   with N; measures the whole engine under load). The 65536 row runs in
//!   full mode only — at that size a single run is ~10 s of wall time.
//! * `idle` — 16 ticket PEs inside the full fabric, every other PE halts
//!   immediately (traffic is constant while topology grows; isolates the
//!   word-packed sweep's *scale with traffic, not switches* claim).
//!   Measured under both engines: the parallel rows price the sparse
//!   dispatch — `run_sparse` must collapse to the inline member walk
//!   when only 16 of 65536 shards are live, not fan out over dead air.
//!
//! Flags (combine freely):
//!
//! * `--quick` — CI-sized iteration counts (~10× shorter runs).
//! * `--check` — instead of (over)writing the baseline: assert the
//!   parallel engine is bit-identical to the sequential one on the E8 and
//!   E14 harness configurations, assert every measured N produced the
//!   same cycle count under both engines, fail if any row regressed more
//!   than 35% in cycles/sec against the committed `BENCH_engine.json`
//!   (matched by N + engine + workload), and compare parallel against
//!   sequential at N ≥ 1024: with ≥ 4 cores parallel must be at least as
//!   fast; with fewer the ratio is printed as information only (two
//!   cores leave the fan-out no headroom, and the verdict on the
//!   parallel engine is its own roadmap item). Exits non-zero on any
//!   violation.
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
use std::thread;
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

/// Cores a host needs before the parallel engine is *gated* against the
/// sequential one (at N ≥ 1024 on the ticket workload it may then not
/// measure below it at all). Narrower hosts only print the ratio.
const PARALLEL_GATE_CORES: usize = 4;

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
    engine: &'static str,
    workload: &'static str,
    threads: usize,
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
fn measure(
    n: usize,
    iters: i64,
    workload: &'static str,
    engine: &'static str,
    threads: usize,
    reps: u32,
) -> (Row, RunOutcome) {
    let build = || {
        let b = MachineBuilder::new(n).threads(threads);
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
        // whichever engine happens to run first ~2x the steady cost.
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
    let row = Row {
        n,
        engine,
        workload,
        threads,
        iters,
        cycles: out.cycles,
        wall_secs: wall,
        cycles_per_sec: out.cycles as f64 / wall,
    };
    (row, out)
}

fn host_threads() -> usize {
    thread::available_parallelism().map_or(1, |p| p.get())
}

fn parallel_threads() -> usize {
    host_threads().clamp(2, 4)
}

fn render_json(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .uint("n", r.n as u64)
                .str("engine", r.engine)
                .str("workload", r.workload)
                .uint("threads", r.threads as u64)
                .int("iters", r.iters)
                .uint("cycles", r.cycles)
                .float("wall_secs", r.wall_secs, 6)
                .float("cycles_per_sec", r.cycles_per_sec, 1)
                .float("pe_cycles_per_sec", r.pe_cycles_per_sec(), 1)
                .render()
        })
        .collect();
    let mut text = JsonObject::new()
        .str("bench", "engine")
        .uint("host_threads", host_threads() as u64)
        .uint("host_cores", host_threads() as u64)
        // The harness does not pin worker threads to cores; recorded so a
        // future pinned baseline is distinguishable from these rows.
        .bool("pinned", false)
        .raw("rows", array_lines(&items, 4))
        .render();
    text.push('\n');
    text
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Finds the committed cycles/sec for `(n, engine, workload)` in the
/// parsed baseline. Baselines written before the workload field existed
/// implicitly measured the ticket workload, so a row without one matches
/// `"ticket"` only.
fn baseline_rate(baseline: &Json, n: usize, engine: &str, workload: &str) -> Option<f64> {
    let rows = baseline.as_object()?.get("rows")?.as_array()?;
    rows.iter().filter_map(Json::as_object).find_map(|row| {
        let row_workload = row.get("workload").map_or(Some("ticket"), Json::as_str);
        (row.get("engine")?.as_str() == Some(engine)
            && row.get("n")?.as_u64() == Some(n as u64)
            && row_workload == Some(workload))
        .then(|| row.get("cycles_per_sec")?.as_f64())
        .flatten()
    })
}

/// Fails if any measured row regressed more than 35% in cycles/sec
/// against the committed baseline row with the same (N, engine,
/// workload). Missing baseline rows are skipped — a new N or workload is
/// not a regression. On hosts with ≥ 4 cores, additionally fails unless
/// the parallel engine measured at least as fast as sequential at
/// N ≥ 1024 on the ticket workload (the persistent pool's reason to
/// exist); narrower hosts print the same ratio as information.
fn regression_gate(rows: &[Row]) -> Result<(), String> {
    let path = baseline_path();
    match std::fs::read_to_string(&path) {
        Ok(baseline) => {
            let baseline = parse(&baseline)
                .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
            for row in rows {
                let Some(committed) = baseline_rate(&baseline, row.n, row.engine, row.workload)
                else {
                    continue;
                };
                let floor = 0.65 * committed;
                println!(
                    "gate n={} {} {}: {:.0} cycles/s vs committed {:.0} (floor {:.0})",
                    row.n, row.engine, row.workload, row.cycles_per_sec, committed, floor
                );
                if row.cycles_per_sec < floor {
                    return Err(format!(
                        "{} n={} ({}) regressed >35%: {:.0} cycles/s vs committed {:.0}",
                        row.engine, row.n, row.workload, row.cycles_per_sec, committed
                    ));
                }
            }
        }
        Err(_) => println!(
            "no committed baseline at {} — skipping gate",
            path.display()
        ),
    }
    let gated = host_threads() >= PARALLEL_GATE_CORES;
    for seq in rows
        .iter()
        .filter(|r| r.engine == "sequential" && r.workload == "ticket" && r.n >= 1024)
    {
        let Some(par) = rows
            .iter()
            .find(|r| r.engine == "parallel" && r.workload == "ticket" && r.n == seq.n)
        else {
            continue;
        };
        let label = if gated { "gate" } else { "info" };
        let ratio = par.cycles_per_sec / seq.cycles_per_sec;
        println!(
            "{label} n={} parallel({}) = {ratio:.2}x sequential ({:.0} vs {:.0} cycles/s)",
            seq.n, par.threads, par.cycles_per_sec, seq.cycles_per_sec
        );
        if gated && par.cycles_per_sec < seq.cycles_per_sec {
            return Err(format!(
                "parallel({}) below sequential at n={}: {:.0} vs {:.0} cycles/s",
                par.threads, seq.n, par.cycles_per_sec, seq.cycles_per_sec
            ));
        }
    }
    Ok(())
}

/// Bit-identity spot checks on the E8 (64 PEs, d = 1) and E14 (16 PEs,
/// d = 2, copy 0 dead) harness configurations: sequential, parallel, and
/// fast-forward-off runs must digest identically.
fn parity_check() -> Result<(), String> {
    type MakeBuilder = Box<dyn Fn() -> MachineBuilder>;
    let threads = parallel_threads();
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
        let seq = digest(make().threads(1));
        let par = digest(make().threads(threads));
        let stepped = digest(make().threads(1).fast_forward(false));
        if seq != par {
            return Err(format!(
                "{label}: parallel({threads}) diverged from sequential"
            ));
        }
        if seq != stepped {
            return Err(format!("{label}: fast-forward changed the simulation"));
        }
        println!("parity {label}: sequential == parallel({threads}) == no-fast-forward");
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
    let threads = parallel_threads();
    // Big-fabric ticket rows run once: a single run is seconds long, so
    // best-of-reps buys nothing but triples the wall time.
    let reps_for = |n: usize| if n >= 16384 { 1 } else { 3 };

    let print_row = |r: &Row| {
        println!(
            "n={:<5} {:<8} {:<10} threads={} cycles={:<8} wall={:.3}s  {:>10.0} cycles/s  {:>12.0} PE·cycles/s",
            r.n, r.workload, r.engine, r.threads, r.cycles, r.wall_secs, r.cycles_per_sec,
            r.pe_cycles_per_sec()
        );
    };
    let mut rows = Vec::new();
    for &(n, iters) in ticket_sizes {
        if !runs("ticket") {
            break;
        }
        let reps = reps_for(n);
        let (seq, seq_out) = measure(n, iters, "ticket", "sequential", 1, reps);
        let (par, par_out) = measure(n, iters, "ticket", "parallel", threads, reps);
        assert_eq!(
            seq_out.cycles, par_out.cycles,
            "engines disagreed on simulated time at n={n}"
        );
        print_row(&seq);
        print_row(&par);
        rows.push(seq);
        rows.push(par);
    }
    // Idle-heavy rows run under both engines: the sequential row prices
    // the member walks themselves, the parallel row checks that sparse
    // dispatch degrades to the same walk (16 live shards must not be
    // scattered across a thread fan-out) instead of taxing it.
    for (n, iters) in idle_sizes {
        if !runs("idle") {
            break;
        }
        let reps = reps_for(n);
        let (seq, seq_out) = measure(n, iters, "idle", "sequential", 1, reps);
        let (par, par_out) = measure(n, iters, "idle", "parallel", threads, reps);
        assert_eq!(
            seq_out.cycles, par_out.cycles,
            "engines disagreed on simulated time at n={n} (idle)"
        );
        print_row(&seq);
        print_row(&par);
        rows.push(seq);
        rows.push(par);
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
            m.telemetry().len(),
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
