//! Workload generators: every input the benchmark feeds the program is
//! a pure function of the workload name and the `--seed` value. The
//! program under test never sees the seed, only the generated inputs.
//!
//! The seed chooses *which* inputs (multipliers, machine seeds, job
//! order, arrival times), never *how much* work: job counts, machine
//! sizes and the class mix are fixed, so two seeds measure the same
//! workload and their numbers are comparable.

use ultracomputer::program::{body, Expr, Op, Program};

/// The seed `expected.json` was recorded with, and the default when
/// `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The five workloads, in the order every report prints them.
pub const WORKLOADS: [&str; 5] = [
    "engine_hot",
    "engine_scatter",
    "engine_sparse",
    "serve_cold",
    "serve_resume",
];

/// SplitMix64: small, seedable, and good enough to shuffle job lists
/// and draw exponential gaps. Not the simulator's RNG on purpose — the
/// benchmark must not change when the program's internals do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the job
    /// order and the arrival schedule of one seed are independent.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant at
    /// these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One in-process engine workload: the machine size, the per-PE
/// programs and the `run_for` slice length the floor-time estimator
/// cuts each repetition into.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineWorkload {
    /// Number of PEs.
    pub pes: usize,
    /// Distinct programs, and for each the number of consecutive PEs
    /// that run it (in PE order). One entry means SPMD.
    pub programs: Vec<(Program, usize)>,
    /// Simulated cycles per `run_for` slice. Per workload because
    /// `run_for` has an O(PEs) epilogue: short slices on a wide idle
    /// fabric would measure the epilogue, not the engine.
    pub slice_cycles: u64,
}

/// `rounds` x { fetch-and-add `delta` to word 0 -> store the ticket to a
/// private slot }: the paper's hot-spot idiom.
fn ticket_program(rounds: i64, delta: i64) -> Program {
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(rounds),
                body: body(vec![
                    Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(delta),
                        dst: Some(0),
                    },
                    Op::Store {
                        addr: Expr::add(
                            Expr::add(Expr::Const(1024), Expr::mul(Expr::PeIndex, 64)),
                            Expr::Reg(1),
                        ),
                        value: Expr::Reg(0),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// 40 x { load from a hashed address -> 4 instructions -> store to
/// another hashed address } over a 16N-word region: uniform traffic,
/// nothing combines, and every address is a three-level expression tree.
fn scatter_program(pes: usize, a: i64, b: i64) -> Program {
    let region = Expr::Const(16 * pes as i64);
    let hashed = |mult: i64, index: Expr| {
        Expr::rem(
            Expr::hash(Expr::mul(Expr::PeIndex, mult), index),
            region.clone(),
        )
    };
    Program::new(
        body(vec![
            Op::For {
                reg: 1,
                from: Expr::Const(0),
                to: Expr::Const(40),
                body: body(vec![
                    Op::Load {
                        addr: hashed(a, Expr::Reg(1)),
                        dst: 2,
                    },
                    Op::Compute(4),
                    Op::Store {
                        addr: hashed(b, Expr::add(Expr::Reg(1), 7)),
                        value: Expr::Reg(1),
                    },
                ]),
            },
            Op::Halt,
        ]),
        vec![],
    )
}

/// The engine workload `name` for `seed`, or `None` for a name that is
/// not an engine workload.
#[must_use]
pub fn engine_workload(name: &str, seed: u64) -> Option<EngineWorkload> {
    let mut rng = Rng::new(seed, 0x000e_191e);
    // The increment is invisible to timing (the adders do not care) but
    // makes the final memory image a function of the seed.
    let delta = 1 + rng.below(7) as i64;
    Some(match name {
        "engine_hot" => EngineWorkload {
            pes: 4096,
            programs: vec![(ticket_program(8, delta), 4096)],
            slice_cycles: 4,
        },
        "engine_scatter" => {
            let odd = |rng: &mut Rng| (rng.below(1 << 20) as i64) * 2 + 1;
            let (a, b) = (odd(&mut rng), odd(&mut rng));
            EngineWorkload {
                pes: 1024,
                programs: vec![(scatter_program(1024, a, b), 1024)],
                slice_cycles: 16,
            }
        }
        "engine_sparse" => EngineWorkload {
            pes: 65536,
            programs: vec![
                (ticket_program(1000, delta), 16),
                (Program::new(body(vec![Op::Halt]), vec![]), 65536 - 16),
            ],
            slice_cycles: 1024,
        },
        _ => return None,
    })
}

impl EngineWorkload {
    /// One program per PE, in PE order — what `MachineBuilder::build`
    /// takes. Programs share their bodies (`Arc`), so this is cheap.
    #[must_use]
    pub fn per_pe_programs(&self) -> Vec<Program> {
        let mut all = Vec::with_capacity(self.pes);
        for (program, count) in &self.programs {
            all.extend(std::iter::repeat(program).take(*count).cloned());
        }
        all
    }
}

/// What every job of a serve workload is expected to end as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The workload runs to completion inside its cycle budget.
    Completed,
    /// The budget ends first — the requested outcome of a sweep job.
    BudgetExhausted,
}

impl Expect {
    /// The protocol's status string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::BudgetExhausted => "budget-exhausted",
        }
    }
}

/// One job of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The job id, unique in its list.
    pub id: String,
    /// The NDJSON line sent to `ultra-serve` (no trailing newline).
    pub line: String,
    /// PE count of the job's machine.
    pub pes: u64,
}

/// One serve workload: server flags, warm-up jobs, the measured job
/// list and the fixed open-loop arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWorkload {
    /// The status every result line (warm and measured) must carry.
    pub expect: Expect,
    /// Jobs submitted (and awaited) before measurement starts; their
    /// time counts as set-up.
    pub warm: Vec<Job>,
    /// The measured list, replayed identically in every round and in
    /// both phases, so a job index means the same job everywhere.
    pub jobs: Vec<Job>,
    /// Open-loop arrival rate in jobs per second: a constant of the
    /// workload (half the closed-loop `jobs_per_s` measured at the commit
    /// that introduced the benchmark, to two significant digits), never
    /// derived at run time.
    pub open_rate: f64,
}

/// `ultra-serve` worker threads in every serve workload.
pub const SERVE_WORKERS: usize = 2;

/// Jobs in flight during the closed-loop phase: the whole list, as a
/// client that submits a sweep and then reads the results. A small
/// window would not measure the service: `ultra-serve` writes each
/// result line as two TCP segments, and a client with nothing to send
/// waits for the kernel's 40 ms delayed-ACK timer before it sees the
/// second (window 4 reads about 80 jobs/s on a server whose CPUs could
/// do 340). README.md, "Finding on the seed commit".
pub const CLOSED_WINDOW: usize = SERVE_JOBS;

/// Jobs per serve workload.
pub const SERVE_JOBS: usize = 300;

const REGISTRY: [&str; 4] = ["counter", "ticket", "barrier", "serving"];

/// `rounds` for a `serve_cold` job of class `pes` and registry workload
/// `kind` — sized so a 16-PE job costs well under a millisecond, a
/// 64-PE job one to six, and a 256-PE job a few tens.
fn cold_rounds(pes: u64, kind: &str) -> u64 {
    match (pes, kind) {
        (_, "serving") => 2 * pes,
        (16, _) => 8,
        (64, "ticket") => 24,
        (64, _) => 16,
        (_, "ticket") => 24,
        _ => 32,
    }
}

/// Position of each size class in every block of ten jobs: one 256-PE
/// job, four 64-PE, five 16-PE — the 10 % / 40 % / 50 % mix, spread
/// evenly. Where the expensive jobs fall decides how long two workers
/// take and how long the jobs behind them wait, so the pattern is fixed
/// and the seed only decides *which* job of a class takes each slot;
/// otherwise the metrics would measure the shuffle.
const COLD_BLOCK: [u64; 10] = [256, 16, 64, 16, 64, 16, 64, 16, 64, 16];

fn serve_cold(seed: u64) -> ServeWorkload {
    let mut rng = Rng::new(seed, 0xc01d);
    let seed_base = rng.below(1 << 30);
    // Per class, the registry workloads in equal parts, in seeded order.
    let mut kinds_of = |count: usize| {
        let mut kinds: Vec<&str> = (0..count).map(|i| REGISTRY[i % REGISTRY.len()]).collect();
        rng.shuffle(&mut kinds);
        kinds
    };
    let blocks = SERVE_JOBS / COLD_BLOCK.len();
    let mut pending = [
        (16u64, kinds_of(5 * blocks)),
        (64, kinds_of(4 * blocks)),
        (256, kinds_of(blocks)),
    ];
    let jobs = (0..SERVE_JOBS)
        .map(|n| {
            let pes = COLD_BLOCK[n % COLD_BLOCK.len()];
            let (_, kinds) = pending
                .iter_mut()
                .find(|(class, _)| *class == pes)
                .expect("every block entry is a class");
            let kind = kinds
                .pop()
                .expect("the block pattern matches the class counts");
            let id = format!("cold-{n:03}");
            // A distinct machine seed per job makes every prefix key
            // distinct: nothing in this list can resume from the cache.
            let machine_seed = seed_base + n as u64;
            let rounds = cold_rounds(pes, kind);
            let mut line = format!(
                "{{\"id\": \"{id}\", \"pes\": {pes}, \"seed\": {machine_seed}, \
                 \"workload\": \"{kind}\", \"rounds\": {rounds}, \"checkpoint_every\": 256"
            );
            if kind == "serving" {
                line.push_str(", \"mean_gap\": 20");
            }
            line.push('}');
            Job { id, line, pes }
        })
        .collect();
    ServeWorkload {
        expect: Expect::Completed,
        warm: Vec::new(),
        jobs,
        open_rate: COLD_OPEN_RATE,
    }
}

/// Cycle every `serve_resume` warm job runs to (and checkpoints at).
pub const RESUME_WARM_CYCLES: u64 = 512;

/// Spacing of the sweep's cycle budgets above the warm point.
pub const RESUME_GRID: u64 = 8;

fn serve_resume(seed: u64) -> ServeWorkload {
    let mut rng = Rng::new(seed, 0x4e5);
    let seed_base = rng.below(1 << 30);
    let prefixes: Vec<(u64, u64)> = [256u64, 256, 1024, 1024]
        .iter()
        .enumerate()
        .map(|(i, &pes)| (pes, seed_base + i as u64))
        .collect();
    // `rounds` is large enough that no budget below reaches completion.
    let spec = |id: &str, pes: u64, machine_seed: u64, cycles: u64, every: u64| {
        format!(
            "{{\"id\": \"{id}\", \"pes\": {pes}, \"seed\": {machine_seed}, \
             \"workload\": \"ticket\", \"rounds\": 64, \"cycles\": {cycles}, \
             \"checkpoint_every\": {every}}}"
        )
    };
    let warm = prefixes
        .iter()
        .enumerate()
        .map(|(p, &(pes, machine_seed))| {
            let id = format!("warm-{p}");
            Job {
                line: spec(
                    &id,
                    pes,
                    machine_seed,
                    RESUME_WARM_CYCLES,
                    RESUME_WARM_CYCLES,
                ),
                id,
                pes,
            }
        })
        .collect();
    // Every block of four positions sweeps each prefix once, in seeded
    // order, so the 1024-PE jobs are spread evenly; within a prefix the
    // budgets ascend one grid step at a time. The cache keeps only the
    // eight latest checkpoints of a key, so an ascending sweep always
    // finds one at or below its budget; a descending one would miss and
    // re-simulate from cycle 0.
    let mut order = Vec::with_capacity(SERVE_JOBS);
    while order.len() < SERVE_JOBS {
        let mut block: Vec<usize> = (0..prefixes.len()).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    let mut step = vec![0u64; prefixes.len()];
    let jobs = order
        .iter()
        .enumerate()
        .map(|(n, &p)| {
            step[p] += 1;
            let (pes, machine_seed) = prefixes[p];
            let id = format!("sweep-{n:03}");
            let cycles = RESUME_WARM_CYCLES + RESUME_GRID * step[p];
            Job {
                // One slice per job: it ends at the budget and leaves
                // exactly one new checkpoint there.
                line: spec(&id, pes, machine_seed, cycles, 1 << 20),
                id,
                pes,
            }
        })
        .collect();
    ServeWorkload {
        expect: Expect::BudgetExhausted,
        warm,
        jobs,
        open_rate: RESUME_OPEN_RATE,
    }
}

/// Open-loop rate of `serve_cold`, jobs per second (seed commit: 340
/// closed-loop jobs/s).
pub const COLD_OPEN_RATE: f64 = 170.0;

/// Open-loop rate of `serve_resume`, jobs per second (seed commit: 255
/// closed-loop jobs/s).
pub const RESUME_OPEN_RATE: f64 = 130.0;

/// The serve workload `name` for `seed`, or `None` for a name that is
/// not a serve workload.
#[must_use]
pub fn serve_workload(name: &str, seed: u64) -> Option<ServeWorkload> {
    match name {
        "serve_cold" => Some(serve_cold(seed)),
        "serve_resume" => Some(serve_resume(seed)),
        _ => None,
    }
}

/// A Poisson-shaped arrival schedule: `n` due times in nanoseconds from
/// the start of the phase. The gaps are the `n` mid-quantiles of the
/// exponential distribution with mean `1 / rate_per_s`, in seeded order,
/// rescaled so the last arrival falls at exactly `n / rate_per_s`: every
/// seed offers the same load with the same burstiness and differs only
/// in where the bursts fall.
#[must_use]
pub fn poisson_schedule(seed: u64, n: usize, rate_per_s: f64) -> Vec<u64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln())
        .collect();
    Rng::new(seed, 0x0a22_17a1).shuffle(&mut gaps);
    let scale = n as f64 / rate_per_s / gaps.iter().sum::<f64>() * 1e9;
    let mut at = 0.0;
    gaps.iter()
        .map(|gap| {
            at += gap * scale;
            at as u64
        })
        .collect()
}
