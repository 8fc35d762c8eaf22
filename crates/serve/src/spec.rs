//! Job specifications: what one simulation request asks for.
//!
//! A job is one line of the NDJSON protocol. It names a machine shape
//! (PEs, network copies, seed, fault plan), a workload from the small
//! built-in registry, and execution controls (cycle budget, checkpoint
//! cadence, priority, timeout). Everything that affects *simulation
//! state* folds into [`JobSpec::prefix_key`] — two jobs with equal keys
//! walk bit-identical cycle sequences, which is what lets a sweep job
//! resume from another job's cached checkpoint.

use std::collections::BTreeMap;

use ultra_faults::FaultPlan;
use ultra_sim::Cycle;
use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Expr, Op, Program};

use crate::json::Json;

/// Default checkpoint cadence in cycles: checkpoints land in the prefix
/// cache (and cancellation/timeout are polled) every this many cycles.
pub const DEFAULT_CHECKPOINT_EVERY: Cycle = 4096;

/// Default total cycle budget when a job does not set `"cycles"`.
pub const DEFAULT_CYCLE_BUDGET: Cycle = 10_000_000;

/// Largest machine a job may ask for (ROADMAP's largest planned row). A
/// job line is outside input and `pes` sizes every allocation.
pub const MAX_PES: usize = 1 << 20;

/// Most requests a serving job may ask for: its `rounds` sizes the
/// arrival schedule and the words installed before the run.
pub const MAX_SERVING_REQUESTS: usize = 1 << 20;

/// Bound on a job line's retired `"threads"` field (checked, then
/// ignored): the engine thread count it once set.
pub const MAX_THREADS: usize = 64;

/// Most network copies a job may ask for (each is a whole fabric).
pub const MAX_COPIES: usize = 16;

/// The built-in workload registry.
///
/// Each workload is a deterministic function of `(pes, rounds)`, so the
/// name plus parameters fully identify the instruction streams — that
/// pair is all the prefix cache needs to key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every PE fetch-and-adds 1 to one shared counter `rounds` times —
    /// the §2.2 hot-word idiom, maximal combining.
    Counter,
    /// Every PE draws `rounds` tickets from a counter and stores each
    /// into a private slot — serialization-heavy, network and banks busy.
    Ticket,
    /// `rounds` alternations of a fetch-and-add with a machine-assisted
    /// barrier — the phase structure of the §4.2 scientific codes.
    Barrier,
    /// The serving tier ([`ultra_workloads::Serving`]): `rounds` requests
    /// arrive open-loop on a seeded Poisson schedule (mean gap from the
    /// spec's `mean_gap` field), workers claim them from a fetch-and-add
    /// ticket queue, and completed jobs report end-to-end latency
    /// percentiles.
    Serving,
}

impl Workload {
    /// Every registry workload, in protocol order (used to pre-register
    /// per-workload metrics so expositions carry zeros from the start).
    pub const ALL: [Workload; 4] = [
        Workload::Counter,
        Workload::Ticket,
        Workload::Barrier,
        Workload::Serving,
    ];

    /// Every registry name, in protocol order — the list quoted by the
    /// unknown-workload parse error.
    pub const NAMES: &'static [&'static str] = &["counter", "ticket", "barrier", "serving"];

    /// The registry name used in the protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Ticket => "ticket",
            Self::Barrier => "barrier",
            Self::Serving => "serving",
        }
    }

    /// Looks a workload up by protocol name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "counter" => Some(Self::Counter),
            "ticket" => Some(Self::Ticket),
            "barrier" => Some(Self::Barrier),
            "serving" => Some(Self::Serving),
            _ => None,
        }
    }

    /// Builds the per-PE program for this workload.
    #[must_use]
    pub fn program(self, rounds: i64) -> Program {
        if self == Self::Serving {
            // The serving program depends only on the request count; the
            // arrival schedule (which does depend on `mean_gap` and the
            // seed) is data, installed by [`JobSpec::machine`].
            return ultra_workloads::Serving::new(rounds.max(1) as usize, 1).program();
        }
        let ops = match self {
            Self::Counter => vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(rounds),
                    body: body(vec![Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: None,
                    }]),
                },
                Op::Halt,
            ],
            Self::Ticket => vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(rounds),
                    body: body(vec![
                        Op::FetchAdd {
                            addr: Expr::Const(0),
                            delta: Expr::Const(1),
                            dst: Some(0),
                        },
                        Op::Store {
                            // Slot base 1024 keeps PE 0's slots clear of
                            // the counter word at address 0.
                            addr: Expr::add(
                                Expr::add(Expr::Const(1024), Expr::mul(Expr::PeIndex, 64)),
                                Expr::Reg(1),
                            ),
                            value: Expr::Reg(0),
                        },
                    ]),
                },
                Op::Halt,
            ],
            Self::Barrier => vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(rounds),
                    body: body(vec![
                        Op::FetchAdd {
                            addr: Expr::Const(0),
                            delta: Expr::Const(1),
                            dst: Some(0),
                        },
                        Op::Barrier,
                    ]),
                },
                Op::Halt,
            ],
            Self::Serving => unreachable!("serving returns early above"),
        };
        Program::new(body(ops), vec![])
    }
}

/// The fault-plan slice of a job: static faults only, all seeded.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Memory modules dead at boot.
    pub dead_mms: Vec<usize>,
    /// Network copies dead at boot (requires `copies` > the index).
    pub dead_copies: Vec<usize>,
    /// Per-link loss probability in [0, 1).
    pub link_loss: f64,
    /// Seed for the loss process (and any other stochastic faults).
    pub fault_seed: u64,
}

impl FaultSpec {
    fn none() -> Self {
        Self {
            dead_mms: Vec::new(),
            dead_copies: Vec::new(),
            link_loss: 0.0,
            fault_seed: 0,
        }
    }

    fn is_none(&self) -> bool {
        self.dead_mms.is_empty() && self.dead_copies.is_empty() && self.link_loss == 0.0
    }

    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none().seed(self.fault_seed);
        for &mm in &self.dead_mms {
            plan = plan.dead_mm(ultra_sim::MmId(mm));
        }
        for &copy in &self.dead_copies {
            plan = plan.dead_copy(copy);
        }
        if self.link_loss > 0.0 {
            plan = plan.link_loss(self.link_loss);
        }
        plan
    }
}

/// One simulation request, fully validated.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job identifier, echoed in the result line and used for
    /// cancellation. Unique per submission batch by convention.
    pub id: String,
    /// PE count (a power of two).
    pub pes: usize,
    /// Machine seed (serialization order etc.).
    pub seed: u64,
    /// Which registry workload to run.
    pub workload: Workload,
    /// Workload size parameter (for `serving`: the request count).
    pub rounds: i64,
    /// Mean inter-arrival gap in cycles for the `serving` workload
    /// (inverse offered load); ignored by the closed workloads.
    pub mean_gap: u64,
    /// Network copies `d` (1 = single copy).
    pub copies: usize,
    /// No-op, kept only so existing callers compile: a job line's
    /// `"threads"` is range-checked (`1..=MAX_THREADS`) and ignored. The
    /// cycle engine is sequential; the server's `--workers` use the
    /// host's other cores.
    pub threads: usize,
    /// Total cycle budget: the job runs until the workload completes or
    /// the machine reaches this cycle, whichever is first.
    pub cycles: Cycle,
    /// Checkpoint cadence: checkpoint (and poll cancellation/timeout)
    /// every this many cycles.
    pub checkpoint_every: Cycle,
    /// Queue priority (higher runs first; FIFO among equals).
    pub priority: i64,
    /// Wall-clock timeout in milliseconds, polled between checkpoints.
    pub timeout_ms: Option<u64>,
    /// When set, attach cycle-windowed telemetry with this window to the
    /// result. Telemetry jobs never *resume* from the prefix cache (a
    /// checkpoint carries no telemetry history) but still seed it.
    pub telemetry_window: Option<u64>,
    /// Static fault plan.
    pub faults: FaultSpec,
}

impl JobSpec {
    /// A baseline spec for `id` — 8 PEs, counter workload, defaults
    /// everywhere. Tests and callers override fields directly.
    #[must_use]
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_owned(),
            pes: 8,
            seed: 0x5eed,
            workload: Workload::Counter,
            rounds: 4,
            mean_gap: 50,
            copies: 1,
            threads: 1,
            cycles: DEFAULT_CYCLE_BUDGET,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            priority: 0,
            timeout_ms: None,
            telemetry_window: None,
            faults: FaultSpec::none(),
        }
    }

    /// Parses one protocol object into a validated spec. `fallback_id`
    /// names the job when the line omits `"id"`.
    pub fn from_json(obj: &BTreeMap<String, Json>, fallback_id: &str) -> Result<Self, String> {
        let mut spec = Self::new(fallback_id);
        let uint = |key: &str, v: &Json| {
            v.as_u64()
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        };
        for (key, value) in obj {
            match key.as_str() {
                "id" => {
                    let id = value.as_str().ok_or("field `id` must be a string")?;
                    if id.is_empty() {
                        return Err("field `id` must not be empty".into());
                    }
                    spec.id = id.to_owned();
                }
                "pes" => spec.pes = uint(key, value)? as usize,
                "seed" => spec.seed = uint(key, value)?,
                "workload" => {
                    let name = value.as_str().ok_or("field `workload` must be a string")?;
                    spec.workload = Workload::by_name(name).ok_or_else(|| {
                        format!(
                            "unknown workload `{name}` (known workloads: {})",
                            Workload::NAMES.join(", ")
                        )
                    })?;
                }
                "rounds" => {
                    spec.rounds = value
                        .as_i64()
                        .filter(|&r| r >= 1)
                        .ok_or("field `rounds` must be a positive integer")?;
                }
                "mean_gap" => {
                    spec.mean_gap = value
                        .as_u64()
                        .filter(|&g| g >= 1)
                        .ok_or("field `mean_gap` must be a positive integer")?;
                }
                "copies" => spec.copies = uint(key, value)? as usize,
                "threads" => spec.threads = uint(key, value)? as usize,
                "cycles" => spec.cycles = uint(key, value)?,
                "checkpoint_every" => spec.checkpoint_every = uint(key, value)?,
                "priority" => {
                    spec.priority = value
                        .as_i64()
                        .ok_or("field `priority` must be an integer")?;
                }
                "timeout_ms" => spec.timeout_ms = Some(uint(key, value)?),
                "telemetry_window" => {
                    let window = uint(key, value)?;
                    if window == 0 {
                        return Err("field `telemetry_window` must be positive".into());
                    }
                    spec.telemetry_window = Some(window);
                }
                "dead_mms" => {
                    let items = value
                        .as_array()
                        .ok_or("field `dead_mms` must be an array")?;
                    spec.faults.dead_mms = items
                        .iter()
                        .map(|v| uint(key, v).map(|m| m as usize))
                        .collect::<Result<_, _>>()?;
                }
                "dead_copies" => {
                    let items = value
                        .as_array()
                        .ok_or("field `dead_copies` must be an array")?;
                    spec.faults.dead_copies = items
                        .iter()
                        .map(|v| uint(key, v).map(|c| c as usize))
                        .collect::<Result<_, _>>()?;
                }
                "link_loss" => {
                    spec.faults.link_loss = value
                        .as_f64()
                        .filter(|p| (0.0..1.0).contains(p))
                        .ok_or("field `link_loss` must be a probability in [0, 1)")?;
                }
                "fault_seed" => spec.faults.fault_seed = uint(key, value)?,
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if !self.pes.is_power_of_two() || !(2..=MAX_PES).contains(&self.pes) {
            return Err(format!(
                "pes must be a power of two in 2..={MAX_PES}, got {}",
                self.pes
            ));
        }
        for (field, value, max) in [
            ("copies", self.copies, MAX_COPIES),
            ("threads", self.threads, MAX_THREADS),
        ] {
            if !(1..=max).contains(&value) {
                return Err(format!("{field} must be in 1..={max}, got {value}"));
            }
        }
        if let Some(&copy) = self.faults.dead_copies.iter().find(|&&c| c >= self.copies) {
            return Err(format!(
                "dead copy {copy} out of range (copies={})",
                self.copies
            ));
        }
        if self.faults.dead_mms.iter().any(|&mm| mm >= self.pes) {
            return Err(format!("dead MM out of range (pes={})", self.pes));
        }
        if self.faults.dead_mms.len() >= self.pes {
            return Err("cannot kill every memory module".into());
        }
        if self.faults.dead_copies.len() >= self.copies {
            return Err("cannot kill every network copy".into());
        }
        if self.workload == Workload::Serving && self.rounds > MAX_SERVING_REQUESTS as i64 {
            return Err(format!(
                "rounds must be in 1..={MAX_SERVING_REQUESTS} for the serving workload, got {}",
                self.rounds
            ));
        }
        if self.mean_gap < 1 {
            return Err("mean_gap must be >= 1".into());
        }
        if self.cycles < 1 {
            return Err("cycles must be >= 1".into());
        }
        if self.checkpoint_every < 1 {
            return Err("checkpoint_every must be >= 1".into());
        }
        Ok(())
    }

    /// Builds a fresh machine for this job at cycle 0.
    ///
    /// `max_cycles` is pinned to `Cycle::MAX` — the job's budget is
    /// enforced by the server through [`Machine::run_for`] slices, so
    /// jobs differing only in budget share one config identity (and
    /// therefore one prefix-cache key).
    #[must_use]
    pub fn machine(&self) -> Machine {
        let mut b = MachineBuilder::new(self.pes)
            .seed(self.seed)
            .max_cycles(Cycle::MAX);
        if self.copies > 1 {
            b = b.network(self.copies);
        }
        if !self.faults.is_none() {
            b = b.faults(self.faults.plan());
        }
        let mut m = b.build_spmd(&self.workload.program(self.rounds));
        if self.workload == Workload::Serving {
            self.serving_config().install(&mut m);
        }
        m
    }

    /// The serving-workload configuration this spec names: request count
    /// from `rounds`, arrival process from `mean_gap` and the machine
    /// seed. Meaningful only when `workload` is `serving`.
    #[must_use]
    pub fn serving_config(&self) -> ultra_workloads::Serving {
        ultra_workloads::Serving::new(self.rounds.max(1) as usize, self.mean_gap).seed(self.seed)
    }

    /// The prefix-cache key: every field that shapes simulation state,
    /// and nothing that doesn't. Budget, priority, timeout, telemetry,
    /// checkpoint cadence, the retired thread count and the job id are all
    /// excluded — jobs differing only in those walk bit-identical cycle
    /// sequences and may share checkpoints.
    #[must_use]
    pub fn prefix_key(&self) -> String {
        format!(
            "pes={};seed={};workload={};rounds={};mean_gap={};copies={};dead_mms={:?};dead_copies={:?};link_loss={};fault_seed={}",
            self.pes,
            self.seed,
            self.workload.name(),
            self.rounds,
            // Only serving machines read the gap; normalizing it to 0
            // elsewhere lets closed-workload jobs keep sharing prefixes.
            if self.workload == Workload::Serving {
                self.mean_gap
            } else {
                0
            },
            self.copies,
            self.faults.dead_mms,
            self.faults.dead_copies,
            self.faults.link_loss,
            self.faults.fault_seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;

    fn spec_of(line: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&parse_object(line).unwrap(), "fallback")
    }

    #[test]
    fn parses_a_full_job_line() {
        let spec = spec_of(
            r#"{"id": "j1", "pes": 16, "seed": 9, "workload": "ticket", "rounds": 12,
                "copies": 2, "dead_copies": [1], "cycles": 5000, "checkpoint_every": 500,
                "priority": 3, "timeout_ms": 1000, "link_loss": 0.1, "fault_seed": 7}"#,
        )
        .unwrap();
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.pes, 16);
        assert_eq!(spec.workload, Workload::Ticket);
        assert_eq!(spec.rounds, 12);
        assert_eq!(spec.copies, 2);
        assert_eq!(spec.faults.dead_copies, [1]);
        assert_eq!(spec.cycles, 5000);
        assert_eq!(spec.priority, 3);
        assert_eq!(spec.timeout_ms, Some(1000));
        assert_eq!(spec.faults.link_loss, 0.1);
    }

    #[test]
    fn defaults_fill_everything_optional() {
        let spec = spec_of(r#"{"pes": 4}"#).unwrap();
        assert_eq!(spec.id, "fallback");
        assert_eq!(spec.workload, Workload::Counter);
        assert_eq!(spec.cycles, DEFAULT_CYCLE_BUDGET);
        assert_eq!(spec.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);
        assert!(spec.faults.is_none());
    }

    #[test]
    fn rejects_bad_fields() {
        for (line, needle) in [
            (r#"{"pes": 6}"#, "power of two"),
            (r#"{"pes": "eight"}"#, "non-negative integer"),
            (r#"{"workload": "fib"}"#, "unknown workload"),
            (
                r#"{"workload": "fib"}"#,
                "counter, ticket, barrier, serving",
            ),
            (r#"{"mean_gap": 0}"#, "positive"),
            (r#"{"rounds": 0}"#, "positive"),
            (r#"{"link_loss": 1.5}"#, "probability"),
            (r#"{"copies": 2, "dead_copies": [2]}"#, "out of range"),
            (r#"{"dead_mms": [9]}"#, "out of range"),
            (r#"{"dead_copies": [0]}"#, "every network copy"),
            (r#"{"pes": 2, "dead_mms": [0, 1]}"#, "every memory module"),
            (r#"{"cycles": 0}"#, "cycles"),
            (r#"{"telemetry_window": 0}"#, "positive"),
            (r#"{"frobnicate": 1}"#, "unknown field"),
            (r#"{"id": ""}"#, "empty"),
            (r#"{"pes": 2097152}"#, "in 2..=1048576, got 2097152"),
            (r#"{"copies": 17}"#, "copies must be in 1..=16, got 17"),
            (r#"{"threads": 65}"#, "threads must be in 1..=64, got 65"),
            (r#"{"threads": 0}"#, "threads must be in 1..=64, got 0"),
            (
                r#"{"workload": "serving", "rounds": 1048577}"#,
                "rounds must be in 1..=1048576 for the serving workload, got 1048577",
            ),
        ] {
            let err = spec_of(line).unwrap_err();
            assert!(
                err.contains(needle),
                "line {line}: error {err:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn machine_shaping_fields_are_accepted_at_their_bounds() {
        let line =
            format!(r#"{{"pes": {MAX_PES}, "copies": {MAX_COPIES}, "threads": {MAX_THREADS}}}"#);
        let spec = spec_of(&line).unwrap();
        assert_eq!((spec.pes, spec.copies, spec.threads), (1 << 20, 16, 64));
        let line = format!(r#"{{"workload": "serving", "rounds": {MAX_SERVING_REQUESTS}}}"#);
        assert_eq!(spec_of(&line).unwrap().rounds, 1 << 20);
        let closed = format!(r#"{{"rounds": {}}}"#, 2 * MAX_SERVING_REQUESTS);
        assert!(
            spec_of(&closed).is_ok(),
            "the bound is the serving workload's only"
        );
    }

    #[test]
    fn prefix_key_ignores_execution_knobs_only() {
        let base = spec_of(r#"{"pes": 8, "seed": 1, "workload": "ticket", "rounds": 5}"#).unwrap();
        let tuned = spec_of(
            r#"{"id": "other", "pes": 8, "seed": 1, "workload": "ticket", "rounds": 5,
                "cycles": 123, "priority": 9, "threads": 3, "checkpoint_every": 7,
                "timeout_ms": 5, "telemetry_window": 64}"#,
        )
        .unwrap();
        assert_eq!(base.prefix_key(), tuned.prefix_key());
        let other_seed =
            spec_of(r#"{"pes": 8, "seed": 2, "workload": "ticket", "rounds": 5}"#).unwrap();
        assert_ne!(base.prefix_key(), other_seed.prefix_key());
        let other_faults =
            spec_of(r#"{"pes": 8, "seed": 1, "workload": "ticket", "rounds": 5, "dead_mms": [3]}"#)
                .unwrap();
        assert_ne!(base.prefix_key(), other_faults.prefix_key());
    }

    #[test]
    fn serving_jobs_complete_and_stamp_every_request() {
        let spec = spec_of(
            r#"{"pes": 4, "seed": 9, "workload": "serving", "rounds": 32, "mean_gap": 40}"#,
        )
        .unwrap();
        let mut m = spec.machine();
        assert!(m.run().completed);
        let lat = spec.serving_config().latencies(&m);
        assert_eq!(lat.count(), 32);
    }

    #[test]
    fn serving_prefix_key_tracks_the_offered_load() {
        let at = |gap: u64| {
            let mut spec = JobSpec::new("s");
            spec.workload = Workload::Serving;
            spec.rounds = 64;
            spec.mean_gap = gap;
            spec.prefix_key()
        };
        assert_ne!(at(20), at(40), "the gap shapes serving state");
        // Closed workloads ignore the gap — and must keep sharing
        // snapshot prefixes across it.
        let closed = |gap: u64| {
            let mut spec = JobSpec::new("c");
            spec.mean_gap = gap;
            spec.prefix_key()
        };
        assert_eq!(closed(20), closed(40));
    }

    #[test]
    fn workloads_complete_and_count_correctly() {
        for (workload, expected_counter) in [
            (Workload::Counter, 4 * 6),
            (Workload::Ticket, 4 * 6),
            (Workload::Barrier, 4 * 6),
        ] {
            let mut spec = JobSpec::new("w");
            spec.pes = 4;
            spec.workload = workload;
            spec.rounds = 6;
            let mut m = spec.machine();
            assert!(m.run().completed, "{} must complete", workload.name());
            assert_eq!(
                m.read_shared(0),
                expected_counter,
                "{} counter",
                workload.name()
            );
        }
    }
}
