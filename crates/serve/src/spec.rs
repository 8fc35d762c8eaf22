//! Job specifications: what one simulation request asks for.
//!
//! A job is one line of the NDJSON protocol. It names a machine shape
//! (PEs, network copies, seed, fault plan), a workload from the small
//! built-in registry, and execution controls (cycle budget, checkpoint
//! cadence, priority, timeout). [`JobSpec::recipe`] is the one place a
//! job line becomes a machine: the [`Recipe`] it returns is everything
//! that shapes *simulation state*, and nothing else. Two jobs with equal
//! recipes walk bit-identical cycle sequences, which is what lets a sweep
//! job resume from another job's cached checkpoint.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use ultra_faults::FaultPlan;
use ultra_sim::Cycle;
use ultracomputer::machine::{Machine, MachineBuilder, Recipe};
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
/// Each workload is a deterministic function of `(pes, rounds)`: the
/// program it builds identifies its instruction streams.
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
            // seed) is data, installed by [`JobSpec::recipe`].
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
    /// Static fault plan: dead modules and copies, link loss and its
    /// seed.
    pub faults: FaultPlan,
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
            faults: FaultPlan::none(),
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
                "dead_mms" | "dead_copies" => {
                    let items = (value.as_array())
                        .ok_or_else(|| format!("field `{key}` must be an array"))?;
                    for item in items {
                        let unit = uint(key, item)? as usize;
                        spec.faults = match key.as_str() {
                            "dead_mms" => spec.faults.dead_mm(ultra_sim::MmId(unit)),
                            _ => spec.faults.dead_copy(unit),
                        };
                    }
                }
                "link_loss" => {
                    let p = (value.as_f64())
                        .filter(|p| (0.0..1.0).contains(p))
                        .ok_or("field `link_loss` must be a probability in [0, 1)")?;
                    spec.faults = spec.faults.link_loss(p);
                }
                "fault_seed" => spec.faults = spec.faults.seed(uint(key, value)?),
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
        // The plan keeps sets: a unit named twice is killed once.
        let (dead_copies, dead_mms) = (self.faults.dead_copies(), self.faults.dead_mms());
        if let Some(&copy) = dead_copies.iter().find(|&&c| c >= self.copies) {
            return Err(format!(
                "dead copy {copy} out of range (copies={})",
                self.copies
            ));
        }
        if dead_mms.iter().any(|mm| mm.0 >= self.pes) {
            return Err(format!("dead MM out of range (pes={})", self.pes));
        }
        if dead_mms.len() >= self.pes {
            return Err("cannot kill every memory module".into());
        }
        if dead_copies.len() >= self.copies {
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

    /// What this job simulates: the only translation of a job line into
    /// a machine. The server enforces the budget through
    /// [`Machine::run_for`] slices (`max_cycles` is pinned to
    /// `Cycle::MAX`), so jobs differing only in execution controls make
    /// equal recipes, as do a fault seed without a fault and `mean_gap`
    /// outside the serving workload, which shape nothing.
    #[must_use]
    pub fn recipe(&self) -> Recipe {
        let mut b = MachineBuilder::new(self.pes)
            .seed(self.seed)
            .max_cycles(Cycle::MAX)
            .network(self.copies);
        if !self.faults.is_healthy() {
            b = b.faults(self.faults.clone());
        }
        let mut recipe = b.recipe_spmd(&self.workload.program(self.rounds));
        if self.workload == Workload::Serving {
            self.serving_config().install(&mut recipe);
        }
        recipe
    }

    /// Builds a fresh machine for this job at cycle 0.
    #[must_use]
    pub fn machine(&self) -> Machine {
        Machine::from_recipe(self.recipe())
    }

    /// The serving-workload configuration this spec names: request count
    /// from `rounds`, arrival process from `mean_gap` and the machine
    /// seed. Meaningful only when `workload` is `serving`.
    #[must_use]
    pub fn serving_config(&self) -> ultra_workloads::Serving {
        ultra_workloads::Serving::new(self.rounds.max(1) as usize, self.mean_gap).seed(self.seed)
    }

    /// The recipe's hash in hex. Kept only so the benchmark harness,
    /// which groups jobs by it, compiles unchanged; the server keys its
    /// cache on [`JobSpec::recipe`] itself.
    #[must_use]
    pub fn prefix_key(&self) -> String {
        let mut h = DefaultHasher::new();
        self.recipe().hash(&mut h);
        format!("{:016x}", h.finish())
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

        assert_eq!(spec.cycles, 5000);
        assert_eq!(spec.priority, 3);
        assert_eq!(spec.timeout_ms, Some(1000));
        assert_eq!(
            spec.faults,
            FaultPlan::none().dead_copy(1).link_loss(0.1).seed(7)
        );
    }

    #[test]
    fn defaults_fill_everything_optional() {
        let spec = spec_of(r#"{"pes": 4}"#).unwrap();
        assert_eq!(spec.id, "fallback");
        assert_eq!(spec.workload, Workload::Counter);
        assert_eq!(spec.cycles, DEFAULT_CYCLE_BUDGET);
        assert_eq!(spec.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);
        assert!(spec.faults.is_healthy());
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
            (
                r#"{"pes": 2, "dead_mms": [1, 0, 1]}"#,
                "every memory module",
            ),
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
        // A unit named twice is killed once: one module or copy lives.
        for line in [
            r#"{"pes": 2, "dead_mms": [0, 0]}"#,
            r#"{"copies": 2, "dead_copies": [0, 0]}"#,
        ] {
            assert!(spec_of(line).is_ok(), "{line}");
        }
        let line = format!(r#"{{"workload": "serving", "rounds": {MAX_SERVING_REQUESTS}}}"#);
        assert_eq!(spec_of(&line).unwrap().rounds, 1 << 20);
        let closed = format!(r#"{{"rounds": {}}}"#, 2 * MAX_SERVING_REQUESTS);
        assert!(
            spec_of(&closed).is_ok(),
            "the bound is the serving workload's only"
        );
    }

    /// Parity string and a digest of the words the registry workloads
    /// touch (counter, ticket slots, serving completion stamps).
    fn state(m: &Machine) -> (String, u64) {
        let words = (0..1536).chain((0..64).map(|i| ultra_workloads::serving::DONE_BASE + i));
        let memory: Vec<u8> = words.flat_map(|w| m.read_shared(w).to_le_bytes()).collect();
        let report = ultracomputer::MachineReport::from_machine(m);
        (report.parity_string(), ultra_sim::wire::fnv1a(&memory))
    }

    #[test]
    fn equal_recipes_make_machines_that_agree_at_every_cycle() {
        use ultra_sim::rng::{Rng, SplitMix64};
        // Each job changes one field of the base line; no list says which
        // fields shape the machine: the recipe does.
        const CHOICES: &[(&str, &[&str])] = &[
            ("id", &[r#""a""#, r#""b""#]),
            ("pes", &["4", "8"]),
            ("seed", &["1", "2"]),
            ("workload", &[r#""barrier""#, r#""serving""#]),
            ("rounds", &["3", "5"]),
            ("mean_gap", &["7", "30"]),
            ("copies", &["1", "3"]),
            ("threads", &["1", "4"]),
            ("cycles", &["300", "100000"]),
            ("checkpoint_every", &["16", "4096"]),
            ("priority", &["0", "7"]),
            ("timeout_ms", &["60000"]),
            ("telemetry_window", &["32"]),
            ("dead_mms", &["[]", "[1]", "[1, 1]", "[1, 2]", "[2, 1]"]),
            ("dead_copies", &["[]", "[0]", "[0, 0]", "[1]"]),
            ("link_loss", &["0", "-0.0", "0.05", "0.050"]),
            ("fault_seed", &["3", "9"]),
        ];
        let base = r#""pes": 4, "seed": 1, "workload": "ticket", "rounds": 3, "copies": 2"#;
        let mut rng = SplitMix64::new(44);
        let mut draw = || {
            let (key, values) = CHOICES[rng.below(CHOICES.len())];
            let value = values[rng.below(values.len())];
            // A repeated key takes its last value.
            spec_of(&format!(r#"{{{base}, "{key}": {value}}}"#)).unwrap()
        };
        let mut equal = 0;
        for _ in 0..60 {
            let (a, b) = (draw(), draw());
            let (ra, rb) = (a.recipe(), b.recipe());
            if ra != rb {
                continue;
            }
            equal += 1;
            // The key is the recipe's hash.
            assert_eq!(a.prefix_key(), b.prefix_key(), "{a:?} and {b:?} hash apart");
            let (mut ma, mut mb) = (Machine::from_recipe(ra), Machine::from_recipe(rb));
            loop {
                assert_eq!(state(&ma), state(&mb), "{a:?} and {b:?} at {}", ma.now());
                if ma.run_for(1).completed & mb.run_for(1).completed {
                    break;
                }
            }
        }
        assert!((10..50).contains(&equal), "{equal} of 60 pairs equal");
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
