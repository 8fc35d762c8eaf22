//! What to build: the shared-memory backend choice, the full machine
//! configuration and its builder.

use std::sync::Arc;

use ultra_faults::FaultPlan;
use ultra_mem::TranslationMode;
use ultra_net::config::NetConfig;
use ultra_sim::clock::TimeScale;
use ultra_sim::Cycle;

use super::{Machine, Recipe};
use crate::program::Program;

/// Which shared-memory implementation serves the PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The §2 paracomputer: fixed `latency` cycles per request, no
    /// contention, serialization principle on simultaneous batches.
    Ideal {
        /// Round-trip latency in network cycles.
        latency: Cycle,
    },
    /// The §3/§4 machine: `copies` replicas of the combining Omega network
    /// in front of one memory bank per PE.
    Network {
        /// Number of network copies `d` (§4.1).
        copies: usize,
    },
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Network geometry and switch policy (also fixes the PE count).
    pub net: NetConfig,
    /// Shared-memory backend.
    pub backend: BackendKind,
    /// Cycles per PE instruction and per MM access (§4.2 uses 2 and 2).
    pub time: TimeScale,
    /// Virtual→physical translation mode (§3.1.4).
    pub translation: TranslationMode,
    /// Seed for the serialization order and any stochastic components.
    pub seed: u64,
    /// Safety valve: `run` gives up after this many cycles.
    pub max_cycles: Cycle,
    /// How many contexts (the first `parties` virtual PEs) participate in
    /// each [`crate::program::Op::Barrier`] (`None` = all). The paper's
    /// §4.2 runs use 16–48 active PEs inside a larger fabric; the
    /// inactive PEs run empty programs and skip barriers.
    pub barrier_parties: Option<usize>,
    /// §3.5 hardware multiprogramming factor: interpreter contexts per
    /// physical PE (1 = no multiprogramming).
    pub contexts_per_pe: usize,
    /// Fault-injection plan (network backend only — the ideal
    /// paracomputer has no hardware to break). [`FaultPlan::none`]
    /// leaves the machine bit-identical to a build without the fault
    /// subsystem.
    pub faults: FaultPlan,
    /// Skip provably idle stretches of cycles (all traffic drained,
    /// every context parked) by jumping straight to the next scheduled
    /// event. Bit-identical to per-cycle stepping; on by default.
    pub fast_forward: bool,
}

/// Builder for [`Machine`] (see the crate examples).
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: MachineConfig,
}

impl MachineBuilder {
    /// Starts from an `n`-PE machine with the paper's small 2×2-switch
    /// combining network, network backend, one copy, one context per PE.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            cfg: MachineConfig {
                net: NetConfig::small(n),
                backend: BackendKind::Network { copies: 1 },
                time: TimeScale::default(),
                translation: TranslationMode::Hashed,
                seed: 0x5eed,
                max_cycles: 50_000_000,
                barrier_parties: None,
                contexts_per_pe: 1,
                faults: FaultPlan::none(),
                fast_forward: true,
            },
        }
    }

    /// No-op, kept only so existing callers compile: the cycle engine is
    /// sequential, and a host's other cores serve other jobs
    /// (`ultra-serve --workers`).
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables or disables the idle-cycle fast-forward (on by default).
    /// Purely a speed knob: runs are bit-identical either way.
    #[must_use]
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.cfg.fast_forward = on;
        self
    }

    /// Runs the machine under `plan`: static faults are applied before
    /// cycle 0, scheduled ones fire at their exact cycles. Every loss a
    /// fault makes is reported, and the lost request sent again (see
    /// [`ultra_faults`]'s loss model).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Replaces the network configuration (PE count included).
    #[must_use]
    pub fn net(mut self, net: NetConfig) -> Self {
        self.cfg.net = net;
        self
    }

    /// Uses the ideal paracomputer backend with the given round-trip
    /// latency in cycles.
    #[must_use]
    pub fn ideal(mut self, latency: Cycle) -> Self {
        self.cfg.backend = BackendKind::Ideal { latency };
        self
    }

    /// Uses the network backend with `d` copies.
    #[must_use]
    pub fn network(mut self, copies: usize) -> Self {
        self.cfg.backend = BackendKind::Network { copies };
        self
    }

    /// Sets the time scale (cycles per instruction / per MM access).
    #[must_use]
    pub fn time(mut self, time: TimeScale) -> Self {
        self.cfg.time = time;
        self
    }

    /// Sets the address-translation mode.
    #[must_use]
    pub fn translation(mut self, mode: TranslationMode) -> Self {
        self.cfg.translation = mode;
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the cycle budget for [`Machine::run`].
    #[must_use]
    pub fn max_cycles(mut self, max: Cycle) -> Self {
        self.cfg.max_cycles = max;
        self
    }

    /// Sets how many contexts (the first `parties`) participate in
    /// barriers.
    #[must_use]
    pub fn barrier_parties(mut self, parties: usize) -> Self {
        self.cfg.barrier_parties = Some(parties);
        self
    }

    /// Enables §3.5 hardware multiprogramming: `k` interpreter contexts
    /// per physical PE. The machine then runs `pes × k` virtual PEs, each
    /// with relative performance `1/k` but with memory latency hidden by
    /// context switching.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn multiprogramming(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one context per PE");
        self.cfg.contexts_per_pe = k;
        self
    }

    /// The recipe of the machine [`MachineBuilder::build_spmd`] builds,
    /// without building it: one run of `program` over every context.
    #[must_use]
    pub fn recipe_spmd(self, program: &Program) -> Recipe {
        let n = self.cfg.net.pes * self.cfg.contexts_per_pe;
        Recipe::new(self.cfg, vec![(n, program.clone())])
    }

    /// Builds the machine, giving every context the same `program`.
    #[must_use]
    pub fn build_spmd(self, program: &Program) -> Machine {
        Machine::from_recipe(self.recipe_spmd(program))
    }

    /// Builds the machine with one program per context (virtual PE).
    ///
    /// # Panics
    ///
    /// Panics unless `programs.len()` equals `pes × contexts_per_pe`.
    #[must_use]
    pub fn build(self, programs: Vec<Program>) -> Machine {
        let machine = Machine::from_recipe(Recipe::new(self.cfg, runs(&programs)));
        // Freed after the build: freed first, a 65536-PE column is where
        // the machine's allocations land, and peak heap grows (DESIGN.md
        // §3.8, *Footprint*).
        drop(programs);
        machine
    }
}

/// `programs` as `(count, program)` runs of equal consecutive programs.
/// Equal bodies are compared by pointer first, so programs cloned from
/// one cost one comparison each. Parameters compare element by element:
/// `==` on two `Vec<i64>` calls `memcmp`, which cost 40× more per pair on
/// empty vectors at 4096 PEs.
fn runs(programs: &[Program]) -> Vec<(usize, Program)> {
    let same = |a: &Program, b: &Program| {
        (Arc::ptr_eq(&a.ops, &b.ops) || a.ops == b.ops) && a.params.iter().eq(&b.params)
    };
    let mut runs: Vec<(usize, Program)> = Vec::new();
    for program in programs {
        match runs.last_mut() {
            Some((count, run)) if same(run, program) => *count += 1,
            _ => runs.push((1, program.clone())),
        }
    }
    runs
}
