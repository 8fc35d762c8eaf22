//! The whole Ultracomputer: PEs + PNIs + combining network + MNIs + MMs —
//! or the ideal paracomputer in their place.
//!
//! [`Machine`] runs one [`Program`] per PE *context* against a
//! shared-memory backend:
//!
//! * [`BackendKind::Ideal`] — the §2 paracomputer: every request completes
//!   after a fixed latency, simultaneous requests to one cell are all
//!   served under the serialization principle. This is the configuration
//!   the paper's §5 WASHCLOTH studies used.
//! * [`BackendKind::Network`] — the §3 hardware: requests traverse `d`
//!   copies of the combining Omega network to real memory banks with
//!   finite service rates. This is the configuration of the §4.2 NETSIM
//!   studies.
//!
//! §3.5's latency fallback is supported too: "If the latency remains an
//! impediment to performance, we would hardware-multiprogram the PEs (as
//! in the CHOPP design and the Denelcor HEP machine). Note that k-fold
//! multiprogramming is equivalent to using k times as many PEs — each
//! having relative performance 1/k." With
//! [`MachineBuilder::multiprogramming`], each physical PE holds `k`
//! interpreter contexts sharing one datapath and one PNI; on any stall
//! (locked register, busy location, barrier) the PE issues from another
//! context at zero switch cost, hiding memory latency.
//!
//! The per-cycle schedule is: flush pending injections → memory banks →
//! network fabric (delivering replies unlocks registers) → barrier release
//! → PE execution. A PE therefore observes a reply the same cycle its tail
//! arrives, and a request issued this cycle starts moving next cycle.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use ultra_faults::{Fault, FaultClock, FaultPlan, RetryPolicy};
use ultra_mem::{AddressHasher, MemBank, TranslationMode};
use ultra_net::config::{NetConfig, SweepMode};
use ultra_net::message::{Message, MsgId, MsgKind, Reply};
use ultra_net::omega::ReplicatedOmega;
use ultra_net::stats::NetStats;
use ultra_obs::{
    CounterSnapshot, EnginePhase, GaugeSnapshot, HeatmapSnapshot, PhaseRecorder, PhaseSpan,
    TimeSeries,
};
use ultra_pe::pni::{Pni, PniError};
use ultra_pe::stats::PeStats;
use ultra_sim::clock::TimeScale;
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{
    AtomicBitmap, Cycle, IdMap, MemAddr, MmId, PackedMask, PeId, PoolDispatchStats, Value,
    WorkerPool,
};

use crate::engine::EngineMode;
use crate::interp::{Fetched, IssueSpec, PeInterp};
use crate::paracomputer::Paracomputer;
use crate::program::{Program, Reg};
use crate::trace::{Trace, TraceEvent};

/// Virtual addresses at and above this are reserved for machine-assisted
/// barriers (one word per barrier generation).
pub const BARRIER_VADDR_BASE: usize = 1 << 40;

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
    /// Worker-thread budget per cycle-engine fan-out point (network
    /// copies, memory banks, PE shards). `1` (the default) selects the
    /// sequential engine. Every value produces bit-identical runs.
    pub threads: usize,
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
                threads: 1,
                fast_forward: true,
            },
        }
    }

    /// Opts into the parallel cycle engine: with `threads > 1` each
    /// cycle fans its independent units — network copies, memory banks,
    /// PE shards — out over up to that many OS threads. The default is
    /// the sequential engine (`1`), the faster one on every host measured
    /// so far (`BENCH_engine.json`). Deferred-effect merging keeps every
    /// thread count bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one engine thread");
        self.cfg.threads = threads;
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
    /// cycle 0, scheduled ones fire at their exact cycles. Unless the plan
    /// carries an explicit [`RetryPolicy`], any unhealthy plan enables the
    /// PNI retry protocol with a depth-derived default.
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

    /// Builds the machine, giving every context the same `program`.
    #[must_use]
    pub fn build_spmd(self, program: &Program) -> Machine {
        let n = self.cfg.net.pes * self.cfg.contexts_per_pe;
        self.build(vec![program.clone(); n])
    }

    /// Builds the machine with one program per context (virtual PE).
    ///
    /// # Panics
    ///
    /// Panics unless `programs.len()` equals `pes × contexts_per_pe`.
    #[must_use]
    pub fn build(self, programs: Vec<Program>) -> Machine {
        Machine::new(self.cfg, programs)
    }
}

/// Why a context is not currently executing.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CtxState {
    Ready,
    WaitReg(Reg),
    WaitIssue(IssueSpec, Purpose),
    WaitBarrier,
    WaitFence,
    /// Parked by [`Op::WaitUntil`] until the clock reaches the cycle.
    WaitUntil(Cycle),
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    Data,
    Barrier,
}

#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    /// Virtual PE (context) index.
    ctx: usize,
    dst: Option<Reg>,
    purpose: Purpose,
}

enum BackendImpl {
    Ideal {
        para: Paracomputer,
        latency: Cycle,
        /// due cycle → requests applied (as a simultaneous batch) then.
        pending: BTreeMap<Cycle, Vec<Message>>,
    },
    Network {
        nets: ReplicatedOmega,
        banks: Vec<MemBank>,
        /// Which copy carried each in-flight request (replies return the
        /// same way). Keyed by attempt too: a retry may travel a
        /// different copy than the original, and each answer must return
        /// through the copy that carried its request so decombining
        /// matches.
        copy_of: IdMap<(MsgId, u32), usize>,
    },
}

/// Aggregate resilience counters for one run. All zero under
/// [`FaultPlan::none`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Injections refused by a dead copy or a dead port on the route
    /// (each one is a failover attempt).
    pub refusals: u64,
    /// Requests accepted by a later copy after an earlier copy refused.
    pub failovers: u64,
    /// Requests swallowed by lossy links.
    pub dropped: u64,
    /// Timed-out requests re-issued by the PNIs.
    pub retries: u64,
    /// Redundant replies discarded at the PEs.
    pub duplicate_replies: u64,
    /// Duplicate requests answered from the MM dedup cache.
    pub dedup_hits: u64,
    /// Duplicate requests swallowed at the MMs (the original's reply was
    /// still en route).
    pub dedup_swallowed: u64,
    /// Requests discarded unserved by dead MMs.
    pub dead_discards: u64,
    /// Wait-buffer slots lost to stuck entries.
    pub stuck_wait_entries: u64,
    /// Outbound requests abandoned because no live copy had a route
    /// (recovered by retry under the re-hashed translation).
    pub unroutable: u64,
    /// Physical PEs fail-stopped because the degraded network left them
    /// no route to any module.
    pub deconfigured_pes: u64,
}

impl FaultSummary {
    /// Whether any fault machinery actually fired.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != Self::default()
    }
}

/// Outcome of [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether every context halted and all traffic drained.
    pub completed: bool,
    /// Cycles elapsed.
    pub cycles: Cycle,
}

/// One physical PE's slice of the machine: its interpreter contexts,
/// datapath occupancy, network interface and outbound queue. This is the
/// unit the parallel engine fans out — within a cycle no shard reads
/// another shard, and writes to the machine-wide sinks (request
/// metadata, trace, halt count) are deferred into [`ShardFx`] and merged
/// in shard index order, which is exactly the order the sequential loop
/// produces them in. Both engines therefore generate byte-identical
/// event streams.
struct PeShard {
    /// First virtual PE (context) index of this shard.
    base: usize,
    /// The shard's `k` interpreter contexts.
    interps: Vec<PeInterp>,
    states: Vec<CtxState>,
    stats: Vec<PeStats>,
    /// Datapath occupancy.
    busy_until: Cycle,
    /// Round-robin context cursor (HEP-style).
    cursor: usize,
    /// Network interface.
    pni: Pni,
    /// Outgoing messages awaiting network acceptance.
    outgoing: VecDeque<Message>,
    /// Deferred machine-wide effects of this shard's latest datapath
    /// cycle. Drained (capacity retained — no steady-state allocation)
    /// by the merge that follows each PE phase.
    fx: ShardFx,
}

/// Machine-wide side effects a shard's datapath cycle would have applied
/// in place under the sequential engine.
#[derive(Default)]
struct ShardFx {
    meta: Vec<(MsgId, ReqMeta)>,
    trace: Vec<TraceEvent>,
    halted: usize,
}

impl ShardFx {
    /// Whether the latest datapath cycle produced any deferred effect.
    /// Shards with nothing to merge skip the post-phase drain entirely
    /// (they never set their dirty bit).
    fn is_empty(&self) -> bool {
        self.meta.is_empty() && self.trace.is_empty() && self.halted == 0
    }
}

/// Read-only per-cycle parameters handed to every shard.
#[derive(Clone, Copy)]
struct CycleCtx {
    now: Cycle,
    /// Cycles per PE instruction.
    cpi: Cycle,
    barrier_generation: u64,
    trace_enabled: bool,
}

/// The assembled machine.
pub struct Machine {
    cfg: MachineConfig,
    hasher: AddressHasher,
    /// One shard per physical PE.
    shards: Vec<PeShard>,
    meta: IdMap<MsgId, ReqMeta>,
    backend: BackendImpl,
    barrier_generation: u64,
    barrier_arrived: usize,
    now: Cycle,
    halted_count: usize,
    trace: Trace,
    /// Fires the plan's scheduled faults at their exact cycles.
    fault_clock: FaultClock,
    /// Modules currently dead (static + fired), for cumulative re-hashing.
    dead_mms: Vec<MmId>,
    /// Redundant replies (retry answered alongside the original).
    duplicate_replies: u64,
    /// Outbound requests abandoned because every copy refused the route.
    unroutable: u64,
    /// Physical PEs fail-stopped because no live copy routes them to
    /// any module.
    dead_pes: Vec<PeId>,
    /// Wall-clock duration of the most recent [`Machine::run`].
    run_elapsed: Option<Duration>,
    /// Cycles skipped by the idle fast-forward across all runs.
    fast_forwarded: Cycle,
    /// Pooled completion buffer for [`Machine::backend_cycle`] — replies
    /// are staged here each cycle, so the hot path never allocates.
    deliveries: Vec<Reply>,
    /// Persistent worker threads for the per-cycle fan-outs (PE shards,
    /// memory banks, network copies). A 1-thread pool runs everything
    /// inline on the caller — the sequential engine.
    pool: WorkerPool,
    /// One bit per shard: set (by whichever worker ran the shard) when
    /// its datapath cycle left deferred effects, drained in ascending
    /// word order by the post-phase merge. The pool's completion barrier
    /// orders every mark before the drain, and index order is the
    /// sequential merge order, so the merge stream is identical at any
    /// thread count.
    fx_dirty: AtomicBitmap,
    /// One bit per shard whose `outgoing` queue is non-empty. The
    /// outbound flush and the quiescence/fast-forward checks walk words
    /// of this mask instead of scanning every shard.
    outgoing_mask: PackedMask,
    /// One bit per shard with at least one non-halted context. The PE
    /// phase dispatches over this mask; a fully-halted shard's datapath
    /// cycle is provably a no-op (no context resolves, nothing charges).
    live_mask: PackedMask,
    /// One bit per memory bank holding work (network backend; zero-length
    /// on the ideal backend). Set on request delivery, cleared when the
    /// bank is observed idle after its reply drain; [`MemBank::cycle`]
    /// on an idle bank is a no-op, so masked cycling is exact.
    bank_active: PackedMask,
    /// Whether the PNI retry protocol is on (derived once from the fault
    /// plan; never changes mid-run). With retries off, whole phases —
    /// the retry queue walk, the fast-forward deadline scan — vanish.
    retry_enabled: bool,
    /// Cycle-windowed telemetry recorder (off by default; see
    /// [`Machine::enable_telemetry`]). Sampling only reads simulation
    /// state, so the recorder never perturbs a run.
    series: TimeSeries,
    /// Wall-clock engine-phase spans for Perfetto export (off by
    /// default; see [`Machine::enable_phase_spans`]).
    phases: PhaseRecorder,
    /// Zero point for phase-span timestamps.
    phase_epoch: Instant,
}

impl Machine {
    /// Assembles a machine from `cfg` with one program per context.
    ///
    /// # Panics
    ///
    /// Panics unless `programs.len() == cfg.net.pes * cfg.contexts_per_pe`.
    #[must_use]
    pub fn new(cfg: MachineConfig, programs: Vec<Program>) -> Self {
        let n = cfg.net.pes;
        let k = cfg.contexts_per_pe;
        assert!(k >= 1, "need at least one context per PE");
        let vpes = n * k;
        assert_eq!(programs.len(), vpes, "need one program per context");
        let plan = cfg.faults.clone();
        let mut hasher = AddressHasher::new(n, cfg.translation);
        let static_dead = plan.dead_mms();
        if !static_dead.is_empty() {
            hasher.set_dead_mms(&static_dead);
        }
        let retry = Self::retry_policy_for(&cfg);
        let shards: Vec<PeShard> = (0..n)
            .map(|phys| {
                let base = phys * k;
                let mut pni = Pni::new(PeId(phys), hasher.clone());
                if let Some(policy) = retry {
                    pni.enable_retry(policy);
                }
                PeShard {
                    base,
                    interps: (base..base + k)
                        .map(|vid| PeInterp::new(PeId(vid), vpes, &programs[vid]))
                        .collect(),
                    states: vec![CtxState::Ready; k],
                    stats: (0..k).map(|_| PeStats::new()).collect(),
                    busy_until: 0,
                    cursor: 0,
                    pni,
                    outgoing: VecDeque::new(),
                    fx: ShardFx::default(),
                }
            })
            .collect();
        let backend = match cfg.backend {
            BackendKind::Ideal { latency } => BackendImpl::Ideal {
                para: Paracomputer::new(cfg.seed),
                latency,
                pending: BTreeMap::new(),
            },
            BackendKind::Network { copies } => {
                let mut nets = ReplicatedOmega::new(cfg.net, copies);
                for c in 0..copies {
                    let mask = plan.mask_for_copy(c);
                    if !mask.is_healthy() {
                        nets.copy_mut(c).set_fault_mask(mask);
                    }
                }
                let mut banks: Vec<MemBank> = (0..n)
                    .map(|i| MemBank::new(MmId(i), cfg.time.cycles_per_mm_access))
                    .collect();
                for mm in &static_dead {
                    banks[mm.0].kill();
                }
                for (i, bank) in banks.iter_mut().enumerate() {
                    let factor = plan.slow_factor(MmId(i));
                    if factor > 1 {
                        bank.set_service_time(cfg.time.cycles_per_mm_access * Cycle::from(factor));
                    }
                    if retry.is_some() {
                        bank.enable_dedup();
                    }
                }
                BackendImpl::Network {
                    nets,
                    banks,
                    copy_of: IdMap::default(),
                }
            }
        };
        let mut live_mask = PackedMask::new(n);
        live_mask.rebuild(|_| true);
        let bank_universe = match cfg.backend {
            BackendKind::Network { .. } => n,
            BackendKind::Ideal { .. } => 0,
        };
        let mut machine = Self {
            hasher,
            shards,
            meta: IdMap::default(),
            backend,
            barrier_generation: 0,
            barrier_arrived: 0,
            now: 0,
            halted_count: 0,
            trace: Trace::new(),
            fault_clock: plan.clock(),
            dead_mms: static_dead,
            duplicate_replies: 0,
            unroutable: 0,
            dead_pes: Vec::new(),
            run_elapsed: None,
            fast_forwarded: 0,
            deliveries: Vec::new(),
            pool: WorkerPool::new(cfg.threads.max(1)),
            fx_dirty: AtomicBitmap::new(n),
            outgoing_mask: PackedMask::new(n),
            live_mask,
            bank_active: PackedMask::new(bank_universe),
            retry_enabled: retry.is_some(),
            series: TimeSeries::new(),
            phases: PhaseRecorder::new(),
            phase_epoch: Instant::now(),
            cfg,
        };
        machine.absorb_unreachable();
        machine
    }

    /// The PNI retry policy `cfg` implies: the plan's explicit policy if
    /// it carries one, else a depth-derived default whenever the plan is
    /// unhealthy. Shared by [`Machine::new`] and [`Machine::decode_state`]
    /// so a restored machine derives the same `retry_enabled` gate.
    fn retry_policy_for(cfg: &MachineConfig) -> Option<RetryPolicy> {
        cfg.faults.retry_policy().or_else(|| {
            (!cfg.faults.is_healthy()).then(|| RetryPolicy::for_depth(Self::net_depth(&cfg.net)))
        })
    }

    /// Network depth in stages (`log_k N`).
    fn net_depth(net: &NetConfig) -> usize {
        let mut stages = 0;
        let mut reach = 1;
        while reach < net.pes {
            reach *= net.k;
            stages += 1;
        }
        stages.max(1)
    }

    /// Enables event tracing with room for `capacity` events (ring
    /// buffer; the tail of long runs is retained).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The recorded trace (empty unless [`Machine::enable_trace`] ran).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables cycle-windowed telemetry: every `window` cycles the
    /// machine records one [`ultra_obs::Sample`] — per-window network
    /// counter deltas plus instantaneous queue/wait gauges — into a ring
    /// of `capacity` samples. Purely observational: the sampled series
    /// is bit-identical across engines and fast-forward settings, and
    /// enabling it leaves `parity_string` unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `capacity` is zero.
    pub fn enable_telemetry(&mut self, window: u64, capacity: usize) {
        self.series.enable(window, capacity, self.now);
    }

    /// The telemetry series (empty unless [`Machine::enable_telemetry`]
    /// ran).
    #[must_use]
    pub fn telemetry(&self) -> &TimeSeries {
        &self.series
    }

    /// Enables wall-clock engine-phase span recording (flush / network /
    /// memory-bank / PE-shard timing per cycle) into a ring of
    /// `capacity` spans, for Perfetto export. Spans carry host wall
    /// clock and are *not* deterministic; they never feed back into the
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_phase_spans(&mut self, capacity: usize) {
        self.phases.enable(capacity);
        self.phase_epoch = Instant::now();
    }

    /// Recorded engine-phase spans (empty unless
    /// [`Machine::enable_phase_spans`] ran).
    #[must_use]
    pub fn phase_spans(&self) -> &PhaseRecorder {
        &self.phases
    }

    /// The worker pool's cumulative dispatch accounting.
    #[must_use]
    pub fn pool_dispatch_stats(&self) -> PoolDispatchStats {
        self.pool.dispatch_stats()
    }

    /// The hot-spot heatmap of the network fabric — per-switch combine
    /// counts, queue high-water marks and wait-buffer occupancy, merged
    /// across the `d` copies. `None` on the ideal backend, which has no
    /// fabric.
    #[must_use]
    pub fn heatmap(&self) -> Option<HeatmapSnapshot> {
        match &self.backend {
            BackendImpl::Ideal { .. } => None,
            BackendImpl::Network { nets, .. } => Some(nets.heatmap()),
        }
    }

    /// Number of physical PEs.
    #[must_use]
    pub fn pes(&self) -> usize {
        self.cfg.net.pes
    }

    /// Number of virtual PEs (physical × contexts).
    #[must_use]
    pub fn virtual_pes(&self) -> usize {
        self.cfg.net.pes * self.cfg.contexts_per_pe
    }

    /// The machine configuration.
    #[must_use]
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Per-context statistics (indexed by virtual PE).
    #[must_use]
    pub fn pe_stats(&self) -> Vec<PeStats> {
        self.shards
            .iter()
            .flat_map(|s| s.stats.iter())
            .map(|s| PeStats {
                total_cycles: self.now,
                ..s.clone()
            })
            .collect()
    }

    /// The cycle engine this machine runs: [`EngineMode::Parallel`] when
    /// built with more than one thread, [`EngineMode::Sequential`]
    /// otherwise.
    #[must_use]
    pub fn engine_mode(&self) -> EngineMode {
        match self.pool.threads() {
            0 | 1 => EngineMode::Sequential,
            threads => EngineMode::Parallel { threads },
        }
    }

    /// Test and microbench hook: forces the network's switch sweep
    /// (see `OmegaNetwork::set_sweep_mode`). No-op on the ideal backend;
    /// not carried through a snapshot — re-apply it after a restore.
    #[doc(hidden)]
    pub fn set_sweep_mode(&mut self, mode: SweepMode) {
        if let BackendImpl::Network { nets, .. } = &mut self.backend {
            for c in 0..nets.copies() {
                nets.copy_mut(c).set_sweep_mode(mode);
            }
        }
    }

    /// Wall-clock duration of the most recent [`Machine::run`] call
    /// (`None` before the first run).
    #[must_use]
    pub fn last_run_elapsed(&self) -> Option<Duration> {
        self.run_elapsed
    }

    /// Cycles skipped by the idle fast-forward, summed over all runs
    /// (zero when [`MachineBuilder::fast_forward`] is off).
    #[must_use]
    pub fn fast_forwarded_cycles(&self) -> Cycle {
        self.fast_forwarded
    }

    /// All contexts' statistics merged.
    #[must_use]
    pub fn merged_pe_stats(&self) -> PeStats {
        self.merged_pe_stats_range(0..self.virtual_pes())
    }

    /// Statistics of a subset of contexts merged — used when only the
    /// first `P` virtual PEs run real programs (§4.2's setting).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the virtual PE count.
    #[must_use]
    pub fn merged_pe_stats_range(&self, range: std::ops::Range<usize>) -> PeStats {
        assert!(
            range.end <= self.virtual_pes(),
            "range exceeds the virtual PE count"
        );
        let mut total = PeStats::new();
        let mut merged = 0;
        for shard in &self.shards {
            for (i, s) in shard.stats.iter().enumerate() {
                if range.contains(&(shard.base + i)) {
                    total.merge(s);
                    merged += 1;
                }
            }
        }
        // Every context has been alive for `now` cycles; stamping that
        // here keeps `run_for` free of a per-PE pass after every slice.
        total.total_cycles = self.now * merged;
        total
    }

    /// Aggregate network statistics (zeroes for the ideal backend).
    #[must_use]
    pub fn net_stats(&self) -> NetStats {
        match &self.backend {
            BackendImpl::Ideal { .. } => NetStats::new(0),
            BackendImpl::Network { nets, .. } => {
                let mut total = NetStats::new(0);
                for i in 0..nets.copies() {
                    let s = nets.copy(i).stats();
                    total.injected_requests.add(s.injected_requests.get());
                    total.delivered_requests.add(s.delivered_requests.get());
                    total.injected_replies.add(s.injected_replies.get());
                    total.delivered_replies.add(s.delivered_replies.get());
                    total.combines.add(s.combines.get());
                    total.decombines.add(s.decombines.get());
                    total.wait_buffer_declines.add(s.wait_buffer_declines.get());
                    total.drops.add(s.drops.get());
                    total.inject_stalls.add(s.inject_stalls.get());
                    total.fault_dropped.add(s.fault_dropped.get());
                    total.fault_refusals.add(s.fault_refusals.get());
                    total.stuck_wait_entries.add(s.stuck_wait_entries.get());
                    total.forward_transit.merge(&s.forward_transit);
                    total.reverse_transit.merge(&s.reverse_transit);
                }
                total
            }
        }
    }

    /// Physical PEs fail-stopped because the degraded network left them
    /// no route to any module. Empty on a healthy machine.
    #[must_use]
    pub fn dead_pes(&self) -> &[PeId] {
        &self.dead_pes
    }

    /// Aggregate resilience counters (refusals, failovers, retries,
    /// dedup). All zero under [`FaultPlan::none`].
    #[must_use]
    pub fn fault_summary(&self) -> FaultSummary {
        let mut f = FaultSummary {
            duplicate_replies: self.duplicate_replies,
            unroutable: self.unroutable,
            deconfigured_pes: self.dead_pes.len() as u64,
            retries: self
                .shards
                .iter()
                .map(|s| s.pni.stats().retries.get())
                .sum(),
            ..FaultSummary::default()
        };
        if let BackendImpl::Network { nets, banks, .. } = &self.backend {
            f.failovers = nets.failovers();
            for i in 0..nets.copies() {
                let s = nets.copy(i).stats();
                f.refusals += s.fault_refusals.get();
                f.dropped += s.fault_dropped.get();
                f.stuck_wait_entries += s.stuck_wait_entries.get();
            }
            for bank in banks {
                let s = bank.stats();
                f.dedup_hits += s.dedup_hits.get();
                f.dedup_swallowed += s.dedup_swallowed.get();
                f.dead_discards += s.dead_discards.get();
            }
        }
        f
    }

    /// The §3.1.4 serial-bottleneck indicator: the deepest request queue
    /// any memory module accumulated (0 on the ideal backend, which has
    /// no modules). Address hashing exists to keep this small.
    #[must_use]
    pub fn max_mm_queue_depth(&self) -> usize {
        match &self.backend {
            BackendImpl::Ideal { .. } => 0,
            BackendImpl::Network { banks, .. } => banks
                .iter()
                .map(|b| b.stats().max_queue_depth)
                .max()
                .unwrap_or(0),
        }
    }

    /// Reads a shared word directly (after a run; not timed).
    #[must_use]
    pub fn read_shared(&self, vaddr: usize) -> Value {
        let addr = self.hasher.translate(vaddr);
        match &self.backend {
            BackendImpl::Ideal { para, .. } => para.load(Self::flat_key(addr, self.cfg.net.pes)),
            BackendImpl::Network { banks, .. } => banks[addr.mm.0].peek(addr.offset),
        }
    }

    /// Writes a shared word directly (initialization; not timed).
    pub fn write_shared(&mut self, vaddr: usize, value: Value) {
        let addr = self.hasher.translate(vaddr);
        let n = self.cfg.net.pes;
        match &mut self.backend {
            BackendImpl::Ideal { para, .. } => para.store(Self::flat_key(addr, n), value),
            BackendImpl::Network { banks, .. } => banks[addr.mm.0].poke(addr.offset, value),
        }
    }

    fn flat_key(addr: ultra_sim::MemAddr, n: usize) -> usize {
        addr.offset * n + addr.mm.0
    }

    /// Runs until completion or the cycle budget.
    pub fn run(&mut self) -> RunOutcome {
        let started = Instant::now();
        let outcome = self.run_inner();
        self.run_elapsed = Some(started.elapsed());
        outcome
    }

    /// Runs for at most `budget` further cycles (or to completion, or to
    /// [`MachineConfig::max_cycles`], whichever is soonest). Stopping and
    /// resuming is bit-identical to an uninterrupted [`Machine::run`]:
    /// `run_for(k)` then `run_for(m)` leaves exactly the state of
    /// `run_for(k + m)`. This is the unit the job server's
    /// checkpoint-on-budget and snapshot-cache prefixes are built from.
    pub fn run_for(&mut self, budget: Cycle) -> RunOutcome {
        let orig = self.cfg.max_cycles;
        self.cfg.max_cycles = orig.min(self.now.saturating_add(budget));
        let outcome = self.run();
        self.cfg.max_cycles = orig;
        outcome
    }

    fn run_inner(&mut self) -> RunOutcome {
        // A machine that already completed must stay a fixed point:
        // without this check a resumed (restored or re-run) quiescent
        // machine would burn one extra cycle before noticing, breaking
        // run/snapshot/resume parity.
        if self.is_quiescent() {
            return self.finish(true);
        }
        while self.now < self.cfg.max_cycles {
            self.step();
            if self.is_quiescent() {
                return self.finish(true);
            }
            if self.cfg.fast_forward {
                self.fast_forward_idle();
            }
        }
        self.finish(false)
    }

    fn finish(&mut self, completed: bool) -> RunOutcome {
        let cycles = self.now;
        if self.series.is_enabled() {
            // Close the final (possibly partial) telemetry window so the
            // per-window sums cover the whole run.
            let cum = self.telemetry_counters();
            let gauges = self.telemetry_gauges();
            self.series.flush(self.now, cum, gauges);
        }
        RunOutcome { completed, cycles }
    }

    /// Sums the cumulative scalar network counters across the `d`
    /// copies (all zero on the ideal backend). No allocation, no
    /// histogram merges — this runs once per telemetry window.
    fn telemetry_counters(&self) -> CounterSnapshot {
        let mut c = CounterSnapshot::default();
        if let BackendImpl::Network { nets, .. } = &self.backend {
            for i in 0..nets.copies() {
                let s = nets.copy(i).stats();
                c.injected_requests += s.injected_requests.get();
                c.delivered_requests += s.delivered_requests.get();
                c.injected_replies += s.injected_replies.get();
                c.delivered_replies += s.delivered_replies.get();
                c.combines += s.combines.get();
                c.decombines += s.decombines.get();
                c.inject_stalls += s.inject_stalls.get();
                c.fault_dropped += s.fault_dropped.get();
                c.fault_refusals += s.fault_refusals.get();
            }
        }
        c
    }

    /// Instantaneous gauges at a window boundary.
    fn telemetry_gauges(&self) -> GaugeSnapshot {
        match &self.backend {
            BackendImpl::Ideal { .. } => GaugeSnapshot::default(),
            BackendImpl::Network { nets, banks, .. } => GaugeSnapshot {
                mm_queue_depth_max: banks
                    .iter()
                    .map(|b| b.queue_depth() as u64)
                    .max()
                    .unwrap_or(0),
                wait_occupancy: nets.total_wait_occupancy(),
            },
        }
    }

    /// Records every telemetry window whose boundary `now` has reached —
    /// one window per normal step, possibly several after a fast-forward
    /// jump (each then sees unchanged counters, exactly as per-cycle
    /// stepping would have sampled them, keeping the series
    /// bit-identical across fast-forward settings).
    fn telemetry_tick(&mut self) {
        while self.series.due(self.now) {
            let cum = self.telemetry_counters();
            let gauges = self.telemetry_gauges();
            self.series.sample(cum, gauges);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.halted_count == self.virtual_pes()
            && self.meta.is_empty()
            && self.outgoing_mask.is_empty()
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        let fired = self.fault_clock.due(now);
        for fault in fired {
            self.apply_fault(fault);
        }
        // Phase timing costs an `Instant::now` pair per phase, so the
        // default path takes none of them.
        if self.phases.is_enabled() {
            let t0 = Instant::now();
            self.flush_outgoing(now);
            let dur = t0.elapsed().as_nanos() as u64;
            self.record_phase_span(now, EnginePhase::Flush, t0, dur, 0);
            self.backend_cycle(now);
            self.queue_due_retries(now);
            self.release_barrier_if_complete();
            let t0 = Instant::now();
            self.pe_phase(now);
            let dur = t0.elapsed().as_nanos() as u64;
            let chunks = self.pool.dispatch_stats().last_chunks as u32;
            self.record_phase_span(now, EnginePhase::PeShards, t0, dur, chunks);
        } else {
            self.flush_outgoing(now);
            self.backend_cycle(now);
            self.queue_due_retries(now);
            self.release_barrier_if_complete();
            self.pe_phase(now);
        }
        self.now += 1;
        self.telemetry_tick();
    }

    /// Records one wall-clock phase span that started at `t0` and took
    /// `dur_ns`.
    fn record_phase_span(
        &mut self,
        cycle: Cycle,
        phase: EnginePhase,
        t0: Instant,
        dur_ns: u64,
        chunks: u32,
    ) {
        let start_ns = t0.saturating_duration_since(self.phase_epoch).as_nanos() as u64;
        self.phases.record(PhaseSpan {
            cycle,
            phase,
            start_ns,
            dur_ns,
            pool_chunks: chunks,
        });
    }

    /// Sparse-dispatch grain: one worker thread is engaged per this many
    /// *active* units (live shards, busy banks), so near-idle cycles run
    /// inline on the caller instead of waking the pool.
    const SPARSE_GRAIN: usize = 32;

    /// The datapath cycle of every live physical PE, fanned out over the
    /// engine's threads (shards never touch each other within a cycle),
    /// followed by the deferred-effect merge. Workers flag shards that
    /// produced effects in [`Machine::fx_dirty`]; the merge then drains
    /// only flagged shards, in ascending shard index order — the order
    /// the sequential loop applies effects in, so every thread count
    /// yields identical metadata, trace and halt streams. Fully-halted
    /// shards are skipped outright (their datapath cycle is a no-op),
    /// and the post-phase pass is a pointer-wide word walk instead of an
    /// every-shard scan.
    fn pe_phase(&mut self, now: Cycle) {
        let cx = CycleCtx {
            now,
            cpi: self.cfg.time.cycles_per_instruction,
            barrier_generation: self.barrier_generation,
            trace_enabled: self.trace.enabled,
        };
        let fx_dirty = &self.fx_dirty;
        self.pool.run_sparse(
            &mut self.shards,
            self.live_mask.words(),
            Self::SPARSE_GRAIN,
            |i, shard| {
                shard.pe_cycle(cx);
                if !shard.fx.is_empty() {
                    fx_dirty.mark(i);
                }
            },
        );
        for w in 0..self.fx_dirty.words() {
            let mut bits = self.fx_dirty.take_word(w);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let shard = &mut self.shards[i];
                for (id, meta) in shard.fx.meta.drain(..) {
                    self.meta.insert(id, meta);
                }
                for event in shard.fx.trace.drain(..) {
                    self.trace.record(event);
                }
                if shard.fx.halted > 0 {
                    self.halted_count += shard.fx.halted;
                    shard.fx.halted = 0;
                    if shard.states.iter().all(|s| *s == CtxState::Halted) {
                        self.live_mask.clear(i);
                    }
                }
                // An issue pushes its metadata and its outbound message
                // together, so dirty shards are exactly the ones whose
                // `outgoing` may have just become non-empty.
                if !shard.outgoing.is_empty() {
                    self.outgoing_mask.set(i);
                }
            }
        }
    }

    /// Skips a stretch of cycles during which the machine provably does
    /// nothing but tick: all traffic drained, every context parked on a
    /// wait only a *scheduled* future event can resolve. Jumps straight
    /// to the earliest such event — a fault firing, a PNI retry
    /// deadline, an ideal-backend completion, or a datapath release —
    /// bulk-charging idle statistics exactly as per-cycle stepping
    /// would. Runs are bit-identical with this on or off.
    fn fast_forward_idle(&mut self) {
        let now = self.now;
        if !self.outgoing_mask.is_empty() {
            return;
        }
        let mut next: Option<Cycle> = None;
        match &self.backend {
            BackendImpl::Ideal { pending, .. } => {
                if let Some((&due, _)) = pending.iter().next() {
                    next = min_event(next, due);
                }
            }
            BackendImpl::Network { nets, .. } => {
                if !nets.is_drained() || !self.bank_active.is_empty() {
                    return;
                }
            }
        }
        // With retries enabled every shard must be scanned: a
        // fully-halted shard can still hold a pending PNI retry deadline
        // (a store issued just before the context halted, then lost to a
        // faulty link), and missing that deadline would wedge the run.
        // With retries off — the overwhelmingly common case — halted
        // shards provably schedule nothing, so the scan walks only the
        // live mask's words.
        if self.retry_enabled {
            for shard in &self.shards {
                match Self::shard_ff_event(shard, now) {
                    ShardFf::Event(at) => next = min_event(next, at),
                    ShardFf::Parked => {}
                    ShardFf::Runnable => return,
                }
                if let Some(deadline) = shard.pni.next_retry_deadline() {
                    next = min_event(next, deadline);
                }
            }
        } else {
            for w in 0..self.live_mask.words().len() {
                let mut bits = self.live_mask.word(w);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    match Self::shard_ff_event(&self.shards[i], now) {
                        ShardFf::Event(at) => next = min_event(next, at),
                        ShardFf::Parked => {}
                        ShardFf::Runnable => return,
                    }
                }
            }
        }
        if let Some(due) = self.fault_clock.next_due() {
            next = min_event(next, due);
        }
        // No event at all means deadlock: burn straight to the budget,
        // preserving the timeout outcome per-cycle stepping reaches.
        let target = next.unwrap_or(self.cfg.max_cycles).min(self.cfg.max_cycles);
        if target <= now {
            return;
        }
        let skipped = target - now;
        // Bulk idle charging touches only live shards: a fully-halted
        // shard has no context to charge.
        for w in 0..self.live_mask.words().len() {
            let mut bits = self.live_mask.word(w);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let shard = &mut self.shards[i];
                if shard.busy_until > now {
                    continue; // busy datapath: stepping charges no idle time
                }
                let k = shard.states.len();
                let owner = shard.cursor % k;
                let charged = if shard.states[owner] != CtxState::Halted {
                    Some(owner)
                } else {
                    (0..k).find(|&c| shard.states[c] != CtxState::Halted)
                };
                if let Some(c) = charged {
                    shard.stats[c].idle_cycles.add(skipped);
                    if shard.states[c] == CtxState::WaitBarrier {
                        shard.stats[c].barrier_wait_cycles.add(skipped);
                    }
                }
            }
        }
        self.fast_forwarded += skipped;
        self.now = target;
        // The jump may have crossed telemetry window boundaries; emit
        // the samples stepping would have produced (zero-delta, since
        // nothing happened in the skipped stretch).
        self.telemetry_tick();
    }

    /// One shard's contribution to the fast-forward decision: the cycle
    /// its datapath frees, proof every context is parked, or evidence a
    /// context could run now (which forbids skipping).
    fn shard_ff_event(shard: &PeShard, now: Cycle) -> ShardFf {
        if shard.busy_until > now {
            // Mid-instruction: the datapath frees at `busy_until`,
            // which may unpark a ready context — an event.
            return ShardFf::Event(shard.busy_until);
        }
        // Idle datapath: every context must be unable to run until a
        // reply arrives (impossible: traffic is drained) or a future
        // event fires. `Ready` could execute now; `WaitIssue`
        // re-attempts each cycle and bumps PNI conflict counters, so
        // neither may be skipped over. A timed wait whose target is
        // still ahead contributes a wake-up event at that cycle.
        let mut next = None;
        for (c, state) in shard.states.iter().enumerate() {
            let parked = match state {
                CtxState::Halted | CtxState::WaitBarrier => true,
                CtxState::WaitReg(r) => shard.interps[c].is_locked(*r),
                CtxState::WaitFence => shard.pni.outstanding() > 0,
                CtxState::WaitUntil(at) => {
                    if *at > now {
                        next = min_event(next, *at);
                        true
                    } else {
                        false
                    }
                }
                CtxState::Ready | CtxState::WaitIssue(..) => return ShardFf::Runnable,
            };
            if !parked {
                return ShardFf::Runnable;
            }
        }
        match next {
            Some(at) => ShardFf::Event(at),
            None => ShardFf::Parked,
        }
    }

    /// Applies one fired fault to the live machine. Faults target the
    /// network backend; on the ideal backend they are no-ops.
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::KillCopy { copy } => {
                if let BackendImpl::Network { nets, .. } = &mut self.backend {
                    nets.copy_mut(copy).kill();
                }
            }
            Fault::KillMm { mm } => self.kill_mm(mm),
            Fault::SlowMm { mm, factor } => {
                if let BackendImpl::Network { banks, .. } = &mut self.backend {
                    banks[mm.0]
                        .set_service_time(self.cfg.time.cycles_per_mm_access * Cycle::from(factor));
                }
            }
            Fault::KillSwitchPort {
                copy,
                stage,
                switch,
                port,
            } => {
                if let BackendImpl::Network { nets, .. } = &mut self.backend {
                    let net = nets.copy_mut(copy);
                    let mut mask = net.fault_mask().clone();
                    mask.kill_port(stage, switch, port);
                    net.set_fault_mask(mask);
                }
            }
            Fault::StickWaitEntry {
                copy,
                stage,
                switch,
            } => {
                if let BackendImpl::Network { nets, .. } = &mut self.backend {
                    let _ = nets.copy_mut(copy).poison_wait_entry(stage, switch);
                }
            }
        }
        if matches!(fault, Fault::KillCopy { .. } | Fault::KillSwitchPort { .. }) {
            self.absorb_unreachable();
        }
    }

    /// Degraded-mode reconfiguration after route loss. Dead copies plus
    /// dead ports can sever routes entirely; requests on a severed route
    /// could never inject and would wedge the machine, so:
    ///
    /// 1. A PE with no route to *any* module in *any* copy is
    ///    fail-stopped (deconfigured) — the paper's fail-soft stance:
    ///    the machine keeps running with fewer PEs.
    /// 2. A module some *live* PE cannot reach is folded into the dead
    ///    set, the stand-in for the OS remapping memory away from
    ///    modules the degraded network no longer serves; re-hashing
    ///    (§3.1.4) adopts its words. At least one module always
    ///    survives.
    fn absorb_unreachable(&mut self) {
        let n = self.cfg.net.pes;
        let reach: Vec<Vec<bool>> = {
            let BackendImpl::Network { nets, .. } = &self.backend else {
                return;
            };
            // One copy with intact routing reaches everything. Link loss
            // alone never severs a route (a lossy link drops individual
            // injections; `fault_refuses` ignores it), so only dead copies
            // and dead ports matter here — a loss-only plan skips the
            // O(PEs x MMs) route probe entirely.
            if (0..nets.copies()).any(|c| {
                let mask = nets.copy(c).fault_mask();
                !mask.copy_dead() && !mask.any_port_dead()
            }) {
                return;
            }
            (0..n)
                .map(|pe| {
                    (0..n)
                        .map(|mm| {
                            let probe = Message::request(
                                MsgId(0),
                                MsgKind::Load,
                                MemAddr::new(MmId(mm), 0),
                                0,
                                PeId(pe),
                                0,
                            );
                            (0..nets.copies()).any(|c| !nets.copy(c).fault_refuses(&probe))
                        })
                        .collect()
                })
                .collect()
        };
        for (pe, row) in reach.iter().enumerate() {
            if row.iter().all(|&ok| !ok) {
                self.deconfigure_pe(pe);
            }
        }
        let mut lost = vec![false; n];
        for (pe, row) in reach.iter().enumerate() {
            if self.dead_pes.contains(&PeId(pe)) {
                continue;
            }
            for (mm, &ok) in row.iter().enumerate() {
                if !ok {
                    lost[mm] = true;
                }
            }
        }
        for (mm, &lost) in lost.iter().enumerate() {
            if !lost || self.dead_mms.contains(&MmId(mm)) {
                continue;
            }
            if self.dead_mms.len() + 2 > n {
                break;
            }
            self.kill_mm(MmId(mm));
        }
    }

    /// Fail-stops physical PE `pe`: every context halts, queued and
    /// outstanding requests are abandoned (late replies for them are
    /// dropped as orphans). Mid-run deconfiguration does not release
    /// barriers the dead PE was expected at — like the real machine, a
    /// barrier with a dead participant never completes.
    fn deconfigure_pe(&mut self, pe: usize) {
        if self.dead_pes.contains(&PeId(pe)) {
            return;
        }
        self.dead_pes.push(PeId(pe));
        let shard = &mut self.shards[pe];
        for state in &mut shard.states {
            if *state != CtxState::Halted {
                *state = CtxState::Halted;
                self.halted_count += 1;
            }
        }
        for msg in shard.outgoing.drain(..) {
            self.meta.remove(&msg.id);
        }
        for id in shard.pni.abandon_all() {
            self.meta.remove(&id);
        }
        self.outgoing_mask.clear(pe);
        self.live_mask.clear(pe);
    }

    /// Kills module `mm` mid-run: its contents are lost, queued requests
    /// are discarded (PNI timeouts recover them), and translation
    /// re-hashes around the cumulative dead set on every PNI.
    fn kill_mm(&mut self, mm: MmId) {
        if self.dead_mms.contains(&mm) {
            return;
        }
        self.dead_mms.push(mm);
        self.hasher.set_dead_mms(&self.dead_mms);
        if let BackendImpl::Network { banks, .. } = &mut self.backend {
            banks[mm.0].kill();
        }
        for shard in &mut self.shards {
            shard.pni.set_hasher(self.hasher.clone());
        }
    }

    /// Re-issues timed-out requests (retry protocol; skipped wholesale
    /// when the fault plan never enabled retries).
    fn queue_due_retries(&mut self, now: Cycle) {
        if !self.retry_enabled {
            return;
        }
        for pe in 0..self.shards.len() {
            let shard = &mut self.shards[pe];
            shard.pni.due_retries_into(now, &mut shard.outgoing);
            if !shard.outgoing.is_empty() {
                self.outgoing_mask.set(pe);
            }
        }
    }

    /// Tries to push queued outbound messages into the backend. Walks
    /// the outgoing mask's words, so a mostly-drained machine pays one
    /// word test per 64 shards instead of a queue probe per shard; each
    /// word is snapshot before its bits are consumed, and only the bit
    /// of the shard just flushed is ever cleared, so the walk is safe
    /// against its own updates.
    fn flush_outgoing(&mut self, now: Cycle) {
        for w in 0..self.outgoing_mask.words().len() {
            let mut bits = self.outgoing_mask.word(w);
            while bits != 0 {
                let pe = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.flush_shard_outgoing(pe, now);
                if self.shards[pe].outgoing.is_empty() {
                    self.outgoing_mask.clear(pe);
                }
            }
        }
    }

    /// Flushes one shard's queue until empty or backpressured. Each
    /// message is offered by value; a refused one goes back to the head.
    fn flush_shard_outgoing(&mut self, pe: usize, now: Cycle) {
        while let Some(msg) = self.shards[pe].outgoing.pop_front() {
            match &mut self.backend {
                BackendImpl::Ideal {
                    latency, pending, ..
                } => {
                    let due = now + *latency;
                    pending.entry(due).or_default().push(msg);
                }
                BackendImpl::Network { nets, copy_of, .. } => {
                    // A request every copy refuses (dead copy, or a
                    // dead port on its only route in each) can never
                    // inject: abandon it rather than wedging this
                    // PE's queue; the PNI timeout re-issues it under
                    // whatever translation the degraded hash uses by
                    // then.
                    if (0..nets.copies()).all(|c| nets.copy(c).fault_refuses(&msg)) {
                        self.unroutable += 1;
                        continue;
                    }
                    let key = (msg.id, msg.attempt);
                    match nets.try_inject_request(msg, now) {
                        Ok(copy) => {
                            copy_of.insert(key, copy);
                        }
                        Err(refused) => {
                            // Backpressure; retry next cycle.
                            self.shards[pe].outgoing.push_front(refused);
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Advances the memory system and delivers completions.
    fn backend_cycle(&mut self, now: Cycle) {
        let pool = &self.pool;
        let timed = self.phases.is_enabled();
        // Staged first to avoid borrowing `self` across the delivery; the
        // buffer is pooled on the machine so steady state never allocates.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        debug_assert!(deliveries.is_empty());
        // Spans are staged here and recorded after the backend borrow
        // ends.
        let mut bank_span: Option<(Instant, u64, u32)> = None;
        let mut net_span: Option<(Instant, u64, u32)> = None;
        match &mut self.backend {
            BackendImpl::Ideal { para, pending, .. } => {
                let t0 = timed.then(Instant::now);
                if let Some(batch) = pending.remove(&now) {
                    // The whole batch is "simultaneous": serialization
                    // principle via seeded shuffle inside apply_batch.
                    let n = self.cfg.net.pes;
                    let ops: Vec<crate::paracomputer::MemOp> = batch
                        .iter()
                        .map(|m| {
                            let key = Self::flat_key(m.addr, n);
                            match m.kind {
                                MsgKind::Load => crate::paracomputer::MemOp::Load { addr: key },
                                MsgKind::Store => crate::paracomputer::MemOp::Store {
                                    addr: key,
                                    value: m.value,
                                },
                                MsgKind::FetchPhi(op) => crate::paracomputer::MemOp::FetchPhi {
                                    op,
                                    addr: key,
                                    operand: m.value,
                                },
                            }
                        })
                        .collect();
                    let results = para.apply_batch(&ops);
                    for (m, v) in batch.iter().zip(results) {
                        deliveries.push(Reply::to_request(m, v));
                    }
                }
                if let Some(t0) = t0 {
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64, 0));
                }
            }
            BackendImpl::Network {
                nets,
                banks,
                copy_of,
            } => {
                let t0 = timed.then(Instant::now);
                // Banks are mutually independent and never read the
                // network, so serving them fans out over the engine's
                // threads — but only banks actually holding work: a bit
                // in `bank_active` is set when a request is delivered
                // and cleared once the bank drains idle, and an idle
                // bank's cycle is a no-op, so the masked fan-out is
                // exact. Outboxes then drain into the network in bank
                // index order (the mask walk is ascending) — exactly the
                // injection sequence the sequential interleaved loop
                // produces.
                pool.run_sparse(
                    banks,
                    self.bank_active.words(),
                    Self::SPARSE_GRAIN,
                    |_, bank| bank.cycle(now),
                );
                for w in 0..self.bank_active.words().len() {
                    let mut bits = self.bank_active.word(w);
                    while bits != 0 {
                        let b = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let bank = &mut banks[b];
                        // Replies re-enter through the copy that carried
                        // the request (stalling if the reverse link is
                        // busy).
                        while let Some(reply) = bank.pop_reply() {
                            let Some(&copy) = copy_of.get(&(reply.id, reply.attempt)) else {
                                // An answer to an attempt whose twin already
                                // round-tripped; nobody is waiting for it.
                                self.duplicate_replies += 1;
                                continue;
                            };
                            if let Err(refused) = nets.try_inject_reply(copy, reply, now) {
                                bank.return_reply(refused);
                                break;
                            }
                        }
                        if bank.is_idle() {
                            self.bank_active.clear(b);
                        }
                    }
                }
                if let Some(t0) = t0 {
                    let chunks = pool.dispatch_stats().last_chunks as u32;
                    bank_span = Some((t0, t0.elapsed().as_nanos() as u64, chunks));
                }
                let t0 = timed.then(Instant::now);
                // The fabric moves — the d copies share nothing within a
                // cycle, so they advance in parallel into their pooled
                // event buffers; arrivals then drain in fixed copy order.
                // Arrivals at MMs enter bank queues; arrivals at PEs are
                // delivered below. A fully drained fabric (checked after
                // the reply injections above) cycles to itself with empty
                // event buffers, so the whole phase is skipped.
                if !nets.is_drained() {
                    nets.cycle_inplace(now, pool);
                    let d = nets.copies();
                    for copy in 0..d {
                        let events = nets.events_mut(copy);
                        for msg in events.requests_at_mm.drain(..) {
                            self.bank_active.set(msg.addr.mm.0);
                            banks[msg.addr.mm.0].push_request(msg);
                        }
                        for reply in events.replies_at_pe.drain(..) {
                            copy_of.remove(&(reply.id, reply.attempt));
                            deliveries.push(reply);
                        }
                        for dropped in events.dropped.drain(..) {
                            // DropOnConflict: the PE must re-offer the
                            // request.
                            self.outgoing_mask.set(dropped.src.0);
                            self.shards[dropped.src.0].outgoing.push_back(dropped);
                        }
                    }
                }
                if let Some(t0) = t0 {
                    let chunks = pool.dispatch_stats().last_chunks as u32;
                    net_span = Some((t0, t0.elapsed().as_nanos() as u64, chunks));
                }
            }
        }
        if let Some((t0, dur, chunks)) = bank_span {
            self.record_phase_span(now, EnginePhase::MemBanks, t0, dur, chunks);
        }
        if let Some((t0, dur, chunks)) = net_span {
            self.record_phase_span(now, EnginePhase::Network, t0, dur, chunks);
        }
        for reply in deliveries.drain(..) {
            self.deliver_reply(&reply, now);
        }
        self.deliveries = deliveries;
    }

    fn deliver_reply(&mut self, reply: &Reply, now: Cycle) {
        let Some(meta) = self.meta.remove(&reply.id) else {
            // The retry protocol makes duplicate answers legal: a timed-out
            // request and its retry can both be served (the MM dedup cache
            // keeps the *effect* exactly-once). The first answer completed
            // the request; later ones are discarded here.
            self.duplicate_replies += 1;
            return;
        };
        let ctx = meta.ctx;
        let phys = ctx / self.cfg.contexts_per_pe;
        let shard = &mut self.shards[phys];
        let c = ctx - shard.base;
        let matched = shard.pni.complete(reply);
        debug_assert!(matched, "PNI lost track of an outstanding request");
        shard.stats[c]
            .cm_access
            .record(now.saturating_sub(reply.request_issued_at));
        self.trace.record(TraceEvent::Reply {
            cycle: now,
            pe: PeId(ctx),
            latency: now.saturating_sub(reply.request_issued_at),
        });
        match meta.purpose {
            Purpose::Data => {
                if let Some(dst) = meta.dst {
                    shard.interps[c].write_and_unlock(dst, reply.value);
                }
            }
            Purpose::Barrier => {
                self.barrier_arrived += 1;
            }
        }
    }

    fn release_barrier_if_complete(&mut self) {
        let parties = self.cfg.barrier_parties.unwrap_or(self.virtual_pes());
        if self.barrier_arrived == parties {
            self.barrier_arrived = 0;
            self.trace.record(TraceEvent::BarrierRelease {
                cycle: self.now,
                generation: self.barrier_generation,
            });
            self.barrier_generation += 1;
            for shard in &mut self.shards {
                for state in &mut shard.states {
                    if *state == CtxState::WaitBarrier {
                        *state = CtxState::Ready;
                    }
                }
            }
        }
    }
}

/// One shard's verdict in the fast-forward scan.
enum ShardFf {
    /// The shard's datapath frees at this cycle (an event to jump to).
    Event(Cycle),
    /// Every context is parked on a wait no passing cycle resolves.
    Parked,
    /// Some context could use the datapath now: skipping is illegal.
    Runnable,
}

/// The earliest of an optional event cycle and a new candidate.
fn min_event(current: Option<Cycle>, candidate: Cycle) -> Option<Cycle> {
    Some(current.map_or(candidate, |c| c.min(candidate)))
}

// ---- snapshot state serialization ----
//
// Everything the simulation's future depends on is written; everything
// rebuildable from the config (hasher, route tables, worker pool, active
// sets) or purely observational (trace, telemetry, phase spans,
// wall-clock) is not. See `crate::snapshot` for the framed public format.

impl Wire for BackendKind {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Self::Ideal { latency } => {
                w.u8(0);
                w.u64(*latency);
            }
            Self::Network { copies } => {
                w.u8(1);
                w.usize(*copies);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::Ideal { latency: r.u64()? },
            1 => Self::Network { copies: r.usize()? },
            _ => return Err(WireError::Invalid("backend kind tag")),
        })
    }
}

impl Wire for Purpose {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            Self::Data => 0,
            Self::Barrier => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::Data,
            1 => Self::Barrier,
            _ => return Err(WireError::Invalid("request purpose tag")),
        })
    }
}

impl Wire for CtxState {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Self::Ready => w.u8(0),
            Self::WaitReg(reg) => {
                w.u8(1);
                w.u8(*reg);
            }
            Self::WaitIssue(spec, purpose) => {
                w.u8(2);
                spec.encode(w);
                purpose.encode(w);
            }
            Self::WaitBarrier => w.u8(3),
            Self::WaitFence => w.u8(4),
            Self::Halted => w.u8(5),
            Self::WaitUntil(at) => {
                w.u8(6);
                w.u64(*at);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::Ready,
            1 => Self::WaitReg(r.u8()?),
            2 => Self::WaitIssue(IssueSpec::decode(r)?, Purpose::decode(r)?),
            3 => Self::WaitBarrier,
            4 => Self::WaitFence,
            5 => Self::Halted,
            6 => Self::WaitUntil(r.u64()?),
            _ => return Err(WireError::Invalid("context state tag")),
        })
    }
}

impl Wire for ReqMeta {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.ctx);
        self.dst.encode(w);
        self.purpose.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            ctx: r.usize()?,
            dst: Option::decode(r)?,
            purpose: Purpose::decode(r)?,
        })
    }
}

impl MachineConfig {
    /// Serializes the fields that define *what* is being simulated — the
    /// snapshot's config-identity echo. The speed knobs (`threads`,
    /// `fast_forward`) are excluded: every setting of them is
    /// bit-identical, so a snapshot may legally be resumed under
    /// different ones (see [`crate::snapshot::EngineTuning`]).
    pub(crate) fn encode_identity(&self, w: &mut WireWriter) {
        self.net.encode(w);
        self.backend.encode(w);
        self.time.encode(w);
        self.translation.encode(w);
        w.u64(self.seed);
        w.u64(self.max_cycles);
        self.barrier_parties.encode(w);
        w.usize(self.contexts_per_pe);
        self.faults.encode(w);
    }

    /// Inverse of [`MachineConfig::encode_identity`]; the speed knobs
    /// come back at their defaults until the tuning echo overwrites them.
    pub(crate) fn decode_identity(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            net: NetConfig::decode(r)?,
            backend: BackendKind::decode(r)?,
            time: TimeScale::decode(r)?,
            translation: TranslationMode::decode(r)?,
            seed: r.u64()?,
            max_cycles: r.u64()?,
            barrier_parties: Option::decode(r)?,
            contexts_per_pe: r.usize()?,
            faults: FaultPlan::decode(r)?,
            threads: 1,
            fast_forward: true,
        })
    }

    /// Serializes the speed knobs, so a plain [`crate::snapshot`] restore
    /// reproduces the donor machine's engine exactly. Format v1 has two
    /// retired slots between them — an automatic-thread-selection flag
    /// and a sweep-mode tag — written as the constants a default-built
    /// machine always wrote, so frames stay byte-identical.
    pub(crate) fn encode_tuning(&self, w: &mut WireWriter) {
        w.usize(self.threads);
        w.bool(true);
        w.u8(0);
        w.bool(self.fast_forward);
    }

    /// Applies a serialized tuning echo onto `self`. The retired slots
    /// are range-checked and ignored.
    pub(crate) fn decode_tuning_into(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.threads = r.usize()?;
        // Both retired slots only ever held 0 or 1: a bool's range check.
        r.bool()?;
        r.bool()?;
        self.fast_forward = r.bool()?;
        Ok(())
    }
}

/// Why a serialized machine state failed to reassemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StateDecodeError {
    /// The bytes themselves are malformed.
    Wire(WireError),
    /// The bytes are well-formed but disagree with the config echo they
    /// arrived with (wrong shard count, wrong backend, wrong geometry).
    ConfigMismatch(&'static str),
}

impl From<WireError> for StateDecodeError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl Machine {
    /// Serializes the full simulation state (config excluded — the
    /// snapshot layer frames it separately).
    pub(crate) fn encode_state(&self, w: &mut WireWriter) {
        self.dead_mms.encode(w);
        self.dead_pes.encode(w);
        w.u64(self.now);
        w.u64(self.barrier_generation);
        w.usize(self.barrier_arrived);
        w.u64(self.duplicate_replies);
        w.u64(self.unroutable);
        w.u64(self.fast_forwarded);
        self.fault_clock.encode(w);
        self.meta.encode(w);
        w.usize(self.shards.len());
        for shard in &self.shards {
            debug_assert!(
                shard.fx.meta.is_empty() && shard.fx.trace.is_empty() && shard.fx.halted == 0,
                "shard effects must be merged before a snapshot"
            );
            shard.interps.encode(w);
            shard.states.encode(w);
            w.usize(shard.stats.len());
            for stats in &shard.stats {
                stats.encode_alive_for(self.now, w);
            }
            w.u64(shard.busy_until);
            w.usize(shard.cursor);
            shard.pni.encode_state(w);
            shard.outgoing.encode(w);
        }
        match &self.backend {
            BackendImpl::Ideal { para, pending, .. } => {
                w.u8(0);
                para.encode(w);
                pending.encode(w);
            }
            BackendImpl::Network {
                nets,
                banks,
                copy_of,
            } => {
                w.u8(1);
                nets.encode_state(w);
                banks.encode(w);
                copy_of.encode(w);
            }
        }
    }

    /// Reassembles a machine from `cfg` plus serialized state.
    /// Rebuildable structure (hasher, pool, route tables) is
    /// reconstructed from `cfg`; observational state (trace, telemetry,
    /// phase spans) starts disabled, exactly as on a fresh machine.
    pub(crate) fn decode_state(
        cfg: MachineConfig,
        r: &mut WireReader<'_>,
    ) -> Result<Self, StateDecodeError> {
        let n = cfg.net.pes;
        let k = cfg.contexts_per_pe;
        if k == 0 {
            return Err(StateDecodeError::ConfigMismatch("zero contexts per PE"));
        }
        let dead_mms: Vec<MmId> = Vec::decode(r)?;
        let dead_pes: Vec<PeId> = Vec::decode(r)?;
        if dead_mms.iter().any(|mm| mm.0 >= n) || dead_pes.iter().any(|pe| pe.0 >= n) {
            return Err(WireError::Invalid("dead module or PE index out of range").into());
        }
        let mut hasher = AddressHasher::new(n, cfg.translation);
        if !dead_mms.is_empty() {
            hasher.set_dead_mms(&dead_mms);
        }
        let now = r.u64()?;
        let barrier_generation = r.u64()?;
        let barrier_arrived = r.usize()?;
        let duplicate_replies = r.u64()?;
        let unroutable = r.u64()?;
        let fast_forwarded = r.u64()?;
        let fault_clock = FaultClock::decode(r)?;
        let meta: IdMap<MsgId, ReqMeta> = IdMap::decode(r)?;
        if meta.values().any(|m| m.ctx >= n * k) {
            return Err(WireError::Invalid("request context out of range").into());
        }
        let shard_count = r.seq_len()?;
        if shard_count != n {
            return Err(StateDecodeError::ConfigMismatch("PE shard count"));
        }
        let mut shards = Vec::with_capacity(n);
        let mut halted_count = 0usize;
        for phys in 0..n {
            let interps: Vec<PeInterp> = Vec::decode(r)?;
            let states: Vec<CtxState> = Vec::decode(r)?;
            let stats: Vec<PeStats> = Vec::decode(r)?;
            if interps.len() != k || states.len() != k || stats.len() != k {
                return Err(StateDecodeError::ConfigMismatch("contexts per shard"));
            }
            let busy_until = r.u64()?;
            let cursor = r.usize()?;
            let pni = Pni::decode_state(r, hasher.clone())?;
            let outgoing: VecDeque<Message> = VecDeque::decode(r)?;
            halted_count += states.iter().filter(|s| **s == CtxState::Halted).count();
            shards.push(PeShard {
                base: phys * k,
                interps,
                states,
                stats,
                busy_until,
                cursor: cursor % k,
                pni,
                outgoing,
                fx: ShardFx::default(),
            });
        }
        let backend = match (r.u8()?, cfg.backend) {
            (0, BackendKind::Ideal { latency }) => BackendImpl::Ideal {
                para: Paracomputer::decode(r)?,
                latency,
                pending: BTreeMap::decode(r)?,
            },
            (1, BackendKind::Network { copies }) => {
                let nets = ReplicatedOmega::decode_state(r)?;
                if nets.copies() != copies {
                    return Err(StateDecodeError::ConfigMismatch("network copy count"));
                }
                if nets.copy(0).cfg() != &cfg.net {
                    return Err(StateDecodeError::ConfigMismatch("network geometry"));
                }
                let banks: Vec<MemBank> = Vec::decode(r)?;
                if banks.len() != n {
                    return Err(StateDecodeError::ConfigMismatch("memory bank count"));
                }
                let copy_of: IdMap<(MsgId, u32), usize> = IdMap::decode(r)?;
                if copy_of.values().any(|&c| c >= copies) {
                    return Err(WireError::Invalid("in-flight copy index out of range").into());
                }
                BackendImpl::Network {
                    nets,
                    banks,
                    copy_of,
                }
            }
            (0 | 1, _) => return Err(StateDecodeError::ConfigMismatch("backend kind")),
            _ => return Err(WireError::Invalid("backend state tag").into()),
        };
        // The engine masks are pure accelerations of state just decoded,
        // so they are never serialized — they are rebuilt here, keeping
        // the wire format byte-identical to the pre-mask engine.
        let mut live_mask = PackedMask::new(n);
        live_mask.rebuild(|i| shards[i].states.iter().any(|s| *s != CtxState::Halted));
        let mut outgoing_mask = PackedMask::new(n);
        outgoing_mask.rebuild(|i| !shards[i].outgoing.is_empty());
        let bank_active = match &backend {
            BackendImpl::Network { banks, .. } => {
                let mut m = PackedMask::new(n);
                m.rebuild(|i| !banks[i].is_idle());
                m
            }
            BackendImpl::Ideal { .. } => PackedMask::new(0),
        };
        Ok(Self {
            hasher,
            shards,
            meta,
            backend,
            barrier_generation,
            barrier_arrived,
            now,
            halted_count,
            trace: Trace::new(),
            fault_clock,
            dead_mms,
            duplicate_replies,
            unroutable,
            dead_pes,
            run_elapsed: None,
            fast_forwarded,
            deliveries: Vec::new(),
            pool: WorkerPool::new(cfg.threads.max(1)),
            fx_dirty: AtomicBitmap::new(n),
            outgoing_mask,
            live_mask,
            bank_active,
            retry_enabled: Self::retry_policy_for(&cfg).is_some(),
            series: TimeSeries::new(),
            phases: PhaseRecorder::new(),
            phase_epoch: Instant::now(),
            cfg,
        })
    }
}

impl PeShard {
    /// Issues `spec` for local context `c` through the shard's PNI and
    /// queues the message for injection. Metadata and trace writes are
    /// deferred into [`ShardFx`].
    fn attempt_issue(
        &mut self,
        c: usize,
        spec: &IssueSpec,
        purpose: Purpose,
        cx: CycleCtx,
    ) -> bool {
        if !self.outgoing.is_empty() {
            return false; // the PNI's outbound buffer is occupied
        }
        match self.pni.issue(spec.kind, spec.vaddr, spec.value, cx.now) {
            Ok(msg) => {
                let ctx = self.base + c;
                self.fx.meta.push((
                    msg.id,
                    ReqMeta {
                        ctx,
                        dst: spec.dst,
                        purpose,
                    },
                ));
                if let Some(dst) = spec.dst {
                    self.interps[c].lock(dst);
                }
                if cx.trace_enabled {
                    self.fx.trace.push(TraceEvent::Issue {
                        cycle: cx.now,
                        pe: PeId(ctx),
                        kind: spec.kind,
                        vaddr: spec.vaddr,
                    });
                }
                let s = &mut self.stats[c];
                s.shared_refs.incr();
                if spec.kind.reply_carries_data() {
                    s.cm_loads.incr();
                }
                self.outgoing.push_back(msg);
                true
            }
            Err(PniError::LocationBusy) => false,
        }
    }

    /// Whether local context `c` could execute an instruction right now
    /// if given the datapath (resolving any completed waits).
    fn resolve_waits(&mut self, c: usize, now: Cycle) -> bool {
        match self.states[c].clone() {
            CtxState::Halted | CtxState::WaitBarrier => false,
            CtxState::WaitReg(r) => {
                if self.interps[c].is_locked(r) {
                    false
                } else {
                    self.states[c] = CtxState::Ready;
                    true
                }
            }
            CtxState::WaitUntil(at) => {
                if now < at {
                    false
                } else {
                    self.states[c] = CtxState::Ready;
                    true
                }
            }
            CtxState::WaitFence => {
                // With multiprogramming the fence waits for *this
                // context's* requests; the shared PNI tracks per-PE, so a
                // conservative fence waits for the whole PNI to drain.
                if self.pni.outstanding() > 0 {
                    false
                } else {
                    self.states[c] = CtxState::Ready;
                    true
                }
            }
            CtxState::WaitIssue(..) | CtxState::Ready => true,
        }
    }

    /// One datapath cycle: round-robin over the shard's contexts,
    /// executing the first one that can make progress (zero-cost context
    /// switching, §3.5 / HEP).
    fn pe_cycle(&mut self, cx: CycleCtx) {
        if self.busy_until > cx.now {
            return; // mid-instruction
        }
        let k = self.states.len();
        for offset in 0..k {
            let c = (self.cursor + offset) % k;
            if !self.resolve_waits(c, cx.now) {
                continue;
            }
            let advanced = self.ctx_execute(c, cx);
            if advanced {
                // HEP-style: next instruction goes to the next context.
                self.cursor = (self.cursor + offset + 1) % k;
                return;
            }
        }
        // No context could use the datapath: a genuinely idle cycle,
        // charged to the context whose turn it was (if it is still alive).
        let owner = self.cursor % k;
        if self.states[owner] != CtxState::Halted {
            self.stats[owner].idle_cycles.incr();
            if self.states[owner] == CtxState::WaitBarrier {
                self.stats[owner].barrier_wait_cycles.incr();
            }
        } else if let Some(alive) = (0..k).find(|&c| self.states[c] != CtxState::Halted) {
            self.stats[alive].idle_cycles.incr();
            if self.states[alive] == CtxState::WaitBarrier {
                self.stats[alive].barrier_wait_cycles.incr();
            }
        }
    }

    /// Attempts to execute one instruction of local context `c`. Returns
    /// whether the datapath was consumed.
    fn ctx_execute(&mut self, c: usize, cx: CycleCtx) -> bool {
        let now = cx.now;
        let cpi = cx.cpi;
        if let CtxState::WaitIssue(spec, purpose) = self.states[c].clone() {
            if self.attempt_issue(c, &spec, purpose, cx) {
                self.states[c] = if purpose == Purpose::Barrier {
                    CtxState::WaitBarrier
                } else {
                    CtxState::Ready
                };
                self.stats[c].instructions.incr();
                self.busy_until = now + cpi;
                return true;
            }
            return false;
        }

        match self.interps[c].next_op(now) {
            Fetched::Halted => {
                self.states[c] = CtxState::Halted;
                self.fx.halted += 1;
                if cx.trace_enabled {
                    self.fx.trace.push(TraceEvent::Halt {
                        cycle: now,
                        pe: PeId(self.base + c),
                    });
                }
                // Halting consumes no datapath time; let another context
                // run this cycle.
                false
            }
            Fetched::Work {
                instructions,
                private_refs,
            } => {
                let s = &mut self.stats[c];
                s.instructions.add(u64::from(instructions));
                s.private_refs.add(u64::from(private_refs));
                self.busy_until = now + Cycle::from(instructions) * cpi;
                true
            }
            Fetched::BlockedOnReg(r) => {
                self.states[c] = CtxState::WaitReg(r);
                false
            }
            Fetched::SleepUntil(at) => {
                // The wait instruction itself costs one slot (it is the
                // fetch that fixed the target); the context then parks.
                self.states[c] = CtxState::WaitUntil(at);
                self.stats[c].instructions.incr();
                self.busy_until = now + cpi;
                true
            }
            Fetched::Fence => {
                self.states[c] = CtxState::WaitFence;
                self.stats[c].instructions.incr();
                self.busy_until = now + cpi;
                true
            }
            Fetched::Issue(spec) => {
                if self.attempt_issue(c, &spec, Purpose::Data, cx) {
                    self.stats[c].instructions.incr();
                    self.busy_until = now + cpi;
                    true
                } else {
                    self.states[c] = CtxState::WaitIssue(spec, Purpose::Data);
                    false
                }
            }
            Fetched::Barrier => {
                let spec = IssueSpec {
                    kind: MsgKind::fetch_add(),
                    vaddr: BARRIER_VADDR_BASE + cx.barrier_generation as usize,
                    value: 1,
                    dst: None,
                };
                if self.attempt_issue(c, &spec, Purpose::Barrier, cx) {
                    self.states[c] = CtxState::WaitBarrier;
                    self.stats[c].instructions.incr();
                    self.busy_until = now + cpi;
                    true
                } else {
                    self.states[c] = CtxState::WaitIssue(spec, Purpose::Barrier);
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{body, Expr, Op};

    fn counter_program(increments: i64) -> Program {
        // Every PE adds `increments` times 1 to the shared word 0.
        Program::new(
            body(vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(increments),
                    body: body(vec![Op::FetchAdd {
                        addr: Expr::Const(0),
                        delta: Expr::Const(1),
                        dst: None,
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        )
    }

    #[test]
    fn ideal_backend_counts_exactly() {
        let mut m = MachineBuilder::new(8)
            .ideal(2)
            .build_spmd(&counter_program(10));
        let out = m.run();
        assert!(out.completed, "must drain");
        assert_eq!(m.read_shared(0), 80);
    }

    #[test]
    fn network_backend_counts_exactly() {
        let mut m = MachineBuilder::new(8).build_spmd(&counter_program(10));
        let out = m.run();
        assert!(out.completed);
        assert_eq!(m.read_shared(0), 80);
    }

    #[test]
    fn backends_agree_on_final_memory() {
        // Distinct-slot writes through self-scheduling: both backends must
        // produce one write per slot and full counter consumption.
        let p = Program::new(
            body(vec![
                Op::SelfSched {
                    reg: 0,
                    counter: Expr::Const(0),
                    limit: Expr::Const(40),
                    body: body(vec![Op::FetchAdd {
                        addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
                        delta: Expr::Const(1),
                        dst: None,
                    }]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        for build in [
            MachineBuilder::new(8).ideal(2),
            MachineBuilder::new(8).network(1),
        ] {
            let mut m = build.build_spmd(&p);
            assert!(m.run().completed);
            for i in 0..40 {
                assert_eq!(m.read_shared(100 + i), 1, "slot {i}");
            }
            assert_eq!(m.read_shared(0), 40 + 8, "each PE overshoots once");
        }
    }

    #[test]
    fn barrier_synchronizes_all_pes() {
        // PE0 stores 42 to word 5 before the barrier; every PE loads it
        // after the barrier and stores what it saw into its own slot.
        let p = Program::new(
            body(vec![
                Op::If {
                    cond: crate::program::Cond::new(Expr::PeIndex, crate::program::CmpOp::Eq, 0),
                    then_ops: body(vec![
                        Op::Store {
                            addr: Expr::Const(5),
                            value: Expr::Const(42),
                        },
                        Op::Fence,
                    ]),
                    else_ops: body(vec![]),
                },
                Op::Barrier,
                Op::Load {
                    addr: Expr::Const(5),
                    dst: 0,
                },
                Op::Store {
                    addr: Expr::add(Expr::Const(200), Expr::PeIndex),
                    value: Expr::Reg(0),
                },
                Op::Halt,
            ]),
            vec![],
        );
        for build in [
            MachineBuilder::new(8).ideal(2),
            MachineBuilder::new(8).network(1),
        ] {
            let mut m = build.build_spmd(&p);
            assert!(m.run().completed);
            for pe in 0..8 {
                assert_eq!(m.read_shared(200 + pe), 42, "PE{pe} saw the store");
            }
        }
    }

    #[test]
    fn consecutive_barriers_work() {
        let p = Program::new(
            body(vec![Op::Barrier, Op::Barrier, Op::Barrier, Op::Halt]),
            vec![],
        );
        let mut m = MachineBuilder::new(4).build_spmd(&p);
        assert!(m.run().completed);
    }

    #[test]
    fn network_latency_reflected_in_cm_access() {
        // One load on an otherwise idle 64-PE machine: round trip should be
        // the §4.2 minimum (fwd D + m_ctl - 1, MM service, reverse
        // D + m_data - 1) — with D = 6, service 2: 6 + 2 + 8 = 16 cycles.
        let p = Program::new(
            body(vec![
                Op::Load {
                    addr: Expr::Const(7),
                    dst: 0,
                },
                Op::Store {
                    addr: Expr::Const(300),
                    value: Expr::Reg(0),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut programs = vec![Program::empty(); 64];
        programs[3] = p;
        let mut m = MachineBuilder::new(64).build(programs);
        assert!(m.run().completed);
        let merged = m.merged_pe_stats();
        assert_eq!(merged.cm_access.count(), 2);
        // The load's round trip is measured from issue to delivery; allow
        // the injection cycle itself as slack.
        let min = merged.cm_access.percentile(0.0);
        assert!(
            (16..=18).contains(&min),
            "min CM access {min} should be ~16 cycles (8 PE instruction times)"
        );
    }

    #[test]
    fn hotspot_combining_machine_end_to_end() {
        // All PEs hammer one word; combining must keep the final count
        // exact and the returned values distinct.
        let p = Program::new(
            body(vec![
                Op::FetchAdd {
                    addr: Expr::Const(0),
                    delta: Expr::Const(1),
                    dst: Some(0),
                },
                Op::Store {
                    addr: Expr::add(Expr::Const(500), Expr::Reg(0)),
                    value: Expr::Const(1),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let n = 16;
        let mut m = MachineBuilder::new(n).build_spmd(&p);
        assert!(m.run().completed);
        assert_eq!(m.read_shared(0), n as Value);
        for i in 0..n {
            assert_eq!(m.read_shared(500 + i), 1, "ticket {i} claimed once");
        }
    }

    #[test]
    fn run_times_out_on_deadlock() {
        // One PE waits at a barrier nobody else reaches.
        let p = Program::new(body(vec![Op::Barrier, Op::Halt]), vec![]);
        let mut programs = vec![Program::empty(); 4];
        programs[0] = p;
        let mut m = MachineBuilder::new(4).max_cycles(5_000).build(programs);
        let out = m.run();
        assert!(!out.completed);
        assert_eq!(out.cycles, 5_000);
    }

    #[test]
    fn stats_populated() {
        let mut m = MachineBuilder::new(8).build_spmd(&counter_program(5));
        assert!(m.run().completed);
        let merged = m.merged_pe_stats();
        assert!(merged.instructions.get() > 0);
        assert_eq!(merged.shared_refs.get(), 8 * 5);
        assert_eq!(merged.cm_loads.get(), 8 * 5, "fetch-and-adds carry data");
        let net = m.net_stats();
        assert_eq!(net.injected_requests.get(), 8 * 5);
        assert_eq!(
            net.delivered_replies.get(),
            8 * 5,
            "every request gets exactly one reply (decombined or direct)"
        );
        assert_eq!(net.combines.get(), net.decombines.get());
    }

    #[test]
    fn fetch_and_max_reduction_combines_end_to_end() {
        // §2.4 generality through the whole machine: every PE folds a
        // value into a shared maximum with FetchPhi(Max); the network
        // combines Max pairs exactly like adds.
        use ultra_net::message::PhiOp;
        let p = Program::new(
            body(vec![
                Op::FetchPhi {
                    op: PhiOp::Max,
                    addr: Expr::Const(3),
                    // Values 0, 7, 14, ... — max is (n-1)*7.
                    operand: Expr::mul(Expr::PeIndex, 7),
                    dst: Some(0),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let n = 16;
        let mut m = MachineBuilder::new(n).build_spmd(&p);
        m.write_shared(3, -100);
        assert!(m.run().completed);
        assert_eq!(m.read_shared(3), (n as Value - 1) * 7);
        assert!(
            m.net_stats().combines.get() > 0,
            "simultaneous maxes must combine in the tree"
        );
    }

    #[test]
    fn four_by_four_switch_machine_works() {
        // The §4.2 geometry (k = 4) at small scale, through the machine.
        let mut m = MachineBuilder::new(16)
            .net(ultra_net::config::NetConfig::paper_section42_scaled(16))
            .build_spmd(&counter_program(8));
        assert!(m.run().completed);
        assert_eq!(m.read_shared(0), 16 * 8);
        assert!(
            m.net_stats().combines.get() > 0,
            "hot counter combines in 4x4 switches too"
        );
    }

    #[test]
    fn trace_records_the_story_of_a_run() {
        use crate::trace::TraceEvent;
        let p = Program::new(
            body(vec![
                Op::FetchAdd {
                    addr: Expr::Const(0),
                    delta: Expr::Const(1),
                    dst: Some(0),
                },
                Op::Barrier,
                Op::Halt,
            ]),
            vec![],
        );
        let mut m = MachineBuilder::new(4).build_spmd(&p);
        m.enable_trace(1024);
        assert!(m.run().completed);
        let issues = m
            .trace()
            .events()
            .filter(|e| matches!(e, TraceEvent::Issue { .. }))
            .count();
        let replies = m
            .trace()
            .events()
            .filter(|e| matches!(e, TraceEvent::Reply { .. }))
            .count();
        let halts = m
            .trace()
            .events()
            .filter(|e| matches!(e, TraceEvent::Halt { .. }))
            .count();
        let releases = m
            .trace()
            .events()
            .filter(|e| matches!(e, TraceEvent::BarrierRelease { .. }))
            .count();
        assert_eq!(issues, 8, "4 fetch-adds + 4 barrier arrivals");
        assert_eq!(replies, 8);
        assert_eq!(halts, 4);
        assert_eq!(releases, 1);
        // Events are recorded in nondecreasing cycle order.
        let cycles: Vec<_> = m.trace().events().map(TraceEvent::cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(m.trace().dropped(), 0);
    }

    // ---- fault injection & resilience ----

    #[test]
    fn dead_mm_at_boot_machine_counts_exactly() {
        // The counter word's healthy home may be the dead module; the
        // re-hash sends every access to the adoptive module instead and
        // the run stays exact.
        for dead in 0..8usize {
            let mut m = MachineBuilder::new(8)
                .faults(FaultPlan::none().dead_mm(MmId(dead)))
                .build_spmd(&counter_program(6));
            assert!(m.run().completed, "dead MM {dead} must not wedge the run");
            assert_eq!(m.read_shared(0), 48, "dead MM {dead}");
        }
    }

    #[test]
    fn dead_copy_fails_over_and_counts_exactly() {
        // d = 2 with one copy fully dead: every injection is refused by
        // the dead copy and carried by the survivor.
        let mut m = MachineBuilder::new(8)
            .network(2)
            .faults(FaultPlan::none().dead_copy(0))
            .build_spmd(&counter_program(8));
        assert!(m.run().completed);
        assert_eq!(m.read_shared(0), 64);
        let f = m.fault_summary();
        assert!(f.failovers > 0, "survivor must pick up refused requests");
        assert_eq!(f.refusals, f.failovers, "every refusal failed over");
    }

    #[test]
    fn lossy_links_with_retry_stay_exactly_once() {
        // 10% of injections are swallowed; the PNI timeout re-issues them
        // and the MM dedup cache keeps each fetch-and-add single-shot.
        let mut m = MachineBuilder::new(8)
            .faults(FaultPlan::none().seed(7).link_loss(0.10))
            .max_cycles(2_000_000)
            .build_spmd(&counter_program(10));
        assert!(m.run().completed, "retries must recover every loss");
        assert_eq!(m.read_shared(0), 80, "applied exactly once despite loss");
        let f = m.fault_summary();
        assert!(f.dropped > 0, "losses must actually occur at 10%");
        assert!(f.retries >= f.dropped, "every loss needs a retry");
    }

    #[test]
    fn scheduled_copy_death_mid_run_is_survivable() {
        let mut m = MachineBuilder::new(8)
            .network(2)
            .faults(FaultPlan::none().schedule(50, Fault::KillCopy { copy: 1 }))
            .build_spmd(&counter_program(12));
        assert!(m.run().completed);
        assert_eq!(m.read_shared(0), 96);
        assert!(m.fault_summary().refusals > 0, "the dead copy refused work");
    }

    #[test]
    fn scheduled_mm_death_mid_run_rehashes_and_recovers() {
        // Distinct-slot stores: slots written before the death and living
        // on surviving modules keep their values; requests in flight to
        // the dying module are discarded and recovered by retry.
        let p = Program::new(
            body(vec![
                Op::Store {
                    addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                    value: Expr::Const(7),
                },
                Op::Fence,
                Op::Barrier,
                Op::Store {
                    addr: Expr::add(Expr::Const(200), Expr::PeIndex),
                    value: Expr::Const(9),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let healthy = AddressHasher::new(8, TranslationMode::Hashed);
        let dying = MmId(3);
        let mut m = MachineBuilder::new(8)
            .faults(FaultPlan::none().schedule(60, Fault::KillMm { mm: dying }))
            .build_spmd(&p);
        let out = m.run();
        assert!(out.completed, "machine must drain after the module dies");
        assert!(m.fault_summary().retries > 0 || m.fault_summary().dead_discards == 0);
        // Post-barrier stores all happened under the degraded hash.
        for pe in 0..8 {
            assert_eq!(m.read_shared(200 + pe), 9, "post-death store {pe}");
        }
        // Pre-death stores survive unless their word lived on the victim.
        for pe in 0..8 {
            if healthy.translate(100 + pe).mm != dying {
                assert_eq!(m.read_shared(100 + pe), 7, "surviving store {pe}");
            }
        }
    }

    #[test]
    fn healthy_plan_reports_zero_fault_activity() {
        let mut m = MachineBuilder::new(8).build_spmd(&counter_program(5));
        assert!(m.run().completed);
        assert!(!m.fault_summary().any());
    }

    // ---- §3.5 hardware multiprogramming ----

    #[test]
    fn multiprogramming_runs_k_contexts_per_pe() {
        // 4 physical PEs x 2 contexts = 8 virtual PEs; each writes its own
        // virtual id into a slot.
        let p = Program::new(
            body(vec![
                Op::Store {
                    addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                    value: Expr::add(Expr::PeIndex, 1),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut m = MachineBuilder::new(4).multiprogramming(2).build_spmd(&p);
        assert_eq!(m.virtual_pes(), 8);
        assert!(m.run().completed);
        for vid in 0..8 {
            assert_eq!(m.read_shared(100 + vid), vid as Value + 1);
        }
    }

    #[test]
    fn multiprogramming_counts_exactly() {
        let mut m = MachineBuilder::new(4)
            .multiprogramming(4)
            .build_spmd(&counter_program(10));
        assert!(m.run().completed);
        assert_eq!(m.read_shared(0), 16 * 10, "16 virtual PEs x 10");
    }

    #[test]
    fn multiprogramming_barriers_span_all_contexts() {
        let p = Program::new(
            body(vec![
                Op::FetchAdd {
                    addr: Expr::Const(0),
                    delta: Expr::Const(1),
                    dst: None,
                },
                Op::Barrier,
                // After the barrier every context must see all arrivals.
                Op::Load {
                    addr: Expr::Const(0),
                    dst: 0,
                },
                Op::Store {
                    addr: Expr::add(Expr::Const(100), Expr::PeIndex),
                    value: Expr::Reg(0),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut m = MachineBuilder::new(4).multiprogramming(2).build_spmd(&p);
        assert!(m.run().completed);
        for vid in 0..8 {
            assert_eq!(m.read_shared(100 + vid), 8, "context {vid}");
        }
    }

    // ---- cycle engine: parallel parity & idle fast-forward ----

    fn digest(m: &Machine) -> String {
        crate::report::MachineReport::from_machine(m).parity_string()
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential() {
        // Same config at 1, 2 and 4 threads, with every fan-out point
        // exercised: d = 2 network copies, 8 banks, 8 PE shards with two
        // contexts each, plus tracing so the deferred-event merge order
        // is checked too.
        let run = |threads: usize| {
            let mut m = MachineBuilder::new(8)
                .network(2)
                .multiprogramming(2)
                .threads(threads)
                .build_spmd(&counter_program(6));
            m.enable_trace(4096);
            assert!(m.run().completed);
            let events: Vec<TraceEvent> = m.trace().events().copied().collect();
            (digest(&m), events, m.read_shared(0))
        };
        let (seq, seq_events, seq_mem) = run(1);
        for threads in [2, 4] {
            let (par, par_events, par_mem) = run(threads);
            assert_eq!(seq, par, "parity digest diverged at {threads} threads");
            assert_eq!(
                seq_events, par_events,
                "trace diverged at {threads} threads"
            );
            assert_eq!(seq_mem, par_mem);
        }
    }

    #[test]
    fn engine_is_sequential_unless_threads_is_set() {
        // No host-dependent heuristic: a wide machine built without
        // `.threads()` is sequential on any host.
        let halt = Program::new(body(vec![Op::Halt]), vec![]);
        let wide = MachineBuilder::new(4096).build_spmd(&halt);
        assert_eq!(wide.engine_mode(), EngineMode::Sequential);
        let pinned = MachineBuilder::new(8).threads(3).build_spmd(&halt);
        assert_eq!(pinned.engine_mode(), EngineMode::Parallel { threads: 3 });
    }

    #[test]
    fn dense_sweep_is_bit_identical_to_sparse() {
        let run = |mode: SweepMode| {
            let mut m = MachineBuilder::new(8)
                .network(2)
                .multiprogramming(2)
                .build_spmd(&counter_program(6));
            m.set_sweep_mode(mode);
            m.enable_trace(4096);
            assert!(m.run().completed);
            let events: Vec<TraceEvent> = m.trace().events().copied().collect();
            (digest(&m), events, m.read_shared(0))
        };
        assert_eq!(
            run(SweepMode::Sparse),
            run(SweepMode::Dense),
            "sweep mode changed the simulation"
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_on_ideal_backend() {
        // A huge round-trip latency leaves long provably idle gaps while
        // every context sits in WaitReg on a locked destination; the
        // fast-forward must jump them without disturbing any statistic.
        let p = Program::new(
            body(vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(3),
                    body: body(vec![
                        Op::Load {
                            addr: Expr::add(Expr::mul(Expr::PeIndex, 64), Expr::Reg(1)),
                            dst: 0,
                        },
                        // Immediate use: the context parks until the reply.
                        Op::Set {
                            reg: 2,
                            value: Expr::add(Expr::Reg(0), Expr::Reg(2)),
                        },
                    ]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let run = |ff: bool| {
            let mut m = MachineBuilder::new(4)
                .ideal(500)
                .fast_forward(ff)
                .build_spmd(&p);
            assert!(m.run().completed);
            (digest(&m), m.fast_forwarded_cycles())
        };
        let (slow, skipped_off) = run(false);
        let (fast, skipped_on) = run(true);
        assert_eq!(slow, fast, "fast-forward changed the simulation");
        assert_eq!(skipped_off, 0);
        assert!(
            skipped_on > 1_000,
            "500-cycle latencies must leave big skippable gaps, got {skipped_on}"
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_under_lossy_retries() {
        // Dropped requests leave the machine fully drained until the PNI
        // retry deadline — exactly the gap the fast-forward targets; the
        // jump must land on the deadline cycle, not skip it.
        let run = |ff: bool| {
            let mut m = MachineBuilder::new(8)
                .faults(FaultPlan::none().seed(11).link_loss(0.15))
                .fast_forward(ff)
                .max_cycles(2_000_000)
                .build_spmd(&counter_program(6));
            assert!(m.run().completed);
            assert_eq!(m.read_shared(0), 48);
            digest(&m)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fast_forward_deadlock_still_burns_to_the_budget() {
        let p = Program::new(body(vec![Op::Barrier, Op::Halt]), vec![]);
        let mut programs = vec![Program::empty(); 4];
        programs[0] = p;
        let mut m = MachineBuilder::new(4).max_cycles(5_000).build(programs);
        let out = m.run();
        assert!(!out.completed);
        assert_eq!(out.cycles, 5_000);
        assert!(
            m.fast_forwarded_cycles() > 4_000,
            "the deadlocked tail should be skipped in one jump"
        );
    }

    #[test]
    fn wait_until_wakes_on_time_and_fast_forwards_the_gap() {
        // Every PE sleeps until a staggered absolute cycle, then stamps
        // the clock it woke at into its own slot. The wake must be
        // punctual (at/after the target, and not far after: the next
        // fetch happens on the wake cycle), and the idle gaps must be
        // fast-forwardable without disturbing the parity digest.
        let p = Program::new(
            body(vec![
                Op::WaitUntil {
                    cycle: Expr::add(Expr::mul(Expr::PeIndex, 1000), 2000),
                },
                Op::Store {
                    addr: Expr::add(Expr::Const(300), Expr::PeIndex),
                    value: Expr::Clock,
                },
                Op::Halt,
            ]),
            vec![],
        );
        let run = |ff: bool| {
            let mut m = MachineBuilder::new(4)
                .ideal(2)
                .fast_forward(ff)
                .build_spmd(&p);
            assert!(m.run().completed);
            for pe in 0..4i64 {
                let target = pe * 1000 + 2000;
                let woke = m.read_shared((300 + pe) as usize);
                assert!(woke >= target, "PE {pe} woke at {woke}, before {target}");
                assert!(woke < target + 16, "PE {pe} overslept: {woke} vs {target}");
            }
            (digest(&m), m.fast_forwarded_cycles())
        };
        let (slow, skipped_off) = run(false);
        let (fast, skipped_on) = run(true);
        assert_eq!(slow, fast, "fast-forward changed a timed-wait run");
        assert_eq!(skipped_off, 0);
        assert!(
            skipped_on > 1_000,
            "staggered sleeps must leave skippable gaps, got {skipped_on}"
        );
    }

    #[test]
    fn relative_wait_matches_across_backends() {
        // WaitUntil(Clock + k) from inside a loop: a fixed-rate pacing
        // pattern. Both backends must complete and agree that each
        // iteration lands at least k cycles after the previous stamp.
        let p = Program::new(
            body(vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(4),
                    body: body(vec![
                        Op::WaitUntil {
                            cycle: Expr::add(Expr::Clock, 100),
                        },
                        Op::Store {
                            addr: Expr::add(
                                Expr::add(Expr::Const(400), Expr::mul(Expr::PeIndex, 8)),
                                Expr::Reg(1),
                            ),
                            value: Expr::Clock,
                        },
                    ]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        for build in [
            MachineBuilder::new(2).ideal(2),
            MachineBuilder::new(2).network(1),
        ] {
            let mut m = build.build_spmd(&p);
            assert!(m.run().completed);
            for pe in 0..2 {
                let mut prev = 0;
                for i in 0..4 {
                    let stamp = m.read_shared(400 + pe * 8 + i);
                    assert!(
                        stamp >= prev + 100,
                        "PE {pe} iteration {i} stamped {stamp}, under {prev} + 100"
                    );
                    prev = stamp;
                }
            }
        }
    }

    #[test]
    fn multiprogramming_hides_memory_latency() {
        // A latency-bound pointer-chase-like program: load, use, repeat.
        // One context stalls on every use; two contexts interleave and
        // lower the PE's idle fraction.
        let p = Program::new(
            body(vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(60),
                    body: body(vec![
                        Op::Load {
                            addr: Expr::add(Expr::mul(Expr::PeIndex, 1024), Expr::Reg(1)),
                            dst: 0,
                        },
                        // Immediate use: no prefetch slack.
                        Op::Set {
                            reg: 2,
                            value: Expr::add(Expr::Reg(0), Expr::Reg(2)),
                        },
                    ]),
                },
                Op::Halt,
            ]),
            vec![],
        );
        let idle_frac = |contexts: usize| {
            let mut m = MachineBuilder::new(16)
                .multiprogramming(contexts)
                .build_spmd(&p);
            assert!(m.run().completed);
            let merged = m.merged_pe_stats();
            merged.idle_cycles.get() as f64 / (16 * m.now()) as f64
        };
        let single = idle_frac(1);
        let dual = idle_frac(2);
        assert!(
            dual < 0.8 * single,
            "2-fold multiprogramming must hide latency: idle {single:.3} -> {dual:.3}"
        );
    }
}
