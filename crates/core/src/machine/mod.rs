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
//!   studies; the copies and banks are one [`ultra_mem::Fabric`], the
//!   same type the open-loop harness drives.
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
//!
//! Layout: `config` (what to build), `cycle` (the schedule above and each
//! shard's datapath cycle), `ff` (idle fast-forward), `faults` (fault
//! application and degraded-mode reconfiguration), `wire` (the snapshot
//! recipe); this file holds the types, the assembly and the accessors.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ultra_faults::FaultClock;
use ultra_mem::{AddressHasher, Fabric};
use ultra_net::config::SweepMode;
use ultra_net::message::{Message, Reply};
use ultra_net::stats::NetStats;
use ultra_obs::{CounterSnapshot, GaugeSnapshot, HeatmapSnapshot, PhaseRecorder, TimeSeries};
use ultra_pe::pni::{Outstanding, PniCore};
use ultra_pe::stats::{ContextStats, PeStats};
use ultra_sim::heap::{vec_bytes, KeptVec};
use ultra_sim::ring::{Ring, Rings};
use ultra_sim::wire::WireWriter;
use ultra_sim::{ActiveSet, Cycle, HistogramColumn, MmId, PeId, Value};

use crate::interp::{Code, Frame, IssueSpec, Thread};
use crate::paracomputer::Paracomputer;
use crate::program::{Program, Reg};
use crate::snapshot::EngineTuning;
use crate::trace::Trace;

mod config;
mod cycle;
mod faults;
mod ff;
#[cfg(test)]
mod tests;
mod wire;

pub use config::{BackendKind, MachineBuilder, MachineConfig};

/// Virtual addresses at and above this are reserved for machine-assisted
/// barriers (one word per barrier generation).
pub const BARRIER_VADDR_BASE: usize = 1 << 40;

/// Why a context is not currently executing.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CtxState {
    Ready,
    WaitReg(Reg),
    WaitIssue(IssueSpec, Purpose),
    WaitBarrier,
    WaitFence,
    /// Parked by [`crate::program::Op::WaitUntil`] until the clock reaches
    /// the cycle.
    WaitUntil(Cycle),
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    Data,
    Barrier,
}

/// The machine's tag on each outstanding request: what its reply does.
/// The PE is the reply's destination.
#[derive(Debug, Clone, Copy)]
struct Tag {
    /// The issuing context, local to its PE.
    ctx: u32,
    dst: Option<Reg>,
    purpose: Purpose,
}

// One per machine, so the variants' sizes do not matter; a box would cost
// an allocation per build and per fork.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum BackendImpl {
    Ideal {
        para: Paracomputer,
        latency: Cycle,
        /// due cycle → requests applied (as a simultaneous batch) then.
        pending: BTreeMap<Cycle, Vec<Message>>,
    },
    Network(Fabric),
}

/// Aggregate resilience counters for one run. All zero under
/// [`ultra_faults::FaultPlan::none`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Injections refused by a dead copy or a dead port on the route
    /// (each one is a failover attempt).
    pub refusals: u64,
    /// Requests accepted by a later copy after an earlier copy refused.
    pub failovers: u64,
    /// Requests lost on lossy links (each handed back to its PE).
    pub dropped: u64,
    /// Requests sent again after a reported loss: each one a lossy link
    /// dropped, and each one a PNI re-issued after a NACK or an
    /// unroutable offer.
    pub retries: u64,
    /// Replies that answered no outstanding request, discarded at the PEs
    /// (late replies to a fail-stopped PE).
    pub duplicate_replies: u64,
    /// Retired: always zero, since no module keeps a cache of served
    /// requests. It stays only because `MachineReport::parity_string`
    /// prints this struct's `Debug` form and the benchmark's recorded
    /// digests hash that string; it goes with the next change to those
    /// digests.
    pub dedup_hits: u64,
    /// Retired: always zero, kept for the parity digest (see
    /// `dedup_hits`).
    pub dedup_swallowed: u64,
    /// Requests and replies dead MMs refused with a NACK.
    pub dead_discards: u64,
    /// Wait-buffer slots lost to stuck entries.
    pub stuck_wait_entries: u64,
    /// Outbound offers no live copy had a route for (each re-issued under
    /// the re-hashed translation).
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

/// One context (virtual PE): its interpreter record, why it is not
/// executing, and its counters. The machine keeps every context in one
/// column indexed by virtual PE; shard `i` owns `ctxs[i·k..(i+1)·k]`. A
/// context owns no heap: its frames are its stretch of
/// [`Machine::frames`], its access-time bins its slot in
/// [`Machine::cm_access`].
#[derive(Clone)]
struct Context {
    thread: Thread,
    state: CtxState,
    stats: ContextStats,
}

/// One physical PE's slice of the machine past its contexts: datapath
/// occupancy, network interface and outbound queue. Within a cycle no
/// shard reads another shard's state or contexts; its datapath cycle
/// writes the machine-wide sinks (trace, halt count, wake calendar, the
/// slabs its PNI and queue keep their entries in) through [`CycleSinks`].
#[derive(Clone)]
struct PeShard {
    /// Datapath occupancy.
    busy_until: Cycle,
    /// Round-robin context cursor (HEP-style).
    cursor: usize,
    /// Network interface; its requests are in [`Machine::outstanding`].
    pni: PniCore,
    /// Outgoing messages awaiting network acceptance, in
    /// [`Machine::outbound`].
    outgoing: Ring,
    /// `Some(c)` while the shard is parked — out of [`Machine::runnable`],
    /// with cycles `c..` not yet charged to its idle counters (see
    /// [`PeShard::unstamped_idle`]). A park starts at most once a cycle,
    /// so `c` also names the park in [`Machine::wakes`].
    parked_since: Option<Cycle>,
}

impl PeShard {
    /// Virtual PE index of local context `c`, for a shard of `k`
    /// contexts: shard `i` is PE `i`, and its contexts follow on from
    /// `i · k`.
    fn vpe(&self, k: usize, c: usize) -> usize {
        self.pni.pe().0 * k + c
    }
}

/// How a machine is made: the config, one program per context and every
/// untimed write with its cycle. Under the serialization principle a run
/// is a function of this one value: a snapshot holds it, a cache of
/// machine states is keyed on it, and equal recipes make machines that
/// agree at every cycle. [`MachineBuilder::recipe_spmd`] yields one
/// without building anything; [`Machine::from_recipe`] builds it.
///
/// Equality and hashing read the config's identity (the snapshot's config
/// echo, without the speed knob `fast_forward`): dead units compare as
/// the sets the fault plan keeps, a link-loss probability by its bits.
/// The write log hashes through a digest folded in as each write is
/// logged, in constant time however long the log.
#[derive(Debug, Clone)]
pub struct Recipe {
    pub(crate) cfg: MachineConfig,
    /// One program per context, as `(count, program)` runs of equal
    /// consecutive programs.
    pub(crate) programs: Vec<(usize, Program)>,
    /// Every untimed write as `(cycle, vaddr, value)`, in call order.
    pub(crate) writes: Vec<(Cycle, usize, Value)>,
    /// Digest of `writes` (see [`Recipe::log`]).
    written: u64,
}

impl Recipe {
    /// The recipe of `programs` under `cfg`, with an empty write log.
    pub(crate) fn new(cfg: MachineConfig, programs: Vec<(usize, Program)>) -> Self {
        Self {
            cfg,
            programs,
            writes: Vec::new(),
            written: 0,
        }
    }

    /// Logs an untimed write of `value` to shared word `vaddr`, made
    /// where the log ends: before cycle 0 on a recipe nobody has run.
    pub fn write_shared(&mut self, vaddr: usize, value: Value) {
        let at = self.writes.last().map_or(0, |&(at, ..)| at);
        self.log((at, vaddr, value));
    }

    /// Appends `write` to the log and folds it into the log's digest
    /// (one FxHash step per word).
    pub(crate) fn log(&mut self, write: (Cycle, usize, Value)) {
        let (at, vaddr, value) = write;
        for word in [at, vaddr as u64, value as u64] {
            self.written = (self.written.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        self.writes.push(write);
    }

    /// The config identity (see [`MachineConfig::encode_identity`]).
    fn identity(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.cfg.encode_identity(&mut w);
        w.into_bytes()
    }

    /// Heap bytes the recipe owns. Program bodies are shared with the
    /// interpreters and are not counted.
    fn heap_bytes(&self) -> usize {
        let params: usize = (self.programs.iter())
            .map(|(_, program)| vec_bytes(&program.params))
            .sum();
        std::mem::size_of::<Self>() + vec_bytes(&self.programs) + params + vec_bytes(&self.writes)
    }
}

impl PartialEq for Recipe {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
            || (self.written == other.written
                && self.programs == other.programs
                && self.writes == other.writes
                && self.identity() == other.identity())
    }
}

impl Eq for Recipe {}

impl Hash for Recipe {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
        self.programs.hash(state);
        (self.writes.len(), self.written).hash(state);
    }
}

/// Read-only per-cycle parameters handed to every shard, and the
/// machine-wide tables its contexts read.
#[derive(Clone, Copy)]
struct CycleCtx<'a> {
    now: Cycle,
    /// Cycles per PE instruction.
    cpi: Cycle,
    barrier_generation: u64,
    code: &'a Code,
    /// The recipe's program runs, whose parameters the contexts read.
    programs: &'a [(usize, Program)],
    hasher: &'a AddressHasher,
    /// Contexts per PE.
    k: usize,
    vpes: usize,
}

/// An entry of [`Machine::wakes`]: `(at, shard, since)` — wake `shard`
/// at cycle `at` if it is still in the park that began at `since`.
type Wake = Reverse<(Cycle, u32, Cycle)>;

/// The machine-wide state a shard's datapath cycle writes, borrowed
/// field by field from the [`Machine`] while the PE phase walks its
/// shards.
struct CycleSinks<'a> {
    trace: &'a mut Trace,
    halted_count: &'a mut usize,
    wakes: &'a mut BinaryHeap<Wake>,
    outstanding: &'a mut Outstanding<Tag>,
    outbound: &'a mut Rings<Message>,
}

/// The assembled machine.
#[derive(Clone)]
pub struct Machine {
    cfg: MachineConfig,
    /// How the machine was made; shared by every fork.
    recipe: Arc<Recipe>,
    /// The address translator every PNI uses.
    hasher: Arc<AddressHasher>,
    /// The recipe's programs compiled for the frame column.
    code: Arc<Code>,
    /// One shard per physical PE.
    shards: Vec<PeShard>,
    /// Every context, indexed by virtual PE (see [`Context`]).
    ctxs: Vec<Context>,
    /// Every context's control frames: context `v` owns the
    /// [`Code::depth`] frames from `v · depth`.
    frames: Vec<Frame>,
    /// The bins of every context's access-time histogram.
    cm_access: HistogramColumn,
    /// Every PNI's outstanding requests: the one record of each request
    /// between issue and reply.
    outstanding: Outstanding<Tag>,
    /// Every shard's outgoing messages.
    outbound: Rings<Message>,
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
    /// Replies that answered no outstanding request.
    duplicate_replies: u64,
    /// Outbound offers every copy refused the route for.
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
    deliveries: KeptVec<Reply>,
    /// Shards whose `outgoing` queue is non-empty: what the outbound
    /// flush walks and the quiescence and fast-forward checks count.
    outgoing: ActiveSet,
    /// Shards with at least one non-halted context.
    live: ActiveSet,
    /// `runnable ⊆ live`: the shards the PE phase and the fast-forward
    /// scan visit. A shard leaves when its datapath cycle idles and
    /// proves every context parked on an event (a locked register, a
    /// barrier, a fence with requests outstanding, or halted) or asleep
    /// on the clock (`WaitUntil` a later cycle) — every cycle until the
    /// earliest wake would charge one idle cycle and change nothing
    /// else — and re-enters on exactly what can end such a wait: a reply
    /// delivered to it, a barrier release, a fault firing, or the step
    /// for its earliest wake cycle ([`Machine::wake`]).
    runnable: ActiveSet,
    /// The wake calendar: one entry per park that has a context asleep on
    /// the clock, at that park's earliest wake cycle. A shard woken
    /// earlier by an event leaves its entry behind, stale (its park is
    /// over), and the entry is dropped when it reaches the head.
    wakes: BinaryHeap<Wake>,
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
    /// Builds the machine `recipe` describes and replays its write log,
    /// running up to each logged write to apply it: a recipe fresh from a
    /// builder, whose writes all precede cycle 0, yields a machine at
    /// cycle 0. The one constructor behind [`MachineBuilder::build`],
    /// [`MachineBuilder::build_spmd`] and [`Machine::restore`].
    ///
    /// # Panics
    ///
    /// Panics unless the program runs cover every context exactly.
    #[must_use]
    pub fn from_recipe(recipe: Recipe) -> Self {
        let cfg = recipe.cfg.clone();
        let n = cfg.net.pes;
        let k = cfg.contexts_per_pe;
        assert!(k >= 1, "need at least one context per PE");
        let vpes = n * k;
        let plan = cfg.faults.clone();
        let mut hasher = AddressHasher::new(n, cfg.translation);
        let static_dead = plan.dead_mms();
        hasher.set_dead_mms(&static_dead);
        let hasher = Arc::new(hasher);
        let code = Code::compile(recipe.programs.iter().map(|(_, program)| program));
        let depth = code.depth();
        // The run index of each context, in order.
        let runs = || {
            let runs = recipe.programs.iter().enumerate();
            runs.flat_map(|(run, &(n, _))| std::iter::repeat(run).take(n))
        };
        assert_eq!(runs().count(), vpes, "need one program per context");
        let mut frames = vec![Frame::default(); depth * vpes];
        let mut ctxs = Vec::with_capacity(vpes);
        ctxs.extend(
            frames
                .chunks_exact_mut(depth)
                .zip(runs())
                .map(|(frames, run)| Context {
                    thread: Thread::new(&code, run, frames),
                    state: CtxState::Ready,
                    stats: ContextStats::default(),
                }),
        );
        let shards: Vec<PeShard> = (0..n)
            .map(|phys| PeShard {
                busy_until: 0,
                cursor: 0,
                pni: PniCore::new(PeId(phys)),
                outgoing: Ring::default(),
                parked_since: None,
            })
            .collect();
        let backend = match cfg.backend {
            BackendKind::Ideal { latency } => BackendImpl::Ideal {
                para: Paracomputer::new(cfg.seed),
                latency,
                pending: BTreeMap::new(),
            },
            BackendKind::Network { copies } => BackendImpl::Network(Fabric::new(
                cfg.net,
                copies,
                cfg.time.cycles_per_mm_access,
                &plan,
            )),
        };
        let live = ActiveSet::from_members(n, 0..n);
        let mut machine = Self {
            recipe: Arc::new(recipe),
            hasher,
            code: Arc::new(code),
            shards,
            ctxs,
            frames,
            cm_access: HistogramColumn::default(),
            outstanding: Outstanding::default(),
            outbound: Rings::default(),
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
            deliveries: KeptVec::default(),
            outgoing: ActiveSet::new(n),
            runnable: live.clone(),
            live,
            wakes: BinaryHeap::new(),
            series: TimeSeries::new(),
            phases: PhaseRecorder::new(),
            phase_epoch: Instant::now(),
            cfg,
        };
        machine.absorb_unreachable();
        let recipe = Arc::clone(&machine.recipe);
        for &(at, vaddr, value) in &recipe.writes {
            machine.advance_to(at);
            machine.poke(vaddr, value);
        }
        machine.run_elapsed = None;
        machine
    }

    /// A second machine in this machine's exact simulation state: what
    /// `Machine::restore_tuned(&self.snapshot(), tuning)` returns, without
    /// the replay. The copy is a clone with trace, telemetry and phase
    /// spans off and empty; `self` is not touched, so any number of forks
    /// may be taken from one donor, from several threads at once.
    #[must_use]
    pub fn fork(&self, tuning: EngineTuning) -> Self {
        let mut fork = self.clone().into_image();
        tuning.apply(&mut fork.cfg);
        fork.debug_check_invariants();
        fork
    }

    /// Rebuilds the machine `recipe` describes and replays it to cycle
    /// `cycle`. The result reports `fast_forwarded` skipped cycles, the
    /// donor's count, since the replay's own depends on how it was sliced.
    pub(crate) fn replay(recipe: Recipe, cycle: Cycle, fast_forwarded: Cycle) -> Self {
        let mut machine = Self::from_recipe(recipe);
        machine.advance_to(cycle);
        machine.fast_forwarded = fast_forwarded;
        machine.run_elapsed = None;
        machine.debug_check_invariants();
        machine
    }

    /// How this machine was made (see [`Recipe`]), shared with every
    /// fork of it.
    #[must_use]
    pub fn recipe(&self) -> &Arc<Recipe> {
        &self.recipe
    }

    /// Turns a machine that has finished running into a donor for
    /// [`Machine::fork`], in place of forking it once more: trace,
    /// telemetry and phase spans are dropped, which is all a fork would
    /// have left behind.
    #[must_use]
    pub fn into_image(mut self) -> Self {
        self.trace = Trace::new();
        self.series = TimeSeries::new();
        self.phases = PhaseRecorder::new();
        self.run_elapsed = None;
        self
    }

    /// An estimate of the heap bytes this machine keeps allocated — what
    /// holding on to it (or to a [`Machine::fork`] of it) costs. It adds up
    /// the per-PE, per-context, per-bank and per-switch columns, slabs and
    /// active sets at their capacities, the translator every PNI uses, the
    /// compiled code, the wake calendar, the staging buffers and the recipe
    /// a fork shares, and leaves out what does not grow with the machine
    /// (counters, observer rings).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let backend = match &self.backend {
            BackendImpl::Ideal { para, pending, .. } => {
                let queued: usize = pending.values().map(vec_bytes).sum();
                para.heap_bytes() + queued
            }
            BackendImpl::Network(fabric) => fabric.heap_bytes(),
        };
        vec_bytes(&self.shards)
            + vec_bytes(&self.ctxs)
            + vec_bytes(&self.frames)
            + self.cm_access.heap_bytes()
            + self.outstanding.heap_bytes()
            + self.outbound.heap_bytes()
            + self.code.heap_bytes()
            + std::mem::size_of::<AddressHasher>()
            + self.hasher.heap_bytes()
            + self.wakes.capacity() * std::mem::size_of::<Wake>()
            + vec_bytes(&self.deliveries)
            + [&self.outgoing, &self.live, &self.runnable]
                .map(ActiveSet::heap_bytes)
                .iter()
                .sum::<usize>()
            + backend
            + self.recipe.heap_bytes()
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
    /// is bit-identical across fast-forward settings, and
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

    /// The hot-spot heatmap of the network fabric — per-switch combine
    /// counts, queue high-water marks and wait-buffer occupancy, merged
    /// across the `d` copies. `None` on the ideal backend, which has no
    /// fabric.
    #[must_use]
    pub fn heatmap(&self) -> Option<HeatmapSnapshot> {
        match &self.backend {
            BackendImpl::Ideal { .. } => None,
            BackendImpl::Network(fabric) => Some(fabric.heatmap()),
        }
    }

    /// Shard `i`'s contexts.
    fn ctxs_of(&self, i: usize) -> &[Context] {
        let k = self.cfg.contexts_per_pe;
        &self.ctxs[i * k..][..k]
    }

    /// Shard `i` and its contexts, both mutable.
    fn shard_mut(&mut self, i: usize) -> (&mut PeShard, &mut [Context]) {
        let k = self.cfg.contexts_per_pe;
        (&mut self.shards[i], &mut self.ctxs[i * k..][..k])
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
        let k = self.cfg.contexts_per_pe;
        (self.shards.iter().zip(self.ctxs.chunks(k)))
            .flat_map(|(shard, ctxs)| {
                (0..k).map(move |c| {
                    let (idle, barrier) = shard.unstamped_idle(ctxs, c, self.now);
                    let mut s = PeStats::new();
                    ctxs[c].stats.add_to(&mut s);
                    s.cm_access = self.cm_access.histogram([&ctxs[c].stats.cm_access]);
                    s.total_cycles = self.now;
                    s.idle_cycles.add(idle);
                    s.barrier_wait_cycles.add(barrier);
                    s
                })
            })
            .collect()
    }

    /// Test and microbench hook: forces the network's switch sweep
    /// (see `Fabric::set_sweep_mode`). No-op on the ideal backend;
    /// not part of a snapshot's recipe — re-apply it after a restore (a
    /// [`Machine::fork`] keeps it).
    #[doc(hidden)]
    pub fn set_sweep_mode(&mut self, mode: SweepMode) {
        if let BackendImpl::Network(fabric) = &mut self.backend {
            fabric.set_sweep_mode(mode);
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
        let k = self.cfg.contexts_per_pe;
        let mut total = PeStats::new();
        let merged = range.len() as u64;
        let ctxs = &self.ctxs[range.clone()];
        total.cm_access = (self.cm_access).histogram(ctxs.iter().map(|ctx| &ctx.stats.cm_access));
        for vpe in range {
            let (shard, c) = (vpe / k, vpe % k);
            self.ctxs[vpe].stats.add_to(&mut total);
            let (idle, barrier) =
                self.shards[shard].unstamped_idle(self.ctxs_of(shard), c, self.now);
            total.idle_cycles.add(idle);
            total.barrier_wait_cycles.add(barrier);
        }
        // Every context has been alive for `now` cycles, and a parked
        // shard's idle cycles are added above; stamping both here keeps
        // `run_for` free of a per-PE pass after every slice.
        total.total_cycles = self.now * merged;
        total
    }

    /// Aggregate network statistics (zeroes for the ideal backend).
    #[must_use]
    pub fn net_stats(&self) -> NetStats {
        match &self.backend {
            BackendImpl::Ideal { .. } => NetStats::new(0),
            BackendImpl::Network(fabric) => fabric.net_stats(),
        }
    }

    /// Physical PEs fail-stopped because the degraded network left them
    /// no route to any module. Empty on a healthy machine.
    #[must_use]
    pub fn dead_pes(&self) -> &[PeId] {
        &self.dead_pes
    }

    /// Aggregate resilience counters (refusals, failovers, losses and
    /// what was sent again). All zero under
    /// [`ultra_faults::FaultPlan::none`].
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
        if let BackendImpl::Network(fabric) = &self.backend {
            let s = fabric.net_stats();
            f.failovers = fabric.failovers();
            f.refusals = s.fault_refusals.get();
            f.dropped = s.fault_dropped.get();
            f.retries += f.dropped;
            f.stuck_wait_entries = s.stuck_wait_entries.get();
            f.dead_discards = (fabric.banks().iter())
                .map(|bank| bank.stats().dead_discards.get())
                .sum();
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
            BackendImpl::Network(fabric) => (fabric.banks().iter())
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
            BackendImpl::Network(fabric) => fabric.peek(addr),
        }
    }

    /// Writes a shared word directly (initialization; not timed). The
    /// write joins the machine's recipe, so a snapshot replays it.
    pub fn write_shared(&mut self, vaddr: usize, value: Value) {
        Arc::make_mut(&mut self.recipe).log((self.now, vaddr, value));
        self.poke(vaddr, value);
    }

    /// Stores `value` at shared word `vaddr`, untimed and unlogged.
    fn poke(&mut self, vaddr: usize, value: Value) {
        let addr = self.hasher.translate(vaddr);
        let n = self.cfg.net.pes;
        match &mut self.backend {
            BackendImpl::Ideal { para, .. } => para.store(Self::flat_key(addr, n), value),
            BackendImpl::Network(fabric) => fabric.poke(addr, value),
        }
    }

    fn flat_key(addr: ultra_sim::MemAddr, n: usize) -> usize {
        addr.offset * n + addr.mm.0
    }

    /// The cumulative counters and boundary gauges one telemetry window
    /// samples (all zero on the ideal backend).
    fn telemetry_sample(&self) -> (CounterSnapshot, GaugeSnapshot) {
        match &self.backend {
            BackendImpl::Ideal { .. } => Default::default(),
            BackendImpl::Network(fabric) => fabric.telemetry_sample(),
        }
    }

    /// Records every telemetry window whose boundary `now` has reached —
    /// one window per normal step, possibly several after a fast-forward
    /// jump (each then sees unchanged counters, exactly as per-cycle
    /// stepping would have sampled them, keeping the series
    /// bit-identical across fast-forward settings).
    fn telemetry_tick(&mut self) {
        while self.series.due(self.now) {
            let (cum, gauges) = self.telemetry_sample();
            self.series.sample(cum, gauges);
        }
    }
}
