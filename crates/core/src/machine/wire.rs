//! Snapshot state serialization.
//!
//! Everything the simulation's future depends on is written; everything
//! rebuildable from the config (hasher, route tables, active sets) or
//! purely observational (trace, telemetry, phase spans, wall-clock) is
//! not. See `crate::snapshot` for the framed public format.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use ultra_faults::{FaultClock, FaultPlan};
use ultra_mem::{AddressHasher, Fabric, StateDecodeError, TranslationMode};
use ultra_net::config::NetConfig;
use ultra_net::message::{Message, MsgId};
use ultra_obs::{PhaseRecorder, TimeSeries};
use ultra_pe::pni::Pni;
use ultra_pe::stats::PeStats;
use ultra_sim::clock::TimeScale;
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};
use ultra_sim::{ActiveSet, IdMap, MmId, PeId};

use super::{
    BackendImpl, BackendKind, CtxState, Machine, MachineConfig, PeShard, Purpose, ReqMeta,
};
use crate::interp::{IssueSpec, PeInterp};
use crate::paracomputer::Paracomputer;
use crate::trace::Trace;

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
    /// snapshot's config-identity echo. The speed knob `fast_forward` is
    /// excluded: both settings are bit-identical, so a snapshot may
    /// legally be resumed under the other (see
    /// [`crate::snapshot::EngineTuning`]).
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

    /// Inverse of [`MachineConfig::encode_identity`]; `fast_forward`
    /// comes back at its default until the snapshot's tuning echo
    /// overwrites it.
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
            fast_forward: true,
        })
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
        self.debug_check_invariants();
        w.usize(self.shards.len());
        for shard in &self.shards {
            shard.interps.encode(w);
            shard.states.encode(w);
            w.usize(shard.stats.len());
            // A parked shard's pending idle cycles are written as if
            // already charged, so the bytes never depend on who is parked.
            for (c, stats) in shard.stats.iter().enumerate() {
                let (idle, barrier) = shard.unstamped_idle(c, self.now);
                stats.encode_alive_for(self.now, idle, barrier, w);
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
            BackendImpl::Network(fabric) => {
                w.u8(1);
                fabric.encode(w);
            }
        }
    }

    /// Reassembles a machine from `cfg` plus serialized state.
    /// Rebuildable structure (hasher, route tables) is
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
        let contexts = n
            .checked_mul(k)
            .ok_or(StateDecodeError::ConfigMismatch("context count overflows"))?;
        let dead_mms: Vec<MmId> = Vec::decode(r)?;
        let dead_pes: Vec<PeId> = Vec::decode(r)?;
        if dead_mms.iter().any(|mm| mm.0 >= n) || dead_pes.iter().any(|pe| pe.0 >= n) {
            return Err(WireError::Invalid("dead module or PE index out of range").into());
        }
        if dead_mms.iter().collect::<BTreeSet<_>>().len() >= n {
            return Err(WireError::Invalid("every memory module is dead").into());
        }
        let mut hasher = AddressHasher::new(n, cfg.translation);
        if !dead_mms.is_empty() {
            hasher.set_dead_mms(&dead_mms);
        }
        let now = r.u64()?;
        // Reports multiply the clock by a context count.
        if now.checked_mul(contexts as u64).is_none() {
            return Err(WireError::Invalid("cycle count out of range").into());
        }
        let barrier_generation = r.u64()?;
        let barrier_arrived = r.usize()?;
        let duplicate_replies = r.u64()?;
        let unroutable = r.u64()?;
        let fast_forwarded = r.u64()?;
        let fault_clock = FaultClock::decode(r)?;
        let meta: IdMap<MsgId, ReqMeta> = IdMap::decode(r)?;
        if meta.values().any(|m| m.ctx >= contexts) {
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
                parked_since: None,
            });
        }
        let backend = match (r.u8()?, cfg.backend) {
            (0, BackendKind::Ideal { latency }) => BackendImpl::Ideal {
                para: Paracomputer::decode(r)?,
                latency,
                pending: BTreeMap::decode(r)?,
            },
            (1, BackendKind::Network { copies }) => {
                BackendImpl::Network(Fabric::decode(r, &cfg.net, copies)?)
            }
            (0 | 1, _) => return Err(StateDecodeError::ConfigMismatch("backend kind")),
            _ => return Err(WireError::Invalid("backend state tag").into()),
        };
        // The engine's sets are pure accelerations of state just decoded:
        // never serialized, rebuilt here. Nothing starts parked
        // (`runnable = live`): each shard's first datapath cycle re-proves
        // it, and its idle cycles up to `now` are in the decoded counters.
        let live = ActiveSet::from_members(
            n,
            (0..n).filter(|&i| shards[i].states.iter().any(|s| *s != CtxState::Halted)),
        );
        let outgoing =
            ActiveSet::from_members(n, (0..n).filter(|&i| !shards[i].outgoing.is_empty()));
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
            outgoing,
            runnable: live.clone(),
            live,
            retry_enabled: Self::retry_policy_for(&cfg).is_some(),
            series: TimeSeries::new(),
            phases: PhaseRecorder::new(),
            phase_epoch: Instant::now(),
            cfg,
        })
    }
}
