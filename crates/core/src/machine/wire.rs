//! The config identity on the wire: with the program runs and the write
//! log, all a snapshot holds of a [`super::Recipe`]. Nothing the machine
//! computes is written — a restore rebuilds it from these and replays it.
//! See `crate::snapshot` for the framed public format.

use ultra_faults::FaultPlan;
use ultra_mem::TranslationMode;
use ultra_net::config::NetConfig;
use ultra_sim::clock::TimeScale;
use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};

use super::{BackendKind, MachineConfig};

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
