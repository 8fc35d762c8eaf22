//! Network configuration.

use ultra_sim::wire::{Wire, WireError, WireReader, WireWriter};

/// How a switch resolves two requests wanting the same output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchPolicy {
    /// The paper's design (§3.1.2): queue both and *combine* requests
    /// directed at the same memory location.
    #[default]
    QueuedCombining,
    /// Queue both but never combine — isolates the value of combining
    /// (used by the hot-spot ablation, experiment E6).
    QueuedNoCombine,
    /// The Burroughs-style alternative the paper rejects (§3.1.2 item 3):
    /// no queue — a request arriving at a busy output is killed and must be
    /// retried by the PE, which limits bandwidth to `O(N / log N)`.
    DropOnConflict,
}

impl Wire for SwitchPolicy {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            Self::QueuedCombining => 0,
            Self::QueuedNoCombine => 1,
            Self::DropOnConflict => 2,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Self::QueuedCombining,
            1 => Self::QueuedNoCombine,
            2 => Self::DropOnConflict,
            _ => return Err(WireError::Invalid("switch-policy tag")),
        })
    }
}

/// How [`crate::omega::OmegaNetwork`] iterates switches each cycle.
///
/// Not a setting: every network sweeps sparsely. Both modes visit the
/// same non-empty switches in the same order, so forcing
/// [`SweepMode::Dense`] through the test hook
/// `OmegaNetwork::set_sweep_mode` is bit-identical (the `engine_parity`
/// suite asserts this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepMode {
    /// Visit only switches holding traffic, via the per-stage active
    /// sets.
    #[default]
    Sparse,
    /// Always scan every switch of every stage — the seed behaviour,
    /// kept as the parity reference.
    Dense,
}

/// Static parameters of one Omega network.
///
/// # Example
///
/// ```
/// use ultra_net::config::NetConfig;
///
/// let cfg = NetConfig::paper_section42();
/// assert_eq!(cfg.pes, 4096);
/// assert_eq!(cfg.k, 4);
/// assert_eq!(cfg.request_queue_packets, 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of PEs `N` (must be a power of `k`).
    pub pes: usize,
    /// Switch arity `k`.
    pub k: usize,
    /// Capacity of each ToMM (forward) output queue, in packets
    /// (`usize::MAX` = the analytic model's infinite queues).
    pub request_queue_packets: usize,
    /// Capacity of each ToPE (reverse) output queue, in packets.
    pub reply_queue_packets: usize,
    /// Wait-buffer entries per switch; when full, further combining at that
    /// switch is declined (§3.3).
    pub wait_entries: usize,
    /// Conflict-resolution policy.
    pub policy: SwitchPolicy,
    /// Packets in a message that carries a data word (§4.2 uses 3).
    pub data_packets: u8,
    /// Packets in a dataless message (§4.2 uses 1).
    pub ctl_packets: u8,
}

impl Wire for NetConfig {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.pes);
        w.usize(self.k);
        w.usize(self.request_queue_packets);
        w.usize(self.reply_queue_packets);
        w.usize(self.wait_entries);
        self.policy.encode(w);
        w.u8(self.data_packets);
        w.u8(self.ctl_packets);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            pes: r.usize()?,
            k: r.usize()?,
            request_queue_packets: r.usize()?,
            reply_queue_packets: r.usize()?,
            wait_entries: r.usize()?,
            policy: SwitchPolicy::decode(r)?,
            data_packets: r.u8()?,
            ctl_packets: r.u8()?,
        })
    }
}

impl NetConfig {
    /// A small 2×2-switch network for unit tests and examples: `n` PEs,
    /// combining on, queues of 15 packets, ample wait buffers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn small(n: usize) -> Self {
        let cfg = Self {
            pes: n,
            k: 2,
            request_queue_packets: 15,
            reply_queue_packets: usize::MAX,
            wait_entries: 64,
            policy: SwitchPolicy::QueuedCombining,
            data_packets: 3,
            ctl_packets: 1,
        };
        cfg.validate();
        cfg
    }

    /// The configuration simulated in §4.2 of the paper: 4096 PEs reached
    /// through six stages of 4×4 switches, each queue limited to fifteen
    /// packets, messages of one packet (no data) or three (with data).
    #[must_use]
    pub fn paper_section42() -> Self {
        Self::paper_section42_scaled(4096)
    }

    /// The §4.2 configuration scaled down to `n` PEs (must be a power of 4)
    /// so that workload simulations finish quickly at small scale.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of 4.
    #[must_use]
    pub fn paper_section42_scaled(n: usize) -> Self {
        let cfg = Self {
            pes: n,
            k: 4,
            request_queue_packets: 15,
            reply_queue_packets: usize::MAX,
            wait_entries: 64,
            policy: SwitchPolicy::QueuedCombining,
            data_packets: 3,
            ctl_packets: 1,
        };
        cfg.validate();
        cfg
    }

    /// Checks the invariants: `k ≥ 2` a power of two, `pes` a power of
    /// `k`, no zero-length packet, request queues that hold a data
    /// message.
    ///
    /// # Errors
    ///
    /// Names the violated invariant — as a [`WireError`], because the
    /// configurations that need a fallible check are the ones decoded
    /// from snapshot bytes.
    pub fn check(&self) -> Result<(), WireError> {
        if self.k < 2 {
            return Err(WireError::Invalid("switch arity below 2"));
        }
        if !self.k.is_power_of_two() {
            return Err(WireError::Invalid("switch arity not a power of two"));
        }
        let k_bits = self.k.trailing_zeros();
        if !self.pes.is_power_of_two() || self.pes.trailing_zeros() % k_bits != 0 {
            return Err(WireError::Invalid("pe count not a power of k"));
        }
        if self.data_packets == 0 || self.ctl_packets == 0 {
            return Err(WireError::Invalid("zero-length packet config"));
        }
        if (self.request_queue_packets as u64) < u64::from(self.data_packets) {
            return Err(WireError::Invalid("request queue below one data message"));
        }
        Ok(())
    }

    /// [`NetConfig::check`] for a configuration a fabric is built from:
    /// it must also have at least one stage (`pes ≥ k`). A single PE is
    /// a machine only on the ideal backend, which builds no fabric.
    ///
    /// # Errors
    ///
    /// Names the violated invariant, as [`NetConfig::check`] does.
    pub fn check_fabric(&self) -> Result<(), WireError> {
        self.check()?;
        if self.pes < self.k {
            return Err(WireError::Invalid("network has no stage"));
        }
        Ok(())
    }

    /// [`NetConfig::check`] for configurations written in code.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn validate(&self) {
        expect_valid(self.check());
    }

    /// [`NetConfig::check_fabric`] for configurations written in code.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn validate_fabric(&self) {
        expect_valid(self.check_fabric());
    }
}

fn expect_valid(checked: Result<(), WireError>) {
    if let Err(WireError::Invalid(what)) = checked {
        panic!("invalid network configuration: {what}");
    }
}

impl Default for NetConfig {
    /// A 64-PE, 2×2-switch combining network — convenient for examples.
    fn default() -> Self {
        Self::small(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_is_valid() {
        let cfg = NetConfig::small(16);
        assert_eq!(cfg.k, 2);
        assert_eq!(cfg.policy, SwitchPolicy::QueuedCombining);
    }

    #[test]
    fn paper_config_matches_section_4_2() {
        let cfg = NetConfig::paper_section42();
        assert_eq!(cfg.pes, 4096);
        assert_eq!(cfg.k, 4);
        assert_eq!(cfg.request_queue_packets, 15);
        assert_eq!(cfg.data_packets, 3);
        assert_eq!(cfg.ctl_packets, 1);
    }

    #[test]
    #[should_panic(expected = "not a power")]
    fn rejects_non_power_of_k() {
        let _ = NetConfig::small(12);
    }

    #[test]
    fn check_names_the_geometries_no_fabric_has() {
        let invalid = |k, pes| {
            let cfg = NetConfig {
                k,
                pes,
                ..NetConfig::small(8)
            };
            cfg.check_fabric().err()
        };
        let named = |what| Some(WireError::Invalid(what));
        assert_eq!(invalid(3, 27), named("switch arity not a power of two"));
        assert_eq!(invalid(2, 1), named("network has no stage"));
        assert_eq!(invalid(4, 1), named("network has no stage"));
        assert_eq!(invalid(4, 8), named("pe count not a power of k"));
        assert_eq!(invalid(2, 0), named("pe count not a power of k"));
        assert_eq!(invalid(4, 4), None, "one stage is a crossbar");
        assert_eq!(invalid(8, 1 << 63), None, "k^21 fits a usize");
        // The ideal backend runs one PE without a fabric.
        assert_eq!(NetConfig::small(1).check(), Ok(()));
    }

    #[test]
    fn default_is_small_64() {
        assert_eq!(NetConfig::default().pes, 64);
    }
}
