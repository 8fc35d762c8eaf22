//! Versioned, deterministic [`Machine`] snapshots.
//!
//! [`Machine::snapshot`] serializes the *complete* simulation state —
//! interpreter frames, PNI retry timers, in-flight network messages,
//! memory words, fault clocks, rng streams — into a self-contained,
//! version-stamped byte vector; [`Machine::restore`] reassembles a
//! machine that is bit-identical to the donor. The contract, enforced by
//! the `snapshot_roundtrip` property tests, is:
//!
//! > `run(k)` → `snapshot` → `restore` → `run(m)` produces exactly the
//! > state (and [`MachineReport::parity_string`]) of `run(k + m)`,
//! > with idle fast-forward on or off.
//!
//! [`Machine::fork`] makes the same copy in memory — the machine a
//! restore of this machine's snapshot would return, without the bytes in
//! between — and is tested against this codec as its reference.
//!
//! # Format (v2)
//!
//! ```text
//! magic      8 bytes  b"ULTRASNP"
//! format     u32      SNAPSHOT_FORMAT_VERSION
//! crate      str      CARGO_PKG_VERSION of the writer
//! config     bytes    length-prefixed config-identity echo (geometry,
//!                     backend, time scale, translation, seed, budget,
//!                     barrier parties, contexts, fault plan)
//! tuning     bool     fast-forward
//! state      ...      full machine state (see machine/wire.rs)
//! digest     u64      FNV-1a of the donor's parity string
//! checksum   u64      FNV-1a of every byte before it
//! ```
//!
//! Restore checks the magic and the format, then the checksum, then
//! everything else with typed errors before any state is decoded,
//! including the sizes the state is built by: the network geometry must
//! pass [`ultra_net::config::NetConfig::check`] and the PE count cannot
//! exceed the bytes that follow. All failures are [`SnapshotError`]s —
//! corrupt or hostile bytes never panic and never allocate unboundedly.
//!
//! The checksum catches accidental corruption, not forgery. Each FNV-1a
//! step is a bijection of the running hash for a fixed byte, so a frame
//! that differs from the sealed one in a single byte never matches: all
//! 89,056 single-bit flips of an 8-PE mid-run frame are errors
//! (v1 frames had no checksum, and 41,376 of their 89,272 flips restored
//! `Ok` as a different machine). A forged frame can carry a valid
//! checksum, so every typed decode check stays; the last tests of
//! `crates/core/tests/snapshot_roundtrip.rs` flip bits and reseal to hold
//! that.
//!
//! The digest before the checksum is FNV-1a of the donor's *parity
//! string* — cycle count, merged PE, network and fault statistics —
//! recomputed from the restored machine and compared: it catches a
//! decoder that rebuilds a machine reporting differently from the donor.
//!
//! # What is *not* in a snapshot
//!
//! Observational state — the event trace, cycle-windowed telemetry and
//! wall-clock phase spans — is excluded: a restored machine starts with
//! those disabled, exactly like a freshly built one. They never feed
//! back into the simulation, so their absence cannot perturb parity.
//!
//! The engine speed knob rides along as a *tuning echo* (so a plain
//! restore reproduces the donor's engine) but is excluded from the
//! config identity: [`Machine::restore_tuned`] may override it, since
//! both settings are bit-identical by construction.

use std::fmt;

use ultra_mem::StateDecodeError;
use ultra_sim::wire::{fnv1a, WireError, WireReader, WireWriter};

use crate::machine::{Machine, MachineConfig};
use crate::report::MachineReport;

/// Leading magic of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ULTRASNP";

/// Current snapshot format version. Bumped on any layout change; old
/// formats are rejected with [`SnapshotError::UnsupportedVersion`]
/// rather than misread.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// The crate version stamped into (and required of) every snapshot.
/// State layout follows crate internals, so restore demands an exact
/// match rather than guessing at cross-version compatibility.
pub const SNAPSHOT_CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The snapshot was written by an unknown format revision.
    UnsupportedVersion {
        /// The format version found in the header.
        found: u32,
    },
    /// The snapshot was written by a different crate version.
    CrateVersionMismatch {
        /// Version that wrote the snapshot.
        snapshot: String,
        /// Version attempting the restore.
        running: &'static str,
    },
    /// The state payload disagrees with the config echo it was framed
    /// with (wrong shard count, backend kind, network geometry, …).
    ConfigMismatch {
        /// Which invariant failed.
        what: &'static str,
    },
    /// The bytes are structurally invalid (truncated, checksum
    /// mismatch, bad tag, bad length prefix).
    Corrupted(WireError),
    /// The restored machine's parity digest does not match the digest
    /// the donor recorded — the state decoded but is not the donor's.
    DigestMismatch {
        /// Digest recorded in the snapshot.
        expected: u64,
        /// Digest recomputed from the restored state.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a machine snapshot (bad magic)"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format {found} (this build reads \
                     {SNAPSHOT_FORMAT_VERSION})"
                )
            }
            Self::CrateVersionMismatch { snapshot, running } => {
                write!(
                    f,
                    "snapshot written by crate version {snapshot}, running {running}"
                )
            }
            Self::ConfigMismatch { what } => {
                write!(f, "snapshot state disagrees with its config echo: {what}")
            }
            Self::Corrupted(e) => write!(f, "corrupted snapshot: {e}"),
            Self::DigestMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot parity digest mismatch: recorded {expected:#018x}, \
                     restored state digests to {found:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Corrupted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        Self::Corrupted(e)
    }
}

impl From<StateDecodeError> for SnapshotError {
    fn from(e: StateDecodeError) -> Self {
        match e {
            StateDecodeError::Wire(w) => Self::Corrupted(w),
            StateDecodeError::ConfigMismatch(what) => Self::ConfigMismatch { what },
        }
    }
}

/// Engine speed-knob overrides for [`Machine::restore_tuned`] and
/// [`Machine::fork`]. A pure speed choice — both settings are
/// bit-identical — so a snapshot taken under one may resume under the
/// other. `None` keeps the donor machine's setting from the tuning echo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTuning {
    /// No-op, kept only so existing callers compile: the cycle engine is
    /// sequential.
    pub threads: Option<usize>,
    /// Idle-cycle fast-forward on or off.
    pub fast_forward: Option<bool>,
}

impl EngineTuning {
    /// Overwrites `cfg`'s speed knob when it is `Some`.
    pub(crate) fn apply(self, cfg: &mut MachineConfig) {
        if let Some(fast_forward) = self.fast_forward {
            cfg.fast_forward = fast_forward;
        }
    }
}

/// The parity digest a snapshot carries: FNV-1a over the canonical
/// parity string of the machine's observable state.
fn parity_digest(m: &Machine) -> u64 {
    fnv1a(MachineReport::from_machine(m).parity_string().as_bytes())
}

impl Machine {
    /// Serializes the machine into a self-contained, version-stamped
    /// snapshot. Deterministic: equal machine states yield equal bytes.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_FORMAT_VERSION);
        w.str(SNAPSHOT_CRATE_VERSION);
        let mut cw = WireWriter::new();
        self.cfg().encode_identity(&mut cw);
        let cfg_bytes = cw.into_bytes();
        w.usize(cfg_bytes.len());
        w.raw(&cfg_bytes);
        w.bool(self.cfg().fast_forward);
        self.encode_state(&mut w);
        w.u64(parity_digest(self));
        w.u64(fnv1a(w.bytes()));
        w.into_bytes()
    }

    /// Restores a machine from [`Machine::snapshot`] bytes, reproducing
    /// the donor's engine configuration.
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`SnapshotError`]; corrupt, truncated or
    /// cross-version input never panics.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::restore_tuned(bytes, EngineTuning::default())
    }

    /// Restores a machine, overriding the donor's engine speed knob
    /// with `tuning`'s when it is `Some`. A checkpoint taken with
    /// fast-forward on can thus resume with it off (or vice versa) with
    /// bit-identical results.
    ///
    /// # Errors
    ///
    /// Same contract as [`Machine::restore`].
    pub fn restore_tuned(bytes: &[u8], tuning: EngineTuning) -> Result<Self, SnapshotError> {
        let mut r = WireReader::new(bytes);
        let magic = r
            .take(SNAPSHOT_MAGIC.len())
            .map_err(|_| SnapshotError::BadMagic)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let found = r.u32()?;
        if found != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found });
        }
        // The trailing checksum seals every byte before it, header too.
        let sealed = r.take(r.remaining().saturating_sub(8))?;
        if r.u64()? != fnv1a(&bytes[..bytes.len() - 8]) {
            return Err(WireError::Invalid("frame checksum mismatch").into());
        }
        let mut r = WireReader::new(sealed);
        let snapshot_version = r.str()?;
        if snapshot_version != SNAPSHOT_CRATE_VERSION {
            return Err(SnapshotError::CrateVersionMismatch {
                snapshot: snapshot_version,
                running: SNAPSHOT_CRATE_VERSION,
            });
        }
        let cfg_len = r.seq_len()?;
        let cfg_bytes = r.take(cfg_len)?;
        let mut cr = WireReader::new(cfg_bytes);
        let mut cfg = MachineConfig::decode_identity(&mut cr)?;
        if !cr.is_empty() {
            return Err(WireError::Invalid("config echo has trailing bytes").into());
        }
        // The echo sizes what `decode_state` builds before it reaches
        // the state that could contradict it; a real state spends well
        // over a byte per PE.
        cfg.net.check()?;
        cfg.faults.check(cfg.net.pes)?;
        if cfg.net.pes > r.remaining() {
            return Err(WireError::Invalid("config echo names more PEs than state bytes").into());
        }
        cfg.fast_forward = r.bool()?;
        tuning.apply(&mut cfg);
        let machine = Machine::decode_state(cfg, &mut r)?;
        let expected = r.u64()?;
        if !r.is_empty() {
            return Err(WireError::Invalid("snapshot has trailing bytes").into());
        }
        let found = parity_digest(&machine);
        if found != expected {
            return Err(SnapshotError::DigestMismatch { expected, found });
        }
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use crate::program::{body, Expr, Op, Program};
    use ultra_faults::FaultPlan;
    use ultra_sim::{wire::Wire, MmId};

    fn ticket_program(rounds: i64) -> Program {
        Program::new(
            body(vec![
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
                            addr: Expr::add(Expr::mul(Expr::PeIndex, 64), Expr::Reg(1)),
                            value: Expr::Reg(0),
                        },
                    ]),
                },
                Op::Barrier,
                Op::Halt,
            ]),
            vec![],
        )
    }

    fn digest(m: &Machine) -> String {
        MachineReport::from_machine(m).parity_string()
    }

    /// Rewrites a forged frame's checksum trailer, so restore gets past
    /// it to the check the forgery is aimed at.
    fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
        let at = frame.len() - 8;
        let sum = fnv1a(&frame[..at]);
        frame[at..].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    /// A mid-run machine with traffic in flight.
    fn mid_run_machine() -> Machine {
        let mut m = MachineBuilder::new(8).build_spmd(&ticket_program(6));
        for _ in 0..40 {
            m.step();
        }
        m
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut m = mid_run_machine();
        let bytes = m.snapshot();
        let mut copy = Machine::restore(&bytes).unwrap();
        assert_eq!(digest(&m), digest(&copy));
        // Same bytes again: snapshotting is deterministic and read-only.
        assert_eq!(copy.snapshot(), bytes);
        // Both continue to the same completed state.
        let a = m.run();
        let b = copy.run();
        assert_eq!(a, b);
        assert_eq!(digest(&m), digest(&copy));
        assert_eq!(m.read_shared(0), copy.read_shared(0));
    }

    #[test]
    fn run_snapshot_resume_matches_uninterrupted_run() {
        let program = ticket_program(6);
        let mut oneshot = MachineBuilder::new(8).build_spmd(&program);
        assert!(oneshot.run().completed);

        let mut first = MachineBuilder::new(8).build_spmd(&program);
        let out = first.run_for(37);
        assert!(!out.completed, "37 cycles must not finish this workload");
        let mut resumed = Machine::restore(&first.snapshot()).unwrap();
        assert!(resumed.run().completed);
        assert_eq!(digest(&resumed), digest(&oneshot));
    }

    #[test]
    fn snapshot_cut_through_a_timed_wait_resumes_exactly() {
        // Park every PE on a long [`Op::WaitUntil`], cut the snapshot
        // while they sleep, and resume: the wake cycles stored afterward
        // must match an uninterrupted run exactly — the parked target is
        // simulation state ([`CtxState::WaitUntil`] on the wire), not
        // something re-derived at restore time.
        let program = Program::new(
            body(vec![
                Op::WaitUntil {
                    cycle: Expr::add(Expr::mul(Expr::PeIndex, 50), 300),
                },
                Op::Store {
                    addr: Expr::add(Expr::Const(500), Expr::PeIndex),
                    value: Expr::Clock,
                },
                Op::Halt,
            ]),
            vec![],
        );
        let mut oneshot = MachineBuilder::new(4).build_spmd(&program);
        assert!(oneshot.run().completed);

        let mut first = MachineBuilder::new(4).build_spmd(&program);
        let out = first.run_for(120);
        assert!(!out.completed, "every PE should still be asleep");
        let mut resumed = Machine::restore(&first.snapshot()).unwrap();
        assert!(resumed.run().completed);
        assert_eq!(digest(&resumed), digest(&oneshot));
        for pe in 0..4 {
            assert_eq!(
                resumed.read_shared(500 + pe),
                oneshot.read_shared(500 + pe),
                "PE {pe} woke at a different cycle after the resume"
            );
        }
    }

    #[test]
    fn run_on_a_completed_machine_is_a_fixed_point() {
        let mut m = MachineBuilder::new(8).build_spmd(&ticket_program(2));
        let first = m.run();
        assert!(first.completed);
        let before = digest(&m);
        let again = m.run();
        assert_eq!(again, first, "re-running a quiescent machine is a no-op");
        assert_eq!(digest(&m), before);
    }

    #[test]
    fn restore_tuned_overrides_are_bit_identical() {
        let m = mid_run_machine();
        let bytes = m.snapshot();
        let plain = {
            let mut r = Machine::restore(&bytes).unwrap();
            r.run();
            digest(&r)
        };
        let tuning = EngineTuning {
            fast_forward: Some(false),
            ..EngineTuning::default()
        };
        let mut r = Machine::restore_tuned(&bytes, tuning).unwrap();
        r.run();
        assert_eq!(digest(&r), plain, "{tuning:?} must be bit-identical");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = mid_run_machine().snapshot();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Machine::restore(&bytes).err(),
            Some(SnapshotError::BadMagic)
        );
        assert_eq!(
            Machine::restore(b"short").err(),
            Some(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn unsupported_format_version_is_rejected() {
        let mut bytes = mid_run_machine().snapshot();
        // The u32 format version sits right after the 8-byte magic; it is
        // checked before the checksum, so a v1 frame is named as one.
        for found in [1u32, 0xEE] {
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                Machine::restore(&bytes).err(),
                Some(SnapshotError::UnsupportedVersion { found })
            );
        }
    }

    #[test]
    fn crate_version_mismatch_is_rejected() {
        let bytes = mid_run_machine().snapshot();
        // Re-frame the snapshot with a foreign writer version.
        let tail = 8 + 4 + 8 + SNAPSHOT_CRATE_VERSION.len();
        let mut forged = WireWriter::new();
        forged.raw(&SNAPSHOT_MAGIC);
        forged.u32(SNAPSHOT_FORMAT_VERSION);
        forged.str("0.0.0-elsewhere");
        forged.raw(&bytes[tail..]);
        assert_eq!(
            Machine::restore(&reseal(forged.into_bytes())).err(),
            Some(SnapshotError::CrateVersionMismatch {
                snapshot: "0.0.0-elsewhere".into(),
                running: SNAPSHOT_CRATE_VERSION,
            })
        );
    }

    #[test]
    fn config_mismatch_is_rejected() {
        // Splice the config echo of a 16-PE machine onto an 8-PE state.
        let small = mid_run_machine().snapshot();
        let big = MachineBuilder::new(16)
            .build_spmd(&ticket_program(2))
            .snapshot();
        let cfg_at = 8 + 4 + 8 + SNAPSHOT_CRATE_VERSION.len();
        let cfg_end = |b: &[u8]| {
            let len = u64::from_le_bytes(b[cfg_at..cfg_at + 8].try_into().unwrap()) as usize;
            cfg_at + 8 + len
        };
        let mut forged = small[..cfg_at].to_vec();
        forged.extend_from_slice(&big[cfg_at..cfg_end(&big)]);
        forged.extend_from_slice(&small[cfg_end(&small)..]);
        assert_eq!(
            Machine::restore(&reseal(forged)).err(),
            Some(SnapshotError::ConfigMismatch {
                what: "PE shard count"
            })
        );
    }

    #[test]
    fn digest_mismatch_is_rejected() {
        let mut bytes = mid_run_machine().snapshot();
        // The parity digest is the u64 before the checksum.
        let digest_at = bytes.len() - 16;
        bytes[digest_at] ^= 0xFF;
        assert!(matches!(
            Machine::restore(&reseal(bytes)),
            Err(SnapshotError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn corruption_is_an_error_never_a_panic() {
        let bytes = mid_run_machine().snapshot();
        // Every truncation fails cleanly.
        for cut in 0..bytes.len() {
            assert!(Machine::restore(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Dropping bytes from the middle fails cleanly (typed, any class).
        let mut gouged = bytes.clone();
        gouged.drain(bytes.len() / 2..bytes.len() / 2 + 9);
        assert!(Machine::restore(&gouged).is_err());
        // Truncating just the trailer is Corrupted, not a misread.
        assert!(matches!(
            Machine::restore(&bytes[..bytes.len() - 4]),
            Err(SnapshotError::Corrupted(_))
        ));
    }

    #[test]
    fn frame_with_every_module_dead_is_a_typed_error() {
        let plan = |dead: &[usize]| {
            dead.iter()
                .fold(FaultPlan::none(), |p, &mm| p.dead_mm(MmId(mm)))
        };
        let donor = MachineBuilder::new(2)
            .faults(plan(&[0]))
            .build_spmd(&ticket_program(2));
        let bytes = donor.snapshot();
        let mut r = WireReader::new(&bytes);
        r.take(SNAPSHOT_MAGIC.len()).unwrap();
        r.u32().unwrap();
        r.str().unwrap();
        let cfg_at = bytes.len() - r.remaining();
        let cfg_len = r.seq_len().unwrap();
        r.take(cfg_len + 1).unwrap();
        // The state opens with the cumulative dead list, here `[0]`:
        // splice in `[0, 1]`, every module of the 2-PE machine.
        let state_at = bytes.len() - r.remaining();
        let mut forged = WireWriter::new();
        forged.raw(&bytes[..state_at]);
        vec![MmId(0), MmId(1)].encode(&mut forged);
        forged.raw(&bytes[state_at + 16..]);
        let invalid = |what| Some(SnapshotError::Corrupted(WireError::Invalid(what)));
        assert_eq!(
            Machine::restore(&reseal(forged.into_bytes())).err(),
            invalid("every memory module is dead")
        );
        // The same through the config echo's fault plan.
        let mut cfg = donor.cfg().clone();
        cfg.faults = plan(&[0, 1]);
        let mut echo = WireWriter::new();
        cfg.encode_identity(&mut echo);
        let mut forged = WireWriter::new();
        forged.raw(&bytes[..cfg_at]);
        forged.usize(echo.bytes().len());
        forged.raw(echo.bytes());
        forged.raw(&bytes[cfg_at + 8 + cfg_len..]);
        assert_eq!(
            Machine::restore(&reseal(forged.into_bytes())).err(),
            invalid("fault plan kills every memory module")
        );
    }

    #[test]
    fn ideal_backend_snapshots_round_trip_too() {
        let mut m = MachineBuilder::new(8)
            .ideal(2)
            .build_spmd(&ticket_program(4));
        for _ in 0..10 {
            m.step();
        }
        let mut copy = Machine::restore(&m.snapshot()).unwrap();
        let a = m.run();
        let b = copy.run();
        assert_eq!(a, b);
        assert_eq!(digest(&m), digest(&copy));
        assert_eq!(m.read_shared(0), copy.read_shared(0));
    }
}
