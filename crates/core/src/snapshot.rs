//! Versioned, deterministic [`Machine`] snapshots.
//!
//! A snapshot holds *how a machine was made*, not its live state. Under
//! the serialization principle a run is a pure function of what it was
//! given — the config (fault plan and seed included), one program per
//! context, and the untimed [`Machine::write_shared`] writes — so
//! [`Machine::snapshot`] writes exactly those — the machine's [`Recipe`]
//! — plus the cycle reached, and [`Machine::restore`] rebuilds the
//! machine with [`Machine::from_recipe`] and replays it to that cycle.
//! The contract, enforced by the `snapshot_roundtrip` property tests, is:
//!
//! > `run(k)` → `snapshot` → `restore` → `run(m)` produces exactly the
//! > state (and [`MachineReport::parity_string`]) of `run(k + m)`,
//! > with idle fast-forward on or off.
//!
//! [`Machine::fork`] makes the same copy in memory, without the replay.
//!
//! # Format (v3)
//!
//! ```text
//! magic      8 bytes  b"ULTRASNP"
//! format     u32      SNAPSHOT_FORMAT_VERSION
//! crate      str      CARGO_PKG_VERSION of the writer
//! config     bytes    length-prefixed config-identity echo (geometry,
//!                     backend, time scale, translation, seed, budget,
//!                     barrier parties, contexts, fault plan)
//! tuning     bool     fast-forward
//! programs   seq      (count u64, program) runs of equal consecutive
//!                     programs, one program per context in all
//! writes     seq      (cycle u64, vaddr u64, value i64), in call order
//! cycle      u64      the donor's cycle
//! skipped    u64      the donor's fast-forwarded cycle count
//! digest     u64      FNV-1a of the donor's parity string
//! checksum   u64      FNV-1a of every byte before it
//! ```
//!
//! A frame's length therefore follows the programs and the write log,
//! not the traffic in flight: a machine's frame is as long mid-run as at
//! cycle 0.
//!
//! # Restore is rebuild plus replay
//!
//! Restore checks the magic and the format, then the checksum, then
//! everything else with typed errors before it builds anything: the
//! network geometry must pass [`ultra_net::config::NetConfig::check`] and
//! the fault plan [`ultra_faults::FaultPlan::check`]; the machine may
//! hold at most [`MAX_CONTEXTS`] contexts (and network ports); the
//! program runs must cover exactly its contexts; the write log must be in
//! cycle order and end by the frame's cycle; and the frame's cycle must
//! lie within the machine's cycle budget, which `run` and `run_for` never
//! pass. Then it builds the machine and replays it: `run_for` up to each
//! logged write, the write, `run_for` up to the frame's cycle — and
//! [`Machine::step`] past a completion, as a donor may have done. A
//! replay that panics (a forged program computing a negative address,
//! say) is [`SnapshotError::ReplayPanicked`]. All failures are
//! [`SnapshotError`]s — corrupt or hostile bytes never panic the caller
//! and never allocate unboundedly.
//!
//! The price is time: a restore costs what running the recipe to the
//! frame's cycle costs — cycles × PEs, not the frame's bytes: tens of
//! milliseconds for a 1024-PE ticket machine at cycle 512. Nothing
//! served, benchmarked or table-producing restores: the job server keeps
//! [`Machine::fork`] images.
//!
//! # What the checksum and the digest guard
//!
//! The checksum catches accidental corruption, not forgery. Each FNV-1a
//! step is a bijection of the running hash for a fixed byte, so a frame
//! that differs from the sealed one in a single byte never matches. A
//! forged frame can carry a valid checksum, so every typed check stays;
//! the last tests of `crates/core/tests/snapshot_roundtrip.rs` flip bits
//! and reseal to hold that.
//!
//! The digest before the checksum is FNV-1a of the donor's *parity
//! string* — cycle count, merged PE, network and fault statistics —
//! recomputed from the replayed machine and compared: it checks that the
//! replay was deterministic, that the recipe rebuilt the donor.
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
//! both settings are bit-identical by construction. The donor's count of
//! fast-forwarded cycles is carried as a number, because a replay's own
//! count depends on how it was sliced.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use ultra_sim::wire::{fnv1a, Wire, WireError, WireReader, WireWriter};
use ultra_sim::Cycle;

use crate::machine::{BackendKind, Machine, MachineConfig, Recipe};
use crate::report::MachineReport;

/// Leading magic of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ULTRASNP";

/// Current snapshot format version. Bumped on any layout change; old
/// formats are rejected with [`SnapshotError::UnsupportedVersion`]
/// rather than misread.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// The crate version stamped into (and required of) every snapshot.
/// What a recipe replays to follows the engine's code, so restore
/// demands an exact match rather than guessing at cross-version
/// compatibility.
pub const SNAPSHOT_CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The largest machine a frame may describe, in contexts (`pes ×
/// contexts_per_pe`) and in network ports (`pes × copies`): the largest
/// machine the repository runs. A restore builds what the frame names,
/// so this bound is checked before anything is built.
pub const MAX_CONTEXTS: usize = 1 << 20;

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
    /// The bytes are structurally invalid (truncated, checksum
    /// mismatch, bad tag, bad length prefix) or describe a machine no
    /// restore builds (too large, program runs that miss the contexts,
    /// a write log out of order, a cycle past the budget).
    Corrupted(WireError),
    /// Replaying the frame's recipe panicked short of the frame's cycle:
    /// no donor can have run it there.
    ReplayPanicked {
        /// The frame's cycle.
        cycle: Cycle,
        /// What the replay panicked with.
        message: String,
    },
    /// The replayed machine's parity digest does not match the digest
    /// the donor recorded — the recipe did not rebuild the donor.
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
            Self::Corrupted(e) => write!(f, "corrupted snapshot: {e}"),
            Self::ReplayPanicked { cycle, message } => {
                write!(
                    f,
                    "replaying the snapshot's recipe to cycle {cycle} panicked: {message}"
                )
            }
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

/// The sealed frame of the machine `recipe` makes, run under `cfg` (an
/// identity-equal config, whose speed knob is the tuning echo) to `cycle`
/// with `skipped` cycles fast-forwarded, digesting to `digest`.
fn frame(
    cfg: &MachineConfig,
    recipe: &Recipe,
    cycle: Cycle,
    skipped: Cycle,
    digest: u64,
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.raw(&SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_FORMAT_VERSION);
    w.str(SNAPSHOT_CRATE_VERSION);
    let mut cw = WireWriter::new();
    cfg.encode_identity(&mut cw);
    w.usize(cw.bytes().len());
    w.raw(cw.bytes());
    w.bool(cfg.fast_forward);
    recipe.programs.encode(&mut w);
    recipe.writes.encode(&mut w);
    w.u64(cycle);
    w.u64(skipped);
    w.u64(digest);
    w.u64(fnv1a(w.bytes()));
    w.into_bytes()
}

/// The number of contexts `cfg` builds, if a frame may describe it: at
/// most [`MAX_CONTEXTS`] contexts and network ports. (A size the
/// builders reject, such as zero copies, panics in the replay.)
fn buildable_contexts(cfg: &MachineConfig) -> Result<usize, WireError> {
    let within = |n: Option<usize>| n.filter(|&n| n <= MAX_CONTEXTS);
    let contexts = within(cfg.net.pes.checked_mul(cfg.contexts_per_pe))
        .ok_or(WireError::Invalid("machine exceeds 2^20 contexts"))?;
    if let BackendKind::Network { copies } = cfg.backend {
        within(cfg.net.pes.checked_mul(copies))
            .ok_or(WireError::Invalid("network exceeds 2^20 ports"))?;
    }
    Ok(contexts)
}

/// Checks that replaying `recipe` to `cycle` can reproduce a donor:
/// program runs covering exactly `contexts`, a write log in cycle order
/// that ends by `cycle`, a cycle within the budget whose reports do not
/// overflow, and no more skipped cycles than cycles.
fn check_replay(
    recipe: &Recipe,
    contexts: usize,
    cycle: Cycle,
    skipped: Cycle,
) -> Result<(), WireError> {
    let covered =
        (recipe.programs.iter()).fold(0usize, |sum, &(count, _)| sum.saturating_add(count));
    if covered != contexts {
        return Err(WireError::Invalid("program runs do not cover the contexts"));
    }
    if recipe.writes.windows(2).any(|w| w[0].0 > w[1].0) {
        return Err(WireError::Invalid("write log out of cycle order"));
    }
    if recipe.writes.last().is_some_and(|&(at, ..)| at > cycle) {
        return Err(WireError::Invalid("write log past the frame's cycle"));
    }
    if cycle > recipe.cfg.max_cycles {
        return Err(WireError::Invalid("frame cycle past the cycle budget"));
    }
    // Reports multiply the clock by a context count.
    if cycle.checked_mul(contexts as u64).is_none() {
        return Err(WireError::Invalid("cycle count out of range"));
    }
    if skipped > cycle {
        return Err(WireError::Invalid("more cycles skipped than run"));
    }
    Ok(())
}

impl Machine {
    /// Serializes the machine's recipe and cycle into a self-contained,
    /// version-stamped snapshot. Deterministic: equal machines yield
    /// equal bytes.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.debug_check_invariants();
        frame(
            self.cfg(),
            self.recipe(),
            self.now(),
            self.fast_forwarded_cycles(),
            parity_digest(self),
        )
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
        match cfg.backend {
            BackendKind::Network { .. } => cfg.net.check_fabric()?,
            BackendKind::Ideal { .. } => cfg.net.check()?,
        }
        cfg.faults.check(cfg.net.pes)?;
        let contexts = buildable_contexts(&cfg)?;
        cfg.fast_forward = r.bool()?;
        tuning.apply(&mut cfg);
        let mut recipe = Recipe::new(cfg, Vec::decode(&mut r)?);
        Vec::decode(&mut r)?.into_iter().for_each(|w| recipe.log(w));
        let cycle = r.u64()?;
        let skipped = r.u64()?;
        let expected = r.u64()?;
        if !r.is_empty() {
            return Err(WireError::Invalid("snapshot has trailing bytes").into());
        }
        check_replay(&recipe, contexts, cycle, skipped)?;
        let replay = || Machine::replay(recipe, cycle, skipped);
        let machine = panic::catch_unwind(AssertUnwindSafe(replay)).map_err(|payload| {
            let message = (payload.downcast_ref::<String>().map(String::as_str))
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a non-text panic")
                .to_owned();
            SnapshotError::ReplayPanicked { cycle, message }
        })?;
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
    use ultra_sim::MmId;

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
        // must match an uninterrupted run exactly — the replay parks
        // every PE on the same target the donor did.
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
        // checked before the checksum, so a v1 or v2 frame is named as one.
        for found in [1u32, 2, 0xEE] {
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
        // Splice the config echo of a 16-PE machine onto an 8-PE recipe:
        // its eight programs cannot cover sixteen contexts.
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
            Some(SnapshotError::Corrupted(WireError::Invalid(
                "program runs do not cover the contexts"
            )))
        );
    }

    #[test]
    fn a_frame_naming_two_to_the_thirty_pes_fails_before_building() {
        let donor = mid_run_machine();
        let mut cfg = donor.cfg().clone();
        cfg.net.pes = 1 << 30;
        cfg.net
            .check()
            .expect("a consistent geometry, only too large");
        let forged = frame(&cfg, donor.recipe(), donor.now(), 0, 0);
        let started = std::time::Instant::now();
        assert_eq!(
            Machine::restore(&forged).err(),
            Some(SnapshotError::Corrupted(WireError::Invalid(
                "machine exceeds 2^20 contexts"
            )))
        );
        assert!(started.elapsed().as_millis() < 100, "nothing was built");
    }

    /// Restores a frame whose network has `pes` PEs and `k×k` switches,
    /// with a recipe that covers its contexts.
    fn restore_forged_geometry(k: usize, pes: usize) -> Option<SnapshotError> {
        let donor = mid_run_machine();
        let mut cfg = donor.cfg().clone();
        (cfg.net.k, cfg.net.pes) = (k, pes);
        let mut recipe = Recipe::clone(donor.recipe());
        recipe.programs = vec![(pes, ticket_program(2))];
        recipe.writes.clear();
        Machine::restore(&frame(&cfg, &recipe, 0, 0, 0)).err()
    }

    #[test]
    fn a_frame_with_three_port_switches_is_a_typed_error() {
        assert_eq!(
            restore_forged_geometry(3, 9),
            Some(SnapshotError::Corrupted(WireError::Invalid(
                "switch arity not a power of two"
            )))
        );
    }

    #[test]
    fn a_frame_with_one_pe_is_a_typed_error() {
        assert_eq!(
            restore_forged_geometry(2, 1),
            Some(SnapshotError::Corrupted(WireError::Invalid(
                "network has no stage"
            )))
        );
    }

    #[test]
    fn forged_recipes_are_typed_errors() {
        let donor = mid_run_machine();
        let (cfg, now) = (donor.cfg().clone(), donor.now());
        let restore = |cfg: &MachineConfig, recipe: &Recipe, cycle, skipped| {
            Machine::restore(&frame(cfg, recipe, cycle, skipped, 0)).err()
        };
        let invalid = |what| Some(SnapshotError::Corrupted(WireError::Invalid(what)));
        let mut recipe = Recipe::clone(donor.recipe());
        recipe.programs[0].0 -= 1;
        let short = invalid("program runs do not cover the contexts");
        assert_eq!(restore(&cfg, &recipe, now, 0), short);
        recipe.programs.push((usize::MAX, Program::empty()));
        assert_eq!(restore(&cfg, &recipe, now, 0), short);

        let mut recipe = Recipe::clone(donor.recipe());
        recipe.writes = vec![(9, 0, 1), (3, 1, 1)];
        let unordered = invalid("write log out of cycle order");
        assert_eq!(restore(&cfg, &recipe, now, 0), unordered);
        recipe.writes = vec![(now + 1, 0, 1)];
        let late = invalid("write log past the frame's cycle");
        assert_eq!(restore(&cfg, &recipe, now, 0), late);

        let recipe = donor.recipe();
        let budget = cfg.max_cycles;
        let unreachable = invalid("frame cycle past the cycle budget");
        assert_eq!(restore(&cfg, recipe, budget + 1, 0), unreachable);
        let skipped = invalid("more cycles skipped than run");
        assert_eq!(restore(&cfg, recipe, now, now + 1), skipped);

        // A program that panics before the frame's cycle: the replay
        // panics where a donor could not have run on.
        let mut recipe = Recipe::clone(recipe);
        recipe.programs = vec![(
            8,
            Program::new(
                body(vec![Op::Load {
                    addr: Expr::Const(-5),
                    dst: 0,
                }]),
                vec![],
            ),
        )];
        assert!(matches!(
            restore(&cfg, &recipe, 10, 0),
            Some(SnapshotError::ReplayPanicked { cycle: 10, ref message })
                if message.contains("negative address")
        ));
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
        let mut cfg = donor.cfg().clone();
        cfg.faults = plan(&[0, 1]);
        assert_eq!(
            Machine::restore(&frame(&cfg, donor.recipe(), 0, 0, 0)).err(),
            Some(SnapshotError::Corrupted(WireError::Invalid(
                "fault plan kills every memory module"
            )))
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
