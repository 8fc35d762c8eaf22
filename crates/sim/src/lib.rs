//! Simulation substrate for the NYU Ultracomputer reproduction.
//!
//! This crate holds everything the higher-level machine models share but that
//! is not specific to any one hardware component:
//!
//! * [`rng`] — a small, fully deterministic pseudo-random number generator
//!   ([`rng::SplitMix64`]) so that every experiment in the repository is
//!   reproducible from a single seed, independent of external crate
//!   versions.
//! * [`clock`] — the simulation's time base: the [`Cycle`] unit and the
//!   paper's conversions to PE-instruction and MM-access times
//!   ([`clock::TimeScale`]).
//! * [`stats`] — counters and the workspace's one histogram
//!   ([`stats::Histogram`]: exact below 256, power-of-two bins above),
//!   used to report every latency and occupancy distribution.
//! * [`ids`] — strongly typed identifiers for processing elements and memory
//!   modules, memory addresses, and base-`k` digit manipulation helpers used
//!   by the Omega-network routing logic.
//! * [`idmap`] — [`IdMap`], the `HashMap` alias on a fixed hasher that the
//!   per-message maps (request ids, memory words) use.
//! * [`active`] — [`ActiveSet`], the one set type: a two-level bitset
//!   (bits + summary + count) whose ascending member walk is what every
//!   per-cycle loop in the network and the cycle engine iterates.
//! * [`ring`] — [`ring::Rings`], many small FIFOs chained through one
//!   slab, so the per-PE and per-bank queues of a machine are one buffer.
//! * [`heap`] — capacity arithmetic for `Vec`, `VecDeque` and `HashMap`,
//!   from which a machine estimates its own heap footprint.
//! * [`wire`] — the hand-rolled binary format machine snapshots are
//!   written in ([`wire::Wire`], [`wire::WireWriter`],
//!   [`wire::WireReader`]).
//!
//! # Example
//!
//! ```
//! use ultra_sim::rng::{Rng, SplitMix64};
//! use ultra_sim::stats::Histogram;
//!
//! let mut rng = SplitMix64::new(42);
//! let mut hist = Histogram::new();
//! for _ in 0..1000 {
//!     hist.record(rng.range_u64(1..100));
//! }
//! assert_eq!(hist.count(), 1000);
//! assert!(hist.mean() > 0.0);
//! ```

pub mod active;
pub mod clock;
pub mod heap;
pub mod idmap;
pub mod ids;
pub mod ring;
pub mod rng;
pub mod stats;
pub mod wire;

pub use active::ActiveSet;
pub use clock::Cycle;
pub use idmap::IdMap;
pub use ids::{digits, MemAddr, MmId, PeId, Value};
pub use rng::{Rng, SplitMix64};
pub use stats::{Counter, Histogram, HistogramColumn, Tally};
pub use wire::{Wire, WireError, WireReader, WireWriter};
