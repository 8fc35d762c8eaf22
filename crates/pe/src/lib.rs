//! Processing-element-side components of the Ultracomputer (paper §3.4,
//! §3.5).
//!
//! * [`pni`] — the processor-network interface (§3.4): virtual→physical
//!   translation (with the §3.1.4 hashing), request id management, and the
//!   pipelining policy — at most one outstanding reference per memory
//!   location ("the PNI is to prohibit a PE from having more than one
//!   outstanding reference to the same memory location", §3.3).
//! * [`traffic`] — open-loop request generators (uniform and hot-spot)
//!   driving the §4 network-performance experiments.
//! * [`stats`] — per-PE instruction/idle accounting matching Table 1's
//!   columns.
//!
//! The §3.2 write-back PE cache is not modelled: private references are
//! counted, not simulated (DESIGN.md §6).

pub mod pni;
pub mod stats;
pub mod traffic;

pub use pni::{Outstanding, Pni, PniCore, PniError};
pub use stats::PeStats;
pub use traffic::{HotspotTraffic, RequestSpec, TrafficPattern, UniformTraffic};
