//! # ultracomputer — the NYU Ultracomputer in Rust
//!
//! A production-quality reproduction of Gottlieb, Grishman, Kruskal,
//! McAuliffe, Rudolph & Snir, *"The NYU Ultracomputer — Designing a MIMD,
//! Shared-Memory Parallel Machine"*: a machine in which thousands of
//! autonomous PEs share memory through a message-switched, pipelined
//! Omega network whose switches **combine** simultaneous requests — above
//! all the **fetch-and-add** coordination primitive — so that concurrent
//! references to one memory cell cost no more than one.
//!
//! This crate assembles the substrates into two user-facing machines:
//!
//! * [`paracomputer::Paracomputer`] — the §2 ideal: single-cycle shared
//!   memory under the serialization principle, with fetch-and-phi.
//! * [`machine::Machine`] — the §3 hardware proposal: PEs with register
//!   locking, PNIs enforcing the pipeline policy, `d` copies of the
//!   combining network, and memory banks with MNI adders. Built via
//!   [`machine::MachineBuilder`]; programs are written in the small DSL of
//!   [`program`] and interpreted per-PE by [`interp::PeInterp`].
//!
//! # Quick start
//!
//! ```
//! use ultracomputer::machine::MachineBuilder;
//! use ultracomputer::program::{body, Expr, Op, Program};
//!
//! // 16 PEs each fetch-and-add 1 to a shared counter, then store their
//! // ticket into a distinct slot — the paper's §2.2 index-assignment idiom.
//! let program = Program::new(
//!     body(vec![
//!         Op::FetchAdd {
//!             addr: Expr::Const(0),
//!             delta: Expr::Const(1),
//!             dst: Some(0),
//!         },
//!         Op::Store {
//!             addr: Expr::add(Expr::Const(100), Expr::Reg(0)),
//!             value: Expr::PeIndex,
//!         },
//!         Op::Halt,
//!     ]),
//!     vec![],
//! );
//! let mut machine = MachineBuilder::new(16).build_spmd(&program);
//! let outcome = machine.run();
//! assert!(outcome.completed);
//! assert_eq!(machine.read_shared(0), 16);
//! ```
//!
//! The substrate crates are re-exported for convenience: `ultra_net` (the
//! combining network), `ultra_mem` (memory modules), `ultra_pe` (PNIs,
//! traffic), `ultra_sim` (clock/RNG/stats).

pub mod export;
pub mod interp;
pub mod machine;
pub mod paracomputer;
pub mod program;
pub mod report;
pub mod snapshot;
pub mod trace;

pub use export::chrome_trace;
pub use machine::{BackendKind, FaultSummary, Machine, MachineBuilder, MachineConfig, RunOutcome};
pub use paracomputer::{MemOp, Paracomputer};
pub use program::{Expr, Op, Program};
pub use report::MachineReport;
pub use snapshot::{EngineTuning, SnapshotError};

/// Compile-checks the README's Rust examples as doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
mod readme_doctests {}

pub use ultra_faults;
pub use ultra_mem;
pub use ultra_net;
pub use ultra_obs;
pub use ultra_pe;
pub use ultra_sim;
