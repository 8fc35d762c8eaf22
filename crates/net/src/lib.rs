//! The combining Omega network of the NYU Ultracomputer (paper §3.1–§3.3).
//!
//! The paper's chief hardware novelty is an `N`-input, `N`-output,
//! message-switched, pipelined network with the geometry of Lawrie's
//! Omega-network whose switches *combine* memory requests directed at the
//! same cell — loads, stores and, crucially, **fetch-and-add** — so that any
//! number of simultaneous references to one memory location are satisfied in
//! the time required for just one (§3.1.2). Combined requests are decombined
//! on the return trip using per-switch *wait buffers* (§3.3).
//!
//! This crate is a cycle-level behavioural model of that network:
//!
//! * [`message`] — requests, replies, packet lengths, the fetch-and-phi
//!   operation set (§2.4 generalization).
//! * [`route`] — perfect-shuffle wiring, destination-tag routing, and the
//!   origin/destination *amalgam* address of §3.1.1.
//! * [`queue`] — the ToMM/ToPE output queues (systolic-queue semantics:
//!   FIFO order plus associative search, §3.3.1) with packet-granularity
//!   capacity and link timing, stored as 16-byte port records whose
//!   messages are chained into rings through the link column of the
//!   per-network message slab, where each message's §3.1.1 routing
//!   register also lives.
//! * [`combine`] — the pairwise combining rules (Load/Store/Fetch-and-phi,
//!   homogeneous and heterogeneous) and the reply rules used to decombine.
//! * [`switch`] — the k×k bidirectional switches (k ToMM queues, k ToPE
//!   queues and a wait buffer each), held column-wise for the whole
//!   network.
//! * [`omega`] — the assembled network with per-cycle advancement,
//!   backpressure, and egress events (the `d` copies of §4.1 are
//!   `ultra_mem::Fabric`'s).
//! * [`config`] / [`stats`] — configuration and instrumentation.
//!
//! # Example: one fetch-and-add through an 8-PE network
//!
//! ```
//! use ultra_net::config::NetConfig;
//! use ultra_net::message::{Message, MsgKind, PhiOp};
//! use ultra_net::omega::OmegaNetwork;
//! use ultra_sim::{MemAddr, MmId, PeId};
//!
//! let mut net = OmegaNetwork::new(NetConfig::small(8));
//! let msg = Message::request(
//!     net.next_msg_id(),
//!     MsgKind::FetchPhi(PhiOp::Add),
//!     MemAddr::new(MmId(5), 0),
//!     7,
//!     PeId(2),
//!     0,
//! );
//! assert!(net.try_inject_request(msg, 0).is_ok());
//! let mut arrived = None;
//! let mut events = ultra_net::omega::NetworkEvents::default();
//! for now in 0..32 {
//!     net.cycle_into(now, &mut events);
//!     if let Some(m) = events.requests_at_mm.drain(..).next() {
//!         arrived = Some(m);
//!         break;
//!     }
//! }
//! let m = arrived.expect("request must reach its MM");
//! assert_eq!(m.addr.mm, MmId(5));
//! ```

pub mod combine;
pub mod config;
pub mod message;
pub mod omega;
pub mod queue;
pub mod route;
pub mod stats;
pub mod switch;

pub use config::{NetConfig, SweepMode, SwitchPolicy};
pub use message::{Message, MsgId, MsgKind, PhiOp, Reply, ReplyKind};
pub use omega::{NetworkEvents, OmegaNetwork};
pub use route::Topology;
pub use stats::NetStats;
