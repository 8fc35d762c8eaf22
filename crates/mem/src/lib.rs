//! Memory modules (MMs) and memory-network interfaces (MNIs) for the
//! Ultracomputer (paper §3.1.3, §3.1.4, §3.5).
//!
//! "The MMs are standard components consisting of off the shelf memory
//! chips" (§3.5); the interesting part is the **MNI**: "By including adders
//! in the MNI's, the fetch-and-add operation can be easily implemented:
//! When F&A(X,e) is transmitted through the network and reaches the MNI
//! associated with the MM containing X, the value of X and the transmitted
//! e are brought to the MNI adder, the sum is stored in X, and the old
//! value of X is returned through the network to the requesting PE"
//! (§3.1.3). [`MemBank`] models an MM with its MNI: a FIFO of arrived
//! requests, a fixed service time, the fetch-and-phi ALU, and an outbox of
//! replies awaiting injection into the reverse network.
//!
//! [`Fabric`] puts the banks behind the `d` network copies (§4.1); the
//! machine's network backend and the open-loop harness both drive it.
//!
//! [`hash::AddressHasher`] implements §3.1.4: "introducing a hashing
//! function when translating the virtual address to a physical address
//! assures that this unfavorable situation [all PEs hitting one MM] occurs
//! with probability approaching zero as N increases."
//!
//! # Example
//!
//! ```
//! use ultra_mem::MemBank;
//! use ultra_net::message::{Message, MsgId, MsgKind};
//! use ultra_sim::{MemAddr, MmId, PeId};
//!
//! let mut bank = MemBank::new(MmId(0), 2);
//! bank.poke(5, 100);
//! let req = Message::request(
//!     MsgId(1),
//!     MsgKind::fetch_add(),
//!     MemAddr::new(MmId(0), 5),
//!     7,
//!     PeId(3),
//!     0,
//! );
//! bank.push_request(req);
//! bank.cycle(0);
//! bank.cycle(1);
//! bank.cycle(2);
//! let reply = bank.pop_reply().expect("served after 2 cycles");
//! assert_eq!(reply.value, 100, "fetch-and-add returns the old value");
//! assert_eq!(bank.peek(5), 107);
//! ```

pub mod bank;
pub mod fabric;
pub mod hash;

pub use bank::{MemBank, MemStats};
pub use fabric::{Fabric, Offer};
pub use hash::{AddressHasher, TranslationMode};
