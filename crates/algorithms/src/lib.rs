//! Critical-section-free fetch-and-add algorithms (paper §2.3 and the
//! appendix, "Management of Highly Parallel Queues").
//!
//! The paper's thesis is that with fetch-and-add "we can perform many
//! important algorithms in a completely parallel manner, i.e. without
//! using any critical sections" — and that, e.g., "given a single queue
//! that is neither empty nor full, the concurrent execution of thousands
//! of inserts and thousands of deletes can all be accomplished in the time
//! required for just one such operation."
//!
//! [`sim`] expresses the appendix queue and the readers–writers protocol
//! as explicit one-memory-op-per-step state machines over the
//! [`ultracomputer::Paracomputer`], driven by a randomized interleaver, so
//! the algorithms' correctness under *arbitrary* interleavings (and the
//! necessity of TIR/TDR's "redundant" initial test) can be property
//! tested. That the operations then cost the time of one is the combining
//! network's claim, measured by the machine's hot-spot experiment (E6).

pub mod sim;

pub use sim::queue::{InterleavedQueueSim, SimEvent};
pub use sim::rwlock::{InterleavedRwSim, RwReport};
