//! The appendix's critical-section-free queue under a storm of
//! simultaneous inserts and deletes.
//!
//! Every virtual processor runs the appendix's `Insert` or `Delete` one
//! shared-memory operation per step over the paracomputer, and a seeded
//! scheduler interleaves them arbitrarily. Coordination is pure
//! fetch-and-add (slot claims, occupancy bounds) with no critical section,
//! and whatever the interleaving, no item is lost or duplicated and the
//! appendix's FIFO condition holds.
//!
//! ```text
//! cargo run --release -p ultracomputer --example parallel_queue
//! ```

use ultra_algorithms::{InterleavedQueueSim, SimEvent};

fn main() {
    let (size, inserts, deletes) = (64, 1_000, 1_000);
    let mut sim = InterleavedQueueSim::new(size, 7);
    for v in 0..inserts {
        sim.spawn_insert(v);
    }
    for _ in 0..deletes {
        sim.spawn_delete();
    }
    let events = sim.run(100_000_000);
    sim.check_conservation(&events);
    sim.check_fifo_condition(&events);

    let count = |f: fn(&SimEvent) -> bool| events.iter().filter(|e| f(e)).count();
    println!(
        "{inserts} inserts + {deletes} deletes on a {size}-slot queue: \
         {} inserted ({} full), {} deleted ({} empty)",
        count(|e| matches!(e, SimEvent::InsertDone(_))),
        count(|e| matches!(e, SimEvent::InsertOverflow(_))),
        count(|e| matches!(e, SimEvent::DeleteDone(..))),
        count(|e| matches!(e, SimEvent::DeleteUnderflow(_))),
    );
    println!(
        "{} one-memory-op steps, zero items lost or duplicated, FIFO condition holds",
        sim.steps()
    );
}
