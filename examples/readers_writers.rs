//! The §2.3 readers–writers coordination as an interleaved simulation
//! ([`ultra_algorithms::InterleavedRwSim`]): readers announce themselves
//! with a single fetch-and-add, no critical section on the read path, and
//! no interleaving of the one-memory-op steps produces a torn read or a
//! writer overlap.
//!
//! ```text
//! cargo run --release -p ultracomputer --example readers_writers
//! ```

use ultra_algorithms::InterleavedRwSim;

fn main() {
    let mut total_steps = 0;
    for seed in 0..200 {
        let mut sim = InterleavedRwSim::new(seed);
        for _ in 0..6 {
            sim.spawn_reader();
        }
        for v in 1..4 {
            sim.spawn_writer(v * 7);
        }
        let r = sim.run(1_000_000);
        assert_eq!(r.torn_reads, 0);
        assert_eq!(r.exclusion_violations, 0);
        total_steps += r.steps;
    }
    println!(
        "simulated: 200 random interleavings ({total_steps} one-memory-op steps), \
         zero torn reads, zero writer overlaps"
    );
    println!(
        "\nThe read path is two fetch-and-adds and zero critical sections — on\n\
         Ultracomputer hardware, any number of simultaneous reader arrivals\n\
         combine into one memory transaction."
    );
}
