//! The idealized paracomputer model (paper §2).
//!
//! "An idealized parallel processor, dubbed a paracomputer by Schwartz and
//! classified as a WRAM by Borodin and Hopcroft, consists of autonomous
//! processing elements sharing a central memory. The model permits every PE
//! to read or write a shared memory cell in one cycle" (§2.1), augmented
//! with **fetch-and-add** (§2.2) and governed by the **serialization
//! principle**: "the effect of simultaneous actions by the PEs is as if the
//! actions occurred in some (unspecified) serial order".
//!
//! [`Paracomputer::apply_batch`] is that principle made executable: it takes
//! a batch of *simultaneous* operations, serializes them in a seeded-random
//! order (so tests can observe that correctness never depends on the order
//! chosen), applies them, and returns each operation's result in input
//! order. Fetch-and-phi (§2.4) is supported for every
//! [`PhiOp`]; `swap` and `test-and-set` are provided as the derived
//! special cases the paper derives them to be.

use std::collections::HashMap;

use ultra_net::message::PhiOp;
use ultra_sim::heap::map_bytes;
use ultra_sim::{Rng, SplitMix64, Value};

/// One memory operation directed at a flat shared address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Read a word.
    Load {
        /// Target address.
        addr: usize,
    },
    /// Write a word.
    Store {
        /// Target address.
        addr: usize,
        /// Datum to write.
        value: Value,
    },
    /// Atomically fetch the old value and store `phi(old, operand)`.
    FetchPhi {
        /// The associative operator.
        op: PhiOp,
        /// Target address.
        addr: usize,
        /// Right operand of phi.
        operand: Value,
    },
}

impl MemOp {
    /// The paper's fetch-and-add.
    #[must_use]
    pub fn fetch_add(addr: usize, delta: Value) -> Self {
        MemOp::FetchPhi {
            op: PhiOp::Add,
            addr,
            operand: delta,
        }
    }
}

/// The ideal shared memory.
///
/// # Example
///
/// ```
/// use ultracomputer::paracomputer::{MemOp, Paracomputer};
///
/// let mut pc = Paracomputer::new(42);
/// // A thousand PEs simultaneously fetch-and-add 1 to one cell: the cell
/// // receives the full increment and the returned values are a permutation
/// // of 0..1000 — "in the time required for just one such operation".
/// let ops: Vec<MemOp> = (0..1000).map(|_| MemOp::fetch_add(7, 1)).collect();
/// let mut results = pc.apply_batch(&ops);
/// results.sort_unstable();
/// assert_eq!(results, (0..1000).collect::<Vec<_>>());
/// assert_eq!(pc.load(7), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Paracomputer {
    mem: HashMap<usize, Value>,
    rng: SplitMix64,
}

impl Paracomputer {
    /// Creates an empty memory; `seed` drives the (unspecified!)
    /// serialization order chosen for simultaneous batches.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            mem: HashMap::new(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Heap bytes the memory owns: its touched words.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        map_bytes(&self.mem)
    }

    /// Reads a word directly (single-cycle paracomputer load).
    #[must_use]
    pub fn load(&self, addr: usize) -> Value {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    /// Writes a word directly (single-cycle paracomputer store).
    pub fn store(&mut self, addr: usize, value: Value) {
        self.mem.insert(addr, value);
    }

    /// The indivisible fetch-and-add of §2.2.
    pub fn fetch_add(&mut self, addr: usize, delta: Value) -> Value {
        self.fetch_phi(PhiOp::Add, addr, delta)
    }

    /// The general fetch-and-phi of §2.4.
    pub fn fetch_phi(&mut self, op: PhiOp, addr: usize, operand: Value) -> Value {
        let slot = self.mem.entry(addr).or_insert(0);
        let old = *slot;
        *slot = op.apply(old, operand);
        old
    }

    /// `Swap(L, V)` as the paper derives it: `L <- FetchΦ_π₂(V, L)`.
    pub fn swap(&mut self, addr: usize, value: Value) -> Value {
        self.fetch_phi(PhiOp::Second, addr, value)
    }

    /// `TestAndSet(V)` as the paper derives it: `Fetch&Or(V, TRUE)` viewed
    /// as a boolean. Returns the *old* truth value.
    pub fn test_and_set(&mut self, addr: usize) -> bool {
        self.fetch_phi(PhiOp::Or, addr, 1) != 0
    }

    /// Applies a batch of *simultaneous* operations under the serialization
    /// principle and returns each operation's result in input order
    /// (store results are 0).
    ///
    /// The serial order is chosen pseudo-randomly from the seed; any
    /// algorithm whose correctness depends on a particular order is broken,
    /// and the property tests exploit this.
    pub fn apply_batch(&mut self, ops: &[MemOp]) -> Vec<Value> {
        let mut order: Vec<usize> = (0..ops.len()).collect();
        self.rng.shuffle(&mut order);
        let mut results = vec![0; ops.len()];
        for i in order {
            results[i] = match ops[i] {
                MemOp::Load { addr } => self.load(addr),
                MemOp::Store { addr, value } => {
                    self.store(addr, value);
                    0
                }
                MemOp::FetchPhi { op, addr, operand } => self.fetch_phi(op, addr, operand),
            };
        }
        results
    }

    /// Number of distinct words ever written.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.mem.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let pc = Paracomputer::new(0);
        assert_eq!(pc.load(123), 0);
    }

    #[test]
    fn fetch_add_semantics_match_section_2_2() {
        // "ANSi <- F&A(V, ei)": either ANSi = V, ANSj = V + ei or the other
        // way; in both cases V becomes V + ei + ej.
        for seed in 0..32 {
            let mut pc = Paracomputer::new(seed);
            pc.store(0, 10);
            let res = pc.apply_batch(&[MemOp::fetch_add(0, 3), MemOp::fetch_add(0, 5)]);
            assert!(
                res == vec![10, 13] || res == vec![15, 10],
                "unexpected serialization {res:?}"
            );
            assert_eq!(pc.load(0), 18);
        }
    }

    #[test]
    fn distinct_array_indices_from_shared_counter() {
        // §2.2: "Each PE obtains an index to a distinct array element."
        let mut pc = Paracomputer::new(7);
        let ops: Vec<MemOp> = (0..100).map(|_| MemOp::fetch_add(9, 1)).collect();
        let mut res = pc.apply_batch(&ops);
        res.sort_unstable();
        assert_eq!(res, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn commutative_phi_final_value_is_order_independent() {
        // §2.4: "If phi is both associative and commutative, the final value
        // in V ... is independent of the serialization order chosen."
        for op in [
            PhiOp::Add,
            PhiOp::And,
            PhiOp::Or,
            PhiOp::Xor,
            PhiOp::Max,
            PhiOp::Min,
        ] {
            let mut finals = std::collections::HashSet::new();
            for seed in 0..16 {
                let mut pc = Paracomputer::new(seed);
                pc.store(0, 0b0110);
                let ops: Vec<MemOp> = [3, 9, 12, 5]
                    .iter()
                    .map(|&v| MemOp::FetchPhi {
                        op,
                        addr: 0,
                        operand: v,
                    })
                    .collect();
                let _ = pc.apply_batch(&ops);
                finals.insert(pc.load(0));
            }
            assert_eq!(finals.len(), 1, "{op:?} final value varied with order");
        }
    }

    #[test]
    fn swap_and_test_and_set_are_special_cases() {
        let mut pc = Paracomputer::new(0);
        pc.store(4, 11);
        assert_eq!(pc.swap(4, 22), 11);
        assert_eq!(pc.load(4), 22);

        assert!(!pc.test_and_set(5), "first test-and-set wins");
        assert!(pc.test_and_set(5), "second sees TRUE");
    }

    #[test]
    fn simultaneous_load_and_stores_obey_serialization() {
        // §2.1's example: one load and two stores at the same cell. The
        // cell ends with one of the stored values; the load returns the
        // original or one of the stored values.
        let mut outcomes = std::collections::HashSet::new();
        for seed in 0..64 {
            let mut pc = Paracomputer::new(seed);
            pc.store(0, 1);
            let res = pc.apply_batch(&[
                MemOp::Load { addr: 0 },
                MemOp::Store { addr: 0, value: 2 },
                MemOp::Store { addr: 0, value: 3 },
            ]);
            let final_v = pc.load(0);
            assert!([2, 3].contains(&final_v));
            assert!([1, 2, 3].contains(&res[0]));
            outcomes.insert((res[0], final_v));
        }
        assert!(outcomes.len() > 1, "different serial orders are exercised");
    }

    #[test]
    fn batch_results_in_input_order() {
        let mut pc = Paracomputer::new(3);
        pc.store(10, 100);
        pc.store(20, 200);
        let res = pc.apply_batch(&[MemOp::Load { addr: 20 }, MemOp::Load { addr: 10 }]);
        assert_eq!(res, vec![200, 100]);
    }

    #[test]
    fn paracomputer_clone_preserves_serialization_stream() {
        let mut pc = Paracomputer::new(99);
        let warm: Vec<MemOp> = (0..50).map(|_| MemOp::fetch_add(0, 1)).collect();
        let _ = pc.apply_batch(&warm); // advance the rng past its seed
        let mut copy = pc.clone();
        // Identical future serialization orders and memory contents.
        let batch: Vec<MemOp> = (0..20).map(|i| MemOp::fetch_add(i % 3, 1)).collect();
        assert_eq!(pc.apply_batch(&batch), copy.apply_batch(&batch));
        assert_eq!(pc.load(0), copy.load(0));
    }

    #[test]
    fn footprint_counts_touched_words() {
        let mut pc = Paracomputer::new(0);
        let _ = pc.fetch_add(1, 1);
        pc.store(2, 5);
        let _ = pc.load(3); // loads of unwritten words don't allocate
        assert_eq!(pc.footprint(), 2);
    }
}
