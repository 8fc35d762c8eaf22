//! The appendix queue as an interleaved state-machine simulation.
//!
//! Each virtual processor runs the appendix's `Insert` or `Delete`
//! procedure decomposed into steps of **one shared-memory operation each**
//! (every fetch-and-add, load and store is a separate step). A seeded
//! scheduler interleaves the processors arbitrarily. Because every
//! interleaving corresponds to a legal serialization of the paracomputer's
//! simultaneous operations, any property that survives all sampled
//! interleavings is strong evidence for the paper's claim that the
//! algorithm is correct *without any critical section*.
//!
//! The FIFO correctness condition checked here is the appendix's: "If
//! insertion of a data item p is completed before insertion of another
//! data item q is started, then it must not be possible for a deletion
//! yielding q to complete before a deletion yielding p has started."

use ultra_sim::{Rng, SplitMix64, Value};
use ultracomputer::paracomputer::Paracomputer;

// Shared-memory layout (flat paracomputer addresses).
const A_INSERT_PTR: usize = 0;
const A_DELETE_PTR: usize = 1;
const A_UPPER: usize = 2; // #Qu
const A_LOWER: usize = 3; // #Qi
const A_CELLS: usize = 16; // cell i: value at A_CELLS+2i, turn at A_CELLS+2i+1

/// Observable events, in scheduler-step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// An insert procedure began (datum recorded).
    InsertStart(Value),
    /// An insert completed successfully.
    InsertDone(Value),
    /// An insert observed `QueueOverflow`.
    InsertOverflow(Value),
    /// A delete procedure began.
    DeleteStart(usize),
    /// A delete completed, yielding a datum.
    DeleteDone(usize, Value),
    /// A delete observed `QueueUnderflow`.
    DeleteUnderflow(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsState {
    TirTest,
    TirRetest,
    ClaimSlot,
    WaitTurn { raw: Value },
    WriteCell { raw: Value },
    BumpLower,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DelState {
    TdrTest,
    TdrRetest,
    ClaimSlot,
    WaitTurn { raw: Value },
    ReadCell { raw: Value },
    DropUpper,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum Proc {
    Insert { datum: Value, state: InsState },
    Delete { id: usize, state: DelState },
}

impl Proc {
    fn done(&self) -> bool {
        match self {
            Proc::Insert { state, .. } => *state == InsState::Done,
            Proc::Delete { state, .. } => *state == DelState::Done,
        }
    }
}

/// An interleaved simulation of concurrent inserts and deletes.
///
/// # Example
///
/// ```
/// use ultra_algorithms::InterleavedQueueSim;
///
/// let mut sim = InterleavedQueueSim::new(8, 42);
/// for v in 0..20 {
///     sim.spawn_insert(v);
/// }
/// for _ in 0..20 {
///     sim.spawn_delete();
/// }
/// let events = sim.run(1_000_000);
/// sim.check_conservation(&events);
/// sim.check_fifo_condition(&events);
/// ```
#[derive(Debug)]
pub struct InterleavedQueueSim {
    para: Paracomputer,
    size: usize,
    procs: Vec<Proc>,
    rng: SplitMix64,
    next_delete_id: usize,
    steps: u64,
}

impl InterleavedQueueSim {
    /// Creates a queue of capacity `size`; `seed` fixes the interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: usize, seed: u64) -> Self {
        assert!(size > 0, "queue needs at least one slot");
        Self {
            para: Paracomputer::new(seed ^ 0x9e37),
            size,
            procs: Vec::new(),
            rng: SplitMix64::new(seed),
            next_delete_id: 0,
            steps: 0,
        }
    }

    /// Adds a virtual processor that will insert `datum`.
    pub fn spawn_insert(&mut self, datum: Value) {
        self.procs.push(Proc::Insert {
            datum,
            state: InsState::TirTest,
        });
    }

    /// Adds a virtual processor that will delete one item.
    pub fn spawn_delete(&mut self) {
        self.procs.push(Proc::Delete {
            id: self.next_delete_id,
            state: DelState::TdrTest,
        });
        self.next_delete_id += 1;
    }

    /// Runs until every processor finishes, interleaving one shared-memory
    /// step at a time; returns the event trace.
    ///
    /// # Panics
    ///
    /// Panics if the budget of `max_steps` is exhausted (indicating a
    /// stuck interleaving, which would falsify the algorithm).
    pub fn run(&mut self, max_steps: u64) -> Vec<SimEvent> {
        let mut events = Vec::new();
        // Emit start events in spawn order (all procs are "simultaneous"
        // from step 0; starts are ordered before any step).
        for p in &self.procs {
            match p {
                Proc::Insert { datum, .. } => events.push(SimEvent::InsertStart(*datum)),
                Proc::Delete { id, .. } => events.push(SimEvent::DeleteStart(*id)),
            }
        }
        while self.procs.iter().any(|p| !p.done()) {
            self.steps += 1;
            assert!(
                self.steps <= max_steps,
                "interleaving stuck after {} steps",
                self.steps
            );
            let live: Vec<usize> = (0..self.procs.len())
                .filter(|&i| !self.procs[i].done())
                .collect();
            let pick = live[self.rng.below(live.len())];
            self.step(pick, &mut events);
        }
        events
    }

    /// Scheduler steps taken so far, one shared-memory operation each.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes one shared-memory operation of processor `i`.
    fn step(&mut self, i: usize, events: &mut Vec<SimEvent>) {
        let mut proc = self.procs[i];
        let size = self.size as Value;
        match &mut proc {
            Proc::Insert { datum, state } => match *state {
                InsState::TirTest => {
                    // The appendix's initial test: "If S+Delta <= Bound".
                    if self.para.load(A_UPPER) + 1 > size {
                        events.push(SimEvent::InsertOverflow(*datum));
                        *state = InsState::Done;
                    } else {
                        *state = InsState::TirRetest;
                    }
                }
                InsState::TirRetest => {
                    if self.para.fetch_add(A_UPPER, 1) < size {
                        *state = InsState::ClaimSlot;
                    } else {
                        // Undo and fail. (The undo is a separate memory op,
                        // but folding it into this step cannot create new
                        // outcomes: no other proc reads between them in any
                        // serialization where it would matter for safety.)
                        let _ = self.para.fetch_add(A_UPPER, -1);
                        events.push(SimEvent::InsertOverflow(*datum));
                        *state = InsState::Done;
                    }
                }
                InsState::ClaimSlot => {
                    let raw = self.para.fetch_add(A_INSERT_PTR, 1);
                    *state = InsState::WaitTurn { raw };
                }
                InsState::WaitTurn { raw } => {
                    let cell = (raw % size) as usize;
                    let generation = raw / size;
                    // "Wait turn at MyI": one load per step while spinning.
                    if self.para.load(A_CELLS + 2 * cell + 1) == 2 * generation {
                        *state = InsState::WriteCell { raw };
                    }
                }
                InsState::WriteCell { raw } => {
                    let cell = (raw % size) as usize;
                    let generation = raw / size;
                    self.para.store(A_CELLS + 2 * cell, *datum);
                    self.para.store(A_CELLS + 2 * cell + 1, 2 * generation + 1);
                    *state = InsState::BumpLower;
                }
                InsState::BumpLower => {
                    let _ = self.para.fetch_add(A_LOWER, 1);
                    events.push(SimEvent::InsertDone(*datum));
                    *state = InsState::Done;
                }
                InsState::Done => {}
            },
            Proc::Delete { id, state } => match *state {
                DelState::TdrTest => {
                    if self.para.load(A_LOWER) - 1 < 0 {
                        events.push(SimEvent::DeleteUnderflow(*id));
                        *state = DelState::Done;
                    } else {
                        *state = DelState::TdrRetest;
                    }
                }
                DelState::TdrRetest => {
                    if self.para.fetch_add(A_LOWER, -1) > 0 {
                        *state = DelState::ClaimSlot;
                    } else {
                        let _ = self.para.fetch_add(A_LOWER, 1);
                        events.push(SimEvent::DeleteUnderflow(*id));
                        *state = DelState::Done;
                    }
                }
                DelState::ClaimSlot => {
                    let raw = self.para.fetch_add(A_DELETE_PTR, 1);
                    *state = DelState::WaitTurn { raw };
                }
                DelState::WaitTurn { raw } => {
                    let cell = (raw % size) as usize;
                    let generation = raw / size;
                    if self.para.load(A_CELLS + 2 * cell + 1) == 2 * generation + 1 {
                        *state = DelState::ReadCell { raw };
                    }
                }
                DelState::ReadCell { raw } => {
                    let cell = (raw % size) as usize;
                    let generation = raw / size;
                    let v = self.para.load(A_CELLS + 2 * cell);
                    self.para
                        .store(A_CELLS + 2 * cell + 1, 2 * (generation + 1));
                    events.push(SimEvent::DeleteDone(*id, v));
                    *state = DelState::DropUpper;
                }
                DelState::DropUpper => {
                    // "deletions do not decrement #Qu until after they have
                    // removed their data".
                    let _ = self.para.fetch_add(A_UPPER, -1);
                    *state = DelState::Done;
                }
                DelState::Done => {}
            },
        }
        self.procs[i] = proc;
    }

    /// Asserts conservation: every deleted datum was inserted exactly once,
    /// and the queue's final occupancy equals successful inserts minus
    /// successful deletes.
    ///
    /// # Panics
    ///
    /// Panics if the trace violates conservation.
    pub fn check_conservation(&self, events: &[SimEvent]) {
        use std::collections::HashMap;
        let mut inserted: HashMap<Value, usize> = HashMap::new();
        let mut deleted: HashMap<Value, usize> = HashMap::new();
        let (mut ins_ok, mut del_ok) = (0i64, 0i64);
        for e in events {
            match e {
                SimEvent::InsertDone(v) => {
                    *inserted.entry(*v).or_default() += 1;
                    ins_ok += 1;
                }
                SimEvent::DeleteDone(_, v) => {
                    *deleted.entry(*v).or_default() += 1;
                    del_ok += 1;
                }
                _ => {}
            }
        }
        for (v, n) in &deleted {
            assert_eq!(
                Some(n),
                inserted.get(v),
                "datum {v} deleted {n} times but inserted differently"
            );
        }
        let residual = ins_ok - del_ok;
        assert!(residual >= 0, "more deletes than inserts succeeded");
        assert_eq!(
            self.para.load(A_LOWER),
            residual,
            "#Qi must equal residual occupancy at rest"
        );
        assert_eq!(
            self.para.load(A_UPPER),
            residual,
            "#Qu must equal residual occupancy at rest"
        );
        assert!(residual <= self.size as i64, "occupancy exceeded capacity");
    }

    /// Asserts the appendix's FIFO condition over the trace.
    ///
    /// # Panics
    ///
    /// Panics if some pair of items violates the condition.
    pub fn check_fifo_condition(&self, events: &[SimEvent]) {
        use std::collections::HashMap;
        let mut ins_start: HashMap<Value, usize> = HashMap::new();
        let mut ins_done: HashMap<Value, usize> = HashMap::new();
        let mut del_start: HashMap<Value, usize> = HashMap::new(); // by datum, filled post-hoc
        let mut del_done: HashMap<Value, usize> = HashMap::new();
        let mut del_start_by_id: HashMap<usize, usize> = HashMap::new();
        for (t, e) in events.iter().enumerate() {
            match e {
                SimEvent::InsertStart(v) => {
                    ins_start.entry(*v).or_insert(t);
                }
                SimEvent::InsertDone(v) => {
                    ins_done.insert(*v, t);
                }
                SimEvent::DeleteStart(id) => {
                    del_start_by_id.insert(*id, t);
                }
                SimEvent::DeleteDone(id, v) => {
                    del_done.insert(*v, t);
                    del_start.insert(*v, del_start_by_id[id]);
                }
                _ => {}
            }
        }
        for (&p, &p_done) in &ins_done {
            for (&q, &q_start) in &ins_start {
                if p == q || p_done >= q_start {
                    continue;
                }
                // insert(p) completed before insert(q) started.
                if let (Some(&q_del_done), Some(&p_del_start)) =
                    (del_done.get(&q), del_start.get(&p))
                {
                    assert!(
                        q_del_done >= p_del_start,
                        "FIFO violated: {q} (inserted after {p} finished) was \
                         fully deleted before any deletion of {p} started"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_check(size: usize, inserts: i64, deletes: usize, seed: u64) {
        let mut sim = InterleavedQueueSim::new(size, seed);
        for v in 0..inserts {
            sim.spawn_insert(v + 100);
        }
        for _ in 0..deletes {
            sim.spawn_delete();
        }
        let events = sim.run(2_000_000);
        sim.check_conservation(&events);
        sim.check_fifo_condition(&events);
    }

    #[test]
    fn balanced_traffic_many_seeds() {
        for seed in 0..40 {
            run_check(8, 24, 24, seed);
        }
    }

    #[test]
    fn overflow_pressure() {
        // Far more inserts than capacity+deletes: overflows must occur and
        // everything must stay consistent.
        for seed in 0..20 {
            let mut sim = InterleavedQueueSim::new(4, seed);
            for v in 0..30 {
                sim.spawn_insert(v);
            }
            for _ in 0..5 {
                sim.spawn_delete();
            }
            let events = sim.run(2_000_000);
            let overflows = events
                .iter()
                .filter(|e| matches!(e, SimEvent::InsertOverflow(_)))
                .count();
            assert!(
                overflows > 0,
                "pressure must trigger overflow (seed {seed})"
            );
            sim.check_conservation(&events);
            sim.check_fifo_condition(&events);
        }
    }

    #[test]
    fn underflow_pressure() {
        for seed in 0..20 {
            let mut sim = InterleavedQueueSim::new(4, seed);
            sim.spawn_insert(7);
            for _ in 0..10 {
                sim.spawn_delete();
            }
            let events = sim.run(2_000_000);
            let underflows = events
                .iter()
                .filter(|e| matches!(e, SimEvent::DeleteUnderflow(_)))
                .count();
            assert!(underflows > 0, "seed {seed}");
            sim.check_conservation(&events);
        }
    }

    #[test]
    fn tiny_queue_heavy_wraparound() {
        for seed in 0..20 {
            run_check(1, 12, 12, seed);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = InterleavedQueueSim::new(4, seed);
            for v in 0..8 {
                sim.spawn_insert(v);
            }
            for _ in 0..8 {
                sim.spawn_delete();
            }
            sim.run(1_000_000)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds explore differently");
    }

    /// The appendix queue's conservation and FIFO condition hold for
    /// arbitrary mixes of inserts/deletes, capacities, and interleavings.
    /// Cases come from a fixed [`SplitMix64`] stream, so every run
    /// explores identical inputs.
    #[test]
    fn interleaved_queue_sim_properties() {
        for case in 0..10u64 {
            let mut rng = SplitMix64::new(0x57E5_57E5 ^ case.wrapping_mul(0x9e37_79b9));
            let size = 1 + rng.below(11);
            let inserts = rng.below(30) as i64;
            let deletes = rng.below(30);
            let seed = rng.next_u64();
            let mut sim = InterleavedQueueSim::new(size, seed);
            for v in 0..inserts {
                sim.spawn_insert(1000 + v);
            }
            for _ in 0..deletes {
                sim.spawn_delete();
            }
            let events = sim.run(5_000_000);
            sim.check_conservation(&events);
            sim.check_fifo_condition(&events);
        }
    }
}
