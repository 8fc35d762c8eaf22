//! The readers–writers coordination as an interleaved state-machine
//! simulation over the paracomputer (§2.3).
//!
//! The paper cites Gottlieb, Lubachevsky & Rudolph's "completely parallel
//! solution to the readers-writers problem": readers announce themselves
//! with one fetch-and-add and proceed when no writer is present — no
//! critical section on the read path; writers (inherently serial) acquire
//! an exclusivity flag derived from test-and-set, itself a fetch-and-phi
//! special case (§2.4).
//!
//! Each virtual processor executes one shared-memory operation per
//! scheduler step, so every interleaving the seeded scheduler produces is
//! a legal serialization. The checked properties:
//!
//! * **writer exclusion** — a protected two-word record is always
//!   consistent when a reader copies it (writers update both words, so a
//!   torn read would catch an overlap);
//! * **writer mutual exclusion** — two writers never interleave inside
//!   the protected section;
//! * **progress** — every processor finishes.

use ultra_sim::{Rng, SplitMix64, Value};
use ultracomputer::paracomputer::Paracomputer;

// Shared layout.
const A_STATE: usize = 0; // readers count + WRITER_BIT
const A_DATA0: usize = 1; // protected record word 0
const A_DATA1: usize = 2; // protected record word 1 (must equal word 0)
const WRITER_BIT: Value = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    Announce,
    CheckSeen { seen: Value },
    Retract,
    SpinUntilClear,
    ReadWord0,
    ReadWord1 { w0: Value },
    Retire,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterState {
    Acquire,
    CheckSeen { seen: Value },
    Backoff,
    SpinUntilClear,
    DrainReaders,
    WriteWord0,
    WriteWord1,
    Release,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum Proc {
    Reader { state: ReaderState },
    Writer { value: Value, state: WriterState },
}

impl Proc {
    fn done(&self) -> bool {
        matches!(
            self,
            Proc::Reader {
                state: ReaderState::Done,
                ..
            } | Proc::Writer {
                state: WriterState::Done,
                ..
            }
        )
    }
}

/// An interleaved readers–writers simulation.
///
/// # Example
///
/// ```
/// use ultra_algorithms::sim::rwlock::InterleavedRwSim;
///
/// let mut sim = InterleavedRwSim::new(7);
/// for _ in 0..6 {
///     sim.spawn_reader();
/// }
/// for v in 1..4 {
///     sim.spawn_writer(v * 11);
/// }
/// let report = sim.run(1_000_000);
/// assert_eq!(report.torn_reads, 0);
/// assert_eq!(report.completed_readers, 6);
/// ```
#[derive(Debug)]
pub struct InterleavedRwSim {
    para: Paracomputer,
    procs: Vec<Proc>,
    rng: SplitMix64,
    /// Set while some writer believes it is inside the protected section;
    /// a second writer entering is a mutual-exclusion violation.
    writer_inside: bool,
    violations: usize,
}

/// What a finished run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwReport {
    /// Readers that finished.
    pub completed_readers: usize,
    /// Writers that finished.
    pub completed_writers: usize,
    /// Reads that saw an inconsistent (torn) record.
    pub torn_reads: usize,
    /// Writer mutual-exclusion violations.
    pub exclusion_violations: usize,
    /// Scheduler steps taken.
    pub steps: u64,
}

impl InterleavedRwSim {
    /// Creates a simulation with interleaving fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            para: Paracomputer::new(seed ^ 0x5157_1bad_cafe),
            procs: Vec::new(),
            rng: SplitMix64::new(seed),
            writer_inside: false,
            violations: 0,
        }
    }

    /// Adds a reader.
    pub fn spawn_reader(&mut self) {
        self.procs.push(Proc::Reader {
            state: ReaderState::Announce,
        });
    }

    /// Adds a writer that will store `value` into both record words.
    pub fn spawn_writer(&mut self, value: Value) {
        self.procs.push(Proc::Writer {
            value,
            state: WriterState::Acquire,
        });
    }

    /// Runs to completion (or panics after `max_steps`).
    ///
    /// # Panics
    ///
    /// Panics if some interleaving wedges — which would falsify the
    /// algorithm's progress claim.
    pub fn run(&mut self, max_steps: u64) -> RwReport {
        let mut torn = 0usize;
        let mut steps = 0u64;
        while self.procs.iter().any(|p| !p.done()) {
            steps += 1;
            assert!(
                steps <= max_steps,
                "readers-writers wedged after {steps} steps"
            );
            let live: Vec<usize> = (0..self.procs.len())
                .filter(|&i| !self.procs[i].done())
                .collect();
            let pick = live[self.rng.below(live.len())];
            torn += self.step(pick);
        }
        RwReport {
            completed_readers: self
                .procs
                .iter()
                .filter(|p| matches!(p, Proc::Reader { .. }))
                .count(),
            completed_writers: self
                .procs
                .iter()
                .filter(|p| matches!(p, Proc::Writer { .. }))
                .count(),
            torn_reads: torn,
            exclusion_violations: self.violations,
            steps,
        }
    }

    /// Executes one shared-memory operation of processor `i`; returns the
    /// number of torn reads observed (0 or 1).
    fn step(&mut self, i: usize) -> usize {
        let mut proc = self.procs[i];
        let mut torn = 0;
        match &mut proc {
            Proc::Reader { state, .. } => match *state {
                ReaderState::Announce => {
                    let seen = self.para.fetch_add(A_STATE, 1);
                    *state = ReaderState::CheckSeen { seen };
                }
                ReaderState::CheckSeen { seen } => {
                    // Pure control: no memory op, but costs a step.
                    *state = if seen < WRITER_BIT {
                        ReaderState::ReadWord0
                    } else {
                        ReaderState::Retract
                    };
                }
                ReaderState::Retract => {
                    let _ = self.para.fetch_add(A_STATE, -1);
                    *state = ReaderState::SpinUntilClear;
                }
                ReaderState::SpinUntilClear => {
                    if self.para.load(A_STATE) < WRITER_BIT {
                        *state = ReaderState::Announce;
                    }
                }
                ReaderState::ReadWord0 => {
                    let w0 = self.para.load(A_DATA0);
                    *state = ReaderState::ReadWord1 { w0 };
                }
                ReaderState::ReadWord1 { w0 } => {
                    let w1 = self.para.load(A_DATA1);
                    if w0 != w1 {
                        torn = 1;
                    }
                    *state = ReaderState::Retire;
                }
                ReaderState::Retire => {
                    let _ = self.para.fetch_add(A_STATE, -1);
                    *state = ReaderState::Done;
                }
                ReaderState::Done => {}
            },
            Proc::Writer { value, state } => match *state {
                WriterState::Acquire => {
                    let seen = self.para.fetch_add(A_STATE, WRITER_BIT);
                    *state = WriterState::CheckSeen { seen };
                }
                WriterState::CheckSeen { seen } => {
                    *state = if seen < WRITER_BIT {
                        WriterState::DrainReaders
                    } else {
                        WriterState::Backoff
                    };
                }
                WriterState::Backoff => {
                    let _ = self.para.fetch_add(A_STATE, -WRITER_BIT);
                    *state = WriterState::SpinUntilClear;
                }
                WriterState::SpinUntilClear => {
                    if self.para.load(A_STATE) < WRITER_BIT {
                        *state = WriterState::Acquire;
                    }
                }
                WriterState::DrainReaders => {
                    if self.para.load(A_STATE) % WRITER_BIT == 0 {
                        // Entering the protected section.
                        if self.writer_inside {
                            self.violations += 1;
                        }
                        self.writer_inside = true;
                        *state = WriterState::WriteWord0;
                    }
                }
                WriterState::WriteWord0 => {
                    self.para.store(A_DATA0, *value);
                    *state = WriterState::WriteWord1;
                }
                WriterState::WriteWord1 => {
                    self.para.store(A_DATA1, *value);
                    *state = WriterState::Release;
                }
                WriterState::Release => {
                    self.writer_inside = false;
                    let _ = self.para.fetch_add(A_STATE, -WRITER_BIT);
                    *state = WriterState::Done;
                }
                WriterState::Done => {}
            },
        }
        self.procs[i] = proc;
        torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_never_observe_torn_writes() {
        for seed in 0..60 {
            let mut sim = InterleavedRwSim::new(seed);
            for _ in 0..8 {
                sim.spawn_reader();
            }
            for v in 1..5 {
                sim.spawn_writer(v * 100);
            }
            let r = sim.run(2_000_000);
            assert_eq!(r.torn_reads, 0, "seed {seed}");
            assert_eq!(r.exclusion_violations, 0, "seed {seed}");
            assert_eq!(r.completed_readers, 8);
            assert_eq!(r.completed_writers, 4);
        }
    }

    #[test]
    fn readers_only_never_block() {
        let mut sim = InterleavedRwSim::new(3);
        for _ in 0..16 {
            sim.spawn_reader();
        }
        let r = sim.run(100_000);
        // Read path: announce, check, read, read, retire = 5 steps each.
        assert_eq!(r.steps, 16 * 5, "no reader ever retried");
    }

    #[test]
    fn writers_only_serialize() {
        for seed in 0..20 {
            let mut sim = InterleavedRwSim::new(seed);
            for v in 1..8 {
                sim.spawn_writer(v);
            }
            let r = sim.run(2_000_000);
            assert_eq!(r.exclusion_violations, 0, "seed {seed}");
        }
    }
}
