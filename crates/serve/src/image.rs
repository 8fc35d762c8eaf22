//! What the prefix cache holds: a machine, ready to be forked.
//!
//! A cached checkpoint is a restored [`Machine`] with observer state
//! off, and a resume is [`Machine::fork`] off it, so a
//! sweep job costs its suffix and one copy, not a decode and an encode of
//! the whole machine.
//!
//! A machine is a few dozen buffers whatever its size (a fork of a
//! 1024-PE ticket machine at cycle 512 makes 41 allocations), so an
//! evicted image is freed on whichever thread lets go of it last.

use ultracomputer::machine::Machine;
use ultracomputer::EngineTuning;

use crate::cache::Footprint;

/// A machine shelved in the prefix cache (see the module docs).
pub struct Image(Machine);

impl Image {
    /// Shelves `machine`, which has finished running.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        Self(machine.into_image())
    }

    /// Shelves a copy of `machine` as it stands between two slices; the
    /// calling thread goes on running the original.
    #[must_use]
    pub fn copy_of(machine: &Machine) -> Self {
        Self::new(machine.fork(EngineTuning::default()))
    }

    /// The shelved machine, to fork from.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.0
    }
}

impl Footprint for Image {
    fn footprint_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}
