//! What the prefix cache holds: a machine, ready to be forked.
//!
//! A cached checkpoint is a restored [`Machine`] with observer state
//! off, and a resume is [`Machine::fork`] off it, so a
//! sweep job costs its suffix and one copy, not a decode and an encode of
//! the whole machine.
//!
//! An image goes back to the thread that built it to be freed. A 1024-PE
//! ticket machine at cycle 512 is some 4,200 allocations (a fork of one
//! makes 4,205), and glibc returns a block to the arena it came from:
//! freed by another worker, every one of them contends for the builder's
//! arena lock while the builder is allocating its next machine from it
//! (measured when it was 8,000 allocations: 12.0 ms per fork + run + drop
//! against 2.5 ms when the builder frees, which cancelled the second
//! worker entirely). So each thread owns an inbox, an image remembers its
//! builder's, whoever drops the last reference posts the machine there,
//! and the builder empties its inbox between jobs ([`free_returned`]). A
//! builder that has exited has no inbox left; the machine is then freed
//! where it is.

use std::sync::mpsc;

use ultracomputer::machine::Machine;
use ultracomputer::EngineTuning;

use crate::cache::Footprint;

thread_local! {
    /// Machines built on this thread and let go of on another.
    static INBOX: (mpsc::Sender<Machine>, mpsc::Receiver<Machine>) = mpsc::channel();
}

/// A machine shelved in the prefix cache (see the module docs).
pub struct Image {
    /// `Some` until the image is dropped.
    machine: Option<Machine>,
    home: mpsc::Sender<Machine>,
}

impl Image {
    /// Shelves `machine`, which the calling thread built and finished
    /// running.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        Self {
            machine: Some(machine.into_image()),
            home: INBOX.with(|(home, _)| home.clone()),
        }
    }

    /// Shelves a copy of `machine` as it stands between two slices; the
    /// calling thread builds the copy and goes on running the original.
    #[must_use]
    pub fn copy_of(machine: &Machine) -> Self {
        Self::new(machine.fork(EngineTuning::default()))
    }

    /// The shelved machine, to fork from.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        self.machine.as_ref().expect("present until dropped")
    }
}

impl Footprint for Image {
    fn footprint_bytes(&self) -> usize {
        self.machine().heap_bytes()
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        if let Some(machine) = self.machine.take() {
            // A send fails when the builder is gone and hands the machine
            // back: it is freed here.
            let _ = self.home.send(machine);
        }
    }
}

/// Frees the machines other threads have returned to the calling thread.
/// Workers call it between jobs, after the reply is out.
pub fn free_returned() {
    INBOX.with(|(_, returned)| returned.try_iter().for_each(drop));
}
