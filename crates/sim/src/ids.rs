//! Strongly typed identifiers and address arithmetic.
//!
//! The paper numbers both PEs and MMs with `D`-bit identifiers (`N = 2^D`)
//! and routes through the Omega network by consuming one base-`k` digit of
//! the destination per stage (§3.1.1). This module provides the id newtypes
//! and the digit-manipulation helpers on which routing and the
//! origin/destination "amalgam" address are built.

use core::fmt;

use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// The machine word stored in memory cells; all paper primitives
/// (fetch-and-add, swap, test-and-set) operate on this type.
pub type Value = i64;

/// Identifier of a processing element (0..N).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeId(pub usize);

/// Identifier of a memory module (0..N).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MmId(pub usize);

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

impl fmt::Display for MmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MM{}", self.0)
    }
}

impl From<usize> for PeId {
    fn from(v: usize) -> Self {
        PeId(v)
    }
}

impl Wire for MmId {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self(r.usize()?))
    }
}

impl From<usize> for MmId {
    fn from(v: usize) -> Self {
        MmId(v)
    }
}

/// A physical memory address: a module and a word offset within it.
///
/// The paper transmits the MM number plus "the internal address within the
/// specified MM" (§3.3); requests are combinable only when both match.
///
/// # Example
///
/// ```
/// use ultra_sim::ids::{MemAddr, MmId};
///
/// let a = MemAddr::new(MmId(3), 17);
/// assert_eq!(a.mm, MmId(3));
/// assert_eq!(a.offset, 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemAddr {
    /// The memory module holding the word.
    pub mm: MmId,
    /// Word offset within the module.
    pub offset: usize,
}

impl MemAddr {
    /// Creates an address from a module id and offset.
    #[must_use]
    pub fn new(mm: MmId, offset: usize) -> Self {
        Self { mm, offset }
    }
}

impl fmt::Display for MemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.mm, self.offset)
    }
}

/// Base-`k` digit counts of identifiers (§3.1.1): an `N`-PE network of
/// `k×k` switches has one stage per digit of an identifier written base
/// `k`. Reading the digits themselves is the network's routing model's
/// business (`ultra_net::route::Topology`, by shift and mask).
pub mod digits {
    /// Returns the number of base-`k` digits needed to write ids `0..n`,
    /// i.e. `log_k n`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, or if `n` is not a positive power of `k`.
    #[must_use]
    pub fn count(n: usize, k: usize) -> u32 {
        assert!(k >= 2, "switch arity k must be at least 2");
        assert!(n >= 1, "n must be positive");
        let mut d = 0;
        let mut acc = 1usize;
        while acc < n {
            acc = acc.checked_mul(k).expect("n too large");
            d += 1;
        }
        assert_eq!(acc, n, "n = {n} is not a power of k = {k}");
        d
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn count_powers() {
            assert_eq!(count(8, 2), 3);
            assert_eq!(count(4096, 4), 6);
            assert_eq!(count(64, 8), 2);
            assert_eq!(count(1, 2), 0);
        }

        #[test]
        #[should_panic(expected = "not a power")]
        fn count_rejects_non_power() {
            let _ = count(12, 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(PeId(7).to_string(), "PE7");
        assert_eq!(MmId(3).to_string(), "MM3");
        assert_eq!(MemAddr::new(MmId(3), 9).to_string(), "MM3:9");
    }

    #[test]
    fn ids_order_and_convert() {
        assert!(PeId(1) < PeId(2));
        assert_eq!(PeId::from(5), PeId(5));
        assert_eq!(MmId::from(6), MmId(6));
    }
}
