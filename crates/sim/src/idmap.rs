//! [`IdMap`]: a `HashMap` for simulator-minted keys, on a fixed hasher.
//!
//! The per-message path looks request ids and memory addresses up in half
//! a dozen maps; `std`'s default SipHash with a per-process random key
//! costs more than the lookups' own memory traffic and — through its
//! random iteration order — hides any place that forgot to sort. Every
//! key on that path is minted by the simulator itself (message ids, PE and
//! MM numbers, word offsets), so collision resistance against hostile
//! input buys nothing there. [`IdHasher`] mixes each integer the key
//! writes with one widening multiply whose halves are folded together: a
//! fixed function of the key, so two runs — and two machines — lay a map
//! out identically.
//!
//! Keys that arrive from outside the program (job ids, file names) keep
//! the default hasher.
//!
//! # Example
//!
//! ```
//! use ultra_sim::IdMap;
//!
//! let mut owner: IdMap<u64, usize> = IdMap::default();
//! owner.insert(7 << 44 | 3, 7);
//! assert_eq!(owner.get(&(7 << 44 | 3)), Some(&7));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-minted ids, hashed by [`IdHasher`].
/// Construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Odd 64-bit constant (2^64 / φ).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded-multiply hasher for integer-shaped keys. Not collision
/// resistant against chosen input — see the module docs for where it may
/// be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

impl IdHasher {
    /// The low half of a product only sees the input's low bits and the
    /// high half mostly its high bits; request ids are `pe << 44 | seq`
    /// with `seq` in lockstep across PEs, and the table reads both the
    /// bottom bits (bucket) and the top seven (control byte) — so the two
    /// halves are XORed and every output bit depends on the whole word.
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn hash_is_a_fixed_function_of_the_key() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        // Tuple keys fold field by field, so order matters.
        assert_ne!(hash_of(&(1u64, 2u32)), hash_of(&(2u64, 1u32)));
    }

    /// The id shapes the simulator mints — `pe << 44 | seq` request ids
    /// and small dense integers — must spread over both the bucket bits
    /// (low) and the control-byte bits (top seven) hashbrown reads.
    #[test]
    fn minted_id_shapes_spread_over_bucket_and_control_bits() {
        let shapes: [(&str, Vec<u64>); 4] = [
            (
                "pe<<44|seq",
                (0..64u64)
                    .flat_map(|pe| (1..=64u64).map(move |seq| pe << 44 | seq))
                    .collect(),
            ),
            (
                "lockstep seq",
                (0..4096u64).map(|pe| pe << 44 | 17).collect(),
            ),
            ("dense", (0..4096u64).collect()),
            ("stride 64", (0..4096u64).map(|i| i * 64).collect()),
        ];
        for (label, keys) in shapes {
            let mut low = vec![0u32; 1024];
            let mut top = vec![0u32; 128];
            for key in &keys {
                let h = hash_of(key);
                low[(h & 1023) as usize] += 1;
                top[(h >> 57) as usize] += 1;
            }
            // 4096 keys over 1024 buckets: mean 4. A degenerate hash piles
            // hundreds into one bucket; a fair one stays within a few
            // multiples of the mean.
            let worst_low = *low.iter().max().unwrap();
            assert!(worst_low <= 16, "{label}: {worst_low} keys in one bucket");
            let worst_top = *top.iter().max().unwrap();
            assert!(
                worst_top <= 128,
                "{label}: {worst_top} of 4096 share a control byte"
            );
        }
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&[1u8; 9][..]), hash_of(&[1u8; 10][..]));
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: IdMap<(u64, u32), usize> = IdMap::default();
        for i in 0..1000u64 {
            m.insert((i << 44, (i % 3) as u32), i as usize);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.remove(&(i << 44, (i % 3) as u32)), Some(i as usize));
        }
        assert!(m.is_empty());
    }
}
