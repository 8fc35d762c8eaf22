//! Hand-rolled binary serialization for machine snapshots.
//!
//! The snapshot format must be bit-stable across runs and independent of
//! external crates, so this module implements a tiny explicit wire
//! format: fixed-width little-endian scalars, length-prefixed sequences,
//! and nothing self-describing. Every stateful simulator type implements
//! [`Wire`] (or an inherent `encode`/`decode` pair when decoding needs
//! context such as a config); unordered containers are emitted sorted by
//! key so identical states always produce identical bytes.
//!
//! Decoding is defensive: all lengths are validated against the bytes
//! actually remaining, so truncated or bit-flipped input yields a
//! [`WireError`], never a panic or an unbounded allocation.
//!
//! # Example
//!
//! ```
//! use ultra_sim::wire::{Wire, WireReader, WireWriter};
//!
//! let mut w = WireWriter::new();
//! vec![3u64, 1, 4].encode(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = WireReader::new(&bytes);
//! assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![3, 1, 4]);
//! assert!(r.is_empty());
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Why a snapshot byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the value was complete.
    Truncated,
    /// A decoded value was structurally impossible (bad enum tag,
    /// invalid UTF-8, an implausible length prefix).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "byte stream truncated"),
            Self::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit everywhere).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (caller knows the width).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream; [`WireError::Invalid`]
    /// if the value does not fit this platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Invalid("usize overflow"))
    }

    /// Reads a sequence length and validates it against the bytes left.
    ///
    /// Every element of every sequence occupies at least one byte, so a
    /// length prefix exceeding `remaining()` can only come from corrupt
    /// input; rejecting it here bounds allocations.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream; [`WireError::Invalid`]
    /// on an implausible length.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(WireError::Invalid("length prefix exceeds input"));
        }
        Ok(len)
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream; [`WireError::Invalid`]
    /// if the byte is neither 0 nor 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of stream; [`WireError::Invalid`]
    /// on malformed UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.seq_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8"))
    }
}

/// A value with a canonical binary encoding.
///
/// Implementations must be bijective on valid state: `decode(encode(x))`
/// reproduces `x` exactly, and equal states encode to equal bytes (maps
/// and sets are written in sorted key order to guarantee this).
pub trait Wire: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the stream is truncated or structurally invalid.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

macro_rules! scalar_wire {
    ($($ty:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

scalar_wire! {
    u8 => u8 / u8,
    u32 => u32 / u32,
    u64 => u64 / u64,
    u128 => u128 / u128,
    i64 => i64 / i64,
    usize => usize / usize,
    f64 => f64 / f64,
    bool => bool / bool,
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, w: &mut WireWriter) {
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        out.try_into()
            .map_err(|_| WireError::Invalid("array length"))
    }
}

macro_rules! tuple_wire {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, w: &mut WireWriter) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    )*};
}

tuple_wire! {
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = Self::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = Self::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Hash maps are written in sorted key order so equal maps yield equal
/// bytes regardless of hasher-dependent iteration order — the bytes are
/// the same whichever hasher `S` the map runs on.
impl<K: Wire + Ord + Hash + Eq, V: Wire, S: BuildHasher + Default> Wire for HashMap<K, V, S> {
    fn encode(&self, w: &mut WireWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = Self::with_capacity_and_hasher(len, S::default());
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Hash sets are written in sorted order, like [`HashMap`].
impl<T: Wire + Ord + Hash + Eq> Wire for HashSet<T> {
    fn encode(&self, w: &mut WireWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        w.usize(items.len());
        for item in items {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = Self::with_capacity(len);
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

/// FNV-1a 64-bit hash — the snapshot format's digest and checksum. Tiny,
/// dependency-free, and stable across platforms. Each step is a bijection
/// of the running hash for a fixed byte, so inputs of equal length that
/// differ in one byte never collide: a frame's checksum trailer catches
/// every single-byte corruption. Not for adversarial integrity — anyone
/// can reseal a forged frame.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = WireWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(&T::decode(&mut r).unwrap(), v);
        assert!(r.is_empty(), "decoder must consume every byte");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xdead_beefu32);
        round_trip(&u64::MAX);
        round_trip(&u128::MAX);
        round_trip(&-42i64);
        round_trip(&usize::MAX);
        round_trip(&1.5f64);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&true);
        round_trip(&String::from("héllo"));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&Some(7i64));
        round_trip(&Option::<i64>::None);
        round_trip(&VecDeque::from(vec![9u32, 8]));
        round_trip(&[1u64, 2, 3, 4]);
        round_trip(&(1u64, true, String::from("x")));
        round_trip(&BTreeMap::from([(1u64, 2i64), (3, 4)]));
        round_trip(&BTreeSet::from([5u64, 1]));
        round_trip(&HashMap::from([(1u64, 2i64), (9, 4)]));
        round_trip(&HashSet::from([5u64, 1, 17]));
    }

    #[test]
    fn hashmap_encoding_is_order_independent() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..100u64 {
            a.insert(i, i * 2);
        }
        for i in (0..100u64).rev() {
            b.insert(i, i * 2);
        }
        let (mut wa, mut wb) = (WireWriter::new(), WireWriter::new());
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(wa.bytes(), wb.bytes());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = WireWriter::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn implausible_length_rejected_without_allocating() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX); // claims ~2^64 elements follow
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            Vec::<u64>::decode(&mut r),
            Err(WireError::Invalid("length prefix exceeds input"))
        );
    }

    #[test]
    fn bad_tags_rejected() {
        let mut r = WireReader::new(&[7]);
        assert!(Option::<u8>::decode(&mut r).is_err());
        let mut r = WireReader::new(&[9]);
        assert!(bool::decode(&mut r).is_err());
    }

    #[test]
    fn fnv_reference_values() {
        // Public FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
