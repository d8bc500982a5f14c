//! The snapshot byte codec: one deterministic little-endian
//! writer/reader pair and one [`Snap`] trait shared by every layer that
//! checkpoints state (the simulator engine, host behaviours, the
//! protocol crates, the crawler pipeline, and this crate's recorder).
//!
//! ## Format
//!
//! A snapshot section is `magic(4) ‖ version(1) ‖ fields…`. Every field
//! is fixed-width little-endian (no varints: a snapshot's byte image
//! must be a pure function of the state it captures, and fixed widths
//! keep the mapping trivially auditable). Byte arrays are one raw copy,
//! `usize` travels as `u64`, `bool` and `Option` tags are one 0/1 byte,
//! and variable-length data (strings, byte strings, every container) is
//! prefixed with a `u64` element count. Layers nest by embedding a child
//! section as a byte string — each layer owns its own magic and version
//! byte, so formats can evolve independently.
//!
//! ## Contract
//!
//! * Writing is infallible; reading validates everything (magic,
//!   version, lengths, enum tags) and fails with a [`SnapError`] instead
//!   of panicking — a snapshot is external input by the time it is read.
//! * **The count rule**: every encoded element occupies at least one
//!   byte, so an element count larger than the bytes left is an error
//!   ([`SnapReader::count`]), and a container reserves no more memory
//!   than the bytes left, so a corrupt count can neither panic nor
//!   reserve memory the image cannot fill.
//! * [`SnapReader::finish`] asserts full consumption so trailing garbage
//!   (a truncated write, a version skew that moved a field) is caught at
//!   restore time, not as silent state corruption later.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;

/// Why a snapshot could not be read (or taken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The leading magic bytes did not match.
    BadMagic {
        /// What the section expected.
        expected: [u8; 4],
        /// What the buffer held.
        found: [u8; 4],
    },
    /// The version byte is not one this build can read.
    BadVersion {
        /// The version this build writes.
        expected: u8,
        /// The version found in the buffer.
        found: u8,
    },
    /// The buffer ended before the field at this byte offset (or an
    /// element count claims more elements than bytes remain).
    Truncated {
        /// Byte offset of the incomplete read.
        at: usize,
    },
    /// A structurally invalid value (bad enum tag, impossible length,
    /// cross-field inconsistency).
    Corrupt(&'static str),
    /// The state in question cannot be checkpointed (e.g. a host
    /// behaviour without `save_state` support).
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:?}, found {found:?}"
            ),
            SnapError::BadVersion { expected, found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {expected})"
            ),
            SnapError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::Unsupported(what) => write!(f, "state not checkpointable: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// A value with a snapshot image. Implemented here for the primitives
/// and containers, and by each crate for the types it owns, so a
/// section writer is a field list: `w.put(&self.a); w.put(&self.b)` and
/// `Ok(T { a: r.get()?, b: r.get()? })`.
pub trait Snap: Sized {
    /// Append this value's image.
    fn put(&self, w: &mut SnapWriter);
    /// Read a value written by [`Snap::put`].
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Append `items` back to back (a `Vec`'s elements). `u8` overrides
    /// this with one copy, so byte vectors cost a `memcpy`, not a call
    /// per byte.
    #[doc(hidden)]
    fn put_slice(items: &[Self], w: &mut SnapWriter) {
        for item in items {
            item.put(w);
        }
    }

    /// Read `n` values written by [`Snap::put_slice`]; `n` has passed
    /// the count rule. Reserves no more memory than the bytes left.
    #[doc(hidden)]
    fn get_vec(n: usize, r: &mut SnapReader<'_>) -> Result<Vec<Self>, SnapError> {
        let mut v = Vec::with_capacity(n.min(r.remaining() / size_of::<Self>().max(1)));
        for _ in 0..n {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

/// Append-only little-endian section writer. Infallible: every method
/// just grows the internal buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Empty writer (for a headerless embedded blob).
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Writer primed with a `magic ‖ version` section header.
    pub fn with_header(magic: [u8; 4], version: u8) -> SnapWriter {
        let mut w = SnapWriter::new();
        w.raw(&magic);
        w.buf.push(version);
        w
    }

    /// Append any [`Snap`] value.
    #[inline]
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.put(self);
    }

    /// Append a count-prefixed sequence — the same image as a `Vec` of
    /// the items, without collecting one.
    pub fn put_seq<'x, T, I>(&mut self, items: I)
    where
        T: Snap + 'x,
        I: IntoIterator<Item = &'x T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put(&items.len());
        for item in items {
            item.put(self);
        }
    }

    /// Append a count-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.put(&v.len());
        self.raw(v);
    }

    /// Append a count-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append bytes with no prefix (the reader knows the width from the
    /// schema).
    #[inline]
    fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Take the finished section.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based section reader; every method validates bounds and tags.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader over a headerless embedded blob.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Reader that first validates a `magic ‖ version` section header.
    pub fn with_header(
        buf: &'a [u8],
        magic: [u8; 4],
        version: u8,
    ) -> Result<SnapReader<'a>, SnapError> {
        let mut r = SnapReader::new(buf);
        let found = r.array::<4>()?;
        if found != magic {
            return Err(SnapError::BadMagic {
                expected: magic,
                found,
            });
        }
        let v = r.get::<u8>()?;
        if v != version {
            return Err(SnapError::BadVersion {
                expected: version,
                found: v,
            });
        }
        Ok(r)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read any [`Snap`] value.
    #[inline]
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::get(self)
    }

    /// Read an element count, enforcing the count rule: no element
    /// encodes to zero bytes, so a count above [`SnapReader::remaining`]
    /// cannot be honest.
    #[inline]
    pub fn count(&mut self) -> Result<usize, SnapError> {
        let at = self.pos;
        let n = self.get::<usize>()?;
        if n > self.remaining() {
            return Err(SnapError::Truncated { at });
        }
        Ok(n)
    }

    /// Read a count-prefixed byte string without copying it.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Read a count-prefixed UTF-8 string without copying it.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("non-UTF-8 string"))
    }

    /// Read a fixed-width array written by [`SnapWriter::raw`].
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let at = self.pos;
        self.take(N)?
            .try_into()
            .map_err(|_| SnapError::Truncated { at })
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the section was fully consumed — trailing bytes mean the
    /// schema and the buffer disagree.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after snapshot"))
        }
    }
}

macro_rules! snap_le {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                w.raw(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut SnapReader<'_>) -> Result<$t, SnapError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

snap_le!(u16, u32, u64, i64);

impl Snap for u8 {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        w.raw(&[*self]);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<u8, SnapError> {
        Ok(r.take(1)?[0])
    }
    fn put_slice(items: &[u8], w: &mut SnapWriter) {
        w.raw(items);
    }
    fn get_vec(n: usize, r: &mut SnapReader<'_>) -> Result<Vec<u8>, SnapError> {
        r.take(n).map(<[u8]>::to_vec)
    }
}

/// `usize` travels as a `u64` so images are word-size independent.
impl Snap for usize {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        w.put(&(*self as u64));
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<usize, SnapError> {
        usize::try_from(r.get::<u64>()?).map_err(|_| SnapError::Corrupt("usize overflows platform"))
    }
}

/// By IEEE-754 bit pattern: byte-exact, NaN payloads included.
impl Snap for f64 {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.to_bits());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<f64, SnapError> {
        Ok(f64::from_bits(r.get()?))
    }
}

impl Snap for bool {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        w.put(&(*self as u8));
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<bool, SnapError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte out of range")),
        }
    }
}

impl Snap for String {
    fn put(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
        r.str().map(str::to_string)
    }
}

/// Byte arrays are one raw copy with no prefix.
impl<const N: usize> Snap for [u8; N] {
    fn put(&self, w: &mut SnapWriter) {
        w.raw(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<[u8; N], SnapError> {
        r.array()
    }
}

/// As its `u32` (octets big-endian, then little-endian on the wire).
impl Snap for Ipv4Addr {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&u32::from(*self));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Ipv4Addr, SnapError> {
        Ok(Ipv4Addr::from(r.get::<u32>()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        T::put_slice(self, w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapError> {
        let n = r.count()?;
        T::get_vec(n, r)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_seq(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<VecDeque<T>, SnapError> {
        r.get::<Vec<T>>().map(VecDeque::from)
    }
}

/// In ascending order, so the image is a function of the set.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_seq(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<BTreeSet<T>, SnapError> {
        Ok(r.get::<Vec<T>>()?.into_iter().collect())
    }
}

/// Count, then `key ‖ value` pairs in ascending key order.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<BTreeMap<K, V>, SnapError> {
        Ok(r.get::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

macro_rules! snap_tuple {
    ($($t:ident $i:tt),+) => {
        /// Fields in order, no framing.
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn put(&self, w: &mut SnapWriter) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    };
}

snap_tuple!(A 0, B 1);
snap_tuple!(A 0, B 1, C 2);
snap_tuple!(A 0, B 1, C 2, D 3);
snap_tuple!(A 0, B 1, C 2, D 3, E 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = SnapWriter::with_header(*b"TEST", 3);
        w.put(&7u8);
        w.put(&true);
        w.put(&false);
        w.put(&0xBEEFu16);
        w.put(&0xDEAD_BEEFu32);
        w.put(&(u64::MAX - 1));
        w.put(&-5i64);
        w.put(&12_345usize);
        w.put(&-0.125f64);
        w.bytes(b"hello");
        w.str("wörld");
        w.put(&[1u8, 2, 3, 4]);
        w.put(&Ipv4Addr::new(10, 0, 0, 9));
        // Containers, each checked against its documented image below.
        let v = vec![(1u32, true), (2, false)];
        let d: VecDeque<u16> = [5, 6, 7].into_iter().collect();
        let o: (Option<u64>, Option<String>) = (None, Some("x".into()));
        let m: BTreeMap<String, Vec<u8>> = [("a".into(), vec![1]), ("b".into(), vec![])].into();
        let s: BTreeSet<u64> = [9, 3].into();
        let t = (1u8, 2u16, 3u32, 4u64, String::from("five"));
        w.put(&v);
        w.put(&d);
        w.put(&o);
        w.put(&m);
        w.put(&s);
        w.put(&t);
        let buf = w.finish();

        let mut r = SnapReader::with_header(&buf, *b"TEST", 3).unwrap();
        assert_eq!(r.get::<u8>().unwrap(), 7);
        assert!(r.get::<bool>().unwrap());
        assert!(!r.get::<bool>().unwrap());
        assert_eq!(r.get::<u16>().unwrap(), 0xBEEF);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX - 1);
        assert_eq!(r.get::<i64>().unwrap(), -5);
        assert_eq!(r.get::<usize>().unwrap(), 12_345);
        assert_eq!(r.get::<f64>().unwrap(), -0.125);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "wörld");
        assert_eq!(r.array::<4>().unwrap(), [1, 2, 3, 4]);
        assert_eq!(r.get::<Ipv4Addr>().unwrap(), Ipv4Addr::new(10, 0, 0, 9));
        assert_eq!(r.get::<Vec<(u32, bool)>>().unwrap(), v);
        assert_eq!(r.get::<VecDeque<u16>>().unwrap(), d);
        assert_eq!(r.get::<(Option<u64>, Option<String>)>().unwrap(), o);
        assert_eq!(r.get::<BTreeMap<String, Vec<u8>>>().unwrap(), m);
        assert_eq!(r.get::<BTreeSet<u64>>().unwrap(), s);
        assert_eq!(r.get::<(u8, u16, u32, u64, String)>().unwrap(), t);
        r.finish().unwrap();

        // The container images are the hand-written layouts: u64 count,
        // then elements; Option is a 0/1 tag, then the value; a byte
        // vector is a byte string.
        let mut w = SnapWriter::new();
        w.put(&vec![(1u32, true)]);
        w.put(&Some(2u8));
        w.put(&BTreeMap::from([(3u8, 4u8)]));
        w.put(&vec![5u8, 6]);
        let mut want = 1u64.to_le_bytes().to_vec();
        want.extend_from_slice(&[1, 0, 0, 0, 1]);
        want.extend_from_slice(&[1, 2]);
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&[3, 4]);
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&[5, 6]);
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn header_mismatches_are_rejected() {
        let buf = SnapWriter::with_header(*b"AAAA", 1).finish();
        assert!(matches!(
            SnapReader::with_header(&buf, *b"BBBB", 1),
            Err(SnapError::BadMagic { .. })
        ));
        assert!(matches!(
            SnapReader::with_header(&buf, *b"AAAA", 2),
            Err(SnapError::BadVersion {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut w = SnapWriter::new();
        w.put(&42u64);
        let buf = w.finish();

        let mut r = SnapReader::new(&buf[..4]);
        assert_eq!(r.get::<u64>(), Err(SnapError::Truncated { at: 0 }));

        let mut r = SnapReader::new(&buf);
        assert_eq!(r.get::<u32>().unwrap(), 42);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));

        // A count larger than the bytes left is an error for byte
        // strings and every container alike — never a panic or a huge
        // allocation, whatever the count.
        for count in [3u64, 1 << 32, 1 << 63, u64::MAX] {
            let mut w = SnapWriter::new();
            w.put(&count);
            w.raw(&[0, 0]);
            let buf = w.finish();
            let truncated = SnapError::Truncated { at: 0 };
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.bytes().unwrap_err(), truncated);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.get::<Vec<u8>>().unwrap_err(), truncated);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.get::<VecDeque<u64>>().unwrap_err(), truncated);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.get::<BTreeSet<u8>>().unwrap_err(), truncated);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.get::<BTreeMap<u8, (u8, u8)>>().unwrap_err(), truncated);
            let mut r = SnapReader::new(&buf);
            assert_eq!(r.get::<String>().unwrap_err(), truncated);
        }
        // A count within the bytes left but beyond what they decode to
        // fails on the element that runs out.
        let mut w = SnapWriter::new();
        w.put(&2u64);
        w.put(&7u64);
        w.put(&1u8);
        let buf = w.finish();
        assert_eq!(
            SnapReader::new(&buf).get::<Vec<u64>>(),
            Err(SnapError::Truncated { at: 16 })
        );
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = SnapReader::new(&[9]);
        assert_eq!(
            r.get::<bool>(),
            Err(SnapError::Corrupt("bool byte out of range"))
        );
        let mut r = SnapReader::new(&[2, 0]);
        assert_eq!(
            r.get::<Option<u8>>(),
            Err(SnapError::Corrupt("bool byte out of range"))
        );
    }
}
