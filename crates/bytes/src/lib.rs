//! Minimal drop-in for the subset of the [`bytes`](https://crates.io/crates/bytes)
//! crate API that the storage and logic codecs use.
//!
//! The workspace builds fully offline, so the real crate cannot be
//! fetched; this local package shadows it with compatible semantics:
//! little-endian get/put accessors, `copy_to_slice` advancing the cursor,
//! and `Buf` implemented for `&[u8]` by shrinking the slice from the
//! front. Swapping back to the real crate is a one-line `Cargo.toml`
//! change — no call site mentions anything beyond this shared surface.

use std::ops::Deref;

/// Read-side cursor abstraction (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Copy `dst.len()` bytes out, advancing the cursor.
    ///
    /// # Panics
    /// Panics if fewer than `dst.len()` bytes remain (as the real crate
    /// does) — decoders bounds-check with [`Buf::remaining`] first.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Consume one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Consume a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Consume a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Consume a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.len() >= dst.len(),
            "copy_to_slice: need {} bytes, have {}",
            dst.len(),
            self.len()
        );
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Write-side abstraction (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// Growable byte buffer (subset of `bytes::BytesMut`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Freeze into an immutable read cursor.
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: 0,
        }
    }

    /// Copy out as a plain vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Plain vectors are write targets too (as in the real crate), so an
/// encoder can append to a buffer its caller owns and reuses.
impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Immutable buffer with a read cursor (subset of `bytes::Bytes`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Bytes left in view (same as [`Buf::remaining`]).
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of the unconsumed bytes, cursor at its start.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes {
            data: self.data[self.pos + range.start..self.pos + range.end].to_vec(),
            pos: 0,
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "copy_to_slice: need {} bytes, have {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_bytesmut_and_freeze() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_i64_le(-42);
        buf.put_u64_le(u64::MAX);
        buf.put_slice(b"hi");
        assert_eq!(buf.len(), 1 + 4 + 8 + 8 + 2);

        let mut frozen = buf.clone().freeze();
        assert_eq!(frozen.get_u8(), 7);
        assert_eq!(frozen.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(frozen.get_i64_le(), -42);
        assert_eq!(frozen.get_u64_le(), u64::MAX);
        let mut tail = [0u8; 2];
        frozen.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"hi");
        assert_eq!(frozen.remaining(), 0);

        // The slice impl advances by reslicing, same values out.
        let v = buf.to_vec();
        let mut slice: &[u8] = &v;
        assert_eq!(slice.get_u8(), 7);
        assert_eq!(slice.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(slice.remaining(), v.len() - 5);
    }

    #[test]
    #[should_panic(expected = "copy_to_slice")]
    fn overread_panics_like_the_real_crate() {
        let mut slice: &[u8] = &[1, 2];
        let _ = slice.get_u32_le();
    }
}
