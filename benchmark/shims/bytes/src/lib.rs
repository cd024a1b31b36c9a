//! Stand-in for the slice of `bytes` 1.x that `bs-dns::wire` uses: a
//! growable buffer with big-endian writers, and big-endian readers
//! over `&[u8]`. Like the published crate, the readers panic when the
//! slice is too short; the codec checks `remaining()` first.

use std::ops::{Deref, DerefMut};

/// A growable byte buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

/// Big-endian writers.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Big-endian readers that consume from the front.
pub trait Buf {
    /// Bytes left.
    fn remaining(&self) -> usize;

    /// Skip `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copy out `dst.len()` bytes and skip them.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_round_trip() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u8(7);
        b.put_u16(0xC00C);
        b.put_u32(0xDEAD_BEEF);
        b.put_slice(b"xy");
        b[0..1].copy_from_slice(&[9]);
        let v = b.to_vec();
        let mut r: &[u8] = &v;
        assert_eq!(r.remaining(), 9);
        assert_eq!(r.get_u8(), 9);
        assert_eq!(r.get_u16(), 0xC00C);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        r.advance(1);
        assert_eq!(r, b"y");
    }
}
