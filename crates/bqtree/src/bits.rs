//! Bit-granular writer/reader over byte buffers.
//!
//! The BQ-Tree bitstream mixes 2-bit node codes with 16-bit literal leaves;
//! these helpers keep that packing honest and testable in isolation.

use bytes::{BufMut, Bytes, BytesMut};

/// Append-only bit writer. Bits are packed LSB-first within each byte.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: BytesMut,
    /// Bits already used in the trailing partial byte (0..8).
    partial: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.partial as usize
        }
    }

    /// Write the low `n` bits of `v` (n ≤ 32), LSB-first.
    pub fn put(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || v < (1u32 << n), "value {v} wider than {n} bits");
        let mut v = v as u64;
        let mut n = n;
        while n > 0 {
            if self.partial == 0 {
                self.buf.put_u8(0);
            }
            let free = 8 - self.partial;
            let take = free.min(n);
            let byte_idx = self.buf.len() - 1;
            let mask = ((1u64 << take) - 1) & v;
            self.buf[byte_idx] |= (mask as u8) << self.partial;
            v >>= take;
            n -= take;
            self.partial = (self.partial + take) % 8;
        }
    }

    /// Finish, returning the packed bytes (trailing bits zero-padded).
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Reader matching [`BitWriter`]'s packing.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read `n` bits (n ≤ 32), LSB-first, or `None` past the end.
    ///
    /// One little-endian word load covers any 32-bit field: it starts at
    /// the cursor's byte, and at most 7 + 32 bits of it are used.
    #[inline]
    pub fn get(&mut self, n: u32) -> Option<u32> {
        debug_assert!(n <= 32);
        let byte = self.pos / 8;
        let word = match self.data.get(byte..byte + 8) {
            // 8 whole bytes hold the field, so it cannot run past the end.
            Some(w) => u64::from_le_bytes(w.try_into().expect("slice of 8 bytes")),
            None => {
                if self.remaining() < n as usize {
                    return None;
                }
                // Within 8 bytes of the end: zero-pad a copy of the tail.
                let mut w = [0u8; 8];
                let tail = &self.data[byte..];
                w[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(w)
            }
        };
        let bits = (word >> (self.pos % 8)) & ((1u64 << n) - 1);
        self.pos += n as usize;
        Some(bits as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b10, 2);
        w.put(0b1, 1);
        w.put(0xBEEF, 16);
        w.put(0b101, 3);
        w.put(0xFFFF_FFFF, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(2), Some(0b10));
        assert_eq!(r.get(1), Some(0b1));
        assert_eq!(r.get(16), Some(0xBEEF));
        assert_eq!(r.get(3), Some(0b101));
        assert_eq!(r.get(32), Some(0xFFFF_FFFF));
    }

    #[test]
    fn bit_len_accounting() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.put(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.put(3, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn many_two_bit_codes() {
        let codes: Vec<u32> = (0..1000).map(|i| i % 3).collect();
        let mut w = BitWriter::new();
        for &c in &codes {
            w.put(c, 2);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 250);
        let mut r = BitReader::new(&bytes);
        for &c in &codes {
            assert_eq!(r.get(2), Some(c));
        }
    }

    #[test]
    fn padding_is_zero() {
        let mut w = BitWriter::new();
        w.put(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes[0], 0b0000_0001);
    }

    #[test]
    fn underrun_is_none() {
        let bytes = [0xA5u8; 1];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3), Some(0b101));
        assert_eq!(r.get(6), None, "a failed read must not move the cursor");
        assert_eq!(r.get(5), Some(0b10100));
        assert_eq!(r.get(1), None);
    }

    #[test]
    fn word_loads_near_the_end() {
        // A 32-bit field at every bit offset, read both through the padded
        // tail load (fewer than 8 bytes from the end) and the plain one.
        for skip in 0..8u32 {
            for tail in 0..6usize {
                let mut w = BitWriter::new();
                w.put(0, skip);
                w.put(0xDEAD_BEEF, 32);
                let mut bytes = w.finish().to_vec();
                bytes.extend(std::iter::repeat_n(0xFF, tail));
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.get(skip), Some(0));
                assert_eq!(r.get(32), Some(0xDEAD_BEEF), "skip {skip} tail {tail}");
            }
        }
    }

    #[test]
    fn remaining_tracks_reads() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 32);
        r.get(5).expect("in range");
        assert_eq!(r.remaining(), 27);
        assert_eq!(r.position(), 5);
    }
}
