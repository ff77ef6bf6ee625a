//! Per-tile BQ-Tree encode/decode.

use crate::bits::{BitReader, BitWriter};
use crate::plane::Bitmap;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use zonal_raster::TileData;

/// Node codes in the quadtree bitstream.
const CODE_ZERO: u32 = 0;
const CODE_ONE: u32 = 1;
const CODE_MIXED: u32 = 2;

/// Leaf side at which mixed regions switch to literal bitmaps.
const LITERAL_SIDE: usize = 4;

/// Number of bitplanes in a `u16` tile.
const PLANES: u32 = 16;

fn encode_region(bm: &Bitmap, w: &mut BitWriter, r0: usize, c0: usize, size: usize) {
    match bm.region_uniform(r0, c0, size) {
        Some(false) => w.put(CODE_ZERO, 2),
        Some(true) => w.put(CODE_ONE, 2),
        None => {
            w.put(CODE_MIXED, 2);
            if size == LITERAL_SIDE {
                w.put(bm.literal16(r0, c0) as u32, 16);
            } else {
                let h = size / 2;
                encode_region(bm, w, r0, c0, h);
                encode_region(bm, w, r0, c0 + h, h);
                encode_region(bm, w, r0 + h, c0, h);
                encode_region(bm, w, r0 + h, c0 + h, h);
            }
        }
    }
}

/// Encode a tile into a self-contained byte buffer.
///
/// ```
/// use zonal_bqtree::{decode_tile, encode_tile};
/// use zonal_raster::TileData;
///
/// let tile = TileData::filled(1200, 64, 64);          // constant elevation
/// let encoded = encode_tile(&tile);
/// assert_eq!(encoded.len(), 8, "constant 64x64 tile: header + 16 leaf codes");
/// assert_eq!(decode_tile(&encoded), Ok(tile), "lossless");
/// ```
pub fn encode_tile(tile: &TileData) -> Bytes {
    assert!(
        tile.rows > 0 && tile.cols > 0,
        "cannot encode an empty tile"
    );
    assert!(
        tile.rows <= u16::MAX as usize && tile.cols <= u16::MAX as usize,
        "tile dimension exceeds the u16 header"
    );
    let mut header = BytesMut::with_capacity(4);
    header.put_u16(tile.rows as u16);
    header.put_u16(tile.cols as u16);

    let side = Bitmap::side_for(tile.rows, tile.cols);
    let mut w = BitWriter::new();
    for plane in 0..PLANES {
        let bm = Bitmap::from_plane(&tile.values, tile.rows, tile.cols, plane);
        encode_region(&bm, &mut w, 0, 0, side);
    }
    let mut out = header;
    out.extend_from_slice(&w.finish());
    out.freeze()
}

/// Why a byte stream is not a BQ-Tree tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than the 4 header bytes.
    TruncatedHeader,
    /// The bitstream ends before all 16 plane quadtrees do.
    Underrun,
    /// A 2-bit node code of 3, which no encoder writes.
    BadNodeCode,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeError::TruncatedHeader => "truncated BQ-Tree tile header",
            DecodeError::Underrun => "BQ-Tree bitstream underrun",
            DecodeError::BadNodeCode => "BQ-Tree node code 3",
        })
    }
}

impl std::error::Error for DecodeError {}

/// Where a plane walk puts the ones it finds. Regions are squares of the
/// padded plane; a sink crops them to the tile itself.
trait PlaneSink {
    /// An all-ones node: every cell of the region has bit `bit` set.
    fn ones(&mut self, bit: u16, r0: usize, c0: usize, size: usize);
    /// A 4×4 literal leaf, row-major LSB-first like [`Bitmap::literal16`].
    fn literal(&mut self, bit: u16, r0: usize, c0: usize, bits: u16);
}

/// Validation: walk the stream, write nothing.
impl PlaneSink for () {
    fn ones(&mut self, _: u16, _: usize, _: usize, _: usize) {}
    fn literal(&mut self, _: u16, _: usize, _: usize, _: u16) {}
}

/// Decode: OR each plane's bit straight into the tile's row-major values.
struct TileSink<'a> {
    values: &'a mut [u16],
    rows: usize,
    cols: usize,
}

impl PlaneSink for TileSink<'_> {
    fn ones(&mut self, bit: u16, r0: usize, c0: usize, size: usize) {
        if c0 >= self.cols {
            return; // wholly in the column padding
        }
        let c1 = (c0 + size).min(self.cols);
        for r in r0..(r0 + size).min(self.rows) {
            let row = r * self.cols;
            for v in &mut self.values[row + c0..row + c1] {
                *v |= bit;
            }
        }
    }

    fn literal(&mut self, bit: u16, r0: usize, c0: usize, bits: u16) {
        if c0 >= self.cols {
            return;
        }
        let c1 = (c0 + LITERAL_SIDE).min(self.cols);
        // Branch-free per cell: literal bits are close to noise, so a
        // loop over just the set bits mispredicts.
        for (dr, r) in (r0..(r0 + LITERAL_SIDE).min(self.rows)).enumerate() {
            let nibble = bits >> (4 * dr);
            let row = r * self.cols;
            for (dc, v) in self.values[row + c0..row + c1].iter_mut().enumerate() {
                *v |= bit * ((nibble >> dc) & 1);
            }
        }
    }
}

/// Walk one quadtree node (and its subtree) of the plane for `bit`.
fn walk_region<S: PlaneSink>(
    r: &mut BitReader<'_>,
    sink: &mut S,
    bit: u16,
    r0: usize,
    c0: usize,
    size: usize,
) -> Result<(), DecodeError> {
    match r.get(2).ok_or(DecodeError::Underrun)? {
        CODE_ZERO => {}
        CODE_ONE => sink.ones(bit, r0, c0, size),
        CODE_MIXED if size == LITERAL_SIDE => {
            let bits = r.get(16).ok_or(DecodeError::Underrun)?;
            sink.literal(bit, r0, c0, bits as u16);
        }
        CODE_MIXED => {
            let h = size / 2;
            walk_region(r, sink, bit, r0, c0, h)?;
            walk_region(r, sink, bit, r0, c0 + h, h)?;
            walk_region(r, sink, bit, r0 + h, c0, h)?;
            walk_region(r, sink, bit, r0 + h, c0 + h, h)?;
        }
        _ => return Err(DecodeError::BadNodeCode),
    }
    Ok(())
}

/// Split a tile into its `(rows, cols)` header and its bitstream.
fn split_header(mut data: &[u8]) -> Result<(usize, usize, &[u8]), DecodeError> {
    if data.len() < 4 {
        return Err(DecodeError::TruncatedHeader);
    }
    let rows = data.get_u16() as usize;
    let cols = data.get_u16() as usize;
    Ok((rows, cols, data))
}

/// Walk all 16 plane quadtrees of a tile's bitstream into `sink`.
fn walk_planes<S: PlaneSink>(
    body: &[u8],
    rows: usize,
    cols: usize,
    sink: &mut S,
) -> Result<(), DecodeError> {
    let side = Bitmap::side_for(rows, cols);
    let mut r = BitReader::new(body);
    for plane in 0..PLANES {
        walk_region(&mut r, sink, 1 << plane, 0, 0, side)?;
    }
    Ok(())
}

/// Decode a tile previously produced by [`encode_tile`].
///
/// Never fails on the output of [`encode_tile`], nor on a tile that
/// [`validate_tile`] accepted: both walk the stream the same way.
pub fn decode_tile(data: &[u8]) -> Result<TileData, DecodeError> {
    let (rows, cols, body) = split_header(data)?;
    let mut values = vec![0u16; rows * cols];
    let mut sink = TileSink {
        values: &mut values,
        rows,
        cols,
    };
    walk_planes(body, rows, cols, &mut sink)?;
    Ok(TileData::new(values, rows, cols))
}

/// Check that `data` decodes, without decoding it; returns its
/// `(rows, cols)` header.
pub fn validate_tile(data: &[u8]) -> Result<(usize, usize), DecodeError> {
    let (rows, cols, body) = split_header(data)?;
    walk_planes(body, rows, cols, &mut ())?;
    Ok((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tile: &TileData) -> usize {
        let enc = encode_tile(tile);
        let dec = decode_tile(&enc).expect("encoder output decodes");
        assert_eq!(&dec, tile);
        enc.len()
    }

    #[test]
    fn constant_tile_compresses_to_header_plus_codes() {
        let tile = TileData::filled(1234, 64, 64);
        let n = roundtrip(&tile);
        // 16 planes × 2 bits + 4-byte header = 8 bytes. Far below raw 8 KiB.
        assert_eq!(n, 4 + 4);
    }

    #[test]
    fn zero_tile() {
        let tile = TileData::filled(0, 32, 32);
        assert_eq!(roundtrip(&tile), 8);
    }

    #[test]
    fn all_nodata_tile() {
        let tile = TileData::filled(u16::MAX, 128, 128);
        assert_eq!(roundtrip(&tile), 8, "all-ones planes are single nodes");
    }

    #[test]
    fn ragged_tile_roundtrip() {
        let tile = TileData::new((0..35u16).collect(), 5, 7);
        roundtrip(&tile);
    }

    #[test]
    fn single_cell_tile() {
        let tile = TileData::new(vec![0xABCD], 1, 1);
        roundtrip(&tile);
    }

    #[test]
    fn random_tile_roundtrip_and_size() {
        // Worst case: white noise. Must still round-trip; size may exceed raw.
        let mut state = 0x1234_5678_u32;
        let values: Vec<u16> = (0..64 * 64)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 16) as u16
            })
            .collect();
        let tile = TileData::new(values, 64, 64);
        let n = roundtrip(&tile);
        let raw = 64 * 64 * 2;
        // Noise costs ≈ (2 + 16)/16 bits per cell per plane ≈ 1.13× raw + tree overhead.
        assert!(
            n < raw * 2,
            "even noise stays under 2× raw, got {n} vs {raw}"
        );
    }

    #[test]
    fn smooth_gradient_compresses_well() {
        // DEM-like: smooth horizontal gradient 0..255 over a 256-wide tile.
        let rows = 128;
        let cols = 256;
        let values: Vec<u16> = (0..rows * cols).map(|i| (i % cols) as u16).collect();
        let tile = TileData::new(values, rows, cols);
        let enc = encode_tile(&tile);
        let raw = rows * cols * 2;
        let ratio = enc.len() as f64 / raw as f64;
        assert!(
            ratio < 0.35,
            "gradient should compress to <35% of raw, got {ratio:.2}"
        );
        assert_eq!(decode_tile(&enc), Ok(tile));
    }

    #[test]
    fn structured_tile_roundtrip() {
        // Half water (NODATA) / half terrace values: exercises large
        // all-ones nodes and mixed nodes.
        let rows = 96;
        let cols = 80;
        let values: Vec<u16> = (0..rows)
            .flat_map(|r| {
                (0..cols).map(move |c| {
                    if c < cols / 2 {
                        u16::MAX
                    } else {
                        ((r / 8) * 100) as u16
                    }
                })
            })
            .collect();
        roundtrip(&TileData::new(values, rows, cols));
    }

    #[test]
    fn truncated_header_is_an_error() {
        assert_eq!(decode_tile(&[0u8, 1]), Err(DecodeError::TruncatedHeader));
        assert_eq!(validate_tile(&[0u8, 1]), Err(DecodeError::TruncatedHeader));
    }

    #[test]
    fn corrupt_streams_are_errors() {
        let tile = TileData::new((0..35u16).map(|v| v * 1871).collect(), 5, 7);
        let enc = encode_tile(&tile);
        assert_eq!(validate_tile(&enc), Ok((5, 7)));
        for len in 4..enc.len() {
            assert_eq!(
                decode_tile(&enc[..len]),
                Err(DecodeError::Underrun),
                "len {len}"
            );
            assert_eq!(validate_tile(&enc[..len]), Err(DecodeError::Underrun));
        }
        // The first node code of plane 0 is the low 2 bits of byte 4.
        let mut bad = enc.to_vec();
        bad[4] |= 0b11;
        assert_eq!(decode_tile(&bad), Err(DecodeError::BadNodeCode));
        assert_eq!(validate_tile(&bad), Err(DecodeError::BadNodeCode));
    }

    #[test]
    fn ones_outside_the_tile_are_cropped() {
        // A 5×7 tile pads to 8×8. Plane 0 is one all-ones root node, and
        // every other plane is all zeros; the padding cells must not be
        // written (or indexed) on decode.
        let mut w = BitWriter::new();
        w.put(CODE_ONE, 2);
        for _ in 1..PLANES {
            w.put(CODE_ZERO, 2);
        }
        let mut data = vec![0, 5, 0, 7];
        data.extend_from_slice(&w.finish());
        assert_eq!(decode_tile(&data), Ok(TileData::filled(1, 5, 7)));
    }
}
