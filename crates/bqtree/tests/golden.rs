//! Pins the on-disk BQ-Tree format: an FNV-1a digest over `encode_tile` of
//! fixed tiles. Any change to the encoded bytes — node order, code values,
//! literal packing, padding — changes the digest and fails this test.

use zonal_bqtree::{decode_tile, encode_tile};
use zonal_raster::srtm::elevation;
use zonal_raster::TileData;

const SEED: u64 = 20140519;

/// A `rows × cols` tile of synthetic SRTM elevations with `step` degrees
/// per cell, its north-west corner at `(x0, y0)`.
fn dem_tile(rows: usize, cols: usize, x0: f64, y0: f64, step: f64) -> TileData {
    let values = (0..rows * cols)
        .map(|i| {
            elevation(
                SEED,
                x0 + (i % cols) as f64 * step,
                y0 - (i / cols) as f64 * step,
            )
        })
        .collect();
    TileData::new(values, rows, cols)
}

fn noise_tile(side: usize) -> TileData {
    let mut state = 0xDEAD_BEEFu32;
    let values = (0..side * side)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 16) as u16
        })
        .collect();
    TileData::new(values, side, side)
}

/// The fixed tiles: 0.1° DEM tiles at the benchmark's 60 cells/degree
/// (side 6) up to the paper's 3600 (side 360), a white-noise tile (every
/// plane mixed), and a ragged coastal tile whose rows span two 64-bit words.
fn golden_tiles() -> Vec<TileData> {
    let mut tiles: Vec<TileData> = [6usize, 64, 100, 360]
        .iter()
        .map(|&side| dem_tile(side, side, -80.0, 35.1, 0.1 / side as f64))
        .collect();
    tiles.push(noise_tile(96));
    tiles.push(dem_tile(5, 70, -105.5, 30.05, 1.0 / 60.0));
    tiles
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn encoded_bytes_match_golden_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut total = 0usize;
    for tile in golden_tiles() {
        let enc = encode_tile(&tile);
        assert_eq!(decode_tile(&enc), Ok(tile), "lossless");
        fnv1a(&mut hash, &(enc.len() as u64).to_le_bytes());
        fnv1a(&mut hash, &enc);
        total += enc.len();
    }
    assert_eq!(
        (total, hash),
        (111_303, 0xd0c4_01b5_7d3c_37e7),
        "BQ-Tree encoded bytes changed"
    );
}
