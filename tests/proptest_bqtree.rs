//! Property tests for the BQ-Tree codec: lossless round-trip over adversarial
//! tile shapes and value distributions, and no panic from corrupt ZBQT
//! or ZRAS bytes.

use proptest::prelude::*;
use zonal_histo::bqtree::file::{read_bq, write_bq};
use zonal_histo::bqtree::{compress_source, decode_tile, encode_tile};
use zonal_histo::raster::io::{read_raster, write_raster};
use zonal_histo::raster::srtm::SyntheticSrtm;
use zonal_histo::raster::{GeoTransform, Raster, TileData, TileGrid, TileSource};

/// Tile sides run past 128 so that rows span one, two and three 64-bit
/// bitmap words.
const MAX_SIDE: usize = 140;

fn tile_strategy() -> impl Strategy<Value = TileData> {
    (1usize..MAX_SIDE, 1usize..MAX_SIDE).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(any::<u16>(), rows * cols)
            .prop_map(move |values| TileData::new(values, rows, cols))
    })
}

/// Low-entropy tiles: few distinct values, like classified land-cover
/// rasters (the other data family the paper's technique targets).
fn low_entropy_tile() -> impl Strategy<Value = TileData> {
    (
        1usize..MAX_SIDE,
        1usize..MAX_SIDE,
        prop::collection::vec(0u16..4, 1..4),
    )
        .prop_flat_map(|(rows, cols, alphabet)| {
            prop::collection::vec(0usize..alphabet.len(), rows * cols).prop_map(move |idx| {
                TileData::new(idx.iter().map(|&i| alphabet[i]).collect(), rows, cols)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_arbitrary(tile in tile_strategy()) {
        let enc = encode_tile(&tile);
        prop_assert_eq!(decode_tile(&enc), Ok(tile));
    }

    #[test]
    fn roundtrip_low_entropy_and_compresses(tile in low_entropy_tile()) {
        let enc = encode_tile(&tile);
        prop_assert_eq!(decode_tile(&enc), Ok(tile.clone()));
        // With ≤ 4 distinct small values, 14 of 16 planes are uniform zero:
        // sizable tiles must compress.
        if tile.len() >= 256 {
            prop_assert!(
                enc.len() < tile.len() * 2,
                "low-entropy tile should beat raw: {} vs {}",
                enc.len(),
                tile.len() * 2
            );
        }
    }

    #[test]
    fn encoding_is_deterministic(tile in tile_strategy()) {
        prop_assert_eq!(encode_tile(&tile), encode_tile(&tile));
    }

    #[test]
    fn header_carries_shape(tile in tile_strategy()) {
        let enc = encode_tile(&tile);
        let dec = decode_tile(&enc).expect("encoder output decodes");
        prop_assert_eq!(dec.rows, tile.rows);
        prop_assert_eq!(dec.cols, tile.cols);
    }
}

/// A small synthetic-SRTM raster, serialized as a ZBQT file.
fn zbqt_file() -> Vec<u8> {
    let grid = TileGrid::new(20, 27, 8, GeoTransform::new(-80.0, 35.0, 0.01, 0.01));
    let bq = compress_source(&SyntheticSrtm::new(grid, 7));
    let mut bytes = Vec::new();
    write_bq(&mut bytes, &bq).expect("in-memory write");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Truncating a ZBQT file or flipping its bytes either fails to load,
    /// or loads a raster whose every tile decodes.
    #[test]
    fn corrupt_zbqt_is_rejected_or_decodes(
        truncate in prop::bool::ANY,
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
    ) {
        let mut bytes = zbqt_file();
        if truncate {
            bytes.truncate(cut % bytes.len());
        }
        for (at, mask) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        if let Ok(bq) = read_bq(&mut bytes.as_slice()) {
            for t in bq.grid_ref().iter() {
                let tile = bq.tile(t.tx, t.ty);
                prop_assert_eq!((tile.rows, tile.cols), (t.rows, t.cols));
            }
        }
    }

    /// Truncating a ZRAS file or flipping its bytes either fails to
    /// load, or loads a raster of the shape its header states.
    #[test]
    fn corrupt_zras_is_rejected_or_has_stated_shape(
        truncate in prop::bool::ANY,
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
    ) {
        let mut bytes = zras_file();
        if truncate {
            bytes.truncate(cut % bytes.len());
        }
        for (at, mask) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        if let Ok(raster) = read_raster(&mut bytes.as_slice()) {
            let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let (rows, cols) = (field(8), field(16));
            prop_assert_eq!((raster.rows() as u64, raster.cols() as u64), (rows, cols));
            prop_assert_eq!(raster.data().len() as u64, rows * cols);
        }
    }
}

/// A small raster with a nodata value, serialized as a ZRAS file.
fn zras_file() -> Vec<u8> {
    let gt = GeoTransform::new(-80.0, 35.0, 0.01, 0.01);
    let raster = Raster::from_fn(9, 14, gt, |r, c| (r * 14 + c) as u16).with_nodata(7);
    let mut bytes = Vec::new();
    write_raster(&mut bytes, &raster).expect("in-memory write");
    bytes
}
