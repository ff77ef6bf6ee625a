//! BQ-Tree compression explorer (the paper's §IV.B storage layer).
//!
//! Encodes synthetic SRTM tiles at several tile sizes and terrain regimes,
//! showing where the bitplane-quadtree idea wins (smooth high planes
//! collapse to single nodes) and where it loses (noise), plus the PCIe
//! transfer-time argument the paper makes for compressing at all.
//!
//! ```text
//! cargo run --release --example compression_explorer
//! ```

use zonal_histo::bqtree::{decode_tile, encode_tile};
use zonal_histo::raster::srtm::elevation;
use zonal_histo::raster::TileData;

fn dem_tile(side: usize, lon0: f64, lat0: f64, cells_per_degree: f64, seed: u64) -> TileData {
    let step = 1.0 / cells_per_degree;
    let values = (0..side * side)
        .map(|i| {
            let (r, c) = (i / side, i % side);
            elevation(seed, lon0 + c as f64 * step, lat0 + r as f64 * step)
        })
        .collect();
    TileData::new(values, side, side)
}

fn main() {
    let seed = 20140519;
    println!("== tile size sweep (mountainous CONUS interior, native 3600 c/deg) ==");
    println!(
        "{:>8} {:>12} {:>12} {:>8}",
        "side", "raw B", "encoded B", "ratio"
    );
    for side in [16usize, 64, 128, 256, 360, 512] {
        let tile = dem_tile(side, -106.0, 39.0, 3600.0, seed);
        let enc = encode_tile(&tile);
        assert_eq!(decode_tile(&enc), Ok(tile), "lossless round-trip");
        let raw = side * side * 2;
        println!(
            "{:>8} {:>12} {:>12} {:>7.1}%",
            side,
            raw,
            enc.len(),
            100.0 * enc.len() as f64 / raw as f64
        );
    }

    println!("\n== terrain regimes (360x360 native tiles) ==");
    let regimes: [(&str, f64, f64); 4] = [
        ("ocean (all no-data)", -124.9, 24.05),
        ("coastal mix", -122.0, 36.0),
        ("plains", -98.0, 41.0),
        ("mountains", -106.0, 39.0),
    ]
    .map(|(n, lon, lat)| (n, lon, lat));
    for (name, lon, lat) in regimes {
        let tile = dem_tile(360, lon, lat, 3600.0, seed);
        let enc = encode_tile(&tile);
        let nodata = tile
            .values
            .iter()
            .filter(|&&v| v == zonal_histo::raster::NODATA)
            .count();
        println!(
            "{:<22} encoded {:>7} B ({:>5.1}% of raw), {:>5.1}% no-data",
            name,
            enc.len(),
            100.0 * enc.len() as f64 / (360.0 * 360.0 * 2.0),
            100.0 * nodata as f64 / (360.0 * 360.0)
        );
    }

    println!("\n== the transfer argument (paper §IV.B) ==");
    // Sample the native ratio over CONUS and price the full raster's PCIe
    // transfer both ways.
    let mut raw = 0u64;
    let mut enc = 0u64;
    for k in 0..16 {
        let tile = dem_tile(
            360,
            -120.0 + (k % 4) as f64 * 12.0,
            27.0 + (k / 4) as f64 * 5.0,
            3600.0,
            seed,
        );
        raw += (tile.len() * 2) as u64;
        enc += encode_tile(&tile).len() as u64;
    }
    let ratio = enc as f64 / raw as f64;
    let full_raw_gb = 20_165_760_000.0 * 2.0 / 1e9;
    let pcie = 2.5; // GB/s, the paper's assumed sustained rate
    println!("sampled native ratio: {:.1}% of raw", ratio * 100.0);
    println!(
        "full 20.1-Gcell raster over PCIe at {pcie} GB/s: raw {:.1}s vs compressed {:.1}s",
        full_raw_gb / pcie,
        full_raw_gb * ratio / pcie
    );
    println!(
        "(the paper: 40 GB -> 7.3 GB turns ~16s of transfer into ~3s, offsetting decode cost)"
    );
}
