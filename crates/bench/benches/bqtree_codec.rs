//! §IV.B bench: BQ-Tree encode/decode throughput on DEM-like tiles
//! (Step 0's cost) across tile sizes and data regimes. A 0.1° tile is
//! side 6 at 60 cells/degree (the repository benchmark's rasters) and side
//! 360 at the paper's native 3600 cells/degree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use zonal_bench::SEED;
use zonal_bqtree::{decode_tile, encode_tile};
use zonal_raster::srtm::elevation;
use zonal_raster::TileData;

fn dem_tile(side: usize) -> TileData {
    let step = 0.1 / side as f64;
    let values = (0..side * side)
        .map(|i| {
            let (r, c) = (i / side, i % side);
            elevation(SEED, -80.0 + c as f64 * step, 35.0 + r as f64 * step)
        })
        .collect();
    TileData::new(values, side, side)
}

fn noise_tile(side: usize) -> TileData {
    let mut state = 0xDEAD_BEEFu32;
    let values = (0..side * side)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 17) as u16
        })
        .collect();
    TileData::new(values, side, side)
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("bqtree");
    g.sample_size(20);
    for side in [6usize, 64, 128, 256, 360] {
        let tile = dem_tile(side);
        g.throughput(Throughput::Bytes((side * side * 2) as u64));
        g.bench_with_input(BenchmarkId::new("encode_dem", side), &tile, |b, t| {
            b.iter(|| encode_tile(t).len())
        });
        let enc = encode_tile(&tile);
        g.bench_with_input(BenchmarkId::new("decode_dem", side), &enc, |b, e| {
            b.iter(|| decode_tile(e).expect("encoder output").values.len())
        });
    }
    // Worst case: white noise (all planes mixed).
    let noisy = noise_tile(128);
    g.bench_function("encode_noise_128", |b| b.iter(|| encode_tile(&noisy).len()));
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
