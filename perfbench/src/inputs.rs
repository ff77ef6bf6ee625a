//! Input preparation shared by the workloads: the zone layer, synthetic
//! SRTM partitions, and their BQ-Tree encoding — each timed on its own
//! so the traced run can report the layers separately.

use std::time::Instant;

use zonal_bqtree::BqRaster;
use zonal_core::pipeline::Zones;
use zonal_raster::partition::Partition;
use zonal_raster::srtm::{elevation, SyntheticSrtm, NODATA};
use zonal_raster::{TileData, TileGrid, TileSource};

use crate::{Size, DEFAULT_SEED};

/// The zone layer: the ~3,100-zone US-like county layer at full size, a
/// 40-zone layer of the same structure for smoke runs. Like the real
/// county layer it stands for, it is one fixed dataset (built from the
/// default seed); the workload seed varies the terrain and the queries.
pub fn zones(size: Size) -> Zones {
    let _span = zonal_obs::span("geo.zones");
    match size {
        Size::Full => zonal_bench::us_zones(),
        Size::Tiny => zonal_bench::small_zones(8, 5, 1),
    }
}

/// A partition's synthetic tiles held in memory, so generation and
/// encoding can be timed apart.
pub struct Materialized {
    grid: TileGrid,
    tiles: Vec<TileData>,
}

impl TileSource for Materialized {
    fn grid(&self) -> &TileGrid {
        &self.grid
    }

    fn tile(&self, tx: usize, ty: usize) -> TileData {
        self.tiles[self.grid.tile_id(tx, ty)].clone()
    }
}

/// Share of land (non-NODATA) in `parts` for a terrain seed, sampled
/// every quarter degree.
pub fn land_fraction(parts: &[Partition], terrain_seed: u64) -> f64 {
    const STEP: f64 = 0.25;
    let (mut land, mut all) = (0u64, 0u64);
    for part in parts {
        let e = part.extent();
        let mut y = e.min_y + STEP / 2.0;
        while y < e.max_y {
            let mut x = e.min_x + STEP / 2.0;
            while x < e.max_x {
                land += u64::from(elevation(terrain_seed, x, y) != NODATA);
                all += 1;
                x += STEP;
            }
            y += STEP;
        }
    }
    land as f64 / all.max(1) as f64
}

/// Largest land-share difference from the default terrain a workload
/// seed's terrain may have.
pub const LAND_TOLERANCE: f64 = 0.02;

/// The terrain seed for a workload seed: the first of `seed` and its
/// splitmix64 successors, other than `avoid`, whose terrain gives `parts`
/// the default terrain's land share within [`LAND_TOLERANCE`].
///
/// The synthetic continent mask varies on a ~20° scale, so an arbitrary
/// seed can turn the same partitions from all land into mostly sea and
/// change the work by a factor of several. Holding the land share fixed
/// keeps the workload's size the same for every seed while the terrain
/// itself (coastlines, relief, values) still comes from the seed.
pub fn terrain_seed(seed: u64, parts: &[Partition], avoid: Option<u64>) -> u64 {
    let target = land_fraction(parts, DEFAULT_SEED);
    let mut candidate = seed;
    loop {
        if Some(candidate) != avoid
            && (land_fraction(parts, candidate) - target).abs() <= LAND_TOLERANCE
        {
            return candidate;
        }
        candidate = splitmix64(candidate);
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate every tile of a partition's synthetic DEM.
pub fn generate(part: &Partition, tile_deg: f64, seed: u64) -> Materialized {
    let _span = zonal_obs::span("raster.generate");
    let src = SyntheticSrtm::new(part.grid(tile_deg), seed);
    let grid = src.grid().clone();
    let tiles = (0..grid.n_tiles())
        .map(|id| {
            let (tx, ty) = grid.tile_pos(id);
            src.tile(tx, ty)
        })
        .collect();
    Materialized { grid, tiles }
}

/// BQ-Tree encode a generated partition.
pub fn encode(raster: &Materialized) -> BqRaster {
    let _span = zonal_obs::span("bqtree.encode");
    zonal_bqtree::compress_source(raster)
}

/// Encoded partitions plus what it took to make them.
pub struct Encoded {
    pub parts: Vec<BqRaster>,
    pub cells: u64,
    pub raw_bytes: u64,
    pub encoded_bytes: u64,
    pub generate_s: f64,
    pub encode_s: f64,
}

/// Generate and encode each partition in turn.
pub fn generate_and_encode(parts: &[Partition], tile_deg: f64, seed: u64) -> Encoded {
    let mut out = Encoded {
        parts: Vec::with_capacity(parts.len()),
        cells: 0,
        raw_bytes: 0,
        encoded_bytes: 0,
        generate_s: 0.0,
        encode_s: 0.0,
    };
    for part in parts {
        let t = Instant::now();
        let raster = generate(part, tile_deg, seed);
        out.generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bq = encode(&raster);
        out.encode_s += t.elapsed().as_secs_f64();
        let stats = bq.stats();
        out.cells += part.cells();
        out.raw_bytes += stats.raw_bytes;
        out.encoded_bytes += stats.encoded_bytes;
        out.parts.push(bq);
    }
    out
}

/// Run `setup` at least `min_reps` times and until `min_secs` have
/// passed, dropping each result before building the next. Returns the
/// last result and every repetition's seconds (the benchmark reports
/// their median as `setup_s`).
pub fn repeat_setup<T>(
    min_reps: usize,
    min_secs: f64,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut last: Option<T> = None;
    while secs.len() < min_reps || started.elapsed().as_secs_f64() < min_secs {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one repetition"), secs)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
