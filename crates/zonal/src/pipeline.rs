//! The four-step pipeline, orchestrated over streaming tile strips.
//!
//! A partition's tiles are processed in bands of `strip_rows` tile rows:
//! each strip is decoded (Step 0), histogrammed per tile (Step 1), its
//! inside pairs aggregated (Step 3) and its boundary pairs refined
//! (Step 4), after which the strip's tile data and histograms are dropped.
//! Step 2 runs once per partition up front — it only needs geometry.
//! Peak memory is therefore bounded by the strip size regardless of raster
//! size, the same property that lets the paper stream a 40 GB raster
//! through a 6 GB GPU.
//!
//! Decode and compute are *overlapped*: a decode stage streams strips
//! over a bounded channel to the compute stage, running up to
//! `inflight_strips` ahead — the host-side rendition of the CUDA-stream
//! double buffering the paper's implementation uses to hide strip
//! uploads behind kernels. The compute stage drains strips strictly in
//! order on one thread, so results are bit-identical to the serial
//! schedule regardless of interleaving; only wall-clock time changes.
//! The bounded channel caps live strips at `inflight_strips`, preserving
//! the memory high-water mark.
//!
//! Every partition of one answer adds into a single zone-histogram
//! buffer — the paper's `his_d_polygon` array, which stays resident on
//! the device while the partitions stream through. [`run_partitions`]
//! allocates that buffer once and lets all its workers accumulate into
//! it with atomics, so no per-partition n_zones × n_bins result is ever
//! materialized or merged; only the small per-partition timing and count
//! records are folded, in partition-index order.

use crate::config::PipelineConfig;
use crate::hist::ZoneHistograms;
use crate::pairing::{pair_tiles, PairTable};
use crate::step1::per_tile_histograms;
use crate::step3::aggregate_inside;
use crate::step4::refine_intersect;
use crate::timing::{PipelineCounts, PipelineTimings, StripWork};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use zonal_geo::{FlatPolygons, PolygonLayer};
use zonal_gpusim::{exec, KernelWork, TrackedBufU64, WorkCounter};
use zonal_raster::TileSource;

/// Estimated decode arithmetic per cell (bitplane scatter + tree walk
/// amortized): the constant the cost model prices Step 0 with.
pub const DECODE_FLOPS_PER_CELL: u64 = 32;

/// Bounded-channel capacity for the decode→compute hand-off, derived
/// from the in-flight strip budget: live strips = queued strips + the
/// strip a blocked sender holds + the strip being computed, so a budget
/// of `inflight` leaves `inflight - 2` queue slots. Saturating at a
/// floor of 1 keeps small budgets (1 or 2, where the subtraction would
/// underflow or hit zero) on a real queue; the live-strip bound is then
/// `max(inflight, 3)`.
fn queue_capacity(inflight: usize) -> usize {
    inflight.saturating_sub(2).max(1)
}

/// A zone layer in both representations the pipeline needs: object polygons
/// for Step 2's exact classification, flattened arrays for Step 4's kernel.
#[derive(Debug, Clone)]
pub struct Zones {
    pub layer: PolygonLayer,
    pub flat: FlatPolygons,
}

impl Zones {
    pub fn new(layer: PolygonLayer) -> Self {
        let flat = layer.to_flat();
        Zones { layer, flat }
    }

    pub fn len(&self) -> usize {
        self.layer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layer.is_empty()
    }

    /// Host→device bytes for the polygon arrays (x, y as f64 plus the
    /// prefix index), part of the end-to-end transfer accounting.
    pub fn device_bytes(&self) -> u64 {
        (self.flat.slot_count() * 16 + self.flat.ply_v.len() * 4) as u64
    }
}

/// Output of a pipeline run.
#[derive(Debug, Clone)]
pub struct ZonalResult {
    pub hists: ZoneHistograms,
    pub timings: PipelineTimings,
    pub counts: PipelineCounts,
}

impl ZonalResult {
    /// Merge another run's result (other partitions of the same layer).
    pub fn merge(&mut self, other: &ZonalResult) {
        self.hists.merge(&other.hists);
        self.timings.accumulate(&other.timings);
        self.counts.accumulate(&other.counts);
    }
}

/// A strip emitted by the decode stage, carrying everything the compute
/// stage needs. At most `inflight_strips` of these are alive at once.
struct DecodedStrip {
    strip: usize,
    first_tid: usize,
    tiles: Vec<zonal_raster::TileData>,
    encoded_bytes: u64,
    cells: u64,
    decode_wall: f64,
    decode_work: KernelWork,
}

/// Run the pipeline for one raster partition.
///
/// The source grid's tile size must agree with `cfg.tile_deg` at the
/// grid's resolution (a grid built with `TileGrid::for_degree_tile(..,
/// cfg.tile_deg, ..)` always does); a mismatch panics rather than
/// silently pricing the wrong tiling.
///
/// ```
/// use zonal_core::pipeline::{run_partition, Zones};
/// use zonal_core::PipelineConfig;
/// use zonal_geo::{Polygon, PolygonLayer};
/// use zonal_raster::{GeoTransform, Raster, TileGrid};
///
/// // Two zones splitting a 4x4-unit world; a raster whose value is its column.
/// let zones = Zones::new(PolygonLayer::from_polygons(vec![
///     Polygon::rect(0.0, 0.0, 2.0, 4.0),
///     Polygon::rect(2.0, 0.0, 4.0, 4.0),
/// ]));
/// let gt = GeoTransform::new(0.0, 0.0, 0.5, 0.5);
/// let raster = Raster::from_fn(8, 8, gt, |_r, c| c as u16);
/// // 4-cell tiles at 0.5°/cell ⇒ 2.0° tiles: matches tile_deg below.
/// let grid = TileGrid::new(8, 8, 4, gt);
///
/// let cfg = PipelineConfig::test().with_bins(8).with_tile_deg(2.0);
/// let result = run_partition(&cfg, &zones, &raster.tile_source(&grid));
///
/// // Zone 0 holds columns 0..4, one 8-cell column per value.
/// assert_eq!(result.hists.zone(0), &[8, 8, 8, 8, 0, 0, 0, 0]);
/// assert_eq!(result.hists.total(), 64);
/// ```
pub fn run_partition(cfg: &PipelineConfig, zones: &Zones, source: &impl TileSource) -> ZonalResult {
    let zone_buf = ZoneHistograms::device_buffer(zones.len(), cfg.n_bins);
    let (timings, counts) = accumulate_partition(cfg, zones, source, &zone_buf);
    ZonalResult {
        hists: ZoneHistograms::from_flat(zones.len(), cfg.n_bins, zone_buf.into_vec()),
        timings,
        counts,
    }
}

/// Run Steps 0–4 for one partition, adding its zone histograms into
/// `zone_buf` (the `n_zones × n_bins` `his_d_polygon` array, shared by
/// every partition of the answer). Returns the partition's own timing
/// and count records.
fn accumulate_partition(
    cfg: &PipelineConfig,
    zones: &Zones,
    source: &impl TileSource,
    zone_buf: &TrackedBufU64,
) -> (PipelineTimings, PipelineCounts) {
    cfg.validate();
    let grid = source.grid();
    // The grid comes solely from the source; reject a config/grid
    // mismatch instead of silently ignoring `cfg.tile_deg`. Mirrors the
    // rounding in `TileGrid::for_degree_tile`.
    let expected_cells = ((cfg.tile_deg / grid.transform().sx).round() as usize).max(1);
    assert_eq!(
        grid.tile_cells(),
        expected_cells,
        "source grid tile size ({} cells) does not match cfg.tile_deg = {}° \
         at {}°/cell resolution (expected {} cells)",
        grid.tile_cells(),
        cfg.tile_deg,
        grid.transform().sx,
        expected_cells,
    );
    let n_zones = zones.len();
    let n_bins = cfg.n_bins;
    assert_eq!(zone_buf.len(), n_zones * n_bins, "zone buffer shape");

    let mut timings = PipelineTimings::new(cfg.device);
    let mut counts = PipelineCounts {
        n_tiles: grid.n_tiles() as u64,
        ..Default::default()
    };

    // ----- Step 2: spatial filtering (CPU-side, geometry only) -----------
    let t2 = Instant::now();
    let pairs: PairTable = pair_tiles(&zones.layer, grid);
    timings.steps[2].wall_secs = t2.elapsed().as_secs_f64();
    counts.inside_pairs = pairs.inside.n_pairs() as u64;
    counts.intersect_pairs = pairs.intersect.n_pairs() as u64;
    counts.outside_pairs = pairs.n_outside;

    // Bucket pairs by strip so each strip touches only resident tiles.
    let tiles_x = grid.tiles_x();
    let tiles_y = grid.tiles_y();
    let n_strips = tiles_y.div_ceil(cfg.strip_rows);
    let strip_of = |tid: u32| (tid as usize / tiles_x) / cfg.strip_rows;
    let mut inside_by_strip: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_strips];
    for (pid, tid) in pairs.inside.iter_pairs() {
        inside_by_strip[strip_of(tid)].push((pid, tid));
    }
    let mut intersect_by_strip: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_strips];
    for (pid, tid) in pairs.intersect.iter_pairs() {
        intersect_by_strip[strip_of(tid)].push((pid, tid));
    }

    // ----- Decode stage (Step 0): one strip, pure function of the source.
    let decode_strip = |strip: usize| -> DecodedStrip {
        let ty0 = strip * cfg.strip_rows;
        let ty1 = (ty0 + cfg.strip_rows).min(tiles_y);
        let first_tid = ty0 * tiles_x;
        let strip_tiles = (ty1 - ty0) * tiles_x;
        let mut span = zonal_obs::span("step0: decode strip");
        let t0 = Instant::now();
        let tiles = exec::launch_map(strip_tiles, |b| {
            let tid = first_tid + b;
            let (tx, ty) = grid.tile_pos(tid);
            source.tile(tx, ty)
        });
        let decode_wall = t0.elapsed().as_secs_f64();
        let cells: u64 = tiles.iter().map(|t| t.len() as u64).sum();
        let encoded_bytes: u64 = (0..strip_tiles)
            .map(|b| {
                let (tx, ty) = grid.tile_pos(first_tid + b);
                source.tile_encoded_bytes(tx, ty) as u64
            })
            .sum();
        let decode_work = KernelWork {
            flops: cells * DECODE_FLOPS_PER_CELL,
            coalesced_bytes: encoded_bytes + cells * 2,
            ..Default::default()
        };
        span.arg("strip", strip as u64)
            .arg("tiles", strip_tiles as u64)
            .arg("cells", cells)
            .arg("encoded_bytes", encoded_bytes)
            .arg("flops", decode_work.flops)
            .arg("coalesced_bytes", decode_work.coalesced_bytes);
        DecodedStrip {
            strip,
            first_tid,
            tiles,
            encoded_bytes,
            cells,
            decode_wall,
            decode_work,
        }
    };

    // PIP efficiency counter pair (the paper's headline saving): cells
    // refined in Step 4 vs. cells settled wholesale by tile classification.
    let pip_performed = zonal_obs::counter("pip_tests_performed");
    let pip_avoided = zonal_obs::counter("pip_tests_avoided");

    // ----- Compute stage (Steps 1/3/4): drains strips strictly in order.
    // Per-strip counters feed both the step totals and the per-strip
    // stream records, so totals equal the sum over strips exactly.
    let mut consume = |d: DecodedStrip| {
        let mut strip_span = zonal_obs::span("compute strip");
        strip_span
            .arg("strip", d.strip as u64)
            .arg("cells", d.cells);
        timings.steps[0].wall_secs += d.decode_wall;
        counts.n_cells += d.cells;
        counts.encoded_bytes += d.encoded_bytes;
        counts.raw_bytes += d.cells * 2;

        let s1_cell = WorkCounter::new();
        let s1_fixed = WorkCounter::new();
        let s3_fixed = WorkCounter::new();
        let s4_cell = WorkCounter::new();

        // ----- Step 1: per-tile histograms --------------------------------
        let t1 = Instant::now();
        let tile_hists = per_tile_histograms(&d.tiles, n_bins, &s1_cell, &s1_fixed);
        timings.steps[1].wall_secs += t1.elapsed().as_secs_f64();
        counts.n_valid_cells += tile_hists.iter().map(|h| h.valid_cells).sum::<u64>();
        counts.n_nodata_cells += tile_hists.iter().map(|h| h.skipped_cells).sum::<u64>();

        // ----- Step 3: aggregate inside tiles ------------------------------
        let t3 = Instant::now();
        let agg_pairs: Vec<(u32, &[u32])> = inside_by_strip[d.strip]
            .iter()
            .map(|&(pid, tid)| (pid, tile_hists[tid as usize - d.first_tid].bins.as_slice()))
            .collect();
        aggregate_inside(&agg_pairs, zone_buf, n_bins, &s3_fixed);
        timings.steps[3].wall_secs += t3.elapsed().as_secs_f64();

        // ----- Step 4: refine boundary tiles -------------------------------
        let t4 = Instant::now();
        let ref_pairs: Vec<(u32, u32, &zonal_raster::TileData)> = intersect_by_strip[d.strip]
            .iter()
            .map(|&(pid, tid)| (pid, tid, &d.tiles[tid as usize - d.first_tid]))
            .collect();
        let rc = refine_intersect(
            &ref_pairs,
            grid,
            &zones.flat,
            zone_buf,
            n_bins,
            cfg.representative,
            &s4_cell,
        );
        timings.steps[4].wall_secs += t4.elapsed().as_secs_f64();
        counts.pip_cells_tested += rc.cells_tested;
        counts.pip_cells_inside += rc.cells_inside;
        counts.edge_tests += rc.edge_tests;

        let mut sw = StripWork {
            encoded_bytes: d.encoded_bytes,
            raw_bytes: d.cells * 2,
            ..Default::default()
        };
        sw.cell_work[0] = d.decode_work;
        sw.cell_work[1] = s1_cell.snapshot();
        sw.fixed_work[1] = s1_fixed.snapshot();
        sw.fixed_work[3] = s3_fixed.snapshot();
        sw.cell_work[4] = s4_cell.snapshot();
        for i in 0..5 {
            timings.steps[i].cell_work = timings.steps[i].cell_work.merge(&sw.cell_work[i]);
            timings.steps[i].fixed_work = timings.steps[i].fixed_work.merge(&sw.fixed_work[i]);
        }
        timings.strips.push(sw);
    };

    if cfg.inflight_strips == 1 || n_strips <= 1 {
        // Serial schedule: each strip fully decoded, then fully computed.
        zonal_obs::set_lane_name("compute");
        for strip in 0..n_strips {
            consume(decode_strip(strip));
        }
    } else {
        // Overlapped schedule: the decoder thread runs ahead, bounded so
        // live strips never exceed `max(inflight_strips, 3)` — see
        // `queue_capacity` for the budget arithmetic (the subtraction
        // there saturates, fixing the underflow a raw
        // `inflight_strips - 2` would hit at small budgets).
        let queue_cap = queue_capacity(cfg.inflight_strips);
        let queue_depth = zonal_obs::gauge("strip_queue_depth");
        let depth = AtomicUsize::new(0);
        let decode_strip = &decode_strip;
        zonal_obs::set_lane_name("compute");
        std::thread::scope(|s| {
            let (tx, rx) = crossbeam::channel::bounded(queue_cap);
            let depth = &depth;
            s.spawn(move || {
                zonal_obs::set_lane_name("decode");
                for strip in 0..n_strips {
                    let d = decode_strip(strip);
                    // Count the strip before it is visible to the consumer
                    // so the depth can never transiently underflow.
                    queue_depth.record(depth.fetch_add(1, Ordering::Relaxed) as u64 + 1);
                    if tx.send(d).is_err() {
                        break; // compute side panicked; unwind quietly
                    }
                }
            });
            let mut expected = 0;
            while let Ok(d) = rx.recv() {
                queue_depth.record(depth.fetch_sub(1, Ordering::Relaxed) as u64 - 1);
                debug_assert_eq!(d.strip, expected, "strips must arrive in order");
                expected += 1;
                consume(d);
            }
        });
    }

    pip_performed.add(counts.pip_cells_tested);
    // Saturating: with heavily overlapping zones a cell can be PIP-tested
    // once per intersecting polygon, exceeding the partition's cell count.
    pip_avoided.add(counts.n_cells.saturating_sub(counts.pip_cells_tested));

    timings.raster_input_bytes = counts.encoded_bytes;
    timings.fixed_input_bytes = zones.device_bytes();
    timings.output_bytes = ZoneHistograms::output_bytes_of(n_zones, n_bins);
    (timings, counts)
}

/// Run the pipeline over several partitions (the single-node
/// configuration of the paper's Table 2) into one set of zone histograms.
///
/// Partitions are independent, so they run on a pool of worker threads
/// (up to the host's parallelism), all adding into one shared
/// `his_d_polygon` buffer; histogram updates commute, so the counts do
/// not depend on how the workers interleave. Each partition's timings
/// and counts are folded in partition-index order, so the counts, strip
/// records and counted work — and every simulated second priced from
/// them — equal the sequential `run_partition` + [`ZonalResult::merge`]
/// loop bit for bit.
pub fn run_partitions<S: TileSource>(
    cfg: &PipelineConfig,
    zones: &Zones,
    sources: &[S],
) -> ZonalResult {
    assert!(!sources.is_empty(), "need at least one partition");
    let zone_buf = ZoneHistograms::device_buffer(zones.len(), cfg.n_bins);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(sources.len());
    let records: Vec<(PipelineTimings, PipelineCounts)> = if workers <= 1 {
        sources
            .iter()
            .map(|source| accumulate_partition(cfg, zones, source, &zone_buf))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut records: Vec<Option<_>> = (0..sources.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let (tx, rx) = crossbeam::channel::unbounded();
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, zone_buf) = (&next, &zone_buf);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sources.len() {
                        break;
                    }
                    let mut span = zonal_obs::span("partition");
                    span.arg("partition", i as u64);
                    let r = accumulate_partition(cfg, zones, &sources[i], zone_buf);
                    drop(span);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            while let Ok((i, r)) = rx.recv() {
                records[i] = Some(r);
            }
        });
        records
            .into_iter()
            .map(|r| r.expect("every partition produced a record"))
            .collect()
    };

    let mut records = records.into_iter();
    let (mut timings, mut counts) = records.next().expect("nonempty");
    for (t, c) in records {
        timings.accumulate(&t);
        counts.accumulate(&c);
    }
    ZonalResult {
        hists: ZoneHistograms::from_flat(zones.len(), cfg.n_bins, zone_buf.into_vec()),
        timings,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::{Polygon, Ring};
    use zonal_raster::{GeoTransform, Raster, TileGrid};

    /// Layer of two half-plane rectangles partitioning [0,4]×[0,4], plus a
    /// raster of constant stripes; exact counts are computable by hand.
    fn simple_setup() -> (Zones, Raster, TileGrid) {
        let layer = PolygonLayer::from_polygons(vec![
            Polygon::rect(0.0, 0.0, 2.0, 4.0),
            Polygon::rect(2.0, 0.0, 4.0, 4.0),
        ]);
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        // 40×40 cells; value = column / 10 (4 distinct values).
        let raster = Raster::from_fn(40, 40, gt, |_r, c| (c / 10) as u16);
        let grid = TileGrid::new(40, 40, 8, gt);
        (Zones::new(layer), raster, grid)
    }

    #[test]
    fn exact_counts_on_partitioned_rect_layer() {
        let (zones, raster, grid) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let src = raster.tile_source(&grid);
        let result = run_partition(&cfg, &zones, &src);
        // Zone 0 covers columns 0..20 (x < 2.0): values 0 (cols 0..10) and
        // 1 (cols 10..20), 40 rows each.
        assert_eq!(result.hists.get(0, 0), 400);
        assert_eq!(result.hists.get(0, 1), 400);
        assert_eq!(result.hists.get(0, 2), 0);
        // Zone 1 covers columns 20..40: values 2 and 3.
        assert_eq!(result.hists.get(1, 2), 400);
        assert_eq!(result.hists.get(1, 3), 400);
        // Every cell counted exactly once.
        assert_eq!(result.hists.total(), 1600);
        assert_eq!(result.counts.n_cells, 1600);
        assert_eq!(result.counts.n_valid_cells, 1600);
    }

    #[test]
    fn pip_fraction_is_small_for_large_tiles_inside() {
        let (zones, raster, grid) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let src = raster.tile_source(&grid);
        let result = run_partition(&cfg, &zones, &src);
        // Interior tiles skip cell tests entirely; only boundary-tile cells
        // are PIP-tested.
        assert!(result.counts.pip_cells_tested < result.counts.n_cells);
        assert!(result.counts.inside_pairs > 0);
        assert!(result.counts.intersect_pairs > 0);
    }

    #[test]
    fn timings_populated() {
        let (zones, raster, grid) = simple_setup();
        let cfg = PipelineConfig::test().with_bins(8);
        let src = raster.tile_source(&grid);
        let result = run_partition(&cfg, &zones, &src);
        let sim = result.timings.step_sim_secs();
        // Step 1 and Step 4 did real work.
        assert!(sim[1] > 0.0);
        assert!(sim[4] > 0.0);
        assert!(
            result.timings.end_to_end_sim_secs()
                > result.timings.steps_total_sim_secs_at_scale(1.0)
        );
        assert!(result.timings.wall_secs() > 0.0);
        assert_eq!(result.counts.n_tiles, 25);
    }

    #[test]
    fn strip_size_does_not_change_results() {
        let (zones, raster, grid) = simple_setup();
        let src = raster.tile_source(&grid);
        let base = run_partition(&PipelineConfig::test().with_bins(8), &zones, &src);
        for strip_rows in [1usize, 3, 100] {
            let mut cfg = PipelineConfig::test().with_bins(8);
            cfg.strip_rows = strip_rows;
            let r = run_partition(&cfg, &zones, &src);
            assert_eq!(r.hists, base.hists, "strip_rows={strip_rows}");
        }
    }

    #[test]
    fn overlap_equivalence_suite() {
        // The overlapped executor must be bit-identical to the serial
        // schedule — histograms, counts, AND counted work — for every
        // strip size × inflight depth combination.
        let (zones, raster, grid) = simple_setup();
        let src = raster.tile_source(&grid);
        for strip_rows in [1usize, 3, 100] {
            let mut serial_cfg = PipelineConfig::test().with_bins(8).with_inflight_strips(1);
            serial_cfg.strip_rows = strip_rows;
            let base = run_partition(&serial_cfg, &zones, &src);
            for inflight in [1usize, 2, 4] {
                let cfg = serial_cfg.with_inflight_strips(inflight);
                let r = run_partition(&cfg, &zones, &src);
                let tag = format!("strip_rows={strip_rows} inflight={inflight}");
                assert_eq!(r.hists, base.hists, "{tag}: histograms");
                assert_eq!(r.counts, base.counts, "{tag}: counts");
                assert_eq!(
                    r.timings.strips, base.timings.strips,
                    "{tag}: per-strip work records"
                );
                for i in 0..5 {
                    assert_eq!(
                        r.timings.steps[i].cell_work, base.timings.steps[i].cell_work,
                        "{tag}: step {i} cell work"
                    );
                    assert_eq!(
                        r.timings.steps[i].fixed_work, base.timings.steps[i].fixed_work,
                        "{tag}: step {i} fixed work"
                    );
                }
            }
        }
    }

    #[test]
    fn queue_capacity_clamps_small_budgets() {
        // inflight 2 used to compute `2 - 2 = 0`; inflight 1 would have
        // underflowed had the serial branch not short-circuited it. Both
        // must now yield a positive capacity.
        assert_eq!(queue_capacity(1), 1);
        assert_eq!(queue_capacity(2), 1);
        assert_eq!(queue_capacity(3), 1);
        assert_eq!(queue_capacity(4), 2);
        assert_eq!(queue_capacity(10), 8);
    }

    #[test]
    fn smallest_inflight_budgets_run_to_completion() {
        // End-to-end at inflight ∈ {1, 2} over several strips: 1 takes the
        // serial branch, 2 exercises the clamped channel capacity.
        let (zones, raster, grid) = simple_setup();
        let src = raster.tile_source(&grid);
        let mut base_cfg = PipelineConfig::test().with_bins(8).with_inflight_strips(1);
        base_cfg.strip_rows = 1; // 5 strips
        let base = run_partition(&base_cfg, &zones, &src);
        assert!(base.timings.strips.len() > 2);
        for inflight in [1usize, 2] {
            let r = run_partition(&base_cfg.with_inflight_strips(inflight), &zones, &src);
            assert_eq!(r.hists, base.hists, "inflight={inflight}");
            assert_eq!(r.counts, base.counts, "inflight={inflight}");
        }
    }

    #[test]
    fn step_totals_equal_strip_sums() {
        let (zones, raster, grid) = simple_setup();
        let mut cfg = PipelineConfig::test().with_bins(8);
        cfg.strip_rows = 1; // several strips
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        assert!(r.timings.strips.len() > 1);
        for i in 0..5 {
            let cell_sum = r
                .timings
                .strips
                .iter()
                .fold(KernelWork::default(), |acc, s| acc.merge(&s.cell_work[i]));
            let fixed_sum = r
                .timings
                .strips
                .iter()
                .fold(KernelWork::default(), |acc, s| acc.merge(&s.fixed_work[i]));
            assert_eq!(r.timings.steps[i].cell_work, cell_sum, "step {i}");
            assert_eq!(r.timings.steps[i].fixed_work, fixed_sum, "step {i}");
        }
        let encoded: u64 = r.timings.strips.iter().map(|s| s.encoded_bytes).sum();
        assert_eq!(r.timings.raster_input_bytes, encoded);
    }

    #[test]
    fn overlapped_sim_time_beats_serial_here() {
        let (zones, raster, grid) = simple_setup();
        let mut cfg = PipelineConfig::test().with_bins(8);
        cfg.strip_rows = 1;
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        let serial = r.timings.end_to_end_sim_secs();
        let overlapped = r.timings.end_to_end_overlapped_sim_secs();
        let steps = r.timings.steps_total_sim_secs_at_scale(1.0);
        assert!(overlapped < serial, "{overlapped} !< {serial}");
        assert!(overlapped >= steps, "{overlapped} !>= {steps}");
    }

    #[test]
    fn parallel_run_partitions_matches_serial_merge() {
        let (zones, raster, grid) = simple_setup();
        let gt = *raster.transform();
        let top = Raster::from_fn(20, 40, gt.shifted(20, 0), |r, c| raster.get(r + 20, c));
        let bottom = Raster::from_fn(20, 40, gt, |r, c| raster.get(r, c));
        let grid_b = TileGrid::new(20, 40, 8, gt);
        let grid_t = TileGrid::new(20, 40, 8, gt.shifted(20, 0));
        let cfg = PipelineConfig::test().with_bins(8);
        let sources = vec![bottom.tile_source(&grid_b), top.tile_source(&grid_t)];
        let pooled = run_partitions(&cfg, &zones, &sources);
        let mut serial = run_partition(&cfg, &zones, &sources[0]);
        serial.merge(&run_partition(&cfg, &zones, &sources[1]));
        assert_eq!(pooled.hists, serial.hists);
        assert_eq!(pooled.counts, serial.counts);
        assert_eq!(pooled.timings.strips, serial.timings.strips);
        let whole = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        assert_eq!(pooled.hists, whole.hists);
    }

    #[test]
    #[should_panic(expected = "does not match cfg.tile_deg")]
    fn grid_config_mismatch_rejected() {
        let (zones, raster, grid) = simple_setup();
        // 8-cell tiles at 0.1°/cell are 0.8° tiles; claiming 2.0° must fail.
        let cfg = PipelineConfig::test().with_bins(8).with_tile_deg(2.0);
        run_partition(&cfg, &zones, &raster.tile_source(&grid));
    }

    #[test]
    fn multi_partition_merge_equals_single() {
        // Split the raster into two partitions horizontally; results must
        // merge to the single-raster answer.
        let (zones, raster, grid) = simple_setup();
        let whole = run_partition(
            &PipelineConfig::test().with_bins(8),
            &zones,
            &raster.tile_source(&grid),
        );
        let gt = *raster.transform();
        let top = Raster::from_fn(20, 40, gt.shifted(20, 0), |r, c| raster.get(r + 20, c));
        let bottom = Raster::from_fn(20, 40, gt, |r, c| raster.get(r, c));
        let grid_b = TileGrid::new(20, 40, 8, gt);
        let grid_t = TileGrid::new(20, 40, 8, gt.shifted(20, 0));
        let cfg = PipelineConfig::test().with_bins(8);
        let mut merged = run_partition(&cfg, &zones, &bottom.tile_source(&grid_b));
        merged.merge(&run_partition(&cfg, &zones, &top.tile_source(&grid_t)));
        assert_eq!(merged.hists, whole.hists);
        assert_eq!(merged.counts.n_cells, whole.counts.n_cells);
    }

    #[test]
    fn zones_device_bytes() {
        let zones = Zones::new(PolygonLayer::from_polygons(vec![Polygon::rect(
            0., 0., 1., 1.,
        )]));
        // 5 slots (4 vertices + closure) × 16 bytes + 1 × 4 bytes.
        assert_eq!(zones.device_bytes(), 5 * 16 + 4);
    }

    #[test]
    fn hole_cells_not_counted() {
        let layer = PolygonLayer::from_polygons(vec![Polygon::new(vec![
            Ring::rect(0.0, 0.0, 4.0, 4.0),
            Ring::rect(1.0, 1.0, 3.0, 3.0),
        ])]);
        let zones = Zones::new(layer);
        let gt = GeoTransform::new(0.0, 0.0, 0.1, 0.1);
        let raster = Raster::filled(40, 40, 1, gt);
        let grid = TileGrid::new(40, 40, 8, gt);
        let cfg = PipelineConfig::test().with_bins(4);
        let result = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        // 1600 cells minus the 20×20 hole.
        assert_eq!(result.hists.get(0, 1), 1600 - 400);
    }
}
