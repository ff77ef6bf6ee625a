//! Property tests for the full pipeline: random zone layers and random
//! rasters, pinned against the scanline reference.

use proptest::prelude::*;
use zonal_histo::geo::{Point, Polygon, PolygonLayer, Ring};
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::{GeoTransform, Raster, TileGrid};
use zonal_histo::zonal::pipeline::{run_partition, run_partitions, Zones};
use zonal_histo::zonal::stats::stats_of_histogram;
use zonal_histo::zonal::{baseline, PipelineConfig};

/// Random layer of disjoint-ish circles and rectangles inside [0,8]×[0,6].
/// Overlap is allowed — zonal histogramming is defined per zone, so zones
/// may double-count cells without breaking any invariant checked here.
fn layer_strategy() -> impl Strategy<Value = PolygonLayer> {
    prop::collection::vec(
        (
            0.5f64..7.5,
            0.5f64..5.5,
            0.2f64..1.4,
            3usize..24,
            prop::bool::ANY,
        ),
        1..6,
    )
    .prop_map(|shapes| {
        PolygonLayer::from_polygons(
            shapes
                .into_iter()
                .map(|(cx, cy, r, n, circle)| {
                    if circle {
                        Polygon::from_ring(Ring::circle(Point::new(cx, cy), r, n.max(3)))
                    } else {
                        Polygon::rect(cx - r, cy - r * 0.7, cx + r, cy + r * 0.7)
                    }
                })
                .collect(),
        )
    })
}

fn raster_strategy() -> impl Strategy<Value = Raster> {
    (10usize..60, 10usize..80, any::<u64>()).prop_map(|(rows, cols, seed)| {
        let gt = GeoTransform::new(0.0, 0.0, 8.0 / cols as f64, 6.0 / rows as f64);
        Raster::from_fn(rows, cols, gt, move |r, c| {
            // Cheap deterministic hash-valued cells in 0..200.
            let h = (r as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1);
            ((h >> 33) % 200) as u16
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_equals_scanline_on_random_workloads(
        layer in layer_strategy(),
        raster in raster_strategy(),
        tile_cells in 3usize..12,
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), tile_cells, *raster.transform());
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = tile_cells as f64 * raster.transform().sx; // match grid
        let pipe = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        let scan = baseline::scanline_serial(&zones.layer, &raster, cfg.n_bins);
        prop_assert_eq!(pipe.hists, scan);
    }

    #[test]
    fn counts_are_internally_consistent(
        layer in layer_strategy(),
        raster in raster_strategy(),
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), 8, *raster.transform());
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = 8.0 * raster.transform().sx;
        let r = run_partition(&cfg, &zones, &raster.tile_source(&grid));
        prop_assert_eq!(r.counts.n_cells, (raster.rows() * raster.cols()) as u64);
        prop_assert!(r.counts.pip_cells_inside <= r.counts.pip_cells_tested);
        prop_assert!(r.counts.n_valid_cells <= r.counts.n_cells);
        // Inside-pair cells + PIP-inside cells ≥ total counted (each counted
        // cell came from one of the two paths; zones may overlap).
        prop_assert!(r.counts.edge_tests >= r.counts.pip_cells_tested);
    }

    #[test]
    fn overlapped_executor_equals_serial_on_random_workloads(
        layer in layer_strategy(),
        raster in raster_strategy(),
        tile_cells in 3usize..12,
        strip_rows in 1usize..4,
        inflight in 2usize..5,
    ) {
        let zones = Zones::new(layer);
        let grid = TileGrid::new(raster.rows(), raster.cols(), tile_cells, *raster.transform());
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = tile_cells as f64 * raster.transform().sx; // match grid
        cfg.strip_rows = strip_rows;
        let src = raster.tile_source(&grid);
        cfg.inflight_strips = 1; // serial reference executor
        let serial = run_partition(&cfg, &zones, &src);
        cfg.inflight_strips = inflight; // double-buffered streaming executor
        let overlapped = run_partition(&cfg, &zones, &src);
        prop_assert_eq!(&serial.hists, &overlapped.hists);
        prop_assert_eq!(&serial.counts, &overlapped.counts);
        // Same strips in the same order, with identical counted work.
        prop_assert_eq!(&serial.timings.strips, &overlapped.timings.strips);
        for (a, b) in serial.timings.steps.iter().zip(&overlapped.timings.steps) {
            prop_assert_eq!(a.cell_work, b.cell_work);
            prop_assert_eq!(a.fixed_work, b.fixed_work);
        }
    }

    #[test]
    fn shared_buffer_equals_serial_merge(
        layer in layer_strategy(),
        raster in raster_strategy(),
        tile_cells in 3usize..12,
        n_parts in 1usize..7,
    ) {
        // Split the raster into `n_parts` row bands. With more partitions
        // than workers, workers interleave their adds into the one shared
        // zone buffer of `run_partitions`.
        let zones = Zones::new(layer);
        let gt = *raster.transform();
        let mut cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(256);
        cfg.tile_deg = tile_cells as f64 * gt.sx; // match grid
        let bands: Vec<(Raster, TileGrid)> = (0..n_parts)
            .map(|i| {
                let (r0, r1) = (i * raster.rows() / n_parts, (i + 1) * raster.rows() / n_parts);
                let band_gt = gt.shifted(r0, 0);
                let band = Raster::from_fn(r1 - r0, raster.cols(), band_gt, |r, c| {
                    raster.get(r0 + r, c)
                });
                let grid = TileGrid::new(r1 - r0, raster.cols(), tile_cells, band_gt);
                (band, grid)
            })
            .collect();
        let sources: Vec<_> = bands.iter().map(|(b, g)| b.tile_source(g)).collect();

        let pooled = run_partitions(&cfg, &zones, &sources);
        let mut serial = run_partition(&cfg, &zones, &sources[0]);
        for source in &sources[1..] {
            serial.merge(&run_partition(&cfg, &zones, source));
        }
        prop_assert_eq!(&pooled.hists, &serial.hists);
        prop_assert_eq!(&pooled.counts, &serial.counts);
        for (a, b) in pooled.timings.steps.iter().zip(&serial.timings.steps) {
            prop_assert_eq!(a.cell_work, b.cell_work);
            prop_assert_eq!(a.fixed_work, b.fixed_work);
        }
        prop_assert_eq!(&pooled.timings.strips, &serial.timings.strips);
        prop_assert_eq!(pooled.timings.output_bytes, serial.timings.output_bytes);
        // Step 2 runs on the host and is priced at its measured wall time,
        // the one term of the figure that is not derived from counted
        // work; with it held equal the figure must match bit for bit.
        let mut pooled_t = pooled.timings.clone();
        pooled_t.steps[2].wall_secs = serial.timings.steps[2].wall_secs;
        prop_assert_eq!(
            pooled_t.end_to_end_overlapped_sim_secs(),
            serial.timings.end_to_end_overlapped_sim_secs()
        );
    }

    #[test]
    fn stats_match_expanded_values(bins in prop::collection::vec(0u64..50, 1..100)) {
        let s = stats_of_histogram(&bins);
        let mut values: Vec<f64> = Vec::new();
        for (v, &c) in bins.iter().enumerate() {
            values.extend(std::iter::repeat_n(v as f64, c as usize));
        }
        if values.is_empty() {
            prop_assert_eq!(s.count, 0);
        } else {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            prop_assert_eq!(s.count as usize, values.len());
            prop_assert!((s.mean - mean).abs() < 1e-9);
            prop_assert!((s.std_dev - var.sqrt()).abs() < 1e-9);
            let lower_median = values[(values.len() - 1) / 2];
            prop_assert_eq!(s.median, Some(lower_median as u16));
        }
    }
}
