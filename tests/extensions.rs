//! Integration tests for the analysis extensions the paper's introduction
//! motivates: temporal streams, histogram distances, zone clustering, and
//! scheduling policies.

use zonal_histo::cluster::{lpt_makespan, simulate, Assignment};
use zonal_histo::geo::CountyConfig;
use zonal_histo::gpusim::DeviceSpec;
use zonal_histo::raster::timeseries::{field, EpochSource};
use zonal_histo::raster::{GeoTransform, TileGrid, NODATA};
use zonal_histo::zonal::distance::Measure;
use zonal_histo::zonal::pipeline::Zones;
use zonal_histo::zonal::temporal::run_epochs;
use zonal_histo::zonal::zone_cluster::kmedoids;
use zonal_histo::zonal::{PipelineConfig, ZoneHistograms};

fn setup() -> (Zones, GeoTransform, usize, usize) {
    let mut c = CountyConfig::us_like(5);
    c.nx = 8;
    c.ny = 6;
    c.edge_subdiv = 2;
    let zones = Zones::new(c.generate());
    let cpd = 4u32;
    let gt = GeoTransform::per_degree(c.extent.min_x, c.extent.min_y, cpd);
    let rows = (c.extent.height() * cpd as f64).round() as usize;
    let cols = (c.extent.width() * cpd as f64).round() as usize;
    (zones, gt, rows, cols)
}

#[test]
fn temporal_pipeline_runs_and_epochs_differ() {
    let (zones, gt, rows, cols) = setup();
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_tile_deg(1.0)
        .with_bins(2000);
    let result = run_epochs(&cfg, &zones, 5, |epoch| {
        EpochSource::new(TileGrid::for_degree_tile(rows, cols, 1.0, gt), 5, epoch)
    });
    assert_eq!(result.n_epochs(), 5);
    assert_eq!(result.n_zones(), zones.len());
    // Every epoch counts the same number of cells (same land mask)…
    let totals: Vec<u64> = result.epochs.iter().map(ZoneHistograms::total).collect();
    assert!(
        totals.iter().all(|&t| t == totals[0] && t > 0),
        "{totals:?}"
    );
    // …but the distributions evolve.
    let series = result.change_series(Measure::L1);
    assert!(
        series.iter().flatten().any(|&d| d > 0.0),
        "the field must actually change between epochs"
    );
    // Change series distances are finite and symmetric-in-definition.
    for s in &series {
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|d| d.is_finite()));
    }
}

#[test]
fn consecutive_epochs_closer_than_distant_ones() {
    let (zones, gt, rows, cols) = setup();
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_tile_deg(1.0)
        .with_bins(2000);
    let mk = |epoch| EpochSource::new(TileGrid::for_degree_tile(rows, cols, 1.0, gt), 5, epoch);
    let e0 = zonal_histo::zonal::run_partition(&cfg, &zones, &mk(0)).hists;
    let e1 = zonal_histo::zonal::run_partition(&cfg, &zones, &mk(1)).hists;
    let e30 = zonal_histo::zonal::run_partition(&cfg, &zones, &mk(30)).hists;
    // Aggregate over zones: near epochs closer than distant ones.
    let dist = |a: &ZoneHistograms, b: &ZoneHistograms| -> f64 {
        (0..zones.len())
            .map(|z| Measure::Emd1d.eval(a.zone(z), b.zone(z)))
            .sum()
    };
    let near = dist(&e0, &e1);
    let far = dist(&e0, &e30);
    assert!(near < far, "near {near} vs far {far}");
}

#[test]
fn field_and_elevation_share_land_mask() {
    for k in 0..60 {
        let x = -122.0 + (k % 10) as f64 * 5.7;
        let y = 25.5 + (k / 10) as f64 * 4.1;
        assert_eq!(
            field(7, 4, x, y) == NODATA,
            zonal_histo::raster::srtm::elevation(7, x, y) == NODATA,
            "at ({x},{y})"
        );
    }
}

#[test]
fn clustering_real_elevation_zones_separates_terrain() {
    // Cluster zones of a real pipeline run by elevation histogram: zones in
    // the same cluster should have similar mean elevations.
    let (zones, gt, rows, cols) = setup();
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_tile_deg(1.0)
        .with_bins(5000);
    let grid = TileGrid::for_degree_tile(rows, cols, 1.0, gt);
    let dem = zonal_histo::raster::srtm::SyntheticSrtm::new(grid, 5);
    let hists = zonal_histo::zonal::run_partition(&cfg, &zones, &dem).hists;
    let k = 3;
    let clustering = kmedoids(&hists, k, Measure::Emd1d, 1, 30);
    // Intra-cluster mean-elevation spread must be below the global spread.
    let mean_of = |z: usize| {
        let h = hists.zone(z);
        let n: u64 = h.iter().sum();
        if n == 0 {
            return f64::NAN;
        }
        h.iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum::<f64>()
            / n as f64
    };
    let means: Vec<f64> = (0..zones.len()).map(mean_of).collect();
    let valid: Vec<f64> = means.iter().copied().filter(|m| m.is_finite()).collect();
    let global_spread = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - valid.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut max_intra = 0.0f64;
    for c in 0..k {
        let ms: Vec<f64> = clustering
            .members(c)
            .into_iter()
            .map(|z| means[z])
            .filter(|m| m.is_finite())
            .collect();
        if ms.len() >= 2 {
            let spread = ms.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - ms.iter().cloned().fold(f64::INFINITY, f64::min);
            max_intra = max_intra.max(spread);
        }
    }
    assert!(
        max_intra < global_spread,
        "clusters must be tighter than the whole: {max_intra} vs {global_spread}"
    );
}

#[test]
fn scheduling_policies_ordered_as_expected() {
    // On skewed costs: oracle ≤ dynamic ≤ round-robin (up to the request
    // latency), and all respect the trivial bounds.
    let costs: Vec<f64> = (0..36).map(|i| 1.0 + ((i * 7) % 11) as f64).collect();
    let cells: Vec<u64> = (0..36).map(|i| 500 + (i % 7) as u64 * 100).collect();
    let lower = costs.iter().sum::<f64>() / 8.0;
    let oracle = lpt_makespan(&costs, 8);
    let dynamic = simulate(Assignment::SelfScheduling, &costs, &cells, 8, 0.0);
    let rr = simulate(Assignment::RoundRobin, &costs, &cells, 8, 0.0);
    assert!(oracle >= lower - 1e-9);
    assert!(oracle <= dynamic.makespan + 1e-9);
    assert!(dynamic.makespan <= rr.makespan + 1e-9);
}
