//! Per-layer probes: passes over a workload's own inputs that time each
//! layer through its public entry point, and the extraction of the
//! counts the pipeline already returns.
//!
//! The serial pass doubles as every workload's correctness reference:
//! `run_partition` per partition, merged in partition order — the
//! definition `run_partitions` must match bit for bit.

use std::time::Instant;

use zonal_core::pipeline::{run_partition, Zones};
use zonal_core::{pair_tiles, PipelineConfig, ZonalResult};
use zonal_raster::TileSource;

use crate::inputs::Encoded;
use crate::{stats, Values};

/// The serial reference pass and what it measured.
pub struct SerialPass {
    pub result: ZonalResult,
    /// Wall seconds of each `run_partition` call.
    pub partition_s: Vec<f64>,
    /// Wall seconds spent in `ZonalResult::merge`.
    pub merge_s: f64,
}

/// `run_partition` over each source, merged in order.
pub fn serial_pass<S: TileSource>(
    cfg: &PipelineConfig,
    zones: &Zones,
    sources: &[S],
) -> SerialPass {
    let mut merged: Option<ZonalResult> = None;
    let mut partition_s = Vec::with_capacity(sources.len());
    let mut merge_s = 0.0;
    for source in sources {
        let t = Instant::now();
        let r = {
            let _span = zonal_obs::span("zonal.partition");
            run_partition(cfg, zones, source)
        };
        partition_s.push(t.elapsed().as_secs_f64());
        match &mut merged {
            None => merged = Some(r),
            Some(m) => {
                let _span = zonal_obs::span("zonal.merge");
                let t = Instant::now();
                m.merge(&r);
                merge_s += t.elapsed().as_secs_f64();
            }
        }
    }
    SerialPass {
        result: merged.expect("at least one partition"),
        partition_s,
        merge_s,
    }
}

/// Pull every tile of every source through `TileSource::tile` (Step 0
/// on its own). Returns seconds and cells decoded.
pub fn decode_pass<S: TileSource>(sources: &[S]) -> (f64, u64) {
    let t = Instant::now();
    let mut cells = 0u64;
    for source in sources {
        let _span = zonal_obs::span("bqtree.decode");
        let grid = source.grid();
        for id in 0..grid.n_tiles() {
            let (tx, ty) = grid.tile_pos(id);
            cells += std::hint::black_box(source.tile(tx, ty)).len() as u64;
        }
    }
    (t.elapsed().as_secs_f64(), cells)
}

/// Step 2 on its own: `pair_tiles` for each source's grid.
pub fn pair_pass<S: TileSource>(zones: &Zones, sources: &[S], values: &mut Values) {
    let t = Instant::now();
    let (mut inside, mut intersect, mut outside) = (0u64, 0u64, 0u64);
    for source in sources {
        let _span = zonal_obs::span("zonal.pair");
        let pairs = pair_tiles(&zones.layer, source.grid());
        inside += pairs.inside.n_pairs() as u64;
        intersect += pairs.intersect.n_pairs() as u64;
        outside += pairs.n_outside;
    }
    values.set("zonal.pair_s", t.elapsed().as_secs_f64());
    values.set("zonal.pairs_inside", inside as f64);
    values.set("zonal.pairs_intersect", intersect as f64);
    values.set("zonal.pairs_outside", outside as f64);
}

/// Generation and encoding figures of an input set.
pub fn input_values(enc: &Encoded, values: &mut Values) {
    values.set("raster.generate_s", enc.generate_s);
    values.set("raster.cells", enc.cells as f64);
    values.set("bqtree.encode_s", enc.encode_s);
    values.set("bqtree.encoded_bytes", enc.encoded_bytes as f64);
    values.set(
        "bqtree.ratio",
        enc.encoded_bytes as f64 / enc.raw_bytes as f64,
    );
}

/// Decode-pass figures.
pub fn decode_values((secs, cells): (f64, u64), values: &mut Values) {
    values.set("bqtree.decode_s", secs);
    values.set("bqtree.decode_mcells_s", cells as f64 / secs / 1e6);
}

const GPUSIM: [[&str; 5]; 5] = [
    [
        "gpusim.step0.sim_s",
        "gpusim.step0.flops",
        "gpusim.step0.coalesced_bytes",
        "gpusim.step0.uncoalesced_bytes",
        "gpusim.step0.atomics",
    ],
    [
        "gpusim.step1.sim_s",
        "gpusim.step1.flops",
        "gpusim.step1.coalesced_bytes",
        "gpusim.step1.uncoalesced_bytes",
        "gpusim.step1.atomics",
    ],
    [
        "gpusim.step2.sim_s",
        "gpusim.step2.flops",
        "gpusim.step2.coalesced_bytes",
        "gpusim.step2.uncoalesced_bytes",
        "gpusim.step2.atomics",
    ],
    [
        "gpusim.step3.sim_s",
        "gpusim.step3.flops",
        "gpusim.step3.coalesced_bytes",
        "gpusim.step3.uncoalesced_bytes",
        "gpusim.step3.atomics",
    ],
    [
        "gpusim.step4.sim_s",
        "gpusim.step4.flops",
        "gpusim.step4.coalesced_bytes",
        "gpusim.step4.uncoalesced_bytes",
        "gpusim.step4.atomics",
    ],
];

/// Figures of the serial pass: Steps 1/3/4 wall, PIP work, partition and
/// merge times, and the cost model's per-step seconds (at full scale,
/// `cell_factor`) next to the exact work counts they price (at the
/// measured scale). `parallel_wall` is an untraced `run_partitions` wall
/// over the same sources, for the parallel speed-up.
pub fn serial_values(pass: &SerialPass, cell_factor: f64, parallel_wall: f64, values: &mut Values) {
    let r = &pass.result;
    let steps = &r.timings.steps;
    values.set("zonal.step1_s", steps[1].wall_secs);
    values.set("zonal.step3_s", steps[3].wall_secs);
    values.set("zonal.step4_s", steps[4].wall_secs);
    let c = &r.counts;
    values.set("zonal.pip_cells_tested", c.pip_cells_tested as f64);
    values.set("zonal.edge_tests", c.edge_tests as f64);
    values.set(
        "zonal.pip_avoided_frac",
        c.n_cells.saturating_sub(c.pip_cells_tested) as f64 / c.n_cells as f64,
    );
    values.set(
        "zonal.pip_useful_frac",
        c.pip_cells_inside as f64 / c.pip_cells_tested.max(1) as f64,
    );
    values.set("zonal.partition_s_p50", stats::median(&pass.partition_s));
    values.set("zonal.partition_s_max", stats::max(&pass.partition_s));
    values.set(
        "zonal.parallel_speedup",
        pass.partition_s.iter().sum::<f64>() / parallel_wall,
    );
    values.set("zonal.merge_s", pass.merge_s);
    // Host-side size of one partition's dense u64 result.
    let result_bytes = r.hists.n_zones() * r.hists.n_bins() * std::mem::size_of::<u64>();
    values.set("zonal.result_mb", result_bytes as f64 / (1024.0 * 1024.0));

    let sim = r.timings.step_sim_secs_at_scale(cell_factor);
    for (i, names) in GPUSIM.iter().enumerate() {
        let work = steps[i].cell_work.merge(&steps[i].fixed_work);
        values.set(names[0], sim[i]);
        values.set(names[1], work.flops as f64);
        values.set(names[2], work.coalesced_bytes as f64);
        values.set(names[3], work.scattered_bytes as f64);
        values.set(names[4], work.atomics as f64);
    }
}
