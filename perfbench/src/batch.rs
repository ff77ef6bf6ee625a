//! `batch-conus`: every catalog partition through one `run_partitions`
//! call — the Table 2 configuration, with generation and BQ-Tree
//! encoding moved into set-up.

use std::time::Instant;

use zonal_core::pipeline::{run_partitions, Zones};
use zonal_core::PipelineConfig;
use zonal_gpusim::DeviceSpec;
use zonal_raster::partition::Partition;

use crate::inputs::{self, Encoded};
use crate::jobs::{self, Job};
use crate::{layers, trace, Measured, Opts, Size, Values, DEFAULT_SEED};

struct Params {
    cells_per_degree: u32,
    n_bins: usize,
    tile_deg: f64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            cells_per_degree: 60,
            n_bins: 1000,
            tile_deg: 0.1,
        },
        Size::Tiny => Params {
            cells_per_degree: 10,
            n_bins: 64,
            tile_deg: 1.0,
        },
    }
}

/// A job workload's inputs: the zone layer and the encoded partitions.
pub(crate) struct Prepared {
    pub zones: Zones,
    pub zones_s: f64,
    pub enc: Encoded,
}

pub(crate) fn prepare(opts: &Opts, parts: &[Partition], tile_deg: f64, terrain: u64) -> Prepared {
    let t = Instant::now();
    let zones = inputs::zones(opts.size);
    let zones_s = t.elapsed().as_secs_f64();
    let enc = inputs::generate_and_encode(parts, tile_deg, terrain);
    Prepared {
        zones,
        zones_s,
        enc,
    }
}

pub fn run(opts: &Opts) -> Measured {
    let p = params(opts.size);
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan())
        .with_bins(p.n_bins)
        .with_tile_deg(p.tile_deg);
    let cell_factor = zonal_bench::cell_factor(p.cells_per_degree);
    let parts = zonal_bench::partitions(p.cells_per_degree);
    let terrain = inputs::terrain_seed(opts.seed, &parts, None);
    let mut notes = vec![format!(
        "params: cells_per_degree={} partitions={} n_bins={} tile_deg={} device=gtx_titan \
         zones=us_like({}) terrain_seed={}",
        p.cells_per_degree,
        parts.len(),
        p.n_bins,
        p.tile_deg,
        DEFAULT_SEED,
        terrain
    )];
    let mut values = Values::default();

    let session = opts.trace.then(trace::start);
    let (prep, setup_s) = if opts.trace {
        (prepare(opts, &parts, p.tile_deg, terrain), vec![])
    } else {
        inputs::repeat_setup(3, 0.0, || prepare(opts, &parts, p.tile_deg, terrain))
    };
    let sources = &prep.enc.parts;
    if opts.trace {
        values.set("geo.zones_s", prep.zones_s);
        layers::input_values(&prep.enc, &mut values);
        layers::decode_values(layers::decode_pass(sources), &mut values);
        layers::pair_pass(&prep.zones, sources, &mut values);
    }
    let reference = layers::serial_pass(&cfg, &prep.zones, sources);

    let job = || {
        let t = Instant::now();
        let r = run_partitions(&cfg, &prep.zones, sources);
        Job {
            wall: t.elapsed().as_secs_f64(),
            sim_e2e: r
                .timings
                .end_to_end_overlapped_sim_secs_at_scale(cell_factor),
            correct: r.hists == reference.result.hists,
        }
    };
    let phase = jobs::measure(
        opts,
        session,
        &setup_s,
        prep.enc.cells,
        &mut values,
        &mut notes,
        job,
    );
    if opts.trace {
        layers::serial_values(&reference, cell_factor, phase.untraced_wall, &mut values);
    }
    Measured {
        correct: phase.failed == 0 && phase.trace_valid,
        attempted: phase.attempted,
        failed: phase.failed,
        values,
        notes,
    }
}
