//! `cluster-recovery`: the static cluster runner on three simulated
//! K20X nodes with a crash and a corrupted message, recovered by
//! reassignment. Generation happens inside each run, on the nodes.
//!
//! Set-up builds what batch-conus does — the zone layer and the
//! partitions generated and BQ-Tree encoded — because the reference
//! answer is the batch answer for the same configuration.

use std::time::Instant;

use zonal_cluster::{run_cluster, ClusterConfig, ClusterRun, FaultPlan, RecoveryPolicy};

use crate::batch::{self, Prepared};
use crate::jobs::{self, Job};
use crate::{inputs, layers, stats, trace, Measured, Opts, Size, Values, DEFAULT_SEED};

fn config(opts: &Opts) -> ClusterConfig {
    let (cells_per_degree, n_bins, tile_deg) = match opts.size {
        Size::Full => (60, 1000, 0.1),
        Size::Tiny => (10, 64, 1.0),
    };
    let terrain = inputs::terrain_seed(opts.seed, &zonal_bench::partitions(cells_per_degree), None);
    let mut cfg = ClusterConfig::titan(3, cells_per_degree, terrain);
    cfg.pipeline = cfg.pipeline.with_bins(n_bins).with_tile_deg(tile_deg);
    cfg.faults = FaultPlan::none().with_crash(2, 1).with_corrupt(1);
    cfg.recovery = RecoveryPolicy::Reassign;
    cfg.detect_timeout_secs = 0.3;
    cfg
}

pub fn run(opts: &Opts) -> Measured {
    let cfg = config(opts);
    let cell_factor = zonal_bench::cell_factor(cfg.cells_per_degree);
    let mut notes = vec![format!(
        "params: nodes={} cells_per_degree={} n_bins={} tile_deg={} device=tesla_k20x \
         assignment=round-robin recovery=reassign faults=[rank 2 crashes after 1 partition, \
         rank 1 corrupts its first message] detect_timeout_s={} zones=us_like({}) terrain_seed={}",
        cfg.n_nodes,
        cfg.cells_per_degree,
        cfg.pipeline.n_bins,
        cfg.pipeline.tile_deg,
        cfg.detect_timeout_secs,
        DEFAULT_SEED,
        cfg.seed
    )];
    let mut values = Values::default();

    let parts = zonal_bench::partitions(cfg.cells_per_degree);
    let prepare = || batch::prepare(opts, &parts, cfg.pipeline.tile_deg, cfg.seed);
    let session = opts.trace.then(trace::start);
    let (prep, setup_s) = if opts.trace {
        (prepare(), vec![])
    } else {
        inputs::repeat_setup(3, 0.0, prepare)
    };
    let Prepared {
        zones,
        zones_s,
        enc,
    } = prep;

    if opts.trace {
        values.set("geo.zones_s", zones_s);
        layers::input_values(&enc, &mut values);
        layers::decode_values(layers::decode_pass(&enc.parts), &mut values);
        layers::pair_pass(&zones, &enc.parts, &mut values);
    }
    // The batch answer for the same configuration, through the BQ-Tree
    // path the batch workload takes.
    let reference = layers::serial_pass(&cfg.pipeline, &zones, &enc.parts);
    let mut checks_ok = true;
    let parallel_wall = if opts.trace {
        let t = Instant::now();
        let parallel = zonal_core::run_partitions(&cfg.pipeline, &zones, &enc.parts);
        checks_ok = parallel.hists == reference.result.hists;
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    drop(enc);

    // The last successful run of a traced invocation, for the per-layer
    // cluster figures.
    let mut last_run: Option<ClusterRun> = None;
    let job = || {
        let t = Instant::now();
        let result = run_cluster(&cfg, &zones);
        let wall = t.elapsed().as_secs_f64();
        match result {
            Ok(run) => {
                let job = Job {
                    wall,
                    sim_e2e: run.sim_secs,
                    correct: run.hists == reference.result.hists,
                };
                if opts.trace {
                    last_run = Some(run);
                }
                job
            }
            Err(e) => {
                eprintln!("cluster run failed: {e}");
                Job {
                    wall,
                    sim_e2e: 0.0,
                    correct: false,
                }
            }
        }
    };
    let phase = jobs::measure(
        opts,
        session,
        &setup_s,
        reference.result.counts.n_cells,
        &mut values,
        &mut notes,
        job,
    );
    if opts.trace {
        layers::serial_values(&reference, cell_factor, parallel_wall, &mut values);
        if let Some(run) = &last_run {
            values.set("cluster.imbalance", run.imbalance.max_over_mean);
            values.set("cluster.comm_s", run.comm_secs);
            values.set("cluster.recovery_s", run.recovery_secs);
            values.set("cluster.retransmits", run.retransmits as f64);
            values.set("cluster.failed_ranks", run.failed_ranks.len() as f64);
            let live: Vec<f64> = run
                .nodes
                .iter()
                .filter(|n| !n.failed)
                .map(|n| n.wall_secs)
                .collect();
            notes.push(format!(
                "cluster: node_wall_max_s {} node_wall_min_s {} combine_s {} sim_secs {}",
                stats::max(&live),
                live.iter().copied().fold(f64::INFINITY, f64::min),
                run.combine_secs,
                run.sim_secs
            ));
        }
    }
    Measured {
        correct: phase.failed == 0 && phase.trace_valid && checks_ok,
        attempted: phase.attempted,
        failed: phase.failed,
        values,
        notes,
    }
}
