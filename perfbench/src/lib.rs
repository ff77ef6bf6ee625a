//! The repository benchmark: three workloads over the zonal-histogram
//! workspace, measured from outside the program.
//!
//! Every number here comes from timing calls into the workspace crates'
//! public functions and from the counts those functions already return;
//! the program under test receives only generated inputs. A run of one
//! workload yields an [`Outcome`]: the correctness verdict, how many
//! operations were attempted and failed, and every metric of the mode it
//! ran in — [`END_TO_END`] untraced, [`PER_LAYER`] traced.

pub mod batch;
pub mod cluster;
pub mod inputs;
pub mod jobs;
pub mod layers;
pub mod loadgen;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Default workload seed, the experiment harness's.
pub const DEFAULT_SEED: u64 = zonal_bench::SEED;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("mcells_per_s", "Mcell/s"),
    ("sim_e2e_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("goodput_qps", "q/s"),
    ("capacity_qps", "q/s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
/// A layer a workload does not run reports 0. Cost-model figures carry
/// the unit `sim_s`: they are computed from counted work, not timed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geo.zones_s", "s"),
    ("raster.generate_s", "s"),
    ("raster.cells", "count"),
    ("bqtree.encode_s", "s"),
    ("bqtree.encoded_bytes", "bytes"),
    ("bqtree.ratio", "ratio"),
    ("bqtree.decode_s", "s"),
    ("bqtree.decode_mcells_s", "Mcell/s"),
    ("zonal.pair_s", "s"),
    ("zonal.pairs_inside", "count"),
    ("zonal.pairs_intersect", "count"),
    ("zonal.pairs_outside", "count"),
    ("zonal.step1_s", "s"),
    ("zonal.step3_s", "s"),
    ("zonal.step4_s", "s"),
    ("zonal.pip_cells_tested", "count"),
    ("zonal.edge_tests", "count"),
    ("zonal.pip_avoided_frac", "ratio"),
    ("zonal.pip_useful_frac", "ratio"),
    ("zonal.partition_s_p50", "s"),
    ("zonal.partition_s_max", "s"),
    ("zonal.parallel_speedup", "ratio"),
    ("zonal.merge_s", "s"),
    ("zonal.result_mb", "MiB"),
    ("gpusim.step0.sim_s", "sim_s"),
    ("gpusim.step0.flops", "count"),
    ("gpusim.step0.coalesced_bytes", "bytes"),
    ("gpusim.step0.uncoalesced_bytes", "bytes"),
    ("gpusim.step0.atomics", "count"),
    ("gpusim.step1.sim_s", "sim_s"),
    ("gpusim.step1.flops", "count"),
    ("gpusim.step1.coalesced_bytes", "bytes"),
    ("gpusim.step1.uncoalesced_bytes", "bytes"),
    ("gpusim.step1.atomics", "count"),
    ("gpusim.step2.sim_s", "sim_s"),
    ("gpusim.step2.flops", "count"),
    ("gpusim.step2.coalesced_bytes", "bytes"),
    ("gpusim.step2.uncoalesced_bytes", "bytes"),
    ("gpusim.step2.atomics", "count"),
    ("gpusim.step3.sim_s", "sim_s"),
    ("gpusim.step3.flops", "count"),
    ("gpusim.step3.coalesced_bytes", "bytes"),
    ("gpusim.step3.uncoalesced_bytes", "bytes"),
    ("gpusim.step3.atomics", "count"),
    ("gpusim.step4.sim_s", "sim_s"),
    ("gpusim.step4.flops", "count"),
    ("gpusim.step4.coalesced_bytes", "bytes"),
    ("gpusim.step4.uncoalesced_bytes", "bytes"),
    ("gpusim.step4.atomics", "count"),
    ("serve.row_hit_rate", "ratio"),
    ("serve.partition_memo_hits", "count"),
    ("serve.pipeline_passes", "count"),
    ("serve.redundant_passes", "count"),
    ("serve.mean_batch", "q/batch"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_saturated", "count"),
    ("cluster.imbalance", "ratio"),
    ("cluster.comm_s", "sim_s"),
    ("cluster.recovery_s", "sim_s"),
    ("cluster.retransmits", "count"),
    ("cluster.failed_ranks", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchConus,
    ServeUpdate,
    ClusterRecovery,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchConus,
        Workload::ServeUpdate,
        Workload::ClusterRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchConus => "batch-conus",
            Workload::ServeUpdate => "serve-update",
            Workload::ClusterRecovery => "cluster-recovery",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale. `Full` is the benchmark proper; `Tiny` is the smoke-test
/// size that exercises the same code paths in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its Chrome trace (none: not written).
    pub trace_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every checked answer was bit-identical to its reference.
    pub correct: bool,
    /// Operations attempted (jobs or queries).
    pub attempted: u64,
    /// Sheds + errors + wrong answers.
    pub failed: u64,
    /// The mode's metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable record lines: parameters, sample counts, and the
    /// workload-specific figures that are not in the metric tables.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (Rust's shortest round-trip form). Values
/// that JSON cannot carry are reported as 0 — the caller's checks make
/// such a run fail rather than pass silently.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Metric values collected by name during a run, turned into the mode's
/// table by [`Values::table`].
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics of `spec` in order; names never set report 0.
    pub fn table(&self, spec: &[(&'static str, &'static str)]) -> Vec<Metric> {
        spec.iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.get(name).unwrap_or(0.0),
            })
            .collect()
    }
}

/// What a workload module hands back to [`run`].
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub notes: Vec<String>,
}

/// Run one workload in the mode `opts.trace` selects.
pub fn run(opts: &Opts) -> Outcome {
    let measured = match opts.workload {
        Workload::BatchConus => batch::run(opts),
        Workload::ServeUpdate => serve::run(opts),
        Workload::ClusterRecovery => cluster::run(opts),
    };
    let spec = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut values = measured.values;
    if !opts.trace {
        values.set("peak_rss_mb", inputs::peak_rss_mb());
    }
    Outcome {
        correct: measured.correct,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: values.table(spec),
        notes: measured.notes,
    }
}
