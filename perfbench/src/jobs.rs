//! The measuring phase shared by the job workloads (`batch-conus`,
//! `cluster-recovery`): whole answers run back to back, each timed and
//! checked against the workload's reference.

use std::time::Instant;

use zonal_obs::TraceSession;

use crate::{stats, trace, Opts, Values};

/// Measured jobs per untraced run, at least.
const MIN_JOBS: usize = 3;

/// One timed job.
pub struct Job {
    pub wall: f64,
    /// The job's cost-model end-to-end seconds at full scale.
    pub sim_e2e: f64,
    /// The answer was bit-identical to the reference.
    pub correct: bool,
}

/// What the phase leaves for the workload's own figures.
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// The traced run's Chrome trace passed validation (untraced: true).
    pub trace_valid: bool,
    /// Median untraced job wall, seconds.
    pub untraced_wall: f64,
}

fn repeat(budget: f64, min: usize, job: &mut impl FnMut() -> Job) -> Vec<Job> {
    let started = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < min || started.elapsed().as_secs_f64() < budget {
        jobs.push(job());
    }
    jobs
}

fn median_wall(jobs: &[Job]) -> f64 {
    stats::median(&jobs.iter().map(|j| j.wall).collect::<Vec<_>>())
}

/// Untraced (`session` is `None`): one checked warm-up job, then jobs for
/// `opts.seconds`, reported as the end-to-end metrics over `cells`
/// raster cells per job. Traced: jobs for half the budget under the
/// session, then untraced jobs for the other half, for the tracing
/// overhead.
pub fn measure(
    opts: &Opts,
    session: Option<TraceSession>,
    setup_s: &[f64],
    cells: u64,
    values: &mut Values,
    notes: &mut Vec<String>,
    mut job: impl FnMut() -> Job,
) -> Phase {
    let mut all = Vec::new();
    let mut trace_valid = true;
    let untraced_wall;
    if let Some(session) = session {
        let traced = repeat(opts.seconds / 2.0, 2, &mut job);
        let report = trace::finish(session, opts, values);
        let untraced = repeat(opts.seconds / 2.0, 2, &mut job);
        let traced_wall = median_wall(&traced);
        untraced_wall = median_wall(&untraced);
        values.set("obs.trace_overhead_frac", traced_wall / untraced_wall - 1.0);
        notes.push(format!(
            "traced jobs {} (median {traced_wall:.4} s), untraced jobs {} (median {untraced_wall:.4} s)",
            traced.len(),
            untraced.len()
        ));
        notes.extend(report.notes);
        trace_valid = report.valid;
        all.extend(traced);
        all.extend(untraced);
    } else {
        all.push(job());
        let measured = repeat(opts.seconds, MIN_JOBS, &mut job);
        let walls: Vec<f64> = measured.iter().map(|j| j.wall).collect();
        untraced_wall = stats::median(&walls);
        let busy: f64 = walls.iter().sum();
        let good = measured.iter().filter(|j| j.correct).count();
        let sims: Vec<f64> = measured.iter().map(|j| j.sim_e2e).collect();
        values.set("setup_s", stats::median(setup_s));
        values.set("wall_s", untraced_wall);
        values.set("mcells_per_s", cells as f64 / untraced_wall / 1e6);
        values.set("sim_e2e_s", stats::median(&sims));
        values.set("goodput_qps", good as f64 / busy);
        values.set("capacity_qps", measured.len() as f64 / busy);
        notes.push(format!(
            "setup reps {} {:?} s; jobs {} after a warm-up (closed loop, 1 client; one whole \
             answer each): p50 {:.3} ms, max {:.3} ms; cells per job {}",
            setup_s.len(),
            setup_s,
            walls.len(),
            untraced_wall * 1e3,
            stats::max(&walls) * 1e3,
            cells
        ));
        all.extend(measured);
    }
    Phase {
        attempted: all.len() as u64,
        failed: all.iter().filter(|j| !j.correct).count() as u64,
        trace_valid,
        untraced_wall,
    }
}
