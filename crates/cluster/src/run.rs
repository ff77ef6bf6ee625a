//! The cluster runner: regenerates the paper's Fig. 6, runs the §IV.C
//! self-scheduling alternative, and layers failure detection and
//! recovery on top of both.
//!
//! One runner serves every [`Assignment`]. Rank 0 is the master and also
//! runs tasks of its own; ranks 1.. are worker threads. The master hands
//! out tasks: a static policy gives each rank its whole share as one
//! task, and self-scheduling gives out one partition per request. A
//! worker asks for its next task when it finishes one, unless the master
//! marked that task as its last, and sends its merged histograms once
//! the master has nothing left for it.
//!
//! The paper's MPI job assumes a perfect cluster; this runner does not.
//! Workers may crash, and result messages may be lost, delayed, or
//! corrupted (all injected deterministically from
//! [`crate::fault::FaultPlan`]). The master detects trouble with a
//! receive-timeout failure detector plus a control-channel probe, and
//! repairs it per the configured [`RecoveryPolicy`]:
//!
//! * message loss / corruption → checksum verification and Ack/Resend
//!   retransmission over a per-worker control channel;
//! * worker crash → once every live worker has reported, the master
//!   re-runs the dead rank's partitions itself: `Retry` as one fresh
//!   attempt at all of them, `Reassign` one by one, priced as spread over
//!   the survivors;
//! * `FailFast` → the run aborts with a typed [`ClusterError`].
//!
//! Under `Retry`/`Reassign` the combined histograms are bit-identical to
//! a fault-free run; the price of recovery (detection windows, backoff,
//! re-execution, retransmissions) is charged to `sim_secs`/`comm_secs`.

use crate::comm::{Cluster, Comm, NetworkModel};
use crate::error::{ClusterError, ClusterResult, RecoveryPolicy};
use crate::fault::{checksum_u64s, FaultInjector, FaultPlan, MsgFault};
use crate::imbalance::ImbalanceReport;
use crate::node::{name_rank_lane, run_node, NodeInput, NodeReport};
use crate::schedule::{lpt_makespan, simulate};
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::Serialize;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use zonal_core::pipeline::Zones;
use zonal_core::{PipelineConfig, ZonalResult, ZoneHistograms};
use zonal_gpusim::DeviceSpec;
use zonal_raster::partition::{assign_balanced, assign_round_robin, Partition};
use zonal_raster::srtm::SrtmCatalog;

/// Payload of one self-scheduling work request.
const REQUEST_BYTES: u64 = 16;

/// Partition→node assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Assignment {
    /// The paper's static distribution.
    RoundRobin,
    /// Greedy balance by cell count (the §IV.C improvement direction).
    BalancedByCells,
    /// Ranks pull the next partition from the master whenever they go
    /// idle: one request message per partition buys automatic balance
    /// (§IV.C's "tradeoffs between communication and load balancing").
    SelfScheduling,
}

impl Assignment {
    /// Every policy, in declaration order.
    pub const ALL: [Assignment; 3] = [
        Assignment::RoundRobin,
        Assignment::BalancedByCells,
        Assignment::SelfScheduling,
    ];

    /// Each rank's partition indices under a static policy, given the
    /// partitions' cell counts; `None` under self-scheduling, which hands
    /// partitions out on request.
    pub(crate) fn static_shares(self, cells: &[u64], n_nodes: usize) -> Option<Vec<Vec<usize>>> {
        match self {
            Assignment::RoundRobin => Some(assign_round_robin(cells.len(), n_nodes)),
            Assignment::BalancedByCells => Some(assign_balanced(cells, n_nodes)),
            Assignment::SelfScheduling => None,
        }
    }
}

/// Cluster experiment configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterConfig {
    pub n_nodes: usize,
    /// Raster resolution (3600 = the paper's full SRTM scale).
    pub cells_per_degree: u32,
    /// Terrain seed.
    pub seed: u64,
    pub pipeline: PipelineConfig,
    pub assignment: Assignment,
    pub network: NetworkModel,
    /// Faults injected into this run (empty plan = fault-free).
    pub faults: FaultPlan,
    /// What the master does when failure detection fires.
    pub recovery: RecoveryPolicy,
    /// Failure-detection window: how long the master waits without any
    /// incoming message before probing outstanding workers (real seconds
    /// of waiting, and simulated seconds charged per detection round).
    pub detect_timeout_secs: f64,
}

impl ClusterConfig {
    /// The paper's Titan setup at a chosen resolution: K20X per node,
    /// 0.1° tiles, 5000 bins, round-robin partitions, no faults, and a
    /// detection window generous enough that healthy-but-slow workers
    /// are not probed in practice.
    pub fn titan(n_nodes: usize, cells_per_degree: u32, seed: u64) -> Self {
        ClusterConfig {
            n_nodes,
            cells_per_degree,
            seed,
            pipeline: PipelineConfig::paper(DeviceSpec::tesla_k20x()),
            assignment: Assignment::RoundRobin,
            network: NetworkModel::default(),
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::FailFast,
            detect_timeout_secs: 5.0,
        }
    }

    /// Reject configurations the runner cannot execute meaningfully.
    pub fn validate(&self) -> ClusterResult<()> {
        if self.n_nodes == 0 {
            return Err(ClusterError::InvalidConfig("n_nodes must be > 0".into()));
        }
        if self.cells_per_degree == 0 {
            return Err(ClusterError::InvalidConfig(
                "cells_per_degree must be > 0".into(),
            ));
        }
        if self.pipeline.n_bins == 0 {
            return Err(ClusterError::InvalidConfig(
                "pipeline.n_bins must be > 0".into(),
            ));
        }
        self.network.validate()?;
        self.faults.validate(self.n_nodes)?;
        if !self.detect_timeout_secs.is_finite() || self.detect_timeout_secs <= 0.0 {
            return Err(ClusterError::InvalidConfig(format!(
                "detect_timeout_secs must be finite and > 0, got {}",
                self.detect_timeout_secs
            )));
        }
        if let RecoveryPolicy::Retry {
            max_attempts,
            backoff_secs,
        } = self.recovery
        {
            if max_attempts == 0 {
                return Err(ClusterError::InvalidConfig(
                    "Retry.max_attempts must be >= 1".into(),
                ));
            }
            if !backoff_secs.is_finite() || backoff_secs < 0.0 {
                return Err(ClusterError::InvalidConfig(format!(
                    "Retry.backoff_secs must be finite and >= 0, got {backoff_secs}"
                )));
            }
        }
        Ok(())
    }
}

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Combined zone histograms (identical to a single-node run, also
    /// under any recoverable fault plan).
    pub hists: ZoneHistograms,
    /// Per-node reports, rank order. Crashed ranks carry a `failed`
    /// placeholder (Reassign) or their successful retry's numbers.
    pub nodes: Vec<NodeReport>,
    /// Simulated end-to-end seconds: slowest node + MPI + master combine
    /// (the paper's "longest runtime among all the nodes as the wall-clock
    /// end-to-end runtime", MPI included) + recovery. Under
    /// self-scheduling the slowest node is the event model's, with every
    /// work request priced on `ClusterConfig::network`.
    pub sim_secs: f64,
    /// Real wall seconds of the whole simulated run.
    pub wall_secs: f64,
    /// Simulated MPI seconds (histogram gather, retransmissions, and
    /// injected message delays).
    pub comm_secs: f64,
    /// Master-side combine seconds (measured; "a small fraction of a
    /// second" in the paper).
    pub combine_secs: f64,
    /// Simulated seconds spent detecting and repairing failures
    /// (detection windows, retry backoff, re-executed work). Zero in a
    /// fault-free run; included in `sim_secs`.
    pub recovery_secs: f64,
    /// Result messages retransmitted after a loss, corruption, or probe.
    pub retransmits: usize,
    /// Worker ranks that crashed during the run.
    pub failed_ranks: Vec<usize>,
    pub imbalance: ImbalanceReport,
}

/// A rank's merged result, as a worker sends it to the master.
struct Report {
    node: NodeReport,
    /// Simulated seconds of each task, keyed by its first partition.
    task_costs: Vec<(usize, f64)>,
    hists: ZoneHistograms,
    /// FNV-1a over the histogram payload, computed by the sender; the
    /// master recomputes it to detect in-flight corruption.
    checksum: u64,
    /// Injected interconnect delay carried by this message (simulated).
    delay_secs: f64,
}

/// Worker → master messages.
enum WorkerMsg {
    /// The worker finished its task and asks for the next one.
    Idle,
    /// The worker was released and reports everything it computed.
    Result(Report),
}

/// Master → worker messages, one control channel per worker.
enum Ctl {
    /// Run these partitions (catalog indices). `last` says nothing will
    /// follow, so the worker reports straight away instead of asking —
    /// always the case for a static share.
    Task { partitions: Vec<usize>, last: bool },
    /// Nothing left to hand out: send the result.
    Done,
    /// Result received and verified; the worker may exit.
    Ack,
    /// Retransmit the result (lost or corrupt first copy), and doubles as
    /// the liveness probe: a failed `Ctl` send proves the worker thread
    /// exited without reporting — a crash. A worker still computing
    /// ignores it.
    Resend,
}

/// What every rank needs to run a task.
struct Ctx<'a> {
    cfg: &'a ClusterConfig,
    zones: &'a Zones,
    parts: &'a [Partition],
    cell_factor: f64,
}

impl Ctx<'_> {
    /// Run the pipeline over `partitions` as one node share.
    fn run(&self, rank: usize, partitions: &[usize]) -> (ZonalResult, NodeReport) {
        let input = NodeInput {
            rank,
            partitions: partitions.iter().map(|&i| self.parts[i]).collect(),
            pipeline: self.cfg.pipeline,
            seed: self.cfg.seed,
        };
        run_node(&input, self.zones, self.cell_factor)
    }
}

/// What one rank has computed so far, task by task.
struct Share {
    node: NodeReport,
    task_costs: Vec<(usize, f64)>,
    hists: Option<ZoneHistograms>,
}

impl Share {
    fn new(rank: usize) -> Self {
        Share {
            node: NodeReport {
                failed: false,
                ..NodeReport::failed(rank)
            },
            task_costs: Vec::new(),
            hists: None,
        }
    }

    /// Run one task and fold it in. A static share is one task, so the
    /// node's simulated seconds come from the whole share's merged
    /// timings.
    fn run(&mut self, ctx: &Ctx, task: &[usize]) {
        let Some(&first) = task.first() else { return };
        let (result, report) = ctx.run(self.node.rank, task);
        name_rank_lane(self.node.rank); // the pipeline renamed this lane
        self.node.n_partitions += report.n_partitions;
        self.node.sim_secs += report.sim_secs;
        self.node.wall_secs += report.wall_secs;
        self.node.n_cells += report.n_cells;
        self.node.edge_tests += report.edge_tests;
        self.task_costs.push((first, report.sim_secs));
        match &mut self.hists {
            Some(h) => h.merge(&result.hists),
            None => self.hists = Some(result.hists),
        }
    }
}

/// Worker progress as the master sees it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Working,
    Reported,
    Dead,
}

/// The master: hands out tasks, gathers results, detects dead ranks and
/// re-runs their partitions.
struct Master<'a> {
    cfg: &'a ClusterConfig,
    comm: Comm<WorkerMsg>,
    /// Control channel per rank (`None` for rank 0, the master itself).
    ctl: Vec<Option<Sender<Ctl>>>,
    /// Static shares not yet handed out, by rank.
    shares: Vec<Vec<usize>>,
    /// Self-scheduling queue, handed out one partition per request.
    queue: VecDeque<usize>,
    /// Partitions handed to each worker so far.
    handed: Vec<Vec<usize>>,
    status: Vec<Status>,
    /// Ranks asked to retransmit; their eventual delivery counts as one.
    probed: Vec<bool>,
    hists: ZoneHistograms,
    reports: Vec<Option<NodeReport>>,
    task_costs: Vec<(usize, f64)>,
    comm_secs: f64,
    combine_secs: f64,
    probe_rounds: usize,
    retransmits: usize,
    dead: Vec<usize>,
}

impl Master<'_> {
    fn next_task(&mut self, rank: usize) -> Option<Vec<usize>> {
        if self.shares[rank].is_empty() {
            self.queue.pop_front().map(|p| vec![p])
        } else {
            Some(std::mem::take(&mut self.shares[rank]))
        }
    }

    fn hand_out(&mut self, rank: usize) {
        if self.status[rank] != Status::Working {
            return;
        }
        let msg = match self.next_task(rank) {
            Some(partitions) => {
                self.handed[rank].extend(&partitions);
                Ctl::Task {
                    partitions,
                    last: self.queue.is_empty(),
                }
            }
            None => Ctl::Done,
        };
        // A failed send means the worker died; the next probe round
        // finds it, and whatever it was handed is orphaned.
        self.send(rank, msg);
    }

    fn send(&self, rank: usize, msg: Ctl) -> bool {
        self.ctl[rank]
            .as_ref()
            .is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// Hand out tasks and gather results until every worker has reported
    /// or been declared dead. Rank 0 works through its own tasks first,
    /// answering messages between them; the detection window opens only
    /// once it has none left. Returns early with the first failure under
    /// `FailFast`.
    fn gather(&mut self, ctx: &Ctx, own: &mut Share) -> ClusterResult<()> {
        for rank in 1..self.cfg.n_nodes {
            self.hand_out(rank);
        }
        let window = Duration::from_secs_f64(self.cfg.detect_timeout_secs);
        let mut own_task = self.next_task(0);
        while own_task.is_some() || self.status.contains(&Status::Working) {
            let wait = if own_task.is_some() {
                Duration::ZERO
            } else {
                window
            };
            match self.comm.recv_timeout(wait) {
                Ok((from, WorkerMsg::Idle)) => self.hand_out(from),
                Ok((from, WorkerMsg::Result(report))) => self.receive(from, report)?,
                Err(ClusterError::RecvTimeout { .. }) => match own_task.take() {
                    Some(task) => {
                        own.run(ctx, &task);
                        // Rank 0's result needs no message: merge it now
                        // rather than hold a second copy through the gather.
                        if let Some(h) = own.hists.take() {
                            self.hists.merge(&h);
                        }
                        own_task = self.next_task(0);
                    }
                    None => self.probe_round()?,
                },
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Verify and merge one result message, or ask for a clean copy.
    fn receive(&mut self, from: usize, report: Report) -> ClusterResult<()> {
        let cost = self.cfg.network.message_secs(report.hists.output_bytes());
        if self.status[from] != Status::Working {
            // Duplicate of an already-merged result (spurious probe); it
            // still crossed the interconnect.
            self.comm_secs += cost;
            self.retransmits += 1;
            return Ok(());
        }
        let got = checksum_u64s(report.hists.flat());
        if got != report.checksum {
            zonal_obs::instant("corrupt payload detected", &[("from", from as u64)]);
            if !self.cfg.recovery.recovers() {
                return Err(ClusterError::CorruptPayload {
                    from,
                    expected: report.checksum,
                    got,
                });
            }
            // The corrupt copy wasted its transfer; ask for a clean one.
            // If the worker died meanwhile the next probe round notices.
            self.comm_secs += cost;
            self.probed[from] = true;
            self.send(from, Ctl::Resend);
            return Ok(());
        }
        self.comm_secs += cost + report.delay_secs;
        if self.probed[from] {
            self.retransmits += 1;
        }
        let t_combine = Instant::now();
        self.hists.merge(&report.hists);
        self.combine_secs += t_combine.elapsed().as_secs_f64();
        self.reports[from] = Some(report.node);
        self.task_costs.extend(report.task_costs);
        self.status[from] = Status::Reported;
        self.send(from, Ctl::Ack);
        Ok(())
    }

    /// Nobody reported for a full window: probe every working rank. A
    /// successful control send nudges a live worker to retransmit; a
    /// failed one proves the worker exited without reporting — a crash.
    fn probe_round(&mut self) -> ClusterResult<()> {
        self.probe_rounds += 1;
        zonal_obs::instant("probe round", &[("round", self.probe_rounds as u64)]);
        for rank in 1..self.cfg.n_nodes {
            if self.status[rank] != Status::Working {
                continue;
            }
            if self.send(rank, Ctl::Resend) {
                self.probed[rank] = true;
                continue;
            }
            self.status[rank] = Status::Dead;
            self.dead.push(rank);
            zonal_obs::instant("worker declared dead", &[("rank", rank as u64)]);
            if !self.cfg.recovery.recovers() {
                let handed = self.handed[rank].len();
                return Err(ClusterError::NodeCrashed {
                    rank,
                    completed_partitions: self
                        .cfg
                        .faults
                        .crash_point(rank)
                        .unwrap_or(0)
                        .min(handed),
                });
            }
        }
        Ok(())
    }

    /// Re-run every dead rank's partitions on the master, after all
    /// workers have been released and the same way for every assignment
    /// policy, merging the recomputed histograms so the final result
    /// matches a fault-free run. Returns the simulated recovery seconds.
    fn rerun_orphans(&mut self, ctx: &Ctx) -> f64 {
        self.dead.sort_unstable();
        let mut recovery_secs = 0.0;
        let mut orphan_costs = Vec::new();
        for &rank in &self.dead {
            let orphans = &self.handed[rank];
            match self.cfg.recovery {
                RecoveryPolicy::FailFast => {
                    unreachable!("FailFast returns at the first dead rank")
                }
                RecoveryPolicy::Retry { backoff_secs, .. } => {
                    // Faults are one-shot, so the first fresh attempt
                    // runs clean and `max_attempts` is never exhausted.
                    zonal_obs::instant("rank retried", &[("rank", rank as u64)]);
                    let (res, mut report) = ctx.run(rank, orphans);
                    report.failed = true; // the rank did fail before the retry
                    recovery_secs += backoff_secs + report.sim_secs;
                    self.comm_secs += self.cfg.network.message_secs(res.hists.output_bytes());
                    self.hists.merge(&res.hists);
                    self.reports[rank] = Some(report);
                }
                RecoveryPolicy::Reassign => {
                    zonal_obs::instant(
                        "partitions reassigned",
                        &[("rank", rank as u64), ("orphans", orphans.len() as u64)],
                    );
                    for &p in orphans {
                        let (res, rep) = ctx.run(rank, &[p]);
                        self.hists.merge(&res.hists);
                        orphan_costs.push(rep.sim_secs);
                    }
                    self.reports[rank] = Some(NodeReport::failed(rank));
                }
            }
        }
        // Reassigned orphans are priced as spread over the survivors
        // longest first, and each survivor that took some sends one more
        // result message to the master.
        let n_survivors = self.cfg.n_nodes - self.dead.len();
        recovery_secs += lpt_makespan(&orphan_costs, n_survivors);
        let senders = orphan_costs.len().min(n_survivors);
        self.comm_secs += senders as f64 * self.cfg.network.message_secs(self.hists.output_bytes());
        recovery_secs
    }
}

/// Run the full job on a simulated cluster at full-scale extrapolation
/// factor `(3600 / cells_per_degree)²`. Errors on invalid configuration,
/// and on any injected failure when the policy is
/// [`RecoveryPolicy::FailFast`]; under `Retry`/`Reassign` every fault
/// plan that leaves at least one live worker completes with histograms
/// bit-identical to a fault-free run.
pub fn run_cluster(cfg: &ClusterConfig, zones: &Zones) -> ClusterResult<ClusterRun> {
    cfg.validate()?;
    let t_run = Instant::now();
    let catalog = SrtmCatalog::new(cfg.cells_per_degree);
    let parts: Vec<Partition> = catalog.partitions();
    let cells: Vec<u64> = parts.iter().map(Partition::cells).collect();
    let ctx = Ctx {
        cfg,
        zones,
        parts: &parts,
        cell_factor: catalog.scale_factor() * catalog.scale_factor(),
    };
    let (shares, queue) = match cfg.assignment.static_shares(&cells, cfg.n_nodes) {
        Some(shares) => (shares, VecDeque::new()),
        None => (vec![Vec::new(); cfg.n_nodes], (0..parts.len()).collect()),
    };

    // Wire up rank 0 (master + worker, as in the paper: "the master node
    // was used to combine per-polygon histograms") and the workers.
    let mut comms = Cluster::new::<WorkerMsg>(cfg.n_nodes)?.into_iter();
    let master_comm = comms.next().expect("n_nodes > 0");
    let injector = FaultInjector::new(&cfg.faults, cfg.n_nodes);
    let mut own = Share::new(0);
    // Rank 0 is the master's own worker: its results merge as it goes.
    let mut status = vec![Status::Working; cfg.n_nodes];
    status[0] = Status::Reported;

    let master: ClusterResult<Master> = std::thread::scope(|s| {
        // Everything master-side lives inside this closure so an early
        // (FailFast) return drops the control senders and unblocks
        // waiting workers before the scope joins.
        let mut ctl = vec![None];
        for comm in comms {
            let (tx, rx) = unbounded::<Ctl>();
            ctl.push(Some(tx));
            let (ctx, injector) = (&ctx, &injector);
            s.spawn(move || worker_body(ctx, comm, rx, injector));
        }
        let mut master = Master {
            cfg,
            comm: master_comm,
            ctl,
            shares,
            queue,
            handed: vec![Vec::new(); cfg.n_nodes],
            status,
            probed: vec![false; cfg.n_nodes],
            hists: ZoneHistograms::new(zones.len(), cfg.pipeline.n_bins),
            reports: vec![None; cfg.n_nodes],
            task_costs: Vec::new(),
            comm_secs: 0.0,
            combine_secs: 0.0,
            probe_rounds: 0,
            retransmits: 0,
            dead: Vec::new(),
        };
        master.gather(&ctx, &mut own)?;
        Ok(master)
    });
    let mut master = master?;
    master.reports[0] = Some(own.node);
    master.task_costs.append(&mut own.task_costs);
    // Each detection round cost the master one idle timeout window.
    let recovery_secs =
        master.probe_rounds as f64 * cfg.detect_timeout_secs + master.rerun_orphans(&ctx);

    // Rank 0's tasks and any re-runs ran on this thread (renaming its lane
    // along the way); claim the final name.
    if zonal_obs::enabled() {
        zonal_obs::set_lane_name("rank 0 (master)");
    }

    let nodes: Vec<NodeReport> = master
        .reports
        .into_iter()
        .map(|r| r.expect("all ranks reported or were recovered"))
        .collect();
    let loads: Vec<f64> = match cfg.assignment {
        Assignment::SelfScheduling => {
            // The event model over the surviving ranks, in the catalog
            // order the master hands partitions out in.
            let mut costs = master.task_costs;
            costs.sort_by_key(|&(p, _)| p);
            let cells: Vec<u64> = costs.iter().map(|&(p, _)| cells[p]).collect();
            let costs: Vec<f64> = costs.iter().map(|&(_, c)| c).collect();
            let n_live = cfg.n_nodes - master.dead.len();
            let request_secs = cfg.network.message_secs(REQUEST_BYTES);
            simulate(
                Assignment::SelfScheduling,
                &costs,
                &cells,
                n_live,
                request_secs,
            )
            .node_loads
        }
        _ => nodes.iter().map(|n| n.sim_secs).collect(),
    };
    let slowest = loads.iter().copied().fold(0.0, f64::max);
    Ok(ClusterRun {
        hists: master.hists,
        sim_secs: slowest + master.comm_secs + master.combine_secs + recovery_secs,
        wall_secs: t_run.elapsed().as_secs_f64(),
        comm_secs: master.comm_secs,
        combine_secs: master.combine_secs,
        recovery_secs,
        retransmits: master.retransmits,
        failed_ranks: master.dead,
        imbalance: ImbalanceReport::from_node_secs(&loads),
        nodes,
    })
}

/// One worker thread: run tasks until released (or until the planned
/// crash point), then transmit the result under the injector's message
/// fault and hold it for retransmission until the master acknowledges it.
fn worker_body(ctx: &Ctx, comm: Comm<WorkerMsg>, ctl: Receiver<Ctl>, injector: &FaultInjector) {
    let rank = comm.rank();
    name_rank_lane(rank);
    let crash_at = injector.take_crash_point(rank);
    let mut share = Share::new(rank);
    // Sends ignore errors: a dropped master endpoint means the run was
    // aborted (FailFast), and the next control receive ends this worker.
    loop {
        match ctl.recv() {
            Ok(Ctl::Task { partitions, last }) => {
                let room = crash_at.map_or(partitions.len(), |k| k - share.node.n_partitions);
                share.run(ctx, &partitions[..room.min(partitions.len())]);
                if last || crash_at == Some(share.node.n_partitions) {
                    break;
                }
                let _ = comm.try_send(0, WorkerMsg::Idle);
            }
            Ok(Ctl::Done) => break,
            Ok(Ctl::Ack | Ctl::Resend) => {} // a probe while computing
            Err(_) => return,                // master gone: run aborted
        }
    }
    if crash_at.is_some() {
        // Crash fault, at the crash point or, if released before it,
        // before the report: die silently — the endpoints drop and the
        // master's probe finds the corpse.
        zonal_obs::instant(
            "crash",
            &[
                ("rank", rank as u64),
                ("completed_partitions", share.node.n_partitions as u64),
            ],
        );
        return;
    }
    let (n_zones, n_bins) = (ctx.zones.len(), ctx.cfg.pipeline.n_bins);
    let hists = share
        .hists
        .take()
        .unwrap_or_else(|| ZoneHistograms::new(n_zones, n_bins));
    let checksum = checksum_u64s(hists.flat());
    let send = |hists: ZoneHistograms, delay_secs: f64| {
        let report = Report {
            node: share.node.clone(),
            task_costs: share.task_costs.clone(),
            hists,
            checksum,
            delay_secs,
        };
        let _ = comm.try_send(0, WorkerMsg::Result(report));
    };
    match injector.take_msg_fault(rank) {
        None => send(hists.clone(), 0.0),
        Some(MsgFault::Drop) => {
            // First transmission lost in the interconnect.
            zonal_obs::instant("message dropped", &[("rank", rank as u64)]);
        }
        Some(MsgFault::Delay(secs)) => {
            zonal_obs::instant(
                "message delayed",
                &[("rank", rank as u64), ("delay_ms", (secs * 1e3) as u64)],
            );
            send(hists.clone(), secs);
        }
        Some(MsgFault::Corrupt) => {
            zonal_obs::instant("message corrupted", &[("rank", rank as u64)]);
            // Payload mangled in flight; the checksum still describes the
            // original, so the master will catch the mismatch.
            let mut flat = hists.flat().to_vec();
            if let Some(w) = flat.first_mut() {
                *w ^= 0x1;
            }
            send(ZoneHistograms::from_flat(n_zones, n_bins, flat), 0.0);
        }
    }
    // Hold the clean result until the master acknowledges it.
    while let Ok(Ctl::Resend) = ctl.recv() {
        send(hists.clone(), 0.0);
    }
}

/// One point of the Fig. 6 curve.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    pub n_nodes: usize,
    pub sim_secs: f64,
    pub wall_secs: f64,
    pub imbalance_ratio: f64,
}

/// Sweep node counts (the paper uses 1, 2, 4, 8, 16) over the same
/// workload. The combined result must be identical across node counts —
/// a divergence is returned as [`ClusterError::ResultMismatch`], not a
/// panic.
pub fn run_scaling(
    base: &ClusterConfig,
    zones: &Zones,
    node_counts: &[usize],
) -> ClusterResult<Vec<(ScalingPoint, ClusterRun)>> {
    let mut reference: Option<(usize, ZoneHistograms)> = None;
    let mut out = Vec::with_capacity(node_counts.len());
    for &n in node_counts {
        let mut cfg = base.clone();
        cfg.n_nodes = n;
        let run = run_cluster(&cfg, zones)?;
        match &reference {
            None => reference = Some((n, run.hists.clone())),
            Some((n_ref, r)) => {
                if r != &run.hists {
                    return Err(ClusterError::ResultMismatch {
                        n_nodes_reference: *n_ref,
                        n_nodes_divergent: n,
                    });
                }
            }
        }
        let point = ScalingPoint {
            n_nodes: n,
            sim_secs: run.sim_secs,
            wall_secs: run.wall_secs,
            imbalance_ratio: run.imbalance.max_over_mean,
        };
        out.push((point, run));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_geo::CountyConfig;

    fn tiny_zones() -> Zones {
        let mut c = CountyConfig::us_like(7);
        c.nx = 8;
        c.ny = 5;
        c.edge_subdiv = 2;
        Zones::new(c.generate())
    }

    fn tiny_cfg(n_nodes: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::titan(n_nodes, 4, 11);
        cfg.pipeline.tile_deg = 1.0;
        cfg.pipeline.n_bins = 64;
        cfg
    }

    fn with_assignment(mut cfg: ClusterConfig, assignment: Assignment) -> ClusterConfig {
        cfg.assignment = assignment;
        cfg
    }

    /// Fault-test config: short detection window so probes fire quickly.
    fn faulty_cfg(n_nodes: usize, faults: FaultPlan, recovery: RecoveryPolicy) -> ClusterConfig {
        let mut cfg = tiny_cfg(n_nodes);
        cfg.faults = faults;
        cfg.recovery = recovery;
        cfg.detect_timeout_secs = 0.3;
        cfg
    }

    #[test]
    fn cluster_matches_single_node() {
        let zones = tiny_zones();
        let single = run_cluster(&tiny_cfg(1), &zones).unwrap();
        let total_cells = SrtmCatalog::new(4).total_cells();
        for assignment in Assignment::ALL {
            let four = run_cluster(&with_assignment(tiny_cfg(4), assignment), &zones).unwrap();
            assert_eq!(single.hists, four.hists, "{assignment:?}");
            assert_eq!(four.nodes.len(), 4);
            // Every partition and every cell processed exactly once.
            assert_eq!(four.nodes.iter().map(|n| n.n_partitions).sum::<usize>(), 36);
            assert_eq!(
                four.nodes.iter().map(|n| n.n_cells).sum::<u64>(),
                total_cells
            );
            assert_eq!(four.recovery_secs, 0.0, "fault-free run pays no recovery");
            assert!(four.failed_ranks.is_empty());
        }
    }

    #[test]
    fn scaling_reduces_time() {
        let zones = tiny_zones();
        let points = run_scaling(&tiny_cfg(1), &zones, &[1, 4, 8]).unwrap();
        assert_eq!(points.len(), 3);
        let t1 = points[0].0.sim_secs;
        let t4 = points[1].0.sim_secs;
        let t8 = points[2].0.sim_secs;
        assert!(t4 < t1, "4 nodes beat 1: {t4} vs {t1}");
        assert!(t8 < t4, "8 nodes beat 4: {t8} vs {t4}");
        // Sub-linear beyond perfect scaling is expected (imbalance).
        assert!(t4 >= t1 / 4.0 * 0.99);
    }

    #[test]
    fn more_nodes_than_partitions() {
        let zones = tiny_zones();
        let run = run_cluster(&tiny_cfg(40), &zones).unwrap();
        assert_eq!(run.nodes.len(), 40);
        // 36 partitions → 4 idle nodes; result still correct.
        let idle = run.nodes.iter().filter(|n| n.n_partitions == 0).count();
        assert_eq!(idle, 4);
        assert_eq!(run.hists, run_cluster(&tiny_cfg(1), &zones).unwrap().hists);
    }

    #[test]
    fn balanced_assignments_no_worse() {
        let zones = tiny_zones();
        let [rr, by_cells, dynamic] =
            Assignment::ALL.map(|a| run_cluster(&with_assignment(tiny_cfg(8), a), &zones).unwrap());
        assert_eq!(
            rr.hists, by_cells.hists,
            "assignment must not change results"
        );
        assert_eq!(
            rr.hists, dynamic.hists,
            "assignment must not change results"
        );
        assert!(
            dynamic.imbalance.max_over_mean <= rr.imbalance.max_over_mean + 0.05,
            "self-scheduling {:.3} vs round-robin {:.3}",
            dynamic.imbalance.max_over_mean,
            rr.imbalance.max_over_mean
        );
    }

    #[test]
    fn comm_counts_one_result_message_per_worker() {
        // Rank 0 is the master's own worker and sends nothing; work
        // requests are priced in the makespan, not here.
        let zones = tiny_zones();
        for assignment in Assignment::ALL {
            for n in [1usize, 3] {
                let cfg = with_assignment(tiny_cfg(n), assignment);
                let run = run_cluster(&cfg, &zones).unwrap();
                let message = cfg.network.message_secs(run.hists.output_bytes());
                assert_eq!(
                    run.comm_secs,
                    (n - 1) as f64 * message,
                    "{assignment:?} on {n} node(s)"
                );
                assert_eq!(run.nodes.iter().map(|r| r.n_partitions).sum::<usize>(), 36);
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let zones = tiny_zones();
        let mut cfg = tiny_cfg(0);
        assert!(matches!(
            run_cluster(&cfg, &zones),
            Err(ClusterError::InvalidConfig(_))
        ));
        cfg = tiny_cfg(4);
        cfg.pipeline.n_bins = 0;
        assert!(run_cluster(&cfg, &zones).is_err(), "zero bins");
        cfg = tiny_cfg(4);
        cfg.network.bandwidth_gbps = 0.0;
        assert!(run_cluster(&cfg, &zones).is_err(), "zero bandwidth");
        cfg = tiny_cfg(4);
        cfg.faults = FaultPlan::none().with_crash(0, 1);
        assert!(run_cluster(&cfg, &zones).is_err(), "master crash plan");
        cfg = tiny_cfg(4);
        cfg.detect_timeout_secs = 0.0;
        assert!(run_cluster(&cfg, &zones).is_err(), "zero detection window");
    }

    #[test]
    fn crash_under_failfast_is_a_typed_error() {
        let zones = tiny_zones();
        let cells: Vec<u64> = SrtmCatalog::new(4)
            .partitions()
            .iter()
            .map(Partition::cells)
            .collect();
        for assignment in Assignment::ALL {
            // The planned crash point lies beyond rank 2's share: the
            // error reports what the rank was handed, not the plan.
            let plan = FaultPlan::none().with_crash(2, 20);
            let cfg = with_assignment(faulty_cfg(4, plan, RecoveryPolicy::FailFast), assignment);
            match run_cluster(&cfg, &zones) {
                Err(ClusterError::NodeCrashed {
                    rank: 2,
                    completed_partitions,
                }) => match assignment.static_shares(&cells, 4) {
                    Some(shares) => assert_eq!(completed_partitions, shares[2].len()),
                    None => assert!((1..=20).contains(&completed_partitions)),
                },
                other => panic!("{assignment:?}: expected NodeCrashed for rank 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_under_reassign_matches_fault_free() {
        let zones = tiny_zones();
        for assignment in Assignment::ALL {
            let clean = run_cluster(&with_assignment(tiny_cfg(4), assignment), &zones).unwrap();
            let plan = FaultPlan::none().with_crash(2, 1);
            let cfg = with_assignment(faulty_cfg(4, plan, RecoveryPolicy::Reassign), assignment);
            let run = run_cluster(&cfg, &zones).unwrap();
            assert_eq!(
                run.hists, clean.hists,
                "{assignment:?}: reassignment preserves the answer bit-for-bit"
            );
            assert_eq!(run.failed_ranks, vec![2]);
            assert!(run.nodes[2].failed);
            assert!(run.recovery_secs > 0.0, "recovery is not free");
            assert!(
                run.sim_secs > clean.sim_secs,
                "{assignment:?}: faulty run is slower end to end"
            );
        }
    }

    #[test]
    fn crash_under_retry_matches_fault_free() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(4), &zones).unwrap();
        let cfg = faulty_cfg(
            4,
            FaultPlan::none().with_crash(1, 0),
            RecoveryPolicy::Retry {
                max_attempts: 2,
                backoff_secs: 0.5,
            },
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(
            run.nodes[1].failed,
            "retried rank is marked as having failed"
        );
        assert!(run.nodes[1].n_partitions > 0, "retry re-ran the full share");
        assert!(run.recovery_secs >= 0.5, "backoff is charged");
    }

    #[test]
    fn dropped_message_is_retransmitted() {
        let zones = tiny_zones();
        for assignment in Assignment::ALL {
            let clean = run_cluster(&with_assignment(tiny_cfg(3), assignment), &zones).unwrap();
            let plan = FaultPlan::none().with_drop(1);
            let cfg = with_assignment(faulty_cfg(3, plan, RecoveryPolicy::Reassign), assignment);
            let run = run_cluster(&cfg, &zones).unwrap();
            assert_eq!(run.hists, clean.hists, "{assignment:?}");
            assert!(run.retransmits >= 1, "the lost result was resent");
            assert!(
                run.failed_ranks.is_empty(),
                "a lost message is not a dead node"
            );
        }
    }

    #[test]
    fn corrupt_message_is_detected_and_resent() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(3), &zones).unwrap();
        // FailFast surfaces the corruption as a typed error…
        let ff = faulty_cfg(
            3,
            FaultPlan::none().with_corrupt(2),
            RecoveryPolicy::FailFast,
        );
        match run_cluster(&ff, &zones) {
            Err(ClusterError::CorruptPayload { from: 2, .. }) => {}
            other => panic!("expected CorruptPayload from rank 2, got {other:?}"),
        }
        // …while a recovering policy retransmits and still gets the
        // right answer.
        let cfg = faulty_cfg(
            3,
            FaultPlan::none().with_corrupt(2),
            RecoveryPolicy::Reassign,
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(run.retransmits >= 1);
    }

    #[test]
    fn delayed_message_costs_simulated_time() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(3), &zones).unwrap();
        let cfg = faulty_cfg(
            3,
            FaultPlan::none().with_delay(1, 2.5),
            RecoveryPolicy::Reassign,
        );
        let run = run_cluster(&cfg, &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert!(
            run.comm_secs >= clean.comm_secs + 2.5 - 1e-9,
            "the injected delay is charged to comm time: {} vs {}",
            run.comm_secs,
            clean.comm_secs
        );
    }

    #[test]
    fn multiple_crashes_with_one_survivor() {
        let zones = tiny_zones();
        let clean = run_cluster(&tiny_cfg(4), &zones).unwrap();
        let plan = FaultPlan::none().with_crash(1, 0).with_crash(3, 2);
        let run = run_cluster(&faulty_cfg(4, plan, RecoveryPolicy::Reassign), &zones).unwrap();
        assert_eq!(run.hists, clean.hists);
        assert_eq!(run.failed_ranks, vec![1, 3]);
    }
}
