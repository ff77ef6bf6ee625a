//! Partition scheduling, simulated — the paper's §IV.C future-work item.
//!
//! The paper observes that static distribution of the 36 partitions leaves
//! nodes unevenly loaded (coverage-edge partitions carry little Step 4
//! work) and suggests studying "the tradeoffs between communication and
//! load balancing". This module measures real per-partition costs and
//! simulates each [`Assignment`] over them; self-scheduling pays one
//! request message per partition. [`lpt_makespan`] over the *measured*
//! costs gives the oracle static schedule: the lower bound any static
//! scheme can hope for.

use crate::run::Assignment;
use serde::Serialize;
use zonal_core::pipeline::{run_partition, Zones};
use zonal_core::PipelineConfig;
use zonal_raster::partition::Partition;
use zonal_raster::srtm::{SrtmCatalog, SyntheticSrtm};

/// Outcome of simulating one policy.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleOutcome {
    pub policy: Assignment,
    pub n_nodes: usize,
    /// Simulated completion time (slowest node).
    pub makespan: f64,
    /// Per-node total busy time.
    pub node_loads: Vec<f64>,
    /// Extra scheduling messages (dynamic pays one request per partition).
    pub extra_messages: usize,
}

impl ScheduleOutcome {
    pub fn imbalance(&self) -> f64 {
        let mean = self.node_loads.iter().sum::<f64>() / self.node_loads.len() as f64;
        if mean > 0.0 {
            self.makespan / mean
        } else {
            1.0
        }
    }
}

/// Measure each partition's simulated end-to-end cost by actually running
/// the pipeline on it. Returns `(costs, cells)` in catalog partition order.
pub fn measure_partition_costs(
    cfg: &PipelineConfig,
    zones: &Zones,
    cells_per_degree: u32,
    seed: u64,
    cell_factor: f64,
) -> (Vec<f64>, Vec<u64>) {
    let parts: Vec<Partition> = SrtmCatalog::new(cells_per_degree).partitions();
    let mut costs = Vec::with_capacity(parts.len());
    let mut cells = Vec::with_capacity(parts.len());
    for p in &parts {
        let src = SyntheticSrtm::new(p.grid(cfg.tile_deg), seed);
        let r = run_partition(cfg, zones, &src);
        costs.push(
            r.timings
                .end_to_end_overlapped_sim_secs_at_scale(cell_factor),
        );
        cells.push(p.cells());
    }
    (costs, cells)
}

/// Simulate a policy over measured per-partition costs.
///
/// `request_latency` is the per-message cost self-scheduling pays to ask
/// the master for work (the "more MPI communications" of the paper's
/// tradeoff).
pub fn simulate(
    policy: Assignment,
    costs: &[f64],
    cells: &[u64],
    n_nodes: usize,
    request_latency: f64,
) -> ScheduleOutcome {
    assert!(n_nodes > 0, "need at least one node");
    assert_eq!(costs.len(), cells.len());
    let (node_loads, extra_messages) = match policy.static_shares(cells, n_nodes) {
        Some(shares) => (
            shares
                .iter()
                .map(|idxs| idxs.iter().map(|&i| costs[i]).sum())
                .collect(),
            0,
        ),
        None => {
            // Event simulation: each free node pulls the next partition in
            // catalog order, paying a request round-trip each time.
            let mut free_at = vec![0.0f64; n_nodes];
            for &c in costs {
                let node = (0..n_nodes)
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]).then(a.cmp(&b)))
                    .expect("n_nodes > 0");
                free_at[node] += request_latency + c;
            }
            (free_at, costs.len())
        }
    };
    let makespan = node_loads.iter().fold(0.0f64, |a, &b| a.max(b));
    ScheduleOutcome {
        policy,
        n_nodes,
        makespan,
        node_loads,
        extra_messages,
    }
}

/// Makespan of greedy longest-processing-time (LPT) scheduling of `costs`
/// over `n_nodes`: each cost, longest first, to the currently
/// least-loaded node. The runner prices reassigned orphans (a crashed
/// node's partitions) across the survivors with it; over measured
/// partition costs it is the oracle static schedule.
pub fn lpt_makespan(costs: &[f64], n_nodes: usize) -> f64 {
    assert!(n_nodes > 0, "LPT needs at least one node");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let mut loads = vec![0.0f64; n_nodes];
    for i in order {
        let node = (0..n_nodes)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
            .expect("n_nodes > 0");
        loads[node] += costs[i];
    }
    loads.iter().fold(0.0f64, |a, &b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skewed costs shaped like the real catalog: a few heavy interior
    /// partitions, several light coverage-edge ones.
    fn skewed() -> (Vec<f64>, Vec<u64>) {
        let costs: Vec<f64> = (0..36)
            .map(|i| {
                if i % 6 == 0 {
                    10.0
                } else {
                    2.0 + (i % 5) as f64 * 0.5
                }
            })
            .collect();
        // Cells uncorrelated with cost (edge partitions have many cells but
        // little Step-4 work).
        let cells: Vec<u64> = (0..36).map(|i| 1000 + (i * 37 % 100) as u64).collect();
        (costs, cells)
    }

    #[test]
    fn all_policies_schedule_every_partition() {
        let (costs, cells) = skewed();
        let total: f64 = costs.iter().sum();
        for policy in Assignment::ALL {
            let o = simulate(policy, &costs, &cells, 8, 0.0);
            let scheduled: f64 = o.node_loads.iter().sum();
            assert!(
                (scheduled - total).abs() < 1e-9,
                "{policy:?}: {scheduled} vs {total}"
            );
            assert!(
                o.makespan >= total / 8.0 - 1e-9,
                "{policy:?} beats the lower bound"
            );
        }
        assert!(lpt_makespan(&costs, 8) >= total / 8.0 - 1e-9);
    }

    #[test]
    fn dynamic_beats_round_robin_on_skew() {
        let (costs, cells) = skewed();
        let rr = simulate(Assignment::RoundRobin, &costs, &cells, 8, 0.0);
        let dyn_ = simulate(Assignment::SelfScheduling, &costs, &cells, 8, 0.0);
        assert!(
            dyn_.makespan <= rr.makespan + 1e-9,
            "dynamic {:.2} vs rr {:.2}",
            dyn_.makespan,
            rr.makespan
        );
    }

    #[test]
    fn oracle_is_never_worse_than_by_cells() {
        let (costs, cells) = skewed();
        for n in [4usize, 8, 16] {
            let by_cells = simulate(Assignment::BalancedByCells, &costs, &cells, n, 0.0);
            assert!(
                lpt_makespan(&costs, n) <= by_cells.makespan + 1e-9,
                "{n} nodes"
            );
        }
    }

    #[test]
    fn request_latency_penalizes_dynamic() {
        let (costs, cells) = skewed();
        let free = simulate(Assignment::SelfScheduling, &costs, &cells, 8, 0.0);
        let costly = simulate(Assignment::SelfScheduling, &costs, &cells, 8, 0.5);
        assert!(costly.makespan > free.makespan);
        assert_eq!(costly.extra_messages, 36);
        assert_eq!(free.extra_messages, 36);
    }

    #[test]
    fn uniform_costs_everyone_ties() {
        let costs = vec![1.0; 36];
        let cells = vec![100u64; 36];
        for policy in Assignment::ALL {
            let o = simulate(policy, &costs, &cells, 6, 0.0);
            assert!((o.makespan - 6.0).abs() < 1e-9, "{policy:?}");
            assert!((o.imbalance() - 1.0).abs() < 1e-9, "{policy:?}");
        }
        assert!((lpt_makespan(&costs, 6) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn lpt_makespan_balances_orphans() {
        // One survivor carries everything.
        let orphans = [3.0, 1.0, 2.0];
        assert!((lpt_makespan(&orphans, 1) - 6.0).abs() < 1e-9);
        // LPT over two survivors: {3.0} vs {2.0, 1.0}.
        assert!((lpt_makespan(&orphans, 2) - 3.0).abs() < 1e-9);
        // More survivors than orphans: the heaviest orphan bounds it.
        assert!((lpt_makespan(&orphans, 8) - 3.0).abs() < 1e-9);
        // Nothing orphaned costs nothing.
        assert_eq!(lpt_makespan(&[], 4), 0.0);
    }

    #[test]
    fn single_node_makespan_is_total() {
        let (costs, cells) = skewed();
        let total: f64 = costs.iter().sum();
        for policy in Assignment::ALL {
            let o = simulate(policy, &costs, &cells, 1, 0.0);
            assert!((o.makespan - total).abs() < 1e-9, "{policy:?}");
        }
        assert!((lpt_makespan(&costs, 1) - total).abs() < 1e-9);
    }
}
