//! `serve-update`: the query service over the full zone layer and two
//! BQ-compressed partitions, driven by the benchmark's own open-loop and
//! closed-loop generators, with the raster swapped between two versions
//! before every 50th query.
//!
//! Every answer is checked against a direct `run_partitions` answer for
//! its (plan, raster version), computed before measuring.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use zonal_core::pipeline::run_partitions;
use zonal_core::{PipelineConfig, ZoneHistograms};
use zonal_gpusim::DeviceSpec;
use zonal_raster::partition::Partition;
use zonal_serve::{
    Band, PartitionSource, QueryMix, QueryResponse, RasterStore, ServeConfig, ServeStats,
    ZonalQuery, ZonalService,
};

use crate::inputs::{self, Encoded};
use crate::loadgen::{self, Counts, Target};
use crate::{layers, stats, trace, Measured, Opts, Size, Values, DEFAULT_SEED};

/// Latency limit an answer must meet to count towards goodput.
const LIMIT_MS: f64 = 100.0;
/// The raster is updated before every this-many-th query.
const UPDATE_EVERY: u64 = 50;
/// Share of the measuring budget spent in the open loop; the closed
/// loop gets the rest.
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Share of queries asking for every zone; the rest ask for 1–8 zones.
const ALL_ZONES_PERCENT: u8 = 50;
/// The traced run's closed-loop segment starts at and spans a multiple
/// of this many queries: it holds an even number of raster updates, so
/// replaying it untraced starts from the same raster content.
const SEGMENT: u64 = 2 * UPDATE_EVERY;

struct Params {
    cells_per_degree: u32,
    tile_deg: f64,
    bins: [usize; 2],
    rate_qps: f64,
    /// Closed-loop queries per second of budget the phase is sized for.
    closed_qps: f64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            cells_per_degree: 60,
            tile_deg: 0.1,
            bins: [500, 1000],
            rate_qps: 40.0,
            closed_qps: 100.0,
        },
        Size::Tiny => Params {
            cells_per_degree: 10,
            tile_deg: 1.0,
            bins: [16, 32],
            rate_qps: 200.0,
            closed_qps: 200.0,
        },
    }
}

/// Move the encoded partitions into a band; the returned `Encoded` keeps
/// the input figures (its `parts` are empty).
fn into_band(mut enc: Encoded) -> (Band, Encoded) {
    let band = enc.parts.drain(..).map(PartitionSource::new).collect();
    (band, enc)
}

struct Prepared {
    zones_s: f64,
    inputs: Encoded,
    /// The two raster versions the updates alternate between.
    bands: Vec<Band>,
    service: ZonalService,
}

/// `terrains`: one terrain seed per raster version.
fn prepare(
    opts: &Opts,
    p: &Params,
    cfg: &PipelineConfig,
    parts: &[Partition],
    terrains: &[u64],
) -> Prepared {
    let t = Instant::now();
    let zones = inputs::zones(opts.size);
    let zones_s = t.elapsed().as_secs_f64();
    let (band, input_stats) =
        into_band(inputs::generate_and_encode(parts, p.tile_deg, terrains[0]));
    let mut bands = vec![band];
    for &terrain in &terrains[1..] {
        bands.push(into_band(inputs::generate_and_encode(parts, p.tile_deg, terrain)).0);
    }
    let store = Arc::new(RasterStore::new(zones, bands[0].clone()));
    let service = ZonalService::start(store, ServeConfig::new(*cfg));
    // Warm-up: one all-zones answer per plan fills the caches.
    for &b in &p.bins {
        service
            .query(ZonalQuery::all_zones(b))
            .expect("warm-up query is admitted on an idle service");
    }
    Prepared {
        zones_s,
        inputs: input_stats,
        bands,
        service,
    }
}

/// Rows already checked, by address: the `Weak` keeps the address from
/// being reused while the entry exists, so an address hit with the same
/// key is the same immutable row.
type VerifiedRows = HashMap<usize, (Weak<Vec<u64>>, u64)>;

/// The direct answer for one (raster version parity, bin count).
struct Reference {
    parity: u64,
    n_bins: usize,
    hists: ZoneHistograms,
}

/// Drives the service with the workload's query mix, applies the
/// raster updates, and checks every answer.
struct ServeTarget<'a> {
    service: &'a ZonalService,
    mix: QueryMix,
    n_zones: usize,
    /// Store version at start; version `v0 + k` holds `bands[k % 2]`.
    v0: u64,
    bands: &'a [Band],
    refs: &'a [Reference],
    update_ms: Mutex<Vec<f64>>,
    /// Rows already checked.
    verified: Mutex<VerifiedRows>,
    /// (version, bins) pairs answered, for the redundant-pass count.
    answered: Mutex<HashSet<(u64, usize)>>,
}

impl ServeTarget<'_> {
    fn take_answered(&self) -> HashSet<(u64, usize)> {
        std::mem::take(&mut *self.answered.lock().expect("answered set lock poisoned"))
    }
}

impl Target for ServeTarget<'_> {
    fn query(&self, i: u64) -> ZonalQuery {
        self.mix.query(i)
    }

    fn before_send(&self, i: u64) {
        if i == 0 || !i.is_multiple_of(UPDATE_EVERY) {
            return;
        }
        let mut samples = self.update_ms.lock().expect("update samples lock poisoned");
        let next = self.service.store().version() + 1;
        let band = self.bands[((next - self.v0) % 2) as usize].clone();
        let t = Instant::now();
        let version = self.service.update_raster(vec![band]);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(version, next, "only the benchmark updates the store");
    }

    fn check(&self, query: &ZonalQuery, response: &QueryResponse) -> bool {
        let version = response.raster_version;
        if response.n_bins != query.n_bins || version < self.v0 {
            return false;
        }
        let parity = (version - self.v0) % 2;
        let Some(reference) = self
            .refs
            .iter()
            .find(|r| r.parity == parity && r.n_bins == query.n_bins)
        else {
            return false;
        };
        self.answered
            .lock()
            .expect("answered set lock poisoned")
            .insert((version, query.n_bins));
        let ids = query.zones.resolve(self.n_zones);
        if ids.len() != response.rows.len() {
            return false;
        }
        let key = |zone: u32| parity << 40 | (query.n_bins as u64) << 20 | u64::from(zone);
        // Rows not yet checked, found under the lock; compared outside
        // it, so the clients do not queue behind each other's compares.
        let unchecked: Vec<(u32, &Arc<Vec<u64>>)> = {
            let verified = self.verified.lock().expect("verified rows lock poisoned");
            let mut unchecked = Vec::new();
            for ((zone, row), &want) in response.rows.iter().zip(&ids) {
                if *zone != want {
                    return false;
                }
                let addr = Arc::as_ptr(row) as usize;
                if verified.get(&addr).is_none_or(|(_, k)| *k != key(want)) {
                    unchecked.push((want, row));
                }
            }
            unchecked
        };
        if unchecked
            .iter()
            .any(|(zone, row)| row.as_slice() != reference.hists.zone(*zone as usize))
        {
            return false;
        }
        let mut verified = self.verified.lock().expect("verified rows lock poisoned");
        if verified.len() > 1 << 17 {
            verified.retain(|_, (w, _)| w.strong_count() > 0);
        }
        for (zone, row) in unchecked {
            verified.insert(Arc::as_ptr(row) as usize, (Arc::downgrade(row), key(zone)));
        }
        true
    }
}

/// Serving-layer figures over one measured phase.
fn serve_values(
    before: &ServeStats,
    after: &ServeStats,
    answered: &HashSet<(u64, usize)>,
    v0: u64,
    n_parts: usize,
    values: &mut Values,
) {
    let d = |f: fn(&ServeStats) -> u64| (f(after) - f(before)) as f64;
    let hits = d(|s| s.row_cache_hits);
    let misses = d(|s| s.row_cache_misses);
    let passes = d(|s| s.pipeline_passes);
    // One pass per partition is needed for each (version, plan) answered
    // that the set-up warm-up had not already computed.
    let needed = answered.iter().filter(|(v, _)| *v != v0).count() * n_parts;
    values.set("serve.row_hit_rate", hits / (hits + misses).max(1.0));
    values.set("serve.partition_memo_hits", d(|s| s.partition_cache_hits));
    values.set("serve.pipeline_passes", passes);
    values.set("serve.redundant_passes", (passes - needed as f64).max(0.0));
    values.set(
        "serve.mean_batch",
        d(|s| s.batched_queries) / d(|s| s.batches).max(1.0),
    );
    values.set("serve.shed_queue_full", d(|s| s.shed_queue_full));
    values.set("serve.shed_saturated", d(|s| s.shed_saturated));
}

pub fn run(opts: &Opts) -> Measured {
    let p = params(opts.size);
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_tile_deg(p.tile_deg);
    let cell_factor = zonal_bench::cell_factor(p.cells_per_degree);
    let n_open = ((p.rate_qps * opts.seconds * OPEN_SHARE).round() as u64).max(20);
    let n_closed = ((p.closed_qps * opts.seconds * (1.0 - OPEN_SHARE)).round() as u64).max(20);
    let parts: Vec<Partition> = (0..2)
        .map(|i| zonal_bench::partition_of(p.cells_per_degree, "west-south", i))
        .collect();
    let first = inputs::terrain_seed(opts.seed, &parts, None);
    let terrains = [
        first,
        inputs::terrain_seed(opts.seed.wrapping_add(1), &parts, Some(first)),
    ];
    let mut notes = vec![format!(
        "params: raster=west-south partitions=2 cells_per_degree={} tile_deg={} zones=us_like({}) terrain_seeds={:?} \
         plans={:?} bins, {}% all-zones; open loop {} queries at {} q/s; closed loop {} queries, \
         {} clients; limit {} ms; raster updates before every {}th query, alternating the \
         terrains",
        p.cells_per_degree,
        p.tile_deg,
        DEFAULT_SEED,
        terrains,
        p.bins,
        ALL_ZONES_PERCENT,
        n_open,
        p.rate_qps,
        n_closed,
        CLIENTS,
        LIMIT_MS,
        UPDATE_EVERY
    )];
    let mut values = Values::default();

    let session = opts.trace.then(trace::start);
    let (prep, setup_s) = if opts.trace {
        (prepare(opts, &p, &cfg, &parts, &terrains), vec![])
    } else {
        inputs::repeat_setup(5, 0.0, || prepare(opts, &p, &cfg, &parts, &terrains))
    };
    let service = &prep.service;
    let zones = service.store().zones().clone();
    let n_parts = prep.bands[0].len();
    let store_cells = prep.inputs.cells;

    // Direct answers for every (version, plan), and the parallel wall of
    // the larger plan on the first version.
    let mut refs = Vec::new();
    let mut parallel_wall = 0.0;
    let mut sim_e2e = 0.0;
    for (parity, band) in prep.bands.iter().enumerate() {
        for &n_bins in &p.bins {
            let t = Instant::now();
            let r = run_partitions(&cfg.with_bins(n_bins), &zones, band);
            if parity == 0 && n_bins == p.bins[1] {
                parallel_wall = t.elapsed().as_secs_f64();
                sim_e2e = r
                    .timings
                    .end_to_end_overlapped_sim_secs_at_scale(cell_factor);
            }
            refs.push(Reference {
                parity: parity as u64,
                n_bins,
                hists: r.hists,
            });
        }
    }

    let mut mix = QueryMix::new(opts.seed, p.bins.to_vec(), zones.len());
    mix.percent_all_zones = ALL_ZONES_PERCENT;
    let target = ServeTarget {
        service,
        mix,
        n_zones: zones.len(),
        v0: service.store().version(),
        bands: &prep.bands,
        refs: &refs,
        update_ms: Mutex::new(Vec::new()),
        verified: Mutex::new(HashMap::new()),
        answered: Mutex::new(HashSet::new()),
    };

    let mut counts = Counts::default();
    let mut checks_ok = true;
    if let Some(session) = session {
        values.set("geo.zones_s", prep.zones_s);
        layers::input_values(&prep.inputs, &mut values);
        let band = &prep.bands[0];
        layers::decode_values(layers::decode_pass(band), &mut values);
        layers::pair_pass(&zones, band, &mut values);
        let pass = layers::serial_pass(&cfg.with_bins(p.bins[1]), &zones, band);
        checks_ok &= refs
            .iter()
            .any(|r| r.parity == 0 && r.n_bins == p.bins[1] && r.hists == pass.result.hists);
        layers::serial_values(&pass, cell_factor, parallel_wall, &mut values);

        // The tracing overhead compares one closed-loop segment with the
        // same queries replayed untraced right after it.
        let seg_first = (n_open / 2).next_multiple_of(SEGMENT);
        let seg_len = (n_closed / 2).next_multiple_of(SEGMENT);
        let before = service.stats();
        let open = loadgen::open_loop(service, &target, 0, n_open / 2, p.rate_qps, LIMIT_MS);
        let traced = loadgen::closed_loop(service, &target, seg_first, seg_len, CLIENTS);
        let after = service.stats();
        let report = trace::finish(session, opts, &mut values);
        serve_values(
            &before,
            &after,
            &target.take_answered(),
            target.v0,
            n_parts,
            &mut values,
        );
        let untraced = loadgen::closed_loop(service, &target, seg_first, seg_len, CLIENTS);
        values.set(
            "obs.trace_overhead_frac",
            traced.wall_secs / untraced.wall_secs - 1.0,
        );
        let updates = target
            .update_ms
            .lock()
            .expect("update samples lock poisoned")
            .clone();
        notes.push(format!(
            "serve: submit_us p50 {} p99 {} (n {}); update_ms p50 {} max {} (n {}); \
             loadgen.late_ms_max {}",
            stats::percentile(&open.submit_us, 0.5),
            stats::percentile(&open.submit_us, 0.99),
            open.submit_us.len(),
            stats::percentile(&updates, 0.5),
            stats::max(&updates),
            updates.len(),
            open.late_ms_max
        ));
        notes.push(format!(
            "closed loop traced {:.4} s, then untraced {:.4} s, over the same {} queries from {}",
            traced.wall_secs, untraced.wall_secs, seg_len, seg_first
        ));
        notes.extend(report.notes);
        checks_ok &= report.valid;
        counts.add(&open.counts);
        counts.add(&traced.counts);
        counts.add(&untraced.counts);
    } else {
        let before = service.stats();
        let open = loadgen::open_loop(service, &target, 0, n_open, p.rate_qps, LIMIT_MS);
        let closed = loadgen::closed_loop(service, &target, n_open, n_closed, CLIENTS);
        let after = service.stats();
        let capacity = closed.counts.completed as f64 / closed.wall_secs;
        let lat = &open.latency_ms;
        values.set("setup_s", stats::median(&setup_s));
        values.set("wall_s", closed.wall_secs);
        values.set("mcells_per_s", capacity * store_cells as f64 / 1e6);
        values.set("sim_e2e_s", sim_e2e);
        values.set("goodput_qps", open.within_limit as f64 / open.phase_secs);
        values.set("capacity_qps", capacity);
        let class = |all: bool| -> Vec<f64> {
            lat.iter()
                .zip(&open.all_zones)
                .filter(|(_, &a)| a == all)
                .map(|(&l, _)| l)
                .collect()
        };
        let (all, subset) = (class(true), class(false));
        notes.push(format!(
            "open loop by class: all-zones n {} p50 {:.3} p95 {:.3} ms; subset n {} p50 {:.3} p95 {:.3} ms",
            all.len(),
            stats::percentile(&all, 0.5),
            stats::percentile(&all, 0.95),
            subset.len(),
            stats::percentile(&subset, 0.5),
            stats::percentile(&subset, 0.95)
        ));
        let mut layer = Values::default();
        serve_values(
            &before,
            &after,
            &target.take_answered(),
            target.v0,
            n_parts,
            &mut layer,
        );
        let updates = target
            .update_ms
            .lock()
            .expect("update samples lock poisoned")
            .clone();
        notes.push(format!(
            "setup reps {} {:?} s; open loop {} answers over {:.3} s: p50 {:.3} ms, p95 {:.3} ms \
             ({} samples beyond it), max {:.3} ms, loadgen.late_ms_max {:.3}; closed loop {} \
             answers in {:.3} s; updates {}",
            setup_s.len(),
            setup_s,
            lat.len(),
            open.phase_secs,
            stats::percentile(lat, 0.5),
            stats::percentile(lat, 0.95),
            stats::beyond(lat, 0.95),
            stats::max(lat),
            open.late_ms_max,
            closed.counts.completed,
            closed.wall_secs,
            updates.len()
        ));
        notes.push(format!(
            "serve (both phases): row_hit_rate {:.4} pipeline_passes {} redundant_passes {} \
             partition_memo_hits {} mean_batch {:.3}",
            layer.get("serve.row_hit_rate").unwrap_or(0.0),
            layer.get("serve.pipeline_passes").unwrap_or(0.0),
            layer.get("serve.redundant_passes").unwrap_or(0.0),
            layer.get("serve.partition_memo_hits").unwrap_or(0.0),
            layer.get("serve.mean_batch").unwrap_or(0.0)
        ));
        counts.add(&open.counts);
        counts.add(&closed.counts);
    }
    notes.push(format!(
        "answers: attempted {} completed {} shed {} errors {} wrong {}",
        counts.attempted, counts.completed, counts.shed, counts.errors, counts.wrong
    ));
    Measured {
        correct: counts.wrong == 0 && counts.errors == 0 && checks_ok,
        attempted: counts.attempted,
        failed: counts.failed(),
        values,
        notes,
    }
}
