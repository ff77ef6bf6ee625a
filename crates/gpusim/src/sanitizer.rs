//! Kernel sanitizer: happens-before race detection, barrier-divergence
//! diagnosis, and access-pattern lints for the simulated GPU.
//!
//! Only compiled under the `sanitize` feature. The paper's kernel style —
//! zero shared bins, `__syncthreads()`, atomic accumulation (Fig. 2) —
//! depends entirely on barrier discipline, and a missing barrier in the
//! emulator otherwise surfaces only as a flaky interleaving. This module
//! gives the reproduction the cuda-memcheck/racecheck safety net:
//!
//! * **Epoch-stamped traces.** Inside
//!   [`crate::block::SimtBlock::run_sanitized`], every
//!   [`crate::tracked::TrackedBuf`] access is recorded with the accessing
//!   thread, the element index, the access kind, and the thread's *epoch*
//!   — its barrier count. A barrier releases all threads together, so two
//!   accesses by different threads are concurrent **iff** their epochs are
//!   equal, and ordered by the intervening barrier otherwise. This makes
//!   happens-before analysis exact and schedule-independent: the detector
//!   finds a race whenever one is *possible*, not merely when an unlucky
//!   interleaving exhibited it.
//! * **Race rule.** Two accesses to the same buffer element from different
//!   threads in the same epoch, at least one of them a non-atomic
//!   [`AccessKind::Store`], form a data race ([`RaceReport`]). Atomic
//!   read-modify-writes race only against stores — concurrent `atomicAdd`s
//!   are the paper's bread and butter and are race-free.
//! * **Barrier-divergence diagnosis.** [`DivergenceBarrier`] replaces the
//!   deadlock (hung test under a watchdog) that a tid-dependent
//!   `__syncthreads` produces on a real GPU with a structured
//!   [`DivergenceReport`]: which threads were parked at `sync()`, which had
//!   exited the kernel, and at which barrier count.
//! * **Lints.** Out-of-bounds indices ([`OobReport`]); trace-driven
//!   [`LintReport`]s for uncoalesced access (per-warp transaction counting
//!   via [`crate::cost::memory_transactions`]), non-atomic
//!   read-modify-write, and same-thread write-after-write within an epoch.
//! * **Schedule permutation.** Each sanitized run takes a seed; tracked
//!   accesses deterministically perturb the interleaving (seeded yields),
//!   and [`crate::block::SimtBlock::explore_schedules`] sweeps several
//!   seeds and merges the findings. Reports themselves are canonicalized
//!   (sorted, deduplicated), so the same seed yields the same report.

use crate::cost::{self, MEM_SEGMENT_BYTES};
use crate::occupancy::WARP_SIZE;
use crate::tracked::AccessKind;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Panic payload used to abort a kernel thread after the sanitizer has
/// captured a terminal diagnostic (divergence poison, out-of-bounds). The
/// harness in `SimtBlock::run_sanitized` swallows it; user panics are
/// re-raised untouched.
pub(crate) struct SanitizerAbort;

static BUF_IDS: AtomicU32 = AtomicU32::new(0);

/// Fresh identity for a [`crate::tracked::TrackedBuf`].
pub(crate) fn next_buf_id() -> u32 {
    BUF_IDS.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct RawEvent {
    buf: u32,
    index: usize,
    kind: AccessKind,
    epoch: u32,
    /// Per-thread program order, for intra-thread lints (RMW detection).
    seq: u32,
}

#[derive(Debug, Clone)]
struct BufMeta {
    label: &'static str,
    elem_bytes: u64,
}

/// Everything one kernel thread contributed to a sanitized run.
pub(crate) struct ThreadDump {
    tid: usize,
    events: Vec<RawEvent>,
    bufs: BTreeMap<u32, BufMeta>,
    oob: Vec<OobReport>,
}

struct ThreadRecorder {
    tid: usize,
    epoch: u32,
    seq: u32,
    rng: u64,
    events: Vec<RawEvent>,
    bufs: BTreeMap<u32, BufMeta>,
    oob: Vec<OobReport>,
}

thread_local! {
    static RECORDER: RefCell<Option<ThreadRecorder>> = const { RefCell::new(None) };
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arm this OS thread as kernel thread `tid` of a sanitized run.
pub(crate) fn install(tid: usize, seed: u64) {
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    for _ in 0..=tid {
        splitmix(&mut state);
    }
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(ThreadRecorder {
            tid,
            epoch: 0,
            seq: 0,
            rng: state,
            events: Vec::new(),
            bufs: BTreeMap::new(),
            oob: Vec::new(),
        });
    });
}

/// Disarm and collect the thread's trace.
pub(crate) fn uninstall(tid: usize) -> ThreadDump {
    RECORDER.with(|r| match r.borrow_mut().take() {
        Some(rec) => ThreadDump {
            tid: rec.tid,
            events: rec.events,
            bufs: rec.bufs,
            oob: rec.oob,
        },
        None => ThreadDump {
            tid,
            events: Vec::new(),
            bufs: BTreeMap::new(),
            oob: Vec::new(),
        },
    })
}

/// A barrier this thread passed: advance its epoch.
pub(crate) fn bump_epoch() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.epoch += 1;
        }
    });
}

/// Record one tracked-buffer access. No-op (beyond the thread-local check)
/// outside a sanitized run. Out-of-bounds indices are captured as a
/// diagnostic and abort the kernel thread before the underlying slice
/// index can panic with an anonymous message.
pub(crate) fn record_access(
    buf: u32,
    label: &'static str,
    len: usize,
    elem_bytes: u64,
    index: usize,
    kind: AccessKind,
) {
    enum Outcome {
        NotRecording,
        OutOfBounds,
        Recorded { yield_now: bool },
    }
    let outcome = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Outcome::NotRecording;
        };
        rec.bufs.entry(buf).or_insert(BufMeta { label, elem_bytes });
        if index >= len {
            rec.oob.push(OobReport {
                buffer: label.to_string(),
                len,
                index,
                tid: rec.tid,
                epoch: rec.epoch,
                kind,
            });
            return Outcome::OutOfBounds;
        }
        rec.events.push(RawEvent {
            buf,
            index,
            kind,
            epoch: rec.epoch,
            seq: rec.seq,
        });
        rec.seq = rec.seq.wrapping_add(1);
        // Seeded schedule perturbation: a deterministic-per-(seed, tid,
        // access) coin decides whether to yield, shuffling interleavings
        // reproducibly across seeds.
        Outcome::Recorded {
            yield_now: splitmix(&mut rec.rng) & 3 == 0,
        }
    });
    match outcome {
        Outcome::NotRecording => {}
        // Stop this kernel thread: the report carries the diagnosis, and
        // letting the underlying slice index panic would bury it.
        Outcome::OutOfBounds => std::panic::panic_any(SanitizerAbort),
        Outcome::Recorded { yield_now } => {
            if yield_now {
                std::thread::yield_now();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Divergence-aware barrier
// ---------------------------------------------------------------------------

/// A block barrier that diagnoses divergence instead of deadlocking.
///
/// Threads call [`DivergenceBarrier::sync`]; the harness calls
/// [`DivergenceBarrier::thread_exited`] when a kernel thread returns. If
/// every still-running thread is parked at the barrier but at least one
/// thread has already exited, no release is possible — a real GPU would
/// hang (or worse) — so the barrier records a [`DivergenceReport`],
/// aborts the parked threads quietly (a `SanitizerAbort` panic the
/// harness swallows), and the harness reads the report back with
/// [`DivergenceBarrier::divergence`].
pub struct DivergenceBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

#[derive(Debug, Default)]
struct BarrierState {
    waiting: Vec<usize>,
    exited: Vec<usize>,
    barrier_count: u32,
    generation: u64,
    poisoned: bool,
    divergence: Option<DivergenceReport>,
}

impl DivergenceBarrier {
    pub fn new(block_dim: usize) -> Self {
        DivergenceBarrier {
            n: block_dim,
            state: Mutex::new(BarrierState::default()),
            cvar: Condvar::new(),
        }
    }

    /// `__syncthreads()` for kernel thread `tid`.
    pub fn sync(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        if st.poisoned {
            drop(st);
            std::panic::panic_any(SanitizerAbort);
        }
        st.waiting.push(tid);
        if st.waiting.len() + st.exited.len() == self.n {
            if st.exited.is_empty() {
                // Full house: release the barrier.
                st.waiting.clear();
                st.barrier_count += 1;
                st.generation += 1;
                self.cvar.notify_all();
                return;
            }
            // Everyone unaccounted for is parked here, but the exited
            // threads can never arrive: divergence.
            Self::diverge(&mut st);
            self.cvar.notify_all();
            drop(st);
            std::panic::panic_any(SanitizerAbort);
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self.cvar.wait(st).unwrap();
        }
        if st.poisoned {
            drop(st);
            std::panic::panic_any(SanitizerAbort);
        }
    }

    /// Kernel thread `tid` returned (normally or by panic) without being
    /// parked at the barrier.
    pub fn thread_exited(&self, tid: usize) {
        let mut st = self.state.lock().unwrap();
        if st.poisoned {
            return;
        }
        st.exited.push(tid);
        if !st.waiting.is_empty() && st.waiting.len() + st.exited.len() == self.n {
            Self::diverge(&mut st);
            self.cvar.notify_all();
        }
    }

    fn diverge(st: &mut BarrierState) {
        let mut parked = st.waiting.clone();
        parked.sort_unstable();
        let mut exited = st.exited.clone();
        exited.sort_unstable();
        st.divergence = Some(DivergenceReport {
            barrier_count: st.barrier_count,
            parked,
            exited,
        });
        st.poisoned = true;
    }

    /// Barriers successfully passed by the whole block so far.
    pub fn barrier_count(&self) -> u32 {
        self.state.lock().unwrap().barrier_count
    }

    /// The divergence diagnosis, if one was recorded.
    pub fn divergence(&self) -> Option<DivergenceReport> {
        self.state.lock().unwrap().divergence.clone()
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One side of a racing pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    pub tid: usize,
    pub epoch: u32,
    pub kind: AccessKind,
}

/// Which dangerous combination formed the race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Non-atomic store vs. non-atomic store.
    WriteWrite,
    /// Non-atomic load vs. non-atomic store.
    ReadWrite,
    /// Atomic read-modify-write vs. non-atomic store.
    AtomicWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceKind::WriteWrite => "write/write",
            RaceKind::ReadWrite => "read/write",
            RaceKind::AtomicWrite => "atomic/write",
        })
    }
}

/// A happens-before data race: two accesses to `buffer[index]` from
/// different threads with no separating barrier, at least one a non-atomic
/// store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    pub buffer: String,
    pub index: usize,
    pub kind: RaceKind,
    pub first: AccessSite,
    pub second: AccessSite,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race ({kind}) on {buf}[{idx}]: tid {t1} {k1} at epoch {e1} \
             vs tid {t2} {k2} at epoch {e2} with no separating barrier",
            kind = self.kind,
            buf = self.buffer,
            idx = self.index,
            t1 = self.first.tid,
            k1 = self.first.kind,
            e1 = self.first.epoch,
            t2 = self.second.tid,
            k2 = self.second.kind,
            e2 = self.second.epoch,
        )
    }
}

/// Access-pattern lints: legal but suspicious or slow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintKind {
    /// The buffer's load/store traffic needed far more memory transactions
    /// than a packed layout would (atomics excluded — scattered
    /// `atomicAdd`s are inherent to histogramming).
    Uncoalesced { transactions: u64, ideal: u64 },
    /// A thread loaded and then stored the same element within one epoch:
    /// a read-modify-write that loses updates if any other thread touches
    /// the element — `atomicAdd` (`TrackedBuf::add`) is the safe form.
    RmwWithoutAtomic,
    /// A thread stored the same element twice within one epoch: the first
    /// store is dead, usually a sign of a misplaced phase boundary.
    WriteAfterWriteSameEpoch,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintKind::Uncoalesced {
                transactions,
                ideal,
            } => write!(
                f,
                "uncoalesced access ({transactions} memory transactions where \
                 a packed pattern needs {ideal})"
            ),
            LintKind::RmwWithoutAtomic => f.write_str("read-modify-write without atomic"),
            LintKind::WriteAfterWriteSameEpoch => f.write_str("write-after-write in one epoch"),
        }
    }
}

/// One lint finding, aggregated per buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    pub buffer: String,
    pub kind: LintKind,
    /// Occurrences folded into this report.
    pub count: u64,
    /// First example site, e.g. `"tid 3, index 17, epoch 0"`.
    pub example: String,
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lint: {kind} on {buf} ({n} occurrence(s); first: {ex})",
            kind = self.kind,
            buf = self.buffer,
            n = self.count,
            ex = self.example,
        )
    }
}

/// An index outside the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OobReport {
    pub buffer: String,
    pub len: usize,
    pub index: usize,
    pub tid: usize,
    pub epoch: u32,
    pub kind: AccessKind,
}

impl fmt::Display for OobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-bounds {kind} on {buf}: index {idx} >= len {len} (tid {tid}, epoch {epoch})",
            kind = self.kind,
            buf = self.buffer,
            idx = self.index,
            len = self.len,
            tid = self.tid,
            epoch = self.epoch,
        )
    }
}

/// Divergent barrier: some threads parked at `sync()`, the rest exited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Barriers the block had fully passed before diverging.
    pub barrier_count: u32,
    /// Threads parked at `sync()`, waiting forever.
    pub parked: Vec<usize>,
    /// Threads that exited the kernel without reaching that barrier.
    pub exited: Vec<usize>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "barrier divergence after {n} full barrier(s): tids {parked:?} \
             parked at sync(), tids {exited:?} exited the kernel",
            n = self.barrier_count,
            parked = self.parked,
            exited = self.exited,
        )
    }
}

/// Everything the sanitizer concluded about one block execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReport {
    pub seed: u64,
    pub block_dim: usize,
    /// Barriers the whole block passed.
    pub barriers: u32,
    /// Tracked-buffer accesses recorded.
    pub accesses: u64,
    pub races: Vec<RaceReport>,
    pub lints: Vec<LintReport>,
    pub oob: Vec<OobReport>,
    pub divergence: Option<DivergenceReport>,
}

impl BlockReport {
    /// No races, lints, out-of-bounds accesses, or divergence.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
            && self.lints.is_empty()
            && self.oob.is_empty()
            && self.divergence.is_none()
    }

    /// Panic with the full diagnostic text unless the run was clean.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{self}");
    }

    /// Fold another run's findings in (used by seed exploration);
    /// duplicates are dropped so the merged report stays canonical.
    pub fn merge(&mut self, other: BlockReport) {
        self.barriers = self.barriers.max(other.barriers);
        self.accesses = self.accesses.max(other.accesses);
        for r in other.races {
            if !self.races.contains(&r) {
                self.races.push(r);
            }
        }
        for l in other.lints {
            if !self
                .lints
                .iter()
                .any(|m| m.buffer == l.buffer && m.kind == l.kind)
            {
                self.lints.push(l);
            }
        }
        for o in other.oob {
            if !self.oob.contains(&o) {
                self.oob.push(o);
            }
        }
        if self.divergence.is_none() {
            self.divergence = other.divergence;
        }
    }
}

impl fmt::Display for BlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitizer report (block_dim {}, seed {:#x}): {} access(es), {} barrier(s)",
            self.block_dim, self.seed, self.accesses, self.barriers
        )?;
        if self.is_clean() {
            return write!(f, "  clean");
        }
        if let Some(d) = &self.divergence {
            writeln!(f, "  {d}")?;
        }
        for o in &self.oob {
            writeln!(f, "  {o}")?;
        }
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        for l in &self.lints {
            writeln!(f, "  {l}")?;
        }
        write!(
            f,
            "  total: {} race(s), {} lint(s), {} out-of-bounds, divergence: {}",
            self.races.len(),
            self.lints.len(),
            self.oob.len(),
            self.divergence.is_some(),
        )
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Rec {
    buf: u32,
    index: usize,
    epoch: u32,
    tid: usize,
    kind: AccessKind,
    seq: u32,
}

/// Run the happens-before detector and the lints over the per-thread
/// traces. Pure and deterministic: the traces fix the report.
pub(crate) fn analyze(
    block_dim: usize,
    seed: u64,
    barriers: u32,
    divergence: Option<DivergenceReport>,
    dumps: Vec<ThreadDump>,
) -> BlockReport {
    let mut bufs: BTreeMap<u32, BufMeta> = BTreeMap::new();
    let mut all: Vec<Rec> = Vec::new();
    let mut oob: Vec<OobReport> = Vec::new();
    for d in dumps {
        for (id, meta) in d.bufs {
            bufs.entry(id).or_insert(meta);
        }
        oob.extend(d.oob);
        all.extend(d.events.into_iter().map(|e| Rec {
            buf: e.buf,
            index: e.index,
            epoch: e.epoch,
            tid: d.tid,
            kind: e.kind,
            seq: e.seq,
        }));
    }
    let accesses = all.len() as u64;
    oob.sort_by(|a, b| {
        (&a.buffer, a.tid, a.epoch, a.index).cmp(&(&b.buffer, b.tid, b.epoch, b.index))
    });
    // Canonical order makes every downstream grouping — and therefore the
    // report — independent of thread scheduling.
    all.sort_by_key(|r| (r.buf, r.index, r.epoch, r.tid, r.seq));

    let label = |bufs: &BTreeMap<u32, BufMeta>, id: u32| -> String {
        bufs.get(&id)
            .map(|m| m.label.to_string())
            .unwrap_or_else(|| format!("buf#{id}"))
    };

    let mut races: Vec<RaceReport> = Vec::new();
    let mut rmw: BTreeMap<u32, (u64, String)> = BTreeMap::new();
    let mut waw: BTreeMap<u32, (u64, String)> = BTreeMap::new();

    // Walk (buf, index, epoch) groups.
    let mut i = 0;
    while i < all.len() {
        let mut j = i;
        while j < all.len()
            && all[j].buf == all[i].buf
            && all[j].index == all[i].index
            && all[j].epoch == all[i].epoch
        {
            j += 1;
        }
        let group = &all[i..j];
        analyze_group(group, &bufs, &label, &mut races, &mut rmw, &mut waw);
        i = j;
    }

    let mut lints: Vec<LintReport> = Vec::new();
    for (buf, (count, example)) in rmw {
        lints.push(LintReport {
            buffer: label(&bufs, buf),
            kind: LintKind::RmwWithoutAtomic,
            count,
            example,
        });
    }
    for (buf, (count, example)) in waw {
        lints.push(LintReport {
            buffer: label(&bufs, buf),
            kind: LintKind::WriteAfterWriteSameEpoch,
            count,
            example,
        });
    }
    lints.extend(coalescing_lints(&all, &bufs));
    lints.sort_by(|a, b| (&a.buffer, &a.example).cmp(&(&b.buffer, &b.example)));

    BlockReport {
        seed,
        block_dim,
        barriers,
        accesses,
        races,
        lints,
        oob,
        divergence,
    }
}

/// Race + intra-thread lints for one (buf, index, epoch) group.
fn analyze_group(
    group: &[Rec],
    bufs: &BTreeMap<u32, BufMeta>,
    label: &dyn Fn(&BTreeMap<u32, BufMeta>, u32) -> String,
    races: &mut Vec<RaceReport>,
    rmw: &mut BTreeMap<u32, (u64, String)>,
    waw: &mut BTreeMap<u32, (u64, String)>,
) {
    let site = |r: &Rec| AccessSite {
        tid: r.tid,
        epoch: r.epoch,
        kind: r.kind,
    };
    // First access of each kind per tid (group is sorted by tid, seq).
    let first_of = |kind: AccessKind, not_tid: Option<usize>| {
        group
            .iter()
            .find(|r| r.kind == kind && Some(r.tid) != not_tid)
    };
    let first_store = first_of(AccessKind::Store, None);
    if let Some(s) = first_store {
        // Store vs store from another thread.
        if let Some(s2) = first_of(AccessKind::Store, Some(s.tid)) {
            races.push(RaceReport {
                buffer: label(bufs, s.buf),
                index: s.index,
                kind: RaceKind::WriteWrite,
                first: site(s),
                second: site(s2),
            });
        }
        // Store vs load from another thread.
        if let Some(l) = first_of(AccessKind::Load, Some(s.tid)) {
            races.push(RaceReport {
                buffer: label(bufs, s.buf),
                index: s.index,
                kind: RaceKind::ReadWrite,
                first: site(if l.tid < s.tid { l } else { s }),
                second: site(if l.tid < s.tid { s } else { l }),
            });
        }
        // Store vs atomic from another thread.
        if let Some(a) = first_of(AccessKind::AtomicRmw, Some(s.tid)) {
            races.push(RaceReport {
                buffer: label(bufs, s.buf),
                index: s.index,
                kind: RaceKind::AtomicWrite,
                first: site(if a.tid < s.tid { a } else { s }),
                second: site(if a.tid < s.tid { s } else { a }),
            });
        }
    }
    // Intra-thread lints: the group is sorted by (tid, seq), so runs of one
    // tid are contiguous and in program order.
    let mut k = 0;
    while k < group.len() {
        let mut m = k;
        while m < group.len() && group[m].tid == group[k].tid {
            m += 1;
        }
        let per_thread = &group[k..m];
        let loaded_before_store = per_thread.iter().any(|r| {
            r.kind == AccessKind::Load
                && per_thread
                    .iter()
                    .any(|w| w.kind == AccessKind::Store && w.seq > r.seq)
        });
        if loaded_before_store {
            let r = &per_thread[0];
            let e = rmw.entry(r.buf).or_insert_with(|| {
                (
                    0,
                    format!("tid {}, index {}, epoch {}", r.tid, r.index, r.epoch),
                )
            });
            e.0 += 1;
        }
        let stores = per_thread
            .iter()
            .filter(|r| r.kind == AccessKind::Store)
            .count();
        if stores >= 2 {
            let r = &per_thread[0];
            let e = waw.entry(r.buf).or_insert_with(|| {
                (
                    0,
                    format!("tid {}, index {}, epoch {}", r.tid, r.index, r.epoch),
                )
            });
            e.0 += 1;
        }
        k = m;
    }
}

/// Coalescing lint: reconstruct warp-wide "instructions" from the trace
/// and price them in memory transactions.
///
/// Within one (buffer, epoch), each thread's *k*-th load/store is assumed
/// to be issued alongside every other thread's *k*-th — the lockstep the
/// SIMT model prescribes for the strided loops these kernels use. Threads
/// are grouped into warps of [`WARP_SIZE`]; the lint fires when the
/// buffer's traffic costs more than [`UNCOALESCED_RATIO`]× the packed
/// minimum. Atomics are excluded: data-dependent scatter is inherent to
/// histogram accumulation and priced by the cost model instead.
fn coalescing_lints(all: &[Rec], bufs: &BTreeMap<u32, BufMeta>) -> Vec<LintReport> {
    // (buf, epoch, tid) -> ordinal counter; (buf, epoch, warp, ordinal) -> indices.
    let mut ordinals: BTreeMap<(u32, u32, usize), u64> = BTreeMap::new();
    let mut groups: BTreeMap<(u32, u32, usize, u64), Vec<u64>> = BTreeMap::new();
    // Per-thread program order within (buf, epoch, tid).
    let mut by_thread: Vec<&Rec> = all
        .iter()
        .filter(|r| r.kind != AccessKind::AtomicRmw)
        .collect();
    by_thread.sort_by_key(|r| (r.buf, r.epoch, r.tid, r.seq));
    for r in by_thread {
        let elem = bufs.get(&r.buf).map(|m| m.elem_bytes).unwrap_or(4);
        let ord = ordinals.entry((r.buf, r.epoch, r.tid)).or_insert(0);
        let warp = r.tid / WARP_SIZE as usize;
        groups
            .entry((r.buf, r.epoch, warp, *ord))
            .or_default()
            .push(r.index as u64 * elem);
        *ord += 1;
    }
    let mut per_buf: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new(); // accesses, txns, ideal
    for ((buf, _epoch, _warp, _ord), addrs) in groups {
        let n = addrs.len() as u64;
        let elem = bufs.get(&buf).map(|m| m.elem_bytes).unwrap_or(4);
        let txns = cost::memory_transactions(addrs, MEM_SEGMENT_BYTES);
        let ideal = cost::ideal_transactions(n * elem, MEM_SEGMENT_BYTES);
        let e = per_buf.entry(buf).or_insert((0, 0, 0));
        e.0 += n;
        e.1 += txns;
        e.2 += ideal;
    }
    let mut out = Vec::new();
    for (buf, (accesses, txns, ideal)) in per_buf {
        if accesses >= MIN_COALESCE_SAMPLE && txns > UNCOALESCED_RATIO * ideal {
            let meta_label = bufs
                .get(&buf)
                .map(|m| m.label.to_string())
                .unwrap_or_else(|| format!("buf#{buf}"));
            out.push(LintReport {
                buffer: meta_label,
                kind: LintKind::Uncoalesced {
                    transactions: txns,
                    ideal,
                },
                count: accesses,
                example: format!("{txns} transactions / {ideal} ideal"),
            });
        }
    }
    out
}

/// Minimum load/store sample before the coalescing lint may fire — below
/// a warp's worth of traffic the transaction ratio is noise.
pub const MIN_COALESCE_SAMPLE: u64 = 32;

/// Transaction-to-ideal ratio above which traffic counts as uncoalesced
/// (Kepler's scatter penalty; Fermi's is higher still).
pub const UNCOALESCED_RATIO: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(buf: u32, index: usize, epoch: u32, tid: usize, kind: AccessKind, seq: u32) -> Rec {
        Rec {
            buf,
            index,
            epoch,
            tid,
            kind,
            seq,
        }
    }

    fn dump_of(tid: usize, events: Vec<Rec>) -> ThreadDump {
        let mut bufs = BTreeMap::new();
        for e in &events {
            bufs.entry(e.buf).or_insert(BufMeta {
                label: "his",
                elem_bytes: 4,
            });
        }
        ThreadDump {
            tid,
            events: events
                .into_iter()
                .map(|r| RawEvent {
                    buf: r.buf,
                    index: r.index,
                    kind: r.kind,
                    epoch: r.epoch,
                    seq: r.seq,
                })
                .collect(),
            bufs,
            oob: Vec::new(),
        }
    }

    #[test]
    fn same_epoch_store_vs_atomic_races() {
        let d0 = dump_of(0, vec![rec(1, 5, 0, 0, AccessKind::Store, 0)]);
        let d1 = dump_of(1, vec![rec(1, 5, 0, 1, AccessKind::AtomicRmw, 0)]);
        let rep = analyze(2, 0, 0, None, vec![d0, d1]);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::AtomicWrite);
        assert_eq!(rep.races[0].index, 5);
        assert_eq!(rep.races[0].buffer, "his");
    }

    #[test]
    fn barrier_separates_epochs() {
        let d0 = dump_of(0, vec![rec(1, 5, 0, 0, AccessKind::Store, 0)]);
        let d1 = dump_of(1, vec![rec(1, 5, 1, 1, AccessKind::AtomicRmw, 0)]);
        let rep = analyze(2, 0, 1, None, vec![d0, d1]);
        assert!(rep.races.is_empty(), "{rep}");
    }

    #[test]
    fn same_thread_never_races_but_lints_rmw() {
        let d0 = dump_of(
            0,
            vec![
                rec(1, 5, 0, 0, AccessKind::Load, 0),
                rec(1, 5, 0, 0, AccessKind::Store, 1),
            ],
        );
        let rep = analyze(1, 0, 0, None, vec![d0]);
        assert!(rep.races.is_empty());
        assert_eq!(rep.lints.len(), 1);
        assert_eq!(rep.lints[0].kind, LintKind::RmwWithoutAtomic);
    }

    #[test]
    fn store_then_load_same_thread_is_not_rmw() {
        let d0 = dump_of(
            0,
            vec![
                rec(1, 5, 0, 0, AccessKind::Store, 0),
                rec(1, 5, 0, 0, AccessKind::Load, 1),
            ],
        );
        let rep = analyze(1, 0, 0, None, vec![d0]);
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn double_store_lints_waw() {
        let d0 = dump_of(
            0,
            vec![
                rec(1, 9, 0, 0, AccessKind::Store, 0),
                rec(1, 9, 0, 0, AccessKind::Store, 1),
            ],
        );
        let rep = analyze(1, 0, 0, None, vec![d0]);
        assert!(rep.races.is_empty());
        assert_eq!(rep.lints[0].kind, LintKind::WriteAfterWriteSameEpoch);
    }

    #[test]
    fn concurrent_atomics_are_clean() {
        let d0 = dump_of(0, vec![rec(1, 3, 0, 0, AccessKind::AtomicRmw, 0)]);
        let d1 = dump_of(1, vec![rec(1, 3, 0, 1, AccessKind::AtomicRmw, 0)]);
        let rep = analyze(2, 0, 0, None, vec![d0, d1]);
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn column_stride_lints_uncoalesced() {
        // 32 threads each make 8 column-major accesses: thread t's k-th
        // access hits index t*64 + k (4-byte elems, 256-byte pitch).
        let dumps: Vec<ThreadDump> = (0..32)
            .map(|t| {
                dump_of(
                    t,
                    (0..8)
                        .map(|k| rec(1, t * 64 + k, 0, t, AccessKind::Load, k as u32))
                        .collect(),
                )
            })
            .collect();
        let rep = analyze(32, 0, 0, None, dumps);
        assert!(
            rep.lints
                .iter()
                .any(|l| matches!(l.kind, LintKind::Uncoalesced { .. })),
            "{rep}"
        );
    }

    #[test]
    fn row_stride_is_coalesced() {
        // Thread t's k-th access hits index k*32 + t: contiguous per warp.
        let dumps: Vec<ThreadDump> = (0..32)
            .map(|t| {
                dump_of(
                    t,
                    (0..8)
                        .map(|k| rec(1, k * 32 + t, 0, t, AccessKind::Load, k as u32))
                        .collect(),
                )
            })
            .collect();
        let rep = analyze(32, 0, 0, None, dumps);
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn reports_are_canonical_under_dump_order() {
        let d0 = dump_of(0, vec![rec(1, 5, 0, 0, AccessKind::Store, 0)]);
        let d1 = dump_of(1, vec![rec(1, 5, 0, 1, AccessKind::Store, 0)]);
        let a = analyze(2, 7, 0, None, vec![d0, d1]);
        let d0 = dump_of(0, vec![rec(1, 5, 0, 0, AccessKind::Store, 0)]);
        let d1 = dump_of(1, vec![rec(1, 5, 0, 1, AccessKind::Store, 0)]);
        let b = analyze(2, 7, 0, None, vec![d1, d0]);
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
