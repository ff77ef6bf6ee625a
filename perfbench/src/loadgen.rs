//! The benchmark's own load generator.
//!
//! *Open loop*: one pacing thread sends query `i` at its due time
//! `start + i / rate` whatever the service is doing; one drain thread
//! collects the answers. Latency runs from the due time to the answer's
//! completion (the return from `submit` plus the service's own
//! submit-to-served time, an upper bound that includes admission), so a
//! stall that delays later sends counts against them too, and the
//! generator reports how late it sent (`late_ms_max`). *Closed loop*:
//! each client sends its next query only after the previous answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use zonal_serve::{QueryResponse, ServeError, Ticket, ZonalQuery, ZonalService, ZoneSelection};

/// What the generator drives: the `i`-th query, a hook run just before
/// it is sent (raster updates), and the correctness check of an answer.
pub trait Target: Sync {
    fn query(&self, i: u64) -> ZonalQuery;
    fn before_send(&self, i: u64);
    fn check(&self, query: &ZonalQuery, response: &QueryResponse) -> bool;
}

/// Outcome counts shared by both loops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub completed: u64,
    pub shed: u64,
    pub errors: u64,
    pub wrong: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.wrong
    }

    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }

    fn record_error(&mut self, e: &ServeError) {
        if e.is_shed() {
            self.shed += 1;
        } else {
            self.errors += 1;
        }
    }
}

#[derive(Debug, Default)]
pub struct OpenLoopReport {
    pub counts: Counts,
    /// Due time → answer, per correct answer, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Whether each `latency_ms` sample answered an all-zones query.
    pub all_zones: Vec<bool>,
    /// Correct answers within the latency limit.
    pub within_limit: u64,
    /// Time spent inside `submit`, per query, microseconds.
    pub submit_us: Vec<f64>,
    /// How far behind its schedule the pacing thread sent, at worst.
    pub late_ms_max: f64,
    /// First due time → last answer (or last due time), seconds.
    pub phase_secs: f64,
}

/// A sent query on its way from the pacing thread to the drain thread.
struct InFlight {
    index: u64,
    due: Instant,
    /// When `submit` returned.
    returned: Instant,
    query: ZonalQuery,
    ticket: Result<Ticket, ServeError>,
}

/// Send queries `first..first + n` at `rate_qps`, each answer judged
/// against `limit_ms` from its due time.
pub fn open_loop(
    service: &ZonalService,
    target: &impl Target,
    first: u64,
    n: u64,
    rate_qps: f64,
    limit_ms: f64,
) -> OpenLoopReport {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut report = OpenLoopReport::default();
    std::thread::scope(|s| {
        let drain = s.spawn(move || {
            let mut counts = Counts::default();
            let mut latency_ms = Vec::new();
            let mut all_zones = Vec::new();
            let mut within = 0u64;
            let mut last = start;
            for f in rx {
                counts.attempted += 1;
                last = last.max(f.due);
                let ticket = match f.ticket {
                    Ok(t) => t,
                    Err(e) => {
                        counts.record_error(&e);
                        continue;
                    }
                };
                match ticket.wait_timed() {
                    Ok((response, served)) => {
                        counts.completed += 1;
                        // `served` runs from an instant inside `submit`,
                        // after admission; anchored at the return from
                        // `submit` it bounds the completion from above and
                        // counts the admission work.
                        let done = f.returned + served;
                        last = last.max(done);
                        if target.check(&f.query, &response) {
                            let ms = done.saturating_duration_since(f.due).as_secs_f64() * 1e3;
                            latency_ms.push(ms);
                            all_zones.push(f.query.zones == ZoneSelection::All);
                            within += u64::from(ms <= limit_ms);
                        } else {
                            counts.wrong += 1;
                            eprintln!("wrong answer to query {}", f.index);
                        }
                    }
                    Err(e) => counts.record_error(&e),
                }
            }
            (counts, latency_ms, all_zones, within, last)
        });

        let mut submit_us = Vec::with_capacity(n as usize);
        let mut late_max = 0.0f64;
        for k in 0..n {
            let i = first + k;
            let due = start + Duration::from_secs_f64(k as f64 / rate_qps);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            target.before_send(i);
            let query = target.query(i);
            let sent = Instant::now();
            let ticket = service.submit(query.clone());
            let returned = Instant::now();
            submit_us.push((returned - sent).as_secs_f64() * 1e6);
            late_max = late_max.max(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            let f = InFlight {
                index: i,
                due,
                returned,
                query,
                ticket,
            };
            if tx.send(f).is_err() {
                break;
            }
        }
        drop(tx);
        let (counts, latency_ms, all_zones, within, last) = drain.join().expect("drain thread");
        report = OpenLoopReport {
            counts,
            latency_ms,
            all_zones,
            within_limit: within,
            submit_us,
            late_ms_max: late_max,
            phase_secs: last.saturating_duration_since(start).as_secs_f64(),
        };
    });
    report
}

#[derive(Debug, Default)]
pub struct ClosedLoopReport {
    pub counts: Counts,
    pub wall_secs: f64,
}

/// `clients` threads share queries `first..first + n`, each waiting for
/// its answer before sending the next.
pub fn closed_loop(
    service: &ZonalService,
    target: &impl Target,
    first: u64,
    n: u64,
    clients: usize,
) -> ClosedLoopReport {
    let next = AtomicU64::new(first);
    let t = Instant::now();
    let counts = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut counts = Counts::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= first + n {
                            return counts;
                        }
                        counts.attempted += 1;
                        target.before_send(i);
                        let query = target.query(i);
                        match service.query(query.clone()) {
                            Ok(response) => {
                                counts.completed += 1;
                                if !target.check(&query, &response) {
                                    counts.wrong += 1;
                                    eprintln!("wrong answer to query {i}");
                                }
                            }
                            Err(e) => counts.record_error(&e),
                        }
                    }
                })
            })
            .collect();
        let mut total = Counts::default();
        for w in workers {
            total.add(&w.join().expect("client thread"));
        }
        total
    });
    ClosedLoopReport {
        counts,
        wall_secs: t.elapsed().as_secs_f64(),
    }
}
