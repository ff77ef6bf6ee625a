//! The traced run's session: start, export to a Chrome trace checked
//! with the same validator as `trace-check`, and per-span self time.

use std::collections::BTreeMap;

use zonal_obs::{EventKind, Trace, TraceSession};

use crate::{Opts, Values};

/// Event-ring capacity for a traced run (events past it are counted as
/// dropped, never blocking the program).
pub const RING_CAPACITY: usize = 1 << 19;

pub fn start() -> TraceSession {
    zonal_obs::start(RING_CAPACITY)
}

/// What a finished session left behind.
pub struct TraceReport {
    /// The exported trace passed `validate_chrome_json`.
    pub valid: bool,
    pub notes: Vec<String>,
}

/// End the session, write the trace (when `opts.trace_dir` is set),
/// validate it, and summarize self time per span name.
pub fn finish(session: TraceSession, opts: &Opts, values: &mut Values) -> TraceReport {
    let trace = session.finish();
    values.set("obs.events", trace.events.len() as f64);
    values.set("obs.dropped", trace.dropped as f64);
    let json = trace.to_chrome_json();
    let mut notes = Vec::new();
    let valid = match zonal_obs::validate_chrome_json(&json) {
        Ok(summary) => {
            let mut lanes = summary.lane_names.clone();
            lanes.sort();
            lanes.dedup();
            notes.push(format!(
                "trace: valid, {} events ({} spans), {} lanes named {:?}",
                summary.n_events,
                summary.n_spans,
                summary.lane_names.len(),
                lanes
            ));
            true
        }
        Err(e) => {
            notes.push(format!("trace: INVALID: {e}"));
            false
        }
    };
    if let Some(dir) = &opts.trace_dir {
        let path = dir.join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &json)) {
            Ok(()) => notes.push(format!("trace: written to {}", path.display())),
            Err(e) => notes.push(format!("trace: not written ({e})")),
        }
    }
    notes.push("self time by span (top 16): name, count, total s, self s".to_string());
    for (name, (count, total, own)) in self_times(&trace).into_iter().take(16) {
        notes.push(format!("  {name:<28} {count:>7} {total:>10.4} {own:>10.4}"));
    }
    TraceReport { valid, notes }
}

/// Per span name: `(count, total seconds, self seconds)`, largest self
/// time first. A span's self time is its duration minus the durations
/// of the spans directly nested in it on the same lane.
pub fn self_times(trace: &Trace) -> Vec<(&'static str, (u64, f64, f64))> {
    let mut by_lane: BTreeMap<u32, Vec<(f64, f64, &'static str)>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind == EventKind::Span {
            by_lane
                .entry(ev.tid)
                .or_default()
                .push((ev.ts_us, ev.dur_us, ev.name));
        }
    }
    let mut acc: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for spans in by_lane.values_mut() {
        // Parents before children: earlier start first, longer first.
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        // Stack of (end, index into `own`).
        let mut own: Vec<(&'static str, f64, f64)> = Vec::with_capacity(spans.len());
        let mut stack: Vec<(f64, usize)> = Vec::new();
        for &(ts, dur, name) in spans.iter() {
            while stack.last().is_some_and(|&(end, _)| end <= ts) {
                stack.pop();
            }
            if let Some(&(_, parent)) = stack.last() {
                own[parent].2 -= dur;
            }
            own.push((name, dur, dur));
            stack.push((ts + dur, own.len() - 1));
        }
        for (name, total, self_us) in own {
            let e = acc.entry(name).or_default();
            e.0 += 1;
            e.1 += total / 1e6;
            e.2 += self_us.max(0.0) / 1e6;
        }
    }
    let mut out: Vec<_> = acc.into_iter().collect();
    out.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zonal_obs::Event;

    fn span(name: &'static str, tid: u32, ts_us: f64, dur_us: f64) -> Event {
        Event::new(EventKind::Span, name, tid, ts_us).with_dur(dur_us)
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_lane() {
        let trace = Trace {
            events: vec![
                span("outer", 1, 0.0, 100.0),
                span("inner", 1, 10.0, 30.0),
                span("leaf", 1, 15.0, 5.0),
                span("inner", 1, 50.0, 20.0),
                span("other", 2, 0.0, 60.0),
            ],
            lanes: vec![],
            metrics: vec![],
            dropped: 0,
            sim_spans: vec![],
        };
        let times: BTreeMap<_, _> = self_times(&trace).into_iter().collect();
        let us = |(count, total, own): (u64, f64, f64)| {
            (count, (total * 1e6).round(), (own * 1e6).round())
        };
        assert_eq!(us(times["outer"]), (1, 100.0, 50.0));
        assert_eq!(us(times["inner"]), (2, 50.0, 45.0));
        assert_eq!(us(times["leaf"]), (1, 5.0, 5.0));
        assert_eq!(us(times["other"]), (1, 60.0, 60.0));
    }
}
