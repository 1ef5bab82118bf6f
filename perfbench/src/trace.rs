//! The benchmark's own spans, recorded around the public calls it makes
//! into each layer, and the per-layer self-time table built from them.
//!
//! Spans are recorded only while a traced round runs ([`arm`]). Each
//! span carries an id and its parent's id, is kept in memory, and is
//! mirrored into obskit's trace buffer so one Chrome trace holds both
//! the benchmark's spans and the program's own (`m5.fit`,
//! `pipeline.generate`, `engine.*`). Untraced rounds pay one relaxed
//! load per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One finished benchmark span.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u32,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u32,
    pub name: &'static str,
    pub dur_ns: u64,
}

/// Turns span recording and obskit's metrics and tracing on or off.
/// Arming also clears every buffer, so a traced round starts empty.
pub fn arm(on: bool) {
    if on {
        obskit::metrics::reset();
        obskit::span::reset();
        RECORDS.lock().expect("span records lock").clear();
    }
    ARMED.store(on, Ordering::Relaxed);
    obskit::set_enabled(on, on);
}

fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Runs `f` inside a benchmark span named after the layer it calls into.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !armed() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let ts_us = obskit::span::now_us();
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed();
    STACK.with(|s| s.borrow_mut().pop());
    let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    obskit::span::complete(
        "perfbench",
        name,
        ts_us,
        dur_ns / 1000,
        &[("id", &id), ("parent", &parent)],
    );
    RECORDS.lock().expect("span records lock").push(Record {
        id,
        parent,
        name,
        dur_ns,
    });
    out
}

/// The spans recorded since the last [`arm`]`(true)`.
pub fn records() -> Vec<Record> {
    RECORDS.lock().expect("span records lock").clone()
}

/// Sum of the inclusive durations of the spans named `name`, seconds.
pub fn total_s(records: &[Record], name: &str) -> f64 {
    records
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_ns as f64 / 1e9)
        .sum()
}

/// Per-name self time (duration minus the part covered by child
/// spans), in seconds, plus an explicit `unattributed` row for the
/// part of `wall_s` no top-level span covers. The rows sum to
/// `wall_s`.
pub fn self_times(records: &[Record], wall_s: f64) -> Vec<(String, f64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        *child_ns.entry(r.parent).or_default() += r.dur_ns;
    }
    let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
    let mut top_s = 0.0;
    for r in records {
        let own = r
            .dur_ns
            .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        *rows.entry(r.name).or_default() += own as f64 / 1e9;
        if r.parent == 0 {
            top_s += r.dur_ns as f64 / 1e9;
        }
    }
    let mut out: Vec<(String, f64)> = rows.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push(("unattributed".to_owned(), wall_s - top_s));
    out
}

/// Durations of the program's own complete events in an obskit Chrome
/// trace, summed per span name, seconds. The benchmark's own `perfbench`
/// spans are skipped.
pub fn program_span_totals(trace_json: &str) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    let Ok(doc) = serde_json::from_str::<serde_json::Value>(trace_json) else {
        return totals;
    };
    let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
        return totals;
    };
    for event in events {
        if event.get("ph").and_then(|v| v.as_str()) != Some("X")
            || event.get("cat").and_then(|v| v.as_str()) == Some("perfbench")
        {
            continue;
        }
        if let (Some(name), Some(dur)) = (
            event.get("name").and_then(|v| v.as_str()),
            event.get("dur").and_then(|v| v.as_f64()),
        ) {
            *totals.entry(name.to_owned()).or_insert(0.0) += dur / 1e6;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_wall() {
        let recs = vec![
            Record {
                id: 2,
                parent: 1,
                name: "child",
                dur_ns: 300,
            },
            Record {
                id: 1,
                parent: 0,
                name: "parent",
                dur_ns: 1000,
            },
            Record {
                id: 3,
                parent: 0,
                name: "child",
                dur_ns: 200,
            },
        ];
        let rows = self_times(&recs, 2e-6);
        let get = |n: &str| rows.iter().find(|(k, _)| k == n).unwrap().1;
        assert!((get("parent") - 700e-9).abs() < 1e-15);
        assert!((get("child") - 500e-9).abs() < 1e-15);
        assert!((get("unattributed") - 800e-9).abs() < 1e-15);
        let sum: f64 = rows.iter().map(|(_, v)| v).sum();
        assert!((sum - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn program_spans_skip_benchmark_spans() {
        let doc = r#"{"traceEvents":[
            {"name":"m5.fit","cat":"trainer","ph":"X","ts":0,"dur":1500},
            {"name":"m5.fit","cat":"trainer","ph":"X","ts":9,"dur":500},
            {"name":"pipeline.resolve","cat":"perfbench","ph":"X","ts":0,"dur":9},
            {"name":"dataset.hit","cat":"pipeline","ph":"i","ts":3}]}"#;
        let totals = program_span_totals(doc);
        assert_eq!(totals.len(), 1);
        assert!((totals["m5.fit"] - 0.002).abs() < 1e-12);
    }
}
