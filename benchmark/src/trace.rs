//! In-memory spans around the benchmark's own calls into the checker,
//! written out at the end as Chrome trace-event JSON (viewable in
//! Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `acfa.check_sim`.
    pub name: &'static str,
    /// Recording thread (small integers in first-use order).
    pub tid: u32,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans when enabled; a disabled recorder only runs the
/// closures.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            name,
            tid: TID.with(|t| *t),
            start_us: us(start),
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Self time of every span, in input order: its duration minus the
/// durations of its direct children (spans on the same thread that it
/// encloses with no enclosing span in between).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents before children: by thread, then start, then longer first.
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        x.tid
            .cmp(&y.tid)
            .then(x.start_us.total_cmp(&y.start_us))
            .then(y.dur_us.total_cmp(&x.dur_us))
    });
    let mut self_us: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.tid == s.tid && s.start_us + s.dur_us <= t.start_us + t.dur_us {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_us[parent] -= s.dur_us;
        }
        open.push(i);
    }
    self_us
}

/// Per-name totals: (total duration µs, total self time µs).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_us;
        e.1 += self_us;
    }
    out
}

/// Chrome trace-event JSON ("X" complete events) for `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"circ\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3}}}",
            sp.name, sp.tid, sp.start_us, sp.dur_us
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, tid: u32, start_us: f64, dur_us: f64) -> Span {
        Span { name, tid, start_us, dur_us }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // sim [0,100) ⊃ oracle [10,30) ⊃ solver [12,20); oracle [40,50).
        let spans = vec![
            sp("oracle", 1, 10.0, 20.0),
            sp("sim", 1, 0.0, 100.0),
            sp("solver", 1, 12.0, 8.0),
            sp("oracle", 1, 40.0, 10.0),
        ];
        assert_eq!(self_times(&spans), vec![12.0, 70.0, 8.0, 10.0]);
        let t = totals(&spans);
        assert_eq!(t["sim"], (100.0, 70.0));
        assert_eq!(t["oracle"], (30.0, 22.0));
    }

    #[test]
    fn siblings_and_other_threads_are_not_children() {
        let spans = vec![
            sp("a", 1, 0.0, 10.0),
            sp("b", 1, 10.0, 5.0), // starts where `a` ends: a sibling
            sp("c", 2, 2.0, 3.0),  // inside `a` in time, other thread
            sp("d", 1, 10.0, 5.0), // same extent as `b`: nested in it
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10.0);
        assert_eq!(selfs[2], 3.0);
        assert_eq!(selfs[1] + selfs[3], 5.0);
    }

    #[test]
    fn recorder_nests_and_renders() {
        let r = Recorder::new(true);
        let v = r.span("outer", || r.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let selfs = self_times(&spans);
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        assert!(selfs[outer] <= spans[outer].dur_us);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"ph\":\"X\""));
        let off = Recorder::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }
}
