//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public functions: name, layer, start, end, parent span and the
//! operation it belongs to. They are kept in memory (one thread-local
//! recorder; traced passes run on one thread) and written at the end as
//! Chrome-trace JSON, which Perfetto opens. Tracing is off unless a recorder
//! is installed, and then [`span`] costs one thread-local check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (crate) the wrapped call enters.
    pub layer: &'static str,
    /// The wrapped call.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (trial, run or frame) the span belongs to; 0 outside any.
    pub op: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding any earlier recording).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        })
    });
}

/// Stops recording and returns the spans, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Marks the start of operation `op`: spans opened from now on carry it.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// An open span; it closes when dropped, also while a panic unwinds.
#[must_use = "the span closes when this guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span of `layer`/`name` (a no-op when not recording).
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    Guard(RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let start = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent: rec.open.last().copied(),
            op: rec.op,
        });
        rec.open.push(id);
        Some(id)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end = rec.origin.elapsed().as_nanos() as u64;
                if let Some(pos) = rec.open.iter().rposition(|&o| o == id) {
                    rec.open.truncate(pos);
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children's intervals are merged and clipped to
/// the parent, so overlapping or overhanging children are not counted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Durations, in nanoseconds, of every span named `layer`/`name`.
pub fn durations(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

/// The spans as a Chrome-trace JSON document (complete events, times in
/// microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}{sep}",
            s.layer,
            s.name,
            s.layer,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.op,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,90); grandchild [60,70).
        let spans = [
            sp("bench", 0, 100, None),
            sp("faults", 10, 30, Some(0)),
            sp("faults", 50, 90, Some(0)),
            sp("sim", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 40);
        assert_eq!(by_layer["faults"], 50);
        assert_eq!(by_layer["sim"], 10);
        // Self times of a whole tree sum to the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            sp("bench", 0, 100, None),
            sp("sim", 10, 40, Some(0)),
            sp("sim", 30, 60, Some(0)),
            sp("sim", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn guards_nest_and_close_on_unwind() {
        start();
        {
            let _a = span("bench", "outer");
            set_op(3);
            let _ = std::panic::catch_unwind(|| {
                let _b = span("faults", "inner");
                panic!("boom");
            });
            let _c = span("sim", "after");
        }
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert_eq!(spans[2].parent, Some(0), "the unwound span was closed");
        assert!(spans.iter().all(|s| s.end >= s.start));
        let json = chrome_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"faults.inner\""));
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        let _g = span("sim", "x");
        assert!(finish().is_empty());
    }
}
