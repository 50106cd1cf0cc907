//! In-memory spans and counts, written out when the run ends.
//!
//! A span is one call into a layer: a name, a start, an end and the
//! span that caused it. Spans opened on the calling thread nest through
//! a stack; work that ran on pool threads is recorded afterwards with
//! the instants the workers measured ([`record`]). A span's *self time*
//! is its duration minus the part of that interval its children cover,
//! so a parent's self time stays right when its children overlapped on
//! several threads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

struct Trace {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static TRACE: RefCell<Trace> = RefCell::new(Trace {
        base: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Open a span under the innermost open span; returns its id.
pub fn begin(name: &'static str) -> usize {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len();
        let parent = t.stack.last().copied();
        t.spans.push(Span { name, start: Instant::now(), end: None, parent });
        t.stack.push(id);
        id
    })
}

/// Close the innermost open span, which must be `id`.
pub fn end(id: usize) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        assert_eq!(t.stack.pop(), Some(id), "spans close in the order they opened");
        t.spans[id].end = Some(Instant::now());
    })
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(name);
    let out = f();
    end(id);
    out
}

/// Record a finished span measured elsewhere (on a pool thread) as a
/// child of the innermost open span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied();
        t.spans.push(Span { name, start, end: Some(end), parent });
    })
}

/// Add `value` to the count `name`.
pub fn count(name: &'static str, value: f64) {
    TRACE.with(|t| *t.borrow_mut().counts.entry(name).or_insert(0.0) += value)
}

/// Per span name: (calls, total seconds, self seconds), plus the counts.
pub struct Summary {
    pub spans: BTreeMap<&'static str, (usize, f64, f64)>,
    pub counts: BTreeMap<&'static str, f64>,
}

/// Length of the union of `intervals` (seconds).
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// Summarize every closed span, and render them one JSON object per
/// line (`id`, `name`, `start_s`, `end_s`, `parent`, `self_s`).
pub fn finish() -> (Summary, String) {
    TRACE.with(|t| {
        let t = t.borrow();
        let at = |i: Instant| i.duration_since(t.base).as_secs_f64();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); t.spans.len()];
        for span in &t.spans {
            if let (Some(parent), Some(end)) = (span.parent, span.end) {
                children[parent].push((at(span.start), at(end)));
            }
        }
        let mut spans = BTreeMap::new();
        let mut lines = String::new();
        for (id, span) in t.spans.iter().enumerate() {
            let Some(end) = span.end else { continue };
            let (start, end) = (at(span.start), at(end));
            let self_s = (end - start) - union_len(std::mem::take(&mut children[id]));
            let entry = spans.entry(span.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += end - start;
            entry.2 += self_s;
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                lines,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{start},\"end_s\":{end},\"parent\":{parent},\"self_s\":{self_s}}}",
                span.name
            );
        }
        (Summary { spans, counts: t.counts.clone() }, lines)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(Vec::new()), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let outer = begin("outer");
        span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        end(outer);
        let (summary, lines) = finish();
        let (_, total, self_s) = summary.spans["outer"];
        assert!(total >= 0.02 && self_s < total - 0.019, "{total} {self_s}");
        assert_eq!(lines.lines().count(), 2);
    }
}
