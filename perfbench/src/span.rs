//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self-time arithmetic over them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The id of the request line that caused the span.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A count taken at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub name: &'static str,
    pub request: u64,
    pub value: u64,
}

/// Records spans and counts in memory; nothing is written until
/// [`Tracer::write`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn count(&mut self, name: &'static str, request: u64, value: u64) {
        self.counts.push(Count {
            name,
            request,
            value,
        });
    }

    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A clock other threads can read against the same epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        index
    }

    pub fn exit(&mut self, index: usize) {
        let end = self.now();
        self.spans[index].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close in LIFO order");
    }

    /// Times `f` as a span nested in the innermost open one.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    /// Adds spans recorded elsewhere (worker threads) against
    /// [`Tracer::epoch`]; their parents must already be recorded here.
    pub fn adopt(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, then one per count, of the
    /// requests `keep` accepts. A span's `parent` is the `index` of its
    /// parent.
    pub fn write(&self, out: &mut impl Write, keep: impl Fn(u64) -> bool) -> std::io::Result<()> {
        for (index, s) in self.spans.iter().enumerate() {
            if !keep(s.request) {
                continue;
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"index\":{index},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        for c in self.counts.iter().filter(|c| keep(c.request)) {
            writeln!(
                out,
                "{{\"count\":\"{}\",\"value\":{},\"request\":{}}}",
                c.name, c.value, c.request
            )?;
        }
        Ok(())
    }
}

/// The part of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per span: its duration minus the part of that interval its
/// children cover. Children may overlap (parallel workers), so the
/// covered part is the union of their intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    covered_by_children(spans)
        .into_iter()
        .zip(spans)
        .map(|(c, s)| s.duration() - c)
        .collect()
}

/// Per span: how much of it its children cover.
pub fn covered_by_children(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| covered(s.start, s.end, c))
        .collect()
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    /// Sum of durations, ns.
    pub total: u64,
    /// Sum of self times, ns.
    pub self_time: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): a [10,30), b [20,50) overlapping a, c [60,70)
        // with a grandchild d [62,66).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 62, 66, Some(3)),
        ];
        // root: children cover [10,50) and [60,70) = 50.
        assert_eq!(self_times(&spans), vec![50, 20, 30, 6, 4]);
        assert_eq!(covered_by_children(&spans), vec![50, 0, 0, 4, 0]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 20, None),
            span("early", 5, 12, Some(0)),
            span("late", 18, 30, Some(0)),
            span("inside", 12, 14, Some(0)),
        ];
        // Covered: [10,12) + [12,14) + [18,20) = 6.
        assert_eq!(self_times(&spans)[0], 4);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", 0, 10, None),
            span("leaf", 2, 5, Some(0)),
            span("root", 20, 26, None),
            span("leaf", 20, 21, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            Totals {
                count: 2,
                total: 16,
                self_time: 12
            }
        );
        assert_eq!(t["leaf"].total, 4);
    }

    #[test]
    fn tracer_nests_and_writes() {
        let mut t = Tracer::new();
        let root = t.enter("root", 9);
        let v = t.time("leaf", 9, || 41 + 1);
        t.exit(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        t.time("other", 10, || ());
        t.count("events", 9, 3);
        let mut out = Vec::new();
        t.write(&mut out, |request| request == 9).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("\"index\":1,"), "{text}");
        assert!(text.contains("\"parent\":0,\"request\":9"), "{text}");
        assert!(text.contains("\"count\":\"events\",\"value\":3"), "{text}");
        assert!(!text.contains("other"), "{text}");
    }
}
