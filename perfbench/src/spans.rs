//! In-memory spans recorded around each call the benchmark makes into a
//! layer, their Chrome trace export and per-layer self time.
//!
//! A span has a name (`layer.operation`), a start, an end, the span that
//! was open when it began (its parent) and the id of the operation it
//! belongs to (one job, partition or session). Disabled tracers record
//! nothing: `begin` and `end` reduce to a branch, so the untraced run
//! that gives the end-to-end numbers pays almost nothing for them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Thread lane in the exported trace.
    pub tid: u32,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer on `epoch`; shared epochs make merged lanes line up.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            enabled,
            tid,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` and every span opened inside it and left open.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records an interval timed by another component as a closed child
    /// of `parent` (a span begun on this tracer, possibly already ended).
    pub fn record(&mut self, parent: Open, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: parent.0,
                op: self.op,
                tid: self.tid,
            });
        }
    }

    /// Nanoseconds since the epoch (for [`Tracer::record`]).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Renders the first `limit` spans as a Chrome trace-event document.
    /// A prefix keeps every parent link inside the document: a span is
    /// always recorded after its parent.
    pub fn to_chrome_json(&self, process: &str, limit: usize) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \"args\": {{\"name\": \"{}\"}}}}",
            xtuml_obs::escape(process)
        );
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                s.tid,
                s.layer(),
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its children cover. Overlapping children (from other threads, say)
/// count once, and children are clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // bench.job [0, 100) holds exec.run [10, 40) and exec.run
        // [30, 60) (overlapping: 50 covered, not 60) and verify.check
        // [90, 120) (clipped to 10). exec.run #1 holds lang.parse [15, 25).
        let spans = vec![
            span("bench.job", 0, 100, None),
            span("exec.run", 10, 40, Some(0)),
            span("lang.parse", 15, 25, Some(1)),
            span("exec.run", 30, 60, Some(0)),
            span("verify.check", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 30]);
        let by_layer = layer_self_s(&spans);
        assert!((by_layer["bench"] - 40e-9).abs() < 1e-15);
        assert!((by_layer["exec"] - 50e-9).abs() < 1e-15);
        assert!((by_layer["lang"] - 10e-9).abs() < 1e-15);
        assert!((by_layer["verify"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_exports_a_valid_trace() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.set_op(7);
        let outer = t.begin("bench.job");
        let inner = t.begin("exec.run");
        t.end(inner);
        t.span("verify.check", || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let json = t.to_chrome_json("perfbench", usize::MAX);
        assert_eq!(xtuml_obs::check_chrome_trace(&json), Ok(4));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let o = t.begin("bench.job");
        t.end(o);
        t.record(o, "exec.run", 0, 5);
        assert!(t.spans().is_empty());
    }
}
