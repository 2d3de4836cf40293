//! Host-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written out once, when the benchmark ends.
//! Each records its name, start, end, parent and the op it belongs to; a
//! span's self time is its duration minus that of its children.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// `"setup"` or `"op"`, with `op` numbering the setups or ops.
    pub phase: &'static str,
    pub op: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: &'static str,
    op: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: "setup",
            op: 0,
        }
    }

    /// Starts attributing spans to `phase` number `op`. Spans left open by
    /// a panicking op are abandoned here.
    pub fn begin(&mut self, phase: &'static str, op: usize) {
        self.phase = phase;
        self.op = op;
        self.open.clear();
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            phase: self.phase,
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Total seconds of the spans named `name` in the current op.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.phase == self.phase && s.op == self.op)
            .map(Span::secs)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"phase\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.phase,
                s.op,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.begin("op", 3);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", |_| ());
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].parent, s[2].parent, s[0].parent),
            (Some(0), Some(0), None)
        );
        assert!(s.iter().all(|s| s.op == 3 && s.phase == "op"));
        assert!(tr.total("inner") >= 0.002 && tr.total("outer") >= tr.total("inner"));
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.lines().next().unwrap().contains("\"parent\": null"));
    }
}
