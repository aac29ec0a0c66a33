//! In-memory span recorder for the traced run.
//!
//! Every call into a layer is wrapped in a span: name, start, end, the
//! enclosing span, and the id of the operation it belongs to. Spans stay
//! in memory until [`Tracer::write`] at the end of the run; per-layer
//! self time is a span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Records spans on one thread (threads the traced calls spawn are inside
/// the enclosing span).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from here on share its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        r
    }

    /// Self time of every span (duration minus the union of its
    /// children's intervals; children of one span never overlap, since
    /// they run one after another on this thread).
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }

    /// Duration of each span named `name`, in recording order.
    pub fn each_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per-name totals: `(span count, total ns, self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let summary = t.summary();
        let (n, outer_total, outer_self) = summary["outer"];
        let (_, inner, _) = summary["inner"];
        assert_eq!(n, 1);
        assert!(inner >= 5_000_000);
        assert!(outer_self >= 2_000_000 && outer_self < inner);
        assert_eq!(t.each_ns("outer"), vec![outer_total]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 1);
    }
}
