//! In-memory spans around the benchmark's own calls into each layer,
//! written out when the benchmark ends, and the per-name self time
//! derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of spans that belong to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed call: `name` is the boundary (spawn, connect, encode,
/// write, read, decode, scrape, phase). Spans of one request share
/// `req`; `parent` is the index of the enclosing span, if any.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans recorded by one thread, in nanoseconds since a shared epoch.
pub struct SpanLog {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span that started at `start_ns`; returns its index.
    pub fn close(&mut self, name: &'static str, req: u64, start_ns: u64) -> usize {
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            req,
            parent: None,
            start_ns,
            end_ns,
        })
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets `parent` on every parentless span from index `from` on,
    /// except `parent` itself.
    pub fn reparent_from(&mut self, from: usize, parent: usize) {
        for (i, s) in self.spans.iter_mut().enumerate().skip(from) {
            if s.parent.is_none() && i != parent {
                s.parent = Some(parent);
            }
        }
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the part of it that its children's union covers.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(covered(kids, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = if s.req == NO_REQUEST {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"req\":{req},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: NO_REQUEST,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push(span("phase", None, 0, 100));
        log.push(span("write", Some(root), 10, 30));
        log.push(span("read", Some(root), 20, 40)); // overlaps write
        log.push(span("scrape", Some(root), 90, 120)); // runs past the root
        let t = log.self_time_ns();
        assert_eq!(t["phase"], 100 - 30 - 10);
        assert_eq!(t["write"], 20);
        assert_eq!(t["read"], 20);
        assert_eq!(t["scrape"], 30);
    }
}
