//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory and are written once, as JSONL, when the run
//! ends. Only the benchmark's own code records them; the program under
//! test carries no tracing.

use crate::json;
use m3xu_json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span this one was caused by.
    pub parent: Option<u64>,
    /// What ran: `round`, `call.<op>`, `request`, `admit`, ...
    pub name: String,
    /// Groups the spans of one unit of work: the round or block index
    /// for direct calls, the arrival index for a served request.
    pub key: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let span = Span {
            id,
            parent,
            name: name.into(),
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        id
    }

    /// Reserve an id for a span whose end is not known yet; finish it
    /// with [`Tracer::close`]. Children may name it as their parent
    /// meanwhile.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        key: u64,
        start: Instant,
    ) -> u64 {
        self.record(name, parent, key, start, start)
    }

    /// Set the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let row = Json::Obj(vec![
                ("id".into(), Json::UInt(s.id)),
                ("parent".into(), s.parent.map_or(Json::Null, Json::UInt)),
                ("name".into(), Json::Str(s.name.clone())),
                ("key".into(), Json::UInt(s.key)),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                ("self_ns".into(), Json::UInt(self_ns)),
            ]);
            writeln!(out, "{}", json::compact(&row))?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a
/// child running past its parent's end counts only up to that end).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(p as usize) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s".into(),
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_within_the_parent() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn open_close_and_jsonl_round_trip() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let root = t.open("round", None, 7, t0);
        let t1 = Instant::now();
        t.record("call.x", Some(root), 7, t0, t1);
        t.close(root, t1);
        assert_eq!(t.spans()[0].end_ns, t.spans()[1].end_ns);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("unit-test-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).unwrap();
        assert_eq!(
            crate::json::str(crate::json::get(&v, "name").unwrap()),
            Some("call.x")
        );
        assert_eq!(
            crate::json::num(crate::json::get(&v, "parent").unwrap()),
            Some(0.0)
        );
    }
}
