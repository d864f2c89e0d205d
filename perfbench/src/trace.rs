//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace's public functions — nothing inside the program is
//! instrumented. They stay in memory while the run measures and are
//! written out as JSON lines once it ends, so file I/O never lands
//! inside a timed op.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span; the parent link of its children.
pub type SpanId = usize;

/// Name of the root span around the op itself — the same calls the
/// untraced run times. Every other root span of an op is a side call
/// made only to split the op's time by layer.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// Spans of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Starts the next op: spans recorded from now on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Times `f` as span `name` of the current op, a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start,
            end: start,
        });
        let out = f(self, id);
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records an already-measured interval (`start` is an instant
    /// taken during the current op) as a span of `duration`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        duration: Duration,
    ) {
        let start = start.duration_since(self.origin);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start,
            end: start + duration,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per op, the summed seconds of every span called `name`; ops
    /// without such a span are left out.
    pub fn per_op_seconds(&self, name: &str) -> Vec<f64> {
        self.per_op(&[name]).into_values().collect()
    }

    /// Per op id, the summed seconds of every span whose name is one of
    /// `names`; ops without such a span are left out.
    pub fn per_op(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut sums = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(s.op).or_insert(0.0) += (s.end - s.start).as_secs_f64();
        }
        sums
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
