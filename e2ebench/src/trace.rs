//! In-memory spans, recorded by the benchmark around each call into a
//! layer and written out as JSON lines when the run ends.
//!
//! Each span has a name, a start and end (ns since the process epoch), a
//! parent, the rank that recorded it (none for the host thread) and the
//! id of the composed call it belongs to.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;
use symtensor_obs::json::Value;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rank: Option<usize>,
    pub call: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One rank's spans of one call. Span ids are local until the trace
/// adopts them.
pub struct RankTrace {
    call: u32,
    rank: usize,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl RankTrace {
    pub fn new(call: u32, rank: usize) -> Self {
        epoch();
        RankTrace { call, rank, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span, a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rank: Some(self.rank),
            call: self.call,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.ms_of(name).iter().sum()
    }
}

/// Every span of a run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Opens a top-level span on the host thread.
    pub fn begin_host(&mut self, name: &'static str, call: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: None,
            rank: None,
            call,
        });
        id
    }

    pub fn end_host(&mut self, id: u32) {
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Takes a rank's spans, hanging its top-level spans under `parent`.
    pub fn adopt(&mut self, rank: &RankTrace, parent: u32) {
        assert!(rank.open.is_empty(), "rank {} left a span open", rank.rank);
        let base = self.spans.len() as u32;
        for s in &rank.spans {
            self.spans.push(Span {
                id: base + s.id,
                parent: Some(s.parent.map_or(parent, |l| base + l)),
                ..s.clone()
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or(Value::Null, Value::from);
            let obj = Value::object()
                .with("id", s.id as u64)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", opt(s.parent.map(|p| p as usize)))
                .with("rank", opt(s.rank))
                .with("call", s.call as u64);
            writeln!(out, "{}", obj.to_string_compact())?;
        }
        out.flush()
    }
}
