//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a crate: its name, start and end (ns since
//! the tracer was created), its parent span and the root span of the
//! operation it belongs to. Spans are kept in a pre-sized vector and written
//! out as JSON lines once the run is over, so recording costs two clock
//! reads and a push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Id of "no span" (the parent of a root span, or a span of a disabled
/// tracer).
pub const NONE: u32 = u32::MAX;

/// Spans recorded beyond this many are dropped (and counted).
const MAX_SPANS: usize = 2_000_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. A disabled tracer records nothing, so the same loop
/// code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let op = if parent == NONE {
            id
        } else {
            self.spans[parent as usize].op
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (a no-op for [`NONE`]).
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line tagged with `run_id`.
    pub fn write_jsonl(&self, path: &Path, run_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"run\":\"{run_id}\",\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}
