//! Benchmark-side spans and their Chrome trace-event export.
//!
//! Spans are recorded around the calls the benchmark itself makes into
//! each layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written once, when the
//! traced run ends, as Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`).

use crate::json::{num, obj, render, string};
use serde::Value;
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The most spans one traced run keeps; later spans are counted but
/// not stored, so a runaway loop cannot exhaust memory.
const MAX_SPANS: usize = 1 << 20;

/// Identifier of a recorded span (0 means "no parent").
pub type SpanId = u64;

struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    tid: u64,
    start_us: f64,
    dur_us: f64,
}

/// Span recorder shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A small stable id for the calling thread.
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a finished span `[start, end)` named `name` under
    /// `parent`, returning its id (for children recorded later).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, start, end);
        id
    }

    /// Reserve an id for a span whose extent is known only later, so
    /// its children can name it as their parent while it is open.
    pub fn open(&self) -> (SpanId, Instant) {
        (self.next.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, name: &'static str, parent: SpanId, opened: (SpanId, Instant)) -> SpanId {
        self.push(opened.0, parent, name, opened.1, Instant::now());
        opened.0
    }

    fn push(&self, id: SpanId, parent: SpanId, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            name,
            tid: tid(),
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write every span as Chrome trace-event JSON (`"ph": "X"`
    /// complete events, microsecond timestamps; each event's `args`
    /// carry its id and its parent's id).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let events: Vec<Value> = spans
            .iter()
            .map(|s| {
                obj([
                    ("name", string(s.name)),
                    ("cat", string("pcg-e2e")),
                    ("ph", string("X")),
                    ("ts", num(s.start_us)),
                    ("dur", num(s.dur_us)),
                    ("pid", Value::U64(u64::from(std::process::id()))),
                    ("tid", Value::U64(s.tid)),
                    (
                        "args",
                        obj([("id", Value::U64(s.id)), ("parent", Value::U64(s.parent))]),
                    ),
                ])
            })
            .collect();
        let doc = obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", string("ms")),
            (
                "otherData",
                obj([(
                    "dropped_spans",
                    Value::U64(self.dropped.load(Ordering::Relaxed)),
                )]),
            ),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, render(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_export_with_parents() {
        let t = Tracer::new();
        let root = t.open();
        let a = Instant::now();
        let child = t.record("child", root.0, a, Instant::now());
        let root_id = t.close("root", 0, root);
        assert_ne!(child, root_id);
        let path = std::env::temp_dir().join(format!("pcg-e2e-trace-{}.json", std::process::id()));
        t.write_chrome(&path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let Value::Arr(events) = doc.field("traceEvents").unwrap() else {
            panic!("array")
        };
        assert_eq!(events.len(), 2);
        let child_ev = events
            .iter()
            .find(|e| crate::json::get_str(e, "name") == Some("child"))
            .unwrap();
        assert_eq!(
            crate::json::get_u64(child_ev.field("args").unwrap(), "parent"),
            Some(root_id)
        );
    }
}
