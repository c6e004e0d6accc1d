//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The benchmark is single-threaded, so spans nest strictly: a span's
//! children run inside it one after another, and its self time is its
//! duration minus theirs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `op` for a whole spreadsheet operation.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to (0 outside operations).
    pub op_id: u64,
}

impl Span {
    /// The layer a span belongs to: the prefix before the first `.`,
    /// with whole operations attributed to the spreadsheet layer.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "spreadsheet",
        }
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a disabled tracer runs closures without recording.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op_id: Cell<u64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op_id: Cell::new(0),
        }
    }

    /// Run `f` as a new operation: spans inside share a fresh operation id.
    pub fn op<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.op_id.set(self.op_id.get() + 1);
        let r = self.span("op", f);
        self.op_id.set(0);
        r
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op_id: self.op_id.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// durations of its direct children, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.duration_ns().saturating_sub(*c) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op_id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.op(|| {
            t.span("engine.run", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 1);
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["engine"] >= 5.0);
        assert!(by_layer["spreadsheet"] < by_layer["engine"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.op(|| 7), 7);
        assert!(t.spans().is_empty());
    }
}
