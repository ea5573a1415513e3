//! Harness-side tracing: a span around every call the harness makes into
//! a layer, kept in memory, written out as JSON lines when the run ends,
//! and folded into per-layer self times.
//!
//! The product carries no instrumentation for this; spans are recorded
//! from outside, at the adapter boundary (`Probe::call`).

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The operation the span belongs to; spans of one op share it.
    pub op: u64,
}

/// Per-layer totals after folding.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its child spans cover.
    pub self_ns: u64,
}

/// Fold spans into per-name totals. A span's self time is its duration
/// minus the union of its children's intervals clipped to it, so nested
/// spans are not counted twice and siblings add up.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.clamp(cursor, s.end_ns);
            let b = b.clamp(cursor, s.end_ns);
            covered += b - a;
            cursor = b;
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

/// The recorder. Off, it records nothing and `Probe::call` costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop what was recorded so far (set-up spans, once they are folded).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let now = self.ns(Instant::now());
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.op,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let idx = self.stack.pop().expect("end() without begin()");
        self.spans[idx as usize].end_ns = now;
    }

    /// Start the next operation: spans opened from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Record a span timed elsewhere (a child process's lifetime, a
    /// request measured on a load-generator thread) under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op: self.op,
        });
    }

    /// One JSON object per span: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                Json::Null
            } else {
                Json::Num(f64::from(s.parent))
            };
            let line = Json::obj(vec![
                ("id", Json::Num(i as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", parent),
                ("op", Json::Num(s.op as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

/// What every call into a layer goes through: records a span when
/// tracing, and applies the self-test delay when the layer is the one
/// `--inject-layer` names.
pub struct Probe {
    pub tracer: Tracer,
    inject: Option<(String, Duration)>,
}

impl Probe {
    pub fn new(trace: bool, inject: Option<(String, Duration)>) -> Probe {
        Probe {
            tracer: Tracer::new(trace),
            inject,
        }
    }

    /// Call into `layer`.
    #[inline]
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.begin(layer);
        if let Some((target, delay)) = &self.inject {
            if target == layer {
                // Busy-wait: a sleep of a few µs overshoots by far more.
                let until = Instant::now() + *delay;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        let out = f();
        self.tracer.end();
        out
    }

    /// Wrap one operation in a root `op` span with its own op id.
    #[inline]
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Probe) -> T) -> T {
        self.tracer.next_op();
        self.tracer.begin("op");
        let out = f(self);
        self.tracer.end();
        out
    }
}

/// The share of the `op` spans' wall time that no layer span covers.
pub fn unattributed_ratio(folded: &BTreeMap<&'static str, LayerTime>) -> f64 {
    match folded.get("op") {
        Some(op) if op.total_ns > 0 => op.self_ns as f64 / op.total_ns as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_spans() {
        // op [0,100] has siblings eval [10,60] and write [60,90];
        // eval has a nested scan [20,50].
        let spans = vec![
            span("op", 0, 100, ROOT),
            span("eval", 10, 60, 0),
            span("scan", 20, 50, 1),
            span("write", 60, 90, 0),
        ];
        let f = fold(&spans);
        assert_eq!(
            f["op"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            f["eval"],
            LayerTime {
                count: 1,
                total_ns: 50,
                self_ns: 20
            }
        );
        assert_eq!(
            f["scan"],
            LayerTime {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            f["write"],
            LayerTime {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        // Self times add up to the root's wall time: nothing counted twice.
        let sum: u64 = f.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
        assert!((unattributed_ratio(&f) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Two children recorded from other threads overlap each other and
        // one runs past the parent's end.
        let spans = vec![
            span("op", 0, 100, ROOT),
            span("req", 10, 70, 0),
            span("req", 50, 120, 0),
        ];
        let f = fold(&spans);
        assert_eq!(f["op"].self_ns, 10);
        assert_eq!(f["req"].count, 2);
        assert_eq!(f["req"].total_ns, 130);
    }

    #[test]
    fn tracer_nests_by_call_order_and_off_records_nothing() {
        let mut p = Probe::new(true, None);
        p.op(|p| {
            p.call("a", || ());
            p.call("b", || ());
        });
        p.op(|p| p.call("a", || ()));
        let s = p.tracer.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", ROOT, 1));
        assert_eq!((s[1].name, s[1].parent), ("a", 0));
        assert_eq!((s[2].name, s[2].parent), ("b", 0));
        assert_eq!((s[3].name, s[3].parent, s[3].op), ("op", ROOT, 2));
        assert_eq!((s[4].name, s[4].parent, s[4].op), ("a", 3, 2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let mut off = Probe::new(false, None);
        off.op(|p| p.call("a", || ()));
        assert!(off.tracer.spans().is_empty());
    }

    #[test]
    fn injected_delay_lands_on_the_named_layer_only() {
        let mut p = Probe::new(
            true,
            Some(("xml.writer".to_string(), Duration::from_micros(300))),
        );
        for _ in 0..5 {
            p.op(|p| {
                p.call("core.engine", || ());
                p.call("xml.writer", || ());
            });
        }
        let f = fold(p.tracer.spans());
        assert!(f["xml.writer"].self_ns >= 5 * 300_000);
        assert!(f["core.engine"].self_ns < 300_000);
    }
}
