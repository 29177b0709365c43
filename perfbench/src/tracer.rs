//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls *into* the repository's public
//! functions, from this benchmark's own code; the program itself is not
//! instrumented. A span carries its name, start and end (nanoseconds from
//! a shared epoch), its parent span, and the work it covered (simulated
//! accesses, or 1 per request). A layer's self time is its span's duration
//! minus the part covered by its child spans.
//!
//! With tracing off, [`Tracer::span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    work: u64,
}

/// Per-name aggregate over recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub self_ns: u64,
    pub work: u64,
    pub count: u64,
}

/// Records spans when on; otherwise passes calls straight through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `work` units.
    pub fn span<R>(&self, name: impl Into<String>, work: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.into(),
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
                work,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        r
    }

    /// Moves every span of `other` (recorded against the same epoch, e.g.
    /// by a client thread) into this tracer.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time, work and count per span name.
    pub fn aggregate(&self) -> BTreeMap<String, Agg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, Agg> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let a = out.entry(s.name.clone()).or_default();
            a.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
            a.work += s.work;
            a.count += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true, Instant::now());
        t.span("outer", 10, || {
            t.span("inner", 5, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let agg = t.aggregate();
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert!(inner.self_ns >= 20_000_000);
        assert!(outer.self_ns < inner.self_ns, "{outer:?} vs {inner:?}");
        assert_eq!((outer.work, inner.work), (10, 5));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 1, || 7), 7);
        assert!(t.aggregate().is_empty());
    }
}
