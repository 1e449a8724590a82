//! In-memory spans around calls into each layer, written out as JSON lines
//! when the traced pass ends.
//!
//! Every span is recorded from the benchmark's side of a public function
//! call; nothing inside the program is instrumented. A span's *self time*
//! is its duration minus the part its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One timed call (or group of calls) into a layer.
pub struct Span {
    /// `<layer>.<operation>`, e.g. `cache.lookup`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The sweep or cell this span belongs to; spans of one request share it.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
pub struct Open(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.stack.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns, id });
        Open(idx)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "spans close innermost-first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Times one call as a leaf span.
    pub fn call<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the children's durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Seconds of self time in layer spans (`<layer>.<operation>`);
    /// container spans such as `sweep` only group their children.
    pub fn layer_self_seconds(&self) -> f64 {
        let own = self.self_times_ns();
        let ns: u64 =
            self.spans.iter().zip(own).filter(|(s, _)| s.name.contains('.')).map(|(_, o)| o).sum();
        ns as f64 / 1e9
    }

    /// Median duration, in microseconds, of the spans called `name`
    /// (0 when there are none).
    pub fn median_us(&self, name: &str) -> f64 {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if d.is_empty() {
            return 0.0;
        }
        d.sort_by(f64::total_cmp);
        crate::stats::median_sorted(&d)
    }

    /// Appends every span to `path`, one JSON object per line.
    pub fn append_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Runs `f` as a leaf span when tracing, bare otherwise.
pub fn spanned<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.call(name, id, f),
        None => f(),
    }
}
