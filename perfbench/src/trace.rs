//! In-memory spans recorded around the library's public entry points.
//!
//! A span is `(id, parent, request, name, start, end)`; times are
//! nanoseconds since the tracer's epoch. Each client thread records into its
//! own [`Tracer`], and the tracers are merged when the phase ends, so
//! recording takes no lock. Spans are written out only after measuring.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; every span of one ack shares it.
    pub request: u64,
    /// Layer-qualified name, such as `engine.apply`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch (equal to start while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer measuring from `epoch` (share one epoch across the
    /// tracers of a run so their spans can be merged).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same epoch, for another thread.
    pub fn sibling(&self) -> Self {
        Self::new(self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            parent,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by this tracer.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another tracer's spans (same epoch), remapping their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Builds a tracer from explicit spans (for tests and offline analysis).
    pub fn from_spans(epoch: Instant, spans: Vec<Span>) -> Self {
        Self { epoch, spans }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span with this name, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes the spans as tab-separated text: a header line, then
    /// `id parent request name start_ns end_ns self_ns` per span, with `-`
    /// for a root span's parent.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut kids = children.remove(&id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = end;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Cost of recording one span (open + close), in nanoseconds, measured on
/// a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(Instant::now());
    t.spans.reserve(N);
    let started = Instant::now();
    for i in 0..N {
        let id = t.open("calibrate", None, i as u64);
        t.close(id);
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    std::hint::black_box(&t);
    elapsed / N as f64
}
