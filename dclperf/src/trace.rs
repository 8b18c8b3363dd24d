//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public functions (name, start, end, parent).  They stay in
//! memory until the run ends; then self times are derived per span name and
//! the spans are written out as a Chrome trace (`chrome://tracing`,
//! Perfetto) through the repository's `JsonValue` writer.

use dcl_bench::report::JsonValue;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records spans while recording; otherwise [`Tracer::span`] only calls its
/// closure.  The benchmark issues every traced call from one thread.
pub struct Tracer {
    recording: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            recording: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Pause or resume recording.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mean self time in µs per span name.  A span's self time is its
    /// duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in spans.iter().zip(&child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*children);
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        totals
            .into_iter()
            .map(|(name, (count, ns))| (name, ns as f64 / count as f64 / 1e3))
            .collect()
    }

    /// Write every span as a Chrome-trace complete event (`"ph": "X"`), one
    /// event per line.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        let spans = self.spans.borrow();
        for (i, span) in spans.iter().enumerate() {
            let event = JsonValue::obj([
                ("name", JsonValue::str(span.name)),
                ("ph", JsonValue::str("X")),
                ("pid", JsonValue::num(1u32)),
                ("tid", JsonValue::num(1u32)),
                ("ts", JsonValue::Num(span.start_ns as f64 / 1e3)),
                ("dur", JsonValue::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                (
                    "args",
                    JsonValue::obj([
                        ("id", JsonValue::num(i as f64)),
                        (
                            "parent",
                            span.parent.map_or(JsonValue::Null, |p| JsonValue::num(p as f64)),
                        ),
                    ]),
                ),
            ]);
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(out, "{}{sep}", crate::util::json_line(&event))?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
