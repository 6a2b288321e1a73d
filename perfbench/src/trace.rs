//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around one public call into a
//! layer: its name, start, end, the span that was open when it began,
//! and the run it belongs to (one traced iteration, or one request on
//! `serve-mix`). A span's self time is its duration minus that of its
//! direct children. Spans stay in memory and are written out when the
//! run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.interesting`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Iteration or request id.
    pub run: u64,
}

/// A single-threaded span recorder. Disabled tracers run the closure
/// and record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    run: Cell<u64>,
}

impl Tracer {
    /// A tracer; spans share `origin` so several threads' tracers merge.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            run: Cell::new(0),
        }
    }

    /// Tags the spans that follow with run id `run`.
    pub fn set_run(&self, run: u64) {
        self.run.set(run);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let now = self.origin.elapsed();
            spans.push(Span { name, start: now, end: now, parent, run: self.run.get() });
            spans.len() - 1
        };
        self.open.set(Some(idx));
        let out = f();
        self.open.set(parent);
        self.spans.borrow_mut()[idx].end = self.origin.elapsed();
        out
    }

    /// Records an already-timed interval (a client request measured by
    /// its own clock) as a span without children.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.borrow_mut().push(Span {
                name,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
                parent: self.open.get(),
                run: self.run.get(),
            });
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(|s| s.end.saturating_sub(s.start)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end.saturating_sub(s.start));
        }
    }
    own
}

/// Per-name, per-run sums of self time in seconds.
#[derive(Debug, Default)]
pub struct RunTotals(BTreeMap<&'static str, BTreeMap<u64, f64>>);

impl RunTotals {
    /// Sums the self times of `spans` by name and run.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut totals: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (s, d) in spans.iter().zip(self_times(spans)) {
            *totals.entry(s.name).or_default().entry(s.run).or_default() += d.as_secs_f64();
        }
        RunTotals(totals)
    }

    /// Self time of the spans named `name` in run `run` (0 when none).
    pub fn at(&self, name: &str, run: u64) -> f64 {
        self.0.get(name).and_then(|m| m.get(&run)).copied().unwrap_or(0.0)
    }

    /// Median of `f(run)` over the runs that recorded a span `anchor`.
    pub fn median_over(&self, anchor: &str, f: impl Fn(u64) -> f64) -> f64 {
        let runs = self.0.get(anchor).map(|m| m.keys().map(|&r| f(r)).collect::<Vec<_>>());
        crate::report::median(&runs.unwrap_or_default())
    }
}

/// Writes spans as tab-separated lines: run, index, parent, name,
/// start and end in microseconds, self time in microseconds.
///
/// # Errors
///
/// Directory creation or write failures.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "run\tspan\tparent\tname\tstart_us\tend_us\tself_us")?;
    for (i, (s, d)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.run,
            s.name,
            s.start.as_micros(),
            s.end.as_micros(),
            d.as_micros()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span { name: "outer", start: ms(0), end: ms(10), parent: None, run: 1 },
            Span { name: "inner", start: ms(1), end: ms(5), parent: Some(0), run: 1 },
            Span { name: "leaf", start: ms(2), end: ms(3), parent: Some(1), run: 1 },
        ];
        assert_eq!(self_times(&spans), vec![ms(6), ms(3), ms(1)]);
        let totals = RunTotals::from_spans(&spans);
        assert!((totals.at("outer", 1) - 0.006).abs() < 1e-9);
        assert!((totals.median_over("leaf", |r| totals.at("inner", r)) - 0.003).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true, Instant::now());
        t.set_run(7);
        t.span("a", || t.span("b", || ()));
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.run == 7));
        let off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("a", || 3), 3);
        assert!(off.into_spans().is_empty());
    }
}
