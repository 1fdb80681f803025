//! In-memory span recorder for the traced runs.
//!
//! Spans are opened around the benchmark's own calls into each layer's
//! public functions. Each has a name, start, end, parent span and the
//! request (frame, sweep) it belongs to; the parent is the span open on
//! the same thread when it started. Operator applies are far too
//! frequent to keep one span each, so [`TimingOp`] sums them per solve
//! and they are stored as aggregate children of the solve span. A
//! layer's self time is its span minus its child spans and aggregates.

use flexcs_linalg::Matrix;
use flexcs_solver::LinearOperator;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Calls and time summed over many leaf calls under one parent span.
#[derive(Debug, Clone, Copy)]
struct Aggregate {
    parent: u32,
    name: &'static str,
    calls: u64,
    ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<Vec<Aggregate>>,
}

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static OPEN: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    span: Span,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(id, _)| id == self.span.id) {
                open.truncate(pos);
            }
        });
        self.tracer
            .spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .push(self.span);
    }
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u32 {
        self.span.id
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            aggregates: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, inherited) = open.last().copied().unwrap_or((NO_PARENT, 0));
            let request = request.unwrap_or(inherited);
            open.push((id, request));
            (parent, request)
        });
        SpanGuard {
            tracer: self,
            span: Span {
                id,
                parent,
                request,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
        }
    }

    /// Opens the root span of request `request`.
    pub fn request(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.open(name, Some(request))
    }

    /// Opens a child of the span currently open on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    /// Records a span whose interval was measured elsewhere (for
    /// example inside a trial closure), as a child of `parent`.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Adds summed leaf calls as a child of span `parent`.
    pub fn aggregate(&self, parent: u32, name: &'static str, calls: u64, ns: u64) {
        if calls > 0 {
            self.aggregates
                .lock()
                .expect("aggregate lock")
                .push(Aggregate {
                    parent,
                    name,
                    calls,
                    ns,
                });
        }
    }

    /// Per-name totals: span durations, self times and aggregate sums.
    pub fn summary(&self) -> Summary {
        let spans = self.spans.lock().expect("span lock");
        let aggregates = self.aggregates.lock().expect("aggregate lock");
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
        for a in aggregates.iter() {
            *child_ns.entry(a.parent).or_default() += a.ns;
        }
        let mut out = Summary::default();
        for s in spans.iter() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.spans.entry(s.name).or_default();
            e.durations_us.push(dur as f64 / 1e3);
            e.self_us += own as f64 / 1e3;
        }
        for a in aggregates.iter() {
            let e = out.aggregates.entry(a.name).or_default();
            e.0 += a.calls;
            e.1 += a.ns as f64 / 1e3;
        }
        out
    }

    /// Writes every span and aggregate as CSV lines; an aggregate
    /// carries its summed time in `end_ns`, with `start_ns` 0.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "kind,id,parent,request,name,start_ns,end_ns,calls")?;
        for s in self.spans.lock().expect("span lock").iter() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "span,{},{parent},{},{},{},{},1",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        for a in self.aggregates.lock().expect("aggregate lock").iter() {
            writeln!(
                w,
                "aggregate,,{},,{},0,{},{}",
                a.parent, a.name, a.ns, a.calls
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Default)]
pub struct SpanStats {
    pub durations_us: Vec<f64>,
    pub self_us: f64,
}

impl SpanStats {
    pub fn total_us(&self) -> f64 {
        self.durations_us.iter().sum()
    }
}

#[derive(Debug, Default)]
pub struct Summary {
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// name -> (calls, total µs)
    pub aggregates: BTreeMap<&'static str, (u64, f64)>,
}

impl Summary {
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Total µs of span `name` divided by `per` (0 when absent).
    pub fn total_per(&self, name: &str, per: f64) -> f64 {
        self.span(name).map_or(0.0, |s| s.total_us() / per)
    }

    /// Self µs of span `name` divided by `per` (0 when absent).
    pub fn self_per(&self, name: &str, per: f64) -> f64 {
        self.span(name).map_or(0.0, |s| s.self_us / per)
    }

    /// Mean µs per call of aggregate `name` (0 when absent).
    pub fn agg_mean_us(&self, name: &str) -> f64 {
        self.aggregates
            .get(name)
            .map_or(0.0, |&(calls, us)| us / calls.max(1) as f64)
    }

    pub fn agg_calls(&self, name: &str) -> u64 {
        self.aggregates.get(name).map_or(0, |a| a.0)
    }
}

/// A [`LinearOperator`] that forwards every call to `inner` and sums
/// the calls and time of the forward and adjoint applies and of the
/// spectral-norm estimate. Values are exactly the inner operator's.
pub struct TimingOp<'a, O: LinearOperator> {
    inner: &'a O,
    pub apply: Cell<(u64, u64)>,
    pub apply_t: Cell<(u64, u64)>,
    pub norm: Cell<(u64, u64)>,
}

impl<'a, O: LinearOperator> TimingOp<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        TimingOp {
            inner,
            apply: Cell::new((0, 0)),
            apply_t: Cell::new((0, 0)),
            norm: Cell::new((0, 0)),
        }
    }

    fn timed<R>(cell: &Cell<(u64, u64)>, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let (calls, ns) = cell.get();
        cell.set((calls + 1, ns + t0.elapsed().as_nanos() as u64));
        r
    }

    /// Stores the summed calls as aggregate children of span `parent`.
    pub fn flush(&self, tracer: &Tracer, parent: u32) {
        for (name, cell) in [
            ("transform.apply", &self.apply),
            ("transform.apply_t", &self.apply_t),
            ("transform.norm", &self.norm),
        ] {
            let (calls, ns) = cell.get();
            tracer.aggregate(parent, name, calls, ns);
        }
    }
}

impl<O: LinearOperator> LinearOperator for TimingOp<'_, O> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        Self::timed(&self.apply, || self.inner.apply(x))
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        Self::timed(&self.apply_t, || self.inner.apply_transpose(y))
    }

    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        Self::timed(&self.apply, || self.inner.apply_into(x, out))
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        Self::timed(&self.apply_t, || self.inner.apply_transpose_into(y, out))
    }

    fn column(&self, j: usize) -> Vec<f64> {
        Self::timed(&self.apply, || self.inner.column(j))
    }

    fn column_into(&self, j: usize, basis: &mut Vec<f64>, out: &mut Vec<f64>) {
        Self::timed(&self.apply, || self.inner.column_into(j, basis, out))
    }

    fn to_dense(&self) -> Matrix {
        self.inner.to_dense()
    }

    fn spectral_norm_estimate(&self, iterations: usize) -> f64 {
        Self::timed(&self.norm, || self.inner.spectral_norm_estimate(iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let tracer = Tracer::new();
        {
            let root = tracer.request("frame", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = tracer.span("solve");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            tracer.aggregate(root.id(), "transform.apply", 3, 500_000);
        }
        let s = tracer.summary();
        let frame = s.span("frame").unwrap();
        let solve = s.span("solve").unwrap();
        assert_eq!(frame.durations_us.len(), 1);
        let expected_self = frame.total_us() - solve.total_us() - 500.0;
        assert!((frame.self_us - expected_self).abs() < 1e-6);
        assert_eq!(s.agg_calls("transform.apply"), 3);
        assert!((s.agg_mean_us("transform.apply") - 500.0 / 3.0).abs() < 1e-9);
    }
}
