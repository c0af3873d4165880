//! Span recording for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around its
//! calls into each layer's public functions. They stay in memory and are
//! written out when the run ends. A span's layer is its name up to the
//! first `.` (`serve.submit` belongs to `serve`). Root spans named
//! `harness.*` are the workload's end-to-end units (a request, a batch
//! call, a training job, a set-up); probe spans (kernel, linalg, pool
//! replicas) are roots of their own and stay out of the shares.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Directory, relative to the working directory, the traced run writes
/// its spans to.
pub const TRACE_DIR: &str = ".bench_trace";

/// One closed span. `parent == 0` marks a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the run (from 1).
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Request identifier shared by every span of one request (0 when
    /// the span belongs to no request).
    pub req: u64,
}

/// Self time and end-to-end share of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Σ over the layer's spans of duration minus the part its child
    /// spans cover, in nanoseconds.
    pub self_ns: u64,
    /// `self_ns` over the summed duration of the `harness.*` roots.
    pub share: f64,
}

/// The span recorder. A disabled tracer reads no clocks and stores
/// nothing, so the untraced run pays only a branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    sample_every: AtomicU64,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            sample_every: AtomicU64::new(1),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Traces only every `k`-th request (by request id), to bound the
    /// memory of high-rate workloads. Spans outside requests are always
    /// recorded.
    pub fn sample_requests(&self, k: u64) {
        self.sample_every.store(k.max(1), Ordering::Relaxed);
    }

    /// Whether request `req`'s spans are recorded.
    pub fn sampled(&self, req: u64) -> bool {
        self.on && req.is_multiple_of(self.sample_every.load(Ordering::Relaxed))
    }

    /// Reserves a span id before the span closes, so children can name
    /// their parent. Returns 0 when disabled.
    pub fn open(&self) -> u32 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Closes the span reserved as `id`.
    pub fn close(
        &self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
    ) {
        if !self.on || id == 0 {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            req,
        };
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Records a span in one step; returns its id (0 when disabled).
    pub fn record(
        &self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
    ) -> u32 {
        let id = self.open();
        self.close(id, parent, name, start, end, req);
        id
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(parent, name, start, Instant::now(), 0);
        out
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A copy of every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns.min(s.end_ns)) as f64 * 1e-6)
            .collect()
    }

    /// Per-layer self time and share of end-to-end time over the spans
    /// that descend from `harness.*` roots.
    pub fn breakdown(&self) -> BTreeMap<&'static str, LayerTime> {
        breakdown(&self.spans())
    }

    /// Writes every span as tab-separated lines with a header.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\treq")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// See [`Tracer::breakdown`].
pub fn breakdown(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let max_id = spans.iter().map(|s| s.id as usize).max().unwrap_or(0);
    let mut index = vec![usize::MAX; max_id + 1];
    for (i, s) in spans.iter().enumerate() {
        index[s.id as usize] = i;
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); max_id + 1];
    for s in spans {
        if s.parent != 0 && (s.parent as usize) <= max_id {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let root_of = |mut i: usize| -> usize {
        // Parents are closed spans of the same run; a dangling parent
        // ends the walk at the last span found.
        for _ in 0..64 {
            let p = spans[i].parent as usize;
            if p == 0 || p > max_id || index[p] == usize::MAX {
                break;
            }
            i = index[p];
        }
        i
    };
    let mut total_root = 0u64;
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = &spans[root_of(i)];
        if !root.name.starts_with("harness.") {
            continue;
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        if s.parent == 0 {
            total_root += dur;
        }
        let covered = union_within(&mut children[s.id as usize], s.start_ns, s.end_ns);
        layers.entry(layer_of(s.name)).or_default().self_ns += dur.saturating_sub(covered);
    }
    for t in layers.values_mut() {
        t.share = if total_root == 0 {
            0.0
        } else {
            t.self_ns as f64 / total_root as f64
        };
    }
    layers
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}
