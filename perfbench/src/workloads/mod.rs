//! The four workloads, and what every run of one shares: an empty deploy
//! cache at the start, repeated set-up, cache deltas, and the traced
//! run's single-layer probes.

mod fcnn_serve;
mod lenet_batch;
mod router_mixed;
mod train_fcnn;

use crate::clock::{self, StealLog};
use crate::drive::Done;
use crate::models::{self, Model};
use crate::probes;
use crate::report::Metrics;
use crate::stats::{median_or_zero, peak_rss_mib, percentile};
use crate::trace::Tracer;
use oplix_nn::network::Network;
use oplixnet::{
    clear_deploy_cache, deploy_cache_stats, EngineStats, Error, SwapOutcome, SwapTicket,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One micro-batching `Server` over the FCNN: open loop, then
    /// closed loop.
    FcnnServe,
    /// Offline sharded `classify` of LeNet images.
    LenetBatch,
    /// One `Router`, an interactive FCNN lane and a bursty LeNet lane,
    /// with periodic hot swaps on the FCNN lane.
    RouterMixed,
    /// The paper's Assign → Train → Deploy → Evaluate pipeline.
    TrainFcnn,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::FcnnServe,
        Workload::LenetBatch,
        Workload::RouterMixed,
        Workload::TrainFcnn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FcnnServe => "fcnn-serve",
            Workload::LenetBatch => "lenet-batch",
            Workload::RouterMixed => "router-mixed",
            Workload::TrainFcnn => "train-fcnn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The models this workload deploys and serves.
    pub fn models(self) -> &'static [Model] {
        match self {
            Workload::FcnnServe => &[Model::Fcnn],
            Workload::LenetBatch => &[Model::Lenet],
            Workload::RouterMixed => &[Model::Fcnn, Model::Lenet],
            Workload::TrainFcnn => &[],
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, calls, swaps, jobs).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed output checks, one line each; empty when correct.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Checks that every predicted class agreed with the golden ones.
    pub fn expect_agreement(&mut self, what: &str, agreement: f64) {
        if agreement != 1.0 {
            self.problem(format!("{what}: golden agreement {agreement} < 1"));
        }
    }
}

/// Parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct Run<'a> {
    /// Input and schedule seed.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Span recorder (disabled in the untraced run).
    pub tracer: &'a Tracer,
}

impl Run<'_> {
    /// A share of the measured time budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Runs `build` [`SETUP_REPS`] times, each from an empty deploy cache,
/// and keeps the last result. Returns it with the median set-up time:
/// the CPU time the process used, in seconds at the nominal speed (by
/// calibrations on either side of each repetition). Each repetition is a
/// `harness.setup` span whose id `build` receives as the parent of its
/// own spans.
///
/// # Errors
///
/// The first error `build` returns.
pub fn setup<T>(
    tracer: &Tracer,
    mut build: impl FnMut(u32) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous repetition down outside the timed region.
        drop(last.take());
        clear_deploy_cache();
        let before = clock::calibrate();
        let id = tracer.open();
        let start = Instant::now();
        let (built, used) = clock::cpu(|| build(id));
        let end = Instant::now();
        tracer.close(id, 0, "harness.setup", start, end, 0);
        let speed = (before + clock::calibrate()) / 2.0;
        times.push(used.as_secs_f64() * speed);
        let built = built?;
        last = Some(built);
    }
    let built = last.ok_or("no set-up repetition ran")?;
    Ok((built, median_or_zero(&times)))
}

/// Runs `workload` once: from an empty deploy cache, with deploy-cache
/// deltas and the peak RSS recorded, and — when tracing — the per-layer
/// probes of the layers it exercises.
///
/// # Errors
///
/// A set-up or serving failure that left nothing to measure.
pub fn run(workload: Workload, run: Run<'_>) -> Result<Outcome, String> {
    clear_deploy_cache();
    clock::reset_speed();
    let before = deploy_cache_stats();
    let mut out = match workload {
        Workload::FcnnServe => fcnn_serve::run(run)?,
        Workload::LenetBatch => lenet_batch::run(run)?,
        Workload::RouterMixed => router_mixed::run(run)?,
        Workload::TrainFcnn => train_fcnn::run(run)?,
    };
    let after = deploy_cache_stats();
    eprintln!(
        "{}: CPU ran at {:.3} of the nominal speed",
        workload.name(),
        clock::speed()
    );
    out.e2e.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let l = &mut out.layers;
    l.set("deploy.cache_hits", hits as f64);
    l.set("deploy.cache_misses", misses as f64);
    l.set(
        "deploy.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    l.set(
        "deploy.cache_resident_mb",
        after.resident_bytes as f64 / (1 << 20) as f64,
    );
    l.set(
        "deploy.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    l.set("harness.sent", out.attempted as f64);
    l.set("harness.failed", out.failed as f64);
    l.set("harness.succeeded", (out.attempted - out.failed) as f64);
    if run.tracer.enabled() {
        layer_probes(workload, run, &mut out)?;
    }
    Ok(out)
}

/// The traced run's single-layer probes, for the layers `workload`
/// exercises.
fn layer_probes(workload: Workload, run: Run<'_>, out: &mut Outcome) -> Result<(), String> {
    for &model in workload.models() {
        let replica_us = probes::kernel(model, run.seed, run.tracer, &mut out.layers);
        let sequential_us = probes::sequential_engine(model, run.seed, run.tracer)?;
        out.layers.set(
            format!("kernel.{}.share", model.name()),
            ratio(replica_us, sequential_us),
        );
        probes::svd(model, run.seed, run.tracer, &mut out.layers);
        deploy_probe(model, run, out)?;
    }
    if workload == Workload::TrainFcnn {
        probes::gemm(run.seed, run.tracer, &mut out.layers);
    }
    probes::pool(run.tracer, &mut out.layers);
    Ok(())
}

/// Cold and warm deploy time of `model`: from an empty cache the first
/// deploy decomposes, the second decomposes and is admitted, the third
/// is served from the cache. Medians of three rounds.
fn deploy_probe(model: Model, run: Run<'_>, out: &mut Outcome) -> Result<(), String> {
    let net = models::network(model, 0).map_err(|e| e.to_string())?;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        clear_deploy_cache();
        for sighting in 0..3 {
            let start = Instant::now();
            run.tracer
                .time(0, "deploy.from_network", || models::deploy(model, &net))
                .map_err(|e| e.to_string())?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match sighting {
                0 => cold.push(ms),
                2 => warm.push(ms),
                _ => {}
            }
        }
    }
    clear_deploy_cache();
    out.layers.set(
        format!("deploy.{}.cold_ms", model.name()),
        median_or_zero(&cold),
    );
    out.layers.set(
        format!("deploy.{}.warm_ms", model.name()),
        median_or_zero(&warm),
    );
    Ok(())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Width of the windows a phase is cut into for its steady figures.
pub const WINDOW: Duration = Duration::from_millis(100);

/// A figure of a phase as the program gives it while the host leaves the
/// virtual CPUs alone: the median of per-window `values` (each with its
/// window's start and end) over the windows whose host steal, read from
/// `steal`, is at or below the first quartile of all windows' steal.
/// That is every window when the host stole nothing, and the
/// least-stolen quarter when it stole throughout. 0 on an empty set.
pub fn steady_median(values: &[(Instant, Instant, f64)], steal: &StealLog) -> f64 {
    steady_quantile(values, steal, 0.5)
}

/// As [`steady_median`], with the `q` quantile of the kept windows in
/// place of their median.
pub fn steady_quantile(values: &[(Instant, Instant, f64)], steal: &StealLog, q: f64) -> f64 {
    let stolen: Vec<f64> = values
        .iter()
        .map(|&(from, to, _)| steal.between(from, to) as f64)
        .collect();
    let Some(cut) = percentile(&stolen, 0.25) else {
        return 0.0;
    };
    let kept: Vec<f64> = values
        .iter()
        .zip(&stolen)
        .filter(|(_, &s)| s <= cut)
        .map(|(v, _)| v.2)
        .collect();
    percentile(&kept, q).unwrap_or(0.0)
}

/// The `q` percentile of latencies in ms, each stamped with when its
/// request was due: taken per [`WINDOW`] of due times, then reduced by
/// [`steady_median`]. 0 on an empty set.
pub fn steady_percentile(samples: &[(Instant, f64)], q: f64, steal: &StealLog) -> f64 {
    let Some(first) = samples.iter().map(|s| s.0).min() else {
        return 0.0;
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let k = ((t - first).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if windows.len() <= k {
            windows.resize(k + 1, Vec::new());
        }
        windows[k].push(v);
    }
    let values: Vec<(Instant, Instant, f64)> = windows
        .iter()
        .enumerate()
        .filter_map(|(k, w)| {
            let from = first + WINDOW.mul_f64(k as f64);
            Some((from, from + WINDOW, percentile(w, q)?))
        })
        .collect();
    steady_median(&values, steal)
}

/// Work done per CPU-second of the threads other than the generator's,
/// window by window. The generator calls [`CpuWindows::mark`] as work
/// completes; a mark past the open window's end closes it.
#[derive(Debug)]
pub struct CpuWindows {
    /// Start of the open window, and the work done and others' CPU time
    /// then.
    open: (Instant, f64, Duration),
    /// Closed windows: start, end, work per CPU-second.
    closed: Vec<(Instant, Instant, f64)>,
}

impl CpuWindows {
    /// Opens the first window; call from the generator thread.
    pub fn start() -> Self {
        CpuWindows {
            open: (Instant::now(), 0.0, others_cpu_now()),
            closed: Vec::new(),
        }
    }

    /// Records that `work` units are done in all; call from the
    /// generator thread.
    pub fn mark(&mut self, work: f64) {
        let now = Instant::now();
        if now - self.open.0 < WINDOW {
            return;
        }
        let cpu = others_cpu_now();
        let used = cpu.saturating_sub(self.open.2).as_secs_f64();
        if used > 0.0 {
            self.closed
                .push((self.open.0, now, (work - self.open.1) / used));
        }
        self.open = (now, work, cpu);
    }

    /// The rate of the fastest quarter of the least-stolen windows
    /// ([`steady_quantile`] at [`FAST`]).
    pub fn steady(&self, steal: &StealLog) -> f64 {
        steady_quantile(&self.closed, steal, 1.0 - FAST)
    }
}

/// Share of the windows, the fastest, that the CPU-time figures come
/// from. The host's load moves how fast a virtual CPU runs (clock
/// boost, a busy sibling hyperthread) from one 100 ms to the next, not
/// only from run to run; the fastest quarter of a run's windows moved
/// far less between runs than the median.
pub const FAST: f64 = 0.25;

/// The process's CPU time less the calling thread's.
fn others_cpu_now() -> Duration {
    clock::process_cpu().saturating_sub(clock::thread_cpu())
}

/// Generator bookkeeping shared by the serving workloads: lag behind
/// the schedule, and the ungated p90 and p99 of every latency with the
/// sample count.
pub fn record_lag(out: &mut Outcome, lag_ms: &[f64], latencies: &[(Instant, f64)]) {
    let latencies_ms: Vec<f64> = latencies.iter().map(|s| s.1).collect();
    let l = &mut out.layers;
    l.set(
        "harness.gen_lag_p99_ms",
        percentile(lag_ms, 0.99).unwrap_or(0.0),
    );
    l.set(
        "harness.gen_lag_max_ms",
        lag_ms.iter().copied().fold(0.0, f64::max),
    );
    for (name, q) in [
        ("harness.latency_p90_ms", 0.9),
        ("harness.latency_p99_ms", 0.99),
    ] {
        l.set(name, percentile(&latencies_ms, q).unwrap_or(0.0));
    }
    l.set("harness.latency_samples", latencies_ms.len() as f64);
}

/// Records a sampled request as a `harness.request` root from its due
/// time to its reply, with a `submit` child around the submit call and
/// the given children after it — all from timestamps the generator took
/// around its calls into the layer.
pub fn trace_request(
    tracer: &Tracer,
    d: &Done,
    req: u64,
    submit: &'static str,
    after: &[(&'static str, Instant, Instant)],
) {
    if !tracer.sampled(req) {
        return;
    }
    let root = tracer.open();
    tracer.record(root, submit, d.submit_start, d.submit_end, req);
    if d.result.is_ok() {
        for &(name, start, end) in after {
            tracer.record(root, name, start, end, req);
        }
    }
    tracer.close(root, 0, "harness.request", d.due, d.seen, req);
}

/// One hot swap as the swap thread saw it.
pub struct Swap {
    /// When the swap call began.
    pub start: Instant,
    /// When the swap call returned (the deploy is done).
    pub called: Instant,
    /// When the ticket resolved.
    pub applied: Instant,
    /// Counters of the engine the swap retired; `None` if it failed.
    pub retired: Option<EngineStats>,
}

/// The swap thread: every `period` for `span`, hot-swaps through `swap`,
/// alternating FCNN weight sets 1 and 0, and waits for the ticket.
/// Networks are not `Sync`, so the thread builds its own copies, then
/// meets the generator at `ready`.
///
/// # Errors
///
/// A failure to build the weight sets.
pub fn swap_loop(
    ready: &Barrier,
    span: Duration,
    period: Duration,
    swap: impl Fn(&Network) -> Result<SwapTicket, Error>,
) -> Result<Vec<Swap>, String> {
    let built = [
        models::network(Model::Fcnn, 0),
        models::network(Model::Fcnn, 1),
    ];
    ready.wait();
    let nets = [
        built[0].as_ref().map_err(|e| e.to_string())?,
        built[1].as_ref().map_err(|e| e.to_string())?,
    ];
    let until = Instant::now() + span;
    let mut swaps = Vec::new();
    let mut next = Instant::now() + period;
    while next < until {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        next += period;
        let start = Instant::now();
        let ticket = swap(nets[(swaps.len() + 1) % 2]);
        let called = Instant::now();
        let outcome = ticket.and_then(|t| t.wait());
        let applied = Instant::now();
        let retired = match outcome {
            Ok(SwapOutcome::Applied { retired, .. }) => Some(retired.stats()),
            _ => None,
        };
        swaps.push(Swap {
            start,
            called,
            applied,
            retired,
        });
    }
    Ok(swaps)
}
