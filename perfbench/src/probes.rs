//! Single-layer probes of the traced run: replicas that time one public
//! function of a layer in isolation, at the shapes the workload uses.

use crate::models::{self, optical_stages, Model};
use crate::report::{Metrics, GEMM_SHAPES};
use crate::schedule::stream;
use crate::stats::median_or_zero;
use crate::trace::Tracer;
use oplix_linalg::{CMatrix, Complex64};
use oplix_nn::tensor::Tensor;
use oplix_photonics::compiled::CompiledLayer;
use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per kernel call: one engine serving window.
const WINDOW: usize = 64;
/// Minimum calls, and minimum measured time, per probed shape.
const MIN_CALLS: usize = 5;
const MIN_TIME: Duration = Duration::from_millis(40);

fn random_matrix(m: usize, n: usize, seed: u64) -> CMatrix {
    let mut rng = stream(seed, (m * 1000 + n) as u64);
    CMatrix::from_fn(m, n, |_, _| {
        Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    })
}

/// Median seconds per call of `f`, repeated until both `MIN_CALLS` and
/// `MIN_TIME` are reached; every call is a `span`.
fn median_call(tracer: &Tracer, span: &'static str, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let begin = Instant::now();
    while times.len() < MIN_CALLS || begin.elapsed() < MIN_TIME {
        let start = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(0, span, start, end, 0);
        times.push((end - start).as_secs_f64());
    }
    median_or_zero(&times)
}

/// Times `CompiledLayer::forward_batch` on a `PhotonicLayer::from_matrix`
/// replica of every optical stage of `model`, over 64-sample windows
/// (× conv positions). Sets `kernel.<model>.s<i>.*` and returns the
/// replica time per sample in microseconds.
pub fn kernel(model: Model, seed: u64, tracer: &Tracer, out: &mut Metrics) -> f64 {
    let mut us_per_sample = 0.0;
    for st in optical_stages(model) {
        let layer =
            PhotonicLayer::from_matrix(&random_matrix(st.m, st.n, seed), MeshStyle::Clements);
        let compiled = CompiledLayer::compile(&layer);
        let rows = WINDOW * st.positions;
        let mut rng = stream(seed, 77 + st.stage as u64);
        let input: Vec<Complex64> = (0..rows * st.n)
            .map(|_| Complex64::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let mut io = Vec::with_capacity(rows * st.n.max(st.m));
        let mut tmp = Vec::with_capacity(rows * st.m);
        // Refilling the input is left out of the timed region.
        let (mut times, begin) = (Vec::new(), Instant::now());
        while times.len() < MIN_CALLS || begin.elapsed() < MIN_TIME {
            io.clear();
            io.extend_from_slice(&input);
            let start = Instant::now();
            compiled.forward_batch(&mut io, &mut tmp, rows);
            let end = Instant::now();
            black_box(&io);
            tracer.record(0, "kernel.forward_batch", start, end, 0);
            times.push((end - start).as_secs_f64());
        }
        let per_call = median_or_zero(&times);
        let ns_per_row = per_call * 1e9 / rows as f64;
        let prefix = format!("kernel.{}.s{}", model.name(), st.stage);
        out.set(format!("{prefix}.ns_per_row"), ns_per_row);
        out.set(format!("{prefix}.cmacs_per_sample"), st.cmacs_per_sample());
        out.set(format!("{prefix}.bytes_per_sample"), st.bytes_per_sample());
        us_per_sample += ns_per_row * st.positions as f64 * 1e-3;
    }
    us_per_sample
}

/// Microseconds per sample of a one-worker `classify` of `model` over
/// one 64-sample window: the sequential forward pass the kernel
/// replicas' share is taken of. (`EngineStats` busy time is wall time
/// across shards, so a sharded engine's figure would understate it.)
///
/// # Errors
///
/// A deploy or classify failure.
pub fn sequential_engine(model: Model, seed: u64, tracer: &Tracer) -> Result<f64, String> {
    let net = models::network(model, 0).map_err(|e| e.to_string())?;
    let mut engine = models::deploy(model, &net).map_err(|e| e.to_string())?;
    let window = models::inputs(model, seed, WINDOW)
        .map_err(|e| e.to_string())?
        .inputs;
    let mut failed = None;
    let per_call = median_call(tracer, "engine.classify_sequential", || {
        if let Err(e) = engine.classify(black_box(&window)) {
            failed = Some(e.to_string());
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(per_call * 1e6 / WINDOW as f64),
    }
}

/// Times `PhotonicLayer::from_matrix` (SVD plus mesh decomposition) at
/// every optical-stage shape of `model`.
pub fn svd(model: Model, seed: u64, tracer: &Tracer, out: &mut Metrics) {
    for st in optical_stages(model) {
        let w = random_matrix(st.m, st.n, seed ^ 1);
        let per_call = median_call(tracer, "linalg.from_matrix", || {
            black_box(PhotonicLayer::from_matrix(
                black_box(&w),
                MeshStyle::Clements,
            ));
        });
        out.set(format!("linalg.svd_ms.{}x{}", st.m, st.n), per_call * 1e3);
    }
}

/// Times `Tensor::matmul_nt` at the training GEMM shapes.
pub fn gemm(seed: u64, tracer: &Tracer, out: &mut Metrics) {
    for &(b, k, n) in GEMM_SHAPES {
        let mut rng = stream(seed, (b * 7 + k * 11 + n) as u64);
        let x = Tensor::random_uniform(&[b, k], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[n, k], 1.0, &mut rng);
        // One call is microseconds: time blocks of 64 calls.
        let per_block = median_call(tracer, "linalg.matmul_nt", || {
            for _ in 0..64 {
                black_box(black_box(&x).matmul_nt(black_box(&w)));
            }
        });
        out.set(
            format!("linalg.gemm_nt_us.{b}x{k}x{n}"),
            per_block * 1e6 / 64.0,
        );
    }
}

/// Times `pool::run_scoped` of 64 no-op tasks and reads the live worker
/// count.
pub fn pool(tracer: &Tracer, out: &mut Metrics) {
    let per_call = median_call(tracer, "pool.run_scoped", || {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        black_box(oplixnet::pool::run_scoped(tasks));
    });
    out.set("pool.launch_us", per_call * 1e6);
    out.set("pool.workers_alive", oplixnet::pool::workers_alive() as f64);
}
