//! Perf-smoke regression gate: quickly re-measures the kernel suite and
//! fails (exit 1) if any pinned metric regressed more than
//! [`PERF_SMOKE_THRESHOLD`]× against its checked-in baseline
//! (`BENCH_kernels.json`).
//!
//! This is the CI tripwire behind the repo's perf trajectory: the 6.4×
//! compiled-mesh speedup and the lane-kernel numbers can only move
//! forward. It is *not* a benchmark — measurements use few repetitions
//! (seconds, not minutes), and the threshold is generous enough to
//! absorb single-shot noise on a shared runner while still catching an
//! accidentally de-vectorised kernel or a quadratic slip in a hot loop.
//!
//! The gate only runs when the baseline's `cores`/`rustc` metadata
//! matches the current environment ([`env_mismatch`]); otherwise it
//! prints why and exits 0 — a laptop baseline compared on a CI runner is
//! noise, not signal. When the baseline was skipped it prints
//! `perf-smoke SKIPPED: 0 metrics checked` (still exit 0), never PASS. After a legitimate speedup, refresh the baseline
//! with `cargo bench --bench kernel_compute` and commit the new JSON.
//!
//! Set `OPLIX_PERF_SMOKE_HANDICAP=<factor>` to multiply every measured
//! time before comparison — used once per change to verify the gate
//! actually fails on a deliberate slowdown (e.g. `=2.0` must exit 1).

use oplix_bench::baseline::{env_mismatch, parse_flat_json, BenchMeta, PERF_SMOKE_THRESHOLD};
use oplix_linalg::CMatrix;
use oplix_linalg::Complex64;
use oplix_nn::tensor::Tensor;
use oplix_photonics::clements::decompose_clements;
use oplix_photonics::compiled::CompiledMesh;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Mean seconds per call of `f`, after one warm-up call.
fn timed<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Re-measures the pinned kernel metrics (same shapes and seeds as
/// `kernel_compute`, fewer repetitions). Returns `(baseline_key,
/// measured_value)` pairs; smaller is better for every metric.
fn measure() -> Vec<(&'static str, f64)> {
    const MODES: usize = 16;
    let mut rng = StdRng::seed_from_u64(21);
    let mesh = decompose_clements(&CMatrix::random_unitary(MODES, &mut rng));
    let compiled = CompiledMesh::compile(&mesh);
    let window = 256usize;
    let mut rng = StdRng::seed_from_u64(7);
    let base: Vec<Complex64> = (0..MODES * window)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let mut buf = base.clone();
    let interp = timed(50, || {
        buf.copy_from_slice(&base);
        for row in buf.chunks_exact_mut(MODES) {
            mesh.propagate_in_place(row);
        }
    }) / window as f64;
    let comp = timed(100, || {
        buf.copy_from_slice(&base);
        for row in buf.chunks_exact_mut(MODES) {
            compiled.propagate_in_place(row);
        }
    }) / window as f64;
    let batch = timed(200, || {
        buf.copy_from_slice(&base);
        compiled.propagate_batch(&mut buf, window);
    }) / window as f64;

    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::random_uniform(&[64, 256], 1.0, &mut rng);
    let w = Tensor::random_uniform(&[128, 256], 1.0, &mut rng);
    let dy = Tensor::random_uniform(&[64, 128], 1.0, &mut rng);
    let t_transpose = timed(30, || {
        criterion::black_box(x.matmul(&w.transpose2()));
    });
    let t_nt = timed(30, || {
        criterion::black_box(x.matmul_nt(&w));
    });
    let t_tn = timed(30, || {
        criterion::black_box(dy.matmul_tn(&x));
    });

    vec![
        ("mesh16_interpreted_ns_per_sample", interp * 1e9),
        ("mesh16_compiled_ns_per_sample", comp * 1e9),
        ("mesh16_compiled_batch_ns_per_sample", batch * 1e9),
        ("gemm_transpose_then_matmul_ms", t_transpose * 1e3),
        ("gemm_matmul_nt_ms", t_nt * 1e3),
        ("gemm_matmul_tn_ms", t_tn * 1e3),
    ]
}

/// Gates one `(baseline file, re-measured metrics)` pair. A missing
/// baseline or a mismatched environment skips (prints why); a malformed
/// baseline, a missing pinned key, or a metric beyond
/// [`PERF_SMOKE_THRESHOLD`]× fails. Returns whether the gate failed and
/// how many metrics it actually compared against the baseline.
/// Measurement is lazy so a skipped gate costs nothing.
fn gate(
    path: &str,
    measure: impl FnOnce() -> Vec<(&'static str, f64)>,
    handicap: f64,
) -> (bool, usize) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("perf-smoke SKIP: no baseline at {path}: {e}");
            return (false, 0);
        }
    };
    let baseline = match parse_flat_json(&text) {
        Some(map) => map,
        None => {
            println!("perf-smoke FAIL: {path} is not a flat JSON baseline");
            return (true, 0);
        }
    };
    let current = BenchMeta::current();
    if let Some(reason) = env_mismatch(&baseline, &current) {
        println!("perf-smoke SKIP ({path}): {reason}");
        return (false, 0);
    }

    let mut failed = false;
    let mut checked = 0;
    for (key, measured) in measure() {
        let measured = measured * handicap;
        let Some(base) = baseline.get(key).and_then(|v| v.as_number()) else {
            println!("perf-smoke FAIL: baseline {path} is missing `{key}`");
            failed = true;
            continue;
        };
        checked += 1;
        let ratio = measured / base;
        let verdict = if ratio > PERF_SMOKE_THRESHOLD {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("perf-smoke: {key:40} baseline {base:10.2}  measured {measured:10.2}  ({ratio:.2}x) {verdict}");
    }
    (failed, checked)
}

fn main() {
    // `cargo bench` passes harness flags (e.g. `--bench`); ignore them.
    let handicap: f64 = std::env::var("OPLIX_PERF_SMOKE_HANDICAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    if handicap != 1.0 {
        println!("perf-smoke: applying handicap x{handicap} to all measurements (gate self-test)");
    }

    let kernels = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let (failed, checked) = gate(kernels, measure, handicap);
    if failed {
        println!(
            "perf-smoke FAIL: at least one metric regressed beyond \
             {PERF_SMOKE_THRESHOLD}x its checked-in baseline. If a slowdown is \
             intentional, or a speedup legitimately moved the numbers, refresh \
             the baseline with `cargo bench --bench kernel_compute` and commit \
             the refreshed JSON."
        );
        std::process::exit(1);
    }
    if checked == 0 {
        // The baseline was skipped: nothing was gated, so claim nothing.
        println!("perf-smoke SKIPPED: 0 metrics checked");
        return;
    }
    println!(
        "perf-smoke PASS: all {checked} checked metrics within {PERF_SMOKE_THRESHOLD}x of baseline"
    );
}
