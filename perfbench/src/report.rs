//! The metric catalogue and the one-line JSON result.

use crate::models::{optical_stages, Model};
use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit. Every workload reports all of
/// them; `README.md` says what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_sps", "samples/cpu-s"),
    ("latency_p50_ms", "ms"),
    ("success_frac", "ratio"),
    ("golden_agreement", "ratio"),
    ("accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers named in the trace breakdown (`trace.<layer>.self_ms` and
/// `trace.<layer>.share`).
pub const TRACE_LAYERS: &[&str] = &[
    "harness", "serve", "router", "engine", "deploy", "stage", "pool", "kernel", "linalg",
];

/// Matrix shapes `(batch, k, n)` the training-GEMM probe times
/// `Tensor::matmul_nt` at: the student's and the teacher's dense layers
/// at the training batch of 32.
pub const GEMM_SHAPES: &[(usize, usize, usize)] = &[(32, 128, 32), (32, 32, 20), (32, 256, 64)];

/// Every per-layer metric, with its unit, in catalogue order. The traced
/// run prints exactly these; a layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for (name, unit) in [
        ("serve.batches", "count"),
        ("serve.mean_batch_fill", "samples"),
        ("serve.max_wait_ms", "ms"),
        ("serve.rejected", "count"),
        ("serve.submit_us_p50", "us"),
        ("serve.engine_busy_frac", "ratio"),
    ] {
        add(name.into(), unit);
    }
    for lane in ["fcnn", "lenet"] {
        for (field, unit) in [
            ("wait_p50_ms", "ms"),
            ("wait_p99_ms", "ms"),
            ("queue_wait_p50_ms", "ms"),
            ("service_p50_ms", "ms"),
            ("batches", "count"),
            ("mean_batch_fill", "samples"),
            ("deadline_missed", "count"),
            ("submit_us_p50", "us"),
        ] {
            add(format!("router.{lane}.{field}"), unit);
        }
    }
    for model in Model::ALL {
        add(format!("deploy.{}.cold_ms", model.name()), "ms");
        add(format!("deploy.{}.warm_ms", model.name()), "ms");
    }
    for (name, unit) in [
        ("deploy.cache_hits", "count"),
        ("deploy.cache_misses", "count"),
        ("deploy.cache_hit_ratio", "ratio"),
        ("deploy.cache_resident_mb", "MiB"),
        ("deploy.cache_evictions", "count"),
        ("router.swap_deploy_ms", "ms"),
        ("router.swap_apply_ms", "ms"),
    ] {
        add(name.into(), unit);
    }
    for model in Model::ALL {
        let m = model.name();
        add(format!("engine.{m}.classify_ms_p50"), "ms");
        add(format!("engine.{m}.us_per_sample"), "us");
        add(format!("engine.{m}.batches"), "count");
        add(format!("engine.{m}.samples"), "count");
    }
    for model in Model::ALL {
        let m = model.name();
        for st in optical_stages(model) {
            let s = st.stage;
            add(format!("kernel.{m}.s{s}.ns_per_row"), "ns");
            add(format!("kernel.{m}.s{s}.cmacs_per_sample"), "cmac-computed");
            add(format!("kernel.{m}.s{s}.bytes_per_sample"), "B-computed");
        }
        add(format!("kernel.{m}.share"), "ratio");
    }
    add("pool.launch_us".into(), "us");
    add("pool.workers_alive".into(), "count");
    for stage in ["assign", "train", "deploy", "evaluate"] {
        add(format!("stage.{stage}_ms"), "ms");
    }
    let mut svd_shapes: Vec<(usize, usize)> = Model::ALL
        .iter()
        .flat_map(|&m| optical_stages(m).into_iter().map(|s| (s.m, s.n)))
        .collect();
    svd_shapes.sort_unstable();
    svd_shapes.dedup();
    for (m, n) in svd_shapes {
        add(format!("linalg.svd_ms.{m}x{n}"), "ms");
    }
    for &(b, k, n) in GEMM_SHAPES {
        add(format!("linalg.gemm_nt_us.{b}x{k}x{n}"), "us");
    }
    for (name, unit) in [
        ("harness.gen_lag_p99_ms", "ms"),
        ("harness.gen_lag_max_ms", "ms"),
        ("harness.sent", "count"),
        ("harness.succeeded", "count"),
        ("harness.failed", "count"),
        ("harness.latency_p90_ms", "ms"),
        ("harness.latency_p99_ms", "ms"),
        ("harness.latency_samples", "count"),
        ("harness.trace_overhead_frac", "ratio"),
    ] {
        add(name.into(), unit);
    }
    for layer in TRACE_LAYERS {
        add(format!("trace.{layer}.self_ms"), "ms");
        add(format!("trace.{layer}.share"), "ratio");
    }
    out
}

/// Named measurements of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Sets (or overwrites) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every `catalogue` entry in order (a
/// missing one reads 0). Non-finite values are written as 0.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(String, &str)],
) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip decimal form of `v`, valid as a JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The end-to-end catalogue as owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}
