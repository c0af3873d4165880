//! Tests of the benchmark itself: seeded inputs, the percentile helper,
//! the output checks, the trace breakdown, the result line, and the
//! catalogue `BENCHMARK.json` declares.

use oplix_perfbench::check::{golden, Tally};
use oplix_perfbench::clock::{self, StealLog};
use oplix_perfbench::drive::open_loop;
use oplix_perfbench::models::{self, Model};
use oplix_perfbench::report::{self, Metrics};
use oplix_perfbench::schedule::{bursts, poisson, stream};
use oplix_perfbench::stats::percentile;
use oplix_perfbench::trace::{breakdown, Span, Tracer};
use oplix_perfbench::workloads::{steady_median, Outcome, Workload};
use oplixnet::Server;
use std::path::Path;
use std::time::{Duration, Instant};

#[test]
fn one_seed_yields_one_schedule_and_one_input_set() {
    let horizon = Duration::from_millis(200);
    let a = poisson(&mut stream(7, 1), 20_000.0, horizon, 4096, 0);
    let b = poisson(&mut stream(7, 1), 20_000.0, horizon, 4096, 0);
    assert_eq!(a, b);
    assert!(
        a.len() > 3000 && a.len() < 5000,
        "{} arrivals at 20k/s over 0.2 s",
        a.len()
    );
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    assert_ne!(a, poisson(&mut stream(8, 1), 20_000.0, horizon, 4096, 0));

    let gap = Duration::from_millis(20);
    let c = bursts(&mut stream(7, 3), gap, 4..=9, horizon, 512, 1);
    assert_eq!(c, bursts(&mut stream(7, 3), gap, 4..=9, horizon, 512, 1));

    for model in Model::ALL {
        let x = models::inputs(model, 7, 16).expect("inputs");
        let y = models::inputs(model, 7, 16).expect("inputs");
        assert_eq!(x.inputs.re.as_slice(), y.inputs.re.as_slice());
        assert_eq!(x.inputs.im.as_slice(), y.inputs.im.as_slice());
        assert_eq!(x.labels, y.labels);
        let z = models::inputs(model, 8, 16).expect("inputs");
        assert_ne!(x.inputs.re.as_slice(), z.inputs.re.as_slice());
    }
    // The weights are fixed: two trainings classify identically.
    let pool = models::inputs(Model::Fcnn, 7, 64).expect("inputs").inputs;
    let classify = || {
        let net = models::network(Model::Fcnn, 0).expect("trains");
        models::deploy(Model::Fcnn, &net)
            .expect("deploys")
            .classify(&pool)
            .expect("classifies")
    };
    assert_eq!(classify(), classify());
}

#[test]
fn percentile_matches_a_hand_computed_set() {
    // Nearest rank over {15, 20, 35, 40, 50}, given unsorted.
    let v = [50.0, 15.0, 40.0, 20.0, 35.0];
    assert_eq!(percentile(&v, 0.05), Some(15.0));
    assert_eq!(percentile(&v, 0.30), Some(20.0));
    assert_eq!(percentile(&v, 0.40), Some(20.0));
    assert_eq!(percentile(&v, 0.50), Some(35.0));
    assert_eq!(percentile(&v, 0.90), Some(50.0));
    assert_eq!(percentile(&v, 1.00), Some(50.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn steady_figures_keep_the_least_stolen_windows() {
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    // Steal ticks read every 20 ms: none until 200 ms, 5 ticks by 220 ms.
    let log = StealLog(
        (0..=20)
            .map(|k| (at(20 * k), if k >= 11 { 5 } else { 0 }))
            .collect(),
    );
    assert_eq!(log.between(at(0), at(200)), 0);
    assert_eq!(log.between(at(190), at(230)), 5);
    assert_eq!(log.between(at(300), at(900)), 0, "past the log");
    // Four 100 ms windows; the stolen one reads 0.5, the clean ones 1, 2, 3.
    let windows = [
        (at(0), at(100), 1.0),
        (at(100), at(200), 2.0),
        (at(200), at(300), 0.5),
        (at(300), at(400), 3.0),
    ];
    assert_eq!(steady_median(&windows, &log), 2.0);
    // A host that steals nothing keeps every window.
    assert_eq!(steady_median(&windows, &StealLog::default()), 1.0);
    assert_eq!(steady_median(&[], &log), 0.0);
}

#[test]
fn cpu_clocks_advance_with_work_and_the_reference_loop_calibrates() {
    let (p0, t0) = (clock::process_cpu(), clock::thread_cpu());
    let (sum, used) = clock::cpu(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
    assert_eq!(sum, 1_999_999_000_000);
    assert!(used > Duration::ZERO);
    assert!(clock::thread_cpu() > t0 && clock::process_cpu() > p0);
    clock::reset_speed();
    assert_eq!(clock::speed(), 1.0, "no calibration yet");
    clock::calibrate();
    let speed = clock::speed();
    assert!(speed.is_finite() && speed > 0.0 && speed != 1.0);
}

#[test]
fn the_golden_check_catches_a_mismatched_engine() {
    let data = models::inputs(Model::Lenet, 3, 64).expect("inputs");
    let deploy = |version| {
        models::deploy(
            Model::Lenet,
            &models::network(Model::Lenet, version).expect("builds"),
        )
        .expect("deploys")
    };
    let (mut served, mut right, mut wrong) = (deploy(0), deploy(0), deploy(1));
    let off = Tracer::off();
    let classes = served.classify(&data.inputs).expect("classifies");
    let good = golden(&mut right, &data.inputs, &off).expect("golden");
    let bad = golden(&mut wrong, &data.inputs, &off).expect("golden");
    let tally = |table: Option<&[usize]>| {
        let mut t = Tally::default();
        for (row, &class) in classes.iter().enumerate() {
            t.observe(table, &data.labels, row, class);
        }
        t
    };
    assert_eq!(tally(Some(&good)).agreement(), 1.0);
    let mismatched = tally(Some(&bad)).agreement();
    assert!(
        mismatched < 1.0,
        "a different weight set must disagree somewhere"
    );
    // A version without a golden table is a disagreement too.
    assert_eq!(tally(None).agreement(), 0.0);

    let mut out = Outcome::default();
    out.expect_agreement("mismatched engine", mismatched);
    assert_eq!(out.problems.len(), 1, "a mismatch must fail the run");
}

#[test]
fn the_open_loop_sends_and_resolves_every_scheduled_request() {
    let net = models::network(Model::Lenet, 0).expect("builds");
    let server = Server::builder()
        .max_wait(Duration::from_micros(200))
        .serve_engine(models::deploy(Model::Lenet, &net).expect("deploys"));
    let pool = models::inputs(Model::Lenet, 5, 32).expect("inputs").inputs;
    let rows: Vec<_> = (0..32)
        .map(|i| oplixnet::serve::sample_row(&pool, i))
        .collect();
    let schedule = poisson(&mut stream(5, 1), 500.0, Duration::from_millis(100), 32, 0);
    let client = server.client();
    let mut done = Vec::new();
    let run = open_loop(
        &schedule,
        Duration::from_secs(10),
        |a, _| {
            client
                .submit(rows[a.row].clone())
                .map_err(|e| e.to_string())
        },
        |d| done.push(d.clone()),
    );
    assert_eq!(run.missing, 0);
    assert_eq!(run.resolved, schedule.len());
    assert_eq!(done.len(), schedule.len());
    assert!(done.iter().all(|d| d.result.is_ok() && d.seen >= d.due));
}

#[test]
fn self_time_subtracts_children_and_shares_sum_to_one() {
    let span = |id, parent, name, start_ns, end_ns| Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req: 1,
    };
    let spans = [
        span(2, 1, "serve.submit", 10, 20),
        span(3, 1, "serve.inflight", 20, 90),
        span(1, 0, "harness.request", 0, 100),
        // A probe root stays out of the shares.
        span(4, 0, "kernel.forward_batch", 0, 1000),
    ];
    let b = breakdown(&spans);
    assert_eq!(b["harness"].self_ns, 20);
    assert_eq!(b["serve"].self_ns, 80);
    assert!(!b.contains_key("kernel"));
    assert!((b["harness"].share + b["serve"].share - 1.0).abs() < 1e-12);
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let mut m = Metrics::default();
    m.set("latency_p50_ms", 0.75);
    m.set("setup_s", f64::NAN);
    let catalogue = vec![
        ("latency_p50_ms".to_string(), "ms"),
        ("setup_s".to_string(), "s"),
        ("accuracy".to_string(), "ratio"),
    ];
    let line = report::render(true, 3, 0, &m, &catalogue);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
         \"latency_p50_ms\": {\"value\": 0.75, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
         \"accuracy\": {\"value\": 0.0, \"unit\": \"ratio\"}}}"
    );
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
    for w in Workload::ALL {
        assert!(declared(w.name()), "workload {} missing", w.name());
    }
    let mut names = 0;
    for (name, unit) in report::end_to_end().into_iter().chain(report::per_layer()) {
        assert!(declared(&name), "metric {name} missing");
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "unit of {name}"
        );
        names += 1;
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names + Workload::ALL.len(),
        "undeclared extras"
    );
}

#[test]
fn the_benchmark_sources_are_clean_under_oplix_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "src/workloads", "tests"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("source dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() > 10);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .expect("under the package")
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path).expect("readable");
        // Linted as what it is: bench code of the workspace.
        let findings =
            oplix_lint::lint_file(&format!("crates/bench/benches/perfbench/{rel}"), &text);
        assert!(findings.is_empty(), "{rel}: {findings:?}");
    }
}
