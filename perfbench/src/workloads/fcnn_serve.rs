//! `fcnn-serve`: one micro-batching `Server` over the FCNN, fed seeded
//! Poisson arrivals open loop at a fixed rate of about half of
//! saturation.
//!
//! At a third of saturation the virtual CPUs idle between batches, and
//! the latency then mostly measured how fast the host wakes an idle CPU,
//! which swung by a fifth from run to run; at half they stay busy. The
//! throughput is the server's completions per CPU-second at that rate: a
//! closed loop at saturation swung between about 180k and 260k per
//! CPU-second over ten identical runs.

use super::{ratio, record_lag, setup, steady_percentile, trace_request, CpuWindows, Outcome, Run};
use crate::check::{golden, Tally};
use crate::clock::with_steal_log;
use crate::drive::{open_loop, Done};
use crate::models::{self, Model};
use crate::schedule::{poisson, stream};
use crate::stats::median_or_zero;
use oplix_linalg::Complex64;
use oplixnet::serve::sample_row;
use oplixnet::Server;
use std::time::Duration;

/// Distinct input rows requests draw from.
const POOL: usize = 4096;
/// Offered rate, requests per second.
const RATE: f64 = 80_000.0;
/// Leading share of the run left out of its figures.
const WARM: f64 = 0.1;
const GRACE: Duration = Duration::from_secs(20);

pub fn run(run: Run<'_>) -> Result<Outcome, String> {
    let tracer = run.tracer;
    let net = models::network(Model::Fcnn, 0).map_err(|e| e.to_string())?;
    let ((server, data, rows), setup_s) = setup(tracer, |parent| {
        let data = models::inputs(Model::Fcnn, run.seed, POOL).map_err(|e| e.to_string())?;
        let rows: Vec<Vec<Complex64>> = (0..POOL).map(|i| sample_row(&data.inputs, i)).collect();
        let engine = tracer
            .time(parent, "deploy.from_network", || {
                models::deploy(Model::Fcnn, &net)
            })
            .map_err(|e| e.to_string())?;
        models::check_stages(Model::Fcnn, &engine)?;
        let server = Server::builder()
            .max_batch(64)
            .max_wait(Duration::from_micros(500))
            .queue_cap(4 * POOL)
            .serve_engine(engine);
        Ok((server, data, rows))
    })?;
    let mut out = Outcome::default();
    out.e2e.set("setup_s", setup_s);

    let mut direct = models::deploy(Model::Fcnn, &net).map_err(|e| e.to_string())?;
    let table = golden(&mut direct, &data.inputs, tracer).map_err(|e| e.to_string())?;

    // Open loop: latency from due times, completions per CPU-second of
    // the server's threads (the generator's own CPU time left out).
    let client = server.client();
    let schedule = poisson(&mut stream(run.seed, 1), RATE, run.budget(1.0), POOL, 0);
    let warm = schedule
        .iter()
        .take_while(|a| a.due < run.budget(WARM))
        .count();
    let (mut lag, mut submit_us) = (Vec::new(), Vec::new());
    let mut latency = Vec::with_capacity(schedule.len());
    let (mut tally, mut failed) = (Tally::default(), 0u64);
    let mut cpu: Option<CpuWindows> = None;
    let (done, steal) = with_steal_log(|| {
        open_loop(
            &schedule,
            GRACE,
            |arr, _| {
                client
                    .submit(rows[arr.row].clone())
                    .map_err(|e| e.to_string())
            },
            |d: &Done| {
                lag.push(d.lag_ms());
                submit_us.push(d.submit_us());
                match &d.result {
                    Ok(r) => {
                        // The server never swaps: every reply is version 1.
                        let golden = (r.version == 1).then_some(&table[..]);
                        tally.observe(golden, &data.labels, d.row, r.class);
                        if d.index >= warm {
                            latency.push((d.due, d.latency_ms()));
                            cpu.get_or_insert_with(CpuWindows::start)
                                .mark(tally.checked as f64);
                        }
                    }
                    Err(_) => failed += 1,
                }
                trace_request(
                    tracer,
                    d,
                    d.index as u64,
                    "serve.submit",
                    &[("serve.inflight", d.submit_end, d.seen)],
                );
            },
        )
    });
    let serve_stats = server.stats();
    let engine = server.shutdown().stats();

    out.e2e
        .set("latency_p50_ms", steady_percentile(&latency, 0.5, &steal));
    out.e2e
        .set("throughput_sps", cpu.map_or(0.0, |c| c.steady(&steal)));
    record_lag(&mut out, &lag, &latency);

    out.expect_agreement("fcnn-serve", tally.agreement());
    out.e2e.set("golden_agreement", tally.agreement());
    out.e2e.set("accuracy", tally.accuracy());
    out.attempted = schedule.len() as u64;
    out.failed = failed + done.missing as u64;
    if done.missing > 0 {
        out.problem(format!(
            "{} scheduled requests never resolved",
            done.missing
        ));
    }
    out.e2e.set(
        "success_frac",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
    );

    let l = &mut out.layers;
    l.set("serve.batches", serve_stats.batches as f64);
    l.set("serve.mean_batch_fill", serve_stats.mean_batch_fill());
    l.set(
        "serve.max_wait_ms",
        serve_stats.max_wait_observed.as_secs_f64() * 1e3,
    );
    l.set("serve.rejected", serve_stats.rejected as f64);
    l.set("serve.submit_us_p50", median_or_zero(&submit_us));
    l.set(
        "serve.engine_busy_frac",
        ratio(engine.busy_nanos as f64 * 1e-9, done.wall.as_secs_f64()),
    );
    l.set(
        "engine.fcnn.us_per_sample",
        ratio(engine.busy_nanos as f64 * 1e-3, engine.samples as f64),
    );
    l.set("engine.fcnn.batches", engine.batches as f64);
    l.set("engine.fcnn.samples", engine.samples as f64);
    l.set(
        "engine.fcnn.classify_ms_p50",
        median_or_zero(&tracer.durations_ms("engine.classify")),
    );
    Ok(out)
}
