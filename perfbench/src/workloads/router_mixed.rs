//! `router-mixed`: one `Router` with two lanes that contend for the
//! worker budget. The interactive FCNN lane gets steady Poisson arrivals
//! with a tight deadline; the LeNet lane gets periodic bursts of seeded
//! size with a loose deadline, sized so its queue builds. A second
//! thread hot-swaps the FCNN lane on a fixed period, alternating two
//! weight sets: the first sightings miss the deploy cache, later ones
//! hit it.
//!
//! The FCNN lane's latency is wall time, taken only over windows the
//! host did not steal from; throughput is counted per CPU-second of the
//! router's threads.

use super::{
    ratio, record_lag, setup, steady_percentile, swap_loop, trace_request, CpuWindows, Outcome, Run,
};
use crate::check::{golden, Tally};
use crate::clock::with_steal_log;
use crate::drive::{open_loop, Done};
use crate::models::{self, Model};
use crate::schedule::{bursts, merge, poisson, stream};
use crate::stats::median_or_zero;
use crate::trace::Tracer;
use oplix_linalg::Complex64;
use oplixnet::serve::sample_row;
use oplixnet::{EngineStats, Priority, Router, RouterRequest};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const FCNN_POOL: usize = 4096;
const LENET_POOL: usize = 512;
/// FCNN lane offered rate, requests per second.
const FCNN_RATE: f64 = 20_000.0;
/// LeNet bursts: period and size range.
const BURST_PERIOD: Duration = Duration::from_millis(100);
const BURST_MIN: usize = 48;
const BURST_MAX: usize = 80;
const TIGHT: Duration = Duration::from_millis(250);
const LOOSE: Duration = Duration::from_secs(5);
/// Swap period; prime to the burst period, so swaps sample every phase
/// of the burst cycle.
const SWAP_PERIOD: Duration = Duration::from_millis(37);
const WARM: f64 = 0.1;
const GRACE: Duration = Duration::from_secs(20);
const FCNN_LANE: u8 = 0;
const LENET_LANE: u8 = 1;

/// What the generator keeps per lane.
#[derive(Default)]
struct Lane {
    tally: Tally,
    latency: Vec<(Instant, f64)>,
    waited: Vec<f64>,
    service: Vec<f64>,
    submit_us: Vec<f64>,
}

pub fn run(run: Run<'_>) -> Result<Outcome, String> {
    let tracer = run.tracer;
    let fcnn_nets = [
        models::network(Model::Fcnn, 0),
        models::network(Model::Fcnn, 1),
    ];
    let fcnn_nets = [
        fcnn_nets[0].as_ref().map_err(|e| e.to_string())?,
        fcnn_nets[1].as_ref().map_err(|e| e.to_string())?,
    ];
    let lenet_net = models::network(Model::Lenet, 0).map_err(|e| e.to_string())?;
    let ((router, fcnn_data, lenet_data, fcnn_rows, lenet_rows), setup_s) =
        setup(tracer, |parent| {
            let fcnn_data =
                models::inputs(Model::Fcnn, run.seed, FCNN_POOL).map_err(|e| e.to_string())?;
            let lenet_data =
                models::inputs(Model::Lenet, run.seed, LENET_POOL).map_err(|e| e.to_string())?;
            let fcnn_rows: Vec<Vec<Complex64>> = (0..FCNN_POOL)
                .map(|i| sample_row(&fcnn_data.inputs, i))
                .collect();
            let lenet_rows: Vec<Vec<Complex64>> = (0..LENET_POOL)
                .map(|i| sample_row(&lenet_data.inputs, i))
                .collect();
            let router = Router::builder()
                .max_batch(64)
                .max_wait(Duration::from_micros(500))
                .queue_cap(4 * FCNN_POOL)
                .build();
            tracer
                .time(parent, "router.register", || {
                    router.register(
                        Model::Fcnn.name(),
                        fcnn_nets[0],
                        models::DETECTION,
                        models::STYLE,
                    )?;
                    router.register_shaped(
                        Model::Lenet.name(),
                        &lenet_net,
                        Some(models::lenet_shape()),
                        models::DETECTION,
                        models::STYLE,
                    )
                })
                .map_err(|e| e.to_string())?;
            Ok((router, fcnn_data, lenet_data, fcnn_rows, lenet_rows))
        })?;
    let mut out = Outcome::default();
    out.e2e.set("setup_s", setup_s);

    // Golden classes per weight set: FCNN version v runs set (v − 1) mod 2.
    let mut fcnn_golden = Vec::new();
    for net in fcnn_nets {
        let mut direct = models::deploy(Model::Fcnn, net).map_err(|e| e.to_string())?;
        fcnn_golden
            .push(golden(&mut direct, &fcnn_data.inputs, tracer).map_err(|e| e.to_string())?);
    }
    let mut lenet_direct = models::deploy(Model::Lenet, &lenet_net).map_err(|e| e.to_string())?;
    let lenet_golden =
        golden(&mut lenet_direct, &lenet_data.inputs, &Tracer::off()).map_err(|e| e.to_string())?;

    let horizon = run.budget(1.0);
    let schedule = merge(vec![
        poisson(
            &mut stream(run.seed, 2),
            FCNN_RATE,
            horizon,
            FCNN_POOL,
            FCNN_LANE,
        ),
        bursts(
            &mut stream(run.seed, 3),
            BURST_PERIOD,
            BURST_MIN..=BURST_MAX,
            horizon,
            LENET_POOL,
            LENET_LANE,
        ),
    ]);
    let warm_due = run.budget(WARM);
    let client = router.client();
    let mut lanes = [Lane::default(), Lane::default()];
    let mut cpu = CpuWindows::start();
    let (mut failed, mut lag) = (0u64, Vec::with_capacity(schedule.len()));
    let mut on_done = |d: &Done| {
        lag.push(d.lag_ms());
        let fcnn = d.lane == FCNN_LANE;
        cpu.mark((lanes[0].tally.checked + lanes[1].tally.checked) as f64);
        let lane = &mut lanes[usize::from(!fcnn)];
        lane.submit_us.push(d.submit_us());
        let Ok(r) = &d.result else {
            failed += 1;
            return;
        };
        let waited = r.waited.unwrap_or_default();
        let flushed = (d.submit_end + waited).min(d.seen);
        if fcnn {
            let table = fcnn_golden
                .get(((r.version + 1) % 2) as usize)
                .map(|g| &g[..]);
            lane.tally.observe(table, &fcnn_data.labels, d.row, r.class);
        } else {
            let table = (r.version == 1).then_some(&lenet_golden[..]);
            lane.tally
                .observe(table, &lenet_data.labels, d.row, r.class);
        }
        if schedule[d.index].due >= warm_due {
            lane.latency.push((d.due, d.latency_ms()));
            lane.waited.push(waited.as_secs_f64() * 1e3);
            lane.service.push((d.seen - flushed).as_secs_f64() * 1e3);
        }
        let (submit, queue, service) = if fcnn {
            (
                "router.fcnn.submit",
                "router.fcnn.queue",
                "router.fcnn.service",
            )
        } else {
            (
                "router.lenet.submit",
                "router.lenet.queue",
                "router.lenet.service",
            )
        };
        trace_request(
            tracer,
            d,
            d.index as u64,
            submit,
            &[(queue, d.submit_end, flushed), (service, flushed, d.seen)],
        );
    };
    let ready = Barrier::new(2);
    let ((done, swaps), steal) = with_steal_log(|| {
        std::thread::scope(|scope| {
            let swapper = scope.spawn(|| {
                swap_loop(&ready, horizon, SWAP_PERIOD, |net| {
                    router.swap_model(Model::Fcnn.name(), net, models::DETECTION, models::STYLE)
                })
            });
            ready.wait();
            let done = open_loop(
                &schedule,
                GRACE,
                |a, due| {
                    let req = if a.lane == FCNN_LANE {
                        RouterRequest::new(Model::Fcnn.name(), fcnn_rows[a.row].clone())
                            .deadline_at(due + TIGHT)
                            .priority(Priority::Interactive)
                    } else {
                        RouterRequest::new(Model::Lenet.name(), lenet_rows[a.row].clone())
                            .deadline_at(due + LOOSE)
                            .priority(Priority::Batch)
                    };
                    client.submit(req).map_err(|e| e.to_string())
                },
                &mut on_done,
            );
            (done, swapper.join())
        })
    });
    let swaps = swaps.map_err(|_| "the swap thread panicked".to_string())??;
    let stats = router.stats();
    let engines = router.shutdown();
    for s in &swaps {
        let root = tracer.open();
        tracer.record(root, "deploy.swap_model", s.start, s.called, 0);
        tracer.record(root, "router.swap_apply", s.called, s.applied, 0);
        tracer.close(root, 0, "harness.swap", s.start, s.applied, 0);
    }

    let [fcnn, lenet] = &lanes;
    out.e2e.set(
        "latency_p50_ms",
        steady_percentile(&fcnn.latency, 0.5, &steal),
    );
    record_lag(&mut out, &lag, &fcnn.latency);
    out.e2e.set("throughput_sps", cpu.steady(&steal));
    out.expect_agreement("router-mixed fcnn lane", fcnn.tally.agreement());
    out.expect_agreement("router-mixed lenet lane", lenet.tally.agreement());
    let mut both = fcnn.tally;
    both.merge(lenet.tally);
    out.e2e.set("golden_agreement", both.agreement());
    out.e2e.set("accuracy", both.accuracy());

    let swap_failures = swaps.iter().filter(|s| s.retired.is_none()).count() as u64;
    out.attempted = (schedule.len() + swaps.len()) as u64;
    out.failed = failed + done.missing as u64 + swap_failures;
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
    for (model, lane) in [(Model::Fcnn, fcnn), (Model::Lenet, lenet)] {
        let m = model.name();
        if let Some(s) = stats.models.get(m) {
            l.set(
                format!("router.{m}.wait_p50_ms"),
                s.wait_p50.as_secs_f64() * 1e3,
            );
            l.set(
                format!("router.{m}.wait_p99_ms"),
                s.wait_p99.as_secs_f64() * 1e3,
            );
            l.set(format!("router.{m}.batches"), s.serve.batches as f64);
            l.set(
                format!("router.{m}.mean_batch_fill"),
                s.serve.mean_batch_fill(),
            );
            l.set(
                format!("router.{m}.deadline_missed"),
                s.deadline_missed as f64,
            );
        }
        l.set(
            format!("router.{m}.queue_wait_p50_ms"),
            median_or_zero(&lane.waited),
        );
        l.set(
            format!("router.{m}.service_p50_ms"),
            median_or_zero(&lane.service),
        );
        l.set(
            format!("router.{m}.submit_us_p50"),
            median_or_zero(&lane.submit_us),
        );
    }
    let deploy_ms: Vec<f64> = swaps
        .iter()
        .map(|s| (s.called - s.start).as_secs_f64() * 1e3)
        .collect();
    let apply_ms: Vec<f64> = swaps
        .iter()
        .map(|s| (s.applied - s.called).as_secs_f64() * 1e3)
        .collect();
    l.set("router.swap_deploy_ms", median_or_zero(&deploy_ms));
    l.set("router.swap_apply_ms", median_or_zero(&apply_ms));

    // Engine counters: the FCNN lane's retired versions plus the engines
    // the shutdown handed back.
    let mut per_model: BTreeMap<String, EngineStats> = BTreeMap::new();
    let retired = swaps
        .iter()
        .filter_map(|s| s.retired)
        .map(|s| (Model::Fcnn.name().to_string(), s));
    for (name, s) in retired.chain(engines.iter().map(|(n, e)| (n.clone(), e.stats()))) {
        let acc = per_model.entry(name).or_default();
        acc.samples += s.samples;
        acc.batches += s.batches;
        acc.busy_nanos += s.busy_nanos;
    }
    for (name, s) in per_model {
        l.set(format!("engine.{name}.samples"), s.samples as f64);
        l.set(format!("engine.{name}.batches"), s.batches as f64);
        l.set(
            format!("engine.{name}.us_per_sample"),
            ratio(s.busy_nanos as f64 * 1e-3, s.samples as f64),
        );
    }
    l.set(
        "engine.fcnn.classify_ms_p50",
        median_or_zero(&tracer.durations_ms("engine.classify")),
    );
    Ok(out)
}
