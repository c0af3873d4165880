//! `lenet-batch`: offline `InferenceEngine::classify` of a fixed set of
//! LeNet images, with a fixed batch per call. Each batch call is
//! followed by a one-image query; the run seed orders the batches and
//! the queries. Both are timed in the CPU time of the process; the
//! query's is scaled to the nominal CPU speed by calibrations on either
//! side of each block of calls (see [`crate::clock`]). The batch call's
//! is not: its working set is far larger than the reference loop's, and
//! scaling it by the loop's speed over-corrected (the spread of six runs
//! grew from about 6 % to 15 %).
//!
//! The timed engine runs on the calling thread. Sharded over both
//! virtual CPUs, whose speeds the host moves apart and independently,
//! the query's CPU time fell into two modes 25 % apart from run to run,
//! and no calibration on one thread tracked both CPUs. A sharded engine
//! answers every batch once more, untimed, for the sharded ≡ sequential
//! check.
//!
//! The image set is fixed because the mesh arithmetic costs the same on
//! any input, and the (untrained) body's chance-level accuracy on a
//! seeded sample would move with the sample, not with the code.

use super::{ratio, setup, Outcome, Run};
use crate::check::{golden, slice_rows, Tally};
use crate::clock;
use crate::models::{self, Model};
use crate::schedule::stream;
use crate::stats::median_or_zero;
use crate::trace::Tracer;
use oplix_nn::ctensor::CTensor;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::time::Instant;

/// Images per batch call.
const BATCH: usize = 64;
/// Distinct batches the calls cycle through.
const BATCHES: usize = 64;
/// Share of the budget spent on classify calls.
const CALLS: f64 = 0.95;
/// Batch calls (each with its query) between two calibrations.
const CALIBRATE_EVERY: usize = 8;
/// Seed of the fixed image set.
const IMAGES_SEED: u64 = 0x1A6E;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times one `classify` call as a `harness.<root>` span around an
/// `engine.classify` span; returns the CPU time the process used in it,
/// in milliseconds, and its classes.
fn call(
    engine: &mut oplixnet::engine::InferenceEngine,
    batch: &CTensor,
    tracer: &Tracer,
    root_name: &'static str,
) -> (f64, Option<Vec<usize>>) {
    let root = tracer.open();
    let start = Instant::now();
    let (classes, used) =
        clock::cpu(|| tracer.time(root, "engine.classify", || engine.classify(batch)));
    let end = Instant::now();
    tracer.close(root, 0, root_name, start, end, 0);
    (used.as_secs_f64() * 1e3, classes.ok())
}

pub fn run(run: Run<'_>) -> Result<Outcome, String> {
    let tracer = run.tracer;
    let net = models::network(Model::Lenet, 0).map_err(|e| e.to_string())?;
    let ((mut engine, data, batches, singles), setup_s) = setup(tracer, |parent| {
        let data = models::inputs(Model::Lenet, IMAGES_SEED, BATCH * BATCHES)
            .map_err(|e| e.to_string())?;
        let batches: Vec<CTensor> = (0..BATCHES)
            .map(|k| slice_rows(&data.inputs, k * BATCH, BATCH))
            .collect();
        let singles: Vec<CTensor> = (0..BATCH * BATCHES)
            .map(|i| slice_rows(&data.inputs, i, 1))
            .collect();
        let engine = tracer
            .time(parent, "deploy.from_network", || {
                models::deploy(Model::Lenet, &net)
            })
            .map_err(|e| e.to_string())?;
        models::check_stages(Model::Lenet, &engine)?;
        Ok((engine, data, batches, singles))
    })?;
    let mut out = Outcome::default();
    out.e2e.set("setup_s", setup_s);

    let mut failed = 0u64;

    // Batch call, then a one-image query, until the budget is spent. The
    // first answer for each input is kept; repeats must reproduce it.
    let mut first: BTreeMap<usize, usize> = BTreeMap::new();
    let (mut call_ms, mut query_ms) = (Vec::new(), Vec::new());
    let (mut calls, mut unstable) = (0u64, 0u64);
    let mut keep = |row: usize, class: usize| {
        if *first.entry(row).or_insert(class) != class {
            unstable += 1;
        }
    };
    let mut order = stream(run.seed, 4);
    let mut batch_order: Vec<usize> = (0..BATCHES).collect();
    batch_order.shuffle(&mut order);
    let mut query_order: Vec<usize> = (0..singles.len()).collect();
    query_order.shuffle(&mut order);
    let begin = Instant::now();
    let (mut i, mut before) = (0usize, clock::calibrate());
    let (mut block_calls, mut block_queries) = (Vec::new(), Vec::new());
    while begin.elapsed() < run.budget(CALLS) {
        let k = batch_order[i % BATCHES];
        let (ms, classes) = call(&mut engine, &batches[k], tracer, "harness.call");
        block_calls.push(ms);
        match classes {
            Some(c) => c
                .into_iter()
                .enumerate()
                .for_each(|(j, class)| keep(k * BATCH + j, class)),
            None => failed += 1,
        }
        let q = query_order[i % singles.len()];
        let (ms, class) = call(&mut engine, &singles[q], tracer, "harness.query");
        block_queries.push(ms);
        match class.and_then(|c| c.first().copied()) {
            Some(class) => keep(q, class),
            None => failed += 1,
        }
        calls += 2;
        i += 1;
        if i.is_multiple_of(CALIBRATE_EVERY) {
            let after = clock::calibrate();
            let speed = (before + after) / 2.0;
            before = after;
            call_ms.append(&mut block_calls);
            query_ms.extend(block_queries.drain(..).map(|ms| ms * speed));
        }
    }
    out.e2e.set(
        "throughput_sps",
        ratio(BATCH as f64, median_or_zero(&call_ms) * 1e-3),
    );
    out.e2e.set("latency_p50_ms", median_or_zero(&query_ms));
    let stats = engine.stats();

    // Every answer, and a sharded engine's answer to every batch, against
    // a direct classify.
    let mut direct = models::deploy(Model::Lenet, &net).map_err(|e| e.to_string())?;
    let table = golden(&mut direct, &data.inputs, &Tracer::off()).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    for (&row, &class) in &first {
        tally.observe(Some(&table), &data.labels, row, class);
    }
    let mut sharded = models::deploy(Model::Lenet, &net)
        .map_err(|e| e.to_string())?
        .with_num_workers(workers());
    for (k, batch) in batches.iter().enumerate() {
        calls += 1;
        match sharded.classify(batch) {
            Ok(classes) => {
                for (j, class) in classes.into_iter().enumerate() {
                    tally.observe(Some(&table), &data.labels, k * BATCH + j, class);
                }
            }
            Err(_) => failed += 1,
        }
    }
    out.expect_agreement("lenet-batch", tally.agreement());
    if unstable > 0 {
        out.problem(format!("{unstable} repeated answers changed"));
    }
    out.e2e.set("golden_agreement", tally.agreement());
    out.e2e.set("accuracy", tally.accuracy());
    out.attempted = calls;
    out.failed = failed;
    out.e2e.set(
        "success_frac",
        1.0 - ratio(failed as f64, out.attempted as f64),
    );

    let l = &mut out.layers;
    l.set("engine.lenet.classify_ms_p50", median_or_zero(&call_ms));
    l.set(
        "engine.lenet.us_per_sample",
        ratio(stats.busy_nanos as f64 * 1e-3, stats.samples as f64),
    );
    l.set("engine.lenet.batches", stats.batches as f64);
    l.set("engine.lenet.samples", stats.samples as f64);
    Ok(out)
}
