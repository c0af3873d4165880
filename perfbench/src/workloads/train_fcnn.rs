//! `train-fcnn`: the paper's pipeline at `OplixNetBuilder` defaults —
//! spatial-interlace assignment, Merge decoder, mutual learning with
//! α = 1 — run as Assign → Train → Deploy → Evaluate jobs on seeded
//! synthetic digits, each job from an empty deploy cache, until the
//! budget is spent. Jobs cycle through [`TASKS`] datasets and training
//! seeds drawn from the run seed; the reported accuracy is their mean,
//! and every repeat of a task must reproduce its accuracy exactly. The
//! digits are noisy enough that accuracy stays below 1. Jobs and stages
//! are timed in the CPU time of the process, each job's scaled to the
//! nominal CPU speed by calibrations on either side of it (see
//! [`crate::clock`]).

use super::{ratio, setup, Outcome, Run};
use crate::clock;
use crate::stats::median_or_zero;
use oplix_datasets::synth::{digits, SynthConfig};
use oplix_nn::tensor::Tensor;
use oplixnet::engine::argmax;
use oplixnet::experiments::TrainSetup;
use oplixnet::pipeline::OplixNetBuilder;
use oplixnet::stage::{DatasetPair, Evaluation, Pipeline};
use oplixnet::{clear_deploy_cache, Error};
use std::time::Instant;

const TRAIN: usize = 600;
const TEST: usize = 300;
const NOISE: f32 = 0.5;
/// Distinct (dataset, training seed) tasks the jobs cycle through; each
/// runs at least once.
const TASKS: usize = 8;
/// `OplixNetBuilder`'s default training set-up, spelled out so the
/// throughput can count epochs.
const SETUP: TrainSetup = TrainSetup {
    epochs: 8,
    batch: 32,
    lr: 0.05,
    momentum: 0.9,
    weight_decay: 1e-4,
};

/// Stage timings of one job, in CPU seconds.
struct Job {
    assign: f64,
    train: f64,
    deploy: f64,
    evaluate: f64,
}

fn timed<T>(
    tracer: &crate::trace::Tracer,
    parent: u32,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let (out, used) = clock::cpu(|| tracer.time(parent, name, f));
    (out, used.as_secs_f64())
}

/// One job, each public `Stage::run` called in turn; returns the
/// evaluation, the assigned test inputs and the stage timings.
fn job(
    pipeline: &Pipeline,
    data: DatasetPair,
    tracer: &crate::trace::Tracer,
    root: u32,
) -> Result<(Evaluation, oplix_nn::ctensor::CTensor, Job), Error> {
    let (assigned, assign) = timed(tracer, root, "stage.assign", || pipeline.assign.run(data));
    let assigned = assigned?;
    let test = assigned.test.inputs.clone();
    let (trained, train) = timed(tracer, root, "stage.train", || pipeline.train.run(assigned));
    let (deployed, deploy) = timed(tracer, root, "stage.deploy", || {
        pipeline.deploy.run(trained?)
    });
    let (eval, evaluate) = timed(tracer, root, "stage.evaluate", || {
        pipeline.evaluate.run(deployed?)
    });
    Ok((
        eval?,
        test,
        Job {
            assign,
            train,
            deploy,
            evaluate,
        },
    ))
}

/// Share of test rows where the deployed engine picks the software
/// network's class.
fn hardware_agreement(
    eval: &mut Evaluation,
    test: &oplix_nn::ctensor::CTensor,
) -> Result<f64, Error> {
    let logits: Tensor = eval.network.forward(test, false);
    let classes = logits.shape()[1];
    let software: Vec<usize> = logits
        .as_slice()
        .chunks(classes)
        .map(|row| argmax(&row.iter().map(|&v| v as f64).collect::<Vec<_>>()))
        .collect();
    let hardware = eval.engine.classify(test)?;
    let agree = software
        .iter()
        .zip(&hardware)
        .filter(|(s, h)| s == h)
        .count();
    Ok(ratio(agree as f64, software.len() as f64))
}

pub fn run(run: Run<'_>) -> Result<Outcome, String> {
    let tracer = run.tracer;
    let (tasks, setup_s) = setup(tracer, |_| {
        Ok((0..TASKS as u64)
            .map(|t| {
                let seed = run.seed.wrapping_mul(TASKS as u64).wrapping_add(t);
                let train = SynthConfig {
                    samples: TRAIN,
                    noise: NOISE,
                    seed: seed.wrapping_mul(2).wrapping_add(11),
                    ..Default::default()
                };
                let test = SynthConfig {
                    samples: TEST,
                    seed: train.seed + 1,
                    ..train
                };
                let pipeline = OplixNetBuilder::new()
                    .train_setup(SETUP)
                    .seed(seed)
                    .stages();
                (DatasetPair::new(digits(&train), digits(&test)), pipeline)
            })
            .collect::<Vec<_>>())
    })?;
    let mut out = Outcome::default();
    out.e2e.set("setup_s", setup_s);

    let (mut jobs, mut job_ms) = (Vec::new(), Vec::new());
    // Each job's CPU time is scaled by the speed measured just before and
    // just after it.
    let (mut train_s, mut before) = (0.0, clock::calibrate());
    let mut accuracy: Vec<Option<f64>> = vec![None; TASKS];
    let mut agreement: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut unstable) = (0usize, 0u64, 0u64);
    let begin = Instant::now();
    while attempted < TASKS || begin.elapsed() < run.budget(1.0) {
        let task = attempted % TASKS;
        let (data, pipeline) = &tasks[task];
        attempted += 1;
        clear_deploy_cache();
        let root = tracer.open();
        let start = Instant::now();
        let result = job(pipeline, data.clone(), tracer, root);
        let end = Instant::now();
        tracer.close(root, 0, "harness.job", start, end, 0);
        let after = clock::calibrate();
        let speed = (before + after) / 2.0;
        before = after;
        let Ok((mut eval, test, timing)) = result else {
            failed += 1;
            continue;
        };
        let job_s = timing.assign + timing.train + timing.deploy + timing.evaluate;
        job_ms.push(job_s * 1e3 * speed);
        train_s += timing.train * speed;
        jobs.push(timing);
        match accuracy[task] {
            Some(a) if a != eval.hardware_accuracy => unstable += 1,
            Some(_) => {}
            None => {
                accuracy[task] = Some(eval.hardware_accuracy);
                agreement.push(hardware_agreement(&mut eval, &test).map_err(|e| e.to_string())?);
            }
        }
    }

    out.e2e.set(
        "throughput_sps",
        ratio((TRAIN * SETUP.epochs * jobs.len()) as f64, train_s),
    );
    out.e2e.set("latency_p50_ms", median_or_zero(&job_ms));
    let accuracies: Vec<f64> = accuracy.iter().flatten().copied().collect();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    if unstable > 0 {
        out.problem(format!("{unstable} repeated jobs changed their accuracy"));
    }
    if accuracies.len() < TASKS || accuracies.iter().any(|a| !(0.2..1.0).contains(a)) {
        out.problem(format!(
            "task accuracies {accuracies:?} outside the expected (0.2, 1) band"
        ));
    }
    let agreement = mean(&agreement);
    if agreement < 0.95 {
        out.problem(format!(
            "deployed hardware agrees with software on only {agreement} of the test sets"
        ));
    }
    out.e2e.set("accuracy", mean(&accuracies));
    out.e2e.set("golden_agreement", agreement);
    out.attempted = attempted as u64;
    out.failed = failed;
    out.e2e.set(
        "success_frac",
        1.0 - ratio(failed as f64, out.attempted as f64),
    );

    let l = &mut out.layers;
    for (name, pick) in [
        ("stage.assign_ms", (|j: &Job| j.assign) as fn(&Job) -> f64),
        ("stage.train_ms", |j| j.train),
        ("stage.deploy_ms", |j| j.deploy),
        ("stage.evaluate_ms", |j| j.evaluate),
    ] {
        let ms: Vec<f64> = jobs.iter().map(|j| pick(j) * 1e3).collect();
        l.set(name, median_or_zero(&ms));
    }
    Ok(out)
}
