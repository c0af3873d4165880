//! The repository benchmark: one command per workload and seed, over the
//! public APIs of `oplixnet`, `oplix_photonics` and `oplix_linalg`.
//!
//! ```text
//! oplix-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) runs the workload untraced and then traced,
//! each for half the budget, and prints every per-layer metric. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check still
//! prints the line, with `correct: false`, and exits 1. See `README.md`
//! for the catalogue.

pub mod check;
pub mod clock;
pub mod drive;
pub mod models;
pub mod probes;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::{render, Metrics};
use std::path::PathBuf;
use trace::{Tracer, TRACE_DIR};
use workloads::{Outcome, Run, Workload};

/// Parsed command line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every input and schedule.
    pub seed: u64,
    /// Measured time budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// The traced run records one request in this many, which keeps span
/// memory to a few hundred thousand spans at the highest rates.
const TRACE_ONE_IN: u64 = 16;

/// Usage line.
pub const USAGE: &str =
    "usage: oplix-perfbench --workload <fcnn-serve|lenet-batch|router-mixed|train-fcnn> \
                         --seed <n> --seconds <n> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// A message naming the missing or malformed argument.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.unwrap_or(10)),
        trace: trace.unwrap_or(false),
    })
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Verdict {
    /// The JSON result line.
    pub line: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Failed checks and run notes, for standard error.
    pub notes: Vec<String>,
}

/// Runs the invocation `args` describes.
///
/// # Errors
///
/// A set-up or serving failure that left nothing to measure.
pub fn execute(args: &Args) -> Result<Verdict, String> {
    let mut notes = Vec::new();
    let (outcome, metrics, catalogue) = if args.trace {
        let half = args.seconds / 2.0;
        let off = Tracer::off();
        let base = workloads::run(
            args.workload,
            Run {
                seed: args.seed,
                seconds: half,
                tracer: &off,
            },
        )?;
        let tracer = Tracer::on();
        tracer.sample_requests(TRACE_ONE_IN);
        let mut traced = workloads::run(
            args.workload,
            Run {
                seed: args.seed,
                seconds: half,
                tracer: &tracer,
            },
        )?;
        let overhead = match (
            traced.e2e.get("latency_p50_ms"),
            base.e2e.get("latency_p50_ms"),
        ) {
            (Some(t), Some(b)) if b > 0.0 => t / b - 1.0,
            _ => 0.0,
        };
        traced.layers.set("harness.trace_overhead_frac", overhead);
        for (layer, t) in tracer.breakdown() {
            traced
                .layers
                .set(format!("trace.{layer}.self_ms"), t.self_ns as f64 * 1e-6);
            traced.layers.set(format!("trace.{layer}.share"), t.share);
        }
        let path = PathBuf::from(TRACE_DIR).join(format!(
            "{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
        traced
            .problems
            .extend(base.problems.iter().map(|p| format!("untraced half: {p}")));
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        let layers = traced.layers.clone();
        (traced, layers, report::per_layer())
    } else {
        let off = Tracer::off();
        let mut out = workloads::run(
            args.workload,
            Run {
                seed: args.seed,
                seconds: args.seconds,
                tracer: &off,
            },
        )?;
        for (name, _) in report::END_TO_END {
            match out.e2e.get(name) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                other => out.problem(format!(
                    "{name} read {other:?}; every end-to-end metric must be positive"
                )),
            }
        }
        let e2e = out.e2e.clone();
        (out, e2e, report::end_to_end())
    };
    notes.extend(summary(args, &outcome));
    let correct = outcome.problems.is_empty();
    notes.extend(
        outcome
            .problems
            .iter()
            .map(|p| format!("CHECK FAILED: {p}")),
    );
    Ok(Verdict {
        line: render(
            correct,
            outcome.attempted,
            outcome.failed,
            &metrics,
            &catalogue,
        ),
        correct,
        notes,
    })
}

fn summary(args: &Args, out: &Outcome) -> Vec<String> {
    let get = |m: &Metrics, k: &str| m.get(k).unwrap_or(0.0);
    vec![
        format!(
            "{} seed {} ({} s, trace {}): attempted {}, succeeded {}, failed {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            out.attempted,
            out.attempted - out.failed,
            out.failed
        ),
        format!(
            "ungated tail: latency p99 {:.3} ms over {} samples",
            get(&out.layers, "harness.latency_p99_ms"),
            get(&out.layers, "harness.latency_samples")
        ),
    ]
}
