//! Batched inference engine over deployed photonic hardware.
//!
//! [`DeployedFcnn`] is the *artifact* of deployment; [`InferenceEngine`]
//! is the *serving* wrapper that makes it reusable across many queries:
//!
//! * **preallocated forward buffers** — after the first call, a query does
//!   not allocate on the field path (see
//!   [`DeployedFcnn::forward_into`](crate::deploy::DeployedFcnn::forward_into));
//! * **batched `predict` / `classify`** over dataset views, checked
//!   against the mesh geometry with typed [`Error`]s instead of panics;
//! * **sharded batches** — [`InferenceEngine::with_num_workers`] splits a
//!   batch across a fixed set of worker slots served by the shared
//!   [`crate::pool`] budget, each worker owning its own preallocated
//!   buffers; results are bitwise identical to the sequential path because
//!   every sample's field walk is independent and row spans are fixed;
//! * **compiled kernel windows** — each worker pushes its row span through
//!   [`DeployedFcnn::forward_window_into`](crate::deploy::DeployedFcnn::forward_window_into)
//!   in bounded windows: one precompiled coefficient kernel per optical
//!   stage covers the whole window (no per-sample trigonometry), bitwise
//!   identical to the per-sample walk;
//! * **streaming evaluation** — [`InferenceEngine::accuracy_streaming`]
//!   walks a labelled view in bounded chunks instead of materialising one
//!   result vector per test set;
//! * **per-batch noise-injection sessions** — [`InferenceEngine::noise_session`]
//!   perturbs every mesh phase for the duration of the session and
//!   restores the programmed phases on drop, so robustness studies share
//!   one engine instead of redeploying per noise level;
//! * **throughput counters** — samples, batches and busy time served,
//!   plus each deployed stage's windows and busy time
//!   ([`InferenceEngine::stage_stats`]), for capacity planning.
//!
//! ```
//! use oplixnet::engine::InferenceEngine;
//! use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
//! use oplixnet::deploy::DeployedDetection;
//! use oplix_photonics::decoder::DecoderKind;
//! use oplix_photonics::svd_map::MeshStyle;
//! use oplix_nn::ctensor::CTensor;
//! use oplix_nn::tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let net = build_fcnn(
//!     &FcnnConfig { input: 6, hidden: 5, classes: 2 },
//!     ModelVariant::Split(DecoderKind::Merge),
//!     &mut rng,
//! );
//! let mut engine = InferenceEngine::from_network(
//!     &net, DeployedDetection::Differential, MeshStyle::Clements,
//! ).expect("FCNN deploys");
//! let batch = CTensor::from_re(Tensor::random_uniform(&[4, 6], 1.0, &mut rng));
//! let classes = engine.classify(&batch).expect("geometry matches");
//! assert_eq!(classes.len(), 4);
//! assert_eq!(engine.stats().samples, 4);
//! ```

use crate::deploy::{
    ChipReport, DeployedDetection, DeployedFcnn, Fidelity, StageOccupancy, WindowBuffers,
};
use crate::error::Error;
use oplix_linalg::lanes::F64x8;
use oplix_linalg::Complex64;
use oplix_nn::ctensor::CTensor;
use oplix_nn::network::Network;
use oplix_nn::trainer::CDataset;
use oplix_photonics::svd_map::MeshStyle;
use oplix_photonics::PhaseDrift;
use rand::Rng;
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

/// Cumulative serving counters of an [`InferenceEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Samples inferred since construction (or the last reset).
    pub samples: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Nanoseconds spent inside field-level inference.
    pub busy_nanos: u64,
}

impl EngineStats {
    /// Mean serving throughput in samples per second of busy time.
    pub fn samples_per_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            0.0
        } else {
            self.samples as f64 / (self.busy_nanos as f64 * 1e-9)
        }
    }

    fn absorb(&mut self, samples: u64, busy: Duration) {
        self.samples += samples;
        self.batches += 1;
        self.busy_nanos += busy.as_nanos() as u64;
    }
}

/// An early-exit confidence policy for the streaming and serving paths:
/// a sample's logits are softmaxed, and its confidence is the top-1
/// probability *renormalised over the `top_k` most probable classes*.
/// Samples whose confidence falls below `threshold` are reported as
/// abstentions instead of predictions.
///
/// With `top_k` equal to the class count the score is the plain maximum
/// softmax probability; `top_k == 2` is the classic two-way margin
/// (`p₁ / (p₁ + p₂)`); `top_k == 1` degenerates to a constant `1.0`, so
/// every sample is accepted at any `threshold ≤ 1`.
///
/// ```
/// use oplixnet::engine::Confidence;
///
/// let policy = Confidence { threshold: 0.9, top_k: 2 };
/// // A decisive sample clears the two-way margin, a close call abstains.
/// assert!(policy.accepts(&[4.0, -1.0, 0.0]));
/// assert!(!policy.accepts(&[1.0, 0.9, -2.0]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Confidence {
    /// Minimum renormalised top-1 probability for a prediction to count.
    pub threshold: f64,
    /// How many of the most probable classes the top-1 mass is
    /// renormalised over (clamped to `1..=classes`).
    pub top_k: usize,
}

impl Confidence {
    /// The predicted class and its confidence score for one logit row.
    ///
    /// Allocation-free: scoring runs inside the engine's per-sample emit
    /// path, which stays allocation-free after warm-up.
    pub fn score(&self, logits: &[f64]) -> (usize, f64) {
        let best = argmax(logits);
        if logits.is_empty() {
            return (0, 1.0);
        }
        // Stabilised softmax: exp(l − max). The best class scores
        // exp(0) = 1, so the renormalised top-1 mass is 1 / Σ top-k.
        let peak = logits[best];
        let k = self.top_k.clamp(1, logits.len());
        let mass: f64 = if k == logits.len() {
            logits.iter().map(|l| (l - peak).exp()).sum()
        } else {
            // Top-k selection without a sort or a scratch buffer: walk
            // the distinct logit values in descending order (O(k·classes),
            // and classes is small), taking ties together.
            let mut mass = 0.0;
            let mut remaining = k;
            let mut bound = f64::INFINITY;
            while remaining > 0 {
                let mut next = f64::NEG_INFINITY;
                let mut ties = 0usize;
                for &l in logits {
                    if l < bound {
                        if l > next {
                            next = l;
                            ties = 1;
                        } else if l == next {
                            ties += 1;
                        }
                    }
                }
                if ties == 0 {
                    break; // non-finite stragglers; the clamp covers the rest
                }
                let take = ties.min(remaining);
                mass += take as f64 * (next - peak).exp();
                remaining -= take;
                bound = next;
            }
            mass
        };
        (best, 1.0 / mass)
    }

    /// Whether a logit row clears the confidence threshold.
    pub fn accepts(&self, logits: &[f64]) -> bool {
        self.score(logits).1 >= self.threshold
    }
}

/// Calibrated counts of one streaming evaluation pass (see
/// [`InferenceEngine::accuracy_streaming_with`]): how many samples were
/// evaluated, how many the confidence policy accepted or abstained on,
/// and how many accepted predictions were correct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingReport {
    /// Samples evaluated.
    pub samples: usize,
    /// Samples whose prediction cleared the confidence policy (all of
    /// them when no policy is configured).
    pub accepted: usize,
    /// Samples reported as abstentions by the confidence policy.
    pub abstained: usize,
    /// Correct predictions among the accepted samples.
    pub correct: usize,
}

impl StreamingReport {
    /// Selective accuracy: correct predictions over accepted samples
    /// (`0.0` when everything abstained).
    pub fn accuracy(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.correct as f64 / self.accepted as f64
        }
    }

    /// Fraction of samples the policy accepted.
    pub fn coverage(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.accepted as f64 / self.samples as f64
        }
    }
}

/// One worker's private serving state: the window buffers every query
/// path (single-sample `predict` included) pushes staged sample windows
/// through. Workers never share these, so the sharded batch path stays
/// allocation-free per sample after warm-up — the same property the
/// sequential path has.
#[derive(Clone, Debug, Default)]
struct WorkerSlot {
    window: WindowBuffers,
    window_logits: Vec<f64>,
}

/// Where a batched query's rows come from: a `[N, D]` tensor view (the
/// dataset paths) or a contiguous row-major complex slice (the serving
/// front end's borrowed batch). Both stage into the identical windowed
/// compiled-kernel walk, so the two sources are bitwise interchangeable.
#[derive(Clone, Copy)]
enum RowSource<'a> {
    /// A `[N, D]` complex dataset view.
    View(&'a CTensor),
    /// `rows.len() / width` samples stored row-major.
    Rows {
        /// The flat row-major fields.
        rows: &'a [Complex64],
        /// Complex fan-in of one sample.
        width: usize,
    },
}

/// How many rows one compiled-kernel window covers: big enough to
/// amortise the per-stage batch dispatch, small enough that a worker's
/// window buffers stay a few tens of kilobytes.
const SERVE_WINDOW: usize = 64;

impl WorkerSlot {
    /// Runs rows `start..end` of a view through the deployed hardware in
    /// compiled-kernel windows ([`DeployedFcnn::forward_window_into`]),
    /// emitting one `T` per row. Each window applies one compiled kernel
    /// per optical stage across all its samples instead of re-walking the
    /// stage list per sample; per-sample results are bitwise identical to
    /// the sequential walk. Row indices in errors are absolute, and the
    /// lowest offending row wins — the sequential walk's first-error
    /// semantics.
    fn run_rows<T>(
        &mut self,
        deployed: &DeployedFcnn,
        src: RowSource<'_>,
        start: usize,
        end: usize,
        emit: &(impl Fn(&[f64]) -> T + Sync),
    ) -> Result<Vec<T>, Error> {
        let k = deployed.logit_dim().max(1);
        let mut out = Vec::with_capacity(end.saturating_sub(start));
        let mut lo = start;
        while lo < end {
            let hi = (lo + SERVE_WINDOW).min(end);
            match src {
                RowSource::View(inputs) => deployed.forward_window_into(
                    inputs,
                    lo,
                    hi,
                    &mut self.window,
                    &mut self.window_logits,
                )?,
                RowSource::Rows { rows, width } => deployed.forward_rows_into(
                    &rows[lo * width..hi * width],
                    &mut self.window,
                    &mut self.window_logits,
                )?,
            }
            for (r, row) in self.window_logits.chunks_exact(k).enumerate() {
                check_finite(row, lo + r)?;
                out.push(emit(row));
            }
            lo = hi;
        }
        Ok(out)
    }
}

/// A reusable, batched query engine over one deployed network.
#[derive(Clone, Debug)]
pub struct InferenceEngine {
    deployed: DeployedFcnn,
    workers: Vec<WorkerSlot>,
    stats: EngineStats,
}

/// One deployed stage's combined multi-chip serving report: the static
/// physical budget of the chip ([`ChipReport`] — mesh depth, worst-path
/// insertion loss, time-of-flight latency) plus its cumulative
/// occupancy ([`StageOccupancy`] — windows processed, busy time).
/// Surfaced per engine by [`InferenceEngine::stage_stats`] and flowed
/// into [`crate::serve::ServerStats`] / `router::ModelStats` snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageStats {
    /// Static per-chip physics under the silicon platform defaults.
    pub chip: ChipReport,
    /// Cumulative per-stage timers of the staged walk.
    pub occupancy: StageOccupancy,
}

/// The engine's unit of work: one lane chunk of the widest dispatch tier
/// ([`F64x8`]), the rows the Transfer sweep runs at full width. A batch is
/// sharded only when every shard gets at least one whole chunk, and shard
/// boundaries fall on chunk multiples. A shorter shard runs its rows on
/// narrower lanes and still pays a pool launch: a 13-row FCNN batch cost
/// 4.8 µs of CPU per sample on one worker against 13.5 µs split 7 + 6
/// over two.
const MIN_ROWS_PER_WORKER: usize = F64x8::LANES;

/// How `n` rows split across at most `workers` shards: `(rows per shard,
/// shards)`. Each shard but the last covers a multiple of
/// [`MIN_ROWS_PER_WORKER`] rows, and no shard is empty.
fn shard_plan(n: usize, workers: usize) -> (usize, usize) {
    let shards = workers.min(n / MIN_ROWS_PER_WORKER).max(1);
    let rows_per_shard = n
        .div_ceil(shards)
        .next_multiple_of(MIN_ROWS_PER_WORKER)
        .max(1);
    (rows_per_shard, n.div_ceil(rows_per_shard))
}

impl InferenceEngine {
    /// Wraps an already-deployed network. The engine starts sequential
    /// (one worker); see [`InferenceEngine::with_num_workers`].
    pub fn new(deployed: DeployedFcnn) -> Self {
        InferenceEngine {
            deployed,
            workers: vec![WorkerSlot::default()],
            stats: EngineStats::default(),
        }
    }

    /// Shards batched queries across a fixed pool of `n` workers, each
    /// with its own preallocated forward buffers. `n = 0` resolves to the
    /// shared [`crate::pool::jobs`] budget — the `--jobs` knob. Threads
    /// are drawn from the process-wide pool ([`crate::pool::run_scoped`]),
    /// so an engine sharding inside an already-parallel grid arm degrades
    /// to inline execution instead of oversubscribing. Sharded output is
    /// bitwise identical to the sequential path at any budget: row spans
    /// are fixed per worker slot, samples are independent, and each runs
    /// the exact same field walk.
    ///
    /// ```
    /// use oplixnet::engine::InferenceEngine;
    /// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    /// use oplixnet::deploy::DeployedDetection;
    /// use oplix_photonics::decoder::DecoderKind;
    /// use oplix_photonics::svd_map::MeshStyle;
    /// use oplix_nn::ctensor::CTensor;
    /// use oplix_nn::tensor::Tensor;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let net = build_fcnn(
    ///     &FcnnConfig { input: 6, hidden: 5, classes: 2 },
    ///     ModelVariant::Split(DecoderKind::Merge),
    ///     &mut rng,
    /// );
    /// let make = || InferenceEngine::from_network(
    ///     &net, DeployedDetection::Differential, MeshStyle::Clements,
    /// ).expect("FCNN deploys");
    /// let batch = CTensor::from_re(Tensor::random_uniform(&[64, 6], 1.0, &mut rng));
    ///
    /// let sequential = make().classify(&batch).expect("classify");
    /// let sharded = make().with_num_workers(3).classify(&batch).expect("classify");
    /// assert_eq!(sequential, sharded); // bitwise identical, any worker count
    /// ```
    pub fn with_num_workers(mut self, n: usize) -> Self {
        self.set_num_workers(n);
        self
    }

    /// In-place form of [`InferenceEngine::with_num_workers`]. Retired
    /// workers' stage timers fold into worker 0, so
    /// [`InferenceEngine::stage_stats`] stays cumulative.
    pub fn set_num_workers(&mut self, n: usize) {
        let n = if n == 0 { crate::pool::jobs() } else { n }.max(1);
        if n < self.workers.len() {
            for retired in self.workers.split_off(n) {
                self.workers[0]
                    .window
                    .absorb_stage_occupancy(&retired.window);
            }
        }
        self.workers.resize_with(n, WorkerSlot::default);
    }

    /// How many workers batched queries shard across.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Serves every optical stage through `fidelity`'s kernel:
    /// [`Fidelity::Transfer`] (the default) applies each stage's
    /// implemented transfer matrix, [`Fidelity::Golden`] walks the meshes
    /// MZI by MZI. Within one tier every entry point stays bitwise
    /// interchangeable; across tiers logits agree up to rounding.
    ///
    /// ```
    /// use oplixnet::engine::InferenceEngine;
    /// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    /// use oplixnet::deploy::{DeployedDetection, Fidelity};
    /// use oplix_photonics::decoder::DecoderKind;
    /// use oplix_photonics::svd_map::MeshStyle;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let net = build_fcnn(
    ///     &FcnnConfig { input: 6, hidden: 5, classes: 2 },
    ///     ModelVariant::Split(DecoderKind::Merge),
    ///     &mut rng,
    /// );
    /// let make = || InferenceEngine::from_network(
    ///     &net, DeployedDetection::Differential, MeshStyle::Clements,
    /// ).expect("FCNN deploys");
    /// let x = [oplix_linalg::Complex64::new(0.5, -0.25); 6];
    ///
    /// let fast = make().predict(&x).expect("predict");
    /// let golden = make().with_fidelity(Fidelity::Golden).predict(&x).expect("predict");
    /// for (f, g) in fast.iter().zip(&golden) {
    ///     assert!((f - g).abs() <= 1e-9 * g.abs().max(1.0));
    /// }
    /// ```
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.set_fidelity(fidelity);
        self
    }

    /// In-place form of [`InferenceEngine::with_fidelity`].
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.deployed.set_fidelity(fidelity);
    }

    /// The kernel tier the engine serves through.
    pub fn fidelity(&self) -> Fidelity {
        self.deployed.fidelity()
    }

    /// The per-chip serving report, one entry per deployed stage in stage
    /// order: static insertion-loss/latency budgets (from
    /// [`oplix_photonics::loss_model`] under silicon defaults) combined
    /// with the windows and busy time each stage has spent in this
    /// engine's staged walks, summed over its workers. On a sharded
    /// engine the busy time is summed across concurrent workers, so it
    /// can exceed [`EngineStats::busy_nanos`].
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let mut occupancy = vec![StageOccupancy::default(); self.deployed.num_stages()];
        for slot in &self.workers {
            for (acc, occ) in occupancy.iter_mut().zip(slot.window.stage_occupancy()) {
                acc.absorb(*occ);
            }
        }
        self.deployed
            .chip_reports()
            .into_iter()
            .zip(occupancy)
            .map(|(chip, occupancy)| StageStats { chip, occupancy })
            .collect()
    }

    /// Deploys a trained network and wraps it in one step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Deploy`] if the network body cannot be mapped onto
    /// an FCNN photonic pipeline.
    pub fn from_network(
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<Self, Error> {
        Ok(InferenceEngine::new(DeployedFcnn::from_network(
            net, detection, style,
        )?))
    }

    /// Deploys a trained network with an explicit `(C, H, W)` body input
    /// shape and wraps it in one step — the entry point for CNN bodies,
    /// whose conv/pool layers need the image geometry to lower (see
    /// [`DeployedFcnn::from_network_shaped`]). The
    /// [`crate::stage::DeployStage`] passes the assigned shape through
    /// here automatically.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Deploy`] if the network body cannot be lowered
    /// onto a photonic pipeline.
    pub fn from_network_shaped(
        net: &Network,
        input_shape: Option<(usize, usize, usize)>,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<Self, Error> {
        Ok(InferenceEngine::new(DeployedFcnn::from_network_shaped(
            net,
            input_shape,
            detection,
            style,
        )?))
    }

    /// The deployed hardware the engine serves.
    pub fn deployed(&self) -> &DeployedFcnn {
        &self.deployed
    }

    /// Unwraps the engine back into its deployed network.
    pub fn into_deployed(self) -> DeployedFcnn {
        self.deployed
    }

    /// The complex fan-in a query sample must have.
    pub fn input_dim(&self) -> usize {
        self.deployed.input_dim()
    }

    /// Serving counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Zeroes the serving counters, per-stage timers included.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
        for slot in &mut self.workers {
            slot.window.clear_stage_occupancy();
        }
    }

    /// Detected logits of one already-assigned sample.
    ///
    /// Routed through the same compiled windowed kernel
    /// ([`DeployedFcnn::forward_rows_into`], a one-sample window) as the
    /// batched paths, so per-sample and batched serving share one kernel
    /// and stay bitwise interchangeable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on a fan-in mismatch and
    /// [`Error::NonFiniteLogits`] if the sample poisons detection.
    pub fn predict(&mut self, input: &[Complex64]) -> Result<Vec<f64>, Error> {
        if input.len() != self.input_dim() {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim(),
                got: input.len(),
                what: "input fields",
            });
        }
        let start = Instant::now();
        let slot = &mut self.workers[0];
        self.deployed
            .forward_rows_into(input, &mut slot.window, &mut slot.window_logits)?;
        check_finite(&slot.window_logits, 0)?;
        self.stats.absorb(1, start.elapsed());
        Ok(slot.window_logits.clone())
    }

    /// Detected logits of every sample in a `[N, D]` complex batch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the view is not rank 2 or `D`
    /// differs from the mesh fan-in, [`Error::EmptyInput`] on an empty
    /// batch, and [`Error::NonFiniteLogits`] if a sample poisons
    /// detection.
    pub fn predict_batch(&mut self, inputs: &CTensor) -> Result<Vec<Vec<f64>>, Error> {
        self.run_batch(inputs, |logits| logits.to_vec())
    }

    /// Predicted class indices of every sample in a `[N, D]` complex batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::predict_batch`].
    pub fn classify(&mut self, inputs: &CTensor) -> Result<Vec<usize>, Error> {
        self.run_batch(inputs, argmax)
    }

    /// Predicted class indices of `rows.len() / input_dim` samples given
    /// as one contiguous row-major complex slice — the borrowed-batch
    /// query the serving front end's micro-batcher drives
    /// ([`crate::serve`]): staged client samples are served in place, with
    /// no intermediate tensor copy. Bitwise identical to
    /// [`InferenceEngine::classify`] on the same samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `rows.len()` is not a multiple
    /// of [`InferenceEngine::input_dim`], [`Error::EmptyInput`] on an
    /// empty slice, and [`Error::NonFiniteLogits`] if a sample poisons
    /// detection.
    pub fn classify_rows(&mut self, rows: &[Complex64]) -> Result<Vec<usize>, Error> {
        self.serve_rows(rows, &argmax)
    }

    /// The generic borrowed-batch walk behind [`InferenceEngine::classify_rows`]
    /// and the serving front end: every sample's detected logits are folded
    /// through `emit` (class pick, confidence policy, …).
    pub(crate) fn serve_rows<T: Send>(
        &mut self,
        rows: &[Complex64],
        emit: &(impl Fn(&[f64]) -> T + Sync),
    ) -> Result<Vec<T>, Error> {
        let width = self.input_dim();
        if width == 0 || !rows.len().is_multiple_of(width) {
            return Err(Error::ShapeMismatch {
                expected: width,
                got: rows.len(),
                what: "row fields",
            });
        }
        if rows.is_empty() {
            return Err(Error::EmptyInput { stage: "engine" });
        }
        let n = rows.len() / width;
        self.run_rows(RowSource::Rows { rows, width }, 0, n, emit)
    }

    /// Predicted class indices of rows `start..start + len` of a `[N, D]`
    /// complex batch — the bounded-window query the streaming evaluation
    /// path is built on. Sample indices in errors are absolute row
    /// indices, not window-relative.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::predict_batch`], plus
    /// [`Error::ShapeMismatch`] if the window overruns the view.
    pub fn classify_range(
        &mut self,
        inputs: &CTensor,
        start: usize,
        len: usize,
    ) -> Result<Vec<usize>, Error> {
        let (n, _) = self.check_batch(inputs)?;
        let end = start.checked_add(len).filter(|&e| e <= n).ok_or({
            // Saturate the reported end so a wrap-around stays a typed
            // error instead of a panic or a silent empty result.
            Error::ShapeMismatch {
                expected: n,
                got: start.saturating_add(len),
                what: "batch window end",
            }
        })?;
        if len == 0 {
            return Err(Error::EmptyInput { stage: "engine" });
        }
        self.run_rows(RowSource::View(inputs), start, end, &argmax)
    }

    /// Classification accuracy of the deployed hardware on a labelled
    /// dataset view.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::predict_batch`].
    pub fn accuracy(&mut self, data: &CDataset) -> Result<f64, Error> {
        let preds = self.classify(&data.inputs)?;
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        Ok(correct as f64 / data.labels.len() as f64)
    }

    /// Classification accuracy over a labelled view, streamed through the
    /// engine in windows of at most `batch_size` samples instead of
    /// materialising one prediction vector for the whole set. Each window
    /// still shards across the worker pool; only a running correct-count
    /// survives between windows, so memory is bounded by the window, not
    /// the dataset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::predict_batch`]; sample
    /// indices in errors are absolute dataset rows.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn accuracy_streaming(&mut self, data: &CDataset, batch_size: usize) -> Result<f64, Error> {
        let report = self.accuracy_streaming_with(data, batch_size, None)?;
        Ok(report.correct as f64 / report.samples as f64)
    }

    /// Streaming evaluation with an optional early-exit [`Confidence`]
    /// policy: every sample is classified through the windowed engine
    /// path, but samples whose confidence score falls below the policy's
    /// threshold are counted as *abstentions* instead of predictions. The
    /// returned [`StreamingReport`] carries the calibrated counts —
    /// accepted, abstained, and correct-among-accepted — so callers can
    /// trade coverage against selective accuracy. With `confidence =
    /// None` every sample is accepted and
    /// [`StreamingReport::accuracy`] equals
    /// [`InferenceEngine::accuracy_streaming`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::predict_batch`]; sample
    /// indices in errors are absolute dataset rows.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn accuracy_streaming_with(
        &mut self,
        data: &CDataset,
        batch_size: usize,
        confidence: Option<Confidence>,
    ) -> Result<StreamingReport, Error> {
        assert!(batch_size > 0, "streaming batch size must be positive");
        let (n, _) = self.check_batch(&data.inputs)?;
        let mut report = StreamingReport::default();
        let emit = |logits: &[f64]| match confidence {
            None => (argmax(logits), true),
            Some(c) => {
                let (best, score) = c.score(logits);
                (best, score >= c.threshold)
            }
        };
        let mut start = 0;
        while start < n {
            let len = batch_size.min(n - start);
            let preds = self.run_rows(RowSource::View(&data.inputs), start, start + len, &emit)?;
            for ((pred, accepted), label) in preds.iter().zip(&data.labels[start..start + len]) {
                report.samples += 1;
                if *accepted {
                    report.accepted += 1;
                    if pred == label {
                        report.correct += 1;
                    }
                } else {
                    report.abstained += 1;
                }
            }
            start += len;
        }
        Ok(report)
    }

    /// Opens a noise-injection session: every mesh phase is perturbed with
    /// Gaussian noise of standard deviation `sigma` radians, queries run
    /// against the noisy hardware through the session handle, and the
    /// programmed phases are restored when the session drops.
    pub fn noise_session<R: Rng>(&mut self, sigma: f64, rng: &mut R) -> NoiseSession<'_> {
        let clean = self.deployed.stages_vec().clone();
        if sigma > 0.0 {
            self.deployed.inject_phase_noise(sigma, rng);
        }
        NoiseSession {
            engine: self,
            clean,
        }
    }

    /// Applies one accumulating phase-drift step to the deployed hardware
    /// and recompiles the affected kernels. The counterpart to
    /// [`InferenceEngine::noise_session`] for *slow* error: each call
    /// moves every mesh phase one Gaussian random-walk increment further
    /// from its calibrated point, with no restore — recalibration is a
    /// fresh deployment hot-swapped in (see `serve::Server::swap`).
    pub fn drift_step(&mut self, drift: &mut PhaseDrift) {
        self.deployed.drift_step(drift);
    }

    /// Opens a drift session: the clean phases are remembered, the walk in
    /// `drift` is stepped on demand via [`DriftSession::step`], and the
    /// calibrated phases are restored when the session drops — the scoped
    /// study variant of [`InferenceEngine::drift_step`].
    pub fn drift_session(&mut self, drift: PhaseDrift) -> DriftSession<'_> {
        let clean = self.deployed.stages_vec().clone();
        DriftSession {
            engine: self,
            clean,
            drift,
        }
    }

    /// The one batch walk every query method shares: validate, then run
    /// every row through [`WorkerSlot::run_rows`] — on the calling thread
    /// when one worker (or a batch under two lane chunks), sharded into
    /// contiguous row spans across the worker pool otherwise.
    fn run_batch<T: Send>(
        &mut self,
        inputs: &CTensor,
        emit: impl Fn(&[f64]) -> T + Sync,
    ) -> Result<Vec<T>, Error> {
        let (n, _) = self.check_batch(inputs)?;
        self.run_rows(RowSource::View(inputs), 0, n, &emit)
    }

    /// Runs rows `start..end` (absolute indices into the source), sharding
    /// across the worker pool when every shard gets at least one whole lane
    /// chunk ([`shard_plan`]). Error reporting matches the sequential walk:
    /// the error of the lowest offending row wins.
    fn run_rows<T: Send>(
        &mut self,
        src: RowSource<'_>,
        start: usize,
        end: usize,
        emit: &(impl Fn(&[f64]) -> T + Sync),
    ) -> Result<Vec<T>, Error> {
        let n = end - start;
        let clock = Instant::now();
        let (rows_per_shard, shards) = shard_plan(n, self.workers.len());
        let out = if shards <= 1 {
            self.workers[0].run_rows(&self.deployed, src, start, end, emit)
        } else {
            let deployed = &self.deployed;
            // Row spans are fixed per shard regardless of how many
            // threads the shared pool actually grants, so the output is
            // bitwise identical at any budget (including an exhausted one,
            // where the tasks run inline).
            let tasks: Vec<Box<dyn FnOnce() -> Result<Vec<T>, Error> + Send + '_>> = self
                .workers
                .iter_mut()
                .take(shards)
                .enumerate()
                .map(|(w, slot)| {
                    let lo = start + w * rows_per_shard;
                    let hi = (lo + rows_per_shard).min(end);
                    Box::new(move || slot.run_rows(deployed, src, lo, hi, emit))
                        as Box<dyn FnOnce() -> Result<Vec<T>, Error> + Send + '_>
                })
                .collect();
            let chunks: Vec<Result<Vec<T>, Error>> = crate::pool::run_scoped(tasks);
            // Shards cover increasing row spans, so scanning them in order
            // reproduces the sequential walk's first-error semantics.
            let mut out = Vec::with_capacity(n);
            let mut failure = None;
            for chunk in chunks {
                match chunk {
                    Ok(part) => out.extend(part),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(out),
            }
        }?;
        self.stats.absorb(n as u64, clock.elapsed());
        Ok(out)
    }

    fn check_batch(&self, inputs: &CTensor) -> Result<(usize, usize), Error> {
        // `[N, D]` flat views and `[N, C, H, W]` image views (CNN
        // workloads) alike: samples are contiguous row-major, so the
        // trailing axes flatten into one sample width.
        if inputs.shape().len() < 2 {
            return Err(Error::ShapeMismatch {
                expected: 2,
                got: inputs.shape().len(),
                what: "batch rank",
            });
        }
        let n = inputs.shape()[0];
        let d: usize = inputs.shape()[1..].iter().product();
        if n == 0 {
            return Err(Error::EmptyInput { stage: "engine" });
        }
        if d != self.input_dim() {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim(),
                got: d,
                what: "sample width",
            });
        }
        Ok((n, d))
    }
}

/// Serving contract: poisoned queries are values, not panics.
fn check_finite(logits: &[f64], sample: usize) -> Result<(), Error> {
    if logits.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(Error::NonFiniteLogits { sample })
    }
}

/// The class-pick rule every classify path applies: index of the largest
/// logit under `f64::total_cmp`, first index winning ties (and `0` for an
/// empty row). Public because the tie-breaking is load-bearing for the
/// serving layer's bitwise-identical-across-entry-points contract —
/// clients turning [`InferenceEngine::predict`] logits into classes
/// should use this exact rule, not a lookalike.
pub fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// A scoped view of an [`InferenceEngine`] with phase noise injected; the
/// clean phases come back when the session drops. Dereferences to the
/// engine, so every query method is available on the session.
pub struct NoiseSession<'a> {
    engine: &'a mut InferenceEngine,
    clean: Vec<crate::deploy::DeployedStage>,
}

impl Deref for NoiseSession<'_> {
    type Target = InferenceEngine;

    fn deref(&self) -> &InferenceEngine {
        self.engine
    }
}

impl DerefMut for NoiseSession<'_> {
    fn deref_mut(&mut self) -> &mut InferenceEngine {
        self.engine
    }
}

impl Drop for NoiseSession<'_> {
    fn drop(&mut self) {
        *self.engine.deployed.stages_vec_mut() = std::mem::take(&mut self.clean);
    }
}

/// A scoped view of an [`InferenceEngine`] under accumulating phase drift:
/// each [`DriftSession::step`] walks every mesh phase one increment
/// further, queries through the session see the drifted hardware, and the
/// calibrated phases come back when the session drops. Dereferences to the
/// engine, so every query method is available on the session.
pub struct DriftSession<'a> {
    engine: &'a mut InferenceEngine,
    clean: Vec<crate::deploy::DeployedStage>,
    drift: PhaseDrift,
}

impl DriftSession<'_> {
    /// Advances the drift walk by one step on every deployed mesh.
    pub fn step(&mut self) {
        self.engine.deployed.drift_step(&mut self.drift);
    }

    /// The drift process driving this session.
    pub fn drift(&self) -> &PhaseDrift {
        &self.drift
    }
}

impl Deref for DriftSession<'_> {
    type Target = InferenceEngine;

    fn deref(&self) -> &InferenceEngine {
        self.engine
    }
}

impl DerefMut for DriftSession<'_> {
    fn deref_mut(&mut self) -> &mut InferenceEngine {
        self.engine
    }
}

impl Drop for DriftSession<'_> {
    fn drop(&mut self) {
        *self.engine.deployed.stages_vec_mut() = std::mem::take(&mut self.clean);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    use oplix_nn::tensor::Tensor;
    use oplix_photonics::decoder::DecoderKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 6→5→3 Merge FCNN deployed on Clements meshes: the small engine
    /// the engine, serve and lane unit tests share.
    pub(crate) fn engine(seed: u64) -> InferenceEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = build_fcnn(
            &FcnnConfig {
                input: 6,
                hidden: 5,
                classes: 3,
            },
            ModelVariant::Split(DecoderKind::Merge),
            &mut rng,
        );
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("FCNN deploys")
    }

    fn batch(n: usize, d: usize, seed: u64) -> CTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        CTensor::new(
            Tensor::random_uniform(&[n, d], 1.0, &mut rng),
            Tensor::random_uniform(&[n, d], 1.0, &mut rng),
        )
    }

    #[test]
    fn batched_predictions_match_per_sample_forward() {
        let mut engine = engine(1);
        let x = batch(5, 6, 2);
        let batched = engine.predict_batch(&x).expect("predict");
        for (i, logits) in batched.iter().enumerate() {
            let sample: Vec<Complex64> = (0..6)
                .map(|j| Complex64::new(x.re.at2(i, j) as f64, x.im.at2(i, j) as f64))
                .collect();
            let single = engine.deployed().forward(&sample);
            assert_eq!(logits.len(), single.len());
            for (a, b) in logits.iter().zip(&single) {
                assert!((a - b).abs() < 1e-12, "sample {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn shape_errors_are_typed_not_panics() {
        let mut engine = engine(3);
        let wrong = batch(4, 5, 4);
        match engine.classify(&wrong) {
            Err(Error::ShapeMismatch {
                expected: 6,
                got: 5,
                ..
            }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        let empty = CTensor::zeros(&[0, 6]);
        assert!(matches!(
            engine.classify(&empty),
            Err(Error::EmptyInput { .. })
        ));
    }

    #[test]
    fn stats_count_samples_and_batches() {
        let mut engine = engine(5);
        let x = batch(7, 6, 6);
        engine.classify(&x).expect("classify");
        engine.predict_batch(&x).expect("predict");
        let stats = engine.stats();
        assert_eq!(stats.samples, 14);
        assert_eq!(stats.batches, 2);
        assert!(stats.busy_nanos > 0);
        assert!(stats.samples_per_sec() > 0.0);
        engine.reset_stats();
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn every_walk_times_every_stage() {
        use crate::zoo::{build_lenet, LenetConfig};
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = LenetConfig::training_scale(2, 8, 10).halved();
        let net = build_lenet(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let lenet = InferenceEngine::from_network_shaped(
            &net,
            Some((cfg.in_ch, cfg.input_h, cfg.input_w)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("LeNet deploys");
        let stages = lenet.deployed().num_stages();
        assert_eq!(stages, 7, "conv-pool-conv-pool-fc-fc-fc");
        let mut rng = StdRng::seed_from_u64(32);
        let x = CTensor::new(
            Tensor::random_uniform(&[150, cfg.in_ch, 8, 8], 1.0, &mut rng),
            Tensor::random_uniform(&[150, cfg.in_ch, 8, 8], 1.0, &mut rng),
        );

        // One worker walks 64 + 64 + 22 rows; seven workers get fixed
        // spans of ⌈150 / 7⌉ = 22 rows rounded up to a lane chunk multiple,
        // 24 (the last 6), one window each.
        for (workers, windows) in [(1usize, 3u64), (7, 7)] {
            let mut engine = lenet.clone().with_num_workers(workers);
            engine.classify(&x).expect("classify");
            let stats = engine.stage_stats();
            assert_eq!(stats.len(), stages);
            for s in &stats {
                assert_eq!(s.occupancy.windows, windows, "{workers} workers, {s:?}");
                assert!(s.occupancy.busy_nanos > 0, "{workers} workers, {s:?}");
            }
            if workers == 1 {
                // The stage clocks run inside the engine's batch clock.
                let staged: u64 = stats.iter().map(|s| s.occupancy.busy_nanos).sum();
                assert!(staged <= engine.stats().busy_nanos);
            } else {
                // Shrinking the pool folds retired workers' timers in.
                engine.set_num_workers(1);
                assert_eq!(engine.stage_stats(), stats);
            }
            engine.reset_stats();
            assert!(engine
                .stage_stats()
                .iter()
                .all(|s| s.occupancy == StageOccupancy::default()));
        }
    }

    #[test]
    fn shards_are_whole_lane_chunks() {
        // No shard below one chunk, boundaries on chunk multiples, no
        // empty shard, never more shards than workers.
        assert_eq!(shard_plan(13, 2), (16, 1));
        assert_eq!(shard_plan(15, 7), (16, 1));
        assert_eq!(shard_plan(16, 2), (8, 2));
        assert_eq!(shard_plan(41, 2), (24, 2));
        assert_eq!(shard_plan(41, 7), (16, 3));
        assert_eq!(shard_plan(150, 7), (24, 7));
        assert_eq!(shard_plan(0, 4), (1, 0));
        for n in 1..=200 {
            for workers in 1..=9 {
                let (rows, shards) = shard_plan(n, workers);
                assert!(
                    (1..=workers).contains(&shards),
                    "{n} rows, {workers} workers"
                );
                assert!((shards - 1) * rows < n && shards * rows >= n);
                if shards > 1 {
                    assert_eq!(rows % MIN_ROWS_PER_WORKER, 0, "{n} rows, {workers} workers");
                }
            }
        }
    }

    #[test]
    fn small_batches_serve_as_one_window_per_stage() {
        // The served FCNN shape: a 13-row batch on two workers stays one
        // window per stage on the calling thread; a 41-row batch splits at
        // 24 rows on two workers and at 16 and 32 on seven, one window per
        // shard.
        let mut rng = StdRng::seed_from_u64(41);
        let net = build_fcnn(
            &FcnnConfig {
                input: 64,
                hidden: 32,
                classes: 10,
            },
            ModelVariant::Split(DecoderKind::Merge),
            &mut rng,
        );
        let engine = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("FCNN deploys");
        for (rows, workers, windows) in [(13usize, 2usize, 1u64), (41, 2, 2), (41, 7, 3)] {
            let mut engine = engine.clone().with_num_workers(workers);
            engine.classify(&batch(rows, 64, 42)).expect("classify");
            for s in engine.stage_stats() {
                assert_eq!(
                    s.occupancy.windows, windows,
                    "{rows} rows, {workers} workers, {s:?}"
                );
            }
        }
    }

    #[test]
    fn non_finite_queries_are_typed_errors_not_panics() {
        use oplix_nn::head::MergeHead;
        use oplix_nn::layers::{CDense, CSequential};

        // Multi-stage pipelines sanitise poisoned fields at the
        // electro-optic ReLU (NaN clamps to zero, ∞ turns NaN at the next
        // mesh), so the reachable non-finite logit path is a single-stage
        // deployment, where the input feeds detection directly.
        let mut rng = StdRng::seed_from_u64(15);
        let body = CSequential::new().push(CDense::new(4, 6, &mut rng));
        let net = Network::new(body, Box::new(MergeHead::new()));
        let mut engine = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys");

        let mut x = batch(3, 4, 16);
        x.re.as_mut_slice()[5] = f32::INFINITY; // poison sample 1
        match engine.classify(&x) {
            Err(Error::NonFiniteLogits { sample: 1 }) => {}
            other => panic!("expected NonFiniteLogits for sample 1, got {other:?}"),
        }
        // The engine keeps serving clean batches afterwards.
        let clean = batch(2, 4, 17);
        assert_eq!(engine.classify(&clean).expect("serves").len(), 2);
    }

    #[test]
    fn noise_session_restores_clean_phases() {
        let mut engine = engine(7);
        let x = batch(3, 6, 8);
        let clean = engine.predict_batch(&x).expect("clean");
        let mut rng = StdRng::seed_from_u64(9);
        let noisy = {
            let mut session = engine.noise_session(0.4, &mut rng);
            session.predict_batch(&x).expect("noisy")
        };
        let diff: f64 = clean
            .iter()
            .flatten()
            .zip(noisy.iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-9, "noise had no effect");
        let restored = engine.predict_batch(&x).expect("restored");
        assert_eq!(clean, restored, "session failed to restore phases");
    }

    #[test]
    fn zero_sigma_session_is_identity() {
        let mut engine = engine(11);
        let x = batch(2, 6, 12);
        let clean = engine.predict_batch(&x).expect("clean");
        let mut rng = StdRng::seed_from_u64(13);
        let inside = {
            let mut session = engine.noise_session(0.0, &mut rng);
            session.predict_batch(&x).expect("session")
        };
        assert_eq!(clean, inside);
    }
}
