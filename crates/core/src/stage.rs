//! Composable, trait-driven pipeline stages.
//!
//! The paper's Fig. 2 workflow decomposes into four typed stages:
//!
//! ```text
//! DatasetPair ──AssignStage──▶ AssignedData ──TrainStage──▶ TrainedModel
//!      ──DeployStage──▶ DeployedModel ──EvaluateStage──▶ Evaluation
//! ```
//!
//! Each stage is a [`Stage`] implementation with typed input and output
//! artifacts, so new workloads — conv bodies, the OFFT baseline, alternate
//! decoders — plug in by swapping one boxed stage instead of editing a
//! monolithic driver. [`Pipeline`] holds the four stages as trait objects
//! and runs them end to end; [`StageExt::then`] chains any two compatible
//! stages into a new one for bespoke flows.
//!
//! Errors are typed ([`Error`]) end to end: bad dataset geometry, an
//! undeployable body, or a query/mesh shape mismatch surface as values,
//! not panics.

use crate::deploy::DeployedDetection;
use crate::engine::{Confidence, InferenceEngine};
use crate::error::Error;
use crate::serve::{Prediction, Server};
use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::RealDataset;
use oplix_nn::mutual::{mutual_fit, MutualConfig};
use oplix_nn::network::Network;
use oplix_nn::optim::Sgd;
use oplix_nn::trainer::{fit_with, CDataset, EpochStats};
use oplix_photonics::svd_map::MeshStyle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::TrainSetup;

/// One typed pipeline stage: consumes its input artifact, produces the
/// next one, or fails with a typed [`Error`].
///
/// Implement it to slot custom behaviour into a [`Pipeline`] — any type
/// with the right input/output artifacts works, including closures
/// wrapped in a unit struct:
///
/// ```
/// use oplixnet::stage::{Stage, StageExt};
/// use oplixnet::error::Error;
///
/// /// Doubles its input; any `Input -> Output` pair is a valid stage.
/// struct Doubler;
///
/// impl Stage for Doubler {
///     type Input = u32;
///     type Output = u32;
///     fn name(&self) -> &'static str { "doubler" }
///     fn run(&self, x: u32) -> Result<u32, Error> { Ok(2 * x) }
/// }
///
/// // `then` chains compatible stages into one.
/// let quadrupler = Doubler.then(Doubler);
/// assert_eq!(quadrupler.run(3).unwrap(), 12);
/// ```
pub trait Stage {
    /// The artifact this stage consumes.
    type Input;
    /// The artifact this stage produces.
    type Output;

    /// Stable stage name, used in error reporting and logs.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    fn run(&self, input: Self::Input) -> Result<Self::Output, Error>;
}

/// Chains two stages into one (see [`StageExt::then`]).
pub struct Chain<A, B> {
    first: A,
    second: B,
}

impl<A, B> Stage for Chain<A, B>
where
    A: Stage,
    B: Stage<Input = A::Output>,
{
    type Input = A::Input;
    type Output = B::Output;

    fn name(&self) -> &'static str {
        self.second.name()
    }

    fn run(&self, input: A::Input) -> Result<B::Output, Error> {
        self.second.run(self.first.run(input)?)
    }
}

/// Combinators available on every stage.
pub trait StageExt: Stage + Sized {
    /// Feeds this stage's output into `next`, producing a single composed
    /// stage.
    fn then<B: Stage<Input = Self::Output>>(self, next: B) -> Chain<Self, B> {
        Chain {
            first: self,
            second: next,
        }
    }
}

impl<S: Stage> StageExt for S {}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// The raw input to a pipeline: matching train/test datasets.
#[derive(Clone, Debug)]
pub struct DatasetPair {
    /// Training split.
    pub train: RealDataset,
    /// Held-out test split.
    pub test: RealDataset,
}

impl DatasetPair {
    /// Bundles the two splits.
    pub fn new(train: RealDataset, test: RealDataset) -> Self {
        DatasetPair { train, test }
    }
}

/// How assigned samples are laid out for the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataLayout {
    /// Each sample flattened to a vector (FCNN workloads).
    Flat,
    /// Image layout `[C, H, W]` preserved (conv workloads).
    Image,
}

/// Output of [`AssignStage`]: complex dataset views plus the geometry
/// model factories need.
#[derive(Clone, Debug)]
pub struct AssignedData {
    /// Complex training view under the configured assignment.
    pub train: CDataset,
    /// Complex test view under the configured assignment.
    pub test: CDataset,
    /// Conventional (amplitude-only) training view for a mutual-learning
    /// teacher; present iff the stage was configured with `teacher_view`.
    pub teacher_train: Option<CDataset>,
    /// Number of classes.
    pub classes: usize,
    /// Original image shape `(C, H, W)` before assignment.
    pub raw_shape: (usize, usize, usize),
    /// Image shape `(C, H, W)` after assignment.
    pub assigned_shape: (usize, usize, usize),
}

impl AssignedData {
    /// Flattened feature count of one assigned sample.
    pub fn assigned_features(&self) -> usize {
        let (c, h, w) = self.assigned_shape;
        c * h * w
    }

    /// Flattened feature count of one raw (conventional-view) sample.
    pub fn raw_features(&self) -> usize {
        let (c, h, w) = self.raw_shape;
        c * h * w
    }
}

/// Output of [`TrainStage`]: the trained network and its test accuracy,
/// with the data views threaded through for the downstream stages.
#[derive(Debug)]
pub struct TrainedModel {
    /// The trained student network (software form).
    pub network: Network,
    /// Final test accuracy reported by the trainer.
    pub accuracy: f64,
    /// The assigned data views (ownership flows down the pipeline).
    pub data: AssignedData,
}

/// Output of [`DeployStage`]: the software network plus a serving engine
/// over its photonic deployment.
#[derive(Debug)]
pub struct DeployedModel {
    /// The trained network (kept for software-side comparisons).
    pub network: Network,
    /// Batched inference engine over the deployed meshes.
    pub engine: InferenceEngine,
    /// Software test accuracy carried over from training.
    pub software_accuracy: f64,
    /// The assigned data views.
    pub data: AssignedData,
}

/// Output of [`EvaluateStage`]: software and hardware test accuracy plus
/// the reusable engine.
#[derive(Debug)]
pub struct Evaluation {
    /// The trained network.
    pub network: Network,
    /// The serving engine (reusable for further queries).
    pub engine: InferenceEngine,
    /// Software test accuracy.
    pub software_accuracy: f64,
    /// Deployed (field-level) hardware test accuracy. When the evaluate
    /// stage carried a [`Confidence`] policy this is the *selective*
    /// accuracy over the accepted samples.
    pub hardware_accuracy: f64,
    /// Test samples the confidence policy abstained on (0 without a
    /// policy).
    pub hardware_abstained: usize,
}

impl Evaluation {
    /// Agreement between software and hardware accuracy.
    pub fn hardware_gap(&self) -> f64 {
        (self.software_accuracy - self.hardware_accuracy).abs()
    }
}

// ---------------------------------------------------------------------------
// Assign
// ---------------------------------------------------------------------------

/// Applies a real-to-complex assignment to both dataset splits.
#[derive(Clone, Copy, Debug)]
pub struct AssignStage {
    /// The assignment scheme.
    pub assignment: AssignmentKind,
    /// Sample layout handed to the trainer.
    pub layout: DataLayout,
    /// Also produce the conventional training view for a mutual-learning
    /// teacher.
    pub teacher_view: bool,
}

impl AssignStage {
    /// Flat (FCNN) assignment without a teacher view.
    pub fn flat(assignment: AssignmentKind) -> Self {
        AssignStage {
            assignment,
            layout: DataLayout::Flat,
            teacher_view: false,
        }
    }

    /// Image-layout (conv) assignment without a teacher view.
    pub fn image(assignment: AssignmentKind) -> Self {
        AssignStage {
            assignment,
            layout: DataLayout::Image,
            teacher_view: false,
        }
    }

    /// Enables the conventional teacher view.
    pub fn with_teacher_view(mut self) -> Self {
        self.teacher_view = true;
        self
    }

    fn apply(&self, kind: AssignmentKind, data: &RealDataset) -> Result<CDataset, Error> {
        Ok(match self.layout {
            DataLayout::Flat => kind.try_apply_dataset_flat(data)?,
            DataLayout::Image => kind.try_apply_dataset(data)?,
        })
    }
}

impl Stage for AssignStage {
    type Input = DatasetPair;
    type Output = AssignedData;

    fn name(&self) -> &'static str {
        "assign"
    }

    fn run(&self, input: DatasetPair) -> Result<AssignedData, Error> {
        if input.train.is_empty() || input.test.is_empty() {
            return Err(Error::EmptyInput { stage: self.name() });
        }
        let raw_shape = input.train.image_shape();
        let (c, h, w) = raw_shape;
        let assigned_shape = self.assignment.try_output_shape(c, h, w)?;
        let train = self.apply(self.assignment, &input.train)?;
        let test = self.apply(self.assignment, &input.test)?;
        let teacher_train = if self.teacher_view {
            Some(self.apply(AssignmentKind::Conventional, &input.train)?)
        } else {
            None
        };
        Ok(AssignedData {
            train,
            test,
            teacher_train,
            classes: input.train.num_classes,
            raw_shape,
            assigned_shape,
        })
    }
}

// ---------------------------------------------------------------------------
// Train
// ---------------------------------------------------------------------------

/// Builds a network for the data geometry a pipeline produced. Implemented
/// for plain closures, so workloads plug in without a named type:
///
/// ```ignore
/// let factory = |data: &AssignedData, rng: &mut StdRng| {
///     Ok(build_fcnn(&FcnnConfig { input: data.assigned_features(), .. }, variant, rng))
/// };
/// ```
pub trait ModelFactory {
    /// Builds the (untrained) network.
    fn build(&self, data: &AssignedData, rng: &mut StdRng) -> Result<Network, Error>;
}

impl<F> ModelFactory for F
where
    F: Fn(&AssignedData, &mut StdRng) -> Result<Network, Error>,
{
    fn build(&self, data: &AssignedData, rng: &mut StdRng) -> Result<Network, Error> {
        self(data, rng)
    }
}

/// Mutual-learning configuration of a [`TrainStage`]: a factory for the
/// CVNN teacher plus the distillation settings.
pub struct MutualLearning {
    /// Builds the teacher network (trained on the conventional view).
    pub teacher: Box<dyn ModelFactory>,
    /// Distillation mixing factor α.
    pub alpha: f32,
    /// Softmax temperature of the KL terms.
    pub temperature: f32,
}

/// Trains a student network — alone or in SCVNN–CVNN mutual learning —
/// with the shared hyper-parameters.
pub struct TrainStage {
    /// Builds the student network.
    pub student: Box<dyn ModelFactory>,
    /// Optional mutual learning (teacher + distillation settings).
    pub mutual: Option<MutualLearning>,
    /// Shared training hyper-parameters.
    pub setup: TrainSetup,
    /// Seed for weight init and batch shuffling.
    pub seed: u64,
    /// Per-epoch progress logging to stderr.
    pub verbose: bool,
}

impl TrainStage {
    /// A plain (no mutual learning) training stage.
    pub fn new(student: Box<dyn ModelFactory>, setup: TrainSetup, seed: u64) -> Self {
        TrainStage {
            student,
            mutual: None,
            setup,
            seed,
            verbose: false,
        }
    }

    /// Adds a mutual-learning teacher.
    pub fn with_mutual(mut self, mutual: MutualLearning) -> Self {
        self.mutual = Some(mutual);
        self
    }

    fn clipped_sgd(&self) -> Sgd {
        let mut opt =
            Sgd::with_momentum(self.setup.lr, self.setup.momentum, self.setup.weight_decay);
        opt.clip = Some(1.0);
        opt
    }

    /// Trains the student (and, under mutual learning, the teacher) on
    /// `data`; returns both networks and the student's test accuracy.
    pub(crate) fn fit(
        &self,
        data: &AssignedData,
    ) -> Result<(Network, Option<Network>, f64), Error> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut student = self.student.build(data, &mut rng)?;

        // The trainer's return value *is* the reported accuracy — no
        // recompute pass.
        let (teacher, accuracy) = match &self.mutual {
            Some(ml) => {
                let teacher_train = data.teacher_train.as_ref().ok_or(Error::Stage {
                    stage: "train",
                    message: "mutual learning needs the assign stage's teacher view \
                              (AssignStage::with_teacher_view)"
                        .to_string(),
                })?;
                let mut teacher = ml.teacher.build(data, &mut rng)?;
                let cfg = MutualConfig {
                    alpha: ml.alpha,
                    temperature: ml.temperature,
                    batch_size: self.setup.batch,
                };
                let mut opt_s = self.clipped_sgd();
                let mut opt_t = self.clipped_sgd();
                let accuracy = mutual_fit(
                    &mut student,
                    &mut teacher,
                    &data.train,
                    teacher_train,
                    &data.test,
                    self.setup.epochs,
                    &cfg,
                    &mut opt_s,
                    &mut opt_t,
                    &mut rng,
                );
                (Some(teacher), accuracy)
            }
            None => {
                let mut opt = self.clipped_sgd();
                let verbose = self.verbose;
                let accuracy = fit_with(
                    &mut student,
                    &data.train,
                    &data.test,
                    self.setup.epochs,
                    self.setup.batch,
                    &mut opt,
                    &mut rng,
                    |stats: &EpochStats| {
                        if verbose {
                            eprintln!(
                                "epoch {:>3}/{}: loss {:.4} (lr {:.4})",
                                stats.epoch + 1,
                                stats.epochs,
                                stats.mean_loss,
                                stats.lr
                            );
                        }
                    },
                );
                (None, accuracy)
            }
        };
        Ok((student, teacher, accuracy))
    }
}

impl Stage for TrainStage {
    type Input = AssignedData;
    type Output = TrainedModel;

    fn name(&self) -> &'static str {
        "train"
    }

    fn run(&self, data: AssignedData) -> Result<TrainedModel, Error> {
        let (network, _teacher, accuracy) = self.fit(&data)?;
        Ok(TrainedModel {
            network,
            accuracy,
            data,
        })
    }
}

// ---------------------------------------------------------------------------
// Deploy
// ---------------------------------------------------------------------------

/// Maps the trained network onto MZI meshes and wraps it in an
/// [`InferenceEngine`]. FCNN and CNN bodies alike: dense layers map
/// through SVD onto meshes, conv layers lower through the im2col view
/// (the assigned `(C, H, W)` image shape is threaded through from
/// [`AssignedData`] automatically — see
/// [`DeployedFcnn::from_network_shaped`](crate::deploy::DeployedFcnn::from_network_shaped)).
#[derive(Clone, Copy, Debug)]
pub struct DeployStage {
    /// Output detection scheme (derive it from the trained decoder via
    /// [`DecoderKind::detection`](oplix_photonics::decoder::DecoderKind::detection)
    /// or [`crate::zoo::ModelVariant::detection`]).
    pub detection: DeployedDetection,
    /// Mesh decomposition layout.
    pub mesh_style: MeshStyle,
    /// Worker count of the produced engine: batched queries (including
    /// the downstream [`EvaluateStage`] windows) shard across this many
    /// worker slots. `1` is sequential; `0` resolves to the shared
    /// [`crate::pool::jobs`] budget.
    pub num_workers: usize,
}

impl DeployStage {
    /// A deploy stage with the given detection, the default Clements
    /// layout, and a sequential (one-worker) engine.
    pub fn new(detection: DeployedDetection) -> Self {
        DeployStage {
            detection,
            mesh_style: MeshStyle::Clements,
            num_workers: 1,
        }
    }

    /// Overrides the mesh layout.
    pub fn mesh_style(mut self, style: MeshStyle) -> Self {
        self.mesh_style = style;
        self
    }

    /// Shards the produced engine's batched queries across `n` workers
    /// (see [`InferenceEngine::with_num_workers`]; `0` = shared pool
    /// budget).
    pub fn with_num_workers(mut self, n: usize) -> Self {
        self.num_workers = n;
        self
    }
}

impl Stage for DeployStage {
    type Input = TrainedModel;
    type Output = DeployedModel;

    fn name(&self) -> &'static str {
        "deploy"
    }

    fn run(&self, input: TrainedModel) -> Result<DeployedModel, Error> {
        // The assigned image shape rides along so CNN bodies can lower
        // their conv/pool layers (both need the image geometry);
        // FCNN bodies ignore it.
        let engine = InferenceEngine::from_network_shaped(
            &input.network,
            Some(input.data.assigned_shape),
            self.detection,
            self.mesh_style,
        )?
        .with_num_workers(self.num_workers);
        Ok(DeployedModel {
            network: input.network,
            engine,
            software_accuracy: input.accuracy,
            data: input.data,
        })
    }
}

// ---------------------------------------------------------------------------
// Evaluate
// ---------------------------------------------------------------------------

/// Verifies the deployed hardware against the held-out test view —
/// flat `[N, D]` or image `[N, C, H, W]` (CNN workloads) — by
/// *streaming* it through the engine's batched path in bounded windows
/// ([`InferenceEngine::accuracy_streaming`]), so evaluation memory is
/// proportional to the window, not the test set — the serving posture for
/// production-sized datasets. Each window shards across the engine's
/// worker slots when the upstream [`DeployStage::with_num_workers`]
/// configured more than one (the default engine is sequential).
///
/// Engine failures are re-surfaced with the offending window: a poisoned
/// test sample reports its absolute index *and* which evaluation window it
/// fell in, and a geometry mismatch names the expected/actual widths,
/// instead of the bare error variant.
///
/// Two optional serving-posture knobs ride on top:
///
/// * `confidence` — an early-exit [`Confidence`] policy: low-confidence
///   test samples are counted as abstentions
///   ([`Evaluation::hardware_abstained`]) and `hardware_accuracy` becomes
///   the selective accuracy over the accepted samples;
/// * `concurrent_clients` — when > 1, evaluation exercises the
///   [`crate::serve`] front end instead of the in-process streaming path:
///   the engine moves behind a [`Server`], that many client threads
///   submit their share of the test set through the bounded queue, and
///   the micro-batcher re-forms batches. Results are bitwise identical to
///   the streaming path (the serving-layer contract), so this mode is an
///   end-to-end exercise of the queue → batcher → shards dataflow.
#[derive(Clone, Copy, Debug)]
pub struct EvaluateStage {
    /// Upper bound on test samples in flight per evaluation window (also
    /// the serve-mode `max_batch`).
    pub batch_size: usize,
    /// Client threads to evaluate through the serving front end with
    /// (0 or 1 = the in-process streaming path).
    pub concurrent_clients: usize,
    /// Optional early-exit confidence policy.
    pub confidence: Option<Confidence>,
}

impl Default for EvaluateStage {
    /// A 256-sample window: big enough to amortise engine dispatch (and,
    /// when the upstream [`DeployStage::with_num_workers`] configured a
    /// sharded engine, to split across its workers), small enough to keep
    /// evaluation memory flat. In-process streaming, no confidence policy.
    fn default() -> Self {
        EvaluateStage {
            batch_size: 256,
            concurrent_clients: 1,
            confidence: None,
        }
    }
}

impl EvaluateStage {
    /// An evaluate stage with a custom window size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn with_batch_size(batch_size: usize) -> Self {
        assert!(batch_size > 0, "evaluation window must be positive");
        EvaluateStage {
            batch_size,
            ..Default::default()
        }
    }

    /// Evaluates through the [`crate::serve`] front end with `n` client
    /// threads (values ≤ 1 keep the in-process streaming path).
    pub fn with_concurrent_clients(mut self, n: usize) -> Self {
        self.concurrent_clients = n;
        self
    }

    /// Installs an early-exit confidence policy.
    pub fn with_confidence(mut self, confidence: Confidence) -> Self {
        self.confidence = Some(confidence);
        self
    }

    /// The serve-mode evaluation: move the engine behind a [`Server`],
    /// fan the test view out over `clients` submitting threads, and fold
    /// the tickets back into (correct, abstained) counts.
    fn run_concurrent(
        &self,
        engine: InferenceEngine,
        data: &AssignedData,
        clients: usize,
    ) -> Result<(InferenceEngine, usize, usize), Error> {
        let n = data.test.inputs.shape()[0];
        let mut builder = Server::builder()
            .max_batch(self.batch_size)
            .max_wait(std::time::Duration::from_micros(500))
            .queue_cap((2 * self.batch_size).max(clients));
        if let Some(c) = self.confidence {
            builder = builder.confidence(c);
        }
        let server = builder.serve_engine(engine);
        let spans: Vec<(usize, usize)> = {
            let per = n.div_ceil(clients);
            (0..clients)
                .map(|c| (c * per, ((c + 1) * per).min(n)))
                .filter(|(lo, hi)| lo < hi)
                .collect()
        };
        let outcomes: Vec<Result<(usize, usize), Error>> = std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .iter()
                .map(|&(lo, hi)| {
                    let client = server.client();
                    let test = &data.test;
                    scope.spawn(move || {
                        let tickets: Vec<crate::serve::Ticket> = (lo..hi)
                            .map(|i| client.submit(crate::serve::sample_row(&test.inputs, i)))
                            .collect::<Result<_, Error>>()?;
                        let mut correct = 0usize;
                        let mut abstained = 0usize;
                        for (ticket, label) in tickets.into_iter().zip(&test.labels[lo..hi]) {
                            match ticket.wait()? {
                                Prediction::Class(c) if c == *label => correct += 1,
                                Prediction::Class(_) => {}
                                Prediction::Abstain { .. } => abstained += 1,
                            }
                        }
                        Ok((correct, abstained))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation client thread panicked"))
                .collect()
        });
        let engine = server.shutdown();
        let mut correct = 0usize;
        let mut abstained = 0usize;
        for outcome in outcomes {
            let (c, a) = outcome?;
            correct += c;
            abstained += a;
        }
        Ok((engine, correct, abstained))
    }
}

impl Stage for EvaluateStage {
    type Input = DeployedModel;
    type Output = Evaluation;

    fn name(&self) -> &'static str {
        "evaluate"
    }

    fn run(&self, input: DeployedModel) -> Result<Evaluation, Error> {
        // The field is public (struct-literal construction is allowed), so
        // a zero window must stay a typed error, not reach the engine's
        // assert.
        if self.batch_size == 0 {
            return Err(Error::Stage {
                stage: "evaluate",
                message: "evaluation window (batch_size) must be positive".to_string(),
            });
        }
        let DeployedModel {
            network,
            mut engine,
            software_accuracy,
            data,
        } = input;
        let contextualise = |e: Error| match e {
            Error::NonFiniteLogits { sample } => Error::Stage {
                stage: "evaluate",
                message: format!(
                    "test sample {sample} (evaluation window {} at batch size {}) \
                     produced non-finite logits on the deployed hardware",
                    sample / self.batch_size,
                    self.batch_size
                ),
            },
            Error::EmptyInput { .. } => Error::Stage {
                stage: "evaluate",
                message: "test view has no samples to evaluate".to_string(),
            },
            Error::ShapeMismatch { .. } => Error::Stage {
                stage: "evaluate",
                message: format!("test view rejected by the deployed mesh: {e}"),
            },
            other => other,
        };
        let (engine, hardware_accuracy, hardware_abstained) = if self.concurrent_clients > 1 {
            if data.test.inputs.shape().len() < 2 || data.test.inputs.shape()[0] == 0 {
                return Err(Error::Stage {
                    stage: "evaluate",
                    message: "test view has no samples to evaluate".to_string(),
                });
            }
            // The serve path's per-request fallback reports sample
            // indices relative to the request's own one-sample batch, so
            // the streaming path's window arithmetic would point at the
            // wrong row — describe the serving context instead.
            let serve_context = |e: Error| match e {
                Error::NonFiniteLogits { .. } => Error::Stage {
                    stage: "evaluate",
                    message: format!(
                        "a test sample produced non-finite logits on the deployed \
                         hardware while evaluating through the serving front end \
                         ({} concurrent clients)",
                        self.concurrent_clients
                    ),
                },
                other => contextualise(other),
            };
            let (engine, correct, abstained) = self
                .run_concurrent(engine, &data, self.concurrent_clients)
                .map_err(serve_context)?;
            let accepted = data.test.inputs.shape()[0] - abstained;
            let accuracy = if accepted == 0 {
                0.0
            } else {
                correct as f64 / accepted as f64
            };
            (engine, accuracy, abstained)
        } else {
            let report = engine
                .accuracy_streaming_with(&data.test, self.batch_size, self.confidence)
                .map_err(contextualise)?;
            (engine, report.accuracy(), report.abstained)
        };
        Ok(Evaluation {
            network,
            engine,
            software_accuracy,
            hardware_accuracy,
            hardware_abstained,
        })
    }
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

/// The four stages of the OplixNet workflow as swappable trait objects.
///
/// Any stage can be replaced by a custom implementation with the same
/// artifact types — a conv-body trainer, an OFFT baseline stage, a
/// different verifier — without touching the other three.
///
/// ```
/// use oplixnet::stage::{AssignStage, AssignedData, DatasetPair, DeployStage, Pipeline, TrainStage};
/// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
/// use oplixnet::experiments::TrainSetup;
/// use oplix_datasets::assign::AssignmentKind;
/// use oplix_datasets::synth::{digits, SynthConfig};
/// use oplix_photonics::decoder::DecoderKind;
/// use rand::rngs::StdRng;
///
/// let cfg = SynthConfig { height: 8, width: 8, samples: 60, ..Default::default() };
/// let pair = DatasetPair::new(digits(&cfg), digits(&SynthConfig { seed: 1, ..cfg }));
/// let variant = ModelVariant::Split(DecoderKind::Merge);
/// let pipeline = Pipeline::standard(
///     AssignStage::flat(AssignmentKind::SpatialInterlace),
///     TrainStage::new(
///         Box::new(move |data: &AssignedData, rng: &mut StdRng| {
///             Ok(build_fcnn(
///                 &FcnnConfig { input: data.assigned_features(), hidden: 8, classes: data.classes },
///                 variant,
///                 rng,
///             ))
///         }),
///         TrainSetup { epochs: 2, batch: 20, lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
///         42,
///     ),
///     DeployStage::new(variant.detection()),
/// );
/// let eval = pipeline.run(pair).expect("geometry is valid and FCNNs deploy");
/// assert!(eval.hardware_gap() < 0.2);
/// ```
pub struct Pipeline {
    /// Dataset → complex views.
    pub assign: Box<dyn Stage<Input = DatasetPair, Output = AssignedData>>,
    /// Views → trained network.
    pub train: Box<dyn Stage<Input = AssignedData, Output = TrainedModel>>,
    /// Network → deployed engine.
    pub deploy: Box<dyn Stage<Input = TrainedModel, Output = DeployedModel>>,
    /// Engine → verified evaluation.
    pub evaluate: Box<dyn Stage<Input = DeployedModel, Output = Evaluation>>,
}

impl Pipeline {
    /// Assembles the standard Assign → Train → Deploy → Evaluate flow.
    pub fn standard(assign: AssignStage, train: TrainStage, deploy: DeployStage) -> Self {
        Pipeline {
            assign: Box::new(assign),
            train: Box::new(train),
            deploy: Box::new(deploy),
            evaluate: Box::new(EvaluateStage::default()),
        }
    }

    /// Runs all four stages.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure, typed per stage.
    pub fn run(&self, data: DatasetPair) -> Result<Evaluation, Error> {
        let assigned = self.assign.run(data)?;
        let trained = self.train.run(assigned)?;
        let deployed = self.deploy.run(trained)?;
        self.evaluate.run(deployed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    use oplix_datasets::synth::{digits, SynthConfig};
    use oplix_photonics::decoder::DecoderKind;

    fn quick_pair() -> DatasetPair {
        let cfg = SynthConfig {
            height: 8,
            width: 8,
            samples: 160,
            ..Default::default()
        };
        DatasetPair::new(
            digits(&cfg),
            digits(&SynthConfig {
                samples: 80,
                seed: 1,
                ..cfg
            }),
        )
    }

    fn quick_setup() -> TrainSetup {
        TrainSetup {
            epochs: 6,
            batch: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }

    #[test]
    fn assign_stage_produces_views_and_geometry() {
        let stage = AssignStage::flat(AssignmentKind::SpatialInterlace).with_teacher_view();
        let out = stage.run(quick_pair()).expect("assign");
        assert_eq!(out.assigned_shape, (1, 4, 8));
        assert_eq!(out.assigned_features(), 32);
        assert_eq!(out.raw_features(), 64);
        assert_eq!(out.train.inputs.shape(), &[160, 32]);
        assert!(out.teacher_train.is_some());
    }

    #[test]
    fn assign_stage_reports_geometry_errors() {
        let pair = {
            let cfg = SynthConfig {
                height: 7,
                width: 8,
                samples: 10,
                ..Default::default()
            };
            DatasetPair::new(digits(&cfg), digits(&SynthConfig { seed: 1, ..cfg }))
        };
        let err = AssignStage::flat(AssignmentKind::SpatialInterlace)
            .run(pair)
            .expect_err("odd height must fail");
        assert!(matches!(err, Error::Assign(_)), "{err:?}");
    }

    #[test]
    fn train_stage_requires_teacher_view_for_mutual() {
        let assign = AssignStage::flat(AssignmentKind::SpatialInterlace);
        let data = assign.run(quick_pair()).expect("assign");
        let stage = TrainStage::new(
            Box::new(|d: &AssignedData, rng: &mut StdRng| {
                Ok(build_fcnn(
                    &FcnnConfig {
                        input: d.assigned_features(),
                        hidden: 8,
                        classes: d.classes,
                    },
                    ModelVariant::Split(DecoderKind::Merge),
                    rng,
                ))
            }),
            quick_setup(),
            3,
        )
        .with_mutual(MutualLearning {
            teacher: Box::new(|d: &AssignedData, rng: &mut StdRng| {
                Ok(build_fcnn(
                    &FcnnConfig {
                        input: d.raw_features(),
                        hidden: 16,
                        classes: d.classes,
                    },
                    ModelVariant::ConventionalOnn,
                    rng,
                ))
            }),
            alpha: 1.0,
            temperature: 1.0,
        });
        let err = stage.run(data).expect_err("missing teacher view");
        assert!(
            matches!(err, Error::Stage { stage: "train", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn standard_pipeline_runs_end_to_end() {
        let pipeline = Pipeline::standard(
            AssignStage::flat(AssignmentKind::SpatialInterlace),
            TrainStage::new(
                Box::new(|d: &AssignedData, rng: &mut StdRng| {
                    Ok(build_fcnn(
                        &FcnnConfig {
                            input: d.assigned_features(),
                            hidden: 12,
                            classes: d.classes,
                        },
                        ModelVariant::Split(DecoderKind::Merge),
                        rng,
                    ))
                }),
                quick_setup(),
                5,
            ),
            DeployStage::new(ModelVariant::Split(DecoderKind::Merge).detection()),
        );
        let eval = pipeline.run(quick_pair()).expect("pipeline");
        assert!(
            eval.software_accuracy > 0.15,
            "accuracy {}",
            eval.software_accuracy
        );
        assert!(eval.hardware_gap() < 0.05, "gap {}", eval.hardware_gap());
    }

    #[test]
    fn evaluate_stage_reports_window_of_poisoned_sample() {
        use crate::deploy::DeployedDetection;
        use crate::engine::InferenceEngine;
        use oplix_nn::ctensor::CTensor;
        use oplix_nn::head::MergeHead;
        use oplix_nn::layers::{CDense, CSequential};
        use oplix_nn::tensor::Tensor;
        use oplix_nn::trainer::CDataset;
        use oplix_photonics::svd_map::MeshStyle;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Single-stage deployment: the input feeds detection directly, so
        // a poisoned field reaches the logits (deeper pipelines sanitise
        // at the electro-optic ReLU).
        let mut rng = StdRng::seed_from_u64(77);
        let body = CSequential::new().push(CDense::new(4, 6, &mut rng));
        let net = Network::new(body, Box::new(MergeHead::new()));
        let engine = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys");

        let mut inputs = CTensor::from_re(Tensor::random_uniform(&[8, 4], 1.0, &mut rng));
        inputs.re.as_mut_slice()[5 * 4] = f32::INFINITY; // poison sample 5
        let view = CDataset::new(inputs, vec![0; 8]);
        let data = AssignedData {
            train: view.clone(),
            test: view,
            teacher_train: None,
            classes: 3,
            raw_shape: (1, 2, 4),
            assigned_shape: (1, 1, 4),
        };
        let deployed = DeployedModel {
            network: net,
            engine,
            software_accuracy: 0.5,
            data,
        };
        // Window size 2: sample 5 falls in evaluation window 2.
        let err = EvaluateStage::with_batch_size(2)
            .run(deployed)
            .expect_err("poisoned sample must fail evaluation");
        match err {
            Error::Stage {
                stage: "evaluate",
                message,
            } => {
                assert!(message.contains("sample 5"), "{message}");
                assert!(message.contains("window 2"), "{message}");
            }
            other => panic!("expected contextual stage error, got {other:?}"),
        }
    }

    #[test]
    fn evaluate_stage_rejects_zero_window_as_typed_error() {
        use crate::deploy::DeployedDetection;
        use crate::engine::InferenceEngine;
        use oplix_nn::ctensor::CTensor;
        use oplix_nn::head::MergeHead;
        use oplix_nn::layers::{CDense, CSequential};
        use oplix_nn::tensor::Tensor;
        use oplix_nn::trainer::CDataset;
        use oplix_photonics::svd_map::MeshStyle;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(79);
        let body = CSequential::new().push(CDense::new(4, 6, &mut rng));
        let net = Network::new(body, Box::new(MergeHead::new()));
        let engine = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys");
        let view = CDataset::new(
            CTensor::from_re(Tensor::random_uniform(&[4, 4], 1.0, &mut rng)),
            vec![0; 4],
        );
        let deployed = DeployedModel {
            network: net,
            engine,
            software_accuracy: 0.5,
            data: AssignedData {
                train: view.clone(),
                test: view,
                teacher_train: None,
                classes: 3,
                raw_shape: (1, 2, 4),
                assigned_shape: (1, 1, 4),
            },
        };
        // The field is public, so a zero window is constructible; it must
        // come back as a typed error, not an engine panic.
        let err = EvaluateStage {
            batch_size: 0,
            ..Default::default()
        }
        .run(deployed)
        .expect_err("zero window must be rejected");
        assert!(
            matches!(
                err,
                Error::Stage {
                    stage: "evaluate",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn concurrent_client_evaluation_matches_streaming_evaluation() {
        // Run the Assign → Train → Deploy prefix once, then evaluate the
        // same deployed model through the in-process streaming path and
        // through the serve front end (4 client threads): the serving
        // layer's bitwise contract means identical accuracy.
        let assign = AssignStage::flat(AssignmentKind::SpatialInterlace);
        let train = TrainStage::new(
            Box::new(|d: &AssignedData, rng: &mut StdRng| {
                Ok(build_fcnn(
                    &FcnnConfig {
                        input: d.assigned_features(),
                        hidden: 10,
                        classes: d.classes,
                    },
                    ModelVariant::Split(DecoderKind::Merge),
                    rng,
                ))
            }),
            quick_setup(),
            11,
        );
        let detection = ModelVariant::Split(DecoderKind::Merge).detection();
        let deploy = DeployStage::new(detection);
        let trained = assign
            .then(train)
            .run(quick_pair())
            .expect("assign + train");
        // `Network` is not cloneable: evaluate once through the streaming
        // path, then rebuild a second deployed model from the network the
        // evaluation hands back (same weights, same data views).
        let data = trained.data.clone();
        let deployed_a = deploy.run(trained).expect("deploy");
        let streamed = EvaluateStage::with_batch_size(16)
            .run(deployed_a)
            .expect("streaming evaluation");
        let deployed_b = DeployedModel {
            engine: InferenceEngine::from_network(
                &streamed.network,
                detection,
                oplix_photonics::svd_map::MeshStyle::Clements,
            )
            .expect("redeploys"),
            network: streamed.network,
            software_accuracy: streamed.software_accuracy,
            data,
        };
        let served = EvaluateStage::with_batch_size(16)
            .with_concurrent_clients(4)
            .run(deployed_b)
            .expect("concurrent evaluation");
        assert_eq!(streamed.hardware_accuracy, served.hardware_accuracy);
        assert_eq!(streamed.hardware_abstained, 0);
        assert_eq!(served.hardware_abstained, 0);
    }

    #[test]
    fn then_combinator_chains_stages() {
        let composed = AssignStage::flat(AssignmentKind::SpatialInterlace).then(TrainStage::new(
            Box::new(|d: &AssignedData, rng: &mut StdRng| {
                Ok(build_fcnn(
                    &FcnnConfig {
                        input: d.assigned_features(),
                        hidden: 8,
                        classes: d.classes,
                    },
                    ModelVariant::Split(DecoderKind::Merge),
                    rng,
                ))
            }),
            quick_setup(),
            7,
        ));
        let trained = composed.run(quick_pair()).expect("chained stages");
        assert!(trained.accuracy > 0.1);
    }
}
