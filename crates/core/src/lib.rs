//! # OplixNet
//!
//! A reproduction of *"OplixNet: Towards Area-Efficient Optical
//! Split-Complex Networks with Real-to-Complex Data Assignment and
//! Knowledge Distillation"* (Qiu et al., DATE 2024), grown into a
//! serving-oriented photonic inference stack.
//!
//! OplixNet compresses MZI-based optical neural networks by ~75 % by
//! encoding two real values into the amplitude *and phase* of one light
//! signal (real-to-complex data assignment), training the resulting
//! split-complex network with a CVNN teacher through mutual learning, and
//! reading the complex outputs with a learnable merging decoder that needs
//! only photodiodes.
//!
//! This crate ties the substrates together:
//!
//! * [`stage`] — the composable pipeline API: typed
//!   `Assign → Train → Deploy → Evaluate` stages behind one [`stage::Stage`]
//!   trait, swappable per workload;
//! * [`engine`] — the batched [`engine::InferenceEngine`] over deployed
//!   meshes: worker-sharded batches, preallocated per-worker forward
//!   buffers, streaming evaluation (with optional early-exit
//!   [`engine::Confidence`] abstention), noise-injection sessions,
//!   throughput counters;
//! * [`serve`] — the concurrent serving front end: a [`serve::Server`]
//!   owns a deployed model behind a bounded request queue, a micro-batcher
//!   thread coalesces concurrent [`serve::Client`] submissions into
//!   engine batches (flush on `max_batch` / `max_wait`), and
//!   [`serve::Ticket`]s resolve to per-request predictions — bitwise
//!   identical to direct `classify` calls. Deployments are versioned:
//!   [`serve::Server::swap`] hot-swaps the model at a micro-batch
//!   boundary with zero downtime, [`serve::Server::canary`] routes a
//!   seeded fraction of traffic to a candidate version with per-version
//!   accept/abstain/accuracy tallies ([`serve::CanaryStats`]) feeding a
//!   [`serve::Server::promote`] / [`serve::Server::rollback`] decision,
//!   and a [`oplix_photonics::PhaseDrift`] model
//!   ([`serve::ServerBuilder::drift`]) wanders the phases between
//!   micro-batches so online recalibration (drift → swap) runs end to
//!   end;
//! * [`router`] — the multi-model tier above [`serve`]: one
//!   [`router::Router`] admits requests for N named, runtime-registered
//!   model deployments (deduplicated through the deploy cache), each
//!   served by its own earliest-deadline-first micro-batching lane with
//!   a fair, queue-depth-weighted share of the worker budget,
//!   per-lane versioned hot swap ([`router::Router::swap_model`]), and
//!   [`router::RouterStats`] reporting per-model depth, p50/p99 waits
//!   and deadline misses;
//! * [`pool`] — the shared bounded worker pool (the `--jobs` /
//!   `OPLIX_JOBS` knob) that every experiment grid and sharded batch
//!   draws its concurrency from;
//! * [`error`] — the workspace-wide typed [`error::Error`]; no public API
//!   path panics on recoverable conditions;
//! * [`pipeline`] — [`pipeline::OplixNetBuilder`], the one-call FCNN
//!   configuration of the standard stage pipeline;
//! * [`spec`] — paper-scale architecture specs and exact MZI counting
//!   (Table II's area columns reproduce digit-for-digit);
//! * [`zoo`] — training-scale FCNN / LeNet-5 / ResNet builders in every
//!   network family (RVNN / conventional ONN / split with any decoder);
//! * [`deploy`] — SVD phase mapping of trained networks (and
//!   decoder-bearing heads) onto the field-level photonic simulator, with
//!   a process-wide decomposition cache so repeated deployments of one
//!   architecture skip the SVD;
//! * [`experiments`] — runners regenerating Table II, Table III and
//!   Figs. 7–9, plus the A1–A3 ablations, all built on the stage API.
//!
//! # Quickstart: the builder
//!
//! ```
//! use oplixnet::pipeline::OplixNetBuilder;
//! use oplixnet::experiments::TrainSetup;
//! use oplix_datasets::synth::{digits, SynthConfig};
//!
//! let train = digits(&SynthConfig { height: 8, width: 8, samples: 100, ..Default::default() });
//! let test = digits(&SynthConfig { height: 8, width: 8, samples: 50, seed: 1, ..Default::default() });
//! let outcome = OplixNetBuilder::new()
//!     .hidden(16)
//!     .mutual_learning(false)
//!     .train_setup(TrainSetup { epochs: 2, batch: 25, lr: 0.05, momentum: 0.9, weight_decay: 1e-4 })
//!     .build(&train, &test)
//!     .run()
//!     .expect("geometry is valid and FCNNs deploy");
//! assert!(outcome.accuracy >= 0.0);
//! assert!(outcome.hardware_gap() < 0.2);
//!
//! // The outcome carries a reusable serving engine over the deployed meshes.
//! let mut engine = outcome.engine;
//! let test_view = oplix_datasets::assign::AssignmentKind::SpatialInterlace
//!     .apply_dataset_flat(&test);
//! let classes = engine.classify(&test_view.inputs).expect("batch matches mesh fan-in");
//! assert_eq!(classes.len(), 50);
//! assert!(engine.stats().samples >= 50);
//! ```
//!
//! # Quickstart: explicit stages
//!
//! Swap any stage without touching the rest — here a custom student
//! factory on the standard flow:
//!
//! ```
//! use oplixnet::stage::{AssignStage, AssignedData, DatasetPair, DeployStage, Pipeline, TrainStage};
//! use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
//! use oplixnet::experiments::TrainSetup;
//! use oplix_datasets::assign::AssignmentKind;
//! use oplix_datasets::synth::{digits, SynthConfig};
//! use oplix_photonics::decoder::DecoderKind;
//! use rand::rngs::StdRng;
//!
//! let cfg = SynthConfig { height: 8, width: 8, samples: 80, ..Default::default() };
//! let pair = DatasetPair::new(digits(&cfg), digits(&SynthConfig { seed: 1, ..cfg }));
//! let variant = ModelVariant::Split(DecoderKind::Merge);
//! let pipeline = Pipeline::standard(
//!     AssignStage::flat(AssignmentKind::SpatialInterlace),
//!     TrainStage::new(
//!         Box::new(move |data: &AssignedData, rng: &mut StdRng| {
//!             Ok(build_fcnn(
//!                 &FcnnConfig { input: data.assigned_features(), hidden: 8, classes: data.classes },
//!                 variant,
//!                 rng,
//!             ))
//!         }),
//!         TrainSetup { epochs: 2, batch: 20, lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
//!         42,
//!     ),
//!     DeployStage::new(variant.detection()),
//! );
//! let eval = pipeline.run(pair).expect("stages run");
//! assert!(eval.hardware_gap() < 0.2);
//! ```

#![warn(missing_docs)]

pub mod deploy;
pub mod engine;
pub mod error;
pub mod experiments;
mod lane;
pub mod pipeline;
pub mod pool;
pub mod router;
pub mod serve;
pub mod spec;
pub mod stage;
pub mod zoo;

pub use deploy::{
    clear_deploy_cache, deploy_cache_stats, ChipReport, DeployCacheStats, DeployedDetection,
    DeployedFcnn, Fidelity, StageOccupancy,
};
pub use engine::{
    Confidence, DriftSession, EngineStats, InferenceEngine, StageStats, StreamingReport,
};
pub use error::Error;
pub use pipeline::{OplixNetBuilder, OplixNetOutcome, OplixNetPipeline, OutcomeSummary};
pub use router::{
    EdfQueue, ModelStats, Priority, Router, RouterBuilder, RouterClient, RouterRequest,
    RouterStats, RouterTicket, Served,
};
pub use serve::{
    CanaryPolicy, CanaryStats, Client, Prediction, Server, ServerBuilder, ServerStats, SwapOutcome,
    SwapTicket, Ticket, VersionTally,
};
pub use spec::ModelSpec;
pub use stage::{
    AssignStage, AssignedData, DatasetPair, DeployStage, EvaluateStage, Evaluation, Pipeline,
    Stage, StageExt, TrainStage,
};
pub use zoo::ModelVariant;
