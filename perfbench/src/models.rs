//! The two served models and their seeded inputs.
//!
//! * `fcnn` — the 64→32→10 split FCNN with the Merge decoder (two optical
//!   stages), fed spatially interlaced 16×8 synthetic digits (64 complex
//!   features).
//! * `lenet` — the channel-halved LeNet-5 body (seven stages: conv, pool,
//!   conv, pool, three dense), fed interlaced 32×16 digits (one 16×16
//!   complex channel).
//!
//! The run seed draws the inputs; the weights are fixed (see
//! [`network`]).

use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::{digits, SynthConfig};
use oplix_nn::network::Network;
use oplix_nn::trainer::CDataset;
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::InferenceEngine;
use oplixnet::experiments::TrainSetup;
use oplixnet::pipeline::OplixNetBuilder;
use oplixnet::zoo::{build_lenet, FcnnConfig, LenetConfig, ModelVariant};
use oplixnet::{DeployedDetection, Error};

use crate::schedule::stream;

/// A served model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// The 64→32→10 split FCNN.
    Fcnn,
    /// The channel-halved LeNet-5 body.
    Lenet,
}

impl Model {
    /// Both models, in catalogue order.
    pub const ALL: [Model; 2] = [Model::Fcnn, Model::Lenet];

    /// The name used in metric names and router lanes.
    pub fn name(self) -> &'static str {
        match self {
            Model::Fcnn => "fcnn",
            Model::Lenet => "lenet",
        }
    }
}

/// The network family both models are built in.
pub const VARIANT: ModelVariant = ModelVariant::Split(DecoderKind::Merge);
/// Detection of the Merge decoder.
pub const DETECTION: DeployedDetection = DeployedDetection::Differential;
/// Mesh layout every deploy uses.
pub const STYLE: MeshStyle = MeshStyle::Clements;

/// The FCNN geometry.
pub const FCNN: FcnnConfig = FcnnConfig {
    input: 64,
    hidden: 32,
    classes: 10,
};

/// The LeNet geometry: training-scale LeNet-5 on 16×16 views, halved.
pub fn lenet_config() -> LenetConfig {
    LenetConfig::training_scale(2, 16, 10).halved()
}

/// The `(C, H, W)` image shape the LeNet body deploys with.
pub fn lenet_shape() -> (usize, usize, usize) {
    let cfg = lenet_config();
    (cfg.in_ch, cfg.input_h, cfg.input_w)
}

/// Weight set `version` of `model`. The weights are part of the system
/// under test, so they do not depend on the run seed: the FCNN is trained
/// (a short Assign → Train → Deploy → Evaluate run on its own fixed
/// digits), the LeNet body keeps fixed untrained draws (training it is
/// beyond a run's budget).
///
/// # Errors
///
/// Whatever the training pipeline returns.
pub fn network(model: Model, version: u64) -> Result<Network, Error> {
    match model {
        Model::Fcnn => {
            let cfg = SynthConfig {
                height: 16,
                width: 8,
                samples: 512,
                seed: 1000 + version,
                ..Default::default()
            };
            let test = SynthConfig {
                samples: 128,
                seed: 2000 + version,
                ..cfg
            };
            let outcome = OplixNetBuilder::new()
                .hidden(FCNN.hidden)
                .mutual_learning(false)
                .train_setup(TrainSetup {
                    epochs: 4,
                    batch: 32,
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                })
                .seed(7 + version)
                .build(&digits(&cfg), &digits(&test))
                .run()?;
            Ok(outcome.network)
        }
        Model::Lenet => Ok(build_lenet(
            &lenet_config(),
            VARIANT,
            &mut stream(0x1E7E7, version),
        )),
    }
}

/// Deploys `net` as `model` through the process-wide deploy cache.
///
/// # Errors
///
/// Whatever the deploy path returns.
pub fn deploy(model: Model, net: &Network) -> Result<InferenceEngine, Error> {
    match model {
        Model::Fcnn => InferenceEngine::from_network(net, DETECTION, STYLE),
        Model::Lenet => {
            InferenceEngine::from_network_shaped(net, Some(lenet_shape()), DETECTION, STYLE)
        }
    }
}

/// `n` seeded, labelled inputs for `model`: flat `[n, 64]` for the FCNN,
/// `[n, 1, 16, 16]` images for LeNet.
///
/// # Errors
///
/// [`Error::Assign`] if the interlace does not fit (it always does).
pub fn inputs(model: Model, seed: u64, n: usize) -> Result<CDataset, Error> {
    let (height, width) = match model {
        Model::Fcnn => (16, 8),
        Model::Lenet => (32, 16),
    };
    let raw = digits(&SynthConfig {
        height,
        width,
        samples: n,
        seed: seed.wrapping_mul(31).wrapping_add(model as u64 + 1),
        ..Default::default()
    });
    let kind = AssignmentKind::SpatialInterlace;
    Ok(match model {
        Model::Fcnn => kind.try_apply_dataset_flat(&raw)?,
        Model::Lenet => kind.try_apply_dataset(&raw)?,
    })
}

/// One optical stage of a deployed model, as the kernel replica sees it:
/// the `m × n` mesh matrix (the bias reference mode included in `n`) and
/// how many rows each sample sends through it (conv output positions; 1
/// for dense stages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpticalStage {
    /// Index in the deployed stage list.
    pub stage: usize,
    /// Mesh output width.
    pub m: usize,
    /// Mesh input width, bias mode included.
    pub n: usize,
    /// Mesh rows per sample.
    pub positions: usize,
}

impl OpticalStage {
    /// MZIs of the two unitary meshes (`n(n−1)/2 + m(m−1)/2`).
    pub fn mesh_mzis(&self) -> usize {
        self.n * (self.n - 1) / 2 + self.m * (self.m - 1) / 2
    }

    /// Complex multiply-adds per sample, *computed*: four per MZI (one
    /// 2×2 complex transfer) plus one per attenuator, per mesh row.
    pub fn cmacs_per_sample(&self) -> f64 {
        ((4 * self.mesh_mzis() + self.m.min(self.n)) * self.positions) as f64
    }

    /// Field bytes per sample, *computed*: each mesh row reads `n` and
    /// writes `m` complex f64 values.
    pub fn bytes_per_sample(&self) -> f64 {
        ((self.n + self.m) * 16 * self.positions) as f64
    }
}

/// The optical stages of `model`, derived from its geometry.
pub fn optical_stages(model: Model) -> Vec<OpticalStage> {
    // The Merge decoder reads two optical outputs per class.
    let out_w = 2 * FCNN.classes;
    match model {
        Model::Fcnn => vec![
            OpticalStage {
                stage: 0,
                m: FCNN.hidden,
                n: FCNN.input + 1,
                positions: 1,
            },
            OpticalStage {
                stage: 1,
                m: out_w,
                n: FCNN.hidden + 1,
                positions: 1,
            },
        ],
        Model::Lenet => {
            let c = lenet_config();
            let (h, w) = (c.input_h, c.input_w);
            vec![
                OpticalStage {
                    stage: 0,
                    m: c.conv1,
                    n: c.in_ch * 25 + 1,
                    positions: h * w,
                },
                OpticalStage {
                    stage: 2,
                    m: c.conv2,
                    n: c.conv1 * 25 + 1,
                    positions: (h / 2) * (w / 2),
                },
                OpticalStage {
                    stage: 4,
                    m: c.fc1,
                    n: c.flat_width() + 1,
                    positions: 1,
                },
                OpticalStage {
                    stage: 5,
                    m: c.fc2,
                    n: c.fc1 + 1,
                    positions: 1,
                },
                OpticalStage {
                    stage: 6,
                    m: 2 * c.classes,
                    n: c.fc2 + 1,
                    positions: 1,
                },
            ]
        }
    }
}

/// Checks [`optical_stages`] against a deployed engine's chip reports,
/// so the kernel replicas keep the shapes the engine really serves.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_stages(model: Model, engine: &InferenceEngine) -> Result<(), String> {
    let reports = engine.deployed().chip_reports();
    let stages = optical_stages(model);
    let optical = reports.iter().filter(|r| r.optical).count();
    if optical != stages.len() {
        return Err(format!(
            "{}: {optical} optical stages deployed, {} modelled",
            model.name(),
            stages.len()
        ));
    }
    for st in &stages {
        let r = reports
            .get(st.stage)
            .ok_or_else(|| format!("{}: stage {} missing", model.name(), st.stage))?;
        let dense_in_ok = st.positions > 1 || r.input_width + 1 == st.n;
        if !r.optical || r.output_width != st.m * st.positions || !dense_in_ok {
            return Err(format!(
                "{}: stage {} is {r:?}, modelled as {st:?}",
                model.name(),
                st.stage
            ));
        }
    }
    Ok(())
}
