//! The OplixNet end-to-end workflow (paper Fig. 2):
//!
//! ```text
//! real dataset → data assigning → optical complex encoder →
//! split ONN (SCVNN) ⇄ CVNN mutual learning → phase mapping → deploy
//! ```
//!
//! [`OplixNetBuilder`] configures an FCNN workload and assembles the
//! standard stage [`Pipeline`] (`Assign → Train → Deploy → Evaluate`, see
//! [`crate::stage`]); [`OplixNetPipeline::run`] executes it, returning an
//! [`OplixNetOutcome`] with the trained network, the hardware-verified
//! accuracies, and a reusable [`InferenceEngine`] for further queries.
//! Every failure mode — bad dataset geometry, undeployable body, shape
//! mismatches — is a typed [`Error`], not a panic.

use crate::deploy::DeployedFcnn;
use crate::engine::InferenceEngine;
use crate::error::Error;
use crate::experiments::TrainSetup;
use crate::spec::{fcnn_orig, ModelSpec};
use crate::stage::{
    AssignStage, AssignedData, DatasetPair, DeployStage, MutualLearning, Pipeline, TrainStage,
};
use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::RealDataset;
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use rand::rngs::StdRng;

/// Builder for an OplixNet FCNN pipeline.
#[derive(Clone, Debug)]
pub struct OplixNetBuilder {
    assignment: AssignmentKind,
    decoder: DecoderKind,
    hidden: usize,
    mutual_learning: bool,
    alpha: f32,
    setup: TrainSetup,
    mesh_style: MeshStyle,
    seed: u64,
}

impl Default for OplixNetBuilder {
    /// The paper's defaults; identical to [`OplixNetBuilder::new`].
    fn default() -> Self {
        OplixNetBuilder {
            assignment: AssignmentKind::SpatialInterlace,
            decoder: DecoderKind::Merge,
            hidden: 32,
            mutual_learning: true,
            alpha: 1.0,
            setup: TrainSetup {
                epochs: 8,
                batch: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
            },
            mesh_style: MeshStyle::Clements,
            seed: 7,
        }
    }
}

impl OplixNetBuilder {
    /// Starts from the paper's defaults (spatial interlace, merge decoder,
    /// mutual learning with α = 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the real-to-complex assignment scheme.
    pub fn assignment(mut self, a: AssignmentKind) -> Self {
        self.assignment = a;
        self
    }

    /// Selects the output decoder.
    pub fn decoder(mut self, d: DecoderKind) -> Self {
        self.decoder = d;
        self
    }

    /// Sets the hidden width of the split FCNN.
    pub fn hidden(mut self, h: usize) -> Self {
        self.hidden = h;
        self
    }

    /// Enables/disables SCVNN–CVNN mutual learning.
    pub fn mutual_learning(mut self, on: bool) -> Self {
        self.mutual_learning = on;
        self
    }

    /// Sets the distillation mixing factor α.
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the training hyper-parameters.
    pub fn train_setup(mut self, setup: TrainSetup) -> Self {
        self.setup = setup;
        self
    }

    /// Selects the mesh decomposition used at deployment.
    pub fn mesh_style(mut self, style: MeshStyle) -> Self {
        self.mesh_style = style;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Assembles the pipeline for a dataset pair. Geometry constraints are
    /// checked when the pipeline runs, so this never fails or panics.
    pub fn build(self, train: &RealDataset, test: &RealDataset) -> OplixNetPipeline {
        OplixNetPipeline {
            cfg: self,
            data: DatasetPair::new(train.clone(), test.clone()),
        }
    }

    /// The four configured stages as a generic [`Pipeline`], for callers
    /// that want to swap a stage before running.
    pub fn stages(&self) -> Pipeline {
        let deploy = DeployStage::new(ModelVariant::Split(self.decoder).detection())
            .mesh_style(self.mesh_style);
        Pipeline::standard(self.assign_stage(), self.train_stage(), deploy)
    }

    fn assign_stage(&self) -> AssignStage {
        let assign = AssignStage::flat(self.assignment);
        if self.mutual_learning {
            assign.with_teacher_view()
        } else {
            assign
        }
    }

    fn train_stage(&self) -> TrainStage {
        let variant = ModelVariant::Split(self.decoder);
        let hidden = self.hidden;
        let student = Box::new(move |data: &AssignedData, rng: &mut StdRng| {
            Ok(build_fcnn(
                &FcnnConfig {
                    input: data.assigned_features(),
                    hidden,
                    classes: data.classes,
                },
                variant,
                rng,
            ))
        });
        let mut train = TrainStage::new(student, self.setup, self.seed);
        if self.mutual_learning {
            let teacher_hidden = 2 * self.hidden;
            train = train.with_mutual(MutualLearning {
                teacher: Box::new(move |data: &AssignedData, rng: &mut StdRng| {
                    Ok(build_fcnn(
                        &FcnnConfig {
                            input: data.raw_features(),
                            hidden: teacher_hidden,
                            classes: data.classes,
                        },
                        ModelVariant::ConventionalOnn,
                        rng,
                    ))
                }),
                alpha: self.alpha,
                temperature: 1.0,
            });
        }
        train
    }
}

/// An assembled OplixNet pipeline, ready to run.
#[derive(Clone, Debug)]
pub struct OplixNetPipeline {
    cfg: OplixNetBuilder,
    data: DatasetPair,
}

/// Everything the pipeline produces.
///
/// Not `Clone`: [`Network`](oplix_nn::network::Network) holds its head as
/// a trait object without clone support, and cloning mesh state by
/// accident would be an expensive footgun. The cheap scalar parts are
/// available as a `Copy` [`OutcomeSummary`] via
/// [`OplixNetOutcome::summary`]; the engine (and the deployed meshes
/// inside it) can be cloned explicitly.
#[derive(Debug)]
pub struct OplixNetOutcome {
    /// The trained split network (software form).
    pub network: oplix_nn::network::Network,
    /// Test accuracy of the split network.
    pub accuracy: f64,
    /// Test accuracy of the deployed (field-level) hardware.
    pub deployed_accuracy: f64,
    /// Reusable batched inference engine over the deployed hardware.
    pub engine: InferenceEngine,
    /// Paper-scale spec of the original ONN FCNN (area reference).
    pub orig_spec: ModelSpec,
    /// MZIs used by the deployed split pipeline (training scale).
    pub deployed_mzis: u64,
}

/// The scalar facts of an [`OplixNetOutcome`], cheap to copy around.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutcomeSummary {
    /// Software test accuracy.
    pub accuracy: f64,
    /// Deployed hardware test accuracy.
    pub deployed_accuracy: f64,
    /// `|accuracy − deployed_accuracy|`.
    pub hardware_gap: f64,
    /// MZIs of the deployed pipeline.
    pub deployed_mzis: u64,
}

impl OplixNetOutcome {
    /// Agreement between software and hardware accuracy.
    pub fn hardware_gap(&self) -> f64 {
        (self.accuracy - self.deployed_accuracy).abs()
    }

    /// The deployed photonic pipeline the engine serves.
    pub fn deployed(&self) -> &DeployedFcnn {
        self.engine.deployed()
    }

    /// The cheap scalar parts, as a `Copy` value.
    pub fn summary(&self) -> OutcomeSummary {
        OutcomeSummary {
            accuracy: self.accuracy,
            deployed_accuracy: self.deployed_accuracy,
            hardware_gap: self.hardware_gap(),
            deployed_mzis: self.deployed_mzis,
        }
    }
}

impl OplixNetPipeline {
    /// Trains (optionally with mutual learning), deploys onto MZI meshes,
    /// and verifies on hardware through the four pipeline stages.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] if the assignment cannot be applied to
    /// the dataset geometry, the trained body is undeployable, or the
    /// hardware evaluation is inconsistent with the mesh geometry.
    pub fn run(&self) -> Result<OplixNetOutcome, Error> {
        let evaluation = self.cfg.stages().run(self.data.clone())?;
        let deployed_mzis = evaluation.engine.deployed().device_count().mzis;
        Ok(OplixNetOutcome {
            network: evaluation.network,
            accuracy: evaluation.software_accuracy,
            deployed_accuracy: evaluation.hardware_accuracy,
            engine: evaluation.engine,
            orig_spec: fcnn_orig(),
            deployed_mzis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;
    use oplix_datasets::synth::{digits, SynthConfig};

    fn quick_data() -> (RealDataset, RealDataset) {
        let cfg = SynthConfig {
            height: 8,
            width: 8,
            samples: 240,
            ..Default::default()
        };
        let train = digits(&cfg);
        let test = digits(&SynthConfig {
            samples: 120,
            seed: 1,
            ..cfg
        });
        (train, test)
    }

    #[test]
    fn pipeline_end_to_end_merge_decoder() {
        let (train, test) = quick_data();
        let outcome = OplixNetBuilder::new()
            .hidden(16)
            .mutual_learning(false)
            .train_setup(TrainSetup {
                epochs: 12,
                batch: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
            })
            .build(&train, &test)
            .run()
            .expect("pipeline runs");
        assert!(outcome.accuracy > 0.2, "accuracy {}", outcome.accuracy);
        // Hardware must agree with software almost exactly (the deployment
        // is numerically exact up to f32->f64 and SVD round-off).
        assert!(
            outcome.hardware_gap() < 0.05,
            "software {} vs hardware {}",
            outcome.accuracy,
            outcome.deployed_accuracy
        );
        assert!(outcome.deployed_mzis > 0);
        let summary = outcome.summary();
        assert_eq!(summary.deployed_mzis, outcome.deployed_mzis);
        assert_eq!(summary.hardware_gap, outcome.hardware_gap());
    }

    #[test]
    fn pipeline_with_mutual_learning_runs() {
        let (train, test) = quick_data();
        let outcome = OplixNetBuilder::new()
            .hidden(16)
            .mutual_learning(true)
            .alpha(1.0)
            .train_setup(TrainSetup {
                epochs: 12,
                batch: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
            })
            .seed(3)
            .build(&train, &test)
            .run()
            .expect("pipeline runs");
        assert!(outcome.accuracy > 0.2);
    }

    #[test]
    fn geometry_errors_surface_as_values() {
        // 7-pixel-high images cannot be spatially interlaced.
        let cfg = SynthConfig {
            height: 7,
            width: 8,
            samples: 20,
            ..Default::default()
        };
        let train = digits(&cfg);
        let test = digits(&SynthConfig { seed: 1, ..cfg });
        let err = OplixNetBuilder::new()
            .build(&train, &test)
            .run()
            .expect_err("odd height must be a typed error");
        assert!(matches!(err, Error::Assign(_)), "{err:?}");
    }

    /// FNV-1a over the bits of every parameter value, in visit order.
    fn weight_hash(net: &mut oplix_nn::network::Network) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        net.visit_params(&mut |p: &mut oplix_nn::param::Param| {
            for v in p.value.as_slice() {
                for byte in v.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        });
        hash
    }

    /// A default-builder mutual-learning run trains both networks to
    /// weight bits recorded before the GEMM kernel was register-blocked;
    /// every dense forward and backward product of both networks feeds
    /// these bits.
    #[test]
    fn mutual_learning_weights_are_pinned_bitwise() {
        let cfg = SynthConfig {
            height: 8,
            width: 8,
            samples: 96,
            ..Default::default()
        };
        let pair = DatasetPair::new(
            digits(&cfg),
            digits(&SynthConfig {
                samples: 48,
                seed: 1,
                ..cfg
            }),
        );
        let builder = OplixNetBuilder::new().train_setup(TrainSetup {
            epochs: 2,
            ..OplixNetBuilder::default().setup
        });
        let data = builder.assign_stage().run(pair).expect("assign");
        let (mut student, teacher, _) = builder.train_stage().fit(&data).expect("train");
        let mut teacher = teacher.expect("mutual learning is on by default");
        assert_eq!(
            (weight_hash(&mut student), weight_hash(&mut teacher)),
            (0x4a16_aa70_e27b_88a3, 0x8d94_4e13_44f9_2645),
            "trained student and teacher weight bits"
        );
    }

    /// A split LeNet trained beside a conventional-ONN LeNet teacher
    /// reaches weight bits recorded before the conv layers learned to skip
    /// products: the teacher's first conv sees an all-zero imaginary input,
    /// and neither first conv's input gradient is read.
    #[test]
    fn cnn_mutual_learning_weights_are_pinned_bitwise() {
        use crate::zoo::{build_lenet, LenetConfig};
        use oplix_datasets::synth::colors;

        let cfg = SynthConfig {
            height: 8,
            width: 8,
            samples: 64,
            seed: 31,
            ..Default::default()
        };
        let pair = DatasetPair::new(
            colors(&cfg),
            colors(&SynthConfig {
                samples: 16,
                seed: 32,
                ..cfg
            }),
        );
        let data = AssignStage::image(AssignmentKind::ChannelLossless)
            .with_teacher_view()
            .run(pair)
            .expect("assign");
        let lenet = LenetConfig::training_scale(3, 8, data.classes);
        let student = Box::new(move |_: &AssignedData, rng: &mut StdRng| {
            Ok(build_lenet(
                &lenet.halved(),
                ModelVariant::Split(DecoderKind::Merge),
                rng,
            ))
        });
        let teacher = Box::new(move |_: &AssignedData, rng: &mut StdRng| {
            Ok(build_lenet(&lenet, ModelVariant::ConventionalOnn, rng))
        });
        let setup = TrainSetup {
            epochs: 2,
            batch: 16,
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 1e-4,
        };
        let (mut student, teacher, _) = TrainStage::new(student, setup, 5)
            .with_mutual(MutualLearning {
                teacher,
                alpha: 1.0,
                temperature: 1.0,
            })
            .fit(&data)
            .expect("train");
        let mut teacher = teacher.expect("mutual learning is on");
        assert_eq!(
            (weight_hash(&mut student), weight_hash(&mut teacher)),
            (0x2f51_451e_837e_6bea, 0xf7c6_10de_b9be_f55b),
            "trained student and teacher weight bits"
        );
    }

    /// A real-valued FCNN (Table II's RVNN arm) trained on the
    /// conventional view reaches weight bits recorded before real-only
    /// layers learned to skip the products of their frozen, all-zero
    /// `W_im`; every dense forward and backward product feeds these bits.
    #[test]
    fn rvnn_fcnn_weights_are_pinned_bitwise() {
        let cfg = SynthConfig {
            height: 8,
            width: 8,
            samples: 96,
            ..Default::default()
        };
        let pair = DatasetPair::new(
            digits(&cfg),
            digits(&SynthConfig {
                samples: 48,
                seed: 1,
                ..cfg
            }),
        );
        let data = AssignStage::flat(AssignmentKind::Conventional)
            .run(pair)
            .expect("assign");
        let rvnn = Box::new(|data: &AssignedData, rng: &mut StdRng| {
            Ok(build_fcnn(
                &FcnnConfig {
                    input: data.assigned_features(),
                    hidden: 64,
                    classes: data.classes,
                },
                ModelVariant::Rvnn,
                rng,
            ))
        });
        let setup = TrainSetup {
            epochs: 2,
            ..OplixNetBuilder::default().setup
        };
        let (mut net, teacher, _) = TrainStage::new(rvnn, setup, 7).fit(&data).expect("train");
        assert!(teacher.is_none());
        assert_eq!(
            weight_hash(&mut net),
            0x84e0_f8b9_38c0_3a9e,
            "trained RVNN weight bits"
        );
    }

    #[test]
    fn default_and_new_agree() {
        let a = format!("{:?}", OplixNetBuilder::new());
        let b = format!("{:?}", OplixNetBuilder::default());
        assert_eq!(a, b);
    }
}
