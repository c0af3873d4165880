//! Deployment of trained networks onto the photonic simulator.
//!
//! This closes the paper's Fig. 2 loop: software parameters → SVD phase
//! mapping → split ONN → field-level inference. Dense layers become
//! [`PhotonicLayer`]s (two MZI meshes + attenuators). Conventions:
//!
//! * **Biases** ride on an extra always-on reference waveguide
//!   (homogeneous coordinates: the deployed matrix is `[W | b]` acting on
//!   `[x; 1]`), so the optical path reproduces the software layer exactly.
//! * **Hidden activations** are electro-optic: the fields are coherently
//!   detected, the split ReLU is applied electronically, and the result is
//!   re-modulated — the standard assumption for MZI-ONN nonlinearities.
//! * **Output detection** follows the trained head: differential
//!   photodiodes for the merging decoder, plain photodiodes for the
//!   conventional ONN, coherent detection for the `Re` head.

use crate::engine::argmax;
use crate::error::Error;
use oplix_linalg::{CMatrix, Complex64};
use oplix_nn::ctensor::CTensor;
use oplix_nn::head::{LinearDecoderHead, UnitaryDecoderHead};
use oplix_nn::layers::{CAvgPool2d, CConv2d, CDense, CFlatten, CRelu};
use oplix_nn::network::Network;
use oplix_nn::tensor::Tensor;
pub use oplix_photonics::compiled::Fidelity;
use oplix_photonics::compiled::{CompiledLayer, ConvGeometry};
use oplix_photonics::count::DeviceCount;
use oplix_photonics::loss_model::OpticalLossModel;
use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Reusable field buffers for [`DeployedFcnn::forward_into`]: after the
/// first call nothing reallocates, so a serving loop is allocation-free
/// per sample. Internally a one-sample [`WindowBuffers`] — the per-sample
/// path *is* the staged window walk at window size one, which is what
/// keeps every entry point bitwise interchangeable.
#[derive(Clone, Debug, Default)]
pub struct ForwardBuffers {
    win: WindowBuffers,
}

/// Reusable field buffers for [`DeployedFcnn::forward_window_into`], the
/// windowed batch path: ping-pong buffers sized `window × stage width`
/// plus the patch-row scratch of conv stages on the golden walk. After
/// warm-up none reallocates, so a serving worker pushes whole sample
/// windows through compiled kernels allocation-free.
///
/// The buffers also keep the per-stage timers of every walk run through
/// them ([`StageOccupancy`], in stage order), which
/// [`InferenceEngine::stage_stats`](crate::engine::InferenceEngine::stage_stats)
/// sums over its workers.
#[derive(Clone, Debug, Default)]
pub struct WindowBuffers {
    cur: Vec<Complex64>,
    nxt: Vec<Complex64>,
    aux: Vec<Complex64>,
    stages: Vec<StageOccupancy>,
}

impl WindowBuffers {
    /// Windows and busy time per stage accumulated so far, in stage order.
    pub(crate) fn stage_occupancy(&self) -> &[StageOccupancy] {
        &self.stages
    }

    /// Adds `other`'s per-stage timers into these (a retired worker's
    /// timers folding into a surviving one).
    pub(crate) fn absorb_stage_occupancy(&mut self, other: &WindowBuffers) {
        if self.stages.len() < other.stages.len() {
            self.stages
                .resize(other.stages.len(), StageOccupancy::default());
        }
        for (acc, occ) in self.stages.iter_mut().zip(&other.stages) {
            acc.absorb(*occ);
        }
    }

    /// Zeroes the per-stage timers.
    pub(crate) fn clear_stage_occupancy(&mut self) {
        self.stages.clear();
    }
}

/// Applies one detection scheme to a row of output fields, appending the
/// detected scores. Shared verbatim by the per-sample and windowed paths
/// so the two stay bitwise interchangeable.
#[inline]
fn detect(detection: DeployedDetection, fields: &[Complex64], logits: &mut Vec<f64>) {
    match detection {
        DeployedDetection::Differential => {
            let k = fields.len() / 2;
            logits.extend((0..k).map(|i| fields[i].norm_sqr() - fields[i + k].norm_sqr()));
        }
        DeployedDetection::Intensity => {
            logits.extend(fields.iter().map(|z| z.norm_sqr().sqrt()));
        }
        DeployedDetection::CoherentReal => logits.extend(fields.iter().map(|z| z.re)),
    }
}

/// How the deployed network's outputs are detected.
///
/// This is the hardware-side [`Detection`](oplix_photonics::decoder::Detection)
/// enum from `oplix-photonics`, re-exported under its historical name: for
/// the learnable decoders it is derived from the trained
/// [`DecoderKind`](oplix_photonics::decoder::DecoderKind) via
/// [`DecoderKind::detection`](oplix_photonics::decoder::DecoderKind::detection),
/// which is how the deploy stage picks it.
pub use oplix_photonics::decoder::Detection as DeployedDetection;

/// One optical stage of a deployed pipeline: a dense layer mapped onto
/// meshes, plus how fields enter it (ancilla padding for the unitary
/// decoder) and leave it (electro-optic split ReLU between body stages).
///
/// The stage carries both the *hardware description* (`layer`, with
/// mutable phases for the noise models) and the *compiled kernel*
/// (`compiled`, the precomputed-coefficient form every forward pass runs
/// through, with the transfer matrix derived from it). Whenever phases are
/// mutated the kernel is recompiled, transfer matrix included; at
/// [`Fidelity::Golden`] the two are bitwise interchangeable by the
/// [`CompiledLayer`] contract.
#[derive(Clone, Debug)]
pub(crate) struct OpticalStage {
    pub(crate) layer: PhotonicLayer,
    /// The compiled form of `layer`; the serving hot path.
    compiled: CompiledLayer,
    /// Zero-pad the incoming fields up to the stage fan-in (ancilla modes
    /// of the unitary decoder).
    pad_input: bool,
    /// Apply the electro-optic split ReLU after this stage.
    relu_after: bool,
}

/// A convolution lowered onto meshes through the im2col view: one patch
/// row per output position (padding taps dark, bias tap on the reference
/// mode) feeds the dense `[out_ch, patch_len + 1]` kernel matrix realised
/// as the standard SVD → two-mesh + attenuator [`PhotonicLayer`]. One mesh
/// serves every output position — the same weight sharing that makes conv
/// cheap in software keeps the photonic footprint at one kernel-sized mesh
/// per layer. The [`ConvGeometry`] is the one description of the patches
/// at both fidelity tiers.
#[derive(Clone, Debug)]
pub(crate) struct ConvStage {
    pub(crate) layer: PhotonicLayer,
    /// The compiled form of `layer`; the serving hot path.
    compiled: CompiledLayer,
    /// The input shape, kernel, stride and padding the stage convolves
    /// with.
    geometry: ConvGeometry,
    /// Apply the electro-optic split ReLU after this stage.
    relu_after: bool,
}

impl ConvStage {
    /// Flattened output features `out_ch·H'·W'`.
    fn out_features(&self) -> usize {
        self.layer.output_dim() * self.geometry.positions()
    }
}

/// Electronic average pooling between optical stages: like the split
/// ReLU, the fields are coherently detected, averaged per window, and
/// re-modulated — a linear index gather, no optical devices.
#[derive(Clone, Debug)]
pub(crate) struct PoolStage {
    /// Flat input indices, `k²` per output feature, in output order.
    taps: Arc<Vec<u32>>,
    /// Window area `k²`.
    k2: usize,
    /// Flattened input features `C·H·W`.
    in_features: usize,
    /// Flattened output features `C·(H/k)·(W/k)`.
    out_features: usize,
    /// Apply the electro-optic split ReLU after this stage.
    relu_after: bool,
}

/// One stage of a deployed pipeline: a dense layer on meshes, a lowered
/// convolution (gather + mesh), or an electronic pooling step.
#[derive(Clone, Debug)]
pub(crate) enum DeployedStage {
    /// A dense layer mapped onto meshes.
    Mesh(OpticalStage),
    /// An im2col-lowered convolution.
    Conv(ConvStage),
    /// Electronic average pooling.
    Pool(PoolStage),
}

impl DeployedStage {
    /// Flattened field count one sample presents to this stage.
    fn input_width(&self) -> usize {
        match self {
            // Minus the always-on bias reference mode.
            DeployedStage::Mesh(s) => s.layer.input_dim() - 1,
            DeployedStage::Conv(s) => s.geometry.in_features(),
            DeployedStage::Pool(s) => s.in_features,
        }
    }

    /// Flattened field count one sample leaves this stage with.
    fn output_width(&self) -> usize {
        match self {
            DeployedStage::Mesh(s) => s.layer.output_dim(),
            DeployedStage::Conv(s) => s.out_features(),
            DeployedStage::Pool(s) => s.out_features,
        }
    }

    /// The photonic hardware of this stage, if it has any (pooling is
    /// purely electronic).
    fn optical(&self) -> Option<&PhotonicLayer> {
        match self {
            DeployedStage::Mesh(s) => Some(&s.layer),
            DeployedStage::Conv(s) => Some(&s.layer),
            DeployedStage::Pool(_) => None,
        }
    }

    fn relu_after_mut(&mut self) -> &mut bool {
        match self {
            DeployedStage::Mesh(s) => &mut s.relu_after,
            DeployedStage::Conv(s) => &mut s.relu_after,
            DeployedStage::Pool(s) => &mut s.relu_after,
        }
    }

    /// Applies this stage (trailing electro-optic ReLU included) to a
    /// staged window: `buf.cur` holds `samples × width` fields on entry
    /// and the stage's output on return; the new per-sample width is
    /// returned. This is the *one* per-stage transform in the codebase,
    /// called only by the staged walk ([`DeployedFcnn::forward_staged`]).
    /// Optical stages run their compiled layer at `fidelity`.
    fn apply(
        &self,
        buf: &mut WindowBuffers,
        width: usize,
        samples: usize,
        fidelity: Fidelity,
    ) -> usize {
        let WindowBuffers { cur, nxt, aux, .. } = buf;
        let (out_width, relu_after) = match self {
            DeployedStage::Mesh(st) => {
                // Re-stage: ancilla padding (unitary decoder) plus the
                // bias reference mode, exactly as the per-sample walk
                // always did.
                let fan_in = st.layer.input_dim() - 1;
                let padded = if st.pad_input {
                    width.max(fan_in)
                } else {
                    width
                };
                let in_w = padded + 1;
                nxt.clear();
                nxt.resize(samples * in_w, Complex64::ZERO);
                for s in 0..samples {
                    let src = &cur[s * width..(s + 1) * width];
                    let dst = &mut nxt[s * in_w..(s + 1) * in_w];
                    dst[..width].copy_from_slice(src);
                    dst[padded] = Complex64::ONE;
                }
                std::mem::swap(cur, nxt);
                st.compiled.forward_batch_at(fidelity, cur, nxt, samples);
                (st.layer.output_dim(), st.relu_after)
            }
            DeployedStage::Conv(st) => {
                // The output lands channel-major, as the software conv's.
                st.compiled
                    .forward_conv(fidelity, &st.geometry, &cur[..samples * width], nxt, aux);
                std::mem::swap(cur, nxt);
                (st.out_features(), st.relu_after)
            }
            DeployedStage::Pool(st) => {
                // Electronic average pooling: detect, average the k²
                // taps per output feature, re-modulate.
                let inv = 1.0 / st.k2 as f64;
                nxt.clear();
                nxt.resize(samples * st.out_features, Complex64::ZERO);
                for s in 0..samples {
                    let src = &cur[s * width..(s + 1) * width];
                    let dst = &mut nxt[s * st.out_features..][..st.out_features];
                    for (f, taps) in dst.iter_mut().zip(st.taps.chunks_exact(st.k2)) {
                        let mut acc = Complex64::ZERO;
                        for &t in taps {
                            acc += src[t as usize];
                        }
                        *f = acc.scale(inv);
                    }
                }
                std::mem::swap(cur, nxt);
                (st.out_features, st.relu_after)
            }
        };
        if relu_after {
            for z in cur.iter_mut() {
                *z = Complex64::new(z.re.max(0.0), z.im.max(0.0));
            }
        }
        out_width
    }
}

/// A trained network deployed onto MZI meshes — fully connected bodies
/// and CNN bodies alike (conv layers lower through the im2col view, see
/// [`DeployedFcnn::from_network_shaped`]; the name is historical).
///
/// The stage list covers the network *body* and, for the linear and
/// unitary decoders, the decoder itself (an extra trained optical stage),
/// so field-level inference is faithful to the software head for every
/// [`DecoderKind`](oplix_photonics::decoder::DecoderKind).
///
/// Cloning copies every mesh phase and attenuator — cheap relative to
/// decomposition, which is what makes per-batch noise-injection sessions
/// (see [`crate::engine::InferenceEngine::noise_session`]) affordable.
///
/// Every optical stage serves through the kernel of one [`Fidelity`]
/// tier, [`Fidelity::Transfer`] unless
/// [`InferenceEngine::set_fidelity`](crate::engine::InferenceEngine::set_fidelity)
/// says otherwise. Within a tier every entry point is bitwise interchangeable;
/// [`Fidelity::Golden`] is the reference the hardware-accounting and
/// tolerance pins use.
#[derive(Clone, Debug)]
pub struct DeployedFcnn {
    stages: Vec<DeployedStage>,
    detection: DeployedDetection,
    /// Which kernel every optical stage serves through.
    fidelity: Fidelity,
    /// [`DeployedFcnn::chip_reports`], computed once at deployment: the
    /// reports read only mesh structure, and noise, drift and session
    /// restore move phases, never structure.
    chips: Vec<ChipReport>,
}

/// Errors from deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeployError {
    /// The network body contained a layer type that cannot be lowered
    /// (supported: dense, conv, average pooling, split ReLU, flatten).
    /// Carries the body index *and* the layer's type name so the
    /// remaining unsupported kinds (max pooling, batch norm, residual
    /// blocks, modReLU) are diagnosable from the error alone.
    UnsupportedLayer {
        /// Index of the offending layer in the network body.
        index: usize,
        /// Short type name of the offending layer (e.g. `"CMaxPool2d"`).
        kind: &'static str,
    },
    /// The network body contained no weight layers to map onto meshes.
    Empty,
    /// Differential detection pairs positive/negative diode banks, so the
    /// optical output width must be even.
    OddDifferentialOutput {
        /// The (odd) optical output width.
        width: usize,
    },
    /// The body contains conv/pool layers, which need the input image
    /// shape to lower their geometry — deploy through
    /// [`DeployedFcnn::from_network_shaped`] (the stage API passes the
    /// assigned shape automatically).
    MissingImageShape {
        /// Body index of the first layer that needed the image shape.
        index: usize,
    },
    /// A layer's geometry or placement is inconsistent with the incoming
    /// pipeline state: channel mismatch, kernel larger than the padded
    /// input, a pooling window not dividing the feature map, or an
    /// activation before any weight layer.
    Geometry {
        /// Body index of the offending layer.
        index: usize,
    },
    /// A weight or bias is NaN or infinite, so the layer has no SVD to map
    /// onto meshes. Checked before any decomposition runs.
    NonFiniteWeight {
        /// Body index of the offending layer, or the body's length for
        /// the decoder head.
        index: usize,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnsupportedLayer { index, kind } => {
                write!(
                    f,
                    "layer {index} ({kind}) is not deployable onto a photonic pipeline \
                     (supported: dense, conv, average pooling, split ReLU, flatten)"
                )
            }
            DeployError::Empty => write!(f, "network has no weight layers to deploy"),
            DeployError::OddDifferentialOutput { width } => write!(
                f,
                "differential detection needs an even optical output width, got {width}"
            ),
            DeployError::MissingImageShape { index } => write!(
                f,
                "layer {index} needs the input image shape to lower its geometry; \
                 deploy via from_network_shaped (or the stage API, which passes it)"
            ),
            DeployError::Geometry { index } => write!(
                f,
                "layer {index}'s geometry or placement is inconsistent with the \
                 incoming pipeline state (channel mismatch, kernel larger than the \
                 padded input, pooling window not dividing the feature map, or an \
                 activation before any weight layer)"
            ),
            DeployError::NonFiniteWeight { index } => write!(
                f,
                "layer {index} has a NaN or infinite weight or bias and cannot be decomposed"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

impl DeployedFcnn {
    /// Deploys a network body whose geometry is self-describing — dense
    /// layers, activations and reshapes. Conv/pool bodies need the input
    /// image shape: use [`DeployedFcnn::from_network_shaped`].
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the body contains an unsupported layer
    /// kind, a conv/pool layer (no image shape available here), or if
    /// differential detection is requested over an odd optical output
    /// width.
    pub fn from_network(
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<Self, DeployError> {
        Self::from_network_shaped(net, None, detection, style)
    }

    /// Deploys a trained network — FCNN *or* CNN body — onto MZI meshes.
    ///
    /// Dense layers are augmented with their bias column and mapped
    /// through SVD onto two meshes + attenuators. Conv layers lower
    /// through the **im2col view**: an electronic index gather extracts
    /// one patch per output position (padding taps are dark modes, the
    /// bias rides the always-on reference mode) and the dense
    /// `[out_ch, patch_len + 1]` kernel matrix becomes one SVD-mapped
    /// mesh serving every position. Average pooling and the split ReLU
    /// run electronically between optical stages; flatten is the identity
    /// on the flat field vector. `input_shape` is the `(C, H, W)` shape
    /// one body input sample has — required for conv/pool bodies, ignored
    /// by dense-only bodies.
    ///
    /// ```
    /// use oplixnet::deploy::{DeployedFcnn, DeployedDetection};
    /// use oplix_nn::head::MergeHead;
    /// use oplix_nn::layers::{CConv2d, CDense, CFlatten, CRelu, CSequential};
    /// use oplix_nn::network::Network;
    /// use oplix_photonics::svd_map::MeshStyle;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let body = CSequential::new()
    ///     .push(CConv2d::new(1, 3, 3, 1, 1, &mut rng)) // 1→3 ch, 3×3, same
    ///     .push(CRelu::new())
    ///     .push(CFlatten::new())
    ///     .push(CDense::new(3 * 4 * 4, 4, &mut rng)); // 2 classes, merged
    /// let net = Network::new(body, Box::new(MergeHead::new()));
    /// let deployed = DeployedFcnn::from_network_shaped(
    ///     &net,
    ///     Some((1, 4, 4)), // one 4×4 single-channel input image
    ///     DeployedDetection::Differential,
    ///     MeshStyle::Clements,
    /// )
    /// .expect("conv bodies lower through im2col");
    /// assert_eq!(deployed.input_dim(), 16);
    /// assert_eq!(deployed.logit_dim(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the body contains an unsupported layer
    /// kind ([`DeployError::UnsupportedLayer`] names it), a conv/pool
    /// layer appears with no image shape to lower against, the shape is
    /// inconsistent with a layer's geometry, or differential detection is
    /// requested over an odd optical output width.
    pub fn from_network_shaped(
        net: &Network,
        input_shape: Option<(usize, usize, usize)>,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<Self, DeployError> {
        let mut stages: Vec<DeployedStage> = Vec::new();
        // The image shape flowing into the next layer; `None` once the
        // features are flat (or were never an image).
        let mut image = input_shape;
        for (index, layer) in net.body().layers().iter().enumerate() {
            let unsupported = DeployError::UnsupportedLayer {
                index,
                kind: layer.layer_type(),
            };
            let Some(any) = layer.as_any() else {
                return Err(unsupported);
            };
            if let Some(dense) = any.downcast_ref::<CDense>() {
                stages.push(DeployedStage::Mesh(
                    deploy_dense(dense, index, style)?.into_stage(false, false),
                ));
                image = None;
            } else if let Some(conv) = any.downcast_ref::<CConv2d>() {
                let (c, h, w) = image.ok_or(DeployError::MissingImageShape { index })?;
                let stage = deploy_conv(conv, index, c, h, w, style)?;
                let (oh, ow) = conv.output_hw(h, w);
                image = Some((conv.geometry().1, oh, ow));
                stages.push(DeployedStage::Conv(stage));
            } else if let Some(pool) = any.downcast_ref::<CAvgPool2d>() {
                let (c, h, w) = image.ok_or(DeployError::MissingImageShape { index })?;
                let k = pool.window();
                if !h.is_multiple_of(k) || !w.is_multiple_of(k) {
                    return Err(DeployError::Geometry { index });
                }
                stages.push(DeployedStage::Pool(deploy_pool(c, h, w, k)));
                image = Some((c, h / k, w / k));
            } else if any.downcast_ref::<CRelu>().is_some() {
                // The split ReLU is the electro-optic step after the
                // preceding stage; an activation before any weight layer
                // has no stage to ride on — a placement problem, not an
                // unsupported kind.
                match stages.last_mut() {
                    Some(stage) => *stage.relu_after_mut() = true,
                    None => return Err(DeployError::Geometry { index }),
                }
            } else if any.downcast_ref::<CFlatten>().is_some() {
                // Row-major `[C, H, W]` flattening is the identity on the
                // flat field vector the deployed walk already carries.
                image = None;
            } else {
                return Err(unsupported);
            }
        }
        if stages.is_empty() {
            return Err(DeployError::Empty);
        }

        // Decoder-bearing heads deploy as one more optical stage, so the
        // hardware is faithful to the trained head for every decoder kind.
        let head = net.body().layers().len();
        if let Some(any) = net.head().as_any() {
            if let Some(linear) = any.downcast_ref::<LinearDecoderHead>() {
                stages.push(DeployedStage::Mesh(
                    deploy_dense(linear.dense(), head, style)?.into_stage(false, false),
                ));
            } else if let Some(unitary) = any.downcast_ref::<UnitaryDecoderHead>() {
                // K class modes + K zero ancilla modes enter the 2K-wide
                // decoder array.
                stages.push(DeployedStage::Mesh(
                    deploy_dense(unitary.dense(), head, style)?.into_stage(true, false),
                ));
            }
        }
        if detection == DeployedDetection::Differential {
            let width = stages.last().expect("non-empty").output_width();
            if !width.is_multiple_of(2) {
                return Err(DeployError::OddDifferentialOutput { width });
            }
        }
        let mut deployed = DeployedFcnn {
            stages,
            detection,
            fidelity: Fidelity::default(),
            chips: Vec::new(),
        };
        deployed.chips = deployed.chip_reports_with(&OpticalLossModel::silicon_defaults());
        Ok(deployed)
    }

    /// The complex fan-in of the deployed pipeline: the flattened field
    /// count one query sample must provide (for a mesh first stage, its
    /// width minus the always-on bias mode; for a conv/pool first stage,
    /// the flattened `C·H·W` image).
    pub fn input_dim(&self) -> usize {
        self.stages[0].input_width()
    }

    /// Width of the detected logit vector.
    pub fn logit_dim(&self) -> usize {
        let optical = self.stages[self.stages.len() - 1].output_width();
        match self.detection {
            DeployedDetection::Differential => optical / 2,
            _ => optical,
        }
    }

    /// The detection scheme the pipeline reads out through.
    pub fn detection(&self) -> DeployedDetection {
        self.detection
    }

    /// The kernel tier every optical stage serves through:
    /// [`Fidelity::Transfer`] unless set otherwise.
    pub(crate) fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Switches every optical stage to `fidelity`. Each stage carries the
    /// kernels of both tiers, so switching costs nothing.
    pub(crate) fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.fidelity = fidelity;
    }

    /// Field-level inference of one sample into caller-owned buffers:
    /// zero allocations after warm-up. `logits` is cleared and filled with
    /// the detected class scores.
    ///
    /// This is the hot path [`crate::engine::InferenceEngine`] batches
    /// over; [`DeployedFcnn::forward`] is the allocating convenience
    /// wrapper.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the input length does not match
    /// [`DeployedFcnn::input_dim`].
    pub fn forward_into(
        &self,
        input: &[Complex64],
        buf: &mut ForwardBuffers,
        logits: &mut Vec<f64>,
    ) -> Result<(), Error> {
        if input.len() != self.input_dim() {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim(),
                got: input.len(),
                what: "input fields",
            });
        }
        // A one-sample staged window: the exact walk every batched entry
        // point runs, so per-sample and batched serving stay bitwise
        // interchangeable by construction.
        logits.clear();
        buf.win.cur.clear();
        buf.win.cur.extend_from_slice(input);
        self.forward_staged(&mut buf.win, 1, logits);
        Ok(())
    }

    /// Field-level inference of a *window* of rows `start..end` of a
    /// `[N, D]` complex view through the compiled kernels, into
    /// caller-owned buffers: one [`CompiledLayer::forward_batch_at`] call
    /// per optical stage covers the whole window, instead of re-walking the
    /// stage list per sample. `logits` is cleared and filled row-major
    /// (`(end − start) × logit_dim` detected scores).
    ///
    /// Every sample runs the exact per-sample kernel, so the window is
    /// bitwise identical to `end − start` sequential
    /// [`DeployedFcnn::forward_into`] calls — the property the engine's
    /// sharded serving tests pin.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the view is not rank 2, its
    /// sample width does not match [`DeployedFcnn::input_dim`], or the
    /// window overruns the view.
    pub fn forward_window_into(
        &self,
        inputs: &CTensor,
        start: usize,
        end: usize,
        buf: &mut WindowBuffers,
        logits: &mut Vec<f64>,
    ) -> Result<(), Error> {
        if inputs.shape().len() < 2 {
            return Err(Error::ShapeMismatch {
                expected: 2,
                got: inputs.shape().len(),
                what: "batch rank",
            });
        }
        // `[N, D]` views and `[N, C, H, W]` image views alike: samples are
        // contiguous row-major, so the trailing axes flatten for free.
        let n = inputs.shape()[0];
        let d: usize = inputs.shape()[1..].iter().product();
        if d != self.input_dim() {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim(),
                got: d,
                what: "sample width",
            });
        }
        if start > end {
            // An inverted window: the start is the offending value, not
            // the (possibly in-bounds) end.
            return Err(Error::ShapeMismatch {
                expected: end,
                got: start,
                what: "batch window start",
            });
        }
        if end > n {
            return Err(Error::ShapeMismatch {
                expected: n,
                got: end,
                what: "batch window end",
            });
        }
        logits.clear();
        let samples = end - start;
        if samples == 0 {
            return Ok(());
        }

        // Stage the window: row `s` of the buffer is sample `start + s`.
        let (re, im) = (inputs.re.as_slice(), inputs.im.as_slice());
        let cur = &mut buf.cur;
        cur.clear();
        cur.reserve(samples * d);
        for s in start..end {
            cur.extend(
                re[s * d..(s + 1) * d]
                    .iter()
                    .zip(&im[s * d..(s + 1) * d])
                    .map(|(&a, &b)| Complex64::new(a as f64, b as f64)),
            );
        }
        self.forward_staged(buf, samples, logits);
        Ok(())
    }

    /// Field-level inference of `rows.len() / input_dim` samples given as
    /// one contiguous row-major complex slice — the *borrowed-batch* entry
    /// point the serving front end's micro-batcher drives: the batcher
    /// stages client samples into one flat buffer and the engine serves it
    /// directly, with no intermediate tensor copy or `f32` round trip.
    /// `logits` is cleared and filled row-major.
    ///
    /// Runs the exact staged window walk of
    /// [`DeployedFcnn::forward_window_into`], so results are bitwise
    /// identical to the per-sample and tensor-view paths.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `rows.len()` is not a multiple
    /// of [`DeployedFcnn::input_dim`].
    pub fn forward_rows_into(
        &self,
        rows: &[Complex64],
        buf: &mut WindowBuffers,
        logits: &mut Vec<f64>,
    ) -> Result<(), Error> {
        let d = self.input_dim();
        if d == 0 || !rows.len().is_multiple_of(d) {
            return Err(Error::ShapeMismatch {
                expected: d,
                got: rows.len(),
                what: "row fields",
            });
        }
        logits.clear();
        let samples = rows.len() / d;
        if samples == 0 {
            return Ok(());
        }
        buf.cur.clear();
        buf.cur.extend_from_slice(rows);
        self.forward_staged(buf, samples, logits);
        Ok(())
    }

    /// The staged window walk every entry point (batched *and*
    /// per-sample) shares: `buf.cur` holds `samples × input_dim` staged
    /// fields on entry; detected scores are appended to `logits`
    /// row-major. Each optical stage runs one compiled batch kernel
    /// across the whole window — for conv stages, across every im2col
    /// patch row of every sample in the window at once.
    ///
    /// Every stage is timed: one clock read before the first stage and
    /// one after each stage, accumulated into `buf`'s per-stage
    /// [`StageOccupancy`]. Detection is not part of any stage.
    fn forward_staged(&self, buf: &mut WindowBuffers, samples: usize, logits: &mut Vec<f64>) {
        if buf.stages.len() < self.stages.len() {
            buf.stages
                .resize(self.stages.len(), StageOccupancy::default());
        }
        let mut width = self.input_dim();
        let mut clock = Instant::now();
        for (i, stage) in self.stages.iter().enumerate() {
            width = stage.apply(buf, width, samples, self.fidelity);
            let now = Instant::now();
            let occ = &mut buf.stages[i];
            occ.windows += 1;
            occ.busy_nanos += now.duration_since(clock).as_nanos() as u64;
            clock = now;
        }
        for row in buf.cur.chunks_exact(width.max(1)) {
            detect(self.detection, row, logits);
        }
    }

    /// Field-level inference of one sample (already complex-assigned,
    /// flattened). Returns the detected logits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the input length does not match
    /// the first stage fan-in minus the bias mode.
    pub fn try_forward(&self, input: &[Complex64]) -> Result<Vec<f64>, Error> {
        let mut buf = ForwardBuffers::default();
        let mut logits = Vec::new();
        self.forward_into(input, &mut buf, &mut logits)?;
        Ok(logits)
    }

    /// Field-level inference of one sample (already complex-assigned,
    /// flattened). Returns the detected logits.
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match the first stage fan-in
    /// minus the bias mode; see [`DeployedFcnn::try_forward`] for the
    /// fallible form.
    pub fn forward(&self, input: &[Complex64]) -> Vec<f64> {
        // Use the legacy detection math on the shared field pipeline.
        self.try_forward(input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Classifies a batch given as a `[N, D]` complex dataset view;
    /// returns predicted class indices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the view is not rank 2 or `D`
    /// differs from [`DeployedFcnn::input_dim`].
    pub fn try_classify(&self, inputs: &CTensor) -> Result<Vec<usize>, Error> {
        if inputs.shape().len() < 2 {
            return Err(Error::ShapeMismatch {
                expected: 2,
                got: inputs.shape().len(),
                what: "batch rank",
            });
        }
        let n = inputs.shape()[0];
        let d: usize = inputs.shape()[1..].iter().product();
        let (re, im) = (inputs.re.as_slice(), inputs.im.as_slice());
        let mut buf = ForwardBuffers::default();
        let mut sample = Vec::with_capacity(d);
        let mut logits = Vec::new();
        (0..n)
            .map(|i| {
                sample.clear();
                sample.extend(
                    re[i * d..(i + 1) * d]
                        .iter()
                        .zip(&im[i * d..(i + 1) * d])
                        .map(|(&a, &b)| Complex64::new(a as f64, b as f64)),
                );
                self.forward_into(&sample, &mut buf, &mut logits)?;
                Ok(argmax(&logits))
            })
            .collect()
    }

    /// Classifies a batch given as a complex dataset view; returns
    /// predicted class indices.
    ///
    /// # Panics
    ///
    /// Panics if the sample width does not match the mesh fan-in; see
    /// [`DeployedFcnn::try_classify`] for the fallible form (and
    /// [`crate::engine::InferenceEngine::classify`] for the buffered
    /// serving path).
    pub fn classify(&self, inputs: &CTensor) -> Vec<usize> {
        self.try_classify(inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Classification accuracy of the deployed hardware on a labelled view.
    ///
    /// # Panics
    ///
    /// Panics if the sample width does not match the mesh fan-in (see
    /// [`DeployedFcnn::try_classify`]).
    pub fn accuracy(&self, inputs: &CTensor, labels: &[usize]) -> f64 {
        let preds = self.classify(inputs);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / labels.len() as f64
    }

    /// Total device inventory of the deployed pipeline (electronic stages
    /// — pooling, activations — contribute none).
    pub fn device_count(&self) -> DeviceCount {
        self.stages
            .iter()
            .filter_map(|s| s.optical())
            .map(|layer| layer.device_count())
            .sum()
    }

    /// Injects Gaussian phase noise into every mesh (thermal crosstalk /
    /// fabrication imprecision study) and recompiles the affected kernels,
    /// transfer matrices included, so both fidelity tiers see the
    /// perturbed phases. Electronic stages (pooling) carry no phases and
    /// are untouched.
    pub fn inject_phase_noise<R: Rng>(&mut self, sigma: f64, rng: &mut R) {
        for stage in &mut self.stages {
            let (layer, compiled) = match stage {
                DeployedStage::Mesh(st) => (&mut st.layer, &mut st.compiled),
                DeployedStage::Conv(st) => (&mut st.layer, &mut st.compiled),
                DeployedStage::Pool(_) => continue,
            };
            let (v, u) = layer.meshes_mut();
            *v = v.with_phase_noise(sigma, rng);
            *u = u.with_phase_noise(sigma, rng);
            *compiled = CompiledLayer::compile(layer);
        }
    }

    /// Applies one random-walk drift step to every mesh phase and
    /// recompiles the affected kernels, transfer matrices included. Unlike
    /// [`DeployedFcnn::inject_phase_noise`] inside a scoped session, drift
    /// *accumulates*: each call moves the deployment further from its
    /// calibrated point, and the only way back is re-deploying from clean
    /// weights (the hot-swap recalibration path). Electronic stages carry
    /// no phases and are untouched.
    pub fn drift_step(&mut self, drift: &mut oplix_photonics::PhaseDrift) {
        for stage in &mut self.stages {
            let (layer, compiled) = match stage {
                DeployedStage::Mesh(st) => (&mut st.layer, &mut st.compiled),
                DeployedStage::Conv(st) => (&mut st.layer, &mut st.compiled),
                DeployedStage::Pool(_) => continue,
            };
            let (v, u) = layer.meshes_mut();
            drift.step_mesh(v);
            drift.step_mesh(u);
            *compiled = CompiledLayer::compile(layer);
        }
    }

    /// The deployed stages, for engine-internal phase bookkeeping.
    pub(crate) fn stages_vec(&self) -> &Vec<DeployedStage> {
        &self.stages
    }

    /// Mutable deployed stages, for engine-internal phase restoration.
    pub(crate) fn stages_vec_mut(&mut self) -> &mut Vec<DeployedStage> {
        &mut self.stages
    }

    /// Number of deployed stages (mesh, conv and pooling stages alike).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of stages carrying photonic hardware (dense meshes and
    /// lowered convolutions; pooling is electronic) — also the number of
    /// SVD decompositions a cold deployment performs, which is what the
    /// deployment-cache tests count hits against.
    pub fn num_optical_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.optical().is_some()).count()
    }

    /// Total static heater power over every programmable phase of every
    /// mesh, in milliwatts, plus the number of phases (see
    /// [`oplix_photonics::power`]).
    pub fn static_power_mw(&self, max_mw: f64) -> (f64, usize) {
        use oplix_photonics::power::mesh_static_power_mw;
        let mut total = 0.0;
        let mut phases = 0usize;
        for layer in self.stages.iter().filter_map(|s| s.optical()) {
            for mesh in [layer.v_mesh(), layer.u_mesh()] {
                total += mesh_static_power_mw(mesh, max_mw);
                phases += mesh.phases().len();
            }
        }
        (total, phases)
    }

    /// Per-chip physical budget report of the deployed pipeline, one entry
    /// per stage in stage order, under the silicon platform defaults
    /// ([`OpticalLossModel::silicon_defaults`]). Each optical stage is one
    /// physical chip (two MZI meshes plus attenuators); its worst-path
    /// insertion loss and time-of-flight latency are the sums over both
    /// meshes. Electronic stages (pooling) report zeros.
    ///
    /// Computed once at deployment, so this is a copy, cheap enough to
    /// call after every served batch.
    pub fn chip_reports(&self) -> Vec<ChipReport> {
        self.chips.clone()
    }

    /// [`DeployedFcnn::chip_reports`] under an explicit platform model.
    pub fn chip_reports_with(&self, model: &OpticalLossModel) -> Vec<ChipReport> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                let mut report = ChipReport {
                    stage: i,
                    optical: false,
                    input_width: stage.input_width(),
                    output_width: stage.output_width(),
                    mesh_depth: 0,
                    insertion_loss_db: 0.0,
                    latency_ps: 0.0,
                };
                if let Some(layer) = stage.optical() {
                    report.optical = true;
                    for mesh in [layer.v_mesh(), layer.u_mesh()] {
                        report.mesh_depth += mesh.depth();
                        report.insertion_loss_db += model.worst_path_loss_db(mesh);
                        report.latency_ps += model.latency_ps(mesh);
                    }
                }
                report
            })
            .collect()
    }
}

/// Dynamic per-stage counters of the staged walk: how many windows a
/// stage (chip) processed and how long it was busy. The *occupancy* half
/// of the multi-chip report; the static physics half is [`ChipReport`].
/// Every walk fills them, whether sequential, sharded or served; a
/// sharded engine sums them over its workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Sample windows this stage processed.
    pub windows: u64,
    /// Nanoseconds this stage spent transforming windows.
    pub busy_nanos: u64,
}

impl StageOccupancy {
    /// Adds `other`'s windows and busy time into these.
    pub(crate) fn absorb(&mut self, other: StageOccupancy) {
        self.windows += other.windows;
        self.busy_nanos += other.busy_nanos;
    }
}

/// Static per-chip physical budget of one deployed stage under an
/// [`OpticalLossModel`]: worst-path insertion loss and time-of-flight
/// latency summed over the stage's two MZI meshes (V then U), plus its
/// geometry. Electronic stages (pooling) are listed with `optical:
/// false` and zero optical figures, so the report covers the whole
/// pipeline in stage order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChipReport {
    /// Stage index in the deployed pipeline.
    pub stage: usize,
    /// Whether this stage carries photonic hardware.
    pub optical: bool,
    /// Flattened field count a sample presents to this stage.
    pub input_width: usize,
    /// Flattened field count a sample leaves this stage with.
    pub output_width: usize,
    /// MZI columns light traverses, summed over both meshes.
    pub mesh_depth: usize,
    /// Worst-path insertion loss in dB, summed over both meshes.
    pub insertion_loss_db: f64,
    /// Time-of-flight latency in picoseconds, summed over both meshes.
    pub latency_ps: f64,
}

// ---------------------------------------------------------------------------
// Deployment cache
// ---------------------------------------------------------------------------

/// Which layer kind a cached decomposition belongs to. Dense and conv
/// entries are keyed apart even when their augmented matrices carry
/// identical bits, so the two families can never share (or evict through)
/// one another's cache slots by bit coincidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum KeyKind {
    /// A dense layer's `[out, in + 1]` augmented weight.
    Dense,
    /// A conv layer's `[out_ch, patch_len + 1]` im2col kernel matrix.
    Conv,
}

/// Cache key of one SVD decomposition: layer kind + architecture
/// (dimensions + mesh style) plus the *exact* bit pattern of every
/// augmented weight. Keying on the full bits — not a digest — makes false
/// hits impossible: equal keys imply equal matrices imply an identical
/// decomposition.
#[derive(PartialEq, Eq, Hash)]
struct DecompositionKey {
    kind: KeyKind,
    rows: usize,
    cols: usize,
    style: u8,
    weight_bits: Vec<(u64, u64)>,
}

impl DecompositionKey {
    fn new(w: &CMatrix, style: MeshStyle, kind: KeyKind) -> Self {
        let mut weight_bits = Vec::with_capacity(w.rows() * w.cols());
        for i in 0..w.rows() {
            for j in 0..w.cols() {
                let z = w[(i, j)];
                weight_bits.push((z.re.to_bits(), z.im.to_bits()));
            }
        }
        DecompositionKey {
            kind,
            rows: w.rows(),
            cols: w.cols(),
            style: match style {
                MeshStyle::Clements => 0,
                MeshStyle::Reck => 1,
            },
            weight_bits,
        }
    }

    /// Approximate resident size of the key itself (dominated by the
    /// exact weight bits).
    fn approx_bytes(&self) -> usize {
        self.weight_bits.len() * std::mem::size_of::<(u64, u64)>() + std::mem::size_of::<Self>()
    }
}

/// What the deployment cache stores per decomposition: the hardware
/// description (meshes + attenuators) *and* its compiled kernel with the
/// derived transfer matrix, so a cache hit skips the SVD decomposition,
/// the coefficient bake and the transfer derivation.
#[derive(Clone, Debug)]
struct DeployedKernels {
    layer: PhotonicLayer,
    compiled: CompiledLayer,
}

impl DeployedKernels {
    fn decompose(w: &CMatrix, style: MeshStyle) -> Self {
        let layer = PhotonicLayer::from_matrix(w, style);
        let compiled = CompiledLayer::compile(&layer);
        DeployedKernels { layer, compiled }
    }

    fn into_stage(self, pad_input: bool, relu_after: bool) -> OpticalStage {
        OpticalStage {
            layer: self.layer,
            compiled: self.compiled,
            pad_input,
            relu_after,
        }
    }

    /// Approximate resident size: meshes (phases dominate) plus the
    /// compiled coefficient arrays and transfer matrix.
    fn approx_bytes(&self) -> usize {
        let mesh_bytes = |m: &oplix_photonics::mesh::MziMesh| {
            m.mzi_count() * std::mem::size_of::<oplix_photonics::devices::Mzi>()
                + m.n() * std::mem::size_of::<f64>()
        };
        mesh_bytes(self.layer.v_mesh())
            + mesh_bytes(self.layer.u_mesh())
            + self.layer.attenuators().len() * std::mem::size_of::<f64>()
            + self.compiled.approx_bytes()
            + std::mem::size_of::<Self>()
    }
}

/// Hit/miss/occupancy counters of the process-wide deployment cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeployCacheStats {
    /// Decompositions served from the cache.
    pub hits: u64,
    /// Decompositions computed fresh (and, once admitted, inserted).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted by the LRU policy since process start (survives
    /// [`clear_deploy_cache`]).
    pub evictions: u64,
    /// Approximate bytes currently resident (keys + meshes + compiled
    /// kernels and their transfer matrices).
    pub resident_bytes: usize,
}

/// Memory budget of the deployment cache. Least-recently-used entries are
/// evicted once the *approximate* resident footprint (keys, meshes and
/// compiled kernels) exceeds this, so unbounded architecture sweeps see a
/// bounded cache instead of the old hard insertion cutoff.
const DEPLOY_CACHE_MAX_BYTES: usize = 64 << 20;

/// Doorkeeper saturation: past this many one-sight fingerprints the
/// filter stops admitting-by-history (every key admits on first sight)
/// rather than silently disabling admission — the LRU budget still bounds
/// memory.
const DEPLOY_SEEN_CAP: usize = 8192;

/// The LRU deployment cache: a hash map for lookups plus a recency index
/// (monotonic tick → key) for eviction order, with per-entry byte
/// accounting. Kept as a plain struct (not the global) so the eviction
/// policy is unit-testable without racing the process-wide instance.
struct LruDeployCache {
    budget_bytes: usize,
    map: HashMap<Arc<DecompositionKey>, CacheSlot>,
    recency: BTreeMap<u64, Arc<DecompositionKey>>,
    tick: u64,
    resident_bytes: usize,
    evictions: u64,
}

struct CacheSlot {
    value: Arc<DeployedKernels>,
    bytes: usize,
    tick: u64,
}

impl LruDeployCache {
    fn new(budget_bytes: usize) -> Self {
        LruDeployCache {
            budget_bytes,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            resident_bytes: 0,
            evictions: 0,
        }
    }

    /// Looks up a key and, on a hit, marks it most-recently-used.
    fn get(&mut self, key: &DecompositionKey) -> Option<Arc<DeployedKernels>> {
        let shared_key = Arc::clone(self.map.get_key_value(key)?.0);
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.get_mut(&shared_key).expect("present");
        self.recency.remove(&slot.tick);
        slot.tick = tick;
        self.recency.insert(tick, shared_key);
        Some(Arc::clone(&slot.value))
    }

    /// Inserts an entry (idempotent), charging its approximate bytes and
    /// evicting least-recently-used entries until the budget holds. An
    /// entry larger than the whole budget is not cached at all.
    fn insert(&mut self, key: DecompositionKey, value: Arc<DeployedKernels>) {
        if self.map.contains_key(&key) {
            return; // a concurrent deployment inserted it first
        }
        let bytes = key.approx_bytes() + value.approx_bytes();
        if bytes > self.budget_bytes {
            return;
        }
        while self.resident_bytes + bytes > self.budget_bytes {
            if !self.evict_lru() {
                break;
            }
        }
        self.tick += 1;
        let key = Arc::new(key);
        self.recency.insert(self.tick, Arc::clone(&key));
        self.map.insert(
            key,
            CacheSlot {
                value,
                bytes,
                tick: self.tick,
            },
        );
        self.resident_bytes += bytes;
    }

    /// Evicts the least-recently-used entry; false when empty.
    fn evict_lru(&mut self) -> bool {
        let Some((_, key)) = self.recency.pop_first() else {
            return false;
        };
        let slot = self.map.remove(&key).expect("recency tracks map");
        self.resident_bytes -= slot.bytes;
        self.evictions += 1;
        true
    }

    /// Drops every entry (the eviction counter keeps running — clearing
    /// is not evicting).
    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.resident_bytes = 0;
    }
}

static DEPLOY_CACHE: OnceLock<Mutex<LruDeployCache>> = OnceLock::new();
/// Admission doorkeeper: 8-byte fingerprints of keys decomposed exactly
/// once. A full (weights + meshes + compiled kernel) entry is only
/// inserted when the same key is decomposed a *second* time, so one-shot
/// deployments — an experiment grid where every trained arm has unique
/// weights — retain 8 bytes per architecture instead of a full entry. A
/// fingerprint collision merely admits an entry one sight early;
/// correctness never depends on the fingerprint.
static DEPLOY_SEEN: OnceLock<Mutex<HashSet<u64>>> = OnceLock::new();
static DEPLOY_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static DEPLOY_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_CACHE_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static THREAD_CACHE_MISSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Deploy-cache (hits, misses) as observed *from the calling thread*.
/// The router's register path brackets a deployment with this to decide
/// whether the registration was served entirely from cache — the global
/// counters race with concurrent deployments on other threads, this
/// probe cannot.
pub(crate) fn thread_cache_counts() -> (u64, u64) {
    (THREAD_CACHE_HITS.get(), THREAD_CACHE_MISSES.get())
}

fn deploy_cache() -> &'static Mutex<LruDeployCache> {
    DEPLOY_CACHE.get_or_init(|| Mutex::new(LruDeployCache::new(DEPLOY_CACHE_MAX_BYTES)))
}

fn deploy_seen() -> &'static Mutex<HashSet<u64>> {
    DEPLOY_SEEN.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Marks a key as seen; returns whether the full cache should admit it.
fn seen_before(key: &DecompositionKey) -> bool {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    let fp = h.finish();
    let mut seen = deploy_seen().lock().expect("deploy doorkeeper");
    if seen.contains(&fp) {
        true
    } else if seen.len() < DEPLOY_SEEN_CAP {
        seen.insert(fp);
        false
    } else {
        true
    }
}

/// Current counters of the process-wide deployment cache.
pub fn deploy_cache_stats() -> DeployCacheStats {
    let cache = deploy_cache().lock().expect("deploy cache");
    DeployCacheStats {
        hits: DEPLOY_CACHE_HITS.load(Ordering::Relaxed),
        misses: DEPLOY_CACHE_MISSES.load(Ordering::Relaxed),
        entries: cache.map.len(),
        evictions: cache.evictions,
        resident_bytes: cache.resident_bytes,
    }
}

/// Drops every cached decomposition and the admission doorkeeper
/// (counters keep running). Useful for benchmarks that want to measure
/// the cold path.
pub fn clear_deploy_cache() {
    deploy_cache().lock().expect("deploy cache").clear();
    deploy_seen().lock().expect("deploy doorkeeper").clear();
}

/// The memoised front door to SVD decomposition + kernel compilation:
/// repeated deployments of the same weights (grid sweeps, repeated
/// `DeployStage` runs on one trained body) skip both the decomposition
/// and the coefficient bake and clone the cached kernels instead —
/// cloning phase/coefficient arrays is orders of magnitude cheaper than
/// decomposing. Admission is second-sight (see [`DEPLOY_SEEN`]): the
/// first decomposition of a key records only a fingerprint, the second
/// inserts the full entry, the third and later are hits. Residency is
/// bounded by [`DEPLOY_CACHE_MAX_BYTES`] with LRU eviction.
fn decompose_cached(w: &CMatrix, style: MeshStyle, kind: KeyKind) -> DeployedKernels {
    let key = DecompositionKey::new(w, style, kind);
    // Values are `Arc`ed so the critical section is a refcount bump plus
    // a recency touch; the (cheap-but-not-free) coefficient-array clone
    // happens outside the lock and concurrent grid-arm deployments never
    // serialise behind it.
    let hit = deploy_cache().lock().expect("deploy cache").get(&key);
    if let Some(kernels) = hit {
        DEPLOY_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        THREAD_CACHE_HITS.set(THREAD_CACHE_HITS.get() + 1);
        return (*kernels).clone();
    }
    // Decompose outside the lock: a miss is the expensive path, and other
    // deployments should not serialise behind it.
    let kernels = DeployedKernels::decompose(w, style);
    DEPLOY_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    THREAD_CACHE_MISSES.set(THREAD_CACHE_MISSES.get() + 1);
    if seen_before(&key) {
        // Clone outside the lock, like the hit path: holding the global
        // mutex across a mesh deep-clone would serialise concurrent
        // deployments behind this insert.
        let entry = Arc::new(kernels.clone());
        deploy_cache()
            .lock()
            .expect("deploy cache")
            .insert(key, entry);
    }
    kernels
}

fn deploy_dense(
    dense: &CDense,
    index: usize,
    style: MeshStyle,
) -> Result<DeployedKernels, DeployError> {
    let (w_re, w_im) = dense.weight();
    let (b_re, b_im) = dense.bias();
    all_finite([w_re, w_im, b_re, b_im], index)?;
    let (m, n) = (dense.n_out(), dense.n_in());
    // Homogeneous augmentation: last column is the bias.
    let aug = CMatrix::from_fn(m, n + 1, |i, j| {
        if j < n {
            Complex64::new(w_re.at2(i, j) as f64, w_im.at2(i, j) as f64)
        } else {
            Complex64::new(b_re.as_slice()[i] as f64, b_im.as_slice()[i] as f64)
        }
    });
    Ok(decompose_cached(&aug, style, KeyKind::Dense))
}

/// [`DeployError::NonFiniteWeight`] for layer `index` unless every value
/// of `tensors` is finite: a NaN would run the SVD to its sweep limit and
/// then panic sorting the singular values, and an infinity would deploy
/// with an infinite gain.
fn all_finite(tensors: [&Tensor; 4], index: usize) -> Result<(), DeployError> {
    if tensors
        .iter()
        .all(|t| t.as_slice().iter().all(|v| v.is_finite()))
    {
        Ok(())
    } else {
        Err(DeployError::NonFiniteWeight { index })
    }
}

/// Lowers one convolution onto a mesh through the im2col view: the
/// `[out_ch, C·k·k + 1]` kernel matrix (bias in the last column) maps
/// through the cached SVD path exactly like a dense layer, and the
/// [`ConvGeometry`] tells both fidelity tiers which input field each patch
/// tap reads.
fn deploy_conv(
    conv: &CConv2d,
    index: usize,
    c: usize,
    h: usize,
    w: usize,
    style: MeshStyle,
) -> Result<ConvStage, DeployError> {
    let (in_ch, out_ch, kernel, stride, pad) = conv.geometry();
    if c != in_ch || h + 2 * pad < kernel || w + 2 * pad < kernel {
        return Err(DeployError::Geometry { index });
    }
    let patch = conv.patch_len();
    let (w_re, w_im) = conv.weight();
    let (b_re, b_im) = conv.bias();
    all_finite([w_re, w_im, b_re, b_im], index)?;
    let (ws_re, ws_im) = (w_re.as_slice(), w_im.as_slice());
    // The kernel's `[O, C, k, k]` storage is row-major, so row `o` of the
    // im2col kernel matrix is the contiguous slice `ws[o·patch ..]` in the
    // same `(c, ky, kx)` tap order both tiers walk.
    let aug = CMatrix::from_fn(out_ch, patch + 1, |o, q| {
        if q < patch {
            Complex64::new(ws_re[o * patch + q] as f64, ws_im[o * patch + q] as f64)
        } else {
            Complex64::new(b_re.as_slice()[o] as f64, b_im.as_slice()[o] as f64)
        }
    });
    let kernels = decompose_cached(&aug, style, KeyKind::Conv);
    Ok(ConvStage {
        layer: kernels.layer,
        compiled: kernels.compiled,
        geometry: ConvGeometry {
            channels: c,
            height: h,
            width: w,
            kernel,
            stride,
            pad,
        },
        relu_after: false,
    })
}

/// Builds the electronic average-pooling stage: `k²` flat input taps per
/// output feature, in the software layer's `(c, oy, ox)` output order.
fn deploy_pool(c: usize, h: usize, w: usize, k: usize) -> PoolStage {
    let (ho, wo) = (h / k, w / k);
    let mut taps = Vec::with_capacity(c * ho * wo * k * k);
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                for dy in 0..k {
                    for dx in 0..k {
                        taps.push(((ch * h + oy * k + dy) * w + ox * k + dx) as u32);
                    }
                }
            }
        }
    }
    PoolStage {
        taps: Arc::new(taps),
        k2: k * k,
        in_features: c * h * w,
        out_features: c * ho * wo,
        relu_after: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    use oplix_nn::tensor::Tensor;
    use oplix_photonics::decoder::DecoderKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_view(n: usize, d: usize, seed: u64) -> CTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        CTensor::new(
            Tensor::random_uniform(&[n, d], 1.0, &mut rng),
            Tensor::random_uniform(&[n, d], 1.0, &mut rng),
        )
    }

    #[test]
    fn deployed_logits_match_software() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 5,
            classes: 2,
        };
        let mut net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        assert_eq!(deployed.num_stages(), 2);

        let view = random_view(4, 6, 2);
        let soft = net.forward(&view, false);
        for i in 0..4 {
            let sample: Vec<Complex64> = (0..6)
                .map(|j| Complex64::new(view.re.at2(i, j) as f64, view.im.at2(i, j) as f64))
                .collect();
            let optical = deployed.forward(&sample);
            for k in 0..2 {
                let s = soft.at2(i, k) as f64;
                assert!(
                    (optical[k] - s).abs() < 1e-3,
                    "sample {i} class {k}: optical {} vs software {s}",
                    optical[k]
                );
            }
        }
    }

    #[test]
    fn deployed_accuracy_matches_software_predictions() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = FcnnConfig {
            input: 4,
            hidden: 6,
            classes: 3,
        };
        let mut net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Reck)
                .expect("deployable");
        let view = random_view(8, 4, 4);
        let soft = net.forward(&view, false);
        let hard = deployed.classify(&view);
        for i in 0..8 {
            let row: Vec<f64> = (0..3).map(|k| soft.at2(i, k) as f64).collect();
            assert_eq!(hard[i], argmax(&row), "sample {i}");
        }
    }

    #[test]
    fn intensity_detection_for_conventional_onn() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = FcnnConfig {
            input: 4,
            hidden: 4,
            classes: 2,
        };
        let mut net = build_fcnn(&cfg, ModelVariant::ConventionalOnn, &mut rng);
        let deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Intensity, MeshStyle::Clements)
                .expect("deployable");
        let view = CTensor::from_re(Tensor::random_uniform(&[3, 4], 1.0, &mut rng));
        let soft = net.forward(&view, false);
        for i in 0..3 {
            let sample: Vec<Complex64> = (0..4)
                .map(|j| Complex64::new(view.re.at2(i, j) as f64, 0.0))
                .collect();
            let optical = deployed.forward(&sample);
            for k in 0..2 {
                assert!((optical[k] - soft.at2(i, k) as f64).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn cached_chip_reports_match_a_fresh_derivation_through_noise_and_drift() {
        use crate::engine::InferenceEngine;
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 7,
            classes: 2,
        };
        let net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let mut engine = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deployable");
        let silicon = OpticalLossModel::silicon_defaults();
        let fresh = |d: &DeployedFcnn| d.chip_reports_with(&silicon);
        let deployed_reports = engine.deployed().chip_reports();
        assert_eq!(deployed_reports, fresh(engine.deployed()));
        {
            let session = engine.noise_session(0.3, &mut rng);
            let d = session.deployed();
            assert_eq!(d.chip_reports(), fresh(d), "inside a noise session");
        }
        assert_eq!(
            engine.deployed().chip_reports(),
            fresh(engine.deployed()),
            "after the noise session drops"
        );
        let mut drift = oplix_photonics::PhaseDrift::new(0.05, 22);
        for step in 0..3 {
            engine.drift_step(&mut drift);
            let d = engine.deployed();
            assert_eq!(d.chip_reports(), fresh(d), "after drift step {step}");
        }
        assert_eq!(engine.deployed().chip_reports(), deployed_reports);
    }

    #[test]
    fn chip_reports_sum_losses_over_optical_stages() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 5,
            classes: 2,
        };
        let net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        let reports = deployed.chip_reports();
        assert_eq!(reports.len(), deployed.num_stages());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.stage, i);
            if r.optical {
                assert!(r.mesh_depth > 0, "stage {i}: a mesh has depth");
                assert!(r.insertion_loss_db > 0.0, "stage {i}: loss budget");
                assert!(r.latency_ps > 0.0, "stage {i}: optical latency");
            } else {
                assert_eq!(r.insertion_loss_db, 0.0, "stage {i} is electronic");
            }
        }
        // The default platform is the silicon one; an explicit lossier
        // platform scales every optical budget up.
        let lossier = OpticalLossModel {
            mzi_loss_db: 1.0,
            ..OpticalLossModel::silicon_defaults()
        };
        let worse = deployed.chip_reports_with(&lossier);
        for (a, b) in reports.iter().zip(&worse) {
            if a.optical {
                assert!(b.insertion_loss_db > a.insertion_loss_db);
            }
        }
    }

    #[test]
    fn phase_noise_degrades_agreement() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 6,
            classes: 2,
        };
        let net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let mut deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        let sample: Vec<Complex64> = (0..6)
            .map(|j| Complex64::new(0.1 * j as f64, 0.05))
            .collect();
        let clean = deployed.forward(&sample);
        deployed.inject_phase_noise(0.3, &mut rng);
        let noisy = deployed.forward(&sample);
        let diff: f64 = clean.iter().zip(&noisy).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "noise had no effect");
    }

    #[test]
    fn odd_differential_output_is_rejected() {
        // 5 classes through a ConventionalOnn body: the optical output is
        // 5 wide, which differential detection cannot pair.
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = FcnnConfig {
            input: 4,
            hidden: 4,
            classes: 5,
        };
        let net = build_fcnn(&cfg, ModelVariant::ConventionalOnn, &mut rng);
        let err =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect_err("odd width must not deploy differentially");
        assert_eq!(err, DeployError::OddDifferentialOutput { width: 5 });
        // The correct detection for this family still deploys.
        assert!(DeployedFcnn::from_network(
            &net,
            DeployedDetection::Intensity,
            MeshStyle::Clements
        )
        .is_ok());
    }

    #[test]
    fn deployment_cache_hit_equals_fresh_decomposition() {
        let mut rng = StdRng::seed_from_u64(90_001); // weights unique to this test
        let w = CMatrix::from_fn(5, 4, |_, _| {
            use rand::Rng;
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let before = deploy_cache_stats();
        let fresh = decompose_cached(&w, MeshStyle::Clements, KeyKind::Dense);
        let admitted = decompose_cached(&w, MeshStyle::Clements, KeyKind::Dense); // second sight: inserts
        let cached = decompose_cached(&w, MeshStyle::Clements, KeyKind::Dense); // third: a hit
        let after = deploy_cache_stats();
        // Counters are process-global (other tests run concurrently), so
        // assert deltas as lower bounds.
        assert!(after.misses > before.misses, "first two calls must miss");
        assert!(after.hits > before.hits, "third call must hit");
        assert_eq!(
            fresh.layer.matrix().max_abs_diff(&admitted.layer.matrix()),
            0.0
        );
        // The cached kernels must be *equal* to a fresh decomposition:
        // same implemented matrix, bitwise-identical forward fields,
        // interpreted or compiled.
        assert_eq!(
            fresh.layer.matrix().max_abs_diff(&cached.layer.matrix()),
            0.0
        );
        let x: Vec<Complex64> = (0..4)
            .map(|j| Complex64::new(0.3 * j as f64, -0.1))
            .collect();
        assert_eq!(fresh.layer.forward(&x), cached.layer.forward(&x));
        let mut compiled_out = x.clone();
        let mut tmp = Vec::new();
        cached.compiled.forward_into(&mut compiled_out, &mut tmp);
        assert_eq!(compiled_out, cached.layer.forward(&x));
    }

    #[test]
    fn deployment_cache_distinguishes_style_and_weights() {
        let mut rng = StdRng::seed_from_u64(90_002);
        let w = CMatrix::from_fn(3, 3, |_, _| {
            use rand::Rng;
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let before = deploy_cache_stats();
        let _ = decompose_cached(&w, MeshStyle::Clements, KeyKind::Dense);
        let _ = decompose_cached(&w, MeshStyle::Reck, KeyKind::Dense); // different style: miss
        let bumped = w.scale(Complex64::from_real(1.0 + 1e-12));
        let _ = decompose_cached(&bumped, MeshStyle::Clements, KeyKind::Dense); // different bits: miss
        let after = deploy_cache_stats();
        assert!(after.misses >= before.misses + 3, "all three must miss");
    }

    #[test]
    fn repeated_from_network_reuses_decompositions() {
        let mut rng = StdRng::seed_from_u64(90_003);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 5,
            classes: 2,
        };
        let net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let first =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        // Second-sight admission: the repeat deployment populates the
        // cache, the one after that is served from it.
        let _admit =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        let before = deploy_cache_stats();
        let second =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        let after = deploy_cache_stats();
        assert!(
            after.hits >= before.hits + first.num_stages() as u64,
            "every stage of the third deployment must be a cache hit"
        );
        // Both deployments classify identically.
        let view = random_view(6, 6, 90_004);
        assert_eq!(first.classify(&view), second.classify(&view));
    }

    #[test]
    fn device_count_includes_bias_modes() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 5,
            classes: 2,
        };
        let net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        // Stage 1: 5 x 7 (bias mode), stage 2: 4 x 6.
        let expect = oplix_photonics::mzi_count(5, 7) + oplix_photonics::mzi_count(4, 6);
        assert_eq!(deployed.device_count().mzis, expect);
    }

    #[test]
    fn forward_window_matches_per_sample_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(90_010);
        let cfg = FcnnConfig {
            input: 6,
            hidden: 5,
            classes: 2,
        };
        let net = build_fcnn(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
        let deployed =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect("deployable");
        let view = random_view(9, 6, 90_011);
        let mut window = WindowBuffers::default();
        let mut window_logits = Vec::new();
        deployed
            .forward_window_into(&view, 2, 8, &mut window, &mut window_logits)
            .expect("window");
        let k = deployed.logit_dim();
        assert_eq!(window_logits.len(), 6 * k);
        for (r, row) in window_logits.chunks_exact(k).enumerate() {
            let i = 2 + r;
            let sample: Vec<Complex64> = (0..6)
                .map(|j| Complex64::new(view.re.at2(i, j) as f64, view.im.at2(i, j) as f64))
                .collect();
            assert_eq!(row, deployed.forward(&sample).as_slice(), "row {i}");
        }
        // Empty windows and overruns behave like the sequential path.
        deployed
            .forward_window_into(&view, 3, 3, &mut window, &mut window_logits)
            .expect("empty window is fine");
        assert!(window_logits.is_empty());
        assert!(deployed
            .forward_window_into(&view, 5, 10, &mut window, &mut window_logits)
            .is_err());
    }

    fn tiny_kernels(seed: u64) -> (DecompositionKey, Arc<DeployedKernels>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = CMatrix::from_fn(2, 2, |_, _| {
            use rand::Rng;
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        (
            DecompositionKey::new(&w, MeshStyle::Clements, KeyKind::Dense),
            Arc::new(DeployedKernels::decompose(&w, MeshStyle::Clements)),
        )
    }

    #[test]
    fn lru_cache_evicts_least_recently_used_within_byte_budget() {
        let (key0, val0) = tiny_kernels(91_000);
        let entry_bytes = key0.approx_bytes() + val0.approx_bytes();
        // Room for exactly three entries.
        let mut cache = LruDeployCache::new(3 * entry_bytes + entry_bytes / 2);
        let (key1, val1) = tiny_kernels(91_001);
        let (key2, val2) = tiny_kernels(91_002);
        let (key3, val3) = tiny_kernels(91_003);
        cache.insert(key0, val0);
        cache.insert(key1, val1);
        cache.insert(key2, val2);
        assert_eq!(cache.map.len(), 3);
        assert_eq!(cache.evictions, 0);
        assert!(cache.resident_bytes > 0 && cache.resident_bytes <= cache.budget_bytes);

        // Touch entry 0 so entry 1 becomes the LRU, then overflow.
        let (probe0, _) = tiny_kernels(91_000);
        assert!(
            cache.get(&probe0).is_some(),
            "entry 0 must still be resident"
        );
        cache.insert(key3, val3);
        assert_eq!(cache.evictions, 1, "the fourth insert must evict one entry");
        assert_eq!(cache.map.len(), 3);
        let (probe1, _) = tiny_kernels(91_001);
        assert!(
            cache.get(&probe1).is_none(),
            "the least-recently-used entry (1) must be the one evicted"
        );
        assert!(
            cache.get(&probe0).is_some(),
            "recently-touched entry survives"
        );
        assert!(
            cache.resident_bytes <= cache.budget_bytes,
            "byte accounting must stay within budget"
        );
    }

    #[test]
    fn lru_cache_refuses_oversized_entries_and_survives_clear() {
        let (key, val) = tiny_kernels(91_010);
        let mut cache = LruDeployCache::new(1); // budget smaller than any entry
        cache.insert(key, val);
        assert!(cache.map.is_empty(), "oversized entries are not cached");

        let (key, val) = tiny_kernels(91_011);
        let bytes = key.approx_bytes() + val.approx_bytes();
        let mut cache = LruDeployCache::new(8 * bytes);
        cache.insert(key, val);
        assert_eq!(cache.resident_bytes, bytes);
        cache.clear();
        assert_eq!(cache.resident_bytes, 0);
        assert_eq!(cache.map.len(), 0);
        assert_eq!(cache.recency.len(), 0);
    }

    /// A small pool-free CNN body: conv(1→2, 3×3, same) → ReLU → flatten
    /// → dense classifier, with the merge head (2 classes).
    fn tiny_cnn(seed: u64) -> Network {
        use oplix_nn::head::MergeHead;
        use oplix_nn::layers::{CConv2d, CFlatten, CRelu, CSequential};
        let mut rng = StdRng::seed_from_u64(seed);
        let body = CSequential::new()
            .push(CConv2d::new(1, 2, 3, 1, 1, &mut rng))
            .push(CRelu::new())
            .push(CFlatten::new())
            .push(oplix_nn::layers::CDense::new(2 * 4 * 4, 4, &mut rng));
        Network::new(body, Box::new(MergeHead::new()))
    }

    #[test]
    fn conv_body_deploys_and_matches_software_logits() {
        let mut net = tiny_cnn(95_001);
        let deployed = DeployedFcnn::from_network_shaped(
            &net,
            Some((1, 4, 4)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("conv bodies lower through im2col");
        assert_eq!(deployed.input_dim(), 16);
        assert_eq!(deployed.logit_dim(), 2);
        assert_eq!(deployed.num_stages(), 2);
        assert_eq!(deployed.num_optical_stages(), 2);

        let mut rng = StdRng::seed_from_u64(95_002);
        let view = CTensor::new(
            Tensor::random_uniform(&[3, 1, 4, 4], 1.0, &mut rng),
            Tensor::random_uniform(&[3, 1, 4, 4], 1.0, &mut rng),
        );
        let soft = net.forward(&view, false);
        let (re, im) = (view.re.as_slice(), view.im.as_slice());
        for i in 0..3 {
            let sample: Vec<Complex64> = (0..16)
                .map(|j| Complex64::new(re[i * 16 + j] as f64, im[i * 16 + j] as f64))
                .collect();
            let optical = deployed.forward(&sample);
            for k in 0..2 {
                let s = soft.at2(i, k) as f64;
                assert!(
                    (optical[k] - s).abs() < 1e-3,
                    "sample {i} class {k}: optical {} vs software {s}",
                    optical[k]
                );
            }
        }
    }

    /// A narrow window through the buffers a wider one left stale is
    /// bitwise a window through fresh buffers, on a conv body at both
    /// fidelity tiers.
    #[test]
    fn conv_window_through_stale_buffers_is_bitwise_fresh() {
        let net = tiny_cnn(95_011);
        let mut deployed = DeployedFcnn::from_network_shaped(
            &net,
            Some((1, 4, 4)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("conv bodies lower through im2col");
        let mut rng = StdRng::seed_from_u64(95_012);
        let view = CTensor::new(
            Tensor::random_uniform(&[9, 1, 4, 4], 1.0, &mut rng),
            Tensor::random_uniform(&[9, 1, 4, 4], 1.0, &mut rng),
        );
        for fidelity in [Fidelity::Golden, Fidelity::Transfer] {
            deployed.set_fidelity(fidelity);
            let (mut buf, mut logits) = (WindowBuffers::default(), Vec::new());
            deployed
                .forward_window_into(&view, 0, 9, &mut buf, &mut logits)
                .expect("wide window");
            deployed
                .forward_window_into(&view, 3, 6, &mut buf, &mut logits)
                .expect("narrow window");
            let mut fresh = Vec::new();
            deployed
                .forward_window_into(&view, 3, 6, &mut WindowBuffers::default(), &mut fresh)
                .expect("fresh window");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&logits), bits(&fresh), "{fidelity:?}");
        }
    }

    #[test]
    fn conv_geometry_output_shape_is_the_software_layers() {
        // Both tiers size their output from `ConvGeometry`; the software
        // layer from `CConv2d`.
        let mut rng = StdRng::seed_from_u64(21);
        for kernel in [1, 3, 5] {
            for pad in 0..=2 {
                for stride in 1..=2 {
                    let conv = CConv2d::new(2, 3, kernel, stride, pad, &mut rng);
                    let fits = (1..=17).filter(|side| side + 2 * pad >= kernel);
                    for (height, width) in
                        fits.clone().flat_map(|h| fits.clone().map(move |w| (h, w)))
                    {
                        let g = ConvGeometry {
                            channels: 2,
                            height,
                            width,
                            kernel,
                            stride,
                            pad,
                        };
                        assert_eq!(g.out_hw(), conv.output_hw(height, width), "{g:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn conv_body_without_shape_is_a_typed_error() {
        let net = tiny_cnn(95_003);
        let err =
            DeployedFcnn::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                .expect_err("conv bodies need the image shape");
        assert_eq!(err, DeployError::MissingImageShape { index: 0 });
        assert!(err.to_string().contains("from_network_shaped"), "{err}");
        // An inconsistent shape is diagnosed too (channel mismatch).
        let err = DeployedFcnn::from_network_shaped(
            &net,
            Some((3, 4, 4)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect_err("channel mismatch must not deploy");
        assert_eq!(err, DeployError::Geometry { index: 0 });
    }

    #[test]
    fn non_finite_weights_are_a_typed_error() {
        // Parameters visit as conv (w_re, w_im, b_re, b_im), then dense:
        // a NaN conv weight and an infinite dense bias, at body indices 0
        // and 3, each rejected before any decomposition runs.
        for (param, value, index) in [(0, f32::NAN, 0), (7, f32::INFINITY, 3)] {
            let mut net = tiny_cnn(95_005);
            let mut k = 0;
            net.visit_params(&mut |p| {
                if k == param {
                    p.value.as_mut_slice()[0] = value;
                }
                k += 1;
            });
            let err = DeployedFcnn::from_network_shaped(
                &net,
                Some((1, 4, 4)),
                DeployedDetection::Differential,
                MeshStyle::Clements,
            )
            .expect_err("non-finite weights must not deploy");
            assert_eq!(err, DeployError::NonFiniteWeight { index });
            assert!(err.to_string().contains("NaN or infinite"), "{err}");
        }
    }

    #[test]
    fn unsupported_layer_error_names_the_layer_kind() {
        use oplix_nn::head::MergeHead;
        use oplix_nn::layers::{CConv2d, CMaxPool2d, CSequential};
        let mut rng = StdRng::seed_from_u64(95_004);
        let body = CSequential::new()
            .push(CConv2d::new(1, 2, 3, 1, 1, &mut rng))
            .push(CMaxPool2d::new(2));
        let net = Network::new(body, Box::new(MergeHead::new()));
        let err = DeployedFcnn::from_network_shaped(
            &net,
            Some((1, 4, 4)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect_err("max pooling has no photonic lowering");
        assert_eq!(
            err,
            DeployError::UnsupportedLayer {
                index: 1,
                kind: "CMaxPool2d"
            }
        );
        let message = err.to_string();
        assert!(message.contains("layer 1"), "{message}");
        assert!(message.contains("CMaxPool2d"), "{message}");
    }

    #[test]
    fn conv_and_dense_cache_keys_never_collide() {
        // Identical augmented matrices, bit for bit — the kind
        // discriminator must still keep the entries apart.
        let mut rng = StdRng::seed_from_u64(95_005);
        let w = CMatrix::from_fn(2, 5, |_, _| {
            use rand::Rng;
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let dense_key = DecompositionKey::new(&w, MeshStyle::Clements, KeyKind::Dense);
        let conv_key = DecompositionKey::new(&w, MeshStyle::Clements, KeyKind::Conv);
        assert!(dense_key != conv_key, "kinds must separate identical bits");

        // And a cache holding one kind does not answer for the other.
        let value = Arc::new(DeployedKernels::decompose(&w, MeshStyle::Clements));
        let bytes = dense_key.approx_bytes() + value.approx_bytes();
        let mut cache = LruDeployCache::new(8 * bytes);
        cache.insert(dense_key, Arc::clone(&value));
        assert!(cache
            .get(&DecompositionKey::new(
                &w,
                MeshStyle::Clements,
                KeyKind::Conv
            ))
            .is_none());
        cache.insert(conv_key, value);
        assert_eq!(cache.map.len(), 2, "both kinds must be resident at once");
    }

    #[test]
    fn identical_cnn_deployments_share_one_cache_entry() {
        let net = tiny_cnn(95_006);
        let deploy = || {
            DeployedFcnn::from_network_shaped(
                &net,
                Some((1, 4, 4)),
                DeployedDetection::Differential,
                MeshStyle::Clements,
            )
            .expect("deploys")
        };
        // First sight records fingerprints, second sight inserts the full
        // entries; from the third deployment on the cache must serve every
        // optical stage without growing. Only a miss admits bytes, so
        // "no growth" is "no miss" — counted on this thread, because
        // sibling tests insert into the process-wide cache concurrently.
        let first = deploy();
        let optical = first.num_optical_stages() as u64;
        let _admit = deploy();
        let before = deploy_cache_stats();
        let (hits0, misses0) = thread_cache_counts();
        let third = deploy();
        let (hits1, misses1) = thread_cache_counts();
        let after = deploy_cache_stats();
        assert!(
            after.hits >= before.hits + optical,
            "every optical stage of a repeat CNN deployment must hit \
             (hits {} -> {}, needed +{optical})",
            before.hits,
            after.hits
        );
        assert_eq!(
            (hits1 - hits0, misses1 - misses0),
            (optical, 0),
            "a repeat CNN deployment must hit once per optical stage and \
             never miss, so it cannot grow the cache"
        );
        // And the cached deployment serves identical classifications.
        let mut rng = StdRng::seed_from_u64(95_007);
        let view = CTensor::new(
            Tensor::random_uniform(&[5, 1, 4, 4], 1.0, &mut rng),
            Tensor::random_uniform(&[5, 1, 4, 4], 1.0, &mut rng),
        );
        assert_eq!(first.classify(&view), third.classify(&view));
    }

    #[test]
    fn global_cache_reports_resident_bytes() {
        // Admit one entry (second sight), then the stats must account for
        // its bytes. Other tests share the process-wide cache, so assert
        // monotone lower bounds only.
        let mut rng = StdRng::seed_from_u64(92_000);
        let w = CMatrix::from_fn(4, 3, |_, _| {
            use rand::Rng;
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let _ = decompose_cached(&w, MeshStyle::Clements, KeyKind::Dense);
        let _ = decompose_cached(&w, MeshStyle::Clements, KeyKind::Dense); // second sight inserts
        let stats = deploy_cache_stats();
        assert!(stats.entries >= 1);
        assert!(stats.resident_bytes > 0);
    }
}
