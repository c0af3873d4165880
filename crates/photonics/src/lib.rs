//! Photonic hardware model for MZI-based optical neural networks.
//!
//! This crate is the "chip" half of the OplixNet reproduction: it models
//! every optical component the paper relies on, at field level (complex
//! amplitudes), and provides the exact device-count arithmetic behind the
//! paper's area claims.
//!
//! * [`devices`] — directional couplers, phase shifters, MZIs (Eq. 1),
//!   attenuators.
//! * [`mesh`] — programmable MZI meshes with field propagation, phase
//!   noise and quantisation models.
//! * [`drift`] — seeded random-walk phase drift (thermal wander between
//!   recalibrations), the accumulating counterpart to one-shot noise.
//! * [`reck`] / [`clements`] — unitary → MZI-phase decompositions
//!   (refs. \[14\] and \[20\]).
//! * [`svd_map`] — `W = U Σ V*` weight deployment onto two meshes and a
//!   column of attenuators.
//! * [`compiled`] — meshes and SVD layers baked into precomputed
//!   coefficient kernels at deploy time (bitwise identical to the
//!   interpreted walk, no per-sample trigonometry), with batched
//!   propagation entry points for the serving engine.
//! * [`count`] — MZI / DC / PS counting (the paper's area metric).
//! * [`area`] — optional physical-footprint model.
//! * [`power`] — phase-dependent static power (0–80 mW per PS).
//! * [`loss_model`] — insertion loss and time-of-flight latency vs depth.
//! * [`encoder`] — the proposed DC-based complex encoder, the PS-based
//!   encoder of prior work, and the conventional amplitude encoder
//!   (Fig. 3).
//! * [`decoder`] — photodiode, differential (merging) and coherent
//!   detection plus decoder area accounting (Fig. 6, Fig. 9).
//!
//! # Example: deploy a weight matrix and run it optically
//!
//! ```
//! use oplix_linalg::{CMatrix, Complex64};
//! use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
//!
//! let w = CMatrix::from_fn(2, 2, |i, j| Complex64::new((i + 2 * j) as f64, 0.5));
//! let layer = PhotonicLayer::from_matrix(&w, MeshStyle::Clements);
//! let y = layer.forward(&[Complex64::ONE, Complex64::i()]);
//! let exact = w.mul_vec(&[Complex64::ONE, Complex64::i()]);
//! assert!((y[0] - exact[0]).abs() < 1e-8);
//! ```

pub mod area;
pub mod clements;
pub mod compiled;
pub mod count;
pub mod decoder;
pub mod devices;
pub mod drift;
pub mod encoder;
pub mod loss_model;
pub mod mesh;
pub mod power;
pub mod reck;
pub mod svd_map;

pub use compiled::{CompiledLayer, CompiledMesh, Fidelity};
pub use count::{mzi_count, DeviceCount};
pub use decoder::DecoderKind;
pub use devices::Mzi;
pub use drift::PhaseDrift;
pub use mesh::MziMesh;
pub use svd_map::{MeshStyle, PhotonicLayer};
