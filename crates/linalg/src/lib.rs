//! Complex linear-algebra substrate for the OplixNet reproduction.
//!
//! Optical neural networks are fundamentally complex-valued: light carries an
//! amplitude and a phase, MZI meshes implement complex unitaries, and weight
//! matrices are mapped onto hardware through a singular value decomposition
//! `W = U Σ V*`. This crate provides everything the photonic layers above it
//! need, with no external linear-algebra dependency:
//!
//! * [`Complex64`] — a self-contained double-precision complex scalar
//!   (the `num-complex` crate is outside the allowed dependency set).
//! * [`CMatrix`] — dense row-major complex matrices with multiplication,
//!   Hermitian transpose, norms and unitarity checks.
//! * [`Matrix`] — dense real (`f64`) matrices, convertible to [`CMatrix`].
//! * [`qr`] — Householder QR factorisation and unitary basis completion.
//! * [`svd`] — one-sided Jacobi SVD for complex (and hence real) matrices.
//! * [`fft`] — radix-2 FFT used by the OFFT baseline.
//! * [`gemm`] — the shared register-blocked GEMM kernel every dense
//!   product in the workspace (real, complex, and the `f32` training
//!   tensors) runs through, with transpose-free `NT`/`TN` layouts.
//! * [`lanes`] — the portable array-of-lanes SIMD primitives (no-FMA,
//!   bitwise-by-construction) and the one lane-tier dispatch the GEMM
//!   driver and the compiled mesh kernels are written against.
//!
//! # Example
//!
//! ```
//! use oplix_linalg::{CMatrix, Complex64, svd::svd};
//!
//! let a = CMatrix::from_fn(3, 2, |i, j| Complex64::new((i + j) as f64, i as f64));
//! let f = svd(&a);
//! let err = f.reconstruct().max_abs_diff(&a);
//! assert!(err < 1e-9);
//! ```

pub mod complex;
pub mod fft;
pub mod gemm;
pub mod lanes;
pub mod matrix;
pub mod qr;
pub mod svd;

pub use complex::Complex64;
pub use matrix::{CMatrix, Matrix};
pub use svd::Svd;

/// Convenience alias used throughout the workspace for approximate
/// floating-point comparisons in tests.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}
