//! Split-complex network layers with hand-derived backward passes.
//!
//! Every layer operates on [`CTensor`]s — pairs of real tensors `(re, im)`.
//! This single stack serves all four network families of the paper
//! (Table I):
//!
//! * **SCVNN** — complex weights, complex (assigned) inputs.
//! * **CVNN** — complex weights, inputs with `im = 0`.
//! * **RVNN** — layers constructed in *real-only* mode: the imaginary
//!   weight half is frozen at zero and never registered with the
//!   optimiser, which makes the layer mathematically identical to a plain
//!   real layer.
//! * **Split/conventional ONN** — the deployed versions of the above.
//!
//! Gradients are with respect to the real and imaginary parts
//! independently (split-complex calculus), exactly matching the paper's
//! Eq. (2) real-expansion view of complex arithmetic.

mod act;
mod conv;
mod dense;
mod maxpool;
mod modrelu;
mod norm;
mod pool;
mod residual;
mod sequential;
mod shape;

pub use act::CRelu;
pub use conv::CConv2d;
pub use dense::CDense;
pub use maxpool::CMaxPool2d;
pub use modrelu::CModRelu;
pub use norm::CBatchNorm2d;
pub use pool::CAvgPool2d;
pub use residual::CResidualBlock;
pub use sequential::CSequential;
pub use shape::CFlatten;

use crate::ctensor::CTensor;
use crate::param::ParamVisitor;
use crate::tensor::Tensor;

/// Elements per branch-free block of the scans below: a short-circuiting
/// `iter().all` does not vectorise, so each block folds without a branch
/// and the scan stops at the first block that fails.
const SCAN_BLOCK: usize = 64;

/// Whether `pass` holds for every element of `values`, folded blockwise.
#[inline]
fn all_blockwise(values: &[f32], pass: impl Fn(f32) -> bool) -> bool {
    values
        .chunks(SCAN_BLOCK)
        .all(|block| block.iter().fold(true, |all, &v| all & pass(v)))
}

/// Whether every element of `t` is `== 0.0`: either sign of zero passes,
/// a NaN fails.
fn all_zero(t: &Tensor) -> bool {
    all_blockwise(t.as_slice(), |v| v == 0.0)
}

/// Whether a bilinear product of an imaginary half with `operand` is
/// exactly `+0` everywhere, so a layer may skip computing it: `im_zero` is
/// [`all_zero`] of that half (an input's `x.im`, or the weight's `W_im`,
/// frozen at zero in a real-only layer but writable through
/// `weight_mut`), and every element of `operand` must be finite
/// (`0 · ±inf` is NaN).
///
/// The dense and conv kernels add each output's products from `+0`, so
/// such an output is `+0` and no output of theirs is ever `−0`. Parameter
/// gradients start at `+0` and only take sums and differences of these
/// outputs, so they are never `−0` either. The skipped `y − (+0)`,
/// `y + (+0)` and `g ± (+0)` therefore return their left operand bit for
/// bit, for every value these tensors can hold, and a skipped product
/// that would have started an output is a `+0` tensor.
fn im_product_is_zero(im_zero: bool, operand: &Tensor) -> bool {
    // `|v| < inf` is `is_finite` (NaN compares false) without its branch.
    im_zero && all_blockwise(operand.as_slice(), |v| v.abs() < f32::INFINITY)
}

/// A complex-valued network layer.
///
/// `forward` must cache whatever `backward` needs; `backward` accumulates
/// parameter gradients and returns the gradient with respect to the input.
pub trait CLayer {
    /// Forward pass. `train` distinguishes batch statistics from running
    /// statistics in normalisation layers.
    fn forward(&mut self, x: &CTensor, train: bool) -> CTensor;

    /// Backward pass for the most recent `forward` call.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dy: &CTensor) -> CTensor;

    /// [`backward`](CLayer::backward) for a layer whose input gradient
    /// nobody reads: it accumulates the same parameter gradients, bit for
    /// bit, and layers that can skip the input-gradient products do.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_params(&mut self, dy: &CTensor) {
        let _ = self.backward(dy);
    }

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, visitor: &mut ParamVisitor) {
        let _ = visitor;
    }

    /// Downcast hook used by hardware deployment to recognise concrete
    /// layer types inside a [`CSequential`]. Layers that can be mapped onto
    /// photonic meshes (or lowered electronically between optical stages)
    /// return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Stable short type name of the concrete layer (`"CDense"`,
    /// `"CMaxPool2d"`, …), used by hardware deployment to report *which*
    /// layer kind could not be lowered instead of a bare body index.
    fn layer_type(&self) -> &'static str {
        "unrecognised layer"
    }
}

/// Shared cases and checks of the proptests that pin the dense and conv
/// layers' product skipping to their four-product oracles.
#[cfg(test)]
pub(crate) mod skip_oracle {
    use super::CLayer;
    use crate::ctensor::CTensor;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Imaginary halves by `kind`: 0 all `+0`, 1 all `−0`, 2 mixed signs
    /// of zero, 3 nonzero, 4 all `+0` but one NaN.
    pub(crate) fn imaginary(kind: usize, shape: &[usize], rng: &mut StdRng) -> Tensor {
        if kind == 3 {
            return Tensor::random_uniform(shape, 1.0, rng);
        }
        let mut t = Tensor::zeros(shape);
        let values = t.as_mut_slice();
        match kind {
            1 => values.fill(-0.0),
            2 => values.iter_mut().for_each(|v| {
                if rng.gen_range(0..2) == 1 {
                    *v = -0.0;
                }
            }),
            4 => values[rng.gen_range(0..values.len())] = f32::NAN,
            _ => {}
        }
        t
    }

    /// One element index of a tensor of `len` elements and a non-finite
    /// value (`+inf`, `−inf` or NaN) to write there.
    pub(crate) fn poison(len: usize, rng: &mut StdRng) -> (usize, f32) {
        let v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3)];
        (rng.gen_range(0..len), v)
    }

    fn bits(z: &CTensor) -> Vec<u32> {
        z.re.as_slice()
            .iter()
            .chain(z.im.as_slice())
            .map(|v| v.to_bits())
            .collect()
    }

    /// Bits of every registered parameter's gradient, in visit order.
    pub(crate) fn grad_bits(layer: &mut dyn CLayer) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| {
            out.push(p.grad.as_slice().iter().map(|v| v.to_bits()).collect())
        });
        out
    }

    /// Builds three copies of a layer with `make`, gives each the same
    /// nonzero prior gradients, and asserts that the layer's `forward`
    /// and `backward_params` gradients, and its `backward` gradients and
    /// `dx`, are bitwise those of `oracle_step` (forward, then the
    /// four-product backward; returns `(y, dx)`).
    pub(crate) fn assert_matches_oracle<L: CLayer>(
        make: impl Fn() -> L,
        oracle_step: impl Fn(&mut L, &CTensor, &CTensor) -> (CTensor, CTensor),
        x: &CTensor,
        dy: &CTensor,
        grad_seed: u64,
    ) {
        let [mut oracle, mut skip, mut full] = [make(), make(), make()];
        for layer in [&mut oracle, &mut skip, &mut full] {
            let mut rng = StdRng::seed_from_u64(grad_seed);
            layer.visit_params(&mut |p| {
                p.grad = Tensor::random_uniform(p.grad.shape(), 1.0, &mut rng);
            });
        }
        let (y, dx) = oracle_step(&mut oracle, x, dy);
        let want = grad_bits(&mut oracle);

        assert_eq!(bits(&skip.forward(x, true)), bits(&y), "forward");
        skip.backward_params(dy);
        assert_eq!(grad_bits(&mut skip), want, "backward_params gradients");

        full.forward(x, true);
        assert_eq!(bits(&full.backward(dy)), bits(&dx), "backward dx");
        assert_eq!(grad_bits(&mut full), want, "backward gradients");
    }
}
