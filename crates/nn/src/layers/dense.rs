//! Fully connected complex layer.

use super::{all_zero, im_product_is_zero, CLayer};
use crate::ctensor::CTensor;
use crate::functional::{dense_backward_input, dense_backward_weight, dense_forward};
use crate::param::{Param, ParamVisitor};
use crate::tensor::Tensor;
use rand::Rng;

/// A complex dense layer `y = W x + b` on `[batch, n_in]` inputs.
///
/// In split form (paper Eq. 2):
///
/// ```text
/// y_re = x_re·W_reᵀ − x_im·W_imᵀ + b_re
/// y_im = x_re·W_imᵀ + x_im·W_reᵀ + b_im
/// ```
///
/// With `real_only = true` the imaginary halves are frozen at zero and the
/// layer degenerates to an ordinary real dense layer (used for RVNN).
#[derive(Debug)]
pub struct CDense {
    n_in: usize,
    n_out: usize,
    w_re: Param,
    w_im: Param,
    b_re: Param,
    b_im: Param,
    real_only: bool,
    /// The training input, and whether its imaginary half is all zero.
    cache: Option<(CTensor, bool)>,
}

impl CDense {
    /// Creates a complex dense layer with Kaiming-uniform initialisation.
    pub fn new<R: Rng>(n_in: usize, n_out: usize, rng: &mut R) -> Self {
        Self::build(n_in, n_out, false, rng)
    }

    /// Creates a *real-only* dense layer (zero, frozen imaginary half).
    pub fn new_real<R: Rng>(n_in: usize, n_out: usize, rng: &mut R) -> Self {
        Self::build(n_in, n_out, true, rng)
    }

    fn build<R: Rng>(n_in: usize, n_out: usize, real_only: bool, rng: &mut R) -> Self {
        assert!(n_in > 0 && n_out > 0, "layer dimensions must be positive");
        let w_re = Param::new(Tensor::kaiming_uniform(&[n_out, n_in], n_in, rng));
        let w_im = if real_only {
            Param::new(Tensor::zeros(&[n_out, n_in]))
        } else {
            Param::new(Tensor::kaiming_uniform(&[n_out, n_in], n_in, rng))
        };
        CDense {
            n_in,
            n_out,
            w_re,
            w_im,
            b_re: Param::new_no_decay(Tensor::zeros(&[n_out])),
            b_im: Param::new_no_decay(Tensor::zeros(&[n_out])),
            real_only,
            cache: None,
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of independent real weight parameters (for the paper's
    /// `#Para` axis in Fig. 7).
    pub fn param_count(&self) -> usize {
        if self.real_only {
            self.n_in * self.n_out + self.n_out
        } else {
            2 * (self.n_in * self.n_out + self.n_out)
        }
    }

    /// Read access to the complex weight as `(re, im)` tensors, used when
    /// deploying onto photonic hardware.
    pub fn weight(&self) -> (&Tensor, &Tensor) {
        (&self.w_re.value, &self.w_im.value)
    }

    /// Read access to the complex bias as `(re, im)` tensors.
    pub fn bias(&self) -> (&Tensor, &Tensor) {
        (&self.b_re.value, &self.b_im.value)
    }

    /// Mutable access to the complex weight, used by the unitary decoder's
    /// projection step.
    pub fn weight_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.w_re.value, &mut self.w_im.value)
    }

    fn add_bias(&self, y: &mut Tensor, b: &Tensor) {
        let (batch, k) = (y.shape()[0], y.shape()[1]);
        for i in 0..batch {
            let row = &mut y.as_mut_slice()[i * k..(i + 1) * k];
            for (v, &bv) in row.iter_mut().zip(b.as_slice()) {
                *v += bv;
            }
        }
    }
}

impl CLayer for CDense {
    fn forward(&mut self, x: &CTensor, train: bool) -> CTensor {
        assert_eq!(x.shape().len(), 2, "CDense expects [batch, features]");
        assert_eq!(x.shape()[1], self.n_in, "CDense fan-in mismatch");
        let im_zero = all_zero(&x.im);
        if train {
            self.cache = Some((x.clone(), im_zero));
        }
        let w_im_zero = all_zero(&self.w_im.value);
        let mut y_re = dense_forward(&x.re, &self.w_re.value);
        let mut y_im = if im_product_is_zero(w_im_zero, &x.re) {
            Tensor::zeros(y_re.shape())
        } else {
            dense_forward(&x.re, &self.w_im.value)
        };
        if !(im_product_is_zero(im_zero, &self.w_im.value) || im_product_is_zero(w_im_zero, &x.im))
        {
            y_re.sub_assign(&dense_forward(&x.im, &self.w_im.value));
        }
        if !im_product_is_zero(im_zero, &self.w_re.value) {
            y_im.add_assign(&dense_forward(&x.im, &self.w_re.value));
        }
        self.add_bias(&mut y_re, &self.b_re.value);
        self.add_bias(&mut y_im, &self.b_im.value);
        CTensor::new(y_re, y_im)
    }

    fn backward(&mut self, dy: &CTensor) -> CTensor {
        self.backward_params(dy);
        let w_im_zero = all_zero(&self.w_im.value);
        let mut dx_re = dense_backward_input(&dy.re, &self.w_re.value);
        if !im_product_is_zero(w_im_zero, &dy.im) {
            dx_re.add_assign(&dense_backward_input(&dy.im, &self.w_im.value));
        }
        let mut dx_im = dense_backward_input(&dy.im, &self.w_re.value);
        if !im_product_is_zero(w_im_zero, &dy.re) {
            dx_im.sub_assign(&dense_backward_input(&dy.re, &self.w_im.value));
        }
        CTensor::new(dx_re, dx_im)
    }

    fn backward_params(&mut self, dy: &CTensor) {
        let (x, im_zero) = self
            .cache
            .take()
            .expect("backward called before forward(train=true)");

        // Weight gradients.
        self.w_re
            .grad
            .add_assign(&dense_backward_weight(&dy.re, &x.re));
        if !im_product_is_zero(im_zero, &dy.im) {
            self.w_re
                .grad
                .add_assign(&dense_backward_weight(&dy.im, &x.im));
        }
        if !self.real_only {
            if !im_product_is_zero(im_zero, &dy.re) {
                self.w_im
                    .grad
                    .sub_assign(&dense_backward_weight(&dy.re, &x.im));
            }
            self.w_im
                .grad
                .add_assign(&dense_backward_weight(&dy.im, &x.re));
        }

        // Bias gradients: column sums over the batch, row by row.
        let k = dy.re.shape()[1];
        for (grad, dy) in [(&mut self.b_re.grad, &dy.re), (&mut self.b_im.grad, &dy.im)] {
            let grad = grad.as_mut_slice();
            for row in dy.as_slice().chunks_exact(k) {
                for (g, &d) in grad.iter_mut().zip(row) {
                    *g += d;
                }
            }
        }
    }

    fn visit_params(&mut self, visitor: &mut ParamVisitor) {
        visitor(&mut self.w_re);
        visitor(&mut self.b_re);
        if !self.real_only {
            visitor(&mut self.w_im);
            visitor(&mut self.b_im);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn layer_type(&self) -> &'static str {
        "CDense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::skip_oracle::{assert_matches_oracle, imaginary, poison};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The four-product step `CDense` ran before it skipped products: the
    /// oracle its forward and gradients are pinned to. Returns `(y, dx)`.
    fn oracle_step(layer: &mut CDense, x: &CTensor, dy: &CTensor) -> (CTensor, CTensor) {
        let (w_re, w_im) = (&layer.w_re.value, &layer.w_im.value);
        let mut y_re = dense_forward(&x.re, w_re);
        let mut y_im = dense_forward(&x.re, w_im);
        y_re.sub_assign(&dense_forward(&x.im, w_im));
        y_im.add_assign(&dense_forward(&x.im, w_re));
        layer.add_bias(&mut y_re, &layer.b_re.value);
        layer.add_bias(&mut y_im, &layer.b_im.value);

        let mut dx_re = dense_backward_input(&dy.re, w_re);
        dx_re.add_assign(&dense_backward_input(&dy.im, w_im));
        let mut dx_im = dense_backward_input(&dy.im, w_re);
        dx_im.sub_assign(&dense_backward_input(&dy.re, w_im));

        let w_re = &mut layer.w_re.grad;
        w_re.add_assign(&dense_backward_weight(&dy.re, &x.re));
        w_re.add_assign(&dense_backward_weight(&dy.im, &x.im));
        if !layer.real_only {
            let w_im = &mut layer.w_im.grad;
            w_im.sub_assign(&dense_backward_weight(&dy.re, &x.im));
            w_im.add_assign(&dense_backward_weight(&dy.im, &x.re));
        }
        let k = dy.re.shape()[1];
        for (grad, dy) in [
            (&mut layer.b_re.grad, &dy.re),
            (&mut layer.b_im.grad, &dy.im),
        ] {
            for row in dy.as_slice().chunks_exact(k) {
                for (g, &d) in grad.as_mut_slice().iter_mut().zip(row) {
                    *g += d;
                }
            }
        }
        (CTensor::new(y_re, y_im), CTensor::new(dx_re, dx_im))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Forward outputs, `backward_params` and `backward` gradients
        /// accumulated onto nonzero priors, and `backward`'s `dx` are
        /// bitwise the four-product oracle's, for every kind of imaginary
        /// input (`imaginary`), with a non-finite value injected into
        /// nothing (0), `w_re`, `w_im`, `dy.re`, `dy.im` or `x.re` (1–5), or
        /// `0.5` (6) or `−0` (7) written into `w_im`, real-only or complex:
        /// a real-only layer skips its `W_im` products only while `W_im`
        /// is all zero.
        #[test]
        fn skipping_is_bitwise_the_four_product_oracle(
            batch in 1usize..=40,
            n_in in 1usize..=70,
            n_out in 1usize..=40,
            im_kind in 0usize..5,
            poisoned in 0usize..8,
            real_only in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut x = CTensor::new(
                Tensor::random_uniform(&[batch, n_in], 1.0, &mut rng),
                imaginary(im_kind, &[batch, n_in], &mut rng),
            );
            let mut dy = CTensor::new(
                Tensor::random_uniform(&[batch, n_out], 1.0, &mut rng),
                Tensor::random_uniform(&[batch, n_out], 1.0, &mut rng),
            );
            let weights = n_in * n_out;
            let len = match poisoned {
                3 | 4 => dy.numel(),
                5 => x.numel(),
                _ => weights,
            };
            let (at, value) = poison(len, &mut rng);
            match poisoned {
                3 => dy.re.as_mut_slice()[at] = value,
                4 => dy.im.as_mut_slice()[at] = value,
                5 => x.re.as_mut_slice()[at] = value,
                _ => {}
            }
            let make = || {
                let mut rng = StdRng::seed_from_u64(seed ^ 1);
                let mut layer = if real_only == 1 {
                    CDense::new_real(n_in, n_out, &mut rng)
                } else {
                    CDense::new(n_in, n_out, &mut rng)
                };
                match poisoned {
                    1 => layer.w_re.value.as_mut_slice()[at] = value,
                    2 => layer.w_im.value.as_mut_slice()[at] = value,
                    6 => layer.w_im.value.as_mut_slice()[at] = 0.5,
                    7 => layer.w_im.value.as_mut_slice()[at] = -0.0,
                    _ => {}
                }
                layer
            };
            assert_matches_oracle(make, oracle_step, &x, &dy, seed ^ 2);
        }
    }

    fn finite_diff_loss(layer: &mut CDense, x: &CTensor) -> f64 {
        // Loss = sum(y_re) + 2*sum(y_im); deterministic and sensitive to
        // both output halves.
        let y = layer.forward(x, false);
        y.re.sum() + 2.0 * y.im.sum()
    }

    #[test]
    fn forward_matches_complex_arithmetic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = CDense::new(2, 1, &mut rng);
        // Overwrite with known weights: w = [1+2i, 3-1i], b = 0.
        layer.w_re.value = Tensor::from_vec(&[1, 2], vec![1.0, 3.0]);
        layer.w_im.value = Tensor::from_vec(&[1, 2], vec![2.0, -1.0]);
        // x = [1+1i, 2+0i]
        let x = CTensor::new(
            Tensor::from_vec(&[1, 2], vec![1.0, 2.0]),
            Tensor::from_vec(&[1, 2], vec![1.0, 0.0]),
        );
        let y = layer.forward(&x, false);
        // (1+2i)(1+i) + (3-i)(2) = (1+3i+2i²)+(6-2i) = (-1+3i)+(6-2i) = 5+i
        assert!((y.re.as_slice()[0] - 5.0).abs() < 1e-5);
        assert!((y.im.as_slice()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn backward_weight_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = CDense::new(3, 2, &mut rng);
        let x = CTensor::new(
            Tensor::random_uniform(&[2, 3], 1.0, &mut rng),
            Tensor::random_uniform(&[2, 3], 1.0, &mut rng),
        );
        let y = layer.forward(&x, true);
        let dy = CTensor::new(Tensor::full(y.shape(), 1.0), Tensor::full(y.shape(), 2.0));
        layer.backward(&dy);

        let eps = 1e-3f32;
        for idx in [0usize, 2, 5] {
            // w_re
            let analytic = layer.w_re.grad.as_slice()[idx];
            layer.w_re.value.as_mut_slice()[idx] += eps;
            let lp = finite_diff_loss(&mut layer, &x);
            layer.w_re.value.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = finite_diff_loss(&mut layer, &x);
            layer.w_re.value.as_mut_slice()[idx] += eps;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (analytic - fd).abs() < 1e-2,
                "w_re idx {idx}: {analytic} vs {fd}"
            );

            // w_im
            let analytic = layer.w_im.grad.as_slice()[idx];
            layer.w_im.value.as_mut_slice()[idx] += eps;
            let lp = finite_diff_loss(&mut layer, &x);
            layer.w_im.value.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = finite_diff_loss(&mut layer, &x);
            layer.w_im.value.as_mut_slice()[idx] += eps;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (analytic - fd).abs() < 1e-2,
                "w_im idx {idx}: {analytic} vs {fd}"
            );
        }
    }

    #[test]
    fn backward_input_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = CDense::new(3, 2, &mut rng);
        let x = CTensor::new(
            Tensor::random_uniform(&[1, 3], 1.0, &mut rng),
            Tensor::random_uniform(&[1, 3], 1.0, &mut rng),
        );
        let y = layer.forward(&x, true);
        let dy = CTensor::new(Tensor::full(y.shape(), 1.0), Tensor::full(y.shape(), 2.0));
        let dx = layer.backward(&dy);

        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.re.as_mut_slice()[idx] += eps;
            let lp = finite_diff_loss(&mut layer, &xp);
            let mut xm = x.clone();
            xm.re.as_mut_slice()[idx] -= eps;
            let lm = finite_diff_loss(&mut layer, &xm);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((dx.re.as_slice()[idx] - fd).abs() < 1e-2);

            let mut xp = x.clone();
            xp.im.as_mut_slice()[idx] += eps;
            let lp = finite_diff_loss(&mut layer, &xp);
            let mut xm = x.clone();
            xm.im.as_mut_slice()[idx] -= eps;
            let lm = finite_diff_loss(&mut layer, &xm);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((dx.im.as_slice()[idx] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn real_only_mode_keeps_imaginary_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = CDense::new_real(3, 2, &mut rng);
        let x = CTensor::from_re(Tensor::random_uniform(&[2, 3], 1.0, &mut rng));
        let y = layer.forward(&x, false);
        assert_eq!(y.im.max_abs(), 0.0);
        // Only the real params are registered.
        let mut count = 0;
        layer.visit_params(&mut |_| count += 1);
        assert_eq!(count, 2);
    }

    #[test]
    fn param_count_doubles_for_complex() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = CDense::new(4, 3, &mut rng);
        let r = CDense::new_real(4, 3, &mut rng);
        assert_eq!(c.param_count(), 2 * r.param_count());
    }

    #[test]
    fn bias_gradient_accumulates_batch() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = CDense::new(2, 2, &mut rng);
        let x = CTensor::zeros(&[3, 2]);
        let _ = layer.forward(&x, true);
        let dy = CTensor::new(Tensor::full(&[3, 2], 1.0), Tensor::zeros(&[3, 2]));
        layer.backward(&dy);
        assert_eq!(layer.b_re.grad.as_slice(), &[3.0, 3.0]);
    }
}
