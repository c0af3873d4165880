//! 2-D complex convolution layer.

use super::{all_zero, im_product_is_zero, CLayer};
use crate::ctensor::CTensor;
use crate::functional::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, conv_out_size,
};
use crate::param::{Param, ParamVisitor};
use crate::tensor::Tensor;
use rand::Rng;

/// A complex 2-D convolution on `[N, C, H, W]` inputs.
///
/// Split form: `y_re = x_re∗w_re − x_im∗w_im + b_re`,
/// `y_im = x_re∗w_im + x_im∗w_re + b_im` (per-output-channel biases).
///
/// With `real_only = true` the imaginary half is frozen at zero (RVNN
/// mode).
#[derive(Debug)]
pub struct CConv2d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    w_re: Param,
    w_im: Param,
    b_re: Param,
    b_im: Param,
    real_only: bool,
    /// The training input, and whether its imaginary half is all zero.
    cache: Option<(CTensor, bool)>,
}

impl CConv2d {
    /// Creates a complex convolution with Kaiming-uniform initialisation.
    pub fn new<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        Self::build(in_ch, out_ch, kernel, stride, pad, false, rng)
    }

    /// Creates a *real-only* convolution (RVNN mode).
    pub fn new_real<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        Self::build(in_ch, out_ch, kernel, stride, pad, true, rng)
    }

    fn build<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        real_only: bool,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0,
            "conv dimensions must be positive"
        );
        let fan_in = in_ch * kernel * kernel;
        let shape = [out_ch, in_ch, kernel, kernel];
        let w_re = Param::new(Tensor::kaiming_uniform(&shape, fan_in, rng));
        let w_im = if real_only {
            Param::new(Tensor::zeros(&shape))
        } else {
            Param::new(Tensor::kaiming_uniform(&shape, fan_in, rng))
        };
        CConv2d {
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            w_re,
            w_im,
            b_re: Param::new_no_decay(Tensor::zeros(&[out_ch])),
            b_im: Param::new_no_decay(Tensor::zeros(&[out_ch])),
            real_only,
            cache: None,
        }
    }

    /// `(in_channels, out_channels, kernel, stride, pad)`.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (self.in_ch, self.out_ch, self.kernel, self.stride, self.pad)
    }

    /// Number of independent real weight parameters.
    pub fn param_count(&self) -> usize {
        let per_half = self.out_ch * self.in_ch * self.kernel * self.kernel + self.out_ch;
        if self.real_only {
            per_half
        } else {
            2 * per_half
        }
    }

    /// Read access to the complex weight as `(re, im)` tensors.
    pub fn weight(&self) -> (&Tensor, &Tensor) {
        (&self.w_re.value, &self.w_im.value)
    }

    /// Read access to the complex per-output-channel bias as `(re, im)`
    /// tensors.
    pub fn bias(&self) -> (&Tensor, &Tensor) {
        (&self.b_re.value, &self.b_im.value)
    }

    /// Length of one im2col patch row: `in_ch · kernel · kernel`. Under
    /// the im2col view this convolution is a dense `[out_ch, patch_len]`
    /// product applied to every output position's gathered patch — the
    /// shape hardware deployment lowers onto an MZI mesh.
    pub fn patch_len(&self) -> usize {
        self.in_ch * self.kernel * self.kernel
    }

    /// Output spatial shape for an `h × w` input under this layer's
    /// kernel/stride/padding geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the padded input (see
    /// [`conv_out_size`]).
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_size(h, self.kernel, self.stride, self.pad),
            conv_out_size(w, self.kernel, self.stride, self.pad),
        )
    }

    /// Accumulates the parameter gradients of the cached forward call and
    /// returns its input.
    fn param_grads(&mut self, dy: &CTensor) -> CTensor {
        let (x, im_zero) = self
            .cache
            .take()
            .expect("backward called before forward(train=true)");
        let w_shape = self.w_re.value.shape().to_vec();
        let weight_grad = |dy: &Tensor, x: &Tensor| {
            conv2d_backward_weight(dy, x, &w_shape, self.stride, self.pad)
        };

        self.w_re.grad.add_assign(&weight_grad(&dy.re, &x.re));
        if !im_product_is_zero(im_zero, &dy.im) {
            self.w_re.grad.add_assign(&weight_grad(&dy.im, &x.im));
        }
        if !self.real_only {
            if !im_product_is_zero(im_zero, &dy.re) {
                self.w_im.grad.sub_assign(&weight_grad(&dy.re, &x.im));
            }
            self.w_im.grad.add_assign(&weight_grad(&dy.im, &x.re));
        }

        // Bias gradients: sum over batch and spatial positions.
        let (n, o, h, w) = (
            dy.re.shape()[0],
            dy.re.shape()[1],
            dy.re.shape()[2],
            dy.re.shape()[3],
        );
        for bi in 0..n {
            for oc in 0..o {
                let base = ((bi * o + oc) * h) * w;
                let re_sum: f32 = dy.re.as_slice()[base..base + h * w].iter().sum();
                let im_sum: f32 = dy.im.as_slice()[base..base + h * w].iter().sum();
                self.b_re.grad.as_mut_slice()[oc] += re_sum;
                self.b_im.grad.as_mut_slice()[oc] += im_sum;
            }
        }
        x
    }

    fn add_bias(&self, y: &mut Tensor, b: &Tensor) {
        let (n, o, h, w) = (y.shape()[0], y.shape()[1], y.shape()[2], y.shape()[3]);
        for bi in 0..n {
            for oc in 0..o {
                let bv = b.as_slice()[oc];
                let base = ((bi * o + oc) * h) * w;
                for v in &mut y.as_mut_slice()[base..base + h * w] {
                    *v += bv;
                }
            }
        }
    }
}

impl CLayer for CConv2d {
    fn forward(&mut self, x: &CTensor, train: bool) -> CTensor {
        assert_eq!(x.shape().len(), 4, "CConv2d expects [N, C, H, W]");
        assert_eq!(x.shape()[1], self.in_ch, "CConv2d channel mismatch");
        let im_zero = all_zero(&x.im);
        if train {
            self.cache = Some((x.clone(), im_zero));
        }
        let w_im_zero = all_zero(&self.w_im.value);
        let (stride, pad) = (self.stride, self.pad);
        let mut y_re = conv2d_forward(&x.re, &self.w_re.value, stride, pad);
        let mut y_im = if im_product_is_zero(w_im_zero, &x.re) {
            Tensor::zeros(y_re.shape())
        } else {
            conv2d_forward(&x.re, &self.w_im.value, stride, pad)
        };
        if !(im_product_is_zero(im_zero, &self.w_im.value) || im_product_is_zero(w_im_zero, &x.im))
        {
            y_re.sub_assign(&conv2d_forward(&x.im, &self.w_im.value, stride, pad));
        }
        if !im_product_is_zero(im_zero, &self.w_re.value) {
            y_im.add_assign(&conv2d_forward(&x.im, &self.w_re.value, stride, pad));
        }
        self.add_bias(&mut y_re, &self.b_re.value);
        self.add_bias(&mut y_im, &self.b_im.value);
        CTensor::new(y_re, y_im)
    }

    fn backward(&mut self, dy: &CTensor) -> CTensor {
        let x = self.param_grads(dy);
        let x_shape = x.shape();
        let (stride, pad) = (self.stride, self.pad);
        let input_grad =
            |dy: &Tensor, w: &Tensor| conv2d_backward_input(dy, w, x_shape, stride, pad);
        let w_im_zero = all_zero(&self.w_im.value);
        let mut dx_re = input_grad(&dy.re, &self.w_re.value);
        if !im_product_is_zero(w_im_zero, &dy.im) {
            dx_re.add_assign(&input_grad(&dy.im, &self.w_im.value));
        }
        let mut dx_im = input_grad(&dy.im, &self.w_re.value);
        if !im_product_is_zero(w_im_zero, &dy.re) {
            dx_im.sub_assign(&input_grad(&dy.re, &self.w_im.value));
        }
        CTensor::new(dx_re, dx_im)
    }

    fn backward_params(&mut self, dy: &CTensor) {
        self.param_grads(dy);
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
        "CConv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::skip_oracle::{assert_matches_oracle, imaginary, poison};
    use crate::layers::CDense;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The four-product step `CConv2d` ran before it skipped products,
    /// without the old real-only guard: the oracle its forward and
    /// gradients are pinned to. Returns `(y, dx)`.
    fn oracle_step(layer: &mut CConv2d, x: &CTensor, dy: &CTensor) -> (CTensor, CTensor) {
        let (s, p) = (layer.stride, layer.pad);
        let (w_re, w_im) = (&layer.w_re.value, &layer.w_im.value);
        let mut y_re = conv2d_forward(&x.re, w_re, s, p);
        let mut y_im = conv2d_forward(&x.re, w_im, s, p);
        y_re.sub_assign(&conv2d_forward(&x.im, w_im, s, p));
        y_im.add_assign(&conv2d_forward(&x.im, w_re, s, p));
        layer.add_bias(&mut y_re, &layer.b_re.value);
        layer.add_bias(&mut y_im, &layer.b_im.value);

        let x_shape = x.shape();
        let mut dx_re = conv2d_backward_input(&dy.re, w_re, x_shape, s, p);
        dx_re.add_assign(&conv2d_backward_input(&dy.im, w_im, x_shape, s, p));
        let mut dx_im = conv2d_backward_input(&dy.im, w_re, x_shape, s, p);
        dx_im.sub_assign(&conv2d_backward_input(&dy.re, w_im, x_shape, s, p));

        let w_shape = w_re.shape().to_vec();
        let w_re = &mut layer.w_re.grad;
        w_re.add_assign(&conv2d_backward_weight(&dy.re, &x.re, &w_shape, s, p));
        w_re.add_assign(&conv2d_backward_weight(&dy.im, &x.im, &w_shape, s, p));
        if !layer.real_only {
            let w_im = &mut layer.w_im.grad;
            w_im.sub_assign(&conv2d_backward_weight(&dy.re, &x.im, &w_shape, s, p));
            w_im.add_assign(&conv2d_backward_weight(&dy.im, &x.re, &w_shape, s, p));
        }
        let (n, o, h, w) = (
            dy.re.shape()[0],
            dy.re.shape()[1],
            dy.re.shape()[2],
            dy.re.shape()[3],
        );
        for bi in 0..n {
            for oc in 0..o {
                let base = ((bi * o + oc) * h) * w;
                let re_sum: f32 = dy.re.as_slice()[base..base + h * w].iter().sum();
                let im_sum: f32 = dy.im.as_slice()[base..base + h * w].iter().sum();
                layer.b_re.grad.as_mut_slice()[oc] += re_sum;
                layer.b_im.grad.as_mut_slice()[oc] += im_sum;
            }
        }
        (CTensor::new(y_re, y_im), CTensor::new(dx_re, dx_im))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The conv twin of the dense layer's oracle proptest: kernel 1 or
        /// 3, padding 0–1, stride 1–2, every kind of imaginary input, a
        /// non-finite value injected into nothing (0), `w_re`, `w_im`,
        /// `dy.re`, `dy.im` or `x.re` (1–5), or `0.5` (6) or `−0` (7)
        /// written into `w_im`, real-only or complex.
        #[test]
        fn skipping_is_bitwise_the_four_product_oracle(
            kernel in 0usize..2,
            pad in 0usize..=1,
            stride in 1usize..=2,
            im_kind in 0usize..5,
            poisoned in 0usize..8,
            real_only in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kernel = 2 * kernel + 1;
            let (batch, in_ch, out_ch) =
                (rng.gen_range(1..=3), rng.gen_range(1..=3), rng.gen_range(1..=4));
            let min_hw = kernel.saturating_sub(2 * pad).max(1);
            let (h, w) = (rng.gen_range(min_hw..=7), rng.gen_range(min_hw..=7));
            let x_shape = [batch, in_ch, h, w];
            let mut x = CTensor::new(
                Tensor::random_uniform(&x_shape, 1.0, &mut rng),
                imaginary(im_kind, &x_shape, &mut rng),
            );
            let (ho, wo) = (conv_out_size(h, kernel, stride, pad), conv_out_size(w, kernel, stride, pad));
            let dy_shape = [batch, out_ch, ho, wo];
            let mut dy = CTensor::new(
                Tensor::random_uniform(&dy_shape, 1.0, &mut rng),
                Tensor::random_uniform(&dy_shape, 1.0, &mut rng),
            );
            let weights = out_ch * in_ch * kernel * kernel;
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
                let build = if real_only == 1 { CConv2d::new_real } else { CConv2d::new };
                let mut layer = build(in_ch, out_ch, kernel, stride, pad, &mut rng);
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

    /// A NaN in the imaginary input reaches a real-only conv's output, as
    /// it does a real-only dense layer's: an all-zero test that reads
    /// `max_abs` would take the NaN for zero and drop it.
    #[test]
    fn real_only_conv_propagates_a_nan_imaginary_input() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut im = Tensor::zeros(&[1, 1, 4, 4]);
        im.as_mut_slice()[5] = f32::NAN;
        let x = CTensor::new(Tensor::random_uniform(&[1, 1, 4, 4], 1.0, &mut rng), im);
        let non_finite = |y: &CTensor| {
            y.re.as_slice()
                .iter()
                .chain(y.im.as_slice())
                .any(|v| !v.is_finite())
        };
        let mut conv = CConv2d::new_real(1, 2, 3, 1, 1, &mut rng);
        assert!(non_finite(&conv.forward(&x, false)), "conv output");
        let mut dense = CDense::new_real(16, 2, &mut rng);
        assert!(
            non_finite(&dense.forward(&x.reshape(&[1, 16]), false)),
            "dense output"
        );
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = CConv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = CTensor::zeros(&[2, 2, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn strided_forward_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = CConv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = CTensor::zeros(&[1, 1, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn complex_conv_matches_split_arithmetic() {
        // 1x1 kernel reduces conv to per-pixel complex multiplication,
        // which we can check by hand: (a+bi)(c+di).
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = CConv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.w_re.value = Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]);
        conv.w_im.value = Tensor::from_vec(&[1, 1, 1, 1], vec![0.5]);
        let x = CTensor::new(
            Tensor::from_vec(&[1, 1, 1, 1], vec![3.0]),
            Tensor::from_vec(&[1, 1, 1, 1], vec![-1.0]),
        );
        let y = conv.forward(&x, false);
        // (3 - i)(2 + 0.5i) = 6 + 1.5i - 2i - 0.5i² = 6.5 - 0.5i
        assert!((y.re.as_slice()[0] - 6.5).abs() < 1e-6);
        assert!((y.im.as_slice()[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = CConv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = CTensor::new(
            Tensor::random_uniform(&[1, 1, 4, 4], 1.0, &mut rng),
            Tensor::random_uniform(&[1, 1, 4, 4], 1.0, &mut rng),
        );
        let y = conv.forward(&x, true);
        let dy = CTensor::new(Tensor::full(y.shape(), 1.0), Tensor::full(y.shape(), -1.0));
        let dx = conv.backward(&dy);

        let loss = |conv: &mut CConv2d, x: &CTensor| {
            let y = conv.forward(x, false);
            y.re.sum() - y.im.sum()
        };
        let eps = 1e-3f32;
        // Check a few weight entries (both halves).
        for idx in [0usize, 4, 8] {
            let analytic = conv.w_re.grad.as_slice()[idx];
            conv.w_re.value.as_mut_slice()[idx] += eps;
            let lp = loss(&mut conv, &x);
            conv.w_re.value.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut conv, &x);
            conv.w_re.value.as_mut_slice()[idx] += eps;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (analytic - fd).abs() < 2e-2,
                "w_re {idx}: {analytic} vs {fd}"
            );

            let analytic = conv.w_im.grad.as_slice()[idx];
            conv.w_im.value.as_mut_slice()[idx] += eps;
            let lp = loss(&mut conv, &x);
            conv.w_im.value.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut conv, &x);
            conv.w_im.value.as_mut_slice()[idx] += eps;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (analytic - fd).abs() < 2e-2,
                "w_im {idx}: {analytic} vs {fd}"
            );
        }
        // Check an input entry.
        for idx in [0usize, 7, 15] {
            let mut xp = x.clone();
            xp.re.as_mut_slice()[idx] += eps;
            let lp = loss(&mut conv, &xp);
            let mut xm = x.clone();
            xm.re.as_mut_slice()[idx] -= eps;
            let lm = loss(&mut conv, &xm);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((dx.re.as_slice()[idx] - fd).abs() < 2e-2);
        }
    }

    #[test]
    fn real_only_registers_half_the_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = CConv2d::new(1, 1, 3, 1, 1, &mut rng);
        let mut r = CConv2d::new_real(1, 1, 3, 1, 1, &mut rng);
        let mut nc = 0;
        c.visit_params(&mut |_| nc += 1);
        let mut nr = 0;
        r.visit_params(&mut |_| nr += 1);
        assert_eq!(nc, 4);
        assert_eq!(nr, 2);
        assert_eq!(c.param_count(), 2 * r.param_count());
    }
}
