//! Functional building blocks shared by the real and complex layers.
//!
//! Every complex layer in this crate is assembled from these *real*
//! primitives via the split-complex identities
//! `y_re = f(x_re, w_re) − f(x_im, w_im)` and
//! `y_im = f(x_re, w_im) + f(x_im, w_re)` for any bilinear `f` (dense
//! product, convolution). Keeping the primitives functional (stateless,
//! explicit arguments) makes the hand-derived backward passes easy to
//! verify against finite differences.

use crate::tensor::Tensor;

// ---------------------------------------------------------------------------
// Dense (fully connected) primitive
// ---------------------------------------------------------------------------

/// Dense forward: `y = x · wᵀ` with `x: [B, n_in]`, `w: [n_out, n_in]`,
/// producing `[B, n_out]`.
///
/// Runs through the transpose-free [`Tensor::matmul_nt`] kernel: the
/// weight is consumed in its stored `[out, in]` layout, so no per-step
/// transposed copy is materialised.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn dense_forward(x: &Tensor, w: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "dense input must be [batch, features]");
    assert_eq!(w.shape().len(), 2, "dense weight must be [out, in]");
    assert_eq!(x.shape()[1], w.shape()[1], "dense fan-in mismatch");
    x.matmul_nt(w)
}

/// Gradient of the dense product with respect to the input:
/// `dx = dy · w`.
pub fn dense_backward_input(dy: &Tensor, w: &Tensor) -> Tensor {
    dy.matmul(w)
}

/// Gradient of the dense product with respect to the weight:
/// `dw = dyᵀ · x`, through the transpose-free [`Tensor::matmul_tn`]
/// kernel (no transposed copy of `dy` per step).
pub fn dense_backward_weight(dy: &Tensor, x: &Tensor) -> Tensor {
    dy.matmul_tn(x)
}

// ---------------------------------------------------------------------------
// 2-D convolution primitive (NCHW, square stride/padding)
// ---------------------------------------------------------------------------

/// Output spatial size of a convolution: `(in + 2·pad − k) / stride + 1`.
///
/// # Panics
///
/// Panics if the geometry is inconsistent (kernel larger than padded input
/// or non-exact stride fit is allowed — flooring like common frameworks).
pub fn conv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {}",
        input + 2 * pad
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Convolution forward. `x: [N, C, H, W]`, `w: [O, C, kh, kw]` →
/// `[N, O, H', W']`.
///
/// # Panics
///
/// Panics on rank or channel mismatch.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    assert_eq!(x.shape().len(), 4, "conv input must be [N, C, H, W]");
    assert_eq!(w.shape().len(), 4, "conv weight must be [O, C, kh, kw]");
    let (n, c, h, wdt) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (o, c2, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(c, c2, "conv channel mismatch");
    let ho = conv_out_size(h, kh, stride, pad);
    let wo = conv_out_size(wdt, kw, stride, pad);
    let mut y = Tensor::zeros(&[n, o, ho, wo]);

    let xs = x.as_slice();
    let ws = w.as_slice();
    let ys = y.as_mut_slice();
    for b in 0..n {
        for oc in 0..o {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ic in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let x_base = ((b * c + ic) * h + iy as usize) * wdt;
                            let w_base = ((oc * c + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= wdt as isize {
                                    continue;
                                }
                                acc += xs[x_base + ix as usize] * ws[w_base + kx];
                            }
                        }
                    }
                    ys[((b * o + oc) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    y
}

/// Gradient of [`conv2d_forward`] with respect to the input.
pub fn conv2d_backward_input(
    dy: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, wdt) = (x_shape[0], x_shape[1], x_shape[2], x_shape[3]);
    let (o, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    let (ho, wo) = (dy.shape()[2], dy.shape()[3]);
    let mut dx = Tensor::zeros(x_shape);

    let dys = dy.as_slice();
    let ws = w.as_slice();
    let dxs = dx.as_mut_slice();
    for b in 0..n {
        for oc in 0..o {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = dys[((b * o + oc) * ho + oy) * wo + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let x_base = ((b * c + ic) * h + iy as usize) * wdt;
                            let w_base = ((oc * c + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= wdt as isize {
                                    continue;
                                }
                                dxs[x_base + ix as usize] += g * ws[w_base + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Gradient of [`conv2d_forward`] with respect to the weight.
pub fn conv2d_backward_weight(
    dy: &Tensor,
    x: &Tensor,
    w_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, wdt) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (o, _, kh, kw) = (w_shape[0], w_shape[1], w_shape[2], w_shape[3]);
    let (ho, wo) = (dy.shape()[2], dy.shape()[3]);
    let mut dw = Tensor::zeros(w_shape);

    let dys = dy.as_slice();
    let xs = x.as_slice();
    let dws = dw.as_mut_slice();
    for b in 0..n {
        for oc in 0..o {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = dys[((b * o + oc) * ho + oy) * wo + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let x_base = ((b * c + ic) * h + iy as usize) * wdt;
                            let w_base = ((oc * c + ic) * kh + ky) * kw;
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= wdt as isize {
                                    continue;
                                }
                                dws[w_base + kx] += g * xs[x_base + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }
    dw
}

// ---------------------------------------------------------------------------
// im2col view of the convolution
// ---------------------------------------------------------------------------

/// The index gather of the im2col view: for every output position
/// `p = oy·W' + ox` and patch slot `q = (ic·kh + ky)·kw + kx`, entry
/// `p·(C·kh·kw) + q` is the flat `[C, H, W]` input index the slot reads,
/// or `-1` when the slot falls in the zero padding.
///
/// Only the software [`conv2d_forward_im2col`] consumes it, and the
/// `tests/conv_deploy.rs` proptest pins that view element-wise to the
/// direct [`conv2d_forward`]. The photonic deployment does not read these
/// indices: its conv stage builds patch rows from
/// `oplix_photonics::compiled::ConvGeometry` in the same `(c, ky, kx)`
/// tap order. What ties the deployment to the software conv is end to
/// end: deployed CNN logits, strided and padded bodies included, agree
/// with the software network's forward within `1e-3`
/// (`tests/conv_deploy.rs`).
///
/// Returns `(indices, (H', W'))`.
///
/// # Panics
///
/// Panics if the geometry is inconsistent (see [`conv_out_size`]).
pub fn im2col_indices(
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> (Vec<i64>, (usize, usize)) {
    let ho = conv_out_size(h, kernel, stride, pad);
    let wo = conv_out_size(w, kernel, stride, pad);
    let patch = c * kernel * kernel;
    let mut indices = Vec::with_capacity(ho * wo * patch);
    for oy in 0..ho {
        for ox in 0..wo {
            for ic in 0..c {
                for ky in 0..kernel {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for kx in 0..kernel {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let in_bounds = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                        indices.push(if in_bounds {
                            ((ic * h + iy as usize) * w + ix as usize) as i64
                        } else {
                            -1
                        });
                    }
                }
            }
        }
    }
    (indices, (ho, wo))
}

/// Convolution forward through the im2col view: every output position's
/// patch is gathered with [`im2col_indices`] (padding slots read zero) and
/// dotted with the kernel's matching `[C·kh·kw]` row.
///
/// Element-wise equal to [`conv2d_forward`]: both accumulate the products
/// of one output value in the identical `(ic, ky, kx)` order — the im2col
/// walk merely interleaves exact zero products where the direct walk skips
/// padded taps.
///
/// # Panics
///
/// Panics on rank or channel mismatch.
pub fn conv2d_forward_im2col(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    assert_eq!(x.shape().len(), 4, "conv input must be [N, C, H, W]");
    assert_eq!(w.shape().len(), 4, "conv weight must be [O, C, kh, kw]");
    let (n, c, h, wdt) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (o, c2, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(c, c2, "conv channel mismatch");
    assert_eq!(kh, kw, "im2col view assumes square kernels");
    let (indices, (ho, wo)) = im2col_indices(c, h, wdt, kh, stride, pad);
    let patch = c * kh * kw;
    let positions = ho * wo;
    let mut y = Tensor::zeros(&[n, o, ho, wo]);

    let xs = x.as_slice();
    let ws = w.as_slice();
    let ys = y.as_mut_slice();
    let mut row = vec![0.0f32; patch];
    for b in 0..n {
        let sample = &xs[b * c * h * wdt..(b + 1) * c * h * wdt];
        for p in 0..positions {
            for (slot, &ix) in indices[p * patch..(p + 1) * patch].iter().enumerate() {
                row[slot] = if ix >= 0 { sample[ix as usize] } else { 0.0 };
            }
            for oc in 0..o {
                let kernel_row = &ws[oc * patch..(oc + 1) * patch];
                let mut acc = 0.0f32;
                for q in 0..patch {
                    acc += row[q] * kernel_row[q];
                }
                ys[(b * o + oc) * positions + p] = acc;
            }
        }
    }
    y
}

// ---------------------------------------------------------------------------
// Average pooling
// ---------------------------------------------------------------------------

/// Average pooling with a square window and stride equal to the window.
/// `x: [N, C, H, W]` → `[N, C, H/k, W/k]`.
///
/// # Panics
///
/// Panics if the spatial dimensions are not divisible by `k`.
pub fn avg_pool2d_forward(x: &Tensor, k: usize) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(
        h % k == 0 && w % k == 0,
        "pooling window must divide the input"
    );
    let (ho, wo) = (h / k, w / k);
    let mut y = Tensor::zeros(&[n, c, ho, wo]);
    let inv = 1.0 / (k * k) as f32;
    let mut y_w = y.writer4();
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0;
                    for dy in 0..k {
                        for dx in 0..k {
                            acc += x.at4(b, ch, oy * k + dy, ox * k + dx);
                        }
                    }
                    *y_w.at4_mut(b, ch, oy, ox) = acc * inv;
                }
            }
        }
    }
    y
}

/// Gradient of [`avg_pool2d_forward`].
pub fn avg_pool2d_backward(dy: &Tensor, x_shape: &[usize], k: usize) -> Tensor {
    let (n, c) = (x_shape[0], x_shape[1]);
    let (ho, wo) = (dy.shape()[2], dy.shape()[3]);
    let mut dx = Tensor::zeros(x_shape);
    let inv = 1.0 / (k * k) as f32;
    let mut dx_w = dx.writer4();
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = dy.at4(b, ch, oy, ox) * inv;
                    for ddy in 0..k {
                        for ddx in 0..k {
                            *dx_w.at4_mut(b, ch, oy * k + ddy, ox * k + ddx) += g;
                        }
                    }
                }
            }
        }
    }
    dx
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

/// Row-wise softmax of `[B, K]` logits (numerically stabilised).
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().len(), 2, "softmax expects [batch, classes]");
    let (b, k) = (logits.shape()[0], logits.shape()[1]);
    let mut out = Tensor::zeros(&[b, k]);
    let out_s = out.as_mut_slice();
    for i in 0..b {
        let row = &logits.as_slice()[i * k..(i + 1) * k];
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
        let s: f32 = exps.iter().sum();
        for j in 0..k {
            out_s[i * k + j] = exps[j] / s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite difference of a scalar function of one tensor entry.
    fn finite_diff<F: Fn(&Tensor) -> f64>(f: F, x: &Tensor, idx: usize) -> f32 {
        let eps = 1e-3f32;
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        ((f(&xp) - f(&xm)) / (2.0 * eps as f64)) as f32
    }

    #[test]
    fn dense_forward_shape_and_value() {
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let y = dense_forward(&x, &w);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[1.0, 5.0]);
    }

    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::random_uniform(&[2, 4], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[3, 4], 1.0, &mut rng);
        // Scalar objective: sum of outputs.
        let loss_x = |x: &Tensor| dense_forward(x, &w).sum();
        let loss_w = |w: &Tensor| dense_forward(&x, w).sum();
        let dy = Tensor::full(&[2, 3], 1.0);
        let dx = dense_backward_input(&dy, &w);
        let dw = dense_backward_weight(&dy, &x);
        for idx in [0usize, 3, 7] {
            assert!((dx.as_slice()[idx] - finite_diff(loss_x, &x, idx)).abs() < 1e-2);
            assert!((dw.as_slice()[idx] - finite_diff(loss_w, &w, idx)).abs() < 1e-2);
        }
    }

    #[test]
    fn conv_out_size_cases() {
        assert_eq!(conv_out_size(8, 3, 1, 1), 8); // same padding
        assert_eq!(conv_out_size(8, 3, 2, 1), 4);
        assert_eq!(conv_out_size(5, 5, 1, 0), 1);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::random_uniform(&[1, 1, 4, 4], 1.0, &mut rng);
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.as_mut_slice()[4] = 1.0; // centre tap
        let y = conv2d_forward(&x, &w, 1, 1);
        assert_eq!(y.shape(), x.shape());
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_known_small_case() {
        // 2x2 input, 2x2 kernel, no padding -> dot product.
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 1.0, 1.0, 1.0]);
        let y = conv2d_forward(&x, &w, 1, 0);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice()[0], 10.0);
    }

    #[test]
    fn conv_backward_input_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::random_uniform(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[2, 2, 3, 3], 1.0, &mut rng);
        let loss = |x: &Tensor| conv2d_forward(x, &w, 1, 1).sum();
        let dy = Tensor::full(&[1, 2, 4, 4], 1.0);
        let dx = conv2d_backward_input(&dy, &w, x.shape(), 1, 1);
        for idx in [0usize, 5, 17, 31] {
            let fd = finite_diff(loss, &x, idx);
            assert!(
                (dx.as_slice()[idx] - fd).abs() < 2e-2,
                "idx {idx}: analytic {} vs fd {fd}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn conv_backward_weight_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::random_uniform(&[2, 1, 4, 4], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[1, 1, 3, 3], 1.0, &mut rng);
        let loss = |w: &Tensor| conv2d_forward(&x, w, 2, 1).sum();
        let y = conv2d_forward(&x, &w, 2, 1);
        let dy = Tensor::full(y.shape(), 1.0);
        let dw = conv2d_backward_weight(&dy, &x, w.shape(), 2, 1);
        for idx in 0..9 {
            let fd = finite_diff(loss, &w, idx);
            assert!(
                (dw.as_slice()[idx] - fd).abs() < 2e-2,
                "idx {idx}: analytic {} vs fd {fd}",
                dw.as_slice()[idx]
            );
        }
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let y = avg_pool2d_forward(&x, 2);
        assert_eq!(y.as_slice(), &[4.0]);
        let dy = Tensor::from_vec(&[1, 1, 1, 1], vec![4.0]);
        let dx = avg_pool2d_backward(&dy, x.shape(), 2);
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0]);
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Large logit dominates without overflow.
        assert!(p.at2(1, 2) > 0.999);
    }
}
