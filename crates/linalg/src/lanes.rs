//! Portable lane-structured SIMD primitives: fixed-width array-of-lanes
//! wrappers the workspace's hot inner loops are written against.
//!
//! Every kernel claim in this workspace is **bitwise-pinned** against a
//! scalar reference, so the lane layer is built to keep that contract *by
//! construction* rather than by hoping the autovectoriser picks the same
//! operation order:
//!
//! * A lane type is a plain `[T; LANES]` wrapper whose arithmetic is
//!   element-wise `+`/`-`/`*` — the exact scalar IEEE operations, one per
//!   element, in the order the scalar loop would run them. Fixed trip
//!   counts turn each op into one vector instruction. The `f64` widths are
//!   [`F64x8`], [`F64x4`] and the one-lane [`F64x1`] (a kernel's leftover
//!   rows run its own body at the narrower widths instead of a separate
//!   scalar loop); the `f32` widths are [`F32x16`] and [`F32x8`].
//! * There is deliberately **no** fused multiply-add anywhere: `a * b + c`
//!   stays two roundings, exactly like the scalar path (Rust never
//!   contracts `mul`+`add` into `fma`, and this module never calls
//!   [`f64::mul_add`]). A fused kernel would be faster and *almost*
//!   right — which in a bitwise-pinned codebase means wrong.
//! * Complex arithmetic is **planar**: the re and im parts travel in
//!   separate lanes and the cross terms are spelled out with the same
//!   expression shape as [`Complex64`](crate::Complex64)'s `Mul` impl
//!   ([`cmul_splat_lhs`] / [`cmul_splat_rhs`]), so a planar butterfly is
//!   bitwise the scalar `t00 * x + t01 * y`.
//!
//! Every hot kernel runs through the one [`dispatch`]: a [`LaneKernel`]
//! body is written once, generic over an `f64` and an `f32` lane type,
//! and [`dispatch`] monomorphises it inside a `#[target_feature]` clone
//! for the widest tier the CPU has ([`F64x8`]/[`F32x16`] at AVX-512F,
//! [`F64x4`]/[`F32x8`] at AVX2 and in the portable build). That stays
//! bitwise because every tier is the identical Rust source compiled with
//! wider registers: `vmulps`/`vaddpd` are the same correctly-rounded IEEE
//! operations as their scalar twins, and no `-ffast-math`-style flags are
//! in play.

use std::ops::{Add, Mul, Neg, Sub};

/// The operations a kernel written against lane vectors of `T` needs:
/// element-wise `+`/`-`/`*` and negation (via the operator bounds),
/// broadcast, and
/// slice load/store. Implemented by every width of a scalar type
/// ([`F64x1`], [`F64x4`] and [`F64x8`] for `f64`, [`F32x8`] and
/// [`F32x16`] for `f32`), so a kernel generic over `V: Lane<f64>`
/// monomorphises to any register width while running the identical
/// per-element operations.
pub trait Lane<T: Copy>:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Neg<Output = Self>
{
    /// Number of scalar elements per lane vector.
    const LANES: usize;

    /// Broadcasts one scalar into every lane.
    fn splat(v: T) -> Self;

    /// Builds a lane vector element-by-element — the strided-load shape
    /// transposes use.
    fn from_fn(f: impl FnMut(usize) -> T) -> Self;

    /// Loads `Self::LANES` elements from the front of `src`.
    fn load(src: &[T]) -> Self;

    /// Stores the lanes into the front of `dst`.
    fn store(self, dst: &mut [T]);

    /// The `l`-th lane value.
    fn get(self, l: usize) -> T;
}

macro_rules! lane_type {
    ($(#[$doc:meta])* $name:ident, $elem:ty, $lanes:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        #[repr(transparent)]
        pub struct $name(pub [$elem; $lanes]);

        impl $name {
            /// Number of scalar elements per lane vector.
            pub const LANES: usize = $lanes;

            /// Broadcasts one scalar into every lane.
            #[inline(always)]
            pub fn splat(v: $elem) -> Self {
                $name([v; $lanes])
            }

            /// Loads `Self::LANES` elements from the front of `src`.
            ///
            /// # Panics
            ///
            /// Panics if `src.len() < Self::LANES`.
            #[inline(always)]
            pub fn load(src: &[$elem]) -> Self {
                let mut out = [<$elem>::default(); $lanes];
                out.copy_from_slice(&src[..$lanes]);
                $name(out)
            }

            /// Stores the lanes into the front of `dst`.
            ///
            /// # Panics
            ///
            /// Panics if `dst.len() < Self::LANES`.
            #[inline(always)]
            pub fn store(self, dst: &mut [$elem]) {
                dst[..$lanes].copy_from_slice(&self.0);
            }
        }

        impl Lane<$elem> for $name {
            const LANES: usize = $lanes;

            #[inline(always)]
            fn splat(v: $elem) -> Self {
                $name::splat(v)
            }

            #[inline(always)]
            fn from_fn(mut f: impl FnMut(usize) -> $elem) -> Self {
                let mut out = [<$elem>::default(); $lanes];
                for (l, o) in out.iter_mut().enumerate() {
                    *o = f(l);
                }
                $name(out)
            }

            #[inline(always)]
            fn load(src: &[$elem]) -> Self {
                $name::load(src)
            }

            #[inline(always)]
            fn store(self, dst: &mut [$elem]) {
                $name::store(self, dst)
            }

            #[inline(always)]
            fn get(self, l: usize) -> $elem {
                self.0[l]
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(&rhs.0) {
                    *o += *r;
                }
                $name(out)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(&rhs.0) {
                    *o -= *r;
                }
                $name(out)
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(&rhs.0) {
                    *o *= *r;
                }
                $name(out)
            }
        }

        impl Neg for $name {
            type Output = Self;
            /// The sign flip `-x` per lane, so `-(+0.0)` is `-0.0` (which
            /// `splat(0.0) - x` would not give).
            #[inline(always)]
            fn neg(self) -> Self {
                let mut out = self.0;
                for o in out.iter_mut() {
                    *o = -*o;
                }
                $name(out)
            }
        }
    };
}

lane_type!(
    /// One `f64` lane — the narrowest width, for the rows a kernel has
    /// left over after its wider chunks.
    F64x1,
    f64,
    1
);

lane_type!(
    /// Four `f64` lanes — one AVX ymm register worth of doubles.
    ///
    /// # Example
    ///
    /// ```
    /// use oplix_linalg::lanes::F64x4;
    ///
    /// let a = F64x4([1.0, 2.0, 3.0, 4.0]);
    /// let b = F64x4::splat(0.5);
    /// // Element-wise mul then add: two roundings per lane, exactly like
    /// // the scalar expression `a[i] * 0.5 + 1.0` — never an FMA.
    /// let r = a * b + F64x4::splat(1.0);
    /// assert_eq!(r, F64x4([1.5, 2.0, 2.5, 3.0]));
    /// ```
    F64x4,
    f64,
    4
);

lane_type!(
    /// Eight `f64` lanes — one AVX-512 zmm register worth of doubles,
    /// used by the kernels' widest dispatch tier.
    F64x8,
    f64,
    8
);

lane_type!(
    /// Eight `f32` lanes — one AVX ymm register worth of floats.
    ///
    /// # Example
    ///
    /// ```
    /// use oplix_linalg::lanes::F32x8;
    ///
    /// let x = F32x8::splat(2.0);
    /// let y = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    /// let mut out = [0.0f32; 8];
    /// (x * y).store(&mut out);
    /// assert_eq!(out, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
    /// ```
    F32x8,
    f32,
    8
);

lane_type!(
    /// Sixteen `f32` lanes — one AVX-512 zmm register worth of floats,
    /// used by the kernels' widest dispatch tier.
    F32x16,
    f32,
    16
);

/// Planar complex multiply with a *splatted left-hand* coefficient:
/// `(c.re + i·c.im) * (xr + i·xi)`, element-wise over the lanes.
///
/// The expression shape is exactly
/// [`Complex64`](crate::Complex64)`::mul` with the coefficient as `self`:
/// `re = c.re*xr - c.im*xi`, `im = c.re*xi + c.im*xr` — so a lane of four
/// complex products is bitwise four scalar `c * x` evaluations.
///
/// # Example
///
/// ```
/// use oplix_linalg::lanes::{cmul_splat_lhs, F64x4};
/// use oplix_linalg::Complex64;
///
/// let x = Complex64::new(0.3, -0.7);
/// let c = Complex64::new(-1.25, 0.5);
/// let (re, im) = cmul_splat_lhs(c.re, c.im, F64x4::splat(x.re), F64x4::splat(x.im));
/// let scalar = c * x;
/// assert_eq!(re.0[0], scalar.re); // bitwise, not approximately
/// assert_eq!(im.0[0], scalar.im);
/// ```
#[inline(always)]
pub fn cmul_splat_lhs<V: Lane<f64>>(c_re: f64, c_im: f64, xr: V, xi: V) -> (V, V) {
    let cr = V::splat(c_re);
    let ci = V::splat(c_im);
    (cr * xr - ci * xi, cr * xi + ci * xr)
}

/// Planar complex multiply with a *splatted right-hand* coefficient:
/// `(xr + i·xi) * (c.re + i·c.im)`, element-wise over the lanes.
///
/// The expression shape is exactly
/// [`Complex64`](crate::Complex64)`::mul` with the lane vector as `self`:
/// `re = xr*c.re - xi*c.im`, `im = xr*c.im + xi*c.re` — the shape of the
/// output phase-screen pass `field *= phasor`.
#[inline(always)]
pub fn cmul_splat_rhs<V: Lane<f64>>(xr: V, xi: V, c_re: f64, c_im: f64) -> (V, V) {
    let cr = V::splat(c_re);
    let ci = V::splat(c_im);
    (xr * cr - xi * ci, xr * ci + xi * cr)
}

/// Planar complex multiply of two lane vectors, `(xr + i·xi) * (yr +
/// i·yi)` element-wise, with the expression shape of
/// [`Complex64`](crate::Complex64)`::mul` (`x` as `self`): `re = xr*yr -
/// xi*yi`, `im = xr*yi + xi*yr`. The lane-by-lane twin of
/// [`cmul_splat_lhs`] for products whose both factors vary per element,
/// such as the terms of an inner product.
#[inline(always)]
pub fn cmul<V: Lane<f64>>(xr: V, xi: V, yr: V, yi: V) -> (V, V) {
    (xr * yr - xi * yi, xr * yi + xi * yr)
}

/// Right-multiplies a pair of planar complex lines by a 2×2 matrix, element
/// by element: `x' = x·t00 + y·t01` and `y' = x·t10 + y·t11`, each product
/// with the [`Complex64`](crate::Complex64)`::mul` shape of
/// [`cmul_splat_rhs`]. This is the column-pair update of a Jacobi rotation
/// and of a right-multiplied MZI. Full lane chunks run at `V`, the tail at
/// [`F64x1`].
///
/// # Panics
///
/// Panics if a plane is shorter than `xr`.
#[inline(always)]
pub fn rotate_pair<V: Lane<f64>>(
    (xr, xi): (&mut [f64], &mut [f64]),
    (yr, yi): (&mut [f64], &mut [f64]),
    t: [crate::Complex64; 4],
) {
    let n = xr.len();
    let full = n - n % V::LANES;
    rotate_pair_span::<V>((xr, xi, yr, yi), t, 0..full);
    rotate_pair_span::<F64x1>((xr, xi, yr, yi), t, full..n);
}

#[inline(always)]
fn rotate_pair_span<W: Lane<f64>>(
    (xr, xi, yr, yi): (&mut [f64], &mut [f64], &mut [f64], &mut [f64]),
    [t00, t01, t10, t11]: [crate::Complex64; 4],
    span: std::ops::Range<usize>,
) {
    let mut i = span.start;
    while i < span.end {
        let (x_r, x_i) = (W::load(&xr[i..]), W::load(&xi[i..]));
        let (y_r, y_i) = (W::load(&yr[i..]), W::load(&yi[i..]));
        let (ar, ai) = cmul_splat_rhs(x_r, x_i, t00.re, t00.im);
        let (br, bi) = cmul_splat_rhs(y_r, y_i, t01.re, t01.im);
        let (cr, ci) = cmul_splat_rhs(x_r, x_i, t10.re, t10.im);
        let (dr, di) = cmul_splat_rhs(y_r, y_i, t11.re, t11.im);
        (ar + br).store(&mut xr[i..]);
        (ai + bi).store(&mut xi[i..]);
        (cr + dr).store(&mut yr[i..]);
        (ci + di).store(&mut yi[i..]);
        i += W::LANES;
    }
}

/// Whether the running CPU supports AVX2 (cached after the first probe).
///
/// [`dispatch`] uses this to pick the `#[target_feature(enable =
/// "avx2")]` clone of the identical portable lane code — same Rust
/// operations, wider registers, bitwise-identical results. Always
/// `false` off `x86_64`.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU supports AVX-512F (cached after the first
/// probe) — the widest [`dispatch`] tier, running the identical portable
/// lane code at [`F64x8`]/[`F32x16`] width. Always `false` off `x86_64`.
#[inline]
pub fn avx512f_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A kernel body written once over generic lane widths; [`dispatch`] runs
/// it at the widest tier the CPU has.
///
/// A body that computes in `f64` uses `D`, one that computes in `f32`
/// uses `S`; both have the register width of the tier.
///
/// **Codegen pitfall.** The body only gets the tier's instructions where
/// it inlines into the `#[target_feature]` clone: implementations are
/// `#[inline(always)]` all the way down, and must not run their work
/// inside a closure they pass to another function (a thread-local's
/// `.with(|…| …)`, say), because a closure body is a function of its own
/// that does not inherit the target feature. Take scratch out of such
/// a closure first, then run the kernel.
pub trait LaneKernel {
    /// The body at `f64` lane type `D` and `f32` lane type `S`.
    fn run<D: Lane<f64>, S: Lane<f32>>(self);
}

/// Runs `kernel` at the widest lane tier the CPU supports: AVX-512F at
/// [`F64x8`]/[`F32x16`], AVX2 at [`F64x4`]/[`F32x8`], else portable
/// [`F64x4`]/[`F32x8`]. Every tier runs the identical portable body (same
/// operations, same order, no FMA), so the tier never changes a result
/// bit.
///
/// # Example
///
/// ```
/// use oplix_linalg::lanes::{dispatch, Lane, LaneKernel};
///
/// /// `out[i] = 2·x[i]` over one lane chunk of `f32`s.
/// struct Double<'a>(&'a [f32], &'a mut Vec<f32>);
///
/// impl LaneKernel for Double<'_> {
///     #[inline(always)]
///     fn run<D: Lane<f64>, S: Lane<f32>>(self) {
///         self.1.resize(S::LANES, 0.0);
///         (S::splat(2.0) * S::load(self.0)).store(self.1);
///     }
/// }
///
/// let x: Vec<f32> = (0..16).map(|i| i as f32).collect();
/// let mut out = Vec::new();
/// dispatch(Double(&x, &mut out));
/// assert!(out.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f32));
/// ```
pub fn dispatch(kernel: impl LaneKernel) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512f_available() {
            // SAFETY: AVX-512F was just verified at runtime.
            unsafe { run_avx512(kernel) };
            return;
        }
        if avx2_available() {
            // SAFETY: AVX2 was just verified at runtime.
            unsafe { run_avx2(kernel) };
            return;
        }
    }
    kernel.run::<F64x4, F32x8>();
}

/// # Safety
///
/// The CPU must support AVX-512F; the only caller, [`dispatch`], checks
/// [`avx512f_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512(kernel: impl LaneKernel) {
    kernel.run::<F64x8, F32x16>();
}

/// # Safety
///
/// The CPU must support AVX2; the only caller, [`dispatch`], checks
/// [`avx2_available`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(kernel: impl LaneKernel) {
    kernel.run::<F64x4, F32x8>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn lane_ops_are_elementwise_scalar_ops() {
        let a = F64x4([1.5, -2.25, 3.0, 1e-300]);
        let b = F64x4([-0.5, 7.0, 1e300, 4.0]);
        let sum = a + b;
        let dif = a - b;
        let prd = a * b;
        let neg = -F64x4([0.0, -0.0, 1.5, -2.0]);
        for i in 0..F64x4::LANES {
            assert_eq!(sum.0[i].to_bits(), (a.0[i] + b.0[i]).to_bits());
            assert_eq!(dif.0[i].to_bits(), (a.0[i] - b.0[i]).to_bits());
            assert_eq!(prd.0[i].to_bits(), (a.0[i] * b.0[i]).to_bits());
        }
        let want = [-0.0f64, 0.0, -1.5, 2.0];
        for (got, want) in neg.0.iter().zip(want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn f32_lane_ops_are_elementwise_scalar_ops() {
        let a = F32x8([1.5, -2.25, 3.0, 1e-30, 9.75, -0.125, 2.5, 1e30]);
        let b = F32x8::splat(3.125);
        let sum = a + b;
        let prd = a * b;
        for i in 0..F32x8::LANES {
            assert_eq!(sum.0[i].to_bits(), (a.0[i] + b.0[i]).to_bits());
            assert_eq!(prd.0[i].to_bits(), (a.0[i] * b.0[i]).to_bits());
        }
    }

    #[test]
    fn load_store_round_trip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = F64x4::load(&src);
        let mut dst = [0.0; 5];
        v.store(&mut dst);
        assert_eq!(&dst[..4], &src[..4]);
        assert_eq!(dst[4], 0.0);
    }

    #[test]
    fn cmul_matches_complex_mul_bitwise_both_sides() {
        // Awkward magnitudes so any reassociation or contraction would
        // change the bits.
        let cs = [
            Complex64::new(0.1, -0.3),
            Complex64::new(1e-200, 1e200),
            Complex64::new(-7.25, 0.0),
        ];
        let xs = [
            Complex64::new(-0.9, 0.7),
            Complex64::new(3.0, -1e-8),
            Complex64::new(1e100, 1e-100),
        ];
        for &c in &cs {
            for &x in &xs {
                let (re, im) = cmul_splat_lhs(c.re, c.im, F64x4::splat(x.re), F64x4::splat(x.im));
                let want = c * x;
                for l in 0..F64x4::LANES {
                    assert_eq!(re.0[l].to_bits(), want.re.to_bits());
                    assert_eq!(im.0[l].to_bits(), want.im.to_bits());
                }
                let (re, im) = cmul_splat_rhs(F64x4::splat(x.re), F64x4::splat(x.im), c.re, c.im);
                let want = x * c;
                for l in 0..F64x4::LANES {
                    assert_eq!(re.0[l].to_bits(), want.re.to_bits());
                    assert_eq!(im.0[l].to_bits(), want.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn avx2_probe_is_stable() {
        assert_eq!(avx2_available(), avx2_available());
    }
}
