//! The workspace's one GEMM kernel, shared by every dense matrix product:
//! `f64` ([`crate::Matrix`]), [`Complex64`] ([`crate::CMatrix`]) and — via
//! `oplix-nn` — the `f32` training tensors, in the three layouts
//! [`gemm`] (`A·B`), [`gemm_nt`] (`A·Bᵀ`) and [`gemm_tn`] (`Aᵀ·B`).
//!
//! **Bitwise contract.** Every output element accumulates its `k`
//! products in strictly ascending `k`, starting from `+0`, exactly like
//! the naive `ikj` triple loop. That invariant is what lets [`gemm_nt`] /
//! [`gemm_tn`] (the transpose-free layouts the neural-network crate
//! trains through) be pinned *bitwise* against `transpose-then-[`gemm`]`
//! in property tests: same products, same order, same roundings.
//!
//! **One driver.** All three layouts and all three scalar types run the
//! same register-blocked micro-kernel:
//!
//! * Each call packs `B` once into a `k`-major panel, in column blocks of
//!   `NV = 2` lane chunks, with the columns past `n` zero-padded to a
//!   whole chunk. The panel lives in thread-local scratch that grows to
//!   the largest call and is reused; it is at most `k × n_pad` elements.
//!   `A` is read in place: a row block's `R` values of step `t` are `R`
//!   rows apart, or side by side in one stored row for [`gemm_tn`].
//! * For each block of `MR = 4` rows × `NV` lane vectors of outputs, the
//!   accumulators stay in registers across the whole `k` sweep:
//!   `acc = acc + splat(a_it) · b_t`, a multiply then an add, never a
//!   fused multiply-add. Only the live columns are stored; the lanes of
//!   the padding columns are computed on zeros and dropped. Row and
//!   column remainders run the same body at a smaller const-generic block
//!   shape (`R = 1…3` rows, one chunk).
//! * `f32` accumulates in the tier's `f32` lane type, `f64` in its `f64`
//!   lane type, and [`Complex64`] in a planar pair of `f64` lanes (re, im)
//!   with the cross terms of [`cmul_splat_lhs`], the exact expression
//!   shape of the scalar `Complex64` `Mul`.
//!
//! There is deliberately **no** per-element `a == 0` skip branch: it
//! would cost a compare per multiply on the hot path, and only pays off
//! for exactly-zero weights, which trained networks do not have.
//!
//! **Dispatch.** The driver is a [`LaneKernel`] run through
//! [`crate::lanes::dispatch`], so it executes at the widest lane tier the
//! CPU has (`F32x16`/`F64x8` at AVX-512F, `F32x8`/`F64x4` at AVX2 and in
//! the portable build), bitwise identical at every tier. The panel is
//! taken out of its thread-local before the dispatch: work run inside a
//! thread-local's `.with` closure would not be compiled for the tier.
//!
//! [`Complex64`]: crate::Complex64

use crate::lanes::{cmul_splat_lhs, dispatch, Lane, LaneKernel};
use crate::Complex64;
use std::cell::Cell;
use std::ops::{AddAssign, Mul};
use std::thread::LocalKey;

/// Rows per register block.
const MR: usize = 4;
/// Lane vectors of output columns per register block.
const NV: usize = 2;
/// Lanes of the widest lane type any tier uses (`F32x16`): the size of
/// the spill buffer a block's accumulators are stored through.
const MAX_LANES: usize = 16;

/// The scalar types the shared kernel accepts: `f32`, `f64` and
/// [`Complex64`]. Sealed: the packing and lane layout of each type live
/// in this module.
pub trait GemmScalar: Copy + Default + Mul<Output = Self> + AddAssign + private::Kernel {}

impl GemmScalar for f32 {}
impl GemmScalar for f64 {}
impl GemmScalar for Complex64 {}

mod private {
    use super::{Cell, Lane, LocalKey};

    /// One product `out (m×n) = A (m×k) · B (k×n)`. `A(i, t)` is
    /// `a[i·k + t]`, or `a[t·m + i]` when `a_t` (`A` stored `k×m`);
    /// `B(t, j)` is `b[t·n + j]`, or `b[j·k + t]` when `b_t` (`B` stored
    /// `n×k`).
    pub struct Job<'a, T> {
        pub m: usize,
        pub k: usize,
        pub n: usize,
        pub a: &'a [T],
        pub a_t: bool,
        pub b: &'a [T],
        pub b_t: bool,
        pub out: &'a mut [T],
    }

    /// How a scalar type runs the driver: its panel element type, its
    /// thread-local panel and its accumulator lane type at each tier.
    pub trait Kernel: Copy + Default + 'static {
        /// Element of the packed `B` panel: the scalar itself, or `f64`
        /// for planar complex.
        type Elem: Copy + Default + 'static;

        /// This thread's reusable panel of `Elem`s.
        fn panel() -> &'static LocalKey<Cell<Vec<Self::Elem>>>;

        /// Runs the driver with the accumulator of the tier whose lane
        /// types are `D` (`f64`) and `S` (`f32`).
        fn run_at<D: Lane<f64>, S: Lane<f32>>(job: Job<'_, Self>, panel: &mut Vec<Self::Elem>);
    }
}

use private::{Job, Kernel};

std::thread_local! {
    /// The packed `B` panel of `f32` products.
    static PANEL_F32: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// The packed `B` panel of `f64` and planar `Complex64` products.
    static PANEL_F64: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// One lane vector of output columns of scalar type `T`, as the driver
/// accumulates it.
trait Accum<T: Kernel>: Copy {
    /// Output columns per vector.
    const WIDTH: usize;
    /// Panel elements per vector: `WIDTH`, or `2·WIDTH` for planar
    /// complex (re lanes, then im lanes).
    const SPAN: usize;

    /// All lanes `+0`.
    fn zero() -> Self;

    /// Loads one vector from the front of a packed panel span.
    fn load(span: &[T::Elem]) -> Self;

    /// Packs one chunk of one step into `span`: lane `l < cols` is
    /// `src[l]`, the lanes past `cols` are `+0`.
    fn pack(span: &mut [T::Elem], src: &[T], cols: usize);

    /// Writes `v` as lane `l` of the panel span `span`.
    fn put(span: &mut [T::Elem], l: usize, v: T);

    /// `self + a·b`: a multiply, then an add.
    fn add_product(self, a: T, b: Self) -> Self;

    /// Stores the first `out.len()` (at most `WIDTH`) lanes.
    fn store(self, out: &mut [T]);
}

macro_rules! real_scalar {
    ($elem:ty, $panel:ident, $tier:ident) => {
        impl Kernel for $elem {
            type Elem = $elem;

            fn panel() -> &'static LocalKey<Cell<Vec<$elem>>> {
                &$panel
            }

            #[inline(always)]
            fn run_at<D: Lane<f64>, S: Lane<f32>>(job: Job<'_, Self>, panel: &mut Vec<$elem>) {
                drive::<$elem, $tier>(job, panel);
            }
        }

        impl<V: Lane<$elem>> Accum<$elem> for V {
            const WIDTH: usize = V::LANES;
            const SPAN: usize = V::LANES;

            #[inline(always)]
            fn zero() -> Self {
                V::splat(0.0)
            }

            #[inline(always)]
            fn load(span: &[$elem]) -> Self {
                V::load(span)
            }

            #[inline(always)]
            fn pack(span: &mut [$elem], src: &[$elem], cols: usize) {
                if cols == V::LANES {
                    V::load(src).store(span);
                } else {
                    for (l, d) in span[..V::LANES].iter_mut().enumerate() {
                        *d = if l < cols { src[l] } else { 0.0 };
                    }
                }
            }

            #[inline(always)]
            fn put(span: &mut [$elem], l: usize, v: $elem) {
                span[l] = v;
            }

            #[inline(always)]
            fn add_product(self, a: $elem, b: Self) -> Self {
                self + V::splat(a) * b
            }

            #[inline(always)]
            fn store(self, out: &mut [$elem]) {
                if out.len() == V::LANES {
                    Lane::store(self, out);
                } else {
                    let mut spill = [0.0; MAX_LANES];
                    Lane::store(self, &mut spill);
                    out.copy_from_slice(&spill[..out.len()]);
                }
            }
        }
    };
}

real_scalar!(f32, PANEL_F32, S);
real_scalar!(f64, PANEL_F64, D);

/// A lane vector of complex outputs, planar: re parts, then im parts.
#[derive(Clone, Copy)]
struct Planar<V>(V, V);

impl Kernel for Complex64 {
    type Elem = f64;

    fn panel() -> &'static LocalKey<Cell<Vec<f64>>> {
        &PANEL_F64
    }

    #[inline(always)]
    fn run_at<D: Lane<f64>, S: Lane<f32>>(job: Job<'_, Self>, panel: &mut Vec<f64>) {
        drive::<Complex64, Planar<D>>(job, panel);
    }
}

impl<V: Lane<f64>> Accum<Complex64> for Planar<V> {
    const WIDTH: usize = V::LANES;
    const SPAN: usize = 2 * V::LANES;

    #[inline(always)]
    fn zero() -> Self {
        Planar(V::splat(0.0), V::splat(0.0))
    }

    #[inline(always)]
    fn load(span: &[f64]) -> Self {
        Planar(V::load(span), V::load(&span[V::LANES..]))
    }

    #[inline(always)]
    fn pack(span: &mut [f64], src: &[Complex64], cols: usize) {
        for l in 0..V::LANES {
            let z = if l < cols { src[l] } else { Complex64::ZERO };
            Self::put(span, l, z);
        }
    }

    #[inline(always)]
    fn put(span: &mut [f64], l: usize, v: Complex64) {
        span[l] = v.re;
        span[V::LANES + l] = v.im;
    }

    /// Bitwise the scalar `acc += a * b`: [`cmul_splat_lhs`] is the
    /// `Complex64` `Mul` expression with `a` as `self`.
    #[inline(always)]
    fn add_product(self, a: Complex64, b: Self) -> Self {
        let (pr, pi) = cmul_splat_lhs(a.re, a.im, b.0, b.1);
        Planar(self.0 + pr, self.1 + pi)
    }

    #[inline(always)]
    fn store(self, out: &mut [Complex64]) {
        let (mut re, mut im) = ([0.0; MAX_LANES], [0.0; MAX_LANES]);
        self.0.store(&mut re);
        self.1.store(&mut im);
        for (l, o) in out.iter_mut().enumerate() {
            *o = Complex64::new(re[l], im[l]);
        }
    }
}

/// [`drive`] for one call, run through [`dispatch`].
struct GemmKernel<'a, T: Kernel> {
    job: Job<'a, T>,
    panel: &'a mut Vec<T::Elem>,
}

impl<T: Kernel> LaneKernel for GemmKernel<'_, T> {
    #[inline(always)]
    fn run<D: Lane<f64>, S: Lane<f32>>(self) {
        T::run_at::<D, S>(self.job, self.panel);
    }
}

/// Runs `job` at the widest lane tier, through this thread's panel.
fn run<T: GemmScalar>(job: Job<'_, T>) {
    if job.m == 0 || job.n == 0 {
        return;
    }
    // Taken out of the thread-local, not borrowed inside `.with`: the
    // kernel must run in `dispatch`'s tier clone, not in a closure.
    let mut panel = T::panel().take();
    dispatch(GemmKernel {
        job,
        panel: &mut panel,
    });
    T::panel().set(panel);
}

/// The driver: packs `B`, then sweeps the output a register block at a
/// time — column blocks of [`NV`] lane vectors outermost, so one block's
/// strip of the panel stays in L1 across every row block.
#[inline(always)]
fn drive<T: Kernel, V: Accum<T>>(job: Job<'_, T>, panel: &mut Vec<T::Elem>) {
    let Job {
        m,
        k,
        n,
        a,
        a_t,
        b,
        b_t,
        out,
    } = job;
    let (width, span) = (V::WIDTH, V::SPAN);
    let chunks = n.div_ceil(width);

    // Column blocks of up to NV chunks: the block at chunk `c` with `nv`
    // chunks occupies `panel[c·k·span..(c + nv)·k·span]`, step `t`'s `nv`
    // chunk spans together, columns past `n` packed as zeros. Grown to
    // exactly this call's size, so a thread keeps at most its largest
    // panel, not the doubled capacity `resize` alone would leave.
    let need = chunks * k * span;
    if panel.len() < need {
        panel.reserve_exact(need - panel.len());
        panel.resize(need, T::Elem::default());
    }
    let mut c = 0;
    while c < chunks {
        let nv = NV.min(chunks - c);
        let block = &mut panel[c * k * span..(c + nv) * k * span];
        if b_t {
            // Column `j` of B is row `j` of the stored `n×k` matrix: read
            // it contiguously and write it down lane `l` of every step.
            for v in 0..nv {
                for l in 0..width {
                    let j = (c + v) * width + l;
                    let steps = block.chunks_exact_mut(nv * span);
                    if j < n {
                        for (step, &x) in steps.zip(&b[j * k..(j + 1) * k]) {
                            V::put(&mut step[v * span..], l, x);
                        }
                    } else {
                        for step in steps {
                            V::put(&mut step[v * span..], l, T::default());
                        }
                    }
                }
            }
        } else {
            for (t, step) in block.chunks_exact_mut(nv * span).enumerate() {
                for (v, dst) in step.chunks_exact_mut(span).enumerate() {
                    let j = (c + v) * width;
                    V::pack(dst, &b[t * n + j..], width.min(n - j));
                }
            }
        }
        c += nv;
    }

    let lhs = Lhs { a, a_t, m, k, n };
    let mut c = 0;
    while c < chunks {
        let nv = NV.min(chunks - c);
        let strip = &panel[c * k * span..(c + nv) * k * span];
        if nv == NV {
            row_blocks::<T, V, NV>(&lhs, strip, out, c);
        } else {
            // NV = 2 leaves at most one chunk.
            row_blocks::<T, V, 1>(&lhs, strip, out, c);
        }
        c += nv;
    }
}

/// The unpacked left operand and the product's shape (see [`Job`]).
struct Lhs<'a, T> {
    a: &'a [T],
    a_t: bool,
    m: usize,
    k: usize,
    n: usize,
}

/// Every row block of the column block at chunk `c`, `C` chunks wide,
/// whose packed panel strip is `strip`.
#[inline(always)]
fn row_blocks<T: Kernel, V: Accum<T>, const C: usize>(
    lhs: &Lhs<'_, T>,
    strip: &[T::Elem],
    out: &mut [T],
    c: usize,
) {
    let mut i = 0;
    while i + MR <= lhs.m {
        block::<T, V, MR, C>(lhs, strip, out, i, c);
        i += MR;
    }
    match lhs.m - i {
        1 => block::<T, V, 1, C>(lhs, strip, out, i, c),
        2 => block::<T, V, 2, C>(lhs, strip, out, i, c),
        3 => block::<T, V, 3, C>(lhs, strip, out, i, c),
        _ => {}
    }
}

/// Outputs of rows `i..i + R` × chunks `c..c + C`: `R·C` accumulators live
/// in registers across the whole `k` sweep, each step loading `C` panel
/// vectors once for all `R` rows.
#[inline(always)]
fn block<T: Kernel, V: Accum<T>, const R: usize, const C: usize>(
    lhs: &Lhs<'_, T>,
    strip: &[T::Elem],
    out: &mut [T],
    i: usize,
    c: usize,
) {
    let (k, n, span) = (lhs.k, lhs.n, V::SPAN);
    let mut acc = [[V::zero(); C]; R];
    let steps = strip.chunks_exact(C * span);
    if lhs.a_t {
        // Step `t`'s `R` values sit together in row `t` of the stored `A`.
        for (a_t, b_t) in lhs.a.chunks_exact(lhs.m).zip(steps) {
            let a_t = &a_t[i..i + R];
            step::<T, V, R, C>(&mut acc, std::array::from_fn(|r| a_t[r]), b_t);
        }
    } else {
        let rows: [&[T]; R] = std::array::from_fn(|r| &lhs.a[(i + r) * k..][..k]);
        for (t, b_t) in steps.enumerate().take(k) {
            step::<T, V, R, C>(&mut acc, std::array::from_fn(|r| rows[r][t]), b_t);
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let row = &mut out[(i + r) * n..(i + r + 1) * n];
        for (v, acc) in acc.iter().enumerate() {
            let j0 = (c + v) * V::WIDTH;
            acc.store(&mut row[j0..n.min(j0 + V::WIDTH)]);
        }
    }
}

/// One `k` step of a register block: `acc[r][v] += a[r] · b_v`, with the
/// `C` panel vectors of the step loaded once.
#[inline(always)]
fn step<T: Kernel, V: Accum<T>, const R: usize, const C: usize>(
    acc: &mut [[V; C]; R],
    a: [T; R],
    b_t: &[T::Elem],
) {
    let bv: [V; C] = std::array::from_fn(|v| V::load(&b_t[v * V::SPAN..]));
    for r in 0..R {
        for v in 0..C {
            acc[r][v] = acc[r][v].add_product(a[r], bv[v]);
        }
    }
}

/// `out = A · B` with `A: m×k`, `B: k×n`, all row-major.
///
/// Output elements accumulate in strictly ascending `k` — bitwise the
/// naive `ikj` loop.
///
/// # Panics
///
/// Panics if a slice length does not match its `rows × cols` shape.
///
/// # Example
///
/// ```
/// use oplix_linalg::gemm::gemm;
///
/// let a = [1.0f64, 2.0, 3.0, 4.0]; // 2×2
/// let b = [5.0f64, 6.0, 7.0, 8.0]; // 2×2
/// let mut out = [0.0f64; 4];
/// gemm(2, 2, 2, &a, &b, &mut out);
/// assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn gemm<T: GemmScalar>(m: usize, k: usize, n: usize, a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(a.len(), m * k, "gemm: lhs length must be m*k");
    assert_eq!(b.len(), k * n, "gemm: rhs length must be k*n");
    assert_eq!(out.len(), m * n, "gemm: out length must be m*n");
    run(Job {
        m,
        k,
        n,
        a,
        a_t: false,
        b,
        b_t: false,
        out,
    });
}

/// `out = A · Bᵀ` with `A: m×k` and `B` stored **untransposed** as `n×k`
/// row-major — the layout a `[out_features, in_features]` weight matrix
/// already has, so the dense forward pass needs no transposed copy: the
/// packing step reads `B` by column.
///
/// Each output element still accumulates in strictly ascending `k`: the
/// result is bitwise identical to materialising `Bᵀ` and calling
/// [`gemm`].
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
///
/// # Example
///
/// ```
/// use oplix_linalg::gemm::{gemm, gemm_nt};
///
/// let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2×3
/// let b = [1.0f32, 0.0, 1.0, 0.5, 0.5, 0.0]; // 2×3 (logically Bᵀ: 3×2)
/// let bt = [1.0f32, 0.5, 0.0, 0.5, 1.0, 0.0]; // B transposed: 3×2
/// let (mut fused, mut reference) = ([0.0f32; 4], [0.0f32; 4]);
/// gemm_nt(2, 3, 2, &a, &b, &mut fused);
/// gemm(2, 3, 2, &a, &bt, &mut reference);
/// assert_eq!(fused, reference);
/// ```
pub fn gemm_nt<T: GemmScalar>(m: usize, k: usize, n: usize, a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs length must be m*k");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs length must be n*k");
    assert_eq!(out.len(), m * n, "gemm_nt: out length must be m*n");
    run(Job {
        m,
        k,
        n,
        a,
        a_t: false,
        b,
        b_t: true,
        out,
    });
}

/// `out = Aᵀ · B` with `A` stored **untransposed** as `k×m` row-major and
/// `B: k×n` — the weight-gradient product `dW = dYᵀ · X` without a
/// transposed copy of `dY`: the packing step reads `A` by column.
///
/// Each output element accumulates in strictly ascending `k`, bitwise
/// identical to materialising `Aᵀ` and calling [`gemm`].
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
///
/// # Example
///
/// ```
/// use oplix_linalg::gemm::{gemm, gemm_tn};
///
/// let a = [1.0f64, 2.0, 3.0, 4.0]; // 2×2 (logically Aᵀ of [[1,3],[2,4]])
/// let at = [1.0f64, 3.0, 2.0, 4.0];
/// let b = [1.0f64, 0.0, 0.0, 1.0]; // identity
/// let (mut fused, mut reference) = ([0.0f64; 4], [0.0f64; 4]);
/// gemm_tn(2, 2, 2, &a, &b, &mut fused);
/// gemm(2, 2, 2, &at, &b, &mut reference);
/// assert_eq!(fused, reference);
/// ```
pub fn gemm_tn<T: GemmScalar>(m: usize, k: usize, n: usize, a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(a.len(), k * m, "gemm_tn: lhs length must be k*m");
    assert_eq!(b.len(), k * n, "gemm_tn: rhs length must be k*n");
    assert_eq!(out.len(), m * n, "gemm_tn: out length must be m*n");
    run(Job {
        m,
        k,
        n,
        a,
        a_t: true,
        b,
        b_t: false,
        out,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{F32x16, F32x8, F64x4, F64x8};
    use crate::Complex64;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_ikj(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for t in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + t] * b[t * n + j];
                }
            }
        }
        out
    }

    fn transpose<T: Copy>(rows: usize, cols: usize, a: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(a.len());
        for j in 0..cols {
            for i in 0..rows {
                out.push(a[i * cols + j]);
            }
        }
        out
    }

    #[test]
    fn blocked_gemm_is_bitwise_the_naive_ikj_loop() {
        let mut rng = StdRng::seed_from_u64(1);
        // Shapes straddling every block boundary, plus empty/degenerate.
        for &(m, k, n) in &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 200, 1),
            (7, 65, 130),
            (33, 64, 128),
            (40, 130, 129),
        ] {
            let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut out = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            assert_eq!(out, naive_ikj(m, k, n, &a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn nt_and_tn_match_transpose_then_gemm_bitwise() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(0, 2, 3), (1, 1, 1), (5, 67, 4), (34, 5, 129), (8, 128, 8)] {
            let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let bt: Vec<f64> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut fused = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, &bt, &mut fused);
            let mut reference = vec![0.0; m * n];
            gemm(m, k, n, &a, &transpose(n, k, &bt), &mut reference);
            assert_eq!(fused, reference, "nt shape {m}x{k}x{n}");

            let at: Vec<f64> = (0..k * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut fused = vec![0.0; m * n];
            gemm_tn(m, k, n, &at, &b, &mut fused);
            let mut reference = vec![0.0; m * n];
            gemm(m, k, n, &transpose(k, m, &at), &b, &mut reference);
            assert_eq!(fused, reference, "tn shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn complex_gemm_matches_naive_product() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (9, 70, 11);
        let a: Vec<Complex64> = (0..m * k)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let b: Vec<Complex64> = (0..k * n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut out = vec![Complex64::ZERO; m * n];
        gemm(m, k, n, &a, &b, &mut out);
        let mut naive = vec![Complex64::ZERO; m * n];
        for i in 0..m {
            for t in 0..k {
                for j in 0..n {
                    naive[i * n + j] += a[i * k + t] * b[t * n + j];
                }
            }
        }
        assert_eq!(out, naive);
    }

    /// The register block must be bitwise the scalar loop at every row
    /// width around the lane boundaries (F64x4 / F32x8): tail-only rows,
    /// exactly one lane, one lane plus a tail.
    #[test]
    fn lane_awkward_row_widths_are_bitwise_naive() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k) = (3usize, 13usize);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut out = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            assert_eq!(out, naive_ikj(m, k, n, &a, &b), "f64 n={n}");

            let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let mut outf = vec![0.0f32; m * n];
            gemm(m, k, n, &af, &bf, &mut outf);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for t in 0..k {
                    for j in 0..n {
                        naive[i * n + j] += af[i * k + t] * bf[t * n + j];
                    }
                }
            }
            assert_eq!(outf, naive, "f32 n={n}");

            let ac: Vec<Complex64> = (0..m * k)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let bc: Vec<Complex64> = (0..k * n)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut outc = vec![Complex64::ZERO; m * n];
            gemm(m, k, n, &ac, &bc, &mut outc);
            let mut naivec = vec![Complex64::ZERO; m * n];
            for i in 0..m {
                for t in 0..k {
                    for j in 0..n {
                        naivec[i * n + j] += ac[i * k + t] * bc[t * n + j];
                    }
                }
            }
            assert_eq!(outc, naivec, "complex n={n}");
        }
    }

    /// The driver for one layout (0: `A·B`, 1: `A·Bᵀ`, 2: `Aᵀ·B`) at lane
    /// types `D`/`S`, whatever the host's widest tier is.
    fn at_tier<T: GemmScalar, D: Lane<f64>, S: Lane<f32>>(
        layout: usize,
        (m, k, n): (usize, usize, usize),
        a: &[T],
        b: &[T],
    ) -> Vec<T> {
        let mut out = vec![T::default(); m * n];
        let job = Job {
            m,
            k,
            n,
            a,
            a_t: layout == 2,
            b,
            b_t: layout == 1,
            out: &mut out,
        };
        GemmKernel {
            job,
            panel: &mut Vec::new(),
        }
        .run::<D, S>();
        out
    }

    /// Asserts one layout's driver at both lane tiers and through the
    /// dispatched entry point is bitwise the naive `ikj` loop over the
    /// logical operands.
    fn assert_tiers_are_naive<T: GemmScalar + std::fmt::Debug>(
        layout: usize,
        (m, k, n): (usize, usize, usize),
        a: &[T],
        b: &[T],
        bits: impl Fn(&[T]) -> Vec<u64>,
    ) {
        let a_at = |i: usize, t: usize| {
            if layout == 2 {
                a[t * m + i]
            } else {
                a[i * k + t]
            }
        };
        let b_at = |t: usize, j: usize| {
            if layout == 1 {
                b[j * k + t]
            } else {
                b[t * n + j]
            }
        };
        let mut naive = vec![T::default(); m * n];
        for i in 0..m {
            for t in 0..k {
                for j in 0..n {
                    naive[i * n + j] += a_at(i, t) * b_at(t, j);
                }
            }
        }
        let mut dispatched = vec![T::default(); m * n];
        [gemm, gemm_nt, gemm_tn][layout](m, k, n, a, b, &mut dispatched);
        let shape = (m, k, n);
        let runs = [
            (
                "F64x4/F32x8",
                at_tier::<T, F64x4, F32x8>(layout, shape, a, b),
            ),
            (
                "F64x8/F32x16",
                at_tier::<T, F64x8, F32x16>(layout, shape, a, b),
            ),
            ("dispatched", dispatched),
        ];
        for (tier, got) in runs {
            assert_eq!(
                bits(&got),
                bits(&naive),
                "{tier} layout {layout} {m}x{k}x{n}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every layout and scalar type, at both lane tiers run directly
        /// and dispatched, is bitwise the naive `ikj` loop: `m` covers
        /// every row remainder, `n` one-chunk and two-chunk column blocks
        /// with tails narrower than a lane, and `k` the empty product.
        #[test]
        fn driver_is_bitwise_naive_at_every_tier(
            layout in 0usize..3,
            m in 1usize..=70,
            k in 0usize..=300,
            n in 1usize..=70,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |len: usize| -> Vec<f64> {
                (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
            };
            let (a, b) = (draw(m * k), draw(k * n));
            let f32_bits = |v: &[f32]| v.iter().map(|x| u64::from(x.to_bits())).collect();
            let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
            let c64_bits = |v: &[Complex64]| {
                v.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
            };
            let (af, bf): (Vec<f32>, Vec<f32>) = (
                a.iter().map(|&x| x as f32).collect(),
                b.iter().map(|&x| x as f32).collect(),
            );
            assert_tiers_are_naive(layout, (m, k, n), &af, &bf, f32_bits);
            assert_tiers_are_naive(layout, (m, k, n), &a, &b, f64_bits);
            let (ai, bi) = (draw(m * k), draw(k * n));
            let ac: Vec<Complex64> = a.iter().zip(&ai).map(|(&r, &i)| Complex64::new(r, i)).collect();
            let bc: Vec<Complex64> = b.iter().zip(&bi).map(|(&r, &i)| Complex64::new(r, i)).collect();
            assert_tiers_are_naive(layout, (m, k, n), &ac, &bc, c64_bits);
        }
    }

    /// The panel grows to exactly the largest `k × n_pad` a thread packed:
    /// a second call 1.5× the first's size would leave twice the first
    /// under amortised doubling.
    #[test]
    fn panel_keeps_at_most_the_largest_pack() {
        let mut panel = Vec::new();
        for (k, n) in [(4, 16), (6, 16), (2, 8)] {
            let (a, b) = (vec![1.0f32; k], vec![1.0f32; k * n]);
            let mut out = vec![0.0f32; n];
            let job = Job {
                m: 1,
                k,
                n,
                a: &a,
                a_t: false,
                b: &b,
                b_t: true,
                out: &mut out,
            };
            GemmKernel {
                job,
                panel: &mut panel,
            }
            .run::<F64x4, F32x8>();
            assert_eq!(out, vec![k as f32; n]);
        }
        assert_eq!(panel.capacity(), 6 * 16);
    }

    #[test]
    #[should_panic(expected = "out length")]
    fn shape_mismatch_panics() {
        let mut out = [0.0f32; 3];
        gemm(2, 2, 2, &[0.0; 4], &[0.0; 4], &mut out);
    }
}
