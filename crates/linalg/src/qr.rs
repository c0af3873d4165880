//! Householder QR factorisation for complex matrices and unitary basis
//! completion.
//!
//! QR is used in two places by the photonic stack:
//!
//! * generating exactly-unitary random test matrices
//!   ([`CMatrix::random_unitary`]), and
//! * completing the economy singular-vector blocks returned by the Jacobi
//!   SVD to full square unitaries, which is what an MZI mesh physically
//!   implements.
//!
//! [`CMatrix::random_unitary`]: crate::CMatrix::random_unitary

use crate::complex::Complex64;
use crate::lanes::{cmul, cmul_splat_lhs, cmul_splat_rhs, dispatch, F64x1, Lane, LaneKernel};
use crate::matrix::CMatrix;

/// Householder QR factorisation `A = Q R` with `Q` square unitary (`m×m`)
/// and `R` upper trapezoidal (`m×n`).
///
/// # Example
///
/// ```
/// use oplix_linalg::{CMatrix, Complex64, qr::qr};
///
/// let a = CMatrix::from_fn(4, 3, |i, j| Complex64::new(i as f64 - j as f64, 1.0));
/// let (q, r) = qr(&a);
/// assert!(q.is_unitary(1e-10));
/// assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
/// ```
pub fn qr(a: &CMatrix) -> (CMatrix, CMatrix) {
    let m = a.rows();
    let n = a.cols();
    let mut r = a.clone();
    let mut q = CMatrix::identity(m);

    for k in 0..n.min(m.saturating_sub(1)) {
        // Householder vector for the k-th column below the diagonal.
        let x: Vec<Complex64> = (k..m).map(|i| r[(i, k)]).collect();
        let norm_x = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm_x == 0.0 {
            continue;
        }
        // alpha = -e^{i arg(x0)} * ||x|| guarantees v^H x is real positive,
        // which makes H = I - 2 v v^H / (v^H v) map x onto alpha * e1.
        let phase = x[0].unit_phase();
        let alpha = -phase * norm_x;
        let mut v = x;
        v[0] -= alpha;
        let vnorm_sqr: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        if vnorm_sqr == 0.0 {
            continue;
        }
        let tau = 2.0 / vnorm_sqr;

        // R <- H R, applied only to the trailing block.
        for j in k..n {
            let dot: Complex64 = v
                .iter()
                .enumerate()
                .map(|(t, &vt)| vt.conj() * r[(k + t, j)])
                .sum();
            let f = dot.scale(tau);
            for (t, &vt) in v.iter().enumerate() {
                let upd = vt * f;
                r[(k + t, j)] -= upd;
            }
        }
        // Q <- Q H (H is Hermitian, so accumulating on the right builds
        // Q = H_0 H_1 ... H_{n-1}).
        for i in 0..m {
            let dot: Complex64 = v
                .iter()
                .enumerate()
                .map(|(t, &vt)| q[(i, k + t)] * vt)
                .sum();
            let f = dot.scale(tau);
            for (t, &vt) in v.iter().enumerate() {
                let upd = f * vt.conj();
                q[(i, k + t)] -= upd;
            }
        }
    }
    // Zero out the strictly-lower part of R to remove round-off residue.
    for i in 0..m {
        for j in 0..n.min(i) {
            r[(i, j)] = Complex64::ZERO;
        }
    }
    (q, r)
}

/// Completes a set of orthonormal columns to a full `n×n` unitary.
///
/// The first `cols.len()` columns of the result are the inputs (in order);
/// the remaining columns are obtained by Gram–Schmidt orthogonalisation of
/// canonical basis vectors.
///
/// This is exactly the freedom an ONN designer has when a weight matrix is
/// rank deficient: the missing singular vectors can be chosen arbitrarily
/// without changing the implemented linear map.
///
/// # Panics
///
/// Panics if any input column does not have length `n`, if more than `n`
/// columns are supplied, or if the inputs are too far from orthonormal for
/// completion to succeed.
///
/// # Example
///
/// ```
/// use oplix_linalg::{Complex64, qr::complete_unitary};
///
/// let e0 = vec![Complex64::ONE, Complex64::ZERO, Complex64::ZERO];
/// let u = complete_unitary(&[e0], 3);
/// assert!(u.is_unitary(1e-10));
/// ```
pub fn complete_unitary(cols: &[Vec<Complex64>], n: usize) -> CMatrix {
    assert!(cols.len() <= n, "more columns than the target dimension");
    let mut basis = PlanarBasis::new(n);
    for c in cols {
        assert_eq!(c.len(), n, "column length must equal target dimension");
        basis.push(|i| c[i]);
    }
    basis.complete()
}

/// Orthonormal columns of length `n` in planar storage: vector `k` is
/// `re[k·n..(k+1)·n]` and the same span of `im`.
pub(crate) struct PlanarBasis {
    n: usize,
    len: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl PlanarBasis {
    /// An empty basis of length-`n` vectors.
    pub(crate) fn new(n: usize) -> Self {
        PlanarBasis {
            n,
            len: 0,
            re: Vec::with_capacity(n * n),
            im: Vec::with_capacity(n * n),
        }
    }

    /// Appends the vector whose `i`-th element is `at(i)`.
    pub(crate) fn push(&mut self, mut at: impl FnMut(usize) -> Complex64) {
        for i in 0..self.n {
            let z = at(i);
            self.re.push(z.re);
            self.im.push(z.im);
        }
        self.len += 1;
    }

    fn vector(&self, k: usize) -> Planes<'_> {
        let span = k * self.n..(k + 1) * self.n;
        (&self.re[span.clone()], &self.im[span])
    }

    /// Completes the basis to `n` vectors (see [`complete_unitary`]) and
    /// returns them as the columns of a unitary.
    pub(crate) fn complete(mut self) -> CMatrix {
        dispatch(Completion { basis: &mut self });
        self.into_matrix()
    }

    fn into_matrix(self) -> CMatrix {
        let n = self.n;
        CMatrix::from_fn(n, n, |i, j| {
            Complex64::new(self.re[j * n + i], self.im[j * n + i])
        })
    }
}

/// [`complete_at`] through [`dispatch`].
struct Completion<'a> {
    basis: &'a mut PlanarBasis,
}

impl LaneKernel for Completion<'_> {
    #[inline(always)]
    fn run<D: Lane<f64>, S: Lane<f32>>(self) {
        complete_at::<D>(self.basis);
    }
}

/// Twice-run modified Gram–Schmidt of the canonical vectors `e_0, e_1, …`
/// against the growing basis, each candidate kept when its residual norm
/// exceeds `1e-7`, until the basis has `n` vectors.
///
/// Every inner product is one sequential sum over the elements in index
/// order, and every update `v −= dot·b` keeps the [`Complex64`] `Mul`
/// shape, so the result is bitwise the scalar loop's. The lanes come from
/// two places. A candidate's first pass against the vectors that already
/// exist does not depend on the candidates before it, so the pending
/// candidates ([`Pool`]) project against each new vector side by side, one
/// candidate per lane. The second pass of the front candidate runs its
/// element-wise products and updates in lanes over the elements, with
/// only the sums left sequential.
#[inline(always)]
fn complete_at<V: Lane<f64>>(basis: &mut PlanarBasis) {
    let n = basis.n;
    let mut pool = Pool::default();
    let mut next = 0usize;
    let (mut vr, mut vi) = (vec![0.0; n], vec![0.0; n]);
    while basis.len < n {
        if pool.front == pool.len {
            assert!(
                next < n,
                "failed to complete unitary basis: inputs were not orthonormal"
            );
            let take = (n - basis.len).min(n - next);
            pool.refill(n, next, take);
            next += take;
        }
        while pool.done < basis.len {
            pool.project::<V>(basis.vector(pool.done));
            pool.done += 1;
        }
        pool.take_front(&mut vr, &mut vi);
        reproject::<V>(basis, &mut vr, &mut vi);
        let norm = vr
            .iter()
            .zip(&vi)
            .map(|(&re, &im)| Complex64::new(re, im).norm_sqr())
            .sum::<f64>()
            .sqrt();
        if norm > 1e-7 {
            basis.push(|i| Complex64::new(vr[i], vi[i]).scale(1.0 / norm));
        }
    }
}

/// Twice the widest lane count of any tier; the pool's row stride is a
/// multiple of it so every tier's chunk pairs stay in bounds.
const POOL_ALIGN: usize = 16;

/// Completion candidates that have not been decided yet, planar and
/// candidate-minor: element `i` of candidate `c` sits at `i·width + c`.
/// All of them have been projected against basis vectors `0..done`, the
/// first pass of the scalar loop.
#[derive(Default)]
struct Pool {
    width: usize,
    len: usize,
    front: usize,
    done: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Pool {
    /// Loads the canonical candidates `e_first .. e_first+take`.
    fn refill(&mut self, n: usize, first: usize, take: usize) {
        self.width = take.div_ceil(POOL_ALIGN) * POOL_ALIGN;
        self.len = take;
        self.front = 0;
        self.done = 0;
        self.re.clear();
        self.re.resize(n * self.width, 0.0);
        self.im.clear();
        self.im.resize(n * self.width, 0.0);
        for c in 0..take {
            self.re[(first + c) * self.width + c] = 1.0;
        }
    }

    /// Projects every pending candidate against the basis vector `b`:
    /// `v −= (b*·v)·b`, one candidate per lane. Two lane chunks share each
    /// pass over the elements, so two independent sum chains are in flight.
    /// Chunks before the front hold decided candidates and are skipped
    /// whole; a decided candidate sharing a front chunk is updated
    /// harmlessly, as are the zero padding columns.
    #[inline(always)]
    fn project<V: Lane<f64>>(&mut self, (br, bi): Planes<'_>) {
        let w = self.width;
        let pair = 2 * V::LANES;
        let mut c = self.front - self.front % pair;
        while c < self.len {
            let zero = V::splat(0.0);
            let (mut dr0, mut di0, mut dr1, mut di1) = (zero, zero, zero, zero);
            for i in 0..br.len() {
                let at = i * w + c;
                let (xr, xi) = (&self.re[at..], &self.im[at..]);
                let (pr, pi) = cmul_splat_lhs(br[i], -bi[i], V::load(xr), V::load(xi));
                dr0 = dr0 + pr;
                di0 = di0 + pi;
                let (xr, xi) = (&xr[V::LANES..], &xi[V::LANES..]);
                let (pr, pi) = cmul_splat_lhs(br[i], -bi[i], V::load(xr), V::load(xi));
                dr1 = dr1 + pr;
                di1 = di1 + pi;
            }
            for i in 0..br.len() {
                for (k, (dr, di)) in [(dr0, di0), (dr1, di1)].into_iter().enumerate() {
                    let at = i * w + c + k * V::LANES;
                    let (qr, qi) = cmul_splat_rhs(dr, di, br[i], bi[i]);
                    (V::load(&self.re[at..]) - qr).store(&mut self.re[at..]);
                    (V::load(&self.im[at..]) - qi).store(&mut self.im[at..]);
                }
            }
            c += pair;
        }
    }

    /// Moves the front candidate out into `vr`/`vi`.
    fn take_front(&mut self, vr: &mut [f64], vi: &mut [f64]) {
        for (i, (r, m)) in vr.iter_mut().zip(vi.iter_mut()).enumerate() {
            *r = self.re[i * self.width + self.front];
            *m = self.im[i * self.width + self.front];
        }
        self.front += 1;
    }
}

/// The second Gram–Schmidt pass of one candidate against the whole basis.
/// Each update `v −= dot_k·b_k` is fused with the products of the next
/// inner product `b_{k+1}*·v`, which only need the updated elements.
#[inline(always)]
fn reproject<V: Lane<f64>>(basis: &PlanarBasis, vr: &mut [f64], vi: &mut [f64]) {
    let mut dot = match basis.len {
        0 => return,
        _ => update_then_dot::<V>(None, Some(basis.vector(0)), vr, vi),
    };
    for k in 0..basis.len {
        let next = (k + 1 < basis.len).then(|| basis.vector(k + 1));
        dot = update_then_dot::<V>(Some((dot, basis.vector(k))), next, vr, vi);
    }
}

/// A basis vector's `(re, im)` planes.
type Planes<'a> = (&'a [f64], &'a [f64]);

/// Applies `v −= dot·b` if `update` is given, then returns the inner
/// product `Σ_i conj(d_i)·v_i` of the updated `v` with `dot_with` (zero
/// without it), one sequential sum in index order. Full lane chunks run at
/// `V`, the tail at [`F64x1`].
#[inline(always)]
fn update_then_dot<V: Lane<f64>>(
    update: Option<(Complex64, Planes<'_>)>,
    dot_with: Option<Planes<'_>>,
    vr: &mut [f64],
    vi: &mut [f64],
) -> Complex64 {
    let n = vr.len();
    let full = n - n % V::LANES;
    let mut acc = Complex64::ZERO;
    update_then_dot_span::<V>(update, dot_with, vr, vi, 0..full, &mut acc);
    update_then_dot_span::<F64x1>(update, dot_with, vr, vi, full..n, &mut acc);
    acc
}

#[inline(always)]
fn update_then_dot_span<W: Lane<f64>>(
    update: Option<(Complex64, Planes<'_>)>,
    dot_with: Option<Planes<'_>>,
    vr: &mut [f64],
    vi: &mut [f64],
    span: std::ops::Range<usize>,
    acc: &mut Complex64,
) {
    let mut i = span.start;
    while i < span.end {
        let (mut xr, mut xi) = (W::load(&vr[i..]), W::load(&vi[i..]));
        if let Some((dot, (br, bi))) = update {
            let (qr, qi) = cmul_splat_lhs(dot.re, dot.im, W::load(&br[i..]), W::load(&bi[i..]));
            xr = xr - qr;
            xi = xi - qi;
            xr.store(&mut vr[i..]);
            xi.store(&mut vi[i..]);
        }
        if let Some((dr, di)) = dot_with {
            let (pr, pi) = cmul(W::load(&dr[i..]), -W::load(&di[i..]), xr, xi);
            for l in 0..W::LANES {
                *acc += Complex64::new(pr.get(l), pi.get(l));
            }
        }
        i += W::LANES;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lanes::{F32x16, F32x8, F64x4, F64x8};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scalar completion loop the lane kernel replaced, kept as its
    /// bitwise oracle.
    pub(crate) fn complete_unitary_oracle(cols: &[Vec<Complex64>], n: usize) -> CMatrix {
        let mut basis: Vec<Vec<Complex64>> = cols.to_vec();
        let mut cand = 0usize;
        while basis.len() < n {
            assert!(
                cand < n,
                "failed to complete unitary basis: inputs were not orthonormal"
            );
            let mut v = vec![Complex64::ZERO; n];
            v[cand] = Complex64::ONE;
            cand += 1;
            for _ in 0..2 {
                for b in &basis {
                    let dot: Complex64 = b.iter().zip(&v).map(|(&bi, &vi)| bi.conj() * vi).sum();
                    for (vi, &bi) in v.iter_mut().zip(b) {
                        *vi -= dot * bi;
                    }
                }
            }
            let norm = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if norm > 1e-7 {
                for z in &mut v {
                    *z = z.scale(1.0 / norm);
                }
                basis.push(v);
            }
        }
        CMatrix::from_fn(n, n, |i, j| basis[j][i])
    }

    /// Every `(re, im)` bit pattern, for bitwise comparisons.
    pub(crate) fn bits(a: &CMatrix) -> Vec<(u64, u64)> {
        a.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// [`complete_unitary`] at lane tier `D` (`S` is unused by the body).
    fn complete_at_tier<D: Lane<f64>, S: Lane<f32>>(cols: &[Vec<Complex64>], n: usize) -> CMatrix {
        let mut basis = PlanarBasis::new(n);
        for c in cols {
            basis.push(|i| c[i]);
        }
        Completion { basis: &mut basis }.run::<D, S>();
        basis.into_matrix()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lane completion at both tiers and dispatched is bitwise the
        /// scalar loop, for `n` on both sides of the 4- and 8-lane widths
        /// and any number of given columns, including none and all.
        #[test]
        fn completion_is_bitwise_the_scalar_loop(
            n in 1usize..=130,
            keep in 0usize..=130,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let u = CMatrix::random_unitary(n, &mut rng);
            let k = keep % (n + 1);
            let cols: Vec<Vec<Complex64>> = (0..k).map(|j| u.col(j)).collect();
            let want = bits(&complete_unitary_oracle(&cols, n));
            prop_assert_eq!(&bits(&complete_at_tier::<F64x4, F32x8>(&cols, n)), &want);
            prop_assert_eq!(&bits(&complete_at_tier::<F64x8, F32x16>(&cols, n)), &want);
            prop_assert_eq!(&bits(&complete_unitary(&cols, n)), &want);
        }
    }

    fn random_cmatrix(m: usize, n: usize, seed: u64) -> CMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn qr_reconstructs_square() {
        let a = random_cmatrix(5, 5, 1);
        let (q, r) = qr(&a);
        assert!(q.is_unitary(1e-10));
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn qr_reconstructs_tall() {
        let a = random_cmatrix(7, 3, 2);
        let (q, r) = qr(&a);
        assert!(q.is_unitary(1e-10));
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let a = random_cmatrix(3, 6, 3);
        let (q, r) = qr(&a);
        assert!(q.is_unitary(1e-10));
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = random_cmatrix(5, 4, 4);
        let (_, r) = qr(&a);
        for i in 0..5 {
            for j in 0..4.min(i) {
                assert_eq!(r[(i, j)], Complex64::ZERO);
            }
        }
    }

    #[test]
    fn qr_handles_zero_column() {
        let mut a = random_cmatrix(4, 4, 5);
        for i in 0..4 {
            a[(i, 1)] = Complex64::ZERO;
        }
        let (q, r) = qr(&a);
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn complete_unitary_from_orthonormal_pair() {
        let mut rng = StdRng::seed_from_u64(9);
        let u = CMatrix::random_unitary(5, &mut rng);
        let cols = vec![u.col(0), u.col(1)];
        let full = complete_unitary(&cols, 5);
        assert!(full.is_unitary(1e-9));
        // First two columns preserved.
        for i in 0..5 {
            assert!((full[(i, 0)] - u[(i, 0)]).abs() < 1e-12);
            assert!((full[(i, 1)] - u[(i, 1)]).abs() < 1e-12);
        }
    }

    #[test]
    fn complete_unitary_from_nothing_gives_identityish() {
        let full = complete_unitary(&[], 4);
        assert!(full.is_unitary(1e-10));
    }
}
