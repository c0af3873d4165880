//! One-sided Jacobi singular value decomposition for complex matrices.
//!
//! Deploying a trained weight matrix onto an MZI-based ONN requires
//! `W = U Σ V*` (paper §II-A): the unitaries `U` and `V*` become MZI meshes
//! and `Σ` becomes a column of optical attenuators/amplifiers. The Jacobi
//! method is chosen because it is simple, numerically robust, and its
//! convergence is easy to property-test.
//!
//! Its speed matters all the same: deployment is about a quarter of a
//! paper-pipeline job. On the 32×129 first layer of that pipeline, one
//! thread on a 2-vCPU AVX-512 host (minimum of 21 runs),
//! `PhotonicLayer::from_matrix` takes 11–12 ms. The SVD is 5.4 ms of it:
//! about 3 ms completing the 129×129 factor
//! ([`complete_unitary`](crate::qr::complete_unitary)) and about 2 ms of
//! Jacobi sweeps. Nulling `V*` into Clements phases takes about 4.5 ms,
//! plus 0.9 ms for its unitarity check. The scalar loops these kernels
//! replaced took 14–15 ms in all (SVD 8.0–9.1 ms, completion 4.4–5.0 ms,
//! Clements 6.0 ms with the check), bit for bit the same factors.

use crate::complex::Complex64;
use crate::lanes::{dispatch, rotate_pair, Lane, LaneKernel};
use crate::matrix::{CMatrix, Matrix};
use crate::qr::PlanarBasis;

/// The result of a singular value decomposition `A = U Σ V*`.
///
/// `U` is `m×m` unitary, `V` is `n×n` unitary and `Σ` is the `m×n`
/// rectangular diagonal of the `min(m,n)` non-negative singular values in
/// non-increasing order — exactly the three photonic stages of an SVD-based
/// ONN layer.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m×m` unitary.
    pub u: CMatrix,
    /// Singular values, length `min(m, n)`, non-increasing, non-negative.
    pub s: Vec<f64>,
    /// Right singular vectors, `n×n` unitary (not conjugated).
    pub v: CMatrix,
}

impl Svd {
    /// Rebuilds `U Σ V*`; useful for round-trip testing.
    pub fn reconstruct(&self) -> CMatrix {
        let m = self.u.rows();
        let n = self.v.rows();
        let sigma = CMatrix::diag_rect(m, n, &self.s);
        self.u.matmul(&sigma).matmul(&self.v.hermitian())
    }

    /// The largest singular value (spectral norm), or `0` for empty input.
    pub fn spectral_norm(&self) -> f64 {
        self.s.first().copied().unwrap_or(0.0)
    }
}

/// Maximum number of Jacobi sweeps before giving up. Convergence is
/// typically reached in well under 20 sweeps for the matrix sizes used by
/// the photonic mapper.
const MAX_SWEEPS: usize = 64;

/// Computes the SVD of a complex matrix using one-sided Jacobi rotations.
///
/// # Example
///
/// ```
/// use oplix_linalg::{CMatrix, Complex64, svd::svd};
///
/// let a = CMatrix::from_fn(2, 2, |i, j| Complex64::new((2 * i + j) as f64, 1.0));
/// let f = svd(&a);
/// assert!(f.u.is_unitary(1e-10));
/// assert!(f.v.is_unitary(1e-10));
/// assert!(f.reconstruct().max_abs_diff(&a) < 1e-9);
/// ```
pub fn svd(a: &CMatrix) -> Svd {
    let mut out = Svd {
        u: CMatrix::zeros(0, 0),
        s: Vec::new(),
        v: CMatrix::zeros(0, 0),
    };
    dispatch(Decompose { a, out: &mut out });
    out
}

/// [`svd_at`] through [`dispatch`].
struct Decompose<'a> {
    a: &'a CMatrix,
    out: &'a mut Svd,
}

impl LaneKernel for Decompose<'_> {
    #[inline(always)]
    fn run<D: Lane<f64>, S: Lane<f32>>(self) {
        *self.out = svd_at::<D>(self.a);
    }
}

/// [`svd`] at lane type `V`: the cyclic one-sided Jacobi method on
/// column-major planar storage, so each column is two contiguous planes.
///
/// Every inner product (`α`, `β`, `γ`) is one sequential sum over the rows
/// in index order, and every rotation update keeps the [`Complex64`] `Mul`
/// shape ([`rotate_pair`]), so the factors are bitwise the row-major
/// scalar loop's; only the rotation updates run in lanes.
#[inline(always)]
fn svd_at<V: Lane<f64>>(a: &CMatrix) -> Svd {
    if a.rows() < a.cols() {
        // Work on the Hermitian transpose and swap the factors:
        // A^H = U' Σ V'^H  =>  A = V' Σ U'^H.
        let f = tall_svd_at::<V>(&a.hermitian());
        return Svd {
            u: f.v,
            s: f.s,
            v: f.u,
        };
    }
    tall_svd_at::<V>(a)
}

/// [`svd_at`] for `m ≥ n`. Not recursive, so it inlines into the tier
/// clone [`dispatch`] runs: a recursive call would compile apart from
/// the clone, at the portable width.
#[inline(always)]
fn tall_svd_at<V: Lane<f64>>(a: &CMatrix) -> Svd {
    let m = a.rows();
    let n = a.cols();

    // One-sided Jacobi: iteratively make the columns of `work` mutually
    // orthogonal; the rotations accumulate into V.
    let mut work = Columns::from_fn(m, n, |i, j| a[(i, j)]);
    let mut v = Columns::from_fn(n, n, |i, j| {
        if i == j {
            Complex64::ONE
        } else {
            Complex64::ZERO
        }
    });
    let tol = 1e-14;

    for _ in 0..MAX_SWEEPS {
        let mut off_diagonal = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (alpha, beta, gamma) = work.inner_products(p, q);
                let g = gamma.abs();
                if g <= tol * (alpha * beta).sqrt() || g == 0.0 {
                    continue;
                }
                off_diagonal = true;

                // Absorb the phase of gamma into column q, reducing the 2x2
                // problem to the real symmetric case [[alpha, g], [g, beta]].
                let phase = gamma.unit_phase(); // e^{i psi}
                let zeta = (beta - alpha) / (2.0 * g);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                // Column update: [a_p', a_q'] = [a_p, a_q] * M with
                // M = [[c, s], [-s * conj(phase), c * conj(phase)]].
                let rotation = [
                    Complex64::from_real(c),
                    Complex64::from_real(s),
                    -phase.conj().scale(s),
                    phase.conj().scale(c),
                ];
                work.rotate::<V>(p, q, rotation);
                v.rotate::<V>(p, q, rotation);
            }
        }
        if !off_diagonal {
            break;
        }
    }

    // Extract singular values and left singular vectors.
    let sigma: Vec<f64> = (0..n)
        .map(|j| {
            let (re, im) = work.column(j);
            re.iter()
                .zip(im)
                .map(|(&re, &im)| Complex64::new(re, im).norm_sqr())
                .sum::<f64>()
                .sqrt()
        })
        .collect();

    // Sort in non-increasing order of sigma, permuting columns of work & V.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| {
        sigma[y]
            .partial_cmp(&sigma[x])
            .expect("non-NaN singular values")
    });
    let sigma: Vec<f64> = order.iter().map(|&j| sigma[j]).collect();

    // Normalise the non-negligible columns into left singular vectors.
    let smax = sigma.first().copied().unwrap_or(0.0);
    let rank_tol = smax * 1e-13;
    let mut u = PlanarBasis::new(m);
    for (&j, &s_j) in order.iter().zip(&sigma) {
        if s_j > rank_tol && s_j > 0.0 {
            u.push(|i| work.at(i, j).scale(1.0 / s_j));
        }
    }

    Svd {
        u: u.complete(),
        s: sigma,
        v: CMatrix::from_fn(n, n, |i, j| v.at(i, order[j])),
    }
}

/// A column-major planar matrix: column `j` is `re[j·rows..(j+1)·rows]`
/// and the same span of `im`.
struct Columns {
    rows: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Columns {
    fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let (mut re, mut im) = (
            Vec::with_capacity(rows * cols),
            Vec::with_capacity(rows * cols),
        );
        for j in 0..cols {
            for i in 0..rows {
                let z = f(i, j);
                re.push(z.re);
                im.push(z.im);
            }
        }
        Columns { rows, re, im }
    }

    fn at(&self, i: usize, j: usize) -> Complex64 {
        let k = j * self.rows + i;
        Complex64::new(self.re[k], self.im[k])
    }

    fn column(&self, j: usize) -> (&[f64], &[f64]) {
        let span = j * self.rows..(j + 1) * self.rows;
        (&self.re[span.clone()], &self.im[span])
    }

    /// Columns `p < q` of one plane, both mutable.
    fn pair(plane: &mut [f64], rows: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
        let (head, tail) = plane.split_at_mut(q * rows);
        (&mut head[p * rows..(p + 1) * rows], &mut tail[..rows])
    }

    /// `(Σ|a_p|², Σ|a_q|², Σ conj(a_p)·a_q)` over the rows, each one
    /// sequential sum in row order. The four sums are latency-bound
    /// chains, so this stays a scalar walk over the contiguous planes.
    fn inner_products(&self, p: usize, q: usize) -> (f64, f64, Complex64) {
        let ((pr, pi), (qr, qi)) = (self.column(p), self.column(q));
        let (mut alpha, mut beta, mut gamma) = (0.0, 0.0, Complex64::ZERO);
        for (((&pr, &pi), &qr), &qi) in pr.iter().zip(pi).zip(qr).zip(qi) {
            let (ap, aq) = (Complex64::new(pr, pi), Complex64::new(qr, qi));
            alpha += ap.norm_sqr();
            beta += aq.norm_sqr();
            gamma += ap.conj() * aq;
        }
        (alpha, beta, gamma)
    }

    /// `[a_p, a_q] ← [a_p·m11 + a_q·m21, a_p·m12 + a_q·m22]` on every row.
    #[inline(always)]
    fn rotate<V: Lane<f64>>(&mut self, p: usize, q: usize, [m11, m12, m21, m22]: [Complex64; 4]) {
        let rows = self.rows;
        let (pr, qr) = Self::pair(&mut self.re, rows, p, q);
        let (pi, qi) = Self::pair(&mut self.im, rows, p, q);
        rotate_pair::<V>((pr, pi), (qr, qi), [m11, m21, m12, m22]);
    }
}

/// Computes the SVD of a real matrix by lifting it to complex form.
///
/// The factors generally remain complex-valued only up to phases; for the
/// photonic mapper this is irrelevant because the meshes are complex anyway.
pub fn svd_real(a: &Matrix) -> Svd {
    svd(&a.to_cmatrix())
}

/// Projects a square complex matrix onto the nearest unitary (in Frobenius
/// norm) via the polar decomposition `A = (U V*) (V Σ V*)`.
///
/// Used by the *unitary decoder* of the paper's Fig. 6(b): after each
/// optimiser step the decoder weight is re-projected so that it stays
/// implementable as a pure MZI array (no attenuators).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn nearest_unitary(a: &CMatrix) -> CMatrix {
    assert_eq!(
        a.rows(),
        a.cols(),
        "nearest_unitary requires a square matrix"
    );
    let f = svd(a);
    f.u.matmul(&f.v.hermitian())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{F64x4, F64x8};
    use crate::qr::tests::{bits, complete_unitary_oracle};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The row-major scalar Jacobi loop the lane kernel replaced, kept as
    /// its bitwise oracle.
    fn svd_oracle(a: &CMatrix) -> Svd {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            let f = svd_oracle(&a.hermitian());
            return Svd {
                u: f.v,
                s: f.s,
                v: f.u,
            };
        }
        let mut work = a.clone();
        let mut v = CMatrix::identity(n);
        let tol = 1e-14;
        for _ in 0..MAX_SWEEPS {
            let mut off_diagonal = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    let mut alpha = 0.0;
                    let mut beta = 0.0;
                    let mut gamma = Complex64::ZERO;
                    for i in 0..m {
                        let ap = work[(i, p)];
                        let aq = work[(i, q)];
                        alpha += ap.norm_sqr();
                        beta += aq.norm_sqr();
                        gamma += ap.conj() * aq;
                    }
                    let g = gamma.abs();
                    if g <= tol * (alpha * beta).sqrt() || g == 0.0 {
                        continue;
                    }
                    off_diagonal = true;
                    let phase = gamma.unit_phase();
                    let zeta = (beta - alpha) / (2.0 * g);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    let m11 = Complex64::from_real(c);
                    let m12 = Complex64::from_real(s);
                    let m21 = -phase.conj().scale(s);
                    let m22 = phase.conj().scale(c);
                    for i in 0..m {
                        let ap = work[(i, p)];
                        let aq = work[(i, q)];
                        work[(i, p)] = ap * m11 + aq * m21;
                        work[(i, q)] = ap * m12 + aq * m22;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = vp * m11 + vq * m21;
                        v[(i, q)] = vp * m12 + vq * m22;
                    }
                }
            }
            if !off_diagonal {
                break;
            }
        }
        let mut sigma: Vec<f64> = (0..n)
            .map(|j| (0..m).map(|i| work[(i, j)].norm_sqr()).sum::<f64>().sqrt())
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| {
            sigma[y]
                .partial_cmp(&sigma[x])
                .expect("non-NaN singular values")
        });
        let work_sorted = CMatrix::from_fn(m, n, |i, j| work[(i, order[j])]);
        let v_sorted = CMatrix::from_fn(n, n, |i, j| v[(i, order[j])]);
        sigma = order.iter().map(|&j| sigma[j]).collect();
        let smax = sigma.first().copied().unwrap_or(0.0);
        let rank_tol = smax * 1e-13;
        let mut u_cols: Vec<Vec<Complex64>> = Vec::new();
        for (j, &s_j) in sigma.iter().enumerate() {
            if s_j > rank_tol && s_j > 0.0 {
                u_cols.push(
                    (0..m)
                        .map(|i| work_sorted[(i, j)].scale(1.0 / s_j))
                        .collect(),
                );
            }
        }
        Svd {
            u: complete_unitary_oracle(&u_cols, m),
            s: sigma,
            v: v_sorted,
        }
    }

    fn svd_bits(f: &Svd) -> (Vec<(u64, u64)>, Vec<u64>, Vec<(u64, u64)>) {
        (
            bits(&f.u),
            f.s.iter().map(|s| s.to_bits()).collect(),
            bits(&f.v),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The lane Jacobi SVD at both tiers and dispatched is bitwise the
        /// scalar loop, on tall and wide shapes either side of the 4- and
        /// 8-lane widths, full rank or a low-rank product with its
        /// singular values at round-off (completion then builds most of
        /// the long factor), and with exact zero columns.
        #[test]
        fn svd_is_bitwise_the_scalar_loop(
            m in 1usize..=130,
            n in 1usize..=40,
            wide in 0usize..2,
            rank in 0usize..4,
            zero_col in 0usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let (m, n) = if wide == 1 { (n, m) } else { (m, n) };
            let mut a = if rank == 0 {
                random_cmatrix(m, n, seed)
            } else {
                random_cmatrix(m, rank, seed).matmul(&random_cmatrix(rank, n, seed ^ 1))
            };
            if zero_col < n {
                for i in 0..m {
                    a[(i, zero_col)] = Complex64::ZERO;
                }
            }
            let want = svd_bits(&svd_oracle(&a));
            prop_assert_eq!(&svd_bits(&svd_at::<F64x4>(&a)), &want);
            prop_assert_eq!(&svd_bits(&svd_at::<F64x8>(&a)), &want);
            prop_assert_eq!(&svd_bits(&svd(&a)), &want);
        }
    }

    fn random_cmatrix(m: usize, n: usize, seed: u64) -> CMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    fn check_svd(a: &CMatrix, tol: f64) {
        let f = svd(a);
        assert!(f.u.is_unitary(1e-9), "U not unitary");
        assert!(f.v.is_unitary(1e-9), "V not unitary");
        assert!(
            f.reconstruct().max_abs_diff(a) < tol,
            "reconstruction error too large: {}",
            f.reconstruct().max_abs_diff(a)
        );
        // Non-increasing, non-negative singular values.
        for w in f.s.windows(2) {
            assert!(w[0] + 1e-12 >= w[1], "singular values not sorted");
        }
        assert!(f.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_square() {
        check_svd(&random_cmatrix(5, 5, 1), 1e-9);
    }

    #[test]
    fn svd_tall() {
        check_svd(&random_cmatrix(8, 3, 2), 1e-9);
    }

    #[test]
    fn svd_wide() {
        check_svd(&random_cmatrix(3, 8, 3), 1e-9);
    }

    #[test]
    fn svd_rank_deficient() {
        // Outer product => rank 1.
        let u = random_cmatrix(6, 1, 4);
        let v = random_cmatrix(1, 5, 5);
        let a = u.matmul(&v);
        let f = svd(&a);
        assert!(f.u.is_unitary(1e-9));
        assert!(f.v.is_unitary(1e-9));
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-9);
        // Exactly one non-negligible singular value.
        assert!(f.s[0] > 1e-6);
        for &s in &f.s[1..] {
            assert!(s < 1e-9 * f.s[0].max(1.0));
        }
    }

    #[test]
    fn svd_zero_matrix() {
        let a = CMatrix::zeros(4, 3);
        let f = svd(&a);
        assert!(f.u.is_unitary(1e-9));
        assert!(f.v.is_unitary(1e-9));
        assert!(f.s.iter().all(|&s| s == 0.0));
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn svd_identity() {
        let a = CMatrix::identity(4);
        let f = svd(&a);
        for &s in &f.s {
            assert!((s - 1.0).abs() < 1e-10);
        }
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn svd_of_unitary_has_unit_singular_values() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = CMatrix::random_unitary(6, &mut rng);
        let f = svd(&a);
        for &s in &f.s {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn svd_real_matrix() {
        let a = Matrix::from_rows(&[vec![4.0, 0.0], vec![3.0, -5.0]]);
        let f = svd_real(&a);
        assert!(f.reconstruct().max_abs_diff(&a.to_cmatrix()) < 1e-9);
        // Known singular values of [[4,0],[3,-5]]: sqrt(20+...)  just check
        // the product equals |det| = 20 and the frobenius matches.
        let prod: f64 = f.s.iter().product();
        assert!((prod - 20.0).abs() < 1e-8);
        let fro: f64 = f.s.iter().map(|s| s * s).sum();
        assert!((fro - 50.0).abs() < 1e-8);
    }

    #[test]
    fn nearest_unitary_is_unitary_and_close() {
        let mut rng = StdRng::seed_from_u64(21);
        let u = CMatrix::random_unitary(5, &mut rng);
        // Perturb slightly off unitary.
        let noise = random_cmatrix(5, 5, 22).scale(Complex64::from_real(0.01));
        let a = u.add(&noise);
        let p = nearest_unitary(&a);
        assert!(p.is_unitary(1e-9));
        assert!(p.max_abs_diff(&u) < 0.1);
    }

    #[test]
    fn spectral_norm_matches_definition() {
        let a = random_cmatrix(4, 4, 33);
        let f = svd(&a);
        // ||A x|| <= sigma_max ||x|| with equality for the top right vector.
        let x = f.v.col(0);
        let y = a.mul_vec(&x);
        let ny: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!((ny - f.spectral_norm()).abs() < 1e-9);
    }
}
