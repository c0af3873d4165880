//! Reck triangular decomposition of a unitary into MZI phases.
//!
//! Reck et al. (PRL 1994, the paper's ref. \[14\]) showed that any `N×N`
//! unitary can be realised by a triangular arrangement of `N(N−1)/2` MZIs
//! plus `N` output phase shifters. The algorithm nulls the below-diagonal
//! elements of `U` row by row (bottom row first, left to right) by
//! right-multiplying with inverse MZI transfer matrices acting on adjacent
//! column pairs; what remains is a diagonal phase screen.

use crate::devices::Mzi;
use crate::mesh::MziMesh;
use oplix_linalg::lanes::{dispatch, rotate_pair, Lane, LaneKernel};
use oplix_linalg::{CMatrix, Complex64};

/// Decomposes a unitary matrix into a Reck-style triangular MZI mesh.
///
/// # Panics
///
/// Panics if `u` is not square or not unitary to within `1e-8`.
///
/// # Example
///
/// ```
/// use oplix_linalg::CMatrix;
/// use oplix_photonics::reck::decompose_reck;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let u = CMatrix::random_unitary(6, &mut rng);
/// let mesh = decompose_reck(&u);
/// assert_eq!(mesh.mzi_count(), 6 * 5 / 2);
/// assert!(mesh.matrix().max_abs_diff(&u) < 1e-8);
/// ```
pub fn decompose_reck(u: &CMatrix) -> MziMesh {
    let n = u.rows();
    assert_eq!(n, u.cols(), "decompose_reck requires a square matrix");
    assert!(
        u.is_unitary(1e-8),
        "decompose_reck requires a unitary matrix"
    );

    if n == 0 {
        return MziMesh::identity(0);
    }
    let mut out = MziMesh::identity(0);
    dispatch(Reck { u, out: &mut out });
    out
}

/// [`reck_at`] through [`dispatch`].
struct Reck<'a> {
    u: &'a CMatrix,
    out: &'a mut MziMesh,
}

impl LaneKernel for Reck<'_> {
    #[inline(always)]
    fn run<D: Lane<f64>, S: Lane<f32>>(self) {
        *self.out = reck_at::<D>(self.u);
    }
}

/// [`decompose_reck`] at lane type `V`, for a non-empty unitary. Every
/// null is a right multiplication, so the work matrix is held column-major
/// from the start and each column pair update is two contiguous planes.
#[inline(always)]
fn reck_at<V: Lane<f64>>(u: &CMatrix) -> MziMesh {
    let n = u.rows();
    let mut work = Lines::from_fn(n, |c, r| u[(r, c)]);
    let mut mzis: Vec<Mzi> = Vec::with_capacity(n * (n - 1) / 2);

    // Null below-diagonal entries row by row from the bottom. Nulling
    // element (r, c) right-multiplies by T^H on columns (c, c+1); columns
    // to the left are untouched, so previously nulled entries survive.
    for r in (1..n).rev() {
        for c in 0..r {
            let (theta, phi) = null_from_right::<V>(&mut work, r, c);
            mzis.push(Mzi::new(c, theta, phi));
        }
    }

    // work is now diagonal with unit-modulus entries: the output screen.
    let output_phases: Vec<f64> = (0..n).map(|i| work.get(i, i).arg()).collect();

    // U · T_1^H · T_2^H ⋯ = D  =>  U = D · T_k ⋯ T_1, so the first-nulled
    // MZI is applied to the input first — exactly the order in `mzis`.
    MziMesh::new(n, mzis, output_phases)
}

/// An `n×n` complex matrix stored as `n` lines of `n` elements in planar
/// form: line `k` is `re[k·n..(k+1)·n]` and the same span of `im`. The
/// nulling loops store the matrix column-major, so a line is a column and
/// `get(c, r)` is the element at row `r`, column `c`.
pub(crate) struct Lines {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Lines {
    /// The matrix whose line `k` holds `at(k, p)` at position `p`.
    pub(crate) fn from_fn(n: usize, mut at: impl FnMut(usize, usize) -> Complex64) -> Self {
        let (mut re, mut im) = (Vec::with_capacity(n * n), Vec::with_capacity(n * n));
        for k in 0..n {
            for p in 0..n {
                let z = at(k, p);
                re.push(z.re);
                im.push(z.im);
            }
        }
        Lines { n, re, im }
    }

    /// Position `p` of line `k`.
    pub(crate) fn get(&self, k: usize, p: usize) -> Complex64 {
        Complex64::new(self.re[k * self.n + p], self.im[k * self.n + p])
    }

    /// Sets position `p` of line `k`.
    pub(crate) fn set(&mut self, k: usize, p: usize, z: Complex64) {
        self.re[k * self.n + p] = z.re;
        self.im[k * self.n + p] = z.im;
    }

    /// Right-multiplies the column pair `(k, k+1)` by the 2×2 transfer
    /// `t` ([`rotate_pair`]), in lanes over the two contiguous column
    /// lines.
    #[inline(always)]
    pub(crate) fn rotate_columns<V: Lane<f64>>(&mut self, k: usize, t: [Complex64; 4]) {
        let n = self.n;
        let (xr, yr) = self.re[k * n..(k + 2) * n].split_at_mut(n);
        let (xi, yi) = self.im[k * n..(k + 2) * n].split_at_mut(n);
        rotate_pair::<V>((xr, xi), (yr, yi), t);
    }

    /// Left-multiplies the row pair `(p, p+1)` by the 2×2 transfer `t`:
    /// `x' = t00·x + t01·y`, `y' = t10·x + t11·y` at every column. The
    /// two rows are adjacent within each column line, so this walks the
    /// lines one element pair at a time.
    pub(crate) fn rotate_rows(&mut self, p: usize, [t00, t01, t10, t11]: [Complex64; 4]) {
        let n = self.n;
        for (re, im) in self.re.chunks_exact_mut(n).zip(self.im.chunks_exact_mut(n)) {
            let x = Complex64::new(re[p], im[p]);
            let y = Complex64::new(re[p + 1], im[p + 1]);
            let (x, y) = (t00 * x + t01 * y, t10 * x + t11 * y);
            (re[p], im[p], re[p + 1], im[p + 1]) = (x.re, x.im, y.re, y.im);
        }
    }
}

/// Chooses `(theta, phi)` so that right-multiplying `work` by
/// `T(theta, phi)^H` acting on columns `(c, c+1)` nulls `work[(r, c)]`, and
/// applies the update in place; `work` holds the matrix column-major.
///
/// With `a = work[(r,c)]` and `b = work[(r,c+1)]` the nulling condition is
/// `a·e^{−iφ}·sin(θ/2) + b·cos(θ/2) = 0`, solved by
/// `φ = arg(a·conj(−b))` and `θ = 2·atan2(|b|, |a|)`.
#[inline(always)]
pub(crate) fn null_from_right<V: Lane<f64>>(work: &mut Lines, r: usize, c: usize) -> (f64, f64) {
    let a = work.get(c, r);
    let b = work.get(c + 1, r);
    let phi = (a * (-b).conj()).arg();
    let theta = 2.0 * b.abs().atan2(a.abs());

    // (work · T^H)[i][c]   = work[i][c]·conj(T[0][0]) + work[i][c+1]·conj(T[0][1])
    // (work · T^H)[i][c+1] = work[i][c]·conj(T[1][0]) + work[i][c+1]·conj(T[1][1])
    let t = Mzi::new(0, theta, phi).coefficients().map(Complex64::conj);
    work.rotate_columns::<V>(c, t);
    // Clamp the nulled entry against round-off.
    work.set(c, r, Complex64::ZERO);
    (theta, phi)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use oplix_linalg::lanes::{F32x16, F32x8, F64x4, F64x8};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The row-major scalar Reck loop the lane kernel replaced, kept as its
    /// bitwise oracle.
    fn decompose_reck_oracle(u: &CMatrix) -> MziMesh {
        let n = u.rows();
        if n == 0 {
            return MziMesh::identity(0);
        }
        let mut work = u.clone();
        let mut mzis: Vec<Mzi> = Vec::with_capacity(n * (n - 1) / 2);
        for r in (1..n).rev() {
            for c in 0..r {
                let (theta, phi) = null_from_right_oracle(&mut work, r, c);
                mzis.push(Mzi::new(c, theta, phi));
            }
        }
        let output_phases: Vec<f64> = (0..n).map(|i| work[(i, i)].arg()).collect();
        MziMesh::new(n, mzis, output_phases)
    }

    /// The scalar right-multiplication null both oracles share.
    pub(crate) fn null_from_right_oracle(work: &mut CMatrix, r: usize, c: usize) -> (f64, f64) {
        let a = work[(r, c)];
        let b = work[(r, c + 1)];
        let phi = (a * (-b).conj()).arg();
        let theta = 2.0 * b.abs().atan2(a.abs());
        let t = Mzi::new(0, theta, phi).transfer();
        let t00 = t[(0, 0)].conj();
        let t01 = t[(0, 1)].conj();
        let t10 = t[(1, 0)].conj();
        let t11 = t[(1, 1)].conj();
        for i in 0..work.rows() {
            let x = work[(i, c)];
            let y = work[(i, c + 1)];
            work[(i, c)] = x * t00 + y * t01;
            work[(i, c + 1)] = x * t10 + y * t11;
        }
        work[(r, c)] = Complex64::ZERO;
        (theta, phi)
    }

    /// Every MZI's mode, θ and φ bits, then every output phase's bits.
    pub(crate) fn mesh_bits(mesh: &MziMesh) -> Vec<u64> {
        let mut out = Vec::new();
        for m in mesh.mzis() {
            out.extend([m.mode as u64, m.theta.to_bits(), m.phi.to_bits()]);
        }
        out.extend(mesh.output_phases().iter().map(|p| p.to_bits()));
        out
    }

    /// A unitary of dimension `n` of one of three kinds: Haar-random, a
    /// cyclic shift with ±1 entries (every null is a swap and exact zeros
    /// meet), or the `V*` of a rank-deficient weight, whose completion-built
    /// rows are full of round-off and exact zeros.
    pub(crate) fn unitary(kind: usize, n: usize, seed: u64) -> CMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => CMatrix::random_unitary(n, &mut rng),
            1 => {
                let shift = rng.gen_range(0..n);
                CMatrix::from_fn(n, n, |i, j| match ((i + shift) % n == j, (i + j) % 3) {
                    (true, 0) => -Complex64::ONE,
                    (true, _) => Complex64::ONE,
                    (false, _) => Complex64::ZERO,
                })
            }
            _ => {
                let m = rng.gen_range(1..=3).min(n);
                let w = CMatrix::from_fn(m, n, |i, j| {
                    if j % 4 == 1 {
                        Complex64::ZERO
                    } else {
                        Complex64::new((i + 1) as f64 * 0.5, rng.gen_range(-1.0..1.0))
                    }
                });
                oplix_linalg::svd::svd(&w).v.hermitian()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lane Reck kernel at both tiers and dispatched is bitwise the
        /// scalar loop for dimensions on both sides of the 4- and 8-lane
        /// widths.
        #[test]
        fn reck_is_bitwise_the_scalar_loop(
            n in 1usize..=130,
            kind in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let u = unitary(kind, n, seed);
            let want = mesh_bits(&decompose_reck_oracle(&u));
            let (mut a, mut b) = (MziMesh::identity(0), MziMesh::identity(0));
            Reck { u: &u, out: &mut a }.run::<F64x4, F32x8>();
            Reck { u: &u, out: &mut b }.run::<F64x8, F32x16>();
            prop_assert_eq!(&mesh_bits(&a), &want);
            prop_assert_eq!(&mesh_bits(&b), &want);
            prop_assert_eq!(&mesh_bits(&decompose_reck(&u)), &want);
        }
    }

    #[test]
    fn reconstructs_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 3, 4, 5, 8, 12, 16] {
            let u = CMatrix::random_unitary(n, &mut rng);
            let mesh = decompose_reck(&u);
            assert_eq!(mesh.mzi_count(), n * (n - 1) / 2, "n = {n}");
            let err = mesh.matrix().max_abs_diff(&u);
            assert!(err < 1e-9, "n = {n}, err = {err}");
        }
    }

    #[test]
    fn identity_decomposes_to_trivial_phases() {
        let u = CMatrix::identity(4);
        let mesh = decompose_reck(&u);
        assert!(mesh.matrix().max_abs_diff(&u) < 1e-10);
    }

    #[test]
    fn diagonal_phase_matrix_round_trips() {
        let u = CMatrix::from_fn(3, 3, |i, j| {
            if i == j {
                Complex64::cis(1.0 + i as f64)
            } else {
                Complex64::ZERO
            }
        });
        let mesh = decompose_reck(&u);
        assert!(mesh.matrix().max_abs_diff(&u) < 1e-10);
    }

    #[test]
    fn permutation_matrix_round_trips() {
        // A cyclic shift is a hard case: every nulling is a full swap.
        let n = 5;
        let u = CMatrix::from_fn(n, n, |i, j| {
            if (i + 1) % n == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        });
        assert!(u.is_unitary(1e-12));
        let mesh = decompose_reck(&u);
        assert!(mesh.matrix().max_abs_diff(&u) < 1e-9);
    }

    #[test]
    fn reck_depth_is_linear_chain() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 8;
        let u = CMatrix::random_unitary(n, &mut rng);
        let mesh = decompose_reck(&u);
        // Triangle depth is at most 2n - 3.
        assert!(mesh.depth() <= 2 * n - 3);
    }

    #[test]
    #[should_panic(expected = "unitary")]
    fn rejects_non_unitary() {
        let a = CMatrix::from_fn(3, 3, |i, j| Complex64::new((i + j) as f64, 0.0));
        let _ = decompose_reck(&a);
    }
}
