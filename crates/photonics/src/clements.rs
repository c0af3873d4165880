//! Clements rectangular decomposition of a unitary into MZI phases.
//!
//! Clements et al. (Optica 2016, the paper's ref. \[20\]) rearrange the Reck
//! triangle into a rectangle of the same `N(N−1)/2` MZIs but only depth
//! `N`, halving the optical path length and balancing loss. The algorithm
//! nulls anti-diagonals alternately with right multiplications
//! (`U ← U·T^{-1}`) and left multiplications (`U ← T·U`), then commutes the
//! left factors through the residual diagonal phase screen.

use crate::devices::Mzi;
use crate::mesh::MziMesh;
use crate::reck::{null_from_right, Lines};
use oplix_linalg::lanes::{dispatch, Lane, LaneKernel};
use oplix_linalg::{CMatrix, Complex64};
use std::f64::consts::PI;

/// Decomposes a unitary matrix into a Clements-style rectangular MZI mesh.
///
/// # Panics
///
/// Panics if `u` is not square or not unitary to within `1e-8`.
///
/// # Example
///
/// ```
/// use oplix_linalg::CMatrix;
/// use oplix_photonics::clements::decompose_clements;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let u = CMatrix::random_unitary(6, &mut rng);
/// let mesh = decompose_clements(&u);
/// assert_eq!(mesh.mzi_count(), 6 * 5 / 2);
/// assert!(mesh.matrix().max_abs_diff(&u) < 1e-8);
/// ```
pub fn decompose_clements(u: &CMatrix) -> MziMesh {
    let n = u.rows();
    assert_eq!(n, u.cols(), "decompose_clements requires a square matrix");
    assert!(
        u.is_unitary(1e-8),
        "decompose_clements requires a unitary matrix"
    );

    if n == 0 {
        return MziMesh::identity(0);
    }
    let mut out = MziMesh::identity(0);
    dispatch(Clements { u, out: &mut out });
    out
}

/// [`clements_at`] through [`dispatch`].
struct Clements<'a> {
    u: &'a CMatrix,
    out: &'a mut MziMesh,
}

impl LaneKernel for Clements<'_> {
    #[inline(always)]
    fn run<D: Lane<f64>, S: Lane<f32>>(self) {
        *self.out = clements_at::<D>(self.u);
    }
}

/// [`decompose_clements`] at lane type `V`, for a non-empty unitary.
///
/// The work matrix is held column-major, where a right multiplication
/// updates two contiguous column lines in lanes; a left multiplication
/// updates one adjacent element pair per column line. Every null sees
/// exactly the values the scalar loop would, in the same order.
#[inline(always)]
fn clements_at<V: Lane<f64>>(u: &CMatrix) -> MziMesh {
    let n = u.rows();
    let mut work = Lines::from_fn(n, |c, r| u[(r, c)]);
    // Right-side factors in application order (applied to the input first).
    let mut right: Vec<Mzi> = Vec::new();
    // Left-side factors in the order they were applied (T_1 first).
    let mut left: Vec<Mzi> = Vec::new();

    for i in 0..n.saturating_sub(1) {
        if i % 2 == 0 {
            // Null the anti-diagonal from the bottom-left corner upward
            // using right multiplications on column pairs.
            for j in 0..=i {
                let r = n - 1 - j;
                let c = i - j;
                let (theta, phi) = null_from_right::<V>(&mut work, r, c);
                right.push(Mzi::new(c, theta, phi));
            }
        } else {
            // Null the anti-diagonal using left multiplications on row
            // pairs.
            for j in 0..=i {
                let r = n - 1 - i + j;
                let c = j;
                let (theta, phi) = null_from_left(&mut work, r, c);
                left.push(Mzi::new(r - 1, theta, phi));
            }
        }
    }

    // work is now diagonal: U = L_1^H ⋯ L_p^H · D · R_q ⋯ R_1 with
    // L/R in application order. Commute each L^H through D:
    //   T(θ,φ)^H · diag(ψ_m, ψ_{m+1}) = diag(χ_m, χ_{m+1}) · T(θ, φ')
    // with φ' = ψ_m − ψ_{m+1}, χ_m = ψ_{m+1} − φ − θ + π,
    // χ_{m+1} = ψ_{m+1} − θ + π.
    let mut psi: Vec<f64> = (0..n).map(|i| work.get(i, i).arg()).collect();
    let mut converted: Vec<Mzi> = Vec::with_capacity(left.len());
    for l in left.iter().rev() {
        let m = l.mode;
        let phi_new = psi[m] - psi[m + 1];
        let chi_top = psi[m + 1] - l.phi - l.theta + PI;
        let chi_bot = psi[m + 1] - l.theta + PI;
        psi[m] = chi_top;
        psi[m + 1] = chi_bot;
        converted.push(Mzi::new(m, l.theta, phi_new));
    }
    // Resulting factorisation: U = D_final · T'_1 ⋯ T'_p · R_q ⋯ R_1,
    // where `converted` currently holds [T'_p, …, T'_1] (we walked the left
    // list from the innermost factor outwards). Application order to the
    // input: R_1 … R_q, then T'_p … T'_1, then D_final.
    let mut mzis = right;
    mzis.extend(converted);

    MziMesh::new(n, mzis, psi)
}

/// Chooses `(theta, phi)` so that left-multiplying `work` by `T(theta, phi)`
/// acting on rows `(r-1, r)` nulls `work[(r, c)]`, and applies the update in
/// place; `work` holds the matrix column-major.
///
/// The second row of the MZI block is `i·e^{iθ/2}·(e^{iφ}cos(θ/2),
/// −sin(θ/2))`, so with `a = work[(r,c)]` and `b = work[(r-1,c)]` the
/// condition is `e^{iφ}·cos(θ/2)·b − sin(θ/2)·a = 0`, solved by
/// `φ = arg(a·conj(b))` and `θ = 2·atan2(|b|, |a|)` — then
/// `tan(θ/2) = |b|/|a|` and the phases align.
#[inline(always)]
fn null_from_left(work: &mut Lines, r: usize, c: usize) -> (f64, f64) {
    let a = work.get(c, r);
    let b = work.get(c, r - 1);
    let phi = (a * b.conj()).arg();
    let theta = 2.0 * b.abs().atan2(a.abs());

    work.rotate_rows(r - 1, Mzi::new(0, theta, phi).coefficients());
    work.set(c, r, Complex64::ZERO);
    (theta, phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reck::decompose_reck;
    use crate::reck::tests::{mesh_bits, null_from_right_oracle, unitary};
    use oplix_linalg::lanes::{F32x16, F32x8, F64x4, F64x8};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The row-major scalar Clements loop the lane kernel replaced, kept
    /// as its bitwise oracle.
    fn decompose_clements_oracle(u: &CMatrix) -> MziMesh {
        let n = u.rows();
        if n == 0 {
            return MziMesh::identity(0);
        }
        let mut work = u.clone();
        let mut right: Vec<Mzi> = Vec::new();
        let mut left: Vec<Mzi> = Vec::new();
        for i in 0..n.saturating_sub(1) {
            if i % 2 == 0 {
                for j in 0..=i {
                    let r = n - 1 - j;
                    let c = i - j;
                    let (theta, phi) = null_from_right_oracle(&mut work, r, c);
                    right.push(Mzi::new(c, theta, phi));
                }
            } else {
                for j in 0..=i {
                    let r = n - 1 - i + j;
                    let c = j;
                    let a = work[(r, c)];
                    let b = work[(r - 1, c)];
                    let phi = (a * b.conj()).arg();
                    let theta = 2.0 * b.abs().atan2(a.abs());
                    let t = Mzi::new(0, theta, phi).transfer();
                    let (t00, t01, t10, t11) = (t[(0, 0)], t[(0, 1)], t[(1, 0)], t[(1, 1)]);
                    for k in 0..n {
                        let x = work[(r - 1, k)];
                        let y = work[(r, k)];
                        work[(r - 1, k)] = t00 * x + t01 * y;
                        work[(r, k)] = t10 * x + t11 * y;
                    }
                    work[(r, c)] = Complex64::ZERO;
                    left.push(Mzi::new(r - 1, theta, phi));
                }
            }
        }
        let mut psi: Vec<f64> = (0..n).map(|i| work[(i, i)].arg()).collect();
        let mut converted: Vec<Mzi> = Vec::with_capacity(left.len());
        for l in left.iter().rev() {
            let m = l.mode;
            let phi_new = psi[m] - psi[m + 1];
            let chi_top = psi[m + 1] - l.phi - l.theta + PI;
            let chi_bot = psi[m + 1] - l.theta + PI;
            psi[m] = chi_top;
            psi[m + 1] = chi_bot;
            converted.push(Mzi::new(m, l.theta, phi_new));
        }
        let mut mzis = right;
        mzis.extend(converted);
        MziMesh::new(n, mzis, psi)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lane Clements kernel at both tiers and dispatched is bitwise
        /// the scalar loop for dimensions on both sides of the 4- and
        /// 8-lane widths, on random, permutation and completion-built
        /// unitaries.
        #[test]
        fn clements_is_bitwise_the_scalar_loop(
            n in 1usize..=130,
            kind in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let u = unitary(kind, n, seed);
            let want = mesh_bits(&decompose_clements_oracle(&u));
            let (mut a, mut b) = (MziMesh::identity(0), MziMesh::identity(0));
            Clements { u: &u, out: &mut a }.run::<F64x4, F32x8>();
            Clements { u: &u, out: &mut b }.run::<F64x8, F32x16>();
            prop_assert_eq!(&mesh_bits(&a), &want);
            prop_assert_eq!(&mesh_bits(&b), &want);
            prop_assert_eq!(&mesh_bits(&decompose_clements(&u)), &want);
        }
    }

    #[test]
    fn reconstructs_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [1usize, 2, 3, 4, 5, 8, 12, 16] {
            let u = CMatrix::random_unitary(n, &mut rng);
            let mesh = decompose_clements(&u);
            assert_eq!(mesh.mzi_count(), n * (n - 1) / 2, "n = {n}");
            let err = mesh.matrix().max_abs_diff(&u);
            assert!(err < 1e-9, "n = {n}, err = {err}");
        }
    }

    #[test]
    fn clements_is_shallower_than_reck() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 12;
        let u = CMatrix::random_unitary(n, &mut rng);
        let clements = decompose_clements(&u);
        let reck = decompose_reck(&u);
        assert!(
            clements.depth() < reck.depth(),
            "clements depth {} should beat reck depth {}",
            clements.depth(),
            reck.depth()
        );
        // The rectangle packs into ~n columns.
        assert!(clements.depth() <= n);
    }

    #[test]
    fn identity_round_trips() {
        let u = CMatrix::identity(5);
        let mesh = decompose_clements(&u);
        assert!(mesh.matrix().max_abs_diff(&u) < 1e-10);
    }

    #[test]
    fn permutation_round_trips() {
        let n = 6;
        let u = CMatrix::from_fn(n, n, |i, j| {
            if (i + 2) % n == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        });
        let mesh = decompose_clements(&u);
        assert!(mesh.matrix().max_abs_diff(&u) < 1e-9);
    }

    #[test]
    fn same_mzi_budget_as_reck() {
        let mut rng = StdRng::seed_from_u64(12);
        let u = CMatrix::random_unitary(9, &mut rng);
        assert_eq!(
            decompose_clements(&u).mzi_count(),
            decompose_reck(&u).mzi_count()
        );
    }

    #[test]
    #[should_panic(expected = "unitary")]
    fn rejects_non_unitary() {
        let a = CMatrix::from_fn(3, 3, |i, j| Complex64::new((i * j) as f64, 1.0));
        let _ = decompose_clements(&a);
    }
}
