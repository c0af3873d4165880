//! Dense row-major matrices over `f64` and [`Complex64`].
//!
//! These are deliberately simple, allocation-friendly containers: the
//! matrices that flow through an MZI mesh simulator are small (a mesh of
//! dimension `n` is an `n×n` unitary with `n` rarely above a few hundred),
//! so a straightforward triple loop with the inner dimension contiguous is
//! both fast enough and easy to audit.

use crate::complex::Complex64;
use rand::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major real matrix.
///
/// # Example
///
/// ```
/// use oplix_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self · rhs`, through the workspace's shared
    /// register-blocked kernel ([`crate::gemm::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::gemm::gemm(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Lifts the real matrix into a complex one with zero imaginary part.
    pub fn to_cmatrix(&self) -> CMatrix {
        CMatrix::from_fn(self.rows, self.cols, |i, j| {
            Complex64::from_real(self[(i, j)])
        })
    }

    /// Fills a matrix with i.i.d. samples from `rng` in `[-scale, scale)`.
    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use oplix_linalg::{CMatrix, Complex64};
///
/// let u = CMatrix::identity(3);
/// assert!(u.is_unitary(1e-12));
/// assert_eq!(u.mul_vec(&[Complex64::ONE; 3]).len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        CMatrix {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
    }

    /// A rectangular diagonal matrix with the given (real) diagonal values.
    pub fn diag_rect(rows: usize, cols: usize, diag: &[f64]) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for (i, &d) in diag.iter().enumerate().take(rows.min(cols)) {
            m[(i, i)] = Complex64::from_real(d);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// A view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix product `self · rhs`, through the workspace's shared
    /// register-blocked kernel ([`crate::gemm::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matmul");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        crate::gemm::gemm(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .map(|(&a, &b)| a * b)
                    .sum::<Complex64>()
            })
            .collect()
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Hermitian (conjugate) transpose `A*`.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &CMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether `A* A = I` to within `tol` (element-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = self.hermitian().matmul(self);
        prod.max_abs_diff(&CMatrix::identity(self.rows)) <= tol
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&rhs.data) {
            *o += b;
        }
        out
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&rhs.data) {
            *o -= b;
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> CMatrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= k;
        }
        out
    }

    /// Real part as a real matrix.
    pub fn real(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }

    /// Imaginary part as a real matrix.
    pub fn imag(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].im)
    }

    /// A Haar-ish random unitary obtained by QR-orthonormalising a matrix of
    /// i.i.d. Gaussian entries. Exactly unitary up to floating-point error.
    pub fn random_unitary<R: Rng>(n: usize, rng: &mut R) -> CMatrix {
        let gauss = |rng: &mut R| {
            // Box–Muller transform; `rand` is allowed but `rand_distr` is not.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let a = CMatrix::from_fn(n, n, |_, _| Complex64::new(gauss(rng), gauss(rng)));
        let (q, r) = crate::qr::qr(&a);
        // Normalise column phases so that the distribution is Haar-like:
        // multiply each column of Q by the phase of the corresponding
        // diagonal of R.
        let mut q = q;
        for j in 0..n {
            let ph = r[(j, j)].unit_phase();
            for i in 0..n {
                q[(i, j)] *= ph;
            }
        }
        q
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                let z = self[(i, j)];
                write!(f, "({:>9.5},{:>9.5}) ", z.re, z.im)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn real_matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn real_matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn real_mul_vec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn real_transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn complex_hermitian_conjugates() {
        let a = CMatrix::from_fn(2, 3, |i, j| Complex64::new(i as f64, j as f64));
        let h = a.hermitian();
        assert_eq!(h.rows(), 3);
        assert_eq!(h[(2, 1)], Complex64::new(1.0, -2.0));
    }

    #[test]
    fn complex_matmul_associative() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = CMatrix::random_unitary(4, &mut rng);
        let b = CMatrix::random_unitary(4, &mut rng);
        let c = CMatrix::random_unitary(4, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-10);
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1, 2, 3, 5, 8, 16] {
            let u = CMatrix::random_unitary(n, &mut rng);
            assert!(u.is_unitary(1e-9), "n = {n} not unitary");
        }
    }

    #[test]
    fn unitary_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = CMatrix::random_unitary(6, &mut rng);
        let x: Vec<Complex64> = (0..6).map(|k| Complex64::new(k as f64, -1.0)).collect();
        let y = u.mul_vec(&x);
        let nx: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ny: f64 = y.iter().map(|z| z.norm_sqr()).sum();
        assert!((nx - ny).abs() < 1e-9);
    }

    #[test]
    fn diag_rect_places_diagonal() {
        let d = CMatrix::diag_rect(3, 2, &[2.0, 5.0]);
        assert_eq!(d[(0, 0)], Complex64::from_real(2.0));
        assert_eq!(d[(1, 1)], Complex64::from_real(5.0));
        assert_eq!(d[(2, 0)], Complex64::ZERO);
    }

    #[test]
    fn non_square_is_not_unitary() {
        let a = CMatrix::zeros(2, 3);
        assert!(!a.is_unitary(1e-9));
    }

    #[test]
    fn real_to_cmatrix_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 4.0]]);
        let c = a.to_cmatrix();
        assert_eq!(c.real(), a);
        assert_eq!(c.imag(), Matrix::zeros(2, 2));
    }
}
