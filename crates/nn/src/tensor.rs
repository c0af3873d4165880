//! A minimal dense `f32` tensor.
//!
//! The training side of the reproduction works in single precision (as GPU
//! training would) and only ever needs contiguous row-major storage with
//! rank ≤ 4 (`[batch, channel, height, width]` for images, `[batch,
//! features]` for dense layers).
//!
//! Storage is an [`Arc`]-shared buffer with copy-on-write semantics:
//! cloning a tensor — and hence a dataset view built from tensors — is a
//! reference bump, not a data copy, which is what makes per-grid-arm
//! clones of assigned datasets and pipeline-stage handoffs cheap. The
//! first mutable access after a clone ([`Tensor::as_mut_slice`] and
//! friends) detaches the storage, so writes never alias across clones.

use oplix_linalg::gemm;
use rand::Rng;
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Per-thread count of [`Tensor::transpose2`] materialisations — a
    /// cheap allocation diagnostic. The dense forward/backward passes are
    /// meant to be transpose-free ([`Tensor::matmul_nt`] /
    /// [`Tensor::matmul_tn`]), and tests pin that by asserting this counter
    /// does not move across a train step. Thread-local so concurrent tests
    /// cannot perturb each other's window.
    static TRANSPOSE2_MATERIALISATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many transposed tensor copies ([`Tensor::transpose2`]) the *current
/// thread* has materialised so far. Training and serving hot paths are
/// expected to leave this counter untouched.
pub fn transpose2_materialisations() -> u64 {
    TRANSPOSE2_MATERIALISATIONS.with(Cell::get)
}

/// A dense row-major tensor of `f32` values.
///
/// Clones share storage until one side mutates (copy-on-write):
///
/// ```
/// use oplix_nn::tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
///
/// let mut u = t.clone();
/// assert!(t.shares_storage(&u)); // clone is a reference bump
/// u.as_mut_slice()[0] = 1.0;     // first write detaches the buffer
/// assert!(!t.shares_storage(&u));
/// assert_eq!(t.as_slice()[0], 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: Arc::new(vec![0.0; shape.iter().product()]),
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: Arc::new(vec![value; shape.iter().product()]),
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape {shape:?}"
        );
        Tensor {
            shape: shape.to_vec(),
            data: Arc::new(data),
        }
    }

    /// I.i.d. uniform samples in `[-scale, scale)`.
    pub fn random_uniform<R: Rng>(shape: &[usize], scale: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: Arc::new((0..n).map(|_| rng.gen_range(-scale..scale)).collect()),
        }
    }

    /// Kaiming-style uniform initialisation for a parameter with the given
    /// fan-in: `U(-1/√fan_in, 1/√fan_in)`.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in == 0`.
    pub fn kaiming_uniform<R: Rng>(shape: &[usize], fan_in: usize, rng: &mut R) -> Self {
        assert!(fan_in > 0, "fan_in must be positive");
        let scale = 1.0 / (fan_in as f32).sqrt();
        Self::random_uniform(shape, scale, rng)
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the flat data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data. If the storage is shared with a
    /// clone, it is detached (copied) first, so the write never aliases.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut()
    }

    /// Whether two tensors share the same underlying storage (i.e. one is
    /// an un-mutated clone of the other). Used by tests to assert that
    /// view clones are reference bumps, not copies.
    #[inline]
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Copy-on-write access to the storage: detaches a shared buffer,
    /// then hands out the unique one.
    #[inline]
    fn data_mut(&mut self) -> &mut Vec<f32> {
        Arc::make_mut(&mut self.data)
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "reshape cannot change the element count"
        );
        Tensor {
            shape: shape.to_vec(),
            data: Arc::clone(&self.data),
        }
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_assign shape mismatch");
        // Clone rhs's handle first: if the two tensors share storage,
        // `data_mut` detaches self and the read side stays valid.
        let rhs_data = Arc::clone(&rhs.data);
        for (a, &b) in self.data_mut().iter_mut().zip(rhs_data.iter()) {
            *a += b;
        }
    }

    /// Element-wise sum, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// Element-wise in-place subtraction. Bitwise `add_assign` of the
    /// negated `rhs` (IEEE defines `a − b` as `a + (−b)`), without the
    /// negated temporary.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "sub_assign shape mismatch");
        // As in `add_assign`: hold rhs's handle across the detach.
        let rhs_data = Arc::clone(&rhs.data);
        for (a, &b) in self.data_mut().iter_mut().zip(rhs_data.iter()) {
            *a -= b;
        }
    }

    /// Element-wise difference, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(rhs);
        out
    }

    /// Element-wise product, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "mul shape mismatch");
        let mut out = self.clone();
        for (a, &b) in out.data_mut().iter_mut().zip(rhs.data.iter()) {
            *a *= b;
        }
        out
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_in_place(&mut self, k: f32) {
        for a in self.data_mut().iter_mut() {
            *a *= k;
        }
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, k: f32) -> Tensor {
        let mut out = self.clone();
        out.scale_in_place(k);
        out
    }

    /// Applies a function element-wise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&v| f(v)).collect()),
        }
    }

    /// Fills the tensor with zeros.
    pub fn zero_(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// Sum of all elements (in `f64` for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Maximum absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// 2-D matrix product: `self` is `[m, k]`, `rhs` is `[k, n]`, through
    /// the workspace's shared register-blocked kernel
    /// ([`oplix_linalg::gemm::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching inner dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        gemm::gemm(m, k, n, &self.data, &rhs.data, out.data_mut());
        out
    }

    /// Transpose-free product `self · rhsᵀ` with `self: [m, k]` and `rhs`
    /// stored **untransposed** as `[n, k]` — the layout a
    /// `[out_features, in_features]` weight matrix already has. Bitwise
    /// identical to `self.matmul(&rhs.transpose2())` without materialising
    /// the transposed copy.
    ///
    /// ```
    /// use oplix_nn::tensor::Tensor;
    ///
    /// let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
    /// let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    /// assert_eq!(x.matmul_nt(&w), x.matmul(&w.transpose2()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching trailing
    /// dimension.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(rhs.shape.len(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dimension mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        gemm::gemm_nt(m, k, n, &self.data, &rhs.data, out.data_mut());
        out
    }

    /// Transpose-free product `selfᵀ · rhs` with `self` stored
    /// **untransposed** as `[k, m]` and `rhs: [k, n]` — the weight-gradient
    /// product `dW = dYᵀ · X` without a transposed copy of `dY`. Bitwise
    /// identical to `self.transpose2().matmul(rhs)`.
    ///
    /// ```
    /// use oplix_nn::tensor::Tensor;
    ///
    /// let dy = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
    /// let x = Tensor::from_vec(&[2, 3], vec![0.5, 0.0, 1.0, 1.0, 2.0, 0.0]);
    /// assert_eq!(dy.matmul_tn(&x), dy.transpose2().matmul(&x));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching leading
    /// dimension.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(rhs.shape.len(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dimension mismatch");
        let mut out = Tensor::zeros(&[m, n]);
        gemm::gemm_tn(m, k, n, &self.data, &rhs.data, out.data_mut());
        out
    }

    /// 2-D transpose, materialising a new tensor (and bumping the
    /// [`transpose2_materialisations`] diagnostic). Hot paths should prefer
    /// the transpose-free [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`].
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2 requires rank 2");
        TRANSPOSE2_MATERIALISATIONS.with(|c| c.set(c.get() + 1));
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        let out_data = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                out_data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Flat element access for rank-2 tensors.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Flat element access for rank-4 tensors `[n, c, h, w]`.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Mutable flat element access for rank-4 tensors.
    ///
    /// Each call pays the copy-on-write uniqueness check; element-wise
    /// inner loops should detach once via [`Tensor::writer4`] instead.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        let idx = ((n * cc + c) * hh + h) * ww + w;
        &mut self.data_mut()[idx]
    }

    /// Detaches the storage once and returns a rank-4 writer whose
    /// element writes are plain slice indexing — the loop-friendly form
    /// of [`Tensor::at4_mut`], with no per-write copy-on-write check.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 4.
    pub fn writer4(&mut self) -> Writer4<'_> {
        assert_eq!(self.shape.len(), 4, "writer4 requires rank 4");
        let (c, h, w) = (self.shape[1], self.shape[2], self.shape[3]);
        Writer4 {
            data: self.data_mut(),
            c,
            h,
            w,
        }
    }
}

/// A mutable rank-4 element writer over already-detached tensor storage;
/// see [`Tensor::writer4`].
pub struct Writer4<'a> {
    data: &'a mut [f32],
    c: usize,
    h: usize,
    w: usize,
}

impl Writer4<'_> {
    /// Mutable flat element access `[n, c, h, w]`.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        &mut self.data[((n * self.c + c) * self.h + h) * self.w + w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        let u = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(u.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_with_identity() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut id = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            id.as_mut_slice()[i * 3 + i] = 1.0;
        }
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::random_uniform(&[3, 5], 1.0, &mut rng);
        assert_eq!(a.transpose2().transpose2(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![3.0, 5.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.map(|v| v * v).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(&[3], vec![-4.0, 1.0, 2.0]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn kaiming_scale_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::kaiming_uniform(&[100], 25, &mut rng);
        assert!(t.max_abs() <= 0.2);
        assert!(t.max_abs() > 0.0);
    }

    #[test]
    fn at4_layout() {
        let t = Tensor::from_vec(&[1, 2, 2, 2], (0..8).map(|v| v as f32).collect());
        assert_eq!(t.at4(0, 1, 1, 0), 6.0);
        assert_eq!(t.at4(0, 0, 1, 1), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[4]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[4]);
        let mut u = t.clone();
        assert!(t.shares_storage(&u), "clone must be a reference bump");
        assert!(t.shares_storage(&r), "reshape must share storage");
        u.as_mut_slice()[0] = 9.0;
        assert!(!t.shares_storage(&u), "mutation must detach");
        assert_eq!(t.as_slice()[0], 1.0, "original must be unchanged");
        assert_eq!(u.as_slice()[0], 9.0);
        assert_eq!(r.as_slice()[0], 1.0, "reshaped view must be unchanged");
    }

    #[test]
    fn cow_handles_self_aliased_add_assign() {
        let t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let mut u = t.clone(); // shares storage with t
        u.add_assign(&t); // read side aliases the write side pre-detach
        assert_eq!(u.as_slice(), &[2.0, 4.0]);
        assert_eq!(t.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn at4_mut_detaches_shared_storage() {
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        let mut u = t.clone();
        *u.at4_mut(0, 0, 1, 1) = 5.0;
        assert_eq!(t.at4(0, 0, 1, 1), 0.0);
        assert_eq!(u.at4(0, 0, 1, 1), 5.0);
    }

    #[test]
    fn transpose2_bumps_the_materialisation_counter() {
        let before = transpose2_materialisations();
        let _ = Tensor::zeros(&[2, 3]).transpose2();
        assert!(transpose2_materialisations() > before);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        /// A random rank-2 tensor, including empty (0-row / 0-col) and
        /// 1×N degenerate shapes, with a seed so every case differs.
        fn tensor2(rows: usize, cols: usize, seed: u64) -> Tensor {
            let mut rng = StdRng::seed_from_u64(seed);
            Tensor::random_uniform(&[rows, cols], 1.0, &mut rng)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `matmul_nt` is pinned *bitwise* against materialising the
            /// transpose: same products, same accumulation order, same
            /// roundings.
            #[test]
            fn matmul_nt_matches_transpose_then_matmul(
                m in 0usize..9,
                k in 0usize..70,
                n in 0usize..9,
                seed in 0u64..u64::MAX,
            ) {
                let a = tensor2(m, k, seed);
                let b = tensor2(n, k, seed.wrapping_add(1));
                prop_assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose2()));
            }

            /// Same bitwise pin for the `TN` (weight-gradient) layout.
            #[test]
            fn matmul_tn_matches_transpose_then_matmul(
                k in 0usize..70,
                m in 0usize..9,
                n in 0usize..9,
                seed in 0u64..u64::MAX,
            ) {
                let a = tensor2(k, m, seed);
                let b = tensor2(k, n, seed.wrapping_add(1));
                prop_assert_eq!(a.matmul_tn(&b), a.transpose2().matmul(&b));
            }

            /// The blocked kernel agrees bitwise with a plain `ikj`
            /// reference loop at every shape, including empty and 1×N.
            #[test]
            fn blocked_matmul_matches_naive_ikj(
                m in 0usize..6,
                k in 0usize..140,
                n in 0usize..6,
                seed in 0u64..u64::MAX,
            ) {
                let a = tensor2(m, k, seed);
                let b = tensor2(k, n, seed.wrapping_add(1));
                let mut naive = Tensor::zeros(&[m, n]);
                {
                    let out = naive.as_mut_slice();
                    for i in 0..m {
                        for t in 0..k {
                            let av = a.as_slice()[i * k + t];
                            for j in 0..n {
                                out[i * n + j] += av * b.as_slice()[t * n + j];
                            }
                        }
                    }
                }
                prop_assert_eq!(a.matmul(&b), naive);
            }
        }
    }
}
