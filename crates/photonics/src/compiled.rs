//! Compiled propagation kernels: meshes and SVD layers baked into
//! precomputed coefficients at deploy time.
//!
//! The interpreted walk ([`MziMesh::propagate_in_place`]) re-derives every
//! MZI's transfer coefficients — `sin`, `cos` and two phasors, six
//! transcendental evaluations — *per MZI, per sample*. A mesh's phases are
//! fixed the moment it is deployed, so a serving path can pay that cost
//! once: [`CompiledMesh::compile`] evaluates
//! [`Mzi::coefficients`](crate::devices::Mzi::coefficients) for
//! every MZI and stores the four 2×2 entries struct-of-arrays, grouped by
//! column stage (the greedy left-to-right packing of
//! [`MziMesh::depth`]), together with the precomputed output phasors.
//! Propagation then replays pure complex multiply–adds.
//!
//! **Bitwise contract.** Compiled propagation is *bitwise identical* to
//! the interpreted path: [`Mzi::apply`](crate::devices::Mzi::apply)
//! itself evaluates [`Mzi::coefficients`](crate::devices::Mzi::coefficients)
//! and applies the same 2×2 product the compiled
//! kernel replays, and the stage grouping only reorders MZIs that act on
//! disjoint mode pairs (mode-sharing MZIs always land in strictly
//! increasing stages), which commutes exactly in floating point. The
//! property tests at the bottom of this module pin both facts.
//!
//! [`CompiledLayer`] extends the same treatment to a whole SVD-mapped
//! layer (`V*` mesh → attenuator column → `U` mesh) and adds the batched
//! entry points ([`CompiledMesh::propagate_batch`],
//! [`CompiledLayer::forward_batch`]) the inference engine serves sample
//! windows through.
//!
//! **Live-cone pruning.** In an `m×n` layer only the first `k = min(m, n)`
//! outputs of the `n×n` `V*` mesh reach an attenuator, so
//! [`CompiledLayer`] bakes `V*` with only the *backward light cone* of
//! output modes `0..k`: sweeping the MZIs output side first, an MZI is
//! kept iff either of its modes is live, and a kept MZI makes both of its
//! modes live. A dropped MZI feeds no kept MZI and no live output, so
//! every value Σ reads is computed from the same operands by the same
//! expressions in the same order — the layer stays bitwise identical to
//! [`PhotonicLayer::forward_into`]. After the pruned `V*` the dead modes
//! `k..n` hold unspecified values. Only the kernel shrinks: the
//! [`PhotonicLayer`] hardware description (device counts, chip reports,
//! area) still counts every physical MZI. [`CompiledMesh::compile`] is
//! the unpruned case (every output live).
//!
//! **Fidelity tiers.** A linear layer *is* its `m×n` transfer matrix
//! `T`, so [`CompiledLayer::compile`] also derives `T` — by pushing
//! the `n` canonical basis vectors through the layer's own golden
//! [`CompiledLayer::forward_batch`], the rule [`CompiledMesh::unitary`]
//! uses — and stores it planar beside the meshes. Every recompile after a
//! phase change therefore carries a `T` matching the current phases.
//! [`Fidelity::Transfer`] serves rows as `y = T·x` (one complex
//! multiply–add per matrix entry instead of one butterfly per MZI);
//! [`Fidelity::Golden`] is the MZI-by-MZI walk, bitwise the interpreted
//! layer, and stays the reference `Transfer` is tolerance-pinned against.
//! Within each tier, a row's result is bitwise the same at every lane
//! width: the Golden walk's lane sweeps equal its scalar tails, and the
//! Transfer sweep runs leftover rows through its own body at narrower
//! lanes.
//!
//! **Convolutions.** A conv layer lowers to one im2col kernel matrix that
//! serves every output position, and one [`ConvGeometry`] describes it at
//! both tiers. [`CompiledLayer::forward_conv`] at [`Fidelity::Transfer`]
//! convolves the input planes directly with `T`, with no patch staging; at
//! [`Fidelity::Golden`] it builds one sample's patch rows from the geometry
//! and walks them through the meshes. The direct kernel is bitwise those
//! patch rows served at `Transfer`.

use crate::devices::Mzi;
use crate::mesh::MziMesh;
use crate::svd_map::PhotonicLayer;
use oplix_linalg::lanes::{
    cmul_splat_lhs, cmul_splat_rhs, dispatch, F64x1, F64x4, F64x8, Lane, LaneKernel,
};
use oplix_linalg::Complex64;

std::thread_local! {
    /// Reusable planar mode-major staging buffer of
    /// [`CompiledMesh::propagate_batch`] (`2n` rows of `samples` doubles:
    /// row `2m` holds mode `m`'s re parts, row `2m+1` its im parts):
    /// after warm-up, batched propagation allocates nothing per window.
    /// The transfer sweep stages one lane chunk of rows in it, and the
    /// direct conv one sample's zero-bordered input planes. A borrow must
    /// not span a mesh sweep: `propagate_batch` takes it itself.
    static MODE_MAJOR_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Window size below which [`CompiledMesh::propagate_batch`] stays
/// sample-major: the planar transposes cost more than the
/// coefficient-reload traffic they save. Re-tuned for the planar lane
/// sweep: below one full lane of the widest tier (8 doubles) every
/// butterfly runs in the scalar remainder tail, so the planar path is
/// pure transpose overhead (~600 ns/sample either way on the 16-mode
/// Clements mesh), while at exactly 8 samples the lane sweep already
/// runs ~3.5× faster than sample-major. Public so the property tests
/// can pin windows straddling the switch.
pub const MODE_MAJOR_MIN_SAMPLES: usize = 8;

/// Outputs the transfer sweep accumulates per register block: with re and
/// im accumulators this keeps eight lane vectors live, and each input lane
/// is loaded once per block instead of once per output.
const TRANSFER_BLOCK: usize = 4;

/// Output channels [`CompiledLayer::forward_conv`] accumulates per register
/// block: sixteen live accumulators, and each tap's lanes are loaded once
/// for up to eight channels, so both LeNet convs (3 and 6 channels) run as
/// one block.
const CONV_BLOCK: usize = 8;

/// Which kernel a [`CompiledLayer`] runs its rows through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fidelity {
    /// The MZI-by-MZI mesh walk (`V*` → Σ → `U`): bitwise the interpreted
    /// [`PhotonicLayer::forward_into`], and the reference every faster
    /// tier is pinned against.
    Golden,
    /// One complex matrix–vector product per row through the layer's
    /// implemented transfer matrix `T` (derived from the golden walk at
    /// compile time). Agrees with [`Fidelity::Golden`] up to rounding;
    /// bitwise only against itself.
    #[default]
    Transfer,
}

/// [`CompiledMesh::mode_major_batch`] over one planar window.
struct ModeMajor<'a> {
    mesh: &'a CompiledMesh,
    fields: &'a mut [Complex64],
    scratch: &'a mut [f64],
    samples: usize,
}

impl LaneKernel for ModeMajor<'_> {
    #[inline(always)]
    fn run<V: Lane<f64>, S: Lane<f32>>(self) {
        self.mesh
            .mode_major_batch::<V>(self.fields, self.scratch, self.samples);
    }
}

/// One MZI butterfly swept across a whole planar sample window: the four
/// rows are mode `m`'s and mode `m+1`'s re/im parts, and every lane of
/// four samples runs `x' = t00·x + t01·y`, `y' = t10·x + t11·y` with the
/// exact [`Complex64`] `Mul`/`Add` expression shape
/// ([`cmul_splat_lhs`], then element-wise adds). The remainder tail runs
/// the identical scalar expressions, so the sweep is bitwise the scalar
/// kernel on every sample.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn butterfly_rows<V: Lane<f64>>(
    t00: Complex64,
    t01: Complex64,
    t10: Complex64,
    t11: Complex64,
    xr: &mut [f64],
    xi: &mut [f64],
    yr: &mut [f64],
    yi: &mut [f64],
) {
    let samples = xr.len();
    let full = samples - samples % V::LANES;
    let mut c = 0;
    while c < full {
        let vxr = V::load(&xr[c..]);
        let vxi = V::load(&xi[c..]);
        let vyr = V::load(&yr[c..]);
        let vyi = V::load(&yi[c..]);
        let (pr, pi) = cmul_splat_lhs(t00.re, t00.im, vxr, vxi);
        let (qr, qi) = cmul_splat_lhs(t01.re, t01.im, vyr, vyi);
        let (rr, ri) = cmul_splat_lhs(t10.re, t10.im, vxr, vxi);
        let (sr, si) = cmul_splat_lhs(t11.re, t11.im, vyr, vyi);
        (pr + qr).store(&mut xr[c..]);
        (pi + qi).store(&mut xi[c..]);
        (rr + sr).store(&mut yr[c..]);
        (ri + si).store(&mut yi[c..]);
        c += V::LANES;
    }
    for s in full..samples {
        let x = Complex64::new(xr[s], xi[s]);
        let y = Complex64::new(yr[s], yi[s]);
        let nx = t00 * x + t01 * y;
        let ny = t10 * x + t11 * y;
        xr[s] = nx.re;
        xi[s] = nx.im;
        yr[s] = ny.re;
        yi[s] = ny.im;
    }
}

/// A mesh baked into precomputed 2×2 coefficients, struct-of-arrays,
/// grouped by column stage.
///
/// # Example
///
/// ```
/// use oplix_photonics::compiled::CompiledMesh;
/// use oplix_photonics::devices::Mzi;
/// use oplix_photonics::mesh::MziMesh;
/// use oplix_linalg::Complex64;
///
/// let mesh = MziMesh::new(
///     3,
///     vec![Mzi::new(0, 0.9, 0.2), Mzi::new(1, 1.8, -1.0)],
///     vec![0.5, -0.5, 1.0],
/// );
/// let compiled = CompiledMesh::compile(&mesh);
///
/// let mut interpreted = vec![Complex64::ONE, Complex64::i(), Complex64::ZERO];
/// let mut fast = interpreted.clone();
/// mesh.propagate_in_place(&mut interpreted);
/// compiled.propagate_in_place(&mut fast);
/// assert_eq!(interpreted, fast); // bitwise, not approximately
/// ```
#[derive(Clone, Debug)]
pub struct CompiledMesh {
    n: usize,
    /// Upper mode index per MZI, in stage-major order.
    modes: Vec<u32>,
    /// The 2×2 transfer entries per MZI, struct-of-arrays, stage-major.
    t00: Vec<Complex64>,
    t01: Vec<Complex64>,
    t10: Vec<Complex64>,
    t11: Vec<Complex64>,
    /// CSR-style offsets into the coefficient arrays: stage `s` spans
    /// `stages[s]..stages[s + 1]`.
    stages: Vec<usize>,
    /// Precomputed `e^{iφ}` of the output phase screen over the live
    /// outputs `0..live` (all `n` modes unless the bake was pruned).
    out_phasors: Vec<Complex64>,
}

impl CompiledMesh {
    /// Bakes a mesh into precomputed coefficients.
    ///
    /// MZIs are packed greedily into column stages exactly like
    /// [`MziMesh::depth`] counts them; within a stage the original order
    /// is kept. Because two MZIs sharing a waveguide mode always land in
    /// strictly increasing stages, the stage-major replay order only
    /// commutes mode-disjoint MZIs — an exact (bitwise) reordering.
    pub fn compile(mesh: &MziMesh) -> Self {
        Self::compile_live(mesh, mesh.n())
    }

    /// Bakes only the backward light cone of output modes `0..live` (see
    /// [`live_cone`]): those outputs are bitwise the full bake's, the
    /// output phase screen covers only them, and modes `live..n` are left
    /// unspecified. `live = n` bakes every MZI.
    fn compile_live(mesh: &MziMesh, live: usize) -> Self {
        let n = mesh.n();
        let mzis = live_cone(mesh, live);
        // Greedy column packing, identical to `MziMesh::depth`.
        let mut free_at = vec![0usize; n];
        let mut layer_of = Vec::with_capacity(mzis.len());
        let mut depth = 0usize;
        for mzi in &mzis {
            let layer = free_at[mzi.mode].max(free_at[mzi.mode + 1]);
            free_at[mzi.mode] = layer + 1;
            free_at[mzi.mode + 1] = layer + 1;
            layer_of.push(layer);
            depth = depth.max(layer + 1);
        }
        // Counting sort into stage-major order (stable within a stage).
        let mut stages = vec![0usize; depth + 1];
        for &l in &layer_of {
            stages[l + 1] += 1;
        }
        for s in 0..depth {
            stages[s + 1] += stages[s];
        }
        let total = mzis.len();
        let mut cursor = stages.clone();
        let mut modes = vec![0u32; total];
        let mut t00 = vec![Complex64::ZERO; total];
        let mut t01 = vec![Complex64::ZERO; total];
        let mut t10 = vec![Complex64::ZERO; total];
        let mut t11 = vec![Complex64::ZERO; total];
        for (mzi, &layer) in mzis.iter().zip(&layer_of) {
            let slot = cursor[layer];
            cursor[layer] += 1;
            let [a, b, c, d] = mzi.coefficients();
            modes[slot] = mzi.mode as u32;
            t00[slot] = a;
            t01[slot] = b;
            t10[slot] = c;
            t11[slot] = d;
        }
        CompiledMesh {
            n,
            modes,
            t00,
            t01,
            t10,
            t11,
            stages,
            out_phasors: mesh.output_phases()[..live]
                .iter()
                .map(|&p| Complex64::cis(p))
                .collect(),
        }
    }

    /// Number of waveguide modes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of MZIs baked into the kernel.
    #[inline]
    pub fn mzi_count(&self) -> usize {
        self.modes.len()
    }

    /// Number of column stages the coefficients are grouped into (equal to
    /// the source mesh's [`MziMesh::depth`]).
    #[inline]
    pub fn stage_count(&self) -> usize {
        self.stages.len() - 1
    }

    /// Approximate resident size of the compiled kernel in bytes, for
    /// cache accounting.
    pub fn approx_bytes(&self) -> usize {
        self.modes.len() * (4 * std::mem::size_of::<Complex64>() + 4)
            + self.stages.len() * std::mem::size_of::<usize>()
            + self.out_phasors.len() * std::mem::size_of::<Complex64>()
            + std::mem::size_of::<Self>()
    }

    /// The compiled kernel over one sample: replays every baked 2×2
    /// product in stage-major order, then the output phasors of the live
    /// outputs.
    #[inline]
    fn kernel(&self, fields: &mut [Complex64]) {
        for idx in 0..self.modes.len() {
            let m = self.modes[idx] as usize;
            let a = fields[m];
            let b = fields[m + 1];
            fields[m] = self.t00[idx] * a + self.t01[idx] * b;
            fields[m + 1] = self.t10[idx] * a + self.t11[idx] * b;
        }
        for (f, &ph) in fields.iter_mut().zip(&self.out_phasors) {
            *f *= ph;
        }
    }

    /// Propagates one field vector in place — bitwise identical to
    /// [`MziMesh::propagate_in_place`] on the source mesh, with zero
    /// transcendental evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `fields.len() != self.n()`.
    pub fn propagate_in_place(&self, fields: &mut [Complex64]) {
        assert_eq!(
            fields.len(),
            self.n,
            "field vector length must match mesh size"
        );
        self.kernel(fields);
    }

    /// Propagates a window of `samples` field vectors stored contiguously
    /// (`fields[s*n .. (s+1)*n]` is sample `s`) through one compiled
    /// kernel — the batch entry point the inference engine serves sample
    /// windows through. Each sample runs the exact per-sample operation
    /// sequence, so the batch is bitwise identical to `samples` sequential
    /// [`CompiledMesh::propagate_in_place`] calls.
    ///
    /// Large windows run **mode-major and planar**: the window is
    /// transposed into one-re-row-plus-one-im-row-per-waveguide layout,
    /// every MZI's four coefficients are loaded once and swept across the
    /// whole window as four-wide lane multiply–adds over the four
    /// contiguous rows (the lane butterfly), the output phase screen runs
    /// as the final lane sweep over the same planar rows, and the result
    /// is transposed back. Per sample this replays the identical
    /// stage-major 2×2 products in the identical order with the identical
    /// scalar expression shape (no FMA contraction — see
    /// [`oplix_linalg::lanes`]), so the reordering across *independent*
    /// samples changes nothing bitwise — it only stops the kernel
    /// re-streaming the whole coefficient table per sample and keeps the
    /// complex cross terms in vector registers.
    ///
    /// # Panics
    ///
    /// Panics if `fields.len() != samples * self.n()`.
    pub fn propagate_batch(&self, fields: &mut [Complex64], samples: usize) {
        assert_eq!(
            fields.len(),
            samples * self.n,
            "batch length must be samples * mesh size"
        );
        // An empty mesh (or empty window) propagates nothing — early
        // return instead of chunking by a fabricated width.
        if self.n == 0 || samples == 0 {
            return;
        }
        if samples < MODE_MAJOR_MIN_SAMPLES || self.modes.is_empty() {
            for row in fields.chunks_exact_mut(self.n) {
                self.kernel(row);
            }
            return;
        }
        MODE_MAJOR_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            // Grow-only: the transpose below overwrites every element of
            // the window, so no per-window zero-fill is needed.
            let planar_len = 2 * fields.len();
            if scratch.len() < planar_len {
                scratch.resize(planar_len, 0.0);
            }
            dispatch(ModeMajor {
                mesh: self,
                fields,
                scratch: &mut scratch[..planar_len],
                samples,
            });
        });
    }

    /// The planar mode-major kernel body, generic over the lane width the
    /// dispatch tier selected: transpose the window planar, replay every
    /// baked 2×2 butterfly in stage-major order across the whole window,
    /// then transpose back with the output phase screen folded into the
    /// final sweep (each lane of fields is phasor-multiplied in planar
    /// registers right before it scatters back sample-major, so the
    /// screen costs no separate pass over the scratch).
    #[inline(always)]
    fn mode_major_batch<V: Lane<f64>>(
        &self,
        fields: &mut [Complex64],
        scratch: &mut [f64],
        samples: usize,
    ) {
        let n = self.n;
        let full = samples - samples % V::LANES;
        // Transpose sample-major [s][m] → planar mode-major: row `2m`
        // holds mode m's re parts over the window, row `2m+1` its im
        // parts, so each butterfly touches four adjacent rows.
        for m in 0..n {
            let base = 2 * m * samples;
            let mut s = 0;
            while s < full {
                V::from_fn(|l| fields[(s + l) * n + m].re).store(&mut scratch[base + s..]);
                V::from_fn(|l| fields[(s + l) * n + m].im)
                    .store(&mut scratch[base + samples + s..]);
                s += V::LANES;
            }
            for s in full..samples {
                let f = fields[s * n + m];
                scratch[base + s] = f.re;
                scratch[base + samples + s] = f.im;
            }
        }
        for idx in 0..self.modes.len() {
            let m = self.modes[idx] as usize;
            let (x, rest) = scratch[2 * m * samples..].split_at_mut(2 * samples);
            let (xr, xi) = x.split_at_mut(samples);
            let (yr, yi) = rest[..2 * samples].split_at_mut(samples);
            butterfly_rows::<V>(
                self.t00[idx],
                self.t01[idx],
                self.t10[idx],
                self.t11[idx],
                xr,
                xi,
                yr,
                yi,
            );
        }
        // Transpose the live outputs back, phase screen folded in:
        // `f * phasor` with the field as the left operand — the exact
        // scalar expression of the per-sample kernel's `*f *= ph` pass.
        for (m, &ph) in self.out_phasors.iter().enumerate() {
            let base = 2 * m * samples;
            let mut s = 0;
            while s < full {
                let (re, im) = cmul_splat_rhs(
                    V::load(&scratch[base + s..]),
                    V::load(&scratch[base + samples + s..]),
                    ph.re,
                    ph.im,
                );
                for l in 0..V::LANES {
                    fields[(s + l) * n + m] = Complex64::new(re.get(l), im.get(l));
                }
                s += V::LANES;
            }
            for s in full..samples {
                fields[s * n + m] =
                    Complex64::new(scratch[base + s], scratch[base + samples + s]) * ph;
            }
        }
    }

    /// Reconstructs the unitary the mesh implements by propagating the
    /// canonical basis as **one compiled batch**: the coefficients are
    /// baked once and [`CompiledMesh::propagate_batch`] pushes all `n`
    /// basis vectors through them, instead of re-deriving every MZI's
    /// transfer per basis vector as the interpreted walk would. Bitwise
    /// identical to propagating each basis vector through the source mesh
    /// one at a time (the [`MziMesh::matrix`] contract).
    pub fn unitary(&self) -> oplix_linalg::CMatrix {
        let n = self.n;
        // Row s of the batch is basis vector e_s.
        let mut batch = vec![Complex64::ZERO; n * n];
        for j in 0..n {
            batch[j * n + j] = Complex64::ONE;
        }
        self.propagate_batch(&mut batch, n);
        oplix_linalg::CMatrix::from_fn(n, n, |i, j| batch[j * n + i])
    }
}

/// The backward light cone of output modes `0..live`, in mesh order.
/// Sweeping the MZIs output side first, an MZI is kept iff either of its
/// modes is live, and a kept MZI makes both of its modes live (each of its
/// outputs mixes both inputs). Liveness only grows, so a dropped MZI
/// writes modes that no later kept MZI and no live output ever reads.
fn live_cone(mesh: &MziMesh, live: usize) -> Vec<&Mzi> {
    let mut live_mode: Vec<bool> = (0..mesh.n()).map(|m| m < live).collect();
    let mut kept = Vec::with_capacity(mesh.mzi_count());
    for mzi in mesh.mzis().iter().rev() {
        if live_mode[mzi.mode] || live_mode[mzi.mode + 1] {
            live_mode[mzi.mode] = true;
            live_mode[mzi.mode + 1] = true;
            kept.push(mzi);
        }
    }
    kept.reverse();
    kept
}

/// The geometry of a convolution served by [`CompiledLayer::forward_conv`]:
/// `channels` input planes of `height × width` fields, a square `kernel`,
/// and the `stride` and zero padding `pad` of both spatial axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels `C`.
    pub channels: usize,
    /// Input height `H`.
    pub height: usize,
    /// Input width `W`.
    pub width: usize,
    /// Kernel side `k`.
    pub kernel: usize,
    /// Stride of both spatial axes.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvGeometry {
    /// Output spatial shape `(H', W')`, each `(in + 2·pad − k) / stride + 1`
    /// (floored).
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or the kernel is larger than the padded
    /// input.
    pub fn out_hw(&self) -> (usize, usize) {
        assert!(self.stride > 0, "stride must be positive");
        let side = |input: usize| {
            let padded = input + 2 * self.pad;
            assert!(padded >= self.kernel, "kernel larger than padded input");
            (padded - self.kernel) / self.stride + 1
        };
        (side(self.height), side(self.width))
    }

    /// Output positions `H'·W'`: the mesh rows one sample runs as.
    pub fn positions(&self) -> usize {
        let (oh, ow) = self.out_hw();
        oh * ow
    }

    /// Flattened input features `C·H·W` of one sample.
    pub fn in_features(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Patch taps `C·k²`: the mesh fan-in without the bias tap.
    pub fn patch_len(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Writes one sample's `H'·W'` im2col patch rows into `rows`, each
    /// `patch_len + 1` wide: taps in `(c, ky, kx)` order, a tap in the
    /// padding `+0`, and the bias tap `1` last.
    fn patch_rows(&self, sample: &[Complex64], rows: &mut [Complex64]) {
        let ow = self.out_hw().1;
        let at = |o: usize, k: usize, side: usize| {
            (o * self.stride + k)
                .checked_sub(self.pad)
                .filter(|&i| i < side)
        };
        for (p, row) in rows.chunks_exact_mut(self.patch_len() + 1).enumerate() {
            let mut j = 0;
            for c in 0..self.channels {
                for ky in 0..self.kernel {
                    for kx in 0..self.kernel {
                        row[j] = match (at(p / ow, ky, self.height), at(p % ow, kx, self.width)) {
                            (Some(iy), Some(ix)) => {
                                sample[(c * self.height + iy) * self.width + ix]
                            }
                            _ => Complex64::ZERO,
                        };
                        j += 1;
                    }
                }
            }
            row[j] = Complex64::ONE;
        }
    }
}

/// A whole SVD-mapped layer (`V*` mesh → Σ attenuators → `U` mesh) baked
/// into compiled kernels; the deploy-time artifact the serving engine
/// stores and the deployment cache memoises.
///
/// # Example
///
/// ```
/// use oplix_linalg::{CMatrix, Complex64};
/// use oplix_photonics::compiled::CompiledLayer;
/// use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
///
/// let w = CMatrix::from_fn(2, 3, |i, j| Complex64::new(i as f64 + 1.0, j as f64));
/// let layer = PhotonicLayer::from_matrix(&w, MeshStyle::Clements);
/// let compiled = CompiledLayer::compile(&layer);
///
/// let mut io = vec![Complex64::ONE, Complex64::i(), Complex64::new(0.5, -0.5)];
/// let mut reference = io.clone();
/// let (mut tmp_a, mut tmp_b) = (Vec::new(), Vec::new());
/// compiled.forward_into(&mut io, &mut tmp_a);
/// layer.forward_into(&mut reference, &mut tmp_b);
/// assert_eq!(io, reference); // bitwise, not approximately
/// ```
#[derive(Clone, Debug)]
pub struct CompiledLayer {
    m: usize,
    n: usize,
    gain: f64,
    /// Attenuator amplitude coefficients, one per singular value.
    attenuations: Vec<f64>,
    v: CompiledMesh,
    u: CompiledMesh,
    /// The implemented transfer matrix `T`, planar and output-major: entry
    /// `(i, j)` is `t_re[i·n + j] + i·t_im[i·n + j]`.
    t_re: Vec<f64>,
    t_im: Vec<f64>,
}

impl CompiledLayer {
    /// Bakes both meshes and the attenuator column of an SVD-mapped layer,
    /// then derives the layer's transfer matrix `T` from them: column `j`
    /// of `T` is the golden walk's output for the canonical basis vector
    /// `e_j`, so it matches the phases the layer is compiled from.
    pub fn compile(layer: &PhotonicLayer) -> Self {
        let (m, n) = (layer.output_dim(), layer.input_dim());
        let mut compiled = CompiledLayer {
            m,
            n,
            gain: layer.gain(),
            attenuations: layer.attenuators().iter().map(|a| a.coefficient).collect(),
            // Σ reads only V*'s first min(m, n) outputs.
            v: CompiledMesh::compile_live(layer.v_mesh(), m.min(n)),
            u: CompiledMesh::compile(layer.u_mesh()),
            t_re: Vec::new(),
            t_im: Vec::new(),
        };
        // Row `j` of the golden batch over the basis is `T·e_j`, i.e.
        // column `j` of `T`.
        let mut basis = vec![Complex64::ZERO; n * n];
        for j in 0..n {
            basis[j * n + j] = Complex64::ONE;
        }
        compiled.forward_batch(&mut basis, &mut Vec::new(), n);
        (compiled.t_re, compiled.t_im) = (0..m * n)
            .map(|k| basis[(k % n) * m + k / n])
            .map(|t| (t.re, t.im))
            .unzip();
        compiled
    }

    /// Output dimension `m`.
    #[inline]
    pub fn output_dim(&self) -> usize {
        self.m
    }

    /// Input dimension `n`.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.n
    }

    /// Approximate resident size in bytes, for cache accounting: both
    /// meshes, the attenuators and the `16·m·n` bytes of `T`.
    pub fn approx_bytes(&self) -> usize {
        self.v.approx_bytes()
            + self.u.approx_bytes()
            + (self.attenuations.len() + self.t_re.len() + self.t_im.len())
                * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }

    /// The Σ stage: keep `min(m, n)` modes, attenuate, apply the global
    /// gain — the exact operation order of
    /// [`PhotonicLayer::forward_into`].
    #[inline]
    fn sigma(&self, io: &[Complex64], tmp: &mut [Complex64]) {
        let k = self.m.min(self.n);
        for i in 0..k {
            tmp[i] = io[i].scale(self.attenuations[i]).scale(self.gain);
        }
    }

    /// Allocation-free compiled forward pass: `io` holds the input fields
    /// on entry (length `n`) and the output fields on exit (length `m`);
    /// `tmp` is caller-owned scratch. Bitwise identical to
    /// [`PhotonicLayer::forward_into`] on the source layer.
    ///
    /// # Panics
    ///
    /// Panics if `io.len() != self.input_dim()`.
    pub fn forward_into(&self, io: &mut Vec<Complex64>, tmp: &mut Vec<Complex64>) {
        assert_eq!(io.len(), self.n, "input length must equal the layer fan-in");
        self.v.propagate_in_place(io);
        tmp.clear();
        tmp.resize(self.m, Complex64::ZERO);
        self.sigma(io, tmp);
        self.u.propagate_in_place(tmp);
        std::mem::swap(io, tmp);
    }

    /// A convolution at `fidelity`. `src` holds a window of samples, each
    /// `C·H·W` fields channel-major (`[C, H, W]`, row-major); on exit `io`
    /// holds each sample's `output_dim · H'·W'` outputs channel-major
    /// (`[output_dim, H', W']`); `tmp` is caller-owned scratch. The layer is
    /// the im2col kernel matrix: input `j < C·k²` of `T` is patch tap
    /// `(c, ky, kx)` in that order, and the last input is the bias tap.
    ///
    /// At [`Fidelity::Golden`] each sample's `H'·W'` patch rows are built
    /// in `tmp` from the geometry (a padding tap `+0`, the bias tap `1`),
    /// walked through the meshes as one window, and written channel-major.
    /// A row's result does not depend on its window, so each output is
    /// bitwise its patch row run through [`CompiledLayer::forward_into`].
    ///
    /// At [`Fidelity::Transfer`] each sample is copied once into
    /// zero-bordered planar planes (re and im lines apart, each row split
    /// by column phase when the stride is above one, so every tap loads
    /// contiguous lanes). Then, for each output row, each lane chunk of
    /// output columns and each register block of output channels, the
    /// kernel accumulates `acc + t_oj · x_j` over the taps in im2col order
    /// with [`cmul_splat_lhs`], and the bias tap last as `t_ob · (1 + 0i)`.
    /// A padding tap multiplies the plane's `+0` border. So every output
    /// gets its patch row's operations in the same order, and the result is
    /// bitwise the Golden path's patch rows run through
    /// [`CompiledLayer::forward_batch_at`] at [`Fidelity::Transfer`].
    ///
    /// # Panics
    ///
    /// Panics if [`CompiledLayer::input_dim`] is not
    /// [`ConvGeometry::patch_len`]` + 1`, the kernel does not fit the
    /// padded input (see [`ConvGeometry::out_hw`]), or `src.len()` is not a
    /// multiple of `C·H·W`.
    pub fn forward_conv(
        &self,
        fidelity: Fidelity,
        geometry: &ConvGeometry,
        src: &[Complex64],
        io: &mut Vec<Complex64>,
        tmp: &mut Vec<Complex64>,
    ) {
        assert_eq!(
            self.n,
            geometry.patch_len() + 1,
            "layer fan-in must be the conv patch plus the bias tap"
        );
        let in_features = geometry.in_features();
        assert!(
            in_features > 0 && src.len().is_multiple_of(in_features),
            "source window length must be a multiple of C·H·W"
        );
        let out_features = self.m * geometry.positions();
        // Both tiers write every output, so stale fields need no zeroing.
        io.resize(src.len() / in_features * out_features, Complex64::ZERO);
        match fidelity {
            Fidelity::Golden => {
                // Per sample, the patch rows and the walk's position-major
                // outputs share `tmp`.
                let (n, m, positions) = (self.n, self.m, geometry.positions());
                tmp.resize(positions * (n + m), Complex64::ZERO);
                let (rows, out) = tmp.split_at_mut(positions * n);
                let samples = src.chunks_exact(in_features);
                for (x, y) in samples.zip(io.chunks_exact_mut(out_features)) {
                    geometry.patch_rows(x, rows);
                    // Σ writes only the first `min(m, n)` modes of each row.
                    out.fill(Complex64::ZERO);
                    self.golden(rows, out, positions);
                    for (p, fields) in out.chunks_exact(m).enumerate() {
                        for (o, &z) in fields.iter().enumerate() {
                            y[o * positions + p] = z;
                        }
                    }
                }
            }
            Fidelity::Transfer => MODE_MAJOR_SCRATCH.with(|cell| {
                dispatch(ConvKernel {
                    layer: self,
                    geometry: *geometry,
                    src,
                    out: io,
                    planes: &mut cell.borrow_mut(),
                });
            }),
        }
    }

    /// Golden compiled forward pass over a window of `samples` contiguous
    /// samples: [`CompiledLayer::forward_batch_at`] at
    /// [`Fidelity::Golden`], bitwise identical to running each sample
    /// through [`CompiledLayer::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `io.len() != samples * self.input_dim()`.
    pub fn forward_batch(&self, io: &mut Vec<Complex64>, tmp: &mut Vec<Complex64>, samples: usize) {
        self.forward_batch_at(Fidelity::Golden, io, tmp, samples);
    }

    /// Compiled forward pass over a window of `samples` contiguous
    /// samples at `fidelity`: `io` holds `samples × n` input fields on
    /// entry and `samples × m` output fields on exit; `tmp` is
    /// caller-owned scratch. Every row runs the identical operation
    /// sequence wherever it sits in the window.
    ///
    /// At [`Fidelity::Golden`] the whole window runs as one V* sweep, Σ,
    /// and one U sweep. At [`Fidelity::Transfer`] the sweep stages one lane
    /// chunk of rows at a time.
    ///
    /// # Panics
    ///
    /// Panics if `io.len() != samples * self.input_dim()`.
    pub fn forward_batch_at(
        &self,
        fidelity: Fidelity,
        io: &mut Vec<Complex64>,
        tmp: &mut Vec<Complex64>,
        samples: usize,
    ) {
        assert_eq!(
            io.len(),
            samples * self.n,
            "batch length must be samples * layer fan-in"
        );
        if fidelity == Fidelity::Transfer {
            // The sweep writes every output, so stale fields need no zeroing.
            tmp.resize(samples * self.m, Complex64::ZERO);
            self.transfer(io, tmp, samples);
        } else {
            // Σ writes only the first `min(m, n)` modes of each row.
            tmp.clear();
            tmp.resize(samples * self.m, Complex64::ZERO);
            self.golden(io, tmp, samples);
        }
        std::mem::swap(io, tmp);
    }

    /// The golden walk over a window of `rows` rows: V* in place over
    /// `input` (`rows × n`), Σ into the zeroed `output` rows (`rows × m`),
    /// then U in place over `output`.
    fn golden(&self, input: &mut [Complex64], output: &mut [Complex64], rows: usize) {
        self.v.propagate_batch(input, rows);
        for r in 0..rows {
            self.sigma(
                &input[r * self.n..(r + 1) * self.n],
                &mut output[r * self.m..(r + 1) * self.m],
            );
        }
        self.u.propagate_batch(output, rows);
    }

    /// `output = T·x` for rows `0..rows` of `src` (`rows × n` in,
    /// `rows × m` out, sample-major), at the widest lane tier the CPU has.
    fn transfer(&self, src: &[Complex64], output: &mut [Complex64], rows: usize) {
        MODE_MAJOR_SCRATCH.with(|cell| {
            let mut planar = cell.borrow_mut();
            // One lane chunk of planar inputs at the widest tier.
            let len = 2 * self.n * F64x8::LANES;
            if planar.len() < len {
                planar.resize(len, 0.0);
            }
            dispatch(TransferKernel {
                layer: self,
                src,
                output,
                rows,
                planar: &mut planar,
            });
        });
    }

    /// The transfer sweep, generic over the lane width `V` the dispatch
    /// tier selected. The rows run in full chunks of `V::LANES`, the rows
    /// left over in chunks of [`F64x4`], and the last few one at a time as
    /// [`F64x1`] (see [`CompiledLayer::transfer_span`]). Lane widths differ
    /// only in register width, so every row's result is bitwise the same
    /// wherever it sits in the window.
    #[inline(always)]
    fn transfer_rows<V: Lane<f64>>(
        &self,
        src: &[Complex64],
        output: &mut [Complex64],
        rows: usize,
        planar: &mut [f64],
    ) {
        let (m, n) = (self.m, self.n);
        let mut done = self.transfer_span::<V>(src, output, rows, planar);
        done += self.transfer_span::<F64x4>(
            &src[done * n..],
            &mut output[done * m..],
            rows - done,
            planar,
        );
        self.transfer_span::<F64x1>(
            &src[done * n..],
            &mut output[done * m..],
            rows - done,
            planar,
        );
    }

    /// The full chunks of `L = V::LANES` rows among the first `rows` of
    /// `src`; returns how many rows they cover. Each chunk is staged
    /// planar (`planar[2j·L..]` holds input `j`'s re parts over the chunk,
    /// the next `L` doubles its im parts), then every output accumulates
    /// `acc + t_ij · x_j` over strictly ascending `j` from zero, a register
    /// block of outputs at a time ([`cmul_splat_lhs`], then element-wise
    /// adds): per lane, the scalar [`Complex64`] expression.
    #[inline(always)]
    fn transfer_span<V: Lane<f64>>(
        &self,
        src: &[Complex64],
        output: &mut [Complex64],
        rows: usize,
        planar: &mut [f64],
    ) -> usize {
        let (m, n, lanes) = (self.m, self.n, V::LANES);
        let planar = &mut planar[..2 * n * lanes];
        let full = rows - rows % lanes;
        for c in (0..full).step_by(lanes) {
            for l in 0..lanes {
                for (j, x) in src[(c + l) * n..][..n].iter().enumerate() {
                    planar[2 * j * lanes + l] = x.re;
                    planar[(2 * j + 1) * lanes + l] = x.im;
                }
            }
            let out = &mut output[c * m..(c + lanes) * m];
            let mut o = 0;
            while o + TRANSFER_BLOCK <= m {
                self.transfer_block::<V, TRANSFER_BLOCK>(planar, out, o);
                o += TRANSFER_BLOCK;
            }
            match m - o {
                1 => self.transfer_block::<V, 1>(planar, out, o),
                2 => self.transfer_block::<V, 2>(planar, out, o),
                3 => self.transfer_block::<V, 3>(planar, out, o),
                _ => {}
            }
        }
        full
    }

    /// Outputs `o..o + B` of one planar lane chunk: `B` accumulators live
    /// in registers across the whole `j` sweep, and each input lane is
    /// loaded once for all `B` of them. Writes the chunk's `L` rows of
    /// those outputs into `out` (`L × m`, sample-major).
    #[inline(always)]
    fn transfer_block<V: Lane<f64>, const B: usize>(
        &self,
        planar: &[f64],
        out: &mut [Complex64],
        o: usize,
    ) {
        let (m, n, lanes) = (self.m, self.n, V::LANES);
        let t_re: [&[f64]; B] = std::array::from_fn(|b| &self.t_re[(o + b) * n..][..n]);
        let t_im: [&[f64]; B] = std::array::from_fn(|b| &self.t_im[(o + b) * n..][..n]);
        let mut acc_re = [V::splat(0.0); B];
        let mut acc_im = [V::splat(0.0); B];
        for (j, x) in planar.chunks_exact(2 * lanes).enumerate() {
            let xr = V::load(x);
            let xi = V::load(&x[lanes..]);
            for b in 0..B {
                let (pr, pi) = cmul_splat_lhs(t_re[b][j], t_im[b][j], xr, xi);
                acc_re[b] = acc_re[b] + pr;
                acc_im[b] = acc_im[b] + pi;
            }
        }
        for (l, row) in out.chunks_exact_mut(m).enumerate() {
            for b in 0..B {
                row[o + b] = Complex64::new(acc_re[b].get(l), acc_im[b].get(l));
            }
        }
    }
}

/// [`CompiledLayer::transfer_rows`] over one window.
struct TransferKernel<'a> {
    layer: &'a CompiledLayer,
    src: &'a [Complex64],
    output: &'a mut [Complex64],
    rows: usize,
    planar: &'a mut [f64],
}

impl LaneKernel for TransferKernel<'_> {
    #[inline(always)]
    fn run<V: Lane<f64>, S: Lane<f32>>(self) {
        self.layer
            .transfer_rows::<V>(self.src, self.output, self.rows, self.planar);
    }
}

/// [`CompiledLayer::forward_conv`] over one window: `src` is the
/// channel-major input window, `out` the channel-major output window (every
/// field is overwritten), `planes` the reusable plane scratch.
struct ConvKernel<'a> {
    layer: &'a CompiledLayer,
    geometry: ConvGeometry,
    src: &'a [Complex64],
    out: &'a mut [Complex64],
    planes: &'a mut Vec<f64>,
}

impl LaneKernel for ConvKernel<'_> {
    /// Copies each sample into the planes, then sweeps every output row,
    /// a register block of output channels at a time.
    #[inline(always)]
    fn run<V: Lane<f64>, S: Lane<f32>>(self) {
        let ConvKernel {
            layer,
            geometry: g,
            src,
            out,
            planes,
        } = self;
        let (oh, ow) = g.out_hw();
        let (hp, wp, stride) = (g.height + 2 * g.pad, g.width + 2 * g.pad, g.stride);
        // Plane `c` is `hp` padded rows. A row is split by column phase
        // `px % stride` into `stride` pairs of lines (re, then im) of `span`
        // doubles, so the columns `(ox0 + l)·stride + kx` one tap reads
        // across a lane chunk sit contiguous in phase `kx % stride`, from
        // index `ox0 + kx / stride`. A line spans every index the last
        // chunk reads: the lanes past `ow` read zero slack and are dropped.
        let span = wp
            .div_ceil(stride)
            .max(ow.div_ceil(V::LANES) * V::LANES + (g.kernel - 1) / stride);
        let row = 2 * stride * span;
        planes.clear();
        planes.resize(g.channels * hp * row, 0.0);
        let m = layer.m;
        let samples = src.chunks_exact(g.in_features());
        for (x, y) in samples.zip(out.chunks_exact_mut(m * oh * ow)) {
            // Only the interior is written, so the border and the slack
            // stay +0 for every sample.
            let interiors = planes.chunks_exact_mut(hp * row);
            for (plane, channel) in interiors.zip(x.chunks_exact(g.height * g.width)) {
                for (iy, line) in channel.chunks_exact(g.width).enumerate() {
                    let padded = &mut plane[(iy + g.pad) * row..][..row];
                    let (mut phase, mut at) = (g.pad % stride, g.pad / stride);
                    for z in line {
                        padded[2 * phase * span + at] = z.re;
                        padded[(2 * phase + 1) * span + at] = z.im;
                        phase += 1;
                        if phase == stride {
                            (phase, at) = (0, at + 1);
                        }
                    }
                }
            }
            let sweep = ConvSweep {
                layer,
                g,
                out_hw: (oh, ow),
                span,
                planes,
            };
            for oy in 0..oh {
                let mut o = 0;
                while o + CONV_BLOCK <= m {
                    sweep.block::<V, CONV_BLOCK>(y, oy, o);
                    o += CONV_BLOCK;
                }
                match m - o {
                    1 => sweep.block::<V, 1>(y, oy, o),
                    2 => sweep.block::<V, 2>(y, oy, o),
                    3 => sweep.block::<V, 3>(y, oy, o),
                    4 => sweep.block::<V, 4>(y, oy, o),
                    5 => sweep.block::<V, 5>(y, oy, o),
                    6 => sweep.block::<V, 6>(y, oy, o),
                    7 => sweep.block::<V, 7>(y, oy, o),
                    _ => {}
                }
            }
        }
    }
}

/// One sample's filled planes, read by the register blocks of
/// [`ConvKernel`].
struct ConvSweep<'a> {
    layer: &'a CompiledLayer,
    g: ConvGeometry,
    /// `g.out_hw()`, worked out once per window.
    out_hw: (usize, usize),
    /// Doubles per plane line; a padded row is `2·stride` lines.
    span: usize,
    planes: &'a [f64],
}

impl ConvSweep<'_> {
    /// Output channels `o..o + B` of output row `oy`, one lane chunk of
    /// output columns at a time: `B` accumulators live in registers across
    /// the whole tap sweep, and each tap's lanes are loaded once for all
    /// `B` of them. Writes the live lanes into the channel-major sample
    /// output `y`.
    #[inline(always)]
    fn block<V: Lane<f64>, const B: usize>(&self, y: &mut [Complex64], oy: usize, o: usize) {
        let (g, span, n) = (self.g, self.span, self.layer.n);
        let row = 2 * g.stride * span;
        let (oh, ow) = self.out_hw;
        let hp = g.height + 2 * g.pad;
        let t_re: [&[f64]; B] = std::array::from_fn(|b| &self.layer.t_re[(o + b) * n..][..n]);
        let t_im: [&[f64]; B] = std::array::from_fn(|b| &self.layer.t_im[(o + b) * n..][..n]);
        for ox0 in (0..ow).step_by(V::LANES) {
            let mut acc_re = [V::splat(0.0); B];
            let mut acc_im = [V::splat(0.0); B];
            let mut j = 0;
            for c in 0..g.channels {
                for ky in 0..g.kernel {
                    let padded = &self.planes[(c * hp + oy * g.stride + ky) * row..][..row];
                    let (mut phase, mut at) = (0, ox0);
                    for _ in 0..g.kernel {
                        let line = &padded[2 * phase * span..][..2 * span];
                        let xr = V::load(&line[at..]);
                        let xi = V::load(&line[span + at..]);
                        for b in 0..B {
                            let (pr, pi) = cmul_splat_lhs(t_re[b][j], t_im[b][j], xr, xi);
                            acc_re[b] = acc_re[b] + pr;
                            acc_im[b] = acc_im[b] + pi;
                        }
                        j += 1;
                        phase += 1;
                        if phase == g.stride {
                            (phase, at) = (0, at + 1);
                        }
                    }
                }
            }
            // The bias tap: the always-on reference field `1 + 0i`.
            let (one, zero) = (V::splat(1.0), V::splat(0.0));
            for b in 0..B {
                let (pr, pi) = cmul_splat_lhs(t_re[b][j], t_im[b][j], one, zero);
                acc_re[b] = acc_re[b] + pr;
                acc_im[b] = acc_im[b] + pi;
            }
            // Spill every accumulator before the scatter: a scatter that
            // reads them by lane keeps a memory copy of each live across
            // the tap sweep, stored on every tap.
            let mut re = [[0.0; F64x8::LANES]; B];
            let mut im = [[0.0; F64x8::LANES]; B];
            for b in 0..B {
                acc_re[b].store(&mut re[b]);
                acc_im[b].store(&mut im[b]);
            }
            let live = V::LANES.min(ow - ox0);
            for (b, (re, im)) in re.iter().zip(&im).enumerate() {
                let dst = &mut y[((o + b) * oh + oy) * ow + ox0..][..live];
                for ((z, &re), &im) in dst.iter_mut().zip(re).zip(im) {
                    *z = Complex64::new(re, im);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clements::decompose_clements;
    use crate::reck::decompose_reck;
    use crate::svd_map::MeshStyle;
    use oplix_linalg::lanes::F32x8;
    use oplix_linalg::CMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random mesh on `n` modes with `count` MZIs and random phases.
    fn random_mesh(n: usize, count: usize, seed: u64) -> MziMesh {
        let mut rng = StdRng::seed_from_u64(seed);
        let mzis = (0..count)
            .map(|_| {
                Mzi::new(
                    rng.gen_range(0..n.max(2) - 1),
                    rng.gen_range(-6.0..6.0),
                    rng.gen_range(-6.0..6.0),
                )
            })
            .collect();
        let phases = (0..n).map(|_| rng.gen_range(-6.0..6.0)).collect();
        MziMesh::new(n, mzis, phases)
    }

    fn random_fields(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// The bit patterns of modes `0..live` of every `n`-wide row, so
    /// signed zeros count.
    fn live_bits(fields: &[Complex64], n: usize, live: usize) -> Vec<(u64, u64)> {
        fields
            .chunks_exact(n)
            .flat_map(|row| &row[..live])
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    /// Runs a window of `samples` rows through the full bake per sample
    /// (the reference) and through the `live`-pruned bake both per sample
    /// and as one batch; returns the live bits of all three.
    fn pruned_runs(mesh: &MziMesh, live: usize, samples: usize, seed: u64) -> [Vec<(u64, u64)>; 3] {
        let n = mesh.n();
        let full = CompiledMesh::compile(mesh);
        let pruned = CompiledMesh::compile_live(mesh, live);
        let input = random_fields(n * samples, seed);
        let mut want = input.clone();
        let mut per_sample = input.clone();
        for (w, p) in want.chunks_exact_mut(n).zip(per_sample.chunks_exact_mut(n)) {
            full.propagate_in_place(w);
            pruned.propagate_in_place(p);
        }
        let mut batch = input;
        pruned.propagate_batch(&mut batch, samples);
        [&want, &per_sample, &batch].map(|f| live_bits(f, n, live))
    }

    /// Every `n`-wide row of `rows` run on its own: through
    /// [`CompiledLayer::forward_into`] at Golden, as a one-row window (the
    /// one-lane sweep alone) at Transfer.
    fn row_by_row(
        compiled: &CompiledLayer,
        fidelity: Fidelity,
        rows: &[Complex64],
    ) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(rows.len() / compiled.n * compiled.m);
        let mut tmp = Vec::new();
        for row in rows.chunks_exact(compiled.n) {
            let mut io = row.to_vec();
            match fidelity {
                Fidelity::Golden => compiled.forward_into(&mut io, &mut tmp),
                Fidelity::Transfer => compiled.forward_batch_at(fidelity, &mut io, &mut tmp, 1),
            }
            out.extend(io);
        }
        out
    }

    /// The conv oracle: each sample's [`ConvGeometry::patch_rows`] run
    /// through [`CompiledLayer::forward_batch_at`] at Transfer, or one at a
    /// time through [`CompiledLayer::forward_into`] at Golden, then
    /// scattered channel-major. The direct Transfer kernel addresses its
    /// taps on its own, so pinning it here pins the patch rows too.
    fn gathered_conv(
        compiled: &CompiledLayer,
        fidelity: Fidelity,
        g: &ConvGeometry,
        src: &[Complex64],
    ) -> Vec<Complex64> {
        let (positions, m) = (g.positions(), compiled.m);
        let (mut out, mut tmp) = (Vec::new(), Vec::new());
        for sample in src.chunks_exact(g.in_features()) {
            let mut rows = vec![Complex64::ZERO; positions * compiled.n];
            g.patch_rows(sample, &mut rows);
            match fidelity {
                Fidelity::Golden => rows = row_by_row(compiled, fidelity, &rows),
                Fidelity::Transfer => {
                    compiled.forward_batch_at(fidelity, &mut rows, &mut tmp, positions)
                }
            }
            out.extend((0..m * positions).map(|q| rows[q % positions * m + q / positions]));
        }
        out
    }

    /// [`CompiledLayer::forward_conv`]'s body run at lane width `V`,
    /// whatever the host's widest tier is.
    fn direct_conv<V: Lane<f64>>(
        compiled: &CompiledLayer,
        g: &ConvGeometry,
        src: &[Complex64],
    ) -> Vec<Complex64> {
        let samples = src.len() / g.in_features();
        let mut out = vec![Complex64::ZERO; samples * compiled.m * g.positions()];
        ConvKernel {
            layer: compiled,
            geometry: *g,
            src,
            out: &mut out,
            planes: &mut Vec::new(),
        }
        .run::<V, F32x8>();
        out
    }

    /// Asserts the direct conv at both lane widths and through the
    /// dispatched entry point is bitwise [`gathered_conv`] at Transfer, and
    /// the Golden entry point bitwise [`gathered_conv`] at Golden, on
    /// Clements or Reck meshes by the seed's parity.
    fn assert_direct_conv_is_gathered(m: usize, g: &ConvGeometry, samples: usize, seed: u64) {
        let style = [MeshStyle::Clements, MeshStyle::Reck][seed as usize % 2];
        let compiled = random_layer(m, g.patch_len() + 1, style, seed);
        let src = random_fields(samples * g.in_features(), seed ^ 0xc0);
        let (mut io, mut tmp) = (Vec::new(), Vec::new());
        compiled.forward_conv(Fidelity::Golden, g, &src, &mut io, &mut tmp);
        assert_eq!(
            live_bits(&io, 1, 1),
            live_bits(&gathered_conv(&compiled, Fidelity::Golden, g, &src), 1, 1),
            "Golden m={m} {g:?} samples={samples}"
        );
        let want = live_bits(&gathered_conv(&compiled, Fidelity::Transfer, g, &src), 1, 1);
        compiled.forward_conv(Fidelity::Transfer, g, &src, &mut io, &mut tmp);
        let runs = [
            ("F64x4", direct_conv::<F64x4>(&compiled, g, &src)),
            ("F64x8", direct_conv::<F64x8>(&compiled, g, &src)),
            ("dispatched", io),
        ];
        for (tier, got) in runs {
            assert_eq!(
                live_bits(&got, 1, 1),
                want,
                "{tier} m={m} {g:?} samples={samples}"
            );
        }
    }

    fn random_layer(m: usize, n: usize, style: MeshStyle, seed: u64) -> CompiledLayer {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        CompiledLayer::compile(&PhotonicLayer::from_matrix(&w, style))
    }

    #[test]
    fn live_pruning_is_bitwise_on_decomposed_unitaries() {
        // Every live count of real Clements rectangles and Reck
        // triangles, through the per-sample kernel and windows on both
        // sides of the mode-major switch.
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 2, 5, 9, 16] {
            let u = CMatrix::random_unitary(n, &mut rng);
            for mesh in [decompose_clements(&u), decompose_reck(&u)] {
                for live in 0..=n {
                    for samples in [
                        1,
                        MODE_MAJOR_MIN_SAMPLES - 1,
                        MODE_MAJOR_MIN_SAMPLES,
                        2 * MODE_MAJOR_MIN_SAMPLES + 3,
                    ] {
                        let [want, per_sample, batch] =
                            pruned_runs(&mesh, live, samples, (n * 64 + live) as u64);
                        assert_eq!(per_sample, want, "n={n} live={live} samples={samples}");
                        assert_eq!(batch, want, "n={n} live={live} samples={samples}");
                    }
                }
            }
        }
    }

    #[test]
    fn live_cone_counts_on_a_served_conv_shape() {
        // The LeNet-halved conv2 stage (6×76): Clements V* keeps 1660 of
        // its 2850 MZIs, a Reck triangle's cone is the whole mesh, and
        // neither the U mesh nor the hardware description is pruned.
        let mut rng = StdRng::seed_from_u64(76);
        let w = CMatrix::from_fn(6, 76, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        for (style, kept) in [(MeshStyle::Clements, 1660), (MeshStyle::Reck, 2850)] {
            let layer = PhotonicLayer::from_matrix(&w, style);
            let compiled = CompiledLayer::compile(&layer);
            assert_eq!(layer.v_mesh().mzi_count(), 2850, "{style:?}");
            assert_eq!(compiled.v.mzi_count(), kept, "{style:?}");
            assert_eq!(compiled.u.mzi_count(), layer.u_mesh().mzi_count());
        }
    }

    #[test]
    fn empty_and_single_mode_meshes_compile() {
        for n in [0usize, 1] {
            let mesh = MziMesh::identity(n);
            let compiled = CompiledMesh::compile(&mesh);
            assert_eq!(compiled.mzi_count(), 0);
            assert_eq!(compiled.stage_count(), 0);
            let mut fields = random_fields(n, 7);
            let mut reference = fields.clone();
            compiled.propagate_in_place(&mut fields);
            mesh.propagate_in_place(&mut reference);
            assert_eq!(fields, reference);
        }
    }

    #[test]
    fn stage_grouping_matches_depth() {
        let mesh = random_mesh(8, 40, 3);
        let compiled = CompiledMesh::compile(&mesh);
        assert_eq!(compiled.stage_count(), mesh.depth());
        assert_eq!(compiled.mzi_count(), mesh.mzi_count());
    }

    #[test]
    fn transfer_matrix_is_the_golden_walk_of_the_basis() {
        // Column j of T is bitwise the golden layer's output for e_j, and
        // T reproduces the weight the layer was decomposed from.
        for (m, n) in [(1usize, 1usize), (3, 26), (5, 2), (6, 76)] {
            let mut rng = StdRng::seed_from_u64((m * 100 + n) as u64);
            let w = CMatrix::from_fn(m, n, |_, _| {
                Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            });
            for style in [MeshStyle::Clements, MeshStyle::Reck] {
                let layer = PhotonicLayer::from_matrix(&w, style);
                let compiled = CompiledLayer::compile(&layer);
                let t = |i: usize, j: usize| {
                    Complex64::new(compiled.t_re[i * n + j], compiled.t_im[i * n + j])
                };
                let mut tmp = Vec::new();
                for j in 0..n {
                    let mut e = vec![Complex64::ZERO; n];
                    e[j] = Complex64::ONE;
                    layer.forward_into(&mut e, &mut tmp);
                    for (i, z) in e.iter().enumerate() {
                        assert_eq!(t(i, j), *z, "{m}x{n} {style:?} ({i}, {j})");
                        assert!((t(i, j) - w[(i, j)]).norm_sqr().sqrt() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn transfer_lane_sweep_is_bitwise_the_scalar_tail() {
        // Output counts covering every register-block remainder (m % 4 of
        // 0..=3) and input counts on both sides of one lane: every window
        // up to two chunks of the widest tier plus leftover rows must be
        // bitwise its rows run one at a time (the one-lane sweep alone).
        const WIDEST: usize = oplix_linalg::lanes::F64x8::LANES;
        for (m, n) in [(1usize, 3usize), (2, 9), (3, 26), (4, 4), (5, 11), (7, 2)] {
            let compiled = random_layer(m, n, MeshStyle::Clements, (m * 10 + n) as u64);
            let input = random_fields((2 * WIDEST + 3) * n, 906);
            let want = row_by_row(&compiled, Fidelity::Transfer, &input);
            for rows in 0..=2 * WIDEST + 3 {
                let (mut io, mut tmp) = (input[..rows * n].to_vec(), Vec::new());
                compiled.forward_batch_at(Fidelity::Transfer, &mut io, &mut tmp, rows);
                assert_eq!(
                    live_bits(&io, m, m),
                    live_bits(&want[..rows * m], m, m),
                    "{m}x{n} window {rows}"
                );
            }
        }
    }

    /// The strided scalar loop the Transfer sweep once ran its leftover
    /// rows through, kept as the oracle every lane width is pinned to:
    /// each output accumulates the scalar [`Complex64`] `acc + t_ij · x_j`
    /// from zero over ascending `j`.
    fn transfer_oracle(layer: &CompiledLayer, src: &[Complex64], rows: usize) -> Vec<Complex64> {
        let (m, n) = (layer.m, layer.n);
        let mut output = vec![Complex64::ZERO; rows * m];
        for (y, x) in output.chunks_exact_mut(m).zip(src.chunks_exact(n)) {
            for (j, &x) in x.iter().enumerate() {
                for (i, acc) in y.iter_mut().enumerate() {
                    let t = Complex64::new(layer.t_re[i * n + j], layer.t_im[i * n + j]);
                    *acc += t * x;
                }
            }
        }
        output
    }

    /// A layer whose `m×n` transfer matrix is random. The Transfer sweep
    /// reads nothing else, so no mesh has to be decomposed for it.
    fn random_transfer(m: usize, n: usize, seed: u64) -> CompiledLayer {
        let mut layer = random_layer(1, 1, MeshStyle::Clements, seed);
        let t = random_fields(m * n, seed ^ 3);
        (layer.m, layer.n) = (m, n);
        layer.t_re = t.iter().map(|t| t.re).collect();
        layer.t_im = t.iter().map(|t| t.im).collect();
        layer
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every window height up to three chunks of the widest tier plus
        /// every remainder, every register-block remainder of `m`, fan-ins
        /// on both sides of a lane chunk: the sweep with each lane width
        /// as its widest, run directly and through the dispatched entry
        /// point, writes bitwise the scalar oracle over stale output.
        #[test]
        fn transfer_sweep_is_bitwise_the_scalar_oracle(
            rows in 0usize..=31,
            m in 1usize..=9,
            n in 1usize..=70,
            seed in 0u64..u64::MAX,
        ) {
            let layer = random_transfer(m, n, seed);
            let src = random_fields(rows * n, seed ^ 1);
            let want = live_bits(&transfer_oracle(&layer, &src, rows), m, m);
            let stale = vec![Complex64::new(f64::NAN, -0.0); rows * m];
            let mut planar = vec![0.0; 2 * n * F64x8::LANES];
            let sweeps: [(&str, fn(&CompiledLayer, &[Complex64], &mut [Complex64], usize, &mut [f64])); 3] = [
                ("F64x8", CompiledLayer::transfer_rows::<F64x8>),
                ("F64x4", CompiledLayer::transfer_rows::<F64x4>),
                ("F64x1", CompiledLayer::transfer_rows::<F64x1>),
            ];
            for (width, sweep) in sweeps {
                let mut out = stale.clone();
                sweep(&layer, &src, &mut out, rows, &mut planar);
                prop_assert_eq!(live_bits(&out, m, m), want.clone(), "{} {}x{} {} rows", width, m, n, rows);
            }
            let mut out = stale;
            layer.transfer(&src, &mut out, rows);
            prop_assert_eq!(live_bits(&out, m, m), want, "dispatched {}x{} {} rows", m, n, rows);
        }
    }

    #[test]
    fn approx_bytes_charges_the_transfer_matrix() {
        // The LeNet-halved conv2 stage: T adds 16·m·n bytes on top of the
        // meshes, the attenuators and the struct itself.
        let compiled = random_layer(6, 76, MeshStyle::Clements, 907);
        let without_t = compiled.v.approx_bytes()
            + compiled.u.approx_bytes()
            + 6 * std::mem::size_of::<f64>()
            + std::mem::size_of::<CompiledLayer>();
        assert_eq!(compiled.approx_bytes(), without_t + 16 * 6 * 76);
    }

    /// A narrow window run through buffers a wider window left stale is
    /// bitwise a run through fresh buffers at both tiers, with more
    /// outputs than inputs (Σ leaves the modes past `n` zero) and fewer.
    #[test]
    fn narrow_window_through_stale_buffers_is_bitwise_fresh() {
        for (m, n) in [(7, 3), (3, 7)] {
            let compiled = random_layer(m, n, MeshStyle::Clements, 41);
            let narrow = random_fields(5 * n, 43);
            for fidelity in [Fidelity::Golden, Fidelity::Transfer] {
                let (mut io, mut tmp) = (random_fields(20 * n, 42), Vec::new());
                compiled.forward_batch_at(fidelity, &mut io, &mut tmp, 20);
                io.clone_from(&narrow);
                compiled.forward_batch_at(fidelity, &mut io, &mut tmp, 5);
                let mut fresh = narrow.clone();
                compiled.forward_batch_at(fidelity, &mut fresh, &mut Vec::new(), 5);
                assert_eq!(
                    live_bits(&io, m, m),
                    live_bits(&fresh, m, m),
                    "{m}x{n} {fidelity:?}"
                );
            }
        }
    }

    #[test]
    fn direct_conv_is_bitwise_gathered_on_single_position_outputs() {
        // A 1×1 output from an unpadded kernel-sized input, from a padded
        // 1×1 input, and from a strided input one wider than the kernel;
        // channel counts inside one block, filling it, and past it.
        let shapes = [(2, 5, 5, 5, 1, 0), (3, 1, 1, 3, 1, 1), (1, 4, 4, 3, 2, 0)];
        for (channels, height, width, kernel, stride, pad) in shapes {
            let g = ConvGeometry {
                channels,
                height,
                width,
                kernel,
                stride,
                pad,
            };
            assert_eq!(g.out_hw(), (1, 1));
            for m in [1, CONV_BLOCK, CONV_BLOCK + 1] {
                assert_direct_conv_is_gathered(m, &g, 2, (m * 7 + kernel) as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "source window length must be a multiple of C·H·W")]
    fn forward_conv_rejects_a_ragged_source_window() {
        let g = ConvGeometry {
            channels: 2,
            height: 3,
            width: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let compiled = random_layer(2, g.patch_len() + 1, MeshStyle::Clements, 908);
        let src = random_fields(g.in_features() + 1, 909);
        compiled.forward_conv(
            Fidelity::Transfer,
            &g,
            &src,
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The headline contract: compiled propagation is pinned *bitwise*
        /// against the interpreted walk across random meshes, including
        /// dense Clements-depth meshes and sparse ones.
        #[test]
        fn compiled_propagation_is_bitwise_interpreted(
            n in 2usize..12,
            count in 0usize..60,
            seed in 0u64..u64::MAX,
        ) {
            let mesh = random_mesh(n, count, seed);
            let compiled = CompiledMesh::compile(&mesh);
            let mut fields = random_fields(n, seed.wrapping_add(1));
            let mut reference = fields.clone();
            compiled.propagate_in_place(&mut fields);
            mesh.propagate_in_place(&mut reference);
            prop_assert_eq!(fields, reference);
        }

        /// The batch entry point is bitwise the per-sample kernel,
        /// including the empty window and windows big enough to take the
        /// mode-major fast path (samples ≥ 8).
        #[test]
        fn propagate_batch_is_bitwise_per_sample(
            n in 2usize..10,
            count in 0usize..40,
            samples in 0usize..24,
            seed in 0u64..u64::MAX,
        ) {
            let mesh = random_mesh(n, count, seed);
            let compiled = CompiledMesh::compile(&mesh);
            let mut batch = random_fields(n * samples, seed.wrapping_add(2));
            let reference: Vec<Complex64> = batch
                .chunks_exact(n)
                .flat_map(|row| {
                    let mut r = row.to_vec();
                    mesh.propagate_in_place(&mut r);
                    r
                })
                .collect();
            compiled.propagate_batch(&mut batch, samples);
            prop_assert_eq!(batch, reference);
        }

        /// A live-pruned bake is bitwise the full bake on modes
        /// `0..live` for every live count, per sample and batched, with
        /// windows straddling `MODE_MAJOR_MIN_SAMPLES`.
        #[test]
        fn live_pruned_mesh_is_bitwise_full_on_live_modes(
            n in 2usize..12,
            count in 0usize..60,
            live_pick in 0usize..1000,
            samples in 0usize..2 * MODE_MAJOR_MIN_SAMPLES + 4,
            seed in 0u64..u64::MAX,
        ) {
            let mesh = random_mesh(n, count, seed);
            let live = live_pick % (n + 1);
            let [want, per_sample, batch] = pruned_runs(&mesh, live, samples, seed ^ 0x11fe);
            prop_assert_eq!(&per_sample, &want, "live={}", live);
            prop_assert_eq!(&batch, &want, "live={}", live);
        }

        /// Compiled SVD layers are bitwise the interpreted layer forward,
        /// across tall, wide and square weights and both mesh styles.
        #[test]
        fn compiled_layer_is_bitwise_interpreted(
            m in 1usize..7,
            n in 1usize..7,
            reck in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = CMatrix::from_fn(m, n, |_, _| {
                Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            });
            let style = if reck == 0 { MeshStyle::Clements } else { MeshStyle::Reck };
            let layer = PhotonicLayer::from_matrix(&w, style);
            let compiled = CompiledLayer::compile(&layer);
            let mut io = random_fields(n, seed.wrapping_add(3));
            let mut reference = io.clone();
            let (mut tmp_a, mut tmp_b) = (Vec::new(), Vec::new());
            compiled.forward_into(&mut io, &mut tmp_a);
            layer.forward_into(&mut reference, &mut tmp_b);
            prop_assert_eq!(io, reference);
        }

        /// The transfer tier agrees with the golden walk to within 1e-9
        /// of the largest output magnitude, on tall, wide and square
        /// layers in both mesh styles.
        #[test]
        fn transfer_layer_agrees_with_golden(
            m in 1usize..9,
            n in 1usize..9,
            reck in 0u8..2,
            samples in 0usize..20,
            seed in 0u64..u64::MAX,
        ) {
            let style = if reck == 0 { MeshStyle::Clements } else { MeshStyle::Reck };
            let compiled = random_layer(m, n, style, seed);
            let input = random_fields(samples * n, seed.wrapping_add(5));
            let (mut golden, mut transfer, mut tmp) = (input.clone(), input, Vec::new());
            compiled.forward_batch_at(Fidelity::Golden, &mut golden, &mut tmp, samples);
            compiled.forward_batch_at(Fidelity::Transfer, &mut transfer, &mut tmp, samples);
            for (g, t) in golden.chunks_exact(m).zip(transfer.chunks_exact(m)) {
                let scale = g.iter().map(|z| z.norm_sqr().sqrt()).fold(f64::MIN_POSITIVE, f64::max);
                for (a, b) in g.iter().zip(t) {
                    prop_assert!((*a - *b).norm_sqr().sqrt() <= 1e-9 * scale, "{:?} vs {:?}", a, b);
                }
            }
        }

        /// The layer-level batch kernel is bitwise the per-sample kernel,
        /// through both the small-window and mode-major mesh paths.
        #[test]
        fn forward_batch_is_bitwise_per_sample(
            m in 1usize..6,
            n in 1usize..6,
            samples in 0usize..20,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = CMatrix::from_fn(m, n, |_, _| {
                Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            });
            let layer = PhotonicLayer::from_matrix(&w, MeshStyle::Clements);
            let compiled = CompiledLayer::compile(&layer);
            let mut batch = random_fields(n * samples, seed.wrapping_add(4));
            let mut tmp = Vec::new();
            let reference: Vec<Complex64> = batch
                .chunks_exact(n)
                .flat_map(|row| {
                    let mut io = row.to_vec();
                    compiled.forward_into(&mut io, &mut tmp);
                    io
                })
                .collect();
            let mut scratch = Vec::new();
            compiled.forward_batch(&mut batch, &mut scratch, samples);
            prop_assert_eq!(batch, reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The direct conv is bitwise the patch rows run at Transfer and
        /// scattered channel-major, at both lane widths and dispatched, and
        /// the Golden conv bitwise the patch rows walked one at a time: odd
        /// and even planes, every kernel, padding and stride the lowering
        /// serves, and channel counts covering every register-block
        /// remainder and more than one block.
        #[test]
        fn direct_conv_is_bitwise_gathered_transfer(
            channels in 1usize..4,
            height in 1usize..18,
            width in 1usize..18,
            kernel_pick in 0usize..3,
            pad in 0usize..3,
            stride in 1usize..3,
            m in 1usize..10,
            samples in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let kernel = [1usize, 3, 5][kernel_pick];
            // Grow a plane the padded kernel would not fit.
            let fit = |side: usize| side.max(kernel.saturating_sub(2 * pad));
            let g = ConvGeometry {
                channels,
                height: fit(height),
                width: fit(width),
                kernel,
                stride,
                pad,
            };
            assert_direct_conv_is_gathered(m, &g, samples, seed);
        }
    }
}
