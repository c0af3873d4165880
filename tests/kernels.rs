//! Integration tests for the compiled compute-kernel layer: compiled
//! mesh/layer kernels pinned bitwise against the interpreted walk on
//! realistic (decomposition-produced) meshes, the transfer tier pinned
//! bitwise against itself row by row and its served logits pinned over
//! every batch height, the transpose-free GEMM layouts pinned bitwise
//! against transpose-then-multiply, and the persistent executor serving
//! the sharded engine across worker counts.

use oplix_linalg::{CMatrix, Complex64};
use oplix_nn::ctensor::CTensor;
use oplix_nn::tensor::Tensor;
use oplix_photonics::clements::decompose_clements;
use oplix_photonics::compiled::{CompiledLayer, CompiledMesh, Fidelity, MODE_MAJOR_MIN_SAMPLES};
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::reck::decompose_reck;
use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
use oplixnet::engine::InferenceEngine;
use oplixnet::pool;
use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
use oplixnet::DeployedDetection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The window range sampled by `propagate_batch_is_bitwise_per_sample_across_windows`
// must straddle the scalar/planar switch so both paths are covered.
const _: () = assert!(MODE_MAJOR_MIN_SAMPLES < 40);

fn random_fields(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

#[test]
fn compiled_kernels_are_bitwise_on_decomposed_unitaries() {
    // Meshes that come out of the real decomposition algorithms (not just
    // random MZI lists): full Clements rectangles and Reck triangles.
    let mut rng = StdRng::seed_from_u64(1);
    for n in [1usize, 2, 5, 16] {
        let u = CMatrix::random_unitary(n, &mut rng);
        for mesh in [decompose_clements(&u), decompose_reck(&u)] {
            let compiled = CompiledMesh::compile(&mesh);
            assert_eq!(compiled.mzi_count(), mesh.mzi_count());
            assert_eq!(compiled.stage_count(), mesh.depth());
            for seed in 0..4u64 {
                let mut fast = random_fields(n, 100 * n as u64 + seed);
                let mut reference = fast.clone();
                compiled.propagate_in_place(&mut fast);
                mesh.propagate_in_place(&mut reference);
                assert_eq!(fast, reference, "n={n} seed={seed}");
            }
        }
    }
}

#[test]
fn compiled_svd_layers_are_bitwise_across_styles() {
    // Small edge shapes plus the wide shapes the paper workloads serve
    // (LeNet-halved conv1/conv2/fc1, FCNN stage 0), whose V* bakes are
    // live-cone pruned. Each runs as single samples and as one 64-sample
    // window (the mode-major path) against the unpruned interpreted layer.
    const WINDOW: usize = 64;
    let mut rng = StdRng::seed_from_u64(2);
    for &(m, n) in &[
        (1usize, 1usize),
        (3, 7),
        (7, 3),
        (16, 16),
        (3, 26),
        (6, 76),
        (24, 97),
        (32, 65),
    ] {
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        for style in [MeshStyle::Clements, MeshStyle::Reck] {
            let layer = PhotonicLayer::from_matrix(&w, style);
            let compiled = CompiledLayer::compile(&layer);
            let window = random_fields(n * WINDOW, (m * 31 + n) as u64);
            let (mut tmp_a, mut tmp_b) = (Vec::new(), Vec::new());
            let mut want = Vec::with_capacity(m * WINDOW);
            for row in window.chunks_exact(n) {
                let mut io = row.to_vec();
                let mut reference = row.to_vec();
                compiled.forward_into(&mut io, &mut tmp_a);
                layer.forward_into(&mut reference, &mut tmp_b);
                assert_eq!(io, reference, "{m}x{n} {style:?} single sample");
                want.extend(reference);
            }
            let mut batch = window;
            compiled.forward_batch(&mut batch, &mut tmp_a, WINDOW);
            assert_eq!(batch, want, "{m}x{n} {style:?} {WINDOW}-sample window");
        }
    }

    // The conv shapes again, at wide windows: 315 rows at 3×26 and 107
    // at 6×76, one short, one over, twice plus a tail, and one plus a
    // tail below the mode-major switch. Bit patterns, so signed zeros
    // count.
    let bits = |fields: &[Complex64]| -> Vec<(u64, u64)> {
        fields
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    };
    for &(m, n, wide) in &[(3usize, 26usize, 315usize), (6, 76, 107)] {
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let counts = [
            wide - 1,
            wide,
            wide + 1,
            2 * wide + 3,
            wide + MODE_MAJOR_MIN_SAMPLES - 1,
        ];
        let most = 2 * wide + 3;
        for style in [MeshStyle::Clements, MeshStyle::Reck] {
            let layer = PhotonicLayer::from_matrix(&w, style);
            let compiled = CompiledLayer::compile(&layer);
            let window = random_fields(n * most, (m * 37 + n) as u64);
            let mut tmp = Vec::new();
            let mut want = Vec::with_capacity(m * most);
            for row in window.chunks_exact(n) {
                let mut reference = row.to_vec();
                layer.forward_into(&mut reference, &mut tmp);
                want.extend(reference);
            }
            for rows in counts {
                let mut batch = window[..rows * n].to_vec();
                compiled.forward_batch(&mut batch, &mut tmp, rows);
                assert_eq!(
                    bits(&batch),
                    bits(&want[..rows * m]),
                    "{m}x{n} {style:?} {rows}-row window"
                );
            }
        }
    }
}

#[test]
fn transfer_windows_are_bitwise_row_by_row() {
    // The transfer tier on the two conv shapes, at every window up to two
    // chunks of the widest lane tier (8) plus a tail, and at wide windows
    // (315 rows at 3×26, 107 at 6×76, and their neighbours): each window
    // must be bitwise its rows run as one-row windows, which
    // take the one-lane sweep alone. Then one row is moved through every
    // position of a window and must come out with the same bits.
    const LANES: usize = 8;
    let bits = |fields: &[Complex64]| -> Vec<(u64, u64)> {
        fields
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(3);
    for &(m, n, wide) in &[(3usize, 26usize, 315usize), (6, 76, 107)] {
        let w = CMatrix::from_fn(m, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let counts = (0..=2 * LANES + 3).chain([wide - 1, wide, wide + 1, 2 * wide + 3]);
        let most = 2 * wide + 3;
        for style in [MeshStyle::Clements, MeshStyle::Reck] {
            let compiled = CompiledLayer::compile(&PhotonicLayer::from_matrix(&w, style));
            let window = random_fields(n * most, (m * 41 + n) as u64);
            let mut tmp = Vec::new();
            let mut want = Vec::with_capacity(m * most);
            for row in window.chunks_exact(n) {
                let mut one = row.to_vec();
                compiled.forward_batch_at(Fidelity::Transfer, &mut one, &mut tmp, 1);
                want.extend(one);
            }
            for rows in counts.clone() {
                let mut batch = window[..rows * n].to_vec();
                compiled.forward_batch_at(Fidelity::Transfer, &mut batch, &mut tmp, rows);
                assert_eq!(
                    bits(&batch),
                    bits(&want[..rows * m]),
                    "{m}x{n} {style:?} {rows}-row window"
                );
            }
            let rows = 2 * LANES + 3;
            for at in 0..rows {
                let mut batch = window[n..(rows + 1) * n].to_vec();
                batch[at * n..(at + 1) * n].copy_from_slice(&window[..n]);
                compiled.forward_batch_at(Fidelity::Transfer, &mut batch, &mut tmp, rows);
                assert_eq!(
                    bits(&batch[at * m..(at + 1) * m]),
                    bits(&want[..m]),
                    "{m}x{n} {style:?} row at {at}"
                );
            }
        }
    }
}

/// Naive strictly-ascending-`k` f32 matmul: the scalar twin the lane
/// micro-kernel in `oplix_linalg::gemm` must reproduce bit for bit.
fn naive_matmul_f32(x: &Tensor, w: &Tensor) -> Tensor {
    let (m, k) = (x.shape()[0], x.shape()[1]);
    let n = w.shape()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for t in 0..k {
            let a = x.as_slice()[i * k + t];
            for j in 0..n {
                out.as_mut_slice()[i * n + j] += a * w.as_slice()[t * n + j];
            }
        }
    }
    out
}

/// Naive strictly-ascending-`k` complex matmul, same role as
/// [`naive_matmul_f32`] for the planar `Complex64` lane kernel.
fn naive_matmul_c64(x: &CMatrix, w: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(x.rows(), w.cols());
    for i in 0..x.rows() {
        for t in 0..x.cols() {
            let a = x[(i, t)];
            for j in 0..w.cols() {
                out[(i, j)] += a * w[(t, j)];
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transpose-free layouts are bitwise transpose-then-multiply
    /// across random shapes, including empty and 1×N edge cases.
    #[test]
    fn gemm_nt_tn_are_bitwise_transpose_free(
        m in 0usize..10,
        k in 0usize..80,
        n in 0usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&[m, k], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[n, k], 1.0, &mut rng);
        prop_assert_eq!(x.matmul_nt(&w), x.matmul(&w.transpose2()));
        let dy = Tensor::random_uniform(&[k, m], 1.0, &mut rng);
        let b = Tensor::random_uniform(&[k, n], 1.0, &mut rng);
        prop_assert_eq!(dy.matmul_tn(&b), dy.transpose2().matmul(&b));
    }

    /// The lane micro-kernel behind every GEMM is bitwise the naive
    /// strictly-ascending-`k` scalar loop, across shapes chosen to
    /// straddle the lane widths (4/8/16) in the `j` dimension —
    /// remainder-tail-only rows, exactly-one-lane rows, lane-plus-tail
    /// rows — and single-row products.
    #[test]
    fn gemm_lane_kernel_is_bitwise_naive_scalar(
        mi in 0usize..3,
        ki in 0usize..4,
        ni in 0usize..11,
        seed in 0u64..u64::MAX,
    ) {
        let m = [1usize, 2, 5][mi];
        let k = [1usize, 3, 8, 17][ki];
        let n = [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&[m, k], 1.0, &mut rng);
        let w = Tensor::random_uniform(&[k, n], 1.0, &mut rng);
        prop_assert_eq!(x.matmul(&w), naive_matmul_f32(&x, &w));
        let cx = CMatrix::from_fn(m, k, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let cw = CMatrix::from_fn(k, n, |_, _| {
            Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        prop_assert_eq!(cx.matmul(&cw), naive_matmul_c64(&cx, &cw));
    }

    /// The planar lane sweep behind `propagate_batch` is bitwise the
    /// per-sample compiled walk (itself pinned to the interpreted mesh)
    /// for every window size straddling `MODE_MAJOR_MIN_SAMPLES` and the
    /// lane widths: below the threshold (scalar chunk path), exactly at
    /// it, lane-multiple windows, and windows with remainder tails.
    #[test]
    fn propagate_batch_is_bitwise_per_sample_across_windows(
        ni in 0usize..4,
        samples in 0usize..=40,
        seed in 0u64..u64::MAX,
    ) {
        let n = [1usize, 2, 5, 16][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let mesh = decompose_clements(&CMatrix::random_unitary(n, &mut rng));
        let compiled = CompiledMesh::compile(&mesh);
        let mut batch = random_fields(n * samples, seed ^ 0x5eed);
        let mut reference = batch.clone();
        compiled.propagate_batch(&mut batch, samples);
        for row in reference.chunks_exact_mut(n) {
            compiled.propagate_in_place(row);
        }
        prop_assert_eq!(batch, reference, "n={} samples={}", n, samples);
    }
}

#[test]
fn sharded_engine_on_persistent_executor_is_bitwise_sequential() {
    // Force a multi-slot budget so the sharded path really runs on the
    // persistent executor's workers (not the inline fallback), then pin
    // the compiled window path bitwise across worker counts.
    pool::set_jobs(4);
    let mut rng = StdRng::seed_from_u64(5);
    let net = build_fcnn(
        &FcnnConfig {
            input: 12,
            hidden: 10,
            classes: 4,
        },
        ModelVariant::Split(DecoderKind::Merge),
        &mut rng,
    );
    let make = || {
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("FCNN deploys")
    };
    // A batch bigger than one serve window (64), so the window loop and
    // the shard split both engage.
    let batch = CTensor::new(
        Tensor::random_uniform(&[150, 12], 1.0, &mut rng),
        Tensor::random_uniform(&[150, 12], 1.0, &mut rng),
    );
    let want = make().predict_batch(&batch).expect("sequential");
    for workers in [2usize, 3, 7] {
        let got = make()
            .with_num_workers(workers)
            .predict_batch(&batch)
            .expect("sharded");
        assert_eq!(got, want, "{workers} workers");
    }
    assert!(
        pool::workers_alive() >= 1,
        "the sharded batches must have spun up persistent workers"
    );
}

/// FNV-1a over the bits of every logit, in row order.
fn logit_hash(logits: &[Vec<f64>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in logits.iter().flatten() {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn transfer_logits_over_every_batch_height_are_pinned_bitwise() {
    // The served FCNN shape (64→32→10, Merge), a 7-stage LeNet body and a
    // two-conv CNN, over batches of every height 1..=70 (every lane-chunk
    // remainder, on both sides of one 64-row serve window), at 1 and 2
    // workers, at both fidelity tiers. The LeNet convs run stride 1,
    // pad 2; the CNN's first conv runs stride 2, pad 1 over an odd plane
    // and its second pad 0, so border taps and stride skipping are
    // pinned too. The FCNN and LeNet Transfer hashes were recorded
    // before leftover rows ran on narrower lanes and the engine sharded
    // by whole lane chunks; the Golden hashes and the CNN's before the
    // Golden walk dropped its row tiles and gather plans.
    use oplixnet::zoo::{build_lenet, LenetConfig};
    const MOST: usize = 70;
    let mut rng = StdRng::seed_from_u64(24);
    let fcnn = build_fcnn(
        &FcnnConfig {
            input: 64,
            hidden: 32,
            classes: 10,
        },
        ModelVariant::Split(DecoderKind::Merge),
        &mut rng,
    );
    let fcnn =
        InferenceEngine::from_network(&fcnn, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("FCNN deploys");
    let cfg = LenetConfig::training_scale(2, 8, 10).halved();
    let lenet = build_lenet(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
    let shape = [cfg.in_ch, cfg.input_h, cfg.input_w];
    let lenet = InferenceEngine::from_network_shaped(
        &lenet,
        Some((shape[0], shape[1], shape[2])),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("LeNet deploys");
    // The CNN body and its inputs draw from their own stream, so the
    // FCNN and LeNet draws above and below stay as they were.
    let mut cnn_rng = StdRng::seed_from_u64(30);
    let cnn_shape = [2usize, 7, 7];
    let cnn = {
        use oplix_nn::head::MergeHead;
        use oplix_nn::layers::{CConv2d, CDense, CFlatten, CRelu, CSequential};
        use oplix_nn::network::Network;
        // [2, 7, 7] → stride 2, pad 1 → [3, 4, 4] → pad 0 → [4, 2, 2].
        let body = CSequential::new()
            .push(CConv2d::new(2, 3, 3, 2, 1, &mut cnn_rng))
            .push(CRelu::new())
            .push(CConv2d::new(3, 4, 3, 1, 0, &mut cnn_rng))
            .push(CRelu::new())
            .push(CFlatten::new())
            .push(CDense::new(16, 8, &mut cnn_rng));
        Network::new(body, Box::new(MergeHead::new()))
    };
    let cnn = InferenceEngine::from_network_shaped(
        &cnn,
        Some((cnn_shape[0], cnn_shape[1], cnn_shape[2])),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("CNN deploys");
    let draw = |width: usize, rng: &mut StdRng| {
        let re = Tensor::random_uniform(&[MOST * width], 1.0, rng);
        let im = Tensor::random_uniform(&[MOST * width], 1.0, rng);
        (re, im)
    };
    let fcnn_inputs = draw(64, &mut rng);
    let lenet_inputs = draw(shape.iter().product(), &mut rng);
    let cnn_inputs = draw(cnn_shape.iter().product(), &mut cnn_rng);
    // One hash per tier: [Transfer, Golden].
    for (name, engine, sample, (re, im), want) in [
        (
            "FCNN",
            fcnn,
            vec![64usize],
            fcnn_inputs,
            [0x7320_2137_be09_0225u64, 0x0665_0699_59c5_8b96],
        ),
        (
            "LeNet",
            lenet,
            shape.to_vec(),
            lenet_inputs,
            [0xfe6e_a810_1da6_4f0d, 0x62ce_e4de_484a_4ab7],
        ),
        (
            "CNN",
            cnn,
            cnn_shape.to_vec(),
            cnn_inputs,
            [0xa38d_732d_36a8_1af8, 0xd485_a4cb_6fb4_52b5],
        ),
    ] {
        let width: usize = sample.iter().product();
        for (fidelity, want) in [Fidelity::Transfer, Fidelity::Golden].into_iter().zip(want) {
            for workers in [1usize, 2] {
                let mut engine = engine
                    .clone()
                    .with_fidelity(fidelity)
                    .with_num_workers(workers);
                let mut logits = Vec::new();
                for rows in 1..=MOST {
                    let dims: Vec<usize> = std::iter::once(rows)
                        .chain(sample.iter().copied())
                        .collect();
                    let take =
                        |t: &Tensor| Tensor::from_vec(&dims, t.as_slice()[..rows * width].to_vec());
                    let batch = CTensor::new(take(&re), take(&im));
                    logits.extend(engine.predict_batch(&batch).expect("predicts"));
                }
                let got = logit_hash(&logits);
                assert_eq!(
                    got, want,
                    "{name} {fidelity:?} at {workers} workers: {got:#x}"
                );
            }
        }
    }
}
