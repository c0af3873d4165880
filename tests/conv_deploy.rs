//! Integration tests for the conv-to-mesh photonic lowering (im2col over
//! MZI meshes) and its serving behaviour:
//!
//! * the im2col view of the convolution is element-wise equal to the
//!   direct conv forward across random shapes/strides/paddings (property
//!   test — the Golden tier walks patch rows in the same `(c, ky, kx)`
//!   tap order);
//! * a deployed CNN's classifications are **bitwise identical** across
//!   engine worker counts {1, 2, 7} and through the `serve::Server`
//!   micro-batcher, mirroring the FCNN contracts in `tests/serving.rs` /
//!   `tests/serve.rs`;
//! * deployed-CNN logits agree with the electronic forward within the
//!   same tolerance the FCNN deployment pins;
//! * rank-4 `[N, C, H, W]` image views serve through every engine entry
//!   point exactly like their flattened `[N, D]` form.
//!
//! The CI matrix runs this binary under `OPLIX_JOBS ∈ {1, 2, 7}`; nothing
//! here may depend on the worker budget.

use oplix_linalg::Complex64;
use oplix_nn::ctensor::CTensor;
use oplix_nn::functional::{conv2d_forward, conv2d_forward_im2col};
use oplix_nn::head::MergeHead;
use oplix_nn::layers::{CConv2d, CDense, CFlatten, CRelu, CSequential};
use oplix_nn::network::Network;
use oplix_nn::tensor::Tensor;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::InferenceEngine;
use oplixnet::serve::{sample_row, Server, Ticket};
use oplixnet::DeployedDetection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// A pool-free CNN: conv(same-ish geometry) → ReLU → flatten → dense
/// classifier under the merge head, deployable end to end.
#[allow(clippy::too_many_arguments)]
fn cnn(
    c: usize,
    h: usize,
    w: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    classes: usize,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = CConv2d::new(c, out_ch, kernel, stride, pad, &mut rng);
    let (oh, ow) = conv.output_hw(h, w);
    let flat = out_ch * oh * ow;
    let body = CSequential::new()
        .push(conv)
        .push(CRelu::new())
        .push(CFlatten::new())
        .push(CDense::new(flat, 2 * classes, &mut rng));
    Network::new(body, Box::new(MergeHead::new()))
}

fn image_view(n: usize, c: usize, h: usize, w: usize, seed: u64) -> CTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    CTensor::new(
        Tensor::random_uniform(&[n, c, h, w], 1.0, &mut rng),
        Tensor::random_uniform(&[n, c, h, w], 1.0, &mut rng),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The im2col-lowered conv forward is element-wise equal to the
    /// direct conv forward: both accumulate each output's products in the
    /// identical `(c, ky, kx)` order, the im2col walk merely interleaving
    /// exact zero products where the direct walk skips padded taps.
    #[test]
    fn im2col_forward_equals_direct_forward(
        n in 1usize..3,
        c in 1usize..4,
        o in 1usize..4,
        h in 1usize..7,
        w in 1usize..7,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random_uniform(&[n, c, h, w], 1.0, &mut rng);
        let weights = Tensor::random_uniform(&[o, c, kernel, kernel], 1.0, &mut rng);
        let direct = conv2d_forward(&x, &weights, stride, pad);
        let im2col = conv2d_forward_im2col(&x, &weights, stride, pad);
        prop_assert_eq!(direct.shape(), im2col.shape());
        prop_assert_eq!(direct.as_slice(), im2col.as_slice());
    }

    /// Deployed-CNN classification is bitwise identical across worker
    /// counts {1, 2, 7}, across random conv geometries (strides, paddings,
    /// channel counts) — the FCNN sharding contract extended to the
    /// gather-stage pipeline. Deployment is the expensive part, so the
    /// case count stays small.
    #[test]
    fn deployed_cnn_classify_is_bitwise_across_worker_counts(
        c in 1usize..3,
        out_ch in 1usize..4,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let (h, w) = (5, 6);
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let net = cnn(c, h, w, out_ch, kernel, stride, pad, 3, seed);
        let deploy = || InferenceEngine::from_network_shaped(
            &net,
            Some((c, h, w)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        ).expect("CNN bodies deploy");
        // 20 samples: enough for several compiled windows and the
        // mode-major batched mesh path on the patch rows.
        let view = image_view(20, c, h, w, seed.wrapping_add(1));
        let want = deploy().classify(&view).expect("sequential classify");
        for workers in [2usize, 7] {
            let got = deploy()
                .with_num_workers(workers)
                .classify(&view)
                .expect("sharded classify");
            prop_assert_eq!(&got, &want, "workers {}", workers);
        }
    }
}

#[test]
fn deployed_cnn_logits_match_electronic_forward() {
    // The acceptance bar of the lowering: deployed logits within the same
    // 1e-3 tolerance the FCNN deployment pins against software.
    let mut net = cnn(2, 6, 6, 3, 3, 2, 1, 2, 70_001);
    let deployed = oplixnet::deploy::DeployedFcnn::from_network_shaped(
        &net,
        Some((2, 6, 6)),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("deploys");
    let view = image_view(6, 2, 6, 6, 70_002);
    let soft = net.forward(&view, false);
    for i in 0..6 {
        let optical = deployed.forward(&sample_row(&view, i));
        for k in 0..2 {
            let s = soft.at2(i, k) as f64;
            assert!(
                (optical[k] - s).abs() < 1e-3,
                "sample {i} class {k}: optical {} vs software {s}",
                optical[k]
            );
        }
    }
}

#[test]
fn rank4_image_views_serve_like_their_flat_form() {
    // `[N, C, H, W]` and `[N, C·H·W]` views of the same storage must be
    // bitwise interchangeable through every engine entry point.
    let net = cnn(2, 4, 6, 2, 3, 1, 1, 3, 70_011);
    let engine = || {
        InferenceEngine::from_network_shaped(
            &net,
            Some((2, 4, 6)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys")
    };
    let image = image_view(17, 2, 4, 6, 70_012);
    let flat = image.reshape(&[17, 2 * 4 * 6]);
    let want_logits = engine().predict_batch(&flat).expect("flat predict");
    let mut e = engine();
    assert_eq!(e.predict_batch(&image).expect("image predict"), want_logits);
    assert_eq!(
        e.classify(&image).expect("image classify"),
        engine().classify(&flat).expect("flat classify")
    );
    // The borrowed-rows path (serving front end) agrees too.
    let rows: Vec<Complex64> = (0..17).flat_map(|i| sample_row(&image, i)).collect();
    assert_eq!(
        e.classify_rows(&rows).expect("rows"),
        engine().classify(&flat).expect("flat classify")
    );
    // Streaming evaluation accepts the rank-4 view directly.
    let labels = vec![0usize; 17];
    let data = oplix_nn::trainer::CDataset::new(image.clone(), labels);
    let streamed = e.accuracy_streaming(&data, 5).expect("streamed");
    let direct = e.accuracy(&data).expect("one-shot");
    assert_eq!(streamed, direct);
}

#[test]
fn served_cnn_predictions_are_bitwise_direct_classify() {
    // The serve::Server micro-batcher over a deployed CNN: coalesced
    // micro-batches must be bitwise the direct classify results, at any
    // coalescing — the FCNN serving contract extended to gather stages.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    let net = cnn(1, 6, 6, 3, 3, 1, 1, 3, 70_021);
    let make_engine = || {
        InferenceEngine::from_network_shaped(
            &net,
            Some((1, 6, 6)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys")
    };
    let view = image_view(CLIENTS * PER_CLIENT, 1, 6, 6, 70_022);
    let mut direct = make_engine();
    let want = direct.classify(&view).expect("direct classify");
    direct.reset_stats();

    let server = Server::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(200))
        .queue_cap(64)
        .workers(0) // shared `--jobs` budget, whatever the CI matrix sets
        .serve_engine(direct);
    let got: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                let view = &view;
                scope.spawn(move || {
                    let lo = c * PER_CLIENT;
                    let tickets: Vec<Ticket> = (lo..lo + PER_CLIENT)
                        .map(|i| client.submit(sample_row(view, i)).expect("admits"))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| {
                            t.wait()
                                .expect("every ticket resolves")
                                .class()
                                .expect("no confidence policy")
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (c, span) in got.iter().enumerate() {
        let lo = c * PER_CLIENT;
        assert_eq!(
            span,
            &want[lo..lo + PER_CLIENT],
            "client {c}: served CNN predictions must be bitwise direct classify"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.served, (CLIENTS * PER_CLIENT) as u64);
    let engine_back = server.shutdown();
    assert_eq!(engine_back.stats().samples, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn windowed_conv_classify_is_invariant_to_the_worker_budget() {
    // Worker-budget invariance of the windowed conv path. The im2col
    // gather runs on the serving thread whatever the budget, so a
    // multi-worker 64-sample window must be bitwise the same images
    // served one at a time. An 8×10 two-channel image under a 3×3
    // same-pad conv gathers 80 positions × 19 sources per sample, so the
    // 64-sample window's lane chunks and row tiles cut inside samples,
    // while a single-sample window is one tile.
    let (c, h, w) = (2usize, 8usize, 10usize);
    let net = cnn(c, h, w, 2, 3, 1, 1, 3, 70_041);
    let make_engine = || {
        InferenceEngine::from_network_shaped(
            &net,
            Some((c, h, w)),
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys")
    };
    let view = image_view(64, c, h, w, 70_042);

    // Single-sample windows: 80 patch rows each, one tile.
    let mut seq = make_engine();
    let want: Vec<usize> = (0..64)
        .map(|i| {
            seq.classify_rows(&sample_row(&view, i))
                .expect("one-sample classify")[0]
        })
        .collect();

    // Serve the big window under a multi-worker budget (a 1-CPU dev box
    // would otherwise run at one); restore the ambient budget for the
    // rest of the binary.
    let ambient = oplixnet::pool::jobs();
    oplixnet::pool::set_jobs(4);
    let got = make_engine().classify(&view).expect("windowed classify");
    oplixnet::pool::set_jobs(ambient);
    assert_eq!(
        got, want,
        "a multi-worker budget must not change the windowed conv classes"
    );
}

#[test]
fn pooled_lenet_style_body_deploys_and_agrees_with_software() {
    // Average pooling lowers as an electronic gather between optical
    // stages, so a full LeNet-style body (conv-relu-pool twice, then the
    // dense stack) deploys end to end.
    let mut rng = StdRng::seed_from_u64(70_031);
    let body = CSequential::new()
        .push(CConv2d::new(1, 2, 3, 1, 1, &mut rng))
        .push(CRelu::new())
        .push(oplix_nn::layers::CAvgPool2d::new(2))
        .push(CConv2d::new(2, 3, 3, 1, 1, &mut rng))
        .push(CRelu::new())
        .push(oplix_nn::layers::CAvgPool2d::new(2))
        .push(CFlatten::new())
        .push(CDense::new(3 * 2 * 2, 4, &mut rng));
    let mut net = Network::new(body, Box::new(MergeHead::new()));
    let deployed = oplixnet::deploy::DeployedFcnn::from_network_shaped(
        &net,
        Some((1, 8, 8)),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("pooled CNN bodies deploy");
    assert_eq!(deployed.num_stages(), 5); // conv, pool, conv, pool, dense
    assert_eq!(deployed.num_optical_stages(), 3);

    let view = image_view(5, 1, 8, 8, 70_032);
    let soft = net.forward(&view, false);
    for i in 0..5 {
        let optical = deployed.forward(&sample_row(&view, i));
        for k in 0..2 {
            let s = soft.at2(i, k) as f64;
            assert!(
                (optical[k] - s).abs() < 1e-3,
                "sample {i} class {k}: optical {} vs software {s}",
                optical[k]
            );
        }
    }
}

#[test]
fn lenet_halved_hardware_accounting_counts_every_physical_mzi() {
    // The compiled V* kernels bake only the live light cone of each wide
    // mesh, but the hardware description is untouched: device counts,
    // per-chip depth/loss/latency and area still count every physical
    // MZI of the channel-halved LeNet body the benchmarks serve.
    use oplix_photonics::area::AreaModel;
    use oplix_photonics::count::DeviceCount;
    use oplix_photonics::decoder::DecoderKind;
    use oplix_photonics::svd_map::layer_mzi_count;
    use oplixnet::deploy::ChipReport;
    use oplixnet::spec::{lenet5_orig, lenet5_prop};
    use oplixnet::zoo::{build_lenet, LenetConfig, ModelVariant};

    let cfg = LenetConfig::training_scale(2, 16, 10).halved();
    let mut rng = StdRng::seed_from_u64(17);
    let net = build_lenet(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
    let deployed = oplixnet::deploy::DeployedFcnn::from_network_shaped(
        &net,
        Some((cfg.in_ch, cfg.input_h, cfg.input_w)),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("LeNet deploys");
    // 3×26, 6×76, 24×97, 16×25 and 20×17 meshes, each V* + Σ + U.
    let count = deployed.device_count();
    let closed_form: u64 = [(3, 26), (6, 76), (24, 97), (16, 25), (20, 17)]
        .iter()
        .map(|&(m, n)| layer_mzi_count(m, n))
        .sum();
    assert_eq!(count, DeviceCount::from_mzis(8937));
    assert_eq!(count.mzis, closed_form);
    assert_eq!(
        AreaModel::silicon_photonic_defaults().area_mm2(&count),
        134.055
    );

    let chip = |stage, optical, input_width, output_width, mesh_depth, loss, latency| ChipReport {
        stage,
        optical,
        input_width,
        output_width,
        mesh_depth,
        insertion_loss_db: loss,
        latency_ps: latency,
    };
    assert_eq!(
        deployed.chip_reports(),
        vec![
            chip(0, true, 256, 768, 29, 8.7, 116.0),
            chip(1, false, 768, 192, 0, 0.0, 0.0),
            chip(2, true, 192, 384, 82, 24.6, 328.0),
            chip(3, false, 384, 96, 0, 0.0, 0.0),
            chip(4, true, 96, 24, 121, 36.3, 484.0),
            chip(5, true, 24, 16, 41, 12.3, 164.0),
            chip(6, true, 16, 20, 37, 11.1, 148.0),
        ]
    );

    // The paper-scale Table II LeNet-5 counts behind the ~75% area cut.
    assert_eq!(lenet5_orig().mzis(), 115_418);
    assert_eq!(lenet5_prop().mzis(), 29_361);
}
