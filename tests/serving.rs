//! Integration tests for the parallel serving core: sharded engine
//! batches must be bitwise identical to the sequential path across worker
//! counts (property-pinned across batch sizes spanning two and three
//! serving windows, for an FCNN and a deep conv body), streaming evaluation
//! must agree with one-shot evaluation, Arc-backed dataset views must not
//! alias mutations across grid arms, and repeated deployments must be
//! served from the decomposition cache.
//!
//! The CI matrix runs this binary under `OPLIX_JOBS ∈ {1, 2, 7}`; nothing
//! here may depend on the worker budget.

use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::{digits, SynthConfig};
use oplix_nn::ctensor::CTensor;
use oplix_nn::tensor::Tensor;
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::InferenceEngine;
use oplixnet::zoo::{build_fcnn, build_lenet, FcnnConfig, LenetConfig, ModelVariant};
use oplixnet::{deploy_cache_stats, DeployedDetection};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_view(samples: usize, seed: u64) -> oplix_nn::trainer::CDataset {
    let raw = digits(&SynthConfig {
        height: 8,
        width: 8,
        samples,
        seed,
        ..Default::default()
    });
    AssignmentKind::SpatialInterlace.apply_dataset_flat(&raw)
}

fn engine(seed: u64, input: usize) -> InferenceEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = build_fcnn(
        &FcnnConfig {
            input,
            hidden: 16,
            classes: 10,
        },
        ModelVariant::Split(DecoderKind::Merge),
        &mut rng,
    );
    InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
        .expect("FCNN deploys")
}

#[test]
fn sharded_engine_is_bitwise_identical_across_worker_counts() {
    let test = test_view(120, 3);
    let input = test.inputs.shape()[1];
    let mut sequential = engine(41, input);
    let want_logits = sequential.predict_batch(&test.inputs).expect("predict");
    let want_classes = sequential.classify(&test.inputs).expect("classify");

    for workers in [1usize, 2, 7] {
        let mut sharded = engine(41, input).with_num_workers(workers);
        assert_eq!(sharded.num_workers(), workers);
        let logits = sharded.predict_batch(&test.inputs).expect("predict");
        // Bitwise identity, not approximate agreement: each sample runs
        // the exact same field walk regardless of which worker serves it.
        assert_eq!(logits, want_logits, "{workers} workers: logits differ");
        let classes = sharded.classify(&test.inputs).expect("classify");
        assert_eq!(classes, want_classes, "{workers} workers: classes differ");
        let stats = sharded.stats();
        assert_eq!(stats.samples, 240, "{workers} workers: sample counter");
        assert_eq!(stats.batches, 2, "{workers} workers: batch counter");
    }
}

#[test]
fn streaming_accuracy_matches_one_shot_accuracy() {
    let test = test_view(100, 5);
    let input = test.inputs.shape()[1];
    let mut engine = engine(43, input).with_num_workers(2);
    let one_shot = engine.accuracy(&test).expect("one-shot accuracy");
    // Window sizes that do and do not divide the test set evenly.
    for window in [1usize, 7, 32, 100, 1000] {
        let streamed = engine
            .accuracy_streaming(&test, window)
            .expect("streamed accuracy");
        assert_eq!(streamed, one_shot, "window {window}");
    }
}

#[test]
fn classify_range_serves_bounded_windows() {
    let test = test_view(50, 7);
    let input = test.inputs.shape()[1];
    let mut engine = engine(47, input);
    let full = engine.classify(&test.inputs).expect("full batch");
    let windowed = engine.classify_range(&test.inputs, 10, 20).expect("window");
    assert_eq!(windowed, full[10..30].to_vec());
    // Overruns are typed errors, not panics — including windows whose end
    // would overflow usize.
    assert!(engine.classify_range(&test.inputs, 40, 20).is_err());
    assert!(engine.classify_range(&test.inputs, 1, usize::MAX).is_err());
}

#[test]
fn arc_backed_views_do_not_alias_mutations_across_grid_arms() {
    let base = test_view(30, 9);
    // A sweep clones the assigned view once per grid arm: the clones must
    // be reference bumps that detach on first write.
    let arm_a = base.clone();
    let mut arm_b = base.clone();
    assert!(
        base.inputs.shares_storage(&arm_a.inputs),
        "grid-arm clone must share storage (reference bump, not a copy)"
    );
    let before = base.inputs.re.at2(0, 0);
    arm_b.inputs.re.as_mut_slice()[0] = before + 42.0;
    assert_eq!(
        base.inputs.re.at2(0, 0),
        before,
        "mutating one grid arm must not leak into the base view"
    );
    assert_eq!(arm_a.inputs.re.at2(0, 0), before);
    assert_eq!(arm_b.inputs.re.at2(0, 0), before + 42.0);
    assert!(!base.inputs.shares_storage(&arm_b.inputs));
}

#[test]
fn every_entry_point_shares_one_compiled_kernel_bitwise() {
    use oplix_linalg::Complex64;

    let test = test_view(40, 13);
    let input = test.inputs.shape()[1];
    let mut engine = engine(59, input);

    // The batched tensor path is the reference.
    let want_logits = engine.predict_batch(&test.inputs).expect("predict_batch");
    let want_classes = engine.classify(&test.inputs).expect("classify");

    // Single-sample `predict` routes through the same windowed compiled
    // kernel: bitwise equality, not approximate agreement.
    let rows: Vec<Vec<Complex64>> = (0..40)
        .map(|i| oplixnet::serve::sample_row(&test.inputs, i))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let single = engine.predict(row).expect("predict");
        assert_eq!(single, want_logits[i], "sample {i}: predict differs");
    }

    // The borrowed-batch rows path (the serving front end's entry point)
    // is bitwise the tensor path too.
    let flat: Vec<Complex64> = rows.iter().flatten().copied().collect();
    assert_eq!(
        engine.classify_rows(&flat).expect("classify_rows"),
        want_classes
    );

    // Typed errors, not panics, on malformed row slices.
    assert!(matches!(
        engine.classify_rows(&flat[..input + 1]),
        Err(oplixnet::Error::ShapeMismatch { .. })
    ));
    assert!(matches!(
        engine.classify_rows(&[]),
        Err(oplixnet::Error::EmptyInput { .. })
    ));
}

/// A deep (≥ 4 deployed stage) conv body: training-scale LeNet-5,
/// channel-halved, on 8×8 single-channel image views.
fn lenet_engine(seed: u64) -> InferenceEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = LenetConfig::training_scale(2, 8, 10).halved();
    let net = build_lenet(&cfg, ModelVariant::Split(DecoderKind::Merge), &mut rng);
    InferenceEngine::from_network_shaped(
        &net,
        Some((cfg.in_ch, cfg.input_h, cfg.input_w)),
        DeployedDetection::Differential,
        MeshStyle::Clements,
    )
    .expect("LeNet deploys")
}

fn image_view(n: usize, c: usize, h: usize, w: usize, seed: u64) -> CTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    CTensor::new(
        Tensor::random_uniform(&[n, c, h, w], 1.0, &mut rng),
        Tensor::random_uniform(&[n, c, h, w], 1.0, &mut rng),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sharded staged walk is **bitwise identical** to the
    /// sequential one — same logits, same classes — across engine worker
    /// counts {1, 2, 7} and batch sizes spanning two and three 64-sample
    /// serving windows, for a two-stage FCNN and a deep LeNet conv body.
    /// The CI `serving` job re-runs this binary under
    /// `OPLIX_JOBS ∈ {1, 2, 7}`.
    #[test]
    fn sharded_walk_is_bitwise_identical_to_sequential_walk(
        samples in 97usize..=192,
        workers_ix in 0usize..3,
    ) {
        let workers = [1usize, 2, 7][workers_ix];

        // FCNN (two deployed stages: hidden + head).
        let test = test_view(samples, 23);
        let input = test.inputs.shape()[1];
        let want = engine(61, input)
            .predict_batch(&test.inputs)
            .expect("sequential FCNN");
        let got = engine(61, input)
            .with_num_workers(workers)
            .predict_batch(&test.inputs)
            .expect("sharded FCNN");
        prop_assert_eq!(&got, &want, "FCNN: {} workers, {} samples", workers, samples);

        // Deep conv body (conv-pool-conv-pool-fc-fc-fc).
        let view = image_view(samples, 1, 8, 8, 29);
        let want = lenet_engine(67).classify(&view).expect("sequential LeNet");
        let got = lenet_engine(67)
            .with_num_workers(workers)
            .classify(&view)
            .expect("sharded LeNet");
        prop_assert_eq!(got, want, "LeNet: {} workers, {} samples", workers, samples);
    }
}

#[test]
fn repeated_deployments_hit_the_decomposition_cache() {
    let test = test_view(20, 11);
    let input = test.inputs.shape()[1];
    let first = engine(53, input);
    let stages = first.deployed().num_stages() as u64;
    let _admit = engine(53, input); // second sight populates the cache
    let before = deploy_cache_stats();
    let second = engine(53, input); // identical weights: every stage hits
    let after = deploy_cache_stats();
    assert!(
        after.hits >= before.hits + stages,
        "repeat deployment must be served from the cache \
         (hits {} -> {}, needed +{stages})",
        before.hits,
        after.hits
    );
    // And the cached deployment serves the same classifications.
    let mut a = first;
    let mut b = second;
    assert_eq!(
        a.classify(&test.inputs).expect("first"),
        b.classify(&test.inputs).expect("second")
    );
}
