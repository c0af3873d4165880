//! Serving conformance matrix: every way a deployed model is served
//! answers bitwise what a direct engine of the serving version computes.
//!
//! The table crosses two models (the Merge FCNN and a channel-halved LeNet
//! body) with both fidelity tiers (`Transfer`, `Golden`) and six serving
//! paths: a [`Server`] at 1 and 2 workers, a [`Router`] lane, a lane
//! swapped away and back (serving as version 3), and a [`Server`] canary
//! at fraction 0.0 and 1.0 whose candidate is deployed from another seed.
//!
//! The probe needs no new API: every path serves under an always-abstain
//! [`Confidence`] policy (threshold 2.0 > any score), so each reply is
//! `Abstain { best, confidence }`, and `(best, confidence.to_bits())` must
//! equal [`Confidence::score`] over the `predict_batch` logits of a direct
//! engine of the version that served the reply. Versions are fixed by
//! construction (swaps are awaited, canary fractions are 0 or 1), and every
//! assertion waits on a ticket, never on the clock. The CI `serving` job
//! runs this binary under `OPLIX_JOBS ∈ {1, 2, 7}`.

use oplix_nn::ctensor::CTensor;
use oplix_nn::tensor::Tensor;
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::{Confidence, InferenceEngine};
use oplixnet::router::{Router, RouterRequest};
use oplixnet::serve::{sample_row, CanaryPolicy, Prediction, Server};
use oplixnet::zoo::{build_fcnn, build_lenet, FcnnConfig, LenetConfig, ModelVariant};
use oplixnet::{DeployedDetection, Fidelity};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const CLASSES: usize = 10;
/// Rows per cell: more than one 8-row lane chunk and more than one
/// `MAX_BATCH` flush, with a ragged tail.
const ROWS: usize = 37;
const MAX_BATCH: usize = 16;
/// The deployment every path starts on (version 1).
const BASE_SEED: u64 = 130_000;
/// The canary candidate and the router's swap target (version 2).
const OTHER_SEED: u64 = 130_001;

/// Score ≤ 1 < threshold: every reply abstains and carries its score.
const PROBE: Confidence = Confidence {
    threshold: 2.0,
    top_k: CLASSES,
};

#[derive(Clone, Copy, Debug)]
enum Model {
    Fcnn,
    Lenet,
}

#[derive(Clone, Copy, Debug)]
enum Path {
    Server { workers: usize },
    RouterLane,
    RouterSwappedBack,
    Canary { fraction: f64 },
}

const MODELS: [Model; 2] = [Model::Fcnn, Model::Lenet];
const FIDELITIES: [Fidelity; 2] = [Fidelity::Transfer, Fidelity::Golden];
const PATHS: [Path; 6] = [
    Path::Server { workers: 1 },
    Path::Server { workers: 2 },
    Path::RouterLane,
    Path::RouterSwappedBack,
    Path::Canary { fraction: 0.0 },
    Path::Canary { fraction: 1.0 },
];

const FCNN: FcnnConfig = FcnnConfig {
    input: 12,
    hidden: 10,
    classes: CLASSES,
};

fn lenet_config() -> LenetConfig {
    LenetConfig::training_scale(2, 8, CLASSES).halved()
}

fn deploy(model: Model, seed: u64, fidelity: Fidelity) -> InferenceEngine {
    let variant = ModelVariant::Split(DecoderKind::Merge);
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = match model {
        Model::Fcnn => {
            let net = build_fcnn(&FCNN, variant, &mut rng);
            InferenceEngine::from_network(
                &net,
                DeployedDetection::Differential,
                MeshStyle::Clements,
            )
        }
        Model::Lenet => {
            let cfg = lenet_config();
            let net = build_lenet(&cfg, variant, &mut rng);
            InferenceEngine::from_network_shaped(
                &net,
                Some((cfg.in_ch, cfg.input_h, cfg.input_w)),
                DeployedDetection::Differential,
                MeshStyle::Clements,
            )
        }
    };
    engine.expect("deploys").with_fidelity(fidelity)
}

fn inputs(model: Model, seed: u64) -> CTensor {
    let shape: Vec<usize> = match model {
        Model::Fcnn => vec![ROWS, FCNN.input],
        Model::Lenet => {
            let cfg = lenet_config();
            vec![ROWS, cfg.in_ch, cfg.input_h, cfg.input_w]
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    CTensor::new(
        Tensor::random_uniform(&shape, 1.0, &mut rng),
        Tensor::random_uniform(&shape, 1.0, &mut rng),
    )
}

/// `(best, score bits)` per row from a direct engine of one deployment.
fn reference(model: Model, seed: u64, fidelity: Fidelity, x: &CTensor) -> Vec<(usize, u64)> {
    deploy(model, seed, fidelity)
        .predict_batch(x)
        .expect("direct predict")
        .iter()
        .map(|logits| {
            let (best, score) = PROBE.score(logits);
            (best, score.to_bits())
        })
        .collect()
}

fn probe_bits(prediction: Prediction) -> (usize, u64) {
    match prediction {
        Prediction::Abstain { best, confidence } => (best, confidence.to_bits()),
        Prediction::Class(c) => panic!("the probe policy abstains on every sample, got Class({c})"),
    }
}

/// Serves every row of `x` down `path`; one `(version, best, score bits)`
/// per row, in row order.
fn serve(path: Path, model: Model, fidelity: Fidelity, x: &CTensor) -> Vec<(u64, usize, u64)> {
    let rows = || (0..ROWS).map(|i| sample_row(x, i));
    match path {
        Path::Server { .. } | Path::Canary { .. } => {
            let builder = Server::builder()
                .max_batch(MAX_BATCH)
                .max_wait(Duration::from_micros(200))
                .confidence(PROBE);
            let builder = match path {
                Path::Server { workers } => builder.workers(workers),
                _ => builder,
            };
            let server = builder.serve_engine(deploy(model, BASE_SEED, fidelity));
            if let Path::Canary { fraction } = path {
                let policy = CanaryPolicy {
                    fraction,
                    confidence: Some(PROBE),
                    seed: 17,
                };
                server
                    .canary(deploy(model, OTHER_SEED, fidelity), policy)
                    .expect("canary stages");
            }
            let client = server.client();
            let tickets: Vec<_> = rows().map(|r| client.submit(r).expect("admits")).collect();
            let served = tickets
                .into_iter()
                .map(|t| {
                    let version = t.version();
                    let (best, bits) = probe_bits(t.wait().expect("serves"));
                    (version, best, bits)
                })
                .collect();
            let _ = server.shutdown();
            served
        }
        Path::RouterLane | Path::RouterSwappedBack => {
            let router = Router::builder()
                .max_batch(MAX_BATCH)
                .max_wait(Duration::from_micros(200))
                .confidence(PROBE)
                .build();
            router
                .register_engine("m", deploy(model, BASE_SEED, fidelity))
                .expect("registers");
            if let Path::RouterSwappedBack = path {
                for seed in [OTHER_SEED, BASE_SEED] {
                    let swap = router
                        .swap_model_engine("m", deploy(model, seed, fidelity))
                        .expect("swap admits");
                    assert!(swap.wait().expect("swap settles").is_applied());
                }
            }
            let client = router.client();
            let tickets: Vec<_> = rows()
                .map(|r| client.submit(RouterRequest::new("m", r)).expect("admits"))
                .collect();
            let served = tickets
                .into_iter()
                .map(|t| {
                    let served = t.wait().expect("serves");
                    let (best, bits) = probe_bits(served.prediction);
                    (served.version, best, bits)
                })
                .collect();
            let _ = router.shutdown();
            served
        }
    }
}

/// The version every reply of `path` must carry, and the seed of the
/// deployment serving it.
fn expected(path: Path) -> (u64, u64) {
    match path {
        Path::Server { .. } | Path::RouterLane | Path::Canary { fraction: 0.0 } => (1, BASE_SEED),
        Path::Canary { .. } => (2, OTHER_SEED),
        Path::RouterSwappedBack => (3, BASE_SEED),
    }
}

#[test]
fn every_serving_path_is_bitwise_the_direct_engine_of_its_version() {
    for (m, &model) in MODELS.iter().enumerate() {
        let x = inputs(model, 131_000 + m as u64);
        for &fidelity in &FIDELITIES {
            let base = reference(model, BASE_SEED, fidelity, &x);
            let other = reference(model, OTHER_SEED, fidelity, &x);
            assert_ne!(
                base, other,
                "{model:?}/{fidelity:?}: the two deployments must be distinguishable"
            );
            for &path in &PATHS {
                let (version, seed) = expected(path);
                let want = if seed == BASE_SEED { &base } else { &other };
                let got = serve(path, model, fidelity, &x);
                assert_eq!(got.len(), ROWS);
                for (row, (&(v, best, bits), &(want_best, want_bits))) in
                    got.iter().zip(want.iter()).enumerate()
                {
                    assert_eq!(
                        v, version,
                        "{model:?}/{fidelity:?}/{path:?}: row {row} served by the wrong version"
                    );
                    assert_eq!(
                        (best, bits),
                        (want_best, want_bits),
                        "{model:?}/{fidelity:?}/{path:?}: row {row} differs from the direct engine"
                    );
                }
            }
        }
    }
}
