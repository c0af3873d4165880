//! Tolerance pins of the `Transfer` fidelity tier against the golden mesh
//! walk, which stays the reference:
//!
//! * over random FCNN and conv/avg-pool bodies, in both mesh styles, under
//!   all three detections and with the padded unitary-decoder stage,
//!   `Transfer` logits lie within 1e-9 of `Golden`'s, relative to the
//!   sample's largest golden logit, and the argmax agrees except where the
//!   golden top-2 gap is itself within that tolerance;
//! * the same holds after phase noise, after three drift steps, and after
//!   a noise or drift session drops — every phase change re-derives each
//!   stage's transfer matrix, and a dropped session restores it bitwise;
//! * the served shapes (the LeNet-halved body and the 64-32-10 FCNN) agree
//!   in both mesh styles.
//!
//! The CI matrix runs this binary under `OPLIX_JOBS ∈ {2, 7}`; nothing
//! here may depend on the worker budget.

use oplix_nn::ctensor::CTensor;
use oplix_nn::layers::{CAvgPool2d, CConv2d, CDense, CFlatten, CRelu, CSequential};
use oplix_nn::network::Network;
use oplix_nn::tensor::Tensor;
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplix_photonics::PhaseDrift;
use oplixnet::engine::{argmax, InferenceEngine};
use oplixnet::zoo::{build_fcnn, build_lenet, FcnnConfig, LenetConfig, ModelVariant};
use oplixnet::Fidelity;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest tolerated `|transfer − golden|`, relative to the sample's
/// largest golden logit magnitude.
const TOL: f64 = 1e-9;

/// Every network family, covering the three detections (differential,
/// intensity, coherent) and both decoder stages (linear, padded unitary).
const VARIANTS: [ModelVariant; 6] = [
    ModelVariant::Split(DecoderKind::Merge),
    ModelVariant::Split(DecoderKind::Linear),
    ModelVariant::Split(DecoderKind::Unitary),
    ModelVariant::Split(DecoderKind::Coherent),
    ModelVariant::ConventionalOnn,
    ModelVariant::Rvnn,
];

/// Image shape of the conv bodies.
const IMAGE: (usize, usize, usize) = (2, 6, 6);

/// A small FCNN, or a conv → ReLU → 2×2 average pool → dense body, under
/// `variant`'s head; returns it with the image shape a conv body deploys
/// against.
fn network(
    conv: bool,
    variant: ModelVariant,
    seed: u64,
) -> (Network, Option<(usize, usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = 3;
    if !conv {
        let cfg = FcnnConfig {
            input: 10,
            hidden: 8,
            classes,
        };
        return (build_fcnn(&cfg, variant, &mut rng), None);
    }
    let (c, h, w) = IMAGE;
    let (out_w, head) = variant.head(classes, &mut rng);
    let body = CSequential::new()
        .push(CConv2d::new(c, 3, 3, 1, 1, &mut rng))
        .push(CRelu::new())
        .push(CAvgPool2d::new(2))
        .push(CFlatten::new())
        .push(CDense::new(3 * (h / 2) * (w / 2), out_w, &mut rng));
    (Network::new(body, head), Some(IMAGE))
}

fn view(samples: usize, dims: &[usize], seed: u64) -> CTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape: Vec<usize> = std::iter::once(samples)
        .chain(dims.iter().copied())
        .collect();
    CTensor::new(
        Tensor::random_uniform(&shape, 1.0, &mut rng),
        Tensor::random_uniform(&shape, 1.0, &mut rng),
    )
}

/// Transfer-tier logits of `view`, leaving the engine at `Transfer`.
fn transfer_logits(engine: &mut InferenceEngine, view: &CTensor) -> Vec<Vec<f64>> {
    engine.set_fidelity(Fidelity::Transfer);
    engine.predict_batch(view).expect("transfer predict")
}

/// Panics unless every `Transfer` logit of `view` is within [`TOL`] of
/// its `Golden` twin and the classes agree outside near-ties. Leaves the
/// engine at `Transfer`.
fn assert_tiers_agree(engine: &mut InferenceEngine, view: &CTensor, what: &str) {
    engine.set_fidelity(Fidelity::Golden);
    let golden = engine.predict_batch(view).expect("golden predict");
    let transfer = transfer_logits(engine, view);
    for (s, (g, t)) in golden.iter().zip(&transfer).enumerate() {
        let scale = g.iter().fold(f64::MIN_POSITIVE, |a, x| a.max(x.abs()));
        for (k, (a, b)) in g.iter().zip(t).enumerate() {
            assert!(
                (a - b).abs() <= TOL * scale,
                "{what}: sample {s} logit {k}: golden {a:e}, transfer {b:e}"
            );
        }
        let (best, got) = (argmax(g), argmax(t));
        if best != got {
            let gap = g[best] - g[got];
            assert!(
                gap <= TOL * scale,
                "{what}: sample {s}: class {got} vs golden {best} at a gap of {gap:e}"
            );
        }
    }
}

/// Bit patterns of a logit table, so signed zeros count.
fn bits(logits: &[Vec<f64>]) -> Vec<u64> {
    logits.iter().flatten().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both tiers agree on fresh deployments, under phase noise, under
    /// drift, and once each session has dropped; dropping a session
    /// restores the clean transfer matrices bitwise.
    #[test]
    fn transfer_agrees_with_golden_through_phase_changes(
        conv in 0u8..2,
        reck in 0u8..2,
        pick in 0usize..VARIANTS.len(),
        seed in 0u64..u64::MAX,
    ) {
        let variant = VARIANTS[pick];
        let style = if reck == 0 { MeshStyle::Clements } else { MeshStyle::Reck };
        let (net, shape) = network(conv == 1, variant, seed);
        let mut engine =
            InferenceEngine::from_network_shaped(&net, shape, variant.detection(), style)
                .expect("deploys");
        prop_assert_eq!(engine.fidelity(), Fidelity::Transfer);
        let dims = match shape {
            Some((c, h, w)) => vec![c, h, w],
            None => vec![engine.input_dim()],
        };
        let x = view(12, &dims, seed ^ 0xF1DE);
        let case = format!("{variant:?} {style:?} conv={conv}");
        assert_tiers_agree(&mut engine, &x, &format!("{case} clean"));
        let clean = transfer_logits(&mut engine, &x);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0015E);
        {
            let mut noisy = engine.noise_session(0.05, &mut rng);
            assert_tiers_agree(&mut noisy, &x, &format!("{case} noise session"));
        }
        assert_tiers_agree(&mut engine, &x, &format!("{case} noise dropped"));
        prop_assert_eq!(bits(&transfer_logits(&mut engine, &x)), bits(&clean));

        {
            let mut drifting = engine.drift_session(PhaseDrift::new(0.05, seed));
            for _ in 0..3 {
                drifting.step();
            }
            assert_tiers_agree(&mut drifting, &x, &format!("{case} drift session"));
        }
        assert_tiers_agree(&mut engine, &x, &format!("{case} drift dropped"));
        prop_assert_eq!(bits(&transfer_logits(&mut engine, &x)), bits(&clean));

        let mut drift = PhaseDrift::new(0.05, seed.wrapping_add(1));
        for _ in 0..3 {
            engine.drift_step(&mut drift);
        }
        assert_tiers_agree(&mut engine, &x, &format!("{case} 3 drift steps"));
    }
}

#[test]
fn served_shapes_agree_across_tiers_in_both_styles() {
    // The benchmark's two models: the LeNet-halved body on 16×16 images
    // (conv 3×26, conv 6×76, dense 24×97, 16×25, 20×17) and the 64-32-10
    // FCNN (dense 32×65, 20×33), under the merge decoder.
    let variant = ModelVariant::Split(DecoderKind::Merge);
    let mut rng = StdRng::seed_from_u64(16);
    let lenet_cfg = LenetConfig::training_scale(2, 16, 10).halved();
    let lenet = build_lenet(&lenet_cfg, variant, &mut rng);
    let fcnn_cfg = FcnnConfig {
        input: 64,
        hidden: 32,
        classes: 10,
    };
    let fcnn = build_fcnn(&fcnn_cfg, variant, &mut rng);
    let shape = (lenet_cfg.in_ch, lenet_cfg.input_h, lenet_cfg.input_w);
    for style in [MeshStyle::Clements, MeshStyle::Reck] {
        for (name, net, shape, dims) in [
            (
                "lenet",
                &lenet,
                Some(shape),
                vec![shape.0, shape.1, shape.2],
            ),
            ("fcnn", &fcnn, None, vec![fcnn_cfg.input]),
        ] {
            let mut engine =
                InferenceEngine::from_network_shaped(net, shape, variant.detection(), style)
                    .expect("deploys");
            let x = view(16, &dims, 17);
            assert_tiers_agree(&mut engine, &x, &format!("{name} {style:?}"));
        }
    }
}
