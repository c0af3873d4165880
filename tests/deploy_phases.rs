//! Bitwise pin of every deployed hardware parameter.
//!
//! Deployment maps each weight matrix through `W = U Σ V*` onto two MZI
//! meshes and an attenuator column (`PhotonicLayer::from_matrix`). The
//! Jacobi SVD, the unitary completion and the Clements/Reck nulling all
//! promise to be bitwise stable, so this test hashes every θ, φ, output
//! phase, attenuation and gain they produce for the shapes the pipelines
//! deploy and for the structured inputs where the signs of exact zeros
//! decide a phase. Any kernel change that moves a single bit fails here.

use oplix_datasets::synth::{digits, SynthConfig};
use oplix_linalg::{CMatrix, Complex64};
use oplix_nn::layers::CDense;
use oplix_nn::network::Network;
use oplix_photonics::mesh::MziMesh;
use oplix_photonics::svd_map::{MeshStyle, PhotonicLayer};
use oplixnet::experiments::TrainSetup;
use oplixnet::pipeline::OplixNetBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words: stable across toolchains, unlike `Hasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn mesh(&mut self, mesh: &MziMesh) {
        self.word(mesh.n() as u64);
        for mzi in mesh.mzis() {
            self.word(mzi.mode as u64);
            self.word(mzi.theta.to_bits());
            self.word(mzi.phi.to_bits());
        }
        for p in mesh.output_phases() {
            self.word(p.to_bits());
        }
    }

    fn layer(&mut self, w: &CMatrix, style: MeshStyle) {
        let layer = PhotonicLayer::from_matrix(w, style);
        self.mesh(layer.v_mesh());
        for a in layer.attenuators() {
            self.word(a.coefficient.to_bits());
        }
        self.word(layer.gain().to_bits());
        self.mesh(layer.u_mesh());
    }
}

/// Seeded weights rounded through `f32`, as trained weights are.
fn random_weights(m: usize, n: usize, seed: u64) -> CMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    CMatrix::from_fn(m, n, |_, _| {
        let re = rng.gen_range(-0.5f32..0.5);
        let im = rng.gen_range(-0.5f32..0.5);
        Complex64::new(f64::from(re), f64::from(im))
    })
}

/// The `[W | b]` matrices deployment maps, one per dense layer of the
/// body, in order.
fn dense_matrices(net: &Network) -> Vec<CMatrix> {
    net.body()
        .layers()
        .iter()
        .filter_map(|layer| layer.as_any()?.downcast_ref::<CDense>())
        .map(|dense| {
            let (w_re, w_im) = dense.weight();
            let (b_re, b_im) = dense.bias();
            let (m, n) = (dense.n_out(), dense.n_in());
            CMatrix::from_fn(m, n + 1, |i, j| {
                if j < n {
                    Complex64::new(f64::from(w_re.at2(i, j)), f64::from(w_im.at2(i, j)))
                } else {
                    Complex64::new(f64::from(b_re.as_slice()[i]), f64::from(b_im.as_slice()[i]))
                }
            })
        })
        .collect()
}

/// The FCNN the `train-fcnn` pipeline trains at `OplixNetBuilder`
/// defaults (16×16 digits, hidden 32, Merge decoder): its two dense
/// layers deploy as 32×129 and 20×33.
fn trained_default_fcnn() -> Network {
    let train = SynthConfig {
        samples: 120,
        noise: 0.5,
        seed: 11,
        ..Default::default()
    };
    let test = SynthConfig {
        samples: 60,
        seed: 12,
        ..train
    };
    OplixNetBuilder::new()
        .train_setup(TrainSetup {
            epochs: 2,
            batch: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        })
        .seed(7)
        .build(&digits(&train), &digits(&test))
        .run()
        .expect("the default pipeline runs")
        .network
}

fn structured_inputs() -> Vec<CMatrix> {
    let identity = CMatrix::identity(6);
    let permutation = CMatrix::from_fn(7, 7, |i, j| {
        if (i + 3) % 7 == j {
            Complex64::ONE
        } else {
            Complex64::ZERO
        }
    });
    let mut zero_column = random_weights(5, 9, 31);
    for i in 0..5 {
        zero_column[(i, 4)] = Complex64::ZERO;
    }
    let tall = random_weights(11, 4, 32);
    vec![identity, permutation, zero_column, tall]
}

#[test]
fn deployed_phases_are_pinned() {
    let mut pins = Vec::new();

    let trained = dense_matrices(&trained_default_fcnn());
    let shapes: Vec<_> = trained.iter().map(|w| (w.rows(), w.cols())).collect();
    assert_eq!(shapes, vec![(32, 129), (20, 33)], "train-fcnn layer shapes");
    let mut h = Fnv::new();
    for w in &trained {
        h.layer(w, MeshStyle::Clements);
    }
    pins.push(("train-fcnn default pipeline", h.0));

    let mut h = Fnv::new();
    for (k, &(m, n)) in [(32, 65), (20, 33)].iter().enumerate() {
        h.layer(&random_weights(m, n, 100 + k as u64), MeshStyle::Clements);
    }
    pins.push(("perfbench FCNN", h.0));

    let mut h = Fnv::new();
    for (k, &(m, n)) in [(3, 26), (6, 76)].iter().enumerate() {
        h.layer(&random_weights(m, n, 200 + k as u64), MeshStyle::Clements);
    }
    pins.push(("LeNet conv shapes", h.0));

    let mut h = Fnv::new();
    for w in &trained {
        h.layer(w, MeshStyle::Reck);
    }
    pins.push(("Reck FCNN", h.0));

    let mut h = Fnv::new();
    for w in &structured_inputs() {
        h.layer(w, MeshStyle::Clements);
        h.layer(w, MeshStyle::Reck);
    }
    pins.push(("structured inputs", h.0));

    let expected = [
        ("train-fcnn default pipeline", 0xf585_9482_9074_37f9u64),
        ("perfbench FCNN", 0xca1c_cbef_e3e2_c2ef),
        ("LeNet conv shapes", 0xc2fb_f5b6_5059_d565),
        ("Reck FCNN", 0x0d31_7c7e_1fb4_dcab),
        ("structured inputs", 0x6995_e9c8_116f_464e),
    ];
    let got: Vec<String> = pins
        .iter()
        .map(|(name, hash)| format!("{name}: {hash:#018x}"))
        .collect();
    let want: Vec<String> = expected
        .iter()
        .map(|(name, hash)| format!("{name}: {hash:#018x}"))
        .collect();
    assert_eq!(got, want);
}
