//! Integration tests for the multi-model serving router
//! (`oplixnet::router`): per-model predictions must be bitwise identical
//! to a dedicated `Server` per model (and to direct `classify`), the EDF
//! queue must pop in scheduling order, already-expired deadlines must be
//! refused with the typed error, shutdown must drain
//! every admitted ticket across concurrent submitters and models, and two
//! models registered over identical weights must share one cached
//! deployment with a flat resident footprint. That a lane carves its
//! flushes out of a backlog in EDF order is pinned without wall-clock
//! timing by `lane::tests::edf_reorders_flushes_under_deadline_pressure`.
//!
//! The CI matrix runs this binary under `OPLIX_JOBS ∈ {1, 2, 7}`; nothing
//! here may depend on the worker budget (the router inherits the engine's
//! bitwise-at-any-worker-count contract, fair sharing included).
//!
//! Cache discipline (this binary's tests share one process): outside the
//! cache-sharing test, every unique set of weights is deployed exactly
//! once — engines are threaded through direct classify → dedicated
//! server → router via `Server::shutdown` / `Router::deregister`, so the
//! deploy cache's second-sight admission never inserts and the
//! cache-sharing test can assert a flat resident footprint concurrently.

use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::{digits, SynthConfig};
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::InferenceEngine;
use oplixnet::router::{EdfQueue, Priority, Router, RouterRequest, RouterTicket, Served};
use oplixnet::serve::{sample_row, Server};
use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
use oplixnet::{deploy_cache_stats, DeployedDetection, Error};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

fn engine(seed: u64, input: usize, hidden: usize) -> InferenceEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = build_fcnn(
        &FcnnConfig {
            input,
            hidden,
            classes: 10,
        },
        ModelVariant::Split(DecoderKind::Merge),
        &mut rng,
    );
    InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
        .expect("FCNN deploys")
}

/// ≥ 3 models behind one router must return bitwise-identical predictions
/// to a dedicated `Server` per model over the same request streams (and
/// both must match direct `classify`). One engine per model is threaded
/// through all three phases, so each weight set deploys exactly once.
#[test]
fn router_matches_dedicated_servers_bitwise() {
    const MODELS: usize = 3;
    const PER_MODEL: usize = 80;
    let test = test_view(MODELS * PER_MODEL, 70_001);
    let input = test.inputs.shape()[1];

    // Phase A: direct classify per model (the ground truth).
    let mut engines: Vec<InferenceEngine> = (0..MODELS)
        .map(|m| engine(70_010 + m as u64, input, 12 + 2 * m))
        .collect();
    let want: Vec<Vec<usize>> = engines
        .iter_mut()
        .enumerate()
        .map(|(m, e)| {
            let lo = m * PER_MODEL;
            (lo..lo + PER_MODEL)
                .map(|i| {
                    e.classify_rows(&sample_row(&test.inputs, i))
                        .expect("direct classify")[0]
                })
                .collect()
        })
        .collect();

    // Phase B: a dedicated FIFO server per model over the same engines.
    let mut via_server: Vec<Vec<usize>> = Vec::new();
    let drained: Vec<InferenceEngine> = std::mem::take(&mut engines);
    for (m, mut e) in drained.into_iter().enumerate() {
        e.reset_stats();
        let server = Server::builder()
            .max_batch(16)
            .max_wait(Duration::from_micros(200))
            .serve_engine(e);
        let client = server.client();
        let lo = m * PER_MODEL;
        let tickets: Vec<_> = (lo..lo + PER_MODEL)
            .map(|i| client.submit(sample_row(&test.inputs, i)).expect("admits"))
            .collect();
        via_server.push(
            tickets
                .into_iter()
                .map(|t| t.wait().expect("serves").class().expect("no policy"))
                .collect(),
        );
        engines.push(server.shutdown());
    }
    assert_eq!(via_server, want, "dedicated servers must match classify");

    // Phase C: one router over all three models (the engines that came
    // back out of the servers), concurrent submitter thread per model.
    let router = Router::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(200))
        .build();
    for (m, mut e) in engines.drain(..).enumerate() {
        e.reset_stats();
        router
            .register_engine(format!("model-{m}"), e)
            .expect("registers");
    }
    assert_eq!(router.models(), ["model-0", "model-1", "model-2"]);

    let via_router: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..MODELS)
            .map(|m| {
                let client = router.client();
                let test = &test;
                scope.spawn(move || {
                    let lo = m * PER_MODEL;
                    let tickets: Vec<RouterTicket> = (lo..lo + PER_MODEL)
                        .map(|i| {
                            client
                                .submit(RouterRequest::new(
                                    format!("model-{m}"),
                                    sample_row(&test.inputs, i),
                                ))
                                .expect("admits")
                        })
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| {
                            t.wait()
                                .expect("every ticket resolves")
                                .prediction
                                .class()
                                .expect("no confidence policy")
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    assert_eq!(
        via_router, want,
        "routed predictions must be bitwise the direct classify results"
    );

    // Observability: the one stats shape reports per model.
    let stats = router.stats();
    assert_eq!(stats.models.len(), MODELS);
    for (name, m) in &stats.models {
        assert_eq!(m.serve.submitted, PER_MODEL as u64, "{name}");
        assert_eq!(m.serve.served, PER_MODEL as u64, "{name}");
        assert_eq!(m.serve.queue_depth, 0, "{name}: all drained");
        assert!(
            m.serve.max_wait_observed > Duration::ZERO,
            "{name}: waits were recorded"
        );
        assert!(m.wait_p50 <= m.wait_p99, "{name}: quantiles are ordered");
        assert!(m.wait_p99 <= m.serve.max_wait_observed, "{name}");
        assert_eq!(m.deadline_missed, 0, "{name}: no deadlines were set");
        assert!(m.optical_stages >= 1, "{name}");
    }

    let engines = router.shutdown();
    assert_eq!(engines.len(), MODELS);
    for (name, e) in engines {
        assert_eq!(
            e.stats().samples,
            PER_MODEL as u64,
            "{name}: engine served exactly its lane's stream"
        );
    }
}

/// A request whose deadline has already passed is refused at admission
/// with the typed error, before it costs a queue slot or mesh cycles.
#[test]
fn expired_deadline_is_refused_at_admission() {
    let test = test_view(4, 70_201);
    let input = test.inputs.shape()[1];
    let router = Router::builder().build();
    router
        .register_engine("m", engine(70_200, input, 12))
        .expect("registers");
    let client = router.client();

    let expired = RouterRequest::new("m", sample_row(&test.inputs, 0))
        .deadline_at(Instant::now() - Duration::from_millis(5));
    match client.submit(expired) {
        Err(Error::DeadlineExceeded { missed_by }) => {
            assert!(missed_by >= Duration::from_millis(5));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The refusal is counted, admitted nothing, and live traffic still
    // flows.
    let ok = client
        .submit(
            RouterRequest::new("m", sample_row(&test.inputs, 1))
                .deadline_in(Duration::from_secs(60)),
        )
        .expect("a live deadline admits");
    assert!(ok.wait().is_ok());
    let stats = router.stats();
    let m = &stats.models["m"];
    assert_eq!(m.deadline_missed, 1);
    assert_eq!(
        m.serve.submitted, 1,
        "the expired request was never admitted"
    );
    assert_eq!(m.serve.served, 1);
}

/// Router shutdown must drain: every ticket admitted by concurrent
/// submitters across two models resolves exactly once, bitwise — zero
/// lost, zero duplicated — and racing submissions get typed refusals.
#[test]
fn shutdown_drains_across_models_with_concurrent_submitters() {
    const MODELS: usize = 2;
    const CLIENTS_PER_MODEL: usize = 4;
    const PER_CLIENT: usize = 25;
    const PER_MODEL: usize = CLIENTS_PER_MODEL * PER_CLIENT;
    let test = test_view(MODELS * PER_MODEL, 70_301);
    let input = test.inputs.shape()[1];

    let mut engines: Vec<InferenceEngine> = (0..MODELS)
        .map(|m| engine(70_310 + m as u64, input, 12 + 4 * m))
        .collect();
    let want: Vec<Vec<usize>> = engines
        .iter_mut()
        .enumerate()
        .map(|(m, e)| {
            let lo = m * PER_MODEL;
            (lo..lo + PER_MODEL)
                .map(|i| {
                    e.classify_rows(&sample_row(&test.inputs, i))
                        .expect("direct classify")[0]
                })
                .collect()
        })
        .collect();

    // Oversized batches and a far-off window: nothing flushes until the
    // shutdown drain, so every ticket is genuinely in flight.
    let router = Router::builder()
        .max_batch(2 * MODELS * PER_MODEL)
        .max_wait(Duration::from_secs(30))
        .queue_cap(MODELS * PER_MODEL)
        .build();
    for (m, mut e) in engines.into_iter().enumerate() {
        e.reset_stats();
        router
            .register_engine(format!("model-{m}"), e)
            .expect("registers");
    }

    let tickets: Mutex<Vec<(usize, RouterTicket)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for m in 0..MODELS {
            for c in 0..CLIENTS_PER_MODEL {
                let client = router.client();
                let test = &test;
                let tickets = &tickets;
                scope.spawn(move || {
                    let lo = m * PER_MODEL + c * PER_CLIENT;
                    for i in lo..lo + PER_CLIENT {
                        let t = client
                            .submit(RouterRequest::new(
                                format!("model-{m}"),
                                sample_row(&test.inputs, i),
                            ))
                            .expect("admits");
                        tickets.lock().expect("ticket list").push((i, t));
                    }
                });
            }
        }
    });

    let engines = router.shutdown();
    let mut resolved = 0usize;
    for (i, t) in tickets.into_inner().expect("ticket list") {
        let Served { prediction, .. } = t
            .wait()
            .unwrap_or_else(|e| panic!("ticket {i} lost on shutdown: {e}"));
        let m = i / PER_MODEL;
        assert_eq!(
            prediction.class().expect("no policy"),
            want[m][i - m * PER_MODEL],
            "ticket {i}: drained prediction differs"
        );
        resolved += 1;
    }
    assert_eq!(resolved, MODELS * PER_MODEL, "zero lost tickets");
    assert_eq!(engines.len(), MODELS);
    for (m, (name, e)) in engines.iter().enumerate() {
        assert_eq!(name, &format!("model-{m}"));
        assert_eq!(
            e.stats().samples,
            PER_MODEL as u64,
            "{name}: zero duplicated samples"
        );
    }
}

/// Two models registered over bitwise-identical weights must share one
/// cached deployment: registrations hit the cache, the resident footprint
/// stays flat, and the router reports the sharing.
#[test]
fn two_models_share_one_cached_deployment() {
    let test = test_view(8, 70_401);
    let input = test.inputs.shape()[1];
    let make_net = move || {
        let mut rng = StdRng::seed_from_u64(70_400);
        build_fcnn(
            &FcnnConfig {
                input,
                hidden: 16,
                classes: 10,
            },
            ModelVariant::Split(DecoderKind::Merge),
            &mut rng,
        )
    };
    // Prime the cache: second-sight admission inserts on the second
    // deployment of these exact weights.
    let net = make_net();
    let primed =
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("deploys");
    let _admit =
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("deploys");
    let stages = primed.deployed().num_stages() as u64;

    let before = deploy_cache_stats();
    let router = Router::builder().max_batch(8).build();
    router
        .register(
            "alpha",
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("registers from cache");
    router
        .register(
            "beta",
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("registers from cache");
    let after = deploy_cache_stats();

    assert!(
        after.hits >= before.hits + 2 * stages,
        "both registrations must be served from the cached deployment \
         (hits {} -> {}, needed +{})",
        before.hits,
        after.hits,
        2 * stages
    );
    assert_eq!(
        after.resident_bytes, before.resident_bytes,
        "cache hits must not grow the resident footprint"
    );

    // Both lanes work and the router reports the sharing.
    let client = router.client();
    let a: Vec<RouterTicket> = (0..8)
        .map(|i| {
            client
                .submit(RouterRequest::new("alpha", sample_row(&test.inputs, i)))
                .expect("admits")
        })
        .collect();
    let b: Vec<RouterTicket> = (0..8)
        .map(|i| {
            client
                .submit(RouterRequest::new("beta", sample_row(&test.inputs, i)))
                .expect("admits")
        })
        .collect();
    let got_a: Vec<usize> = a
        .into_iter()
        .map(|t| {
            t.wait()
                .expect("serves")
                .prediction
                .class()
                .expect("no policy")
        })
        .collect();
    let got_b: Vec<usize> = b
        .into_iter()
        .map(|t| {
            t.wait()
                .expect("serves")
                .prediction
                .class()
                .expect("no policy")
        })
        .collect();
    assert_eq!(got_a, got_b, "identical weights, identical predictions");

    let stats = router.stats();
    assert_eq!(stats.cache_shared_deployments, 2);
    assert!(stats.models["alpha"].cache_shared);
    assert!(stats.models["beta"].cache_shared);
}

/// The typed admission errors: unknown targets, duplicate names, and
/// deregistration handing the engine back (after which the name is free
/// again).
#[test]
fn admission_errors_are_typed_and_deregister_returns_the_engine() {
    let test = test_view(4, 70_501);
    let input = test.inputs.shape()[1];
    let router = Router::builder().build();
    router
        .register_engine("m", engine(70_500, input, 12))
        .expect("registers");

    // Unknown target.
    match router.submit(RouterRequest::new("ghost", sample_row(&test.inputs, 0))) {
        Err(Error::UnknownModel { model }) => assert_eq!(model, "ghost"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    // Duplicate name (second engine's weights differ; the name is the
    // conflict).
    match router.register_engine("m", engine(70_510, input, 12)) {
        Err(Error::DuplicateModel { model }) => assert_eq!(model, "m"),
        other => panic!("expected DuplicateModel, got {other:?}"),
    }
    // Wrong sample width.
    match router.submit(RouterRequest::new(
        "m",
        vec![oplix_linalg::Complex64::ONE; 3],
    )) {
        Err(Error::ShapeMismatch { got: 3, .. }) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // Serve one request, then deregister: the engine comes back with its
    // counters, and the name becomes unknown.
    let t = router
        .submit(RouterRequest::new("m", sample_row(&test.inputs, 0)))
        .expect("admits");
    assert!(t.wait().is_ok());
    let e = router.deregister("m").expect("engine comes back");
    assert_eq!(e.stats().samples, 1);
    assert!(matches!(
        router.deregister("m"),
        Err(Error::UnknownModel { .. })
    ));
    assert!(matches!(
        router.submit(RouterRequest::new("m", sample_row(&test.inputs, 1))),
        Err(Error::UnknownModel { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any mix of deadlines and priority classes, the EDF queue
    /// pops in exactly the documented order: earliest deadline first
    /// (deadline-less entries after every deadline), then priority
    /// class, then push order.
    #[test]
    fn edf_queue_pops_in_scheduling_order(
        entries in proptest::collection::vec(
            ((0u8..2), (0u64..40), (0u8..3)),
            1..=48,
        )
    ) {
        let base = Instant::now();
        let mut q = EdfQueue::new();
        let keys: Vec<(bool, u64, Priority)> = entries
            .iter()
            .map(|&(has_deadline, offset, prio)| {
                let priority = match prio {
                    0 => Priority::Interactive,
                    1 => Priority::Standard,
                    _ => Priority::Batch,
                };
                (has_deadline == 0, offset, priority)
            })
            .collect();
        for (i, &(has_deadline, offset, priority)) in keys.iter().enumerate() {
            let deadline =
                has_deadline.then(|| base + Duration::from_millis(offset));
            q.push(deadline, priority, base, i);
        }

        let popped: Vec<usize> =
            std::iter::from_fn(|| q.pop().map(|e| e.value)).collect();
        prop_assert_eq!(popped.len(), keys.len());
        // Scheduling key: deadline-less entries rank after every
        // deadline; ties break by priority, then by push order.
        let rank = |i: usize| {
            let (has_deadline, offset, priority) = keys[i];
            (!has_deadline, if has_deadline { offset } else { 0 }, priority)
        };
        for pair in popped.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            prop_assert!(
                rank(a) < rank(b) || (rank(a) == rank(b) && a < b),
                "pop order violated scheduling order: {:?} (idx {}) before {:?} (idx {})",
                rank(a), a, rank(b), b
            );
        }
    }
}

// The wake contract. Each lane below coalesces over a 30 s window and the
// tests assert completion well inside it, so a batcher that missed its
// wake-up fails the test instead of merely slowing it down.

/// The window that would otherwise hold a lone request open.
const LONG_WINDOW: Duration = Duration::from_secs(30);
/// How long a woken batcher may take, with a wide margin for CI noise.
const PROMPT: Duration = Duration::from_secs(5);

#[test]
fn deadline_inside_a_long_window_is_served_not_refused() {
    let test = test_view(2, 70_701);
    let input = test.inputs.shape()[1];
    let router = Router::builder().max_wait(LONG_WINDOW).build();
    router
        .register_engine("m", engine(70_700, input, 12))
        .expect("registers");
    let client = router.client();
    let start = Instant::now();
    // A deadline-less request opens the window; the tight one must cut it.
    let loose = client
        .submit(RouterRequest::new("m", sample_row(&test.inputs, 0)))
        .expect("admits");
    let tight = client
        .submit(
            RouterRequest::new("m", sample_row(&test.inputs, 1))
                .deadline_in(Duration::from_millis(50)),
        )
        .expect("admits");
    match tight.wait() {
        Ok(_) => {}
        Err(e) => panic!("a deadline inside the window must be served in time, got {e}"),
    }
    assert!(loose.wait().is_ok());
    assert!(
        start.elapsed() < PROMPT,
        "an in-window deadline must wake the coalescing batcher"
    );
    assert_eq!(router.stats().models["m"].deadline_missed, 0);
}

#[test]
fn swap_model_during_a_coalescing_window_applies_promptly() {
    let test = test_view(1, 70_711);
    let input = test.inputs.shape()[1];
    let router = Router::builder().max_wait(LONG_WINDOW).build();
    router
        .register_engine("m", engine(70_710, input, 12))
        .expect("registers");
    let start = Instant::now();
    let queued = router
        .submit(RouterRequest::new("m", sample_row(&test.inputs, 0)))
        .expect("admits");
    let mut rng = StdRng::seed_from_u64(70_712);
    let v2 = build_fcnn(
        &FcnnConfig {
            input,
            hidden: 12,
            classes: 10,
        },
        ModelVariant::Split(DecoderKind::Merge),
        &mut rng,
    );
    let swap = router
        .swap_model(
            "m",
            &v2,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("swap admits");
    assert!(swap.wait().expect("applies").is_applied());
    assert_eq!(queued.wait().expect("serves").version, 1);
    assert!(
        start.elapsed() < PROMPT,
        "a swap control must wake the coalescing lane"
    );
}
