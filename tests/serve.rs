//! Integration tests for the concurrent serving front end
//! (`oplixnet::serve`): N concurrent clients through the request-queue →
//! micro-batcher → sharded-engine path must get results bitwise identical
//! to direct `classify` calls, the queue bound must surface as
//! backpressure, shutdown must drain every admitted ticket, concurrent
//! servers over one set of weights must share one cached deployment, and
//! confidence abstentions must be calibrated against the direct logits.
//!
//! The CI matrix runs this binary under `OPLIX_JOBS ∈ {1, 2, 7}`; nothing
//! here may depend on the worker budget (the serving layer's bitwise
//! contract holds at any budget).

use oplix_datasets::assign::AssignmentKind;
use oplix_datasets::synth::{digits, SynthConfig};
use oplix_photonics::decoder::DecoderKind;
use oplix_photonics::svd_map::MeshStyle;
use oplixnet::engine::{Confidence, InferenceEngine};
use oplixnet::serve::{sample_row, Prediction, Server, Ticket};
use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
use oplixnet::{deploy_cache_stats, DeployedDetection, Error};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Duration;

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

/// Each test deploys any given set of weights exactly once (the engine
/// used for the direct reference is the one moved into the server), so
/// the deployment cache's second-sight admission inserts nothing — which
/// is what lets the cache-sharing test assert a flat resident footprint.
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
fn stress_concurrent_clients_are_bitwise_direct_classify() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 125; // 1000 requests total
    let test = test_view(CLIENTS * PER_CLIENT, 60_001);
    let input = test.inputs.shape()[1];

    // Direct reference on the same engine that will serve the queue, so
    // these weights are deployed exactly once.
    let mut direct = engine(60_000, input);
    let want = direct.classify(&test.inputs).expect("direct classify");
    direct.reset_stats();

    let server = Server::builder()
        .max_batch(64)
        .max_wait(Duration::from_micros(200))
        .queue_cap(512)
        .workers(0) // shared `--jobs` budget, whatever the CI matrix sets
        .serve_engine(direct);

    let got: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                let test = &test;
                scope.spawn(move || {
                    let lo = c * PER_CLIENT;
                    let tickets: Vec<Ticket> = (lo..lo + PER_CLIENT)
                        .map(|i| client.submit(sample_row(&test.inputs, i)).expect("admits"))
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
            "client {c}: served predictions must be bitwise the direct classify results"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(
        stats.served,
        (CLIENTS * PER_CLIENT) as u64,
        "no lost tickets"
    );
    assert_eq!(stats.batched_samples, (CLIENTS * PER_CLIENT) as u64);
    assert!(
        stats.batches < stats.submitted,
        "concurrent submissions must coalesce into micro-batches \
         ({} batches for {} requests)",
        stats.batches,
        stats.submitted
    );
    assert_eq!(
        stats.queue_depth, 0,
        "every ticket was waited on, so nothing is left in flight"
    );
    assert!(
        stats.max_wait_observed > Duration::ZERO,
        "queued requests wait a measurable time before their flush"
    );
    let engine_back = server.shutdown();
    assert_eq!(engine_back.stats().samples, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn bounded_queue_backpressure_surfaces_as_queue_full() {
    let test = test_view(64, 60_011);
    let input = test.inputs.shape()[1];
    // A one-slot queue and one-sample batches: while the batcher serves a
    // request, at most one more fits in the queue, so a rapid submitter
    // must observe backpressure.
    let server = Server::builder()
        .max_batch(1)
        .max_wait(Duration::ZERO)
        .queue_cap(1)
        .serve_engine(engine(60_010, input));
    let client = server.client();

    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    let mut attempts = 0usize;
    while rejected == 0 && attempts < 100_000 {
        attempts += 1;
        match client.try_submit(sample_row(&test.inputs, attempts % 64)) {
            Ok(t) => tickets.push(t),
            Err(Error::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "a 1-slot queue outpaced by submissions must reject at least once \
         in {attempts} attempts"
    );
    assert!(server.stats().rejected >= 1);
    // Backpressure sheds load; it must not lose admitted work.
    for t in tickets {
        assert!(t.wait().is_ok(), "admitted tickets still resolve");
    }
}

#[test]
fn shutdown_drains_every_admitted_ticket_under_concurrency() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 50;
    let test = test_view(CLIENTS * PER_CLIENT, 60_021);
    let input = test.inputs.shape()[1];
    let mut direct = engine(60_020, input);
    let want = direct.classify(&test.inputs).expect("direct classify");
    direct.reset_stats();

    // A far-off flush deadline and an oversized batch: nothing is served
    // until shutdown forces the drain, so every ticket is genuinely
    // in flight when `shutdown` is called.
    let server = Server::builder()
        .max_batch(2 * CLIENTS * PER_CLIENT)
        .max_wait(Duration::from_secs(30))
        .queue_cap(CLIENTS * PER_CLIENT)
        .serve_engine(direct);

    let tickets: Mutex<Vec<(usize, Ticket)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = server.client();
            let test = &test;
            let tickets = &tickets;
            scope.spawn(move || {
                let lo = c * PER_CLIENT;
                for i in lo..lo + PER_CLIENT {
                    let t = client.submit(sample_row(&test.inputs, i)).expect("admits");
                    tickets.lock().expect("ticket list").push((i, t));
                }
            });
        }
    });

    // All 400 submitted, none waited on: the whole load is in flight.
    assert_eq!(
        server.stats().queue_depth,
        (CLIENTS * PER_CLIENT) as u64,
        "queue depth counts every admitted-but-unserved request"
    );

    // Shut down now. The drain contract says every admitted ticket
    // still resolves — bitwise.
    let engine_back = server.shutdown();
    let mut resolved = 0usize;
    for (i, t) in tickets.into_inner().expect("ticket list") {
        let got = t
            .wait()
            .unwrap_or_else(|e| panic!("ticket {i} lost on shutdown: {e}"))
            .class()
            .expect("no confidence policy");
        assert_eq!(got, want[i], "ticket {i}: drained prediction differs");
        resolved += 1;
    }
    assert_eq!(resolved, CLIENTS * PER_CLIENT, "zero lost tickets");
    assert_eq!(engine_back.stats().samples, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn concurrent_servers_share_one_cached_deployment() {
    let test = test_view(8, 60_031);
    let input = test.inputs.shape()[1];
    // `Network` is not `Sync`, so each thread rebuilds its own copy from
    // the same seed: the weights are bitwise identical, which is exactly
    // what the bit-exact cache key matches on.
    let make_net = move || {
        let mut rng = StdRng::seed_from_u64(60_030);
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
    let stages = {
        // Prime the cache: second-sight admission inserts on the second
        // deployment of these exact weights.
        let net = make_net();
        let first = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys");
        let _admit = InferenceEngine::from_network(
            &net,
            DeployedDetection::Differential,
            MeshStyle::Clements,
        )
        .expect("deploys");
        first.deployed().num_stages() as u64
    };

    let before = deploy_cache_stats();
    let spans: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let test = &test;
                scope.spawn(move || {
                    let net = make_net();
                    let server = Server::builder()
                        .serve_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
                        .expect("deploys from cache");
                    let client = server.client();
                    let tickets: Vec<Ticket> = (0..8)
                        .map(|i| client.submit(sample_row(&test.inputs, i)).expect("admits"))
                        .collect();
                    let mut served = 0usize;
                    for t in tickets {
                        t.wait().expect("serves");
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("server thread"))
            .collect()
    });
    let after = deploy_cache_stats();
    assert_eq!(spans, vec![8, 8]);
    assert!(
        after.hits >= before.hits + 2 * stages,
        "both servers must be served from the cached deployment \
         (hits {} -> {}, needed +{})",
        before.hits,
        after.hits,
        2 * stages
    );
    assert_eq!(
        after.resident_bytes, before.resident_bytes,
        "cache hits must not grow the resident footprint"
    );
    assert_eq!(after.entries, before.entries);
}

#[test]
fn confidence_abstentions_are_calibrated_against_direct_logits() {
    let test = test_view(120, 60_041);
    let input = test.inputs.shape()[1];
    let policy = Confidence {
        threshold: 0.62,
        top_k: 2,
    };

    let mut direct = engine(60_040, input);
    let logits = direct.predict_batch(&test.inputs).expect("direct logits");
    let expected: Vec<Prediction> = logits
        .iter()
        .map(|row| {
            let (best, score) = policy.score(row);
            if score >= policy.threshold {
                Prediction::Class(best)
            } else {
                Prediction::Abstain {
                    best,
                    confidence: score,
                }
            }
        })
        .collect();
    let expected_abstained = expected.iter().filter(|p| p.is_abstain()).count();

    // The streaming evaluation path reports the same calibrated counts.
    let report = direct
        .accuracy_streaming_with(&test, 32, Some(policy))
        .expect("streaming with confidence");
    assert_eq!(report.samples, 120);
    assert_eq!(report.abstained, expected_abstained);
    assert_eq!(report.accepted + report.abstained, report.samples);
    assert!((report.coverage() - report.accepted as f64 / 120.0).abs() < 1e-15);

    // The serving path returns the same per-sample verdicts and counts.
    let server = Server::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(200))
        .confidence(policy)
        .serve_engine(direct);
    let client = server.client();
    let tickets: Vec<Ticket> = (0..120)
        .map(|i| client.submit(sample_row(&test.inputs, i)).expect("admits"))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(
            t.wait().expect("serves"),
            expected[i],
            "sample {i}: served verdict differs from the direct logits"
        );
    }
    assert_eq!(server.stats().abstained, expected_abstained as u64);
}

// The wake contract. Each test below runs with a 30 s coalescing window
// and asserts completion well inside it, so a batcher that missed its
// wake-up fails the test instead of merely slowing it down.

/// The window that would otherwise hold a lone request open.
const LONG_WINDOW: Duration = Duration::from_secs(30);
/// How long a woken batcher may take, with a wide margin for CI noise.
const PROMPT: Duration = Duration::from_secs(5);

#[test]
fn filling_max_batch_flushes_without_waiting_out_the_window() {
    let test = test_view(4, 60_101);
    let input = test.inputs.shape()[1];
    let start = std::time::Instant::now();
    let server = Server::builder()
        .max_batch(4)
        .max_wait(LONG_WINDOW)
        .serve_engine(engine(60_100, input));
    let client = server.client();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| client.submit(sample_row(&test.inputs, i)).expect("admits"))
        .collect();
    for t in tickets {
        t.wait().expect("serves");
    }
    assert!(
        start.elapsed() < PROMPT,
        "the fourth admission fills the batch and must wake the batcher"
    );
}

#[test]
fn swap_during_a_coalescing_window_applies_promptly() {
    let test = test_view(1, 60_111);
    let input = test.inputs.shape()[1];
    let mut v1 = engine(60_110, input);
    let want = v1.classify(&test.inputs).expect("direct classify")[0];
    let start = std::time::Instant::now();
    let server = Server::builder().max_wait(LONG_WINDOW).serve_engine(v1);
    let client = server.client();
    let queued = client.submit(sample_row(&test.inputs, 0)).expect("admits");
    let swap = server.swap(engine(60_112, input)).expect("swap admits");
    assert!(swap.wait().expect("applies").is_applied());
    assert_eq!(queued.version(), 1);
    assert_eq!(
        queued.wait().expect("serves").class(),
        Some(want),
        "the request admitted before the swap is served by v1"
    );
    assert!(
        start.elapsed() < PROMPT,
        "a control message must wake a coalescing batcher"
    );
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    let server = Server::builder()
        .max_wait(LONG_WINDOW)
        .serve_engine(engine(60_120, 64));
    let start = std::time::Instant::now();
    let engine_back = server.shutdown();
    assert_eq!(engine_back.stats().samples, 0);
    assert!(
        start.elapsed() < PROMPT,
        "shutdown must wake an idle batcher"
    );
}
