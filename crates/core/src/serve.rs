//! Concurrent serving front end: request queue → micro-batcher → sharded
//! engine.
//!
//! The compiled kernel layer made per-window inference cheap, but a bare
//! [`InferenceEngine`] still serves one blocking `classify` call at a
//! time — one caller owns the whole engine. This module decouples
//! *request submission* from *batch formation* so many concurrent clients
//! share one engine at full batch occupancy:
//!
//! ```text
//!  Client ─submit()─▶ ┌──────────────┐    ┌───────────────┐
//!  Client ─submit()─▶ │ bounded MPSC │ ─▶ │ micro-batcher │ ─▶ sharded
//!  Client ─submit()─▶ │    queue     │    │ (max_batch /  │    engine
//!        ⋮            └──────────────┘    │   max_wait)   │    workers
//!   Ticket::wait() ◀── per-request reply ─└───────────────┘
//! ```
//!
//! * A [`Server`] owns a deployed model (its [`InferenceEngine`]) and a
//!   **bounded** request queue; the queue bound is the backpressure
//!   contract — [`Client::submit`] blocks while the queue is full and
//!   [`Client::try_submit`] returns [`Error::QueueFull`] instead.
//! * A dedicated **batcher thread** drains the queue into micro-batches,
//!   flushing on whichever comes first: the batch reaching
//!   [`ServerBuilder::max_batch`] samples, or the oldest queued request
//!   having waited [`ServerBuilder::max_wait`] since its admission.
//!   Between drains it sleeps; only the admission that starts or fills a
//!   batch, a version change or shutdown wakes it early, so an idle or
//!   coalescing server costs no CPU. Each flush stages the samples into
//!   one contiguous buffer and drives the engine's borrowed-batch entry
//!   point ([`InferenceEngine::classify_rows`]' generic form) — no
//!   per-request tensor copies. The batcher holds a
//!   [`crate::pool::ServiceSlot`], so its thread draws from the shared
//!   `--jobs` budget like every other worker in the process.
//! * The queue, batcher, version gate and counters are one *lane* of the
//!   serving runtime that also runs every model of a
//!   [`crate::router::Router`]: a server is that lane with no deadlines,
//!   one priority class (so its [`crate::router::EdfQueue`] flushes in
//!   admission order) and no fair-share hook (so the engine keeps the
//!   worker count it was given). Both front ends therefore coalesce,
//!   swap and count by one set of rules.
//! * Clients hold a cheap, cloneable [`Client`] handle. `submit` returns
//!   a [`Ticket`] immediately; [`Ticket::wait`] / [`Ticket::try_wait`]
//!   resolve to the [`Prediction`] once the batch containing the sample
//!   has been served. Results are **bitwise identical** to calling
//!   [`InferenceEngine::classify`] directly, regardless of how requests
//!   were coalesced into batches — every sample runs the exact same
//!   compiled windowed kernel.
//! * [`Server::shutdown`] **drains**: every request admitted to the queue
//!   before shutdown is served and its ticket resolves; a submission
//!   racing shutdown resolves to [`Error::ServerClosed`] instead of
//!   hanging. No ticket is ever lost or answered twice.
//! * An optional [`Confidence`] policy turns low-confidence samples into
//!   [`Prediction::Abstain`] responses, with a calibrated abstention
//!   count in [`ServerStats`].
//!
//! # Versioned serving: hot swap, canary, drift
//!
//! A live server is *versioned*: it starts serving deployment **v1**, and
//! [`Server::swap`] moves it to new weights with zero downtime. The new
//! engine is deployed first (double buffering — v1 keeps serving while v2
//! decomposes through the cached SVD path), then the switch is a **version
//! barrier**: every admission stamps its ticket with the serving version
//! under a read lock, and the swap publishes a control message into the
//! same FIFO queue under the write lock — so the queue order *is* the
//! version order. The batcher flushes everything admitted before the
//! barrier against v1, applies the switch at that micro-batch boundary,
//! and serves everything after against v2. No ticket is lost, duplicated,
//! or served by a version other than the one stamped at admission.
//!
//! [`Server::canary`] stages a candidate *alongside* the current version
//! instead of replacing it: a seeded, deterministic fraction of admissions
//! routes to the candidate, per-version accept/abstain/correct tallies
//! accumulate in [`CanaryStats`] through the existing [`Confidence`]
//! machinery, and [`Server::promote`] / [`Server::rollback`] settle which
//! version keeps the lane. [`ServerBuilder::drift`] closes the loop with
//! the online-recalibration scenario: a [`PhaseDrift`] random walk takes
//! one step on the live meshes after each served batch (a version change
//! that ends the cycle applies first, then the step), and periodic hot
//! swaps to freshly calibrated deployments restore accuracy without
//! dropping traffic.
//!
//! Everything is plain threads and channels — no async runtime, matching
//! the workspace's std-only stance.

use crate::engine::{Confidence, InferenceEngine, StageStats};
use crate::error::Error;
use crate::lane::{relock, CanaryCounters, Control, Lane, Policy, Reply};
use crate::router::Priority;
use oplix_linalg::Complex64;
use oplix_nn::ctensor::CTensor;
use oplix_nn::network::Network;
use oplix_photonics::svd_map::MeshStyle;
use oplix_photonics::PhaseDrift;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use crate::deploy::DeployedDetection;

/// The response a served request resolves to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Prediction {
    /// The predicted class index.
    Class(usize),
    /// The sample's confidence fell below the server's [`Confidence`]
    /// policy; the prediction is withheld but reported for calibration.
    Abstain {
        /// The class the engine would have predicted.
        best: usize,
        /// The (sub-threshold) confidence score.
        confidence: f64,
    },
}

impl Prediction {
    /// The predicted class, or `None` on an abstention.
    pub fn class(&self) -> Option<usize> {
        match *self {
            Prediction::Class(c) => Some(c),
            Prediction::Abstain { .. } => None,
        }
    }

    /// Whether the server abstained on this sample.
    pub fn is_abstain(&self) -> bool {
        matches!(self, Prediction::Abstain { .. })
    }
}

/// Per-version serving tallies of a canary run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VersionTally {
    /// The version these tallies belong to.
    pub version: u64,
    /// Admissions the seeded split routed to this version.
    pub routed: u64,
    /// Requests of this version actually served so far.
    pub served: u64,
    /// Served requests that resolved to a [`Prediction::Class`].
    pub accepted: u64,
    /// Served requests that resolved to [`Prediction::Abstain`] under
    /// the effective confidence policy.
    pub abstained: u64,
    /// Served requests that carried a ground-truth label
    /// (see [`Client::submit_labeled`]).
    pub labeled: u64,
    /// Labeled requests whose delivered prediction matched the label
    /// (an abstention never counts as correct).
    pub correct: u64,
}

impl VersionTally {
    /// Online accuracy over labeled traffic: `correct / labeled`
    /// (zero before any labeled request was served).
    pub fn accuracy(&self) -> f64 {
        if self.labeled == 0 {
            0.0
        } else {
            self.correct as f64 / self.labeled as f64
        }
    }
}

/// A snapshot of a canary run's split parameters and per-version tallies;
/// see [`Server::canary_stats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CanaryStats {
    /// The admission fraction routed to the candidate.
    pub fraction: f64,
    /// The seed of the deterministic admission split.
    pub seed: u64,
    /// Tallies of the baseline (current) version.
    pub baseline: VersionTally,
    /// Tallies of the candidate version.
    pub candidate: VersionTally,
}

/// How a canary routes and judges traffic; see [`Server::canary`].
///
/// `fraction` of admissions (a seeded, deterministic split — replaying
/// the same seed reproduces the exact partition) route to the candidate
/// version; the rest stay on the baseline. While the canary is live, an
/// optional `confidence` policy overrides the server's own for *all*
/// admissions, so the per-version accept/abstain tallies compare
/// apples-to-apples.
///
/// ```
/// use oplixnet::serve::{CanaryPolicy, Server};
/// use oplixnet::engine::{Confidence, InferenceEngine};
/// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
/// use oplix_photonics::decoder::DecoderKind;
/// use oplix_photonics::svd_map::MeshStyle;
/// use oplix_linalg::Complex64;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let variant = ModelVariant::Split(DecoderKind::Merge);
/// let cfg = FcnnConfig { input: 4, hidden: 4, classes: 2 };
/// let mut rng = StdRng::seed_from_u64(5);
/// let v1 = build_fcnn(&cfg, variant, &mut rng);
/// let v2 = build_fcnn(&cfg, variant, &mut rng);
///
/// let server = Server::builder()
///     .serve_network(&v1, variant.detection(), MeshStyle::Clements)
///     .expect("v1 deploys");
/// let candidate = InferenceEngine::from_network(&v2, variant.detection(), MeshStyle::Clements)
///     .expect("v2 deploys");
///
/// // Route 30% of admissions to v2, judging both sides under one policy.
/// let policy = CanaryPolicy {
///     fraction: 0.3,
///     confidence: Some(Confidence { threshold: 0.3, top_k: 2 }),
///     seed: 42,
/// };
/// server.canary(candidate, policy).expect("canary stages");
///
/// let client = server.client();
/// let tickets: Vec<_> = (0..40)
///     .map(|_| client.submit_labeled(vec![Complex64::ONE; 4], 0).expect("admits"))
///     .collect();
/// let candidates = tickets.iter().filter(|t| t.version() == 2).count();
/// for t in tickets { t.wait().expect("serves"); }
///
/// let stats = server.canary_stats().expect("canary ran");
/// assert_eq!(stats.candidate.routed, candidates as u64);
/// assert_eq!(stats.baseline.served + stats.candidate.served, 40);
///
/// // The tallies say which version keeps the lane.
/// let keep_v2 = stats.candidate.accuracy() >= stats.baseline.accuracy();
/// let outcome = if keep_v2 { server.promote() } else { server.rollback() };
/// outcome.expect("decision lands").wait().expect("applies");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CanaryPolicy {
    /// Fraction of admissions routed to the candidate (clamped to
    /// `[0, 1]` at [`Server::canary`] time).
    pub fraction: f64,
    /// Confidence policy judging *both* versions while the canary is
    /// live; `None` keeps the server's own policy.
    pub confidence: Option<Confidence>,
    /// Seed of the deterministic admission split.
    pub seed: u64,
}

impl Default for CanaryPolicy {
    /// 10% of traffic to the candidate, the server's own confidence
    /// policy, seed 0.
    fn default() -> Self {
        CanaryPolicy {
            fraction: 0.1,
            confidence: None,
            seed: 0,
        }
    }
}

/// How a version change settled; see [`SwapTicket::wait`].
#[derive(Debug)]
pub enum SwapOutcome {
    /// The change applied at a micro-batch boundary.
    Applied {
        /// The engine taken out of service — the old current on a swap
        /// or promote, the candidate on a rollback. Its serving counters
        /// ride along, so retired versions remain auditable.
        retired: InferenceEngine,
        /// The version serving after the change.
        version: u64,
    },
    /// The server (or lane) began draining before the swap could apply;
    /// the replacement engine comes back instead of taking the lane.
    /// Requests that were already admitted against the replacement's
    /// version were still served by it during the drain.
    Aborted {
        /// The engine that was to be installed.
        replacement: InferenceEngine,
    },
}

impl SwapOutcome {
    /// Whether the change applied (as opposed to aborting in a drain).
    pub fn is_applied(&self) -> bool {
        matches!(self, SwapOutcome::Applied { .. })
    }

    /// The engine the outcome carries, either way: the retired engine of
    /// an applied change or the never-installed replacement of an
    /// aborted one.
    pub fn into_engine(self) -> InferenceEngine {
        match self {
            SwapOutcome::Applied { retired, .. } => retired,
            SwapOutcome::Aborted { replacement } => replacement,
        }
    }
}

/// A pending version change. Resolves once the batcher applies the
/// change at a micro-batch boundary (or aborts it during a drain) — like
/// a request [`Ticket`], it never hangs.
#[derive(Debug)]
pub struct SwapTicket {
    pub(crate) rx: mpsc::Receiver<Result<SwapOutcome, Error>>,
}

impl SwapTicket {
    /// Blocks until the version change settles.
    ///
    /// # Errors
    ///
    /// [`Error::ServerClosed`] if the server shut down before the
    /// decision could settle (promote/rollback controls reaching a
    /// draining batcher report this way; an undrained swap resolves to
    /// [`SwapOutcome::Aborted`] instead, so its engine is never lost).
    pub fn wait(self) -> Result<SwapOutcome, Error> {
        self.rx.recv().unwrap_or(Err(Error::ServerClosed))
    }

    /// Non-blocking poll: `None` while the change is still queued.
    pub fn try_wait(&self) -> Option<Result<SwapOutcome, Error>> {
        match self.rx.try_recv() {
            Ok(done) => Some(done),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(Error::ServerClosed)),
        }
    }
}

/// A snapshot of a [`Server`]'s counters. The router tier reports its
/// per-model lanes through this same shape (see
/// [`crate::router::ModelStats`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// [`Client::try_submit`] calls bounced by a full queue.
    pub rejected: u64,
    /// Responses delivered (predictions, abstentions and per-sample
    /// errors alike).
    pub served: u64,
    /// Responses that were abstentions under the confidence policy.
    pub abstained: u64,
    /// Micro-batches flushed through the engine.
    pub batches: u64,
    /// Total samples across all flushed batches.
    pub batched_samples: u64,
    /// Requests admitted but not yet answered at snapshot time — the
    /// live queue depth (queued plus in-flight), the quantity the router
    /// tier weighs fair shares by. A request counts from the moment its
    /// send starts, so a sender blocked on a full queue is included.
    pub queue_depth: u64,
    /// The deployment version new admissions are stamped with (1 at
    /// launch; each applied swap or promote increments it).
    pub version: u64,
    /// Version changes applied so far (hot swaps and canary promotes).
    pub swaps: u64,
    /// The longest admission-to-flush wait any request has observed.
    pub max_wait_observed: Duration,
    /// Per-stage chip reports (mesh depth, insertion loss, latency) and
    /// occupancy (windows and busy time each stage spent serving) for
    /// the serving engine, one entry per deployed stage, as of the last
    /// served flush (see [`InferenceEngine::stage_stats`]). Empty before
    /// the first flush.
    pub stage_stats: Vec<StageStats>,
}

impl ServerStats {
    /// Mean samples per flushed micro-batch — the occupancy the batcher
    /// achieved (1.0 means no coalescing happened at all).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_samples as f64 / self.batches as f64
        }
    }
}

/// Configures and launches a [`Server`]; see [`Server::builder`].
#[derive(Clone, Debug)]
pub struct ServerBuilder {
    policy: Policy,
    queue_cap: usize,
    workers: Option<usize>,
    drift: Option<PhaseDrift>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            policy: Policy::default(),
            queue_cap: 1024,
            workers: None,
            drift: None,
        }
    }
}

impl ServerBuilder {
    /// Flush a micro-batch once it holds this many samples (clamped to
    /// ≥ 1; default 64, one engine serving window).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.policy.max_batch = n.max(1);
        self
    }

    /// Flush a micro-batch once its oldest request has waited this long
    /// (default 1 ms; clamped to ≤ 1 h so deadlines never overflow).
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.policy.max_wait = d.min(Duration::from_secs(3600));
        self
    }

    /// Bound of the admission queue (clamped to ≥ 1; default 1024).
    /// [`Client::submit`] blocks while the queue holds this many pending
    /// requests; [`Client::try_submit`] returns [`Error::QueueFull`].
    /// The batcher takes requests off the queue only while it holds
    /// fewer than `max(queue_cap, max_batch)`, so at most that many more
    /// are admitted but unanswered.
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n.max(1);
        self
    }

    /// Worker count of the backing engine (see
    /// [`InferenceEngine::set_num_workers`]; `0` = the shared
    /// [`crate::pool::jobs`] budget). When unset, the engine keeps
    /// whatever worker count it was built with.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Installs an early-exit [`Confidence`] policy: low-confidence
    /// samples resolve to [`Prediction::Abstain`] and are counted in
    /// [`ServerStats::abstained`].
    pub fn confidence(mut self, c: Confidence) -> Self {
        self.policy.confidence = Some(c);
        self
    }

    /// Serves under continuous phase drift: the batcher applies one
    /// random-walk step of `drift` to every live engine (current and any
    /// staged candidate — they share the physical substrate) after each
    /// batch it serves, so every batch sees one chip state. Accuracy then
    /// degrades as drift accumulates; a hot swap to a freshly calibrated
    /// deployment ([`Server::swap`]) is the recalibration that restores
    /// it.
    pub fn drift(mut self, drift: PhaseDrift) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Launches the server over an existing engine (the engine comes
    /// back out of [`Server::shutdown`], serving counters included).
    pub fn serve_engine(self, mut engine: InferenceEngine) -> Server {
        if let Some(w) = self.workers {
            engine.set_num_workers(w);
        }
        // No fair-share hook: the engine keeps the worker count set above.
        let lane = Lane::spawn(
            "oplix-serve".into(),
            engine,
            self.policy,
            self.queue_cap,
            self.drift,
            None,
        );
        Server {
            lane: Arc::new(lane),
            last_canary: Mutex::new(None),
        }
    }

    /// Deploys a trained network (through the process-wide deployment
    /// cache — repeated servers over the same weights share one cached
    /// decomposition) and launches the server over it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Deploy`] if the network cannot be mapped onto an
    /// FCNN photonic pipeline.
    pub fn serve_network(
        self,
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<Server, Error> {
        Ok(self.serve_engine(InferenceEngine::from_network(net, detection, style)?))
    }
}

/// A concurrent serving front end over one deployed model: a bounded
/// request queue drained by a micro-batcher thread into the sharded
/// [`InferenceEngine`]. See the [module docs](crate::serve) for the
/// queue → batcher → shards dataflow and the backpressure/shutdown
/// contract.
///
/// ```
/// use oplixnet::serve::{Prediction, Server};
/// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
/// use oplix_photonics::decoder::DecoderKind;
/// use oplix_photonics::svd_map::MeshStyle;
/// use oplix_linalg::Complex64;
/// use rand::{rngs::StdRng, SeedableRng};
/// use std::time::Duration;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let variant = ModelVariant::Split(DecoderKind::Merge);
/// let net = build_fcnn(&FcnnConfig { input: 6, hidden: 5, classes: 2 }, variant, &mut rng);
/// let server = Server::builder()
///     .max_batch(16)
///     .max_wait(Duration::from_micros(200))
///     .queue_cap(64)
///     .serve_network(&net, variant.detection(), MeshStyle::Clements)
///     .expect("FCNN deploys");
///
/// let client = server.client();
/// let ticket = client.submit(vec![Complex64::ONE; 6]).expect("queue admits");
/// assert!(matches!(ticket.wait(), Ok(Prediction::Class(_))));
///
/// let engine = server.shutdown(); // drains, then hands the engine back
/// assert_eq!(engine.stats().samples, 1);
/// ```
pub struct Server {
    /// The one lane this server is a facade over.
    lane: Arc<Lane>,
    /// The live (or most recent) canary accumulator, for
    /// [`Server::canary_stats`].
    last_canary: Mutex<Option<Arc<CanaryCounters>>>,
}

impl Server {
    /// Starts configuring a server; launch it with
    /// [`ServerBuilder::serve_engine`] or [`ServerBuilder::serve_network`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// A new cloneable client handle onto this server's queue.
    pub fn client(&self) -> Client {
        Client {
            lane: Arc::clone(&self.lane),
        }
    }

    /// The complex fan-in every submitted sample must have.
    pub fn input_dim(&self) -> usize {
        self.lane.input_dim
    }

    /// The deployment version new admissions are stamped with.
    pub fn version(&self) -> u64 {
        self.lane.gate.version()
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.lane.stats()
    }

    /// Hot-swaps the server to a new deployment with zero downtime. The
    /// candidate was deployed *before* this call (double buffering — v1
    /// keeps serving while v2's SVD decompositions run, warm through the
    /// deploy cache); the swap itself is a version barrier: admissions
    /// stamped with the old version are all flushed against the old
    /// engine, the batcher switches at that micro-batch boundary, and
    /// every later admission serves against the candidate. No ticket is
    /// lost, duplicated, or served by a version other than the one it was
    /// admitted under.
    ///
    /// Returns a [`SwapTicket`]; [`SwapTicket::wait`] resolves to
    /// [`SwapOutcome::Applied`] carrying the retired engine once the
    /// switch lands (or [`SwapOutcome::Aborted`] carrying the candidate
    /// back if the server began draining first — an engine is never
    /// silently dropped).
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if the candidate's input width differs
    /// from the serving geometry, [`Error::CanaryActive`] while a canary
    /// is staged (settle it with [`Server::promote`] /
    /// [`Server::rollback`] first; the candidate engine is dropped on
    /// this error), [`Error::ServerClosed`] after shutdown.
    ///
    /// ```
    /// use oplixnet::serve::{Server, SwapOutcome};
    /// use oplixnet::engine::InferenceEngine;
    /// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    /// use oplix_photonics::decoder::DecoderKind;
    /// use oplix_photonics::svd_map::MeshStyle;
    /// use oplix_linalg::Complex64;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let variant = ModelVariant::Split(DecoderKind::Merge);
    /// let cfg = FcnnConfig { input: 4, hidden: 4, classes: 2 };
    /// let mut rng = StdRng::seed_from_u64(4);
    /// let v1 = build_fcnn(&cfg, variant, &mut rng);
    /// let v2 = build_fcnn(&cfg, variant, &mut rng);
    ///
    /// let server = Server::builder()
    ///     .serve_network(&v1, variant.detection(), MeshStyle::Clements)
    ///     .expect("v1 deploys");
    /// let client = server.client();
    /// let before = client.submit(vec![Complex64::ONE; 4]).expect("admits");
    /// assert_eq!(before.version(), 1);
    ///
    /// // Deploy v2 while v1 keeps serving, then switch atomically.
    /// let candidate = InferenceEngine::from_network(&v2, variant.detection(), MeshStyle::Clements)
    ///     .expect("v2 deploys");
    /// let swap = server.swap(candidate).expect("swap admits");
    /// match swap.wait().expect("applies") {
    ///     SwapOutcome::Applied { retired, version } => {
    ///         assert_eq!(version, 2);
    ///         // v1 comes back out, its serving counters intact.
    ///         assert_eq!(retired.input_dim(), 4);
    ///     }
    ///     SwapOutcome::Aborted { .. } => unreachable!("server is live"),
    /// }
    ///
    /// let after = client.submit(vec![Complex64::ONE; 4]).expect("admits");
    /// assert_eq!(after.version(), 2);
    /// assert!(before.wait().is_ok() && after.wait().is_ok());
    /// ```
    pub fn swap(&self, engine: InferenceEngine) -> Result<SwapTicket, Error> {
        self.lane.swap(engine)
    }

    /// [`Server::swap`] from a trained network: deploys it through the
    /// process-wide cache (v1 keeps serving during the decomposition),
    /// then swaps.
    ///
    /// # Errors
    ///
    /// [`Error::Deploy`] if the network cannot be deployed, plus the
    /// [`Server::swap`] conditions.
    pub fn swap_network(
        &self,
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<SwapTicket, Error> {
        self.swap(InferenceEngine::from_network(net, detection, style)?)
    }

    /// Stages `engine` as a canary candidate per `policy`: from this call
    /// on, a seeded `policy.fraction` share of admissions is stamped with
    /// the candidate's version and served by it, while per-version
    /// tallies accumulate in [`Server::canary_stats`]. Settle the run
    /// with [`Server::promote`] or [`Server::rollback`]. See
    /// [`CanaryPolicy`] for a walkthrough.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] on a geometry mismatch,
    /// [`Error::CanaryActive`] if a canary is already staged (the
    /// candidate is dropped on this error), [`Error::ServerClosed`] after
    /// shutdown.
    pub fn canary(&self, engine: InferenceEngine, policy: CanaryPolicy) -> Result<(), Error> {
        self.lane
            .check_width(engine.input_dim(), "candidate input width")?;
        let fraction = policy.fraction.clamp(0.0, 1.0);
        self.lane.gate.barrier(|state| {
            if state.canary.is_some() {
                return Err(Error::CanaryActive);
            }
            let version = state.current + 1;
            let tallies = Arc::new(CanaryCounters::new(
                state.current,
                version,
                fraction,
                policy.seed,
            ));
            self.lane.send_control(Control::Canary {
                engine: Box::new(engine),
                confidence: policy.confidence,
                tallies: Arc::clone(&tallies),
            })?;
            state.canary = Some(Arc::clone(&tallies));
            *relock(self.last_canary.lock()) = Some(tallies);
            Ok(())
        })
    }

    /// [`Server::canary`] from a trained network (deployed through the
    /// process-wide cache while the baseline keeps serving).
    ///
    /// # Errors
    ///
    /// [`Error::Deploy`] if the network cannot be deployed, plus the
    /// [`Server::canary`] conditions.
    pub fn canary_network(
        &self,
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
        policy: CanaryPolicy,
    ) -> Result<(), Error> {
        self.canary(
            InferenceEngine::from_network(net, detection, style)?,
            policy,
        )
    }

    /// Ends the canary in the candidate's favor: new admissions all stamp
    /// the candidate's version, and at the batcher's next micro-batch
    /// boundary the baseline retires (it comes back through the returned
    /// [`SwapTicket`] as [`SwapOutcome::Applied`]). Canary tallies freeze
    /// at the boundary; requests admitted during the canary but served
    /// after the decision no longer tally.
    ///
    /// # Errors
    ///
    /// [`Error::NoCanary`] if no canary is live, [`Error::ServerClosed`]
    /// after shutdown.
    pub fn promote(&self) -> Result<SwapTicket, Error> {
        self.decide_canary(true)
    }

    /// Ends the canary in the baseline's favor: the candidate stops
    /// receiving admissions immediately and comes back through the
    /// returned [`SwapTicket`] (as the `retired` engine of an applied
    /// rollback) at the next micro-batch boundary.
    ///
    /// # Errors
    ///
    /// [`Error::NoCanary`] if no canary is live, [`Error::ServerClosed`]
    /// after shutdown.
    pub fn rollback(&self) -> Result<SwapTicket, Error> {
        self.decide_canary(false)
    }

    fn decide_canary(&self, promote: bool) -> Result<SwapTicket, Error> {
        self.lane.gate.barrier(|state| {
            let Some(canary) = state.canary.take() else {
                return Err(Error::NoCanary);
            };
            let (reply, rx) = mpsc::channel();
            // A failed send means the batcher is gone; the canary split
            // is already cleared either way.
            let control = Control::Settle { promote, reply };
            self.lane.send_control(control)?;
            if promote {
                state.current = canary.candidate.version;
            }
            Ok(SwapTicket { rx })
        })
    }

    /// Tallies of the live canary run, or the most recent one if it has
    /// been settled; `None` before the first [`Server::canary`].
    pub fn canary_stats(&self) -> Option<CanaryStats> {
        relock(self.last_canary.lock())
            .as_ref()
            .map(|t| t.snapshot())
    }

    /// Shuts the server down and returns its engine: admission closes,
    /// every request already in the queue is served (their tickets
    /// resolve normally), and the batcher thread exits. Submissions
    /// racing the shutdown resolve to [`Error::ServerClosed`]; none hang.
    pub fn shutdown(self) -> InferenceEngine {
        self.lane
            .shutdown()
            .expect("first shutdown of a live server")
    }
}

impl Drop for Server {
    /// Dropping the handle shuts the server down (draining, like
    /// [`Server::shutdown`]) and discards the engine.
    fn drop(&mut self) {
        let _ = self.lane.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("input_dim", &self.lane.input_dim)
            .field("queue_cap", &self.lane.queue_cap)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A cheap, cloneable handle for submitting samples to a [`Server`].
/// Clones share the server's bounded queue; each clone can submit from
/// its own thread.
///
/// ```
/// use oplixnet::serve::Server;
/// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
/// use oplix_photonics::decoder::DecoderKind;
/// use oplix_photonics::svd_map::MeshStyle;
/// use oplix_linalg::Complex64;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let variant = ModelVariant::Split(DecoderKind::Merge);
/// let net = build_fcnn(&FcnnConfig { input: 4, hidden: 4, classes: 2 }, variant, &mut rng);
/// let server = Server::builder()
///     .serve_network(&net, variant.detection(), MeshStyle::Clements)
///     .expect("FCNN deploys");
///
/// // Submission is non-blocking (while the queue has room) and returns
/// // a ticket immediately; clones are independent handles.
/// let client = server.client();
/// let other = client.clone();
/// let a = client.submit(vec![Complex64::ONE; 4]).expect("admits");
/// let b = other.submit(vec![Complex64::i(); 4]).expect("admits");
/// assert!(a.wait().is_ok() && b.wait().is_ok());
/// ```
#[derive(Clone)]
pub struct Client {
    lane: Arc<Lane>,
}

impl Client {
    /// The complex fan-in every submitted sample must have.
    pub fn input_dim(&self) -> usize {
        self.lane.input_dim
    }

    fn submit_inner(
        &self,
        fields: Vec<Complex64>,
        label: Option<usize>,
        blocking: bool,
    ) -> Result<Ticket, Error> {
        self.lane.check_width(fields.len(), "sample width")?;
        let (version, reply) =
            self.lane
                .admit(fields, label, None, Priority::default(), blocking)?;
        Ok(Ticket { reply, version })
    }

    /// Submits one sample, blocking while the queue is at capacity
    /// (backpressure). Returns a [`Ticket`] that resolves once the
    /// micro-batch containing the sample has been served.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the sample width differs from
    /// [`Client::input_dim`], and [`Error::ServerClosed`] if the server
    /// has shut down.
    pub fn submit(&self, fields: Vec<Complex64>) -> Result<Ticket, Error> {
        self.submit_inner(fields, None, true)
    }

    /// [`Client::submit`] with a ground-truth label riding along: if a
    /// canary is live when the sample is served, its version's
    /// [`VersionTally::labeled`] / [`VersionTally::correct`] tallies
    /// update, giving the promote/rollback decision an online accuracy
    /// signal. Without a canary the label is accounting-only.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_labeled(&self, fields: Vec<Complex64>, label: usize) -> Result<Ticket, Error> {
        self.submit_inner(fields, Some(label), true)
    }

    /// Non-blocking [`Client::submit`]: a full queue surfaces as
    /// [`Error::QueueFull`] instead of blocking, so latency-sensitive
    /// callers can shed load.
    ///
    /// # Errors
    ///
    /// [`Error::QueueFull`] on backpressure, plus the
    /// [`Client::submit`] conditions.
    pub fn try_submit(&self, fields: Vec<Complex64>) -> Result<Ticket, Error> {
        self.submit_inner(fields, None, false)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("input_dim", &self.lane.input_dim)
            .field("queue_cap", &self.lane.queue_cap)
            .finish()
    }
}

/// A pending response to one submitted sample. [`Ticket::wait`] blocks
/// until the micro-batch containing the sample has been served;
/// [`Ticket::try_wait`] polls.
///
/// ```
/// use oplixnet::serve::{Prediction, Server};
/// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
/// use oplix_photonics::decoder::DecoderKind;
/// use oplix_photonics::svd_map::MeshStyle;
/// use oplix_linalg::Complex64;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let variant = ModelVariant::Split(DecoderKind::Merge);
/// let net = build_fcnn(&FcnnConfig { input: 4, hidden: 4, classes: 2 }, variant, &mut rng);
/// let server = Server::builder()
///     .serve_network(&net, variant.detection(), MeshStyle::Clements)
///     .expect("FCNN deploys");
///
/// let mut ticket = server.client().submit(vec![Complex64::ONE; 4]).expect("admits");
/// // Poll until the batcher flushes, then read the prediction.
/// let prediction = loop {
///     if let Some(done) = ticket.try_wait() {
///         break done.expect("sample is finite");
///     }
///     std::thread::yield_now();
/// };
/// assert!(matches!(prediction, Prediction::Class(_)));
/// ```
#[derive(Debug)]
pub struct Ticket {
    reply: Reply,
    version: u64,
}

impl Ticket {
    /// The deployment version this request was admitted under — the
    /// version whose engine serves it, no matter how many swaps land
    /// while it queues.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Blocks until the sample's micro-batch has been served and returns
    /// the prediction. A server that shut down without serving the
    /// request (a submission racing [`Server::shutdown`]) surfaces as
    /// [`Error::ServerClosed`] — tickets never hang.
    ///
    /// # Errors
    ///
    /// [`Error::NonFiniteLogits`] if the sample poisoned detection,
    /// [`Error::ServerClosed`] as above.
    pub fn wait(self) -> Result<Prediction, Error> {
        self.reply.wait().map(|served| served.prediction)
    }

    /// Non-blocking poll: `None` while the sample is still queued or in
    /// flight, `Some(result)` once served (repeat calls keep returning
    /// the same result).
    pub fn try_wait(&mut self) -> Option<Result<Prediction, Error>> {
        self.reply
            .try_wait()
            .map(|done| done.map(|served| served.prediction))
    }
}

/// Converts sample `row` of a complex view — flat `[N, D]` or image
/// `[N, C, H, W]` (CNN workloads) — into the staged sample a
/// [`Client::submit`] call expects — the exact conversion the engine's
/// tensor paths apply, so a submitted row is bitwise the sample
/// [`InferenceEngine::classify`] would have served.
pub fn sample_row(inputs: &CTensor, row: usize) -> Vec<Complex64> {
    let d: usize = inputs.shape()[1..].iter().product();
    let (re, im) = (inputs.re.as_slice(), inputs.im.as_slice());
    re[row * d..(row + 1) * d]
        .iter()
        .zip(&im[row * d..(row + 1) * d])
        .map(|(&a, &b)| Complex64::new(a as f64, b as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use crate::lane::{Counters, WaitTracker};
    use oplix_nn::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::Ordering;

    fn view(n: usize, seed: u64) -> CTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        CTensor::new(
            Tensor::random_uniform(&[n, 6], 1.0, &mut rng),
            Tensor::random_uniform(&[n, 6], 1.0, &mut rng),
        )
    }

    #[test]
    fn a_reply_before_its_admission_is_recorded_never_wraps_the_depth() {
        // Once a request is queued, the batcher may answer it before the
        // sender records the admission. The depth reserved before the send
        // keeps that reply from taking the live depth below zero (which
        // wrapped it, and overflowed the admission's increment).
        let counters = Counters::new(4);
        counters.reserve();
        counters.depth.fetch_sub(1, Ordering::Relaxed); // the reply, first
        counters.admitted(false);
        let stats = counters.snapshot(1);
        assert_eq!((stats.submitted, stats.queue_depth), (1, 0));
    }

    #[test]
    fn coalesced_batches_match_direct_classify() {
        let x = view(37, 100_001);
        let mut direct = engine(100_000);
        let want = direct.classify(&x).expect("direct");

        let server = Server::builder()
            .max_batch(8)
            .max_wait(Duration::from_micros(100))
            .serve_engine(engine(100_000));
        let client = server.client();
        let tickets: Vec<Ticket> = (0..37)
            .map(|i| client.submit(sample_row(&x, i)).expect("admits"))
            .collect();
        let got: Vec<usize> = tickets
            .into_iter()
            .map(|t| t.wait().expect("serves").class().expect("no policy"))
            .collect();
        assert_eq!(got, want);
        let stats = server.stats();
        assert_eq!(stats.submitted, 37);
        assert_eq!(stats.served, 37);
        assert!(stats.batches >= 1);
        assert_eq!(stats.batched_samples, 37);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let x = view(20, 100_011);
        let mut direct = engine(100_010);
        let want = direct.classify(&x).expect("direct");

        let server = Server::builder()
            .max_batch(4)
            .max_wait(Duration::from_millis(50))
            .serve_engine(engine(100_010));
        let client = server.client();
        let tickets: Vec<Ticket> = (0..20)
            .map(|i| client.submit(sample_row(&x, i)).expect("admits"))
            .collect();
        // Shut down *before* waiting: every admitted ticket must still
        // resolve to its prediction (drain, not drop).
        let engine_back = server.shutdown();
        let got: Vec<usize> = tickets
            .into_iter()
            .map(|t| t.wait().expect("drained").class().expect("no policy"))
            .collect();
        assert_eq!(got, want);
        assert_eq!(engine_back.stats().samples, 20);

        // After shutdown, clients get a typed refusal, not a hang.
        assert!(matches!(
            client.submit(sample_row(&x, 0)),
            Err(Error::ServerClosed)
        ));
    }

    #[test]
    fn submit_validates_sample_width() {
        let server = Server::builder().serve_engine(engine(100_020));
        let client = server.client();
        assert!(matches!(
            client.submit(vec![Complex64::ONE; 3]),
            Err(Error::ShapeMismatch {
                expected: 6,
                got: 3,
                ..
            })
        ));
    }

    #[test]
    fn confidence_policy_abstains_and_counts() {
        let x = view(24, 100_031);
        // A maximally strict margin: every sample abstains.
        let server = Server::builder()
            .confidence(Confidence {
                threshold: 1.0 + 1e-9,
                top_k: 2,
            })
            .serve_engine(engine(100_030));
        let client = server.client();
        let tickets: Vec<Ticket> = (0..24)
            .map(|i| client.submit(sample_row(&x, i)).expect("admits"))
            .collect();
        let mut abstained = 0;
        for t in tickets {
            match t.wait().expect("serves") {
                Prediction::Abstain { confidence, .. } => {
                    assert!(confidence <= 1.0);
                    abstained += 1;
                }
                Prediction::Class(_) => {}
            }
        }
        assert_eq!(abstained, 24, "threshold > 1 must abstain on everything");
        assert_eq!(server.stats().abstained, 24);
    }

    #[test]
    fn wait_tracker_top_bucket_round_trips() {
        // A wait of 2^63 ns or more has nanosecond bit length 64 — the
        // last of the 65 buckets. Pin that `record` stays in bounds there
        // and `quantile` reports the true maximum back (the top bucket's
        // nominal bound saturates at u64::MAX and is capped by `max()`).
        let t = WaitTracker::default();
        t.record(Duration::MAX);
        assert_eq!(t.max(), Duration::from_nanos(u64::MAX));
        assert_eq!(t.quantile(1.0), t.max());
        assert_eq!(t.quantile(0.5), t.max(), "sole sample is every quantile");

        // Exactly 2^63 ns also lands in the top bucket; the reported
        // quantile is capped by the observed max, not the bucket bound.
        let t = WaitTracker::default();
        t.record(Duration::from_nanos(1 << 63));
        assert_eq!(t.quantile(1.0), Duration::from_nanos(1 << 63));
    }

    #[test]
    fn wait_tracker_bucket_bounds_cover_all_bit_lengths() {
        // Every possible bit length (0 for a zero wait through 64 for
        // ≥ 2^63 ns) must index inside the 65-bucket histogram, and each
        // recorded wait must round-trip through quantile(1.0) == max().
        for bits in 0..=64u32 {
            let t = WaitTracker::default();
            let nanos = if bits == 0 { 0 } else { 1u64 << (bits - 1) };
            t.record(Duration::from_nanos(nanos));
            assert_eq!(
                t.quantile(1.0),
                Duration::from_nanos(nanos),
                "bit length {bits} round-trips"
            );
        }
    }

    #[test]
    fn stats_surface_stage_reports_after_first_flush() {
        let x = view(8, 100_041);
        let server = Server::builder().max_batch(8).serve_engine(engine(100_040));
        let client = server.client();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| client.submit(sample_row(&x, i)).expect("admits"))
            .collect();
        for t in tickets {
            t.wait().expect("serves");
        }
        // The batcher publishes stage stats just after the flush that
        // resolved the tickets, and serves one request at a time: once a
        // second flush has answered, the first one's publish has landed.
        client
            .submit(sample_row(&x, 0))
            .expect("admits")
            .wait()
            .expect("serves");
        let stats = server.stats();
        assert!(
            !stats.stage_stats.is_empty(),
            "per-stage chip reports publish after the first flush"
        );
        let optical: Vec<_> = stats
            .stage_stats
            .iter()
            .filter(|s| s.chip.optical)
            .collect();
        assert!(!optical.is_empty());
        for s in &optical {
            assert!(s.chip.insertion_loss_db > 0.0);
            assert!(s.chip.latency_ps > 0.0);
            assert!(s.chip.mesh_depth > 0);
        }
        // Every flush runs the timed staged walk.
        for s in &stats.stage_stats {
            assert!(
                s.occupancy.windows > 0,
                "stage {} never timed",
                s.chip.stage
            );
        }
    }

    #[test]
    fn lone_request_costs_a_handful_of_wakes_not_a_spin() {
        // One request in a 20 ms window: the admission rings the idle
        // batcher, which then sleeps until the window closes. A batcher
        // that yield-spins between drains would wake thousands of times.
        let x = view(1, 100_051);
        let server = Server::builder()
            .max_wait(Duration::from_millis(20))
            .serve_engine(engine(100_050));
        let ticket = server.client().submit(sample_row(&x, 0)).expect("admits");
        ticket.wait().expect("serves");
        let wakes = server.lane.counters.wakes.load(Ordering::Relaxed);
        assert!(
            wakes <= 8,
            "one lone request woke the batcher {wakes} times"
        );
    }

    #[test]
    fn an_overloaded_server_holds_a_bounded_backlog() {
        // A client that never waits outruns a batcher serving two samples
        // per flush. The batcher takes requests off the channel only while
        // fewer than max(queue_cap, max_batch) are pending, so the live
        // depth never passes the channel bound plus that, however the
        // race between them goes.
        let (queue_cap, max_batch) = (4, 2);
        let x = view(1, 100_061);
        let server = Server::builder()
            .max_batch(max_batch)
            .queue_cap(queue_cap)
            .serve_engine(engine(100_060));
        let client = server.client();
        let bound = (queue_cap + queue_cap.max(max_batch)) as u64;
        let mut tickets = Vec::new();
        for _ in 0..20_000 {
            match client.try_submit(sample_row(&x, 0)) {
                Ok(t) => tickets.push(t),
                Err(Error::QueueFull { .. }) => {}
                Err(e) => panic!("unexpected admission error: {e}"),
            }
            let depth = server.stats().queue_depth;
            assert!(depth <= bound, "live depth {depth} passed {bound}");
        }
        drop(server);
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
    }
}
