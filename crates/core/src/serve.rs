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
//!   waiting [`ServerBuilder::max_wait`]. Between drains it sleeps; only
//!   the admission that starts or fills a batch, a version change or
//!   shutdown wakes it early, so an idle or coalescing server costs no
//!   CPU. Each flush stages the samples
//!   into one contiguous buffer and drives the engine's borrowed-batch
//!   entry point ([`InferenceEngine::classify_rows`]' generic form) — no
//!   per-request tensor copies. The batcher holds a
//!   [`crate::pool::ServiceSlot`], so its thread draws from the shared
//!   `--jobs` budget like every other worker in the process.
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
//! the online-recalibration scenario: a
//! [`PhaseDrift`] random walk perturbs the
//! live meshes between flushes, and periodic hot swaps to freshly
//! calibrated deployments restore accuracy without dropping traffic.
//!
//! Everything is plain threads and channels — no async runtime, matching
//! the workspace's std-only stance.

use crate::engine::{argmax, Confidence, InferenceEngine, StageStats};
use crate::error::Error;
use oplix_linalg::Complex64;
use oplix_nn::ctensor::CTensor;
use oplix_nn::network::Network;
use oplix_photonics::svd_map::MeshStyle;
use oplix_photonics::PhaseDrift;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::deploy::DeployedDetection;

/// Recovers the guard from a possibly poisoned lock.
///
/// A poisoned lock means a *different* thread panicked while holding it.
/// Every lock on the serving tier guards state that is updated atomically
/// with respect to the guard (a version counter, a lane table, a tally
/// snapshot), so the value inside stays consistent even if a sibling
/// thread died elsewhere — and the panic policy forbids converting that
/// thread's crash into this one's. Take the guard and keep serving.
pub(crate) fn relock<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

/// One queued request: the staged sample plus its reply channel, the
/// admission timestamp the wait-time stats are measured from, the serving
/// version stamped at admission, and an optional ground-truth label for
/// online (canary) accuracy tallies.
pub(crate) struct Request {
    fields: Vec<Complex64>,
    label: Option<usize>,
    version: u64,
    reply: mpsc::Sender<Result<Prediction, Error>>,
    enqueued_at: Instant,
}

/// What flows through a server (or router lane) queue: data requests
/// interleaved with version-change controls. Because the queue is FIFO
/// and controls are published under the version gate's write lock, a
/// control is popped *after* every request stamped with the old version
/// and *before* every request stamped with the new one.
pub(crate) enum Envelope {
    Request(Request),
    Control(Control),
}

/// A version-change command riding the data queue. Shared with the
/// router tier (lanes use the [`Control::Swap`] variant).
pub(crate) enum Control {
    /// Replace the current engine with `engine`, serving as `version`
    /// from this micro-batch boundary on.
    Swap {
        engine: Box<InferenceEngine>,
        version: u64,
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
    /// Stage `engine` as the canary candidate for `version`; admissions
    /// stamped with `version` serve through it while tallies accumulate.
    Canary {
        engine: Box<InferenceEngine>,
        version: u64,
        confidence: Option<Confidence>,
        tallies: Arc<CanaryCounters>,
    },
    /// Retire the baseline and make the canary candidate current.
    Promote {
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
    /// Discard the canary candidate; the baseline keeps the lane.
    Rollback {
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
}

/// The live canary split, as the admission side sees it.
pub(crate) struct CanarySplit {
    version: u64,
    fraction: f64,
    drawn: AtomicU64,
    seed: u64,
    tallies: Arc<CanaryCounters>,
}

/// The version gate's guarded state: the current serving version and the
/// live canary split, if one is staged.
pub(crate) struct GateState {
    pub(crate) current: u64,
    pub(crate) canary: Option<CanarySplit>,
}

/// The admission-side version barrier. Every submission stamps its
/// version and sends under the read lock; every version change (swap,
/// canary start, promote, rollback) mutates the state and publishes its
/// control message under the write lock. FIFO queue order therefore
/// equals version order: the batcher never sees an old-version request
/// after the control that retires that version, which is what makes the
/// switch atomic at a micro-batch boundary.
pub(crate) struct VersionGate {
    state: RwLock<GateState>,
    /// Lock-free mirror of `state.current` for stats snapshots.
    current: AtomicU64,
}

/// Hashes (seed, draw index) to a uniform value in `[0, 1)` — the
/// deterministic admission split of a canary. SplitMix64 finalizer over a
/// golden-ratio sequence: replaying the same seed over the same draw
/// indices reproduces the exact partition.
fn split_unit(seed: u64, n: u64) -> f64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl VersionGate {
    pub(crate) fn new() -> Self {
        VersionGate {
            state: RwLock::new(GateState {
                current: 1,
                canary: None,
            }),
            current: AtomicU64::new(1),
        }
    }

    /// The current serving version (the canary candidate, while staged,
    /// is `version() + 1`).
    pub(crate) fn version(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Stamps one admission and runs `send` under the read gate, so no
    /// version barrier can land between the stamp and the queue send.
    /// Returns the stamped version on a successful send.
    pub(crate) fn admit<E>(&self, send: impl FnOnce(u64) -> Result<(), E>) -> Result<u64, E> {
        let state = relock(self.state.read());
        let version = match &state.canary {
            Some(c) => {
                let n = c.drawn.fetch_add(1, Ordering::Relaxed);
                if split_unit(c.seed, n) < c.fraction {
                    c.version
                } else {
                    state.current
                }
            }
            None => state.current,
        };
        send(version)?;
        if let Some(c) = &state.canary {
            if let Some(slot) = c.tallies.slot(version) {
                slot.routed.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(version)
    }

    /// Runs a version barrier: `f` mutates the gate state and publishes
    /// its control message while every admission is excluded.
    pub(crate) fn barrier<T>(
        &self,
        f: impl FnOnce(&mut GateState) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut state = relock(self.state.write());
        let out = f(&mut state)?;
        self.current.store(state.current, Ordering::Relaxed);
        Ok(out)
    }
}

/// One version's atomic tally slots during a canary.
pub(crate) struct VersionTallyCounters {
    version: u64,
    routed: AtomicU64,
    served: AtomicU64,
    accepted: AtomicU64,
    abstained: AtomicU64,
    labeled: AtomicU64,
    correct: AtomicU64,
}

impl VersionTallyCounters {
    fn new(version: u64) -> Self {
        VersionTallyCounters {
            version,
            routed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            abstained: AtomicU64::new(0),
            labeled: AtomicU64::new(0),
            correct: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> VersionTally {
        VersionTally {
            version: self.version,
            routed: self.routed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            labeled: self.labeled.load(Ordering::Relaxed),
            correct: self.correct.load(Ordering::Relaxed),
        }
    }
}

/// The shared accumulator of one canary run: a tally slot per version
/// plus the split parameters, so a snapshot is self-describing.
pub(crate) struct CanaryCounters {
    fraction: f64,
    seed: u64,
    baseline: VersionTallyCounters,
    candidate: VersionTallyCounters,
}

impl CanaryCounters {
    fn new(baseline: u64, candidate: u64, fraction: f64, seed: u64) -> Self {
        CanaryCounters {
            fraction,
            seed,
            baseline: VersionTallyCounters::new(baseline),
            candidate: VersionTallyCounters::new(candidate),
        }
    }

    fn slot(&self, version: u64) -> Option<&VersionTallyCounters> {
        if version == self.baseline.version {
            Some(&self.baseline)
        } else if version == self.candidate.version {
            Some(&self.candidate)
        } else {
            None
        }
    }

    fn snapshot(&self) -> CanaryStats {
        CanaryStats {
            fraction: self.fraction,
            seed: self.seed,
            baseline: self.baseline.snapshot(),
            candidate: self.candidate.snapshot(),
        }
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

/// Log₂-bucketed wait-time tracker: each admitted request's queue wait
/// (admission → flush) lands in the bucket of its nanosecond count's bit
/// length, so the whole distribution is a fixed array of relaxed atomic
/// counters — recordable from the batcher's hot path without locks, and
/// cheap enough that the single-model [`Server`] and every router lane
/// carry one. Quantiles come back as the upper bound of the bucket the
/// cumulative count crosses (≤ 2× the true value, which is plenty for
/// p50/p99 SLO reporting).
pub(crate) struct WaitTracker {
    max_nanos: AtomicU64,
    buckets: [AtomicU64; 65],
}

impl Default for WaitTracker {
    fn default() -> Self {
        WaitTracker {
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl WaitTracker {
    pub(crate) fn record(&self, wait: Duration) {
        let nanos = wait.as_nanos().min(u64::MAX as u128) as u64;
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        // Bucket i holds waits whose nanosecond count has bit length i,
        // i.e. [2^(i-1), 2^i); bucket 0 is a zero-length wait and the top
        // bucket (i = 64) waits of 2^63 ns and beyond.
        let bucket = (u64::BITS - nanos.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The longest wait observed since construction.
    pub(crate) fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of recorded waits, as the upper bound
    /// of the bucket the cumulative count crosses; zero when nothing has
    /// been recorded yet.
    pub(crate) fn quantile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 2^i − 1 nanoseconds (saturating
                // on the top bucket), capped by the true observed maximum.
                let bound = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return Duration::from_nanos(bound).min(self.max());
            }
        }
        self.max()
    }
}

/// What a batcher is doing, as admissions see it through the
/// [`Doorbell`]: awake (it looks at the queue again before it next
/// sleeps), idle (asleep with nothing pending and no timeout) or
/// coalescing (asleep until its window closes).
const AWAKE: u8 = 0;
const IDLE: u8 = 1;
const COALESCING: u8 = 2;

/// One look a batcher took at its queue through [`Doorbell::take`].
pub(crate) enum Take<T> {
    /// The next envelope.
    Got(T),
    /// The queue was empty and the batcher slept, until rung or until
    /// its window closed; the caller re-checks its flush rules.
    Slept,
    /// The queue is empty for good: disconnected, or drained after the
    /// stop flag rose.
    Closed,
}

/// The one wait both batchers sleep in — the single-model server's FIFO
/// batcher and every router lane's EDF batcher. A batcher sleeps with no
/// timeout while idle and until its window closes while coalescing; only
/// these rings wake it sooner:
///
/// * the first admission while it is idle;
/// * an admission that brings the live depth to `max_batch` while it
///   coalesces;
/// * an admission whose deadline may fall inside the window (router
///   lanes);
/// * every control message and every shutdown ([`Doorbell::ring`]).
///
/// Any other admission during a window lands in the queue silently and
/// is collected when the window closes: the flush would not happen any
/// sooner, so waking the batcher for it would only buy a context switch.
///
/// Wake ordering: the batcher publishes its phase, then behind a `SeqCst`
/// fence takes its last look at the queue and the stop flag before it
/// sleeps; an admission sends first, then behind a `SeqCst` fence reads
/// the phase. The two fences are totally ordered, so either the last
/// look sees the request or the submitter sees the phase and rings.
/// Control messages and shutdown publish first and ring always. A ring
/// sets a flag under the bell's mutex before it notifies, and the
/// batcher tests that flag under the same mutex before it waits, so a
/// ring landing between the last look and the wait is not lost either.
pub(crate) struct Doorbell {
    /// `AWAKE`, `IDLE` or `COALESCING`. Accessed `Relaxed`: the `SeqCst`
    /// fences described above order it against the queue, and the mutex
    /// below orders a ring against the wait it ends.
    phase: AtomicU8,
    /// The live depth at which a coalescing batch is full.
    max_batch: u64,
    rung: Mutex<bool>,
    bell: Condvar,
}

impl Doorbell {
    fn new(max_batch: usize) -> Self {
        Doorbell {
            phase: AtomicU8::new(AWAKE),
            max_batch: max_batch as u64,
            rung: Mutex::new(false),
            bell: Condvar::new(),
        }
    }

    /// Admission side, once the request is in the queue and counted:
    /// rings if the batcher sleeps idle, or sleeps coalescing and this
    /// admission fills the batch (`depth` is the live depth it left) or
    /// is `urgent`. Only the first such admission per sleep pays the ring.
    fn admitted(&self, depth: u64, urgent: bool) {
        fence(Ordering::SeqCst);
        let phase = self.phase.load(Ordering::Relaxed);
        let wake = match phase {
            IDLE => true,
            COALESCING => urgent || depth >= self.max_batch,
            _ => false,
        };
        if wake
            && self
                .phase
                .compare_exchange(phase, AWAKE, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.ring();
        }
    }

    /// Wakes the batcher whatever it is doing. Control messages ring
    /// after their send, shutdown after raising the stop flag.
    pub(crate) fn ring(&self) {
        *relock(self.rung.lock()) = true;
        self.bell.notify_one();
    }

    /// Batcher side, idle: sleeps with no timeout until the next envelope
    /// arrives. `None` once the queue is closed for good.
    pub(crate) fn first<T>(
        &self,
        rx: &mpsc::Receiver<T>,
        stop: &AtomicBool,
        wakes: &AtomicU64,
    ) -> Option<T> {
        loop {
            match self.take(rx, None, stop, wakes) {
                Take::Got(envelope) => return Some(envelope),
                Take::Slept => {}
                Take::Closed => return None,
            }
        }
    }

    /// Batcher side: takes the next envelope off `rx`, or, when the queue
    /// is empty and `stop` is down, sleeps once — until rung, or until
    /// `window_end` while a batch coalesces (`None`: idle, no timeout).
    /// Every time a batcher would block, it blocks here.
    pub(crate) fn take<T>(
        &self,
        rx: &mpsc::Receiver<T>,
        window_end: Option<Instant>,
        stop: &AtomicBool,
        wakes: &AtomicU64,
    ) -> Take<T> {
        let phase = if window_end.is_some() {
            COALESCING
        } else {
            IDLE
        };
        self.phase.store(phase, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        // The last look: after the phase is published, before the sleep.
        let taken = match rx.try_recv() {
            Ok(envelope) => Take::Got(envelope),
            Err(mpsc::TryRecvError::Empty) if !stop.load(Ordering::SeqCst) => {
                let mut rung = relock(self.rung.lock());
                if !*rung {
                    rung = match window_end {
                        None => relock(self.bell.wait(rung)),
                        Some(end) => {
                            let left = end.saturating_duration_since(Instant::now());
                            relock(self.bell.wait_timeout(rung, left)).0
                        }
                    };
                    wakes.fetch_add(1, Ordering::Relaxed);
                }
                *rung = false;
                Take::Slept
            }
            Err(_) => Take::Closed,
        };
        self.phase.store(AWAKE, Ordering::Relaxed);
        taken
    }
}

/// Process-lifetime counters shared by the server handle, its clients and
/// the batcher thread. Also the per-lane counters of the
/// [`crate::router`] tier — the router and the single-model server
/// report through this one shape.
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) abstained: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batch_fill: AtomicU64,
    /// Requests admitted but not yet answered (queued or in flight).
    pub(crate) depth: AtomicU64,
    /// Version changes the batcher has applied (swaps and promotes).
    pub(crate) swaps: AtomicU64,
    pub(crate) waits: WaitTracker,
    /// Latest per-stage chip/occupancy snapshot published by the batcher
    /// after each served flush (empty until the first flush).
    pub(crate) stages: Mutex<Vec<StageStats>>,
    /// The batcher's one wait; admissions, controls and shutdown ring it.
    pub(crate) bell: Doorbell,
    /// Times the batcher woke from a [`Doorbell`] sleep, rung or timed
    /// out — what a batcher that does not spin keeps small.
    pub(crate) wakes: AtomicU64,
}

impl Counters {
    /// Counters for a batcher that flushes at `max_batch` samples.
    pub(crate) fn new(max_batch: usize) -> Self {
        Counters {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            abstained: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_fill: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            waits: WaitTracker::default(),
            stages: Mutex::new(Vec::new()),
            bell: Doorbell::new(max_batch),
            wakes: AtomicU64::new(0),
        }
    }

    /// Counts a request into the live depth before it is sent to the
    /// queue. The count must rise first: once queued, the batcher may
    /// answer the request, and take it back out of the depth, before the
    /// sender runs again.
    pub(crate) fn reserve(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Hands back a [`Counters::reserve`] whose send failed.
    pub(crate) fn unreserve(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a successful admission, once the reserved request is in
    /// the queue, and rings the batcher if the admission is one it must
    /// wake for. `urgent` marks a deadline that may fall inside the
    /// batcher's coalescing window.
    pub(crate) fn admitted(&self, urgent: bool) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.bell
            .admitted(self.depth.load(Ordering::Relaxed), urgent);
    }

    /// Publishes the serving engine's per-stage stats (chip reports plus
    /// per-stage windows and busy time) for the next [`Counters::snapshot`].
    pub(crate) fn publish_stages(&self, stages: Vec<StageStats>) {
        *relock(self.stages.lock()) = stages;
    }

    /// Snapshot of the counters in the public stats shape; the serving
    /// version lives on the gate, so the caller supplies it.
    pub(crate) fn snapshot(&self, version: u64) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_samples: self.batch_fill.load(Ordering::Relaxed),
            queue_depth: self.depth.load(Ordering::Relaxed),
            version,
            swaps: self.swaps.load(Ordering::Relaxed),
            max_wait_observed: self.waits.max(),
            stage_stats: relock(self.stages.lock()).clone(),
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

/// The batcher's flush policy plus the optional confidence policy.
struct BatchPolicy {
    max_batch: usize,
    max_wait: Duration,
    confidence: Option<Confidence>,
}

/// Configures and launches a [`Server`]; see [`Server::builder`].
#[derive(Clone, Debug)]
pub struct ServerBuilder {
    max_batch: usize,
    max_wait: Duration,
    queue_cap: usize,
    workers: Option<usize>,
    confidence: Option<Confidence>,
    drift: Option<PhaseDrift>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            queue_cap: 1024,
            workers: None,
            confidence: None,
            drift: None,
        }
    }
}

impl ServerBuilder {
    /// Flush a micro-batch once it holds this many samples (clamped to
    /// ≥ 1; default 64, one engine serving window).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Flush a micro-batch once its oldest request has waited this long
    /// (default 1 ms; clamped to ≤ 1 h so deadlines never overflow).
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d.min(Duration::from_secs(3600));
        self
    }

    /// Bound of the admission queue (clamped to ≥ 1; default 1024).
    /// [`Client::submit`] blocks while the queue holds this many pending
    /// requests; [`Client::try_submit`] returns [`Error::QueueFull`].
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
        self.confidence = Some(c);
        self
    }

    /// Serves under continuous phase drift: the batcher applies one
    /// random-walk step of `drift` to every live engine (current and any
    /// staged candidate — they share the physical substrate) after each
    /// flush cycle that served samples. Accuracy then degrades as drift
    /// accumulates; a hot swap to a freshly calibrated deployment
    /// ([`Server::swap`]) is the recalibration that restores it.
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
        let input_dim = engine.input_dim();
        let (tx, rx) = mpsc::sync_channel::<Envelope>(self.queue_cap);
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::new(self.max_batch));
        let gate = Arc::new(VersionGate::new());
        let policy = BatchPolicy {
            max_batch: self.max_batch,
            max_wait: self.max_wait,
            confidence: self.confidence,
        };
        let drift = self.drift;
        let handle = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            thread::Builder::new()
                .name("oplix-serve".into())
                .spawn(move || batcher(engine, rx, policy, stop, counters, drift))
                .expect("failed to spawn the serve batcher thread")
        };
        Server {
            tx: Some(tx),
            stop,
            counters,
            gate,
            last_canary: Mutex::new(None),
            input_dim,
            queue_cap: self.queue_cap,
            handle: Some(handle),
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
    tx: Option<mpsc::SyncSender<Envelope>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    gate: Arc<VersionGate>,
    /// The live (or most recent) canary accumulator, for
    /// [`Server::canary_stats`].
    last_canary: Mutex<Option<Arc<CanaryCounters>>>,
    input_dim: usize,
    queue_cap: usize,
    handle: Option<thread::JoinHandle<InferenceEngine>>,
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
            tx: self
                .tx
                .as_ref()
                .expect("server handle outlives shutdown")
                .clone(),
            stop: Arc::clone(&self.stop),
            counters: Arc::clone(&self.counters),
            gate: Arc::clone(&self.gate),
            input_dim: self.input_dim,
            queue_cap: self.queue_cap,
        }
    }

    /// The complex fan-in every submitted sample must have.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The deployment version new admissions are stamped with.
    pub fn version(&self) -> u64 {
        self.gate.version()
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot(self.gate.version())
    }

    /// Checks a candidate engine against the serving geometry and the
    /// server's liveness — shared by every version-change entry point.
    fn check_candidate(&self, input_dim: usize) -> Result<&mpsc::SyncSender<Envelope>, Error> {
        if input_dim != self.input_dim {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim,
                got: input_dim,
                what: "candidate input width",
            });
        }
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        // `tx` is only vacated by `shutdown`, which also raises `stop`
        // first — but degrade to the typed error rather than asserting it.
        self.tx.as_ref().ok_or(Error::ServerClosed)
    }

    /// Publishes a version-change control into the request queue and
    /// rings the batcher, so the change applies at the next micro-batch
    /// boundary rather than when the coalescing window closes.
    fn send_control(&self, tx: &mpsc::SyncSender<Envelope>, control: Control) -> Result<(), Error> {
        tx.send(Envelope::Control(control))
            .map_err(|_| Error::ServerClosed)?;
        self.counters.bell.ring();
        Ok(())
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
        let tx = self.check_candidate(engine.input_dim())?;
        self.gate.barrier(|state| {
            if state.canary.is_some() {
                return Err(Error::CanaryActive);
            }
            let version = state.current + 1;
            let (reply, rx) = mpsc::channel();
            self.send_control(
                tx,
                Control::Swap {
                    engine: Box::new(engine),
                    version,
                    reply,
                },
            )?;
            state.current = version;
            Ok(SwapTicket { rx })
        })
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
        let tx = self.check_candidate(engine.input_dim())?;
        let fraction = policy.fraction.clamp(0.0, 1.0);
        self.gate.barrier(|state| {
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
            self.send_control(
                tx,
                Control::Canary {
                    engine: Box::new(engine),
                    version,
                    confidence: policy.confidence,
                    tallies: Arc::clone(&tallies),
                },
            )?;
            state.canary = Some(CanarySplit {
                version,
                fraction,
                drawn: AtomicU64::new(0),
                seed: policy.seed,
                tallies: Arc::clone(&tallies),
            });
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
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let tx = self.tx.as_ref().ok_or(Error::ServerClosed)?;
        self.gate.barrier(|state| {
            let Some(canary) = state.canary.take() else {
                return Err(Error::NoCanary);
            };
            let (reply, rx) = mpsc::channel();
            let control = if promote {
                Control::Promote { reply }
            } else {
                Control::Rollback { reply }
            };
            // A failed send means the batcher is gone; the canary split
            // is already cleared either way.
            self.send_control(tx, control)?;
            if promote {
                state.current = canary.version;
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
    pub fn shutdown(mut self) -> InferenceEngine {
        self.shutdown_inner()
            .expect("first shutdown of a live server")
    }

    fn shutdown_inner(&mut self) -> Option<InferenceEngine> {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.tx.take());
        self.counters.bell.ring();
        self.handle
            .take()
            .map(|h| h.join().expect("serve batcher thread panicked"))
    }
}

impl Drop for Server {
    /// Dropping the handle shuts the server down (draining, like
    /// [`Server::shutdown`]) and discards the engine.
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("input_dim", &self.input_dim)
            .field("queue_cap", &self.queue_cap)
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
    tx: mpsc::SyncSender<Envelope>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    gate: Arc<VersionGate>,
    input_dim: usize,
    queue_cap: usize,
}

impl Client {
    /// The complex fan-in every submitted sample must have.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn submit_inner(
        &self,
        fields: Vec<Complex64>,
        label: Option<usize>,
        blocking: bool,
    ) -> Result<Ticket, Error> {
        if fields.len() != self.input_dim {
            return Err(Error::ShapeMismatch {
                expected: self.input_dim,
                got: fields.len(),
                what: "sample width",
            });
        }
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let (reply, rx) = mpsc::channel();
        let enqueued_at = Instant::now();
        self.counters.reserve();
        // Stamp + send under the version gate's read side, so no swap
        // barrier can land between the stamp and the queue send.
        let sent = self.gate.admit(|version| {
            let request = Envelope::Request(Request {
                fields,
                label,
                version,
                reply,
                enqueued_at,
            });
            if blocking {
                self.tx.send(request).map_err(|_| Error::ServerClosed)
            } else {
                self.tx.try_send(request).map_err(|e| match e {
                    mpsc::TrySendError::Full(_) => Error::QueueFull {
                        capacity: self.queue_cap,
                    },
                    mpsc::TrySendError::Disconnected(_) => Error::ServerClosed,
                })
            }
        });
        match sent {
            Ok(version) => {
                self.counters.admitted(false);
                Ok(Ticket {
                    rx,
                    done: None,
                    version,
                })
            }
            Err(e) => {
                self.counters.unreserve();
                if matches!(e, Error::QueueFull { .. }) {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
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
            .field("input_dim", &self.input_dim)
            .field("queue_cap", &self.queue_cap)
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
    rx: mpsc::Receiver<Result<Prediction, Error>>,
    done: Option<Result<Prediction, Error>>,
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
    pub fn wait(mut self) -> Result<Prediction, Error> {
        if let Some(done) = self.done.take() {
            return done;
        }
        self.rx.recv().unwrap_or(Err(Error::ServerClosed))
    }

    /// Non-blocking poll: `None` while the sample is still queued or in
    /// flight, `Some(result)` once served (repeat calls keep returning
    /// the same result).
    pub fn try_wait(&mut self) -> Option<Result<Prediction, Error>> {
        if self.done.is_none() {
            match self.rx.try_recv() {
                Ok(done) => self.done = Some(done),
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => self.done = Some(Err(Error::ServerClosed)),
            }
        }
        self.done.clone()
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

/// Turns one logit row into the response under the optional confidence
/// policy. Shared with the router tier so routed and direct serving apply
/// one abstention rule.
pub(crate) fn decide(confidence: Option<Confidence>, logits: &[f64]) -> Prediction {
    match confidence {
        None => Prediction::Class(argmax(logits)),
        Some(c) => {
            let (best, score) = c.score(logits);
            if score >= c.threshold {
                Prediction::Class(best)
            } else {
                Prediction::Abstain {
                    best,
                    confidence: score,
                }
            }
        }
    }
}

/// The batcher-side view of the versioned deployment: which engine serves
/// which version, plus canary bookkeeping. Mutated **only** by the batcher
/// thread, by applying [`Control`] messages popped from the same FIFO the
/// requests ride — so the rack's version history is exactly the admission
/// order's version history.
pub(crate) struct EngineRack {
    current_version: u64,
    current: InferenceEngine,
    /// A live canary candidate, keyed by the version it would become.
    candidate: Option<(u64, InferenceEngine)>,
    /// Confidence policy override while a canary is live (applied to both
    /// versions, so accept/abstain tallies compare like with like).
    confidence_override: Option<Confidence>,
    tallies: Option<Arc<CanaryCounters>>,
    /// Replacements from swaps that arrived while draining: they never
    /// became current, but version-stamped stragglers already admitted
    /// against them may still be queued, so they serve those and are
    /// handed back (`SwapOutcome::Aborted`) at batcher exit.
    aborted: Vec<(
        u64,
        InferenceEngine,
        mpsc::Sender<Result<SwapOutcome, Error>>,
    )>,
}

impl EngineRack {
    pub(crate) fn new(engine: InferenceEngine) -> Self {
        EngineRack {
            current_version: 1,
            current: engine,
            candidate: None,
            confidence_override: None,
            tallies: None,
            aborted: Vec::new(),
        }
    }

    /// The engine that must serve a request admitted under `version`.
    pub(crate) fn engine_for(&mut self, version: u64) -> Option<&mut InferenceEngine> {
        if version == self.current_version {
            return Some(&mut self.current);
        }
        if let Some((v, engine)) = self.candidate.as_mut() {
            if *v == version {
                return Some(engine);
            }
        }
        self.aborted
            .iter_mut()
            .find(|(v, _, _)| *v == version)
            .map(|(_, engine, _)| engine)
    }

    /// The confidence policy in force: the canary override if one is
    /// live, else the server's configured policy.
    pub(crate) fn confidence(&self, base: Option<Confidence>) -> Option<Confidence> {
        self.confidence_override.or(base)
    }

    /// The current serving engine's per-stage stats (chip reports plus
    /// per-stage timers), published into counters after each flush.
    pub(crate) fn stage_stats(&self) -> Vec<StageStats> {
        self.current.stage_stats()
    }

    /// Applies one control message at its FIFO position. `draining` is
    /// the stop flag **at apply time**: a swap that lands after shutdown
    /// began must not replace the engine the server hands back, so it
    /// parks in the aborted list instead.
    pub(crate) fn apply(&mut self, control: Control, draining: bool, counters: &Counters) {
        match control {
            Control::Swap {
                engine,
                version,
                reply,
            } => {
                if draining {
                    self.aborted.push((version, *engine, reply));
                } else {
                    let retired = std::mem::replace(&mut self.current, *engine);
                    self.current_version = version;
                    counters.swaps.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(Ok(SwapOutcome::Applied { retired, version }));
                }
            }
            Control::Canary {
                engine,
                version,
                confidence,
                tallies,
            } => {
                // Always installed, even while draining: requests stamped
                // with the candidate version may sit behind this control.
                self.candidate = Some((version, *engine));
                self.confidence_override = confidence;
                self.tallies = Some(tallies);
            }
            Control::Promote { reply } => {
                if draining {
                    let _ = reply.send(Err(Error::ServerClosed));
                } else if let Some((version, engine)) = self.candidate.take() {
                    let retired = std::mem::replace(&mut self.current, engine);
                    self.current_version = version;
                    self.confidence_override = None;
                    self.tallies = None;
                    counters.swaps.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.send(Ok(SwapOutcome::Applied { retired, version }));
                } else {
                    let _ = reply.send(Err(Error::NoCanary));
                }
            }
            Control::Rollback { reply } => {
                if draining {
                    let _ = reply.send(Err(Error::ServerClosed));
                } else if let Some((_, engine)) = self.candidate.take() {
                    self.confidence_override = None;
                    self.tallies = None;
                    let _ = reply.send(Ok(SwapOutcome::Applied {
                        retired: engine,
                        version: self.current_version,
                    }));
                } else {
                    let _ = reply.send(Err(Error::NoCanary));
                }
            }
        }
    }

    /// One drift step over every live engine (current + candidate), so a
    /// canary measured under drift faces the same wandered hardware.
    fn drift(&mut self, drift: &mut PhaseDrift) {
        self.current.drift_step(drift);
        if let Some((_, engine)) = self.candidate.as_mut() {
            engine.drift_step(drift);
        }
    }

    /// Batcher exit: resolve every parked aborted swap (its replacement
    /// engine goes back to the caller) and hand the serving engine to the
    /// server for `shutdown()` to return.
    pub(crate) fn finish(mut self) -> InferenceEngine {
        for (_, engine, reply) in self.aborted.drain(..) {
            let _ = reply.send(Ok(SwapOutcome::Aborted {
                replacement: engine,
            }));
        }
        self.current
    }
}

/// The batcher thread body: form micro-batches (flush on `max_batch` or
/// `max_wait`, whichever first), serve them through the engine's
/// borrowed-batch path, reply per request. [`Control`] messages ride the
/// same FIFO as requests; each is applied at a micro-batch boundary,
/// after the requests admitted before it are flushed — which is what
/// makes a swap atomic with respect to version stamps. On shutdown,
/// drain the queue to empty before exiting so no admitted ticket is lost.
fn batcher(
    engine: InferenceEngine,
    rx: mpsc::Receiver<Envelope>,
    policy: BatchPolicy,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    mut drift: Option<PhaseDrift>,
) -> InferenceEngine {
    // The batcher is a resident service thread: claim one slot of the
    // shared worker budget so engines + grids + servers stay ≈ `--jobs`.
    let _slot = crate::pool::reserve_service_slot();
    let mut rack = EngineRack::new(engine);
    let mut pending: Vec<Request> = Vec::with_capacity(policy.max_batch);
    let mut rows: Vec<Complex64> = Vec::new();
    let (bell, wakes) = (&counters.bell, &counters.wakes);
    loop {
        // Admit the first envelope of the next batch, sleeping with no
        // timeout until an admission, a control message or shutdown
        // rings. Draining: serve whatever is still queued, then exit.
        let Some(first) = bell.first(&rx, &stop, wakes) else {
            break;
        };
        let mut control = match first {
            Envelope::Request(r) => {
                pending.push(r);
                None
            }
            Envelope::Control(c) => Some(c),
        };

        // Coalesce until the batch fills, a control message arrives, or
        // the oldest request's window closes (during a drain: until the
        // queue is empty). Between drains the batcher sleeps on the
        // doorbell until the window closes; only a full batch, a control
        // message or shutdown rings it sooner.
        let deadline = Instant::now() + policy.max_wait;
        'coalesce: while control.is_none() {
            while pending.len() < policy.max_batch {
                match rx.try_recv() {
                    Ok(Envelope::Request(r)) => pending.push(r),
                    Ok(Envelope::Control(c)) => {
                        control = Some(c);
                        break 'coalesce;
                    }
                    Err(_) => break,
                }
            }
            if pending.len() >= policy.max_batch
                || stop.load(Ordering::SeqCst)
                || Instant::now() >= deadline
            {
                break;
            }
            match bell.take(&rx, Some(deadline), &stop, wakes) {
                Take::Got(Envelope::Request(r)) => pending.push(r),
                Take::Got(Envelope::Control(c)) => control = Some(c),
                Take::Slept => {}
                Take::Closed => break,
            }
        }

        // Everything admitted before the control is flushed first — the
        // micro-batch boundary the swap is atomic at.
        let served = !pending.is_empty();
        if served {
            serve_flush(&mut rack, &policy, &mut pending, &mut rows, &counters);
            counters.publish_stages(rack.stage_stats());
        }
        if let Some(c) = control {
            rack.apply(c, stop.load(Ordering::SeqCst), &counters);
        }
        // One drift step per served flush: phases wander between
        // micro-batches, not within one (a batch sees one chip state).
        if served {
            if let Some(d) = drift.as_mut() {
                rack.drift(d);
            }
        }
    }
    rack.finish()
}

/// Serves one flush worth of pending requests, grouping by stamped
/// version so every request is served by exactly the engine it was
/// admitted under. In steady state the flush is single-version and
/// serves in place; around a swap or canary the flush partitions into
/// per-version sub-batches (stable order within each).
fn serve_flush(
    rack: &mut EngineRack,
    policy: &BatchPolicy,
    pending: &mut Vec<Request>,
    rows: &mut Vec<Complex64>,
    counters: &Counters,
) {
    while !pending.is_empty() {
        let version = pending[0].version;
        if pending.iter().all(|r| r.version == version) {
            serve_group(rack, policy, version, pending, rows, counters);
        } else {
            let (group, rest): (Vec<_>, Vec<_>) =
                pending.drain(..).partition(|r| r.version == version);
            *pending = rest;
            let mut group = group;
            serve_group(rack, policy, version, &mut group, rows, counters);
        }
    }
}

/// Serves one single-version micro-batch and replies to every request in
/// it. A batch poisoned by one sample (non-finite logits) falls back to
/// serving each request individually, so the offending sample gets its
/// error and the rest still get their predictions.
fn serve_group(
    rack: &mut EngineRack,
    policy: &BatchPolicy,
    version: u64,
    pending: &mut Vec<Request>,
    rows: &mut Vec<Complex64>,
    counters: &Counters,
) {
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .batch_fill
        .fetch_add(pending.len() as u64, Ordering::Relaxed);
    rows.clear();
    for request in pending.iter() {
        counters.waits.record(request.enqueued_at.elapsed());
        rows.extend_from_slice(&request.fields);
    }
    let confidence = rack.confidence(policy.confidence);
    let tallies = rack.tallies.clone();
    let Some(engine) = rack.engine_for(version) else {
        // Unreachable by construction (every stamped version has a rack
        // slot until its last ticket resolves), but never strand a ticket.
        for request in pending.drain(..) {
            respond(counters, &request, Err(Error::ServerClosed));
        }
        return;
    };
    let emit = move |logits: &[f64]| decide(confidence, logits);
    match engine.serve_rows(rows, &emit) {
        Ok(predictions) => {
            for (request, prediction) in pending.drain(..).zip(predictions) {
                tally(tallies.as_deref(), &request, &prediction);
                respond(counters, &request, Ok(prediction));
            }
        }
        Err(_) => {
            // Isolate the poisoned sample(s): per-request error indices
            // are the request's own (single-sample) batch, i.e. 0.
            for request in pending.drain(..) {
                let outcome = engine
                    .serve_rows(&request.fields, &emit)
                    .map(|mut v| v.remove(0));
                if let Ok(prediction) = &outcome {
                    tally(tallies.as_deref(), &request, prediction);
                }
                respond(counters, &request, outcome);
            }
        }
    }
}

/// Canary accounting for one served request: which version served it,
/// whether the (shared) confidence policy accepted or abstained, and —
/// when the request carried a ground-truth label — whether the accepted
/// class was correct.
fn tally(tallies: Option<&CanaryCounters>, request: &Request, prediction: &Prediction) {
    let Some(slot) = tallies.and_then(|t| t.slot(request.version)) else {
        return;
    };
    slot.served.fetch_add(1, Ordering::Relaxed);
    match prediction {
        Prediction::Class(class) => {
            slot.accepted.fetch_add(1, Ordering::Relaxed);
            if let Some(label) = request.label {
                slot.labeled.fetch_add(1, Ordering::Relaxed);
                if *class == label {
                    slot.correct.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Prediction::Abstain { .. } => {
            slot.abstained.fetch_add(1, Ordering::Relaxed);
            if request.label.is_some() {
                slot.labeled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn respond(counters: &Counters, request: &Request, outcome: Result<Prediction, Error>) {
    counters.served.fetch_add(1, Ordering::Relaxed);
    counters.depth.fetch_sub(1, Ordering::Relaxed);
    if matches!(outcome, Ok(Prediction::Abstain { .. })) {
        counters.abstained.fetch_add(1, Ordering::Relaxed);
    }
    // A dropped ticket just means nobody is listening; serving continues.
    let _ = request.reply.send(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
    use oplix_nn::tensor::Tensor;
    use oplix_photonics::decoder::DecoderKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(seed: u64) -> InferenceEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = build_fcnn(
            &FcnnConfig {
                input: 6,
                hidden: 5,
                classes: 3,
            },
            ModelVariant::Split(DecoderKind::Merge),
            &mut rng,
        );
        InferenceEngine::from_network(&net, DeployedDetection::Differential, MeshStyle::Clements)
            .expect("FCNN deploys")
    }

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
        let wakes = server.counters.wakes.load(Ordering::Relaxed);
        assert!(
            wakes <= 8,
            "one lone request woke the batcher {wakes} times"
        );
    }
}
