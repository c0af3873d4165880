//! Multi-model serving router: one admission layer over N named model
//! deployments with deadline-aware (EDF) micro-batching.
//!
//! The [`crate::serve`] front end owns exactly one deployed model and
//! flushes FIFO. Production photonic serving is multi-tenant: many models
//! share one substrate, requests carry latency budgets, and one hot
//! tenant must not starve the rest. This module is that tier:
//!
//! ```text
//!             ┌───────────── Router ─────────────────────────────┐
//!  submit ──▶ │ admission:  name → lane,  deadline check         │
//!             │ ┌─ lane "a" ─┐ ┌─ lane "b" ─┐ ┌─ lane "c" ─┐     │
//!             │ │bounded MPSC│ │bounded MPSC│ │bounded MPSC│     │
//!             │ │ EDF batcher│ │ EDF batcher│ │ EDF batcher│     │
//!             │ │  engine a  │ │  engine b  │ │  engine c  │     │
//!             │ └────────────┘ └────────────┘ └────────────┘     │
//!             │    fair share of the `--jobs` budget, weighted   │
//!             │    by queue depth × optical stage count          │
//!             └──────────────────────────────────────────────────┘
//! ```
//!
//! * **Admission**: every [`RouterRequest`] names its target model.
//!   Unknown names are refused with [`Error::UnknownModel`]; a request
//!   whose deadline has already passed is refused with
//!   [`Error::DeadlineExceeded`] before it costs a queue slot.
//! * **Per-model lanes**: each registered model owns a bounded queue and
//!   a dedicated batcher thread over its own [`InferenceEngine`] —
//!   the same queue/ticket/backpressure machinery as
//!   [`crate::serve::Server`], generalised to N lanes behind one router.
//!   Models register and deregister at runtime; registration goes
//!   through the process-wide deploy cache, so two models over the same
//!   weights share one cached decomposition
//!   ([`ModelStats::cache_shared`] reports when that happened).
//! * **Versioned hot swap**: [`Router::swap_model`] replaces a lane's
//!   deployment without closing it — the replacement deploys in the
//!   background, a control message rides the lane queue, and the
//!   batcher switches engines at a micro-batch boundary. Requests carry
//!   the version they were admitted under ([`Served::version`]) and are
//!   always served by that version's engine, exactly as in
//!   [`crate::serve::Server::swap`]. Deregistering a lane while a swap
//!   is still queued hands back the *currently serving* engine and
//!   aborts the swap — its replacement engine returns through the
//!   [`SwapTicket`] as [`crate::serve::SwapOutcome::Aborted`], never
//!   lost.
//! * **EDF batching**: lanes coalesce like the FIFO server (flush on
//!   `max_batch` or `max_wait`), but the pending set is an
//!   [`EdfQueue`] — flushes pop by earliest deadline, then priority
//!   class, then arrival. A deadline that would expire inside the
//!   coalescing window cuts the window short, and a request found
//!   expired at flush time is rejected with
//!   [`Error::DeadlineExceeded`] instead of wasting mesh cycles.
//! * **Fairness**: at every flush a lane sizes its engine's worker
//!   shard count to its share of the process `--jobs` budget,
//!   proportional to queue depth weighted by the model's optical stage
//!   count (deeper meshes cost more per sample). Safe because engine
//!   results are bitwise identical at any worker count.
//! * **Observability**: [`RouterStats`] reports, per model, the full
//!   [`ServerStats`] shape plus deadline misses, p50/p99 queue waits
//!   and whether the deployment was served from cache.
//!
//! Predictions are **bitwise identical** to serving each model through
//! its own dedicated [`crate::serve::Server`] — routing and EDF
//! reordering change *when* a sample is flushed, never its result.

use crate::engine::{Confidence, InferenceEngine};
use crate::error::Error;
use crate::serve::{
    decide, relock, Control, Counters, EngineRack, Prediction, ServerStats, SwapTicket, Take,
    VersionGate,
};
use oplix_linalg::Complex64;
use oplix_nn::network::Network;
use oplix_photonics::svd_map::MeshStyle;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use crate::deploy::DeployedDetection;

/// The priority class a [`RouterRequest`] carries. Within one deadline
/// tier the EDF batcher flushes lower variants first, so the derived
/// order *is* the scheduling order: `Interactive < Standard < Batch`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; flushed before everything else in its
    /// deadline tier.
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic; yields to the other classes.
    Batch,
}

/// The scheduling key of one queued entry: earliest deadline first
/// (deadline-less entries sort after every deadline), then priority
/// class, then admission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EdfKey {
    deadline: Option<Instant>,
    priority: Priority,
    seq: u64,
}

impl Ord for EdfKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => a.cmp(&b),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        }
        .then_with(|| self.priority.cmp(&other.priority))
        .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for EdfKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct EdfEntry<T> {
    key: EdfKey,
    arrived: Instant,
    value: T,
}

impl<T> PartialEq for EdfEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for EdfEntry<T> {}
impl<T> PartialOrd for EdfEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for EdfEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// One entry popped from an [`EdfQueue`].
#[derive(Clone, Copy, Debug)]
pub struct EdfItem<T> {
    /// The entry's deadline, if it carried one.
    pub deadline: Option<Instant>,
    /// The entry's priority class.
    pub priority: Priority,
    /// When the entry was pushed (drives the `max_wait` flush window).
    pub arrived: Instant,
    /// The queued payload.
    pub value: T,
}

/// An earliest-deadline-first priority queue: entries pop ordered by
/// deadline (entries without one sort last), then [`Priority`], then
/// push order. This is the pending set of every router lane; it is
/// public so schedulers and property tests can exercise the ordering
/// directly.
///
/// ```
/// use oplixnet::router::{EdfQueue, Priority};
/// use std::time::{Duration, Instant};
///
/// let now = Instant::now();
/// let mut q = EdfQueue::new();
/// q.push(None, Priority::Batch, now, "no deadline");
/// q.push(Some(now + Duration::from_secs(60)), Priority::Standard, now, "loose");
/// q.push(Some(now + Duration::from_secs(1)), Priority::Standard, now, "tight");
/// q.push(None, Priority::Interactive, now, "interactive");
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.value)).collect();
/// assert_eq!(order, ["tight", "loose", "interactive", "no deadline"]);
/// ```
pub struct EdfQueue<T> {
    heap: BinaryHeap<std::cmp::Reverse<EdfEntry<T>>>,
    seq: u64,
}

impl<T> Default for EdfQueue<T> {
    fn default() -> Self {
        EdfQueue::new()
    }
}

impl<T> EdfQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EdfQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Pushes one entry; ties on deadline and priority pop in push order.
    pub fn push(
        &mut self,
        deadline: Option<Instant>,
        priority: Priority,
        arrived: Instant,
        value: T,
    ) {
        let key = EdfKey {
            deadline,
            priority,
            seq: self.seq,
        };
        self.seq += 1;
        self.heap.push(std::cmp::Reverse(EdfEntry {
            key,
            arrived,
            value,
        }));
    }

    /// Pops the scheduling-first entry, if any.
    pub fn pop(&mut self) -> Option<EdfItem<T>> {
        self.heap.pop().map(|std::cmp::Reverse(e)| EdfItem {
            deadline: e.key.deadline,
            priority: e.key.priority,
            arrived: e.arrived,
            value: e.value,
        })
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The earliest deadline among queued entries (`None` if no entry
    /// carries one). O(1): it is the head's deadline unless the head is
    /// deadline-less, in which case nothing has one.
    pub fn earliest_deadline(&self) -> Option<Instant> {
        self.heap
            .peek()
            .and_then(|std::cmp::Reverse(e)| e.key.deadline)
    }

    /// The earliest arrival among queued entries — what anchors the
    /// `max_wait` flush window. O(n).
    pub fn oldest_arrival(&self) -> Option<Instant> {
        self.heap.iter().map(|std::cmp::Reverse(e)| e.arrived).min()
    }
}

/// One routed request: the target model's name, the staged sample, and
/// the optional deadline / priority class the EDF batcher schedules by.
#[derive(Clone, Debug)]
pub struct RouterRequest {
    model: String,
    fields: Vec<Complex64>,
    deadline: Option<Instant>,
    priority: Priority,
}

impl RouterRequest {
    /// A request for `model` with no deadline and [`Priority::Standard`].
    pub fn new(model: impl Into<String>, fields: Vec<Complex64>) -> Self {
        RouterRequest {
            model: model.into(),
            fields,
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// Sets the deadline `budget` from now. A request still queued when
    /// its deadline passes is rejected with [`Error::DeadlineExceeded`].
    pub fn deadline_in(self, budget: Duration) -> Self {
        self.deadline_at(Instant::now() + budget)
    }

    /// Sets an absolute deadline (useful when many requests share one
    /// SLO edge).
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the priority class (default [`Priority::Standard`]).
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }
}

/// The successful response to one routed request: the prediction plus
/// which flush served it and how long it queued — enough for callers
/// (and the EDF-ordering tests) to observe the scheduler's decisions.
#[derive(Clone, Debug)]
pub struct Served {
    /// The model's prediction for the sample.
    pub prediction: Prediction,
    /// 1-based index of the lane flush that served this request; two
    /// requests with the same `flush_seq` rode one micro-batch, and a
    /// smaller value means an earlier flush.
    pub flush_seq: u64,
    /// How long the request queued between admission and flush.
    pub waited: Duration,
    /// The lane deployment version the request was admitted under — the
    /// version whose engine served it, no matter how many swaps landed
    /// while it queued.
    pub version: u64,
}

/// A pending response to one routed request; resolves like
/// [`crate::serve::Ticket`], to a [`Served`] carrying scheduling
/// metadata alongside the prediction.
#[derive(Debug)]
pub struct RouterTicket {
    rx: mpsc::Receiver<Result<Served, Error>>,
    done: Option<Result<Served, Error>>,
}

impl RouterTicket {
    /// Blocks until the request's micro-batch is served. A router (or
    /// lane) shutting down before the request could be served surfaces
    /// as [`Error::ServerClosed`] — tickets never hang.
    ///
    /// # Errors
    ///
    /// [`Error::DeadlineExceeded`] if the deadline passed while queued,
    /// [`Error::NonFiniteLogits`] if the sample poisoned detection,
    /// [`Error::ServerClosed`] as above.
    pub fn wait(mut self) -> Result<Served, Error> {
        if let Some(done) = self.done.take() {
            return done;
        }
        self.rx.recv().unwrap_or(Err(Error::ServerClosed))
    }

    /// Non-blocking poll: `None` while queued or in flight,
    /// `Some(result)` once resolved (repeat calls return the same
    /// result).
    pub fn try_wait(&mut self) -> Option<Result<Served, Error>> {
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

/// One queued lane request (the router-side analogue of the serve
/// module's `Request`, plus its scheduling key).
struct LaneRequest {
    fields: Vec<Complex64>,
    reply: mpsc::Sender<Result<Served, Error>>,
    enqueued_at: Instant,
    deadline: Option<Instant>,
    priority: Priority,
    version: u64,
}

/// What flows through a lane queue: routed requests interleaved with
/// version-change controls, exactly like the serve module's envelope.
/// FIFO channel order + controls published under the lane gate's write
/// lock = version order, so the batcher can retire engines safely.
enum LaneEnvelope {
    Request(LaneRequest),
    Control(Control),
}

/// Per-lane weighted queue depths (`queued requests × optical weight`),
/// keyed by lane registration id — the inputs to the largest-remainder
/// split of the `--jobs` worker budget. A registry rather than a single
/// router-wide sum: computing every lane's share from one consistent
/// snapshot is what keeps the *summed* allocation bounded (the old
/// per-lane `clamp(1, jobs)` let N idle-but-nonempty lanes claim N >
/// jobs shards in aggregate).
#[derive(Default)]
struct FairShare {
    lanes: Mutex<BTreeMap<u64, u64>>,
    next_id: AtomicU64,
}

impl FairShare {
    /// Adds a lane to the registry (weighted depth 0) and returns its id.
    fn register(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        relock(self.lanes.lock()).insert(id, 0);
        id
    }

    /// Removes a lane; its workers return to the splittable budget.
    fn deregister(&self, id: u64) {
        relock(self.lanes.lock()).remove(&id);
    }

    /// One admission: the lane's weighted depth grows by its weight.
    fn add(&self, id: u64, weight: u64) {
        if let Some(w) = relock(self.lanes.lock()).get_mut(&id) {
            *w += weight;
        }
    }

    /// One response: the admission's weight is handed back.
    fn sub(&self, id: u64, weight: u64) {
        if let Some(w) = relock(self.lanes.lock()).get_mut(&id) {
            *w = w.saturating_sub(weight);
        }
    }

    /// Lane `id`'s share of the `jobs` budget under one consistent
    /// registry snapshot, floored at the one worker the lane itself is
    /// (a lane about to serve a batch always runs at least itself).
    fn share_for(&self, id: u64, jobs: usize) -> usize {
        let lanes = relock(self.lanes.lock());
        let idx = lanes.keys().position(|k| *k == id);
        let weights: Vec<u64> = lanes.values().copied().collect();
        drop(lanes);
        idx.map_or(1, |i| fair_shares(jobs, &weights)[i].max(1))
    }
}

/// Splits the `jobs` worker budget across lanes by weighted queue depth,
/// bounding the **sum**: every live lane (weight > 0) keeps the one
/// worker it is, and only the remaining budget — `jobs` minus the live
/// lane count, when positive — is divided proportionally by weight with
/// a largest-remainder rounding (remainder ties break toward the lower
/// index, so the split is deterministic). Idle lanes (weight 0) get 0.
///
/// Invariant: `Σ shares == max(jobs, live lanes)` whenever any lane is
/// live — the allocation oversubscribes the budget only by the floor
/// that serving lanes physically occupy, never by proportional rounding.
fn fair_shares(jobs: usize, weights: &[u64]) -> Vec<usize> {
    let jobs = jobs.max(1);
    let mut shares: Vec<usize> = weights.iter().map(|&w| usize::from(w > 0)).collect();
    let live: usize = shares.iter().sum();
    let spare = jobs.saturating_sub(live);
    let total: u64 = weights.iter().sum();
    if spare == 0 || total == 0 {
        return shares;
    }
    // Largest-remainder split of the spare workers by weight: floors
    // first, then one extra worker per largest fractional part until the
    // spare pool is spent.
    let mut remainders: Vec<(usize, u64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let scaled = spare as u128 * w as u128;
        shares[i] += (scaled / total as u128) as usize;
        assigned += (scaled / total as u128) as usize;
        remainders.push((i, (scaled % total as u128) as u64));
    }
    remainders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (i, _) in remainders.into_iter().take(spare - assigned) {
        shares[i] += 1;
    }
    shares
}

/// The flush policy every lane inherits from its [`RouterBuilder`].
#[derive(Clone, Copy)]
struct LanePolicy {
    max_batch: usize,
    max_wait: Duration,
    confidence: Option<Confidence>,
}

/// One registered model: its bounded queue, counters and batcher thread.
struct Lane {
    /// Admission side of the lane queue; taken (and dropped) on
    /// shutdown/deregistration so the batcher's drain terminates.
    tx: Mutex<Option<mpsc::SyncSender<LaneEnvelope>>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    /// The lane's version barrier (see [`crate::serve`]): admissions
    /// stamp + send under its read side, swaps publish under its write
    /// side.
    gate: Arc<VersionGate>,
    deadline_missed: Arc<AtomicU64>,
    input_dim: usize,
    queue_cap: usize,
    /// Scheduling weight: the deployment's optical stage count (deeper
    /// meshes cost more per sample), floored at 1.
    weight: u64,
    /// This lane's slot in the router-wide [`FairShare`] registry.
    fair_id: u64,
    optical_stages: usize,
    cache_shared: bool,
    handle: Mutex<Option<thread::JoinHandle<InferenceEngine>>>,
}

impl Lane {
    /// Stops the lane, drains its queue and joins the batcher, handing
    /// the engine back. Idempotent; `None` after the first call.
    fn shutdown(&self) -> Option<InferenceEngine> {
        self.stop.store(true, Ordering::SeqCst);
        drop(relock(self.tx.lock()).take());
        self.counters.bell.ring();
        relock(self.handle.lock())
            .take()
            .map(|h| h.join().expect("router lane batcher panicked"))
    }
}

/// Everything the router handle and its clients share.
struct RouterCore {
    // Name-ordered, so every walk over the lane table — stats snapshots,
    // shutdown drains — is deterministic by construction (the
    // determinism-hazards lint forbids hash iteration on serving paths).
    lanes: RwLock<BTreeMap<String, Arc<Lane>>>,
    policy: LanePolicy,
    queue_cap: usize,
    closed: AtomicBool,
    fair: Arc<FairShare>,
}

impl RouterCore {
    fn submit_inner(&self, req: RouterRequest, blocking: bool) -> Result<RouterTicket, Error> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let lane = relock(self.lanes.read())
            .get(&req.model)
            .cloned()
            .ok_or(Error::UnknownModel { model: req.model })?;
        if req.fields.len() != lane.input_dim {
            return Err(Error::ShapeMismatch {
                expected: lane.input_dim,
                got: req.fields.len(),
                what: "sample width",
            });
        }
        let now = Instant::now();
        if let Some(deadline) = req.deadline {
            if now >= deadline {
                // Refuse before the request costs a queue slot: a result
                // nobody can use should not spend mesh cycles.
                lane.deadline_missed.fetch_add(1, Ordering::Relaxed);
                return Err(Error::DeadlineExceeded {
                    missed_by: now - deadline,
                });
            }
        }
        let tx = relock(lane.tx.lock()).clone().ok_or(Error::ServerClosed)?;
        let (reply, rx) = mpsc::channel();
        let fields = req.fields;
        // Count the request in before the send: once queued, the lane may
        // answer it, and hand both counts back, before this thread resumes.
        lane.counters.reserve();
        self.fair.add(lane.fair_id, lane.weight);
        // Stamp + send under the lane gate's read side, so no swap
        // barrier can land between the version stamp and the queue send.
        let sent = lane.gate.admit(|version| {
            let request = LaneEnvelope::Request(LaneRequest {
                fields,
                reply,
                enqueued_at: now,
                deadline: req.deadline,
                priority: req.priority,
                version,
            });
            if blocking {
                tx.send(request).map_err(|_| Error::ServerClosed)
            } else {
                tx.try_send(request).map_err(|e| match e {
                    mpsc::TrySendError::Full(_) => Error::QueueFull {
                        capacity: lane.queue_cap,
                    },
                    mpsc::TrySendError::Disconnected(_) => Error::ServerClosed,
                })
            }
        });
        match sent {
            Ok(_) => {
                // A deadline sooner than one window from now may fall
                // inside the lane's coalescing window, whose EDF cut must
                // not wait for the window to close.
                let urgent = req
                    .deadline
                    .is_some_and(|d| d <= Instant::now() + self.policy.max_wait);
                lane.counters.admitted(urgent);
                Ok(RouterTicket { rx, done: None })
            }
            Err(e) => {
                lane.counters.unreserve();
                self.fair.sub(lane.fair_id, lane.weight);
                if matches!(e, Error::QueueFull { .. }) {
                    lane.counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    fn stats(&self) -> RouterStats {
        let lanes = relock(self.lanes.read());
        let mut models = BTreeMap::new();
        let mut shared = 0;
        for (name, lane) in lanes.iter() {
            if lane.cache_shared {
                shared += 1;
            }
            models.insert(
                name.clone(),
                ModelStats {
                    serve: lane.counters.snapshot(lane.gate.version()),
                    deadline_missed: lane.deadline_missed.load(Ordering::Relaxed),
                    wait_p50: lane.counters.waits.quantile(0.5),
                    wait_p99: lane.counters.waits.quantile(0.99),
                    cache_shared: lane.cache_shared,
                    optical_stages: lane.optical_stages,
                },
            );
        }
        RouterStats {
            models,
            cache_shared_deployments: shared,
        }
    }

    fn shutdown_all(&self) -> Vec<(String, InferenceEngine)> {
        self.closed.store(true, Ordering::SeqCst);
        let lanes: Vec<(String, Arc<Lane>)> = {
            let mut map = relock(self.lanes.write());
            // BTreeMap iteration is already name-ordered; no sort needed
            // for a deterministic shutdown sequence.
            std::mem::take(&mut *map).into_iter().collect()
        };
        lanes
            .into_iter()
            .filter_map(|(name, lane)| lane.shutdown().map(|engine| (name, engine)))
            .collect()
    }
}

/// Per-model slice of a [`RouterStats`] snapshot.
#[derive(Clone, Debug)]
pub struct ModelStats {
    /// The lane's serving counters, in the exact [`ServerStats`] shape
    /// the single-model server reports (queue depth and max wait
    /// included).
    pub serve: ServerStats,
    /// Requests rejected for a passed deadline — at admission or at
    /// flush time.
    pub deadline_missed: u64,
    /// Median admission-to-flush queue wait (log₂-bucket upper bound).
    pub wait_p50: Duration,
    /// 99th-percentile admission-to-flush queue wait (log₂-bucket upper
    /// bound).
    pub wait_p99: Duration,
    /// Whether this model's registration was served entirely from the
    /// process-wide deploy cache (it shares kernels with an earlier
    /// deployment of the same weights).
    pub cache_shared: bool,
    /// The deployment's optical stage count — its scheduling weight in
    /// the fair-share split of the worker budget.
    pub optical_stages: usize,
}

/// A snapshot of every lane's counters plus router-wide aggregates.
#[derive(Clone, Debug, Default)]
pub struct RouterStats {
    /// Per-model stats, keyed by registered name.
    pub models: BTreeMap<String, ModelStats>,
    /// How many currently registered models were deployed entirely from
    /// the shared cache.
    pub cache_shared_deployments: u64,
}

/// Configures and creates a [`Router`]; see [`Router::builder`]. The
/// flush policy applies to every lane the router registers.
#[derive(Clone, Copy, Debug)]
pub struct RouterBuilder {
    max_batch: usize,
    max_wait: Duration,
    queue_cap: usize,
    confidence: Option<Confidence>,
}

impl Default for RouterBuilder {
    fn default() -> Self {
        RouterBuilder {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            queue_cap: 1024,
            confidence: None,
        }
    }
}

impl RouterBuilder {
    /// Flush a lane's micro-batch at this many samples (clamped to ≥ 1;
    /// default 64).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Flush once a lane's oldest queued request has waited this long
    /// (default 1 ms; clamped to ≤ 1 h). A queued deadline that would
    /// expire sooner cuts the window short.
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d.min(Duration::from_secs(3600));
        self
    }

    /// Bound of each lane's admission queue (clamped to ≥ 1; default
    /// 1024).
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n.max(1);
        self
    }

    /// Installs an abstention [`Confidence`] policy on every lane.
    pub fn confidence(mut self, c: Confidence) -> Self {
        self.confidence = Some(c);
        self
    }

    /// Creates the (initially empty) router.
    pub fn build(self) -> Router {
        Router {
            core: Arc::new(RouterCore {
                lanes: RwLock::new(BTreeMap::new()),
                policy: LanePolicy {
                    max_batch: self.max_batch,
                    max_wait: self.max_wait,
                    confidence: self.confidence,
                },
                queue_cap: self.queue_cap,
                closed: AtomicBool::new(false),
                fair: Arc::new(FairShare::default()),
            }),
        }
    }
}

/// The multi-model serving router: one admission layer over N named,
/// runtime-registered model deployments, each served by its own
/// EDF-batching lane. See the [module docs](crate::router) for the
/// dataflow and contracts.
///
/// ```
/// use oplixnet::router::{Priority, Router, RouterRequest};
/// use oplixnet::zoo::{build_fcnn, FcnnConfig, ModelVariant};
/// use oplix_photonics::decoder::DecoderKind;
/// use oplix_photonics::svd_map::MeshStyle;
/// use oplix_linalg::Complex64;
/// use rand::{rngs::StdRng, SeedableRng};
/// use std::time::Duration;
///
/// let mut rng = StdRng::seed_from_u64(11);
/// let variant = ModelVariant::Split(DecoderKind::Merge);
/// let small = build_fcnn(&FcnnConfig { input: 4, hidden: 4, classes: 2 }, variant, &mut rng);
/// let large = build_fcnn(&FcnnConfig { input: 6, hidden: 5, classes: 3 }, variant, &mut rng);
///
/// let router = Router::builder().max_batch(16).build();
/// router.register("small", &small, variant.detection(), MeshStyle::Clements).unwrap();
/// router.register("large", &large, variant.detection(), MeshStyle::Clements).unwrap();
///
/// let client = router.client();
/// let a = client
///     .submit(RouterRequest::new("small", vec![Complex64::ONE; 4]).priority(Priority::Interactive))
///     .unwrap();
/// let b = client
///     .submit(RouterRequest::new("large", vec![Complex64::i(); 6]).deadline_in(Duration::from_secs(5)))
///     .unwrap();
/// assert!(a.wait().is_ok() && b.wait().is_ok());
///
/// let stats = router.stats();
/// assert_eq!(stats.models.len(), 2);
/// let engines = router.shutdown(); // drains every lane, hands the engines back
/// assert_eq!(engines.len(), 2);
/// ```
pub struct Router {
    core: Arc<RouterCore>,
}

impl Router {
    /// Starts configuring a router; finish with [`RouterBuilder::build`].
    pub fn builder() -> RouterBuilder {
        RouterBuilder::default()
    }

    /// Registers a model under `name`, deploying `net` through the
    /// process-wide deploy cache (two registrations over identical
    /// weights share one cached decomposition) and spawning its lane.
    ///
    /// # Errors
    ///
    /// [`Error::DuplicateModel`] if `name` is already registered,
    /// [`Error::Deploy`] if the network cannot be deployed,
    /// [`Error::ServerClosed`] after shutdown.
    pub fn register(
        &self,
        name: impl Into<String>,
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<(), Error> {
        let (hits0, miss0) = crate::deploy::thread_cache_counts();
        let engine = InferenceEngine::from_network(net, detection, style)?;
        let (hits1, miss1) = crate::deploy::thread_cache_counts();
        // Fully cache-served deployment: at least one hit and zero
        // misses on this thread during the deploy.
        self.register_with(name.into(), engine, miss1 == miss0 && hits1 > hits0)
    }

    /// [`Router::register`] for CNN bodies that need an explicit input
    /// shape (see [`InferenceEngine::from_network_shaped`]).
    ///
    /// # Errors
    ///
    /// As [`Router::register`].
    pub fn register_shaped(
        &self,
        name: impl Into<String>,
        net: &Network,
        input_shape: Option<(usize, usize, usize)>,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<(), Error> {
        let (hits0, miss0) = crate::deploy::thread_cache_counts();
        let engine = InferenceEngine::from_network_shaped(net, input_shape, detection, style)?;
        let (hits1, miss1) = crate::deploy::thread_cache_counts();
        self.register_with(name.into(), engine, miss1 == miss0 && hits1 > hits0)
    }

    /// Registers an already-built engine under `name` (no cache
    /// involvement; [`ModelStats::cache_shared`] reports `false`).
    ///
    /// # Errors
    ///
    /// [`Error::DuplicateModel`] if `name` is already registered,
    /// [`Error::ServerClosed`] after shutdown.
    pub fn register_engine(
        &self,
        name: impl Into<String>,
        engine: InferenceEngine,
    ) -> Result<(), Error> {
        self.register_with(name.into(), engine, false)
    }

    fn register_with(
        &self,
        name: String,
        engine: InferenceEngine,
        cache_shared: bool,
    ) -> Result<(), Error> {
        let core = &self.core;
        if core.closed.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let mut lanes = relock(core.lanes.write());
        if lanes.contains_key(&name) {
            return Err(Error::DuplicateModel { model: name });
        }
        let input_dim = engine.input_dim();
        let optical_stages = engine.deployed().num_optical_stages();
        let weight = optical_stages.max(1) as u64;
        let fair_id = core.fair.register();
        let (tx, rx) = mpsc::sync_channel::<LaneEnvelope>(core.queue_cap);
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::new(core.policy.max_batch));
        let gate = Arc::new(VersionGate::new());
        let deadline_missed = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let deadline_missed = Arc::clone(&deadline_missed);
            let fair = Arc::clone(&core.fair);
            let policy = core.policy;
            thread::Builder::new()
                .name(format!("oplix-route-{name}"))
                .spawn(move || {
                    lane_batcher(
                        engine,
                        rx,
                        policy,
                        stop,
                        counters,
                        deadline_missed,
                        fair,
                        fair_id,
                        weight,
                    )
                })
                .expect("failed to spawn a router lane batcher thread")
        };
        lanes.insert(
            name,
            Arc::new(Lane {
                tx: Mutex::new(Some(tx)),
                stop,
                counters,
                gate,
                deadline_missed,
                input_dim,
                queue_cap: core.queue_cap,
                weight,
                fair_id,
                optical_stages,
                cache_shared,
                handle: Mutex::new(Some(handle)),
            }),
        );
        Ok(())
    }

    /// Hot-swaps model `name`'s deployment: `net` deploys through the
    /// process-wide deploy cache (outside the lane's admission path —
    /// serving never pauses for the SVD), then a swap control rides the
    /// lane queue and applies at a micro-batch boundary, exactly like
    /// [`crate::serve::Server::swap`]. Requests admitted before the swap
    /// are served by the old engine, requests admitted after by the new
    /// one ([`Served::version`] says which). The returned [`SwapTicket`]
    /// resolves to the retired engine once the switch lands.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownModel`] if `name` is not registered,
    /// [`Error::ShapeMismatch`] if the replacement's input width differs
    /// from the lane's, [`Error::Deploy`] if `net` cannot be deployed,
    /// [`Error::ServerClosed`] if the lane (or router) is shutting down.
    pub fn swap_model(
        &self,
        name: &str,
        net: &Network,
        detection: DeployedDetection,
        style: MeshStyle,
    ) -> Result<SwapTicket, Error> {
        let engine = InferenceEngine::from_network(net, detection, style)?;
        self.swap_model_engine(name, engine)
    }

    /// [`Router::swap_model`] over an already-built engine (no cache
    /// involvement).
    ///
    /// # Errors
    ///
    /// As [`Router::swap_model`], minus [`Error::Deploy`]. On error the
    /// candidate engine is dropped.
    pub fn swap_model_engine(
        &self,
        name: &str,
        engine: InferenceEngine,
    ) -> Result<SwapTicket, Error> {
        let lane = relock(self.core.lanes.read())
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownModel {
                model: name.to_string(),
            })?;
        if engine.input_dim() != lane.input_dim {
            return Err(Error::ShapeMismatch {
                expected: lane.input_dim,
                got: engine.input_dim(),
                what: "candidate input width",
            });
        }
        let tx = relock(lane.tx.lock()).clone().ok_or(Error::ServerClosed)?;
        let (reply, rx) = mpsc::channel();
        lane.gate.barrier(|state| {
            let version = state.current + 1;
            tx.send(LaneEnvelope::Control(Control::Swap {
                engine: Box::new(engine),
                version,
                reply,
            }))
            .map_err(|_| Error::ServerClosed)?;
            state.current = version;
            Ok(())
        })?;
        lane.counters.bell.ring();
        Ok(SwapTicket { rx })
    }

    /// Deregisters `name`: admission to the lane closes, every queued
    /// request is served (drain, not drop), and the model's
    /// **currently serving** engine comes back out. Racing submissions
    /// resolve to typed errors ([`Error::UnknownModel`] or
    /// [`Error::ServerClosed`]); none hang. A [`Router::swap_model`]
    /// still queued when the drain begins is aborted cleanly: its
    /// replacement engine comes back through the [`SwapTicket`] as
    /// [`crate::serve::SwapOutcome::Aborted`] (after serving any
    /// already-admitted requests stamped with its version), and the
    /// engine returned here is the one that was serving.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownModel`] if `name` is not registered.
    pub fn deregister(&self, name: &str) -> Result<InferenceEngine, Error> {
        let lane = relock(self.core.lanes.write())
            .remove(name)
            .ok_or_else(|| Error::UnknownModel {
                model: name.to_string(),
            })?;
        // A lane still in the table has never been shut down (shutdown_all
        // empties the table first), so this is reachable only if that
        // invariant breaks — degrade to the typed error rather than panic.
        lane.shutdown().ok_or(Error::ServerClosed)
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        // BTreeMap keys iterate in name order; no extra sort needed.
        relock(self.core.lanes.read()).keys().cloned().collect()
    }

    /// The sample width model `name` expects, if registered.
    pub fn input_dim(&self, name: &str) -> Option<usize> {
        relock(self.core.lanes.read())
            .get(name)
            .map(|l| l.input_dim)
    }

    /// A new cloneable client handle for submitting routed requests.
    pub fn client(&self) -> RouterClient {
        RouterClient {
            core: Arc::clone(&self.core),
        }
    }

    /// Submits one routed request, blocking while the target lane's
    /// queue is at capacity. Equivalent to `self.client().submit(req)`.
    ///
    /// # Errors
    ///
    /// See [`RouterClient::submit`].
    pub fn submit(&self, req: RouterRequest) -> Result<RouterTicket, Error> {
        self.core.submit_inner(req, true)
    }

    /// A snapshot of every lane's counters.
    pub fn stats(&self) -> RouterStats {
        self.core.stats()
    }

    /// Shuts every lane down (draining — every admitted ticket resolves)
    /// and returns the engines, sorted by model name. Submissions racing
    /// the shutdown resolve to [`Error::ServerClosed`].
    pub fn shutdown(self) -> Vec<(String, InferenceEngine)> {
        self.core.shutdown_all()
    }
}

impl Drop for Router {
    /// Dropping the handle shuts every lane down (draining) and discards
    /// the engines.
    fn drop(&mut self) {
        let _ = self.core.shutdown_all();
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("models", &self.models())
            .finish()
    }
}

/// A cheap, cloneable handle for submitting routed requests; clones can
/// submit from independent threads and outlive each other (but not the
/// router's shutdown, which resolves racing submissions to typed
/// errors).
#[derive(Clone)]
pub struct RouterClient {
    core: Arc<RouterCore>,
}

impl RouterClient {
    /// Submits one routed request, blocking while the target lane's
    /// queue is at capacity (backpressure). Returns a ticket resolving
    /// once the lane's EDF batcher has served the sample.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownModel`] for an unregistered target,
    /// [`Error::ShapeMismatch`] for a wrong sample width,
    /// [`Error::DeadlineExceeded`] for an already-passed deadline,
    /// [`Error::ServerClosed`] after shutdown.
    pub fn submit(&self, req: RouterRequest) -> Result<RouterTicket, Error> {
        self.core.submit_inner(req, true)
    }

    /// Non-blocking [`RouterClient::submit`]: a full lane queue surfaces
    /// as [`Error::QueueFull`] instead of blocking.
    ///
    /// # Errors
    ///
    /// [`Error::QueueFull`] on backpressure, plus the
    /// [`RouterClient::submit`] conditions.
    pub fn try_submit(&self, req: RouterRequest) -> Result<RouterTicket, Error> {
        self.core.submit_inner(req, false)
    }

    /// The sample width model `name` expects, if registered.
    pub fn input_dim(&self, name: &str) -> Option<usize> {
        relock(self.core.lanes.read())
            .get(name)
            .map(|l| l.input_dim)
    }
}

impl std::fmt::Debug for RouterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterClient").finish()
    }
}

/// Pops one flush batch off `pending` in EDF order: up to `max_batch`
/// live entries, plus every popped entry whose deadline is already past
/// `now` (returned separately for rejection — expired entries do not
/// occupy batch slots). Pure, so flush-time expiry is unit-testable
/// without real timing.
#[allow(clippy::type_complexity)]
fn take_flush_batch(
    pending: &mut EdfQueue<LaneRequest>,
    max_batch: usize,
    now: Instant,
) -> (Vec<EdfItem<LaneRequest>>, Vec<(LaneRequest, Duration)>) {
    let mut batch = Vec::new();
    let mut expired = Vec::new();
    while batch.len() < max_batch {
        let Some(item) = pending.pop() else { break };
        match item.deadline {
            Some(deadline) if deadline <= now => {
                expired.push((item.value, now - deadline));
            }
            _ => batch.push(item),
        }
    }
    (batch, expired)
}

/// Counts and replies one lane response (the router-side analogue of the
/// serve module's `respond`, plus the fair-share bookkeeping).
fn lane_respond(
    counters: &Counters,
    fair: &FairShare,
    fair_id: u64,
    weight: u64,
    request: &LaneRequest,
    outcome: Result<Served, Error>,
) {
    counters.served.fetch_add(1, Ordering::Relaxed);
    counters.depth.fetch_sub(1, Ordering::Relaxed);
    fair.sub(fair_id, weight);
    if matches!(
        outcome,
        Ok(Served {
            prediction: Prediction::Abstain { .. },
            ..
        })
    ) {
        counters.abstained.fetch_add(1, Ordering::Relaxed);
    }
    // A dropped ticket just means nobody is listening; serving continues.
    let _ = request.reply.send(outcome);
}

/// Serves one popped EDF flush batch through the lane's rack, grouped by
/// stamped version so every request is served by exactly the engine it
/// was admitted under (single-version in steady state; split around a
/// swap boundary).
#[allow(clippy::too_many_arguments)]
fn lane_serve_batch(
    rack: &mut EngineRack,
    policy: &LanePolicy,
    batch: Vec<EdfItem<LaneRequest>>,
    rows: &mut Vec<Complex64>,
    counters: &Counters,
    fair: &FairShare,
    fair_id: u64,
    weight: u64,
    flush_seq: u64,
    now: Instant,
    share: usize,
) {
    let mut batch = batch;
    while !batch.is_empty() {
        let version = batch[0].value.version;
        let (group, rest): (Vec<_>, Vec<_>) = batch
            .into_iter()
            .partition(|item| item.value.version == version);
        batch = rest;
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .batch_fill
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        rows.clear();
        let mut waits = Vec::with_capacity(group.len());
        for item in &group {
            let waited = now.saturating_duration_since(item.value.enqueued_at);
            counters.waits.record(waited);
            waits.push(waited);
            rows.extend_from_slice(&item.value.fields);
        }
        let confidence = rack.confidence(policy.confidence);
        let Some(engine) = rack.engine_for(version) else {
            // Unreachable by construction (every stamped version has a
            // rack slot until its last ticket resolves), but never
            // strand a ticket.
            for item in &group {
                lane_respond(
                    counters,
                    fair,
                    fair_id,
                    weight,
                    &item.value,
                    Err(Error::ServerClosed),
                );
            }
            continue;
        };
        if engine.num_workers() != share {
            engine.set_num_workers(share);
        }
        let emit = move |logits: &[f64]| decide(confidence, logits);
        match engine.serve_rows(rows, &emit) {
            Ok(predictions) => {
                for ((item, prediction), waited) in group.iter().zip(predictions).zip(waits) {
                    lane_respond(
                        counters,
                        fair,
                        fair_id,
                        weight,
                        &item.value,
                        Ok(Served {
                            prediction,
                            flush_seq,
                            waited,
                            version,
                        }),
                    );
                }
            }
            Err(_) => {
                // Isolate the poisoned sample(s), like the single-model
                // batcher: serve each request on its own.
                for (item, waited) in group.iter().zip(waits) {
                    let outcome = engine
                        .serve_rows(&item.value.fields, &emit)
                        .map(|mut v| v.remove(0))
                        .map(|prediction| Served {
                            prediction,
                            flush_seq,
                            waited,
                            version,
                        });
                    lane_respond(counters, fair, fair_id, weight, &item.value, outcome);
                }
            }
        }
    }
}

/// The lane batcher thread body: coalesce into an [`EdfQueue`], flush on
/// `max_batch` / `max_wait` / an imminent deadline, serve in EDF order
/// through the lane's rack with a fair-share worker count. Swap controls
/// ride the same channel as requests; when one arrives, everything
/// admitted before it is flushed first (the micro-batch boundary the
/// swap is atomic at), then the control applies — or, if the lane began
/// draining, the swap aborts and its replacement is handed back at exit.
/// On shutdown, drain to empty so no admitted ticket is lost.
#[allow(clippy::too_many_arguments)]
fn lane_batcher(
    engine: InferenceEngine,
    rx: mpsc::Receiver<LaneEnvelope>,
    policy: LanePolicy,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    deadline_missed: Arc<AtomicU64>,
    fair: Arc<FairShare>,
    fair_id: u64,
    weight: u64,
) -> InferenceEngine {
    // Lane batchers are resident service threads, like the single-model
    // server's: claim one slot of the shared worker budget.
    let _slot = crate::pool::reserve_service_slot();
    let mut rack = EngineRack::new(engine);
    let mut pending: EdfQueue<LaneRequest> = EdfQueue::new();
    let mut rows: Vec<Complex64> = Vec::new();
    let mut flush_seq: u64 = 0;
    let (bell, wakes) = (&counters.bell, &counters.wakes);
    loop {
        let mut control: Option<Control> = None;
        if pending.is_empty() {
            // Sleep, with no timeout, for the first envelope of the next
            // batch. Draining: serve whatever is still queued, then exit.
            let Some(first) = bell.first(&rx, &stop, wakes) else {
                break;
            };
            match first {
                LaneEnvelope::Request(r) => {
                    let arrived = r.enqueued_at;
                    pending.push(r.deadline, r.priority, arrived, r);
                }
                LaneEnvelope::Control(c) => control = Some(c),
            }
        }

        // Coalesce until the batch fills, the oldest request's window
        // closes, a queued deadline would expire inside the window — an
        // imminent deadline cuts the window short — or a swap control
        // arrives. Between drains the lane sleeps on the doorbell, like
        // the single-model batcher; a full batch, an in-window deadline,
        // a control message or shutdown rings it sooner.
        if let Some(oldest) = pending.oldest_arrival().filter(|_| control.is_none()) {
            let window_end = oldest + policy.max_wait;
            'coalesce: loop {
                // Drain the whole backlog, not just enough to fill one
                // batch: flush membership must be decided by the EDF
                // queue, not by arrival order. A request left in the
                // channel is invisible to `take_flush_batch` and would
                // make batch composition FIFO.
                loop {
                    match rx.try_recv() {
                        Ok(LaneEnvelope::Request(r)) => {
                            let arrived = r.enqueued_at;
                            pending.push(r.deadline, r.priority, arrived, r);
                        }
                        Ok(LaneEnvelope::Control(c)) => {
                            control = Some(c);
                            break 'coalesce;
                        }
                        Err(_) => break,
                    }
                }
                if pending.len() >= policy.max_batch
                    || stop.load(Ordering::SeqCst)
                    || Instant::now() >= window_end
                    || pending.earliest_deadline().is_some_and(|d| d <= window_end)
                {
                    break;
                }
                match bell.take(&rx, Some(window_end), &stop, wakes) {
                    Take::Got(LaneEnvelope::Request(r)) => {
                        let arrived = r.enqueued_at;
                        pending.push(r.deadline, r.priority, arrived, r);
                    }
                    Take::Got(LaneEnvelope::Control(c)) => {
                        control = Some(c);
                        break;
                    }
                    Take::Slept => {}
                    Take::Closed => break,
                }
            }
        }

        // Flush: pop in EDF order, reject what already expired, serve
        // the rest with this lane's fair share of the worker budget.
        // With a control in hand, flush *everything* admitted before it
        // (possibly several batches) — the FIFO channel guarantees every
        // old-version request precedes the control, so after this loop
        // no request still needs the engine the control may retire.
        loop {
            let now = Instant::now();
            let (batch, expired) = take_flush_batch(&mut pending, policy.max_batch, now);
            for (request, missed_by) in expired {
                deadline_missed.fetch_add(1, Ordering::Relaxed);
                counters.waits.record(now - request.enqueued_at);
                lane_respond(
                    &counters,
                    &fair,
                    fair_id,
                    weight,
                    &request,
                    Err(Error::DeadlineExceeded { missed_by }),
                );
            }
            // A flush in which *every* popped request had expired leaves
            // an empty batch: skip it entirely — no `batches` increment,
            // no zero-sample engine call, no flush sequence number spent.
            if !batch.is_empty() {
                flush_seq += 1;
                let share = fair.share_for(fair_id, crate::pool::jobs());
                lane_serve_batch(
                    &mut rack, &policy, batch, &mut rows, &counters, &fair, fair_id, weight,
                    flush_seq, now, share,
                );
                counters.publish_stages(rack.stage_stats());
            }
            if control.is_none() || pending.is_empty() {
                break;
            }
        }
        if let Some(c) = control {
            rack.apply(c, stop.load(Ordering::SeqCst), &counters);
        }
    }
    fair.deregister(fair_id);
    rack.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_request(deadline: Option<Instant>) -> LaneRequest {
        let (reply, _rx) = mpsc::channel();
        LaneRequest {
            fields: Vec::new(),
            reply,
            enqueued_at: Instant::now(),
            deadline,
            priority: Priority::Standard,
            version: 1,
        }
    }

    #[test]
    fn edf_orders_by_deadline_then_priority_then_arrival() {
        let now = Instant::now();
        let mut q = EdfQueue::new();
        q.push(None, Priority::Standard, now, 0);
        q.push(Some(now + Duration::from_secs(9)), Priority::Batch, now, 1);
        q.push(
            Some(now + Duration::from_secs(9)),
            Priority::Interactive,
            now,
            2,
        );
        q.push(Some(now + Duration::from_secs(1)), Priority::Batch, now, 3);
        q.push(None, Priority::Interactive, now, 4);
        q.push(None, Priority::Standard, now, 5);

        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.value)).collect();
        // Deadlines first (earliest wins; priority breaks ties), then
        // deadline-less by priority, then arrival.
        assert_eq!(order, [3, 2, 1, 4, 0, 5]);
    }

    #[test]
    fn edf_peeks_earliest_deadline_and_oldest_arrival() {
        let now = Instant::now();
        let mut q = EdfQueue::new();
        assert!(q.earliest_deadline().is_none());
        assert!(q.oldest_arrival().is_none());
        q.push(None, Priority::Standard, now + Duration::from_secs(2), "x");
        assert!(q.earliest_deadline().is_none(), "no entry carries one");
        q.push(
            Some(now + Duration::from_secs(30)),
            Priority::Standard,
            now,
            "y",
        );
        assert_eq!(q.earliest_deadline(), Some(now + Duration::from_secs(30)));
        assert_eq!(q.oldest_arrival(), Some(now));
    }

    #[test]
    fn take_flush_batch_rejects_expired_without_spending_slots() {
        let now = Instant::now();
        let mut pending = EdfQueue::new();
        // Three expired (deadline at or before `now`), two live.
        for i in 0..3 {
            let dl = now - Duration::from_millis(5 + i);
            pending.push(Some(dl), Priority::Standard, now, lane_request(Some(dl)));
        }
        let live = now + Duration::from_secs(60);
        for _ in 0..2 {
            pending.push(
                Some(live),
                Priority::Standard,
                now,
                lane_request(Some(live)),
            );
        }
        let (batch, expired) = take_flush_batch(&mut pending, 2, now);
        assert_eq!(expired.len(), 3, "expired entries are popped eagerly");
        assert_eq!(batch.len(), 2, "expired entries do not occupy batch slots");
        for (_, missed_by) in &expired {
            assert!(*missed_by >= Duration::from_millis(5));
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn fair_shares_split_jobs_by_weighted_depth() {
        // Sole active lane takes the whole budget.
        assert_eq!(fair_shares(8, &[10]), [8]);
        // Idle lanes (weight 0) get no workers; live ones split the rest.
        assert_eq!(fair_shares(8, &[0, 40]), [0, 8]);
        // Proportional split of the budget beyond the per-lane floor.
        assert_eq!(fair_shares(8, &[20, 20]), [4, 4]);
        // A heavily loaded lane dominates, but every live lane keeps the
        // one worker it is.
        assert_eq!(fair_shares(5, &[100, 1, 1, 1]), [2, 1, 1, 1]);
        // Largest-remainder rounding: remainders 2/3 and 1/3 of the one
        // spare worker — the larger remainder (lower index on ties) wins.
        assert_eq!(fair_shares(3, &[2, 1]), [2, 1]);
        // Degenerate budget still grants each live lane its own worker.
        assert_eq!(fair_shares(0, &[5, 5]), [1, 1]);
        // All idle: nothing to grant.
        assert_eq!(fair_shares(8, &[0, 0]), [0, 0]);
    }

    #[test]
    fn fair_shares_never_oversubscribe_when_lanes_exceed_jobs() {
        // The regression this allocator fixes: under the old per-lane
        // `clamp(1, jobs)`, 12 idle-but-nonempty lanes against a 4-worker
        // budget claimed 12 shards each sized up to `jobs`. The summed
        // allocation must now stay within max(jobs, live lanes): the only
        // oversubscription left is the floor that serving lanes
        // physically occupy (each lane thread is itself one worker).
        for jobs in [1usize, 2, 4, 7] {
            for lanes in [1usize, 2, 5, 12] {
                let weights: Vec<u64> = (0..lanes as u64).map(|i| i % 3 + 1).collect();
                let shares = fair_shares(jobs, &weights);
                let live = weights.iter().filter(|w| **w > 0).count();
                let sum: usize = shares.iter().sum();
                assert!(
                    sum <= jobs.max(live),
                    "jobs={jobs} lanes={lanes}: Σ shares {sum} > max(jobs, live) {}",
                    jobs.max(live)
                );
                assert_eq!(sum, jobs.max(1).max(live), "budget is fully spent");
                for (i, &s) in shares.iter().enumerate() {
                    assert!(s >= 1, "live lane {i} keeps one worker");
                    assert!(s <= jobs.max(1), "lane {i} share {s} exceeds the budget");
                }
            }
        }
    }

    #[test]
    fn fair_share_registry_tracks_admissions_and_responses() {
        let fair = FairShare::default();
        let a = fair.register();
        let b = fair.register();
        // Nothing queued anywhere: each lane still runs as itself.
        assert_eq!(fair.share_for(a, 8), 1);
        // Lane `a` takes the whole budget while it is the only live one.
        fair.add(a, 3);
        assert_eq!(fair.share_for(a, 8), 8);
        // A second live lane splits the spare budget by weighted depth.
        fair.add(b, 3);
        assert_eq!(fair.share_for(a, 8), 4);
        assert_eq!(fair.share_for(b, 8), 4);
        // Responses hand the weight back; deregistration frees the slot.
        fair.sub(b, 3);
        assert_eq!(fair.share_for(a, 8), 8);
        fair.deregister(a);
        assert_eq!(fair.share_for(a, 8), 1, "unknown lanes degrade to 1");
    }

    #[test]
    fn lone_lane_request_costs_a_handful_of_wakes_not_a_spin() {
        // The router-lane twin of the serve module's pin: one request in a
        // 20 ms window wakes the idle lane at most once, then the lane
        // sleeps until the window closes instead of spinning through it.
        use crate::zoo::{build_fcnn, FcnnConfig, ModelVariant};
        use oplix_photonics::decoder::DecoderKind;
        use rand::{rngs::StdRng, SeedableRng};

        let variant = ModelVariant::Split(DecoderKind::Merge);
        let cfg = FcnnConfig {
            input: 4,
            hidden: 4,
            classes: 2,
        };
        let net = build_fcnn(&cfg, variant, &mut StdRng::seed_from_u64(110_000));
        let engine = InferenceEngine::from_network(&net, variant.detection(), MeshStyle::Clements)
            .expect("FCNN deploys");
        let router = Router::builder()
            .max_wait(Duration::from_millis(20))
            .build();
        router.register_engine("m", engine).expect("registers");
        let ticket = router
            .submit(RouterRequest::new("m", vec![Complex64::ONE; 4]))
            .expect("admits");
        ticket.wait().expect("serves");
        let lane = relock(router.core.lanes.read())["m"].clone();
        let wakes = lane.counters.wakes.load(Ordering::Relaxed);
        assert!(wakes <= 8, "one lone request woke the lane {wakes} times");
    }
}
