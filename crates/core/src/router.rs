//! Multi-model serving router: one admission layer over N named model
//! deployments with deadline-aware (EDF) micro-batching.
//!
//! The [`crate::serve`] front end owns exactly one deployed model.
//! Production photonic serving is multi-tenant: many models
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
//! * **Per-model lanes**: each registered model is one lane of the
//!   serving runtime a [`crate::serve::Server`] runs — a bounded queue, a
//!   dedicated batcher thread over its own [`InferenceEngine`], a version
//!   gate and counters — plus its name and its slot in the fair share.
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
//! * **EDF batching**: a lane flushes on `max_batch` or `max_wait` after
//!   its oldest pending arrival, and its pending set is an [`EdfQueue`]:
//!   flushes pop by earliest deadline, then priority class, then arrival
//!   (a server's lane, with neither, pops in admission order). A
//!   deadline that would expire inside the coalescing window cuts the
//!   window short, and a request found expired at flush time is rejected
//!   with [`Error::DeadlineExceeded`] instead of wasting mesh cycles.
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
use crate::lane::{relock, Lane, Policy, Reply, Share};
use crate::serve::{Prediction, ServerStats, SwapTicket};
use oplix_linalg::Complex64;
use oplix_nn::network::Network;
use oplix_photonics::svd_map::MeshStyle;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
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

/// The scheduling key of one queued entry, ordered field by field:
/// earliest deadline first (`no_deadline` sorts deadline-less entries
/// after every deadline), then priority class, then admission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EdfKey {
    no_deadline: bool,
    deadline: Option<Instant>,
    priority: Priority,
    seq: u64,
}

struct EdfEntry<T> {
    key: EdfKey,
    arrived: Instant,
    value: T,
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
/// push order. This is the pending set of every serving lane; it is
/// public so schedulers and property tests can exercise the ordering
/// directly.
///
/// The entries are kept sorted, so the head is the next to pop. An entry
/// pushed in scheduling order — the common case: one priority class, and
/// deadlines that grow with arrival or none at all — lands at the back;
/// only one that overtakes queued entries shifts them.
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
    /// Every queued entry, ascending by key.
    entries: VecDeque<EdfEntry<T>>,
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
            entries: VecDeque::new(),
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
            no_deadline: deadline.is_none(),
            deadline,
            priority,
            seq: self.seq,
        };
        self.seq += 1;
        let at = self.entries.partition_point(|e| e.key < key);
        self.entries.insert(
            at,
            EdfEntry {
                key,
                arrived,
                value,
            },
        );
    }

    /// Pops the scheduling-first entry, if any.
    pub fn pop(&mut self) -> Option<EdfItem<T>> {
        let e = self.entries.pop_front()?;
        Some(EdfItem {
            deadline: e.key.deadline,
            priority: e.key.priority,
            arrived: e.arrived,
            value: e.value,
        })
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The earliest deadline among queued entries (`None` if no entry
    /// carries one). O(1): it is the head's deadline unless the head is
    /// deadline-less, in which case nothing has one.
    pub fn earliest_deadline(&self) -> Option<Instant> {
        self.entries.front()?.key.deadline
    }

    /// The earliest arrival among queued entries — what anchors the
    /// `max_wait` flush window. O(n).
    pub fn oldest_arrival(&self) -> Option<Instant> {
        self.entries.iter().map(|e| e.arrived).min()
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
    reply: Reply,
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
    pub fn wait(self) -> Result<Served, Error> {
        self.reply.wait()
    }

    /// Non-blocking poll: `None` while queued or in flight,
    /// `Some(result)` once resolved (repeat calls return the same
    /// result).
    pub fn try_wait(&mut self) -> Option<Result<Served, Error>> {
        self.reply.try_wait()
    }
}

/// Per-lane weighted queue depths (`queued requests × optical weight`),
/// keyed by lane registration id — the inputs to the largest-remainder
/// split of the `--jobs` worker budget. A registry rather than a single
/// router-wide sum: computing every lane's share from one consistent
/// snapshot is what keeps the *summed* allocation bounded (the old
/// per-lane `clamp(1, jobs)` let N idle-but-nonempty lanes claim N >
/// jobs shards in aggregate).
#[derive(Default)]
pub(crate) struct FairShare {
    lanes: Mutex<BTreeMap<u64, u64>>,
    next_id: AtomicU64,
}

impl FairShare {
    /// Adds a lane to the registry (weighted depth 0) and returns its id.
    pub(crate) fn register(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        relock(self.lanes.lock()).insert(id, 0);
        id
    }

    /// Removes a lane; its workers return to the splittable budget.
    pub(crate) fn deregister(&self, id: u64) {
        relock(self.lanes.lock()).remove(&id);
    }

    /// One admission: the lane's weighted depth grows by its weight.
    pub(crate) fn add(&self, id: u64, weight: u64) {
        if let Some(w) = relock(self.lanes.lock()).get_mut(&id) {
            *w += weight;
        }
    }

    /// One response: the admission's weight is handed back.
    pub(crate) fn sub(&self, id: u64, weight: u64) {
        if let Some(w) = relock(self.lanes.lock()).get_mut(&id) {
            *w = w.saturating_sub(weight);
        }
    }

    /// Lane `id`'s share of the `jobs` budget under one consistent
    /// registry snapshot, floored at the one worker the lane itself is
    /// (a lane about to serve a batch always runs at least itself).
    pub(crate) fn share_for(&self, id: u64, jobs: usize) -> usize {
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

/// One registered model: its lane (whose fair-share hook carries the
/// model's registration id and scheduling weight) plus what its
/// registration reports.
struct Model {
    lane: Lane,
    /// The deployment's optical stage count; the lane's scheduling
    /// weight is this, floored at 1.
    optical_stages: usize,
    cache_shared: bool,
}

/// Everything the router handle and its clients share.
struct RouterCore {
    // Name-ordered, so every walk over the lane table — stats snapshots,
    // shutdown drains — is deterministic by construction (the
    // determinism-hazards lint forbids hash iteration on serving paths).
    lanes: RwLock<BTreeMap<String, Arc<Model>>>,
    policy: Policy,
    queue_cap: usize,
    closed: AtomicBool,
    fair: Arc<FairShare>,
}

impl RouterCore {
    /// The registered model `name`.
    fn model(&self, name: &str) -> Result<Arc<Model>, Error> {
        relock(self.lanes.read())
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownModel {
                model: name.to_string(),
            })
    }

    fn submit_inner(&self, req: RouterRequest, blocking: bool) -> Result<RouterTicket, Error> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let model = self.model(&req.model)?;
        let lane = &model.lane;
        lane.check_width(req.fields.len(), "sample width")?;
        if let Some(deadline) = req.deadline {
            let now = Instant::now();
            if now >= deadline {
                // Refuse before the request costs a queue slot: a result
                // nobody can use should not spend mesh cycles.
                lane.counters
                    .deadline_missed
                    .fetch_add(1, Ordering::Relaxed);
                return Err(Error::DeadlineExceeded {
                    missed_by: now - deadline,
                });
            }
        }
        let (_, reply) = lane.admit(req.fields, None, req.deadline, req.priority, blocking)?;
        Ok(RouterTicket { reply })
    }

    fn stats(&self) -> RouterStats {
        let lanes = relock(self.lanes.read());
        let mut models = BTreeMap::new();
        let mut shared = 0;
        for (name, model) in lanes.iter() {
            if model.cache_shared {
                shared += 1;
            }
            let counters = &model.lane.counters;
            models.insert(
                name.clone(),
                ModelStats {
                    serve: model.lane.stats(),
                    deadline_missed: counters.deadline_missed.load(Ordering::Relaxed),
                    wait_p50: counters.waits.quantile(0.5),
                    wait_p99: counters.waits.quantile(0.99),
                    cache_shared: model.cache_shared,
                    optical_stages: model.optical_stages,
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
        // BTreeMap iteration is already name-ordered; no sort needed for a
        // deterministic shutdown sequence.
        let lanes = std::mem::take(&mut *relock(self.lanes.write()));
        lanes
            .into_iter()
            .filter_map(|(name, model)| model.lane.shutdown().map(|engine| (name, engine)))
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
    policy: Policy,
    queue_cap: usize,
}

impl Default for RouterBuilder {
    fn default() -> Self {
        RouterBuilder {
            policy: Policy::default(),
            queue_cap: 1024,
        }
    }
}

impl RouterBuilder {
    /// Flush a lane's micro-batch at this many samples (clamped to ≥ 1;
    /// default 64).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.policy.max_batch = n.max(1);
        self
    }

    /// Flush once a lane's oldest queued request has waited this long
    /// (default 1 ms; clamped to ≤ 1 h). A queued deadline that would
    /// expire sooner cuts the window short.
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.policy.max_wait = d.min(Duration::from_secs(3600));
        self
    }

    /// Bound of each lane's admission queue (clamped to ≥ 1; default
    /// 1024). A lane's batcher takes requests off its queue only while it
    /// holds fewer than `max(queue_cap, max_batch)`.
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n.max(1);
        self
    }

    /// Installs an abstention [`Confidence`] policy on every lane.
    pub fn confidence(mut self, c: Confidence) -> Self {
        self.policy.confidence = Some(c);
        self
    }

    /// Creates the (initially empty) router.
    pub fn build(self) -> Router {
        Router {
            core: Arc::new(RouterCore {
                lanes: RwLock::new(BTreeMap::new()),
                policy: self.policy,
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
        self.register_shaped(name, net, None, detection, style)
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
        // Fully cache-served deployment: at least one hit and zero
        // misses on this thread during the deploy.
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
        let optical_stages = engine.deployed().num_optical_stages();
        let share = Share {
            registry: Arc::clone(&core.fair),
            id: core.fair.register(),
            weight: optical_stages.max(1) as u64,
        };
        let lane = Lane::spawn(
            format!("oplix-route-{name}"),
            engine,
            core.policy,
            core.queue_cap,
            None,
            Some(share),
        );
        let model = Model {
            lane,
            optical_stages,
            cache_shared,
        };
        lanes.insert(name, Arc::new(model));
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
        self.core.model(name)?.lane.swap(engine)
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
        let model = relock(self.core.lanes.write())
            .remove(name)
            .ok_or_else(|| Error::UnknownModel {
                model: name.to_string(),
            })?;
        // A lane still in the table has never been shut down (shutdown_all
        // empties the table first), so this is reachable only if that
        // invariant breaks — degrade to the typed error rather than panic.
        model.lane.shutdown().ok_or(Error::ServerClosed)
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        // BTreeMap keys iterate in name order; no extra sort needed.
        relock(self.core.lanes.read()).keys().cloned().collect()
    }

    /// The sample width model `name` expects, if registered.
    pub fn input_dim(&self, name: &str) -> Option<usize> {
        self.core.model(name).ok().map(|m| m.lane.input_dim)
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
        self.core.model(name).ok().map(|m| m.lane.input_dim)
    }
}

impl std::fmt::Debug for RouterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterClient").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{take_flush_batch, Request};
    use std::sync::mpsc;

    fn lane_request(deadline: Option<Instant>) -> Request {
        let (reply, _rx) = mpsc::channel();
        Request {
            fields: Vec::new(),
            label: None,
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
    fn edf_queue_pops_like_a_sorted_reference_in_and_out_of_order() {
        // In-order pushes (growing deadlines, one class) land at the back,
        // overtaking ones are inserted ahead of queued entries. Interleaved
        // with pops, the queue must pop exactly what a sorted reference
        // pops and agree on its head.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let now = Instant::now();
        let at = |us: u64| now + Duration::from_micros(us);
        let mut rng = StdRng::seed_from_u64(110_100);
        let (mut q, mut reference) = (EdfQueue::new(), Vec::new());
        for step in 0..4000u64 {
            if rng.gen_range(0..3) == 0 {
                let got = q
                    .pop()
                    .map(|e| (e.deadline, e.priority, e.value, e.arrived));
                let want = (!reference.is_empty()).then(|| reference.remove(0));
                assert_eq!(got, want.map(|(_, d, p, v, a)| (d, p, v, a)));
            } else {
                let (deadline, priority) = match rng.gen_range(0..4) {
                    0 => (None, Priority::Standard),
                    1 => (Some(at(rng.gen_range(0..=step))), Priority::Interactive),
                    _ => (Some(at(step)), Priority::Standard),
                };
                let arrived = at(rng.gen_range(0..1000));
                q.push(deadline, priority, arrived, step);
                reference.push((deadline.is_none(), deadline, priority, step, arrived));
                reference.sort();
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.earliest_deadline(), reference.first().and_then(|r| r.1));
            assert_eq!(q.oldest_arrival(), reference.iter().map(|r| r.4).min());
        }
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
        let wakes = lane.lane.counters.wakes.load(Ordering::Relaxed);
        assert!(wakes <= 8, "one lone request woke the lane {wakes} times");
    }
}
