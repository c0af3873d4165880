//! The lane runtime: the one coalesce → flush → apply-control → respond
//! loop behind both serving front ends.
//!
//! A *lane* is one deployed model behind a bounded queue and a batcher
//! thread. [`crate::serve::Server`] is a facade over a single lane, and
//! every model of a [`crate::router::Router`] is a lane plus its name and
//! its slot in the router's fair share of the `--jobs` budget. Both get
//! all of their serving machinery from here:
//!
//! * **Admission** ([`Lane::admit`]) counts the request into the live
//!   depth, then stamps the serving version and sends under the
//!   [`VersionGate`]'s read side, and rings the [`Doorbell`] only when the
//!   batcher must wake for it.
//! * **Coalescing** ([`run`]): the pending set is an [`EdfQueue`], popped
//!   by earliest deadline, then priority class, then arrival. With no
//!   deadlines and one class that is admission order, so a server flushes
//!   FIFO. A window ends `max_wait` after the oldest pending arrival, or
//!   sooner on a full batch, a deadline inside the window, a control
//!   message or shutdown.
//! * **Serving** ([`serve_batch`]): a flush is grouped by stamped version
//!   and served through the [`EngineRack`], with this lane's fair share of
//!   the worker budget if it has one. A batch poisoned by one sample
//!   (non-finite logits) falls back to serving each request alone, so only
//!   that sample gets an error, and a request found expired at flush time
//!   is rejected with [`Error::DeadlineExceeded`].
//! * **Version changes** ([`Control`]) ride the same FIFO as requests and
//!   apply at a micro-batch boundary, after every request admitted before
//!   them has been served.
//! * **Drift**: a lane given a [`PhaseDrift`] takes one step after each
//!   served batch. After the last batch of a cycle that ends in a control,
//!   the control applies first and the step follows, so every batch sees
//!   one chip state.

use crate::engine::{argmax, Confidence, InferenceEngine, StageStats};
use crate::error::Error;
use crate::router::{EdfQueue, FairShare, Priority, Served};
use crate::serve::{CanaryStats, Prediction, ServerStats, SwapOutcome, SwapTicket, VersionTally};
use oplix_linalg::Complex64;
use oplix_photonics::PhaseDrift;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

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

/// One queued request: the staged sample, an optional ground-truth label
/// for canary tallies, the version stamped at admission, the scheduling
/// key (deadline, priority class, admission time; the admission time
/// also anchors the flush window and the wait stats) and the reply
/// channel.
pub(crate) struct Request {
    pub(crate) fields: Vec<Complex64>,
    pub(crate) label: Option<usize>,
    pub(crate) version: u64,
    pub(crate) deadline: Option<Instant>,
    pub(crate) priority: Priority,
    pub(crate) enqueued_at: Instant,
    pub(crate) reply: mpsc::Sender<Result<Served, Error>>,
}

/// What flows through a lane queue: data requests interleaved with
/// version-change controls. Because the queue is FIFO and controls are
/// published under the version gate's write lock, a control is popped
/// *after* every request stamped with the old version and *before* every
/// request stamped with the new one.
pub(crate) enum Envelope {
    Request(Request),
    Control(Control),
}

/// A version-change command riding the data queue. A router lane only
/// ever receives [`Control::Swap`]; the canary controls come from a
/// [`crate::serve::Server`].
pub(crate) enum Control {
    /// Replace the current engine with `engine`, serving as `version`
    /// from this micro-batch boundary on.
    Swap {
        engine: Box<InferenceEngine>,
        version: u64,
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
    /// Stage `engine` as the canary candidate, the version its `tallies`
    /// name; admissions stamped with it serve through `engine` while the
    /// tallies accumulate.
    Canary {
        engine: Box<InferenceEngine>,
        confidence: Option<Confidence>,
        tallies: Arc<CanaryCounters>,
    },
    /// End the canary run: make the candidate current (`promote`) or
    /// discard it, leaving the baseline the lane.
    Settle {
        promote: bool,
        reply: mpsc::Sender<Result<SwapOutcome, Error>>,
    },
}

/// The version gate's guarded state: the current serving version and the
/// live canary run, if one is staged.
pub(crate) struct GateState {
    pub(crate) current: u64,
    pub(crate) canary: Option<Arc<CanaryCounters>>,
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
                    c.candidate.version
                } else {
                    state.current
                }
            }
            None => state.current,
        };
        send(version)?;
        if let Some(c) = &state.canary {
            if let Some(slot) = c.slot(version) {
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
#[derive(Default)]
pub(crate) struct VersionTallyCounters {
    pub(crate) version: u64,
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
            ..Default::default()
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
/// plus the split parameters, so a snapshot is self-describing, and the
/// split's draw count.
pub(crate) struct CanaryCounters {
    fraction: f64,
    seed: u64,
    /// Admissions drawn so far: the index of the next draw.
    drawn: AtomicU64,
    baseline: VersionTallyCounters,
    pub(crate) candidate: VersionTallyCounters,
}

impl CanaryCounters {
    pub(crate) fn new(baseline: u64, candidate: u64, fraction: f64, seed: u64) -> Self {
        CanaryCounters {
            fraction,
            seed,
            drawn: AtomicU64::new(0),
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

    pub(crate) fn snapshot(&self) -> CanaryStats {
        CanaryStats {
            fraction: self.fraction,
            seed: self.seed,
            baseline: self.baseline.snapshot(),
            candidate: self.candidate.snapshot(),
        }
    }
}

/// Log₂-bucketed wait-time tracker: each admitted request's queue wait
/// (admission → flush) lands in the bucket of its nanosecond count's bit
/// length, so the whole distribution is a fixed array of relaxed atomic
/// counters — recordable from the batcher's hot path without locks, and
/// cheap enough that every lane carries one. Quantiles come back as the
/// upper bound of the bucket the cumulative count crosses (≤ 2× the true
/// value, which is plenty for p50/p99 SLO reporting).
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
/// coalescing (asleep until its window closes). `AWAKE` is 0, the
/// derived default of a new [`Doorbell`].
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

/// The one wait a lane's batcher sleeps in. It sleeps with no timeout
/// while idle and until its window closes while coalescing; only these
/// rings wake it sooner:
///
/// * the first admission while it is idle;
/// * an admission that brings the live depth to `max_batch` while it
///   coalesces;
/// * an admission whose deadline may fall inside the window;
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
#[derive(Default)]
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
            max_batch: max_batch as u64,
            ..Default::default()
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

/// Process-lifetime counters shared by a lane's handle, its clients and
/// its batcher thread — the one shape the single-model server and every
/// router lane report through.
#[derive(Default)]
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
    /// Requests rejected for a passed deadline, at admission or at flush
    /// time.
    pub(crate) deadline_missed: AtomicU64,
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
            bell: Doorbell::new(max_batch),
            ..Default::default()
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
/// A lane's flush policy plus its optional confidence policy.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Policy {
    pub(crate) max_batch: usize,
    pub(crate) max_wait: Duration,
    pub(crate) confidence: Option<Confidence>,
}

impl Default for Policy {
    /// One 64-sample engine window within 1 ms, no confidence policy.
    fn default() -> Self {
        Policy {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            confidence: None,
        }
    }
}

/// A router lane's slot in its router's [`FairShare`] registry. Each
/// admission adds `weight` to the lane's weighted depth and each response
/// hands it back; each flush sizes the engine's worker count to the
/// lane's share of the `--jobs` budget. A lane without one (a
/// [`crate::serve::Server`]) leaves its engine's worker count alone.
#[derive(Clone)]
pub(crate) struct Share {
    pub(crate) registry: Arc<FairShare>,
    pub(crate) id: u64,
    pub(crate) weight: u64,
}

/// One lane's handle: the admission side of its queue, the state its
/// clients and batcher share, and the batcher thread.
pub(crate) struct Lane {
    /// Admission side of the queue. The batcher's drain ends on the stop
    /// flag, not on a disconnect.
    tx: mpsc::SyncSender<Envelope>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) counters: Arc<Counters>,
    /// The version barrier: admissions stamp and send under its read
    /// side, version changes publish under its write side.
    pub(crate) gate: VersionGate,
    pub(crate) input_dim: usize,
    pub(crate) queue_cap: usize,
    /// A deadline sooner than one window from admission may fall inside
    /// the coalescing window, whose cut must not wait for it to close.
    max_wait: Duration,
    share: Option<Share>,
    handle: Mutex<Option<thread::JoinHandle<InferenceEngine>>>,
}

impl Lane {
    /// Spawns the batcher thread `name` over `engine` and returns the
    /// lane's handle. `drift` wanders the live meshes between batches;
    /// `share` ties the lane into a router's fair share.
    pub(crate) fn spawn(
        name: String,
        engine: InferenceEngine,
        policy: Policy,
        queue_cap: usize,
        drift: Option<PhaseDrift>,
        share: Option<Share>,
    ) -> Lane {
        let input_dim = engine.input_dim();
        let (tx, rx) = mpsc::sync_channel(queue_cap);
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::new(policy.max_batch));
        let handle = {
            let (stop, counters, share) = (Arc::clone(&stop), Arc::clone(&counters), share.clone());
            thread::Builder::new()
                .name(name)
                .spawn(move || {
                    let hold = queue_cap.max(policy.max_batch);
                    run(engine, rx, policy, hold, stop, counters, drift, share)
                })
                .expect("failed to spawn a lane batcher thread")
        };
        Lane {
            tx,
            stop,
            counters,
            gate: VersionGate::new(),
            input_dim,
            queue_cap,
            max_wait: policy.max_wait,
            share,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Refuses a width `got` (of `what`) other than the lane's fan-in.
    pub(crate) fn check_width(&self, got: usize, what: &'static str) -> Result<(), Error> {
        if got == self.input_dim {
            Ok(())
        } else {
            Err(Error::ShapeMismatch {
                expected: self.input_dim,
                got,
                what,
            })
        }
    }

    /// Admits one request, blocking while the queue is full or, when not
    /// `blocking`, refusing with [`Error::QueueFull`].
    /// Returns the version stamped on it — the version whose engine will
    /// serve it — and the reply to wait on.
    pub(crate) fn admit(
        &self,
        fields: Vec<Complex64>,
        label: Option<usize>,
        deadline: Option<Instant>,
        priority: Priority,
        blocking: bool,
    ) -> Result<(u64, Reply), Error> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        let (reply, rx) = mpsc::channel();
        let enqueued_at = Instant::now();
        // Count the request in before the send: once queued, the batcher
        // may answer it, and hand the counts back, before this thread
        // resumes.
        self.counters.reserve();
        if let Some(s) = &self.share {
            s.registry.add(s.id, s.weight);
        }
        // Stamp + send under the gate's read side, so no version barrier
        // can land between the stamp and the queue send.
        let sent = self.gate.admit(|version| {
            let request = Envelope::Request(Request {
                fields,
                label,
                version,
                deadline,
                priority,
                enqueued_at,
                reply,
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
                let urgent = deadline.is_some_and(|d| d <= Instant::now() + self.max_wait);
                self.counters.admitted(urgent);
                Ok((version, Reply { rx, done: None }))
            }
            Err(e) => {
                self.counters.unreserve();
                if let Some(s) = &self.share {
                    s.registry.sub(s.id, s.weight);
                }
                if matches!(e, Error::QueueFull { .. }) {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Swaps the lane to `engine` at the next micro-batch boundary: every
    /// request admitted before the call is served by the old engine,
    /// every later one by `engine`, as version `current + 1`.
    pub(crate) fn swap(&self, engine: InferenceEngine) -> Result<SwapTicket, Error> {
        self.check_width(engine.input_dim(), "candidate input width")?;
        self.gate.barrier(|state| {
            if state.canary.is_some() {
                return Err(Error::CanaryActive);
            }
            let version = state.current + 1;
            let (reply, rx) = mpsc::channel();
            self.send_control(Control::Swap {
                engine: Box::new(engine),
                version,
                reply,
            })?;
            state.current = version;
            Ok(SwapTicket { rx })
        })
    }

    /// Publishes a version-change control into the queue, while the lane
    /// is live, and rings the batcher, so the change applies at the next
    /// micro-batch boundary rather than when the coalescing window closes.
    pub(crate) fn send_control(&self, control: Control) -> Result<(), Error> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(Error::ServerClosed);
        }
        self.tx
            .send(Envelope::Control(control))
            .map_err(|_| Error::ServerClosed)?;
        self.counters.bell.ring();
        Ok(())
    }

    /// A snapshot of the lane's counters at its current version.
    pub(crate) fn stats(&self) -> ServerStats {
        self.counters.snapshot(self.gate.version())
    }

    /// Stops the lane, drains its queue and joins the batcher, handing
    /// the serving engine back. Idempotent; `None` after the first call.
    pub(crate) fn shutdown(&self) -> Option<InferenceEngine> {
        self.stop.store(true, Ordering::SeqCst);
        self.counters.bell.ring();
        relock(self.handle.lock())
            .take()
            .map(|h| h.join().expect("lane batcher thread panicked"))
    }
}

/// The reply side of one admitted request, which both ticket types poll.
#[derive(Debug)]
pub(crate) struct Reply {
    rx: mpsc::Receiver<Result<Served, Error>>,
    done: Option<Result<Served, Error>>,
}

impl Reply {
    /// Blocks until the request resolves. A lane that stopped without
    /// serving it resolves it to [`Error::ServerClosed`].
    pub(crate) fn wait(mut self) -> Result<Served, Error> {
        if let Some(done) = self.done.take() {
            return done;
        }
        self.rx.recv().unwrap_or(Err(Error::ServerClosed))
    }

    /// `None` while the request is queued or in flight; once it has
    /// resolved, its result, on every call.
    pub(crate) fn try_wait(&mut self) -> Option<Result<Served, Error>> {
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
    /// The lane's own confidence policy.
    confidence: Option<Confidence>,
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
    pub(crate) fn new(engine: InferenceEngine, confidence: Option<Confidence>) -> Self {
        EngineRack {
            current_version: 1,
            current: engine,
            candidate: None,
            confidence,
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
    /// live, else the lane's own.
    pub(crate) fn confidence(&self) -> Option<Confidence> {
        self.confidence_override.or(self.confidence)
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
                    let _ = reply.send(Ok(self.install(version, *engine, counters)));
                }
            }
            Control::Canary {
                engine,
                confidence,
                tallies,
            } => {
                // Always installed, even while draining: requests stamped
                // with the candidate version may sit behind this control.
                self.candidate = Some((tallies.candidate.version, *engine));
                self.confidence_override = confidence;
                self.tallies = Some(tallies);
            }
            Control::Settle { promote, reply } => {
                let _ = reply.send(self.settle(promote, draining, counters));
            }
        }
    }

    /// Makes `engine` the current version, retiring the old current.
    fn install(
        &mut self,
        version: u64,
        engine: InferenceEngine,
        counters: &Counters,
    ) -> SwapOutcome {
        let retired = std::mem::replace(&mut self.current, engine);
        self.current_version = version;
        counters.swaps.fetch_add(1, Ordering::Relaxed);
        SwapOutcome::Applied { retired, version }
    }

    /// Ends the canary run: a promote installs the candidate, a rollback
    /// retires it. Neither applies while draining.
    fn settle(
        &mut self,
        promote: bool,
        draining: bool,
        counters: &Counters,
    ) -> Result<SwapOutcome, Error> {
        if draining {
            return Err(Error::ServerClosed);
        }
        let (version, engine) = self.candidate.take().ok_or(Error::NoCanary)?;
        self.confidence_override = None;
        self.tallies = None;
        Ok(if promote {
            self.install(version, engine, counters)
        } else {
            SwapOutcome::Applied {
                retired: engine,
                version: self.current_version,
            }
        })
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

/// The batcher thread body of every lane, by the rules in the module
/// docs. It takes requests off the channel only while fewer than `hold`
/// are pending, so a lane never holds more than `hold` requests beyond
/// its queue bound. On shutdown it drains the queue to empty, so no
/// admitted ticket is lost, and a swap that arrives while draining aborts
/// and hands its replacement back at exit.
#[allow(clippy::too_many_arguments)]
fn run(
    engine: InferenceEngine,
    rx: mpsc::Receiver<Envelope>,
    policy: Policy,
    hold: usize,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    mut drift: Option<PhaseDrift>,
    share: Option<Share>,
) -> InferenceEngine {
    // The batcher is a resident service thread: claim one slot of the
    // shared worker budget so engines + grids + lanes stay ≈ `--jobs`.
    let _slot = crate::pool::reserve_service_slot();
    let mut rack = EngineRack::new(engine, policy.confidence);
    let mut pending: EdfQueue<Request> = EdfQueue::new();
    let mut rows: Vec<Complex64> = Vec::new();
    let mut flush_seq: u64 = 0;
    let (bell, wakes) = (&counters.bell, &counters.wakes);
    let push = |pending: &mut EdfQueue<Request>, r: Request| {
        pending.push(r.deadline, r.priority, r.enqueued_at, r);
    };
    'serve: loop {
        let mut control: Option<Control> = None;
        // Sleep, with no timeout, for the first envelope of the next
        // batch. Draining: serve whatever is still queued, then exit.
        while pending.is_empty() && control.is_none() {
            match bell.take(&rx, None, &stop, wakes) {
                Take::Got(Envelope::Request(r)) => push(&mut pending, r),
                Take::Got(Envelope::Control(c)) => control = Some(c),
                Take::Slept => {}
                Take::Closed => break 'serve,
            }
        }

        // Coalesce until the batch fills, the oldest request's window
        // closes, a queued deadline would expire inside the window, a
        // control message arrives or shutdown begins. Between drains the
        // lane sleeps on the doorbell until the window closes; only a
        // full batch, an in-window deadline, a control message or
        // shutdown rings it sooner.
        if let Some(oldest) = pending.oldest_arrival().filter(|_| control.is_none()) {
            let window_end = oldest + policy.max_wait;
            'coalesce: loop {
                // Drain the backlog up to `hold`, not just enough to fill
                // one batch: flush membership must be decided by the EDF
                // queue, not by arrival order, and a request left in the
                // channel is invisible to `take_flush_batch`. The cap keeps
                // the channel the lane's backpressure: under overload the
                // channel fills and `submit` blocks or `try_submit` sheds.
                while pending.len() < hold {
                    match rx.try_recv() {
                        Ok(Envelope::Request(r)) => push(&mut pending, r),
                        Ok(Envelope::Control(c)) => {
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
                    Take::Got(Envelope::Request(r)) => push(&mut pending, r),
                    Take::Got(Envelope::Control(c)) => {
                        control = Some(c);
                        break;
                    }
                    Take::Slept => {}
                    Take::Closed => break,
                }
            }
        }

        // Flush: pop in EDF order, reject what already expired, serve the
        // rest. With a control in hand, flush *everything* admitted before
        // it (possibly several batches) — the FIFO channel guarantees every
        // old-version request precedes the control, so after this loop no
        // request still needs the engine the control may retire.
        loop {
            let now = Instant::now();
            let (batch, expired) = take_flush_batch(&mut pending, policy.max_batch, now);
            for (request, missed_by) in expired {
                counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                counters.waits.record(now - request.enqueued_at);
                let outcome = Err(Error::DeadlineExceeded { missed_by });
                respond(&counters, share.as_ref(), request, outcome);
            }
            // A flush in which *every* popped request had expired serves
            // nothing: no `batches` increment, no zero-sample engine call,
            // no flush sequence number spent, no drift step.
            let served = !batch.is_empty();
            if served {
                flush_seq += 1;
                serve_batch(
                    &mut rack,
                    batch,
                    &mut rows,
                    &counters,
                    share.as_ref(),
                    flush_seq,
                    now,
                );
                // Publish the serving engine's per-stage stats (chip
                // reports plus per-stage timers) for the next snapshot.
                *relock(counters.stages.lock()) = rack.current.stage_stats();
            }
            // The control applies after the last batch admitted before it,
            // and before that batch's drift step.
            let last = control.is_none() || pending.is_empty();
            if let Some(c) = control.take_if(|_| last) {
                rack.apply(c, stop.load(Ordering::SeqCst), &counters);
            }
            // Phases wander between batches, never within one.
            if let Some(d) = drift.as_mut().filter(|_| served) {
                rack.drift(d);
            }
            if last {
                break;
            }
        }
    }
    if let Some(s) = &share {
        s.registry.deregister(s.id);
    }
    rack.finish()
}

/// Pops one flush batch off `pending` in EDF order: up to `max_batch`
/// live entries, plus every popped entry whose deadline is already past
/// `now` (returned separately for rejection — expired entries do not
/// occupy batch slots). Pure, so flush-time expiry is unit-testable
/// without real timing.
pub(crate) fn take_flush_batch(
    pending: &mut EdfQueue<Request>,
    max_batch: usize,
    now: Instant,
) -> (Vec<Request>, Vec<(Request, Duration)>) {
    let mut batch = Vec::with_capacity(max_batch.min(pending.len()));
    let mut expired = Vec::new();
    while batch.len() < max_batch {
        let Some(item) = pending.pop() else { break };
        match item.deadline {
            Some(deadline) if deadline <= now => expired.push((item.value, now - deadline)),
            _ => batch.push(item.value),
        }
    }
    (batch, expired)
}

/// Serves one flush batch, grouped by stamped version so every request is
/// served by exactly the engine it was admitted under: single-version and
/// in place in steady state, per-version sub-batches (stable order within
/// each) around a version change. `flush_seq` numbers the flush, and
/// `now` is its one clock read, which every wait is measured to.
fn serve_batch(
    rack: &mut EngineRack,
    mut batch: Vec<Request>,
    rows: &mut Vec<Complex64>,
    counters: &Counters,
    share: Option<&Share>,
    flush_seq: u64,
    now: Instant,
) {
    let workers = share.map(|s| s.registry.share_for(s.id, crate::pool::jobs()));
    while !batch.is_empty() {
        let version = batch[0].version;
        let group = if batch.iter().all(|r| r.version == version) {
            std::mem::take(&mut batch)
        } else {
            let (group, rest) = batch.into_iter().partition(|r| r.version == version);
            batch = rest;
            group
        };
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .batch_fill
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        rows.clear();
        for request in &group {
            counters
                .waits
                .record(now.saturating_duration_since(request.enqueued_at));
            rows.extend_from_slice(&request.fields);
        }
        let confidence = rack.confidence();
        let tallies = rack.tallies.clone();
        let Some(engine) = rack.engine_for(version) else {
            // Unreachable by construction (every stamped version has a
            // rack slot until its last ticket resolves), but never strand
            // a ticket.
            for request in group {
                respond(counters, share, request, Err(Error::ServerClosed));
            }
            continue;
        };
        if let Some(workers) = workers.filter(|&w| w != engine.num_workers()) {
            engine.set_num_workers(workers);
        }
        let emit = move |logits: &[f64]| decide(confidence, logits);
        let served = |request: &Request, prediction: Prediction| {
            tally(tallies.as_deref(), request, &prediction);
            Served {
                prediction,
                flush_seq,
                waited: now.saturating_duration_since(request.enqueued_at),
                version,
            }
        };
        match engine.serve_rows(rows, &emit) {
            Ok(predictions) => {
                for (request, prediction) in group.into_iter().zip(predictions) {
                    let outcome = Ok(served(&request, prediction));
                    respond(counters, share, request, outcome);
                }
            }
            Err(_) => {
                // Isolate the poisoned sample(s): per-request error
                // indices are the request's own (single-sample) batch.
                for request in group {
                    let outcome = engine
                        .serve_rows(&request.fields, &emit)
                        .map(|mut v| served(&request, v.remove(0)));
                    respond(counters, share, request, outcome);
                }
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
    let class = prediction.class();
    let verdict = if class.is_some() {
        &slot.accepted
    } else {
        &slot.abstained
    };
    verdict.fetch_add(1, Ordering::Relaxed);
    if let Some(label) = request.label {
        slot.labeled.fetch_add(1, Ordering::Relaxed);
        if class == Some(label) {
            slot.correct.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts one response, hands its fair-share weight back and replies.
fn respond(
    counters: &Counters,
    share: Option<&Share>,
    request: Request,
    outcome: Result<Served, Error>,
) {
    counters.served.fetch_add(1, Ordering::Relaxed);
    counters.depth.fetch_sub(1, Ordering::Relaxed);
    if let Some(s) = share {
        s.registry.sub(s.id, s.weight);
    }
    if outcome.as_ref().is_ok_and(|s| s.prediction.is_abstain()) {
        counters.abstained.fetch_add(1, Ordering::Relaxed);
    }
    // A dropped ticket just means nobody is listening; serving continues.
    let _ = request.reply.send(outcome);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;

    /// A flush in which every request has expired serves nothing: each
    /// request is rejected with the typed error, `batches` stays at zero
    /// and the engine never runs. Only `Router::submit` refuses a passed
    /// deadline at admission, so a deadline of `Instant::now()` admits,
    /// and it has passed by the time any flush reads the clock.
    #[test]
    fn all_expired_flush_never_reaches_the_engine() {
        const N: usize = 5;
        let lane = Lane::spawn(
            "lane".into(),
            engine(90_000),
            Policy::default(),
            N,
            None,
            None,
        );
        let replies: Vec<Reply> = (0..N)
            .map(|_| {
                let fields = vec![Complex64::ONE; lane.input_dim];
                let deadline = Some(Instant::now());
                let admitted = lane.admit(fields, None, deadline, Priority::Standard, true);
                admitted.expect("the lane admits a passed deadline").1
            })
            .collect();
        for reply in replies {
            let outcome = reply.wait();
            assert!(
                matches!(outcome, Err(Error::DeadlineExceeded { .. })),
                "{outcome:?}"
            );
        }
        let stats = lane.stats();
        assert_eq!((stats.batches, stats.served), (0, N as u64));
        let missed = lane.counters.deadline_missed.load(Ordering::Relaxed);
        assert_eq!(missed, N as u64);
        let engine = lane.shutdown().expect("the engine comes back");
        assert_eq!(engine.stats().samples, 0, "the engine never ran");
    }

    /// EDF carves flushes out of a backlog by deadline, not by arrival:
    /// loose deadlines admitted first flush after a later burst of tighter
    /// ones. Holding the stages lock parks the batcher right after the
    /// plug flush, so the whole backlog is queued before it flushes again;
    /// the backlog is whole batches, so no flush waits out a window. A
    /// FIFO batcher would flush the loose requests second.
    #[test]
    fn edf_reorders_flushes_under_deadline_pressure() {
        const MAX_BATCH: usize = 4;
        const LOOSE: usize = 4;
        const TIGHT: usize = 2 * MAX_BATCH;
        let policy = Policy {
            max_batch: MAX_BATCH,
            max_wait: Duration::from_secs(60),
            confidence: None,
        };
        let lane = Lane::spawn("lane".into(), engine(90_100), policy, 64, None, None);
        let admit = |deadline: Option<Duration>| {
            let fields = vec![Complex64::ONE; lane.input_dim];
            let deadline = deadline.map(|d| Instant::now() + d);
            let admitted = lane.admit(fields, None, deadline, Priority::Standard, true);
            admitted.expect("the lane admits").1
        };
        let seq = |reply: Reply| reply.wait().expect("served").flush_seq;

        let parked = relock(lane.counters.stages.lock());
        let plugs: Vec<Reply> = (0..MAX_BATCH).map(|_| admit(None)).collect();
        let plug_seqs: Vec<u64> = plugs.into_iter().map(seq).collect();
        let loose: Vec<Reply> = (0..LOOSE)
            .map(|_| admit(Some(Duration::from_secs(240))))
            .collect();
        let tight: Vec<Reply> = (0..TIGHT)
            .map(|_| admit(Some(Duration::from_secs(120))))
            .collect();
        drop(parked);

        assert_eq!(plug_seqs, [1; MAX_BATCH]);
        let tight_seqs: Vec<u64> = tight.into_iter().map(seq).collect();
        assert_eq!(tight_seqs, [2, 2, 2, 2, 3, 3, 3, 3]);
        let loose_seqs: Vec<u64> = loose.into_iter().map(seq).collect();
        assert_eq!(loose_seqs, [4; LOOSE]);
        assert_eq!(lane.stats().batches, 4);
        lane.shutdown().expect("the engine comes back");
    }
}
