//! Clocks that leave out the time the host takes the virtual CPUs away.
//!
//! On a shared virtual machine the host preempts the guest's CPUs
//! ("steal"), and wall time then grows with the host's load rather than
//! with the program's work. The guest kernel leaves steal out of the CPU
//! time it accounts to a thread, so compute-bound figures are taken in
//! CPU time ([`process_cpu`], [`thread_cpu`]). Latency is wall time by
//! nature; it is taken per window, and only over the windows the host
//! stole least from ([`StealLog`], [`crate::workloads::steady_percentile`]).
//!
//! The host's load also changes how fast a virtual CPU runs (clock
//! boost, a busy sibling hyperthread) without taking it away: the same
//! training job took 20 % more CPU time in one run than in the next. So
//! single-threaded work is timed between two runs of a fixed reference
//! loop in the benchmark's own code ([`calibrate`]), on the same thread,
//! and its CPU time is reported scaled to the speed at which that loop
//! takes [`NOMINAL`]. (Work spread over several threads is not scaled:
//! a calibration on one virtual CPU did not track the others, and
//! scaling by it widened the spread.)

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids of the calling process's and thread's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// CPU time every thread of this process has used, exited ones included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the process used while `f` ran.
pub fn cpu<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let p0 = process_cpu();
    let out = f();
    (out, process_cpu() - p0)
}

/// Host steal so far, summed over every CPU, in the kernel's reporting
/// ticks (1/100 s); 0 where `/proc/stat` does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// CPU time of one [`reference_loop`] at the speed scaled figures are
/// given at (about what it takes on a 2-vCPU x86-64 cloud VM).
pub const NOMINAL: Duration = Duration::from_micros(200);

/// Elements of each reference array: 2 × 32 KiB of `f64`, about the
/// working set of a mesh kernel call.
const REFERENCE_LEN: usize = 4096;
/// Passes over the arrays per reference loop.
const REFERENCE_PASSES: usize = 128;

/// A fixed floating-point loop: eight independent multiply-add chains
/// over two cache-resident arrays, the kind of work the mesh kernels and
/// GEMM do. It calls nothing outside this file, so no change to the
/// program under test moves it.
fn reference_loop(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    for pass in 0..REFERENCE_PASSES {
        let k = 1.0 + pass as f64 * 1e-9;
        for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for j in 0..8 {
                acc[j] = acc[j] * 0.5 + x[j] * y[j] * k;
            }
        }
    }
    acc.iter().sum()
}

/// The speeds measured in this run, each with when it was measured.
static CALIBRATIONS: Mutex<Vec<(Instant, f64)>> = Mutex::new(Vec::new());

fn calibrations() -> std::sync::MutexGuard<'static, Vec<(Instant, f64)>> {
    CALIBRATIONS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Times the reference loop three times on the calling thread, logs the
/// fastest, and returns the speed it gives ([`NOMINAL`] over it; 1 if the
/// clock did not move).
pub fn calibrate() -> f64 {
    let a: Vec<f64> = (0..REFERENCE_LEN).map(|i| (i % 97) as f64 * 0.01).collect();
    let b: Vec<f64> = (0..REFERENCE_LEN).map(|i| (i % 89) as f64 * 0.01).collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = thread_cpu();
        black_box(reference_loop(black_box(&a), black_box(&b)));
        best = best.min((thread_cpu() - start).as_secs_f64());
    }
    if best > 0.0 && best.is_finite() {
        let speed = NOMINAL.as_secs_f64() / best;
        calibrations().push((Instant::now(), speed));
        speed
    } else {
        1.0
    }
}

/// Forgets the calibrations of an earlier run.
pub fn reset_speed() {
    calibrations().clear();
}

/// How fast the CPU ran this run against the nominal speed: the median
/// of the speeds [`calibrate`] measured (1 before any). A CPU time `t`
/// reads `t × speed()` at the nominal speed.
pub fn speed() -> f64 {
    let mut speeds: Vec<f64> = calibrations().iter().map(|c| c.1).collect();
    speeds.sort_by(f64::total_cmp);
    speeds.get(speeds.len() / 2).copied().unwrap_or(1.0)
}

/// How often [`with_steal_log`] reads the steal counter.
pub const STEAL_PERIOD: Duration = Duration::from_millis(20);

/// Readings of the host steal counter, in time order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StealLog(pub Vec<(Instant, u64)>);

impl StealLog {
    /// Steal ticks between the last reading at or before `from` and the
    /// first at or after `to`; 0 when the log does not cover the span.
    pub fn between(&self, from: Instant, to: Instant) -> u64 {
        let before = self.0.iter().rev().find(|r| r.0 <= from);
        let after = self.0.iter().find(|r| r.0 >= to);
        match (before, after) {
            (Some(b), Some(a)) => a.1.saturating_sub(b.1),
            _ => 0,
        }
    }
}

/// Runs `f` while a helper thread reads the steal counter every
/// [`STEAL_PERIOD`]; the helper has ended when this returns.
pub fn with_steal_log<T>(f: impl FnOnce() -> T) -> (T, StealLog) {
    /// Stops the reader even when `f` unwinds, so the scope can end.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut log = vec![(Instant::now(), steal_ticks())];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(STEAL_PERIOD);
                log.push((Instant::now(), steal_ticks()));
            }
            log
        });
        let guard = Stop(&stop);
        let out = f();
        drop(guard);
        let log = reader.join().unwrap_or_default();
        (out, StealLog(log))
    })
}
