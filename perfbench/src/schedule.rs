//! Seeded open-loop arrival schedules, built in full before timing
//! starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One scheduled request: when it is due (from the start of the loop),
/// which input row it carries, and which lane it targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, relative to the start of the open loop.
    pub due: Duration,
    /// Index into the workload's input pool.
    pub row: usize,
    /// Lane tag (0 for single-lane workloads).
    pub lane: u8,
}

/// A generator stream derived from the run seed and a per-use tag, so
/// schedules and inputs drawn from one seed never share a stream.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Poisson arrivals at `rate` per second over `horizon`, each carrying a
/// uniformly drawn row of a `pool`-row input set.
pub fn poisson(
    rng: &mut StdRng,
    rate: f64,
    horizon: Duration,
    pool: usize,
    lane: u8,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * horizon.as_secs_f64() * 1.05) as usize + 16);
    let mut t = 0.0f64;
    let end = horizon.as_secs_f64();
    loop {
        // Inverse-CDF exponential gap; 1 − u keeps the log finite.
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            row: rng.gen_range(0..pool),
            lane,
        });
    }
}

/// A burst every `period` (the first at half a period), each of a
/// seeded size in `sizes`, every request of a burst due at its start.
pub fn bursts(
    rng: &mut StdRng,
    period: Duration,
    sizes: std::ops::RangeInclusive<usize>,
    horizon: Duration,
    pool: usize,
    lane: u8,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = period / 2;
    while t < horizon {
        let size = rng.gen_range(sizes.clone());
        for _ in 0..size {
            out.push(Arrival {
                due: t,
                row: rng.gen_range(0..pool),
                lane,
            });
        }
        t += period;
    }
    out
}

/// Merges schedules into one due-ordered schedule (stable: equal due
/// times keep their input order).
pub fn merge(parts: Vec<Vec<Arrival>>) -> Vec<Arrival> {
    let mut all: Vec<Arrival> = parts.into_iter().flatten().collect();
    all.sort_by_key(|a| a.due);
    all
}
