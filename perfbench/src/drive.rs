//! The load generator: the seeded open loop. It submits and polls
//! tickets from the calling thread, sleeping in short ticks instead of
//! spinning, so on a small machine the generator leaves the batcher its
//! core.

use crate::schedule::Arrival;
use oplixnet::{Prediction, RouterTicket, Ticket};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Sleep between polls of the in-flight tickets.
pub const TICK: Duration = Duration::from_micros(50);

/// A served reply, reduced to what the checks need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Predicted class.
    pub class: usize,
    /// Deployment version that served the request.
    pub version: u64,
    /// Admission-to-flush queue wait, where the layer reports it.
    pub waited: Option<Duration>,
}

/// A ticket the generators can poll.
pub trait Pending {
    /// `None` while in flight; the reply or a failure once resolved.
    fn poll(&mut self) -> Option<Result<Reply, String>>;
}

fn class_of(p: &Prediction) -> Result<usize, String> {
    p.class()
        .ok_or_else(|| format!("unexpected abstention: {p:?}"))
}

impl Pending for Ticket {
    fn poll(&mut self) -> Option<Result<Reply, String>> {
        let version = self.version();
        let done = self.try_wait()?;
        Some(done.map_err(|e| e.to_string()).and_then(|p| {
            Ok(Reply {
                class: class_of(&p)?,
                version,
                waited: None,
            })
        }))
    }
}

impl Pending for RouterTicket {
    fn poll(&mut self) -> Option<Result<Reply, String>> {
        let done = self.try_wait()?;
        Some(done.map_err(|e| e.to_string()).and_then(|s| {
            Ok(Reply {
                class: class_of(&s.prediction)?,
                version: s.version,
                waited: Some(s.waited),
            })
        }))
    }
}

/// One resolved (or refused) request, as handed to the generator's
/// `on_done` callback.
#[derive(Clone, Debug)]
pub struct Done {
    /// Position in the schedule; doubles as the request id.
    pub index: usize,
    /// Input row.
    pub row: usize,
    /// Lane tag.
    pub lane: u8,
    /// When the request was due.
    pub due: Instant,
    /// When the generator called submit.
    pub submit_start: Instant,
    /// When submit returned.
    pub submit_end: Instant,
    /// When the generator saw the reply.
    pub seen: Instant,
    /// The reply, or why the request failed.
    pub result: Result<Reply, String>,
}

impl Done {
    /// Latency from due time to the reply, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.seen - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator submitted, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.submit_start
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3
    }

    /// Time inside the submit call, in microseconds.
    pub fn submit_us(&self) -> f64 {
        (self.submit_end - self.submit_start).as_secs_f64() * 1e6
    }
}

/// What a generator run did.
#[derive(Clone, Copy, Debug)]
pub struct LoopRun {
    /// Requests handed to `on_done` (resolved or refused).
    pub resolved: usize,
    /// Requests scheduled but never sent or never resolved (a stall
    /// past the loop's time limit).
    pub missing: usize,
    /// Wall time of the loop.
    pub wall: Duration,
}

struct InFlight<T> {
    index: usize,
    row: usize,
    lane: u8,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: T,
}

impl<T> InFlight<T> {
    fn with_ticket<U>(self, ticket: U) -> InFlight<U> {
        InFlight {
            index: self.index,
            row: self.row,
            lane: self.lane,
            due: self.due,
            submit_start: self.submit_start,
            submit_end: self.submit_end,
            ticket,
        }
    }

    fn done(&self, seen: Instant, result: Result<Reply, String>) -> Done {
        Done {
            index: self.index,
            row: self.row,
            lane: self.lane,
            due: self.due,
            submit_start: self.submit_start,
            submit_end: self.submit_end,
            seen,
            result,
        }
    }
}

/// Submits one request; a refusal is resolved on the spot.
fn send<T>(
    index: usize,
    row: usize,
    lane: u8,
    due: Instant,
    submit: impl FnOnce() -> Result<T, String>,
    inflight: &mut VecDeque<InFlight<T>>,
    on_done: &mut impl FnMut(&Done),
) {
    let submit_start = Instant::now();
    let sent = submit();
    let submit_end = Instant::now();
    let f = InFlight {
        index,
        row,
        lane,
        due,
        submit_start,
        submit_end,
        ticket: (),
    };
    match sent {
        Ok(ticket) => inflight.push_back(f.with_ticket(ticket)),
        Err(e) => on_done(&f.done(submit_end, Err(e))),
    }
}

fn poll_all<T: Pending>(inflight: &mut VecDeque<InFlight<T>>, on_done: &mut impl FnMut(&Done)) {
    let seen = Instant::now();
    inflight.retain_mut(|f| match f.ticket.poll() {
        None => true,
        Some(result) => {
            on_done(&f.done(seen, result));
            false
        }
    });
}

/// Sends `schedule` open loop: every request goes out at its due time
/// whatever the replies do, and latency counts from the due time. Each
/// resolved request goes to `on_done`. Gives up `grace` after the last
/// due time if replies stall.
pub fn open_loop<T: Pending>(
    schedule: &[Arrival],
    grace: Duration,
    mut submit: impl FnMut(&Arrival, Instant) -> Result<T, String>,
    mut on_done: impl FnMut(&Done),
) -> LoopRun {
    let start = Instant::now();
    let give_up = start + schedule.last().map_or(Duration::ZERO, |a| a.due) + grace;
    let mut inflight: VecDeque<InFlight<T>> = VecDeque::new();
    let (mut next, mut resolved) = (0, 0);
    let mut count = |d: &Done| {
        resolved += 1;
        on_done(d);
    };
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].due <= now {
            let a = &schedule[next];
            let due = start + a.due;
            send(
                next,
                a.row,
                a.lane,
                due,
                || submit(a, due),
                &mut inflight,
                &mut count,
            );
            next += 1;
        }
        poll_all(&mut inflight, &mut count);
        let now = Instant::now();
        if (next == schedule.len() && inflight.is_empty()) || now > give_up {
            break;
        }
        let wake = schedule.get(next).map_or(now + TICK, |a| start + a.due);
        std::thread::sleep(
            wake.saturating_duration_since(now)
                .clamp(Duration::from_micros(1), TICK),
        );
    }
    LoopRun {
        resolved,
        missing: schedule.len() - resolved,
        wall: start.elapsed(),
    }
}
