//! The load generator and its completion watcher.
//!
//! A closed loop runs on one thread: it sweeps every in-flight handle,
//! stamps each response the moment it is seen available, and sends the
//! next request at once. An open loop uses two: the calling thread sends
//! on schedule and runs the side actions, one watcher sweeps and stamps.
//! `odq_serve::loadgen` is not used: it stamps a response when the
//! generator gets round to awaiting it, which is after the whole schedule
//! has been submitted.
//!
//! Every outcome is counted exactly; per-request timings are kept in a
//! fixed-size, pre-touched reservoir sample, so the benchmark's own
//! memory does not grow with throughput and `peak_rss_mb` tracks the
//! program.

use std::collections::VecDeque;
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

use odq_serve::{LoadTarget, ResponseHandle, ServeError};

use crate::stack::Inputs;
use crate::util::{Reservoir, Rng};

/// How often the watcher re-polls when nothing completed in a sweep. The
/// actual sleep is the kernel's timer granularity plus this, so a
/// response is stamped within about 0.1 ms of becoming available.
const POLL: Duration = Duration::from_micros(20);
/// Requests whose timings are kept (reservoir sample beyond this).
const SAMPLE: usize = 1 << 15;

#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Poisson arrivals at `rate` per second, each with a deadline. Every
    /// second of the schedule holds exactly `rate` arrivals, so the
    /// offered load does not vary with the seed.
    Open { rate: f64, deadline: Duration },
    /// `window` requests kept in flight. With `in_order` the client
    /// consumes replies in send order, so a slot frees only once every
    /// earlier request is answered (one pipelined connection); otherwise
    /// each reply frees its own slot (independent callers).
    Closed { window: usize, in_order: bool },
}

/// How one request ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, bit-exact with a solo forward of a published version.
    #[default]
    Ok,
    /// Answered with logits no published version produces.
    Wrong,
    /// The client saw the answer sooner than the server says it took.
    ClockViolation,
    QueueFull,
    Deadline,
    /// Any other refusal or failure.
    Failed,
}

fn u32_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn dur(ns: u32) -> Duration {
    Duration::from_nanos(u64::from(ns))
}

/// One request's timings, in ns. `due` counts from the phase start; the
/// rest are durations (saturating at about 4.3 s).
#[derive(Clone, Copy, Debug, Default)]
pub struct Record {
    pub due_ns: u64,
    /// How late the generator sent it (sent − due).
    pub late_ns: u32,
    /// Time spent inside `submit`.
    pub submit_ns: u32,
    /// From the send until the watcher saw the response available.
    pub client_ns: u32,
    /// The server's `RequestTiming`.
    pub server_total_ns: u32,
    pub queue_wait_ns: u32,
    pub service_ns: u32,
    pub outcome: Outcome,
}

impl Record {
    /// Client latency, from when the request was due.
    pub fn latency(&self) -> Duration {
        dur(self.late_ns) + dur(self.client_ns)
    }

    /// Client latency from the actual send.
    pub fn client_total(&self) -> Duration {
        dur(self.client_ns)
    }

    /// Client latency minus the server's own total: wire and hand-off.
    pub fn outside_server(&self) -> Duration {
        dur(self.client_ns.saturating_sub(self.server_total_ns))
    }

    pub fn lateness(&self) -> Duration {
        dur(self.late_ns)
    }

    pub fn submit(&self) -> Duration {
        dur(self.submit_ns)
    }

    pub fn queue_wait(&self) -> Duration {
        dur(self.queue_wait_ns)
    }

    pub fn service(&self) -> Duration {
        dur(self.service_ns)
    }

    pub fn due(&self) -> Duration {
        Duration::from_nanos(self.due_ns)
    }
}

/// Every request of a phase: exact counts and a sample of timings.
pub struct Tally {
    /// The phase start every `Record::due_ns` counts from.
    pub start: Instant,
    pub attempted: u64,
    pub ok: u64,
    pub wrong: u64,
    pub clock_violations: u64,
    pub queue_full: u64,
    pub deadline: u64,
    pub other_failed: u64,
    /// The measured window, from `start`.
    pub window: Duration,
    /// Correct answers seen available before the window closed.
    pub ok_in_window: u64,
    /// Correct answers within the workload's latency limit.
    pub ok_within_slo: u64,
    pub sample: Reservoir<Record>,
}

impl Tally {
    pub fn new(seed: u64, window: Duration) -> Self {
        Self {
            start: Instant::now(),
            attempted: 0,
            ok: 0,
            wrong: 0,
            clock_violations: 0,
            queue_full: 0,
            deadline: 0,
            other_failed: 0,
            window,
            ok_in_window: 0,
            ok_within_slo: 0,
            sample: Reservoir::new(SAMPLE, seed),
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Correct answers per second over the window.
    pub fn rate(&self) -> f64 {
        self.ok_in_window as f64 / self.window.as_secs_f64()
    }

    pub fn add(&mut self, r: Record, slo: Duration) {
        self.attempted += 1;
        match r.outcome {
            Outcome::Ok => {
                self.ok += 1;
                if r.due() + r.latency() < self.window {
                    self.ok_in_window += 1;
                }
                if r.latency() <= slo {
                    self.ok_within_slo += 1;
                }
            }
            Outcome::Wrong => self.wrong += 1,
            Outcome::ClockViolation => self.clock_violations += 1,
            Outcome::QueueFull => self.queue_full += 1,
            Outcome::Deadline => self.deadline += 1,
            Outcome::Failed => self.other_failed += 1,
        }
        self.sample.push(r);
    }
}

/// Periodic work the generator does between sends (hot swaps, scrapes).
pub trait Side {
    /// When the next action is due, if any.
    fn next_due(&self) -> Option<Instant>;
    /// Run every action due by now.
    fn run_due(&mut self, now: Instant);
}

/// No side actions.
pub struct NoSide;

impl Side for NoSide {
    fn next_due(&self) -> Option<Instant> {
        None
    }

    fn run_due(&mut self, _now: Instant) {}
}

/// The next model by smooth weighted round robin: the request mix is the
/// same exact interleaving on every seed (only the images vary).
struct Mix {
    weights: Vec<f64>,
    credit: Vec<f64>,
}

impl Mix {
    fn next(&mut self) -> usize {
        let total: f64 = self.weights.iter().sum();
        for (c, w) in self.credit.iter_mut().zip(&self.weights) {
            *c += w;
        }
        let i = (0..self.credit.len())
            .max_by(|&a, &b| self.credit[a].total_cmp(&self.credit[b]).then(b.cmp(&a)))
            .expect("at least one model");
        self.credit[i] -= total;
        i
    }
}

/// Arrival offsets within `window`: in each second, exactly `rate`
/// arrivals placed as a Poisson process conditioned on that count
/// (uniform order statistics, from normalised exponential gaps). The
/// offered load per second is then the same on every seed.
fn open_schedule(rng: &mut Rng, rate: f64, window: Duration) -> Vec<Duration> {
    let total = window.as_secs_f64();
    let mut out = Vec::new();
    let mut t0 = 0.0;
    while t0 < total {
        let len = (total - t0).min(1.0);
        let n = (rate * len).round() as usize;
        let mut at = Vec::with_capacity(n + 1);
        let mut t = 0.0;
        for _ in 0..=n {
            t += rng.exp_gap(1.0).as_secs_f64();
            at.push(t);
        }
        at.pop();
        out.extend(at.into_iter().map(|x| Duration::from_secs_f64(t0 + x * len / t)));
        t0 += len;
    }
    out
}

/// A request in flight.
struct Flight {
    handle: ResponseHandle,
    /// Send order within the phase.
    seq: u64,
    model: u8,
    image: u32,
    rec: Record,
}

/// Builds and submits the requests of one phase.
struct Generator<'a> {
    target: &'a dyn LoadTarget,
    inputs: &'a Inputs,
    mix: Mix,
    rng: Rng,
    deadline: Option<Duration>,
    start: Instant,
    sent: u64,
}

impl Generator<'_> {
    /// Submit the next request, due at `due`: in flight, or refused.
    fn send(&mut self, due: Instant) -> Result<Flight, Record> {
        let model = self.mix.next();
        let image = self.rng.below(self.inputs.models[model].images.len());
        let mut req = self.inputs.request(model, image);
        req.deadline = self.deadline;
        let sent = Instant::now();
        let r = self.target.submit(req);
        let submit = sent.elapsed();
        let rec = Record {
            due_ns: (due - self.start).as_nanos() as u64,
            late_ns: u32_ns(sent.saturating_duration_since(due)),
            submit_ns: u32_ns(submit),
            ..Record::default()
        };
        self.sent += 1;
        match r {
            Ok(handle) => {
                Ok(Flight { handle, seq: self.sent, model: model as u8, image: image as u32, rec })
            }
            Err(e) => Err(Record { client_ns: rec.submit_ns, outcome: outcome_of(&e), ..rec }),
        }
    }
}

fn outcome_of(e: &ServeError) -> Outcome {
    match e {
        ServeError::QueueFull => Outcome::QueueFull,
        ServeError::DeadlineExceeded => Outcome::Deadline,
        _ => Outcome::Failed,
    }
}

/// Poll every in-flight request once; stamp and check each response that
/// is available and hand it to `done` with its stamp and send order.
/// Whether any was.
fn sweep(
    pending: &mut Vec<Flight>,
    inputs: &Inputs,
    start: Instant,
    mut done: impl FnMut(Record, Instant, u64),
) -> bool {
    let mut any = false;
    let mut i = 0;
    while i < pending.len() {
        let Some(result) = pending[i].handle.try_wait() else {
            i += 1;
            continue;
        };
        let now = Instant::now();
        let Flight { seq, model, image, mut rec, .. } = pending.swap_remove(i);
        any = true;
        let sent = start + rec.due() + rec.lateness();
        rec.client_ns = u32_ns(now.saturating_duration_since(sent));
        rec.outcome = match result {
            Err(e) => outcome_of(&e),
            Ok(resp) => {
                let t = resp.timing;
                rec.server_total_ns = u32_ns(t.total);
                rec.queue_wait_ns = u32_ns(t.queue_wait);
                rec.service_ns = u32_ns(t.service);
                let m = &inputs.models[model as usize];
                if rec.client_total() < t.total {
                    Outcome::ClockViolation
                } else if m.matching_version(image as usize, resp.output.as_slice()).is_some() {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
        };
        done(rec, now, seq);
    }
    any
}

/// Drive `target` for `window`, then drain every request sent.
pub fn drive(
    target: &dyn LoadTarget,
    inputs: &Inputs,
    arrivals: Arrivals,
    seed: u64,
    window: Duration,
    slo: Duration,
    side: &mut dyn Side,
) -> Tally {
    let weights: Vec<f64> = inputs.models.iter().map(|m| m.weight).collect();
    let mut rng = Rng::new(seed);
    let (schedule, deadline) = match arrivals {
        Arrivals::Open { rate, deadline } => {
            (open_schedule(&mut rng, rate, window), Some(deadline))
        }
        Arrivals::Closed { .. } => (Vec::new(), None),
    };
    let mut tally = Tally::new(seed ^ 0x7a11, window);
    let gen = Generator {
        target,
        inputs,
        mix: Mix { credit: vec![0.0; weights.len()], weights },
        rng,
        deadline,
        start: Instant::now(),
        sent: 0,
    };
    tally.start = gen.start;
    match arrivals {
        Arrivals::Closed { window: n, in_order } => {
            closed_loop(gen, n, in_order, window, slo, tally)
        }
        Arrivals::Open { .. } => open_loop(gen, &schedule, window, slo, side, tally),
    }
}

/// Closed loop on one thread: every response is stamped the moment it
/// is seen available, and each freed slot sends the next request at
/// once, due when the slot freed. See [`Arrivals::Closed`] for when a
/// slot frees.
fn closed_loop(
    mut gen: Generator,
    n: usize,
    in_order: bool,
    window: Duration,
    slo: Duration,
    mut tally: Tally,
) -> Tally {
    let (start, inputs) = (gen.start, gen.inputs);
    let end = start + window;
    let mut pending: Vec<Flight> = Vec::with_capacity(n);
    // The window in send order: (seq, when answered).
    let mut order: VecDeque<(u64, Option<Instant>)> = VecDeque::with_capacity(n);
    let mut freed: Vec<Instant> = Vec::with_capacity(n);
    loop {
        let any = sweep(&mut pending, inputs, start, |rec, now, seq| {
            tally.add(rec, slo);
            if in_order {
                let first = order.front().expect("answered request is in the window").0;
                order[(seq - first) as usize].1 = Some(now);
            } else {
                freed.push(now);
            }
        });
        // In order, the answered prefix of the window frees together, at
        // the moment its last member was answered.
        let mut gate: Option<Instant> = None;
        while let Some(&(_, Some(t))) = order.front() {
            let g = gate.map_or(t, |g| g.max(t));
            gate = Some(g);
            freed.push(g);
            order.pop_front();
        }
        let now = Instant::now();
        if now >= end && pending.is_empty() {
            return tally;
        }
        if now < end {
            // Refill every free slot: those just freed (due when freed),
            // then any a refused submit left empty (due now).
            let mut due = freed.drain(..).chain(std::iter::repeat(now));
            while order.len().max(pending.len()) < n {
                match gen.send(due.next().expect("endless")) {
                    Ok(f) => {
                        if in_order {
                            order.push_back((f.seq, None));
                        }
                        pending.push(f);
                    }
                    Err(rec) => {
                        tally.add(rec, slo);
                        break;
                    }
                }
            }
        }
        freed.clear();
        if !any {
            std::thread::sleep(POLL);
        }
    }
}

/// Open loop: this thread sends on schedule and runs the side actions;
/// one watcher thread stamps completions.
fn open_loop(
    mut gen: Generator,
    schedule: &[Duration],
    window: Duration,
    slo: Duration,
    side: &mut dyn Side,
    tally: Tally,
) -> Tally {
    let (start, inputs) = (gen.start, gen.inputs);
    let end = start + window;
    let (tx, rx) = mpsc::channel::<Result<Flight, Record>>();
    std::thread::scope(|scope| {
        let watcher = scope.spawn(move || watch(rx, inputs, start, slo, tally));
        for &at in schedule {
            let due = start + at;
            loop {
                let now = Instant::now();
                match side.next_due() {
                    Some(d) if d <= now => side.run_due(now),
                    _ if due <= now => break,
                    next => {
                        let wake = next.map_or(due, |d| d.min(due));
                        std::thread::sleep(wake.saturating_duration_since(now));
                    }
                }
            }
            tx.send(gen.send(due)).expect("watcher alive");
        }
        // Keep the side actions on schedule to the end of the window.
        while let Some(d) = side.next_due().filter(|&d| d < end) {
            std::thread::sleep(d.saturating_duration_since(Instant::now()));
            side.run_due(Instant::now());
        }
        drop(tx);
        watcher.join().expect("watcher thread")
    })
}

/// The open loop's watcher: collect in-flight requests from the
/// generator and sweep them until it stops and all are answered.
fn watch(
    rx: mpsc::Receiver<Result<Flight, Record>>,
    inputs: &Inputs,
    start: Instant,
    slo: Duration,
    mut tally: Tally,
) -> Tally {
    let mut pending: Vec<Flight> = Vec::new();
    let mut open = true;
    let take = |m: Result<Flight, Record>, pending: &mut Vec<Flight>, tally: &mut Tally| match m {
        Ok(f) => pending.push(f),
        Err(rec) => tally.add(rec, slo),
    };
    loop {
        if pending.is_empty() && open {
            // Idle: block until the generator sends (or stops).
            match rx.recv() {
                Ok(m) => take(m, &mut pending, &mut tally),
                Err(_) => open = false,
            }
        }
        while open {
            match rx.try_recv() {
                Ok(m) => take(m, &mut pending, &mut tally),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if pending.is_empty() && !open {
            return tally;
        }
        if !sweep(&mut pending, inputs, start, |rec, _, _| tally.add(rec, slo)) {
            std::thread::sleep(POLL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_interleaves_exactly() {
        let mut m = Mix { weights: vec![0.6, 0.4], credit: vec![0.0; 2] };
        let picks: Vec<usize> = (0..10).map(|_| m.next()).collect();
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 6);
    }

    #[test]
    fn open_schedule_offers_the_rate_every_second() {
        let s = open_schedule(&mut Rng::new(3), 200.0, Duration::from_millis(2500));
        assert_eq!(s.len(), 500);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let first = s.iter().filter(|&&d| d < Duration::from_secs(1)).count();
        assert_eq!(first, 200);
        assert!(*s.last().unwrap() < Duration::from_millis(2500));
    }
}
