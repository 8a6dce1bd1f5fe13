//! One workload phase: bring the stack up (several times, for a steady
//! set-up time), put the workload's load on it for a window, drain, and
//! keep everything later metrics need.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use odq_accel::{simulate_network, AccelConfig, EnergyModel, LayerWorkload};
use odq_core::engine::OdqEngine;
use odq_core::OdqStats;
use odq_nn::executor::{ConvCtx, ConvExecutor};
use odq_nn::models::Model;
use odq_obs::http_get;
use odq_serve::{Server, StatsSummary};
use odq_tensor::Tensor;

use crate::load::{self, Arrivals, NoSide, Outcome, Record, Side, Tally};
use crate::stack::{bring_up, Inputs, Stack, Workload, ENGINE_BATCH};
use crate::trace::Span;

/// `serve_closed`: requests kept in flight. Two workers hold two batches
/// of `max_batch` = 8; the other 32 queue behind them.
pub const SERVE_WINDOW: usize = 48;
/// `net_closed`: requests pipelined on the one connection (four full
/// batches), replies consumed in send order.
pub const NET_WINDOW: usize = 32;
/// `net_open`: offered load, well below `serve_closed` capacity.
pub const NET_OPEN_RATE: f64 = 200.0;
/// `net_open`: per-request deadline.
pub const NET_OPEN_DEADLINE: Duration = Duration::from_millis(250);
/// `net_open`: hot swap between the two published resnet20 versions.
const DEPLOY_EVERY: Duration = Duration::from_millis(500);
/// `net_open`: `GET /metrics` and `Server::stats` cadence.
const SCRAPE_EVERY: Duration = Duration::from_millis(250);

/// The latency limit a request must meet to count toward `slo_ok_ratio`
/// (per `forward_eval` call in `engine_batch`).
pub fn slo(w: Workload) -> Duration {
    match w {
        Workload::EngineBatch => Duration::from_millis(50),
        Workload::ServeClosed => Duration::from_millis(100),
        Workload::NetClosed => Duration::from_millis(10),
        Workload::NetOpen => Duration::from_millis(50),
    }
}

/// Ledger movement over the timed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct LedgerDelta {
    pub completed: u64,
    pub batches: u64,
    pub rejected: u64,
    pub sim_cycles: f64,
    pub sim_energy_nj: f64,
    pub net_bytes: u64,
    pub net_frames_in: u64,
}

fn rejected(s: &StatsSummary) -> u64 {
    s.rejected_queue_full + s.rejected_deadline + s.rejected_invalid + s.rejected_shutdown
}

impl LedgerDelta {
    fn between(a: &StatsSummary, b: &StatsSummary) -> Self {
        Self {
            completed: b.completed - a.completed,
            batches: b.batches - a.batches,
            rejected: rejected(b) - rejected(a),
            sim_cycles: b.sim_cycles - a.sim_cycles,
            sim_energy_nj: b.sim_energy_nj - a.sim_energy_nj,
            net_bytes: (b.net.bytes_in + b.net.bytes_out) - (a.net.bytes_in + a.net.bytes_out),
            net_frames_in: b.net.frames_in - a.net.frames_in,
        }
    }
}

/// Timings of `net_open`'s side actions.
#[derive(Default)]
pub struct SideTimes {
    pub deploys: Vec<Duration>,
    pub scrapes: Vec<Duration>,
    pub stats: Vec<Duration>,
    /// Scrapes that did not return a parseable exposition.
    pub bad_scrapes: usize,
}

pub struct PhaseOut {
    pub workload: Workload,
    pub setups: Vec<Duration>,
    pub publishes: Vec<Duration>,
    /// The measured window.
    pub window: Duration,
    /// Every request (engine: every `forward_eval` call, its duration as
    /// the client time and, when traced, its conv time as service time).
    pub tally: Tally,
    /// `engine_batch`: total time in `forward_eval` and in conv layers.
    pub forward: Duration,
    pub conv: Duration,
    pub delta: LedgerDelta,
    pub summary: Option<StatsSummary>,
    /// Simulated accelerator cost per image: (cycles, energy in µJ).
    pub sim: (f64, f64),
    pub side: SideTimes,
    pub spans: Vec<Span>,
}

impl PhaseOut {
    /// Wrong answers, client-before-server clock violations and broken
    /// scrapes: any of them fails the run.
    pub fn wrong(&self) -> u64 {
        self.tally.wrong + self.tally.clock_violations + self.side.bad_scrapes as u64
    }
}

/// Run workload `w` on `inputs`: `before` cold bring-ups (all but the
/// last torn down again), `window` of load on the last, then `after`
/// more bring-ups, each torn down at once. `setup_s` is the median of
/// all of them, sampled on both sides of the load.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    (before, after): (usize, usize),
    window: Duration,
    traced: bool,
) -> PhaseOut {
    let mut out = PhaseOut {
        workload: w,
        setups: Vec::new(),
        publishes: Vec::new(),
        window,
        tally: Tally::new(seed, window),
        forward: Duration::ZERO,
        conv: Duration::ZERO,
        delta: LedgerDelta::default(),
        summary: None,
        sim: (0.0, 0.0),
        side: SideTimes::default(),
        spans: Vec::new(),
    };
    for _ in 1..before.max(1) {
        bring(&mut out, inputs, traced).shut_down();
    }
    match bring(&mut out, inputs, traced) {
        Stack::Engine { model, mut engine } => {
            run_engine(&model, &mut engine, inputs, traced, &mut out)
        }
        stack => {
            run_serving(&stack, inputs, seed, traced, &mut out);
            out.summary = stack.shut_down();
        }
    }
    for _ in 0..after {
        bring(&mut out, inputs, traced).shut_down();
    }
    out
}

/// One timed cold bring-up, recorded in `out`.
fn bring(out: &mut PhaseOut, inputs: &Inputs, traced: bool) -> Stack {
    let t = Instant::now();
    let (stack, b) = bring_up(out.workload, inputs);
    if traced {
        let id = out.setups.len() as u64 + 1;
        out.spans.push(Span::new("bringup", id, 0, t, b.total));
        let mut at = t;
        for &p in &b.publishes {
            out.spans.push(Span::new("publish", 0, id, at, p));
            at += p;
        }
    }
    out.setups.push(b.total);
    out.publishes.extend(b.publishes);
    stack
}

/// The serving workloads: load through the stack's target, then the
/// ledger's movement over the window.
fn run_serving(stack: &Stack, inputs: &Inputs, seed: u64, traced: bool, out: &mut PhaseOut) {
    let w = out.workload;
    let (window, slo) = (out.window, slo(w));
    let server = stack.server().expect("serving stack");
    let target = stack.target().expect("serving stack");
    let s0 = server.stats();
    out.tally = match w {
        Workload::ServeClosed => {
            let arrivals = Arrivals::Closed { window: SERVE_WINDOW, in_order: false };
            load::drive(target, inputs, arrivals, seed, window, slo, &mut NoSide)
        }
        Workload::NetClosed => {
            let arrivals = Arrivals::Closed { window: NET_WINDOW, in_order: true };
            load::drive(target, inputs, arrivals, seed, window, slo, &mut NoSide)
        }
        Workload::NetOpen => {
            let arrivals = Arrivals::Open { rate: NET_OPEN_RATE, deadline: NET_OPEN_DEADLINE };
            let addr = stack.metrics_addr().expect("net_open binds /metrics");
            let mut side = NetOpenSide::new(server, addr, traced);
            let t = load::drive(target, inputs, arrivals, seed, window, slo, &mut side);
            out.spans.append(&mut side.spans);
            out.side = side.times;
            t
        }
        Workload::EngineBatch => unreachable!("engine_batch does not serve"),
    };
    out.delta = LedgerDelta::between(&s0, &server.stats());
    let n = out.delta.completed.max(1) as f64;
    out.sim = (out.delta.sim_cycles / n, out.delta.sim_energy_nj / n / 1e3);
    if traced {
        for (i, r) in out.tally.sample.as_slice().iter().enumerate() {
            let id = i as u64 + 1;
            let due = out.tally.start + r.due();
            let sent = due + r.lateness();
            out.spans.push(Span::new("request", id, 0, due, r.latency()));
            out.spans.push(Span::new("submit", 0, id, sent, r.submit()));
            out.spans.push(Span::new("completion", 0, id, sent, r.client_total()));
        }
    }
}

/// `engine_batch`: one thread calling `forward_eval` back to back.
fn run_engine(
    model: &Model,
    engine: &mut OdqEngine,
    inputs: &Inputs,
    traced: bool,
    out: &mut PhaseOut,
) {
    let batches = &inputs.batches;
    let expected = &inputs.models[0].expected[0];
    let slo = slo(Workload::EngineBatch);
    // The ODQ engine's sensitivity profile of the first pass over each
    // distinct batch: it prices the simulated accelerator.
    let mut profiles: Vec<OdqStats> = Vec::new();
    let mut per_batch_calls = vec![0u64; batches.len()];
    let spans = &mut out.spans;
    let window = out.window;
    let start = Instant::now();
    out.tally.start = start;
    let end = start + window;
    let mut i = 0usize;
    while Instant::now() < end {
        let b = i % batches.len();
        let x = &batches[b];
        let t = Instant::now();
        let (y, conv) = if traced {
            let id = i as u64 + 1;
            let mut timed = TimedConv { inner: engine, spans, parent: id, total: Duration::ZERO };
            let y = model.forward_eval(x, &mut timed);
            let conv = timed.total;
            spans.push(Span::new("forward", id, 0, t, t.elapsed()));
            (y, conv)
        } else {
            (model.forward_eval(x, engine), Duration::ZERO)
        };
        let call = t.elapsed();
        out.forward += call;
        out.conv += conv;
        let stats = engine.stats.take();
        if profiles.len() == b {
            profiles.push(stats);
        }
        per_batch_calls[b] += 1;
        let classes = y.dims()[1];
        let ok = y.as_slice().chunks(classes).enumerate().all(|(row, got)| {
            let want = &expected[b * ENGINE_BATCH + row];
            want.iter().zip(got).all(|(a, g)| a.to_bits() == g.to_bits())
        });
        let rec = Record {
            due_ns: (t - start).as_nanos() as u64,
            client_ns: u32::try_from(call.as_nanos()).unwrap_or(u32::MAX),
            service_ns: u32::try_from(conv.as_nanos()).unwrap_or(u32::MAX),
            outcome: if ok { Outcome::Ok } else { Outcome::Wrong },
            ..Record::default()
        };
        out.tally.add(rec, slo);
        i += 1;
    }
    // Per-image simulated cost, weighted by how often each batch ran.
    let em = EnergyModel::default();
    let cfg = AccelConfig::odq();
    let (mut cycles, mut energy, mut n) = (0.0, 0.0, 0.0);
    for (stats, &calls) in profiles.iter().zip(&per_batch_calls) {
        let r = simulate_network(&cfg, &workloads(stats), &em);
        cycles += r.total_cycles * calls as f64;
        energy += r.energy.total_nj() * calls as f64;
        n += calls as f64;
    }
    out.sim = (cycles / n, energy / n / 1e3);
}

/// The simulator's workloads for one batch's measured profile, built the
/// way a serve worker builds them.
pub fn workloads(stats: &OdqStats) -> Vec<LayerWorkload> {
    stats
        .layers
        .iter()
        .map(|l| LayerWorkload::from_channel_counts(&l.name, l.geom, &l.channel_counts))
        .collect()
}

/// A `ConvExecutor` that times every conv call of the engine it wraps.
pub struct TimedConv<'a, E: ConvExecutor + ?Sized> {
    pub inner: &'a mut E,
    pub spans: &'a mut Vec<Span>,
    pub parent: u64,
    pub total: Duration,
}

impl<E: ConvExecutor + ?Sized> ConvExecutor for TimedConv<'_, E> {
    fn begin_pass(&mut self) {
        self.inner.begin_pass();
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let t = Instant::now();
        let y = self.inner.conv(ctx, x);
        let d = t.elapsed();
        self.total += d;
        self.spans.push(Span::new("conv", 0, self.parent, t, d));
        y
    }
}

/// `net_open`'s writes beside the reads: hot swaps, scrapes, stats reads.
struct NetOpenSide<'a> {
    server: &'a Server,
    metrics: SocketAddr,
    next_deploy: Instant,
    next_scrape: Instant,
    version: u64,
    traced: bool,
    times: SideTimes,
    spans: Vec<Span>,
}

impl<'a> NetOpenSide<'a> {
    fn new(server: &'a Server, metrics: SocketAddr, traced: bool) -> Self {
        let now = Instant::now();
        Self {
            server,
            metrics,
            next_deploy: now + DEPLOY_EVERY,
            next_scrape: now + SCRAPE_EVERY,
            version: 1,
            traced,
            times: SideTimes::default(),
            spans: Vec::new(),
        }
    }

    fn span(&mut self, name: &'static str, t: Instant, d: Duration) {
        if self.traced {
            self.spans.push(Span::new(name, 0, 0, t, d));
        }
    }
}

impl Side for NetOpenSide<'_> {
    fn next_due(&self) -> Option<Instant> {
        Some(self.next_deploy.min(self.next_scrape))
    }

    fn run_due(&mut self, now: Instant) {
        if self.next_deploy <= now {
            self.version = 3 - self.version;
            let t = Instant::now();
            self.server
                .deploy("resnet20", self.version)
                .expect("hot swap between published versions");
            let d = t.elapsed();
            self.times.deploys.push(d);
            self.span("deploy", t, d);
            self.next_deploy += DEPLOY_EVERY;
        }
        if self.next_scrape <= now {
            let t = Instant::now();
            let got = http_get(self.metrics, "/metrics");
            let d = t.elapsed();
            self.times.scrapes.push(d);
            self.span("scrape", t, d);
            let parsed = matches!(&got, Ok((200, body)) if odq_obs::parse(body).is_ok());
            if !parsed {
                self.times.bad_scrapes += 1;
            }
            let t = Instant::now();
            std::hint::black_box(self.server.stats());
            let d = t.elapsed();
            self.times.stats.push(d);
            self.span("stats", t, d);
            self.next_scrape += SCRAPE_EVERY;
        }
    }
}
