//! Seeded load generators for benchmarking the server.
//!
//! Two standard shapes:
//!
//! * **closed loop** — a fixed number of in-flight requests; a new one is
//!   submitted the moment an old one completes. Measures peak sustainable
//!   throughput.
//! * **open loop** — requests arrive on a Poisson process at a target
//!   rate regardless of completions. Measures behavior under offered load,
//!   including queue-full rejections and deadline misses.
//!
//! Both are deterministic given a seed (ChaCha8 streams), modulo thread
//! scheduling on the serving side.
//!
//! Both run against any [`LoadTarget`]: the in-process [`Server`]
//! directly, or a remote one through the `odq-net` TCP client — the same
//! generator measures both sides of the wire.
//!
//! Latency is stamped when a response *resolves*, not when the generator
//! gets round to looking at it: every request's reply is a callback
//! ([`ResponseSender::from_fn`]) that records the completion instant and
//! posts it to one completion channel, which both loops consume in
//! completion order.

use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::request::{InferRequest, InferResponse, ResponseHandle, ResponseSender, ServeError};
use crate::server::Server;
use crate::stats::LogHistogram;
use odq_tensor::Tensor;

/// Anything the load generators can drive: submit a request whose
/// outcome resolves a [`ResponseSender`]. Implemented by the in-process
/// [`Server`] and by `odq-net`'s TCP client, so one generator measures
/// either side of the wire.
pub trait LoadTarget {
    /// Submit a request, resolving `reply` exactly once. An `Err` is a
    /// rejection at the call (admission, or for a remote target a
    /// transport-level refusal); `reply` then carries the same error.
    fn submit_to(&self, req: InferRequest, reply: ResponseSender) -> Result<(), ServeError>;

    /// Submit a request and get a [`ResponseHandle`] to wait on.
    fn submit(&self, req: InferRequest) -> Result<ResponseHandle, ServeError> {
        let (reply, handle) = ResponseHandle::channel();
        self.submit_to(req, reply)?;
        Ok(handle)
    }
}

impl LoadTarget for Server {
    fn submit_to(&self, req: InferRequest, reply: ResponseSender) -> Result<(), ServeError> {
        Server::submit_to(self, req, reply)
    }
}

/// One resolved request: when it was submitted, when its reply resolved,
/// and the outcome.
type Completion = (Instant, Instant, Result<InferResponse, ServeError>);

/// A reply that stamps the instant it resolves and posts the completion.
fn stamped(sent: Instant, done: &Sender<Completion>) -> ResponseSender {
    let done = done.clone();
    ResponseSender::from_fn(move |r| {
        let _ = done.send((sent, Instant::now(), r));
    })
}

/// One model's share of the generated load.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Registered model name.
    pub model: String,
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size (square).
    pub hw: usize,
    /// Relative weight of this model in the mix.
    pub weight: f64,
}

/// What a load-generation run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests submitted (including rejected ones).
    pub submitted: u64,
    /// Rejected at admission with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Answered with [`ServeError::DeadlineExceeded`].
    pub deadline_missed: u64,
    /// Answered with a pipeline failure ([`ServeError::Internal`] after a
    /// worker panic, or [`ServeError::WorkerLost`]).
    pub failed: u64,
    /// Submissions refused because the server was shutting down; the run
    /// stops at the first one instead of panicking.
    pub shutdown_rejected: u64,
    /// Submissions rejected as invalid (unknown model / bad shape) —
    /// a misconfigured spec, counted rather than panicked on.
    pub invalid: u64,
    /// Completed requests whose client-side latency came out *shorter*
    /// than the server's own [`crate::RequestTiming::total`] for them —
    /// impossible for a correct measurement, so always 0.
    pub clock_violations: u64,
    /// Successfully completed.
    pub completed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// End-to-end latency distribution of completed requests, streamed as
    /// nanoseconds into a fixed-footprint [`LogHistogram`] — a long soak
    /// run does not grow the report (the same O(1)-in-requests discipline
    /// as the server's ledger). Quantiles carry the histogram's ≤12.5%
    /// relative bucket error.
    pub latencies: LogHistogram,
}

impl LoadReport {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Latency percentile over completed requests, accurate to the
    /// histogram's ≤12.5% relative bucket width (exact at the observed
    /// minimum and maximum).
    pub fn latency_percentile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latencies.value_at_quantile(q))
    }

    /// Count one resolved request. Admission rejections arrive here too
    /// (through the reply), classified like any other outcome.
    fn absorb(&mut self, (sent, done, outcome): Completion) {
        match outcome {
            Ok(resp) => {
                let lat = done.saturating_duration_since(sent);
                self.completed += 1;
                self.clock_violations += u64::from(lat < resp.timing.total);
                self.latencies.record(lat.as_nanos() as u64);
            }
            Err(ServeError::DeadlineExceeded) => self.deadline_missed += 1,
            Err(ServeError::QueueFull) => self.rejected += 1,
            Err(ServeError::ShuttingDown) => self.shutdown_rejected += 1,
            Err(ServeError::UnknownModel(_) | ServeError::BadInput(_)) => self.invalid += 1,
            // Every other in-flight failure (worker panic, lost channel,
            // drain) is a terminal outcome the generator must survive.
            Err(ServeError::WorkerLost | ServeError::Internal) => self.failed += 1,
        }
    }
}

/// Deterministic pseudo-image in `[0, 1)`.
pub fn random_input(rng: &mut ChaCha8Rng, in_channels: usize, hw: usize) -> Tensor {
    let len = in_channels * hw * hw;
    let v: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    Tensor::from_vec(vec![1, in_channels, hw, hw], v)
}

fn pick<'a>(specs: &'a [LoadSpec], rng: &mut ChaCha8Rng) -> &'a LoadSpec {
    let total: f64 = specs.iter().map(|s| s.weight).sum();
    let mut draw = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for s in specs {
        if draw < s.weight {
            return s;
        }
        draw -= s.weight;
    }
    specs.last().expect("non-empty specs")
}

fn make_request(
    specs: &[LoadSpec],
    rng: &mut ChaCha8Rng,
    deadline: Option<Duration>,
) -> InferRequest {
    let spec = pick(specs, rng);
    let mut req =
        InferRequest::new(spec.model.clone(), random_input(rng, spec.in_channels, spec.hw));
    req.deadline = deadline;
    req
}

/// Closed-loop run: keep `concurrency` requests in flight until `total`
/// have been submitted, then drain. A new request goes out the moment any
/// in-flight one resolves. Drives any [`LoadTarget`] — the in-process
/// server or a remote one over TCP.
pub fn run_closed_loop(
    server: &impl LoadTarget,
    specs: &[LoadSpec],
    total: usize,
    concurrency: usize,
    seed: u64,
) -> LoadReport {
    assert!(!specs.is_empty(), "need at least one load spec");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut report = LoadReport::default();
    let (done_tx, done_rx) = unbounded();
    let mut inflight = 0usize;
    let start = Instant::now();
    for _ in 0..total {
        // At capacity: wait for the next request to resolve.
        while inflight >= concurrency.max(1) {
            absorb_next(&mut report, &done_rx, &mut inflight);
        }
        report.submitted += 1;
        let req = make_request(specs, &mut rng, None);
        let r = server.submit_to(req, stamped(Instant::now(), &done_tx));
        inflight += 1;
        match r {
            Ok(()) => {}
            // Closed loop never hammers a full queue: the rejection is
            // already resolved, so wait out one real completion too.
            Err(ServeError::QueueFull) => {
                for _ in 0..inflight.min(2) {
                    absorb_next(&mut report, &done_rx, &mut inflight);
                }
            }
            // A shutting-down server ends the run; anything else is a
            // misconfigured spec, counted through its reply.
            Err(ServeError::ShuttingDown) => break,
            Err(_) => {}
        }
    }
    finish(report, done_rx, inflight, start)
}

/// Open-loop run: `total` requests offered at `rate_rps` (Poisson
/// arrivals), each carrying `deadline` if given. Queue-full rejections
/// are counted, not retried — exactly what an overloaded server sheds.
/// Drives any [`LoadTarget`] — the in-process server or a remote one
/// over TCP.
pub fn run_open_loop(
    server: &impl LoadTarget,
    specs: &[LoadSpec],
    total: usize,
    rate_rps: f64,
    deadline: Option<Duration>,
    seed: u64,
) -> LoadReport {
    assert!(!specs.is_empty(), "need at least one load spec");
    assert!(rate_rps > 0.0, "rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut report = LoadReport::default();
    let (done_tx, done_rx) = unbounded();
    let mut inflight = 0usize;
    let start = Instant::now();
    let mut next_arrival = start;
    for _ in 0..total {
        let now = Instant::now();
        if next_arrival > now {
            std::thread::sleep(next_arrival - now);
        }
        // Exponential inter-arrival with mean 1/rate.
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = -(1.0 - u).ln() / rate_rps;
        next_arrival += Duration::from_secs_f64(gap);

        report.submitted += 1;
        let req = make_request(specs, &mut rng, deadline);
        let r = server.submit_to(req, stamped(Instant::now(), &done_tx));
        inflight += 1;
        if r == Err(ServeError::ShuttingDown) {
            break;
        }
    }
    finish(report, done_rx, inflight, start)
}

/// Absorb the next completion, whichever request it belongs to.
fn absorb_next(report: &mut LoadReport, done: &Receiver<Completion>, inflight: &mut usize) {
    // Every reply resolves exactly once, so a completion is owed.
    let c = done.recv().expect("the generator holds a completion sender");
    *inflight -= 1;
    report.absorb(c);
}

/// Drain the `inflight` completions still owed and close the report.
fn finish(
    mut report: LoadReport,
    done: Receiver<Completion>,
    mut inflight: usize,
    start: Instant,
) -> LoadReport {
    while inflight > 0 {
        absorb_next(&mut report, &done, &mut inflight);
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_input_shape_and_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = random_input(&mut rng, 3, 8);
        assert_eq!(t.dims(), &[1, 3, 8, 8]);
        assert!(t.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn pick_respects_weights() {
        let specs = vec![
            LoadSpec { model: "a".into(), in_channels: 1, hw: 8, weight: 0.0 },
            LoadSpec { model: "b".into(), in_channels: 1, hw: 8, weight: 1.0 },
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(pick(&specs, &mut rng).model, "b");
        }
    }

    /// A completion that took `lat` on the client and `server` on the
    /// server.
    fn ok(lat: Duration, server: Duration) -> Completion {
        let t0 = Instant::now();
        let timing = crate::RequestTiming {
            queue_wait: Duration::ZERO,
            service: server,
            total: server,
            batch_size: 1,
        };
        let resp = InferResponse { output: Tensor::zeros(vec![1, 1]), timing, trace: None };
        (t0, t0 + lat, Ok(resp))
    }

    fn err(e: ServeError) -> Completion {
        let t0 = Instant::now();
        (t0, t0, Err(e))
    }

    #[test]
    fn report_aggregates() {
        let mut r = LoadReport::default();
        r.absorb(ok(Duration::from_millis(4), Duration::from_millis(3)));
        r.absorb(ok(Duration::from_millis(8), Duration::from_millis(8)));
        r.absorb(err(ServeError::DeadlineExceeded));
        r.elapsed = Duration::from_secs(1);
        assert_eq!(r.completed, 2);
        assert_eq!(r.deadline_missed, 1);
        assert_eq!(r.clock_violations, 0);
        assert!((r.throughput() - 2.0).abs() < 1e-9);
        assert_eq!(r.latency_percentile(1.0), Duration::from_millis(8));
        r.absorb(ok(Duration::from_millis(1), Duration::from_millis(2)));
        assert_eq!(r.clock_violations, 1, "client faster than server is counted");
    }

    #[test]
    fn report_latencies_are_streaming_with_bounded_error() {
        // Regression: `latencies` was an unbounded Vec<Duration>, so a
        // long soak run grew the report without bound. It is now a
        // fixed-footprint LogHistogram (no heap at all) whose quantiles
        // carry the documented ≤12.5% relative bucket error.
        let mut r = LoadReport::default();
        for i in 1..=100_000u64 {
            r.absorb(ok(Duration::from_micros(i), Duration::ZERO));
        }
        assert_eq!(r.completed, 100_000);
        for (q, exact_us) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = r.latency_percentile(q).as_micros() as f64;
            let rel = (got - exact_us).abs() / exact_us;
            assert!(rel <= 0.125, "q={q}: got {got} us, exact {exact_us} us, rel err {rel}");
        }
        // The extremes are exact.
        assert_eq!(r.latency_percentile(1.0), Duration::from_micros(100_000));
        assert_eq!(r.latency_percentile(0.0), Duration::from_micros(1));
    }

    #[test]
    fn report_absorbs_failures_and_rejections() {
        let mut r = LoadReport::default();
        r.absorb(err(ServeError::Internal));
        r.absorb(err(ServeError::WorkerLost));
        r.absorb(err(ServeError::QueueFull));
        r.absorb(err(ServeError::UnknownModel("x".into())));
        r.absorb(err(ServeError::ShuttingDown));
        assert_eq!(r.failed, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.invalid, 1);
        assert_eq!(r.shutdown_rejected, 1);
        assert_eq!(r.completed, 0);
    }

    fn lenet_server() -> Server {
        use odq_nn::models::{Model, ModelCfg};
        let mut cfg = ModelCfg::small(odq_nn::Arch::LeNet5, 4);
        cfg.input_hw = 8;
        Server::builder(crate::ServeConfig { simulate_accel: false, ..Default::default() })
            .engine(crate::EngineKind::Float)
            .model("lenet", Model::build(cfg))
            .start()
    }

    fn lenet_spec() -> Vec<LoadSpec> {
        vec![LoadSpec { model: "lenet".into(), in_channels: 3, hw: 8, weight: 1.0 }]
    }

    #[test]
    fn open_loop_latency_is_stamped_at_completion() {
        // Regression: latencies were taken when the generator got round to
        // a handle — after the whole schedule was sent — so a 1 s run read
        // client p50s hundreds of ms above the server's.
        let s = lenet_server();
        let r = run_open_loop(&s, &lenet_spec(), 100, 100.0, None, 5);
        assert_eq!(r.completed, 100);
        assert_eq!(r.clock_violations, 0, "client latency >= server total, per request");
        let client = r.latency_percentile(0.5);
        let ledger = s.shutdown().latency.p50;
        assert!(
            client.abs_diff(ledger) < Duration::from_millis(50),
            "client p50 {client:?} vs ledger p50 {ledger:?}"
        );
    }

    #[test]
    fn closed_loop_counts_every_request_once() {
        let s = lenet_server();
        let r = run_closed_loop(&s, &lenet_spec(), 64, 4, 6);
        assert_eq!(r.submitted, 64);
        assert_eq!(r.completed + r.rejected, 64);
        assert_eq!(r.clock_violations, 0);
        assert_eq!(s.shutdown().completed, r.completed);
    }
}
