//! Streaming serving metrics: fixed-footprint histograms, counters, gauges.
//!
//! The ledger used to append one record per request and per batch, which
//! means a server under sustained load grew without bound. It is now a set
//! of *streaming* aggregates whose memory footprint is O(1) in the number
//! of requests served:
//!
//! * **log-bucketed histograms** ([`LogHistogram`]) for queue-wait,
//!   service, and end-to-end latency (plus batch size) — fixed bucket
//!   arrays with ≤12.5% relative quantile error;
//! * **monotone counters** for every admission/terminal outcome
//!   (admitted, served, `rejected_{invalid,queue_full,deadline,shutdown}`,
//!   internal errors, worker panics/restarts);
//! * **gauges** for submission-queue depth and executed batch size;
//! * **running sums** for simulated accelerator cycles/energy and the
//!   output-weighted sensitive fraction;
//! * a small fixed-capacity ring of the most recent [`BatchRecord`]s for
//!   debugging (bounded at [`RECENT_BATCH_CAP`]).
//!
//! `Ledger::summary` snapshots everything into a [`StatsSummary`], which
//! serializes to JSON for dashboards and the `serve_bench` report.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::request::ServeError;
use crate::worker::lock_ledger;

/// How many recently executed batches the ledger retains for inspection.
pub const RECENT_BATCH_CAP: usize = 32;

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power of two,
/// bounding the relative error of any reported quantile at 1/8 = 12.5%.
const SUB_BITS: usize = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values `0..SUB` get exact buckets; each octave above contributes `SUB`.
const BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// A fixed-footprint log-bucketed histogram of `u64` samples
/// (HdrHistogram-style: power-of-two octaves with linear sub-buckets).
///
/// Recording is O(1); quantiles are O(buckets); memory is a constant
/// ~4 KB regardless of how many samples are recorded.
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + (exp - SUB_BITS) * SUB + sub
    }
}

fn bucket_lower(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let exp = SUB_BITS + (i - SUB) / SUB;
        let sub = ((i - SUB) % SUB) as u64;
        (SUB as u64 + sub) << (exp - SUB_BITS)
    }
}

impl LogHistogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample recorded (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    ///
    /// Exactly equivalent to having recorded the other histogram's samples
    /// here (bucket for bucket — the proptest in `tests/proptests.rs` pins
    /// this), so per-shard histograms can be kept lock-cheap and merged at
    /// snapshot time.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, in increasing
    /// value order. The exposition layer and the merge proptest read the
    /// bucket structure through this without widening field visibility.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (bucket_lower(i), c))
    }

    /// Nearest-rank `q`-quantile (`0.0..=1.0`), accurate to the bucket's
    /// 12.5% relative width. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; answer them exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket midpoint, clamped two-sided to the true observed
                // range: a midpoint can fall below every recorded sample
                // (low quantiles) or above the maximum (high quantiles),
                // and a reported quantile must never leave [min, max].
                let lo = bucket_lower(i);
                let width = if i < SUB { 1 } else { bucket_lower(i + 1) - lo };
                return (lo + width / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Duration-flavored view over a [`LogHistogram`] of nanosecond samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (nearest-rank over log buckets, ≤12.5% relative error).
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Largest sample (exact).
    pub max: Duration,
}

impl LatencyStats {
    fn from_nanos_histogram(h: &LogHistogram) -> Self {
        let d = |ns: u64| Duration::from_nanos(ns);
        Self {
            count: h.count(),
            mean: d(h.mean() as u64),
            p50: d(h.value_at_quantile(0.50)),
            p95: d(h.value_at_quantile(0.95)),
            p99: d(h.value_at_quantile(0.99)),
            max: d(h.max()),
        }
    }

    fn to_json(self) -> serde_json::Value {
        let ms = |d: Duration| serde_json::Value::F64(d.as_secs_f64() * 1e3);
        serde_json::Value::Object(vec![
            ("count".into(), serde_json::Value::U64(self.count)),
            ("mean_ms".into(), ms(self.mean)),
            ("p50_ms".into(), ms(self.p50)),
            ("p95_ms".into(), ms(self.p95)),
            ("p99_ms".into(), ms(self.p99)),
            ("max_ms".into(), ms(self.max)),
        ])
    }
}

/// Per-batch simulated accelerator cost, from `odq_accel`'s cycle-level
/// simulator run on the batch's *measured* sensitivity profile.
#[derive(Clone, Debug)]
pub struct BatchSim {
    /// Accelerator configuration name (Table 2), or `"mixed"` when a
    /// precision policy costed the batch across several configurations.
    pub config: String,
    /// Simulated cycles per image.
    pub cycles_per_image: f64,
    /// Simulated cycles for the whole batch (per-image × batch size).
    pub batch_cycles: f64,
    /// Simulated execution time for the whole batch, seconds.
    pub time_s: f64,
    /// Simulated energy for the whole batch, nanojoules.
    pub energy_nj: f64,
    /// Per-route breakdown. Single-engine kinds report one entry; a
    /// policy-routed batch reports one per route that executed layers.
    pub routes: Vec<RouteSim>,
}

/// One precision route's share of a batch's simulated cost.
#[derive(Clone, Debug)]
pub struct RouteSim {
    /// Route label (`"odq"`, `"int4"`, `"float"`, ...).
    pub route: String,
    /// Accelerator configuration the route was costed on.
    pub config: String,
    /// Conv layers this route executed during the pass.
    pub layers: usize,
    /// Simulated cycles for this route's layers across the whole batch.
    pub batch_cycles: f64,
    /// Simulated energy for this route's layers, nanojoules.
    pub energy_nj: f64,
}

/// One executed batch's ledger entry (retained only in the bounded
/// recent-batches ring; aggregates are streamed into the histograms).
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// Model name.
    pub model: String,
    /// Deployment version whose weights executed this batch — the audit
    /// trail a hot swap leaves behind: the ring shows exactly which
    /// batches ran on which version around the swap point.
    pub version: u64,
    /// The registry's full-content weight fingerprint for that version
    /// ([`crate::Deployment::fingerprint`]), carried into the per-version
    /// aggregates so dashboards can pin *which weights* a version label
    /// actually meant.
    pub fingerprint: u64,
    /// Engine label ([`crate::EngineKind::label`]); shared, not cloned,
    /// across every record a worker writes.
    pub engine: Arc<str>,
    /// Requests coalesced into this batch.
    pub size: usize,
    /// Forward-pass duration.
    pub service: Duration,
    /// Output-weighted sensitive-output fraction measured during the pass
    /// (ODQ engines only).
    pub sensitive_fraction: Option<f64>,
    /// Simulated accelerator cost (when enabled).
    pub sim: Option<BatchSim>,
}

/// Per-(model, version) streaming aggregates: completion counts and the
/// service-latency distribution. One entry per *deployment* ever executed
/// — the map grows with swaps, never with requests.
#[derive(Clone, Debug, Default)]
struct VersionLedger {
    completed: u64,
    batches: u64,
    fingerprint: u64,
    service: LogHistogram,
}

/// One conv layer's measured slice of a single forward pass, handed to
/// the ledger's `record_layers` by the worker. Everything here is
/// per-batch (the wall time covers the whole `[N, ...]` batched conv).
#[derive(Clone, Debug)]
pub struct LayerProfile {
    /// Layer name (paper numbering, e.g. `"C3"`).
    pub layer: String,
    /// Precision route that executed the layer (`"odq"`, `"int8"`, ...).
    pub route: String,
    /// Wall time of the layer's conv across the batch.
    pub wall: Duration,
    /// ODQ sensitive-output mask density (or DRQ high-precision input
    /// fraction) measured during the pass, when the route reports one.
    pub mask_density: Option<f64>,
    /// Simulated accelerator cycles attributed to this layer for the
    /// batch (0 when simulation is off).
    pub sim_cycles: f64,
}

/// Per-(model, version, layer) streaming aggregates. One entry per layer
/// of each deployment ever executed — grows with topology and swaps,
/// never with requests.
#[derive(Clone, Debug, Default)]
struct LayerAgg {
    route: String,
    passes: u64,
    wall: LogHistogram,
    density_sum: f64,
    density_count: u64,
    sim_cycles: f64,
}

/// Per-route streaming aggregates. One entry per distinct route label ever
/// executed — bounded by the number of routes policies mention, never by
/// the number of requests.
#[derive(Clone, Debug, Default)]
struct RouteAgg {
    batches: u64,
    layers: u64,
    cycles: f64,
    energy_nj: f64,
}

/// Streaming counters for a network front-end sitting on top of the
/// server (the `odq-net` TCP listener, or any other transport). All
/// monotone except `active_connections`, which is a gauge. Fixed size, so
/// the O(1)-in-requests ledger guarantee extends over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted by the front-end.
    pub connections_opened: u64,
    /// Connections fully torn down (reader and writer exited).
    pub connections_closed: u64,
    /// Connections refused at accept time (connection cap reached).
    pub connections_rejected: u64,
    /// Connections currently live (opened − closed, maintained as a gauge).
    pub active_connections: u64,
    /// Wire bytes read from clients (frame headers + bodies).
    pub bytes_in: u64,
    /// Wire bytes written to clients.
    pub bytes_out: u64,
    /// Well-formed frames decoded from clients.
    pub frames_in: u64,
    /// Frames written to clients (responses and typed errors).
    pub frames_out: u64,
    /// Malformed, truncated, or oversized frames rejected at the wire.
    pub protocol_errors: u64,
}

/// A front-end's handle into the server's streaming ledger: the `odq-net`
/// listener clones one per connection and streams connection/byte/frame
/// counters into the same [`StatsSummary`] the serving pipeline reports
/// ([`crate::Server::stats_json`]'s `net` section). Cheap to clone; every
/// method takes one short ledger lock.
#[derive(Clone, Debug)]
pub struct NetTap {
    ledger: Arc<Mutex<Ledger>>,
}

impl NetTap {
    pub(crate) fn new(ledger: Arc<Mutex<Ledger>>) -> Self {
        Self { ledger }
    }

    /// A connection was accepted.
    pub fn conn_opened(&self) {
        let mut led = lock_ledger(&self.ledger);
        led.net.connections_opened += 1;
        led.net.active_connections += 1;
    }

    /// A connection fully tore down (counted once per opened connection).
    pub fn conn_closed(&self) {
        let mut led = lock_ledger(&self.ledger);
        led.net.connections_closed += 1;
        led.net.active_connections = led.net.active_connections.saturating_sub(1);
    }

    /// A connection was refused because the connection cap was reached.
    pub fn conn_rejected(&self) {
        lock_ledger(&self.ledger).net.connections_rejected += 1;
    }

    /// One well-formed frame arrived, `bytes` long on the wire.
    pub fn frame_in(&self, bytes: u64) {
        let mut led = lock_ledger(&self.ledger);
        led.net.frames_in += 1;
        led.net.bytes_in += bytes;
    }

    /// One frame was written to a client, `bytes` long on the wire.
    pub fn frame_out(&self, bytes: u64) {
        let mut led = lock_ledger(&self.ledger);
        led.net.frames_out += 1;
        led.net.bytes_out += bytes;
    }

    /// Bytes consumed from the wire that did not amount to a well-formed
    /// frame (partial reads before a malformed/truncated reject).
    pub fn bytes_in(&self, bytes: u64) {
        lock_ledger(&self.ledger).net.bytes_in += bytes;
    }

    /// A malformed, truncated, or oversized frame was rejected.
    pub fn protocol_error(&self) {
        lock_ledger(&self.ledger).net.protocol_errors += 1;
    }
}

/// A read-only handle onto a server's streaming ledger, detachable from
/// the [`crate::Server`] itself: the observability layer (`odq-obs`)
/// holds one so its `/metrics` listener can snapshot the ledger from its
/// own threads without owning or borrowing the server. Cheap to clone;
/// every call takes one short ledger lock.
#[derive(Clone, Debug)]
pub struct StatsHandle {
    ledger: Arc<Mutex<Ledger>>,
}

impl StatsHandle {
    pub(crate) fn new(ledger: Arc<Mutex<Ledger>>) -> Self {
        Self { ledger }
    }

    /// Snapshot the ledger (same data as [`crate::Server::stats`]).
    pub fn summary(&self) -> StatsSummary {
        lock_ledger(&self.ledger).summary()
    }
}

/// Mutable streaming ledger shared by the admission path and the workers.
/// Every field is a fixed-size aggregate: memory does not grow with the
/// number of requests served.
#[derive(Debug)]
pub(crate) struct Ledger {
    /// When this ledger (the server) came up.
    pub started: Instant,
    // Counters.
    pub admitted: u64,
    pub served: u64,
    pub batches: u64,
    /// Batches whose execution *began* (used by fault injection; differs
    /// from `batches` when a worker panics mid-batch).
    pub batches_started: u64,
    pub rejected_queue_full: u64,
    pub rejected_deadline: u64,
    pub rejected_invalid: u64,
    pub rejected_shutdown: u64,
    /// Requests answered [`crate::ServeError::Internal`] after a panic.
    pub internal_errors: u64,
    pub worker_panics: u64,
    pub worker_restarts: u64,
    // Gauges.
    pub last_queue_depth: u64,
    pub max_queue_depth: u64,
    // Network front-end counters (all zero when no front-end is attached).
    pub net: NetStats,
    // Histograms (nanoseconds; batch_size in requests).
    queue_wait: LogHistogram,
    service: LogHistogram,
    total: LogHistogram,
    batch_size: LogHistogram,
    // Running sums.
    sim_cycles: f64,
    sim_energy_nj: f64,
    sens_weighted: f64,
    sens_weight: f64,
    // Bounded debugging ring of the most recent batches.
    recent: VecDeque<BatchRecord>,
    // Per-deployment aggregates (grows with swaps, not requests).
    per_model: BTreeMap<(String, u64), VersionLedger>,
    // Per-route aggregates (grows with distinct route labels).
    per_route: BTreeMap<String, RouteAgg>,
    // Per-(model, version, layer) aggregates (grows with topology and
    // swaps, not requests).
    per_layer: BTreeMap<(String, u64, String), LayerAgg>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            admitted: 0,
            served: 0,
            batches: 0,
            batches_started: 0,
            rejected_queue_full: 0,
            rejected_deadline: 0,
            rejected_invalid: 0,
            rejected_shutdown: 0,
            internal_errors: 0,
            worker_panics: 0,
            worker_restarts: 0,
            last_queue_depth: 0,
            max_queue_depth: 0,
            net: NetStats::default(),
            queue_wait: LogHistogram::default(),
            service: LogHistogram::default(),
            total: LogHistogram::default(),
            batch_size: LogHistogram::default(),
            sim_cycles: 0.0,
            sim_energy_nj: 0.0,
            sens_weighted: 0.0,
            sens_weight: 0.0,
            recent: VecDeque::new(),
            per_model: BTreeMap::new(),
            per_route: BTreeMap::new(),
            per_layer: BTreeMap::new(),
        }
    }
}

impl Ledger {
    /// Count one admission rejection under the counter its [`ServeError`]
    /// variant names. Matching on the variant (instead of attributing
    /// every admission failure to one counter) keeps the rejection
    /// taxonomy honest as new admission failure modes appear: an
    /// invalid-input reject and a shutting-down reject must never share a
    /// counter.
    pub fn count_rejection(&mut self, e: &ServeError) {
        match e {
            ServeError::UnknownModel(_) | ServeError::BadInput(_) => self.rejected_invalid += 1,
            ServeError::QueueFull => self.rejected_queue_full += 1,
            ServeError::ShuttingDown => self.rejected_shutdown += 1,
            ServeError::DeadlineExceeded => self.rejected_deadline += 1,
            ServeError::WorkerLost | ServeError::Internal => self.internal_errors += 1,
        }
    }

    /// Record the submission-queue depth observed at admission.
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.last_queue_depth = depth as u64;
        self.max_queue_depth = self.max_queue_depth.max(depth as u64);
    }

    /// Stream one served request's timings into the histograms.
    pub fn record_request(&mut self, queue_wait: Duration, service: Duration, total: Duration) {
        self.served += 1;
        self.queue_wait.record(queue_wait.as_nanos() as u64);
        self.service.record(service.as_nanos() as u64);
        self.total.record(total.as_nanos() as u64);
    }

    /// Stream one executed batch into the aggregates and the recent ring.
    pub fn record_batch(&mut self, rec: BatchRecord) {
        self.batches += 1;
        self.batch_size.record(rec.size as u64);
        let vl = self.per_model.entry((rec.model.clone(), rec.version)).or_default();
        vl.completed += rec.size as u64;
        vl.batches += 1;
        vl.fingerprint = rec.fingerprint;
        vl.service.record(rec.service.as_nanos() as u64);
        if let Some(sim) = &rec.sim {
            self.sim_cycles += sim.batch_cycles;
            self.sim_energy_nj += sim.energy_nj;
            for r in &sim.routes {
                let agg = self.per_route.entry(r.route.clone()).or_default();
                agg.batches += 1;
                agg.layers += r.layers as u64;
                agg.cycles += r.batch_cycles;
                agg.energy_nj += r.energy_nj;
            }
        }
        if let Some(f) = rec.sensitive_fraction {
            self.sens_weighted += f * rec.size as f64;
            self.sens_weight += rec.size as f64;
        }
        if self.recent.len() == RECENT_BATCH_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(rec);
    }

    /// Stream one batch's per-layer profiles into the per-(model,
    /// version, layer) aggregates. O(layers) per batch; the map itself is
    /// bounded by topology × deployments, never by request count.
    pub fn record_layers(&mut self, model: &str, version: u64, profiles: &[LayerProfile]) {
        for p in profiles {
            let agg =
                self.per_layer.entry((model.to_string(), version, p.layer.clone())).or_default();
            agg.route = p.route.clone();
            agg.passes += 1;
            agg.wall.record(p.wall.as_nanos() as u64);
            if let Some(d) = p.mask_density {
                agg.density_sum += d;
                agg.density_count += 1;
            }
            agg.sim_cycles += p.sim_cycles;
        }
    }

    /// A worker panicked while serving `batch_len` requests: count the
    /// panic and the internal-error responses those requests received.
    pub fn record_worker_panic(&mut self, batch_len: usize) {
        self.worker_panics += 1;
        self.internal_errors += batch_len as u64;
    }

    /// Reconcile the live ledger: cross-check every streaming aggregate
    /// against the conservation law and against each other. `in_queue` is
    /// the submission queue's current depth (the ledger itself only sees
    /// admissions and completions; the queue is the server's).
    pub fn reconcile(&self, in_queue: u64) -> ReconcileReport {
        ReconcileReport {
            admitted: self.admitted,
            completed: self.served,
            rejected_deadline: self.rejected_deadline,
            internal_errors: self.internal_errors,
            in_queue,
            rejected_queue_full: self.rejected_queue_full,
            rejected_invalid: self.rejected_invalid,
            rejected_shutdown: self.rejected_shutdown,
            latency_samples: self.total.count(),
            per_version_completed: self.per_model.values().map(|vl| vl.completed).sum(),
            batches: self.batches,
            batch_samples: self.batch_size.count(),
            worker_panics: self.worker_panics,
            worker_restarts: self.worker_restarts,
            active_connections: self.net.active_connections,
            net_open_minus_closed: self
                .net
                .connections_opened
                .saturating_sub(self.net.connections_closed),
        }
    }

    /// Copy of the bounded recent-batches ring (newest last).
    pub fn recent_batches(&self) -> Vec<BatchRecord> {
        self.recent.iter().cloned().collect()
    }

    /// Approximate resident bytes of the ledger, including ring-buffer
    /// heap. Constant-bounded by construction; the serve tests pin it.
    pub fn approx_bytes(&self) -> usize {
        let sim_heap = |s: &BatchSim| {
            s.config.capacity()
                + s.routes.capacity() * std::mem::size_of::<RouteSim>()
                + s.routes.iter().map(|r| r.route.capacity() + r.config.capacity()).sum::<usize>()
        };
        let ring_heap: usize = self.recent.capacity() * std::mem::size_of::<BatchRecord>()
            + self
                .recent
                .iter()
                .map(|r| r.model.capacity() + r.engine.len() + r.sim.as_ref().map_or(0, sim_heap))
                .sum::<usize>();
        let per_model_heap: usize = self
            .per_model
            .iter()
            .map(|((name, _), _)| {
                name.capacity() + std::mem::size_of::<((String, u64), VersionLedger)>()
            })
            .sum();
        let per_route_heap: usize = self
            .per_route
            .keys()
            .map(|route| route.capacity() + std::mem::size_of::<(String, RouteAgg)>())
            .sum();
        let per_layer_heap: usize = self
            .per_layer
            .iter()
            .map(|((model, _, layer), agg)| {
                model.capacity()
                    + layer.capacity()
                    + agg.route.capacity()
                    + std::mem::size_of::<((String, u64, String), LayerAgg)>()
            })
            .sum();
        std::mem::size_of::<Self>() + ring_heap + per_model_heap + per_route_heap + per_layer_heap
    }

    pub fn summary(&self) -> StatsSummary {
        let mean_sensitive_fraction =
            if self.sens_weight > 0.0 { Some(self.sens_weighted / self.sens_weight) } else { None };
        let latency = LatencyStats::from_nanos_histogram(&self.total);
        let models = self
            .per_model
            .iter()
            .map(|((model, version), vl)| ModelVersionStats {
                model: model.clone(),
                version: *version,
                fingerprint: vl.fingerprint,
                completed: vl.completed,
                batches: vl.batches,
                service: LatencyStats::from_nanos_histogram(&vl.service),
            })
            .collect();
        let layers = self
            .per_layer
            .iter()
            .map(|((model, version, layer), agg)| LayerRuntimeStats {
                model: model.clone(),
                version: *version,
                layer: layer.clone(),
                route: agg.route.clone(),
                passes: agg.passes,
                wall: LatencyStats::from_nanos_histogram(&agg.wall),
                mask_density: (agg.density_count > 0)
                    .then(|| agg.density_sum / agg.density_count as f64),
                sim_cycles: agg.sim_cycles,
            })
            .collect();
        let routes = self
            .per_route
            .iter()
            .map(|(route, agg)| RouteStats {
                route: route.clone(),
                batches: agg.batches,
                layers: agg.layers,
                cycles: agg.cycles,
                energy_nj: agg.energy_nj,
            })
            .collect();
        StatsSummary {
            uptime: self.started.elapsed(),
            models,
            layers,
            admitted: self.admitted,
            completed: self.served,
            batches: self.batches,
            rejected_queue_full: self.rejected_queue_full,
            rejected_deadline: self.rejected_deadline,
            rejected_invalid: self.rejected_invalid,
            rejected_shutdown: self.rejected_shutdown,
            internal_errors: self.internal_errors,
            worker_panics: self.worker_panics,
            worker_restarts: self.worker_restarts,
            mean_batch_size: self.batch_size.mean(),
            max_batch_size: self.batch_size.max(),
            net: self.net,
            last_queue_depth: self.last_queue_depth,
            max_queue_depth: self.max_queue_depth,
            mean_queue_wait: Duration::from_nanos(self.queue_wait.mean() as u64),
            queue_wait: LatencyStats::from_nanos_histogram(&self.queue_wait),
            service: LatencyStats::from_nanos_histogram(&self.service),
            latency,
            p50_latency: latency.p50,
            p99_latency: latency.p99,
            sim_cycles: self.sim_cycles,
            sim_energy_nj: self.sim_energy_nj,
            mean_sensitive_fraction,
            routes,
        }
    }
}

/// The serving pipeline's conservation law, checked: every request that
/// passed admission must be accounted for by exactly one terminal
/// outcome.
///
/// Post-admission, a request can end exactly three ways — completed,
/// dropped on deadline (expired when a worker took it), or answered `Internal` after a worker panic —
/// or still be in flight (queued or mid-batch). So at any quiescent
/// moment:
///
/// ```text
///   admitted == completed + rejected_deadline + internal_errors + in_queue
/// ```
///
/// The pre-admission rejections (`queue_full`, `invalid`, `shutdown`) are
/// carried for context but sit *outside* the equation: those requests
/// never entered the pipeline. [`is_balanced`](Self::is_balanced) also
/// cross-checks the streaming aggregates against each other (histogram
/// sample counts vs counters, per-version completions vs the global
/// counter), which is what catches a double-count or a dropped record
/// that single counters cannot see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Requests that passed admission into the queue.
    pub admitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests dropped post-admission because their deadline passed.
    pub rejected_deadline: u64,
    /// Requests answered [`ServeError::Internal`] after a worker panic.
    pub internal_errors: u64,
    /// Requests still waiting in the submission queue at snapshot time
    /// (always 0 for a post-shutdown report: shutdown drains the queue).
    pub in_queue: u64,
    /// Pre-admission: rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Pre-admission: unknown model or bad input shape.
    pub rejected_invalid: u64,
    /// Pre-admission: server shutting down.
    pub rejected_shutdown: u64,
    /// Samples in the end-to-end latency histogram (must equal
    /// `completed`: exactly one sample is streamed per served request).
    pub latency_samples: u64,
    /// Sum of per-(model, version) completion counts (must equal
    /// `completed`: every served request is attributed to exactly one
    /// deployment).
    pub per_version_completed: u64,
    /// Batches executed to completion.
    pub batches: u64,
    /// Samples in the batch-size histogram (must equal `batches`).
    pub batch_samples: u64,
    /// Worker panics caught by the supervision shell.
    pub worker_panics: u64,
    /// Workers restarted after a panic. At most `worker_panics`: the
    /// restart is counted after the replacement shift spins up, so a
    /// snapshot can catch a panic whose restart hasn't landed yet.
    pub worker_restarts: u64,
    /// Live network connections (gauge; 0 when no front-end is attached
    /// or every connection has torn down).
    pub active_connections: u64,
    /// Front-end connections opened minus closed (must equal
    /// `active_connections`: the gauge is maintained alongside both
    /// monotone counters and must never drift from them).
    pub net_open_minus_closed: u64,
}

impl ReconcileReport {
    /// Does every streaming aggregate agree with every other?
    ///
    /// Checks the conservation law plus the cross-aggregate equalities
    /// documented on each field. `false` means the ledger lost, double-
    /// counted, or mis-attributed at least one request or batch.
    pub fn is_balanced(&self) -> bool {
        self.admitted
            == self.completed + self.rejected_deadline + self.internal_errors + self.in_queue
            && self.latency_samples == self.completed
            && self.per_version_completed == self.completed
            && self.batch_samples == self.batches
            && self.worker_restarts <= self.worker_panics
            && self.net_open_minus_closed == self.active_connections
    }

    /// Have all in-flight gauges returned to zero (drained queue, no live
    /// connections)? True quiesce is [`is_balanced`](Self::is_balanced)
    /// *and* this.
    pub fn gauges_clear(&self) -> bool {
        self.in_queue == 0 && self.active_connections == 0
    }
}

impl std::fmt::Display for ReconcileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admitted {} == completed {} + deadline {} + internal {} + in_queue {} \
             (= {}); latency_samples {}, per_version {}, batches {}/{}, \
             panics {}, restarts {}, active_conns {} (opened-closed {})",
            self.admitted,
            self.completed,
            self.rejected_deadline,
            self.internal_errors,
            self.in_queue,
            self.completed + self.rejected_deadline + self.internal_errors + self.in_queue,
            self.latency_samples,
            self.per_version_completed,
            self.batch_samples,
            self.batches,
            self.worker_panics,
            self.worker_restarts,
            self.active_connections,
            self.net_open_minus_closed,
        )
    }
}

/// Per-route slice of the snapshot: the simulated cost one precision
/// route (by label) has accumulated across all batches. Single-engine
/// deployments show one row; a policy-routed deployment shows one per
/// route its policies ever executed, which is how a mixed-precision
/// sweep reads where the cycles and energy went.
#[derive(Clone, Debug)]
pub struct RouteStats {
    /// Route label (`"odq"`, `"int4"`, `"float"`, ...).
    pub route: String,
    /// Batches in which this route executed at least one layer.
    pub batches: u64,
    /// Total conv-layer executions attributed to this route.
    pub layers: u64,
    /// Total simulated cycles attributed to this route.
    pub cycles: f64,
    /// Total simulated energy attributed to this route, nanojoules.
    pub energy_nj: f64,
}

/// Per-deployment slice of the snapshot: what one (model, version) pair
/// has served. A canary experiment and a hot swap both read their outcome
/// here — completions and service latency split by exactly which weights
/// answered.
#[derive(Clone, Debug)]
pub struct ModelVersionStats {
    /// Model name.
    pub model: String,
    /// Deployment version.
    pub version: u64,
    /// The registry's weight fingerprint this version was pinned with.
    pub fingerprint: u64,
    /// Requests answered by this version.
    pub completed: u64,
    /// Batches executed by this version.
    pub batches: u64,
    /// Forward-pass latency distribution for this version.
    pub service: LatencyStats,
}

/// Per-(model, version, layer) slice of the snapshot: where each forward
/// pass spent its wall time, which precision route executed the layer,
/// the mean measured ODQ mask density, and the layer's share of simulated
/// accelerator cycles. This is the serving-scale view of the paper's core
/// claim — per-layer, per-output-region cost — as actually observed.
#[derive(Clone, Debug)]
pub struct LayerRuntimeStats {
    /// Model name.
    pub model: String,
    /// Deployment version.
    pub version: u64,
    /// Layer name (paper numbering, e.g. `"C3"`).
    pub layer: String,
    /// Precision route that executed this layer (last observed).
    pub route: String,
    /// Batched forward passes the layer has executed.
    pub passes: u64,
    /// Per-pass wall-time distribution for this layer's conv.
    pub wall: LatencyStats,
    /// Mean measured mask density (ODQ sensitive-output fraction, or DRQ
    /// high-precision input fraction), when the route reports one.
    pub mask_density: Option<f64>,
    /// Total simulated accelerator cycles attributed to this layer.
    pub sim_cycles: f64,
}

/// Point-in-time snapshot of the streaming ledger.
///
/// `Default` is the all-zero snapshot an idle, just-started server would
/// report — what exporters render before any traffic arrives.
#[derive(Clone, Debug, Default)]
pub struct StatsSummary {
    /// How long the server has been up.
    pub uptime: Duration,
    /// Per-(model, version) completions and service latency, sorted by
    /// name then version.
    pub models: Vec<ModelVersionStats>,
    /// Per-(model, version, layer) wall time, route, mask density, and
    /// simulated cycles, sorted by model, version, then layer name.
    /// Empty when layer profiling is disabled
    /// ([`crate::ServeConfig::layer_profiling`]).
    pub layers: Vec<LayerRuntimeStats>,
    /// Requests that passed admission into the queue.
    pub admitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Batches executed to completion.
    pub batches: u64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_queue_full: u64,
    /// Requests dropped because their deadline passed before execution.
    pub rejected_deadline: u64,
    /// Requests rejected for unknown model / bad input shape.
    pub rejected_invalid: u64,
    /// Requests rejected because the server was shutting down.
    pub rejected_shutdown: u64,
    /// Requests answered [`crate::ServeError::Internal`] (worker panic).
    pub internal_errors: u64,
    /// Worker panics caught by the supervision shell.
    pub worker_panics: u64,
    /// Workers restarted with a fresh engine after a panic.
    pub worker_restarts: u64,
    /// Mean executed batch size.
    pub mean_batch_size: f64,
    /// Largest executed batch.
    pub max_batch_size: u64,
    /// Network front-end counters (all zero when no front-end is
    /// attached; populated by `odq-net` through [`NetTap`]).
    pub net: NetStats,
    /// Submission-queue depth at the last admission.
    pub last_queue_depth: u64,
    /// Highest submission-queue depth observed at admission.
    pub max_queue_depth: u64,
    /// Mean time requests spent queued before their forward pass.
    pub mean_queue_wait: Duration,
    /// Queue-wait distribution (submission → dequeue by a worker).
    pub queue_wait: LatencyStats,
    /// Service distribution (forward-pass duration).
    pub service: LatencyStats,
    /// End-to-end latency distribution (submission → response).
    pub latency: LatencyStats,
    /// Median end-to-end latency (mirror of `latency.p50`).
    pub p50_latency: Duration,
    /// 99th-percentile end-to-end latency (mirror of `latency.p99`).
    pub p99_latency: Duration,
    /// Total simulated accelerator cycles across all batches.
    pub sim_cycles: f64,
    /// Total simulated accelerator energy across all batches, nanojoules.
    pub sim_energy_nj: f64,
    /// Output-weighted mean sensitive fraction across ODQ batches.
    pub mean_sensitive_fraction: Option<f64>,
    /// Simulated cost split by precision route, sorted by route label.
    pub routes: Vec<RouteStats>,
}

impl StatsSummary {
    /// Reconcile a snapshot, e.g. the final summary
    /// [`crate::Server::shutdown`] returns. A summary carries no live
    /// queue depth, so `in_queue` is 0 — valid for post-shutdown
    /// summaries (shutdown drains the queue before returning) and for
    /// any snapshot the caller knows was taken at quiesce. For a live
    /// mid-flight check use [`crate::Server::reconcile`], which reads
    /// the real queue depth.
    ///
    /// The summary does not retain raw histogram sample counts for the
    /// batch-size histogram, so `batch_samples` mirrors `batches` here;
    /// the end-to-end latency count is carried and checked for real.
    pub fn reconcile(&self) -> ReconcileReport {
        ReconcileReport {
            admitted: self.admitted,
            completed: self.completed,
            rejected_deadline: self.rejected_deadline,
            internal_errors: self.internal_errors,
            in_queue: 0,
            rejected_queue_full: self.rejected_queue_full,
            rejected_invalid: self.rejected_invalid,
            rejected_shutdown: self.rejected_shutdown,
            latency_samples: self.latency.count,
            per_version_completed: self.models.iter().map(|m| m.completed).sum(),
            batches: self.batches,
            batch_samples: self.batches,
            worker_panics: self.worker_panics,
            worker_restarts: self.worker_restarts,
            active_connections: self.net.active_connections,
            net_open_minus_closed: self
                .net
                .connections_opened
                .saturating_sub(self.net.connections_closed),
        }
    }

    /// Snapshot as a JSON tree (durations in milliseconds).
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let counters = Value::Object(vec![
            ("admitted".into(), Value::U64(self.admitted)),
            ("completed".into(), Value::U64(self.completed)),
            ("batches".into(), Value::U64(self.batches)),
            ("rejected_queue_full".into(), Value::U64(self.rejected_queue_full)),
            ("rejected_deadline".into(), Value::U64(self.rejected_deadline)),
            ("rejected_invalid".into(), Value::U64(self.rejected_invalid)),
            ("rejected_shutdown".into(), Value::U64(self.rejected_shutdown)),
            ("internal_errors".into(), Value::U64(self.internal_errors)),
            ("worker_panics".into(), Value::U64(self.worker_panics)),
            ("worker_restarts".into(), Value::U64(self.worker_restarts)),
        ]);
        let gauges = Value::Object(vec![
            ("mean_batch_size".into(), Value::F64(self.mean_batch_size)),
            ("max_batch_size".into(), Value::U64(self.max_batch_size)),
            ("last_queue_depth".into(), Value::U64(self.last_queue_depth)),
            ("max_queue_depth".into(), Value::U64(self.max_queue_depth)),
        ]);
        let net = Value::Object(vec![
            ("connections_opened".into(), Value::U64(self.net.connections_opened)),
            ("connections_closed".into(), Value::U64(self.net.connections_closed)),
            ("connections_rejected".into(), Value::U64(self.net.connections_rejected)),
            ("active_connections".into(), Value::U64(self.net.active_connections)),
            ("bytes_in".into(), Value::U64(self.net.bytes_in)),
            ("bytes_out".into(), Value::U64(self.net.bytes_out)),
            ("frames_in".into(), Value::U64(self.net.frames_in)),
            ("frames_out".into(), Value::U64(self.net.frames_out)),
            ("protocol_errors".into(), Value::U64(self.net.protocol_errors)),
        ]);
        let latency = vec![
            ("queue_wait".into(), self.queue_wait.to_json()),
            ("service".into(), self.service.to_json()),
            ("total".into(), self.latency.to_json()),
        ];
        let mut sim = vec![
            ("cycles".into(), Value::F64(self.sim_cycles)),
            ("energy_nj".into(), Value::F64(self.sim_energy_nj)),
        ];
        if let Some(f) = self.mean_sensitive_fraction {
            sim.push(("mean_sensitive_fraction".into(), Value::F64(f)));
        }
        if !self.routes.is_empty() {
            let routes = self
                .routes
                .iter()
                .map(|r| {
                    (
                        r.route.clone(),
                        Value::Object(vec![
                            ("batches".into(), Value::U64(r.batches)),
                            ("layers".into(), Value::U64(r.layers)),
                            ("cycles".into(), Value::F64(r.cycles)),
                            ("energy_nj".into(), Value::F64(r.energy_nj)),
                        ]),
                    )
                })
                .collect();
            sim.push(("routes".into(), Value::Object(routes)));
        }
        let models = Value::Array(
            self.models
                .iter()
                .map(|m| {
                    Value::Object(vec![
                        ("model".into(), Value::String(m.model.clone())),
                        ("version".into(), Value::U64(m.version)),
                        ("fingerprint".into(), Value::U64(m.fingerprint)),
                        ("completed".into(), Value::U64(m.completed)),
                        ("batches".into(), Value::U64(m.batches)),
                        ("service_ms".into(), m.service.to_json()),
                    ])
                })
                .collect(),
        );
        let layers = Value::Array(
            self.layers
                .iter()
                .map(|l| {
                    let mut fields = vec![
                        ("model".into(), Value::String(l.model.clone())),
                        ("version".into(), Value::U64(l.version)),
                        ("layer".into(), Value::String(l.layer.clone())),
                        ("route".into(), Value::String(l.route.clone())),
                        ("passes".into(), Value::U64(l.passes)),
                        ("wall_ms".into(), l.wall.to_json()),
                        ("sim_cycles".into(), Value::F64(l.sim_cycles)),
                    ];
                    if let Some(d) = l.mask_density {
                        fields.push(("mask_density".into(), Value::F64(d)));
                    }
                    Value::Object(fields)
                })
                .collect(),
        );
        Value::Object(vec![
            ("uptime_ms".into(), Value::F64(self.uptime.as_secs_f64() * 1e3)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("net".into(), net),
            ("latency_ms".into(), Value::Object(latency)),
            ("simulated_accel".into(), Value::Object(sim)),
            ("models".into(), models),
            ("layers".into(), layers),
        ])
    }
}

impl serde::Serialize for StatsSummary {
    fn to_value(&self) -> serde_json::Value {
        self.to_json()
    }
}

/// `q`-quantile (0.0..=1.0) of an unsorted sample by nearest-rank.
///
/// Exact (sorts a copy); for callers that already hold a bounded sample
/// vector. The server's ledger — and, since the ledger discipline extends
/// to clients, [`crate::LoadReport`] — stream through [`LogHistogram`]
/// instead.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut s: Vec<Duration> = samples.to_vec();
    s.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(percentile(&[Duration::from_secs(1)], 0.99), Duration::from_secs(1));
    }

    #[test]
    fn bucket_index_and_lower_are_inverse_and_monotone() {
        let mut prev = 0usize;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "lower({i}) must be <= {v}");
            if i + 1 < BUCKETS {
                assert!(bucket_lower(i + 1) > v, "next lower must exceed {v}");
            }
            assert!(i >= prev, "index must be monotone in value");
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_within_bucket_error() {
        let mut h = LogHistogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 100_000);
        for (q, exact) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.value_at_quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.125, "q={q}: got {got}, exact {exact}, rel err {rel}");
        }
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn single_sample_quantiles_equal_that_sample() {
        // Regression: quantiles were clamped to `max` only, so a low
        // quantile could report a bucket midpoint *below* every recorded
        // sample. With a tracked minimum the clamp is two-sided: a
        // one-sample histogram answers that sample at every quantile.
        for v in [1u64, 9, 1000, 123_456_789, u64::MAX / 3] {
            let mut h = LogHistogram::default();
            h.record(v);
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
            for q in [0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.value_at_quantile(q), v, "q={q} of single sample {v}");
            }
        }
    }

    #[test]
    fn quantiles_never_leave_the_observed_range() {
        let mut h = LogHistogram::default();
        assert_eq!(h.min(), 0, "empty histogram reports 0");
        // Two far-apart samples: every quantile lies within [min, max].
        h.record(1000);
        h.record(1_000_000);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let v = h.value_at_quantile(q);
            assert!((1000..=1_000_000).contains(&v), "q={q} gave {v}");
        }
        assert_eq!(h.value_at_quantile(0.01), 1000, "low quantile is the low sample");
    }

    #[test]
    fn count_rejection_maps_every_variant_to_its_own_counter() {
        let mut l = Ledger::default();
        l.count_rejection(&ServeError::UnknownModel("x".into()));
        l.count_rejection(&ServeError::BadInput("y".into()));
        l.count_rejection(&ServeError::QueueFull);
        l.count_rejection(&ServeError::ShuttingDown);
        l.count_rejection(&ServeError::DeadlineExceeded);
        l.count_rejection(&ServeError::WorkerLost);
        l.count_rejection(&ServeError::Internal);
        assert_eq!(l.rejected_invalid, 2, "only UnknownModel/BadInput are invalid");
        assert_eq!(l.rejected_queue_full, 1);
        assert_eq!(l.rejected_shutdown, 1);
        assert_eq!(l.rejected_deadline, 1);
        assert_eq!(l.internal_errors, 2);
    }

    #[test]
    fn net_tap_streams_into_the_summary_and_json() {
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        let tap = NetTap::new(Arc::clone(&ledger));
        tap.conn_opened();
        tap.conn_opened();
        tap.frame_in(64);
        tap.frame_out(128);
        tap.bytes_in(9);
        tap.protocol_error();
        tap.conn_rejected();
        tap.conn_closed();
        let s = lock_ledger(&ledger).summary();
        assert_eq!(s.net.connections_opened, 2);
        assert_eq!(s.net.connections_closed, 1);
        assert_eq!(s.net.active_connections, 1);
        assert_eq!(s.net.connections_rejected, 1);
        assert_eq!(s.net.bytes_in, 64 + 9);
        assert_eq!(s.net.bytes_out, 128);
        assert_eq!(s.net.frames_in, 1);
        assert_eq!(s.net.frames_out, 1);
        assert_eq!(s.net.protocol_errors, 1);
        let v = s.to_json();
        assert_eq!(v["net"]["connections_opened"], serde_json::Value::U64(2));
        assert_eq!(v["net"]["bytes_out"], serde_json::Value::U64(128));
    }

    #[test]
    fn histogram_is_fixed_footprint() {
        // The whole point: size is independent of sample count.
        let empty = std::mem::size_of::<LogHistogram>();
        let mut h = LogHistogram::default();
        for v in 0..1_000_000u64 {
            h.record(v.wrapping_mul(2654435761));
        }
        assert_eq!(std::mem::size_of_val(&h), empty);
    }

    #[test]
    fn ledger_streams_requests_and_batches() {
        let mut l = Ledger::default();
        for i in 1..=4u64 {
            l.record_request(
                Duration::from_millis(i),
                Duration::from_millis(10),
                Duration::from_millis(10 + i),
            );
        }
        l.record_batch(BatchRecord {
            model: "m".into(),
            version: 1,
            fingerprint: 0xFEED,
            engine: "odq".into(),
            size: 2,
            service: Duration::from_millis(10),
            sensitive_fraction: Some(0.25),
            sim: Some(BatchSim {
                config: "ODQ".into(),
                cycles_per_image: 100.0,
                batch_cycles: 200.0,
                time_s: 1e-6,
                energy_nj: 5.0,
                routes: vec![RouteSim {
                    route: "odq".into(),
                    config: "ODQ".into(),
                    layers: 3,
                    batch_cycles: 200.0,
                    energy_nj: 5.0,
                }],
            }),
        });
        l.record_batch(BatchRecord {
            model: "m".into(),
            version: 2,
            fingerprint: 0xBEEF,
            engine: "odq".into(),
            size: 2,
            service: Duration::from_millis(10),
            sensitive_fraction: Some(0.75),
            sim: None,
        });
        let s = l.summary();
        assert_eq!(s.completed, 4);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_size - 2.0).abs() < 1e-12);
        assert_eq!(s.max_batch_size, 2);
        assert_eq!(s.sim_cycles, 200.0);
        assert_eq!(s.sim_energy_nj, 5.0);
        assert!((s.mean_sensitive_fraction.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(s.routes.len(), 1);
        assert_eq!(s.routes[0].route, "odq");
        assert_eq!(s.routes[0].batches, 1);
        assert_eq!(s.routes[0].layers, 3);
        assert_eq!(s.routes[0].cycles, 200.0);
        let json = s.to_json();
        assert_eq!(
            json["simulated_accel"]["routes"]["odq"]["cycles"],
            serde_json::Value::F64(200.0)
        );
        // 12.5%-accurate median of {11, 12, 13, 14} ms.
        let p50_ms = s.p50_latency.as_secs_f64() * 1e3;
        assert!((p50_ms - 12.0).abs() / 12.0 <= 0.125, "p50 {p50_ms} ms");
        assert_eq!(l.recent_batches().len(), 2);
    }

    #[test]
    fn recent_ring_and_footprint_stay_bounded() {
        let mut l = Ledger::default();
        for i in 0..10_000u64 {
            l.record_batch(BatchRecord {
                model: format!("model-{}", i % 3),
                version: 1,
                fingerprint: 7,
                engine: "float".into(),
                size: 4,
                service: Duration::from_micros(i),
                sensitive_fraction: None,
                sim: None,
            });
        }
        assert_eq!(l.batches, 10_000);
        assert_eq!(l.recent_batches().len(), RECENT_BATCH_CAP);
        assert!(l.approx_bytes() < 64 * 1024, "ledger footprint {} bytes", l.approx_bytes());
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut all = LogHistogram::default();
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        for v in [0u64, 1, 7, 8, 100, 12345, u64::MAX / 5, u64::MAX] {
            all.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merged shards must equal one histogram of all samples");
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        // Merging an empty histogram is the identity, both ways.
        let before = a.clone();
        a.merge(&LogHistogram::default());
        assert_eq!(a, before);
        let mut empty = LogHistogram::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn per_layer_aggregates_stream_and_serialize() {
        let mut l = Ledger::default();
        for pass in 0..3u64 {
            l.record_layers(
                "m",
                1,
                &[
                    LayerProfile {
                        layer: "C1".into(),
                        route: "odq".into(),
                        wall: Duration::from_micros(100 + pass),
                        mask_density: Some(0.25),
                        sim_cycles: 1000.0,
                    },
                    LayerProfile {
                        layer: "C2".into(),
                        route: "int8".into(),
                        wall: Duration::from_micros(50),
                        mask_density: None,
                        sim_cycles: 500.0,
                    },
                ],
            );
        }
        let s = l.summary();
        assert_eq!(s.layers.len(), 2);
        let c1 = &s.layers[0];
        assert_eq!((c1.layer.as_str(), c1.route.as_str()), ("C1", "odq"));
        assert_eq!(c1.passes, 3);
        assert!((c1.mask_density.unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(c1.sim_cycles, 3000.0);
        assert!(c1.wall.max >= Duration::from_micros(100));
        assert_eq!(s.layers[1].mask_density, None);
        let json = s.to_json();
        assert_eq!(json["layers"][0]["layer"], serde_json::Value::String("C1".into()));
        assert_eq!(json["layers"][0]["mask_density"], serde_json::Value::F64(0.25));
        // Aggregates are keyed by deployment: the footprint tracks
        // topology, not request count.
        let before = l.approx_bytes();
        l.record_layers(
            "m",
            1,
            &[LayerProfile {
                layer: "C1".into(),
                route: "odq".into(),
                wall: Duration::from_micros(101),
                mask_density: Some(0.5),
                sim_cycles: 1.0,
            }],
        );
        assert_eq!(l.approx_bytes(), before, "re-recording a known layer must not grow");
    }

    #[test]
    fn summary_serializes_to_json() {
        let mut l = Ledger::default();
        l.record_request(
            Duration::from_millis(1),
            Duration::from_millis(2),
            Duration::from_millis(3),
        );
        l.rejected_shutdown = 7;
        let s = l.summary();
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(json.contains("\"rejected_shutdown\":7"), "{json}");
        let v = s.to_json();
        assert_eq!(v["counters"]["completed"], serde_json::Value::U64(1));
        assert_eq!(v["counters"]["rejected_shutdown"], serde_json::Value::U64(7));
    }
}
