//! A lock-cheap trace collector: sharded rings, seeded sampling.
//!
//! [`TraceBuffer`] is the reference [`TraceSink`] implementation the
//! serving stack is wired with. Its two design constraints come straight
//! from the rest of the stack:
//!
//! * **Sampling must be deterministic.** The chaos harness replays a
//!   seeded schedule and asserts identical event logs across runs, so
//!   whether a request is traced may depend only on `(seed, trace id)` —
//!   never on wall time, collection state, or thread interleaving.
//!   [`TraceBuffer::sample`] is a pure `splitmix64` test.
//! * **Recording must be cheap and bounded.** Spans land in one of a
//!   fixed set of mutex-guarded rings, picked by trace id, so concurrent
//!   workers rarely contend on the same shard, and memory is capped at
//!   `capacity` spans regardless of how long the server runs (oldest
//!   spans are overwritten first, per shard).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use odq_serve::{SpanRecord, SpanStage, TraceSink};

/// Shard count. A small fixed power of two: enough that the submitters
/// and a handful of workers almost never collide on a lock,
/// while a scrape still only has a few locks to take.
const SHARDS: usize = 8;

/// The `splitmix64` finalizer: a cheap, well-mixed hash of `(seed, id)`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One collected span, normalized for export: the `Instant` of the live
/// [`SpanRecord`] becomes nanoseconds since the buffer's epoch, so spans
/// are comparable and serializable.
#[derive(Clone, Debug)]
pub struct StoredSpan {
    /// Trace id the span belongs to.
    pub trace: u64,
    /// Server-side request id.
    pub request: u64,
    /// Model served.
    pub model: String,
    /// Deployment version served.
    pub version: u64,
    /// Which pipeline stage this span marks.
    pub stage: SpanStage,
    /// Nanoseconds since the buffer was created.
    pub at_ns: u64,
    /// Stage duration in nanoseconds, for stages that measure one.
    pub dur_ns: Option<u64>,
}

struct Shard {
    ring: VecDeque<StoredSpan>,
}

/// A bounded, sharded collector of sampled request traces.
pub struct TraceBuffer {
    seed: u64,
    /// Sample iff `splitmix64(seed ^ trace) <= threshold`; `0` after a
    /// `sample_one_in(0)` means "trace nothing".
    threshold: u64,
    epoch: Instant,
    per_shard_cap: usize,
    shards: Vec<Mutex<Shard>>,
    /// Spans evicted to keep the rings bounded (observability for the
    /// observability: a scrape can tell when it is seeing a window).
    evicted: AtomicU64,
}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("seed", &self.seed)
            .field("threshold", &self.threshold)
            .field("capacity", &(self.per_shard_cap * SHARDS))
            .finish()
    }
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(|p| p.into_inner())
}

impl TraceBuffer {
    /// Buffer sampling one in `one_in` traces (deterministically, by
    /// seeded hash of the trace id), holding at most `capacity` spans.
    /// `one_in == 0` samples nothing; `one_in == 1` samples everything.
    pub fn new(seed: u64, one_in: u64, capacity: usize) -> Self {
        let threshold = match one_in {
            0 => 0,
            n => u64::MAX / n,
        };
        let per_shard_cap = capacity.div_ceil(SHARDS).max(1);
        Self {
            seed,
            threshold,
            epoch: Instant::now(),
            per_shard_cap,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard { ring: VecDeque::with_capacity(8) }))
                .collect(),
            evicted: AtomicU64::new(0),
        }
    }

    /// Buffer sampling every trace — what tests and the examples use.
    pub fn sample_all(capacity: usize) -> Self {
        Self::new(0, 1, capacity)
    }

    /// Spans evicted so far to keep the buffer bounded.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Every collected span, ordered by capture time (then by pipeline
    /// stage, so the five spans of one trace always read in stage order
    /// even when two land on the same nanosecond tick).
    pub fn spans(&self) -> Vec<StoredSpan> {
        let mut all: Vec<StoredSpan> = Vec::new();
        for shard in &self.shards {
            all.extend(lock(shard).ring.iter().cloned());
        }
        all.sort_by_key(|s| (s.at_ns, s.stage as u8));
        all
    }

    /// The collected spans grouped per trace, most recently started trace
    /// last, at most `limit` traces. Each trace's spans are in stage
    /// order.
    pub fn traces(&self, limit: usize) -> Vec<TraceView> {
        let mut by_trace: Vec<TraceView> = Vec::new();
        for s in self.spans() {
            match by_trace.iter_mut().find(|t| t.trace == s.trace) {
                Some(t) => t.spans.push(s),
                None => {
                    by_trace.push(TraceView {
                        trace: s.trace,
                        request: s.request,
                        model: s.model.clone(),
                        version: s.version,
                        spans: vec![s],
                    });
                }
            }
        }
        for t in &mut by_trace {
            t.spans.sort_by_key(|s| (s.stage as u8, s.at_ns));
        }
        by_trace.sort_by_key(|t| t.spans.first().map_or(0, |s| s.at_ns));
        if by_trace.len() > limit {
            by_trace.drain(..by_trace.len() - limit);
        }
        by_trace
    }

    /// The `/traces/recent` payload: newest-last array of traces, each
    /// with its spans as `{stage, at_ns, dur_ns?}` objects.
    pub fn to_json(&self, limit: usize) -> serde_json::Value {
        use serde_json::Value;
        let traces: Vec<Value> = self
            .traces(limit)
            .into_iter()
            .map(|t| {
                let complete = t.is_complete();
                let spans: Vec<Value> = t
                    .spans
                    .iter()
                    .map(|s| {
                        let mut o = vec![
                            ("stage".to_string(), Value::String(s.stage.label().to_string())),
                            ("at_ns".to_string(), Value::U64(s.at_ns)),
                        ];
                        if let Some(d) = s.dur_ns {
                            o.push(("dur_ns".to_string(), Value::U64(d)));
                        }
                        Value::Object(o)
                    })
                    .collect();
                Value::Object(vec![
                    ("trace".to_string(), Value::U64(t.trace)),
                    ("request".to_string(), Value::U64(t.request)),
                    ("model".to_string(), Value::String(t.model)),
                    ("version".to_string(), Value::U64(t.version)),
                    ("complete".to_string(), Value::Bool(complete)),
                    ("spans".to_string(), Value::Array(spans)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("evicted".to_string(), Value::U64(self.evicted())),
            ("traces".to_string(), Value::Array(traces)),
        ])
    }
}

impl TraceSink for TraceBuffer {
    fn sample(&self, trace: u64) -> bool {
        splitmix64(self.seed ^ trace) <= self.threshold
    }

    fn record(&self, span: SpanRecord) {
        let stored = StoredSpan {
            trace: span.trace,
            request: span.request,
            model: span.model,
            version: span.version,
            stage: span.stage,
            at_ns: span.at.saturating_duration_since(self.epoch).as_nanos().min(u64::MAX as u128)
                as u64,
            dur_ns: span.dur.map(|d| d.as_nanos().min(u64::MAX as u128) as u64),
        };
        let shard = &self.shards[(span.trace % SHARDS as u64) as usize];
        let mut s = lock(shard);
        if s.ring.len() >= self.per_shard_cap {
            s.ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        s.ring.push_back(stored);
    }
}

/// One trace's spans, grouped for export.
#[derive(Clone, Debug)]
pub struct TraceView {
    /// Trace id.
    pub trace: u64,
    /// Server-side request id.
    pub request: u64,
    /// Model served.
    pub model: String,
    /// Deployment version served.
    pub version: u64,
    /// Collected spans, in pipeline-stage order.
    pub spans: Vec<StoredSpan>,
}

impl TraceView {
    /// Whether all five pipeline stages were collected.
    pub fn is_complete(&self) -> bool {
        SpanStage::ALL.iter().all(|want| self.spans.iter().any(|s| s.stage == *want))
    }

    /// Whether the collected spans' timestamps are monotone in pipeline
    /// order — the invariant a correctly threaded pipeline must uphold
    /// (submit ≤ batch-form ≤ worker-dequeue ≤ execute ≤ scatter).
    pub fn is_monotone(&self) -> bool {
        self.spans
            .windows(2)
            .all(|w| w[0].stage as u8 <= w[1].stage as u8 && w[0].at_ns <= w[1].at_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(trace: u64, stage: SpanStage, at: Instant) -> SpanRecord {
        SpanRecord {
            trace,
            request: trace,
            model: "m".into(),
            version: 1,
            stage,
            at,
            dur: Some(Duration::from_micros(5)),
        }
    }

    #[test]
    fn sampling_is_pure_and_seed_dependent() {
        let a = TraceBuffer::new(42, 4, 64);
        let b = TraceBuffer::new(42, 4, 64);
        let c = TraceBuffer::new(43, 4, 64);
        let picks = |t: &TraceBuffer| (0..512u64).filter(|&i| t.sample(i)).collect::<Vec<_>>();
        assert_eq!(picks(&a), picks(&b), "same seed, same picks — replay determinism");
        assert_ne!(picks(&a), picks(&c), "a different seed picks differently");
        let n = picks(&a).len();
        assert!((64..=192).contains(&n), "1-in-4 of 512 should land near 128, got {n}");
    }

    #[test]
    fn one_in_zero_and_one_are_the_extremes() {
        let none = TraceBuffer::new(1, 0, 8);
        let all = TraceBuffer::new(1, 1, 8);
        assert!((0..256u64).all(|i| !none.sample(i)));
        assert!((0..256u64).all(|i| all.sample(i)));
    }

    #[test]
    fn traces_group_and_order_spans() {
        let buf = TraceBuffer::sample_all(64);
        let t0 = buf.epoch;
        // Record trace 7 out of order; trace 9 interleaved.
        buf.record(span(7, SpanStage::BatchForm, t0 + Duration::from_micros(10)));
        buf.record(span(9, SpanStage::Submit, t0 + Duration::from_micros(2)));
        buf.record(span(7, SpanStage::Submit, t0 + Duration::from_micros(1)));
        buf.record(span(7, SpanStage::WorkerDequeue, t0 + Duration::from_micros(20)));
        buf.record(span(7, SpanStage::EngineExecute, t0 + Duration::from_micros(30)));
        buf.record(span(7, SpanStage::ResponseScatter, t0 + Duration::from_micros(40)));
        let traces = buf.traces(10);
        assert_eq!(traces.len(), 2);
        let seven = traces.iter().find(|t| t.trace == 7).unwrap();
        assert!(seven.is_complete());
        assert!(seven.is_monotone());
        let labels: Vec<&str> = seven.spans.iter().map(|s| s.stage.label()).collect();
        assert_eq!(
            labels,
            ["submit", "batch_form", "worker_dequeue", "engine_execute", "response_scatter"]
        );
        let nine = traces.iter().find(|t| t.trace == 9).unwrap();
        assert!(!nine.is_complete());
        let json = serde_json::to_string(&buf.to_json(10)).unwrap();
        assert!(json.contains("\"response_scatter\""), "{json}");
    }

    #[test]
    fn capacity_is_bounded_and_eviction_counted() {
        let buf = TraceBuffer::sample_all(SHARDS); // one span per shard
        let t0 = buf.epoch;
        for i in 0..10 * SHARDS as u64 {
            buf.record(span(i, SpanStage::Submit, t0 + Duration::from_micros(i)));
        }
        assert_eq!(buf.spans().len(), SHARDS);
        assert_eq!(buf.evicted(), 9 * SHARDS as u64);
    }
}
