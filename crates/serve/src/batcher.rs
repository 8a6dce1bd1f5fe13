//! Worker-pull batching: one bounded queue that free workers take from.
//!
//! Admission pushes each request onto a single bounded FIFO. A worker
//! that is free takes the *oldest* request plus up to `max_batch − 1`
//! younger ones with the same *batch key* — model name, deployment
//! version, and input shape — leaving every other request where it was.
//! The version is part of the key, so a hot swap or canary split never
//! mixes two weight versions in one forward pass.
//!
//! Nothing waits on a timer. At light load a request is taken the moment
//! it arrives, alone; under backlog the requests that queued up while
//! every worker was busy leave together in full batches. Batch size thus
//! follows load without a batching window, and a request's deadline is
//! never spent waiting for company. On shutdown [`Queue::close`] refuses
//! new work while workers drain everything already admitted.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::config::ServeConfig;
use crate::deploy::Deployment;
use crate::request::{InferRequest, ResponseSender, ServeError};
use crate::trace::{SpanRecord, SpanStage};

/// An admitted request travelling through the pipeline, pinned to the
/// deployment snapshot admission resolved for it — the version decision
/// is made exactly once, so a swap mid-flight cannot tear the request.
pub(crate) struct Pending {
    pub req: InferRequest,
    /// The deployment (weights + plans) that will execute this request.
    pub dep: Arc<Deployment>,
    pub resp: ResponseSender,
    pub enqueued: Instant,
    pub deadline: Option<Instant>,
    /// The request id admission resolved (caller-chosen or assigned).
    pub id: u64,
    /// The request's trace id (caller-chosen or a server-unique sequence
    /// number).
    pub trace: u64,
    /// Whether the configured [`crate::trace::TraceSink`] sampled this
    /// trace — decided exactly once, at admission.
    pub traced: bool,
}

impl Pending {
    /// Requests batch together iff they ask for the same model at the
    /// same deployment version with the same input shape.
    fn batches_with(&self, other: &Pending) -> bool {
        self.dep.version == other.dep.version
            && self.dep.name == other.dep.name
            && self.req.input.dims() == other.req.input.dims()
    }
}

/// Report one pipeline stage for every traced member of `items` to the
/// configured sink. No-op (and no per-item work) without a sink.
pub(crate) fn record_spans(
    cfg: &ServeConfig,
    items: &[Pending],
    stage: SpanStage,
    at: Instant,
    dur: Option<Duration>,
) {
    let Some(sink) = &cfg.trace else { return };
    for p in items.iter().filter(|p| p.traced) {
        sink.record(SpanRecord {
            trace: p.trace,
            request: p.id,
            model: p.dep.name.clone(),
            version: p.dep.version,
            stage,
            at,
            dur,
        });
    }
}

struct State {
    items: VecDeque<Pending>,
    closed: bool,
}

/// The bounded submission queue workers pull batches from.
pub(crate) struct Queue {
    state: Mutex<State>,
    ready: Condvar,
    capacity: usize,
}

impl Queue {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit `p`, or refuse it with [`ServeError::QueueFull`] /
    /// [`ServeError::ShuttingDown`]. `on_admit` runs under the queue lock
    /// with the depth after the push, so admission is accounted before
    /// any worker can take the request.
    pub fn push(
        &self,
        p: Pending,
        on_admit: impl FnOnce(&Pending, usize),
    ) -> Result<(), ServeError> {
        let mut st = self.lock();
        if st.closed {
            return Err(ServeError::ShuttingDown);
        }
        if st.items.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        on_admit(&p, st.items.len() + 1);
        st.items.push_back(p);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until work is queued, then take the oldest request and up to
    /// `max_batch − 1` more with its batch key, in arrival order. `None`
    /// once the queue is closed and empty.
    pub fn take(&self, max_batch: usize) -> Option<Vec<Pending>> {
        let mut st = self.lock();
        while st.items.is_empty() {
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let first = st.items.pop_front().expect("non-empty");
        let mut batch = vec![first];
        let mut i = 0;
        while batch.len() < max_batch && i < st.items.len() {
            if st.items[i].batches_with(&batch[0]) {
                batch.push(st.items.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        Some(batch)
    }

    /// Refuse further pushes and wake every waiting worker; requests
    /// already queued are still taken.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Requests waiting to be taken.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Ledger;
    use odq_tensor::Tensor;

    fn dep(name: &str, version: u64) -> Arc<Deployment> {
        use odq_nn::models::{Model, ModelCfg};
        Arc::new(Deployment {
            name: name.into(),
            version,
            model: Arc::new(Model::build(ModelCfg::small(odq_nn::Arch::LeNet5, 2))),
            plans: Arc::default(),
            fingerprint: 0,
            policy: None,
        })
    }

    /// A request for `dep` with a `[1, 1, hw, hw]` input, tagged `id`.
    fn pending(dep: &Arc<Deployment>, hw: usize, id: u64) -> Pending {
        let input = Tensor::from_vec(vec![1, 1, hw, hw], vec![0.0; hw * hw]);
        let (resp, _handle) = crate::request::ResponseHandle::channel();
        Pending {
            req: InferRequest::new(dep.name.clone(), input),
            dep: Arc::clone(dep),
            resp,
            enqueued: Instant::now(),
            deadline: None,
            id,
            trace: id,
            traced: false,
        }
    }

    fn push(q: &Queue, p: Pending) {
        assert!(q.push(p, |_, _| {}).is_ok());
    }

    fn ids(batch: &[Pending]) -> Vec<u64> {
        batch.iter().map(|p| p.id).collect()
    }

    #[test]
    fn take_groups_one_key_up_to_max_batch_and_keeps_the_rest_in_order() {
        let (a1, a2, b1) = (dep("a", 1), dep("a", 2), dep("b", 1));
        let q = Queue::new(16);
        push(&q, pending(&a1, 4, 0));
        push(&q, pending(&b1, 4, 1)); // other model
        push(&q, pending(&a1, 4, 2));
        push(&q, pending(&a2, 4, 3)); // other version
        push(&q, pending(&a1, 8, 4)); // other shape
        push(&q, pending(&a1, 4, 5));
        push(&q, pending(&a1, 4, 6));

        assert_eq!(ids(&q.take(3).unwrap()), vec![0, 2, 5], "oldest first, same key only");
        assert_eq!(q.len(), 4);
        assert_eq!(ids(&q.take(3).unwrap()), vec![1], "then the oldest remaining");
        assert_eq!(ids(&q.take(3).unwrap()), vec![3]);
        assert_eq!(ids(&q.take(3).unwrap()), vec![4]);
        assert_eq!(ids(&q.take(3).unwrap()), vec![6]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_refuses_when_full_and_after_close() {
        let a = dep("a", 1);
        let q = Queue::new(2);
        let mut depths = Vec::new();
        for id in 0..2 {
            assert!(q.push(pending(&a, 4, id), |_, d| depths.push(d)).is_ok());
        }
        assert_eq!(depths, vec![1, 2], "on_admit sees the depth after the push");
        let e = q.push(pending(&a, 4, 9), |_, _| panic!("not admitted")).unwrap_err();
        assert_eq!(e, ServeError::QueueFull);
        q.close();
        let e = q.push(pending(&a, 4, 10), |_, _| panic!("not admitted")).unwrap_err();
        assert_eq!(e, ServeError::ShuttingDown);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let a = dep("a", 1);
        let q = Arc::new(Queue::new(8));
        for id in 0..3 {
            push(&q, pending(&a, 4, id));
        }
        q.close();
        assert_eq!(ids(&q.take(2).unwrap()), vec![0, 1]);
        assert_eq!(ids(&q.take(2).unwrap()), vec![2]);
        assert!(q.take(2).is_none());

        // A worker blocked on an empty queue wakes up and exits on close.
        let q = Arc::new(Queue::new(8));
        let waiter = std::thread::spawn({
            let q = Arc::clone(&q);
            move || q.take(4).is_none()
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap(), "close wakes a waiting worker with None");
    }

    #[test]
    fn tight_deadline_request_is_dispatched_not_expired() {
        // A request whose whole deadline budget is short must reach a
        // worker and run, not sit out a batching window and expire —
        // through the real worker loop, not just the queue.
        let cfg = ServeConfig { max_batch: 8, simulate_accel: false, ..ServeConfig::default() };
        let queue = Arc::new(Queue::new(4));
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        let worker = std::thread::spawn({
            let (queue, ledger, cfg) = (Arc::clone(&queue), Arc::clone(&ledger), cfg.clone());
            move || crate::worker::run(&queue, crate::EngineKind::Float, cfg, ledger)
        });

        let d = dep("m", 1);
        let (resp, handle) = crate::request::ResponseHandle::channel();
        let now = Instant::now();
        let input = Tensor::from_vec(vec![1, 3, 16, 16], vec![0.5; 3 * 16 * 16]);
        let p = Pending {
            req: InferRequest::new("m", input),
            dep: d,
            resp,
            enqueued: now,
            deadline: Some(now + Duration::from_millis(300)),
            id: 0,
            trace: 0,
            traced: false,
        };
        assert!(queue.push(p, |_, _| {}).is_ok());
        let r = handle.wait().expect("a tight-deadline request is served");
        assert_eq!(r.timing.batch_size, 1);
        assert_eq!(crate::worker::lock_ledger(&ledger).rejected_deadline, 0, "served, not expired");

        queue.close();
        worker.join().unwrap();
    }
}
