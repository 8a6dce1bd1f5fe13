//! Request/response types and the submission error taxonomy.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crossbeam::channel::Receiver;
use odq_tensor::Tensor;

/// One inference request: a single `[1, C, H, W]` image for a named model.
#[derive(Clone, Debug)]
pub struct InferRequest {
    /// Name the model was registered under ([`crate::ServerBuilder::model`]).
    pub model: String,
    /// Input image, shape `[1, C, H, W]` matching the model's configured
    /// input channels and spatial size.
    pub input: Tensor,
    /// Optional deadline, relative to submission. A request still queued
    /// or batched when its deadline passes is answered with
    /// [`ServeError::DeadlineExceeded`] instead of being run.
    pub deadline: Option<Duration>,
    /// Optional caller-chosen request id. Canary routing hashes this id
    /// (deterministically, see [`crate::TrafficSplit`]), so resubmitting
    /// with the same id lands on the same version. When `None` the server
    /// assigns the next value of an internal sequence.
    pub id: Option<u64>,
    /// Optional caller-chosen trace id for distributed tracing
    /// ([`crate::trace`]). Carried over the wire by `odq-net`'s
    /// `FLAG_TRACE` and echoed back in [`InferResponse::trace`]. When
    /// `None` the server assigns a fresh server-unique sequence number
    /// (not the request id, which can repeat across connections).
    pub trace: Option<u64>,
}

impl InferRequest {
    /// Request without a deadline.
    pub fn new(model: impl Into<String>, input: Tensor) -> Self {
        Self { model: model.into(), input, deadline: None, id: None, trace: None }
    }

    /// Attach a deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach an explicit request id (the canary-routing key).
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Attach an explicit trace id (propagated and echoed end to end).
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Timing observed for one request.
#[derive(Clone, Copy, Debug)]
pub struct RequestTiming {
    /// Submission → start of the forward pass that served it.
    pub queue_wait: Duration,
    /// Duration of that forward pass (shared by the whole batch).
    pub service: Duration,
    /// Submission → response ready.
    pub total: Duration,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
}

/// Successful response: the request's row of the model output.
#[derive(Clone, Debug)]
pub struct InferResponse {
    /// Output logits, shape `[1, num_classes]`.
    pub output: Tensor,
    /// Timing breakdown.
    pub timing: RequestTiming,
    /// The request's trace id, echoed back: the id the caller attached
    /// ([`InferRequest::with_trace`]), or the server-assigned one. `None`
    /// only when an older transport did not echo it.
    pub trace: Option<u64>,
}

/// Why a request was rejected or failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded submission queue is full — backpressure; retry later.
    QueueFull,
    /// No model registered under this name.
    UnknownModel(String),
    /// Input tensor shape does not match the model's expected
    /// `[1, C, H, W]`.
    BadInput(String),
    /// The deadline passed before the request reached a worker.
    DeadlineExceeded,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The serving pipeline dropped the response channel (worker panic).
    WorkerLost,
    /// A worker panicked while executing the batch this request rode in.
    /// The worker was restarted with a fresh engine; retrying is safe.
    Internal,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "submission queue full"),
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::BadInput(why) => write!(f, "bad input: {why}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerLost => write!(f, "serving pipeline dropped the response"),
            ServeError::Internal => {
                write!(f, "internal error: worker panicked while serving the batch")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A request's terminal outcome.
type Outcome = Result<InferResponse, ServeError>;

/// Handle to a submitted request's eventual response.
///
/// The response arrives on a dedicated single-slot channel, so a handle
/// can be waited on from any thread, at any time after submission.
#[derive(Debug)]
pub struct ResponseHandle {
    pub(crate) rx: Receiver<Outcome>,
}

impl ResponseHandle {
    /// A fresh single-slot reply and the handle it resolves. This is how
    /// [`crate::Server::submit`] and the `odq-net` client hand out
    /// handles: the sender goes to whatever answers the request, and a
    /// sender dropped unresolved resolves the handle to
    /// [`ServeError::WorkerLost`].
    pub fn channel() -> (ResponseSender, ResponseHandle) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let reply = ResponseSender::from_fn(move |r| {
            let _ = tx.try_send(r);
        });
        (reply, ResponseHandle { rx })
    }

    /// Block until the response is ready.
    pub fn wait(self) -> Outcome {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Outcome> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(crossbeam::channel::TryRecvError::Empty) => None,
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Some(Err(ServeError::WorkerLost))
            }
        }
    }
}

/// One request's reply, resolved exactly once: either a slot a
/// [`ResponseHandle`] waits on ([`ResponseHandle::channel`]) or a
/// callback run on the resolving thread ([`ResponseSender::from_fn`]) —
/// how the `odq-net` server pushes each reply straight to its
/// connection's writer, and how the load generators stamp the moment a
/// response resolved.
///
/// Clones share the one reply. The first [`send`](Self::send) resolves
/// it and later ones return `false`; dropping every clone unresolved
/// resolves it to [`ServeError::WorkerLost`], so a lost pipeline never
/// leaves a waiter hanging.
#[derive(Clone)]
pub struct ResponseSender {
    reply: Arc<Reply>,
}

/// Hands a request's outcome to wherever it is going.
type Deliver = Box<dyn FnOnce(Outcome) + Send>;

/// The reply's delivery, taken by whichever resolves it first.
struct Reply(Mutex<Option<Deliver>>);

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(deliver) = self.0.get_mut().unwrap_or_else(PoisonError::into_inner).take() {
            deliver(Err(ServeError::WorkerLost));
        }
    }
}

impl ResponseSender {
    /// A reply that runs `f` with the outcome, exactly once, on whichever
    /// thread resolves it (a worker, an admission rejection, or the drop
    /// of the last unresolved clone). `f` should be quick: it runs on the
    /// serving path.
    pub fn from_fn(f: impl FnOnce(Outcome) + Send + 'static) -> Self {
        Self { reply: Arc::new(Reply(Mutex::new(Some(Box::new(f))))) }
    }

    /// Resolve the reply. Returns `false` when it was already resolved:
    /// the result is then dropped.
    pub fn send(&self, result: Outcome) -> bool {
        let deliver = self.reply.0.lock().unwrap_or_else(PoisonError::into_inner).take();
        deliver.map(|deliver| deliver(result)).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    #[test]
    fn channel_pair_resolves_once() {
        let (tx, h) = ResponseHandle::channel();
        assert!(h.try_wait().is_none());
        assert!(tx.send(Err(ServeError::QueueFull)));
        assert!(!tx.send(Err(ServeError::Internal)), "slot holds exactly one result");
        assert_eq!(h.wait().unwrap_err(), ServeError::QueueFull);
    }

    #[test]
    fn dropped_response_sender_is_worker_lost() {
        let (tx, h) = ResponseHandle::channel();
        drop(tx);
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
    }

    /// A callback reply that records every outcome it is handed.
    fn recording() -> (ResponseSender, Arc<Mutex<Vec<Outcome>>>) {
        let seen: Arc<Mutex<Vec<Outcome>>> = Arc::default();
        let sink = Arc::clone(&seen);
        (ResponseSender::from_fn(move |r| sink.lock().unwrap().push(r)), seen)
    }

    fn errors(seen: &Mutex<Vec<Outcome>>) -> Vec<Option<ServeError>> {
        seen.lock().unwrap().iter().map(|r| r.as_ref().err().cloned()).collect()
    }

    #[test]
    fn callback_reply_runs_exactly_once() {
        let (tx, seen) = recording();
        let clone = tx.clone();
        assert!(tx.send(Err(ServeError::DeadlineExceeded)));
        assert!(!clone.send(Err(ServeError::Internal)), "a second send is refused");
        drop((tx, clone));
        assert_eq!(errors(&seen), vec![Some(ServeError::DeadlineExceeded)]);
    }

    #[test]
    fn dropping_every_unresolved_clone_delivers_worker_lost() {
        let (tx, seen) = recording();
        let clone = tx.clone();
        drop(tx);
        assert!(seen.lock().unwrap().is_empty(), "a live clone keeps the reply open");
        drop(clone);
        assert_eq!(errors(&seen), vec![Some(ServeError::WorkerLost)]);
    }

    #[test]
    fn handle_delivers_response() {
        let (tx, rx) = bounded(1);
        let h = ResponseHandle { rx };
        assert!(h.try_wait().is_none());
        tx.send(Err(ServeError::QueueFull)).unwrap();
        assert_eq!(h.wait().unwrap_err(), ServeError::QueueFull);
    }

    #[test]
    fn dropped_sender_is_worker_lost() {
        let (tx, rx) = bounded::<Result<InferResponse, ServeError>>(1);
        drop(tx);
        let h = ResponseHandle { rx };
        assert_eq!(h.wait().unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ServeError::UnknownModel("x".into()).to_string().contains("x"));
        assert!(!ServeError::QueueFull.to_string().is_empty());
    }
}
