//! The TCP client: `submit` over the wire, same handle type as in-process.
//!
//! [`NetClient::submit`] frames the request, writes it, and returns the
//! same [`ResponseHandle`] the in-process [`odq_serve::Server`] hands out
//! — resolved by a background reader thread that routes response and
//! error frames back to their requests by id, in whatever order the
//! server finishes them. The client therefore implements
//! [`LoadTarget`], so the `odq_serve` load generators drive a remote
//! server exactly like a local one.
//!
//! Failure semantics mirror the in-process contract: a request the
//! transport loses (connection reset, server gone) resolves its handle to
//! [`ServeError::WorkerLost`]; a request the server rejects resolves to
//! the typed [`ServeError`] its error frame carried; a submit after the
//! reader thread has died (connection torn down, stream corrupted) fails
//! at the call with [`ServeError::ShuttingDown`]. In every case the
//! waiter gets exactly one typed outcome — never a hang.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use odq_serve::{
    InferRequest, InferResponse, LoadTarget, ResponseHandle, ResponseSender, ServeError,
};

use crate::wire::{self, encode_request, Frame, RequestFrame, WireLimits, NO_REQUEST_ID};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A connection to a remote `odq-net` server.
pub struct NetClient {
    stream: TcpStream,
    /// Writes are short and framed; a mutex serializes concurrent
    /// submitters onto the socket.
    write: Mutex<TcpStream>,
    /// In-flight requests by wire id; the reader thread resolves them.
    pending: Arc<Mutex<HashMap<u64, ResponseSender>>>,
    /// Cleared by the reader thread *before* it drops the pending map's
    /// senders on exit, so `submit` can detect a dead connection instead
    /// of registering a request nobody will ever resolve.
    reader_alive: Arc<AtomicBool>,
    /// Wire ids for requests that do not bring their own.
    seq: AtomicU64,
    reader: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Connect with default [`WireLimits`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, WireLimits::default())
    }

    /// Connect with explicit decoder limits (must admit the response
    /// tensors the server will send).
    pub fn connect_with(addr: impl ToSocketAddrs, limits: WireLimits) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let write = Mutex::new(stream.try_clone()?);
        let pending: Arc<Mutex<HashMap<u64, ResponseSender>>> = Arc::default();
        let reader_alive = Arc::new(AtomicBool::new(true));
        let read_half = stream.try_clone()?;
        let reader_pending = Arc::clone(&pending);
        let reader_flag = Arc::clone(&reader_alive);
        let reader = std::thread::Builder::new()
            .name("odq-net-client-read".into())
            .spawn(move || reader_loop(read_half, reader_pending, reader_flag, limits))?;
        Ok(Self {
            stream,
            write,
            pending,
            reader_alive,
            seq: AtomicU64::new(0),
            reader: Some(reader),
        })
    }

    /// Submit a request over the wire. Returns immediately with a handle
    /// the background reader resolves when the server answers.
    ///
    /// Unlike the in-process server, admission errors (queue full,
    /// unknown model, ...) arrive *through the handle*: the only
    /// submit-time failures are a dead connection
    /// ([`ServeError::ShuttingDown`]), an unencodable request, or a
    /// caller-chosen id that is already in flight on this connection
    /// (both [`ServeError::BadInput`]).
    pub fn submit(&self, req: InferRequest) -> Result<ResponseHandle, ServeError> {
        let (reply, handle) = ResponseHandle::channel();
        self.submit_to(req, reply)?;
        Ok(handle)
    }

    /// [`submit`](Self::submit), resolving `reply` instead of returning a
    /// handle: the background reader resolves it when the server answers.
    /// A submit-time failure resolves `reply` with the error it returns.
    pub fn submit_to(&self, req: InferRequest, reply: ResponseSender) -> Result<(), ServeError> {
        let refuse = |e: ServeError| {
            reply.send(Err(e.clone()));
            Err(e)
        };
        let id = match req.id {
            Some(id) => id,
            None => self.next_id(),
        };
        let frame = RequestFrame::from_request(id, req);
        let bytes = match encode_request(&frame) {
            Ok(bytes) => bytes,
            Err(e) => return refuse(ServeError::BadInput(format!("unencodable request: {e}"))),
        };
        {
            let mut pending = lock(&self.pending);
            if pending.contains_key(&id) {
                drop(pending);
                return refuse(ServeError::BadInput(format!(
                    "request id {id} is already in flight on this connection"
                )));
            }
            pending.insert(id, reply.clone());
        }
        // Registered before the write, so a fast response cannot race the
        // bookkeeping. On a write failure the registration is rolled back.
        let write_ok = {
            let mut w = lock(&self.write);
            w.write_all(&bytes).and_then(|_| w.flush()).is_ok()
        };
        if !write_ok {
            lock(&self.pending).remove(&id);
            return refuse(ServeError::ShuttingDown);
        }
        // The write can succeed into a socket whose reader has already
        // exited (the OS buffers it; the death is only visible on the read
        // half). The reader clears `reader_alive` *before* dropping the
        // pending senders, so the ordering here is airtight: if the flag
        // is still set after our insert, the reader was alive to see the
        // registration and will resolve or drop it; if it is clear and our
        // entry is still in the map, the reader exited before our insert
        // and nobody will ever resolve it — take it back and fail typed,
        // exactly like a failed write, so no waiter can hang.
        if !self.reader_alive.load(Ordering::SeqCst) && lock(&self.pending).remove(&id).is_some() {
            return refuse(ServeError::ShuttingDown);
        }
        Ok(())
    }

    /// Submit and block for the answer.
    pub fn infer(&self, req: InferRequest) -> Result<InferResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Graceful close: stop sending (the server sees EOF, answers
    /// everything in flight, then closes), wait for the reader to drain
    /// the remaining responses.
    pub fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }

    /// A wire id no caller-chosen id is likely to collide with: the top
    /// half of the sequence space (`u64::MAX` itself stays reserved for
    /// unattributable error frames).
    fn next_id(&self) -> u64 {
        (1u64 << 63) | (self.seq.fetch_add(1, Ordering::Relaxed) & !(1u64 << 63))
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl LoadTarget for NetClient {
    fn submit_to(&self, req: InferRequest, reply: ResponseSender) -> Result<(), ServeError> {
        NetClient::submit_to(self, req, reply)
    }
}

fn reader_loop(
    stream: TcpStream,
    pending: Arc<Mutex<HashMap<u64, ResponseSender>>>,
    alive: Arc<AtomicBool>,
    limits: WireLimits,
) {
    let mut r = BufReader::new(stream);
    loop {
        match wire::read_frame(&mut r, &limits) {
            Ok((Frame::Response(rf), _)) => {
                if let Some(tx) = lock(&pending).remove(&rf.id) {
                    tx.send(Ok(InferResponse {
                        output: rf.output,
                        timing: rf.timing,
                        trace: rf.trace,
                    }));
                }
            }
            Ok((Frame::Error(ef), _)) => {
                if ef.id == NO_REQUEST_ID {
                    // Connection-fatal: the server is closing this
                    // connection; everything unresolved becomes
                    // WorkerLost below.
                    break;
                }
                if let Some(tx) = lock(&pending).remove(&ef.id) {
                    tx.send(Err(ef.code.to_serve_error(&ef.message)));
                }
            }
            // Servers do not send requests; a decode failure means the
            // stream cannot be trusted any further.
            Ok((Frame::Request(_), _)) | Err(_) => break,
        }
    }
    // Death is published *before* the pending senders drop: a submit that
    // registers after this store will see the flag and withdraw; one that
    // registered before is cleared here, resolving its handle to
    // WorkerLost. Either way, no waiter is left behind.
    alive.store(false, Ordering::SeqCst);
    // Dropping the senders resolves every still-pending handle to
    // WorkerLost — the same contract as a dropped in-process pipeline.
    lock(&pending).clear();
}
