//! The TCP front-end: accept loop, per-connection threads, graceful drain.
//!
//! ```text
//!   accept thread ──► per-connection reader ──► Server::submit_to
//!        │                   │ (typed error        │ reply callback, run by
//!        │ (cap check,       │  frames on          │ the worker that served
//!        │  drain flag,      │  protocol           │ the request or by
//!        │  TCP_NODELAY)     ▼  failure)           ▼ admission on reject
//!        │                 event channel ◄─────────┘
//!        ▼                      │
//!   connection registry         ▼
//!                        per-connection writer (one blocking recv; writes
//!                        replies in the order they COMPLETE — no
//!                        head-of-line blocking)
//! ```
//!
//! Each accepted connection gets `TCP_NODELAY` (small reply frames must
//! not wait out a delayed ACK), a **reader** thread (decodes `ODQ1`
//! frames, submits each request to the in-process [`Server`]), and a
//! **writer** thread that owns the write half. Every request's reply is a
//! callback that pushes its outcome straight into the connection's event
//! channel, so the writer just blocks on that channel and writes each
//! outcome as it arrives — a slow request never delays a fast one
//! submitted after it. Admission rejections take the same path as typed
//! error frames; a malformed, truncated, or oversized frame gets a typed
//! error frame and closes the connection (framing cannot be
//! resynchronized after a parse failure), releasing its connection slot.
//! A write failure shuts the whole socket down, so the reader stops
//! submitting work whose replies nobody can read.
//!
//! [`NetServer::shutdown`] drains gracefully: the accept loop stops, every
//! open connection's read side is shut down (no new requests), and each
//! writer exits when its event channel disconnects — once the reader has
//! stopped and every in-flight reply has been written or dropped. Only
//! then is the inner server shut down and the final ledger summary
//! returned.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use odq_serve::{InferResponse, NetTap, ResponseSender, ServeError, Server, StatsSummary};

use crate::wire::{
    self, encode_error, encode_response, ErrorFrame, Frame, ResponseFrame, WireError,
    WireErrorCode, WireLimits, NO_REQUEST_ID,
};

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Maximum simultaneously open connections. Connection number
    /// `max_connections + 1` is refused at accept time with a
    /// [`WireErrorCode::TooManyConnections`] error frame. Default 64.
    pub max_connections: usize,
    /// Decoder hardening limits applied to every inbound frame.
    pub limits: WireLimits,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { max_connections: 64, limits: WireLimits::default() }
    }
}

/// Poison-tolerant lock: connection threads must keep tearing down even
/// if a sibling panicked while holding a registry lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What a connection's writer is handed to put on the wire.
enum Event {
    /// A request's outcome, from its reply callback. The bool is whether
    /// the request carried `FLAG_TRACE` — only then does the response
    /// frame echo the trace id (v1 clients keep seeing v1 response
    /// bodies).
    Reply(u64, bool, Result<InferResponse, ServeError>),
    /// A connection-fatal protocol error from the reader: send it, finish
    /// the in-flight work, and close.
    Fatal(ErrorFrame),
}

struct Shared {
    server: Arc<Server>,
    tap: NetTap,
    limits: WireLimits,
    shutting_down: Arc<AtomicBool>,
    /// Read halves of live connections, keyed by connection id, so drain
    /// can shut each read side down (the reader then sees EOF).
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Join handles of live connection threads.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A TCP front-end wrapping an in-process [`Server`].
///
/// Owns the server: publish/deploy through [`server`](Self::server), and
/// recover the final [`StatsSummary`] (serving *and* transport counters)
/// from [`shutdown`](Self::shutdown).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    done: bool,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting
    /// connections for `server`.
    pub fn bind(server: Server, addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let tap = server.net_tap();
        let shared = Arc::new(Shared {
            server: Arc::new(server),
            tap,
            limits: cfg.limits,
            shutting_down: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("odq-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, cfg.max_connections))
            .expect("spawn accept thread");
        Ok(Self { shared, addr, accept: Some(accept), done: false })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped server, for in-process control: publish, deploy,
    /// canary, stats — all while remote connections are live.
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Graceful drain: stop accepting, shut down every connection's read
    /// side (no new requests), let writers answer everything still in
    /// flight, join all connection threads, then shut the inner server
    /// down and return its final summary.
    pub fn shutdown(mut self) -> StatsSummary {
        self.drain();
        self.done = true;
        // Every connection thread and the accept loop are joined, so
        // their `Arc<Shared>` clones are gone; after dropping `self`
        // (drain is already done and idempotent) the clone below is the
        // last owner and both unwraps succeed.
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(sh) => match Arc::try_unwrap(sh.server) {
                Ok(server) => server.shutdown(),
                Err(arc) => {
                    // Unreachable in practice (all threads joined); fall
                    // back to a snapshot + drop-driven shutdown.
                    let sum = arc.stats();
                    drop(arc);
                    sum
                }
            },
            Err(shared) => {
                let sum = shared.server.stats();
                drop(shared);
                sum
            }
        }
    }

    fn drain(&mut self) {
        if self.done {
            return;
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the accept thread out of its blocking accept() with a
        // throwaway local connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // No new connections can register now. Shut down every live read
        // side: readers see EOF, writers answer the remaining in-flight
        // requests, connection threads exit.
        for stream in lock(&self.shared.conns).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let threads: Vec<JoinHandle<()>> = lock(&self.shared.threads).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_connections: usize) {
    let conn_seq = AtomicU64::new(0);
    loop {
        let stream = match accept_stream(&listener) {
            Ok(s) => s,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The drain wake-up, or a straggler racing it: refuse.
            let frame = encode_error(&ErrorFrame {
                id: NO_REQUEST_ID,
                code: WireErrorCode::ShuttingDown,
                message: "server is draining".into(),
            });
            let _ = wire::write_frame(&mut &stream, &frame);
            break;
        }
        // Reap finished connection threads so the registry does not grow
        // with connection churn (their map entries are already gone).
        lock(&shared.threads).retain(|t| !t.is_finished());

        let conn_id = conn_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = lock(&shared.conns);
            if conns.len() >= max_connections {
                drop(conns);
                shared.tap.conn_rejected();
                let frame = encode_error(&ErrorFrame {
                    id: NO_REQUEST_ID,
                    code: WireErrorCode::TooManyConnections,
                    message: format!("connection cap of {max_connections} reached"),
                });
                let _ = wire::write_frame(&mut &stream, &frame);
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let registered = match stream.try_clone() {
                Ok(c) => c,
                Err(_) => continue,
            };
            conns.insert(conn_id, registered);
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("odq-net-conn-{conn_id}"))
            .spawn(move || handle_connection(conn_id, stream, conn_shared));
        match spawned {
            Ok(handle) => lock(&shared.threads).push(handle),
            Err(_) => {
                lock(&shared.conns).remove(&conn_id);
            }
        }
    }
}

/// Accept the next connection and set it up for request/response
/// traffic: `TCP_NODELAY`, so each small reply frame leaves at once
/// instead of waiting out the peer's delayed ACK.
fn accept_stream(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn handle_connection(conn_id: u64, stream: TcpStream, shared: Arc<Shared>) {
    shared.tap.conn_opened();
    let (ev_tx, ev_rx) = unbounded::<Event>();
    let writer_thread = stream.try_clone().ok().and_then(|w| {
        let tap = shared.tap.clone();
        std::thread::Builder::new()
            .name(format!("odq-net-write-{conn_id}"))
            .spawn(move || writer_loop(w, ev_rx, tap))
            .ok()
    });
    if writer_thread.is_some() {
        reader_loop(&stream, &shared, ev_tx);
    }
    // The reader's sender is gone; the writer exits once every in-flight
    // reply (each holding a sender) has been written or dropped. Only
    // then is the connection accounted closed.
    if let Some(w) = writer_thread {
        let _ = w.join();
    }
    let _ = stream.shutdown(Shutdown::Both);
    lock(&shared.conns).remove(&conn_id);
    shared.tap.conn_closed();
}

fn reader_loop(stream: &TcpStream, shared: &Shared, ev_tx: Sender<Event>) {
    let mut reader = BufReader::new(stream);
    let fatal = |code, message| {
        shared.tap.protocol_error();
        let _ = ev_tx.send(Event::Fatal(ErrorFrame { id: NO_REQUEST_ID, code, message }));
    };
    loop {
        match wire::read_frame(&mut reader, &shared.limits) {
            Ok((Frame::Request(rf), n)) => {
                shared.tap.frame_in(n as u64);
                let (id, echo_trace) = (rf.id, rf.trace.is_some());
                let tx = ev_tx.clone();
                let reply = ResponseSender::from_fn(move |r| {
                    let _ = tx.send(Event::Reply(id, echo_trace, r));
                });
                // An admission rejection resolves the reply too, so it
                // reaches the writer like any other outcome.
                let _ = shared.server.submit_to(rf.into_request(), reply);
            }
            Ok((_, n)) => {
                // Clients have no business sending Response/Error frames.
                shared.tap.frame_in(n as u64);
                return fatal(WireErrorCode::Malformed, "unexpected frame kind from client".into());
            }
            // EOF (clean close, drain, or the writer's shutdown after a
            // failed write) and transport failures end the connection
            // quietly.
            Err(WireError::Io(_)) => return,
            Err(e) => {
                let code = match &e {
                    WireError::TooLarge { .. } => WireErrorCode::TooLarge,
                    _ => WireErrorCode::Malformed,
                };
                return fatal(code, e.to_string());
            }
        }
    }
}

/// Encode one event as frame bytes.
fn encode_event(ev: Event) -> Vec<u8> {
    let frame = match ev {
        Event::Fatal(frame) => frame,
        Event::Reply(id, echo_trace, Ok(resp)) => {
            let frame = ResponseFrame {
                id,
                timing: resp.timing,
                output: resp.output,
                trace: if echo_trace { resp.trace } else { None },
            };
            match encode_response(&frame) {
                Ok(bytes) => return bytes,
                Err(e) => ErrorFrame {
                    id,
                    code: WireErrorCode::Internal,
                    message: format!("response unencodable: {e}"),
                },
            }
        }
        Event::Reply(id, _, Err(e)) => {
            ErrorFrame { id, code: WireErrorCode::from_serve_error(&e), message: e.to_string() }
        }
    };
    encode_error(&frame)
}

/// Write each event as it arrives, in completion order.
fn writer_loop(stream: TcpStream, ev_rx: Receiver<Event>, tap: NetTap) {
    let mut w = BufWriter::new(&stream);
    while let Ok(ev) = ev_rx.recv() {
        if write_ready(&mut w, ev, &ev_rx, &tap).is_err() {
            // The peer is gone. Shut the socket down in both directions so
            // the reader sees EOF and stops submitting work whose replies
            // nobody can read; replies still in flight are dropped.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Write `ev` and every event already queued behind it, then flush once.
/// Frames are counted once flushed.
fn write_ready(
    w: &mut impl Write,
    ev: Event,
    ev_rx: &Receiver<Event>,
    tap: &NetTap,
) -> io::Result<()> {
    let mut sizes = Vec::new();
    let mut next = Some(ev);
    while let Some(ev) = next {
        let bytes = encode_event(ev);
        w.write_all(&bytes)?;
        sizes.push(bytes.len() as u64);
        next = ev_rx.try_recv().ok();
    }
    w.flush()?;
    for n in sizes {
        tap.frame_out(n);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use odq_nn::models::{Model, ModelCfg};
    use odq_serve::{EngineKind, InferRequest, ServeConfig};
    use odq_tensor::Tensor;
    use std::time::{Duration, Instant};

    /// A connected loopback pair: (server side as accepted, peer side).
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (accept_stream(&listener).unwrap(), peer)
    }

    #[test]
    fn accepted_streams_disable_nagle() {
        let (accepted, _peer) = loopback();
        assert!(accepted.nodelay().unwrap(), "replies must not wait out a delayed ACK");
    }

    #[test]
    fn write_failure_shuts_the_socket_so_the_reader_stops() {
        let mut cfg = ModelCfg::small(odq_nn::Arch::LeNet5, 4);
        cfg.input_hw = 8;
        let server = Server::builder(ServeConfig::default())
            .engine(EngineKind::Float)
            .model("lenet", Model::build(cfg))
            .start();
        let shared = Arc::new(Shared {
            tap: server.net_tap(),
            server: Arc::new(server),
            limits: WireLimits::default(),
            shutting_down: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        let (accepted, mut peer) = loopback();
        // Every write on this connection fails: the writer's first reply
        // is an EPIPE, as if the peer had gone away for reading.
        accepted.shutdown(Shutdown::Write).unwrap();
        let conn = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || handle_connection(0, accepted, shared)
        });

        // One request, then the peer keeps its socket open and sends
        // nothing more: only the writer's shutdown can end the reader.
        let input = Tensor::from_vec(vec![1, 3, 8, 8], vec![0.25; 3 * 64]);
        let frame = wire::RequestFrame::from_request(1, InferRequest::new("lenet", input));
        wire::write_frame(&mut peer, &wire::encode_request(&frame).unwrap()).unwrap();

        let t0 = Instant::now();
        while !conn.is_finished() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "reader kept reading a dead connection"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        conn.join().unwrap();
        let net = shared.server.stats().net;
        assert_eq!((net.connections_opened, net.connections_closed), (1, 1));
        assert_eq!(net.frames_out, 0, "nothing reached the wire");
        drop(peer);
    }
}
