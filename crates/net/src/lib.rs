//! odq-net — a TCP wire front-end for `odq-serve`.
//!
//! The serving crate is transport-agnostic: everything enters through
//! [`odq_serve::Server::submit`]. This crate puts that server on a
//! socket with a small, hardened binary protocol:
//!
//! ```text
//!   NetClient ──ODQ1 frames──► NetServer ──submit──► odq_serve::Server
//!      ▲                          │ per-connection reader + writer
//!      └──────responses/errors────┘ (completion order, not arrival
//!                                    order: no head-of-line blocking)
//! ```
//!
//! * [`wire`] — the `ODQ1` length-prefixed frame codec: requests carry a
//!   caller id, model name, optional deadline, and a raw little-endian
//!   f32 tensor (bit-exact across the wire); responses echo the id with
//!   the output tensor and timing; failures travel as typed
//!   [`wire::WireErrorCode`]s covering every [`odq_serve::ServeError`]
//!   variant plus transport-level rejections. Decoding validates the
//!   declared length *before* allocating and never panics on hostile
//!   input.
//! * [`NetServer`] — accept loop with a connection cap and `TCP_NODELAY`
//!   on every accepted stream, one reader and one writer thread per
//!   connection (each request's reply callback pushes its outcome
//!   straight to the writer), typed error frames for admission
//!   rejections and protocol violations, graceful drain (stop accepting,
//!   answer everything in flight, then shut the inner server down).
//!   Connection, byte, and frame counters stream into the server's
//!   ledger ([`odq_serve::NetTap`]) and appear in
//!   [`odq_serve::Server::stats_json`] under `"net"`.
//! * [`NetClient`] — connects, implements [`odq_serve::LoadTarget`], and
//!   returns the same [`odq_serve::ResponseHandle`] the in-process
//!   server does, so the load generators and callers cannot tell local
//!   from remote.
//! * [`fault`] — a fault-injecting TCP proxy ([`FaultyTransport`]) that
//!   sabotages the client→server stream per a deterministic
//!   per-connection plan (truncation, header corruption, abrupt close,
//!   write stalls), the `odq-chaos` harness's network leg.

#![warn(missing_docs)]

pub mod fault;
pub mod wire;

mod client;
mod server;

pub use client::NetClient;
pub use fault::{ConnFault, FaultyTransport};
pub use server::{NetConfig, NetServer};
pub use wire::{WireError, WireErrorCode, WireLimits};
