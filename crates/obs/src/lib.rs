//! odq-obs — observability for the ODQ serving stack.
//!
//! Three pieces, each usable alone, designed to be wired together:
//!
//! ```text
//!             ┌───────────── odq-serve pipeline ─────────────┐
//!   submit ──►│ queue ──► worker takes batch ──► scatter     │
//!             └──┬───────────┬──────────┬────────────┬───────┘
//!     spans      ▼           ▼          ▼            ▼
//!   (sampled) TraceBuffer ◄──────────────────────────┘    stats Ledger
//!                │  sharded rings, seeded sampling             │
//!                ▼                                             ▼
//!        GET /traces/recent ◄──── MetricsServer ────► GET /metrics
//!                                  (std::net HTTP)    (Prometheus text)
//! ```
//!
//! * [`TraceBuffer`] — the reference [`odq_serve::TraceSink`]: per-request
//!   pipeline spans (submit → batch-form → worker-dequeue →
//!   engine-execute → response-scatter) land in a bounded, sharded ring.
//!   Sampling is a pure seeded hash of the trace id, so the chaos
//!   harness's replay determinism survives tracing being on.
//! * [`prom`] — [`prom::render_summary`] turns a ledger snapshot into the
//!   Prometheus text exposition format (stable series names, `# HELP` /
//!   `# TYPE` on every family, per-layer ODQ mask-density series);
//!   [`prom::parse`] validates the format strictly enough for golden and
//!   end-to-end tests.
//! * [`MetricsServer`] — a tiny `std::net`-only HTTP/1.0 listener serving
//!   `GET /metrics` and `GET /traces/recent`, fed by a
//!   [`StatsSource`] (usually [`odq_serve::StatsHandle`], which stays
//!   valid across the server's whole lifetime).
//!
//! Wiring it up end to end:
//!
//! ```no_run
//! use std::sync::Arc;
//! use odq_obs::{MetricsServer, TraceBuffer};
//! use odq_serve::{ServeConfig, Server};
//!
//! let traces = Arc::new(TraceBuffer::new(/*seed*/ 7, /*one_in*/ 16, /*cap*/ 4096));
//! let cfg = ServeConfig { trace: Some(traces.clone()), ..ServeConfig::default() };
//! let server = Server::builder(cfg)/* .model(...) */.start();
//! let metrics = MetricsServer::bind(
//!     "127.0.0.1:0",
//!     Arc::new(server.stats_handle()),
//!     Some(traces),
//! ).unwrap();
//! println!("scrape http://{}/metrics", metrics.local_addr());
//! ```

#![warn(missing_docs)]

pub mod http;
pub mod prom;
pub mod trace;

pub use http::{http_get, MetricsServer, StatsSource};
pub use prom::{parse, render_summary, Exposition, Sample};
pub use trace::{StoredSpan, TraceBuffer, TraceView};
