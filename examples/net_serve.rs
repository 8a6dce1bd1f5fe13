//! End-to-end tour of the odq-net TCP front-end.
//!
//! Publishes a model, puts the server on a loopback socket **with the
//! odq-obs metrics endpoint attached**, infers remotely (pinning a
//! client trace id through the ODQ1 `FLAG_TRACE` extension), hot-swaps
//! to a retrained version **while remote connections are live and
//! submitting**, rolls back (bit-exact against the original answers),
//! scrapes its own `/metrics` and `/traces/recent`, and prints the final
//! ledger — serving and transport counters in one JSON snapshot.
//!
//! ```sh
//! cargo run --release --example net_serve
//! # ...and from another terminal while it runs:
//! curl -s http://127.0.0.1:<printed port>/metrics
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use odq::net::{NetClient, NetConfig, NetServer};
use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::obs::{http_get, MetricsServer, TraceBuffer};
use odq::serve::{EngineKind, InferRequest, ServeConfig, Server, TraceSink};
use odq::tensor::Tensor;

fn lenet(seed: u64) -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, 10);
    cfg.input_hw = 8;
    cfg.in_channels = 1;
    cfg.seed = seed;
    Model::build(cfg)
}

fn image(seed: usize) -> Tensor {
    let v: Vec<f32> = (0..64).map(|i| ((i * 13 + seed * 29) % 89) as f32 / 89.0).collect();
    Tensor::from_vec(vec![1, 1, 8, 8], v)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    // 1. Publish v1 and open the TCP front-end on an ephemeral port,
    //    with request tracing (sample everything — this is a demo) and
    //    the metrics endpoint attached.
    let traces = Arc::new(TraceBuffer::sample_all(4096));
    let server = Server::builder(ServeConfig {
        trace: Some(Arc::clone(&traces) as Arc<dyn TraceSink>),
        ..ServeConfig::default()
    })
    .engine(EngineKind::Odq { threshold: 0.3 })
    .model("lenet", lenet(1))
    .start();
    let metrics = MetricsServer::bind(
        "127.0.0.1:0",
        Arc::new(server.stats_handle()),
        Some(Arc::clone(&traces)),
    )
    .expect("bind metrics endpoint");
    let ns = NetServer::bind(server, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = ns.local_addr();
    println!("serving \"lenet\" v1 on {addr}");
    println!(
        "metrics on http://{0}/metrics, traces on http://{0}/traces/recent",
        metrics.local_addr()
    );

    // 2. Remote inference through a client connection, with a pinned
    //    trace id: FLAG_TRACE carries it to the server and the response
    //    frame echoes it back.
    let client = NetClient::connect(addr).expect("connect");
    let v1 = client
        .infer(InferRequest::new("lenet", image(7)).with_trace(0x0D05_7ACE))
        .expect("remote inference");
    println!(
        "remote infer: shape {:?}, batch {}, total {:?}, trace echo {:#x}",
        v1.output.dims(),
        v1.timing.batch_size,
        v1.timing.total,
        v1.trace.expect("FLAG_TRACE echoes the id"),
    );

    // 3. Hot swap under live connections: a second client hammers the
    //    server while v2 is published and deployed. Every response is
    //    whole — served entirely by the version its request was admitted
    //    under — and the connection never drops.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer_stop = Arc::clone(&stop);
    let hammer = std::thread::spawn(move || {
        let c = NetClient::connect(addr).expect("hammer connect");
        let mut served = 0u64;
        while !hammer_stop.load(Ordering::Relaxed) {
            c.infer(InferRequest::new("lenet", image(served as usize % 5)))
                .expect("requests keep completing across the swap");
            served += 1;
        }
        c.close();
        served
    });

    let v2 = ns.server().registry().publish("lenet", lenet(2), vec![]).expect("publish v2");
    ns.server().deploy("lenet", v2).expect("hot swap");
    println!("hot-swapped to v2 (version {v2}) under live traffic");
    let swapped = client.infer(InferRequest::new("lenet", image(7))).expect("post-swap inference");
    assert_ne!(bits(&v1.output), bits(&swapped.output), "v2 must answer differently");

    // 4. Roll back: remote answers are bit-identical to v1's again.
    ns.server().rollback("lenet").expect("rollback");
    let back = client.infer(InferRequest::new("lenet", image(7))).expect("post-rollback inference");
    assert_eq!(bits(&v1.output), bits(&back.output), "rollback must be bit-exact over the wire");
    println!("rolled back to v1: remote answers bit-identical again");

    stop.store(true, Ordering::Relaxed);
    let served = hammer.join().expect("hammer thread");
    println!("hammer connection served {served} requests across swap and rollback");
    assert!(served > 0);

    // 5. Scrape our own metrics endpoint, exactly as Prometheus would.
    let (status, body) = http_get(metrics.local_addr(), "/metrics").expect("self-scrape");
    assert_eq!(status, 200);
    odq::obs::parse(&body).expect("exposition must be valid Prometheus text");
    let shown: Vec<&str> = body
        .lines()
        .filter(|l| {
            l.starts_with("odq_requests_completed_total")
                || l.starts_with("odq_layer_mask_density")
                || l.starts_with("odq_net_frames_total")
        })
        .collect();
    println!("\nscraped /metrics ({} bytes); highlights:", body.len());
    for line in shown {
        println!("  {line}");
    }
    let (status, tbody) = http_get(metrics.local_addr(), "/traces/recent").expect("traces scrape");
    assert_eq!(status, 200);
    assert!(tbody.contains("\"response_scatter\""), "sampled traces reach the scatter stage");
    println!("scraped /traces/recent ({} bytes of five-stage spans)", tbody.len());

    // 6. Graceful drain; the final ledger carries the transport counters.
    client.close();
    metrics.shutdown();
    let sum = ns.shutdown();
    assert!(sum.net.connections_opened >= 2);
    assert_eq!(sum.net.connections_opened, sum.net.connections_closed);
    assert_eq!(sum.net.protocol_errors, 0);
    println!(
        "\nfinal ledger: {} completed, {} connections, {} frames in, {} bytes out",
        sum.completed, sum.net.connections_opened, sum.net.frames_in, sum.net.bytes_out
    );
    println!("{}", serde_json::to_string_pretty(&sum).expect("summary serializes"));
}
