//! Serving-subsystem integration properties.
//!
//! 1. **Batching invariance** — whatever way the workers interleave
//!    and coalesce requests, every response is *element-wise identical*
//!    (exact f32 equality, not approximate) to running that input alone
//!    through a fresh engine. This holds because convolution is per-sample
//!    im2col/GEMM and every quantization scale is batch-independent.
//! 2. **Graceful shutdown** — shutting down immediately after a burst
//!    drains the queue: every admitted request gets exactly one response,
//!    none lost, none fabricated.

use std::time::Duration;

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use odq::core::engine::OdqEngine;
use odq::nn::executor::{ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::serve::{EngineKind, InferRequest, ServeConfig, ServeError, Server};
use odq::tensor::Tensor;

fn build_models() -> (Model, Model) {
    let mut r_cfg = ModelCfg::small(Arch::ResNet20, 10);
    r_cfg.input_hw = 8;
    let resnet = Model::build(r_cfg);
    let mut l_cfg = ModelCfg::small(Arch::LeNet5, 10);
    l_cfg.input_hw = 8;
    l_cfg.in_channels = 1;
    let lenet = Model::build(l_cfg);
    (resnet, lenet)
}

fn random_image(rng: &mut ChaCha8Rng, channels: usize, hw: usize) -> Tensor {
    let v: Vec<f32> = (0..channels * hw * hw).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    Tensor::from_vec(vec![1, channels, hw, hw], v)
}

fn solo_engine(kind: u8) -> Box<dyn ConvExecutor> {
    match kind {
        0 => Box::new(FloatConvExecutor),
        1 => Box::new(StaticQuantExecutor::int(8)),
        _ => Box::new(OdqEngine::new(0.3)),
    }
}

fn serve_engine(kind: u8) -> EngineKind {
    match kind {
        0 => EngineKind::Float,
        1 => EngineKind::Static { bits: 8 },
        _ => EngineKind::Odq { threshold: 0.3 },
    }
}

/// Acceptance: the stats ledger is O(1) in requests. Drive 100k+ requests
/// through the full pipeline and assert the ledger's resident footprint
/// stays under a fixed byte budget and does not grow between the 200th and
/// the 100_200th request, while counters and percentiles stay correct.
///
/// Most of the flood carries an already-expired deadline, so the queue
/// and workers process every request (admission, grouping, dequeue,
/// rejection accounting) without paying for 100k debug-mode forward
/// passes; a served prefix populates the latency histograms for real.
#[test]
fn ledger_memory_is_constant_over_100k_requests() {
    const SERVED: u64 = 200;
    const FLOOD: u64 = 100_000;
    const BUDGET_BYTES: usize = 64 * 1024;

    let (_, lenet) = build_models();
    let server = Server::builder(ServeConfig {
        queue_depth: 256,
        max_batch: 64,
        workers: 2,
        default_deadline: None,
        simulate_accel: false,
        ..ServeConfig::default()
    })
    .engine(EngineKind::Float)
    .model("lenet", lenet)
    .start();

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let handles: Vec<_> = (0..SERVED)
        .map(|_| {
            server
                .submit(InferRequest::new("lenet", random_image(&mut rng, 1, 8)))
                .expect("queue_depth covers the served prefix")
        })
        .collect();
    for h in handles {
        h.wait().expect("no deadline set");
    }
    // The worker records each batch *before* responding, so the completed
    // waits above are a barrier: the ledger has absorbed every served
    // request by now.
    assert_eq!(server.stats().completed, SERVED);
    let footprint_before_flood = server.ledger_bytes();
    assert!(
        footprint_before_flood < BUDGET_BYTES,
        "ledger footprint {footprint_before_flood} B exceeds the {BUDGET_BYTES} B budget"
    );

    let img = random_image(&mut rng, 1, 8);
    let mut admitted_flood = 0u64;
    let mut queue_full = 0u64;
    while admitted_flood < FLOOD {
        match server.submit(InferRequest::new("lenet", img.clone()).with_deadline(Duration::ZERO)) {
            // Handle dropped on purpose: the rejection is still counted.
            Ok(_) => admitted_flood += 1,
            Err(ServeError::QueueFull) => {
                queue_full += 1;
                std::thread::yield_now();
            }
            Err(e) => panic!("unexpected admission error {e}"),
        }
    }

    let footprint_after_flood = server.ledger_bytes();
    let sum = server.shutdown();

    // O(1) memory: the flood left the footprint exactly where it was.
    assert_eq!(
        footprint_before_flood, footprint_after_flood,
        "ledger footprint grew during a 100k-request flood"
    );

    // The ledger's own reconciliation agrees, with every gauge at zero.
    let rec = sum.reconcile();
    assert!(rec.is_balanced(), "final ledger does not reconcile: {rec}");
    assert!(rec.gauges_clear(), "gauges not clear after shutdown: {rec}");

    // Counters: every admitted request is accounted for exactly once.
    assert_eq!(sum.admitted, SERVED + admitted_flood);
    assert_eq!(sum.completed, SERVED);
    assert_eq!(sum.rejected_deadline, admitted_flood);
    assert_eq!(sum.rejected_queue_full, queue_full);
    assert_eq!(sum.internal_errors, 0);

    // Percentiles: sane ordering from the log-bucketed histograms.
    assert!(sum.latency.p50 > Duration::ZERO);
    assert!(sum.latency.p50 <= sum.latency.p95);
    assert!(sum.latency.p95 <= sum.latency.p99);
    assert!(sum.latency.p99 <= sum.latency.max);
    assert!(sum.queue_wait.p50 <= sum.queue_wait.max);
    assert!(sum.mean_batch_size >= 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of requests across two models, any batch size and
    /// worker count, any engine: batched output == solo output, exactly.
    #[test]
    fn batched_outputs_identical_to_solo(
        seed in 0u64..1_000_000,
        n_requests in 1usize..14,
        max_batch in 1usize..6,
        workers in 1usize..4,
        engine_kind in 0u8..3,
    ) {
        let (resnet, lenet) = build_models();
        let server = Server::builder(ServeConfig {
            queue_depth: 64,
            max_batch,
            workers,
            default_deadline: None,
            simulate_accel: false,
            ..ServeConfig::default()
        })
        .engine(serve_engine(engine_kind))
        .model("resnet", resnet)
        .model("lenet", lenet)
        .start();

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut submitted = Vec::new();
        for _ in 0..n_requests {
            let (name, channels) = if rng.gen_bool(0.5) { ("resnet", 3) } else { ("lenet", 1) };
            let img = random_image(&mut rng, channels, 8);
            let h = server
                .submit(InferRequest::new(name, img.clone()))
                .expect("queue_depth covers the burst");
            submitted.push((name, img, h));
        }

        // Solo references: a fresh engine per request.
        let (resnet, lenet) = build_models();
        for (name, img, h) in submitted {
            let resp = h.wait().expect("no deadlines, no rejects");
            let model = if name == "resnet" { &resnet } else { &lenet };
            let expect = model.forward_eval(&img, &mut *solo_engine(engine_kind));
            prop_assert_eq!(resp.output.dims(), expect.dims());
            let got = resp.output.as_slice();
            let want = expect.as_slice();
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits(),
                    "elem {} differs: batched {} vs solo {} (batch of {})",
                    i, g, w, resp.timing.batch_size
                );
            }
        }
        server.shutdown();
    }

    /// Submit a burst and shut down immediately: every admitted request is
    /// answered exactly once, and the ledger agrees.
    #[test]
    fn shutdown_drains_without_losing_or_duplicating(
        seed in 0u64..1_000_000,
        n_requests in 1usize..20,
        max_batch in 1usize..6,
        workers in 1usize..4,
    ) {
        let (resnet, lenet) = build_models();
        let server = Server::builder(ServeConfig {
            queue_depth: 64,
            max_batch,
            workers,
            default_deadline: None,
            simulate_accel: false,
            ..ServeConfig::default()
        })
        .engine(EngineKind::Float)
        .model("resnet", resnet)
        .model("lenet", lenet)
        .start();

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let handles: Vec<_> = (0..n_requests)
            .map(|_| {
                let (name, channels) = if rng.gen_bool(0.5) { ("resnet", 3) } else { ("lenet", 1) };
                server
                    .submit(InferRequest::new(name, random_image(&mut rng, channels, 8)))
                    .expect("queue_depth covers the burst")
            })
            .collect();

        let summary = server.shutdown();
        prop_assert_eq!(summary.completed, n_requests as u64, "ledger counts every request");
        let rec = summary.reconcile();
        prop_assert!(rec.is_balanced(), "final ledger does not reconcile: {}", rec);
        prop_assert!(rec.gauges_clear(), "gauges not clear after shutdown: {}", rec);

        for h in handles {
            // Exactly one response per handle: the first wait succeeds...
            let first = h.try_wait().expect("drained before shutdown returned");
            prop_assert!(first.is_ok(), "no deadline was set: {:?}", first.err());
            // ...and the response slot is now empty and disconnected.
            prop_assert!(matches!(
                h.try_wait(),
                None | Some(Err(odq::serve::ServeError::WorkerLost))
            ));
        }
    }
}
