//! Mixed-precision serving, end to end: record per-layer ODQ sensitivity
//! → auto-build a [`PrecisionPolicy`] (greedy cheapest bits subject to an
//! SQNR floor) → publish model + policy to the registry → serve through a
//! policy-routed engine → read per-route accelerator cost out of the
//! stats ledger.
//!
//! The policy is the paper's output-directed idea lifted to deployment
//! granularity: layers whose outputs are mostly insensitive run under
//! ODQ (work skipped in proportion), the rest get the smallest static
//! width whose weight SQNR clears the floor, and anything too fragile
//! for integer math stays in float.
//!
//! ```sh
//! cargo run --release --example mixed_precision
//! ```

use std::sync::Arc;

use odq::core::engine::OdqEngine;
use odq::nn::models::{Model, ModelCfg};
use odq::nn::param::init_rng;
use odq::nn::policy::{auto_policy, AutoPolicyCfg};
use odq::nn::train::{train_epoch, SgdCfg};
use odq::nn::Arch;
use odq::registry::ModelRegistry;
use odq::serve::{EngineKind, InferRequest, ServeConfig, Server};
use odq::tensor::Tensor;

fn frame(i: usize, channels: usize, hw: usize) -> Tensor {
    let len = channels * hw * hw;
    let v: Vec<f32> = (0..len).map(|j| ((j * 31 + i * 97) % 251) as f32 / 251.0).collect();
    Tensor::from_vec(vec![1, channels, hw, hw], v)
}

fn main() {
    // 1. Train a small ResNet-20 on synthetic data so sensitivity and
    //    SQNR are measured on meaningful weights.
    let hw = 8;
    let mut cfg = ModelCfg::small(Arch::ResNet20, 4);
    cfg.input_hw = hw;
    let mut model = Model::build(cfg);
    let spec = odq::data::SynthSpec { num_classes: 4, channels: 3, hw, noise: 0.1, seed: 11 };
    let (train, calib) = spec.generate_split(64, 8);
    let mut rng = init_rng(11);
    for _ in 0..2 {
        train_epoch(&mut model, &train.images, &train.labels, 16, &SgdCfg::default(), &mut rng);
    }

    // 2. Record per-layer ODQ sensitivity on a calibration batch: run the
    //    recording engine and keep each layer's sensitive-output fraction.
    let mut recorder = OdqEngine::new(0.3);
    for i in 0..calib.images.dims()[0] {
        let img = Tensor::from_vec(vec![1, 3, hw, hw], calib.images.outer(i).to_vec());
        let _ = model.forward_eval(&img, &mut recorder);
    }
    let sensitivity: Vec<(String, f64)> =
        recorder.stats.layers.iter().map(|l| (l.name.clone(), l.sensitive_fraction())).collect();
    println!("calibration sensitivity (sensitive fraction per conv layer):");
    for (name, frac) in &sensitivity {
        println!("  {name:<4} {frac:.3}");
    }

    // 3. Greedy auto-policy: ODQ where mostly insensitive, else the
    //    cheapest static width clearing the SQNR floor, else float.
    let cfg = AutoPolicyCfg { odq_ceiling: 0.6, sqnr_floor_db: 18.0, ..Default::default() };
    let policy = auto_policy(&mut model, &sensitivity, &cfg);
    println!("\nauto-built policy (default {}):", policy.default_route().label());
    for (name, route) in policy.layers() {
        println!("  {name:<4} -> {}", route.label());
    }

    // 4. Publish weights *with* their policy. The registry validates the
    //    route table against the candidate's real conv layers before a
    //    version number is allocated.
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry
        .publish_with_policy("resnet", model, vec![], Some(policy.clone()))
        .expect("policy names only real conv layers");
    println!("\npublished resnet v{v1} with its policy");

    // 5. Serve through a policy-routed engine. The deployment carries the
    //    published policy, so a future hot swap to a version published
    //    with a different policy re-routes atomically with the weights.
    let server =
        Server::builder(ServeConfig { max_batch: 4, workers: 2, ..ServeConfig::default() })
            .engine(EngineKind::Policy(Arc::new(policy)))
            .registry(registry)
            .serve("resnet")
            .start();

    for i in 0..12 {
        let resp = server
            .submit(InferRequest::new("resnet", frame(i, 3, hw)).with_id(i as u64))
            .expect("admitted")
            .wait()
            .expect("served");
        let top = resp
            .output
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .unwrap();
        println!("  request {i:>2} -> class {top} (batch of {})", resp.timing.batch_size);
    }

    // 6. The ledger splits simulated accelerator cost by route, so the
    //    policy's spend is visible per precision class.
    println!("\nstats: {}", server.stats_json());
    let summary = server.shutdown();
    println!("\nper-route accelerator cost:");
    for r in &summary.routes {
        println!(
            "  {:<6} {:>4} layers over {:>3} batches, {:>12.0} cycles, {:>12.0} nJ",
            r.route, r.layers, r.batches, r.cycles, r.energy_nj
        );
    }
}
