//! Real-time streaming inference — the paper's motivating deployment
//! scenario ("real-time inference with low energy consumption on
//! resource-constrained systems", Sec. 1), now served end-to-end through
//! the `odq-serve` subsystem.
//!
//! A camera produces frames at a fixed rate and submits each one to a
//! running [`odq::serve::Server`] with a per-frame deadline (the next
//! frame's arrival). Frames flow through the bounded admission queue to an
//! engine-owning worker pool that takes them in batches; each frame's response
//! carries its measured queue wait and service time, and the server's
//! ledger reports what every served batch would cost on the ODQ
//! accelerator (cycles + energy from the Table 2 simulator).
//!
//! Frame content drifts over time (busy street vs empty road), so the
//! per-frame sensitive fraction varies — visible in the ledger's
//! per-batch sensitive-output fractions.
//!
//! ```sh
//! cargo run --release --example streaming_inference [fps] [frames]
//! ```

use std::time::{Duration, Instant};

use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::serve::{EngineKind, InferRequest, ServeConfig, Server};
use odq::tensor::Tensor;

/// Deterministic synthetic frame whose "busyness" (mean magnitude) drifts
/// sinusoidally — busy frames light up more sensitive outputs.
fn frame_input(frame: usize, channels: usize, hw: usize) -> Tensor {
    let busy = 0.55 + 0.45 * ((frame as f32) * 0.7).sin();
    let len = channels * hw * hw;
    let v: Vec<f32> = (0..len)
        .map(|i| {
            let noise = ((i * 2654435761 + frame * 97) % 997) as f32 / 997.0;
            (busy * noise).clamp(0.0, 1.0)
        })
        .collect();
    Tensor::from_vec(vec![1, channels, hw, hw], v)
}

fn main() {
    let fps: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(60.0);
    let frames: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(48);
    let deadline = Duration::from_secs_f64(1.0 / fps);

    let model = Model::build(ModelCfg::small(Arch::ResNet20, 10));
    let (channels, hw) = (model.cfg.in_channels, model.cfg.input_hw);

    let server = Server::builder(ServeConfig {
        queue_depth: 32,
        max_batch: 4,
        workers: 2,
        default_deadline: Some(deadline),
        simulate_accel: true,
        ..ServeConfig::default()
    })
    .engine(EngineKind::Odq { threshold: 0.3 })
    .model("camera", model)
    .start();

    println!(
        "streaming ResNet-20 at {fps:.0} fps (deadline {:.1} ms/frame), {frames} frames\n",
        deadline.as_secs_f64() * 1e3
    );

    let mut handles = Vec::new();
    let mut dropped_at_admission = 0u64;
    let start = Instant::now();
    for f in 0..frames {
        // Pace the camera: frame f arrives at f/fps seconds.
        let due = start + deadline * f as u32;
        if let Some(sleep) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        match server.submit(InferRequest::new("camera", frame_input(f, channels, hw))) {
            Ok(h) => handles.push((f, h)),
            Err(_) => dropped_at_admission += 1,
        }
    }

    let mut met = 0u64;
    let mut missed = 0u64;
    let mut worst = Duration::ZERO;
    let mut slack_sum = 0.0f64;
    for (f, h) in handles {
        match h.wait() {
            Ok(resp) => {
                let lat = resp.timing.total;
                worst = worst.max(lat);
                if lat <= deadline {
                    met += 1;
                    slack_sum += (deadline - lat).as_secs_f64();
                } else {
                    missed += 1;
                }
                if f < 6 {
                    println!(
                        "  frame {f}: {:>6.2} ms total ({:>5.2} ms queued, batch of {}) -> {}",
                        lat.as_secs_f64() * 1e3,
                        resp.timing.queue_wait.as_secs_f64() * 1e3,
                        resp.timing.batch_size,
                        if lat <= deadline { "met" } else { "MISSED" }
                    );
                }
            }
            Err(_) => missed += 1,
        }
    }

    let sum = server.shutdown();
    println!("\ndeadline report:");
    println!(
        "  met {met}/{frames}  (missed {missed}, dropped at admission {dropped_at_admission})"
    );
    println!("  worst frame latency {:.2} ms", worst.as_secs_f64() * 1e3);
    if met > 0 {
        println!("  mean slack when met {:.2} ms", 1e3 * slack_sum / met as f64);
    }
    println!("\nserving ledger:");
    println!("  {} batches, mean size {:.2}", sum.batches, sum.mean_batch_size);
    println!(
        "  latency p50 {:.2} ms, p99 {:.2} ms",
        sum.p50_latency.as_secs_f64() * 1e3,
        sum.p99_latency.as_secs_f64() * 1e3
    );
    if let Some(fr) = sum.mean_sensitive_fraction {
        println!("  mean sensitive-output fraction {fr:.3} (drifts with scene busyness)");
    }
    if sum.batches > 0 {
        println!(
            "  simulated ODQ accelerator: {:.0} cycles/batch, {:.2} uJ/batch",
            sum.sim_cycles / sum.batches as f64,
            sum.sim_energy_nj / sum.batches as f64 / 1e3
        );
    }
}
