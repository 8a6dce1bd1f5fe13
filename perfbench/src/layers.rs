//! The traced run's layer pass: each resnet20 conv layer's captured input
//! replayed through every public planned kernel, plus the host cost of
//! the accelerator simulator, the wire codec and the Prometheus renderer.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use odq_accel::{simulate_network, AccelConfig, EnergyModel};
use odq_core::engine::OdqEngine;
use odq_core::odq_conv::{odq_conv2d_planned, odq_conv2d_sparse_planned, OdqCfg};
use odq_drq::drq_conv::{drq_conv2d_planned, DrqCfg};
use odq_net::wire::{encode_request, read_frame, Frame, RequestFrame, WireLimits};
use odq_nn::executor::{add_bias, ConvCtx, ConvExecutor};
use odq_nn::models::Model;
use odq_quant::plan::{PlanCache, PlanSpec, QConvPlan};
use odq_quant::qconv::qconv2d_with;
use odq_quant::quantize_activation;
use odq_serve::StatsSummary;
use odq_tensor::{ConvGeom, Tensor, WorkspacePool};

use crate::phase::workloads;
use crate::stack::{Inputs, Workload, THRESHOLD};
use crate::trace::Span;
use crate::util::median;

/// Timed repetitions per kernel and per host-side call.
const REPS: usize = 15;
/// The serve worker's batch size (`ServeConfig::default().max_batch`).
const SERVE_BATCH: usize = 8;

/// One conv layer's call, captured during an ODQ forward.
struct Captured {
    geom: ConvGeom,
    weights: Tensor,
    bias: Option<Vec<f32>>,
    x: Tensor,
    /// What the engine returned for it.
    y: Tensor,
}

struct Capture<'a> {
    inner: &'a mut OdqEngine,
    layers: Vec<Captured>,
}

impl ConvExecutor for Capture<'_> {
    fn begin_pass(&mut self) {
        self.inner.begin_pass();
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let y = self.inner.conv(ctx, x);
        self.layers.push(Captured {
            geom: ctx.geom,
            weights: ctx.weights.clone(),
            bias: ctx.bias.map(<[f32]>::to_vec),
            x: x.clone(),
            y: y.clone(),
        });
        y
    }
}

struct Plans {
    odq: QConvPlan,
    int8: QConvPlan,
    int4: QConvPlan,
    drq: QConvPlan,
}

/// Results of the layer pass, by metric name.
pub struct LayerPass {
    pub metrics: Vec<(&'static str, f64)>,
    /// Replays whose dense ODQ output differed from the engine's.
    pub mismatches: usize,
    pub spans: Vec<Span>,
}

/// Replay, simulate and encode on `batch` (`[16, 3, 16, 16]` resnet20
/// inputs) and on `inputs`' request frames.
pub fn run(model: &Model, batch: &Tensor, w: Workload, inputs: &Inputs) -> LayerPass {
    let mut spans = Vec::new();
    let mut metrics = Vec::new();
    let images = batch.dims()[0] as f64;

    let mut engine = OdqEngine::with_plan_cache(THRESHOLD, std::sync::Arc::new(PlanCache::new()));
    let mut cap = Capture { inner: &mut engine, layers: Vec::new() };
    model.forward_eval(batch, &mut cap);
    let layers = cap.layers;
    let plans: Vec<Plans> = layers
        .iter()
        .map(|l| Plans {
            odq: QConvPlan::build(&l.weights, PlanSpec::odq(4, 2)),
            int8: QConvPlan::build(&l.weights, PlanSpec::static_quant(8)),
            int4: QConvPlan::build(&l.weights, PlanSpec::static_quant(4)),
            drq: QConvPlan::build(&l.weights, PlanSpec::drq(8, 4)),
        })
        .collect();
    let pool = WorkspacePool::new();
    let cfg = OdqCfg::int4(THRESHOLD);
    let drq = DrqCfg::int8_int4(0.1);

    let mut mismatches = 0;
    let (mut sensitive, mut outputs) = (0usize, 0usize);
    for (l, p) in layers.iter().zip(&plans) {
        let qx = quantize_activation(&l.x, cfg.a_bits, cfg.a_clip);
        let r = odq_conv2d_planned(&qx, &p.odq, l.bias.as_deref(), &l.geom, &cfg, &pool);
        sensitive += r.mask.sensitive_count();
        outputs += r.mask.len();
        if r.output.as_slice().iter().zip(l.y.as_slice()).any(|(a, b)| a.to_bits() != b.to_bits()) {
            mismatches += 1;
        }
    }

    type Kernel = fn(&Captured, &Plans, &WorkspacePool, &OdqCfg, &DrqCfg) -> Tensor;
    let kernels: [(&'static str, Kernel); 7] = [
        ("core.odq_dense", |l, p, pool, cfg, _| {
            let qx = quantize_activation(&l.x, cfg.a_bits, cfg.a_clip);
            odq_conv2d_planned(&qx, &p.odq, l.bias.as_deref(), &l.geom, cfg, pool).output
        }),
        ("core.odq_sparse", |l, p, pool, cfg, _| {
            odq_conv2d_sparse_planned(&l.x, &p.odq, l.bias.as_deref(), &l.geom, cfg, pool).output
        }),
        ("quant.int8", |l, p, pool, _, _| static_conv(l, &p.int8, 8, pool)),
        ("quant.int4", |l, p, pool, _, _| static_conv(l, &p.int4, 4, pool)),
        ("drq", |l, p, pool, _, drq| {
            drq_conv2d_planned(&l.x, &p.drq, l.bias.as_deref(), &l.geom, drq, pool).output
        }),
        ("tensor.float", |l, _, pool, _, _| {
            odq_tensor::conv::conv2d_with(&l.x, &l.weights, l.bias.as_deref(), &l.geom, pool)
        }),
        ("tensor.im2col", |l, _, pool, _, _| {
            let n = l.x.dims()[0];
            let per = l.x.as_slice().len() / n;
            let mut acc = 0.0f32;
            for img in l.x.as_slice().chunks(per) {
                acc += pool.with(|ws| ws.lower_f32(img, &l.geom).iter().sum::<f32>());
            }
            Tensor::from_vec(vec![1], vec![acc])
        }),
    ];
    for (name, kernel) in kernels {
        let mut reps = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            let mut total = Duration::ZERO;
            for (i, (l, p)) in layers.iter().zip(&plans).enumerate() {
                let t = Instant::now();
                black_box(kernel(black_box(l), p, &pool, &cfg, &drq));
                let d = t.elapsed();
                total += d;
                spans.push(Span::new(name, (rep * layers.len() + i) as u64 + 1, 0, t, d));
            }
            reps.push(total.as_secs_f64() * 1e3 / images);
        }
        metrics.push((metric_name(name), median(&reps).expect("reps")));
    }
    metrics.push(("core.sensitive_fraction", sensitive as f64 / outputs as f64));

    // The simulator, on the profile of one serve-sized batch.
    let dims = batch.dims();
    let per = batch.as_slice().len() / dims[0];
    let mut sdims = dims.to_vec();
    sdims[0] = SERVE_BATCH;
    let small = Tensor::from_vec(sdims, batch.as_slice()[..SERVE_BATCH * per].to_vec());
    let mut engine = OdqEngine::with_plan_cache(THRESHOLD, std::sync::Arc::new(PlanCache::new()));
    model.forward_eval(&small, &mut engine);
    let ws = workloads(&engine.stats.take());
    let (accel, em) = (AccelConfig::odq(), EnergyModel::default());
    let sims = timed(REPS * 4, "sim", &mut spans, || {
        black_box(simulate_network(&accel, black_box(&ws), &em));
    });
    metrics.push(("accel.sim_us_per_batch", median(&sims).expect("reps") * 1e3));

    // The wire codec on the workload's request frames.
    let frames: Vec<RequestFrame> = inputs
        .models
        .iter()
        .flat_map(|m| m.images.iter().map(move |x| (m.name, x)))
        .enumerate()
        .map(|(i, (name, x))| {
            let mut req = odq_serve::InferRequest::new(name, x.clone());
            if w == Workload::NetOpen {
                req = req.with_deadline(crate::phase::NET_OPEN_DEADLINE);
            }
            RequestFrame::from_request(i as u64, req)
        })
        .collect();
    let nf = frames.len() as f64;
    let encs = timed(REPS, "encode_request", &mut spans, || {
        for f in &frames {
            black_box(encode_request(black_box(f)).expect("encodable frame"));
        }
    });
    metrics.push(("net.encode_request_us", median(&encs).expect("reps") * 1e3 / nf));
    let bytes: Vec<u8> =
        frames.iter().flat_map(|f| encode_request(f).expect("encodable frame")).collect();
    let limits = WireLimits::default();
    let decode_all = || -> usize {
        let mut cur = Cursor::new(&bytes[..]);
        let mut bad = 0;
        for f in &frames {
            match read_frame(&mut cur, &limits) {
                Ok((Frame::Request(r), _)) if r.input.as_slice() == f.input.as_slice() => {}
                _ => bad += 1,
            }
        }
        bad
    };
    mismatches += decode_all();
    let decs = timed(REPS, "read_frame", &mut spans, || {
        black_box(decode_all());
    });
    metrics.push(("net.read_frame_us", median(&decs).expect("reps") * 1e3 / nf));

    LayerPass { metrics, mismatches, spans }
}

/// Median host time of `prom::render_summary` on `summary`, in µs.
pub fn render_us(summary: &StatsSummary, spans: &mut Vec<Span>) -> f64 {
    let t = timed(REPS * 2, "render", spans, || {
        black_box(odq_obs::render_summary(black_box(summary)));
    });
    median(&t).expect("reps") * 1e3
}

fn static_conv(l: &Captured, plan: &QConvPlan, bits: u8, pool: &WorkspacePool) -> Tensor {
    let qx = quantize_activation(&l.x, bits, 1.0);
    let mut y = qconv2d_with(&qx, &plan.qw, &l.geom, pool);
    if let Some(b) = &l.bias {
        add_bias(&mut y, b, &l.geom);
    }
    y
}

fn metric_name(kernel: &str) -> &'static str {
    match kernel {
        "core.odq_dense" => "core.odq_dense_ms_per_image",
        "core.odq_sparse" => "core.odq_sparse_ms_per_image",
        "quant.int8" => "quant.int8_ms_per_image",
        "quant.int4" => "quant.int4_ms_per_image",
        "drq" => "drq.ms_per_image",
        "tensor.float" => "tensor.float_ms_per_image",
        "tensor.im2col" => "tensor.im2col_ms_per_image",
        other => unreachable!("no kernel {other}"),
    }
}

/// Run `f` `reps` times, one span each; the durations in ms.
fn timed(reps: usize, name: &'static str, spans: &mut Vec<Span>, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            let d = t.elapsed();
            spans.push(Span::new(name, 0, 0, t, d));
            d.as_secs_f64() * 1e3
        })
        .collect()
}
