//! Cross-engine conformance suite (CI entry point).
//!
//! Everything here compares *engines* against the scalar golden oracle in
//! `odq-conformance` — naive nested-loop transcriptions of the paper's
//! equations with no im2col, no rayon, no fusion. Integer paths must be
//! bit-exact; float paths get a 1-ulp allowance for accumulation-order
//! headroom (in practice they are bit-exact too, because the oracle
//! accumulates in im2col row order).
//!
//! Three layers of defense:
//! 1. committed golden fixtures (`tests/fixtures/*.odqt`) — catch
//!    oracle-and-engine drifting together;
//! 2. a randomized differential sweep over layer geometry — catch any
//!    engine path drifting from the oracle;
//! 3. a serve round-trip — catch divergence introduced by batching,
//!    plan caches, or worker scatter in `odq-serve`.

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::serve::{EngineKind, InferRequest, ServeConfig, Server};
use odq::tensor::Tensor;
use odq_conformance::fixtures::{fixtures_dir, verify_against};
use odq_conformance::{minimize, run_layer_diff, LayerSpecStrategy, OracleExecutor, OracleKind};

/// The committed goldens must match the current oracle bit for bit, and
/// every engine must still meet its bound against them. On intentional
/// output changes, regenerate with `conformance_check --regen` and explain
/// the change in the commit message.
#[test]
fn committed_fixtures_are_current() {
    if let Err(drift) = verify_against(&fixtures_dir()) {
        panic!("fixture drift ({} findings):\n  {}", drift.len(), drift.join("\n  "));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine path — per-call kernels, planned drivers, the sparse
    /// executor, engine forwards — agrees with the scalar oracle on random
    /// geometry (stride, padding, 1×1, non-square, 2–16 channels).
    #[test]
    fn engines_conform_to_scalar_oracle(spec in LayerSpecStrategy::default()) {
        let report = run_layer_diff(&spec);
        if !report.ok() {
            let min = minimize(&spec);
            let min_report = run_layer_diff(&min);
            panic!(
                "engine diverged from scalar oracle.\nfull case:\n{}\nminimized reproducer:\n{}",
                report.render(),
                min_report.render()
            );
        }
    }
}

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

/// Full serve round-trip vs the oracle: submit through the batched,
/// multi-worker server and require the response to be bit-identical to a
/// whole-model forward where *every* convolution is computed by the scalar
/// oracle. Covers each `EngineKind` the server exposes.
#[test]
fn serve_round_trip_matches_oracle_forward() {
    let engines: [(EngineKind, OracleKind); 4] = [
        (EngineKind::Float, OracleKind::Float),
        (EngineKind::Static { bits: 8 }, OracleKind::Static { bits: 8 }),
        (EngineKind::Odq { threshold: 0.3 }, OracleKind::Odq { threshold: 0.3 }),
        (EngineKind::Drq { input_threshold: 0.25 }, OracleKind::Drq { input_threshold: 0.25 }),
    ];
    for (engine, oracle_kind) in engines {
        let (resnet, lenet) = build_models();
        let server = Server::builder(ServeConfig {
            queue_depth: 64,
            max_batch: 4,
            workers: 2,
            default_deadline: None,
            simulate_accel: false,
            ..ServeConfig::default()
        })
        .engine(engine.clone())
        .model("resnet", resnet)
        .model("lenet", lenet)
        .start();

        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
        let mut submitted = Vec::new();
        for _ in 0..8 {
            let (name, channels) = if rng.gen_bool(0.5) { ("resnet", 3) } else { ("lenet", 1) };
            let img = random_image(&mut rng, channels, 8);
            let h = server
                .submit(InferRequest::new(name, img.clone()))
                .expect("queue_depth covers the burst");
            submitted.push((name, img, h));
        }

        let (resnet, lenet) = build_models();
        for (name, img, h) in submitted {
            let resp = h.wait().expect("no deadlines set");
            let model = if name == "resnet" { &resnet } else { &lenet };
            let golden = model.forward_eval(&img, &mut OracleExecutor { kind: oracle_kind });
            assert_eq!(resp.output.dims(), golden.dims());
            for (i, (g, w)) in resp.output.as_slice().iter().zip(golden.as_slice()).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "engine {engine:?}, model {name}: elem {i} differs — served {g} vs oracle {w}"
                );
            }
        }
        server.shutdown();
    }
}

// --- per-layer precision-policy differentials ---------------------------

use std::sync::Arc;

use odq::nn::executor::{ConvCtx, ConvExecutor};
use odq::nn::policy::{PrecisionPolicy, Route};
use odq::quant::plan::PlanCache;
use odq_conformance::{ulp_diff, PolicyOracleExecutor, RoutedEngine};

/// A mixed policy exercising every route family on ResNet20's layer names.
fn mixed_policy() -> Arc<PrecisionPolicy> {
    Arc::new(
        PrecisionPolicy::uniform(Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 })
            .with("C1", Route::Odq { threshold: 0.3, sparse: false })
            .with("C2", Route::Float)
            .with(
                "C3",
                Route::Drq {
                    hi_bits: 8,
                    lo_bits: 4,
                    a_clip: 1.0,
                    region: 2,
                    input_threshold: 0.25,
                },
            )
            .with("C4", Route::Static { w_bits: 4, a_bits: 4, a_clip: 1.0 })
            .with("C5", Route::Odq { threshold: 0.1, sparse: true }),
    )
}

/// Wraps the mixed routed engine and, at every conv layer, recomputes the
/// layer with a *freshly built standalone single-route engine* on the same
/// input — asserting the mixed forward is exactly the composition of
/// single-engine layer outputs (integer routes bit-exact, float ≤ 1 ulp).
struct StitchCheck {
    mixed: RoutedEngine,
    policy: Arc<PrecisionPolicy>,
    convs_checked: usize,
}

impl ConvExecutor for StitchCheck {
    fn begin_pass(&mut self) {
        self.mixed.begin_pass();
    }

    fn conv(&mut self, ctx: &ConvCtx<'_>, x: &Tensor) -> Tensor {
        let y = self.mixed.conv(ctx, x);
        let route = self.policy.route_for(ctx.name);
        let mut solo = RoutedEngine::build_route(route, Arc::new(PlanCache::new()));
        let y_solo = solo.conv(ctx, x);
        let allowance = match route {
            Route::Float => 1,
            _ => 0,
        };
        for (i, (a, b)) in y.as_slice().iter().zip(y_solo.as_slice()).enumerate() {
            let u = ulp_diff(*a, *b);
            assert!(
                u <= allowance,
                "layer {} ({route:?}): elem {i} diverges by {u} ulp — mixed {a} vs solo {b}",
                ctx.name
            );
        }
        self.convs_checked += 1;
        y
    }
}

/// The tentpole differential: a whole-model forward under a mixed
/// `PrecisionPolicy` is bit-identical to stitching each layer's
/// single-engine output, and bit-identical to the routed scalar oracle.
#[test]
fn mixed_policy_forward_equals_stitched_single_engine_layers() {
    let policy = mixed_policy();
    let (resnet, lenet) = build_models();
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    for (model, channels) in [(&resnet, 3), (&lenet, 1)] {
        let x = random_image(&mut rng, channels, 8);
        let mut stitch = StitchCheck {
            mixed: RoutedEngine::new(Arc::clone(&policy)),
            policy: Arc::clone(&policy),
            convs_checked: 0,
        };
        let y_mixed = model.forward_eval(&x, &mut stitch);
        assert!(stitch.convs_checked >= 2, "model must exercise several routed convs");

        // The same forward pinned to the layer-by-layer scalar oracle.
        let y_oracle =
            model.forward_eval(&x, &mut PolicyOracleExecutor { policy: Arc::clone(&policy) });
        for (i, (a, b)) in y_mixed.as_slice().iter().zip(y_oracle.as_slice()).enumerate() {
            assert!(ulp_diff(*a, *b) <= 1, "elem {i}: mixed forward {a} vs routed oracle {b}");
        }
    }
}

/// An ODQM manifest with an embedded policy round-trips bit-exactly:
/// byte-identical re-serialization, equal policy, bit-identical forward.
#[test]
fn manifest_with_policy_roundtrips_bit_exactly() {
    use odq::nn::serialize::{load_manifest_from, save_manifest_with_policy_to};

    let policy = mixed_policy();
    let (mut resnet, _) = build_models();
    let meta = vec![("trained_by".to_string(), "conformance".to_string())];

    let mut bytes = Vec::new();
    save_manifest_with_policy_to(&mut resnet, &meta, Some(&policy), &mut bytes).unwrap();
    let loaded = load_manifest_from(&mut std::io::Cursor::new(&bytes)).unwrap();
    assert_eq!(loaded.policy.as_ref(), Some(policy.as_ref()));
    assert_eq!(loaded.meta, meta);

    let mut again = Vec::new();
    let mut reloaded = loaded.model;
    save_manifest_with_policy_to(&mut reloaded, &loaded.meta, loaded.policy.as_ref(), &mut again)
        .unwrap();
    assert_eq!(bytes, again, "save → load → save must be byte-identical");

    let mut rng = ChaCha8Rng::seed_from_u64(0x0D0_12D);
    let x = random_image(&mut rng, 3, 8);
    let ya = resnet.forward_eval(&x, &mut RoutedEngine::new(Arc::clone(&policy)));
    let yb = reloaded.forward_eval(&x, &mut RoutedEngine::new(policy));
    assert_eq!(
        ya.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        yb.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
}
