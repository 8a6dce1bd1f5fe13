//! Registry + hot-swap integration properties.
//!
//! 1. **Zero-downtime swap under load** — while a server answers a
//!    sustained stream of requests, a retrained checkpoint is published,
//!    deployed, and rolled back. Every submitted request gets exactly one
//!    terminal outcome, and every successful response is bit-identical to
//!    a solo forward of exactly one published version — a response can
//!    never observe half-swapped weights.
//! 2. **Swap-under-load proptest** — random interleavings of
//!    deploy/rollback/canary transitions with request traffic, same
//!    invariant, any engine.
//! 3. **Canary determinism** — the seeded id-hash split sends the same id
//!    to the same side, always, and per-version traffic shows up split in
//!    the ledger.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use odq::core::engine::OdqEngine;
use odq::nn::executor::{ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::registry::{FiniteGate, ModelRegistry};
use odq::serve::{EngineKind, InferRequest, ServeConfig, ServeError, Server, TrafficSplit};
use odq::tensor::Tensor;

const CLASSES: usize = 4;

fn lenet(seed: u64) -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, CLASSES);
    cfg.input_hw = 8;
    cfg.in_channels = 1;
    cfg.seed = seed;
    Model::build(cfg)
}

fn image(i: usize) -> Tensor {
    let v: Vec<f32> = (0..64).map(|j| ((j * 11 + i * 29) % 89) as f32 / 89.0).collect();
    Tensor::from_vec(vec![1, 1, 8, 8], v)
}

fn solo_engine(kind: &EngineKind) -> Box<dyn ConvExecutor> {
    match kind {
        EngineKind::Float => Box::new(FloatConvExecutor),
        EngineKind::Static { bits } => Box::new(StaticQuantExecutor::with_bits(*bits, *bits, 1.0)),
        EngineKind::Odq { threshold } => Box::new(OdqEngine::new(*threshold)),
        EngineKind::Policy(p) => Box::new(odq::serve::PolicyExecutor::new(
            Arc::clone(p),
            Arc::new(odq::quant::plan::PlanCache::new()),
        )),
        EngineKind::Drq { .. } => unimplemented!("not exercised here"),
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Solo-forward references for every (version, input) pair: the ground
/// truth a served response must bit-match exactly one row of.
fn references(
    reg: &ModelRegistry,
    name: &str,
    versions: &[u64],
    inputs: usize,
    kind: &EngineKind,
) -> HashMap<(u64, usize), Vec<u32>> {
    let mut refs = HashMap::new();
    for &v in versions {
        let model = reg.get(name, v).expect("published version");
        for i in 0..inputs {
            let y = model.forward_eval(&image(i), &mut *solo_engine(kind));
            refs.insert((v, i), bits(&y));
        }
    }
    refs
}

/// Which single version answered, or None if the response matches no
/// version (torn read) or more than one (seed collision — impossible with
/// distinct seeds).
fn version_of(
    refs: &HashMap<(u64, usize), Vec<u32>>,
    versions: &[u64],
    input: usize,
    got: &[u32],
) -> Option<u64> {
    let matches: Vec<u64> =
        versions.iter().copied().filter(|&v| refs[&(v, input)].as_slice() == got).collect();
    match matches.as_slice() {
        [v] => Some(*v),
        _ => None,
    }
}

/// The acceptance path: sustained load, deploy a retrained checkpoint,
/// roll it back — zero lost or duplicated responses, every response
/// bit-exact to exactly one version's solo forward, per-version stats in
/// the summary and the JSON.
#[test]
fn hot_swap_under_sustained_load_never_tears_a_response() {
    let cfg = ServeConfig { queue_depth: 256, max_batch: 4, workers: 2, ..Default::default() };
    let server =
        Arc::new(Server::builder(cfg).engine(EngineKind::Float).model("lenet", lenet(1)).start());
    let v2 = server.registry().publish("lenet", lenet(2), vec![]).unwrap();
    let versions = vec![1, v2];
    let inputs = 8;
    let refs = references(server.registry(), "lenet", &versions, inputs, &EngineKind::Float);

    // Two client threads keep the server busy for the whole experiment.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut outcomes: Vec<(usize, Result<Vec<u32>, ServeError>)> = Vec::new();
                let mut i = c;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let input = i % inputs;
                    match server.submit(InferRequest::new("lenet", image(input))) {
                        Ok(h) => outcomes.push((input, h.wait().map(|r| bits(&r.output)))),
                        Err(ServeError::QueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected admission error {e}"),
                    }
                    i += 2;
                }
                outcomes
            })
        })
        .collect();

    // Swap forward and back while the clients hammer the server.
    std::thread::sleep(Duration::from_millis(20));
    server.deploy("lenet", v2).unwrap();
    assert_eq!(server.current_version("lenet"), Some(v2));
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(server.rollback("lenet").unwrap(), 1);
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut total = 0u64;
    let mut by_version: HashMap<u64, u64> = HashMap::new();
    for c in clients {
        for (input, outcome) in c.join().unwrap() {
            total += 1;
            let got = outcome.expect("no deadline set: every admitted request must answer");
            let v = version_of(&refs, &versions, input, &got)
                .expect("response must bit-match exactly one published version");
            *by_version.entry(v).or_default() += 1;
        }
    }
    assert!(total > 0);
    assert!(
        by_version.get(&1).copied().unwrap_or(0) > 0,
        "v1 served before the deploy and after the rollback"
    );

    let json = server.stats_json();
    let sum = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(),
        Err(_) => panic!("all client handles joined; server must be uniquely owned"),
    };
    // Exactly one terminal outcome per admitted request: the ledger's
    // completion count equals the number of responses the clients saw.
    assert_eq!(sum.admitted, total);
    assert_eq!(sum.completed, total);
    // Per-version accounting matches what the clients measured, and the
    // JSON snapshot exposes it.
    for m in &sum.models {
        assert_eq!(m.model, "lenet");
        assert_eq!(by_version.get(&m.version).copied().unwrap_or(0), m.completed);
    }
    assert!(json.contains("\"models\""), "{json}");
    assert!(json.contains("\"version\""), "{json}");
    assert!(json.contains("\"uptime_ms\""), "{json}");
}

/// A registry shared by trainer and server, with a publish gate: the
/// gate's rejection keeps the bad artifact out of the routable set while
/// the server keeps serving the good version.
#[test]
fn gated_shared_registry_blocks_bad_checkpoints_from_serving() {
    let reg = Arc::new(ModelRegistry::gated(FiniteGate));
    reg.publish("lenet", lenet(1), vec![]).unwrap();
    let server = Server::builder(ServeConfig::default())
        .engine(EngineKind::Float)
        .registry(Arc::clone(&reg))
        .serve("lenet")
        .start();

    let mut bad = lenet(9);
    bad.visit_params(&mut |p| p.value.as_mut_slice()[0] = f32::NAN);
    assert!(reg.publish("lenet", bad, vec![]).is_err(), "gate must reject NaN weights");
    assert_eq!(reg.latest("lenet"), Some(1), "rejected candidate never became routable");

    let r = server.submit(InferRequest::new("lenet", image(0))).unwrap().wait().unwrap();
    assert_eq!(r.output.dims(), &[1, CLASSES]);
    server.shutdown();
}

/// One schedule step, decoded from a proptest-drawn code word:
/// mostly traffic, interleaved with deploys, rollbacks, and canaries.
#[derive(Clone, Debug)]
enum Op {
    Traffic(usize),
    Deploy(usize),
    Rollback,
    Canary(usize, f64),
    ClearCanary,
}

fn decode_op(code: u32) -> Op {
    match code % 10 {
        0..=4 => Op::Traffic(1 + (code / 10) as usize % 11),
        5 | 6 => Op::Deploy((code / 10) as usize % 3),
        7 => Op::Rollback,
        8 => Op::Canary((code / 10) as usize % 3, ((code / 100) % 11) as f64 / 10.0),
        _ => Op::ClearCanary,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of swaps, rollbacks, and canaries with traffic,
    /// on the float and ODQ engines: every request resolves to exactly
    /// one terminal outcome, bit-identical to a solo forward of a single
    /// published version.
    #[test]
    fn any_swap_schedule_keeps_responses_bit_exact(
        codes in prop::collection::vec(0u32..100_000, 1..14),
        engine_sel in 0u8..2,
    ) {
        let kind = if engine_sel == 1 {
            EngineKind::Odq { threshold: 0.3 }
        } else {
            EngineKind::Float
        };
        let cfg = ServeConfig {
            queue_depth: 256,
            max_batch: 4,
            workers: 2,
            ..Default::default()
        };
        let server = Server::builder(cfg).engine(kind.clone()).model("m", lenet(1)).start();
        let v2 = server.registry().publish("m", lenet(2), vec![]).unwrap();
        let v3 = server.registry().publish("m", lenet(3), vec![]).unwrap();
        let versions = vec![1, v2, v3];
        let inputs = 6;
        let refs = references(server.registry(), "m", &versions, inputs, &kind);

        let mut handles = Vec::new();
        let mut submitted = 0usize;
        for code in codes {
            match decode_op(code) {
                Op::Traffic(n) => {
                    for _ in 0..n {
                        let input = submitted % inputs;
                        match server.submit(InferRequest::new("m", image(input))) {
                            Ok(h) => handles.push((input, h)),
                            Err(ServeError::QueueFull) => {}
                            Err(e) => panic!("unexpected admission error {e}"),
                        }
                        submitted += 1;
                    }
                }
                Op::Deploy(i) => server.deploy("m", versions[i]).unwrap(),
                Op::Rollback => match server.rollback("m") {
                    Ok(_) | Err(odq::serve::DeployError::NoPreviousVersion(_)) => {}
                    Err(e) => panic!("unexpected rollback error {e}"),
                },
                Op::Canary(i, f) => {
                    server.canary("m", versions[i], TrafficSplit::new(f)).unwrap()
                }
                Op::ClearCanary => server.clear_canary("m").unwrap(),
            }
        }

        let admitted = handles.len() as u64;
        for (input, h) in handles {
            let r = h.wait().expect("no deadline: every admitted request must answer");
            let got = bits(&r.output);
            prop_assert!(
                version_of(&refs, &versions, input, &got).is_some(),
                "response must bit-match exactly one published version (input {input})"
            );
        }
        let sum = server.shutdown();
        prop_assert_eq!(sum.admitted, admitted);
        prop_assert_eq!(sum.completed, admitted);
    }
}

#[test]
fn canary_split_is_deterministic_and_accounted_per_version() {
    let split = TrafficSplit::new(0.4).with_seed(7);
    // Pure determinism of the split itself.
    for id in 0..500u64 {
        assert_eq!(split.picks_canary(id), split.picks_canary(id));
    }

    let cfg = ServeConfig { max_batch: 4, ..Default::default() };
    let server = Server::builder(cfg).engine(EngineKind::Float).model("m", lenet(1)).start();
    let v2 = server.registry().publish("m", lenet(2), vec![]).unwrap();
    server.canary("m", v2, split).unwrap();

    let versions = vec![1, v2];
    let inputs = 5;
    let refs = references(server.registry(), "m", &versions, inputs, &EngineKind::Float);

    let mut expected: HashMap<u64, u64> = HashMap::new();
    for id in 0..40u64 {
        let input = id as usize % inputs;
        let r = server
            .submit(InferRequest::new("m", image(input)).with_id(id))
            .unwrap()
            .wait()
            .unwrap();
        let v = version_of(&refs, &versions, input, &bits(&r.output)).unwrap();
        assert_eq!(
            v == v2,
            split.picks_canary(id),
            "request {id} must land on the side the split picked"
        );
        *expected.entry(v).or_default() += 1;
    }
    assert_eq!(expected.len(), 2, "a 40% split over 40 ids exercises both sides");

    let sum = server.shutdown();
    assert_eq!(sum.models.len(), 2);
    for m in &sum.models {
        assert_eq!(expected[&m.version], m.completed, "ledger splits traffic by version");
    }
}

/// The retention-window edge: the registry retires the warm-previous
/// version (weights released) while a route still holds it for rollback.
/// Re-*deploying* the retired version must fail typed — the registry no
/// longer has the weights — and the failure must not tear the live route.
/// *Rolling back* to it must still succeed bit-exactly: the route's warm
/// `Arc` is the retention window, independent of the registry's.
#[test]
fn retiring_warm_previous_fails_redeploy_typed_but_rollback_stays_bit_exact() {
    use odq::registry::RegistryError;
    use odq::serve::DeployError;

    let server = Server::builder(ServeConfig { ..ServeConfig::default() })
        .engine(EngineKind::Float)
        .model("lenet", lenet(1))
        .start();

    let forward = |server: &Server, i: usize| {
        bits(&server.submit(InferRequest::new("lenet", image(i))).unwrap().wait().unwrap().output)
    };
    let solo = |version_seed: u64, i: usize| {
        let mut exec = solo_engine(&EngineKind::Float);
        bits(&lenet(version_seed).forward_eval(&image(i), exec.as_mut()))
    };

    // v1 (seed 1) is current; publish + deploy v2 (seed 2): v1 becomes
    // the warm previous.
    let v2 = server.registry().publish("lenet", lenet(2), vec![]).unwrap();
    server.deploy("lenet", v2).unwrap();
    assert_eq!(server.current_version("lenet"), Some(v2));

    // The registry retires v1: its weights are gone from the registry...
    server.registry().retire("lenet", 1).unwrap();

    // ...so re-deploying it fails typed — and the live route is untouched
    // by the failed operation: still v2, still serving v2's exact bits.
    match server.deploy("lenet", 1) {
        Err(DeployError::Registry(RegistryError::VersionRetired(_, 1))) => {}
        other => panic!("expected typed VersionRetired, got {other:?}"),
    }
    assert_eq!(server.current_version("lenet"), Some(v2));
    assert_eq!(forward(&server, 3), solo(2, 3), "failed deploy must not tear the route");

    // Rollback does not need the registry: the route kept v1 warm, and it
    // serves the exact bits the original weights produced.
    let rolled = server.rollback("lenet").expect("warm rollback survives registry retirement");
    assert_eq!(rolled, 1);
    assert_eq!(server.current_version("lenet"), Some(1));
    assert_eq!(
        forward(&server, 5),
        solo(1, 5),
        "rollback must serve the retired weights bit-exactly"
    );

    server.shutdown();
}
