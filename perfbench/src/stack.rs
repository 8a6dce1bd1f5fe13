//! What each workload serves: models, engines, generated inputs, the
//! expected answer for every input, and the timed bring-up of the stack.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odq_conformance::{OracleGate, OracleKind, PolicyOracleGate};
use odq_core::engine::OdqEngine;
use odq_data::SynthSpec;
use odq_net::{NetClient, NetConfig, NetServer};
use odq_nn::executor::{ConvExecutor, FloatConvExecutor};
use odq_nn::models::{Model, ModelCfg};
use odq_nn::policy::{PrecisionPolicy, Route};
use odq_nn::Arch;
use odq_obs::MetricsServer;
use odq_quant::plan::PlanCache;
use odq_registry::{ModelRegistry, PublishGate};
use odq_serve::{
    EngineKind, InferRequest, LoadTarget, PolicyExecutor, ServeConfig, Server, StatsSummary,
};
use odq_tensor::Tensor;

use crate::util::sub_seed;

/// The ODQ output threshold every ODQ engine and route runs at.
pub const THRESHOLD: f32 = 0.3;
/// Images per `forward_eval` call in `engine_batch`.
pub const ENGINE_BATCH: usize = 16;
/// Distinct `engine_batch` batches, cycled through.
const ENGINE_BATCHES: usize = 8;
/// Distinct images per served model, cycled through.
const POOL: usize = 64;
/// Requests per model in the warm pass that ends every bring-up.
const WARM: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EngineBatch,
    ServeClosed,
    NetOpen,
    NetClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::EngineBatch, Workload::ServeClosed, Workload::NetOpen, Workload::NetClosed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineBatch => "engine_batch",
            Workload::ServeClosed => "serve_closed",
            Workload::NetOpen => "net_open",
            Workload::NetClosed => "net_closed",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_net(self) -> bool {
        matches!(self, Workload::NetOpen | Workload::NetClosed)
    }

    /// The served models and their share of requests.
    pub fn mix(self) -> &'static [(&'static str, f64)] {
        match self {
            Workload::EngineBatch => &[("resnet20", 1.0)],
            Workload::ServeClosed | Workload::NetOpen => &[("resnet20", 0.6), ("lenet5", 0.4)],
            Workload::NetClosed => &[("lenet5", 1.0)],
        }
    }
}

pub fn resnet20(version: u64) -> Model {
    let mut cfg = ModelCfg::small(Arch::ResNet20, 10);
    // The hot-swap target differs in every weight.
    cfg.seed ^= (version - 1).wrapping_mul(0x5eed_0000_0002);
    Model::build(cfg)
}

fn lenet5() -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, 10);
    cfg.in_channels = 1;
    Model::build(cfg)
}

fn model(name: &str, version: u64) -> Model {
    match name {
        "resnet20" => resnet20(version),
        "lenet5" => lenet5(),
        other => unreachable!("no model {other}"),
    }
}

/// `net_open`'s resnet20 policy: one layer each on the float, static
/// int8 and DRQ routes, every other layer on ODQ.
fn resnet_policy() -> PrecisionPolicy {
    PrecisionPolicy::uniform(Route::Odq { threshold: THRESHOLD, sparse: false })
        .with("C1", Route::Float)
        .with("C2", Route::Static { w_bits: 8, a_bits: 8, a_clip: 1.0 })
        .with(
            "C3",
            Route::Drq { hi_bits: 8, lo_bits: 4, a_clip: 1.0, region: 2, input_threshold: 0.1 },
        )
}

/// The default route: what lenet5 runs on under `net_open`.
fn default_policy() -> PrecisionPolicy {
    PrecisionPolicy::uniform(Route::Odq { threshold: THRESHOLD, sparse: false })
}

fn engine_kind(w: Workload) -> EngineKind {
    match w {
        Workload::EngineBatch | Workload::ServeClosed => EngineKind::Odq { threshold: THRESHOLD },
        Workload::NetOpen => EngineKind::Policy(Arc::new(default_policy())),
        Workload::NetClosed => EngineKind::Float,
    }
}

/// The versions a workload publishes per model, with their policies.
fn versions(w: Workload, name: &str) -> Vec<Option<PrecisionPolicy>> {
    match (w, name) {
        (Workload::NetOpen, "resnet20") => vec![Some(resnet_policy()), Some(resnet_policy())],
        _ => vec![None],
    }
}

/// A fresh engine of the kind a serve worker builds for this model and
/// version, over a private plan cache.
fn solo_engine(w: Workload, policy: Option<&PrecisionPolicy>) -> Box<dyn ConvExecutor> {
    let plans = Arc::new(PlanCache::new());
    match w {
        Workload::EngineBatch | Workload::ServeClosed => {
            Box::new(OdqEngine::with_plan_cache(THRESHOLD, plans))
        }
        Workload::NetOpen => {
            let p = policy.cloned().unwrap_or_else(default_policy);
            Box::new(PolicyExecutor::new(Arc::new(p), plans))
        }
        Workload::NetClosed => Box::new(FloatConvExecutor),
    }
}

/// The conformance gate each model is published behind.
struct WorkloadGate {
    workload: Workload,
}

impl PublishGate for WorkloadGate {
    fn label(&self) -> &str {
        "perfbench-conformance"
    }

    fn check(&self, name: &str, model: &mut Model) -> Result<(), String> {
        match (self.workload, name) {
            (Workload::NetOpen, "resnet20") => {
                PolicyOracleGate::new(Arc::new(resnet_policy())).check(name, model)
            }
            (Workload::NetOpen, _) => {
                PolicyOracleGate::new(Arc::new(default_policy())).check(name, model)
            }
            (Workload::NetClosed, _) => OracleGate::float().check(name, model),
            _ => OracleGate { kind: OracleKind::Odq { threshold: THRESHOLD }, probes: 2 }
                .check(name, model),
        }
    }
}

/// One served model's generated inputs and expected outputs.
pub struct ModelInputs {
    pub name: &'static str,
    pub weight: f64,
    /// `[1, C, 16, 16]` images.
    pub images: Vec<Tensor>,
    /// `expected[version][image]`: the solo-forward logits of each
    /// published version, bit for bit.
    pub expected: Vec<Vec<Vec<f32>>>,
}

impl ModelInputs {
    /// The published version (0-based) whose solo forward `out` equals
    /// bit for bit, if any.
    pub fn matching_version(&self, image: usize, out: &[f32]) -> Option<usize> {
        let same = |e: &Vec<f32>| {
            e.len() == out.len() && e.iter().zip(out).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        self.expected.iter().position(|v| same(&v[image]))
    }
}

/// Everything a workload feeds the program, generated from `--seed`.
pub struct Inputs {
    pub models: Vec<ModelInputs>,
    /// `engine_batch` only: `[16, 3, 16, 16]` batches of `models[0]`'s images.
    pub batches: Vec<Tensor>,
}

fn images(name: &str, n: usize, seed: u64) -> Vec<Tensor> {
    let mut spec = if name == "lenet5" { SynthSpec::mnist(16) } else { SynthSpec::cifar10(16) };
    spec.seed = seed;
    let data = spec.generate(n);
    let per = data.images.as_slice().len() / n;
    let dims = [1, spec.channels, spec.hw, spec.hw];
    data.images.as_slice().chunks(per).map(|c| Tensor::from_vec(dims, c.to_vec())).collect()
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Self {
        let pool = if w == Workload::EngineBatch { ENGINE_BATCH * ENGINE_BATCHES } else { POOL };
        let models: Vec<ModelInputs> = w
            .mix()
            .iter()
            .enumerate()
            .map(|(i, &(name, weight))| {
                let images = images(name, pool, sub_seed(seed, i as u64 + 1));
                let expected = versions(w, name)
                    .iter()
                    .enumerate()
                    .map(|(v, policy)| {
                        let m = model(name, v as u64 + 1);
                        let mut engine = solo_engine(w, policy.as_ref());
                        images
                            .iter()
                            .map(|x| m.forward_eval(x, engine.as_mut()).as_slice().to_vec())
                            .collect()
                    })
                    .collect();
                ModelInputs { name, weight, images, expected }
            })
            .collect();
        let batches = if w == Workload::EngineBatch {
            models[0]
                .images
                .chunks(ENGINE_BATCH)
                .map(|chunk| {
                    let mut dims = chunk[0].dims().to_vec();
                    dims[0] = chunk.len();
                    let data = chunk.iter().flat_map(|t| t.as_slice().iter().copied()).collect();
                    Tensor::from_vec(dims, data)
                })
                .collect()
        } else {
            Vec::new()
        };
        Self { models, batches }
    }

    /// The request for image `image` of model `model`.
    pub fn request(&self, model: usize, image: usize) -> InferRequest {
        let m = &self.models[model];
        InferRequest::new(m.name, m.images[image].clone())
    }
}

/// A brought-up stack, ready for load.
pub enum Stack {
    Engine { model: Model, engine: OdqEngine },
    Serve(Server),
    Net { server: NetServer, client: NetClient, metrics: Option<MetricsServer> },
}

impl Stack {
    /// The in-process server behind the stack, if it serves.
    pub fn server(&self) -> Option<&Server> {
        match self {
            Stack::Engine { .. } => None,
            Stack::Serve(s) => Some(s),
            Stack::Net { server, .. } => Some(server.server()),
        }
    }

    pub fn target(&self) -> Option<&dyn LoadTarget> {
        match self {
            Stack::Engine { .. } => None,
            Stack::Serve(s) => Some(s),
            Stack::Net { client, .. } => Some(client),
        }
    }

    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        match self {
            Stack::Net { metrics: Some(m), .. } => Some(m.local_addr()),
            _ => None,
        }
    }

    /// Drain and stop everything; the final ledger of a serving stack.
    pub fn shut_down(self) -> Option<StatsSummary> {
        match self {
            Stack::Engine { .. } => None,
            Stack::Serve(s) => Some(s.shutdown()),
            Stack::Net { server, client, metrics } => {
                client.close();
                if let Some(m) = metrics {
                    m.shutdown();
                }
                Some(server.shutdown())
            }
        }
    }
}

/// Timings of one bring-up.
pub struct Bringup {
    pub total: Duration,
    pub publishes: Vec<Duration>,
}

/// Bring the workload's stack up from nothing: build the models, publish
/// them through the conformance gate, start the server, bind the TCP
/// front-end and metrics endpoint, connect the client, and run a fixed
/// warm pass. Input generation is not part of it.
pub fn bring_up(w: Workload, inputs: &Inputs) -> (Stack, Bringup) {
    let start = Instant::now();
    let mut publishes = Vec::new();
    let stack = if w == Workload::EngineBatch {
        let model = resnet20(1);
        let mut engine = OdqEngine::with_plan_cache(THRESHOLD, Arc::new(PlanCache::new()));
        model.forward_eval(&inputs.batches[0], &mut engine);
        engine.stats.take();
        Stack::Engine { model, engine }
    } else {
        let registry = Arc::new(ModelRegistry::gated(WorkloadGate { workload: w }));
        for &(name, _) in w.mix() {
            for (v, policy) in versions(w, name).into_iter().enumerate() {
                let t = Instant::now();
                registry
                    .publish_with_policy(name, model(name, v as u64 + 1), vec![], policy)
                    .expect("publish through the conformance gate");
                publishes.push(t.elapsed());
            }
        }
        let mut builder =
            Server::builder(ServeConfig::default()).engine(engine_kind(w)).registry(registry);
        for &(name, _) in w.mix() {
            builder = builder.serve(name);
        }
        let server = builder.start();
        if w == Workload::NetOpen {
            // Serve the first version; the load hot-swaps between both.
            server.deploy("resnet20", 1).expect("deploy resnet20 v1");
        }
        let stack = if w.is_net() {
            let metrics = (w == Workload::NetOpen).then(|| {
                MetricsServer::bind("127.0.0.1:0", Arc::new(server.stats_handle()), None)
                    .expect("bind metrics endpoint")
            });
            let server = NetServer::bind(server, "127.0.0.1:0", NetConfig::default())
                .expect("bind loopback front-end");
            let client = NetClient::connect(server.local_addr()).expect("connect client");
            Stack::Net { server, client, metrics }
        } else {
            Stack::Serve(server)
        };
        warm(&stack, inputs);
        stack
    };
    (stack, Bringup { total: start.elapsed(), publishes })
}

fn warm(stack: &Stack, inputs: &Inputs) {
    let target = stack.target().expect("serving stack");
    let handles: Vec<_> = (0..inputs.models.len())
        .flat_map(|m| (0..WARM).map(move |i| (m, i)))
        .map(|(m, i)| target.submit(inputs.request(m, i)).expect("warm submit"))
        .collect();
    for h in handles {
        h.wait().expect("warm request answered");
    }
}
