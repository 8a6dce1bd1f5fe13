//! Seeded chaos schedules: what happens, in what order, decided up front.
//!
//! A [`ChaosPlan`] is a pure function of a [`ChaosConfig`] (whose printed
//! `u64` seed is the whole replay token): the op sequence, every injected
//! fault, every published checkpoint's weight seed, the canary splits,
//! and the engine under test are all fixed before the stack spins up.
//! Execution timing still varies run to run — batch formation, which
//! batch a probabilistic panic lands on, which requests a deadline
//! catches — but the *schedule* and every decision function inside the
//! stack (fault hooks, traffic splits) are deterministic in the seed,
//! which is what makes a failure replayable.

use odq_conformance::OracleKind;
use odq_net::ConnFault;
use odq_serve::EngineKind;

use crate::rng::{substream, SplitMix64};

/// Model names every schedule serves. Two co-served models, so per-model
/// faults and per-model accounting have something to isolate.
pub const MODEL_NAMES: [&str; 2] = ["alpha", "beta"];

/// Distinct input images per schedule (by image seed). Small, so oracle
/// forwards cache well across repeated submits of the same image.
pub const IMAGE_SEEDS: u64 = 16;

/// One scheduled action against the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosOp {
    /// Submit one inference for `MODEL_NAMES[model]` with the image
    /// derived from `image_seed`. `deadline_ms` of `Some(0)` is expired
    /// on arrival (must be rejected, never executed).
    Submit {
        /// Index into [`MODEL_NAMES`].
        model: usize,
        /// Input image seed (`0..IMAGE_SEEDS`).
        image_seed: u64,
        /// Optional request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Publish a fresh checkpoint (weights seeded by `model_seed`) and
    /// hot-swap the route to it.
    Deploy {
        /// Index into [`MODEL_NAMES`].
        model: usize,
        /// Weight seed for the published checkpoint.
        model_seed: u64,
    },
    /// Roll the route back to the warm previous deployment (typed failure
    /// when there is none — also part of the schedule).
    Rollback {
        /// Index into [`MODEL_NAMES`].
        model: usize,
    },
    /// Publish a candidate and canary `percent`% of traffic onto it.
    Canary {
        /// Index into [`MODEL_NAMES`].
        model: usize,
        /// Weight seed for the candidate checkpoint.
        model_seed: u64,
        /// Traffic percentage routed to the candidate.
        percent: u64,
    },
    /// Clear any canary; all traffic returns to current.
    ClearCanary {
        /// Index into [`MODEL_NAMES`].
        model: usize,
    },
    /// Retire the registry version *behind* the latest (the warm-previous
    /// edge: the route's kept `Arc` must still roll back bit-exactly).
    RetirePrevious {
        /// Index into [`MODEL_NAMES`].
        model: usize,
    },
    /// Drop the current client connection and open a new one through the
    /// fault proxy, which applies `fault` to it. No-op in-process.
    Reconnect {
        /// The sabotage the proxy applies to the new connection.
        fault: ConnFault,
    },
    /// Wait out every outstanding response handle, then run the invariant
    /// suite against the quiescent stack.
    Quiesce,
}

/// Knobs for one chaos schedule. The `seed` alone determines the plan;
/// the rest shape the stack under test.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Root seed — the printed replay token.
    pub seed: u64,
    /// Scheduled ops (a final `Quiesce` is always appended).
    pub ops: usize,
    /// Drive the stack through the ODQ1 TCP front-end and the fault
    /// proxy instead of in-process `submit`.
    pub via_net: bool,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Batch-size cap (`ServeConfig::max_batch`).
    pub max_batch: usize,
    /// Admission queue depth.
    pub queue_depth: usize,
    /// Per-batch probability of an injected worker panic
    /// (seeded-deterministic; see `odq_serve::fault::SeededProbFault`).
    pub panic_prob: f64,
}

impl ChaosConfig {
    /// A bounded default schedule for `seed`: enough ops to exercise
    /// every fault class, small enough for `cargo test`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ops: 120,
            via_net: false,
            workers: 2,
            max_batch: 4,
            queue_depth: 64,
            panic_prob: 0.04,
        }
    }

    /// Same schedule shape, driven over TCP through the fault proxy.
    pub fn via_net(mut self) -> Self {
        self.via_net = true;
        self
    }
}

/// A fully materialized schedule: the ops, the engine under test, its
/// matching oracle, and the initial checkpoint seeds.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// The root seed the plan was generated from.
    pub seed: u64,
    /// The engine every worker runs.
    pub engine: EngineKind,
    /// The conformance oracle configured to match `engine` bit for bit.
    pub oracle: OracleKind,
    /// Initial weight seed per [`MODEL_NAMES`] entry (version 1).
    pub initial_seeds: Vec<u64>,
    /// The op sequence (ends with a `Quiesce`).
    pub ops: Vec<ChaosOp>,
}

/// Pick the (engine, oracle) pair for a schedule. Every pair here is one
/// the conformance suite has already proven bit-identical end to end
/// (`tests/conformance.rs::serving_matches_oracle_for_single_engine_kinds`).
fn engine_for(pick: u64) -> (EngineKind, OracleKind) {
    match pick % 4 {
        0 => (EngineKind::Float, OracleKind::Float),
        1 => (EngineKind::Static { bits: 8 }, OracleKind::Static { bits: 8 }),
        2 => (EngineKind::Odq { threshold: 0.3 }, OracleKind::Odq { threshold: 0.3 }),
        _ => (EngineKind::Drq { input_threshold: 0.25 }, OracleKind::Drq { input_threshold: 0.25 }),
    }
}

impl ChaosPlan {
    /// Materialize the schedule for `cfg` — a pure function of it.
    pub fn generate(cfg: &ChaosConfig) -> Self {
        let mut rng = SplitMix64::new(substream(cfg.seed, 0x9a11));
        let (engine, oracle) = engine_for(rng.next_u64());
        let initial_seeds: Vec<u64> = MODEL_NAMES.iter().map(|_| rng.next_u64() | 1).collect();

        let mut ops = Vec::with_capacity(cfg.ops + 1);
        for _ in 0..cfg.ops {
            let roll = rng.next_f64();
            let model = rng.gen_range(0, MODEL_NAMES.len() as u64) as usize;
            let op = if roll < 0.70 {
                let deadline_ms = if rng.chance(0.05) {
                    Some(0) // Expired on arrival.
                } else if rng.chance(0.10) {
                    Some(rng.gen_range(200, 800))
                } else {
                    None
                };
                ChaosOp::Submit { model, image_seed: rng.gen_range(0, IMAGE_SEEDS), deadline_ms }
            } else if roll < 0.76 {
                ChaosOp::Deploy { model, model_seed: rng.next_u64() | 1 }
            } else if roll < 0.80 {
                ChaosOp::Rollback { model }
            } else if roll < 0.84 {
                ChaosOp::Canary {
                    model,
                    model_seed: rng.next_u64() | 1,
                    percent: rng.gen_range(10, 91),
                }
            } else if roll < 0.87 {
                ChaosOp::ClearCanary { model }
            } else if roll < 0.90 {
                ChaosOp::RetirePrevious { model }
            } else if roll < 0.96 && cfg.via_net {
                ChaosOp::Reconnect { fault: pick_fault(&mut rng) }
            } else {
                ChaosOp::Quiesce
            };
            ops.push(op);
        }
        ops.push(ChaosOp::Quiesce);

        Self { seed: cfg.seed, engine, oracle, initial_seeds, ops }
    }

    /// The per-connection fault list the proxy needs, in accept order:
    /// the initial connection is clean, each `Reconnect` opens a
    /// connection carrying its planned fault, and each `Quiesce` opens a
    /// clean one (the driver cycles the connection at every quiesce so a
    /// wire-wedged request resolves typed instead of hanging).
    pub fn connection_faults(&self) -> Vec<ConnFault> {
        let mut faults = vec![ConnFault::Pass];
        for op in &self.ops {
            match op {
                ChaosOp::Reconnect { fault } => faults.push(*fault),
                ChaosOp::Quiesce => faults.push(ConnFault::Pass),
                _ => {}
            }
        }
        faults
    }
}

fn pick_fault(rng: &mut SplitMix64) -> ConnFault {
    match rng.gen_range(0, 10) {
        0..=2 => ConnFault::Pass,
        3 | 4 => ConnFault::TruncateAfter(rng.gen_range(1, 600) as usize),
        5 | 6 => ConnFault::CorruptHeaderByte {
            offset: rng.gen_range(0, 9) as usize,
            mask: (1u8 << rng.gen_range(0, 8)).max(1),
        },
        7 | 8 => ConnFault::StallAt {
            at: rng.gen_range(0, 200) as usize,
            millis: rng.gen_range(20, 120),
        },
        _ => ConnFault::CloseOnAccept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = ChaosPlan::generate(&ChaosConfig::new(0xabc));
        let b = ChaosPlan::generate(&ChaosConfig::new(0xabc));
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.initial_seeds, b.initial_seeds);
        assert_eq!(a.engine.label(), b.engine.label());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ChaosPlan::generate(&ChaosConfig::new(1));
        let b = ChaosPlan::generate(&ChaosConfig::new(2));
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn plans_cover_the_op_space() {
        // Over a handful of seeds, every op class and every fault class
        // must appear — otherwise the distribution has silently collapsed
        // and the harness stops testing what it claims to.
        let mut submits = 0;
        let mut deploys = 0;
        let mut rollbacks = 0;
        let mut canaries = 0;
        let mut clears = 0;
        let mut retires = 0;
        let mut reconnects = 0;
        let mut quiesces = 0;
        for seed in 0..24u64 {
            let plan = ChaosPlan::generate(&ChaosConfig::new(seed).via_net());
            for op in &plan.ops {
                match op {
                    ChaosOp::Submit { .. } => submits += 1,
                    ChaosOp::Deploy { .. } => deploys += 1,
                    ChaosOp::Rollback { .. } => rollbacks += 1,
                    ChaosOp::Canary { .. } => canaries += 1,
                    ChaosOp::ClearCanary { .. } => clears += 1,
                    ChaosOp::RetirePrevious { .. } => retires += 1,
                    ChaosOp::Reconnect { .. } => reconnects += 1,
                    ChaosOp::Quiesce => quiesces += 1,
                }
            }
        }
        for (n, what) in [
            (submits, "submits"),
            (deploys, "deploys"),
            (rollbacks, "rollbacks"),
            (canaries, "canaries"),
            (clears, "clear-canaries"),
            (retires, "retires"),
            (reconnects, "reconnects"),
            (quiesces, "quiesces"),
        ] {
            assert!(n > 0, "24 plans produced zero {what}");
        }
        assert!(submits > deploys, "load dominates churn");
    }

    #[test]
    fn ops_always_end_in_quiesce() {
        for seed in 0..8u64 {
            let plan = ChaosPlan::generate(&ChaosConfig::new(seed));
            assert_eq!(plan.ops.last(), Some(&ChaosOp::Quiesce));
        }
    }

    #[test]
    fn in_process_plans_schedule_no_reconnects() {
        for seed in 0..8u64 {
            let plan = ChaosPlan::generate(&ChaosConfig::new(seed));
            assert!(!plan.ops.iter().any(|op| matches!(op, ChaosOp::Reconnect { .. })));
            // Only clean connections (one initial + one per quiesce cycle).
            assert!(plan.connection_faults().iter().all(|f| *f == ConnFault::Pass));
        }
    }
}
