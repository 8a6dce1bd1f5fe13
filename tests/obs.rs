//! End-to-end observability: tracing, per-layer profiling, exposition.
//!
//! 1. **Schema contract** — `stats_json`'s top-level keys (and the
//!    counter/gauge members) match the table documented in
//!    ARCHITECTURE.md exactly; a key rename there is a breaking change
//!    for regression tooling and must show up here first.
//! 2. **Five-stage traces** — a sampled request's trace collects all
//!    five pipeline spans, in stage order with monotone timestamps.
//! 3. **Exposition** — `GET /metrics` during live serving parses as
//!    strict Prometheus text and carries per-layer ODQ mask-density
//!    series; `GET /traces/recent` returns the sampled spans.
//! 4. **Golden exposition** — the render of an all-zero idle summary is
//!    byte-identical to the committed fixture
//!    (`tests/fixtures/metrics.prom`), pinning family names, HELP/TYPE
//!    headers, and the uptime/queue-depth gauges.

use std::sync::Arc;

use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::obs::{http_get, parse, render_summary, MetricsServer, TraceBuffer};
use odq::serve::{
    EngineKind, InferRequest, ServeConfig, Server, SpanStage, StatsSummary, TraceSink,
};
use odq::tensor::Tensor;
use serde_json::Value;

fn build_model() -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, 10);
    cfg.input_hw = 8;
    cfg.in_channels = 1;
    Model::build(cfg)
}

fn image(seed: usize) -> Tensor {
    let v: Vec<f32> = (0..64).map(|i| ((i * 7 + seed * 13) % 97) as f32 / 97.0).collect();
    Tensor::from_vec(vec![1, 1, 8, 8], v)
}

fn obs_server(traces: Arc<TraceBuffer>) -> Server {
    let cfg = ServeConfig {
        queue_depth: 64,
        max_batch: 4,
        workers: 1,
        simulate_accel: true,
        trace: Some(traces as Arc<dyn TraceSink>),
        layer_profiling: true,
        ..ServeConfig::default()
    };
    Server::builder(cfg)
        .engine(EngineKind::Odq { threshold: 0.3 })
        .model("lenet5", build_model())
        .start()
}

fn object_keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

/// The ARCHITECTURE.md "stats_json schema" table, as code. Top-level
/// keys are exact-match: a new sibling is allowed only once it is
/// documented (add it there, then here).
#[test]
fn stats_json_top_level_keys_match_documented_schema() {
    let traces = Arc::new(TraceBuffer::sample_all(256));
    let server = obs_server(traces);
    for i in 0..8 {
        server
            .submit(InferRequest::new("lenet5", image(i)))
            .expect("admit")
            .wait()
            .expect("complete");
    }
    let json = server.stats().to_json();
    server.shutdown();

    assert_eq!(
        object_keys(&json),
        [
            "uptime_ms",
            "counters",
            "gauges",
            "net",
            "latency_ms",
            "simulated_accel",
            "models",
            "layers"
        ],
        "stats_json top-level keys diverged from the documented schema"
    );
    assert_eq!(
        object_keys(get(&json, "counters")),
        [
            "admitted",
            "completed",
            "batches",
            "rejected_queue_full",
            "rejected_deadline",
            "rejected_invalid",
            "rejected_shutdown",
            "internal_errors",
            "worker_panics",
            "worker_restarts"
        ],
    );
    assert_eq!(
        object_keys(get(&json, "gauges")),
        ["mean_batch_size", "max_batch_size", "last_queue_depth", "max_queue_depth"],
    );
    assert_eq!(object_keys(get(&json, "latency_ms")), ["queue_wait", "service", "total"],);
    // Profiling was on and the engine is ODQ, so the layers array is
    // populated and each entry carries a mask density.
    match get(&json, "layers") {
        Value::Array(layers) => {
            assert!(!layers.is_empty(), "layer_profiling produced no layers");
            for l in layers {
                get(l, "wall_ms");
                get(l, "route");
                get(l, "mask_density");
            }
        }
        other => panic!("layers should be an array, got {other:?}"),
    }
}

/// Acceptance: a sampled trace shows all five pipeline stages with
/// monotone timestamps, and the live `/metrics` endpoint serves valid
/// Prometheus text including per-layer ODQ mask-density series.
#[test]
fn trace_spans_all_five_stages_and_metrics_expose_mask_density() {
    let traces = Arc::new(TraceBuffer::sample_all(1024));
    let server = obs_server(Arc::clone(&traces));
    let metrics = MetricsServer::bind(
        "127.0.0.1:0",
        Arc::new(server.stats_handle()),
        Some(Arc::clone(&traces)),
    )
    .expect("bind metrics endpoint");

    for i in 0..12 {
        server
            .submit(InferRequest::new("lenet5", image(i)))
            .expect("admit")
            .wait()
            .expect("complete");
    }

    // Every request was sampled and has fully completed (wait() is a
    // completion barrier: the worker records spans before scattering).
    let views = traces.traces(usize::MAX);
    assert_eq!(views.len(), 12, "one trace per request");
    for t in &views {
        assert!(t.is_complete(), "trace {:#x} missing stages: {:?}", t.trace, t.spans);
        assert!(t.is_monotone(), "trace {:#x} spans not monotone: {:?}", t.trace, t.spans);
        assert_eq!(t.spans.iter().filter(|s| s.stage == SpanStage::EngineExecute).count(), 1);
        assert!(
            t.spans.iter().any(|s| s.stage == SpanStage::EngineExecute && s.dur_ns.is_some()),
            "engine-execute span carries the service duration"
        );
    }

    let (status, body) = http_get(metrics.local_addr(), "/metrics").expect("scrape");
    assert_eq!(status, 200);
    let exp = parse(&body).expect("exposition must parse as Prometheus text");
    assert!(exp.get("odq_uptime_milliseconds", &[]).is_some());
    assert!(
        !exp.series("odq_layer_mask_density").is_empty(),
        "expected at least one per-layer ODQ mask-density series; families: {:?}",
        exp.families.keys().collect::<Vec<_>>()
    );
    assert!(!exp.series("odq_layer_wall_milliseconds").is_empty());

    let (status, tjson) = http_get(metrics.local_addr(), "/traces/recent").expect("scrape traces");
    assert_eq!(status, 200);
    assert!(tjson.contains("\"engine_execute\""), "{tjson}");

    metrics.shutdown();
    server.shutdown();
}

/// Golden-file gate: the exposition of the default (all-zero) summary is
/// pinned byte-for-byte. Regenerate deliberately with
/// `UPDATE_METRICS_FIXTURE=1 cargo test --test obs golden`.
#[test]
fn golden_metrics_exposition_matches_fixture() {
    let rendered = render_summary(&StatsSummary::default());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/metrics.prom");
    if std::env::var_os("UPDATE_METRICS_FIXTURE").is_some() {
        std::fs::write(path, &rendered).expect("write fixture");
    }
    let fixture = std::fs::read_to_string(path).expect("read tests/fixtures/metrics.prom");
    assert_eq!(
        rendered, fixture,
        "metrics exposition drifted from the committed fixture; if intentional, \
         regenerate with UPDATE_METRICS_FIXTURE=1"
    );
    // The fixture itself must stay valid Prometheus text with the
    // documented gauges present and typed.
    let exp = parse(&fixture).expect("fixture parses");
    for family in ["odq_uptime_milliseconds", "odq_queue_depth"] {
        assert_eq!(
            exp.families.get(family).map(String::as_str),
            Some("gauge"),
            "{family} must be declared a gauge"
        );
        assert!(fixture.contains(&format!("# HELP {family} ")), "{family} needs # HELP text");
    }
    assert!(exp.get("odq_queue_depth", &[("kind", "last")]).is_some());
    assert!(exp.get("odq_queue_depth", &[("kind", "max")]).is_some());
}
