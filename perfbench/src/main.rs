//! perfbench — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine_batch|serve_closed|net_open|net_closed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload; `--trace 1`
//! runs the workload again with spans recorded around the benchmark's
//! calls into each layer and prints the per-layer metrics. The last line
//! of standard output is one JSON object; every answer is checked, and a
//! wrong one makes the run exit non-zero. See `perfbench/README.md`.

mod layers;
mod load;
mod phase;
mod stack;
mod trace;
mod util;

use std::time::Duration;

use phase::PhaseOut;
use stack::{Inputs, Workload};
use util::{median, ms, percentile, us};

/// Cold bring-ups per run, before and after the load window; `setup_s`
/// is the median of all of them.
const BRINGUPS: (usize, usize) = (16, 16);
/// Load window of each companion phase in a traced run.
const COMPANION: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val:?}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    trace::start_clock();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench nproc={nproc} commit={} workload={} seed={} seconds={} trace={} args={:?}",
        util::commit(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::args().skip(1).collect::<Vec<_>>()
    );
    let window = Duration::from_secs(args.seconds);
    let (metrics, phases, extra_wrong) = if args.trace {
        traced(args.workload, args.seed, window)
    } else {
        let inputs = Inputs::generate(args.workload, args.seed);
        let out = phase::run(args.workload, &inputs, args.seed, BRINGUPS, window, false);
        print_phase(&out);
        (end_to_end(&out), vec![out], 0)
    };
    let attempted: u64 = phases.iter().map(|p| p.tally.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.tally.failed()).sum();
    let wrong: u64 = phases.iter().map(PhaseOut::wrong).sum::<u64>() + extra_wrong;
    let correct = wrong == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                util::json_str(name),
                util::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        eprintln!("perfbench: {wrong} wrong answers or clock violations");
        std::process::exit(1);
    }
}

/// The per-phase facts line: requests sent, succeeded, failed (by
/// kind), and how late the generator ran.
fn print_phase(p: &PhaseOut) {
    let t = &p.tally;
    let late: Vec<f64> = t.sample.as_slice().iter().map(|r| ms(r.lateness())).collect();
    let setups: Vec<f64> = p.setups.iter().map(|d| d.as_secs_f64()).collect();
    println!(
        "# phase {}: sent={} ok={} failed={} (queue_full={} deadline={} other={}) wrong={} \
         clock_violations={} late_p50_ms={:.4} late_p99_ms={:.4} setup_median_s={:.5} \
         bringups={} window_s={:.3} mean_batch={:.3}",
        p.workload.name(),
        t.attempted,
        t.ok,
        t.failed(),
        t.queue_full,
        t.deadline,
        t.other_failed,
        t.wrong,
        t.clock_violations,
        percentile(&late, 0.5).unwrap_or(0.0),
        percentile(&late, 0.99).unwrap_or(0.0),
        median(&setups).unwrap_or(0.0),
        p.setups.len(),
        p.window.as_secs_f64(),
        p.delta.completed as f64 / p.delta.batches.max(1) as f64,
    );
}

/// The sampled records of correct answers.
fn ok_records(p: &PhaseOut) -> impl Iterator<Item = &load::Record> {
    p.tally.sample.as_slice().iter().filter(|r| r.outcome == load::Outcome::Ok)
}

fn end_to_end(p: &PhaseOut) -> Vec<Metric> {
    let t = &p.tally;
    let per_request = if p.workload == Workload::EngineBatch { stack::ENGINE_BATCH } else { 1 };
    // Client latency of correct answers: per call in `engine_batch`, from
    // when each request was due otherwise.
    let lat: Vec<f64> = ok_records(p).map(|r| ms(r.latency())).collect();
    let attempted = t.attempted.max(1) as f64;
    let setups: Vec<f64> = p.setups.iter().map(|d| d.as_secs_f64()).collect();
    vec![
        ("setup_s", median(&setups).expect("bring-ups"), "s"),
        ("throughput_rps", t.rate() * per_request as f64, "1/s"),
        ("latency_p50_ms", percentile(&lat, 0.5).unwrap_or(f64::NAN), "ms"),
        ("latency_p90_ms", percentile(&lat, 0.9).unwrap_or(f64::NAN), "ms"),
        ("slo_ok_ratio", t.ok_within_slo as f64 / attempted, "ratio"),
        ("ok_ratio", t.ok as f64 / attempted, "ratio"),
        ("sim_cycles_per_image", p.sim.0, "cycles"),
        ("sim_energy_uj_per_image", p.sim.1, "uJ"),
        ("peak_rss_mb", util::peak_rss_mb(), "MiB"),
    ]
}

/// The traced run: the workload untraced (the overhead reference), then
/// traced, each for half the window; then short traced companion phases
/// for the layers the workload does not exercise; then the layer pass.
fn traced(w: Workload, seed: u64, window: Duration) -> (Vec<Metric>, Vec<PhaseOut>, u64) {
    let inputs = Inputs::generate(w, seed);
    let half = window / 2;
    let reference = phase::run(w, &inputs, seed, BRINGUPS, half, false);
    print_phase(&reference);
    let main = phase::run(w, &inputs, seed, BRINGUPS, half, true);
    print_phase(&main);
    let (r, t) = (end_to_end(&reference), end_to_end(&main));
    for i in [1, 2] {
        println!(
            "# tracing overhead {}: untraced {:.4} traced {:.4} ({:+.2}%)",
            r[i].0,
            r[i].1,
            t[i].1,
            (t[i].1 / r[i].1 - 1.0) * 1e2
        );
    }

    let mut engine_inputs = None;
    let mut phases = vec![main];
    for c in [Workload::EngineBatch, Workload::ServeClosed, Workload::NetOpen] {
        if c != w {
            let ci = Inputs::generate(c, seed);
            let out = phase::run(c, &ci, seed, (1, 0), COMPANION, true);
            print_phase(&out);
            phases.push(out);
            if c == Workload::EngineBatch {
                engine_inputs = Some(ci);
            }
        }
    }
    let engine_inputs = engine_inputs.as_ref().unwrap_or(&inputs);
    let model = stack::resnet20(1);
    let pass = layers::run(&model, &engine_inputs.batches[0], w, &inputs);

    // Each layer's numbers come from the workload itself when it exercises
    // the layer, else from the companion phase named here.
    let find = |x: Workload| phases.iter().find(|p| p.workload == x).expect("phase ran");
    let serving_or = |x: Workload| if w == Workload::EngineBatch { find(x) } else { &phases[0] };
    let net_or = |x: Workload| if w.is_net() { &phases[0] } else { find(x) };
    let of = |p: &PhaseOut, f: fn(&load::Record) -> Duration, to: fn(Duration) -> f64| {
        ok_records(p).map(|r| to(f(r))).collect::<Vec<f64>>()
    };
    let all = |p: &PhaseOut, f: fn(&load::Record) -> Duration, to: fn(Duration) -> f64| {
        p.tally.sample.as_slice().iter().map(|r| to(f(r))).collect::<Vec<f64>>()
    };
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(f64::NAN);
    let p90 = |v: &[f64]| percentile(v, 0.9).unwrap_or(f64::NAN);
    let durs =
        |v: &[Duration], to: fn(Duration) -> f64| v.iter().map(|&d| to(d)).collect::<Vec<_>>();
    let pass_metric = |name: &str| {
        pass.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).expect("layer pass metric")
    };

    let mut m: Vec<Metric> = Vec::new();
    let late = all(serving_or(Workload::NetOpen), load::Record::lateness, ms);
    m.push(("loadgen.late_p99_ms", percentile(&late, 0.99).unwrap_or(f64::NAN), "ms"));

    let net = net_or(Workload::NetOpen);
    let wire = of(net, load::Record::outside_server, ms);
    m.push(("net.wire_p50_ms", p50(&wire), "ms"));
    m.push(("net.wire_p90_ms", p90(&wire), "ms"));
    m.push(("net.client_submit_p50_us", p50(&all(net, load::Record::submit, us)), "us"));
    m.push(("net.encode_request_us", pass_metric("net.encode_request_us"), "us"));
    m.push(("net.read_frame_us", pass_metric("net.read_frame_us"), "us"));
    let frames = net.delta.net_frames_in.max(1) as f64;
    m.push(("net.bytes_per_request", net.delta.net_bytes as f64 / frames, "bytes"));

    let sc = find(Workload::ServeClosed);
    m.push(("serve.submit_p50_us", p50(&all(sc, load::Record::submit, us)), "us"));
    let waits = of(serving_or(Workload::NetOpen), load::Record::queue_wait, ms);
    m.push(("serve.queue_wait_p50_ms", p50(&waits), "ms"));
    m.push(("serve.queue_wait_p90_ms", p90(&waits), "ms"));
    let busy = serving_or(Workload::ServeClosed);
    m.push(("serve.service_p50_ms", p50(&of(busy, load::Record::service, ms)), "ms"));
    m.push(("serve.handoff_p50_ms", p50(&of(sc, load::Record::outside_server, ms)), "ms"));
    let batches = busy.delta.batches.max(1) as f64;
    m.push(("serve.mean_batch_size", busy.delta.completed as f64 / batches, "count"));
    let attempted = busy.tally.attempted.max(1) as f64;
    m.push(("serve.rejected_ratio", busy.delta.rejected as f64 / attempted, "ratio"));
    let no = find(Workload::NetOpen);
    m.push(("serve.deploy_p50_ms", p50(&durs(&no.side.deploys, ms)), "ms"));
    m.push(("serve.stats_p50_us", p50(&durs(&no.side.stats, us)), "us"));
    m.push(("registry.publish_ms", p50(&durs(&busy.publishes, ms)), "ms"));
    m.push(("obs.scrape_p50_ms", p50(&durs(&no.side.scrapes, ms)), "ms"));
    let mut render_spans = Vec::new();
    let summary = busy.summary.as_ref().expect("serving phase summary");
    m.push(("obs.render_us", layers::render_us(summary, &mut render_spans), "us"));

    let eb = find(Workload::EngineBatch);
    let images = (eb.tally.attempted * stack::ENGINE_BATCH as u64).max(1) as f64;
    let (forward, conv) = (ms(eb.forward) / images, ms(eb.conv) / images);
    m.push(("nn.forward_ms_per_image", forward, "ms"));
    m.push(("nn.conv_ms_per_image", conv, "ms"));
    m.push(("nn.other_ms_per_image", forward - conv, "ms"));
    for &(name, value) in pass.metrics.iter().filter(|(n, _)| !n.starts_with("net.")) {
        let unit = match name {
            "core.sensitive_fraction" => "ratio",
            "accel.sim_us_per_batch" => "us",
            _ => "ms",
        };
        m.push((name, value, unit));
    }

    let path = format!("perfbench/out/trace-{}.jsonl", w.name());
    let mut groups: Vec<(&str, &[trace::Span])> =
        phases.iter().map(|p| (p.workload.name(), &p.spans[..])).collect();
    groups.push(("layers", &pass.spans));
    groups.push(("render", &render_spans));
    match trace::write(&path, &groups) {
        Ok(n) => println!("# spans: {n} written to {path}"),
        Err(e) => println!("# spans: not written ({e})"),
    }
    (m, phases, pass.mismatches as u64)
}
