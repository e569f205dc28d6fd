//! The benchmark's own tests: every workload at a tiny size reports every
//! named metric, finite and with its unit; traced spans account for
//! every counter; and `BENCHMARK.json` lists exactly the metrics the
//! command prints.

use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_perfbench::report::Report;
use rrmp_perfbench::sim::{self, Shape, SimWorkload, Tail};
use rrmp_perfbench::udp::{self, UdpWorkload};
use rrmp_perfbench::{run_sim, run_udp, Options, Workload, END_TO_END, PER_LAYER};

fn tiny_recovery() -> SimWorkload {
    SimWorkload {
        shape: Shape::Tree { region_size: 12, fanout: 2, depth: 1 },
        messages: 6,
        tail: Tail::Steps { count: 60, step: SimDuration::from_millis(10) },
        ..SimWorkload::sim_recovery()
    }
}

fn tiny_scale() -> SimWorkload {
    SimWorkload {
        tail: Tail::OneCall { horizon: SimTime::from_millis(400) },
        ..SimWorkload::sim_scale_with(1_500)
    }
}

fn tiny_udp() -> UdpWorkload {
    UdpWorkload { members: 40, lossy_one_in: 10, warmup: 2, messages: 8 }
}

fn opts(seed: u64, trace: bool) -> Options {
    Options { seed, seconds: 0.0, trace }
}

/// Every catalogue metric is present, in order, finite and in its unit,
/// and the outputs checked out.
fn assert_complete(report: &Report, catalogue: &[(&str, &str)]) {
    assert!(report.problems.is_empty(), "checks failed: {:?}", report.problems);
    assert!(report.correct());
    assert!(report.attempted > 0);
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, catalogue);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let json = report.json();
    assert!(json.starts_with("{\"correct\": true"), "{json}");
    for (name, unit) in catalogue {
        assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing from {json}");
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
}

#[test]
fn sim_workloads_report_every_metric() {
    for w in [tiny_recovery(), tiny_scale()] {
        assert_complete(&run_sim(&w, 1_000, opts(7, false), "test"), &END_TO_END);
        let traced = run_sim(&w, 1_000, opts(7, true), "test");
        assert_complete(&traced, &PER_LAYER);
        assert!(traced.get("netsim.ns_per_event_growth").unwrap() > 0.0);
        assert!(traced.get("bench.tracing_overhead").unwrap() > 0.0);
    }
}

#[test]
fn udp_workload_reports_every_metric() {
    let w = tiny_udp();
    let report = run_udp(&w, opts(3, false), "test");
    assert_complete(&report, &END_TO_END);
    assert_eq!(report.failed, 0);
    let traced = run_udp(&w, opts(3, true), "test");
    assert_complete(&traced, &PER_LAYER);
    assert!(traced.get("udp.poll_wakeups").unwrap() > 0.0);
    assert_eq!(traced.get("udp.recv_failures"), Some(0.0));
}

#[test]
fn sim_spans_account_for_every_counter() {
    let run = sim::run(&tiny_recovery(), 11, true);
    assert!(run.problems.is_empty(), "{:?}", run.problems);
    assert_eq!(sim::unmeasured_counter(&run), None);
    let events = sim::sim_counter("netsim.events");
    assert!(run.tracer.delta_sums("timed", sim::SIM_COUNTERS.len())[events] > 0);
    // One span per multicast and per `run_until` call.
    assert_eq!(run.tracer.named("multicast_with_plan").count(), 6);
    assert_eq!(run.tracer.named("run_until").count(), 5 + 60);
}

#[test]
fn udp_spans_tile_the_timed_phase() {
    let run = udp::run(&tiny_udp(), 5, true);
    assert!(run.problems.is_empty(), "{:?}", run.problems);
    assert_eq!(udp::unmeasured_counter(&run), None);
    let wakeups = udp::udp_counter("udp.poll_wakeups");
    assert!(run.tracer.delta_sums("timed", udp::UDP_COUNTERS.len())[wakeups] > 0);
    // One span per multicast, warmup included.
    assert_eq!(run.tracer.named("multicast").count(), 2 + 8);
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    let w = tiny_recovery();
    let a = sim::run(&w, 21, false);
    let b = sim::run(&w, 21, true);
    let c = sim::run(&w, 22, false);
    assert_eq!(a.fingerprint, b.fingerprint, "tracing changed the simulated outcome");
    assert_eq!(a.net, b.net);
    assert_ne!(a.fingerprint, c.fingerprint);
    for run in [&a, &c] {
        assert!(run.delivered <= run.expected);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
    }
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("metric list present");
    let end = json[start..].find(']').expect("list closes") + start;
    let field = |entry: &str, name: &str| {
        let at = entry.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    json[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    };
    assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
    let workloads = &json[json.find("\"workloads\"").expect("workloads")..];
    let workloads = &workloads[..workloads.find(']').expect("list closes")];
    for entry in workloads.split("\"name\": \"").skip(1) {
        let name = &entry[..entry.find('"').expect("name closes")];
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
