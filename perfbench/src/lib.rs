//! The repository benchmark of the RRMP reproduction.
//!
//! One command, `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, runs one workload in its own process, checks its
//! outputs and prints every metric by name and unit; the last line of
//! standard output is one JSON object. With `--trace 0` it reports the
//! end-to-end metrics ([`END_TO_END`]) of untraced runs; with `--trace 1`
//! the per-layer metrics ([`PER_LAYER`]) of a traced run, beside an
//! untraced one for the tracing overhead. See `README.md` beside this
//! crate for the workloads, the metrics and which layer should move
//! which.

use std::time::Instant;

pub mod procfs;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod udp;

use report::Report;
use sim::{sim_counter, SimRun, SimWorkload, SIM_COUNTERS};
use stats::{median, quantile, ratio};
use udp::{udp_counter, UdpRun, UdpWorkload, UDP_COUNTERS};

/// Bytes per MiB: the `MB` of every memory metric.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Payload bytes of every message, in every workload.
pub const PAYLOAD_BYTES: usize = 1024;

/// End-to-end metrics (name, unit), printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("recovery_p50_ms", "ms"),
    ("recovery_p99_ms", "ms"),
    ("buffer_mb_s", "MB.s"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.unicasts_per_msg", "pkts"),
    ("netsim.timers_fired", "count"),
    ("netsim.unicasts_sent", "count"),
    ("netsim.unicasts_dropped", "count"),
    ("netsim.fanouts", "count"),
    ("netsim.batched_deliveries", "count"),
    ("netsim.run_until_calls", "count"),
    ("netsim.run_until_s", "s"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.longest_call_s", "s"),
    ("netsim.call_ns_per_event_p50", "ns"),
    ("netsim.call_ns_per_event_p99", "ns"),
    ("netsim.cpu_per_wall", "ratio"),
    ("netsim.ns_per_event_growth", "ratio"),
    ("netsim.scale_longest_call_s", "s"),
    ("core.setup_topology_s", "s"),
    ("core.setup_network_s", "s"),
    ("core.multicast_ns", "ns"),
    ("core.delivered", "count"),
    ("core.duplicates", "count"),
    ("core.duplicate_ratio", "ratio"),
    ("core.local_requests_sent", "count"),
    ("core.remote_requests_sent", "count"),
    ("core.repairs_sent_local", "count"),
    ("core.repairs_sent_remote", "count"),
    ("core.regional_multicasts_sent", "count"),
    ("core.regional_multicasts_suppressed", "count"),
    ("core.searches_started", "count"),
    ("core.search_forwards", "count"),
    ("core.idle_transitions", "count"),
    ("core.long_term_kept", "count"),
    ("core.discarded_at_idle", "count"),
    ("core.recovery_gave_up", "count"),
    ("core.peak_entries_mean", "entries"),
    ("core.buffer_peak_max", "entries"),
    ("core.long_term_per_region_msg", "count"),
    ("core.long_term_model_c", "count"),
    ("core.long_term_diff", "count"),
    ("core.no_bufferer_share", "ratio"),
    ("core.no_bufferer_model", "ratio"),
    ("core.no_bufferer_diff", "ratio"),
    ("udp.poll_wakeups", "count"),
    ("udp.idle_ticks", "count"),
    ("udp.deliveries_per_wakeup", "ratio"),
    ("udp.scavenges", "count"),
    ("udp.send_drops", "count"),
    ("udp.recv_failures", "count"),
    ("udp.pool_hits", "count"),
    ("udp.pool_misses", "count"),
    ("udp.pool_hit_rate", "ratio"),
    ("udp.steady_miss_rate", "ratio"),
    ("udp.pool_reclaimed", "count"),
    ("udp.pool_forfeited", "count"),
    ("udp.pool_high_water_mb", "MB"),
    ("udp.loop_busy_ratio", "ratio"),
    ("udp.loop_sys_share", "ratio"),
    ("udp.multicast_call_ns", "ns"),
    ("udp.app_drain_s", "s"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.complete_p50_ms", "ms"),
    ("bench.complete_p95_ms", "ms"),
    ("bench.complete_samples", "count"),
    ("bench.recovery_samples", "count"),
    ("bench.undelivered_ratio", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// About 100k simulated members, 2 shards, one long `run_until` tail.
    SimScale,
    /// 1.5k simulated members, inline engine, heavy recovery, short calls.
    SimRecovery,
    /// 2,000 members of one UDP runtime on loopback, closed loop.
    UdpStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SimScale, Workload::SimRecovery, Workload::UdpStream];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimScale => "sim_scale",
            Workload::SimRecovery => "sim_recovery",
            Workload::UdpStream => "udp_stream",
        }
    }

    /// The workload named `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The input seed.
    pub seed: u64,
    /// Wall seconds after which the measured runs stop, at the end of a
    /// cycle of inputs.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end.
    pub trace: bool,
}

/// Members of the `sim_scale` shape the scaling guard runs at full size
/// (and again at one fifth).
pub const SCALE_MEMBERS: usize = 100_000;

/// Where a traced invocation writes its spans, as JSON lines: beside this
/// crate, under `out/`.
#[must_use]
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.jsonl"))
}

/// Writes a traced run's spans (see [`spans_path`]); a failure to write
/// is reported on standard error and does not fail the run.
fn save_spans(tracer: &spans::Tracer, path: &std::path::Path, names: &[&str]) {
    if let Err(e) = tracer.write_jsonl(path, names) {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}

/// Runs `workload` at its full size.
#[must_use]
pub fn run(workload: Workload, opts: Options) -> Report {
    match workload {
        Workload::SimScale => {
            run_sim(&SimWorkload::sim_scale(), SCALE_MEMBERS, opts, workload.name())
        }
        Workload::SimRecovery => {
            run_sim(&SimWorkload::sim_recovery(), SCALE_MEMBERS, opts, workload.name())
        }
        Workload::UdpStream => run_udp(&UdpWorkload::udp_stream(), opts, workload.name()),
    }
}

/// Input seeds an untraced invocation cycles through: measured run `i`
/// draws its inputs from [`sub_seed`]`(seed, i % SUB_SEEDS)`, and the runs
/// stop only at the end of a whole cycle. Each invocation thus measures
/// the same four independent inputs, equally often, on any host, which
/// keeps one unlucky draw from deciding its figures.
pub const SUB_SEEDS: usize = 4;

/// The `k`-th input seed derived from the invocation's `seed` (`k = 0`
/// is `seed` itself).
#[must_use]
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The runs of one invocation.
struct Runs<R> {
    /// A first run of sub-seed 0: its outputs are checked, and the
    /// simulator's same-seed check compares it, but it is not measured.
    warmup: R,
    /// Measured untraced runs with the index of their sub-seed.
    plain: Vec<(usize, R)>,
    /// Traced runs, all from sub-seed 0.
    traced: Vec<R>,
}

impl<R> Runs<R> {
    /// Every run, warmup and traced included.
    fn all(&self) -> impl Iterator<Item = &R> {
        std::iter::once(&self.warmup).chain(self.plain.iter().map(|(_, r)| r)).chain(&self.traced)
    }

    /// The first measured run of each sub-seed (run `i` of sub-seed `k`
    /// is a first iff `i == k`).
    fn distinct(&self) -> impl Iterator<Item = &R> {
        self.plain.iter().enumerate().filter(|(i, (k, _))| i == k).map(|(_, (_, r))| r)
    }

    /// The median over sub-seeds of the median of `f` over each
    /// sub-seed's measured runs: every input weighs the same.
    fn median_by_input(&self, f: impl Fn(&R) -> f64) -> f64 {
        let mut per_input: Vec<f64> = (0..SUB_SEEDS)
            .filter_map(|k| {
                let mut v: Vec<f64> =
                    self.plain.iter().filter(|(j, _)| *j == k).map(|(_, r)| f(r)).collect();
                (!v.is_empty()).then(|| median(&mut v))
            })
            .collect();
        median(&mut per_input)
    }
}

/// Runs `run_once(input_seed, traced)` once from sub-seed 0 as a warmup,
/// then in whole cycles through the [`SUB_SEEDS`] input seeds until
/// `seconds` have passed at the end of a cycle. A traced invocation
/// instead alternates untraced and traced runs of sub-seed 0 until then.
fn repeat<R>(opts: Options, mut run_once: impl FnMut(u64, bool) -> R) -> Runs<R> {
    let start = Instant::now();
    let warmup = run_once(opts.seed, false);
    let mut runs = Runs { warmup, plain: Vec::new(), traced: Vec::new() };
    loop {
        if opts.trace {
            runs.plain.push((0, run_once(opts.seed, false)));
            runs.traced.push(run_once(opts.seed, true));
        } else {
            for k in 0..SUB_SEEDS {
                runs.plain.push((k, run_once(sub_seed(opts.seed, k), false)));
            }
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            return runs;
        }
    }
}

/// Runs a simulator workload, naming its spans file after `name`. A
/// traced invocation also runs the scaling guard: the `sim_scale` shape
/// at `scale_members` members and at one fifth of them.
#[must_use]
pub fn run_sim(workload: &SimWorkload, scale_members: usize, opts: Options, name: &str) -> Report {
    let runs = repeat(opts, |seed, t| sim::run(workload, seed, t));

    let mut report = Report::default();
    for r in runs.all() {
        report.attempted += r.expected;
        report.failed += r.expected - r.delivered;
        report.problems.extend(r.problems.iter().cloned());
    }
    for (k, r) in &runs.plain {
        let first = if *k == 0 { &runs.warmup } else { &runs.plain[*k].1 };
        report.check(r.fingerprint == first.fingerprint, || {
            format!(
                "two runs from seed {} disagree on the simulated outcome",
                sub_seed(opts.seed, *k)
            )
        });
    }
    for r in &runs.traced {
        report.check(r.fingerprint == runs.warmup.fingerprint, || {
            "tracing changed the simulated outcome".to_string()
        });
    }
    if let Some(t) = runs.traced.first() {
        if let Some((counter, sum, total)) = sim::unmeasured_counter(t) {
            report.problems.push(format!(
                "{counter}: spans account for {sum} of the run's {total}; a call went unmeasured"
            ));
        }
        save_spans(&t.tracer, &spans_path(name, opts.seed), &SIM_COUNTERS);
        sim_layers(&mut report, t, &runs);
        scale_guard(&mut report, scale_members, opts.seed);
        let mut complete = t.complete_ms.clone();
        report.push("bench.complete_p50_ms", quantile(&mut complete, 0.5), "ms");
        report.push("bench.complete_p95_ms", quantile(&mut complete, 0.95), "ms");
        report.push("bench.complete_samples", complete.len() as f64, "count");
        report.push("bench.recovery_samples", t.recovery_ms.len() as f64, "count");
        report.push(
            "bench.undelivered_ratio",
            ratio(report.failed as f64, report.attempted as f64),
            "ratio",
        );
        absent_layers(&mut report, &["udp."]);
        report.select(&PER_LAYER);
    } else {
        // One set-up per measured run, spread over the invocation, so the
        // median does not hang on the host's speed at one moment.
        let mut setups: Vec<f64> =
            runs.plain.iter().map(|(_, r)| r.setup_topology_s + r.setup_network_s).collect();
        report.push("setup_s", median(&mut setups), "s");
        report.push(
            "deliveries_per_s",
            runs.median_by_input(|r| r.delivered as f64 / r.timed_s),
            "1/s",
        );
        report.push("peak_rss_mb", procfs::peak_rss_mb(), "MB");
        let distinct: Vec<&SimRun> = runs.distinct().collect();
        let mut recovery: Vec<f64> =
            distinct.iter().flat_map(|r| r.recovery_ms.iter().copied()).collect();
        report.push("recovery_p50_ms", quantile(&mut recovery, 0.5), "ms");
        report.push("recovery_p99_ms", quantile(&mut recovery, 0.99), "ms");
        let buffer: f64 = distinct.iter().map(|r| r.buffer_mb_s).sum();
        report.push("buffer_mb_s", buffer / distinct.len() as f64, "MB.s");
        report.select(&END_TO_END);
    }
    report
}

/// Engine ns per event over the `run_until` spans of a traced run.
fn ns_per_event(run: &SimRun) -> f64 {
    let events = sim_counter("netsim.events");
    let (ns, ev) = run
        .tracer
        .named("run_until")
        .fold((0u64, 0u64), |(ns, ev), s| (ns + (s.end_ns - s.start_ns), ev + s.deltas[events]));
    ratio(ns as f64, ev as f64)
}

/// The scaling guard: engine ns per event of the `sim_scale` shape at
/// `members` over the same at one fifth, and the full size's longest
/// `run_until` call. Both shapes keep the single tail call.
fn scale_guard(report: &mut Report, members: usize, seed: u64) {
    let full = sim::run(&SimWorkload::sim_scale_with(members), seed, true);
    let small = sim::run(&SimWorkload::sim_scale_with(members / 5), seed, true);
    let longest = full.tracer.named("run_until").map(spans::Span::secs).fold(0.0, f64::max);
    let growth = ratio(ns_per_event(&full), ns_per_event(&small));
    report.push("netsim.ns_per_event_growth", growth, "ratio");
    report.push("netsim.scale_longest_call_s", longest, "s");
}

fn sim_layers(report: &mut Report, t: &SimRun, runs: &Runs<SimRun>) {
    let events = sim_counter("netsim.events");
    let calls: Vec<&spans::Span> = t.tracer.named("run_until").collect();
    let busy: f64 = calls.iter().map(|s| s.secs()).sum();
    let mut per_call: Vec<f64> = calls
        .iter()
        .filter(|s| s.deltas[events] > 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 / s.deltas[events] as f64)
        .collect();
    let n = &t.net;
    report.push("netsim.events", n.events_processed as f64, "count");
    report.push(
        "netsim.events_per_s",
        runs.median_by_input(|r| r.net.events_processed as f64 / r.run_until_s),
        "1/s",
    );
    report.push("netsim.unicasts_per_msg", n.unicasts_sent as f64 / t.messages as f64, "pkts");
    report.push("netsim.timers_fired", n.timers_fired as f64, "count");
    report.push("netsim.unicasts_sent", n.unicasts_sent as f64, "count");
    report.push("netsim.unicasts_dropped", n.unicasts_dropped as f64, "count");
    report.push("netsim.fanouts", n.fanouts as f64, "count");
    report.push("netsim.batched_deliveries", n.batched_deliveries as f64, "count");
    report.push("netsim.run_until_calls", calls.len() as f64, "count");
    report.push("netsim.run_until_s", busy, "s");
    report.push("netsim.ns_per_event", ns_per_event(t), "ns");
    report.push("netsim.longest_call_s", calls.iter().map(|s| s.secs()).fold(0.0, f64::max), "s");
    report.push("netsim.call_ns_per_event_p50", quantile(&mut per_call, 0.5), "ns");
    report.push("netsim.call_ns_per_event_p99", quantile(&mut per_call, 0.99), "ns");
    report.push("netsim.cpu_per_wall", ratio(t.run_until_cpu_s, t.run_until_s), "ratio");

    let c = &t.core;
    report.push("core.setup_topology_s", t.setup_topology_s, "s");
    report.push("core.setup_network_s", t.setup_network_s, "s");
    report.push("core.multicast_ns", median(&mut t.multicast_ns.clone()), "ns");
    for name in
        SIM_COUNTERS.iter().filter(|n| n.starts_with("core.") && **n != "core.requests_shed")
    {
        let v = t.counts_after[sim_counter(name)];
        report.push(name, v as f64, "count");
    }
    report.push(
        "core.duplicate_ratio",
        ratio(c.duplicates as f64, (c.delivered + c.duplicates) as f64),
        "ratio",
    );
    report.push("core.peak_entries_mean", t.peak_entries_mean, "entries");
    report.push("core.buffer_peak_max", t.buffer_peak_max as f64, "entries");
    let per_region_msg = c.long_term_kept as f64 / (t.regions * t.messages) as f64;
    report.push("core.long_term_per_region_msg", per_region_msg, "count");
    report.push("core.long_term_model_c", sim::target_c(), "count");
    report.push("core.long_term_diff", per_region_msg - sim::target_c(), "count");
    report.push("core.no_bufferer_share", t.no_bufferer_share, "ratio");
    report.push("core.no_bufferer_model", t.no_bufferer_model, "ratio");
    report.push("core.no_bufferer_diff", t.no_bufferer_share - t.no_bufferer_model, "ratio");
    report.push("bench.tracing_overhead", t.timed_s / runs.median_by_input(|r| r.timed_s), "ratio");
}

/// The metrics of the layers named by `prefixes`, on a workload that
/// never calls them (or, for `core` on `udp_stream`, cannot see their
/// counters): zero.
fn absent_layers(report: &mut Report, prefixes: &[&str]) {
    for &(name, unit) in PER_LAYER.iter().filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
    {
        report.push(name, 0.0, unit);
    }
}

/// Runs the `udp_stream` workload (or a resized copy of it) under `name`.
#[must_use]
pub fn run_udp(workload: &UdpWorkload, opts: Options, name: &str) -> Report {
    let runs = repeat(opts, |seed, t| udp::run(workload, seed, t));

    let mut report = Report::default();
    for r in runs.all() {
        report.attempted += r.expected;
        report.failed += r.expected - r.delivered;
        report.problems.extend(r.problems.iter().cloned());
        let failures = r.counts_end[udp_counter("udp.recv_failures")];
        report.check(failures == 0, || format!("{failures} sockets hit fatal receive failures"));
    }
    let delta = |r: &UdpRun, name: &str| {
        let i = udp_counter(name);
        (r.counts_end[i] - r.counts_start[i]) as f64
    };

    if let Some(t) = runs.traced.first() {
        if let Some((counter, sum, total)) = udp::unmeasured_counter(t) {
            report.problems.push(format!(
                "{counter}: timed spans account for {sum} of the phase's {total}; a change went unmeasured"
            ));
        }
        save_spans(&t.tracer, &spans_path(name, opts.seed), &UDP_COUNTERS);
        absent_layers(&mut report, &["netsim.", "core."]);
        for name in UDP_COUNTERS.iter().filter(|n| **n != "udp.pool_parked") {
            report.push(name, delta(t, name), "count");
        }
        report.push(
            "udp.deliveries_per_wakeup",
            ratio(t.timed_deliveries as f64, delta(t, "udp.poll_wakeups")),
            "ratio",
        );
        let hits = t.counts_end[udp_counter("udp.pool_hits")] as f64;
        let misses = t.counts_end[udp_counter("udp.pool_misses")] as f64;
        report.push("udp.pool_hit_rate", ratio(hits, hits + misses), "ratio");
        let acquires = delta(t, "udp.pool_hits") + delta(t, "udp.pool_misses");
        report.push("udp.steady_miss_rate", ratio(delta(t, "udp.pool_misses"), acquires), "ratio");
        report.push("udp.pool_high_water_mb", t.pool_high_water as f64 / MIB, "MB");
        let (user, sys) = t.loop_cpu_s;
        report.push("udp.loop_busy_ratio", ratio(user + sys, t.timed_s), "ratio");
        report.push("udp.loop_sys_share", ratio(sys, user + sys), "ratio");
        report.push("udp.multicast_call_ns", median(&mut t.multicast_ns.clone()), "ns");
        report.push("udp.app_drain_s", t.drain_s, "s");
        report.push(
            "bench.tracing_overhead",
            t.timed_s / runs.median_by_input(|r| r.timed_s),
            "ratio",
        );
        let mut complete_t = t.complete_ms.clone();
        report.push("bench.complete_p50_ms", quantile(&mut complete_t, 0.5), "ms");
        report.push("bench.complete_p95_ms", quantile(&mut complete_t, 0.95), "ms");
        report.push("bench.complete_samples", complete_t.len() as f64, "count");
        report.push("bench.recovery_samples", t.recovery_ms.len() as f64, "count");
        report.push(
            "bench.undelivered_ratio",
            ratio(report.failed as f64, report.attempted as f64),
            "ratio",
        );
        report.select(&PER_LAYER);
    } else {
        let mut setups: Vec<f64> = runs.plain.iter().map(|(_, r)| r.setup_s).collect();
        report.push("setup_s", median(&mut setups), "s");
        report.push(
            "deliveries_per_s",
            runs.median_by_input(|r| r.timed_deliveries as f64 / r.timed_s),
            "1/s",
        );
        report.push("peak_rss_mb", procfs::peak_rss_mb(), "MB");
        let mut recovery: Vec<f64> =
            runs.plain.iter().flat_map(|(_, r)| r.recovery_ms.iter().copied()).collect();
        report.push("recovery_p50_ms", quantile(&mut recovery, 0.5), "ms");
        report.push("recovery_p99_ms", quantile(&mut recovery, 0.99), "ms");
        report.push("buffer_mb_s", runs.median_by_input(|r| r.buffer_mb_s), "MB.s");
        report.select(&END_TO_END);
    }
    report
}
