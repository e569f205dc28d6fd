//! The simulator workloads, `sim_scale` and `sim_recovery`.
//!
//! Both build their group through `RrmpNetwork::with_shards_placement`
//! and inject every multicast with `multicast_with_plan`, the plans drawn
//! from the seed by `DeliveryPlan::from_model` before the clock starts,
//! so the benchmark knows exactly which members missed each initial
//! copy. Every report is computed from `RrmpNode` and `Receiver`
//! accessors after the run. Latencies here are simulated time; rates and
//! set-up are host wall time.

use std::collections::HashMap;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrmp_core::prelude::{Counters, MessageId, ProtocolConfig, RrmpNetwork};
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::shard::ShardPlacement;
use rrmp_netsim::sim::NetCounters;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, RegionId, Topology, TopologyBuilder};

use crate::spans::Tracer;
use crate::{procfs, MIB, PAYLOAD_BYTES};

/// Region-size cycle of the `members_scale` shape: a few large "campus"
/// regions over a long tail of small sites, every region a child of the
/// sender's.
pub const SCALE_REGION_SIZES: [usize; 8] = [4096, 1024, 1024, 256, 64, 64, 64, 64];

/// One-way latency between regions, in both simulator workloads.
const INTER_REGION_MS: u64 = 25;

/// The group's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `members` members laid out by cycling [`SCALE_REGION_SIZES`].
    ScaleCycle {
        /// Total members.
        members: usize,
    },
    /// A balanced region tree: `fanout` children per region, `depth`
    /// levels below the root, `region_size` members each.
    Tree {
        /// Members per region.
        region_size: usize,
        /// Children per region.
        fanout: usize,
        /// Levels below the root region.
        depth: usize,
    },
}

/// How the run continues after the last multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// One `run_until` call to the horizon.
    OneCall {
        /// The horizon, in simulated time from the first send.
        horizon: SimTime,
    },
    /// `count` calls of `step` each.
    Steps {
        /// Number of calls.
        count: usize,
        /// Simulated time per call.
        step: SimDuration,
    },
}

/// A simulator workload: topology, engine, traffic and run pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct SimWorkload {
    /// The group's topology.
    pub shape: Shape,
    /// Shard count of the sharded engine (1 runs inline, no threads).
    pub shards: usize,
    /// Multicasts sent.
    pub messages: usize,
    /// Simulated time between multicasts; one `run_until` call each.
    pub gap: SimDuration,
    /// Loss model the initial-copy plans are drawn from.
    pub loss: LossModel,
    /// The run after the last multicast.
    pub tail: Tail,
}

impl SimWorkload {
    /// `sim_scale`: about 100k members on 2 shards, 2 lossy multicasts
    /// 40 ms apart, then one `run_until` call to the 340 ms horizon.
    #[must_use]
    pub fn sim_scale() -> Self {
        Self::sim_scale_with(100_000)
    }

    /// The `sim_scale` pattern over `members` members.
    #[must_use]
    pub fn sim_scale_with(members: usize) -> Self {
        SimWorkload {
            shape: Shape::ScaleCycle { members },
            shards: 2,
            messages: 2,
            gap: SimDuration::from_millis(40),
            loss: LossModel::RegionCorrelated { p_region: 0.05, p_member: 0.01 },
            tail: Tail::OneCall { horizon: SimTime::from_millis(340) },
        }
    }

    /// `sim_recovery`: 15 regions × 100 members in a binary region tree
    /// on 1 inline shard, 200 × 1 KiB multicasts 10 ms apart under
    /// region-correlated loss, then a 3 s tail of 10 ms calls.
    #[must_use]
    pub fn sim_recovery() -> Self {
        SimWorkload {
            shape: Shape::Tree { region_size: 100, fanout: 2, depth: 3 },
            shards: 1,
            messages: 200,
            gap: SimDuration::from_millis(10),
            loss: LossModel::RegionCorrelated { p_region: 0.2, p_member: 0.1 },
            tail: Tail::Steps { count: 300, step: SimDuration::from_millis(10) },
        }
    }

    /// The topology of this workload.
    #[must_use]
    pub fn topology(&self) -> Topology {
        let inter = SimDuration::from_millis(INTER_REGION_MS);
        match self.shape {
            Shape::ScaleCycle { members } => {
                let mut builder = TopologyBuilder::new().inter_region_one_way(inter);
                let mut placed = 0usize;
                let mut i = 0usize;
                while placed < members {
                    let size =
                        SCALE_REGION_SIZES[i % SCALE_REGION_SIZES.len()].min(members - placed);
                    builder = builder.region(size, if i == 0 { None } else { Some(0) });
                    placed += size;
                    i += 1;
                }
                builder.build().expect("the scale cycle is a valid topology")
            }
            Shape::Tree { region_size, fanout, depth } => {
                presets::region_tree(region_size, fanout, depth, inter)
            }
        }
    }

    fn config() -> ProtocolConfig {
        let mut cfg = ProtocolConfig::paper_defaults();
        // The per-node protocol event log is a debugging aid; it does not
        // change the run, and at scale it would dominate memory.
        cfg.record_events = false;
        cfg
    }

    /// Builds the topology and the network from `seed`: the set-up the
    /// benchmark times. Returns the network and the two set-up times.
    pub fn build(&self, seed: u64, tracer: &mut Tracer) -> (RrmpNetwork, f64, f64) {
        let t0 = Instant::now();
        let topo = tracer.span("core", "topology_build", || self.topology());
        let topo_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let net = tracer.span("core", "network_build", || {
            RrmpNetwork::with_shards_placement(
                topo,
                Self::config(),
                seed,
                self.shards,
                ShardPlacement::default(),
            )
        });
        (net, topo_s, t1.elapsed().as_secs_f64())
    }

    /// The initial-copy plan of every message, drawn from `seed`.
    #[must_use]
    pub fn plans(&self, topo: &Topology, seed: u64) -> Vec<DeliveryPlan> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        (0..self.messages)
            .map(|_| DeliveryPlan::from_model(topo, NodeId(0), &self.loss, &mut rng))
            .collect()
    }
}

/// Names of the counters the sim spans read: the engine's
/// [`NetCounters`], then the receivers' [`Counters`] summed over members.
pub const SIM_COUNTERS: [&str; 25] = [
    "netsim.unicasts_sent",
    "netsim.unicasts_dropped",
    "netsim.delivered",
    "netsim.timers_set",
    "netsim.timers_fired",
    "netsim.events",
    "netsim.fanouts",
    "netsim.batched_deliveries",
    "netsim.faults_dropped",
    "netsim.faults_duplicated",
    "core.delivered",
    "core.duplicates",
    "core.local_requests_sent",
    "core.remote_requests_sent",
    "core.repairs_sent_local",
    "core.repairs_sent_remote",
    "core.regional_multicasts_sent",
    "core.regional_multicasts_suppressed",
    "core.searches_started",
    "core.search_forwards",
    "core.idle_transitions",
    "core.long_term_kept",
    "core.discarded_at_idle",
    "core.recovery_gave_up",
    "core.requests_shed",
];

/// Index of `name` in [`SIM_COUNTERS`].
///
/// # Panics
///
/// Panics if `name` is not a sim counter.
#[must_use]
pub fn sim_counter(name: &str) -> usize {
    SIM_COUNTERS.iter().position(|&n| n == name).expect("a SIM_COUNTERS name")
}

/// The receivers' counters summed over every member.
#[must_use]
pub fn core_totals(net: &RrmpNetwork) -> Counters {
    let mut t = Counters::default();
    for (_, node) in net.nodes() {
        let c = &node.receiver().metrics().counters;
        t.delivered += c.delivered;
        t.duplicates += c.duplicates;
        t.local_requests_sent += c.local_requests_sent;
        t.remote_requests_sent += c.remote_requests_sent;
        t.repairs_sent_local += c.repairs_sent_local;
        t.repairs_sent_remote += c.repairs_sent_remote;
        t.regional_multicasts_sent += c.regional_multicasts_sent;
        t.regional_multicasts_suppressed += c.regional_multicasts_suppressed;
        t.searches_started += c.searches_started;
        t.search_forwards += c.search_forwards;
        t.idle_transitions += c.idle_transitions;
        t.long_term_kept += c.long_term_kept;
        t.discarded_at_idle += c.discarded_at_idle;
        t.recovery_gave_up += c.recovery_gave_up;
        t.requests_shed += c.requests_shed;
    }
    t
}

/// The values of [`SIM_COUNTERS`] now.
#[must_use]
pub fn sim_counts(net: &RrmpNetwork) -> Vec<u64> {
    let n = net.net_counters();
    let c = core_totals(net);
    vec![
        n.unicasts_sent,
        n.unicasts_dropped,
        n.delivered,
        n.timers_set,
        n.timers_fired,
        n.events_processed,
        n.fanouts,
        n.batched_deliveries,
        n.faults_dropped,
        n.faults_duplicated,
        c.delivered,
        c.duplicates,
        c.local_requests_sent,
        c.remote_requests_sent,
        c.repairs_sent_local,
        c.repairs_sent_remote,
        c.regional_multicasts_sent,
        c.regional_multicasts_suppressed,
        c.searches_started,
        c.search_forwards,
        c.idle_transitions,
        c.long_term_kept,
        c.discarded_at_idle,
        c.recovery_gave_up,
        c.requests_shed,
    ]
}

/// Everything one run of a simulator workload measured.
#[derive(Debug)]
pub struct SimRun {
    /// Topology build, wall seconds.
    pub setup_topology_s: f64,
    /// Network build, wall seconds.
    pub setup_network_s: f64,
    /// First multicast to the return of the last `run_until`, wall seconds.
    pub timed_s: f64,
    /// Wall seconds inside `run_until`.
    pub run_until_s: f64,
    /// Process CPU seconds inside `run_until` (traced runs only).
    pub run_until_cpu_s: f64,
    /// Engine counters at the end.
    pub net: NetCounters,
    /// Receiver counters summed over members at the end.
    pub core: Counters,
    /// Expected (member, message) deliveries: every member but the
    /// sender, every message.
    pub expected: u64,
    /// Expected deliveries that happened.
    pub delivered: u64,
    /// Output problems found (duplicate or unknown deliveries, counter
    /// mismatches).
    pub problems: Vec<String>,
    /// Send → delivery, simulated ms, of pairs that missed the initial copy.
    pub recovery_ms: Vec<f64>,
    /// Send → last initial-copy member delivered, simulated ms, per message.
    pub complete_ms: Vec<f64>,
    /// Σ over members of the store's byte×time integral, MiB·s simulated.
    pub buffer_mb_s: f64,
    /// Max over members of the store's peak entry count.
    pub buffer_peak_max: u64,
    /// Mean over members of the store's peak entry count.
    pub peak_entries_mean: f64,
    /// Regions in the topology.
    pub regions: usize,
    /// Messages sent.
    pub messages: usize,
    /// Share of (region, message) pairs where no member kept the message
    /// long-term.
    pub no_bufferer_share: f64,
    /// The analytic no-bufferer probability averaged over the regions.
    pub no_bufferer_model: f64,
    /// Wall ns per `multicast_with_plan` call.
    pub multicast_ns: Vec<f64>,
    /// Digest of every simulated outcome; equal for equal seeds.
    pub fingerprint: u64,
    /// The spans (empty unless traced).
    pub tracer: Tracer,
    /// [`SIM_COUNTERS`] before the first multicast (traced runs only).
    pub counts_before: Vec<u64>,
    /// [`SIM_COUNTERS`] at the end (traced runs only).
    pub counts_after: Vec<u64>,
}

/// FNV-1a over 64-bit words: the run's outcome digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs `workload` once from `seed`, spans recorded if `traced`.
#[must_use]
pub fn run(workload: &SimWorkload, seed: u64, traced: bool) -> SimRun {
    let mut tracer = Tracer::new(traced);
    tracer.begin("setup");
    let (mut net, setup_topology_s, setup_network_s) = workload.build(seed, &mut tracer);
    tracer.end();
    let plans = workload.plans(net.topology(), seed);
    let payloads: Vec<Bytes> = (0..workload.messages)
        .map(|i| Bytes::from(vec![(i as u8) ^ (seed as u8); PAYLOAD_BYTES]))
        .collect();
    let counts_before = if traced { sim_counts(&net) } else { Vec::new() };

    let mut ids = Vec::with_capacity(workload.messages);
    let mut sent_at = Vec::with_capacity(workload.messages);
    let mut multicast_ns = Vec::with_capacity(workload.messages);
    let mut run_until_s = 0.0;
    let mut run_until_cpu_s = 0.0;
    let mut advance = |net: &mut RrmpNetwork, tracer: &mut Tracer, to: SimTime| {
        let cpu0 = if traced { procfs::process_cpu_s() } else { 0.0 };
        let t = Instant::now();
        tracer.call("netsim", "run_until", net, sim_counts, |net| net.run_until(to));
        run_until_s += t.elapsed().as_secs_f64();
        if traced {
            run_until_cpu_s += procfs::process_cpu_s() - cpu0;
        }
    };

    tracer.begin("timed");
    let start = Instant::now();
    for (i, (plan, payload)) in plans.iter().zip(&payloads).enumerate() {
        sent_at.push(net.now());
        let t = Instant::now();
        let id = tracer.call("core", "multicast_with_plan", &mut net, sim_counts, |net| {
            net.multicast_with_plan(payload.clone(), plan)
        });
        multicast_ns.push(t.elapsed().as_nanos() as f64);
        ids.push(id);
        if i + 1 < workload.messages {
            let to = net.now() + workload.gap;
            advance(&mut net, &mut tracer, to);
        }
    }
    match workload.tail {
        Tail::OneCall { horizon } => advance(&mut net, &mut tracer, horizon),
        Tail::Steps { count, step } => {
            for _ in 0..count {
                let to = net.now() + step;
                advance(&mut net, &mut tracer, to);
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    tracer.end();

    let mut out = SimRun {
        setup_topology_s,
        setup_network_s,
        timed_s,
        run_until_s,
        run_until_cpu_s,
        net: net.net_counters(),
        core: core_totals(&net),
        expected: 0,
        delivered: 0,
        problems: Vec::new(),
        recovery_ms: Vec::new(),
        complete_ms: vec![0.0; workload.messages],
        buffer_mb_s: 0.0,
        buffer_peak_max: 0,
        peak_entries_mean: 0.0,
        regions: net.topology().region_count(),
        messages: workload.messages,
        no_bufferer_share: 0.0,
        no_bufferer_model: 0.0,
        multicast_ns,
        fingerprint: 0,
        counts_after: if traced { sim_counts(&net) } else { Vec::new() },
        tracer,
        counts_before,
    };
    account(&net, &plans, &ids, &sent_at, &mut out);
    out
}

/// Checks every member's deliveries against the plans and fills in the
/// latency, buffering and model-accuracy figures of `out`.
fn account(
    net: &RrmpNetwork,
    plans: &[DeliveryPlan],
    ids: &[MessageId],
    sent_at: &[SimTime],
    out: &mut SimRun,
) {
    let index: HashMap<MessageId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let sender = net.sender_node();
    let now = net.now();
    let topo = net.topology();
    let mut seen = vec![false; ids.len()];
    let mut logged_deliveries = 0u64;
    let mut byte_time: u128 = 0;
    let mut peak_sum = 0u64;
    // (region, message) pairs where some member kept the message long-term.
    let mut kept = vec![false; topo.region_count() * ids.len()];
    for (node, n) in net.nodes() {
        let store = n.receiver().store();
        byte_time += store.byte_time_integral(now);
        let peak = store.peak_entries() as u64;
        peak_sum += peak;
        out.buffer_peak_max = out.buffer_peak_max.max(peak);
        let region = topo.region_of(node).index();
        for (m, &id) in ids.iter().enumerate() {
            if n.receiver().metrics().buffer_record(id).is_some_and(|r| r.kept_long_term) {
                kept[region * ids.len() + m] = true;
            }
        }
        logged_deliveries += n.delivered().len() as u64;
        if node == sender {
            continue;
        }
        seen.iter_mut().for_each(|s| *s = false);
        for &(at, id) in n.delivered() {
            let Some(&m) = index.get(&id) else {
                out.problems.push(format!("{node} delivered unknown message {id:?}"));
                continue;
            };
            if std::mem::replace(&mut seen[m], true) {
                out.problems.push(format!("{node} delivered message {m} twice"));
                continue;
            }
            out.delivered += 1;
            let ms = at.saturating_since(sent_at[m]).as_micros() as f64 / 1e3;
            if plans[m].receives(node) {
                out.complete_ms[m] = out.complete_ms[m].max(ms);
            } else {
                out.recovery_ms.push(ms);
            }
        }
        out.expected += ids.len() as u64;
    }
    if logged_deliveries != out.core.delivered {
        out.problems.push(format!(
            "delivery logs hold {logged_deliveries} entries but receivers count {} deliveries",
            out.core.delivered
        ));
    }
    out.buffer_mb_s = byte_time as f64 / MIB / 1e6;
    out.peak_entries_mean = peak_sum as f64 / topo.node_count() as f64;
    out.no_bufferer_share = kept.iter().filter(|&&k| !k).count() as f64 / kept.len() as f64;
    out.no_bufferer_model = (0..topo.region_count())
        .map(|r| {
            let n = topo.members_of(RegionId(r as u16)).len();
            rrmp_analysis::models::no_bufferer_probability_exact(n, target_c())
        })
        .sum::<f64>()
        / topo.region_count() as f64;

    let mut d = Digest::new();
    for w in sim_counts(net) {
        d.word(w);
    }
    d.word(byte_time as u64);
    d.word((byte_time >> 64) as u64);
    d.word(out.buffer_peak_max);
    d.word(peak_sum);
    for &ms in out.recovery_ms.iter().chain(&out.complete_ms) {
        d.word(ms.to_bits());
    }
    for &k in &kept {
        d.word(u64::from(k));
    }
    out.fingerprint = d.0;
}

/// The long-term bufferer target C of the workloads' configuration.
#[must_use]
pub fn target_c() -> f64 {
    SimWorkload::config().c
}

/// Span counter totals over the timed phase against the counters' change
/// from before the first multicast to the end: equal when every call that
/// moves a counter was traced. Returns the first mismatch.
#[must_use]
pub fn unmeasured_counter(run: &SimRun) -> Option<(&'static str, u64, u64)> {
    run.tracer.unmeasured("timed", &SIM_COUNTERS, &run.counts_before, &run.counts_after)
}
