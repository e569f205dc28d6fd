//! Golden-trace pinning for the default buffer policy.
//!
//! The fingerprints below were recorded from the receiver as it existed
//! **before** the pluggable buffer-policy refactor (the hard-wired
//! two-phase implementation). The default policy must keep reproducing
//! them bit for bit: every delivery time, every counter, every RNG draw.
//! A fingerprint change means the refactor altered observable protocol
//! behaviour — which the policy extraction explicitly must not.
//!
//! Every scenario runs at 1 and at 4 shards: the engine's traces are
//! byte-identical at every shard count, so both must give the same value.
//! `hierarchical_with_search` carries the one value recorded on the
//! windowed engine rather than on the single-queue engine the others
//! were first recorded on: the figure-1 chain has cross-region
//! same-instant ties, which the windowed engine resolves in canonical
//! mailbox merge order instead of global send order.

use rrmp_core::harness::RrmpNetwork;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId};

/// FNV-1a over the full observable outcome of a run: per-node delivery
/// traces in delivery order plus network counters and protocol totals.
fn fingerprint(net: &RrmpNetwork) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (id, node) in net.nodes() {
        mix(u64::from(id.0));
        for &(t, m) in node.delivered() {
            mix(t.as_micros());
            mix(u64::from(m.source.0));
            mix(m.seq.0);
        }
    }
    let c = net.net_counters();
    for v in [c.unicasts_sent, c.unicasts_dropped, c.timers_set, c.timers_fired, c.events_processed]
    {
        mix(v);
    }
    for v in [
        net.total_counter(|c| c.local_requests_sent),
        net.total_counter(|c| c.remote_requests_sent),
        net.total_counter(|c| c.repairs_sent_local + c.repairs_sent_remote),
        net.total_counter(|c| c.regional_multicasts_sent),
        net.total_counter(|c| c.handoffs_sent),
        net.total_counter(|c| c.idle_transitions),
        net.total_counter(|c| c.long_term_kept),
        net.total_counter(|c| c.discarded_at_idle),
        net.total_counter(|c| c.searches_started),
    ] {
        mix(v);
    }
    h
}

fn single_region_recovery(seed: u64, shards: usize) -> u64 {
    let mut net = RrmpNetwork::with_shards(
        presets::paper_region(40),
        ProtocolConfig::paper_defaults(),
        seed,
        shards,
    );
    let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
    net.multicast_with_plan(&b"golden-a"[..], &plan);
    net.run_until(SimTime::from_millis(400));
    let plan = DeliveryPlan::all_but(net.topology(), (20..30).map(NodeId));
    net.multicast_with_plan(&b"golden-b"[..], &plan);
    net.run_until(SimTime::from_secs(1));
    fingerprint(&net)
}

fn hierarchical_with_search(seed: u64, shards: usize) -> u64 {
    let topo = presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25));
    let mut net = RrmpNetwork::with_shards(topo, ProtocolConfig::paper_defaults(), seed, shards);
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.3, p_member: 0.1 });
    for _ in 0..4 {
        net.multicast(&b"golden-chain"[..]);
        let next = net.now() + SimDuration::from_millis(40);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(3));
    fingerprint(&net)
}

fn churn_with_handoffs(seed: u64, shards: usize) -> u64 {
    let cfg = ProtocolConfig::builder().c(1000.0).build().expect("valid config");
    let mut net = RrmpNetwork::with_shards(presets::paper_region(20), cfg, seed, shards);
    let plan = DeliveryPlan::all(net.topology());
    net.multicast_with_plan(&b"golden-churn"[..], &plan);
    net.run_until(SimTime::from_millis(200));
    net.schedule_leave(NodeId(3), SimTime::from_millis(250));
    net.schedule_crash(NodeId(9), SimTime::from_millis(300));
    net.run_until(SimTime::from_millis(600));
    fingerprint(&net)
}

fn sharded_lossy_stream(seed: u64, shards: usize) -> u64 {
    let topo = presets::region_tree(6, 2, 2, SimDuration::from_millis(25));
    let mut net = RrmpNetwork::with_shards(topo, ProtocolConfig::paper_defaults(), seed, shards);
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.3, p_member: 0.1 });
    net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
    for _ in 0..4 {
        net.multicast(&b"golden-sharded"[..]);
        let next = net.now() + SimDuration::from_millis(40);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(3));
    fingerprint(&net)
}

#[test]
fn default_policy_reproduces_pre_refactor_traces() {
    for shards in [1, 4] {
        assert_eq!(single_region_recovery(1, shards), 0x28c8_f709_a078_be13, "shards={shards}");
        assert_eq!(single_region_recovery(99, shards), 0x4f9f_1045_efdd_2ed8, "shards={shards}");
        assert_eq!(hierarchical_with_search(3, shards), 0x321c_ec29_564f_0f28, "shards={shards}");
        assert_eq!(churn_with_handoffs(8, shards), 0x4350_6263_84d1_4965, "shards={shards}");
    }
}

#[test]
fn default_policy_reproduces_pre_refactor_traces_sharded() {
    // The same fingerprint at every shard count: the sequential driver
    // and its parallel layouts both match the recorded behaviour.
    assert_eq!(sharded_lossy_stream(7, 1), 0xfb99_1cb2_03c0_874a);
    assert_eq!(sharded_lossy_stream(7, 4), 0xfb99_1cb2_03c0_874a);
}
