//! Deterministic hash-based bufferer selection — the authors' *previous*
//! scheme (Ozkasap, van Renesse, Birman, Xiao: "Efficient buffering in
//! reliable multicast protocols", NGC '99), which the paper's §1 and §3.4
//! compare against.
//!
//! Every member knows (an approximation of) the entire membership. For a
//! message `m`, the `k` members with the smallest `hash(member, m)` are
//! its designated bufferers; everyone can compute the set locally. A
//! member that misses `m` requests it directly from a randomly chosen
//! designated bufferer. The scheme needs no search traffic — but it is
//! topology-blind: requests routinely cross high-latency links, the
//! weakness that motivated RRMP's regional design.
//!
//! **Status**: this standalone stack is the *legacy differential oracle*.
//! The scheme now runs as a policy over the shared engine
//! ([`rrmp_core::policy::HashBufferers`], see [`crate::ported`]); the
//! `policy_differential` test asserts the ported policy reproduces this
//! implementation's [`RunReport`] metrics on identical seeds.

use std::collections::HashMap;

use bytes::Bytes;
use rrmp_core::buffer::MessageStore;
use rrmp_core::ids::{MessageId, SeqNo};
use rrmp_core::loss::LossDetector;
use rrmp_core::packet::DataPacket;
use rrmp_netsim::loss::DeliveryPlan;
use rrmp_netsim::shard::ShardedSim;
use rrmp_netsim::sim::{Ctx, SimNode};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{NodeId, Topology};

use crate::common::{mean_latency_ms, RunReport};

/// Wire messages of the hash-buffering baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashPacket {
    /// Initial multicast data.
    Data(DataPacket),
    /// Session advertisement from the sender.
    Session {
        /// The sender.
        source: NodeId,
        /// Highest sequence multicast.
        high: SeqNo,
    },
    /// Retransmission request sent directly to a designated bufferer.
    Request {
        /// The missing message.
        msg: MessageId,
    },
    /// Retransmission answer.
    Repair(DataPacket),
}

/// Configuration of the hash-buffering baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HashConfig {
    /// Designated bufferers per message.
    pub k: usize,
    /// Request retry timeout (should cover the worst-case RTT, since
    /// requests may cross regions).
    pub request_timeout: SimDuration,
    /// Retry cap before giving up.
    pub max_attempts: u32,
}

impl Default for HashConfig {
    fn default() -> Self {
        HashConfig { k: 6, request_timeout: SimDuration::from_millis(60), max_attempts: 200 }
    }
}

/// The `k` designated bufferers for `msg` among `members`. Canonical
/// implementation in [`rrmp_core::policy`], shared with the ported
/// [`HashBufferers`](rrmp_core::policy::HashBufferers) policy so both
/// protocol stacks always select the same sets.
pub use rrmp_core::policy::designated_bufferers;

/// One member of the hash-buffering baseline protocol.
#[derive(Debug)]
pub struct HashNode {
    id: NodeId,
    members: Vec<NodeId>,
    cfg: HashConfig,
    detector: LossDetector,
    store: MessageStore,
    delivered: Vec<(SimTime, MessageId)>,
    attempts: HashMap<MessageId, u32>,
    pending_timers: HashMap<u64, MessageId>,
    next_token: u64,
}

impl HashNode {
    /// Creates a member knowing the full group membership.
    #[must_use]
    pub fn new(id: NodeId, members: Vec<NodeId>, cfg: HashConfig) -> Self {
        HashNode {
            id,
            members,
            cfg,
            detector: LossDetector::new(),
            store: MessageStore::new(),
            delivered: Vec::new(),
            attempts: HashMap::new(),
            pending_timers: HashMap::new(),
            next_token: 0,
        }
    }

    /// Messages delivered here, with delivery times.
    #[must_use]
    pub fn delivered(&self) -> &[(SimTime, MessageId)] {
        &self.delivered
    }

    /// Whether `id` was delivered here.
    #[must_use]
    pub fn has_delivered(&self, id: MessageId) -> bool {
        self.delivered.iter().any(|&(_, d)| d == id)
    }

    /// The message store (occupancy instrumentation).
    #[must_use]
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    fn is_designated(&self, msg: MessageId) -> bool {
        designated_bufferers(&self.members, msg, self.cfg.k).contains(&self.id)
    }

    fn request_from_bufferer(&mut self, ctx: &mut Ctx<'_, HashPacket>, msg: MessageId) {
        let attempts = self.attempts.entry(msg).or_insert(0);
        *attempts += 1;
        if *attempts > self.cfg.max_attempts {
            return;
        }
        let bufferers = designated_bufferers(&self.members, msg, self.cfg.k);
        let candidates: Vec<NodeId> = bufferers.into_iter().filter(|&b| b != self.id).collect();
        if candidates.is_empty() {
            return;
        }
        use rand::Rng;
        let target = candidates[ctx.rng().gen_range(0..candidates.len())];
        ctx.send(target, HashPacket::Request { msg });
        let token = self.next_token;
        self.next_token += 1;
        self.pending_timers.insert(token, msg);
        ctx.set_timer(self.cfg.request_timeout, token);
    }

    fn on_data_like(&mut self, ctx: &mut Ctx<'_, HashPacket>, data: DataPacket) {
        let outcome = self.detector.on_data(data.id);
        if !outcome.newly_received {
            return;
        }
        self.delivered.push((ctx.now(), data.id));
        self.attempts.remove(&data.id);
        // Only designated members buffer; everyone else keeps nothing
        // beyond delivery (the NGC '99 design point).
        if self.is_designated(data.id) {
            self.store.insert_long(data.id, data.payload, ctx.now());
        }
        for m in outcome.newly_missing {
            self.request_from_bufferer(ctx, m);
        }
    }
}

impl SimNode for HashNode {
    type Msg = HashPacket;

    fn on_packet(&mut self, ctx: &mut Ctx<'_, HashPacket>, from: NodeId, msg: HashPacket) {
        match msg {
            HashPacket::Data(d) | HashPacket::Repair(d) => self.on_data_like(ctx, d),
            HashPacket::Session { source, high } => {
                for m in self.detector.on_session(source, high) {
                    self.request_from_bufferer(ctx, m);
                }
            }
            HashPacket::Request { msg } => {
                if let Some(payload) = self.store.get(msg) {
                    self.store.note_use(msg, ctx.now());
                    ctx.send(from, HashPacket::Repair(DataPacket::new(msg, payload)));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HashPacket>, token: u64) {
        if let Some(msg) = self.pending_timers.remove(&token) {
            if self.detector.is_missing(msg) {
                self.request_from_bufferer(ctx, msg);
            }
        }
    }
}

/// A simulated group running the hash-buffering baseline.
#[derive(Debug)]
pub struct HashNetwork {
    sim: ShardedSim<HashNode>,
    sender: NodeId,
    next_seq: SeqNo,
    sent_at: HashMap<MessageId, SimTime>,
}

impl HashNetwork {
    /// Builds the group over `topo` with node 0 as sender.
    #[must_use]
    pub fn new(topo: Topology, cfg: HashConfig, seed: u64) -> Self {
        let members: Vec<NodeId> = topo.nodes().collect();
        let nodes =
            topo.nodes().map(|id| HashNode::new(id, members.clone(), cfg.clone())).collect();
        let sim = ShardedSim::new(topo, nodes, seed, 1);
        HashNetwork { sim, sender: NodeId(0), next_seq: SeqNo::FIRST, sent_at: HashMap::new() }
    }

    /// The simulated topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Multicasts a payload with an explicit initial-delivery plan and
    /// advertises it to everyone via a session message (so missing members
    /// detect the loss immediately, matching the RRMP harness setup).
    pub fn multicast_with_plan(
        &mut self,
        payload: impl Into<Bytes>,
        plan: &DeliveryPlan,
    ) -> MessageId {
        let id = MessageId::new(self.sender, self.next_seq);
        self.next_seq = self.next_seq.next();
        let now = self.sim.now();
        self.sent_at.insert(id, now);
        let data = HashPacket::Data(DataPacket::new(id, payload.into()));
        let mut plan = plan.clone();
        plan.set_receives(self.sender, true);
        self.sim.inject(self.sender, self.sender, data.clone(), now);
        let mut without_sender = plan.clone();
        without_sender.set_receives(self.sender, false);
        self.sim.inject_multicast_plan(self.sender, &data, &without_sender, now);
        let session = HashPacket::Session { source: self.sender, high: id.seq };
        for n in self.sim.topology().nodes().collect::<Vec<_>>() {
            if !plan.receives(n) {
                self.sim.inject(n, self.sender, session.clone(), now);
            }
        }
        id
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Number of members that delivered `id`.
    #[must_use]
    pub fn delivered_count(&self, id: MessageId) -> usize {
        self.sim.nodes().filter(|(_, n)| n.has_delivered(id)).count()
    }

    /// Access to one node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &HashNode {
        self.sim.node(id)
    }

    /// Builds the comparison report over `ids` at time `now`.
    #[must_use]
    pub fn report(&self, ids: &[MessageId]) -> RunReport {
        let now = self.sim.now();
        let members = self.sim.topology().node_count();
        let fully =
            self.sim.nodes().filter(|(_, n)| ids.iter().all(|&m| n.has_delivered(m))).count();
        let byte_time_total: u128 =
            self.sim.nodes().map(|(_, n)| n.store().byte_time_integral(now)).sum();
        let peaks: Vec<usize> = self.sim.nodes().map(|(_, n)| n.store().peak_entries()).collect();
        let mut latencies = Vec::new();
        let mut residual = 0usize;
        for &id in ids {
            let sent = self.sent_at.get(&id).copied().unwrap_or(SimTime::ZERO);
            for (_, n) in self.sim.nodes() {
                match n.delivered().iter().find(|&&(_, d)| d == id) {
                    Some(&(at, _)) if at > sent => {
                        // Normalize to a per-message recovery duration.
                        latencies.push(SimTime::ZERO + (at - sent));
                    }
                    Some(_) => {}
                    None => residual += 1,
                }
            }
        }
        RunReport {
            scheme: "hash-determ",
            fully_delivered_members: fully,
            members,
            byte_time_total,
            peak_entries_max: peaks.iter().copied().max().unwrap_or(0),
            peak_entries_mean: peaks.iter().sum::<usize>() as f64 / peaks.len().max(1) as f64,
            packets_sent: self.sim.counters().unicasts_sent,
            mean_recovery_latency_ms: mean_latency_ms(&latencies, SimTime::ZERO),
            residual_losses: residual,
            // The legacy stacks have no give-up accounting or fault
            // layer: any residual pair counts as still pending.
            residual_gave_up: 0,
            residual_pending: residual,
            recovery_gave_up: 0,
            faults_dropped: 0,
            faults_duplicated: 0,
            watchdog_rearms: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrmp_netsim::topology::presets::paper_region;

    fn mid(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), SeqNo(seq))
    }

    #[test]
    fn designated_set_is_stable_and_sized() {
        let members: Vec<NodeId> = (0..100).map(NodeId).collect();
        let a = designated_bufferers(&members, mid(1), 6);
        let b = designated_bufferers(&members, mid(1), 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // Different messages select (almost surely) different sets.
        let c = designated_bufferers(&members, mid(2), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn load_spreads_across_messages() {
        // Over many messages, every member should be selected sometimes.
        let members: Vec<NodeId> = (0..20).map(NodeId).collect();
        let mut counts = vec![0usize; 20];
        for seq in 1..=400u64 {
            for b in designated_bufferers(&members, mid(seq), 4) {
                counts[b.index()] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "some member never selected: {counts:?}");
    }

    #[test]
    fn recovery_via_designated_bufferers() {
        let topo = paper_region(30);
        let mut net = HashNetwork::new(topo, HashConfig::default(), 3);
        // Half the group misses the message.
        let plan = DeliveryPlan::only(net.topology(), (0..15).map(NodeId));
        let id = net.multicast_with_plan(&b"x"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.delivered_count(id), 30);
        // Only designated members buffer it.
        let buffered = (0..30).filter(|&i| net.node(NodeId(i)).store().contains(id)).count();
        assert!(buffered <= 6, "non-designated members must not buffer: {buffered}");
    }

    #[test]
    fn unlucky_bufferer_outage_still_recovers_if_any_designated_received() {
        let topo = paper_region(30);
        let mut net = HashNetwork::new(topo, HashConfig { k: 3, ..Default::default() }, 4);
        // Suppose only node 0 (the sender) holds it initially; whichever
        // designated members exist will fetch it transitively? No: in this
        // baseline only designated members ever serve requests, and they
        // miss it too — they recover from each other/the sender only if a
        // designated member holds it. Make sender designated by brute
        // force: find a message whose designated set contains node 0.
        let members: Vec<NodeId> = (0..30).map(NodeId).collect();
        let mut seq = 1u64;
        while !designated_bufferers(&members, mid(seq), 3).contains(&NodeId(0)) {
            seq += 1;
        }
        // Send seq-1 filler messages delivered everywhere so sequence
        // numbers line up.
        for _ in 1..seq {
            let all = DeliveryPlan::all(net.topology());
            net.multicast_with_plan(&b"fill"[..], &all);
        }
        let plan = DeliveryPlan::only(net.topology(), [NodeId(0)]);
        let id = net.multicast_with_plan(&b"x"[..], &plan);
        assert_eq!(id, mid(seq));
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.delivered_count(id), 30, "recovery through designated sender");
    }

    #[test]
    fn report_counts_residuals() {
        let topo = paper_region(10);
        let mut net = HashNetwork::new(topo, HashConfig::default(), 5);
        let plan = DeliveryPlan::all(net.topology());
        let id = net.multicast_with_plan(&b"x"[..], &plan);
        net.run_until(SimTime::from_millis(100));
        let report = net.report(&[id]);
        assert_eq!(report.fully_delivered_members, 10);
        assert_eq!(report.residual_losses, 0);
        assert!(report.byte_time_total > 0);
    }
}
