//! Sender-based recovery — the strawman the field moved away from, and
//! the opening motivation of the paper's §1: "putting the responsibility
//! of error recovery entirely on the sender can lead to a message
//! implosion problem".
//!
//! Every receiver NACKs the original sender directly; the sender buffers
//! the whole session and answers every NACK itself. The implosion
//! measurement is the packet load concentrated at the sender, compared
//! with RRMP's spread-out recovery traffic.
//!
//! **Status**: this standalone stack is the *legacy differential oracle*.
//! The scheme now runs as a policy over the shared engine
//! ([`rrmp_core::policy::SenderBased`], see [`crate::ported`]); the
//! `policy_differential` test asserts the ported policy reproduces this
//! implementation's [`RunReport`] metrics on identical seeds.

use std::collections::HashMap;

use crate::common::{mean_latency_ms, RunReport};
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

/// Wire messages of the sender-based baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderBasedPacket {
    /// Initial multicast data.
    Data(DataPacket),
    /// Session advertisement.
    Session {
        /// The sender.
        source: NodeId,
        /// Highest sequence multicast.
        high: SeqNo,
    },
    /// Negative acknowledgment, always addressed to the sender.
    Nack {
        /// The missing message.
        msg: MessageId,
    },
    /// Retransmission from the sender.
    Repair(DataPacket),
}

/// Configuration of the sender-based baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderBasedConfig {
    /// NACK retry timeout (covers the RTT to the sender).
    pub nack_timeout: SimDuration,
    /// Retry cap.
    pub max_attempts: u32,
}

impl Default for SenderBasedConfig {
    fn default() -> Self {
        SenderBasedConfig { nack_timeout: SimDuration::from_millis(60), max_attempts: 200 }
    }
}

/// One member of the sender-based baseline.
#[derive(Debug)]
pub struct SenderBasedNode {
    id: NodeId,
    sender: NodeId,
    cfg: SenderBasedConfig,
    detector: LossDetector,
    store: MessageStore,
    delivered: Vec<(SimTime, MessageId)>,
    attempts: HashMap<MessageId, u32>,
    pending_timers: HashMap<u64, MessageId>,
    next_token: u64,
    /// Packets of any kind received by this node — the implosion metric.
    pub packets_received: u64,
}

impl SenderBasedNode {
    /// Creates a member; `sender` is the single recovery endpoint.
    #[must_use]
    pub fn new(id: NodeId, sender: NodeId, cfg: SenderBasedConfig) -> Self {
        SenderBasedNode {
            id,
            sender,
            cfg,
            detector: LossDetector::new(),
            store: MessageStore::new(),
            delivered: Vec::new(),
            attempts: HashMap::new(),
            pending_timers: HashMap::new(),
            next_token: 0,
            packets_received: 0,
        }
    }

    /// Messages delivered here.
    #[must_use]
    pub fn delivered(&self) -> &[(SimTime, MessageId)] {
        &self.delivered
    }

    /// Whether `id` was delivered here.
    #[must_use]
    pub fn has_delivered(&self, id: MessageId) -> bool {
        self.delivered.iter().any(|&(_, d)| d == id)
    }

    /// The message store (only the sender's is ever non-empty).
    #[must_use]
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    fn nack(&mut self, ctx: &mut Ctx<'_, SenderBasedPacket>, msg: MessageId) {
        if self.id == self.sender {
            return; // the sender cannot NACK itself
        }
        let attempts = self.attempts.entry(msg).or_insert(0);
        *attempts += 1;
        if *attempts > self.cfg.max_attempts {
            return;
        }
        ctx.send(self.sender, SenderBasedPacket::Nack { msg });
        let token = self.next_token;
        self.next_token += 1;
        self.pending_timers.insert(token, msg);
        ctx.set_timer(self.cfg.nack_timeout, token);
    }

    fn on_data_like(&mut self, ctx: &mut Ctx<'_, SenderBasedPacket>, data: DataPacket) {
        let outcome = self.detector.on_data(data.id);
        if !outcome.newly_received {
            return;
        }
        self.delivered.push((ctx.now(), data.id));
        self.attempts.remove(&data.id);
        if self.id == self.sender {
            self.store.insert_long(data.id, data.payload, ctx.now());
        }
        for m in outcome.newly_missing {
            self.nack(ctx, m);
        }
    }
}

impl SimNode for SenderBasedNode {
    type Msg = SenderBasedPacket;

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, SenderBasedPacket>,
        from: NodeId,
        msg: SenderBasedPacket,
    ) {
        self.packets_received += 1;
        match msg {
            SenderBasedPacket::Data(d) | SenderBasedPacket::Repair(d) => self.on_data_like(ctx, d),
            SenderBasedPacket::Session { source, high } => {
                for m in self.detector.on_session(source, high) {
                    self.nack(ctx, m);
                }
            }
            SenderBasedPacket::Nack { msg } => {
                if let Some(payload) = self.store.get(msg) {
                    self.store.note_use(msg, ctx.now());
                    ctx.send(from, SenderBasedPacket::Repair(DataPacket::new(msg, payload)));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SenderBasedPacket>, token: u64) {
        if let Some(msg) = self.pending_timers.remove(&token) {
            if self.detector.is_missing(msg) {
                self.nack(ctx, msg);
            }
        }
    }
}

/// A simulated group running sender-based recovery.
#[derive(Debug)]
pub struct SenderBasedNetwork {
    sim: ShardedSim<SenderBasedNode>,
    sender: NodeId,
    next_seq: SeqNo,
    sent_at: HashMap<MessageId, SimTime>,
}

impl SenderBasedNetwork {
    /// Builds the group over `topo` with node 0 as the sender.
    #[must_use]
    pub fn new(topo: Topology, cfg: SenderBasedConfig, seed: u64) -> Self {
        let nodes =
            topo.nodes().map(|id| SenderBasedNode::new(id, NodeId(0), cfg.clone())).collect();
        let sim = ShardedSim::new(topo, nodes, seed, 1);
        SenderBasedNetwork {
            sim,
            sender: NodeId(0),
            next_seq: SeqNo::FIRST,
            sent_at: HashMap::new(),
        }
    }

    /// The simulated topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Multicasts with an explicit plan (session advertised to missers so
    /// loss detection is immediate, as in the other harnesses).
    pub fn multicast_with_plan(
        &mut self,
        payload: impl Into<Bytes>,
        plan: &DeliveryPlan,
    ) -> MessageId {
        let id = MessageId::new(self.sender, self.next_seq);
        self.next_seq = self.next_seq.next();
        let now = self.sim.now();
        self.sent_at.insert(id, now);
        let data = SenderBasedPacket::Data(DataPacket::new(id, payload.into()));
        self.sim.inject(self.sender, self.sender, data.clone(), now);
        let mut without_sender = plan.clone();
        without_sender.set_receives(self.sender, false);
        self.sim.inject_multicast_plan(self.sender, &data, &without_sender, now);
        let session = SenderBasedPacket::Session { source: self.sender, high: id.seq };
        for n in self.sim.topology().nodes().collect::<Vec<_>>() {
            if !plan.receives(n) && n != self.sender {
                self.sim.inject(n, self.sender, session.clone(), now);
            }
        }
        id
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

    /// Packets received by the sender — the implosion hotspot.
    #[must_use]
    pub fn sender_load(&self) -> u64 {
        self.sim.node(self.sender).packets_received
    }

    /// The maximum packets received by any non-sender member.
    #[must_use]
    pub fn max_receiver_load(&self) -> u64 {
        self.sim
            .nodes()
            .filter(|(id, _)| *id != self.sender)
            .map(|(_, n)| n.packets_received)
            .max()
            .unwrap_or(0)
    }

    /// Access to one node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &SenderBasedNode {
        self.sim.node(id)
    }

    /// Builds the comparison report over `ids` (mirrors the other
    /// baselines' report builders; the differential oracle surface).
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
            scheme: "sender-based",
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

    #[test]
    fn recovers_through_the_sender() {
        let topo = paper_region(30);
        let mut net = SenderBasedNetwork::new(topo, SenderBasedConfig::default(), 1);
        let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
        let id = net.multicast_with_plan(&b"x"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.delivered_count(id), 30);
        // Only the sender buffers.
        assert!(net.node(NodeId(0)).store().contains(id));
        assert!((1..30).all(|i| !net.node(NodeId(i)).store().contains(id)));
    }

    #[test]
    fn nack_implosion_concentrates_on_sender() {
        let topo = paper_region(60);
        let mut net = SenderBasedNetwork::new(topo, SenderBasedConfig::default(), 2);
        // Everyone except the sender misses it: 59 simultaneous NACKs.
        let plan = DeliveryPlan::only(net.topology(), [NodeId(0)]);
        let id = net.multicast_with_plan(&b"x"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.delivered_count(id), 60);
        let sender_load = net.sender_load();
        let max_other = net.max_receiver_load();
        assert!(sender_load >= 59, "sender should absorb all NACKs: {sender_load}");
        assert!(
            sender_load > 10 * max_other.max(1),
            "implosion: sender {sender_load} vs max receiver {max_other}"
        );
    }

    #[test]
    fn sender_never_nacks_itself() {
        let topo = paper_region(5);
        let mut net = SenderBasedNetwork::new(topo, SenderBasedConfig::default(), 3);
        let plan = DeliveryPlan::all(net.topology());
        net.multicast_with_plan(&b"x"[..], &plan);
        net.run_until(SimTime::from_millis(200));
        // No NACK traffic at all in a lossless run.
        assert_eq!(net.sender_load(), 1, "only its own injected copy");
    }
}
