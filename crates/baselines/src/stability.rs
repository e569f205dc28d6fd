//! Stability-detection buffering (Guo & Rhee, INFOCOM 2000 style) — the
//! class of protocols the paper's §1/§6 contrasts with: every member
//! buffers every message until it is *stable* (received by all members),
//! learned by periodically exchanging message-history (ACK) vectors.
//!
//! Costs the paper highlights: periodic history traffic even when nothing
//! is lost, full-group membership knowledge, and buffers that drain only
//! at the pace of the slowest member.

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

/// Wire messages of the stability-detection baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StabilityPacket {
    /// Initial multicast data.
    Data(DataPacket),
    /// Session advertisement from the sender.
    Session {
        /// The sender.
        source: NodeId,
        /// Highest sequence multicast.
        high: SeqNo,
    },
    /// Retransmission request to a random member.
    Request {
        /// The missing message.
        msg: MessageId,
    },
    /// Retransmission answer.
    Repair(DataPacket),
    /// Periodic history exchange: the sender-side contiguous ACK.
    History {
        /// The advertising member's contiguous-receipt watermark.
        ack: SeqNo,
    },
}

/// Configuration of the stability-detection baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityConfig {
    /// How often each member broadcasts its history vector.
    pub history_interval: SimDuration,
    /// Local request retry timeout.
    pub request_timeout: SimDuration,
    /// Retry cap.
    pub max_attempts: u32,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig {
            history_interval: SimDuration::from_millis(100),
            request_timeout: SimDuration::from_millis(10),
            max_attempts: 200,
        }
    }
}

const HISTORY_TICK: u64 = u64::MAX;

/// One member of the stability-detection baseline.
#[derive(Debug)]
pub struct StabilityNode {
    id: NodeId,
    members: Vec<NodeId>,
    source: NodeId,
    cfg: StabilityConfig,
    detector: LossDetector,
    store: MessageStore,
    delivered: Vec<(SimTime, MessageId)>,
    acks: HashMap<NodeId, SeqNo>,
    attempts: HashMap<MessageId, u32>,
    pending_timers: HashMap<u64, MessageId>,
    next_token: u64,
    /// History packets sent (the overhead RRMP avoids).
    pub history_sent: u64,
}

impl StabilityNode {
    /// Creates a member knowing the full group membership and the sender.
    #[must_use]
    pub fn new(id: NodeId, members: Vec<NodeId>, source: NodeId, cfg: StabilityConfig) -> Self {
        StabilityNode {
            id,
            members,
            source,
            cfg,
            detector: LossDetector::new(),
            store: MessageStore::new(),
            delivered: Vec::new(),
            acks: HashMap::new(),
            attempts: HashMap::new(),
            pending_timers: HashMap::new(),
            next_token: 0,
            history_sent: 0,
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

    /// The message store.
    #[must_use]
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    /// The stable watermark: the minimum ACK over every member (0 until
    /// all members have been heard from).
    #[must_use]
    pub fn stable_watermark(&self) -> SeqNo {
        let mut min = self.detector.contiguous_received(self.source);
        for m in &self.members {
            if *m == self.id {
                continue;
            }
            match self.acks.get(m) {
                Some(&a) => min = min.min(a),
                None => return SeqNo::NONE,
            }
        }
        min
    }

    fn discard_stable(&mut self, now: SimTime) {
        let stable = self.stable_watermark();
        if stable == SeqNo::NONE {
            return;
        }
        let to_discard: Vec<MessageId> = self
            .store
            .iter()
            .filter(|(id, _)| id.source == self.source && id.seq <= stable)
            .map(|(&id, _)| id)
            .collect();
        for id in to_discard {
            self.store.discard(id, now);
        }
    }

    fn request_random(&mut self, ctx: &mut Ctx<'_, StabilityPacket>, msg: MessageId) {
        let attempts = self.attempts.entry(msg).or_insert(0);
        *attempts += 1;
        if *attempts > self.cfg.max_attempts {
            return;
        }
        use rand::Rng;
        let candidates: Vec<NodeId> =
            self.members.iter().copied().filter(|&m| m != self.id).collect();
        if candidates.is_empty() {
            return;
        }
        let target = candidates[ctx.rng().gen_range(0..candidates.len())];
        ctx.send(target, StabilityPacket::Request { msg });
        let token = self.next_token;
        self.next_token += 1;
        self.pending_timers.insert(token, msg);
        ctx.set_timer(self.cfg.request_timeout, token);
    }

    fn on_data_like(&mut self, ctx: &mut Ctx<'_, StabilityPacket>, data: DataPacket) {
        let outcome = self.detector.on_data(data.id);
        if !outcome.newly_received {
            return;
        }
        self.delivered.push((ctx.now(), data.id));
        self.attempts.remove(&data.id);
        // Everyone buffers everything until stability.
        self.store.insert_long(data.id, data.payload, ctx.now());
        for m in outcome.newly_missing {
            self.request_random(ctx, m);
        }
    }
}

impl SimNode for StabilityNode {
    type Msg = StabilityPacket;

    fn on_start(&mut self, ctx: &mut Ctx<'_, StabilityPacket>) {
        ctx.set_timer(self.cfg.history_interval, HISTORY_TICK);
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_, StabilityPacket>,
        from: NodeId,
        msg: StabilityPacket,
    ) {
        match msg {
            StabilityPacket::Data(d) | StabilityPacket::Repair(d) => self.on_data_like(ctx, d),
            StabilityPacket::Session { source, high } => {
                for m in self.detector.on_session(source, high) {
                    self.request_random(ctx, m);
                }
            }
            StabilityPacket::Request { msg } => {
                if let Some(payload) = self.store.get(msg) {
                    ctx.send(from, StabilityPacket::Repair(DataPacket::new(msg, payload)));
                }
            }
            StabilityPacket::History { ack } => {
                let entry = self.acks.entry(from).or_insert(SeqNo::NONE);
                *entry = (*entry).max(ack);
                self.discard_stable(ctx.now());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StabilityPacket>, token: u64) {
        if token == HISTORY_TICK {
            let ack = self.detector.contiguous_received(self.source);
            let others: Vec<NodeId> =
                self.members.iter().copied().filter(|&m| m != self.id).collect();
            self.history_sent += others.len() as u64;
            ctx.send_many(others, StabilityPacket::History { ack });
            ctx.set_timer(self.cfg.history_interval, HISTORY_TICK);
            return;
        }
        if let Some(msg) = self.pending_timers.remove(&token) {
            if self.detector.is_missing(msg) {
                self.request_random(ctx, msg);
            }
        }
    }
}

/// A simulated group running stability-detection buffering.
#[derive(Debug)]
pub struct StabilityNetwork {
    sim: ShardedSim<StabilityNode>,
    sender: NodeId,
    next_seq: SeqNo,
    sent_at: HashMap<MessageId, SimTime>,
}

impl StabilityNetwork {
    /// Builds the group over `topo` with node 0 as sender.
    #[must_use]
    pub fn new(topo: Topology, cfg: StabilityConfig, seed: u64) -> Self {
        let members: Vec<NodeId> = topo.nodes().collect();
        let nodes = topo
            .nodes()
            .map(|id| StabilityNode::new(id, members.clone(), NodeId(0), cfg.clone()))
            .collect();
        let sim = ShardedSim::new(topo, nodes, seed, 1);
        StabilityNetwork { sim, sender: NodeId(0), next_seq: SeqNo::FIRST, sent_at: HashMap::new() }
    }

    /// The simulated topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Multicasts with an explicit plan (see the RRMP harness for the
    /// session-advertisement convention).
    pub fn multicast_with_plan(
        &mut self,
        payload: impl Into<Bytes>,
        plan: &DeliveryPlan,
    ) -> MessageId {
        let id = MessageId::new(self.sender, self.next_seq);
        self.next_seq = self.next_seq.next();
        let now = self.sim.now();
        self.sent_at.insert(id, now);
        let data = StabilityPacket::Data(DataPacket::new(id, payload.into()));
        self.sim.inject(self.sender, self.sender, data.clone(), now);
        let mut without_sender = plan.clone();
        without_sender.set_receives(self.sender, false);
        self.sim.inject_multicast_plan(self.sender, &data, &without_sender, now);
        let session = StabilityPacket::Session { source: self.sender, high: id.seq };
        for n in self.sim.topology().nodes().collect::<Vec<_>>() {
            if !plan.receives(n) && n != self.sender {
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

    /// Number of members still buffering `id`.
    #[must_use]
    pub fn buffered_count(&self, id: MessageId) -> usize {
        self.sim.nodes().filter(|(_, n)| n.store().contains(id)).count()
    }

    /// Total history packets sent so far (the standing overhead).
    #[must_use]
    pub fn history_packets(&self) -> u64 {
        self.sim.nodes().map(|(_, n)| n.history_sent).sum()
    }

    /// Access to one node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &StabilityNode {
        self.sim.node(id)
    }

    /// Builds the comparison report over `ids`.
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
                    // Normalize to a per-message recovery duration.
                    Some(&(at, _)) if at > sent => latencies.push(SimTime::ZERO + (at - sent)),
                    Some(_) => {}
                    None => residual += 1,
                }
            }
        }
        RunReport {
            scheme: "stability",
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
    fn everyone_buffers_until_stable_then_discards() {
        let topo = paper_region(10);
        let mut net = StabilityNetwork::new(topo, StabilityConfig::default(), 1);
        let plan = DeliveryPlan::all(net.topology());
        let id = net.multicast_with_plan(&b"m"[..], &plan);
        net.run_until(SimTime::from_millis(50));
        // Before a full history round completes, everyone buffers.
        assert_eq!(net.buffered_count(id), 10);
        // After a couple of history intervals, stability is detected and
        // buffers drain everywhere.
        net.run_until(SimTime::from_millis(500));
        assert_eq!(net.buffered_count(id), 0, "stable message should be discarded");
        assert_eq!(net.delivered_count(id), 10);
    }

    #[test]
    fn unstable_message_is_retained() {
        let topo = paper_region(10);
        let cfg = StabilityConfig {
            max_attempts: 1, // cripple recovery so the message stays unstable
            ..StabilityConfig::default()
        };
        let mut net = StabilityNetwork::new(topo, cfg, 2);
        // Node 9 misses it; with recovery crippled it may stay missing.
        let plan = DeliveryPlan::all_but(net.topology(), [NodeId(9)]);
        let id = net.multicast_with_plan(&b"m"[..], &plan);
        net.run_until(SimTime::from_millis(80));
        if net.delivered_count(id) < 10 {
            // As long as one member misses it, nobody discards.
            assert_eq!(net.buffered_count(id), net.delivered_count(id));
        }
    }

    #[test]
    fn recovery_then_stability() {
        let topo = paper_region(20);
        let mut net = StabilityNetwork::new(topo, StabilityConfig::default(), 3);
        let plan = DeliveryPlan::only(net.topology(), (0..5).map(NodeId));
        let id = net.multicast_with_plan(&b"m"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.delivered_count(id), 20);
        assert_eq!(net.buffered_count(id), 0);
        // History traffic flows continuously — the overhead RRMP avoids.
        assert!(net.history_packets() > 20 * 10);
    }

    #[test]
    fn report_reflects_costs() {
        let topo = paper_region(10);
        let mut net = StabilityNetwork::new(topo, StabilityConfig::default(), 4);
        let plan = DeliveryPlan::all(net.topology());
        let id = net.multicast_with_plan(&b"m"[..], &plan);
        net.run_until(SimTime::from_secs(1));
        let r = net.report(&[id]);
        assert_eq!(r.fully_delivered_members, 10);
        assert_eq!(r.residual_losses, 0);
        // Stability detection keeps sending packets with no losses at all.
        assert!(r.packets_sent > 100, "history overhead expected, got {}", r.packets_sent);
    }
}
