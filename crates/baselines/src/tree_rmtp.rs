//! Tree-based repair-server buffering (RMTP-style: Paul et al., JSAC '97)
//! — the designated-repair-server design the paper's §1 and §6 argue
//! against: "a repair server bears the entire burden of buffering messages
//! for a local region".
//!
//! Each region designates one member as its *repair server*. The server
//! buffers **every** message of the session; ordinary receivers buffer
//! nothing. A receiver that detects a loss NACKs its repair server; a
//! server missing the message NACKs the repair server of its parent
//! region. The comparison experiment shows the resulting load
//! concentration (one member's buffer grows with the session) against
//! RRMP's spread-out long-term buffering.

use std::collections::{BTreeSet, HashMap};

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

/// Wire messages of the tree baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreePacket {
    /// Initial multicast data.
    Data(DataPacket),
    /// Session advertisement from the sender.
    Session {
        /// The sender.
        source: NodeId,
        /// Highest sequence multicast.
        high: SeqNo,
    },
    /// Negative acknowledgment sent up the repair tree.
    Nack {
        /// The missing message.
        msg: MessageId,
    },
    /// Retransmission answer from a repair server.
    Repair(DataPacket),
}

/// Configuration of the tree baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// NACK retry timeout toward the own repair server.
    pub nack_timeout: SimDuration,
    /// NACK retry timeout toward the parent repair server.
    pub parent_nack_timeout: SimDuration,
    /// Retry cap.
    pub max_attempts: u32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            nack_timeout: SimDuration::from_millis(10),
            parent_nack_timeout: SimDuration::from_millis(60),
            max_attempts: 200,
        }
    }
}

/// One member of the tree baseline.
#[derive(Debug)]
pub struct TreeNode {
    id: NodeId,
    /// This region's repair server.
    repair_server: NodeId,
    /// The parent region's repair server (None at the root).
    parent_server: Option<NodeId>,
    cfg: TreeConfig,
    detector: LossDetector,
    store: MessageStore,
    delivered: Vec<(SimTime, MessageId)>,
    waiters: HashMap<MessageId, BTreeSet<NodeId>>,
    attempts: HashMap<MessageId, u32>,
    pending_timers: HashMap<u64, MessageId>,
    next_token: u64,
}

impl TreeNode {
    /// Creates a member with its repair-tree coordinates.
    #[must_use]
    pub fn new(
        id: NodeId,
        repair_server: NodeId,
        parent_server: Option<NodeId>,
        cfg: TreeConfig,
    ) -> Self {
        TreeNode {
            id,
            repair_server,
            parent_server,
            cfg,
            detector: LossDetector::new(),
            store: MessageStore::new(),
            delivered: Vec::new(),
            waiters: HashMap::new(),
            attempts: HashMap::new(),
            pending_timers: HashMap::new(),
            next_token: 0,
        }
    }

    /// Whether this member is its region's repair server.
    #[must_use]
    pub fn is_server(&self) -> bool {
        self.repair_server == self.id
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

    fn nack_target(&self) -> Option<NodeId> {
        if self.is_server() {
            self.parent_server
        } else {
            Some(self.repair_server)
        }
    }

    fn send_nack(&mut self, ctx: &mut Ctx<'_, TreePacket>, msg: MessageId) {
        let attempts = self.attempts.entry(msg).or_insert(0);
        *attempts += 1;
        if *attempts > self.cfg.max_attempts {
            return;
        }
        let Some(target) = self.nack_target() else { return };
        ctx.send(target, TreePacket::Nack { msg });
        let timeout =
            if self.is_server() { self.cfg.parent_nack_timeout } else { self.cfg.nack_timeout };
        let token = self.next_token;
        self.next_token += 1;
        self.pending_timers.insert(token, msg);
        ctx.set_timer(timeout, token);
    }

    fn on_data_like(&mut self, ctx: &mut Ctx<'_, TreePacket>, data: DataPacket) {
        let outcome = self.detector.on_data(data.id);
        if outcome.newly_received {
            self.delivered.push((ctx.now(), data.id));
            self.attempts.remove(&data.id);
            if self.is_server() {
                // The repair server buffers the whole session (the RMTP
                // file-transfer model).
                self.store.insert_long(data.id, data.payload.clone(), ctx.now());
            }
            for m in outcome.newly_missing {
                self.send_nack(ctx, m);
            }
        }
        // Serve any receivers waiting on this message.
        if let Some(waiters) = self.waiters.remove(&data.id) {
            for w in waiters {
                ctx.send(w, TreePacket::Repair(data.clone()));
            }
        }
    }
}

impl SimNode for TreeNode {
    type Msg = TreePacket;

    fn on_packet(&mut self, ctx: &mut Ctx<'_, TreePacket>, from: NodeId, msg: TreePacket) {
        match msg {
            TreePacket::Data(d) | TreePacket::Repair(d) => self.on_data_like(ctx, d),
            TreePacket::Session { source, high } => {
                for m in self.detector.on_session(source, high) {
                    self.send_nack(ctx, m);
                }
            }
            TreePacket::Nack { msg } => {
                if let Some(payload) = self.store.get(msg) {
                    self.store.note_use(msg, ctx.now());
                    ctx.send(from, TreePacket::Repair(DataPacket::new(msg, payload)));
                } else {
                    // The server misses it too: remember the waiter and
                    // recover through the parent server.
                    self.waiters.entry(msg).or_default().insert(from);
                    for m in self.detector.on_hint(msg) {
                        self.send_nack(ctx, m);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TreePacket>, token: u64) {
        if let Some(msg) = self.pending_timers.remove(&token) {
            if self.detector.is_missing(msg) {
                self.send_nack(ctx, msg);
            }
        }
    }
}

/// A simulated group running the tree/RMTP baseline. The repair server of
/// each region is its lowest-id member; the repair tree follows the
/// topology's region hierarchy.
#[derive(Debug)]
pub struct TreeNetwork {
    sim: ShardedSim<TreeNode>,
    sender: NodeId,
    next_seq: SeqNo,
    sent_at: HashMap<MessageId, SimTime>,
}

impl TreeNetwork {
    /// Builds the group over `topo` with node 0 as sender.
    ///
    /// # Panics
    ///
    /// Panics if any region is empty (validated topologies never are).
    #[must_use]
    pub fn new(topo: Topology, cfg: TreeConfig, seed: u64) -> Self {
        let server_of = |r: rrmp_netsim::topology::RegionId| topo.members_of(r)[0];
        let nodes = topo
            .nodes()
            .map(|id| {
                let region = topo.region_of(id);
                let repair_server = server_of(region);
                let parent_server = topo.parent_of(region).map(server_of);
                TreeNode::new(id, repair_server, parent_server, cfg.clone())
            })
            .collect();
        let sim = ShardedSim::new(topo, nodes, seed, 1);
        TreeNetwork { sim, sender: NodeId(0), next_seq: SeqNo::FIRST, sent_at: HashMap::new() }
    }

    /// The simulated topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Multicasts with an explicit plan (session advertised to missers).
    pub fn multicast_with_plan(
        &mut self,
        payload: impl Into<Bytes>,
        plan: &DeliveryPlan,
    ) -> MessageId {
        let id = MessageId::new(self.sender, self.next_seq);
        self.next_seq = self.next_seq.next();
        let now = self.sim.now();
        self.sent_at.insert(id, now);
        let data = TreePacket::Data(DataPacket::new(id, payload.into()));
        self.sim.inject(self.sender, self.sender, data.clone(), now);
        let mut without_sender = plan.clone();
        without_sender.set_receives(self.sender, false);
        self.sim.inject_multicast_plan(self.sender, &data, &without_sender, now);
        let session = TreePacket::Session { source: self.sender, high: id.seq };
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

    /// Access to one node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &TreeNode {
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
            scheme: "tree-rmtp",
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
    use rrmp_netsim::time::SimDuration;
    use rrmp_netsim::topology::presets::{figure1_chain, paper_region};

    #[test]
    fn server_buffers_everything_receivers_nothing() {
        let topo = paper_region(10);
        let mut net = TreeNetwork::new(topo, TreeConfig::default(), 1);
        let plan = DeliveryPlan::all(net.topology());
        for _ in 0..5 {
            net.multicast_with_plan(&b"m"[..], &plan);
        }
        net.run_until(SimTime::from_millis(100));
        assert_eq!(net.node(NodeId(0)).store().len(), 5, "server keeps the session");
        for i in 1..10 {
            assert_eq!(net.node(NodeId(i)).store().len(), 0, "receivers buffer nothing");
        }
    }

    #[test]
    fn local_loss_repaired_by_server() {
        let topo = paper_region(10);
        let mut net = TreeNetwork::new(topo, TreeConfig::default(), 2);
        let plan = DeliveryPlan::all_but(net.topology(), (5..10).map(NodeId));
        let id = net.multicast_with_plan(&b"m"[..], &plan);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.delivered_count(id), 10);
    }

    #[test]
    fn regional_loss_repaired_through_parent_server() {
        let topo = figure1_chain([4, 4, 4], SimDuration::from_millis(25));
        let mut net = TreeNetwork::new(topo, TreeConfig::default(), 3);
        // Region 2 (nodes 8..12) misses everything, including its server.
        let plan = DeliveryPlan::all_but(net.topology(), (8..12).map(NodeId));
        let id = net.multicast_with_plan(&b"m"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.delivered_count(id), 12);
        // The region-2 server (node 8) fetched it from region 1's server
        // (node 4) and now buffers it.
        assert!(net.node(NodeId(8)).store().contains(id));
    }

    #[test]
    fn report_shows_load_concentration() {
        let topo = paper_region(20);
        let mut net = TreeNetwork::new(topo, TreeConfig::default(), 4);
        let plan = DeliveryPlan::all(net.topology());
        let ids: Vec<MessageId> =
            (0..10).map(|_| net.multicast_with_plan(&b"m"[..], &plan)).collect();
        net.run_until(SimTime::from_secs(1));
        let r = net.report(&ids);
        assert_eq!(r.fully_delivered_members, 20);
        // All buffering cost sits on one node.
        assert_eq!(r.peak_entries_max, 10);
        assert!(r.peak_entries_mean < 1.0, "mean {} should be tiny", r.peak_entries_mean);
    }
}
