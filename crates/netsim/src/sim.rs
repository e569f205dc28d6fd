//! The node-facing half of the simulator: what a simulated node is and
//! how it acts on the world.
//!
//! A node is anything implementing [`SimNode`]. It interacts with the
//! world exclusively through the [`Ctx`] handed to its callbacks: sending
//! packets (delivered after the topology's latency, subject to the
//! engine's loss model, drop filter, and fault plan) and setting timers.
//! The engine that hosts nodes is [`ShardedSim`](crate::shard::ShardedSim);
//! with one shard it is the sequential driver.
//!
//! ## Hot-path design
//!
//! * Side effects buffered during a callback go into a per-shard scratch
//!   op buffer that is drained and reused, not a fresh `Vec` per callback.
//! * Timers live in a **slab with generation counters** ([`TimerId`]
//!   packs `(slot, generation)`): cancellation bumps the generation and
//!   recycles the slot immediately — no tombstone set grows, and the
//!   stale queue entry is skipped when it surfaces.
//! * Multi-destination sends ([`Ctx::send_many`], [`Ctx::send_group`]) are
//!   **one op** holding the message once, with the target list in a reused
//!   arena; the engine schedules one region-timed batch event per distinct
//!   arrival time. With an `Arc`-backed payload type (e.g. `bytes::Bytes`)
//!   a regional multicast never copies payload bytes. Loss and filter
//!   decisions are still made per destination, in destination order, so a
//!   fan-out is observably identical to a loop of [`Ctx::send`].
//!
//! ## Example
//!
//! ```
//! use rrmp_netsim::shard::ShardedSim;
//! use rrmp_netsim::sim::{Ctx, SimNode};
//! use rrmp_netsim::time::SimTime;
//! use rrmp_netsim::topology::{presets, NodeId};
//!
//! // Each node forwards a counter to the next node until it reaches 3.
//! struct Relay;
//! impl SimNode for Relay {
//!     type Msg = u32;
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
//!         if msg < 3 {
//!             let next = NodeId((ctx.self_id().0 + 1) % 4);
//!             ctx.send(next, msg + 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {}
//! }
//!
//! let topo = presets::paper_region(4);
//! let mut sim = ShardedSim::new(topo, (0..4).map(|_| Relay).collect(), 42, 1);
//! sim.inject(NodeId(1), NodeId(0), 1, SimTime::ZERO);
//! let end = sim.run_until_quiescent(SimTime::from_secs(1));
//! // Two hops of 5ms each after the injected packet.
//! assert_eq!(end, SimTime::from_millis(10));
//! ```

use rand::rngs::StdRng;

use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};

/// A handle for cancelling a pending timer.
///
/// Packs a slab slot and its generation; a `TimerId` is invalidated the
/// moment its timer fires or is cancelled, so stale handles are harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

impl TimerId {
    fn pack(slot: u32, gen: u32) -> Self {
        TimerId((u64::from(slot) << 32) | u64::from(gen))
    }

    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// Slab of timer slots with generation counters.
///
/// A slot's generation is **odd while armed** and even while free; arming
/// bumps it to odd, firing or cancelling bumps it to even and recycles the
/// slot. A [`TimerId`] matches only the exact `(slot, generation)` it was
/// issued for, so heap entries for cancelled timers die on pop without any
/// tombstone collection. Memory is bounded by the peak number of
/// *concurrently armed* timers, not by the total ever set.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Arms a fresh timer and returns its handle.
    pub(crate) fn arm(&mut self) -> TimerId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.gens.push(0);
                (self.gens.len() - 1) as u32
            }
        };
        let gen = self.gens[slot as usize].wrapping_add(1);
        self.gens[slot as usize] = gen;
        debug_assert!(gen & 1 == 1, "armed generation must be odd");
        TimerId::pack(slot, gen)
    }

    /// Retires `id` (fire or cancel). Returns `true` if it was live —
    /// i.e. armed and neither fired nor cancelled before.
    pub(crate) fn retire(&mut self, id: TimerId) -> bool {
        let (slot, gen) = id.unpack();
        match self.gens.get_mut(slot as usize) {
            Some(cur) if *cur == gen && gen & 1 == 1 => {
                *cur = gen.wrapping_add(1);
                self.free.push(slot);
                true
            }
            _ => false,
        }
    }

    /// Clears every timer for a fresh run while keeping the slot
    /// allocation: armed generations are bumped to even (retired) and all
    /// slots re-enter the free list, so outstanding [`TimerId`]s die and
    /// the slab's memory stays warm across
    /// [`ShardedSim::reset`](crate::shard::ShardedSim::reset).
    pub(crate) fn reset(&mut self) {
        self.free.clear();
        for (slot, gen) in self.gens.iter_mut().enumerate() {
            if *gen & 1 == 1 {
                *gen = gen.wrapping_add(1);
            }
            self.free.push(slot as u32);
        }
    }

    /// Number of slots ever created (== peak concurrently armed timers).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.gens.len()
    }
}

/// Application logic hosted on a simulated node.
///
/// Implementations receive packets and timer expirations and react through
/// the [`Ctx`]. All callbacks are synchronous, a node's callbacks never
/// run concurrently, and the simulator is deterministic.
pub trait SimNode {
    /// The packet type exchanged between nodes.
    type Msg: Clone;

    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a packet from `from` arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64);
}

/// Buffered side effects produced during one callback, drained by the
/// engine ([`crate::shard`]) once the callback returns.
pub(crate) enum Op<M> {
    /// Unicast to one destination.
    Send { to: NodeId, msg: M },
    /// One message to a contiguous range of the target arena.
    SendMany { start: u32, len: u32, msg: M },
    /// One message to every topology node except the caller.
    SendGroup { msg: M },
    /// Schedule `token` on the caller at `at`.
    SetTimer { id: TimerId, token: u64, at: SimTime },
}

/// The execution context handed to node callbacks.
///
/// Provides the current time, the node's own identity and RNG, the shared
/// topology, and the means to send packets and set timers.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) topo: &'a Topology,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) ops: &'a mut Vec<Op<M>>,
    pub(crate) targets: &'a mut Vec<NodeId>,
    pub(crate) timers: &'a mut TimerSlab,
}

impl<'a, M> Ctx<'a, M> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose callback is running.
    #[must_use]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The shared network topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// This node's deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to `to`; it arrives after the topology's one-way latency
    /// unless the simulator's loss model or drop filter discards it.
    pub fn send(&mut self, to: NodeId, msg: M) {
        debug_assert_ne!(to, self.self_id, "protocol bug: node sent a packet to itself");
        self.ops.push(Op::Send { to, msg });
    }

    /// Fan-out send: a copy of `msg` to every node in `to` other than the
    /// caller (loss and latency apply per destination).
    ///
    /// Enqueues **one** op holding `msg` once and the target list in a
    /// reused arena; copies are shallow clones made as each delivery event
    /// is scheduled. Use this for regional multicasts.
    pub fn send_many<I: IntoIterator<Item = NodeId>>(&mut self, to: I, msg: M)
    where
        M: Clone,
    {
        let start = self.targets.len();
        let self_id = self.self_id;
        self.targets.extend(to.into_iter().filter(|&n| n != self_id));
        let len = self.targets.len() - start;
        if len == 0 {
            return; // nothing was appended to the arena
        }
        self.ops.push(Op::SendMany { start: start as u32, len: len as u32, msg });
    }

    /// Group-wide fan-out: a copy of `msg` to every topology node except
    /// the caller. One op regardless of group size.
    pub fn send_group(&mut self, msg: M)
    where
        M: Clone,
    {
        self.ops.push(Op::SendGroup { msg });
    }

    /// Schedules `token` to fire on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = self.timers.arm();
        self.ops.push(Op::SetTimer { id, token, at: self.now + delay });
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired timer is
    /// a no-op. Bumps the slot generation: the pending queue entry dies on
    /// pop, and the slot is immediately reusable.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.retire(id);
    }
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("buffered_ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

/// Aggregate network-level counters for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Unicast packets handed to the network.
    pub unicasts_sent: u64,
    /// Unicast packets discarded by the loss model or drop filter.
    pub unicasts_dropped: u64,
    /// Packets delivered to nodes.
    pub delivered: u64,
    /// Timers set.
    pub timers_set: u64,
    /// Timers fired (excluding cancelled ones).
    pub timers_fired: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Multi-destination fan-out operations executed
    /// ([`Ctx::send_many`] / [`Ctx::send_group`] with at least one target).
    pub fanouts: u64,
    /// Packets delivered by expanding a region-timed batch event (a subset
    /// of [`NetCounters::delivered`]).
    pub batched_deliveries: u64,
    /// Unicast copies dropped by an armed
    /// [`FaultPlan`](crate::fault::FaultPlan) (a subset of
    /// [`NetCounters::unicasts_dropped`]).
    pub faults_dropped: u64,
    /// Extra copies created by an armed fault plan's duplication
    /// episodes (each also counts in [`NetCounters::delivered`] when it
    /// arrives, but not in [`NetCounters::unicasts_sent`] — the network
    /// duplicated it, the sender did not send it).
    pub faults_duplicated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_slab_reuses_slots() {
        let mut slab = TimerSlab::default();
        let a = slab.arm();
        let b = slab.arm();
        assert!(slab.retire(a));
        assert!(!slab.retire(a), "double retire is a no-op");
        let c = slab.arm(); // reuses a's slot with a new generation
        assert_ne!(a, c);
        assert_eq!(slab.slot_count(), 2);
        assert!(slab.retire(b));
        assert!(slab.retire(c));
        // Peak concurrency was 2; the slab never grew past it.
        for _ in 0..100 {
            let id = slab.arm();
            assert!(slab.retire(id));
        }
        assert!(slab.slot_count() <= 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Generator language for slab operations: arm a new timer, or retire
    /// (fire/cancel) the k-th oldest live one / a stale handle.
    #[derive(Debug, Clone)]
    enum SlabOp {
        Arm,
        RetireLive(usize),
        RetireStale(usize),
    }

    fn arb_slab_op() -> impl Strategy<Value = SlabOp> {
        prop_oneof![
            Just(SlabOp::Arm),
            (0usize..64).prop_map(SlabOp::RetireLive),
            (0usize..64).prop_map(SlabOp::RetireStale),
        ]
    }

    proptest! {
        /// The slab agrees with a naive model under arbitrary arm/cancel
        /// interleavings: retire succeeds exactly once per issued handle,
        /// stale handles never resolve, and memory stays bounded by the
        /// peak number of concurrently live timers.
        #[test]
        fn slab_matches_model(ops in proptest::collection::vec(arb_slab_op(), 0..300)) {
            let mut slab = TimerSlab::default();
            let mut live: Vec<TimerId> = Vec::new();
            let mut retired: Vec<TimerId> = Vec::new();
            let mut seen: HashSet<TimerId> = HashSet::new();
            let mut peak = 0usize;
            for op in ops {
                match op {
                    SlabOp::Arm => {
                        let id = slab.arm();
                        prop_assert!(seen.insert(id), "handle {id:?} reissued while observable");
                        live.push(id);
                        peak = peak.max(live.len());
                    }
                    SlabOp::RetireLive(k) => {
                        if live.is_empty() {
                            continue;
                        }
                        let id = live.remove(k % live.len());
                        prop_assert!(slab.retire(id), "live handle must retire");
                        retired.push(id);
                    }
                    SlabOp::RetireStale(k) => {
                        if retired.is_empty() {
                            continue;
                        }
                        let id = retired[k % retired.len()];
                        prop_assert!(!slab.retire(id), "stale handle must not retire");
                    }
                }
            }
            prop_assert!(slab.slot_count() <= peak.max(1), "slab grew past peak concurrency");
            // Every still-live handle retires exactly once.
            for id in live {
                prop_assert!(slab.retire(id));
                prop_assert!(!slab.retire(id));
            }
        }
    }
}
