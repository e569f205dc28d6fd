//! Reproducible simulator hot-path benchmark: times the optimized paths
//! against baselines that reconstruct the pre-optimization costs, on
//! identical deterministic workloads, and writes `BENCH_sim_core.json`.
//!
//! Run via `scripts/bench.sh` (release build) or directly:
//!
//! ```text
//! cargo run --release -p rrmp-bench --bin sim_core_bench [out.json]
//! ```
//!
//! Workloads (optimized vs pre-refactor baseline):
//!
//! * `multicast_fanout` — 1 KiB payload to 200 destinations per
//!   multicast: one `send_many` op sharing an `Arc`-backed `Bytes`
//!   payload on the simulator vs a bench-local baseline with the
//!   pre-refactor costs (heap-based reference queue, a fresh op `Vec` per
//!   callback, one op, one queue entry and one deep payload copy per
//!   destination — the seed had no zero-copy buffer type).
//! * `delivered_query` — `has_delivered` via the per-source interval
//!   index vs the historical linear scan of the delivery log.
//! * `encode_reuse` — `encode_into` a reused buffer vs a freshly
//!   allocated, growing buffer per packet (the historical `encode`).
//! * `fault_path` — the full protocol recovering a half-lost multicast
//!   stream on a 100-member region, unarmed vs armed with an inert
//!   `FaultPlan` (far-future windows plus a p=0 duplication spanning the
//!   run): identical traces by construction, so the ratio is the pure
//!   cost of the per-copy fault hook. Proves the unarmed hook (one
//!   `Option` check) costs nothing on fault-free runs.
//! * `trace_path` — the `fault_path` run unarmed vs armed with the full
//!   observer (ring-buffered trace sinks on every receiver and the
//!   engine, samplers off so both arms process identical event
//!   sequences): the ratio is the pure cost of the tracing hooks, and
//!   the unarmed arm is the fast path the golden fingerprints pin — one
//!   `Option` check per hook site.
//! * `overload` — a repair storm (80% loss burst, 100 members, a tenth
//!   seeded per message) with the graceful-degradation kit armed (memory
//!   budget + token-bucket damping + liveness watchdog) vs the same
//!   storm undamped. What damping buys is wire traffic, not wall-clock
//!   (shed rounds re-queue as paced timer events), so the comparison is
//!   storms per million repair unicasts — deterministic per seed, so the
//!   entry only moves when the protocol does (warn-only in
//!   `bench_guard`).
//! * `queue_ops` — a raw schedule/pop storm with thousands of pending
//!   events: the hierarchical timing wheel vs the reference `BinaryHeap`
//!   queue, including capacity reuse across runs via `clear`.
//! * `multi_run_reuse` — twelve back-to-back experiment runs, both arms
//!   on the optimized loop: one network `reset` between runs (warm
//!   queue/slab allocations) vs constructing a fresh network per run —
//!   the ratio isolates the reuse effect itself.
//! * `members_1m` — the scaling flagship: a million members across
//!   heterogeneous regions (a few large campuses, a long tail of small
//!   sites) recovering a lossy stream on the sharded engine. Optimized
//!   arm: load-aware LPT region→shard placement; reference arm:
//!   round-robin placement, both at 4 shards with an equal-event-count
//!   assert (placement never changes the trace). Runs *first* so the
//!   peak-RSS delta it records approximates the workload's own
//!   footprint, checked warn-only against `peak_rss_budget_kb` by
//!   `bench_guard`. `--members=N` shrinks it (the CI smoke job runs
//!   100k; the workload is then named `members_scale`), `--members-only`
//!   skips everything else.
//!
//! Every workload is deterministic per seed and both arms of a workload do
//! identical work (each comparison asserts equal work counts), so
//! wall-clock ratios isolate the hot-path changes.

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use rand::SeedableRng;
use rrmp_baselines::ported::{multicast_with_session, policy_config};
use rrmp_baselines::{
    HashConfig, HashNetwork, SenderBasedConfig, SenderBasedNetwork, StabilityConfig,
    StabilityNetwork, TreeConfig, TreeNetwork,
};
use rrmp_core::harness::RrmpNetwork;
use rrmp_core::ids::{MessageId, SeqNo};
use rrmp_core::packet::{DataPacket, Packet};
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::{DampingConfig, ProtocolConfig, TraceConfig, WatchdogConfig};
use rrmp_netsim::event::{EventQueue, ReferenceEventQueue, Scheduler};
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::shard::{ShardPlacement, ShardedSim};
use rrmp_netsim::sim::{Ctx, NetCounters, SimNode};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, RegionId, Topology};

/// Best-of-`runs` wall seconds for `f` (which must do identical work each
/// call). Returns `(best_seconds, work_items)`.
fn best_secs<F: FnMut() -> u64>(runs: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut work = 0u64;
    for _ in 0..runs {
        let start = Instant::now();
        work = f();
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
    }
    (best, work)
}

// ----- workload 1: regional fan-out -----------------------------------------

/// Members in the fan-out region; node 0 multicasts to the other 199.
const FANOUT_MEMBERS: usize = 200;
/// Node 0 multicasts every 100 µs up to this horizon: 3,000 multicasts.
const FANOUT_HORIZON: SimTime = SimTime::from_millis(300);
const FANOUT_INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Node 0 multicasts `payload` to the whole region on every timer fire.
struct Caster {
    payload: Bytes,
    casts: u64,
}

impl SimNode for Caster {
    type Msg = Bytes;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Bytes>) {
        if ctx.self_id() == NodeId(0) {
            ctx.set_timer(FANOUT_INTERVAL, 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, Bytes>, _from: NodeId, _msg: Bytes) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Bytes>, _token: u64) {
        let n = ctx.topology().node_count() as u32;
        ctx.send_many((0..n).map(NodeId), self.payload.clone());
        self.casts += 1;
        ctx.set_timer(FANOUT_INTERVAL, 0);
    }
}

fn fanout_workload(payload: &Bytes) -> (f64, u64) {
    best_secs(3, || {
        let topo = presets::paper_region(FANOUT_MEMBERS);
        let nodes =
            (0..FANOUT_MEMBERS).map(|_| Caster { payload: payload.clone(), casts: 0 }).collect();
        let mut sim = ShardedSim::new(topo, nodes, 7, 1);
        sim.run_until(FANOUT_HORIZON);
        sim.node(NodeId(0)).casts
    })
}

/// A queue entry of the pre-refactor event loop. The variants mirror that
/// engine's event type, batch delivery included (never scheduled here), so
/// heap entries keep its 56-byte layout: entry size is what every heap
/// sift moves.
enum RefEvent {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Vec<u8>,
    },
    #[allow(dead_code)]
    DeliverBatch {
        from: NodeId,
        targets: Vec<NodeId>,
        msg: Vec<u8>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

/// A side effect buffered during one callback of the pre-refactor loop.
/// As with [`RefEvent`], the fan-out variant of that engine's op type
/// rides along unused so ops keep its 40-byte layout: a multicast pushes
/// (and regrows the buffer over) one op per destination.
enum RefOp {
    Send {
        to: NodeId,
        msg: Vec<u8>,
    },
    #[allow(dead_code)]
    SendMany {
        start: u32,
        len: u32,
        msg: Vec<u8>,
    },
    SetTimer {
        token: u64,
        at: SimTime,
    },
}

/// The fan-out workload with the pre-refactor costs — the baseline of the
/// enforced `multicast_fanout` gate: the heap-based [`ReferenceEventQueue`],
/// a fresh op `Vec` per callback, and one op, one queue entry and one deep
/// payload copy per destination (the seed had no zero-copy buffer type).
struct ReferenceFanout {
    topo: Topology,
    queue: ReferenceEventQueue<RefEvent>,
    now: SimTime,
    counters: NetCounters,
    loss: LossModel,
    loss_rng: rand::rngs::StdRng,
    payload: Vec<u8>,
    casts: u64,
}

impl ReferenceFanout {
    /// Runs the workload; returns node 0's multicast count.
    fn run(payload: &[u8]) -> u64 {
        let mut sim = ReferenceFanout {
            topo: presets::paper_region(FANOUT_MEMBERS),
            queue: ReferenceEventQueue::new(),
            now: SimTime::ZERO,
            counters: NetCounters::default(),
            loss: LossModel::None,
            loss_rng: rand::rngs::StdRng::seed_from_u64(7),
            payload: payload.to_vec(),
            casts: 0,
        };
        let first = SimTime::ZERO + FANOUT_INTERVAL;
        sim.queue.schedule(first, RefEvent::Timer { node: NodeId(0), token: 0 });
        while let Some((at, event)) = sim.queue.pop_at_or_before(FANOUT_HORIZON) {
            sim.now = at;
            sim.counters.events_processed += 1;
            let mut ops = Vec::new();
            let from = match event {
                RefEvent::Deliver { to, from, msg } => {
                    sim.counters.delivered += 1;
                    black_box((from, msg));
                    to
                }
                RefEvent::Timer { node, token } => {
                    sim.counters.timers_fired += 1;
                    sim.on_timer(node, token, &mut ops);
                    node
                }
                RefEvent::DeliverBatch { .. } => unreachable!("never scheduled"),
            };
            for op in ops.drain(..) {
                match op {
                    RefOp::Send { to, msg } => sim.transmit(from, to, msg),
                    RefOp::SetTimer { token, at } => {
                        sim.counters.timers_set += 1;
                        sim.queue.schedule(at, RefEvent::Timer { node: from, token });
                    }
                    RefOp::SendMany { .. } => unreachable!("never emitted"),
                }
            }
        }
        black_box(sim.counters);
        sim.casts
    }

    /// Node 0's multicast: one op and one deep payload copy per
    /// destination.
    fn on_timer(&mut self, me: NodeId, token: u64, ops: &mut Vec<RefOp>) {
        let msg = self.payload.clone();
        let n = self.topo.node_count() as u32;
        for to in (0..n).map(NodeId).filter(|&to| to != me) {
            ops.push(RefOp::Send { to, msg: msg.clone() });
        }
        self.casts += 1;
        ops.push(RefOp::SetTimer { token, at: self.now + FANOUT_INTERVAL });
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: Vec<u8>) {
        self.counters.unicasts_sent += 1;
        if self.loss.drops_unicast(&mut self.loss_rng) {
            self.counters.unicasts_dropped += 1;
            return;
        }
        let arrive = self.now + self.topo.one_way_latency(from, to);
        self.queue.schedule(arrive, RefEvent::Deliver { to, from, msg });
    }
}

fn reference_fanout_workload(payload: &[u8]) -> (f64, u64) {
    best_secs(3, || ReferenceFanout::run(payload))
}

// ----- workload 3: delivered-set queries ------------------------------------

fn delivered_query_workload() -> (f64, f64, u64) {
    // One network, a 300-message fully delivered stream over 100 nodes.
    let topo = presets::paper_region(100);
    let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 3);
    let mut ids = Vec::new();
    for _ in 0..300 {
        let plan = DeliveryPlan::all(net.topology());
        ids.push(net.multicast_with_plan(&b"query-stream"[..], &plan));
        let next = net.now() + SimDuration::from_millis(2);
        net.run_until(next);
    }
    net.run_until(net.now() + SimDuration::from_millis(100));
    let queries = (ids.len() * net.topology().node_count()) as u64;

    // Optimized: the per-source interval index behind has_delivered.
    let (opt_s, hits) = best_secs(5, || {
        let mut acc = 0u64;
        for &id in &ids {
            for (_, n) in net.nodes() {
                acc += u64::from(n.has_delivered(id));
            }
        }
        black_box(acc)
    });
    // Baseline: the historical linear scan over the same delivery logs.
    let (ref_s, ref_hits) = best_secs(5, || {
        let mut acc = 0u64;
        for &id in &ids {
            for (_, n) in net.nodes() {
                acc += u64::from(n.delivered().iter().any(|&(_, d)| d == id));
            }
        }
        black_box(acc)
    });
    assert_eq!(hits, ref_hits, "index and scan must agree");
    assert_eq!(hits, queries, "stream was fully delivered");
    (queries as f64 / opt_s, queries as f64 / ref_s, queries)
}

// ----- workload 4: encode-buffer reuse --------------------------------------

fn encode_stream() -> Vec<Packet> {
    let mid = |seq: u64| MessageId::new(NodeId(0), SeqNo(seq));
    (0..2_000u64)
        .map(|i| match i % 4 {
            0 => Packet::Data(DataPacket::new(mid(i), Bytes::from(vec![0x7Cu8; 1024]))),
            1 => Packet::LocalRequest { msg: mid(i) },
            2 => Packet::Repair {
                data: DataPacket::new(mid(i), Bytes::from(vec![0x7Cu8; 512])),
                kind: rrmp_core::packet::RepairKind::Remote,
            },
            _ => Packet::Session { source: NodeId(0), high: SeqNo(i) },
        })
        .collect()
}

fn encode_reuse_workload() -> (f64, f64, u64) {
    let packets = encode_stream();
    let work = packets.len() as u64;
    // Optimized: one reused buffer, cleared between packets.
    let (opt_s, _) = best_secs(5, || {
        let mut buf = BytesMut::with_capacity(2048);
        let mut total = 0u64;
        for _ in 0..20 {
            for p in &packets {
                buf.clear();
                p.encode_into(&mut buf);
                total += buf.len() as u64;
            }
        }
        black_box(total)
    });
    // Baseline: the historical encode — a fresh buffer per packet, grown
    // from a small initial capacity.
    let (ref_s, _) = best_secs(5, || {
        let mut total = 0u64;
        for _ in 0..20 {
            for p in &packets {
                let mut buf = BytesMut::with_capacity(32);
                p.encode_into(&mut buf);
                total += buf.freeze().len() as u64;
            }
        }
        black_box(total)
    });
    let encodes = work * 20;
    (encodes as f64 / opt_s, encodes as f64 / ref_s, encodes)
}

// ----- workload 5b: fault-hook overhead -------------------------------------

/// The full protocol recovering a 20-message half-lost stream on a
/// 100-member region, unarmed vs armed with an inert plan: every
/// episode either sits in a far-future window (never active, but scanned
/// per copy) or is a p=0 duplication spanning the whole run (active, so
/// every surviving copy pays a window check plus a hash-oracle draw, but
/// no verdict ever changes). Both arms process byte-identical event
/// sequences; the ratio isolates the fault hook itself. The unarmed arm
/// is the fast path CI guards: one `Option` check per unicast copy.
fn fault_path_workload(armed: bool) -> (f64, u64) {
    best_secs(3, || {
        let topo = presets::paper_region(100);
        let cfg = ProtocolConfig::paper_defaults();
        let mut net = RrmpNetwork::new(topo, cfg, 7);
        if armed {
            let far = SimTime::from_secs(10_000);
            let plan = FaultPlan::new(11)
                .partition(RegionId(0), RegionId(1), far, far + SimDuration::from_secs(1))
                .stall(NodeId(5), far, far + SimDuration::from_secs(1))
                .duplicate(0.0, SimDuration::from_millis(5), SimTime::ZERO, far);
            net.arm_fault_plan(plan);
        }
        for _ in 0..20 {
            let plan = DeliveryPlan::only(net.topology(), (0..50).map(NodeId));
            net.multicast_with_plan(&b"bench-payload-bench-payload"[..], &plan);
            let next = net.now() + SimDuration::from_millis(30);
            net.run_until(next);
        }
        net.run_until(net.now() + SimDuration::from_millis(500));
        net.net_counters().events_processed
    })
}

// ----- workload 5b': observer-hook overhead ---------------------------------

/// The `fault_path` run unarmed vs armed with the observer: ring-buffered
/// trace sinks on every receiver and the engine, samplers off
/// (`sample_every: None`), so no extra timers fire and both arms process
/// byte-identical event sequences. The ratio isolates the tracing hooks
/// themselves; the unarmed arm is the fast path the golden fingerprints
/// pin — one `Option` check per hook site.
fn trace_path_workload(armed: bool) -> (f64, u64) {
    best_secs(3, || {
        let topo = presets::paper_region(100);
        let cfg = ProtocolConfig::paper_defaults();
        let mut net = RrmpNetwork::new(topo, cfg, 7);
        if armed {
            net.arm_observer(TraceConfig { ring_capacity: 4096, sample_every: None });
        }
        for _ in 0..20 {
            let plan = DeliveryPlan::only(net.topology(), (0..50).map(NodeId));
            net.multicast_with_plan(&b"bench-payload-bench-payload"[..], &plan);
            let next = net.now() + SimDuration::from_millis(30);
            net.run_until(next);
        }
        net.run_until(net.now() + SimDuration::from_millis(500));
        net.net_counters().events_processed
    })
}

// ----- workload 5c: repair storm, damped vs undamped ------------------------

/// A repair storm on a 100-member region: a heavy loss burst makes most
/// of the group start recovery for every message at once. Damped arm:
/// the full overload kit armed (memory budget, token-bucket damping,
/// liveness watchdog); undamped arm: the same storm with the kit off.
/// Returns the **wire unicasts** the storm cost — the quantity damping
/// exists to bound. (Wall-clock is the wrong axis here: shed rounds
/// re-queue as paced timer events, so the damped arm does *more*
/// simulator work while putting ~8x fewer packets on the wire.)
fn overload_workload(damped: bool) -> (f64, u64) {
    best_secs(3, || {
        let topo = presets::paper_region(100);
        let mut cfg = ProtocolConfig::paper_defaults();
        if damped {
            cfg.memory_budget = Some(16 * 1024);
            cfg.damping = Some(DampingConfig {
                burst: 2,
                refill: SimDuration::from_millis(40),
                suppress_window: SimDuration::from_millis(15),
            });
            cfg.watchdog = Some(WatchdogConfig {
                interval: SimDuration::from_millis(200),
                horizon: SimDuration::from_millis(400),
            });
        }
        let mut net = RrmpNetwork::new(topo, cfg, 7);
        net.arm_fault_plan(FaultPlan::new(11).loss_burst(
            0.8,
            None,
            SimTime::from_millis(50),
            SimTime::from_millis(500),
        ));
        for _ in 0..20 {
            // Only a tenth of the group gets the initial multicast: the
            // other ninety members all turn to recovery — the storm.
            let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
            net.multicast_with_plan(&b"storm-payload-storm-payload"[..], &plan);
            let next = net.now() + SimDuration::from_millis(30);
            net.run_until(next);
        }
        net.run_until(net.now() + SimDuration::from_secs(2));
        net.net_counters().unicasts_sent
    })
}

// ----- workload 6: raw queue schedule/pop storm -----------------------------

/// Simulator-shaped queue churn at large-group scale: hold ~32k pending events,
/// pop the frontier and schedule a replacement at a deterministic
/// pseudo-random delay, across eight runs reusing one queue (`clear`
/// keeps allocations warm). Counts one unit of work per schedule+pop pair.
/// Both queues are driven through the shared `Scheduler` trait — the
/// contract the UDP runtime's timer wheel uses too.
fn queue_ops_workload<Q: Scheduler<u64> + Default>() -> (f64, u64) {
    const PENDING: u64 = 32_768;
    const CHURN: u64 = 120_000;
    fn next(lcg: &mut u64) -> u64 {
        *lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *lcg >> 33
    }
    best_secs(3, || {
        let mut q = Q::default();
        let mut ops = 0u64;
        for run in 0..8u64 {
            q.clear();
            let mut lcg = 0x243F_6A88_85A3_08D3u64 ^ run;
            for i in 0..PENDING {
                q.schedule(SimTime::from_micros(next(&mut lcg) % 5_000_000), i);
            }
            for i in 0..CHURN {
                let (t, _) = q.pop().expect("queue holds pending events");
                let delta = 1 + next(&mut lcg) % 5_000_000;
                q.schedule(SimTime::from_micros(t.as_micros() + delta), i);
                ops += 1;
            }
            while q.pop().is_some() {}
        }
        ops
    })
}

// ----- workload 7: multi-run experiment reuse -------------------------------

fn one_experiment_run(net: &mut RrmpNetwork) -> u64 {
    let plan = DeliveryPlan::only(net.topology(), (0..30).map(NodeId));
    net.multicast_with_plan(&b"reuse-run"[..], &plan);
    net.run_until(SimTime::from_millis(400));
    net.net_counters().events_processed
}

/// Twelve identical experiment runs, both arms on the optimized event
/// loop so the ratio isolates the reuse effect itself. Optimized: one
/// network, `reset` between runs — queue and timer-slab allocations stay
/// warm. Baseline: the pre-`reset` usage pattern, a fresh network
/// (topology build, protocol state, cold queue) per run.
fn multi_run_reuse_workload(reuse: bool) -> (f64, u64) {
    const RUNS: u64 = 12;
    best_secs(3, || {
        let cfg = ProtocolConfig::paper_defaults();
        let mut events = 0u64;
        if reuse {
            let mut net = RrmpNetwork::new(presets::paper_region(60), cfg, 5);
            for run in 0..RUNS {
                if run > 0 {
                    net.reset(5);
                }
                events += one_experiment_run(&mut net);
            }
        } else {
            for _ in 0..RUNS {
                let mut net = RrmpNetwork::new(presets::paper_region(60), cfg.clone(), 5);
                events += one_experiment_run(&mut net);
            }
        }
        events
    })
}

// ----- workload 8: parallel per-region simulation ---------------------------

/// A 32-region × 2048-member group (64 members per region, all regions
/// children of the sender's) recovering a region-correlated lossy
/// multicast stream on the **sharded** engine: mostly intra-region repair
/// traffic — the regime conservative-window parallelism targets — with
/// cross-region remote recovery keeping the mailboxes busy.
fn parallel_regions_run(shards: usize) -> (f64, u64) {
    best_secs(2, || {
        let mut builder = rrmp_netsim::topology::TopologyBuilder::new()
            .inter_region_one_way(SimDuration::from_millis(25))
            .region(64, None);
        for _ in 1..32 {
            builder = builder.region(64, Some(0));
        }
        let topo = builder.build().expect("valid 32-region topology");
        let mut net = RrmpNetwork::with_shards(topo, ProtocolConfig::paper_defaults(), 7, shards);
        net.set_multicast_loss(rrmp_netsim::loss::LossModel::RegionCorrelated {
            p_region: 0.25,
            p_member: 0.05,
        });
        for _ in 0..6 {
            net.multicast(&b"parallel-regions-payload"[..]);
            let next = net.now() + SimDuration::from_millis(40);
            net.run_until(next);
        }
        net.run_until(SimTime::from_secs(2));
        net.net_counters().events_processed
    })
}

// ----- workload 9: policy × group size × loss-rate matrix --------------------

const MATRIX_POLICIES: [PolicyKind; 5] = [
    PolicyKind::TwoPhase,
    PolicyKind::HashBufferers,
    PolicyKind::SenderBased,
    PolicyKind::Stability,
    PolicyKind::TreeRmtp,
];
const MATRIX_SIZES: [usize; 2] = [40, 160];
const MATRIX_LOSS: [f64; 2] = [0.05, 0.25];
const MATRIX_MESSAGES: usize = 6;

/// Per-message delivery plans drawn once per combo, so the shared-engine
/// and legacy-stack arms see the identical loss pattern.
fn matrix_plans(topo: &Topology, loss: f64, seed: u64) -> Vec<DeliveryPlan> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let model = LossModel::Bernoulli { p: loss };
    (0..MATRIX_MESSAGES)
        .map(|_| DeliveryPlan::from_model(topo, NodeId(0), &model, &mut rng))
        .collect()
}

/// One lossy-stream run; returns the total delivered count (the checksum
/// both arms must agree on). `Net` abstracts over the three stacks via
/// closures below.
fn matrix_drive<Net>(
    plans: &[DeliveryPlan],
    net: &mut Net,
    mut cast: impl FnMut(&mut Net, &DeliveryPlan),
    mut run_until: impl FnMut(&mut Net, SimTime),
    mut now: impl FnMut(&Net) -> SimTime,
) {
    for plan in plans {
        cast(net, plan);
        let next = now(net) + SimDuration::from_millis(40);
        run_until(net, next);
    }
    let horizon = now(net) + SimDuration::from_secs(1);
    run_until(net, horizon);
}

/// The policy-matrix sweep on ONE protocol engine: every algorithm as a
/// [`PolicyKind`] over the shared (timing-wheel) `RrmpNetwork`.
fn policy_matrix_shared_engine() -> (f64, u64) {
    best_secs(3, || {
        let mut delivered = 0u64;
        for kind in MATRIX_POLICIES {
            for n in MATRIX_SIZES {
                for loss in MATRIX_LOSS {
                    let topo = presets::paper_region(n);
                    let plans = matrix_plans(&topo, loss, n as u64 ^ (loss * 100.0) as u64);
                    let mut net = RrmpNetwork::new(topo, policy_config(kind), 7);
                    let mut ids = Vec::new();
                    matrix_drive(
                        &plans,
                        &mut net,
                        |net, plan| ids.push(multicast_with_session(net, &b"matrix"[..], plan)),
                        |net, t| net.run_until(t),
                        |net| net.now(),
                    );
                    delivered += ids.iter().map(|&id| net.delivered_count(id) as u64).sum::<u64>();
                }
            }
        }
        delivered
    })
}

/// The same sweep the pre-refactor way: one duplicated protocol stack per
/// algorithm (the core network for two-phase, the standalone
/// `HashNetwork` / `SenderBasedNetwork` / `StabilityNetwork` /
/// `TreeNetwork` baselines for the others).
fn policy_matrix_legacy_stacks() -> (f64, u64) {
    best_secs(3, || {
        let mut delivered = 0u64;
        for kind in MATRIX_POLICIES {
            for n in MATRIX_SIZES {
                for loss in MATRIX_LOSS {
                    let topo = presets::paper_region(n);
                    let plans = matrix_plans(&topo, loss, n as u64 ^ (loss * 100.0) as u64);
                    match kind {
                        PolicyKind::TwoPhase => {
                            let mut net = RrmpNetwork::new(topo, policy_config(kind), 7);
                            let mut ids = Vec::new();
                            matrix_drive(
                                &plans,
                                &mut net,
                                |net, plan| {
                                    ids.push(multicast_with_session(net, &b"matrix"[..], plan));
                                },
                                |net, t| net.run_until(t),
                                |net| net.now(),
                            );
                            delivered +=
                                ids.iter().map(|&id| net.delivered_count(id) as u64).sum::<u64>();
                        }
                        PolicyKind::HashBufferers => {
                            let mut net = HashNetwork::new(topo, HashConfig::default(), 7);
                            let mut ids = Vec::new();
                            matrix_drive(
                                &plans,
                                &mut net,
                                |net, plan| {
                                    ids.push(net.multicast_with_plan(&b"matrix"[..], plan));
                                },
                                |net, t| net.run_until(t),
                                |net| net.now(),
                            );
                            delivered +=
                                ids.iter().map(|&id| net.delivered_count(id) as u64).sum::<u64>();
                        }
                        PolicyKind::Stability => {
                            let mut net =
                                StabilityNetwork::new(topo, StabilityConfig::default(), 7);
                            let mut ids = Vec::new();
                            matrix_drive(
                                &plans,
                                &mut net,
                                |net, plan| {
                                    ids.push(net.multicast_with_plan(&b"matrix"[..], plan));
                                },
                                |net, t| net.run_until(t),
                                |net| net.now(),
                            );
                            delivered +=
                                ids.iter().map(|&id| net.delivered_count(id) as u64).sum::<u64>();
                        }
                        PolicyKind::TreeRmtp => {
                            let mut net = TreeNetwork::new(topo, TreeConfig::default(), 7);
                            let mut ids = Vec::new();
                            matrix_drive(
                                &plans,
                                &mut net,
                                |net, plan| {
                                    ids.push(net.multicast_with_plan(&b"matrix"[..], plan));
                                },
                                |net, t| net.run_until(t),
                                |net| net.now(),
                            );
                            delivered +=
                                ids.iter().map(|&id| net.delivered_count(id) as u64).sum::<u64>();
                        }
                        _ => {
                            let mut net =
                                SenderBasedNetwork::new(topo, SenderBasedConfig::default(), 7);
                            let mut ids = Vec::new();
                            matrix_drive(
                                &plans,
                                &mut net,
                                |net, plan| {
                                    ids.push(net.multicast_with_plan(&b"matrix"[..], plan));
                                },
                                |net, t| net.run_until(t),
                                |net| net.now(),
                            );
                            delivered +=
                                ids.iter().map(|&id| net.delivered_count(id) as u64).sum::<u64>();
                        }
                    }
                }
            }
        }
        delivered
    })
}

/// One extra shared-engine sweep of the identical matrix with the chaos
/// kit armed — a mid-run loss burst plus low-rate duplication at the
/// network edge, and the liveness watchdog — purely to capture the
/// health signals as columns of the `policy_matrix` entry
/// (`watchdog_rearms`, `faults_dropped`). Deterministic per seed, so the
/// columns only move when the protocol does. Not part of the timing
/// comparison: the legacy stacks have no fault layer or watchdog, so an
/// armed plan would break the delivered-count assert.
fn policy_matrix_chaos_signals() -> (u64, u64) {
    let mut watchdog_rearms = 0u64;
    let mut faults_dropped = 0u64;
    for kind in MATRIX_POLICIES {
        for n in MATRIX_SIZES {
            for loss in MATRIX_LOSS {
                let topo = presets::paper_region(n);
                let plans = matrix_plans(&topo, loss, n as u64 ^ (loss * 100.0) as u64);
                let mut cfg = policy_config(kind);
                // Tight retry caps + a long total unicast blackout: most
                // recoveries exhaust their caps mid-burst and wedge — the
                // state the watchdog exists to re-arm once the burst ends.
                cfg.max_local_attempts = 3;
                cfg.max_remote_attempts = 2;
                cfg.max_search_attempts = 2;
                cfg.watchdog = Some(WatchdogConfig {
                    interval: SimDuration::from_millis(150),
                    horizon: SimDuration::from_millis(300),
                });
                let mut net = RrmpNetwork::new(topo, cfg, 7);
                net.arm_fault_plan(
                    FaultPlan::new(13)
                        .loss_burst(1.0, None, SimTime::from_millis(20), SimTime::from_millis(700))
                        .duplicate(
                            0.05,
                            SimDuration::from_millis(5),
                            SimTime::ZERO,
                            SimTime::from_secs(10),
                        ),
                );
                let mut ids = Vec::new();
                matrix_drive(
                    &plans,
                    &mut net,
                    |net, plan| ids.push(multicast_with_session(net, &b"matrix"[..], plan)),
                    |net, t| net.run_until(t),
                    |net| net.now(),
                );
                faults_dropped += net.net_counters().faults_dropped;
                watchdog_rearms += net
                    .nodes()
                    .map(|(_, n)| n.receiver().metrics().counters.watchdog_rearms)
                    .sum::<u64>();
            }
        }
    }
    (watchdog_rearms, faults_dropped)
}

// ----- workload 10: million-member scaling flagship --------------------------

/// Peak-RSS budget (kB) for the full `members_1m` run: 4 GiB. The compact
/// SoA receiver state plus interval-compressed delivery indexes keep a
/// million mostly-idle members well under this; a regression that
/// reintroduces per-peer or per-source hash maps blows through it.
const MEMBERS_RSS_BUDGET_KB: u64 = 4 * 1024 * 1024;

/// Heterogeneous region-size cycle for the scaling workload: a few large
/// "campus" regions dominating a long tail of small sites — the skew that
/// leaves round-robin placement hostage to which shard drew the big
/// regions, while LPT bin packing spreads them by weight.
const SCALE_REGION_SIZES: [usize; 8] = [4096, 1024, 1024, 256, 64, 64, 64, 64];

/// Builds a `target`-member topology by cycling [`SCALE_REGION_SIZES`]
/// (every region a child of the sender's) until the member budget is
/// spent. Deterministic: same `target`, same topology.
fn members_scale_topology(target: usize) -> Topology {
    let mut builder = rrmp_netsim::topology::TopologyBuilder::new()
        .inter_region_one_way(SimDuration::from_millis(25));
    let mut placed = 0usize;
    let mut i = 0usize;
    while placed < target {
        let size = SCALE_REGION_SIZES[i % SCALE_REGION_SIZES.len()].min(target - placed);
        builder = builder.region(size, if i == 0 { None } else { Some(0) });
        placed += size;
        i += 1;
    }
    builder.build().expect("valid scaling topology")
}

/// One lossy two-message stream over `topo` on the sharded engine with
/// the given region→shard placement. Few messages and a short horizon:
/// the point is state footprint and per-event cost at scale, not repair
/// convergence. Single timed run — at this size construction is part of
/// the cost being measured.
fn members_scale_run(topo: &Topology, shards: usize, placement: ShardPlacement) -> (f64, u64) {
    best_secs(1, || {
        let mut cfg = ProtocolConfig::paper_defaults();
        // The per-node protocol event log is an observability tool; at a
        // million members it would dominate the memory the budget is
        // trying to measure. Turning it off does not change the trace.
        cfg.record_events = false;
        let mut net = RrmpNetwork::with_shards_placement(topo.clone(), cfg, 11, shards, placement);
        net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.05, p_member: 0.01 });
        for _ in 0..2 {
            net.multicast(&b"members-scale-payload"[..]);
            let next = net.now() + SimDuration::from_millis(40);
            net.run_until(next);
        }
        net.run_until(net.now() + SimDuration::from_millis(260));
        net.net_counters().events_processed
    })
}

// ----- reporting -------------------------------------------------------------

/// Peak resident set (VmHWM) in kB from /proc — a cheap RSS proxy.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

struct Comparison {
    name: &'static str,
    unit: &'static str,
    optimized_rate: f64,
    reference_rate: f64,
    work: u64,
    /// Extra scalar signal columns rendered ahead of the timing fields
    /// (deterministic per seed — trend data for `bench_guard`, which
    /// ignores everything but the `"speedup"` line).
    extra: Vec<(&'static str, u64)>,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.optimized_rate / self.reference_rate
    }

    fn json(&self) -> String {
        let extra: String =
            self.extra.iter().map(|(k, v)| format!("      \"{k}\": {v},\n")).collect();
        format!(
            "    \"{}\": {{\n{extra}      \"unit\": \"{}\",\n      \"work_items\": {},\n      \"optimized_per_sec\": {:.0},\n      \"reference_per_sec\": {:.0},\n      \"speedup\": {:.3}\n    }}",
            self.name,
            self.unit,
            self.work,
            self.optimized_rate,
            self.reference_rate,
            self.speedup()
        )
    }
}

/// The full differential suite (everything except the scaling flagship,
/// which `main` runs first for a clean peak-RSS delta).
fn run_core_workloads(comparisons: &mut Vec<Comparison>) {
    eprintln!("multicast_fanout: 1 KiB payload to 200 destinations ...");
    let (opt_s, casts) = fanout_workload(&Bytes::from(vec![0x5Au8; 1024]));
    let (ref_s, ref_casts) = reference_fanout_workload(&[0x5Au8; 1024]);
    assert_eq!(casts, ref_casts);
    comparisons.push(Comparison {
        name: "multicast_fanout",
        unit: "multicasts/sec",
        optimized_rate: casts as f64 / opt_s,
        reference_rate: casts as f64 / ref_s,
        work: casts,
        extra: Vec::new(),
    });

    eprintln!("delivered_query: interval index vs linear scan ...");
    let (opt_rate, ref_rate, queries) = delivered_query_workload();
    comparisons.push(Comparison {
        name: "delivered_query",
        unit: "queries/sec",
        optimized_rate: opt_rate,
        reference_rate: ref_rate,
        work: queries,
        extra: Vec::new(),
    });

    eprintln!("encode_reuse: reused encode buffer vs per-packet allocation ...");
    let (opt_rate, ref_rate, encodes) = encode_reuse_workload();
    comparisons.push(Comparison {
        name: "encode_reuse",
        unit: "encodes/sec",
        optimized_rate: opt_rate,
        reference_rate: ref_rate,
        work: encodes,
        extra: Vec::new(),
    });

    eprintln!("fault_path: 100-member half-lost stream, unarmed vs armed inert fault plan ...");
    let (opt_s, events) = fault_path_workload(false);
    let (ref_s, ref_events) = fault_path_workload(true);
    assert_eq!(events, ref_events, "an inert fault plan must not change the trace");
    comparisons.push(Comparison {
        name: "fault_path",
        unit: "events/sec",
        optimized_rate: events as f64 / opt_s,
        reference_rate: events as f64 / ref_s,
        work: events,
        extra: Vec::new(),
    });

    eprintln!("trace_path: fault_path run, unarmed vs armed observer (samplers off) ...");
    let (opt_s, events) = trace_path_workload(false);
    let (ref_s, ref_events) = trace_path_workload(true);
    assert_eq!(events, ref_events, "arming the observer must not change the trace");
    comparisons.push(Comparison {
        name: "trace_path",
        unit: "events/sec",
        optimized_rate: events as f64 / opt_s,
        reference_rate: events as f64 / ref_s,
        work: events,
        extra: Vec::new(),
    });

    eprintln!("overload: 100-member repair storm, damped vs undamped ...");
    let (opt_s, pkts) = overload_workload(true);
    let (ref_s, ref_pkts) = overload_workload(false);
    // Both arms simulate the identical storm to the identical horizon;
    // what damping buys is wire traffic, so the rates are storms per
    // million repair unicasts (deterministic per seed — this entry does
    // not drift with machine noise, only with protocol changes).
    eprintln!(
        "  damped: {pkts} repair unicasts ({opt_s:.3}s); \
         undamped: {ref_pkts} repair unicasts ({ref_s:.3}s)"
    );
    comparisons.push(Comparison {
        name: "overload",
        unit: "storms/Mpkt",
        optimized_rate: 1e6 / pkts as f64,
        reference_rate: 1e6 / ref_pkts as f64,
        work: pkts,
        extra: Vec::new(),
    });

    eprintln!("queue_ops: 32768-pending schedule/pop storm, wheel vs heap ...");
    let (opt_s, ops) = queue_ops_workload::<EventQueue<u64>>();
    let (ref_s, ref_ops) = queue_ops_workload::<ReferenceEventQueue<u64>>();
    assert_eq!(ops, ref_ops, "both queues must do identical work");
    comparisons.push(Comparison {
        name: "queue_ops",
        unit: "ops/sec",
        optimized_rate: ops as f64 / opt_s,
        reference_rate: ops as f64 / ref_s,
        work: ops,
        extra: Vec::new(),
    });

    eprintln!("multi_run_reuse: 12 runs, warm reset vs fresh construction (both optimized) ...");
    let (opt_s, events) = multi_run_reuse_workload(true);
    let (ref_s, ref_events) = multi_run_reuse_workload(false);
    assert_eq!(events, ref_events, "both modes must process identical event counts");
    comparisons.push(Comparison {
        name: "multi_run_reuse",
        unit: "events/sec",
        optimized_rate: events as f64 / opt_s,
        reference_rate: events as f64 / ref_s,
        work: events,
        extra: Vec::new(),
    });

    eprintln!("policy_matrix: policy x group size x loss rate, shared engine vs legacy stacks ...");
    let (opt_s, delivered) = policy_matrix_shared_engine();
    let (ref_s, ref_delivered) = policy_matrix_legacy_stacks();
    assert_eq!(
        delivered, ref_delivered,
        "shared-engine and legacy-stack sweeps must deliver identical message counts"
    );
    eprintln!("  chaos-signal sweep: matrix + loss burst + duplication + watchdog ...");
    let (watchdog_rearms, faults_dropped) = policy_matrix_chaos_signals();
    eprintln!("  watchdog_rearms={watchdog_rearms} faults_dropped={faults_dropped}");
    comparisons.push(Comparison {
        name: "policy_matrix",
        unit: "deliveries/sec",
        optimized_rate: delivered as f64 / opt_s,
        reference_rate: delivered as f64 / ref_s,
        work: delivered,
        extra: vec![("watchdog_rearms", watchdog_rearms), ("faults_dropped", faults_dropped)],
    });

    eprintln!("parallel_regions: 32 regions x 2048 members, shard count sweep ...");
    let mut shard_rates = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let (secs, events) = parallel_regions_run(shards);
        let rate = events as f64 / secs;
        eprintln!("  shards={shards}: {rate:.0} events/sec ({events} events)");
        shard_rates.push((shards, rate, events));
    }
    let (_, seq_rate, seq_events) = shard_rates[0];
    for &(shards, _, events) in &shard_rates[1..] {
        assert_eq!(
            events, seq_events,
            "sharded run at {shards} shards diverged from the sequential oracle"
        );
    }
    let &(_, four_rate, _) =
        shard_rates.iter().find(|&&(s, _, _)| s == 4).expect("4-shard arm runs");
    comparisons.push(Comparison {
        name: "parallel_regions",
        unit: "events/sec",
        optimized_rate: four_rate,
        reference_rate: seq_rate,
        work: seq_events,
        extra: Vec::new(),
    });
}

fn main() {
    let mut out_path = "BENCH_sim_core.json".to_string();
    let mut scale_members: usize = 1_000_000;
    let mut members_only = false;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--members=") {
            scale_members = v.parse().expect("--members takes a positive integer");
            assert!(scale_members > 0, "--members takes a positive integer");
        } else if arg == "--members-only" {
            members_only = true;
        } else {
            out_path = arg;
        }
    }
    // The flagship keeps its headline name only at full size, so a
    // shrunken run (CI smoke) can never overwrite the committed
    // million-member numbers unnoticed — bench_guard reports the renamed
    // workload as missing instead of comparing apples to oranges.
    let scale_name: &'static str =
        if scale_members == 1_000_000 { "members_1m" } else { "members_scale" };
    let mut comparisons = Vec::new();

    // Runs first: VmHWM is a high-water mark, so only with nothing before
    // it does (after - before) approximate this workload's own footprint.
    eprintln!(
        "{scale_name}: {scale_members} members, heterogeneous regions, \
         LPT vs round-robin placement @ 4 shards ..."
    );
    let rss_before = peak_rss_kb();
    let topo = members_scale_topology(scale_members);
    let scale_regions = topo.region_count();
    let (lpt_s, lpt_events) = members_scale_run(&topo, 4, ShardPlacement::LoadAware);
    // The budgeted delta covers the optimized (load-aware) arm only: the
    // round-robin arm exists for the timing ratio and the trace assert,
    // and running it before the measurement would fold the allocator's
    // retained-heap fragmentation from a second full network into the
    // high-water mark.
    let rss_after = peak_rss_kb();
    let rss_delta = rss_after.saturating_sub(rss_before);
    let (rr_s, rr_events) = members_scale_run(&topo, 4, ShardPlacement::RoundRobin);
    assert_eq!(lpt_events, rr_events, "shard placement must not change the trace");
    drop(topo);
    eprintln!(
        "  {scale_regions} regions, {lpt_events} events; LPT {:.0}/s vs round-robin {:.0}/s; \
         peak-RSS delta {rss_delta} kB (budget {MEMBERS_RSS_BUDGET_KB} kB)",
        lpt_events as f64 / lpt_s,
        rr_events as f64 / rr_s,
    );
    comparisons.push(Comparison {
        name: scale_name,
        unit: "events/sec",
        optimized_rate: lpt_events as f64 / lpt_s,
        reference_rate: rr_events as f64 / rr_s,
        work: lpt_events,
        extra: Vec::new(),
    });

    if !members_only {
        run_core_workloads(&mut comparisons);
    }

    let rss = peak_rss_kb();
    let body = comparisons.iter().map(Comparison::json).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"sim_core\",\n  \"description\": \"timing-wheel scheduler + batched regional delivery + zero-allocation event loop vs faithful pre-refactor baselines (identical deterministic workloads)\",\n  \"peak_rss_proxy_kb\": {rss},\n  \"peak_rss_budget_kb\": {MEMBERS_RSS_BUDGET_KB},\n  \"peak_rss_note\": \"the budget applies to members_scale.rss_delta_kb (the workload's own footprint, measured around it); peak_rss_proxy_kb is the whole process including every other workload and is informational only\",\n  \"members_scale\": {{\n    \"members\": {scale_members},\n    \"regions\": {scale_regions},\n    \"rss_before_kb\": {rss_before},\n    \"rss_after_kb\": {rss_after},\n    \"rss_delta_kb\": {rss_delta}\n  }},\n  \"workloads\": {{\n{body}\n  }}\n}}\n"
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    println!("{json}");
    for c in &comparisons {
        println!(
            "{:<20} {:>12.0} vs {:>12.0} {}  => {:.2}x",
            c.name,
            c.optimized_rate,
            c.reference_rate,
            c.unit,
            c.speedup()
        );
    }
}
