//! The `udp_stream` workload: one `UdpRuntime` hosting a whole group on
//! loopback sockets, driven as a closed loop.
//!
//! The next message goes out once every member that got the initial copy
//! has delivered the previous one; a seed-chosen slice of the group
//! misses every initial copy and recovers through the protocol while the
//! stream goes on. Times here are host wall time. The traffic crosses
//! the host's loopback interface, not a real link.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::time::SimDuration;
use rrmp_netsim::topology::{NodeId, RegionId};
use rrmp_udp::{GroupSpec, MemberHandle, PoolSnapshot, RuntimeConfig, RuntimeSnapshot, UdpRuntime};

use crate::spans::Tracer;
use crate::{procfs, MIB, PAYLOAD_BYTES};

/// Receive-slab size class every 1 KiB data datagram and control packet
/// lands in.
const SLAB_BYTES: f64 = rrmp_udp::DATAGRAM_MTU as f64;

/// Event-loop threads of the runtime. Thread `rrmp-udp-loop-0`, whose
/// CPU time the traced run reads, is then the whole loop.
const LOOP_THREADS: usize = 1;

/// How long the stream waits for one message, or for the stragglers
/// after the last, before counting what is missing as undelivered.
const DEADLINE: Duration = Duration::from_secs(20);

/// The `udp_stream` workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpWorkload {
    /// Group members, the sender included.
    pub members: usize,
    /// One member in `lossy_one_in` (chosen from the seed) misses every
    /// initial multicast.
    pub lossy_one_in: usize,
    /// Closed-loop messages sent during set-up, to fill the buffer pool.
    pub warmup: usize,
    /// Closed-loop messages timed.
    pub messages: usize,
}

impl UdpWorkload {
    /// `udp_stream`: 2,000 members on 1 loop thread, a 2% lossy slice,
    /// 8 warmup and 200 timed 1 KiB messages.
    #[must_use]
    pub fn udp_stream() -> Self {
        UdpWorkload { members: 2_000, lossy_one_in: 50, warmup: 8, messages: 200 }
    }

    fn config() -> ProtocolConfig {
        // A relaxed session interval keeps the sender's session fan-out
        // from dominating a large group. The idle threshold bounds the
        // buffered window on wall-clock timers while leaving room for
        // scheduling delays (it must exceed session interval plus RTT).
        ProtocolConfig::builder()
            .session_interval(SimDuration::from_millis(150))
            .idle_threshold(SimDuration::from_millis(400))
            .build()
            .expect("valid udp_stream protocol config")
    }

    fn pool_limit(&self) -> usize {
        // One slab per (member, in-flight message) with room to spare, so
        // buffered payloads never overflow the pool's retained list.
        (self.members * (self.warmup + 12) * rrmp_udp::DATAGRAM_MTU).max(32 << 20)
    }

    /// The members that miss every initial multicast, drawn from `seed`
    /// (never the sender).
    #[must_use]
    pub fn lossy(&self, seed: u64) -> Vec<bool> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
        let want = self.members / self.lossy_one_in;
        let mut lossy = vec![false; self.members];
        let mut picked = 0;
        while picked < want {
            let i = rng.gen_range(1..self.members);
            if !std::mem::replace(&mut lossy[i], true) {
                picked += 1;
            }
        }
        lossy
    }

    /// Payload of message `index`: the index, then a seed-derived fill.
    #[must_use]
    pub fn payload(&self, seed: u64, index: usize) -> Vec<u8> {
        let mut p = vec![(seed as u8) ^ (index as u8); PAYLOAD_BYTES];
        p[..4].copy_from_slice(&(index as u32).to_le_bytes());
        p
    }
}

/// Names of the counters the udp spans read, summed over loops.
pub const UDP_COUNTERS: [&str; 10] = [
    "udp.pool_hits",
    "udp.pool_misses",
    "udp.pool_reclaimed",
    "udp.pool_parked",
    "udp.pool_forfeited",
    "udp.poll_wakeups",
    "udp.idle_ticks",
    "udp.scavenges",
    "udp.send_drops",
    "udp.recv_failures",
];

/// Index of `name` in [`UDP_COUNTERS`].
///
/// # Panics
///
/// Panics if `name` is not a udp counter.
#[must_use]
pub fn udp_counter(name: &str) -> usize {
    UDP_COUNTERS.iter().position(|&n| n == name).expect("a UDP_COUNTERS name")
}

fn fold(pools: &[PoolSnapshot], loops: &[RuntimeSnapshot]) -> Vec<u64> {
    let p = |f: fn(&PoolSnapshot) -> u64| pools.iter().map(f).sum::<u64>();
    let r = |f: fn(&RuntimeSnapshot) -> u64| loops.iter().map(f).sum::<u64>();
    vec![
        p(|s| s.hits),
        p(|s| s.misses),
        p(|s| s.reclaimed),
        p(|s| s.parked),
        p(|s| s.forfeited),
        r(|s| s.poll_wakeups),
        r(|s| s.idle_ticks),
        r(|s| s.scavenges),
        r(|s| s.send_drops),
        r(|s| s.recv_failures),
    ]
}

/// The values of [`UDP_COUNTERS`] now.
#[must_use]
pub fn udp_counts(rt: &UdpRuntime) -> Vec<u64> {
    fold(&rt.pool_snapshots(), &rt.runtime_snapshots())
}

/// Receive slabs on the pools' retained lists now: parked, not yet
/// reclaimed or forfeited. That is every slab still shared when it was
/// released: payloads the members' stores buffer, deliveries not yet
/// drained from the application channels, and slabs whose last holder
/// let go since the last (bounded) sweep.
fn retained_slabs(c: &[u64]) -> u64 {
    c[udp_counter("udp.pool_parked")]
        .saturating_sub(c[udp_counter("udp.pool_reclaimed")])
        .saturating_sub(c[udp_counter("udp.pool_forfeited")])
}

/// Everything one run of `udp_stream` measured.
#[derive(Debug)]
pub struct UdpRun {
    /// Bind, `start`, `add_member` and warmup, wall seconds.
    pub setup_s: f64,
    /// First timed multicast to the last straggler, wall seconds.
    pub timed_s: f64,
    /// Deliveries observed during the timed phase.
    pub timed_deliveries: u64,
    /// Expected (member, message) deliveries, warmup included: every
    /// member but the sender, every message.
    pub expected: u64,
    /// Expected deliveries that happened.
    pub delivered: u64,
    /// Output problems found.
    pub problems: Vec<String>,
    /// Send → delivery, wall ms, of timed pairs that missed the initial copy.
    pub recovery_ms: Vec<f64>,
    /// Send → last initial-copy member delivered, wall ms, per timed message.
    pub complete_ms: Vec<f64>,
    /// Σ over drain passes of retained receive-slab bytes (see
    /// [`retained_slabs`]) × pass length, MiB·s of wall time.
    pub buffer_mb_s: f64,
    /// [`UDP_COUNTERS`] at the start of the timed phase: the reading after
    /// the last warmup call.
    pub counts_start: Vec<u64>,
    /// [`UDP_COUNTERS`] at the end of the timed phase: the reading after
    /// the last drain pass.
    pub counts_end: Vec<u64>,
    /// Pool high-water mark summed over loops, bytes.
    pub pool_high_water: u64,
    /// Wall ns per `MemberHandle::multicast` call.
    pub multicast_ns: Vec<f64>,
    /// Wall seconds the application thread spent draining deliveries.
    pub drain_s: f64,
    /// User and system CPU seconds of loop thread 0 over the timed phase.
    pub loop_cpu_s: (f64, f64),
    /// The spans (empty unless traced).
    pub tracer: Tracer,
}

/// The closed loop's view of the group during one run.
struct Stream<'a> {
    workload: &'a UdpWorkload,
    seed: u64,
    members: &'a [MemberHandle],
    lossy: &'a [bool],
    /// Per member, per message: delivered yet.
    seen: Vec<Vec<bool>>,
    sent_at: Vec<Instant>,
    /// Initial-copy members still to deliver, per message.
    gate: Vec<usize>,
    delivered: u64,
    problems: Vec<String>,
    /// Timed-phase figures; collected only while `timing`.
    timing: bool,
    first_timed: usize,
    timed_deliveries: u64,
    recovery_ms: Vec<f64>,
    complete_ms: Vec<f64>,
}

impl Stream<'_> {
    /// One pass of `try_recv` over every member; returns deliveries seen.
    fn drain_pass(&mut self) -> u64 {
        let mut got = 0;
        for (i, m) in self.members.iter().enumerate() {
            while let Some(d) = m.try_recv() {
                got += 1;
                if i != 0 {
                    self.record(i, &d.payload, d.id.source);
                }
            }
        }
        got
    }

    fn record(&mut self, member: usize, payload: &[u8], source: NodeId) {
        let now = Instant::now();
        let index =
            payload.get(..4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize);
        let Some(index) = index.filter(|&i| i < self.sent_at.len()) else {
            self.problems.push(format!("member {member} delivered an unknown payload"));
            return;
        };
        if source != NodeId(0) || payload != self.workload.payload(self.seed, index).as_slice() {
            self.problems.push(format!("member {member} delivered a corrupt message {index}"));
            return;
        }
        if std::mem::replace(&mut self.seen[member][index], true) {
            self.problems.push(format!("member {member} delivered message {index} twice"));
            return;
        }
        self.delivered += 1;
        let ms = now.duration_since(self.sent_at[index]).as_secs_f64() * 1e3;
        let timed = index >= self.first_timed;
        if self.timing {
            self.timed_deliveries += 1;
        }
        if self.lossy[member] {
            if timed {
                self.recovery_ms.push(ms);
            }
        } else {
            self.gate[index] -= 1;
            if self.gate[index] == 0 && timed {
                self.complete_ms.push(ms);
            }
        }
    }
}

/// Runs `workload` once from `seed`, spans recorded if `traced`.
///
/// # Panics
///
/// Panics if loopback sockets cannot be bound or the runtime cannot start.
#[must_use]
pub fn run(workload: &UdpWorkload, seed: u64, traced: bool) -> UdpRun {
    let mut tracer = Tracer::new(traced);
    let total = workload.warmup + workload.messages;
    let lossy = workload.lossy(seed);

    tracer.begin("setup");
    let setup_start = Instant::now();
    let sockets: Vec<UdpSocket> = (0..workload.members)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind a loopback socket"))
        .collect();
    let mut spec = GroupSpec::new();
    for (i, s) in sockets.iter().enumerate() {
        spec.add_member(NodeId(i as u32), s.local_addr().expect("socket address"), RegionId(0));
    }
    let spec = Arc::new(spec);
    let rt = tracer.span("udp", "runtime_start", || {
        UdpRuntime::start(RuntimeConfig {
            loop_threads: LOOP_THREADS,
            pool_limit_bytes: workload.pool_limit(),
            delivery_capacity: total + 16,
            trace_ring: None,
        })
        .expect("start the runtime")
    });
    let cfg = UdpWorkload::config();
    let mut members = Vec::with_capacity(workload.members);
    for (i, sock) in sockets.into_iter().enumerate() {
        let handle = tracer.span("udp", "add_member", || {
            rt.add_member(
                sock,
                Arc::clone(&spec),
                NodeId(i as u32),
                cfg.clone(),
                i == 0,
                seed ^ i as u64,
            )
            .expect("add a member")
        });
        members.push(handle);
    }
    let drop_set = lossy.clone();
    members[0].set_initial_drop(Some(move |n: NodeId| drop_set[n.index()]));

    let initial = lossy.iter().skip(1).filter(|&&l| !l).count();
    let mut s = Stream {
        workload,
        seed,
        members: &members,
        lossy: &lossy,
        seen: vec![vec![false; total]; workload.members],
        sent_at: Vec::with_capacity(total),
        gate: vec![initial; total],
        delivered: 0,
        problems: Vec::new(),
        timing: false,
        first_timed: workload.warmup,
        timed_deliveries: 0,
        recovery_ms: Vec::new(),
        complete_ms: Vec::new(),
    };
    // Every `multicast` and `drain_pass` is a tiled span: the loop thread
    // moves the counters between calls too, and each change is charged to
    // the next call, so the timed phase's spans sum to its counters.
    let counters = || udp_counts(&rt);
    let mut last = counters();
    let drain_pass = |s: &mut Stream, tracer: &mut Tracer, last: &mut Vec<u64>| {
        let pass = Instant::now();
        tracer.tiled("udp", "drain_pass", last, counters, || {
            if s.drain_pass() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        pass.elapsed().as_secs_f64()
    };
    let mut multicast_ns = Vec::with_capacity(workload.messages);
    let mut drain_s = 0.0;
    let mut buffer_byte_s = 0.0;
    let mut counts_start = Vec::new();
    let mut loop_cpu0 = (0.0, 0.0);
    let mut timed_start = Instant::now();
    let mut setup_s = 0.0;

    for index in 0..total {
        if index == workload.warmup {
            setup_s = setup_start.elapsed().as_secs_f64();
            tracer.end();
            tracer.begin("timed");
            counts_start = last.clone();
            loop_cpu0 = procfs::thread_cpu_s("rrmp-udp-loop-0");
            timed_start = Instant::now();
            s.timing = true;
        }
        let payload = workload.payload(seed, index);
        s.sent_at.push(Instant::now());
        let ns = tracer.tiled("udp", "multicast", &mut last, counters, || {
            let t = Instant::now();
            members[0].multicast(payload);
            t.elapsed().as_nanos() as f64
        });
        if s.timing {
            multicast_ns.push(ns);
        }
        let deadline = Instant::now() + DEADLINE;
        // The closed-loop gate: every initial-copy member has delivered
        // this message. Recovering members are picked up by later passes.
        while s.gate[index] > 0 && Instant::now() < deadline {
            let dt = drain_pass(&mut s, &mut tracer, &mut last);
            if s.timing {
                drain_s += dt;
                buffer_byte_s += retained_slabs(&last) as f64 * SLAB_BYTES * dt;
            }
        }
    }
    // Stragglers: the lossy slice's recovery of the last messages.
    let want = (workload.members as u64 - 1) * total as u64;
    let deadline = Instant::now() + DEADLINE;
    while s.delivered < want && Instant::now() < deadline {
        let dt = drain_pass(&mut s, &mut tracer, &mut last);
        drain_s += dt;
        buffer_byte_s += retained_slabs(&last) as f64 * SLAB_BYTES * dt;
    }
    let timed_s = timed_start.elapsed().as_secs_f64();
    let counts_end = last;
    let loop_cpu1 = procfs::thread_cpu_s("rrmp-udp-loop-0");
    tracer.end();

    let mut problems = std::mem::take(&mut s.problems);
    for (i, m) in members.iter().enumerate() {
        if let Some(kind) = m.recv_failure() {
            problems.push(format!("member {i} socket failed: {kind:?}"));
        }
    }
    let pool_high_water = rt.pool_snapshots().iter().map(|p| p.high_water_bytes).sum();
    let out = UdpRun {
        setup_s,
        timed_s,
        timed_deliveries: s.timed_deliveries,
        expected: want,
        delivered: s.delivered,
        problems,
        recovery_ms: std::mem::take(&mut s.recovery_ms),
        complete_ms: std::mem::take(&mut s.complete_ms),
        buffer_mb_s: buffer_byte_s / MIB,
        counts_start,
        counts_end,
        pool_high_water,
        multicast_ns,
        drain_s,
        loop_cpu_s: (loop_cpu1.0 - loop_cpu0.0, loop_cpu1.1 - loop_cpu0.1),
        tracer,
    };
    drop(members);
    rt.shutdown();
    out
}

/// Span counter totals over the timed phase against the counters' change
/// across it: equal when the phase's calls tile it. Returns the first
/// mismatch.
#[must_use]
pub fn unmeasured_counter(run: &UdpRun) -> Option<(&'static str, u64, u64)> {
    run.tracer.unmeasured("timed", &UDP_COUNTERS, &run.counts_start, &run.counts_end)
}
