//! Sharded execution domains for the cycle-level machine.
//!
//! [`crate::machine::GpuSystem`] partitions its cores, DC-L1 nodes, NoC#1
//! crossbars and L2 slices into [`ShardDomain`]s. Each simulated cycle is
//! a sequence of *regions* — per-domain work that touches only one
//! domain's state — separated by coordinator-run *serial phases* that move
//! cross-domain traffic in a deterministic order (global component order,
//! enforced by [`EpochKey`]-sorted batches). Because regions are
//! domain-disjoint and serial phases are single-threaded, the machine's
//! statistics are a pure function of the partition, not of how many OS
//! threads execute the regions: running every region inline or fanning
//! them out over a [`ShardPool`] is byte-identical.
//!
//! ## Regions and staging buffers
//!
//! Every partition is *aligned* — direct attachment with one node per
//! core, or NoC#1 cut on cluster boundaries (the machine clamps the shard
//! count so it always is) — and runs two regions per cycle:
//!
//! * **Front** — core issue, the domain-local outbox exchange (every
//!   outbox head's home node or cluster crossbar is in the issuing
//!   domain), and the NoC#1 ticks;
//! * **Mem** — L2 slice ticks, DC-L1 node ticks and the node-reply drain.
//!
//! The serial phases never touch a domain's node or L2 queues. Instead,
//! every region ends by *publishing* what the next serial phase reads into
//! the domain's [`Outbound`] buffer (Q3 heads, Q4 room, ready L2 reply
//! heads, L2 input room after Front; DRAM-bound heads, presence deltas and
//! a [`DomainSummary`] after Mem), and the coordinator answers with
//! deferred pops and pushes — a list of [`Op`]s in production order — which
//! the domain applies at the start of its next region.
//!
//! **Ordering argument.** Deferral is invisible because each published
//! value is exactly what the serial phase would have read, and each
//! deferred operation lands before anything else can observe its queue:
//!
//! * Q3 heads, Q4 room and L2 reply heads/room are published at the end
//!   of Front; between Front and the serial phase nothing touches those
//!   queues.
//!   The resulting Q3 pops, reply pops, L2 enqueues and Q4 pushes are
//!   applied at the start of Mem — before the L2 and node ticks, the
//!   first readers — in the order the serial phase produced them, and
//!   operations on different queues of one component commute.
//! * DRAM-bound heads are published at the end of Mem; the serial phase's
//!   pops and the memory controllers' fills are applied at the start of
//!   the next Front, pops first, as the serial phase performed them. Only
//!   the cycle-start CTA dispatch runs in between, and it touches cores.
//! * Presence reads are deferred too: a node tick logs a *replication
//!   query* for each miss, and the coordinator resolves every domain's
//!   queries against the cycle-start map before replaying any domain's
//!   fill/evict deltas — exactly the snapshot semantics of
//!   [`PresenceSession`] — crediting replicated misses back through
//!   an [`Op`]. Presence feeds statistics only, and statistics are read
//!   only after the coordinator has flushed every domain's inbound buffer.
//!
//! ## Persistent workers
//!
//! With threads on, worker `w` keeps domain `w + 1` in its inbox for the
//! whole run; the coordinator runs domain 0 itself. Each region is one
//! *round*: the coordinator swaps the worker's [`DomainIo`] (order plus
//! staging buffers) into the inbox, bumps the inbox's round counter, runs
//! domain 0, and then waits until every worker's done counter reaches the
//! round — one atomic barrier per region, on per-worker cache lines. A
//! round is claimed exactly once (compare-and-swap): normally by its
//! spinning worker within a fraction of a microsecond, but if the worker
//! has not claimed it by the time the coordinator's own domain is done —
//! descheduled by the host, parked, or outnumbered by shard threads on a
//! small machine — the coordinator claims and runs it itself, so a
//! missing thread costs parallelism, never a stall. Waiting threads spin
//! for a bounded time, then yield, then park. Domains come back to the
//! coordinator only at a *sync* — run end, CTA dispatch, warmup reset,
//! watchdog/registry/metrics snapshots — which takes them out of the
//! inboxes between rounds.
//!
//! The partition itself is also semantics-neutral by construction — see
//! `GpuSystem::set_shards` for the determinism argument.

use crate::design::{Attachment, Topology};
use crate::node::Dcl1Node;
use crate::presence::{PresenceLog, PresenceSession};
use crate::txn::Txn;
use dcl1_common::stats::RunningMean;
use dcl1_common::{Cycle, FlowMeter, Histogram, LineAddr};
use dcl1_gpu::{Core, MemBlock, MemKind};
use dcl1_mem::{DramAccess, L2Reply, L2Request, L2Slice};
use dcl1_noc::{Crossbar, EpochBatch, EpochKey, Packet};
use dcl1_obs::Observer;
use dcl1_resilience::SimError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
// Wall time in this module is used only for (a) per-shard busy/barrier
// timing exported as diagnostics and (b) the barrier spin budget and hang
// timeout; it never feeds statistics.
// simcheck: allow(wall_clock): shard busy/barrier diagnostics and hang timeout only, never feeds stats
use std::time::{Duration, Instant};

/// Seconds the coordinator waits for one shard's region before declaring
/// the run wedged. A region is a bounded amount of work (microseconds in
/// practice); exceeding this means a worker is livelocked or the OS has
/// wedged the thread, and supervision should quarantine the point.
const BARRIER_TIMEOUT_SECS: u64 = 60;

/// How long a waiting thread spins before it starts yielding, when every
/// shard thread has a CPU of its own. Covers a serial phase (a few
/// microseconds) with a wide margin, so steady-state rounds never pay a
/// scheduler wake-up.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Yields after the spin budget before a waiting thread parks.
const YIELD_ROUNDS: u32 = 32;

/// Longest single park of an idle worker. Rounds unpark parked workers
/// explicitly; the timeout only bounds the cost of a lost wake-up.
const WORKER_PARK: Duration = Duration::from_millis(10);

/// Longest single park of the waiting coordinator (nobody unparks it, so
/// this is its polling interval once spinning and yielding gave up).
const COORDINATOR_PARK: Duration = Duration::from_micros(50);

/// Rounds between wall-clock samples of shard busy and barrier time: a
/// clock read costs about as much as the barrier itself on virtualized
/// hosts, so one round in this many is timed and scaled up. Odd, so the
/// samples alternate between the two regions of a cycle.
pub(crate) const TIMING_SAMPLE: u64 = 7;

/// Wall nanoseconds since `t0`, scaled up for one round in
/// [`TIMING_SAMPLE`].
// simcheck: allow(wall_clock): sampled shard diagnostics, never feeds stats
pub(crate) fn sampled_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX).saturating_mul(TIMING_SAMPLE)
}

/// Static name of a transaction kind for trace span args.
pub(crate) fn kind_str(kind: MemKind) -> &'static str {
    match kind {
        MemKind::Load => "load",
        MemKind::Store => "store",
        MemKind::Atomic => "atomic",
        MemKind::Aux => "aux",
    }
}

/// Request data bytes on NoC#1/NoC#2 toward the memory side.
pub(crate) fn down_bytes(txn: &Txn) -> u32 {
    match txn.kind {
        MemKind::Load | MemKind::Aux => 0,
        MemKind::Store | MemKind::Atomic => txn.bytes,
    }
}

/// Reply data bytes toward the core.
pub(crate) fn up_bytes(txn: &Txn) -> u32 {
    match txn.kind {
        MemKind::Load | MemKind::Aux | MemKind::Atomic => txn.bytes,
        MemKind::Store => 0,
    }
}

/// Immutable machine facts shared by every domain (and thread).
#[derive(Debug)]
pub(crate) struct MachineCtx {
    /// The resolved topology (routing, cluster shapes, tick ratios).
    pub topo: Topology,
    /// Total cores in the machine (transaction-id construction).
    pub cores_total: u64,
    /// Effective flit width (config flit bytes × topology multiplier).
    pub flit_bytes: u32,
}

impl MachineCtx {
    /// Builds a packet using the effective flit width.
    pub fn packet(&self, src: usize, dst: usize, data_bytes: u32, txn: Txn) -> Packet<Txn> {
        Packet { src, dst, flits: 1 + data_bytes.div_ceil(self.flit_bytes), payload: txn }
    }

    /// Data ports per node: the Q3 entries it may hand to NoC#2, and the
    /// Q2 replies a direct-attached node returns, per cycle (the ideal
    /// single L1 has one per core).
    pub fn node_ports(&self) -> usize {
        if self.topo.ideal_ports {
            usize::try_from(self.cores_total).unwrap_or(usize::MAX)
        } else {
            1
        }
    }
}

/// Per-core round-trip-time meters.
///
/// Kept per core (not per machine) so completions recorded concurrently by
/// different domains merge into machine-level means in a fixed order —
/// global core order — independent of the shard count.
#[derive(Debug, Default, Clone)]
pub(crate) struct CoreMeter {
    pub load_rtt: RunningMean,
    pub hit_rtt: RunningMean,
    pub miss_rtt: RunningMean,
    pub rtt_hist: Histogram,
}

/// What the coordinator needs summarized at the end of a cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Probe {
    /// Wavefronts per CTA while the dispatcher still holds CTAs (0 when it
    /// is exhausted): report whether any core could host another one.
    pub cta_wavefronts: usize,
    /// Compute the idle fast-forward horizon.
    pub horizon: bool,
    /// Take the idle/instruction census (run-loop probe cycles).
    pub census: bool,
}

/// Idle/instruction census of one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Census {
    /// Every core drained, every outbox, node, crossbar and slice idle.
    pub idle: bool,
    /// Instructions retired by the domain's cores.
    pub instructions: u64,
}

/// A domain's end-of-cycle report to the coordinator: what the run loop's
/// per-cycle decisions (CTA dispatch, idle fast-forward, idle exit,
/// warmup) need without reading the domain's components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DomainSummary {
    /// The cycle whose end this summary describes (`None` = never taken).
    pub at: Option<Cycle>,
    /// Steps until the domain's earliest timer event when it is quiescent
    /// (`None` = active, or not computed).
    pub horizon: Option<u64>,
    /// Some core could host another CTA.
    pub can_host: bool,
    /// Census, when requested.
    pub census: Option<Census>,
}

/// Domain → coordinator staging: what the next serial phase reads,
/// published at the end of a region. Indices are domain-local.
#[derive(Debug, Default)]
pub(crate) struct Outbound {
    /// `(node, txn)`: up to [`MachineCtx::node_ports`] Q3 heads per node, in
    /// node order (end of Front).
    pub q3_heads: Vec<(usize, Txn)>,
    /// Free Q4 slots per node (end of Front); the coordinator ejects NoC#2
    /// replies against its own working copy.
    pub q4_room: Vec<u16>,
    /// `(slice, reply)`: each slice's reply head if its latency elapsed,
    /// in slice order (end of Front).
    pub l2_replies: Vec<(usize, L2Reply<Txn>)>,
    /// Free input-queue slots per slice (end of Front).
    pub l2_room: Vec<u16>,
    /// `(slice, access)`: each slice's DRAM-bound head, in slice order
    /// (end of Mem).
    pub dram_heads: Vec<(usize, DramAccess)>,
    /// Presence deltas and replication queries from this cycle's node
    /// ticks (end of Mem; drained by the coordinator's replay).
    pub plog: PresenceLog,
    /// End-of-cycle summary (end of Mem).
    pub summary: DomainSummary,
}

/// One coordinator → domain operation decided by a serial phase, applied
/// at the start of the domain's next region (or at a sync) in the order
/// the serial phases produced it. Indices are domain-local.
#[derive(Debug)]
pub(crate) enum Op {
    /// The slice's DRAM-bound head moved to the memory side.
    DramPop(usize),
    /// A DRAM fill of `line` into the slice.
    Fill(usize, LineAddr),
    /// One replicated miss credited to the node (statistics only).
    Replicated(usize),
    /// Idle cycles fast-forwarded past (every component of the domain).
    Skip(u64),
    /// The node's Q3 head entered NoC#2.
    Q3Pop(usize),
    /// The slice's published reply head entered the reply stash.
    L2Pop(usize),
    /// A NoC#2 ejection into the slice's input queue.
    L2Enq(usize, L2Request<Txn>),
    /// A NoC#2 ejection into the node's Q4.
    Q4Push(usize, Txn),
}

/// What a worker is asked to do with its domain this round.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Order {
    /// Nothing (a fresh buffer).
    Idle,
    /// Run one region at the given cycle.
    Region(Region, Cycle),
}

/// One domain's coordinator ↔ domain traffic: the round's order, the
/// pending operations and the published staging. Owned by the coordinator
/// between regions; swapped into a worker's inbox for the duration of a
/// pooled round. The struct is a few words (the published buffers are
/// boxed), so the swap is cheap.
#[derive(Debug)]
pub(crate) struct DomainIo {
    pub order: Order,
    /// Pending coordinator operations, in production order.
    pub inbound: Vec<Op>,
    pub out: Box<Outbound>,
}

impl DomainIo {
    /// Empty buffers with no order.
    pub fn new() -> Self {
        DomainIo { order: Order::Idle, inbound: Vec::new(), out: Box::default() }
    }
}

/// One per-domain slice of a simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// Core issue, the domain-local outbox exchange and the NoC#1 ticks.
    Front,
    /// L2 slice ticks, DC-L1 node ticks and the node-reply drain, then the
    /// end-of-cycle summary.
    Mem {
        /// What to summarize.
        probe: Probe,
    },
    /// A region that panics (pool failure-path tests).
    #[cfg(test)]
    Fault,
}

/// One NoC#1 flit batch per cluster, for an outbox exchange.
pub(crate) type ClusterBatches = Vec<EpochBatch<Packet<Txn>>>;

/// One shard's slice of the machine: a contiguous range of cores (with
/// their outboxes, meters and transaction sequencers), DC-L1 nodes, NoC#1
/// cluster crossbars and L2 slices, plus its outbox-exchange scratch.
#[derive(Debug)]
pub(crate) struct ShardDomain {
    /// First global core index in this domain.
    pub core0: usize,
    /// First global node index.
    pub node0: usize,
    /// First global NoC#1 cluster index.
    pub cluster0: usize,

    pub cores: Vec<Core>,
    /// Per-core coalesced transactions awaiting injection.
    pub outbox: Vec<VecDeque<Txn>>,
    /// Outcome of each core's most recent outbox-drain attempt (memoized
    /// stall attribution; meaningful only while the outbox is non-empty).
    pub outbox_cause: Vec<MemBlock>,
    /// Per-core issue counters: core `c`'s `k`-th transaction gets id
    /// `k * cores_total + c + 1`, globally unique and independent of the
    /// partition.
    pub txn_seq: Vec<u64>,
    /// Per-core RTT meters (merged in global core order at collection).
    pub meters: Vec<CoreMeter>,
    pub nodes: Vec<Dcl1Node>,
    pub noc1_req: Vec<Crossbar<Txn>>,
    pub noc1_rep: Vec<Crossbar<Txn>>,
    pub l2: Vec<L2Slice<Txn>>,

    /// Per-local-cluster flit batches for the outbox exchange.
    pub xchg: ClusterBatches,
    /// Reused (core, txn-id) scratch for exchange acceptance bookkeeping.
    pub accepted: Vec<(u64, u64)>,
    /// Transaction conservation: produced at issue, consumed at
    /// completion. A transaction issues and completes at the same core,
    /// so the meter is domain-local.
    pub flow: FlowMeter,
    /// Wall nanoseconds this domain spent executing regions (diagnostics
    /// only; nondeterministic by nature).
    pub busy_nanos: u64,
}

impl ShardDomain {
    /// The empty stand-in left in the machine while the real domain sits
    /// in a worker's inbox.
    pub fn placeholder() -> Self {
        ShardDomain {
            core0: 0,
            node0: 0,
            cluster0: 0,
            cores: Vec::new(),
            outbox: Vec::new(),
            outbox_cause: Vec::new(),
            txn_seq: Vec::new(),
            meters: Vec::new(),
            nodes: Vec::new(),
            noc1_req: Vec::new(),
            noc1_rep: Vec::new(),
            l2: Vec::new(),
            xchg: Vec::new(),
            accepted: Vec::new(),
            flow: FlowMeter::new("txns"),
            busy_nanos: 0,
        }
    }

    /// Executes one region against this domain only: applies the
    /// coordinator's deferred operations, runs the region, publishes what
    /// the next serial phase reads.
    pub fn run_region(
        &mut self,
        region: Region,
        now: Cycle,
        ctx: &MachineCtx,
        io: &mut DomainIo,
        obs: &mut Observer,
    ) {
        self.apply_inbound(&mut io.inbound, ctx);
        match region {
            Region::Front => {
                self.region_issue(now, ctx, obs);
                self.region_exchange(now, ctx, obs);
                self.region_noc1(now, ctx, obs);
                self.publish_front(ctx, &mut io.out);
            }
            Region::Mem { probe } => {
                self.region_mem(&mut io.out.plog, obs);
                self.drain_replies(now, ctx, obs);
                self.publish_mem(&mut io.out);
                if probe != Probe::default() {
                    io.out.summary = self.summarize(now, probe);
                }
            }
            #[cfg(test)]
            Region::Fault => panic!("injected shard fault at cycle {now}"),
        }
    }

    /// Applies the coordinator's deferred operations in the order the
    /// serial phases produced them (see the module docs).
    pub fn apply_inbound(&mut self, ops: &mut Vec<Op>, ctx: &MachineCtx) {
        drain_each(ops, |op| match op {
            Op::DramPop(ls) => {
                self.l2[ls].pop_dram().unwrap_or_else(|| unreachable!("published DRAM head"));
            }
            Op::Fill(ls, line) => self.l2[ls].dram_fill(line),
            Op::Replicated(ln) => self.nodes[ln].credit_replicated_miss(),
            Op::Skip(cycles) => self.skip_idle(cycles, ctx),
            Op::Q3Pop(ln) => {
                self.nodes[ln].pop_l2_request().unwrap_or_else(|| unreachable!("published head"));
            }
            Op::L2Pop(ls) => {
                self.l2[ls].pop_reply().unwrap_or_else(|| unreachable!("published reply"));
            }
            Op::L2Enq(ls, req) => {
                self.l2[ls].try_enqueue(req).unwrap_or_else(|_| unreachable!("published room"));
            }
            Op::Q4Push(ln, txn) => {
                self.nodes[ln]
                    .try_push_l2_reply(txn)
                    .unwrap_or_else(|_| unreachable!("published room"));
            }
        });
    }

    /// Advances every component clock by `cycles` idle cycles (the
    /// domain's share of an idle fast-forward).
    fn skip_idle(&mut self, cycles: u64, ctx: &MachineCtx) {
        let n1 = cycles * ctx.topo.noc1_ticks_per_cycle();
        for c in &mut self.cores {
            c.add_idle_cycles(cycles);
        }
        for x in self.noc1_req.iter_mut().chain(self.noc1_rep.iter_mut()) {
            x.skip_idle_ticks(n1);
        }
        for n in &mut self.nodes {
            n.skip_idle_cycles(cycles);
        }
        for l2 in &mut self.l2 {
            l2.skip_idle_cycles(cycles);
        }
    }

    /// Core issue (one instruction per core per cycle) into the per-core
    /// outboxes.
    fn region_issue(&mut self, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        for i in 0..self.cores.len() {
            if self.cores[i].is_drained() {
                // A drained core's tick is a fruitless slot scan that only
                // counts an idle cycle; account for it directly.
                self.cores[i].add_idle_cycles(1);
                continue;
            }
            // The memory port is closed exactly when the outbox is
            // non-empty; the cause was memoized by the last exchange.
            let block =
                if self.outbox[i].is_empty() { None } else { Some(self.outbox_cause[i]) };
            let Some(issued) = self.cores[i].tick_blocked(now, block) else { continue };
            let c = self.core0 + i;
            for a in &issued.instr.accesses {
                let id = self.txn_seq[i] * ctx.cores_total + c as u64 + 1;
                self.txn_seq[i] += 1;
                let txn = Txn {
                    id,
                    core: issued.core,
                    wavefront: issued.wavefront,
                    line: a.line,
                    bytes: a.bytes,
                    kind: issued.instr.kind,
                    issued_at: now,
                    l1_hit: false,
                };
                if obs.tracing() {
                    obs.trace_begin(txn.id, now, c as u64, kind_str(txn.kind), txn.line.raw());
                }
                self.flow.produce(1);
                self.outbox[i].push_back(txn);
            }
        }
    }

    /// The outbox exchange: each outbox head moves into its (domain-local)
    /// home node's Q1 or cluster crossbar, in ascending core order,
    /// memoizing why a head could not move so issue can attribute the next
    /// port stall without re-probing the network. Identical to the
    /// one-domain machine's global walk restricted to this domain, because
    /// no head's destination lies outside it.
    fn region_exchange(&mut self, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        match ctx.topo.attachment {
            Attachment::Direct => {
                for i in 0..self.outbox.len() {
                    let Some(&head) = self.outbox[i].front() else { continue };
                    let ni = ctx.topo.home_node(self.core0 + i, head.line) - self.node0;
                    if self.nodes[ni].can_accept_request() {
                        let txn = self.outbox[i]
                            .pop_front()
                            .unwrap_or_else(|| unreachable!("peeked head exists"));
                        self.outbox_cause[i] = MemBlock::OutboxDrain;
                        obs.trace_hop(txn.id, "l1_queue", now);
                        self.nodes[ni]
                            .try_push_request(txn)
                            .unwrap_or_else(|_| unreachable!("checked room"));
                    } else {
                        self.outbox_cause[i] = MemBlock::L1Queue;
                    }
                }
            }
            Attachment::Noc1 { .. } => {
                let cpc = ctx.topo.cores_per_cluster();
                let m = ctx.topo.nodes_per_cluster();
                // Clusters are contiguous core ranges and cores stage in
                // ascending order, so each batch stages in key order.
                for i in 0..self.outbox.len() {
                    let Some(&txn) = self.outbox[i].front() else { continue };
                    let c = self.core0 + i;
                    let node = ctx.topo.home_node(c, txn.line);
                    let ki = ctx.topo.cluster_of_core(c) - self.cluster0;
                    self.xchg[ki].stage(
                        EpochKey { cycle: now, source: c as u64, seq: txn.id },
                        ctx.packet(c % cpc, node % m, down_bytes(&txn), txn),
                    );
                }
                for ki in 0..self.xchg.len() {
                    if self.xchg[ki].is_empty() {
                        continue;
                    }
                    self.xchg[ki].seal();
                    self.accepted.clear();
                    let accepted = &mut self.accepted;
                    self.noc1_req[ki].inject_batch(&mut self.xchg[ki], |key, pkt| {
                        accepted.push((key.source, pkt.payload.id));
                    });
                    for &(core_u, txn_id) in &self.accepted {
                        let ci = usize::try_from(core_u)
                            .unwrap_or_else(|_| unreachable!("core id fits usize"))
                            - self.core0;
                        let txn = self.outbox[ci]
                            .pop_front()
                            .unwrap_or_else(|| unreachable!("staged head exists"));
                        debug_assert_eq!(txn.id, txn_id);
                        self.outbox_cause[ci] = MemBlock::OutboxDrain;
                        obs.trace_hop(txn_id, "noc1_req", now);
                    }
                    // Rejected heads stay in their outboxes (re-staged
                    // next cycle); only the stall cause is recorded.
                    for &(key, _) in self.xchg[ki].entries() {
                        let ci = usize::try_from(key.source)
                            .unwrap_or_else(|_| unreachable!("core id fits usize"))
                            - self.core0;
                        self.outbox_cause[ci] = MemBlock::Noc;
                    }
                    self.xchg[ki].clear();
                }
            }
        }
    }

    /// NoC#1 ticks for this domain's clusters, with request ejection into
    /// this domain's nodes and reply completion at this domain's cores.
    /// The partition is cluster-aligned, so both sides of every crossbar
    /// are domain-local.
    fn region_noc1(&mut self, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        if self.noc1_req.is_empty() {
            return;
        }
        let ticks = ctx.topo.noc1_ticks_per_cycle();
        let m = ctx.topo.nodes_per_cluster();
        let cpc = ctx.topo.cores_per_cluster();
        for _ in 0..ticks {
            for ki in 0..self.noc1_req.len() {
                let k = self.cluster0 + ki;
                self.noc1_req[ki].tick();
                // Eject requests into node Q1 (respecting Q1 room). The
                // occupancy count lets quiet switches skip the port scan.
                if self.noc1_req[ki].has_output() {
                    for slot in 0..m {
                        let ni = k * m + slot - self.node0;
                        while self.nodes[ni].can_accept_request() {
                            match self.noc1_req[ki].pop_output(slot) {
                                Some(pkt) => {
                                    obs.trace_hop(pkt.payload.id, "l1_queue", now);
                                    self.nodes[ni]
                                        .try_push_request(pkt.payload)
                                        .unwrap_or_else(|_| unreachable!("checked room"));
                                }
                                None => break,
                            }
                        }
                    }
                }
                self.noc1_rep[ki].tick();
                if self.noc1_rep[ki].has_output() {
                    for port in 0..cpc {
                        while let Some(pkt) = self.noc1_rep[ki].pop_output(port) {
                            self.complete_at_core(pkt.payload, now, obs);
                        }
                    }
                }
            }
        }
    }

    /// L2 slice ticks and node ticks (presence effects go to the domain's
    /// log).
    fn region_mem(&mut self, plog: &mut PresenceLog, obs: &mut Observer) {
        for l2 in &mut self.l2 {
            l2.tick();
        }
        for (ni, node) in self.nodes.iter_mut().enumerate() {
            node.tick(&mut PresenceSession::new(plog, ni), obs);
        }
    }

    /// Node Q2 → core (direct) or NoC#1 reply injection, domain-local, in
    /// node order: a direct-attached node returns one reply per data port
    /// per cycle, a clustered node injects at most one into its crossbar.
    fn drain_replies(&mut self, now: Cycle, ctx: &MachineCtx, obs: &mut Observer) {
        match ctx.topo.attachment {
            Attachment::Direct => {
                let ports = ctx.node_ports();
                for ni in 0..self.nodes.len() {
                    for _ in 0..ports {
                        let Some(txn) = self.nodes[ni].pop_reply() else { break };
                        self.complete_at_core(txn, now, obs);
                    }
                }
            }
            Attachment::Noc1 { .. } => {
                let m = ctx.topo.nodes_per_cluster();
                let cpc = ctx.topo.cores_per_cluster();
                for ni in 0..self.nodes.len() {
                    let n = self.node0 + ni;
                    let ki = n / m - self.cluster0;
                    let Some(txn) = self.nodes[ni].peek_reply() else { continue };
                    let src = n % m;
                    let dst = txn.core.index() % cpc;
                    if self.noc1_rep[ki].can_inject(src) {
                        let txn = self.nodes[ni].pop_reply().expect("peeked Some");
                        obs.trace_hop(txn.id, "noc1_rep", now);
                        let pkt = ctx.packet(src, dst, up_bytes(&txn), txn);
                        self.noc1_rep[ki]
                            .try_inject(pkt)
                            .unwrap_or_else(|_| unreachable!("checked room"));
                    }
                }
            }
        }
    }

    /// Publishes what the NoC#2 serial phase reads: Q3 heads, Q4 room,
    /// ready L2 reply heads and L2 input room.
    fn publish_front(&self, ctx: &MachineCtx, out: &mut Outbound) {
        let pops = ctx.node_ports();
        clear(&mut out.q3_heads);
        for (ni, node) in self.nodes.iter().enumerate() {
            out.q3_heads.extend(node.l2_requests().take(pops).map(|t| (ni, *t)));
        }
        publish(&mut out.q4_room, self.nodes.iter().map(|n| room(n.l2_reply_room())));
        clear(&mut out.l2_replies);
        for (si, s) in self.l2.iter().enumerate() {
            if let Some(r) = s.peek_reply() {
                out.l2_replies.push((si, r.clone()));
            }
        }
        publish(&mut out.l2_room, self.l2.iter().map(|s| room(s.input_room())));
    }

    /// Publishes each slice's DRAM-bound head for the memory exchange.
    fn publish_mem(&self, out: &mut Outbound) {
        clear(&mut out.dram_heads);
        for (si, s) in self.l2.iter().enumerate() {
            if let Some(&a) = s.peek_dram() {
                out.dram_heads.push((si, a));
            }
        }
    }

    /// The end-of-cycle summary the coordinator's run loop decides from.
    fn summarize(&mut self, now: Cycle, probe: Probe) -> DomainSummary {
        let wpc = probe.cta_wavefronts;
        DomainSummary {
            at: Some(now),
            horizon: if probe.horizon { self.horizon(now, wpc) } else { None },
            can_host: wpc > 0 && self.cores.iter().any(|c| c.can_host_cta(wpc)),
            census: probe.census.then(|| Census {
                idle: self.is_idle(),
                instructions: self.cores.iter().map(|c| c.stats().instructions.get()).sum(),
            }),
        }
    }

    /// This domain's share of the idle fast-forward test: `None` while any
    /// component still does work on its own (or a core could take a
    /// pending CTA), otherwise the steps until the earliest fixed-latency
    /// timer fires — the same per-component rules the machine applies to
    /// its coordinator-owned parts.
    fn horizon(&mut self, now: Cycle, cta_wavefronts: usize) -> Option<u64> {
        if self.outbox.iter().any(|o| !o.is_empty())
            || !self.noc1_req.iter().chain(self.noc1_rep.iter()).all(Crossbar::is_idle)
        {
            return None;
        }
        let mut horizon = u64::MAX;
        for n in &self.nodes {
            horizon = horizon.min(n.quiescent_horizon()?);
        }
        for s in &self.l2 {
            match s.quiescent_horizon()? {
                u64::MAX => {}
                // Replies are popped in the inject phase, which sees the
                // slice clock one tick behind the machine step count.
                h => horizon = horizon.min(h + 1),
            }
        }
        for c in &mut self.cores {
            match c.blocked_until(now)? {
                Cycle::MAX => {}
                until => horizon = horizon.min(until - now),
            }
        }
        if cta_wavefronts > 0 && self.cores.iter().any(|c| c.can_host_cta(cta_wavefronts)) {
            return None;
        }
        Some(horizon)
    }

    /// Every core drained and every outbox, node, crossbar and slice idle.
    pub fn is_idle(&self) -> bool {
        self.cores.iter().all(Core::is_drained)
            && self.outbox.iter().all(VecDeque::is_empty)
            && self.nodes.iter().all(Dcl1Node::is_idle)
            && self.noc1_req.iter().chain(self.noc1_rep.iter()).all(Crossbar::is_idle)
            && self.l2.iter().all(L2Slice::is_idle)
    }

    /// Retires a transaction at its issuing core (always in this domain:
    /// a transaction issues and completes at the same core).
    fn complete_at_core(&mut self, txn: Txn, now: Cycle, obs: &mut Observer) {
        self.flow.consume(1);
        obs.trace_end(txn.id, now);
        let ci = txn.core.index() - self.core0;
        if txn.kind == MemKind::Load {
            let rtt = (now - txn.issued_at) as f64;
            let meter = &mut self.meters[ci];
            meter.load_rtt.record(rtt);
            meter.rtt_hist.record(now - txn.issued_at);
            if txn.l1_hit {
                meter.hit_rtt.record(rtt);
            } else {
                meter.miss_rtt.record(rtt);
            }
        }
        self.cores[ci].complete_access(txn.wavefront);
    }
}

// ---------------------------------------------------------------------
// Staging-buffer helpers
// ---------------------------------------------------------------------
//
// A staging buffer's cache lines move between the coordinator's and a
// worker's core only when written, so these helpers never write to a
// buffer that already holds what they would write.

/// Consumes `v` in order, keeping its allocation.
fn drain_each<T>(v: &mut Vec<T>, f: impl FnMut(T)) {
    if !v.is_empty() {
        v.drain(..).for_each(f);
    }
}

/// Empties `v`.
fn clear<T>(v: &mut Vec<T>) {
    if !v.is_empty() {
        v.clear();
    }
}

/// Overwrites `dst` with `src`, writing only the entries that changed.
fn publish<T: Copy + PartialEq>(dst: &mut Vec<T>, src: impl ExactSizeIterator<Item = T>) {
    if dst.len() != src.len() {
        dst.clear();
        dst.extend(src);
        return;
    }
    for (d, v) in dst.iter_mut().zip(src) {
        if *d != v {
            *d = v;
        }
    }
}

/// A queue's free slots as a compact staging value (queues are far
/// smaller than `u16::MAX`).
fn room(slots: usize) -> u16 {
    u16::try_from(slots).unwrap_or(u16::MAX)
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Pool-wide flags, written rarely (so every thread's cached copy stays
/// valid across rounds).
#[derive(Debug)]
struct Gate {
    /// `worker + 1` of a worker whose round panicked (0 = none).
    dead: AtomicUsize,
    /// Workers currently parked (a new round unparks them).
    sleepers: AtomicUsize,
    stop: AtomicBool,
    /// Spin budget before yielding (zero when threads outnumber CPUs:
    /// spinning then only steals the CPU the awaited thread needs).
    spin: Duration,
}

/// A worker's domain and the current round's buffers. Whoever claims a
/// round runs it under the lock around this.
#[derive(Debug)]
struct Work {
    io: DomainIo,
    domain: Option<ShardDomain>,
}

/// A worker's inbound side, on its own cache lines: the latest round
/// released to it, and its work.
#[derive(Debug)]
#[repr(align(128))]
struct Inbox {
    /// Rounds released to this worker (the latest one's order is in
    /// `work.io`).
    go: AtomicU64,
    work: Mutex<Work>,
}

/// A worker's round bookkeeping, on its own cache lines.
#[derive(Debug)]
#[repr(align(128))]
struct Done {
    /// Latest round claimed — by the worker, or by the coordinator when it
    /// found the round unclaimed (the worker descheduled, parked, or
    /// outnumbered by shard threads on a small host).
    claimed: AtomicU64,
    /// Latest round finished.
    finished: AtomicU64,
}

/// Marks the worker dead if dropped while armed — i.e. if its round
/// panicked before the worker could disarm it.
struct DeadGuard<'a> {
    gate: &'a Gate,
    worker: usize,
    armed: bool,
}

impl Drop for DeadGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.gate.dead.store(self.worker + 1, Ordering::Release);
        }
    }
}

/// Blocks until the coordinator releases a round after `seen` to this
/// worker: spin, then yield, then park. `None` when the pool is stopping.
fn await_round(gate: &Gate, go: &AtomicU64, seen: u64) -> Option<u64> {
    // simcheck: allow(wall_clock): spin-budget bookkeeping, never feeds stats
    let mut t0: Option<Instant> = None;
    let mut tries = 0u32;
    let mut yields = 0u32;
    loop {
        let round = go.load(Ordering::Acquire);
        if round != seen {
            return Some(round);
        }
        tries = tries.wrapping_add(1);
        if !tries.is_multiple_of(64) {
            std::hint::spin_loop();
            continue;
        }
        if gate.stop.load(Ordering::Acquire) {
            return None;
        }
        // simcheck: allow(wall_clock): spin-budget bookkeeping, never feeds stats
        let started = *t0.get_or_insert_with(Instant::now);
        if started.elapsed() < gate.spin {
            continue;
        }
        if yields < YIELD_ROUNDS {
            yields += 1;
            std::thread::yield_now();
            continue;
        }
        // Announce the park, then re-check: the coordinator publishes the
        // round before reading `sleepers` (both SeqCst), so either this
        // re-check sees the round or the coordinator sees the sleeper and
        // unparks it.
        gate.sleepers.fetch_add(1, Ordering::SeqCst);
        if go.load(Ordering::SeqCst) == seen && !gate.stop.load(Ordering::SeqCst) {
            std::thread::park_timeout(WORKER_PARK);
        }
        gate.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs claimed round `round` on `work`'s domain (worker or coordinator
/// side — the region is the same either way).
fn run_claimed(work: &Mutex<Work>, round: u64, ctx: &MachineCtx, obs: &mut Observer) {
    let mut work = work.lock().unwrap_or_else(PoisonError::into_inner);
    let Work { io, domain } = &mut *work;
    let Order::Region(region, now) = io.order else { return };
    let d = domain.as_mut().unwrap_or_else(|| unreachable!("domain handed off before its region"));
    if round.is_multiple_of(TIMING_SAMPLE) {
        // simcheck: allow(wall_clock): per-shard busy diagnostics, never feeds stats
        let t0 = Instant::now();
        d.run_region(region, now, ctx, io, obs);
        d.busy_nanos += sampled_nanos(t0);
    } else {
        d.run_region(region, now, ctx, io, obs);
    }
}

fn worker_loop(worker: usize, gate: &Gate, inbox: &Inbox, done: &Done, ctx: &MachineCtx) {
    let mut obs = Observer::disabled();
    let mut seen = 0u64;
    while let Some(round) = await_round(gate, &inbox.go, seen) {
        seen = round;
        // Rounds are claimed exactly once; losing the claim means the
        // coordinator already ran (or is running) this one.
        if done
            .claimed
            .compare_exchange(round - 1, round, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        let mut guard = DeadGuard { gate, worker, armed: true };
        run_claimed(&inbox.work, round, ctx, &mut obs);
        guard.armed = false;
        done.finished.store(round, Ordering::Release);
    }
}

/// A fixed set of worker threads, one per non-coordinator shard. Worker
/// `w`'s domain stays in its inbox for the whole run, and each region is
/// one round: released by the coordinator, claimed and run by the worker
/// — or by the coordinator itself if the worker has not claimed it by the
/// time the coordinator's own domain is done. See the module docs.
#[derive(Debug)]
pub(crate) struct ShardPool {
    gate: Arc<Gate>,
    /// Per-worker state, struct-of-arrays so each worker's hot lines are
    /// its own.
    inbox: Arc<[Inbox]>,
    done: Arc<[Done]>,
    threads: Vec<JoinHandle<()>>,
    /// Machine facts and an inert observer for rounds the coordinator
    /// runs on a worker's behalf.
    ctx: Arc<MachineCtx>,
    obs: Observer,
    /// Rounds started so far.
    round: u64,
}

impl ShardPool {
    /// Spawns `workers` threads (shards minus the coordinator's).
    pub fn new(workers: usize, ctx: &Arc<MachineCtx>) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let gate = Arc::new(Gate {
            dead: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            spin: if workers < cpus { SPIN_BUDGET } else { Duration::ZERO },
        });
        let inbox: Arc<[Inbox]> = (0..workers)
            .map(|_| Inbox {
                go: AtomicU64::new(0),
                work: Mutex::new(Work { io: DomainIo::new(), domain: None }),
            })
            .collect();
        let done: Arc<[Done]> = (0..workers)
            .map(|_| Done { claimed: AtomicU64::new(0), finished: AtomicU64::new(0) })
            .collect();
        let threads = (0..workers)
            .map(|w| {
                let (gate, ctx) = (Arc::clone(&gate), Arc::clone(ctx));
                let (inbox, done) = (Arc::clone(&inbox), Arc::clone(&done));
                std::thread::Builder::new()
                    .name(format!("dcl1-shard-{}", w + 1))
                    .spawn(move || worker_loop(w, &gate, &inbox[w], &done[w], &ctx))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool {
            gate,
            inbox,
            done,
            threads,
            ctx: Arc::clone(ctx),
            obs: Observer::disabled(),
            round: 0,
        }
    }

    /// Worker count (pool capacity).
    pub fn workers(&self) -> usize {
        self.inbox.len()
    }

    fn work(&self, worker: usize) -> std::sync::MutexGuard<'_, Work> {
        self.inbox[worker].work.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `domain` to worker `worker` until recalled. Only between
    /// rounds.
    pub fn hand_off(&self, worker: usize, domain: ShardDomain) {
        self.work(worker).domain = Some(domain);
    }

    /// Takes back worker `worker`'s domain (`None` if it was lost to a
    /// panicked round). Only between rounds.
    pub fn take_back(&self, worker: usize) -> Option<ShardDomain> {
        self.work(worker).domain.take()
    }

    /// Starts a round: moves each worker's buffers (`io[w]`, carrying its
    /// order) into its inbox and releases the worker.
    pub fn start(&mut self, io: &mut [DomainIo]) {
        debug_assert_eq!(io.len(), self.inbox.len());
        self.round += 1;
        for (w, buf) in io.iter_mut().enumerate() {
            std::mem::swap(&mut self.work(w).io, buf);
            self.inbox[w].go.store(self.round, Ordering::SeqCst);
        }
        if self.gate.sleepers.load(Ordering::SeqCst) > 0 {
            for t in &self.threads {
                t.thread().unpark();
            }
        }
    }

    /// Finishes the round everywhere — running any round its worker has
    /// not claimed yet — moves the buffers back into `io`, and returns the
    /// coordinator's wall wait in nanoseconds (sampled: zero on untimed
    /// rounds, scaled up on timed ones).
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] when a worker died mid-round (its domain is
    /// lost — the machine must be discarded) or the barrier timeout
    /// elapsed.
    pub fn finish(&mut self, io: &mut [DomainIo], cycle: Cycle) -> Result<u64, SimError> {
        let round = self.round;
        // simcheck: allow(wall_clock): barrier-wait diagnostics, never feeds stats
        let sampled = self.timed().then(Instant::now);
        let mut ran_here = Duration::ZERO;
        for (inbox, done) in self.inbox.iter().zip(self.done.iter()) {
            if done.finished.load(Ordering::Acquire) == round {
                continue;
            }
            if done
                .claimed
                .compare_exchange(round - 1, round, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // simcheck: allow(wall_clock): barrier-wait diagnostics, never feeds stats
                let t0 = sampled.map(|_| Instant::now());
                run_claimed(&inbox.work, round, &self.ctx, &mut self.obs);
                done.finished.store(round, Ordering::Release);
                ran_here += t0.map_or(Duration::ZERO, |t| t.elapsed());
                continue;
            }
            self.gate.await_finished(done, round, cycle)?;
        }
        let waited = sampled.map_or(0, |t0| {
            let wait = t0.elapsed().saturating_sub(ran_here);
            u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX).saturating_mul(TIMING_SAMPLE)
        });
        for (w, buf) in io.iter_mut().enumerate() {
            std::mem::swap(&mut self.work(w).io, buf);
        }
        Ok(waited)
    }

    /// Whether the current round is one of the wall-clock-sampled ones
    /// (see [`TIMING_SAMPLE`]).
    pub fn timed(&self) -> bool {
        self.round.is_multiple_of(TIMING_SAMPLE)
    }

    /// Stops the workers without waiting for them: the failure path, where
    /// a wedged worker must not hang the caller. Live workers exit at
    /// their next round check.
    pub fn abandon(mut self) {
        self.signal_stop();
        // Dropping the handles detaches the threads.
        self.threads.clear();
    }

    fn signal_stop(&self) {
        self.gate.stop.store(true, Ordering::SeqCst);
        for t in &self.threads {
            t.thread().unpark();
        }
    }
}

impl Gate {
    /// Waits for a worker to finish its claimed round: spin, then yield,
    /// then short parks, checking for worker death and the hang timeout.
    fn await_finished(&self, done: &Done, round: u64, cycle: Cycle) -> Result<(), SimError> {
        // simcheck: allow(wall_clock): spin budget and hang timeout, never feeds stats
        let mut t0: Option<Instant> = None;
        let mut tries = 0u32;
        let mut yields = 0u32;
        while done.finished.load(Ordering::Acquire) != round {
            tries = tries.wrapping_add(1);
            if !tries.is_multiple_of(64) {
                std::hint::spin_loop();
                continue;
            }
            let dead = self.dead.load(Ordering::Acquire);
            if dead != 0 {
                return Err(SimError::Livelock {
                    cycle,
                    dump: format!(
                        "shard worker {dead} died mid-region (panicked); domain state lost"
                    ),
                });
            }
            // simcheck: allow(wall_clock): spin budget and hang timeout, never feeds stats
            let waited = t0.get_or_insert_with(Instant::now).elapsed();
            if waited < self.spin {
                continue;
            }
            if waited > Duration::from_secs(BARRIER_TIMEOUT_SECS) {
                return Err(SimError::Livelock {
                    cycle,
                    dump: format!(
                        "a shard worker exceeded the {BARRIER_TIMEOUT_SECS}s epoch barrier"
                    ),
                });
            }
            if yields < YIELD_ROUNDS {
                yields += 1;
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(COORDINATOR_PARK);
            }
        }
        Ok(())
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.signal_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Per-shard execution report for one run (bench diagnostics).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Number of execution domains the machine was partitioned into.
    pub shards: usize,
    /// Wall nanoseconds the coordinator spent waiting at epoch barriers.
    pub barrier_wait_nanos: u64,
    /// Wall nanoseconds each shard spent executing regions.
    pub busy_nanos: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Design, GpuConfig};

    fn ctx() -> Arc<MachineCtx> {
        let cfg = GpuConfig::default();
        let topo = Design::Baseline.topology(&cfg).expect("baseline resolves");
        Arc::new(MachineCtx { topo, cores_total: cfg.cores as u64, flit_bytes: cfg.flit_bytes })
    }

    /// A pool whose workers each hold an (empty) domain.
    fn pool(workers: usize) -> (ShardPool, Vec<DomainIo>) {
        let pool = ShardPool::new(workers, &ctx());
        for w in 0..workers {
            pool.hand_off(w, ShardDomain::placeholder());
        }
        (pool, (0..workers).map(|_| DomainIo::new()).collect())
    }

    fn round(
        pool: &mut ShardPool,
        io: &mut [DomainIo],
        region: Region,
        now: Cycle,
    ) -> Result<u64, SimError> {
        for buf in io.iter_mut() {
            buf.order = Order::Region(region, now);
        }
        pool.start(io);
        pool.finish(io, now)
    }

    #[test]
    fn panicking_worker_surfaces_as_livelock_promptly() {
        let (mut pool, mut io) = pool(2);
        let front = Region::Front;
        round(&mut pool, &mut io, front, 1).expect("healthy round");
        io[0].order = Order::Region(front, 2);
        io[1].order = Order::Region(Region::Fault, 2);
        let t0 = Instant::now();
        pool.start(&mut io);
        // Stand in for the coordinator's own domain: give worker 2 time
        // to claim its round, so the fault happens on the worker.
        while pool.done[1].claimed.load(Ordering::Acquire) != pool.round {
            std::thread::yield_now();
        }
        let err = pool.finish(&mut io, 2).expect_err("a panicked worker must fail the barrier");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "worker death took {:?} to surface",
            t0.elapsed()
        );
        match err {
            SimError::Livelock { cycle, dump } => {
                assert_eq!(cycle, 2);
                assert!(dump.contains("worker 2 died"), "{dump}");
            }
            other => panic!("expected Livelock, got {other}"),
        }
        pool.abandon();
    }

    #[test]
    fn oversubscribed_pool_completes_and_recalls_every_domain() {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let workers = 2 * cpus + 1;
        let (mut pool, mut io) = pool(workers);
        let probe = Probe { cta_wavefronts: 0, horizon: true, census: true };
        for now in 1..=2_000 {
            round(&mut pool, &mut io, Region::Front, now).expect("front round");
            round(&mut pool, &mut io, Region::Mem { probe }, now)
                .expect("mem round");
            assert!(io.iter().all(|b| b.out.summary.at == Some(now)), "a round was skipped");
        }
        for w in 0..workers {
            assert!(pool.take_back(w).is_some(), "worker {w} lost its domain");
        }
    }
}
