//! The region-sharded parallel engine.
//!
//! Nodes are partitioned into `k` spatial stripes (sorted by initial x-position);
//! each stripe's [`NodeCore`] and [`KeyedQueue`] are drained by a worker thread. Shards
//! advance in **conservative synchronization windows**: with `m` the earliest pending
//! event anywhere and `δ` the radio's fixed propagation delay, every event in `[m, b]`
//! with `b ≤ m + δ − 1 ns` can only spawn *cross-shard* arrivals at `≥ m + δ > b`,
//! so a round that drains all events `≤ b` never misses a remote event. The only
//! cross-shard event class is packet delivery (timers, MAC retries and application
//! sends are node-local; faults and churn are seeded up front), which is what makes
//! the bound `δ = fixed_delay` valid.
//!
//! **Determinism.** Every event carries a canonical key and queues pop in
//! `(time, key)` order, so each node's event sequence is a pure function of the
//! global event set — *invariant of the shard count*. The same setup produces
//! byte-identical reports at 1, 2 or 8 shards. The node semantics are the sequential
//! engine's own (`super::semantics`); the seam below answers the questions on which
//! the engines differ: positions quantise to sync-window refresh points, channel-loss
//! draws come from per-sender `"shard-loss"` streams, carrier capture is evaluated at
//! delivery, and session energy is kept per `(session, node)` and reduced in ascending
//! global node order, which makes the floating-point sums partition-independent. On
//! exact physics the reports equal the sequential engine's byte for byte.

use super::semantics::{
    Key, NodeCore, Seam, RANK_APPSEND, RANK_DELIVER, RANK_FAULT, RANK_MEMBERSHIP,
};
use super::{observe, Delivery, NetEvent, NetworkSim, SimSetup};
use crate::agent::ProtocolAgent;
use crate::engine::EngineConfig;
use crate::faults::{FaultKind, StabilizationObserver};
use crate::geometry::Vec2;
use crate::harvest::HarvestPlan;
use crate::node::NodeId;
use crate::report::SimReport;
use crate::spatial::SpatialIndex;
use ssmcast_dessim::{EventId, KeyedQueue, SimDuration, SimTime};
use ssmcast_metrics::EngineStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Positions and spatial index frozen between coordinator refreshes. Workers take one
/// read lock per round; the coordinator write-locks only while every worker waits at
/// the round barrier.
struct Frozen {
    positions: Vec<Vec2>,
    index: SpatialIndex,
}

/// Everything one worker owns: its stripe's node core and event queue.
struct ShardState<A: ProtocolAgent> {
    core: NodeCore<A>,
    queue: KeyedQueue<Key, NetEvent<A::Payload>>,
    /// Earliest cross-shard push made this round, nanos (`u64::MAX` when none). Folded
    /// into the published minimum so the coordinator's window bound covers events
    /// sitting in lanes that their destination has not drained yet.
    round_lane_min: u64,
    events_processed: u64,
    peak_depth: u64,
}

impl<A: ProtocolAgent> ShardState<A> {
    /// The node core and the seam shard `w`'s handlers run it through.
    fn parts<'a>(
        &'a mut self,
        fz: &'a Frozen,
        cx: &'a Ctx<'a>,
        shared: &'a Shared<A>,
        w: usize,
    ) -> (&'a mut NodeCore<A>, Sharded<'a, A>) {
        let ShardState { core, queue, round_lane_min, .. } = self;
        (core, Sharded { queue, lane_min: round_lane_min, fz, cx, shared, w })
    }

    /// The earliest event this shard knows of: queued, or pushed into a lane this round.
    fn pending_min(&mut self) -> u64 {
        self.queue.peek_time().map_or(u64::MAX, SimTime::as_nanos).min(self.round_lane_min)
    }
}

/// One cross-shard mailbox: timestamped, canonically-keyed events from a single
/// source shard, drained by the destination at the start of its next round.
type Lane<P> = Mutex<Vec<(SimTime, Key, NetEvent<P>)>>;

/// State shared between the coordinator and the workers.
struct Shared<A: ProtocolAgent> {
    shards: Vec<Mutex<ShardState<A>>>,
    /// `lanes[dst][src]`: cross-shard deliveries from `src` to `dst`.
    lanes: Vec<Vec<Lane<A::Payload>>>,
    frozen: RwLock<Frozen>,
    /// Per-node link-blackout horizon, nanos. Written only by the coordinator, which
    /// applies every blackout between windows; read by every worker. `Relaxed` suffices:
    /// the round barrier orders each write before the workers' next reads.
    blackout_until: Vec<AtomicU64>,
    /// Per-shard published minimum (nanos), `u64::MAX` when idle.
    mins: Vec<AtomicU64>,
    /// Current window end in nanos; `u64::MAX` tells workers to exit.
    window_end: AtomicU64,
    barrier: Barrier,
    panicked: AtomicBool,
}

const DONE: u64 = u64::MAX;

/// Poison-tolerant mutex lock: a worker that panicked has already set the shared
/// `panicked` flag, and the coordinator still needs the data for its own panic path.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pread<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Immutable context every worker shares.
struct Ctx<'a> {
    setup: &'a SimSetup,
    /// Materialised per-node harvest rates (inert when harvesting is off).
    harvest: &'a HarvestPlan,
    /// Global node id → shard.
    shard_of: &'a [u32],
    /// Global node id → index in its shard's core.
    local_of: &'a [u32],
}

/// The sharded engine's seam: shard `w`'s keyed queue, lanes to the other shards, the
/// frozen topology, per-sender loss streams, capture at delivery and per-node energy.
struct Sharded<'a, A: ProtocolAgent> {
    queue: &'a mut KeyedQueue<Key, NetEvent<A::Payload>>,
    lane_min: &'a mut u64,
    fz: &'a Frozen,
    cx: &'a Ctx<'a>,
    shared: &'a Shared<A>,
    w: usize,
}

impl<'a, A: ProtocolAgent> Seam<'a, A::Payload> for Sharded<'a, A> {
    const PER_NODE_ENERGY: bool = true;
    const PER_SENDER_LOSS: bool = true;
    const CAPTURE_AT_DELIVERY: bool = true;

    fn setup(&self) -> &'a SimSetup {
        self.cx.setup
    }

    fn harvest(&self) -> &'a HarvestPlan {
        self.cx.harvest
    }

    fn local(&self, node: NodeId) -> usize {
        self.cx.local_of[node.index()] as usize
    }

    fn shard(&self, node: NodeId) -> usize {
        self.cx.shard_of[node.index()] as usize
    }

    fn schedule(&mut self, at: SimTime, key: Key, ev: NetEvent<A::Payload>) -> EventId {
        self.queue.push(at, key, ev)
    }

    fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }

    /// The delivery splits into one per destination shard, each keeping its receivers
    /// ascending; a transmission whose receivers all live on one shard stays whole.
    fn deliver(&mut self, at: SimTime, tx: u64, delivery: Box<Delivery<A::Payload>>) {
        let first = self.shard(delivery.to[0].0);
        if delivery.to.iter().all(|&(rx, _)| self.shard(rx) == first) {
            self.route(at, tx, first, delivery);
            return;
        }
        let mut parts = vec![Vec::new(); self.shared.shards.len()];
        for &(rx, corrupted) in &delivery.to {
            parts[self.shard(rx)].push((rx, corrupted));
        }
        for (dst, to) in parts.into_iter().enumerate().filter(|(_, to)| !to.is_empty()) {
            let part = Delivery {
                session: delivery.session,
                tx_start: delivery.tx_start,
                piggyback: delivery.piggyback.clone(),
                packet: delivery.packet.clone(),
                to,
            };
            self.route(at, tx, dst, Box::new(part));
        }
    }

    fn position(&mut self, node: NodeId, _t: SimTime) -> Vec2 {
        self.fz.positions[node.index()]
    }

    fn positions(&mut self, _t: SimTime) -> &[Vec2] {
        &self.fz.positions
    }

    fn is_blacked_out(&self, node: NodeId, t: SimTime) -> bool {
        t.as_nanos() < self.shared.blackout_until[node.index()].load(Ordering::Relaxed)
    }

    fn black_out(&mut self, node: NodeId, until: SimTime) {
        self.shared.blackout_until[node.index()].fetch_max(until.as_nanos(), Ordering::Relaxed);
    }

    fn receivers_within(&mut self, sender: NodeId, range: f64, t: SimTime, out: &mut Vec<NodeId>) {
        let center = self.fz.positions[sender.index()];
        self.fz.index.query_disc(center, range, Some(sender), out);
        out.retain(|&id| !self.is_blacked_out(id, t));
    }

    fn farthest_distance(&mut self, center: Vec2, ids: &[NodeId], _t: SimTime) -> f64 {
        ids.iter().map(|&id| self.fz.positions[id.index()].distance(&center)).fold(0.0, f64::max)
    }
}

impl<A: ProtocolAgent> Sharded<'_, A> {
    /// Queue one shard's part of transmission `tx`, keyed by its first receiver: into
    /// this shard's queue, or into the lane to shard `dst`, whose time then folds into
    /// this round's published minimum.
    fn route(&mut self, at: SimTime, tx: u64, dst: usize, part: Box<Delivery<A::Payload>>) {
        let (sender, first) = (part.packet.sender, part.to[0].0);
        let key = (RANK_DELIVER, u64::from(sender.0), tx, u64::from(first.0), 0);
        if dst == self.w {
            self.queue.push(at, key, NetEvent::Deliver(part));
        } else {
            plock(&self.shared.lanes[dst][self.w]).push((at, key, NetEvent::Deliver(part)));
            *self.lane_min = (*self.lane_min).min(at.as_nanos());
        }
    }
}

/// Build the spatial partition: nodes sorted by initial `(x, y, id)` and cut into `k`
/// contiguous stripes; each stripe's owned list is then re-sorted ascending by id.
/// Returns `(owned_per_shard, shard_of, local_of)`.
fn partition(positions: &[Vec2], k: usize) -> (Vec<Vec<u32>>, Vec<u32>, Vec<u32>) {
    let n = positions.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (positions[a as usize], positions[b as usize]);
        pa.x.total_cmp(&pb.x).then(pa.y.total_cmp(&pb.y)).then(a.cmp(&b))
    });
    let mut owned: Vec<Vec<u32>> = Vec::with_capacity(k);
    for w in 0..k {
        let start = w * n / k;
        let end = (w + 1) * n / k;
        let mut ids: Vec<u32> = order[start..end].to_vec();
        ids.sort_unstable();
        owned.push(ids);
    }
    let mut shard_of = vec![0u32; n];
    let mut local_of = vec![0u32; n];
    for (w, ids) in owned.iter().enumerate() {
        for (li, &gi) in ids.iter().enumerate() {
            shard_of[gi as usize] = w as u32;
            local_of[gi as usize] = li as u32;
        }
    }
    (owned, shard_of, local_of)
}

/// One worker round: drain incoming lanes, process every event `≤ end`, publish the
/// new minimum.
fn run_window<A: ProtocolAgent>(w: usize, shared: &Shared<A>, cx: &Ctx<'_>, end: SimTime) {
    let mut guard = plock(&shared.shards[w]);
    let st = &mut *guard;
    for src in 0..shared.shards.len() {
        let mut lane = plock(&shared.lanes[w][src]);
        for (at, key, ev) in lane.drain(..) {
            st.queue.push(at, key, ev);
        }
    }
    st.round_lane_min = u64::MAX;
    let fz = pread(&shared.frozen);
    while let Some(t) = st.queue.peek_time().filter(|&t| t <= end) {
        st.peak_depth = st.peak_depth.max(st.queue.len() as u64);
        let (_, _key, ev) = st.queue.pop().expect("peeked event must pop");
        let (core, mut seam) = st.parts(&fz, cx, shared, w);
        st.events_processed += core.dispatch(&mut seam, t, ev);
    }
    drop(fz);
    shared.mins[w].store(st.pending_min(), Ordering::Release);
}

/// Worker thread body: march through coordinator-published windows until told to exit.
/// A panicking round sets the shared flag and keeps honouring the barrier protocol so
/// nobody deadlocks; the coordinator re-raises the panic.
fn worker_loop<A: ProtocolAgent>(w: usize, shared: &Shared<A>, cx: &Ctx<'_>) {
    loop {
        shared.barrier.wait();
        let end = shared.window_end.load(Ordering::Acquire);
        if end == DONE {
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_window(w, shared, cx, SimTime::from_nanos(end));
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::Release);
            shared.mins[w].store(u64::MAX, Ordering::Release);
        }
        shared.barrier.wait();
    }
}

/// Coordinator side, between windows: lock shard `w` (or every shard), run `f` over the
/// core(s) and seam(s), then fold each touched shard's queue into its published
/// minimum — `f` may have queued rejoins, timers, packets or harvest wakes after the
/// worker published its value.
fn with_shards<A: ProtocolAgent, R>(
    shared: &Shared<A>,
    cx: &Ctx<'_>,
    only: Option<usize>,
    f: impl FnOnce(&mut [(&mut NodeCore<A>, Sharded<'_, A>)]) -> R,
) -> R {
    let fz = pread(&shared.frozen);
    let ws: Vec<usize> = only.map_or_else(|| (0..shared.shards.len()).collect(), |w| vec![w]);
    let mut guards: Vec<MutexGuard<'_, ShardState<A>>> =
        ws.iter().map(|&w| plock(&shared.shards[w])).collect();
    let result = {
        let mut parts: Vec<_> =
            guards.iter_mut().zip(&ws).map(|(g, &w)| g.parts(&fz, cx, shared, w)).collect();
        f(&mut parts)
    };
    for (g, &w) in guards.iter_mut().zip(&ws) {
        shared.mins[w].fetch_min(g.pending_min(), Ordering::AcqRel);
    }
    result
}

/// Run `sim` on the sharded engine and produce its report. Called by
/// `NetworkSim::run_inner` when the setup selects a positive shard count.
pub(super) fn run_sharded<A: ProtocolAgent>(
    sim: &mut NetworkSim<A>,
    duration: SimDuration,
    mut probe: Option<&mut dyn StabilizationObserver>,
) -> SimReport {
    let wall = std::time::Instant::now();
    let horizon = SimTime::ZERO + duration;
    let horizon_ns = horizon.as_nanos();
    let k = sim.setup.engine.worker_count();
    let n = sim.setup.n_nodes;
    let n_sessions = sim.setup.n_sessions();
    let delta = sim.setup.radio.fixed_delay;
    assert!(
        k <= 1 || !delta.is_zero(),
        "the sharded engine needs a positive radio fixed_delay to bound its windows \
         (with {k} shards and zero delay, cross-shard deliveries would be instantaneous)"
    );
    let delta_minus_1 = delta.as_nanos().saturating_sub(1);
    let cell_size = sim.setup.radio.max_range_m;

    // --- Partition and frozen topology -------------------------------------------
    let init_positions: Vec<Vec2> = sim.medium.positions(SimTime::ZERO).to_vec();
    let (owned, shard_of, local_of) = partition(&init_positions, k);
    let mut fz = Frozen { positions: init_positions, index: SpatialIndex::default() };
    fz.index.rebuild(&fz.positions, cell_size);

    // --- Build the shard states ---------------------------------------------------
    let mut per_shard_agents: Vec<Vec<A>> = (0..k).map(|_| Vec::new()).collect();
    for (pos, agent) in std::mem::take(&mut sim.core.agents).into_iter().enumerate() {
        // Session-major iteration keeps each shard's vector in `[session][local]`
        // layout: within a session, global ids arrive ascending, exactly the order of
        // the shard's ascending `owned` list.
        per_shard_agents[shard_of[pos % n] as usize].push(agent);
    }
    let mut states: Vec<ShardState<A>> = owned
        .into_iter()
        .zip(per_shard_agents)
        .map(|(ids, agents)| ShardState {
            core: NodeCore::new::<Sharded<'_, A>>(&sim.setup, ids, agents, sim.core.duty.clone()),
            queue: KeyedQueue::with_capacity(256),
            round_lane_min: u64::MAX,
            events_processed: 0,
            peak_depth: 0,
        })
        .collect();

    // --- Seed the event population ------------------------------------------------
    // Blackouts darken *links* (state every shard reads), so they always apply on the
    // coordinator at a synchronization point. Probed runs additionally route *every*
    // seeded fault through the coordinator: the sequential engine notifies the
    // observer after each applied fault with the state as of that fault, so
    // same-instant bursts must apply-and-observe serially, never batched. Unprobed
    // runs keep node-local faults on their owner's shard queue.
    let mut coord_faults: Vec<(u64, u64, FaultKind)> = Vec::new();
    for (plan_idx, fe) in sim.setup.faults.events().iter().enumerate() {
        let plan_idx = plan_idx as u64;
        if fe.at > horizon {
            continue;
        }
        if probe.is_some() || matches!(fe.kind, FaultKind::Blackout { .. }) {
            coord_faults.push((fe.at.as_nanos(), plan_idx, fe.kind));
        } else {
            let w = shard_of[fe.kind.node().index()] as usize;
            let key = (RANK_FAULT, plan_idx, 0, 0, 0);
            states[w].queue.push(fe.at, key, NetEvent::Fault(fe.kind, plan_idx));
        }
    }
    coord_faults.sort_by_key(|&(ns, pi, _)| (ns, pi));
    // Every shard replays every churn event against its own full membership table:
    // the tables stay in lockstep without any cross-shard coordination.
    let mut flat = 0u64;
    for (s, sess) in sim.setup.sessions.iter().enumerate() {
        for ev in &sess.churn {
            if ev.at <= horizon {
                for st in &mut states {
                    let (session, node, change) = (s as u16, ev.node, ev.change);
                    let churn = NetEvent::Membership { session, node, change };
                    st.queue.push(ev.at, (RANK_MEMBERSHIP, flat, 0, 0, 0), churn);
                }
            }
            flat += 1;
        }
    }
    for (s, sess) in sim.setup.sessions.iter().enumerate() {
        if sess.traffic.start < horizon {
            let w = shard_of[sess.traffic.source.index()] as usize;
            let send = NetEvent::AppSend { session: s as u16, seq: 0 };
            states[w].queue.push(sess.traffic.start, (RANK_APPSEND, s as u64, 0, 0, 0), send);
        }
    }

    let shared = Shared {
        shards: states.into_iter().map(Mutex::new).collect(),
        lanes: (0..k).map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect()).collect(),
        frozen: RwLock::new(fz),
        blackout_until: (0..n).map(|_| AtomicU64::new(0)).collect(),
        mins: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
        window_end: AtomicU64::new(0),
        barrier: Barrier::new(k + 1),
        panicked: AtomicBool::new(false),
    };
    let sample_epoch_ns = sim.sample_epoch().as_nanos();
    let lifetime_tracking = sim.lifetime_tracking();
    let NetworkSim { setup, medium, harvest, core: global, curves, probe: scratch, .. } = &mut *sim;
    let cx = Ctx { setup, harvest, shard_of: &shard_of, local_of: &local_of };

    // --- Round zero: start every agent at time zero (coordinator-side) -------------
    with_shards(&shared, &cx, None, |parts| {
        for (core, seam) in parts {
            core.start_all(seam);
        }
    });

    // --- Coordinator state ----------------------------------------------------------
    let sync_window_ns = EngineConfig::SYNC_WINDOW.as_nanos();
    let mut next_refresh = (sync_window_ns <= horizon_ns).then_some(sync_window_ns);
    let probe_epoch_ns = probe.as_deref().map(|o| super::probe_epoch(o).as_nanos());
    let mut next_probe = probe_epoch_ns.filter(|&e| e <= horizon_ns);
    let mut next_sample =
        (lifetime_tracking && sample_epoch_ns <= horizon_ns).then_some(sample_epoch_ns);
    let mut fault_ptr = 0usize;
    let mut sync_rounds: u64 = 0;

    // --- Main loop: workers march through windows, coordinator owns special instants
    std::thread::scope(|scope| {
        for w in 0..k {
            let sh = &shared;
            let cxr = &cx;
            scope.spawn(move || worker_loop(w, sh, cxr));
        }
        loop {
            if shared.panicked.load(Ordering::Acquire) {
                break;
            }
            let m = shared.mins.iter().map(|a| a.load(Ordering::Acquire)).min().unwrap_or(u64::MAX);
            let next_fault = coord_faults.get(fault_ptr).map(|f| f.0);
            let next_special = [next_refresh, next_probe, next_sample].into_iter().flatten().min();
            // Coordinator faults take the sequential queue's fault-first rank: they
            // take effect once everything *strictly earlier* has drained — BEFORE any
            // same-instant packet/timer event, which the window bound below never
            // lets a worker touch first. In probed runs the observer is notified
            // after each applied fault with the fleet exactly as that fault left it,
            // so a same-instant burst observes per fault, as on the sequential engine.
            if let Some(ft) = next_fault {
                if m >= ft && next_special.is_none_or(|sp| ft <= sp) {
                    let t = SimTime::from_nanos(ft);
                    while coord_faults.get(fault_ptr).is_some_and(|f| f.0 == ft) {
                        let (_, plan_idx, kind) = coord_faults[fault_ptr];
                        fault_ptr += 1;
                        let w = shard_of[kind.node().index()] as usize;
                        let applied = with_shards(&shared, &cx, Some(w), |parts| {
                            let (core, seam) = &mut parts[0];
                            core.apply_fault(seam, t, kind, plan_idx)
                        });
                        if applied && !matches!(kind, FaultKind::Rejoin { .. }) {
                            if let Some(observer) = probe.as_deref_mut() {
                                with_shards(&shared, &cx, None, |parts| {
                                    observe(parts, scratch, t, observer, Some(&kind))
                                });
                            }
                        }
                    }
                    continue;
                }
            }
            if let Some(sp) = next_special {
                // All events ≤ sp are drained (m > sp covers lanes too, via the
                // published round minima): the special instant is now observable.
                if m > sp {
                    let t = SimTime::from_nanos(sp);
                    if next_refresh == Some(sp) {
                        let positions = medium.positions(t);
                        let mut fzw = shared.frozen.write().unwrap_or_else(PoisonError::into_inner);
                        let Frozen { positions: fp, index } = &mut *fzw;
                        fp.clear();
                        fp.extend_from_slice(positions);
                        index.rebuild(fp, cell_size);
                        drop(fzw);
                        let nr = sp.saturating_add(sync_window_ns);
                        next_refresh = (nr <= horizon_ns).then_some(nr);
                    }
                    if next_probe == Some(sp) {
                        let observer =
                            probe.as_deref_mut().expect("probe epochs exist only when probed");
                        with_shards(&shared, &cx, None, |parts| {
                            observe(parts, scratch, t, observer, None)
                        });
                        let np =
                            sp.saturating_add(probe_epoch_ns.expect("epoch set with the probe"));
                        next_probe = (np <= horizon_ns).then_some(np);
                    }
                    if next_sample == Some(sp) {
                        with_shards(&shared, &cx, None, |parts| curves.sample(parts, t));
                        let ns2 = sp.saturating_add(sample_epoch_ns);
                        next_sample = (ns2 <= horizon_ns).then_some(ns2);
                    }
                    continue;
                }
            }
            if m > horizon_ns {
                break;
            }
            let mut b = m.saturating_add(delta_minus_1);
            if let Some(sp) = next_special {
                b = b.min(sp);
            }
            // Stop the window one tick short of the next coordinator fault so no
            // worker can process an event *at* the fault instant before it lands.
            if let Some(ft) = next_fault {
                b = b.min(ft.saturating_sub(1));
            }
            b = b.min(horizon_ns);
            shared.window_end.store(b, Ordering::Release);
            sync_rounds += 1;
            shared.barrier.wait();
            shared.barrier.wait();
        }
        shared.window_end.store(DONE, Ordering::Release);
        shared.barrier.wait();
    });
    if shared.panicked.load(Ordering::Acquire) {
        panic!("sharded engine: a worker thread panicked");
    }

    // --- Tear down: accrue to the horizon, merge the shards back, report -----------
    with_shards(&shared, &cx, None, |parts| {
        for (core, seam) in parts {
            core.accrue_all(seam, horizon);
        }
    });
    for (i, until) in shared.blackout_until.iter().enumerate() {
        let until = until.load(Ordering::Relaxed);
        if until > 0 {
            medium.set_blackout(NodeId(i as u32), SimTime::from_nanos(until));
        }
    }
    let states: Vec<ShardState<A>> = shared
        .shards
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let counts: Vec<u64> = states.iter().map(|s| s.events_processed).collect();
    let peak = states.iter().map(|s| s.peak_depth).max().unwrap_or(0);
    let cores: Vec<NodeCore<A>> = states.into_iter().map(|s| s.core).collect();
    merge(global, cores, &shard_of, &local_of, n_sessions);
    sim.finish(duration, probe, || {
        EngineStats::from_counts(k as u32, counts, peak, sync_rounds, wall.elapsed().as_secs_f64())
    })
}

/// Fold the finished shard cores back into the run's global core, which then reads as
/// if the sequential engine had run: per-node state and agents return to their global
/// slots, per-node session energy is reduced in ascending global node order, and the
/// traces, channels, MAC replicas and counters are summed.
fn merge<A: ProtocolAgent>(
    global: &mut NodeCore<A>,
    mut cores: Vec<NodeCore<A>>,
    shard_of: &[u32],
    local_of: &[u32],
    n_sessions: usize,
) {
    let n = shard_of.len();
    let mut slots: Vec<Option<A>> = (0..n * n_sessions).map(|_| None).collect();
    for core in &mut cores {
        let cnt = core.owned.len();
        for (ai, agent) in core.agents.drain(..).enumerate() {
            slots[(ai / cnt) * n + core.owned[ai % cnt] as usize] = Some(agent);
        }
        for (li, &gi) in core.owned.iter().enumerate() {
            let gi = gi as usize;
            global.batteries[gi] = core.batteries[li].clone();
            global.crashed[gi] = core.crashed[li];
            global.rngs[gi] = core.rngs[li].clone();
            global.accrued_until[gi] = core.accrued_until[li];
            global.death_at[gi] = core.death_at[li];
        }
        for s in 0..n_sessions {
            global.traces[s].absorb(&core.traces[s]);
            let (steady, recovery) = (core.silence_steady[s], core.silence_recovery[s]);
            global.silence_steady[s].0 += steady.0;
            global.silence_steady[s].1 += steady.1;
            global.silence_recovery[s].0 += recovery.0;
            global.silence_recovery[s].1 += recovery.1;
        }
        global.channel.absorb(&core.channel);
        global.mac.absorb(core.mac.as_ref());
        global.mac_counts.absorb(&core.mac_counts);
    }
    global.agents = slots.into_iter().map(|a| a.expect("every agent restored")).collect();
    // Every core applied every churn event: any one holds the final tables.
    global.memberships = std::mem::take(&mut cores[0].memberships);
    global.receiver_counts = std::mem::take(&mut cores[0].receiver_counts);
    global.joins = std::mem::take(&mut cores[0].joins);
    global.leaves = std::mem::take(&mut cores[0].leaves);
    // The earliest depletion is min-folded per shard as deaths land: harvest wakes may
    // have cleared `death_at` entries again, so the surviving entries alone would
    // under-report `first_death_s`.
    global.first_depletion =
        cores.iter().filter_map(|c| c.first_depletion).chain(global.first_depletion).min();
    for s in 0..n_sessions {
        let (mut energy, mut overhear) = (0.0f64, 0.0f64);
        for gi in 0..n {
            let core = &cores[shard_of[gi] as usize];
            let slot = s * core.owned.len() + local_of[gi] as usize;
            energy += core.energy[slot];
            overhear += core.overhear[slot];
        }
        global.energy[s] = energy;
        global.overhear[s] = overhear;
    }
}
