//! The stabilization probe: an executable legitimacy predicate plus convergence
//! accounting.
//!
//! The paper proves that the SS-SPST family converges to a *legitimate state* — a
//! correct multicast tree — from any initial state. [`StabilizationProbe`] turns that
//! definition into a measurement device for the event-driven simulator: plugged into
//! [`ssmcast_manet::NetworkSim::run_probed`], it evaluates the predicate at fixed
//! epochs, watches injected faults, and charges recovery time, control/data messages
//! and energy to each fault episode. The result lands in the run report as a
//! [`ConvergenceStats`] block.
//!
//! Since the multi-session refactor the predicate is evaluated **per session**: each
//! concurrent multicast group has its own source, membership table (updated by churn)
//! and per-node protocol instances, so each gets its own tree-validity verdict. The
//! network-wide predicate is the conjunction — the aggregate [`ConvergenceStats`] block
//! means "every session legitimate", and [`StabilizationProbe::session_stats`] breaks
//! the same accounting down per session for the report's per-group blocks.
//!
//! # The legitimacy predicate (per session)
//!
//! At a probe instant a session is *legitimate* iff, over the alive nodes (neither
//! crashed nor battery-depleted):
//!
//! 1. the session's source reports no parent and is neither dead nor blacked out,
//! 2. parent pointers are loop-free,
//! 3. every alive **member** that the current [`TopologySnapshot`]'s unit-disc graph
//!    (restricted to alive nodes) connects to the source has a parent chain reaching
//!    the source, and
//! 4. every hop of those chains is an edge of the snapshot between alive,
//!    non-blacked-out nodes (no stale, out-of-range or dark links).
//!
//! [`legitimate_over`] checks the parent chains first and searches the snapshot for
//! reachability from the source only after a chain fails, since a valid chain already
//! proves its member reachable. The verdict is the one the definition above gives, and
//! a legitimate tree is checked in time proportional to its members' depths.
//!
//! Crash and blackout are treated differently on purpose: a *dead* member is exempt
//! from coverage (no protocol can serve it), but a *blacked-out* member still counts —
//! its node runs, only its links are dark — so a blackout episode cannot close before
//! the blackout ends (and whatever tree repair it caused completes). Otherwise a
//! blackout on a leaf member would "recover" at the next probe epoch with no protocol
//! action at all.
//!
//! This is the structural half of the paper's legitimate-state definition: a valid,
//! loop-free, source-rooted multicast tree consistent with the current topology. It
//! deliberately does not demand metric-optimality — the event-driven agent's switch
//! hysteresis keeps trees slightly sub-optimal on purpose. Members that are physically
//! partitioned from the source are exempt (no protocol could attach them), and
//! protocols that maintain no rooted structure at all (blind flooding) are never
//! legitimate — which is exactly the measurable difference between a self-stabilizing
//! tree protocol and a structure-free baseline under the same fault schedule.

use ssmcast_dessim::{SimDuration, SimTime};
use ssmcast_manet::{
    FaultKind, GroupRole, NodeId, ProbeContext, StabilizationObserver, TopologySnapshot,
};
use ssmcast_metrics::ConvergenceStats;

/// The predicate over explicit pieces, usable from tests without a running simulator.
pub fn legitimate_over(
    snapshot: &TopologySnapshot,
    parents: &[Option<NodeId>],
    alive: &[bool],
    blacked_out: &[bool],
    roles: &[GroupRole],
) -> bool {
    let n = snapshot.len();
    if n == 0
        || parents.len() != n
        || alive.len() != n
        || blacked_out.len() != n
        || roles.len() != n
    {
        return false;
    }
    let Some(source) = roles.iter().position(|r| r.is_source()) else {
        return false;
    };
    let source = NodeId(source as u32);
    if !alive[source.index()] || blacked_out[source.index()] || parents[source.index()].is_some() {
        return false;
    }
    // Every alive member the physics could connect must have a valid chain to the
    // source: existing parents, alive, in range, no dark links, loop-free. A
    // blacked-out member is NOT exempt (its node runs; only its links are dark), and
    // its own first hop is unusable — so the predicate stays false for the duration of
    // a blackout that cuts any member off.
    //
    // Chains are checked first: a valid chain is a path of snapshot edges between alive
    // nodes, so its member is reachable and needs no search. Only a broken chain asks
    // whether the physics could connect its member at all. One reachability search per
    // call answers every such question, and it stops as soon as an answer is known.
    let mut reach: Option<Reach> = None;
    for v in 0..n {
        let id = NodeId(v as u32);
        if !alive[v] || !roles[v].is_member() || id == source {
            continue;
        }
        if chain_reaches_source(snapshot, parents, alive, blacked_out, id, source) {
            continue;
        }
        let reach = reach.get_or_insert_with(|| Reach::new(source, n));
        if reach.reaches(id, snapshot, alive) {
            return false; // a connected member is detached or badly attached
        }
    }
    true
}

/// True iff `member`'s parent chain reaches `source` over existing parents, alive
/// nodes and lit snapshot edges, within `n` hops (a longer chain is a cycle).
fn chain_reaches_source(
    snapshot: &TopologySnapshot,
    parents: &[Option<NodeId>],
    alive: &[bool],
    blacked_out: &[bool],
    member: NodeId,
    source: NodeId,
) -> bool {
    let n = snapshot.len();
    let mut cur = member;
    let mut hops = 0usize;
    loop {
        let Some(p) = parents[cur.index()] else {
            return false; // detached
        };
        if p.index() >= n
            || !alive[p.index()]
            || blacked_out[p.index()]
            || blacked_out[cur.index()]
            || !snapshot.are_neighbors(cur, p)
        {
            return false; // dangling, dead, dark or out-of-range link
        }
        if p == source {
            return true;
        }
        hops += 1;
        if hops > n {
            return false; // parent-pointer cycle
        }
        cur = p;
    }
}

/// Alive-restricted reachability from a source in a snapshot's unit-disc graph, searched
/// only as far as the questions asked so far need.
struct Reach {
    /// Nodes known reachable. Each is either expanded or waiting in `frontier`.
    reached: Vec<bool>,
    frontier: Vec<NodeId>,
}

impl Reach {
    fn new(source: NodeId, n: usize) -> Self {
        let mut reached = vec![false; n];
        reached[source.index()] = true;
        Reach { reached, frontier: vec![source] }
    }

    /// True iff `v` is reachable from the source over alive nodes. Expands the search
    /// until `v` is reached or nothing is left to expand; visit order does not matter.
    fn reaches(&mut self, v: NodeId, snapshot: &TopologySnapshot, alive: &[bool]) -> bool {
        let Reach { reached, frontier } = self;
        while !reached[v.index()] {
            let Some(u) = frontier.pop() else {
                return false;
            };
            snapshot.for_each_neighbor(u, |w| {
                if alive[w.index()] && !reached[w.index()] {
                    reached[w.index()] = true;
                    frontier.push(w);
                }
            });
        }
        true
    }
}

/// Counter snapshot a track diffs across a recovery window. The aggregate track uses
/// the context's network-wide totals; each per-session track uses that session's own
/// counters, so a group's recovery cost never includes other sessions' traffic.
#[derive(Clone, Copy, Debug)]
struct Counters {
    control_packets: u64,
    data_packets: u64,
    energy_j: f64,
}

impl Counters {
    fn network_wide(ctx: &ProbeContext<'_>) -> Self {
        Counters {
            control_packets: ctx.control_packets,
            data_packets: ctx.data_packets,
            energy_j: ctx.energy_j,
        }
    }

    fn of_session(ctx: &ProbeContext<'_>, session: usize) -> Self {
        let s = &ctx.sessions[session];
        Counters {
            control_packets: s.control_packets,
            data_packets: s.data_packets,
            energy_j: s.energy_j,
        }
    }
}

/// One open fault episode: when it started and the counter baselines at that instant.
#[derive(Clone, Copy, Debug)]
struct Episode {
    started_at: SimTime,
    baseline: Counters,
}

/// Episode/epoch accounting for one legitimacy stream (the network-wide conjunction, or
/// one session).
#[derive(Clone, Debug)]
struct Track {
    stats: ConvergenceStats,
    episode: Option<Episode>,
    recovery_sum_s: f64,
}

impl Track {
    fn new(epoch_s: f64) -> Self {
        Track { stats: ConvergenceStats::empty(epoch_s), episode: None, recovery_sum_s: 0.0 }
    }

    fn on_epoch(&mut self, legitimate: bool, now: SimTime, counters: Counters) {
        self.stats.epochs_probed += 1;
        if legitimate {
            self.stats.epochs_legitimate += 1;
            if self.stats.first_legitimate_s.is_none() {
                self.stats.first_legitimate_s = Some(now.as_secs_f64());
            }
            if let Some(ep) = self.episode.take() {
                self.close_episode(ep, now, counters);
            }
        }
    }

    fn on_fault(&mut self, now: SimTime, counters: Counters) {
        self.stats.faults_injected += 1;
        // Simultaneous faults (a corruption burst) share one episode.
        if self.episode.is_none() {
            self.episode = Some(Episode { started_at: now, baseline: counters });
        }
    }

    fn close_episode(&mut self, ep: Episode, now: SimTime, counters: Counters) {
        let recovery = now.saturating_since(ep.started_at).as_secs_f64();
        self.stats.recovered += 1;
        self.recovery_sum_s += recovery;
        self.stats.max_recovery_s = self.stats.max_recovery_s.max(recovery);
        self.stats.mean_recovery_s = self.recovery_sum_s / self.stats.recovered as f64;
        self.stats.control_packets_during_recovery +=
            counters.control_packets.saturating_sub(ep.baseline.control_packets);
        self.stats.data_packets_during_recovery +=
            counters.data_packets.saturating_sub(ep.baseline.data_packets);
        self.stats.energy_during_recovery_j += (counters.energy_j - ep.baseline.energy_j).max(0.0);
    }

    fn finish(&mut self, end: SimTime) -> ConvergenceStats {
        if let Some(ep) = self.episode.take() {
            self.stats.unrecovered += 1;
            self.stats.unrecovered_open_s += end.saturating_since(ep.started_at).as_secs_f64();
        }
        self.stats.clone()
    }
}

/// A [`StabilizationObserver`] that evaluates the legitimacy predicate each epoch and
/// aggregates per-episode recovery measurements into a [`ConvergenceStats`] block —
/// network-wide, and broken down per session for multi-group runs.
#[derive(Clone, Debug)]
pub struct StabilizationProbe {
    epoch: SimDuration,
    aggregate: Track,
    /// One track per session, sized lazily at the first callback (the probe does not
    /// know the session count until the runtime hands it a context).
    per_session: Vec<Track>,
    /// Finalized per-session stats, filled by `finish`.
    finished_sessions: Vec<ConvergenceStats>,
}

impl StabilizationProbe {
    /// A probe that reports recovery times quantised to `epoch`.
    pub fn new(epoch: SimDuration) -> Self {
        let epoch = if epoch.is_zero() { SimDuration::from_secs(1) } else { epoch };
        StabilizationProbe {
            epoch,
            aggregate: Track::new(epoch.as_secs_f64()),
            per_session: Vec::new(),
            finished_sessions: Vec::new(),
        }
    }

    /// The probe interval this probe was built with.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// The network-wide statistics accumulated so far (finalised by
    /// [`StabilizationObserver::finish`]).
    pub fn stats(&self) -> &ConvergenceStats {
        &self.aggregate.stats
    }

    fn ensure_sessions(&mut self, n: usize) {
        let epoch_s = self.epoch.as_secs_f64();
        while self.per_session.len() < n {
            self.per_session.push(Track::new(epoch_s));
        }
    }
}

impl StabilizationObserver for StabilizationProbe {
    fn probe_epoch(&self) -> SimDuration {
        self.epoch
    }

    fn on_epoch(&mut self, ctx: &ProbeContext<'_>) {
        self.ensure_sessions(ctx.sessions.len());
        // Each session is evaluated once; the network-wide verdict is their conjunction,
        // vacuously false for an empty session list.
        let mut all_legitimate = !ctx.sessions.is_empty();
        for (s, session) in ctx.sessions.iter().enumerate() {
            let legitimate = legitimate_over(
                ctx.snapshot,
                session.parents,
                ctx.alive,
                ctx.blacked_out,
                session.roles,
            );
            all_legitimate &= legitimate;
            self.per_session[s].on_epoch(legitimate, ctx.now, Counters::of_session(ctx, s));
        }
        self.aggregate.on_epoch(all_legitimate, ctx.now, Counters::network_wide(ctx));
    }

    fn on_fault(&mut self, _kind: &FaultKind, ctx: &ProbeContext<'_>) {
        self.ensure_sessions(ctx.sessions.len());
        self.aggregate.on_fault(ctx.now, Counters::network_wide(ctx));
        // A node-level fault perturbs every session that node participates in; each
        // session tracks its own episode (baselined at its own counters) and closes it
        // at its own first legitimate epoch.
        for s in 0..ctx.sessions.len() {
            self.per_session[s].on_fault(ctx.now, Counters::of_session(ctx, s));
        }
    }

    fn finish(&mut self, end: SimTime) -> Option<ConvergenceStats> {
        self.finished_sessions =
            self.per_session.iter_mut().map(|track| track.finish(end)).collect();
        Some(self.aggregate.finish(end))
    }

    fn session_stats(&self) -> Vec<ConvergenceStats> {
        self.finished_sessions.clone()
    }

    fn session_recovering(&self, session: usize) -> bool {
        // A session is "recovering" from its first fault notification until the first
        // probe epoch at which its legitimacy predicate holds again (per-session
        // tracks are created lazily, so an unseen session is trivially steady).
        self.per_session.get(session).is_some_and(|track| track.episode.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmcast_manet::{SessionProbe, Vec2};

    /// Four nodes on a line, 100 m apart, 150 m range: path graph 0-1-2-3.
    fn line() -> TopologySnapshot {
        let pos = (0..4).map(|i| Vec2::new(i as f64 * 100.0, 0.0)).collect();
        TopologySnapshot::new(pos, 150.0)
    }

    fn roles() -> Vec<GroupRole> {
        vec![GroupRole::Source, GroupRole::NonMember, GroupRole::Member, GroupRole::Member]
    }

    fn chain_parents() -> Vec<Option<NodeId>> {
        vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))]
    }

    #[test]
    fn a_valid_chain_is_legitimate() {
        assert!(legitimate_over(&line(), &chain_parents(), &[true; 4], &[false; 4], &roles()));
    }

    #[test]
    fn detached_member_breaks_legitimacy() {
        let mut parents = chain_parents();
        parents[3] = None;
        assert!(!legitimate_over(&line(), &parents, &[true; 4], &[false; 4], &roles()));
        // A detached *non-member* is fine (pruned branch).
        let mut parents = chain_parents();
        parents[1] = None;
        let roles = vec![
            GroupRole::Source,
            GroupRole::NonMember,
            GroupRole::NonMember,
            GroupRole::NonMember,
        ];
        assert!(legitimate_over(&line(), &parents, &[true; 4], &[false; 4], &roles));
    }

    #[test]
    fn out_of_range_parent_breaks_legitimacy() {
        let mut parents = chain_parents();
        parents[3] = Some(NodeId(0)); // 300 m away, range is 150 m
        assert!(!legitimate_over(&line(), &parents, &[true; 4], &[false; 4], &roles()));
    }

    #[test]
    fn cycles_break_legitimacy() {
        let parents = vec![None, Some(NodeId(2)), Some(NodeId(1)), Some(NodeId(2))];
        assert!(!legitimate_over(&line(), &parents, &[true; 4], &[false; 4], &roles()));
    }

    #[test]
    fn source_with_a_parent_is_illegitimate() {
        let mut parents = chain_parents();
        parents[0] = Some(NodeId(1));
        assert!(!legitimate_over(&line(), &parents, &[true; 4], &[false; 4], &roles()));
    }

    #[test]
    fn physically_partitioned_members_are_exempt() {
        // Kill node 1 (the only relay): members 2 and 3 become unreachable, so the
        // predicate cannot demand they attach. Their stale pointers routed *through*
        // the dead node do not count against legitimacy either — the chain test only
        // applies to reachable members.
        let alive = [true, false, true, true];
        assert!(legitimate_over(&line(), &chain_parents(), &alive, &[false; 4], &roles()));
    }

    #[test]
    fn dead_parent_of_a_reachable_member_breaks_legitimacy() {
        // 5-node line; node 2 is a member whose parent 1 died, but node 2 is still
        // physically reachable via... nothing else (1 was the only path) — so instead
        // make a triangle: 0-1, 0-2, 1-2. Parent of 2 is 1; 1 dies; 2 stays reachable
        // through the direct 0-2 edge, so its pointer to the dead 1 is illegitimate.
        let pos = vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0), Vec2::new(50.0, 80.0)];
        let snap = TopologySnapshot::new(pos, 150.0);
        let roles = vec![GroupRole::Source, GroupRole::NonMember, GroupRole::Member];
        let parents = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        assert!(legitimate_over(&snap, &parents, &[true; 3], &[false; 3], &roles));
        assert!(!legitimate_over(&snap, &parents, &[true, false, true], &[false; 3], &roles));
    }

    const NO_BLACKOUT: [bool; 4] = [false; 4];

    fn ctx_at<'a>(
        now: SimTime,
        snap: &'a TopologySnapshot,
        sessions: &'a [SessionProbe<'a>],
        alive: &'a [bool],
        energy: f64,
    ) -> ProbeContext<'a> {
        ProbeContext {
            now,
            snapshot: snap,
            sessions,
            alive,
            blacked_out: &NO_BLACKOUT,
            control_packets: (now.as_secs_f64() * 10.0) as u64,
            data_packets: 0,
            energy_j: energy,
        }
    }

    #[test]
    fn blacked_out_members_and_relays_break_legitimacy_without_exempting_them() {
        let snap = line();
        let parents = chain_parents();
        let alive = [true; 4];
        // A blacked-out leaf member (node 3) must NOT read as exempt: the network stays
        // illegitimate for the blackout's duration.
        assert!(!legitimate_over(&snap, &parents, &alive, &[false, false, false, true], &roles()));
        // A blacked-out relay (node 1) darkens the chains through it.
        assert!(!legitimate_over(&snap, &parents, &alive, &[false, true, false, false], &roles()));
        // A blacked-out source serves nobody.
        assert!(!legitimate_over(&snap, &parents, &alive, &[true, false, false, false], &roles()));
        // A *dead* leaf member, by contrast, is exempt (nothing can serve it).
        assert!(legitimate_over(
            &snap,
            &parents,
            &[true, true, true, false],
            &NO_BLACKOUT,
            &roles()
        ));
    }

    /// A session view whose counters mirror `ctx_at`'s network-wide formula at `now`
    /// (one session owns all the traffic), so single-session per-group stats must equal
    /// the aggregate exactly.
    fn session_at<'a>(
        now: SimTime,
        parents: &'a [Option<NodeId>],
        roles: &'a [GroupRole],
        energy: f64,
    ) -> SessionProbe<'a> {
        SessionProbe {
            parents,
            roles,
            control_packets: (now.as_secs_f64() * 10.0) as u64,
            data_packets: 0,
            energy_j: energy,
        }
    }

    #[test]
    fn probe_counts_epochs_and_closes_episodes() {
        let snap = line();
        let parents = chain_parents();
        let alive = vec![true; 4];
        let r = roles();
        let mut broken_parents = parents.clone();
        broken_parents[3] = Some(NodeId(0));
        let mut probe = StabilizationProbe::new(SimDuration::from_secs(1));
        // Legitimate epoch at t=1.
        let t1 = SimTime::from_secs(1);
        probe.on_epoch(&ctx_at(t1, &snap, &[session_at(t1, &parents, &r, 1.0)], &alive, 1.0));
        // Fault at t=2 breaks node 3 off.
        let t2 = SimTime::from_secs(2);
        probe.on_fault(
            &FaultKind::Corrupt { node: NodeId(3) },
            &ctx_at(t2, &snap, &[session_at(t2, &broken_parents, &r, 2.0)], &alive, 2.0),
        );
        let t3 = SimTime::from_secs(3);
        probe.on_epoch(&ctx_at(
            t3,
            &snap,
            &[session_at(t3, &broken_parents, &r, 3.0)],
            &alive,
            3.0,
        ));
        // Recovered by t=4.
        let t4 = SimTime::from_secs(4);
        probe.on_epoch(&ctx_at(t4, &snap, &[session_at(t4, &parents, &r, 5.0)], &alive, 5.0));
        let stats = probe.finish(SimTime::from_secs(5)).expect("probe always reports");
        assert_eq!(stats.epochs_probed, 3);
        assert_eq!(stats.epochs_legitimate, 2);
        assert_eq!(stats.first_legitimate_s, Some(1.0));
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.unrecovered, 0);
        assert!((stats.mean_recovery_s - 2.0).abs() < 1e-9, "fault at 2, legitimate at 4");
        assert_eq!(stats.control_packets_during_recovery, 20);
        assert!((stats.energy_during_recovery_j - 3.0).abs() < 1e-12);
        // A single session's breakdown matches the aggregate.
        let sessions = probe.session_stats();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0], stats);
    }

    #[test]
    fn open_episodes_count_as_unrecovered_at_finish() {
        let snap = line();
        let parents = chain_parents();
        let alive = vec![true; 4];
        let r = roles();
        let sessions = [SessionProbe {
            parents: &parents,
            roles: &r,
            control_packets: 0,
            data_packets: 0,
            energy_j: 0.0,
        }];
        let ctx = ProbeContext {
            now: SimTime::from_secs(2),
            snapshot: &snap,
            sessions: &sessions,
            alive: &alive,
            blacked_out: &NO_BLACKOUT,
            control_packets: 0,
            data_packets: 0,
            energy_j: 0.0,
        };
        let mut probe = StabilizationProbe::new(SimDuration::from_secs(1));
        probe.on_fault(&FaultKind::Corrupt { node: NodeId(1) }, &ctx);
        probe.on_fault(&FaultKind::Corrupt { node: NodeId(2) }, &ctx);
        let stats = probe.finish(SimTime::from_secs(10)).unwrap();
        assert_eq!(stats.faults_injected, 2, "raw fault events are counted individually");
        assert_eq!(stats.unrecovered, 1, "a simultaneous burst is one episode");
        assert_eq!(stats.recovered, 0);
        assert!(
            (stats.unrecovered_open_s - 8.0).abs() < 1e-12,
            "the open episode was observed for run end (10) − start (2) seconds"
        );
    }

    #[test]
    fn per_session_verdicts_diverge_when_only_one_session_breaks() {
        let snap = line();
        let parents = chain_parents();
        let mut broken = parents.clone();
        broken[3] = Some(NodeId(0)); // out of range: session 1 is illegitimate
        let r = roles();
        let alive = vec![true; 4];
        // Session 0 owns 5 control packets / 0.25 J at the fault instant and 9 / 0.75 J
        // at the recovery epoch; session 1's counters differ — the per-session episode
        // must be baselined and closed with its *own* counters, not the network totals.
        let at_fault = [session_with(&parents, &r, 5, 0.25), session_with(&broken, &r, 100, 10.0)];
        let ctx = ctx_at(SimTime::from_secs(1), &snap, &at_fault, &alive, 11.0);
        let mut probe = StabilizationProbe::new(SimDuration::from_secs(1));
        probe.on_fault(&FaultKind::Corrupt { node: NodeId(3) }, &ctx);
        // Session 0 is already legitimate at the next epoch; session 1 never recovers.
        let at_epoch = [session_with(&parents, &r, 9, 0.75), session_with(&broken, &r, 140, 14.0)];
        probe.on_epoch(&ctx_at(SimTime::from_secs(2), &snap, &at_epoch, &alive, 15.0));
        let aggregate = probe.finish(SimTime::from_secs(5)).unwrap();
        let per = probe.session_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].recovered, 1, "session 0 closes its episode");
        assert_eq!(per[1].recovered, 0);
        assert_eq!(per[1].unrecovered, 1, "session 1's episode stays open");
        assert_eq!(aggregate.recovered, 0, "the conjunction never turns legitimate");
        assert_eq!(aggregate.unrecovered, 1);
        assert_eq!(per[0].epochs_legitimate, 1);
        assert_eq!(per[1].epochs_legitimate, 0);
        // Recovery cost is charged from the session's own counters: 9 − 5 packets,
        // 0.75 − 0.25 J — not the network-wide 40-packet / 4 J window.
        assert_eq!(per[0].control_packets_during_recovery, 4);
        assert!((per[0].energy_during_recovery_j - 0.5).abs() < 1e-12);
    }

    /// A session view with explicit per-session counters.
    fn session_with<'a>(
        parents: &'a [Option<NodeId>],
        roles: &'a [GroupRole],
        control_packets: u64,
        energy_j: f64,
    ) -> SessionProbe<'a> {
        SessionProbe { parents, roles, control_packets, data_packets: 0, energy_j }
    }

    #[test]
    fn on_epoch_records_each_session_verdict_and_their_conjunction() {
        let snap = line();
        let parents = chain_parents();
        let mut broken = parents.clone();
        broken[3] = Some(NodeId(0)); // out of range: session 1 is illegitimate
        let r = roles();
        let alive = vec![true; 4];
        let sessions = [session_with(&parents, &r, 0, 0.0), session_with(&broken, &r, 0, 0.0)];
        let mut probe = StabilizationProbe::new(SimDuration::from_secs(1));
        probe.on_epoch(&ctx_at(SimTime::from_secs(1), &snap, &sessions, &alive, 0.0));
        let aggregate = probe.finish(SimTime::from_secs(2)).unwrap();
        let per = probe.session_stats();
        assert_eq!((aggregate.epochs_probed, aggregate.epochs_legitimate), (1, 0));
        assert_eq!(aggregate.first_legitimate_s, None, "the conjunction is illegitimate");
        assert_eq!((per[0].epochs_probed, per[0].epochs_legitimate), (1, 1));
        assert_eq!(per[0].first_legitimate_s, Some(1.0));
        assert_eq!((per[1].epochs_probed, per[1].epochs_legitimate), (1, 0));
    }

    #[test]
    fn empty_session_lists_are_never_legitimate() {
        let snap = line();
        let alive = vec![true; 4];
        let mut probe = StabilizationProbe::new(SimDuration::from_secs(1));
        probe.on_epoch(&ctx_at(SimTime::from_secs(1), &snap, &[], &alive, 0.0));
        assert_eq!(probe.stats().epochs_probed, 1);
        assert_eq!(probe.stats().epochs_legitimate, 0);
        assert!(probe.finish(SimTime::from_secs(2)).unwrap().first_legitimate_s.is_none());
        assert!(probe.session_stats().is_empty());
    }
}

/// The chains-first predicate against the reachability-first definition it replaced.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ssmcast_manet::Vec2;

    /// The predicate as first written: reachability from the source first, then the
    /// parent chain of every reachable alive member. Kept verbatim as the oracle.
    fn legitimate_over_bfs_first(
        snapshot: &TopologySnapshot,
        parents: &[Option<NodeId>],
        alive: &[bool],
        blacked_out: &[bool],
        roles: &[GroupRole],
    ) -> bool {
        let n = snapshot.len();
        if n == 0
            || parents.len() != n
            || alive.len() != n
            || blacked_out.len() != n
            || roles.len() != n
        {
            return false;
        }
        let Some(source) = roles.iter().position(|r| r.is_source()) else {
            return false;
        };
        let source = NodeId(source as u32);
        if !alive[source.index()]
            || blacked_out[source.index()]
            || parents[source.index()].is_some()
        {
            return false;
        }
        // Alive-restricted reachability from the source in the physical graph.
        let mut reachable = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        reachable[source.index()] = true;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for v in snapshot.neighbors(u) {
                if alive[v.index()] && !reachable[v.index()] {
                    reachable[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        for v in 0..n {
            let id = NodeId(v as u32);
            if !alive[v] || !roles[v].is_member() || !reachable[v] || id == source {
                continue;
            }
            let mut cur = id;
            let mut hops = 0usize;
            loop {
                let Some(p) = parents[cur.index()] else {
                    return false; // a connected member is detached
                };
                if p.index() >= n
                    || !alive[p.index()]
                    || blacked_out[p.index()]
                    || blacked_out[cur.index()]
                    || !snapshot.are_neighbors(cur, p)
                {
                    return false; // dangling, dead, dark or out-of-range link
                }
                if p == source {
                    break;
                }
                hops += 1;
                if hops > n {
                    return false; // parent-pointer cycle
                }
                cur = p;
            }
        }
        true
    }

    /// One generated probe instant.
    struct Case {
        snapshot: TopologySnapshot,
        parents: Vec<Option<NodeId>>,
        alive: Vec<bool>,
        blacked_out: Vec<bool>,
        roles: Vec<GroupRole>,
    }

    /// A random instant over `n` nodes. Half the cases start from a shortest-hop tree
    /// of the whole snapshot, so legitimate instants are common; the rest start from
    /// random parents. A few pointers are then redrawn from `None`, self, a random id,
    /// an id ≥ n, or a forced two- or three-node cycle, and alive and blackout masks,
    /// roles with zero, one or two sources are drawn.
    fn generate(seed: u64, n: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = rng.gen_range(50.0..800.0);
        let positions: Vec<Vec2> =
            (0..n).map(|_| Vec2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect();
        let snapshot = TopologySnapshot::new(positions, rng.gen_range(10.0..400.0));

        let mut roles = vec![GroupRole::NonMember; n];
        let member_share = rng.gen_range(0.0..1.0);
        for role in &mut roles {
            if rng.gen_bool(member_share) {
                *role = GroupRole::Member;
            }
        }
        let sources = if n == 0 { 0 } else { [0, 1, 1, 1, 2][rng.gen_range(0..5usize)] };
        for _ in 0..sources {
            roles[rng.gen_range(0..n)] = GroupRole::Source;
        }

        let root = roles.iter().position(|r| r.is_source()).unwrap_or(0);
        let mut parents: Vec<Option<NodeId>> = if n > 0 && rng.gen_bool(0.5) {
            // Each node points one hop closer to `root`, if it can reach it at all.
            let hops = snapshot.hop_distances(NodeId(root as u32));
            snapshot
                .nodes()
                .map(|v| {
                    let d = hops[v.index()]?;
                    snapshot.neighbors(v).into_iter().find(|u| hops[u.index()] == d.checked_sub(1))
                })
                .collect()
        } else {
            (0..n).map(|_| random_parent(&mut rng, n)).collect()
        };
        if n > 0 {
            for _ in 0..rng.gen_range(0..4usize) {
                let v = rng.gen_range(0..n);
                parents[v] = match rng.gen_range(0..6usize) {
                    0 => None,
                    1 => Some(NodeId(v as u32)),
                    2 => Some(NodeId(rng.gen_range(0..n) as u32)),
                    3 => Some(NodeId((n + rng.gen_range(0..3usize)) as u32)),
                    _ => {
                        // Close a cycle through two or three random nodes (a repeated
                        // pick makes a shorter cycle or a self-pointer).
                        let cycle: Vec<usize> =
                            (0..rng.gen_range(2..4usize)).map(|_| rng.gen_range(0..n)).collect();
                        for w in 0..cycle.len() {
                            parents[cycle[w]] = Some(NodeId(cycle[(w + 1) % cycle.len()] as u32));
                        }
                        parents[v]
                    }
                };
            }
        }

        let dead_share = [0.0, 0.0, 0.1, 0.3][rng.gen_range(0..4usize)];
        let alive = (0..n).map(|_| !rng.gen_bool(dead_share)).collect();
        let dark_share = [0.0, 0.0, 0.05, 0.2][rng.gen_range(0..4usize)];
        let blacked_out = (0..n).map(|_| rng.gen_bool(dark_share)).collect();
        Case { snapshot, parents, alive, blacked_out, roles }
    }

    fn random_parent(rng: &mut StdRng, n: usize) -> Option<NodeId> {
        match rng.gen_range(0..4usize) {
            0 => None,
            3 => Some(NodeId((n + rng.gen_range(0..3usize)) as u32)),
            _ => Some(NodeId(rng.gen_range(0..n) as u32)),
        }
    }

    fn verdicts(case: &Case) -> (bool, bool) {
        let Case { snapshot, parents, alive, blacked_out, roles } = case;
        (
            legitimate_over(snapshot, parents, alive, blacked_out, roles),
            legitimate_over_bfs_first(snapshot, parents, alive, blacked_out, roles),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// Chains first, reachability only after a broken chain: the same verdict as
        /// reachability first on every generated instant.
        #[test]
        fn chains_first_matches_reachability_first(seed in 0u64..u64::MAX, n in 0usize..41) {
            let (got, want) = verdicts(&generate(seed, n));
            prop_assert_eq!(got, want, "seed {} n {}", seed, n);
        }
    }

    /// The generator reaches the cases the two evaluation orders could disagree on:
    /// legitimate and illegitimate instants, and legitimate ones that hold only because
    /// a member with a broken chain is physically cut off from the source.
    #[test]
    fn generated_instants_cover_both_verdicts_and_exempt_broken_chains() {
        let (mut legit, mut illegit, mut exempt) = (0, 0, 0);
        for seed in 0..512u64 {
            let case = generate(seed, 2 + (seed % 39) as usize);
            let (got, want) = verdicts(&case);
            assert_eq!(got, want, "seed {seed}");
            if got {
                legit += 1;
                let Case { snapshot, parents, alive, blacked_out, roles } = &case;
                let source = NodeId(roles.iter().position(|r| r.is_source()).unwrap() as u32);
                exempt += usize::from((0..snapshot.len()).any(|v| {
                    let id = NodeId(v as u32);
                    alive[v]
                        && roles[v].is_member()
                        && id != source
                        && !chain_reaches_source(snapshot, parents, alive, blacked_out, id, source)
                }));
            } else {
                illegit += 1;
            }
        }
        assert!(legit >= 50 && illegit >= 50, "{legit} legitimate, {illegit} illegitimate");
        assert!(exempt >= 10, "only {exempt} legitimate instants exempt a broken chain");
    }
}
