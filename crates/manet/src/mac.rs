//! Pluggable medium-access control: when does a pending broadcast actually hit the air?
//!
//! The runtime historically applied a blind uniform jitter (`mac_backoff_max`) to every
//! transmission and hoped relays would miss each other. This module makes channel access
//! an explicit, swappable policy beneath all multicast protocols:
//!
//! * [`RandomJitter`] — the historical behaviour, extracted verbatim. It is the default
//!   and consumes the channel-loss RNG in exactly the legacy order, so existing seeded
//!   reports stay byte-identical.
//! * [`Csma`] — carrier sensing via [`Channel::is_busy`] plus bounded exponential
//!   backoff: a frame that keeps finding the channel busy is retried with a growing
//!   contention window and dropped once the retry cap is exceeded.
//! * [`SsTdma`] — self-stabilizing TDMA in the style of Leone & Schiller: each node
//!   holds a seeded-random slot in a fixed-length frame, learns neighbours' slots from
//!   overheard transmissions, reads 2-hop claims piggybacked on overheard control
//!   beacons, and re-draws a fresh random slot whenever a conflict is detected — so the
//!   schedule converges to collision-freedom from *any* state, including one scrambled
//!   by the fault-injection machinery.
//!
//! The CSMA backoff (500 µs slots, window 8 → 256, 7 attempts) and the TDMA frame
//! (32 slots × 3 ms) are fixed constants: a [`MacConfig`] picks only the policy and
//! whether the default one reports stats.
//!
//! The policy decides only *when* a frame transmits (or that it never does); propagation,
//! loss, capture-effect collisions and energy remain the runtime's business.

use crate::channel::Channel;
use crate::energy::RadioConfig;
use crate::node::NodeId;
use crate::packet::PacketClass;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use ssmcast_dessim::{SeedSequence, SimDuration, SimTime};
use ssmcast_metrics::MacStats;

/// Which MAC policy a run uses (see the module docs for the three behaviours).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacKind {
    /// Uniform random jitter before every transmission — the legacy default.
    RandomJitter,
    /// Carrier sensing with bounded exponential backoff and a retry cap.
    Csma,
    /// Self-stabilizing TDMA slot assignment (Leone & Schiller style).
    SsTdma,
}

// A 0.5 ms slot and an initial window of 8 slots give a dispersion comparable to the
// legacy 8 ms jitter; seven sense attempts with the window doubling up to 256 slots ride
// out bursts without holding frames forever.
/// [`Csma`] backoff slot duration (the contention-window unit).
const CSMA_SLOT: SimDuration = SimDuration::from_micros(500);
/// [`Csma`] initial contention window, in slots.
const CSMA_CW_MIN: u32 = 8;
/// [`Csma`] contention-window cap, in slots.
const CSMA_CW_MAX: u32 = 256;
/// [`Csma`] carrier-sense attempts before the frame is dropped.
const CSMA_MAX_ATTEMPTS: u32 = 7;

// 3 ms fits the 2.048 ms airtime of the paper's 512-byte data packet with room for the
// propagation/processing delay; 32 slots keep the frame (96 ms) close to the 64 kbps
// source's packet interval so TDMA delay stays bounded.
/// [`SsTdma`] slots per frame (the schedule length nodes draw from).
const TDMA_SLOTS_PER_FRAME: u16 = 32;
/// [`SsTdma`] slot duration. A transmission longer than a slot starts at the slot
/// boundary and overruns; shorter ones must fit before the slot ends.
const TDMA_SLOT: SimDuration = SimDuration::from_millis(3);

/// MAC-layer configuration carried by `SimSetup` (and `Scenario` one level up).
///
/// The default — [`MacKind::RandomJitter`] with `emit_stats` off — reproduces the
/// pre-MAC-layer runtime byte for byte, report included.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MacConfig {
    /// The policy to run.
    pub kind: MacKind,
    /// Attach a [`MacStats`] block to the report even for the default policy (the
    /// non-default policies always report).
    pub emit_stats: bool,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig { kind: MacKind::RandomJitter, emit_stats: false }
    }
}

impl MacConfig {
    /// CSMA (stats on).
    pub fn csma() -> Self {
        MacConfig { kind: MacKind::Csma, emit_stats: true }
    }

    /// Self-stabilizing TDMA (stats on).
    pub fn ss_tdma() -> Self {
        MacConfig { kind: MacKind::SsTdma, emit_stats: true }
    }

    /// The same configuration with stats reporting forced on. With the default policy
    /// this attaches the [`MacStats`] block while leaving the simulated physics — and
    /// every other report field — untouched.
    pub fn with_stats(mut self) -> Self {
        self.emit_stats = true;
        self
    }

    /// True when the run's report should carry a [`MacStats`] block. Always true for
    /// the non-default policies; the default jitter only reports when asked, so legacy
    /// reports stay byte-identical.
    pub fn reports_stats(&self) -> bool {
        self.emit_stats || self.kind != MacKind::RandomJitter
    }

    /// Instantiate the configured policy for an `n_nodes` network. Contention RNGs are
    /// derived from dedicated `"mac"` streams of `seeds`, so adding a MAC never perturbs
    /// the protocol or channel-loss streams.
    pub fn build(&self, n_nodes: usize, seeds: &SeedSequence) -> Box<dyn MacPolicy> {
        match self.kind {
            MacKind::RandomJitter => Box::new(RandomJitter),
            MacKind::Csma => Box::new(Csma::new(n_nodes, seeds)),
            MacKind::SsTdma => Box::new(SsTdma::new(n_nodes, seeds)),
        }
    }
}

/// One pending broadcast as the MAC sees it.
#[derive(Clone, Copy, Debug)]
pub struct MacFrame {
    /// Transmitting node.
    pub sender: NodeId,
    /// Control or data.
    pub class: PacketClass,
    /// Size on the wire, bytes.
    pub size_bytes: u32,
    /// 0 on the first access attempt; incremented on every MAC-scheduled retry.
    pub attempt: u32,
}

/// What the policy decided for a pending frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacDecision {
    /// Transmit, starting at `at` (`at >= now`; the runtime schedules deliveries from
    /// this instant).
    Transmit {
        /// Transmission start.
        at: SimTime,
    },
    /// Not yet: ask again at `until` with the attempt counter incremented.
    Defer {
        /// When to retry channel access.
        until: SimTime,
    },
    /// Give up on this frame entirely (counted as a MAC drop; it never hits the air).
    Drop,
}

/// A medium-access policy: decides, per pending broadcast, when the frame transmits.
///
/// Implementations must be deterministic functions of their seeded state — the runtime
/// calls them from a single thread in event order, and reports are expected to be
/// byte-identical across repeat runs.
pub trait MacPolicy: Send {
    /// Decide what happens to `frame` at `now`. `channel` exposes receiver busy state
    /// for carrier sensing; `loss_rng` is the runtime's channel-loss stream and exists
    /// *only* so [`RandomJitter`] can reproduce the legacy draw order — new policies
    /// must use their own seeded RNGs instead.
    fn access(
        &mut self,
        frame: &MacFrame,
        now: SimTime,
        radio: &RadioConfig,
        channel: &Channel,
        loss_rng: &mut StdRng,
    ) -> MacDecision;

    /// State the frame carries on behalf of the MAC itself, captured at transmit time.
    /// TDMA piggybacks the sender's claim-table row on control frames; the runtime
    /// snapshots it here and hands it back to every receiver's [`Self::on_overheard`] —
    /// including receivers on *other shards*, which is what keeps the two-hop read
    /// partition-independent. The default carries nothing.
    fn piggyback_row(&self, sender: NodeId, class: PacketClass) -> Option<Vec<u16>> {
        let _ = (sender, class);
        None
    }

    /// `rx` cleanly receives a frame that `sender` started transmitting at `tx_start`.
    /// This is the policy's only learning channel: TDMA reads the sender's slot from
    /// the transmission timing and, on control frames, the sender's claim table from
    /// `piggyback` (the [`Self::piggyback_row`] snapshot taken when the frame left the
    /// sender, possibly on another shard).
    fn on_overheard(
        &mut self,
        rx: NodeId,
        sender: NodeId,
        class: PacketClass,
        tx_start: SimTime,
        piggyback: Option<&[u16]>,
    ) {
        let _ = (rx, sender, class, tx_start, piggyback);
    }

    /// Scramble `node`'s MAC state (fault injection): afterwards the schedule must
    /// re-converge through [`Self::on_overheard`] alone.
    fn corrupt(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Add policy-specific counters (TDMA conflicts/re-draws) to a stats block.
    fn fill_stats(&self, stats: &mut MacStats) {
        let _ = stats;
    }

    /// Fold another replica's policy counters into this one's: the sharded engine runs
    /// one replica per shard and merges them when the run ends. The default keeps no
    /// counters.
    fn absorb(&mut self, other: &dyn MacPolicy) {
        let _ = other;
    }

    /// Short policy name for reports.
    fn label(&self) -> &'static str;
}

/// The legacy behaviour: a uniform random backoff in `[0, mac_backoff_max)` before
/// every transmission, drawn from the channel-loss stream (exactly one draw per frame,
/// zero when the knob is zero — the pre-MAC-layer runtime byte for byte).
pub struct RandomJitter;

impl MacPolicy for RandomJitter {
    fn access(
        &mut self,
        _frame: &MacFrame,
        now: SimTime,
        radio: &RadioConfig,
        _channel: &Channel,
        loss_rng: &mut StdRng,
    ) -> MacDecision {
        let backoff = if radio.mac_backoff_max.is_zero() {
            SimDuration::ZERO
        } else {
            radio.mac_backoff_max.mul_f64(loss_rng.gen::<f64>())
        };
        MacDecision::Transmit { at: now + backoff }
    }

    fn label(&self) -> &'static str {
        "random-jitter"
    }
}

/// Carrier-sense multiple access with bounded exponential backoff.
///
/// Every frame first disperses by a random backoff in the initial contention window
/// (without it, relays of one flood would all sense an idle channel at the same instant
/// and transmit in lockstep). Each subsequent attempt senses the channel — the node's
/// own receive busy-state plus its own ongoing transmission — and either transmits
/// immediately or backs off again with the window doubled, up to the retry cap.
pub struct Csma {
    rngs: Vec<StdRng>,
    /// End of each node's own ongoing transmission (a half-duplex radio cannot sense
    /// the channel idle while it is itself transmitting).
    own_busy_until: Vec<SimTime>,
}

impl Csma {
    /// Build a CSMA policy for `n_nodes`, with per-node contention RNGs from `seeds`.
    pub fn new(n_nodes: usize, seeds: &SeedSequence) -> Self {
        let rngs = (0..n_nodes as u64).map(|i| seeds.indexed_stream("mac", i)).collect();
        Csma { rngs, own_busy_until: vec![SimTime::ZERO; n_nodes] }
    }

    fn backoff(&mut self, node: usize, cw: u32) -> SimDuration {
        let slots = self.rngs[node].gen_range(0..cw.max(1)) as u64;
        CSMA_SLOT.saturating_mul(slots)
    }
}

impl MacPolicy for Csma {
    fn access(
        &mut self,
        frame: &MacFrame,
        now: SimTime,
        radio: &RadioConfig,
        channel: &Channel,
        _loss_rng: &mut StdRng,
    ) -> MacDecision {
        let i = frame.sender.index();
        if frame.attempt == 0 {
            // Dispersion backoff before the first carrier sense.
            let wait = self.backoff(i, CSMA_CW_MIN);
            return MacDecision::Defer { until: now + wait };
        }
        let busy = channel.is_busy(frame.sender, now) || self.own_busy_until[i] > now;
        if !busy {
            self.own_busy_until[i] = now + radio.tx_duration(frame.size_bytes);
            return MacDecision::Transmit { at: now };
        }
        if frame.attempt > CSMA_MAX_ATTEMPTS {
            return MacDecision::Drop;
        }
        // Exponential backoff: the window doubles per failed sense, capped at CSMA_CW_MAX;
        // at least one slot so a zero draw cannot re-sense at the same instant forever.
        let exp = frame.attempt.saturating_sub(1).min(16);
        let cw = CSMA_CW_MIN.saturating_mul(1 << exp).min(CSMA_CW_MAX);
        let wait = self.backoff(i, cw) + CSMA_SLOT;
        MacDecision::Defer { until: now + wait }
    }

    fn label(&self) -> &'static str {
        "csma"
    }
}

/// Sentinel for "no slot claim observed" in [`SsTdma`]'s claim tables.
const NO_CLAIM: u16 = u16::MAX;

/// Self-stabilizing TDMA (Leone & Schiller style).
///
/// Slots are globally synchronized (anchored at simulated time zero — the paper's
/// companion algorithms assume a converged clock-sync layer below). Each node starts
/// from a seeded random slot; whenever a node cleanly overhears a transmission it
/// records the sender's slot in its claim table, and on control frames it additionally
/// reads the sender's *own* claim table — the piggybacked 2-hop information. A node that
/// observes its slot claimed by a 1-hop neighbour, or by a 2-hop neighbour through a
/// piggybacked table, re-draws a seeded random slot among those it believes free. From
/// any initial or corrupted state this converges to a schedule where no two nodes
/// within interference range share a slot — and, since every transmission then fits
/// inside its owner's slot, to collision-freedom.
pub struct SsTdma {
    n: usize,
    rngs: Vec<StdRng>,
    /// Current slot claimed by each node.
    slots: Vec<u16>,
    /// Flattened n×n claim tables: `claims[i * n + j]` is the slot node `i` last
    /// observed node `j` transmit in ([`NO_CLAIM`] when never observed).
    claims: Vec<u16>,
    /// End of each node's own ongoing transmission (serializes a node's frames within
    /// its slot).
    own_busy_until: Vec<SimTime>,
    conflicts: u64,
    redraws: u64,
    /// When the last re-draw happened, seconds.
    last_redraw_s: Option<f64>,
}

impl SsTdma {
    /// Build a TDMA policy for `n_nodes` with seeded random initial slots.
    pub fn new(n_nodes: usize, seeds: &SeedSequence) -> Self {
        let mut rngs: Vec<StdRng> =
            (0..n_nodes as u64).map(|i| seeds.indexed_stream("mac", i)).collect();
        let slots = rngs.iter_mut().map(|rng| rng.gen_range(0..TDMA_SLOTS_PER_FRAME)).collect();
        SsTdma {
            n: n_nodes,
            rngs,
            slots,
            claims: vec![NO_CLAIM; n_nodes * n_nodes],
            own_busy_until: vec![SimTime::ZERO; n_nodes],
            conflicts: 0,
            redraws: 0,
            last_redraw_s: None,
        }
    }

    /// The slot index the instant `t` falls into.
    fn slot_index(t: SimTime) -> u16 {
        ((t.as_nanos() / TDMA_SLOT.as_nanos()) % u64::from(TDMA_SLOTS_PER_FRAME)) as u16
    }

    /// Earliest instant `>= from` at which `slot`'s owner can start a transmission of
    /// `tx_nanos` and have it fit before the slot ends. A transmission longer than a
    /// whole slot is allowed to start exactly at a slot boundary (and overrun).
    fn next_tx_instant(slot: u16, from: SimTime, tx_nanos: u64) -> SimTime {
        let slot_ns = TDMA_SLOT.as_nanos();
        let frame_ns = slot_ns * u64::from(TDMA_SLOTS_PER_FRAME);
        let need = tx_nanos.min(slot_ns);
        let from_ns = from.as_nanos();
        let base = (from_ns / frame_ns) * frame_ns + u64::from(slot) * slot_ns;
        // The owned slot in the current frame (if still usable), else in the next one.
        for start in [base, base + frame_ns] {
            let end = start + slot_ns;
            let begin = start.max(from_ns);
            if begin < end && begin + need <= end {
                return SimTime::from_nanos(begin);
            }
        }
        // Unreachable for need <= slot_ns, but stay safe: the next frame's slot start.
        SimTime::from_nanos(base + frame_ns)
    }

    /// Re-draw node `i`'s slot among those its claim table says are free.
    fn redraw(&mut self, i: usize, t: SimTime) {
        let s = usize::from(TDMA_SLOTS_PER_FRAME);
        let mut taken = vec![false; s];
        for j in 0..self.n {
            let c = self.claims[i * self.n + j];
            if usize::from(c) < s {
                taken[usize::from(c)] = true;
            }
        }
        let free = taken.iter().filter(|&&b| !b).count();
        self.slots[i] = if free > 0 {
            let pick = self.rngs[i].gen_range(0..free);
            taken
                .iter()
                .enumerate()
                .filter(|(_, &b)| !b)
                .nth(pick)
                .map(|(idx, _)| idx as u16)
                .expect("free slot counted above")
        } else {
            // Saturated neighbourhood: fall back to a uniform draw over all slots.
            self.rngs[i].gen_range(0..s as u16)
        };
        self.redraws += 1;
        self.last_redraw_s = Some(t.as_secs_f64());
    }
}

impl MacPolicy for SsTdma {
    fn access(
        &mut self,
        frame: &MacFrame,
        now: SimTime,
        radio: &RadioConfig,
        _channel: &Channel,
        _loss_rng: &mut StdRng,
    ) -> MacDecision {
        let i = frame.sender.index();
        let tx = radio.tx_duration(frame.size_bytes);
        // Serialize behind the node's own ongoing transmission, then wait for the
        // owned slot.
        let earliest = now.max(self.own_busy_until[i]);
        let at = Self::next_tx_instant(self.slots[i], earliest, tx.as_nanos());
        if at == now {
            self.own_busy_until[i] = now + tx;
            MacDecision::Transmit { at: now }
        } else {
            MacDecision::Defer { until: at }
        }
    }

    fn piggyback_row(&self, sender: NodeId, class: PacketClass) -> Option<Vec<u16>> {
        if class != PacketClass::Control {
            return None;
        }
        let s = sender.index();
        Some(self.claims[s * self.n..(s + 1) * self.n].to_vec())
    }

    fn on_overheard(
        &mut self,
        rx: NodeId,
        sender: NodeId,
        class: PacketClass,
        tx_start: SimTime,
        piggyback: Option<&[u16]>,
    ) {
        if rx == sender {
            return;
        }
        let (r, s) = (rx.index(), sender.index());
        let s_slot = Self::slot_index(tx_start);
        self.claims[r * self.n + s] = s_slot;
        // 1-hop conflict: a neighbour transmits in my slot.
        let my = self.slots[r];
        let mut conflict = s_slot == my;
        // 2-hop conflict: the sender's piggybacked claim table (carried on control
        // beacons, snapshotted at transmit time — `piggyback` when the frame crossed a
        // shard boundary, this instance's own copy of the sender's row otherwise) says
        // some third node uses my slot.
        if !conflict && class == PacketClass::Control {
            let table = piggyback.unwrap_or(&self.claims[s * self.n..(s + 1) * self.n]);
            conflict = table.iter().enumerate().any(|(j, &claim)| j != r && claim == my);
        }
        if conflict {
            self.conflicts += 1;
            self.redraw(r, tx_start);
        }
    }

    fn corrupt(&mut self, node: NodeId) {
        // Adversarial state: a fresh arbitrary slot and a wiped claim table. Recovery
        // must come entirely from overhearing.
        let i = node.index();
        self.slots[i] = self.rngs[i].gen_range(0..TDMA_SLOTS_PER_FRAME);
        for j in 0..self.n {
            self.claims[i * self.n + j] = NO_CLAIM;
        }
    }

    fn fill_stats(&self, stats: &mut MacStats) {
        stats.slot_conflicts = self.conflicts;
        stats.slot_redraws = self.redraws;
        stats.slot_last_redraw_s = self.last_redraw_s;
    }

    fn absorb(&mut self, other: &dyn MacPolicy) {
        let mut theirs = MacStats::empty(other.label());
        other.fill_stats(&mut theirs);
        self.conflicts += theirs.slot_conflicts;
        self.redraws += theirs.slot_redraws;
        self.last_redraw_s = match (self.last_redraw_s, theirs.slot_last_redraw_s) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    fn label(&self) -> &'static str {
        "ss-tdma"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn frame(sender: u32, attempt: u32) -> MacFrame {
        MacFrame { sender: NodeId(sender), class: PacketClass::Data, size_bytes: 512, attempt }
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn default_config_is_the_legacy_jitter_with_stats_off() {
        let cfg = MacConfig::default();
        assert_eq!(cfg.kind, MacKind::RandomJitter);
        assert!(!cfg.emit_stats);
        assert!(!cfg.reports_stats());
        assert!(MacConfig { emit_stats: true, ..cfg }.reports_stats());
        assert!(MacConfig::csma().reports_stats());
        assert!(MacConfig::ss_tdma().reports_stats());
    }

    #[test]
    fn random_jitter_reproduces_the_legacy_backoff_draw() {
        let radio = RadioConfig::default();
        let channel = Channel::new(4, 1);
        let mut policy = RandomJitter;
        let mut rng = StdRng::seed_from_u64(99);
        let decision = policy.access(&frame(0, 0), at_ms(10), &radio, &channel, &mut rng);
        let mut reference = StdRng::seed_from_u64(99);
        let expected = at_ms(10) + radio.mac_backoff_max.mul_f64(reference.gen::<f64>());
        assert_eq!(decision, MacDecision::Transmit { at: expected });
    }

    #[test]
    fn random_jitter_makes_no_draw_when_the_knob_is_zero() {
        let radio = RadioConfig { mac_backoff_max: SimDuration::ZERO, ..RadioConfig::default() };
        let channel = Channel::new(4, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let decision = RandomJitter.access(&frame(0, 0), at_ms(10), &radio, &channel, &mut rng);
        assert_eq!(decision, MacDecision::Transmit { at: at_ms(10) });
        // The stream was not consumed: the next draw equals a fresh stream's first.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(99).gen::<u64>());
    }

    #[test]
    fn csma_disperses_then_transmits_on_an_idle_channel() {
        let radio = RadioConfig::default();
        let channel = Channel::new(4, 1);
        let mut policy = Csma::new(4, &SeedSequence::new(1));
        let mut rng = StdRng::seed_from_u64(0);
        // Attempt 0 always defers (dispersion backoff).
        let first = policy.access(&frame(0, 0), at_ms(10), &radio, &channel, &mut rng);
        let MacDecision::Defer { until } = first else { panic!("expected dispersion defer") };
        assert!(until >= at_ms(10));
        // At the retry the channel is idle: transmit immediately.
        let second = policy.access(&frame(0, 1), until, &radio, &channel, &mut rng);
        assert_eq!(second, MacDecision::Transmit { at: until });
    }

    #[test]
    fn csma_backs_off_while_busy_and_drops_at_the_retry_cap() {
        let radio = RadioConfig::default();
        let mut channel = Channel::new(2, 1);
        // Keep node 0's receiver busy for a long time.
        channel.try_receive(0, NodeId(0), SimTime::ZERO, at_ms(10_000));
        let mut policy = Csma::new(2, &SeedSequence::new(1));
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = at_ms(1);
        let mut attempt = 1u32;
        let mut deferrals = 0;
        loop {
            match policy.access(&frame(0, attempt), t, &radio, &channel, &mut rng) {
                MacDecision::Defer { until } => {
                    assert!(until > t, "busy backoff must move time forward");
                    deferrals += 1;
                    t = until;
                    attempt += 1;
                }
                MacDecision::Drop => break,
                MacDecision::Transmit { .. } => panic!("channel is busy for the whole test"),
            }
            assert!(attempt < 100, "must drop at the cap");
        }
        assert_eq!(deferrals, CSMA_MAX_ATTEMPTS, "one busy deferral per allowed attempt");
    }

    #[test]
    fn csma_own_transmission_blocks_the_next_sense() {
        let radio = RadioConfig::default();
        let channel = Channel::new(2, 1);
        let mut policy = Csma::new(2, &SeedSequence::new(1));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            policy.access(&frame(0, 1), at_ms(5), &radio, &channel, &mut rng),
            MacDecision::Transmit { at: at_ms(5) }
        );
        // Half-duplex: while the first frame is on the air the node cannot sense idle.
        let next = policy.access(&frame(0, 1), at_ms(5), &radio, &channel, &mut rng);
        assert!(matches!(next, MacDecision::Defer { .. }), "got {next:?}");
    }

    #[test]
    fn tdma_transmits_only_inside_the_owned_slot() {
        let radio = RadioConfig::default();
        let channel = Channel::new(4, 1);
        let mut policy = SsTdma::new(4, &SeedSequence::new(3));
        let mut rng = StdRng::seed_from_u64(0);
        let my_slot = policy.slots[0];
        // At the exact start of the owned slot the frame fits and goes out at once.
        let slot_start = SimTime::ZERO + TDMA_SLOT.saturating_mul(u64::from(my_slot));
        let d = policy.access(&frame(0, 0), slot_start, &radio, &channel, &mut rng);
        assert_eq!(d, MacDecision::Transmit { at: slot_start });
        // From a foreign slot, the decision is a defer to an instant inside the owned
        // slot of a later frame.
        let foreign = SimTime::ZERO
            + TDMA_SLOT.saturating_mul(u64::from((my_slot + 1) % TDMA_SLOTS_PER_FRAME))
            + SimDuration::from_micros(10);
        match policy.access(&frame(0, 0), foreign, &radio, &channel, &mut rng) {
            MacDecision::Defer { until } => {
                assert!(until > foreign);
                assert_eq!(SsTdma::slot_index(until), my_slot);
            }
            other => panic!("expected a defer to the owned slot, got {other:?}"),
        }
    }

    #[test]
    fn tdma_defers_when_the_frame_no_longer_fits_in_the_slot() {
        let radio = RadioConfig::default();
        let channel = Channel::new(2, 1);
        let mut policy = SsTdma::new(2, &SeedSequence::new(3));
        let mut rng = StdRng::seed_from_u64(0);
        let my_slot = policy.slots[0];
        // 2.5 ms into the 3 ms slot a 2.048 ms frame cannot fit any more.
        let late = SimTime::ZERO
            + TDMA_SLOT.saturating_mul(u64::from(my_slot))
            + SimDuration::from_micros(2_500);
        match policy.access(&frame(0, 0), late, &radio, &channel, &mut rng) {
            MacDecision::Defer { until } => {
                assert_eq!(SsTdma::slot_index(until), my_slot, "defers to the next owned slot");
                assert!(until.as_nanos() >= late.as_nanos() + TDMA_SLOT.as_nanos());
            }
            other => panic!("expected defer, got {other:?}"),
        }
    }

    #[test]
    fn tdma_redraws_on_a_one_hop_conflict() {
        let mut policy = SsTdma::new(4, &SeedSequence::new(3));
        let before = policy.slots[1];
        // Node 0 transmits inside node 1's slot: node 1 must detect and re-draw.
        let tx_start = SimTime::ZERO + TDMA_SLOT.saturating_mul(u64::from(before));
        policy.on_overheard(NodeId(1), NodeId(0), PacketClass::Data, tx_start, None);
        assert_eq!(policy.conflicts, 1);
        assert_eq!(policy.redraws, 1);
        assert_ne!(policy.slots[1], before, "the observed claim rules the old slot out");
        assert_eq!(policy.last_redraw_s, Some(tx_start.as_secs_f64()));
        let mut stats = MacStats::empty("ss-tdma");
        policy.fill_stats(&mut stats);
        assert_eq!(stats.slot_redraws, 1);
        assert_eq!(stats.slot_last_redraw_s, Some(tx_start.as_secs_f64()));
    }

    #[test]
    fn tdma_reads_two_hop_claims_from_control_frames_only() {
        let mut policy = SsTdma::new(4, &SeedSequence::new(3));
        let my = policy.slots[2];
        // Node 1 has observed node 0 claim node 2's slot (in some other slot's
        // transmission — use a non-conflicting instant for node 1 itself).
        let idx = self_idx(&policy, 1, 0);
        policy.claims[idx] = my;
        // A *data* frame from node 1 in a harmless slot teaches node 2 nothing 2-hop.
        let harmless = (my + 1) % TDMA_SLOTS_PER_FRAME;
        let tx = SimTime::ZERO + TDMA_SLOT.saturating_mul(u64::from(harmless));
        // Make sure the harmless slot is not node 2's own.
        assert_ne!(harmless, my);
        policy.on_overheard(NodeId(2), NodeId(1), PacketClass::Data, tx, None);
        assert_eq!(policy.redraws, 0, "data frames carry no claim table");
        // The same overhearing on a control frame exposes the 2-hop conflict.
        policy.on_overheard(NodeId(2), NodeId(1), PacketClass::Control, tx, None);
        assert_eq!(policy.conflicts, 1);
        assert_ne!(policy.slots[2], my);
    }

    #[test]
    fn tdma_piggyback_row_carries_two_hop_claims_across_instances() {
        // Sender-side instance (one shard) has observed node 0 claim node 2's slot;
        // the receiver-side instance (another shard) has an empty table. The snapshot
        // taken by `piggyback_row` must expose the 2-hop conflict to the receiver.
        let mut sender_side = SsTdma::new(4, &SeedSequence::new(3));
        let mut rx_side = SsTdma::new(4, &SeedSequence::new(3));
        let my = rx_side.slots[2];
        let idx = self_idx(&sender_side, 1, 0);
        sender_side.claims[idx] = my;
        let row = sender_side
            .piggyback_row(NodeId(1), PacketClass::Control)
            .expect("control frames carry the claim table");
        assert_eq!(row[0], my);
        assert_eq!(sender_side.piggyback_row(NodeId(1), PacketClass::Data), None);
        let harmless = (my + 1) % TDMA_SLOTS_PER_FRAME;
        let tx = SimTime::ZERO + TDMA_SLOT.saturating_mul(u64::from(harmless));
        assert_ne!(harmless, my);
        // Without the piggybacked row the receiver-side instance sees no conflict…
        rx_side.on_overheard(NodeId(2), NodeId(1), PacketClass::Control, tx, None);
        assert_eq!(rx_side.conflicts, 0, "the local replica of node 1's row is empty");
        // …with it, the cross-shard 2-hop read works exactly like the sequential one.
        rx_side.on_overheard(NodeId(2), NodeId(1), PacketClass::Control, tx, Some(&row));
        assert_eq!(rx_side.conflicts, 1);
        assert_ne!(rx_side.slots[2], my);
    }

    fn self_idx(p: &SsTdma, i: usize, j: usize) -> usize {
        i * p.n + j
    }

    #[test]
    fn tdma_corruption_scrambles_state_without_counting_as_recovery() {
        let mut policy = SsTdma::new(3, &SeedSequence::new(3));
        policy.claims[1] = 5;
        policy.corrupt(NodeId(0));
        assert!(policy.claims[..3].iter().all(|&c| c == NO_CLAIM), "claim table wiped");
        assert_eq!(policy.redraws, 0, "corruption is the fault, not a re-draw");
    }

    #[test]
    fn tdma_redraw_avoids_every_claimed_slot() {
        let n = usize::from(TDMA_SLOTS_PER_FRAME) + 1;
        let mut policy = SsTdma::new(n, &SeedSequence::new(3));
        // Indices 1..n are node 0's row of the claim table, one per other node. Node 0
        // has seen every slot but 2 claimed; a re-draw must land on 2.
        let others = (0..TDMA_SLOTS_PER_FRAME).filter(|&slot| slot != 2);
        for (j, slot) in (1..n).zip(others) {
            policy.claims[j] = slot;
        }
        policy.redraw(0, SimTime::ZERO);
        assert_eq!(policy.slots[0], 2);
        // With every slot claimed the fallback still terminates with a valid slot.
        policy.claims[n - 1] = 2;
        policy.redraw(0, SimTime::ZERO);
        assert!(policy.slots[0] < TDMA_SLOTS_PER_FRAME);
    }
}
