//! Per-node energy accounting.

use serde::{Deserialize, Serialize};

/// Why energy was consumed, used to break down the energy budget in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnergyUse {
    /// Transmitting a control packet (beacon, join query, route request, ...).
    TxControl,
    /// Transmitting a data packet.
    TxData,
    /// Receiving a control packet addressed to (or useful to) this node.
    RxControl,
    /// Receiving a data packet this node wanted (group member or tree forwarder).
    RxData,
    /// Receiving a packet only to discard it — the paper's overhearing / discard energy.
    Overhear,
    /// Continuous drain while the radio is powered and listening with no frame on the
    /// air (see [`crate::lifecycle::LifecycleConfig::idle_listen_w`]).
    IdleListen,
    /// Continuous drain while the radio sleeps per its duty-cycle schedule.
    Sleep,
}

/// A node battery: tracks consumption by category and optionally enforces a capacity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Battery {
    capacity_j: f64,
    consumed_j: f64,
    harvested_j: f64,
    tx_control_j: f64,
    tx_data_j: f64,
    rx_control_j: f64,
    rx_data_j: f64,
    overhear_j: f64,
    idle_j: f64,
    sleep_j: f64,
    drained_j: f64,
}

impl Battery {
    /// A battery with effectively unlimited capacity (the paper's experiments do not model
    /// depletion).
    pub fn unlimited() -> Self {
        Self::with_capacity(f64::INFINITY)
    }

    /// A battery holding `capacity_j` joules.
    pub fn with_capacity(capacity_j: f64) -> Self {
        Battery {
            capacity_j,
            consumed_j: 0.0,
            harvested_j: 0.0,
            tx_control_j: 0.0,
            tx_data_j: 0.0,
            rx_control_j: 0.0,
            rx_data_j: 0.0,
            overhear_j: 0.0,
            idle_j: 0.0,
            sleep_j: 0.0,
            drained_j: 0.0,
        }
    }

    /// Consume `joules` for the given purpose. Returns `false` if the battery is
    /// depleted afterwards (or was already); the consumption is recorded up to the
    /// capacity — a battery never books more energy than it ever held.
    pub fn consume(&mut self, joules: f64, usage: EnergyUse) -> bool {
        self.accept(joules, usage);
        !self.is_depleted()
    }

    /// Consume up to `joules` for the given purpose and return the amount actually
    /// recorded: `joules` clamped to the remaining capacity, `0.0` once depleted. The
    /// runtime attributes exactly this amount to the owning session, so per-session
    /// energy sums conserve the batteries' totals even across depletion.
    pub fn accept(&mut self, joules: f64, usage: EnergyUse) -> f64 {
        // A depleted battery has nothing remaining, so `j` is zero and the sums below
        // keep their bits: there is no branch on depletion for the fleet-wide drain
        // pass to mispredict.
        let j = joules.max(0.0).min(self.remaining());
        self.consumed_j += j;
        match usage {
            EnergyUse::TxControl => self.tx_control_j += j,
            EnergyUse::TxData => self.tx_data_j += j,
            EnergyUse::RxControl => self.rx_control_j += j,
            EnergyUse::RxData => self.rx_data_j += j,
            EnergyUse::Overhear => self.overhear_j += j,
            EnergyUse::IdleListen => self.idle_j += j,
            EnergyUse::Sleep => self.sleep_j += j,
        }
        j
    }

    /// Remove `joules` at once without attributing them to a radio activity — the
    /// fault layer's battery-drain spike (a co-located application, a sensor burst).
    /// Not counted in [`Self::breakdown`]; see [`Self::drained`]. Clamped to the
    /// remaining capacity like [`Self::consume`]. Returns `false` if the battery was
    /// already depleted.
    pub fn drain(&mut self, joules: f64) -> bool {
        if self.is_depleted() {
            return false;
        }
        let j = joules.max(0.0).min(self.remaining());
        self.consumed_j += j;
        self.drained_j += j;
        !self.is_depleted()
    }

    /// Restore up to `joules` of charge (energy harvesting). Consumption stays gross —
    /// `consumed()` and the per-category breakdown are lifetime totals untouched by
    /// recharge, so energy-conservation identities over consumption keep holding.
    /// Clamped so the stored charge never exceeds the capacity; a physical no-op for
    /// unlimited batteries. Returns the amount actually banked.
    pub fn recharge(&mut self, joules: f64) -> f64 {
        if self.is_unlimited() {
            return 0.0;
        }
        let allowed = joules.max(0.0).min((self.consumed_j - self.harvested_j).max(0.0));
        self.harvested_j += allowed;
        allowed
    }

    /// Total energy banked by [`Self::recharge`] over the battery's lifetime, joules.
    pub fn harvested(&self) -> f64 {
        self.harvested_j
    }

    /// Energy removed by drain spikes, joules.
    pub fn drained(&self) -> f64 {
        self.drained_j
    }

    /// Total energy consumed so far, joules.
    pub fn consumed(&self) -> f64 {
        self.consumed_j
    }

    /// Remaining energy, joules (infinite for unlimited batteries).
    pub fn remaining(&self) -> f64 {
        (self.capacity_j + self.harvested_j - self.consumed_j).max(0.0)
    }

    /// The battery's capacity, joules (infinite for unlimited batteries).
    pub fn capacity(&self) -> f64 {
        self.capacity_j
    }

    /// True once consumption has reached capacity plus everything harvested since.
    pub fn is_depleted(&self) -> bool {
        self.consumed_j >= self.capacity_j + self.harvested_j
    }

    /// True for batteries with unlimited capacity (the paper's default), which can
    /// never deplete — a drain spike against one is a physical no-op.
    pub fn is_unlimited(&self) -> bool {
        self.capacity_j.is_infinite()
    }

    /// Energy spent transmitting (control + data), joules.
    pub fn tx_total(&self) -> f64 {
        self.tx_control_j + self.tx_data_j
    }

    /// Energy spent receiving usefully (control + data), joules.
    pub fn rx_total(&self) -> f64 {
        self.rx_control_j + self.rx_data_j
    }

    /// Energy wasted overhearing packets that were discarded, joules.
    pub fn overheard(&self) -> f64 {
        self.overhear_j
    }

    /// Energy drained by idle listening (radio powered, no frame on the air), joules.
    pub fn idle_listened(&self) -> f64 {
        self.idle_j
    }

    /// Energy drained while the radio slept per its duty-cycle schedule, joules.
    pub fn slept(&self) -> f64 {
        self.sleep_j
    }

    /// Breakdown `(tx_control, tx_data, rx_control, rx_data, overhear)` in joules —
    /// the per-packet radio activity only; idle/sleep drain and fault-injected spikes
    /// are reported by [`Self::idle_listened`], [`Self::slept`] and [`Self::drained`].
    pub fn breakdown(&self) -> (f64, f64, f64, f64, f64) {
        (self.tx_control_j, self.tx_data_j, self.rx_control_j, self.rx_data_j, self.overhear_j)
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_by_category() {
        let mut b = Battery::unlimited();
        b.consume(1.0, EnergyUse::TxControl);
        b.consume(2.0, EnergyUse::TxData);
        b.consume(0.5, EnergyUse::RxControl);
        b.consume(0.25, EnergyUse::RxData);
        b.consume(0.125, EnergyUse::Overhear);
        assert_eq!(b.consumed(), 3.875);
        assert_eq!(b.tx_total(), 3.0);
        assert_eq!(b.rx_total(), 0.75);
        assert_eq!(b.overheard(), 0.125);
        assert!(!b.is_depleted());
    }

    #[test]
    fn capacity_enforced() {
        let mut b = Battery::with_capacity(1.0);
        assert!(b.consume(0.6, EnergyUse::TxData));
        assert!(!b.consume(0.6, EnergyUse::TxData), "crossing capacity reports depletion");
        assert!(b.is_depleted());
        assert!(!b.consume(0.1, EnergyUse::RxData), "depleted batteries accept no more work");
        assert_eq!(b.remaining(), 0.0);
    }

    #[test]
    fn consumption_is_recorded_only_up_to_the_capacity() {
        // Pins the documented clamp: a 1 J battery asked for 0.6 + 0.6 J books exactly
        // 1 J in total, and the crossing consumption's category gets only the 0.4 J the
        // battery still held.
        let mut b = Battery::with_capacity(1.0);
        assert_eq!(b.accept(0.6, EnergyUse::TxData), 0.6);
        assert_eq!(b.accept(0.6, EnergyUse::RxData), 0.4, "only the remaining energy books");
        assert_eq!(b.consumed(), 1.0, "consumption never exceeds the capacity");
        let (_, td, _, rd, _) = b.breakdown();
        assert_eq!(td, 0.6);
        assert_eq!(rd, 0.4);
        assert_eq!(b.accept(0.5, EnergyUse::Overhear), 0.0, "a dead battery accepts nothing");
        assert_eq!(b.consumed(), 1.0);
        // The same clamp applies to unattributed drain spikes.
        let mut b = Battery::with_capacity(2.0);
        b.drain(5.0);
        assert_eq!(b.consumed(), 2.0);
        assert_eq!(b.drained(), 2.0);
    }

    #[test]
    fn drain_spikes_deplete_without_touching_the_radio_breakdown() {
        let mut b = Battery::with_capacity(2.0);
        b.consume(0.5, EnergyUse::TxData);
        assert!(b.drain(1.0), "still above capacity after the spike");
        assert_eq!(b.consumed(), 1.5);
        assert_eq!(b.drained(), 1.0);
        let (tc, td, rc, rd, oh) = b.breakdown();
        assert_eq!(tc + td + rc + rd + oh, 0.5, "drain is not a radio activity");
        assert!(!b.drain(1.0), "this spike crosses capacity");
        assert!(b.is_depleted());
        assert!(!b.drain(0.1), "depleted batteries absorb nothing further");
        assert_eq!(b.drained(), 1.5, "the crossing spike books only the remaining 0.5 J");
        assert_eq!(b.consumed(), 2.0);
    }

    #[test]
    fn idle_and_sleep_drain_have_their_own_categories() {
        let mut b = Battery::unlimited();
        b.consume(0.25, EnergyUse::IdleListen);
        b.consume(0.0625, EnergyUse::Sleep);
        b.consume(1.0, EnergyUse::TxData);
        assert_eq!(b.idle_listened(), 0.25);
        assert_eq!(b.slept(), 0.0625);
        assert_eq!(b.consumed(), 1.3125);
        let (tc, td, rc, rd, oh) = b.breakdown();
        assert_eq!(tc + td + rc + rd + oh, 1.0, "continuous drain is not per-packet radio work");
        // Conservation identity used by the lifecycle proptests.
        assert_eq!(tc + td + rc + rd + oh + b.idle_listened() + b.slept() + b.drained(), 1.3125);
    }

    #[test]
    fn recharge_revives_a_depleted_battery_without_rewriting_history() {
        let mut b = Battery::with_capacity(1.0);
        b.consume(1.0, EnergyUse::TxData);
        assert!(b.is_depleted());
        assert_eq!(b.recharge(0.25), 0.25);
        assert!(!b.is_depleted(), "harvested charge revives the node");
        assert_eq!(b.remaining(), 0.25);
        assert_eq!(b.consumed(), 1.0, "recharge never rewrites consumption history");
        assert_eq!(b.harvested(), 0.25);
        // Spend the bank and recharge past full: the clamp stops at capacity.
        b.consume(0.25, EnergyUse::RxData);
        assert_eq!(b.consumed(), 1.25);
        assert_eq!(b.recharge(10.0), 1.0, "stored charge can never exceed capacity");
        assert_eq!(b.remaining(), 1.0);
    }

    #[test]
    fn recharge_is_a_no_op_for_unlimited_batteries() {
        let mut b = Battery::unlimited();
        b.consume(2.0, EnergyUse::TxData);
        assert_eq!(b.recharge(5.0), 0.0);
        assert_eq!(b.harvested(), 0.0);
        assert!(b.remaining().is_infinite());
    }

    #[test]
    fn negative_consumption_is_ignored() {
        let mut b = Battery::unlimited();
        b.consume(-5.0, EnergyUse::TxData);
        assert_eq!(b.consumed(), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut b = Battery::unlimited();
        for (i, u) in [
            EnergyUse::TxControl,
            EnergyUse::TxData,
            EnergyUse::RxControl,
            EnergyUse::RxData,
            EnergyUse::Overhear,
        ]
        .into_iter()
        .enumerate()
        {
            b.consume((i + 1) as f64, u);
        }
        let (a, c, d, e, f) = b.breakdown();
        assert_eq!(a + c + d + e + f, b.consumed());
    }
}
