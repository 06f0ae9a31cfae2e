//! Per-contract-call gas metering.
//!
//! Every contract call burns *gas*: a deterministic count of the work the
//! chain performed on the caller's behalf. The [`CallEnv`](crate::CallEnv)
//! charges a base cost when a contract's `handle` is dispatched and a fixed
//! cost per executed ledger operation (plus a small cost per logged outcome,
//! [`CallEnv::charge_note`](crate::CallEnv::charge_note)), so gas is a pure
//! function of the call's semantics — it does **not** depend on thread
//! counts or on wall-clock time. Every chain charges
//! [`GasSchedule::DEFAULT`]. Failed calls still burn the gas they consumed
//! before failing, mirroring real chains.
//!
//! Gas is *metered*, never deducted from ledger balances: the simulator's
//! conservation invariants are untouched. Workload drivers fold metered gas
//! into party payoffs as fees at a configured gas price (see
//! `marketsim::market::metering`), which is how settled-deals/sec and
//! fee-adjusted payoff conservation are both measured at market scale.

use serde::{Deserialize, Serialize};

use crate::ids::PartyId;

/// The cost table for gas charges.
///
/// The defaults are deliberately round numbers on an arbitrary scale; what
/// matters is that they are fixed, so gas totals are comparable across runs
/// and machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GasSchedule {
    /// Charged once per contract-call dispatch (the "contract step").
    pub call_base: u64,
    /// Charged per executed ledger transfer (debit, payout, contract-to-
    /// contract move). Zero-amount no-op transfers are free.
    pub ledger_op: u64,
    /// Charged per contract outcome a real chain would log (see
    /// [`CallEnv::charge_note`](crate::CallEnv::charge_note)).
    pub note: u64,
    /// Charged to the publisher when a contract is published on a chain.
    pub publish: u64,
}

impl GasSchedule {
    /// The default cost table.
    pub const DEFAULT: GasSchedule =
        GasSchedule { call_base: 100, ledger_op: 25, note: 5, publish: 200 };
}

impl Default for GasSchedule {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Per-chain gas accounting: total burned, per-party attribution and the
/// cost of the most recent call.
///
/// The meter is part of a chain's observable state: it is captured by
/// [`World::snapshot`](crate::World::snapshot), restored by
/// [`World::restore`](crate::World::restore), rewound by reorgs and cleared
/// when a chain shell is recycled, so a sweep that starts each run from a
/// restored snapshot sees exactly the gas a fresh setup would have metered.
#[derive(Clone, Default, Debug, Serialize, Deserialize)]
pub struct GasMeter {
    total: u64,
    /// `by_party[p]` is the gas burned by `PartyId(p)` on this chain. Dense,
    /// like the ledger: party ids are assigned sequentially.
    by_party: Vec<u64>,
    last_call: u64,
}

impl GasMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `gas` burned by `party` (one call or publish).
    pub(crate) fn charge(&mut self, party: PartyId, gas: u64) {
        self.total += gas;
        let idx = party.0 as usize;
        if idx >= self.by_party.len() {
            self.by_party.resize(idx + 1, 0);
        }
        self.by_party[idx] += gas;
        self.last_call = gas;
    }

    /// Total gas burned on this chain since creation (or the last recycle).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Gas burned by `party` on this chain.
    pub fn spent_by(&self, party: PartyId) -> u64 {
        self.by_party.get(party.0 as usize).copied().unwrap_or(0)
    }

    /// The gas burned by the most recent call or publish (0 before any).
    pub fn last_call(&self) -> u64 {
        self.last_call
    }

    /// Iterates over `(party, gas)` pairs with non-zero gas, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (PartyId, u64)> + '_ {
        self.by_party
            .iter()
            .enumerate()
            .filter(|(_, gas)| **gas > 0)
            .map(|(p, gas)| (PartyId(p as u32), *gas))
    }

    /// Forgets all accounting while retaining allocated storage.
    pub(crate) fn clear(&mut self) {
        self.total = 0;
        self.by_party.clear();
        self.last_call = 0;
    }

    /// Reverses journaled `charges` and restores `last_call`: a reorg
    /// rewinding a round's gas.
    pub(crate) fn unwind(&mut self, charges: &[(PartyId, u64)], last_call: u64) {
        for &(party, gas) in charges {
            self.total -= gas;
            self.by_party[party.0 as usize] -= gas;
        }
        self.last_call = last_call;
    }

    /// Restores this meter to the captured state, reusing allocations.
    pub(crate) fn restore_from(&mut self, snap: &GasMeter) {
        self.total = snap.total;
        self.by_party.clone_from(&snap.by_party);
        self.last_call = snap.last_call;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_party() {
        let mut meter = GasMeter::new();
        meter.charge(PartyId(2), 100);
        meter.charge(PartyId(0), 30);
        meter.charge(PartyId(2), 20);
        assert_eq!(meter.total(), 150);
        assert_eq!(meter.spent_by(PartyId(2)), 120);
        assert_eq!(meter.spent_by(PartyId(0)), 30);
        assert_eq!(meter.spent_by(PartyId(7)), 0);
        assert_eq!(meter.last_call(), 20);
        assert_eq!(meter.iter().collect::<Vec<_>>(), vec![(PartyId(0), 30), (PartyId(2), 120)]);
    }

    #[test]
    fn clear_and_restore() {
        let mut meter = GasMeter::new();
        meter.charge(PartyId(1), 40);
        let snap = meter.clone();
        meter.charge(PartyId(1), 10);
        meter.restore_from(&snap);
        assert_eq!(meter.total(), 40);
        assert_eq!(meter.last_call(), 40);
        meter.clear();
        assert_eq!(meter.total(), 0);
        assert_eq!(meter.spent_by(PartyId(1)), 0);
    }

    #[test]
    fn default_schedule_is_fixed() {
        let schedule = GasSchedule::default();
        assert_eq!(schedule, GasSchedule::DEFAULT);
        assert!(schedule.call_base > 0 && schedule.ledger_op > 0);
    }
}
