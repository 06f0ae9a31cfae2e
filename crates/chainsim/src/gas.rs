//! Gas metering.
//!
//! Every publish and contract call burns *gas*: a deterministic count of
//! the work the chain performed. The [`CallEnv`](crate::CallEnv)
//! charges a base cost when a contract's `handle` is dispatched and a fixed
//! cost per executed ledger operation (plus a small cost per logged outcome,
//! [`CallEnv::charge_note`](crate::CallEnv::charge_note)), so gas is a pure
//! function of the call's semantics — it does **not** depend on thread
//! counts or on wall-clock time. Every chain charges
//! [`GasSchedule::DEFAULT`]. Failed calls still burn the gas they consumed
//! before failing, mirroring real chains.
//!
//! Each chain meters one running total,
//! [`Blockchain::gas_total`](crate::Blockchain::gas_total). The total is
//! part of the chain's state: snapshots capture it, reorgs rewind it and
//! recycling a chain shell zeroes it.
//!
//! Gas is *metered*, never deducted from ledger balances: the simulator's
//! conservation invariants are untouched. Workload drivers fold metered gas
//! into party payoffs as fees at a configured gas price (see
//! `marketsim::market::metering`), which is how settled-deals/sec and
//! fee-adjusted payoff conservation are both measured at market scale.

use serde::{Deserialize, Serialize};

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
    /// Charged when a contract is published on a chain.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_fixed() {
        let schedule = GasSchedule::default();
        assert_eq!(schedule, GasSchedule::DEFAULT);
        assert!(schedule.call_base > 0 && schedule.ledger_op > 0);
    }
}
