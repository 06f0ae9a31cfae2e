//! Payoff accounting.
//!
//! After a protocol run, every party's outcome is summarised as the change
//! in its holdings per asset, summed across chains. The hedged property of
//! Definition 1 is then a statement about these payoffs: a compliant party
//! whose escrowed assets were not redeemed must end up with at least its
//! acceptable compensation in premium (native-currency) terms. Each
//! protocol's [`Protocol::report`](crate::script::Protocol::report) states
//! it once, as a per-party hedge margin that is non-negative exactly when
//! the party is hedged.

use std::collections::BTreeMap;

use chainsim::{Amount, AssetId, PartyId, Payoff, World};
use serde::{Deserialize, Serialize};

/// A snapshot of every party's balance in every asset, across all chains.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BalanceSnapshot {
    balances: BTreeMap<(PartyId, AssetId), Amount>,
}

impl BalanceSnapshot {
    /// Captures the balances of `parties` in `assets` across every chain of
    /// the world.
    pub fn capture(world: &World, parties: &[PartyId], assets: &[AssetId]) -> Self {
        let mut balances = BTreeMap::new();
        for &party in parties {
            for &asset in assets {
                balances.insert((party, asset), world.party_balance(party, asset));
            }
        }
        BalanceSnapshot { balances }
    }

    /// The captured balance of `party` in `asset` (zero if not captured).
    pub fn balance(&self, party: PartyId, asset: AssetId) -> Amount {
        self.balances.get(&(party, asset)).copied().unwrap_or(Amount::ZERO)
    }
}

/// Per-party, per-asset payoffs between two snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Payoffs {
    payoffs: BTreeMap<(PartyId, AssetId), Payoff>,
}

impl Payoffs {
    /// Computes `after - before` for every captured `(party, asset)` pair.
    pub fn between(before: &BalanceSnapshot, after: &BalanceSnapshot) -> Self {
        let mut payoffs = BTreeMap::new();
        for (&(party, asset), &amount_before) in &before.balances {
            let amount_after = after.balance(party, asset);
            let delta = Payoff::new(amount_after.value() as i128 - amount_before.value() as i128);
            payoffs.insert((party, asset), delta);
        }
        Payoffs { payoffs }
    }

    /// The payoff of `party` in `asset`.
    pub fn of(&self, party: PartyId, asset: AssetId) -> Payoff {
        self.payoffs.get(&(party, asset)).copied().unwrap_or(Payoff::ZERO)
    }

    /// The total payoff of `party` over the given assets (used to aggregate
    /// premiums, which the paper treats as a single currency).
    pub fn total_over(&self, party: PartyId, assets: &[AssetId]) -> Payoff {
        assets.iter().map(|&asset| self.of(party, asset)).sum()
    }

    /// Iterates over all `(party, asset, payoff)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (PartyId, AssetId, Payoff)> + '_ {
        self.payoffs.iter().map(|(&(p, a), &v)| (p, a, v))
    }

    /// Checks conservation: for every asset the payoffs over all captured
    /// parties sum to zero (no value created or destroyed by the protocol).
    pub fn conserved(&self) -> bool {
        let mut per_asset: BTreeMap<AssetId, i128> = BTreeMap::new();
        for (&(_, asset), &payoff) in &self.payoffs {
            *per_asset.entry(asset).or_insert(0) += payoff.value();
        }
        per_asset.values().all(|&total| total == 0)
    }
}

/// A convenience record of a party's lock-up: how long its escrowed value
/// sat in a contract before being redeemed or refunded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lockup {
    /// Blocks during which the party's principal was escrowed.
    pub principal_blocks: u64,
    /// Whether the principal was eventually redeemed by the counterparty
    /// (`true`) or refunded (`false`).
    pub redeemed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::AccountRef;

    #[test]
    fn snapshot_and_payoffs() {
        let mut world = World::new(1);
        let a = world.add_chain("a");
        let b = world.add_chain("b");
        let coin = world.register_asset("coin");
        let parties = [PartyId(0), PartyId(1)];
        world.chain_mut(a).mint(PartyId(0), coin, Amount::new(10));
        world.chain_mut(b).mint(PartyId(1), coin, Amount::new(5));
        let before = BalanceSnapshot::capture(&world, &parties, &[coin]);
        assert_eq!(before.balance(PartyId(0), coin), Amount::new(10));

        // Move 4 coins from P0 to P1 on chain a.
        world
            .chain_mut(a)
            .ledger_mut()
            .transfer(
                AccountRef::Party(PartyId(0)),
                AccountRef::Party(PartyId(1)),
                coin,
                Amount::new(4),
            )
            .unwrap();
        let after = BalanceSnapshot::capture(&world, &parties, &[coin]);
        let payoffs = Payoffs::between(&before, &after);
        assert_eq!(payoffs.of(PartyId(0), coin), Payoff::new(-4));
        assert_eq!(payoffs.of(PartyId(1), coin), Payoff::new(4));
        assert_eq!(payoffs.total_over(PartyId(1), &[coin]), Payoff::new(4));
        assert!(payoffs.conserved());
        assert_eq!(payoffs.iter().count(), 2);
    }

    #[test]
    fn conservation_detects_minting() {
        let mut world = World::new(1);
        let a = world.add_chain("a");
        let coin = world.register_asset("coin");
        let parties = [PartyId(0)];
        let before = BalanceSnapshot::capture(&world, &parties, &[coin]);
        world.chain_mut(a).mint(PartyId(0), coin, Amount::new(1));
        let after = BalanceSnapshot::capture(&world, &parties, &[coin]);
        assert!(!Payoffs::between(&before, &after).conserved());
    }

    #[test]
    fn missing_entries_default_to_zero() {
        let payoffs = Payoffs::default();
        assert_eq!(payoffs.of(PartyId(9), AssetId(9)), Payoff::ZERO);
        let snapshot = BalanceSnapshot::default();
        assert_eq!(snapshot.balance(PartyId(9), AssetId(9)), Amount::ZERO);
    }
}
