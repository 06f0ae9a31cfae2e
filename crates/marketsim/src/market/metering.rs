//! Gas → fees → conservation: the per-shard accounting pass.
//!
//! Gas is metered by [`chainsim`] per contract call (a pure function of the
//! call's semantics) and folded into party payoffs here as virtual fees at
//! the configured gas price. Fees are *metered, never ledger-deducted*, so
//! two conservation laws must hold on every shard after a run:
//!
//! * raw conservation — per asset, the ledger's total supply still equals
//!   what setup minted, and no contract account retains a balance once all
//!   deals have settled;
//! * fee-adjusted conservation — the parties' aggregate ledger position is
//!   zero-sum (transfers only move value), so their aggregate *fee-adjusted*
//!   payoff is exactly `-fees`: the market as a whole pays the chains, and
//!   nothing else leaks.

use chainsim::AssetId;

use super::shard::{Shard, NATIVE_ASSET, TOKEN_ASSET};

/// The accounting summary of one shard after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMetering {
    /// The shard id.
    pub shard: u32,
    /// Total gas metered on the shard's chain.
    pub gas: u64,
    /// `gas × gas_price`: the virtual fees charged to this shard's callers.
    pub fees: u128,
    /// Contract calls executed.
    pub calls: u64,
    /// Contract calls that failed (zero on a correct run).
    pub failed_calls: u64,
    /// End-of-run total supply of the shard token.
    pub token_supply: u128,
    /// End-of-run total supply of the native currency.
    pub native_supply: u128,
    /// Units (any asset) still sitting in contract accounts.
    pub contract_residue: u128,
    /// Net aggregate party position in the shard token (must be zero).
    pub net_token: i128,
    /// Net aggregate party position in the native currency (must be zero).
    pub net_native: i128,
}

impl ShardMetering {
    /// The parties' aggregate fee-adjusted payoff: ledger position net of
    /// the virtual fees. Equals `-fees` exactly when transfers conserved.
    pub fn fee_adjusted_net(&self) -> i128 {
        self.net_token + self.net_native - self.fees as i128
    }
}

/// Measures one shard: gas totals, supplies and aggregate party positions
/// relative to what setup minted.
///
/// Party holdings are each asset's total supply minus its contract supply,
/// so an account that spent its whole endowment still counts its
/// `-endowment` position; the nets are holdings minus
/// [`Shard::minted_per_asset`], the shard's own record of the endowments
/// `Shard::new` minted. `_endowment` (the per-account endowment) is implied
/// by that record and is kept only so existing callers compile.
pub fn meter_shard(shard: &Shard, _endowment: u128, gas_price: u64) -> ShardMetering {
    let chain = shard.chain();
    let ledger = chain.ledger();
    let gas = chain.gas_total();
    let minted = shard.minted_per_asset() as i128;

    // One strided walk of each asset's party column: the supply, and the
    // parties' net position (holdings minus what setup minted).
    let position = |asset: AssetId| {
        let supply = ledger.total_supply(asset);
        let holdings = supply - ledger.contract_supply(asset);
        (supply.value(), holdings.value() as i128 - minted)
    };
    let (token_supply, net_token) = position(TOKEN_ASSET);
    let (native_supply, net_native) = position(NATIVE_ASSET);
    let contract_residue =
        ledger.assets().into_iter().map(|asset| ledger.contract_supply(asset).value()).sum();

    ShardMetering {
        shard: shard.id(),
        gas,
        fees: u128::from(gas) * u128::from(gas_price),
        calls: shard.calls(),
        failed_calls: shard.failed_calls(),
        token_supply,
        native_supply,
        contract_residue,
        net_token,
        net_native,
    }
}

/// Checks both conservation laws against the shard's minted baseline,
/// returning one violation string per broken invariant.
pub fn conservation_violations(m: &ShardMetering, minted_per_asset: u128) -> Vec<String> {
    let mut violations = Vec::new();
    if m.token_supply != minted_per_asset {
        violations.push(format!(
            "shard {}: token supply {} != minted {minted_per_asset}",
            m.shard, m.token_supply
        ));
    }
    if m.native_supply != minted_per_asset {
        violations.push(format!(
            "shard {}: native supply {} != minted {minted_per_asset}",
            m.shard, m.native_supply
        ));
    }
    if m.contract_residue != 0 {
        violations.push(format!(
            "shard {}: {} units stranded in contract accounts",
            m.shard, m.contract_residue
        ));
    }
    if m.net_token != 0 || m.net_native != 0 {
        violations.push(format!(
            "shard {}: party positions not zero-sum (token {}, native {})",
            m.shard, m.net_token, m.net_native
        ));
    }
    if m.fee_adjusted_net() != -(m.fees as i128) {
        violations.push(format!(
            "shard {}: fee-adjusted net {} != -fees {}",
            m.shard,
            m.fee_adjusted_net(),
            m.fees
        ));
    }
    if m.failed_calls != 0 {
        violations.push(format!("shard {}: {} failed contract calls", m.shard, m.failed_calls));
    }
    violations
}

#[cfg(test)]
mod tests {
    use chainsim::{AccountRef, Amount, PartyId};

    use super::*;
    use crate::market::MarketConfig;

    #[test]
    fn a_party_that_spends_its_whole_endowment_still_conserves() {
        // A party left at zero still counts its `-endowment` position, so
        // one conserving transfer of a whole endowment breaks neither law.
        let cfg = MarketConfig { shards: 1, accounts: 2, ..MarketConfig::default() };
        let mut shard = Shard::new(0, &cfg, 0);
        let (alice, bob) = (AccountRef::Party(PartyId(0)), AccountRef::Party(PartyId(1)));
        shard
            .chain_mut()
            .ledger_mut()
            .transfer(alice, bob, TOKEN_ASSET, Amount::new(cfg.endowment))
            .unwrap();

        let m = meter_shard(&shard, cfg.endowment, cfg.gas_price);
        assert_eq!((m.net_token, m.net_native, m.contract_residue), (0, 0, 0));
        assert_eq!(conservation_violations(&m, shard.minted_per_asset()), Vec::<String>::new());
    }

    #[test]
    fn stranded_units_and_leaks_are_reported() {
        let cfg = MarketConfig { shards: 1, accounts: 3, ..MarketConfig::default() };
        let mut shard = Shard::new(0, &cfg, 1);
        let escrow = AccountRef::Contract(chainsim::ContractId(0));
        let ledger = shard.chain_mut().ledger_mut();
        ledger
            .transfer(AccountRef::Party(PartyId(2)), escrow, NATIVE_ASSET, Amount::new(5))
            .unwrap();
        ledger.mint(AccountRef::Party(PartyId(0)), TOKEN_ASSET, Amount::new(7));

        let m = meter_shard(&shard, cfg.endowment, cfg.gas_price);
        assert_eq!(m.contract_residue, 5);
        assert_eq!((m.net_token, m.net_native), (7, -5));
        let violations = conservation_violations(&m, shard.minted_per_asset());
        assert_eq!(violations.len(), 4, "{violations:?}");
    }
}
