//! The per-chain asset ledger.
//!
//! The ledger is the single hottest data structure in the simulator: every
//! contract call in every model-checking scenario reads and writes it. It is
//! therefore stored *densely*: account and asset identifiers are assigned
//! sequentially by [`crate::World`], so balances live in `Vec`s indexed
//! directly by those small integers instead of in a `BTreeMap` keyed by
//! `(AccountRef, AssetId)`. The historical map-backed implementation is kept
//! as [`oracle::MapLedger`] (behind the default `map-ledger-oracle` feature)
//! and differential tests assert that both agree on arbitrary operation
//! sequences.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::amount::Amount;
use crate::error::LedgerError;
use crate::ids::{AssetId, ContractId, PartyId};

/// The owner of a ledger balance: either a party or a contract.
///
/// Escrowing an asset is modelled exactly as in the paper: ownership is
/// temporarily transferred to a contract account, and the contract later
/// transfers it onward (redeem) or back (refund).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum AccountRef {
    /// A party's account.
    Party(PartyId),
    /// A contract's account.
    Contract(ContractId),
}

impl AccountRef {
    /// Returns the party if this account belongs to one.
    pub fn as_party(&self) -> Option<PartyId> {
        match self {
            AccountRef::Party(p) => Some(*p),
            AccountRef::Contract(_) => None,
        }
    }

    /// Returns `true` if this account belongs to a contract.
    pub fn is_contract(&self) -> bool {
        matches!(self, AccountRef::Contract(_))
    }
}

impl fmt::Display for AccountRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountRef::Party(p) => write!(f, "{p}"),
            AccountRef::Contract(c) => write!(f, "{c}"),
        }
    }
}

impl From<PartyId> for AccountRef {
    fn from(party: PartyId) -> Self {
        AccountRef::Party(party)
    }
}

impl From<ContractId> for AccountRef {
    fn from(contract: ContractId) -> Self {
        AccountRef::Contract(contract)
    }
}

/// A chain-local ledger mapping `(account, asset)` to a balance.
///
/// The ledger enforces conservation: apart from explicit [`Ledger::mint`]
/// calls used to set up initial endowments, transfers never create or
/// destroy value.
///
/// Balances are stored in dense per-account rows indexed by `AssetId`, with
/// one row table for party accounts and one for contract accounts (see the
/// module docs). Rows grow on first touch and [`Ledger::clear`] retains all
/// allocated capacity, which is what lets a pooled [`crate::World`] run
/// thousands of scenarios without re-allocating its ledgers.
///
/// # Examples
///
/// ```
/// use chainsim::{AccountRef, Amount, AssetId, Ledger, PartyId};
///
/// let mut ledger = Ledger::new();
/// let alice = AccountRef::Party(PartyId(0));
/// let bob = AccountRef::Party(PartyId(1));
/// let coin = AssetId(0);
/// ledger.mint(alice, coin, Amount::new(10));
/// ledger.transfer(alice, bob, coin, Amount::new(4))?;
/// assert_eq!(ledger.balance(bob, coin), Amount::new(4));
/// # Ok::<(), chainsim::LedgerError>(())
/// ```
#[derive(Clone, Default, Debug, Serialize, Deserialize)]
pub struct Ledger {
    /// `parties[p][a]` is the balance of `Party(p)` in `AssetId(a)`.
    parties: Vec<Vec<Amount>>,
    /// `contracts[c][a]` is the balance of `Contract(c)` in `AssetId(a)`.
    contracts: Vec<Vec<Amount>>,
    /// `touched[a]` records that asset `a` has ever had an entry created
    /// (mint or transfer), mirroring key presence in the old map layout.
    touched: Vec<bool>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn row(&self, account: AccountRef) -> Option<&Vec<Amount>> {
        match account {
            AccountRef::Party(PartyId(p)) => self.parties.get(p as usize),
            AccountRef::Contract(ContractId(c)) => self.contracts.get(c as usize),
        }
    }

    /// Returns the balance slot for `(account, asset)`, growing the dense
    /// tables as needed. Ids are assigned sequentially by the world, so the
    /// tables stay as small as the live id ranges.
    fn slot_mut(&mut self, account: AccountRef, asset: AssetId) -> &mut Amount {
        let row = match account {
            AccountRef::Party(PartyId(p)) => {
                let idx = p as usize;
                if idx >= self.parties.len() {
                    self.parties.resize_with(idx + 1, Vec::new);
                }
                &mut self.parties[idx]
            }
            AccountRef::Contract(ContractId(c)) => {
                let idx = c as usize;
                if idx >= self.contracts.len() {
                    self.contracts.resize_with(idx + 1, Vec::new);
                }
                &mut self.contracts[idx]
            }
        };
        let a = asset.0 as usize;
        if a >= row.len() {
            row.resize(a + 1, Amount::ZERO);
        }
        if a >= self.touched.len() {
            self.touched.resize(a + 1, false);
        }
        self.touched[a] = true;
        &mut row[a]
    }

    /// Pre-allocates dense storage for `parties` party accounts, `contracts`
    /// contract accounts and `assets` assets, each with a fully materialised
    /// balance row.
    ///
    /// Market-scale workloads populate ledgers with 100k–1M+ accounts before
    /// running; reserving up front turns that population into straight-line
    /// writes instead of `slot_mut`'s repeated grow-on-first-touch resizing.
    /// Balances are untouched (new slots are zero), so this is safe to call
    /// on a live ledger.
    pub fn reserve(&mut self, parties: usize, contracts: usize, assets: usize) {
        if self.parties.len() < parties {
            self.parties.resize_with(parties, Vec::new);
        }
        if self.contracts.len() < contracts {
            self.contracts.resize_with(contracts, Vec::new);
        }
        for row in self.parties.iter_mut().chain(self.contracts.iter_mut()) {
            if row.len() < assets {
                row.resize(assets, Amount::ZERO);
            }
        }
        if self.touched.len() < assets {
            self.touched.resize(assets, false);
        }
    }

    /// Returns the balance of `account` in `asset` (zero if absent).
    pub fn balance(&self, account: AccountRef, asset: AssetId) -> Amount {
        self.row(account).and_then(|row| row.get(asset.0 as usize)).copied().unwrap_or(Amount::ZERO)
    }

    /// Creates `amount` new units of `asset` in `account`.
    ///
    /// Minting is a setup-only operation used to endow parties with their
    /// initial principals and native-currency balances.
    pub fn mint(&mut self, account: AccountRef, asset: AssetId, amount: Amount) {
        if amount.is_zero() {
            return;
        }
        *self.slot_mut(account, asset) += amount;
    }

    /// Destroys `amount` of `asset` held by `account`: the inverse of
    /// [`Ledger::mint`], used only to roll a journaled mint back.
    pub(crate) fn burn(&mut self, account: AccountRef, asset: AssetId, amount: Amount) {
        if !amount.is_zero() {
            *self.slot_mut(account, asset) -= amount;
        }
    }

    /// Moves `amount` of `asset` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::InsufficientBalance`] if `from` does not hold
    /// `amount`, and [`LedgerError::ZeroTransfer`] if `amount` is zero.
    pub fn transfer(
        &mut self,
        from: AccountRef,
        to: AccountRef,
        asset: AssetId,
        amount: Amount,
    ) -> Result<(), LedgerError> {
        if amount.is_zero() {
            return Err(LedgerError::ZeroTransfer);
        }
        let held = self.balance(from, asset);
        if held < amount {
            return Err(LedgerError::InsufficientBalance {
                account: from,
                asset,
                held,
                needed: amount,
            });
        }
        *self.slot_mut(from, asset) = held - amount;
        let to_slot = self.slot_mut(to, asset);
        *to_slot += amount;
        Ok(())
    }

    /// Returns the total supply of `asset` across all accounts.
    pub fn total_supply(&self, asset: AssetId) -> Amount {
        let a = asset.0 as usize;
        self.parties.iter().chain(self.contracts.iter()).filter_map(|row| row.get(a)).copied().sum()
    }

    /// Iterates over all `(account, asset, balance)` entries with non-zero
    /// balances, in `(account, asset)` order (parties before contracts, as
    /// in [`AccountRef`]'s derived ordering).
    pub fn iter(&self) -> impl Iterator<Item = (AccountRef, AssetId, Amount)> + '_ {
        let parties = self.parties.iter().enumerate().flat_map(|(p, row)| {
            let account = AccountRef::Party(PartyId(p as u32));
            row.iter().enumerate().map(move |(a, amount)| (account, AssetId(a as u32), *amount))
        });
        let contracts = self.contracts.iter().enumerate().flat_map(|(c, row)| {
            let account = AccountRef::Contract(ContractId(c as u64));
            row.iter().enumerate().map(move |(a, amount)| (account, AssetId(a as u32), *amount))
        });
        parties.chain(contracts).filter(|(_, _, amount)| !amount.is_zero())
    }

    /// Returns all assets that have ever appeared in the ledger, ascending.
    ///
    /// Derived from the dense asset dimension in `O(assets)` rather than by
    /// collecting, sorting and deduplicating every `(account, asset)` entry.
    pub fn assets(&self) -> Vec<AssetId> {
        self.touched
            .iter()
            .enumerate()
            .filter(|(_, touched)| **touched)
            .map(|(a, _)| AssetId(a as u32))
            .collect()
    }

    /// Forgets every balance while retaining allocated storage, so that a
    /// pooled world can replay a fresh scenario without re-allocating.
    pub fn clear(&mut self) {
        for row in &mut self.parties {
            row.clear();
        }
        for row in &mut self.contracts {
            row.clear();
        }
        self.touched.clear();
    }
}

#[cfg(any(test, feature = "map-ledger-oracle"))]
pub mod oracle {
    //! The historical `BTreeMap`-backed ledger, retained verbatim as a
    //! differential oracle for the dense [`Ledger`](super::Ledger).
    //!
    //! `MapLedger` is compiled under the default `map-ledger-oracle` feature
    //! (and in tests); production consumers can disable the feature. It must
    //! never be used on a hot path — its whole purpose is to be the slow,
    //! obviously-correct reference that property tests compare against.

    use super::*;
    use std::collections::BTreeMap;

    /// Map-backed reference implementation of the ledger operations.
    #[derive(Clone, Default, Debug)]
    pub struct MapLedger {
        balances: BTreeMap<(AccountRef, AssetId), Amount>,
    }

    impl MapLedger {
        /// Creates an empty ledger.
        pub fn new() -> Self {
            Self::default()
        }

        /// See [`Ledger::balance`].
        pub fn balance(&self, account: AccountRef, asset: AssetId) -> Amount {
            self.balances.get(&(account, asset)).copied().unwrap_or(Amount::ZERO)
        }

        /// See [`Ledger::mint`].
        pub fn mint(&mut self, account: AccountRef, asset: AssetId, amount: Amount) {
            if amount.is_zero() {
                return;
            }
            let entry = self.balances.entry((account, asset)).or_insert(Amount::ZERO);
            *entry += amount;
        }

        /// See [`Ledger::transfer`].
        ///
        /// # Errors
        ///
        /// Identical to [`Ledger::transfer`].
        pub fn transfer(
            &mut self,
            from: AccountRef,
            to: AccountRef,
            asset: AssetId,
            amount: Amount,
        ) -> Result<(), LedgerError> {
            if amount.is_zero() {
                return Err(LedgerError::ZeroTransfer);
            }
            let held = self.balance(from, asset);
            if held < amount {
                return Err(LedgerError::InsufficientBalance {
                    account: from,
                    asset,
                    held,
                    needed: amount,
                });
            }
            self.balances.insert((from, asset), held - amount);
            let to_held = self.balance(to, asset);
            self.balances.insert((to, asset), to_held + amount);
            Ok(())
        }

        /// See [`Ledger::total_supply`].
        pub fn total_supply(&self, asset: AssetId) -> Amount {
            self.balances.iter().filter(|((_, a), _)| *a == asset).map(|(_, amount)| *amount).sum()
        }

        /// See [`Ledger::iter`].
        pub fn iter(&self) -> impl Iterator<Item = (AccountRef, AssetId, Amount)> + '_ {
            self.balances
                .iter()
                .filter(|(_, amount)| !amount.is_zero())
                .map(|((account, asset), amount)| (*account, *asset, *amount))
        }

        /// See [`Ledger::assets`].
        pub fn assets(&self) -> Vec<AssetId> {
            let mut assets: Vec<AssetId> = self.balances.keys().map(|(_, a)| *a).collect();
            assets.sort_unstable();
            assets.dedup();
            assets
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin() -> AssetId {
        AssetId(0)
    }

    #[test]
    fn mint_and_balance() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        ledger.mint(alice, coin(), Amount::new(5));
        ledger.mint(alice, coin(), Amount::new(2));
        assert_eq!(ledger.balance(alice, coin()), Amount::new(7));
        assert_eq!(ledger.balance(alice, AssetId(9)), Amount::ZERO);
    }

    #[test]
    fn mint_zero_is_noop() {
        let mut ledger = Ledger::new();
        ledger.mint(AccountRef::Party(PartyId(0)), coin(), Amount::ZERO);
        assert_eq!(ledger.iter().count(), 0);
    }

    #[test]
    fn transfer_moves_value() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        let escrow = AccountRef::Contract(ContractId(1));
        ledger.mint(alice, coin(), Amount::new(10));
        ledger.transfer(alice, escrow, coin(), Amount::new(4)).unwrap();
        assert_eq!(ledger.balance(alice, coin()), Amount::new(6));
        assert_eq!(ledger.balance(escrow, coin()), Amount::new(4));
    }

    #[test]
    fn transfer_rejects_overdraft_and_zero() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        let bob = AccountRef::Party(PartyId(1));
        ledger.mint(alice, coin(), Amount::new(3));
        assert!(matches!(
            ledger.transfer(alice, bob, coin(), Amount::new(4)),
            Err(LedgerError::InsufficientBalance { .. })
        ));
        assert!(matches!(
            ledger.transfer(alice, bob, coin(), Amount::ZERO),
            Err(LedgerError::ZeroTransfer)
        ));
        // Failed transfers leave balances untouched.
        assert_eq!(ledger.balance(alice, coin()), Amount::new(3));
        assert_eq!(ledger.balance(bob, coin()), Amount::ZERO);
    }

    #[test]
    fn total_supply_is_conserved_by_transfers() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        let bob = AccountRef::Party(PartyId(1));
        ledger.mint(alice, coin(), Amount::new(100));
        ledger.transfer(alice, bob, coin(), Amount::new(30)).unwrap();
        ledger.transfer(bob, alice, coin(), Amount::new(10)).unwrap();
        assert_eq!(ledger.total_supply(coin()), Amount::new(100));
    }

    #[test]
    fn iter_and_assets() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        ledger.mint(alice, AssetId(2), Amount::new(1));
        ledger.mint(alice, AssetId(1), Amount::new(1));
        assert_eq!(ledger.assets(), vec![AssetId(1), AssetId(2)]);
        assert_eq!(ledger.iter().count(), 2);
    }

    #[test]
    fn iter_orders_parties_before_contracts() {
        let mut ledger = Ledger::new();
        ledger.mint(AccountRef::Contract(ContractId(0)), coin(), Amount::new(1));
        ledger.mint(AccountRef::Party(PartyId(1)), coin(), Amount::new(2));
        ledger.mint(AccountRef::Party(PartyId(0)), AssetId(1), Amount::new(3));
        let entries: Vec<_> = ledger.iter().collect();
        assert_eq!(
            entries,
            vec![
                (AccountRef::Party(PartyId(0)), AssetId(1), Amount::new(3)),
                (AccountRef::Party(PartyId(1)), AssetId(0), Amount::new(2)),
                (AccountRef::Contract(ContractId(0)), AssetId(0), Amount::new(1)),
            ]
        );
    }

    #[test]
    fn clear_retains_capacity_and_forgets_balances() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        ledger.mint(alice, coin(), Amount::new(5));
        ledger.clear();
        assert_eq!(ledger.balance(alice, coin()), Amount::ZERO);
        assert_eq!(ledger.iter().count(), 0);
        assert!(ledger.assets().is_empty());
        ledger.mint(alice, coin(), Amount::new(2));
        assert_eq!(ledger.balance(alice, coin()), Amount::new(2));
    }

    #[test]
    fn reserve_preallocates_without_changing_observable_state() {
        let mut ledger = Ledger::new();
        let alice = AccountRef::Party(PartyId(0));
        ledger.mint(alice, coin(), Amount::new(5));
        ledger.reserve(1000, 50, 3);
        // Reservation is invisible: no new balances, assets or entries.
        assert_eq!(ledger.balance(alice, coin()), Amount::new(5));
        assert_eq!(ledger.iter().count(), 1);
        assert_eq!(ledger.assets(), vec![coin()]);
        assert_eq!(ledger.total_supply(coin()), Amount::new(5));
        // Reserved accounts behave like any other.
        let far = AccountRef::Party(PartyId(999));
        assert_eq!(ledger.balance(far, AssetId(2)), Amount::ZERO);
        ledger.mint(far, AssetId(2), Amount::new(7));
        assert_eq!(ledger.balance(far, AssetId(2)), Amount::new(7));
        // A smaller reservation never shrinks.
        ledger.reserve(1, 1, 1);
        assert_eq!(ledger.balance(far, AssetId(2)), Amount::new(7));
    }

    #[test]
    fn account_ref_helpers() {
        let p = AccountRef::from(PartyId(3));
        let c = AccountRef::from(ContractId(4));
        assert_eq!(p.as_party(), Some(PartyId(3)));
        assert_eq!(c.as_party(), None);
        assert!(c.is_contract());
        assert!(!p.is_contract());
        assert_eq!(p.to_string(), "P3");
        assert_eq!(c.to_string(), "contract#4");
    }
}
