//! The per-chain asset ledger.
//!
//! The ledger is the single hottest data structure in the simulator: every
//! contract call in every model-checking scenario reads and writes it, and
//! the market engine holds a million balances across its shards. It is
//! therefore stored *densely*: account and asset identifiers are assigned
//! sequentially by [`crate::World`], so balances live in two flat tables,
//! one for parties and one for contracts, indexed `account * width +
//! asset`, instead of in a `BTreeMap` keyed by `(AccountRef, AssetId)` or in
//! one heap row per account. A whole ledger is two allocations, so building,
//! cloning, restoring and dropping it costs one buffer each rather than one
//! per account. The historical map-backed implementation is kept as
//! [`oracle::MapLedger`], and differential tests assert that both agree on
//! arbitrary operation sequences.

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
/// Balances live in two flat tables, `parties[p * width + a]` for
/// `Party(p)` and `contracts[c * width + a]` for `Contract(c)`, with one
/// row of `width` entries per account (see the module docs). `width` is one
/// more than the highest asset id the ledger has touched or reserved; when
/// a higher id first arrives, the live rows are re-laid out in place. Rows
/// grow on first touch, [`Ledger::clear`] keeps both tables' capacity, and
/// [`Clone::clone_from`] copies into the destination's tables, which is
/// what lets a pooled [`crate::World`] run and restore thousands of
/// scenarios without re-allocating its ledgers.
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
#[derive(Default, Debug, Serialize, Deserialize)]
pub struct Ledger {
    /// `parties[p * width + a]` is the balance of `Party(p)` in `AssetId(a)`.
    parties: Vec<Amount>,
    /// `contracts[c * width + a]` is the balance of `Contract(c)` in
    /// `AssetId(a)`.
    contracts: Vec<Amount>,
    /// Entries per account row. Both table lengths are whole multiples of
    /// it, so both tables are empty while it is zero.
    width: usize,
    /// `touched[a]` records that asset `a` has ever had an entry created
    /// (mint or transfer), mirroring key presence in the old map layout.
    /// Always `width` long.
    touched: Vec<bool>,
}

impl Clone for Ledger {
    fn clone(&self) -> Self {
        Ledger {
            parties: self.parties.clone(),
            contracts: self.contracts.clone(),
            width: self.width,
            touched: self.touched.clone(),
        }
    }

    /// Copies `source` into this ledger's existing tables, so a restore
    /// allocates only when `source` outgrows their capacity.
    fn clone_from(&mut self, source: &Self) {
        self.parties.clone_from(&source.parties);
        self.contracts.clone_from(&source.contracts);
        self.width = source.width;
        self.touched.clone_from(&source.touched);
    }
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The balance slot of `(account, asset)`, if its row exists.
    fn slot(&self, account: AccountRef, asset: AssetId) -> Option<&Amount> {
        let (table, row) = match account {
            AccountRef::Party(PartyId(p)) => (&self.parties, p as usize),
            AccountRef::Contract(ContractId(c)) => (&self.contracts, c as usize),
        };
        let a = asset.0 as usize;
        if a >= self.width {
            return None;
        }
        // Checked, so that a huge contract id cannot wrap onto another
        // row; `get(start..)` then stays in bounds without a division.
        let start = row.checked_mul(self.width)?;
        table.get(start..)?.get(a)
    }

    /// Returns the balance slot for `(account, asset)`, growing the tables
    /// as needed. Ids are assigned sequentially by the world, so the tables
    /// stay as small as the live id ranges.
    fn slot_mut(&mut self, account: AccountRef, asset: AssetId) -> &mut Amount {
        let a = asset.0 as usize;
        if a >= self.width {
            self.widen(a + 1);
        }
        self.touched[a] = true;
        let width = self.width;
        let (table, row) = match account {
            AccountRef::Party(PartyId(p)) => (&mut self.parties, p as usize),
            AccountRef::Contract(ContractId(c)) => (&mut self.contracts, c as usize),
        };
        let end = row
            .checked_add(1)
            .and_then(|rows| rows.checked_mul(width))
            .expect("account id overflows the ledger table");
        if table.len() < end {
            table.resize(end, Amount::ZERO);
        }
        &mut table[end - width + a]
    }

    /// Re-lays every live row out at `width > self.width` entries, in
    /// place: rows move back to front into their wider slots, and each
    /// row's new tail is zeroed.
    fn widen(&mut self, width: usize) {
        let old = self.width;
        for table in [&mut self.parties, &mut self.contracts] {
            // A zero-width ledger has no rows.
            let rows = table.len().checked_div(old).unwrap_or(0);
            table.resize(rows * width, Amount::ZERO);
            for row in (0..rows).rev() {
                table.copy_within(row * old..(row + 1) * old, row * width);
                table[row * width + old..(row + 1) * width].fill(Amount::ZERO);
            }
        }
        self.width = width;
        self.touched.resize(width, false);
    }

    /// Pre-allocates `parties` party rows and `contracts` contract rows of
    /// at least `assets` entries each: one `resize` per table, widening the
    /// rows first if `assets` exceeds the current width.
    ///
    /// Market-scale workloads populate ledgers with 100k–1M+ accounts before
    /// running; reserving up front turns that population into straight-line
    /// writes instead of `slot_mut`'s repeated grow-on-first-touch resizing.
    /// Balances and [`Ledger::assets`] are untouched (new slots are zero),
    /// so this is safe to call on a live ledger, and it never shrinks.
    pub fn reserve(&mut self, parties: usize, contracts: usize, assets: usize) {
        if assets > self.width {
            self.widen(assets);
        }
        for (table, rows) in [(&mut self.parties, parties), (&mut self.contracts, contracts)] {
            let len = rows * self.width;
            if table.len() < len {
                table.resize(len, Amount::ZERO);
            }
        }
    }

    /// Returns the balance of `account` in `asset` (zero if absent).
    pub fn balance(&self, account: AccountRef, asset: AssetId) -> Amount {
        self.slot(account, asset).copied().unwrap_or(Amount::ZERO)
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

    /// The sum of `asset`'s column of `table`: a strided walk over one
    /// entry per row.
    fn column(&self, table: &[Amount], asset: AssetId) -> Amount {
        let a = asset.0 as usize;
        if a >= self.width {
            return Amount::ZERO;
        }
        table.iter().skip(a).step_by(self.width).copied().sum()
    }

    /// Returns the total supply of `asset` across all accounts.
    pub fn total_supply(&self, asset: AssetId) -> Amount {
        self.column(&self.parties, asset) + self.column(&self.contracts, asset)
    }

    /// Returns the part of `asset`'s supply held by contract accounts, so
    /// `total_supply(asset) - contract_supply(asset)` is what the parties
    /// hold.
    pub fn contract_supply(&self, asset: AssetId) -> Amount {
        self.column(&self.contracts, asset)
    }

    /// Iterates over all `(account, asset, balance)` entries with non-zero
    /// balances, in `(account, asset)` order (parties before contracts, as
    /// in [`AccountRef`]'s derived ordering).
    pub fn iter(&self) -> impl Iterator<Item = (AccountRef, AssetId, Amount)> + '_ {
        // Both tables are empty while the width is zero.
        let width = self.width.max(1);
        let parties = self.parties.chunks_exact(width).enumerate().flat_map(|(p, row)| {
            let account = AccountRef::Party(PartyId(p as u32));
            row.iter().enumerate().map(move |(a, amount)| (account, AssetId(a as u32), *amount))
        });
        let contracts = self.contracts.chunks_exact(width).enumerate().flat_map(|(c, row)| {
            let account = AccountRef::Contract(ContractId(c as u64));
            row.iter().enumerate().map(move |(a, amount)| (account, AssetId(a as u32), *amount))
        });
        parties.chain(contracts).filter(|(_, _, amount)| !amount.is_zero())
    }

    /// Returns all assets that have ever appeared in the ledger, ascending.
    ///
    /// Derived from the asset dimension in `O(assets)` rather than by
    /// collecting, sorting and deduplicating every `(account, asset)` entry.
    pub fn assets(&self) -> Vec<AssetId> {
        self.touched
            .iter()
            .enumerate()
            .filter(|(_, touched)| **touched)
            .map(|(a, _)| AssetId(a as u32))
            .collect()
    }

    /// Forgets every balance and resets the width while keeping both
    /// tables' capacity, so that a pooled world can replay a fresh scenario
    /// without re-allocating.
    pub fn clear(&mut self) {
        self.parties.clear();
        self.contracts.clear();
        self.width = 0;
        self.touched.clear();
    }
}

pub mod oracle {
    //! The historical `BTreeMap`-backed ledger, retained verbatim as a
    //! differential oracle for the dense [`Ledger`](super::Ledger).
    //!
    //! `MapLedger` must never be used on a hot path — its whole purpose is
    //! to be the slow, obviously-correct reference that property tests
    //! compare against.

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

        /// See [`Ledger::contract_supply`].
        pub fn contract_supply(&self, asset: AssetId) -> Amount {
            self.balances
                .iter()
                .filter(|((account, a), _)| *a == asset && account.is_contract())
                .map(|(_, amount)| *amount)
                .sum()
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
        assert_eq!(ledger.contract_supply(coin()), Amount::new(4));
        assert_eq!(ledger.contract_supply(AssetId(1)), Amount::ZERO);
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
        ledger.reserve(100, 10, 3);
        ledger.mint(alice, coin(), Amount::new(5));
        let buffer = ledger.parties.as_ptr();
        ledger.clear();
        assert_eq!((ledger.width, ledger.parties.len(), ledger.contracts.len()), (0, 0, 0));
        assert_eq!(ledger.balance(alice, coin()), Amount::ZERO);
        assert_eq!(ledger.iter().count(), 0);
        assert!(ledger.assets().is_empty());
        ledger.mint(AccountRef::Party(PartyId(40)), AssetId(1), Amount::new(2));
        assert_eq!(ledger.width, 2);
        assert_eq!(ledger.parties.as_ptr(), buffer, "a cleared ledger re-allocated");
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
    fn a_higher_asset_id_widens_live_rows_in_place() {
        let mut ledger = Ledger::new();
        for p in 0..4 {
            ledger.mint(AccountRef::Party(PartyId(p)), coin(), Amount::new(10 + u128::from(p)));
        }
        ledger.mint(AccountRef::Contract(ContractId(1)), AssetId(1), Amount::new(7));
        assert_eq!(ledger.width, 2);
        let before: Vec<_> = ledger.iter().collect();

        ledger.mint(AccountRef::Party(PartyId(2)), AssetId(4), Amount::new(3));
        assert_eq!(ledger.width, 5);
        assert_eq!(ledger.parties.len(), 4 * 5);
        assert_eq!(ledger.contracts.len(), 2 * 5);
        let mut expected = before;
        expected.insert(3, (AccountRef::Party(PartyId(2)), AssetId(4), Amount::new(3)));
        assert_eq!(ledger.iter().collect::<Vec<_>>(), expected);
        assert_eq!(ledger.assets(), vec![AssetId(0), AssetId(1), AssetId(4)]);
        assert_eq!(ledger.total_supply(coin()), Amount::new(46));
        assert_eq!(ledger.contract_supply(AssetId(1)), Amount::new(7));
    }

    #[test]
    fn a_huge_contract_id_never_wraps_onto_another_row() {
        let mut ledger = Ledger::new();
        ledger.mint(AccountRef::Contract(ContractId(0)), AssetId(1), Amount::new(5));
        ledger.mint(AccountRef::Party(PartyId(0)), AssetId(2), Amount::new(6));
        // Width 3: `(u64::MAX / 3) * 3 + 2` would wrap to 1.
        let huge = AccountRef::Contract(ContractId(u64::MAX / 3));
        assert_eq!(ledger.balance(huge, AssetId(2)), Amount::ZERO);
        assert_eq!(
            ledger.balance(AccountRef::Contract(ContractId(u64::MAX)), coin()),
            Amount::ZERO
        );
    }

    #[test]
    fn clone_from_copies_into_the_destination_tables() {
        let alice = AccountRef::Party(PartyId(0));
        let escrow = AccountRef::Contract(ContractId(0));
        let mut source = Ledger::new();
        source.mint(alice, AssetId(1), Amount::new(9));
        source.transfer(alice, escrow, AssetId(1), Amount::new(2)).unwrap();

        let mut big = Ledger::new();
        big.reserve(50, 20, 4);
        big.mint(AccountRef::Party(PartyId(7)), AssetId(3), Amount::new(1));
        // A source of the same shape and then a smaller one: both fit the
        // destination's capacity, so its table buffers must survive.
        for source in [big.clone(), source] {
            let mut destination = big.clone();
            let buffers = (destination.parties.as_ptr(), destination.contracts.as_ptr());
            destination.clone_from(&source);
            assert_eq!(
                (destination.parties.as_ptr(), destination.contracts.as_ptr()),
                buffers,
                "clone_from re-allocated a table"
            );
            assert_eq!(destination.iter().collect::<Vec<_>>(), source.iter().collect::<Vec<_>>());
            assert_eq!(destination.assets(), source.assets());
            assert_eq!(destination.width, source.width);
        }
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
