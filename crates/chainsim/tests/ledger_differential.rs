//! Differential testing of the dense [`Ledger`] against the map-backed
//! [`MapLedger`] oracle.
//!
//! The dense ledger replaced the original `BTreeMap<(AccountRef, AssetId),
//! Amount>` layout on the simulator's hot path; the original implementation
//! is retained verbatim as `MapLedger` precisely so these properties can
//! pin that the two agree on arbitrary operation sequences — balances,
//! iteration order, asset lists, total supplies, and the error paths.

use chainsim::{AccountRef, Amount, AssetId, ContractId, Ledger, MapLedger, PartyId};
use proptest::prelude::*;
use proptest::{Strategy, TestRunner};

/// One randomly generated ledger operation.
#[derive(Clone, Debug)]
enum Op {
    Mint {
        account: AccountRef,
        asset: AssetId,
        amount: Amount,
    },
    Transfer {
        from: AccountRef,
        to: AccountRef,
        asset: AssetId,
        amount: Amount,
    },
    /// Pre-allocate rows; invisible to the oracle.
    Reserve {
        parties: usize,
        contracts: usize,
        assets: usize,
    },
    /// Forget everything; the oracle starts afresh.
    Clear,
    /// `clone_from` into a second dense ledger built to this shape (and
    /// holding a balance of its own), which then carries on in place of the
    /// first.
    CloneFrom {
        parties: usize,
        contracts: usize,
        assets: usize,
    },
}

/// Draws a short sequence of operations over a deliberately small id space
/// (6 parties, 6 contracts, up to 7 assets, amounts 0..40) so that accounts
/// collide, transfers overdraw, and zero-value transfers occur — the full
/// behaviour surface of both implementations. The asset ceiling rises
/// along the sequence, so higher asset ids first arrive after balances
/// exist and the dense tables must widen their live rows in place.
struct OpsStrategy {
    max_len: u64,
}

fn account(bits: u64) -> AccountRef {
    if bits.is_multiple_of(2) {
        AccountRef::Party(PartyId(((bits >> 1) % 6) as u32))
    } else {
        AccountRef::Contract(ContractId((bits >> 1) % 6))
    }
}

impl Strategy for OpsStrategy {
    type Value = Vec<Op>;

    fn sample(&self, runner: &mut TestRunner) -> Vec<Op> {
        let len = runner.next_u64() % self.max_len;
        (0..len)
            .map(|index| {
                let kind = runner.next_u64() % 24;
                let ceiling = (1 + index / 6).min(7);
                let asset = AssetId((runner.next_u64() % ceiling) as u32);
                let amount = Amount::new(u128::from(runner.next_u64() % 40));
                let mut size = |bound: u64| (runner.next_u64() % bound) as usize;
                match kind {
                    0 => Op::Reserve { parties: size(9), contracts: size(9), assets: size(8) },
                    1 => Op::Clear,
                    2 | 3 => {
                        Op::CloneFrom { parties: size(9), contracts: size(9), assets: size(9) }
                    }
                    _ if kind.is_multiple_of(3) => {
                        Op::Mint { account: account(runner.next_u64()), asset, amount }
                    }
                    _ => Op::Transfer {
                        from: account(runner.next_u64()),
                        to: account(runner.next_u64()),
                        asset,
                        amount,
                    },
                }
            })
            .collect()
    }
}

/// Every observable of `dense` agrees with `map`: entries in iteration
/// order, the asset list, and each asset's total and contract supply.
fn agree(dense: &Ledger, map: &MapLedger) {
    let dense_entries: Vec<_> = dense.iter().collect();
    let map_entries: Vec<_> = map.iter().collect();
    prop_assert_eq!(&dense_entries, &map_entries, "iteration diverged");
    prop_assert_eq!(dense.assets(), map.assets(), "asset lists diverged");
    for a in 0..9u32 {
        prop_assert_eq!(dense.total_supply(AssetId(a)), map.total_supply(AssetId(a)));
        prop_assert_eq!(dense.contract_supply(AssetId(a)), map.contract_supply(AssetId(a)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Applying any operation sequence leaves the dense ledger and the map
    /// oracle in observably identical states, and every intermediate
    /// result (including the insufficient-funds and zero-transfer error
    /// paths) matches exactly — across reservations, clears, in-place
    /// widening and `clone_from` into differently shaped tables.
    #[test]
    fn dense_ledger_matches_the_map_oracle(ops in OpsStrategy { max_len: 60 }) {
        let mut dense = Ledger::new();
        let mut map = MapLedger::new();
        for op in &ops {
            match op {
                Op::Mint { account, asset, amount } => {
                    dense.mint(*account, *asset, *amount);
                    map.mint(*account, *asset, *amount);
                }
                Op::Transfer { from, to, asset, amount } => {
                    let d = dense.transfer(*from, *to, *asset, *amount);
                    let m = map.transfer(*from, *to, *asset, *amount);
                    match (&d, &m) {
                        (Ok(()), Ok(())) => {}
                        (Err(de), Err(me)) => prop_assert_eq!(
                            de.clone(),
                            me.clone(),
                            "errors diverged for {:?}",
                            op
                        ),
                        _ => prop_assert!(false, "results diverged: dense={:?}, map={:?}", d, m),
                    }
                }
                Op::Reserve { parties, contracts, assets } => {
                    dense.reserve(*parties, *contracts, *assets);
                }
                Op::Clear => {
                    dense.clear();
                    map = MapLedger::new();
                }
                Op::CloneFrom { parties, contracts, assets } => {
                    let mut other = Ledger::new();
                    other.reserve(*parties, *contracts, *assets);
                    other.mint(AccountRef::Party(PartyId(7)), AssetId(8), Amount::new(1));
                    other.clone_from(&dense);
                    agree(&other, &map.clone());
                    dense = other;
                }
            }

            // Observable state agrees after every single operation.
            agree(&dense, &map);
        }

        // Full cross-product of balances at the end.
        for p in 0..8u32 {
            for a in 0..9u32 {
                let party = AccountRef::Party(PartyId(p));
                let contract = AccountRef::Contract(ContractId(u64::from(p)));
                prop_assert_eq!(dense.balance(party, AssetId(a)), map.balance(party, AssetId(a)));
                prop_assert_eq!(
                    dense.balance(contract, AssetId(a)),
                    map.balance(contract, AssetId(a))
                );
            }
        }
    }

    /// `clear` returns the dense ledger to a state indistinguishable from a
    /// fresh one, so pooled worlds cannot leak state between scenarios.
    #[test]
    fn cleared_dense_ledger_behaves_like_fresh(ops in OpsStrategy { max_len: 40 }) {
        let mut dense = Ledger::new();
        for op in &ops {
            match op {
                Op::Mint { account, asset, amount } => dense.mint(*account, *asset, *amount),
                Op::Transfer { from, to, asset, amount } => {
                    let _ = dense.transfer(*from, *to, *asset, *amount);
                }
                Op::Reserve { parties, contracts, assets } => {
                    dense.reserve(*parties, *contracts, *assets)
                }
                Op::Clear | Op::CloneFrom { .. } => {}
            }
        }
        dense.clear();
        prop_assert_eq!(dense.iter().count(), 0);
        prop_assert!(dense.assets().is_empty());

        // Replay the same sequence against the cleared ledger and a fresh
        // oracle: they must agree exactly.
        let mut map = MapLedger::new();
        for op in &ops {
            match op {
                Op::Mint { account, asset, amount } => {
                    dense.mint(*account, *asset, *amount);
                    map.mint(*account, *asset, *amount);
                }
                Op::Transfer { from, to, asset, amount } => {
                    let d = dense.transfer(*from, *to, *asset, *amount);
                    let m = map.transfer(*from, *to, *asset, *amount);
                    prop_assert_eq!(d.is_ok(), m.is_ok());
                }
                Op::Reserve { .. } | Op::Clear | Op::CloneFrom { .. } => {}
            }
        }
        let dense_entries: Vec<_> = dense.iter().collect();
        let map_entries: Vec<_> = map.iter().collect();
        prop_assert_eq!(dense_entries, map_entries);
    }
}
