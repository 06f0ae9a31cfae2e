//! Experiment C10 — the dense ledger at market scale. Populates 1,000,000
//! party accounts on `chainsim::Ledger` and on the `MapLedger` differential
//! oracle, replays one seed-pinned uniform transfer mix on both, checks
//! that every balance agrees, and prints each ledger's ops/s. Timings are
//! wall-clock; run it in release:
//!
//! ```text
//! cargo run --release --example ledger_scale
//! ```

use std::time::Instant;

use sore_loser_hedging::chainsim::{AccountRef, Amount, AssetId, Ledger, MapLedger, PartyId};
use sore_loser_hedging::marketsim::market::SplitMix64;

/// Party accounts on each ledger.
const ACCOUNTS: u32 = 1_000_000;
/// Per-account endowment, far more than the transfer mix can drain.
const ENDOWMENT: u128 = 1_000_000;
/// Unit transfers replayed on each ledger.
const TRANSFERS: u32 = 1_000_000;
/// The pinned seed of the account-pair stream.
const SEED: u64 = 0x1ED6_E55C_A1E0;
const COIN: AssetId = AssetId(0);
const OVERDRAWN: &str = "endowed account overdrawn";

fn accounts() -> impl Iterator<Item = AccountRef> {
    (0..ACCOUNTS).map(|p| AccountRef::Party(PartyId(p)))
}

/// The `(from, to)` stream. A self-transfer is a legal ledger op, so pairs
/// are not rejection-sampled and both ledgers replay the same sequence.
fn pairs() -> impl Iterator<Item = (AccountRef, AccountRef)> {
    let mut rng = SplitMix64::new(SEED);
    let mut draw = move || AccountRef::Party(PartyId(rng.below(u64::from(ACCOUNTS)) as u32));
    (0..TRANSFERS).map(move |_| (draw(), draw()))
}

/// Runs `ops`, `count` operations long, and returns operations per second.
fn ops_per_s(count: u32, ops: impl FnOnce()) -> f64 {
    let start = Instant::now();
    ops();
    f64::from(count) / start.elapsed().as_secs_f64()
}

fn main() {
    let (one, endowment) = (Amount::new(1), Amount::new(ENDOWMENT));
    let mut dense = Ledger::new();
    let dense_populate = ops_per_s(ACCOUNTS, || {
        dense.reserve(ACCOUNTS as usize, 0, 1);
        accounts().for_each(|a| dense.mint(a, COIN, endowment));
    });
    let dense_transfers = ops_per_s(TRANSFERS, || {
        pairs().for_each(|(from, to)| dense.transfer(from, to, COIN, one).expect(OVERDRAWN));
    });
    let mut map = MapLedger::new();
    let map_populate =
        ops_per_s(ACCOUNTS, || accounts().for_each(|a| map.mint(a, COIN, endowment)));
    let map_transfers = ops_per_s(TRANSFERS, || {
        pairs().for_each(|(from, to)| map.transfer(from, to, COIN, one).expect(OVERDRAWN));
    });
    assert!(accounts().all(|a| dense.balance(a, COIN) == map.balance(a, COIN)));

    println!("C10: Ledger vs MapLedger at {ACCOUNTS} accounts (seed {SEED:#x})");
    println!("operation | Ledger ops/s | MapLedger ops/s");
    println!("transfers | {dense_transfers:.0} | {map_transfers:.0}");
    println!("populate (mint) | {dense_populate:.0} | {map_populate:.0}");
}
