//! Experiment C10 — the dense ledger at market scale: 1,000,000 accounts.
//!
//! The dense ledger indexes flat balance tables by sequentially assigned
//! ids, keeping the old `BTreeMap` layout as the `MapLedger` differential
//! oracle. This bench takes the receipts at realistic account
//! cardinality: populate one million party accounts and measure transfer
//! ops/sec on both implementations. The transfer mix draws uniform random
//! account pairs from a pinned SplitMix64 stream, so both ledgers replay
//! byte-identical operation sequences.

use chainsim::{AccountRef, Amount, AssetId, Ledger, MapLedger, PartyId};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use marketsim::market::SplitMix64;

/// Account cardinality under test (ROADMAP: "millions of accounts").
const ACCOUNTS: u32 = 1_000_000;

/// Per-account endowment. Large enough that a uniform random transfer mix
/// cannot realistically drain any single account over a full bench run.
const ENDOWMENT: u128 = 1_000_000;

/// Transfers executed per measured iteration.
const TRANSFERS_PER_ITER: u64 = 10_000;

/// The pinned seed of the account-pair stream.
const SEED: u64 = 0x1ED6_E55C_A1E0;

const COIN: AssetId = AssetId(0);

fn populate_vec() -> Ledger {
    let mut ledger = Ledger::new();
    ledger.reserve(ACCOUNTS as usize, 0, 1);
    for p in 0..ACCOUNTS {
        ledger.mint(AccountRef::Party(PartyId(p)), COIN, Amount::new(ENDOWMENT));
    }
    ledger
}

fn populate_map() -> MapLedger {
    let mut ledger = MapLedger::new();
    for p in 0..ACCOUNTS {
        ledger.mint(AccountRef::Party(PartyId(p)), COIN, Amount::new(ENDOWMENT));
    }
    ledger
}

/// One `(from, to)` draw; a self-transfer is a legal ledger op, so pairs are
/// not rejection-sampled and both implementations see the identical stream.
fn draw_pair(rng: &mut SplitMix64) -> (AccountRef, AccountRef) {
    let from = PartyId(rng.below(u64::from(ACCOUNTS)) as u32);
    let to = PartyId(rng.below(u64::from(ACCOUNTS)) as u32);
    (AccountRef::Party(from), AccountRef::Party(to))
}

fn transfers_vec(ledger: &mut Ledger, rng: &mut SplitMix64) {
    for _ in 0..TRANSFERS_PER_ITER {
        let (from, to) = draw_pair(rng);
        ledger.transfer(from, to, COIN, Amount::new(1)).expect("endowed account overdrawn");
    }
}

fn transfers_map(ledger: &mut MapLedger, rng: &mut SplitMix64) {
    for _ in 0..TRANSFERS_PER_ITER {
        let (from, to) = draw_pair(rng);
        ledger.transfer(from, to, COIN, Amount::new(1)).expect("endowed account overdrawn");
    }
}

fn bench_ledger_scale(c: &mut Criterion) {
    bench::header(
        "C10: dense ledger at 1M accounts (VecLedger vs MapLedger)",
        &["benchmark", "see criterion output"],
    );

    let mut group = c.benchmark_group("ledger_scale_1m");
    group.sample_size(10);

    // Transfer throughput over a fully populated ledger. Criterion's
    // `Elements` throughput turns the per-iteration time into transfer
    // ops/sec directly.
    group.throughput(Throughput::Elements(TRANSFERS_PER_ITER));
    let mut vec_ledger = populate_vec();
    let mut vec_rng = SplitMix64::new(SEED);
    group.bench_function("vec_ledger_transfers", |b| {
        b.iter(|| transfers_vec(&mut vec_ledger, &mut vec_rng))
    });
    let mut map_ledger = populate_map();
    let mut map_rng = SplitMix64::new(SEED);
    group.bench_function("map_ledger_transfers", |b| {
        b.iter(|| transfers_map(&mut map_ledger, &mut map_rng))
    });

    // Population cost: minting the million endowments from an empty ledger.
    group.throughput(Throughput::Elements(u64::from(ACCOUNTS)));
    group.bench_function("vec_ledger_populate", |b| b.iter(populate_vec));
    group.bench_function("map_ledger_populate", |b| b.iter(populate_map));

    group.finish();
}

criterion_group!(benches, bench_ledger_scale);
criterion_main!(benches);
