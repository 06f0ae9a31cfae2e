//! Experiment C9 — substrate throughput: the chain simulator itself.

use chainsim::{AccountRef, Amount, AssetId, PartyId, World};
use contracts::{HtlcEscrow, HtlcMsg};
use criterion::{criterion_group, criterion_main, Criterion};
use cryptosim::Secret;

fn escrow_redeem_round_trip() {
    let mut world = World::new(1);
    let chain = world.add_chain("apricot");
    let token = world.register_asset("token");
    world.chain_mut(chain).mint(PartyId(0), token, Amount::new(1));
    let secret = Secret::from_seed(1);
    let escrow = HtlcEscrow::new(
        PartyId(0),
        PartyId(1),
        token,
        Amount::new(1),
        secret.hashlock(),
        chainsim::Time(10),
    );
    let id = world.chain_mut(chain).publish(PartyId(0), Box::new(escrow));
    let addr = chainsim::ContractAddr::new(chain, id);
    world.call(PartyId(0), addr, &HtlcMsg::Escrow).unwrap();
    world.call(PartyId(1), addr, &HtlcMsg::Redeem { secret }).unwrap();
    assert_eq!(world.chain(chain).balance(AccountRef::Party(PartyId(1)), token), Amount::new(1));
}

fn ledger_transfers(n: u64) {
    let mut world = World::new(1);
    let chain = world.add_chain("a");
    let coin = AssetId(0);
    world.chain_mut(chain).mint(PartyId(0), coin, Amount::new(u128::from(n)));
    for _ in 0..n {
        world
            .chain_mut(chain)
            .ledger_mut()
            .transfer(
                AccountRef::Party(PartyId(0)),
                AccountRef::Party(PartyId(1)),
                coin,
                Amount::new(1),
            )
            .unwrap();
    }
}

fn bench_chainsim(c: &mut Criterion) {
    bench::header("C9: substrate micro-benchmarks", &["benchmark", "see criterion output"]);
    c.bench_function("htlc_escrow_redeem_round_trip", |b| b.iter(escrow_redeem_round_trip));
    c.bench_function("ledger_transfers_1000", |b| b.iter(|| ledger_transfers(1000)));
}

criterion_group!(benches, bench_chainsim);
criterion_main!(benches);
