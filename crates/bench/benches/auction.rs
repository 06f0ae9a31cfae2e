//! Experiment C5 — the §9 auction: Lemmas 7–8 and the n·p premium.

use chainsim::{Amount, World};
use criterion::{criterion_group, criterion_main, Criterion};
use protocols::auction::{AuctionConfig, AuctioneerBehaviour};
use protocols::script::{Protocol, Strategy};

fn report() {
    bench::header(
        "C5: auction outcomes per auctioneer behaviour (2 bidders, p = 2)",
        &["behaviour", "outcome", "winner", "bidder payoffs", "no bid stolen", "compensated"],
    );
    for behaviour in [
        AuctioneerBehaviour::DeclareHighBidder,
        AuctioneerBehaviour::DeclareLowBidder,
        AuctioneerBehaviour::Abandon,
    ] {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        let r = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        bench::row(&[
            format!("{behaviour:?}"),
            format!("{:?}", r.outcome),
            format!("{:?}", r.ticket_winner),
            format!("{:?}", r.bidder_coin_payoffs),
            r.no_bid_stolen.to_string(),
            r.bidders_compensated.to_string(),
        ]);
    }
    bench::header("C5: auctioneer premium endowment scales as n·p", &["bidders n", "endowment"]);
    for n in 2..=6u32 {
        let bids: Vec<Option<Amount>> =
            (0..n).map(|i| Some(Amount::new(10 + u128::from(i)))).collect();
        let config = AuctionConfig { bids, ..AuctionConfig::default() };
        bench::row(&[n.to_string(), config.premium.scaled(u128::from(n)).to_string()]);
    }
}

fn bench_auction(c: &mut Criterion) {
    report();
    let config = AuctionConfig::default();
    c.bench_function("auction_honest_two_bidders", |b| {
        b.iter(|| config.run(&|_| Strategy::compliant(), &mut World::new(1)))
    });
}

criterion_group!(benches, bench_auction);
criterion_main!(benches);
