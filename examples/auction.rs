//! The hedged ticket auction of §9: honest, cheating and absent auctioneers.

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::auction::{AuctionConfig, AuctioneerBehaviour};
use sore_loser_hedging::protocols::script::{Protocol, Strategy};

fn main() {
    for behaviour in [
        AuctioneerBehaviour::DeclareHighBidder,
        AuctioneerBehaviour::DeclareLowBidder,
        AuctioneerBehaviour::Abandon,
    ] {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        let report = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        println!("== auctioneer behaviour: {behaviour:?} ==");
        println!("  outcome: {:?}", report.outcome);
        println!("  ticket winner: {:?}", report.ticket_winner);
        println!("  bidder coin payoffs: {:?}", report.bidder_coin_payoffs);
        println!("  auctioneer coin payoff: {:+}", report.auctioneer_coin_payoff);
        println!(
            "  no bid stolen: {} | bidders compensated: {}",
            report.no_bid_stolen, report.bidders_compensated
        );
        println!();
    }
}
