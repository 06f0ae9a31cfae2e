//! Cross-crate integration tests: complete protocol executions on the
//! simulator, exercised through the facade crate's public API.

use std::collections::BTreeMap;

use sore_loser_hedging::chainsim::{Amount, PartyId, World};
use sore_loser_hedging::protocols::auction::{AuctionConfig, AuctioneerBehaviour};
use sore_loser_hedging::protocols::bootstrap::{BootstrapConfig, BootstrapDeviation};
use sore_loser_hedging::protocols::broker::{broker_deal_config, BrokerConfig};
use sore_loser_hedging::protocols::multi_party::{cycle_config, figure3_config};
use sore_loser_hedging::protocols::script::{self, Protocol, Strategy};
use sore_loser_hedging::protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};

#[test]
fn hedged_two_party_swap_full_matrix_is_hedged() {
    let swap = TwoPartySwap::hedged(TwoPartyConfig::default());
    for alice in Strategy::all(4) {
        for bob in Strategy::all(4) {
            let report = swap.run(&profile(alice, bob), &mut World::new(1));
            if alice.is_compliant() {
                assert!(report.hedged_for_alice, "alice={alice} bob={bob}");
            }
            if bob.is_compliant() {
                assert!(report.hedged_for_bob, "alice={alice} bob={bob}");
            }
        }
    }
}

#[test]
fn base_swap_exhibits_the_sore_loser_attack() {
    let config = TwoPartyConfig::default();
    let bob_absent = profile(Strategy::compliant(), Strategy::stop_after(0));
    let report = TwoPartySwap::base(config.clone()).run(&bob_absent, &mut World::new(1));
    assert!(!report.swap_completed);
    assert!(!report.hedged_for_alice);
    assert_eq!(report.alice_lockup.principal_blocks, 3 * config.delta_blocks);
    assert_eq!(report.alice_premium_payoff, 0);
}

#[test]
fn larger_premiums_change_compensation_proportionally() {
    let config = TwoPartyConfig {
        premium_a: Amount::new(7),
        premium_b: Amount::new(5),
        ..TwoPartyConfig::default()
    };
    let swap = TwoPartySwap::hedged(config);
    // Bob reneges after premiums: Alice collects p_b = 5.
    let bob_reneges = profile(Strategy::compliant(), Strategy::stop_after(1));
    let report = swap.run(&bob_reneges, &mut World::new(1));
    assert_eq!(report.alice_premium_payoff, 5);
    // Alice reneges after escrowing: Bob nets p_a = 7.
    let alice_reneges = profile(Strategy::stop_after(2), Strategy::compliant());
    let report = swap.run(&alice_reneges, &mut World::new(1));
    assert_eq!(report.bob_premium_payoff, 7);
}

#[test]
fn multi_party_swaps_complete_and_withstand_deviations() {
    let report = figure3_config().run(&|_| Strategy::compliant(), &mut World::new(1));
    assert!(report.completed);
    for n in [3u32, 5] {
        let report = cycle_config(n).run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(report.completed, "cycle of {n}");
    }
    let strategies = BTreeMap::from([(PartyId(1), Strategy::stop_after(3))]);
    let report = figure3_config().run(&script::profile(&strategies), &mut World::new(1));
    assert!(report.all_compliant_hedged());
}

#[test]
fn brokered_sale_and_auction_end_to_end() {
    let broker = broker_deal_config(&BrokerConfig::default())
        .run(&|_| Strategy::compliant(), &mut World::new(1));
    assert!(broker.completed);
    assert!(broker.all_compliant_hedged());

    let auction = AuctionConfig::default().run(&|_| Strategy::compliant(), &mut World::new(1));
    assert_eq!(auction.ticket_winner, Some(PartyId(1)));
    let cheated = (AuctionConfig {
        auctioneer: AuctioneerBehaviour::DeclareLowBidder,
        ..AuctionConfig::default()
    })
    .run(&|_| Strategy::compliant(), &mut World::new(1));
    assert!(cheated.no_bid_stolen);
    assert!(cheated.bidders_compensated);
}

#[test]
fn bootstrap_cascade_bounds_compliant_losses() {
    let config = BootstrapConfig::new(1_000_000, 1_000_000, 100, 2);
    for level in 0..=2 {
        let deviation = BootstrapDeviation::StopAtLevel { party: PartyId(1), level };
        let report = config.run(&deviation.profile(config.rounds), &mut World::new(1));
        assert!(report.loss_bounded_by_initial_risk, "level {level}");
        assert!(report.alice_payoff >= 0);
    }
}

#[test]
fn model_checking_reports_clean_sweeps() {
    assert!(sore_loser_hedging::modelcheck::check_hedged_two_party().holds());
    assert!(!sore_loser_hedging::modelcheck::check_base_two_party().holds());
    assert!(sore_loser_hedging::modelcheck::check_auction().holds());
}
