//! World-reuse and thread-count determinism.
//!
//! Sweeps reuse pooled worlds across scenarios, which must not change a
//! single observable outcome: this suite runs all five protocols from
//! scratch through fresh and deliberately dirty worlds (to exercise
//! `World::reset`) and asserts payoffs and reports are identical, then pins
//! that `CheckSummary` is bit-for-bit identical across thread counts. The
//! dirty world of a deal has first run another deal, so its memo store
//! already holds that deal's signed and verified hashkeys.

use std::collections::BTreeMap;

use sore_loser_hedging::chainsim::{Amount, PartyId, World};
use sore_loser_hedging::modelcheck::engine::{FamilyScratch, ParallelSweep, ScenarioGen};
use sore_loser_hedging::modelcheck::sampled::SampledSweep;
use sore_loser_hedging::modelcheck::scenarios::{DealSweep, TwoPartySweep};
use sore_loser_hedging::modelcheck::{check_auction, check_bootstrap, sampled_families};
use sore_loser_hedging::protocols::auction::{AuctionConfig, AuctioneerBehaviour};
use sore_loser_hedging::protocols::bootstrap::{BootstrapConfig, BootstrapDeviation};
use sore_loser_hedging::protocols::broker::{broker_deal_config, BrokerConfig};
use sore_loser_hedging::protocols::deal::DealConfig;
use sore_loser_hedging::protocols::multi_party::figure3_config;
use sore_loser_hedging::protocols::script::{profile, Protocol, Strategy};
use sore_loser_hedging::protocols::two_party::{
    self, SwapProtocol, TwoPartyConfig, TwoPartySwap, SCRIPT_STEPS,
};

/// A world that has already hosted an unrelated run, so every run must
/// prove `World::reset` leaves no residue.
fn dirty_world() -> World {
    let mut world = World::new(1);
    let chain = world.add_chain("leftover");
    let coin = world.register_asset("leftover-coin");
    world.chain_mut(chain).mint(PartyId(9), coin, Amount::new(123));
    world.advance_blocks(17);
    world
}

fn worlds() -> Vec<World> {
    vec![World::new(1), dirty_world()]
}

/// A fresh world and a dirty one in which `other` has run first.
fn worlds_after(other: &DealConfig) -> Vec<World> {
    let mut dirty = dirty_world();
    let report = other.run(&|_| Strategy::compliant(), &mut dirty);
    assert!(report.completed, "the deal run first must complete");
    vec![World::new(1), dirty]
}

#[test]
fn two_party_swaps_are_identical_across_world_reuse() {
    let config = TwoPartyConfig::default();
    for alice in Strategy::all(SCRIPT_STEPS) {
        for bob in Strategy::all(SCRIPT_STEPS) {
            for protocol in [SwapProtocol::Hedged, SwapProtocol::Base] {
                let swap = TwoPartySwap::new(config.clone(), protocol);
                let mut reports = worlds()
                    .into_iter()
                    .map(|mut world| swap.run(&two_party::profile(alice, bob), &mut world));
                let reference = reports.next().unwrap();
                for report in reports {
                    assert_eq!(report.payoffs, reference.payoffs, "alice={alice}, bob={bob}");
                    assert_eq!(report.swap_completed, reference.swap_completed);
                    assert_eq!(report.hedged_for_alice, reference.hedged_for_alice);
                    assert_eq!(report.hedged_for_bob, reference.hedged_for_bob);
                    assert_eq!(report.failed_actions, reference.failed_actions);
                    assert_eq!(report.rounds, reference.rounds);
                }
            }
        }
    }
}

#[test]
fn multi_party_swap_is_identical_across_world_reuse() {
    let config = figure3_config();
    let brokered_sale = broker_deal_config(&BrokerConfig::default());
    for party in config.parties() {
        for stop in 0..5usize {
            let strategies = BTreeMap::from([(party, Strategy::stop_after(stop))]);
            let mut reports = worlds_after(&brokered_sale)
                .into_iter()
                .map(|mut world| config.run(&profile(&strategies), &mut world));
            let reference = reports.next().unwrap();
            for report in reports {
                assert_eq!(report.payoffs, reference.payoffs, "{party} stops@{stop}");
                assert_eq!(report.completed, reference.completed);
                assert_eq!(report.failed_actions, reference.failed_actions);
                assert_eq!(report.rounds, reference.rounds);
            }
        }
    }
}

#[test]
fn brokered_sale_is_identical_across_world_reuse() {
    let config = broker_deal_config(&BrokerConfig::default());
    for party in [PartyId(0), PartyId(1), PartyId(2)] {
        let strategies = BTreeMap::from([(party, Strategy::stop_after(2))]);
        let mut reports = worlds_after(&figure3_config())
            .into_iter()
            .map(|mut world| config.run(&profile(&strategies), &mut world));
        let reference = reports.next().unwrap();
        for report in reports {
            assert_eq!(report.payoffs, reference.payoffs, "{party}");
            assert_eq!(report.completed, reference.completed);
        }
    }
}

#[test]
fn auction_is_identical_across_world_reuse() {
    for behaviour in [
        AuctioneerBehaviour::DeclareHighBidder,
        AuctioneerBehaviour::DeclareLowBidder,
        AuctioneerBehaviour::Abandon,
    ] {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        let strategies = BTreeMap::from([(PartyId(1), Strategy::stop_after(1))]);
        let mut reports =
            worlds().into_iter().map(|mut world| config.run(&profile(&strategies), &mut world));
        let reference = reports.next().unwrap();
        for report in reports {
            assert_eq!(report.payoffs, reference.payoffs, "{behaviour:?}");
            assert_eq!(report.outcome, reference.outcome);
            assert_eq!(report.ticket_winner, reference.ticket_winner);
            assert_eq!(report.no_bid_stolen, reference.no_bid_stolen);
        }
    }
}

#[test]
fn bootstrap_is_identical_across_world_reuse() {
    for deviation in [
        BootstrapDeviation::None,
        BootstrapDeviation::StopAtLevel { party: PartyId(0), level: 1 },
        BootstrapDeviation::StopAtLevel { party: PartyId(1), level: 0 },
    ] {
        let config = BootstrapConfig::new(5_000, 20_000, 10, 2);
        let mut reports = worlds()
            .into_iter()
            .map(|mut world| config.run(&deviation.profile(config.rounds), &mut world));
        let reference = reports.next().unwrap();
        for report in reports {
            assert_eq!(report.alice_payoff, reference.alice_payoff, "{deviation:?}");
            assert_eq!(report.bob_payoff, reference.bob_payoff, "{deviation:?}");
            assert_eq!(report.deepest_completed_level, reference.deepest_completed_level);
            assert_eq!(report.loss_bounded_by_initial_risk, reference.loss_bounded_by_initial_risk);
        }
    }
}

#[test]
fn check_summaries_are_identical_across_threads() {
    // Hedged two-party (clean), base two-party (must keep finding the
    // sore-loser violations) and a bounded deal sweep.
    let hedged = TwoPartySweep::hedged(TwoPartyConfig::default());
    let base = TwoPartySweep::base(TwoPartyConfig::default());
    let deal = DealSweep::at_most("figure3", figure3_config(), 2);

    let reference_hedged = ParallelSweep::new(1).run(&hedged);
    let reference_base = ParallelSweep::new(1).run(&base);
    let reference_deal = ParallelSweep::new(1).run(&deal);
    assert!(reference_hedged.holds());
    assert!(!reference_base.holds(), "negative control: the attack must still be found");
    assert!(reference_deal.holds());

    for threads in [1usize, 2, 4] {
        let sweep = ParallelSweep::new(threads);
        assert_eq!(sweep.run(&hedged), reference_hedged, "threads={threads}");
        assert_eq!(sweep.run(&base), reference_base, "threads={threads}");
        assert_eq!(sweep.run(&deal), reference_deal, "threads={threads}");
    }
}

#[test]
fn sampled_summaries_are_identical_across_threads() {
    // The sampler's determinism contract: scenario `i` depends only on
    // `(family_seed, i)`, so the whole `CheckSummary` of every sampled
    // family must be bit-for-bit identical across thread counts — exactly
    // like the enumerated families above.
    let families = sampled_families(0x7ACE, 150);
    let refs: Vec<&dyn ScenarioGen> =
        families.iter().map(|family| family.as_ref() as &dyn ScenarioGen).collect();
    let reference = ParallelSweep::new(1).run_all(&refs);
    assert!(reference.holds(), "{:?}", reference.violations);
    assert_eq!(reference.runs, 6 * 150);

    for threads in [1usize, 2, 4] {
        let summary = ParallelSweep::new(threads).run_all(&refs);
        assert_eq!(summary, reference, "threads={threads}");
    }
}

#[test]
fn sampled_scenarios_are_identical_across_world_reuse() {
    // Single-scenario reproduction must also be reuse-insensitive: judging
    // sample `i` through the engine-facing `check` in a fresh world or a
    // dirty reused world yields the same verdicts as the standalone
    // `check_scenario` reproduction entry point (here: all clean).
    let family = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 0x7ACE, 40);
    for index in 0..family.samples() {
        let scenario = family.scenario_at(index);
        assert_eq!(scenario, family.scenario_at(index), "sample {index} must re-derive");
        let reference = family.check_scenario(&scenario);
        for mut world in worlds() {
            let mut cache = FamilyScratch::default();
            let violations = family.check(index, &mut world, &mut cache);
            assert_eq!(violations, reference, "sample {index}");
        }
    }
}

#[test]
fn bundled_checks_still_hold_end_to_end() {
    // The facade-level helpers exercise pooled scratch worlds internally.
    assert!(check_auction().holds());
    assert!(check_bootstrap(2).holds());
}
