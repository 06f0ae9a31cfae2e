//! Differential tests: every sweep family run through recorded prefixes
//! (`ParallelSweep::new(threads)`) must be **byte-identical** to the replay
//! oracle (`ParallelSweep::new(1).replay_oracle()`), which runs every
//! scenario from scratch, at 1, 2 and 4 worker threads — and the underlying
//! protocol reports must match field-for-field for every profile, not just
//! the violation summaries.

use std::collections::{BTreeMap, BTreeSet};

use chainsim::{PartyId, World};
use modelcheck::engine::{ParallelSweep, ScenarioGen};
use modelcheck::scenarios::{AuctionSweep, BootstrapSweep, BrokerSweep, DealSweep, TwoPartySweep};
use protocols::auction::{AuctionConfig, AuctioneerBehaviour};
use protocols::bootstrap::{BootstrapConfig, BootstrapDeviation};
use protocols::broker::{broker_deal_config, BrokerConfig};
use protocols::deal::{self, DealConfig};
use protocols::multi_party::{cycle_config, figure3_config, random_config};
use protocols::script::{profile, Prefix, Protocol, Strategy};
use protocols::two_party::{self, run_swap_shared, SwapProtocol, TwoPartyConfig, TwoPartySwap};

/// Sweeps `family` through recorded prefixes at 1, 2 and 4 threads and
/// asserts every summary is byte-identical to the replay oracle's.
fn assert_prefix_matches_oracle(family: &dyn ScenarioGen) {
    let oracle = format!("{:?}", ParallelSweep::new(1).replay_oracle().run(family));
    for threads in [1usize, 2, 4] {
        let shared = format!("{:?}", ParallelSweep::new(threads).run(family));
        assert_eq!(
            shared,
            oracle,
            "recorded prefixes diverged from the replay oracle for {:?} at {threads} threads",
            family.family()
        );
    }
}

#[test]
fn two_party_sweeps_match_the_replay_oracle() {
    assert_prefix_matches_oracle(&TwoPartySweep::hedged(TwoPartyConfig::default()));
    // The base protocol *has* violations; both paths must find the same ones.
    assert_prefix_matches_oracle(&TwoPartySweep::base(TwoPartyConfig::default()));
}

#[test]
fn deal_sweeps_match_the_replay_oracle() {
    // Single-deviator budgets sweep the full per-party
    // `stop_after × timing × faults` space — 70 non-default strategies per
    // party — so every timing and fault profile is diffed against the
    // replay oracle here.
    for (name, config) in [
        ("figure3", figure3_config()),
        ("broker", broker_deal_config(&BrokerConfig::default())),
        ("cycle-4", cycle_config(4)),
        ("random-4", random_config(4, 3, 7)),
    ] {
        assert_prefix_matches_oracle(&DealSweep::at_most(name, config, 1));
    }
}

#[test]
fn full_product_deal_sweep_matches_the_replay_oracle() {
    // The full joint product (71² profiles, timing and fault pairs
    // included) on the two-party cycle.
    assert_prefix_matches_oracle(&DealSweep::full("cycle-2-full", cycle_config(2)));
}

#[test]
fn broker_sweep_matches_the_replay_oracle() {
    assert_prefix_matches_oracle(&BrokerSweep::at_most(&BrokerConfig::default(), 1));
}

#[test]
fn auction_and_bootstrap_sweeps_match_the_replay_oracle() {
    assert_prefix_matches_oracle(&AuctionSweep::default());
    assert_prefix_matches_oracle(&BootstrapSweep::new(5_000, 20_000, 10, 3));
}

/// The replay switch must be live: a replay-mode slot runs every
/// scenario from scratch and records no prefix, while a default slot
/// records one per family. Otherwise the differentials above would compare
/// the prefix path with itself.
#[test]
fn replay_mode_records_no_prefix() {
    let families: Vec<Box<dyn ScenarioGen>> = vec![
        Box::new(TwoPartySweep::hedged(TwoPartyConfig::default())),
        Box::new(DealSweep::at_most("figure3", figure3_config(), 1)),
        Box::new(AuctionSweep::default()),
        Box::new(BootstrapSweep::new(5_000, 20_000, 10, 1)),
    ];
    for family in &families {
        let mut world = World::new(1);
        let mut shared = ParallelSweep::new(1).scratch();
        let mut replay = ParallelSweep::new(1).replay_oracle().scratch();
        // The first eight scenarios: one auctioneer behaviour, one prefix.
        for index in 0..8 {
            let from_prefix = family.check(index, &mut world, &mut shared);
            let from_scratch = family.check(index, &mut world, &mut replay);
            assert_eq!(from_prefix, from_scratch, "{} #{index}", family.family());
        }
        assert_eq!(shared.prefixes(), 1, "{}", family.family());
        assert_eq!(replay.prefixes(), 0, "{}", family.family());
    }
}

// ---------------------------------------------------------------------------
// Report-level differentials: whole Debug-rendered reports, every profile.
// ---------------------------------------------------------------------------

/// Every single-deviator profile of `config` (the full per-party
/// `stop_after × timing × faults` space), plus a batch of handcrafted
/// two-deviator profiles mixing the axes, reports compared field-for-field
/// between the recorded prefix and from-scratch execution.
fn assert_deal_reports_identical(config: &DealConfig) {
    use protocols::script::Fault;
    let parties = config.parties();
    let mixed_pairs: Vec<BTreeMap<PartyId, Strategy>> = {
        let a = parties[0];
        let b = *parties.last().expect("deal has parties");
        vec![
            BTreeMap::from([(a, Strategy::compliant().late()), (b, Strategy::stop_after(2))]),
            BTreeMap::from([
                (a, Strategy::stop_after(3).late()),
                (b, Strategy::compliant().with_fault(Fault::Crash { step: 1 })),
            ]),
            BTreeMap::from([
                (a, Strategy::compliant().with_fault(Fault::Garbage { step: 0 }).late()),
                (b, Strategy::stop_after(1).with_fault(Fault::Crash { step: 0 })),
            ]),
            BTreeMap::from([(a, Strategy::compliant().late()), (b, Strategy::compliant().late())]),
        ]
    };
    let mut prefix_world = World::new(1);
    let mut oracle_world = World::new(1);
    let mut prefix = Prefix::record(config.clone(), &mut prefix_world);
    let sweep = DealSweep::at_most("diff", config.clone(), 1);
    let profiles = (0..sweep.total()).map(|i| sweep.profile(i)).chain(mixed_pairs);
    for strategies in profiles {
        let shared = prefix.run(&profile(&strategies), &mut prefix_world);
        let oracle = config.run(&profile(&strategies), &mut oracle_world);
        assert_eq!(format!("{shared:?}"), format!("{oracle:?}"), "profile {strategies:?}");
    }
}

#[test]
fn deal_reports_are_byte_identical_per_profile() {
    assert_deal_reports_identical(&figure3_config());
    assert_deal_reports_identical(&broker_deal_config(&BrokerConfig::default()));
}

#[test]
fn two_party_reports_are_byte_identical_per_profile() {
    let config = TwoPartyConfig::default();
    for protocol in [SwapProtocol::Hedged, SwapProtocol::Base] {
        let space = two_party::strategy_space_for(protocol);
        let mut prefix_world = World::new(1);
        let mut oracle_world = World::new(1);
        let mut cache = None;
        for &alice in &space {
            for &bob in &space {
                let shared =
                    run_swap_shared(&mut prefix_world, &config, protocol, alice, bob, &mut cache);
                let oracle = TwoPartySwap::new(config.clone(), protocol)
                    .run(&two_party::profile(alice, bob), &mut oracle_world);
                assert_eq!(
                    format!("{shared:?}"),
                    format!("{oracle:?}"),
                    "{protocol:?} alice={alice} bob={bob}"
                );
            }
        }
    }
}

#[test]
fn auction_reports_are_byte_identical_per_profile() {
    for behaviour in [
        AuctioneerBehaviour::DeclareHighBidder,
        AuctioneerBehaviour::DeclareLowBidder,
        AuctioneerBehaviour::Abandon,
    ] {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        let mut prefix_world = World::new(1);
        let mut oracle_world = World::new(1);
        let mut prefix = Prefix::record(config.clone(), &mut prefix_world);
        for party in 0..3u32 {
            for strategy in protocols::auction::strategy_space() {
                let strategies = BTreeMap::from([(PartyId(party), strategy)]);
                let shared = prefix.run(&profile(&strategies), &mut prefix_world);
                let oracle = config.run(&profile(&strategies), &mut oracle_world);
                assert_eq!(
                    format!("{shared:?}"),
                    format!("{oracle:?}"),
                    "{behaviour:?}, {party} plays {strategy}"
                );
            }
        }
    }
}

#[test]
fn bootstrap_reports_are_byte_identical_per_deviation() {
    for rounds in 0..=4u32 {
        let config = BootstrapConfig::new(100_000, 100_000, 10, rounds);
        let mut prefix_world = World::new(1);
        let mut oracle_world = World::new(1);
        let mut prefix = Prefix::record(config, &mut prefix_world);
        for deviation in BootstrapDeviation::all(rounds) {
            let profile = deviation.profile(rounds);
            let shared = prefix.run(&profile, &mut prefix_world);
            let oracle = config.run(&profile, &mut oracle_world);
            assert_eq!(
                format!("{shared:?}"),
                format!("{oracle:?}"),
                "rounds={rounds} {deviation:?}"
            );
        }
    }
}

/// Prefix sharing must not mask the violations the engine exists to find:
/// the base two-party sweep's sore-loser hits survive the shared setup.
#[test]
fn shared_prefixes_still_find_base_protocol_violations() {
    let summary = ParallelSweep::new(2).run(&TwoPartySweep::base(TwoPartyConfig::default()));
    assert!(!summary.holds());
    assert!(summary.violations.iter().all(|v| v.property == "hedged"));
}

/// Deal profile decoding must agree between the materialised and the
/// arithmetic paths, so a profile means the same deviators in the product
/// and the deviator-bounded sweeps. The arithmetic decode also serves the
/// two-party sweeps.
#[test]
fn deal_profile_spaces_agree_between_budgets() {
    let full = DealSweep::full("f", figure3_config());
    let space = deal::strategy_space();
    assert_eq!(space.len(), Strategy::space_size(deal::SCRIPT_STEPS));
    assert_eq!(full.total(), space.len().pow(3));
    // The product's profiles with at most one deviator are exactly the
    // deviator-bounded list.
    let decoded: BTreeSet<BTreeMap<PartyId, Strategy>> =
        (0..full.total()).map(|index| full.profile(index)).filter(|p| p.len() <= 1).collect();
    let bounded = DealSweep::at_most("b", figure3_config(), 1);
    let listed: BTreeSet<BTreeMap<PartyId, Strategy>> =
        (0..bounded.total()).map(|index| bounded.profile(index)).collect();
    assert_eq!(listed.len(), 211);
    assert_eq!(decoded, listed);
    // The hedged two-party product decodes each `(alice, bob)` pair of its
    // 49-strategy space exactly once.
    let hedged = TwoPartySweep::hedged(TwoPartyConfig::default());
    let pairs: BTreeSet<(Strategy, Strategy)> = (0..hedged.total())
        .map(|index| {
            let strategies = hedged.profile(index);
            let strategy = profile(&strategies);
            (strategy(two_party::ALICE), strategy(two_party::BOB))
        })
        .collect();
    let space = two_party::strategy_space();
    assert_eq!(space.len(), 49);
    assert_eq!(hedged.total(), space.len() * space.len());
    assert_eq!(pairs.len(), hedged.total());
    assert!(pairs.iter().all(|(alice, bob)| space.contains(alice) && space.contains(bob)));
}
