//! Cross-protocol conformance harness.
//!
//! Executable form of the paper's central claims (Xue & Herlihy, PODC 2021):
//! for every protocol and every per-party deviation strategy in the swept
//! space, **every compliant party is hedged** — it either completes the
//! exchange or collects the counterparty's premium — and the simulated
//! ledgers conserve funds whenever at least one compliant party remains to
//! settle the contracts. Lock-up durations are also checked against the
//! protocols' timeout structure (a compliant party's principal is never
//! stuck longer than the final contract deadline).
//!
//! These sweeps intentionally overlap with the `modelcheck` crate: the crate
//! is the reusable sweep engine, while this suite pins the guarantees to the
//! facade crate's public API so a regression in either layer fails tier-1.

use std::collections::BTreeMap;

use sore_loser_hedging::chainsim::{Amount, PartyId, World};
use sore_loser_hedging::protocols::auction::{AuctionConfig, AuctioneerBehaviour, AUCTIONEER};
use sore_loser_hedging::protocols::bootstrap::BootstrapDeviation::{
    LateAtLevel, StopAtLevel, WrongSecretAtLevel,
};
use sore_loser_hedging::protocols::bootstrap::{
    BootstrapConfig, BootstrapDeviation, BootstrapRunReport,
};
use sore_loser_hedging::protocols::broker::{broker_deal_config, BrokerConfig};
use sore_loser_hedging::protocols::deal::{DealConfig, DealReport};
use sore_loser_hedging::protocols::multi_party::{cycle_config, figure3_config};
use sore_loser_hedging::protocols::script::{
    profile, Fault, Protocol, Strategy, CRASH_OUTAGE_DELTAS,
};
use sore_loser_hedging::protocols::two_party::{
    self, TwoPartyConfig, TwoPartySwap, BASE_SCRIPT_STEPS,
};

/// Steps per two-party role; pinned against `protocols::two_party`.
const TWO_PARTY_STEPS: usize = sore_loser_hedging::protocols::two_party::SCRIPT_STEPS;
/// Steps per deal-engine role; pinned against `protocols::deal`.
const DEAL_STEPS: usize = sore_loser_hedging::protocols::deal::SCRIPT_STEPS;

/// Two-party configurations the matrix is swept under: the paper's running
/// example plus asymmetric principals, asymmetric premiums and both a tight
/// and a slack synchrony bound Δ.
fn two_party_configs() -> Vec<TwoPartyConfig> {
    vec![
        TwoPartyConfig::default(),
        TwoPartyConfig {
            premium_a: Amount::new(7),
            premium_b: Amount::new(3),
            ..TwoPartyConfig::default()
        },
        TwoPartyConfig {
            alice_tokens: Amount::new(1_000_000),
            bob_tokens: Amount::new(1),
            ..TwoPartyConfig::default()
        },
        TwoPartyConfig { delta_blocks: 1, ..TwoPartyConfig::default() },
        TwoPartyConfig { delta_blocks: 7, ..TwoPartyConfig::default() },
    ]
}

#[test]
fn hedged_two_party_matrix_is_hedged_under_all_configs() {
    for (i, config) in two_party_configs().iter().enumerate() {
        let swap = TwoPartySwap::hedged(config.clone());
        for alice in Strategy::all(TWO_PARTY_STEPS) {
            for bob in Strategy::all(TWO_PARTY_STEPS) {
                let report = swap.run(&two_party::profile(alice, bob), &mut World::new(1));
                let ctx = format!("config #{i}, alice={alice}, bob={bob}");

                // The core theorem: conformance implies the hedged outcome —
                // for eager parties AND for last-instant procrastinators.
                if alice.is_compliant() {
                    assert!(report.hedged_for_alice, "alice unhedged: {ctx}");
                }
                if bob.is_compliant() {
                    assert!(report.hedged_for_bob, "bob unhedged: {ctx}");
                }

                // Conservation of funds whenever anyone remains to settle.
                if alice.is_compliant() || bob.is_compliant() {
                    assert!(report.payoffs.conserved(), "funds not conserved: {ctx}");
                }

                // Timeout bound: the hedged contracts' last deadline is 6Δ,
                // so no principal can be locked beyond that — except that a
                // crashed party may sleep through its own settle step for
                // one outage before recovering and freeing its escrow.
                let outage = if matches!(alice.fault, Fault::Crash { .. })
                    || matches!(bob.fault, Fault::Crash { .. })
                {
                    CRASH_OUTAGE_DELTAS * config.delta_blocks
                } else {
                    0
                };
                let bound = 6 * config.delta_blocks + outage;
                assert!(
                    report.alice_lockup.principal_blocks <= bound,
                    "alice locked {} > {bound} blocks: {ctx}",
                    report.alice_lockup.principal_blocks
                );
                assert!(
                    report.bob_lockup.principal_blocks <= bound,
                    "bob locked {} > {bound} blocks: {ctx}",
                    report.bob_lockup.principal_blocks
                );

                // A compliant party that did not complete the swap keeps its
                // principal (compensation is paid in premium currency).
                if alice.is_compliant() && !report.swap_completed {
                    assert_eq!(report.alice_apricot_payoff, 0, "alice lost principal: {ctx}");
                }
                if bob.is_compliant() && !report.swap_completed {
                    assert_eq!(report.bob_banana_payoff, 0, "bob lost principal: {ctx}");
                }
            }
        }

        // Fully compliant run: principals swap, premiums come back.
        let report = swap.run(
            &two_party::profile(Strategy::compliant(), Strategy::compliant()),
            &mut World::new(1),
        );
        assert!(report.swap_completed, "config #{i}");
        assert_eq!(report.alice_banana_payoff, config.bob_tokens.value() as i128);
        assert_eq!(report.bob_apricot_payoff, config.alice_tokens.value() as i128);
        assert_eq!(report.alice_premium_payoff, 0, "config #{i}");
        assert_eq!(report.bob_premium_payoff, 0, "config #{i}");
        assert!(report.failed_actions == 0, "compliant run had failures: config #{i}");
    }
}

/// Golden deviation matrix for the hedged two-party swap under the default
/// config: for every (alice, bob) strategy pair, whether the swap completed
/// and the exact payoffs `[alice_apricot, alice_banana, alice_premium,
/// bob_apricot, bob_banana, bob_premium]`.
///
/// Regenerate with `cargo run --release --example deviation_matrix` after
/// an *intentional* protocol change, and review every shifted row against
/// §5 of the paper; an unexplained diff here means a refactor of
/// `two_party.rs` silently moved money.
const HEDGED_GOLDEN: &[(&str, &str, bool, [i128; 6])] = &[
    ("compliant", "compliant", true, [-100, 100, 0, 100, -100, 0]),
    ("compliant", "stop-after-0", false, [0, 0, 0, 0, 0, 0]),
    ("compliant", "stop-after-1", false, [0, 0, 2, 0, 0, -2]),
    ("compliant", "stop-after-2", false, [0, 100, 2, 0, -100, -2]),
    ("compliant", "stop-after-3", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-0", "compliant", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-0", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-1", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-2", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-3", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-1", "compliant", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-1", "stop-after-0", false, [0, 0, -4, 0, 0, 0]),
    ("stop-after-1", "stop-after-1", false, [0, 0, -4, 0, 0, -2]),
    ("stop-after-1", "stop-after-2", false, [0, 0, -4, 0, 0, -2]),
    ("stop-after-1", "stop-after-3", false, [0, 0, -4, 0, 0, -2]),
    ("stop-after-2", "compliant", false, [0, 0, -2, 0, 0, 2]),
    ("stop-after-2", "stop-after-0", false, [0, 0, -4, 0, 0, 0]),
    ("stop-after-2", "stop-after-1", false, [-100, 0, -4, 0, 0, -2]),
    ("stop-after-2", "stop-after-2", false, [-100, 0, -4, 0, -100, -2]),
    ("stop-after-2", "stop-after-3", false, [-100, 0, -4, 0, -100, -2]),
    ("stop-after-3", "compliant", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-3", "stop-after-0", false, [0, 0, -4, 0, 0, 0]),
    ("stop-after-3", "stop-after-1", false, [-100, 0, -4, 0, 0, -2]),
    ("stop-after-3", "stop-after-2", false, [-100, 100, 0, 0, -100, -2]),
    ("stop-after-3", "stop-after-3", true, [-100, 100, 0, 100, -100, 0]),
];

/// Golden deviation matrix for the base (unhedged) swap; see
/// [`HEDGED_GOLDEN`]. Note the sore-loser signature: deviations strand
/// principals (the `-100` rows) with premium columns pinned at zero —
/// nobody is ever compensated.
const BASE_GOLDEN: &[(&str, &str, bool, [i128; 6])] = &[
    ("compliant", "compliant", true, [-100, 100, 0, 100, -100, 0]),
    ("compliant", "stop-after-0", false, [0, 0, 0, 0, 0, 0]),
    ("compliant", "stop-after-1", false, [0, 100, 0, 0, -100, 0]),
    ("compliant", "stop-after-2", true, [-100, 100, 0, 100, -100, 0]),
    ("compliant", "stop-after-3", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-0", "compliant", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-0", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-1", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-2", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-0", "stop-after-3", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-1", "compliant", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-1", "stop-after-0", false, [-100, 0, 0, 0, 0, 0]),
    ("stop-after-1", "stop-after-1", false, [-100, 0, 0, 0, -100, 0]),
    ("stop-after-1", "stop-after-2", false, [-100, 0, 0, 0, -100, 0]),
    ("stop-after-1", "stop-after-3", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-2", "compliant", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-2", "stop-after-0", false, [-100, 0, 0, 0, 0, 0]),
    ("stop-after-2", "stop-after-1", false, [-100, 100, 0, 0, -100, 0]),
    ("stop-after-2", "stop-after-2", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-2", "stop-after-3", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-3", "compliant", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-3", "stop-after-0", false, [0, 0, 0, 0, 0, 0]),
    ("stop-after-3", "stop-after-1", false, [0, 100, 0, 0, -100, 0]),
    ("stop-after-3", "stop-after-2", true, [-100, 100, 0, 100, -100, 0]),
    ("stop-after-3", "stop-after-3", true, [-100, 100, 0, 100, -100, 0]),
];

#[test]
fn two_party_deviation_matrix_matches_the_golden_tables() {
    let config = TwoPartyConfig::default();
    for (golden, swap) in [
        (HEDGED_GOLDEN, TwoPartySwap::hedged(config.clone())),
        (BASE_GOLDEN, TwoPartySwap::base(config.clone())),
    ] {
        let mut rows = golden.iter();
        for alice in Strategy::stop_only(TWO_PARTY_STEPS) {
            for bob in Strategy::stop_only(TWO_PARTY_STEPS) {
                let (g_alice, g_bob, g_completed, g_payoffs) =
                    rows.next().expect("golden table has 25 rows per protocol");
                assert_eq!(
                    (*g_alice, *g_bob),
                    (alice.to_string().as_str(), bob.to_string().as_str())
                );
                let report = swap.run(&two_party::profile(alice, bob), &mut World::new(1));
                let observed = [
                    report.alice_apricot_payoff,
                    report.alice_banana_payoff,
                    report.alice_premium_payoff,
                    report.bob_apricot_payoff,
                    report.bob_banana_payoff,
                    report.bob_premium_payoff,
                ];
                let protocol = swap.protocol;
                assert_eq!(
                    report.swap_completed, *g_completed,
                    "{protocol:?}: completion shifted for alice={alice}, bob={bob}"
                );
                assert_eq!(
                    observed, *g_payoffs,
                    "{protocol:?}: payoffs shifted for alice={alice}, bob={bob} \
                     (regenerate with `cargo run --example deviation_matrix` \
                     only if the change is intentional)"
                );
            }
        }
        assert!(rows.next().is_none(), "golden table has exactly 25 rows");
    }
}

#[test]
fn base_two_party_matrix_shows_sore_loser_losses_but_conserves_funds() {
    let mut unhedged_compliant = 0usize;
    for config in two_party_configs() {
        let swap = TwoPartySwap::base(config.clone());
        for alice in Strategy::all(BASE_SCRIPT_STEPS) {
            for bob in Strategy::all(BASE_SCRIPT_STEPS) {
                let report = swap.run(&two_party::profile(alice, bob), &mut World::new(1));
                if (alice.is_compliant() && !report.hedged_for_alice)
                    || (bob.is_compliant() && !report.hedged_for_bob)
                {
                    unhedged_compliant += 1;
                    // The attack costs lock-up time, never minted value.
                    assert!(
                        report.payoffs.conserved(),
                        "base swap minted/destroyed funds: alice={alice}, bob={bob}"
                    );
                }
                // Base HTLC timelocks are 3Δ (Alice) and 2Δ (Bob), plus
                // one observation round: Bob abandons the redeem watch one
                // round after the last instant the secret can appear (a
                // last-instant reveal is visible only a round later), so a
                // deserted escrow is refunded at the timelock plus that
                // round. A crashed party may additionally sleep through its
                // own refund step for one outage.
                let outage = if matches!(alice.fault, Fault::Crash { .. })
                    || matches!(bob.fault, Fault::Crash { .. })
                {
                    CRASH_OUTAGE_DELTAS * config.delta_blocks
                } else {
                    0
                };
                assert!(
                    report.alice_lockup.principal_blocks <= 3 * config.delta_blocks + 1 + outage,
                    "alice locked {}: alice={alice}, bob={bob}, delta={}",
                    report.alice_lockup.principal_blocks,
                    config.delta_blocks
                );
                assert!(
                    report.bob_lockup.principal_blocks <= 3 * config.delta_blocks + 1 + outage,
                    "bob locked {}: alice={alice}, bob={bob}, delta={}",
                    report.bob_lockup.principal_blocks,
                    config.delta_blocks
                );
            }
        }
    }
    assert!(
        unhedged_compliant > 0,
        "the unhedged base protocol must exhibit the sore-loser attack somewhere in the matrix"
    );
}

#[test]
fn parallel_engine_still_finds_the_base_protocol_attack() {
    // Negative control for the model checker itself: the parallel engine
    // must *find* the base protocol's sore-loser violations — identically
    // at every thread count — while clearing the hedged protocol. An
    // engine that parallelised away a violation would pass every positive
    // test and be worthless.
    use sore_loser_hedging::modelcheck::engine::ParallelSweep;
    use sore_loser_hedging::modelcheck::scenarios::TwoPartySweep;

    let base = TwoPartySweep::base(TwoPartyConfig::default());
    let serial = ParallelSweep::new(1).run(&base);
    let parallel = ParallelSweep::new(4).run(&base);
    assert!(!serial.holds(), "the engine must expose the sore-loser attack");
    assert_eq!(serial, parallel, "violations must not depend on the worker count");
    assert!(serial.violations.iter().all(|v| v.property == "hedged"));

    let hedged = TwoPartySweep::hedged(TwoPartyConfig::default());
    assert!(ParallelSweep::new(4).run(&hedged).holds());
}

/// Asserts the deal-engine guarantees for one strategy profile.
fn assert_deal_conformance(
    config: &DealConfig,
    strategies: &BTreeMap<PartyId, Strategy>,
    report: &DealReport,
    ctx: &str,
) {
    let parties = config.parties();
    assert!(report.all_compliant_hedged(), "compliant party unhedged: {ctx}");
    for party in &parties {
        let compliant =
            strategies.get(party).copied().unwrap_or(Strategy::compliant()).is_compliant();
        let outcome = &report.parties[party];
        if compliant {
            assert!(outcome.hedged, "{party} unhedged: {ctx}");
            assert!(outcome.safety, "{party} lost safety: {ctx}");
        }
    }
    let deviators = strategies.values().filter(|s| !s.is_compliant()).count();
    if deviators <= 1 {
        // With at most one deviator every other party settles every contract
        // it can reach, so party balances balance out exactly.
        assert!(report.payoffs.conserved(), "funds not conserved: {ctx}");
    } else {
        // Multiple walk-aways can strand their own deposits inside escrows
        // forever (nobody may call their refund paths), so party balances
        // may sum below zero per asset — but value must never be minted.
        let mut per_asset: BTreeMap<_, i128> = BTreeMap::new();
        for (_, asset, payoff) in report.payoffs.iter() {
            *per_asset.entry(asset).or_insert(0) += payoff.value();
        }
        assert!(per_asset.values().all(|&total| total <= 0), "value minted from nowhere: {ctx}");
    }
    if deviators == 0 {
        assert!(report.completed, "all-compliant deal did not complete: {ctx}");
        assert_eq!(report.failed_actions, 0, "all-compliant deal had failures: {ctx}");
    }
}

#[test]
fn multi_party_swaps_single_deviator_sweep_is_hedged() {
    let configs: Vec<(&str, DealConfig)> = vec![
        ("figure3", figure3_config()),
        ("cycle3", cycle_config(3)),
        ("cycle4", cycle_config(4)),
        ("cycle5", cycle_config(5)),
    ];
    for (name, config) in &configs {
        for party in config.parties() {
            for strategy in Strategy::all(DEAL_STEPS) {
                let strategies: BTreeMap<PartyId, Strategy> = if strategy.is_compliant() {
                    BTreeMap::new()
                } else {
                    BTreeMap::from([(party, strategy)])
                };
                let report = config.run(&profile(&strategies), &mut World::new(1));
                let ctx = format!("{name}, {party} plays {strategy}");
                assert_deal_conformance(config, &strategies, &report, &ctx);
            }
        }
    }
}

#[test]
fn multi_party_figure3_two_deviators_is_hedged_for_the_rest() {
    let config = figure3_config();
    let parties = config.parties();
    for (i, &a) in parties.iter().enumerate() {
        for &b in &parties[i + 1..] {
            for stop_a in 0..DEAL_STEPS {
                for stop_b in 0..DEAL_STEPS {
                    let strategies = BTreeMap::from([
                        (a, Strategy::stop_after(stop_a)),
                        (b, Strategy::stop_after(stop_b)),
                    ]);
                    let report = config.run(&profile(&strategies), &mut World::new(1));
                    let ctx = format!("figure3, {a} stops@{stop_a}, {b} stops@{stop_b}");
                    assert_deal_conformance(&config, &strategies, &report, &ctx);
                }
            }
        }
    }
}

#[test]
fn brokered_sale_single_deviator_sweep_is_hedged() {
    let configs = [
        BrokerConfig::default(),
        BrokerConfig {
            buyer_price: Amount::new(150),
            seller_price: Amount::new(100),
            base_premium: Amount::new(5),
            ..BrokerConfig::default()
        },
    ];
    for (i, config) in configs.iter().enumerate() {
        let deal = broker_deal_config(config);
        for party in deal.parties() {
            for strategy in Strategy::all(DEAL_STEPS) {
                let strategies: BTreeMap<PartyId, Strategy> = if strategy.is_compliant() {
                    BTreeMap::new()
                } else {
                    BTreeMap::from([(party, strategy)])
                };
                let report =
                    broker_deal_config(config).run(&profile(&strategies), &mut World::new(1));
                let ctx = format!("broker config #{i}, {party} plays {strategy}");
                assert_deal_conformance(&deal, &strategies, &report, &ctx);
            }
        }
    }
}

#[test]
fn auction_sweep_never_steals_bids_and_conserves_funds() {
    let behaviours = [
        AuctioneerBehaviour::DeclareHighBidder,
        AuctioneerBehaviour::DeclareLowBidder,
        AuctioneerBehaviour::Abandon,
    ];
    let base = AuctionConfig::default();
    let mut parties = vec![AUCTIONEER];
    parties.extend(base.bidders());
    for behaviour in behaviours {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        for &party in &parties {
            for stop_after in 0..4usize {
                let strategies = BTreeMap::from([(party, Strategy::stop_after(stop_after))]);
                let report = config.run(&profile(&strategies), &mut World::new(1));
                let ctx = format!("{behaviour:?}, {party} stops after {stop_after}");
                assert!(report.no_bid_stolen, "bid stolen: {ctx}");
                assert!(report.payoffs.conserved(), "funds not conserved: {ctx}");
            }
        }
    }
}

#[test]
fn auction_declares_the_true_high_bidder_and_compensates_when_cheated() {
    // Honest auctioneer, compliant bidders: highest bid wins the ticket.
    let honest = AuctionConfig::default().run(&|_| Strategy::compliant(), &mut World::new(1));
    assert_eq!(honest.ticket_winner, Some(PartyId(1)), "default bids are [60, 40]");
    assert!(honest.no_bid_stolen);
    assert!(honest.payoffs.conserved());

    let three_bidders = AuctionConfig {
        bids: vec![Some(Amount::new(30)), Some(Amount::new(90)), Some(Amount::new(50))],
        ..AuctionConfig::default()
    };
    let report = three_bidders.run(&|_| Strategy::compliant(), &mut World::new(1));
    assert_eq!(report.ticket_winner, Some(PartyId(2)), "90 is the highest bid");
    assert!(report.payoffs.conserved());

    // A cheating auctioneer cannot both keep the premium and steal a bid.
    for behaviour in [AuctioneerBehaviour::DeclareLowBidder, AuctioneerBehaviour::Abandon] {
        let config = AuctionConfig { auctioneer: behaviour, ..AuctionConfig::default() };
        let cheated = config.run(&|_| Strategy::compliant(), &mut World::new(1));
        assert!(cheated.no_bid_stolen, "{behaviour:?}");
        assert!(cheated.payoffs.conserved(), "{behaviour:?}");
        if behaviour == AuctioneerBehaviour::DeclareLowBidder {
            assert!(cheated.bidders_compensated, "{behaviour:?}");
        }
    }
}

/// Alice and Bob in the bootstrap golden table.
const A: PartyId = PartyId(0);
/// See [`A`].
const B: PartyId = PartyId(1);

/// Golden reports of the §6 cascade the sweeps and the sampled tier check,
/// `(5_000, 20_000, 10, 3)`: for every deviation of
/// [`BootstrapDeviation::all`], in its order, the exact `(alice_payoff,
/// bob_payoff, deepest_completed_level, loss_bounded_by_initial_risk)`.
///
/// A walk-away at level `k` costs the defaulter its level-`k + 1` guard
/// deposit (nothing at the outermost level, which no deposit guards); a
/// late deposit or a rejected wrong-secret (garbage) call leaves the
/// compliant payoffs. An unexplained diff means a change to `bootstrap.rs` moved
/// money.
const BOOTSTRAP_GOLDEN: &[(BootstrapDeviation, i128, i128, u32, bool)] = &[
    (BootstrapDeviation::None, 15_000, -15_000, 0, true),
    (StopAtLevel { party: A, level: 0 }, -2_500, 2_500, 1, true),
    (LateAtLevel { party: A, level: 0 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: A, level: 0 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: A, level: 1 }, -50, 50, 2, true),
    (LateAtLevel { party: A, level: 1 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: A, level: 1 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: A, level: 2 }, -35, 35, 3, true),
    (LateAtLevel { party: A, level: 2 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: A, level: 2 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: A, level: 3 }, 0, 0, 4, true),
    (LateAtLevel { party: A, level: 3 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: A, level: 3 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: B, level: 0 }, 500, -500, 1, true),
    (LateAtLevel { party: B, level: 0 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: B, level: 0 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: B, level: 1 }, 300, -300, 2, true),
    (LateAtLevel { party: B, level: 1 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: B, level: 1 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: B, level: 2 }, 5, -5, 3, true),
    (LateAtLevel { party: B, level: 2 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: B, level: 2 }, 15_000, -15_000, 0, true),
    (StopAtLevel { party: B, level: 3 }, 0, 0, 4, true),
    (LateAtLevel { party: B, level: 3 }, 15_000, -15_000, 0, true),
    (WrongSecretAtLevel { party: B, level: 3 }, 15_000, -15_000, 0, true),
];

#[test]
fn bootstrap_deviations_match_the_golden_table() {
    let (a, b, ratio, rounds) = (5_000, 20_000, 10, 3);
    let deviations: Vec<BootstrapDeviation> = BOOTSTRAP_GOLDEN.iter().map(|row| row.0).collect();
    assert_eq!(deviations, BootstrapDeviation::all(rounds), "one row per deviation, in order");
    for &(deviation, alice, bob, deepest, bounded) in BOOTSTRAP_GOLDEN {
        let report = cascade(a, b, ratio, rounds, deviation);
        assert_eq!(
            (
                report.alice_payoff,
                report.bob_payoff,
                report.deepest_completed_level,
                report.loss_bounded_by_initial_risk
            ),
            (alice, bob, deepest, bounded),
            "{deviation:?}"
        );
    }
}

/// The cascade's guarantee holds beyond the §6 vocabulary: against every
/// single-deviator strategy of the full `stop_after × timing × faults`
/// space, each compliant survivor ends with no loss or its side of the
/// completed swap, and every escrow settles.
#[test]
fn bootstrap_bounds_losses_under_every_single_deviator_strategy() {
    for rounds in 0..=3u32 {
        let config = BootstrapConfig::new(5_000, 20_000, 10, rounds);
        for strategy in Strategy::all(rounds as usize + 3) {
            for deviator in [A, B] {
                let profile = |p| if p == deviator { strategy } else { Strategy::compliant() };
                let report = config.run(&profile, &mut World::new(1));
                let ctx = format!("rounds={rounds}, {deviator} plays {strategy}");
                assert!(report.loss_bounded_by_initial_risk, "{ctx}: {report:?}");
                assert_eq!(report.alice_payoff + report.bob_payoff, 0, "{ctx}");
            }
        }
    }
}

/// Runs the cascade of `a` against `b` under `deviation` from scratch.
fn cascade(
    a: u128,
    b: u128,
    ratio: u128,
    rounds: u32,
    deviation: BootstrapDeviation,
) -> BootstrapRunReport {
    BootstrapConfig::new(a, b, ratio, rounds).run(&deviation.profile(rounds), &mut World::new(1))
}

#[test]
fn bootstrap_sweep_bounds_losses_by_the_initial_risk() {
    let scenarios: [(u128, u128, u128, u32); 4] = [
        (1_000_000, 1_000_000, 100, 2),
        (5_000, 20_000, 10, 3),
        (1_000, 1_000, 2, 4),
        (900, 50, 7, 0),
    ];
    for (a, b, ratio, rounds) in scenarios {
        // Both compliant: the cascade settles, premiums are refunded and
        // only the level-0 principals change hands, so each side's payoff is
        // exactly the value imbalance of the trade.
        let clean = cascade(a, b, ratio, rounds, BootstrapDeviation::None);
        let ctx = format!("a={a}, b={b}, ratio={ratio}, rounds={rounds}");
        assert!(clean.loss_bounded_by_initial_risk, "{ctx}");
        assert_eq!(clean.alice_payoff, b as i128 - a as i128, "{ctx}");
        assert_eq!(clean.bob_payoff, a as i128 - b as i128, "{ctx}");
        assert_eq!(clean.alice_payoff + clean.bob_payoff, 0, "{ctx}");

        // One party walks away at each level: the compliant survivor never
        // nets a loss — the defaulter's guard deposit compensates it.
        for level in 0..=rounds {
            for deviator in [PartyId(0), PartyId(1)] {
                let deviation = StopAtLevel { party: deviator, level };
                let report = cascade(a, b, ratio, rounds, deviation);
                let ctx = format!("{ctx}, {deviator} stops at level {level}");
                assert!(report.loss_bounded_by_initial_risk, "{ctx}");
                let survivor_payoff =
                    if deviator == PartyId(0) { report.bob_payoff } else { report.alice_payoff };
                assert!(survivor_payoff >= 0, "compliant survivor lost {survivor_payoff}: {ctx}");
            }
        }
    }
}
