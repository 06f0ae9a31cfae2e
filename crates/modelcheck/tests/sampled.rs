//! Acceptance suite for the sampled tier: fixed-seed smoke sweeps over
//! every protocol family, seed-pinned reproduction, shrinking on real
//! protocol violations, differential validation against the replay
//! oracle, and the rational best-response climber's margins.

use std::collections::BTreeMap;

use chainsim::PartyId;
use modelcheck::engine::{ParallelSweep, ScenarioGen};
use modelcheck::sampled::{SampledBootstrap, SampledScenario, SampledSweep};
use modelcheck::{check_sampled, sampled_families};
use protocols::auction::AuctionConfig;
use protocols::multi_party::{cycle_config, figure3_config, random_config};
use protocols::script::{DelayVector, Fault, Strategy, Timing};
use protocols::two_party::{TwoPartyConfig, ALICE, BOB};

/// The pinned smoke seed. Nothing is special about it; what matters is
/// that CI runs the same one forever, so any violation it ever surfaces
/// is reproducible from this line.
const SMOKE_SEED: u64 = 0x0DDB_1A5E;

#[test]
fn sampled_smoke_holds_for_every_protocol_family_at_the_pinned_seed() {
    let summary = check_sampled(SMOKE_SEED, 400);
    assert_eq!(summary.runs, 6 * 400, "six bundled families");
    assert!(summary.holds(), "sampled violations at the pinned seed: {:?}", summary.violations);
}

#[test]
fn sampled_sweeps_are_thread_and_chunk_invariant() {
    let families = sampled_families(SMOKE_SEED, 250);
    let refs: Vec<&dyn ScenarioGen> =
        families.iter().map(|family| family.as_ref() as &dyn ScenarioGen).collect();
    let serial = ParallelSweep::new(1).run_all(&refs);
    for threads in [2usize, 4] {
        for chunk in [1usize, 7, 64] {
            let parallel = ParallelSweep::new(threads).chunk_size(chunk).run_all(&refs);
            assert_eq!(parallel, serial, "threads={threads}, chunk={chunk}");
        }
    }
}

#[test]
fn sampled_families_expose_their_reproduction_key() {
    // `(seed, samples)` is the whole identity of a sampled family; the
    // violating-label format embedding it is pinned in the canary suite,
    // where real violations exist to inspect.
    let family = SampledSweep::hedged_two_party(TwoPartyConfig::default(), 0xABCD, 10);
    assert_eq!(family.seed(), 0xABCD);
    assert_eq!(family.samples(), 10);
    assert_eq!(family.family(), "sampled hedged two-party swap");
    assert_eq!(
        SampledSweep::base_two_party(TwoPartyConfig::default(), 1, 1).family(),
        "sampled base two-party swap (conforming timings)"
    );
}

#[test]
fn every_violating_sample_is_rederivable_and_shrinkable() {
    // The unhedged base swap judged over *non-conforming* samples violates
    // by design (that is the paper's motivating attack). Build such a
    // family through the deal engine: the 2-cycle deal is the base... no —
    // deals are hedged. Use the hedged two-party config with zero premiums
    // instead: premiums of zero make every sore-loser deviation costless,
    // but the hedged predicate then requires only non-negative premium
    // payoffs, which still holds. The genuinely violating sampled family
    // in this workspace is the canary build (see tests/canary.rs); here we
    // assert the *machinery* on a clean family: no sample violates, so
    // find_violation and shrink both report nothing.
    let family = SampledSweep::hedged_two_party(TwoPartyConfig::default(), SMOKE_SEED, 300);
    assert_eq!(family.find_violation(300), None);
    for index in [0usize, 17, 123, 299] {
        assert!(family.shrink(index).is_none(), "clean sample {index} must not shrink");
        // Reproduction: the scenario re-derives identically and re-judges
        // identically through the public single-scenario entry point.
        let scenario = family.scenario_at(index);
        assert_eq!(scenario, family.scenario_at(index));
        assert_eq!(family.check_scenario(&scenario), family.check_scenario(&scenario));
    }
}

#[test]
fn sampled_sweeps_match_the_replay_oracle() {
    // The sampled tier rides the same recorded prefixes as the enumerated
    // tier; diff its summaries against the replay oracle, which runs the
    // identical samples from scratch, across thread counts.
    let families: Vec<Box<dyn ScenarioGen>> = vec![
        Box::new(SampledSweep::hedged_two_party(TwoPartyConfig::default(), 77, 300)),
        Box::new(SampledSweep::base_two_party(TwoPartyConfig::default(), 77, 300)),
        Box::new(SampledSweep::deal("figure3", figure3_config(), 77, 120)),
        Box::new(SampledSweep::auction(AuctionConfig::default(), 77, 150)),
        Box::new(SampledBootstrap::new(5_000, 20_000, 10, 3, 77, 100)),
    ];
    for family in &families {
        let oracle = ParallelSweep::new(1).replay_oracle().run(family.as_ref());
        for threads in [1usize, 2, 4] {
            let summary = ParallelSweep::new(threads).run(family.as_ref());
            assert_eq!(
                summary,
                oracle,
                "sampled family {:?} diverged from its replay oracle at {threads} threads",
                family.family()
            );
        }
    }
}

#[test]
fn sampled_deal_sweep_over_the_five_cycle_holds() {
    let family = SampledSweep::deal("cycle-5", cycle_config(5), SMOKE_SEED, 200);
    let summary = ParallelSweep::new(4).run(&family);
    assert_eq!(summary.runs, 200);
    assert!(summary.holds(), "{:?}", summary.violations);
    // Documented coverage: five parties with two-deviator budget over a
    // huge per-party domain; the sample count is a vanishing fraction.
    assert!(family.sampled_space() > 1e6);
    assert!(family.coverage() < 1e-3);
}

#[test]
fn rational_climber_finds_the_base_attack_and_not_a_hedged_one() {
    let config = TwoPartyConfig::default();
    // Base protocol, Bob deviating: walking away is free, so the climber
    // must find a deviation that leaves compliant Alice's hedge margin
    // negative — she is locked up and compensated nothing. Her shortfall
    // is exactly the compensation the hedged protocol would owe (p_b = 2).
    let base = SampledSweep::base_two_party(config.clone(), 0, 1);
    let climb = base.climb(BOB, 0xBEEF, 300).expect("two-party targets climb");
    assert!(
        climb.compliant_margin < 0,
        "the base protocol has no teeth, the climber must find the sore-loser attack: {climb:?}"
    );
    assert_eq!(climb.compliant_margin, -(config.premium_b.value() as i128));
    assert_ne!(climb.best_strategy, Strategy::compliant());
    assert_eq!(climb.evaluations, 301);

    // Hedged protocol, either deviator: every deviation forfeits at least
    // the deviator's premium, so the best-response search never finds a
    // deviation that beats compliance, and the compliant side's margin
    // stays non-negative — the theorem has teeth against rational play.
    let hedged = SampledSweep::hedged_two_party(config.clone(), 0, 1);
    for deviator in [ALICE, BOB] {
        let climb = hedged.climb(deviator, 0xBEEF, 300).expect("two-party targets climb");
        assert!(
            climb.compliant_margin >= 0,
            "rational deviator {deviator} broke the hedged margin: {climb:?}"
        );
        assert!(climb.deviator_payoff <= 0, "deviating must not profit: {climb:?}");
    }

    // Determinism: the same (seed, budget) climb twice is identical.
    let again = base.climb(BOB, 0xBEEF, 300).expect("two-party targets climb");
    assert_eq!(format!("{climb:?}"), format!("{:?}", base.climb(BOB, 0xBEEF, 300).unwrap()));
    assert_eq!(again.evaluations, 301);
}

#[test]
fn rational_climber_respects_deal_hedges_and_skips_auctions() {
    let figure3 = SampledSweep::deal("figure3", figure3_config(), 0, 1);
    let climb = figure3.climb(PartyId(0), 0x1234, 150).expect("deal targets climb");
    assert!(
        climb.compliant_margin >= 0,
        "rational deviator broke a compliant party's deal hedge: {climb:?}"
    );
    // Unknown parties and auction targets have no per-party margin.
    assert!(figure3.climb(PartyId(99), 1, 10).is_none());
    let auction = SampledSweep::auction(AuctionConfig::default(), 0, 1);
    assert!(auction.climb(PartyId(1), 1, 10).is_none());
    // Nor does a party that is not in a two-party swap: it is not Bob.
    for family in [
        SampledSweep::hedged_two_party(TwoPartyConfig::default(), 0, 1),
        SampledSweep::base_two_party(TwoPartyConfig::default(), 0, 1),
    ] {
        assert!(family.climb(PartyId(7), 0xBEEF, 50).is_none(), "{}", family.family());
    }
}

/// The find → shrink → render loop on a deal family, at ROADMAP item 4's
/// open finding: on the seed-33 random digraph, sample 153 shrinks to
/// party 3 stopping after its escrow step, which leaves compliant party 4
/// unhedged. Pinned at today's verdict like
/// `multi_party::tests::random_digraph_seed_33_leaves_a_compliant_party_unhedged`:
/// once item 4 is settled the family holds and this test fails — flip it
/// then.
#[test]
fn deal_violation_is_found_shrunk_and_rendered_on_the_seed_33_digraph() {
    let family = SampledSweep::deal("random-5-4-seed33", random_config(5, 4, 33), 1, 20_000);
    let index = family.find_violation(20_000).expect("the seed-33 digraph violates");
    assert_eq!(index, 153);
    let shrunk = family.shrink(index).expect("the violating sample must shrink");
    let drawn = Strategy {
        stop_after: Some(3),
        timing: Timing::Delay(DelayVector::from_slice(&[1, 1, 0, 2, 1])),
        fault: Fault::Garbage { step: 0 },
    };
    let deal =
        |strategy| SampledScenario::Deal { profile: BTreeMap::from([(PartyId(3), strategy)]) };
    assert_eq!(shrunk.original, deal(drawn));
    assert_eq!(shrunk.minimal, deal(Strategy::stop_after(3)));
    let verdicts: Vec<_> = shrunk.violations.iter().map(|v| (v.party, v.property)).collect();
    assert_eq!(verdicts, [(PartyId(4), "hedged")]);
    let rendered = shrunk.regression_test(
        "SampledSweep::deal(\"random-5-4-seed33\", random_config(5, 4, 33), 1, 20_000)",
    );
    assert!(rendered.contains("fn sampled_regression_seed_1_sample_153()"), "{rendered}");
    assert!(rendered.contains("stop_after: Some(3)"), "{rendered}");
    assert!(rendered.contains("SampledScenario::Deal"), "{rendered}");
}

#[test]
fn sampled_scenarios_cover_the_new_axes() {
    // At a reasonable budget the sampler must actually exercise the axes
    // the enumerated tier cannot: delay vectors and variable outages.
    let family = SampledSweep::hedged_two_party(TwoPartyConfig::default(), SMOKE_SEED, 400);
    let mut saw_delay = false;
    let mut saw_outage = false;
    let mut saw_two_deviators = false;
    for index in 0..400 {
        let SampledScenario::TwoParty { alice, bob } = family.scenario_at(index) else {
            unreachable!()
        };
        for strategy in [alice, bob] {
            if matches!(strategy.timing, Timing::Delay(_)) {
                saw_delay = true;
            }
            if matches!(strategy.fault, Fault::Outage { .. }) {
                saw_outage = true;
            }
        }
        if alice != Strategy::compliant() && bob != Strategy::compliant() {
            saw_two_deviators = true;
        }
    }
    assert!(saw_delay, "no delay vector in 400 samples");
    assert!(saw_outage, "no variable outage in 400 samples");
    assert!(saw_two_deviators, "no two-deviator sample in 400 samples");
}

/// Minimal still-violating profile shrunk from sample #7904 of seed 0xdaa66d2c6feb2247
/// of the family `sampled hedged two-party swap under reorgs (margin 1)`.
///
/// An open finding, pinned at today's verdict: a finality margin of
/// `MAX_REORG_DEPTH − 1` does not absorb every re-delivery. Alice, otherwise
/// compliant, is offline for ¾Δ at her first step; Bob is eager; one
/// depth-2 redelivering reorg of chain 1 at round 3 then leaves compliant
/// Bob unhedged.
#[test]
fn sampled_regression_seed_daa66d2c6feb2247_sample_7904() {
    use chainsim::PartyId;
    use modelcheck::sampled::{SampledScenario, SampledSweep};
    use protocols::script::{Fault, Strategy, Timing};

    let family = SampledSweep::hedged_two_party_reorgs(
        TwoPartyConfig { finality_margin: 1, ..TwoPartyConfig::default() },
        0xdaa6_6d2c_6feb_2247,
        40_000,
    );
    let scenario = SampledScenario::TwoPartyReorg {
        alice: Strategy {
            stop_after: None,
            timing: Timing::Eager,
            fault: Fault::Outage { step: 0, quarters: 3 },
        },
        bob: Strategy { stop_after: None, timing: Timing::Eager, fault: Fault::None },
        realism: protocols::two_party::SwapRealism {
            apricot_depth: 2,
            banana_depth: 2,
            reorgs: vec![chainsim::ReorgEvent {
                chain: chainsim::ChainId(1),
                at_round: 3,
                depth: 2,
                policy: chainsim::ReorgPolicy::Redeliver,
            }],
        },
    };
    let violations = family.check_scenario(&scenario);
    assert!(
        violations.iter().any(|violation| violation.property == "hedged"),
        "shrunken sample must still violate hedged: {violations:?}"
    );
    // Today's verdict exactly: compliant Bob alone is left unhedged, and the
    // drawn sample still shrinks to this scenario.
    assert!(
        violations
            .iter()
            .all(|violation| violation.party == PartyId(1) && violation.property == "hedged"),
        "only Bob's hedge breaks: {violations:?}"
    );
    assert_eq!(family.shrink(7904).map(|shrunk| shrunk.minimal), Some(scenario));
}
