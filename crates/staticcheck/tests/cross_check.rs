//! Cross-check against the dynamic tiers: a configuration the static
//! analyzer passes must also hold under the model checker's exhaustive
//! dynamic sweep, and vice versa for the properties both can see. The
//! static pass proves schedule feasibility and disposition-completeness;
//! the dynamic sweep proves the end-to-end hedged property over every
//! strategy profile — agreement on the shared configurations is what lets
//! CI gate on the (much cheaper) static suite.

#![cfg(not(feature = "canary-bugs"))]

use chainsim::{ChainId, FinalityParams, ReorgEvent, ReorgPolicy};
use modelcheck::sampled::{SampledScenario, SampledSweep};
use protocols::multi_party::{cycle_config, figure3_config};
use protocols::script::{Fault, Strategy};
use protocols::two_party::{
    min_finality_margin, swap_max_rounds, SwapRealism, TwoPartyConfig, SCRIPT_STEPS,
};
use staticcheck::schedule;

#[test]
fn statically_clean_configs_hold_dynamically() {
    for (label, config) in [("figure3", figure3_config()), ("cycle3", cycle_config(3))] {
        // Static: the published §7 ladder is feasible.
        assert!(schedule::check_deal(label, &config).is_empty(), "{label} failed statically");
        // Dynamic: every ≤1-deviator strategy profile satisfies the hedged
        // property under real execution.
        let summary = modelcheck::check_deal(&config, 1);
        assert!(summary.runs > 0);
        assert!(
            summary.holds(),
            "{label} passed statically but violated dynamically: {:?}",
            summary.violations
        );
    }
}

#[test]
fn two_party_static_and_dynamic_agree() {
    let config = TwoPartyConfig::default();
    assert!(schedule::check_two_party("default", &config).is_empty());
    let summary = modelcheck::check_hedged_two_party();
    assert!(summary.holds(), "violations: {:?}", summary.violations);
}

/// Whether any single-outage deviator (either party, any step, ¼Δ…4Δ)
/// against one redelivering reorg (either chain, any round, any depth up
/// to the chains' finality depth) leaves the compliant party unhedged.
fn margin_violated(delta: u64, depth: u32, margin: u64) -> bool {
    let config =
        TwoPartyConfig { delta_blocks: delta, finality_margin: margin, ..Default::default() };
    let family = SampledSweep::hedged_two_party_reorgs(config.clone(), 0, 1);
    let deviators = (0..SCRIPT_STEPS).flat_map(|step| {
        (1..=16u8)
            .map(move |quarters| Strategy::compliant().with_fault(Fault::Outage { step, quarters }))
    });
    let profiles: Vec<(Strategy, Strategy)> = deviators
        .flat_map(|outage| [(outage, Strategy::compliant()), (Strategy::compliant(), outage)])
        .collect();
    let reorgs = (0..2u32).flat_map(|chain| {
        (0..swap_max_rounds(&config)).flat_map(move |at_round| {
            (1..=depth).map(move |reorg_depth| ReorgEvent {
                chain: ChainId(chain),
                at_round,
                depth: reorg_depth,
                policy: ReorgPolicy::Redeliver,
            })
        })
    });
    reorgs.into_iter().any(|reorg| {
        profiles.iter().any(|&(alice, bob)| {
            let realism =
                SwapRealism { apricot_depth: depth, banana_depth: depth, reorgs: vec![reorg] };
            !family
                .check_scenario(&SampledScenario::TwoPartyReorg { alice, bob, realism })
                .is_empty()
        })
    })
}

#[test]
fn min_finality_margin_is_exact_for_single_outage_deviators() {
    // For every Δ and finality depth: the bound holds over the whole
    // single-outage × single-reorg space, one block less does not, and the
    // static check flags exactly the margin the sweep shows violating.
    for delta in 1..=3u64 {
        for depth in 1..=3u32 {
            let bound = min_finality_margin(depth, delta);
            let finality = FinalityParams { depth, delta: 0 };
            assert!(!margin_violated(delta, depth, bound), "Δ={delta}, depth={depth}");
            assert!(schedule::check_finality("bound", &finality, delta, bound).is_empty());
            if bound > 0 {
                assert!(margin_violated(delta, depth, bound - 1), "Δ={delta}, depth={depth}");
                assert!(!schedule::check_finality("short", &finality, delta, bound - 1).is_empty());
            }
        }
    }
}
