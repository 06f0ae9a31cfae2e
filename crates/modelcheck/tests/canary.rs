//! Canary validation of the sampled tier's detection power.
//!
//! The `canary-bugs` feature reintroduces a real, previously-shipped bug:
//! the base swap's redeem watch giving up at 2Δ instead of 2Δ + 1, which
//! silently forfeits swaps against a conforming counterparty whose reveal
//! lands on the boundary round 2Δ − 1. This suite proves the randomized
//! sweeps *find* that bug at a pinned `(seed, budget)`, shrink the finding
//! to a minimal one-entry delay vector, and render it as a regression
//! test — the end-to-end detect → reproduce → minimize story the sampled
//! tier exists for.
//!
//! Run with `cargo test -p modelcheck --release --features canary-bugs
//! --test canary`. Other test targets are expected to fail under the
//! canary feature (the bug is real); CI runs this target alone with it.
#![cfg(feature = "canary-bugs")]

use modelcheck::engine::ParallelSweep;
use modelcheck::sampled::{SampledScenario, SampledSweep};
use protocols::script::{Fault, Strategy, Timing};
use protocols::two_party::{TwoPartyConfig, TwoPartySwap, BOB};

/// The pinned reproduction key: this seed and budget found the canary when
/// the suite was written, and being seed-pinned they always will.
const CANARY_SEED: u64 = 0xCA9A;
const CANARY_BUDGET: usize = 64;

fn canary_family() -> SampledSweep<TwoPartySwap> {
    SampledSweep::base_two_party(TwoPartyConfig::default(), CANARY_SEED, CANARY_BUDGET)
}

#[test]
fn sampled_sweep_detects_the_reintroduced_cutoff_bug() {
    let family = canary_family();
    let index = family
        .find_violation(CANARY_BUDGET)
        .expect("the pinned sampled budget must surface the 2Δ cutoff bug");

    // The engine-level sweep reports the same finding, and its scenario
    // label embeds the reproduction key.
    let summary = ParallelSweep::new(2).run(&family);
    assert!(!summary.holds(), "the canary build must not pass the sampled sweep");
    let label = &summary.violations.first().expect("non-empty").scenario;
    assert!(
        label.contains(&format!("[seed={:#x}, sample=", CANARY_SEED)),
        "violation labels must carry the reproduction key: {label}"
    );

    // Every violation is the forfeited redeem breaking the hedged predicate
    // — for Bob, whose banana is taken while the buggy watch never claims
    // the apricot, and for Alice, whose principal sits locked with no
    // compensation until the refund. Bob must be among the wronged.
    for violation in &summary.violations {
        assert_eq!(violation.property, "hedged");
    }
    assert!(
        summary.violations.iter().any(|violation| violation.party == BOB),
        "the cutoff bug forfeits Bob's redeem: {:?}",
        summary.violations
    );

    // Reproduction: re-deriving the found sample re-judges identically.
    let scenario = family.scenario_at(index);
    assert!(!family.check_scenario(&scenario).is_empty());
}

#[test]
fn canary_finding_shrinks_to_a_single_boundary_delay() {
    let family = canary_family();
    let index = family.find_violation(CANARY_BUDGET).expect("canary must be found");
    let shrunk = family.shrink(index).expect("a violating sample must shrink");

    assert_eq!(shrunk.family_seed, CANARY_SEED);
    assert_eq!(shrunk.sample_index, index);
    assert!(
        shrunk.violations.iter().any(|v| v.party == BOB && v.property == "hedged"),
        "shrinking must preserve the original verdict: {:?}",
        shrunk.violations
    );

    // The minimal still-violating profile is a lone conforming laggard
    // whose delay vector holds a single one-block entry — the boundary
    // round the buggy cutoff cannot see past.
    let SampledScenario::TwoParty { alice, bob } = &shrunk.minimal else {
        panic!("two-party family must shrink to a two-party scenario");
    };
    let laggard: Vec<Strategy> =
        [*alice, *bob].into_iter().filter(|strategy| *strategy != Strategy::compliant()).collect();
    assert_eq!(laggard.len(), 1, "minimal profile keeps one deviator: {:?}", shrunk.minimal);
    let strategy = laggard[0];
    assert_eq!(strategy.stop_after, None, "timing-only: {strategy}");
    assert_eq!(strategy.fault, Fault::None, "timing-only: {strategy}");
    let Timing::Delay(vector) = strategy.timing else {
        panic!("minimal timing must be a concrete delay vector, got {strategy}");
    };
    let total: u64 = vector.0.iter().map(|&entry| entry as u64).sum();
    assert_eq!(total, 1, "a single one-block delay suffices: {vector:?}");
}

#[test]
fn canary_regression_test_renders_the_pinned_reproduction() {
    let family = canary_family();
    let index = family.find_violation(CANARY_BUDGET).expect("canary must be found");
    let shrunk = family.shrink(index).expect("a violating sample must shrink");
    let rendered = shrunk.regression_test(&format!(
        "SampledSweep::base_two_party(TwoPartyConfig::default(), {:#x}, {})",
        CANARY_SEED, CANARY_BUDGET
    ));
    assert!(rendered.contains("#[test]"));
    assert!(rendered.contains(&format!("sample_{index}()")));
    assert!(rendered.contains("Timing::Delay(DelayVector("));
    assert!(rendered.contains("violation.property == \"hedged\""));
    assert!(rendered.contains(&format!("{:#x}", CANARY_SEED)));
}

#[test]
fn canary_is_confined_to_the_base_swap() {
    // The bug lives in the base redeem watch; the hedged sampled family
    // must stay clean even in the canary build, or the canary would be
    // polluting guarantees it is not supposed to touch.
    let hedged = SampledSweep::hedged_two_party(TwoPartyConfig::default(), CANARY_SEED, 200);
    let summary = ParallelSweep::new(2).run(&hedged);
    assert!(summary.holds(), "{:?}", summary.violations);
}
