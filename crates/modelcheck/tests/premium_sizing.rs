//! Regression pins for the §7 premium-sizing verdict on dense digraphs.
//!
//! `random_config(5, 4, seed)` for seeds 2 and 4 are the boundary cases
//! that exposed the old per-arc hedged predicate as wrong: with heavily
//! overlapping redemption paths, a compliant party left with *two*
//! unredeemed escrows nets exactly `+p` in total — not `2p`. That is the
//! theorem's actual guarantee: Equation (1) premiums are pass-the-parcel
//! sized (each arc's premium covers the receiver's own `p` plus every
//! forfeit it passes upstream), so compensation is per *party*, not per
//! arc. These tests pin the exact boundary outcomes under the deviation
//! that surfaced them — party 3 stopping eagerly after one step — so any
//! future change to the premium tables or the hedged predicate that shifts
//! the total away from `+p` fails loudly.

use std::collections::BTreeMap;

use chainsim::{PartyId, World};
use protocols::multi_party::random_config;
use protocols::script::{profile, Protocol, Strategy};

/// Runs the pinned deviation and asserts the §7 guarantee for every
/// compliant party: net premium payoff of at least `p` whenever an escrow
/// went unredeemed, non-negative otherwise, with safety intact and funds
/// conserved. Returns the per-party `(payoff, unredeemed)` pairs for the
/// exact pins.
fn boundary_run(seed: u64) -> BTreeMap<PartyId, (i128, usize)> {
    let config = random_config(5, 4, seed);
    let p = config.base_premium.value() as i128;
    let strategies = BTreeMap::from([(PartyId(3), Strategy::stop_after(1))]);
    let report = config.run(&profile(&strategies), &mut World::new(1));
    assert!(!report.completed, "seed {seed}: the walk-away must abort the swap");
    assert!(report.payoffs.conserved(), "seed {seed}");
    for (party, outcome) in &report.parties {
        if *party == PartyId(3) {
            continue;
        }
        assert!(outcome.hedged, "seed {seed}, {party}: {outcome:?}");
        assert!(outcome.safety, "seed {seed}, {party}: {outcome:?}");
        assert_eq!(outcome.escrowed_stuck, 0, "seed {seed}, {party}");
        let floor = if outcome.escrowed_unredeemed > 0 { p } else { 0 };
        assert!(
            outcome.premium_payoff >= floor,
            "seed {seed}, {party}: payoff {} under floor {floor}",
            outcome.premium_payoff
        );
    }
    report
        .parties
        .iter()
        .map(|(&party, o)| (party, (o.premium_payoff, o.escrowed_unredeemed)))
        .collect()
}

#[test]
fn seed_2_boundary_party_nets_exactly_one_base_premium() {
    let outcomes = boundary_run(2);
    // Leader 4 forfeits two escrowed assets yet nets exactly +p: its
    // redemption premiums overlap the forfeits they compensate. The old
    // per-arc predicate demanded +2p here and flagged a phantom violation.
    assert_eq!(outcomes[&PartyId(4)], (1, 2));
    // The remaining compliant parties, for completeness of the pin.
    assert_eq!(outcomes[&PartyId(0)], (1, 1));
    assert_eq!(outcomes[&PartyId(1)], (2, 2));
    assert_eq!(outcomes[&PartyId(2)], (1, 1));
    // The deviator pays: every compensation above comes out of party 3's
    // forfeited premiums.
    assert_eq!(outcomes[&PartyId(3)], (-5, 0));
}

#[test]
fn seed_4_boundary_party_nets_exactly_one_base_premium() {
    let outcomes = boundary_run(4);
    // Here the boundary party is a follower: party 1 forfeits two escrows
    // and likewise nets exactly +p in total.
    assert_eq!(outcomes[&PartyId(1)], (1, 2));
    assert_eq!(outcomes[&PartyId(0)], (3, 2));
    assert_eq!(outcomes[&PartyId(2)], (1, 1));
    assert_eq!(outcomes[&PartyId(4)], (1, 1));
    assert_eq!(outcomes[&PartyId(3)], (-6, 0));
}
