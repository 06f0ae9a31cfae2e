//! Property-based tests over the public API: conservation, hedging and
//! premium-formula invariants under randomly drawn configurations.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use sore_loser_hedging::chainsim::{Amount, PartyId, Time, World};
use sore_loser_hedging::modelcheck::sampled::{shrink_profile, SampledScenario, SampledSweep};
use sore_loser_hedging::protocols::script::{
    delayed_emission_tick, DelayVector, Fault, Protocol, Strategy, Timing,
};
use sore_loser_hedging::protocols::two_party::{
    profile, TwoPartyConfig, TwoPartySwap, SCRIPT_STEPS,
};
use sore_loser_hedging::swapgraph::bootstrap::{bootstrap_plan, rounds_needed};
use sore_loser_hedging::swapgraph::{premiums, Digraph};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hedged property and conservation hold for arbitrary principal and
    /// premium sizes and arbitrary unilateral deviation points.
    #[test]
    fn hedged_swap_is_hedged_for_random_configs(
        alice_tokens in 1u128..5_000,
        bob_tokens in 1u128..5_000,
        premium_a in 1u128..50,
        premium_b in 1u128..50,
        alice_stop in 0usize..5,
        bob_stop in 0usize..5,
        alice_compliant: bool,
        bob_compliant: bool,
    ) {
        let config = TwoPartyConfig {
            alice_tokens: Amount::new(alice_tokens),
            bob_tokens: Amount::new(bob_tokens),
            premium_a: Amount::new(premium_a),
            premium_b: Amount::new(premium_b),
            delta_blocks: 2,
            ..TwoPartyConfig::default()
        };
        let alice = if alice_compliant { Strategy::compliant() } else { Strategy::stop_after(alice_stop) };
        let bob = if bob_compliant { Strategy::compliant() } else { Strategy::stop_after(bob_stop) };
        let report = TwoPartySwap::hedged(config).run(&profile(alice, bob), &mut World::new(1));
        if alice_compliant {
            prop_assert!(report.hedged_for_alice);
        }
        if bob_compliant {
            prop_assert!(report.hedged_for_bob);
        }
        if alice_compliant || bob_compliant {
            prop_assert!(report.payoffs.conserved());
        }
    }

    /// In the base protocol a compliant escrower is never compensated.
    #[test]
    fn base_swap_never_compensates(bob_stop in 0usize..3) {
        let swap = TwoPartySwap::base(TwoPartyConfig::default());
        let report = swap.run(&profile(Strategy::compliant(), Strategy::stop_after(bob_stop)), &mut World::new(1));
        prop_assert_eq!(report.alice_premium_payoff, 0);
    }

    /// Escrow premiums (Eq. 2) are positive multiples of the base premium and
    /// scale linearly in p, on random strongly-connected digraphs built from
    /// a cycle plus chords.
    #[test]
    fn escrow_premiums_scale_linearly(n in 3u32..7, chords in 0usize..6, seed in 0u64..1000) {
        let mut g = Digraph::cycle(n);
        let mut state = seed;
        for _ in 0..chords {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (state >> 33) as u32 % n;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (state >> 33) as u32 % n;
            g.add_arc(u, v);
        }
        let leaders = g.greedy_feedback_vertex_set();
        let leaders: BTreeSet<u32> = leaders.into_iter().collect();
        let table1 = premiums::escrow_premium_table(&g, &leaders, 1).unwrap();
        let table5 = premiums::escrow_premium_table(&g, &leaders, 5).unwrap();
        for (arc, units) in &table1 {
            prop_assert!(*units >= 1);
            prop_assert_eq!(table5[arc], units * 5);
        }
    }

    /// The bootstrap plan's outermost deposit shrinks geometrically and the
    /// round count from `rounds_needed` brings it below the acceptable risk
    /// up to the (rA+B)/P^r correction.
    #[test]
    fn bootstrap_rounds_reduce_risk(a in 100u128..1_000_000, b in 100u128..1_000_000, ratio in 2u128..200) {
        let risk = 10u128;
        let rounds = rounds_needed(a + b, risk, ratio);
        let plan = bootstrap_plan(a, b, ratio, rounds);
        let formula = (u128::from(rounds) * a + b) / ratio.pow(rounds);
        prop_assert!(plan.initial_risk() <= risk.max(formula));
        if rounds > 0 {
            prop_assert!(plan.initial_risk() < a + b);
        }
    }

    /// Every emission tick a delay vector can request is legal: at or after
    /// the trigger, on the party's block grid, within Δ of the trigger and
    /// strictly before the step deadline — and never later than the
    /// last-instant (Procrastinate) tick for the same step.
    #[test]
    fn delay_vector_emission_ticks_are_legal(
        d0 in 0u8..=255,
        d1 in 0u8..=255,
        d2 in 0u8..=255,
        d3 in 0u8..=255,
        step in 0usize..4,
        now in 0u64..50,
        delta in 1u64..6,
        gap in 0u64..12,
        block_step in 1u64..4,
    ) {
        let vector = DelayVector::from_slice(&[d0, d1, d2, d3]);
        let timing = Timing::Delay(vector);
        let deadline = Time(now + gap);
        let tick = delayed_emission_tick(timing, step, Time(now), delta, deadline, block_step);
        let last = delayed_emission_tick(
            Timing::Procrastinate, step, Time(now), delta, deadline, block_step,
        );
        let eager = delayed_emission_tick(Timing::Eager, step, Time(now), delta, deadline, block_step);

        prop_assert_eq!(eager, Time(now), "eager acts at the trigger");
        prop_assert!(tick.height() >= now, "no time travel");
        prop_assert_eq!((tick.height() - now) % block_step, 0, "on the block grid");
        if tick.height() > now {
            prop_assert!(tick.height() < now + delta, "within Δ of the trigger");
            prop_assert!(tick < deadline, "strictly before the step deadline");
        }
        prop_assert!(tick <= last, "a delay never outlasts the last-instant tick");
        let zero = delayed_emission_tick(
            Timing::Delay(DelayVector::ZERO), step, Time(now), delta, deadline, block_step,
        );
        prop_assert_eq!(zero, Time(now), "the zero vector is eager");
    }

    /// Delay requests are monotone: asking for more blocks never yields an
    /// earlier tick, and both extremes meet their endpoint timings.
    #[test]
    fn delay_vector_requests_are_monotone(
        blocks in 0u8..=254,
        step in 0usize..4,
        now in 0u64..50,
        delta in 1u64..6,
        gap in 1u64..12,
        block_step in 1u64..4,
    ) {
        let at = |requested: u8| {
            let mut vector = DelayVector::ZERO;
            vector.set(step, requested);
            delayed_emission_tick(
                Timing::Delay(vector), step, Time(now), delta, Time(now + gap), block_step,
            )
        };
        prop_assert!(at(blocks) <= at(blocks + 1));
        let maxed = at(u8::MAX);
        let last = delayed_emission_tick(
            Timing::Procrastinate, step, Time(now), delta, Time(now + gap), block_step,
        );
        prop_assert_eq!(maxed, last, "a saturated request is the last-instant tick");
    }

    /// Strategies drawn by the sampled tier stay inside the documented
    /// axes: delay entries within Δ, outage lengths within ¼Δ…4Δ (1..=16
    /// quarters) and stop budgets within the script.
    #[test]
    fn sampled_strategies_are_legal(seed in 0u64..500, index in 0usize..64) {
        let config = TwoPartyConfig::default();
        let delta = config.delta_blocks;
        let family = SampledSweep::hedged_two_party(config, seed, 64);
        let SampledScenario::TwoParty { alice, bob } = family.scenario_at(index) else {
            panic!("two-party family must draw two-party scenarios");
        };
        for strategy in [alice, bob] {
            if let Some(stop) = strategy.stop_after {
                prop_assert!(stop < SCRIPT_STEPS);
            }
            if let Timing::Delay(vector) = strategy.timing {
                prop_assert!(!vector.is_zero(), "zero vectors canonicalize to Eager");
                for step in 0..8 {
                    prop_assert!(u64::from(vector.0[step]) <= delta, "entries stay within Δ");
                }
            }
            match strategy.fault {
                Fault::None | Fault::Garbage { .. } | Fault::Crash { .. } => {}
                Fault::Outage { step, quarters } => {
                    prop_assert!((1..=16).contains(&quarters));
                    prop_assert!(step < SCRIPT_STEPS);
                }
            }
        }
    }

    /// The shrinker is verdict-preserving and sound: its output still
    /// violates the predicate it was shrunk against, only original
    /// deviators survive, and the surviving profile is pointwise no more
    /// deviant than the input (never new faults, stops or larger delays).
    #[test]
    fn shrinker_output_is_legal_and_verdict_preserving(
        step in 0usize..4,
        threshold in 1u8..4,
        extra in 0u8..40,
        noise_stop in 0usize..4,
        noise_quarters in 1u8..17,
        noise_party_deviates: bool,
    ) {
        // Synthetic pure predicate: party 0 delays `step` by ≥ `threshold`.
        let violates = move |profile: &BTreeMap<PartyId, Strategy>| {
            profile.get(&PartyId(0)).is_some_and(|s| match s.timing {
                Timing::Delay(v) => v.get(step) >= u64::from(threshold),
                Timing::Procrastinate => true,
                Timing::Eager => false,
            })
        };
        let mut vector = DelayVector::ZERO;
        vector.set(step, threshold + extra);
        let mut original: BTreeMap<PartyId, Strategy> = BTreeMap::new();
        original.insert(PartyId(0), Strategy {
            stop_after: Some(noise_stop),
            timing: Timing::Delay(vector),
            fault: Fault::Outage { step: 0, quarters: noise_quarters },
        });
        if noise_party_deviates {
            original.insert(PartyId(1), Strategy::stop_after(noise_stop));
        }
        prop_assert!(violates(&original));

        let minimal = shrink_profile(&original, violates);
        // Verdict-preserving…
        prop_assert!(violates(&minimal));
        // …and sound: only original deviators, pointwise simpler.
        for (party, shrunk) in &minimal {
            let before = original[party];
            prop_assert!(shrunk.stop_after.is_none() || shrunk.stop_after == before.stop_after);
            prop_assert!(shrunk.fault == Fault::None || shrunk.fault == before.fault
                || matches!((shrunk.fault, before.fault),
                    (Fault::Outage { step: a, quarters: qa }, Fault::Outage { step: b, quarters: qb })
                        if a == b && qa < qb));
        }
        // The noise is actually stripped: one deviator, one delay entry,
        // at exactly the predicate's threshold.
        prop_assert_eq!(minimal.len(), 1);
        let survivor = minimal[&PartyId(0)];
        prop_assert_eq!(survivor.stop_after, None);
        prop_assert_eq!(survivor.fault, Fault::None);
        let mut expected = DelayVector::ZERO;
        expected.set(step, threshold);
        prop_assert_eq!(survivor.timing, Timing::Delay(expected));
    }
}
