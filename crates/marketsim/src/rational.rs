//! Rational (price-driven) sore losers: base vs hedged swap success rates.
//!
//! A rational counterparty does not deviate out of spite; it deviates when
//! the market has moved against the deal by more than the deviation costs.
//! In the unhedged base protocol the cost of walking away is zero, so any
//! adverse move triggers an abort. In the hedged protocol walking away
//! forfeits a premium, so only moves larger than the premium do. This module
//! quantifies that difference, in the spirit of the game-theoretic analyses
//! the paper cites (Xu et al.).

use serde::{Deserialize, Serialize};

use crate::PricePath;
use chainsim::World;
use protocols::script::{Protocol, Strategy};
use protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};

/// Parameters of a rational-agent experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RationalExperiment {
    /// Number of simulated swaps.
    pub trials: usize,
    /// Annualised volatility of Bob's (banana) asset relative to Alice's.
    pub volatility: f64,
    /// Duration of one protocol step (Δ) in years.
    pub step_years: f64,
    /// Premium charged in the hedged protocol, as a fraction of the
    /// principal (e.g. `0.02` for 2%).
    pub premium_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RationalExperiment {
    fn default() -> Self {
        RationalExperiment {
            trials: 200,
            volatility: 0.8,
            step_years: 12.0 / 24.0 / 365.0, // Δ = 12 hours
            premium_fraction: 0.02,
            seed: 42,
        }
    }
}

/// Results of a rational-agent experiment for one protocol variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RationalOutcome {
    /// Fraction of swaps that completed.
    pub success_rate: f64,
    /// Average payoff (in token units) of the compliant party per aborted swap.
    pub mean_compliant_payoff_on_abort: f64,
    /// Number of aborted swaps.
    pub aborts: usize,
}

/// Results for both protocol variants side by side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RationalComparison {
    /// The unhedged §5.1 baseline.
    pub base: RationalOutcome,
    /// The hedged §5.2 protocol.
    pub hedged: RationalOutcome,
}

/// Runs the experiment: in each trial the relative price of Bob's asset
/// follows a GBM over the protocol steps; Bob walks away (at his escrow
/// step) when the value he would receive has dropped by more than his
/// deviation cost (zero in the base protocol, the premium in the hedged
/// protocol). Alice stays compliant throughout.
pub fn compare_protocols(experiment: &RationalExperiment) -> RationalComparison {
    let principal = 100u128;
    let premium = ((principal as f64) * experiment.premium_fraction).round().max(1.0) as u128;
    let config = TwoPartyConfig {
        alice_tokens: chainsim::Amount::new(principal),
        bob_tokens: chainsim::Amount::new(principal),
        premium_a: chainsim::Amount::new(premium),
        premium_b: chainsim::Amount::new(premium),
        delta_blocks: 2,
        ..TwoPartyConfig::default()
    };

    let mut base = RationalOutcome::default();
    let mut hedged = RationalOutcome::default();
    let mut base_successes = 0usize;
    let mut hedged_successes = 0usize;
    let mut base_abort_payoff = 0.0;
    let mut hedged_abort_payoff = 0.0;
    let base_swap = TwoPartySwap::base(config.clone());
    let hedged_swap = TwoPartySwap::hedged(config);
    let mut world = World::new(1);

    for trial in 0..experiment.trials {
        // Price of Alice's asset in units of Bob's asset, observed by Bob at
        // his decision point (protocol step 3 of 6).
        let path = PricePath::gbm(
            1.0,
            0.0,
            experiment.volatility,
            experiment.step_years,
            6,
            experiment.seed.wrapping_add(trial as u64),
        );
        let drop = -path.relative_return(0, 3);

        // Base protocol: Bob aborts on any adverse move (he loses nothing).
        let bob_aborts_base = drop > 0.0;
        let bob = if bob_aborts_base { Strategy::stop_after(0) } else { Strategy::compliant() };
        let report = base_swap.run(&profile(Strategy::compliant(), bob), &mut world);
        if report.swap_completed {
            base_successes += 1;
        } else {
            base.aborts += 1;
            base_abort_payoff += (report.alice_premium_payoff + report.alice_banana_payoff) as f64;
        }

        // Hedged protocol: walking away costs Bob p_b, so he only aborts when
        // the adverse move exceeds the premium fraction.
        let bob_aborts_hedged = drop > experiment.premium_fraction;
        let bob = if bob_aborts_hedged { Strategy::stop_after(1) } else { Strategy::compliant() };
        let report = hedged_swap.run(&profile(Strategy::compliant(), bob), &mut world);
        if report.swap_completed {
            hedged_successes += 1;
        } else {
            hedged.aborts += 1;
            hedged_abort_payoff +=
                (report.alice_premium_payoff + report.alice_banana_payoff) as f64;
        }
    }

    base.success_rate = base_successes as f64 / experiment.trials as f64;
    hedged.success_rate = hedged_successes as f64 / experiment.trials as f64;
    base.mean_compliant_payoff_on_abort =
        if base.aborts > 0 { base_abort_payoff / base.aborts as f64 } else { 0.0 };
    hedged.mean_compliant_payoff_on_abort =
        if hedged.aborts > 0 { hedged_abort_payoff / hedged.aborts as f64 } else { 0.0 };
    RationalComparison { base, hedged }
}

/// The result of a [`best_response`] hill-climb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClimbOutcome<S> {
    /// The best state found (the initial state if nothing improved on it).
    pub best: S,
    /// The score of `best`.
    pub best_score: i128,
    /// Total score evaluations performed (initial state + every proposal).
    pub evaluations: usize,
    /// Number of proposals that strictly improved the incumbent.
    pub improvements: usize,
}

/// Deterministic seeded hill-climbing best-response search over an abstract
/// deviation space.
///
/// Starting from `initial`, draws `budget` mutations from `propose` (each
/// fed the current incumbent and the shared seeded RNG) and keeps every one
/// that strictly improves `score`. The caller supplies the deviation space
/// and the deviator's utility; this module supplies the rational-adversary
/// loop, so the model checker can climb over delay/outage vectors with the
/// same machinery the price-driven experiments use for abort decisions.
///
/// Strict improvement keeps the climb deterministic and terminating for any
/// scoring function; ties stay with the incumbent (earliest-found wins),
/// so identical `(initial, seed, budget)` inputs always reproduce the same
/// trajectory.
pub fn best_response<S: Clone>(
    initial: S,
    seed: u64,
    budget: usize,
    mut score: impl FnMut(&S) -> i128,
    mut propose: impl FnMut(&S, &mut rand::rngs::StdRng) -> S,
) -> ClimbOutcome<S> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut best = initial;
    let mut best_score = score(&best);
    let mut evaluations = 1usize;
    let mut improvements = 0usize;
    for _ in 0..budget {
        let candidate = propose(&best, &mut rng);
        let candidate_score = score(&candidate);
        evaluations += 1;
        if candidate_score > best_score {
            best = candidate;
            best_score = candidate_score;
            improvements += 1;
        }
    }
    ClimbOutcome { best, best_score, evaluations, improvements }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_response_climbs_to_the_peak_and_is_deterministic() {
        // Score is a tent function over 0..=100 peaking at 63; proposals
        // nudge by ±1..=8. The climb must reach the peak from any start.
        let climb = |seed: u64| {
            best_response(
                0i128,
                seed,
                400,
                |&x| -(x - 63).abs(),
                |&x, rng| {
                    use rand::Rng;
                    let step = rng.gen_range(1..9i128);
                    if rng.gen_bool(0.5) {
                        (x + step).min(100)
                    } else {
                        (x - step).max(0)
                    }
                },
            )
        };
        let outcome = climb(7);
        assert_eq!(outcome.best, 63);
        assert_eq!(outcome.best_score, 0);
        assert_eq!(outcome.evaluations, 401);
        assert!(outcome.improvements > 0);
        // Seed-pinned determinism: the same climb twice is bit-identical.
        let again = climb(7);
        assert_eq!(outcome, again);
    }

    #[test]
    fn hedging_improves_success_rate_and_compensates_aborts() {
        let comparison =
            compare_protocols(&RationalExperiment { trials: 60, ..RationalExperiment::default() });
        assert!(
            comparison.hedged.success_rate >= comparison.base.success_rate,
            "hedging must not reduce the success rate: {comparison:?}"
        );
        // With zero deviation cost, roughly half of all trials abort.
        assert!(comparison.base.success_rate < 0.95);
        // When hedged swaps do abort, the compliant party is compensated.
        if comparison.hedged.aborts > 0 {
            assert!(comparison.hedged.mean_compliant_payoff_on_abort > 0.0);
        }
        // Base-protocol aborts leave the compliant party with nothing.
        if comparison.base.aborts > 0 {
            assert!(comparison.base.mean_compliant_payoff_on_abort.abs() < f64::EPSILON);
        }
    }

    #[test]
    fn higher_volatility_lowers_base_success_rate() {
        let calm = compare_protocols(&RationalExperiment {
            trials: 60,
            volatility: 0.1,
            ..RationalExperiment::default()
        });
        let wild = compare_protocols(&RationalExperiment {
            trials: 60,
            volatility: 2.5,
            ..RationalExperiment::default()
        });
        assert!(wild.hedged.success_rate <= calm.hedged.success_rate + 0.2);
        assert!(calm.base.success_rate <= 1.0);
    }
}
