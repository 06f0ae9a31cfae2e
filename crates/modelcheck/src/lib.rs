//! Exhaustive deviation-strategy model checking for the hedged protocols.
//!
//! §10 of the paper reports that the two-party and three-party hedged swaps
//! were model checked (in TLA+). Smart contracts constrain Byzantine
//! behaviour on chain — malformed and mistimed calls are rejected — so the
//! *observable* deviation space of a party decomposes into three finite
//! axes: when it stops participating (`stop_after`), when within its legal
//! windows it acts (`timing`: eager or last-instant), and what garbage it
//! injects (`faults`: wrong-preimage emissions and crash-then-recover
//! outages). The product space is small enough to enumerate outright. This
//! crate generalises the paper's two hand-built models to a parallel sweep
//! engine over **arbitrary** protocol entry points:
//!
//! * [`engine`] — a [`ScenarioGen`] trait that exposes
//!   a scenario family through a random-access index space, and a
//!   [`ParallelSweep`] runner that fans indices out
//!   over scoped worker threads and merges results deterministically (the
//!   summary is identical for 1 and N threads);
//! * [`scenarios`] — the [`scenarios::Checked`] trait, in which each
//!   protocol (two-party swaps, deal-engine protocols — multi-party swaps
//!   over arbitrary digraphs and brokered sales — premium bootstrapping and
//!   auctions) states its model-checking facts once, and the one
//!   enumerated family over it, [`scenarios::Sweep`];
//! * [`sampled`] — the seed-pinned sampled tier over the same trait, with
//!   shrinking and a rational climber;
//! * top-level `check_*` helpers that bundle the common sweeps, including
//!   [`check_hedged_multi_party`] over cycles and cliques of up to six
//!   parties and [`check_random_digraphs`] over seeded random
//!   strongly-connected digraphs.
//!
//! # Examples
//!
//! The one-line checks mirror the paper's models:
//!
//! ```
//! let summary = modelcheck::check_hedged_two_party();
//! assert!(summary.violations.is_empty());
//! assert!(summary.runs > 20);
//! ```
//!
//! Larger sweeps pick their thread count explicitly; the result never
//! depends on it:
//!
//! ```
//! use modelcheck::engine::ParallelSweep;
//! use modelcheck::scenarios::DealSweep;
//! use protocols::multi_party::cycle_config;
//!
//! let family = DealSweep::at_most("cycle-4", cycle_config(4), 1);
//! let summary = ParallelSweep::new(4).run(&family);
//! assert!(summary.holds());
//! assert_eq!(summary.runs, 281, "all-compliant plus 4 parties × 70 deviations");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod engine;
pub mod sampled;
pub mod scenarios;

use chainsim::PartyId;
use engine::{ParallelSweep, ScenarioGen};
use protocols::auction::AuctionConfig;
use protocols::broker::BrokerConfig;
use protocols::deal::DealConfig;
use protocols::multi_party::{clique_config, cycle_config, figure3_config, random_config};
use protocols::two_party::TwoPartyConfig;
use sampled::{SampledBootstrap, SampledSweep};
use scenarios::{AuctionSweep, BootstrapSweep, BrokerSweep, DealSweep, TwoPartySweep};

/// A property violation found during a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which protocol and scenario the violation occurred in.
    pub scenario: String,
    /// The compliant party whose guarantee was broken, or
    /// [`scenarios::WHOLE_RUN`] for run-wide properties such as
    /// conservation of funds.
    pub party: PartyId,
    /// Which property was violated.
    pub property: &'static str,
}

/// The result of an exhaustive sweep.
///
/// `runs` counts protocol executions; `strategies` counts the joint
/// strategy profiles those executions *document*. For unreduced families
/// the two are equal: one run executes exactly one profile, and every
/// profile of the family's documented space is executed exactly once
/// (full-product families sweep the product of per-party stop-points;
/// bounded families sweep the deviator-bounded subset — see
/// [`scenarios::Sweep::at_most`]). Symmetry- and partial-order-reduced
/// families ([`scenarios::DealSweep::reduced`]) execute one canonical
/// representative per automorphism orbit and skip commuting-deviation
/// profiles outright, so `runs < strategies` there — each run carries its
/// orbit weight, and the weights plus the pruned tally are asserted at
/// construction to sum exactly to the unreduced closed form. Either way,
/// `strategies` is the size of the unreduced space the sweep's verdict
/// speaks for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Number of complete protocol executions explored.
    pub runs: usize,
    /// Total number of joint strategy profiles documented. Invariant:
    /// equals [`CheckSummary::runs`] for unreduced families; at least
    /// `runs` (orbit-weighted) for reduced families.
    pub strategies: usize,
    /// All property violations found (empty for the hedged protocols), in
    /// scenario-index order.
    pub violations: Vec<Violation>,
}

impl CheckSummary {
    /// Returns `true` if no violations were found.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The default runner for the bundled `check_*` helpers: sized to the
/// machine, deterministic regardless of the machine.
fn default_sweep() -> ParallelSweep {
    ParallelSweep::with_available_parallelism()
}

/// Model checks the hedged two-party swap over every joint strategy (both
/// parties ranging over the full `stop_after × timing × faults` space).
pub fn check_hedged_two_party() -> CheckSummary {
    default_sweep().run(&TwoPartySweep::hedged(TwoPartyConfig::default()))
}

/// Model checks the *base* (unhedged) two-party swap the same way. The base
/// protocol is expected to produce violations of the hedged property — that
/// is precisely the paper's motivation, and the engine must find them
/// rather than mask them.
pub fn check_base_two_party() -> CheckSummary {
    default_sweep().run(&TwoPartySweep::base(TwoPartyConfig::default()))
}

/// Model checks a [`DealConfig`] (multi-party swap or broker deal) over
/// every strategy profile with at most `max_deviators` deviating parties.
///
/// With three parties and `max_deviators = 2` this covers the three-party
/// scenarios the paper's TLA+ models explore.
pub fn check_deal(config: &DealConfig, max_deviators: usize) -> CheckSummary {
    default_sweep().run(&DealSweep::at_most("deal", config.clone(), max_deviators))
}

/// Model checks the three-party swap of Figure 3a with up to one deviator.
pub fn check_figure3_swap() -> CheckSummary {
    default_sweep().run(&DealSweep::at_most("deal", figure3_config(), 1))
}

/// Model checks the brokered sale of §8 with up to two simultaneous
/// deviators, as the deal family [`BrokerSweep::at_most`] compiles it to.
pub fn check_brokered_sale() -> CheckSummary {
    default_sweep().run(&BrokerSweep::at_most(&BrokerConfig::default(), 2))
}

/// Model checks the auction of §9: every auctioneer behaviour combined with
/// every single-party strategy of the full `stop_after × timing × faults`
/// space.
pub fn check_auction() -> CheckSummary {
    default_sweep().run(&AuctionSweep::default())
}

/// Model checks premium bootstrapping (§6) with 1 through `max_rounds`
/// premium rounds: for each round count, the all-compliant cascade plus
/// every party walking away, depositing at the deadline edge and attempting
/// a wrong-preimage grab at every level.
pub fn check_bootstrap(max_rounds: u32) -> CheckSummary {
    let families: Vec<BootstrapSweep> = (1..=max_rounds)
        .flat_map(|rounds| {
            [
                BootstrapSweep::new(1_000_000, 1_000_000, 100, rounds),
                BootstrapSweep::new(5_000, 20_000, 10, rounds),
            ]
        })
        .collect();
    let refs: Vec<&dyn ScenarioGen> = families.iter().map(|f| f as &dyn ScenarioGen).collect();
    default_sweep().run_all(&refs)
}

/// The multi-party scenario families checked for `n` parties: the directed
/// cycle on `n` and (for `n ≥ 3`) the complete digraph on `n`.
///
/// Deviation budgets scale with cost, and large graphs lean on reduction.
/// The two-party cycle sweeps the full joint product; three- and four-party
/// graphs sweep every pair of simultaneous deviators outright (their
/// summaries predate the reduction layer and stay byte-identical); from
/// five parties up, the pair sweeps run through [`DealSweep::reduced`] —
/// symmetry-quotiented by the leader-stabilizing automorphism group and
/// partial-order-reduced over commuting deviations — which is what restores
/// two-deviator coverage on graphs the unreduced pair sweep priced out
/// (earlier revisions dropped `n ≥ 5` to one deviator). Clique
/// representative counts are independent of `n`, so every clique tier now
/// affords pairs; `n = 4` cliques also route through the reduced
/// constructor since their sixfold leader symmetry is free coverage.
pub fn multi_party_families(n: u32) -> Vec<DealSweep> {
    assert!(n >= 2, "a swap needs at least two parties");
    let cycle = match n {
        2 => DealSweep::full(format!("cycle-{n}"), cycle_config(n)),
        3 | 4 => DealSweep::at_most(format!("cycle-{n}"), cycle_config(n), 2),
        _ => DealSweep::reduced(format!("cycle-{n}"), cycle_config(n), 2),
    };
    let mut families = vec![cycle];
    if n >= 3 {
        let clique = if n == 3 {
            DealSweep::at_most(format!("clique-{n}"), clique_config(n), 2)
        } else {
            DealSweep::reduced(format!("clique-{n}"), clique_config(n), 2)
        };
        families.push(clique);
    }
    families
}

/// The bundled sampled-tier families at one `(seed, samples-per-family)`
/// budget: the conforming-timing base swap (the canary family), the
/// full-axis hedged swap, Figure 3's three-party swap, the five-party
/// cycle, the auction and a three-round bootstrap cascade. Every family
/// draws its own `samples` profiles from `seed`, so the bundle documents
/// `6 × samples` randomized runs per sweep.
pub fn sampled_families(seed: u64, samples: usize) -> Vec<Box<dyn ScenarioGen>> {
    vec![
        Box::new(SampledSweep::base_two_party(TwoPartyConfig::default(), seed, samples)),
        Box::new(SampledSweep::hedged_two_party(TwoPartyConfig::default(), seed, samples)),
        Box::new(SampledSweep::deal("figure3", figure3_config(), seed, samples)),
        Box::new(SampledSweep::deal("cycle-5", cycle_config(5), seed, samples)),
        Box::new(SampledSweep::auction(AuctionConfig::default(), seed, samples)),
        Box::new(SampledBootstrap::new(5_000, 20_000, 10, 3, seed, samples)),
    ]
}

/// Runs the bundled sampled-tier families ([`sampled_families`]) and
/// merges their summaries. All the bundled families target hedged
/// protocols (the base swap is sampled over conforming timings only, where
/// it too is violation-free), so a clean summary is the expected outcome
/// at every seed; any violation is reproducible from the `(seed, sample)`
/// pair embedded in its scenario label.
pub fn check_sampled(seed: u64, samples: usize) -> CheckSummary {
    let families = sampled_families(seed, samples);
    let refs: Vec<&dyn ScenarioGen> =
        families.iter().map(|family| family.as_ref() as &dyn ScenarioGen).collect();
    default_sweep().run_all(&refs)
}

/// Model checks hedged multi-party swaps on `n` parties over generated
/// digraphs: the directed cycle and the complete digraph (see
/// [`multi_party_families`] for the exact scenario budgets).
///
/// The hedged theorem (§7) predicts zero violations for any strongly
/// connected digraph; this holds for every `2 ≤ n ≤ 6` and is pinned by
/// this crate's tests.
pub fn check_hedged_multi_party(n: u32) -> CheckSummary {
    let families = multi_party_families(n);
    let refs: Vec<&dyn ScenarioGen> = families.iter().map(|f| f as &dyn ScenarioGen).collect();
    default_sweep().run_all(&refs)
}

/// Model checks hedged swaps over `seeds` seeded random strongly-connected
/// digraphs on `n` parties (each with `extra_arcs` arcs beyond the
/// generated Hamiltonian cycle), one deviator at a time.
pub fn check_random_digraphs(n: u32, extra_arcs: usize, seeds: u64) -> CheckSummary {
    let families: Vec<DealSweep> = (0..seeds)
        .map(|seed| {
            DealSweep::at_most(
                format!("random-{n}-{extra_arcs}-seed{seed}"),
                random_config(n, extra_arcs, seed),
                1,
            )
        })
        .collect();
    let refs: Vec<&dyn ScenarioGen> = families.iter().map(|f| f as &dyn ScenarioGen).collect();
    default_sweep().run_all(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::broker::broker_deal_config;

    #[test]
    fn hedged_two_party_swap_has_no_violations() {
        let summary = check_hedged_two_party();
        let space = protocols::script::Strategy::space_size(protocols::two_party::SCRIPT_STEPS);
        assert_eq!(summary.runs, space * space, "full per-party product, squared");
        assert!(summary.holds(), "{:?}", summary.violations);
    }

    #[test]
    fn base_two_party_swap_is_not_hedged() {
        let summary = check_base_two_party();
        assert!(!summary.holds(), "the base protocol must exhibit sore-loser losses");
        assert!(summary.violations.iter().all(|v| v.property == "hedged"));
    }

    #[test]
    fn figure3_swap_has_no_violations_with_one_deviator() {
        let summary = check_figure3_swap();
        assert!(summary.runs > 15);
        assert!(summary.holds(), "{:?}", summary.violations);
    }

    #[test]
    fn broker_deal_has_no_violations_with_one_deviator() {
        let summary = check_deal(&broker_deal_config(&BrokerConfig::default()), 1);
        assert!(summary.holds(), "{:?}", summary.violations);
    }

    #[test]
    fn brokered_sale_has_no_violations_with_two_deviators() {
        let summary = check_brokered_sale();
        let deviating = protocols::deal::strategy_space().len() - 1;
        assert_eq!(
            summary.runs,
            1 + 3 * deviating + 3 * deviating * deviating,
            "deviator-bounded closed form"
        );
        assert!(summary.holds(), "{:?}", summary.violations);
    }

    #[test]
    fn auction_has_no_violations() {
        let summary = check_auction();
        assert!(summary.holds(), "{:?}", summary.violations);
    }

    #[test]
    fn bootstrap_rounds_have_no_violations() {
        let summary = check_bootstrap(3);
        // Per round count r: two configs × (1 + 6(r+1)) scenarios (stop,
        // deadline-edge and wrong-preimage deviations per party per level).
        let expected: usize = (1..=3).map(|r| 2 * (1 + 6 * (r as usize + 1))).sum();
        assert_eq!(summary.runs, expected);
        assert!(summary.holds(), "{:?}", summary.violations);
    }

    #[test]
    fn profile_enumeration_counts() {
        // 3 parties, 1 deviator, `|space| - 1` non-default strategies each:
        // 1 (all compliant) + 3 · 70 = 211 profiles.
        let deviating = protocols::deal::strategy_space().len() - 1;
        let summary = check_deal(&figure3_config(), 1);
        assert_eq!(summary.runs, 1 + 3 * deviating);
    }

    #[test]
    fn small_multi_party_graphs_hold() {
        for n in [2u32, 3] {
            let summary = check_hedged_multi_party(n);
            assert!(summary.holds(), "n={n}: {:?}", summary.violations);
            assert_eq!(summary.runs, summary.strategies);
        }
    }
}
